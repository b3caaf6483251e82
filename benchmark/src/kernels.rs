//! Micro-timings of the storage kernels and of the bare device, taken by
//! calling each layer's public functions on the workload's own pages.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use nocap_model::{JoinSpec, ProbeBloom};
use nocap_storage::hash::mix64;
use nocap_storage::{
    run_chunks, sort_chunk, BloomFilter, IoKind, JoinHashTable, Page, RadixRouter, SortScratch,
};

use crate::manifest::Metric;
use crate::spans::SpanLog;
use crate::summary::median;
use crate::workloads::Loaded;

/// Pages of S the kernels run over: enough records for a stable rate, few
/// enough that the file-backed workload keeps them in memory.
const KERNEL_S_PAGES: usize = 8_192;
const REPEATS: usize = 3;
/// Direct `BlockDevice` calls behind `device.read_page_us` / `append_page_us`.
const DIRECT_CALLS: usize = 20_000;

/// Median seconds of `REPEATS` runs of `kernel`, under a span of its name.
fn timed(
    log: &mut SpanLog,
    name: &str,
    mut kernel: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    let span = log.enter(name);
    let mut secs = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let started = Instant::now();
        kernel()?;
        secs.push(started.elapsed().as_secs_f64());
    }
    log.exit(span);
    Ok(median(&secs))
}

/// The `kernel.*` metrics.
pub fn kernel_metrics(
    log: &mut SpanLog,
    loaded: &Loaded,
    spec: &JoinSpec,
) -> Result<Vec<Metric>, String> {
    let (r, s) = (&loaded.wl.r, &loaded.wl.s);
    let err = |e: nocap_storage::StorageError| e.to_string();
    // Inputs are read once, outside the timed loops.
    let read_pages =
        |rel: &nocap_storage::Relation, pages: usize| -> Result<Vec<Arc<Page>>, String> {
            let mut scan = rel.scan_range(0..pages);
            let mut out = Vec::with_capacity(pages);
            while let Some(page) = scan.next_page().map_err(err)? {
                out.push(page);
            }
            Ok(out)
        };
    let r_pages = read_pages(r, r.num_pages())?;
    let s_page_count = s.num_pages().min(KERNEL_S_PAGES);
    let s_pages = read_pages(s, s_page_count)?;
    let s_keys: Vec<u64> = s_pages
        .iter()
        .flat_map(|p| p.record_refs().map(|rec| rec.key()))
        .collect();
    let c_r = spec.c_r().max(1);
    let new_table = || JoinHashTable::new(r.layout(), spec.page_size, spec.fudge);

    // Build: every c_R-sized slice of R becomes one sealed table, as in the
    // chunk-wise joins of the probe phase.
    let build_s = timed(log, "kernel.ht_build", || {
        let mut table = new_table();
        for rec in r_pages.iter().flat_map(|p| p.record_refs()) {
            table.insert_ref(rec);
            if table.num_records() == c_r {
                table.seal();
                black_box(table.num_keys());
                table = new_table();
            }
        }
        table.seal();
        black_box(table.num_keys());
        Ok(())
    })?;

    // Probe and bloom: S keys against the first c_R records of R.
    let mut table = new_table();
    for rec in r_pages.iter().flat_map(|p| p.record_refs()).take(c_r) {
        table.insert_ref(rec);
    }
    table.seal();
    let probe_s = timed(log, "kernel.ht_probe", || {
        let matches: u64 = s_keys.iter().map(|&k| table.probe_count(k)).sum();
        black_box(matches);
        Ok(())
    })?;
    let bloom = BloomFilter::from_keys(
        table.iter().map(|rec| rec.key()),
        table.num_records(),
        ProbeBloom::default().pages,
        spec.page_size,
    );
    let mut positives = 0usize;
    let bloom_s = timed(log, "kernel.bloom_probe", || {
        positives = s_keys.iter().filter(|&&k| bloom.may_contain(k)).count();
        black_box(positives);
        Ok(())
    })?;
    let members = s_keys.iter().filter(|&&k| table.contains(k)).count();
    let false_positive_ratio = match s_keys.len() - members {
        0 => 0.0,
        absent => (positives - members) as f64 / absent as f64,
    };

    // Route: S through the write buffers at DHH's partition count for this
    // budget, into a sink that only counts.
    let partitions = spec
        .m_dhh(r.num_records())
        .min(spec.buffer_pages.saturating_sub(3))
        .max(2);
    let route_s = timed(log, "kernel.radix_route", || {
        let mut router = RadixRouter::new(s.layout(), partitions);
        let mut delivered = 0usize;
        let mut sink = |_p: usize, _rec: nocap_storage::RecordRef<'_>| {
            delivered += 1;
            Ok(())
        };
        for rec in s_pages.iter().flat_map(|p| p.record_refs()) {
            let p = mix64(rec.key()) as usize % partitions;
            router.push(p, rec, &mut sink).map_err(err)?;
        }
        router.finish(&mut sink).map_err(err)?;
        if delivered != s_keys.len() {
            return Err(format!(
                "router delivered {delivered} of {} records",
                s_keys.len()
            ));
        }
        Ok(())
    })?;

    // Sort and scan go through the relation, so they include its page reads
    // (and the sort its run writes) on the workload's device.
    let mut scratch = SortScratch::new();
    let sort_s = timed(log, "kernel.sort_chunk", || {
        for chunk in run_chunks(s_page_count, spec.buffer_pages) {
            let run = sort_chunk(s, chunk, &mut scratch).map_err(err)?;
            black_box(run.records());
            run.delete().map_err(err)?;
        }
        Ok(())
    })?;
    let scan_s = timed(log, "kernel.page_scan", || {
        let mut scan = s.scan_range(0..s_page_count);
        let mut sum = 0u64;
        while let Some(page) = scan.next_page().map_err(err)? {
            sum = page
                .record_refs()
                .fold(sum, |acc, rec| acc.wrapping_add(rec.key()));
        }
        black_box(sum);
        Ok(())
    })?;

    let rate = |name: &str, items: usize, secs: f64, unit: &'static str| {
        Metric::new(format!("kernel.{name}"), items as f64 / secs / 1e6, unit)
    };
    Ok(vec![
        rate("ht_build_mrec_s", r.num_records(), build_s, "Mrec/s"),
        rate("ht_probe_mrec_s", s_keys.len(), probe_s, "Mrec/s"),
        rate("radix_route_mrec_s", s_keys.len(), route_s, "Mrec/s"),
        rate("bloom_probe_mkeys_s", s_keys.len(), bloom_s, "Mkeys/s"),
        Metric::new(
            "kernel.bloom_false_positive_ratio",
            false_positive_ratio,
            "ratio",
        ),
        rate("sort_chunk_mrec_s", s_keys.len(), sort_s, "Mrec/s"),
        rate("page_scan_mrec_s", s_keys.len(), scan_s, "Mrec/s"),
    ])
}

/// `device.read_page_us` and `device.append_page_us`: mean microseconds of
/// a direct call on the device under the workload, on a scratch file.
pub fn direct_device_metrics(log: &mut SpanLog, loaded: &Loaded) -> Result<Vec<Metric>, String> {
    let err = |e: nocap_storage::StorageError| e.to_string();
    let device = loaded.base_device();
    let page = loaded
        .wl
        .r
        .scan()
        .next_page()
        .map_err(err)?
        .ok_or("R has no page")?;
    let calls = DIRECT_CALLS.min(loaded.wl.s.num_pages());
    let span = log.enter("device.direct_calls");
    let file = device.create_file();
    let started = Instant::now();
    for _ in 0..calls {
        device
            .append_page(file, &page, IoKind::SeqWrite)
            .map_err(err)?;
    }
    let append_us = started.elapsed().as_secs_f64() * 1e6 / calls as f64;
    let started = Instant::now();
    for index in 0..calls {
        black_box(
            device
                .read_page(file, index, IoKind::SeqRead)
                .map_err(err)?,
        );
    }
    let read_us = started.elapsed().as_secs_f64() * 1e6 / calls as f64;
    device.delete_file(file).map_err(err)?;
    log.exit(span);
    Ok(vec![
        Metric::new("device.read_page_us", read_us, "us"),
        Metric::new("device.append_page_us", append_us, "us"),
    ])
}
