//! Radix-router equivalence: buffered routing through [`RadixRouter`] must
//! be *byte-identical* to pushing every record straight into the partition
//! sink.
//!
//! The router batches records in cache-line-sized per-partition write
//! buffers and flushes them in bursts, so the only thing it may change is
//! *when* the sink sees a record — never which partition it goes to, the
//! order within a partition, or the bytes delivered. These tests drive the
//! same record streams through a [`ParallelStager`] with one
//! [`WorkerStage`] (what worker 0 of NOCAP's and DHH's R pass routes into)
//! both ways and require equal staged batches, page-out bits, spill-file
//! contents and modeled I/O — across zipf, uniform and JCC-H workloads, a
//! sweep of partition counts, and streams whose tails leave every buffer
//! partially filled.

use nocap_suite::model::{staging_quotas, JoinSpec, StagingRouter};
use nocap_suite::par::ParallelStager;
use nocap_suite::storage::device::DeviceRef;
use nocap_suite::storage::hash::mix64;
use nocap_suite::storage::{
    IoKind, IoStats, PartitionHandle, RadixRouter, RecordBatch, RecordRef, Relation, SimDevice,
};
use nocap_suite::workload::jcch::{self, JcchConfig, JcchSkew};
use nocap_suite::workload::{synthetic, Correlation, SyntheticConfig};

/// One spill file's fully materialized records.
type SpilledRecords = Vec<(u64, Vec<u8>)>;

/// Everything observable about one partitioning pass.
struct PassResult {
    staged: RecordBatch,
    pob: Vec<bool>,
    /// Fully materialized spill-file contents, per partition.
    spilled: Vec<Option<SpilledRecords>>,
    io: IoStats,
}

fn read_back(handle: &PartitionHandle) -> Vec<(u64, Vec<u8>)> {
    let mut out = Vec::with_capacity(handle.records());
    let mut reader = handle.read(IoKind::SeqRead);
    while let Some(page) = reader.next_page().unwrap() {
        for rec in page.record_refs() {
            out.push((rec.key(), rec.payload().to_vec()));
        }
    }
    out
}

/// Routes `r`'s records into `m` quota-staged partitions, with or without
/// the radix write buffers in front of the stager.
fn partition_pass(
    device: DeviceRef,
    spec: &JoinSpec,
    r: &Relation,
    m: usize,
    budget_pages: usize,
    buffered: bool,
) -> PassResult {
    let base = device.stats();
    // The executors' quotas; where they would clamp the partition count
    // (more partitions than pages) a page per partition instead.
    let router = StagingRouter::PlainHash { parts: m };
    let mut caps = staging_quotas(r.num_records(), spec, budget_pages, router).caps();
    caps.resize(m, 1);
    let stager = ParallelStager::new(device.clone(), r.layout(), *spec, caps);
    let mut stage = stager.worker_stage();
    let mut sink = |p: usize, rec: RecordRef<'_>| stager.insert(&mut stage, p, rec);
    let mut router = RadixRouter::new(r.layout(), m);
    let mut scan = r.scan();
    while let Some(page) = scan.next_page().unwrap() {
        for rec in page.record_refs() {
            let p = (mix64(rec.key()) % m as u64) as usize;
            if buffered {
                router.push(p, rec, &mut sink).unwrap();
            } else {
                sink(p, rec).unwrap();
            }
        }
    }
    if buffered {
        router.finish(&mut sink).unwrap();
    }
    let build = stager.finish(vec![stage]).unwrap();
    let io = device.stats().since(&base);
    let spilled = build
        .spilled
        .iter()
        .map(|maybe| maybe.as_ref().map(read_back))
        .collect();
    for handle in build.spilled.into_iter().flatten() {
        handle.delete().unwrap();
    }
    PassResult {
        staged: build.staged_records,
        pob: build.pob,
        spilled,
        io,
    }
}

fn assert_pass_equivalence(name: &str, spec: &JoinSpec, r: &Relation, m: usize, budget: usize) {
    let device = r.device().clone();
    let direct = partition_pass(device.clone(), spec, r, m, budget, false);
    let buffered = partition_pass(device.clone(), spec, r, m, budget, true);
    assert_eq!(
        buffered.staged, direct.staged,
        "{name}/m={m}/B={budget}: staged batch contents diverged"
    );
    assert_eq!(
        buffered.pob, direct.pob,
        "{name}/m={m}/B={budget}: page-out bits diverged"
    );
    assert_eq!(
        buffered.spilled, direct.spilled,
        "{name}/m={m}/B={budget}: spill-file contents diverged"
    );
    assert_eq!(
        buffered.io, direct.io,
        "{name}/m={m}/B={budget}: modeled I/O diverged"
    );
}

fn workload_relation(name: &str) -> Relation {
    let device = SimDevice::new_ref();
    match name {
        "jcch_tuned" => {
            let config = JcchConfig {
                n_orders: 4_000,
                n_lineitems: 8_000,
                skew: JcchSkew::Tuned,
                record_bytes: 128,
                mcv_count: 100,
                seed: 0x1CC4,
            };
            jcch::generate(device.clone(), &config)
                .expect("jcch workload")
                .r
        }
        correlation => {
            let config = SyntheticConfig {
                n_r: 4_000,
                n_s: 8_000,
                record_bytes: 128,
                correlation: match correlation {
                    "zipf_1.1" => Correlation::Zipf { alpha: 1.1 },
                    "uniform" => Correlation::Uniform,
                    other => panic!("unknown workload {other}"),
                },
                mcv_count: 100,
                seed: 0xEC0,
            };
            synthetic::generate(device.clone(), &config)
                .expect("synthetic workload")
                .r
        }
    }
}

#[test]
fn buffered_routing_is_byte_identical_across_workloads_and_partition_counts() {
    for name in ["zipf_1.1", "uniform", "jcch_tuned"] {
        let r = workload_relation(name);
        let spec = JoinSpec::paper_synthetic(128, 48);
        // Partition counts spanning fewer-than-cap to more-than-budget, with
        // budgets tight enough that some partitions destage mid-stream.
        for m in [1usize, 2, 3, 8, 17, 64] {
            for budget in [8usize, 46] {
                assert_pass_equivalence(name, &spec, &r, m, budget);
            }
        }
    }
}

#[test]
fn partial_flush_tails_are_byte_identical() {
    // Streams sized so no partition buffer ever fills (everything is
    // delivered by `finish`), plus one-over-capacity streams that leave a
    // one-record tail behind a full flush.
    let device = SimDevice::new_ref();
    let spec = JoinSpec::paper_synthetic(128, 48);
    let layout = spec.r_layout;
    let cap = RadixRouter::new(layout, 1).buffer_capacity();
    for n in [1usize, 3, cap - 1, cap, cap + 1, 5 * cap + 2] {
        let records: Vec<nocap_suite::storage::Record> = (0..n as u64)
            .map(|k| nocap_suite::storage::Record::with_fill(k, layout.payload_bytes(), 9))
            .collect();
        let r = Relation::bulk_load(
            device.clone(),
            layout,
            spec.page_size,
            records.iter().cloned(),
        )
        .unwrap();
        for m in [1usize, 4, 13] {
            assert_pass_equivalence("tail", &spec, &r, m, 8);
        }
    }
}

#[test]
fn router_reuse_after_finish_stays_clean() {
    // The executors construct one router per pass, but the contract says
    // `finish` leaves the router empty and reusable — pin it.
    let layout = nocap_suite::storage::RecordLayout::new(24);
    let mut router = RadixRouter::new(layout, 4);
    let payload = [3u8; 24];
    let mut seen: Vec<(usize, u64)> = Vec::new();
    let mut sink = |p: usize, rec: RecordRef<'_>| {
        seen.push((p, rec.key()));
        Ok(())
    };
    for round in 0..3u64 {
        for i in 0..5u64 {
            router
                .push(
                    (i % 4) as usize,
                    RecordRef::new(round * 100 + i, &payload),
                    &mut sink,
                )
                .unwrap();
        }
        router.finish(&mut sink).unwrap();
        assert_eq!(router.pending(), 0, "round {round} left records behind");
    }
    assert_eq!(seen.len(), 15);
}
