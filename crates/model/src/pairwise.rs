//! Partition-wise join execution shared by every partitioning algorithm.
//!
//! After the partitioning phase, GHJ, DHH, Histojoin and NOCAP all face the
//! same sub-problem: join one spilled R partition with the corresponding S
//! partition. All four are plans for one hybrid hash join body, which
//! hands every spilled pair to [`smart_partition_join`] — this module's
//! one pair join. Following the paper (§3.1.1), the partition-wise join is
//! executed as a Nested Block Join — the light optimizer of Table 1 almost
//! always selects NBJ for these sub-joins because writing anything back to
//! disk (as GHJ/SMJ would) costs μ/τ-weighted I/Os; below `√(F·‖R‖)` it
//! re-partitions the pair ([`repartition`], through the same
//! [`SpillSet`] write path as the partition passes) and recurses instead.
//!
//! [`nbj_partition_join`] loads the R partition chunk-by-chunk into an
//! in-memory hash table sized to the full buffer budget and scans the S
//! partition once per chunk, which reproduces the
//! `⌈‖R_j‖·F/(B−2)⌉ · ‖S_j‖` term of the cost model exactly.
//!
//! The whole loop is zero-copy: pages are read once, records enter the
//! chunk table as [`RecordRef`](nocap_storage::RecordRef) arena copies and
//! S records count their matches straight from their page buffer — no
//! per-record allocation anywhere.

use std::sync::Arc;

use nocap_storage::hash::{level_seed, mix64_seeded};
use nocap_storage::{
    IoKind, JoinHashTable, Page, PartitionHandle, RecordLayout, SpillGuard, SpillSet,
};

use crate::classic_cost::{best_partition_join, PartitionJoinMethod};
use crate::spec::JoinSpec;

/// Joins one spilled partition pair with chunk-wise NBJ.
///
/// Returns the number of output tuples produced. Page reads are charged to
/// `report.probe_io` through the device the handles live on; the caller is
/// responsible for snapshotting device stats into the report.
pub fn nbj_partition_join(
    r_partition: &PartitionHandle,
    s_partition: &PartitionHandle,
    spec: &JoinSpec,
) -> nocap_storage::Result<u64> {
    if r_partition.is_empty() || s_partition.is_empty() {
        return Ok(0);
    }
    // Chunk capacity: all pages except one input page and one output page,
    // deflated by the fudge factor.
    let chunk_records = JoinHashTable::capacity_for_pages(
        spec.buffer_pages.saturating_sub(2).max(1),
        spec.r_layout,
        spec.page_size,
        spec.fudge,
    )
    .max(1);

    let mut output = 0u64;
    let mut reader = r_partition.read(IoKind::SeqRead);
    let mut loader = ChunkLoader::new();
    loop {
        // Load the next chunk of R into a hash table.
        let mut table = JoinHashTable::new(spec.r_layout, spec.page_size, spec.fudge);
        let loaded = loader.fill(&mut table, chunk_records, || reader.next_page())?;
        if table.is_empty() {
            break;
        }
        table.seal();
        // Scan S once for this chunk.
        let mut s_reader = s_partition.read(IoKind::SeqRead);
        while let Some(page) = s_reader.next_page()? {
            for s_rec in page.record_refs() {
                output += table.probe_count(s_rec.key());
            }
        }
        if loaded < chunk_records {
            break;
        }
    }
    Ok(output)
}

/// Incrementally fills chunk hash tables from a page stream, resuming a
/// page whose records straddle a chunk boundary so every page is read
/// exactly once — the same I/O accounting the owned-record iterator
/// implementation produced. Shared by [`nbj_partition_join`] and the
/// standalone NBJ executor.
#[derive(Default)]
pub struct ChunkLoader {
    pending: Option<(Arc<Page>, usize)>,
}

impl ChunkLoader {
    /// Creates a loader with no pending page.
    pub fn new() -> Self {
        ChunkLoader::default()
    }

    /// Loads up to `chunk_records` records from `next_page` into `table`,
    /// returning how many were loaded (fewer than `chunk_records` iff the
    /// page stream is exhausted).
    pub fn fill(
        &mut self,
        table: &mut JoinHashTable,
        chunk_records: usize,
        mut next_page: impl FnMut() -> nocap_storage::Result<Option<Arc<Page>>>,
    ) -> nocap_storage::Result<usize> {
        let mut loaded = 0usize;
        while loaded < chunk_records {
            let (page, start) = match self.pending.take() {
                Some(resume) => resume,
                None => match next_page()? {
                    Some(page) => (page, 0),
                    None => break,
                },
            };
            let count = page.record_count();
            let take = (chunk_records - loaded).min(count - start);
            for i in start..start + take {
                table.insert_ref(page.get_ref(i)?);
            }
            loaded += take;
            if start + take < count {
                self.pending = Some((page, start + take));
            }
        }
        Ok(loaded)
    }
}

/// Hash-partitions a spilled partition of `layout` records into `m`
/// sub-partitions by `mix64_seeded(key, seed)` — one recursion level of
/// Grace-style re-partitioning. [`smart_partition_join`] seeds level `d`
/// with `nocap_storage::hash::level_seed(d)`, so nested passes use a hash
/// independent of the one that produced the partition. Zero-copy: records
/// route straight from the source page into the sub-partitions' pages of a
/// [`SpillSet`], the write path of the partition passes; a sub-partition's
/// file exists only once a record reaches it, and one that receives none
/// comes back as `None`.
pub fn repartition(
    handle: &PartitionHandle,
    layout: RecordLayout,
    spec: &JoinSpec,
    m: usize,
    seed: u64,
) -> nocap_storage::Result<Vec<Option<PartitionHandle>>> {
    let set = SpillSet::new(handle.device().clone(), layout, spec.page_size, m);
    let mut local = set.local();
    let mut reader = handle.read(IoKind::SeqRead);
    while let Some(page) = reader.next_page()? {
        for rec in page.record_refs() {
            let p = (mix64_seeded(rec.key(), seed) % m as u64) as usize;
            set.push(&mut local, p, rec)?;
        }
    }
    set.merge([local])?;
    set.finish()
}

/// The paper's light optimizer ([`best_partition_join`]) applied to one
/// spilled partition pair: join with chunk-wise NBJ, or — when the estimated
/// Table 1 cost says another partitioning pass is cheaper (the regime below
/// `√(F·‖R‖)`) — re-partition the pair recursively first, Grace-style. Every
/// hash join joins its spilled pairs here, at `depth = 1`; past depth 3 the
/// pair goes to NBJ unconditionally.
pub fn smart_partition_join(
    r_partition: &PartitionHandle,
    s_partition: &PartitionHandle,
    spec: &JoinSpec,
    depth: u32,
) -> nocap_storage::Result<u64> {
    const MAX_DEPTH: u32 = 4;
    if r_partition.is_empty() || s_partition.is_empty() {
        return Ok(0);
    }
    let fits = JoinHashTable::pages_for(
        r_partition.records(),
        spec.r_layout,
        spec.page_size,
        spec.fudge,
    ) + 2
        <= spec.buffer_pages;
    if fits || depth >= MAX_DEPTH {
        return nbj_partition_join(r_partition, s_partition, spec);
    }
    let (method, _) = best_partition_join(r_partition.pages(), s_partition.pages(), spec);
    if method == PartitionJoinMethod::Nbj {
        return nbj_partition_join(r_partition, s_partition, spec);
    }
    // Re-partition both sides and recurse. Fail-clean: the sub-partitions
    // are deleted when the guard drops, whether the nested joins succeed or
    // not.
    let m = spec.buffer_pages.saturating_sub(1).max(2);
    let seed = level_seed(depth);
    let mut guard = SpillGuard::new();
    let r_sub = repartition(r_partition, spec.r_layout, spec, m, seed)?;
    guard.adopt_all(r_sub.iter().flatten().cloned());
    let s_sub = repartition(s_partition, spec.s_layout, spec, m, seed)?;
    guard.adopt_all(s_sub.iter().flatten().cloned());
    let mut output = 0u64;
    for pair in r_sub.iter().zip(&s_sub) {
        if let (Some(rp), Some(sp)) = pair {
            output += smart_partition_join(rp, sp, spec, depth + 1)?;
        }
    }
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocap_storage::{PartitionWriter, Record, SimDevice};

    fn make_partition(
        device: nocap_storage::device::DeviceRef,
        keys: &[u64],
        payload: usize,
    ) -> PartitionHandle {
        let mut w =
            PartitionWriter::new(device, RecordLayout::new(payload), 4096, IoKind::RandWrite);
        for &k in keys {
            w.push(&Record::with_fill(k, payload, 0)).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn joins_matching_keys() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(64, 64);
        let r = make_partition(dev.clone(), &[1, 2, 3, 4], 56);
        let s = make_partition(dev.clone(), &[2, 2, 3, 9, 9], 56);
        let out = nbj_partition_join(&r, &s, &spec).unwrap();
        assert_eq!(out, 3); // key 2 twice + key 3 once
    }

    #[test]
    fn multiple_chunks_scan_s_repeatedly() {
        let dev = SimDevice::new_ref();
        // Tiny budget: 4 pages → chunk of ~2 pages of R.
        let spec = JoinSpec::paper_synthetic(512, 4);
        let r_keys: Vec<u64> = (0..200).collect();
        let s_keys: Vec<u64> = (0..200).collect();
        let r = make_partition(dev.clone(), &r_keys, 504);
        let s = make_partition(dev.clone(), &s_keys, 504);
        dev.reset_stats();
        let out = nbj_partition_join(&r, &s, &spec).unwrap();
        assert_eq!(out, 200);
        // S must have been read more than once.
        let s_pages = s.pages() as u64;
        assert!(dev.stats().seq_reads > r.pages() as u64 + s_pages);
    }

    #[test]
    fn empty_partitions_produce_no_output_and_no_io() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(64, 16);
        let r = make_partition(dev.clone(), &[], 56);
        let s = make_partition(dev.clone(), &[1, 2], 56);
        dev.reset_stats();
        assert_eq!(nbj_partition_join(&r, &s, &spec).unwrap(), 0);
        assert_eq!(dev.stats().total(), 0);
    }

    #[test]
    fn smart_join_recursively_repartitions_when_cheaper() {
        // A partition pair far larger than the memory budget: chunk-wise NBJ
        // would need many passes over S, so the smart join should
        // re-partition and end up cheaper.
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(64, 16);
        let keys: Vec<u64> = (0..20_000).collect();
        let r = make_partition(dev.clone(), &keys, 56);
        let s = make_partition(dev.clone(), &keys, 56);

        dev.reset_stats();
        let nbj_out = nbj_partition_join(&r, &s, &spec).unwrap();
        let nbj_ios = dev.stats().total();

        dev.reset_stats();
        let smart_out = smart_partition_join(&r, &s, &spec, 1).unwrap();
        let smart_ios = dev.stats().total();

        assert_eq!(nbj_out, 20_000);
        assert_eq!(smart_out, 20_000);
        assert!(
            smart_ios < nbj_ios,
            "recursive re-partitioning should beat multi-pass NBJ ({smart_ios} vs {nbj_ios})"
        );
    }

    #[test]
    fn smart_join_equals_nbj_when_the_partition_fits() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(64, 64);
        let r = make_partition(dev.clone(), &[1, 2, 3], 56);
        let s = make_partition(dev.clone(), &[1, 3, 3, 7], 56);
        assert_eq!(smart_partition_join(&r, &s, &spec, 1).unwrap(), 3);
    }
}
