//! Partition-wise join execution shared by every partitioning algorithm,
//! and the one Nested Block Join loop.
//!
//! After the partitioning phase, GHJ, DHH, Histojoin and NOCAP all face the
//! same sub-problem: join one spilled R partition with the corresponding S
//! partition. A spilled partition is a [`Relation`] like the join inputs,
//! so each pair `(R_j, S_j)` is joined as two smaller relations (§3.1.1).
//! All four joins are plans for one hybrid hash join body, which hands
//! every spilled pair to [`smart_partition_join`] — this module's one pair
//! join. Following the paper, the partition-wise join is executed as a
//! Nested Block Join — the light optimizer of Table 1 almost always selects
//! NBJ for these sub-joins because writing anything back to disk (as
//! GHJ/SMJ would) costs μ/τ-weighted I/Os; below `√(F·‖R‖)` it
//! re-partitions the pair ([`repartition`], through the same
//! [`SpillSet`] write path as the partition passes) and recurses instead.
//!
//! [`nested_block_join`] loads its inner relation chunk-by-chunk into an
//! in-memory hash table sized to the full buffer budget and scans the
//! outer relation once per chunk, which reproduces the
//! `⌈‖R_j‖·F/(B−2)⌉ · ‖S_j‖` term of the cost model exactly. A pair joins
//! with `R_j` as the chunked side; the standalone NBJ operator
//! (`nocap_joins::NestedBlockJoin`) runs the same loop on the smaller
//! input.
//!
//! The whole loop is zero-copy: pages are read once, records enter the
//! chunk table as [`RecordRef`](nocap_storage::RecordRef) arena copies and
//! outer records count their matches straight from their page buffer — no
//! per-record allocation anywhere.

use std::sync::Arc;

use nocap_obs::{Obs, Phase};
use nocap_storage::hash::{level_seed, mix64_seeded};
use nocap_storage::{JoinHashTable, Page, Relation, RelationScan, SpillSet};

use crate::classic_cost::{best_partition_join, PartitionJoinMethod};
use crate::spec::JoinSpec;

/// The pages a pair join declares: a one-page NBJ chunk and two streaming
/// pages.
pub const PAIR_JOIN_PAGES: usize = 3;

/// Nested Block Join of `inner ⋈ outer`: loads `inner` chunk by chunk into
/// a hash table of the budget's `B − 2` pages (one page streams the outer
/// relation, one holds the output) and scans `outer` once per chunk — the
/// `‖inner‖ + #chunks · ‖outer‖` reads of Table 1's first row. Each
/// chunk's fill is a build span of `obs` and each outer pass a scan span.
///
/// Returns the number of output tuples; a budget below [`PAIR_JOIN_PAGES`]
/// fails before any read. An empty side costs no I/O. Reads are charged to
/// the device the relations live on; the caller snapshots device stats.
pub fn nested_block_join(
    inner: &Relation,
    outer: &Relation,
    spec: &JoinSpec,
    obs: &Obs,
) -> nocap_storage::Result<u64> {
    let chunk_pages = 1 + spec.pages_left(PAIR_JOIN_PAGES)?;
    if inner.is_empty() || outer.is_empty() {
        return Ok(0);
    }
    let chunk_records =
        JoinHashTable::capacity_for_pages(chunk_pages, inner.layout(), spec.page_size, spec.fudge)
            .max(1);

    let mut output = 0u64;
    let mut loader = ChunkLoader {
        scan: inner.scan(),
        pending: None,
    };
    loop {
        let mut table = JoinHashTable::new(inner.layout(), spec.page_size, spec.fudge);
        let build_span = obs.span(Phase::Build);
        let loaded = loader.fill(&mut table, chunk_records)?;
        drop(build_span);
        if table.is_empty() {
            break;
        }
        // Freeze the chunk into the vectorized probe layout.
        table.seal();
        let _scan_span = obs.span(Phase::Scan);
        let mut outer_scan = outer.scan();
        while let Some(page) = outer_scan.next_page()? {
            for rec in page.record_refs() {
                output += table.probe_count(rec.key());
            }
        }
        if loaded < chunk_records {
            break;
        }
    }
    Ok(output)
}

/// Fills chunk hash tables from the inner relation's scan, resuming a page
/// whose records straddle a chunk boundary so every page is read exactly
/// once.
struct ChunkLoader {
    scan: RelationScan,
    pending: Option<(Arc<Page>, usize)>,
}

impl ChunkLoader {
    /// Loads up to `chunk_records` records into `table`, returning how many
    /// were loaded (fewer than `chunk_records` iff the scan is exhausted).
    fn fill(
        &mut self,
        table: &mut JoinHashTable,
        chunk_records: usize,
    ) -> nocap_storage::Result<usize> {
        let mut loaded = 0usize;
        while loaded < chunk_records {
            let (page, start) = match self.pending.take() {
                Some(resume) => resume,
                None => match self.scan.next_page()? {
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

/// Hash-partitions a spilled partition into `m` sub-partitions of its own
/// layout by `mix64_seeded(key, seed)` — one recursion level of
/// Grace-style re-partitioning. [`smart_partition_join`] seeds level `d`
/// with `nocap_storage::hash::level_seed(d)`, so nested passes use a hash
/// independent of the one that produced the partition. Zero-copy: records
/// route straight from the source page into the sub-partitions' pages of a
/// [`SpillSet`], the write path of the partition passes; a sub-partition's
/// file exists only once a record reaches it, and one that receives none
/// comes back as `None`.
pub fn repartition(
    partition: &Relation,
    spec: &JoinSpec,
    m: usize,
    seed: u64,
) -> nocap_storage::Result<Vec<Option<Relation>>> {
    let set = SpillSet::new(
        partition.device().clone(),
        partition.layout(),
        spec.page_size,
        m,
    );
    let mut local = set.local();
    let mut scan = partition.scan();
    while let Some(page) = scan.next_page()? {
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
/// hash join joins its spilled pairs here, at `depth = 1`, on a budget of
/// at least [`PAIR_JOIN_PAGES`] that it checked before any I/O; past
/// depth 3 the pair goes to NBJ unconditionally.
pub fn smart_partition_join(
    r_partition: &Relation,
    s_partition: &Relation,
    spec: &JoinSpec,
    depth: u32,
) -> nocap_storage::Result<u64> {
    const MAX_DEPTH: u32 = 4;
    if r_partition.is_empty() || s_partition.is_empty() {
        return Ok(0);
    }
    let nbj = || nested_block_join(r_partition, s_partition, spec, &Obs::off());
    let fits = JoinHashTable::pages_for(
        r_partition.num_records(),
        r_partition.layout(),
        spec.page_size,
        spec.fudge,
    ) + 2
        <= spec.buffer_pages;
    if fits || depth >= MAX_DEPTH {
        return nbj();
    }
    let (method, _) = best_partition_join(r_partition.num_pages(), s_partition.num_pages(), spec);
    if method == PartitionJoinMethod::Nbj {
        return nbj();
    }
    // Re-partition both sides into a sub-partition per page beside the
    // input page, and recurse. Fail-clean: the sub-partitions are deleted
    // when they drop, whether the nested joins succeed or not.
    let m = spec.pages_left(1)?;
    let seed = level_seed(depth);
    let r_sub = repartition(r_partition, spec, m, seed)?;
    let s_sub = repartition(s_partition, spec, m, seed)?;
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
    use nocap_storage::{IoKind, RecordLayout, RecordRef, RelationWriter, SimDevice};

    fn make_partition(
        device: nocap_storage::device::DeviceRef,
        keys: &[u64],
        payload: usize,
    ) -> Relation {
        let mut w =
            RelationWriter::new(device, RecordLayout::new(payload), 4096, IoKind::RandWrite);
        let zeros = vec![0; payload];
        for &k in keys {
            w.push_ref(RecordRef::new(k, &zeros)).unwrap();
        }
        w.finish().unwrap()
    }

    fn nbj(r: &Relation, s: &Relation, spec: &JoinSpec) -> u64 {
        nested_block_join(r, s, spec, &Obs::off()).unwrap()
    }

    #[test]
    fn joins_matching_keys() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(64, 64);
        let r = make_partition(dev.clone(), &[1, 2, 3, 4], 56);
        let s = make_partition(dev.clone(), &[2, 2, 3, 9, 9], 56);
        let out = nbj(&r, &s, &spec);
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
        let out = nbj(&r, &s, &spec);
        assert_eq!(out, 200);
        // S must have been read more than once.
        let s_pages = s.num_pages() as u64;
        assert!(dev.stats().seq_reads > r.num_pages() as u64 + s_pages);
    }

    #[test]
    fn empty_partitions_produce_no_output_and_no_io() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(64, 16);
        let r = make_partition(dev.clone(), &[], 56);
        let s = make_partition(dev.clone(), &[1, 2], 56);
        dev.reset_stats();
        assert_eq!(nbj(&r, &s, &spec), 0);
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
        let nbj_out = nbj(&r, &s, &spec);
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
