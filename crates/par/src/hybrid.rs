//! The two-pass hybrid hash join every hash join runs.
//!
//! DHH (Algorithms 1 and 2), Histojoin, NOCAP's hybrid partitioning
//! (Algorithms 8 and 9) and Grace Hash Join are one operator under four
//! *plans*: which keys are cached in memory, how the rest is hashed over
//! the partitions, and each partition's staging quota.
//! [`hybrid_hash_join`] is that operator; a [`HybridPlan`] is what
//! distinguishes the joins, and its one [`Route`] function is consulted by
//! both passes, so the two sides of a join cannot be routed apart. There is
//! one partition space: a partition that must spill from its first record
//! — DHH's terms for NOCAP's designated partitions and for every GHJ
//! partition — is a partition of quota 0.
//!
//! | plan | cached | quota-0 partitions | staged partitions |
//! |---|---|---|---|
//! | NOCAP | the planner's in-memory keys | the planner's `K_disk` groups | rounded-hash rest under staging quotas |
//! | DHH, Histojoin | the skew keys (2 % of `B`) | none | `m_DHH` plain-hash partitions under staging quotas |
//! | GHJ | none | every key, `mix64(key) mod (B − 1)` | none |
//!
//! 1. **Partition R** — cached keys go into the in-memory hash table,
//!    everything else into a [`ParallelStager`] that stages partitions in
//!    memory and destages a partition once its staged footprint exceeds its
//!    fixed quota — a quota-0 partition on its first record. The non-zero
//!    quotas are the caller's ([`nocap_model::staging_quotas`]:
//!    resident-first, so with a staging budget between `√(F·‖R‖)` and
//!    `F·‖R‖` part of R never touches the device).
//! 2. **Partition / probe S: probe first, route on a miss** — every S
//!    record probes the in-memory table once; a hit is all of its output
//!    (the table holds the cached keys and the resident partitions, and
//!    neither has R records anywhere else) and the record is done. Only a
//!    miss consults the plan's route: a key of a destaged partition is
//!    spilled to the matching S partition (the page-out bit of DHH), and
//!    anything else — a cached key, or a partition that stayed resident or
//!    received no R record — has no partner anywhere and is dropped. A
//!    destaged key never has R records in the table, so every record is
//!    spilled, answered or dropped exactly as if it had been routed first,
//!    and a hit costs no route at all. With an empty table (GHJ, or a plan
//!    that caches and stages nothing) the loop routes directly.
//! 3. **Probe** — every spilled (R, S) partition pair — two
//!    [`Relation`]s, like the join's inputs — is joined by the light
//!    optimizer of [`nocap_model::pairwise`] ([`smart_partition_join`]:
//!    the chunk loop the standalone NBJ runs too, or Grace-style
//!    re-partitioning below `√(F·‖R‖)`) — the one pair join of every hash
//!    join.
//!
//! Each pass routes every record independently, so both scans are spread
//! over the workers and the probe phase is fanned out over the spilled
//! pairs. At one worker nothing is spawned and the join runs on the calling
//! thread. For **every thread count the join output and the per-phase
//! modeled I/O are the same** — pinned as checked-in numbers by
//! `tests/parallel_determinism.rs`:
//!
//! * Each scan is an [`ordered_tasks`] run over the relation's
//!   [`page_morsels`]; every page is claimed once, so the base scans cost
//!   exactly `‖R‖ + ‖S‖` sequential reads, and a slow worker claims fewer
//!   morsels instead of holding the phase up.
//! * Each side spills through one [`SpillSet`]: one spill file per
//!   partition, worker-private output pages appended to it only when full,
//!   and the partial pages merged through one buffered writer before the
//!   phase's I/O snapshot. A partition receiving `n` records therefore
//!   costs `⌈n / b⌉` random writes regardless of arrival order (the
//!   identity is in [`nocap_storage::spill`]). The windows they land in
//!   differ by side: R's set is finished before the R pass ends, so all of
//!   an R partition's pages are partition I/O; an S partition has
//!   `⌈n / b⌉ − 1` pages on the device when the partition window closes,
//!   and `finish` writes its last page in the probe window — one page of
//!   probe I/O per non-empty S partition.
//! * A partition's page-out bit depends only on its total record count
//!   against its quota, never on scan order or interleaving
//!   ([`crate::stage`]).
//! * Each spilled pair's I/O is independent of the order pairs are claimed
//!   from the work queue.
//!
//! The §4.1 memory breakdown is a declared plan, with one check. The
//! partition phase holds the input page, the join-output page when a
//! table can answer S records, the plan's fixed structures and one quota
//! per partition — a quota-0 partition the one output page it spills
//! through — which the stager keeps to at run time by destaging a
//! partition that outgrows its quota. The probe phase holds one pair join,
//! at least [`PAIR_JOIN_PAGES`]. A plan whose pages B cannot hold fails
//! with [`OutOfMemory`](nocap_storage::StorageError::OutOfMemory) before
//! any I/O ([`JoinSpec::pages_left`]). Three knowing simplifications, all
//! physical memory the model does not charge: each worker holds one
//! transient scan-buffer page (the model charges one logical input page
//! for the pipeline, as the paper does);
//! each worker holds one private output page per spill partition it has
//! routed a record to — at most `threads × m` pages for `m` spill
//! partitions, which at one worker is the `m` output-buffer pages the
//! model charges (see [`nocap_storage::spill`]; ≤ 1.3 MB at 2 threads on
//! the benchmark's `zipf_par2`); and the fanned-out probe phase runs up
//! to `threads` partition-pair NBJs concurrently, each with the
//! `B − 2`-page chunk the cost model prescribes — peak physical probe
//! memory is `threads × B` pages even though the modeled I/O is
//! unchanged. Use fewer threads when physical memory, not I/O, is the
//! binding constraint.
//!
//! **Spill files.** Every spilled partition is a [`Relation`] that owns its
//! file, so the files go when the partitions drop: after the probe phase,
//! or on the way out of whichever phase fails.
//!
//! **Failures.** Scan morsels and probe pairs are all tasks of the one
//! fan-out, so a failed read or append stops the sibling workers before
//! their next morsel or pair, and a panic inside a task — worker 0's, on
//! the calling thread, included — comes back as
//! [`WorkerPanicked`](nocap_storage::StorageError::WorkerPanicked) instead
//! of unwinding through the caller.

use std::sync::{Arc, Mutex};

use nocap_model::pairwise::{smart_partition_join, PAIR_JOIN_PAGES};
use nocap_model::{JoinRunReport, JoinSpec};
use nocap_obs::{Obs, Phase};
use nocap_storage::{
    into_inner_unpoisoned, lock_unpoisoned, JoinHashTable, Relation, Result, SpillSet,
};

use crate::pool::ordered_tasks;
use crate::shard::page_morsels;
use crate::stage::ParallelStager;

/// Where the records of one join key go. The plan's routing function maps
/// every key to exactly one of these, for R and S alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The key's R records join the in-memory table during the R pass; its
    /// S records only probe that table.
    Cached,
    /// Partition `p` (of [`HybridPlan::quotas`]): R is staged under the
    /// partition's quota, S probes the table and, on a miss, follows R to
    /// disk only if the partition was destaged.
    Partition(usize),
}

/// What distinguishes one hybrid hash join from another.
pub struct HybridPlan<F> {
    /// The report's algorithm label.
    pub label: &'static str,
    /// Pages the plan's fixed structures occupy: the cached keys' table and
    /// the routing structures.
    pub fixed_pages: usize,
    /// Staging quota per partition, in pages: the non-zero quotas share
    /// what the streaming pages and `fixed_pages` leave of B; a quota-0
    /// partition is destaged by its first R record and holds one output
    /// page.
    pub quotas: Vec<usize>,
    /// The routing function both passes consult: once per R record, once
    /// per S record that misses the in-memory table.
    pub route: F,
}

/// Executes `r ⋈ s` under `plan` on `threads` workers (`0` runs as one, see
/// [`ordered_tasks`]); see the module docs. A plan whose declared pages B
/// cannot hold fails with
/// [`OutOfMemory`](nocap_storage::StorageError::OutOfMemory) before any
/// I/O.
///
/// Main-thread phase spans around each pass, per-morsel scan spans and
/// per-pair probe spans flow into `obs` when it records. The recorder is
/// strictly passive: routing, destaging and the probe pairs are fixed by
/// the plan and the data, so an observed run produces bit-identical output
/// and modeled I/O to a blind one — clocks stay in the obs channel.
///
/// # Panics
///
/// Panics if `r` and `s` live on two devices: the join counts its I/O on,
/// and spills both sides to, `r`'s device.
pub fn hybrid_hash_join<F>(
    spec: &JoinSpec,
    r: &Relation,
    s: &Relation,
    plan: HybridPlan<F>,
    threads: usize,
    obs: &Obs,
) -> Result<JoinRunReport>
where
    F: Fn(u64) -> Route + Sync,
{
    assert!(
        std::ptr::addr_eq(Arc::as_ptr(r.device()), Arc::as_ptr(s.device())),
        "R and S must live on one device"
    );
    let route = &plan.route;
    let device = r.device().clone();
    let _io_trace = obs.attach_io(&device);
    // The plan's pages, checked before any I/O: the partition phase's
    // input page, its output page if a table can answer S records, the
    // fixed structures and every partition's quota (a spilled partition's
    // output page at least); then one pair join.
    let held = plan.fixed_pages + plan.quotas.iter().map(|&q| q.max(1)).sum::<usize>();
    let output_page = usize::from(plan.fixed_pages > 0 || plan.quotas.iter().any(|&q| q > 0));
    spec.pages_left((1 + output_page + held).max(PAIR_JOIN_PAGES))?;

    let timer = obs.run_timer();
    let base_stats = device.stats();

    // ---- Phase 1: partition R (Algorithms 1 / 8) --------------------------
    let stager = ParallelStager::new(device.clone(), r.layout(), *spec, plan.quotas);
    let ht_shared = Mutex::new(JoinHashTable::new(r.layout(), spec.page_size, spec.fudge));
    let r_morsels = page_morsels(r.num_pages(), threads);
    let r_partition_span = obs.span(Phase::Partition);
    let (_, stages) = ordered_tasks(
        threads,
        obs,
        Phase::Partition,
        r_morsels.len(),
        || stager.worker_stage(),
        |stage, i| {
            let mut scan = r.scan_range(r_morsels[i].clone());
            while let Some(page) = scan.next_page()? {
                for rec in page.record_refs() {
                    match route(rec.key()) {
                        // R is the primary-key side: cached keys are rare,
                        // so this lock is cold.
                        Route::Cached => lock_unpoisoned(&ht_shared).insert_ref(rec),
                        Route::Partition(p) => stager.insert(stage, p, rec)?,
                    }
                }
            }
            Ok(())
        },
    )?;
    drop(r_partition_span);
    let spill_span = obs.span(Phase::Spill);
    // The spilled partitions own their files: an error anywhere below —
    // partitioning, probing, a faulted device — drops them and deletes the
    // files (deletion is not modeled I/O).
    let mut build = stager.finish(stages)?;
    drop(spill_span);
    let mut ht_mem = into_inner_unpoisoned(ht_shared);
    {
        let _build_span = obs.span(Phase::Build);
        // The table takes copies: release the staged batch right away
        // instead of holding the resident part of R twice.
        for rec in std::mem::take(&mut build.staged_records).iter() {
            ht_mem.insert_ref(rec);
        }
    }
    // The build side is complete: freeze the table into its vectorized
    // probe layout.
    ht_mem.seal();

    // ---- Phase 2: partition / probe S (Algorithms 2 / 9) ------------------
    let s_set = SpillSet::new(device.clone(), s.layout(), spec.page_size, build.pob.len());
    let s_morsels = page_morsels(s.num_pages(), threads);
    let table = (!ht_mem.is_empty()).then_some(&ht_mem);
    let pob = &build.pob;
    let s_partition_span = obs.span(Phase::Partition);
    let (counts, s_locals) = ordered_tasks(
        threads,
        obs,
        Phase::Partition,
        s_morsels.len(),
        || s_set.local(),
        |s_out, i| {
            let mut output = 0u64;
            let mut scan = s.scan_range(s_morsels[i].clone());
            while let Some(page) = scan.next_page()? {
                for rec in page.record_refs() {
                    // Probe first: a hit is all of the record's output.
                    let matches = table.map_or(0, |ht| ht.probe_count(rec.key()));
                    if matches > 0 {
                        output += matches;
                        continue;
                    }
                    // Route on a miss. A cached key or a partition that
                    // stayed resident had every R record of the key in the
                    // table, so the record has no partner.
                    if let Route::Partition(p) = route(rec.key()) {
                        if pob[p] {
                            s_set.push(s_out, p, rec)?;
                        }
                    }
                }
            }
            Ok(output)
        },
    )?;
    // Tail merge inside the partition window: afterwards every S writer
    // buffers exactly one partial page, which `finish` flushes in the probe
    // window.
    let mut output = counts.iter().sum::<u64>();
    s_set.merge(s_locals)?;
    drop(s_partition_span);
    let partition_io = device.stats().since(&base_stats);

    // ---- Phase 3: partition-wise joins of everything spilled --------------
    let probe_base = device.stats();
    let probe_span = obs.span(Phase::Probe);
    let s_spilled = s_set.finish()?;
    let pairs: Vec<(&Relation, &Relation)> = build
        .spilled
        .iter()
        .zip(&s_spilled)
        .filter_map(|pair| match pair {
            (Some(r_part), Some(s_part)) => Some((r_part, s_part)),
            _ => None,
        })
        .collect();
    let (counts, _) = ordered_tasks(
        threads,
        obs,
        Phase::Probe,
        pairs.len(),
        || (),
        |_, i| smart_partition_join(pairs[i].0, pairs[i].1, spec, 1),
    )?;
    output += counts.iter().sum::<u64>();
    drop(probe_span);
    let probe_io = device.stats().since(&probe_base);

    // Dropping the partitions deletes every spill file (not counted as I/O).
    drop((build.spilled, s_spilled));

    let mut report = JoinRunReport::new(plan.label);
    report.output_records = output;
    report.partition_io = partition_io;
    report.probe_io = probe_io;
    report.finish_run(timer, obs);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocap_storage::hash::mix64;
    use nocap_storage::{RecordLayout, RecordRef, SimDevice};
    use std::sync::atomic::{AtomicUsize, Ordering};

    const N_R: u64 = 2_000;

    /// R holds the keys `0..N_R` once; S holds each of them three times and
    /// then `extra` keys R lacks, once each.
    fn relations(spec: &JoinSpec, extra: u64) -> (Relation, Relation) {
        let device = SimDevice::new_ref();
        let load = |layout: RecordLayout, keys: &mut dyn Iterator<Item = u64>| {
            let payload = vec![0; layout.payload_bytes()];
            let records = keys.map(|k| RecordRef::new(k, &payload));
            Relation::bulk_load(device.clone(), layout, spec.page_size, records).unwrap()
        };
        let r = load(spec.r_layout, &mut (0..N_R));
        let s = load(
            spec.s_layout,
            &mut (0..3).flat_map(|_| 0..N_R).chain(N_R..N_R + extra),
        );
        (r, s)
    }

    /// Runs `plan` with its route wrapped in a call counter and returns the
    /// join output and the number of calls made.
    fn count_route_calls(
        spec: &JoinSpec,
        r: &Relation,
        s: &Relation,
        plan: HybridPlan<impl Fn(u64) -> Route + Sync>,
        threads: usize,
    ) -> (u64, usize) {
        let calls = AtomicUsize::new(0);
        let counted = HybridPlan {
            label: plan.label,
            fixed_pages: plan.fixed_pages,
            quotas: plan.quotas,
            route: |key: u64| {
                calls.fetch_add(1, Ordering::Relaxed);
                (plan.route)(key)
            },
        };
        let report = hybrid_hash_join(spec, r, s, counted, threads, &Obs::off()).unwrap();
        (report.output_records, calls.into_inner())
    }

    #[test]
    fn with_every_key_cached_the_s_pass_never_routes() {
        let spec = JoinSpec::paper_synthetic(128, 256);
        let (r, s) = relations(&spec, 0);
        for threads in [1, 2] {
            let plan = HybridPlan {
                label: "cached",
                fixed_pages: spec.hash_table_pages(N_R as usize),
                quotas: vec![],
                route: |_| Route::Cached,
            };
            let (output, calls) = count_route_calls(&spec, &r, &s, plan, threads);
            assert_eq!(output, 3 * N_R);
            assert_eq!(
                calls, N_R as usize,
                "T={threads}: one route per R record and none per S record"
            );
        }
    }

    #[test]
    fn the_s_pass_routes_exactly_the_records_that_miss_the_table() {
        // Keys below 200 are cached, 200..600 go to four quota-0 partitions,
        // and the rest are hashed over eight more: the first four with room
        // to stay resident, the last four destaged by a one-page quota.
        // S adds 300 keys R lacks.
        let spec = JoinSpec::paper_synthetic(128, 256);
        let extra = 300;
        let (r, s) = relations(&spec, extra);
        let hashed = |key: u64| (mix64(key) % 8) as usize;
        let route = |key: u64| match key {
            0..200 => Route::Cached,
            200..600 => Route::Partition((key % 4) as usize),
            _ => Route::Partition(4 + hashed(key)),
        };
        let destaged_keys = (600..N_R).filter(|&k| hashed(k) >= 4).count() as u64;
        // Misses: every S record of a quota-0 partition, every S record of
        // a destaged partition and every key R lacks.
        let misses = 3 * 400 + 3 * destaged_keys + extra;
        for threads in [1, 2] {
            let plan = HybridPlan {
                label: "mixed",
                fixed_pages: spec.hash_table_pages(200),
                quotas: vec![0, 0, 0, 0, 16, 16, 16, 16, 1, 1, 1, 1],
                route,
            };
            let (output, calls) = count_route_calls(&spec, &r, &s, plan, threads);
            assert_eq!(output, 3 * N_R);
            assert_eq!(
                calls as u64,
                N_R + misses,
                "T={threads}: one route per R record and per S record that missed"
            );
        }
    }

    #[test]
    fn a_quota_0_partition_without_r_records_spills_no_s_record() {
        // Partition 0 (quota 0) holds the keys 0..100, partition 1 (quota
        // 0) the keys N_R.. that only S has, partition 2 (quota 0)
        // everything else. Partition 1 receives no R record, so it is never
        // destaged and its S records, which have no partner, are dropped
        // instead of spilled: S writes exactly the pages of partitions 0
        // and 2.
        let spec = JoinSpec::paper_synthetic(128, 256);
        let extra = 1_000;
        let (r, s) = relations(&spec, extra);
        let b_s = spec.b_s();
        let s_pages = (3 * 100usize).div_ceil(b_s) + (3 * (N_R as usize - 100)).div_ceil(b_s);
        let r_pages = 100usize.div_ceil(spec.b_r()) + (N_R as usize - 100).div_ceil(spec.b_r());
        for threads in [1, 2] {
            let plan = HybridPlan {
                label: "quota-0",
                fixed_pages: 0,
                quotas: vec![0, 0, 0],
                route: |key: u64| match key {
                    0..100 => Route::Partition(0),
                    N_R.. => Route::Partition(1),
                    _ => Route::Partition(2),
                },
            };
            let report = hybrid_hash_join(&spec, &r, &s, plan, threads, &Obs::off()).unwrap();
            assert_eq!(report.output_records, 3 * N_R);
            assert_eq!(
                report.total_io().writes() as usize,
                r_pages + s_pages,
                "T={threads}: no S page for the partition R left empty"
            );
        }
    }
}
