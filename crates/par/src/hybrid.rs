//! The two-pass hybrid hash join every hash join runs.
//!
//! DHH (Algorithms 1 and 2), Histojoin, NOCAP's hybrid partitioning
//! (Algorithms 8 and 9) and Grace Hash Join are one operator under four
//! *plans*: which keys are cached in memory, which get a designated spill
//! partition, how the rest is hashed and under which staging quotas.
//! [`hybrid_hash_join`] is that operator; a [`HybridPlan`] is what
//! distinguishes the joins, and its one [`Route`] function is consulted by
//! both passes, so the two sides of a join cannot be routed apart.
//!
//! | plan | cached | designated | residual |
//! |---|---|---|---|
//! | NOCAP | the planner's in-memory keys | the planner's disk-bound MCV groups | rounded-hash rest under staging quotas |
//! | DHH, Histojoin | the skew keys (2 % of `B`) | none | `m_DHH` plain-hash partitions under staging quotas |
//! | GHJ | none | every key, `mix64(key) mod (B − 1)` | none |
//!
//! 1. **Partition R** — cached keys go into the in-memory hash table,
//!    designated keys to their spill partition, everything else into a
//!    [`ParallelStager`] that stages partitions in memory and destages a
//!    partition once its staged footprint exceeds its fixed quota. The
//!    quotas are the caller's ([`nocap_model::staging_quotas`]:
//!    resident-first, so with a staging budget between `√(F·‖R‖)` and
//!    `F·‖R‖` part of R never touches the device).
//! 2. **Partition / probe S** — S records with designated keys are spilled
//!    to the matching S partition; the rest probe the in-memory table
//!    (producing output immediately) and, on a miss, are spilled only if
//!    their residual partition was destaged (the POB bit of DHH). A cached
//!    key that misses has no partner anywhere — every R record of that key
//!    went into the table — and is dropped.
//! 3. **Probe** — every spilled (R, S) partition pair is joined by the
//!    light optimizer of [`nocap_model::pairwise`]
//!    ([`smart_partition_join`]: chunk-wise NBJ, or Grace-style
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
//! * Workers claim page morsels from an atomic cursor ([`PageMorsels`]);
//!   every page is claimed once, so the base scans cost exactly
//!   `‖R‖ + ‖S‖` sequential reads, and a slow worker claims fewer morsels
//!   instead of holding the phase up.
//! * Every spill partition keeps **one** spill file and one buffered
//!   writer ([`SharedWriterSet`]). Workers fill private output pages and
//!   append them to the file only when full; the partial pages are merged
//!   through the buffered writer before the phase's I/O snapshot. A
//!   partition receiving `n` records therefore costs `⌈n / b⌉` random
//!   writes regardless of arrival order (identity in [`crate::shard`]).
//!   The windows they land in differ by side: R's writers are finished
//!   before the R pass ends, so all of an R partition's pages are
//!   partition I/O; an S partition has `⌈n / b⌉ − 1` pages on the device
//!   when the partition window closes, and `finish` writes its last page
//!   in the probe window — one page of probe I/O per non-empty S
//!   partition, designated or destaged.
//! * A residual partition's page-out bit depends only on its total record
//!   count against its quota, never on scan order or interleaving
//!   ([`crate::stage`]).
//! * Each spilled pair's I/O is independent of the order pairs are claimed
//!   from the work queue.
//!
//! All modeled pages are drawn from a [`BufferPool`] capped at the spec's
//! budget, so the §4.1 memory breakdown is enforced at run time, not just
//! assumed: the pool reserves the two streaming pages and the plan's fixed
//! structures, and what is left ([`staging_budget`]) is carved into one
//! reservation per residual partition of exactly its quota. Once R is
//! partitioned the quotas shrink to what the partitions hold, and the probe
//! pre-filter's pages come out of what that frees — never out of the
//! staging budget. Three knowing simplifications, all physical memory the
//! model does not charge: each worker holds one transient scan-buffer page
//! (the model charges one logical input page for the pipeline, as the paper
//! does); each worker holds one private output page per spill partition it
//! has routed a record to — at most `threads × m` pages for `m` spill
//! partitions, which at one worker is the `m` output-buffer pages the
//! model charges: the partition writers allocate theirs only when the
//! merge pours a worker's tail into them, one partition at a time (`m`
//! plus one transient page; ≤ 1.3 MB at 2 threads on the benchmark's
//! `zipf_par2`); and the fanned-out probe phase runs up to `threads`
//! partition-pair NBJs concurrently, each with the `B − 2`-page chunk the
//! cost model prescribes — peak physical probe memory is `threads × B`
//! pages even though the modeled I/O is unchanged. Use fewer threads when
//! physical memory, not I/O, is the binding constraint.
//!
//! **Panics.** Scan and probe tasks run under the pool's `catch_unwind`,
//! worker 0 — the calling thread — included. A panic inside one therefore
//! comes back as
//! [`WorkerPanicked`](nocap_storage::StorageError::WorkerPanicked) instead
//! of unwinding through the caller.

use std::sync::Mutex;

use nocap_model::pairwise::smart_partition_join;
use nocap_model::{JoinRunReport, JoinSpec, ProbeBloom};
use nocap_obs::{Obs, Phase};
use nocap_storage::{
    into_inner_unpoisoned, lock_unpoisoned, BufferPool, IoKind, JoinHashTable, PartitionHandle,
    RadixRouter, Relation, Result, SpillGuard,
};

use crate::pool::{resolve_threads, run_workers_obs, sum_tasks};
use crate::shard::{PageMorsels, SharedWriterSet};
use crate::stage::ParallelStager;

/// Where the records of one join key go. The plan's routing function maps
/// every key to exactly one of these, for R and S alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The key's R records join the in-memory table during the R pass; its
    /// S records only probe that table.
    Cached,
    /// Both sides spill to designated partition `p` (of
    /// [`HybridPlan::designated`]) and meet in the probe phase.
    Designated(usize),
    /// Residual partition `p` (of [`HybridPlan::quotas`]): R is staged under
    /// the partition's quota, S probes the table and follows R to disk only
    /// if the partition was destaged.
    Residual(usize),
}

/// What distinguishes one hybrid hash join from another.
pub struct HybridPlan<F> {
    /// The report's algorithm label.
    pub label: &'static str,
    /// Pages the plan's fixed structures occupy next to the two streaming
    /// pages: the cached keys' table, the routing structures, one output
    /// page per designated partition.
    pub fixed_pages: usize,
    /// Number of designated spill partitions.
    pub designated: usize,
    /// Staging quota per residual partition, in pages, sized on
    /// [`staging_budget`] for the same `fixed_pages`.
    pub quotas: Vec<usize>,
    /// The routing function both passes consult.
    pub route: F,
}

/// Pages left for staging the residual partitions once the two streaming
/// pages (one streams the input, one buffers the join output) and
/// `fixed_pages` are set aside — the budget a plan's
/// [`quotas`](HybridPlan::quotas) are sized on. Fails with
/// [`OutOfMemory`](nocap_storage::StorageError::OutOfMemory) when the spec
/// cannot hold the streaming pages, before any geometry is derived from a
/// budget no join can run under.
pub fn staging_budget(spec: &JoinSpec, fixed_pages: usize) -> Result<usize> {
    let pool = BufferPool::new(spec.buffer_pages);
    let _io_pages = pool.reserve(2)?;
    Ok(pool.available().saturating_sub(fixed_pages))
}

/// Executes `r ⋈ s` under `plan` on `threads` workers (`0` selects
/// [`default_threads`](crate::pool::default_threads)); see the module docs.
///
/// Main-thread phase spans around each pass, per-worker scan spans,
/// per-task probe spans, partition skew histograms and the buffer-pool
/// high-water gauge flow into `obs` when it records. The recorder is
/// strictly passive: routing, destaging and the probe pairs are fixed by
/// the plan and the data, so an observed run produces bit-identical output
/// and modeled I/O to a blind one — clocks stay in the obs channel.
pub fn hybrid_hash_join<F>(
    spec: &JoinSpec,
    bloom: ProbeBloom,
    r: &Relation,
    s: &Relation,
    plan: HybridPlan<F>,
    threads: usize,
    obs: &Obs,
) -> Result<JoinRunReport>
where
    F: Fn(u64) -> Route + Sync,
{
    let threads = resolve_threads(threads);
    let route = &plan.route;
    let device = r.device().clone();
    let _io_trace = obs.attach_io(&device);
    let pool = BufferPool::new(spec.buffer_pages);
    let _io_pages = pool.reserve(2)?;
    let _fixed = pool.reserve(plan.fixed_pages.min(pool.available()))?;
    // Make the quotas visible to the pool: one reservation per residual
    // partition of exactly its quota, together the staging budget.
    let quotas = pool.carve_quotas(&plan.quotas);

    let timer = obs.run_timer();
    let base_stats = device.stats();

    // ---- Phase 1: partition R (Algorithms 1 / 8) --------------------------
    let stager = ParallelStager::new(device.clone(), r.layout(), *spec, plan.quotas);
    let r_disk = SharedWriterSet::new(
        device.clone(),
        r.layout(),
        spec.page_size,
        IoKind::RandWrite,
        plan.designated,
    );
    let ht_shared = Mutex::new(JoinHashTable::new(r.layout(), spec.page_size, spec.fudge));
    let r_morsels = PageMorsels::new(r, threads);
    let r_partition_span = obs.span(Phase::Partition);
    let (stages, r_disk_locals): (Vec<_>, Vec<_>) =
        run_workers_obs(threads, obs, Phase::Partition, |_w, _wobs| {
            let mut stage = stager.worker_stage();
            let mut r_disk_out = r_disk.local();
            // Per-worker radix write buffers: residual records batch up per
            // partition and flush into the stager in cache-friendly runs.
            // Per-partition arrival order within this worker is preserved
            // and quota destaging depends only on per-partition counts, so
            // staged contents and spill decisions are unchanged.
            let mut router = RadixRouter::new(r.layout(), stager.num_partitions());
            r_morsels.scan(|page| {
                for rec in page.record_refs() {
                    match route(rec.key()) {
                        // R is the primary-key side: cached keys are rare,
                        // so this lock is cold.
                        Route::Cached => lock_unpoisoned(&ht_shared).insert_ref(rec),
                        Route::Designated(p) => r_disk_out.push(p, rec)?,
                        Route::Residual(p) => {
                            router.push(p, rec, &mut |p, r| stager.insert(&mut stage, p, r))?
                        }
                    }
                }
                Ok(())
            })?;
            router.finish(&mut |p, r| stager.insert(&mut stage, p, r))?;
            Ok((stage, r_disk_out))
        })?
        .into_iter()
        .unzip();
    drop(r_partition_span);
    let spill_span = obs.span(Phase::Spill);
    let staged_pages = stager.pages_in_use();
    let mut build = stager.finish(stages)?;
    // Every spill handle is adopted here the moment it is finished, so an
    // error anywhere below — partitioning, probing, a faulted device —
    // deletes all spill files on unwind (deletion is not modeled I/O).
    let mut spill_guard = SpillGuard::new();
    spill_guard.adopt_all(build.spilled.iter().flatten().cloned());
    r_disk.merge(r_disk_locals)?;
    let r_disk_handles = r_disk.finish_dense()?;
    spill_guard.adopt_all(r_disk_handles.iter().cloned());
    drop(spill_span);
    let mut ht_mem = into_inner_unpoisoned(ht_shared);
    let staged_records = build.staged_records.len();
    {
        let _build_span = obs.span(Phase::Build);
        // The table takes copies: release the staged batch right away
        // instead of holding the resident part of R twice.
        for rec in std::mem::take(&mut build.staged_records).iter() {
            ht_mem.insert_ref(rec);
        }
    }
    // The build side is complete: the quotas shrink to what the partitions
    // hold now — a resident partition's table, a destaged one's output page
    // — and the probe pre-filter takes its pages from what that frees, so
    // it never shifts the partition geometry; with nothing freed the filter
    // is skipped. Freeze the table into its vectorized probe layout and
    // summarize its keys for the filter (order-invariant bit contents,
    // hence thread-count invariant).
    drop(quotas);
    let _staged = pool.reserve(staged_pages.min(pool.available()))?;
    let bloom_reservation = bloom.reserve(&pool);
    ht_mem.seal();
    let bloom = bloom.build(&ht_mem, &bloom_reservation, spec.page_size);

    // ---- Phase 2: partition / probe S (Algorithms 2 / 9) ------------------
    let s_disk = SharedWriterSet::new(
        device.clone(),
        s.layout(),
        spec.page_size,
        IoKind::RandWrite,
        plan.designated,
    );
    let s_rest = SharedWriterSet::new_masked(
        device.clone(),
        s.layout(),
        spec.page_size,
        IoKind::RandWrite,
        &build.pob,
    );
    let s_morsels = PageMorsels::new(s, threads);
    let ht_ref = &ht_mem;
    let bloom_ref = &bloom;
    let pob = &build.pob;
    let s_partition_span = obs.span(Phase::Partition);
    let s_workers = run_workers_obs(threads, obs, Phase::Partition, |_w, _wobs| {
        let mut output = 0u64;
        let mut s_disk_out = s_disk.local();
        let mut s_rest_out = s_rest.local();
        s_morsels.scan(|page| {
            for rec in page.record_refs() {
                let dest = route(rec.key());
                if let Route::Designated(p) = dest {
                    s_disk_out.push(p, rec)?;
                    continue;
                }
                // A bloom-negative key takes exactly the `matches == 0`
                // route (the filter has no false negatives), so routing and
                // modeled I/O are identical with the filter on or off.
                let matches = if bloom_ref.as_ref().is_none_or(|b| b.may_contain(rec.key())) {
                    ht_ref.probe_count(rec.key())
                } else {
                    0
                };
                if matches > 0 {
                    output += matches;
                } else if let Route::Residual(p) = dest {
                    if pob[p] {
                        s_rest_out.push(p, rec)?;
                    }
                    // else: the partition stayed in memory and the key had
                    // no match.
                }
            }
            Ok(())
        })?;
        Ok((output, s_disk_out, s_rest_out))
    })?;
    // Tail merge inside the partition window: afterwards every S writer
    // buffers exactly one partial page, which `finish` flushes in the probe
    // window.
    let mut output = 0u64;
    let (mut s_disk_locals, mut s_rest_locals) = (Vec::new(), Vec::new());
    for (count, disk, rest) in s_workers {
        output += count;
        s_disk_locals.push(disk);
        s_rest_locals.push(rest);
    }
    s_disk.merge(s_disk_locals)?;
    s_rest.merge(s_rest_locals)?;
    drop(s_partition_span);
    let partition_io = device.stats().since(&base_stats);
    record_partition_skew(obs, &r_disk_handles, &build.spilled, staged_records);

    // ---- Phase 3: partition-wise joins of everything spilled --------------
    let probe_base = device.stats();
    let probe_span = obs.span(Phase::Probe);
    let s_disk_handles = s_disk.finish_dense()?;
    spill_guard.adopt_all(s_disk_handles.iter().cloned());
    let s_rest_handles = s_rest.finish_all()?;
    spill_guard.adopt_all(s_rest_handles.iter().flatten().cloned());
    let mut pairs: Vec<(PartitionHandle, PartitionHandle)> = Vec::new();
    for (r_part, s_part) in r_disk_handles.iter().zip(s_disk_handles.iter()) {
        pairs.push((r_part.clone(), s_part.clone()));
    }
    for (maybe_r, maybe_s) in build.spilled.iter().zip(s_rest_handles.iter()) {
        if let (Some(r_part), Some(s_part)) = (maybe_r, maybe_s) {
            pairs.push((r_part.clone(), s_part.clone()));
        }
    }
    output += sum_tasks(threads, obs, Phase::Probe, pairs.len(), |i| {
        smart_partition_join(&pairs[i].0, &pairs[i].1, spec, 1)
    })?;
    drop(probe_span);
    let probe_io = device.stats().since(&probe_base);

    // Dropping the guard deletes every spill file (not counted as I/O).
    drop(spill_guard);

    obs.gauge_max("buffer_pool_peak_pages", pool.peak() as u64);
    let mut report = JoinRunReport::new(plan.label);
    report.output_records = output;
    report.partition_io = partition_io;
    report.probe_io = probe_io;
    report.finish_run(timer, obs);
    Ok(report)
}

/// Records the partition-fan-out skew histograms and counters: per-spilled
/// -partition record and page counts (designated partitions first, then
/// destaged residuals) plus the partition census the breakdown tables
/// report. The destaged set is fixed by the quota geometry, so the recorded
/// skew is identical for any thread count.
fn record_partition_skew(
    obs: &Obs,
    designated: &[PartitionHandle],
    rest: &[Option<PartitionHandle>],
    staged_records: usize,
) {
    if !obs.is_recording() {
        return;
    }
    let handles = || designated.iter().chain(rest.iter().flatten());
    obs.values("partition_records", handles().map(|h| h.records() as u64));
    obs.values("partition_pages", handles().map(|h| h.pages() as u64));
    obs.count("designated_partitions", designated.len() as u64);
    obs.count("rest_partitions", rest.len() as u64);
    obs.count(
        "spilled_rest_partitions",
        rest.iter().flatten().count() as u64,
    );
    obs.count("staged_records", staged_records as u64);
}
