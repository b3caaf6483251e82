//! Sort-Merge Join (SMJ).
//!
//! Both relations are externally sorted by the join key; as in the paper,
//! the final merge pass is fused with the join itself: sorting stops as soon
//! as each relation's runs fit the shared merge fan-in, and a k-way merge
//! over the runs of R and S drives the join directly. Run files are written
//! sequentially (τ-weighted) and the fused merge reads runs with random
//! reads — this is why the paper observes SMJ matching GHJ's #I/Os but
//! losing slightly on latency.
//!
//! The whole path runs on the arena record pipeline: run generation sorts
//! `(key, payload-index)` pairs over a
//! [`RecordBatch`](nocap_storage::RecordBatch) arena (no per-record
//! allocation), and the fused merge drives two [`LoserTree`]s of page-mode
//! run cursors that decode each run page's keys once, on entering it, and
//! compare packed `(key, run)` order keys — payload bytes never move
//! during the join itself.
//!
//! [`SortMergeJoin::run_parallel`] runs every phase on its workers, and
//! each phase's work is cut by the data and the budget, never by the
//! worker count:
//!
//! 1. **Run generation.** Workers claim chunks of the **fixed** page grid
//!    ([`run_chunks`] — chunk `i` always covers pages
//!    `[i·(B−1), (i+1)·(B−1))`) from an atomic cursor and sort them
//!    independently; the runs are collected in canonical chunk order.
//! 2. **Merge cascade.** Each level cuts its runs into groups of up to
//!    `B − 1` and the workers claim groups the same way. A group reads
//!    only its own runs and writes one run, which lands at its group
//!    index, so every group's I/O and the next level's runs are those of
//!    a one-worker cascade.
//! 3. **Fused merge-join.** The final runs recorded the first key of each
//!    page as they were written; `T − 1` splitter keys at page-weighted
//!    quantiles of those fences cut the key space into `T` ranges, and
//!    each worker counts the matches of one range with one loser tree per
//!    input over its slices of the runs. A page that straddles a splitter
//!    is read once, before the fan-out, and handed to both sides; every
//!    other page is read by the one slice that owns it. The merge drains
//!    S to its end — S keys above R's largest match nothing, but their
//!    pages are read anyway — so each final-run page is read exactly once
//!    at every `T`. At `T = 1` there is one slice per run.
//!
//! Output and per-phase modeled I/O are therefore bit-identical to
//! [`run`](SortMergeJoin::run) — the same body at one worker — at every
//! worker count. The working memory is not: each worker owns one
//! chunk-sized sort arena during run generation, and each concurrent group
//! merge holds up to `B` pages (its input cursors and output page), so a
//! phase holds up to `T × B` pages at `T` workers. That is the classic
//! memory/time trade of parallel sorting; the modeled I/O is unaffected.
//! Every merge cursor's key vector adds up to `records_per_page × 8` bytes
//! to its page (≈ 3 % at 256-byte records).
//!
//! The device's footprint is the inputs plus one copy of the runs, at
//! every `T`. Every merge — each cascade group and the fused merge — takes
//! each run page from the device as it reads it (see
//! [`nocap_storage::sort`]), so concurrent groups shrink their inputs as
//! fast as they write their outputs, and the final runs hold no live page
//! once the fused merge is done. Every run owns its file: a group's input
//! files are deleted when its merge returns, the final runs' when the
//! fused merge does, and a failed phase drops — and deletes — every run it
//! wrote.

use std::sync::Mutex;

use nocap_model::{JoinRunReport, JoinSpec};
use nocap_obs::{Obs, Phase};
use nocap_par::{ordered_tasks, resolve_threads};
use nocap_storage::sort::{
    fence_splitters, merge_runs, run_chunks, sort_chunk, split_runs, LoserTree, RunSlice,
    SortScratch, SortedRun,
};
use nocap_storage::{lock_unpoisoned, Relation};

/// Smallest buffer budget SMJ accepts, in pages.
///
/// The fused final merge splits a fan-in of `B − 1` input pages between the
/// two relations, and each side needs at least a two-way merge:
/// `r_share ≥ 2` and `s_share ≥ 2` (the `r_share.clamp(2, fan_in - 2)`
/// below), so `B − 1 ≥ 4`, i.e. `B ≥ 5`. Budgets below this floor are a
/// configuration error and panic instead of being silently inflated.
pub const SMJ_MIN_BUDGET_PAGES: usize = 5;

/// Counts the join output of one key range of the sorted runs by driving
/// the fused k-way merge over both inputs' slices: records stream out of
/// the run pages in key order and only their keys are ever decoded.
///
/// Duplicate keys on both sides are supported: the S group for a key is
/// counted once and reused for every R record carrying that key.
fn merge_join_runs(r_slices: &[RunSlice], s_slices: &[RunSlice]) -> nocap_storage::Result<u64> {
    let mut r_merge = LoserTree::new(r_slices.iter().cloned())?;
    let mut s_merge = LoserTree::new(s_slices.iter().cloned())?;
    let mut output = 0u64;
    let mut s_group_key: Option<u64> = None;
    let mut s_group_count = 0u64;
    while let Some(key) = r_merge.next_key()? {
        // Reuse the counted S group if it is for the same key (multiple R
        // records with one key).
        if s_group_key != Some(key) {
            // Advance S until its key ≥ R's key.
            while matches!(s_merge.peek_key()?, Some(s_key) if s_key < key) {
                s_merge.next_key()?;
            }
            // Count all S records equal to the key.
            s_group_count = 0;
            while s_merge.peek_key()? == Some(key) {
                s_merge.next_key()?;
                s_group_count += 1;
            }
            s_group_key = Some(key);
        }
        output += s_group_count;
    }
    // S records above R's largest key match nothing, but their pages are
    // read all the same: the reads of a range then do not depend on where
    // the ranges end, so they add up to one read per page at every `T`.
    while s_merge.next_key()?.is_some() {}
    Ok(output)
}

/// Sort-Merge Join executor.
#[derive(Debug, Clone, Copy)]
pub struct SortMergeJoin {
    spec: JoinSpec,
}

impl SortMergeJoin {
    /// Creates an SMJ operator with the given spec.
    pub fn new(spec: JoinSpec) -> Self {
        SortMergeJoin { spec }
    }

    /// Executes `r ⋈ s`.
    ///
    /// # Panics
    ///
    /// Panics if the spec's buffer budget is below
    /// [`SMJ_MIN_BUDGET_PAGES`].
    pub fn run(&self, r: &Relation, s: &Relation) -> nocap_storage::Result<JoinRunReport> {
        self.run_inner(r, s, 1, &Obs::off())
    }

    /// [`run`](Self::run) with an observability channel: run-generation and
    /// merge-cascade spans, run-size histograms, and the fused merge-join
    /// span flow into `obs` when recording.
    ///
    /// # Panics
    ///
    /// Panics if the spec's buffer budget is below
    /// [`SMJ_MIN_BUDGET_PAGES`].
    pub fn run_obs(
        &self,
        r: &Relation,
        s: &Relation,
        obs: &Obs,
    ) -> nocap_storage::Result<JoinRunReport> {
        self.run_inner(r, s, 1, obs)
    }

    /// Executes `r ⋈ s` with `threads` workers (`0` selects
    /// [`nocap_par::default_threads`]) generating sort runs, merging
    /// cascade groups and merge-joining key ranges concurrently.
    ///
    /// Workers claim chunks of the fixed run-generation page grid, groups
    /// of the fixed cascade and key ranges cut at run-page fences, so the
    /// join output and the per-phase modeled I/O are bit-identical to
    /// [`run`](Self::run) for every thread count.
    ///
    /// # Panics
    ///
    /// Panics if the spec's buffer budget is below
    /// [`SMJ_MIN_BUDGET_PAGES`].
    pub fn run_parallel(
        &self,
        r: &Relation,
        s: &Relation,
        threads: usize,
    ) -> nocap_storage::Result<JoinRunReport> {
        self.run_parallel_obs(r, s, threads, &Obs::off())
    }

    /// [`run_parallel`](Self::run_parallel) with an observability channel:
    /// every worker's claimed sort chunks, cascade groups and key ranges
    /// appear as tasks on its timeline in addition to the main-thread phase
    /// spans of [`run_obs`](Self::run_obs).
    ///
    /// # Panics
    ///
    /// Panics if the spec's buffer budget is below
    /// [`SMJ_MIN_BUDGET_PAGES`].
    pub fn run_parallel_obs(
        &self,
        r: &Relation,
        s: &Relation,
        threads: usize,
        obs: &Obs,
    ) -> nocap_storage::Result<JoinRunReport> {
        self.run_inner(r, s, resolve_threads(threads), obs)
    }

    fn run_inner(
        &self,
        r: &Relation,
        s: &Relation,
        threads: usize,
        obs: &Obs,
    ) -> nocap_storage::Result<JoinRunReport> {
        let spec = &self.spec;
        let device = r.device().clone();
        let _io_trace = obs.attach_io(&device);
        let timer = obs.run_timer();
        let base = device.stats();

        let budget = spec.buffer_pages;
        assert!(
            budget >= SMJ_MIN_BUDGET_PAGES,
            "SMJ needs a budget of at least {SMJ_MIN_BUDGET_PAGES} pages \
             (got {budget}): the fused merge fan-in B - 1 must fit a two-way \
             merge per input"
        );
        // Split the merge fan-in between the two inputs proportionally to
        // their sizes so that all final runs can be merged together. The
        // clamp keeps both shares ≥ 2, which the budget floor guarantees is
        // representable.
        let fan_in = budget - 1;
        let total_pages = (r.num_pages() + s.num_pages()).max(1);
        let r_share = ((fan_in * r.num_pages()) / total_pages).clamp(2, fan_in - 2);
        let s_share = fan_in - r_share;
        debug_assert!(s_share >= 2, "clamp above keeps a two-way S merge");

        // A failure while sorting S drops R's runs, and their files with them.
        let r_runs = sorted_runs(r, budget, r_share, threads, obs)?;
        let s_runs = sorted_runs(s, budget, s_share, threads, obs)?;
        let partition_io = device.stats().since(&base);
        if obs.is_recording() {
            obs.values(
                "final_run_pages",
                r_runs
                    .iter()
                    .chain(&s_runs)
                    .map(|run| run.relation().num_pages() as u64),
            );
            obs.count("final_runs", (r_runs.len() + s_runs.len()) as u64);
        }

        let probe_base = device.stats();
        let output = fused_merge_join(r_runs, s_runs, threads, obs)?;
        let probe_io = device.stats().since(&probe_base);

        let mut report = JoinRunReport::new("SMJ");
        report.output_records = output;
        report.partition_io = partition_io;
        report.probe_io = probe_io;
        report.finish_run(timer, obs);
        Ok(report)
    }
}

/// The fused final merge + join, one key range per worker: `threads − 1`
/// splitter keys at page-weighted quantiles of the final runs' fences cut
/// both inputs' runs, and each range's matches are counted on its own.
/// Every run page is read exactly once and released as it is read, and
/// the run files are deleted when the merge returns.
fn fused_merge_join(
    r_runs: Vec<SortedRun>,
    s_runs: Vec<SortedRun>,
    threads: usize,
    obs: &Obs,
) -> nocap_storage::Result<u64> {
    let _merge_span = obs.span(Phase::Merge);
    let splitters = fence_splitters(r_runs.iter().chain(&s_runs), threads);
    let r_ranges = split_runs(&r_runs, &splitters)?;
    let s_ranges = split_runs(&s_runs, &splitters)?;
    let (counts, _) = ordered_tasks(
        threads,
        obs,
        Phase::Merge,
        r_ranges.len(),
        || (),
        |_, i| merge_join_runs(&r_ranges[i], &s_ranges[i]),
    )?;
    Ok(counts.into_iter().sum())
}

/// Generates this relation's sorted runs with `threads` workers claiming
/// fixed grid chunks in canonical order, then runs the merge cascade until
/// the runs fit `share`: each level cuts its runs into groups of `B − 1`
/// (a trailing single run passes through unmerged) and the workers claim
/// the groups. The runs and every I/O count are the one-worker sort's at
/// any worker count. A failed task drops every run written so far, and
/// with it the run's file.
fn sorted_runs(
    relation: &Relation,
    budget: usize,
    share: usize,
    threads: usize,
    obs: &Obs,
) -> nocap_storage::Result<Vec<SortedRun>> {
    let chunks = run_chunks(relation.num_pages(), budget);
    let mut runs = {
        let _run_gen_span = obs.span(Phase::SortRunGen);
        ordered_tasks(
            threads,
            obs,
            Phase::SortRunGen,
            chunks.len(),
            SortScratch::new,
            |scratch, i| sort_chunk(relation, chunks[i].clone(), scratch),
        )?
        .0
    };
    if obs.is_recording() {
        obs.values(
            "run_pages",
            runs.iter().map(|run| run.relation().num_pages() as u64),
        );
        obs.count("initial_runs", runs.len() as u64);
    }
    let _merge_span = obs.span(Phase::Merge);
    let fan_in = budget - 1;
    while runs.len() > share {
        let through = runs.split_off(runs.len() - usize::from(runs.len() % fan_in == 1));
        // Each group merge takes its runs out of its slot by value, so its
        // input files go as soon as it returns.
        let mut level = runs.into_iter();
        let groups: Vec<Mutex<Vec<SortedRun>>> = (0..level.len().div_ceil(fan_in))
            .map(|_| Mutex::new(level.by_ref().take(fan_in).collect()))
            .collect();
        runs = ordered_tasks(
            threads,
            obs,
            Phase::Merge,
            groups.len(),
            || (),
            |_, g| merge_runs(std::mem::take(&mut *lock_unpoisoned(&groups[g]))),
        )?
        .0;
        runs.extend(through);
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_join_count;
    use crate::testutil::{build_workload, mix};
    use nocap_storage::device::DeviceRef;
    use nocap_storage::{Record, SimDevice};
    use std::sync::Arc;

    #[test]
    fn matches_naive_join_uniform() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 24);
        let counts = |_k: u64| 3u64;
        let (r, s) = build_workload(dev.clone(), &spec, 1_500, counts);
        let expected = naive_join_count(&r, &s).unwrap();
        dev.reset_stats();
        let report = SortMergeJoin::new(spec).run(&r, &s).unwrap();
        assert_eq!(report.output_records, expected);
    }

    #[test]
    fn matches_naive_join_skewed() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 16);
        let counts = |k: u64| if k.is_multiple_of(100) { 80 } else { 1 };
        let (r, s) = build_workload(dev.clone(), &spec, 2_000, counts);
        let expected = naive_join_count(&r, &s).unwrap();
        dev.reset_stats();
        let report = SortMergeJoin::new(spec).run(&r, &s).unwrap();
        assert_eq!(report.output_records, expected);
    }

    #[test]
    fn run_generation_writes_sequentially_and_merge_reads_randomly() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(256, 16);
        let counts = |_k: u64| 2u64;
        let (r, s) = build_workload(dev.clone(), &spec, 3_000, counts);
        dev.reset_stats();
        let report = SortMergeJoin::new(spec).run(&r, &s).unwrap();
        assert!(
            report.partition_io.seq_writes > 0,
            "runs are written sequentially"
        );
        assert_eq!(report.partition_io.rand_writes, 0);
        assert!(
            report.probe_io.rand_reads > 0,
            "the fused merge reads runs randomly"
        );
        assert_eq!(report.probe_io.writes(), 0, "the fused merge never writes");
    }

    #[test]
    fn no_sort_needed_when_memory_is_large() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 2_048);
        let counts = |_k: u64| 1u64;
        let (r, s) = build_workload(dev.clone(), &spec, 1_000, counts);
        dev.reset_stats();
        let report = SortMergeJoin::new(spec).run(&r, &s).unwrap();
        assert_eq!(report.output_records, 1_000);
        // Each relation is read once for run generation and its single run is
        // read once for the merge.
        assert!(report.total_io().reads() as usize >= r.num_pages() + s.num_pages());
    }

    #[test]
    fn works_at_the_minimum_budget() {
        // B = 5 is the floor: fan-in 4, two-way merge per side. The join
        // must still be correct there, without silently inflating the
        // budget the way the old `.max(4)` fallback did.
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, SMJ_MIN_BUDGET_PAGES);
        let counts = |k: u64| (k % 3) + 1;
        let (r, s) = build_workload(dev.clone(), &spec, 900, counts);
        let expected = naive_join_count(&r, &s).unwrap();
        dev.reset_stats();
        let report = SortMergeJoin::new(spec).run(&r, &s).unwrap();
        assert_eq!(report.output_records, expected);
        assert!(
            report.partition_io.seq_writes > 0,
            "a 5-page budget must spill runs"
        );
    }

    #[test]
    #[should_panic(expected = "SMJ needs a budget of at least 5 pages")]
    fn budgets_below_the_floor_panic() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, SMJ_MIN_BUDGET_PAGES - 1);
        let (r, s) = build_workload(dev.clone(), &spec, 100, |_| 1);
        let _ = SortMergeJoin::new(spec).run(&r, &s);
    }

    #[test]
    fn run_parallel_matches_run_exactly() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 12);
        let counts = |k: u64| if k.is_multiple_of(50) { 40 } else { 2 };
        let (r, s) = build_workload(dev.clone(), &spec, 2_500, counts);
        dev.reset_stats();
        let sequential = SortMergeJoin::new(spec).run(&r, &s).unwrap();
        assert_eq!(sequential.output_records, naive_join_count(&r, &s).unwrap());
        for threads in [1usize, 2, 4, 8] {
            dev.reset_stats();
            let parallel = SortMergeJoin::new(spec)
                .run_parallel(&r, &s, threads)
                .unwrap();
            assert_eq!(parallel.output_records, sequential.output_records);
            assert_eq!(parallel.partition_io, sequential.partition_io);
            assert_eq!(parallel.probe_io, sequential.probe_io);
        }
    }

    #[test]
    fn extreme_keys_and_a_hot_key_on_the_splitters_join_exactly_at_every_thread_count() {
        // Keys 0 and u64::MAX on both sides, and one key filling about half
        // of S's pages, so the fence splitters at T = 2 and 3 land on it and
        // every key-range boundary cuts its duplicates. The merges discard
        // each run page as they read it, so a page read twice — by two key
        // ranges, or by a range and the split — fails the join.
        const HOT: u64 = 250;
        let sim = Arc::new(SimDevice::new());
        let dev: DeviceRef = sim.clone();
        let spec = JoinSpec::paper_synthetic(128, 8);
        let load = |keys: Vec<u64>| {
            let mut shuffled: Vec<(u64, u64)> = keys
                .into_iter()
                .enumerate()
                .map(|(i, key)| (mix(i as u64), key))
                .collect();
            shuffled.sort_unstable();
            let payload = spec.r_layout.payload_bytes();
            let records = shuffled
                .into_iter()
                .map(|(_, key)| Record::with_fill(key, payload, 1));
            Relation::bulk_load(dev.clone(), spec.r_layout, spec.page_size, records).unwrap()
        };
        let r = load(
            [0; 3]
                .into_iter()
                .chain(1..500)
                .chain([HOT; 20])
                .chain([u64::MAX; 3])
                .collect(),
        );
        let s = load(
            [0; 4]
                .into_iter()
                .chain((1..500).flat_map(|k| std::iter::repeat_n(k, 1 + k as usize % 2)))
                .chain([HOT; 1_500])
                .chain([u64::MAX; 5])
                .collect(),
        );
        let expected = naive_join_count(&r, &s).unwrap();
        // The final runs the fused merge cuts: B = 8 is a fan-in of 7,
        // split 2 / 5 between R and S by size.
        let pages = r.num_pages() + s.num_pages();
        assert_eq!((7 * r.num_pages() / pages).clamp(2, 5), 2);
        for threads in [1, 2, 3] {
            let r_runs = sorted_runs(&r, 8, 2, threads, &Obs::off()).unwrap();
            let s_runs = sorted_runs(&s, 8, 5, threads, &Obs::off()).unwrap();
            let splitters = fence_splitters(r_runs.iter().chain(&s_runs), threads);
            assert!(splitters.iter().all(|&k| k == HOT), "{splitters:?}");
            let output = fused_merge_join(r_runs, s_runs, threads, &Obs::off()).unwrap();
            assert_eq!(output, expected, "T = {threads}");
            // The fused merge consumed the runs: the device holds the two
            // inputs and nothing else.
            assert_eq!(
                (sim.live_files(), sim.resident_pages()),
                (2, r.num_pages() + s.num_pages()),
                "T = {threads}: runs outlived the fused merge"
            );
        }
        dev.reset_stats();
        let one = SortMergeJoin::new(spec).run_parallel(&r, &s, 1).unwrap();
        assert_eq!(one.output_records, expected);
        for threads in [2, 3] {
            dev.reset_stats();
            let report = SortMergeJoin::new(spec)
                .run_parallel(&r, &s, threads)
                .unwrap();
            assert_eq!(report.output_records, expected, "T = {threads}");
            assert_eq!(report.partition_io, one.partition_io, "T = {threads}");
            assert_eq!(report.probe_io, one.probe_io, "T = {threads}");
        }
    }

    #[test]
    fn run_parallel_zero_threads_selects_a_default_and_stays_correct() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 16);
        let (r, s) = build_workload(dev.clone(), &spec, 1_200, |_| 2);
        dev.reset_stats();
        let sequential = SortMergeJoin::new(spec).run(&r, &s).unwrap();
        dev.reset_stats();
        let defaulted = SortMergeJoin::new(spec).run_parallel(&r, &s, 0).unwrap();
        assert_eq!(defaulted.output_records, sequential.output_records);
        assert_eq!(defaulted.partition_io, sequential.partition_io);
        assert_eq!(defaulted.probe_io, sequential.probe_io);
    }
}
