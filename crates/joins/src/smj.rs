//! Sort-Merge Join (SMJ).
//!
//! Both relations are externally sorted by the join key; as in the paper,
//! the final merge pass is fused with the join itself: a k-way merge over
//! the final runs of R and S drives the join directly, so the two
//! relations' final runs together must fit its fan-in of `B − 1`. Which
//! runs those are is planned once both relations' runs are generated, from
//! their page counts and at no I/O, by [`smj_plan`], the plan
//! [`smj_cost`](nocap_model::smj_cost) prices too: of every split of the
//! fan-in between R and S, the one whose cascades merge the fewest pages,
//! each relation merged by whole levels or by a first level that merges
//! only its smallest runs, just enough of them. A relation whose runs fit
//! beside the other's is never merged early. Table 1's SMJ row, a whole
//! pass over both relations per level, bounds this from above. Run files
//! are written sequentially (τ-weighted) and the fused merge reads runs
//! with random reads — this is why the paper observes SMJ matching GHJ's
//! #I/Os but losing slightly on latency.
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
//! 2. **Merge cascade.** The workers claim each level's planned groups,
//!    of up to `B − 1` runs, the same way. A group reads only its own runs
//!    and writes one run, which lands at its group index ahead of the runs
//!    the level leaves alone, so every group's I/O and the next level's
//!    runs are those of a one-worker cascade.
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

use std::sync::{Arc, Mutex};

use nocap_model::classic_cost::{smj_plan, Cascade};
use nocap_model::{JoinRunReport, JoinSpec};
use nocap_obs::{Obs, Phase};
use nocap_par::ordered_tasks;
use nocap_storage::sort::{
    fence_splitters, merge_runs, run_chunks, sort_chunk, split_runs, LoserTree, RunSlice,
    SortScratch, SortedRun,
};
use nocap_storage::{lock_unpoisoned, Relation};

/// The pages SMJ declares: the smallest buffer budget it runs in.
///
/// Five pages give the fused final merge a fan-in of `B − 1 = 4`: room for
/// two runs of each relation, so the cascade plan always has a choice short
/// of sorting both relations down to one run each. (The plan itself needs
/// only a two-way fused merge, one final run per relation.) A smaller
/// budget fails with [`OutOfMemory`](nocap_storage::StorageError::OutOfMemory)
/// before any I/O instead of being silently inflated.
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
    /// Panics if `r` and `s` live on two devices (the join counts its I/O
    /// on, and writes every run to, `r`'s device).
    pub fn run(&self, r: &Relation, s: &Relation) -> nocap_storage::Result<JoinRunReport> {
        self.run_inner(r, s, 1, &Obs::off())
    }

    /// [`run`](Self::run) with an observability channel: run-generation,
    /// merge-cascade and fused merge-join spans flow into `obs` when
    /// recording.
    ///
    /// # Panics
    ///
    /// Panics if `r` and `s` live on two devices (the join counts its I/O
    /// on, and writes every run to, `r`'s device).
    pub fn run_obs(
        &self,
        r: &Relation,
        s: &Relation,
        obs: &Obs,
    ) -> nocap_storage::Result<JoinRunReport> {
        self.run_inner(r, s, 1, obs)
    }

    /// Executes `r ⋈ s` with `threads` workers (`0` runs as one, see
    /// [`ordered_tasks`]) generating sort runs, merging cascade groups and
    /// merge-joining key ranges concurrently.
    ///
    /// Workers claim chunks of the fixed run-generation page grid, groups
    /// of the fixed cascade and key ranges cut at run-page fences, so the
    /// join output and the per-phase modeled I/O are bit-identical to
    /// [`run`](Self::run) for every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `r` and `s` live on two devices (the join counts its I/O
    /// on, and writes every run to, `r`'s device).
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
    /// Panics if `r` and `s` live on two devices (the join counts its I/O
    /// on, and writes every run to, `r`'s device).
    pub fn run_parallel_obs(
        &self,
        r: &Relation,
        s: &Relation,
        threads: usize,
        obs: &Obs,
    ) -> nocap_storage::Result<JoinRunReport> {
        self.run_inner(r, s, threads, obs)
    }

    fn run_inner(
        &self,
        r: &Relation,
        s: &Relation,
        threads: usize,
        obs: &Obs,
    ) -> nocap_storage::Result<JoinRunReport> {
        assert!(
            std::ptr::addr_eq(Arc::as_ptr(r.device()), Arc::as_ptr(s.device())),
            "R and S must live on one device"
        );
        let spec = &self.spec;
        spec.pages_left(SMJ_MIN_BUDGET_PAGES)?;
        let device = r.device().clone();
        let _io_trace = obs.attach_io(&device);
        let timer = obs.run_timer();
        let base = device.stats();

        let (r_runs, s_runs) = final_runs(r, s, spec.buffer_pages, threads, obs)?;
        let partition_io = device.stats().since(&base);

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

/// Sorts `r` and `s` into the final runs the fused merge takes: both
/// relations' initial runs, then the cascades [`smj_plan`] lays out over
/// them. A failure drops every run written so far, and their files with
/// them.
fn final_runs(
    r: &Relation,
    s: &Relation,
    budget: usize,
    threads: usize,
    obs: &Obs,
) -> nocap_storage::Result<(Vec<SortedRun>, Vec<SortedRun>)> {
    let r_runs = initial_runs(r, budget, threads, obs)?;
    let s_runs = initial_runs(s, budget, threads, obs)?;
    let pages = |runs: &[SortedRun]| -> Vec<usize> {
        runs.iter().map(|run| run.relation().num_pages()).collect()
    };
    let plan = smj_plan(&pages(&r_runs), &pages(&s_runs), budget - 1);
    let _merge_span = obs.span(Phase::Merge);
    Ok((
        merge_cascade(r_runs, &plan.r, threads, obs)?,
        merge_cascade(s_runs, &plan.s, threads, obs)?,
    ))
}

/// Generates this relation's sorted runs with `threads` workers claiming
/// fixed grid chunks in canonical order. The runs are the one-worker
/// sort's at any worker count; a failed task drops every run written so
/// far, and their files with them.
fn initial_runs(
    relation: &Relation,
    budget: usize,
    threads: usize,
    obs: &Obs,
) -> nocap_storage::Result<Vec<SortedRun>> {
    let chunks = run_chunks(relation.num_pages(), budget);
    let _run_gen_span = obs.span(Phase::SortRunGen);
    Ok(ordered_tasks(
        threads,
        obs,
        Phase::SortRunGen,
        chunks.len(),
        SortScratch::new,
        |scratch, i| sort_chunk(relation, chunks[i].clone(), scratch),
    )?
    .0)
}

/// Runs `cascade` over `runs` level by level: the workers claim a level's
/// groups, each group's merged run lands at its group index, and the runs
/// the level leaves alone follow in order. The runs and every I/O count are
/// the one-worker cascade's at any worker count; a failed group drops every
/// run of the level, and their files with them.
fn merge_cascade(
    mut runs: Vec<SortedRun>,
    cascade: &Cascade,
    threads: usize,
    obs: &Obs,
) -> nocap_storage::Result<Vec<SortedRun>> {
    for level in &cascade.levels {
        let mut slots: Vec<Option<SortedRun>> = runs.into_iter().map(Some).collect();
        // Each group merge takes its runs out of its slot by value, so its
        // input files go as soon as it returns.
        let groups: Vec<Mutex<Vec<SortedRun>>> = level
            .iter()
            .map(|group| {
                Mutex::new(
                    group
                        .iter()
                        .map(|&i| slots[i].take().expect("a run merges in one group"))
                        .collect(),
                )
            })
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
        runs.extend(slots.into_iter().flatten());
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_join_count;
    use crate::testutil::build_workload;
    use nocap_storage::device::DeviceRef;
    use nocap_storage::hash::mix64;
    use nocap_storage::{IoStats, RecordRef, SimDevice, StorageError};
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
    fn budgets_below_the_floor_fail_before_any_io() {
        let sim = Arc::new(SimDevice::new());
        let dev = sim.clone() as DeviceRef;
        let spec = JoinSpec::paper_synthetic(128, SMJ_MIN_BUDGET_PAGES - 1);
        let (r, s) = build_workload(dev.clone(), &spec, 100, |_| 1);
        dev.reset_stats();
        assert_eq!(
            SortMergeJoin::new(spec)
                .run_parallel(&r, &s, 2)
                .map(|report| report.output_records),
            Err(StorageError::OutOfMemory {
                requested: SMJ_MIN_BUDGET_PAGES,
                available: SMJ_MIN_BUDGET_PAGES - 1
            })
        );
        assert_eq!(dev.stats(), IoStats::default());
        assert_eq!(sim.live_files(), 2, "only R and S are on the device");
    }

    #[test]
    #[should_panic(expected = "R and S must live on one device")]
    fn inputs_on_two_devices_panic() {
        let spec = JoinSpec::paper_synthetic(128, 16);
        let (r, _) = build_workload(SimDevice::new_ref(), &spec, 100, |_| 1);
        let (_, s) = build_workload(SimDevice::new_ref(), &spec, 100, |_| 1);
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
                .map(|(i, key)| (mix64(i as u64), key))
                .collect();
            shuffled.sort_unstable();
            let payload = vec![1; spec.r_layout.payload_bytes()];
            let records = shuffled
                .into_iter()
                .map(|(_, key)| RecordRef::new(key, &payload));
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
        for threads in [1, 2, 3] {
            let (r_runs, s_runs) = final_runs(&r, &s, 8, threads, &Obs::off()).unwrap();
            // B = 8 is a fan-in of 7: R's three runs merge into one, and
            // one group of S's six smallest of eleven leaves it six.
            assert_eq!((r_runs.len(), s_runs.len()), (1, 6));
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

    /// A test-local model of one relation's runs from its record count
    /// alone: `B − 1` full pages each, the last one shorter.
    fn modeled_runs(records: usize, per_page: usize, budget: usize) -> Vec<u64> {
        let pages = records.div_ceil(per_page) as u64;
        let chunk = budget as u64 - 1;
        (0..pages)
            .step_by(chunk as usize)
            .map(|at| chunk.min(pages - at))
            .collect()
    }

    /// Whole levels over `runs`: groups of `fan_in` consecutive runs, a
    /// lone trailing run passing through. Entry `l` is the runs left and
    /// the pages merged after `l` levels, down to one run.
    fn whole_levels(runs: &[u64], fan_in: usize) -> Vec<(usize, u64)> {
        let mut runs = runs.to_vec();
        let mut merged = 0;
        let mut levels = vec![(runs.len(), merged)];
        while runs.len() > 1 {
            let lone = (runs.len() % fan_in == 1).then(|| runs.pop()).flatten();
            runs = runs
                .chunks(fan_in)
                .map(|group| group.iter().sum())
                .collect();
            merged += runs.iter().sum::<u64>();
            runs.extend(lone);
            levels.push((runs.len(), merged));
        }
        levels
    }

    /// The fewest pages merged to leave at most `target` of `runs`, by the
    /// least number of levels: whole levels throughout, or a first level
    /// that merges the fewest smallest runs after which whole levels
    /// suffice.
    fn least_merged(runs: &[u64], target: usize, fan_in: usize) -> Option<u64> {
        let n = runs.len();
        if n <= target {
            return Some(0);
        }
        if target == 0 {
            return None;
        }
        let whole = whole_levels(runs, fan_in);
        let depth = whole.iter().position(|level| level.0 <= target).unwrap();
        let room = target * fan_in.pow(depth as u32 - 1);
        let k = (2..=n)
            .find(|&k| n - k + k.div_ceil(fan_in) <= room)
            .unwrap();
        let mut sorted = runs.to_vec();
        sorted.sort_unstable();
        let mut next: Vec<u64> = sorted[..k]
            .chunks(fan_in)
            .map(|group| group.iter().sum())
            .collect();
        let first: u64 = next.iter().sum();
        next.extend_from_slice(&sorted[k..]);
        let partial = first + whole_levels(&next, fan_in)[depth - 1].1;
        Some(partial.min(whole[depth].1))
    }

    #[test]
    fn the_cascade_merges_only_what_the_fused_merge_needs_at_every_budget() {
        // R's 1 000 and S's 8 000 records of 512 bytes fill about 1 300
        // pages, more than (B − 1)² at B = 32: there whole levels merge
        // all of S's runs into two, although R's five runs and S's 37 are
        // only eleven over the fan-in of 31, which one group of S's twelve
        // smallest runs sheds.
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(512, 5);
        let (r, s) = build_workload(dev.clone(), &spec, 1_000, |k| 6 + k % 5);
        let per_page = r.records_per_page();
        for rel in [&r, &s] {
            assert_eq!(rel.num_pages(), rel.num_records().div_ceil(per_page));
        }
        let pages = (r.num_pages() + s.num_pages()) as u64;
        let expected = naive_join_count(&r, &s).unwrap();
        let mut below_whole_levels = Vec::new();
        for budget in 5..=96 {
            let fan_in = budget - 1;
            let r_runs = modeled_runs(r.num_records(), per_page, budget);
            let s_runs = modeled_runs(s.num_records(), per_page, budget);
            // The cheapest split of the fused merge's fan-in.
            let merged = (0..=fan_in)
                .filter_map(|t| {
                    Some(
                        least_merged(&r_runs, t, fan_in)?
                            + least_merged(&s_runs, fan_in - t, fan_in)?,
                    )
                })
                .min()
                .unwrap();
            // The bound: the cheapest pair of whole-level depths whose
            // runs fit.
            let (r_whole, s_whole) = (whole_levels(&r_runs, fan_in), whole_levels(&s_runs, fan_in));
            let bound = r_whole
                .iter()
                .flat_map(|a| s_whole.iter().map(move |b| (a, b)))
                .filter(|(a, b)| a.0 + b.0 <= fan_in)
                .map(|(a, b)| a.1 + b.1)
                .min()
                .unwrap();
            assert!(merged <= bound, "B = {budget}: {merged} > {bound}");
            if merged < bound {
                below_whole_levels.push(budget);
            }
            for threads in [1, 2] {
                let report = SortMergeJoin::new(spec.with_buffer_pages(budget))
                    .run_parallel(&r, &s, threads)
                    .unwrap();
                let label = format!("B = {budget}, T = {threads}");
                assert_eq!(report.output_records, expected, "{label}");
                let part = report.partition_io;
                assert_eq!(
                    (part.seq_writes, part.rand_reads),
                    (pages + merged, merged),
                    "{label}"
                );
                assert_eq!(part.seq_reads, pages, "{label}");
            }
        }
        assert!(below_whole_levels.contains(&32), "{below_whole_levels:?}");
    }

    #[test]
    fn run_parallel_zero_workers_run_as_one() {
        let spec = JoinSpec::paper_synthetic(128, 16);
        let (r, s) = build_workload(SimDevice::new_ref(), &spec, 1_200, |_| 2);
        let join = SortMergeJoin::new(spec);
        assert_eq!(
            join.run_parallel(&r, &s, 0).unwrap(),
            join.run(&r, &s).unwrap()
        );
    }
}
