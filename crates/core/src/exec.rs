//! The NOCAP operator: a plan from [`crate::planner::plan_nocap`], executed
//! by the hybrid hash join body every skew-aware join in this workspace
//! runs ([`nocap_par::hybrid_hash_join`]).
//!
//! NOCAP's hybrid partitioning (Algorithms 8 and 9) is DHH's two passes
//! with three things chosen by the planner instead of fixed: the cached
//! keys `K_mem` (instead of a 2 % skew table), a possibly non-empty set of
//! designated spill partitions `K_disk`, and the rounded hash of §4.2 over
//! the residual keys (instead of a plain one). This module turns a
//! [`NocapPlan`] into the body's inputs — fixed-structure pages, one quota
//! per partition and one routing function that both passes consult — and
//! hands them over. The `m_disk` designated partitions come first, at
//! quota 0 (each is destaged by its first R record, DHH's page-out bit set
//! from the start); the residual partitions of [`RestGeometry`] (router
//! plus resident-first staging quotas) follow, their ids offset by
//! `m_disk`. What the body does with
//! them, why every thread count produces the same output and per-phase
//! modeled I/O, and which physical memory the §4.1 model does not charge
//! is documented once, in [`nocap_par::hybrid`].
//!
//! The planner reads one input: the join's correlation skew as a list of
//! `(key, match count)` MCV pairs, the catalog's or a sketch summary's
//! ([`StatsSummary::planner_mcvs`]). There are two full entry points, each
//! in its `(…, threads, obs)` form — an MCV list
//! ([`run_parallel_obs`](NocapJoin::run_parallel_obs)) and an explicit
//! plan ([`run_with_plan`](NocapJoin::run_with_plan)) — plus the
//! sequential and blind shorthands. `threads = 1` spawns nothing and runs
//! the whole join on the calling thread; pass `&Obs::off()` to record
//! nothing. A statistics pass is
//! [`StatsCollector::collect_parallel_with_budget`](nocap_stats::StatsCollector::collect_parallel_with_budget)
//! before the join.

use nocap_model::pairwise::PAIR_JOIN_PAGES;
use nocap_model::{staging_quotas, JoinRunReport, JoinSpec, RoundedHashParams, StagingRouter};
use nocap_obs::Obs;
use nocap_par::{hybrid_hash_join, HybridPlan, Route};
use nocap_stats::StatsSummary;
use nocap_storage::Relation;

use crate::plan::NocapPlan;
use crate::planner::{plan_nocap, PlannerConfig};
use crate::rounded_hash::RoundedHash;

/// Configuration of the NOCAP executor.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NocapConfig {
    /// Planner configuration (grid resolution, rounded-hash parameters).
    pub planner: PlannerConfig,
}

/// The NOCAP join operator.
#[derive(Debug, Clone, Copy)]
pub struct NocapJoin {
    spec: JoinSpec,
    config: NocapConfig,
}

impl NocapJoin {
    /// Creates a NOCAP join operator for the given spec.
    pub fn new(spec: JoinSpec, config: NocapConfig) -> Self {
        NocapJoin { spec, config }
    }

    /// The join spec this operator was built with.
    pub fn spec(&self) -> &JoinSpec {
        &self.spec
    }

    /// The executor configuration this operator was built with.
    pub fn config(&self) -> &NocapConfig {
        &self.config
    }

    /// Plans and executes the join of `r ⋈ s` given MCV statistics, on the
    /// calling thread: [`run_parallel`](Self::run_parallel) with one worker.
    pub fn run(
        &self,
        r: &Relation,
        s: &Relation,
        mcvs: &[(u64, u64)],
    ) -> nocap_storage::Result<JoinRunReport> {
        self.run_parallel_obs(r, s, mcvs, 1, &Obs::off())
    }

    /// [`run`](Self::run) with observability
    /// ([`run_parallel_obs`](Self::run_parallel_obs) with one worker, so
    /// the worker and task spans all belong to worker 0).
    pub fn run_obs(
        &self,
        r: &Relation,
        s: &Relation,
        mcvs: &[(u64, u64)],
        obs: &Obs,
    ) -> nocap_storage::Result<JoinRunReport> {
        self.run_parallel_obs(r, s, mcvs, 1, obs)
    }

    /// [`run_parallel_obs`](Self::run_parallel_obs) without a recorder.
    pub fn run_parallel(
        &self,
        r: &Relation,
        s: &Relation,
        mcvs: &[(u64, u64)],
        threads: usize,
    ) -> nocap_storage::Result<JoinRunReport> {
        self.run_parallel_obs(r, s, mcvs, threads, &Obs::off())
    }

    /// Plans and executes the join of `r ⋈ s` given MCV statistics, on
    /// `threads` worker threads.
    ///
    /// `threads == 0` runs as one worker (see [`nocap_par::ordered_tasks`]).
    /// The result — output cardinality and the full per-phase I/O trace —
    /// is the same for every thread count. Phase and task spans and the
    /// traced device's I/O events land in the report's `trace` when `obs`
    /// is recording; the plan is computed before any clock is read — time
    /// flows only into the obs channel, never into planning or execution
    /// decisions.
    ///
    /// # Panics
    ///
    /// Panics if `r` and `s` live on two devices ([`hybrid_hash_join`]).
    pub fn run_parallel_obs(
        &self,
        r: &Relation,
        s: &Relation,
        mcvs: &[(u64, u64)],
        threads: usize,
        obs: &Obs,
    ) -> nocap_storage::Result<JoinRunReport> {
        let plan = plan_nocap(
            mcvs,
            r.num_records(),
            s.num_records() as u64,
            &self.spec,
            &self.config.planner,
        );
        self.run_with_plan(r, s, &plan, threads, obs)
    }

    /// Plans and executes the join on the calling thread from a one-pass
    /// sketch summary instead of an oracle MCV list:
    /// [`run`](Self::run) with [`StatsSummary::planner_mcvs`] — raw
    /// SpaceSaving counts on skewed streams, the flat density of the
    /// stream's key range on near-uniform ones, where per-key SpaceSaving
    /// counts are noise. Hand the same list to
    /// [`run_parallel_obs`](Self::run_parallel_obs) for more workers or a
    /// recorder; the summary is the same artifact at every thread count,
    /// so the plan, the output and the per-phase I/O are too.
    pub fn run_with_collected_stats(
        &self,
        r: &Relation,
        s: &Relation,
        stats: &StatsSummary,
    ) -> nocap_storage::Result<JoinRunReport> {
        self.run(r, s, &stats.planner_mcvs())
    }

    /// Executes the join with an explicit, pre-computed plan on `threads`
    /// worker threads — the method every other entry point ends in. The
    /// plan's cached keys, designated partitions (at quota 0) and residual
    /// geometry become the [`HybridPlan`] of [`hybrid_hash_join`]; a plan
    /// whose §4.1 pages B cannot hold fails before any I/O.
    pub fn run_with_plan(
        &self,
        r: &Relation,
        s: &Relation,
        plan: &NocapPlan,
        threads: usize,
        obs: &Obs,
    ) -> nocap_storage::Result<JoinRunReport> {
        // No plan runs below a pair join's pages: refuse them as the body
        // would, before any quota or geometry is sized.
        self.spec.pages_left(PAIR_JOIN_PAGES)?;
        let fixed_pages = plan.fixed_memory_pages(&self.spec);
        // The residual quotas share `m_rest`, what the fixed pages leave.
        let geometry = RestGeometry::new(
            &self.spec,
            self.spec.pages_left(2 + fixed_pages)?,
            plan.estimated_rest_keys,
            self.config.planner.rh_params,
        );
        let routes = plan.route_map();
        let m_disk = plan.num_designated();
        let mut quotas = vec![0; m_disk];
        quotas.extend(geometry.caps);
        let hybrid = HybridPlan {
            label: "NOCAP",
            // Each designated partition's output page is its quota-0 entry.
            fixed_pages: fixed_pages - m_disk,
            quotas,
            route: |key: u64| match routes.get(&key) {
                Some(&route) => route,
                None => Route::Partition(m_disk + geometry.rh.partition_of(key)),
            },
        };
        hybrid_hash_join(&self.spec, r, s, hybrid, threads, obs)
    }
}

/// Geometry of the residual partitioner: partition count, the rounded-hash
/// router and the per-partition staging quotas the executor hands to the
/// hybrid body's [`ParallelStager`](nocap_par::ParallelStager).
/// `tests/zero_copy_equivalence.rs` derives its straight-line reference
/// executor from the same struct, so the two route and destage identically
/// by construction.
///
/// Partitions start staged in memory. Each owns a fixed quota of staging
/// pages carved from the residual budget; the moment a partition's staged
/// footprint exceeds its quota it is destaged to disk (its POB bit is set)
/// and its memory is reused — every later record of that partition streams
/// through the spill writer's single output-buffer page.
///
/// This replaces the "destage the largest partition when the global budget
/// overflows" policy of §2.2. The global policy's outcome depends on the
/// order records arrive, which no sharded scan can reproduce; the quota
/// policy destages partition `p` iff `hash_table_pages(n_p) > cap_p` — a
/// function of the partition's total record count only — so every scan
/// order and thread count destages the same partition set and the §4.1
/// bound `Σ staged + spilled buffers ≤ m_rest` still holds at all times.
/// What the global policy achieved — part of R stays in memory whenever
/// `m_rest` is a sizeable share of its table — the quotas achieve by being
/// *resident-first*: the leading partitions get quotas that hold their
/// expected table plus four standard deviations of slack, as many of them
/// as `m_rest` affords, and the others share the rest
/// ([`staging_quotas`]). A resident-designated partition that outgrows its
/// quota anyway is destaged like any other.
#[derive(Debug, Clone)]
pub struct RestGeometry {
    /// The rounded-hash router over the residual partitions.
    pub rh: RoundedHash,
    /// Per-partition staging quotas in pages; they sum to the residual
    /// budget.
    pub caps: Vec<usize>,
}

impl RestGeometry {
    /// Sizes the residual partitioner for `estimated_keys` keys under
    /// `budget_pages`: partition count and quotas are [`staging_quotas`]'
    /// for the rounded-hash router — the geometry the planner's residual
    /// estimate prices.
    pub fn new(
        spec: &JoinSpec,
        budget_pages: usize,
        estimated_keys: usize,
        rh_params: RoundedHashParams,
    ) -> Self {
        let caps = staging_quotas(
            estimated_keys,
            spec,
            budget_pages,
            StagingRouter::RoundedHash(&rh_params),
        )
        .caps();
        let rh = RoundedHash::new(estimated_keys, caps.len(), spec.c_r(), &rh_params);
        RestGeometry { rh, caps }
    }

    /// Number of residual partitions.
    pub fn num_partitions(&self) -> usize {
        self.caps.len()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use nocap_par::ParallelStager;
    use nocap_stats::StatsCollector;
    use nocap_storage::{IoStats, RecordRef, SimDevice, StorageError};
    use std::collections::HashMap;

    /// Builds R with keys `0..n_r` and S where key `k` appears `ct(k)` times.
    pub(crate) fn build_workload(
        device: nocap_storage::device::DeviceRef,
        spec: &JoinSpec,
        n_r: u64,
        counts: impl Fn(u64) -> u64,
    ) -> (Relation, Relation, Vec<(u64, u64)>) {
        let r_payload = vec![1; spec.r_layout.payload_bytes()];
        let r = Relation::bulk_load(
            device.clone(),
            spec.r_layout,
            spec.page_size,
            (0..n_r).map(|k| RecordRef::new(k, &r_payload)),
        )
        .unwrap();
        // Interleave S keys so hot keys are not clustered.
        let mut s_keys: Vec<u64> = Vec::new();
        for k in 0..n_r {
            for _ in 0..counts(k) {
                s_keys.push(k);
            }
        }
        // Deterministic shuffle.
        let salt = s_keys.len() as u64;
        s_keys.sort_by_key(|&k| crate::rounded_hash::mix_key(k.wrapping_add(salt)));
        let s_payload = vec![2; spec.s_layout.payload_bytes()];
        let s = Relation::bulk_load(
            device.clone(),
            spec.s_layout,
            spec.page_size,
            s_keys.iter().map(|&k| RecordRef::new(k, &s_payload)),
        )
        .unwrap();
        let mut mcv: Vec<(u64, u64)> = (0..n_r).map(|k| (k, counts(k))).collect();
        mcv.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
        mcv.truncate((n_r as usize / 20).max(10));
        (r, s, mcv)
    }

    fn expected_output(n_r: u64, counts: impl Fn(u64) -> u64) -> u64 {
        (0..n_r).map(counts).sum()
    }

    /// Drives `keys` through the residual partitioner as worker 0 of the
    /// executor does — [`RestGeometry`]'s router in front of a one-worker
    /// [`ParallelStager`] — checking the budget after every insert.
    fn stage_residual_keys(
        device: &nocap_storage::device::DeviceRef,
        spec: JoinSpec,
        budget_pages: usize,
        keys: u64,
    ) -> nocap_par::StagerBuild {
        let geometry = RestGeometry::new(
            &spec,
            budget_pages,
            keys as usize,
            RoundedHashParams::default(),
        );
        let stager =
            ParallelStager::new(device.clone(), spec.r_layout, spec, geometry.caps.clone());
        let mut stage = stager.worker_stage();
        for k in 0..keys {
            let rec = RecordRef::new(k, &[0; 120]);
            stager
                .insert(&mut stage, geometry.rh.partition_of(k), rec)
                .unwrap();
            assert!(
                stager.pages_in_use() <= budget_pages,
                "rest partitioner exceeded its page budget"
            );
        }
        stager.finish(vec![stage]).unwrap()
    }

    #[test]
    fn rest_partitioner_respects_its_budget() {
        let device = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 16);
        let build = stage_residual_keys(&device, spec, 8, 5_000);
        assert!(
            build.pob.contains(&true),
            "a 5K-record build cannot stay in 8 pages"
        );
        let spilled_records: usize = build
            .spilled
            .iter()
            .flatten()
            .map(|p| p.num_records())
            .sum();
        assert_eq!(spilled_records + build.staged_records.len(), 5_000);
    }

    #[test]
    fn rest_partitioner_stays_in_memory_when_budget_allows() {
        let device = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 256);
        let build = stage_residual_keys(&device, spec, 200, 1_000);
        assert!(!build.pob.contains(&true));
        assert_eq!(build.staged_records.len(), 1_000);
        assert_eq!(
            device.stats().writes(),
            0,
            "nothing should have been written"
        );
    }

    #[test]
    fn fixed_reservations_and_staged_pages_stay_within_the_budget_after_every_insert() {
        // B = 96 against a 198-page table of R: about half of the residual
        // partitions are resident and fill their quotas. The budget is split
        // as the executor splits it; at one worker the staged footprint is
        // exact, so what the run holds is the two streaming pages, the
        // plan's fixed pages and `pages_in_use`. The same plan also runs
        // at the B that leaves it one staging page, which stages every
        // residual record, and at the B its fixed pages fill, which the
        // run refuses before any I/O: its residual keys have no page.
        let plan_spec = JoinSpec::paper_synthetic(128, 96);
        let mcvs: Vec<(u64, u64)> = (0..300).map(|k| (k, 8)).collect();
        let plan = plan_nocap(&mcvs, 6_000, 48_000, &plan_spec, &PlannerConfig::default());
        let fixed = 2 + plan.fixed_memory_pages(&plan_spec);
        assert!(plan.estimated_rest_keys > 0);
        for staging in [plan_spec.buffer_pages - fixed, 1, 0] {
            let spec = JoinSpec {
                buffer_pages: fixed + staging,
                ..plan_spec
            };
            if staging == 0 {
                let device = SimDevice::new_ref();
                let (r, s, _) = build_workload(device.clone(), &spec, 6_000, |_| 8);
                device.reset_stats();
                let run = NocapJoin::new(spec, NocapConfig::default())
                    .run_with_plan(&r, &s, &plan, 1, &Obs::off())
                    .map(|report| report.output_records);
                assert_eq!(
                    run,
                    Err(StorageError::OutOfMemory {
                        requested: fixed + 1,
                        available: fixed
                    })
                );
                assert_eq!(device.stats(), IoStats::default());
                continue;
            }
            let geometry = RestGeometry::new(
                &spec,
                spec.pages_left(fixed).unwrap(),
                plan.estimated_rest_keys,
                RoundedHashParams::default(),
            );
            assert_eq!(
                geometry.caps.iter().sum::<usize>(),
                staging,
                "the quotas are all that is left"
            );

            let device = SimDevice::new_ref();
            let stager =
                ParallelStager::new(device.clone(), spec.r_layout, spec, geometry.caps.clone());
            let mut stage = stager.worker_stage();
            let routes = plan.route_map();
            for k in (0..6_000u64).filter(|k| !routes.contains_key(k)) {
                let rec = RecordRef::new(k, &[0; 120]);
                stager
                    .insert(&mut stage, geometry.rh.partition_of(k), rec)
                    .unwrap();
                assert!(
                    fixed + stager.pages_in_use() <= spec.buffer_pages,
                    "B = {}: {fixed} fixed pages + {} staged exceed B",
                    spec.buffer_pages,
                    stager.pages_in_use()
                );
            }
            let build = stager.finish(vec![stage]).unwrap();
            let spilled = build.pob.iter().filter(|&&spilled| spilled).count();
            if staging > 1 {
                assert!(
                    (1..build.pob.len()).contains(&spilled),
                    "a mid-regime cell: {spilled} of {} partitions spilled",
                    build.pob.len()
                );
            }
        }
    }

    #[test]
    fn nocap_join_is_correct_on_a_skewed_workload() {
        let device = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 64);
        let counts = |k: u64| if k < 5 { 200 } else { 2 };
        let (r, s, mcvs) = build_workload(device.clone(), &spec, 2_000, counts);
        device.reset_stats();
        let join = NocapJoin::new(spec, NocapConfig::default());
        let report = join.run(&r, &s, &mcvs).unwrap();
        assert_eq!(report.output_records, expected_output(2_000, counts));
        assert!(report.total_ios() > 0);
    }

    #[test]
    fn nocap_join_is_correct_on_a_uniform_workload() {
        let device = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 48);
        let counts = |_k: u64| 4u64;
        let (r, s, mcvs) = build_workload(device.clone(), &spec, 3_000, counts);
        device.reset_stats();
        let join = NocapJoin::new(spec, NocapConfig::default());
        let report = join.run(&r, &s, &mcvs).unwrap();
        assert_eq!(report.output_records, expected_output(3_000, counts));
    }

    #[test]
    fn large_memory_joins_entirely_in_memory() {
        let device = SimDevice::new_ref();
        // Budget big enough that R fits into the residual partitioner.
        let spec = JoinSpec::paper_synthetic(128, 512);
        let counts = |k: u64| (k % 3) + 1;
        let (r, s, mcvs) = build_workload(device.clone(), &spec, 2_000, counts);
        device.reset_stats();
        let join = NocapJoin::new(spec, NocapConfig::default());
        let report = join.run(&r, &s, &mcvs).unwrap();
        assert_eq!(report.output_records, expected_output(2_000, counts));
        // Only the base scans: no spill writes at all.
        assert_eq!(report.total_io().writes(), 0);
        assert_eq!(
            report.total_io().reads() as usize,
            r.num_pages() + s.num_pages()
        );
    }

    #[test]
    fn smaller_memory_never_means_fewer_ios() {
        let device = SimDevice::new_ref();
        let counts = |k: u64| if k < 20 { 100 } else { 3 };
        let spec_small = JoinSpec::paper_synthetic(128, 24);
        let (r, s, mcvs) = build_workload(device.clone(), &spec_small, 4_000, counts);
        let mut previous = u64::MAX;
        for budget in [24usize, 48, 96, 192, 2_048] {
            let spec = spec_small.with_buffer_pages(budget);
            device.reset_stats();
            let join = NocapJoin::new(spec, NocapConfig::default());
            let report = join.run(&r, &s, &mcvs).unwrap();
            assert_eq!(report.output_records, expected_output(4_000, counts));
            assert!(
                report.total_ios() <= previous,
                "more memory should not increase NOCAP's I/O (budget={budget})"
            );
            previous = report.total_ios();
        }
    }

    /// A report's output and per-phase I/O, each phase as
    /// `[seq_reads, rand_reads, seq_writes, rand_writes]`.
    fn pinned(report: &JoinRunReport) -> (u64, [u64; 4], [u64; 4]) {
        let io = |io: &IoStats| [io.seq_reads, io.rand_reads, io.seq_writes, io.rand_writes];
        let (partition, probe) = (io(&report.partition_io), io(&report.probe_io));
        (report.output_records, partition, probe)
    }

    #[test]
    fn output_counts_match_a_reference_hash_join() {
        // Cross-check against a straightforward in-memory join.
        let device = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 32);
        let counts = |k: u64| (crate::rounded_hash::mix_key(k) % 7).max(1);
        let (r, s, mcvs) = build_workload(device.clone(), &spec, 1_500, counts);
        let keys = |rel: &Relation| {
            let mut scan = rel.scan();
            let mut keys = Vec::new();
            while let Some(page) = scan.next_page().unwrap() {
                keys.extend(page.record_refs().map(|rec| rec.key()));
            }
            keys
        };
        let mut reference: HashMap<u64, u64> = HashMap::new();
        for key in keys(&r) {
            *reference.entry(key).or_insert(0) += 1;
        }
        let expected: u64 = keys(&s).iter().filter_map(|k| reference.get(k)).sum();
        device.reset_stats();
        let join = NocapJoin::new(spec, NocapConfig::default());
        let report = join.run(&r, &s, &mcvs).unwrap();
        assert_eq!(report.output_records, expected);
    }

    /// [`build_workload`] on a fresh device with clean I/O counters.
    fn build(
        n_r: u64,
        counts: impl Fn(u64) -> u64,
        spec: &JoinSpec,
    ) -> (Relation, Relation, Vec<(u64, u64)>) {
        let device = SimDevice::new_ref();
        let workload = build_workload(device.clone(), spec, n_r, counts);
        device.reset_stats();
        workload
    }

    #[test]
    fn parallel_matches_sequential_io_and_output_exactly() {
        let spec = JoinSpec::paper_synthetic(128, 48);
        let counts = |k: u64| if k < 8 { 250 } else { 2 };
        let join = NocapJoin::new(spec, NocapConfig::default());

        let (r, s, mcvs) = build(3_000, counts, &spec);
        let sequential = join.run(&r, &s, &mcvs).unwrap();
        for threads in [1usize, 2, 4] {
            let (r, s, mcvs) = build(3_000, counts, &spec);
            let parallel = join.run_parallel(&r, &s, &mcvs, threads).unwrap();
            assert_eq!(
                parallel.output_records, sequential.output_records,
                "output differs at {threads} threads"
            );
            assert_eq!(
                parallel.partition_io, sequential.partition_io,
                "partition I/O differs at {threads} threads"
            );
            assert_eq!(
                parallel.probe_io, sequential.probe_io,
                "probe I/O differs at {threads} threads"
            );
        }
    }

    #[test]
    fn parallel_join_cleans_up_all_spill_files() {
        let spec = JoinSpec::paper_synthetic(128, 32);
        let counts = |k: u64| (k % 5) + 1;
        let join = NocapJoin::new(spec, NocapConfig::default());
        let (r, s, mcvs) = build(2_500, counts, &spec);
        let device = r.device().clone();
        let report = join.run_parallel(&r, &s, &mcvs, 3).unwrap();
        assert!(report.output_records > 0);
        // Only the two base relations should remain on the device.
        let sim = device;
        assert_eq!(
            sim.file_pages(r.file()).unwrap() + sim.file_pages(s.file()).unwrap(),
            r.num_pages() + s.num_pages()
        );
    }

    /// The statistics pass a deployment runs before the join: a sharded
    /// sketch of S within 4 pages per shard, checked against the spec's
    /// budget, then NOCAP planned from the summary alone, both on `threads`
    /// workers.
    fn sketch_and_join(
        join: &NocapJoin,
        r: &Relation,
        s: &Relation,
        threads: usize,
    ) -> JoinRunReport {
        let spec = join.spec();
        let summary = StatsCollector::collect_parallel_with_budget(
            spec.buffer_pages,
            4,
            spec.page_size,
            s,
            threads,
            &Obs::off(),
        )
        .unwrap();
        join.run_parallel(r, s, &summary.planner_mcvs(), threads)
            .unwrap()
    }

    #[test]
    fn sketch_pipeline_is_identical_at_every_thread_count() {
        // The pipeline at n workers must reproduce its one-worker run
        // exactly: the sharded summary is thread-count invariant, so the
        // plan, the output and the per-phase I/O all are.
        let spec = JoinSpec::paper_synthetic(128, 48);
        let counts = |k: u64| if k < 12 { 180 } else { 3 };
        let join = NocapJoin::new(spec, NocapConfig::default());
        for threads in [1usize, 2, 4, 8] {
            let (r, s, _) = build(2_500, counts, &spec);
            assert_eq!(
                pinned(&sketch_and_join(&join, &r, &s, threads)),
                (9_624, [392, 0, 0, 218], [221, 0, 0, 3]),
                "pipeline differs at {threads} threads"
            );
        }
    }

    #[test]
    fn parallel_sketch_collection_reads_s_exactly_once() {
        let spec = JoinSpec::paper_synthetic(128, 48);
        let counts = |k: u64| (k % 6) + 1;
        let join = NocapJoin::new(spec, NocapConfig::default());
        let (r, s, _) = build(2_000, counts, &spec);
        let device = r.device().clone();
        device.reset_stats();
        let report = sketch_and_join(&join, &r, &s, 4);
        assert_eq!(pinned(&report), (6_996, [291, 0, 0, 122], [123, 0, 0, 1]));
        let device_ios = device.stats().reads() + device.stats().writes();
        // The statistics scan costs exactly ||S|| sequential reads on top
        // of the join's own modeled I/O, sharded or not.
        assert_eq!(
            device_ios,
            report.total_ios() + s.num_pages() as u64,
            "sharded stats collection must read each S page exactly once"
        );
    }

    #[test]
    fn zero_workers_run_as_one() {
        let spec = JoinSpec::paper_synthetic(128, 64);
        let counts = |_k: u64| 3u64;
        let join = NocapJoin::new(spec, NocapConfig::default());
        let (r, s, mcvs) = build(1_000, counts, &spec);
        let report = join.run_parallel(&r, &s, &mcvs, 0).unwrap();
        assert_eq!(report.output_records, 3_000);
        assert_eq!(report, join.run(&r, &s, &mcvs).unwrap());
    }
}
