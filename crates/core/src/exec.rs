//! The NOCAP operator: a plan from [`crate::planner::plan_nocap`], executed
//! by the hybrid hash join body every skew-aware join in this workspace
//! runs ([`nocap_par::hybrid_hash_join`]).
//!
//! NOCAP's hybrid partitioning (Algorithms 8 and 9) is DHH's two passes
//! with three things chosen by the planner instead of fixed: the cached
//! keys `K_mem` (instead of a 2 % skew table), a possibly non-empty set of
//! designated spill partitions `K_disk`, and the rounded hash of §4.2 over
//! the residual keys (instead of a plain one). This module turns a
//! [`NocapPlan`] into those three inputs — fixed-structure pages,
//! designated-partition count and the residual geometry ([`RestGeometry`]:
//! router plus resident-first staging quotas) behind one routing function
//! that both passes consult — and hands them over. What the body does with
//! them, why every thread count produces the same output and per-phase
//! modeled I/O, and which physical memory the §4.1 model does not charge
//! is documented once, in [`nocap_par::hybrid`].
//!
//! There is one method per kind of input, each in its full
//! `(…, threads, obs)` form — an MCV list
//! ([`run_parallel_obs`](NocapJoin::run_parallel_obs)), a sketch summary
//! ([`run_with_summary`](NocapJoin::run_with_summary)), a statistics page
//! budget ([`collect_and_run`](NocapJoin::collect_and_run)), an explicit
//! plan ([`run_with_plan`](NocapJoin::run_with_plan)) and an admission
//! ladder ([`run_degrading`](NocapJoin::run_degrading)) — plus the blind
//! and sequential shorthands callers outside this crate use. `threads = 1`
//! spawns nothing and runs the whole join on the calling thread; pass
//! `&Obs::off()` to record nothing.

use nocap_model::{
    staging_quotas, BudgetLadder, DegradedRun, JoinRunReport, JoinSpec, RoundedHashParams,
    StagingRouter,
};
use nocap_obs::Obs;
use nocap_par::{hybrid_hash_join, staging_budget, HybridPlan, Route};
use nocap_stats::{StatsCollector, StatsSummary};
use nocap_storage::{BufferPool, Relation};

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
    /// calling thread: [`run_parallel`](Self::run_parallel) with one worker
    /// (it never reads `NOCAP_THREADS`).
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
    /// `threads == 0` selects [`nocap_par::default_threads`] (the
    /// `NOCAP_THREADS` environment variable, falling back to the machine's
    /// parallelism). The result — output cardinality and the full
    /// per-phase I/O trace — is the same for every thread count. Phase
    /// spans, skew histograms and counters land in the report's `trace`
    /// when `obs` is recording; the plan is computed before any clock is
    /// read — time flows only into the obs channel, never into planning or
    /// execution decisions.
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

    /// [`run_with_summary`](Self::run_with_summary) on the calling thread,
    /// without a recorder.
    pub fn run_with_collected_stats(
        &self,
        r: &Relation,
        s: &Relation,
        stats: &StatsSummary,
    ) -> nocap_storage::Result<JoinRunReport> {
        self.run_with_summary(r, s, stats, 1, &Obs::off())
    }

    /// Plans and executes the join purely from a one-pass sketch summary —
    /// no `CorrelationTable` oracle anywhere on this path — on `threads`
    /// workers.
    ///
    /// The summary's planner statistics stand in for the exact top-k MCVs
    /// and its exact stream length stands in for `n_S`. On skewed streams
    /// those statistics are the SpaceSaving counts; on near-uniform streams
    /// [`StatsSummary::planner_mcvs`] substitutes equi-width histogram
    /// masses, whose per-key estimates are unbiased where SpaceSaving is
    /// noise-dominated. This is the deployable configuration: everything
    /// the planner consumes was produced by `nocap-stats` sketches within a
    /// bounded page budget. The summary is the same artifact at every
    /// thread count, so the plan, the output and the per-phase I/O are too.
    pub fn run_with_summary(
        &self,
        r: &Relation,
        s: &Relation,
        stats: &StatsSummary,
        threads: usize,
        obs: &Obs,
    ) -> nocap_storage::Result<JoinRunReport> {
        let mcvs = stats.planner_mcvs();
        let plan = plan_nocap(
            &mcvs,
            r.num_records(),
            stats.stream_len(),
            &self.spec,
            &self.config.planner,
        );
        self.run_with_plan(r, s, &plan, threads, obs)
    }

    /// The fully self-contained pipeline: sharded sketch collection over S
    /// ([`StatsCollector::collect_parallel_with_budget`], charged
    /// against the spec's buffer budget), planning from the summary alone,
    /// and execution — every stage on `threads` workers.
    ///
    /// The extra sequential scan of S shows up in the device's I/O trace —
    /// statistics are not free, and experiments that account for them should
    /// use this entry point — and, when `obs` records, as a `stats` phase
    /// span with per-shard worker spans in the same trace as the join.
    /// Requesting more statistics memory than the spec's buffer budget can
    /// hold fails with
    /// [`OutOfMemory`](nocap_storage::StorageError::OutOfMemory) rather than
    /// being silently clamped.
    ///
    /// Because the sharded collector's summary is bit-identical for every
    /// thread count, the plan — and therefore the executor's output *and*
    /// per-phase modeled I/O — is identical for every `threads`, including
    /// the statistics scan itself (each page of S is read exactly once).
    /// `stats_pages` is the per-shard-collector budget; the fixed
    /// [`STATS_SHARDS`](nocap_stats::STATS_SHARDS)-way shard geometry
    /// multiplies the resident charge (determinism fixes the number of
    /// sketch sets by the data, not by the worker count).
    pub fn collect_and_run(
        &self,
        r: &Relation,
        s: &Relation,
        stats_pages: usize,
        threads: usize,
        obs: &Obs,
    ) -> nocap_storage::Result<JoinRunReport> {
        // Attach before the sketch pass so stats-phase reads land in the
        // same I/O trace as the join; the body's own attach nests onto this
        // one.
        let _io_trace = obs.attach_io(s.device());
        let pool = BufferPool::new(self.spec.buffer_pages);
        let summary = StatsCollector::collect_parallel_with_budget(
            &pool,
            stats_pages,
            self.spec.page_size,
            s,
            threads,
            obs,
        )?;
        drop(pool);
        self.run_with_summary(r, s, &summary, threads, obs)
    }

    /// [`run_obs`](Self::run_obs) with graceful degradation: when
    /// `admission` cannot grant the spec's budget — or planning/execution
    /// fails with
    /// [`OutOfMemory`](nocap_storage::StorageError::OutOfMemory) — the
    /// budget walks down the [`BudgetLadder`] (`B → ¾B → …`) and the join
    /// is re-planned at the smaller budget, trading passes for memory
    /// instead of failing. Every step is recorded in the returned
    /// [`DegradedRun`] and, when `obs` records, in the trace counters
    /// `degradation_steps` / `degraded_budget_pages`.
    pub fn run_degrading(
        &self,
        r: &Relation,
        s: &Relation,
        mcvs: &[(u64, u64)],
        admission: &BufferPool,
        ladder: &BudgetLadder,
        obs: &Obs,
    ) -> nocap_storage::Result<DegradedRun> {
        nocap_model::run_degrading(admission, self.spec.buffer_pages, ladder, obs, |budget| {
            // Re-plan at the degraded budget: a smaller B designates fewer
            // keys and spills more, but the plan stays feasible.
            let degraded = NocapJoin::new(self.spec.with_buffer_pages(budget), self.config);
            degraded.run_obs(r, s, mcvs, obs)
        })
    }

    /// Executes the join with an explicit, pre-computed plan on `threads`
    /// worker threads — the method every other entry point ends in. The
    /// plan's cached keys, designated partitions and residual geometry
    /// become the [`HybridPlan`] of [`hybrid_hash_join`].
    pub fn run_with_plan(
        &self,
        r: &Relation,
        s: &Relation,
        plan: &NocapPlan,
        threads: usize,
        obs: &Obs,
    ) -> nocap_storage::Result<JoinRunReport> {
        let fixed_pages = plan.fixed_memory_pages(&self.spec);
        let geometry = RestGeometry::new(
            &self.spec,
            staging_budget(&self.spec, fixed_pages)?,
            plan.estimated_rest_keys,
            self.config.planner.rh_params,
        );
        let routes = plan.route_map();
        let hybrid = HybridPlan {
            label: "NOCAP",
            fixed_pages,
            designated: plan.num_designated(),
            quotas: geometry.caps,
            route: |key: u64| match routes.get(&key) {
                Some(&route) => route,
                None => Route::Residual(geometry.rh.partition_of(key)),
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
            budget_pages.max(1),
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
    use nocap_storage::{Record, SimDevice};
    use std::collections::HashMap;

    /// Builds R with keys `0..n_r` and S where key `k` appears `ct(k)` times.
    pub(crate) fn build_workload(
        device: nocap_storage::device::DeviceRef,
        spec: &JoinSpec,
        n_r: u64,
        counts: impl Fn(u64) -> u64,
    ) -> (Relation, Relation, Vec<(u64, u64)>) {
        let payload = spec.r_layout.payload_bytes();
        let r = Relation::bulk_load(
            device.clone(),
            spec.r_layout,
            spec.page_size,
            (0..n_r).map(|k| Record::with_fill(k, payload, 1)),
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
        let s = Relation::bulk_load(
            device.clone(),
            spec.s_layout,
            spec.page_size,
            s_keys.iter().map(|&k| Record::with_fill(k, payload, 2)),
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
            let rec = Record::with_fill(k, 120, 0);
            stager
                .insert(&mut stage, geometry.rh.partition_of(k), rec.as_record_ref())
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
        let spilled_records: usize = build.spilled.iter().flatten().map(|h| h.records()).sum();
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
        // partitions are resident and fill their quotas. The pool is set up
        // as the executor sets it up; at one worker the staged footprint is
        // exact, so what the run holds is the fixed reservations plus
        // `pages_in_use`.
        let spec = JoinSpec::paper_synthetic(128, 96);
        let mcvs: Vec<(u64, u64)> = (0..300).map(|k| (k, 8)).collect();
        let plan = plan_nocap(&mcvs, 6_000, 48_000, &spec, &PlannerConfig::default());
        let pool = BufferPool::new(spec.buffer_pages);
        let _io_pages = pool.reserve(2).unwrap();
        let _fixed = pool.reserve(plan.fixed_memory_pages(&spec)).unwrap();
        let fixed = pool.in_use();
        let geometry = RestGeometry::new(
            &spec,
            pool.available(),
            plan.estimated_rest_keys,
            RoundedHashParams::default(),
        );
        let quotas = pool.carve_quotas(&geometry.caps);
        let reserved: Vec<usize> = quotas.iter().map(|quota| quota.pages()).collect();
        assert_eq!(reserved, geometry.caps, "one reservation per quota");
        assert_eq!(pool.available(), 0, "the quotas are all that was left");

        let device = SimDevice::new_ref();
        let stager =
            ParallelStager::new(device.clone(), spec.r_layout, spec, geometry.caps.clone());
        let mut stage = stager.worker_stage();
        let routes = plan.route_map();
        for k in (0..6_000u64).filter(|k| !routes.contains_key(k)) {
            let rec = Record::with_fill(k, 120, 0);
            stager
                .insert(&mut stage, geometry.rh.partition_of(k), rec.as_record_ref())
                .unwrap();
            assert!(
                fixed + stager.pages_in_use() <= spec.buffer_pages,
                "{fixed} fixed pages + {} staged exceed B",
                stager.pages_in_use()
            );
        }
        let build = stager.finish(vec![stage]).unwrap();
        let spilled = build.pob.iter().filter(|&&spilled| spilled).count();
        assert!(
            (1..build.pob.len()).contains(&spilled),
            "a mid-regime cell: {spilled} of {} partitions spilled",
            build.pob.len()
        );
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

    #[test]
    fn run_degrading_trades_memory_for_passes_under_admission_pressure() {
        use nocap_model::BudgetLadder;
        let device = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 64);
        let counts = |k: u64| if k < 5 { 150 } else { 2 };
        let (r, s, mcvs) = build_workload(device.clone(), &spec, 2_000, counts);
        let join = NocapJoin::new(spec, NocapConfig::default());

        // Roomy admission: first-try success, same result as a plain run.
        let roomy = nocap_storage::BufferPool::new(256);
        let run = join
            .run_degrading(&r, &s, &mcvs, &roomy, &BudgetLadder::default(), &Obs::off())
            .unwrap();
        assert_eq!(run.steps(), 0);
        assert_eq!(run.budget_pages, 64);
        assert_eq!(run.report.output_records, expected_output(2_000, counts));
        assert_eq!(roomy.in_use(), 0);

        // Tight admission (37 pages): 64 and 48 are rejected, 36 runs.
        let tight = nocap_storage::BufferPool::new(37);
        let degraded = join
            .run_degrading(&r, &s, &mcvs, &tight, &BudgetLadder::default(), &Obs::off())
            .unwrap();
        assert_eq!(degraded.budget_pages, 36);
        assert_eq!(degraded.steps(), 2);
        assert_eq!(
            degraded.report.output_records,
            expected_output(2_000, counts),
            "a degraded run is still correct"
        );
        assert!(
            degraded.report.total_ios() >= run.report.total_ios(),
            "less memory can never mean less I/O"
        );
        assert_eq!(tight.in_use(), 0);

        // Admission below the ladder floor: a clean error, nothing leaked.
        let hopeless = nocap_storage::BufferPool::new(2);
        let err = join
            .run_degrading(
                &r,
                &s,
                &mcvs,
                &hopeless,
                &BudgetLadder::default(),
                &Obs::off(),
            )
            .expect_err("the floor cannot be granted");
        assert!(matches!(
            err,
            nocap_storage::StorageError::OutOfMemory { .. }
        ));
        assert_eq!(hopeless.in_use(), 0);
    }

    #[test]
    fn output_counts_match_a_reference_hash_join() {
        // Cross-check against a straightforward in-memory join.
        let device = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 32);
        let counts = |k: u64| (crate::rounded_hash::mix_key(k) % 7).max(1);
        let (r, s, mcvs) = build_workload(device.clone(), &spec, 1_500, counts);
        let mut reference: HashMap<u64, u64> = HashMap::new();
        for rec in r.read_all().unwrap() {
            *reference.entry(rec.key()).or_insert(0) += 0;
        }
        let mut expected = 0u64;
        for rec in s.read_all().unwrap() {
            if reference.contains_key(&rec.key()) {
                expected += 1;
            }
        }
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

    #[test]
    fn sketch_pipeline_is_identical_at_every_thread_count() {
        // collect_and_run at n workers must reproduce its one-worker run
        // exactly: the sharded summary is thread-count invariant, so the
        // plan, the output and the per-phase I/O all are.
        let spec = JoinSpec::paper_synthetic(128, 48);
        let counts = |k: u64| if k < 12 { 180 } else { 3 };
        let join = NocapJoin::new(spec, NocapConfig::default());
        let (r, s, _) = build(2_500, counts, &spec);
        let sequential = join.collect_and_run(&r, &s, 4, 1, &Obs::off()).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let (r, s, _) = build(2_500, counts, &spec);
            let parallel = join
                .collect_and_run(&r, &s, 4, threads, &Obs::off())
                .unwrap();
            assert_eq!(
                parallel.output_records, sequential.output_records,
                "pipeline output differs at {threads} threads"
            );
            assert_eq!(
                parallel.partition_io, sequential.partition_io,
                "pipeline partition I/O differs at {threads} threads"
            );
            assert_eq!(
                parallel.probe_io, sequential.probe_io,
                "pipeline probe I/O differs at {threads} threads"
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
        let report = join.collect_and_run(&r, &s, 4, 4, &Obs::off()).unwrap();
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
    fn zero_threads_selects_a_default() {
        let spec = JoinSpec::paper_synthetic(128, 64);
        let counts = |_k: u64| 3u64;
        let join = NocapJoin::new(spec, NocapConfig::default());
        let (r, s, mcvs) = build(1_000, counts, &spec);
        let report = join.run_parallel(&r, &s, &mcvs, 0).unwrap();
        assert_eq!(report.output_records, 3_000);
    }
}
