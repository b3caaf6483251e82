//! Dynamic Hybrid Hash join (DHH) — the state-of-the-art baseline
//! (Algorithms 1 and 2 plus the heuristic skew optimization of §2.2) — and
//! Histojoin, which is DHH under another configuration.
//!
//! DHH is a *plan* for the hybrid hash join body that NOCAP runs too
//! ([`nocap_par::hybrid_hash_join`]; the passes, the determinism argument
//! and the memory disclosures are documented there): a plain hash
//! (`mix64 mod m`) over the paper's
//! `m_DHH = max(20, ⌈(‖R‖·F − B)/(B − 1)⌉)` partitions, all under
//! non-zero staging quotas, and the skew keys below as the cached set. Where
//! NOCAP's planner picks its cached keys and partition count per input,
//! DHH's are fixed by two constants and one formula.
//!
//! **Destaging policy.** The paper's Algorithm 1 destages *the largest
//! staged partition* whenever the global budget overflows — a policy whose
//! outcome depends on the order records arrive, which no sharded scan can
//! reproduce. This implementation gives every partition a fixed quota of
//! the staging budget instead ([`staging_quotas`] over the `m_DHH` plain
//! -hash partitions, the geometry NOCAP's residual partitioner uses): a
//! partition is destaged the moment its own staged footprint exceeds its
//! quota — a function of its total record count only, so the destaged set
//! is identical for any scan order or thread interleaving. What
//! Algorithm 1 achieves by choosing its victims late — part of R stays in
//! memory whenever `B` is a sizeable share of `F·‖R‖` — the quotas achieve
//! by being *resident-first*: the first `s` partitions get a quota that
//! holds their expected table plus four standard deviations of their record
//! count, `s` as large as the budget affords, and the others share what is
//! left, at least the one output page a destaged partition needs. A
//! resident-designated partition that outgrows its quota anyway is destaged
//! like any other and costs what it would have cost without the
//! designation.
//!
//! **Skew optimization.** Practical systems (PostgreSQL, Histojoin) add a
//! small dedicated hash table for the most common values: if the tracked
//! MCVs cover at least `skew_frequency_threshold` of S, the hottest MCV keys
//! are pinned in memory using at most `skew_memory_fraction · B` pages. Both
//! thresholds are fixed constants in deployed systems (2 % each); they are
//! constructor parameters here so that Figure 11's sensitivity sweep can be
//! reproduced.
//!
//! **Histojoin** (Cutt & Lawrence) caches the records of the most common
//! values in the same dedicated table so that the (many) matching S records
//! never touch disk. The original limits that table to 2 % of the memory
//! budget and — unlike PostgreSQL's variant — applies the optimization
//! unconditionally (no frequency trigger). It is therefore
//! [`DhhJoin::histojoin`]: this executor under [`DhhConfig::histojoin`],
//! exactly as the paper treats it ("we also compare Histojoin by setting
//! the trigger frequency threshold as zero"), reporting under its own name.
//!
//! **Statistics.** Like NOCAP's planner, DHH reads one input besides the
//! relations: an MCV list, the catalog's or a sketch summary's
//! ([`StatsSummary::planner_mcvs`](nocap_stats::StatsSummary::planner_mcvs),
//! whose histogram-backed masses on near-uniform streams keep noisy
//! SpaceSaving counts from tripping the 2 % trigger). `exp_stats_accuracy`
//! hands every skew-aware algorithm the same list, so they compare on
//! equal sketched footing.

use std::collections::HashSet;

use nocap_model::{staging_quotas, JoinRunReport, JoinSpec, StagingRouter};
use nocap_obs::Obs;
use nocap_par::{hybrid_hash_join, HybridPlan, Route};
use nocap_storage::hash::BuildKeyHasher;
use nocap_storage::{JoinHashTable, Relation};

/// SplitMix64 hash for partition routing (the shared workspace key hash).
use nocap_storage::hash::mix64 as hash_key;

/// Tuning knobs of DHH's skew optimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DhhConfig {
    /// Fraction of the memory budget reserved for the skew-key hash table
    /// (PostgreSQL and Histojoin use 2 %). A fraction that leaves less than
    /// one page of `B` — `0` in particular — disables the skew optimization.
    pub skew_memory_fraction: f64,
    /// Minimum fraction of S that the tracked MCVs must cover before the
    /// skew optimization is triggered (PostgreSQL uses 2 %, Histojoin 0).
    pub skew_frequency_threshold: f64,
}

impl Default for DhhConfig {
    fn default() -> Self {
        DhhConfig {
            skew_memory_fraction: 0.02,
            skew_frequency_threshold: 0.02,
        }
    }
}

impl DhhConfig {
    /// The Histojoin configuration: always trigger the skew optimization.
    pub fn histojoin() -> Self {
        DhhConfig {
            skew_memory_fraction: 0.02,
            skew_frequency_threshold: 0.0,
        }
    }
}

/// Dynamic Hybrid Hash join executor.
#[derive(Debug, Clone, Copy)]
pub struct DhhJoin {
    spec: JoinSpec,
    config: DhhConfig,
    /// The algorithm name its reports carry.
    label: &'static str,
}

impl DhhJoin {
    /// Creates a DHH operator with the given spec and skew configuration.
    pub fn new(spec: JoinSpec, config: DhhConfig) -> Self {
        DhhJoin {
            spec,
            config,
            label: "DHH",
        }
    }

    /// Creates a Histojoin operator: the paper's configuration (2 %
    /// skew-table budget, zero trigger threshold), reported as `Histojoin`.
    pub fn histojoin(spec: JoinSpec) -> Self {
        DhhJoin {
            label: "Histojoin",
            ..DhhJoin::new(spec, DhhConfig::histojoin())
        }
    }

    /// Creates a DHH operator with the default (PostgreSQL-like) thresholds.
    pub fn with_defaults(spec: JoinSpec) -> Self {
        DhhJoin::new(spec, DhhConfig::default())
    }

    /// Executes `r ⋈ s` on the calling thread
    /// ([`run_parallel`](Self::run_parallel) with one worker). `mcvs` are
    /// the tracked most-common-value statistics (`(key, frequency)` pairs);
    /// pass an empty slice to disable the skew optimization's inputs.
    pub fn run(
        &self,
        r: &Relation,
        s: &Relation,
        mcvs: &[(u64, u64)],
    ) -> nocap_storage::Result<JoinRunReport> {
        self.run_parallel_obs(r, s, mcvs, 1, &Obs::off())
    }

    /// [`run`](Self::run) with an observability channel
    /// ([`run_parallel_obs`](Self::run_parallel_obs) with one worker, so
    /// every worker and task span belongs to worker 0).
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

    /// Executes `r ⋈ s` on `threads` worker threads with an observability
    /// channel — the method every other entry point ends in.
    ///
    /// `threads == 0` runs as one worker (see [`nocap_par::ordered_tasks`]).
    /// The result — output cardinality and the full per-phase modeled I/O
    /// trace — is **the same for every thread count**, and with `Obs::off()`
    /// the execution is byte-identical to a recorded one. The skew keys are
    /// the cached set, the partition count and quotas are fixed before any
    /// record is routed — the paper's `m_DHH` partitions, resident-first
    /// quotas over every page that is left — and [`hybrid_hash_join`] does
    /// the rest.
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
        let spec = &self.spec;
        let skew_keys = self.select_skew_keys(mcvs, s.num_records() as u64);
        let fixed_pages = spec.hash_table_pages(skew_keys.len());
        let staged = r.num_records().saturating_sub(skew_keys.len());
        // The quotas share what the streaming pages and skew table leave.
        let quotas = staging_quotas(
            staged,
            spec,
            spec.pages_left(2 + fixed_pages)?,
            StagingRouter::PlainHash {
                parts: spec.m_dhh(r.num_records()),
            },
        )
        .caps();
        let parts = quotas.len() as u64;
        let plan = HybridPlan {
            label: self.label,
            fixed_pages,
            quotas,
            route: |key: u64| {
                if skew_keys.contains(&key) {
                    Route::Cached
                } else {
                    Route::Partition((hash_key(key) % parts) as usize)
                }
            },
        };
        hybrid_hash_join(spec, r, s, plan, threads, obs)
    }

    /// Chooses which MCV keys are pinned in the skew hash table. The set is
    /// the plan's routing table, hashed like every other one.
    fn select_skew_keys(&self, mcvs: &[(u64, u64)], n_s: u64) -> HashSet<u64, BuildKeyHasher> {
        let mut selected = HashSet::default();
        if mcvs.is_empty() || n_s == 0 {
            return selected;
        }
        let total_mcv_mass: u64 = mcvs.iter().map(|&(_, c)| c).sum();
        if (total_mcv_mass as f64) < self.config.skew_frequency_threshold * n_s as f64 {
            return selected;
        }
        let budget_pages =
            (self.spec.buffer_pages as f64 * self.config.skew_memory_fraction).floor() as usize;
        if budget_pages == 0 {
            return selected;
        }
        let capacity = JoinHashTable::capacity_for_pages(
            budget_pages,
            self.spec.r_layout,
            self.spec.page_size,
            self.spec.fudge,
        );
        let mut ranked: Vec<(u64, u64)> = mcvs.to_vec();
        ranked.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
        for (key, _) in ranked.into_iter().take(capacity) {
            selected.insert(key);
        }
        selected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_join_count;
    use crate::testutil::{build_workload, mcvs};
    use nocap_par::ParallelStager;
    use nocap_storage::{IoStats, RecordRef, SimDevice};

    /// Plain DHH without any skew optimization: no memory for skew keys.
    const NO_SKEW: DhhConfig = DhhConfig {
        skew_memory_fraction: 0.0,
        skew_frequency_threshold: 1.0,
    };

    /// A report's output and per-phase I/O, each phase as
    /// `[seq_reads, rand_reads, seq_writes, rand_writes]`.
    fn pinned(report: &JoinRunReport) -> (u64, [u64; 4], [u64; 4]) {
        let io = |io: &IoStats| [io.seq_reads, io.rand_reads, io.seq_writes, io.rand_writes];
        let (partition, probe) = (io(&report.partition_io), io(&report.probe_io));
        (report.output_records, partition, probe)
    }

    #[test]
    fn matches_naive_join_uniform() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 32);
        let counts = |_k: u64| 4u64;
        let (r, s) = build_workload(dev.clone(), &spec, 2_000, counts);
        let expected = naive_join_count(&r, &s).unwrap();
        dev.reset_stats();
        let report = DhhJoin::with_defaults(spec)
            .run(&r, &s, &mcvs(2_000, counts, 100))
            .unwrap();
        assert_eq!(report.output_records, expected);
    }

    #[test]
    fn matches_naive_join_skewed_with_and_without_skew_keys() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 48);
        let counts = |k: u64| if k < 8 { 300 } else { 1 };
        let (r, s) = build_workload(dev.clone(), &spec, 2_000, counts);
        let expected = naive_join_count(&r, &s).unwrap();
        let stats = mcvs(2_000, counts, 100);

        dev.reset_stats();
        let with_skew = DhhJoin::with_defaults(spec).run(&r, &s, &stats).unwrap();
        assert_eq!(with_skew.output_records, expected);

        dev.reset_stats();
        let without_skew = DhhJoin::new(spec, NO_SKEW).run(&r, &s, &stats).unwrap();
        assert_eq!(without_skew.output_records, expected);

        // The skew optimization pins the hottest keys, so it cannot do more
        // I/O than the unoptimized run.
        assert!(with_skew.total_ios() <= without_skew.total_ios());
    }

    #[test]
    fn large_memory_degenerates_to_an_in_memory_join() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 1_024);
        let counts = |k: u64| (k % 4) + 1;
        let (r, s) = build_workload(dev.clone(), &spec, 2_000, counts);
        dev.reset_stats();
        let report = DhhJoin::with_defaults(spec)
            .run(&r, &s, &mcvs(2_000, counts, 50))
            .unwrap();
        assert_eq!(report.total_io().writes(), 0, "nothing should spill");
        assert_eq!(
            report.total_io().reads() as usize,
            r.num_pages() + s.num_pages()
        );
    }

    #[test]
    fn tiny_memory_degenerates_towards_ghj() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 24);
        let counts = |_k: u64| 3u64;
        let (r, s) = build_workload(dev.clone(), &spec, 4_000, counts);
        let expected = naive_join_count(&r, &s).unwrap();
        dev.reset_stats();
        let report = DhhJoin::with_defaults(spec)
            .run(&r, &s, &mcvs(4_000, counts, 100))
            .unwrap();
        assert_eq!(report.output_records, expected);
        // With B far below √(‖R‖·F) nearly everything spills: the partition
        // phase writes most of R and S.
        assert!(
            report.partition_io.writes() as usize > (r.num_pages() + s.num_pages()) / 2,
            "most data must spill under a tiny budget"
        );
    }

    #[test]
    fn sketch_driven_dhh_matches_oracle_output_and_stays_close_on_io() {
        use nocap_stats::{StatsCollector, StatsConfig};
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 48);
        let counts = |k: u64| if k < 10 { 250 } else { 2 };
        let (r, s) = build_workload(dev.clone(), &spec, 2_500, counts);
        let expected = naive_join_count(&r, &s).unwrap();

        let mut collector = StatsCollector::new(StatsConfig::default());
        collector.consume(s.scan()).unwrap();
        let summary = collector.finish();

        let oracle_stats = mcvs(2_500, counts, 100);
        dev.reset_stats();
        let oracle = DhhJoin::with_defaults(spec)
            .run(&r, &s, &oracle_stats)
            .unwrap();
        dev.reset_stats();
        let sketched = DhhJoin::with_defaults(spec)
            .run(&r, &s, &summary.planner_mcvs())
            .unwrap();
        assert_eq!(
            pinned(&sketched),
            (7_480, [323, 0, 0, 249], [264, 0, 0, 15])
        );
        assert_eq!(sketched.output_records, expected);
        assert_eq!(oracle.output_records, expected);
        assert!(
            (sketched.total_ios() as f64) <= 1.5 * oracle.total_ios() as f64,
            "sketch-driven DHH should stay close to oracle DHH \
             ({} vs {})",
            sketched.total_ios(),
            oracle.total_ios()
        );
    }

    #[test]
    fn quota_destaging_is_order_independent_and_respects_the_budget() {
        let spec = JoinSpec::paper_synthetic(128, 16);
        let budget = 10usize;
        let parts = 5usize;
        // Run the same multiset of keys through DHH's R pass — modulo
        // router straight into the quota stager, as worker 0 of the
        // executor does — in two very different orders; the destaged set
        // must not change (that is the point of the quota port), and at one
        // worker the budget holds exactly after every insert.
        let run = |keys: &[u64]| {
            let device = SimDevice::new_ref();
            let caps = staging_quotas(2_000, &spec, budget, StagingRouter::PlainHash { parts });
            let stager = ParallelStager::new(device.clone(), spec.r_layout, spec, caps.caps());
            let mut stage = stager.worker_stage();
            for &k in keys {
                let rec = RecordRef::new(k, &[0; 120]);
                let p = (hash_key(k) % parts as u64) as usize;
                stager.insert(&mut stage, p, rec).unwrap();
                assert!(
                    stager.pages_in_use() <= budget,
                    "staged pages + spill buffers exceeded the budget"
                );
            }
            let build = stager.finish(vec![stage]).unwrap();
            let spilled: usize = build
                .spilled
                .iter()
                .flatten()
                .map(|p| p.num_records())
                .sum();
            assert_eq!(spilled + build.staged_records.len(), keys.len());
            (build.pob, device.stats().total())
        };
        let forward: Vec<u64> = (0..2_000).collect();
        let mut shuffled = forward.clone();
        shuffled.sort_by_key(|&k| nocap_storage::hash::mix64(k));
        let a = run(&forward);
        let b = run(&shuffled);
        assert_eq!(a.0, b.0, "page-out bits must be order-independent");
        assert_eq!(a.1, b.1, "I/O must be order-independent");
        assert!(a.0.iter().any(|&s| s), "2K records cannot stay in 10 pages");
    }

    #[test]
    fn run_parallel_matches_run_exactly_on_a_skewed_workload() {
        let spec = JoinSpec::paper_synthetic(128, 48);
        let counts = |k: u64| if k < 8 { 300 } else { 1 };
        let stats = mcvs(2_000, counts, 100);
        crate::testutil::assert_parallel_equivalence(
            "dhh/skewed",
            &[1, 2, 4, 8],
            || {
                let dev = SimDevice::new_ref();
                let (r, s) = build_workload(dev, &spec, 2_000, counts);
                DhhJoin::with_defaults(spec).run(&r, &s, &stats).unwrap()
            },
            |threads| {
                let dev = SimDevice::new_ref();
                let (r, s) = build_workload(dev, &spec, 2_000, counts);
                DhhJoin::with_defaults(spec)
                    .run_parallel(&r, &s, &stats, threads)
                    .unwrap()
            },
        );
    }

    #[test]
    fn run_parallel_matches_run_without_skew_keys() {
        let spec = JoinSpec::paper_synthetic(128, 24);
        let counts = |_k: u64| 3u64;
        let stats = mcvs(3_000, counts, 100);
        crate::testutil::assert_parallel_equivalence(
            "dhh/no-skew",
            &[1, 2, 4],
            || {
                let dev = SimDevice::new_ref();
                let (r, s) = build_workload(dev, &spec, 3_000, counts);
                DhhJoin::new(spec, NO_SKEW).run(&r, &s, &stats).unwrap()
            },
            |threads| {
                let dev = SimDevice::new_ref();
                let (r, s) = build_workload(dev, &spec, 3_000, counts);
                DhhJoin::new(spec, NO_SKEW)
                    .run_parallel(&r, &s, &stats, threads)
                    .unwrap()
            },
        );
    }

    #[test]
    fn run_parallel_zero_threads_selects_a_default_and_stays_correct() {
        // The default is one worker: the report is `run`'s.
        let spec = JoinSpec::paper_synthetic(128, 64);
        let counts = |k: u64| (k % 4) + 1;
        let (r, s) = build_workload(SimDevice::new_ref(), &spec, 1_500, counts);
        let expected = naive_join_count(&r, &s).unwrap();
        let mcvs = mcvs(1_500, counts, 50);
        let join = DhhJoin::with_defaults(spec);
        let report = join.run_parallel(&r, &s, &mcvs, 0).unwrap();
        assert_eq!(report.output_records, expected);
        assert_eq!(report, join.run(&r, &s, &mcvs).unwrap());
    }

    #[test]
    fn run_parallel_cleans_up_all_spill_files() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 24);
        let counts = |_k: u64| 3u64;
        let (r, s) = build_workload(dev.clone(), &spec, 4_000, counts);
        let report = DhhJoin::with_defaults(spec)
            .run_parallel(&r, &s, &mcvs(4_000, counts, 100), 3)
            .unwrap();
        assert!(
            report.partition_io.writes() > 0,
            "a tiny budget must spill (otherwise this tests nothing)"
        );
        // Only the two base relations should remain on the device.
        assert_eq!(
            dev.file_pages(r.file()).unwrap() + dev.file_pages(s.file()).unwrap(),
            r.num_pages() + s.num_pages()
        );
    }

    #[test]
    fn sketch_driven_run_parallel_matches_the_sequential_sketch_run() {
        use nocap_stats::{StatsCollector, StatsConfig};
        let spec = JoinSpec::paper_synthetic(128, 48);
        let counts = |k: u64| if k < 10 { 250 } else { 2 };
        let collect = || {
            let dev = SimDevice::new_ref();
            let (r, s) = build_workload(dev, &spec, 2_500, counts);
            let mut collector = StatsCollector::new(StatsConfig::default());
            collector.consume(s.scan()).unwrap();
            (r, s, collector.finish())
        };
        crate::testutil::assert_parallel_equivalence(
            "dhh/sketch-driven",
            &[1, 2, 4],
            || {
                let (r, s, summary) = collect();
                r.device().reset_stats();
                DhhJoin::with_defaults(spec)
                    .run(&r, &s, &summary.planner_mcvs())
                    .unwrap()
            },
            |threads| {
                let (r, s, summary) = collect();
                r.device().reset_stats();
                DhhJoin::with_defaults(spec)
                    .run_parallel(&r, &s, &summary.planner_mcvs(), threads)
                    .unwrap()
            },
        );
    }

    #[test]
    fn skew_keys_only_selected_above_the_frequency_threshold() {
        let spec = JoinSpec::paper_synthetic(128, 100);
        let dhh = DhhJoin::new(
            spec,
            DhhConfig {
                skew_memory_fraction: 0.02,
                skew_frequency_threshold: 0.5,
            },
        );
        // MCV mass of 10 out of n_S = 1000 < 50 % threshold → no skew keys.
        let low_mass = vec![(1u64, 5u64), (2, 5)];
        assert!(dhh.select_skew_keys(&low_mass, 1_000).is_empty());
        // Above the threshold the hottest keys are selected.
        let high_mass = vec![(1u64, 400u64), (2, 300)];
        let selected = dhh.select_skew_keys(&high_mass, 1_000);
        assert!(selected.contains(&1));
    }

    #[test]
    fn histojoin_matches_naive_join() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 48);
        let counts = |k: u64| if k < 5 { 200 } else { 2 };
        let (r, s) = build_workload(dev.clone(), &spec, 1_500, counts);
        let expected = naive_join_count(&r, &s).unwrap();
        dev.reset_stats();
        let report = DhhJoin::histojoin(spec)
            .run(&r, &s, &mcvs(1_500, counts, 75))
            .unwrap();
        assert_eq!(report.output_records, expected);
        assert_eq!(report.algorithm, "Histojoin");
    }

    #[test]
    fn histojoin_triggers_even_for_low_skew_mass() {
        // With a tiny MCV mass PostgreSQL-style DHH skips the skew table but
        // Histojoin still builds it. Both must stay correct; Histojoin must
        // not do more I/O than no-skew DHH by more than the skew table's
        // worth of avoided spills.
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 40);
        let counts = |k: u64| if k == 0 { 30 } else { 2 };
        let (r, s) = build_workload(dev.clone(), &spec, 3_000, counts);
        let expected = naive_join_count(&r, &s).unwrap();
        let stats = mcvs(3_000, counts, 50);
        dev.reset_stats();
        let histo = DhhJoin::histojoin(spec).run(&r, &s, &stats).unwrap();
        assert_eq!(histo.output_records, expected);
    }
}
