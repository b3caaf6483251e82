//! Dynamic Hybrid Hash join (DHH) — the state-of-the-art baseline
//! (Algorithms 1 and 2 plus the heuristic skew optimization of §2.2).
//!
//! DHH hash-partitions R into `m_DHH = max(20, ⌈(‖R‖·F − B)/(B − 1)⌉)`
//! partitions. Every partition starts *staged* in memory; partitions that
//! outgrow their memory share are destaged to disk and their page-out bit
//! (POB) is set. After R is consumed, all still-staged partitions are
//! folded into one in-memory hash table. While partitioning S, records
//! whose key hits the in-memory table are joined immediately; records
//! belonging to destaged partitions are spilled; the remaining records
//! (staged partition, no match) are dropped. Finally the spilled partition
//! pairs are joined pairwise.
//!
//! **One body.** [`DhhJoin::run_parallel_obs`] is the executor; `run`,
//! `run_obs` and the sketch-driven variants call it with one worker, at
//! which the `nocap-par` fan-outs spawn nothing and the join runs on the
//! calling thread. For every thread count the output and the per-phase
//! modeled I/O are the same (checked-in numbers in
//! `tests/parallel_determinism.rs`). A panic inside a scan or probe task
//! comes back as `StorageError::WorkerPanicked` — worker 0, the calling
//! thread, runs under the pool's `catch_unwind` too.
//!
//! **Destaging policy.** The paper's Algorithm 1 destages *the largest
//! staged partition* whenever the global budget overflows — a policy whose
//! outcome depends on the order records arrive, which no sharded scan can
//! reproduce. This implementation uses the same deterministic quota
//! geometry as NOCAP's residual partitioner
//! ([`nocap_model::staging_quotas`], here over the paper's `m_DHH` plain
//! -hash partitions): every partition owns a fixed quota of the staging
//! budget and is destaged the moment its own staged footprint exceeds it —
//! a function of the partition's total record count only
//! ([`ParallelStager`]). What Algorithm 1 achieves by choosing its victims
//! late — part of R stays in memory whenever `B` is a sizeable share of
//! `F·‖R‖` — the quotas achieve by being *resident-first*: the first `s`
//! partitions get a quota that holds their expected table plus four
//! standard deviations of their record count, `s` as large as the budget
//! affords, and the others share what is left, at least the one output
//! page a destaged partition needs. A resident-designated partition that
//! outgrows its quota anyway is destaged like any other and costs what it
//! would have cost without the designation. The destaged set is therefore
//! identical for any scan order or thread interleaving; total staged pages
//! plus one output buffer per destaged partition still never exceed the
//! budget. (Each worker additionally holds one private output page per
//! destaged partition outside the budget, at one worker too — see
//! `nocap_par::shard`.)
//!
//! **Skew optimization.** Practical systems (PostgreSQL, Histojoin) add a
//! small dedicated hash table for the most common values: if the tracked
//! MCVs cover at least `skew_frequency_threshold` of S, the hottest MCV keys
//! are pinned in memory using at most `skew_memory_fraction · B` pages. Both
//! thresholds are fixed constants in deployed systems (2 % each); they are
//! constructor parameters here so that Figure 11's sensitivity sweep can be
//! reproduced.

use std::collections::HashSet;
use std::sync::Mutex;

use nocap_model::pairwise::smart_partition_join;
use nocap_model::{
    staging_quotas, BudgetLadder, DegradedRun, JoinRunReport, JoinSpec, ProbeBloom, StagingRouter,
};
use nocap_obs::{Obs, Phase};
use nocap_par::{
    resolve_threads, run_workers_obs, sum_tasks_obs, PageMorsels, ParallelStager, SharedWriterSet,
};
use nocap_stats::StatsSummary;
use nocap_storage::{
    into_inner_unpoisoned, lock_unpoisoned, BufferPool, IoKind, JoinHashTable, PartitionHandle,
    RadixRouter, Relation, SpillGuard,
};

/// SplitMix64 hash for partition routing (the shared workspace key hash).
use nocap_storage::hash::mix64 as hash_key;

/// Tuning knobs of DHH's skew optimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DhhConfig {
    /// Fraction of the memory budget reserved for the skew-key hash table
    /// (PostgreSQL and Histojoin use 2 %).
    pub skew_memory_fraction: f64,
    /// Minimum fraction of S that the tracked MCVs must cover before the
    /// skew optimization is triggered (PostgreSQL uses 2 %, Histojoin 0).
    pub skew_frequency_threshold: f64,
    /// Enables/disables the skew optimization altogether.
    pub skew_optimization: bool,
}

impl Default for DhhConfig {
    fn default() -> Self {
        DhhConfig {
            skew_memory_fraction: 0.02,
            skew_frequency_threshold: 0.02,
            skew_optimization: true,
        }
    }
}

impl DhhConfig {
    /// The Histojoin configuration: always trigger the skew optimization.
    pub fn histojoin() -> Self {
        DhhConfig {
            skew_memory_fraction: 0.02,
            skew_frequency_threshold: 0.0,
            skew_optimization: true,
        }
    }

    /// Plain DHH without any skew optimization.
    pub fn no_skew() -> Self {
        DhhConfig {
            skew_memory_fraction: 0.0,
            skew_frequency_threshold: 1.0,
            skew_optimization: false,
        }
    }
}

/// Dynamic Hybrid Hash join executor.
#[derive(Debug, Clone, Copy)]
pub struct DhhJoin {
    spec: JoinSpec,
    config: DhhConfig,
    bloom: ProbeBloom,
}

impl DhhJoin {
    /// Creates a DHH operator with the given spec and skew configuration.
    pub fn new(spec: JoinSpec, config: DhhConfig) -> Self {
        DhhJoin {
            spec,
            config,
            bloom: ProbeBloom::default(),
        }
    }

    /// Overrides the probe-side Bloom pre-filter knob (on by default; a
    /// pure CPU optimization — output and modeled I/O are unchanged).
    pub fn with_bloom(mut self, bloom: ProbeBloom) -> Self {
        self.bloom = bloom;
        self
    }

    /// Creates a DHH operator with the default (PostgreSQL-like) thresholds.
    pub fn with_defaults(spec: JoinSpec) -> Self {
        DhhJoin::new(spec, DhhConfig::default())
    }

    /// Executes `r ⋈ s` with statistics from a one-pass sketch summary
    /// instead of the oracle MCV list — the same deployable configuration
    /// `NocapJoin::run_with_collected_stats` uses, so `exp_stats_accuracy`
    /// compares every skew-aware algorithm on equal (sketched) footing.
    ///
    /// The skew optimization consumes [`StatsSummary::planner_mcvs`]: raw
    /// SpaceSaving counts on skewed streams, histogram-backed masses on
    /// near-uniform ones (where the raw counts are noise-dominated and
    /// would trip the 2 % frequency trigger spuriously).
    pub fn run_with_collected_stats(
        &self,
        r: &Relation,
        s: &Relation,
        stats: &StatsSummary,
    ) -> nocap_storage::Result<JoinRunReport> {
        self.run_parallel_with_collected_stats(r, s, stats, 1)
    }

    /// [`run_with_collected_stats`](Self::run_with_collected_stats) with an
    /// observability channel.
    pub fn run_with_collected_stats_obs(
        &self,
        r: &Relation,
        s: &Relation,
        stats: &StatsSummary,
        obs: &Obs,
    ) -> nocap_storage::Result<JoinRunReport> {
        self.run_parallel_with_collected_stats_obs(r, s, stats, 1, obs)
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
        self.run_parallel(r, s, mcvs, 1)
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

    /// [`run`](Self::run) with graceful degradation: when `admission`
    /// cannot grant the spec's budget — or execution fails with
    /// [`OutOfMemory`](nocap_storage::StorageError::OutOfMemory) — the
    /// budget walks down the [`BudgetLadder`] (`B → ¾B → …`) and DHH
    /// re-runs with a smaller budget (more partitions spill, more passes),
    /// instead of failing. Every step is recorded in the returned
    /// [`DegradedRun`].
    pub fn run_degrading(
        &self,
        r: &Relation,
        s: &Relation,
        mcvs: &[(u64, u64)],
        admission: &BufferPool,
        ladder: &BudgetLadder,
    ) -> nocap_storage::Result<DegradedRun> {
        self.run_degrading_obs(r, s, mcvs, admission, ladder, &Obs::off())
    }

    /// The observed variant of [`run_degrading`](Self::run_degrading).
    pub fn run_degrading_obs(
        &self,
        r: &Relation,
        s: &Relation,
        mcvs: &[(u64, u64)],
        admission: &BufferPool,
        ladder: &BudgetLadder,
        obs: &Obs,
    ) -> nocap_storage::Result<DegradedRun> {
        nocap_model::run_degrading(admission, self.spec.buffer_pages, ladder, obs, |budget| {
            let degraded = DhhJoin::new(self.spec.with_buffer_pages(budget), self.config)
                .with_bloom(self.bloom);
            degraded.run_obs(r, s, mcvs, obs)
        })
    }

    /// Executes `r ⋈ s` on `threads` worker threads.
    ///
    /// `threads == 0` selects [`nocap_par::default_threads`] (the
    /// `NOCAP_THREADS` environment variable, falling back to the machine's
    /// parallelism). The result — output cardinality and the full per-phase
    /// modeled I/O trace — is **the same for every thread count**:
    ///
    /// * both scans claim page morsels from an atomic cursor
    ///   ([`PageMorsels`]); every page is claimed once, costing
    ///   `‖R‖ + ‖S‖` sequential reads;
    /// * R partitioning drives DHH's modulo router over a
    ///   [`ParallelStager`] with per-partition quotas ([`staging_quotas`]), so
    ///   the destaged partition set and per-partition spill page counts
    ///   depend only on each partition's total record count — never on scan
    ///   order or thread interleaving;
    /// * every spilled S partition has one spill file and one buffered
    ///   writer ([`SharedWriterSet`]); workers fill private output pages,
    ///   append them only when full, and the partial pages are merged
    ///   through the buffered writer before the partition window closes —
    ///   `⌈n / b⌉ − 1` pages in the partition window and one in the probe
    ///   window;
    /// * the spilled partition pairs are claimed from a work queue and
    ///   joined with [`smart_partition_join`], whose per-pair I/O is
    ///   independent of claim order.
    pub fn run_parallel(
        &self,
        r: &Relation,
        s: &Relation,
        mcvs: &[(u64, u64)],
        threads: usize,
    ) -> nocap_storage::Result<JoinRunReport> {
        self.run_parallel_obs(r, s, mcvs, threads, &Obs::off())
    }

    /// The executor body: [`run_parallel`](Self::run_parallel) with an
    /// observability channel. Main-thread phase spans (partition, spill,
    /// build, probe), spilled-partition skew histograms and the buffer-pool
    /// high-water mark flow into `obs` when recording, and every worker
    /// contributes a per-thread timeline (partition passes and claimed
    /// probe tasks). With `Obs::off()` the execution is byte-identical.
    pub fn run_parallel_obs(
        &self,
        r: &Relation,
        s: &Relation,
        mcvs: &[(u64, u64)],
        threads: usize,
        obs: &Obs,
    ) -> nocap_storage::Result<JoinRunReport> {
        let threads = resolve_threads(threads);
        let spec = &self.spec;
        let device = r.device().clone();
        let _io_trace = obs.attach_io(&device);
        let timer = obs.run_timer();
        let base = device.stats();
        let pool = BufferPool::new(spec.buffer_pages);
        let _io_pages = pool.reserve(2)?;

        // ---- Skew optimization: pick the keys pinned in memory -----------
        let skew_keys = self.select_skew_keys(mcvs, s.num_records() as u64);
        let skew_pages = spec.hash_table_pages(skew_keys.len());
        let _skew_reservation = pool.reserve(skew_pages.min(pool.available()))?;

        // ---- Partition R (Algorithm 1) ------------------------------------
        // Partition count and quotas are fixed before any record is routed:
        // the paper's `m_DHH` partitions, resident-first quotas over every
        // page that is left.
        let caps = staging_quotas(
            r.num_records().saturating_sub(skew_keys.len()),
            spec,
            pool.available(),
            StagingRouter::PlainHash {
                parts: spec.m_dhh(r.num_records()),
            },
        )
        .caps();
        // Make the quotas visible to the pool: one reservation per partition
        // of exactly its quota, together the staging budget.
        let quotas = pool.carve_quotas(&caps);

        let stager = ParallelStager::new(device.clone(), r.layout(), *spec, caps);
        let ht_shared = Mutex::new(JoinHashTable::new(r.layout(), spec.page_size, spec.fudge));
        let r_morsels = PageMorsels::new(r, threads);
        let r_partition_span = obs.span(Phase::Partition);
        let stages = run_workers_obs(threads, obs, Phase::Partition, |_w, _wobs| {
            let mut stage = stager.worker_stage();
            // Per-worker radix write buffers in front of the stager: cache
            // -line-sized runs per partition. Per-partition arrival order
            // within this worker is preserved and destaging depends only on
            // counts, so staged contents and the destaged set are unchanged.
            let mut router = RadixRouter::new(r.layout(), stager.num_partitions());
            r_morsels.scan(|page| {
                for rec in page.record_refs() {
                    if skew_keys.contains(&rec.key()) {
                        // R is the primary-key side: each skew key appears
                        // once in R, so this lock is cold.
                        lock_unpoisoned(&ht_shared).insert_ref(rec);
                    } else {
                        let p = (hash_key(rec.key()) % stager.num_partitions() as u64) as usize;
                        router.push(p, rec, &mut |p, r| stager.insert(&mut stage, p, r))?;
                    }
                }
                Ok(())
            })?;
            router.finish(&mut |p, r| stager.insert(&mut stage, p, r))?;
            Ok(stage)
        })?;
        drop(r_partition_span);
        let staged_pages = stager.pages_in_use();
        let mut build = {
            let _spill_span = obs.span(Phase::Spill);
            stager.finish(stages)?
        };
        // Adopt every spill handle as it is finished so any later error
        // deletes all spill files on unwind (deletion is not modeled I/O).
        let mut spill_guard = SpillGuard::new();
        spill_guard.adopt_all(build.spilled.iter().flatten().cloned());
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
        // The build side is complete: the quotas shrink to what the
        // partitions hold now — a resident partition's table, a destaged
        // one's output page — and the probe pre-filter takes its pages from
        // what that frees, so it never shifts the partition geometry; with
        // nothing freed the filter is skipped. Freeze the table for
        // vectorized probes and build the filter from its keys (multiset
        // -determined bits, hence thread-count invariant).
        drop(quotas);
        let _staged = pool.reserve(staged_pages.min(pool.available()))?;
        let bloom_reservation = self.bloom.reserve(&pool);
        ht_mem.seal();
        let bloom = self
            .bloom
            .build(&ht_mem, &bloom_reservation, spec.page_size);

        // ---- Partition / probe S (Algorithm 2) -----------------------------
        let s_writers = SharedWriterSet::new_masked(
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
        let (probe_counts, s_locals): (Vec<u64>, Vec<_>) =
            run_workers_obs(threads, obs, Phase::Partition, |_w, _wobs| {
                let mut output = 0u64;
                let mut s_out = s_writers.local();
                s_morsels.scan(|page| {
                    for rec in page.record_refs() {
                        // Bloom-negative keys take the identical
                        // `matches == 0` route (no false negatives), leaving
                        // routing and I/O unchanged.
                        let matches = if bloom_ref.as_ref().is_none_or(|b| b.may_contain(rec.key()))
                        {
                            ht_ref.probe_count(rec.key())
                        } else {
                            0
                        };
                        if matches > 0 {
                            output += matches;
                            continue;
                        }
                        let p = (hash_key(rec.key()) % pob.len() as u64) as usize;
                        if pob[p] {
                            s_out.push(p, rec)?;
                        }
                    }
                    Ok(())
                })?;
                Ok((output, s_out))
            })?
            .into_iter()
            .unzip();
        // Tail merge inside the partition window: afterwards every S writer
        // buffers exactly one partial page, which `finish_all` flushes in
        // the probe window.
        s_writers.merge(s_locals)?;
        drop(s_partition_span);
        let mut output: u64 = probe_counts.into_iter().sum();
        let partition_io = device.stats().since(&base);
        record_dhh_skew(obs, &build.spilled, &build.pob, staged_records);

        // ---- Probe the spilled partition pairs, fanned out ---------------
        let probe_base = device.stats();
        let probe_span = obs.span(Phase::Probe);
        let s_handles = s_writers.finish_all()?;
        spill_guard.adopt_all(s_handles.iter().flatten().cloned());
        let mut pairs: Vec<(PartitionHandle, PartitionHandle)> = Vec::new();
        for (maybe_r, maybe_s) in build.spilled.iter().zip(s_handles.iter()) {
            if let (Some(r_part), Some(s_part)) = (maybe_r, maybe_s) {
                pairs.push((r_part.clone(), s_part.clone()));
            }
        }
        output += sum_tasks_obs(threads, obs, Phase::Probe, pairs.len(), |i| {
            smart_partition_join(&pairs[i].0, &pairs[i].1, spec, 1)
        })?;
        drop(probe_span);
        let probe_io = device.stats().since(&probe_base);

        // Dropping the guard deletes every spill file (not counted as I/O).
        drop(spill_guard);

        obs.gauge_max("buffer_pool_peak_pages", pool.peak() as u64);
        let mut report = JoinRunReport::new("DHH");
        report.output_records = output;
        report.partition_io = partition_io;
        report.probe_io = probe_io;
        report.finish_run(timer, obs);
        Ok(report)
    }

    /// The sketch-driven path on `threads` workers: plan the skew
    /// optimization from a one-pass [`StatsSummary`] (see
    /// [`run_with_collected_stats`](Self::run_with_collected_stats)) and
    /// execute. Output and per-phase I/O are the same for every thread
    /// count.
    pub fn run_parallel_with_collected_stats(
        &self,
        r: &Relation,
        s: &Relation,
        stats: &StatsSummary,
        threads: usize,
    ) -> nocap_storage::Result<JoinRunReport> {
        self.run_parallel_with_collected_stats_obs(r, s, stats, threads, &Obs::off())
    }

    /// [`run_parallel_with_collected_stats`](Self::run_parallel_with_collected_stats)
    /// with an observability channel.
    pub fn run_parallel_with_collected_stats_obs(
        &self,
        r: &Relation,
        s: &Relation,
        stats: &StatsSummary,
        threads: usize,
        obs: &Obs,
    ) -> nocap_storage::Result<JoinRunReport> {
        self.run_parallel_obs(r, s, &stats.planner_mcvs(), threads, obs)
    }

    /// Chooses which MCV keys are pinned in the skew hash table.
    fn select_skew_keys(&self, mcvs: &[(u64, u64)], n_s: u64) -> HashSet<u64> {
        let mut selected = HashSet::new();
        if !self.config.skew_optimization || mcvs.is_empty() || n_s == 0 {
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

/// Records DHH's partition-skew profile on the observability channel: size
/// histograms over the destaged partitions plus staged/spilled counters.
/// The destaged partition set is fixed by the quota geometry, so the
/// recorded skew is identical for any thread count.
fn record_dhh_skew(
    obs: &Obs,
    spilled: &[Option<PartitionHandle>],
    pob: &[bool],
    staged_records: usize,
) {
    if !obs.is_recording() {
        return;
    }
    obs.values(
        "partition_records",
        spilled.iter().flatten().map(|h| h.records() as u64),
    );
    obs.values(
        "partition_pages",
        spilled.iter().flatten().map(|h| h.pages() as u64),
    );
    obs.count("partitions", pob.len() as u64);
    obs.count(
        "spilled_partitions",
        pob.iter().filter(|&&spilled| spilled).count() as u64,
    );
    obs.count("staged_records", staged_records as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_join_count;
    use crate::testutil::{build_workload, mcvs};
    use nocap_storage::{Record, SimDevice};

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
    fn matches_naive_join_skewed_with_and_without_skew_optimization() {
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
        let without_skew = DhhJoin::new(spec, DhhConfig::no_skew())
            .run(&r, &s, &stats)
            .unwrap();
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
            .run_with_collected_stats(&r, &s, &summary)
            .unwrap();
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
        // router, radix buffers, quota stager, as worker 0 of the executor
        // does — in two very different orders; the destaged set must not
        // change (that is the point of the quota port), and at one worker
        // the budget holds exactly after every insert.
        let run = |keys: &[u64]| {
            let device = SimDevice::new_ref();
            let caps = staging_quotas(2_000, &spec, budget, StagingRouter::PlainHash { parts });
            let stager = ParallelStager::new(device.clone(), spec.r_layout, spec, caps.caps());
            let mut stage = stager.worker_stage();
            let mut router = RadixRouter::new(spec.r_layout, parts);
            let mut insert = |p: usize, rec: nocap_storage::RecordRef<'_>| {
                stager.insert(&mut stage, p, rec)?;
                assert!(
                    stager.pages_in_use() <= budget,
                    "staged pages + spill buffers exceeded the budget"
                );
                Ok(())
            };
            for &k in keys {
                let rec = Record::with_fill(k, 120, 0);
                let p = (hash_key(k) % parts as u64) as usize;
                router.push(p, rec.as_record_ref(), &mut insert).unwrap();
            }
            router.finish(&mut insert).unwrap();
            let build = stager.finish(vec![stage]).unwrap();
            let spilled: usize = build.spilled.iter().flatten().map(|h| h.records()).sum();
            assert_eq!(spilled + build.staged_records.len(), keys.len());
            (build.pob, device.stats().total())
        };
        let forward: Vec<u64> = (0..2_000).collect();
        let mut shuffled = forward.clone();
        shuffled.sort_by_key(|&k| crate::testutil::mix(k));
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
    fn run_parallel_matches_run_without_the_skew_optimization() {
        let spec = JoinSpec::paper_synthetic(128, 24);
        let counts = |_k: u64| 3u64;
        let stats = mcvs(3_000, counts, 100);
        crate::testutil::assert_parallel_equivalence(
            "dhh/no-skew",
            &[1, 2, 4],
            || {
                let dev = SimDevice::new_ref();
                let (r, s) = build_workload(dev, &spec, 3_000, counts);
                DhhJoin::new(spec, DhhConfig::no_skew())
                    .run(&r, &s, &stats)
                    .unwrap()
            },
            |threads| {
                let dev = SimDevice::new_ref();
                let (r, s) = build_workload(dev, &spec, 3_000, counts);
                DhhJoin::new(spec, DhhConfig::no_skew())
                    .run_parallel(&r, &s, &stats, threads)
                    .unwrap()
            },
        );
    }

    #[test]
    fn run_parallel_zero_threads_selects_a_default_and_stays_correct() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 64);
        let counts = |k: u64| (k % 4) + 1;
        let (r, s) = build_workload(dev.clone(), &spec, 1_500, counts);
        let expected = naive_join_count(&r, &s).unwrap();
        dev.reset_stats();
        let report = DhhJoin::with_defaults(spec)
            .run_parallel(&r, &s, &mcvs(1_500, counts, 50), 0)
            .unwrap();
        assert_eq!(report.output_records, expected);
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
                    .run_with_collected_stats(&r, &s, &summary)
                    .unwrap()
            },
            |threads| {
                let (r, s, summary) = collect();
                r.device().reset_stats();
                DhhJoin::with_defaults(spec)
                    .run_parallel_with_collected_stats(&r, &s, &summary, threads)
                    .unwrap()
            },
        );
    }

    #[test]
    fn run_degrading_stays_correct_under_admission_pressure() {
        use nocap_model::BudgetLadder;
        use nocap_storage::BufferPool;
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 48);
        let counts = |k: u64| if k < 8 { 200 } else { 2 };
        let (r, s) = build_workload(dev.clone(), &spec, 2_000, counts);
        let expected = naive_join_count(&r, &s).unwrap();
        let stats = mcvs(2_000, counts, 100);
        let join = DhhJoin::with_defaults(spec);

        // 48 and 36 rejected by a 28-page admission pool; 27 runs.
        let tight = BufferPool::new(28);
        let degraded = join
            .run_degrading(&r, &s, &stats, &tight, &BudgetLadder::default())
            .unwrap();
        assert_eq!(degraded.budget_pages, 27);
        assert_eq!(degraded.steps(), 2);
        assert_eq!(degraded.report.output_records, expected);
        assert_eq!(tight.in_use(), 0);
    }

    #[test]
    fn skew_keys_only_selected_above_the_frequency_threshold() {
        let spec = JoinSpec::paper_synthetic(128, 100);
        let dhh = DhhJoin::new(
            spec,
            DhhConfig {
                skew_memory_fraction: 0.02,
                skew_frequency_threshold: 0.5,
                skew_optimization: true,
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
}
