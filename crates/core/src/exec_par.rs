//! Multi-threaded NOCAP execution: `run_parallel`.
//!
//! The partitioning passes of Algorithms 8 and 9 route each record
//! independently, so [`NocapJoin::run_parallel`] spreads both scans over a
//! worker pool (`nocap-par`) and fans the partition-wise probe phase out
//! over the spilled partition pairs. The engine is built so that, for
//! every thread count, it produces **the same join output and the same
//! modeled I/O trace** as the sequential [`NocapJoin::run_with_plan`]:
//!
//! * Workers claim page morsels from an atomic cursor ([`PageMorsels`]);
//!   every page is claimed once, so the base scans cost exactly
//!   `‖R‖ + ‖S‖` sequential reads, and a slow worker claims fewer morsels
//!   instead of holding the phase up.
//! * Every spill partition keeps **one** spill file and one buffered
//!   writer ([`SharedWriterSet`]). Workers fill private output pages and
//!   append them to the file only when full; the partial pages are merged
//!   through the buffered writer before the phase's I/O snapshot. A
//!   partition receiving `n` records therefore has `⌈n / b⌉ − 1` pages on
//!   the device when the partition window closes and `finish` writes one
//!   more — the sequential writer's counts in the sequential executor's
//!   windows, regardless of arrival order (identity in `nocap_par::shard`).
//! * Residual destaging uses the deterministic per-partition quotas of
//!   [`RestGeometry`](crate::exec::RestGeometry): a partition's page-out
//!   bit depends only on its total record count, never on interleaving.
//! * The probe phase joins the same partition pairs with the same
//!   [`smart_partition_join`]; each pair's I/O is independent of the order
//!   pairs are claimed from the work queue.
//!
//! During the partitioning phases memory stays inside the same §4.1
//! budget: the pool reserves the two streaming pages and the plan's fixed
//! structures exactly as the sequential path does, and the residual budget
//! is carved into per-partition quotas whose reservations are visible in
//! the pool. Three knowing simplifications, all physical memory the model
//! does not charge: each worker holds one transient scan-buffer page (the
//! model charges one logical input page for the pipeline, as the paper
//! does); each worker holds one private output page per spill partition it
//! has routed a record to, next to the one output-buffer page per
//! partition the model charges — at most `threads × m` pages for `m` spill
//! partitions (≤ 1.3 MB at 2 threads on the benchmark's `zipf_par2`); and
//! the fanned-out probe phase runs up to `threads` partition-pair NBJs
//! concurrently, each with the `B − 2`-page chunk the cost model
//! prescribes — peak physical probe memory is `threads × B` pages even
//! though the modeled I/O is unchanged. Use fewer threads when physical
//! memory, not I/O, is the binding constraint.

use std::sync::Mutex;

use nocap_model::pairwise::smart_partition_join;
use nocap_model::JoinRunReport;
use nocap_obs::{Obs, Phase};
use nocap_par::{run_workers_obs, sum_tasks_obs, PageMorsels, ParallelStager, SharedWriterSet};
use nocap_stats::StatsCollector;
use nocap_storage::{
    into_inner_unpoisoned, lock_unpoisoned, BufferPool, IoKind, JoinHashTable, PartitionHandle,
    RadixRouter, Relation, Reservation, SpillGuard,
};

use crate::exec::{record_partition_skew, NocapJoin, RestGeometry};
use crate::plan::NocapPlan;
use crate::planner::plan_nocap;

impl NocapJoin {
    /// Plans and executes the join of `r ⋈ s` on `threads` worker threads.
    ///
    /// `threads == 0` selects [`nocap_par::default_threads`] (the
    /// `NOCAP_THREADS` environment variable, falling back to the machine's
    /// parallelism). For every thread count the result — output cardinality
    /// and the full per-phase I/O trace — is identical to [`NocapJoin::run`].
    pub fn run_parallel(
        &self,
        r: &Relation,
        s: &Relation,
        mcvs: &[(u64, u64)],
        threads: usize,
    ) -> nocap_storage::Result<JoinRunReport> {
        self.run_parallel_obs(r, s, mcvs, threads, &Obs::off())
    }

    /// [`run_parallel`](Self::run_parallel) with observability — see
    /// [`run_obs`](Self::run_obs). Worker scans and probe tasks additionally
    /// record per-worker timeline spans.
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
            self.spec(),
            &self.config().planner,
        );
        self.run_parallel_with_plan_obs(r, s, &plan, threads, obs)
    }

    /// Plans from a one-pass sketch summary and executes on `threads`
    /// worker threads — the parallel twin of
    /// [`run_with_collected_stats`](Self::run_with_collected_stats)
    /// (identical plan, since the summary is the same artifact; identical
    /// output and per-phase I/O for every thread count).
    pub fn run_parallel_with_collected_stats(
        &self,
        r: &Relation,
        s: &Relation,
        stats: &nocap_stats::StatsSummary,
        threads: usize,
    ) -> nocap_storage::Result<JoinRunReport> {
        self.run_parallel_with_collected_stats_obs(r, s, stats, threads, &Obs::off())
    }

    /// The observed variant of
    /// [`run_parallel_with_collected_stats`](Self::run_parallel_with_collected_stats).
    pub fn run_parallel_with_collected_stats_obs(
        &self,
        r: &Relation,
        s: &Relation,
        stats: &nocap_stats::StatsSummary,
        threads: usize,
        obs: &Obs,
    ) -> nocap_storage::Result<JoinRunReport> {
        let mcvs = stats.planner_mcvs();
        let plan = plan_nocap(
            &mcvs,
            r.num_records(),
            stats.stream_len(),
            self.spec(),
            &self.config().planner,
        );
        self.run_parallel_with_plan_obs(r, s, &plan, threads, obs)
    }

    /// The fully self-contained multi-threaded pipeline: sharded sketch
    /// collection over S ([`StatsCollector::collect_parallel_with_budget`]),
    /// planning from the summary alone, and parallel execution — every
    /// stage on `threads` workers.
    ///
    /// Because the sharded collector's summary is bit-identical for every
    /// thread count, the plan — and therefore the executor's output *and*
    /// per-phase modeled I/O — is identical to the sequential
    /// [`collect_and_run`](Self::collect_and_run) for every `threads`,
    /// including the statistics scan itself (each page of S is read exactly
    /// once). `stats_pages` is the per-shard-collector budget, as in
    /// `collect_and_run`.
    pub fn collect_and_run_parallel(
        &self,
        r: &Relation,
        s: &Relation,
        stats_pages: usize,
        threads: usize,
    ) -> nocap_storage::Result<JoinRunReport> {
        self.collect_and_run_parallel_obs(r, s, stats_pages, threads, &Obs::off())
    }

    /// The observed variant of
    /// [`collect_and_run_parallel`](Self::collect_and_run_parallel): the
    /// sharded sketch pass records a `stats` phase span and per-shard worker
    /// spans into the same trace as the join.
    pub fn collect_and_run_parallel_obs(
        &self,
        r: &Relation,
        s: &Relation,
        stats_pages: usize,
        threads: usize,
        obs: &Obs,
    ) -> nocap_storage::Result<JoinRunReport> {
        // Attach before the sketch pass so stats-phase reads land in the
        // same I/O trace as the join; the inner attach in
        // `run_parallel_with_plan_obs` nests onto this one.
        let _io_trace = obs.attach_io(s.device());
        let pool = BufferPool::new(self.spec().buffer_pages);
        let summary = StatsCollector::collect_parallel_with_budget_obs(
            &pool,
            stats_pages,
            self.spec().page_size,
            s,
            threads,
            obs,
        )?;
        drop(pool);
        self.run_parallel_with_collected_stats_obs(r, s, &summary, threads, obs)
    }

    /// Executes a pre-computed plan on `threads` worker threads (see
    /// [`run_parallel`](Self::run_parallel)).
    pub fn run_parallel_with_plan(
        &self,
        r: &Relation,
        s: &Relation,
        plan: &NocapPlan,
        threads: usize,
    ) -> nocap_storage::Result<JoinRunReport> {
        self.run_parallel_with_plan_obs(r, s, plan, threads, &Obs::off())
    }

    /// [`run_parallel_with_plan`](Self::run_parallel_with_plan) with
    /// observability: main-thread phase spans around each pass, per-worker
    /// scan spans, per-task probe spans, partition skew histograms and the
    /// buffer-pool high-water gauge. Recording never influences routing,
    /// destaging or claim order — clocks stay in the obs channel.
    pub fn run_parallel_with_plan_obs(
        &self,
        r: &Relation,
        s: &Relation,
        plan: &NocapPlan,
        threads: usize,
        obs: &Obs,
    ) -> nocap_storage::Result<JoinRunReport> {
        let threads = if threads == 0 {
            nocap_par::default_threads()
        } else {
            threads
        };
        let spec = *self.spec();
        let device = r.device().clone();
        let _io_trace = obs.attach_io(&device);
        let pool = BufferPool::new(spec.buffer_pages);
        // Identical budget breakdown to the sequential path: one streaming
        // input page, one output page, then the plan's fixed structures.
        let _io_pages = pool.reserve(2)?;
        let _fixed = pool.reserve(plan.fixed_memory_pages(&spec).min(pool.available()))?;
        let rest_budget = pool.available();
        // Reserve the probe-side bloom *after* reading the residual budget
        // (so geometry matches the sequential path) and *before* the quota
        // carving below consumes every remaining page. Both executors read
        // the same `pool.available()` here, so the filter is sized
        // identically and its bits depend only on the staged key multiset —
        // thread-count invariant.
        let bloom_reservation = self.config().bloom.reserve(&pool);

        let timer = obs.run_timer();
        let base_stats = device.stats();

        let mem_set = plan.mem_key_set();
        let disk_map = plan.disk_map();
        let m_disk = plan.num_designated();

        let geometry = RestGeometry::new(
            &spec,
            rest_budget,
            plan.estimated_rest_keys,
            self.config().planner.rh_params,
        );
        // Make the quota carving visible to the pool: one reservation per
        // residual partition, together covering exactly the residual budget
        // (the same even split as `geometry.caps`).
        let _quotas: Vec<Reservation> = pool.carve_remaining(geometry.num_partitions());

        // ---- Phase 1: partition R (Algorithm 8, sharded) -----------------
        let stager = ParallelStager::new(device.clone(), r.layout(), spec, geometry.caps.clone());
        let r_disk = SharedWriterSet::new(
            device.clone(),
            r.layout(),
            spec.page_size,
            IoKind::RandWrite,
            m_disk,
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
                let mut router = RadixRouter::new(r.layout(), geometry.num_partitions());
                r_morsels.scan(|page| {
                    for rec in page.record_refs() {
                        if mem_set.contains(&rec.key()) {
                            // R is the primary-key side: cached keys are rare,
                            // so this lock is cold.
                            lock_unpoisoned(&ht_shared).insert_ref(rec);
                        } else if let Some(&pid) = disk_map.get(&rec.key()) {
                            r_disk_out.push(pid as usize, rec)?;
                        } else {
                            let p = geometry.rh.partition_of(rec.key());
                            router.push(p, rec, &mut |p, r| stager.insert(&mut stage, p, r))?;
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
        let rest_build = stager.finish(stages)?;
        // As in the sequential executor: every finished spill handle is
        // adopted immediately, so any later error deletes all spill files.
        let mut spill_guard = SpillGuard::new();
        spill_guard.adopt_all(rest_build.spilled.iter().flatten().cloned());
        r_disk.merge(r_disk_locals)?;
        let r_disk_handles = r_disk.finish_dense()?;
        spill_guard.adopt_all(r_disk_handles.iter().cloned());
        drop(spill_span);
        let mut ht_mem = into_inner_unpoisoned(ht_shared);
        {
            let _build_span = obs.span(Phase::Build);
            for rec in rest_build.staged_records.iter() {
                ht_mem.insert_ref(rec);
            }
        }
        // Freeze the completed build side for vectorized probes and build
        // the probe pre-filter from its keys (order-invariant bit contents).
        ht_mem.seal();
        let bloom = self
            .config()
            .bloom
            .build(&ht_mem, &bloom_reservation, spec.page_size);

        // ---- Phase 2: partition / probe S (Algorithm 9, sharded) ---------
        let s_disk = SharedWriterSet::new(
            device.clone(),
            s.layout(),
            spec.page_size,
            IoKind::RandWrite,
            m_disk,
        );
        let s_rest = SharedWriterSet::new_masked(
            device.clone(),
            s.layout(),
            spec.page_size,
            IoKind::RandWrite,
            &rest_build.pob,
        );
        let s_morsels = PageMorsels::new(s, threads);
        let ht_ref = &ht_mem;
        let bloom_ref = &bloom;
        let pob = &rest_build.pob;
        let s_partition_span = obs.span(Phase::Partition);
        let s_workers = run_workers_obs(threads, obs, Phase::Partition, |_w, _wobs| {
            let mut output = 0u64;
            let mut s_disk_out = s_disk.local();
            let mut s_rest_out = s_rest.local();
            s_morsels.scan(|page| {
                for rec in page.record_refs() {
                    if let Some(&pid) = disk_map.get(&rec.key()) {
                        s_disk_out.push(pid as usize, rec)?;
                        continue;
                    }
                    // Bloom-negative keys take the identical `matches == 0`
                    // route (no false negatives), so routing and modeled
                    // I/O match the filterless run bit for bit.
                    let matches = if bloom_ref.as_ref().is_none_or(|b| b.may_contain(rec.key())) {
                        ht_ref.probe_count(rec.key())
                    } else {
                        0
                    };
                    if matches > 0 {
                        output += matches;
                        continue;
                    }
                    let part = geometry.rh.partition_of(rec.key());
                    if pob[part] {
                        s_rest_out.push(part, rec)?;
                    }
                    // else: the partition stayed in memory and the key had
                    // no match.
                }
                Ok(())
            })?;
            Ok((output, s_disk_out, s_rest_out))
        })?;
        // Tail merge inside the partition window: afterwards every S writer
        // buffers exactly the one partial page the sequential executor
        // flushes in the probe window.
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
        record_partition_skew(
            obs,
            &r_disk_handles,
            rest_build.spilled.iter().flatten(),
            rest_build.pob.len(),
        );

        // ---- Phase 3: partition-wise joins, fanned out -------------------
        // Partial output-buffer pages flush inside this window, exactly
        // where the sequential executor flushes them.
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
        for (maybe_r, maybe_s) in rest_build.spilled.iter().zip(s_rest_handles.iter()) {
            if let (Some(r_part), Some(s_part)) = (maybe_r, maybe_s) {
                pairs.push((r_part.clone(), s_part.clone()));
            }
        }
        output += sum_tasks_obs(threads, obs, Phase::Probe, pairs.len(), |i| {
            smart_partition_join(&pairs[i].0, &pairs[i].1, &spec, 1)
        })?;
        drop(probe_span);
        let probe_io = device.stats().since(&probe_base);

        // Dropping the guard deletes every spill file (not counted as I/O).
        drop(spill_guard);

        obs.gauge_max("buffer_pool_peak_pages", pool.peak() as u64);
        let mut report = JoinRunReport::new("NOCAP");
        report.output_records = output;
        report.partition_io = partition_io;
        report.probe_io = probe_io;
        report.finish_run(timer, obs);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::NocapConfig;
    use nocap_model::JoinSpec;
    use nocap_storage::{Record, RecordLayout, SimDevice};

    /// Builds a deterministic workload on a fresh device: R holds keys
    /// `0..n_r`, S holds `counts(k)` records per key, shuffled.
    fn build(
        n_r: u64,
        counts: impl Fn(u64) -> u64,
        spec: &JoinSpec,
    ) -> (Relation, Relation, Vec<(u64, u64)>) {
        let device = SimDevice::new_ref();
        let payload = spec.r_layout.payload_bytes();
        let r = Relation::bulk_load(
            device.clone(),
            spec.r_layout,
            spec.page_size,
            (0..n_r).map(|k| Record::with_fill(k, payload, 1)),
        )
        .unwrap();
        let mut s_keys: Vec<u64> = Vec::new();
        for k in 0..n_r {
            for _ in 0..counts(k) {
                s_keys.push(k);
            }
        }
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
        device.reset_stats();
        (r, s, mcv)
    }

    fn layout_of(spec: &JoinSpec) -> RecordLayout {
        spec.r_layout
    }

    #[test]
    fn parallel_matches_sequential_io_and_output_exactly() {
        let spec = JoinSpec::paper_synthetic(128, 48);
        let counts = |k: u64| if k < 8 { 250 } else { 2 };
        let join = NocapJoin::new(spec, NocapConfig::default());
        let _ = layout_of(&spec);

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
        // collect_and_run_parallel(n) must reproduce collect_and_run (its
        // n = 1 instance) exactly: the sharded summary is thread-count
        // invariant, so the plan, the output and the per-phase I/O all are.
        let spec = JoinSpec::paper_synthetic(128, 48);
        let counts = |k: u64| if k < 12 { 180 } else { 3 };
        let join = NocapJoin::new(spec, NocapConfig::default());
        let (r, s, _) = build(2_500, counts, &spec);
        let sequential = join.collect_and_run(&r, &s, 4).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let (r, s, _) = build(2_500, counts, &spec);
            let parallel = join.collect_and_run_parallel(&r, &s, 4, threads).unwrap();
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
        let report = join.collect_and_run_parallel(&r, &s, 4, 4).unwrap();
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
