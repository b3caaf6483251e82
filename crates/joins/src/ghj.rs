//! Grace Hash Join (GHJ).
//!
//! The textbook partitioning join: hash both relations into `B − 1`
//! partitions (one input page, one output-buffer page per partition), then
//! join each partition pair. If an R partition still does not fit the memory
//! budget the pair is either re-partitioned recursively or — following the
//! paper's augmentation — handed to chunk-wise NBJ when that is estimated to
//! be cheaper.
//!
//! [`GraceHashJoin::run_parallel_obs`] is the one executor body; `run` and
//! `run_obs` call it with one worker, at which the `nocap-par` fan-outs
//! spawn nothing and the join runs on the calling thread (a panic inside a
//! scan or probe task then comes back as `StorageError::WorkerPanicked`,
//! because worker 0 runs under the pool's `catch_unwind` too). Output and
//! per-phase modeled I/O are the same for every thread count — checked-in
//! numbers in `tests/parallel_determinism.rs`.

use nocap_model::classic_cost::{best_partition_join, PartitionJoinMethod};
use nocap_model::pairwise::{nbj_partition_join_filtered, repartition};
use nocap_model::{JoinRunReport, JoinSpec, ProbeBloom};
use nocap_obs::{Obs, Phase};
use nocap_par::{resolve_threads, run_workers_obs, sum_tasks, PageMorsels, SharedWriterSet};
use nocap_storage::hash::{level_seed_salted, mix64_seeded};
use nocap_storage::{BufferPool, IoKind, JoinHashTable, PartitionHandle, Relation, SpillGuard};

/// Grace Hash Join executor.
#[derive(Debug, Clone, Copy)]
pub struct GraceHashJoin {
    spec: JoinSpec,
    /// Maximum recursive partitioning depth before unconditionally falling
    /// back to NBJ (a safety valve, 3 matches any realistic budget).
    max_depth: u32,
    /// Probe-side Bloom pre-filter for the partition-pair NBJs (on by
    /// default; a pure CPU optimization — output and modeled I/O are
    /// unchanged).
    bloom: ProbeBloom,
}

impl GraceHashJoin {
    /// Creates a GHJ operator with the given spec.
    pub fn new(spec: JoinSpec) -> Self {
        GraceHashJoin {
            spec,
            max_depth: 3,
            bloom: ProbeBloom::default(),
        }
    }

    /// Overrides the probe-side Bloom pre-filter knob.
    pub fn with_bloom(mut self, bloom: ProbeBloom) -> Self {
        self.bloom = bloom;
        self
    }

    /// Executes `r ⋈ s` on the calling thread
    /// ([`run_parallel`](Self::run_parallel) with one worker).
    pub fn run(&self, r: &Relation, s: &Relation) -> nocap_storage::Result<JoinRunReport> {
        self.run_parallel(r, s, 1)
    }

    /// [`run`](Self::run) with observability
    /// ([`run_parallel_obs`](Self::run_parallel_obs) with one worker).
    pub fn run_obs(
        &self,
        r: &Relation,
        s: &Relation,
        obs: &Obs,
    ) -> nocap_storage::Result<JoinRunReport> {
        self.run_parallel_obs(r, s, 1, obs)
    }

    /// Executes `r ⋈ s` on `threads` worker threads.
    ///
    /// GHJ's static hash partitioning has no order-dependent state at all,
    /// so it is the textbook case for the `nocap-par` machinery: workers
    /// claim page morsels of each relation ([`PageMorsels`]) and route
    /// every record into a private output page per partition, appended to
    /// the partition's one spill file only when full; the partial pages are
    /// merged through the partition's buffered writer
    /// ([`SharedWriterSet`]), so each partition writes `⌈n / b⌉` pages. The
    /// private page already is a per-partition write buffer, so no
    /// `RadixRouter` sits in front of it. Then the partition pairs are
    /// claimed from a work queue. Output and the full I/O trace are the
    /// same for every thread count; `threads == 0` selects
    /// [`nocap_par::default_threads`]. Physical memory outside the budget:
    /// one page per worker per partition, `threads × (B − 1)` pages — at
    /// one worker too, next to the `B − 1` writer pages the model charges.
    pub fn run_parallel(
        &self,
        r: &Relation,
        s: &Relation,
        threads: usize,
    ) -> nocap_storage::Result<JoinRunReport> {
        self.run_parallel_obs(r, s, threads, &Obs::off())
    }

    /// The executor body: [`run_parallel`](Self::run_parallel) with
    /// observability — phase spans, per-worker scan spans, per-task probe
    /// spans and partition skew histograms, recorded without touching
    /// routing or claim order.
    pub fn run_parallel_obs(
        &self,
        r: &Relation,
        s: &Relation,
        threads: usize,
        obs: &Obs,
    ) -> nocap_storage::Result<JoinRunReport> {
        let threads = resolve_threads(threads);
        let spec = &self.spec;
        let device = r.device().clone();
        let _io_trace = obs.attach_io(&device);
        let timer = obs.run_timer();
        let base = device.stats();

        let num_partitions = spec.buffer_pages.saturating_sub(1).max(2);
        let pool = BufferPool::new(spec.buffer_pages);
        let _input_page = pool.reserve(1)?;
        let _output_buffers = pool.reserve(num_partitions.min(pool.available()))?;

        let partition = |relation: &Relation| -> nocap_storage::Result<Vec<PartitionHandle>> {
            let writers = SharedWriterSet::new(
                device.clone(),
                relation.layout(),
                spec.page_size,
                IoKind::RandWrite,
                num_partitions,
            );
            let morsels = PageMorsels::new(relation, threads);
            let locals = run_workers_obs(threads, obs, Phase::Partition, |_w, _wobs| {
                let mut out = writers.local();
                morsels.scan(|page| {
                    for rec in page.record_refs() {
                        let p = (mix64_seeded(rec.key(), level_seed_salted(0))
                            % num_partitions as u64) as usize;
                        out.push(p, rec)?;
                    }
                    Ok(())
                })?;
                Ok(out)
            })?;
            writers.merge(locals)?;
            writers.finish_dense()
        };
        // Adopt each relation's partitions as they finish so a failure while
        // partitioning S or probing deletes R's files too.
        let mut spill_guard = SpillGuard::new();
        let partition_span = obs.span(Phase::Partition);
        let r_parts = partition(r)?;
        spill_guard.adopt_all(r_parts.iter().cloned());
        let s_parts = partition(s)?;
        spill_guard.adopt_all(s_parts.iter().cloned());
        drop(partition_span);
        let partition_io = device.stats().since(&base);
        record_ghj_skew(obs, &r_parts, &s_parts);

        // The per-chunk probe filters are charged to the pool for the whole
        // probe phase; an exhausted pool turns the filter off instead of
        // failing.
        let bloom_reservation = self.bloom.reserve(&pool);
        let bloom_cfg = clamp_bloom(&self.bloom, &bloom_reservation);
        let probe_base = device.stats();
        let probe_span = obs.span(Phase::Probe);
        let output = sum_tasks(threads, obs, Phase::Probe, r_parts.len(), |i| {
            self.join_pair(&r_parts[i], &s_parts[i], &bloom_cfg, 1)
        })?;
        drop(probe_span);
        let probe_io = device.stats().since(&probe_base);

        // Dropping the guard deletes every spill file (not counted as I/O).
        drop(spill_guard);

        obs.gauge_max("buffer_pool_peak_pages", pool.peak() as u64);
        let mut report = JoinRunReport::new("GHJ");
        report.output_records = output;
        report.partition_io = partition_io;
        report.probe_io = probe_io;
        report.finish_run(timer, obs);
        Ok(report)
    }

    /// Joins one partition pair, re-partitioning recursively when that is
    /// estimated to be cheaper than chunk-wise NBJ.
    fn join_pair(
        &self,
        r_part: &PartitionHandle,
        s_part: &PartitionHandle,
        bloom: &ProbeBloom,
        depth: u32,
    ) -> nocap_storage::Result<u64> {
        let spec = &self.spec;
        if r_part.is_empty() || s_part.is_empty() {
            return Ok(0);
        }
        let fits =
            JoinHashTable::pages_for(r_part.records(), spec.r_layout, spec.page_size, spec.fudge)
                + 2
                <= spec.buffer_pages;
        if fits || depth > self.max_depth {
            return nbj_partition_join_filtered(r_part, s_part, spec, bloom, |_, _| {});
        }
        // The partition is still too large: recurse only if the light
        // optimizer estimates another partitioning pass to be cheaper than
        // NBJ.
        let (method, _) = best_partition_join(r_part.pages(), s_part.pages(), spec);
        if method == PartitionJoinMethod::Nbj {
            return nbj_partition_join_filtered(r_part, s_part, spec, bloom, |_, _| {});
        }
        let num_partitions = spec.buffer_pages.saturating_sub(1).max(2);
        // Fail-clean recursion: the sub-partitions are deleted when the
        // guard drops, whether the nested joins succeed or not.
        let mut guard = SpillGuard::new();
        // Level `depth` of GHJ's own recursion: a hash independent of the
        // one that produced this partition (level 0, the relation pass).
        let seed = level_seed_salted(depth);
        let r_sub = repartition(r_part, spec, num_partitions, seed)?;
        guard.adopt_all(r_sub.iter().cloned());
        let s_sub = repartition(s_part, spec, num_partitions, seed)?;
        guard.adopt_all(s_sub.iter().cloned());
        let mut output = 0u64;
        for (rp, sp) in r_sub.iter().zip(s_sub.iter()) {
            output += self.join_pair(rp, sp, bloom, depth + 1)?;
        }
        Ok(output)
    }
}

/// Clamps the probe-filter page budget to what was actually reserved; a
/// missing reservation turns the filter off.
fn clamp_bloom(bloom: &ProbeBloom, reservation: &Option<nocap_storage::Reservation>) -> ProbeBloom {
    match reservation {
        Some(res) => ProbeBloom::with_pages(bloom.pages.min(res.pages())),
        None => ProbeBloom::off(),
    }
}

/// Records GHJ's first-level partition fan-out histograms (both sides).
fn record_ghj_skew(obs: &Obs, r_parts: &[PartitionHandle], s_parts: &[PartitionHandle]) {
    if !obs.is_recording() {
        return;
    }
    obs.values(
        "partition_records",
        r_parts.iter().map(|h| h.records() as u64),
    );
    obs.values("partition_pages", r_parts.iter().map(|h| h.pages() as u64));
    obs.values(
        "s_partition_records",
        s_parts.iter().map(|h| h.records() as u64),
    );
    obs.count("partitions", r_parts.len() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_join_count;
    use crate::testutil::build_workload;
    use nocap_storage::SimDevice;

    #[test]
    fn matches_naive_join_uniform() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 24);
        let counts = |_k: u64| 3u64;
        let (r, s) = build_workload(dev.clone(), &spec, 2_000, counts);
        let expected = naive_join_count(&r, &s).unwrap();
        dev.reset_stats();
        let report = GraceHashJoin::new(spec).run(&r, &s).unwrap();
        assert_eq!(report.output_records, expected);
    }

    #[test]
    fn matches_naive_join_skewed() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 32);
        let counts = |k: u64| if k < 10 { 150 } else { 1 };
        let (r, s) = build_workload(dev.clone(), &spec, 1_500, counts);
        let expected = naive_join_count(&r, &s).unwrap();
        dev.reset_stats();
        let report = GraceHashJoin::new(spec).run(&r, &s).unwrap();
        assert_eq!(report.output_records, expected);
    }

    #[test]
    fn partition_phase_writes_both_relations_once() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(256, 32);
        let counts = |_k: u64| 2u64;
        let (r, s) = build_workload(dev.clone(), &spec, 3_000, counts);
        dev.reset_stats();
        let report = GraceHashJoin::new(spec).run(&r, &s).unwrap();
        // Every record of R and S is written to some partition exactly once
        // (partition page counts may add a page of slack per partition).
        let writes = report.partition_io.writes() as usize;
        let min_expected = r.num_pages() + s.num_pages();
        assert!(writes >= min_expected);
        assert!(
            writes <= min_expected + 2 * (spec.buffer_pages - 1),
            "writes {writes} exceed one page of slack per partition"
        );
        // And those writes are random writes (μ-weighted in the cost model).
        assert_eq!(report.partition_io.seq_writes, 0);
    }

    #[test]
    fn parallel_ghj_matches_sequential_io_and_output() {
        let spec = JoinSpec::paper_synthetic(128, 32);
        let counts = |k: u64| if k < 12 { 120 } else { 2 };
        let dev = SimDevice::new_ref();
        let (r, s) = build_workload(dev.clone(), &spec, 2_000, counts);
        dev.reset_stats();
        let sequential = GraceHashJoin::new(spec).run(&r, &s).unwrap();
        for threads in [1usize, 2, 4] {
            let dev = SimDevice::new_ref();
            let (r, s) = build_workload(dev.clone(), &spec, 2_000, counts);
            dev.reset_stats();
            let parallel = GraceHashJoin::new(spec)
                .run_parallel(&r, &s, threads)
                .unwrap();
            assert_eq!(parallel.output_records, sequential.output_records);
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
    fn ghj_costs_more_io_than_nbj_when_r_fits_in_memory() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 512);
        let counts = |_k: u64| 2u64;
        let (r, s) = build_workload(dev.clone(), &spec, 1_000, counts);
        dev.reset_stats();
        let ghj = GraceHashJoin::new(spec).run(&r, &s).unwrap();
        dev.reset_stats();
        let nbj = crate::nbj::NestedBlockJoin::new(spec).run(&r, &s).unwrap();
        assert_eq!(ghj.output_records, nbj.output_records);
        assert!(
            ghj.total_ios() > nbj.total_ios(),
            "partitioning is wasted work when R fits in memory"
        );
    }
}
