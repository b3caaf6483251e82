//! Grace Hash Join (GHJ).
//!
//! The textbook partitioning join: hash both relations into `m = B − 1`
//! partitions (one input page, one output-buffer page per partition), then
//! join each partition pair. If an R partition still does not fit the memory
//! budget the pair is either re-partitioned recursively or — following the
//! paper's augmentation — handed to chunk-wise NBJ when that is estimated to
//! be cheaper.
//!
//! The paper describes GHJ as the hybrid hash join that keeps nothing
//! resident — HHJ degenerates to it below `√(F·‖R‖)` (§2.1,
//! [`JoinSpec::hhj_memory_threshold`]). Here that is literal: GHJ is a
//! [`HybridPlan`] for [`nocap_par::hybrid_hash_join`], the body NOCAP, DHH
//! and Histojoin run, with nothing cached and every key routed to
//! partition `mix64(key) mod m` of `m` quota-0 partitions — each destaged
//! by its first R record, so nothing is ever staged. It declares all of
//! `B` — one input page and `m` output pages, as no table answers an S
//! record — and B must hold a pair join too. Every partition pair goes
//! through [`nocap_model::pairwise::smart_partition_join`], the light
//! optimizer the other hash joins run; the passes, the thread-count
//! invariance of output and per-phase modeled I/O, and the physical memory
//! outside the model are documented on the body.

use nocap_model::pairwise::PAIR_JOIN_PAGES;
use nocap_model::{JoinRunReport, JoinSpec};
use nocap_obs::Obs;
use nocap_par::{hybrid_hash_join, HybridPlan, Route};
use nocap_storage::hash::mix64;
use nocap_storage::Relation;

/// Grace Hash Join executor.
#[derive(Debug, Clone, Copy)]
pub struct GraceHashJoin {
    spec: JoinSpec,
}

impl GraceHashJoin {
    /// Creates a GHJ operator with the given spec.
    pub fn new(spec: JoinSpec) -> Self {
        GraceHashJoin { spec }
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

    /// Executes `r ⋈ s` on `threads` worker threads (`0` runs as one, see
    /// [`nocap_par::ordered_tasks`]); output and the full per-phase I/O
    /// trace are the same for every thread count.
    pub fn run_parallel(
        &self,
        r: &Relation,
        s: &Relation,
        threads: usize,
    ) -> nocap_storage::Result<JoinRunReport> {
        self.run_parallel_obs(r, s, threads, &Obs::off())
    }

    /// [`run_parallel`](Self::run_parallel) with observability — the
    /// method every other entry point ends in: GHJ's plan handed to
    /// [`hybrid_hash_join`].
    ///
    /// # Panics
    ///
    /// Panics if `r` and `s` live on two devices ([`hybrid_hash_join`]).
    pub fn run_parallel_obs(
        &self,
        r: &Relation,
        s: &Relation,
        threads: usize,
        obs: &Obs,
    ) -> nocap_storage::Result<JoinRunReport> {
        self.spec.pages_left(PAIR_JOIN_PAGES)?;
        let m = self.spec.buffer_pages - 1;
        let plan = HybridPlan {
            label: "GHJ",
            fixed_pages: 0,
            quotas: vec![0; m],
            route: |key: u64| Route::Partition((mix64(key) % m as u64) as usize),
        };
        // Nothing is cached or staged, so the table stays empty and the S
        // pass routes every record without probing it.
        hybrid_hash_join(&self.spec, r, s, plan, threads, obs)
    }
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
    #[should_panic(expected = "R and S must live on one device")]
    fn inputs_on_two_devices_panic() {
        let spec = JoinSpec::paper_synthetic(128, 16);
        let (r, _) = build_workload(SimDevice::new_ref(), &spec, 100, |_| 1);
        let (_, s) = build_workload(SimDevice::new_ref(), &spec, 100, |_| 1);
        let _ = GraceHashJoin::new(spec).run(&r, &s);
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
        // over the whole run (partition page counts may add a page of slack
        // per partition); nothing recurses at this budget, so the only
        // writes of the probe window are the S partitions' last pages, one
        // per non-empty partition.
        let m = spec.buffer_pages - 1;
        let writes = report.total_io().writes() as usize;
        let min_expected = r.num_pages() + s.num_pages();
        assert!(writes >= min_expected);
        assert!(
            writes <= min_expected + 2 * m,
            "writes {writes} exceed one page of slack per partition"
        );
        assert!(report.probe_io.writes() as usize <= m);
        // And those writes are random writes (μ-weighted in the cost model).
        assert_eq!(report.total_io().seq_writes, 0);
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
