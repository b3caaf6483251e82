//! One-pass statistics collection under a page budget.
//!
//! [`StatsCollector`] owns the one sketch the planner reads — SpaceSaving —
//! beside the exact stream length and key range, and feeds every observed
//! join key to all three. Its memory is sized from a **page budget**
//! ([`StatsConfig::for_budget_pages`]), and the pass a join runs,
//! [`StatsCollector::collect_parallel_with_budget`], refuses up front to
//! hold more shard sketches than the join's *B* pages, so collecting
//! statistics is charged against the operator's memory like any other
//! phase instead of being assumed free (the oracle `CorrelationTable` path
//! this subsystem replaces).
//!
//! There is one kind of collector: every component is either an
//! order-insensitive, exactly mergeable function of the observed key
//! multiset (stream length, key range) or carries merge-preserved error
//! bounds (SpaceSaving), so a relation scan, keys fed one at a time to
//! [`StatsCollector::observe`] and the shards of
//! [`StatsCollector::collect_parallel`] all run the same body.
//!
//! The produced [`StatsSummary`] is the planner-facing artifact: top-k
//! [`McvEstimate`]s with error bounds, the exact stream length and the key
//! range, whose flat density backs the near-uniform fallback of
//! [`StatsSummary::planner_mcvs`].

use nocap_model::McvEstimate;
use nocap_obs::{Obs, Phase};
use nocap_par::{ordered_tasks, page_shards};
use nocap_storage::{Relation, RelationScan, Result, StorageError};

use crate::spacesaving::SpaceSaving;

/// Sketch sizing for one collection pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsConfig {
    /// SpaceSaving counters (the top-k capacity; error ≤ N / counters).
    pub mcv_counters: usize,
}

impl Default for StatsConfig {
    fn default() -> Self {
        StatsConfig {
            mcv_counters: 1_024,
        }
    }
}

impl StatsConfig {
    /// Sizes SpaceSaving to fit `pages` pages of `page_size` bytes: one
    /// counter per 64 bytes of 90 % of the budget. Budgets under 256 bytes
    /// are sized as 256 (three counters), whose footprint
    /// [`memory_pages`](Self::memory_pages) reports honestly.
    pub fn for_budget_pages(pages: usize, page_size: usize) -> Self {
        let bytes = (pages.max(1) * page_size.max(64)).max(256);
        // Only 90 %: the counter count moves the planner's inputs, and more
        // is not better. The whole budget (256 counters instead of 230 at
        // four 4 KB pages) lengthens the noisy tail of the MCV list and
        // raised the sketch-planned over catalog-planned NOCAP I/O of the
        // Zipf, B = ½·√(F·‖R‖) workload from 1.031 to 1.071. The unspent
        // tenth is ROADMAP item 9's to spend.
        StatsConfig {
            mcv_counters: (bytes * 9 / 10 / 64).max(1),
        }
    }

    /// Bytes the configured sketch occupies (the accounting the page budget
    /// is charged by), at least one counter's.
    pub fn memory_bytes(&self) -> usize {
        // Per SpaceSaving counter: the counter itself (24 B), its heap and
        // slot entries (8 B) and its hash-map entry (~32 B with growth
        // slack).
        self.mcv_counters.max(1) * 64
    }

    /// Pages the configured sketch occupies, rounded up.
    pub fn memory_pages(&self, page_size: usize) -> usize {
        self.memory_bytes().div_ceil(page_size.max(64)).max(1)
    }
}

/// One-pass streaming statistics collector.
#[derive(Debug)]
pub struct StatsCollector {
    config: StatsConfig,
    spacesaving: SpaceSaving,
    n: u64,
    min_key: Option<u64>,
    max_key: Option<u64>,
}

impl StatsCollector {
    /// Creates a collector with explicit sketch sizing;
    /// [`StatsConfig::for_budget_pages`] sizes one for a page budget.
    ///
    /// Every component the collector produces is an order-insensitive
    /// function of the observed key multiset *or* (for SpaceSaving beyond
    /// its exact regime) carries merge-preserved error bounds: collectors
    /// over the parts of a stream can be folded with [`merge`](Self::merge)
    /// in a fixed order to a deterministic [`StatsSummary`], which is what
    /// [`collect_parallel`](Self::collect_parallel) does with its shards.
    pub fn new(config: StatsConfig) -> Self {
        StatsCollector {
            spacesaving: SpaceSaving::new(config.mcv_counters),
            n: 0,
            min_key: None,
            max_key: None,
            config,
        }
    }

    /// Merges another collector into this one, as if this collector had
    /// also observed every key `other` observed.
    ///
    /// Exactness per component: the stream length and min/max key merge
    /// **exactly** — the merged state equals a single collector's state
    /// over the concatenated stream, for any split and any merge order. The SpaceSaving summary merges with its error
    /// bounds preserved (Agarwal et al., "Mergeable Summaries"); it is
    /// exact while the distinct-key count stays within `mcv_counters`, and
    /// an overestimate with per-key error bounds beyond that.
    ///
    /// # Panics
    /// If the two collectors were built with different [`StatsConfig`]s.
    pub fn merge(&mut self, other: &StatsCollector) {
        assert_eq!(
            self.config, other.config,
            "can only merge collectors with identical sketch configurations"
        );
        self.spacesaving.merge(&other.spacesaving);
        self.n += other.n;
        self.min_key = match (self.min_key, other.min_key) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max_key = match (self.max_key, other.max_key) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Observes one join key.
    pub fn observe(&mut self, key: u64) {
        self.n += 1;
        self.spacesaving.offer(key);
        self.min_key = Some(self.min_key.map_or(key, |m| m.min(key)));
        self.max_key = Some(self.max_key.map_or(key, |m| m.max(key)));
    }

    /// Consumes an entire relation scan in one pass. This is the intended
    /// entry point: page-granular sequential reads through the zero-copy
    /// page loop (no per-record allocation), every record's key observed
    /// exactly once.
    pub fn consume(&mut self, mut scan: RelationScan) -> Result<()> {
        while let Some(page) = scan.next_page()? {
            for rec in page.record_refs() {
                self.observe(rec.key());
            }
        }
        Ok(())
    }

    /// Finishes the pass and returns the summary.
    pub fn finish(self) -> StatsSummary {
        StatsSummary {
            config: self.config,
            n: self.n,
            mcvs: self.spacesaving.top_k(self.spacesaving.capacity()),
            error_guarantee: self.spacesaving.error_guarantee(),
            unmonitored_ceiling: self.spacesaving.min_count(),
            min_key: self.min_key,
            max_key: self.max_key,
        }
    }

    /// Number of statistics shards a relation is collected over:
    /// [`STATS_SHARDS`] contiguous page ranges, fewer only when the
    /// relation has fewer pages. A function of the relation alone — never
    /// of the worker count — which is what makes
    /// [`collect_parallel`](Self::collect_parallel) produce the same
    /// summary for every thread count.
    fn shard_count(rel: &Relation) -> usize {
        STATS_SHARDS.min(rel.num_pages()).max(1)
    }

    /// Sharded statistics collection: scans `rel` with `threads` workers
    /// (`0` runs as one, see [`ordered_tasks`]) over a fixed grid of up to
    /// eight contiguous page ranges (fewer on a smaller relation), one
    /// collector per shard, and folds the shard sketches in canonical shard
    /// order. No recorder and no budget check; see
    /// [`collect_parallel_with_budget`](Self::collect_parallel_with_budget)
    /// for the form a join runs.
    ///
    /// **Determinism.** Each shard's sketch depends only on that shard's
    /// pages, and the fold order is fixed, so the summary is bit-identical
    /// for every thread count and every scheduling interleaving — the
    /// statistics analog of `run_parallel`'s I/O-trace guarantee. With one
    /// thread this *is* sequential collection (the workers run on the
    /// calling thread), so `collect_parallel(_, _, n) ==
    /// collect_parallel(_, _, 1)` for all `n` on every workload; it also
    /// equals a single-collector [`consume`](Self::consume) pass in every
    /// component except the SpaceSaving counters once the stream's
    /// distinct-key count exceeds `mcv_counters` (where single-pass
    /// SpaceSaving is itself arrival-order-dependent; the merged counters
    /// still carry their error bounds).
    ///
    /// The scan reads every page of `rel` exactly once, so the modeled I/O
    /// equals the sequential pass's `‖rel‖` sequential reads.
    pub fn collect_parallel(
        config: StatsConfig,
        rel: &Relation,
        threads: usize,
    ) -> Result<StatsSummary> {
        Ok(Self::collect_sharded(rel, threads, &Obs::off(), config)?.finish())
    }

    /// [`collect_parallel`](Self::collect_parallel) under a page budget and
    /// a recorder — the pass a join runs.
    ///
    /// Every shard collector is charged `pages` pages (or its real
    /// footprint, whichever is larger: only page sizes under 256 bytes,
    /// where even the three-counter floor outgrows a page, need more), so
    /// deterministic sharded collection is charged at its true resident
    /// cost — shards × `pages`, independent of the thread count,
    /// because the shard geometry (not the worker count) fixes how many
    /// sketches exist. The charge is checked against `budget_pages`
    /// **before the scan starts**: a pass that exceeds it fails with
    /// [`OutOfMemory`](StorageError::OutOfMemory) up front, not after half
    /// the relation was already read.
    ///
    /// When `obs` records, the pass is bracketed by a `stats` phase span,
    /// every shard scan becomes a per-worker task span, and — on a
    /// `TracedDevice`, which the pass attaches `obs` to as every join does
    /// — each page read lands in the trace's I/O stream under the `stats`
    /// phase. Recording is passive — the shard grid, fold order and modeled
    /// I/O are untouched.
    pub fn collect_parallel_with_budget(
        budget_pages: usize,
        pages: usize,
        page_size: usize,
        rel: &Relation,
        threads: usize,
        obs: &Obs,
    ) -> Result<StatsSummary> {
        let config = StatsConfig::for_budget_pages(pages, page_size);
        let charge = Self::shard_count(rel) * pages.max(config.memory_pages(page_size));
        if charge > budget_pages {
            return Err(StorageError::OutOfMemory {
                requested: charge,
                available: budget_pages,
            });
        }
        let _io_trace = obs.attach_io(rel.device());
        Ok(Self::collect_sharded(rel, threads, obs, config)?.finish())
    }

    /// Scans the fixed shard grid on the shared work queue
    /// ([`ordered_tasks`]), one `config`-sized collector per shard, and
    /// folds the shard collectors in shard order, making the result
    /// independent of which worker scanned which shard. A failing shard
    /// cancels its siblings at their next shard boundary.
    fn collect_sharded(
        rel: &Relation,
        threads: usize,
        obs: &Obs,
        config: StatsConfig,
    ) -> Result<StatsCollector> {
        let _stats_span = obs.span(Phase::Stats);
        let num_shards = Self::shard_count(rel);
        let grid = page_shards(rel.num_pages(), num_shards);
        let (shards, _) = ordered_tasks(
            threads,
            obs,
            Phase::Stats,
            num_shards,
            || (),
            |_, i| {
                let mut collector = Self::new(config);
                collector.consume(rel.scan_range(grid[i].clone()))?;
                Ok(collector)
            },
        )?;
        let mut shards = shards.into_iter();
        let mut folded = shards.next().expect("at least one shard");
        for shard in shards {
            folded.merge(&shard);
        }
        Ok(folded)
    }
}

/// Number of fixed statistics shards a relation's pages are split into for
/// sharded parallel collection (fewer when the relation is smaller; see
/// [`StatsCollector::shard_count`]). Fixed — like the residual partition
/// quotas of the parallel executors — because determinism requires the
/// decomposition to depend on the data, never on the worker count.
const STATS_SHARDS: usize = 8;

/// The planner-facing artifact of one collection pass.
///
/// Equality compares exactly the retained state — the sizing, the stream
/// length, the MCV list with its error bounds (the SpaceSaving counters in
/// canonical order) and the key range. None of it depends on internal
/// sketch layout (heap order, counter slots), so a summary folded from
/// shard sketches compares equal to a sequentially collected one whenever
/// they answer every query identically. The
/// differential determinism suites pin `collect_parallel`'s thread-count
/// invariance with this.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSummary {
    config: StatsConfig,
    n: u64,
    /// The SpaceSaving counters, count descending, ties by key.
    mcvs: Vec<McvEstimate>,
    error_guarantee: u64,
    /// Upper bound on the frequency of any key *not* in the MCV list.
    unmonitored_ceiling: u64,
    min_key: Option<u64>,
    max_key: Option<u64>,
}

impl StatsSummary {
    /// Exact number of records observed (the stream length, `n_S` when the
    /// fact relation was scanned).
    pub fn stream_len(&self) -> u64 {
        self.n
    }

    /// The tracked most common values, most frequent first, with error
    /// bounds. At most `mcv_counters` entries.
    pub fn mcvs(&self) -> &[McvEstimate] {
        &self.mcvs
    }

    /// The SpaceSaving guarantee: no MCV count overestimates its true
    /// frequency by more than this (`N / counters`).
    pub fn error_guarantee(&self) -> u64 {
        self.error_guarantee
    }

    /// MCVs with a frequency *provably* above the unmonitored ceiling: their
    /// guaranteed (lower-bound) count exceeds the largest frequency any
    /// untracked key could have, so they are heavy hitters no matter how the
    /// sketch erred.
    fn reliable_mcvs(&self) -> impl Iterator<Item = &McvEstimate> {
        self.mcvs
            .iter()
            .filter(|e| e.guaranteed_count() > self.unmonitored_ceiling)
    }

    /// The `(key, count)` statistics the planner should consume.
    ///
    /// On skewed streams this is simply every tracked MCV with its
    /// SpaceSaving count — the configuration the accuracy experiments
    /// validated. On **near-uniform** streams SpaceSaving degenerates:
    /// every counter's count is dominated by the `N / counters` error term,
    /// so the raw estimates overstate per-key frequency by an order of
    /// magnitude and can bait the planner into caching keys that save
    /// nothing. The near-uniform case is detected by counting provable
    /// heavy hitters (tracked keys whose guaranteed count beats the
    /// largest frequency an untracked key could have); when almost none
    /// exist, the tracked keys are kept — they are real keys of the
    /// stream — but each one's mass becomes the flat density
    /// `n / (max_key − min_key + 1)`, rounded and clamped to
    /// `[1, count]`: the per-key frequency of a stream spread evenly over
    /// its key range, read off the exact length and range.
    pub fn planner_mcvs(&self) -> Vec<(u64, u64)> {
        /// Below this many provable heavy hitters the stream is treated as
        /// near-uniform.
        const MIN_RELIABLE: usize = 8;
        let reliable = self.reliable_mcvs().count();
        if reliable >= MIN_RELIABLE || reliable * 2 >= self.mcvs.len() {
            return nocap_model::estimate::to_pairs(&self.mcvs);
        }
        let density = self.flat_density();
        self.mcvs
            .iter()
            // Never exceed the sketch count (an upper bound on truth).
            .map(|e| (e.key, density.clamp(1, e.count.max(1))))
            .collect()
    }

    /// `n / (max_key − min_key + 1)` rounded half up, in `u128` so the
    /// full `u64` key range (2⁶⁴ keys) neither overflows nor divides by
    /// zero; 0 for an empty stream.
    fn flat_density(&self) -> u64 {
        let (Some(lo), Some(hi)) = (self.min_key, self.max_key) else {
            return 0;
        };
        let keys = u128::from(hi - lo) + 1;
        ((2 * u128::from(self.n) + keys) / (2 * keys)) as u64
    }

    /// Resident size of the sketch this summary was collected with, in
    /// bytes: [`StatsConfig::memory_bytes`] of the collector's config.
    pub fn memory_bytes(&self) -> usize {
        self.config.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocap_storage::{RecordLayout, RecordRef, Relation, SimDevice, StorageError};

    fn skewed_relation(device: nocap_storage::device::DeviceRef, n_keys: u64) -> Relation {
        // Key k appears (n_keys / (k+1)).max(1) times, round-robin order.
        let mut keys: Vec<u64> = Vec::new();
        for k in 0..n_keys {
            for _ in 0..(n_keys / (k + 1)).max(1) {
                keys.push(k);
            }
        }
        keys.sort_by_key(|&k| (k.wrapping_mul(0x9E3779B97F4A7C15)) >> 32);
        Relation::bulk_load(
            device,
            RecordLayout::new(24),
            4096,
            keys.into_iter().map(|k| RecordRef::new(k, &[0; 24])),
        )
        .unwrap()
    }

    #[test]
    fn one_pass_collects_exact_stream_length() {
        let device = SimDevice::new_ref();
        let rel = skewed_relation(device, 500);
        let mut collector = StatsCollector::new(StatsConfig::default());
        collector.consume(rel.scan()).unwrap();
        let summary = collector.finish();
        assert_eq!(summary.stream_len() as usize, rel.num_records());
        assert_eq!(summary.min_key, Some(0));
        assert_eq!(summary.max_key, Some(499));
    }

    #[test]
    fn sketch_sizing_fits_the_requested_pages() {
        for page_size in [256usize, 512, 1024, 4096, 16_384] {
            for pages in (1..=64usize).chain([256]) {
                let config = StatsConfig::for_budget_pages(pages, page_size);
                assert!(
                    config.memory_pages(page_size) <= pages,
                    "{pages} x {page_size}-byte budget produced {} pages of sketches",
                    config.memory_pages(page_size)
                );
                // SpaceSaving holds 90 % of the bytes: strictly more
                // counters than a 60 % share (`bytes · 6 / 10 / 64`) buys.
                assert!(
                    config.mcv_counters > pages * page_size * 6 / 10 / 64,
                    "{pages} x {page_size}: {} counters",
                    config.mcv_counters
                );
            }
        }
        assert_eq!(StatsConfig::for_budget_pages(4, 4096).mcv_counters, 230);
    }

    #[test]
    fn tiny_budgets_and_small_pages_do_not_panic_or_undercharge() {
        // Regression: the old fixed sizing floors (~2 KB) exceeded one small
        // page, tripping a debug assert and under-charging in release.
        let config = StatsConfig::for_budget_pages(1, 1024);
        assert_eq!(
            config.memory_pages(1024),
            1,
            "1 KB of sketches must fit one 1 KB page"
        );
        assert!(config.memory_bytes() <= 1024);
        // Degenerate page size: the 256-byte floor (three counters, 192 B)
        // spans several 64-byte pages; the charge covers the real footprint
        // instead of silently exceeding the single requested page.
        let footprint = StatsConfig::for_budget_pages(1, 64).memory_pages(64);
        assert!(footprint > 1);
        let device = SimDevice::new_ref();
        let rel = skewed_relation(device, 300);
        let shards = StatsCollector::shard_count(&rel);
        let collect = |budget_pages| {
            StatsCollector::collect_parallel_with_budget(budget_pages, 1, 64, &rel, 2, &Obs::off())
        };
        assert!(collect(shards * footprint).is_ok());
        assert!(matches!(
            collect(shards * footprint - 1),
            Err(StorageError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn mcv_estimates_bracket_the_truth() {
        let device = SimDevice::new_ref();
        let n_keys = 400u64;
        let rel = skewed_relation(device, n_keys);
        let mut collector = StatsCollector::new(StatsConfig { mcv_counters: 64 });
        collector.consume(rel.scan()).unwrap();
        let summary = collector.finish();
        let truth = |k: u64| (n_keys / (k + 1)).max(1);
        for est in summary.mcvs().iter().take(10) {
            let t = truth(est.key);
            assert!(est.count >= t, "MCV count must not underestimate");
            assert!(est.guaranteed_count() <= t, "lower bound must hold");
        }
        // The hottest key must be identified.
        assert_eq!(summary.mcvs()[0].key, 0);
    }

    #[test]
    fn planner_mcvs_trusts_the_sketch_on_skewed_streams() {
        let device = SimDevice::new_ref();
        let rel = skewed_relation(device, 400);
        let mut collector = StatsCollector::new(StatsConfig { mcv_counters: 64 });
        collector.consume(rel.scan()).unwrap();
        let summary = collector.finish();
        assert!(
            summary.reliable_mcvs().count() >= 8,
            "a 1/k-skewed stream has provable heavy hitters"
        );
        let planner = summary.planner_mcvs();
        let raw = nocap_model::estimate::to_pairs(summary.mcvs());
        assert_eq!(planner, raw, "skewed streams keep raw sketch counts");
    }

    #[test]
    fn planner_mcvs_falls_back_to_the_flat_density_on_uniform_streams() {
        let device = SimDevice::new_ref();
        // 4 000 distinct keys, 8 occurrences each, shuffled: far more keys
        // than counters, perfectly uniform.
        let mut keys: Vec<u64> = (0..4_000u64).flat_map(|k| [k; 8]).collect();
        keys.sort_by_key(|&k| k.wrapping_mul(0x9E3779B97F4A7C15) >> 16);
        let rel = Relation::bulk_load(
            device,
            RecordLayout::new(24),
            4096,
            keys.into_iter().map(|k| RecordRef::new(k, &[0; 24])),
        )
        .unwrap();
        let mut collector = StatsCollector::new(StatsConfig { mcv_counters: 128 });
        collector.consume(rel.scan()).unwrap();
        let summary = collector.finish();
        assert!(
            summary.reliable_mcvs().count() < 8,
            "uniform streams must not produce provable heavy hitters"
        );
        // The raw SpaceSaving counts are dominated by the N/counters error
        // (32000/128 = 250 vs a true frequency of 8); the fallback keeps
        // the tracked keys with the stream's flat density, 32 000 / 4 000.
        let raw_mean = summary.mcvs().iter().map(|e| e.count as f64).sum::<f64>()
            / summary.mcvs().len() as f64;
        assert!(raw_mean > 10.0 * 8.0, "raw counts are noise-dominated");
        let planner = summary.planner_mcvs();
        let tracked: Vec<u64> = summary.mcvs().iter().map(|e| e.key).collect();
        assert_eq!(
            planner.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            tracked,
            "the fallback keeps the tracked keys"
        );
        assert!(planner.iter().all(|&(_, mass)| mass == 8), "{planner:?}");
    }

    #[test]
    fn the_flat_density_spans_the_full_key_range_without_overflow() {
        // Keys 0 and u64::MAX: a range of 2^64 keys. Nine distinct
        // keys over eight counters leave no provable heavy hitter, so the
        // fallback runs; nine records over 2^64 keys round to 0 and the
        // mass clamps to 1.
        let mut collector = StatsCollector::new(StatsConfig { mcv_counters: 8 });
        for k in [0, u64::MAX, 1, 2, 3, 4, 5, 6, 7] {
            collector.observe(k);
        }
        let summary = collector.finish();
        assert_eq!(
            (summary.min_key, summary.max_key),
            (Some(0), Some(u64::MAX))
        );
        assert_eq!(summary.reliable_mcvs().count(), 0);
        assert_eq!(summary.flat_density(), 0);
        let planner = summary.planner_mcvs();
        assert_eq!(planner.len(), 8);
        assert!(planner.iter().all(|&(_, mass)| mass == 1), "{planner:?}");
    }

    #[test]
    fn merge_accumulates_stream_length_and_key_range() {
        let config = StatsConfig::default();
        let mut a = StatsCollector::new(config);
        let mut b = StatsCollector::new(config);
        for k in 10..60u64 {
            a.observe(k);
        }
        for k in 40..90u64 {
            b.observe(k);
        }
        a.merge(&b);
        let summary = a.finish();
        assert_eq!(summary.min_key, Some(10));
        assert_eq!(summary.max_key, Some(89));
        assert_eq!(summary.stream_len(), 100);
    }

    #[test]
    fn merging_an_empty_shard_is_the_identity() {
        let config = StatsConfig::default();
        let device = SimDevice::new_ref();
        let rel = skewed_relation(device, 120);
        let mut a = StatsCollector::new(config);
        a.consume(rel.scan()).unwrap();
        let empty = StatsCollector::new(config);
        let mut merged = StatsCollector::new(config);
        merged.consume(rel.scan()).unwrap();
        merged.merge(&empty);
        assert_eq!(merged.finish(), a.finish());
    }

    #[test]
    #[should_panic(expected = "identical sketch configurations")]
    fn merging_mismatched_configs_panics() {
        let mut a = StatsCollector::new(StatsConfig::default());
        let b = StatsCollector::new(StatsConfig { mcv_counters: 7 });
        a.merge(&b);
    }

    #[test]
    fn collect_parallel_equals_a_single_shard_collector_in_the_exact_regime() {
        // 300 distinct keys, 1024 SpaceSaving counters: every shard sketch
        // and the fold are exact, so the parallel summary must equal a
        // sequential single-collector pass bit for bit.
        let device = SimDevice::new_ref();
        let rel = skewed_relation(device, 300);
        let config = StatsConfig::default();
        let mut sequential = StatsCollector::new(config);
        sequential.consume(rel.scan()).unwrap();
        let sequential = sequential.finish();
        for threads in [1usize, 2, 4, 8] {
            let parallel = StatsCollector::collect_parallel(config, &rel, threads).unwrap();
            assert_eq!(
                parallel, sequential,
                "parallel collection diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn collect_parallel_is_thread_count_invariant_beyond_the_exact_regime() {
        // 500 distinct keys vs 32 counters: SpaceSaving overflows, where a
        // *scan-sharded* merge would depend on the shard boundaries. The
        // fixed shard grid + canonical fold keeps the summary identical for
        // every thread count anyway — the core determinism guarantee.
        let device = SimDevice::new_ref();
        let rel = skewed_relation(device, 500);
        let config = StatsConfig { mcv_counters: 32 };
        let baseline = StatsCollector::collect_parallel(config, &rel, 1).unwrap();
        for threads in [2usize, 4, 8] {
            let parallel = StatsCollector::collect_parallel(config, &rel, threads).unwrap();
            assert_eq!(parallel, baseline, "summary diverged at {threads} threads");
        }
        assert_eq!(baseline.stream_len() as usize, rel.num_records());
    }

    #[test]
    fn collect_parallel_reads_every_page_exactly_once() {
        let device = SimDevice::new_ref();
        let rel = skewed_relation(device.clone(), 400);
        device.reset_stats();
        let _ = StatsCollector::collect_parallel(StatsConfig::default(), &rel, 4).unwrap();
        assert_eq!(device.stats().reads() as usize, rel.num_pages());
        assert_eq!(device.stats().writes(), 0);
    }

    #[test]
    fn collect_parallel_with_budget_charges_every_shard_and_releases() {
        let device = SimDevice::new_ref();
        let rel = skewed_relation(device, 300);
        assert_eq!(StatsCollector::shard_count(&rel), 8);
        // Every shard collector's 4 pages are charged: 8 x 4 pages fit.
        let summary =
            StatsCollector::collect_parallel_with_budget(8 * 4, 4, 4096, &rel, 4, &Obs::off())
                .unwrap();
        assert!(!summary.mcvs().is_empty());
    }

    #[test]
    fn collect_parallel_with_budget_rejects_an_oversubscribed_pool_before_scanning() {
        let device = SimDevice::new_ref();
        let rel = skewed_relation(device.clone(), 300);
        assert_eq!(StatsCollector::shard_count(&rel), 8);
        // 8 shards x 4 pages = 32 needed; one page less must fail before
        // any page is read, at every thread count.
        for threads in [1usize, 4] {
            device.reset_stats();
            let err = StatsCollector::collect_parallel_with_budget(
                8 * 4 - 1,
                4,
                4096,
                &rel,
                threads,
                &Obs::off(),
            )
            .unwrap_err();
            assert_eq!(
                err,
                StorageError::OutOfMemory {
                    requested: 32,
                    available: 31
                }
            );
            assert_eq!(
                device.stats().reads(),
                0,
                "an oversubscribed budget must fail up front, not mid-scan"
            );
        }
    }

    #[test]
    fn collect_parallel_handles_tiny_and_empty_relations() {
        let device = SimDevice::new_ref();
        let empty = Relation::bulk_load(
            device.clone(),
            RecordLayout::new(24),
            4096,
            std::iter::empty(),
        )
        .unwrap();
        let summary = StatsCollector::collect_parallel(StatsConfig::default(), &empty, 4).unwrap();
        assert_eq!(summary.stream_len(), 0);
        assert_eq!(summary.min_key, None);
        // One page: fewer pages than STATS_SHARDS, still every thread count
        // agrees.
        let tiny = Relation::bulk_load(
            device,
            RecordLayout::new(24),
            4096,
            (0..10u64).map(|k| RecordRef::new(k, &[0; 24])),
        )
        .unwrap();
        assert_eq!(StatsCollector::shard_count(&tiny), 1);
        let one = StatsCollector::collect_parallel(StatsConfig::default(), &tiny, 1).unwrap();
        let eight = StatsCollector::collect_parallel(StatsConfig::default(), &tiny, 8).unwrap();
        assert_eq!(one, eight);
        assert_eq!(one.stream_len(), 10);
    }

    #[test]
    fn consume_observes_every_key_in_scan_order() {
        let device = SimDevice::new_ref();
        let rel = skewed_relation(device, 250);
        let mut by_scan = StatsCollector::new(StatsConfig::default());
        by_scan.consume(rel.scan()).unwrap();
        let mut by_keys = StatsCollector::new(StatsConfig::default());
        let mut scan = rel.scan();
        while let Some(page) = scan.next_page().unwrap() {
            page.record_refs()
                .for_each(|rec| by_keys.observe(rec.key()));
        }
        assert_eq!(by_scan.finish(), by_keys.finish());
    }

    #[test]
    fn summary_memory_is_the_config_that_built_it() {
        let device = SimDevice::new_ref();
        let rel = skewed_relation(device, 300);
        for pages in [1usize, 4, 7] {
            let config = StatsConfig::for_budget_pages(pages, 4096);
            let mut budgeted = StatsCollector::new(config);
            budgeted.consume(rel.scan()).unwrap();
            let sharded =
                StatsCollector::collect_parallel_with_budget(64, pages, 4096, &rel, 2, &Obs::off())
                    .unwrap();
            for summary in [budgeted.finish(), sharded] {
                assert_eq!(summary.memory_bytes(), config.memory_bytes());
                assert!(summary.memory_bytes() <= pages * 4096);
                assert!(summary.mcvs().len() <= config.mcv_counters);
            }
        }
    }
}
