//! One-pass statistics collection under a page budget.
//!
//! [`StatsCollector`] owns the two sketches the planner reads — SpaceSaving
//! and the fallback histogram — and feeds every observed join key to both.
//! Its memory is sized from a **page budget** and, when constructed through
//! [`StatsCollector::with_budget`], reserved from the same [`BufferPool`]
//! the join draws from, so collecting statistics is charged against the
//! operator's memory like any other phase instead of being assumed free
//! (the oracle `CorrelationTable` path this subsystem replaces).
//!
//! There is one kind of collector: every component is either an
//! order-insensitive, exactly mergeable function of the observed key
//! multiset (stream length, key range, histogram) or carries
//! merge-preserved error bounds (SpaceSaving), so a relation scan, a
//! generator's key stream and the shards of
//! [`StatsCollector::collect_parallel`] all run the same body.
//!
//! The produced [`StatsSummary`] is the planner-facing artifact: top-k
//! [`McvEstimate`]s with error bounds, the exact stream length, the key
//! range and the histogram that backs the near-uniform fallback.

use std::sync::Mutex;

use nocap_model::McvEstimate;
use nocap_obs::{Obs, Phase};
use nocap_par::{ordered_tasks, page_shards, resolve_threads};
use nocap_storage::{lock_unpoisoned, BufferPool, Relation, RelationScan, Reservation, Result};

use crate::histogram::EquiWidthHistogram;
use crate::spacesaving::SpaceSaving;

/// Sketch sizing for one collection pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsConfig {
    /// SpaceSaving counters (the top-k capacity; error ≤ N / counters).
    pub mcv_counters: usize,
    /// Fallback histogram bucket count.
    pub hist_buckets: usize,
}

impl Default for StatsConfig {
    fn default() -> Self {
        StatsConfig {
            mcv_counters: 1_024,
            hist_buckets: 64,
        }
    }
}

impl StatsConfig {
    /// Sizes the sketches to fit `bytes` bytes, split 90 % SpaceSaving (the
    /// planner-critical sketch) and 10 % histogram. Both scale down with
    /// the budget (no fixed floors), so the result fits any `bytes ≥ 256`;
    /// below that the structural minimum of one-of-each-sketch applies.
    pub fn for_budget_bytes(bytes: usize) -> Self {
        let bytes = bytes.max(256);
        StatsConfig {
            mcv_counters: (bytes * 9 / 10 / 64).max(1),
            hist_buckets: (bytes / 10 / 8).clamp(1, 65_536),
        }
    }

    /// Sizes the sketches to fit `pages` pages of `page_size` bytes.
    pub fn for_budget_pages(pages: usize, page_size: usize) -> Self {
        Self::for_budget_bytes(pages.max(1) * page_size.max(64))
    }

    /// Bytes the configured sketches occupy (the accounting the page budget
    /// is charged by). Either sketch holds at least one entry.
    pub fn memory_bytes(&self) -> usize {
        // Per SpaceSaving counter: the counter itself (24 B), its heap and
        // slot entries (8 B) and its hash-map entry (~32 B with growth
        // slack). Per histogram bucket: one `u64` count.
        self.mcv_counters.max(1) * 64 + self.hist_buckets.max(1) * 8
    }

    /// Pages the configured sketches occupy, rounded up.
    pub fn memory_pages(&self, page_size: usize) -> usize {
        self.memory_bytes().div_ceil(page_size.max(64)).max(1)
    }
}

/// One-pass streaming statistics collector.
#[derive(Debug)]
pub struct StatsCollector {
    config: StatsConfig,
    spacesaving: SpaceSaving,
    histogram: EquiWidthHistogram,
    n: u64,
    min_key: Option<u64>,
    max_key: Option<u64>,
    /// Holds the page budget against the join's buffer pool for the lifetime
    /// of the collection pass.
    reservation: Option<Reservation>,
}

impl StatsCollector {
    /// Creates a collector with explicit sketch sizing and no buffer-pool
    /// charge (for tests and offline analysis).
    ///
    /// The histogram is anchored at key 0
    /// ([`EquiWidthHistogram::adaptive_pinned`]), so every component the
    /// collector produces is an order-insensitive function of the observed
    /// key multiset *or* (for SpaceSaving beyond its exact regime) carries
    /// merge-preserved error bounds: collectors over the parts of a stream
    /// can be folded with [`merge`](Self::merge) in a fixed order to a
    /// deterministic [`StatsSummary`], which is what
    /// [`collect_parallel`](Self::collect_parallel) does with its shards.
    pub fn new(config: StatsConfig) -> Self {
        StatsCollector {
            spacesaving: SpaceSaving::new(config.mcv_counters),
            histogram: EquiWidthHistogram::adaptive_pinned(0, config.hist_buckets),
            n: 0,
            min_key: None,
            max_key: None,
            reservation: None,
            config,
        }
    }

    /// Creates a collector sized for `pages` pages, **reserving the
    /// sketches' footprint from `pool`** for the lifetime of the collection
    /// pass. Fails with
    /// [`StorageError::OutOfMemory`](nocap_storage::StorageError::OutOfMemory)
    /// if the pool cannot spare it — statistics collection must not
    /// silently exceed the operator's memory budget.
    pub fn with_budget(pool: &BufferPool, pages: usize, page_size: usize) -> Result<Self> {
        let config = StatsConfig::for_budget_pages(pages, page_size);
        // For every realistic geometry the footprint fits the request; only
        // degenerate page sizes (under ~256 bytes, where even one-of-each
        // sketch outgrows a page) need more, and then the *actual* footprint
        // is what gets reserved — never charged less than used.
        let reservation = pool.reserve(pages.max(config.memory_pages(page_size)))?;
        let mut collector = Self::new(config);
        collector.reservation = Some(reservation);
        Ok(collector)
    }

    /// Merges another collector's sketches into this one, as if this
    /// collector had also observed every key `other` observed.
    ///
    /// Exactness per component: the stream length, min/max key and
    /// histogram merge **exactly** — the merged state equals a single
    /// collector's state over the concatenated stream, for any split and
    /// any merge order. The SpaceSaving summary merges with its error
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
        self.histogram.merge(&other.histogram);
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

    /// The sketch sizing in effect.
    pub fn config(&self) -> &StatsConfig {
        &self.config
    }

    /// Keys observed so far.
    pub fn observed(&self) -> u64 {
        self.n
    }

    /// Observes one join key.
    pub fn observe(&mut self, key: u64) {
        self.n += 1;
        self.spacesaving.offer(key);
        self.histogram.add(key);
        self.min_key = Some(self.min_key.map_or(key, |m| m.min(key)));
        self.max_key = Some(self.max_key.map_or(key, |m| m.max(key)));
    }

    /// Consumes an entire relation scan in one pass. This is the intended
    /// entry point: page-granular sequential reads through the zero-copy
    /// page loop (no per-record allocation), every record's key offered to
    /// both sketches exactly once.
    pub fn consume(&mut self, mut scan: RelationScan) -> Result<()> {
        while let Some(page) = scan.next_page()? {
            for rec in page.record_refs() {
                self.observe(rec.key());
            }
        }
        Ok(())
    }

    /// Consumes a fallible key stream (the `stream_keys` hook of
    /// `nocap-workload` generators produces exactly this shape).
    ///
    /// A generator's stream and a page scan of the loaded relation present
    /// the same key **multiset**, possibly in different orders. In the
    /// exact regime (distinct keys within `mcv_counters`) the order cannot
    /// matter — every component is a function of the multiset — so
    /// `consume_keys` and [`consume`](Self::consume) produce equal
    /// summaries; only an overflowing SpaceSaving sketch is arrival-order
    /// sensitive, and its counts keep their error bounds either way.
    pub fn consume_keys<I>(&mut self, keys: I) -> Result<()>
    where
        I: IntoIterator<Item = Result<u64>>,
    {
        for key in keys {
            self.observe(key?);
        }
        Ok(())
    }

    /// Finishes the pass: releases the buffer-pool reservation and returns
    /// the summary.
    pub fn finish(mut self) -> StatsSummary {
        drop(self.reservation.take());
        StatsSummary {
            config: self.config,
            n: self.n,
            mcvs: self.spacesaving.top_k(self.spacesaving.capacity()),
            error_guarantee: self.spacesaving.error_guarantee(),
            unmonitored_ceiling: self.spacesaving.min_count(),
            min_key: self.min_key,
            max_key: self.max_key,
            histogram: self.histogram,
        }
    }

    /// Number of statistics shards a relation is collected over:
    /// [`STATS_SHARDS`] contiguous page ranges, fewer only when the
    /// relation has fewer pages. A function of the relation alone — never
    /// of the worker count — which is what makes
    /// [`collect_parallel`](Self::collect_parallel) produce the same
    /// summary for every thread count.
    pub fn shard_count(rel: &Relation) -> usize {
        STATS_SHARDS.min(rel.num_pages()).max(1)
    }

    /// Sharded statistics collection: scans `rel` with `threads` workers
    /// (0 selects [`nocap_par::default_threads`]) over the fixed shard grid
    /// of [`shard_count`](Self::shard_count) contiguous page ranges, one
    /// collector per shard, and folds the shard sketches in canonical shard
    /// order. No recorder and no pool charge; see
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
        Ok(Self::collect_sharded(rel, threads, &Obs::off(), |_| Self::new(config))?.finish())
    }

    /// [`collect_parallel`](Self::collect_parallel) under a page budget and
    /// a recorder — the pass a join runs.
    ///
    /// Every shard collector reserves `pages` pages (or its real footprint,
    /// whichever is larger) from `pool` for the lifetime of the pass, so
    /// deterministic sharded collection is charged at its true resident
    /// cost — `shard_count × pages`, independent of the thread count,
    /// because the shard geometry (not the worker count) fixes how many
    /// sketch sets exist. All shard budgets are reserved **before the scan
    /// starts**: an oversubscribed pool fails with
    /// [`OutOfMemory`](nocap_storage::StorageError::OutOfMemory) up front,
    /// not after half the relation was already read.
    ///
    /// When `obs` records, the pass is bracketed by a `stats` phase span,
    /// every shard scan becomes a per-worker task span, and — on a
    /// `TracedDevice`, which the pass attaches `obs` to as every join does
    /// — each page read lands in the trace's I/O stream under the `stats`
    /// phase. Recording is passive — the shard grid, fold order and modeled
    /// I/O are untouched.
    pub fn collect_parallel_with_budget(
        pool: &BufferPool,
        pages: usize,
        page_size: usize,
        rel: &Relation,
        threads: usize,
        obs: &Obs,
    ) -> Result<StatsSummary> {
        let config = StatsConfig::for_budget_pages(pages, page_size);
        let _io_trace = obs.attach_io(rel.device());
        let charge = pages.max(config.memory_pages(page_size));
        let reservations: Vec<Mutex<Option<Reservation>>> = (0..Self::shard_count(rel))
            .map(|_| pool.reserve(charge).map(|r| Mutex::new(Some(r))))
            .collect::<Result<_>>()?;
        let collected = Self::collect_sharded(rel, threads, obs, |shard| {
            let mut collector = Self::new(config);
            collector.reservation = lock_unpoisoned(&reservations[shard]).take();
            collector
        })?;
        Ok(collected.finish())
    }

    /// Scans the fixed shard grid on the shared work queue
    /// ([`ordered_tasks`]) and folds the shard collectors in shard order,
    /// making the result independent of which worker scanned which shard.
    /// A failing shard cancels its siblings at their next shard boundary.
    /// `make` receives the shard index it is building a collector for.
    fn collect_sharded(
        rel: &Relation,
        threads: usize,
        obs: &Obs,
        make: impl Fn(usize) -> StatsCollector + Sync,
    ) -> Result<StatsCollector> {
        let _stats_span = obs.span(Phase::Stats);
        let num_shards = Self::shard_count(rel);
        obs.count("stats_shards", num_shards as u64);
        let grid = page_shards(rel.num_pages(), num_shards);
        let (shards, _) = ordered_tasks(
            resolve_threads(threads),
            obs,
            Phase::Stats,
            num_shards,
            || (),
            |_, i| {
                let mut collector = make(i);
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
pub const STATS_SHARDS: usize = 8;

/// The planner-facing artifact of one collection pass.
///
/// Equality compares exactly the retained state — the sizing, the stream
/// length, the MCV list with its error bounds (the SpaceSaving counters in
/// canonical order), the key range and the histogram buckets. None of it
/// depends on internal sketch layout (heap order, counter slots), so a
/// summary folded from shard sketches compares equal to a sequentially
/// collected one whenever they answer every query identically. The
/// differential determinism suites pin `collect_parallel`'s thread-count
/// invariance with this.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSummary {
    config: StatsConfig,
    n: u64,
    /// The SpaceSaving counters, count descending, ties by key.
    mcvs: Vec<McvEstimate>,
    error_guarantee: u64,
    unmonitored_ceiling: u64,
    min_key: Option<u64>,
    max_key: Option<u64>,
    histogram: EquiWidthHistogram,
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

    /// Upper bound on the frequency of any key *not* in the MCV list.
    pub fn unmonitored_ceiling(&self) -> u64 {
        self.unmonitored_ceiling
    }

    /// Smallest key observed, if any record was seen.
    pub fn min_key(&self) -> Option<u64> {
        self.min_key
    }

    /// Largest key observed, if any record was seen.
    pub fn max_key(&self) -> Option<u64> {
        self.max_key
    }

    /// MCVs with a frequency *provably* above the unmonitored ceiling: their
    /// guaranteed (lower-bound) count exceeds the largest frequency any
    /// untracked key could have, so they are heavy hitters no matter how the
    /// sketch erred.
    pub fn reliable_mcvs(&self) -> impl Iterator<Item = &McvEstimate> {
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
    /// nothing. The near-uniform case is detected by counting
    /// [`reliable_mcvs`](Self::reliable_mcvs) (provable heavy hitters);
    /// when almost none exist, the tracked keys are kept — they are real
    /// keys of the stream — but their masses are replaced by the equi-width
    /// histogram's per-key estimate, which is unbiased under uniformity.
    /// This is the histogram-backed fallback the planner consumes instead
    /// of an empty (or noise-ridden) MCV list.
    pub fn planner_mcvs(&self) -> Vec<(u64, u64)> {
        /// Below this many provable heavy hitters the stream is treated as
        /// near-uniform.
        const MIN_RELIABLE: usize = 8;
        let reliable = self.reliable_mcvs().count();
        if reliable >= MIN_RELIABLE || reliable * 2 >= self.mcvs.len() {
            return nocap_model::estimate::to_pairs(&self.mcvs);
        }
        self.mcvs
            .iter()
            .map(|e| {
                let hist = self.histogram_estimate(e.key).round() as u64;
                // Never exceed the sketch count (an upper bound on truth).
                (e.key, hist.clamp(1, e.count.max(1)))
            })
            .collect()
    }

    /// Equi-width fallback estimate for one key (uniformity within bucket).
    pub fn histogram_estimate(&self, key: u64) -> f64 {
        self.histogram.estimate(key)
    }

    /// Resident size of the sketches this summary was collected with, in
    /// bytes: [`StatsConfig::memory_bytes`] of the collector's config.
    pub fn memory_bytes(&self) -> usize {
        self.config.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocap_storage::{Record, RecordLayout, Relation, SimDevice, StorageError};

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
            keys.into_iter().map(|k| Record::with_fill(k, 24, 0)),
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
        assert_eq!(summary.min_key(), Some(0));
        assert_eq!(summary.max_key(), Some(499));
    }

    #[test]
    fn budget_is_charged_to_the_pool_and_released() {
        let device = SimDevice::new_ref();
        let rel = skewed_relation(device, 200);
        let pool = BufferPool::new(32);
        let mut collector = StatsCollector::with_budget(&pool, 8, 4096).unwrap();
        assert_eq!(pool.in_use(), 8, "collection must hold its pages");
        collector.consume(rel.scan()).unwrap();
        let summary = collector.finish();
        assert_eq!(pool.in_use(), 0, "finish must release the reservation");
        assert!(!summary.mcvs().is_empty());
    }

    #[test]
    fn over_budget_collection_is_rejected() {
        let pool = BufferPool::new(4);
        let err = StatsCollector::with_budget(&pool, 8, 4096).unwrap_err();
        assert!(matches!(err, StorageError::OutOfMemory { .. }));
        assert_eq!(pool.in_use(), 0);
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
        // page, tripping a debug assert and under-reserving in release.
        let pool = BufferPool::new(16);
        let collector = StatsCollector::with_budget(&pool, 1, 1024).unwrap();
        assert_eq!(pool.in_use(), 1, "1 KB of sketches must fit one 1 KB page");
        assert!(collector.config().memory_bytes() <= 1024);
        drop(collector);
        // Degenerate page size: the structural minimum (~232 B of sketches)
        // spans several 64-byte pages; the reservation covers the real
        // footprint instead of silently exceeding the single requested page.
        let collector = StatsCollector::with_budget(&pool, 1, 64).unwrap();
        let config = collector.config();
        assert_eq!(pool.in_use(), config.memory_pages(64));
        assert!(pool.in_use() >= 1);
    }

    #[test]
    fn mcv_estimates_bracket_the_truth() {
        let device = SimDevice::new_ref();
        let n_keys = 400u64;
        let rel = skewed_relation(device, n_keys);
        let mut collector = StatsCollector::new(StatsConfig {
            mcv_counters: 64,
            ..StatsConfig::default()
        });
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
        let mut collector = StatsCollector::new(StatsConfig {
            mcv_counters: 64,
            ..StatsConfig::default()
        });
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
    fn planner_mcvs_falls_back_to_histogram_masses_on_uniform_streams() {
        let device = SimDevice::new_ref();
        // 4 000 distinct keys, 8 occurrences each, shuffled: far more keys
        // than counters, perfectly uniform.
        let mut keys: Vec<u64> = (0..4_000u64).flat_map(|k| [k; 8]).collect();
        keys.sort_by_key(|&k| k.wrapping_mul(0x9E3779B97F4A7C15) >> 16);
        let rel = Relation::bulk_load(
            device,
            RecordLayout::new(24),
            4096,
            keys.into_iter().map(|k| Record::with_fill(k, 24, 0)),
        )
        .unwrap();
        let mut collector = StatsCollector::new(StatsConfig {
            mcv_counters: 128,
            ..StatsConfig::default()
        });
        collector.consume(rel.scan()).unwrap();
        let summary = collector.finish();
        assert!(
            summary.reliable_mcvs().count() < 8,
            "uniform streams must not produce provable heavy hitters"
        );
        let planner = summary.planner_mcvs();
        assert!(!planner.is_empty(), "fallback keeps the tracked keys");
        // The raw SpaceSaving counts are dominated by the N/counters error
        // (32000/128 = 250 vs a true frequency of 8); the histogram-backed
        // masses must land near the truth instead.
        let raw_mean = summary.mcvs().iter().map(|e| e.count as f64).sum::<f64>()
            / summary.mcvs().len() as f64;
        let fallback_mean =
            planner.iter().map(|&(_, c)| c as f64).sum::<f64>() / planner.len() as f64;
        assert!(raw_mean > 10.0 * 8.0, "raw counts are noise-dominated");
        assert!(
            fallback_mean < 4.0 * 8.0,
            "histogram masses should be near the true per-key frequency \
             (got {fallback_mean:.1} vs truth 8)"
        );
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
        assert_eq!(a.observed(), 100);
        let summary = a.finish();
        assert_eq!(summary.min_key(), Some(10));
        assert_eq!(summary.max_key(), Some(89));
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
        let b = StatsCollector::new(StatsConfig {
            mcv_counters: 7,
            ..StatsConfig::default()
        });
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
        let config = StatsConfig {
            mcv_counters: 32,
            ..StatsConfig::default()
        };
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
        let pool = BufferPool::new(64);
        let summary =
            StatsCollector::collect_parallel_with_budget(&pool, 4, 4096, &rel, 4, &Obs::off())
                .unwrap();
        assert_eq!(pool.in_use(), 0, "all shard reservations must be released");
        assert_eq!(
            pool.peak(),
            4 * StatsCollector::shard_count(&rel),
            "every shard collector's pages must have been charged"
        );
        assert!(!summary.mcvs().is_empty());
    }

    #[test]
    fn collect_parallel_with_budget_rejects_an_oversubscribed_pool_before_scanning() {
        let device = SimDevice::new_ref();
        let rel = skewed_relation(device.clone(), 300);
        assert_eq!(StatsCollector::shard_count(&rel), 8);
        // 8 shards x 4 pages = 32 needed; a 16-page pool must fail before
        // any page is read, with nothing leaked, at every thread count.
        for threads in [1usize, 4] {
            let pool = BufferPool::new(16);
            device.reset_stats();
            let err = StatsCollector::collect_parallel_with_budget(
                &pool,
                4,
                4096,
                &rel,
                threads,
                &Obs::off(),
            )
            .unwrap_err();
            assert!(matches!(err, StorageError::OutOfMemory { .. }));
            assert_eq!(pool.in_use(), 0, "failed collection must leak nothing");
            assert_eq!(
                device.stats().reads(),
                0,
                "an oversubscribed pool must fail up front, not mid-scan"
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
            std::iter::empty::<Record>(),
        )
        .unwrap();
        let summary = StatsCollector::collect_parallel(StatsConfig::default(), &empty, 4).unwrap();
        assert_eq!(summary.stream_len(), 0);
        assert_eq!(summary.min_key(), None);
        // One page: fewer pages than STATS_SHARDS, still every thread count
        // agrees.
        let tiny = Relation::bulk_load(
            device,
            RecordLayout::new(24),
            4096,
            (0..10u64).map(|k| Record::with_fill(k, 24, 0)),
        )
        .unwrap();
        assert_eq!(StatsCollector::shard_count(&tiny), 1);
        let one = StatsCollector::collect_parallel(StatsConfig::default(), &tiny, 1).unwrap();
        let eight = StatsCollector::collect_parallel(StatsConfig::default(), &tiny, 8).unwrap();
        assert_eq!(one, eight);
        assert_eq!(one.stream_len(), 10);
    }

    #[test]
    fn consume_keys_matches_consume_scan() {
        let device = SimDevice::new_ref();
        let rel = skewed_relation(device, 250);
        let mut by_scan = StatsCollector::new(StatsConfig::default());
        by_scan.consume(rel.scan()).unwrap();
        let mut by_keys = StatsCollector::new(StatsConfig::default());
        by_keys
            .consume_keys(rel.scan().map(|r| r.map(|rec| rec.key())))
            .unwrap();
        assert_eq!(by_scan.finish(), by_keys.finish());
    }

    #[test]
    fn summary_memory_is_the_config_that_built_it() {
        let device = SimDevice::new_ref();
        let rel = skewed_relation(device, 300);
        let pool = BufferPool::new(64);
        for pages in [1usize, 4, 7] {
            let config = StatsConfig::for_budget_pages(pages, 4096);
            let mut budgeted = StatsCollector::with_budget(&pool, pages, 4096).unwrap();
            budgeted.consume(rel.scan()).unwrap();
            let sharded = StatsCollector::collect_parallel_with_budget(
                &pool,
                pages,
                4096,
                &rel,
                2,
                &Obs::off(),
            )
            .unwrap();
            for summary in [budgeted.finish(), sharded] {
                assert_eq!(summary.memory_bytes(), config.memory_bytes());
                assert!(summary.memory_bytes() <= pages * 4096);
                assert!(summary.mcvs().len() <= config.mcv_counters);
            }
        }
    }
}
