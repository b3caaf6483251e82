//! # nocap-stats
//!
//! Bounded-memory streaming statistics feeding the NOCAP planner.
//!
//! NOCAP's premise is planning from *limited* correlation knowledge: the
//! top-k most-common-value (MCV) list. The rest of this workspace can build
//! those statistics from a full [`CorrelationTable`](nocap_model::ct) — an
//! oracle that would never fit the memory budget of a real system. This
//! crate produces the same statistics in **one streaming pass** over the
//! fact relation with sketches sized, in pages, from a budget the caller
//! carves out of the join's *B*:
//!
//! * [`spacesaving`] — the SpaceSaving heavy-hitter summary (Metwally et
//!   al.): `k` counters track the hottest keys with per-key error bounds and
//!   the global guarantee `error ≤ N / k`. This is the planner's MCV list,
//!   and it gets 90 % of every budget page.
//! * [`histogram`] — an equi-width fallback histogram, the per-key masses
//!   the planner falls back to on near-uniform streams, where every
//!   SpaceSaving count is dominated by its error term.
//! * [`collector`] — [`StatsCollector`]: wires both behind a single
//!   one-pass consumer of a [`RelationScan`](nocap_storage::RelationScan)'s
//!   pages (zero-copy: it reads keys straight from each page),
//!   sized from a page budget, producing a [`StatsSummary`] whose
//!   [`McvEstimate`](nocap_model::McvEstimate)s feed the planner directly.
//!   [`StatsCollector::collect_parallel`] shards the pass across `nocap-par`
//!   workers over a fixed [`STATS_SHARDS`]-way page grid and folds the
//!   per-shard sketches in canonical order, producing a summary that is
//!   bit-identical for every thread count.
//!
//! ```
//! use nocap_stats::{StatsCollector, StatsConfig};
//! use nocap_storage::{RecordLayout, RecordRef, Relation, SimDevice};
//!
//! // A skewed stream: key 0 appears 500 times, keys 1..100 once each.
//! let device = SimDevice::new_ref();
//! let keys = std::iter::repeat(0u64)
//!     .take(500)
//!     .chain(1..100u64);
//! let s = Relation::bulk_load(
//!     device,
//!     RecordLayout::new(24),
//!     4096,
//!     keys.map(|k| RecordRef::new(k, &[0; 24])),
//! )
//! .unwrap();
//!
//! // Collect within a 4-page budget.
//! let config = StatsConfig::for_budget_pages(4, 4096);
//! let mut collector = StatsCollector::new(config);
//! collector.consume(s.scan()).unwrap();
//! let summary = collector.finish();
//!
//! assert_eq!(config.memory_pages(4096), 4);
//! assert!(summary.memory_bytes() <= 4 * 4096);
//!
//! assert_eq!(summary.stream_len(), 599);
//! let hottest = &summary.mcvs()[0];
//! assert_eq!(hottest.key, 0);
//! assert!(hottest.count >= 500);
//! assert!(hottest.guaranteed_count() <= 500);
//! // What the planner consumes: (key, count) pairs, hottest first.
//! assert_eq!(summary.planner_mcvs()[0], (0, 500));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod collector;
pub mod histogram;
pub mod spacesaving;

pub use collector::{StatsCollector, StatsConfig, StatsSummary, STATS_SHARDS};
pub use histogram::EquiWidthHistogram;
pub use spacesaving::SpaceSaving;
