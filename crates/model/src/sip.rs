//! Sideways information passing: the probe-side Bloom pre-filter.
//!
//! §6 of the paper discusses passing a compact summary of the build side
//! into the probe side so that S records without a partner are rejected
//! before they cost anything. [`ProbeBloom`] is that knob for the hybrid
//! hash join body, set by NOCAP and DHH (GHJ caches nothing and runs it
//! off): a small [`BloomFilter`] built over the completed in-memory build
//! table's keys (charged against the executor's [`BufferPool`]), consulted
//! in the S-pass probe loop before the hash table.
//!
//! The filter is a pure CPU optimization with a hard equivalence contract:
//!
//! * **No output change.** A Bloom filter has no false negatives, so a
//!   negative answer only skips probes that would have found nothing; a
//!   filtered-out record takes exactly the `probe_count == 0` route of the
//!   unfiltered loop.
//! * **No modeled-I/O change.** NOCAP and DHH take the reservation *after
//!   the build pass*, from the pages their staging quotas did not end up
//!   holding (a resident partition's quota carries a slack, a destaged one
//!   keeps one output page of its quota), so partition geometry, quotas and
//!   destaging are the same with the filter on or off and the filter never
//!   overdraws the budget; when the build left no spare page the filter is
//!   simply skipped (never a new out-of-memory path). Below `√(F·‖R‖)`,
//!   where there is one partition per page but one, that leaves the filter
//!   one page instead of the two it asks for.
//! * **Thread-count invariant.** Filter bits depend only on the build-side
//!   key multiset (inserts commute), which is identical for the sequential
//!   and every parallel execution.

use nocap_storage::{BloomFilter, BufferPool, JoinHashTable, Reservation};

/// Configuration of the probe-side Bloom pre-filter (on by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeBloom {
    /// Whether the pre-filter is consulted at all.
    pub enabled: bool,
    /// Pages of buffer-pool memory the filter may occupy (clamped to what
    /// the pool has spare at reservation time).
    pub pages: usize,
}

impl Default for ProbeBloom {
    fn default() -> Self {
        ProbeBloom {
            enabled: true,
            pages: 2,
        }
    }
}

impl ProbeBloom {
    /// Disables the pre-filter (the executors' opt-out knob).
    pub fn off() -> Self {
        ProbeBloom {
            enabled: false,
            pages: 0,
        }
    }

    /// An enabled pre-filter with an explicit page budget.
    pub fn with_pages(pages: usize) -> Self {
        ProbeBloom {
            enabled: pages > 0,
            pages,
        }
    }

    /// Reserves the filter's memory from `pool` at the executor's
    /// designated reservation point (after the build pass, from what the
    /// staging quotas freed, so partition geometry never shifts). Returns
    /// `None` — filter skipped — when disabled or when the pool has nothing
    /// spare; the reservation is clamped, never a new out-of-memory path.
    pub fn reserve(&self, pool: &BufferPool) -> Option<Reservation> {
        if !self.enabled {
            return None;
        }
        let pages = self.pages.min(pool.available());
        if pages == 0 {
            return None;
        }
        pool.reserve(pages).ok()
    }

    /// Builds the filter over the completed build table, sized to the pages
    /// actually reserved. `None` (no reservation, or an empty table) means
    /// the probe loop runs unfiltered.
    pub fn build(
        &self,
        table: &JoinHashTable,
        reservation: &Option<Reservation>,
        page_size: usize,
    ) -> Option<BloomFilter> {
        let reservation = reservation.as_ref()?;
        if table.is_empty() {
            return None;
        }
        Some(BloomFilter::from_keys(
            table.iter().map(|rec| rec.key()),
            table.num_records(),
            reservation.pages(),
            page_size,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocap_storage::{Record, RecordLayout};

    fn table_with_keys(keys: &[u64]) -> JoinHashTable {
        let mut ht = JoinHashTable::new(RecordLayout::new(8), 4096, 1.02);
        for &k in keys {
            ht.insert(Record::new(k, k.to_le_bytes().to_vec()));
        }
        ht
    }

    #[test]
    fn default_is_on_and_off_is_off() {
        assert!(ProbeBloom::default().enabled);
        assert!(ProbeBloom::default().pages > 0);
        assert!(!ProbeBloom::off().enabled);
        assert!(ProbeBloom::with_pages(3).enabled);
        assert!(!ProbeBloom::with_pages(0).enabled);
    }

    #[test]
    fn reservation_is_charged_to_the_pool_and_clamped() {
        let pool = BufferPool::new(10);
        let cfg = ProbeBloom::with_pages(4);
        let res = cfg.reserve(&pool).expect("pages available");
        assert_eq!(res.pages(), 4);
        assert_eq!(pool.in_use(), 4);
        // A second filter only gets what is spare.
        let tight = ProbeBloom::with_pages(100);
        let clamped = tight.reserve(&pool).expect("clamped, not OOM");
        assert_eq!(clamped.pages(), 6);
        assert_eq!(pool.available(), 0);
        // An exhausted pool skips the filter instead of failing.
        assert!(tight.reserve(&pool).is_none());
        drop(res);
        drop(clamped);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn disabled_filter_reserves_nothing() {
        let pool = BufferPool::new(10);
        assert!(ProbeBloom::off().reserve(&pool).is_none());
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn built_filter_has_no_false_negatives_over_the_table() {
        let pool = BufferPool::new(10);
        let cfg = ProbeBloom::default();
        let keys: Vec<u64> = (0..3_000u64).map(|k| k * 3).collect();
        let table = table_with_keys(&keys);
        let res = cfg.reserve(&pool);
        let bf = cfg.build(&table, &res, 4096).expect("filter built");
        assert_eq!(bf.inserted(), keys.len());
        assert!(keys.iter().all(|&k| bf.may_contain(k)));
        // And it actually rejects most foreign keys.
        let rejected = (1_000_000u64..1_001_000)
            .filter(|&k| !bf.may_contain(k))
            .count();
        assert!(rejected > 900, "only {rejected}/1000 foreign keys rejected");
    }

    #[test]
    fn empty_table_or_missing_reservation_skips_the_filter() {
        let cfg = ProbeBloom::default();
        let pool = BufferPool::new(10);
        let res = cfg.reserve(&pool);
        assert!(cfg.build(&table_with_keys(&[]), &res, 4096).is_none());
        assert!(cfg.build(&table_with_keys(&[1]), &None, 4096).is_none());
    }
}
