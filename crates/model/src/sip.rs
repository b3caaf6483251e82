//! Sideways information passing: what is left of the probe-side Bloom
//! pre-filter.
//!
//! §6 of the paper discusses passing a compact summary of the build side
//! into the probe side so that S records without a partner are rejected
//! before they cost anything. The hybrid hash join body once consulted a
//! two-page [`BloomFilter`](nocap_storage::BloomFilter) over its in-memory
//! table before probing the table itself. It no longer does: the S pass
//! probes the sealed table first and routes only on a miss, and the table's
//! vectorized probe is the cheaper first test: a filter in front of it is a
//! slower probe that still lets through a sizeable share of the records it
//! should reject (the benchmark's `kernel.bloom_probe` and `kernel.ht_probe`
//! rows time both on the same keys).
//!
//! [`ProbeBloom`] stays only because the benchmark's `kernel.bloom_*` rows
//! size their filter by [`ProbeBloom::default`]'s page count; it goes when
//! those rows do.

/// The probe pre-filter's former page budget, read by the benchmark's
/// Bloom kernel row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeBloom {
    /// Pages of buffer-pool memory the filter occupied.
    pub pages: usize,
}

impl Default for ProbeBloom {
    fn default() -> Self {
        ProbeBloom { pages: 2 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocap_storage::{BloomFilter, JoinHashTable, Record, RecordLayout};

    #[test]
    fn built_filter_has_no_false_negatives_over_the_table() {
        // The benchmark's kernel row builds exactly this filter: the default
        // page budget over a sealed table's keys.
        let mut table = JoinHashTable::new(RecordLayout::new(8), 4096, 1.02);
        let keys: Vec<u64> = (0..3_000u64).map(|k| k * 3).collect();
        for &k in &keys {
            table.insert(Record::new(k, k.to_le_bytes().to_vec()));
        }
        table.seal();
        let pages = ProbeBloom::default().pages;
        let bf = BloomFilter::from_keys(
            table.iter().map(|rec| rec.key()),
            table.num_records(),
            pages,
            4096,
        );
        assert_eq!(bf.inserted(), keys.len());
        assert!(keys.iter().all(|&k| bf.may_contain(k)));
        // And it actually rejects most foreign keys.
        let rejected = (1_000_000u64..1_001_000)
            .filter(|&k| !bf.may_contain(k))
            .count();
        assert!(rejected > 900, "only {rejected}/1000 foreign keys rejected");
    }
}
