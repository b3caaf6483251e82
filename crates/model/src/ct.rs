//! The correlation table: per-primary-key match counts.
//!
//! `CT[i]` is the number of records in the fact table S that join with the
//! i-th record of the dimension table R (§3). OCAP's dynamic program assumes
//! CT is sorted in ascending order (Theorem 3.1); [`CorrelationTable`] keeps
//! the counts sorted and maintains prefix sums so that range sums — the
//! `Σ CT[s..e]` term of `CalCost` — are O(1).
//!
//! The table also remembers the permutation back to the original key order so
//! that planners can translate "the i-th smallest CT entry" into an actual
//! join key.

/// Per-key match counts, sorted ascending, with prefix sums.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorrelationTable {
    /// Match counts sorted in ascending order.
    sorted: Vec<u64>,
    /// `prefix[i]` = sum of `sorted[0..i]`; length = n + 1.
    prefix: Vec<u64>,
    /// `keys[i]` = the join key whose count is `sorted[i]`.
    keys: Vec<u64>,
}

impl CorrelationTable {
    /// Builds a correlation table from `(key, match_count)` pairs.
    pub fn from_pairs<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (u64, u64)>,
    {
        let mut entries: Vec<(u64, u64)> = pairs.into_iter().collect();
        entries.sort_unstable_by_key(|&(key, count)| (count, key));
        let mut sorted = Vec::with_capacity(entries.len());
        let mut keys = Vec::with_capacity(entries.len());
        for (key, count) in entries {
            keys.push(key);
            sorted.push(count);
        }
        let prefix = Self::build_prefix(&sorted);
        CorrelationTable {
            sorted,
            prefix,
            keys,
        }
    }

    /// Builds a table where the i-th key is `i` itself (convenient for
    /// synthetic workloads where keys are dense integers).
    pub fn from_counts<I>(counts: I) -> Self
    where
        I: IntoIterator<Item = u64>,
    {
        Self::from_pairs(counts.into_iter().enumerate().map(|(i, c)| (i as u64, c)))
    }

    fn build_prefix(sorted: &[u64]) -> Vec<u64> {
        let mut prefix = Vec::with_capacity(sorted.len() + 1);
        prefix.push(0);
        let mut acc = 0u64;
        for &c in sorted {
            acc += c;
            prefix.push(acc);
        }
        prefix
    }

    /// Number of entries (the paper's n, the number of R records with a
    /// known count).
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Returns `true` if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The ascending counts.
    pub fn counts(&self) -> &[u64] {
        &self.sorted
    }

    /// The join key associated with the i-th (0-based, ascending) count.
    pub fn key_at(&self, idx: usize) -> u64 {
        self.keys[idx]
    }

    /// The i-th (0-based) smallest count.
    pub fn count_at(&self, idx: usize) -> u64 {
        self.sorted[idx]
    }

    /// Total number of matching S records, `Σ_i CT[i]` (= n_S when every S
    /// record has a PK partner).
    pub fn total_matches(&self) -> u64 {
        *self.prefix.last().unwrap_or(&0)
    }

    /// Sum of counts over the half-open 0-based range `[start, end)`.
    pub fn range_sum(&self, start: usize, end: usize) -> u64 {
        debug_assert!(start <= end && end <= self.len());
        self.prefix[end] - self.prefix[start]
    }

    /// The keys with the `k` largest counts, most frequent first, as
    /// `(key, count)` pairs. This is the MCV view planners consume.
    pub fn top_k(&self, k: usize) -> Vec<(u64, u64)> {
        let n = self.len();
        let take = k.min(n);
        (0..take)
            .map(|i| {
                let idx = n - 1 - i;
                (self.keys[idx], self.sorted[idx])
            })
            .collect()
    }

    /// Number of entries with a zero count (R records with no match in S);
    /// the optimal partitioning excludes these entirely (§3.1.1).
    pub fn zero_entries(&self) -> usize {
        self.sorted.partition_point(|&c| c == 0)
    }

    /// A sub-table containing only the 0-based ascending index range
    /// `[start, end)`, with prefix sums of its own. Costing a range needs no
    /// copy — [`range_sum`](Self::range_sum) on this table is enough.
    pub fn slice(&self, start: usize, end: usize) -> CorrelationTable {
        debug_assert!(start <= end && end <= self.len());
        let sorted = self.sorted[start..end].to_vec();
        let keys = self.keys[start..end].to_vec();
        let prefix = Self::build_prefix(&sorted);
        CorrelationTable {
            sorted,
            prefix,
            keys,
        }
    }

    /// Skew summary: the fraction of all S matches owned by the `k` most
    /// frequent keys. 0.0 for an empty table.
    pub fn top_k_mass(&self, k: usize) -> f64 {
        let total = self.total_matches();
        if total == 0 {
            return 0.0;
        }
        let n = self.len();
        let start = n.saturating_sub(k);
        self.range_sum(start, n) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_sorted_ascending_with_keys_attached() {
        let ct = CorrelationTable::from_pairs(vec![(10, 5), (11, 1), (12, 9), (13, 0)]);
        assert_eq!(ct.counts(), &[0, 1, 5, 9]);
        assert_eq!(ct.key_at(0), 13);
        assert_eq!(ct.key_at(3), 12);
        assert_eq!(ct.len(), 4);
    }

    #[test]
    fn the_unstable_sort_gives_the_stable_sorts_table() {
        // Ties on count are broken by key, and duplicate pairs are equal
        // tuples, so no two unequal entries compare equal.
        let pairs = vec![
            (7, 2),
            (3, 2),
            (9, 0),
            (3, 2),
            (1, 5),
            (4, 2),
            (9, 0),
            (2, 5),
            (8, 1),
        ];
        let mut stable = pairs.clone();
        stable.sort_by_key(|&(key, count)| (count, key));
        let ct = CorrelationTable::from_pairs(pairs);
        let table: Vec<(u64, u64)> = (0..ct.len())
            .map(|i| (ct.key_at(i), ct.counts()[i]))
            .collect();
        assert_eq!(table, stable);
        assert_eq!(ct.total_matches(), 19);
    }

    #[test]
    fn prefix_sums_give_range_sums() {
        let ct = CorrelationTable::from_counts(vec![3, 1, 4, 1, 5, 9, 2, 6]);
        assert_eq!(ct.total_matches(), 31);
        assert_eq!(ct.range_sum(0, ct.len()), 31);
        assert_eq!(ct.range_sum(0, 0), 0);
        // Sorted order: 1,1,2,3,4,5,6,9
        assert_eq!(ct.range_sum(0, 3), 4);
        assert_eq!(ct.range_sum(5, 8), 20);
    }

    #[test]
    fn top_k_returns_most_frequent_first() {
        let ct = CorrelationTable::from_pairs(vec![(1, 100), (2, 5), (3, 50), (4, 7)]);
        let top2 = ct.top_k(2);
        assert_eq!(top2, vec![(1, 100), (3, 50)]);
        assert_eq!(ct.top_k(10).len(), 4);
    }

    #[test]
    fn zero_entries_counted() {
        let ct = CorrelationTable::from_counts(vec![0, 0, 3, 0, 1]);
        assert_eq!(ct.zero_entries(), 3);
        let none = CorrelationTable::from_counts(vec![2, 1]);
        assert_eq!(none.zero_entries(), 0);
    }

    #[test]
    fn slice_preserves_order_and_sums() {
        let ct = CorrelationTable::from_counts(vec![5, 3, 8, 1, 9, 2]);
        let sub = ct.slice(1, 4);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.counts(), &ct.counts()[1..4]);
        assert_eq!(sub.total_matches(), ct.range_sum(1, 4));
    }

    #[test]
    fn top_k_mass_reflects_skew() {
        // One hot key owns 90 of 100 matches.
        let mut counts = vec![1u64; 10];
        counts.push(90);
        let ct = CorrelationTable::from_counts(counts);
        assert!((ct.top_k_mass(1) - 0.9).abs() < 1e-9);
        assert!((ct.top_k_mass(100) - 1.0).abs() < 1e-9);
        let uniform = CorrelationTable::from_counts(vec![4u64; 25]);
        assert!((uniform.top_k_mass(5) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn empty_table_has_no_matches() {
        let empty = CorrelationTable::from_counts(Vec::<u64>::new());
        assert!(empty.is_empty());
        assert_eq!(empty.total_matches(), 0);
        assert_eq!(empty.top_k_mass(3), 0.0);
        assert_eq!(empty.top_k(3).len(), 0);
    }
}
