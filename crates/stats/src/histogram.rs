//! An equi-width fallback histogram over the join-key domain.
//!
//! Where the SpaceSaving summary has nothing reliable to say — near-uniform
//! streams, whose counters are all error term — the histogram provides
//! coarse frequency mass per key range: `buckets` equal-width buckets, the
//! per-key estimate assuming uniformity within a bucket. That is the classic
//! equi-width assumption of textbook optimizers, exactly the "no correlation
//! knowledge" baseline the paper argues against; it is kept as the fallback
//! of last resort.
//!
//! No domain knowledge is needed. Buckets start one key wide at a **pinned**
//! anchor `lo` and, whenever a key lands beyond the covered range, the
//! bucket width doubles (adjacent buckets merge pairwise) until it fits —
//! the standard one-pass trick for streaming equi-width histograms. The
//! anchor never moves and keys below it clamp into the first bucket, so no
//! decision depends on arrival order: the histogram is an
//! *order-insensitive, exactly mergeable* function of the observed key
//! multiset — the property sharded statistics collection stands on. Widths
//! are always `2^i`, so two histograms with the same anchor and bucket
//! count merge regardless of how far each expanded.

/// An equi-width histogram over `u64` keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquiWidthHistogram {
    lo: u64,
    counts: Vec<u64>,
    /// Distinct-key width of each bucket.
    bucket_width: u64,
    total: u64,
}

impl EquiWidthHistogram {
    /// Creates a histogram of `buckets ≥ 1` buckets whose anchor is
    /// **pinned** at `lo`: buckets start one key wide and the width doubles
    /// to cover keys beyond the top of the range, but the anchor never
    /// moves and keys below `lo` clamp into the first bucket.
    ///
    /// Pinning leaves no order-dependent decision in the histogram: the
    /// final bucket width is the smallest power of two covering the largest
    /// observed key, each count is exactly the mass of
    /// `⌊(key − lo) / width⌋`, and [`merge`](Self::merge) of two histograms
    /// equals the histogram of the concatenated streams, bit for bit, for
    /// **any** split of the stream. The price is that domains far from the
    /// anchor (snowflake-style ids) coarsen across the gap.
    pub fn adaptive_pinned(lo: u64, buckets: usize) -> Self {
        EquiWidthHistogram {
            lo,
            counts: vec![0; buckets.max(1)],
            bucket_width: 1,
            total: 0,
        }
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.counts.len()
    }

    /// Total observed weight.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Distinct-key width of each bucket.
    pub fn bucket_width(&self) -> u64 {
        self.bucket_width
    }

    /// Exclusive upper end of the covered range.
    fn hi(&self) -> u128 {
        self.lo as u128 + self.bucket_width as u128 * self.counts.len() as u128
    }

    /// The bucket index a key falls into (clamped into the covered range).
    pub fn bucket_of(&self, key: u64) -> usize {
        let key = key.max(self.lo);
        (((key - self.lo) / self.bucket_width) as usize).min(self.counts.len() - 1)
    }

    /// Doubles the bucket width by merging adjacent bucket pairs (an odd
    /// trailing bucket carries over unpaired).
    fn expand(&mut self) {
        let n = self.counts.len();
        let half = n.div_ceil(2);
        for i in 0..half {
            let a = self.counts[2 * i];
            let b = if 2 * i + 1 < n {
                self.counts[2 * i + 1]
            } else {
                0
            };
            self.counts[i] = a + b;
        }
        for c in self.counts.iter_mut().skip(half) {
            *c = 0;
        }
        self.bucket_width = self.bucket_width.saturating_mul(2);
    }

    /// Observes one occurrence of `key`.
    pub fn add(&mut self, key: u64) {
        self.add_weighted(key, 1);
    }

    /// Observes `weight` occurrences of `key`. Keys below the anchor clamp
    /// into the first bucket (`bucket_of` does it), keys above the covered
    /// range double the bucket width until they fit — both
    /// order-insensitive.
    pub fn add_weighted(&mut self, key: u64, weight: u64) {
        while (key as u128) >= self.hi() {
            let before = self.bucket_width;
            self.expand();
            if self.bucket_width == before {
                break; // width saturated at u64::MAX; clamp into the top bucket
            }
        }
        let b = self.bucket_of(key);
        self.counts[b] += weight;
        self.total += weight;
    }

    /// Total weight in the bucket containing `key`.
    pub fn bucket_mass(&self, key: u64) -> u64 {
        self.counts[self.bucket_of(key)]
    }

    /// Per-key frequency estimate under the uniformity assumption:
    /// bucket mass divided by the bucket's key width.
    pub fn estimate(&self, key: u64) -> f64 {
        self.bucket_mass(key) as f64 / self.bucket_width as f64
    }

    /// Merges `other` into `self` by bucket-wise addition; the narrower of
    /// the two expands to the wider width first.
    ///
    /// # Panics
    /// If the histograms differ in origin or bucket count.
    pub fn merge(&mut self, other: &EquiWidthHistogram) {
        assert_eq!(
            (self.lo, self.counts.len()),
            (other.lo, other.counts.len()),
            "can only merge histograms with the same origin and bucket count"
        );
        let mut other = other.clone();
        while self.bucket_width < other.bucket_width {
            self.expand();
        }
        while other.bucket_width < self.bucket_width {
            other.expand();
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_domain() {
        let mut h = EquiWidthHistogram::adaptive_pinned(0, 10);
        h.add(999); // 10 buckets x 128 is the first power-of-two cover of 999
        assert_eq!(h.num_buckets(), 10);
        assert_eq!(h.bucket_width(), 128);
        assert_eq!(h.bucket_of(0), 0);
        assert_eq!(h.bucket_of(127), 0);
        assert_eq!(h.bucket_of(128), 1);
        assert_eq!(h.bucket_of(999), 7);
    }

    #[test]
    fn uniform_data_gives_uniform_estimates() {
        let mut h = EquiWidthHistogram::adaptive_pinned(0, 16);
        for k in 0..1_024u64 {
            h.add_weighted(k, 5);
        }
        for probe in [0u64, 250, 500, 1_023] {
            assert!((h.estimate(probe) - 5.0).abs() < 1e-9);
        }
    }

    #[test]
    fn degenerate_domains_do_not_panic() {
        // Zero buckets requested: one bucket that widens over everything.
        let mut h = EquiWidthHistogram::adaptive_pinned(7, 0);
        h.add(7);
        h.add(8);
        assert_eq!(h.total(), 2);
        assert_eq!(h.num_buckets(), 1);
    }

    #[test]
    fn adaptive_histogram_tracks_the_observed_range() {
        let mut h = EquiWidthHistogram::adaptive_pinned(0, 64);
        for k in 0..20_000u64 {
            h.add(k);
        }
        // Width grew to the smallest power of two covering 20000 keys with
        // 64 buckets: 512 (64 * 512 = 32768 >= 20000).
        assert_eq!(h.bucket_width(), 512);
        assert_eq!(h.total(), 20_000);
        // Uniform stream: fully-covered buckets estimate ~1 per key (the
        // last bucket is only partially observed, so probe inside).
        for probe in [0u64, 5_000, 19_000] {
            assert!(
                (h.estimate(probe) - 1.0).abs() < 0.01,
                "estimate({probe}) = {}",
                h.estimate(probe)
            );
        }
        // Mass conservation through expansion.
        let covered: u64 = (0..h.num_buckets())
            .map(|i| h.bucket_mass(i as u64 * h.bucket_width()))
            .sum();
        assert_eq!(covered, 20_000);
    }

    #[test]
    fn adaptive_expansion_preserves_skew() {
        let mut h = EquiWidthHistogram::adaptive_pinned(0, 32);
        for _ in 0..900 {
            h.add(3); // hot key in the first bucket
        }
        for k in 0..10_000u64 {
            h.add(k); // force several expansions
        }
        assert!(
            h.estimate(3) > 2.0 * h.estimate(9_000),
            "head must stay hot"
        );
    }

    #[test]
    fn extreme_keys_terminate_even_when_the_width_saturates() {
        // Regression: with one bucket, lo = 0 and key = u64::MAX, hi() can
        // never exceed the key, so expansion must detect saturation and
        // clamp instead of looping forever.
        let mut h = EquiWidthHistogram::adaptive_pinned(0, 1);
        h.add(0);
        h.add(u64::MAX);
        assert_eq!(h.total(), 2);
        let mut wide = EquiWidthHistogram::adaptive_pinned(0, 8);
        wide.add(1);
        wide.add(u64::MAX);
        wide.add(42);
        assert_eq!(wide.total(), 3);
    }

    #[test]
    fn adaptive_histogram_handles_shuffled_streams() {
        // A shuffled 0-based domain: the first key lands mid-domain and
        // smaller keys arrive later, which must cost no resolution.
        let mut h = EquiWidthHistogram::adaptive_pinned(0, 64);
        let mut keys: Vec<u64> = (0..4_096u64).collect();
        // Deterministic shuffle-ish interleave: stride by a coprime (the
        // +1 offset keeps key 0 away from the front).
        keys.sort_by_key(|&k| ((k + 1) * 2_654_435_761) % 4_096);
        assert_ne!(keys[0], 0, "test premise: first key is mid-domain");
        for &k in &keys {
            h.add(k);
        }
        assert_eq!(h.total(), 4_096);
        // 64 buckets over 4096 keys: exactly the width a sorted stream
        // settles at, every bucket full.
        assert_eq!(h.bucket_width(), 64);
        for probe in [100u64, 2_000, 3_900] {
            assert!(
                (h.estimate(probe) - 1.0).abs() < 1e-9,
                "estimate({probe}) = {} should be 1",
                h.estimate(probe)
            );
        }
    }

    #[test]
    fn merge_adds_bucketwise() {
        let mut a = EquiWidthHistogram::adaptive_pinned(0, 4);
        let mut b = EquiWidthHistogram::adaptive_pinned(0, 4);
        a.add_weighted(10, 3);
        b.add_weighted(10, 4);
        b.add_weighted(90, 2);
        a.merge(&b);
        assert_eq!(a.bucket_mass(10), 7);
        assert_eq!(a.bucket_mass(90), 2);
        assert_eq!(a.total(), 9);
    }

    #[test]
    fn adaptive_merge_reconciles_widths() {
        let mut narrow = EquiWidthHistogram::adaptive_pinned(0, 16);
        let mut wide = EquiWidthHistogram::adaptive_pinned(0, 16);
        for k in 0..16u64 {
            narrow.add(k); // width stays 1
        }
        for k in 0..1_000u64 {
            wide.add(k); // width expands to 64
        }
        narrow.merge(&wide);
        assert_eq!(narrow.bucket_width(), 64);
        assert_eq!(narrow.total(), 1_016);
        // The first bucket holds both streams' mass over keys 0..64.
        assert_eq!(narrow.bucket_mass(0), 16 + 64);
    }

    #[test]
    #[should_panic(expected = "same origin")]
    fn mismatched_merge_panics() {
        let mut a = EquiWidthHistogram::adaptive_pinned(0, 4);
        let b = EquiWidthHistogram::adaptive_pinned(100, 4);
        a.merge(&b);
    }

    #[test]
    fn pinned_histogram_is_order_insensitive() {
        // The same multiset in three very different orders must produce the
        // same histogram, bit for bit.
        let keys: Vec<u64> = (0..5_000u64).map(|k| (k * k) % 9_973).collect();
        let build = |order: &[u64]| {
            let mut h = EquiWidthHistogram::adaptive_pinned(0, 32);
            for &k in order {
                h.add(k);
            }
            h
        };
        let forward = build(&keys);
        let mut reversed = keys.clone();
        reversed.reverse();
        let mut shuffled = keys.clone();
        shuffled.sort_by_key(|&k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17);
        assert_eq!(forward, build(&reversed));
        assert_eq!(forward, build(&shuffled));
    }

    #[test]
    fn pinned_merge_equals_the_concatenated_stream_for_any_split() {
        let keys: Vec<u64> = (0..4_096u64).map(|k| k.wrapping_mul(31) % 6_000).collect();
        let mut whole = EquiWidthHistogram::adaptive_pinned(0, 64);
        for &k in &keys {
            whole.add(k);
        }
        for split in [1usize, 7, 1_000, 4_095] {
            let (left, right) = keys.split_at(split);
            let mut a = EquiWidthHistogram::adaptive_pinned(0, 64);
            let mut b = EquiWidthHistogram::adaptive_pinned(0, 64);
            for &k in left {
                a.add(k);
            }
            for &k in right {
                b.add(k);
            }
            a.merge(&b);
            assert_eq!(a, whole, "split at {split} must merge exactly");
        }
    }

    #[test]
    fn pinned_histogram_clamps_below_the_anchor_and_never_reanchors() {
        let mut h = EquiWidthHistogram::adaptive_pinned(100, 8);
        h.add(500); // grows the width upward
        h.add(3); // below the anchor: clamps into the first bucket
        assert_eq!(h.total(), 2);
        assert_eq!(h.bucket_mass(100), 1, "key 3 clamps into the first bucket");
        let lo_mass = h.bucket_mass(100);
        h.add(0);
        assert_eq!(h.bucket_mass(100), lo_mass + 1);
    }
}
