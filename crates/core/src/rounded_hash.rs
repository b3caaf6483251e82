//! Rounded hash (§4.2): chunk-aligned partition assignment.
//!
//! Plain hash partitioning assigns records to `hash(key) mod m`, producing m
//! partitions of nearly identical size. When that size is slightly above a
//! multiple of the NBJ chunk `c_R`, every partition needs an extra pass over
//! its S data. Rounded hash inserts an intermediate modulus:
//!
//! ```text
//! PartID = (hash(key) mod ⌈n / c*_R⌉) mod m          with c*_R = β · c_R
//! ```
//!
//! so that keys are first grouped into chunk-sized buckets and whole buckets
//! are dealt round-robin to partitions. Most partitions then hold an exact
//! number of chunks; only `⌈n/c*_R⌉ mod m` of them pay one extra pass.

use nocap_model::RoundedHashParams;

/// SplitMix64 — a fast, well-mixed 64-bit hash used for partition routing.
///
/// Delegates to the workspace-wide [`nocap_storage::hash::mix64`] (pinned
/// bit-for-bit there) so every router, hash table and bloom filter agrees on
/// the key hash.
#[inline]
pub fn mix_key(key: u64) -> u64 {
    nocap_storage::hash::mix64(key)
}

/// A partition-routing function: either plain hash or rounded hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundedHash {
    /// Number of chunk-sized buckets (`⌈n / c*_R⌉`); `0` disables rounding
    /// and the router degenerates to plain hash.
    buckets: u64,
    /// Number of partitions (m).
    partitions: u64,
}

impl RoundedHash {
    /// Builds a rounded-hash router for an estimated `n_estimate` keys split
    /// into `m` partitions with chunk size `c_r`.
    ///
    /// If the parameters say rounding would not help (see
    /// [`RoundedHashParams::rh_enabled`]) the router silently degenerates to
    /// plain hash, exactly as NOCAP's implementation disables RH near the
    /// overflow threshold.
    pub fn new(n_estimate: usize, m: usize, c_r: usize, params: &RoundedHashParams) -> Self {
        let m = m.max(1);
        RoundedHash {
            buckets: params.rounding_buckets(n_estimate, m, c_r) as u64,
            partitions: m as u64,
        }
    }

    /// A plain-hash router over `m` partitions (used by GHJ/DHH and by NOCAP
    /// when rounding is disabled).
    pub fn plain(m: usize) -> Self {
        RoundedHash {
            buckets: 0,
            partitions: m.max(1) as u64,
        }
    }

    /// Number of partitions this router spreads keys over.
    pub fn num_partitions(&self) -> usize {
        self.partitions as usize
    }

    /// The partition a key is routed to.
    #[inline]
    pub fn partition_of(&self, key: u64) -> usize {
        let h = mix_key(key);
        if self.buckets == 0 {
            (h % self.partitions) as usize
        } else {
            ((h % self.buckets) % self.partitions) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_hash_spreads_uniformly() {
        let rh = RoundedHash::plain(8);
        assert_eq!(rh.buckets, 0, "plain hash");
        let mut counts = [0usize; 8];
        for k in 0..80_000u64 {
            counts[rh.partition_of(k)] += 1;
        }
        let min = *counts.iter().min().unwrap() as f64;
        let max = *counts.iter().max().unwrap() as f64;
        assert!(max / min < 1.1, "plain hash should balance partitions");
    }

    #[test]
    fn rounded_hash_creates_chunk_aligned_partitions() {
        // 18 "pages" worth of keys, chunk 3, 4 partitions — the Figure 7
        // setup. With β = 1 the router builds 6 buckets over 4 partitions:
        // two partitions receive 2 buckets and two receive 1.
        let params = RoundedHashParams { beta: 1.0 };
        let n = 18_000usize;
        let c_r = 3_000usize;
        let rh = RoundedHash::new(n, 4, c_r, &params);
        assert!(rh.buckets > 0, "rounding is active");
        let mut counts = vec![0usize; 4];
        for k in 0..n as u64 {
            counts[rh.partition_of(k)] += 1;
        }
        counts.sort_unstable();
        // Two small partitions of ≈1 bucket, two large of ≈2 buckets.
        let small_avg = (counts[0] + counts[1]) as f64 / 2.0;
        let large_avg = (counts[2] + counts[3]) as f64 / 2.0;
        assert!(
            large_avg / small_avg > 1.6,
            "bucketed routing should create ~2:1 partition sizes, got {counts:?}"
        );
    }

    #[test]
    fn degenerates_to_plain_hash_for_few_keys() {
        let params = RoundedHashParams::default();
        let rh = RoundedHash::new(10, 8, 100, &params);
        assert_eq!(rh.buckets, 0, "plain hash");
        assert_eq!(rh.num_partitions(), 8);
    }

    #[test]
    fn all_partitions_reachable() {
        let params = RoundedHashParams::default();
        let rh = RoundedHash::new(100_000, 16, 1_000, &params);
        let mut seen = vec![false; 16];
        for k in 0..100_000u64 {
            seen[rh.partition_of(k)] = true;
        }
        assert!(
            seen.into_iter().all(|s| s),
            "every partition should receive keys"
        );
    }

    #[test]
    fn deterministic_routing() {
        let rh = RoundedHash::new(5_000, 7, 100, &RoundedHashParams::default());
        for k in [0u64, 1, 42, 65_535, u64::MAX] {
            assert_eq!(rh.partition_of(k), rh.partition_of(k));
        }
    }
}
