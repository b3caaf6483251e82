//! A blocked Bloom filter over join keys.
//!
//! §6 of the paper discusses sideways information passing (SIP): while
//! partitioning R, build a Bloom filter over its join keys and consult it
//! while partitioning S, so that S records without a partner are dropped
//! immediately instead of being spilled and re-read. No executor consults
//! one: the hybrid hash join probes its sealed in-memory table first, which
//! is the cheaper test (see `sip` in `nocap-model`); the benchmark's
//! `kernel.bloom_*` rows still time this filter.
//!
//! The filter is *cache-blocked*: a key's block — one 64-byte cache line —
//! is chosen by the first hash, and all `k` probe bits land inside that
//! block, so an insert or lookup touches exactly one cache line no matter
//! how many hash functions are configured. Both hash streams come from the
//! shared [`crate::hash`] utility, with the Murmur stream keeping bloom bit
//! positions independent of the SplitMix64 partition routing even though
//! both consume the same key.
//!
//! What is left of the API is what the kernel row calls: build a filter
//! over a key set within a page budget ([`BloomFilter::from_keys`]) and
//! probe it ([`BloomFilter::may_contain`]).

use crate::hash::{mix64, murmur_mix64};

/// Bits per block: one 64-byte cache line.
const BLOCK_BITS: u64 = 512;
/// 64-bit words per block.
const BLOCK_WORDS: usize = 8;

/// A cache-blocked Bloom filter keyed by `u64` join keys.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    /// `num_blocks × BLOCK_WORDS` words; a key's bits all live in one block.
    bits: Vec<u64>,
    num_blocks: u64,
    num_hashes: u32,
    inserted: usize,
}

impl BloomFilter {
    /// An empty filter of `pages` pages of `page_size` bytes (at least one
    /// 512-bit block), with the number of hash functions chosen for
    /// `expected_keys` keys (clamped to `[1, 16]`).
    fn with_page_budget(expected_keys: usize, pages: usize, page_size: usize) -> Self {
        let num_bits = ((pages.max(1) * page_size.max(64)) * 8) as u64;
        let n = expected_keys.max(1) as f64;
        let num_hashes = ((num_bits as f64 / n) * std::f64::consts::LN_2)
            .round()
            .clamp(1.0, 16.0) as u32;
        let num_blocks = (num_bits / BLOCK_BITS).max(1);
        BloomFilter {
            bits: vec![0u64; num_blocks as usize * BLOCK_WORDS],
            num_blocks,
            num_hashes,
            inserted: 0,
        }
    }

    /// Builds a filter over `keys` in `pages` pages of `page_size` bytes,
    /// probing as many bits per key as suit `expected_keys` keys. Bit
    /// contents depend only on the key *multiset* (inserts commute), so any
    /// arrival order produces the same filter.
    pub fn from_keys(
        keys: impl IntoIterator<Item = u64>,
        expected_keys: usize,
        pages: usize,
        page_size: usize,
    ) -> Self {
        let mut bf = Self::with_page_budget(expected_keys, pages, page_size);
        for k in keys {
            bf.insert(k);
        }
        bf
    }

    /// Number of keys inserted so far.
    pub fn inserted(&self) -> usize {
        self.inserted
    }

    /// The block base word and the two intra-block probe streams for `key`.
    #[inline]
    fn probe_streams(&self, key: u64) -> (usize, u64, u64) {
        let a = mix64(key);
        let b = murmur_mix64(key) | 1;
        // Multiply-high range reduction (Lemire): maps `a` uniformly onto
        // `0..num_blocks` without the per-probe 64-bit division a modulo
        // would cost — this sits in every executor's S-loop.
        let block = ((a as u128 * self.num_blocks as u128) >> 64) as usize * BLOCK_WORDS;
        // Intra-block positions come from bits 33..64 of `a` (the block
        // choice keys off the topmost bits, and only 9 of these survive the
        // mod-512 fold) stepped by the independent odd Murmur stream.
        (block, a >> 33, b)
    }

    /// Inserts a key: sets `num_hashes` bits, all inside one cache-line
    /// block.
    fn insert(&mut self, key: u64) {
        let (block, start, step) = self.probe_streams(key);
        for i in 0..self.num_hashes as u64 {
            let bit = start.wrapping_add(i.wrapping_mul(step)) % BLOCK_BITS;
            self.bits[block + (bit / 64) as usize] |= 1u64 << (bit % 64);
        }
        self.inserted += 1;
    }

    /// Returns `false` if the key was definitely never inserted; `true`
    /// means "probably present". Touches exactly one cache-line block.
    pub fn may_contain(&self, key: u64) -> bool {
        // The first probe bit needs only the primary stream, so the Murmur
        // stream is computed lazily: roughly half of all true negatives
        // fail on bit 0 and never pay for the second hash.
        let a = mix64(key);
        let block = ((a as u128 * self.num_blocks as u128) >> 64) as usize * BLOCK_WORDS;
        let start = a >> 33;
        let first = start % BLOCK_BITS;
        if self.bits[block + (first / 64) as usize] & (1u64 << (first % 64)) == 0 {
            return false;
        }
        let step = murmur_mix64(key) | 1;
        (1..self.num_hashes as u64).all(|i| {
            let bit = start.wrapping_add(i.wrapping_mul(step)) % BLOCK_BITS;
            self.bits[block + (bit / 64) as usize] & (1u64 << (bit % 64)) != 0
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bits set in the filter.
    fn set_bits(bf: &BloomFilter) -> u32 {
        bf.bits.iter().map(|w| w.count_ones()).sum()
    }

    #[test]
    fn no_false_negatives() {
        let keys = (0..10_000u64).map(|k| k * 7 + 3);
        let bf = BloomFilter::from_keys(keys.clone(), 10_000, 3, 4096);
        for k in keys {
            assert!(bf.may_contain(k), "inserted key must always hit");
        }
        assert_eq!(bf.inserted(), 10_000);
    }

    #[test]
    fn false_positive_rate_is_roughly_as_configured() {
        // Six 4 KB pages over 20 000 keys: the bits an unblocked filter
        // needs for a 1 % false-positive rate.
        let bf = BloomFilter::from_keys(0..20_000u64, 20_000, 6, 4096);
        let false_positives = (1_000_000u64..1_050_000)
            .filter(|&k| bf.may_contain(k))
            .count();
        let rate = false_positives as f64 / 50_000.0;
        // Blocking costs a little FPR versus an unblocked filter at the
        // same size; it must still stay in the same decade as the target.
        assert!(
            rate < 0.05,
            "observed false-positive rate {rate} far above the 0.01 target"
        );
    }

    #[test]
    fn page_budget_constructor_respects_the_budget() {
        let bf = BloomFilter::from_keys([], 100_000, 4, 4096);
        assert_eq!(bf.bits.len() * 64, 4 * 4096 * 8);
    }

    #[test]
    fn pages_charge_at_the_constructed_page_size() {
        // The budget is in pages of the given size, not DEFAULT_PAGE_SIZE.
        let bf = BloomFilter::from_keys([], 1_000, 2, 512);
        assert_eq!(bf.bits.len() * 64, 2 * 512 * 8);
        let one = BloomFilter::from_keys([], 1_000, 1, 65_536);
        assert_eq!(one.bits.len() * 64, 65_536 * 8);
    }

    #[test]
    fn tiny_budgets_degrade_to_one_block() {
        let bf = BloomFilter::from_keys(0..10u64, 10, 1, 64);
        assert_eq!(bf.num_blocks, 1);
        assert_eq!(bf.bits.len() * 64, BLOCK_BITS as usize);
        assert!((0..10u64).all(|k| bf.may_contain(k)));
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let bf = BloomFilter::from_keys([], 100, 1, 4096);
        assert!(!bf.may_contain(42));
        assert_eq!(set_bits(&bf), 0);
    }

    #[test]
    fn insertions_set_bits_without_saturating() {
        let bf = BloomFilter::from_keys(0..1_000u64, 1_000, 1, 4096);
        let fill = set_bits(&bf) as f64 / (bf.bits.len() * 64) as f64;
        assert!(fill > 0.0);
        assert!(fill < 0.9, "a correctly sized filter is not saturated");
    }

    #[test]
    fn from_keys_is_arrival_order_invariant() {
        let keys: Vec<u64> = (0..5_000u64).map(|k| k * 11).collect();
        let forward = BloomFilter::from_keys(keys.iter().copied(), keys.len(), 2, 4096);
        let mut reversed_keys = keys.clone();
        reversed_keys.reverse();
        let reversed = BloomFilter::from_keys(reversed_keys.iter().copied(), keys.len(), 2, 4096);
        assert_eq!(forward.bits, reversed.bits);
        assert_eq!(forward.inserted(), reversed.inserted());
        for &k in &keys {
            assert!(forward.may_contain(k));
        }
    }

    #[test]
    fn all_probe_bits_stay_inside_one_block() {
        // One key in an otherwise empty filter: every set bit must live
        // inside a single 8-word block — the cache-line contract.
        for key in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF] {
            let bf = BloomFilter::from_keys([key], 1_000, 4, 4096);
            let blocks_touched = bf
                .bits
                .chunks(BLOCK_WORDS)
                .filter(|block| block.iter().any(|&w| w != 0))
                .count();
            assert_eq!(blocks_touched, 1, "key {key:#x} touched multiple blocks");
        }
    }
}
