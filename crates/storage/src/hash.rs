//! The one key-hashing utility shared by every crate.
//!
//! Historically the rounded-hash router (`nocap::rounded_hash`), DHH's
//! modulo router, the partition-pair recursion hash and the hash table's
//! Fibonacci bucket mapping each hand-rolled the same SplitMix64 mixing.
//! They all live here now, with their exact bit-for-bit behaviour pinned by
//! tests, so routing decisions — and therefore partition contents, spill
//! files and the modeled I/O trace — cannot drift when one call site is
//! touched.
//!
//! Two independent mixing families are provided:
//!
//! * [`mix64`] / [`mix64_seeded`] — the SplitMix64 finalizer. Used for all
//!   partition routing and as the first bloom-filter hash stream.
//! * [`murmur_mix64`] — the MurmurHash3 finalizer over an independent
//!   offset. Used as the second bloom-filter stream, so bloom bit positions
//!   are independent of the routing hash even though both consume the same
//!   key.

/// The 64-bit golden-ratio constant (`⌊2^64/φ⌋`, forced odd): the SplitMix64
/// increment and the multiplier of [`fib_bucket`].
pub const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// The per-level salt multiplier used by the recursive re-partitioning
/// hash ([`level_seed`]).
pub const LEVEL_SALT: u64 = 0xA24B_AED4_963E_E407;

/// The SplitMix64 finalizer: bijective avalanche mixing of a 64-bit state.
#[inline]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 of a key: the partition-routing hash used by the rounded-hash
/// router, DHH's modulo router and the first bloom stream.
#[inline]
pub fn mix64(key: u64) -> u64 {
    splitmix64(key.wrapping_add(FIB))
}

/// [`mix64`] with an additive seed folded into the state before mixing —
/// each seed selects an independent hash function from the same family.
#[inline]
pub fn mix64_seeded(key: u64, seed: u64) -> u64 {
    splitmix64(key.wrapping_add(FIB).wrapping_add(seed))
}

/// The seed for recursion level `level` of a partitioning join that salts
/// with the plain multiplied level (the partition-pair NBJ recursion).
#[inline]
pub fn level_seed(level: u32) -> u64 {
    (level as u64).wrapping_mul(LEVEL_SALT)
}

/// The MurmurHash3 64-bit finalizer over an offset independent of
/// [`mix64`]'s: the second bloom-filter stream.
#[inline]
pub fn murmur_mix64(key: u64) -> u64 {
    let mut b = key.wrapping_add(0xD1B5_4A32_D192_ED03);
    b = (b ^ (b >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    b = (b ^ (b >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    b ^ (b >> 33)
}

/// Fibonacci bucket mapping: multiplies by [`FIB`] and keeps the top bits.
/// With `shift = 64 - log2(buckets)` this spreads consecutive keys across a
/// power-of-two directory — the hash table's bucket function.
#[inline]
pub fn fib_bucket(key: u64, shift: u32) -> usize {
    (key.wrapping_mul(FIB) >> shift) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact historical formula of `nocap::rounded_hash::mix_key` —
    /// the router hash every spill file geometry depends on.
    fn legacy_mix_key(key: u64) -> u64 {
        let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The exact historical GHJ `level_hash`, whose level 0 GHJ still
    /// routes its relation pass by.
    fn legacy_ghj_level_hash(key: u64, level: u32) -> u64 {
        let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(
            (level as u64) << 56 | (level as u64).wrapping_mul(0xA24B_AED4_963E_E407),
        );
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The exact historical `nocap_model::pairwise::level_hash`.
    fn legacy_pairwise_level_hash(key: u64, level: u32) -> u64 {
        let mut z = key
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((level as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    const PROBE_KEYS: [u64; 8] = [
        0,
        1,
        42,
        0xDEAD_BEEF,
        u64::MAX,
        u64::MAX - 1,
        1 << 63,
        0x0123_4567_89AB_CDEF,
    ];

    #[test]
    fn mix64_matches_the_historical_router_hash_bit_for_bit() {
        for &k in &PROBE_KEYS {
            assert_eq!(mix64(k), legacy_mix_key(k), "key {k:#x}");
        }
        for k in 0..10_000u64 {
            assert_eq!(mix64(k), legacy_mix_key(k));
        }
    }

    #[test]
    fn mix64_pins_known_values() {
        // Frozen outputs: any change to the routing hash moves every spill
        // partition and invalidates the determinism pins downstream.
        assert_eq!(mix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(mix64(1), 0x910A_2DEC_8902_5CC1);
        assert_eq!(mix64(u64::MAX), 0xE4D9_7177_1B65_2C20);
    }

    #[test]
    fn seeded_mix_matches_both_historical_level_hashes() {
        for &k in &PROBE_KEYS {
            assert_eq!(
                mix64(k),
                legacy_ghj_level_hash(k, 0),
                "GHJ's relation-pass hash diverged at key {k:#x}"
            );
            for level in 0..6u32 {
                assert_eq!(
                    mix64_seeded(k, level_seed(level)),
                    legacy_pairwise_level_hash(k, level),
                    "pairwise level hash diverged at key {k:#x} level {level}"
                );
            }
        }
    }

    #[test]
    fn level_zero_degenerates_to_the_plain_mix() {
        for &k in &PROBE_KEYS {
            assert_eq!(mix64_seeded(k, level_seed(0)), mix64(k));
        }
    }

    #[test]
    fn murmur_stream_is_independent_of_the_splitmix_stream() {
        // Not a formal independence test — just a guard that the two
        // families cannot collapse into one by a refactor: over many keys
        // the pairwise XOR must not be constant.
        let first = mix64(0) ^ murmur_mix64(0);
        assert!(
            (1..4_096u64).any(|k| (mix64(k) ^ murmur_mix64(k)) != first),
            "streams are a constant XOR apart"
        );
    }

    #[test]
    fn fib_bucket_matches_the_hash_table_directory_function() {
        for &k in &PROBE_KEYS {
            for bits in [4u32, 8, 16] {
                let shift = 64 - bits;
                assert_eq!(
                    fib_bucket(k, shift),
                    (k.wrapping_mul(FIB) >> shift) as usize
                );
                assert!(fib_bucket(k, shift) < (1usize << bits));
            }
        }
    }
}
