//! Vectorized key-scan kernels behind [`JoinHashTable`](crate::JoinHashTable)'s
//! probes, their only caller.
//!
//! Each kernel is a 4-wide chunked scalar loop, written so the backend can
//! auto-vectorize it on release builds; the differential tests below
//! exercise them against a naive reference.

/// How many keys one probe step compares (the SIMD lane width).
pub const LANES: usize = 4;

/// Counts how many entries of `keys` equal `needle`.
///
/// This is the sealed hash table's `probe_count` kernel: a bucket's keys
/// are contiguous, so multiplicity counting is one linear sweep, `LANES`
/// keys per step (the unrolled compare chain auto-vectorizes).
#[inline]
pub fn count_matches(keys: &[u64], needle: u64) -> u64 {
    let mut chunks = keys.chunks_exact(LANES);
    let mut count = 0u64;
    for chunk in chunks.by_ref() {
        count += (chunk[0] == needle) as u64
            + (chunk[1] == needle) as u64
            + (chunk[2] == needle) as u64
            + (chunk[3] == needle) as u64;
    }
    count + chunks.remainder().iter().filter(|&&k| k == needle).count() as u64
}

/// Position of the first entry at or after `from` that equals `needle`, or
/// `None`. The sealed probe iterator's stepper: one call per yielded match.
#[inline]
pub fn next_match(keys: &[u64], from: usize, needle: u64) -> Option<usize> {
    if from >= keys.len() {
        return None;
    }
    let tail = &keys[from..];
    let mut chunks = tail.chunks_exact(LANES);
    for (c, chunk) in chunks.by_ref().enumerate() {
        let hit = (chunk[0] == needle)
            || (chunk[1] == needle)
            || (chunk[2] == needle)
            || (chunk[3] == needle);
        if hit {
            for (i, &k) in chunk.iter().enumerate() {
                if k == needle {
                    return Some(from + c * LANES + i);
                }
            }
        }
    }
    let done = tail.len() - chunks.remainder().len();
    chunks
        .remainder()
        .iter()
        .position(|&k| k == needle)
        .map(|i| from + done + i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_count(keys: &[u64], needle: u64) -> u64 {
        keys.iter().filter(|&&k| k == needle).count() as u64
    }

    fn reference_next(keys: &[u64], from: usize, needle: u64) -> Option<usize> {
        (from..keys.len()).find(|&i| keys[i] == needle)
    }

    /// Deterministic pseudo-random key stream with heavy duplication.
    fn workload(len: usize) -> Vec<u64> {
        (0..len as u64).map(|i| crate::hash::mix64(i) % 7).collect()
    }

    #[test]
    fn count_matches_agrees_with_the_naive_reference() {
        for len in [0usize, 1, 3, 4, 5, 7, 8, 15, 64, 1_000] {
            let keys = workload(len);
            for needle in 0..8u64 {
                assert_eq!(
                    count_matches(&keys, needle),
                    reference_count(&keys, needle),
                    "len {len} needle {needle}"
                );
            }
        }
    }

    #[test]
    fn next_match_agrees_with_the_naive_reference() {
        for len in [0usize, 1, 4, 5, 9, 31, 128] {
            let keys = workload(len);
            for needle in 0..8u64 {
                for from in 0..=len {
                    assert_eq!(
                        next_match(&keys, from, needle),
                        reference_next(&keys, from, needle),
                        "len {len} from {from} needle {needle}"
                    );
                }
            }
        }
    }

    #[test]
    fn next_match_chains_enumerate_every_occurrence_in_order() {
        let keys = workload(257);
        for needle in 0..8u64 {
            let mut found = Vec::new();
            let mut pos = 0usize;
            while let Some(i) = next_match(&keys, pos, needle) {
                found.push(i);
                pos = i + 1;
            }
            let expected: Vec<usize> = (0..keys.len()).filter(|&i| keys[i] == needle).collect();
            assert_eq!(found, expected);
            assert_eq!(found.len() as u64, count_matches(&keys, needle));
        }
    }
}
