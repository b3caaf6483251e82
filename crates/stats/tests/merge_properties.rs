//! Algebraic properties of the sketch merges — the foundation sharded
//! `StatsCollector::collect_parallel` stands on.
//!
//! For the merged summary to be a deterministic function of the data (and
//! not of the shard boundaries or fold order), the component merges must be
//! commutative and associative, and a sharded collection must fold back to
//! the single-pass result. The exactly mergeable components — the
//! histogram, stream length and key range — satisfy this bit for bit on
//! **any** stream. SpaceSaving
//! is exact while its counters cover the distinct keys and degrades to
//! merge-preserved error bounds beyond that (Agarwal et al., "Mergeable
//! Summaries"); both regimes are pinned here on seeded random key streams.

use std::collections::HashMap;

use nocap_stats::{EquiWidthHistogram, SpaceSaving, StatsCollector, StatsConfig};

/// SplitMix64 — the workspace's deterministic "seeded random" stream maker.
fn mix(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded, skewed key stream: `len` keys over roughly `domain` distinct
/// values, heavier toward low keys, in pseudo-random order.
fn seeded_stream(seed: u64, len: usize, domain: u64) -> Vec<u64> {
    (0..len as u64)
        .map(|i| {
            let r = mix(seed.wrapping_add(i));
            // Squaring a uniform variate skews mass toward low keys.
            let u = (r % domain) as u128;
            ((u * u) / domain as u128) as u64
        })
        .collect()
}

fn exact_counts(stream: &[u64]) -> HashMap<u64, u64> {
    let mut m = HashMap::new();
    for &k in stream {
        *m.entry(k).or_insert(0) += 1;
    }
    m
}

#[test]
fn pinned_histogram_merge_is_commutative_and_associative() {
    let streams: Vec<Vec<u64>> = (0..3)
        .map(|s| seeded_stream(0xA151 + s, 3_000, 2_000))
        .collect();
    let hist = |stream: &[u64]| {
        let mut h = EquiWidthHistogram::adaptive_pinned(0, 64);
        for &k in stream {
            h.add(k);
        }
        h
    };
    let (a, b, c) = (hist(&streams[0]), hist(&streams[1]), hist(&streams[2]));
    let mut ab = a.clone();
    ab.merge(&b);
    let mut ba = b.clone();
    ba.merge(&a);
    assert_eq!(ab, ba, "pinned histogram merge must be commutative");
    let mut left = ab;
    left.merge(&c);
    let mut bc = b.clone();
    bc.merge(&c);
    let mut right = a.clone();
    right.merge(&bc);
    assert_eq!(left, right, "pinned histogram merge must be associative");
    let whole: Vec<u64> = streams.concat();
    assert_eq!(left, hist(&whole), "merge must equal the union stream");
}

#[test]
fn spacesaving_merge_is_commutative() {
    // Overflow regime on purpose: 48 counters over ~800 distinct keys.
    let a_keys = seeded_stream(7, 6_000, 800);
    let b_keys = seeded_stream(8, 6_000, 800);
    let sketch = |stream: &[u64]| {
        let mut s = SpaceSaving::new(48);
        for &k in stream {
            s.offer(k);
        }
        s
    };
    let (a, b) = (sketch(&a_keys), sketch(&b_keys));
    let mut ab = a.clone();
    ab.merge(&b);
    let mut ba = b.clone();
    ba.merge(&a);
    assert_eq!(
        ab.total(),
        ba.total(),
        "merged totals must match either way"
    );
    assert_eq!(
        ab.canonical_entries(),
        ba.canonical_entries(),
        "SpaceSaving merge must be commutative"
    );
}

#[test]
fn spacesaving_merge_is_associative_in_the_exact_regime() {
    // 3 x ~100 distinct keys against 512 counters: nothing is ever evicted,
    // so every merge is an exact sum and association cannot matter.
    let streams: Vec<Vec<u64>> = (0..3).map(|s| seeded_stream(20 + s, 2_000, 100)).collect();
    let sketch = |stream: &[u64]| {
        let mut s = SpaceSaving::new(512);
        for &k in stream {
            s.offer(k);
        }
        s
    };
    let (a, b, c) = (
        sketch(&streams[0]),
        sketch(&streams[1]),
        sketch(&streams[2]),
    );
    let mut left = a.clone();
    left.merge(&b);
    left.merge(&c);
    let mut bc = b.clone();
    bc.merge(&c);
    let mut right = a.clone();
    right.merge(&bc);
    assert_eq!(
        left.canonical_entries(),
        right.canonical_entries(),
        "exact-regime SpaceSaving merge must be associative"
    );
    // And exact: every entry equals the truth with zero error.
    let whole: Vec<u64> = streams.concat();
    let truth = exact_counts(&whole);
    for (key, count, err) in left.canonical_entries() {
        assert_eq!(count, truth[&key]);
        assert_eq!(err, 0);
    }
}

#[test]
fn spacesaving_merge_bounds_hold_for_any_association() {
    // Overflow regime: association may change the counters, but every
    // association must preserve the totals and the error-bound invariants
    // against the exact stream counts.
    let streams: Vec<Vec<u64>> = (0..3)
        .map(|s| seeded_stream(40 + s, 8_000, 1_000))
        .collect();
    let whole: Vec<u64> = streams.concat();
    let truth = exact_counts(&whole);
    let sketch = |stream: &[u64]| {
        let mut s = SpaceSaving::new(64);
        for &k in stream {
            s.offer(k);
        }
        s
    };
    let (a, b, c) = (
        sketch(&streams[0]),
        sketch(&streams[1]),
        sketch(&streams[2]),
    );
    let mut left = a.clone();
    left.merge(&b);
    left.merge(&c);
    let mut bc = b.clone();
    bc.merge(&c);
    let mut right = a.clone();
    right.merge(&bc);
    for merged in [&left, &right] {
        assert_eq!(merged.total(), whole.len() as u64);
        for (key, count, err) in merged.canonical_entries() {
            let t = truth[&key];
            assert!(count >= t, "merged count must not underestimate key {key}");
            assert!(
                count - err <= t,
                "merged lower bound must hold for key {key}"
            );
        }
    }
}

/// Splits `keys` at the given cut points into consecutive shards.
fn shards_of(keys: &[u64], cuts: &[usize]) -> Vec<Vec<u64>> {
    let mut shards = Vec::new();
    let mut start = 0usize;
    for &cut in cuts {
        shards.push(keys[start..cut].to_vec());
        start = cut;
    }
    shards.push(keys[start..].to_vec());
    shards
}

fn collect_keys(config: StatsConfig, keys: &[u64]) -> StatsCollector {
    let mut c = StatsCollector::new(config);
    for &k in keys {
        c.observe(k);
    }
    c
}

#[test]
fn arbitrary_splits_fold_to_the_single_pass_summary_in_the_exact_regime() {
    // ~200 distinct keys vs 1024 counters: the fold must reproduce the
    // single-pass summary bit for bit, wherever the stream is cut.
    let keys = seeded_stream(0x5EED, 9_000, 200);
    let config = StatsConfig::default();
    let single = collect_keys(config, &keys).finish();
    for cuts in [
        vec![4_500],
        vec![1, 8_999],
        vec![300, 2_000, 4_000, 8_000],
        vec![1_000, 1_001, 1_002],
    ] {
        let mut shards = shards_of(&keys, &cuts).into_iter();
        let mut acc = collect_keys(config, &shards.next().unwrap());
        for shard in shards {
            acc.merge(&collect_keys(config, &shard));
        }
        assert_eq!(
            acc.finish(),
            single,
            "fold over cuts {cuts:?} must equal the single pass"
        );
    }
}

#[test]
fn shard_fold_order_does_not_matter_in_the_exact_regime() {
    // Satellite guarantee behind the morsel-order fix: with exact shard
    // sketches, even the fold order is irrelevant — shards can be merged
    // forward, backward or interleaved.
    let keys = seeded_stream(0xABCD, 6_000, 150);
    let config = StatsConfig::default();
    let shards = shards_of(&keys, &[1_500, 3_000, 4_500]);
    let fold = |order: &[usize]| {
        let mut acc = collect_keys(config, &shards[order[0]]);
        for &i in &order[1..] {
            acc.merge(&collect_keys(config, &shards[i]));
        }
        acc.finish()
    };
    let forward = fold(&[0, 1, 2, 3]);
    assert_eq!(forward, fold(&[3, 2, 1, 0]));
    assert_eq!(forward, fold(&[2, 0, 3, 1]));
}

#[test]
fn arbitrary_splits_keep_the_exactly_mergeable_components_beyond_the_exact_regime() {
    // 1500 distinct keys vs 64 counters: SpaceSaving overflows, but stream
    // length, key range and the histogram must still fold to the
    // single-pass values exactly, and the folded MCVs must keep their error
    // bounds.
    let keys = seeded_stream(0xFEED, 12_000, 1_500);
    let truth = exact_counts(&keys);
    let config = StatsConfig {
        mcv_counters: 64,
        ..StatsConfig::default()
    };
    let single = collect_keys(config, &keys).finish();
    for cuts in [vec![6_000], vec![100, 7_000, 11_000]] {
        let mut shards = shards_of(&keys, &cuts).into_iter();
        let mut acc = collect_keys(config, &shards.next().unwrap());
        for shard in shards {
            acc.merge(&collect_keys(config, &shard));
        }
        let folded = acc.finish();
        assert_eq!(folded.stream_len(), single.stream_len());
        assert_eq!(folded.min_key(), single.min_key());
        assert_eq!(folded.max_key(), single.max_key());
        // The histogram folds exactly: every point query agrees.
        for probe in (0..1_500u64).step_by(13) {
            assert_eq!(
                folded.histogram_estimate(probe).to_bits(),
                single.histogram_estimate(probe).to_bits(),
                "histogram estimate for {probe} must fold exactly"
            );
        }
        // The folded SpaceSaving entries keep their bounds.
        for est in folded.mcvs() {
            let t = truth[&est.key];
            assert!(est.count >= t, "folded MCV underestimates key {}", est.key);
            assert!(
                est.guaranteed_count() <= t,
                "folded lower bound overshoots key {}",
                est.key
            );
        }
    }
}
