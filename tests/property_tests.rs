//! Property-based tests over the core data structures and invariants.
//!
//! * the OCAP dynamic program never loses to any consecutive partitioning we
//!   can construct, and its canonical solution verifies Theorem 3.1;
//! * the NOCAP planner always respects the §4.1 memory breakdown;
//! * pages and records round-trip byte-exactly;
//! * the correlation table's prefix sums agree with direct summation;
//! * rounded hash always routes into the configured partition range;
//! * the `nocap-stats` sketches keep their guarantees (SpaceSaving error
//!   ≤ N/k, bounds kept through merges, histogram merge associativity).
//!
//! The environment has no crates.io access, so instead of `proptest` these
//! are explicit property loops over a deterministic case generator: every
//! property is checked against `CASES` pseudo-random inputs derived from a
//! fixed seed, and failures print the case seed for replay.

use nocap_suite::model::{CorrelationTable, JoinSpec, Partitioning, RoundedHashParams};
use nocap_suite::nocap::{partition_dp, plan_nocap, PlannerConfig, RoundedHash};
use nocap_suite::stats::{EquiWidthHistogram, SpaceSaving};
use nocap_suite::storage::page::PAGE_HEADER_BYTES;
use nocap_suite::storage::{Page, RecordLayout, RecordRef};

/// Cases per property (proptest ran 64).
const CASES: u64 = 64;

/// Deterministic case generator: SplitMix64 over a per-case seed.
struct Gen {
    state: u64,
}

impl Gen {
    fn new(case_seed: u64) -> Self {
        Gen {
            state: case_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0CA9,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `lo..hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi);
        lo + self.next_u64() % (hi - lo)
    }

    fn usize_range(&mut self, lo: usize, hi: usize) -> usize {
        self.range(lo as u64, hi as u64) as usize
    }

    fn vec_u64(&mut self, len_lo: usize, len_hi: usize, val_hi: u64) -> Vec<u64> {
        let len = self.usize_range(len_lo, len_hi);
        (0..len).map(|_| self.range(0, val_hi)).collect()
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }
}

#[test]
fn record_roundtrip_is_lossless() {
    for case in 0..CASES {
        let mut g = Gen::new(case);
        let key = g.next_u64();
        let payload_len = g.usize_range(0, 64);
        let payload = g.bytes(payload_len);
        let record = RecordRef::new(key, &payload);
        let mut buf = vec![0u8; record.serialized_len()];
        record.write_to(&mut buf);
        let back = RecordRef::parse(&buf).unwrap();
        assert_eq!(back.key(), key, "case {case}");
        assert_eq!(back.payload(), payload.as_slice(), "case {case}");
    }
}

#[test]
fn page_roundtrip_preserves_all_records() {
    for case in 0..CASES {
        let mut g = Gen::new(0x1000 + case);
        let payload_len = g.usize_range(1, 32);
        let keys = g.vec_u64(1, 50, u64::MAX - 1);
        let layout = RecordLayout::new(payload_len);
        let page_size = PAGE_HEADER_BYTES + 64 * layout.record_bytes();
        let mut page = Page::empty(page_size, layout);
        for &k in &keys {
            let payload = vec![(k % 251) as u8; payload_len];
            assert!(
                page.push_ref(RecordRef::new(k, &payload)).unwrap(),
                "case {case}: 64-record page must accept 50 records"
            );
        }
        let restored = Page::from_bytes(page.as_bytes().to_vec()).unwrap();
        let restored_keys: Vec<u64> = restored.record_refs().map(|r| r.key()).collect();
        assert_eq!(restored_keys, keys, "case {case}");
    }
}

#[test]
fn prefix_sums_agree_with_direct_summation() {
    for case in 0..CASES {
        let mut g = Gen::new(0x2000 + case);
        let counts = g.vec_u64(1, 200, 1_000);
        let ct = CorrelationTable::from_counts(counts);
        let n = ct.len();
        let start = g.usize_range(0, n + 1);
        let end = start + g.usize_range(0, n + 1 - start);
        let direct: u64 = ct.counts()[start..end].iter().sum();
        assert_eq!(ct.range_sum(start, end), direct, "case {case}");
    }
}

#[test]
fn dp_solution_is_no_worse_than_any_even_split() {
    for case in 0..CASES {
        let mut g = Gen::new(0x3000 + case);
        let counts = g.vec_u64(4, 120, 500);
        let m = g.usize_range(1, 8);
        let c_r = g.usize_range(1, 20);
        let ct = CorrelationTable::from_counts(counts);
        let n = ct.len();
        let dp = partition_dp(&ct, m, c_r);
        // Compare against an even consecutive split into m partitions.
        let m_eff = m.min(n);
        let boundaries: Vec<usize> = (1..=m_eff).map(|j| j * n / m_eff).collect();
        let even = Partitioning::from_boundaries(&boundaries, n);
        assert!(dp.cost <= even.join_cost(&ct, c_r), "case {case}");
        // And the DP's own boundaries reproduce its reported cost.
        let own = Partitioning::from_boundaries(&dp.boundaries, n);
        assert_eq!(own.join_cost(&ct, c_r), dp.cost, "case {case}");
        assert!(own.is_consecutive(), "case {case}");
    }
}

#[test]
fn dp_canonical_form_satisfies_theorem_3_1() {
    for case in 0..CASES {
        let mut g = Gen::new(0x4000 + case);
        let counts = g.vec_u64(10, 150, 500);
        let c_r = g.usize_range(2, 16);
        let ct = CorrelationTable::from_counts(counts);
        let dp = partition_dp(&ct, 6, c_r);
        let p = Partitioning::from_boundaries(&dp.boundaries, ct.len());
        assert!(p.is_consecutive(), "case {case}");
        assert!(p.is_divisible(c_r), "case {case}");
    }
}

#[test]
fn planner_always_fits_the_memory_budget() {
    for case in 0..CASES {
        let mut g = Gen::new(0x5000 + case);
        let hot = g.vec_u64(1, 200, 10_000);
        let buffer_pages = g.usize_range(16, 2_048);
        let mcvs: Vec<(u64, u64)> = hot
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as u64, c.max(1)))
            .collect();
        let n_s: u64 = mcvs.iter().map(|&(_, c)| c).sum::<u64>() + 10_000;
        let spec = JoinSpec::paper_synthetic(256, buffer_pages);
        let plan = plan_nocap(&mcvs, 50_000, n_s, &spec, &PlannerConfig::default());
        let declared = 2 + plan.fixed_memory_pages(&spec) + plan.m_rest;
        assert!(
            spec.pages_left(declared).is_ok(),
            "case {case} (B = {buffer_pages})"
        );
        assert!(
            plan.estimated_extra_io.is_finite() || plan.k_mem() + plan.k_disk() == 0,
            "case {case}"
        );
    }
}

#[test]
fn rounded_hash_routes_within_bounds() {
    for case in 0..CASES {
        let mut g = Gen::new(0x6000 + case);
        let n = g.usize_range(1, 100_000);
        let m = g.usize_range(1, 64);
        let c_r = g.usize_range(1, 5_000);
        let keys = g.vec_u64(1, 100, u64::MAX - 1);
        let rh = RoundedHash::new(n, m, c_r, &RoundedHashParams::default());
        assert_eq!(rh.num_partitions(), m.max(1), "case {case}");
        for k in keys {
            assert!(rh.partition_of(k) < m.max(1), "case {case}");
        }
    }
}

#[test]
fn join_spec_chunk_never_exceeds_raw_capacity() {
    for case in 0..CASES {
        let mut g = Gen::new(0x7000 + case);
        let record_bytes = g.usize_range(16, 2_048);
        let buffer_pages = g.usize_range(3, 10_000);
        let spec = JoinSpec::paper_synthetic(record_bytes, buffer_pages);
        // c_R with the fudge factor can never exceed the raw page capacity.
        assert!(spec.c_r() <= spec.b_r() * (buffer_pages - 2), "case {case}");
    }
}

// ---------------------------------------------------------------------------
// nocap-stats sketch properties
// ---------------------------------------------------------------------------

/// A deterministic skewed stream: `len` draws where key popularity decays
/// harmonically over `domain` keys, interleaved pseudo-randomly.
fn skewed_stream(g: &mut Gen, domain: u64, len: usize) -> Vec<u64> {
    (0..len)
        .map(|_| {
            // floor(sqrt(U)) over U ~ uniform[0, d²) puts linearly more mass
            // on large values; flip it so key 0 is the hottest.
            let u = g.range(0, domain * domain);
            domain - 1 - (u as f64).sqrt() as u64
        })
        .collect()
}

fn exact_counts(stream: &[u64]) -> std::collections::HashMap<u64, u64> {
    let mut m = std::collections::HashMap::new();
    for &k in stream {
        *m.entry(k).or_insert(0) += 1;
    }
    m
}

#[test]
fn spacesaving_error_is_bounded_by_n_over_k() {
    for case in 0..CASES / 4 {
        let mut g = Gen::new(0x8000 + case);
        let domain = g.range(50, 2_000);
        let len = g.usize_range(1_000, 20_000);
        let capacity = g.usize_range(8, 128);
        let stream = skewed_stream(&mut g, domain, len);
        let truth = exact_counts(&stream);
        let mut ss = SpaceSaving::new(capacity);
        for &k in &stream {
            ss.offer(k);
        }
        let bound = ss.total() / ss.capacity() as u64;
        for est in ss.top_k(capacity) {
            let t = truth[&est.key];
            assert!(est.count >= t, "case {case}: SpaceSaving underestimated");
            assert!(
                est.count - t <= bound,
                "case {case}: overestimate {} beyond N/k = {bound}",
                est.count - t
            );
            assert!(
                est.guaranteed_count() <= t,
                "case {case}: lower bound violated"
            );
        }
        // Completeness: every key hotter than N/k is monitored.
        for (&key, &count) in &truth {
            if count > bound {
                assert!(
                    ss.estimate(key).is_some(),
                    "case {case}: heavy hitter {key} (count {count}) unmonitored"
                );
            }
        }
    }
}

#[test]
fn sketch_merges_are_associative() {
    for case in 0..CASES / 4 {
        let mut g = Gen::new(0xA000 + case);
        let domain = g.range(100, 2_000);
        let streams: Vec<Vec<u64>> = (0..3)
            .map(|_| skewed_stream(&mut g, domain, 4_000))
            .collect();

        // The histogram: merge reconciles the widths and adds bucket-wise,
        // exactly associative and equal to the concatenated stream's.
        let buckets = g.usize_range(1, 96);
        let hist_of = |s: &[u64]| {
            let mut h = EquiWidthHistogram::adaptive_pinned(0, buckets);
            for &k in s {
                h.add(k);
            }
            h
        };
        let (a, b, c) = (
            hist_of(&streams[0]),
            hist_of(&streams[1]),
            hist_of(&streams[2]),
        );
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "case {case}: histogram merge not associative");
        assert_eq!(
            left,
            hist_of(&streams.concat()),
            "case {case}: merged histogram is not the whole stream's"
        );
    }
}

#[test]
fn merged_spacesaving_summaries_keep_their_bounds() {
    for case in 0..CASES / 4 {
        let mut g = Gen::new(0xB000 + case);
        let domain = g.range(100, 1_000);
        let s1 = skewed_stream(&mut g, domain, 6_000);
        let s2 = skewed_stream(&mut g, domain, 6_000);
        let mut truth = exact_counts(&s1);
        for (&k, &v) in &exact_counts(&s2) {
            *truth.entry(k).or_insert(0) += v;
        }
        let mut a = SpaceSaving::new(48);
        let mut b = SpaceSaving::new(48);
        for &k in &s1 {
            a.offer(k);
        }
        for &k in &s2 {
            b.offer(k);
        }
        a.merge(&b);
        assert_eq!(a.total(), 12_000, "case {case}");
        for est in a.top_k(48) {
            let t = truth[&est.key];
            assert!(est.count >= t, "case {case}: merged summary underestimated");
            assert!(
                est.guaranteed_count() <= t,
                "case {case}: merged lower bound violated"
            );
        }
    }
}
