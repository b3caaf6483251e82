//! Cost estimators for hash partitioning: plain hash (`g_PH`) and NOCAP's
//! rounded hash (`g_RH`, §4.2).
//!
//! Plain hash assigns every record to `hash(key) mod m`, which makes all m
//! partitions roughly the same size. If that common size is just above a
//! multiple of the NBJ chunk `c_R`, *every* partition pays an extra pass over
//! its S data (Figure 7). Rounded hash instead groups keys into chunk-sized
//! buckets first — `(hash(key) mod ⌈n / c*_R⌉) mod m` with `c*_R = β·c_R` —
//! so that most partitions are an exact multiple of the chunk size and only a
//! few pay the extra pass.
//!
//! The estimators below express the expected number of passes over the S
//! data routed to the CT range `[s, e)` and multiply by the number of S
//! records in that range (record units, like `CalCost`).

use crate::ct::CorrelationTable;

/// Parameters of the rounded-hash estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundedHashParams {
    /// Safety factor β ∈ (0, 1] applied to the chunk size (`c*_R = β·c_R`);
    /// the paper fixes β = 0.95.
    pub beta: f64,
    /// Whether to apply the Chernoff-bound overestimate of partition
    /// overflow instead of the deterministic fraction.
    pub use_chernoff: bool,
}

impl Default for RoundedHashParams {
    fn default() -> Self {
        RoundedHashParams {
            beta: 0.95,
            use_chernoff: false,
        }
    }
}

impl RoundedHashParams {
    /// Effective chunk size `c*_R = ⌊β · c_R⌋` (at least 1).
    pub fn effective_chunk(&self, c_r: usize) -> usize {
        ((c_r as f64 * self.beta).floor() as usize).max(1)
    }

    /// Whether rounded hash should be disabled for a range of `len` records
    /// split into `m` partitions: when plain hash already fills each
    /// partition's last chunk beyond the β threshold, rounding can only cause
    /// overflow passes, so NOCAP falls back to plain hash (§4.2,
    /// "Parametric Optimization").
    pub fn rh_enabled(&self, len: usize, m: usize, c_r: usize) -> bool {
        if len == 0 || m == 0 || c_r == 0 {
            return false;
        }
        let per_partition = len as f64 / m as f64;
        let remainder = per_partition % c_r as f64;
        // Plain hash already nearly fills the last chunk → disable rounding.
        remainder <= self.beta * c_r as f64
    }

    /// Number of chunk-sized buckets (`⌈n / c*_R⌉`) the rounded-hash router
    /// deals round-robin to `m` partitions for `n` keys, or 0 when it routes
    /// by plain hash instead: rounding is disabled
    /// ([`rh_enabled`](Self::rh_enabled)), or there are no more buckets than
    /// partitions, so rounding could spread nothing and would leave
    /// partitions empty. The router and the planner's residual estimate
    /// ([`crate::g_dhh`]) both size partitions from this.
    pub fn rounding_buckets(&self, n: usize, m: usize, c_r: usize) -> usize {
        if !self.rh_enabled(n, m, c_r) {
            return 0;
        }
        let buckets = n.div_ceil(self.effective_chunk(c_r));
        if buckets <= m {
            0
        } else {
            buckets
        }
    }
}

/// Expected per-partition join cost of **plain hash** partitioning the CT
/// range `[start, end)` into `m` partitions (record units):
/// `⌈(e − s + 1)/(m·c_R)⌉ · Σ CT[s..e]`.
pub fn g_ph(ct: &CorrelationTable, start: usize, end: usize, m: usize, c_r: usize) -> f64 {
    if start >= end || m == 0 || c_r == 0 {
        return 0.0;
    }
    let len = end - start;
    let passes = len.div_ceil(m * c_r) as f64;
    passes * ct.range_sum(start, end) as f64
}

/// Expected number of passes over S for **rounded hash** partitioning `len`
/// records into `m` partitions with chunk size `c_r` (fractional because a
/// γ-fraction of the data is scanned with one fewer pass).
pub fn rounded_passes(len: usize, m: usize, c_r: usize, params: &RoundedHashParams) -> f64 {
    if len == 0 || m == 0 || c_r == 0 {
        return 0.0;
    }
    let c_star = params.effective_chunk(c_r);
    let lo = len / (m * c_star); // ⌊len / (m·c*_R)⌋
    let hi = len.div_ceil(m * c_star); // ⌈len / (m·c*_R)⌉
    if lo == hi {
        return hi as f64;
    }
    if params.use_chernoff {
        // Overestimate the probability that a partition overflows its
        // ⌈len/(m·c*_R)⌉ chunks using the Chernoff bound on a Binomial(len,
        // 1/m) partition size.
        let expected = len as f64 / m as f64;
        let threshold = (hi * c_star) as f64;
        let sigma = threshold / expected - 1.0;
        let overflow = if sigma <= 0.0 {
            1.0
        } else {
            ((sigma.exp()) / (1.0 + sigma).powf(1.0 + sigma)).powf(expected)
        };
        let gamma = 1.0 - overflow.clamp(0.0, 1.0);
        return gamma * hi as f64 + (1.0 - gamma) * (hi + 1) as f64;
    }
    // Deterministic accounting: q chunk-groups are dealt round-robin to m
    // partitions; `q mod m` partitions receive ⌈q/m⌉ groups, the rest ⌊q/m⌋.
    let q = len.div_ceil(c_star);
    let big_partitions = q % m;
    let small_partitions = m - big_partitions;
    let records_in_small = (small_partitions * (q / m) * c_star).min(len);
    let gamma = records_in_small as f64 / len as f64;
    gamma * lo.max(1) as f64 + (1.0 - gamma) * hi as f64
}

/// Expected per-partition join cost of **rounded hash** partitioning the CT
/// range `[start, end)` into `m` partitions (record units, Eq. 3):
/// `#rounded_passes(s, e) · Σ CT[s..e]`.
pub fn g_rh(
    ct: &CorrelationTable,
    start: usize,
    end: usize,
    m: usize,
    c_r: usize,
    params: &RoundedHashParams,
) -> f64 {
    if start >= end {
        return 0.0;
    }
    let len = end - start;
    if !params.rh_enabled(len, m, c_r) {
        return g_ph(ct, start, end, m, c_r);
    }
    rounded_passes(len, m, c_r, params) * ct.range_sum(start, end) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_ct(n: usize, per_key: u64) -> CorrelationTable {
        CorrelationTable::from_counts(vec![per_key; n])
    }

    #[test]
    fn plain_hash_cost_matches_formula() {
        let ct = uniform_ct(1000, 8);
        // len = 1000, m = 4, c_R = 100 → ⌈1000/400⌉ = 3 passes over 8000
        // matches.
        assert!((g_ph(&ct, 0, 1000, 4, 100) - 3.0 * 8000.0).abs() < 1e-9);
        assert_eq!(g_ph(&ct, 10, 10, 4, 100), 0.0);
    }

    #[test]
    fn rounded_passes_between_floor_and_ceil() {
        let params = RoundedHashParams::default();
        for (len, m, c_r) in [(1000usize, 4usize, 100usize), (5000, 7, 93), (18, 4, 3)] {
            let c_star = params.effective_chunk(c_r);
            let lo = (len / (m * c_star)).max(1) as f64;
            let hi = len.div_ceil(m * c_star) as f64;
            let p = rounded_passes(len, m, c_r, &params);
            assert!(
                p >= lo - 1e-9 && p <= hi + 1e-9,
                "passes {p} not in [{lo},{hi}]"
            );
        }
    }

    #[test]
    fn figure7_example_rounded_beats_uniform() {
        // Figure 7: 18 pages of R, 4 partitions, chunk of 3 pages.
        // Uniform partitioning: each partition 4.5 pages → 2 passes each.
        // Rounded hash: two partitions of 6 (2 passes) and two of 3 (1 pass).
        let ct = uniform_ct(18, 10); // 18 "pages" of R, 10 S records each
        let m = 4;
        let c_r = 3;
        let params = RoundedHashParams {
            beta: 1.0,
            use_chernoff: false,
        };
        let ph = g_ph(&ct, 0, 18, m, c_r);
        let rh = g_rh(&ct, 0, 18, m, c_r, &params);
        assert!((ph - 2.0 * 180.0).abs() < 1e-9);
        // Rounded: γ = 2·1·3/18 = 1/3 of the data needs 1 pass, the rest 2.
        assert!((rh - (1.0 / 3.0 * 1.0 + 2.0 / 3.0 * 2.0) * 180.0).abs() < 1e-9);
        assert!(rh < ph);
    }

    #[test]
    fn chernoff_variant_is_an_overestimate_of_the_deterministic_one() {
        let params_det = RoundedHashParams {
            beta: 0.95,
            use_chernoff: false,
        };
        let params_chernoff = RoundedHashParams {
            beta: 0.95,
            use_chernoff: true,
        };
        let det = rounded_passes(10_000, 8, 300, &params_det);
        let chern = rounded_passes(10_000, 8, 300, &params_chernoff);
        assert!(chern + 1e-9 >= det);
        // And the overestimate never exceeds one extra pass.
        assert!(chern <= det + 1.0 + 1e-9);
    }

    #[test]
    fn exact_multiple_needs_no_extra_pass() {
        let params = RoundedHashParams {
            beta: 1.0,
            use_chernoff: false,
        };
        // 1200 records, 4 partitions, chunk 300: exactly one chunk each.
        assert!((rounded_passes(1200, 4, 300, &params) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn g_rh_falls_back_to_g_ph_when_disabled() {
        let ct = uniform_ct(400, 5);
        let params = RoundedHashParams {
            beta: 0.5, // aggressive threshold: RH frequently disabled
            use_chernoff: false,
        };
        let m = 4;
        let c_r = 30;
        if !params.rh_enabled(400, m, c_r) {
            assert_eq!(
                g_rh(&ct, 0, 400, m, c_r, &params),
                g_ph(&ct, 0, 400, m, c_r)
            );
        }
    }

    #[test]
    fn degenerate_inputs_cost_zero() {
        let ct = uniform_ct(10, 1);
        assert_eq!(g_ph(&ct, 0, 10, 0, 5), 0.0);
        assert_eq!(g_ph(&ct, 0, 10, 5, 0), 0.0);
        assert_eq!(rounded_passes(0, 4, 5, &RoundedHashParams::default()), 0.0);
    }

    #[test]
    fn effective_chunk_respects_beta() {
        let p = RoundedHashParams {
            beta: 0.95,
            use_chernoff: false,
        };
        assert_eq!(p.effective_chunk(100), 95);
        assert_eq!(p.effective_chunk(1), 1);
        assert_eq!(p.effective_chunk(0), 1);
    }
}
