//! The parameters of NOCAP's rounded hash (§4.2) and the partition
//! geometry they imply.
//!
//! Plain hash assigns every record to `hash(key) mod m`, which makes all m
//! partitions roughly the same size. If that common size is just above a
//! multiple of the NBJ chunk `c_R`, *every* partition pays an extra pass over
//! its S data (Figure 7). Rounded hash instead groups keys into chunk-sized
//! buckets first — `(hash(key) mod ⌈n / c*_R⌉) mod m` with `c*_R = β·c_R` —
//! so that most partitions are an exact multiple of the chunk size and only a
//! few pay the extra pass.
//!
//! [`RoundedHashParams`] decides when rounding applies and how many
//! buckets it deals; the router (`nocap::RoundedHash`), the staging quotas
//! and the planner's residual estimate ([`crate::g_dhh`]) all size
//! partitions from it, so the plan prices the partitions the executor
//! builds.

/// Parameters of the rounded-hash router.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundedHashParams {
    /// Safety factor β ∈ (0, 1] applied to the chunk size (`c*_R = β·c_R`);
    /// the paper fixes β = 0.95.
    pub beta: f64,
}

impl Default for RoundedHashParams {
    fn default() -> Self {
        RoundedHashParams { beta: 0.95 }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_chunk_respects_beta() {
        let p = RoundedHashParams { beta: 0.95 };
        assert_eq!(p.effective_chunk(100), 95);
        assert_eq!(p.effective_chunk(1), 1);
        assert_eq!(p.effective_chunk(0), 1);
    }
}
