//! OCAP — Optimal Correlation-Aware Partitioning (§3, Algorithm 7).
//!
//! OCAP answers the question: *with perfect, free knowledge of the join
//! correlation, what is the cheapest hybrid partitioning?* It sweeps the
//! number of records cached in memory (`k`, the hottest keys), and for each
//! candidate runs the dynamic program of [`dp`] on the remaining keys with
//! the memory that caching leaves over. The result is the I/O lower bound
//! plotted as "OCAP" in Figure 8.
//!
//! OCAP is deliberately *not* a practical executor: the correlation table
//! and the resulting partitioning do not fit the memory budget. The
//! practical algorithm built on top of it is NOCAP ([`crate::planner`] /
//! [`crate::exec`]).

pub mod brute;
pub mod dp;

use nocap_model::{CorrelationTable, JoinSpec};

use dp::partition_dp_range;

/// Configuration of the OCAP sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OcapConfig {
    /// Evaluate cached-record counts `k = 0, stride, 2·stride, …, c_R`.
    /// `0` selects an automatic stride of about `c_R / 64` (the sweep is an
    /// offline analysis; finer strides only sharpen the curve marginally).
    pub cache_stride: usize,
}

/// The optimal hybrid partitioning found by OCAP.
#[derive(Debug, Clone, PartialEq)]
pub struct OcapSolution {
    /// Number of (hottest) records cached in memory during partitioning.
    pub cached_records: usize,
    /// Number of records with `CT[i] = 0` that are excluded from
    /// partitioning entirely (they cannot produce output).
    pub zero_records: usize,
    /// Partition boundaries over the ascending CT of the *partitioned*
    /// records (i.e. after removing zero-count and cached records).
    pub boundaries: Vec<usize>,
    /// Probe-phase cost in pages: reading spilled R once plus the chunk
    /// passes over spilled S.
    pub probe_cost_pages: f64,
    /// Partition-phase cost in pages: μ-weighted writes of spilled R and S.
    pub partition_cost_pages: f64,
    /// Extra I/O beyond the unavoidable scan of both inputs.
    pub extra_io_pages: f64,
    /// Total estimated I/O including the initial scan of `‖R‖ + ‖S‖` pages.
    pub total_io_pages: f64,
}

impl OcapSolution {
    /// Number of disk partitions in the optimal plan.
    pub fn num_partitions(&self) -> usize {
        self.boundaries.len()
    }
}

/// Runs OCAP (Algorithm 7): sweep the number of cached records, run the DP
/// on the rest, and keep the cheapest combination.
///
/// `ct` must contain one entry per R record (entries with zero matches are
/// handled — they are excluded from partitioning, as in §3.1.1).
pub fn ocap(ct: &CorrelationTable, spec: &JoinSpec, config: &OcapConfig) -> OcapSolution {
    let n = ct.len();
    let pages_r = spec.pages_r(n) as f64;
    let pages_s = (ct.total_matches() as usize).div_ceil(spec.b_s().max(1)) as f64;
    let zero_records = ct.zero_entries();
    let c_r = spec.c_r().max(1);
    let b_r = spec.b_r().max(1) as f64;
    let b_s = spec.b_s().max(1) as f64;
    let mu = spec.mu();

    let max_cached = c_r.min(n - zero_records);
    let stride = if config.cache_stride == 0 {
        (c_r / 64).max(1)
    } else {
        config.cache_stride
    };

    let mut best: Option<OcapSolution> = None;

    let mut candidates: Vec<usize> = (0..=max_cached).step_by(stride).collect();
    if *candidates.last().unwrap_or(&0) != max_cached {
        candidates.push(max_cached);
    }

    for k in candidates {
        // Memory left for partition output buffers after caching k records.
        let ht_pages = spec.hash_table_pages(k);
        if ht_pages + 2 >= spec.buffer_pages {
            continue;
        }
        let m_max = spec.buffer_pages - 2 - ht_pages;
        if m_max == 0 {
            continue;
        }

        // The records that actually go through partitioning: exclude
        // zero-count records (no matches) and the k cached hottest records.
        let rest_end = n - k;
        if rest_end < zero_records {
            continue;
        }
        let rest_records = rest_end - zero_records;
        let solution = partition_dp_range(ct, zero_records, rest_end, m_max, c_r);

        let spilled_r_pages = (rest_records as f64 / b_r).ceil();
        let spilled_s_pages = (ct.range_sum(zero_records, rest_end) as f64 / b_s).ceil();
        let probe = spilled_r_pages + solution.cost as f64 / b_s;
        let partition = mu * (spilled_r_pages + spilled_s_pages);
        let extra = probe + partition;

        let candidate = OcapSolution {
            cached_records: k,
            zero_records,
            boundaries: solution.boundaries,
            probe_cost_pages: probe,
            partition_cost_pages: partition,
            extra_io_pages: extra,
            total_io_pages: pages_r + pages_s + extra,
        };
        match &best {
            Some(b) if b.extra_io_pages <= candidate.extra_io_pages => {}
            _ => best = Some(candidate),
        }
    }

    best.unwrap_or(OcapSolution {
        cached_records: 0,
        zero_records,
        boundaries: vec![n - zero_records],
        probe_cost_pages: pages_s,
        partition_cost_pages: mu * (pages_r + pages_s),
        extra_io_pages: pages_s + mu * (pages_r + pages_s),
        total_io_pages: pages_r + pages_s + pages_s + mu * (pages_r + pages_s),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_ct(n: usize, per_key: u64) -> CorrelationTable {
        CorrelationTable::from_counts(vec![per_key; n])
    }

    fn zipf_like_ct(n: usize) -> CorrelationTable {
        // A crude power-law: count(i) ∝ (n / (i + 1)).
        CorrelationTable::from_counts((0..n).map(|i| (n / (i + 1)) as u64))
    }

    fn spec(buffer_pages: usize) -> JoinSpec {
        JoinSpec::paper_synthetic(256, buffer_pages)
    }

    #[test]
    fn ocap_cost_decreases_with_memory() {
        let ct = zipf_like_ct(5_000);
        let cfg = OcapConfig::default();
        let small = ocap(&ct, &spec(32), &cfg);
        let medium = ocap(&ct, &spec(128), &cfg);
        let large = ocap(&ct, &spec(512), &cfg);
        assert!(small.total_io_pages >= medium.total_io_pages);
        assert!(medium.total_io_pages >= large.total_io_pages);
    }

    #[test]
    fn huge_memory_caches_everything_it_can_and_spills_little() {
        let ct = uniform_ct(1_000, 4);
        // Budget large enough that c_R > n: every record can be cached.
        let s = spec(4_096);
        let sol = ocap(&ct, &s, &OcapConfig { cache_stride: 1 });
        assert_eq!(sol.cached_records, 1_000);
        assert!(
            sol.extra_io_pages < 1.0,
            "nothing should spill when R fits in memory"
        );
    }

    #[test]
    fn skewed_correlation_gets_cheaper_than_uniform() {
        // Same total S volume, different correlation shape: the skewed CT
        // lets OCAP cache the hot keys and avoid re-reading most of S.
        let n = 4_000;
        let uniform = uniform_ct(n, 8);
        let mut skewed_counts = vec![1u64; n - 40];
        let hot_total = 8 * n as u64 - (n as u64 - 40);
        skewed_counts.extend(vec![hot_total / 40; 40]);
        let skewed = CorrelationTable::from_counts(skewed_counts);
        let s = spec(96);
        let cfg = OcapConfig::default();
        let u = ocap(&uniform, &s, &cfg);
        let z = ocap(&skewed, &s, &cfg);
        assert!(
            z.extra_io_pages < u.extra_io_pages,
            "skew must reduce the optimal extra I/O ({} vs {})",
            z.extra_io_pages,
            u.extra_io_pages
        );
        assert!(z.cached_records > 0, "OCAP should cache the hot keys");
    }

    #[test]
    fn zero_count_records_are_excluded_from_partitioning() {
        let mut counts = vec![0u64; 500];
        counts.extend(vec![5u64; 500]);
        let ct = CorrelationTable::from_counts(counts);
        let sol = ocap(&ct, &spec(64), &OcapConfig::default());
        assert_eq!(sol.zero_records, 500);
        // Boundaries only cover the 500 non-zero records minus the cached ones.
        if let Some(&last) = sol.boundaries.last() {
            assert!(last <= 500);
        }
    }

    #[test]
    fn total_includes_base_scans() {
        let ct = uniform_ct(2_000, 4);
        let s = spec(64);
        let sol = ocap(&ct, &s, &OcapConfig::default());
        let base = s.pages_r(2_000) as f64 + (ct.total_matches() as usize).div_ceil(s.b_s()) as f64;
        assert!((sol.total_io_pages - sol.extra_io_pages - base).abs() < 1e-6);
    }
}
