//! Value histograms summarised as nearest-rank percentiles.

/// Summary of a value distribution (e.g. device call latencies): count,
/// min, median, tail and total.
///
/// Percentiles use the nearest-rank definition — `p` is the smallest
/// recorded value such that at least `p`% of observations are ≤ it — which
/// is exact, needs no interpolation, and always returns an observed value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Smallest observation.
    pub min: u64,
    /// Median (nearest-rank p50).
    pub p50: u64,
    /// Tail (nearest-rank p99).
    pub p99: u64,
    /// Largest observation.
    pub max: u64,
    /// Sum of all observations.
    pub sum: u64,
}

impl HistogramSummary {
    /// Builds a summary from raw observations (sorts `vals` in place).
    pub fn from_values(vals: &mut [u64]) -> Self {
        if vals.is_empty() {
            return HistogramSummary::default();
        }
        vals.sort_unstable();
        HistogramSummary {
            count: vals.len() as u64,
            min: vals[0],
            p50: nearest_rank(vals, 50.0),
            p99: nearest_rank(vals, 99.0),
            max: *vals.last().expect("non-empty"),
            sum: vals.iter().sum(),
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn nearest_rank(sorted: &[u64], pct: f64) -> u64 {
    debug_assert!(!sorted.is_empty());
    let n = sorted.len();
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_one_to_hundred() {
        let mut vals: Vec<u64> = (1..=100).rev().collect();
        let h = HistogramSummary::from_values(&mut vals);
        assert_eq!(h.count, 100);
        assert_eq!(h.min, 1);
        assert_eq!(h.p50, 50);
        assert_eq!(h.p99, 99);
        assert_eq!(h.max, 100);
        assert_eq!(h.sum, 5050);
    }

    #[test]
    fn single_value_collapses_all_percentiles() {
        let mut vals = vec![42];
        let h = HistogramSummary::from_values(&mut vals);
        assert_eq!((h.min, h.p50, h.p99, h.max), (42, 42, 42, 42));
    }

    #[test]
    fn empty_summary_is_all_zero() {
        let h = HistogramSummary::from_values(&mut Vec::new());
        assert_eq!(h, HistogramSummary::default());
    }

    #[test]
    fn skewed_distribution_shows_in_tail() {
        // 99 small partitions and one huge one: p50 stays small, max blows up.
        let mut vals = vec![10u64; 99];
        vals.push(1000);
        let h = HistogramSummary::from_values(&mut vals);
        assert_eq!(h.p50, 10);
        assert_eq!(h.max, 1000);
    }

    #[test]
    fn nearest_rank_small_slices() {
        let sorted = [1u64, 2, 3];
        assert_eq!(nearest_rank(&sorted, 50.0), 2);
        assert_eq!(nearest_rank(&sorted, 99.0), 3);
        assert_eq!(nearest_rank(&sorted, 1.0), 1);
    }
}
