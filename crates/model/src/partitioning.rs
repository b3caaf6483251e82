//! Explicit partitionings of the CT-sorted records and their join cost.
//!
//! §3.1.1 models a partitioning as a Boolean matrix P (equivalently a mapping
//! `f : record index → partition index` over the CT-sorted records) and
//! derives the per-partition join cost of running NBJ on every partition
//! pair:
//!
//! ```text
//! Join(P, m) = Σ_j  ⌈|P_j| / c_R⌉ · Σ_{i ∈ P_j} CT[i]        (record units)
//! CalCost(s, e) = (Σ_{i=s..e} CT[i]) · ⌈(e − s + 1) / c_R⌉    (Eq. 1)
//! ```
//!
//! Theorem 3.1 says an optimal partitioning can always be brought into a
//! canonical form: **consecutive** on the sorted CT, **weakly ordered** by
//! chunk count, and with all but the first partition **divisible** by `c_R`.
//! This module provides the cost function and checkers for the consecutive
//! and divisible properties; the OCAP dynamic program in the `nocap` crate
//! searches only canonical partitionings (its pruning relies on weak
//! ordering) and uses the checkers in its tests.

use crate::ct::CorrelationTable;

/// Per-partition join cost of assigning the CT-sorted records `[start, end)`
/// (0-based, half-open) to a single partition: Eq. (1) of the paper, in
/// *record* units (divide by `b_S` to convert to S pages).
pub fn cal_cost(ct: &CorrelationTable, start: usize, end: usize, c_r: usize) -> u128 {
    debug_assert!(c_r > 0, "chunk size must be positive");
    if start >= end {
        return 0;
    }
    let len = end - start;
    let passes = len.div_ceil(c_r) as u128;
    ct.range_sum(start, end) as u128 * passes
}

/// An assignment of the `n` CT-sorted records to `m` partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    /// `assignment[i]` = partition index of the i-th CT-sorted record.
    assignment: Vec<u32>,
    /// Number of partitions.
    num_partitions: usize,
}

impl Partitioning {
    /// Builds a partitioning from an explicit per-record assignment.
    ///
    /// # Panics
    /// Panics if any entry is `>= num_partitions`.
    pub fn from_assignment(assignment: Vec<u32>, num_partitions: usize) -> Self {
        assert!(
            assignment.iter().all(|&p| (p as usize) < num_partitions),
            "assignment references a partition >= num_partitions"
        );
        Partitioning {
            assignment,
            num_partitions,
        }
    }

    /// Builds a *consecutive* partitioning from cut points.
    ///
    /// `boundaries` are the half-open end indices of each partition in
    /// ascending order; the last boundary must equal `n`. For example
    /// `boundaries = [4, 10]` over `n = 10` records yields partition 0 =
    /// records `[0,4)` and partition 1 = records `[4,10)`.
    pub fn from_boundaries(boundaries: &[usize], n: usize) -> Self {
        assert!(!boundaries.is_empty(), "need at least one partition");
        assert_eq!(
            *boundaries.last().unwrap(),
            n,
            "last boundary must cover all records"
        );
        let mut assignment = vec![0u32; n];
        let mut start = 0usize;
        for (p, &end) in boundaries.iter().enumerate() {
            assert!(end >= start, "boundaries must be non-decreasing");
            for slot in assignment.iter_mut().take(end).skip(start) {
                *slot = p as u32;
            }
            start = end;
        }
        Partitioning {
            assignment,
            num_partitions: boundaries.len(),
        }
    }

    /// Builds the uniform hash partitioning used by GHJ/DHH for comparison:
    /// record `i` goes to partition `hash(i) mod m`. A multiplicative hash is
    /// used so that the assignment is deterministic but uncorrelated with the
    /// CT order.
    pub fn uniform_hash(n: usize, m: usize) -> Self {
        assert!(m > 0);
        let assignment = (0..n)
            .map(|i| (((i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 17) % m as u64) as u32)
            .collect();
        Partitioning {
            assignment,
            num_partitions: m,
        }
    }

    /// Number of records covered.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Returns `true` if the partitioning covers no records.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Number of partitions (the paper's m).
    pub fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    /// Partition index of the i-th CT-sorted record.
    pub fn partition_of(&self, idx: usize) -> usize {
        self.assignment[idx] as usize
    }

    /// The full assignment vector.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Number of records in each partition (`|P_j|`).
    pub fn partition_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_partitions];
        for &p in &self.assignment {
            sizes[p as usize] += 1;
        }
        sizes
    }

    /// Sum of CT values per partition (`Σ_{i ∈ P_j} CT[i]`), i.e. the number
    /// of S records routed to each partition.
    pub fn partition_match_sums(&self, ct: &CorrelationTable) -> Vec<u64> {
        assert_eq!(ct.len(), self.len(), "CT and partitioning must align");
        let mut sums = vec![0u64; self.num_partitions];
        for (i, &p) in self.assignment.iter().enumerate() {
            sums[p as usize] += ct.count_at(i);
        }
        sums
    }

    /// The per-partition NBJ join cost `Join(P, m)` in record units
    /// (excluding the common `‖R‖ + ‖S‖` scan shared by every strategy).
    pub fn join_cost(&self, ct: &CorrelationTable, c_r: usize) -> u128 {
        assert!(c_r > 0);
        let sizes = self.partition_sizes();
        let sums = self.partition_match_sums(ct);
        sizes
            .iter()
            .zip(sums.iter())
            .map(|(&size, &sum)| {
                if size == 0 {
                    0
                } else {
                    sum as u128 * size.div_ceil(c_r) as u128
                }
            })
            .sum()
    }

    /// Number of chunk passes over S charged to the i-th CT-sorted record,
    /// `⌈|N_f(i)| / c_R⌉` — the quantity plotted in Figure 4.
    pub fn passes_per_record(&self, c_r: usize) -> Vec<usize> {
        let sizes = self.partition_sizes();
        self.assignment
            .iter()
            .map(|&p| sizes[p as usize].div_ceil(c_r))
            .collect()
    }

    /// Checks the **consecutive** property of Theorem 3.1: every partition
    /// occupies a contiguous range of the CT-sorted indices.
    pub fn is_consecutive(&self) -> bool {
        let mut seen_end: Vec<Option<usize>> = vec![None; self.num_partitions];
        let mut current: Option<u32> = None;
        for (i, &p) in self.assignment.iter().enumerate() {
            if current != Some(p) {
                // Entering partition p: it must not have been closed before.
                if seen_end[p as usize].is_some() {
                    return false;
                }
                if let Some(prev) = current {
                    seen_end[prev as usize] = Some(i);
                }
                current = Some(p);
            }
        }
        true
    }

    /// Checks the **divisible** property: every partition except the first
    /// (in CT order) has a size divisible by `c_R`. Empty partitions are
    /// ignored.
    pub fn is_divisible(&self, c_r: usize) -> bool {
        assert!(c_r > 0);
        let sizes = self.partition_sizes();
        let mut order: Vec<usize> = Vec::new();
        let mut last: Option<u32> = None;
        for &p in &self.assignment {
            if last != Some(p) {
                order.push(p as usize);
                last = Some(p);
            }
        }
        order
            .iter()
            .skip(1)
            .all(|&p| sizes[p] == 0 || sizes[p].is_multiple_of(c_r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ct(counts: Vec<u64>) -> CorrelationTable {
        CorrelationTable::from_counts(counts)
    }

    #[test]
    fn cal_cost_matches_hand_computation() {
        let table = ct(vec![1, 2, 3, 4, 5, 6]); // sorted ascending already
                                                // Records [0,4) hold counts 1+2+3+4 = 10; with c_R = 2 that is 2 passes.
        assert_eq!(cal_cost(&table, 0, 4, 2), 20);
        // Single chunk: 1 pass.
        assert_eq!(cal_cost(&table, 0, 2, 10), 3);
        // Empty range costs nothing.
        assert_eq!(cal_cost(&table, 3, 3, 2), 0);
    }

    #[test]
    fn boundaries_partitioning_costs_sum_of_cal_costs() {
        let table = ct(vec![1, 1, 2, 2, 8, 16]);
        let p = Partitioning::from_boundaries(&[4, 6], 6);
        let c_r = 2;
        let expected = cal_cost(&table, 0, 4, c_r) + cal_cost(&table, 4, 6, c_r);
        assert_eq!(p.join_cost(&table, c_r), expected);
    }

    #[test]
    fn partition_sizes_and_sums() {
        let table = ct(vec![1, 2, 3, 4]);
        let p = Partitioning::from_assignment(vec![0, 1, 0, 1], 2);
        assert_eq!(p.partition_sizes(), vec![2, 2]);
        assert_eq!(p.partition_match_sums(&table), vec![1 + 3, 2 + 4]);
    }

    #[test]
    fn consecutive_property_detection() {
        let consecutive = Partitioning::from_boundaries(&[2, 5, 9], 9);
        assert!(consecutive.is_consecutive());
        let interleaved = Partitioning::from_assignment(vec![0, 1, 0, 1], 2);
        assert!(!interleaved.is_consecutive());
    }

    #[test]
    fn divisible_property_detection() {
        // First partition may be ragged; the rest must be multiples of c_R.
        let ok = Partitioning::from_boundaries(&[3, 7, 11], 11); // sizes 3, 4, 4
        assert!(ok.is_divisible(4));
        let bad = Partitioning::from_boundaries(&[4, 7, 11], 11); // sizes 4, 3, 4
        assert!(!bad.is_divisible(4));
    }

    #[test]
    fn uniform_hash_spreads_records() {
        let p = Partitioning::uniform_hash(10_000, 16);
        let sizes = p.partition_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 10_000);
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(min > 0, "no partition should be empty for 10K records");
        assert!(
            (max as f64) < 2.0 * (min as f64).max(1.0),
            "uniform hashing should be roughly balanced (min={min}, max={max})"
        );
    }

    #[test]
    fn passes_per_record_matches_partition_size() {
        let p = Partitioning::from_boundaries(&[4, 6], 6);
        let passes = p.passes_per_record(2);
        assert_eq!(passes, vec![2, 2, 2, 2, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "last boundary")]
    fn boundaries_must_cover_all_records() {
        let _ = Partitioning::from_boundaries(&[3], 5);
    }
}
