//! The OCAP dynamic program (Algorithms 5 and 6) with the pruning techniques
//! of §3.1.3.
//!
//! Given an ascending correlation table, [`partition_dp`] finds the cheapest
//! way to cut the records into at most `m_max` partitions, where a partition
//! spanning records `[s, e)` contributes `CalCost(s, e) = Σ CT[s..e] ·
//! ⌈(e−s)/c_R⌉` to the probe cost (record units).
//!
//! Theorem 3.1 restricts the search to *canonical* partitionings:
//!
//! * **consecutive** — a partition is a contiguous range of the sorted CT,
//!   which is what makes a cut-point DP sufficient;
//! * **divisible** — all partitions except the first have sizes divisible by
//!   `c_R`, so candidate cut points can be restricted to
//!   `{n mod c_R, n mod c_R + c_R, …, n}`
//!   (divisible compression), shrinking the state space from
//!   `n` to `⌈n/c_R⌉` positions;
//! * **weakly ordered** — partition chunk-counts never increase along the
//!   sorted CT, which bounds how far back the previous cut can lie
//!   (weakly-ordered pruning).
//!
//! [`partition_dp`] and [`partition_dp_range`] always apply both. The exact
//! (uncompressed, unpruned) DP stays private, for the tests, which
//! cross-check it against a brute-force search over *all* partitionings on
//! tiny inputs — this is the empirical verification of Theorem 3.1 in this
//! reproduction — and check that the speedups keep its optimum.

use nocap_model::{cal_cost, CorrelationTable};

/// Which of §3.1.3's speedups a solve applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Speedups {
    /// Restrict cut points to multiples of `c_R` (plus the ragged first
    /// partition), per the divisible property.
    divisible_compression: bool,
    /// Bound the inner search using the weakly-ordered property.
    weakly_ordered_pruning: bool,
}

impl Speedups {
    /// Both speedups: what every caller outside the tests runs.
    const ALL: Speedups = Speedups {
        divisible_compression: true,
        weakly_ordered_pruning: true,
    };
}

/// Result of the dynamic program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpSolution {
    /// Optimal probe cost in record units (`Σ_j CalCost(P_j)`).
    pub cost: u128,
    /// End indices (exclusive) of each partition over the input CT, in
    /// ascending order; the last boundary equals `ct.len()`.
    pub boundaries: Vec<usize>,
}

impl DpSolution {
    /// Number of partitions used by the optimal solution.
    pub fn num_partitions(&self) -> usize {
        self.boundaries.len()
    }

    /// The trivial solution for an empty input.
    pub fn empty() -> Self {
        DpSolution {
            cost: 0,
            boundaries: Vec::new(),
        }
    }
}

const INF: u128 = u128::MAX;

/// Finds the optimal consecutive partitioning of `ct` (ascending) into at
/// most `m_max` partitions under chunk size `c_r`.
///
/// Returns the cheapest solution over every partition count `1..=m_max`.
/// An empty `ct` yields [`DpSolution::empty`].
pub fn partition_dp(ct: &CorrelationTable, m_max: usize, c_r: usize) -> DpSolution {
    partition_dp_range(ct, 0, ct.len(), m_max, c_r)
}

/// [`partition_dp`] over the entries `[start, end)` of `ct` only, as if they
/// were a table of their own: the boundaries are relative to `start` and the
/// last one equals `end − start`. `CalCost` needs nothing but range sums, so
/// a caller that costs many sub-ranges of one table (the NOCAP planner)
/// builds the table and its prefix sums once instead of copying each range
/// out.
pub fn partition_dp_range(
    ct: &CorrelationTable,
    start: usize,
    end: usize,
    m_max: usize,
    c_r: usize,
) -> DpSolution {
    solve(ct, start, end, m_max, c_r, Speedups::ALL)
}

/// [`partition_dp_range`] with the speedups `options` applies.
fn solve(
    ct: &CorrelationTable,
    start: usize,
    end: usize,
    m_max: usize,
    c_r: usize,
    options: Speedups,
) -> DpSolution {
    debug_assert!(start <= end && end <= ct.len());
    let n = end - start;
    if n == 0 || m_max == 0 {
        return DpSolution::empty();
    }
    let c_r = c_r.max(1);
    // `CalCost` over the range-relative indices `[s, e)`.
    let cost_of = |s: usize, e: usize| cal_cost(ct, start + s, start + e, c_r);

    // Shortcut: every partition pays at least one pass over its S records,
    // so the probe cost is bounded below by Σ CT. If the budget allows one
    // chunk-sized partition per ⌈n/c_R⌉ chunk, that lower bound is achieved
    // exactly and no search is needed.
    let full_chunks = n.div_ceil(c_r);
    if m_max >= full_chunks {
        let r0 = n % c_r;
        let mut boundaries = Vec::with_capacity(full_chunks);
        let mut pos = if r0 > 0 { r0 } else { c_r.min(n) };
        while pos < n {
            boundaries.push(pos);
            pos += c_r;
        }
        boundaries.push(n);
        return DpSolution {
            cost: ct.range_sum(start, end) as u128,
            boundaries,
        };
    }

    // Candidate cut points (exclusive end indices), ascending, last = n.
    let ends: Vec<usize> = if options.divisible_compression && c_r < n {
        let r0 = n % c_r;
        let mut ends = Vec::with_capacity(n / c_r + 2);
        if r0 > 0 {
            ends.push(r0);
        }
        let mut pos = r0 + c_r;
        while pos <= n {
            ends.push(pos);
            pos += c_r;
        }
        debug_assert_eq!(*ends.last().unwrap(), n);
        ends
    } else {
        (1..=n).collect()
    };

    let num_pos = ends.len();
    let m_max = m_max.min(num_pos);

    // cost[p][j]: cheapest cost of putting the first `ends[p-1]` records into
    // exactly j partitions (p = 0 means the empty prefix).
    // Flattened as (num_pos + 1) × (m_max + 1).
    let width = m_max + 1;
    let mut cost = vec![INF; (num_pos + 1) * width];
    let mut choice = vec![usize::MAX; (num_pos + 1) * width];
    cost[0] = 0; // zero records, zero partitions

    let end_of = |p: usize| -> usize {
        if p == 0 {
            0
        } else {
            ends[p - 1]
        }
    };

    for p in 1..=num_pos {
        let i = end_of(p);
        let max_j = m_max.min(p);
        for j in 1..=max_j {
            if j == 1 {
                // A single partition has no choice to make.
                cost[p * width + 1] = cost_of(0, i);
                choice[p * width + 1] = 0;
                continue;
            }
            // Weakly-ordered lower bound on the previous cut: the current
            // (last) partition cannot be larger than the smallest earlier
            // partition by more than c_R, so its size i − k is at most
            // ⌊k/(j−1)⌋ + c_R, i.e. k ≥ (i − c_R)·(1 − 1/j).
            let k_lower = if options.weakly_ordered_pruning && j > 1 {
                let bound = (i as f64 - c_r as f64) * (1.0 - 1.0 / j as f64);
                bound.max(0.0).floor() as usize
            } else {
                0
            };
            let mut best = INF;
            let mut best_q = usize::MAX;
            for q in (0..p).rev() {
                let k = end_of(q);
                if k < k_lower {
                    break; // ends are ascending; earlier q only get smaller
                }
                let prev = cost[q * width + (j - 1)];
                if prev == INF {
                    continue;
                }
                let candidate = prev + cost_of(k, i);
                if candidate < best {
                    best = candidate;
                    best_q = q;
                }
            }
            cost[p * width + j] = best;
            choice[p * width + j] = best_q;
        }
    }

    // Best over all partition counts.
    let mut best_j = 1;
    let mut best_cost = cost[num_pos * width + 1];
    for j in 2..=m_max {
        let c = cost[num_pos * width + j];
        if c < best_cost {
            best_cost = c;
            best_j = j;
        }
    }
    if best_cost == INF {
        // Should not happen for non-empty input, but stay safe: fall back to
        // a single partition.
        return DpSolution {
            cost: cost_of(0, n),
            boundaries: vec![n],
        };
    }

    // Backtrack boundaries (Algorithm 6).
    let mut boundaries = Vec::with_capacity(best_j);
    let mut p = num_pos;
    let mut j = best_j;
    while j > 0 {
        boundaries.push(end_of(p));
        p = choice[p * width + j];
        j -= 1;
    }
    boundaries.reverse();
    debug_assert_eq!(*boundaries.last().unwrap(), n);

    DpSolution {
        cost: best_cost,
        boundaries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ocap::brute::brute_force_optimal;
    use nocap_model::Partitioning;

    /// The exact dynamic program: every record index is a candidate cut
    /// and no pruning is applied. Quadratic in `n`.
    const EXACT: Speedups = Speedups {
        divisible_compression: false,
        weakly_ordered_pruning: false,
    };
    const PRUNED_ONLY: Speedups = Speedups {
        divisible_compression: false,
        weakly_ordered_pruning: true,
    };

    fn exact_dp(table: &CorrelationTable, m_max: usize, c_r: usize) -> DpSolution {
        solve(table, 0, table.len(), m_max, c_r, EXACT)
    }

    fn ct(counts: Vec<u64>) -> CorrelationTable {
        CorrelationTable::from_counts(counts)
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let empty = ct(vec![]);
        assert_eq!(partition_dp(&empty, 4, 3), DpSolution::empty());
        let one = ct(vec![7]);
        let sol = partition_dp(&one, 0, 3);
        assert_eq!(sol, DpSolution::empty());
    }

    #[test]
    fn single_partition_cost_is_cal_cost() {
        let table = ct(vec![1, 2, 3, 4, 5]);
        let sol = exact_dp(&table, 1, 2);
        assert_eq!(sol.boundaries, vec![5]);
        assert_eq!(sol.cost, cal_cost(&table, 0, 5, 2));
    }

    #[test]
    fn exact_dp_matches_brute_force_on_small_inputs() {
        let cases: Vec<(Vec<u64>, usize, usize)> = vec![
            (vec![0, 1, 1, 2, 8, 9], 3, 2),
            (vec![5, 5, 5, 5, 5, 5], 3, 2),
            (vec![1, 1, 1, 1, 100], 2, 2),
            (vec![3, 7, 7, 9, 20, 20, 21], 4, 3),
            (vec![2, 4, 8, 16, 32, 64, 128, 256], 4, 2),
        ];
        for (counts, m, c_r) in cases {
            let table = ct(counts.clone());
            let dp = exact_dp(&table, m, c_r);
            let brute = brute_force_optimal(&table, m, c_r);
            assert_eq!(
                dp.cost, brute,
                "DP must find the global optimum for counts {counts:?} (m={m}, c_R={c_r})"
            );
        }
    }

    #[test]
    fn pruned_dp_matches_exact_dp() {
        // Pseudo-random CTs of moderate size: pruning and compression must
        // not change the optimum.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % 50
        };
        for &(n, m, c_r) in &[(40usize, 5usize, 4usize), (60, 6, 6), (30, 8, 3)] {
            let counts: Vec<u64> = (0..n).map(|_| next()).collect();
            let table = ct(counts);
            let exact = exact_dp(&table, m, c_r);
            let pruned = solve(&table, 0, n, m, c_r, PRUNED_ONLY);
            assert_eq!(
                exact.cost, pruned.cost,
                "weakly-ordered pruning changed the optimum"
            );
            // Divisible compression restricts the search space per Theorem
            // 3.1; by the theorem its optimum is the same.
            let compressed = partition_dp(&table, m, c_r);
            assert_eq!(
                exact.cost, compressed.cost,
                "divisible compression changed the optimum (n={n}, m={m}, c_R={c_r})"
            );
        }
    }

    #[test]
    fn sub_range_dp_equals_the_dp_on_a_copied_table() {
        // Zipf-like ascending counts; every sub-range must be solved exactly
        // as if it had been copied out into a table of its own — costs and
        // boundaries, with and without the §3.1.3 speedups.
        let table = ct((1..=120u64).map(|i| 2_000 / (121 - i)).collect());
        for options in [Speedups::ALL, PRUNED_ONLY, EXACT] {
            for (start, end) in [(0, 120), (0, 37), (37, 120), (50, 51), (13, 97), (60, 60)] {
                let copied = table.slice(start, end);
                for (m_max, c_r) in [(1, 7), (3, 7), (4, 10), (12, 10), (5, 200)] {
                    assert_eq!(
                        solve(&table, start, end, m_max, c_r, options),
                        solve(&copied, 0, copied.len(), m_max, c_r, options),
                        "[{start}, {end}) m_max={m_max} c_R={c_r} {options:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn solution_boundaries_are_canonical() {
        let mut counts: Vec<u64> = Vec::new();
        for i in 0..200u64 {
            counts.push(i / 3);
        }
        let table = ct(counts);
        let c_r = 16;
        let sol = partition_dp(&table, 8, c_r);
        // Rebuild a Partitioning from the boundaries and check the canonical
        // properties from Theorem 3.1.
        let p = Partitioning::from_boundaries(&sol.boundaries, table.len());
        assert!(p.is_consecutive());
        assert!(
            p.is_divisible(c_r),
            "all but the first partition divisible by c_R"
        );
        // Cost recomputed from the partitioning matches the DP's cost.
        assert_eq!(p.join_cost(&table, c_r), sol.cost);
    }

    #[test]
    fn skewed_ct_isolates_hot_keys_in_small_partitions() {
        // 90 cold keys with 1 match, 10 hot keys with 1000 matches.
        let mut counts = vec![1u64; 90];
        counts.extend(vec![1000u64; 10]);
        let table = ct(counts);
        let c_r = 10;
        let sol = partition_dp(&table, 10, c_r);
        let p = Partitioning::from_boundaries(&sol.boundaries, table.len());
        let sizes = p.partition_sizes();
        let sums = p.partition_match_sums(&table);
        // The partition holding the hottest keys must be at most one chunk,
        // so the expensive S records are scanned only once.
        let hottest = sums
            .iter()
            .enumerate()
            .max_by_key(|(_, &s)| s)
            .map(|(i, _)| i)
            .unwrap();
        assert!(sizes[hottest] <= c_r);
        // And the optimal cost beats a uniform 10-way split.
        let uniform = Partitioning::from_boundaries(
            &(1..=10).map(|i| i * 10).collect::<Vec<_>>(),
            table.len(),
        );
        assert!(sol.cost <= uniform.join_cost(&table, c_r));
    }

    #[test]
    fn more_partitions_never_hurt() {
        let table = ct((0..300u64).map(|i| i % 17).collect::<Vec<_>>());
        let c_r = 25;
        let mut prev = u128::MAX;
        for m in 1..=8 {
            let sol = partition_dp(&table, m, c_r);
            assert!(
                sol.cost <= prev,
                "allowing more partitions must not increase cost"
            );
            prev = sol.cost;
        }
    }

    #[test]
    fn uniform_ct_costs_match_even_split() {
        // With a uniform correlation the optimum is (close to) an even,
        // chunk-aligned split.
        let table = ct(vec![4u64; 120]);
        let c_r = 30;
        let sol = partition_dp(&table, 4, c_r);
        assert_eq!(sol.num_partitions(), 4);
        // 4 partitions of exactly one chunk each → every S record scanned once.
        assert_eq!(sol.cost, table.total_matches() as u128);
    }
}
