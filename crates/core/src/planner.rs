//! The NOCAP planner (Algorithm 10).
//!
//! Using only the top-k MCV statistics (the same information PostgreSQL's
//! skew optimization consumes), the planner chooses:
//!
//! * `K_mem` — how many of the hottest keys to pin in the in-memory hash
//!   table during partitioning,
//! * `K_disk` — how many of the next-hottest keys to give *designated* disk
//!   partitions (so their S records are written once and scanned once), and
//! * `m_rest` — how many pages remain for partitioning everything else,
//!
//! subject to the strict §4.1 memory breakdown
//! `B_HS + B_HT + B_f + m_disk + m_rest ≤ B − 2`. Each candidate split is
//! costed with the DP of [`crate::ocap::dp`] for the designated keys and
//! [`g_dhh`] for the residual keys; the cheapest plan
//! wins.
//!
//! The paper sweeps every value of `|K_mem|` and `|K_disk|`; thanks to the
//! pruning of §3.1.3 this takes under a second for k = 50 000 MCVs. This
//! implementation evaluates the same search space on an evenly spaced grid
//! (configurable, endpoints always included), which keeps planning in the
//! microsecond range for the scaled-down workloads while converging to the
//! same plans in the cases the tests pin down.

use nocap_model::{g_dhh, CorrelationTable, JoinSpec, RoundedHashParams};

use crate::ocap::dp::{partition_dp, DpOptions};
use crate::plan::NocapPlan;

/// Planner configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerConfig {
    /// Number of candidate values evaluated for `|K_mem|` and `|K_disk|`
    /// (endpoints are always included). Larger = closer to the exhaustive
    /// sweep of the paper, smaller = faster planning.
    pub grid_points: usize,
    /// Rounded-hash parameters used when estimating the residual cost and
    /// later by the executor.
    pub rh_params: RoundedHashParams,
    /// Dynamic-program options for the designated-key partitioning.
    pub dp: DpOptions,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            grid_points: 48,
            rh_params: RoundedHashParams::default(),
            dp: DpOptions::default(),
        }
    }
}

/// Evenly spaced candidate values in `0..=max`, always including both
/// endpoints.
fn grid(max: usize, points: usize) -> Vec<usize> {
    if max == 0 {
        return vec![0];
    }
    let points = points.max(2);
    if max < points {
        return (0..=max).collect();
    }
    let mut values: Vec<usize> = (0..points)
        .map(|i| (i as f64 / (points - 1) as f64 * max as f64).round() as usize)
        .collect();
    values.dedup();
    values
}

/// Runs Algorithm 10 and returns the chosen plan.
///
/// * `mcvs` — `(key, match count)` pairs for the tracked most common values,
///   in any order.
/// * `n_r`, `n_s` — total record counts of R and S (cardinality statistics).
pub fn plan_nocap(
    mcvs: &[(u64, u64)],
    n_r: usize,
    n_s: u64,
    spec: &JoinSpec,
    config: &PlannerConfig,
) -> NocapPlan {
    let mut ranked: Vec<(u64, u64)> = mcvs.to_vec();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    // Prefix sums over the descending MCV counts: mass of the top t keys.
    let mut prefix: Vec<u64> = Vec::with_capacity(ranked.len() + 1);
    prefix.push(0);
    for (_, c) in &ranked {
        prefix.push(prefix.last().unwrap() + c);
    }
    let top_mass = |t: usize| -> u64 { prefix[t.min(ranked.len())] };

    let k = ranked.len();
    let c_r = spec.c_r().max(1);
    let b_r = spec.b_r().max(1) as f64;
    let b_s = spec.b_s().max(1) as f64;
    let mu = spec.mu();
    let budget = spec.buffer_pages;
    let max_sel = k.min(c_r);

    let mut best: Option<(f64, usize, usize, usize, Vec<usize>)> = None;

    for &i1 in &grid(max_sel, config.grid_points) {
        let fixed_mem = spec.hash_table_pages(i1) + spec.hash_set_pages(i1);
        if fixed_mem + 2 >= budget {
            break; // caching more keys only makes this worse
        }
        for &i2 in &grid(max_sel - i1, config.grid_points) {
            if i1 + i2 > k {
                continue;
            }
            let designated_mass = top_mass(i1 + i2) - top_mass(i1);
            let max_j = if i2 == 0 { 0 } else { i2.div_ceil(c_r).max(1) };
            let j_candidates: Vec<usize> = if i2 == 0 {
                vec![0]
            } else {
                (1..=max_j).collect()
            };
            for j in j_candidates {
                let fixed = fixed_mem + spec.hash_map_pages(i2) + j;
                if fixed + 2 > budget {
                    continue;
                }
                let m_rest = budget - 2 - fixed;

                // Cost of the designated partitions: DP over the i2 selected
                // counts (ascending) into j partitions.
                let (dp_cost, boundaries) = if i2 == 0 {
                    (0u128, Vec::new())
                } else {
                    let ascending: Vec<u64> =
                        ranked[i1..i1 + i2].iter().rev().map(|&(_, c)| c).collect();
                    let ct = CorrelationTable::from_counts(ascending);
                    let sol = partition_dp(&ct, j, c_r, &config.dp);
                    (sol.cost, sol.boundaries)
                };
                let designated_r_pages = (i2 as f64 / b_r).ceil();
                let c_probe = designated_r_pages + dp_cost as f64 / b_s;
                let c_part = mu * (designated_r_pages + (designated_mass as f64 / b_s).ceil());

                // Residual keys handled by DHH/rounded hash with m_rest pages.
                let rest_keys = n_r.saturating_sub(i1 + i2);
                let rest_matches = n_s.saturating_sub(top_mass(i1 + i2));
                let c_rest = g_dhh(rest_keys, rest_matches, spec, m_rest);

                let total = c_probe + c_part + c_rest;
                let better = match &best {
                    Some((cost, ..)) => total < *cost,
                    None => true,
                };
                if better {
                    best = Some((total, i1, i2, m_rest, boundaries));
                }
            }
        }
    }

    let (cost, i1, i2, m_rest, boundaries) =
        best.unwrap_or((f64::INFINITY, 0, 0, budget.saturating_sub(2), Vec::new()));

    // Materialize the plan: K_mem = top-i1 keys, K_disk = next i2 keys split
    // at the DP boundaries (which are expressed over the *ascending* view of
    // those i2 counts).
    let mem_keys: Vec<u64> = ranked[..i1].iter().map(|&(k, _)| k).collect();
    let mut disk_partitions: Vec<Vec<u64>> = Vec::new();
    if i2 > 0 {
        let ascending_keys: Vec<u64> = ranked[i1..i1 + i2].iter().rev().map(|&(k, _)| k).collect();
        let bounds = if boundaries.is_empty() {
            vec![i2]
        } else {
            boundaries
        };
        let mut start = 0usize;
        for &end in &bounds {
            disk_partitions.push(ascending_keys[start..end].to_vec());
            start = end;
        }
    }

    NocapPlan {
        mem_keys,
        disk_partitions,
        m_rest,
        estimated_extra_io: cost,
        estimated_rest_keys: n_r.saturating_sub(i1 + i2),
        estimated_rest_matches: n_s.saturating_sub(top_mass(i1 + i2)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(buffer_pages: usize) -> JoinSpec {
        JoinSpec::paper_synthetic(256, buffer_pages)
    }

    /// MCVs for a Zipf-ish workload: a handful of very hot keys.
    fn skewed_mcvs(k: usize, n_s: u64) -> Vec<(u64, u64)> {
        let mut total = 0u64;
        let mut mcvs = Vec::new();
        for i in 0..k as u64 {
            let count = (n_s / 4) / (i + 1).pow(2) + 1;
            mcvs.push((i, count));
            total += count;
        }
        assert!(total < n_s);
        mcvs
    }

    fn uniform_mcvs(k: usize, per_key: u64) -> Vec<(u64, u64)> {
        (0..k as u64).map(|i| (i, per_key)).collect()
    }

    #[test]
    fn grid_includes_endpoints() {
        assert_eq!(grid(0, 10), vec![0]);
        assert_eq!(grid(5, 100), vec![0, 1, 2, 3, 4, 5]);
        let g = grid(1_000, 16);
        assert_eq!(*g.first().unwrap(), 0);
        assert_eq!(*g.last().unwrap(), 1_000);
        assert!(g.len() <= 16);
        assert!(g.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn plan_respects_the_memory_budget() {
        let s = spec(96);
        let plan = plan_nocap(
            &skewed_mcvs(500, 160_000),
            20_000,
            160_000,
            &s,
            &PlannerConfig::default(),
        );
        assert!(plan.fits_budget(&s), "planner must respect B");
        assert!(plan.m_rest > 0);
    }

    #[test]
    fn skewed_correlation_caches_hot_keys_when_memory_allows() {
        let s = spec(512);
        let plan = plan_nocap(
            &skewed_mcvs(1_000, 160_000),
            20_000,
            160_000,
            &s,
            &PlannerConfig::default(),
        );
        assert!(
            plan.k_mem() > 0,
            "with skew and a reasonable budget the planner should cache hot keys"
        );
        // The hottest MCV (key 0) must be among the cached keys.
        assert!(plan.mem_keys.contains(&0));
    }

    #[test]
    fn uniform_correlation_with_tiny_memory_caches_little() {
        let s = spec(24);
        let plan = plan_nocap(
            &uniform_mcvs(1_000, 8),
            20_000,
            160_000,
            &s,
            &PlannerConfig::default(),
        );
        // Under a uniform correlation there is nothing special to cache; the
        // plan should give (almost) all memory to the residual partitioner.
        assert!(
            plan.k_mem() * 8 <= 160,
            "uniform MCVs should not be worth much caching"
        );
        assert!(plan.m_rest >= s.buffer_pages / 2);
        assert!(plan.fits_budget(&s));
    }

    #[test]
    fn estimated_cost_never_exceeds_the_no_cache_plan() {
        // The i1 = i2 = 0 candidate (pure DHH) is always in the search space,
        // so the chosen plan can only be cheaper or equal.
        let s = spec(128);
        let mcvs = skewed_mcvs(800, 320_000);
        let plan = plan_nocap(&mcvs, 40_000, 320_000, &s, &PlannerConfig::default());
        let no_cache_cost = g_dhh(40_000, 320_000, &s, s.buffer_pages - 2);
        assert!(plan.estimated_extra_io <= no_cache_cost + 1e-6);
    }

    #[test]
    fn more_memory_never_increases_estimated_cost() {
        let mcvs = skewed_mcvs(600, 160_000);
        let cfg = PlannerConfig::default();
        let mut prev = f64::INFINITY;
        for b in [32usize, 64, 128, 256, 512, 1024] {
            let plan = plan_nocap(&mcvs, 20_000, 160_000, &spec(b), &cfg);
            assert!(
                plan.estimated_extra_io <= prev + 1e-6,
                "estimated extra I/O should not grow with memory (B={b})"
            );
            prev = plan.estimated_extra_io;
        }
    }

    #[test]
    fn designated_partitions_hold_the_right_keys() {
        let s = spec(256);
        let mcvs = skewed_mcvs(200, 80_000);
        let plan = plan_nocap(&mcvs, 10_000, 80_000, &s, &PlannerConfig::default());
        // All designated keys must come from the MCV list and not overlap
        // with the cached keys.
        let mem = plan.mem_key_set();
        let mcv_keys: std::collections::HashSet<u64> = mcvs.iter().map(|&(k, _)| k).collect();
        for part in &plan.disk_partitions {
            for key in part {
                assert!(mcv_keys.contains(key));
                assert!(!mem.contains(key));
            }
        }
    }

    #[test]
    fn empty_mcvs_produce_a_pure_rest_plan() {
        let s = spec(64);
        let plan = plan_nocap(&[], 5_000, 40_000, &s, &PlannerConfig::default());
        assert_eq!(plan.k_mem(), 0);
        assert_eq!(plan.k_disk(), 0);
        assert_eq!(plan.m_rest, s.buffer_pages - 2);
        assert_eq!(plan.estimated_rest_keys, 5_000);
    }
}
