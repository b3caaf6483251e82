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
//! `B_HS + B_HT + B_f + m_disk + m_rest ≤ B − 2`.
//!
//! **Search space.** `|K_mem|` ranges over every prefix of the MCV list whose
//! hash table and key set fit the budget (memory is what bounds it, §4.1);
//! `|K_disk|` over every run of the MCVs that follow — the whole list is
//! searchable, a designated key costs only its `f_disk` entry and its share
//! of an output page; `m_disk` over `1..=⌈|K_disk| / c_R⌉`. Whatever the
//! three leave of the budget is `m_rest`.
//!
//! **Cost of a candidate.** The designated keys are costed with the DP of
//! [`crate::ocap::dp`], run on a sub-range of one ascending table over all
//! the MCVs that is built once per plan (`CalCost` needs only range sums).
//! The residual keys are costed with [`g_dhh`], which prices the join the
//! executor will run on them: its partition count and resident-first
//! staging quotas (a partition that stays in memory costs nothing, so
//! `m_rest` competes with `K_mem` for the pages of a hybrid hash join), and
//! its light optimizer's choice between chunk-wise NBJ and Grace-style
//! recursion for every spilled pair. Both are O(1) in the number of MCVs:
//! the DP sees `⌈|K_disk| / c_R⌉` cut positions, and is skipped altogether
//! when a lower bound on its result already loses to the incumbent.
//!
//! **Coarse to fine.** The paper sweeps every value of `|K_mem|` and
//! `|K_disk|`. Here a coarse pass costs an evenly spaced
//! 48 × 48 grid over the whole space,
//! and a fine pass then searches within one coarse step of its best
//! candidate down to unit resolution. The optimum is typically a knife edge
//! — the last key cached before the residual partitions outgrow one chunk
//! each, the last page taken from `m_rest` before its pairs need another
//! partitioning pass, the last page `m_rest` needs to keep one more residual
//! partition resident — which no fixed grid lands on. Planning takes 0.8–2.2
//! ms for 5 000 MCVs on the four workloads of `benchmark/` (`planner.plan_s`
//! there; the upper end where part of the residual can stay in memory and
//! [`g_dhh`] weighs up to nine partition counts per call), about 1 % of the
//! join.

use nocap_model::{g_dhh, CorrelationTable, JoinSpec, RoundedHashParams};

use crate::ocap::dp::partition_dp_range;
use crate::plan::NocapPlan;

/// Planner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlannerConfig {
    /// Rounded-hash parameters used when estimating the residual cost and
    /// later by the executor.
    pub rh_params: RoundedHashParams,
}

/// Resolution of the coarse pass: the number of evenly spaced values it
/// tries for the count of selected MCVs and, for each, for `|K_mem|`
/// (endpoints are always included). The fine pass refines the best of them
/// to unit resolution whatever this is; a larger value only makes it less
/// likely that the coarse pass settles in the wrong basin, at a
/// quadratically higher planning time.
const GRID_POINTS: usize = 48;

/// Upper bound on the rounds of the fine pass.
const FINE_ROUNDS: usize = 4;

/// Shrink factor of the fine pass's stride, and half the number of samples
/// it takes per line and stride.
const ZOOM: usize = 8;

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

/// The lines through the incumbent that the fine pass samples: each trades
/// pages between two of the three consumers of the budget and leaves the
/// third alone.
#[derive(Clone, Copy)]
enum Line {
    /// `m_rest` fixed: `|K_disk|` moves, and `|K_mem|` takes up or gives
    /// back the pages that frees or costs.
    Swap,
    /// `|K_disk|` fixed: `|K_mem|` moves against `m_rest`.
    Mem,
    /// `|K_mem|` fixed: `|K_disk|` moves against `m_rest`.
    Disk,
}

/// One costed candidate of the search: `|K_mem|`, `|K_disk|`, `m_disk` and
/// the estimated extra I/O.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Candidate {
    cost: f64,
    i1: usize,
    i2: usize,
    j: usize,
}

/// The search state: everything a candidate's cost depends on, gathered
/// once per plan, and the cheapest candidate found so far.
struct Search<'a> {
    /// The MCV counts in ascending order, with prefix sums: the top `t`
    /// keys are the entries `[k − t, k)`.
    ct: CorrelationTable,
    n_r: usize,
    n_s: u64,
    spec: &'a JoinSpec,
    config: &'a PlannerConfig,
    c_r: usize,
    b_r: f64,
    b_s: f64,
    /// Residual estimates already computed: slot `m_rest` holds
    /// `(t + 1, g_dhh(..))` for the number `t` of selected MCVs it was
    /// computed for. Candidates that select the same `t` keys share the
    /// residual and differ only in how they split the selected keys' pages.
    rest_memo: Vec<(usize, f64)>,
    best: Option<Candidate>,
}

impl Search<'_> {
    /// Number of S records matching the `t` hottest MCVs.
    fn top_mass(&self, t: usize) -> u64 {
        let k = self.ct.len();
        self.ct.range_sum(k - t, k)
    }

    /// Pages `K_mem = i1` pins: `B_HT + B_HS`.
    fn mem_pages(&self, i1: usize) -> usize {
        self.spec.hash_table_pages(i1) + self.spec.hash_set_pages(i1)
    }

    /// The largest `|K_mem|` (of at most `max` keys) that `pages` pages can
    /// pin; the pages are monotone in the key count.
    fn top_mem(&self, pages: usize, max: usize) -> usize {
        let (mut lo, mut hi) = (0usize, max);
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if self.mem_pages(mid) <= pages {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }

    /// Estimated cost of the residual join when the `t` hottest MCVs are
    /// selected and `m_rest` pages are left: what the executor's residual
    /// partitioner and light optimizer will do with them.
    fn rest_cost(&mut self, t: usize, m_rest: usize) -> f64 {
        let (stamp, cost) = self.rest_memo[m_rest];
        if stamp == t + 1 {
            return cost;
        }
        let cost = g_dhh(
            self.n_r.saturating_sub(t),
            self.n_s.saturating_sub(self.top_mass(t)),
            self.spec,
            m_rest,
            &self.config.rh_params,
        );
        self.rest_memo[m_rest] = (t + 1, cost);
        cost
    }

    /// Costs caching the top `i1` keys and designating the next `i2` under
    /// every feasible `m_disk`, keeping the cheapest candidate in `best`.
    fn consider(&mut self, i1: usize, i2: usize) {
        let k = self.ct.len();
        let budget = self.spec.buffer_pages;
        let fixed = self.mem_pages(i1) + self.spec.hash_map_pages(i2);
        let max_j = i2.div_ceil(self.c_r);
        let min_j = usize::from(i2 > 0);
        // Pages m_disk can take: all but the two streaming pages, the fixed
        // structures and — while any key is left to it — the one page the
        // residual partitioner needs to write through.
        let reserved = 2 + fixed + usize::from(self.n_r > i1 + i2);
        let Some(spare) = budget.checked_sub(reserved).filter(|&spare| spare >= min_j) else {
            return;
        };
        let (start, end) = (k - i1 - i2, k - i1);
        let mass = self.ct.range_sum(start, end);
        let designated_r_pages = (i2 as f64 / self.b_r).ceil();
        let c_part = self.spec.mu() * (designated_r_pages + (mass as f64 / self.b_s).ceil());
        // Lower bound on the DP's cost with j partitions: every S record is
        // read once, and each partition short of one per chunk holds more
        // than a chunk of keys, so at least the coldest chunk's S records
        // are read once more. Exact at j = max_j.
        let coldest_chunk = if max_j > 1 {
            self.ct.range_sum(start, start + self.c_r)
        } else {
            0
        };
        for j in (min_j..=max_j.min(spare)).rev() {
            let c_rest = self.rest_cost(i1 + i2, budget - 2 - fixed - j);
            let mut dp_cost = (mass + (max_j - j) as u64 * coldest_chunk) as f64;
            let cost_with =
                |dp_cost: f64| designated_r_pages + dp_cost / self.b_s + c_part + c_rest;
            if self.best.is_some_and(|b| cost_with(dp_cost) >= b.cost) {
                continue;
            }
            if j < max_j {
                // Cost of the designated partitions: DP over the i2 selected
                // counts (a sub-range of the ascending table) into j
                // partitions.
                dp_cost = partition_dp_range(&self.ct, start, end, j, self.c_r).cost as f64;
            }
            let cost = cost_with(dp_cost);
            if self.best.is_none_or(|b| cost < b.cost) {
                self.best = Some(Candidate { cost, i1, i2, j });
            }
        }
    }
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
    plan_on_grid(mcvs, n_r, n_s, spec, config, GRID_POINTS)
}

/// [`plan_nocap`] with a coarse pass of `grid_points` values per axis.
fn plan_on_grid(
    mcvs: &[(u64, u64)],
    n_r: usize,
    n_s: u64,
    spec: &JoinSpec,
    config: &PlannerConfig,
    grid_points: usize,
) -> NocapPlan {
    let mut ranked: Vec<(u64, u64)> = mcvs.to_vec();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let k = ranked.len();
    let budget = spec.buffer_pages;

    let mut search = Search {
        // Ascending entry `a` is `ranked[k − 1 − a]` (the input is already
        // sorted, so the table keeps this order).
        ct: CorrelationTable::from_counts(ranked.iter().rev().map(|&(_, c)| c)),
        n_r,
        n_s,
        spec,
        config,
        c_r: spec.c_r().max(1),
        b_r: spec.b_r().max(1) as f64,
        b_s: spec.b_s().max(1) as f64,
        rest_memo: vec![(0, 0.0); budget.saturating_sub(1)],
        best: None,
    };

    // K_mem is bounded by memory: its table and key set must leave the two
    // streaming pages and one page to partition with.
    let max_mem = search.top_mem(budget.saturating_sub(3), k);

    // Coarse pass: an evenly spaced grid over the whole space — the number
    // `t` of MCVs taken out of the residual, and how many of them are cached.
    for &t in &grid(k, grid_points) {
        for &i1 in &grid(t.min(max_mem), grid_points) {
            search.consider(i1, t - i1);
        }
    }

    // Fine pass: within one coarse step of the incumbent, along three lines
    // through it (see [`Line`]). Each line is sampled `2·ZOOM + 1` times
    // around the incumbent (clamped to the line's ends, where the corner
    // plans sit) at a stride that shrinks `ZOOM`-fold down to unit
    // resolution; the lines repeat until none improves the incumbent.
    let step = |max: usize| max.div_ceil(grid_points.max(2) - 1).max(1);
    for _ in 0..FINE_ROUNDS {
        let before = search.best;
        for line in [Line::Swap, Line::Mem, Line::Disk] {
            let mut stride = match line {
                Line::Mem => step(max_mem),
                Line::Swap | Line::Disk => step(k),
            };
            while stride > 1 {
                stride = stride.div_ceil(ZOOM);
                let Some(Candidate { i1, i2, j, .. }) = search.best else {
                    break;
                };
                // Pages of the incumbent that are not m_rest's.
                let selected_pages = search.mem_pages(i1) + spec.hash_map_pages(i2) + j;
                let (x, end) = match line {
                    Line::Mem => (i1, max_mem.min(k - i2)),
                    Line::Swap => (i2, k),
                    Line::Disk => (i2, k - i1),
                };
                // Both ends of the line, then the samples around x.
                let samples = (-(ZOOM as isize)..=ZOOM as isize)
                    .map(|sample| x.saturating_add_signed(sample * stride as isize).min(end));
                let mut last = None;
                for x in [0, end].into_iter().chain(samples) {
                    if last.replace(x) == Some(x) {
                        continue;
                    }
                    match line {
                        Line::Mem => search.consider(x, i2),
                        Line::Disk => search.consider(i1, x),
                        Line::Swap => {
                            let disk_pages = spec.hash_map_pages(x) + x.div_ceil(search.c_r);
                            if let Some(mem_pages) = selected_pages.checked_sub(disk_pages) {
                                search.consider(search.top_mem(mem_pages, max_mem.min(k - x)), x);
                            }
                        }
                    }
                }
            }
        }
        if search.best == before {
            break;
        }
    }

    let Candidate { cost, i1, i2, j } = search.best.unwrap_or(Candidate {
        cost: f64::INFINITY,
        i1: 0,
        i2: 0,
        j: 0,
    });

    // Materialize the plan: K_mem = top-i1 keys, K_disk = next i2 keys split
    // at the DP boundaries (which are expressed over the *ascending* view of
    // those i2 counts).
    let mem_keys: Vec<u64> = ranked[..i1].iter().map(|&(k, _)| k).collect();
    let mut disk_partitions: Vec<Vec<u64>> = Vec::new();
    if i2 > 0 {
        let ascending_keys: Vec<u64> = ranked[i1..i1 + i2].iter().rev().map(|&(k, _)| k).collect();
        let boundaries =
            partition_dp_range(&search.ct, k - i1 - i2, k - i1, j, search.c_r).boundaries;
        let mut start = 0usize;
        for end in boundaries {
            disk_partitions.push(ascending_keys[start..end].to_vec());
            start = end;
        }
    }

    let mut plan = NocapPlan {
        mem_keys,
        disk_partitions,
        m_rest: 0,
        estimated_extra_io: cost,
        estimated_rest_keys: n_r.saturating_sub(i1 + i2),
        estimated_rest_matches: n_s.saturating_sub(search.top_mass(i1 + i2)),
    };
    plan.m_rest = budget.saturating_sub(2 + plan.fixed_memory_pages(spec));
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The §4.1 constraint `B_HS + B_HT + B_f + m_disk + m_rest ≤ B − 2`:
    /// the plan's declared pages pass the budget check.
    fn fits(plan: &NocapPlan, spec: &JoinSpec) -> bool {
        spec.pages_left(2 + plan.fixed_memory_pages(spec) + plan.m_rest)
            .is_ok()
    }

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
        assert!(fits(&plan, &s), "planner must respect B");
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
        // Under a uniform correlation there is nothing special to cache or
        // designate, and at B = 24 every page taken from the residual
        // partitioner buys random writes for its reads. Whatever the planner
        // chooses must, in a real run, cost no more modeled time than the
        // pass-through-heavy plan an earlier planner chose here: one
        // designated partition of 323 keys and 20 pages for the rest.
        use crate::exec::{tests::build_workload, NocapConfig, NocapJoin};
        let s = spec(24);
        let device = nocap_storage::SimDevice::new_ref();
        let (r, s_rel, _) = build_workload(device, &s, 20_000, |_| 8);
        let mcvs = uniform_mcvs(1_000, 8);
        let plan = plan_nocap(&mcvs, 20_000, 160_000, &s, &PlannerConfig::default());
        assert!(fits(&plan, &s));
        let pass_through = NocapPlan {
            disk_partitions: vec![(0..323).collect()],
            ..NocapPlan::passthrough(20, 20_000 - 323, 160_000 - 8 * 323)
        };
        assert!(fits(&pass_through, &s));

        let join = NocapJoin::new(s, NocapConfig::default());
        let modeled_secs = |plan: &NocapPlan| {
            let report = join
                .run_with_plan(&r, &s_rel, plan, 1, &nocap_obs::Obs::off())
                .unwrap();
            assert_eq!(report.output_records, 160_000);
            report.io_latency_secs(&s.device)
        };
        let (chosen, reference) = (modeled_secs(&plan), modeled_secs(&pass_through));
        assert!(
            chosen <= reference,
            "the planner's plan ({} / {} / {} / {}) runs {chosen:.4} modeled s, \
             the pass-through plan {reference:.4}",
            plan.k_mem(),
            plan.k_disk(),
            plan.num_designated(),
            plan.m_rest
        );
    }

    #[test]
    fn estimated_cost_never_exceeds_the_no_cache_plan() {
        // The i1 = i2 = 0 candidate (pure DHH) is always in the search space,
        // so the chosen plan can only be cheaper or equal.
        let s = spec(128);
        let mcvs = skewed_mcvs(800, 320_000);
        let plan = plan_nocap(&mcvs, 40_000, 320_000, &s, &PlannerConfig::default());
        let no_cache_cost = g_dhh(
            40_000,
            320_000,
            &s,
            s.buffer_pages - 2,
            &RoundedHashParams::default(),
        );
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
        let mem: std::collections::HashSet<u64> = plan.mem_keys.iter().copied().collect();
        let mcv_keys: std::collections::HashSet<u64> = mcvs.iter().map(|&(k, _)| k).collect();
        for part in &plan.disk_partitions {
            for key in part {
                assert!(mcv_keys.contains(key));
                assert!(!mem.contains(key));
            }
        }
    }

    /// MCVs of a Zipf(1.0) correlation over `n_r` keys: the `k` hottest.
    fn zipf_mcvs(k: usize, n_r: usize, n_s: u64) -> Vec<(u64, u64)> {
        let harmonic: f64 = (1..=n_r).map(|rank| 1.0 / rank as f64).sum();
        (1..=k)
            .map(|rank| (rank as u64, (n_s as f64 / (harmonic * rank as f64)) as u64))
            .collect()
    }

    #[test]
    fn the_whole_mcv_list_can_be_designated() {
        // Below √(F·‖R‖) every residual page is partitioned twice, so
        // designated partitions pay for far more keys than one chunk: §4.1
        // bounds K_mem by memory, K_disk only by its map and output pages.
        let s = spec(18);
        let mcvs = zipf_mcvs(1_000, 20_000, 160_000);
        let plan = plan_nocap(&mcvs, 20_000, 160_000, &s, &PlannerConfig::default());
        assert!(fits(&plan, &s));
        assert!(
            plan.k_disk() > 2 * s.c_r() && plan.num_designated() >= 3,
            "K_disk = {} in {} partitions at c_R = {}",
            plan.k_disk(),
            plan.num_designated(),
            s.c_r()
        );
        assert!(plan.m_rest >= 1, "the residual partitioner needs a page");
    }

    #[test]
    fn coarse_to_fine_matches_an_exhaustive_sweep() {
        // A grid finer than the MCV list is the paper's exhaustive sweep. The
        // default 48-point grid plus the fine pass must land within 0.2 % of
        // its estimated cost across the regimes — in particular on the
        // knife edges the coarse grid alone steps over.
        let mcvs = zipf_mcvs(400, 8_000, 64_000);
        let config = PlannerConfig::default();
        for budget in [8usize, 12, 17, 24, 34, 48, 68, 96, 200] {
            let s = spec(budget);
            let best = plan_on_grid(&mcvs, 8_000, 64_000, &s, &config, 1_000);
            let plan = plan_nocap(&mcvs, 8_000, 64_000, &s, &PlannerConfig::default());
            assert!(fits(&plan, &s) && fits(&best, &s));
            assert!(
                plan.estimated_extra_io <= best.estimated_extra_io * 1.002,
                "B = {budget}: {} / {} / {} / {} at {:.0}, the sweep finds {} / {} / {} / {} at {:.0}",
                plan.k_mem(),
                plan.k_disk(),
                plan.num_designated(),
                plan.m_rest,
                plan.estimated_extra_io,
                best.k_mem(),
                best.k_disk(),
                best.num_designated(),
                best.m_rest,
                best.estimated_extra_io
            );
        }
    }

    #[test]
    fn plans_the_papers_fifty_thousand_mcv_list() {
        // The paper's scale (§5.1): k = 50 K tracked MCVs for n_R = 1 M,
        // n_S = 8 M, 1 KB records, at a small and a large budget. The plan
        // fits, keeps the hottest key out of the residual partitioner and
        // prices no more than pure DHH.
        let (n_r, n_s) = (1_000_000, 8_000_000);
        let mcvs = skewed_mcvs(50_000, n_s);
        for buffer_pages in [256usize, 4_096] {
            let s = JoinSpec::paper_synthetic(1024, buffer_pages);
            let plan = plan_nocap(&mcvs, n_r, n_s, &s, &PlannerConfig::default());
            assert!(fits(&plan, &s), "B = {buffer_pages}");
            let hottest_placed =
                plan.mem_keys.contains(&0) || plan.disk_partitions.iter().any(|p| p.contains(&0));
            assert!(hottest_placed, "B = {buffer_pages}: key 0 left residual");
            let dhh = g_dhh(
                n_r,
                n_s,
                &s,
                buffer_pages - 2,
                &RoundedHashParams::default(),
            );
            assert!(plan.estimated_extra_io <= dhh + 1e-6, "B = {buffer_pages}");
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
