//! The residual partitioner's geometry — its partition count and staging
//! quotas — and `g_DHH`, the estimated extra I/O of joining the residual
//! keys with it under a given memory budget.
//!
//! The NOCAP planner (Algorithm 10) splits the keys into three groups:
//! cached in memory (`K_mem`), designated disk partitions (`K_disk`) and the
//! rest (`K_rest`), which is handed to a dynamic-hybrid-hash style
//! partitioner with whatever pages are left (`m_rest`). To choose the split,
//! the planner needs an estimate of how much that residual join will cost —
//! this module provides it, by pricing the join the executor will run
//! rather than a textbook DHH: [`staging_quotas`] is the one place that
//! decides how many partitions there are and how many staging pages each
//! may hold, and the NOCAP executor's residual geometry, DHH's and
//! [`g_dhh`] all call it.
//!
//! **Resident-first quotas.** §2.2's DHH keeps staging until the *global*
//! budget overflows and then destages the largest partition, so with `B`
//! between `√(F·‖R‖)` and `F·‖R‖` part of R stays in memory. Which part
//! depends on the order records arrive, which no sharded scan reproduces;
//! the executors instead fix a quota per partition up front and destage a
//! partition the moment its own table outgrows its quota
//! (`nocap_par::ParallelStager`). The quotas decide up front which
//! partitions are *meant* to stay: the first `s` get a quota that holds
//! their expected table plus four standard deviations of their (binomial)
//! record count (`RESIDENT_SLACK_SIGMAS`), the other `parts − s` share what is
//! left — at least the one output page a destaged partition needs — and
//! `s` is the largest count the budget affords. A resident-designated
//! partition that outgrows its quota all the same is destaged like any
//! other, and then costs what it would have cost without the designation.
//! When no partition can be resident (`s = 0`) the quotas are the even
//! split of the budget; when all can (`s = parts`) the spare pages are
//! spread over all of them.
//!
//! **What `g_dhh` charges.**
//!
//! * Partition sizes follow the router: plain hash spreads the keys evenly,
//!   the rounded hash deals chunk-sized buckets round-robin
//!   ([`RoundedHashParams::rounding_buckets`]).
//! * A partition whose table stays within its quota is joined on the fly
//!   and costs nothing; the probability that it does not is the normal
//!   approximation of its binomial tail.
//! * A spilled partition's R and S pages are written once (μ each) and the
//!   pair is then joined by the light optimizer
//!   ([`best_partition_join`](crate::classic_cost::best_partition_join)):
//!   chunk-wise NBJ, or Grace-style recursion when `m_rest` leaves
//!   partitions too large for NBJ to be cheap — at the expectation over the
//!   partition's binomial size ([`hashed_pair_cost`]).
//!
//! The estimate counts only I/Os *beyond* the unavoidable single scan of both
//! inputs (the same convention the planner uses for its other terms).

use crate::classic_cost::{hashed_pair_cost, normal_tail};
use crate::hash_cost::RoundedHashParams;
use crate::spec::JoinSpec;

/// Standard deviations of its record count that a resident-designated
/// partition's quota holds beyond the expected table. At 4σ about one
/// designated partition in 30 000 outgrows its quota; each σ costs
/// `√(records per partition)` records of quota per resident partition.
const RESIDENT_SLACK_SIGMAS: f64 = 4.0;

/// How the keys reach the staging partitions — what decides the partition
/// count and the expected partition sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StagingRouter<'a> {
    /// Plain hash over a partition count the caller fixed (DHH's `m_DHH`),
    /// clamped so that every partition can own a page of the budget.
    PlainHash {
        /// The partition count asked for.
        parts: usize,
    },
    /// NOCAP's rounded hash (§4.2). The partition count is chosen here:
    /// from one NBJ chunk (`c*_R`) per partition, doubling while that keeps
    /// every partition a page of the budget, the count that maximises the
    /// expected number of resident records (the smallest such count).
    /// Partitions smaller than a chunk cost nothing extra to join and make
    /// residency finer-grained; each costs one more output page.
    RoundedHash(&'a RoundedHashParams),
}

/// A run of consecutive partitions with the same expected size and quota.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct QuotaRun {
    /// Number of partitions in the run.
    partitions: usize,
    /// Expected R records per partition.
    expected_records: f64,
    /// Staging quota per partition, in pages.
    cap: usize,
}

impl QuotaRun {
    /// Probability that a partition of this run outgrows its quota and is
    /// destaged: the normal approximation of the tail of its record count
    /// (binomial, variance at most its expectation) beyond the largest
    /// count whose hash table fits `cap` pages. Tails under 1 % count as
    /// certain either way.
    fn spill_probability(&self, spec: &JoinSpec) -> f64 {
        if self.expected_records <= 0.0 {
            return 0.0;
        }
        let record_pages = spec.r_layout.record_bytes() as f64 * spec.fudge / spec.page_size as f64;
        let capacity = (self.cap as f64 / record_pages).floor();
        let z = (capacity - self.expected_records) / self.expected_records.sqrt();
        if z >= 0.0 {
            normal_tail(z)
        } else {
            1.0 - normal_tail(-z)
        }
    }
}

/// The staging geometry [`staging_quotas`] returns: the partition count and
/// every partition's quota (kept as at most four runs of equal partitions,
/// so the planner's estimate costs the same for 5 partitions and 5 000).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StagingQuotas {
    runs: [QuotaRun; 4],
    /// Number of leading partitions whose quota was sized to keep them in
    /// memory (`s`).
    resident: usize,
}

impl StagingQuotas {
    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.runs.iter().map(|run| run.partitions).sum()
    }

    /// The runs of equal partitions, in partition order.
    fn runs(&self) -> impl Iterator<Item = &QuotaRun> {
        self.runs.iter().filter(|run| run.partitions > 0)
    }

    /// Every partition's staging quota in pages, by partition id. The
    /// quotas sum to the budget and none is below one page.
    pub fn caps(&self) -> Vec<usize> {
        self.runs()
            .flat_map(|run| std::iter::repeat_n(run.cap, run.partitions))
            .collect()
    }

    /// Expected number of records that stay staged in memory.
    fn expected_resident_records(&self, spec: &JoinSpec) -> f64 {
        self.runs()
            .map(|run| {
                run.partitions as f64 * run.expected_records * (1.0 - run.spill_probability(spec))
            })
            .sum()
    }

    /// The quotas of `parts` partitions whose expected record counts are
    /// `sizes` — `(partitions, records each)`, in partition order — under
    /// `budget` pages (see the module docs for the rule).
    fn resident_first(
        budget: usize,
        parts: usize,
        sizes: [(usize, f64); 2],
        spec: &JoinSpec,
    ) -> Self {
        // Pages that keep one partition of each size class resident.
        let quota = sizes.map(|(_, records)| {
            let held = records + RESIDENT_SLACK_SIGMAS * records.sqrt();
            spec.hash_table_pages(held.ceil() as usize).max(1)
        });
        // Every partition needs a page; a resident one `quota − 1` more.
        let mut spare = budget.saturating_sub(parts);
        let (mut resident, mut reserved) = (0, 0);
        for ((count, _), quota) in sizes.into_iter().zip(quota) {
            let affordable = spare.checked_div(quota - 1).map_or(count, |n| n.min(count));
            resident += affordable;
            reserved += affordable * quota;
            spare -= affordable * (quota - 1);
            if affordable < count {
                break;
            }
        }
        // What the resident quotas leave is shared evenly by the other
        // partitions (by all of them, if all are resident), earlier ones
        // taking the remainder.
        let sharers = if resident < parts {
            resident..parts
        } else {
            0..parts
        };
        let class = |p: usize| usize::from(p >= sizes[0].0);
        let left = budget.saturating_sub(reserved);
        let (share, extra) = (left / sharers.len(), left % sharers.len());
        let cap = |p: usize| {
            let own = if p < resident { quota[class(p)] } else { 0 };
            let shared = if sharers.contains(&p) {
                share + usize::from(p - sharers.start < extra)
            } else {
                0
            };
            (own + shared).max(1)
        };
        let mut bounds = [0, sizes[0].0, resident, sharers.start + extra, parts];
        bounds.sort_unstable();
        let mut runs = [QuotaRun::default(); 4];
        for (run, bound) in runs.iter_mut().zip(bounds.windows(2)) {
            if bound[0] < bound[1] {
                *run = QuotaRun {
                    partitions: bound[1] - bound[0],
                    expected_records: sizes[class(bound[0])].1,
                    cap: cap(bound[0]),
                };
            }
        }
        StagingQuotas { runs, resident }
    }
}

/// The staging geometry of a hybrid hash build over `n_keys` keys with
/// `budget` staging pages: how many partitions `router` spreads the keys
/// over, and each partition's resident-first quota (see the module docs).
///
/// The partition count never exceeds `budget − 1`, so that every partition
/// can own a page of the budget next to the partitioner's own.
pub fn staging_quotas(
    n_keys: usize,
    spec: &JoinSpec,
    budget: usize,
    router: StagingRouter<'_>,
) -> StagingQuotas {
    let most = budget.saturating_sub(1).max(1);
    // Expected records per partition, as (partitions, records each) in
    // partition order. Plain hash (`buckets = 0`) spreads the keys evenly;
    // rounded hash deals `buckets` equal buckets round-robin, so the first
    // `buckets mod parts` partitions hold one bucket more.
    let quotas_of = |parts: usize, buckets: usize| {
        let sizes = if buckets == 0 {
            [(parts, n_keys as f64 / parts as f64), (0, 0.0)]
        } else {
            let per_bucket = n_keys as f64 / buckets as f64;
            let (dealt, larger) = (buckets / parts, buckets % parts);
            [
                (larger, (dealt + 1) as f64 * per_bucket),
                (parts - larger, dealt as f64 * per_bucket),
            ]
        };
        StagingQuotas::resident_first(budget, parts, sizes, spec)
    };
    match router {
        StagingRouter::PlainHash { parts } => quotas_of(parts.clamp(1, most), 0),
        StagingRouter::RoundedHash(rh_params) => {
            let c_r = spec.c_r();
            let rounded =
                |parts: usize| quotas_of(parts, rh_params.rounding_buckets(n_keys, parts, c_r));
            let mut parts = n_keys
                .div_ceil(rh_params.effective_chunk(c_r.max(1)))
                .clamp(1, most);
            let mut best = rounded(parts);
            if best.resident < parts {
                // Something spills: would smaller partitions keep more?
                let mut most_resident = best.expected_resident_records(spec);
                while 2 * parts <= most {
                    parts *= 2;
                    let quotas = rounded(parts);
                    let resident = quotas.expected_resident_records(spec);
                    // More partitions must keep at least a record more.
                    if resident > most_resident + 1.0 {
                        (most_resident, best) = (resident, quotas);
                    }
                }
            }
            best
        }
    }
}

/// Estimated extra normalized I/O of joining `n_rest` residual R records
/// (matching `s_rest` S records in total, spread evenly over the keys) with
/// the residual partitioner owning `m_rest` buffer pages.
///
/// Returns 0 when every residual partition stays staged in memory.
pub fn g_dhh(
    n_rest: usize,
    s_rest: u64,
    spec: &JoinSpec,
    m_rest: usize,
    rh_params: &RoundedHashParams,
) -> f64 {
    if n_rest == 0 {
        return 0.0;
    }
    let quotas = staging_quotas(n_rest, spec, m_rest, StagingRouter::RoundedHash(rh_params));
    let s_per_r = s_rest as f64 / n_rest as f64;
    let (b_r, b_s) = (spec.b_r().max(1) as f64, spec.b_s().max(1) as f64);
    let mu = spec.mu();
    let mut cost = 0.0;
    // Runs of one size class are adjacent: price a spilled partition of the
    // class once.
    let mut priced = (0.0, 0.0);
    for run in quotas.runs() {
        let spilled = run.partitions as f64 * run.spill_probability(spec);
        if spilled == 0.0 {
            continue;
        }
        let records = run.expected_records;
        if priced.0 != records {
            let (pages_r, pages_s) = (records / b_r, records * s_per_r / b_s);
            let spill = mu * (pages_r + pages_s) + hashed_pair_cost(pages_r, pages_s, spec);
            priced = (records, spill);
        }
        cost += spilled * priced.1;
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JoinSpec;

    fn spec(buffer_pages: usize) -> JoinSpec {
        JoinSpec::paper_synthetic(1024, buffer_pages)
    }

    fn g(n_rest: usize, s_rest: u64, spec: &JoinSpec, m_rest: usize) -> f64 {
        g_dhh(n_rest, s_rest, spec, m_rest, &RoundedHashParams::default())
    }

    #[test]
    fn zero_rest_keys_cost_nothing() {
        assert_eq!(g(0, 0, &spec(128), 64), 0.0);
    }

    #[test]
    fn in_memory_rest_costs_nothing() {
        let s = spec(1024);
        // 1000 records ≈ 334 pages; hash table ≈ 255 pages < 400-page rest
        // budget, in one partition (c*_R = 2 857 records).
        assert_eq!(g(1000, 8000, &s, 400), 0.0);
    }

    fn quotas(n_keys: usize, spec: &JoinSpec, budget: usize) -> StagingQuotas {
        let rh = RoundedHashParams::default();
        staging_quotas(n_keys, spec, budget, StagingRouter::RoundedHash(&rh))
    }

    #[test]
    fn partition_count_follows_the_executor_rule() {
        let s = spec(128);
        let c_star = RoundedHashParams::default().effective_chunk(s.c_r());
        // One chunk per partition while the budget allows ...
        assert_eq!(quotas(10 * c_star, &s, 64).num_partitions(), 10);
        assert_eq!(quotas(10 * c_star + 1, &s, 64).num_partitions(), 11);
        // ... clamped to the budget less a page, and never below one.
        assert_eq!(quotas(100 * c_star, &s, 8).num_partitions(), 7);
        assert_eq!(quotas(100 * c_star, &s, 1).num_partitions(), 1);
        assert_eq!(quotas(0, &s, 0).num_partitions(), 1);
    }

    /// The even split of `budget` over `parts`, earlier partitions taking
    /// the remainder: the quotas while no partition can be resident.
    fn even(budget: usize, parts: usize) -> Vec<usize> {
        (0..parts)
            .map(|p| budget / parts + usize::from(p < budget % parts))
            .collect()
    }

    #[test]
    fn quotas_sum_to_the_budget_and_none_is_below_a_page() {
        let s = spec(128);
        let rh = RoundedHashParams::default();
        for n_keys in [0usize, 40, 700, 5_000, 90_000] {
            for budget in [2usize, 9, 64, 300, 1_500] {
                for router in [
                    StagingRouter::RoundedHash(&rh),
                    StagingRouter::PlainHash { parts: 20 },
                    StagingRouter::PlainHash { parts: 7 },
                ] {
                    let q = staging_quotas(n_keys, &s, budget, router);
                    let caps = q.caps();
                    let label = format!("{n_keys} keys, {budget} pages, {router:?}");
                    assert_eq!(caps.len(), q.num_partitions(), "{label}");
                    assert!(caps.len() < budget, "{label}");
                    assert_eq!(caps.iter().sum::<usize>(), budget, "{label}");
                    assert!(caps.iter().all(|&cap| cap >= 1), "{label}");
                }
            }
        }
    }

    #[test]
    fn as_many_leading_partitions_as_the_budget_affords_are_resident() {
        // 20 plain-hash partitions of 3 000 records: a resident quota holds
        // 3 000 + 4·√3 000 records, the others need a page each.
        let s = spec(128);
        let parts = 20usize;
        let quota = s.hash_table_pages(3_000 + (4.0 * 3_000f64.sqrt()).ceil() as usize);
        for resident in [1usize, 7, 19] {
            // Exactly enough for `resident` quotas, then one page short.
            for (budget, expected) in [
                (resident * quota + (parts - resident), resident),
                (resident * quota + (parts - resident) - 1, resident - 1),
            ] {
                let q = staging_quotas(60_000, &s, budget, StagingRouter::PlainHash { parts });
                assert_eq!(q.resident, expected, "budget {budget}");
                let caps = q.caps();
                assert!(caps[..expected].iter().all(|&cap| cap == quota));
                assert_eq!(
                    caps[expected..],
                    even(budget - expected * quota, parts - expected)
                );
            }
        }
    }

    #[test]
    fn without_a_resident_partition_the_quotas_are_the_even_split() {
        let s = spec(128);
        for (n_keys, budget, parts) in [(60_000usize, 64usize, 20usize), (9_000, 10, 6)] {
            let q = staging_quotas(n_keys, &s, budget, StagingRouter::PlainHash { parts });
            assert_eq!(q.resident, 0);
            assert_eq!(q.caps(), even(budget, parts));
        }
        // Rounded hash below √(F·‖R‖): one partition per page but one.
        let q = quotas(96_000, &JoinSpec::paper_synthetic(256, 41), 32);
        assert_eq!(q.resident, 0);
        assert_eq!(q.caps(), even(32, 31));
    }

    #[test]
    fn when_everything_fits_every_partition_is_resident() {
        let s = spec(128);
        let q = staging_quotas(600, &s, 400, StagingRouter::PlainHash { parts: 20 });
        assert_eq!(q.resident, 20);
        // The spare pages are spread over all of them.
        assert_eq!(q.caps(), even(400, 20));
        assert!(q.runs().all(|run| run.spill_probability(&s) == 0.0));
    }

    #[test]
    fn rounded_hash_size_classes_get_their_own_quotas() {
        // Six chunk-sized buckets over 4 partitions — two partitions of two
        // buckets, then two of one (the Figure 7 setup).
        let s = spec(128);
        let sizes = [(2, 2.0 * s.c_r() as f64), (2, s.c_r() as f64)];
        let quota =
            |records: f64| s.hash_table_pages((records + 4.0 * records.sqrt()).ceil() as usize);
        let (large, small) = (quota(sizes[0].1), quota(sizes[1].1));
        // Both large partitions and one small one resident; the last shares
        // what is left with nobody.
        let budget = 2 * large + small + 5;
        let q = StagingQuotas::resident_first(budget, 4, sizes, &s);
        assert_eq!(q.resident, 3);
        assert_eq!(q.caps(), [large, large, small, 5]);
        // One page fewer than two large quotas: only the first is resident,
        // although a small quota would still fit.
        let budget = 2 * large + 2 - 1;
        let q = StagingQuotas::resident_first(budget, 4, sizes, &s);
        assert_eq!(q.resident, 1);
        assert_eq!(q.caps()[0], large);
        assert_eq!(q.caps()[1..], even(budget - large, 3));
    }

    #[test]
    fn smaller_partitions_are_chosen_when_they_keep_more_resident() {
        // A quarter of R in memory (the benchmark's `uniform_roomy`): one
        // chunk per partition makes 5 partitions, of which one fits; 40
        // smaller ones keep 9 of 40.
        let s = JoinSpec::paper_synthetic(256, 1_666);
        let q = quotas(95_000, &s, 1_600);
        assert_eq!(q.num_partitions(), 40);
        assert_eq!(q.resident, 9);
        // Far below √(F·‖R‖) nothing can stay, and the count is the one
        // -chunk rule's.
        let tight = JoinSpec::paper_synthetic(256, 100);
        let c_star = RoundedHashParams::default().effective_chunk(tight.c_r());
        let q = quotas(30 * c_star, &tight, 90);
        assert_eq!((q.num_partitions(), q.resident), (30, 0));
    }

    #[test]
    fn a_partition_at_its_quota_spills_about_half_of_the_time() {
        let s = spec(128);
        let fits = |cap: usize| {
            (1usize..)
                .take_while(|&n| s.hash_table_pages(n) <= cap)
                .last()
                .unwrap()
        };
        let run = |expected_records: f64| QuotaRun {
            partitions: 1,
            expected_records,
            cap: 100,
        };
        let at = fits(100) as f64;
        assert!((run(at).spill_probability(&s) - 0.5).abs() < 0.01);
        assert_eq!(run(at - 4.0 * at.sqrt()).spill_probability(&s), 0.0);
        assert_eq!(run(at + 4.0 * at.sqrt()).spill_probability(&s), 1.0);
        let (below, above) = (run(at - at.sqrt()), run(at + at.sqrt()));
        assert!(below.spill_probability(&s) < 0.2 && above.spill_probability(&s) > 0.8);
    }

    #[test]
    fn resident_partitions_are_free_and_the_rest_pay_the_spill() {
        // 20 000 records, budget for about half of the table: the estimate
        // is the spilled share of (1 + μ) per page, R and S.
        let s = JoinSpec::paper_synthetic(256, 700);
        let (n_rest, s_rest) = (20_000usize, 160_000u64);
        let q = quotas(n_rest, &s, 640);
        let share = 1.0 - q.resident as f64 / q.num_partitions() as f64;
        assert!((0.4..0.6).contains(&share), "spilled share {share}");
        let pages = (n_rest as f64 + s_rest as f64) / s.b_r() as f64;
        let per_page = g(n_rest, s_rest, &s, 640) / (share * pages);
        assert!(
            (per_page / (1.0 + s.mu()) - 1.0).abs() < 0.02,
            "expected ≈ 1 + μ per spilled page, got {per_page}"
        );
    }

    #[test]
    fn one_chunk_partitions_pay_one_write_and_one_read_per_page() {
        // 40 000 records in 46 one-chunk partitions: every pair fits, so the
        // light optimizer reads it once after the μ-weighted spill.
        let s = spec(320);
        let cost = g(40_000, 320_000, &s, 64);
        let pages = (40_000f64 / 3.0) + (320_000f64 / 3.0);
        let per_page = cost / pages;
        // (A little more: page counts round up per partition, and a few
        // partitions outgrow their chunk.)
        assert!(
            (per_page / (1.0 + s.mu()) - 1.0).abs() < 0.02,
            "expected ≈ 1 + μ per spilled page, got {per_page}"
        );
    }

    #[test]
    fn oversized_partitions_are_priced_as_the_recursion_that_runs() {
        // Below √(F·‖R‖) the clamp leaves partitions far larger than a
        // chunk; the light optimizer re-partitions them once, so a spilled
        // page costs about μ + (1 + (1 + μ)) — not one read per NBJ chunk.
        let s = JoinSpec::paper_synthetic(256, 41);
        let (n_rest, s_rest) = (96_000usize, 600_000u64);
        for m_rest in [8usize, 12, 32] {
            let cost = g(n_rest, s_rest, &s, m_rest);
            let pages = (n_rest as f64 + s_rest as f64) / s.b_r() as f64;
            let per_page = cost / pages;
            assert!(
                (per_page / (2.0 * (1.0 + s.mu())) - 1.0).abs() < 0.02,
                "m_rest = {m_rest}: expected ≈ 2(1 + μ) per page, got {per_page}"
            );
        }
    }

    #[test]
    fn cost_grows_as_rest_budget_shrinks() {
        let s = spec(512);
        let n_rest = 100_000;
        let s_rest = 800_000u64;
        let large = g(n_rest, s_rest, &s, 400);
        let medium = g(n_rest, s_rest, &s, 128);
        let small = g(n_rest, s_rest, &s, 6);
        assert!(large <= medium);
        assert!(medium <= small);
        assert!(large > 0.0);
    }

    #[test]
    fn cost_grows_with_data_size() {
        let s = spec(256);
        let a = g(50_000, 400_000, &s, 128);
        let b = g(200_000, 1_600_000, &s, 128);
        assert!(b > a);
    }

    #[test]
    fn spill_cost_reflects_write_asymmetry() {
        let cheap_writes = spec(256);
        let expensive_writes = spec(256).with_device(nocap_storage::DeviceProfile::osync_on());
        let a = g(100_000, 800_000, &cheap_writes, 64);
        let b = g(100_000, 800_000, &expensive_writes, 64);
        assert!(b > a, "higher μ must increase the estimated spill cost");
    }

    #[test]
    fn degenerate_budget_still_returns_finite_cost() {
        let s = spec(64);
        for m_rest in [0usize, 1, 2, 3] {
            let cost = g(10_000, 80_000, &s, m_rest);
            assert!(cost.is_finite());
            assert!(cost > 0.0);
        }
    }
}
