//! `g_DHH`: estimated extra I/O of joining the residual keys with NOCAP's
//! residual partitioner under a given memory budget.
//!
//! The NOCAP planner (Algorithm 10) splits the keys into three groups:
//! cached in memory (`K_mem`), designated disk partitions (`K_disk`) and the
//! rest (`K_rest`), which is handed to a dynamic-hybrid-hash style
//! partitioner with whatever pages are left (`m_rest`). To choose the split,
//! the planner needs an estimate of how much that residual join will cost —
//! this module provides it, by pricing the join the executor will run
//! rather than a textbook DHH:
//!
//! * the partition count is the executor's ([`rest_partitions`], which the
//!   executor's residual geometry calls too), and partition sizes follow the
//!   rounded-hash router ([`RoundedHashParams::rounding_buckets`]);
//! * a partition stays staged in memory — and costs nothing — iff its hash
//!   table fits its even share of `m_rest`, the executor's quota rule;
//! * a spilled partition's R and S pages are written once (μ each) and the
//!   pair is then joined by the light optimizer
//!   ([`best_partition_join`](crate::classic_cost::best_partition_join)):
//!   chunk-wise NBJ, or Grace-style recursion when `m_rest` leaves
//!   partitions too large for NBJ to be cheap — at the expectation over the
//!   partition's binomial size ([`hashed_pair_cost`]).
//!
//! The estimate counts only I/Os *beyond* the unavoidable single scan of both
//! inputs (the same convention the planner uses for its other terms).

use crate::classic_cost::hashed_pair_cost;
use crate::hash_cost::RoundedHashParams;
use crate::spec::JoinSpec;

/// Number of partitions the residual partitioner splits `n_rest` keys into
/// when it owns `m_rest` pages: one NBJ chunk (`c*_R`) per partition,
/// clamped so that every partition can own at least one page of the budget
/// next to the partitioner's own page.
pub fn rest_partitions(
    n_rest: usize,
    spec: &JoinSpec,
    m_rest: usize,
    rh_params: &RoundedHashParams,
) -> usize {
    let c_star = rh_params.effective_chunk(spec.c_r().max(1));
    n_rest
        .div_ceil(c_star)
        .clamp(1, m_rest.saturating_sub(1).max(1))
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
    let parts = rest_partitions(n_rest, spec, m_rest, rh_params);
    // Expected R records per partition, as (partitions, records each). Plain
    // hash spreads the keys evenly; rounded hash deals `buckets` equal
    // buckets round-robin, so the first `buckets mod parts` partitions hold
    // one bucket more than the others.
    let buckets = rh_params.rounding_buckets(n_rest, parts, spec.c_r());
    let sizes = if buckets == 0 {
        [(parts, n_rest as f64 / parts as f64), (0, 0.0)]
    } else {
        let per_bucket = n_rest as f64 / buckets as f64;
        let (dealt, larger) = (buckets / parts, buckets % parts);
        [
            (larger, (dealt + 1) as f64 * per_bucket),
            (parts - larger, dealt as f64 * per_bucket),
        ]
    };
    // Even staging quotas: the first `m_rest mod parts` partitions own one
    // page more than the others.
    let (quota, mut roomier) = (m_rest / parts, m_rest % parts);

    let s_per_r = s_rest as f64 / n_rest as f64;
    let (b_r, b_s) = (spec.b_r().max(1) as f64, spec.b_s().max(1) as f64);
    let mu = spec.mu();
    let mut cost = 0.0;
    for (count, records) in sizes {
        // A partition stays staged, and is joined on the fly, iff its hash
        // table fits its quota.
        let table_pages = spec.hash_table_pages(records.ceil() as usize).max(1);
        let roomy = roomier.min(count);
        roomier -= roomy;
        let spilled = match table_pages {
            p if p <= quota => 0,
            p if p <= quota + 1 => count - roomy,
            _ => count,
        };
        if spilled == 0 {
            continue;
        }
        let (pages_r, pages_s) = (records / b_r, records * s_per_r / b_s);
        cost +=
            spilled as f64 * (mu * (pages_r + pages_s) + hashed_pair_cost(pages_r, pages_s, spec));
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

    #[test]
    fn partition_count_follows_the_executor_rule() {
        let s = spec(128);
        let rh = RoundedHashParams::default();
        let c_star = rh.effective_chunk(s.c_r());
        // One chunk per partition while the budget allows ...
        assert_eq!(rest_partitions(10 * c_star, &s, 64, &rh), 10);
        assert_eq!(rest_partitions(10 * c_star + 1, &s, 64, &rh), 11);
        // ... clamped to m_rest − 1, and never below one.
        assert_eq!(rest_partitions(100 * c_star, &s, 8, &rh), 7);
        assert_eq!(rest_partitions(100 * c_star, &s, 1, &rh), 1);
        assert_eq!(rest_partitions(0, &s, 0, &rh), 1);
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
        let expensive_writes = spec(256).with_device(nocap_storage::DeviceProfile::ssd_sync());
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
