//! Table 1 cost estimators for the classical storage-based joins and the
//! "light optimizer" that picks the cheaper executable method per partition
//! pair.
//!
//! All costs are *normalized page I/Os*: one sequential page read counts 1,
//! writes are weighted by the device asymmetry (μ for random writes as in
//! GHJ's partition spills, τ for sequential writes as in SMJ's run files).
//!
//! | method | normalized #I/O |
//! |---|---|
//! | NBJ  | `‖R‖ + #chunks · ‖S‖` |
//! | GHJ  | `(1 + #pa-runs · (1 + μ)) · (‖R‖ + ‖S‖)` |
//! | SMJ  | `(1 + #s-passes · (1 + τ)) · (‖R‖ + ‖S‖)` |

use crate::spec::JoinSpec;

/// How the light optimizer joins one spilled partition pair (§3.1.1, §5 "we
/// apply a light optimizer that picks the most efficient algorithm
/// according to Table 1 in the partition-wise join"): the two methods a
/// partition-wise executor can actually run. SMJ is costed by [`smj_cost`]
/// for the whole-join comparison but never runs on a partition pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionJoinMethod {
    /// Chunk-wise Nested Block Join over the pair as it is.
    Nbj,
    /// Grace-style recursion: re-partition both sides `B − 1` ways and join
    /// the sub-pairs.
    Ghj,
}

impl std::fmt::Display for PartitionJoinMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionJoinMethod::Nbj => write!(f, "NBJ"),
            PartitionJoinMethod::Ghj => write!(f, "GHJ"),
        }
    }
}

/// Number of chunks NBJ needs to stream the inner relation through memory:
/// `⌈ ‖inner‖ / ((B − 2) / F) ⌉`.
pub fn nbj_chunks(inner_pages: usize, spec: &JoinSpec) -> usize {
    if inner_pages == 0 {
        return 0;
    }
    let usable = (spec.buffer_pages.saturating_sub(2)) as f64 / spec.fudge;
    if usable < 1.0 {
        // Degenerate budget: one chunk per page.
        return inner_pages;
    }
    (inner_pages as f64 / usable).ceil() as usize
}

/// Normalized I/O cost of NBJ with `inner` loaded chunk-wise and `outer`
/// scanned once per chunk (Table 1, row 1).
pub fn nbj_cost(inner_pages: usize, outer_pages: usize, spec: &JoinSpec) -> f64 {
    if inner_pages == 0 || outer_pages == 0 {
        // At least one input must still be read to discover it joins nothing.
        return (inner_pages + outer_pages) as f64;
    }
    inner_pages as f64 + nbj_chunks(inner_pages, spec) as f64 * outer_pages as f64
}

/// NBJ cost with the cheaper of the two orientations — Table 1's
/// orientation-free estimate, which the light optimizer compares against
/// [`ghj_cost`]. (The partition-wise executors always chunk the R side; see
/// [`best_partition_join`] for what that costs.)
pub fn nbj_cost_best(pages_r: usize, pages_s: usize, spec: &JoinSpec) -> f64 {
    nbj_cost(pages_r, pages_s, spec).min(nbj_cost(pages_s, pages_r, spec))
}

/// Number of recursive partitioning passes GHJ needs before the expected
/// partition of the smaller relation fits in memory (`#pa-runs`).
pub fn ghj_partition_passes(smaller_pages: usize, spec: &JoinSpec) -> usize {
    let fan_out = (spec.buffer_pages.saturating_sub(1)).max(2) as f64;
    let memory_capacity = (spec.buffer_pages.saturating_sub(2)) as f64 / spec.fudge;
    let mut size = smaller_pages as f64;
    let mut passes = 0usize;
    while size > memory_capacity && passes < 64 {
        size /= fan_out;
        passes += 1;
    }
    passes
}

/// Normalized I/O cost of GHJ (Table 1, row 2).
pub fn ghj_cost(pages_r: usize, pages_s: usize, spec: &JoinSpec) -> f64 {
    let smaller = pages_r.min(pages_s);
    let passes = ghj_partition_passes(smaller, spec) as f64;
    (1.0 + passes * (1.0 + spec.mu())) * (pages_r + pages_s) as f64
}

/// Number of partially-sorted passes SMJ needs until the total run count fits
/// a `B − 1`-way merge (`#s-passes`), as Table 1 counts them: runs of `B`
/// pages over both relations together, each pass over both.
///
/// The executor (`nocap_joins::SortMergeJoin`) cuts runs of `B − 1` pages
/// per relation and merges each relation only as many levels as its
/// cheapest fused merge needs, so its count can differ from this one by a
/// level either way. On the benchmark's geometry (‖R‖ = 6 667, ‖S‖ = 53 334
/// pages) both relations take one level at B = 41, the two passes counted
/// here; at B = 165 R takes none, one level below.
pub fn smj_sort_passes(pages_r: usize, pages_s: usize, spec: &JoinSpec) -> usize {
    let b = spec.buffer_pages.max(3);
    // If both relations fit in memory together no external pass is needed.
    if pages_r + pages_s <= b {
        return 0;
    }
    let runs_r = pages_r.div_ceil(b).max(1);
    let runs_s = pages_s.div_ceil(b).max(1);
    let mut runs = runs_r + runs_s;
    // Run generation is the first pass that writes data out.
    let mut passes = 1usize;
    let fan_in = (b - 1).max(2);
    while runs > fan_in && passes < 64 {
        runs = runs.div_ceil(fan_in);
        passes += 1;
    }
    passes
}

/// Normalized I/O cost of SMJ (Table 1, row 3).
pub fn smj_cost(pages_r: usize, pages_s: usize, spec: &JoinSpec) -> f64 {
    let passes = smj_sort_passes(pages_r, pages_s, spec) as f64;
    (1.0 + passes * (1.0 + spec.tau())) * (pages_r + pages_s) as f64
}

/// The light optimizer: chunk-wise NBJ or Grace-style recursion for joining
/// a pair of (sub-)relations of the given page counts, and the estimated
/// cost of running the chosen method (reading the pair included).
///
/// The *choice* is Table 1's: NBJ unless [`ghj_cost`] undercuts
/// [`nbj_cost_best`] (ties go to NBJ, which writes nothing). The *cost* is
/// that of the execution the choice leads to: NBJ always chunks the R side,
/// and a recursion re-partitions both sides `B − 1` ways once (`1 + μ` per
/// page) and then faces this same choice on every sub-pair — which often
/// finishes with a two- or three-chunk NBJ where Table 1's `#pa-runs`
/// assumes another full pass.
///
/// This is the one place the choice is made: the executors' partition-wise
/// join ([`crate::pairwise::smart_partition_join`]) runs the method it
/// returns, and the NOCAP planner's residual estimate ([`crate::g_dhh`])
/// charges the cost it returns, so a plan is priced for the join that will
/// run.
pub fn best_partition_join(
    pages_r: usize,
    pages_s: usize,
    spec: &JoinSpec,
) -> (PartitionJoinMethod, f64) {
    let nbj = nbj_cost(pages_r, pages_s, spec);
    if nbj.min(nbj_cost(pages_s, pages_r, spec)) <= ghj_cost(pages_r, pages_s, spec) {
        return (PartitionJoinMethod::Nbj, nbj);
    }
    // GHJ is chosen only when NBJ needs several chunks, so the sub-pairs are
    // strictly smaller and the expansion ends at pairs NBJ handles.
    let fan_out = spec.buffer_pages.saturating_sub(1).max(2) as f64;
    let sub_pair = hashed_pair_cost(pages_r as f64 / fan_out, pages_s as f64 / fan_out, spec);
    let repartition = (1.0 + spec.mu()) * (pages_r + pages_s) as f64;
    (PartitionJoinMethod::Ghj, repartition + fan_out * sub_pair)
}

/// Expected cost of joining one pair out of a hash partitioning whose R side
/// is *expected* to hold `pages_r` pages (and its S side `pages_s`), by the
/// light optimizer ([`best_partition_join`]).
///
/// A hash partition's record count is binomial around its expectation, and
/// NBJ's cost jumps by a whole pass over the S side at every multiple of the
/// chunk size. A partition sized just under a multiple outgrows it about
/// half of the time (§4.2's overflow discussion — what makes a partition
/// count that only just fits one chunk per partition a bad buy), and one
/// sized just over it falls short of it as often. The expectation therefore
/// mixes the cost at the expected size with the costs one chunk up and one
/// chunk down, weighted by the normal approximation of the binomial tails.
pub fn hashed_pair_cost(pages_r: f64, pages_s: f64, spec: &JoinSpec) -> f64 {
    let pages_s = pages_s.ceil() as usize;
    let cost_at = |pages_r: f64| best_partition_join(pages_r as usize, pages_s, spec);
    let chunk = spec.buffer_pages.saturating_sub(2) as f64 / spec.fudge;
    if pages_r <= 0.0 || chunk < 1.0 {
        return cost_at(pages_r.ceil()).1;
    }
    // The chunk boundaries on either side of the expected size, and whole
    // page counts that need exactly the expected number of chunks, one more
    // and one fewer.
    let above = (pages_r / chunk).ceil() * chunk;
    let below = above - chunk;
    let (method, expected) = cost_at(pages_r.ceil().min(above.floor()));
    if method == PartitionJoinMethod::Ghj {
        return expected; // a recursion's cost does not step with the chunk count
    }
    let sigma = (pages_r / spec.b_r().max(1) as f64).sqrt();
    let mut cost = expected;
    let outgrown = normal_tail((above - pages_r) / sigma);
    if outgrown > 0.0 {
        cost += outgrown * (cost_at(above.floor() + 1.0).1 - expected);
    }
    let undergrown = normal_tail((pages_r - below) / sigma);
    if undergrown > 0.0 && below > 0.0 {
        cost += undergrown * (cost_at(below.floor()).1 - expected);
    }
    cost
}

/// `P(Z > x)` for a standard normal `Z`, `x ≥ 0`, by the logistic
/// approximation `1 / (1 + e^{1.702·x})`. Its absolute error is just under
/// 0.01, so a tail that small (`x > 2.7`) is reported as 0 and the caller
/// skips the case.
pub(crate) fn normal_tail(x: f64) -> f64 {
    if x > 2.7 {
        return 0.0;
    }
    1.0 / (1.0 + (1.702 * x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(buffer_pages: usize) -> JoinSpec {
        JoinSpec::paper_synthetic(1024, buffer_pages)
    }

    #[test]
    fn nbj_single_chunk_when_inner_fits() {
        let s = spec(1000);
        // inner of 500 pages fits in (1000-2)/1.02 ≈ 978 pages → one chunk.
        assert_eq!(nbj_chunks(500, &s), 1);
        assert!((nbj_cost(500, 2000, &s) - 2500.0).abs() < 1e-9);
    }

    #[test]
    fn nbj_chunks_grow_as_memory_shrinks() {
        let big = spec(1000);
        let small = spec(100);
        assert!(nbj_chunks(5000, &small) > nbj_chunks(5000, &big));
        // #chunks ≈ ⌈5000 / (98 / 1.02)⌉ = ⌈52.04⌉ = 53
        assert_eq!(nbj_chunks(5000, &small), 53);
    }

    #[test]
    fn nbj_best_picks_cheaper_orientation() {
        let s = spec(100);
        let a = nbj_cost(5000, 100, &s);
        let b = nbj_cost(100, 5000, &s);
        assert!((nbj_cost_best(5000, 100, &s) - a.min(b)).abs() < 1e-9);
    }

    #[test]
    fn ghj_needs_no_pass_when_r_fits_in_memory() {
        let s = spec(1000);
        assert_eq!(ghj_partition_passes(900, &s), 0);
        assert!((ghj_cost(900, 3000, &s) - 3900.0).abs() < 1e-9);
    }

    #[test]
    fn ghj_single_pass_for_moderate_r() {
        let s = spec(320);
        // 250K pages of R: one partitioning pass gives partitions of
        // ~250000/319 ≈ 784 pages — still > memory, so two passes.
        assert_eq!(ghj_partition_passes(250_000, &s), 2);
        // 50K pages → partitions of ~157 pages < 311 memory pages: one pass.
        assert_eq!(ghj_partition_passes(50_000, &s), 1);
    }

    #[test]
    fn smj_zero_passes_when_everything_fits() {
        let s = spec(1000);
        assert_eq!(smj_sort_passes(300, 600, &s), 0);
        assert!((smj_cost(300, 600, &s) - 900.0).abs() < 1e-9);
    }

    #[test]
    fn smj_one_pass_for_moderate_inputs() {
        let s = spec(320);
        // runs: ⌈250000/320⌉ + ⌈2000000/320⌉ = 782 + 6250 = 7032 > 319
        // → needs a second (merge) pass.
        assert_eq!(smj_sort_passes(250_000, 2_000_000, &s), 2);
        // Small inputs: runs fit the fan-in after generation.
        assert_eq!(smj_sort_passes(10_000, 20_000, &s), 1);
    }

    #[test]
    fn ghj_and_smj_have_similar_io_but_differ_by_asymmetry() {
        let s = spec(320);
        let (r, sp) = (250_000, 2_000_000);
        let ghj = ghj_cost(r, sp, &s);
        let smj = smj_cost(r, sp, &s);
        // Same number of passes over both relations; GHJ pays μ per written
        // page while SMJ pays τ < μ, so SMJ's normalized I/O is slightly lower
        // (the paper observes their #I/Os are nearly the same, with latency
        // separating them through random reads).
        assert_eq!(ghj_partition_passes(r, &s), smj_sort_passes(r, sp, &s));
        assert!((ghj - smj).abs() / ghj < 0.05);
        assert!(ghj > smj);
    }

    #[test]
    fn light_optimizer_prefers_nbj_for_small_inner() {
        let s = spec(320);
        // Inner fits in memory: NBJ reads each input exactly once, and a
        // zero-pass GHJ ties with it — the tie goes to NBJ.
        let (method, cost) = best_partition_join(200, 5000, &s);
        assert_eq!(method, PartitionJoinMethod::Nbj);
        assert!((cost - 5200.0).abs() < 1e-9);
    }

    #[test]
    fn light_optimizer_recurses_when_nbj_needs_many_chunks() {
        // The pair of `pairwise::smart_join_recursively_repartitions_when_
        // cheaper`: 20 000 64-byte records a side (≈ 323 pages) under a
        // 16-page budget. NBJ needs 24 chunks; one re-partitioning pass into
        // 15 sub-pairs of two chunks each is far cheaper, and is what is
        // priced.
        let s = JoinSpec::paper_synthetic(64, 16);
        let pages = 20_000usize.div_ceil(s.b_r());
        let (method, cost) = best_partition_join(pages, pages, &s);
        assert_eq!(method, PartitionJoinMethod::Ghj);
        assert!(cost < nbj_cost_best(pages, pages, &s));
        let sub = pages.div_ceil(15);
        assert_eq!(nbj_chunks(sub, &s), 2, "the sub-pairs need two chunks");
        let expected = (1.0 + s.mu()) * (2 * pages) as f64 + 15.0 * (sub + 2 * sub) as f64;
        assert!((cost - expected).abs() < 1e-9);
        // Table 1 would charge a second full pass for those sub-pairs.
        assert!(cost < ghj_cost(pages, pages, &s));
    }

    #[test]
    fn light_optimizer_prices_nbj_with_r_as_the_chunked_side() {
        // S is the smaller side: Table 1's orientation-free estimate lets
        // NBJ win, but the executors chunk R, and that is the price.
        let s = spec(100);
        let (method, cost) = best_partition_join(150, 50, &s);
        assert_eq!(method, PartitionJoinMethod::Nbj);
        assert_eq!(cost, nbj_cost(150, 50, &s));
        assert!(cost > nbj_cost_best(150, 50, &s));
    }

    #[test]
    fn light_optimizer_never_picks_a_costlier_method() {
        // Costlier by Table 1, that is: `nbj ≤ ghj → NBJ` is the comparison
        // the pair joins of every hash join made inline before
        // `smart_partition_join` called this function, and the function
        // must agree with it on every pair of a grid of page counts, ties
        // included.
        let sizes = [
            0usize, 1, 2, 7, 38, 39, 40, 77, 150, 920, 1_529, 1_530, 6_400,
        ];
        for budget in [3usize, 4, 16, 41, 165, 1_666] {
            let s = JoinSpec::paper_synthetic(256, budget);
            for &r in &sizes {
                for &sp in &sizes {
                    let expected = if nbj_cost_best(r, sp, &s) <= ghj_cost(r, sp, &s) {
                        PartitionJoinMethod::Nbj
                    } else {
                        PartitionJoinMethod::Ghj
                    };
                    let (method, cost) = best_partition_join(r, sp, &s);
                    assert_eq!(method, expected, "B={budget}, ‖R‖={r}, ‖S‖={sp}");
                    assert!(cost.is_finite() && cost >= (r + sp) as f64);
                }
            }
        }
    }

    #[test]
    fn empty_inputs_cost_only_their_scan() {
        let s = spec(64);
        assert_eq!(nbj_cost(0, 100, &s), 100.0);
        assert_eq!(nbj_cost(100, 0, &s), 100.0);
        assert_eq!(ghj_cost(0, 0, &s), 0.0);
    }
}
