//! Planner regret, measured with real runs: at the benchmark's smoke
//! geometry (n_R = 5 000, n_S = 40 000, 256-byte records, the top 5 % of
//! keys as MCVs), for Zipf(1.0) and uniform correlations below and above
//! √(F·‖R‖) and at ¼, ½ and ¾ of F·‖R‖ — the mid-memory regime, where part
//! of the residual stays resident — the plan `plan_nocap` returns must
//!
//! * cost no more than 1.03 × the cheapest of its hand-built neighbours —
//!   nothing selected at all, `|K_mem|` halved and doubled, `|K_disk|`
//!   dropped, halved and doubled, `m_disk` one less and one more, half of
//!   `K_mem` designated instead — in total I/Os and in modeled I/O time,
//!   each feasible neighbour executed through `run_with_plan`;
//! * carry an `estimated_extra_io` within ± 20 % of what its own run paid
//!   beyond the base scans, weighted as the planner weights it (a random
//!   write counts μ sequential reads);
//! * in the mid-memory cells, run in no more I/Os than DHH on the same
//!   inputs (below √(F·‖R‖) a uniform workload leaves NOCAP nothing to win,
//!   and it trails DHH by a few partial pages).
//!
//! A planner that prices a join the executor does not run fails the second
//! check; one that searches too little of the MCV list fails the first; one
//! that starves the residual partitioner of the pages that would keep part
//! of it resident fails the third.

use nocap_suite::joins::DhhJoin;
use nocap_suite::model::{CorrelationTable, JoinRunReport, JoinSpec};
use nocap_suite::nocap::{
    partition_dp, plan_nocap, NocapConfig, NocapJoin, NocapPlan, PlannerConfig,
};
use nocap_suite::obs::Obs;
use nocap_suite::storage::{IoKind, SimDevice};
use nocap_suite::workload::{synthetic, Correlation, SyntheticConfig};

const N_R: usize = 5_000;
const N_S: usize = 40_000;

/// The plan that caches the `k_mem` hottest MCVs and designates the next
/// `k_disk`, split into at most `m_disk` partitions by the OCAP DP, with all
/// remaining pages as `m_rest`; `None` if that does not fit the budget with
/// a page to spare for the residual partitioner.
fn hand_built(
    mcvs: &[(u64, u64)],
    spec: &JoinSpec,
    k_mem: usize,
    k_disk: usize,
    m_disk: usize,
) -> Option<NocapPlan> {
    if k_mem + k_disk > mcvs.len() || (k_disk > 0) != (m_disk > 0) {
        return None;
    }
    let coldest_first: Vec<(u64, u64)> =
        mcvs[k_mem..k_mem + k_disk].iter().rev().copied().collect();
    let counts = CorrelationTable::from_counts(coldest_first.iter().map(|&(_, count)| count));
    let mut start = 0;
    let disk_partitions = partition_dp(&counts, m_disk, spec.c_r())
        .boundaries
        .into_iter()
        .map(|end| {
            let keys = coldest_first[start..end].iter().map(|&(key, _)| key);
            start = end;
            keys.collect()
        })
        .collect();
    let selected: u64 = mcvs[..k_mem + k_disk].iter().map(|&(_, count)| count).sum();
    let mut plan = NocapPlan {
        mem_keys: mcvs[..k_mem].iter().map(|&(key, _)| key).collect(),
        disk_partitions,
        ..NocapPlan::passthrough(0, N_R - k_mem - k_disk, N_S as u64 - selected)
    };
    plan.m_rest = spec
        .buffer_pages
        .checked_sub(3 + plan.fixed_memory_pages(spec))?
        + 1;
    Some(plan)
}

/// The budget at `factor` × √(F·‖R‖).
fn sqrt_budget(factor: f64) -> usize {
    let base = JoinSpec::paper_synthetic(256, 0);
    (factor * base.hhj_memory_threshold(N_R)).round() as usize
}

/// The budget at `share` of F·‖R‖, R's whole hash table.
fn table_budget(share: f64) -> usize {
    let base = JoinSpec::paper_synthetic(256, 0);
    (share * base.hash_table_pages(N_R) as f64).round() as usize
}

fn regret_case(correlation: Correlation, budget: usize) {
    regret_case_against(correlation, budget, false);
}

fn regret_case_against(correlation: Correlation, budget: usize, against_dhh: bool) {
    let spec = JoinSpec::paper_synthetic(256, budget);
    let label = format!("{correlation:?} at B = {budget}");
    let wl = synthetic::generate(
        SimDevice::new_ref(),
        &SyntheticConfig {
            n_r: N_R,
            n_s: N_S,
            record_bytes: 256,
            correlation,
            mcv_count: N_R / 20,
            seed: 0x0CA9,
        },
    )
    .expect("workload generation");
    let join = NocapJoin::new(spec, NocapConfig::default());
    let run = |plan: &NocapPlan| -> JoinRunReport {
        let declared = 2 + plan.fixed_memory_pages(&spec) + plan.m_rest;
        assert!(spec.pages_left(declared).is_ok(), "{label}: {plan:?}");
        let report = join
            .run_with_plan(&wl.r, &wl.s, plan, 1, &Obs::off())
            .expect("join");
        assert_eq!(report.output_records, wl.expected_join_output(), "{label}");
        report
    };

    let plan = plan_nocap(&wl.mcvs, N_R, N_S as u64, &spec, &PlannerConfig::default());
    let chosen = run(&plan);

    // Estimate against its own run, in the planner's currency.
    let base_pages = (wl.r.num_pages() + wl.s.num_pages()) as f64;
    let weighted_extra = spec.device.trace_latency_us(&chosen.total_io())
        / spec.device.latency_us(IoKind::SeqRead)
        - base_pages;
    let ratio = plan.estimated_extra_io / weighted_extra;
    assert!(
        (0.8..=1.2).contains(&ratio),
        "{label}: estimated {:.0} extra pages, the run paid {weighted_extra:.0} ({ratio:.3})",
        plan.estimated_extra_io
    );

    if against_dhh {
        let dhh = DhhJoin::with_defaults(spec)
            .run(&wl.r, &wl.s, &wl.mcvs)
            .expect("DHH");
        assert!(
            chosen.total_ios() <= dhh.total_ios(),
            "{label}: {} I/Os against DHH's {}",
            chosen.total_ios(),
            dhh.total_ios()
        );
    }

    // Regret against the neighbours.
    let (k_mem, k_disk, m_disk) = (plan.k_mem(), plan.k_disk(), plan.num_designated());
    let k = wl.mcvs.len();
    let one_per_chunk = |k_disk: usize| k_disk.div_ceil(spec.c_r());
    let more_mem = (k_mem.max(16) * 2).min(k - k_disk);
    let more_disk = (k_disk.max(64) * 2).min(k - k_mem);
    let neighbours = [
        (0, 0, 0),
        (k_mem / 2, k_disk, m_disk),
        (more_mem, k_disk, m_disk),
        (k_mem, 0, 0),
        (k_mem, k_disk / 2, one_per_chunk(k_disk / 2)),
        (k_mem, more_disk, one_per_chunk(more_disk)),
        (k_mem, k_disk, m_disk.saturating_sub(1)),
        (k_mem, k_disk, m_disk + 1),
        // Half of the cached keys designated instead.
        (
            k_mem / 2,
            k_disk + k_mem.div_ceil(2),
            one_per_chunk(k_disk + k_mem.div_ceil(2)),
        ),
    ];
    let mut compared = 0;
    for (k_mem, k_disk, m_disk) in neighbours {
        let Some(neighbour) = hand_built(&wl.mcvs, &spec, k_mem, k_disk, m_disk) else {
            continue;
        };
        if (neighbour.k_mem(), &neighbour.disk_partitions) == (plan.k_mem(), &plan.disk_partitions)
        {
            continue;
        }
        let other = run(&neighbour);
        compared += 1;
        let describe = || {
            format!(
                "{label}: planned {} / {} / {} / {} against neighbour {} / {} / {} / {}",
                plan.k_mem(),
                plan.k_disk(),
                plan.num_designated(),
                plan.m_rest,
                neighbour.k_mem(),
                neighbour.k_disk(),
                neighbour.num_designated(),
                neighbour.m_rest
            )
        };
        assert!(
            chosen.total_ios() as f64 <= 1.03 * other.total_ios() as f64,
            "{}: {} I/Os against {}",
            describe(),
            chosen.total_ios(),
            other.total_ios()
        );
        let (chosen_secs, other_secs) = (
            chosen.io_latency_secs(&spec.device),
            other.io_latency_secs(&spec.device),
        );
        assert!(
            chosen_secs <= 1.03 * other_secs,
            "{}: {chosen_secs:.4} modeled s against {other_secs:.4}",
            describe()
        );
    }
    assert!(
        compared >= 2,
        "{label}: only {compared} feasible neighbours"
    );
}

#[test]
fn zipf_below_the_sqrt_threshold() {
    regret_case(Correlation::Zipf { alpha: 1.0 }, sqrt_budget(0.5));
}

#[test]
fn zipf_above_the_sqrt_threshold() {
    regret_case(Correlation::Zipf { alpha: 1.0 }, sqrt_budget(2.0));
}

#[test]
fn uniform_below_the_sqrt_threshold() {
    regret_case(Correlation::Uniform, sqrt_budget(0.5));
}

#[test]
fn uniform_above_the_sqrt_threshold() {
    regret_case(Correlation::Uniform, sqrt_budget(2.0));
}

#[test]
fn zipf_with_part_of_the_table_in_memory() {
    for share in [0.25, 0.5, 0.75] {
        regret_case_against(Correlation::Zipf { alpha: 1.0 }, table_budget(share), true);
    }
}

#[test]
fn uniform_with_part_of_the_table_in_memory() {
    for share in [0.25, 0.5, 0.75] {
        regret_case_against(Correlation::Uniform, table_budget(share), true);
    }
}
