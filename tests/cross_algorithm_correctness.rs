//! Cross-crate integration tests: every executor must produce the same join
//! output on the same workload, across correlations and memory budgets, and
//! the skew-aware executors must actually benefit from skew.

use nocap_suite::joins::{
    naive_join_count, DhhConfig, DhhJoin, GraceHashJoin, NestedBlockJoin, SortMergeJoin,
};
use nocap_suite::model::JoinSpec;
use nocap_suite::nocap::{ocap, NocapConfig, NocapJoin, OcapConfig};
use nocap_suite::storage::SimDevice;
use nocap_suite::workload::{synthetic, Correlation, GeneratedWorkload, SyntheticConfig};

fn workload(correlation: Correlation, n_r: usize, n_s: usize, seed: u64) -> GeneratedWorkload {
    let device = SimDevice::new_ref();
    synthetic::generate(
        device,
        &SyntheticConfig {
            n_r,
            n_s,
            record_bytes: 128,
            correlation,
            mcv_count: (n_r / 20).max(10),
            seed,
        },
    )
    .expect("workload generation")
}

fn all_outputs(wl: &GeneratedWorkload, spec: JoinSpec) -> Vec<(&'static str, u64)> {
    let device = wl.r.device().clone();
    let mut results = Vec::new();

    device.reset_stats();
    results.push((
        "NOCAP",
        NocapJoin::new(spec, NocapConfig::default())
            .run(&wl.r, &wl.s, &wl.mcvs)
            .unwrap()
            .output_records,
    ));
    device.reset_stats();
    results.push((
        "DHH",
        DhhJoin::new(spec, DhhConfig::default())
            .run(&wl.r, &wl.s, &wl.mcvs)
            .unwrap()
            .output_records,
    ));
    device.reset_stats();
    results.push((
        "Histojoin",
        DhhJoin::histojoin(spec)
            .run(&wl.r, &wl.s, &wl.mcvs)
            .unwrap()
            .output_records,
    ));
    device.reset_stats();
    results.push((
        "GHJ",
        GraceHashJoin::new(spec)
            .run(&wl.r, &wl.s)
            .unwrap()
            .output_records,
    ));
    device.reset_stats();
    results.push((
        "SMJ",
        SortMergeJoin::new(spec)
            .run(&wl.r, &wl.s)
            .unwrap()
            .output_records,
    ));
    device.reset_stats();
    results.push((
        "NBJ",
        NestedBlockJoin::new(spec)
            .run(&wl.r, &wl.s)
            .unwrap()
            .output_records,
    ));
    results
}

#[test]
fn every_algorithm_agrees_with_the_naive_join_zipf() {
    let wl = workload(Correlation::Zipf { alpha: 1.0 }, 3_000, 24_000, 1);
    let expected = naive_join_count(&wl.r, &wl.s).unwrap();
    for budget in [24usize, 64, 256] {
        let spec = JoinSpec::paper_synthetic(128, budget);
        for (name, output) in all_outputs(&wl, spec) {
            assert_eq!(output, expected, "{name} disagrees at B = {budget}");
        }
    }
}

#[test]
fn every_algorithm_agrees_with_the_naive_join_uniform() {
    let wl = workload(Correlation::Uniform, 3_000, 24_000, 2);
    let expected = naive_join_count(&wl.r, &wl.s).unwrap();
    let spec = JoinSpec::paper_synthetic(128, 48);
    for (name, output) in all_outputs(&wl, spec) {
        assert_eq!(output, expected, "{name} disagrees");
    }
}

#[test]
fn every_algorithm_agrees_under_extreme_skew() {
    // One key owns half of S.
    let device = SimDevice::new_ref();
    let n_r = 2_000usize;
    let mut counts = vec![4u64; n_r];
    counts[0] = 4 * n_r as u64;
    let wl = {
        let counts_clone = counts.clone();
        nocap_suite::workload::synthetic::materialize(device, &counts_clone, 128, 100, 3).unwrap()
    };
    let expected = naive_join_count(&wl.r, &wl.s).unwrap();
    let spec = JoinSpec::paper_synthetic(128, 32);
    for (name, output) in all_outputs(&wl, spec) {
        assert_eq!(output, expected, "{name} disagrees under extreme skew");
    }
}

#[test]
fn nocap_never_does_more_io_than_ghj() {
    let wl = workload(Correlation::Zipf { alpha: 1.0 }, 4_000, 32_000, 4);
    let device = wl.r.device().clone();
    for budget in [32usize, 64, 128] {
        let spec = JoinSpec::paper_synthetic(128, budget);
        device.reset_stats();
        let nocap_ios = NocapJoin::new(spec, NocapConfig::default())
            .run(&wl.r, &wl.s, &wl.mcvs)
            .unwrap()
            .total_ios();
        device.reset_stats();
        let ghj_ios = GraceHashJoin::new(spec)
            .run(&wl.r, &wl.s)
            .unwrap()
            .total_ios();
        assert!(
            nocap_ios <= ghj_ios,
            "NOCAP ({nocap_ios}) must not exceed GHJ ({ghj_ios}) at B = {budget}"
        );
    }
}

#[test]
fn nocap_beats_dhh_under_medium_skew_and_small_memory() {
    // The headline claim of the paper, scaled down: with a medium-skew
    // correlation and a limited budget NOCAP needs fewer I/Os than DHH with
    // its fixed 2 % thresholds.
    let wl = workload(Correlation::Zipf { alpha: 0.7 }, 6_000, 48_000, 5);
    let device = wl.r.device().clone();
    let spec = JoinSpec::paper_synthetic(128, 48);
    device.reset_stats();
    let nocap_ios = NocapJoin::new(spec, NocapConfig::default())
        .run(&wl.r, &wl.s, &wl.mcvs)
        .unwrap()
        .total_ios();
    device.reset_stats();
    let dhh_ios = DhhJoin::new(spec, DhhConfig::default())
        .run(&wl.r, &wl.s, &wl.mcvs)
        .unwrap()
        .total_ios();
    assert!(
        nocap_ios <= dhh_ios,
        "NOCAP ({nocap_ios}) should not lose to DHH ({dhh_ios}) under medium skew"
    );
}

#[test]
fn skew_makes_the_join_cheaper_for_correlation_aware_algorithms() {
    // Same data volume, different correlation: NOCAP should need fewer I/Os
    // on the skewed workload because the hot keys stay in memory.
    let uniform = workload(Correlation::Uniform, 4_000, 32_000, 6);
    let skewed = workload(Correlation::Zipf { alpha: 1.3 }, 4_000, 32_000, 6);
    let spec = JoinSpec::paper_synthetic(128, 64);

    uniform.r.device().reset_stats();
    let uniform_ios = NocapJoin::new(spec, NocapConfig::default())
        .run(&uniform.r, &uniform.s, &uniform.mcvs)
        .unwrap()
        .total_ios();
    skewed.r.device().reset_stats();
    let skewed_ios = NocapJoin::new(spec, NocapConfig::default())
        .run(&skewed.r, &skewed.s, &skewed.mcvs)
        .unwrap()
        .total_ios();
    assert!(
        skewed_ios < uniform_ios,
        "skew should reduce NOCAP's I/O ({skewed_ios} vs {uniform_ios})"
    );
}

#[test]
fn hash_joins_fall_towards_one_pass_as_memory_grows_past_the_sqrt_threshold() {
    // `examples/memory_sweep`'s geometry (‖R‖ = 534 pages, √(F·‖R‖) ≈ 23):
    // from B = 48 up part of the residual stays resident, so every doubling
    // of B must buy NOCAP I/Os — a hybrid hash join's curve, not a Grace
    // join's flat one — NOCAP must stay at or below DHH, and at B = 384 it
    // must sit within 1.30 × of the OCAP bound (1.67 × with even quotas).
    let device = SimDevice::new_ref();
    let wl = synthetic::generate(
        device.clone(),
        &SyntheticConfig {
            n_r: 8_000,
            n_s: 64_000,
            record_bytes: 256,
            correlation: Correlation::Zipf { alpha: 1.0 },
            mcv_count: 400,
            seed: 7,
        },
    )
    .expect("workload generation");
    let mut previous = u64::MAX;
    for budget in [48usize, 96, 192, 384] {
        let spec = JoinSpec::paper_synthetic(256, budget);
        device.reset_stats();
        let nocap_ios = NocapJoin::new(spec, NocapConfig::default())
            .run(&wl.r, &wl.s, &wl.mcvs)
            .unwrap()
            .total_ios();
        device.reset_stats();
        let dhh_ios = DhhJoin::new(spec, DhhConfig::default())
            .run(&wl.r, &wl.s, &wl.mcvs)
            .unwrap()
            .total_ios();
        assert!(
            nocap_ios < previous,
            "NOCAP at B = {budget}: {nocap_ios} I/Os, {previous} at half the memory"
        );
        assert!(
            nocap_ios <= dhh_ios,
            "NOCAP ({nocap_ios}) above DHH ({dhh_ios}) at B = {budget}"
        );
        previous = nocap_ios;
    }
    let spec = JoinSpec::paper_synthetic(256, 384);
    let bound = ocap(&wl.ct, &spec, &OcapConfig::default()).total_io_pages;
    assert!(
        previous as f64 <= 1.30 * bound,
        "NOCAP at B = 384: {previous} I/Os against an OCAP bound of {bound:.0}"
    );
}
