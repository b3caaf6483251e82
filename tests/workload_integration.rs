//! Integration tests over the benchmark workloads (TPC-H-like, JCC-H-like,
//! JOB-like): the generated relations must be joinable by every executor
//! with identical output, and the skew structure must translate into the
//! I/O advantage the paper reports.

use nocap_suite::joins::{naive_join_count, DhhConfig, DhhJoin};
use nocap_suite::model::JoinSpec;
use nocap_suite::nocap::{NocapConfig, NocapJoin};
use nocap_suite::storage::SimDevice;
use nocap_suite::workload::jcch::{self, JcchConfig, JcchSkew};
use nocap_suite::workload::job::{self, JobConfig, JobJoin};
use nocap_suite::workload::tpch::{self, TpchQ12Config};

#[test]
fn tpch_like_workload_joins_correctly_and_nocap_wins() {
    let device = SimDevice::new_ref();
    let config = TpchQ12Config {
        n_orders: 4_000,
        hot_fraction: 0.005,
        hot_matches_avg: 100.0,
        cold_matches_avg: 1.5,
        selectivity: 0.63,
        record_bytes: 128,
        mcv_count: 200,
        seed: 21,
    };
    let wl = tpch::generate(device.clone(), &config).unwrap();
    let expected = naive_join_count(&wl.r, &wl.s).unwrap();
    let spec = JoinSpec::paper_synthetic(128, 40);

    device.reset_stats();
    let nocap = NocapJoin::new(spec, NocapConfig::default())
        .run(&wl.r, &wl.s, &wl.mcvs)
        .unwrap();
    device.reset_stats();
    let dhh = DhhJoin::new(spec, DhhConfig::default())
        .run(&wl.r, &wl.s, &wl.mcvs)
        .unwrap();

    assert_eq!(nocap.output_records, expected);
    assert_eq!(dhh.output_records, expected);
    assert!(
        nocap.total_ios() <= dhh.total_ios(),
        "NOCAP ({}) should not lose to DHH ({}) on the skewed TPC-H-like join",
        nocap.total_ios(),
        dhh.total_ios()
    );
}

#[test]
fn jcch_like_workloads_join_correctly_under_both_skew_profiles() {
    for skew in [JcchSkew::Original, JcchSkew::Tuned] {
        let device = SimDevice::new_ref();
        let config = JcchConfig {
            n_orders: 3_000,
            n_lineitems: 12_000,
            skew,
            record_bytes: 128,
            mcv_count: 150,
            seed: 9,
        };
        let wl = jcch::generate(device.clone(), &config).unwrap();
        let expected = naive_join_count(&wl.r, &wl.s).unwrap();
        let spec = JoinSpec::paper_synthetic(128, 32);
        device.reset_stats();
        let nocap = NocapJoin::new(spec, NocapConfig::default())
            .run(&wl.r, &wl.s, &wl.mcvs)
            .unwrap();
        assert_eq!(nocap.output_records, expected, "skew profile {skew:?}");
    }
}

#[test]
fn job_like_workloads_join_correctly_for_both_joins() {
    for join in [JobJoin::CastTitle, JobJoin::CastName] {
        let device = SimDevice::new_ref();
        let config = JobConfig {
            join,
            n_keys: 3_000,
            n_cast_info: 24_000,
            record_bytes: 128,
            mcv_count: 150,
            seed: 17,
        };
        let wl = job::generate(device.clone(), &config).unwrap();
        let expected = naive_join_count(&wl.r, &wl.s).unwrap();
        let spec = JoinSpec::paper_synthetic(128, 48);
        device.reset_stats();
        let nocap = NocapJoin::new(spec, NocapConfig::default())
            .run(&wl.r, &wl.s, &wl.mcvs)
            .unwrap();
        device.reset_stats();
        let dhh = DhhJoin::new(spec, DhhConfig::default())
            .run(&wl.r, &wl.s, &wl.mcvs)
            .unwrap();
        assert_eq!(nocap.output_records, expected, "{join:?}");
        assert_eq!(dhh.output_records, expected, "{join:?}");
    }
}

#[test]
fn extreme_skew_lets_dhh_get_close_to_nocap_but_medium_skew_does_not() {
    // Figure 13's qualitative claim, checked end to end on the JCC-H-like
    // generator: the relative gap between DHH and NOCAP is larger under the
    // tuned (medium) skew than under the original (extreme) skew. The
    // budget gives DHH's skew table its first page (2 % of 64): below 50
    // pages the optimization the claim is about pins nothing, and the two
    // gaps differ only by which S keys happen to hash to a resident
    // partition.
    let spec = JoinSpec::paper_synthetic(128, 64);
    let mut gaps = Vec::new();
    for skew in [JcchSkew::Original, JcchSkew::Tuned] {
        let device = SimDevice::new_ref();
        let config = JcchConfig {
            n_orders: 6_000,
            n_lineitems: 48_000,
            skew,
            record_bytes: 128,
            mcv_count: 300,
            seed: 23,
        };
        let wl = jcch::generate(device.clone(), &config).unwrap();
        device.reset_stats();
        let nocap = NocapJoin::new(spec, NocapConfig::default())
            .run(&wl.r, &wl.s, &wl.mcvs)
            .unwrap()
            .total_ios() as f64;
        device.reset_stats();
        let dhh = DhhJoin::new(spec, DhhConfig::default())
            .run(&wl.r, &wl.s, &wl.mcvs)
            .unwrap()
            .total_ios() as f64;
        gaps.push(dhh / nocap);
    }
    let (original_gap, tuned_gap) = (gaps[0], gaps[1]);
    assert!(
        tuned_gap >= original_gap * 0.95,
        "medium skew should leave at least as much headroom over DHH \
         (original gap {original_gap:.3}, tuned gap {tuned_gap:.3})"
    );
}
