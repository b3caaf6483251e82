//! Integration tests over the benchmark workloads (TPC-H-like, JCC-H-like,
//! JOB-like): the generated relations must be joinable by every executor
//! with identical output, and the skew structure must translate into the
//! I/O advantage the paper reports.

use nocap_suite::joins::{naive_join_count, DhhConfig, DhhJoin};
use nocap_suite::model::JoinSpec;
use nocap_suite::nocap::{NocapConfig, NocapJoin};
use nocap_suite::storage::device::DeviceRef;
use nocap_suite::storage::{Relation, SimDevice};
use nocap_suite::workload::jcch::{self, JcchConfig, JcchSkew};
use nocap_suite::workload::job::{self, JobConfig, JobJoin};
use nocap_suite::workload::synthetic::{self, Correlation, SyntheticConfig};
use nocap_suite::workload::tpch::{self, TpchQ12Config};
use nocap_suite::workload::GeneratedWorkload;

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

/// FNV-1a over every record of every page, in storage order: the page's
/// record count, then each record's key (little-endian) and payload bytes.
fn relation_digest(relation: &Relation) -> u64 {
    fn mix(hash: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(hash, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut scan = relation.scan();
    while let Some(page) = scan.next_page().unwrap() {
        hash = mix(hash, &(page.record_count() as u64).to_le_bytes());
        for record in page.record_refs() {
            hash = mix(hash, &record.key().to_le_bytes());
            hash = mix(hash, record.payload());
        }
    }
    hash
}

/// Pins the generated bytes, not only the counts: every page of R and S of
/// the synthetic, TPC-H-, JCC-H- and JOB-like generators hashes to the
/// digest recorded when the pin was introduced, and generation costs one
/// sequential write per page. A change to sampling, shuffling, payload
/// fill or page packing moves a digest even where it leaves every join's
/// I/O count alone.
#[test]
fn generated_relations_are_byte_identical_to_the_recorded_digests() {
    // (pages of R, pages of S, sequential writes, digest of R, digest of S)
    let pin = |generate: &dyn Fn(DeviceRef) -> GeneratedWorkload| {
        let device = SimDevice::new_ref();
        let wl = generate(device.clone());
        let seq_writes = device.stats().seq_writes;
        (
            wl.r.num_pages(),
            wl.s.num_pages(),
            seq_writes,
            relation_digest(&wl.r),
            relation_digest(&wl.s),
        )
    };
    let tpch_small = TpchQ12Config {
        n_orders: 4_000,
        hot_fraction: 0.005,
        hot_matches_avg: 100.0,
        cold_matches_avg: 1.5,
        selectivity: 0.63,
        record_bytes: 64,
        mcv_count: 200,
        seed: 11,
    };
    let jcch_small = |skew| JcchConfig {
        n_orders: 4_000,
        n_lineitems: 16_000,
        skew,
        record_bytes: 64,
        mcv_count: 200,
        seed: 3,
    };
    let job_small = |join| JobConfig {
        join,
        n_keys: 5_000,
        n_cast_info: 40_000,
        record_bytes: 64,
        mcv_count: 250,
        seed: 5,
    };
    let zipf = SyntheticConfig::scaled_default(Correlation::Zipf { alpha: 1.0 });
    let uniform = SyntheticConfig::scaled_default(Correlation::Uniform);
    let actual = [
        (
            "synthetic zipf 1.0",
            pin(&|d| synthetic::generate(d, &zipf).unwrap()),
        ),
        (
            "synthetic uniform",
            pin(&|d| synthetic::generate(d, &uniform).unwrap()),
        ),
        (
            "tpch small",
            pin(&|d| tpch::generate(d, &tpch_small).unwrap()),
        ),
        (
            "jcch small original",
            pin(&|d| jcch::generate(d, &jcch_small(JcchSkew::Original)).unwrap()),
        ),
        (
            "jcch small tuned",
            pin(&|d| jcch::generate(d, &jcch_small(JcchSkew::Tuned)).unwrap()),
        ),
        (
            "job small cast_title",
            pin(&|d| job::generate(d, &job_small(JobJoin::CastTitle)).unwrap()),
        ),
        (
            "job small cast_name",
            pin(&|d| job::generate(d, &job_small(JobJoin::CastName)).unwrap()),
        ),
    ];
    #[rustfmt::skip]
    let expected = [
        ("synthetic zipf 1.0", (1_334, 10_667, 12_001, 0x7510_abd5_d0fb_9777, 0x5692_5d03_7d55_7cb8)),
        ("synthetic uniform", (1_334, 10_667, 12_001, 0x7510_abd5_d0fb_9777, 0xb662_1339_d221_2e07)),
        ("tpch small", (64, 79, 143, 0xbda0_f80f_4945_f685, 0xb236_7c9e_c7d0_631a)),
        ("jcch small original", (64, 254, 318, 0xbda0_f80f_4945_f685, 0xffee_4bb8_e1bf_ea2d)),
        ("jcch small tuned", (64, 254, 318, 0xbda0_f80f_4945_f685, 0xa9e9_38ba_b6c5_bf4f)),
        ("job small cast_title", (80, 635, 715, 0x2c35_47c1_f002_4b8d, 0x3d97_9e5b_7313_4a4c)),
        ("job small cast_name", (80, 635, 715, 0x2c35_47c1_f002_4b8d, 0xd32c_0e62_abc4_65d4)),
    ];
    assert_eq!(actual, expected);
}
