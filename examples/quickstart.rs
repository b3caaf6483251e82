//! Quickstart: generate a small skewed PK–FK workload, run NOCAP and DHH on
//! the same memory budget, and compare I/Os and modeled I/O latency.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use nocap_suite::joins::{DhhConfig, DhhJoin};
use nocap_suite::model::JoinSpec;
use nocap_suite::nocap::{NocapConfig, NocapJoin};
use nocap_suite::storage::{DeviceProfile, SimDevice};
use nocap_suite::workload::{synthetic, Correlation, SyntheticConfig};

fn main() {
    // 1. A simulated storage device that counts every page I/O.
    let device = SimDevice::new_ref();

    // 2. A skewed synthetic workload: 10 K primary keys, 80 K foreign keys
    //    drawn from a Zipf(1.0) distribution.
    let config = SyntheticConfig {
        n_r: 10_000,
        n_s: 80_000,
        record_bytes: 256,
        correlation: Correlation::Zipf { alpha: 1.0 },
        mcv_count: 500,
        seed: 42,
    };
    let workload = synthetic::generate(device.clone(), &config).expect("generate workload");
    println!(
        "workload: ‖R‖ = {} pages, ‖S‖ = {} pages, top-10 MCV mass = {:.1}%",
        workload.r.num_pages(),
        workload.s.num_pages(),
        100.0 * workload.ct.top_k_mass(10)
    );

    // 3. A join spec: 96 pages of memory (≈ 2.6× √‖R‖), the paper's fudge
    //    factor and the no-sync SSD profile.
    let spec = JoinSpec::paper_synthetic(256, 96);
    let profile = DeviceProfile::osync_off();

    // 4. Run NOCAP.
    device.reset_stats();
    let nocap_report = NocapJoin::new(spec, NocapConfig::default())
        .run(&workload.r, &workload.s, &workload.mcvs)
        .expect("NOCAP join");

    // 5. Run DHH with its default (PostgreSQL-style) thresholds.
    device.reset_stats();
    let dhh_report = DhhJoin::new(spec, DhhConfig::default())
        .run(&workload.r, &workload.s, &workload.mcvs)
        .expect("DHH join");

    assert_eq!(nocap_report.output_records, dhh_report.output_records);
    println!(
        "join output: {} tuples (both algorithms agree)",
        nocap_report.output_records
    );
    for report in [&nocap_report, &dhh_report] {
        println!(
            "{:>9}: {:>8} I/Os  ({} partition, {} probe)  modeled I/O latency {:.2}s",
            report.algorithm,
            report.total_ios(),
            report.partition_io.total(),
            report.probe_io.total(),
            report.io_latency_secs(&profile),
        );
    }
    let saved = 1.0 - nocap_report.total_ios() as f64 / dhh_report.total_ios() as f64;
    println!(
        "NOCAP saves {:.1}% of DHH's I/Os on this workload",
        100.0 * saved
    );
}
