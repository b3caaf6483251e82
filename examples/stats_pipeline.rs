//! The deployable statistics pipeline: scan the fact relation once through a
//! budgeted `StatsCollector`, plan NOCAP purely from the sketch summary, and
//! execute — then compare the sketch's MCV estimates and the resulting plan
//! against the oracle (the full correlation table the collector replaces).
//!
//! ```bash
//! cargo run --release --example stats_pipeline
//! ```

use nocap_suite::model::JoinSpec;
use nocap_suite::nocap::{NocapConfig, NocapJoin};
use nocap_suite::stats::{StatsCollector, StatsConfig};
use nocap_suite::storage::SimDevice;
use nocap_suite::workload::{synthetic, Correlation, SyntheticConfig};

fn main() {
    // 1. A skewed synthetic workload: 10 K primary keys, 80 K foreign keys
    //    drawn from a Zipf(1.0) distribution.
    let device = SimDevice::new_ref();
    let config = SyntheticConfig {
        n_r: 10_000,
        n_s: 80_000,
        record_bytes: 256,
        correlation: Correlation::Zipf { alpha: 1.0 },
        mcv_count: 500,
        seed: 42,
    };
    let workload = synthetic::generate(device.clone(), &config).expect("generate workload");
    let spec = JoinSpec::paper_synthetic(256, 96);

    // 2. One streaming pass over S under a small page budget, sized like a
    //    join phase's structures are. 8 pages = 32 KB of sketches for a
    //    20 MB fact relation.
    let stats_pages = 8;
    let mut collector =
        StatsCollector::new(StatsConfig::for_budget_pages(stats_pages, spec.page_size));
    device.reset_stats();
    collector.consume(workload.s.scan()).expect("stats scan");
    let scan_ios = device.stats().reads();
    let summary = collector.finish();
    println!(
        "collected: n = {}, {} MCV counters, error ≤ {} \
         ({} pages of sketches, {} page reads)",
        summary.stream_len(),
        summary.mcvs().len(),
        summary.error_guarantee(),
        stats_pages,
        scan_ios,
    );

    // 3. Estimated vs. true frequencies for the hottest keys.
    println!("\n key | estimated (± bound) | true count");
    for est in summary.mcvs().iter().take(10) {
        let truth = workload
            .mcvs
            .iter()
            .find(|&&(k, _)| k == est.key)
            .map(|&(_, c)| c)
            .unwrap_or(0);
        println!(
            "{:>4} | {:>9} (± {:>4})  | {:>6}",
            est.key, est.count, est.error_bound, truth
        );
    }

    // 4. Plan and execute from the summary alone (no oracle anywhere), then
    //    from the oracle statistics for comparison.
    let join = NocapJoin::new(spec, NocapConfig::default());
    device.reset_stats();
    let sketch_report = join
        .run_with_collected_stats(&workload.r, &workload.s, &summary)
        .expect("sketch-planned join");
    device.reset_stats();
    let oracle_report = join
        .run(&workload.r, &workload.s, &workload.mcvs)
        .expect("oracle-planned join");

    assert_eq!(sketch_report.output_records, oracle_report.output_records);
    println!(
        "\njoin output: {} tuples (sketch- and oracle-planned agree)",
        sketch_report.output_records
    );
    println!(
        "sketch-planned: {:>7} I/Os\noracle-planned: {:>7} I/Os\nratio: {:.3}",
        sketch_report.total_ios(),
        oracle_report.total_ios(),
        sketch_report.total_ios() as f64 / oracle_report.total_ios() as f64,
    );
}
