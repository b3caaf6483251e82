//! Plan inspection: show how NOCAP's planner (Algorithm 10) splits the keys
//! between the in-memory hash table, designated disk partitions and the
//! residual partitioner as the memory budget grows — and, by executing every
//! plan it prints, how close the planner's estimate came to what the join
//! then paid.
//!
//! ```bash
//! cargo run --release --example plan_inspect
//! ```

use nocap_suite::model::JoinSpec;
use nocap_suite::nocap::{plan_nocap, NocapConfig, NocapJoin, PlannerConfig};
use nocap_suite::obs::Obs;
use nocap_suite::storage::{IoKind, SimDevice};
use nocap_suite::workload::{synthetic, Correlation, SyntheticConfig};

fn main() {
    let config = SyntheticConfig {
        n_r: 20_000,
        n_s: 160_000,
        record_bytes: 256,
        correlation: Correlation::Zipf { alpha: 1.0 },
        mcv_count: 1_000,
        seed: 13,
    };
    let wl = synthetic::generate(SimDevice::new_ref(), &config).expect("workload generation");
    let base_pages = (wl.r.num_pages() + wl.s.num_pages()) as f64;

    println!(
        "Zipf(1.0) correlation, n_R = {}, n_S = {}, √(F·‖R‖) = {:.0} pages",
        config.n_r,
        config.n_s,
        JoinSpec::paper_synthetic(config.record_bytes, 0).hhj_memory_threshold(config.n_r)
    );
    println!(
        "top-10 MCV mass = {:.1}% of S",
        100.0 * wl.ct.top_k_mass(10)
    );
    println!();
    println!(
        "{:>12} | {:>7} | {:>7} | {:>7} | {:>7} | {:>12} | {:>16} | {:>12}",
        "buffer_pages",
        "K_mem",
        "K_disk",
        "m_disk",
        "m_rest",
        "est_extra_io",
        "actual extra I/O",
        "est / actual"
    );
    for budget in [12usize, 18, 32, 64, 128, 256, 512, 1024, 2048] {
        let spec = JoinSpec::paper_synthetic(config.record_bytes, budget);
        let plan = plan_nocap(
            &wl.mcvs,
            config.n_r,
            config.n_s as u64,
            &spec,
            &PlannerConfig::default(),
        );
        spec.pages_left(2 + plan.fixed_memory_pages(&spec) + plan.m_rest)
            .expect("the planner's plan fits B");
        let report = NocapJoin::new(spec, NocapConfig::default())
            .run_with_plan(&wl.r, &wl.s, &plan, 1, &Obs::off())
            .expect("join");
        assert_eq!(report.output_records, wl.expected_join_output());
        // What the run paid beyond the base scans, in the planner's
        // currency: a random write counts μ sequential reads.
        let actual_extra = spec.device.trace_latency_us(&report.total_io())
            / spec.device.latency_us(IoKind::SeqRead)
            - base_pages;
        let ratio = if actual_extra > 0.0 {
            format!("{:.3}", plan.estimated_extra_io / actual_extra)
        } else {
            "-".to_string()
        };
        println!(
            "{:>12} | {:>7} | {:>7} | {:>7} | {:>7} | {:>12.0} | {:>16.0} | {:>12}",
            budget,
            plan.k_mem(),
            plan.k_disk(),
            plan.num_designated(),
            plan.m_rest,
            plan.estimated_extra_io,
            actual_extra,
            ratio
        );
    }
    println!();
    println!("Reading the table: below √(F·‖R‖) the planner designates most of the MCV");
    println!("list (K_disk) and leaves the residual partitioner only the pages it needs");
    println!("to re-partition in one pass; as memory grows it caches more hot keys (K_mem)");
    println!("and gives the remainder to the residual partitioner (m_rest). The last two");
    println!("columns are the same quantity, estimated and executed.");
}
