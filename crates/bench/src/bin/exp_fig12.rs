//! Figure 12: TPC-H Q12-like join (orders ⋈ lineitem) with hot/cold key
//! skew, two selectivities (0.488 / 0.63) and two scale factors.
//!
//! Prints, per panel, the buffer-size sweep with NOCAP's and DHH's total and
//! I/O-only latency (the paper separates the two because Q12's aggregation
//! makes the join less I/O-bound).

use nocap_bench::harness::{print_nocap_vs_dhh, Flags};
use nocap_storage::SimDevice;
use nocap_workload::tpch::{self, TpchQ12Config};

fn main() {
    Flags::from_args(&[], &[]);
    let panels = [
        ("sf10_sel0.488", TpchQ12Config::scaled_sf10(0.488)),
        ("sf10_sel0.63", TpchQ12Config::scaled_sf10(0.63)),
        ("sf50_sel0.488", TpchQ12Config::scaled_sf50(0.488)),
        ("sf50_sel0.63", TpchQ12Config::scaled_sf50(0.63)),
    ];

    for (name, config) in panels {
        let workload = tpch::generate(SimDevice::new_ref(), &config).expect("TPC-H workload");
        print_nocap_vs_dhh(
            &format!("Figure 12 — TPC-H Q12-like, {name}: latency (s) vs buffer size"),
            &workload,
            config.record_bytes,
            config.n_orders,
        );
    }
}
