//! Figure 13: JCC-H (original and tuned skew) and JOB (cast_info ⋈ title,
//! cast_info ⋈ name) — NOCAP vs DHH.
//!
//! The expected shape: under *extreme* skew (original JCC-H, cast ⋈ name)
//! DHH's fixed 2 % thresholds happen to capture the hot keys and get close
//! to NOCAP; under *medium* skew (tuned JCC-H, cast ⋈ title) the fixed
//! thresholds leave I/O on the table and NOCAP pulls ahead.

use nocap_bench::harness::print_nocap_vs_dhh;
use nocap_storage::SimDevice;
use nocap_workload::jcch::{self, JcchConfig, JcchSkew};
use nocap_workload::job::{self, JobConfig, JobJoin};

fn main() {
    let title = |name: &str| format!("Figure 13 — {name}: latency (s) vs buffer size");
    for (name, skew) in [
        ("JCC-H tuned skew", JcchSkew::Tuned),
        ("JCC-H original skew", JcchSkew::Original),
    ] {
        let config = JcchConfig::scaled(skew);
        let workload = jcch::generate(SimDevice::new_ref(), &config).expect("JCC-H workload");
        print_nocap_vs_dhh(
            &title(name),
            &workload,
            config.record_bytes,
            config.n_orders,
        );
    }
    for (name, join) in [
        ("JOB cast_info ⋈ title", JobJoin::CastTitle),
        ("JOB cast_info ⋈ name", JobJoin::CastName),
    ] {
        let config = JobConfig::scaled(join);
        let workload = job::generate(SimDevice::new_ref(), &config).expect("JOB workload");
        print_nocap_vs_dhh(&title(name), &workload, config.record_bytes, config.n_keys);
    }
}
