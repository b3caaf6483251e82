//! Modeled-vs-observed I/O audit on a real `FileDevice`.
//!
//! Runs one NOCAP, one DHH and one SMJ join on a temporary-directory
//! `FileDevice` (the block layer: handle cache, read-ahead, write-behind)
//! wrapped in a `TracedDevice`, replays the captured
//! device-level event stream through `IoAudit`, and:
//!
//! * asserts the **model audit** is exact — every marker window's folded
//!   event counts equal the engine's own `IoStats` snapshot deltas, with no
//!   events outside the windows;
//! * asserts the **declaration audit** (declared `IoKind` vs observed
//!   access pattern per phase) flags no contradiction;
//! * reruns NOCAP under `SyncPolicy::Sync` vs `SyncPolicy::None` and joins
//!   the two measured latency tables into a **sync comparison** against the
//!   `osync_on` / `osync_off` analytic profiles — the measured on/off cost
//!   ratio per I/O kind next to the ratio the paper's device model assumes;
//! * records, per algorithm, the page memory the **device** held —
//!   read-ahead frames at their high-water mark and after the join
//!   returned, write-behind tails at theirs
//!   ([`FileDevice::resident_pages`]) — the part of a run's physical
//!   footprint that `B` does not charge and the block layer owns;
//! * writes the audits — per-phase tables, declarations, the
//!   measured-vs-modeled latency table with the empirical μ/τ of the
//!   filesystem it ran on, page-touch heatmaps — the device memory and the
//!   sync comparison to `BENCH_io.json` (`--out <path>` to relocate; the
//!   file is git-ignored).
//!
//! It prints one verdict line per audit and the path of the JSON. Pass
//! `--quick` for a smaller workload (the CI smoke setting); any other
//! argument is rejected.

use nocap::{NocapConfig, NocapJoin};
use nocap_bench::harness::Flags;
use nocap_joins::{DhhJoin, SortMergeJoin};
use nocap_model::{JoinRunReport, JoinSpec};
use nocap_obs::{IoAudit, Obs, SyncComparison};
use nocap_storage::{DeviceProfile, FileDevice, ResidentPages, SyncPolicy, TracedDevice};
use nocap_workload::{synthetic, Correlation, SyntheticConfig};

/// Replays a recorded run's device-level event stream through [`IoAudit`],
/// asserts the model and declaration audits are exact and prints the
/// verdict.
fn audited(name: &str, report: &JoinRunReport, profile: DeviceProfile) -> IoAudit {
    let trace = report.trace.as_ref().expect("recording attaches a trace");
    let audit = IoAudit::from_trace(trace, profile);
    assert!(
        audit.mismatches().is_empty(),
        "{name}: traced events disagree with the engine's modeled I/O: {:?}",
        audit.mismatches()
    );
    assert_eq!(audit.leading_events, 0, "{name}: events before any marker");
    assert_eq!(
        audit.trailing_events, 0,
        "{name}: events after the last marker"
    );
    assert!(
        audit.flagged_declarations().is_empty(),
        "{name}: declared I/O kinds contradict the observed access patterns: {:?}",
        audit.flagged_declarations()
    );
    println!(
        "# {name}: model audit exact over {} window(s) and {} event(s), no flagged declaration",
        audit.windows.len(),
        trace.io_events.len()
    );
    audit
}

fn main() {
    let flags = Flags::from_args(&["--quick"], &["--out"]);
    let quick = flags.has("--quick");
    let out = flags.value("--out").unwrap_or("BENCH_io.json");
    let (n_r, n_s) = if quick {
        (6_000, 48_000)
    } else {
        (20_000, 160_000)
    };
    let record_bytes = 128;
    let buffer_pages = 48;
    let threads = 4;
    let profile = DeviceProfile::osync_off();
    let wl_config = SyntheticConfig {
        n_r,
        n_s,
        record_bytes,
        correlation: Correlation::Zipf { alpha: 1.1 },
        mcv_count: n_r / 20,
        seed: 0x10AD,
    };
    let spec = JoinSpec::paper_synthetic(record_bytes, buffer_pages);
    let nocap = NocapJoin::new(spec, NocapConfig::default());
    let dhh = DhhJoin::with_defaults(spec);
    let smj = SortMergeJoin::new(spec);

    // A real device behind a latency-measuring tracer: every page access is
    // timed around the actual syscalls (or the write-behind buffer insert —
    // the block layer coalesces appends into one pwrite per block).
    let file_device = FileDevice::builder().build_arc().expect("temp FileDevice");
    let device = TracedDevice::with_latency_ref(file_device.clone());

    let workload = synthetic::generate(device.clone(), &wl_config).expect("workload generation");
    device.reset_stats();

    // The base relations' write-behind tails are flushed once, so what the
    // gauge reads per join below is what that join made the device hold.
    file_device.flush().expect("flush the base relations");
    type Audited = (String, IoAudit, ResidentPages);
    let audit_run = |name: &str, run: &dyn Fn(&Obs) -> JoinRunReport| -> Audited {
        device.reset_stats();
        file_device.reset_resident_peaks();
        let obs = Obs::recording();
        let report = run(&obs);
        let memory = file_device.resident_pages();
        assert_eq!(
            report.output_records,
            workload.expected_join_output(),
            "{name}: wrong join output"
        );
        (name.to_string(), audited(name, &report, profile), memory)
    };

    let audits = [
        audit_run("NOCAP", &|obs| {
            nocap
                .run_parallel_obs(&workload.r, &workload.s, &workload.mcvs, threads, obs)
                .expect("NOCAP run")
        }),
        audit_run("DHH", &|obs| {
            dhh.run_parallel_obs(&workload.r, &workload.s, &workload.mcvs, threads, obs)
                .expect("DHH run")
        }),
        audit_run("SMJ", &|obs| {
            smj.run_parallel_obs(&workload.r, &workload.s, threads, obs)
                .expect("SMJ run")
        }),
    ];

    // ---- O_SYNC on vs off: measured latency tables ---------------------
    // Two fresh block-layer devices differing only in durability policy:
    // `SyncPolicy::None` (audited against the osync_off profile) and
    // `SyncPolicy::Sync` (fsync per physical write batch, audited against
    // osync_on). The joined table puts the measured on/off latency ratio
    // per I/O kind next to the ratio the analytic profiles assume.
    let sync_run = |policy: SyncPolicy, profile: DeviceProfile| -> IoAudit {
        let fdev = FileDevice::builder()
            .sync_policy(policy)
            .build_arc()
            .expect("sync-policy FileDevice");
        let device = TracedDevice::with_latency_ref(fdev.clone());
        let workload = synthetic::generate(device.clone(), &wl_config).expect("workload");
        device.reset_stats();
        let obs = Obs::recording();
        let report = nocap
            .run_parallel_obs(&workload.r, &workload.s, &workload.mcvs, threads, &obs)
            .expect("sync-comparison NOCAP run");
        assert_eq!(report.output_records, workload.expected_join_output());
        let syncs = fdev.block_stats().syncs;
        match policy {
            SyncPolicy::None => assert_eq!(syncs, 0, "SyncPolicy::None must not sync"),
            _ => assert!(syncs > 0, "durable policies must issue sync syscalls"),
        }
        audited(&format!("NOCAP / SyncPolicy::{policy:?}"), &report, profile)
    };
    let off_audit = sync_run(SyncPolicy::None, DeviceProfile::osync_off());
    let on_audit = sync_run(SyncPolicy::Sync, DeviceProfile::osync_on());
    let comparison = SyncComparison::between(&off_audit, &on_audit);

    // ---- BENCH_io.json -------------------------------------------------
    let mut json = String::from("{\n");
    json.push_str(&format!(
        " \"config\": {{\n  \"device\": \"FileDevice\",\n  \"n_r\": {n_r},\n  \"n_s\": {n_s},\n  \
         \"record_bytes\": {record_bytes},\n  \"buffer_pages\": {buffer_pages},\n  \
         \"threads\": {threads},\n  \"quick\": {quick}\n }},\n"
    ));
    for (name, audit, memory) in audits.iter() {
        let audit_json = audit.to_json();
        let fields = audit_json
            .strip_prefix("{\n")
            .expect("the audit document is a JSON object");
        json.push_str(&format!(
            " \"{}\": {{\n  \"device_memory\": {{\"peak_frame_pages\": {}, \
             \"frames_after_join\": {}, \"peak_write_behind_pages\": {}}},\n{fields},\n",
            name.to_lowercase(),
            memory.frames_peak,
            memory.frames,
            memory.write_behind_peak
        ));
    }
    json.push_str(&format!(" \"sync_comparison\": {}\n", comparison.to_json()));
    json.push_str("}\n");
    std::fs::write(out, json).expect("write BENCH_io.json");
    println!("# wrote {out}");
}
