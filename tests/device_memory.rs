//! Device-owned memory of the real-file `FileDevice` across whole joins.
//!
//! The block layer's read-ahead frames belong to the scans inside them: a
//! join that reads hundreds of spill partitions once each must hold one
//! frame per scan in flight while it runs and none when it returns. This
//! pins that through [`FileDevice::resident_pages`] — no RSS reading — for
//! NOCAP, DHH, GHJ and SMJ at a geometry where GHJ alone cuts each input
//! into 79 spill partitions, at 1, 2 and 8 workers.
//!
//! [`FileDevice::resident_pages`]: nocap_suite::storage::FileDevice::resident_pages

use nocap_suite::joins::{DhhJoin, GraceHashJoin, SortMergeJoin};
use nocap_suite::model::{JoinRunReport, JoinSpec};
use nocap_suite::nocap::{NocapConfig, NocapJoin};
use nocap_suite::storage::device::DeviceRef;
use nocap_suite::storage::{BlockDevice, FileDevice, Result, SimDevice, DEFAULT_PAGES_PER_BLOCK};
use nocap_suite::workload::{synthetic, Correlation, GeneratedWorkload, SyntheticConfig};

const RECORD_BYTES: usize = 128;
const BUDGET_PAGES: usize = 80;

fn generate_on(device: DeviceRef) -> GeneratedWorkload {
    let config = SyntheticConfig {
        n_r: 12_000,
        n_s: 48_000,
        record_bytes: RECORD_BYTES,
        correlation: Correlation::Zipf { alpha: 1.0 },
        mcv_count: 400,
        seed: 0xF7A3E,
    };
    let wl = synthetic::generate(device.clone(), &config).expect("workload");
    device.reset_stats();
    wl
}

type Join = fn(&GeneratedWorkload, usize) -> Result<JoinRunReport>;

fn joins() -> [(&'static str, Join); 4] {
    fn spec() -> JoinSpec {
        JoinSpec::paper_synthetic(RECORD_BYTES, BUDGET_PAGES)
    }
    [
        ("nocap", |wl, t| {
            NocapJoin::new(spec(), NocapConfig::default()).run_parallel(&wl.r, &wl.s, &wl.mcvs, t)
        }),
        ("dhh", |wl, t| {
            DhhJoin::with_defaults(spec()).run_parallel(&wl.r, &wl.s, &wl.mcvs, t)
        }),
        ("ghj", |wl, t| {
            GraceHashJoin::new(spec()).run_parallel(&wl.r, &wl.s, t)
        }),
        ("smj", |wl, t| {
            SortMergeJoin::new(spec()).run_parallel(&wl.r, &wl.s, t)
        }),
    ]
}

#[test]
fn joins_hold_frames_for_scans_in_flight_and_none_afterwards() {
    let ppb = DEFAULT_PAGES_PER_BLOCK;
    let sim_wl = generate_on(SimDevice::new_ref());
    let file_dev = FileDevice::builder().build_arc().expect("file device");
    let wl = generate_on(file_dev.clone() as DeviceRef);
    file_dev.flush().expect("flush the base relations' tails");
    assert_eq!(file_dev.live_files(), 2);

    for threads in [1, 2, 8] {
        // Frames in flight, in units of active scans × pages per block. In
        // the probe phase a worker is inside at most two scans at once —
        // the build side of a partition pair it is taking chunk by chunk,
        // and the probe side it streams past each chunk — and a scan is
        // inside one block. In the partition phase it is inside one (its
        // morsel of the base relation), and next to those the file holds
        // blocks that straddle a morsel boundary and wait for their second
        // reader: at most two per morsel being read, four per file. Three
        // frames per worker covers both. Recorded on the commit that
        // introduced the bound: 8 / 24–32 / 40–56 pages at 1 / 2 / 8
        // workers against this bound of 24 / 48 / 192; the retention it
        // replaced — four frames per live file until `delete_file` — reads
        // 705 / 929 / 1 017 pages for NOCAP / DHH / GHJ at one worker.
        let frame_bound = 3 * threads * ppb;

        for (name, join) in joins() {
            let name = format!("{name} at T = {threads}");
            sim_wl.r.device().reset_stats();
            let expected = join(&sim_wl, threads).expect("sim run");

            file_dev.reset_stats();
            file_dev.reset_resident_peaks();
            let report = join(&wl, threads).expect("file run");
            assert_eq!(report, expected, "{name}: output and per-phase I/O");
            assert_eq!(
                file_dev.stats(),
                sim_wl.r.device().stats(),
                "{name}: modeled I/O"
            );

            let resident = file_dev.resident_pages();
            println!(
                "{name}: frames peak {} pages, write-behind peak {} pages",
                resident.frames_peak, resident.write_behind_peak
            );
            assert_eq!(
                resident.frames, 0,
                "{name}: a returned join leaves read-ahead frames behind"
            );
            assert_eq!(
                file_dev.live_files(),
                2,
                "{name}: only the base relations outlive the join"
            );
            assert!(
                resident.frames_peak <= frame_bound,
                "{name}: {} frame pages at the high-water mark, bound {frame_bound} \
                 = 3 × {threads} workers × {ppb} pages per block",
                resident.frames_peak
            );
            // The base relations were flushed above; every spill file's
            // tail went with the file.
            assert_eq!(resident.write_behind, 0, "{name}: write-behind tails");
        }
    }
}
