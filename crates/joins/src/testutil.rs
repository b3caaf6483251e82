//! Shared test support: deterministic workload builders and the
//! **differential determinism harness** — the run-vs-`run_parallel`
//! comparator that checks every executor for thread-count invariance.
//! (`run` is the same body at one worker, so what it pins is invariance;
//! the absolute numbers are pinned by `tests/parallel_determinism.rs`'
//! golden table and by the straight-line replicas of
//! `tests/zero_copy_equivalence.rs`.)
//!
//! The module is compiled into the library (not `#[cfg(test)]`) so the
//! top-level integration suites (`tests/parallel_determinism.rs`,
//! `tests/zero_copy_equivalence.rs`) and the benches can drive the same
//! comparator the unit tests use. It contains assertions and O(n log n)
//! workload builders only — nothing here belongs on a production code path.

use nocap_model::{JoinRunReport, JoinSpec};
use nocap_storage::device::DeviceRef;
use nocap_storage::hash::mix64;
use nocap_storage::{RecordRef, Relation};

/// Asserts that an executor at every thread count in `threads` reproduces
/// its sequential entry point (the same body at one worker) **exactly** —
/// identical join output and identical per-phase modeled I/O.
///
/// `sequential` runs once to establish the baseline; `parallel(n)` runs for
/// each entry of `threads`. Both closures are responsible for building
/// their own workload/device state (typically regenerating it from a fixed
/// seed so every run starts from identical relations and clean I/O
/// counters). This is the workspace's core engine contract in executable
/// form: parallelism may change *when* work happens, never *what* work
/// happens.
pub fn assert_parallel_equivalence(
    label: &str,
    threads: &[usize],
    sequential: impl Fn() -> JoinRunReport,
    parallel: impl Fn(usize) -> JoinRunReport,
) {
    let baseline = sequential();
    for &n in threads {
        let run = parallel(n);
        assert_eq!(
            run.output_records, baseline.output_records,
            "{label}: join output differs at {n} threads"
        );
        assert_eq!(
            run.partition_io, baseline.partition_io,
            "{label}: partition-phase I/O differs at {n} threads"
        );
        assert_eq!(
            run.probe_io, baseline.probe_io,
            "{label}: probe-phase I/O differs at {n} threads"
        );
    }
}

/// Builds an (R, S) pair where R has keys `0..n_r` and key `k` appears
/// `counts(k)` times in S, with S shuffled deterministically.
pub fn build_workload(
    device: DeviceRef,
    spec: &JoinSpec,
    n_r: u64,
    counts: impl Fn(u64) -> u64,
) -> (Relation, Relation) {
    let r_payload = vec![1; spec.r_layout.payload_bytes()];
    let r = Relation::bulk_load(
        device.clone(),
        spec.r_layout,
        spec.page_size,
        (0..n_r).map(|k| RecordRef::new(k, &r_payload)),
    )
    .unwrap();
    let mut s_keys: Vec<u64> = Vec::new();
    for k in 0..n_r {
        for rep in 0..counts(k) {
            s_keys.push(k.wrapping_add(rep << 32)); // temporary tag for shuffling
        }
    }
    s_keys.sort_by_key(|&tagged| mix64(tagged));
    let s_payload = vec![2; spec.s_layout.payload_bytes()];
    let s = Relation::bulk_load(
        device,
        spec.s_layout,
        spec.page_size,
        s_keys
            .iter()
            .map(|&tagged| RecordRef::new(tagged & 0xFFFF_FFFF, &s_payload)),
    )
    .unwrap();
    (r, s)
}

/// Expected output cardinality of the workload built by [`build_workload`].
pub fn expected_output(n_r: u64, counts: impl Fn(u64) -> u64) -> u64 {
    (0..n_r).map(counts).sum()
}

/// MCV statistics (exact top-k counts) for the workload.
pub fn mcvs(n_r: u64, counts: impl Fn(u64) -> u64, k: usize) -> Vec<(u64, u64)> {
    let mut all: Vec<(u64, u64)> = (0..n_r).map(|key| (key, counts(key))).collect();
    all.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
    all.truncate(k);
    all
}
