//! # nocap-bench
//!
//! Experiment harness reproducing every table and figure of the paper's
//! evaluation. The library part hosts shared helpers (sweep runners, CSV
//! printing); the actual experiments live in `src/bin/exp_*.rs` and the
//! Criterion micro-benchmarks in `benches/`. The bins take their
//! geometry from the command line (`--quick`) and read no environment
//! variables; they run on `SimDevice`, except `exp_io_audit`, which
//! builds its own `FileDevice`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod harness;
