//! # nocap-bench
//!
//! Experiment harness reproducing every table and figure of the paper's
//! evaluation. The library part hosts shared helpers (sweep runners, CSV
//! printing); the actual experiments live in `src/bin/exp_*.rs` and the
//! Criterion micro-benchmarks in `benches/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod harness;
