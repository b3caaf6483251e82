//! # nocap-bench
//!
//! Experiment harness reproducing every table and figure of the paper's
//! evaluation. The library part hosts the shared sweep (the five joins as
//! one list, the doubling budget grid, panels priced under the device
//! profile they print) and CSV printing; the experiments live in
//! `src/bin/exp_*.rs`. Only `exp_fig8`, `exp_io_audit` and
//! `exp_stats_accuracy` take a flag (`--quick`, for a smaller geometry;
//! `exp_io_audit` also `--out`); the others run one fixed geometry. The
//! bins read no environment variables; they run on `SimDevice`, except
//! `exp_io_audit`, which builds its own `FileDevice`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod harness;
