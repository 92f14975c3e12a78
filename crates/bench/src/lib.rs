//! # ruu-bench — the paper's experiments, regenerated
//!
//! Every table, figure and ablation is one entry of the registry in
//! [`experiments`], printed by the `experiments` bin
//! (`cargo run --release -p ruu-bench --bin experiments -- [ID...]`):
//!
//! | Ids | Paper content |
//! |---|---|
//! | `table1`, `stalls` | baseline statistics per Livermore loop, and where its cycles go |
//! | `table2`, `table3` | RSTU sweep, 1 and 2 dispatch paths |
//! | `table4`, `table5`, `table6` | RUU sweep: full, no, limited (A future file) bypass |
//! | `figure3` | Tag Unit walkthrough |
//! | `per-loop`, `spectrum` | Tables 2–6 per loop; the §3→§5 design walk |
//! | `a1` … `a9` | ablations and extensions (paths, load registers, counters, buses, speculation, precision cost, §4 schemes, predictors, data cache) |
//!
//! The library half holds the registry and its EXPERIMENTS.md checker
//! ([`experiments`]), the shared engine ([`harness`]), the paper's
//! published numbers ([`paper`]) and table formatting ([`report`]), so
//! integration tests can assert the *shape* of each reproduced result.
//!
//! [`experiments::run`] runs the jobs of every selected entry as one
//! grid on the shared parallel [`ruu_engine::SweepEngine`] (see
//! [`harness::engine`]); the formatters read the resulting
//! [`ruu_engine::JobResult`]s and their per-workload
//! [`ruu_engine::WorkloadRow`]s. Results are bit-identical for any
//! worker count.

pub mod experiments;
pub mod harness;
pub mod paper;
pub mod report;

pub use harness::{engine, sweep_serial};
