//! # ruu-bench — the paper's experiments, regenerated
//!
//! One bench target per table/figure of the paper (run with
//! `cargo bench -p ruu-bench --bench <name>`):
//!
//! | Target | Paper content |
//! |---|---|
//! | `table1` | baseline statistics per Livermore loop |
//! | `table2` | RSTU sweep, 1 dispatch path |
//! | `table3` | RSTU sweep, 2 dispatch paths |
//! | `table4` | RUU sweep, full bypass |
//! | `table5` | RUU sweep, no bypass |
//! | `table6` | RUU sweep, limited (A future file) bypass |
//! | `figure3` | Tag Unit walkthrough |
//! | `ablation_*`, `speculation`, `precision_cost` | extension experiments |
//! | `throughput` | host simulation speed (criterion) |
//!
//! The library half holds the suite runner ([`harness`]: the shared
//! engine and the predictor/cache ablations), the paper's published
//! numbers ([`paper`]), and table formatting ([`report`]), so
//! integration tests can assert the *shape* of each reproduced result.
//!
//! Every target builds a `Vec<ruu_engine::Job>` and runs it as one grid
//! on the shared parallel [`ruu_engine::SweepEngine`] (see
//! [`harness::engine`]); the formatters read the resulting
//! [`ruu_engine::JobResult`]s and their per-workload
//! [`ruu_engine::WorkloadRow`]s. Set `RUU_BENCH_JOBS=1` to force serial
//! execution. Results are bit-identical for any worker count.

pub mod harness;
pub mod paper;
pub mod report;

pub use harness::{
    engine, sweep_serial, try_cache_ablation, try_predictor_ablation, CacheAblationRow,
    PredictorAblationRow,
};
