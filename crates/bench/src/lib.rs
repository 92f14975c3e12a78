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
//! The library half holds the harness (workload sweeps), the paper's
//! published numbers ([`paper`]), and table formatting, so integration
//! tests can assert the *shape* of each reproduced result.
//!
//! Sweeps execute on the shared parallel [`ruu_engine::SweepEngine`]
//! (see [`harness::engine`]); set `RUU_BENCH_JOBS=1` to force serial
//! execution. Results are bit-identical for any worker count.

pub mod harness;
pub mod paper;
pub mod report;

pub use harness::{
    engine, sweep_serial, try_baseline_rows, try_baseline_total_cycles, try_cache_ablation,
    try_predictor_ablation, try_stall_breakdown, try_sweep, try_sweep_report, BaselineRow,
    CacheAblationRow, HarnessError, PredictorAblationRow, StallBreakdownRow, SweepPoint,
};
