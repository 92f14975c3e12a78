//! Regenerates **Table 5** of the paper: the RUU **without bypass logic**
//! (reservation stations monitor the result bus and the RUU→register-file
//! bus only).
//!
//! Run with `cargo bench -p ruu-bench --bench table5`.

use ruu_bench::{harness, paper, report};
use ruu_engine::Job;
use ruu_issue::{Bypass, Mechanism};
use ruu_sim_core::MachineConfig;

fn main() {
    let (cfg, bypass) = (MachineConfig::paper(), Bypass::None);
    let jobs: Vec<Job> = paper::TABLE5
        .iter()
        .map(|&(entries, ..)| Job::new(Mechanism::Ruu { entries, bypass }, cfg.clone()))
        .collect();
    let grid = harness::run(&jobs);
    print!(
        "{}",
        report::format_sweep(
            "Table 5 — RUU without bypass logic",
            &grid.jobs,
            &paper::TABLE5
        )
    );
    println!();
    println!("{}", report::format_engine_stats(&grid.stats));
}
