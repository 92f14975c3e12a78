//! Regenerates **Table 3** of the paper: the RSTU with two data paths to
//! the functional units.
//!
//! Run with `cargo bench -p ruu-bench --bench table3`.

use ruu_bench::{harness, paper, report};
use ruu_engine::Job;
use ruu_issue::Mechanism;
use ruu_sim_core::MachineConfig;

fn main() {
    let cfg = MachineConfig::paper().with_dispatch_paths(2);
    let jobs: Vec<Job> = paper::TABLE3
        .iter()
        .map(|&(entries, ..)| Job::new(Mechanism::Rstu { entries }, cfg.clone()))
        .collect();
    let grid = harness::run(&jobs);
    print!(
        "{}",
        report::format_sweep(
            "Table 3 — RSTU with 2 data paths to the functional units",
            &grid.jobs,
            &paper::TABLE3
        )
    );
    println!();
    println!("{}", report::format_engine_stats(&grid.stats));
}
