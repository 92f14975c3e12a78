//! Regenerates **Table 2** of the paper: relative speedup and issue rate
//! of the RSTU (one dispatch path) vs. the number of RSTU entries.
//!
//! Run with `cargo bench -p ruu-bench --bench table2`.

use ruu_bench::{harness, paper, report};
use ruu_engine::Job;
use ruu_issue::Mechanism;
use ruu_sim_core::MachineConfig;

fn main() {
    let cfg = MachineConfig::paper();
    let jobs: Vec<Job> = paper::TABLE2
        .iter()
        .map(|&(entries, ..)| Job::new(Mechanism::Rstu { entries }, cfg.clone()))
        .collect();
    let grid = harness::run(&jobs);
    print!(
        "{}",
        report::format_sweep(
            "Table 2 — relative speedup and issue rate with a RSTU",
            &grid.jobs,
            &paper::TABLE2
        )
    );
    println!();
    println!("{}", report::format_engine_stats(&grid.stats));
}
