//! Regenerates **Table 4** of the paper: the RUU **with bypass logic**.
//!
//! Run with `cargo bench -p ruu-bench --bench table4`.

use ruu_bench::{harness, paper, report};
use ruu_engine::Job;
use ruu_issue::{Bypass, Mechanism};
use ruu_sim_core::MachineConfig;

fn main() {
    let (cfg, bypass) = (MachineConfig::paper(), Bypass::Full);
    let jobs: Vec<Job> = paper::TABLE4
        .iter()
        .map(|&(entries, ..)| Job::new(Mechanism::Ruu { entries, bypass }, cfg.clone()))
        .collect();
    let grid = harness::run(&jobs);
    print!(
        "{}",
        report::format_sweep(
            "Table 4 — RUU with bypass logic (precise interrupts)",
            &grid.jobs,
            &paper::TABLE4
        )
    );
    println!();
    println!("{}", report::format_engine_stats(&grid.stats));
}
