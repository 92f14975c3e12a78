//! Regenerates **Table 6** of the paper: the RUU with **limited bypass**
//! — a future file shadowing the 8 A registers, no other bypass.
//!
//! Run with `cargo bench -p ruu-bench --bench table6`.

use ruu_bench::{harness, paper, report};
use ruu_engine::Job;
use ruu_issue::{Bypass, Mechanism};
use ruu_sim_core::MachineConfig;

fn main() {
    let (cfg, bypass) = (MachineConfig::paper(), Bypass::LimitedA);
    let jobs: Vec<Job> = paper::TABLE6
        .iter()
        .map(|&(entries, ..)| Job::new(Mechanism::Ruu { entries, bypass }, cfg.clone()))
        .collect();
    let grid = harness::run(&jobs);
    print!(
        "{}",
        report::format_sweep(
            "Table 6 — RUU with limited bypass (A-register future file)",
            &grid.jobs,
            &paper::TABLE6
        )
    );
    println!();
    println!("{}", report::format_engine_stats(&grid.stats));
}
