//! Quick calibration snapshot: baseline Table 1 plus small sweeps of every
//! mechanism, for eyeballing the machine model against the paper.

use ruu_bench::{harness, paper, report};
use ruu_engine::Job;
use ruu_issue::{Bypass, Mechanism};
use ruu_sim_core::MachineConfig;

fn main() {
    let cfg = MachineConfig::paper();
    let sizes = [3, 4, 6, 8, 10, 15, 20, 30, 50];
    // The RSTU (no bypass policy) and the RUU under each bypass policy.
    let sweeps = [
        ("RSTU", None, &paper::TABLE2),
        ("RUU full bypass", Some(Bypass::Full), &paper::TABLE4),
        ("RUU no bypass", Some(Bypass::None), &paper::TABLE5),
        ("RUU limited bypass", Some(Bypass::LimitedA), &paper::TABLE6),
    ];
    let make = |entries, bypass| match bypass {
        None => Mechanism::Rstu { entries },
        Some(bypass) => Mechanism::Ruu { entries, bypass },
    };
    let mut jobs = vec![Job::new(Mechanism::Simple, cfg.clone())];
    for &(_, bypass, _) in &sweeps {
        jobs.extend(
            sizes
                .iter()
                .map(|&e| Job::new(make(e, bypass), cfg.clone())),
        );
    }
    let grid = harness::run(&jobs);
    let (baseline, sweep_jobs) = grid.jobs.split_first().expect("the baseline job ran");

    println!("== Table 1 (baseline) ==");
    print!("{}", report::format_table1(&baseline.workloads));
    println!("baseline total cycles: {}", baseline.baseline_cycles);
    for ((name, _, table), jobs) in sweeps.iter().zip(sweep_jobs.chunks(sizes.len())) {
        print!("{}", report::format_sweep(name, jobs, *table));
    }
}
