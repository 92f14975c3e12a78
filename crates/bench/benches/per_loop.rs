//! Per-loop breakdown of the headline comparison (the paper reports only
//! suite totals for Tables 2–6; this target shows where each mechanism's
//! win comes from — and where it cannot win).
//!
//! Run with `cargo bench -p ruu-bench --bench per_loop`.

use ruu_bench::harness;
use ruu_engine::Job;
use ruu_issue::{Bypass, Mechanism};
use ruu_sim_core::MachineConfig;

fn main() {
    let cfg = MachineConfig::paper();
    let mechanisms = [
        ("simple", Mechanism::Simple),
        ("RSTU(15)", Mechanism::Rstu { entries: 15 }),
        (
            "RUU(15)",
            Mechanism::Ruu {
                entries: 15,
                bypass: Bypass::Full,
            },
        ),
        (
            "RUU(15) no-byp",
            Mechanism::Ruu {
                entries: 15,
                bypass: Bypass::None,
            },
        ),
        (
            "RUU(15) ltd",
            Mechanism::Ruu {
                entries: 15,
                bypass: Bypass::LimitedA,
            },
        ),
    ];
    let jobs: Vec<Job> = mechanisms
        .iter()
        .map(|&(label, m)| Job::new(m, cfg.clone()).with_label(label))
        .collect();
    let grid = harness::run(&jobs);
    let (base, others) = grid.jobs.split_first().expect("the baseline job ran");

    println!("### Per-loop speedups over the simple baseline (window = 15)");
    print!("| loop | base IPC |");
    for j in others {
        print!(" {} |", j.label);
    }
    println!();
    print!("|---|---:|");
    for _ in others {
        print!("---:|");
    }
    println!();

    for (i, b) in base.workloads.iter().enumerate() {
        print!(
            "| {} | {:.3} |",
            b.name,
            b.instructions as f64 / b.cycles as f64
        );
        for j in others {
            print!(" {:.2} |", b.cycles as f64 / j.workloads[i].cycles as f64);
        }
        println!();
    }
    println!();
    println!(
        "Expectation: the independent-iteration loops (LLL1, 7, 12) gain the most; \
         the tight recurrences (LLL5, 11) are latency-bound and gain the least — \
         dependency structure, not the mechanism, sets their ceiling."
    );
}
