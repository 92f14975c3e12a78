//! Extension A5 (paper §7, future work): conditional execution of
//! predicted paths in the RUU. Compares the blocking RUU (branches wait
//! in decode for their condition) against the speculative RUU with three
//! predictors, across window sizes.
//!
//! Run with `cargo bench -p ruu-bench --bench speculation`.

use ruu_bench::harness;
use ruu_engine::Job;
use ruu_issue::{Bypass, Mechanism};
use ruu_predict::PredictorConfig;
use ruu_sim_core::MachineConfig;

fn main() {
    let cfg = MachineConfig::paper();
    let predictors = [
        PredictorConfig::AlwaysTaken,
        PredictorConfig::Btfn,
        PredictorConfig::default(),
    ];
    let mut jobs = Vec::new();
    for entries in [10usize, 20, 30] {
        // Blocking (paper) RUU reference point, then each predictor.
        let blocking = Mechanism::Ruu {
            entries,
            bypass: Bypass::Full,
        };
        jobs.push(Job::new(blocking, cfg.clone()).with_label("blocking RUU"));
        for predictor in predictors {
            let spec = Mechanism::SpecRuu {
                entries,
                bypass: Bypass::Full,
                predictor,
            };
            jobs.push(Job::new(spec, cfg.clone()).with_label(format!("spec RUU ({predictor})")));
        }
    }
    let grid = harness::run(&jobs);

    println!("### Extension A5 — speculative (conditional-mode) execution in the RUU");
    println!("| RUU entries | machine | speedup | issue rate | mispredict % | nullified |");
    println!("|---:|---|---:|---:|---:|---:|");
    for j in &grid.jobs {
        let entries = j.entries.expect("every RUU has a window");
        let branch = j.branch.map_or_else(
            || "— | —".to_string(),
            |b| {
                let mp = if b.predicts == 0 {
                    0.0
                } else {
                    100.0 * b.mispredicts as f64 / b.predicts as f64
                };
                format!("{mp:.1} | {}", b.nullified)
            },
        );
        println!(
            "| {entries} | {} | {:.3} | {:.3} | {branch} |",
            j.label, j.speedup, j.issue_rate
        );
    }
    println!();
    println!(
        "Expectation (paper §7): prediction removes branch-condition waits; the RUU's \
         nullification makes recovery cheap, so speculation lifts the issue rate toward \
         the dead-cycle-only limit."
    );
}
