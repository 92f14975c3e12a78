//! Prints the paper's tables, figure and ablations from the experiment
//! registry: the entries named on the command line, or every entry.
//!
//! ```text
//! experiments [ID...]
//! ```
//!
//! All selected entries run as one engine grid. The grid's `engine:`
//! stats line goes to stderr, so stdout is the same on every run. An
//! unknown id exits 1 with the list of ids.

use std::process::ExitCode;

use ruu_bench::experiments::{self, Experiment, EXPERIMENTS};
use ruu_bench::report::format_engine_stats;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<&Experiment> = if args.is_empty() {
        EXPERIMENTS.iter().collect()
    } else {
        match args
            .iter()
            .map(|id| experiments::find(id).ok_or(id))
            .collect()
        {
            Ok(selected) => selected,
            Err(id) => {
                eprintln!("error: unknown experiment `{id}`; the experiments are:");
                for e in EXPERIMENTS {
                    eprintln!("  {:<9} {}", e.id, e.source);
                }
                return ExitCode::FAILURE;
            }
        }
    };
    match experiments::run(&selected) {
        Ok((outputs, stats)) => {
            print!("{}", outputs.join("\n"));
            eprintln!("{}", format_engine_stats(&stats));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
