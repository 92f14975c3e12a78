//! Quick calibration snapshot: baseline Table 1 plus small sweeps of every
//! mechanism, for eyeballing the machine model against the paper.

use ruu_bench::{paper, report, try_baseline_rows, try_baseline_total_cycles, try_sweep};
use ruu_issue::{Bypass, Mechanism};
use ruu_sim_core::MachineConfig;

fn main() {
    let cfg = MachineConfig::paper();
    println!("== Table 1 (baseline) ==");
    let rows = try_baseline_rows(&cfg).expect("baseline");
    print!("{}", report::format_table1(&rows));
    println!(
        "baseline total cycles: {}",
        try_baseline_total_cycles(&cfg).expect("baseline")
    );

    let sizes = [3, 4, 6, 8, 10, 15, 20, 30, 50];
    let rstu = try_sweep(&cfg, &sizes, |entries| Mechanism::Rstu { entries }).expect("RSTU sweep");
    print!("{}", report::format_sweep("RSTU", &rstu, &paper::TABLE2));
    for (name, bypass, table) in [
        ("RUU full bypass", Bypass::Full, &paper::TABLE4),
        ("RUU no bypass", Bypass::None, &paper::TABLE5),
        ("RUU limited bypass", Bypass::LimitedA, &paper::TABLE6),
    ] {
        let pts = try_sweep(&cfg, &sizes, |entries| Mechanism::Ruu { entries, bypass })
            .expect("RUU sweep");
        print!("{}", report::format_sweep(name, &pts, table));
    }
}
