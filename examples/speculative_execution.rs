//! The paper's §7 future work, built: conditional execution of predicted
//! branch paths in the RUU, with nullification on mispredictions.
//!
//! ```sh
//! cargo run --release --example speculative_execution
//! ```

use ruu::issue::{Bypass, Mechanism};
use ruu::predict::PredictorConfig;
use ruu::sim::MachineConfig;
use ruu::workloads::livermore;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = MachineConfig::paper();
    let w = livermore::lll11();
    println!("workload: {} — {}", w.name, w.description);
    println!(
        "(its branch condition depends on the loop counter chain, so the blocking\n\
         machine regularly parks the branch in the decode stage)\n"
    );

    let blocking = Mechanism::Ruu {
        entries: 20,
        bypass: Bypass::Full,
    }
    .run(&cfg, &w.program, w.memory.clone(), w.inst_limit)?;
    println!(
        "blocking RUU(20):            {:>7} cycles, IPC {:.3}",
        blocking.cycles,
        blocking.issue_rate()
    );

    for predictor in [
        PredictorConfig::AlwaysTaken,
        PredictorConfig::Btfn,
        PredictorConfig::default(),
    ] {
        let r = Mechanism::SpecRuu {
            entries: 20,
            bypass: Bypass::Full,
            predictor,
        }
        .run(&cfg, &w.program, w.memory.clone(), w.inst_limit)?;
        w.verify(&r.memory)?; // speculation is architecturally invisible
        println!(
            "speculative RUU(20, {:<12}): {:>7} cycles, IPC {:.3}  \
             ({} predicted, {} mispredicted, {} nullified)",
            predictor.to_string(),
            r.cycles,
            r.issue_rate(),
            r.stats.predicted_branches,
            r.stats.mispredicted_branches,
            r.stats.nullified,
        );
    }
    Ok(())
}
