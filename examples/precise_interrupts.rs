//! Precise interrupts in action: inject a page fault into a Livermore
//! loop running on the RUU, show that the recovered state is exactly a
//! program-order boundary, then resume and finish the program — and show
//! the RSTU failing the same test.
//!
//! ```sh
//! cargo run --release --example precise_interrupts
//! ```

use ruu::issue::{Bypass, Ruu, WindowKind};
use ruu::precise::{fault_points, imprecision, FaultKind, PrecisionCheck};
use ruu::sim::MachineConfig;
use ruu::workloads::livermore;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let w = livermore::lll5();
    println!("workload: {} — {}", w.name, w.description);

    // Pick a mid-run load to page-fault on.
    let trace = w.golden_trace()?;
    let loads = fault_points(&trace, FaultKind::PageFault);
    let fault_seq = loads[loads.len() / 2];
    println!(
        "injecting a page fault on dynamic instruction {fault_seq} (of {})",
        trace.len()
    );

    let check = PrecisionCheck::new(15, Bypass::Full);
    let report = check.run(&w.program, &w.memory, fault_seq)?;
    println!("interrupt taken at cycle {}", report.interrupt_cycle);
    println!(
        "  recovered registers match golden boundary: {}",
        report.state_precise
    );
    println!(
        "  recovered memory   match golden boundary: {}",
        report.memory_precise
    );
    println!(
        "  recovered pc points at faulting instruction: {}",
        report.pc_precise
    );
    println!(
        "  resumed run reaches the golden final state: {}",
        report.resume_exact
    );
    assert!(report.all_precise());

    println!();
    println!("The same machine *without* the in-order commit constraint (the RSTU):");
    let rstu = Ruu::tagged(MachineConfig::paper(), WindowKind::Merged { entries: 8 });
    let e = imprecision::demonstrate(&rstu)?;
    println!(
        "  at the moment a young store executed, the machine state matched a \
         program-order boundary: {}",
        !e.is_imprecise()
    );
    println!(
        "  boundaries checked: {:?} — no true entries means no recoverable state \
         exists (imprecise, paper §1/§4)",
        e.boundary_matches
    );
    assert!(e.is_imprecise());
    Ok(())
}
