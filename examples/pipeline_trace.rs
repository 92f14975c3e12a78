//! A software logic analyser on the RUU's ports: issue, dispatch,
//! result-bus and commit activity, cycle by cycle, rendered as a
//! pipeline diagram.
//!
//! ```sh
//! cargo run --release --example pipeline_trace
//! ```

use ruu::exec::{ArchState, Memory};
use ruu::isa::{Asm, FuClass, Reg};
use ruu::issue::{Bypass, IssueSimulator, Ruu};
use ruu::sim::{MachineConfig, PipelineObserver};

/// One cycle of activity on the RUU's ports (dynamic sequence numbers).
#[derive(Debug, Default)]
struct Row {
    occupancy: u32,
    issued: Vec<u64>,
    dispatched: Vec<u64>,
    finished: Vec<u64>,
    committed: Vec<u64>,
}

/// A pipeline observer that logs every cycle of a run.
#[derive(Debug, Default)]
struct PortLog {
    rows: Vec<Row>,
}

impl PortLog {
    fn row(&mut self, cycle: u64) -> &mut Row {
        let i = usize::try_from(cycle).expect("cycle fits in usize");
        if self.rows.len() <= i {
            self.rows.resize_with(i + 1, Row::default);
        }
        &mut self.rows[i]
    }
}

impl PipelineObserver for PortLog {
    fn issue(&mut self, cycle: u64, seq: u64) {
        self.row(cycle).issued.push(seq);
    }
    fn dispatch(&mut self, cycle: u64, seq: u64, _fu: FuClass, _complete_at: u64) {
        self.row(cycle).dispatched.push(seq);
    }
    fn complete(&mut self, cycle: u64, seq: u64) {
        self.row(cycle).finished.push(seq);
    }
    fn commit(&mut self, cycle: u64, seq: u64) {
        self.row(cycle).committed.push(seq);
    }
    fn cycle_end(&mut self, cycle: u64, occupancy: u32) {
        self.row(cycle).occupancy = occupancy;
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A short block with a long-latency reciprocal, dependent work, and
    // independent work that overtakes it inside the RUU.
    let mut a = Asm::new("demo");
    a.a_imm(Reg::a(1), 64); // 0
    a.ld_s(Reg::s(1), Reg::a(1), 0); // 1: load (11 cycles)
    a.f_recip(Reg::s(2), Reg::s(1)); // 2: recip (14 cycles), needs the load
    a.f_mul(Reg::s(3), Reg::s(2), Reg::s(1)); // 3: needs the recip
    a.a_imm(Reg::a(2), 7); // 4: independent
    a.a_add(Reg::a(3), Reg::a(2), Reg::a(2)); // 5: independent
    a.st_s(Reg::s(3), Reg::a(1), 1); // 6: store the result
    a.halt();
    let program = a.assemble()?;
    println!("{program}");

    let mut mem = Memory::new(1 << 8);
    mem.write_f64(64, 4.0);

    let ruu = Ruu::new(MachineConfig::paper(), 8, Bypass::Full);
    let mut log = PortLog::default();
    let result = ruu.run_observed(ArchState::new(), mem, &program, 10_000, &mut log)?;

    println!(
        "{} instructions in {} cycles (IPC {:.3})\n",
        result.instructions,
        result.cycles,
        result.issue_rate()
    );
    println!("cycle | occ | issue | dispatch   | result bus | commit");
    println!("------+-----+-------+------------+------------+-----------");
    let fmt = |v: &[u64]| {
        v.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",")
    };
    for (cycle, c) in log.rows.iter().enumerate() {
        println!(
            "{cycle:>5} | {:>3} | {:>5} | {:>10} | {:>10} | {:>9}",
            c.occupancy,
            fmt(&c.issued),
            fmt(&c.dispatched),
            fmt(&c.finished),
            fmt(&c.committed),
        );
    }
    println!();
    println!(
        "Read it like the paper's Figure 5: instructions enter in order \
         (issue), leave for the functional units out of order (dispatch — \
         watch 4 and 5 overtake 2 and 3), broadcast on the single result \
         bus, and commit strictly in order — the precise-interrupt \
         guarantee."
    );
    Ok(())
}
