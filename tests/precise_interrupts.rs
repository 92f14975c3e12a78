//! End-to-end precise-interrupt properties (the paper's central claim):
//! at *any* faultable dynamic instruction of *any* program, the RUU
//! recovers a state equal to the golden program-order boundary and can
//! resume to the exact golden final state — while the out-of-order-commit
//! mechanisms demonstrably cannot.

use proptest::prelude::*;

use ruu::exec::{golden_state_at, ArchState, Memory, Trace};
use ruu::isa::{Asm, Program, Reg};
use ruu::issue::{Bypass, IssueSimulator, RunOutcome, Ruu, WindowKind};
use ruu::precise::{fault_points, imprecision, FaultKind, PrecisionCheck};
use ruu::predict::PredictorConfig;
use ruu::sim::{MachineConfig, NullObserver, PipelineObserver};
use ruu::workloads::livermore;
use ruu::workloads::synth::{random_program, SynthConfig};

#[test]
fn page_faults_are_precise_across_the_suite() {
    // A few loads per loop, spread across the run.
    for w in livermore::all() {
        let trace = w.golden_trace().unwrap();
        let loads = fault_points(&trace, FaultKind::PageFault);
        assert!(!loads.is_empty(), "{} has loads", w.name);
        let picks = [loads[0], loads[loads.len() / 2], *loads.last().unwrap()];
        let check = PrecisionCheck::new(12, Bypass::Full);
        for &seq in &picks {
            let r = check
                .run(&w.program, &w.memory, seq)
                .unwrap_or_else(|e| panic!("{} at {seq}: {e}", w.name));
            assert!(r.all_precise(), "{} at {seq}: {r:?}", w.name);
        }
    }
}

#[test]
fn arithmetic_faults_are_precise() {
    let w = livermore::lll7();
    let trace = w.golden_trace().unwrap();
    let flops = fault_points(&trace, FaultKind::Arithmetic);
    let check = PrecisionCheck::new(20, Bypass::LimitedA);
    for &seq in &[flops[1], flops[flops.len() / 3]] {
        let r = check.run(&w.program, &w.memory, seq).unwrap();
        assert!(r.all_precise(), "at {seq}: {r:?}");
    }
}

/// A loop whose branch direction alternates and resolves slowly (its
/// condition is loaded), so a predictor keeps mispredicting.
fn mispredicting_program() -> (Program, Memory) {
    let mut a = Asm::new("alternating");
    let top = a.new_label();
    let skip = a.new_label();
    a.a_imm(Reg::a(7), 20); // loop count in A7
    a.a_imm(Reg::a(1), 0);
    a.bind(top);
    a.ld_a(Reg::a(0), Reg::a(1), 500); // alternating 0/1, slow
    a.br_az(skip);
    a.s_imm(Reg::s(1), 7);
    a.st_s(Reg::s(1), Reg::a(1), 300);
    a.bind(skip);
    a.a_add_imm(Reg::a(1), Reg::a(1), 1);
    a.a_sub_imm(Reg::a(7), Reg::a(7), 1);
    a.a_add_imm(Reg::a(0), Reg::a(7), 0);
    a.br_an(top);
    a.halt();
    let mut mem = Memory::new(1 << 12);
    for i in 0..20 {
        mem.write(500 + i, i % 2);
    }
    (a.assemble().expect("assembles"), mem)
}

/// Records the cycle of the first misprediction squash.
#[derive(Default)]
struct FirstFlush(Option<u64>);

impl PipelineObserver for FirstFlush {
    fn flush(&mut self, cycle: u64, _squashed: u64) {
        self.0.get_or_insert(cycle);
    }
}

#[test]
fn interrupts_are_precise_under_speculation() {
    // Under prediction, wrong-path instructions take sequence numbers too:
    // the fault index names an *architectural* instruction, so a fault
    // taken after a squash must still land on golden instruction `k`.
    let (program, mem) = mispredicting_program();
    let golden = Trace::capture(&program, mem.clone(), 100_000).unwrap();
    let sim = Ruu::new(MachineConfig::paper(), 12, Bypass::Full)
        .with_predictor(PredictorConfig::default());
    let mut first = FirstFlush::default();
    sim.run_observed(ArchState::new(), mem.clone(), &program, 100_000, &mut first)
        .unwrap();
    let first_flush = first.0.expect("the predictor mispredicts");

    let points = fault_points(&golden, FaultKind::Any);
    let late = &points[points.len() / 2..];
    for &k in [late[0], late[late.len() / 2], late[late.len() - 1]].iter() {
        let RunOutcome::Interrupted(frame) = sim
            .run_with_exception(&program, mem.clone(), 100_000, k)
            .unwrap()
        else {
            panic!("fault {k} was never taken");
        };
        assert!(frame.cycle > first_flush, "fault {k} precedes every squash");
        assert_eq!(frame.committed, k);
        let (state, memory) = golden_state_at(&program, mem.clone(), k).unwrap();
        assert_eq!(frame.state, state, "fault {k}: registers and pc");
        assert_eq!(frame.memory, memory, "fault {k}: memory");
        let resumed = sim
            .run_observed(
                frame.state,
                frame.memory,
                &program,
                100_000,
                &mut NullObserver,
            )
            .unwrap();
        assert_eq!(&resumed.state, golden.final_state(), "fault {k}: resumed");
        assert_eq!(&resumed.memory, golden.final_memory(), "fault {k}: resumed");
    }
}

#[test]
fn every_imprecise_mechanism_is_caught() {
    let cfg = MachineConfig::paper();
    for kind in [
        WindowKind::Distributed { rs_per_fu: 3 },
        WindowKind::TagUnitDistributed {
            rs_per_fu: 3,
            tags: 10,
        },
        WindowKind::Pooled { rs: 6, tags: 10 },
        WindowKind::Merged { entries: 8 },
    ] {
        let e = imprecision::demonstrate(&cfg, kind).unwrap();
        assert!(e.is_imprecise(), "{kind:?} should be imprecise");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The precise-interrupt property on random programs at random fault
    /// points, across window sizes and bypass policies.
    #[test]
    fn random_fault_points_are_precise(
        seed in 0u64..10_000,
        entries in 2usize..20,
        pick in 0usize..1000,
        bypass_sel in 0usize..3,
    ) {
        let (program, mem) = random_program(seed, &SynthConfig::default());
        let trace = Trace::capture(&program, mem.clone(), 500_000).expect("golden runs");
        let points = fault_points(&trace, FaultKind::Any);
        prop_assume!(!points.is_empty());
        let seq = points[pick % points.len()];
        let bypass = [Bypass::Full, Bypass::None, Bypass::LimitedA][bypass_sel];
        let mut check = PrecisionCheck::new(entries, bypass);
        check.inst_limit = 500_000;
        let r = check.run(&program, &mem, seq)
            .unwrap_or_else(|e| panic!("seed {seed}, fault {seq}: {e}"));
        prop_assert!(r.all_precise(), "seed {} fault {}: {:?}", seed, seq, r);
    }
}
