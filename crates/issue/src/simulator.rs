//! The [`IssueSimulator`] trait: one object-safe, `Send` interface over
//! every cycle-level issue-mechanism simulator.
//!
//! The trait turns "a configured simulator" into a first-class value:
//! [`crate::Mechanism::build`] returns a `Box<dyn IssueSimulator>` that
//! batch engines (`ruu-engine`) can hand to worker threads, hold in job
//! tables, and drive uniformly — without caring which mechanism is behind
//! it.
//!
//! Object safety is deliberate: the parallel sweep engine stores
//! heterogeneous simulators in one grid. `Send` is part of the contract
//! because jobs migrate to `std::thread::scope` workers.

use ruu_exec::{ArchState, Memory};
use ruu_isa::Program;
use ruu_sim_core::{NullObserver, PipelineObserver, RunResult};

use crate::SimError;

/// A configured, runnable issue-mechanism simulator.
///
/// Implementations are cheap to construct (configuration only — no
/// per-run state), so a fresh one can be built per job. All per-run
/// state lives inside `run_observed`, which is why one simulator value can
/// serve many sequential runs and why `&self` suffices.
pub trait IssueSimulator: Send {
    /// Runs `program` from an explicit architectural state (fetch starts
    /// at `state.pc`, e.g. a restart after a precise interrupt),
    /// reporting every pipeline event to `obs`.
    ///
    /// # Errors
    /// [`SimError::InstLimit`] if more than `limit` dynamic instructions
    /// issue; [`SimError::Deadlock`] on internal lack of progress.
    fn run_observed(
        &self,
        state: ArchState,
        mem: Memory,
        program: &Program,
        limit: u64,
        obs: &mut dyn PipelineObserver,
    ) -> Result<RunResult, SimError>;

    /// Runs `program` to completion from zeroed registers, unobserved.
    ///
    /// # Errors
    /// As for [`IssueSimulator::run_observed`].
    fn run(&self, program: &Program, mem: Memory, limit: u64) -> Result<RunResult, SimError> {
        self.run_observed(ArchState::new(), mem, program, limit, &mut NullObserver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bypass, InOrder, Mechanism, PreciseScheme, Ruu, WindowKind};
    use ruu_isa::{Asm, Reg};
    use ruu_predict::PredictorConfig;
    use ruu_sim_core::MachineConfig;

    fn tiny_program() -> Program {
        let mut a = Asm::new("t");
        a.a_imm(Reg::a(1), 7);
        a.a_add(Reg::a(2), Reg::a(1), Reg::a(1));
        a.halt();
        a.assemble().unwrap()
    }

    fn one_of_each(cfg: &MachineConfig) -> Vec<Box<dyn IssueSimulator>> {
        vec![
            Box::new(InOrder::new(cfg.clone())),
            Box::new(Ruu::tagged(cfg.clone(), WindowKind::Merged { entries: 8 })),
            Box::new(Ruu::new(cfg.clone(), 8, Bypass::Full)),
            Box::new(InOrder::new(cfg.clone()).with_scheme(PreciseScheme::FutureFile, 8)),
            Box::new(
                Ruu::new(cfg.clone(), 8, Bypass::Full).with_predictor(PredictorConfig::default()),
            ),
        ]
    }

    #[test]
    fn trait_objects_are_send() {
        fn assert_send<T: Send + ?Sized>() {}
        assert_send::<dyn IssueSimulator>();
        assert_send::<Box<dyn IssueSimulator>>();
    }

    #[test]
    fn boxed_simulators_run_uniformly() {
        let p = tiny_program();
        for sim in one_of_each(&MachineConfig::paper()) {
            let r = sim.run(&p, Memory::new(1 << 10), 1_000).unwrap();
            assert_eq!(r.state.reg(Reg::a(2)), 14);
        }
    }

    #[test]
    fn run_observed_satisfies_cycle_accounting() {
        use ruu_sim_core::CycleAccountant;
        let p = tiny_program();
        for sim in one_of_each(&MachineConfig::paper()) {
            let mut acct = CycleAccountant::default();
            let r = sim
                .run_observed(ArchState::new(), Memory::new(1 << 10), &p, 1_000, &mut acct)
                .unwrap();
            acct.verify(r.cycles).unwrap();
        }
    }

    #[test]
    fn default_run_matches_explicit_run_observed() {
        let cfg = MachineConfig::paper();
        let p = tiny_program();
        for m in [
            Mechanism::Simple,
            Mechanism::Rstu { entries: 4 },
            Mechanism::Ruu {
                entries: 4,
                bypass: Bypass::Full,
            },
            Mechanism::InOrderPrecise {
                scheme: PreciseScheme::ReorderBuffer,
                entries: 4,
            },
        ] {
            let sim = m.build(&cfg);
            let a = sim.run(&p, Memory::new(1 << 10), 1_000).unwrap();
            let b = sim
                .run_observed(
                    ArchState::new(),
                    Memory::new(1 << 10),
                    &p,
                    1_000,
                    &mut NullObserver,
                )
                .unwrap();
            assert_eq!(a.cycles, b.cycles, "{m}");
            assert_eq!(a.state, b.state, "{m}");
        }
    }
}
