//! # ruu-issue — the instruction-issue mechanisms of the RUU paper
//!
//! Cycle-level, execution-driven simulators of every issue mechanism the
//! paper discusses. Each [`Mechanism`] variant builds one of two cores,
//! in-order issue ([`InOrder`]) or out-of-order issue ([`Ruu`]); within a
//! core the variants differ only in the distinctions the paper draws,
//! such as where results wait:
//!
//! | Mechanism | Paper | Core |
//! |---|---|---|
//! | `Simple`: in-order, blocking issue | §2.2, Table 1 | [`InOrder`], no scheme (imprecise) |
//! | `InOrderPrecise`: Smith & Pleszkun buffers | §4 | [`InOrder`] with a [`PreciseScheme`] |
//! | `Tomasulo`: distributed reservation stations | §3.1 | [`Ruu::tagged`], [`WindowKind::Distributed`] |
//! | `TagUnitDistributed`: Tag Unit + distributed stations | §3.2.1 | [`Ruu::tagged`], [`WindowKind::TagUnitDistributed`] |
//! | `RsPool`: Tag Unit + merged station pool | §3.2.2 | [`Ruu::tagged`], [`WindowKind::Pooled`] |
//! | `Rstu`: the RSTU | §3.2.3, Tables 2–3 | [`Ruu::tagged`], [`WindowKind::Merged`] |
//! | `Ruu`: the RUU, branches park in decode | §5–6, Tables 4–6 | [`Ruu::new`] |
//! | `SpecRuu`: the RUU plus branch prediction | §7 | [`Ruu::with_predictor`] |
//!
//! [`Ruu::tagged`] machines write results to the register file as they
//! complete (imprecise); [`Ruu::new`] machines hold them in the window
//! until in-order commit (precise).
//!
//! All simulators share the [`ruu_sim_core::MachineConfig`] machine model,
//! run behind the one-method [`IssueSimulator`] trait, and compute real
//! operand values in their reservation stations (execution-driven), so
//! each one's final architectural state is checked against the golden
//! interpreter.

use std::fmt;

mod common;
pub mod in_order;
pub mod mechanism;
pub mod ruu;
pub mod simulator;
pub mod tag_unit;

pub use in_order::{InOrder, PreciseScheme};
pub use mechanism::Mechanism;
pub use ruu::{Bypass, InterruptFrame, RunOutcome, Ruu, WindowKind};
pub use simulator::IssueSimulator;
pub use tag_unit::{TagRetirement, TagUnitModel, TuEntry};

/// Errors from the timing simulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// More than `limit` dynamic instructions issued (infinite-loop
    /// guard).
    InstLimit {
        /// The limit that was exceeded.
        limit: u64,
    },
    /// The simulator made no forward progress for an implausible number of
    /// cycles (internal deadlock guard; indicates a simulator bug).
    Deadlock {
        /// Cycle at which progress stopped.
        cycle: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InstLimit { limit } => {
                write!(f, "dynamic instruction limit {limit} exceeded")
            }
            SimError::Deadlock { cycle } => {
                write!(f, "no forward progress near cycle {cycle} (simulator bug)")
            }
        }
    }
}

impl std::error::Error for SimError {}
