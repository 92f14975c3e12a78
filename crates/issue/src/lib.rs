//! # ruu-issue — the instruction-issue mechanisms of the RUU paper
//!
//! Cycle-level, execution-driven simulators of every issue mechanism the
//! paper discusses. Each [`Mechanism`] variant builds one of three cores;
//! the variants differ only in the distinctions the paper draws:
//!
//! | Mechanism | Paper | Core |
//! |---|---|---|
//! | `Simple`: in-order, blocking issue | §2.2, Table 1 | [`InOrder`], no scheme (imprecise) |
//! | `Tomasulo`: distributed reservation stations | §3.1 | [`TaggedSim`], [`WindowKind::Distributed`] |
//! | `TagUnitDistributed`: Tag Unit + distributed stations | §3.2.1 | [`TaggedSim`], [`WindowKind::TagUnitDistributed`] |
//! | `RsPool`: Tag Unit + merged station pool | §3.2.2 | [`TaggedSim`], [`WindowKind::Pooled`] |
//! | `Rstu`: the RSTU | §3.2.3, Tables 2–3 | [`TaggedSim`], [`WindowKind::Merged`] |
//! | `InOrderPrecise`: Smith & Pleszkun buffers | §4 | [`InOrder`] with a [`PreciseScheme`] |
//! | `Ruu`: the RUU, branches park in decode | §5–6, Tables 4–6 | [`Ruu`] |
//! | `SpecRuu`: the RUU plus branch prediction | §7 | [`Ruu::with_predictor`] |
//!
//! All simulators share the [`ruu_sim_core::MachineConfig`] machine model,
//! run behind the one-method [`IssueSimulator`] trait, and compute real
//! operand values in their reservation stations (execution-driven), so
//! each one's final architectural state is checked against the golden
//! interpreter.

use std::fmt;

pub mod common;
pub mod in_order;
pub mod mechanism;
pub mod ruu;
pub mod simulator;
pub mod tag_unit;
pub mod tagged;

pub use common::{Broadcasts, FetchSlot, Frontend, Operand, PendingBranch, Tag};
pub use in_order::{InOrder, PreciseScheme};
pub use mechanism::Mechanism;
pub use ruu::{Bypass, InterruptFrame, RunOutcome, Ruu};
pub use simulator::IssueSimulator;
pub use tag_unit::{TagRetirement, TagUnitModel, TuEntry};
pub use tagged::{TaggedSim, WindowKind};

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
