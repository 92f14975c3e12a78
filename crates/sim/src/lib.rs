//! # ruu-sim-core — timing-simulation substrate
//!
//! Shared building blocks for the cycle-level issue-mechanism simulators in
//! `ruu-issue`:
//!
//! * [`MachineConfig`] — latencies, branch penalties, bus widths and other
//!   machine parameters of the model architecture (paper §2, Figure 1);
//! * [`SlotReservation`] — future-cycle slot booking, used for the single
//!   result bus (reserved at dispatch time, paper §3.1/§5.1);
//! * [`FuPool`] — the fully pipelined functional units, each able to accept
//!   one operation per cycle;
//! * [`LoadRegUnit`] — the *load registers* of paper §3.2.1.2: memory
//!   disambiguation by exact address match, with store→load and load→load
//!   data forwarding;
//! * [`DCache`] / [`DCacheConfig`] — the data-cache timing model that
//!   retires the §2.2 perfect-memory idealization: set-associative LRU
//!   lookup with hit/miss latencies and bounded outstanding misses, with
//!   a bit-identical `Perfect` default;
//! * [`RunStats`] / [`RunResult`] — the counters common to every
//!   simulator. The issue side is one [`StallHistogram`] tally (issue
//!   cycles, stall cycles per [`StallReason`], occupancy), which every
//!   core checks with [`RunStats::verify`] before returning: every cycle
//!   issues or stalls for one reason, and every misprediction costs one
//!   repair window;
//! * [`PipelineObserver`] — per-cycle pipeline event hooks (fetch, issue,
//!   dispatch, complete, commit, flush, stall, cycle end), with
//!   [`NullObserver`] and [`StallHistogram`] as implementations.

mod bus;
mod cache;
mod config;
mod fu;
mod loadregs;
mod observe;
mod stats;

pub use bus::SlotReservation;
pub use cache::{CachePlan, CacheStats, DCache, DCacheConfig, DCacheError};
pub use config::MachineConfig;
pub use fu::FuPool;
pub use loadregs::{LoadRegUnit, LrOutcome, MemOpKind, OpId};
pub use observe::{AccountingViolation, NullObserver, PipelineObserver, StallHistogram};
pub use stats::{RunResult, RunStats, StallReason};
