//! Per-cycle pipeline observability and the issue-side tally.
//!
//! Every issue-mechanism simulator exposes its canonical pipeline events
//! through the [`PipelineObserver`] trait: an observer is handed to
//! `IssueSimulator::run_observed` (in `ruu-issue`) and receives one
//! callback per event as the simulated machine advances. The hooks mirror
//! the paper's cycle accounting: in any cycle the decode/issue stage either
//! issues an instruction or stalls for exactly one [`StallReason`], so
//!
//! ```text
//! cycles == issue_cycles + Σ stall_cycles
//! ```
//!
//! [`StallHistogram`] is the tally of those events. Each core keeps one
//! in its `RunStats` and checks this identity on it (and the flush
//! identity for mispredictions) before every run returns, so a broken
//! run is an error, not a wrong number. Attached as an observer, a
//! second histogram checks the event stream itself. The Chrome-trace
//! observer lives in `ruu-engine`, next to the JSON writer it uses.
//!
//! All hooks have no-op defaults, so an observer implements only what it
//! needs, and the null observer used by the unobserved entry points costs
//! nothing but virtual dispatch.

use std::fmt;

use ruu_isa::FuClass;

use crate::stats::StallReason;

/// Receiver for the canonical pipeline events of one simulation run.
///
/// Cycle numbers are nondecreasing across calls. `seq` is the dynamic
/// instruction sequence number as counted by the emitting simulator
/// (speculative machines number squashed instructions too).
pub trait PipelineObserver {
    /// An instruction was presented to the decode/issue stage this cycle.
    /// Fires at most once per cycle (one instruction decoded per cycle).
    fn fetch(&mut self, _cycle: u64, _pc: u32) {}

    /// The decode/issue stage accepted an instruction (into the window,
    /// or straight to a functional unit in the in-order machines).
    fn issue(&mut self, _cycle: u64, _seq: u64) {}

    /// An instruction left the window for functional unit `fu`; its result
    /// appears on the result bus at `complete_at`.
    fn dispatch(&mut self, _cycle: u64, _seq: u64, _fu: FuClass, _complete_at: u64) {}

    /// A functional-unit result came back over the result bus.
    fn complete(&mut self, _cycle: u64, _seq: u64) {}

    /// An instruction retired its result to the architectural state.
    fn commit(&mut self, _cycle: u64, _seq: u64) {}

    /// Speculative state was squashed (mispredict repair); `squashed` is
    /// the number of in-flight window entries discarded.
    fn flush(&mut self, _cycle: u64, _squashed: u64) {}

    /// The decode/issue stage could not issue this cycle.
    fn stall(&mut self, _cycle: u64, _reason: StallReason) {}

    /// A load consulted a finite data cache (`DCacheConfig::Cache`): the
    /// canonical word address, whether the line was resident, and the
    /// cycles until the data arrives. Never fires under
    /// `DCacheConfig::Perfect`, keeping the perfect machine's event
    /// stream identical to the pre-cache simulators.
    fn mem_access(&mut self, _cycle: u64, _addr: u64, _hit: bool, _latency: u64) {}

    /// A simulated cycle ended with `occupancy` instructions in the
    /// window (in-flight count for the windowless in-order machines).
    /// Fires exactly once per simulated cycle.
    fn cycle_end(&mut self, _cycle: u64, _occupancy: u32) {}
}

/// Observer that ignores every event; used by the unobserved
/// `IssueSimulator::run` entry point.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl PipelineObserver for NullObserver {}

/// Report of a run whose tally breaks an accounting identity: the cycle
/// identity `cycles == issue_cycles + Σ stall_cycles` (with one
/// `cycle_end` per cycle), or the flush identity
/// `MispredictRepair stalls == mispredicted × (mispredict_penalty + 1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccountingViolation {
    /// Total cycles the run reported.
    pub cycles: u64,
    /// Issue events tallied.
    pub issue_cycles: u64,
    /// Stall events tallied, per reason (indexed like
    /// [`StallReason::ALL`]).
    pub stall_cycles: [u64; StallReason::ALL.len()],
    /// `cycle_end` events tallied (should equal `cycles`).
    pub cycles_seen: u64,
    /// Mispredicted branches the run reported (zero when only the cycle
    /// identity was checked).
    pub mispredicted: u64,
    /// `MispredictRepair` stalls those mispredictions imply (the tallied
    /// count itself when only the cycle identity was checked).
    pub expected_repair_stalls: u64,
}

impl AccountingViolation {
    /// Total tallied stall events across all reasons.
    #[must_use]
    pub fn total_stalls(&self) -> u64 {
        self.stall_cycles.iter().sum()
    }

    /// Tallied `MispredictRepair` stalls.
    #[must_use]
    pub fn repair_stalls(&self) -> u64 {
        self.stall_cycles[StallReason::MispredictRepair.idx()]
    }
}

impl fmt::Display for AccountingViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle accounting violated: cycles={} vs issue_cycles={} + stalls={} = {} \
             ({} cycle_end events;",
            self.cycles,
            self.issue_cycles,
            self.total_stalls(),
            self.issue_cycles + self.total_stalls(),
            self.cycles_seen,
        )?;
        for r in StallReason::ALL {
            let n = self.stall_cycles[r.idx()];
            if n > 0 {
                write!(f, " {r}={n}")?;
            }
        }
        write!(f, ")")?;
        if self.repair_stalls() != self.expected_repair_stalls {
            write!(
                f,
                "; {} mispredictions imply {} mispredict-repair stalls",
                self.mispredicted, self.expected_repair_stalls
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for AccountingViolation {}

/// The tally of a run's decode/issue stage: issue cycles, stall cycles
/// per [`StallReason`], `cycle_end` events, and window occupancy.
///
/// Every core keeps one in its [`RunStats`](crate::RunStats), fed once
/// per event, and checks it with [`RunStats::verify`](crate::RunStats::verify)
/// before returning. Attached as an observer, a second histogram tallies
/// the event stream on its own, which [`StallHistogram::verify`] checks.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct StallHistogram {
    issue_cycles: u64,
    stall_cycles: [u64; StallReason::ALL.len()],
    cycles: u64,
    occupancy_sum: u64,
    occupancy_peak: u32,
}

impl StallHistogram {
    /// Issue cycles observed.
    #[must_use]
    pub fn issue_cycles(&self) -> u64 {
        self.issue_cycles
    }

    /// Total cycles observed.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Stall cycles attributed to `reason`.
    #[must_use]
    pub fn stalls(&self, reason: StallReason) -> u64 {
        self.stall_cycles[reason.idx()]
    }

    /// Total stall cycles across all reasons.
    #[must_use]
    pub fn total_stalls(&self) -> u64 {
        self.stall_cycles.iter().sum()
    }

    /// Mean window occupancy over the observed cycles (`None` for an
    /// empty run).
    #[must_use]
    pub fn mean_occupancy(&self) -> Option<f64> {
        if self.cycles == 0 {
            None
        } else {
            Some(self.occupancy_sum as f64 / self.cycles as f64)
        }
    }

    /// Peak window occupancy observed.
    #[must_use]
    pub fn peak_occupancy(&self) -> u32 {
        self.occupancy_peak
    }

    /// Accumulates another histogram into this one (suite totals).
    pub fn absorb(&mut self, other: &StallHistogram) {
        self.issue_cycles += other.issue_cycles;
        self.cycles += other.cycles;
        self.occupancy_sum += other.occupancy_sum;
        self.occupancy_peak = self.occupancy_peak.max(other.occupancy_peak);
        for (into, from) in self.stall_cycles.iter_mut().zip(other.stall_cycles) {
            *into += from;
        }
    }

    /// `(reason, cycles)` rows for the nonzero stall reasons, in
    /// [`StallReason::ALL`] order.
    #[must_use]
    pub fn rows(&self) -> Vec<(StallReason, u64)> {
        StallReason::ALL
            .into_iter()
            .filter_map(|r| {
                let n = self.stalls(r);
                (n > 0).then_some((r, n))
            })
            .collect()
    }

    /// Checks the cycle identity against a run's final cycle count: the
    /// attributed events must sum to `cycles`, and exactly one
    /// `cycle_end` must have been seen per cycle (catching simulators
    /// that drop or double-count cycles).
    ///
    /// # Errors
    /// The structured [`AccountingViolation`] report (boxed: it carries
    /// every per-reason count).
    pub fn verify(&self, cycles: u64) -> Result<(), Box<AccountingViolation>> {
        self.check(cycles, None)
    }

    /// [`StallHistogram::verify`], plus, given `(mispredicted,
    /// mispredict_penalty)`, the flush identity: each misprediction
    /// stalls fetch for exactly its redirect window of `penalty + 1`
    /// [`StallReason::MispredictRepair`] cycles.
    pub(crate) fn check(
        &self,
        cycles: u64,
        repairs: Option<(u64, u64)>,
    ) -> Result<(), Box<AccountingViolation>> {
        let repair_stalls = self.stalls(StallReason::MispredictRepair);
        let expected_repair_stalls = repairs.map_or(repair_stalls, |(mispredicted, penalty)| {
            mispredicted * (penalty + 1)
        });
        let balanced = self.issue_cycles + self.total_stalls() == cycles && self.cycles == cycles;
        if balanced && repair_stalls == expected_repair_stalls {
            Ok(())
        } else {
            Err(Box::new(AccountingViolation {
                cycles,
                issue_cycles: self.issue_cycles,
                stall_cycles: self.stall_cycles,
                cycles_seen: self.cycles,
                mispredicted: repairs.map_or(0, |(mispredicted, _)| mispredicted),
                expected_repair_stalls,
            }))
        }
    }
}

impl PipelineObserver for StallHistogram {
    fn issue(&mut self, _cycle: u64, _seq: u64) {
        self.issue_cycles += 1;
    }
    fn stall(&mut self, _cycle: u64, reason: StallReason) {
        self.stall_cycles[reason.idx()] += 1;
    }
    fn cycle_end(&mut self, _cycle: u64, occupancy: u32) {
        self.cycles += 1;
        self.occupancy_sum += u64::from(occupancy);
        self.occupancy_peak = self.occupancy_peak.max(occupancy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RunStats;

    fn drive(obs: &mut dyn PipelineObserver) {
        // Cycle 0: issue an instruction that occupies the scalar adder.
        obs.fetch(0, 0);
        obs.issue(0, 0);
        obs.dispatch(0, 0, FuClass::ScalarAdd, 3);
        obs.cycle_end(0, 1);
        // Cycle 1: stall on the busy destination.
        obs.stall(1, StallReason::OperandsNotReady);
        obs.cycle_end(1, 1);
        // Cycle 2: drain.
        obs.complete(2, 0);
        obs.commit(2, 0);
        obs.stall(2, StallReason::Drained);
        obs.cycle_end(2, 0);
    }

    /// A run's stats with `tally` as its tally.
    fn stats(tally: StallHistogram, mispredicted_branches: u64) -> RunStats {
        RunStats {
            tally,
            mispredicted_branches,
            ..RunStats::default()
        }
    }

    #[test]
    fn accountant_accepts_balanced_runs() {
        let mut h = StallHistogram::default();
        drive(&mut h);
        assert_eq!(h.issue_cycles(), 1);
        assert_eq!(h.total_stalls(), 2);
        assert!(h.verify(3).is_ok());
        assert!(stats(h, 0).verify(3, 3).is_ok());
    }

    #[test]
    fn accountant_reports_unattributed_cycles() {
        let mut h = StallHistogram::default();
        drive(&mut h);
        let v = stats(h.clone(), 0)
            .verify(4, 3)
            .expect_err("one cycle is unattributed");
        assert_eq!(v.cycles, 4);
        assert_eq!(v.issue_cycles + v.total_stalls(), 3);
        assert!(v.to_string().contains("cycle accounting violated"));
        // Attributing the cycle is not enough: it also needs its
        // `cycle_end`.
        h.stall(3, StallReason::Drained);
        let v = stats(h.clone(), 0)
            .verify(4, 3)
            .expect_err("cycle 3 never ended");
        assert_eq!(v.issue_cycles + v.total_stalls(), 4);
        assert_eq!(v.cycles_seen, 3);
        h.cycle_end(3, 0);
        assert!(stats(h, 0).verify(4, 3).is_ok());
    }

    #[test]
    fn histogram_collects_rows_and_occupancy() {
        let mut h = StallHistogram::default();
        drive(&mut h);
        assert_eq!(h.issue_cycles(), 1);
        assert_eq!(h.cycles(), 3);
        assert_eq!(h.stalls(StallReason::Drained), 1);
        assert_eq!(
            h.rows(),
            vec![
                (StallReason::OperandsNotReady, 1),
                (StallReason::Drained, 1)
            ]
        );
        let mean = h.mean_occupancy().expect("nonzero cycles");
        assert!((mean - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(h.peak_occupancy(), 1);

        let mut total = StallHistogram::default();
        total.absorb(&h);
        total.absorb(&h);
        assert_eq!(total.cycles(), 6);
        assert_eq!(total.total_stalls(), 4);
        assert_eq!(total.peak_occupancy(), 1);
    }

    #[test]
    fn flush_accountant_ties_flushes_to_mispredictions() {
        // One mispredict with penalty 3: 4 repair stalls, then an
        // unrelated dead cycle.
        let mut h = StallHistogram::default();
        for c in 0..4 {
            h.stall(c, StallReason::MispredictRepair);
            h.cycle_end(c, 0);
        }
        h.stall(4, StallReason::DeadCycle);
        h.cycle_end(4, 0);
        assert!(h.verify(5).is_ok(), "the cycle identity alone holds");
        assert!(stats(h.clone(), 1).verify(5, 3).is_ok());
        // Repair stalls without a recorded misprediction are a violation.
        let v = stats(h.clone(), 0)
            .verify(5, 3)
            .expect_err("unattributed repair");
        assert_eq!((v.repair_stalls(), v.expected_repair_stalls), (4, 0));
        assert!(v.to_string().contains("imply 0 mispredict-repair stalls"));
        // So is a repair window of the wrong width.
        let v = stats(h, 1).verify(5, 2).expect_err("window of 3, not 4");
        assert_eq!((v.repair_stalls(), v.expected_repair_stalls), (4, 3));
    }
}
