//! The in-order, blocking-issue machines: the paper's baseline (§2.2,
//! Table 1) and the Smith & Pleszkun precise-interrupt schemes it surveys
//! (§4; their reference \[5\]).
//!
//! A CRAY-1-style decode/issue stage issues an instruction only when (i)
//! its source registers are readable, (ii) its destination register is not
//! busy, (iii) its functional unit can accept it, and (iv) a result-bus
//! slot is free at its completion cycle. While an instruction waits,
//! everything behind it waits too — the degradation the out-of-order
//! mechanisms exist to remove.
//!
//! Without a scheme ([`InOrder::new`]) results update the register file
//! as they complete, out of program order, so the baseline has
//! *imprecise* interrupts, exactly like the CRAY-1 scalar unit it models.
//! [`InOrder::with_scheme`] adds one of the §4 result buffers:
//!
//! * [`PreciseScheme::ReorderBuffer`] — results wait in a reorder buffer
//!   and update the register file in program order. A source register
//!   cannot be read until its producer *commits*, so the buffer
//!   "aggravates data dependencies" (§4);
//! * [`PreciseScheme::ReorderBufferBypass`] — same, but issue may read a
//!   completed value out of the buffer (expensive associative search +
//!   data paths), removing the aggravation;
//! * [`PreciseScheme::HistoryBuffer`] — results go straight to the
//!   register file (as in the imprecise baseline) while old values are
//!   banked for undo; performance equals the bypassed reorder buffer at
//!   the cost of a register-file read port;
//! * [`PreciseScheme::FutureFile`] — a second, eagerly-updated register
//!   file feeds issue while the architectural file is updated in order;
//!   again the performance of the bypassed buffer, for a duplicated
//!   register file.
//!
//! All of them issue **in program order** (they fix interrupts, not
//! dependencies); the RUU's point (§5) is that one structure can do both.
//! The `section4` bench puts these machines next to the RUU.
//!
//! Because issue is in-order and blocking, the whole timing of an
//! instruction is determined at issue: completion is `issue + latency`,
//! and commit is completion for the baseline and `max(completion,
//! previous commit + 1)` with a buffer (one commit per cycle over the
//! buffer→register-file path).

use ruu_exec::{ArchState, Memory};
use ruu_isa::{semantics, FuClass, Inst, Program, NUM_REGS};
use ruu_sim_core::{
    DCache, FuPool, MachineConfig, PipelineObserver, RunResult, RunStats, SlotReservation,
    StallReason,
};

use crate::simulator::IssueSimulator;
use crate::SimError;

/// Which Smith & Pleszkun structure guarantees precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PreciseScheme {
    /// Simple reorder buffer: sources readable at producer *commit*.
    ReorderBuffer,
    /// Reorder buffer with bypass paths: sources readable at producer
    /// *completion*.
    ReorderBufferBypass,
    /// History buffer: register file updated at completion, old values
    /// banked; sources readable at completion.
    HistoryBuffer,
    /// Future file: issue reads the eagerly-updated future file; sources
    /// readable at completion.
    FutureFile,
}

impl PreciseScheme {
    /// `true` if a consumer may read its operand as soon as the producer
    /// completes (rather than commits).
    #[must_use]
    pub fn reads_at_completion(self) -> bool {
        !matches!(self, PreciseScheme::ReorderBuffer)
    }

    /// Short display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PreciseScheme::ReorderBuffer => "reorder-buffer",
            PreciseScheme::ReorderBufferBypass => "reorder-buffer+bypass",
            PreciseScheme::HistoryBuffer => "history-buffer",
            PreciseScheme::FutureFile => "future-file",
        }
    }
}

/// An in-order, blocking-issue machine: the imprecise baseline, or one of
/// the §4 strawmen the RUU improves upon.
#[derive(Debug, Clone)]
pub struct InOrder {
    config: MachineConfig,
    scheme: Option<PreciseScheme>,
    buffer_entries: usize,
}

impl InOrder {
    /// The imprecise baseline: results commit as they complete and there
    /// is no buffer to fill.
    #[must_use]
    pub fn new(config: MachineConfig) -> Self {
        InOrder {
            config,
            scheme: None,
            buffer_entries: usize::MAX,
        }
    }

    /// Adds `scheme` with `buffer_entries` reorder/history/future buffer
    /// slots.
    ///
    /// # Panics
    /// Panics if `buffer_entries` is zero.
    #[must_use]
    pub fn with_scheme(mut self, scheme: PreciseScheme, buffer_entries: usize) -> Self {
        assert!(buffer_entries > 0, "the buffer needs at least one entry");
        self.scheme = Some(scheme);
        self.buffer_entries = buffer_entries;
        self
    }
}

impl IssueSimulator for InOrder {
    fn run_observed(
        &self,
        state: ArchState,
        mem: Memory,
        program: &Program,
        limit: u64,
        obs: &mut dyn PipelineObserver,
    ) -> Result<RunResult, SimError> {
        let cfg = &self.config;
        let core = Core {
            sim: self,
            program,
            limit,
            obs,
            frontend: Frontend::new(state.pc),
            state,
            dcache: DCache::new(
                &cfg.dcache,
                cfg.fu_latency(FuClass::Memory),
                mem.len() as u64,
            ),
            mem,
            reg_ready: [0; NUM_REGS],
            fus: FuPool::new(),
            bus: SlotReservation::new(cfg.result_buses),
            stats: RunStats::default(),
            cycle: 0,
            issued: 0,
            last_commit: 0,
            inflight: Vec::new(),
        };
        core.run()
    }
}

/// The instruction-fetch frontend: tracks the program counter, the dead
/// cycles after branches, and a conditional branch parked in decode.
///
/// One instruction may enter decode/issue per cycle (paper §2.2); after a
/// branch resolves, fetch redirect costs `branch_taken_penalty` (or
/// `branch_untaken_penalty`) dead cycles.
#[derive(Debug, Clone)]
struct Frontend {
    pc: u32,
    next_fetch_cycle: u64,
    /// A conditional branch waiting in decode for its condition register
    /// (paper §6.3: it "has to wait in the decode and issue unit until
    /// the value of A0 appears on a bus").
    parked: Option<Inst>,
}

/// What the frontend offers the decode/issue stage this cycle.
#[derive(Debug, Clone, Copy)]
enum FetchSlot {
    /// A fetched instruction at this pc, ready to decode.
    Inst(u32, Inst),
    /// Dead cycle following a branch.
    Dead,
    /// This parked conditional branch is waiting for its condition.
    BranchParked(Inst),
    /// The program has halted; nothing more will be fetched.
    Halted,
}

impl Frontend {
    fn new(start: u32) -> Self {
        Frontend {
            pc: start,
            next_fetch_cycle: 0,
            parked: None,
        }
    }

    /// Current program counter (next instruction to decode).
    fn pc(&self) -> u32 {
        self.pc
    }

    /// What decode/issue sees at `cycle`.
    fn peek(&self, cycle: u64, program: &Program) -> FetchSlot {
        if let Some(inst) = self.parked {
            return FetchSlot::BranchParked(inst);
        }
        if cycle < self.next_fetch_cycle {
            return FetchSlot::Dead;
        }
        match program.get(self.pc) {
            Some(i) if i.is_halt() => FetchSlot::Halted,
            Some(i) => FetchSlot::Inst(self.pc, *i),
            None => FetchSlot::Halted, // running off the end halts; the
                                       // golden interpreter flags it as an
                                       // error so equivalence tests catch it
        }
    }

    /// Notes that decode consumed the instruction at the current pc
    /// (non-branch): advances to the next sequential instruction.
    fn advance(&mut self) {
        self.pc += 1;
    }

    /// Parks a conditional branch whose condition is not yet available.
    fn park_branch(&mut self, inst: Inst) {
        debug_assert!(self.parked.is_none(), "branch already parked");
        self.parked = Some(inst);
    }

    /// Resolves a branch at `cycle`: redirects the pc and charges the dead
    /// cycles. Clears any parked branch. Returns whether it was taken.
    fn resolve_branch(
        &mut self,
        cycle: u64,
        inst: &Inst,
        cond_value: u64,
        config: &MachineConfig,
        stats: &mut RunStats,
    ) -> bool {
        let taken = semantics::branch_taken(inst.opcode, cond_value);
        stats.branches += 1;
        let penalty = if taken {
            stats.taken_branches += 1;
            self.pc = inst.target.expect("branch has a target");
            config.branch_taken_penalty
        } else {
            self.pc += 1;
            config.branch_untaken_penalty
        };
        self.next_fetch_cycle = cycle + 1 + penalty;
        self.parked = None;
        taken
    }
}

struct Core<'a> {
    sim: &'a InOrder,
    program: &'a Program,
    limit: u64,
    obs: &'a mut dyn PipelineObserver,
    frontend: Frontend,
    state: ArchState,
    mem: Memory,
    /// Cycle at which each register's value becomes *readable* under the
    /// scheme (commit for the plain reorder buffer, completion otherwise).
    reg_ready: [u64; NUM_REGS],
    fus: FuPool,
    bus: SlotReservation,
    dcache: DCache,
    stats: RunStats,
    cycle: u64,
    issued: u64,
    last_commit: u64,
    /// (completion cycle, commit cycle, seq) of every issued instruction
    /// not yet committed, for the observer's complete/commit events; their
    /// count is the occupancy, and with a scheme, the buffer's. The
    /// completion cycle becomes `u64::MAX` once reported.
    inflight: Vec<(u64, u64, u64)>,
}

impl Core<'_> {
    fn run(mut self) -> Result<RunResult, SimError> {
        loop {
            let cycle = self.cycle;
            let obs = &mut *self.obs;
            self.inflight.retain_mut(|(complete, commit, seq)| {
                if *complete <= cycle {
                    obs.complete(cycle, *seq);
                    *complete = u64::MAX;
                }
                let done = *commit <= cycle;
                if done {
                    obs.commit(cycle, *seq);
                }
                !done
            });
            let occ = self.inflight.len() as u32;
            let slot = self.frontend.peek(cycle, self.program);
            // Once the frontend is empty, issued operations may still be
            // in the pipeline: the drain tail is attributed, not dropped,
            // so that every cycle of the final count is accounted for.
            if matches!(slot, FetchSlot::Halted) && self.inflight.is_empty() {
                break;
            }
            if let Some(reason) = self.issue_stage(slot)? {
                self.stall(reason);
            }
            self.end_cycle(occ);
            self.cycle += 1;
        }
        self.state.pc = self.frontend.pc();
        let cs = self.dcache.stats();
        self.stats.dcache_accesses = cs.accesses;
        self.stats.dcache_hits = cs.hits;
        self.stats.dcache_misses = cs.misses;
        self.stats
            .verify(self.cycle, self.sim.config.mispredict_penalty)
            .map_err(SimError::Accounting)?;
        Ok(RunResult {
            cycles: self.cycle,
            instructions: self.issued,
            state: self.state,
            memory: self.mem,
            stats: self.stats,
        })
    }

    /// Issues the next instruction and returns its sequence number. Like
    /// `stall` and `end_cycle`, it feeds the run's tally and the observer
    /// together, so each sees each event once.
    fn issued_one(&mut self) -> u64 {
        let seq = self.issued;
        self.stats.tally.issue(self.cycle, seq);
        self.obs.issue(self.cycle, seq);
        self.issued += 1;
        seq
    }

    fn stall(&mut self, reason: StallReason) {
        self.stats.tally.stall(self.cycle, reason);
        self.obs.stall(self.cycle, reason);
    }

    fn end_cycle(&mut self, occupancy: u32) {
        self.stats.tally.cycle_end(self.cycle, occupancy);
        self.obs.cycle_end(self.cycle, occupancy);
    }

    /// Resolves `inst` if its condition register is readable, else
    /// returns the stall.
    fn try_resolve(&mut self, inst: &Inst) -> Option<StallReason> {
        let cond = inst.src1;
        if cond.is_some_and(|r| self.reg_ready[r.index()] > self.cycle) {
            return Some(StallReason::BranchWait);
        }
        let v = cond.map_or(0, |r| self.state.reg(r));
        let (cycle, cfg) = (self.cycle, &self.sim.config);
        self.frontend
            .resolve_branch(cycle, inst, v, cfg, &mut self.stats);
        self.issued_one();
        None
    }

    /// One cycle of the decode/issue stage: `Some(reason)` if nothing
    /// issued.
    fn issue_stage(&mut self, slot: FetchSlot) -> Result<Option<StallReason>, SimError> {
        let cycle = self.cycle;
        let (pc, inst) = match slot {
            FetchSlot::Halted => return Ok(Some(StallReason::Drained)),
            FetchSlot::Dead => return Ok(Some(StallReason::DeadCycle)),
            FetchSlot::BranchParked(inst) => return Ok(self.try_resolve(&inst)),
            FetchSlot::Inst(pc, inst) => (pc, inst),
        };
        if self.issued >= self.limit {
            return Err(SimError::InstLimit { limit: self.limit });
        }
        self.obs.fetch(cycle, pc);
        if inst.is_branch() {
            let stall = self.try_resolve(&inst);
            if stall.is_some() {
                self.frontend.park_branch(inst);
            }
            return Ok(stall);
        }
        let Some(fu) = inst.fu_class() else {
            // Nop: issues unconditionally, touches nothing.
            self.issued_one();
            self.frontend.advance();
            return Ok(None);
        };
        // (i) sources readable under the scheme
        if inst.sources().any(|r| self.reg_ready[r.index()] > cycle) {
            return Ok(Some(StallReason::OperandsNotReady));
        }
        // (ii) destination not busy (results return directly to the
        // register file, so WAW must block; a single outstanding write per
        // register keeps every scheme's bookkeeping a plain busy bit)
        if inst.dst.is_some_and(|d| self.reg_ready[d.index()] > cycle) {
            return Ok(Some(StallReason::DestinationBusy));
        }
        // (iii) functional unit free
        if !self.fus.can_accept(fu, cycle) {
            return Ok(Some(StallReason::FuBusy));
        }
        // (iv) a load's port and latency come from the data cache (the
        // perfect cache answers with the fixed memory-unit latency);
        // everything else runs at its unit's fixed latency
        let s1 = inst.src1.map_or(0, |r| self.state.reg(r));
        let s2 = inst.src2.map_or(0, |r| self.state.reg(r));
        let ea = semantics::effective_address(s1, inst.imm);
        let mut lat = self.sim.config.fu_latency(fu);
        if inst.is_load() {
            let Some(l) = self.dcache.plan(self.mem.canonicalize(ea), cycle).latency() else {
                // every outstanding-miss register busy: the blocking
                // decode stage stalls in place
                return Ok(Some(StallReason::MemStall));
            };
            lat = l;
        }
        let needs_bus = inst.dst.is_some();
        if needs_bus && !self.bus.available(cycle + lat) {
            return Ok(Some(StallReason::BusConflict));
        }
        // (v) a buffer slot: the slot taken now frees at this
        // instruction's commit
        if self.inflight.len() >= self.sim.buffer_entries {
            return Ok(Some(StallReason::WindowFull));
        }

        // Issue. Timing:
        self.fus.accept(fu, cycle);
        if needs_bus {
            self.bus.try_reserve(cycle + lat);
        }
        if inst.is_load() && self.dcache.is_finite() {
            let canon = self.mem.canonicalize(ea);
            let plan = self.dcache.access(canon, cycle);
            self.obs.mem_access(cycle, canon, plan.is_hit(), lat);
        }
        let complete = cycle + lat;
        let commit = match self.sim.scheme {
            Some(_) => complete.max(self.last_commit + 1),
            None => complete,
        };
        self.last_commit = commit;
        if let Some(d) = inst.dst {
            let reads_at_completion = self
                .sim
                .scheme
                .is_none_or(PreciseScheme::reads_at_completion);
            self.reg_ready[d.index()] = if reads_at_completion {
                complete
            } else {
                commit
            };
        }
        let seq = self.issued_one();
        self.obs.dispatch(cycle, seq, fu, complete);
        self.inflight.push((complete, commit, seq));

        // Function (in-order issue with readable operands makes eager
        // architectural update safe):
        if inst.is_load() {
            let d = inst.dst.expect("load writes a register");
            self.state.set_reg(d, self.mem.read(ea));
        } else if inst.is_store() {
            self.mem.write(ea, s2);
        } else if let Some(d) = inst.dst {
            let v = semantics::alu_result(inst.opcode, s1, s2, inst.imm);
            self.state.set_reg(d, v);
        }
        self.frontend.advance();
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruu_isa::{Asm, Opcode, Reg};
    use ruu_workloads::livermore;

    fn prog() -> Program {
        let mut a = Asm::new("t");
        let top = a.new_label();
        a.bind(top);
        a.a_imm(Reg::a(0), 0);
        a.br_an(top);
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn frontend_sequences_and_halts() {
        let p = prog();
        let mut f = Frontend::new(0);
        let FetchSlot::Inst(pc, i) = f.peek(0, &p) else {
            panic!("expected an instruction");
        };
        assert_eq!(pc, 0);
        assert_eq!(i.opcode, Opcode::AImm);
        f.advance();
        // Now at the branch
        let FetchSlot::Inst(_, br) = f.peek(1, &p) else {
            panic!("expected branch");
        };
        assert!(br.is_branch());
    }

    #[test]
    fn branch_resolution_charges_dead_cycles() {
        let p = prog();
        let cfg = MachineConfig::paper();
        let mut stats = RunStats::default();
        let mut f = Frontend::new(1);
        let br = p[1];
        // not taken (A0 == 0 means BrAN falls through)
        let taken = f.resolve_branch(10, &br, 0, &cfg, &mut stats);
        assert!(!taken);
        assert_eq!(f.pc(), 2);
        // dead until 10 + 1 + untaken penalty
        for c in 11..11 + cfg.branch_untaken_penalty {
            assert!(matches!(f.peek(c, &p), FetchSlot::Dead));
        }
        assert!(matches!(
            f.peek(11 + cfg.branch_untaken_penalty, &p),
            FetchSlot::Halted // pc 2 is Halt
        ));
        assert_eq!(stats.branches, 1);
        assert_eq!(stats.taken_branches, 0);
    }

    #[test]
    fn taken_branch_redirects() {
        let p = prog();
        let cfg = MachineConfig::paper();
        let mut stats = RunStats::default();
        let mut f = Frontend::new(1);
        let br = p[1];
        let taken = f.resolve_branch(5, &br, 1, &cfg, &mut stats);
        assert!(taken);
        assert_eq!(f.pc(), 0);
        assert!(matches!(f.peek(6, &p), FetchSlot::Dead));
        assert!(matches!(
            f.peek(6 + cfg.branch_taken_penalty, &p),
            FetchSlot::Inst(0, _)
        ));
    }

    #[test]
    fn parked_branch_blocks_fetch() {
        let p = prog();
        let mut f = Frontend::new(1);
        let br = p[1];
        f.park_branch(br);
        assert!(matches!(f.peek(3, &p), FetchSlot::BranchParked(_)));
    }

    fn run(asm: Asm) -> RunResult {
        let p = asm.assemble().unwrap();
        InOrder::new(MachineConfig::paper())
            .run(&p, Memory::new(1 << 12), 100_000)
            .unwrap()
    }

    #[test]
    fn independent_instructions_issue_every_cycle() {
        let mut a = Asm::new("t");
        a.a_imm(Reg::a(1), 1);
        a.a_imm(Reg::a(2), 2);
        a.a_imm(Reg::a(3), 3);
        a.halt();
        let r = run(a);
        assert_eq!(r.instructions, 3);
        // issue cycles 0,1,2; transfers complete at 1,2,3
        assert_eq!(r.cycles, 3);
        assert_eq!(r.state.reg(Reg::a(3)), 3);
    }

    #[test]
    fn raw_dependence_blocks_issue() {
        let mut a = Asm::new("t");
        a.a_imm(Reg::a(1), 5); // issues @0, A1 ready @1
        a.a_add(Reg::a(2), Reg::a(1), Reg::a(1)); // issues @1, A2 ready @3
        a.a_add(Reg::a(3), Reg::a(2), Reg::a(2)); // waits: issues @3, ready @5
        a.halt();
        let r = run(a);
        assert_eq!(r.state.reg(Reg::a(3)), 20);
        assert_eq!(r.cycles, 5);
        assert_eq!(r.stats.stalls(StallReason::OperandsNotReady), 1);
    }

    #[test]
    fn waw_blocks_issue() {
        let mut a = Asm::new("t");
        a.f_add(Reg::s(1), Reg::s(0), Reg::s(0)); // @0, S1 ready @6
        a.a_imm(Reg::a(1), 1); // @1, independent
        a.s_imm(Reg::s(1), 7); // WAW on S1: must wait until @6
        a.halt();
        let r = run(a);
        assert!(r.stats.stalls(StallReason::DestinationBusy) > 0);
        assert_eq!(r.state.reg(Reg::s(1)), 7);
    }

    #[test]
    fn result_bus_conflict_delays_issue() {
        // Two ops that would complete in the same cycle on one bus:
        // f.add (lat 6) @0 completes @6; s.add (lat 3) would complete @6
        // if issued @3.
        let mut a = Asm::new("t");
        a.f_add(Reg::s(1), Reg::s(0), Reg::s(0));
        a.a_imm(Reg::a(1), 1);
        a.a_imm(Reg::a(2), 2);
        a.s_add(Reg::s(2), Reg::s(3), Reg::s(4)); // would issue @3 → completes @6: conflict
        a.halt();
        let r = run(a);
        assert_eq!(r.stats.stalls(StallReason::BusConflict), 1);
    }

    #[test]
    fn taken_branch_costs_dead_cycles() {
        // A 2-iteration loop; measure that dead cycles appear.
        let mut a = Asm::new("t");
        let top = a.new_label();
        a.a_imm(Reg::a(0), 2);
        a.bind(top);
        a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
        a.br_an(top);
        a.halt();
        let r = run(a);
        assert_eq!(r.instructions, 5);
        assert_eq!(r.stats.branches, 2);
        assert_eq!(r.stats.taken_branches, 1);
        assert!(
            r.stats.stalls(StallReason::DeadCycle) >= MachineConfig::paper().branch_taken_penalty
        );
    }

    #[test]
    fn branch_waits_for_condition() {
        let mut a = Asm::new("t");
        let out = a.new_label();
        a.ld_a(Reg::a(0), Reg::a(1), 0); // A0 ready @11
        a.br_az(out); // must wait for the load
        a.nop();
        a.bind(out);
        a.halt();
        let r = run(a);
        assert!(r.stats.stalls(StallReason::BranchWait) >= 9);
    }

    #[test]
    fn memory_roundtrip_and_final_state() {
        let mut a = Asm::new("t");
        a.a_imm(Reg::a(1), 64);
        a.s_imm(Reg::s(1), 9);
        a.st_s(Reg::s(1), Reg::a(1), 0);
        a.ld_s(Reg::s(2), Reg::a(1), 0);
        a.halt();
        let r = run(a);
        assert_eq!(r.state.reg(Reg::s(2)), 9);
        assert_eq!(r.memory.read(64), 9);
    }

    #[test]
    fn matches_golden_interpreter() {
        // A small loop with loads, stores, floats and branches.
        let mut a = Asm::new("t");
        let top = a.new_label();
        a.a_imm(Reg::a(0), 8);
        a.a_imm(Reg::a(1), 128);
        a.s_imm(Reg::s(1), 3);
        a.bind(top);
        a.st_s(Reg::s(1), Reg::a(1), 0);
        a.ld_s(Reg::s(2), Reg::a(1), 0);
        a.s_add(Reg::s(1), Reg::s(1), Reg::s(2));
        a.a_add_imm(Reg::a(1), Reg::a(1), 1);
        a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
        a.br_an(top);
        a.halt();
        let p = a.assemble().unwrap();

        let golden = ruu_exec::Trace::capture(&p, Memory::new(1 << 12), 100_000).unwrap();
        let r = InOrder::new(MachineConfig::paper())
            .run(&p, Memory::new(1 << 12), 100_000)
            .unwrap();
        assert_eq!(r.instructions, golden.len() as u64);
        assert_eq!(&r.state, golden.final_state());
        assert_eq!(&r.memory, golden.final_memory());
    }

    fn cfg() -> MachineConfig {
        MachineConfig::paper()
    }

    fn all_schemes() -> [PreciseScheme; 4] {
        [
            PreciseScheme::ReorderBuffer,
            PreciseScheme::ReorderBufferBypass,
            PreciseScheme::HistoryBuffer,
            PreciseScheme::FutureFile,
        ]
    }

    #[test]
    fn all_schemes_match_golden_on_a_kernel() {
        let w = livermore::lll5();
        let g = w.golden_trace().unwrap();
        for scheme in all_schemes() {
            let r = InOrder::new(cfg())
                .with_scheme(scheme, 8)
                .run(&w.program, w.memory.clone(), w.inst_limit)
                .unwrap_or_else(|e| panic!("{}: {e}", scheme.name()));
            assert_eq!(&r.state.regs, &g.final_state().regs, "{}", scheme.name());
            assert_eq!(&r.memory, g.final_memory(), "{}", scheme.name());
            w.verify(&r.memory).unwrap();
        }
    }

    #[test]
    fn plain_reorder_buffer_aggravates_dependencies() {
        // Paper §4: "the value of a register cannot be read till it has
        // been updated by the reorder buffer". A consumer right behind a
        // long-latency producer pays extra commit-wait cycles.
        let mut a = Asm::new("t");
        a.f_recip(Reg::s(1), Reg::s(0)); // long
        a.s_imm(Reg::s(2), 3); // quick, commits behind the recip
        a.s_add(Reg::s(3), Reg::s(2), Reg::s(2)); // consumer of the quick one
        a.halt();
        let p = a.assemble().unwrap();
        let plain = InOrder::new(cfg())
            .with_scheme(PreciseScheme::ReorderBuffer, 8)
            .run(&p, Memory::new(1 << 8), 1000)
            .unwrap();
        let bypass = InOrder::new(cfg())
            .with_scheme(PreciseScheme::ReorderBufferBypass, 8)
            .run(&p, Memory::new(1 << 8), 1000)
            .unwrap();
        assert!(
            plain.cycles > bypass.cycles,
            "plain {} should exceed bypassed {}",
            plain.cycles,
            bypass.cycles
        );
        assert_eq!(plain.state.regs, bypass.state.regs);
    }

    #[test]
    fn bypass_history_and_future_file_perform_identically() {
        // Paper §4: the three full-visibility schemes have the same
        // performance (they differ in hardware cost, not timing).
        let w = livermore::lll1();
        let runs: Vec<u64> = [
            PreciseScheme::ReorderBufferBypass,
            PreciseScheme::HistoryBuffer,
            PreciseScheme::FutureFile,
        ]
        .into_iter()
        .map(|s| {
            InOrder::new(cfg())
                .with_scheme(s, 10)
                .run(&w.program, w.memory.clone(), w.inst_limit)
                .unwrap()
                .cycles
        })
        .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    #[test]
    fn bypassed_buffer_costs_little_over_the_imprecise_baseline() {
        // Paper §4: "with a bypass mechanism, the issue rate of the
        // machine is not degraded considerably if the size of the buffer
        // is reasonably large".
        let w = livermore::lll12();
        let base = InOrder::new(cfg())
            .run(&w.program, w.memory.clone(), w.inst_limit)
            .unwrap();
        let rb = InOrder::new(cfg())
            .with_scheme(PreciseScheme::ReorderBufferBypass, 12)
            .run(&w.program, w.memory.clone(), w.inst_limit)
            .unwrap();
        let ratio = rb.cycles as f64 / base.cycles as f64;
        assert!(
            ratio < 1.10,
            "bypassed reorder buffer should cost <10% over baseline, got {ratio:.3}"
        );
    }

    #[test]
    fn tiny_buffer_throttles_issue() {
        let w = livermore::lll7();
        let small = InOrder::new(cfg())
            .with_scheme(PreciseScheme::ReorderBufferBypass, 1)
            .run(&w.program, w.memory.clone(), w.inst_limit)
            .unwrap();
        let big = InOrder::new(cfg())
            .with_scheme(PreciseScheme::ReorderBufferBypass, 16)
            .run(&w.program, w.memory.clone(), w.inst_limit)
            .unwrap();
        assert!(small.cycles > big.cycles);
        assert!(small.stats.stalls(StallReason::WindowFull) > 0);
        assert_eq!(small.state.regs, big.state.regs);
    }

    #[test]
    fn scheme_names_are_distinct() {
        let mut names: Vec<&str> = all_schemes().iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 4);
    }
}
