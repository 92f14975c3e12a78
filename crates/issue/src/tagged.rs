//! The associative (tagged) out-of-order mechanisms: Tomasulo, Tag Unit +
//! distributed reservation stations, the merged RS pool, and the RSTU.
//!
//! These mechanisms share one engine, [`TaggedSim`], parameterised by
//! [`WindowKind`]: they differ only in *where reservation stations live*
//! and *how many tags exist*:
//!
//! * [`WindowKind::Distributed`] — classic Tomasulo (§3.1): per-functional-
//!   unit reservation stations, a tag for every register (conceptually 144
//!   tag-matching units — the expense the paper's Tag Unit removes);
//! * [`WindowKind::TagUnitDistributed`] — §3.2.1, Figure 2: a central Tag
//!   Unit holding tags only for *currently active* registers, with
//!   distributed reservation stations;
//! * [`WindowKind::Pooled`] — §3.2.2: the reservation stations merged into
//!   a common pool (freed at dispatch), Tag Unit unchanged;
//! * [`WindowKind::Merged`] — §3.2.3, Figure 4: the **RSTU**, where a
//!   reservation station and a tag are reserved together and released at
//!   writeback.
//!
//! All of them update the register file *as results complete* (out of
//! program order) — interrupts are **imprecise**, which is precisely what
//! the RUU (see [`crate::ruu`]) fixes. To keep the final architectural
//! state well-defined, a completing result updates the register file only
//! if it is the *latest* instance of its register (Tomasulo's
//! register-capture rule; the paper's "may update the register but may not
//! unlock it" wording is modelled this way so that stale instances never
//! clobber newer values).

use std::collections::{BTreeMap, VecDeque};

use ruu_exec::{ArchState, Memory};
use ruu_isa::{semantics, FuClass, Inst, Program, Reg, NUM_REGS};
use ruu_sim_core::{
    DCache, FuPool, LoadRegUnit, LrOutcome, MachineConfig, MemOpKind, NullObserver,
    PipelineObserver, RunResult, RunStats, SlotReservation, StallReason,
};

use crate::common::{Broadcasts, FetchSlot, Frontend, Operand, Tag};
use crate::simulator::IssueSimulator;
use crate::SimError;

/// Window organisation of a tagged mechanism (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// Classic Tomasulo: `rs_per_fu` reservation stations at each
    /// functional unit; every register is tagged (no tag limit).
    Distributed {
        /// Reservation stations per functional unit.
        rs_per_fu: usize,
    },
    /// Central Tag Unit (capacity `tags`) + distributed reservation
    /// stations.
    TagUnitDistributed {
        /// Reservation stations per functional unit.
        rs_per_fu: usize,
        /// Tag Unit entries.
        tags: usize,
    },
    /// Central Tag Unit + merged reservation-station pool (stations are
    /// released when the instruction dispatches to a unit).
    Pooled {
        /// Stations in the merged pool.
        rs: usize,
        /// Tag Unit entries.
        tags: usize,
    },
    /// The RSTU: one merged structure; an entry is both station and tag
    /// and is released at writeback.
    Merged {
        /// RSTU entries.
        entries: usize,
    },
}

impl WindowKind {
    fn tag_capacity(self) -> Option<usize> {
        match self {
            WindowKind::Distributed { .. } => None,
            WindowKind::TagUnitDistributed { tags, .. } | WindowKind::Pooled { tags, .. } => {
                Some(tags)
            }
            WindowKind::Merged { entries } => Some(entries),
        }
    }
}

/// Cycle-level simulator for the tagged (imprecise) mechanisms.
#[derive(Debug, Clone)]
pub struct TaggedSim {
    config: MachineConfig,
    kind: WindowKind,
}

impl TaggedSim {
    /// Creates a simulator with the given machine configuration and
    /// window organisation.
    #[must_use]
    pub fn new(config: MachineConfig, kind: WindowKind) -> Self {
        TaggedSim { config, kind }
    }

    /// Runs until the dynamic instruction `probe_seq` has *executed*
    /// (updated machine state), then returns a snapshot of the
    /// architectural registers and memory at that moment — used to
    /// demonstrate that interrupts on these mechanisms are imprecise.
    ///
    /// Returns `None` if the probe instruction never executed.
    ///
    /// # Errors
    /// As for [`IssueSimulator::run`].
    pub fn snapshot_at_execute(
        &self,
        program: &Program,
        mem: Memory,
        limit: u64,
        probe_seq: u64,
    ) -> Result<Option<(ArchState, Memory)>, SimError> {
        let mut nobs = NullObserver;
        let mut core = TCore::new(self, ArchState::new(), mem, program, limit, &mut nobs);
        core.run(Some(Probe::new(probe_seq)))?;
        Ok(core.probe_result.take())
    }
}

impl IssueSimulator for TaggedSim {
    fn run_observed(
        &self,
        state: ArchState,
        mem: Memory,
        program: &Program,
        limit: u64,
        obs: &mut dyn PipelineObserver,
    ) -> Result<RunResult, SimError> {
        let mut core = TCore::new(self, state, mem, program, limit, obs);
        core.run(None).map(|o| o.expect("no probe: run completes"))
    }
}

/// Probe for the imprecision demonstration.
#[derive(Debug, Clone)]
struct Probe {
    seq: u64,
}

impl Probe {
    fn new(seq: u64) -> Self {
        Probe { seq }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemPhase {
    NotMem,
    AwaitingLr,
    ToMemory,
    AwaitingData,
    Forwarding,
    StorePending,
}

#[derive(Debug, Clone)]
struct Entry {
    seq: u64,
    inst: Inst,
    dst_tag: Option<Tag>,
    ops: [Operand; 2],
    dispatched: bool,
    result: Option<u64>,
    ea: Option<u64>,
    mem_phase: MemPhase,
    lr_provider: bool,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Finish(u64),
    StoreExec(u64),
}

struct TCore<'a> {
    cfg: &'a MachineConfig,
    program: &'a Program,
    kind: WindowKind,
    limit: u64,

    cycle: u64,
    arch: ArchState,
    mem: Memory,
    /// Latest in-flight producer tag per register (`None` = register file
    /// value is current).
    reg_latest: [Option<Tag>; NUM_REGS],
    window: BTreeMap<u64, Entry>,
    mem_queue: VecDeque<u64>,
    forward_queue: Vec<u64>,
    events: BTreeMap<u64, Vec<Event>>,
    lr: LoadRegUnit,
    fus: FuPool,
    bus: SlotReservation,
    dcache: DCache,
    frontend: Frontend,
    broadcasts: Broadcasts,
    stats: RunStats,
    obs: &'a mut dyn PipelineObserver,
    issued: u64,
    retired: u64,
    events_scheduled: u64,
    last_progress: (u64, u64, u64),
    last_progress_cycle: u64,
    probe: Option<Probe>,
    probe_result: Option<(ArchState, Memory)>,
}

impl<'a> TCore<'a> {
    fn new(
        sim: &'a TaggedSim,
        state: ArchState,
        mem: Memory,
        program: &'a Program,
        limit: u64,
        obs: &'a mut dyn PipelineObserver,
    ) -> Self {
        let cfg = &sim.config;
        let dcache = DCache::new(
            &cfg.dcache,
            cfg.fu_latency(FuClass::Memory),
            mem.len() as u64,
        );
        TCore {
            cfg,
            program,
            kind: sim.kind,
            limit,
            cycle: 0,
            frontend: Frontend::new(state.pc),
            arch: state,
            mem,
            reg_latest: [None; NUM_REGS],
            window: BTreeMap::new(),
            mem_queue: VecDeque::new(),
            forward_queue: Vec::new(),
            events: BTreeMap::new(),
            lr: LoadRegUnit::new(sim.config.load_registers),
            fus: FuPool::new(),
            bus: SlotReservation::new(sim.config.result_buses),
            dcache,
            broadcasts: Broadcasts::default(),
            stats: RunStats::default(),
            obs,
            issued: 0,
            retired: 0,
            events_scheduled: 0,
            last_progress: (0, 0, 0),
            last_progress_cycle: 0,
            probe: None,
            probe_result: None,
        }
    }

    // ---- capacity accounting -------------------------------------------

    fn rs_in_use(&self, fu: Option<FuClass>) -> usize {
        self.window
            .values()
            .filter(|e| !e.dispatched)
            .filter(|e| match fu {
                Some(f) => e.inst.fu_class() == Some(f),
                None => true,
            })
            .count()
    }

    fn has_room(&self, inst: &Inst) -> bool {
        if let Some(tags) = self.kind.tag_capacity() {
            if self.window.len() >= tags {
                return false;
            }
        }
        match self.kind {
            WindowKind::Distributed { rs_per_fu }
            | WindowKind::TagUnitDistributed { rs_per_fu, .. } => {
                let Some(fu) = inst.fu_class() else {
                    return true; // Nop occupies no station
                };
                self.rs_in_use(Some(fu)) < rs_per_fu
            }
            WindowKind::Pooled { rs, .. } => {
                if inst.fu_class().is_none() {
                    return true;
                }
                self.rs_in_use(None) < rs
            }
            WindowKind::Merged { .. } => true, // covered by the tag check
        }
    }

    // ---- broadcast & wake ------------------------------------------------

    fn broadcast(&mut self, tag: Tag, value: u64) {
        self.broadcasts.push(tag, value);
        for e in self.window.values_mut() {
            for op in &mut e.ops {
                op.gate(tag, value);
            }
        }
        if let Some(pb) = self.frontend.pending_branch_mut() {
            pb.cond.gate(tag, value);
        }
        // The register file captures the result if it is the latest
        // instance of the register; the busy condition then clears.
        if self.reg_latest[tag.reg.index()] == Some(tag) {
            self.arch.set_reg(tag.reg, value);
            self.reg_latest[tag.reg.index()] = None;
        }
    }

    fn wake_forwarded_load(&mut self, seq: u64, value: u64) {
        let e = self.window.get_mut(&seq).expect("woken load is live");
        debug_assert_eq!(e.mem_phase, MemPhase::AwaitingData);
        e.result = Some(value);
        e.mem_phase = MemPhase::Forwarding;
        self.forward_queue.push(seq);
        self.stats.forwarded_loads += 1;
    }

    fn check_probe(&mut self, seq: u64) {
        if self.probe.as_ref().is_some_and(|p| p.seq == seq) && self.probe_result.is_none() {
            let mut st = self.arch.clone();
            st.pc = self.frontend.pc();
            self.probe_result = Some((st, self.mem.clone()));
        }
    }

    // ---- phases -----------------------------------------------------------

    fn phase_completions(&mut self) {
        let Some(evs) = self.events.remove(&self.cycle) else {
            return;
        };
        for ev in evs {
            match ev {
                Event::Finish(seq) => {
                    let e = self.window.remove(&seq).expect("finishing entry is live");
                    self.obs.complete(self.cycle, seq);
                    if let Some(tag) = e.dst_tag {
                        let v = e.result.expect("finished producer has a result");
                        self.broadcast(tag, v);
                    }
                    if e.inst.is_load() {
                        if e.lr_provider {
                            let v = e.result.expect("finished load has data");
                            for w in self.lr.provider_ready(seq, v) {
                                self.wake_forwarded_load(w, v);
                            }
                        }
                        self.lr.retire(seq);
                    }
                    self.retired += 1;
                    self.check_probe(seq);
                }
                Event::StoreExec(seq) => {
                    let e = self.window.remove(&seq).expect("executing store is live");
                    self.obs.complete(self.cycle, seq);
                    let ea = e.ea.expect("store has an address");
                    let data = e.ops[1].value();
                    self.mem.write(ea, data);
                    for w in self.lr.provider_ready(seq, data) {
                        self.wake_forwarded_load(w, data);
                    }
                    self.lr.retire(seq);
                    self.retired += 1;
                    self.check_probe(seq);
                }
            }
        }
    }

    fn phase_addr_gen(&mut self) {
        let Some(&seq) = self.mem_queue.front() else {
            return;
        };
        let e = self.window.get(&seq).expect("queued mem op is live");
        if !e.ops[0].is_ready() {
            return;
        }
        let kind = if e.inst.is_load() {
            MemOpKind::Load
        } else {
            MemOpKind::Store
        };
        // Canonicalize so the load registers compare the word actually
        // touched; raw effective addresses may alias one memory word.
        let ea = self
            .mem
            .canonicalize(semantics::effective_address(e.ops[0].value(), e.inst.imm));
        let Some(outcome) = self.lr.process(seq, kind, ea) else {
            return;
        };
        self.mem_queue.pop_front();
        let e = self.window.get_mut(&seq).expect("queued mem op is live");
        e.ea = Some(ea);
        match outcome {
            LrOutcome::ToMemory => {
                e.mem_phase = MemPhase::ToMemory;
                e.lr_provider = true;
            }
            LrOutcome::Forwarded { value } => {
                e.result = Some(value);
                e.mem_phase = MemPhase::Forwarding;
                self.forward_queue.push(seq);
                self.stats.forwarded_loads += 1;
            }
            LrOutcome::WaitOn { .. } => e.mem_phase = MemPhase::AwaitingData,
            LrOutcome::StoreRecorded => e.mem_phase = MemPhase::StorePending,
        }
    }

    fn phase_forwards(&mut self) {
        let lat = self.cfg.forward_latency;
        let queue = std::mem::take(&mut self.forward_queue);
        let mut remaining = Vec::new();
        for seq in queue {
            if self.bus.try_reserve(self.cycle + lat) {
                // Booking the bus is this load's "dispatch": its station
                // frees in the dispatch-released organisations.
                self.window
                    .get_mut(&seq)
                    .expect("forwarding load is live")
                    .dispatched = true;
                self.obs
                    .dispatch(self.cycle, seq, FuClass::Memory, self.cycle + lat);
                self.events_scheduled += 1;
                self.events
                    .entry(self.cycle + lat)
                    .or_default()
                    .push(Event::Finish(seq));
            } else {
                remaining.push(seq);
            }
        }
        self.forward_queue = remaining;
    }

    /// A store may hand its data to memory only when every older memory
    /// operation that will *read architectural memory* has sampled it
    /// (dispatched), and every older store has already done so — the
    /// memory port preserves program order. Without the first condition a
    /// younger store could clobber the word an older, bus-stalled load is
    /// about to read (WAR through memory).
    fn store_may_exec(&self, seq: u64) -> bool {
        !self.window.values().any(|e| {
            e.seq < seq
                && !e.dispatched
                && matches!(e.mem_phase, MemPhase::ToMemory | MemPhase::StorePending)
        })
    }

    fn phase_dispatch(&mut self) {
        // Distributed organisations have a private path from each unit's
        // stations; the pooled ones share `dispatch_paths` ports.
        let mut paths = match self.kind {
            WindowKind::Distributed { .. } | WindowKind::TagUnitDistributed { .. } => u32::MAX,
            _ => self.cfg.dispatch_paths,
        };
        let mut candidates: Vec<(bool, u64)> = Vec::new();
        for e in self.window.values() {
            if e.dispatched {
                continue;
            }
            match e.mem_phase {
                MemPhase::ToMemory => candidates.push((true, e.seq)),
                MemPhase::StorePending
                    if e.ops[0].is_ready() && e.ops[1].is_ready() && self.store_may_exec(e.seq) =>
                {
                    candidates.push((true, e.seq));
                }
                MemPhase::NotMem
                    if e.inst.fu_class().is_some()
                        && e.ops[0].is_ready()
                        && e.ops[1].is_ready() =>
                {
                    candidates.push((false, e.seq));
                }
                _ => {}
            }
        }
        candidates.sort_by_key(|&(is_mem, seq)| (!is_mem, seq));

        for (_, seq) in candidates {
            if paths == 0 {
                break;
            }
            let e = self.window.get(&seq).expect("candidate is live");
            match e.mem_phase {
                MemPhase::ToMemory => {
                    let ea = e.ea.expect("address generated");
                    let plan = self.dcache.plan(ea, self.cycle);
                    let Some(lat) = plan.latency() else {
                        continue; // every outstanding-miss register busy: retry
                    };
                    if self.fus.can_accept(FuClass::Memory, self.cycle)
                        && self.bus.available(self.cycle + lat)
                    {
                        self.fus.accept(FuClass::Memory, self.cycle);
                        self.bus.try_reserve(self.cycle + lat);
                        let v = self.mem.read(ea);
                        let e = self.window.get_mut(&seq).expect("candidate is live");
                        e.result = Some(v);
                        e.dispatched = true;
                        self.obs
                            .dispatch(self.cycle, seq, FuClass::Memory, self.cycle + lat);
                        if self.dcache.is_finite() {
                            let plan = self.dcache.access(ea, self.cycle);
                            self.obs.mem_access(self.cycle, ea, plan.is_hit(), lat);
                        }
                        self.events_scheduled += 1;
                        self.events
                            .entry(self.cycle + lat)
                            .or_default()
                            .push(Event::Finish(seq));
                        paths -= 1;
                    }
                }
                MemPhase::StorePending if self.fus.can_accept(FuClass::Memory, self.cycle) => {
                    self.fus.accept(FuClass::Memory, self.cycle);
                    self.window
                        .get_mut(&seq)
                        .expect("candidate is live")
                        .dispatched = true;
                    self.obs.dispatch(
                        self.cycle,
                        seq,
                        FuClass::Memory,
                        self.cycle + self.cfg.store_exec_latency,
                    );
                    self.events_scheduled += 1;
                    self.events
                        .entry(self.cycle + self.cfg.store_exec_latency)
                        .or_default()
                        .push(Event::StoreExec(seq));
                    paths -= 1;
                }
                MemPhase::NotMem => {
                    let fu = e.inst.fu_class().expect("ALU entry has a unit");
                    let lat = self.cfg.fu_latency(fu);
                    if self.fus.can_accept(fu, self.cycle) && self.bus.available(self.cycle + lat) {
                        self.fus.accept(fu, self.cycle);
                        self.bus.try_reserve(self.cycle + lat);
                        let e = self.window.get_mut(&seq).expect("candidate is live");
                        let v = semantics::alu_result(
                            e.inst.opcode,
                            e.ops[0].value(),
                            e.ops[1].value(),
                            e.inst.imm,
                        );
                        e.result = Some(v);
                        e.dispatched = true;
                        self.obs.dispatch(self.cycle, seq, fu, self.cycle + lat);
                        self.events_scheduled += 1;
                        self.events
                            .entry(self.cycle + lat)
                            .or_default()
                            .push(Event::Finish(seq));
                        paths -= 1;
                    }
                }
                _ => {}
            }
        }
    }

    fn read_operand(&self, r: Reg) -> Operand {
        match self.reg_latest[r.index()] {
            None => Operand::Ready(self.arch.reg(r)),
            Some(tag) => match self.broadcasts.lookup(tag) {
                Some(v) => Operand::Ready(v),
                None => Operand::Waiting(tag),
            },
        }
    }

    fn phase_issue(&mut self) -> Result<(), SimError> {
        match self.frontend.peek(self.cycle, self.program) {
            FetchSlot::Halted => {
                self.frontend.set_halted();
                self.stats.stall(StallReason::Drained);
                self.obs.stall(self.cycle, StallReason::Drained);
            }
            FetchSlot::Dead => {
                self.stats.stall(StallReason::DeadCycle);
                self.obs.stall(self.cycle, StallReason::DeadCycle);
            }
            FetchSlot::BranchParked => {
                let pb = *self.frontend.pending_branch().expect("branch is parked");
                if pb.cond.is_ready() {
                    self.frontend.resolve_branch(
                        self.cycle,
                        &pb.inst,
                        pb.cond.value(),
                        self.cfg,
                        &mut self.stats,
                    );
                    self.obs.issue(self.cycle, self.issued);
                    self.issued += 1;
                    self.stats.issue_cycles += 1;
                } else {
                    self.stats.stall(StallReason::BranchWait);
                    self.obs.stall(self.cycle, StallReason::BranchWait);
                }
            }
            FetchSlot::Inst(pc, inst) => {
                if self.issued >= self.limit {
                    return Err(SimError::InstLimit { limit: self.limit });
                }
                self.obs.fetch(self.cycle, pc);
                if inst.is_branch() {
                    let cond = match inst.src1 {
                        Some(r) => self.read_operand(r),
                        None => Operand::Ready(0),
                    };
                    if cond.is_ready() {
                        self.frontend.resolve_branch(
                            self.cycle,
                            &inst,
                            cond.value(),
                            self.cfg,
                            &mut self.stats,
                        );
                        self.obs.issue(self.cycle, self.issued);
                        self.issued += 1;
                        self.stats.issue_cycles += 1;
                    } else {
                        self.frontend.park_branch(pc, inst, cond);
                        self.stats.stall(StallReason::BranchWait);
                        self.obs.stall(self.cycle, StallReason::BranchWait);
                    }
                    return Ok(());
                }

                if !self.has_room(&inst) {
                    self.stats.stall(StallReason::WindowFull);
                    self.obs.stall(self.cycle, StallReason::WindowFull);
                    return Ok(());
                }
                if inst.is_mem() && self.lr.is_full() {
                    self.stats.stall(StallReason::LoadRegFull);
                    self.obs.stall(self.cycle, StallReason::LoadRegFull);
                    return Ok(());
                }

                let ops = [
                    inst.src1
                        .map_or(Operand::Ready(0), |r| self.read_operand(r)),
                    inst.src2
                        .map_or(Operand::Ready(0), |r| self.read_operand(r)),
                ];
                let seq = self.issued;
                let dst_tag = inst.dst.map(|d| {
                    let tag = Tag {
                        reg: d,
                        instance: seq,
                    };
                    self.reg_latest[d.index()] = Some(tag);
                    tag
                });

                let is_mem = inst.is_mem();
                let no_fu = inst.fu_class().is_none(); // Nop: nothing to do
                if !no_fu {
                    self.window.insert(
                        seq,
                        Entry {
                            seq,
                            inst,
                            dst_tag,
                            ops,
                            dispatched: false,
                            result: None,
                            ea: None,
                            mem_phase: if is_mem {
                                MemPhase::AwaitingLr
                            } else {
                                MemPhase::NotMem
                            },
                            lr_provider: false,
                        },
                    );
                    if is_mem {
                        self.mem_queue.push_back(seq);
                    }
                } else {
                    self.retired += 1;
                }
                self.obs.issue(self.cycle, seq);
                self.issued += 1;
                self.stats.issue_cycles += 1;
                self.frontend.advance();
            }
        }
        Ok(())
    }

    fn drained(&self) -> bool {
        self.frontend.halted()
            && self.window.is_empty()
            && self.mem_queue.is_empty()
            && self.forward_queue.is_empty()
            && self.events.is_empty()
    }

    fn run(&mut self, probe: Option<Probe>) -> Result<Option<RunResult>, SimError> {
        self.probe = probe;
        loop {
            self.broadcasts.clear();
            let occ = self.window.len() as u32;
            self.stats.observe_occupancy(occ);

            self.phase_completions();
            self.phase_addr_gen();
            self.phase_forwards();
            self.phase_dispatch();
            self.phase_issue()?;

            let progress = (self.issued, self.retired, self.events_scheduled);
            if progress != self.last_progress {
                self.last_progress = progress;
                self.last_progress_cycle = self.cycle;
            } else if self.cycle - self.last_progress_cycle > 100_000 {
                return Err(SimError::Deadlock { cycle: self.cycle });
            }

            self.obs.cycle_end(self.cycle, occ);
            if self.drained() {
                self.cycle += 1;
                break;
            }
            self.cycle += 1;
            if self.cycle.is_multiple_of(4096) {
                self.bus.release_before(self.cycle);
            }
        }
        let mut state = self.arch.clone();
        state.pc = self.frontend.pc();
        let cs = self.dcache.stats();
        self.stats.dcache_accesses = cs.accesses;
        self.stats.dcache_hits = cs.hits;
        self.stats.dcache_misses = cs.misses;
        Ok(Some(RunResult {
            cycles: self.cycle,
            instructions: self.issued,
            state,
            memory: self.mem.clone(),
            stats: std::mem::take(&mut self.stats),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruu_exec::Trace;
    use ruu_isa::Asm;

    fn cfg() -> MachineConfig {
        MachineConfig::paper()
    }

    fn all_kinds() -> Vec<WindowKind> {
        vec![
            WindowKind::Distributed { rs_per_fu: 3 },
            WindowKind::TagUnitDistributed {
                rs_per_fu: 3,
                tags: 12,
            },
            WindowKind::Pooled { rs: 8, tags: 12 },
            WindowKind::Merged { entries: 10 },
        ]
    }

    fn loop_prog() -> Asm {
        let mut a = Asm::new("t");
        let top = a.new_label();
        a.a_imm(Reg::a(0), 12);
        a.a_imm(Reg::a(1), 200);
        a.s_imm(Reg::s(1), 3);
        a.bind(top);
        a.ld_s(Reg::s(2), Reg::a(1), 0);
        a.f_add(Reg::s(3), Reg::s(2), Reg::s(1));
        a.st_s(Reg::s(3), Reg::a(1), 0);
        a.st_s(Reg::s(3), Reg::a(1), 32);
        a.ld_s(Reg::s(4), Reg::a(1), 32);
        a.s_add(Reg::s(5), Reg::s(4), Reg::s(4));
        a.a_add_imm(Reg::a(1), Reg::a(1), 1);
        a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
        a.br_an(top);
        a.halt();
        a
    }

    #[test]
    fn all_kinds_match_golden() {
        let p = loop_prog().assemble().unwrap();
        let g = Trace::capture(&p, Memory::new(1 << 12), 1_000_000).unwrap();
        for kind in all_kinds() {
            let r = TaggedSim::new(cfg(), kind)
                .run(&p, Memory::new(1 << 12), 1_000_000)
                .unwrap();
            assert_eq!(r.instructions, g.len() as u64, "{kind:?}");
            assert_eq!(&r.state, g.final_state(), "{kind:?}");
            assert_eq!(&r.memory, g.final_memory(), "{kind:?}");
        }
    }

    #[test]
    fn rstu_beats_simple_issue_on_ilp() {
        let p = loop_prog().assemble().unwrap();
        let simple = crate::InOrder::new(cfg())
            .run(&p, Memory::new(1 << 12), 1_000_000)
            .unwrap();
        let rstu = TaggedSim::new(cfg(), WindowKind::Merged { entries: 20 })
            .run(&p, Memory::new(1 << 12), 1_000_000)
            .unwrap();
        assert!(rstu.cycles < simple.cycles);
    }

    #[test]
    fn waw_same_register_resolves_to_latest() {
        // Long-latency write followed by a fast write to the same
        // register: the fast one is younger and must win the final state.
        let mut a = Asm::new("t");
        a.f_recip(Reg::s(1), Reg::s(0)); // slow producer of S1 (inf)
        a.s_imm(Reg::s(1), 42); // fast, younger
        a.halt();
        let p = a.assemble().unwrap();
        for kind in all_kinds() {
            let r = TaggedSim::new(cfg(), kind)
                .run(&p, Memory::new(1 << 12), 1_000_000)
                .unwrap();
            assert_eq!(r.state.reg(Reg::s(1)), 42, "{kind:?}");
        }
    }

    #[test]
    fn stores_to_one_address_write_in_order() {
        // An older store whose data arrives late must not clobber a
        // younger store's value.
        let mut a = Asm::new("t");
        a.a_imm(Reg::a(1), 64);
        a.f_recip(Reg::s(1), Reg::s(0)); // S1 ready late
        a.st_s(Reg::s(1), Reg::a(1), 0); // older store, late data
        a.s_imm(Reg::s(2), 9);
        a.st_s(Reg::s(2), Reg::a(1), 0); // younger store, early data
        a.halt();
        let p = a.assemble().unwrap();
        let g = Trace::capture(&p, Memory::new(1 << 12), 1_000_000).unwrap();
        for kind in all_kinds() {
            let r = TaggedSim::new(cfg(), kind)
                .run(&p, Memory::new(1 << 12), 1_000_000)
                .unwrap();
            assert_eq!(r.memory.read(64), g.final_memory().read(64), "{kind:?}");
        }
    }

    #[test]
    fn rstu_small_window_stalls() {
        let p = loop_prog().assemble().unwrap();
        let r = TaggedSim::new(cfg(), WindowKind::Merged { entries: 3 })
            .run(&p, Memory::new(1 << 12), 1_000_000)
            .unwrap();
        assert!(r.stats.stalls(StallReason::WindowFull) > 0);
    }

    #[test]
    fn two_dispatch_paths_help_a_little() {
        let p = loop_prog().assemble().unwrap();
        let one = TaggedSim::new(cfg(), WindowKind::Merged { entries: 10 })
            .run(&p, Memory::new(1 << 12), 1_000_000)
            .unwrap();
        let two = TaggedSim::new(
            cfg().with_dispatch_paths(2),
            WindowKind::Merged { entries: 10 },
        )
        .run(&p, Memory::new(1 << 12), 1_000_000)
        .unwrap();
        assert!(two.cycles <= one.cycles);
    }

    #[test]
    fn imprecision_snapshot_differs_from_every_program_order_boundary() {
        // A long-latency op followed by a fast store: when the fast store
        // has executed, the long op has not — no program-order boundary
        // matches the machine state (store done, earlier reg write not).
        let mut a = Asm::new("t");
        a.a_imm(Reg::a(1), 80);
        a.f_recip(Reg::s(1), Reg::s(0)); // seq 1: slow
        a.s_imm(Reg::s(2), 5); // seq 2
        a.st_s(Reg::s(2), Reg::a(1), 0); // seq 3: fast store
        a.halt();
        let p = a.assemble().unwrap();
        let snap = TaggedSim::new(cfg(), WindowKind::Merged { entries: 8 })
            .snapshot_at_execute(&p, Memory::new(1 << 12), 1_000_000, 3)
            .unwrap()
            .expect("store executes");
        let (state, mem) = snap;
        // Store done...
        assert_eq!(mem.read(80), 5);
        // ...but the older recip has not updated S1 yet.
        let (g2, _) = ruu_exec::golden_state_at(&p, Memory::new(1 << 12), 4).unwrap();
        assert_ne!(state.regs, g2.regs, "imprecise: S1 missing");
    }

    #[test]
    fn distributed_blocks_on_per_fu_stations() {
        // Three dependent float-adds fill a 1-deep FloatAdd RS while an
        // independent AddrAdd can still issue.
        let mut a = Asm::new("t");
        a.f_recip(Reg::s(1), Reg::s(0));
        a.f_add(Reg::s(2), Reg::s(1), Reg::s(1));
        a.f_add(Reg::s(3), Reg::s(2), Reg::s(2));
        a.a_imm(Reg::a(1), 7);
        a.halt();
        let p = a.assemble().unwrap();
        let r = TaggedSim::new(cfg(), WindowKind::Distributed { rs_per_fu: 1 })
            .run(&p, Memory::new(1 << 12), 1_000_000)
            .unwrap();
        assert!(r.stats.stalls(StallReason::WindowFull) > 0);
        assert_eq!(r.state.reg(Reg::a(1)), 7);
    }
}
