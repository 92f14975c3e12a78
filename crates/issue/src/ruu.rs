//! The out-of-order core: the **Register Update Unit** (paper §5–7,
//! Figure 5) and the tagged mechanisms of §3 it grew out of.
//!
//! Instructions enter a window in program order, wait there for their
//! operands (monitoring the result bus by tag), and issue to the
//! functional units out of order. The RUU is the merged
//! reservation-station / tag-unit structure of §3.2.3 (the RSTU) managed
//! as a FIFO queue; one thing separates the two, **where results wait**:
//!
//! * [`Ruu::new`] — results wait in the window and **commit in program
//!   order from the head**, which makes interrupts precise (paper §4–5).
//!   Managing the window as a queue removes the associative tag search:
//!   each register carries two small counters, *NI* (number of instances
//!   in the RUU) and *LI* (latest instance); a tag is just the register
//!   number appended with LI (paper §5.1).
//! * [`Ruu::tagged`] — results go to the register file **as they
//!   complete**, out of program order, so interrupts are *imprecise*. A
//!   completing result updates the register file only if it is the
//!   latest instance of its register (Tomasulo's register-capture rule;
//!   the paper's "may update the register but may not unlock it" wording
//!   is modelled this way so that stale instances never clobber newer
//!   values). A store writes memory when it executes. [`WindowKind`]
//!   says where the reservation stations live and how many tags exist:
//!   Tomasulo (§3.1), the Tag Unit with distributed stations (§3.2.1) or
//!   with a merged pool (§3.2.2), and the RSTU (§3.2.3).
//!
//! Three operand-bypass policies are modelled for in-order commit,
//! matching the paper's three evaluations:
//!
//! * [`Bypass::Full`] — source operands may be read from any executed RUU
//!   entry (Table 4);
//! * [`Bypass::None`] — no bypass: a consumer that missed the producer's
//!   result-bus broadcast waits until the value crosses the
//!   RUU→register-file bus at commit (Table 5, §6.2);
//! * [`Bypass::LimitedA`] — the A register file is shadowed by a *future
//!   file* updated from the result bus; all other files behave as
//!   [`Bypass::None`] (Table 6, §6.3).
//!
//! Two branch policies are modelled. Without a predictor, a conditional
//! branch whose condition is not ready **parks in decode** until the value
//! appears on a bus (§6.3). With one ([`Ruu::with_predictor`], in-order
//! commit only), the machine is the §7 extension, **conditional
//! execution**: the predicted path is fetched, speculative instructions
//! execute but cannot commit past an unresolved branch, and a
//! misprediction nullifies every younger entry: their NI/LI instances and
//! load registers are released, and the A future file is restored from
//! the branch's snapshot. Either way the architectural state is untouched
//! by speculation, so the golden-equivalence tests hold for both.

use std::collections::{BTreeMap, VecDeque};

use ruu_exec::{ArchState, Memory};
use ruu_isa::{semantics, FuClass, Inst, Program, Reg, NUM_REGS};
use ruu_predict::{Predictor, PredictorConfig};
use ruu_sim_core::{
    DCache, FuPool, LoadRegUnit, LrOutcome, MachineConfig, MemOpKind, NullObserver,
    PipelineObserver, RunResult, RunStats, SlotReservation, StallReason,
};

use crate::common::{Broadcasts, Operand, Tag};
use crate::simulator::IssueSimulator;
use crate::SimError;

/// Operand-bypass policy of the RUU (paper §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bypass {
    /// Associative bypass from every executed RUU entry (paper §6.1).
    Full,
    /// No bypass: reservation stations monitor the result bus *and* the
    /// RUU→register-file bus (paper §6.2).
    None,
    /// A future file shadows the 8 A registers; other files are
    /// un-bypassed (paper §6.3).
    LimitedA,
}

impl Bypass {
    /// Short display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Bypass::Full => "bypass",
            Bypass::None => "no-bypass",
            Bypass::LimitedA => "limited-bypass",
        }
    }
}

/// Window organisation of a tagged mechanism, whose results go to the
/// register file at completion: where the reservation stations live and
/// how many tags exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// Classic Tomasulo (§3.1): `rs_per_fu` reservation stations at each
    /// functional unit; every register is tagged (no tag limit;
    /// conceptually 144 tag-matching units, the expense the Tag Unit
    /// removes).
    Distributed {
        /// Reservation stations per functional unit.
        rs_per_fu: usize,
    },
    /// A central Tag Unit (capacity `tags`) holding tags only for
    /// currently active registers, with distributed reservation stations
    /// (§3.2.1, Figure 2).
    TagUnitDistributed {
        /// Reservation stations per functional unit.
        rs_per_fu: usize,
        /// Tag Unit entries.
        tags: usize,
    },
    /// Central Tag Unit + merged reservation-station pool (§3.2.2;
    /// stations are released when the instruction dispatches to a unit).
    Pooled {
        /// Stations in the merged pool.
        rs: usize,
        /// Tag Unit entries.
        tags: usize,
    },
    /// The RSTU (§3.2.3, Figure 4): one merged structure; an entry is
    /// both station and tag and is released at writeback.
    Merged {
        /// RSTU entries.
        entries: usize,
    },
}

impl WindowKind {
    /// How many instructions may hold a tag at once, if limited.
    fn tags(self) -> Option<usize> {
        match self {
            WindowKind::Distributed { .. } => None,
            WindowKind::TagUnitDistributed { tags, .. } | WindowKind::Pooled { tags, .. } => {
                Some(tags)
            }
            WindowKind::Merged { entries } => Some(entries),
        }
    }
}

/// The machine state captured when the RUU takes a precise interrupt.
#[derive(Debug, Clone)]
pub struct InterruptFrame {
    /// The precise register state: every instruction before the faulting
    /// one has updated it; none after (nor the faulting one) has.
    pub state: ArchState,
    /// The precise memory: committed stores only.
    pub memory: Memory,
    /// Program counter of the faulting instruction (restart point).
    pub resume_pc: u32,
    /// Architectural instructions (commits and resolved branches)
    /// completed before the interrupt: the faulting instruction's index.
    pub committed: u64,
    /// Cycle at which the interrupt was taken.
    pub cycle: u64,
}

/// Outcome of [`Ruu::run_with_exception`].
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// The program ran to completion (the designated instruction never
    /// committed — e.g. it was never reached).
    Completed(RunResult),
    /// The designated instruction reached the commit point and the
    /// interrupt was taken with this precise frame.
    Interrupted(InterruptFrame),
}

/// Configuration + entry point for the out-of-order simulator.
#[derive(Debug, Clone)]
pub struct Ruu {
    config: MachineConfig,
    retire: Retire,
}

/// Where results wait: the one thing separating the RUU from the tagged
/// mechanisms. Bypass and speculation exist only under in-order commit.
#[derive(Debug, Clone, Copy)]
enum Retire {
    /// Results wait in a FIFO window of `entries` until in-order commit.
    InOrder {
        entries: usize,
        bypass: Bypass,
        predictor: Option<PredictorConfig>,
    },
    /// Results go to the register file at completion.
    AtCompletion(WindowKind),
}

impl Ruu {
    /// Creates an RUU simulator with `entries` window entries and the
    /// given bypass policy; branches park in decode (§6.3).
    ///
    /// # Panics
    /// Panics if `entries` is zero.
    #[must_use]
    pub fn new(config: MachineConfig, entries: usize, bypass: Bypass) -> Self {
        assert!(entries > 0, "the RUU needs at least one entry");
        Ruu {
            config,
            retire: Retire::InOrder {
                entries,
                bypass,
                predictor: None,
            },
        }
    }

    /// Creates a tagged (§3) simulator: the same window, but results go to
    /// the register file at completion, organised as `kind`.
    ///
    /// # Panics
    /// Panics if any size in `kind` is zero: such a window can never
    /// accept an instruction.
    #[must_use]
    pub fn tagged(config: MachineConfig, kind: WindowKind) -> Self {
        let (stations, tags) = match kind {
            WindowKind::Distributed { rs_per_fu } => (rs_per_fu, 1),
            WindowKind::TagUnitDistributed {
                rs_per_fu: stations,
                tags,
            }
            | WindowKind::Pooled { rs: stations, tags } => (stations, tags),
            WindowKind::Merged { entries } => (entries, 1),
        };
        assert!(
            stations > 0 && tags > 0,
            "{kind:?}: every window size must be at least 1"
        );
        Ruu {
            config,
            retire: Retire::AtCompletion(kind),
        }
    }

    /// Speculates past unresolved branches with `predictor` (§7); each run
    /// builds a fresh predictor from this configuration.
    ///
    /// # Panics
    /// Panics if `predictor` fails [`PredictorConfig::validate`], or if
    /// this is a [`Ruu::tagged`] machine: speculation needs in-order
    /// commit.
    #[must_use]
    pub fn with_predictor(mut self, predictor: PredictorConfig) -> Self {
        if let Err(e) = predictor.validate() {
            panic!("invalid predictor configuration: {e}");
        }
        let Retire::InOrder { predictor: p, .. } = &mut self.retire else {
            panic!("speculation needs in-order commit");
        };
        *p = Some(predictor);
        self
    }

    /// Runs `program`, injecting an exception on the instruction with
    /// architectural index `fault_seq` (0-based over *all* dynamic
    /// instructions of the correct path, branches included). The exception
    /// is detected when the instruction reaches the head of the RUU, i.e.
    /// at the commit point, and the interrupt is precise.
    ///
    /// The designated instruction must not be a branch (branches resolve
    /// in the decode stage and cannot fault in this model).
    ///
    /// # Errors
    /// [`SimError::InstLimit`] if more than `limit` instructions issue;
    /// [`SimError::Deadlock`] on internal lack of progress (a bug).
    ///
    /// # Panics
    /// Panics on a [`Ruu::tagged`] machine, which has no commit point.
    pub fn run_with_exception(
        &self,
        program: &Program,
        mem: Memory,
        limit: u64,
        fault_seq: u64,
    ) -> Result<RunOutcome, SimError> {
        assert!(
            matches!(self.retire, Retire::InOrder { .. }),
            "precise interrupts need in-order commit"
        );
        let mut nobs = NullObserver;
        let state = ArchState::new();
        Core::new(self, state, mem, program, limit, Some(fault_seq), &mut nobs).run()
    }

    /// Runs until the dynamic instruction `probe_seq` has *executed*
    /// (updated machine state), then returns a snapshot of the
    /// architectural registers and memory at that moment. A tagged
    /// machine may show a younger store done while an older register write
    /// is not (imprecise); the RUU shows its committed prefix.
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
        let mut core = Core::new(self, ArchState::new(), mem, program, limit, None, &mut nobs);
        core.probe = Some(probe_seq);
        core.run()?;
        Ok(core.probe_result.take())
    }
}

impl IssueSimulator for Ruu {
    fn run_observed(
        &self,
        state: ArchState,
        mem: Memory,
        program: &Program,
        limit: u64,
        obs: &mut dyn PipelineObserver,
    ) -> Result<RunResult, SimError> {
        match Core::new(self, state, mem, program, limit, None, obs).run()? {
            RunOutcome::Completed(r) => Ok(r),
            RunOutcome::Interrupted(_) => unreachable!("no fault was injected"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemPhase {
    /// Not a memory operation.
    NotMem,
    /// In the address-generation queue, not yet matched against the load
    /// registers.
    AwaitingLr,
    /// Load, no match: waiting to dispatch to the memory unit.
    ToMemory,
    /// Load, matched a pending operation: waiting for its data.
    AwaitingData,
    /// Load with data in hand: waiting for a result-bus slot.
    Forwarding,
    /// Store with its address recorded: waiting for data + memory port.
    StorePending,
    /// Finished with the memory system.
    Done,
}

#[derive(Debug, Clone)]
struct Entry {
    seq: u64,
    /// Architectural index: `seq` less the wrong-path instructions
    /// squashed before this one issued.
    index: u64,
    pc: u32,
    inst: Inst,
    dst_tag: Option<Tag>,
    ops: [Operand; 2],
    /// Left its reservation station: sent to a unit, or (a forwarded
    /// load) booked the result bus.
    dispatched: bool,
    executed: bool,
    result: Option<u64>,
    ea: Option<u64>,
    mem_phase: MemPhase,
    lr_provider: bool,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// The entry's result appears on the result bus (ALU op or load).
    Finish(u64),
    /// A store's address+data have been handed to the memory port.
    StoreExec(u64),
}

#[derive(Debug, Clone, Copy, Default)]
struct FfEntry {
    value: u64,
    valid: bool,
}

/// An unresolved branch. A branch only *counts* architecturally when it
/// reaches the front of the queue, i.e. when it is itself known to be on
/// the correct path.
#[derive(Debug, Clone)]
struct BranchRecord {
    seq: u64,
    pc: u32,
    inst: Inst,
    /// The direction fetch followed: the actual outcome when the condition
    /// was known at decode, else the prediction; `None` while the branch
    /// is parked in decode (no predictor).
    assumed_taken: Option<bool>,
    cond: Operand,
    /// A future file at decode (restoring is conservative: a legitimate
    /// older broadcast in between re-arrives via the commit bus, so a
    /// stale-invalid entry only delays, never corrupts).
    ff: [FfEntry; 8],
}

struct Core<'a> {
    cfg: &'a MachineConfig,
    program: &'a Program,
    retire: Retire,
    /// Turns LI into a tag: the counter width under in-order commit; at
    /// completion there is no counter and every instance keeps its own tag.
    tag_mask: u64,
    limit: u64,
    fault_seq: Option<u64>,
    predictor: Option<Box<dyn Predictor>>,

    cycle: u64,
    arch: ArchState,
    mem: Memory,
    /// NI: instances of each register whose result the register file
    /// still awaits. In order that is every instance in the window; at
    /// completion it drops to zero when the latest instance writes back.
    ni: [u32; NUM_REGS],
    li: [u64; NUM_REGS],
    ff: [FfEntry; 8],
    /// In-flight instructions in program order.
    window: VecDeque<Entry>,
    branches: VecDeque<BranchRecord>,
    mem_queue: VecDeque<u64>,
    forward_queue: Vec<u64>,
    events: BTreeMap<u64, Vec<Event>>,
    lr: LoadRegUnit,
    fus: FuPool,
    bus: SlotReservation,
    dcache: DCache,
    broadcasts: Broadcasts,
    stats: RunStats,
    obs: &'a mut dyn PipelineObserver,

    pc: u32,
    next_fetch_cycle: u64,
    /// Fetch-stall cycles strictly before this cycle are misprediction
    /// repair (squash + redirect) rather than ordinary branch bubbles.
    repair_until: u64,
    halted: bool,

    /// Sequence number of the next instruction to issue (wrong-path
    /// instructions included).
    seq: u64,
    /// Instructions squashed so far (window entries and branches).
    squashed: u64,
    /// Architectural completions: commits (or, at completion, finished
    /// entries and Nops) + resolved branches.
    completed: u64,
    events_scheduled: u64,
    last_progress: (u64, u64),
    last_progress_cycle: u64,
    /// [`Ruu::snapshot_at_execute`]: the instruction to snapshot at, and
    /// the snapshot once taken.
    probe: Option<u64>,
    probe_result: Option<(ArchState, Memory)>,
}

impl<'a> Core<'a> {
    fn new(
        ruu: &'a Ruu,
        state: ArchState,
        mem: Memory,
        program: &'a Program,
        limit: u64,
        fault_seq: Option<u64>,
        obs: &'a mut dyn PipelineObserver,
    ) -> Self {
        let cfg = &ruu.config;
        let dcache = DCache::new(
            &cfg.dcache,
            cfg.fu_latency(FuClass::Memory),
            mem.len() as u64,
        );
        let (tag_mask, predictor) = match ruu.retire {
            Retire::InOrder { predictor, .. } => {
                ((1u64 << cfg.counter_bits) - 1, predictor.map(|p| p.build()))
            }
            Retire::AtCompletion(_) => (u64::MAX, None),
        };
        Core {
            cfg,
            program,
            retire: ruu.retire,
            tag_mask,
            limit,
            fault_seq,
            predictor,
            cycle: 0,
            pc: state.pc,
            arch: state,
            mem,
            ni: [0; NUM_REGS],
            li: [0; NUM_REGS],
            ff: [FfEntry::default(); 8],
            window: VecDeque::new(),
            branches: VecDeque::new(),
            mem_queue: VecDeque::new(),
            forward_queue: Vec::new(),
            events: BTreeMap::new(),
            lr: LoadRegUnit::new(cfg.load_registers),
            fus: FuPool::new(),
            bus: SlotReservation::new(cfg.result_buses),
            dcache,
            broadcasts: Broadcasts::default(),
            stats: RunStats::default(),
            obs,
            next_fetch_cycle: 0,
            repair_until: 0,
            halted: false,
            seq: 0,
            squashed: 0,
            completed: 0,
            events_scheduled: 0,
            last_progress: (0, 0),
            last_progress_cycle: 0,
            probe: None,
            probe_result: None,
        }
    }

    fn at_completion(&self) -> bool {
        matches!(self.retire, Retire::AtCompletion(_))
    }

    fn pos(&self, seq: u64) -> usize {
        self.window
            .iter()
            .position(|e| e.seq == seq)
            .expect("entry for live seq is in the window")
    }

    fn schedule(&mut self, cycle: u64, ev: Event) {
        self.events_scheduled += 1;
        self.events.entry(cycle).or_default().push(ev);
    }

    fn stall(&mut self, reason: StallReason) {
        self.stats.stall(reason);
        self.obs.stall(self.cycle, reason);
    }

    /// A broadcast on either bus gates waiting stations and waiting
    /// branches.
    fn gate_all(&mut self, tag: Tag, value: u64) {
        self.broadcasts.push(tag, value);
        for e in &mut self.window {
            for op in &mut e.ops {
                op.gate(tag, value);
            }
        }
        for b in &mut self.branches {
            b.cond.gate(tag, value);
        }
    }

    /// Broadcast on the result bus. The latest instance of a register also
    /// updates the A future file (in order; the RUU→register-file bus
    /// does not touch it) or the register file itself (at completion).
    fn broadcast_result(&mut self, tag: Tag, value: u64) {
        self.gate_all(tag, value);
        let r = tag.reg;
        if tag.instance != self.li[r.index()] & self.tag_mask {
            return;
        }
        match self.retire {
            Retire::InOrder { .. } => {
                if r.is_a() {
                    self.ff[r.num() as usize] = FfEntry { value, valid: true };
                }
            }
            Retire::AtCompletion(_) => {
                self.arch.set_reg(r, value);
                self.ni[r.index()] = 0;
            }
        }
    }

    /// A forwarded load received its data: queue its broadcast.
    fn wake_forwarded_load(&mut self, seq: u64, value: u64) {
        let i = self.pos(seq);
        let e = &mut self.window[i];
        debug_assert_eq!(e.mem_phase, MemPhase::AwaitingData);
        e.result = Some(value);
        e.mem_phase = MemPhase::Forwarding;
        self.forward_queue.push(seq);
        self.stats.forwarded_loads += 1;
    }

    /// At completion, a finished entry leaves the window at once.
    fn leave_at_completion(&mut self, i: usize) {
        self.window.remove(i);
        self.completed += 1;
    }

    /// A store updates memory and frees its load register.
    fn write_store(&mut self, seq: u64, ea: Option<u64>, data: u64) {
        self.mem
            .write(ea.expect("executed store has an address"), data);
        self.lr.retire(seq);
    }

    fn check_probe(&mut self, seq: u64) {
        if self.probe == Some(seq) && self.probe_result.is_none() {
            let mut state = self.arch.clone();
            state.pc = self.pc;
            self.probe_result = Some((state, self.mem.clone()));
        }
    }

    // ---- phase 1: completions --------------------------------------

    fn phase_completions(&mut self) {
        let Some(evs) = self.events.remove(&self.cycle) else {
            return;
        };
        for ev in evs {
            match ev {
                Event::Finish(seq) => {
                    self.obs.complete(self.cycle, seq);
                    let i = self.pos(seq);
                    let e = &mut self.window[i];
                    e.executed = true;
                    let dst_tag = e.dst_tag;
                    let value = e.result;
                    let is_load = e.inst.is_load();
                    let was_provider = e.lr_provider;
                    if is_load {
                        e.mem_phase = MemPhase::Done;
                    }
                    if self.at_completion() {
                        self.leave_at_completion(i);
                    }
                    if let Some(tag) = dst_tag {
                        let v = value.expect("finished producer has a result");
                        self.broadcast_result(tag, v);
                    }
                    if is_load {
                        if was_provider {
                            let v = value.expect("finished load has data");
                            for w in self.lr.provider_ready(seq, v) {
                                self.wake_forwarded_load(w, v);
                            }
                        }
                        self.lr.retire(seq);
                    }
                    self.check_probe(seq);
                }
                Event::StoreExec(seq) => {
                    self.obs.complete(self.cycle, seq);
                    let i = self.pos(seq);
                    let e = &mut self.window[i];
                    e.executed = true;
                    let (ea, data) = (e.ea, e.ops[1].value());
                    for w in self.lr.provider_ready(seq, data) {
                        self.wake_forwarded_load(w, data);
                    }
                    if self.at_completion() {
                        self.leave_at_completion(i);
                        self.write_store(seq, ea, data);
                    }
                    self.check_probe(seq);
                }
            }
        }
    }

    // ---- phase 2: memory address generation (in program order) ------

    fn phase_addr_gen(&mut self) {
        let Some(&seq) = self.mem_queue.front() else {
            return;
        };
        let i = self.pos(seq);
        let e = &self.window[i];
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
            return; // no free load register; retry next cycle
        };
        self.mem_queue.pop_front();
        let e = &mut self.window[i];
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

    // ---- phase 3: forwarded-load broadcasts ---------------------------

    fn phase_forwards(&mut self) {
        let lat = self.cfg.forward_latency;
        let mut remaining = Vec::new();
        for seq in std::mem::take(&mut self.forward_queue) {
            if self.bus.try_reserve(self.cycle + lat) {
                if self.at_completion() {
                    // Booking the bus is the load's dispatch: its station
                    // frees. In order nothing counts stations.
                    let i = self.pos(seq);
                    self.window[i].dispatched = true;
                }
                self.obs
                    .dispatch(self.cycle, seq, FuClass::Memory, self.cycle + lat);
                self.schedule(self.cycle + lat, Event::Finish(seq));
            } else {
                remaining.push(seq);
            }
        }
        self.forward_queue = remaining;
    }

    // ---- phase 4: dispatch to the functional units --------------------

    /// In order, a store writes memory at commit, which keeps memory
    /// updates in program order. At completion it writes when it
    /// executes, so it may do so only when every older memory operation
    /// that will *read architectural memory* has sampled it (dispatched),
    /// and every older store has already written. Without the first
    /// condition a younger store could clobber the word an older,
    /// bus-stalled load is about to read (WAR through memory).
    fn store_may_exec(&self, seq: u64) -> bool {
        !self.at_completion()
            || !self.window.iter().take_while(|e| e.seq < seq).any(|e| {
                !e.dispatched && matches!(e.mem_phase, MemPhase::ToMemory | MemPhase::StorePending)
            })
    }

    fn dispatchable(&self) -> Vec<(bool, u64)> {
        let mut out = Vec::new();
        for e in &self.window {
            if e.dispatched || e.executed {
                continue;
            }
            let ready = e.ops[0].is_ready() && e.ops[1].is_ready();
            match e.mem_phase {
                MemPhase::ToMemory => out.push((true, e.seq)),
                MemPhase::StorePending if ready && self.store_may_exec(e.seq) => {
                    out.push((true, e.seq));
                }
                MemPhase::NotMem if e.inst.fu_class().is_some() && ready => {
                    out.push((false, e.seq));
                }
                _ => {}
            }
        }
        // Load/store priority first (stable within each class = age order,
        // paper §5.1).
        out.sort_by_key(|&(is_mem, _)| !is_mem);
        out
    }

    fn phase_dispatch(&mut self) {
        // Distributed stations have a private path to their own unit; a
        // shared window shares `dispatch_paths` ports.
        let mut paths = match self.retire {
            Retire::AtCompletion(
                WindowKind::Distributed { .. } | WindowKind::TagUnitDistributed { .. },
            ) => u32::MAX,
            _ => self.cfg.dispatch_paths,
        };
        for (_, seq) in self.dispatchable() {
            if paths == 0 {
                break;
            }
            let i = self.pos(seq);
            let e = &self.window[i];
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
                        let e = &mut self.window[i];
                        e.result = Some(v);
                        e.dispatched = true;
                        self.obs
                            .dispatch(self.cycle, seq, FuClass::Memory, self.cycle + lat);
                        if self.dcache.is_finite() {
                            let plan = self.dcache.access(ea, self.cycle);
                            self.obs.mem_access(self.cycle, ea, plan.is_hit(), lat);
                        }
                        self.schedule(self.cycle + lat, Event::Finish(seq));
                        paths -= 1;
                    }
                }
                MemPhase::StorePending if self.fus.can_accept(FuClass::Memory, self.cycle) => {
                    self.fus.accept(FuClass::Memory, self.cycle);
                    self.window[i].dispatched = true;
                    let done = self.cycle + self.cfg.store_exec_latency;
                    self.obs.dispatch(self.cycle, seq, FuClass::Memory, done);
                    self.schedule(done, Event::StoreExec(seq));
                    paths -= 1;
                }
                MemPhase::NotMem => {
                    let fu = e.inst.fu_class().expect("ALU entry has a unit");
                    let lat = self.cfg.fu_latency(fu);
                    if self.fus.can_accept(fu, self.cycle) && self.bus.available(self.cycle + lat) {
                        self.fus.accept(fu, self.cycle);
                        self.bus.try_reserve(self.cycle + lat);
                        let e = &mut self.window[i];
                        let v = semantics::alu_result(
                            e.inst.opcode,
                            e.ops[0].value(),
                            e.ops[1].value(),
                            e.inst.imm,
                        );
                        e.result = Some(v);
                        e.dispatched = true;
                        self.obs.dispatch(self.cycle, seq, fu, self.cycle + lat);
                        self.schedule(self.cycle + lat, Event::Finish(seq));
                        paths -= 1;
                    }
                }
                _ => {}
            }
        }
    }

    // ---- phase 5: in-order commit --------------------------------------

    /// Commit stops at the oldest unresolved branch: a speculative
    /// instruction may execute but never update architectural state. A
    /// fault on the head instruction is taken here, so it is precise. At
    /// completion there is no commit stage: entries have already left.
    fn phase_commit(&mut self) -> Option<InterruptFrame> {
        if self.at_completion() {
            return None;
        }
        let boundary = self.branches.front().map_or(u64::MAX, |b| b.seq);
        for _ in 0..self.cfg.commit_width {
            let Some(head) = self.window.front() else {
                break;
            };
            if !head.executed || head.seq > boundary {
                break;
            }
            if self.fault_seq == Some(head.index) {
                // Precise interrupt: the faulting instruction does not
                // update any state; everything older already has.
                let mut state = self.arch.clone();
                state.pc = head.pc;
                return Some(InterruptFrame {
                    state,
                    memory: self.mem.clone(),
                    resume_pc: head.pc,
                    committed: self.completed,
                    cycle: self.cycle,
                });
            }
            let e = self.window.pop_front().expect("head exists");
            self.obs.commit(self.cycle, e.seq);
            if e.inst.is_store() {
                self.write_store(e.seq, e.ea, e.ops[1].value());
            }
            if let Some(tag) = e.dst_tag {
                let v = e.result.expect("executed producer has a result");
                self.arch.set_reg(tag.reg, v);
                self.ni[tag.reg.index()] -= 1;
                self.gate_all(tag, v);
            }
            self.completed += 1;
        }
        None
    }

    // ---- phase 6: branch resolution ------------------------------------

    /// Resolves, oldest first, the branches whose condition is available.
    /// Returns `true` if a parked branch resolved: that is the issue
    /// stage's work for this cycle.
    fn phase_resolve_branches(&mut self) -> bool {
        while let Some(b) = self.branches.front() {
            if !b.cond.is_ready() {
                break;
            }
            let b = self.branches.pop_front().expect("front exists");
            let taken = semantics::branch_taken(b.inst.opcode, b.cond.value());
            if let Some(p) = self.predictor.as_mut() {
                if b.inst.opcode.is_cond_branch() {
                    p.update(b.pc, taken);
                }
            }
            self.stats.branches += 1;
            if taken {
                self.stats.taken_branches += 1;
            }
            self.completed += 1;
            let actual_pc = if taken {
                b.inst.target.expect("branch has a target")
            } else {
                b.pc + 1
            };
            match b.assumed_taken {
                None => {
                    self.obs.issue(self.cycle, b.seq);
                    self.stats.issue_cycles += 1;
                    self.redirect(actual_pc, self.branch_penalty(taken));
                    return true;
                }
                Some(assumed) if assumed != taken => {
                    self.stats.mispredicted_branches += 1;
                    self.squash(&b);
                    // The current cycle and the `mispredict_penalty` cycles
                    // after it are all misprediction repair:
                    // `repair_stalls == flushes * (penalty + 1)` is the
                    // invariant `FlushAccountant` checks.
                    self.redirect(actual_pc, self.cfg.mispredict_penalty);
                    self.repair_until = self.next_fetch_cycle;
                    break; // younger branches were squashed with everything else
                }
                Some(_) => {}
            }
        }
        false
    }

    /// Nullifies every instruction younger than the mispredicted branch
    /// (paper §7: identify conditional instructions "and prevent them
    /// from being committed until they are proven to be from a correct
    /// path" — here they are removed outright).
    fn squash(&mut self, b: &BranchRecord) {
        // Window entries go youngest first, as the load registers require.
        let mut nullified = 0;
        while self.window.back().is_some_and(|e| e.seq > b.seq) {
            let e = self.window.pop_back().expect("back exists");
            self.lr.squash(e.seq);
            // Undo the instance the squashed instruction acquired. Only
            // issue advances LI, and every post-branch issue is squashed,
            // so this restores LI exactly; NI must not be restored from a
            // snapshot, since older instructions may have committed since.
            if let Some(tag) = e.dst_tag {
                self.ni[tag.reg.index()] -= 1;
                self.li[tag.reg.index()] -= 1;
            }
            nullified += 1;
        }
        self.stats.nullified += nullified;
        self.squashed += self.seq - b.seq - 1;
        self.obs.flush(self.cycle, nullified);
        self.mem_queue.retain(|&s| s <= b.seq);
        self.forward_queue.retain(|&s| s <= b.seq);
        for evs in self.events.values_mut() {
            evs.retain(|ev| match ev {
                Event::Finish(s) | Event::StoreExec(s) => *s <= b.seq,
            });
        }
        self.events.retain(|_, evs| !evs.is_empty());
        self.branches.clear(); // all younger than b
        self.ff = b.ff;
    }

    fn branch_penalty(&self, taken: bool) -> u64 {
        if taken {
            self.cfg.branch_taken_penalty
        } else {
            self.cfg.branch_untaken_penalty
        }
    }

    /// Fetch continues at `pc` after `delay` dead cycles.
    fn redirect(&mut self, pc: u32, delay: u64) {
        self.pc = pc;
        self.halted = false;
        self.next_fetch_cycle = self.cycle + 1 + delay;
    }

    // ---- phase 7: decode / issue ----------------------------------------

    fn read_operand(&self, r: Reg) -> Operand {
        if self.ni[r.index()] == 0 {
            return Operand::Ready(self.arch.reg(r));
        }
        let tag = Tag {
            reg: r,
            instance: self.li[r.index()] & self.tag_mask,
        };
        if let Some(v) = self.broadcasts.lookup(tag) {
            return Operand::Ready(v);
        }
        match self.retire {
            Retire::InOrder {
                bypass: Bypass::Full,
                ..
            } => self
                .window
                .iter()
                .find(|e| e.dst_tag == Some(tag) && e.executed)
                .map_or(Operand::Waiting(tag), |e| {
                    Operand::Ready(e.result.expect("executed producer has a result"))
                }),
            Retire::InOrder {
                bypass: Bypass::LimitedA,
                ..
            } if r.is_a() && self.ff[r.num() as usize].valid => {
                Operand::Ready(self.ff[r.num() as usize].value)
            }
            _ => Operand::Waiting(tag),
        }
    }

    /// Whether the window can take `inst`: a free entry in order; at
    /// completion, a free tag and a free station of the right kind (a
    /// Nop needs a tag slot but takes no station).
    fn has_room(&self, inst: &Inst) -> bool {
        let kind = match self.retire {
            Retire::InOrder { entries, .. } => return self.window.len() < entries,
            Retire::AtCompletion(kind) => kind,
        };
        if kind.tags().is_some_and(|tags| self.window.len() >= tags) {
            return false;
        }
        let Some(fu) = inst.fu_class() else {
            return true;
        };
        // Stations free at dispatch; the RSTU's entries are its tags.
        let stations = |unit: Option<FuClass>| {
            self.window
                .iter()
                .filter(|e| !e.dispatched && unit.is_none_or(|u| e.inst.fu_class() == Some(u)))
                .count()
        };
        match kind {
            WindowKind::Distributed { rs_per_fu }
            | WindowKind::TagUnitDistributed { rs_per_fu, .. } => stations(Some(fu)) < rs_per_fu,
            WindowKind::Pooled { rs, .. } => stations(None) < rs,
            WindowKind::Merged { .. } => true,
        }
    }

    fn phase_issue(&mut self) -> Result<(), SimError> {
        let reason = if self.halted {
            StallReason::Drained
        } else if self
            .branches
            .back()
            .is_some_and(|b| b.assumed_taken.is_none())
        {
            StallReason::BranchWait
        } else if self.cycle < self.next_fetch_cycle {
            if self.cycle < self.repair_until {
                StallReason::MispredictRepair
            } else {
                StallReason::DeadCycle
            }
        } else {
            match self.program.get(self.pc) {
                Some(&inst) if !inst.is_halt() => return self.issue(inst),
                // Decoding HALT (or running off the end) drains the machine.
                _ => {
                    self.halted = true;
                    StallReason::Drained
                }
            }
        };
        self.stall(reason);
        Ok(())
    }

    fn issue(&mut self, inst: Inst) -> Result<(), SimError> {
        // Under prediction fetch runs ahead down predicted paths, so the
        // budget counts architectural completions instead of issues.
        let count = if self.predictor.is_some() {
            self.completed
        } else {
            self.seq
        };
        if count >= self.limit {
            return Err(SimError::InstLimit { limit: self.limit });
        }
        self.obs.fetch(self.cycle, self.pc);
        if inst.is_branch() {
            self.issue_branch(inst);
            return Ok(());
        }
        if !self.has_room(&inst) {
            self.stall(StallReason::WindowFull);
            return Ok(());
        }
        if !self.at_completion()
            && inst
                .dst
                .is_some_and(|d| self.ni[d.index()] >= self.cfg.max_instances())
        {
            self.stall(StallReason::RegInstanceLimit);
            return Ok(());
        }
        if inst.is_mem() && self.lr.is_full() {
            self.stall(StallReason::LoadRegFull);
            return Ok(());
        }

        // Read source operands (value or tag).
        let ops = [
            inst.src1
                .map_or(Operand::Ready(0), |r| self.read_operand(r)),
            inst.src2
                .map_or(Operand::Ready(0), |r| self.read_operand(r)),
        ];
        // Acquire the destination instance.
        let dst_tag = inst.dst.map(|d| {
            self.ni[d.index()] += 1;
            self.li[d.index()] += 1;
            if d.is_a() {
                self.ff[d.num() as usize].valid = false;
            }
            Tag {
                reg: d,
                instance: self.li[d.index()] & self.tag_mask,
            }
        });
        let seq = self.seq;
        let is_mem = inst.is_mem();
        let no_fu = inst.fu_class().is_none(); // Nop
        if no_fu && self.at_completion() {
            // Nothing to complete: a Nop never takes an entry.
            self.completed += 1;
        } else {
            self.window.push_back(Entry {
                seq,
                index: seq - self.squashed,
                pc: self.pc,
                inst,
                dst_tag,
                ops,
                dispatched: no_fu,
                executed: no_fu,
                result: None,
                ea: None,
                mem_phase: if is_mem {
                    MemPhase::AwaitingLr
                } else {
                    MemPhase::NotMem
                },
                lr_provider: false,
            });
        }
        if is_mem {
            self.mem_queue.push_back(seq);
        }
        self.obs.issue(self.cycle, seq);
        self.seq += 1;
        self.stats.issue_cycles += 1;
        self.pc += 1;
        Ok(())
    }

    /// Decodes a branch. Fetch follows the actual direction if the
    /// condition is already known, the predictor's guess otherwise; with
    /// no predictor the branch parks in decode until its condition
    /// arrives (§6.3).
    fn issue_branch(&mut self, inst: Inst) {
        let cond = inst
            .src1
            .map_or(Operand::Ready(0), |r| self.read_operand(r));
        let target = inst.target.expect("branch has a target");
        let (assumed_taken, bubble) = match (cond, self.predictor.as_mut()) {
            (Operand::Ready(v), _) => {
                let taken = semantics::branch_taken(inst.opcode, v);
                (Some(taken), self.branch_penalty(taken))
            }
            (Operand::Waiting(_), Some(p)) => {
                self.stats.predicted_branches += 1;
                let taken = p.predict(self.pc, target);
                let bubble = if taken { self.cfg.spec_taken_bubble } else { 0 };
                (Some(taken), bubble)
            }
            (Operand::Waiting(_), None) => (None, 0),
        };
        self.branches.push_back(BranchRecord {
            seq: self.seq,
            pc: self.pc,
            inst,
            assumed_taken,
            cond,
            ff: self.ff,
        });
        match assumed_taken {
            Some(taken) => {
                self.obs.issue(self.cycle, self.seq);
                self.stats.issue_cycles += 1;
                let next = if taken { target } else { self.pc + 1 };
                self.redirect(next, bubble);
            }
            None => self.stall(StallReason::BranchWait),
        }
        self.seq += 1;
    }

    fn drained(&self) -> bool {
        self.halted
            && self.window.is_empty()
            && self.branches.is_empty()
            && self.mem_queue.is_empty()
            && self.forward_queue.is_empty()
            && self.events.is_empty()
    }

    fn run(&mut self) -> Result<RunOutcome, SimError> {
        loop {
            self.broadcasts.clear();
            let occ = self.window.len() as u32;
            self.stats.observe_occupancy(occ);

            self.phase_completions();
            self.phase_addr_gen();
            self.phase_forwards();
            self.phase_dispatch();
            if let Some(frame) = self.phase_commit() {
                return Ok(RunOutcome::Interrupted(frame));
            }
            if !self.phase_resolve_branches() {
                self.phase_issue()?;
            }

            let progress = (self.completed + self.seq, self.events_scheduled);
            if progress != self.last_progress {
                self.last_progress = progress;
                self.last_progress_cycle = self.cycle;
            } else if self.cycle - self.last_progress_cycle > 100_000 {
                // Nothing issued, committed, or entered the pipelines for
                // far longer than any latency in the machine: a bug.
                return Err(SimError::Deadlock { cycle: self.cycle });
            }

            self.obs.cycle_end(self.cycle, occ);
            self.cycle += 1;
            if self.drained() {
                break;
            }
            // Keep the reservation table small on long runs.
            if self.cycle.is_multiple_of(4096) {
                self.bus.release_before(self.cycle);
            }
        }

        let mut state = self.arch.clone();
        state.pc = self.pc;
        let cs = self.dcache.stats();
        self.stats.dcache_accesses = cs.accesses;
        self.stats.dcache_hits = cs.hits;
        self.stats.dcache_misses = cs.misses;
        Ok(RunOutcome::Completed(RunResult {
            cycles: self.cycle,
            instructions: self.completed,
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

    use crate::InOrder;

    fn cfg() -> MachineConfig {
        MachineConfig::paper()
    }

    fn run_bp(asm: &dyn Fn() -> Asm, entries: usize, bypass: Bypass) -> RunResult {
        let p = asm().assemble().unwrap();
        Ruu::new(cfg(), entries, bypass)
            .run(&p, Memory::new(1 << 12), 1_000_000)
            .unwrap()
    }

    fn golden(asm: &dyn Fn() -> Asm) -> Trace {
        let p = asm().assemble().unwrap();
        Trace::capture(&p, Memory::new(1 << 12), 1_000_000).unwrap()
    }

    #[test]
    fn straight_line_matches_golden() {
        let prog = || {
            let mut a = Asm::new("t");
            a.a_imm(Reg::a(1), 6);
            a.a_imm(Reg::a(2), 7);
            a.a_mul(Reg::a(3), Reg::a(1), Reg::a(2));
            a.a_to_s(Reg::s(1), Reg::a(3));
            a.halt();
            a
        };
        let g = golden(&prog);
        for bp in [Bypass::Full, Bypass::None, Bypass::LimitedA] {
            let r = run_bp(&prog, 8, bp);
            assert_eq!(r.instructions, g.len() as u64, "{bp:?}");
            assert_eq!(&r.state, g.final_state(), "{bp:?}");
            assert_eq!(&r.memory, g.final_memory(), "{bp:?}");
        }
    }

    #[test]
    fn out_of_order_execution_beats_simple_issue() {
        // A loop with a long-latency dependence chain plus independent
        // work: in steady state the RUU overlaps iterations while the
        // simple machine blocks in decode on every dependence.
        let prog = || {
            let mut a = Asm::new("t");
            let top = a.new_label();
            a.a_imm(Reg::a(0), 30);
            a.a_imm(Reg::a(1), 100);
            // Any nonzero bit pattern works: the chain's latency, not the
            // value, is what the test measures (and it must fit the 22-bit
            // SImm field, which `assemble` now checks).
            a.s_imm(Reg::s(1), 1 << 20);
            a.bind(top);
            a.ld_s(Reg::s(2), Reg::a(1), 0);
            a.f_mul(Reg::s(3), Reg::s(2), Reg::s(1));
            a.f_add(Reg::s(4), Reg::s(3), Reg::s(1));
            a.st_s(Reg::s(4), Reg::a(1), 64);
            a.a_add_imm(Reg::a(1), Reg::a(1), 1);
            a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
            a.br_an(top);
            a.halt();
            a
        };
        let p = prog().assemble().unwrap();
        let simple = InOrder::new(cfg())
            .run(&p, Memory::new(1 << 12), 1_000_000)
            .unwrap();
        let ruu = run_bp(&prog, 16, Bypass::Full);
        assert!(
            ruu.cycles < simple.cycles,
            "RUU {} vs simple {}",
            ruu.cycles,
            simple.cycles
        );
        assert_eq!(ruu.state, simple.state);
    }

    #[test]
    fn no_bypass_pays_for_early_completing_producers() {
        // Producer completes long before the consumer issues, but commits
        // late (stuck behind a long recip at the head). The consumer is a
        // branch, so the wait blocks the decode stage itself: with full
        // bypass the condition is read from the RUU; without bypass the
        // branch waits for the RUU→register-file bus (paper §6.3).
        let prog = || {
            let mut a = Asm::new("t");
            let skip = a.new_label();
            a.f_recip(Reg::s(1), Reg::s(0)); // head, 14 cycles
            a.a_imm(Reg::a(0), 0); // completes fast, commits late
            a.nop();
            a.nop();
            a.br_az(skip); // reads A0
            a.nop(); // skipped
            a.bind(skip);
            a.halt();
            a
        };
        let full = run_bp(&prog, 16, Bypass::Full);
        let none = run_bp(&prog, 16, Bypass::None);
        let limited = run_bp(&prog, 16, Bypass::LimitedA);
        assert!(
            none.cycles > full.cycles,
            "none {} should exceed full {}",
            none.cycles,
            full.cycles
        );
        // The branch reads an A register: the future file recovers the
        // full-bypass timing.
        assert_eq!(limited.cycles, full.cycles);
        assert_eq!(full.state, none.state);
        assert_eq!(full.state, limited.state);
    }

    #[test]
    fn limited_bypass_does_not_cover_s_registers() {
        let prog = || {
            let mut a = Asm::new("t");
            let skip = a.new_label();
            a.f_recip(Reg::s(1), Reg::s(1)); // head blocker
            a.s_imm(Reg::s(0), 0); // fast producer, S file
            a.nop();
            a.nop();
            a.br_sz(skip); // consumer of S0: no future file for S
            a.nop(); // skipped
            a.bind(skip);
            a.halt();
            a
        };
        let full = run_bp(&prog, 16, Bypass::Full);
        let limited = run_bp(&prog, 16, Bypass::LimitedA);
        assert!(limited.cycles > full.cycles);
    }

    #[test]
    fn store_load_forwarding_avoids_memory_latency() {
        let prog = || {
            let mut a = Asm::new("t");
            a.a_imm(Reg::a(1), 100);
            a.s_imm(Reg::s(1), 77);
            a.st_s(Reg::s(1), Reg::a(1), 0);
            a.ld_s(Reg::s(2), Reg::a(1), 0); // same address: forwarded
            a.s_add(Reg::s(3), Reg::s(2), Reg::s(2));
            a.halt();
            a
        };
        let r = run_bp(&prog, 16, Bypass::Full);
        assert_eq!(r.stats.forwarded_loads, 1);
        assert_eq!(r.state.reg(Reg::s(3)), 154);
        assert_eq!(r.memory.read(100), 77);
    }

    #[test]
    fn loads_to_different_addresses_use_memory() {
        let prog = || {
            let mut a = Asm::new("t");
            a.a_imm(Reg::a(1), 100);
            a.ld_s(Reg::s(1), Reg::a(1), 0);
            a.ld_s(Reg::s(2), Reg::a(1), 1);
            a.halt();
            a
        };
        let r = run_bp(&prog, 16, Bypass::Full);
        assert_eq!(r.stats.forwarded_loads, 0);
    }

    #[test]
    fn window_full_blocks_issue() {
        let prog = || {
            let mut a = Asm::new("t");
            for i in 1..7 {
                a.f_recip(Reg::s(i), Reg::s(0));
            }
            a.halt();
            a
        };
        let r = run_bp(&prog, 3, Bypass::Full);
        assert!(r.stats.stalls(StallReason::WindowFull) > 0);
    }

    #[test]
    fn instance_limit_blocks_issue() {
        // 8 writes to the same register with 3-bit counters (max 7
        // in-flight instances): the 8th must stall while the window is
        // large enough to hold them all.
        let prog = || {
            let mut a = Asm::new("t");
            for _ in 0..8 {
                a.f_recip(Reg::s(1), Reg::s(0));
            }
            a.halt();
            a
        };
        let p = prog().assemble().unwrap();
        let r = Ruu::new(cfg(), 30, Bypass::Full)
            .run(&p, Memory::new(1 << 12), 1_000_000)
            .unwrap();
        assert!(r.stats.stalls(StallReason::RegInstanceLimit) > 0);
    }

    #[test]
    fn loop_with_memory_matches_golden_all_modes() {
        let prog = || {
            let mut a = Asm::new("t");
            let top = a.new_label();
            a.a_imm(Reg::a(0), 10);
            a.a_imm(Reg::a(1), 200);
            a.s_imm(Reg::s(1), 1);
            a.bind(top);
            a.ld_s(Reg::s(2), Reg::a(1), 0);
            a.s_add(Reg::s(2), Reg::s(2), Reg::s(1));
            a.st_s(Reg::s(2), Reg::a(1), 0);
            a.st_s(Reg::s(2), Reg::a(1), 1);
            a.ld_s(Reg::s(3), Reg::a(1), 1);
            a.s_add(Reg::s(4), Reg::s(3), Reg::s(2));
            a.a_add_imm(Reg::a(1), Reg::a(1), 1);
            a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
            a.br_an(top);
            a.halt();
            a
        };
        let g = golden(&prog);
        for bp in [Bypass::Full, Bypass::None, Bypass::LimitedA] {
            for entries in [3, 4, 8, 30] {
                let r = run_bp(&prog, entries, bp);
                assert_eq!(r.instructions, g.len() as u64, "{bp:?}/{entries}");
                assert_eq!(&r.state, g.final_state(), "{bp:?}/{entries}");
                assert_eq!(&r.memory, g.final_memory(), "{bp:?}/{entries}");
            }
        }
    }

    #[test]
    fn bigger_window_is_not_slower() {
        let prog = || {
            let mut a = Asm::new("t");
            let top = a.new_label();
            a.a_imm(Reg::a(0), 20);
            a.a_imm(Reg::a(1), 300);
            a.bind(top);
            a.ld_s(Reg::s(1), Reg::a(1), 0);
            a.f_add(Reg::s(2), Reg::s(1), Reg::s(2));
            a.f_mul(Reg::s(3), Reg::s(1), Reg::s(1));
            a.st_s(Reg::s(3), Reg::a(1), 64);
            a.a_add_imm(Reg::a(1), Reg::a(1), 1);
            a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
            a.br_an(top);
            a.halt();
            a
        };
        let small = run_bp(&prog, 4, Bypass::Full);
        let big = run_bp(&prog, 30, Bypass::Full);
        assert!(big.cycles <= small.cycles);
    }

    #[test]
    fn precise_interrupt_state_matches_golden_boundary() {
        let prog = || {
            let mut a = Asm::new("t");
            a.a_imm(Reg::a(1), 100);
            a.s_imm(Reg::s(1), 5);
            a.st_s(Reg::s(1), Reg::a(1), 0);
            a.f_recip(Reg::s(2), Reg::s(1));
            a.s_imm(Reg::s(3), 9); // completes before recip, commits after
            a.st_s(Reg::s(3), Reg::a(1), 1);
            a.halt();
            a
        };
        let p = prog().assemble().unwrap();
        // Fault on seq 4 (the s_imm S3).
        let outcome = Ruu::new(cfg(), 16, Bypass::Full)
            .run_with_exception(&p, Memory::new(1 << 12), 1_000_000, 4)
            .unwrap();
        let RunOutcome::Interrupted(frame) = outcome else {
            panic!("expected an interrupt");
        };
        let (gs, gm) = ruu_exec::golden_state_at(&p, Memory::new(1 << 12), 4).unwrap();
        assert_eq!(frame.state.regs, gs.regs);
        assert_eq!(frame.state.pc, gs.pc);
        assert_eq!(frame.memory, gm);
        assert_eq!(frame.committed, 4);
        // S3 must NOT be written, the later store must not have happened.
        assert_eq!(frame.state.reg(Reg::s(3)), 0);
        assert_eq!(frame.memory.read(101), 0);
        // But everything older must be architectural despite the pending recip.
        assert_eq!(frame.memory.read(100), 5);
    }

    #[test]
    fn resume_after_interrupt_reaches_golden_final_state() {
        let prog = || {
            let mut a = Asm::new("t");
            let top = a.new_label();
            a.a_imm(Reg::a(0), 6);
            a.a_imm(Reg::a(1), 400);
            a.bind(top);
            a.ld_s(Reg::s(1), Reg::a(1), 0);
            a.s_add(Reg::s(2), Reg::s(2), Reg::s(1));
            a.st_s(Reg::s(2), Reg::a(1), 8);
            a.a_add_imm(Reg::a(1), Reg::a(1), 1);
            a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
            a.br_an(top);
            a.halt();
            a
        };
        let p = prog().assemble().unwrap();
        let g = golden(&prog);
        let sim = Ruu::new(cfg(), 10, Bypass::Full);
        let outcome = sim
            .run_with_exception(&p, Memory::new(1 << 12), 1_000_000, 12)
            .unwrap();
        let RunOutcome::Interrupted(frame) = outcome else {
            panic!("expected an interrupt");
        };
        // "Handle" the fault (nothing to do for this test) and resume.
        let resumed = sim
            .run_observed(frame.state, frame.memory, &p, 1_000_000, &mut NullObserver)
            .unwrap();
        assert_eq!(&resumed.state, g.final_state());
        assert_eq!(&resumed.memory, g.final_memory());
    }

    #[test]
    fn branch_condition_waits_without_deadlock_in_no_bypass() {
        // The branch condition chain goes through a B-register transfer —
        // the exact §6.3 pathology. Must terminate and match golden.
        let prog = || {
            let mut a = Asm::new("t");
            let top = a.new_label();
            a.a_imm(Reg::a(2), 3);
            a.bind(top);
            a.a_to_b(Reg::b(1), Reg::a(2));
            a.a_sub_imm(Reg::a(2), Reg::a(2), 1);
            a.b_to_a(Reg::a(0), Reg::b(1));
            a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
            a.br_an(top);
            a.halt();
            a
        };
        let g = golden(&prog);
        for bp in [Bypass::Full, Bypass::None, Bypass::LimitedA] {
            let r = run_bp(&prog, 8, bp);
            assert_eq!(&r.state, g.final_state(), "{bp:?}");
        }
    }

    /// Records every pipeline event per dynamic instruction.
    #[derive(Default)]
    struct Lifetimes {
        issued: Vec<u64>,
        dispatched: Vec<u64>,
        completed: Vec<(u64, u64)>,
        committed: Vec<(u64, u64)>,
    }

    impl PipelineObserver for Lifetimes {
        fn issue(&mut self, _cycle: u64, seq: u64) {
            self.issued.push(seq);
        }
        fn dispatch(&mut self, _cycle: u64, seq: u64, _fu: FuClass, _complete_at: u64) {
            self.dispatched.push(seq);
        }
        fn complete(&mut self, cycle: u64, seq: u64) {
            self.completed.push((seq, cycle));
        }
        fn commit(&mut self, cycle: u64, seq: u64) {
            self.committed.push((seq, cycle));
        }
    }

    fn count(v: &[u64], seq: u64) -> usize {
        v.iter().filter(|&&s| s == seq).count()
    }

    #[test]
    fn observer_sees_every_instruction_through_the_pipeline() {
        let p = mispredicting_program();
        let mem = mispredicting_memory();
        for sim in [
            Ruu::new(cfg(), 8, Bypass::Full),
            Ruu::new(cfg(), 8, Bypass::Full).with_predictor(PredictorConfig::default()),
        ] {
            let mut obs = Lifetimes::default();
            let r = sim
                .run_observed(ArchState::new(), mem.clone(), &p, 10_000, &mut obs)
                .unwrap();
            let speculating = matches!(
                sim.retire,
                Retire::InOrder {
                    predictor: Some(_),
                    ..
                }
            );
            assert_eq!(speculating, r.stats.nullified > 0);
            // Every instruction issues once; window entries that commit
            // were dispatched and completed exactly once, in program
            // order, and never commit before they complete.
            let mut issued = obs.issued.clone();
            issued.sort_unstable();
            issued.dedup();
            assert_eq!(issued.len(), obs.issued.len());
            assert_eq!(
                obs.committed.len() as u64 + r.stats.branches,
                r.instructions
            );
            let commits: Vec<u64> = obs.committed.iter().map(|&(s, _)| s).collect();
            assert!(commits.windows(2).all(|w| w[0] < w[1]));
            let completes: Vec<u64> = obs.completed.iter().map(|&(s, _)| s).collect();
            for &(seq, at) in &obs.committed {
                assert_eq!(count(&obs.issued, seq), 1);
                assert_eq!(count(&obs.dispatched, seq), 1, "seq {seq}");
                assert_eq!(count(&completes, seq), 1, "seq {seq}");
                let done = obs.completed.iter().find(|&&(s, _)| s == seq).unwrap().1;
                assert!(
                    at >= done,
                    "seq {seq} commits at {at} before completing at {done}"
                );
            }
            // Without speculation nothing is issued that does not count.
            if !speculating {
                assert_eq!(obs.issued.len() as u64, r.instructions);
            }
        }
    }

    #[test]
    fn interrupt_never_taken_completes() {
        let prog = || {
            let mut a = Asm::new("t");
            a.a_imm(Reg::a(1), 1);
            a.halt();
            a
        };
        let p = prog().assemble().unwrap();
        let outcome = Ruu::new(cfg(), 8, Bypass::Full)
            .run_with_exception(&p, Memory::new(1 << 12), 1_000_000, 999)
            .unwrap();
        assert!(matches!(outcome, RunOutcome::Completed(_)));
    }

    fn mispredicting_program() -> Program {
        // An alternating, slowly-resolving branch direction defeats the
        // predictor regularly.
        let mut a = Asm::new("t2");
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
        a.assemble().unwrap()
    }

    fn mispredicting_memory() -> Memory {
        let mut mem = Memory::new(1 << 12);
        for i in 0..20 {
            mem.write(500 + i, i % 2);
        }
        mem
    }

    fn spec(entries: usize, bypass: Bypass, predictor: PredictorConfig) -> Ruu {
        Ruu::new(cfg(), entries, bypass).with_predictor(predictor)
    }

    #[test]
    fn speculation_matches_golden_with_every_predictor() {
        let prog = || {
            let mut a = Asm::new("t");
            let top = a.new_label();
            a.a_imm(Reg::a(0), 25);
            a.a_imm(Reg::a(1), 100);
            a.bind(top);
            a.ld_s(Reg::s(1), Reg::a(1), 0);
            a.f_add(Reg::s(2), Reg::s(1), Reg::s(2));
            a.st_s(Reg::s(2), Reg::a(1), 64);
            a.a_add_imm(Reg::a(1), Reg::a(1), 1);
            a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
            a.br_an(top);
            a.halt();
            a
        };
        let p = prog().assemble().unwrap();
        let g = golden(&prog);
        for pred in [
            PredictorConfig::AlwaysTaken,
            PredictorConfig::Btfn,
            PredictorConfig::default(),
        ] {
            let r = spec(16, Bypass::Full, pred)
                .run(&p, Memory::new(1 << 12), 1_000_000)
                .unwrap();
            assert_eq!(&r.state, g.final_state(), "{pred}");
            assert_eq!(&r.memory, g.final_memory(), "{pred}");
            assert_eq!(r.instructions, g.len() as u64, "{pred}");
        }
    }

    #[test]
    fn speculation_beats_the_blocking_ruu_when_conditions_are_slow() {
        // The branch condition comes from a load, so the non-speculative
        // machine parks in decode every iteration while the predictor
        // sails through.
        let mut a = Asm::new("t");
        let top = a.new_label();
        let done = a.new_label();
        a.a_imm(Reg::a(1), 0); // index
        a.bind(top);
        a.ld_a(Reg::a(0), Reg::a(1), 600); // condition from memory (slow)
        a.ld_s(Reg::s(2), Reg::a(1), 200);
        a.f_mul(Reg::s(2), Reg::s(2), Reg::s(2));
        a.st_s(Reg::s(2), Reg::a(1), 400);
        a.a_add_imm(Reg::a(1), Reg::a(1), 1);
        a.br_az(done); // waits on the load in the blocking machine
        a.jump(top);
        a.bind(done);
        a.halt();
        let p = a.assemble().unwrap();
        let mut mem = Memory::new(1 << 12);
        for i in 0..40 {
            mem.write(600 + i, 1); // loop continues while nonzero
        }
        mem.write(640, 0);

        let base = Ruu::new(cfg(), 16, Bypass::Full)
            .run(&p, mem.clone(), 1_000_000)
            .unwrap();
        let spec = spec(16, Bypass::Full, PredictorConfig::default())
            .run(&p, mem.clone(), 1_000_000)
            .unwrap();
        assert_eq!(spec.state.regs, base.state.regs);
        assert_eq!(spec.memory, base.memory);
        assert!(
            spec.cycles < base.cycles,
            "spec {} vs blocking {}",
            spec.cycles,
            base.cycles
        );
        assert!(spec.stats.predicted_branches > 0);
        // The exit iteration (br_az finally taken) is the misprediction.
        assert!(spec.stats.mispredicted_branches >= 1);
        assert!(spec.stats.nullified > 0);
        assert_eq!(base.stats.predicted_branches, 0);
        assert_eq!(base.stats.nullified, 0);
    }

    #[test]
    fn mispredictions_are_architecturally_invisible() {
        let p = mispredicting_program();
        let mem = mispredicting_memory();
        let g = Trace::capture(&p, mem.clone(), 1_000_000).unwrap();
        for bypass in [Bypass::Full, Bypass::None, Bypass::LimitedA] {
            let r = spec(12, bypass, PredictorConfig::default())
                .run(&p, mem.clone(), 1_000_000)
                .unwrap();
            assert_eq!(&r.state, g.final_state(), "{bypass:?}");
            assert_eq!(&r.memory, g.final_memory(), "{bypass:?}");
            assert!(
                r.stats.mispredicted_branches > 0,
                "{bypass:?} must mispredict"
            );
        }
    }

    #[test]
    fn livermore_kernel_runs_speculatively_and_verifies() {
        let w = ruu_workloads::livermore::lll5();
        let r = spec(16, Bypass::Full, PredictorConfig::default())
            .run(&w.program, w.memory.clone(), w.inst_limit)
            .unwrap();
        w.verify(&r.memory).unwrap();
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
            let r = Ruu::tagged(cfg(), kind)
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
        let simple = InOrder::new(cfg())
            .run(&p, Memory::new(1 << 12), 1_000_000)
            .unwrap();
        let rstu = Ruu::tagged(cfg(), WindowKind::Merged { entries: 20 })
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
            let r = Ruu::tagged(cfg(), kind)
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
            let r = Ruu::tagged(cfg(), kind)
                .run(&p, Memory::new(1 << 12), 1_000_000)
                .unwrap();
            assert_eq!(r.memory.read(64), g.final_memory().read(64), "{kind:?}");
        }
    }

    #[test]
    fn rstu_small_window_stalls() {
        let p = loop_prog().assemble().unwrap();
        let r = Ruu::tagged(cfg(), WindowKind::Merged { entries: 3 })
            .run(&p, Memory::new(1 << 12), 1_000_000)
            .unwrap();
        assert!(r.stats.stalls(StallReason::WindowFull) > 0);
    }

    #[test]
    fn two_dispatch_paths_help_a_little() {
        let p = loop_prog().assemble().unwrap();
        let one = Ruu::tagged(cfg(), WindowKind::Merged { entries: 10 })
            .run(&p, Memory::new(1 << 12), 1_000_000)
            .unwrap();
        let two = Ruu::tagged(
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
        let snap = Ruu::tagged(cfg(), WindowKind::Merged { entries: 8 })
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
        let r = Ruu::tagged(cfg(), WindowKind::Distributed { rs_per_fu: 1 })
            .run(&p, Memory::new(1 << 12), 1_000_000)
            .unwrap();
        assert!(r.stats.stalls(StallReason::WindowFull) > 0);
        assert_eq!(r.state.reg(Reg::a(1)), 7);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_rs_per_fu_tomasulo_is_rejected() {
        let _ = Ruu::tagged(cfg(), WindowKind::Distributed { rs_per_fu: 0 });
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_rs_per_fu_tag_unit_is_rejected() {
        let _ = Ruu::tagged(
            cfg(),
            WindowKind::TagUnitDistributed {
                rs_per_fu: 0,
                tags: 8,
            },
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_tags_tag_unit_is_rejected() {
        let _ = Ruu::tagged(
            cfg(),
            WindowKind::TagUnitDistributed {
                rs_per_fu: 2,
                tags: 0,
            },
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_rs_pool_is_rejected() {
        let _ = Ruu::tagged(cfg(), WindowKind::Pooled { rs: 0, tags: 8 });
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_tags_pool_is_rejected() {
        let _ = Ruu::tagged(cfg(), WindowKind::Pooled { rs: 8, tags: 0 });
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_entry_rstu_is_rejected() {
        let _ = Ruu::tagged(cfg(), WindowKind::Merged { entries: 0 });
    }

    #[test]
    #[should_panic(expected = "in-order commit")]
    fn tagged_machines_do_not_speculate() {
        let _ = Ruu::tagged(cfg(), WindowKind::Merged { entries: 8 })
            .with_predictor(PredictorConfig::default());
    }
}
