//! The direct pass: the engine's units run one by one from this file,
//! each layer call wrapped in a span, every result checked. It is the
//! benchmark's correctness oracle on every run and the source of the
//! per-layer metrics on a traced run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ruu::analysis::dataflow_bound;
use ruu::engine::json::JsonWriter;
use ruu::exec::{ArchState, Executor, Trace};
use ruu::issue::{Bypass, Mechanism};
use ruu::precise::{fault_points, FaultKind};
use ruu::predict::{cbp, BranchStream, PredictorConfig};
use ruu::sim::{DCache, DCacheConfig, MachineConfig, StallHistogram, StallReason};

use crate::stats::quantile;
use crate::timed::{panic_message, run_check, CheckOutcome, JobOutput};
use crate::workloads::{Bench, GEOMETRIES, PREDICTORS};

/// One recorded interval. Times are nanoseconds since the tracer began.
pub struct Span {
    pub name: String,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

/// Spans kept in memory and written out when the benchmark ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self) {
        let id = self.open.pop().expect("end matches a begin");
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span; returns its value and the span's id.
    pub fn leaf<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> (T, usize) {
        let id = self.begin(name);
        let out = f();
        self.end();
        (out, id)
    }

    pub fn secs(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end - s.start) as f64 * 1e-9
    }

    /// Each span's duration minus the time its children cover, seconds.
    pub fn self_secs(&self) -> Vec<f64> {
        let mut out: Vec<f64> = (0..self.spans.len()).map(|i| self.secs(i)).collect();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                out[p] -= self.secs(i);
            }
        }
        out
    }

    /// Total self time of every span named `name`.
    pub fn self_total(&self, name: &str) -> f64 {
        let selfs = self.self_secs();
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum()
    }

    /// Durations of every span named `name`, seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.secs(i))
            .collect()
    }

    /// The spans as a JSON array of `{id, name, start_ns, end_ns,
    /// parent, self_ns}` objects.
    pub fn to_json(&self) -> String {
        let selfs = self.self_secs();
        let mut w = JsonWriter::new();
        w.begin_array();
        for (i, s) in self.spans.iter().enumerate() {
            w.begin_object();
            w.key("id").u64(i as u64);
            w.key("name").string(&s.name);
            w.key("start_ns").u64(s.start);
            w.key("end_ns").u64(s.end);
            match s.parent {
                Some(p) => w.key("parent").u64(p as u64),
                None => w.key("parent").f64(f64::NAN), // renders as null
            };
            w.key("self_ns").f64((selfs[i] * 1e9).round());
            w.end_object();
        }
        w.end_array();
        w.finish()
    }
}

/// The issue family a mechanism's simulator belongs to.
pub fn family(m: &Mechanism) -> &'static str {
    match m {
        Mechanism::Simple => "simple",
        Mechanism::Tomasulo { .. }
        | Mechanism::TagUnitDistributed { .. }
        | Mechanism::RsPool { .. }
        | Mechanism::Rstu { .. } => "tagged",
        Mechanism::Ruu { .. } => "ruu",
        Mechanism::InOrderPrecise { .. } => "reorder",
        Mechanism::SpecRuu { .. } => "spec_ruu",
    }
}

pub const FAMILIES: [&str; 5] = ["simple", "tagged", "ruu", "reorder", "spec_ruu"];

/// What a traced pass runs in place of the speculative RUU on a workload
/// whose grid lacks it. Every other family runs on every workload.
const SPEC_RUU_STAND_IN: Mechanism = Mechanism::SpecRuu {
    entries: 15,
    bypass: Bypass::Full,
    predictor: PredictorConfig::TwoBit { entries: 64 },
};

/// One simulated unit of the direct pass.
pub struct UnitRecord {
    pub family: &'static str,
    /// The span around `build(..).run_observed(..)`.
    pub span: usize,
    pub cycles: u64,
    pub instructions: u64,
    pub bound: u64,
    pub flush_cycles: u64,
}

/// Everything the direct pass produced.
pub struct Pass {
    pub tracer: Tracer,
    pub units: Vec<UnitRecord>,
    /// Per-job output, aggregated as the engine does.
    pub jobs: Vec<JobOutput>,
    pub checks: Vec<CheckOutcome>,
    /// Dynamic instructions of one golden run of every program.
    pub golden_instructions: u64,
    pub probes: Option<Probes>,
    pub failures: Vec<String>,
    pub attempted: u64,
    /// The span covering the memo fills and every grid unit.
    pub grid_span: usize,
    /// The span covering the workload's precise-interrupt checks.
    pub checks_span: usize,
}

impl Pass {
    /// Runs every unit the engine would run for `bench` (memo fills,
    /// then job × program units), then every precise-interrupt check,
    /// then, if `probes`, the stand-ins and the per-layer replays.
    pub fn run(bench: &Bench, probes: bool) -> Pass {
        let mut p = Pass {
            tracer: Tracer::new(),
            units: Vec::new(),
            jobs: Vec::new(),
            checks: Vec::new(),
            golden_instructions: 0,
            probes: None,
            failures: Vec::new(),
            attempted: 0,
            grid_span: 0,
            checks_span: 0,
        };
        let configs = bench.configs();
        let mut traces = Vec::new();
        p.grid_span = p.tracer.begin("grid");
        // Golden instruction counts and bounds per (config, program). The
        // engine fills baselines before bounds; here the bounds come first
        // so the baseline units can be held to them too.
        let mut golden: Vec<Vec<Option<(u64, u64)>>> = Vec::new();
        for cfg in &configs {
            p.tracer.begin("engine.memo_fill");
            let mut row = Vec::new();
            for w in bench.suite.iter() {
                let (trace, _) = p.tracer.leaf("exec.capture", || {
                    Trace::capture(&w.program, w.memory.clone(), w.inst_limit)
                });
                match trace {
                    Ok(t) => {
                        let (b, _) = p
                            .tracer
                            .leaf("analysis.bound", || dataflow_bound(&t, cfg).bound);
                        row.push(Some((t.len() as u64, b)));
                        if traces.len() < bench.suite.len() {
                            traces.push(t);
                        }
                    }
                    Err(e) => {
                        p.failures.push(format!("golden run of {}: {e}", w.name));
                        row.push(None);
                    }
                }
            }
            for (prog, &g) in row.iter().enumerate() {
                p.unit(bench, "baseline(simple)", Mechanism::Simple, cfg, prog, g);
            }
            golden.push(row);
            p.tracer.end();
        }
        for job in &bench.jobs {
            let c = configs
                .iter()
                .position(|c| *c == job.config)
                .expect("configs() covers every job");
            let mut out = JobOutput::default();
            for (prog, &g) in golden[c].iter().enumerate() {
                if let Some((r, hist)) =
                    p.unit(bench, &job.label, job.mechanism, &job.config, prog, g)
                {
                    out.absorb(&r, &hist);
                }
            }
            p.jobs.push(out);
        }
        p.tracer.end();

        p.checks_span = p.tracer.begin("checks");
        for &check in &bench.checks {
            let outcome = p.check(bench, check);
            p.checks.push(outcome);
        }
        p.tracer.end();

        p.golden_instructions = traces.iter().map(|t| t.len() as u64).sum();
        if probes {
            p.stand_ins(bench, &configs[0], &golden[0], &traces);
            p.probes = Some(Probes::run(&mut p.tracer, bench, &traces));
        }
        p
    }

    /// Runs, under the first configuration, the layers the workload's
    /// grid and checks leave out, so every per-layer metric has samples:
    /// [`SPEC_RUU_STAND_IN`] over every program, and precise-interrupt
    /// checks a third and two thirds of the way through each program. Their results are
    /// checked like any unit's but stay out of the digest.
    fn stand_ins(
        &mut self,
        bench: &Bench,
        config: &MachineConfig,
        golden: &[Option<(u64, u64)>],
        traces: &[Trace],
    ) {
        self.tracer.begin("stand_ins");
        if self.units.iter().all(|u| u.family != "spec_ruu") {
            let label = format!("stand-in {SPEC_RUU_STAND_IN}");
            for (prog, &g) in golden.iter().enumerate() {
                self.unit(bench, &label, SPEC_RUU_STAND_IN, config, prog, g);
            }
        }
        // `traces` lines up with the programs unless a golden run failed,
        // which is already a counted failure.
        if bench.checks.is_empty() && traces.len() == bench.suite.len() {
            for (prog, t) in traces.iter().enumerate() {
                let points = fault_points(t, FaultKind::Any);
                for k in [1, 2] {
                    if let Some(&seq) = points.get(points.len() * k / 3) {
                        // A failing stand-in check is already counted.
                        let _ = self.check(bench, (prog, seq));
                    }
                }
            }
        }
        self.tracer.end();
    }

    /// Runs and checks one precise-interrupt experiment.
    fn check(&mut self, bench: &Bench, (prog, fault_seq): (usize, u64)) -> CheckOutcome {
        let (outcome, _) = self
            .tracer
            .leaf("precise.check", || run_check(bench, (prog, fault_seq)));
        self.attempted += 1;
        let why = match &outcome {
            Ok(r) if r.all_precise() => None,
            Ok(r) => Some(format!("imprecise: {r:?}")),
            Err(e) => Some(e.clone()),
        };
        if let Some(why) = why {
            let name = bench.suite[prog].name;
            self.failures
                .push(format!("check {name}@{fault_seq}: {why}"));
        }
        outcome
    }

    /// Runs and checks one (mechanism, config, program) unit as the
    /// engine's worker does: clone the memory, build and run the
    /// simulator under a stall histogram, verify. `golden` is the
    /// program's `(instruction count, dataflow bound)` under `config`.
    fn unit(
        &mut self,
        bench: &Bench,
        label: &str,
        mechanism: Mechanism,
        config: &MachineConfig,
        prog: usize,
        golden: Option<(u64, u64)>,
    ) -> Option<(ruu::sim::RunResult, StallHistogram)> {
        let w = &bench.suite[prog];
        self.attempted += 1;
        let fail = |why: String| format!("{label} on {}: {why}", w.name);
        self.tracer.begin("unit");
        let (mem, _) = self.tracer.leaf("exec.mem_clone", || w.memory.clone());
        let mut hist = StallHistogram::default();
        let (run, span) = self
            .tracer
            .leaf(format!("issue.{}", family(&mechanism)), || {
                catch_unwind(AssertUnwindSafe(|| {
                    mechanism.build(config).run_observed(
                        ArchState::new(),
                        mem,
                        &w.program,
                        w.inst_limit,
                        &mut hist,
                    )
                }))
            });
        let r = match run {
            Ok(Ok(r)) => r,
            Ok(Err(e)) => {
                self.tracer.end();
                self.failures.push(fail(e.to_string()));
                return None;
            }
            Err(p) => {
                self.tracer.end();
                self.failures.push(fail(panic_message(p)));
                return None;
            }
        };
        let (verified, _) = self.tracer.leaf("workloads.verify", || w.verify(&r.memory));
        self.tracer.end();

        let mut problems = Vec::new();
        if let Err(e) = verified {
            problems.push(e.to_string());
        }
        if r.state.regs != bench.golden_regs[prog] {
            problems.push("final registers differ from golden".to_string());
        }
        let (golden_len, bound) = golden.unwrap_or((r.instructions, 0));
        if r.instructions != golden_len {
            problems.push(format!(
                "{} instructions, golden {golden_len}",
                r.instructions
            ));
        }
        if r.cycles < bound {
            problems.push(format!("{} cycles below dataflow bound {bound}", r.cycles));
        }
        if !problems.is_empty() {
            self.failures.push(fail(problems.join("; ")));
        }
        self.units.push(UnitRecord {
            family: family(&mechanism),
            span,
            cycles: r.cycles,
            instructions: r.instructions,
            bound,
            flush_cycles: r.stats.stalls(StallReason::MispredictRepair),
        });
        Some((r, hist))
    }
}

/// Per-layer replays over the golden traces: bare interpreter stepping,
/// the predictor zoo over each branch stream, and each data-cache
/// geometry over each load-address stream.
pub struct Probes {
    pub step_instructions: u64,
    /// Dynamic instructions of the replayed traces.
    pub instructions: u64,
    /// `(name, conditional branches, mispredictions)` per predictor.
    pub predict: Vec<(&'static str, u64, u64)>,
    /// `(name, accesses, hits, misses)` per geometry.
    pub dcache: Vec<(String, u64, u64, u64)>,
}

impl Probes {
    pub fn run(tr: &mut Tracer, bench: &Bench, traces: &[Trace]) -> Probes {
        tr.begin("probes");
        let mut step_instructions = 0;
        for w in bench.suite.iter() {
            let (n, _) = tr.leaf("exec.step", || {
                let mut ex = Executor::new(w.memory.clone());
                ex.run(&w.program, w.inst_limit).map(|_| ex.executed())
            });
            step_instructions += n.unwrap_or(0);
        }

        // Each program replays through a fresh predictor and a fresh
        // cache, as each simulated run starts with them.
        let streams: Vec<BranchStream> = traces.iter().map(BranchStream::from_trace).collect();
        let branches = streams.iter().map(BranchStream::cond_branches).sum();
        let mut predict = Vec::new();
        for (name, cfg) in PREDICTORS {
            let (mispredicts, _) = tr.leaf(format!("predict.{name}"), || {
                streams
                    .iter()
                    .map(|s| cbp::evaluate(s, cfg.build().as_mut()).mispredicts)
                    .sum()
            });
            predict.push((name, branches, mispredicts));
        }

        let loads: Vec<Vec<u64>> = traces
            .iter()
            .map(|t| {
                t.events()
                    .iter()
                    .filter(|e| e.inst.is_load())
                    .filter_map(|e| e.ea)
                    .collect()
            })
            .collect();
        let mut dcache = Vec::new();
        for g in GEOMETRIES {
            let cfg = MachineConfig::paper()
                .with_dcache(DCacheConfig::parse(g).expect("benchmark geometries are valid"));
            let ((acc, hits, misses), _) =
                tr.leaf(format!("sim.dcache.{}", metric_name(g)), || {
                    loads
                        .iter()
                        .map(|a| replay_dcache(&cfg, a))
                        .fold((0, 0, 0), |t, s| (t.0 + s.0, t.1 + s.1, t.2 + s.2))
                });
            dcache.push((metric_name(g), acc, hits, misses));
        }
        tr.end();
        Probes {
            step_instructions,
            instructions: traces.iter().map(|t| t.len() as u64).sum(),
            predict,
            dcache,
        }
    }
}

/// `16x2x4:20` → `16x2x4-20`, a name the metric grammar accepts.
fn metric_name(geometry: &str) -> String {
    geometry.replace(':', "-")
}

/// Issues one load per cycle through a fresh cache, waiting out
/// `Blocked` (all MSHRs busy). Returns `(accesses, hits, misses)`.
fn replay_dcache(cfg: &MachineConfig, addrs: &[u64]) -> (u64, u64, u64) {
    let latency = cfg.fu_latency(ruu::isa::FuClass::Memory);
    let mut dc = DCache::new(&cfg.dcache, latency, cfg.memory_words as u64);
    let mut cycle = 0;
    for &a in addrs {
        while dc.plan(a, cycle).latency().is_none() {
            cycle += 1;
        }
        dc.access(a, cycle);
        cycle += 1;
    }
    let s = dc.stats();
    (s.accesses, s.hits, s.misses)
}

/// Engine timings the per-layer metrics are set against, from the
/// untraced repetitions.
pub struct EngineTimes {
    /// Median fresh-engine grid wall at 1 worker.
    pub grid_1w_s: f64,
    /// Median repetition wall at 1 and at `n` workers.
    pub rep_1w_s: f64,
    pub rep_nw_s: f64,
    pub to_json_ms: f64,
}

/// The per-layer metrics: `(name, value, unit)`.
pub fn layer_metrics(pass: &Pass, engine: &EngineTimes) -> Vec<(String, f64, &'static str)> {
    let tr = &pass.tracer;
    let probes = pass.probes.as_ref().expect("a traced pass runs the probes");
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    for f in FAMILIES {
        let units: Vec<&UnitRecord> = pass.units.iter().filter(|u| u.family == f).collect();
        let times: Vec<f64> = units.iter().map(|u| tr.secs(u.span)).collect();
        let busy: f64 = times.iter().sum();
        let sum = |g: fn(&UnitRecord) -> u64| units.iter().map(|u| g(u)).sum::<u64>() as f64;
        let (instr, cycles, bound) = (sum(|u| u.instructions), sum(|u| u.cycles), sum(|u| u.bound));
        let ms: Vec<f64> = times.iter().map(|t| t * 1e3).collect();
        let p = |n: &str| format!("issue.{f}.{n}");
        m.push((p("busy_s"), busy, "s"));
        m.push((p("mips"), ratio(instr, busy) / 1e6, "MIPS"));
        m.push((p("ns_per_cycle"), ratio(busy * 1e9, cycles), "ns"));
        m.push((p("unit_ms.p50"), quantile(&ms, 0.5), "ms"));
        m.push((p("unit_ms.p90"), quantile(&ms, 0.9), "ms"));
        m.push((p("unit_ms.n"), ms.len() as f64, "count"));
        m.push((p("efficiency"), ratio(bound, cycles), "frac"));
    }

    // Every memo fill captures and bounds each program once.
    let fills = tr.durations("engine.memo_fill").len() as f64;
    let trace_instr = pass.golden_instructions as f64 * fills;
    let capture_s = tr.self_total("exec.capture");
    let bound_s = tr.self_total("analysis.bound");
    m.push((
        "exec.capture_mips".into(),
        ratio(trace_instr, capture_s) / 1e6,
        "MIPS",
    ));
    m.push(("exec.capture_self_s".into(), capture_s, "s"));
    let step_s = tr.self_total("exec.step");
    m.push((
        "exec.step_mips".into(),
        ratio(probes.step_instructions as f64, step_s) / 1e6,
        "MIPS",
    ));
    let clones = tr.durations("exec.mem_clone");
    m.push((
        "exec.mem_clone_us".into(),
        quantile(&clones, 0.5) * 1e6,
        "us",
    ));
    m.push((
        "analysis.bound_mips".into(),
        ratio(trace_instr, bound_s) / 1e6,
        "MIPS",
    ));
    m.push(("analysis.bound_self_s".into(), bound_s, "s"));

    let mpki = |n: u64| ratio(n as f64 * 1e3, probes.instructions as f64);
    for (name, branches, mispredicts) in &probes.predict {
        let s = tr.self_total(&format!("predict.{name}"));
        m.push((
            format!("predict.{name}.ns_per_branch"),
            ratio(s * 1e9, *branches as f64),
            "ns",
        ));
        m.push((format!("predict.{name}.mpki"), mpki(*mispredicts), "mpki"));
    }
    let flush: u64 = pass.units.iter().map(|u| u.flush_cycles).sum();
    m.push(("predict.flush_cycles".into(), flush as f64, "cycles"));

    for (g, acc, hits, misses) in &probes.dcache {
        let s = tr.self_total(&format!("sim.dcache.{g}"));
        let p = |n: &str| format!("sim.dcache.{g}.{n}");
        m.push((p("ns_per_access"), ratio(s * 1e9, *acc as f64), "ns"));
        m.push((p("hit_rate"), ratio(*hits as f64, *acc as f64), "frac"));
        m.push((p("mpki"), mpki(*misses), "mpki"));
    }

    let checks: Vec<f64> = tr
        .durations("precise.check")
        .iter()
        .map(|t| t * 1e3)
        .collect();
    m.push(("precise.check_ms.p50".into(), quantile(&checks, 0.5), "ms"));
    m.push(("precise.check_ms.p90".into(), quantile(&checks, 0.9), "ms"));
    m.push(("precise.checks".into(), checks.len() as f64, "count"));

    let fill_s: f64 = tr.durations("engine.memo_fill").iter().sum();
    // The grid's fills and units; its own self time is this file's.
    let work_s = tr.secs(pass.grid_span) - tr.self_secs()[pass.grid_span];
    m.push(("engine.memo_fill_s".into(), fill_s, "s"));
    m.push((
        "engine.grid_over_units".into(),
        ratio(engine.grid_1w_s, work_s),
        "x",
    ));
    m.push((
        "engine.par_speedup".into(),
        ratio(engine.rep_1w_s, engine.rep_nw_s),
        "x",
    ));
    m.push(("engine.to_json_ms".into(), engine.to_json_ms, "ms"));
    m.push((
        "trace.slowdown".into(),
        ratio(
            tr.secs(pass.grid_span) + tr.secs(pass.checks_span),
            engine.rep_1w_s,
        ),
        "x",
    ));
    m
}
