//! The cycle-accounting invariant, enforced end to end: for every issue
//! mechanism, over every Livermore loop and over random synthetic
//! programs,
//!
//! ```text
//! cycles == issue_cycles + Σ stall_cycles
//! ```
//!
//! with exactly one `cycle_end` per simulated cycle. Every core checks
//! this (and the flush identity) on its own tally before it returns;
//! these tests also tally the observer's event stream separately, and
//! check that attaching an observer never changes the simulated numbers.
//! One proptest checks every oracle at once on random programs: the
//! in-core identities, golden equivalence, and the dataflow bound. Also
//! the golden check that the Chrome-trace observer emits valid,
//! monotonically-timestamped `trace_event` JSON.

use proptest::prelude::*;

use ruu::analysis::dataflow_bound;
use ruu::engine::json::ChromeTraceObserver;
use ruu::exec::{ArchState, Trace};
use ruu::issue::{Bypass, IssueSimulator, Mechanism, PreciseScheme, Ruu};
use ruu::predict::PredictorConfig;
use ruu::sim::{DCacheConfig, MachineConfig, PipelineObserver, StallHistogram, StallReason};
use ruu::workloads::livermore;
use ruu::workloads::synth::{random_program, SynthConfig};

const LIMIT: u64 = 1_000_000;

/// One representative of each issue core and branch or buffer policy.
fn all_simulators(cfg: &MachineConfig, entries: usize) -> Vec<(String, Box<dyn IssueSimulator>)> {
    let mechanisms = [
        Mechanism::Simple,
        Mechanism::Tomasulo {
            rs_per_fu: entries / 4 + 1,
        },
        Mechanism::Rstu { entries },
        Mechanism::Ruu {
            entries,
            bypass: Bypass::Full,
        },
        Mechanism::InOrderPrecise {
            scheme: PreciseScheme::ReorderBuffer,
            entries,
        },
        Mechanism::InOrderPrecise {
            scheme: PreciseScheme::FutureFile,
            entries,
        },
    ];
    let mut sims: Vec<(String, Box<dyn IssueSimulator>)> = mechanisms
        .into_iter()
        .map(|m| (m.to_string(), m.build(cfg)))
        .collect();
    sims.push((
        "spec-ruu".to_string(),
        Box::new(
            Ruu::new(cfg.clone(), entries, Bypass::Full).with_predictor(PredictorConfig::default()),
        ),
    ));
    // The speculative machine again, under history-based predictors: the
    // accounting identity must hold for every predictor choice, since
    // mispredict-repair stalls are just relabelled dead cycles.
    for predictor in [
        PredictorConfig::Btfn,
        PredictorConfig::Gshare { entries: 1024 },
        PredictorConfig::Tage { entries: 512 },
    ] {
        let m = Mechanism::SpecRuu {
            entries,
            bypass: Bypass::Full,
            predictor,
        };
        sims.push((m.to_string(), m.build(cfg)));
    }
    sims
}

#[test]
fn identity_holds_for_every_mechanism_on_every_livermore_loop() {
    let cfg = MachineConfig::paper();
    for w in livermore::all() {
        for (name, sim) in all_simulators(&cfg, 15) {
            let mut hist = StallHistogram::default();
            let r = sim
                .run_observed(
                    ArchState::new(),
                    w.memory.clone(),
                    &w.program,
                    w.inst_limit,
                    &mut hist,
                )
                .unwrap_or_else(|e| panic!("{name} failed on {}: {e}", w.name));
            w.verify(&r.memory)
                .unwrap_or_else(|e| panic!("{name} wrong result on {}: {e}", w.name));
            hist.verify(r.cycles)
                .unwrap_or_else(|v| panic!("{name} on {}: {v}", w.name));
            assert_eq!(
                hist, r.stats.tally,
                "{name} on {}: the event stream and the core's tally differ",
                w.name
            );
        }
    }
}

/// Counts the flush events of a run and the repair stalls they cost.
#[derive(Default)]
struct FlushCount {
    flushes: u64,
    squashed: u64,
    repair_stalls: u64,
}

impl PipelineObserver for FlushCount {
    fn flush(&mut self, _cycle: u64, squashed: u64) {
        self.flushes += 1;
        self.squashed += squashed;
    }
    fn stall(&mut self, _cycle: u64, reason: StallReason) {
        if reason == StallReason::MispredictRepair {
            self.repair_stalls += 1;
        }
    }
}

#[test]
fn every_flush_is_an_attributed_misprediction() {
    // Flush accounting: on every loop, under every predictor in the zoo,
    // the speculative machine's flush count equals its misprediction
    // count, and every flush charges exactly `penalty + 1` cycles of
    // mispredict-repair stall (the squash cycle plus the redirect
    // penalty). The core checks the repair width on its own tally; this
    // checks the observed events. An unattributed flush — or a repair
    // window of the wrong width — fails here.
    let cfg = MachineConfig::paper();
    for w in livermore::all() {
        for predictor in PredictorConfig::zoo() {
            let m = Mechanism::SpecRuu {
                entries: 15,
                bypass: Bypass::Full,
                predictor,
            };
            let sim = m.build(&cfg);
            let mut seen = FlushCount::default();
            let r = sim
                .run_observed(
                    ArchState::new(),
                    w.memory.clone(),
                    &w.program,
                    w.inst_limit,
                    &mut seen,
                )
                .unwrap_or_else(|e| panic!("{m} failed on {}: {e}", w.name));
            w.verify(&r.memory)
                .unwrap_or_else(|e| panic!("{m} wrong result on {}: {e}", w.name));
            let what = format!("{m} on {}", w.name);
            assert_eq!(seen.flushes, r.stats.mispredicted_branches, "{what}");
            assert_eq!(
                seen.repair_stalls,
                seen.flushes * (cfg.mispredict_penalty + 1),
                "{what}: repair window width"
            );
            assert_eq!(seen.squashed, r.stats.nullified, "{what}: squashed");
        }
    }
}

#[test]
fn observation_does_not_change_the_simulation() {
    let cfg = MachineConfig::paper();
    let w = livermore::by_name("LLL3").expect("LLL3 exists");
    for (name, sim) in all_simulators(&cfg, 12) {
        let plain = sim
            .run(&w.program, w.memory.clone(), w.inst_limit)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut hist = StallHistogram::default();
        let observed = sim
            .run_observed(
                ArchState::new(),
                w.memory.clone(),
                &w.program,
                w.inst_limit,
                &mut hist,
            )
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(plain.cycles, observed.cycles, "{name} cycles");
        assert_eq!(plain.instructions, observed.instructions, "{name} insts");
        assert_eq!(plain.state, observed.state, "{name} state");
    }
}

/// Every mechanism the joint oracle covers: the simple baseline, the
/// four tagged windows, the RUU under each bypass policy, the four §4
/// schemes, and the speculative RUU under a weak and a strong predictor.
fn oracle_mechanisms(entries: usize) -> Vec<Mechanism> {
    let rs_per_fu = entries / 4 + 1;
    let mut ms = vec![
        Mechanism::Simple,
        Mechanism::Tomasulo { rs_per_fu },
        Mechanism::TagUnitDistributed {
            rs_per_fu,
            tags: entries,
        },
        Mechanism::RsPool {
            rs: entries,
            tags: entries,
        },
        Mechanism::Rstu { entries },
    ];
    for bypass in [Bypass::Full, Bypass::None, Bypass::LimitedA] {
        ms.push(Mechanism::Ruu { entries, bypass });
    }
    for scheme in [
        PreciseScheme::ReorderBuffer,
        PreciseScheme::ReorderBufferBypass,
        PreciseScheme::HistoryBuffer,
        PreciseScheme::FutureFile,
    ] {
        ms.push(Mechanism::InOrderPrecise { scheme, entries });
    }
    for predictor in [
        PredictorConfig::TwoBit { entries: 64 },
        PredictorConfig::Tage { entries: 512 },
    ] {
        ms.push(Mechanism::SpecRuu {
            entries,
            bypass: Bypass::Full,
            predictor,
        });
    }
    ms
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn identity_holds_on_random_programs(
        seed in 0u64..10_000,
        entries in 2usize..20,
        loadregs in 1usize..7,
        mem_ops in proptest::bool::ANY,
    ) {
        let synth = SynthConfig {
            segments: 3,
            block_len: 8,
            max_trips: 6,
            mem_ops,
            hot_addresses: false,
        };
        let (program, mem) = random_program(seed, &synth);
        let cfg = MachineConfig::paper().with_load_registers(loadregs);
        for (name, sim) in all_simulators(&cfg, entries) {
            let mut hist = StallHistogram::default();
            let r = sim
                .run_observed(ArchState::new(), mem.clone(), &program, LIMIT, &mut hist)
                .unwrap_or_else(|e| panic!("{name} failed on seed {seed}: {e}"));
            let v = hist.verify(r.cycles);
            prop_assert!(v.is_ok(), "{} on seed {}: {}", name, seed, v.unwrap_err());
            prop_assert_eq!(&hist, &r.stats.tally, "{} on seed {}: event stream vs tally", name, seed);
        }
    }

    /// Every oracle at once: each run returns `Ok` (so both in-core
    /// accounting identities held), matches the golden interpreter's
    /// registers, memory and instruction count, and never beats the
    /// dataflow limit, on the perfect memory and two finite caches.
    #[test]
    fn every_oracle_holds_on_random_programs(
        seed in 0u64..1_000_000,
        entries in 2usize..24,
        loadregs in 1usize..7,
        mem_ops in proptest::bool::ANY,
        small in proptest::bool::ANY,
    ) {
        let synth = if small {
            SynthConfig {
                segments: 3,
                block_len: 8,
                max_trips: 6,
                mem_ops,
                hot_addresses: false,
            }
        } else {
            SynthConfig { mem_ops, ..SynthConfig::default() }
        };
        let (program, mem) = random_program(seed, &synth);
        let golden = Trace::capture(&program, mem.clone(), LIMIT).expect("golden runs");
        for dcache in [DCacheConfig::Perfect, dcache("16x2x4:20"), dcache("64x4x8:60")] {
            let cfg = MachineConfig::paper()
                .with_load_registers(loadregs)
                .with_dcache(dcache);
            let bound = dataflow_bound(&golden, &cfg).bound;
            for m in oracle_mechanisms(entries) {
                let what = format!("{m} under {:?} on seed {seed}", cfg.dcache);
                let r = m.run(&cfg, &program, mem.clone(), LIMIT);
                prop_assert!(r.is_ok(), "{}: {}", what, r.unwrap_err());
                let r = r.expect("checked above");
                prop_assert_eq!(r.instructions, golden.len() as u64, "{} count", what);
                prop_assert_eq!(&r.state.regs, &golden.final_state().regs, "{} regs", what);
                prop_assert_eq!(&r.memory, golden.final_memory(), "{} memory", what);
                prop_assert!(
                    r.cycles >= bound,
                    "{}: {} cycles beats bound {}",
                    what, r.cycles, bound
                );
            }
        }
    }
}

fn dcache(spec: &str) -> DCacheConfig {
    DCacheConfig::parse(spec).expect("cache geometry parses")
}

// ---- Chrome trace golden checks ---------------------------------------

/// Minimal JSON scanner: accepts exactly the grammar of RFC 8259 values
/// (no escapes beyond the writer's repertoire required). Returns the rest
/// of the input after one complete value.
fn skip_json_value(s: &str) -> Result<&str, String> {
    let s = s.trim_start();
    let mut chars = s.char_indices();
    let Some((_, c)) = chars.next() else {
        return Err("unexpected end of input".to_string());
    };
    match c {
        '{' => skip_json_container(&s[1..], '}', true),
        '[' => skip_json_container(&s[1..], ']', false),
        '"' => skip_json_string(s),
        't' => s.strip_prefix("true").ok_or("bad literal".to_string()),
        'f' => s.strip_prefix("false").ok_or("bad literal".to_string()),
        'n' => s.strip_prefix("null").ok_or("bad literal".to_string()),
        '-' | '0'..='9' => {
            let end = s
                .find(|c: char| !matches!(c, '-' | '+' | '.' | 'e' | 'E' | '0'..='9'))
                .unwrap_or(s.len());
            Ok(&s[end..])
        }
        other => Err(format!("unexpected character {other:?}")),
    }
}

fn skip_json_string(s: &str) -> Result<&str, String> {
    let mut it = s[1..].char_indices();
    while let Some((i, c)) = it.next() {
        match c {
            '\\' => {
                it.next();
            }
            '"' => return Ok(&s[1 + i + 1..]),
            _ => {}
        }
    }
    Err("unterminated string".to_string())
}

fn skip_json_container(mut s: &str, close: char, keyed: bool) -> Result<&str, String> {
    s = s.trim_start();
    if let Some(rest) = s.strip_prefix(close) {
        return Ok(rest);
    }
    loop {
        if keyed {
            s = s.trim_start();
            if !s.starts_with('"') {
                return Err("object key must be a string".to_string());
            }
            s = skip_json_string(s)?.trim_start();
            s = s.strip_prefix(':').ok_or("missing ':'".to_string())?;
        }
        s = skip_json_value(s)?.trim_start();
        if let Some(rest) = s.strip_prefix(',') {
            s = rest;
        } else {
            return s
                .strip_prefix(close)
                .ok_or(format!("missing {close:?} or ','"));
        }
    }
}

fn assert_valid_json(json: &str) {
    let rest = skip_json_value(json).unwrap_or_else(|e| panic!("invalid JSON: {e}"));
    assert!(rest.trim().is_empty(), "trailing garbage after JSON value");
}

#[test]
fn chrome_trace_is_valid_and_monotonically_timestamped() {
    let cfg = MachineConfig::paper();
    let w = livermore::by_name("LLL5").expect("LLL5 exists");
    let sim = Mechanism::Ruu {
        entries: 15,
        bypass: Bypass::Full,
    }
    .build(&cfg);
    let mut trace = ChromeTraceObserver::default();
    let r = sim
        .run_observed(
            ArchState::new(),
            w.memory.clone(),
            &w.program,
            w.inst_limit,
            &mut trace,
        )
        .expect("run completes");
    r.stats.tally.verify(r.cycles).expect("accounting holds");

    let json = trace.to_json();
    assert_valid_json(&json);
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"window occupancy\""));

    // Timestamps must be nondecreasing in emission order, and at least
    // one per event kind must be present.
    let mut last_ts = 0u64;
    let mut count = 0usize;
    for chunk in json.split("\"ts\":").skip(1) {
        let end = chunk
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(chunk.len());
        let ts: u64 = chunk[..end].parse().expect("ts is an integer");
        assert!(ts >= last_ts, "timestamps regress: {ts} after {last_ts}");
        last_ts = ts;
        count += 1;
    }
    assert!(count > 100, "trace has real volume, got {count} events");
    for kind in [
        "\"ph\":\"X\"",
        "\"ph\":\"i\"",
        "\"ph\":\"C\"",
        "\"ph\":\"M\"",
    ] {
        assert!(json.contains(kind), "missing event kind {kind}");
    }
}

#[test]
fn spec_trace_records_flushes() {
    // The speculative RUU on a mispredicting workload must emit flush
    // instants on its dedicated track.
    let cfg = MachineConfig::paper();
    let w = livermore::by_name("LLL5").expect("LLL5 exists");
    let sim: Box<dyn IssueSimulator> =
        Box::new(Ruu::new(cfg, 15, Bypass::Full).with_predictor(PredictorConfig::default()));
    let mut trace = ChromeTraceObserver::default();
    let r = sim
        .run_observed(
            ArchState::new(),
            w.memory.clone(),
            &w.program,
            w.inst_limit,
            &mut trace,
        )
        .expect("run completes");
    assert!(r.cycles > 0);
    let json = trace.to_json();
    assert_valid_json(&json);
    assert!(json.contains("\"flush\""), "speculative run shows no flush");
}

#[test]
fn memory_state_is_identical_under_observation() {
    // Drive one synthetic memory-heavy program through every simulator
    // both ways; the architectural memory image must not notice the
    // observer.
    let synth = SynthConfig {
        segments: 4,
        block_len: 10,
        max_trips: 5,
        mem_ops: true,
        hot_addresses: true,
    };
    let (program, mem) = random_program(7, &synth);
    let cfg = MachineConfig::paper();
    for (name, sim) in all_simulators(&cfg, 10) {
        let plain = sim
            .run(&program, mem.clone(), LIMIT)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut hist = StallHistogram::default();
        let observed = sim
            .run_observed(ArchState::new(), mem.clone(), &program, LIMIT, &mut hist)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(plain.memory, observed.memory, "{name} memory");
        assert_eq!(hist.cycles(), observed.cycles, "{name} cycle_end count");
    }
}
