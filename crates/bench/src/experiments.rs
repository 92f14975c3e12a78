//! The experiment registry: every table, figure and ablation this
//! repository regenerates, one [`Experiment`] each.
//!
//! An entry names its jobs and its formatter. [`run`] concatenates the
//! jobs of every selected entry into **one** [`SweepEngine::run_grid`]
//! call on the shared [`engine`], then hands each formatter its own
//! slice of the results, so the baseline and dataflow-bound memo is
//! filled once for the whole selection.
//!
//! EXPERIMENTS.md holds each entry's output, byte for byte, between an
//! `<!-- experiment: ID -->` line and an `<!-- /experiment -->` line.
//! [`check_doc`] compares the two; the root package's
//! `tests/experiments_doc.rs` runs it on every entry.
//!
//! [`SweepEngine::run_grid`]: ruu_engine::SweepEngine::run_grid

use std::fmt::{self, Write as _};

use ruu_engine::{EngineError, EngineStats, Job, JobResult};
use ruu_isa::Reg;
use ruu_issue::{Bypass, Mechanism, PreciseScheme, TagUnitModel};
use ruu_predict::cbp::{evaluate, BranchStream};
use ruu_predict::PredictorConfig;
use ruu_sim_core::{DCacheConfig, MachineConfig};

use crate::harness::engine;
use crate::{paper, report};

/// One reproduced table, figure or ablation.
#[derive(Debug)]
pub struct Experiment {
    /// The id the `experiments` bin and EXPERIMENTS.md name it by.
    pub id: &'static str,
    /// The paper section or extension it reproduces.
    pub source: &'static str,
    /// Its jobs (none for a walkthrough that runs no sweep).
    pub jobs: fn() -> Vec<Job>,
    /// Formats its results, in job order, as its printed output.
    pub format: fn(&[JobResult]) -> String,
}

/// Every experiment, in the order the `experiments` bin prints them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "table1",
        source: "Table 1 (§2.1): the simple-issue baseline per Livermore loop",
        jobs: || vec![Job::new(Mechanism::Simple, MachineConfig::paper())],
        format: |r| {
            format!(
                "## Table 1 — statistics for the benchmark programs (simple issue)\n\n{}\n\
                 Note: 'ours' runs hand-compiled kernels (DESIGN.md §1); absolute counts differ \
                 from the paper's CFT-compiled code, shapes are compared in tests/shape_checks.rs.\n",
                report::format_table1(&r[0].workloads)
            )
        },
    },
    Experiment {
        id: "stalls",
        source: "extension: where the Table 1 baseline's cycles go",
        jobs: || vec![Job::new(Mechanism::Simple, MachineConfig::paper())],
        format: |r| {
            report::format_stall_table("Where the cycles go (simple issue)", &r[0].workloads)
        },
    },
    Experiment {
        id: "table2",
        source: "Table 2 (§3.2.3): the RSTU, one dispatch path",
        jobs: || paper_sweep(&paper::TABLE2, 1, |entries| Mechanism::Rstu { entries }),
        format: |r| {
            let title = "Table 2 — relative speedup and issue rate with a RSTU";
            report::format_sweep(title, r, &paper::TABLE2)
        },
    },
    Experiment {
        id: "table3",
        source: "Table 3 (§3.2.3.1): the RSTU, two dispatch paths",
        jobs: || paper_sweep(&paper::TABLE3, 2, |entries| Mechanism::Rstu { entries }),
        format: |r| {
            let title = "Table 3 — RSTU with 2 data paths to the functional units";
            report::format_sweep(title, r, &paper::TABLE3)
        },
    },
    Experiment {
        id: "table4",
        source: "Table 4 (§5): the RUU with bypass logic",
        jobs: || paper_sweep(&paper::TABLE4, 1, |e| ruu(e, Bypass::Full)),
        format: |r| {
            let title = "Table 4 — RUU with bypass logic (precise interrupts)";
            report::format_sweep(title, r, &paper::TABLE4)
        },
    },
    Experiment {
        id: "table5",
        source: "Table 5 (§6.2): the RUU without bypass logic",
        jobs: || paper_sweep(&paper::TABLE5, 1, |e| ruu(e, Bypass::None)),
        format: |r| report::format_sweep("Table 5 — RUU without bypass logic", r, &paper::TABLE5),
    },
    Experiment {
        id: "table6",
        source: "Table 6 (§6.3): the RUU with an A-register future file",
        jobs: || paper_sweep(&paper::TABLE6, 1, |e| ruu(e, Bypass::LimitedA)),
        format: |r| {
            let title = "Table 6 — RUU with limited bypass (A-register future file)";
            report::format_sweep(title, r, &paper::TABLE6)
        },
    },
    Experiment {
        id: "figure3",
        source: "Figure 3 (§3.2.1.1): the Tag Unit worked example",
        jobs: Vec::new,
        format: |_| figure3(),
    },
    Experiment {
        id: "per-loop",
        source: "extension: Tables 2–6 per loop, at 15 entries",
        jobs: || {
            paper_jobs([
                ("simple", Mechanism::Simple),
                ("RSTU(15)", Mechanism::Rstu { entries: 15 }),
                ("RUU(15)", ruu(15, Bypass::Full)),
                ("RUU(15) no-byp", ruu(15, Bypass::None)),
                ("RUU(15) ltd", ruu(15, Bypass::LimitedA)),
            ])
        },
        format: per_loop,
    },
    Experiment {
        id: "spectrum",
        source: "extension: the §3→§5 design walk at matched budgets",
        jobs: || {
            paper_jobs([
                ("simple issue (Table 1 baseline)", Mechanism::Simple),
                (
                    "Tomasulo, 2 RS/unit (§3.1)",
                    Mechanism::Tomasulo { rs_per_fu: 2 },
                ),
                (
                    "Tag Unit + distributed RS (§3.2.1)",
                    Mechanism::TagUnitDistributed {
                        rs_per_fu: 2,
                        tags: 15,
                    },
                ),
                (
                    "Tag Unit + RS pool (§3.2.2)",
                    Mechanism::RsPool { rs: 10, tags: 15 },
                ),
                ("RSTU, 15 entries (§3.2.3)", Mechanism::Rstu { entries: 15 }),
                ("RUU, 15 entries, bypass (§5)", ruu(15, Bypass::Full)),
                ("RUU, 15 entries, no bypass (§6.2)", ruu(15, Bypass::None)),
                (
                    "RUU, 15 entries, limited bypass (§6.3)",
                    ruu(15, Bypass::LimitedA),
                ),
            ])
        },
        format: |r| {
            let title = "The §3→§5 design spectrum on the Livermore suite";
            report::format_plain_sweep(title, "mechanism", r)
        },
    },
    Experiment {
        id: "a1",
        source: "ablation A1 (§3.2.3.1): dispatch paths to the functional units",
        jobs: || {
            let mut jobs = Vec::new();
            for paths in [1u32, 2, 4] {
                let cfg = MachineConfig::paper().with_dispatch_paths(paths);
                jobs.push(
                    Job::new(Mechanism::Rstu { entries: 10 }, cfg.clone())
                        .with_label(format!("RSTU(10), {paths} path(s)")),
                );
                jobs.push(
                    Job::new(ruu(10, Bypass::Full), cfg)
                        .with_label(format!("RUU(10, bypass), {paths} path(s)")),
                );
            }
            jobs
        },
        format: |r| {
            plain_with_note(
                "Ablation A1 — dispatch paths to the functional units",
                "configuration",
                r,
                "Expectation (paper §3.2.3.1): the decode stage fills the window at ≤1 \
                 instruction/cycle, so extra drain paths help only marginally.",
            )
        },
    },
    Experiment {
        id: "a2",
        source: "ablation A2 (§5.1): load registers",
        jobs: || {
            [1usize, 2, 3, 4, 6, 8, 12]
                .into_iter()
                .map(|lrs| {
                    Job::new(
                        ruu(15, Bypass::Full),
                        MachineConfig::paper().with_load_registers(lrs),
                    )
                    .with_label(format!("{lrs} load registers"))
                })
                .collect()
        },
        format: |r| {
            plain_with_note(
                "Ablation A2 — load registers (RUU, 15 entries, full bypass)",
                "configuration",
                r,
                "Expectation (paper §5.1): ~4 registers suffice; 6 never block issue.",
            )
        },
    },
    Experiment {
        id: "a3",
        source: "ablation A3 (§5.1): NI/LI instance-counter width",
        jobs: || {
            [1u32, 2, 3, 4]
                .into_iter()
                .map(|bits| {
                    let max = (1u32 << bits) - 1;
                    Job::new(
                        ruu(20, Bypass::Full),
                        MachineConfig::paper().with_counter_bits(bits),
                    )
                    .with_label(format!("{bits}-bit counters (max {max} instances)"))
                })
                .collect()
        },
        format: |r| {
            plain_with_note(
                "Ablation A3 — NI/LI counter width (RUU, 20 entries, full bypass)",
                "configuration",
                r,
                "Expectation (paper §5.1): 3 bits never block; 1 bit serialises same-register \
                 writes.",
            )
        },
    },
    Experiment {
        id: "a4",
        source: "ablation A4 (§2): result buses",
        jobs: || {
            let mut jobs = Vec::new();
            for buses in [1u32, 2, 3] {
                let cfg = MachineConfig::paper().with_result_buses(buses);
                jobs.push(
                    Job::new(Mechanism::Simple, cfg.clone())
                        .with_label(format!("simple, {buses} bus(es)")),
                );
                jobs.push(
                    Job::new(ruu(15, Bypass::Full), cfg)
                        .with_label(format!("RUU(15, bypass), {buses} bus(es)")),
                );
            }
            jobs
        },
        format: |r| {
            plain_with_note(
                "Ablation A4 — result buses",
                "configuration",
                r,
                "Note: speedups are relative to the 1-bus simple baseline within each bus \
                 count's own sweep; compare issue rates across rows.",
            )
        },
    },
    Experiment {
        id: "a5",
        source: "extension A5 (§7): speculative execution in the RUU",
        jobs: || {
            let predictors = [
                PredictorConfig::AlwaysTaken,
                PredictorConfig::Btfn,
                PredictorConfig::default(),
            ];
            let mut jobs = Vec::new();
            for entries in [10usize, 20, 30] {
                // The blocking (paper) RUU as the reference, then each predictor.
                let cfg = MachineConfig::paper();
                jobs.push(
                    Job::new(ruu(entries, Bypass::Full), cfg.clone()).with_label("blocking RUU"),
                );
                for p in predictors {
                    let spec = Job::new(spec_ruu(entries, p), cfg.clone());
                    jobs.push(spec.with_label(format!("spec RUU ({p})")));
                }
            }
            jobs
        },
        format: speculation,
    },
    Experiment {
        id: "a6",
        source: "extension A6 (§6.1): the cost of precise interrupts",
        jobs: || {
            let machines: [fn(usize) -> Mechanism; 3] = [
                |entries| Mechanism::Rstu { entries },
                |e| ruu(e, Bypass::Full),
                |e| ruu(e, Bypass::None),
            ];
            machines
                .iter()
                .flat_map(|make| A6_SIZES.map(|e| Job::new(make(e), MachineConfig::paper())))
                .collect()
        },
        format: precision_cost,
    },
    Experiment {
        id: "a7",
        source: "extension A7 (§4): in-order precise schemes vs the RUU",
        jobs: || {
            let scheme = |scheme| Mechanism::InOrderPrecise {
                scheme,
                entries: 12,
            };
            paper_jobs([
                ("simple issue (imprecise)", Mechanism::Simple),
                (
                    "reorder buffer(12) — §4",
                    scheme(PreciseScheme::ReorderBuffer),
                ),
                (
                    "reorder buffer(12) + bypass — §4",
                    scheme(PreciseScheme::ReorderBufferBypass),
                ),
                (
                    "history buffer(12) — §4",
                    scheme(PreciseScheme::HistoryBuffer),
                ),
                ("future file(12) — §4", scheme(PreciseScheme::FutureFile)),
                ("RUU(12), bypass — §5", ruu(12, Bypass::Full)),
            ])
        },
        format: |r| {
            plain_with_note(
                "Extension A7 — §4 precise-interrupt schemes vs. the RUU",
                "machine",
                r,
                "Expectation: plain reorder buffer < 1.0 (aggravated dependencies); bypass = \
                 history = future file ≈ 1.0 (precision without out-of-order issue gains nothing \
                 on its own); RUU well above 1.0 (both at once).",
            )
        },
    },
    Experiment {
        id: "a8",
        source: "extension A8 (§7): the predictor zoo on the speculative RUU",
        jobs: || {
            PredictorConfig::zoo()
                .into_iter()
                .map(|p| Job::new(spec_ruu(15, p), MachineConfig::paper()))
                .collect()
        },
        format: predictors,
    },
    Experiment {
        id: "a9",
        source: "extension A9 (§1): data-cache miss latency",
        jobs: || {
            a9_mechanisms()
                .into_iter()
                .flat_map(|m| {
                    a9_dcaches().map(|dc| {
                        Job::new(m, MachineConfig::paper().with_dcache(dc))
                            .with_label(format!("{m} on {dc}"))
                    })
                })
                .collect()
        },
        format: data_cache,
    },
];

/// The entry named `id`, if the registry has one.
#[must_use]
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// Runs the jobs of every entry in `selected` as one grid on the shared
/// engine, and returns each entry's formatted output (in `selected`
/// order) with the grid's stats.
///
/// # Errors
/// The grid's first failing unit.
pub fn run(selected: &[&Experiment]) -> Result<(Vec<String>, EngineStats), EngineError> {
    let jobs: Vec<Vec<Job>> = selected.iter().map(|e| (e.jobs)()).collect();
    let grid = engine().run_grid(&jobs.concat())?;
    let mut rest = grid.jobs.as_slice();
    let outputs = selected
        .iter()
        .zip(&jobs)
        .map(|(e, own)| {
            let (mine, tail) = rest.split_at(own.len());
            rest = tail;
            (e.format)(mine)
        })
        .collect();
    Ok((outputs, grid.stats))
}

/// A paper sweep (Tables 2–6): `make` at every entry count the paper
/// table lists, under the paper machine with `paths` dispatch paths.
fn paper_sweep(table: &[(usize, f64, f64)], paths: u32, make: fn(usize) -> Mechanism) -> Vec<Job> {
    let cfg = MachineConfig::paper().with_dispatch_paths(paths);
    table
        .iter()
        .map(|&(entries, ..)| Job::new(make(entries), cfg.clone()))
        .collect()
}

/// Labelled jobs under the paper machine.
fn paper_jobs<const N: usize>(jobs: [(&str, Mechanism); N]) -> Vec<Job> {
    jobs.into_iter()
        .map(|(label, m)| Job::new(m, MachineConfig::paper()).with_label(label))
        .collect()
}

fn ruu(entries: usize, bypass: Bypass) -> Mechanism {
    Mechanism::Ruu { entries, bypass }
}

/// The speculative RUU with full bypass.
fn spec_ruu(entries: usize, predictor: PredictorConfig) -> Mechanism {
    let bypass = Bypass::Full;
    Mechanism::SpecRuu {
        entries,
        bypass,
        predictor,
    }
}

/// A plain labelled sweep table followed by a one-line reading.
fn plain_with_note(title: &str, header: &str, jobs: &[JobResult], note: &str) -> String {
    format!(
        "{}\n{note}\n",
        report::format_plain_sweep(title, header, jobs)
    )
}

/// Figure 3: issuing `I1: S4 ← S0 + S7` against the six-entry Tag Unit.
fn figure3() -> String {
    let mut tu = TagUnitModel::figure3();
    let initial = tu.to_string();
    let dst = tu.acquire_dest(Reg::s(4)).expect("Figure 3 has a free tag");
    let latest = if tu.entry(4).latest { "Y" } else { "N" };
    let s0 = tu.source_tag(Reg::s(0)).expect("Figure 3 has S0 busy");
    let s7 = if tu.is_busy(Reg::s(7)) {
        "busy"
    } else {
        "free"
    };
    let issued = tu.to_string();
    let ret = tu.retire(dst);
    format!(
        "## Figure 3 — a Tag Unit (initial state)\n\n{initial}\nIssue I1: S4 <- S0 + S7\n\
         \x20 - new destination tag for S4: {dst} (the free tag)\n\
         \x20 - old tag 4 loses its latest-copy bit: latest = {latest}\n\
         \x20 - source S0 is busy: forwarded tag {s0} to the reservation station\n\
         \x20 - source S7 is {s7} -> its contents are read from the register file\n\
         \nState after issue:\n\n{issued}\n\
         I1 completes: the result (tag {dst}) returns to the Tag Unit\n\
         \x20 - forwarded to register {}; latest copy, so the busy bit is cleared (unlock = {})\n\
         \nFinal state:\n\n{tu}\n",
        ret.register, ret.unlock
    )
}

/// Per-loop speedups of every job over the first (the simple baseline).
fn per_loop(jobs: &[JobResult]) -> String {
    let (base, others) = jobs.split_first().expect("the baseline job ran");
    let mut out = String::from("### Per-loop speedups over the simple baseline (window = 15)\n");
    let _ = write!(out, "| loop | base IPC |");
    for j in others {
        let _ = write!(out, " {} |", j.label);
    }
    let _ = write!(out, "\n|---|---:|{}\n", "---:|".repeat(others.len()));
    for (i, b) in base.workloads.iter().enumerate() {
        let ipc = b.instructions as f64 / b.cycles as f64;
        let _ = write!(out, "| {} | {ipc:.3} |", b.name);
        for j in others {
            let _ = write!(
                out,
                " {:.2} |",
                b.cycles as f64 / j.workloads[i].cycles as f64
            );
        }
        out.push('\n');
    }
    out.push_str(
        "\nExpectation: the independent-iteration loops (LLL1, 7, 12) gain the most; the tight \
         recurrences (LLL5, 11) are latency-bound and gain the least — dependency structure, \
         not the mechanism, sets their ceiling.\n",
    );
    out
}

/// A5: the blocking RUU against the speculative RUU per window size.
fn speculation(jobs: &[JobResult]) -> String {
    let mut out = String::from(
        "### Extension A5 — speculative (conditional-mode) execution in the RUU\n\
         | RUU entries | machine | speedup | issue rate | mispredict % | nullified |\n\
         |---:|---|---:|---:|---:|---:|\n",
    );
    for j in jobs {
        let entries = j.entries.expect("every RUU has a window");
        let branch = j.branch.map_or_else(
            || "— | —".to_string(),
            |b| {
                let mp = if b.predicts == 0 {
                    0.0
                } else {
                    100.0 * b.mispredicts as f64 / b.predicts as f64
                };
                format!("{mp:.1} | {}", b.nullified)
            },
        );
        let _ = writeln!(
            out,
            "| {entries} | {} | {:.3} | {:.3} | {branch} |",
            j.label, j.speedup, j.issue_rate
        );
    }
    out.push_str(
        "\nExpectation (paper §7): prediction removes branch-condition waits; the RUU's \
         nullification makes recovery cheap, so speculation lifts the issue rate toward the \
         dead-cycle-only limit.\n",
    );
    out
}

/// A6's window sizes.
const A6_SIZES: [usize; 6] = [4, 8, 10, 15, 20, 30];

/// A6: the RSTU (imprecise) against the RUU (precise) per window size.
fn precision_cost(jobs: &[JobResult]) -> String {
    let [rstu, ruu, ruu_none] = [0, 1, 2].map(|m| &jobs[m * A6_SIZES.len()..][..A6_SIZES.len()]);
    let mut out = String::from(
        "### Extension A6 — the cost of precise interrupts\n\
         | entries | RSTU speedup | RUU (bypass) | precision cost | RUU (no bypass) |\n\
         |---:|---:|---:|---:|---:|\n",
    );
    for (i, size) in A6_SIZES.iter().enumerate() {
        let cost = 100.0 * (1.0 - ruu[i].speedup / rstu[i].speedup);
        let _ = writeln!(
            out,
            "| {size} | {:.3} | {:.3} | {cost:.1}% | {:.3} |",
            rstu[i].speedup, ruu[i].speedup, ruu_none[i].speedup
        );
    }
    out.push_str(
        "\nExpectation (paper §6.1): with bypass logic and a reasonable window, the RUU \
         approaches the unconstrained RSTU — precision is nearly free; without bypass the \
         aggravated dependencies cost much more.\n",
    );
    out
}

/// Each suite workload's conditional-branch stream, for CBP replay.
///
/// # Panics
/// If a suite workload has no golden trace; every grid already captured
/// them all for its dataflow bounds.
fn cbp_streams() -> Vec<BranchStream> {
    let streams = engine().suite().iter().map(|w| {
        let trace = w.golden_trace().expect("suite golden trace");
        BranchStream::from_trace(&trace)
    });
    streams.collect()
}

/// `p`'s total CBP-replay mispredictions over `streams`: every
/// conditional branch, no pipeline, a fresh predictor per loop (the CBP
/// convention).
fn cbp_mispredicts(streams: &[BranchStream], p: PredictorConfig) -> u64 {
    streams
        .iter()
        .map(|s| evaluate(s, p.build().as_mut()).mispredicts)
        .sum()
}

/// A8: per zoo predictor, its CBP-replay mispredictions next to the
/// speculative RUU's own counts, where only branches whose condition was
/// still unresolved at issue consult the predictor.
fn predictors(jobs: &[JobResult]) -> String {
    let streams = cbp_streams();
    let mut out = String::from(
        "### Predictor ablation — speculative RUU (15 entries), suite totals\n\
         | Predictor | CBP miss | predicts | mispredicts | repair cycles | cycles | speedup |\n\
         |-----------|---------:|---------:|------------:|--------------:|-------:|--------:|\n",
    );
    for (p, j) in PredictorConfig::zoo().into_iter().zip(jobs) {
        let b = j.branch.unwrap_or_default();
        let _ = writeln!(
            out,
            "| {:<9} | {:>8} | {:>8} | {:>11} | {:>13} | {:>6} | {:>7.3} |",
            p.to_string(),
            cbp_mispredicts(&streams, p),
            b.predicts,
            b.mispredicts,
            b.flush_cycles,
            j.cycles,
            j.speedup,
        );
    }
    out
}

/// A9's machines: the in-order baselines and the dependence-resolving
/// windows, all at 15 entries.
fn a9_mechanisms() -> [Mechanism; 5] {
    [
        Mechanism::Simple,
        Mechanism::InOrderPrecise {
            scheme: PreciseScheme::ReorderBufferBypass,
            entries: 15,
        },
        Mechanism::Rstu { entries: 15 },
        ruu(15, Bypass::Full),
        spec_ruu(15, PredictorConfig::default()),
    ]
}

/// A9's memory models per machine: perfect, then a 5- and a 20-cycle miss.
fn a9_dcaches() -> [DCacheConfig; 3] {
    ["perfect", "64x2x4:5:1:4", "64x2x4:20:1:4"]
        .map(|s| DCacheConfig::parse(s).expect("A9 cache geometry"))
}

/// A9: the cache table, then each machine's miss-latency sensitivity
/// (cycles at a 20-cycle miss over cycles at a 5-cycle miss).
fn data_cache(jobs: &[JobResult]) -> String {
    let title = "Data-cache ablation — suite totals, miss latency 5 vs 20 cycles";
    let dcaches = a9_dcaches();
    let mut out = report::format_cache_ablation(title, jobs, &dcaches);
    let sensitivity: Vec<String> = jobs
        .chunks(dcaches.len())
        .map(|g| {
            let ratio = g[2].cycles as f64 / g[1].cycles as f64;
            format!("{} {ratio:.3}x", g[0].mechanism)
        })
        .collect();
    let _ = writeln!(out, "miss-latency sensitivity: {}", sensitivity.join(", "));
    out
}

const OPEN: &str = "<!-- experiment: ";
const CLOSE: &str = "<!-- /experiment -->";

/// A way EXPERIMENTS.md disagrees with the registry's output. Lines are
/// 1-based.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DocError {
    /// A block names an id no entry has.
    UnknownId { id: String, line: usize },
    /// An entry has no block.
    Missing { id: String },
    /// A second block for an id that already has one.
    Duplicate { id: String, line: usize },
    /// A block that another block, or the end of the file, cuts off
    /// before its closing marker.
    Unterminated { id: String, line: usize },
    /// A closing marker with no block open.
    StrayClose { line: usize },
    /// A block whose text differs from its entry's output.
    Mismatch {
        id: String,
        line: usize,
        expected: String,
    },
}

impl fmt::Display for DocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DocError::UnknownId { id, line } => {
                write!(f, "line {line}: block `{id}` names no experiment")
            }
            DocError::Missing { id } => write!(f, "experiment `{id}` has no block"),
            DocError::Duplicate { id, line } => {
                write!(f, "line {line}: a second block for `{id}`")
            }
            DocError::Unterminated { id, line } => {
                write!(f, "line {line}: block `{id}` has no `{CLOSE}` line")
            }
            DocError::StrayClose { line } => {
                write!(f, "line {line}: `{CLOSE}` with no block open")
            }
            DocError::Mismatch { id, line, expected } => write!(
                f,
                "line {line}: block `{id}` differs from the `{id}` experiment's output; \
                 expected:\n{OPEN}{id} -->\n{expected}{CLOSE}"
            ),
        }
    }
}

/// Compares the marked blocks of `doc` with `outputs` (`(id, output)`
/// per entry) and returns every disagreement; none means the document
/// is current. A block's text is every line between its markers, each
/// ending in `\n`. Pure: it runs no simulation.
#[must_use]
pub fn check_doc(doc: &str, outputs: &[(&str, &str)]) -> Vec<DocError> {
    let mut errors = Vec::new();
    let mut blocks: Vec<(&str, usize, String)> = Vec::new();
    let mut open: Option<(&str, usize, String)> = None;
    for (i, line) in doc.lines().enumerate() {
        let n = i + 1;
        if let Some(id) = line.strip_prefix(OPEN).and_then(|l| l.strip_suffix(" -->")) {
            if let Some((id, at, _)) = open.replace((id, n, String::new())) {
                errors.push(DocError::Unterminated {
                    id: id.into(),
                    line: at,
                });
            }
        } else if line == CLOSE {
            match open.take() {
                Some(block) => blocks.push(block),
                None => errors.push(DocError::StrayClose { line: n }),
            }
        } else if let Some((_, _, text)) = &mut open {
            text.push_str(line);
            text.push('\n');
        }
    }
    if let Some((id, at, _)) = open {
        errors.push(DocError::Unterminated {
            id: id.into(),
            line: at,
        });
    }
    for (k, (id, at, _)) in blocks.iter().enumerate() {
        if !outputs.iter().any(|(o, _)| o == id) {
            errors.push(DocError::UnknownId {
                id: (*id).into(),
                line: *at,
            });
        } else if blocks[..k].iter().any(|(b, ..)| b == id) {
            errors.push(DocError::Duplicate {
                id: (*id).into(),
                line: *at,
            });
        }
    }
    for &(id, expected) in outputs {
        match blocks.iter().find(|(b, ..)| *b == id) {
            None => errors.push(DocError::Missing { id: id.into() }),
            Some((_, at, text)) if text != expected => errors.push(DocError::Mismatch {
                id: id.into(),
                line: at + 1 + first_difference(text, expected),
                expected: expected.into(),
            }),
            Some(_) => {}
        }
    }
    errors
}

/// The 0-based index of the first line where `a` and `b` differ.
fn first_difference(a: &str, b: &str) -> usize {
    a.lines().zip(b.lines()).take_while(|(x, y)| x == y).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The entry named `id`, run alone.
    fn results(id: &str) -> Vec<JobResult> {
        let e = find(id).expect("a registered id");
        engine().run_grid(&(e.jobs)()).expect(id).jobs
    }

    #[test]
    fn ids_are_unique() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|o| o.id != e.id),
                "duplicate id {}",
                e.id
            );
        }
    }

    #[test]
    fn run_hands_each_entry_its_own_results() {
        let ids = ["table1", "figure3", "stalls"];
        let selected: Vec<&Experiment> = ids.iter().filter_map(|id| find(id)).collect();
        let (outputs, stats) = run(&selected).expect("one grid");
        assert_eq!(stats.jobs, 2, "figure3 runs no job");
        assert!(outputs[0].starts_with("## Table 1"), "{}", outputs[0]);
        assert!(outputs[1].starts_with("## Figure 3"), "{}", outputs[1]);
        assert!(
            outputs[2].starts_with("### Where the cycles go"),
            "{}",
            outputs[2]
        );
    }

    #[test]
    fn run_surfaces_errors_instead_of_panicking() {
        // An impossible machine: with no dispatch path the RSTU fills and
        // never drains, which the simulator reports as a deadlock error
        // the engine must surface (not panic on).
        let bad = Experiment {
            id: "no-paths",
            source: "a machine with no dispatch path",
            jobs: || {
                let cfg = MachineConfig {
                    dispatch_paths: 0,
                    ..MachineConfig::paper()
                };
                vec![Job::new(Mechanism::Rstu { entries: 4 }, cfg)]
            },
            format: |_| String::new(),
        };
        assert!(matches!(run(&[&bad]), Err(EngineError::Sim { .. })));
    }

    #[test]
    fn table1_rows_cover_all_loops() {
        let jobs = results("table1");
        let job = &jobs[0];
        let rows = &job.workloads;
        assert_eq!(rows.len(), 14);
        let sum: u64 = rows.iter().map(|r| r.instructions).sum();
        assert_eq!(sum, job.instructions);
        let cycles: u64 = rows.iter().map(|r| r.cycles).sum();
        assert_eq!(job.baseline_cycles, cycles);
        assert_eq!(job.cycles, cycles);
        let table = (find("table1").expect("table1").format)(&jobs);
        assert!(table.contains("| Total "), "{table}");
        // Every row, and the suite total, respects the dataflow-limit
        // sandwich: instructions <= bound <= cycles.
        let total = (job.instructions, job.dataflow_bound, job.cycles);
        for (name, (insts, bound, cycles)) in rows
            .iter()
            .map(|r| (r.name, (r.instructions, r.dataflow_bound.bound, r.cycles)))
            .chain([("Total", total)])
        {
            assert!(bound >= insts, "{name}");
            assert!(cycles >= bound, "{name}");
            let pct = 100.0 * bound as f64 / cycles as f64;
            assert!(pct > 0.0 && pct <= 100.0, "{name}: {pct}");
        }
    }

    #[test]
    fn table4_speedups_are_relative_and_every_cycle_is_accounted() {
        let jobs = results("table4");
        let ruu10 = jobs
            .iter()
            .find(|j| j.entries == Some(10))
            .expect("Table 4 lists 10 entries");
        assert!(ruu10.speedup > 0.5 && ruu10.speedup < 3.0);
        assert_eq!(ruu10.workloads.len(), engine().suite().len());
        for row in &ruu10.workloads {
            assert_eq!(
                row.cycles,
                row.stalls.issue_cycles() + row.stalls.total_stalls(),
                "cycle accounting on {}",
                row.name
            );
            assert_eq!(
                row.stalls.cycles(),
                row.cycles,
                "cycle_end count {}",
                row.name
            );
        }
    }

    #[test]
    fn a8_reflects_cbp_wins_in_cycles() {
        let cfg = MachineConfig::paper();
        let jobs = results("a8");
        let zoo = PredictorConfig::zoo();
        assert_eq!(jobs.len(), 7, "one job per zoo predictor");
        let streams = cbp_streams();
        let find = |name: &str| {
            zoo.iter()
                .zip(&jobs)
                .find(|(p, _)| p.to_string().starts_with(name))
                .map(|(&p, j)| (cbp_mispredicts(&streams, p), j))
                .unwrap_or_else(|| panic!("{name} row exists"))
        };
        let (twobit_cbp, twobit) = find("twobit:64");
        let (tage_cbp, tage) = find("tage");
        // The zoo's headline: TAGE-lite beats the calibrated default both
        // in trace-replay mispredictions and in actual pipeline cycles.
        assert!(tage_cbp < twobit_cbp);
        assert!(tage.cycles < twobit.cycles);
        for (p, j) in zoo.iter().zip(&jobs) {
            let b = j.branch.expect("a speculative job counts branches");
            assert!(b.predicts > 0, "{p}: predictor consulted");
            assert_eq!(
                b.flush_cycles,
                b.mispredicts * (cfg.mispredict_penalty + 1),
                "{p}: every flush charges penalty+1 repair cycles"
            );
        }
    }

    const OUTPUTS: [(&str, &str); 2] = [("t1", "| 1 | 2.50 |\n"), ("t2", "two\n")];

    fn block(id: &str, text: &str) -> String {
        format!("{OPEN}{id} -->\n{text}{CLOSE}\n")
    }

    /// A current document: prose around both blocks.
    fn current() -> String {
        format!(
            "# Doc\n\n{}\nprose\n\n{}",
            block("t1", OUTPUTS[0].1),
            block("t2", OUTPUTS[1].1)
        )
    }

    #[test]
    fn a_current_document_passes() {
        assert_eq!(check_doc(&current(), &OUTPUTS), vec![]);
    }

    #[test]
    fn a_block_naming_an_unknown_id_is_reported() {
        let doc = format!("{}{}", current(), block("t9", "x\n"));
        let errors = check_doc(&doc, &OUTPUTS);
        assert_eq!(
            errors,
            vec![DocError::UnknownId {
                id: "t9".into(),
                line: 12
            }]
        );
    }

    #[test]
    fn an_entry_with_no_block_is_reported() {
        let doc = block("t1", OUTPUTS[0].1);
        let errors = check_doc(&doc, &OUTPUTS);
        assert_eq!(errors, vec![DocError::Missing { id: "t2".into() }]);
    }

    #[test]
    fn a_duplicate_block_is_reported() {
        let doc = format!("{}{}", current(), block("t2", OUTPUTS[1].1));
        let errors = check_doc(&doc, &OUTPUTS);
        assert_eq!(
            errors,
            vec![DocError::Duplicate {
                id: "t2".into(),
                line: 12
            }]
        );
    }

    #[test]
    fn an_unterminated_block_is_reported() {
        let cut = format!("{}{OPEN}t2 -->\ntwo\n", block("t1", OUTPUTS[0].1));
        let errors = check_doc(&cut, &OUTPUTS);
        assert!(
            errors.contains(&DocError::Unterminated {
                id: "t2".into(),
                line: 4
            }),
            "{errors:?}"
        );
        // A block that the next one opens into is cut off too.
        let nested = format!("{OPEN}t1 -->\n{}", current());
        let errors = check_doc(&nested, &OUTPUTS);
        assert!(
            errors.contains(&DocError::Unterminated {
                id: "t1".into(),
                line: 1
            }),
            "{errors:?}"
        );
        let stray = format!("{}{CLOSE}\n", current());
        let errors = check_doc(&stray, &OUTPUTS);
        assert_eq!(errors, vec![DocError::StrayClose { line: 12 }]);
    }

    #[test]
    fn one_doctored_digit_names_the_entry() {
        let doc = current().replace("2.50", "2.51");
        let errors = check_doc(&doc, &OUTPUTS);
        let expected = DocError::Mismatch {
            id: "t1".into(),
            line: 4,
            expected: OUTPUTS[0].1.into(),
        };
        assert_eq!(errors, vec![expected.clone()]);
        let message = expected.to_string();
        assert!(message.contains("block `t1`"), "{message}");
        assert!(
            message.ends_with(&block("t1", OUTPUTS[0].1).trim_end().to_string()),
            "{message}"
        );
    }
}
