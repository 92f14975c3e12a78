//! The three benchmark workloads: what each runs and the golden-derived
//! checks each unit is held to.

use std::sync::Arc;

use ruu::engine::Job;
use ruu::exec::{RegValues, Trace};
use ruu::issue::{Bypass, Mechanism, PreciseScheme};
use ruu::precise::{fault_points, FaultKind, PrecisionCheck};
use ruu::predict::PredictorConfig;
use ruu::sim::{DCacheConfig, MachineConfig};
use ruu::workloads::layout::Lcg;
use ruu::workloads::synth::{random_program, SynthConfig};
use ruu::workloads::{livermore, Workload};

/// Workload names accepted by `--workload`.
pub const NAMES: [&str; 2] = ["paper-grid", "synth-precise"];

/// Data-cache geometries the traced run replays: smaller than the
/// Livermore loops' working set, larger than it, and a long-miss variant.
/// `synth-precise` also simulates under the first.
pub const GEOMETRIES: [&str; 3] = ["16x2x4:20", "256x4x8:20", "64x4x8:60"];

/// The predictor zoo the traced run replays, with metric-safe names.
pub const PREDICTORS: [(&str, PredictorConfig); 4] = [
    ("btfn", PredictorConfig::Btfn),
    ("twobit64", PredictorConfig::TwoBit { entries: 64 }),
    ("gshare", PredictorConfig::Gshare { entries: 1024 }),
    ("tage", PredictorConfig::Tage { entries: 512 }),
];

/// Dynamic instructions `synth-precise` generates programs until it
/// reaches, so every seed simulates about the same amount of work.
const SYNTH_INSTRUCTIONS: u64 = 150_000;
/// Sampled precise-interrupt fault points per synthetic program.
const CHECKS_PER_PROGRAM: usize = 4;
const SYNTH_LIMIT: u64 = 1_000_000;

/// One workload, fully set up: the programs, the grid the engine runs
/// over them, and the checks derived from the golden interpreter.
pub struct Bench {
    pub suite: Arc<[Workload]>,
    /// Golden final registers per program. (Final memory is held to
    /// each workload's checks: the Livermore mirrors, or every word of
    /// the golden final memory for synthetic programs.)
    pub golden_regs: Vec<RegValues>,
    pub jobs: Vec<Job>,
    /// Precise-interrupt experiments: `(program index, fault_seq)`.
    pub checks: Vec<(usize, u64)>,
    /// Dynamic instructions the checks simulate (each check runs its
    /// program once: up to the fault, then resumed to the end).
    pub check_instructions: u64,
    pub precision: PrecisionCheck,
}

impl Bench {
    /// Builds the named workload. Only `synth-precise` depends on `seed`:
    /// the Livermore data is fixed by constants inside `ruu-workloads`.
    pub fn setup(name: &str, seed: u64) -> Result<Bench, String> {
        match name {
            "paper-grid" => Bench::livermore(paper_grid()),
            "synth-precise" => synth_precise(seed),
            _ => Err(format!(
                "unknown workload {name:?} (expected one of {NAMES:?})"
            )),
        }
    }

    fn livermore(jobs: Vec<Job>) -> Result<Bench, String> {
        let suite = livermore::all();
        let golden_regs = suite
            .iter()
            .map(|w| {
                w.golden_trace()
                    .map(|t| t.final_state().regs.clone())
                    .map_err(|e| format!("golden run of {} failed: {e}", w.name))
            })
            .collect::<Result<_, _>>()?;
        Ok(Bench {
            suite: suite.into(),
            golden_regs,
            jobs,
            checks: Vec::new(),
            check_instructions: 0,
            precision: PrecisionCheck::new(15, Bypass::Full),
        })
    }

    /// Distinct machine configurations, in first-use order (the engine
    /// fills one baseline and one bound memo entry per configuration).
    pub fn configs(&self) -> Vec<MachineConfig> {
        let mut out: Vec<MachineConfig> = Vec::new();
        for j in &self.jobs {
            if !out.contains(&j.config) {
                out.push(j.config.clone());
            }
        }
        out
    }
}

/// The paper's non-speculative mechanisms under its calibrated machine
/// (Tables 1–6 and §4), window sizes from 3 to 50.
fn paper_grid() -> Vec<Job> {
    let cfg = MachineConfig::paper();
    let mut ms = vec![
        Mechanism::Simple,
        Mechanism::Tomasulo { rs_per_fu: 2 },
        Mechanism::TagUnitDistributed {
            rs_per_fu: 2,
            tags: 8,
        },
        Mechanism::RsPool { rs: 8, tags: 8 },
    ];
    ms.extend([3, 6, 10, 15, 30].map(|entries| Mechanism::Rstu { entries }));
    ms.extend([3, 6, 10, 15, 30, 50].map(|entries| Mechanism::Ruu {
        entries,
        bypass: Bypass::Full,
    }));
    ms.extend([3, 10, 30, 50].map(|entries| Mechanism::Ruu {
        entries,
        bypass: Bypass::None,
    }));
    ms.extend(
        [
            PreciseScheme::ReorderBuffer,
            PreciseScheme::ReorderBufferBypass,
            PreciseScheme::HistoryBuffer,
            PreciseScheme::FutureFile,
        ]
        .map(|scheme| Mechanism::InOrderPrecise { scheme, entries: 8 }),
    );
    ms.into_iter().map(|m| Job::new(m, cfg.clone())).collect()
}

/// One mechanism per issue family over seeded random programs under the
/// perfect memory, plus the RUU and a TAGE-predicting speculative RUU
/// under a finite data cache (a second configuration, so a second pair
/// of memo fills).
fn synth_jobs() -> Vec<Job> {
    let perfect = MachineConfig::paper();
    let mut jobs: Vec<Job> = [
        Mechanism::Simple,
        Mechanism::Rstu { entries: 15 },
        Mechanism::Ruu {
            entries: 15,
            bypass: Bypass::Full,
        },
        Mechanism::InOrderPrecise {
            scheme: PreciseScheme::ReorderBufferBypass,
            entries: 8,
        },
        Mechanism::SpecRuu {
            entries: 15,
            bypass: Bypass::Full,
            predictor: PredictorConfig::default(),
        },
    ]
    .into_iter()
    .map(|m| Job::new(m, perfect.clone()))
    .collect();
    let g = GEOMETRIES[0];
    let cached = MachineConfig::paper()
        .with_dcache(DCacheConfig::parse(g).expect("benchmark geometries are valid"));
    for m in [
        Mechanism::Ruu {
            entries: 15,
            bypass: Bypass::Full,
        },
        Mechanism::SpecRuu {
            entries: 15,
            bypass: Bypass::Full,
            predictor: PredictorConfig::Tage { entries: 512 },
        },
    ] {
        jobs.push(Job::new(m, cached.clone()).with_label(format!("{m}@{g}")));
    }
    jobs
}

fn synth_precise(seed: u64) -> Result<Bench, String> {
    let mut rng = Lcg::new(seed);
    let mut suite = Vec::new();
    let mut golden_regs = Vec::new();
    let mut checks = Vec::new();
    let mut check_instructions = 0;
    let mut total = 0u64;
    while total < SYNTH_INSTRUCTIONS {
        let i = suite.len();
        let cfg = SynthConfig {
            segments: 10,
            block_len: 16,
            max_trips: 24,
            mem_ops: true,
            hot_addresses: i % 2 == 1,
        };
        let (program, memory) = random_program(rng.next_u64(), &cfg);
        let trace = Trace::capture(&program, memory.clone(), SYNTH_LIMIT)
            .map_err(|e| format!("golden run of synthetic program {i} failed: {e}"))?;
        total += trace.len() as u64;
        let points = fault_points(&trace, FaultKind::Any);
        for _ in 0..CHECKS_PER_PROGRAM.min(points.len()) {
            checks.push((i, points[rng.next_below(points.len() as u64) as usize]));
            check_instructions += trace.len() as u64;
        }
        let final_mem = trace.final_memory();
        let name: &'static str = Box::leak(format!("synth{i}").into_boxed_str());
        suite.push(Workload {
            name,
            description: "seeded random program",
            checks: (0..final_mem.len() as u64)
                .map(|a| (a, final_mem.read(a)))
                .collect(),
            program,
            memory,
            inst_limit: SYNTH_LIMIT,
            lint_waivers: Vec::new(),
        });
        golden_regs.push(trace.final_state().regs.clone());
    }
    Ok(Bench {
        suite: suite.into(),
        golden_regs,
        jobs: synth_jobs(),
        checks,
        check_instructions,
        precision: PrecisionCheck::new(15, Bypass::Full),
    })
}
