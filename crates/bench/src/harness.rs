//! Suite runner for the bench targets: the process-wide [`SweepEngine`]
//! every table and ablation runs its job grid on, plus the two ablations
//! that post-process a grid (predictor zoo, data-cache models).
//!
//! The Livermore suite is assembled once per process, jobs fan out
//! across a scoped worker pool, and simple-issue baseline cycles and
//! dataflow bounds are memoized per machine configuration. Worker count
//! defaults to the host's hardware threads and can be pinned with the
//! `RUU_BENCH_JOBS` environment variable (`1` recovers serial
//! execution). Numbers are bit-identical for any worker count.
//!
//! Failures are typed [`EngineError`]s, not panics; bench targets that
//! cannot recover go through [`run`], which prints the error and exits.

use std::sync::OnceLock;

use ruu_analysis::dataflow_bound;
use ruu_engine::{EngineError, Job, JobResult, SweepEngine, SweepReport, WorkloadRow};
use ruu_exec::ArchState;
use ruu_issue::Mechanism;
use ruu_sim_core::{DCacheConfig, MachineConfig, StallHistogram};
use ruu_workloads::livermore;

/// The process-wide sweep engine: Livermore suite assembled once,
/// baseline cycles memoized across every table and ablation target.
pub fn engine() -> &'static SweepEngine {
    static ENGINE: OnceLock<SweepEngine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let workers = std::env::var("RUU_BENCH_JOBS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        SweepEngine::livermore().with_workers(workers)
    })
}

/// Runs `jobs` on the shared engine. A bench target cannot recover from
/// a failing unit, so this prints the error and exits with status 1.
pub fn run(jobs: &[Job]) -> SweepReport {
    engine().run_grid(jobs).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    })
}

/// The legacy serial sweep: a plain loop over every (window size,
/// workload) pair, with its own baseline pass and no engine, no pool,
/// and no memo. Kept as the independent reference the
/// `engine_determinism` integration test compares the parallel engine
/// against bit-for-bit.
///
/// # Panics
/// Panics on any simulator, verification or golden-trace failure.
#[must_use]
pub fn sweep_serial(
    config: &MachineConfig,
    entries_list: &[usize],
    make: impl Fn(usize) -> Mechanism,
) -> Vec<JobResult> {
    let suite = livermore::all();
    let run_suite = |job: &Job| -> Vec<WorkloadRow> {
        let sim = job.mechanism.build(&job.config);
        suite
            .iter()
            .map(|w| {
                let what = format!("{} on {}", job.label, w.name);
                let mut stalls = StallHistogram::default();
                let r = sim
                    .run_observed(
                        ArchState::new(),
                        w.memory.clone(),
                        &w.program,
                        w.inst_limit,
                        &mut stalls,
                    )
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                w.verify(&r.memory)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                let trace = w.golden_trace().unwrap_or_else(|e| panic!("{what}: {e}"));
                let bound = dataflow_bound(&trace, &job.config);
                WorkloadRow::new(w.name, &r, stalls, bound)
            })
            .collect()
    };
    let baseline: u64 = run_suite(&Job::new(Mechanism::Simple, config.clone()))
        .iter()
        .map(|r| r.cycles)
        .sum();
    entries_list
        .iter()
        .map(|&entries| {
            let job = Job::new(make(entries), config.clone());
            let rows = run_suite(&job);
            JobResult::new(&job, baseline, rows)
        })
        .collect()
}

/// One row of the speculative-RUU predictor-ablation table: the same
/// machine, swept across the predictor zoo. `cbp_mispredicts` comes from
/// the trace-driven CBP replay (every conditional branch, no pipeline);
/// the remaining columns are the pipeline's own numbers, where only
/// branches whose condition was still unresolved at issue consult the
/// predictor.
#[derive(Debug, Clone)]
pub struct PredictorAblationRow {
    /// Canonical predictor label (`NAME[:size]`).
    pub predictor: String,
    /// Total CBP-replay mispredictions over the 14 loops.
    pub cbp_mispredicts: u64,
    /// Pipeline predictions actually consulted.
    pub predicts: u64,
    /// Pipeline mispredictions (each one a flush).
    pub mispredicts: u64,
    /// Cycles spent in mispredict-repair stalls.
    pub flush_cycles: u64,
    /// Total cycles over the suite.
    pub cycles: u64,
    /// Total instructions over the suite.
    pub instructions: u64,
    /// Speedup over the simple-issue baseline.
    pub speedup: f64,
}

/// Sweeps the speculative RUU (at `entries` window entries) across the
/// whole predictor zoo.
///
/// # Errors
/// Propagates simulator, verification, and golden-trace failures.
pub fn try_predictor_ablation(
    config: &MachineConfig,
    entries: usize,
) -> Result<Vec<PredictorAblationRow>, EngineError> {
    use ruu_predict::cbp::{evaluate, BranchStream};
    use ruu_predict::PredictorConfig;

    let zoo = PredictorConfig::zoo();
    let jobs: Vec<Job> = zoo
        .iter()
        .map(|&predictor| {
            Job::new(
                Mechanism::SpecRuu {
                    entries,
                    bypass: ruu_issue::Bypass::Full,
                    predictor,
                },
                config.clone(),
            )
        })
        .collect();
    let report = engine().run_grid(&jobs)?;

    let mut streams = Vec::new();
    for w in engine().suite() {
        let trace = w.golden_trace().map_err(|err| EngineError::Golden {
            workload: w.name,
            err,
        })?;
        streams.push(BranchStream::from_trace(&trace));
    }

    Ok(zoo
        .iter()
        .zip(&report.jobs)
        .map(|(&p, j)| {
            let cbp_mispredicts = streams
                .iter()
                .map(|s| {
                    // Fresh predictor per loop, the CBP convention.
                    let mut pred = p.build();
                    evaluate(s, pred.as_mut()).mispredicts
                })
                .sum();
            let b = j.branch.unwrap_or_default();
            PredictorAblationRow {
                predictor: p.to_string(),
                cbp_mispredicts,
                predicts: b.predicts,
                mispredicts: b.mispredicts,
                flush_cycles: b.flush_cycles,
                cycles: j.cycles,
                instructions: j.instructions,
                speedup: j.speedup,
            }
        })
        .collect())
}

/// One row of the data-cache ablation table: one mechanism under one
/// data-cache timing model, suite totals.
#[derive(Debug, Clone)]
pub struct CacheAblationRow {
    /// Mechanism label.
    pub mechanism: String,
    /// Cache model label (`perfect` or the canonical geometry spec).
    pub dcache: String,
    /// Total cycles over the suite.
    pub cycles: u64,
    /// Total instructions over the suite (the MPKI denominator).
    pub instructions: u64,
    /// Cycle ratio vs. the same mechanism under the perfect memory — the
    /// price this mechanism pays for the real memory path.
    pub slowdown: f64,
    /// Speedup vs. the simple-issue baseline *under the same memory
    /// model* (the engine memoizes the baseline per configuration).
    pub speedup: f64,
    /// Aggregate cache counters (`None` under the perfect memory).
    pub cache: Option<ruu_engine::CacheSummary>,
}

/// Runs every `mechanism` under the perfect memory and then each finite
/// cache model in `dcaches`, in one engine grid. Rows come back grouped
/// by mechanism, perfect first, so each group's `slowdown` column reads
/// as a degradation curve.
///
/// # Errors
/// Propagates the first failing (mechanism, workload) unit.
pub fn try_cache_ablation(
    config: &MachineConfig,
    mechanisms: &[Mechanism],
    dcaches: &[DCacheConfig],
) -> Result<Vec<CacheAblationRow>, EngineError> {
    let mut variants = vec![DCacheConfig::Perfect];
    variants.extend(dcaches.iter().copied());
    let jobs: Vec<Job> = mechanisms
        .iter()
        .flat_map(|&m| {
            variants
                .iter()
                .map(move |&dc| Job::new(m, config.clone().with_dcache(dc)))
        })
        .collect();
    let report = engine().run_grid(&jobs)?;
    let mut rows = Vec::new();
    for (mi, m) in mechanisms.iter().enumerate() {
        let base = report.jobs[mi * variants.len()].cycles;
        for (vi, dc) in variants.iter().enumerate() {
            let j = &report.jobs[mi * variants.len() + vi];
            rows.push(CacheAblationRow {
                mechanism: m.to_string(),
                dcache: dc.to_string(),
                cycles: j.cycles,
                instructions: j.instructions,
                slowdown: j.cycles as f64 / base as f64,
                speedup: j.speedup,
                cache: j.cache,
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruu_issue::Bypass;

    fn simple_job() -> JobResult {
        let jobs = [Job::new(Mechanism::Simple, MachineConfig::paper())];
        engine().run_grid(&jobs).expect("baseline").jobs.remove(0)
    }

    #[test]
    fn baseline_rows_cover_all_loops() {
        let job = simple_job();
        let rows = &job.workloads;
        assert_eq!(rows.len(), 14);
        let sum: u64 = rows.iter().map(|r| r.instructions).sum();
        assert_eq!(sum, job.instructions);
        let table = crate::report::format_table1(rows);
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
    fn predictor_ablation_reflects_cbp_wins_in_cycles() {
        let cfg = MachineConfig::paper();
        let rows = try_predictor_ablation(&cfg, 15).expect("predictor ablation");
        assert_eq!(rows.len(), 7, "one row per zoo predictor");
        let find = |name: &str| {
            rows.iter()
                .find(|r| r.predictor.starts_with(name))
                .unwrap_or_else(|| panic!("{name} row exists"))
        };
        let twobit = find("twobit:64");
        let tage = find("tage");
        // The zoo's headline: TAGE-lite beats the calibrated default both
        // in trace-replay mispredictions and in actual pipeline cycles.
        assert!(tage.cbp_mispredicts < twobit.cbp_mispredicts);
        assert!(tage.cycles < twobit.cycles);
        for r in &rows {
            assert!(r.predicts > 0, "{}: predictor consulted", r.predictor);
            assert_eq!(
                r.flush_cycles,
                r.mispredicts * (cfg.mispredict_penalty + 1),
                "{}: every flush charges penalty+1 repair cycles",
                r.predictor
            );
        }
    }

    #[test]
    fn sweep_reports_relative_speedup() {
        let cfg = MachineConfig::paper();
        let jobs = [Job::new(
            Mechanism::Ruu {
                entries: 10,
                bypass: Bypass::Full,
            },
            cfg,
        )];
        let pts = engine().run_grid(&jobs).expect("sweep").jobs;
        assert_eq!(pts.len(), 1);
        assert!(pts[0].speedup > 0.5 && pts[0].speedup < 3.0);
    }

    #[test]
    fn run_grid_surfaces_errors_instead_of_panicking() {
        // An impossible machine: with no dispatch path the RSTU fills and
        // never drains, which the simulator reports as a deadlock error
        // the engine must surface (not panic on).
        let cfg = MachineConfig {
            dispatch_paths: 0,
            ..MachineConfig::paper()
        };
        let result = engine().run_grid(&[Job::new(Mechanism::Rstu { entries: 4 }, cfg)]);
        assert!(matches!(result, Err(EngineError::Sim { .. })));
    }

    #[test]
    fn baseline_total_matches_rows() {
        let job = simple_job();
        let rows: u64 = job.workloads.iter().map(|r| r.cycles).sum();
        assert_eq!(job.baseline_cycles, rows);
        assert_eq!(job.cycles, rows);
    }

    #[test]
    fn stall_breakdown_accounts_for_every_cycle() {
        let cfg = MachineConfig::paper();
        let jobs = [Job::new(
            Mechanism::Ruu {
                entries: 10,
                bypass: Bypass::Full,
            },
            cfg,
        )];
        let rows = &engine().run_grid(&jobs).expect("stall breakdown").jobs[0].workloads;
        assert_eq!(rows.len(), engine().suite().len());
        for row in rows {
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
}
