//! # ruu-engine — the parallel batch-simulation engine
//!
//! Every paper table and ablation is a *grid* of independent simulations:
//! (mechanism, machine configuration, workload) triples whose results are
//! aggregated into speedup/issue-rate rows. [`SweepEngine::run_grid`] is
//! the one way to run such a grid — every bench table, ablation and CLI
//! mode builds a `Vec<Job>` and reads the [`SweepReport`]:
//!
//! * the workload suite is assembled **once** and shared via
//!   `Arc<[Workload]>`;
//! * independent (job × workload) units run across a
//!   `std::thread::scope` worker pool (work-stealing over an atomic
//!   counter — no external dependencies);
//! * what every job under one configuration shares — the simple-issue
//!   baseline's cycles and each workload's **dataflow-limit lower
//!   bound** (`ruu_analysis::dataflow_bound` over its golden trace) — is
//!   **memoized per configuration** in one [`MachineConfig`]-keyed memo,
//!   filled by one pooled pass, so repeated grids over the same machine
//!   never pay for it twice;
//! * results come back as a [`SweepReport`]: one [`JobResult`] per job,
//!   holding one [`WorkloadRow`] per workload (cycles, instructions,
//!   dataflow bound, stall histogram, branch and cache counters) whose
//!   sums are the job's totals, plus wall-clock and throughput engine
//!   stats, serializable to JSON with a hand-rolled std-only writer.
//!
//! Determinism is a hard guarantee: per-job numbers are aggregated in
//! workload order from per-unit integer results, so a run with 8 workers
//! is **bit-identical** to a run with 1 (asserted by the workspace's
//! `engine_determinism` test). Only the wall-clock stats vary.
//!
//! The enabling API is `ruu_issue`'s [`IssueSimulator`] trait:
//! [`Mechanism::build`] yields a `Box<dyn IssueSimulator>` (`Send`), so
//! one worker loop drives every mechanism uniformly.
//!
//! ```
//! use ruu_engine::{Job, SweepEngine};
//! use ruu_issue::{Bypass, Mechanism};
//! use ruu_sim_core::MachineConfig;
//!
//! let engine = SweepEngine::livermore().with_workers(2);
//! let jobs: Vec<Job> = [4, 8]
//!     .iter()
//!     .map(|&entries| {
//!         Job::new(
//!             Mechanism::Ruu { entries, bypass: Bypass::Full },
//!             MachineConfig::paper(),
//!         )
//!     })
//!     .collect();
//! let report = engine.run_grid(&jobs)?;
//! assert_eq!(report.jobs.len(), 2);
//! assert_eq!(report.jobs[0].workloads.len(), 14);
//! assert!(report.jobs[1].speedup >= report.jobs[0].speedup);
//! # Ok::<(), ruu_engine::EngineError>(())
//! ```

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ruu_analysis::{dataflow_bound, DataflowBound};
use ruu_exec::ExecError;
use ruu_issue::{Mechanism, SimError};
use ruu_sim_core::{MachineConfig, RunResult, StallHistogram, StallReason};
use ruu_workloads::{livermore, VerifyError, Workload};

pub mod json;

use json::JsonWriter;

/// A failure while executing one (job × workload) simulation unit.
#[derive(Debug, Clone)]
pub enum EngineError {
    /// The simulator itself failed (instruction limit, deadlock guard,
    /// broken accounting identity).
    Sim {
        /// Label of the failing job.
        job: String,
        /// Workload the failure occurred on.
        workload: &'static str,
        /// The underlying simulator error.
        err: SimError,
    },
    /// The simulation completed but produced wrong architectural results.
    Verify {
        /// Label of the failing job.
        job: String,
        /// Workload the failure occurred on.
        workload: &'static str,
        /// The underlying verification error.
        err: VerifyError,
    },
    /// The golden interpreter failed while capturing the trace that the
    /// dataflow-limit bound is computed from.
    Golden {
        /// Workload the failure occurred on.
        workload: &'static str,
        /// The underlying interpreter error.
        err: ExecError,
    },
    /// The unit panicked (a failed assertion in a simulator, e.g. a
    /// zero-sized window). The rest of the grid still ran.
    Panic {
        /// Label of the failing job (`baseline(simple)` for the memoized
        /// baseline runs).
        job: String,
        /// Workload the panic occurred on.
        workload: &'static str,
        /// The panic message.
        message: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Sim { job, workload, err } => {
                write!(f, "job {job} failed on {workload}: {err}")
            }
            EngineError::Verify { job, workload, err } => {
                write!(f, "job {job} wrong result on {workload}: {err}")
            }
            EngineError::Golden { workload, err } => {
                write!(f, "golden trace for {workload} failed: {err}")
            }
            EngineError::Panic {
                job,
                workload,
                message,
            } => write!(f, "job {job} panicked on {workload}: {message}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// One point of a batch grid: a mechanism under a machine configuration,
/// run over the engine's whole workload suite.
#[derive(Debug, Clone)]
pub struct Job {
    /// Display label (defaults to the mechanism's `Display` form).
    pub label: String,
    /// The issue mechanism to simulate.
    pub mechanism: Mechanism,
    /// The machine configuration to simulate it under.
    pub config: MachineConfig,
}

impl Job {
    /// A job labelled with the mechanism's display name.
    #[must_use]
    pub fn new(mechanism: Mechanism, config: MachineConfig) -> Self {
        Job {
            label: mechanism.to_string(),
            mechanism,
            config,
        }
    }

    /// Replaces the display label.
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

/// Branch-prediction counters of one speculative run, or their sum over
/// a job's suite.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchSummary {
    /// Conditional branches whose direction was predicted.
    pub predicts: u64,
    /// Predictions that resolved wrong and forced a squash.
    pub mispredicts: u64,
    /// Fetch cycles lost to misprediction repair
    /// ([`StallReason::MispredictRepair`]).
    pub flush_cycles: u64,
    /// Wrong-path instructions the squashes nullified.
    pub nullified: u64,
}

impl BranchSummary {
    /// Mispredictions per 1000 instructions.
    #[must_use]
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.mispredicts as f64 * 1000.0 / instructions as f64
        }
    }
}

/// Data-cache counters of one run, or their sum over a job's suite.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSummary {
    /// Loads that consulted the cache.
    pub accesses: u64,
    /// Accesses satisfied by a resident line (including merges into an
    /// outstanding fill).
    pub hits: u64,
    /// Accesses that started a fresh line fill.
    pub misses: u64,
}

impl CacheSummary {
    /// Misses per 1000 instructions.
    #[must_use]
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.misses as f64 * 1000.0 / instructions as f64
        }
    }

    /// Fraction of accesses that hit (`0.0` for an idle cache).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// One job's results on one workload: one unit of a grid (the shape of a
/// row of the paper's Table 1).
#[derive(Debug, Clone)]
pub struct WorkloadRow {
    /// The workload's name.
    pub name: &'static str,
    /// Cycles to execute it.
    pub cycles: u64,
    /// Dynamic instructions executed.
    pub instructions: u64,
    /// The workload's dataflow limit under the job's configuration (see
    /// `ruu_analysis::dataflow_bound`): its critical path, its golden
    /// instruction count, and the lower bound on cycles they imply.
    pub dataflow_bound: DataflowBound,
    /// The run's issue-side tally (`RunStats::tally`): issue cycles,
    /// per-reason stall cycles and window occupancy.
    pub stalls: StallHistogram,
    /// The run's branch-prediction counters (all zero when the mechanism
    /// does not speculate).
    pub branch: BranchSummary,
    /// The run's data-cache counters (all zero under the perfect memory).
    pub cache: CacheSummary,
}

impl WorkloadRow {
    /// The row for one verified run of `name`.
    #[must_use]
    pub fn new(name: &'static str, run: &RunResult, dataflow_bound: DataflowBound) -> Self {
        let s = &run.stats;
        WorkloadRow {
            name,
            cycles: run.cycles,
            instructions: run.instructions,
            dataflow_bound,
            stalls: s.tally.clone(),
            branch: BranchSummary {
                predicts: s.predicted_branches,
                mispredicts: s.mispredicted_branches,
                flush_cycles: s.stalls(StallReason::MispredictRepair),
                nullified: s.nullified,
            },
            cache: CacheSummary {
                accesses: s.dcache_accesses,
                hits: s.dcache_hits,
                misses: s.dcache_misses,
            },
        }
    }
}

/// Aggregated results of one [`Job`] over the suite.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job's label.
    pub label: String,
    /// The mechanism's display form.
    pub mechanism: String,
    /// The mechanism's window-entry count, when it has one.
    pub entries: Option<usize>,
    /// Total cycles over the suite.
    pub cycles: u64,
    /// Total dynamic instructions over the suite.
    pub instructions: u64,
    /// Simple-issue baseline cycles under the same configuration.
    pub baseline_cycles: u64,
    /// Speedup relative to the baseline (paper-style).
    pub speedup: f64,
    /// Aggregate instructions per cycle.
    pub issue_rate: f64,
    /// Total dataflow-limit lower bound over the suite: the fewest
    /// cycles any issue mechanism could take under this configuration's
    /// latencies, from `ruu_analysis::dataflow_bound` over each
    /// workload's golden trace.
    pub dataflow_bound: u64,
    /// Fraction of the dataflow limit achieved
    /// (`dataflow_bound / cycles`, in `(0, 1]`).
    pub efficiency: f64,
    /// Decode/issue stall cycles over the suite: the nonzero
    /// [`StallReason`] counters, in `StallReason::ALL` order. Together
    /// with the issue cycles these account for every simulated cycle
    /// (`cycles == instructions + Σ stalls` for the non-speculative
    /// mechanisms the engine runs).
    pub stalls: Vec<(StallReason, u64)>,
    /// Branch-prediction totals, for jobs whose mechanism speculates
    /// (`None` for every non-speculative mechanism).
    pub branch: Option<BranchSummary>,
    /// Data-cache totals, for jobs whose configuration carries a finite
    /// `DCacheConfig` (`None` under the perfect default, whose loads
    /// never consult a cache).
    pub cache: Option<CacheSummary>,
    /// One row per workload, in suite order; every total above is the
    /// sum of these rows.
    pub workloads: Vec<WorkloadRow>,
}

impl JobResult {
    /// Aggregates `job`'s per-workload rows (suite order) and scores them
    /// against the configuration's simple-issue `baseline_cycles`.
    #[must_use]
    pub fn new(job: &Job, baseline_cycles: u64, workloads: Vec<WorkloadRow>) -> Self {
        let mut cycles = 0u64;
        let mut instructions = 0u64;
        let mut dataflow_bound = 0u64;
        let mut stalls = StallHistogram::default();
        let mut branch = BranchSummary::default();
        let mut cache = CacheSummary::default();
        for r in &workloads {
            cycles += r.cycles;
            instructions += r.instructions;
            dataflow_bound += r.dataflow_bound.bound;
            stalls.absorb(&r.stalls);
            branch.predicts += r.branch.predicts;
            branch.mispredicts += r.branch.mispredicts;
            branch.flush_cycles += r.branch.flush_cycles;
            branch.nullified += r.branch.nullified;
            cache.accesses += r.cache.accesses;
            cache.hits += r.cache.hits;
            cache.misses += r.cache.misses;
        }
        JobResult {
            label: job.label.clone(),
            mechanism: job.mechanism.to_string(),
            entries: job.mechanism.window_entries(),
            cycles,
            instructions,
            baseline_cycles,
            speedup: baseline_cycles as f64 / cycles as f64,
            issue_rate: instructions as f64 / cycles as f64,
            dataflow_bound,
            efficiency: dataflow_bound as f64 / cycles as f64,
            stalls: stalls.rows(),
            branch: job.mechanism.predictor().map(|_| branch),
            cache: (!job.config.dcache.is_perfect()).then_some(cache),
            workloads,
        }
    }
}

/// Engine-side execution statistics for one grid run.
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// Worker threads used.
    pub workers: usize,
    /// Jobs in the grid.
    pub jobs: usize,
    /// (job × workload) units executed, including baseline fills.
    pub units: usize,
    /// Wall-clock time for the whole grid.
    pub wall: Duration,
    /// Jobs completed per wall-clock second.
    pub jobs_per_sec: f64,
    /// Simulation units completed per wall-clock second.
    pub units_per_sec: f64,
}

/// Everything a grid run produced: per-job results plus engine stats.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// One entry per input job, in input order.
    pub jobs: Vec<JobResult>,
    /// Execution statistics (wall-clock dependent; excluded from
    /// determinism comparisons).
    pub stats: EngineStats,
}

impl SweepReport {
    /// Serializes the report to JSON (hand-rolled, std-only writer).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("engine").begin_object();
        w.key("workers").u64(self.stats.workers as u64);
        w.key("jobs").u64(self.stats.jobs as u64);
        w.key("units").u64(self.stats.units as u64);
        w.key("wall_ms").f64(self.stats.wall.as_secs_f64() * 1e3);
        w.key("jobs_per_sec").f64(self.stats.jobs_per_sec);
        w.key("units_per_sec").f64(self.stats.units_per_sec);
        w.end_object();
        w.key("jobs").begin_array();
        for j in &self.jobs {
            w.begin_object();
            w.key("label").string(&j.label);
            w.key("mechanism").string(&j.mechanism);
            match j.entries {
                Some(e) => w.key("entries").u64(e as u64),
                None => w.key("entries").f64(f64::NAN), // renders as null
            };
            w.key("cycles").u64(j.cycles);
            w.key("instructions").u64(j.instructions);
            w.key("baseline_cycles").u64(j.baseline_cycles);
            w.key("speedup").f64(j.speedup);
            w.key("issue_rate").f64(j.issue_rate);
            w.key("dataflow_bound").u64(j.dataflow_bound);
            w.key("efficiency").f64(j.efficiency);
            w.key("stalls").begin_object();
            for &(reason, n) in &j.stalls {
                w.key(&reason.to_string()).u64(n);
            }
            w.end_object();
            if let Some(b) = j.branch {
                w.key("branch").begin_object();
                w.key("predicts").u64(b.predicts);
                w.key("mispredicts").u64(b.mispredicts);
                w.key("mpki").f64(b.mpki(j.instructions));
                w.key("flush_cycles").u64(b.flush_cycles);
                w.key("nullified").u64(b.nullified);
                w.end_object();
            }
            if let Some(c) = j.cache {
                w.key("cache").begin_object();
                w.key("accesses").u64(c.accesses);
                w.key("hits").u64(c.hits);
                w.key("misses").u64(c.misses);
                w.key("hit_rate").f64(c.hit_rate());
                w.key("mpki").f64(c.mpki(j.instructions));
                w.end_object();
            }
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

/// What every job under one configuration shares, memoized per
/// [`MachineConfig`].
#[derive(Debug)]
struct ConfigMemo {
    /// Simple-issue cycles over the suite: the denominator of every
    /// paper-style speedup.
    baseline_cycles: u64,
    /// Each workload's dataflow limit (suite order).
    bounds: Vec<DataflowBound>,
}

/// The parallel batch-simulation engine. See the crate docs.
#[derive(Debug)]
pub struct SweepEngine {
    suite: Arc<[Workload]>,
    workers: usize,
    memo: Mutex<HashMap<MachineConfig, Arc<ConfigMemo>>>,
}

impl SweepEngine {
    /// An engine over an explicit workload suite, with one worker per
    /// available hardware thread.
    #[must_use]
    pub fn new(suite: impl Into<Arc<[Workload]>>) -> Self {
        SweepEngine {
            suite: suite.into(),
            workers: default_workers(),
            memo: Mutex::new(HashMap::new()),
        }
    }

    /// An engine over the full 14-loop Livermore suite (assembled once,
    /// shared by every job).
    #[must_use]
    pub fn livermore() -> Self {
        SweepEngine::new(livermore::all())
    }

    /// Sets the worker-thread count (`0` = one per hardware thread).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = if workers == 0 {
            default_workers()
        } else {
            workers
        };
        self
    }

    /// The shared workload suite.
    #[must_use]
    pub fn suite(&self) -> &[Workload] {
        &self.suite
    }

    /// The configured worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `n_units` independent units of `f` across the worker pool,
    /// returning results in unit order regardless of scheduling. A unit
    /// that panics yields [`EngineError::Panic`] with the `(job,
    /// workload)` that `label` names for it; the other units still run.
    fn run_pool<T, F, L>(&self, n_units: usize, label: L, f: F) -> Vec<Result<T, EngineError>>
    where
        T: Send,
        F: Fn(usize) -> Result<T, EngineError> + Sync,
        L: Fn(usize) -> (String, &'static str) + Sync,
    {
        let f = |i| {
            catch_unwind(AssertUnwindSafe(|| f(i))).unwrap_or_else(|payload| {
                let (job, workload) = label(i);
                Err(EngineError::Panic {
                    job,
                    workload,
                    message: panic_message(payload.as_ref()),
                })
            })
        };
        let workers = self.workers.min(n_units).max(1);
        if workers == 1 {
            return (0..n_units).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<_>>> = (0..n_units).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n_units {
                        break;
                    }
                    let out = f(i);
                    *slots[i].lock().expect("result slot lock") = Some(out);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot lock")
                    .expect("every unit index was claimed and completed")
            })
            .collect()
    }

    /// Runs one (mechanism, config, workload) triple, unobserved (the
    /// core checks its own accounting), and verifies the result against
    /// the workload's mirror computation.
    fn run_unit(
        label: &str,
        mechanism: Mechanism,
        config: &MachineConfig,
        w: &Workload,
    ) -> Result<RunResult, EngineError> {
        let r = mechanism
            .run(config, &w.program, w.memory.clone(), w.inst_limit)
            .map_err(|err| EngineError::Sim {
                job: label.to_string(),
                workload: w.name,
                err,
            })?;
        w.verify(&r.memory).map_err(|err| EngineError::Verify {
            job: label.to_string(),
            workload: w.name,
            err,
        })?;
        Ok(r)
    }

    /// Returns the memo of every configuration in `configs` (input
    /// order), first filling those not yet memoized in one pooled pass
    /// over (config × workload) units: each unit runs the simple-issue
    /// baseline, then captures the golden trace for the dataflow bound.
    /// Also returns the number of baseline runs it executed; the bounds
    /// are static analysis, not simulation units.
    fn memos(
        &self,
        configs: &[&MachineConfig],
    ) -> Result<(Vec<Arc<ConfigMemo>>, usize), EngineError> {
        let missing: Vec<&MachineConfig> = {
            let memo = self.memo.lock().expect("memo lock");
            let mut seen: Vec<&MachineConfig> = Vec::new();
            for &c in configs {
                if !memo.contains_key(c) && !seen.contains(&c) {
                    seen.push(c);
                }
            }
            seen
        };
        let per_cfg = self.suite.len();
        let n_units = missing.len() * per_cfg;
        const BASELINE: &str = "baseline(simple)";
        let label = |i: usize| (BASELINE.to_string(), self.suite[i % per_cfg].name);
        let outs = self.run_pool(n_units, label, |i| {
            let cfg = missing[i / per_cfg];
            let w = &self.suite[i % per_cfg];
            let cycles = Self::run_unit(BASELINE, Mechanism::Simple, cfg, w)?.cycles;
            let trace = w.golden_trace().map_err(|err| EngineError::Golden {
                workload: w.name,
                err,
            })?;
            Ok((cycles, dataflow_bound(&trace, cfg)))
        });
        let mut memo = self.memo.lock().expect("memo lock");
        for (ci, &cfg) in missing.iter().enumerate() {
            let mut entry = ConfigMemo {
                baseline_cycles: 0,
                bounds: Vec::with_capacity(per_cfg),
            };
            for out in &outs[ci * per_cfg..(ci + 1) * per_cfg] {
                let (cycles, bound) = out.as_ref().map_err(Clone::clone)?;
                entry.baseline_cycles += cycles;
                entry.bounds.push(*bound);
            }
            memo.insert(cfg.clone(), Arc::new(entry));
        }
        let memos = configs
            .iter()
            .map(|&c| Arc::clone(memo.get(c).expect("every config is memoized")))
            .collect();
        Ok((memos, n_units))
    }

    /// Executes a job grid across the worker pool.
    ///
    /// Results are aggregated per job in workload order from integer
    /// per-unit results, so the numbers are identical for any worker
    /// count; only [`SweepReport::stats`] is timing-dependent.
    ///
    /// # Errors
    /// The first failing unit (in deterministic unit order) aborts the
    /// report with its [`EngineError`].
    pub fn run_grid(&self, jobs: &[Job]) -> Result<SweepReport, EngineError> {
        let start = Instant::now();
        let configs: Vec<&MachineConfig> = jobs.iter().map(|j| &j.config).collect();
        let (memos, baseline_units) = self.memos(&configs)?;

        let per_job = self.suite.len();
        let n_units = jobs.len() * per_job;
        let label = |i: usize| {
            (
                jobs[i / per_job].label.clone(),
                self.suite[i % per_job].name,
            )
        };
        let outs = self.run_pool(n_units, label, |i| {
            let (ji, wi) = (i / per_job, i % per_job);
            let (job, w) = (&jobs[ji], &self.suite[wi]);
            let r = Self::run_unit(&job.label, job.mechanism, &job.config, w)?;
            Ok(WorkloadRow::new(w.name, &r, memos[ji].bounds[wi]))
        });
        let mut outs = outs.into_iter();
        let mut results = Vec::with_capacity(jobs.len());
        for (job, memo) in jobs.iter().zip(&memos) {
            let rows = outs.by_ref().take(per_job).collect::<Result<_, _>>()?;
            results.push(JobResult::new(job, memo.baseline_cycles, rows));
        }

        let wall = start.elapsed();
        let units = n_units + baseline_units;
        let secs = wall.as_secs_f64();
        Ok(SweepReport {
            jobs: results,
            stats: EngineStats {
                workers: self.workers,
                jobs: jobs.len(),
                units,
                wall,
                jobs_per_sec: if secs > 0.0 {
                    jobs.len() as f64 / secs
                } else {
                    0.0
                },
                units_per_sec: if secs > 0.0 { units as f64 / secs } else { 0.0 },
            },
        })
    }
}

/// The message a panic carried (`panic!` payloads are `&str` or
/// `String`).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// One worker per available hardware thread (1 if unknown).
fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruu_exec::Memory;
    use ruu_isa::{Asm, Reg};
    use ruu_issue::Bypass;

    /// A tiny two-workload suite so tests stay fast.
    fn mini_suite() -> Vec<Workload> {
        let mut suite = Vec::new();
        for (name, trips) in [("mini1", 4u64), ("mini2", 7u64)] {
            let mut a = Asm::new(name);
            let top = a.new_label();
            a.a_imm(Reg::a(0), trips as i64);
            a.a_imm(Reg::a(1), 64);
            a.bind(top);
            a.ld_s(Reg::s(1), Reg::a(1), 0);
            a.f_add(Reg::s(2), Reg::s(1), Reg::s(2));
            a.st_s(Reg::s(2), Reg::a(1), 1);
            a.a_add_imm(Reg::a(1), Reg::a(1), 2);
            a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
            a.br_an(top);
            a.halt();
            let program = a.assemble().expect("mini kernel assembles");
            let memory = Memory::new(1 << 12);
            let trace =
                ruu_exec::Trace::capture(&program, memory.clone(), 10_000).expect("golden runs");
            let checks: Vec<(u64, u64)> = (0..trips)
                .map(|i| {
                    let addr = 64 + 2 * i + 1;
                    (addr, trace.final_memory().read(addr))
                })
                .collect();
            suite.push(Workload {
                name,
                description: "engine test kernel",
                program,
                memory,
                checks,
                inst_limit: 10_000,
                lint_waivers: Vec::new(),
            });
        }
        suite
    }

    fn ruu_job(entries: usize) -> Job {
        Job::new(
            Mechanism::Ruu {
                entries,
                bypass: Bypass::Full,
            },
            MachineConfig::paper(),
        )
    }

    #[test]
    fn grid_results_match_serial_reference() {
        let engine = SweepEngine::new(mini_suite()).with_workers(4);
        let jobs = vec![
            ruu_job(4),
            ruu_job(8),
            Job::new(Mechanism::Simple, MachineConfig::paper()),
        ];
        let report = engine.run_grid(&jobs).expect("grid runs");

        // Serial reference: straight loop over the same triples.
        let suite = mini_suite();
        for (job, res) in jobs.iter().zip(&report.jobs) {
            let mut cycles = 0;
            let mut insts = 0;
            assert_eq!(res.workloads.len(), suite.len(), "{}", job.label);
            for (w, row) in suite.iter().zip(&res.workloads) {
                let r = job
                    .mechanism
                    .run(&job.config, &w.program, w.memory.clone(), w.inst_limit)
                    .expect("reference run");
                assert_eq!(row.name, w.name, "{}", job.label);
                assert_eq!(row.cycles, r.cycles, "{} on {}", job.label, w.name);
                assert_eq!(
                    row.instructions, r.instructions,
                    "{} on {}",
                    job.label, w.name
                );
                cycles += r.cycles;
                insts += r.instructions;
            }
            assert_eq!(res.cycles, cycles, "{}", job.label);
            assert_eq!(res.instructions, insts, "{}", job.label);
        }
        // The simple-issue job is its own baseline.
        assert_eq!(report.jobs[2].speedup.to_bits(), 1f64.to_bits());
    }

    #[test]
    fn baseline_cache_is_memoized() {
        let engine = SweepEngine::new(mini_suite()).with_workers(2);
        let cfg = MachineConfig::paper();
        // The first grid over a config fills its baseline.
        let r0 = engine.run_grid(&[ruu_job(4)]).expect("grid");
        assert_eq!(r0.stats.units, 2 * engine.suite().len());
        // Second grid over the same config schedules no baseline units.
        let r1 = engine.run_grid(&[ruu_job(4)]).expect("grid");
        assert_eq!(r1.stats.units, engine.suite().len());
        assert_eq!(r0.jobs[0].baseline_cycles, r1.jobs[0].baseline_cycles);
        // A new config forces a baseline fill.
        let other = cfg.clone().with_result_buses(2);
        let r2 = engine
            .run_grid(&[Job::new(Mechanism::Rstu { entries: 4 }, other)])
            .expect("grid");
        assert_eq!(r2.stats.units, 2 * engine.suite().len());
    }

    #[test]
    fn worker_count_does_not_change_numbers() {
        let jobs = vec![ruu_job(3), ruu_job(6), ruu_job(12)];
        let serial = SweepEngine::new(mini_suite())
            .with_workers(1)
            .run_grid(&jobs)
            .expect("serial grid");
        let parallel = SweepEngine::new(mini_suite())
            .with_workers(4)
            .run_grid(&jobs)
            .expect("parallel grid");
        for (a, b) in serial.jobs.iter().zip(&parallel.jobs) {
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.instructions, b.instructions);
            assert_eq!(a.speedup.to_bits(), b.speedup.to_bits());
            assert_eq!(a.issue_rate.to_bits(), b.issue_rate.to_bits());
            assert_eq!(a.stalls, b.stalls);
            assert_eq!(a.workloads.len(), b.workloads.len());
            for (ra, rb) in a.workloads.iter().zip(&b.workloads) {
                assert_eq!(ra.name, rb.name);
                assert_eq!(ra.cycles, rb.cycles);
                assert_eq!(ra.instructions, rb.instructions);
                assert_eq!(ra.dataflow_bound, rb.dataflow_bound);
                assert_eq!(ra.stalls.rows(), rb.stalls.rows());
                assert_eq!(ra.branch, rb.branch);
                assert_eq!(ra.cache, rb.cache);
            }
        }
    }

    #[test]
    fn job_stalls_account_for_every_cycle() {
        // Each issue cycle issues exactly one instruction, so per job
        // cycles == instructions + Σ stall_cycles — the identity every
        // core checks per run (`RunStats::verify`), here over the
        // aggregate.
        let engine = SweepEngine::new(mini_suite()).with_workers(4);
        let jobs = vec![
            Job::new(Mechanism::Simple, MachineConfig::paper()),
            ruu_job(4),
            Job::new(Mechanism::Rstu { entries: 6 }, MachineConfig::paper()),
        ];
        let report = engine.run_grid(&jobs).expect("grid runs");
        for j in &report.jobs {
            assert_eq!(
                j.cycles,
                j.instructions + j.stalls.iter().map(|&(_, n)| n).sum::<u64>(),
                "cycle accounting for {}",
                j.label
            );
            assert!(!j.stalls.is_empty(), "{} reports no stalls", j.label);
            assert!(j.stalls.iter().all(|&(_, n)| n > 0));
            assert!(j.stalls.len() <= StallReason::ALL.len());
        }
    }

    #[test]
    fn speculative_jobs_report_branch_stats() {
        use ruu_predict::PredictorConfig;
        let engine = SweepEngine::new(mini_suite()).with_workers(2);
        let cfg = MachineConfig::paper();
        let jobs = vec![
            ruu_job(8),
            Job::new(
                Mechanism::SpecRuu {
                    entries: 8,
                    bypass: Bypass::Full,
                    predictor: PredictorConfig::default(),
                },
                cfg.clone(),
            ),
        ];
        let report = engine.run_grid(&jobs).expect("grid");
        assert!(
            report.jobs[0].branch.is_none(),
            "non-speculative jobs carry no branch stats"
        );
        let b = report.jobs[1]
            .branch
            .expect("speculative job has branch stats");
        // The mini kernels' loop condition is computed right before the
        // branch, so the speculative machine must actually predict, and
        // the two-bit counter misses each loop exit.
        assert!(b.predicts > 0);
        assert!(b.mispredicts > 0 && b.mispredicts <= b.predicts);
        assert_eq!(
            b.flush_cycles,
            b.mispredicts * (cfg.mispredict_penalty + 1),
            "every flush costs exactly one redirect window"
        );
        assert!(b.mpki(report.jobs[1].instructions) > 0.0);

        // The JSON report carries the `branch` object for the
        // speculative job only.
        let json = report.to_json();
        for key in [
            "\"branch\":",
            "\"predicts\":",
            "\"mispredicts\":",
            "\"mpki\":",
            "\"flush_cycles\":",
            "\"nullified\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches("\"branch\":").count(), 1);
    }

    #[test]
    fn finite_dcache_jobs_report_cache_stats() {
        use ruu_sim_core::DCacheConfig;
        let engine = SweepEngine::new(mini_suite()).with_workers(2);
        let finite = MachineConfig::paper()
            .with_dcache(DCacheConfig::parse("16x2x2:20").expect("geometry parses"));
        let jobs = vec![ruu_job(8), Job::new(Mechanism::Simple, finite)];
        let report = engine.run_grid(&jobs).expect("grid");
        assert!(
            report.jobs[0].cache.is_none(),
            "perfect-memory jobs carry no cache stats"
        );
        let c = report.jobs[1].cache.expect("finite-dcache job has stats");
        assert!(c.accesses > 0, "the mini kernels load every iteration");
        assert_eq!(c.hits + c.misses, c.accesses);
        assert!(c.misses > 0, "a cold cache must miss at least once");
        assert!((0.0..=1.0).contains(&c.hit_rate()));
        assert!(c.mpki(report.jobs[1].instructions) > 0.0);

        // The JSON report carries the `cache` object for the finite job
        // only.
        let json = report.to_json();
        for key in [
            "\"cache\":",
            "\"accesses\":",
            "\"hits\":",
            "\"misses\":",
            "\"hit_rate\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches("\"cache\":").count(), 1);
    }

    #[test]
    fn report_serializes_to_json() {
        let engine = SweepEngine::new(mini_suite()).with_workers(2);
        let report = engine.run_grid(&[ruu_job(4)]).expect("grid");
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"engine\":",
            "\"workers\":",
            "\"wall_ms\":",
            "\"jobs_per_sec\":",
            "\"label\":",
            "\"cycles\":",
            "\"speedup\":",
            "\"dataflow_bound\":",
            "\"efficiency\":",
            "\"entries\":4",
            "\"stalls\":",
            "\"drained\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn workload_rows_cover_the_suite_in_order() {
        let engine = SweepEngine::new(mini_suite()).with_workers(4);
        let report = engine
            .run_grid(&[Job::new(Mechanism::Simple, MachineConfig::paper())])
            .expect("grid");
        let rows = &report.jobs[0].workloads;
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "mini1");
        assert_eq!(rows[1].name, "mini2");
        let total: u64 = rows.iter().map(|r| r.cycles).sum();
        assert_eq!(total, report.jobs[0].baseline_cycles);
    }

    #[test]
    fn cycles_never_beat_the_dataflow_bound() {
        let engine = SweepEngine::new(mini_suite()).with_workers(2);
        let jobs = vec![
            Job::new(Mechanism::Simple, MachineConfig::paper()),
            ruu_job(8),
        ];
        let report = engine.run_grid(&jobs).expect("grid");
        for j in &report.jobs {
            assert!(
                j.cycles >= j.dataflow_bound,
                "{} beat the dataflow limit: {} < {}",
                j.label,
                j.cycles,
                j.dataflow_bound
            );
            assert!(j.efficiency > 0.0 && j.efficiency <= 1.0, "{}", j.label);
        }
        // The bound is mechanism-independent, so the larger window can
        // only close the gap, never widen it past the limit.
        assert_eq!(report.jobs[0].dataflow_bound, report.jobs[1].dataflow_bound);

        // Per-workload rows carry the same per-config bounds, and the
        // bound is at least the dynamic instruction count (decode is
        // one per cycle).
        for j in &report.jobs {
            let rows = &j.workloads;
            let total: u64 = rows.iter().map(|r| r.dataflow_bound.bound).sum();
            assert_eq!(total, j.dataflow_bound);
            for r in rows {
                assert!(r.cycles >= r.dataflow_bound.bound, "{}", r.name);
                assert!(r.dataflow_bound.bound >= r.instructions, "{}", r.name);
            }
        }
    }

    #[test]
    fn errors_carry_job_and_workload() {
        let mut suite = mini_suite();
        // An absurdly low instruction limit forces SimError::InstLimit.
        suite[1].inst_limit = 1;
        let engine = SweepEngine::new(suite).with_workers(2);
        let err = engine.run_grid(&[ruu_job(4)]).expect_err("limit trips");
        match err {
            EngineError::Sim { workload, .. } => assert_eq!(workload, "mini2"),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn a_panicking_job_is_an_error_with_its_label() {
        // A zero-entry RSTU fails the simulator's size assertion. The grid
        // must come back as a labelled error at any worker count, not
        // unwind through the pool.
        let jobs = [
            Job::new(Mechanism::Rstu { entries: 4 }, MachineConfig::paper()),
            Job::new(Mechanism::Rstu { entries: 0 }, MachineConfig::paper()),
        ];
        for workers in [1, 2] {
            let engine = SweepEngine::new(mini_suite()).with_workers(workers);
            match engine.run_grid(&jobs) {
                Err(EngineError::Panic {
                    job,
                    workload,
                    message,
                }) => {
                    assert_eq!(job, "rstu(0)", "{workers} workers");
                    assert_eq!(workload, "mini1", "{workers} workers");
                    assert!(
                        message.contains("every window size must be at least 1"),
                        "{workers} workers: {message}"
                    );
                }
                other => panic!("{workers} workers: expected a panic error, got {other:?}"),
            }
            // The engine stays usable: its memo mutex was never poisoned.
            assert!(engine.run_grid(&jobs[..1]).is_ok(), "{workers} workers");
        }
    }
}
