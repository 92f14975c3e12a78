//! Untraced repetitions: the engine exactly as `ruu-sim sweep` drives it,
//! plus the workload's precise-interrupt checks, and the digest of the
//! simulated output they produce.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ruu::engine::{JobResult, SweepEngine, SweepReport};
use ruu::precise::PrecisionReport;
use ruu::sim::{RunResult, StallHistogram, StallReason};

use crate::workloads::Bench;

/// The simulated output of one job over the suite: every counter the
/// digest covers, in a worker-count independent form.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobOutput {
    pub cycles: u64,
    pub instructions: u64,
    pub stalls: [u64; StallReason::ALL.len()],
    /// Predicted branches, mispredictions, repair (flush) cycles.
    pub branch: [u64; 3],
    /// Data-cache accesses, hits, misses.
    pub cache: [u64; 3],
}

impl JobOutput {
    pub fn from_job(j: &JobResult) -> Self {
        let mut stalls = [0; StallReason::ALL.len()];
        for &(reason, n) in &j.stalls {
            stalls[reason_index(reason)] += n;
        }
        let b = j.branch.unwrap_or_default();
        let c = j.cache.unwrap_or_default();
        JobOutput {
            cycles: j.cycles,
            instructions: j.instructions,
            stalls,
            branch: [b.predicts, b.mispredicts, b.flush_cycles],
            cache: [c.accesses, c.hits, c.misses],
        }
    }

    /// Adds one unit's run, as the engine aggregates it.
    pub fn absorb(&mut self, r: &RunResult, hist: &StallHistogram) {
        self.cycles += r.cycles;
        self.instructions += r.instructions;
        for (i, &reason) in StallReason::ALL.iter().enumerate() {
            self.stalls[i] += hist.stalls(reason);
        }
        let s = &r.stats;
        let flush = s.stalls(StallReason::MispredictRepair);
        for (acc, n) in
            self.branch
                .iter_mut()
                .zip([s.predicted_branches, s.mispredicted_branches, flush])
        {
            *acc += n;
        }
        for (acc, n) in
            self.cache
                .iter_mut()
                .zip([s.dcache_accesses, s.dcache_hits, s.dcache_misses])
        {
            *acc += n;
        }
    }
}

fn reason_index(reason: StallReason) -> usize {
    StallReason::ALL
        .iter()
        .position(|&r| r == reason)
        .expect("every reason is in ALL")
}

/// The outcome of one precise-interrupt experiment.
pub type CheckOutcome = Result<PrecisionReport, String>;

/// FNV-1a over every job's counters, in job order, then every check's
/// outcome, in check order.
pub fn digest(jobs: &[JobOutput], checks: &[CheckOutcome]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for j in jobs {
        eat(j.cycles);
        eat(j.instructions);
        j.stalls
            .iter()
            .chain(&j.branch)
            .chain(&j.cache)
            .for_each(|&v| eat(v));
    }
    for c in checks {
        match c {
            Ok(r) => {
                eat(r.fault_seq);
                eat(r.interrupt_cycle);
                eat(u64::from(r.all_precise()));
            }
            Err(_) => eat(u64::MAX),
        }
    }
    h
}

/// Runs the precise-interrupt experiment that faults program `prog` of
/// `bench` at `fault_seq`, turning a panic into an error.
pub fn run_check(bench: &Bench, (prog, fault_seq): (usize, u64)) -> CheckOutcome {
    let w = &bench.suite[prog];
    catch_unwind(AssertUnwindSafe(|| {
        bench.precision.run(&w.program, &w.memory, fault_seq)
    }))
    .map_err(panic_message)?
    .map_err(|e| e.to_string())
}

pub fn panic_message(payload: Box<dyn Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .map_or_else(|| "panic".to_string(), |s| format!("panic: {s}"))
}

/// Maps `f` over `0..n` on `workers` scoped threads, results in index
/// order.
pub fn pool_map<T: Send>(n: usize, workers: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers.min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                *slots[i].lock().expect("slot lock") = Some(f(i));
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot lock")
                .expect("every index was claimed")
        })
        .collect()
}

/// One timed repetition.
pub struct Rep {
    pub workers: usize,
    /// Fresh engine plus `run_grid`.
    pub grid_s: f64,
    /// Grid plus the precise-interrupt checks.
    pub total_s: f64,
    /// Simulated dynamic instructions: grid jobs, baseline fills and
    /// checks.
    pub instructions: u64,
    pub digest: u64,
    pub report: Option<SweepReport>,
    pub failure: Option<String>,
}

impl Rep {
    pub fn mips(&self) -> f64 {
        self.instructions as f64 / self.total_s / 1e6
    }
}

/// Builds a fresh engine (so the baseline and bound memo fills are paid,
/// as in every `ruu-sim sweep`), runs the grid, then the checks.
pub fn rep(bench: &Bench, workers: usize) -> Rep {
    let start = Instant::now();
    let engine = SweepEngine::new(Arc::clone(&bench.suite)).with_workers(workers);
    let grid = catch_unwind(AssertUnwindSafe(|| engine.run_grid(&bench.jobs)));
    let grid_s = start.elapsed().as_secs_f64();
    let checks = pool_map(bench.checks.len(), workers, |i| {
        run_check(bench, bench.checks[i])
    });
    let total_s = start.elapsed().as_secs_f64();

    let report = match grid {
        Ok(Ok(report)) => report,
        Ok(Err(e)) => return failed(workers, grid_s, total_s, e.to_string()),
        Err(p) => return failed(workers, grid_s, total_s, panic_message(p)),
    };
    let jobs: Vec<JobOutput> = report.jobs.iter().map(JobOutput::from_job).collect();
    let suite_instructions = jobs.first().map_or(0, |j| j.instructions);
    let instructions = jobs.iter().map(|j| j.instructions).sum::<u64>()
        + suite_instructions * bench.configs().len() as u64
        + bench.check_instructions;
    Rep {
        workers,
        grid_s,
        total_s,
        instructions,
        digest: digest(&jobs, &checks),
        report: Some(report),
        failure: None,
    }
}

fn failed(workers: usize, grid_s: f64, total_s: f64, why: String) -> Rep {
    Rep {
        workers,
        grid_s,
        total_s,
        instructions: 0,
        digest: 0,
        report: None,
        failure: Some(why),
    }
}
