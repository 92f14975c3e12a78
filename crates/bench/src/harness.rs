//! The process-wide [`SweepEngine`] every experiment and shape check
//! runs its job grid on, and the serial reference sweep the determinism
//! test compares it against.
//!
//! The Livermore suite is assembled once per process, jobs fan out
//! across a scoped worker pool (one worker per hardware thread), and
//! simple-issue baseline cycles and dataflow bounds are memoized per
//! machine configuration. Numbers are bit-identical for any worker
//! count.

use std::sync::OnceLock;

use ruu_analysis::dataflow_bound;
use ruu_engine::{Job, JobResult, SweepEngine, WorkloadRow};
use ruu_issue::Mechanism;
use ruu_sim_core::MachineConfig;
use ruu_workloads::livermore;

/// The process-wide sweep engine: Livermore suite assembled once,
/// baseline cycles memoized across every experiment.
pub fn engine() -> &'static SweepEngine {
    static ENGINE: OnceLock<SweepEngine> = OnceLock::new();
    ENGINE.get_or_init(SweepEngine::livermore)
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
                let r = sim
                    .run(&w.program, w.memory.clone(), w.inst_limit)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                w.verify(&r.memory)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                let trace = w.golden_trace().unwrap_or_else(|e| panic!("{what}: {e}"));
                let bound = dataflow_bound(&trace, &job.config);
                WorkloadRow::new(w.name, &r, bound)
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
