//! perfbench — host-speed and fidelity benchmark of the RUU reproduction.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//! ```
//!
//! One process sets the workload up several times (timing each), runs
//! the direct pass that checks every unit and precise-interrupt
//! experiment, then alternates fresh-engine repetitions at 1 worker and
//! at one worker per hardware thread for `S` seconds. Every
//! repetition's simulated-output digest must equal the direct pass's.
//!
//! Output: one JSON line holding the full report (stamp, digest, timing
//! medians, tails and samples, per-layer metrics, named failures), then,
//! as the last line, `{"correct", "attempted", "failed", "metrics"}`
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). `perfbench/run.py` builds and runs this binary and
//! compares result files.

mod host;
mod stats;
mod timed;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use ruu::engine::json::JsonWriter;

use crate::host::HostProbe;
use crate::stats::{median, Summary};
use crate::timed::{digest, Rep};
use crate::traced::{layer_metrics, EngineTimes, Pass};
use crate::workloads::Bench;

/// Set-ups per batch. One batch runs before the timed repetitions and one
/// after each timed pair; `setup_s` is the median of them all.
const SETUP_REPS: usize = 5;
/// Fewest timed repetitions per worker count, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// A reported metric: name, samples, unit.
type Timed = (&'static str, Summary, &'static str);

const USAGE: &str = "usage: perfbench --workload paper-grid|synth-precise \
--seed N --seconds S --trace 0|1 [--spans PATH]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--spans" => args.spans = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    // Set-up runs a batch of times up front and again after every timed
    // pair, so its samples span the run like the repetitions' do. The host
    // probe is read on either side of every batch and every repetition.
    let probe = HostProbe::new();
    let mut setup_s = Vec::new();
    let mut setup_batch = || -> Result<Bench, String> {
        probe.read();
        let mut bench = None;
        for _ in 0..SETUP_REPS {
            let start = Instant::now();
            bench = Some(Bench::setup(&args.workload, args.seed)?);
            setup_s.push(start.elapsed().as_secs_f64());
        }
        probe.read();
        Ok(bench.expect("a batch sets up at least once"))
    };
    let bench = setup_batch()?;

    // The first direct pass is the correctness reference; a traced run
    // repeats it between the timed repetitions, and takes each per-layer
    // metric's median over the passes.
    let first = Pass::run(&bench, args.trace);
    let reference = digest(&first.jobs, &first.checks);
    let mut passes = vec![first];
    let (reps, peak_rss_mb) = timed_reps(&bench, args.seconds, nproc, &probe, || {
        // The workload already set up once, so this cannot fail.
        let _ = setup_batch();
        if args.trace {
            passes.push(Pass::run(&bench, true));
        }
    });

    let mut failures = Vec::new();
    for (k, p) in passes.iter().enumerate() {
        failures.extend(p.failures.iter().cloned());
        if digest(&p.jobs, &p.checks) != reference {
            failures.push(format!(
                "direct pass {k}: digest differs from the first pass's"
            ));
        }
    }
    for (k, r) in reps.iter().enumerate() {
        let why = match (&r.failure, &r.report) {
            (Some(why), _) => Some(why.clone()),
            (None, _) if r.digest != reference => Some(format!(
                "digest {:016x} differs from the direct pass's {reference:016x}",
                r.digest
            )),
            (None, Some(rep)) => rep
                .jobs
                .iter()
                .find(|j| j.cycles < j.dataflow_bound)
                .map(|j| format!("{}: cycles below dataflow bound", j.label)),
            (None, None) => None,
        };
        if let Some(why) = why {
            failures.push(format!("repetition {k} at {} workers: {why}", r.workers));
        }
    }
    let attempted =
        passes.iter().map(|p| p.attempted).sum::<u64>() + (passes.len() + reps.len()) as u64 - 1;
    let failed = failures.len() as u64;

    let ok = |w: usize| {
        reps.iter()
            .filter(move |r| r.workers == w && r.failure.is_none())
    };
    // Timings are scaled to the reference host (see `host`).
    let factor = probe.reference_factor();
    let mips = |w: usize| Summary::of(ok(w).map(|r| r.mips() * factor).collect());
    let sim_cycles = passes[0].jobs.iter().map(|j| j.cycles).sum::<u64>();
    let e2e: Vec<Timed> = vec![
        (
            "setup_s",
            Summary::of(setup_s.iter().map(|t| t / factor).collect()),
            "s",
        ),
        ("sim_mips_1w", mips(1), "MIPS"),
        ("sim_mips_nw", mips(nproc), "MIPS"),
        ("sim_cycles", Summary::of(vec![sim_cycles as f64]), "cycles"),
        ("peak_rss_mb", Summary::of(vec![peak_rss_mb]), "MB"),
        (
            "unit_pass_frac",
            Summary::of(vec![1.0 - failed as f64 / attempted as f64]),
            "frac",
        ),
    ];
    let host_probe = Summary::of(probe.readings());

    let layers = args.trace.then(|| {
        let engine = EngineTimes {
            grid_1w_s: median(&ok(1).map(|r| r.grid_s).collect::<Vec<_>>()),
            rep_1w_s: median(&ok(1).map(|r| r.total_s).collect::<Vec<_>>()),
            rep_nw_s: median(&ok(nproc).map(|r| r.total_s).collect::<Vec<_>>()),
            to_json_ms: to_json_ms(&reps),
        };
        let per_pass: Vec<_> = passes.iter().map(|p| layer_metrics(p, &engine)).collect();
        let mut layers = per_pass[0].clone();
        for (i, (_, value, _)) in layers.iter_mut().enumerate() {
            *value = median(&per_pass.iter().map(|m| m[i].1).collect::<Vec<_>>());
        }
        layers
    });
    if let (Some(path), true) = (&args.spans, args.trace) {
        std::fs::write(path, passes[0].tracer.to_json())
            .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
    }

    for f in &failures {
        eprintln!("perfbench: FAILED {f}");
    }
    let report = full_report(
        args,
        nproc,
        reference,
        (&e2e, &host_probe),
        layers.as_deref(),
        &failures,
        attempted,
    );
    println!("{report}");

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("attempted").u64(attempted);
    w.key("failed").u64(failed);
    w.key("metrics").begin_object();
    match &layers {
        Some(layers) => {
            for (name, value, unit) in layers {
                metric(&mut w, name, *value, unit);
            }
        }
        None => {
            for (name, s, unit) in &e2e {
                metric(&mut w, name, s.median, unit);
            }
        }
    }
    w.end_object();
    w.end_object();
    // `correct` leads the object; the writer has no boolean, so splice.
    let body = w.finish();
    println!("{{\"correct\":{},{}", failed == 0, &body[1..]);
    Ok(())
}

fn metric(w: &mut JsonWriter, name: &str, value: f64, unit: &str) {
    w.key(name).begin_object();
    w.key("value").f64(value);
    w.key("unit").string(unit);
    w.end_object();
}

/// Alternates 1-worker and `nproc`-worker repetitions, calling `between`
/// after each pair, until another pair would overrun `seconds` (but at
/// least [`MIN_REPS`] pairs), reading the host probe on either side of
/// each repetition. Also returns the peak RSS as of the first 1-worker repetition: worker
/// threads' allocator arenas make later peaks vary from run to run.
fn timed_reps(
    bench: &Bench,
    seconds: f64,
    nproc: usize,
    probe: &HostProbe,
    mut between: impl FnMut(),
) -> (Vec<Rep>, f64) {
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut rss = 0.0;
    loop {
        let pair = Instant::now();
        for workers in [1, nproc] {
            probe.read();
            reps.push(timed::rep(bench, workers));
            probe.read();
            if rss == 0.0 {
                rss = peak_rss_mb();
            }
        }
        between();
        let elapsed = start.elapsed().as_secs_f64();
        if reps.len() / 2 >= MIN_REPS && elapsed + pair.elapsed().as_secs_f64() > seconds {
            return (reps, rss);
        }
    }
}

/// Median time to serialize one repetition's sweep report.
fn to_json_ms(reps: &[Rep]) -> f64 {
    let Some(report) = reps.iter().find_map(|r| r.report.as_ref()) else {
        return 0.0;
    };
    let times: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(report.to_json());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn full_report(
    args: &Args,
    nproc: usize,
    digest: u64,
    (e2e, host_probe): (&[Timed], &Summary),
    layers: Option<&[(String, f64, &'static str)]>,
    failures: &[String],
    attempted: u64,
) -> String {
    // Keep `git` from searching above the working directory.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(PathBuf::from))
        .unwrap_or_default();
    let rev = command_line(
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", ceiling),
    );
    let rustc = command_line(Command::new("rustc").arg("--version"));

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("perfbench").u64(1);
    w.key("workload").string(&args.workload);
    w.key("seed").u64(args.seed);
    w.key("trace").u64(u64::from(args.trace));
    w.key("stamp").begin_object();
    w.key("nproc").u64(nproc as u64);
    w.key("rustc").string(&rustc);
    w.key("git_rev").string(&rev);
    w.key("workers")
        .begin_array()
        .u64(1)
        .u64(nproc as u64)
        .end_array();
    w.key("seed").u64(args.seed);
    w.end_object();
    w.key("digest").string(&format!("{digest:016x}"));
    w.key("end_to_end").begin_object();
    for (name, s, unit) in e2e {
        w.key(name);
        summary(&mut w, s, unit);
    }
    w.end_object();
    // The median reading gives back the unscaled timings (see `host`).
    w.key("host_probe");
    summary(&mut w, host_probe, "Msteps/s");
    if let Some(layers) = layers {
        w.key("per_layer").begin_object();
        for (name, value, unit) in layers {
            metric(&mut w, name, *value, unit);
        }
        w.end_object();
    }
    w.key("attempted").u64(attempted);
    w.key("failures").begin_array();
    for f in failures {
        w.string(f);
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// A timing's median, sample count, tail percentile and samples.
fn summary(w: &mut JsonWriter, s: &Summary, unit: &str) {
    w.begin_object();
    w.key("value").f64(s.median);
    w.key("unit").string(unit);
    w.key("n").u64(s.samples.len() as u64);
    if let Some((pct, v)) = s.tail {
        w.key("tail_pct").f64(pct);
        w.key("tail").f64(v);
    }
    w.key("samples").begin_array();
    for &v in &s.samples {
        w.f64(v);
    }
    w.end_array();
    w.end_object();
}
