//! Cross-check of the static analysis layer against every simulator:
//! the dataflow-limit lower bound must never exceed any mechanism's
//! measured cycles, the shipped Livermore loops must be lint-clean, and
//! the CLI lint gate must actually fail on a dirty program.

use std::process::Command;

use proptest::prelude::*;

use ruu::analysis::{apply_waivers, dataflow_bound, lint, LintOptions};
use ruu::exec::Trace;
use ruu::isa::{text, Asm, Reg};
use ruu::issue::{Bypass, Mechanism};
use ruu::sim::MachineConfig;
use ruu::workloads::livermore;
use ruu::workloads::synth::{random_program, SynthConfig};

/// The paper's six issue mechanisms at Table-scale capacities.
fn six_mechanisms() -> [Mechanism; 6] {
    [
        Mechanism::Simple,
        Mechanism::Tomasulo { rs_per_fu: 2 },
        Mechanism::TagUnitDistributed {
            rs_per_fu: 2,
            tags: 12,
        },
        Mechanism::RsPool { rs: 8, tags: 12 },
        Mechanism::Rstu { entries: 15 },
        Mechanism::Ruu {
            entries: 15,
            bypass: Bypass::Full,
        },
    ]
}

#[test]
fn no_mechanism_beats_the_dataflow_bound_on_any_loop() {
    let cfg = MachineConfig::paper();
    for w in livermore::all() {
        let golden = w.golden_trace().expect("golden run succeeds");
        let b = dataflow_bound(&golden, &cfg);
        assert!(
            b.bound >= golden.len() as u64,
            "{}: bound {} below instruction count {}",
            w.name,
            b.bound,
            golden.len()
        );
        for m in six_mechanisms() {
            let r = m
                .run(&cfg, &w.program, w.memory.clone(), w.inst_limit)
                .unwrap_or_else(|e| panic!("{m} failed on {}: {e}", w.name));
            assert!(
                r.cycles >= b.bound,
                "{m} on {}: {} cycles beats the dataflow limit {}",
                w.name,
                r.cycles,
                b.bound
            );
            let eff = b.efficiency(r.cycles).expect("nonzero cycles");
            assert!(
                eff > 0.0 && eff <= 1.0,
                "{m} on {}: efficiency {eff} out of (0, 1]",
                w.name
            );
        }
    }
}

#[test]
fn every_shipped_loop_is_lint_clean() {
    for w in livermore::all() {
        let opts = LintOptions::for_memory(w.memory.len() as u64);
        let (findings, stale) = apply_waivers(lint(&w.program, &opts), &w.lint_waivers);
        assert!(
            findings.is_empty(),
            "{} has unwaived findings: {:#?}",
            w.name,
            findings
        );
        assert!(
            stale.is_empty(),
            "{} has stale waivers at indices {:?}",
            w.name,
            stale
        );
    }
}

/// A deliberately dirty program: `S2`/`S3` are read before any write
/// (uninit-read), the first `S1` def is clobbered unread (dead-write),
/// and the second survives to the halt unread (unread-at-halt).
fn dirty_program_source() -> String {
    let mut a = Asm::new("dirty");
    a.s_add(Reg::s(1), Reg::s(2), Reg::s(3));
    a.s_imm(Reg::s(1), 5);
    a.halt();
    text::emit(&a.assemble().expect("dirty fixture assembles"))
}

#[test]
fn lint_cli_denies_warnings_on_a_dirty_fixture() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("ruu-dirty-{}.s", std::process::id()));
    std::fs::write(&path, dirty_program_source()).expect("write fixture");

    let denied = Command::new(env!("CARGO_BIN_EXE_ruu-sim"))
        .args(["lint", path.to_str().unwrap(), "--deny-warnings"])
        .output()
        .expect("run ruu-sim lint");
    let stdout = String::from_utf8_lossy(&denied.stdout);
    assert!(
        !denied.status.success(),
        "lint --deny-warnings must exit nonzero on the dirty fixture; stdout:\n{stdout}"
    );
    assert!(
        stdout.contains("uninit-read") && stdout.contains("dead-write"),
        "diagnostics missing from output:\n{stdout}"
    );

    let all_loops = Command::new(env!("CARGO_BIN_EXE_ruu-sim"))
        .args(["lint", "--all-loops", "--deny-warnings"])
        .output()
        .expect("run ruu-sim lint --all-loops");
    assert!(
        all_loops.status.success(),
        "the shipped suite must pass the lint gate; stdout:\n{}",
        String::from_utf8_lossy(&all_loops.stdout)
    );

    let _ = std::fs::remove_file(&path);
}

#[test]
fn analyze_cli_reports_bound_table_for_lll3() {
    let out = Command::new(env!("CARGO_BIN_EXE_ruu-sim"))
        .args(["analyze", "LLL3"])
        .output()
        .expect("run ruu-sim analyze");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "analyze failed:\n{stdout}");
    assert!(
        stdout.contains("cycles >= dataflow_bound"),
        "analyze must state the invariant held:\n{stdout}"
    );
    assert!(stdout.contains("LLL3") && stdout.contains("% of limit"));
}

#[test]
fn cli_rejects_bad_flags_with_an_error_not_a_panic() {
    let cases: [&[&str]; 5] = [
        // Zero machine sizes, which the config builders assert on.
        &["ruu", "LLL3", "--paths", "0"],
        &["ruu", "LLL3", "--loadregs", "0"],
        &[
            "sweep",
            "--mechanism",
            "ruu",
            "--entries",
            "4",
            "--buses",
            "0",
        ],
        // A trailing flag whose value never arrives.
        &["analyze", "LLL3", "--mechanism"],
        &["cachesim", "LLL3", "--dcache", "64x2x4:20", "--entries"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_ruu-sim"))
            .args(args)
            .output()
            .expect("run ruu-sim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: stderr:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
        assert!(stderr.contains("error:"), "{args:?}: no message:\n{stderr}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn synth_programs_never_beat_the_bound(
        seed in 0u64..1_000_000,
        entries in 2usize..24,
        mem_ops in proptest::bool::ANY,
    ) {
        let synth = SynthConfig { mem_ops, ..SynthConfig::default() };
        let (program, mem) = random_program(seed, &synth);
        let golden = Trace::capture(&program, mem.clone(), 500_000).expect("golden runs");
        let cfg = MachineConfig::paper();
        let b = dataflow_bound(&golden, &cfg);
        for m in [
            Mechanism::Simple,
            Mechanism::Rstu { entries },
            Mechanism::Ruu { entries, bypass: Bypass::Full },
        ] {
            let r = m.run(&cfg, &program, mem.clone(), 500_000)
                .unwrap_or_else(|e| panic!("{m} failed on seed {seed}: {e}"));
            prop_assert!(
                r.cycles >= b.bound,
                "{} on seed {}: {} cycles beats bound {}",
                m, seed, r.cycles, b.bound
            );
        }
    }
}
