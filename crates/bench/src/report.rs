//! Table formatting for the experiment registry: measured values
//! printed next to the paper's published numbers.

use crate::paper;
use ruu_engine::{JobResult, WorkloadRow};
use ruu_sim_core::{DCacheConfig, StallHistogram, StallReason};

/// Formats a Table-1-style report (per-loop statistics plus a `Total`
/// row) with the paper's numbers alongside. A zero-cycle row reports a
/// rate and a share of the limit of 0.
#[must_use]
pub fn format_table1(rows: &[WorkloadRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| Loop   | insts (ours) | cycles (ours) | rate (ours) | dflow bound | % of limit | insts (paper) | cycles (paper) | rate (paper) |"
    );
    let _ = writeln!(
        out,
        "|--------|-------------:|--------------:|------------:|------------:|-----------:|--------------:|---------------:|-------------:|"
    );
    let sum = |f: fn(&WorkloadRow) -> u64| rows.iter().map(f).sum::<u64>();
    let total = (
        "Total",
        sum(|r| r.instructions),
        sum(|r| r.cycles),
        sum(|r| r.dataflow_bound.bound),
    );
    let lines = rows
        .iter()
        .map(|r| (r.name, r.instructions, r.cycles, r.dataflow_bound.bound));
    for (name, insts, cycles, bound) in lines.chain([total]) {
        let p = paper::TABLE1.iter().find(|(n, ..)| *n == name);
        let (pi, pc, pr) = p.map_or((0, 0, 0.0), |&(_, i, c, r)| (i, c, r));
        let (rate, pct) = if cycles == 0 {
            (0.0, 0.0)
        } else {
            (
                insts as f64 / cycles as f64,
                100.0 * bound as f64 / cycles as f64,
            )
        };
        let _ = writeln!(
            out,
            "| {name:<6} | {insts:>12} | {cycles:>13} | {rate:>11.3} | {bound:>11} | {pct:>9.1}% | {pi:>13} | {pc:>14} | {pr:>12.3} |",
        );
    }
    out
}

/// Formats a sweep table (Tables 2–6 style) with the paper's numbers
/// alongside.
#[must_use]
pub fn format_sweep(title: &str, jobs: &[JobResult], paper_table: &[(usize, f64, f64)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "### {title}");
    let _ = writeln!(
        out,
        "| Entries | speedup (ours) | rate (ours) | speedup (paper) | rate (paper) |"
    );
    let _ = writeln!(
        out,
        "|--------:|---------------:|------------:|----------------:|-------------:|"
    );
    for j in jobs {
        let (ps, pr) = j
            .entries
            .and_then(|e| paper::lookup(paper_table, e))
            .unwrap_or((f64::NAN, f64::NAN));
        let entries = j.entries.map_or_else(|| "-".to_string(), |e| e.to_string());
        let _ = writeln!(
            out,
            "| {:>7} | {:>14.3} | {:>11.3} | {:>15.3} | {:>12.3} |",
            entries, j.speedup, j.issue_rate, ps, pr,
        );
    }
    out
}

/// Formats the data-cache ablation table: `jobs` holds one group per
/// mechanism, one job per model in `dcaches` (perfect first), and each
/// row reports the cycle price (`slowdown`) its mechanism pays for that
/// memory path.
#[must_use]
pub fn format_cache_ablation(title: &str, jobs: &[JobResult], dcaches: &[DCacheConfig]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "### {title}");
    let _ = writeln!(
        out,
        "| Mechanism | dcache | cycles | slowdown | speedup | hit rate | MPKI |"
    );
    let _ = writeln!(
        out,
        "|-----------|--------|-------:|---------:|--------:|---------:|-----:|"
    );
    for group in jobs.chunks(dcaches.len()) {
        let base = group[0].cycles as f64;
        for (i, (j, dc)) in group.iter().zip(dcaches).enumerate() {
            let label = if i == 0 { j.mechanism.as_str() } else { "" };
            let (hit_rate, mpki) = j.cache.map_or_else(
                || ("-".to_string(), "-".to_string()),
                |c| {
                    (
                        format!("{:.1}%", 100.0 * c.hit_rate()),
                        format!("{:.1}", c.mpki(j.instructions.max(1))),
                    )
                },
            );
            let _ = writeln!(
                out,
                "| {:<18} | {:<14} | {:>7} | {:>7.3}x | {:>7.3} | {hit_rate:>8} | {mpki:>4} |",
                label,
                dc.to_string(),
                j.cycles,
                j.cycles as f64 / base,
                j.speedup,
            );
        }
    }
    out
}

/// Formats a per-workload stall-breakdown table for one mechanism: one
/// column per stall reason that occurs anywhere in the suite, plus a
/// `Total` row. Cycle counts, not percentages, so rows can be checked
/// against `cycles == issue + Σ stalls` by eye.
#[must_use]
pub fn format_stall_table(title: &str, rows: &[WorkloadRow]) -> String {
    use std::fmt::Write as _;
    let reasons: Vec<StallReason> = StallReason::ALL
        .into_iter()
        .filter(|&r| rows.iter().any(|row| row.stalls.stalls(r) > 0))
        .collect();
    let mut out = String::new();
    let _ = writeln!(out, "### {title}");
    let _ = write!(out, "| Loop   | cycles | issue |");
    for r in &reasons {
        let _ = write!(out, " {r} |");
    }
    let _ = writeln!(out, " mean occ |");
    let _ = write!(out, "|--------|-------:|------:|");
    for r in &reasons {
        let _ = write!(out, "{:-<width$}:|", "", width = r.to_string().len());
    }
    let _ = writeln!(out, "---------:|");
    let mut total = StallHistogram::default();
    let mut total_cycles = 0u64;
    for row in rows {
        total.absorb(&row.stalls);
        total_cycles += row.cycles;
        let _ = write!(
            out,
            "| {:<6} | {:>6} | {:>5} |",
            row.name,
            row.cycles,
            row.stalls.issue_cycles()
        );
        for r in &reasons {
            let _ = write!(
                out,
                " {:>width$} |",
                row.stalls.stalls(*r),
                width = r.to_string().len()
            );
        }
        let _ = writeln!(
            out,
            " {:>8.2} |",
            row.stalls.mean_occupancy().unwrap_or(0.0)
        );
    }
    let _ = write!(
        out,
        "| {:<6} | {:>6} | {:>5} |",
        "Total",
        total_cycles,
        total.issue_cycles()
    );
    for r in &reasons {
        let _ = write!(
            out,
            " {:>width$} |",
            total.stalls(*r),
            width = r.to_string().len()
        );
    }
    let _ = writeln!(out, " {:>8.2} |", total.mean_occupancy().unwrap_or(0.0));
    out
}

/// Formats the engine's execution statistics for a sweep footer.
#[must_use]
pub fn format_engine_stats(stats: &ruu_engine::EngineStats) -> String {
    format!(
        "engine: {} jobs ({} units) on {} workers in {:.1?} ({:.1} jobs/s, {:.1} units/s)",
        stats.jobs, stats.units, stats.workers, stats.wall, stats.jobs_per_sec, stats.units_per_sec,
    )
}

/// Formats a plain sweep table with no paper reference (ablations): one
/// row per job, under its label.
#[must_use]
pub fn format_plain_sweep(title: &str, header: &str, jobs: &[JobResult]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "### {title}");
    let _ = writeln!(out, "| {header} | speedup | issue rate |");
    let _ = writeln!(out, "|---|---:|---:|");
    for j in jobs {
        let _ = writeln!(
            out,
            "| {} | {:.3} | {:.3} |",
            j.label, j.speedup, j.issue_rate
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruu_analysis::DataflowBound;
    use ruu_engine::Job;
    use ruu_issue::Mechanism;
    use ruu_sim_core::MachineConfig;

    fn row(name: &'static str, instructions: u64, cycles: u64, bound: u64) -> WorkloadRow {
        WorkloadRow {
            name,
            cycles,
            instructions,
            dataflow_bound: DataflowBound {
                critical_path: bound,
                instructions,
                bound,
            },
            stalls: StallHistogram::default(),
            branch: Default::default(),
            cache: Default::default(),
        }
    }

    #[test]
    fn table1_formatting_includes_paper_columns() {
        let s = format_table1(&[row("LLL1", 100, 250, 125)]);
        assert!(s.contains("LLL1"));
        assert!(s.contains("7217")); // paper column
        assert!(s.contains("0.400")); // our rate
        assert!(s.contains("% of limit"));
        assert!(s.contains("50.0%")); // 125 / 250 of the dataflow limit
    }

    #[test]
    fn table1_prints_no_nan_for_a_zero_cycle_row() {
        let s = format_table1(&[row("empty", 0, 0, 0)]);
        assert!(!s.contains("NaN"), "{s}");
        // Rate and share of the limit both report the 0 sentinel, on the
        // row and on the total it alone makes up.
        assert_eq!(s.matches("|       0.000 |").count(), 2, "{s}");
        assert_eq!(s.matches("|       0.0% |").count(), 2, "{s}");
    }

    #[test]
    fn stall_table_lists_active_reasons_and_total() {
        let jobs = [Job::new(Mechanism::Simple, MachineConfig::paper())];
        let report = crate::harness::engine()
            .run_grid(&jobs)
            .expect("stall breakdown");
        let s = format_stall_table("Where the cycles go", &report.jobs[0].workloads);
        assert!(s.contains("operands-not-ready"));
        assert!(s.contains("drained"));
        assert!(s.contains("| Total"));
        assert!(s.contains("mean occ"));
    }

    #[test]
    fn sweep_formatting_includes_paper_lookup() {
        let job = Job::new(Mechanism::Rstu { entries: 10 }, MachineConfig::paper());
        let result = JobResult::new(&job, 1500, vec![row("LLL1", 700, 1000, 700)]);
        let s = format_sweep("Table 2", &[result], &paper::TABLE2);
        assert!(s.contains("1.642")); // paper speedup at 10 entries
        assert!(s.contains("1.500"));
    }
}
