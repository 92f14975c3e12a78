//! EXPERIMENTS.md, the paper-vs-reproduction record, is the registry's
//! output: every experiment's block there must equal, byte for byte,
//! what `experiments ID` prints today. A failure names the entry and
//! prints the block to paste in its place.

use ruu_bench::experiments::{self, Experiment, EXPERIMENTS};

#[test]
fn experiments_md_matches_the_registry() {
    let all: Vec<&Experiment> = EXPERIMENTS.iter().collect();
    let (outputs, _) = experiments::run(&all).expect("every experiment runs");
    let outputs: Vec<(&str, &str)> = EXPERIMENTS
        .iter()
        .zip(&outputs)
        .map(|(e, out)| (e.id, out.as_str()))
        .collect();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md");
    let doc = std::fs::read_to_string(path).expect("EXPERIMENTS.md is readable");
    let errors = experiments::check_doc(&doc, &outputs);
    let report: Vec<String> = errors.iter().map(ToString::to_string).collect();
    assert!(
        errors.is_empty(),
        "EXPERIMENTS.md is out of date ({} problem(s)):\n\n{}",
        errors.len(),
        report.join("\n\n")
    );
}
