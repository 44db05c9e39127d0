//! Whole-report goldens: experiments run in-process through
//! `driver::run_experiment`, rendered as JSON and compared byte for
//! byte against `tests/golden/report_*.json` at the repository root.
//!
//! Running in-process means the check always exercises the code under
//! test — never a stale `cac` binary, and never a silent skip. There is
//! no regeneration switch: a mismatch is a behaviour change.

use cac_bench::driver;
use cac_bench::driver::report::OutputFormat;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

fn assert_matches_golden(experiment: &str, args: &[&str], golden: &str) {
    let words: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
    let report = driver::run_experiment(experiment, &words)
        .unwrap_or_else(|e| panic!("{experiment} {args:?}: {e}"));
    let got = report.render(OutputFormat::Json);
    let path = golden_path(golden);
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(got == want, "{experiment} {args:?} differs from {golden}");
}

/// Paper Table 2: IPC and load miss ratio of the 18 SPEC models under
/// the six §4 processor configurations.
#[test]
fn table2_report_matches_its_golden() {
    assert_matches_golden("table2", &["--ops", "20000"], "report_table2.json");
}

/// Paper Table 3: IPC with the placement hash on the critical path.
#[test]
fn table3_report_matches_its_golden() {
    assert_matches_golden("table3", &["--ops", "20000"], "report_table3.json");
}

/// The §3.1 translation options on the processor model.
#[test]
fn options_report_matches_its_golden() {
    assert_matches_golden("options", &["--ops", "20000"], "report_options.json");
}

/// IPC of the high-conflict programs under every placement scheme.
#[test]
fn ablation_related_ipc_report_matches_its_golden() {
    assert_matches_golden(
        "ablation-related-ipc",
        &["--ops", "20000"],
        "report_ablation_related_ipc.json",
    );
}

/// The §3 hierarchy experiments (every table shows nonzero holes, so
/// the replacement, alias and coherence hole accounting are all
/// pinned).
#[test]
fn hierarchy_reports_match_their_goldens() {
    assert_matches_golden("holes", &["--ops", "200000"], "report_holes.json");
    assert_matches_golden("coherency", &[], "report_coherency.json");
    assert_matches_golden("ablation-l2-index", &[], "report_ablation_l2_index.json");
}
