//! Whole-report goldens: experiments run in-process through
//! `driver::run_experiment`, rendered as JSON and compared byte for
//! byte against `tests/golden/report_*.json` and `run_*.json` at the
//! repository root.
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
    let got = render_json(experiment, args);
    assert_json_matches(&got, experiment, args, golden);
}

fn render_json(experiment: &str, args: &[&str]) -> String {
    let words: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
    let report = driver::run_experiment(experiment, &words)
        .unwrap_or_else(|e| panic!("{experiment} {args:?}: {e}"));
    report.render(OutputFormat::Json)
}

fn assert_json_matches(got: &str, experiment: &str, args: &[&str], golden: &str) {
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

/// The §2.1 organization comparison: every organization of the matrix
/// swept over each SPEC model's references.
#[test]
fn organizations_report_matches_its_golden() {
    assert_matches_golden(
        "organizations",
        &["--ops", "20000"],
        "report_organizations.json",
    );
}

/// The SPEC miss-ratio table (conventional, I-Poly, fully associative).
#[test]
fn missratio_report_matches_its_golden() {
    assert_matches_golden("missratio", &["--ops", "20000"], "report_missratio.json");
}

/// Figure 1's stride sweep, every placement scheme per stride.
#[test]
fn fig1_report_matches_its_golden() {
    assert_matches_golden(
        "fig1",
        &["--max-stride", "512", "--passes", "4"],
        "report_fig1.json",
    );
}

/// One-pass Mattson curves against the sweep's per-size replays.
#[test]
fn lru_curve_report_matches_its_golden() {
    assert_matches_golden("lru-curve", &["--ops", "20000"], "report_lru_curve.json");
}

/// Model-vs-simulation error over every shipped config: the report
/// that replays through a multi-worker sweep.
#[test]
fn analytic_validate_report_matches_its_golden() {
    enter_repo_root();
    let mut configs: Vec<String> = std::fs::read_dir("examples")
        .expect("examples directory")
        .map(|e| {
            e.expect("readable entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|n| n.ends_with(".toml"))
        .map(|n| format!("examples/{n}"))
        .collect();
    configs.sort();
    assert_eq!(configs.len(), 14, "expected the 14 shipped configs");
    let args: Vec<&str> = configs.iter().map(String::as_str).collect();
    assert_matches_golden("analytic-validate", &args, "report_analytic_validate.json");
}

/// Reports record config paths as given; the goldens that take config
/// files were recorded from the repository root.
fn enter_repo_root() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::env::set_current_dir(&root).expect("repository root");
}

/// `cac run` over the shipped sidecar and virtual-real configs: the
/// organizations built on `stack::Hierarchy`. The `notes` field carries
/// timings, so it is dropped before comparing.
#[test]
fn run_reports_match_their_goldens() {
    enter_repo_root();
    for name in [
        "victim",
        "stream_buffers",
        "jouppi",
        "three_level_sidecars",
        "ipoly_two_level",
    ] {
        let config = format!("examples/{name}.toml");
        let args = [
            "--config",
            config.as_str(),
            "--bench",
            "tomcatv",
            "--ops",
            "100000",
        ];
        let json = render_json("run", &args);
        let notes = json.find(",\"notes\":[").expect("run report has notes");
        assert!(json.ends_with("]}"), "{name}: notes are not the last field");
        let got = format!("{}}}", &json[..notes]);
        assert_json_matches(&got, "run", &args, &format!("run_{name}.json"));
    }
}
