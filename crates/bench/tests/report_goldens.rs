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
    let configs = example_configs();
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

/// `trace info --verify` and `replay --mode lenient` over a v2 and a v3
/// file cut short by `trace gen --inject truncate=…`: the skip tally
/// behind the exit-code contract. Both reports title the input path as
/// given, so the files are written to a fixed path relative to the
/// repository root; `notes` (replay timings) are dropped.
#[test]
fn damaged_trace_reports_match_their_goldens() {
    enter_repo_root();
    let dir = "target/report-goldens";
    std::fs::create_dir_all(dir).expect("golden input directory");
    for (format, name) in [("binary", "v2"), ("columnar", "v3")] {
        let path = format!("{dir}/damaged_{name}.trace");
        render_json(
            "trace-gen",
            &[
                "--bench",
                "swim",
                "--ops",
                "50000",
                "--out",
                &path,
                "--format",
                format,
                "--inject",
                "truncate=60000",
            ],
        );
        for (experiment, args, golden) in [
            (
                "trace-info",
                vec![path.as_str(), "--verify", "true"],
                format!("report_trace_info_damaged_{name}.json"),
            ),
            (
                "replay",
                vec![
                    "--trace",
                    path.as_str(),
                    "--scheme",
                    "ipoly-skew",
                    "--mode",
                    "lenient",
                ],
                format!("report_replay_lenient_{name}.json"),
            ),
        ] {
            let json = render_json(experiment, &args);
            let got = match json.find(",\"notes\":[") {
                Some(notes) => {
                    assert!(
                        json.ends_with("]}"),
                        "{experiment}: notes are not the last field"
                    );
                    format!("{}}}", &json[..notes])
                }
                None => json,
            };
            assert_json_matches(&got, experiment, &args, &golden);
        }
    }
}

/// The replacement and write-policy ablations: the only reports that
/// run FIFO and random replacement and write-back fills.
#[test]
fn policy_ablation_reports_match_their_goldens() {
    assert_matches_golden(
        "ablation-replacement",
        &["--ops", "20000"],
        "report_ablation_replacement.json",
    );
    assert_matches_golden(
        "ablation-write-policy",
        &["--ops", "20000"],
        "report_ablation_write_policy.json",
    );
}

/// `cac sweep` in its two shapes: the parallel unscreened sweep and the
/// sequential sweep behind the analytic screen.
#[test]
fn sweep_reports_match_their_goldens() {
    let args = ["--max-stride", "64", "--passes", "4"];
    assert_matches_golden("sweep", &args, "report_sweep.json");
    let pruned = [&args[..], &["--prune", "analytic"]].concat();
    assert_matches_golden("sweep", &pruned, "report_sweep_pruned.json");
}

/// A checkpointed sweep resumes from a partial journal recorded by an
/// earlier build (30 whole strides and one cell of a 31st), with and
/// without the screen: the journal fingerprints and cell keys stay
/// readable, and the resumed report equals the uninterrupted one.
#[test]
fn sweep_resumes_a_recorded_journal() {
    let dir = golden_path("../../target/report-goldens");
    std::fs::create_dir_all(&dir).expect("journal scratch directory");
    for (journal, extra, golden) in [
        ("sweep_partial.journal", &[][..], "report_sweep.json"),
        (
            "sweep_pruned_partial.journal",
            &["--prune", "analytic"][..],
            "report_sweep_pruned.json",
        ),
    ] {
        let path = dir.join(format!("resume_{journal}"));
        std::fs::copy(golden_path(journal), &path).expect("copy the recorded journal");
        let path = path.to_str().expect("utf-8 path");
        let args = [
            &["--max-stride", "64", "--passes", "4", "--checkpoint", path][..],
            extra,
        ]
        .concat();
        assert_matches_golden("sweep", &args, golden);
    }
}

/// `cac replay` over a text trace (`notes`, the replay timing, dropped).
#[test]
fn text_trace_replay_report_matches_its_golden() {
    enter_repo_root();
    let dir = "target/report-goldens";
    std::fs::create_dir_all(dir).expect("golden input directory");
    let path = format!("{dir}/swim_text.trace");
    render_json(
        "trace-gen",
        &[
            "--bench", "swim", "--ops", "20000", "--out", &path, "--format", "text",
        ],
    );
    let args = ["--trace", path.as_str(), "--scheme", "ipoly-skew"];
    let json = render_json("replay", &args);
    let notes = json.find(",\"notes\":[").expect("replay report has notes");
    assert!(json.ends_with("]}"), "replay: notes are not the last field");
    let got = format!("{}}}", &json[..notes]);
    assert_json_matches(&got, "replay", &args, "report_replay_text.json");
}

/// The shipped configs, sorted, as paths relative to the repository
/// root.
fn example_configs() -> Vec<String> {
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
    configs
}

/// A fresh corpus of swim and tomcatv (50k ops each) at a fixed path
/// under `target/report-goldens/`, so each run is cold and the report's
/// `dir` parameter is stable.
fn fresh_corpus(name: &str) -> String {
    let dir = "target/report-goldens";
    std::fs::create_dir_all(dir).expect("golden input directory");
    let corpus = format!("{dir}/{name}");
    std::fs::remove_dir_all(&corpus).ok();
    for bench in ["swim", "tomcatv"] {
        let trace = format!("{dir}/{name}_{bench}.trace");
        render_json(
            "trace-gen",
            &["--bench", bench, "--ops", "50000", "--out", &trace],
        );
        render_json(
            "corpus-add",
            &["--dir", &corpus, "--name", bench, "--input", &trace],
        );
    }
    corpus
}

/// `corpus run` behind the analytic screen and under a cell budget,
/// cold, over the 14 shipped configs: the screen's predictions and
/// the degraded estimates. The budget of 1000 references degrades
/// every cell. Without `fully_assoc` (one set) the degrade pass
/// samples sets, so the second budget report carries standard errors.
#[test]
fn corpus_run_reports_match_their_goldens() {
    enter_repo_root();
    let configs = example_configs();
    let sampled: Vec<String> = configs
        .iter()
        .filter(|c| !c.ends_with("fully_assoc.toml"))
        .cloned()
        .collect();
    for (name, configs, extra, golden) in [
        (
            "corpus_pruned",
            &configs,
            &["--prune", "analytic"][..],
            "report_corpus_run_pruned.json",
        ),
        (
            "corpus_degraded",
            &configs,
            &["--cell-budget", "1000refs"][..],
            "report_corpus_run_degraded.json",
        ),
        (
            "corpus_degraded_sampled",
            &sampled,
            &["--cell-budget", "1000refs"][..],
            "report_corpus_run_degraded_sampled.json",
        ),
    ] {
        let corpus = fresh_corpus(name);
        let mut args = vec!["--dir", corpus.as_str(), "--explain", "true"];
        args.extend_from_slice(extra);
        args.extend(configs.iter().map(String::as_str));
        assert_matches_golden("corpus-run", &args, golden);
    }
}

/// The closed-form grid and birthday bounds of `analytic predict`.
#[test]
fn analytic_predict_report_matches_its_golden() {
    assert_matches_golden(
        "analytic-predict",
        &["--ops", "100000"],
        "report_analytic_predict.json",
    );
}
