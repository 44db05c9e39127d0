//! Root-package integration smoke: shell the workspace-built `cac` CLI.
//!
//! The root `cac` package's other tests exercise the *library* across
//! crate boundaries; this suite makes the top-level `cargo test`
//! meaningful for the *binary* too, by driving the real `cac`
//! executable the way a user (and CI) does — including the declarative
//! config workflow (`cac run --config`, `cac config validate`).
//!
//! The binary comes from the tier-1 flow (`cargo build --release &&
//! cargo test`): we look for `target/release/cac`, then
//! `target/debug/cac`. If neither exists the suite prints a skip notice
//! rather than failing — run `cargo build --release` first for full
//! coverage. A bare `cargo test` at the root runs every crate's suite
//! (the workspace's `default-members`), this one included (see README).

use std::path::PathBuf;
use std::process::{Command, Output};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn cac_binary() -> Option<PathBuf> {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| repo_root().join("target"));
    ["release", "debug"]
        .iter()
        .map(|p| target.join(p).join("cac"))
        .find(|p| p.exists())
}

/// Runs `cac` with `args`; `None` means the binary is not built yet
/// (skip with a notice).
fn cac(args: &[&str]) -> Option<Output> {
    let bin = match cac_binary() {
        Some(b) => b,
        None => {
            eprintln!(
                "cli_smoke: skipping — build the CLI first (`cargo build --release`), \
                 then rerun `cargo test`"
            );
            return None;
        }
    };
    Some(
        Command::new(bin)
            .args(args)
            .current_dir(repo_root())
            .output()
            .expect("spawn cac"),
    )
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn list_names_the_full_command_surface() {
    let Some(out) = cac(&["list"]) else { return };
    assert!(out.status.success());
    let text = stdout(&out);
    for cmd in [
        "fig1",
        "table2",
        "replay",
        "trace-gen",
        "run",
        "config-validate",
    ] {
        assert!(text.contains(cmd), "cac list lost {cmd:?}:\n{text}");
    }
}

#[test]
fn fig1_renders_json() {
    let Some(out) = cac(&["--format", "json", "fig1", "16", "2"]) else {
        return;
    };
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
    assert!(text.contains("a2-Hp-Sk"));
}

#[test]
fn run_replays_a_config_end_to_end() {
    let Some(out) = cac(&[
        "--format",
        "json",
        "run",
        "--config",
        "examples/ipoly_skewed.toml",
        "--bench",
        "swim",
        "--ops",
        "20000",
    ]) else {
        return;
    };
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("demand stream"), "{text}");
    assert!(text.contains("\"accesses\""), "{text}");
}

#[test]
fn config_validate_covers_every_shipped_example() {
    let examples = repo_root().join("examples");
    let mut files: Vec<String> = std::fs::read_dir(&examples)
        .expect("examples/ exists")
        .filter_map(|e| {
            let p = e.ok()?.path();
            (p.extension()? == "toml").then(|| p.to_str().unwrap().to_owned())
        })
        .collect();
    files.sort();
    assert!(files.len() >= 12, "shipped config set shrank: {files:?}");
    let mut args = vec!["config", "validate"];
    args.extend(files.iter().map(String::as_str));
    let Some(out) = cac(&args) else { return };
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("ok"));
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cac-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn shipped_configs() -> Vec<String> {
    let mut files: Vec<String> = std::fs::read_dir(repo_root().join("examples"))
        .expect("examples/ exists")
        .filter_map(|e| {
            let p = e.ok()?.path();
            (p.extension()? == "toml").then(|| p.to_str().unwrap().to_owned())
        })
        .collect();
    files.sort();
    files
}

#[test]
fn version_and_exit_code_contract() {
    let Some(out) = cac(&["--version"]) else {
        return;
    };
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).starts_with("cac "), "{}", stdout(&out));

    // 2: usage errors (unknown command, bad parameter value).
    let out = cac(&["no-such-command"]).unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = cac(&["fig1", "--max-stride", "1"]).unwrap();
    assert_eq!(out.status.code(), Some(2));

    // 3: input errors (missing trace, missing config).
    let out = cac(&["replay", "--trace", "/nonexistent/trace.bin"]).unwrap();
    assert_eq!(out.status.code(), Some(3));
    let out = cac(&["run", "--config", "/nonexistent/model.toml"]).unwrap();
    assert_eq!(out.status.code(), Some(3));
}

#[test]
fn fault_injection_verify_and_lenient_replay() {
    let dir = temp_dir("faults");
    let clean = dir.join("clean.bin");
    let bad = dir.join("bad.bin");
    let Some(out) = cac(&[
        "trace",
        "gen",
        "--bench",
        "swim",
        "--ops",
        "20000",
        "--out",
        clean.to_str().unwrap(),
    ]) else {
        std::fs::remove_dir_all(&dir).ok();
        return;
    };
    assert_eq!(out.status.code(), Some(0));

    // A clean file audits clean, exit 0.
    let out = cac(&["trace", "info", clean.to_str().unwrap(), "--verify", "true"]).unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).contains("clean"), "{}", stdout(&out));

    // Injected truncation damages the file deterministically; the
    // audit reports it and exits 1 (report-with-failures).
    let out = cac(&[
        "trace",
        "gen",
        "--bench",
        "swim",
        "--ops",
        "20000",
        "--out",
        bad.to_str().unwrap(),
        "--inject",
        "truncate=30000",
    ])
    .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let out = cac(&["trace", "info", bad.to_str().unwrap(), "--verify", "true"]).unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout(&out).contains("DAMAGED"), "{}", stdout(&out));

    // Strict replay refuses the damaged file (3); lenient completes,
    // reports what it skipped, and exits 1.
    let out = cac(&["replay", "--trace", bad.to_str().unwrap()]).unwrap();
    assert_eq!(out.status.code(), Some(3));
    let out = cac(&[
        "replay",
        "--trace",
        bad.to_str().unwrap(),
        "--mode",
        "lenient",
    ])
    .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout(&out).contains("skipped"), "{}", stdout(&out));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpointed_run_resumes_byte_identically() {
    let dir = temp_dir("ckpt");
    let configs = shipped_configs();
    assert!(configs.len() >= 12);
    let all = configs.join(",");
    let subset = configs[..3].join(",");
    let j1 = dir.join("full.journal");
    let j2 = dir.join("resume.journal");
    let run = |config: &str, journal: &PathBuf| {
        cac(&[
            "run",
            "--config",
            config,
            "--bench",
            "swim",
            "--ops",
            "5000",
            "--checkpoint",
            journal.to_str().unwrap(),
        ])
    };

    // Uninterrupted full run.
    let Some(full) = run(&all, &j1) else {
        std::fs::remove_dir_all(&dir).ok();
        return;
    };
    assert_eq!(
        full.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&full.stderr)
    );

    // "Killed" run: only a subset completes, then the full grid
    // resumes against the same journal. Output must be byte-identical
    // to the uninterrupted run.
    let partial = run(&subset, &j2).unwrap();
    assert_eq!(partial.status.code(), Some(0));
    let resumed = run(&all, &j2).unwrap();
    assert_eq!(resumed.status.code(), Some(0));
    assert_eq!(
        stdout(&full),
        stdout(&resumed),
        "resumed report differs from uninterrupted report"
    );

    // A journal recorded for a different workload is refused (exit 3).
    let out = cac(&[
        "run",
        "--config",
        &subset,
        "--bench",
        "swim",
        "--ops",
        "6000",
        "--checkpoint",
        j2.to_str().unwrap(),
    ])
    .unwrap();
    assert_eq!(out.status.code(), Some(3));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("different workload"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn poisoned_config_degrades_without_touching_siblings() {
    let dir = temp_dir("poison");
    let poison = dir.join("poison.toml");
    std::fs::write(&poison, "[poison]\nafter = 1000\n").unwrap();
    let grid = format!(
        "examples/ipoly_skewed.toml,{},examples/two_way.toml",
        poison.to_str().unwrap()
    );
    let Some(out) = cac(&["run", "--config", &grid, "--bench", "swim", "--ops", "5000"]) else {
        std::fs::remove_dir_all(&dir).ok();
        return;
    };
    // The grid completes (exit 1 = report carries failures) and the
    // healthy rows are intact.
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    assert!(text.contains("FAILED"), "{text}");
    assert!(text.contains("poison model tripped"), "{text}");
    // Both healthy siblings completed with real numbers (their table
    // rows lead with the config path).
    let healthy: Vec<&str> = text
        .lines()
        .filter(|l| l.trim_start().starts_with("examples/"))
        .collect();
    assert_eq!(healthy.len(), 2, "{text}");
    for line in healthy {
        assert!(line.contains("ok"), "healthy row degraded: {line}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpointed_sweep_matches_unjournaled_sweep() {
    let dir = temp_dir("sweep-ckpt");
    let journal = dir.join("sweep.journal");
    let base = ["sweep", "--max-stride", "24", "--passes", "2"];
    let Some(plain) = cac(&base) else {
        std::fs::remove_dir_all(&dir).ok();
        return;
    };
    let mut with_ckpt: Vec<&str> = base.to_vec();
    with_ckpt.extend(["--checkpoint", journal.to_str().unwrap()]);
    let first = cac(&with_ckpt).unwrap();
    let second = cac(&with_ckpt).unwrap();
    assert_eq!(plain.status.code(), Some(0));
    assert_eq!(first.status.code(), Some(0));
    assert_eq!(second.status.code(), Some(0));
    assert_eq!(stdout(&plain), stdout(&first), "journaled sweep diverged");
    assert_eq!(stdout(&first), stdout(&second), "resumed sweep diverged");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalid_config_fails_with_a_grounded_message() {
    let dir = std::env::temp_dir().join(format!("cac-cli-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.toml");
    std::fs::write(&bad, "[cache]\nsize = 3000\n").unwrap();
    let Some(out) = cac(&["config", "validate", bad.to_str().unwrap()]) else {
        std::fs::remove_dir_all(&dir).ok();
        return;
    };
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("power of two"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analytic_predict_renders_every_format() {
    let Some(out) = cac(&[
        "--format", "json", "analytic", "predict", "--bench", "swim", "--ops", "40000",
    ]) else {
        return;
    };
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(
        text.starts_with('{') && text.trim_end().ends_with('}'),
        "{text}"
    );
    assert!(text.contains("predicted miss-ratio grid"), "{text}");
    assert!(text.contains("birthday conflict bounds"), "{text}");

    // CSV keeps both tables, separated by `# table:` markers.
    let out = cac(&[
        "--format", "csv", "analytic", "predict", "--bench", "swim", "--ops", "40000",
    ])
    .unwrap();
    assert!(out.status.success());
    let csv = stdout(&out);
    assert!(csv.contains("# table: predicted miss-ratio grid"), "{csv}");
    assert!(csv.contains("# table: birthday conflict bounds"), "{csv}");
}

#[test]
fn analytic_validate_passes_the_shipped_examples_and_round_trips_json() {
    let configs = shipped_configs();
    let mut args = vec!["--format", "json", "analytic", "validate"];
    args.extend(configs.iter().map(String::as_str));
    args.extend(["--bench", "tomcatv", "--ops", "60000"]);
    let Some(out) = cac(&args) else { return };
    assert!(
        out.status.success(),
        "validation must pass the documented bound; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(
        text.starts_with('{') && text.trim_end().ends_with('}'),
        "{text}"
    );
    assert!(text.contains("model vs simulation"), "{text}");
    assert!(text.contains("\"summary\""), "{text}");
    assert!(text.contains("PASS"), "{text}");
}

#[test]
fn analytic_validate_exit_codes() {
    // 1: validation ran but the model exceeded the (impossible) bound.
    let Some(out) = cac(&[
        "analytic",
        "validate",
        "examples/ipoly.toml",
        "--bench",
        "tomcatv",
        "--ops",
        "40000",
        "--bound",
        "0",
    ]) else {
        return;
    };
    assert_eq!(out.status.code(), Some(1), "over-bound validation exits 1");
    assert!(stdout(&out).contains("FAIL"));

    // 2: usage errors (no configs; malformed bound).
    let out = cac(&["analytic", "validate"]).unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = cac(&[
        "analytic",
        "validate",
        "examples/ipoly.toml",
        "--bound",
        "wide",
    ])
    .unwrap();
    assert_eq!(out.status.code(), Some(2));

    // 3: input errors (missing config file).
    let out = cac(&["analytic", "validate", "/nonexistent/model.toml"]).unwrap();
    assert_eq!(out.status.code(), Some(3));
}

#[test]
fn pruned_sweep_reports_screened_cells() {
    let Some(out) = cac(&[
        "sweep",
        "--max-stride",
        "64",
        "--passes",
        "4",
        "--prune",
        "analytic",
    ]) else {
        return;
    };
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("PRUNED(predicted="), "{text}");
    assert!(text.contains("analytic screen:"), "{text}");
}

/// Page mappings the mapper cannot build are config errors — exit 1
/// from `config validate`, 3 from `run` — never a panic (exit 101).
#[test]
fn bad_page_mappings_are_config_errors() {
    let dir = temp_dir("page-mapping");
    for (i, mapping) in [
        "page-mapping = \"randomized\"\npage-size = 3000\n",
        "page-mapping = \"aliased\"\nframes = 0\n",
    ]
    .iter()
    .enumerate()
    {
        let path = dir.join(format!("bad{i}.toml"));
        std::fs::write(
            &path,
            format!(
                "[hierarchy]\nvirtual-real = true\n{mapping}\
                 [[level]]\nsize = \"8KiB\"\n[[level]]\nsize = \"64KiB\"\n"
            ),
        )
        .unwrap();
        let path = path.to_str().unwrap();
        let Some(out) = cac(&["config", "validate", path]) else {
            break;
        };
        assert_eq!(out.status.code(), Some(1), "validate {mapping}");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(err.contains("page-size") || err.contains("frames"), "{err}");
        let out = cac(&["run", "--config", path, "--ops", "1000"]).unwrap();
        assert_eq!(out.status.code(), Some(3), "run {mapping}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
