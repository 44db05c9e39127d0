//! `cacbench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path cacbench/Cargo.toml -- \
//!     --workload <table2-ipc|org-matrix|corpus-cold|corpus-screened|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (the corpus workloads read
//! `examples/*.toml`, and `BENCHMARK.json` lists the metrics). Each
//! workload runs in a child process of its own, so its peak RSS is its
//! own. The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` (output checks) and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics of a traced run with
//! `--trace 1`. Human-readable figures, including the workload-specific
//! ones, go to standard error. `--scale full` runs the workloads at the
//! sizes users run, for one-off comparisons. See `cacbench/NOTES.md`
//! for what each metric means.

mod corpus;
mod fsprobe;
mod measure;
mod org;
mod spans;
mod spec;
mod table2;

use measure::{median, ratio, Ctx, Metrics, Outcome, Scale};
use spec::{Listed, Spec};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const WORKLOADS: [&str; 4] = ["table2-ipc", "org-matrix", "corpus-cold", "corpus-screened"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Bench,
        child: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--child" {
            args.child = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or(format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            "--scale" => {
                args.scale = match value.as_str() {
                    "bench" => Scale::Bench,
                    "full" => Scale::Full,
                    _ => return Err(format!("bad --scale {value} (bench or full)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Removes the run's scratch directory, also when a workload panics.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        measure::remove_synced(&self.0);
    }
}

/// Where runs keep scratch files: inside the checkout, under the
/// build directory the repository ignores.
fn work_root() -> PathBuf {
    PathBuf::from(".bench_build").join("cacbench")
}

/// Runs one workload in this process and prints its figures as
/// tab-separated lines for the parent.
fn child(args: &Args) {
    let work = WorkDir(work_root().join(format!("{}-{}", args.workload, std::process::id())));
    std::fs::create_dir_all(&work.0).expect("create scratch directory");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        work: work.0.clone(),
        scale: args.scale,
    };
    let out: Outcome = match args.workload.as_str() {
        "table2-ipc" => table2::run(&ctx),
        "org-matrix" => org::run(&ctx),
        "corpus-cold" => corpus::run_cold(&ctx),
        "corpus-screened" => corpus::run_screened(&ctx),
        w => unreachable!("workload {w} was validated"),
    };
    let mut m = Metrics::default();
    m.set("setup_s", "s", out.setup());
    m.set("wall_s", "s", out.wall());
    m.set("setup_host_s", "s", median(&out.setup));
    m.set("wall_host_s", "s", out.host_wall());
    m.set("wall_median_host_s", "s", median(&out.walls));
    m.set(
        "clock_ghz",
        "GHz",
        measure::mean(&out.wall_scales) * measure::REF_HZ / 1e9,
    );
    m.set("peak_rss_mb", "MB", measure::peak_rss_mb());
    for (k, (v, u)) in &out.e2e.0 {
        m.set(k.clone(), u, *v);
    }
    m.set("setup_samples", "count", out.setup.len() as f64);
    m.set("wall_samples", "count", out.walls.len() as f64);
    m.set(
        "failed_ratio",
        "ratio",
        ratio(
            out.checks.failures.len() as f64,
            out.checks.attempted as f64,
        ),
    );
    if args.trace {
        let (traced, untraced) = (out.traced_wall(), out.host_wall());
        let mut layers = out.layers;
        let explained = layers.0.remove("bench.explained_s").map_or(0.0, |v| v.0);
        layers.set("bench.explained_share", "ratio", ratio(explained, traced));
        layers.set(
            "bench.tracing_overhead",
            "ratio",
            ratio(traced, untraced) - 1.0,
        );
        layers.set("bench.traced_wall_s", "s", traced);
        m.set("traced_samples", "count", out.traced_walls.len() as f64);
        for (k, (v, u)) in layers.0 {
            m.set(format!("layer:{k}"), u, v);
        }
        let jsonl = spans::to_jsonl(&out.spans, &args.workload);
        std::fs::write(
            work_root().join(format!("spans-{}.jsonl", args.workload)),
            jsonl,
        )
        .expect("write spans");
    }
    let fmt = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!("{} set-up s: {}", args.workload, fmt(&out.setup));
    eprintln!("{} timed s: {}", args.workload, fmt(&out.walls));
    if args.trace {
        eprintln!("{} traced s: {}", args.workload, fmt(&out.traced_walls));
    }
    for f in &out.checks.failures {
        eprintln!("CHECK FAILED [{}]: {f}", args.workload);
    }
    let mut stdout = std::io::stdout().lock();
    for (k, (v, u)) in &m.0 {
        writeln!(stdout, "metric\t{k}\t{u}\t{v:?}").expect("write to parent");
    }
    writeln!(
        stdout,
        "checks\t{}\t{}",
        out.checks.attempted,
        out.checks.failures.len()
    )
    .expect("write to parent");
    writeln!(stdout, "digest\t{}", out.digest.hex()).expect("write to parent");
}

/// What the parent learns from one child.
struct ChildResult {
    metrics: BTreeMap<String, (f64, String)>,
    attempted: u64,
    failed: u64,
    digest: String,
}

fn spawn_child(args: &Args, workload: &str) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--child",
            "--workload",
            workload,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if args.trace { "1" } else { "0" },
            "--scale",
            match args.scale {
                Scale::Bench => "bench",
                Scale::Full => "full",
            },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {workload} child: {e}"))?;
    if !output.status.success() {
        return Err(format!("the {workload} child failed: {}", output.status));
    }
    let mut r = ChildResult {
        metrics: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        digest: String::new(),
    };
    let text = String::from_utf8_lossy(&output.stdout);
    for line in text.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        match f.as_slice() {
            ["metric", name, unit, value] => {
                let v: f64 = value
                    .parse()
                    .map_err(|_| format!("bad value in {line:?}"))?;
                r.metrics
                    .insert((*name).to_owned(), (v, (*unit).to_owned()));
            }
            ["checks", a, f] => {
                r.attempted = a.parse().map_err(|_| format!("bad line {line:?}"))?;
                r.failed = f.parse().map_err(|_| format!("bad line {line:?}"))?;
            }
            ["digest", d] => r.digest = (*d).to_owned(),
            _ => return Err(format!("unexpected child output {line:?}")),
        }
    }
    if r.attempted == 0 {
        return Err(format!("the {workload} child reported no checks"));
    }
    Ok(r)
}

fn json_metrics(metrics: &[(String, f64, String)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(metrics)
    )
}

/// The metrics `BENCHMARK.json` lists, from one child's result, in
/// list order. Every listed end-to-end metric must be there; a listed
/// layer metric the workload does not produce reads 0 (the workload
/// does not call the layer), but one it produces must be listed, with
/// the same unit.
fn listed_metrics(
    spec: &Spec,
    args: &Args,
    workload: &str,
    r: &ChildResult,
) -> Result<Vec<(String, f64, String)>, String> {
    let (listed, prefix): (&[Listed], &str) = if args.trace {
        (&spec.per_layer, "layer:")
    } else {
        (&spec.end_to_end, "")
    };
    for (key, (_, unit)) in &r.metrics {
        let Some(name) = key.strip_prefix("layer:") else {
            continue;
        };
        match spec.per_layer.iter().find(|l| l.name == name) {
            None => {
                return Err(format!(
                    "{workload} reports {name}, which BENCHMARK.json does not list"
                ))
            }
            Some(l) if &l.unit != unit => {
                return Err(format!(
                    "{workload} reports {name} in {unit}, BENCHMARK.json lists it in {}",
                    l.unit
                ))
            }
            Some(_) => {}
        }
    }
    listed
        .iter()
        .map(|l| match r.metrics.get(&format!("{prefix}{}", l.name)) {
            Some((v, unit)) if unit == &l.unit => Ok((l.name.clone(), *v, l.unit.clone())),
            Some((_, unit)) => Err(format!(
                "{workload} reports {} in {unit}, BENCHMARK.json lists it in {}",
                l.name, l.unit
            )),
            None if args.trace => Ok((l.name.clone(), 0.0, l.unit.clone())),
            None => Err(format!("{workload} does not report {}", l.name)),
        })
        .collect()
}

fn report(workload: &str, r: &ChildResult) {
    eprintln!(
        "== {workload}: {} checks, {} failed, digest {}",
        r.attempted, r.failed, r.digest
    );
    for (name, (v, u)) in &r.metrics {
        eprintln!("   {name:<44} {v:>14.6} {u}");
    }
}

fn parent(args: &Args) -> Result<(), String> {
    if !std::path::Path::new("examples").is_dir() {
        return Err("run from the repository root: examples/ not found".into());
    }
    let spec = spec::load(std::path::Path::new("BENCHMARK.json"))?;
    if spec.workloads != WORKLOADS {
        return Err(format!(
            "BENCHMARK.json lists the workloads {:?}, this program runs {WORKLOADS:?}",
            spec.workloads
        ));
    }
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let (mut attempted, mut failed) = (0, 0);
    let mut combined = Vec::new();
    let mut last_line = String::new();
    let mut produced = std::collections::BTreeSet::new();
    for w in &workloads {
        let r = spawn_child(args, w)?;
        report(w, &r);
        produced.extend(r.metrics.keys().cloned());
        let metrics = listed_metrics(&spec, args, w, &r)?;
        last_line = json_result(r.failed == 0, r.attempted, r.failed, &metrics);
        if workloads.len() > 1 {
            println!("{{\"workload\": \"{w}\", \"result\": {last_line}}}");
        }
        attempted += r.attempted;
        failed += r.failed;
        combined.extend(
            metrics
                .into_iter()
                .map(|(n, v, u)| (format!("{w}.{n}"), v, u)),
        );
    }
    if workloads.len() > 1 {
        if args.trace {
            let unused: Vec<&str> = spec
                .per_layer
                .iter()
                .filter(|l| !produced.contains(&format!("layer:{}", l.name)))
                .map(|l| l.name.as_str())
                .collect();
            if !unused.is_empty() {
                return Err(format!("no workload reports {}", unused.join(", ")));
            }
        }
        last_line = json_result(failed == 0, attempted, failed, &combined);
    }
    println!("{last_line}");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cacbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        child(&args);
        return ExitCode::SUCCESS;
    }
    match parent(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cacbench: {e}");
            ExitCode::FAILURE
        }
    }
}
