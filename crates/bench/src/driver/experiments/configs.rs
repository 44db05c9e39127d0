//! Declarative-config tools: `cac run` and `cac config validate`.
//!
//! `cac run --config <file.toml>` is the universal experiment: build
//! *any* cache organization from a [`SimConfig`] description and replay
//! *any* trace against it — an on-disk trace file (binary, columnar or
//! text, auto-detected) or a synthetic workload model. Every §2.1/§4
//! organization of the paper's comparison matrix ships as a config
//! under `examples/*.toml`; `cac config validate` keeps those files
//! building (CI runs it, so a shipped config can never rot).
//!
//! `--config` also takes a comma-separated *grid* of configs. Grid runs
//! are fault tolerant: each cell replays under panic isolation (a
//! poisoned config degrades to a `failed` row without touching its
//! siblings), and `--checkpoint <journal>` persists completed cells so
//! a killed run resumes computing only what is missing — the resumed
//! report is byte-identical to an uninterrupted one.

use super::common::parse_benchmark;
use super::tools::open_trace_file;
use crate::driver::args::ExpArgs;
use crate::driver::report::{Report, Table, Value};
use crate::driver::DriverError;
use cac_sim::journal::{fingerprint, Journal};
use cac_sim::model::ModelStats;
use cac_sim::sweep::{ModelOutcome, Sweep};
use cac_sim::SimConfig;
use cac_trace::io::{ChunkSource, DecodeMode, IterRefSource};
use cac_trace::{MemRef, TraceOp};
use std::path::Path;
use std::time::Instant;

/// Renders a [`ModelStats`] into report tables: the demand stream, the
/// per-component breakdown, and any organization-specific counters.
fn stats_tables(stats: &ModelStats) -> Vec<Table> {
    let mut tables = Vec::new();
    let d = stats.demand;
    tables.push(
        Table::new("demand stream", &["counter", "value"])
            .row(vec![Value::s("accesses"), Value::u(d.accesses)])
            .row(vec![Value::s("reads"), Value::u(d.reads)])
            .row(vec![Value::s("writes"), Value::u(d.writes)])
            .row(vec![Value::s("hits"), Value::u(d.hits)])
            .row(vec![Value::s("misses"), Value::u(d.misses)])
            .row(vec![
                Value::s("miss ratio %"),
                Value::f(d.miss_ratio() * 100.0, 3),
            ])
            .row(vec![
                Value::s("read miss ratio %"),
                Value::f(d.read_miss_ratio() * 100.0, 3),
            ]),
    );
    if stats.components.len() > 1 || stats.components.first().is_some_and(|c| c.stats != d) {
        let mut t = Table::new(
            "components",
            &[
                "component",
                "accesses",
                "hits",
                "misses",
                "miss%",
                "evictions",
                "writebacks",
                "invalidations",
            ],
        );
        for c in &stats.components {
            t.push_row(vec![
                Value::s(c.name.clone()),
                Value::u(c.stats.accesses),
                Value::u(c.stats.hits),
                Value::u(c.stats.misses),
                Value::f(c.stats.miss_ratio() * 100.0, 3),
                Value::u(c.stats.evictions),
                Value::u(c.stats.writebacks),
                Value::u(c.stats.invalidations),
            ]);
        }
        tables.push(t);
    }
    if !stats.extras.is_empty() {
        let mut t = Table::new("organization counters", &["counter", "value"]);
        for (name, v) in &stats.extras {
            t.push_row(vec![Value::s(name.clone()), Value::u(*v)]);
        }
        tables.push(t);
    }
    tables
}

pub(super) fn run(a: &ExpArgs) -> Result<Report, DriverError> {
    let raw = a.str("config");
    if raw.is_empty() {
        return Err(DriverError::Usage(
            "--config is required (a TOML model description; see examples/*.toml)".into(),
        ));
    }
    let paths: Vec<String> = raw
        .split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(str::to_owned)
        .collect();
    if paths.is_empty() {
        return Err(DriverError::Usage("--config names no files".into()));
    }
    // A single config without a checkpoint keeps the classic detailed
    // report; grids and checkpointed runs get the cell-oriented one.
    if paths.len() > 1 || a.is_set("checkpoint") {
        return run_grid(a, &paths);
    }
    run_single(a, &paths[0])
}

fn run_single(a: &ExpArgs, path: &str) -> Result<Report, DriverError> {
    let chunk = a.usize("chunk")?.max(1);
    let cfg = SimConfig::load(path).map_err(|e| DriverError::Input(e.to_string()))?;
    let mut model = cfg.build()?;

    let trace = a.str("trace").to_owned();
    let mut refs: Vec<MemRef> = Vec::with_capacity(chunk);
    let start = Instant::now();
    let workload: String;
    if trace.is_empty() {
        let bench = parse_benchmark(a.str("bench"))?;
        let ops = a.usize("ops")?;
        let seed = a.u64("seed")?;
        workload = format!("{} x{ops} (seed {seed})", bench.name());
        let mut gen = bench.generator(seed).take(ops);
        loop {
            refs.clear();
            refs.extend((&mut gen).filter_map(|op| op.mem_ref()).take(chunk));
            if refs.is_empty() {
                break;
            }
            model.run_refs(&refs);
        }
    } else {
        let mut source = open_trace_file(&trace, DecodeMode::Strict)?;
        workload = trace.clone();
        let mut ops: Vec<TraceOp> = Vec::with_capacity(chunk);
        while source.read_chunk(&mut ops, chunk)? > 0 {
            refs.clear();
            refs.extend(ops.iter().filter_map(TraceOp::mem_ref));
            model.run_refs(&refs);
        }
    }
    let elapsed = start.elapsed();
    let stats = model.stats();

    let name = cfg.name.clone().unwrap_or_else(|| path.to_owned());
    let mut report = Report::new(format!("run: {name} — {}", model.describe()))
        .param("config", path)
        .param(
            "workload",
            if trace.is_empty() { &workload } else { &trace },
        );
    for t in stats_tables(&stats) {
        report = report.table(t);
    }
    let melem_s = stats.demand.accesses as f64 / elapsed.as_secs_f64() / 1e6;
    Ok(report.note(format!(
        "replayed {} references from {workload} in {:.1} ms ({melem_s:.1} Melem/s)",
        stats.demand.accesses,
        elapsed.as_secs_f64() * 1e3
    )))
}

/// One grid cell's result: computed, restored from the journal, or
/// failed (config rot or a panic mid-replay).
enum Cell {
    Done(ModelStats),
    Failed(String),
}

/// Replays one freshly built model under panic isolation and returns
/// its outcome.
fn replay_cell(
    a: &ExpArgs,
    trace: &str,
    chunk: usize,
    model: Box<dyn cac_sim::model::MemoryModel>,
) -> Result<ModelOutcome, DriverError> {
    let mut models = vec![model];
    let engine = Sweep::new().workers(1).chunk_ops(chunk);
    let mut outcomes = if trace.is_empty() {
        let bench = parse_benchmark(a.str("bench"))?;
        let ops = a.usize("ops")?;
        let seed = a.u64("seed")?;
        let gen = bench
            .generator(seed)
            .take(ops)
            .filter_map(|op| op.mem_ref());
        engine
            .run_source_isolated(&mut models, IterRefSource::new(gen))
            .unwrap_or_else(|e| match e {})
    } else {
        let source = open_trace_file(trace, DecodeMode::Strict)?;
        engine.run_source_isolated(&mut models, source)?
    };
    Ok(outcomes.remove(0))
}

/// The fault-tolerant, checkpointable config-grid path of `cac run`.
///
/// Every cell is keyed `<config-path>@<config-content-hash>` so editing
/// a config invalidates exactly that cell, and the journal is bound to
/// a workload fingerprint so resuming against a different trace or
/// synthetic workload is refused. The report deliberately contains no
/// timing: a resumed run must render byte-identically to an
/// uninterrupted one.
fn run_grid(a: &ExpArgs, paths: &[String]) -> Result<Report, DriverError> {
    let chunk = a.usize("chunk")?.max(1);
    let trace = a.str("trace").to_owned();
    let workload = if trace.is_empty() {
        let bench = parse_benchmark(a.str("bench"))?;
        format!(
            "{} x{} (seed {})",
            bench.name(),
            a.usize("ops")?,
            a.u64("seed")?
        )
    } else {
        trace.clone()
    };
    let fp = fingerprint(&["cac run", &workload]);
    let checkpoint = a.str("checkpoint").to_owned();
    let mut journal = if checkpoint.is_empty() {
        None
    } else {
        Some(
            Journal::load(Path::new(&checkpoint), fp)
                .map_err(|e| DriverError::Input(e.to_string()))?,
        )
    };

    let mut cells: Vec<(String, Cell)> = Vec::new();
    for path in paths {
        // The cell key hashes the config *content*, so an edited config
        // recomputes while untouched siblings restore from the journal.
        let key = match std::fs::read(path) {
            Ok(bytes) => {
                let hex: String = format!("{:016x}", cac_corpus::content_hash(&bytes));
                format!("{path}@{hex}")
            }
            Err(e) => {
                cells.push((
                    path.clone(),
                    Cell::Failed(format!("cannot read config: {e}")),
                ));
                continue;
            }
        };
        if let Some(stats) = journal.as_ref().and_then(|j| j.get(&key)) {
            cells.push((path.clone(), Cell::Done(stats.clone())));
            continue;
        }
        let model = match SimConfig::load(path).and_then(|c| c.build()) {
            Ok(m) => m,
            Err(e) => {
                cells.push((path.clone(), Cell::Failed(e.to_string())));
                continue;
            }
        };
        match replay_cell(a, &trace, chunk, model)? {
            ModelOutcome::Completed(stats) => {
                if let Some(j) = journal.as_mut() {
                    j.record(&key, &stats);
                    j.save(Path::new(&checkpoint))
                        .map_err(|e| DriverError::Input(e.to_string()))?;
                }
                cells.push((path.clone(), Cell::Done(stats)));
            }
            ModelOutcome::Failed { reason } => {
                cells.push((path.clone(), Cell::Failed(reason)));
            }
            // `cac run` sets no sweep budget, so cancellation cannot
            // happen here; treat it defensively as a failure row.
            ModelOutcome::Cancelled { refs_replayed } => {
                cells.push((
                    path.clone(),
                    Cell::Failed(format!("cancelled after {refs_replayed} refs")),
                ));
            }
        }
    }

    let mut table = Table::new(
        "config grid",
        &["config", "status", "accesses", "misses", "miss%", "detail"],
    );
    let mut failures = 0u64;
    for (path, cell) in &cells {
        match cell {
            Cell::Done(stats) => {
                let d = stats.demand;
                table.push_row(vec![
                    Value::s(path.clone()),
                    Value::s("ok"),
                    Value::u(d.accesses),
                    Value::u(d.misses),
                    Value::f(d.miss_ratio() * 100.0, 3),
                    Value::s(""),
                ]);
            }
            Cell::Failed(reason) => {
                failures += 1;
                table.push_row(vec![
                    Value::s(path.clone()),
                    Value::s("FAILED"),
                    Value::u(0),
                    Value::u(0),
                    Value::f(0.0, 3),
                    Value::s(reason.clone()),
                ]);
            }
        }
    }
    // Note no checkpoint-path echo and no timing: the report of a
    // resumed run must be byte-identical to an uninterrupted one,
    // whatever journal file carried it there.
    let mut report = Report::new(format!("run: {} config(s) against {workload}", paths.len()))
        .param("config", a.str("config"))
        .param("workload", &workload)
        .table(table)
        .flag_failures(failures);
    if failures > 0 {
        report = report.note(format!(
            "{failures} of {} cell(s) failed; their rows carry the reason and \
             the healthy cells are unaffected",
            paths.len()
        ));
    }
    Ok(report)
}

pub(super) fn validate(a: &ExpArgs) -> Result<Report, DriverError> {
    let files = a.list("files");
    if files.is_empty() {
        return Err(DriverError::Usage(
            "usage: cac config validate <file.toml> [<file.toml> ...]".into(),
        ));
    }
    let mut table = Table::new("config validation", &["file", "status", "detail"]);
    let mut failures: Vec<String> = Vec::new();
    for f in &files {
        match SimConfig::load(f).and_then(|c| c.build()) {
            Ok(model) => {
                table.push_row(vec![
                    Value::s(*f),
                    Value::s("ok"),
                    Value::s(model.describe()),
                ]);
            }
            Err(e) => {
                failures.push(format!("{f}: {e}"));
                table.push_row(vec![
                    Value::s(*f),
                    Value::s("INVALID"),
                    Value::s(e.to_string()),
                ]);
            }
        }
    }
    if !failures.is_empty() {
        return Err(DriverError::Failed(format!(
            "{} of {} config(s) invalid:\n  {}",
            failures.len(),
            files.len(),
            failures.join("\n  ")
        )));
    }
    Ok(
        Report::new(format!("config validate: {} file(s) ok", files.len()))
            .param("files", files.join(" "))
            .table(table),
    )
}
