//! The corpus tier's subcommands: `cac corpus add/ls/verify/run` and
//! `cac bench corpus`.
//!
//! `corpus run` is the fleet sweep: every stored trace × every config
//! file, through [`cac_corpus::run`]'s incremental engine. Its default
//! report is deliberately free of timings and cached/computed
//! distinctions — a rerun that restores every cell from the result
//! journal must render **byte-identical** to the cold run (CI diffs the
//! two). `--explain true` appends the work-accounting table for humans
//! and for the CI assertion that a no-op rerun replayed nothing.

use super::common::parse_benchmark;
use super::organization_matrix;
use super::tools::parse_bool;
use crate::driver::args::ExpArgs;
use crate::driver::report::{Report, Table, Value};
use crate::driver::DriverError;
use cac_corpus::run::{run as corpus_run_engine, CellOutcome, RunOptions, RunReport};
use cac_corpus::supervisor::{CellBudget, ChaosPlan, RetryPolicy};
use cac_corpus::{Corpus, CorpusError};
use cac_sim::model::MemoryModel;
use cac_sim::sweep::Sweep;
use cac_trace::fault::FaultSpec;
use cac_trace::io::commitfs::{FaultFs, FaultPlan};
use cac_trace::io::{write_trace_columnar, ColumnarTraceReader};
use cac_trace::MemRef;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Environment variable carrying a [`FaultPlan`] spec (e.g.
/// `crash-op=9,seed=3`). When set, `corpus run` routes its journal and
/// manifest commits through the fault-injecting write layer — the CI
/// kill-mid-commit smoke drives crash recovery through the real binary
/// this way.
pub(super) const FAULT_FS_ENV: &str = "CAC_FAULT_FS";

/// Maps corpus-tier errors onto driver exit semantics: bad inputs
/// (missing files, damaged manifests/traces) exit 3, simulator-side
/// failures exit 1.
fn driver_err(e: CorpusError) -> DriverError {
    match e {
        CorpusError::Sim(e) => DriverError::Failed(e.to_string()),
        other => DriverError::Input(other.to_string()),
    }
}

fn require_dir(a: &ExpArgs) -> Result<PathBuf, DriverError> {
    let dir = a.str("dir");
    if dir.is_empty() {
        return Err(DriverError::Usage(
            "--dir is required (the corpus directory)".into(),
        ));
    }
    Ok(PathBuf::from(dir))
}

pub(super) fn corpus_add(a: &ExpArgs) -> Result<Report, DriverError> {
    let dir = require_dir(a)?;
    let name = a.str("name");
    let input = a.str("input");
    if name.is_empty() || input.is_empty() {
        return Err(DriverError::Usage(
            "usage: cac corpus add --dir <corpus> --name <trace-name> --input <trace-file>".into(),
        ));
    }
    let mut corpus = Corpus::open_or_init(&dir).map_err(driver_err)?;
    let entry = corpus.add(name, Path::new(input)).map_err(driver_err)?;
    Ok(Report::new(format!("corpus add: {name}"))
        .param("dir", dir.display())
        .param("name", name)
        .param("input", input)
        .table(
            Table::new(
                "stored",
                &["name", "file", "hash", "ops", "refs", "blocks", "bytes"],
            )
            .row(vec![
                Value::s(&entry.name),
                Value::s(&entry.file),
                Value::s(format!("{:016x}", entry.hash)),
                Value::u(entry.ops),
                Value::u(entry.refs),
                Value::u(entry.blocks),
                Value::u(entry.bytes),
            ]),
        ))
}

pub(super) fn corpus_ls(a: &ExpArgs) -> Result<Report, DriverError> {
    let dir = require_dir(a)?;
    let corpus = Corpus::open(&dir).map_err(driver_err)?;
    let mut table = Table::new(
        "traces",
        &[
            "name", "ops", "refs", "blocks", "bytes", "bytes/op", "hash", "status",
        ],
    );
    let mut quarantined = 0u64;
    for e in corpus.entries() {
        let status = match corpus.quarantined(&e.name) {
            Some(q) => {
                quarantined += 1;
                format!("QUARANTINED [{}]: {}", q.class, q.reason)
            }
            None => "ok".to_owned(),
        };
        table.push_row(vec![
            Value::s(&e.name),
            Value::u(e.ops),
            Value::u(e.refs),
            Value::u(e.blocks),
            Value::u(e.bytes),
            Value::f(e.bytes as f64 / e.ops.max(1) as f64, 2),
            Value::s(format!("{:016x}", e.hash)),
            Value::s(status),
        ]);
    }
    let mut report = Report::new(format!(
        "corpus ls: {} trace(s) in {}",
        corpus.entries().len(),
        dir.display()
    ))
    .param("dir", dir.display())
    .table(table);
    if quarantined > 0 {
        report = report.note(format!(
            "{quarantined} trace(s) quarantined; `corpus run` skips them \
             (re-add from a clean source to clear)"
        ));
    }
    Ok(report)
}

pub(super) fn corpus_verify(a: &ExpArgs) -> Result<Report, DriverError> {
    let dir = require_dir(a)?;
    let corpus = Corpus::open(&dir).map_err(driver_err)?;
    let reports = corpus.verify();
    let mut table = Table::new("verification", &["trace", "verdict", "detail"]);
    let mut damaged = 0u64;
    for r in &reports {
        if !r.ok {
            damaged += 1;
        }
        table.push_row(vec![
            Value::s(&r.name),
            Value::s(if r.ok { "ok" } else { "DAMAGED" }),
            Value::s(&r.detail),
        ]);
    }
    let mut report = Report::new(format!("corpus verify: {}", dir.display()))
        .param("dir", dir.display())
        .table(table);
    for q in corpus.manifest().quarantine.iter() {
        report = report.note(format!(
            "quarantined: {} [{}] — {}",
            q.name, q.class, q.reason
        ));
    }
    if damaged > 0 {
        report = report.flag_failures(damaged).note(format!(
            "{damaged} of {} trace(s) failed verification; re-add them from clean sources",
            reports.len()
        ));
    } else {
        report = report.note(format!(
            "all {} trace(s) verified: hashes, checksums and counts intact",
            reports.len()
        ));
    }
    Ok(report)
}

pub(super) fn corpus_fsck(a: &ExpArgs) -> Result<Report, DriverError> {
    let dir = require_dir(a)?;
    let repair = parse_bool("repair", a.str("repair"))?;
    // Not-a-corpus surfaces as CorpusError::Manifest -> Input (exit 3);
    // problems left unrepaired flag failures below (exit 1).
    let audit = cac_corpus::fsck::fsck(&dir, repair).map_err(driver_err)?;

    let inventory = Table::new("store", &["traces", "cells", "claims"]).row(vec![
        Value::u(audit.traces as u64),
        Value::u(audit.cells as u64),
        Value::u(audit.claims as u64),
    ]);
    let mut report = Report::new(format!("corpus fsck: {}", dir.display()))
        .param("dir", dir.display())
        .param("repair", repair)
        .table(inventory);

    if !audit.problems.is_empty() {
        let mut table = Table::new("problems", &["kind", "subject", "detail", "action"]);
        for p in &audit.problems {
            let action = if p.repaired {
                "repaired"
            } else if !p.repairable {
                "manual (re-add the trace)"
            } else if repair {
                "repair failed"
            } else {
                "repairable (rerun with --repair true)"
            };
            table.push_row(vec![
                Value::s(p.kind),
                Value::s(&p.subject),
                Value::s(&p.detail),
                Value::s(action),
            ]);
        }
        report = report.table(table);
    }

    let unrepaired = audit.unrepaired() as u64;
    if unrepaired > 0 {
        report = report.flag_failures(unrepaired).note(format!(
            "{unrepaired} problem(s) outstanding of {} found (exit 1)",
            audit.problems.len()
        ));
    } else if audit.problems.is_empty() {
        report = report.note("store is consistent: manifest, pool and journal agree");
    } else {
        report = report.note(format!(
            "all {} problem(s) repaired; the store is consistent now",
            audit.problems.len()
        ));
    }
    Ok(report)
}

/// Parses the shared supervision flags (`--retry`, `--retry-seed`,
/// `--backoff-ms`, `--cell-budget`, `--skip-threshold`) into run
/// options.
fn supervision_opts(a: &ExpArgs, opts: &mut RunOptions) -> Result<(), DriverError> {
    opts.retry = RetryPolicy {
        attempts: a.u32("retry")?,
        base_ms: a.u64("backoff-ms")?,
        seed: a.u64("retry-seed")?,
    };
    let budget = a.str("cell-budget");
    if !budget.is_empty() {
        opts.budget = Some(CellBudget::parse(budget).map_err(DriverError::Usage)?);
    }
    opts.skip_threshold = a.u64("skip-threshold")?;
    Ok(())
}

/// Renders one result cell's `(status, accesses, misses, miss %)`
/// columns. The rendering is a pure function of journaled cell content
/// — no timings, no cached/fresh markers — so a fully-restored rerun is
/// byte-identical to the cold run. `FAILED`/`DEGRADED`/`QUARANTINED`
/// cells count toward `failures` (report exits 1).
fn render_cell(cell: &CellOutcome, failures: &mut u64) -> [Value; 4] {
    match cell {
        CellOutcome::Done { stats, .. } => [
            Value::s("ok"),
            Value::u(stats.demand.accesses),
            Value::u(stats.demand.misses),
            Value::f(stats.demand.miss_ratio() * 100.0, 3),
        ],
        CellOutcome::Pruned { predicted, .. } => [
            Value::s("pruned"),
            Value::s("-"),
            Value::s("-"),
            Value::s(format!("PRUNED(predicted={:.2})", predicted * 100.0)),
        ],
        CellOutcome::Degraded { estimate, se, .. } => [
            Value::s("degraded"),
            Value::s("-"),
            Value::s("-"),
            Value::s(format!(
                "DEGRADED(estimate={:.2}, se={:.2})",
                estimate * 100.0,
                se * 100.0
            )),
        ],
        CellOutcome::Failed { reason, class, .. } => {
            *failures += 1;
            [
                Value::s("FAILED"),
                Value::s("-"),
                Value::s("-"),
                Value::s(format!("FAILED[{class}]({reason})")),
            ]
        }
        CellOutcome::Quarantined { reason } => {
            *failures += 1;
            [
                Value::s("QUARANTINED"),
                Value::s("-"),
                Value::s("-"),
                Value::s(format!("QUARANTINED({reason})")),
            ]
        }
    }
}

/// Renders the matrix table plus the count of failure-carrying cells.
fn render_matrix(report_data: &RunReport) -> (Table, u64) {
    let mut matrix = Table::new(
        "results",
        &["trace", "config", "status", "accesses", "misses", "miss %"],
    );
    let mut failures = 0u64;
    for row in &report_data.rows {
        for (config, cell) in report_data.configs.iter().zip(&row.cells) {
            let [status, accesses, misses, ratio] = render_cell(cell, &mut failures);
            matrix.push_row(vec![
                Value::s(&row.trace),
                Value::s(config),
                status,
                accesses,
                misses,
                ratio,
            ]);
        }
    }
    (matrix, failures)
}

/// Renders the per-trace health table for traces with supervision
/// events (retries, skipped blocks, quarantines). Empty when the fleet
/// was healthy — so healthy cold/warm reruns still render identically.
fn render_health(report_data: &RunReport) -> Option<Table> {
    let mut table = Table::new(
        "trace health",
        &[
            "trace",
            "attempts",
            "backoff ms",
            "skipped blocks",
            "status",
        ],
    );
    let mut any = false;
    for h in &report_data.health {
        let unhealthy = h.attempts > 1 || h.skipped.any() || h.quarantined.is_some();
        if !unhealthy {
            continue;
        }
        any = true;
        let backoffs = if h.backoffs_ms.is_empty() {
            "-".to_owned()
        } else {
            h.backoffs_ms
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("+")
        };
        table.push_row(vec![
            Value::s(&h.trace),
            Value::u(u64::from(h.attempts)),
            Value::s(backoffs),
            Value::u(h.skipped.blocks),
            Value::s(if h.note.is_empty() {
                "ok"
            } else {
                h.note.as_str()
            }),
        ]);
    }
    any.then_some(table)
}

fn work_table(report_data: &RunReport) -> Table {
    let s = report_data.summary;
    Table::new("work", &["what", "cells"])
        .row(vec![Value::s("replayed"), Value::u(s.replayed)])
        .row(vec![
            Value::s("restored from journal"),
            Value::u(s.restored),
        ])
        .row(vec![Value::s("pruned (this run)"), Value::u(s.pruned)])
        .row(vec![Value::s("failed"), Value::u(s.failed)])
        .row(vec![
            Value::s("degraded (over budget)"),
            Value::u(s.degraded),
        ])
        .row(vec![
            Value::s("quarantined (skipped)"),
            Value::u(s.quarantined),
        ])
        .row(vec![Value::s("retried attempts"), Value::u(s.retried)])
        .row(vec![
            Value::s("traces screened analytically"),
            Value::u(s.screened_traces),
        ])
}

pub(super) fn corpus_run(a: &ExpArgs) -> Result<Report, DriverError> {
    let dir = require_dir(a)?;
    let config_paths: Vec<String> = a.list("configs").iter().map(|s| s.to_string()).collect();
    if config_paths.is_empty() {
        return Err(DriverError::Usage(
            "at least one --configs file is required (e.g. examples/*.toml)".into(),
        ));
    }
    let prune = match a.str("prune") {
        "" => false,
        "analytic" => true,
        other => {
            return Err(DriverError::Usage(format!(
                "unknown prune mode {other:?}; valid: analytic"
            )))
        }
    };
    let band_pct: f64 = a
        .str("prune-band")
        .parse()
        .map_err(|_| DriverError::Usage("--prune-band expects a number (miss-% points)".into()))?;
    if !(0.0..=100.0).contains(&band_pct) {
        return Err(DriverError::Usage(
            "--prune-band must be between 0 and 100 (miss-% points)".into(),
        ));
    }
    let explain = parse_bool("explain", a.str("explain"))?;
    let mut opts = RunOptions {
        workers: a.usize("workers")?.max(1),
        chunk: a.usize("chunk")?.max(1),
        prune,
        prune_band: band_pct / 100.0,
        ..RunOptions::default()
    };
    supervision_opts(a, &mut opts)?;
    let runner = a.str("runner");
    if !runner.is_empty() {
        opts.runner = Some(runner.to_owned());
    }
    if let Ok(spec) = std::env::var(FAULT_FS_ENV) {
        if !spec.trim().is_empty() {
            let plan = FaultPlan::parse(&spec)
                .map_err(|e| DriverError::Usage(format!("{FAULT_FS_ENV}: {e}")))?;
            opts.fs = Arc::new(FaultFs::new(plan));
        }
    }

    let mut corpus = Corpus::open(&dir).map_err(driver_err)?;
    let report_data = corpus_run_engine(&mut corpus, &config_paths, &opts).map_err(driver_err)?;

    let (matrix, mut failures) = render_matrix(&report_data);
    let mut report = Report::new(format!(
        "corpus run: {} trace(s) x {} config(s)",
        report_data.rows.len(),
        report_data.configs.len()
    ))
    .param("dir", dir.display())
    .param("configs", config_paths.join(","))
    .param("prune", a.str("prune"))
    .table(matrix);
    if prune {
        report = report.param("prune-band", a.str("prune-band"));
    }
    if let Some(budget) = opts.budget {
        report = report.param("cell-budget", budget);
    }
    if let Some(health) = render_health(&report_data) {
        report = report.table(health);
    }
    let skipped = report_data.skipped_blocks();
    if skipped > 0 {
        failures += skipped;
        report = report.note(format!(
            "lenient decode skipped {skipped} block(s) across the corpus; \
             results may under-count (exit 1)"
        ));
    }
    if failures > 0 {
        report = report.flag_failures(failures).note(
            "failed cells are journaled and their traces quarantined; \
             re-add a trace from a clean source to recompute its row",
        );
    }
    if explain {
        report = report
            .param("explain", "true")
            .table(work_table(&report_data));
    }
    Ok(report)
}

pub(super) fn corpus_chaos(a: &ExpArgs) -> Result<Report, DriverError> {
    let dir = require_dir(a)?;
    let config_paths: Vec<String> = a.list("configs").iter().map(|s| s.to_string()).collect();
    if config_paths.is_empty() {
        return Err(DriverError::Usage(
            "at least one --configs file is required (e.g. examples/*.toml)".into(),
        ));
    }
    let spec = FaultSpec::parse(a.str("fault")).map_err(DriverError::Usage)?;
    let faulty_attempts = a.u32("faulty-attempts")?;
    let target = a.str("trace");
    let mut opts = RunOptions {
        workers: a.usize("workers")?.max(1),
        chunk: a.usize("chunk")?.max(1),
        // The harness must never contaminate real incremental state:
        // scratch journals, no persisted quarantine.
        persist_quarantine: false,
        ..RunOptions::default()
    };
    supervision_opts(a, &mut opts)?;

    let mut corpus = Corpus::open(&dir).map_err(driver_err)?;
    let baseline_journal = dir.join("chaos-baseline.journal");
    let injected_journal = dir.join("chaos-injected.journal");
    std::fs::remove_file(&baseline_journal).ok();
    std::fs::remove_file(&injected_journal).ok();

    // Undisturbed reference run with the same supervision settings.
    let mut baseline_opts = opts.clone();
    baseline_opts.journal = Some(baseline_journal);
    let baseline =
        corpus_run_engine(&mut corpus, &config_paths, &baseline_opts).map_err(driver_err)?;

    // The same fleet under injected faults.
    let mut injected_opts = opts.clone();
    injected_opts.journal = Some(injected_journal);
    injected_opts.chaos = Some(ChaosPlan {
        spec,
        faulty_attempts,
        trace: (!target.is_empty()).then(|| target.to_owned()),
    });
    let injected =
        corpus_run_engine(&mut corpus, &config_paths, &injected_opts).map_err(driver_err)?;

    // Convergence audit: every injected cell must either be
    // byte-identical to the undisturbed run or carry an explicit
    // degraded/failed/quarantined classification — never silently
    // wrong, never silently missing.
    let mut identical = 0u64;
    let mut unhealthy = 0u64;
    let mut diverged: Vec<String> = Vec::new();
    for (brow, irow) in baseline.rows.iter().zip(&injected.rows) {
        for (j, (bc, ic)) in brow.cells.iter().zip(&irow.cells).enumerate() {
            let cell_name = || format!("{} x {}", irow.trace, injected.configs[j]);
            match (bc, ic) {
                (CellOutcome::Done { stats: bs, .. }, CellOutcome::Done { stats: is, .. }) => {
                    if bs == is {
                        identical += 1;
                    } else {
                        diverged.push(format!("{}: stats differ under injection", cell_name()));
                    }
                }
                (
                    CellOutcome::Pruned { predicted: bp, .. },
                    CellOutcome::Pruned { predicted: ip, .. },
                ) => {
                    if bp.to_bits() == ip.to_bits() {
                        identical += 1;
                    } else {
                        diverged.push(format!(
                            "{}: prune prediction differs under injection",
                            cell_name()
                        ));
                    }
                }
                (
                    CellOutcome::Degraded {
                        estimate: be,
                        se: bse,
                        ..
                    },
                    CellOutcome::Degraded {
                        estimate: ie,
                        se: ise,
                        ..
                    },
                ) if be.to_bits() == ie.to_bits() && bse.to_bits() == ise.to_bits() => {
                    identical += 1;
                }
                (
                    _,
                    CellOutcome::Degraded { .. }
                    | CellOutcome::Failed { .. }
                    | CellOutcome::Quarantined { .. },
                ) => unhealthy += 1,
                (b, i) => diverged.push(format!(
                    "{}: {} became {} under injection",
                    cell_name(),
                    cell_kind(b),
                    cell_kind(i)
                )),
            }
        }
    }
    if let Some(first) = diverged.first() {
        return Err(DriverError::Failed(format!(
            "chaos divergence: {} cell(s) silently changed under injection; first: {first}",
            diverged.len()
        )));
    }

    let (matrix, _) = render_matrix(&injected);
    let quarantined: Vec<&cac_corpus::TraceHealth> = injected
        .health
        .iter()
        .filter(|h| h.quarantined.is_some())
        .collect();
    let mut report = Report::new(format!(
        "corpus chaos: {} trace(s) x {} config(s) under fault injection",
        injected.rows.len(),
        injected.configs.len()
    ))
    .param("dir", dir.display())
    .param("fault", a.str("fault"))
    .param("faulty-attempts", faulty_attempts)
    .param("retry", a.str("retry"))
    .table(matrix);
    if !target.is_empty() {
        report = report.param("trace", target);
    }
    if let Some(health) = render_health(&injected) {
        report = report.table(health);
    }
    report = report.table(
        Table::new("convergence", &["what", "cells"])
            .row(vec![
                Value::s("byte-identical to undisturbed run"),
                Value::u(identical),
            ])
            .row(vec![
                Value::s("degraded / failed / quarantined"),
                Value::u(unhealthy),
            ])
            .row(vec![Value::s("silently diverged"), Value::u(0)]),
    );
    report = report.table(work_table(&injected));
    for h in &quarantined {
        report = report.note(format!(
            "quarantine (not persisted by chaos): {} — {}",
            h.trace,
            h.quarantined.as_deref().unwrap_or("")
        ));
    }
    if unhealthy > 0 {
        report = report.flag_failures(unhealthy).note(format!(
            "converged: {identical} cell(s) byte-identical, {unhealthy} \
             classified unhealthy, 0 silently dropped (exit 1)"
        ));
    } else {
        report = report.note(format!(
            "converged: all {identical} cell(s) byte-identical to the \
             undisturbed run despite injection"
        ));
    }
    Ok(report)
}

fn cell_kind(c: &CellOutcome) -> &'static str {
    match c {
        CellOutcome::Done { .. } => "ok",
        CellOutcome::Pruned { .. } => "pruned",
        CellOutcome::Degraded { .. } => "degraded",
        CellOutcome::Failed { .. } => "failed",
        CellOutcome::Quarantined { .. } => "quarantined",
    }
}

/// Median of a non-empty sample set (lower-middle for even counts).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[(samples.len() - 1) / 2]
}

pub(super) fn bench_corpus(a: &ExpArgs) -> Result<Report, DriverError> {
    let bench = parse_benchmark(a.str("bench"))?;
    let ops = a.usize("ops")?;
    let seed = a.u64("seed")?;
    let chunk = a.usize("chunk")?.max(1);
    let repeat = a.usize("repeat")?.max(1);
    if ops == 0 {
        return Err(DriverError::Usage("--ops must be positive".into()));
    }

    let scratch = std::env::temp_dir().join(format!("cac-bench-corpus-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    std::fs::create_dir_all(&scratch)
        .map_err(|e| DriverError::Failed(format!("cannot create scratch dir: {e}")))?;
    let result = bench_corpus_inner(a, bench, ops, seed, chunk, repeat, &scratch);
    std::fs::remove_dir_all(&scratch).ok();
    result
}

fn bench_corpus_inner(
    a: &ExpArgs,
    bench: cac_trace::SpecBenchmark,
    ops: usize,
    seed: u64,
    chunk: usize,
    repeat: usize,
    scratch: &Path,
) -> Result<Report, DriverError> {
    let organizations = organization_matrix();

    // Stage the workload once: in-memory references for the baseline,
    // and the same ops as a stored columnar file for the streaming side.
    let trace_file = scratch.join("bench.cact");
    {
        let file = File::create(&trace_file)
            .map_err(|e| DriverError::Failed(format!("cannot create trace file: {e}")))?;
        let w = std::io::BufWriter::new(file);
        write_trace_columnar(w, bench.generator(seed).take(ops))?;
    }
    let refs: Vec<MemRef> = {
        let reader = ColumnarTraceReader::new(BufReader::new(
            File::open(&trace_file).map_err(|e| DriverError::Failed(e.to_string()))?,
        ))
        .map_err(|e| DriverError::Failed(e.to_string()))?;
        let mut refs = Vec::new();
        for op in reader {
            if let Some(r) = op
                .map_err(|e| DriverError::Failed(e.to_string()))?
                .mem_ref()
            {
                refs.push(r);
            }
        }
        refs
    };
    let trace_bytes = std::fs::metadata(&trace_file).map(|m| m.len()).unwrap_or(0);
    let model_refs = (refs.len() * organizations.len()) as u64;

    let build_models = || -> Result<Vec<Box<dyn MemoryModel>>, DriverError> {
        organizations
            .iter()
            .map(|(_, cfg)| cfg.build().map_err(DriverError::from))
            .collect()
    };
    let engine = Sweep::new().workers(1).chunk_ops(chunk);

    // The two arms are interleaved per repeat and their order alternates
    // — back-to-back pairs see the same background load, and neither arm
    // always runs second (under CPU-quota throttling the second of two
    // sustained runs is systematically slower). In-memory sweep is the
    // ≥90% gate's reference throughput; the streaming sweep runs the
    // same models over the columnar file, so the gap between the two is
    // the decode cost.
    let mut memory_runs = Vec::with_capacity(repeat);
    let mut stream_runs = Vec::with_capacity(repeat);
    let run_memory = |runs: &mut Vec<f64>| -> Result<(), DriverError> {
        let mut models = build_models()?;
        let start = Instant::now();
        engine.run_refs(&mut models, &refs);
        runs.push(start.elapsed().as_secs_f64());
        Ok(())
    };
    let run_stream = |runs: &mut Vec<f64>| -> Result<(), DriverError> {
        let mut models = build_models()?;
        let source = ColumnarTraceReader::new(BufReader::new(
            File::open(&trace_file).map_err(|e| DriverError::Failed(e.to_string()))?,
        ))
        .map_err(|e| DriverError::Failed(e.to_string()))?;
        let start = Instant::now();
        let outcomes = engine
            .run_source_isolated(&mut models, source)
            .map_err(|e| DriverError::Failed(e.to_string()))?;
        runs.push(start.elapsed().as_secs_f64());
        if let Some(reason) = outcomes.iter().find_map(|o| o.failure()) {
            return Err(DriverError::Failed(format!("model panicked: {reason}")));
        }
        Ok(())
    };
    for r in 0..repeat {
        if r % 2 == 0 {
            run_memory(&mut memory_runs)?;
            run_stream(&mut stream_runs)?;
        } else {
            run_stream(&mut stream_runs)?;
            run_memory(&mut memory_runs)?;
        }
    }
    let memory_secs = median(&mut memory_runs);
    let stream_secs = median(&mut stream_runs);
    let stream_fraction = memory_secs / stream_secs.max(1e-9);

    // Incremental speedup: a cold corpus run replays every cell, the
    // warm rerun restores them all from the journal.
    let corpus_dir = scratch.join("corpus");
    let mut corpus = Corpus::init(&corpus_dir).map_err(driver_err)?;
    corpus.add("bench", &trace_file).map_err(driver_err)?;
    let config_paths: Vec<String> = [
        ("dm.toml", "name = \"dm\"\n[cache]\nsize = \"8KiB\"\nline = 32\nways = 1\n"),
        ("2way.toml", "name = \"2way\"\n[cache]\nsize = \"8KiB\"\nline = 32\nways = 2\n"),
        (
            "ipoly.toml",
            "name = \"ipoly\"\n[cache]\nsize = \"8KiB\"\nline = 32\nways = 2\nindex = \"ipoly\"\n",
        ),
        (
            "skew.toml",
            "name = \"skew\"\n[cache]\nsize = \"8KiB\"\nline = 32\nways = 2\nindex = \"ipoly-skew\"\n",
        ),
    ]
    .iter()
    .map(|(name, body)| {
        let p = scratch.join(name);
        std::fs::write(&p, body).map_err(|e| DriverError::Failed(e.to_string()))?;
        Ok(p.to_string_lossy().into_owned())
    })
    .collect::<Result<_, DriverError>>()?;
    let opts = RunOptions {
        workers: 1,
        chunk,
        ..RunOptions::default()
    };
    let start = Instant::now();
    let cold = corpus_run_engine(&mut corpus, &config_paths, &opts).map_err(driver_err)?;
    let cold_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let warm = corpus_run_engine(&mut corpus, &config_paths, &opts).map_err(driver_err)?;
    let warm_secs = start.elapsed().as_secs_f64();

    let mut table = Table::new(
        "corpus throughput",
        &["metric", "refs", "model-refs", "seconds", "refs/sec"],
    );
    table.push_row(vec![
        Value::s("in-memory sweep (run_refs)"),
        Value::u(refs.len() as u64),
        Value::u(model_refs),
        Value::f(memory_secs, 3),
        Value::f(model_refs as f64 / memory_secs.max(1e-9), 0),
    ]);
    table.push_row(vec![
        Value::s("columnar streaming sweep (run_source_isolated)"),
        Value::u(refs.len() as u64),
        Value::u(model_refs),
        Value::f(stream_secs, 3),
        Value::f(model_refs as f64 / stream_secs.max(1e-9), 0),
    ]);

    let incr = Table::new("incremental rerun", &["run", "cells replayed", "seconds"])
        .row(vec![
            Value::s("cold (empty journal)"),
            Value::u(cold.summary.replayed),
            Value::f(cold_secs, 3),
        ])
        .row(vec![
            Value::s("warm (all cells journaled)"),
            Value::u(warm.summary.replayed),
            Value::f(warm_secs, 3),
        ]);

    let mut report = Report::new(format!(
        "bench corpus: {} refs x {} organizations, columnar store",
        refs.len(),
        organizations.len()
    ))
    .param("bench", bench.name())
    .param("ops", ops)
    .param("seed", seed)
    .param("chunk", chunk)
    .param("repeat", repeat)
    .table(table)
    .table(incr)
    .note(format!(
        "columnar file: {trace_bytes} bytes for {ops} ops ({:.2} bytes/op)",
        trace_bytes as f64 / ops.max(1) as f64
    ))
    .note(format!(
        "streaming sustains {:.1}% of in-memory sweep throughput (gate: >= 90%)",
        stream_fraction * 100.0
    ))
    .note(format!(
        "incremental speedup: warm rerun {:.0}x faster than cold ({} -> {} replayed cells)",
        cold_secs / warm_secs.max(1e-9),
        cold.summary.replayed,
        warm.summary.replayed
    ));
    if repeat > 1 {
        report = report.note(format!(
            "timings are the median of {repeat} runs per measured region"
        ));
    }
    if warm.summary.replayed != 0 {
        report = report
            .flag_failures(warm.summary.replayed)
            .note("BUG: warm rerun replayed cells; the incremental store is not caching");
    }
    let _ = a;
    Ok(report)
}
