//! The supervised incremental fleet runner: traces × configs,
//! recompute only what changed, survive what breaks.
//!
//! Results live in a [`Journal`] next to the manifest, one cell per
//! (trace, config) pair keyed
//! `<trace>@<trace-hash>/<config-path>@<config-hash>`. A rerun restores
//! every cell whose key still resolves and replays only the rest:
//! re-adding a trace with different content invalidates its row,
//! editing a config file invalidates its column, and a no-op rerun
//! replays nothing while producing the identical report.
//!
//! Each trace is decoded **once** per run regardless of how many
//! configs need it — all pending models ride the same
//! [`Sweep::run_source_isolated`] pass over the columnar stream.
//!
//! With [`RunOptions::prune`] set, an analytic screen runs first: one
//! LRU stack-distance pass per (trace, line-size) group predicts every
//! config's miss ratio, and configs predicted worse than the trace's
//! best by more than [`RunOptions::prune_band`] are recorded as pruned
//! cells — never built, never replayed. Pruned cells persist in the
//! journal (with the prediction embedded), so a pruned rerun is as
//! incremental as a full one. The screen's decisions depend only on
//! trace content, the config list and the band — never on journal
//! state — so an interrupted-and-resumed pruned run converges to the
//! same report as an uninterrupted one.
//!
//! # Supervision
//!
//! The runner is a fleet *supervisor* (see [`crate::supervisor`]):
//!
//! * Trace streams are decoded **leniently** — damaged blocks are
//!   skipped and tallied; more than [`RunOptions::skip_threshold`]
//!   skipped blocks fails the attempt as *transient* (the one shared
//!   classifier in [`cac_trace::io::FailureClass`] decides everything
//!   else).
//! * Transient attempt failures retry up to [`RetryPolicy::attempts`]
//!   times on a deterministic jittered backoff schedule; permanent
//!   failures (and exhausted retries) journal **FAILED** cells — with
//!   reason and class — and quarantine the trace in `corpus.toml`, so
//!   a poisoned trace costs its retry allowance exactly once and then
//!   restores from the journal with zero replays.
//! * With a [`CellBudget`], a record-count watchdog inside the sweep
//!   cancels an over-budget trace pass; cancelled cells are re-priced
//!   through the analytic tier with 1-in-K set sampling and journaled
//!   as **DEGRADED** cells carrying the estimate and its standard
//!   error.
//! * A [`ChaosPlan`] (the `cac corpus chaos` harness) wraps trace
//!   streams in a seeded fault source for a trace's leading attempts,
//!   driving every one of those paths end-to-end.
//!
//! # Multi-runner runs
//!
//! N `cac corpus run` processes may share one corpus: each holds a
//! [`RunnerLease`] for its lifetime and partitions the grid through
//! journal **claims**. Per trace, a runner briefly takes the corpus
//! lock, reloads the journal, restores finished cells, claims every
//! unclaimed pending cell (and takes over claims whose owner's lease
//! probe says it died), and defers cells a live peer already claimed.
//! Replay happens unlocked; results commit in a second short
//! lock-reload-record-save transaction, which also drops the claims.
//! After its own traces, a runner polls its deferred cells until peers
//! finish them (or die, in which case it takes over). Because the
//! journal's on-disk form is canonical (sorted) and claims drain on
//! completion, the merged journal is byte-identical to a
//! single-runner run's, and no cell is ever replayed twice.

use crate::lock::{runner_alive, CorpusLock, RunnerLease};
use crate::manifest::QuarantineEntry;
use crate::store::Corpus;
use crate::supervisor::{classify, CellBudget, ChaosPlan, RetryPolicy};
use crate::{content_hash, CorpusError};
use cac_core::CacheGeometry;
use cac_sim::analytic::{prune_dominated, AnalyticModel};
use cac_sim::config::SimConfig;
use cac_sim::journal::{fingerprint, Journal};
use cac_sim::model::ModelStats;
use cac_sim::sweep::{LruStackSweep, ModelOutcome, Sweep};
use cac_trace::fault::{FaultSource, FaultSpec};
use cac_trace::io::commitfs::{CommitFs, DiskFs};
use cac_trace::io::{ColumnarTraceReader, DecodeMode, FailureClass, SkipReport, DEFAULT_CHUNK_OPS};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Journal extras key marking a cell as analytically pruned.
pub const PRUNED_FLAG: &str = "analytic-pruned";
/// Journal extras key carrying the pruned cell's predicted miss ratio
/// (an `f64` stored via `to_bits`, exact across save/load).
pub const PRUNED_PREDICTED: &str = "predicted-bits";
/// Journal extras key marking a cell the supervisor failed permanently.
pub const FAILED_FLAG: &str = "supervisor-failed";
/// Journal extras key carrying a failed cell's class
/// (0 = transient-exhausted, 1 = permanent).
pub const FAILED_CLASS: &str = "failed-class";
/// Prefix of the journal extras *name* that carries a failed cell's
/// reason text (the value is always 1; names survive the journal's
/// percent-encoding, values are numeric only).
pub const FAILED_REASON_PREFIX: &str = "failed-reason:";
/// Journal extras key marking a budget-degraded, analytically re-priced
/// cell.
pub const DEGRADED_FLAG: &str = "analytic-degraded";
/// Journal extras key carrying a degraded cell's estimated miss ratio
/// (`f64` via `to_bits`).
pub const DEGRADED_ESTIMATE: &str = "estimate-bits";
/// Journal extras key carrying the standard error of a degraded
/// estimate (`f64` via `to_bits`; 0 when the re-pricing pass was
/// exact).
pub const DEGRADED_SE: &str = "se-bits";

/// Options for [`run`].
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Sweep worker threads (1 = deterministic in-order replay).
    pub workers: usize,
    /// Trace operations decoded per replay chunk.
    pub chunk: usize,
    /// Screen configs with the analytic model before replaying.
    pub prune: bool,
    /// Prune band as a miss-ratio fraction: a config is pruned when its
    /// predicted miss ratio exceeds the trace's best prediction by more
    /// than this.
    pub prune_band: f64,
    /// Retry policy for transient failures.
    pub retry: RetryPolicy,
    /// Per-cell replay budget; over-budget cells degrade to analytic
    /// estimates.
    pub budget: Option<CellBudget>,
    /// Lenient-decode skipped blocks tolerated per decode pass; more
    /// fails the attempt as transient. 0 (the default) accepts no loss.
    pub skip_threshold: u64,
    /// Chaos fault-injection plan (the chaos harness; `None` in real
    /// runs).
    pub chaos: Option<ChaosPlan>,
    /// Journal file override (`None` = the corpus's `results.journal`).
    /// The chaos harness points this at scratch journals so it never
    /// contaminates real incremental state.
    pub journal: Option<PathBuf>,
    /// Persist quarantine decisions into `corpus.toml` (real runs do;
    /// the chaos harness reports them without persisting).
    pub persist_quarantine: bool,
    /// This runner's id for leases and journal claims (`None` =
    /// `pid-<pid>`). Concurrent runners on one corpus need distinct
    /// ids; a lease refuses duplicates while the first holder lives.
    pub runner: Option<String>,
    /// How long to sleep between polls of cells claimed by live peers.
    pub peer_poll_ms: u64,
    /// The write layer for journal and manifest commits. Real runs use
    /// [`DiskFs`]; durability tests inject a
    /// [`cac_trace::io::commitfs::FaultFs`] here.
    pub fs: Arc<dyn CommitFs>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            workers: 1,
            chunk: DEFAULT_CHUNK_OPS,
            prune: false,
            prune_band: 0.02,
            retry: RetryPolicy::default(),
            budget: None,
            skip_threshold: 0,
            chaos: None,
            journal: None,
            persist_quarantine: true,
            runner: None,
            peer_poll_ms: 25,
            fs: Arc::new(DiskFs),
        }
    }
}

/// One result cell of the trace × config matrix.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// The config replayed (now, or in a previous run).
    Done {
        /// The model's counters over the whole trace.
        stats: ModelStats,
        /// `true` if restored from the journal instead of replayed.
        restored: bool,
    },
    /// The analytic screen pruned the config before any replay.
    Pruned {
        /// The screen's predicted miss ratio.
        predicted: f64,
        /// `true` if restored from the journal.
        restored: bool,
    },
    /// The cell exceeded its budget and was re-priced analytically.
    Degraded {
        /// Estimated miss ratio from the sampled analytic pass.
        estimate: f64,
        /// Worst-case binomial standard error of the estimate (0 when
        /// the pass was exact).
        se: f64,
        /// `true` if restored from the journal.
        restored: bool,
    },
    /// The cell could not be computed. Failed cells are journaled with
    /// their reason and class, so warm reruns restore them instead of
    /// re-replaying a known-bad trace.
    Failed {
        /// What went wrong.
        reason: String,
        /// Transient (retries were exhausted) or permanent.
        class: FailureClass,
        /// `true` if restored from the journal.
        restored: bool,
    },
    /// The trace is quarantined in `corpus.toml`; this pending cell was
    /// skipped without touching the trace. Not journaled — clearing the
    /// quarantine makes the cell computable again.
    Quarantined {
        /// The quarantine reason recorded in the manifest.
        reason: String,
    },
}

/// One trace's row of cells, in config order.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRow {
    /// The trace's manifest name.
    pub trace: String,
    /// One cell per config, aligned with [`RunReport::configs`].
    pub cells: Vec<CellOutcome>,
}

/// Per-trace supervision accounting for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceHealth {
    /// The trace's manifest name.
    pub trace: String,
    /// Replay attempts consumed this run (0 = nothing needed
    /// replaying).
    pub attempts: u32,
    /// Deterministic backoff delays (ms) taken before each retry.
    pub backoffs_ms: Vec<u64>,
    /// Lenient-decode skip accounting for the accepted attempt (the
    /// worst pass of that attempt).
    pub skipped: SkipReport,
    /// The quarantine reason, if the trace is (or just became)
    /// quarantined.
    pub quarantined: Option<String>,
    /// One-line status note for reports.
    pub note: String,
}

/// Work accounting for one [`run`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkSummary {
    /// Cells replayed in this run.
    pub replayed: u64,
    /// Cells restored from the journal (replayed, pruned, degraded or
    /// failed earlier).
    pub restored: u64,
    /// Cells pruned by the analytic screen in this run.
    pub pruned: u64,
    /// Cells that failed in this run (journaled; restored thereafter).
    pub failed: u64,
    /// Cells degraded to analytic estimates in this run.
    pub degraded: u64,
    /// Pending cells skipped because their trace is quarantined.
    pub quarantined: u64,
    /// Retry attempts performed (beyond each trace's first attempt).
    pub retried: u64,
    /// Traces that received an analytic screening pass in this run.
    pub screened_traces: u64,
}

/// The result matrix of one [`run`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Config paths, in column order (as passed in).
    pub configs: Vec<String>,
    /// One row per corpus trace, in manifest order.
    pub rows: Vec<TraceRow>,
    /// One health record per corpus trace, aligned with `rows`.
    pub health: Vec<TraceHealth>,
    /// What this run actually did.
    pub summary: WorkSummary,
}

impl RunReport {
    /// Total lenient-decode blocks skipped across all traces this run.
    pub fn skipped_blocks(&self) -> u64 {
        self.health.iter().map(|h| h.skipped.blocks).sum()
    }
}

/// A parsed config column.
struct ConfigColumn {
    key: String,
    cfg: SimConfig,
}

/// Loads and hashes the config files.
fn load_configs(paths: &[String]) -> Result<Vec<ConfigColumn>, CorpusError> {
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CorpusError::io(format!("reading config {path}"), e))?;
        let cfg = SimConfig::from_toml_str(&text)
            .map_err(|e| CorpusError::Sim(cac_core::Error::config(format!("{path}: {e}"))))?;
        out.push(ConfigColumn {
            key: format!("{path}@{:016x}", content_hash(text.as_bytes())),
            cfg,
        });
    }
    Ok(out)
}

/// Encodes a pruned cell as journalable [`ModelStats`]: zero counters
/// plus the [`PRUNED_FLAG`]/[`PRUNED_PREDICTED`] extras. Shared by
/// every pruned-and-checkpointed sweep in the workspace so journals
/// stay mutually readable.
pub fn pruned_stats(predicted: f64) -> ModelStats {
    ModelStats {
        extras: vec![
            (PRUNED_FLAG.into(), 1),
            (PRUNED_PREDICTED.into(), predicted.to_bits()),
        ],
        ..ModelStats::default()
    }
}

/// Encodes a failed cell as journalable [`ModelStats`]: the class and
/// the reason (embedded in an extras *name* — the journal
/// percent-encodes names, and `;` is flattened to `,` because it
/// separates extras on the wire).
pub fn failed_stats(reason: &str, class: FailureClass) -> ModelStats {
    let clean = reason.replace(';', ",");
    ModelStats {
        extras: vec![
            (FAILED_FLAG.into(), 1),
            (
                FAILED_CLASS.into(),
                u64::from(class == FailureClass::Permanent),
            ),
            (format!("{FAILED_REASON_PREFIX}{clean}"), 1),
        ],
        ..ModelStats::default()
    }
}

/// Encodes a budget-degraded cell as journalable [`ModelStats`].
pub fn degraded_stats(estimate: f64, se: f64) -> ModelStats {
    ModelStats {
        extras: vec![
            (DEGRADED_FLAG.into(), 1),
            (DEGRADED_ESTIMATE.into(), estimate.to_bits()),
            (DEGRADED_SE.into(), se.to_bits()),
        ],
        ..ModelStats::default()
    }
}

/// Decodes a journaled cell back into an outcome.
fn restore_cell(stats: &ModelStats) -> CellOutcome {
    if stats.extra(PRUNED_FLAG) == Some(1) {
        CellOutcome::Pruned {
            predicted: f64::from_bits(stats.extra(PRUNED_PREDICTED).unwrap_or(0)),
            restored: true,
        }
    } else if stats.extra(DEGRADED_FLAG) == Some(1) {
        CellOutcome::Degraded {
            estimate: f64::from_bits(stats.extra(DEGRADED_ESTIMATE).unwrap_or(0)),
            se: f64::from_bits(stats.extra(DEGRADED_SE).unwrap_or(0)),
            restored: true,
        }
    } else if stats.extra(FAILED_FLAG) == Some(1) {
        let reason = stats
            .extras
            .iter()
            .find_map(|(n, _)| n.strip_prefix(FAILED_REASON_PREFIX))
            .unwrap_or("unrecorded failure")
            .to_owned();
        let class = if stats.extra(FAILED_CLASS) == Some(0) {
            FailureClass::Transient
        } else {
            FailureClass::Permanent
        };
        CellOutcome::Failed {
            reason,
            class,
            restored: true,
        }
    } else {
        CellOutcome::Done {
            stats: stats.clone(),
            restored: true,
        }
    }
}

/// Opens a trace's columnar stream for one decode pass, optionally
/// wrapped in a seeded fault source (chaos harness).
fn open_stream(
    path: &Path,
    fault: Option<&FaultSpec>,
    mode: DecodeMode,
) -> Result<ColumnarTraceReader<Box<dyn Read>>, CorpusError> {
    let file = File::open(path)
        .map_err(|e| CorpusError::io(format!("opening trace {}", path.display()), e))?;
    let inner: Box<dyn Read> = match fault {
        Some(spec) => Box::new(FaultSource::new(BufReader::new(file), *spec)),
        None => Box::new(BufReader::new(file)),
    };
    Ok(ColumnarTraceReader::with_mode(inner, mode)?)
}

/// Keeps the worst (most blocks skipped) pass's accounting. Passes of
/// one attempt read the same damaged bytes, so the worst pass bounds
/// what any of them lost.
fn merge_skips(acc: &mut SkipReport, seen: SkipReport) {
    if seen.blocks > acc.blocks {
        *acc = seen;
    }
}

/// A whole-attempt failure: every pending cell of the trace shares it.
struct AttemptFailure {
    class: FailureClass,
    reason: String,
}

impl AttemptFailure {
    fn from_error(e: &CorpusError) -> Self {
        AttemptFailure {
            class: classify(e),
            reason: e.to_string(),
        }
    }
}

/// What one attempt decided for a single pending config.
enum PendingOutcome {
    Done(ModelStats),
    Pruned(f64),
    Degraded { estimate: f64, se: f64 },
    Failed { reason: String, class: FailureClass },
}

/// Everything one successful attempt produced.
struct AttemptResult {
    /// `(config index, outcome)`, one per pending config.
    outcomes: Vec<(usize, PendingOutcome)>,
    /// Worst-pass lenient-decode skip accounting.
    skipped: SkipReport,
    /// Whether the analytic screen ran.
    screened: bool,
}

/// Prices `members` through the analytic tier from one trace.
///
/// Configs are grouped by primary line size; each group shares one LRU
/// stack pass over the trace, sampled 1-in-K with K the largest power
/// of two within both `max_sampling` and the group's smallest set count
/// (so every config keeps sampled sets). Modulo-indexed configs use the
/// stack sweep's exact set-conflict ratio; hashed/skewed indexes use the
/// analytic conflict model (hashing decorrelates sets from address
/// bits, which is precisely that model's assumption).
///
/// Returns `(config, estimate, standard error)` for every member with a
/// primary cache, in line-size order; the standard error is 0 for an
/// unsampled pass. Members without a primary cache are left out.
fn analytic_pass(
    trace_path: &Path,
    configs: &[ConfigColumn],
    members: impl IntoIterator<Item = usize>,
    max_sampling: u32,
    fault: Option<&FaultSpec>,
    skipped: &mut SkipReport,
) -> Result<Vec<(usize, Option<f64>, f64)>, CorpusError> {
    let mut by_line: BTreeMap<u64, Vec<(usize, CacheGeometry)>> = BTreeMap::new();
    for j in members {
        if let Some(geom) = configs[j].cfg.primary_geometry() {
            by_line.entry(geom.block()).or_default().push((j, geom));
        }
    }
    let mut priced = Vec::new();
    for (line, group) in &by_line {
        let mut set_counts: Vec<u32> = vec![1];
        let mut min_sets = u32::MAX;
        for (_, geom) in group {
            min_sets = min_sets.min(geom.num_sets());
            if !set_counts.contains(&geom.num_sets()) {
                set_counts.push(geom.num_sets());
            }
        }
        let k = 1u32 << min_sets.min(max_sampling).ilog2();
        let mut stack = LruStackSweep::new(*line, &set_counts)?.with_set_sampling(k)?;
        let mut reader = open_stream(trace_path, fault, DecodeMode::Lenient)?;
        stack.run_source(&mut reader).map_err(CorpusError::Trace)?;
        merge_skips(skipped, reader.skipped());
        let model = AnalyticModel::from_sweep(&stack).expect("1-set family configured");
        let se = stack.sampling_standard_error().unwrap_or(0.0);
        for &(j, geom) in group {
            let modulo = configs[j]
                .cfg
                .primary_index()
                .is_some_and(|s| s.name() == "modulo");
            let estimate = if modulo {
                stack.miss_ratio(geom.num_sets(), geom.ways())
            } else {
                model.predict(geom.num_sets(), geom.ways())
            };
            priced.push((j, estimate, se));
        }
    }
    Ok(priced)
}

/// Runs the analytic screen for one trace: predicted miss ratio per
/// config (`None` where the config has no primary cache to predict
/// for), then the dominated-config mask.
fn screen_trace(
    trace_path: &Path,
    configs: &[ConfigColumn],
    band: f64,
    fault: Option<&FaultSpec>,
    skipped: &mut SkipReport,
) -> Result<(Vec<Option<f64>>, Vec<bool>), CorpusError> {
    let mut predicted: Vec<Option<f64>> = vec![None; configs.len()];
    for (j, p, _) in analytic_pass(trace_path, configs, 0..configs.len(), 1, fault, skipped)? {
        predicted[j] = p;
    }
    // Dominance is judged over the predictable subset only; configs the
    // screen cannot model are always kept.
    let known: Vec<(usize, f64)> = predicted
        .iter()
        .enumerate()
        .filter_map(|(j, p)| p.map(|p| (j, p)))
        .collect();
    let keep = prune_dominated(&known.iter().map(|&(_, p)| p).collect::<Vec<_>>(), band);
    let mut pruned = vec![false; configs.len()];
    for (&(j, _), &keep) in known.iter().zip(&keep) {
        pruned[j] = !keep;
    }
    Ok((predicted, pruned))
}

/// Re-prices budget-cancelled configs through the analytic tier with
/// 1-in-K set sampling (K up to 8: plenty of speedup for an estimate
/// that carries its own standard error).
fn degrade_cells(
    trace_path: &Path,
    configs: &[ConfigColumn],
    cancelled: &[usize],
    fault: Option<&FaultSpec>,
    skipped: &mut SkipReport,
    out: &mut Vec<(usize, PendingOutcome)>,
) -> Result<(), CorpusError> {
    for &j in cancelled {
        if configs[j].cfg.primary_geometry().is_none() {
            out.push((
                j,
                PendingOutcome::Failed {
                    reason: "over budget and no primary cache to estimate for".into(),
                    class: FailureClass::Permanent,
                },
            ));
        }
    }
    let priced = analytic_pass(
        trace_path,
        configs,
        cancelled.iter().copied(),
        8,
        fault,
        skipped,
    )?;
    for (j, estimate, se) in priced {
        out.push((
            j,
            match estimate {
                Some(estimate) => PendingOutcome::Degraded { estimate, se },
                None => PendingOutcome::Failed {
                    reason: "over budget and not analytically priceable".into(),
                    class: FailureClass::Permanent,
                },
            },
        ));
    }
    Ok(())
}

/// One full attempt at a trace's pending cells: screen, build, replay,
/// degrade. Returns per-config outcomes on success; a classified
/// [`AttemptFailure`] when the whole attempt must be retried or given
/// up on. Nothing is journaled here — the caller commits results only
/// after an attempt succeeds, so a retried attempt leaves no residue.
fn attempt_trace(
    trace_path: &Path,
    configs: &[ConfigColumn],
    pending: &[usize],
    opts: &RunOptions,
    fault: Option<&FaultSpec>,
) -> Result<AttemptResult, AttemptFailure> {
    let mut skipped = SkipReport::default();
    let mut outcomes: Vec<(usize, PendingOutcome)> = Vec::with_capacity(pending.len());
    let over_threshold = |s: &SkipReport| -> Option<AttemptFailure> {
        (s.blocks > opts.skip_threshold).then(|| AttemptFailure {
            class: FailureClass::Transient,
            reason: format!(
                "lenient decode skipped {} blocks ({} records), over the \
                 {}-block tolerance",
                s.blocks, s.records, opts.skip_threshold
            ),
        })
    };

    // Screen decisions are a function of (trace, config list, band)
    // only, so resumed runs decide identically.
    let screen = if opts.prune {
        match screen_trace(trace_path, configs, opts.prune_band, fault, &mut skipped) {
            Ok(s) => Some(s),
            Err(e) => return Err(AttemptFailure::from_error(&e)),
        }
    } else {
        None
    };
    if let Some(fail) = over_threshold(&skipped) {
        return Err(fail);
    }

    let mut to_replay: Vec<usize> = Vec::new();
    for &j in pending {
        match &screen {
            Some((predicted, pruned)) if pruned[j] => {
                let p = predicted[j].expect("pruned implies predicted");
                outcomes.push((j, PendingOutcome::Pruned(p)));
            }
            _ => to_replay.push(j),
        }
    }

    // Models are built fresh inside every attempt: a model that saw a
    // partial stream carries counters no later attempt may reuse.
    let mut models = Vec::with_capacity(to_replay.len());
    let mut buildable: Vec<usize> = Vec::new();
    for &j in &to_replay {
        match configs[j].cfg.build() {
            Ok(m) => {
                buildable.push(j);
                models.push(m);
            }
            Err(e) => outcomes.push((
                j,
                PendingOutcome::Failed {
                    reason: format!("config build failed: {e}"),
                    class: FailureClass::Permanent,
                },
            )),
        }
    }

    let mut cancelled: Vec<usize> = Vec::new();
    if !models.is_empty() {
        let mut engine = Sweep::new()
            .workers(opts.workers.max(1))
            .chunk_ops(opts.chunk.max(1));
        if let Some(budget) = opts.budget {
            engine = engine.budget(budget.to_sweep());
        }
        let mut reader = match open_stream(trace_path, fault, DecodeMode::Lenient) {
            Ok(r) => r,
            Err(e) => return Err(AttemptFailure::from_error(&e)),
        };
        let replay = engine.run_source_isolated(&mut models, &mut reader);
        merge_skips(&mut skipped, reader.skipped());
        let model_outcomes = match replay {
            Ok(o) => o,
            Err(e) => return Err(AttemptFailure::from_error(&CorpusError::Trace(e))),
        };
        if let Some(fail) = over_threshold(&skipped) {
            return Err(fail);
        }
        for (&j, outcome) in buildable.iter().zip(&model_outcomes) {
            match outcome {
                ModelOutcome::Completed(stats) => {
                    outcomes.push((j, PendingOutcome::Done(stats.clone())));
                }
                ModelOutcome::Failed { reason } => outcomes.push((
                    j,
                    PendingOutcome::Failed {
                        reason: format!("replay panicked: {reason}"),
                        class: FailureClass::Permanent,
                    },
                )),
                ModelOutcome::Cancelled { .. } => cancelled.push(j),
            }
        }
    }

    if !cancelled.is_empty() {
        if let Err(e) = degrade_cells(
            trace_path,
            configs,
            &cancelled,
            fault,
            &mut skipped,
            &mut outcomes,
        ) {
            return Err(AttemptFailure::from_error(&e));
        }
        if let Some(fail) = over_threshold(&skipped) {
            return Err(fail);
        }
    }

    Ok(AttemptResult {
        outcomes,
        skipped,
        screened: screen.is_some(),
    })
}

/// One trace's in-flight run state, until every cell resolves.
struct TraceState {
    trace_key: String,
    cells: Vec<Option<CellOutcome>>,
    health: TraceHealth,
    /// Config indices claimed by a live peer, awaiting resolution.
    deferred: Vec<usize>,
}

/// Replays `pending` cells of one trace (the retry loop around
/// [`attempt_trace`]) and commits the outcomes in a short
/// lock-reload-record-save transaction. On whole-attempt failure,
/// FAILED cells commit the same way and the trace is quarantined —
/// outside the lock, which is not re-entrant.
#[allow(clippy::too_many_arguments)]
fn replay_claimed(
    corpus: &mut Corpus,
    configs: &[ConfigColumn],
    entry: &crate::manifest::TraceEntry,
    pending: &[usize],
    opts: &RunOptions,
    journal_path: &Path,
    fp: u64,
    summary: &mut WorkSummary,
    state: &mut TraceState,
) -> Result<(), CorpusError> {
    let trace_key = state.trace_key.clone();
    let trace_path = corpus.trace_path(entry);
    let max_attempts = 1 + opts.retry.attempts;
    let mut attempts_used: u32 = 0;
    let attempt_outcome = loop {
        let fault = opts
            .chaos
            .as_ref()
            .and_then(|c| c.fault_for(&entry.name, attempts_used));
        attempts_used += 1;
        match attempt_trace(&trace_path, configs, pending, opts, fault) {
            Ok(result) => break Ok(result),
            Err(fail) if fail.class == FailureClass::Transient && attempts_used < max_attempts => {
                let delay = opts.retry.delay_ms(&trace_key, attempts_used - 1);
                state.health.backoffs_ms.push(delay);
                summary.retried += 1;
                if delay > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(delay));
                }
            }
            Err(fail) => break Err(fail),
        }
    };
    state.health.attempts += attempts_used;

    match attempt_outcome {
        Ok(result) => {
            merge_skips(&mut state.health.skipped, result.skipped);
            if result.screened {
                summary.screened_traces += 1;
            }
            let _lock = CorpusLock::exclusive(corpus.dir())?;
            let mut journal = Journal::load(journal_path, fp)?;
            for (j, outcome) in result.outcomes {
                let key = format!("{trace_key}/{}", configs[j].key);
                let cell = match outcome {
                    PendingOutcome::Done(stats) => {
                        journal.record(&key, &stats);
                        summary.replayed += 1;
                        CellOutcome::Done {
                            stats,
                            restored: false,
                        }
                    }
                    PendingOutcome::Pruned(predicted) => {
                        journal.record(&key, &pruned_stats(predicted));
                        summary.pruned += 1;
                        CellOutcome::Pruned {
                            predicted,
                            restored: false,
                        }
                    }
                    PendingOutcome::Degraded { estimate, se } => {
                        journal.record(&key, &degraded_stats(estimate, se));
                        summary.degraded += 1;
                        CellOutcome::Degraded {
                            estimate,
                            se,
                            restored: false,
                        }
                    }
                    PendingOutcome::Failed { reason, class } => {
                        journal.record(&key, &failed_stats(&reason, class));
                        summary.failed += 1;
                        CellOutcome::Failed {
                            reason,
                            class,
                            restored: false,
                        }
                    }
                };
                state.cells[j] = Some(cell);
            }
            journal.save_with(journal_path, opts.fs.as_ref())?;
            if state.health.skipped.any() {
                state.health.note = format!(
                    "accepted with {} skipped blocks",
                    state.health.skipped.blocks
                );
            }
        }
        Err(fail) => {
            // The whole attempt failed (and, if transient, its retries
            // are exhausted): journal FAILED cells so reruns restore
            // them, and quarantine the trace so nothing re-replays
            // this content.
            let reason = if fail.class == FailureClass::Transient {
                format!("{} (after {attempts_used} attempts)", fail.reason)
            } else {
                fail.reason.clone()
            };
            {
                let _lock = CorpusLock::exclusive(corpus.dir())?;
                let mut journal = Journal::load(journal_path, fp)?;
                for &j in pending {
                    journal.record(
                        &format!("{trace_key}/{}", configs[j].key),
                        &failed_stats(&reason, fail.class),
                    );
                    summary.failed += 1;
                    state.cells[j] = Some(CellOutcome::Failed {
                        reason: reason.clone(),
                        class: fail.class,
                        restored: false,
                    });
                }
                journal.save_with(journal_path, opts.fs.as_ref())?;
            }
            state.health.quarantined = Some(reason.clone());
            state.health.note = format!("FAILED [{}]: {reason}", fail.class);
            if opts.persist_quarantine {
                corpus.quarantine_with(
                    QuarantineEntry {
                        name: entry.name.clone(),
                        hash: entry.hash,
                        reason,
                        class: fail.class,
                    },
                    opts.fs.as_ref(),
                )?;
            }
        }
    }
    Ok(())
}

/// Sweeps every corpus trace across `config_paths`, restoring cells
/// from the corpus's result journal and replaying only the rest under
/// the supervision policy in `opts` (see the module docs).
///
/// Results commit after every trace that produced new cells, so a
/// killed run loses at most one trace's work — and every commit is
/// crash-atomic (temp + fsync + rename + dir fsync), so it never
/// loses the journal itself.
///
/// Concurrent calls against one corpus are safe: each run holds a
/// [`RunnerLease`] and partitions pending cells through journal
/// claims (see the module docs). The `runner` id must be distinct per
/// concurrent caller.
///
/// # Errors
///
/// Config-file, journal, lock and lease problems abort the run.
/// Per-trace problems (damaged trace, I/O faults, model build errors,
/// replay panics, budget trips) never abort the fleet: they surface
/// as [`CellOutcome::Failed`] / [`CellOutcome::Degraded`] /
/// [`CellOutcome::Quarantined`] cells and per-trace [`TraceHealth`]
/// records.
pub fn run(
    corpus: &mut Corpus,
    config_paths: &[String],
    opts: &RunOptions,
) -> Result<RunReport, CorpusError> {
    let configs = load_configs(config_paths)?;
    let prune_tag = if opts.prune {
        format!("prune=analytic band={:.6}", opts.prune_band)
    } else {
        "prune=none".to_owned()
    };
    // The budget joins the fingerprint only when set: degraded cells
    // are a function of it, while budget-less runs stay journal-
    // compatible with earlier versions. Retry/backoff/chaos knobs are
    // deliberately excluded — they change *when* a cell computes, never
    // what a computed cell contains. The runner id is excluded too:
    // every runner of a fleet shares one journal.
    let budget_tag = opts.budget.map(|b| format!("budget={}", b.tag()));
    let mut fp_parts: Vec<&str> = vec!["cac corpus run", &prune_tag];
    if let Some(tag) = &budget_tag {
        fp_parts.push(tag);
    }
    let fp = fingerprint(&fp_parts);
    let journal_path = opts
        .journal
        .clone()
        .unwrap_or_else(|| corpus.results_path());
    let dir = corpus.dir().to_path_buf();
    let runner_id = opts
        .runner
        .clone()
        .unwrap_or_else(|| format!("pid-{}", std::process::id()));
    let _lease = RunnerLease::acquire(&dir, &runner_id)?;

    let mut summary = WorkSummary::default();
    let entries = corpus.entries().to_vec();
    let mut states: Vec<TraceState> = Vec::with_capacity(entries.len());
    for entry in &entries {
        let trace_key = format!("{}@{:016x}", entry.name, entry.hash);
        let mut state = TraceState {
            trace_key: trace_key.clone(),
            cells: (0..configs.len()).map(|_| None).collect(),
            health: TraceHealth {
                trace: entry.name.clone(),
                attempts: 0,
                backoffs_ms: Vec::new(),
                skipped: SkipReport::default(),
                quarantined: corpus.quarantined(&entry.name).map(|q| q.reason.clone()),
                note: String::new(),
            },
            deferred: Vec::new(),
        };

        // Phase A, under the corpus lock: restore finished cells from
        // the (re-loaded) journal, claim what nobody owns, defer what
        // a live peer owns, take over from the dead.
        let mut mine: Vec<usize> = Vec::new();
        {
            let _lock = CorpusLock::exclusive(&dir)?;
            let mut journal = Journal::load(&journal_path, fp)?;
            let mut claimed_any = false;
            for (j, c) in configs.iter().enumerate() {
                let key = format!("{trace_key}/{}", c.key);
                if let Some(stats) = journal.get(&key) {
                    summary.restored += 1;
                    state.cells[j] = Some(restore_cell(stats));
                    continue;
                }
                // A quarantined trace is never touched: journaled
                // cells above restored for free, everything still
                // pending is skipped (and never claimed).
                if let Some(reason) = &state.health.quarantined {
                    state.cells[j] = Some(CellOutcome::Quarantined {
                        reason: reason.clone(),
                    });
                    summary.quarantined += 1;
                    continue;
                }
                match journal.claim_of(&key) {
                    Some(claim)
                        if claim.runner != runner_id && runner_alive(&dir, &claim.runner) =>
                    {
                        state.deferred.push(j);
                    }
                    _ => {
                        journal.claim(&key, &runner_id);
                        claimed_any = true;
                        mine.push(j);
                    }
                }
            }
            if claimed_any {
                journal.save_with(&journal_path, opts.fs.as_ref())?;
            }
        }
        if state.health.quarantined.is_some() && state.health.note.is_empty() {
            state.health.note = "quarantined; pending cells skipped".into();
        }

        if !mine.is_empty() {
            replay_claimed(
                corpus,
                &configs,
                entry,
                &mine,
                opts,
                &journal_path,
                fp,
                &mut summary,
                &mut state,
            )?;
        }
        states.push(state);
    }

    // Poll deferred cells until every live peer finished (their results
    // restore) or died (their claims are taken over and replayed here).
    loop {
        let mut waiting = false;
        for (i, entry) in entries.iter().enumerate() {
            if states[i].deferred.is_empty() {
                continue;
            }
            let mut mine: Vec<usize> = Vec::new();
            {
                let state = &mut states[i];
                let _lock = CorpusLock::exclusive(&dir)?;
                let mut journal = Journal::load(&journal_path, fp)?;
                let mut still: Vec<usize> = Vec::new();
                let mut claimed_any = false;
                for &j in &state.deferred {
                    let key = format!("{}/{}", state.trace_key, configs[j].key);
                    if let Some(stats) = journal.get(&key) {
                        summary.restored += 1;
                        state.cells[j] = Some(restore_cell(stats));
                        continue;
                    }
                    match journal.claim_of(&key) {
                        Some(claim)
                            if claim.runner != runner_id && runner_alive(&dir, &claim.runner) =>
                        {
                            still.push(j);
                        }
                        _ => {
                            journal.claim(&key, &runner_id);
                            claimed_any = true;
                            mine.push(j);
                        }
                    }
                }
                state.deferred = still;
                if claimed_any {
                    journal.save_with(&journal_path, opts.fs.as_ref())?;
                }
            }
            if !mine.is_empty() {
                replay_claimed(
                    corpus,
                    &configs,
                    entry,
                    &mine,
                    opts,
                    &journal_path,
                    fp,
                    &mut summary,
                    &mut states[i],
                )?;
            }
            if !states[i].deferred.is_empty() {
                waiting = true;
            }
        }
        if !waiting {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(opts.peer_poll_ms.max(1)));
    }

    let mut rows = Vec::with_capacity(entries.len());
    let mut health = Vec::with_capacity(entries.len());
    for (entry, state) in entries.iter().zip(states) {
        rows.push(TraceRow {
            trace: entry.name.clone(),
            cells: state
                .cells
                .into_iter()
                .map(|c| c.expect("every cell resolved"))
                .collect(),
        });
        health.push(state.health);
    }

    Ok(RunReport {
        configs: config_paths.to_vec(),
        rows,
        health,
        summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cac_trace::io::write_trace_columnar;
    use cac_trace::TraceOp;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cac-corpus-run-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_config(dir: &Path, name: &str, body: &str) -> String {
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn direct_mapped(size: &str) -> String {
        format!("name = \"dm-{size}\"\n[cache]\nsize = \"{size}\"\nline = 16\nways = 1\n")
    }

    fn seeded_corpus(dir: &Path, ops: u64) -> Corpus {
        let trace: Vec<TraceOp> = (0..ops)
            .map(|i| {
                // Cyclic sweep over a 32KiB working set: caches smaller
                // than the footprint thrash, larger ones barely miss —
                // so cache size visibly separates the predictions.
                TraceOp::load(0x1000 + 4 * i, (16 * i) % 0x8000, 1, None)
            })
            .collect();
        let raw = dir.join("raw.cact");
        let mut buf = Vec::new();
        write_trace_columnar(&mut buf, trace).unwrap();
        std::fs::write(&raw, buf).unwrap();
        let mut corpus = Corpus::init(&dir.join("corpus")).unwrap();
        corpus.add("synthetic", &raw).unwrap();
        corpus
    }

    #[test]
    fn rerun_restores_every_cell_and_reports_identically() {
        let dir = tmp_dir("rerun");
        let mut corpus = seeded_corpus(&dir, 20_000);
        let configs = vec![
            write_config(&dir, "small.toml", &direct_mapped("1KiB")),
            write_config(&dir, "large.toml", &direct_mapped("64KiB")),
        ];
        let opts = RunOptions::default();

        let cold = run(&mut corpus, &configs, &opts).unwrap();
        assert_eq!(cold.summary.replayed, 2);
        assert_eq!(cold.summary.restored, 0);
        assert_eq!(cold.health[0].attempts, 1);

        let warm = run(&mut corpus, &configs, &opts).unwrap();
        assert_eq!(warm.summary.replayed, 0);
        assert_eq!(warm.summary.restored, 2);
        assert_eq!(warm.health[0].attempts, 0, "nothing pending, no attempt");
        // Same matrix content: stats equal cell by cell.
        for (a, b) in cold.rows.iter().zip(&warm.rows) {
            for (ca, cb) in a.cells.iter().zip(&b.cells) {
                match (ca, cb) {
                    (CellOutcome::Done { stats: sa, .. }, CellOutcome::Done { stats: sb, .. }) => {
                        assert_eq!(sa, sb)
                    }
                    other => panic!("unexpected cell pair: {other:?}"),
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn editing_one_config_invalidates_one_column() {
        let dir = tmp_dir("config-edit");
        let mut corpus = seeded_corpus(&dir, 10_000);
        let configs = vec![
            write_config(&dir, "a.toml", &direct_mapped("1KiB")),
            write_config(&dir, "b.toml", &direct_mapped("64KiB")),
        ];
        let opts = RunOptions::default();
        run(&mut corpus, &configs, &opts).unwrap();

        // Touch config b's content.
        write_config(&dir, "b.toml", &direct_mapped("32KiB"));
        let warm = run(&mut corpus, &configs, &opts).unwrap();
        assert_eq!(warm.summary.replayed, 1);
        assert_eq!(warm.summary.restored, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn re_adding_a_changed_trace_invalidates_its_row() {
        let dir = tmp_dir("trace-edit");
        let mut corpus = seeded_corpus(&dir, 10_000);
        let configs = vec![write_config(&dir, "a.toml", &direct_mapped("4KiB"))];
        let opts = RunOptions::default();
        run(&mut corpus, &configs, &opts).unwrap();

        // Re-add the same name with different content.
        let raw = dir.join("raw2.cact");
        let mut buf = Vec::new();
        write_trace_columnar(
            &mut buf,
            (0..5000u64).map(|i| TraceOp::load(0x2000 + 4 * i, 64 * i, 2, None)),
        )
        .unwrap();
        std::fs::write(&raw, buf).unwrap();
        corpus.add("synthetic", &raw).unwrap();

        let warm = run(&mut corpus, &configs, &opts).unwrap();
        assert_eq!(warm.summary.replayed, 1);
        assert_eq!(warm.summary.restored, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pruned_run_is_incremental_and_restores_predictions_exactly() {
        let dir = tmp_dir("prune");
        let mut corpus = seeded_corpus(&dir, 30_000);
        // A clearly-dominated tiny cache among healthy ones.
        let configs = vec![
            write_config(&dir, "tiny.toml", &direct_mapped("256")),
            write_config(&dir, "mid.toml", &direct_mapped("16KiB")),
            write_config(&dir, "big.toml", &direct_mapped("128KiB")),
        ];
        let opts = RunOptions {
            prune: true,
            prune_band: 0.02,
            ..RunOptions::default()
        };

        let cold = run(&mut corpus, &configs, &opts).unwrap();
        assert_eq!(cold.summary.screened_traces, 1);
        assert!(cold.summary.pruned >= 1, "tiny cache should be pruned");
        assert!(cold.summary.replayed >= 1);

        let warm = run(&mut corpus, &configs, &opts).unwrap();
        assert_eq!(warm.summary.replayed, 0);
        assert_eq!(warm.summary.pruned, 0);
        assert_eq!(
            warm.summary.screened_traces, 0,
            "no pending cells, no screen"
        );
        assert_eq!(
            warm.summary.restored as usize,
            configs.len(),
            "every cell restores"
        );
        for (a, b) in cold.rows[0].cells.iter().zip(&warm.rows[0].cells) {
            match (a, b) {
                (
                    CellOutcome::Pruned { predicted: pa, .. },
                    CellOutcome::Pruned { predicted: pb, .. },
                ) => assert_eq!(pa.to_bits(), pb.to_bits(), "prediction restored exactly"),
                (CellOutcome::Done { stats: sa, .. }, CellOutcome::Done { stats: sb, .. }) => {
                    assert_eq!(sa, sb)
                }
                other => panic!("cell kind changed across rerun: {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pruned_and_full_runs_use_distinct_journals() {
        let dir = tmp_dir("fingerprint");
        let mut corpus = seeded_corpus(&dir, 5_000);
        let configs = vec![write_config(&dir, "a.toml", &direct_mapped("4KiB"))];
        run(&mut corpus, &configs, &RunOptions::default()).unwrap();
        // Same journal file, different workload fingerprint: refused
        // loudly instead of splicing mismatched cells.
        let pruned = RunOptions {
            prune: true,
            ..RunOptions::default()
        };
        let err = run(&mut corpus, &configs, &pruned).unwrap_err();
        assert!(
            err.to_string().contains("different workload"),
            "unexpected error: {err}"
        );
        // A budget also changes the fingerprint: degraded cells depend
        // on it.
        let budgeted = RunOptions {
            budget: Some(CellBudget::Refs(1_000)),
            ..RunOptions::default()
        };
        let err = run(&mut corpus, &configs, &budgeted).unwrap_err();
        assert!(err.to_string().contains("different workload"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_trace_fails_its_row_without_aborting_the_fleet() {
        let dir = tmp_dir("damaged");
        let mut corpus = seeded_corpus(&dir, 8_000);
        // Second, healthy trace.
        let raw = dir.join("ok.cact");
        let mut buf = Vec::new();
        write_trace_columnar(
            &mut buf,
            (0..2000u64).map(|i| TraceOp::load(0x3000 + 4 * i, 8 * i, 1, None)),
        )
        .unwrap();
        std::fs::write(&raw, buf).unwrap();
        corpus.add("healthy", &raw).unwrap();

        // Truncate the first trace's stored file (drops the index).
        let entry = corpus.manifest().get("synthetic").unwrap().clone();
        let stored = corpus.trace_path(&entry);
        let bytes = std::fs::read(&stored).unwrap();
        std::fs::write(&stored, &bytes[..bytes.len() / 2]).unwrap();

        let configs = vec![write_config(&dir, "a.toml", &direct_mapped("4KiB"))];
        let report = run(&mut corpus, &configs, &RunOptions::default()).unwrap();
        assert_eq!(report.rows.len(), 2);
        assert!(matches!(
            report.rows[0].cells[0],
            CellOutcome::Failed { .. }
        ));
        assert!(matches!(report.rows[1].cells[0], CellOutcome::Done { .. }));
        assert_eq!(report.summary.failed, 1);
        assert_eq!(report.summary.replayed, 1);
        // The damaged trace is quarantined and its FAILED cell is
        // journaled: a rerun restores everything and replays nothing.
        assert!(corpus.quarantined("synthetic").is_some());
        let warm = run(&mut corpus, &configs, &RunOptions::default()).unwrap();
        assert_eq!(warm.summary.replayed, 0);
        assert_eq!(warm.summary.restored, 2);
        assert!(matches!(
            warm.rows[0].cells[0],
            CellOutcome::Failed { restored: true, .. }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budget_degrades_cells_to_estimates_and_journals_them() {
        let dir = tmp_dir("budget");
        let mut corpus = seeded_corpus(&dir, 40_000);
        let configs = vec![
            write_config(&dir, "small.toml", &direct_mapped("1KiB")),
            write_config(&dir, "large.toml", &direct_mapped("64KiB")),
        ];
        // Reference truth from an unbudgeted run in its own journal.
        let truth_opts = RunOptions {
            journal: Some(dir.join("truth.journal")),
            ..RunOptions::default()
        };
        let truth = run(&mut corpus, &configs, &truth_opts).unwrap();

        let opts = RunOptions {
            budget: Some(CellBudget::Refs(5_000)),
            chunk: 1024,
            ..RunOptions::default()
        };
        let cold = run(&mut corpus, &configs, &opts).unwrap();
        assert_eq!(cold.summary.degraded, 2);
        assert_eq!(cold.summary.replayed, 0);
        for (cell, full) in cold.rows[0].cells.iter().zip(&truth.rows[0].cells) {
            let CellOutcome::Degraded {
                estimate,
                se,
                restored,
            } = cell
            else {
                panic!("expected degraded cell, got {cell:?}");
            };
            assert!(!restored);
            assert!(*se > 0.0, "sampled estimate carries a standard error");
            let CellOutcome::Done { stats, .. } = full else {
                panic!()
            };
            let actual = stats.demand.miss_ratio();
            // Degraded estimates stay within the analytic tier's
            // documented 5-point bound, widened by the sampling error.
            assert!(
                (estimate - actual).abs() <= 0.05 + 4.0 * se,
                "estimate {estimate:.4} vs actual {actual:.4} (se {se:.4})"
            );
        }

        // Degraded cells restore from the journal bit-exactly.
        let warm = run(&mut corpus, &configs, &opts).unwrap();
        assert_eq!(warm.summary.degraded, 0);
        assert_eq!(warm.summary.restored, 2);
        for (a, b) in cold.rows[0].cells.iter().zip(&warm.rows[0].cells) {
            let (
                CellOutcome::Degraded {
                    estimate: ea,
                    se: sa,
                    ..
                },
                CellOutcome::Degraded {
                    estimate: eb,
                    se: sb,
                    restored,
                },
            ) = (a, b)
            else {
                panic!("cell kind changed: {a:?} vs {b:?}");
            };
            assert!(restored);
            assert_eq!(ea.to_bits(), eb.to_bits());
            assert_eq!(sa.to_bits(), sb.to_bits());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_and_degraded_cells_round_trip_through_stats() {
        let f = failed_stats("decode exploded; twice", FailureClass::Transient);
        let CellOutcome::Failed {
            reason,
            class,
            restored,
        } = restore_cell(&f)
        else {
            panic!()
        };
        assert_eq!(reason, "decode exploded, twice", "`;` flattened");
        assert_eq!(class, FailureClass::Transient);
        assert!(restored);

        let d = degraded_stats(0.1234, 0.0056);
        let CellOutcome::Degraded { estimate, se, .. } = restore_cell(&d) else {
            panic!()
        };
        assert_eq!(estimate.to_bits(), 0.1234f64.to_bits());
        assert_eq!(se.to_bits(), 0.0056f64.to_bits());

        let p = pruned_stats(0.5);
        assert!(matches!(restore_cell(&p), CellOutcome::Pruned { .. }));
    }
}
