//! The corpus workloads, both over one v2 trace per SPEC95 model and
//! the 14 `examples/*.toml` configs, with one replay worker.
//!
//! * `corpus-cold`: set-up writes the v2 traces (the `trace gen`
//!   default format). The timed phase ingests them into a fresh corpus
//!   with `Corpus::add` (v2 decode, v3 encode, crash-atomic commit),
//!   runs `cac_corpus::run::run` cold, then warm.
//! * `corpus-screened`: set-up writes and ingests the same corpus. The
//!   timed phase is a cold run with the analytic screen on.
//!
//! Every durable write goes through [`TimingFs`]. The traced run times
//! the layers `run` calls internally — ref-mode v3 decode, per-config
//! replay, the screen's stack pass and prediction — by calling the same
//! public functions on the same inputs in isolation.

use crate::fsprobe::{FsCounters, TimingFs};
use crate::measure::{
    mean, median, ratio, remove_synced, repeat_setup, sync_tree, time, Checks, Ctx, Digest,
    Outcome, Scale,
};
use crate::spans::span;
use cac_corpus::run::{run as corpus_run, CellOutcome, RunOptions, RunReport};
use cac_corpus::store::Corpus;
use cac_sim::analytic::AnalyticModel;
use cac_sim::journal::{fingerprint, Journal};
use cac_sim::model::ModelStats;
use cac_sim::sweep::LruStackSweep;
use cac_sim::SimConfig;
use cac_trace::io::commitfs::CommitFs;
use cac_trace::io::{
    BinaryTraceReader, BinaryTraceWriter, ColumnarTraceReader, ColumnarTraceWriter, DecodeMode,
    DEFAULT_CHUNK_OPS,
};
use cac_trace::spec::SpecBenchmark;
use cac_trace::{MemRef, TraceOp};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The models traced, one trace each, and the instructions per trace.
/// At full scale, four 2M-op traces: two large-footprint FP vector
/// codes and two integer codes.
fn corpus_shape(ctx: &Ctx) -> (Vec<SpecBenchmark>, usize) {
    use SpecBenchmark::{Compress, Gcc, Swim, Tomcatv};
    match ctx.scale {
        Scale::Bench => (SpecBenchmark::all().to_vec(), 150_000),
        Scale::Full => (vec![Gcc, Compress, Tomcatv, Swim], 2_000_000),
    }
}

/// The example configs, as `examples/<stem>.toml` under the checkout.
pub const STEMS: [&str; 14] = [
    "column_ipoly",
    "direct_mapped",
    "four_way",
    "fully_assoc",
    "hash_rehash",
    "ipoly",
    "ipoly_skewed",
    "ipoly_two_level",
    "jouppi",
    "stream_buffers",
    "three_level_sidecars",
    "two_way",
    "victim",
    "xor_skewed",
];
/// Columns compared with the paper's 8KB 2-way rows.
const TWO_WAY: &str = "two_way";
const IPOLY_SKEWED: &str = "ipoly_skewed";

fn config_paths() -> Vec<String> {
    STEMS.iter().map(|s| format!("examples/{s}.toml")).collect()
}

fn load_configs() -> Vec<SimConfig> {
    config_paths()
        .iter()
        .map(|p| SimConfig::load(p).unwrap_or_else(|e| panic!("{p}: {e}")))
        .collect()
}

/// Writes one v2 trace per model of the corpus into `dir`.
fn write_sources(dir: &Path, ctx: &Ctx) -> Vec<(SpecBenchmark, PathBuf)> {
    std::fs::create_dir_all(dir).expect("create source dir");
    let (models, ops) = corpus_shape(ctx);
    models
        .into_iter()
        .map(|b| {
            let path = dir.join(format!("{}.cact", b.name()));
            let file = File::create(&path).expect("create source trace");
            let mut w = BinaryTraceWriter::new(BufWriter::new(file)).expect("v2 header");
            w.write_all(b.generator(ctx.seed).take(ops))
                .expect("write v2 trace");
            w.finish()
                .expect("finish v2 trace")
                .flush()
                .expect("flush v2 trace");
            (b, path)
        })
        .collect()
}

/// A fresh corpus at `dir` holding every source trace.
fn ingest(dir: &Path, sources: &[(SpecBenchmark, PathBuf)], fs: &dyn CommitFs) -> Corpus {
    let mut corpus = Corpus::init(dir).expect("init corpus");
    for (b, src) in sources {
        span("corpus.add", || corpus.add_with(b.name(), src, fs)).expect("ingest trace");
    }
    corpus
}

fn options(fs: &Arc<TimingFs>, prune: bool) -> RunOptions {
    RunOptions {
        workers: 1,
        prune,
        fs: Arc::clone(fs) as Arc<dyn CommitFs>,
        ..RunOptions::default()
    }
}

/// The result matrix as `cac corpus run` renders it: a pure function of
/// cell content, so a warm rerun renders byte-identically.
fn render(report: &RunReport) -> String {
    let mut out = String::new();
    for row in &report.rows {
        for (config, cell) in report.configs.iter().zip(&row.cells) {
            let cell = match cell {
                CellOutcome::Done { stats, .. } => format!(
                    "ok {} {} {:.3}",
                    stats.demand.accesses,
                    stats.demand.misses,
                    stats.demand.miss_ratio() * 100.0
                ),
                CellOutcome::Pruned { predicted, .. } => {
                    format!("PRUNED(predicted={:.2})", predicted * 100.0)
                }
                other => format!("{other:?}"),
            };
            out.push_str(&format!("{} {config} {cell}\n", row.trace));
        }
    }
    out
}

/// Mean |load miss % − paper| over the 2-way modulo and 2-way skewed
/// I-Poly columns of a report with every cell replayed; `models` are the
/// rows' models.
fn miss_mae(report: &RunReport, models: &[SpecBenchmark]) -> f64 {
    let col = |stem: &str| {
        report
            .configs
            .iter()
            .position(|c| c == &format!("examples/{stem}.toml"))
            .expect("paper column present")
    };
    let mut err = Vec::new();
    for (row, b) in report.rows.iter().zip(models) {
        let p = b.paper_row();
        for (stem, paper) in [(TWO_WAY, p.conv8_miss), (IPOLY_SKEWED, p.ipoly_miss)] {
            if let CellOutcome::Done { stats, .. } = &row.cells[col(stem)] {
                err.push((stats.demand.read_miss_ratio() * 100.0 - paper).abs());
            }
        }
    }
    err.iter().sum::<f64>() / err.len().max(1) as f64
}

fn done_stats(cell: &CellOutcome) -> Option<&ModelStats> {
    match cell {
        CellOutcome::Done { stats, .. } => Some(stats),
        _ => None,
    }
}

fn ref_reader(path: &Path) -> ColumnarTraceReader<BufReader<File>> {
    let file = File::open(path).expect("open stored trace");
    ColumnarTraceReader::with_mode(BufReader::new(file), DecodeMode::Lenient).expect("v3 header")
}

/// Isolation timings of the layers `run` calls, taken after one traced
/// iteration on that iteration's corpus.
#[derive(Debug, Clone)]
struct Isolated {
    /// References per trace.
    refs: Vec<u64>,
    /// Ref-mode v3 decode seconds per trace.
    decode: Vec<f64>,
    /// `replay[t][c]`: seconds replaying trace `t` through config `c`.
    replay: Vec<Vec<f64>>,
    /// `stats[t][c]`: that replay's counters.
    stats: Vec<Vec<ModelStats>>,
}

impl Isolated {
    /// Element-wise mean timings over traced iterations.
    fn mean(runs: &[Isolated]) -> Isolated {
        let n = runs.len() as f64;
        let mut m = runs[0].clone();
        for (t, d) in m.decode.iter_mut().enumerate() {
            *d = runs.iter().map(|r| r.decode[t]).sum::<f64>() / n;
        }
        for (t, row) in m.replay.iter_mut().enumerate() {
            for (c, secs) in row.iter_mut().enumerate() {
                *secs = runs.iter().map(|r| r.replay[t][c]).sum::<f64>() / n;
            }
        }
        m
    }
}

/// Decodes every stored trace in ref mode (timed), then replays its
/// references through each config in `run`'s chunk size (timed per
/// config).
fn isolate_replay(corpus: &Corpus, configs: &[SimConfig]) -> Isolated {
    let mut iso = Isolated {
        refs: Vec::new(),
        decode: Vec::new(),
        replay: Vec::new(),
        stats: Vec::new(),
    };
    let mut buf: Vec<MemRef> = Vec::with_capacity(DEFAULT_CHUNK_OPS);
    for entry in corpus.entries() {
        let path = corpus.trace_path(entry);
        let mut reader = ref_reader(&path);
        let (n, secs) = time(|| {
            let mut n = 0u64;
            while reader
                .read_ref_chunk(&mut buf, DEFAULT_CHUNK_OPS)
                .expect("decode stored trace")
                > 0
            {
                n += buf.len() as u64;
            }
            n
        });
        iso.refs.push(n);
        iso.decode.push(secs);

        let mut refs: Vec<MemRef> = Vec::with_capacity(n as usize);
        let mut reader = ref_reader(&path);
        while reader
            .read_ref_chunk(&mut buf, DEFAULT_CHUNK_OPS)
            .expect("decode stored trace")
            > 0
        {
            refs.extend_from_slice(&buf);
        }
        let (mut secs_row, mut stats_row) = (Vec::new(), Vec::new());
        for cfg in configs {
            let mut m = cfg.build().expect("example config builds");
            let (_, secs) = time(|| {
                for chunk in refs.chunks(DEFAULT_CHUNK_OPS) {
                    m.run_refs(chunk);
                }
            });
            secs_row.push(secs);
            stats_row.push(m.stats());
        }
        iso.replay.push(secs_row);
        iso.stats.push(stats_row);
    }
    iso
}

/// Checks every replayed cell of `report` against the isolated replay
/// of the same (trace, config).
fn check_isolated(checks: &mut Checks, report: &RunReport, iso: &Isolated) {
    for (t, row) in report.rows.iter().enumerate() {
        for (c, cell) in row.cells.iter().enumerate() {
            if let Some(stats) = done_stats(cell) {
                checks.check(*stats == iso.stats[t][c], || {
                    format!(
                        "{} {}: run cell differs from an isolated replay",
                        row.trace, report.configs[c]
                    )
                });
            }
        }
    }
}

/// Median milliseconds of loading the corpus journal, and its cells.
fn journal_load(corpus: &Corpus, prune: bool) -> (f64, f64) {
    let tag = if prune {
        format!(
            "prune=analytic band={:.6}",
            RunOptions::default().prune_band
        )
    } else {
        "prune=none".to_owned()
    };
    let fp = fingerprint(&["cac corpus run", &tag]);
    let mut ms = Vec::new();
    let mut cells = 0;
    for _ in 0..5 {
        let (j, secs) = time(|| Journal::load(&corpus.results_path(), fp).expect("load journal"));
        cells = j.len();
        ms.push(secs * 1e3);
    }
    (median(&ms), cells as f64)
}

/// Seconds replaying the cells of `report` that `keep` selects, at the
/// isolated per-(trace, config) times.
fn replay_secs(report: &RunReport, iso: &Isolated, keep: impl Fn(&CellOutcome) -> bool) -> f64 {
    let mut secs = 0.0;
    for (t, row) in report.rows.iter().enumerate() {
        for (c, cell) in row.cells.iter().enumerate() {
            if keep(cell) {
                secs += iso.replay[t][c];
            }
        }
    }
    secs
}

/// Layer metrics common to both corpus workloads, from traced
/// iterations: per-iteration means of the isolation timings, file-system
/// counters and journal loads.
fn set_common_layers(
    out: &mut Outcome,
    iso: &Isolated,
    fs: &FsCounters,
    journals: &[(f64, f64)],
    report: &RunReport,
) {
    let n = out.traced_walls.len().max(1) as f64;
    let l = &mut out.layers;
    let refs: u64 = iso.refs.iter().sum();
    let decode: f64 = iso.decode.iter().sum();
    l.set(
        "trace.io.columnar.decode_mrefs_per_s",
        "Mref/s",
        ratio(refs as f64 / 1e6, decode),
    );
    l.set("trace.io.commitfs.commits", "count", fs.commits as f64 / n);
    l.set("trace.io.commitfs.bytes", "B", fs.bytes as f64 / n);
    l.set("trace.io.commitfs.busy_s", "s", fs.busy / n);
    l.set(
        "trace.io.commitfs.commit_ms_p50",
        "ms",
        median(&fs.commit_secs) * 1e3,
    );
    let ms: Vec<f64> = journals.iter().map(|j| j.0).collect();
    l.set("sim.journal.load_ms", "ms", median(&ms));
    l.set("sim.journal.cells", "count", journals[0].1);
    for (c, stem) in STEMS.iter().enumerate() {
        let secs: f64 = iso.replay.iter().map(|r| r[c]).sum();
        l.set(
            format!("sim.model.cfg.{stem}.mrefs_per_s"),
            "Mref/s",
            ratio(refs as f64 / 1e6, secs),
        );
    }
    l.set(
        "sim.model.self_s",
        "s",
        replay_secs(report, iso, |c| done_stats(c).is_some()),
    );
}

/// Seconds decoding the v2 sources and encoding them as v3 in memory —
/// the two halves of `Corpus::add` — and the encoded bytes.
fn isolate_ingest(sources: &[(SpecBenchmark, PathBuf)]) -> (f64, f64, u64) {
    let (mut dec_secs, mut enc_secs, mut enc_bytes) = (0.0, 0.0, 0u64);
    let mut buf: Vec<TraceOp> = Vec::with_capacity(DEFAULT_CHUNK_OPS);
    for (_, src) in sources {
        let open = || {
            BinaryTraceReader::new(BufReader::new(File::open(src).expect("open source")))
                .expect("v2 header")
        };
        let mut reader = open();
        dec_secs += time(|| {
            while reader
                .read_chunk(&mut buf, DEFAULT_CHUNK_OPS)
                .expect("decode v2")
                > 0
            {
                std::hint::black_box(&buf);
            }
        })
        .1;
        let ops: Vec<TraceOp> = open().map(|op| op.expect("decode v2")).collect();
        let (bytes, secs) = time(|| {
            let mut w = ColumnarTraceWriter::new(Vec::new()).expect("v3 header");
            w.write_all(ops.iter().copied()).expect("encode v3");
            w.finish().expect("finish v3").len()
        });
        enc_secs += secs;
        enc_bytes += bytes as u64;
    }
    (dec_secs, enc_secs, enc_bytes)
}

pub fn run_cold(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let sources = repeat_setup(&mut out, |k| {
        write_sources(&ctx.work.join(format!("sources-{k}")), ctx)
    });
    let models: Vec<SpecBenchmark> = sources.iter().map(|s| s.0).collect();
    sync_tree(&ctx.work).expect("flush set-up files");
    let paths = config_paths();
    let configs = load_configs();
    let fs = Arc::new(TimingFs::default());
    let opts = options(&fs, false);

    let mut checks = Checks::default();
    let mut ingest_secs = Vec::new();
    let mut fs_acc = FsCounters::default();
    let mut isos = Vec::new();
    let mut ingests = Vec::new();
    let mut journals = Vec::new();
    let mut last: Option<(PathBuf, RunReport, RunReport)> = None;
    crate::measure::timed_loop(ctx, &mut out, |i, traced| {
        if let Some((dir, ..)) = last.take() {
            remove_synced(&dir);
        }
        let dir = ctx.work.join(format!("corpus-{i}"));
        fs.reset();
        let ((ingest_s, corpus, cold, warm), wall) = time(|| {
            let (mut corpus, ingest_s) = time(|| ingest(&dir, &sources, fs.as_ref()));
            let cold = span("corpus.run", || corpus_run(&mut corpus, &paths, &opts));
            let warm = span("corpus.run", || corpus_run(&mut corpus, &paths, &opts));
            (ingest_s, corpus, cold, warm)
        });
        let (cold, warm) = (cold.expect("cold run"), warm.expect("warm run"));
        if traced {
            fs_acc.absorb(fs.counters());
            let iso = isolate_replay(&corpus, &configs);
            check_isolated(&mut checks, &cold, &iso);
            isos.push(iso);
            ingests.push(isolate_ingest(&sources));
            journals.push(journal_load(&corpus, false));
        } else if i > 0 {
            ingest_secs.push(ingest_s);
        }
        let cells = (cold.rows.len() * cold.configs.len()) as u64;
        checks.check(cold.summary.replayed == cells, || {
            format!(
                "cold run replayed {} of {cells} cells",
                cold.summary.replayed
            )
        });
        checks.check(warm.summary.replayed == 0, || {
            format!("warm rerun replayed {} cells", warm.summary.replayed)
        });
        checks.check(warm.summary.restored == cells, || {
            format!(
                "warm rerun restored {} of {cells} cells",
                warm.summary.restored
            )
        });
        let rendered = render(&cold);
        checks.check(render(&warm) == rendered, || {
            "warm report differs from cold".to_owned()
        });
        let mut digest = Digest::default();
        digest.feed(&rendered);
        last = Some((dir, cold, warm));
        (wall, digest)
    });
    out.checks.absorb(checks);
    let (dir, cold, warm) = last.expect("an iteration ran");

    let refs: u64 = Corpus::open(&dir)
        .expect("reopen corpus")
        .entries()
        .iter()
        .map(|e| e.refs)
        .sum();
    let ops = (models.len() * corpus_shape(ctx).1) as f64;
    let wall = out.wall();
    let grid = (refs * STEMS.len() as u64) as f64;
    out.e2e
        .set("grid_mrefs_per_s", "Mref/s", ratio(grid / 1e6, wall));
    out.e2e.set("miss_mae", "pp", miss_mae(&cold, &models));
    let ingest_rate = ratio(ops / 1e6, mean(&ingest_secs));
    out.e2e.set("ingest_mops_per_s", "Mop/s", ingest_rate);

    if ctx.traced {
        let iso = Isolated::mean(&isos);
        set_common_layers(&mut out, &iso, &fs_acc, &journals, &cold);
        let n = ingests.len() as f64;
        let dec_secs = ingests.iter().map(|i| i.0).sum::<f64>() / n;
        let enc_secs = ingests.iter().map(|i| i.1).sum::<f64>() / n;
        let enc_bytes = ingests[0].2 as f64;
        let decode: f64 = iso.decode.iter().sum();
        let model_self = out.layers.0["sim.model.self_s"].0;
        let spans = crate::measure::span_means(&out);
        let (_, run_self) = spans.get("corpus.run").copied().unwrap_or_default();
        let (_, fs_self) = spans.get("trace.io.commitfs").copied().unwrap_or_default();
        let l = &mut out.layers;
        l.set(
            "trace.io.binary.decode_mops_per_s",
            "Mop/s",
            ratio(ops / 1e6, dec_secs),
        );
        l.set("trace.io.binary.self_s", "s", dec_secs);
        l.set(
            "trace.io.columnar.encode_mops_per_s",
            "Mop/s",
            ratio(ops / 1e6, enc_secs),
        );
        l.set("trace.io.columnar.bytes_per_op", "B/op", enc_bytes / ops);
        // The cold run decodes each trace once; the warm rerun restores.
        l.set("trace.io.columnar.busy_s", "s", decode);
        l.set("trace.io.columnar.self_s", "s", decode + enc_secs);
        l.set("corpus.ingest_mops_per_s", "Mop/s", ingest_rate);
        l.set("corpus.run.replayed", "count", cold.summary.replayed as f64);
        l.set("corpus.run.restored", "count", warm.summary.restored as f64);
        l.set("corpus.run.self_s", "s", run_self - decode - model_self);
        l.set(
            "bench.explained_s",
            "s",
            dec_secs + enc_secs + decode + model_self + fs_self,
        );
    }
    out
}

pub fn run_screened(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let fs = Arc::new(TimingFs::default());
    let (mut corpus, models) = repeat_setup(&mut out, |k| {
        let sources = write_sources(&ctx.work.join(format!("sources-{k}")), ctx);
        let corpus = ingest(&ctx.work.join(format!("corpus-{k}")), &sources, fs.as_ref());
        (corpus, sources.into_iter().map(|s| s.0).collect::<Vec<_>>())
    });
    sync_tree(&ctx.work).expect("flush set-up files");
    let paths = config_paths();
    let configs = load_configs();
    let opts = options(&fs, true);

    let mut checks = Checks::default();
    let mut fs_acc = FsCounters::default();
    let mut isos = Vec::new();
    let mut screens = Vec::new();
    let mut journals = Vec::new();
    let mut last: Option<RunReport> = None;
    crate::measure::timed_loop(ctx, &mut out, |_, traced| {
        std::fs::remove_file(corpus.results_path()).ok();
        fs.reset();
        let (report, wall) = time(|| span("corpus.run", || corpus_run(&mut corpus, &paths, &opts)));
        let report = report.expect("screened run");
        if traced {
            fs_acc.absorb(fs.counters());
            let iso = isolate_replay(&corpus, &configs);
            check_isolated(&mut checks, &report, &iso);
            let (mut screen, predicted) = isolate_screen(&corpus, &configs);
            check_screen(&mut checks, &report, &predicted);
            screen.decode_secs = iso.decode.iter().sum::<f64>() * screen.groups;
            screens.push(screen);
            isos.push(iso);
            journals.push(journal_load(&corpus, true));
        }
        checks.check(report.summary.pruned > 0, || {
            "the analytic screen pruned no cell".to_owned()
        });
        let mut digest = Digest::default();
        digest.feed(&render(&report));
        last = Some(report);
        (wall, digest)
    });
    out.checks.absorb(checks);
    let screened = last.expect("an iteration ran");
    if !ctx.traced {
        let (_, predicted) = isolate_screen(&corpus, &configs);
        check_screen(&mut out.checks, &screened, &predicted);
    }

    // The unpruned reference, into a journal of its own.
    let reference = corpus_run(
        &mut corpus,
        &paths,
        &RunOptions {
            journal: Some(ctx.work.join("reference.journal")),
            ..options(&fs, false)
        },
    )
    .expect("reference run");
    for (row, ref_row) in screened.rows.iter().zip(&reference.rows) {
        for (c, (cell, ref_cell)) in row.cells.iter().zip(&ref_row.cells).enumerate() {
            if let Some(stats) = done_stats(cell) {
                out.checks.check(Some(stats) == done_stats(ref_cell), || {
                    format!(
                        "{} {}: surviving cell differs from the unpruned run",
                        row.trace, screened.configs[c]
                    )
                });
            }
        }
    }

    let refs: u64 = corpus.entries().iter().map(|e| e.refs).sum();
    let wall = out.wall();
    let grid = (refs * STEMS.len() as u64) as f64;
    out.e2e
        .set("grid_mrefs_per_s", "Mref/s", ratio(grid / 1e6, wall));
    out.e2e.set("miss_mae", "pp", miss_mae(&reference, &models));

    if ctx.traced {
        let iso = Isolated::mean(&isos);
        set_common_layers(&mut out, &iso, &fs_acc, &journals, &screened);
        let screen = Screen::mean(&screens);
        let pruned_secs = replay_secs(&screened, &iso, |c| matches!(c, CellOutcome::Pruned { .. }));
        let predictable = configs
            .iter()
            .filter(|c| c.primary_geometry().is_some())
            .count() as u64;
        let s = screened.summary;
        let decode: f64 = iso.decode.iter().sum();
        // One decode for the screen per line-size group, one for replay.
        let decode_busy = decode * (1.0 + screen.groups);
        let model_self = out.layers.0["sim.model.self_s"].0;
        let spans = crate::measure::span_means(&out);
        let (_, run_self) = spans.get("corpus.run").copied().unwrap_or_default();
        let (_, fs_self) = spans.get("trace.io.commitfs").copied().unwrap_or_default();
        let l = &mut out.layers;
        l.set("trace.io.columnar.busy_s", "s", decode_busy);
        l.set("trace.io.columnar.self_s", "s", decode_busy);
        l.set(
            "sim.analytic.stack_mrefs_per_s",
            "Mref/s",
            ratio(refs as f64 * screen.groups / 1e6, screen.stack_secs),
        );
        l.set("sim.analytic.busy_s", "s", screen.busy());
        l.set("sim.analytic.self_s", "s", screen.self_secs());
        l.set(
            "sim.analytic.footprint_blocks",
            "count",
            screen.footprint / corpus.entries().len() as f64,
        );
        l.set(
            "sim.analytic.predict_us",
            "us",
            ratio(screen.predict_secs * 1e6, screen.predicts),
        );
        l.set("corpus.run.replayed", "count", s.replayed as f64);
        l.set("corpus.run.restored", "count", s.restored as f64);
        l.set("corpus.run.pruned", "count", s.pruned as f64);
        l.set(
            "corpus.run.prune_ratio",
            "ratio",
            ratio(s.pruned as f64, (s.screened_traces * predictable) as f64),
        );
        l.set(
            "corpus.run.screen_payoff",
            "ratio",
            ratio(pruned_secs, screen.busy()),
        );
        l.set(
            "corpus.run.self_s",
            "s",
            run_self - decode_busy - model_self - screen.self_secs(),
        );
        l.set(
            "bench.explained_s",
            "s",
            decode_busy + model_self + screen.self_secs() + fs_self,
        );
    }
    out
}

/// Isolation timings of the analytic screen over a whole corpus.
#[derive(Debug, Clone, Copy, Default)]
struct Screen {
    /// Line-size groups, each one stack pass per trace.
    groups: f64,
    /// Seconds in `LruStackSweep`: `run_source`, decode included, and
    /// the modulo configs' `miss_ratio`.
    stack_secs: f64,
    /// The decode share of `stack_secs`, from the isolated decode.
    decode_secs: f64,
    /// Seconds in `AnalyticModel::predict`, and its calls.
    predict_secs: f64,
    predicts: f64,
    /// Distinct blocks summed over traces.
    footprint: f64,
}

impl Screen {
    fn busy(&self) -> f64 {
        self.stack_secs + self.predict_secs
    }

    fn self_secs(&self) -> f64 {
        self.busy() - self.decode_secs
    }

    /// Field-wise mean over traced iterations.
    fn mean(runs: &[Screen]) -> Screen {
        let n = runs.len() as f64;
        let avg = |f: fn(&Screen) -> f64| runs.iter().map(f).sum::<f64>() / n;
        Screen {
            groups: avg(|s| s.groups),
            stack_secs: avg(|s| s.stack_secs),
            decode_secs: avg(|s| s.decode_secs),
            predict_secs: avg(|s| s.predict_secs),
            predicts: avg(|s| s.predicts),
            footprint: avg(|s| s.footprint),
        }
    }
}

/// Runs the screen's stack pass (`LruStackSweep::run_source` with the
/// screen's set counts: 1 plus every primary set count, per line size)
/// and prices every config with a primary cache, per trace: modulo
/// configs from the stack (`miss_ratio`), hashed ones with
/// `AnalyticModel::predict`. Returns the timings and `predicted[t][c]`,
/// which [`check_screen`] holds against what `run` screened.
fn isolate_screen(corpus: &Corpus, configs: &[SimConfig]) -> (Screen, Vec<Vec<Option<f64>>>) {
    let mut by_line: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (j, c) in configs.iter().enumerate() {
        if let Some(g) = c.primary_geometry() {
            by_line.entry(g.block()).or_default().push(j);
        }
    }
    let mut s = Screen {
        groups: by_line.len() as f64,
        ..Screen::default()
    };
    let mut predicted = Vec::new();
    for entry in corpus.entries() {
        let path = corpus.trace_path(entry);
        let mut row = vec![None; configs.len()];
        for (line, members) in &by_line {
            let mut set_counts: Vec<u32> = vec![1];
            for &j in members {
                let sets = configs[j].primary_geometry().expect("grouped").num_sets();
                if !set_counts.contains(&sets) {
                    set_counts.push(sets);
                }
            }
            let mut stack = LruStackSweep::new(*line, &set_counts).expect("screen set counts");
            let mut reader = ref_reader(&path);
            s.stack_secs += time(|| stack.run_source(&mut reader).expect("decode stored trace")).1;
            let model = AnalyticModel::from_sweep(&stack).expect("1-set family configured");
            s.footprint += model.footprint_blocks() as f64;
            for &j in members {
                let g = configs[j].primary_geometry().expect("grouped");
                let modulo = configs[j]
                    .primary_index()
                    .is_some_and(|i| i.name() == "modulo");
                row[j] = if modulo {
                    let (p, secs) = time(|| stack.miss_ratio(g.num_sets(), g.ways()));
                    s.stack_secs += secs;
                    p
                } else {
                    let (p, secs) = time(|| model.predict(g.num_sets(), g.ways()));
                    s.predict_secs += secs;
                    s.predicts += 1.0;
                    p
                };
            }
        }
        predicted.push(row);
    }
    (s, predicted)
}

/// Checks every pruned cell of `report` against the isolated screen's
/// prediction for the same (trace, config), bit for bit, so the
/// `sim.analytic` figures are proven to time what `run` screened.
fn check_screen(checks: &mut Checks, report: &RunReport, predicted: &[Vec<Option<f64>>]) {
    for (t, row) in report.rows.iter().enumerate() {
        for (c, cell) in row.cells.iter().enumerate() {
            if let CellOutcome::Pruned { predicted: p, .. } = cell {
                let iso = predicted[t][c];
                checks.check(iso.map(f64::to_bits) == Some(p.to_bits()), || {
                    format!(
                        "{} {}: run pruned the cell at predicted {p}, the isolated screen gives {iso:?}",
                        row.trace, report.configs[c]
                    )
                });
            }
        }
    }
}
