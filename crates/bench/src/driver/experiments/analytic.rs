//! The analytic screening tier: `cac analytic predict` and
//! `cac analytic validate`.
//!
//! `predict` runs **one** stack-distance traversal of a workload (a
//! synthetic benchmark or a trace file) and reads the whole
//! size × associativity grid off the closed-form
//! [`cac_sim::analytic`] models — no replay at all. `validate` is the
//! tier's armor: it replays the same workload through each given
//! config's **primary cache** (geometry + placement — the exact cell
//! the sweep pruner screens), compares prediction against that ground
//! truth per config, and **exits 1** when the mean absolute error
//! exceeds the documented bound — the same equivalence-suite pattern
//! that protects every other fast path in this repo.

use super::common::{format_size, parse_benchmark, parse_csv};
use super::tools::open_trace_file;
use crate::driver::args::ExpArgs;
use crate::driver::report::{Report, Table, Value};
use crate::driver::DriverError;
use cac_core::{parse_size, CacheGeometry, IndexSpec};
use cac_sim::analytic::{
    birthday_collision_probability, expected_overflow_blocks, AnalyticModel, Pricer, SetSampling,
};
use cac_sim::sweep::LruStackSweep;
use cac_sim::SimConfig;
use cac_trace::io::{DecodeMode, RefSource, DEFAULT_CHUNK_OPS};
use cac_trace::kernels::mem_refs;
use cac_trace::MemRef;

/// A report-ready "set sampling" table (k, refs, worst-case standard
/// error) so sampling caveats reach JSON/CSV consumers, not just the
/// text notes. `None` when the sweep is exact.
pub(super) fn sampling_table(sweep: &LruStackSweep) -> Option<Table> {
    let se = sweep.sampling_standard_error()?;
    Some(
        Table::new(
            "set sampling",
            &["k", "refs seen", "refs sampled", "worst-case SE (miss-%)"],
        )
        .row(vec![
            Value::u(sweep.sampling()),
            Value::u(sweep.refs_seen()),
            Value::u(sweep.refs_sampled()),
            Value::f(se * 100.0, 3),
        ]),
    )
}

pub(super) fn predict(a: &ExpArgs) -> Result<Report, DriverError> {
    let line = a.u64("line")?;
    let sizes = parse_csv(a.str("sizes"), "size", |s| parse_size(s).ok())?;
    let ways = parse_csv(a.str("ways"), "ways", |s| s.parse::<u32>().ok())?;

    // One fully-associative stack-distance traversal feeds every
    // prediction below.
    let mut sweep = LruStackSweep::new(line, &[1])?;
    sweep.run_refs(&collect_loads(a)?);
    let model = AnalyticModel::from_sweep(&sweep).expect("1-set family configured");
    let footprint = model.footprint_blocks();

    let mut columns = vec!["size".to_owned()];
    columns.extend(ways.iter().map(|w| format!("{w}-way miss%")));
    let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut grid = Table::new("predicted miss-ratio grid (hashed placement)", &col_refs);
    for &size in &sizes {
        let mut row = vec![Value::s(format_size(size))];
        for &w in &ways {
            let cell = geometry(size, line, w)
                .and_then(|g| model.predict(g.num_sets(), w).map(|r| r * 100.0));
            row.push(match cell {
                Some(pct) => Value::f(pct, 2),
                None => Value::s("-"),
            });
        }
        grid.push_row(row);
    }

    let mut bounds = Table::new(
        "birthday conflict bounds",
        &[
            "size",
            "ways",
            "sets",
            "footprint blocks",
            "load factor",
            "P(collision)",
            "expected overflow blocks",
        ],
    );
    for &size in &sizes {
        for &w in &ways {
            let Some(g) = geometry(size, line, w) else {
                continue;
            };
            bounds.push_row(vec![
                Value::s(format_size(size)),
                Value::u(u64::from(w)),
                Value::u(u64::from(g.num_sets())),
                Value::u(footprint),
                Value::f(g.load_factor(footprint), 3),
                Value::f(birthday_collision_probability(g.num_sets(), footprint), 4),
                Value::f(expected_overflow_blocks(g.num_sets(), w, footprint), 1),
            ]);
        }
    }

    let workload = if a.is_set("trace") {
        a.str("trace").to_owned()
    } else {
        format!("{} ({} ops)", a.str("bench"), a.str("ops"))
    };
    Ok(Report::new(format!(
        "analytic predictions: {} loads of {workload}, {line}B lines, no replay",
        sweep.refs_seen()
    ))
    .param("bench", a.str("bench"))
    .param("ops", a.str("ops"))
    .param("line", line)
    .param("sizes", a.str("sizes"))
    .param("ways", a.str("ways"))
    .param("trace", a.str("trace"))
    .table(grid)
    .table(bounds)
    .note(
        "model: an access at fully-associative stack depth d misses a (s, w) \
         hashed cache with probability P(Binomial(d, 1/s) >= w); exact for s = 1. \
         Validate against simulation with `cac analytic validate`.",
    ))
}

/// The grid geometry for one (size, ways) cell, or `None` when the cell
/// degenerates (ways * line > size or a non-power-of-two set count).
fn geometry(size: u64, line: u64, ways: u32) -> Option<CacheGeometry> {
    if ways == 0 || !size.is_multiple_of(line * u64::from(ways)) {
        return None;
    }
    CacheGeometry::new(size, line, ways).ok()
}

/// The workload's **loads**: the trace file when `trace` is set, the
/// synthetic benchmark otherwise. Loads only, matching `cac lru-curve`
/// — a read-only stream keeps the stack-distance counts exact for the
/// paper's write-through L1.
fn collect_loads(a: &ExpArgs) -> Result<Vec<MemRef>, DriverError> {
    let mut loads: Vec<MemRef> = Vec::new();
    if a.is_set("trace") {
        let mut source = open_trace_file(a.str("trace"), DecodeMode::Strict)?;
        let mut buf: Vec<MemRef> = Vec::with_capacity(DEFAULT_CHUNK_OPS);
        while source.read_ref_chunk(&mut buf, DEFAULT_CHUNK_OPS)? > 0 {
            loads.extend(buf.iter().filter(|r| !r.is_write));
        }
    } else {
        let b = parse_benchmark(a.str("bench"))?;
        let ops = a.usize("ops")?;
        loads.extend(mem_refs(b.generator(5).take(ops)).filter(|r| !r.is_write));
    }
    if loads.is_empty() {
        return Err(DriverError::Input("the workload contains no loads".into()));
    }
    Ok(loads)
}

/// One validated config: label, primary geometry/scheme, and the three
/// miss ratios (percent) — the analytic prediction, the simulated
/// primary cache it is gated against, and the full organization
/// (informational; sidecars and extra levels are out of the analytic
/// tier's scope).
struct ValidatedConfig {
    label: String,
    geometry: CacheGeometry,
    scheme: String,
    predicted: f64,
    primary: f64,
    organization: f64,
}

pub(super) fn validate(a: &ExpArgs) -> Result<Report, DriverError> {
    let paths = a.list("configs");
    if paths.is_empty() {
        return Err(DriverError::Usage(
            "analytic validate needs at least one config file".into(),
        ));
    }
    let bound_pct = a.str("bound").parse::<f64>().map_err(|_| {
        DriverError::Usage(format!(
            "--bound expects a number, got {:?}",
            a.str("bound")
        ))
    })?;
    let sample = a.u32("sample")?;

    // Load every config up front; configs without a cache array (the
    // poison fixture) cannot be predicted and are a usage error.
    let mut configs: Vec<(String, SimConfig, CacheGeometry, IndexSpec)> = Vec::new();
    for path in &paths {
        let cfg = SimConfig::load(path).map_err(|e| DriverError::Input(e.to_string()))?;
        let geometry = cfg.primary_geometry().ok_or_else(|| {
            DriverError::Usage(format!("{path}: config has no cache geometry to predict"))
        })?;
        let index = cfg.primary_index().expect("geometry implies an index");
        let label = cfg.name.clone().unwrap_or_else(|| (*path).to_owned());
        configs.push((label, cfg, geometry, index));
    }

    let loads = collect_loads(a)?;

    // Ground truth: the primary cache array replayed under its actual
    // placement — exactly the (geometry, scheme) cell the analytic tier
    // claims to predict (and the pruner screens). The full organization
    // (sidecars, extra levels) replays alongside for the informational
    // column; one decode-once engine pass covers both model sets.
    let mut models: Vec<Box<dyn cac_sim::model::MemoryModel>> = Vec::new();
    for (_, cfg, g, index) in &configs {
        models.push(Box::new(
            cac_sim::cache::Cache::build(*g, index.clone())
                .map_err(|e| DriverError::Input(e.to_string()))?,
        ));
        models.push(cfg.build().map_err(|e| DriverError::Input(e.to_string()))?);
    }
    let stats = cac_sim::sweep::Sweep::new().run_refs(&mut models, &loads);
    let primary_sim: Vec<f64> = stats
        .iter()
        .step_by(2)
        .map(|s| s.demand.miss_ratio() * 100.0)
        .collect();
    let organization_sim: Vec<f64> = stats
        .iter()
        .skip(1)
        .step_by(2)
        .map(|s| s.demand.miss_ratio() * 100.0)
        .collect();

    // Predictions: the analytic pricer over every config's primary
    // cache.
    let targets: Vec<(CacheGeometry, IndexSpec)> = configs
        .iter()
        .map(|(_, _, g, index)| (*g, index.clone()))
        .collect();
    // `--sample 0` and `--sample 1` both mean exact.
    let mut pricer = Pricer::new(&targets, SetSampling::Exact(sample.max(1)))?;
    pricer.run_refs(&loads);
    let prices = pricer.prices();
    // Sampling noise affects the predictions themselves; widen the
    // acceptance bound by the worst-case standard error.
    let effective_bound = prices
        .iter()
        .map(|p| bound_pct + p.se * 100.0)
        .fold(bound_pct, f64::max);
    let sampling = pricer.groups().iter().find_map(sampling_table);
    let mut validated: Vec<ValidatedConfig> = configs
        .iter()
        .zip(&prices)
        .enumerate()
        .map(|(i, ((label, _, g, index), price))| ValidatedConfig {
            label: label.clone(),
            geometry: *g,
            scheme: index.name().to_owned(),
            predicted: price.estimate.expect("refs observed") * 100.0,
            primary: primary_sim[i],
            organization: organization_sim[i],
        })
        .collect();
    // Rows run by line size, one stack pass per size.
    validated.sort_by_key(|v| v.geometry.block());

    let mut per_config = Table::new(
        "model vs simulation",
        &[
            "config",
            "geometry",
            "scheme",
            "simulated miss%",
            "predicted miss%",
            "abs error",
            "organization miss%",
            "verdict",
        ],
    );
    let mut sum_err = 0.0f64;
    let mut max_err = 0.0f64;
    for v in &validated {
        let err = (v.predicted - v.primary).abs();
        sum_err += err;
        max_err = max_err.max(err);
        per_config.push_row(vec![
            Value::s(v.label.clone()),
            Value::s(v.geometry.to_string()),
            Value::s(v.scheme.clone()),
            Value::f(v.primary, 2),
            Value::f(v.predicted, 2),
            Value::f(err, 2),
            Value::f(v.organization, 2),
            Value::s(if err <= effective_bound {
                "ok"
            } else {
                "EXCEEDS"
            }),
        ]);
    }
    let mean_err = sum_err / validated.len() as f64;

    // Rank inversions: config pairs the model orders opposite to the
    // simulation by more than the bound — the failure mode that would
    // make dominance pruning unsound.
    let mut inversions = 0u64;
    let mut worst_gap = 0.0f64;
    for i in 0..validated.len() {
        for j in i + 1..validated.len() {
            let (a, b) = (&validated[i], &validated[j]);
            let sim_gap = (a.primary - b.primary).abs();
            let inverted = (a.predicted - b.predicted) * (a.primary - b.primary) < 0.0;
            if inverted && sim_gap > effective_bound {
                inversions += 1;
                worst_gap = worst_gap.max(sim_gap);
            }
        }
    }

    let summary = Table::new(
        "summary",
        &[
            "configs",
            "mean abs error",
            "max abs error",
            "bound",
            "rank inversions",
            "worst inversion gap",
            "loads",
            "verdict",
        ],
    )
    .row(vec![
        Value::u(validated.len() as u64),
        Value::f(mean_err, 3),
        Value::f(max_err, 3),
        Value::f(effective_bound, 2),
        Value::u(inversions),
        Value::f(worst_gap, 2),
        Value::u(loads.len() as u64),
        Value::s(if mean_err <= effective_bound {
            "PASS"
        } else {
            "FAIL"
        }),
    ]);

    let failed = u64::from(mean_err > effective_bound);
    let mut report = Report::new(format!(
        "analytic validation: {} configs, mean |error| {:.3} miss-% \
         (bound {:.2})",
        validated.len(),
        mean_err,
        effective_bound
    ))
    .param("configs", paths.join(","))
    .param("trace", a.str("trace"))
    .param("bench", a.str("bench"))
    .param("ops", a.str("ops"))
    .param("sample", sample)
    .param("bound", bound_pct)
    .table(per_config)
    .table(summary);
    if let Some(t) = sampling {
        report = report.table(t);
    }
    report = report.note(
        "ground truth (`simulated miss%`): the primary cache (geometry + \
         placement) replayed alone on the loads — the exact cell the sweep \
         pruner screens. Predicted: exact Mattson curve for modulus \
         placement, binomial birthday model for hashed placement. \
         `organization miss%` replays the full configured organization \
         (victim/stream sidecars, hierarchies) and is informational only: \
         sidecar and multi-level effects are outside the analytic tier's \
         scope. Rank inversions count config pairs the model orders opposite \
         to simulation by more than the bound.",
    );
    Ok(report.flag_failures(failed))
}
