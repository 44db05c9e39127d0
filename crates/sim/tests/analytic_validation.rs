//! The analytic tier's validation harness: model vs simulation across
//! every shipped example config, on a synthetic workload and on a
//! binary-trace round trip of the same workload.
//!
//! Ground truth is the config's **primary cache** (geometry +
//! placement) replayed on the workload's loads — the exact cell the
//! sweep pruner screens. The prediction is scheme-aware: the exact
//! Mattson curve for modulus placement, the binomial birthday model for
//! hashed placement. The harness fails when the mean absolute
//! miss-ratio error exceeds [`BOUND_PCT`] (the bound `cac analytic
//! validate` documents) or when any config pair is rank-inverted by
//! more than the bound.

use std::fs;
use std::io::Cursor;
use std::path::PathBuf;

use cac_sim::cache::Cache;
use cac_sim::sweep::LruStackSweep;
use cac_sim::{AnalyticModel, SimConfig};
use cac_trace::io::binary::{write_trace_binary, BinaryTraceReader};
use cac_trace::kernels::mem_refs;
use cac_trace::{MemRef, SpecBenchmark};

/// The documented mean-absolute-error bound, in miss-ratio percentage
/// points (see DESIGN.md, "Analytic tier").
const BOUND_PCT: f64 = 5.0;

/// Every shipped example config, sorted for determinism.
fn example_configs() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut paths: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("examples directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 14,
        "expected the 14 shipped examples, found {}",
        paths.len()
    );
    paths
}

/// The synthetic workload: tomcatv — the paper's worst conflict case —
/// loads only, matching the read-only stream `cac analytic` observes.
fn synthetic_loads(ops: usize) -> Vec<MemRef> {
    mem_refs(SpecBenchmark::Tomcatv.generator(5).take(ops))
        .filter(|r| !r.is_write)
        .collect()
}

/// One validated config: predicted vs simulated primary miss ratio, in
/// percent.
struct Row {
    label: String,
    predicted: f64,
    simulated: f64,
}

/// Runs the model-vs-simulation comparison for every example config on
/// one load stream, returning per-config rows.
fn validate(loads: &[MemRef]) -> Vec<Row> {
    let mut rows = Vec::new();
    for path in example_configs() {
        let cfg = SimConfig::load(path.to_str().unwrap()).expect("example config parses");
        let (Some(geom), Some(index)) = (cfg.primary_geometry(), cfg.primary_index()) else {
            panic!("{}: example config has no primary cache", path.display());
        };
        // Ground truth: the primary array replayed under its actual
        // placement.
        let mut cache = Cache::build(geom, index.clone()).expect("primary cache builds");
        let simulated = cache.run_refs_slice(loads).miss_ratio() * 100.0;

        // Prediction: one stack traversal covers both estimators.
        let mut sweep = LruStackSweep::new(geom.block(), &[1, geom.num_sets()]).unwrap();
        for r in loads {
            sweep.observe(r.addr);
        }
        let predicted = if index.name() == "modulo" {
            sweep.miss_ratio(geom.num_sets(), geom.ways()).unwrap()
        } else {
            AnalyticModel::from_sweep(&sweep)
                .unwrap()
                .predict(geom.num_sets(), geom.ways())
                .unwrap()
        } * 100.0;
        rows.push(Row {
            label: cfg.name.unwrap_or_else(|| path.display().to_string()),
            predicted,
            simulated,
        });
    }
    rows
}

/// Mean absolute error plus the worst per-config error.
fn errors(rows: &[Row]) -> (f64, f64) {
    let sum: f64 = rows.iter().map(|r| (r.predicted - r.simulated).abs()).sum();
    let max = rows
        .iter()
        .map(|r| (r.predicted - r.simulated).abs())
        .fold(0.0, f64::max);
    (sum / rows.len() as f64, max)
}

/// Config pairs the model orders opposite to the simulation by more
/// than the bound — the inversions that would make pruning unsound.
fn rank_inversions(rows: &[Row], bound: f64) -> Vec<(String, String, f64)> {
    let mut inversions = Vec::new();
    for i in 0..rows.len() {
        for j in i + 1..rows.len() {
            let (a, b) = (&rows[i], &rows[j]);
            let gap = (a.simulated - b.simulated).abs();
            if (a.predicted - b.predicted) * (a.simulated - b.simulated) < 0.0 && gap > bound {
                inversions.push((a.label.clone(), b.label.clone(), gap));
            }
        }
    }
    inversions
}

#[test]
fn model_matches_simulation_on_the_synthetic_workload() {
    let loads = synthetic_loads(200_000);
    let rows = validate(&loads);
    let (mean, max) = errors(&rows);
    for r in &rows {
        eprintln!(
            "{:40} predicted {:6.2}  simulated {:6.2}  |err| {:5.2}",
            r.label,
            r.predicted,
            r.simulated,
            (r.predicted - r.simulated).abs()
        );
    }
    assert!(
        mean <= BOUND_PCT,
        "mean |error| {mean:.3} miss-% exceeds the documented bound {BOUND_PCT}"
    );
    // Modulus predictions are exact (Mattson inclusion); only hashed
    // placement carries model error, so the worst config stays within a
    // few points too.
    assert!(max <= 2.0 * BOUND_PCT, "max |error| {max:.3} miss-%");
    let inversions = rank_inversions(&rows, BOUND_PCT);
    assert!(
        inversions.is_empty(),
        "rank inversions beyond the bound: {inversions:?}"
    );
}

#[test]
fn model_matches_simulation_on_a_traced_workload() {
    // Round-trip the workload through the binary trace format: the
    // traced path must agree with the in-memory path ref-for-ref, and
    // the validation verdict must not depend on which one fed it.
    let ops: Vec<cac_trace::TraceOp> = SpecBenchmark::Tomcatv.generator(5).take(120_000).collect();
    let mut encoded = Vec::new();
    write_trace_binary(&mut encoded, ops.iter().copied()).expect("encode");

    let mut traced: Vec<MemRef> = Vec::new();
    let mut reader = BinaryTraceReader::new(Cursor::new(encoded)).expect("trace header");
    let mut chunk = Vec::new();
    while reader.read_ref_chunk(&mut chunk, 4096).expect("decode") > 0 {
        traced.extend(chunk.iter().filter(|r| !r.is_write));
    }
    let direct: Vec<MemRef> = mem_refs(ops.into_iter()).filter(|r| !r.is_write).collect();
    assert_eq!(traced, direct, "trace round trip must preserve the loads");

    let rows = validate(&traced);
    let (mean, _) = errors(&rows);
    assert!(
        mean <= BOUND_PCT,
        "mean |error| {mean:.3} miss-% exceeds the documented bound {BOUND_PCT}"
    );
}
