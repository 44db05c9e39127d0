//! E1 — **Figure 1** of the paper (`cac fig1`) and the generalised
//! stride sweep (`cac sweep`).
//!
//! For every stride `1 ≤ S < max_stride` (in 8-byte elements), a trace
//! of repeated sweeps over a 64-element vector drives 8KB 2-way caches
//! that differ only in their index function. The histogram of
//! per-stride miss ratios reproduces the paper's log-frequency bars;
//! the observations to check:
//!
//! * `a2` (modulo) and `a2-Hx-Sk` (skewed XOR) show pathological
//!   behaviour (miss ratio > 50%) on more than 6% of strides;
//! * `a2-Hp-Sk` (skewed I-Poly) exhibits no significant conflicts on
//!   any stride.

use super::common::{paper_l1, parse_schemes, scheme_caches};
use crate::chart::grouped;
use crate::driver::args::ExpArgs;
use crate::driver::report::{Report, Table, Value};
use crate::driver::DriverError;
use crate::parallel::par_map_blocked;
use cac_core::{CacheGeometry, IndexSpec};
use cac_sim::journal::{fingerprint, Journal};
use cac_sim::sweep::Sweep;
use cac_trace::stride::VectorStride;
use cac_trace::MemRef;
use std::path::Path;

/// Runs a stride sweep through the decode-once engine: strides are
/// fanned out across the machine in blocks; each block builds its
/// scheme caches ONCE (LUT compilation dominates short-trace sweeps)
/// and, per stride, generates the trace ONCE, resets the models and
/// replays all of them in a single pass. Returns per-stride miss
/// ratios in scheme order.
fn stride_sweep(
    geom: CacheGeometry,
    schemes: &[IndexSpec],
    max_stride: u64,
    passes: u64,
) -> Vec<Vec<f64>> {
    par_map_blocked(1..max_stride, |block| {
        let mut models = scheme_caches(geom, schemes);
        let engine = Sweep::new().workers(1);
        let mut refs: Vec<MemRef> = Vec::new();
        block
            .map(|stride| {
                refs.clear();
                refs.extend(VectorStride::paper_figure1(stride, passes));
                for m in models.iter_mut() {
                    m.reset();
                }
                engine
                    .run_refs(&mut models, &refs)
                    .iter()
                    .map(|s| s.demand.miss_ratio())
                    .collect()
            })
            .collect()
    })
}

/// A labelled placement-scheme constructor.
type Scheme = (&'static str, fn() -> IndexSpec);

/// The four Figure-1 placement schemes, with the paper's labels.
const SCHEMES: [Scheme; 4] = [
    ("a2", IndexSpec::modulo),
    ("a2-Hx-Sk", IndexSpec::xor_skewed),
    ("a2-Hp", IndexSpec::ipoly),
    ("a2-Hp-Sk", IndexSpec::ipoly_skewed),
];

pub(super) fn fig1(a: &ExpArgs) -> Result<Report, DriverError> {
    let max_stride = a.u64("max-stride")?;
    let passes = a.u64("passes")?;
    if max_stride < 2 {
        return Err(DriverError::Usage("--max-stride must be at least 2".into()));
    }
    let geom = paper_l1();

    // Each stride is an independent simulation of all four schemes:
    // one trace generation and one replay pass per stride, with the
    // caches built once per stride block (see `stride_sweep`).
    let schemes: Vec<IndexSpec> = SCHEMES.iter().map(|(_, spec)| spec()).collect();
    let per_stride = stride_sweep(geom, &schemes, max_stride, passes);

    // histogram[scheme][bin]: bins of width 0.1 over (0,1].
    let mut histogram = [[0u64; 10]; 4];
    let mut pathological = [0u64; 4];
    let strides = per_stride.len() as u64;
    for ratios in &per_stride {
        for (si, &ratio) in ratios.iter().enumerate() {
            let bin = ((ratio * 10.0).ceil() as usize).clamp(1, 10) - 1;
            histogram[si][bin] += 1;
            if ratio > 0.5 {
                pathological[si] += 1;
            }
        }
    }

    let mut hist_table = Table::new(
        "miss-ratio histogram (strides per bin)",
        &["bin", "a2", "a2-Hx-Sk", "a2-Hp", "a2-Hp-Sk"],
    );
    for bin in 0..10 {
        let label = format!("{:.1}-{:.1}", bin as f64 / 10.0, (bin + 1) as f64 / 10.0);
        let mut row = vec![Value::s(label)];
        row.extend(histogram.iter().map(|h| Value::u(h[bin])));
        hist_table.push_row(row);
    }

    let mut path_table = Table::new(
        "pathological strides (miss ratio > 50%)",
        &["scheme", "count", "strides", "pct"],
    );
    for (si, (name, _)) in SCHEMES.iter().enumerate() {
        path_table.push_row(vec![
            Value::s(*name),
            Value::u(pathological[si]),
            Value::u(strides),
            Value::f(pathological[si] as f64 / strides as f64 * 100.0, 2),
        ]);
    }

    // The paper's log-frequency figure: columns = miss-ratio bins, one
    // bar per indexing scheme.
    let categories: Vec<String> = (0..10)
        .map(|b| format!("miss {:.1}-{:.1}", b as f64 / 10.0, (b + 1) as f64 / 10.0))
        .collect();
    let cat_refs: Vec<&str> = categories.iter().map(String::as_str).collect();
    let series: Vec<(&str, Vec<f64>)> = SCHEMES
        .iter()
        .enumerate()
        .map(|(si, (name, _))| (*name, histogram[si].iter().map(|&c| c as f64).collect()))
        .collect();
    let chart = grouped(
        "Figure 1: frequency distribution of per-stride miss ratios",
        &cat_refs,
        &series,
        true,
        48,
    );

    Ok(Report::new(format!(
        "E1 / Figure 1: miss-ratio distribution over strides 1..{max_stride} \
         ({passes} passes, 64x8B vector, {geom})"
    ))
    .param("max-stride", max_stride)
    .param("passes", passes)
    .table(hist_table)
    .table(path_table)
    .note("paper: a2 and a2-Hx-Sk > 6% of strides pathological; a2-Hp-Sk none")
    .text_block(chart))
}

/// One cell of a (possibly pruned) sweep row: the simulated miss ratio,
/// or the analytic prediction a pruned cell was screened out on.
enum SweepCell {
    /// Simulated miss ratio (fraction, not percent).
    Simulated(f64),
    /// Skipped by the analytic screen; carries the predicted ratio.
    Pruned(f64),
}

/// The sequential sweep behind `--checkpoint` and `--prune`: strides
/// run one after another, and with `band` set, per stride, one
/// stack-distance pass predicts every scheme's miss ratio (exactly for
/// modulus placement, via the binomial birthday model for hashed
/// placement), cells predicted worse than the stride's best by more
/// than `band` are skipped, and only the survivors replay. Simulated
/// cells are byte-identical to [`stride_sweep`]'s (same engine, same
/// trace, same reset discipline).
///
/// With `checkpoint` set, every cell — simulated or pruned — lands in
/// the crash-safe journal (pruned cells via the shared
/// `analytic-pruned`/`predicted-bits` extras convention), and a resumed
/// run restores a stride only when all of its scheme cells are present.
/// A screened journal's fingerprint folds in the prune mode and band,
/// so it can never silently continue an unscreened sweep or a sweep
/// with a different band.
fn stride_sweep_sequential(
    geom: CacheGeometry,
    schemes: &[IndexSpec],
    max_stride: u64,
    passes: u64,
    band: Option<f64>,
    checkpoint: Option<&str>,
) -> Result<Vec<Vec<SweepCell>>, DriverError> {
    use cac_corpus::{pruned_stats, PRUNED_FLAG, PRUNED_PREDICTED};
    use cac_sim::analytic::{prune_dominated, Pricer, SetSampling};

    let mut journal = match checkpoint {
        Some(path) => {
            let names = schemes
                .iter()
                .map(IndexSpec::name)
                .collect::<Vec<_>>()
                .join(",");
            let (geom, max_stride, passes) =
                (geom.to_string(), max_stride.to_string(), passes.to_string());
            let mut parts = vec!["cac sweep", &names, &geom, &max_stride, &passes];
            let band_part = band.map(|b| format!("band={b}"));
            if let Some(b) = &band_part {
                parts.extend(["prune=analytic", b]);
            }
            let j = Journal::load(Path::new(path), fingerprint(&parts))
                .map_err(|e| DriverError::Input(e.to_string()))?;
            Some((j, Path::new(path)))
        }
        None => None,
    };
    let restore = |stats: &cac_sim::model::ModelStats| {
        if stats.extra(PRUNED_FLAG) == Some(1) {
            SweepCell::Pruned(f64::from_bits(stats.extra(PRUNED_PREDICTED).unwrap_or(0)))
        } else {
            SweepCell::Simulated(stats.demand.miss_ratio())
        }
    };

    let mut models = scheme_caches(geom, schemes);
    let targets: Vec<(CacheGeometry, IndexSpec)> =
        schemes.iter().map(|s| (geom, s.clone())).collect();
    let engine = Sweep::new().workers(1);
    let mut refs: Vec<MemRef> = Vec::new();
    let mut out = Vec::with_capacity((max_stride - 1) as usize);
    let mut dirty = 0u64;
    for stride in 1..max_stride {
        let keys: Vec<String> = schemes
            .iter()
            .map(|s| format!("s{stride}/{}", s.name()))
            .collect();
        if let Some((j, _)) = &journal {
            // Restore the stride only if every scheme cell resolved;
            // partial rows recompute whole (screening is per-stride).
            let cached: Option<Vec<SweepCell>> =
                keys.iter().map(|k| j.get(k).map(restore)).collect();
            if let Some(row) = cached {
                out.push(row);
                continue;
            }
        }
        refs.clear();
        refs.extend(VectorStride::paper_figure1(stride, passes));
        let (keep, predicted) = match band {
            None => (vec![true; schemes.len()], vec![None; schemes.len()]),
            Some(band) => {
                // The Figure-1 stride traces are read-only, so the stack
                // counts are exact.
                let mut pricer =
                    Pricer::new(&targets, SetSampling::Exact(1)).map_err(DriverError::from)?;
                pricer.run_refs(&refs);
                let predicted: Vec<Option<f64>> =
                    pricer.prices().iter().map(|p| p.estimate).collect();
                (prune_dominated(&predicted, band), predicted)
            }
        };
        let mut row = Vec::with_capacity(schemes.len());
        for (i, (&kept, &p)) in keep.iter().zip(&predicted).enumerate() {
            if kept {
                let m = &mut models[i];
                m.reset();
                let stats = engine.run_refs(std::slice::from_mut(m), &refs);
                if let Some((j, _)) = &mut journal {
                    j.record(&keys[i], &stats[0]);
                }
                row.push(SweepCell::Simulated(stats[0].demand.miss_ratio()));
            } else {
                let p = p.expect("pruned implies predicted");
                if let Some((j, _)) = &mut journal {
                    j.record(&keys[i], &pruned_stats(p));
                }
                row.push(SweepCell::Pruned(p));
            }
        }
        out.push(row);
        if let Some((j, path)) = &journal {
            dirty += 1;
            // Amortize the rewrite: a kill loses at most 64 strides.
            if dirty.is_multiple_of(64) {
                j.save(path)
                    .map_err(|e| DriverError::Input(e.to_string()))?;
            }
        }
    }
    if let Some((j, path)) = &journal {
        if dirty > 0 {
            j.save(path)
                .map_err(|e| DriverError::Input(e.to_string()))?;
        }
    }
    Ok(out)
}

pub(super) fn sweep(a: &ExpArgs) -> Result<Report, DriverError> {
    let schemes = parse_schemes(a.str("schemes"))?;
    let max_stride = a.u64("max-stride")?;
    let passes = a.u64("passes")?;
    if max_stride < 2 {
        return Err(DriverError::Usage("--max-stride must be at least 2".into()));
    }
    let prune = match a.str("prune") {
        "" => false,
        "analytic" => true,
        other => {
            return Err(DriverError::Usage(format!(
                "--prune supports only \"analytic\", got {other:?}"
            )))
        }
    };
    let band_pct = a.str("prune-band").parse::<f64>().map_err(|_| {
        DriverError::Usage(format!(
            "--prune-band expects a number, got {:?}",
            a.str("prune-band")
        ))
    })?;
    let geom = cac_core::CacheGeometry::new(a.u64("size")?, a.u64("line")?, a.u32("ways")?)?;
    // Validate every scheme against the geometry before the sweep.
    for s in &schemes {
        s.build(geom)?;
    }

    // As in fig1: one trace generation and one pass per stride, caches
    // built once per block. With --checkpoint or --prune the strides run
    // sequentially instead, against a crash-safe journal and behind the
    // analytic screen respectively. The two compose: a pruned
    // checkpointed sweep journals pruned cells alongside simulated ones
    // and resumes either kind.
    let checkpoint = a.is_set("checkpoint").then(|| a.str("checkpoint"));
    let cells: Vec<Vec<SweepCell>> = if prune || checkpoint.is_some() {
        let band = prune.then_some(band_pct / 100.0);
        stride_sweep_sequential(geom, &schemes, max_stride, passes, band, checkpoint)?
    } else {
        stride_sweep(geom, &schemes, max_stride, passes)
            .into_iter()
            .map(|row| row.into_iter().map(SweepCell::Simulated).collect())
            .collect()
    };

    let mut columns = vec!["stride".to_owned()];
    columns.extend(schemes.iter().map(|s| format!("{} miss%", s.name())));
    let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut table = Table::new("per-stride miss ratios", &col_refs);
    let mut pruned_cells = 0u64;
    let mut total_cells = 0u64;
    for (i, row_cells) in cells.iter().enumerate() {
        let mut row = vec![Value::u(i as u64 + 1)];
        for cell in row_cells {
            total_cells += 1;
            row.push(match cell {
                SweepCell::Simulated(r) => Value::f(r * 100.0, 2),
                SweepCell::Pruned(p) => {
                    pruned_cells += 1;
                    Value::s(format!("PRUNED(predicted={:.2})", p * 100.0))
                }
            });
        }
        table.push_row(row);
    }

    let mut report = Report::new(format!(
        "stride sweep: {} on {geom}, strides 1..{max_stride}, {passes} passes",
        schemes
            .iter()
            .map(IndexSpec::name)
            .collect::<Vec<_>>()
            .join("+")
    ))
    .param("schemes", a.str("schemes"))
    .param("max-stride", max_stride)
    .param("passes", passes)
    .table(table);
    if prune {
        report = report.note(format!(
            "analytic screen: {pruned_cells} of {total_cells} cells pruned \
             (predicted worse than the stride's best by more than \
             {band_pct:.1} miss-% points) and never replayed"
        ));
    }
    Ok(report)
}
