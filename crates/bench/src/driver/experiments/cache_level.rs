//! Cache-level (miss-ratio) studies: `cac missratio`,
//! `cac organizations`, `cac column`, `cac related`, `cac tiling` and
//! the `cac regions` debugging aid.
//!
//! These replay the 18 synthetic SPEC95 workload models (or the
//! Figure-1 stride traces) through single-level caches only — no
//! processor model — and compare placement schemes and cache
//! organizations by load miss ratio, as §2.1 and the related-work
//! discussion of the paper do.

use super::common::{format_size, paper_l1, parse_benchmark, parse_csv, scheme_caches};
use crate::driver::args::ExpArgs;
use crate::driver::report::{Report, Table, Value};
use crate::driver::DriverError;
use crate::parallel::{par_map, par_map_blocked};
use crate::{arithmetic_mean, std_dev};
use cac_core::{parse_size, CacheGeometry, IndexSpec};
use cac_sim::cache::Cache;
use cac_sim::column::RehashKind;
use cac_sim::config::{ColumnConfig, JouppiConfig, ModelConfig, StreamConfig, VictimConfig};
use cac_sim::model::{MemoryModel, ModelStats};
use cac_sim::sweep::{LruStackSweep, Sweep};
use cac_sim::SimConfig;
use cac_trace::kernels::mem_refs;
use cac_trace::patterns::TiledMatMul;
use cac_trace::spec::SpecBenchmark;
use cac_trace::stride::VectorStride;
use cac_trace::MemRef;
use std::collections::BTreeMap;

/// Builds every config of a sweep into boxed models.
fn build_models(configs: &[&SimConfig]) -> Vec<Box<dyn MemoryModel>> {
    configs
        .iter()
        .map(|cfg| cfg.build().expect("shipped config builds"))
        .collect()
}

/// Replays `refs` once against every model (the decode-once sweep
/// engine, inline: callers already parallelise across benchmarks or
/// strides) and returns each model's demand load miss ratio in percent
/// — the one measurement loop every organization/placement comparison
/// in this module shares.
fn load_miss_pcts(models: &mut [Box<dyn MemoryModel>], refs: &[MemRef]) -> Vec<f64> {
    Sweep::new()
        .workers(1)
        .run_refs(models, refs)
        .iter()
        .map(|s| s.demand.read_miss_ratio() * 100.0)
        .collect()
}

pub(super) fn missratio(a: &ExpArgs) -> Result<Report, DriverError> {
    let ops = a.usize("ops")?;
    let geom = paper_l1();
    let fa_geom = CacheGeometry::fully_associative(8 * 1024, 32).expect("valid geometry");
    let conv = SimConfig::cache(geom, IndexSpec::modulo());
    let ipoly = SimConfig::cache(geom, IndexSpec::ipoly_skewed());
    let fa = SimConfig::cache(fa_geom, IndexSpec::modulo());

    // One worker per benchmark: each generates the workload once and
    // feeds all three placements from it in a single pass.
    let benches = SpecBenchmark::all();
    let results: Vec<(f64, f64, f64)> = par_map(&benches, |b| {
        let refs: Vec<MemRef> = mem_refs(b.generator(12345).take(ops)).collect();
        let mut models = build_models(&[&conv, &ipoly, &fa]);
        let pcts = load_miss_pcts(&mut models, &refs);
        (pcts[0], pcts[1], pcts[2])
    });

    let mut table = Table::new(
        "8KB 2-way load miss ratios (%)",
        &["bench", "conv", "paper", "ipoly", "paper", "fullassoc"],
    );
    let mut conv_all = Vec::new();
    let mut ipoly_all = Vec::new();
    let mut fa_all = Vec::new();
    for (b, &(c, p, f)) in benches.iter().zip(&results) {
        let row = b.paper_row();
        conv_all.push(c);
        ipoly_all.push(p);
        fa_all.push(f);
        table.push_row(vec![
            Value::s(b.name()),
            Value::f(c, 2),
            Value::f(row.conv8_miss, 2),
            Value::f(p, 2),
            Value::f(row.ipoly_miss, 2),
            Value::f(f, 2),
        ]);
    }

    Ok(Report::new(format!(
        "E5: 8KB 2-way load miss ratios (%), {ops} ops per benchmark"
    ))
    .param("ops", ops)
    .table(table)
    .note(format!(
        "suite average: conv {:.2}% (paper [10]: 13.84)  ipoly {:.2}% (paper [10]: 7.14)  \
         fully-assoc {:.2}% (paper [10]: 6.80)",
        arithmetic_mean(&conv_all),
        arithmetic_mean(&ipoly_all),
        arithmetic_mean(&fa_all)
    ))
    .note(format!(
        "miss-ratio stddev across suite: conv {:.2} (paper: 18.49)  ipoly {:.2} (paper: 5.16)",
        std_dev(&conv_all),
        std_dev(&ipoly_all)
    )))
}

/// The §2.1 organization matrix as declarative configs — the same
/// organizations shipped under `examples/*.toml`
/// (`crates/bench/tests/config_equivalence.rs` proves the file and
/// in-code forms build identical models).
pub fn organization_matrix() -> Vec<(&'static str, SimConfig)> {
    let dm = CacheGeometry::new(8 * 1024, 32, 1).expect("geometry");
    let w2 = paper_l1();
    let w4 = CacheGeometry::new(8 * 1024, 32, 4).expect("geometry");
    let fa = CacheGeometry::fully_associative(8 * 1024, 32).expect("geometry");
    vec![
        ("direct-mapped", SimConfig::cache(dm, IndexSpec::modulo())),
        ("2-way set-assoc", SimConfig::cache(w2, IndexSpec::modulo())),
        ("4-way set-assoc", SimConfig::cache(w4, IndexSpec::modulo())),
        (
            "victim (DM + 4 lines)",
            SimConfig::new(ModelConfig::Victim(VictimConfig {
                geometry: dm,
                victim_lines: 4,
            })),
        ),
        (
            "hash-rehash (bit flip)",
            SimConfig::new(ModelConfig::Column(ColumnConfig {
                geometry: dm,
                rehash: RehashKind::TopBitFlip,
            })),
        ),
        (
            "column-assoc (I-Poly)",
            SimConfig::new(ModelConfig::Column(ColumnConfig {
                geometry: dm,
                rehash: RehashKind::Polynomial,
            })),
        ),
        (
            "stream buffers (DM + 4x4)",
            SimConfig::new(ModelConfig::Stream(StreamConfig {
                geometry: dm,
                index: IndexSpec::modulo(),
                buffers: 4,
                depth: 4,
            })),
        ),
        (
            "Jouppi (DM + victim + stream)",
            SimConfig::new(ModelConfig::Jouppi(JouppiConfig {
                geometry: dm,
                victim_lines: 4,
                stream_buffers: 4,
                stream_depth: 4,
            })),
        ),
        (
            "2-way skewed XOR",
            SimConfig::cache(w2, IndexSpec::xor_skewed()),
        ),
        ("2-way I-Poly", SimConfig::cache(w2, IndexSpec::ipoly())),
        (
            "2-way skewed I-Poly",
            SimConfig::cache(w2, IndexSpec::ipoly_skewed()),
        ),
        (
            "fully associative",
            SimConfig::cache(fa, IndexSpec::modulo()),
        ),
    ]
}

pub(super) fn organizations(a: &ExpArgs) -> Result<Report, DriverError> {
    let ops = a.usize("ops")?;
    let organizations = organization_matrix();

    let mut table = Table::new(
        "suite-average load miss % by organization",
        &["organization", "all", "bad-3", "good-15"],
    );
    // One worker per benchmark: the workload is generated ONCE and
    // every organization of the matrix replays it in a single pass
    // (the read-only organizations bypass stores internally, so one
    // sweep covers both the cache and buffer models). This is the
    // whole-matrix shape the sweep engine exists for: trace cost per
    // benchmark instead of per (organization x benchmark).
    let benches = SpecBenchmark::all();
    let per_bench: Vec<Vec<f64>> = par_map(&benches, |&b| {
        let refs: Vec<MemRef> = mem_refs(b.generator(5).take(ops)).collect();
        let configs: Vec<&SimConfig> = organizations.iter().map(|(_, cfg)| cfg).collect();
        let mut models = build_models(&configs);
        load_miss_pcts(&mut models, &refs)
    });
    for (oi, (name, _)) in organizations.iter().enumerate() {
        let mut all = Vec::new();
        let mut bad = Vec::new();
        let mut good = Vec::new();
        for (b, ms) in benches.iter().zip(&per_bench) {
            let m = ms[oi];
            all.push(m);
            if b.is_high_conflict() {
                bad.push(m);
            } else {
                good.push(m);
            }
        }
        table.push_row(vec![
            Value::s(*name),
            Value::f(arithmetic_mean(&all), 2),
            Value::f(arithmetic_mean(&bad), 2),
            Value::f(arithmetic_mean(&good), 2),
        ]);
    }

    Ok(Report::new(format!(
        "E10 / section 2.1: 8KB organization comparison, suite-average load miss % \
         ({ops} ops/benchmark)"
    ))
    .param("ops", ops)
    .table(table)
    .note("paper, quoting [10] on full Spec95: 2-way 13.84%, I-Poly 7.14%, fully-assoc 6.80%"))
}

pub(super) fn column_assoc(a: &ExpArgs) -> Result<Report, DriverError> {
    let ops = a.usize("ops")?;
    let dm = CacheGeometry::new(8 * 1024, 32, 1).expect("geometry");
    let plain_cfg = SimConfig::cache(dm, IndexSpec::modulo());
    let assoc_cfg = SimConfig::cache(paper_l1(), IndexSpec::modulo());
    let col_cfg = SimConfig::new(ModelConfig::Column(ColumnConfig {
        geometry: dm,
        rehash: RehashKind::Polynomial,
    }));

    let mut table = Table::new(
        "column-associative with polynomial rehash",
        &[
            "bench",
            "DM miss%",
            "2way miss%",
            "col miss%",
            "1st-probe%",
            "probes/hit",
        ],
    );
    let mut first_probe = Vec::new();
    for b in SpecBenchmark::all() {
        // Load behaviour, as in the paper's miss ratios: stores dropped.
        // One generation, one pass over all three organizations.
        let reads: Vec<MemRef> = mem_refs(b.generator(3).take(ops))
            .filter(|r| !r.is_write)
            .collect();
        let mut models = build_models(&[&plain_cfg, &assoc_cfg, &col_cfg]);
        let stats: Vec<ModelStats> = Sweep::new().workers(1).run_refs(&mut models, &reads);
        let s = &stats[2];
        let (first, second) = (
            s.extra("first-probe-hits").unwrap_or(0) as f64,
            s.extra("second-probe-hits").unwrap_or(0) as f64,
        );
        let hits = (first + second).max(1.0);
        first_probe.push(first / hits * 100.0);
        table.push_row(vec![
            Value::s(b.name()),
            Value::f(stats[0].demand.read_miss_ratio() * 100.0, 2),
            Value::f(stats[1].demand.read_miss_ratio() * 100.0, 2),
            Value::f(s.demand.miss_ratio() * 100.0, 2),
            Value::f(first / hits * 100.0, 1),
            Value::f((first + 2.0 * second) / hits, 3),
        ]);
    }

    Ok(Report::new(format!(
        "E7 / section 3.1 option 4: column-associative with polynomial rehash ({ops} ops)"
    ))
    .param("ops", ops)
    .table(table)
    .note(format!(
        "average first-probe hit fraction: {:.1}%  (paper: around 90%)",
        arithmetic_mean(&first_probe)
    )))
}

pub(super) fn related_work(a: &ExpArgs) -> Result<Report, DriverError> {
    let max_stride = a.u64("max-stride")?;
    let ops = a.usize("ops")?;
    let geom = paper_l1();
    let suite = IndexSpec::related_work_suite();

    let mut table = Table::new(
        "placement functions head to head",
        &[
            "scheme",
            "pathological",
            "path%",
            "stride avg%",
            "spec all%",
            "spec bad-3%",
            "spec good%",
        ],
    );
    // Part 1: Figure-1 stride sweep — one trace per stride, every
    // scheme of the suite in one pass (parallel across stride blocks,
    // caches built once per block and reset between strides).
    let per_stride: Vec<Vec<f64>> = par_map_blocked(1..max_stride, |block| {
        let mut models = scheme_caches(geom, &suite);
        let engine = Sweep::new().workers(1);
        let mut refs: Vec<MemRef> = Vec::new();
        block
            .map(|stride| {
                refs.clear();
                refs.extend(VectorStride::paper_figure1(stride, 16));
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
    });
    let strides = per_stride.len() as u64;

    // Part 2: synthetic SPEC95 miss ratios — one generation per
    // benchmark, every scheme in one pass (parallel across benchmarks).
    let benches = SpecBenchmark::all();
    let per_bench: Vec<Vec<f64>> = par_map(&benches, |&b| {
        let refs: Vec<MemRef> = mem_refs(b.generator(5).take(ops)).collect();
        let mut models = scheme_caches(geom, &suite);
        load_miss_pcts(&mut models, &refs)
    });

    for (si, spec) in suite.iter().enumerate() {
        let pathological = per_stride.iter().filter(|r| r[si] > 0.5).count() as u64;
        let ratio_sum: f64 = per_stride.iter().map(|r| r[si]).sum();
        let mut all = Vec::new();
        let mut bad = Vec::new();
        let mut good = Vec::new();
        for (b, ms) in benches.iter().zip(&per_bench) {
            let m = ms[si];
            all.push(m);
            if b.is_high_conflict() {
                bad.push(m);
            } else {
                good.push(m);
            }
        }

        let label = spec.build(geom).expect("buildable").label();
        table.push_row(vec![
            Value::s(label),
            Value::u(pathological),
            Value::f(pathological as f64 / strides as f64 * 100.0, 1),
            Value::f(ratio_sum / strides as f64 * 100.0, 2),
            Value::f(arithmetic_mean(&all), 2),
            Value::f(arithmetic_mean(&bad), 2),
            Value::f(arithmetic_mean(&good), 2),
        ]);
    }

    Ok(Report::new(format!(
        "E11 / section 2.1 related work: placement functions on {geom} \
         (strides 1..{max_stride}, {ops} ops/benchmark)"
    ))
    .param("max-stride", max_stride)
    .param("ops", ops)
    .table(table)
    .note(
        "Reading guide: prime-modulus fixes power-of-two strides but wastes sets and \
         needs a divider; additive skew and two-field XOR share the 2^(2m) blind spot; \
         random-table and XOR-matrix hashing have no stride guarantee; skewed I-Poly \
         is the only scheme that is simultaneously cheap (XOR tree), balanced, and \
         stride-insensitive — the paper's argument in one table.",
    ))
}

pub(super) fn tiling(a: &ExpArgs) -> Result<Report, DriverError> {
    let n = a.u64("n")?;
    if n == 0 {
        return Err(DriverError::Usage("--n must be positive".into()));
    }
    let geom = paper_l1();
    let pow2_pitch = n * TiledMatMul::ELEM;
    let padded_pitch = (n + 8) * TiledMatMul::ELEM;

    let miss_pct = |spec: &IndexSpec, tile: u64, pitch: u64| -> f64 {
        let mut cache = Cache::build(geom, spec.clone()).expect("cache");
        for r in TiledMatMul::new(n, tile, pitch).block_row() {
            cache.access(r.addr, r.is_write);
        }
        cache.stats().read_miss_ratio() * 100.0
    };

    let conv = IndexSpec::modulo();
    let ipoly = IndexSpec::ipoly_skewed();
    let mut table = Table::new(
        "tiled matmul block-row load miss %",
        &[
            "tile",
            "conv pow2-LDA",
            "conv padded-LDA",
            "ipoly pow2-LDA",
            "ipoly padded",
            "footprint KB",
        ],
    );
    for tile in [4u64, 8, 12, 16, 20, 24, 32] {
        if tile > n {
            continue;
        }
        let mm = TiledMatMul::new(n, tile, pow2_pitch);
        table.push_row(vec![
            Value::u(tile),
            Value::f(miss_pct(&conv, tile, pow2_pitch), 2),
            Value::f(miss_pct(&conv, tile, padded_pitch), 2),
            Value::f(miss_pct(&ipoly, tile, pow2_pitch), 2),
            Value::f(miss_pct(&ipoly, tile, padded_pitch), 2),
            Value::u(mm.tile_footprint() / 1024),
        ]);
    }

    Ok(Report::new(format!(
        "E16 / section 5: tiled {n}x{n} matmul block-row, {geom}, load miss %"
    ))
    .param("n", n)
    .table(table)
    .note(
        "Shape check: column 1 (power-of-two leading dimension, conventional index) \
         should dominate everything else; column 2 shows the manual padding fix; \
         columns 3-4 show I-Poly insensitive to the pitch — the tile size can be \
         picked purely to fit capacity, which is the paper's closing claim.",
    ))
}

pub(super) fn lru_curve(a: &ExpArgs) -> Result<Report, DriverError> {
    let b = parse_benchmark(a.str("bench"))?;
    let ops = a.usize("ops")?;
    let line = a.u64("line")?;
    let sizes = parse_csv(a.str("sizes"), "size", |s| parse_size(s).ok())?;
    let ways = parse_csv(a.str("ways"), "ways", |s| s.parse::<u32>().ok())?;
    let sample = a.u32("sample")?;

    // The size x associativity grid, as (size, sets, ways) cells; cells
    // whose geometry degenerates (ways * line > size) are skipped.
    let mut grid: Vec<(u64, u32, u32)> = Vec::new();
    for &size in &sizes {
        for &w in &ways {
            if w == 0 || size % (line * u64::from(w)) != 0 {
                continue;
            }
            let sets = (size / (line * u64::from(w))) as u32;
            if sets > 0 {
                grid.push((size, sets, w));
            }
        }
    }
    if grid.is_empty() {
        return Err(DriverError::Usage(
            "the size/ways grid is empty; every cell needs ways * line <= size".into(),
        ));
    }
    let set_counts: Vec<u32> = grid.iter().map(|&(_, sets, _)| sets).collect();
    let mut sweep = LruStackSweep::new(line, &set_counts)?;
    if sample > 1 {
        sweep = sweep.with_set_sampling(sample)?;
    }

    // One traversal of the load stream (no materialisation at all):
    // the whole grid's miss counts come out of this single pass. Loads
    // only, as in the paper's miss-ratio tables — and a read-only
    // stream keeps the stack-distance counts exact for the paper's
    // write-through L1 as well.
    for r in mem_refs(b.generator(5).take(ops)) {
        if !r.is_write {
            sweep.observe(r.addr);
        }
    }

    let mut columns = vec!["size".to_owned()];
    columns.extend(ways.iter().map(|w| format!("{w}-way miss%")));
    let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut table = Table::new("LRU load miss-ratio curves (modulus indexing)", &col_refs);
    for &size in &sizes {
        let mut row = vec![Value::s(format_size(size))];
        for &w in &ways {
            let cell = grid
                .iter()
                .find(|&&(s, _, gw)| s == size && gw == w)
                .and_then(|&(_, sets, _)| sweep.miss_ratio(sets, w));
            row.push(match cell {
                Some(ratio) => Value::f(ratio * 100.0, 2),
                None => Value::s("-"),
            });
        }
        table.push_row(row);
    }

    let mut report = Report::new(format!(
        "Mattson one-pass LRU miss-ratio curves: {} loads of {} ({} ops), {line}B lines",
        sweep.refs_seen(),
        b.name(),
        ops
    ))
    .param("bench", b.name())
    .param("ops", ops)
    .param("line", line)
    .param("sizes", a.str("sizes"))
    .param("ways", a.str("ways"))
    .param("sample", sample)
    .table(table)
    .note(format!(
        "one stack-distance traversal replaced {} independent LRU replays",
        grid.len()
    ));
    if let Some(note) = sweep.sampling_note() {
        // The numeric form rides in a table so JSON/CSV consumers (the
        // analytic validator among them) get the standard error without
        // scraping the note text.
        if let Some(table) = super::analytic::sampling_table(&sweep) {
            report = report.table(table);
        }
        report = report.note(note);
    }
    Ok(report)
}

fn region(addr: u64) -> &'static str {
    match addr {
        0x0010_0000..=0x00FF_FFFF => "hot",
        0x0100_0000..=0x01FF_FFFF => "conflict-short",
        0x0200_0000..=0x0FFF_FFFF => "conflict-long",
        0x1000_0000..=0x1FFF_FFFF => "stream",
        0x2000_0000..=0x3FFF_FFFF => "store",
        _ => "random",
    }
}

pub(super) fn regions(a: &ExpArgs) -> Result<Report, DriverError> {
    let b = parse_benchmark(a.str("bench"))?;
    let ops = a.usize("ops")?;
    let geom = paper_l1();
    let mut report = Report::new(format!(
        "per-region miss breakdown for {} ({ops} ops)",
        b.name()
    ))
    .param("bench", b.name())
    .param("ops", ops);
    for spec in [IndexSpec::modulo(), IndexSpec::ipoly_skewed()] {
        let mut c = Cache::build(geom, spec.clone()).expect("cache");
        let mut acc: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for r in mem_refs(b.generator(12345).take(ops)) {
            let hit = c.access(r.addr, r.is_write).hit;
            let e = acc.entry(region(r.addr)).or_default();
            e.0 += 1;
            if !hit {
                e.1 += 1;
            }
        }
        let mut table = Table::new(
            format!("{} / {spec}", b.name()),
            &["region", "accesses", "misses", "miss%"],
        );
        for (reg, (n, m)) in &acc {
            table.push_row(vec![
                Value::s(*reg),
                Value::u(*n),
                Value::u(*m),
                Value::f(*m as f64 / *n as f64 * 100.0, 2),
            ]);
        }
        report = report.table(table);
    }
    Ok(report)
}
