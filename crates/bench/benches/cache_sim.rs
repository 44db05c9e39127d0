//! Micro-benchmark: cache-simulator throughput (accesses per second) for
//! single-level caches and the two-level virtual-real hierarchy.
//!
//! `cache_access/...` drives the post-overhaul simulator (LUT-compiled
//! placement + struct-of-arrays storage); `cache_access_computed/...`
//! drives the same simulator with LUT compilation defeated, i.e. the
//! seed's per-probe dynamic-dispatch path, so the end-to-end speedup of
//! the overhaul is measured rather than asserted. `cache_replay` runs
//! the batched `run_refs` API over a pre-materialised trace — the form
//! the experiment drivers use. `stack_distance` times the one-pass LRU
//! stack sweep on shallow, deep and stride-collapsed stacks.
//! `sidecar_orgs` replays the victim, stream-buffer, Jouppi and
//! three-level sidecar configs.

use cac_core::{CacheGeometry, IndexFunction, IndexSpec};
use cac_sim::cache::Cache;
use cac_sim::replacement::ReplacementPolicy;
use cac_sim::stack::{Hierarchy, LevelBuilder};
use cac_sim::vm::PageMapper;
use cac_trace::MemRef;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::sync::Arc;

/// Hides a placement's structure so `IndexTable` keeps the computed
/// (pre-overhaul) path.
#[derive(Debug)]
struct Opaque(Arc<dyn IndexFunction>);

impl IndexFunction for Opaque {
    fn set_index(&self, block_addr: u64, way: u32) -> u32 {
        self.0.set_index(block_addr, way)
    }
    fn num_sets(&self) -> u32 {
        self.0.num_sets()
    }
    fn ways(&self) -> u32 {
        self.0.ways()
    }
    fn is_skewed(&self) -> bool {
        self.0.is_skewed()
    }
    fn label(&self) -> String {
        self.0.label()
    }
}

fn addrs() -> Vec<u64> {
    (0..4096u64)
        .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 7) & 0xF_FFFF)
        .collect()
}

fn bench_cache(c: &mut Criterion) {
    let geom = CacheGeometry::new(8 * 1024, 32, 2).unwrap();
    let addrs = addrs();

    let mut group = c.benchmark_group("cache_access");
    group.throughput(Throughput::Elements(addrs.len() as u64));
    for spec in [IndexSpec::modulo(), IndexSpec::ipoly_skewed()] {
        group.bench_function(spec.name(), |b| {
            let mut cache = Cache::build(geom, spec.clone()).unwrap();
            b.iter(|| {
                for &a in &addrs {
                    black_box(cache.read(black_box(a)));
                }
            })
        });
    }
    group.finish();

    // The same accesses with LUT compilation defeated: one dynamic
    // dispatch + hash evaluation per probed way, as the seed simulator
    // (with its nested Vec<Vec<Option<Line>>> replaced) paid.
    let mut group = c.benchmark_group("cache_access_computed");
    group.throughput(Throughput::Elements(addrs.len() as u64));
    for spec in [IndexSpec::modulo(), IndexSpec::ipoly_skewed()] {
        group.bench_function(spec.name(), |b| {
            let mut cache = Cache::from_parts(
                geom,
                Arc::new(Opaque(spec.build(geom).unwrap())),
                ReplacementPolicy::Lru,
                Default::default(),
                0x5eed_cace,
            );
            b.iter(|| {
                for &a in &addrs {
                    black_box(cache.read(black_box(a)));
                }
            })
        });
    }
    group.finish();

    // Batched replay, the form the experiment drivers use.
    let mut group = c.benchmark_group("cache_replay");
    group.throughput(Throughput::Elements(addrs.len() as u64));
    let refs: Vec<MemRef> = addrs
        .iter()
        .map(|&addr| MemRef {
            pc: 0x1000,
            addr,
            is_write: false,
        })
        .collect();
    group.bench_function("ipoly-skew_run_refs", |b| {
        let mut cache = Cache::build(geom, IndexSpec::ipoly_skewed()).unwrap();
        b.iter(|| black_box(cache.run_refs(refs.iter().copied())))
    });
    // The same replay through the `MemoryModel` trait object, as
    // `cac run --config` drives it: the dynamic dispatch is once per
    // slice, so this must stay within 5% of the concrete path above.
    group.bench_function("ipoly-skew_run_refs_dyn", |b| {
        use cac_sim::model::MemoryModel;
        let mut model: Box<dyn MemoryModel> =
            Box::new(Cache::build(geom, IndexSpec::ipoly_skewed()).unwrap());
        b.iter(|| black_box(model.run_refs(&refs)))
    });
    group.finish();

    let mut group = c.benchmark_group("hierarchy_access");
    group.throughput(Throughput::Elements(addrs.len() as u64));
    group.bench_function("l1_ipoly_l2_conv", |b| {
        let l2 = CacheGeometry::new(256 * 1024, 32, 2).unwrap();
        let mut h = Hierarchy::builder()
            .virtual_l1(PageMapper::randomized(4096, 1 << 28, 1))
            .level(LevelBuilder::new(geom).index_spec(IndexSpec::ipoly_skewed()))
            .level(LevelBuilder::new(l2).write_back())
            .build()
            .unwrap();
        b.iter(|| {
            for &a in &addrs {
                black_box(h.read(black_box(a)));
            }
        })
    });
    group.finish();
}

/// The O(1) fully-associative engine: per-op and batched replay on the
/// degenerate one-set geometry (8KB/32B = 256 ways — the paper's
/// reference curve), plus a 64KB/2048-way configuration where the old
/// O(ways) scan was hopeless. The same hashed 1MB address mix as
/// `cache_access`, so numbers are comparable across groups.
fn bench_fully_assoc(c: &mut Criterion) {
    let addrs = addrs();
    let refs: Vec<MemRef> = addrs
        .iter()
        .map(|&addr| MemRef {
            pc: 0x1000,
            addr,
            is_write: false,
        })
        .collect();

    let mut group = c.benchmark_group("fully_assoc");
    group.throughput(Throughput::Elements(addrs.len() as u64));
    let fa8k = CacheGeometry::fully_associative(8 * 1024, 32).unwrap();
    group.bench_function("8k_256w_read", |b| {
        let mut cache = Cache::build(fa8k, IndexSpec::modulo()).unwrap();
        b.iter(|| {
            for &a in &addrs {
                black_box(cache.read(black_box(a)));
            }
        })
    });
    group.bench_function("8k_256w_run_refs", |b| {
        let mut cache = Cache::build(fa8k, IndexSpec::modulo()).unwrap();
        b.iter(|| black_box(cache.run_refs_slice(&refs)))
    });
    let fa64k = CacheGeometry::fully_associative(64 * 1024, 32).unwrap();
    group.bench_function("64k_2048w_run_refs", |b| {
        let mut cache = Cache::build(fa64k, IndexSpec::modulo()).unwrap();
        b.iter(|| black_box(cache.run_refs_slice(&refs)))
    });
    group.finish();
}

/// The per-ways probe kernels behind `run_refs`: one monomorphized
/// kernel per (ways, policy) shape. 8 ways exercises the generic
/// fallback loop for comparison.
fn bench_probe_kernels(c: &mut Criterion) {
    use cac_sim::replacement::ReplacementPolicy;

    let addrs = addrs();
    let refs: Vec<MemRef> = addrs
        .iter()
        .map(|&addr| MemRef {
            pc: 0x1000,
            addr,
            is_write: false,
        })
        .collect();

    let mut group = c.benchmark_group("probe_kernels");
    group.throughput(Throughput::Elements(addrs.len() as u64));
    for (name, ways) in [
        ("1way", 1u32),
        ("2way", 2),
        ("4way", 4),
        ("8way_generic", 8),
    ] {
        let geom = CacheGeometry::new(8 * 1024, 32, ways).unwrap();
        group.bench_function(name, |b| {
            let mut cache = Cache::build(geom, IndexSpec::modulo()).unwrap();
            b.iter(|| black_box(cache.run_refs_slice(&refs)))
        });
    }
    let g2 = CacheGeometry::new(8 * 1024, 32, 2).unwrap();
    group.bench_function("2way_skew", |b| {
        let mut cache = Cache::build(g2, IndexSpec::ipoly_skewed()).unwrap();
        b.iter(|| black_box(cache.run_refs_slice(&refs)))
    });
    group.bench_function("2way_random", |b| {
        let mut cache = Cache::builder(g2)
            .replacement(ReplacementPolicy::Random)
            .build()
            .unwrap();
        b.iter(|| black_box(cache.run_refs_slice(&refs)))
    });
    group.finish();
}

/// Binary-format streaming replay vs in-memory batched replay on a
/// 10M-reference trace: the acceptance bar for the trace codec is that
/// decoding varint/delta records off a byte stream sustains at least
/// 80% of `run_refs` on a pre-materialised `Vec<MemRef>`.
fn bench_trace_streaming(c: &mut Criterion) {
    use cac_sim::replay::{run_cache_chunked, run_cache_source};
    use cac_trace::io::{write_trace_binary, BinaryTraceReader, DEFAULT_CHUNK_OPS};
    use cac_trace::TraceOp;

    const OPS: u64 = 10_000_000;
    let geom = CacheGeometry::new(8 * 1024, 32, 2).unwrap();
    // A load-only trace with the same hashed 1MB address mix as the
    // access benches, so every record is a cache reference.
    let ops_iter = || {
        (0..OPS).map(|i| {
            let addr = (i.wrapping_mul(0x9E37_79B9) >> 7) & 0xF_FFFF;
            TraceOp::load(0x40_0000 + i * 4, addr, 5, Some(3))
        })
    };
    let refs: Vec<MemRef> = ops_iter().map(|op| op.mem_ref().unwrap()).collect();
    let bytes = write_trace_binary(Vec::new(), ops_iter()).unwrap();

    let mut group = c.benchmark_group("trace_streaming");
    group.throughput(Throughput::Elements(OPS));
    group.bench_function("inmem_run_refs", |b| {
        let mut cache = Cache::build(geom, IndexSpec::ipoly_skewed()).unwrap();
        b.iter(|| black_box(cache.run_refs(refs.iter().copied())))
    });
    group.bench_function("binary_stream", |b| {
        let mut cache = Cache::build(geom, IndexSpec::ipoly_skewed()).unwrap();
        b.iter(|| {
            let mut reader = BinaryTraceReader::new(black_box(&bytes[..])).unwrap();
            black_box(run_cache_source(&mut cache, &mut reader).unwrap())
        })
    });
    group.bench_function("binary_stream_ops", |b| {
        let mut cache = Cache::build(geom, IndexSpec::ipoly_skewed()).unwrap();
        b.iter(|| {
            let reader = BinaryTraceReader::new(black_box(&bytes[..])).unwrap();
            black_box(run_cache_chunked(&mut cache, reader, DEFAULT_CHUNK_OPS).unwrap())
        })
    });
    group.bench_function("binary_decode_only", |b| {
        let mut buf = Vec::with_capacity(DEFAULT_CHUNK_OPS);
        b.iter(|| {
            let mut reader = BinaryTraceReader::new(black_box(&bytes[..])).unwrap();
            let mut n = 0u64;
            while reader.read_chunk(&mut buf, DEFAULT_CHUNK_OPS).unwrap() > 0 {
                n += buf.len() as u64;
            }
            black_box(n)
        })
    });
    // The fault-tolerance bar: on clean input, lenient decode must stay
    // within 10% of the strict streaming path above.
    group.bench_function("binary_stream_lenient", |b| {
        let mut cache = Cache::build(geom, IndexSpec::ipoly_skewed()).unwrap();
        b.iter(|| {
            let mut reader = BinaryTraceReader::new_lenient(black_box(&bytes[..])).unwrap();
            black_box(run_cache_source(&mut cache, &mut reader).unwrap())
        })
    });
    group.finish();
}

/// Decode-once multi-model sweep vs independent per-configuration
/// replay over the §2.1 organization matrix: the whole-matrix shape
/// `cac organizations` / `cac missratio` run. The engine pays trace
/// generation once for the matrix; the baseline pays it per
/// configuration (as the drivers did before the sweep engine).
fn bench_multi_model_sweep(c: &mut Criterion) {
    use cac_bench::driver::experiments::organization_matrix;
    use cac_sim::model::MemoryModel;
    use cac_sim::sweep::Sweep;
    use cac_trace::kernels::mem_refs;
    use cac_trace::spec::SpecBenchmark;

    const OPS: usize = 500_000;
    let organizations = organization_matrix();
    let refs: Vec<MemRef> = mem_refs(SpecBenchmark::Swim.generator(7).take(OPS)).collect();
    let model_refs = (refs.len() * organizations.len()) as u64;

    let mut group = c.benchmark_group("multi_model_sweep");
    group.throughput(Throughput::Elements(model_refs));
    group.bench_function("engine_one_pass", |b| {
        b.iter(|| {
            let mut models: Vec<Box<dyn MemoryModel>> = organizations
                .iter()
                .map(|(_, cfg)| cfg.build().unwrap())
                .collect();
            black_box(Sweep::new().workers(1).run_refs(&mut models, &refs))
        })
    });
    group.bench_function("per_config_regenerate", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            for (_, cfg) in &organizations {
                let alone: Vec<MemRef> =
                    mem_refs(SpecBenchmark::Swim.generator(7).take(OPS)).collect();
                let mut model = cfg.build().unwrap();
                out.push(model.run_refs(&alone));
            }
            black_box(out)
        })
    });
    group.finish();
}

/// The one-pass LRU stack-distance engine behind `lru-curve` and the
/// analytic screen, over three stack shapes: many-set modulo families
/// whose per-set stacks stay shallow, the 1-set (fully-associative)
/// family whose stack grows to the footprint, and a 256-set family that
/// a power-of-two stride folds onto a single deep set.
fn bench_stack_distance(c: &mut Criterion) {
    use cac_sim::sweep::LruStackSweep;
    use cac_trace::kernels::mem_refs;
    use cac_trace::spec::SpecBenchmark;

    // gcc: 75k refs over ~2 900 blocks, reused up to ~1 500 deep.
    let gcc: Vec<MemRef> = mem_refs(SpecBenchmark::Gcc.generator(7).take(150_000)).collect();
    // One column of 1 024 blocks 8KB apart, swept forward and back.
    let column: Vec<MemRef> = (0..1024u64)
        .chain((0..1024).rev())
        .cycle()
        .take(64 * 1024)
        .map(|i| MemRef {
            pc: 0x1000,
            addr: i * 8192,
            is_write: false,
        })
        .collect();

    let mut group = c.benchmark_group("stack_distance");
    let cases: [(&str, &[u32], &[MemRef]); 3] = [
        ("shallow_64_128_256_sets", &[64, 128, 256], &gcc),
        ("deep_1_set", &[1], &gcc),
        ("stride_collapsed_256_sets", &[256], &column),
    ];
    for (name, sets, refs) in cases {
        group.throughput(Throughput::Elements(refs.len() as u64));
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut sweep = LruStackSweep::new(32, sets).unwrap();
                sweep.run_refs(refs);
                black_box(sweep.misses(sets[0], 1))
            })
        });
    }
    group.finish();
}

/// The Jouppi organizations (`[victim]`, `[stream]`, `[jouppi]`, each a
/// one-level `stack::Hierarchy` with sidecars) and the three-level
/// sidecar stack, built from the shipped configs and replayed over one
/// tomcatv trace, as `cac run --config` drives them.
fn bench_sidecar_orgs(c: &mut Criterion) {
    use cac_sim::SimConfig;
    use cac_trace::kernels::mem_refs;
    use cac_trace::spec::SpecBenchmark;

    let refs: Vec<MemRef> = mem_refs(SpecBenchmark::Tomcatv.generator(7).take(300_000)).collect();
    let mut group = c.benchmark_group("sidecar_orgs");
    group.throughput(Throughput::Elements(refs.len() as u64));
    for name in ["victim", "stream_buffers", "jouppi", "three_level_sidecars"] {
        let path = format!("{}/../../examples/{name}.toml", env!("CARGO_MANIFEST_DIR"));
        let cfg = SimConfig::load(&path).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| black_box(cfg.build().unwrap().run_refs(&refs)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cache,
    bench_fully_assoc,
    bench_probe_kernels,
    bench_trace_streaming,
    bench_multi_model_sweep,
    bench_stack_distance,
    bench_sidecar_orgs
);
criterion_main!(benches);
