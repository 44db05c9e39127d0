//! Micro-benchmark: the two construction-side layers of the §2.1
//! organization matrix (`cac organizations`, cacbench `org-matrix`),
//! which run before any reference is replayed.
//!
//! `spec_generation/<model>` expands a SPEC model's first 500 000 ops
//! and collects their memory references, the way every experiment
//! materialises a workload (`mem_refs(gen.take(n)).collect()`);
//! throughput is in generated ops. `model_build/<organization>` builds
//! one organization of `organization_matrix()` from its config:
//! polynomial selection, placement tables and line storage.

use cac_bench::driver::experiments::organization_matrix;
use cac_trace::kernels::mem_refs;
use cac_trace::spec::SpecBenchmark;
use cac_trace::MemRef;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

/// Ops generated per model: the `org-matrix` workload's size.
const OPS: usize = 500_000;

fn bench_spec_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("spec_generation");
    group.throughput(Throughput::Elements(OPS as u64));
    for b in SpecBenchmark::all() {
        group.bench_function(b.name(), |bench| {
            bench.iter(|| {
                let refs: Vec<MemRef> = mem_refs(b.generator(1).take(OPS)).collect();
                black_box(refs)
            })
        });
    }
    group.finish();
}

fn bench_model_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_build");
    for (name, cfg) in organization_matrix() {
        group.bench_function(name, |bench| bench.iter(|| black_box(cfg.build().unwrap())));
    }
    group.finish();
}

criterion_group!(benches, bench_spec_generation, bench_model_build);
criterion_main!(benches);
