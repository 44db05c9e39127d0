//! Equivalence guards for the hot-path overhaul:
//!
//! 1. The batched replay API ([`Cache::run_trace`]/`run_refs`) produces
//!    **byte-identical** `CacheStats` to the per-op access loop.
//! 2. The LUT-compiled access path produces **bit-identical** miss
//!    behaviour to the pre-refactor computed path (dynamic dispatch on
//!    every probe), verified by wrapping each placement in an opaque
//!    shim that defeats LUT compilation — on the Figure-1 stride sweep
//!    and the synthetic SPEC workload models.

use cac_core::{CacheGeometry, IndexFunction, IndexSpec};
use cac_sim::cache::Cache;
use cac_sim::replacement::ReplacementPolicy;
use cac_trace::kernels::mem_refs;
use cac_trace::spec::SpecBenchmark;
use cac_trace::stride::VectorStride;
use std::sync::Arc;

/// Delegating wrapper that hides the inner function's structure
/// (`input_bits` stays at the conservative default), so
/// `IndexTable::compile` keeps the computed path — i.e. the exact
/// pre-refactor behaviour of one `dyn` call per probe.
#[derive(Debug)]
struct OpaqueIndex(Arc<dyn IndexFunction>);

impl IndexFunction for OpaqueIndex {
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
    // input_bits deliberately NOT forwarded: default 64 = uncompilable.
}

fn paper_geom() -> CacheGeometry {
    CacheGeometry::new(8 * 1024, 32, 2).unwrap()
}

fn all_specs() -> Vec<IndexSpec> {
    vec![
        IndexSpec::modulo(),
        IndexSpec::xor_skewed(),
        IndexSpec::ipoly(),
        IndexSpec::ipoly_skewed(),
        IndexSpec::prime_skewed(),
        IndexSpec::add_skew_skewed(),
        IndexSpec::rand_table_skewed(),
        IndexSpec::xor_matrix_skewed(),
    ]
}

/// A LUT-compiled cache and a computed-path ("pre-refactor") cache for
/// the same spec and policies.
fn cache_pair(geom: CacheGeometry, spec: &IndexSpec) -> (Cache, Cache) {
    let fast = Cache::build(geom, spec.clone()).unwrap();
    let slow = Cache::from_parts(
        geom,
        Arc::new(OpaqueIndex(spec.build(geom).unwrap())),
        ReplacementPolicy::Lru,
        fast.write_policy(),
        0x5eed_cace,
    );
    assert!(!slow.index_table().is_compiled(), "shim defeated?");
    (fast, slow)
}

#[test]
fn lut_path_is_bit_identical_on_stride_sweep() {
    for spec in all_specs() {
        for stride in (1..256u64).step_by(7).chain([64, 128, 512, 4096]) {
            let (mut fast, mut slow) = cache_pair(paper_geom(), &spec);
            let a = fast.run_refs(VectorStride::paper_figure1(stride, 4));
            let b = slow.run_refs(VectorStride::paper_figure1(stride, 4));
            assert_eq!(a, b, "{spec} stride {stride}");
        }
    }
}

#[test]
fn lut_path_is_bit_identical_on_spec_models() {
    for spec in all_specs() {
        for bench in [
            SpecBenchmark::Tomcatv,
            SpecBenchmark::Swim,
            SpecBenchmark::Go,
        ] {
            let (mut fast, mut slow) = cache_pair(paper_geom(), &spec);
            let refs: Vec<_> = mem_refs(bench.generator(99).take(40_000)).collect();
            let a = fast.run_refs(refs.iter().copied());
            let b = slow.run_refs(refs.iter().copied());
            assert_eq!(a, b, "{spec} on {}", bench.name());
            let mut ra: Vec<u64> = fast.resident_blocks().collect();
            let mut rb: Vec<u64> = slow.resident_blocks().collect();
            ra.sort_unstable();
            rb.sort_unstable();
            assert_eq!(ra, rb, "{spec} contents diverge on {}", bench.name());
        }
    }
}

#[test]
fn batched_replay_matches_per_op_loop_on_spec_models() {
    for bench in SpecBenchmark::all() {
        let mut batched = Cache::build(paper_geom(), IndexSpec::ipoly_skewed()).unwrap();
        let mut per_op = Cache::build(paper_geom(), IndexSpec::ipoly_skewed()).unwrap();
        let ops: Vec<_> = bench.generator(7).take(20_000).collect();
        let delta = batched.run_trace(ops.iter().copied());
        for op in &ops {
            if let Some(r) = op.mem_ref() {
                per_op.access(r.addr, r.is_write);
            }
        }
        assert_eq!(delta, per_op.stats(), "{}", bench.name());
        assert_eq!(batched.stats(), per_op.stats(), "{}", bench.name());
    }
}

#[test]
fn binary_streaming_replay_is_byte_identical_to_in_memory() {
    use cac_sim::replay::run_cache_source;
    use cac_trace::io::{write_trace_binary, BinaryTraceReader};

    for bench in [SpecBenchmark::Tomcatv, SpecBenchmark::Gcc] {
        let ops: Vec<_> = bench.generator(13).take(50_000).collect();
        let bytes = write_trace_binary(Vec::new(), ops.iter().copied()).unwrap();

        // Single-level cache: identical counters AND identical contents.
        let mut reference = Cache::build(paper_geom(), IndexSpec::ipoly_skewed()).unwrap();
        let expect = reference.run_trace(ops.iter().copied());
        let mut streamed = Cache::build(paper_geom(), IndexSpec::ipoly_skewed()).unwrap();
        let reader = BinaryTraceReader::new(&bytes[..]).unwrap();
        let got = run_cache_source(&mut streamed, reader).unwrap();
        assert_eq!(got, expect, "{}", bench.name());
        let mut ra: Vec<u64> = reference.resident_blocks().collect();
        let mut rb: Vec<u64> = streamed.resident_blocks().collect();
        ra.sort_unstable();
        rb.sort_unstable();
        assert_eq!(ra, rb, "{} contents diverge", bench.name());
    }
}
