//! Equivalence guards for the multi-configuration sweep engine.
//!
//! 1. The chunk-broadcast engine (`cac_sim::sweep::Sweep`) must produce
//!    counters **byte-identical** to sequential per-configuration
//!    `run_refs` for every shipped `examples/*.toml` model — the sweep
//!    is an execution strategy, never a semantic change.
//! 2. The one-pass Mattson stack-distance engine (`LruStackSweep`) must
//!    agree **exactly** with naive per-configuration LRU `Cache` replay
//!    across a size × associativity grid.

use cac_core::{CacheGeometry, IndexSpec};
use cac_sim::cache::{Cache, WritePolicy};
use cac_sim::model::{MemoryModel, ModelStats};
use cac_sim::sweep::{LruStackSweep, Sweep};
use cac_sim::SimConfig;
use cac_trace::io::IterRefSource;
use cac_trace::kernels::mem_refs;
use cac_trace::spec::SpecBenchmark;
use cac_trace::MemRef;
use std::path::PathBuf;

fn examples_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples")
}

/// Every shipped example config, loaded from disk.
fn example_configs() -> Vec<(String, SimConfig)> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(examples_dir())
        .expect("examples directory exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 14,
        "expected the 14 shipped configs, found {}",
        paths.len()
    );
    paths
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let cfg = SimConfig::load(p.to_str().unwrap()).expect("shipped config parses");
            (name, cfg)
        })
        .collect()
}

fn workload(ops: usize) -> Vec<MemRef> {
    mem_refs(SpecBenchmark::Tomcatv.generator(2024).take(ops)).collect()
}

#[test]
fn engine_counters_byte_identical_to_sequential_replay_on_all_examples() {
    let refs = workload(60_000);
    let configs = example_configs();

    // Reference: each model replayed alone through the one-model API.
    let expect: Vec<ModelStats> = configs
        .iter()
        .map(|(_, cfg)| {
            let mut model = cfg.build().expect("shipped config builds");
            model.run_refs(&refs)
        })
        .collect();

    // Stats come back in input order whichever worker ran each model:
    // the example list forwards and reversed, at worker counts that
    // divide the list, do not, and exceed it.
    for reversed in [false, true] {
        let mut order: Vec<usize> = (0..configs.len()).collect();
        if reversed {
            order.reverse();
        }
        for workers in [1usize, 2, 3, 5, 20] {
            let mut models: Vec<Box<dyn MemoryModel>> = order
                .iter()
                .map(|&i| configs[i].1.build().expect("shipped config builds"))
                .collect();
            let got = Sweep::new()
                .workers(workers)
                .chunk_ops(4096)
                .run_refs(&mut models, &refs);
            assert_eq!(got.len(), order.len());
            for (&i, g) in order.iter().zip(&got) {
                assert_eq!(
                    g, &expect[i],
                    "{} (workers {workers}, reversed {reversed})",
                    configs[i].0
                );
            }
        }
    }

    // The streaming path (decode-once broadcast) agrees too.
    let mut models: Vec<Box<dyn MemoryModel>> = configs
        .iter()
        .map(|(_, cfg)| cfg.build().expect("shipped config builds"))
        .collect();
    let got = Sweep::new()
        .workers(3)
        .chunk_ops(2048)
        .run_source_isolated(&mut models, IterRefSource::new(refs.iter().copied()))
        .unwrap();
    let got: Vec<&ModelStats> = got.iter().map(|o| o.stats().expect("completed")).collect();
    assert_eq!(got, expect.iter().collect::<Vec<_>>());
}

#[test]
fn reset_restores_as_built_behaviour_for_every_example() {
    // The sweep drivers reuse models across sweep items (build once per
    // block, reset between items); that is only sound if reset() really
    // returns every organization to its as-built state — including the
    // random-replacement stream.
    let refs = workload(30_000);
    for (name, cfg) in example_configs() {
        let mut fresh = cfg.build().expect("builds");
        let expect = fresh.run_refs(&refs);
        let mut reused = cfg.build().expect("builds");
        reused.run_refs(&refs);
        reused.reset();
        assert_eq!(reused.run_refs(&refs), expect, "{name}");
    }
    // Random replacement exercises the RNG-stream part of the contract
    // (no shipped example uses it).
    let geom = CacheGeometry::new(8 * 1024, 32, 2).unwrap();
    let mut fresh = Cache::builder(geom)
        .replacement(cac_sim::replacement::ReplacementPolicy::Random)
        .build()
        .unwrap();
    let expect = MemoryModel::run_refs(&mut fresh, &refs);
    let mut reused = Cache::builder(geom)
        .replacement(cac_sim::replacement::ReplacementPolicy::Random)
        .build()
        .unwrap();
    MemoryModel::run_refs(&mut reused, &refs);
    MemoryModel::reset(&mut reused);
    assert_eq!(MemoryModel::run_refs(&mut reused, &refs), expect, "random");
}

#[test]
fn stack_distance_equals_naive_lru_replay_across_the_grid() {
    // Mixed read/write stream: exact under write-allocate LRU (every
    // access allocates and touches — the Mattson precondition).
    let refs = workload(50_000);
    let line = 32u64;
    let sizes: &[u64] = &[1024, 2 * 1024, 4 * 1024, 8 * 1024, 16 * 1024, 32 * 1024];
    let ways: &[u32] = &[1, 2, 4];

    let mut set_counts: Vec<u32> = Vec::new();
    let mut grid = Vec::new();
    for &size in sizes {
        for &w in ways {
            let sets = (size / (line * u64::from(w))) as u32;
            if sets == 0 {
                continue;
            }
            set_counts.push(sets);
            grid.push((size, sets, w));
        }
    }
    assert!(grid.len() >= 8, "grid must replace at least 8 replays");

    let mut sweep = LruStackSweep::new(line, &set_counts).unwrap();
    sweep.run_refs(&refs);

    for &(size, sets, w) in &grid {
        let geom = CacheGeometry::new(size, line, w).unwrap();
        let mut cache = Cache::builder(geom)
            .index_spec(IndexSpec::modulo())
            .write_policy(WritePolicy::WriteBackAllocate)
            .build()
            .unwrap();
        for r in &refs {
            cache.access(r.addr, r.is_write);
        }
        let naive = cache.stats();
        assert_eq!(
            sweep.misses(sets, w),
            Some(naive.misses),
            "{size}B {w}-way ({sets} sets): misses"
        );
        assert_eq!(
            sweep.hits(sets, w),
            Some(naive.hits),
            "{size}B {w}-way ({sets} sets): hits"
        );
    }
}

#[test]
fn stack_distance_equals_naive_replay_on_read_only_streams() {
    // Read-only streams (the Figure 1 shape) are exact under the
    // paper's write-through/no-allocate L1 too.
    let refs: Vec<MemRef> = cac_trace::stride::VectorStride::paper_figure1(96, 16).collect();
    let line = 32u64;
    let mut sweep = LruStackSweep::new(line, &[128, 64, 1]).unwrap();
    sweep.run_refs(&refs);
    for (geom, sets, ways) in [
        (CacheGeometry::new(8 * 1024, 32, 2).unwrap(), 128u32, 2u32),
        (CacheGeometry::new(8 * 1024, 32, 4).unwrap(), 64, 4),
        (
            CacheGeometry::fully_associative(8 * 1024, 32).unwrap(),
            1,
            256,
        ),
    ] {
        let mut cache = Cache::build(geom, IndexSpec::modulo()).unwrap();
        for r in &refs {
            cache.read(r.addr);
        }
        assert_eq!(
            sweep.misses(sets, ways),
            Some(cache.stats().misses),
            "{geom}"
        );
    }
}
