//! Direct checks of the paper's quantitative side claims, spanning the
//! gf2 / core / sim crates.

use cac::core::holes::HoleModel;
use cac::core::{AddressPredictor, CacheGeometry, IndexSpec};
use cac::gf2::xor_tree::{min_fan_in_poly, XorTree};
use cac::sim::cache::Cache;
use cac::sim::column::ColumnAssociative;
use cac::sim::stack::{Hierarchy, LevelBuilder};
use cac::sim::vm::PageMapper;
use cac::trace::kernels::mem_refs;
use cac::trace::spec::SpecBenchmark;
use cac::trace::stride::VectorStride;

#[test]
fn hole_model_worked_example() {
    // §3.3: "an 8KB L1 cache and a 256KB L2 cache with 32 byte lines
    // yield P_H = 0.031".
    let l1 = CacheGeometry::new(8 * 1024, 32, 1).unwrap();
    let l2 = CacheGeometry::new(256 * 1024, 32, 1).unwrap();
    let m = HoleModel::from_geometries(l1, l2).unwrap();
    assert!((m.p_hole_per_l2_miss() - 0.031).abs() < 0.001);
}

#[test]
fn xor_fan_in_claim() {
    // §3.4: "the number of inputs is never higher than 5" with 19 address
    // bits for the paper's polynomials.
    for m in [7, 8] {
        let tree = XorTree::new(min_fan_in_poly(m, 14), 14);
        assert!(tree.max_fan_in() <= 5, "degree {m}: {}", tree.max_fan_in());
    }
}

#[test]
fn stride_insensitivity_theorem() {
    // §2.1.2: all strides 2^k produce conflict-free sequences.
    let geom = CacheGeometry::new(8 * 1024, 32, 2).unwrap();
    for k in 0..=9u32 {
        let mut cache = Cache::build(geom, IndexSpec::ipoly_skewed()).unwrap();
        for r in VectorStride::paper_figure1(1 << k, 8) {
            cache.read(r.addr);
        }
        // 8 passes over 64 elements: only the first pass may miss.
        let stats = cache.stats();
        assert!(
            stats.misses <= 64,
            "stride 2^{k}: {} misses (conflicts!)",
            stats.misses
        );
    }
}

#[test]
fn conventional_cache_has_pathological_power_strides() {
    // The contrast that motivates the paper.
    let geom = CacheGeometry::new(8 * 1024, 32, 2).unwrap();
    let mut cache = Cache::build(geom, IndexSpec::modulo()).unwrap();
    for r in VectorStride::paper_figure1(512, 8) {
        cache.read(r.addr);
    }
    assert!(cache.stats().miss_ratio() > 0.9);
}

#[test]
fn column_associative_first_probe_rate() {
    // §3.1: "a typical probability of around 90% that a hit is detected
    // at the first probe".
    let geom = CacheGeometry::new(8 * 1024, 32, 1).unwrap();
    let mut rates = Vec::new();
    for b in SpecBenchmark::all() {
        let mut col = ColumnAssociative::new(geom).unwrap();
        for r in mem_refs(b.generator(3).take(60_000)).filter(|r| !r.is_write) {
            col.read(r.addr);
        }
        rates.push(col.stats().first_probe_hit_fraction());
    }
    let avg = rates.iter().sum::<f64>() / rates.len() as f64;
    assert!(avg > 0.80, "first-probe rate {avg:.3}");
    assert!(avg <= 1.0);
}

#[test]
fn predictability_of_spec_loads() {
    // §3.4 (citing [9]): around 75% of dynamic loads are predictable; our
    // synthetic workloads are at least that regular.
    let mut total = 0.0;
    for b in SpecBenchmark::all() {
        let mut p = AddressPredictor::paper_default();
        for op in b.generator(11).take(60_000) {
            if op.is_load() {
                p.observe(op.pc, op.addr.unwrap());
            }
        }
        total += p.stats().usable_rate();
    }
    assert!(total / 18.0 > 0.70, "usable rate {:.3}", total / 18.0);
}

#[test]
fn holes_are_rare_with_a_big_l2() {
    // §3.3 simulation: with a 1MB L2, the percentage of L2 misses that
    // create a hole "averaged less than 0.1% and was never greater than
    // 1.2%". Use a subset of benchmarks to keep the test fast.
    let l1 = CacheGeometry::new(8 * 1024, 32, 2).unwrap();
    let l2 = CacheGeometry::new(1024 * 1024, 32, 2).unwrap();
    for b in [
        SpecBenchmark::Tomcatv,
        SpecBenchmark::Gcc,
        SpecBenchmark::Compress,
    ] {
        let mut h = Hierarchy::builder()
            .virtual_l1(PageMapper::randomized(4096, 1 << 30, 42))
            .level(LevelBuilder::new(l1).index_spec(IndexSpec::ipoly_skewed()))
            .level(LevelBuilder::new(l2).write_back())
            .build()
            .unwrap();
        for r in mem_refs(b.generator(7).take(150_000)) {
            h.access(r.addr, r.is_write);
        }
        assert!(h.hole_rate() < 0.02, "{b}: hole rate {:.4}", h.hole_rate());
        assert!(h.check_inclusion(), "{b}: inclusion violated");
    }
}
