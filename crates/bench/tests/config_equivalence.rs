//! Equivalence guards for the declarative config layer.
//!
//! Three claims are load-bearing:
//!
//! 1. every organization in the paper's §2.1/§4 comparison matrix is
//!    expressible as a **shipped** `examples/*.toml` config, and the
//!    file builds the *same model* as the driver's in-code
//!    [`organization_matrix`] entry (identical counters on an identical
//!    reference stream);
//! 2. `cac run --config` on those files reproduces the counters the
//!    hand-wired constructions produce — including the retired
//!    write-skipping measurement loops of the old `organizations`
//!    experiment (for the victim and Jouppi organizations, whose
//!    concrete types are retired too, the recorded goldens stand in);
//! 3. the shipped virtual-real hierarchy config reproduces a hand-built
//!    virtual-real [`Hierarchy`] access for access.

use cac_bench::driver::experiments::organization_matrix;
use cac_bench::driver::{self};
use cac_core::{CacheGeometry, IndexSpec};
use cac_sim::cache::Cache;
use cac_sim::column::{ColumnAssociative, RehashKind};
use cac_sim::stack::{Hierarchy, LevelBuilder};
use cac_sim::vm::PageMapper;
use cac_sim::SimConfig;
use cac_trace::kernels::mem_refs;
use cac_trace::spec::SpecBenchmark;
use cac_trace::MemRef;
use std::path::PathBuf;

fn example(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join(name);
    path.to_str().expect("utf-8 path").to_owned()
}

fn workload(ops: usize) -> Vec<MemRef> {
    mem_refs(SpecBenchmark::Tomcatv.generator(99).take(ops)).collect()
}

/// One SPEC model's block of the sidecar golden `name` (recorded from
/// the concrete organizations `[victim]`/`[jouppi]` once built; see
/// `crates/sim/tests/stack_equivalence.rs`), with the references it was
/// recorded on.
fn golden(name: &str, bench: SpecBenchmark) -> (Vec<MemRef>, String) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../sim/tests/golden")
        .join(format!("{name}.txt"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().expect("header").split(' ').collect();
    let (ops, seed) = match header.as_slice() {
        ["ops", ops, "seed", seed] => (ops.parse().unwrap(), seed.parse().unwrap()),
        _ => panic!("{path:?}: bad header {header:?}"),
    };
    let start = format!("model {}", bench.name());
    let block: String = lines
        .skip_while(|l| *l != start)
        .skip(1)
        .take_while(|l| !l.starts_with("model "))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(!block.is_empty(), "{path:?}: no {start}");
    let refs = mem_refs(bench.generator(seed).take(ops)).collect();
    (refs, block)
}

/// Matrix entry name → shipped config file.
const SHIPPED: &[(&str, &str)] = &[
    ("direct-mapped", "direct_mapped.toml"),
    ("2-way set-assoc", "two_way.toml"),
    ("4-way set-assoc", "four_way.toml"),
    ("victim (DM + 4 lines)", "victim.toml"),
    ("hash-rehash (bit flip)", "hash_rehash.toml"),
    ("column-assoc (I-Poly)", "column_ipoly.toml"),
    ("stream buffers (DM + 4x4)", "stream_buffers.toml"),
    ("Jouppi (DM + victim + stream)", "jouppi.toml"),
    ("2-way skewed XOR", "xor_skewed.toml"),
    ("2-way I-Poly", "ipoly.toml"),
    ("2-way skewed I-Poly", "ipoly_skewed.toml"),
    ("fully associative", "fully_assoc.toml"),
];

#[test]
fn every_matrix_organization_ships_as_an_equivalent_toml_config() {
    let matrix = organization_matrix();
    assert_eq!(matrix.len(), SHIPPED.len(), "matrix/file mapping drifted");
    let refs = workload(40_000);
    for (name, file) in SHIPPED {
        let (_, in_code) = matrix
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("matrix lost organization {name:?}"));
        let shipped = SimConfig::load(&example(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        let mut a = in_code.build().expect("in-code config builds");
        let mut b = shipped.build().unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(a.describe(), b.describe(), "{name} vs {file}");
        let da = a.run_refs(&refs);
        let db = b.run_refs(&refs);
        assert_eq!(da, db, "{name} vs {file}");
    }
}

/// The old `organizations` experiment hand-wired each model and skipped
/// stores before probing the read-only organizations. The config-built
/// models must reproduce those loops' counters exactly.
#[test]
fn configs_reproduce_the_hand_wired_measurement_loops() {
    let dm = CacheGeometry::new(8 * 1024, 32, 1).unwrap();
    let w2 = CacheGeometry::new(8 * 1024, 32, 2).unwrap();
    let refs = workload(40_000);

    // Plain cache: full stream, write-through/no-allocate.
    let mut cache = Cache::build(w2, IndexSpec::ipoly_skewed()).unwrap();
    for r in &refs {
        cache.access(r.addr, r.is_write);
    }
    let mut model = SimConfig::load(&example("ipoly_skewed.toml"))
        .unwrap()
        .build()
        .unwrap();
    model.run_refs(&refs);
    assert_eq!(model.stats().demand, cache.stats());

    // Victim cache: the retired loop skipped writes entirely, as the
    // organization does; its counters are pinned by the golden
    // recorded from the retired concrete type.
    let (golden_refs, block) = golden("victim", SpecBenchmark::Tomcatv);
    let mut model = SimConfig::load(&example("victim.toml"))
        .unwrap()
        .build()
        .unwrap();
    model.run_refs(&golden_refs);
    let d = model.stats().demand;
    assert!(block.contains(&format!("demand {d:?}\n")), "victim");

    // Column-associative, polynomial rehash.
    let mut col = ColumnAssociative::with_rehash(dm, RehashKind::Polynomial).unwrap();
    let (mut reads, mut misses) = (0u64, 0u64);
    for r in refs.iter().filter(|r| !r.is_write) {
        reads += 1;
        if !col.read(r.addr).is_hit() {
            misses += 1;
        }
    }
    let mut model = SimConfig::load(&example("column_ipoly.toml"))
        .unwrap()
        .build()
        .unwrap();
    model.run_refs(&refs);
    let d = model.stats().demand;
    assert_eq!((d.reads, d.read_misses), (reads, misses), "column");

    // The full Jouppi organization, against its golden.
    let (golden_refs, block) = golden("jouppi", SpecBenchmark::Tomcatv);
    let mut model = SimConfig::load(&example("jouppi.toml"))
        .unwrap()
        .build()
        .unwrap();
    model.run_refs(&golden_refs);
    let s = model.stats();
    assert!(
        block.contains(&format!("demand {:?}\n", s.demand)),
        "jouppi"
    );
    for name in ["victim-hits", "stream-hits"] {
        let line = format!("extra {name} {}\n", s.extra(name).unwrap());
        assert!(block.contains(&line), "jouppi {name}");
    }
}

#[test]
fn shipped_virtual_real_config_matches_a_hand_built_hierarchy() {
    // ipoly_two_level.toml, hand-built: 8KB 2-way skewed-I-Poly L1 over
    // a 256KB 2-way conventional L2, randomized 4KB paging over 256MB,
    // seed 42.
    let mut reference = Hierarchy::builder()
        .virtual_l1(PageMapper::randomized(4096, 256 << 20, 42))
        .level(
            LevelBuilder::new(CacheGeometry::new(8 * 1024, 32, 2).unwrap())
                .index_spec(IndexSpec::ipoly_skewed()),
        )
        .level(LevelBuilder::new(CacheGeometry::new(256 * 1024, 32, 2).unwrap()).write_back())
        .build()
        .unwrap();
    let refs = workload(60_000);
    for r in &refs {
        reference.access(r.addr, r.is_write);
    }
    let mut model = SimConfig::load(&example("ipoly_two_level.toml"))
        .unwrap()
        .build()
        .unwrap();
    model.run_refs(&refs);
    let s = model.stats();
    assert_eq!(s.component("l1"), Some(&reference.level(0).stats()));
    assert_eq!(s.component("l2"), Some(&reference.level(1).stats()));
    assert_eq!(s.extra("holes-created"), Some(reference.holes_created()));
    assert_eq!(
        s.extra("alias-invalidations"),
        Some(reference.alias_invalidations())
    );
}

#[test]
fn cac_run_reports_the_same_counters_as_a_direct_replay() {
    let words: Vec<String> = vec![
        "--config".into(),
        example("ipoly_skewed.toml"),
        "--bench".into(),
        "swim".into(),
        "--ops".into(),
        "30000".into(),
        "--seed".into(),
        "7".into(),
    ];
    let report = driver::run_experiment("run", &words).expect("cac run succeeds");

    let mut reference = Cache::build(
        CacheGeometry::new(8 * 1024, 32, 2).unwrap(),
        IndexSpec::ipoly_skewed(),
    )
    .unwrap();
    let expect = reference.run_trace(SpecBenchmark::Swim.generator(7).take(30_000));

    let demand = &report.tables[0];
    let field = |name: &str| -> u64 {
        demand
            .rows
            .iter()
            .find(|row| row[0].render() == name)
            .and_then(|row| row[1].as_f64())
            .unwrap_or_else(|| panic!("row {name} missing")) as u64
    };
    assert_eq!(field("accesses"), expect.accesses);
    assert_eq!(field("reads"), expect.reads);
    assert_eq!(field("writes"), expect.writes);
    assert_eq!(field("misses"), expect.misses);
}

#[test]
fn config_validate_accepts_all_shipped_configs_and_rejects_rot() {
    let files: Vec<String> = SHIPPED
        .iter()
        .map(|(_, f)| example(f))
        .chain([
            example("ipoly_two_level.toml"),
            example("three_level_sidecars.toml"),
        ])
        .collect();
    let report = driver::run_experiment("config-validate", &files).expect("all shipped ok");
    assert_eq!(report.tables[0].rows.len(), files.len());

    // A rotten config fails the whole validation (the CI contract).
    let dir = std::env::temp_dir().join(format!("cac-config-eq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.toml");
    std::fs::write(&bad, "[cache]\nsize = \"8KiB\"\nindex = \"md5\"\n").unwrap();
    let words = vec![files[0].clone(), bad.display().to_string()];
    let got = driver::run_experiment("config-validate", &words);
    assert!(
        matches!(got, Err(driver::DriverError::Failed(ref m)) if m.contains("md5")),
        "{got:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
