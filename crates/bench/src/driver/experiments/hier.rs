//! Two-level virtual-real hierarchy studies: `cac holes`,
//! `cac option2`, `cac coherency`, `cac ablation-l2-index`.
//!
//! These exercise the §3.1–§3.3 machinery: the analytical hole model
//! `P_H = (2^{m1} − 1)/2^{m2}` against simulation, the page-size-aware
//! dynamic index switching of option 2, external coherency
//! invalidations on a snooping bus, and an ablation over the L2 index
//! function.

use crate::driver::args::ExpArgs;
use crate::driver::report::{Report, Table, Value};
use crate::driver::DriverError;
use crate::parallel::par_map;
use cac_core::holes::HoleModel;
use cac_core::{CacheGeometry, IndexSpec};
use cac_sim::cache::Cache;
use cac_sim::coherence::SnoopingBus;
use cac_sim::pagesize::{DynamicIndexCache, IndexMode, Segment};
use cac_sim::stack::{Hierarchy, LevelBuilder};
use cac_sim::stats::CacheStats;
use cac_sim::vm::PageMapper;
use cac_trace::kernels::mem_refs;
use cac_trace::spec::SpecBenchmark;

/// The §3 virtual-real hierarchy: `l1` virtually indexed under `mapper`,
/// over a write-back `l2`.
fn virtual_real(
    l1: CacheGeometry,
    l1_spec: IndexSpec,
    l2: CacheGeometry,
    l2_spec: IndexSpec,
    mapper: PageMapper,
) -> Hierarchy {
    Hierarchy::builder()
        .virtual_l1(mapper)
        .level(LevelBuilder::new(l1).index_spec(l1_spec))
        .level(LevelBuilder::new(l2).index_spec(l2_spec).write_back())
        .build()
        .expect("hierarchy")
}

pub(super) fn holes(a: &ExpArgs) -> Result<Report, DriverError> {
    let ops = a.usize("ops")?;

    // Configurations: the worked example of the model (direct-mapped
    // 8KB/256KB, P_H = 0.031), and the paper's simulated setup (8KB 2-way
    // skewed I-Poly L1 over a 1MB 2-way conventionally-indexed L2).
    let configs: [(&str, CacheGeometry, IndexSpec, CacheGeometry, IndexSpec); 2] = [
        (
            "worked example: L1 8KB DM I-Poly / L2 256KB DM I-Poly",
            CacheGeometry::new(8 * 1024, 32, 1).expect("geometry"),
            IndexSpec::ipoly_skewed(),
            CacheGeometry::new(256 * 1024, 32, 1).expect("geometry"),
            IndexSpec::ipoly(),
        ),
        (
            "paper simulation: L1 8KB 2-way skewed I-Poly / L2 1MB 2-way conventional",
            CacheGeometry::new(8 * 1024, 32, 2).expect("geometry"),
            IndexSpec::ipoly_skewed(),
            CacheGeometry::new(1024 * 1024, 32, 2).expect("geometry"),
            IndexSpec::modulo(),
        ),
    ];
    let mut report = Report::new(format!(
        "E6 / section 3.3: hole probability, analytical vs simulated ({ops} ops/benchmark)"
    ))
    .param("ops", ops);
    for (label, l1, l1_spec, l2, l2_spec) in configs {
        let model = HoleModel::from_geometries(l1, l2).expect("model");
        let mut table = Table::new(
            format!(
                "{label}: analytical P_H = {:.4} (paper's 8KB/256KB example: 0.031)",
                model.p_hole_per_l2_miss()
            ),
            &["bench", "L2 misses", "holes", "rate %", "model %"],
        );
        let mut worst: f64 = 0.0;
        let mut total_rate = 0.0;
        for b in SpecBenchmark::all() {
            let mut h = virtual_real(
                l1,
                l1_spec.clone(),
                l2,
                l2_spec.clone(),
                PageMapper::randomized(4096, 1 << 30, 42),
            );
            for r in mem_refs(b.generator(7).take(ops)) {
                h.access(r.addr, r.is_write);
            }
            let rate = h.hole_rate() * 100.0;
            worst = worst.max(rate);
            total_rate += rate;
            table.push_row(vec![
                Value::s(b.name()),
                Value::u(h.level(1).stats().misses),
                Value::u(h.holes_created()),
                Value::f(rate, 3),
                Value::f(model.p_hole_per_l2_miss() * 100.0, 2),
            ]);
        }
        report = report.table(table).note(format!(
            "{label}: average measured rate {:.3}%, worst {:.3}%  \
             (paper, 1MB L2: avg < 0.1%, max 1.2%)",
            total_rate / 18.0,
            worst
        ));
    }
    Ok(report)
}

const BIG_BASE: u64 = 0;
const SMALL_BASE: u64 = 1 << 31;

/// One pass of the phase-A/C kernel: a 64-column walk with a 4KB leading
/// dimension inside the large-page segment — 64 blocks that all collide
/// on one set pair under conventional indexing but fit trivially (they
/// are only a quarter of capacity) under I-Poly.
fn column_kernel() -> impl Iterator<Item = u64> {
    (0..64u64).map(move |i| BIG_BASE + i * 4096)
}

/// One pass of the phase-B extra traffic: a sequential scan of 32 blocks
/// of the small-page segment (well-behaved under any index function).
fn small_segment_scan() -> impl Iterator<Item = u64> {
    (0..32u64).map(move |i| SMALL_BASE + i * 32)
}

#[derive(Debug, Clone, Copy)]
enum Policy {
    StaticConventional,
    StaticIPoly,
    Dynamic,
}

struct DynReport {
    modes: Vec<IndexMode>,
    flushes: u64,
    flushed_lines: u64,
    by_mode: (u64, u64),
}

struct PolicyRun {
    phases: Vec<CacheStats>,
    dynamic: Option<DynReport>,
}

/// Abstracts "a cache plus optional segment-map events" so one phase
/// script drives all three policies.
enum Sim {
    Plain(Box<Cache>),
    Dynamic(Box<DynamicIndexCache>),
}

impl Sim {
    fn read(&mut self, addr: u64) {
        match self {
            Sim::Plain(c) => {
                c.read(addr);
            }
            Sim::Dynamic(c) => {
                c.read(addr);
            }
        }
    }

    fn stats(&self) -> CacheStats {
        match self {
            Sim::Plain(c) => c.stats(),
            Sim::Dynamic(c) => c.stats(),
        }
    }
}

fn run_policy(policy: Policy, geom: CacheGeometry, passes: u64) -> PolicyRun {
    let mut sim = match policy {
        Policy::StaticConventional => Sim::Plain(Box::new(
            Cache::build(geom, IndexSpec::modulo()).expect("cache"),
        )),
        Policy::StaticIPoly => Sim::Plain(Box::new(
            Cache::build(geom, IndexSpec::ipoly_skewed()).expect("cache"),
        )),
        Policy::Dynamic => Sim::Dynamic(Box::new(
            DynamicIndexCache::new(geom, IndexSpec::ipoly_skewed(), 256 * 1024)
                .expect("controller"),
        )),
    };
    let mut phases = Vec::new();
    let mut modes = Vec::new();
    let mut checkpoint = CacheStats::default();
    let mut phase_end = |sim: &Sim, phases: &mut Vec<CacheStats>| {
        let total = sim.stats();
        phases.push(total - checkpoint);
        checkpoint = total;
    };

    // Phase A: large pages only.
    if let Sim::Dynamic(d) = &mut sim {
        d.map_segment(Segment::new(BIG_BASE, 1 << 28, 256 * 1024).expect("segment"))
            .expect("map");
        modes.push(d.mode());
    }
    for _ in 0..passes {
        for a in column_kernel() {
            sim.read(a);
        }
    }
    phase_end(&sim, &mut phases);

    // Phase B: a small-page segment appears (mmap of a 4KB-page file).
    if let Sim::Dynamic(d) = &mut sim {
        d.map_segment(Segment::new(SMALL_BASE, 1 << 20, 4096).expect("segment"))
            .expect("map");
        modes.push(d.mode());
    }
    for _ in 0..passes {
        for a in column_kernel() {
            sim.read(a);
        }
        for a in small_segment_scan() {
            sim.read(a);
        }
    }
    phase_end(&sim, &mut phases);

    // Phase C: the small segment goes away.
    if let Sim::Dynamic(d) = &mut sim {
        d.unmap_segment(SMALL_BASE);
        modes.push(d.mode());
    }
    for _ in 0..passes {
        for a in column_kernel() {
            sim.read(a);
        }
    }
    phase_end(&sim, &mut phases);

    let dynamic = match sim {
        Sim::Dynamic(d) => Some(DynReport {
            modes,
            flushes: d.flushes(),
            flushed_lines: d.flushed_lines(),
            by_mode: d.accesses_by_mode(),
        }),
        Sim::Plain(_) => None,
    };
    PolicyRun { phases, dynamic }
}

pub(super) fn option2(a: &ExpArgs) -> Result<Report, DriverError> {
    let passes = a.u64("passes")?;
    let geom = CacheGeometry::new(8 * 1024, 32, 2).expect("geometry");

    let policies = [
        Policy::StaticConventional,
        Policy::StaticIPoly,
        Policy::Dynamic,
    ];
    let runs = par_map(&policies, |&p| run_policy(p, geom, passes));

    let mut table = Table::new(
        "miss ratio (%) by phase",
        &["policy", "phase A", "phase B", "phase C"],
    );
    for (name, run) in [
        ("static conventional", &runs[0]),
        ("static I-Poly (option 3)", &runs[1]),
        ("dynamic (option 2)", &runs[2]),
    ] {
        let mut row = vec![Value::s(name)];
        row.extend(
            run.phases
                .iter()
                .map(|s| Value::f(s.miss_ratio() * 100.0, 2)),
        );
        table.push_row(row);
    }

    let dyn_report = runs[2].dynamic.as_ref().expect("dynamic policy report");
    let modes: Vec<&str> = dyn_report
        .modes
        .iter()
        .map(|m| match m {
            IndexMode::Conventional => "conv",
            IndexMode::IPoly => "ipoly",
        })
        .collect();
    let (conv_acc, ipoly_acc) = dyn_report.by_mode;
    Ok(Report::new(format!(
        "E14 / section 3.1 option 2: page-size-aware index switching \
         ({passes} passes/phase, {geom})"
    ))
    .param("passes", passes)
    .table(table)
    .note(format!(
        "dynamic controller: modes per phase = {modes:?}, flushes = {}, lines discarded = {}",
        dyn_report.flushes, dyn_report.flushed_lines
    ))
    .note(format!(
        "accesses by mode: conventional {conv_acc}, ipoly {ipoly_acc}"
    ))
    .note(
        "Shape check: option 2 matches I-Poly whenever it may (A, C) and conventional \
         when it must (B); the only extra cost is the flush at each transition.",
    ))
}

const NODES: usize = 4;
/// Shared region for the coherency study: 64 blocks at 1MB.
const SHARED_BASE: u64 = 1 << 20;

fn build_bus(l1_spec: IndexSpec) -> SnoopingBus {
    let nodes = (0..NODES)
        .map(|_| {
            virtual_real(
                CacheGeometry::new(8 * 1024, 32, 2).expect("geometry"),
                l1_spec.clone(),
                CacheGeometry::new(256 * 1024, 32, 2).expect("geometry"),
                IndexSpec::modulo(),
                PageMapper::identity(),
            )
        })
        .collect();
    SnoopingBus::new(nodes).expect("bus")
}

/// One round of traffic: every node sweeps its private column-strided
/// array (pathological under conventional indexing), then the round's
/// writer updates the shared region that all nodes then read.
fn run_bus(bus: &mut SnoopingBus, rounds: u64) {
    for round in 0..rounds {
        for node in 0..NODES {
            let base = (node as u64) << 32;
            for i in 0..64u64 {
                bus.read(node, base + i * 4096).unwrap();
            }
        }
        let writer = (round % NODES as u64) as usize;
        for blk in 0..16u64 {
            bus.write(writer, SHARED_BASE + blk * 32).unwrap();
        }
        for node in 0..NODES {
            for blk in 0..16u64 {
                bus.read(node, SHARED_BASE + blk * 32).unwrap();
            }
        }
    }
}

pub(super) fn coherency(a: &ExpArgs) -> Result<Report, DriverError> {
    let rounds = a.u64("rounds")?;
    let mut table = Table::new(
        "coherence holes by L1 indexing",
        &[
            "L1 indexing",
            "L1 miss%",
            "repl holes",
            "alias holes",
            "coher holes",
            "snoop hit%",
        ],
    );
    for (name, spec) in [
        ("conventional", IndexSpec::modulo()),
        ("skewed I-Poly", IndexSpec::ipoly_skewed()),
    ] {
        let mut bus = build_bus(spec);
        run_bus(&mut bus, rounds);
        if !bus.check_invariants() {
            return Err(DriverError::Failed("inclusion violated on the bus".into()));
        }

        let mut miss_pct = 0.0;
        let (mut repl, mut alias, mut coher) = (0u64, 0u64, 0u64);
        for i in 0..NODES {
            let node = bus.node(i).unwrap();
            miss_pct += node.level(0).stats().miss_ratio() * 100.0 / NODES as f64;
            repl += node.holes_created();
            alias += node.alias_invalidations();
            coher += node.external_invalidations().0;
        }
        table.push_row(vec![
            Value::s(name),
            Value::f(miss_pct, 2),
            Value::u(repl),
            Value::u(alias),
            Value::u(coher),
            Value::f(bus.stats().snoop_hit_rate() * 100.0, 1),
        ]);
    }

    Ok(Report::new(format!(
        "E15 / section 3.3 cause 3: coherence holes, {NODES} nodes, {rounds} rounds"
    ))
    .param("rounds", rounds)
    .table(table)
    .note(
        "Shape check: the two rows differ wildly in L1 miss ratio (the private \
         column walk is pathological under conventional indexing) but agree on \
         coherence holes — external invalidations depend on sharing, not on the \
         index function, which is why the paper sets them aside (section 3.3).",
    ))
}

pub(super) fn ablation_l2_index(a: &ExpArgs) -> Result<Report, DriverError> {
    let blocks = a.u64("blocks")?;
    let rounds = a.u64("rounds")?;

    let l1 = CacheGeometry::new(8 * 1024, 32, 1).expect("geometry");
    let l2 = CacheGeometry::new(256 * 1024, 32, 1).expect("geometry");
    // The §3.3 worked example: P_H = (2^m1 - 1)/2^m2 = 255/8192.
    let p_h = 255.0 / 8192.0;

    let mut table = Table::new(
        "hole rate vs L2 index function",
        &["L2 index", "L2 misses", "holes created", "hole rate"],
    );
    for (name, l2_spec) in [
        ("conventional", IndexSpec::modulo()),
        ("I-Poly", IndexSpec::ipoly()),
        ("XOR-fold", IndexSpec::xor()),
        ("random-table", IndexSpec::rand_table()),
    ] {
        let mut h = virtual_real(
            l1,
            IndexSpec::ipoly_skewed(),
            l2,
            l2_spec,
            PageMapper::randomized(4096, 1 << 28, 7),
        );
        for round in 0..rounds {
            for i in 0..blocks {
                h.read(i * 32 + (round % 2) * 8);
            }
        }
        if !h.check_inclusion() {
            return Err(DriverError::Failed("inclusion violated".into()));
        }
        table.push_row(vec![
            Value::s(name),
            Value::u(h.level(1).stats().misses),
            Value::u(h.holes_created()),
            Value::f(h.hole_rate(), 4),
        ]);
    }

    Ok(Report::new(format!(
        "A6: hole rate vs L2 index function (8KB DM I-Poly L1 / 256KB DM L2, \
         {blocks}-block stream x {rounds} rounds, randomized 4KB pages)"
    ))
    .param("blocks", blocks)
    .param("rounds", rounds)
    .table(table)
    .note(format!(
        "analytical P_H (upper bound, assumes every L2 victim is L1-resident): {p_h:.4}"
    ))
    .note(
        "Finding: all rates sit within ~2x of the analytical estimate, but they are \
         NOT identical — the model's assumption that the L2 victim is L1-resident \
         with uniform probability 2^(m1-m2) holds well for a conventional L2 on \
         streaming traffic (victims are old) and degrades when a pseudo-random L2 \
         index makes eviction correlate with recency (hot hashed sets evict young \
         blocks, which are exactly the L1-resident ones). The absolute effect stays \
         negligible either way, which is what the paper's conclusion relies on.",
    ))
}
