//! Equivalence guards for the generic N-level stack.
//!
//! The generic [`Hierarchy`] claims to generalize the concrete
//! organizations it replaces:
//!
//! * with two levels (write-through L1 over a write-back L2, Inclusion
//!   on, no sidecars) it is the [`TwoLevelHierarchy`] under an identity
//!   page mapping — counter for counter;
//! * with one level plus victim and/or stream sidecars it is the
//!   `[victim]`, `[stream]` and `[jouppi]` organization. Those sections
//!   were once three concrete types; the golden files under
//!   `tests/golden/` were recorded from them and pin, per SPEC model,
//!   the report text (`describe()`), the full `ModelStats` and a digest
//!   of every access's outcome. The reference types are gone, so the
//!   goldens cannot be regenerated: a mismatch is a behaviour change.

use cac_core::{CacheGeometry, IndexSpec};
use cac_sim::hierarchy::TwoLevelHierarchy;
use cac_sim::model::{AccessOutcome, MemoryModel, ServicePoint};
use cac_sim::stack::{Hierarchy, LevelBuilder};
use cac_sim::vm::PageMapper;
use cac_sim::SimConfig;
use cac_trace::kernels::mem_refs;
use cac_trace::spec::SpecBenchmark;
use cac_trace::MemRef;
use std::fmt::Write;

/// Deterministic mixed traffic over a working set that overflows both
/// cache levels.
fn traffic(n: usize) -> impl Iterator<Item = (u64, bool)> {
    let mut x = 0x1234_5678_9abc_def0u64;
    (0..n).map(move |_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        ((x >> 8) % (1 << 20), x.is_multiple_of(5))
    })
}

#[test]
fn two_level_stack_matches_the_virtual_real_hierarchy_under_identity() {
    let l1 = CacheGeometry::new(8 * 1024, 32, 2).unwrap();
    let l2 = CacheGeometry::new(64 * 1024, 32, 2).unwrap();
    let mut vr = TwoLevelHierarchy::new(
        l1,
        IndexSpec::ipoly_skewed(),
        l2,
        IndexSpec::modulo(),
        PageMapper::identity(),
    )
    .unwrap();
    let mut stack = Hierarchy::builder()
        .level(LevelBuilder::new(l1).index_spec(IndexSpec::ipoly_skewed()))
        .level(
            LevelBuilder::new(l2)
                .index_spec(IndexSpec::modulo())
                .write_back(),
        )
        .build()
        .unwrap();

    for (addr, is_write) in traffic(200_000) {
        let a = vr.access(addr, is_write);
        let b = stack.access(addr, is_write);
        let stack_l1_hit = b.served_by == ServicePoint::Level(0);
        assert_eq!(a.l1_hit, stack_l1_hit, "addr {addr:#x}");
    }
    assert_eq!(vr.l1_stats(), stack.level(0).stats());
    assert_eq!(vr.l2_stats(), stack.level(1).stats());
    assert_eq!(
        vr.stats().inclusion_invalidations,
        stack.inclusion_invalidations()
    );
    assert_eq!(vr.stats().holes_created, stack.holes_created());
    // Identity mapping ⇒ no aliases, so the generic stack models the
    // complete behaviour.
    assert_eq!(vr.stats().alias_invalidations, 0);
    // The unified demand view agrees too.
    assert_eq!(
        MemoryModel::stats(&vr).demand,
        MemoryModel::stats(&stack).demand
    );
}

/// Instructions generated per SPEC model for the sidecar goldens.
const GOLDEN_OPS: usize = 60_000;
/// Generator seed for the sidecar goldens.
const GOLDEN_SEED: u64 = 7;

/// 64-bit FNV-1a over the per-access outcome stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Feeds `(hit, served_by)` and, when `with_evicted`, the block the
    /// access pushed out of the organization.
    fn outcome(&mut self, o: &AccessOutcome, with_evicted: bool) {
        let point = match o.served_by {
            ServicePoint::Level(i) => [0, i],
            ServicePoint::Victim(i) => [1, i],
            ServicePoint::Stream(i) => [2, i],
            ServicePoint::SecondProbe => [3, 0],
            ServicePoint::Memory => [4, 0],
            ServicePoint::Bypass => [5, 0],
            _ => [6, 0],
        };
        self.feed(&[u8::from(o.hit), point[0], point[1]]);
        if with_evicted {
            match o.evicted {
                Some(b) => {
                    self.feed(&[1]);
                    self.feed(&b.to_le_bytes());
                }
                None => self.feed(&[0]),
            }
        }
    }
}

/// Replays `cfg` over every SPEC model through [`SimConfig::build`] and
/// renders the golden text: `describe()`, the full `ModelStats`
/// (demand, components, extras, in order) and the outcome digest.
/// A second instance replays the same references through chunked
/// `run_refs` and must end with identical counters.
fn render(cfg: &SimConfig, with_evicted: bool) -> String {
    let mut out = format!("ops {GOLDEN_OPS} seed {GOLDEN_SEED}\n");
    for b in SpecBenchmark::all() {
        let refs: Vec<MemRef> = mem_refs(b.generator(GOLDEN_SEED).take(GOLDEN_OPS)).collect();
        let mut model = cfg.build().expect("golden config builds");
        let mut digest = Fnv::new();
        for &r in &refs {
            digest.outcome(&model.access(r), with_evicted);
        }
        let stats = model.stats();
        let mut batched = cfg.build().expect("golden config builds");
        for chunk in refs.chunks(4096) {
            batched.run_refs(chunk);
        }
        assert_eq!(
            batched.stats(),
            stats,
            "{}: run_refs != access loop",
            b.name()
        );

        writeln!(out, "model {}", b.name()).unwrap();
        writeln!(out, "describe {}", model.describe()).unwrap();
        writeln!(out, "demand {:?}", stats.demand).unwrap();
        for c in &stats.components {
            writeln!(out, "component {} {:?}", c.name, c.stats).unwrap();
        }
        for (name, value) in &stats.extras {
            writeln!(out, "extra {name} {value}").unwrap();
        }
        writeln!(out, "digest {:#018x}", digest.0).unwrap();
    }
    out
}

fn golden_path(name: &str) -> String {
    format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"))
}

/// Compares `cfg`'s rendering with the recorded golden, naming the
/// first differing line.
fn assert_golden(name: &str, cfg: &SimConfig, with_evicted: bool) {
    let path = golden_path(name);
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let got = render(cfg, with_evicted);
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        assert_eq!(g, w, "{name}: golden line {} differs", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "{name}: golden length differs"
    );
}

fn example(file: &str) -> SimConfig {
    let path = format!("{}/../../examples/{file}", env!("CARGO_MANIFEST_DIR"));
    SimConfig::load(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn inline(toml: &str) -> SimConfig {
    SimConfig::from_toml_str(toml).expect("golden config parses")
}

#[test]
fn shipped_victim_config_matches_its_golden() {
    assert_golden("victim", &example("victim.toml"), false);
}

#[test]
fn two_way_victim_matches_its_golden() {
    let cfg = inline("[victim]\nsize = \"8KiB\"\nways = 2\nvictim-lines = 4\n");
    assert_golden("victim_2way", &cfg, false);
}

#[test]
fn shipped_stream_config_matches_its_golden() {
    assert_golden("stream_buffers", &example("stream_buffers.toml"), false);
}

#[test]
fn two_way_skewed_ipoly_stream_matches_its_golden() {
    let cfg = inline(
        "[stream]\nsize = \"8KiB\"\nways = 2\nindex = \"ipoly-skew\"\nbuffers = 4\ndepth = 4\n",
    );
    assert_golden("stream_ipoly_skew_2way", &cfg, false);
}

#[test]
fn shipped_jouppi_config_matches_its_golden() {
    assert_golden("jouppi", &example("jouppi.toml"), true);
}

#[test]
fn jouppi_with_8_victim_lines_and_2x8_streams_matches_its_golden() {
    let cfg = inline(
        "[jouppi]\nsize = \"8KiB\"\nvictim-lines = 8\nstream-buffers = 2\nstream-depth = 8\n",
    );
    assert_golden("jouppi_v8_s2x8", &cfg, true);
}
