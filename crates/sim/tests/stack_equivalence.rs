//! Equivalence guards for the generic N-level stack.
//!
//! [`cac_sim::stack::Hierarchy`] is the one hierarchy engine; the
//! concrete organizations it replaced are gone. Golden files under
//! `tests/golden/` were recorded from them and pin, per SPEC model, the
//! report text (`describe()`), the full `ModelStats` and a digest of
//! every access's outcome:
//!
//! * the `[victim]`, `[stream]` and `[jouppi]` organizations, one-level
//!   stacks with victim and/or stream sidecars;
//! * the §3 virtual-real hierarchy (`[hierarchy] virtual-real = true`),
//!   a virtually indexed L1 over a physical L2, under randomized,
//!   aliased and identity page mappings — hole, alias and Inclusion
//!   accounting included.
//!
//! The reference types cannot come back, so the goldens cannot be
//! regenerated: a mismatch is a behaviour change.

use cac_sim::model::{AccessOutcome, ServicePoint};
use cac_sim::SimConfig;
use cac_trace::kernels::mem_refs;
use cac_trace::spec::SpecBenchmark;
use cac_trace::MemRef;
use std::fmt::Write;

/// Instructions generated per SPEC model for the goldens.
const GOLDEN_OPS: usize = 60_000;
/// Generator seed for the goldens.
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

#[test]
fn shipped_virtual_real_config_matches_its_golden() {
    assert_golden(
        "virtual_real_randomized",
        &example("ipoly_two_level.toml"),
        false,
    );
}

#[test]
fn aliased_virtual_real_matches_its_golden() {
    let cfg = inline(
        "[hierarchy]\nvirtual-real = true\npage-mapping = \"aliased\"\npage-size = 4096\n\
         frames = 64\n\
         [[level]]\nsize = \"8KiB\"\nways = 2\nindex = \"ipoly-skew\"\n\
         [[level]]\nsize = \"64KiB\"\nways = 2\n",
    );
    assert_golden("virtual_real_aliased", &cfg, false);
}

#[test]
fn direct_mapped_identity_virtual_real_matches_its_golden() {
    let cfg = inline(
        "[hierarchy]\nvirtual-real = true\n\
         [[level]]\nsize = \"8KiB\"\nindex = \"ipoly\"\n\
         [[level]]\nsize = \"64KiB\"\n",
    );
    assert_golden("virtual_real_identity", &cfg, false);
}
