//! Golden digests of the SPEC workload generators.
//!
//! Every experiment, golden and benchmark in the workspace replays
//! streams from `SpecBenchmark::generator`, so a generator change is a
//! change to all of them at once. `tests/golden/generator.txt` pins,
//! per model and seed, a digest of the first `GOLDEN_OPS` ops — every
//! field of every `TraceOp`. `tests/golden/generator_refs.txt` pins,
//! per model, a digest of the reference stream the organization-matrix
//! benchmark replays: `mem_refs` of the first `REF_OPS` ops at seed 1.
//! There is no regeneration switch: a mismatch is a behaviour change.

use cac_trace::kernels::mem_refs;
use cac_trace::spec::SpecBenchmark;
use cac_trace::{MemRef, TraceOp};
use std::fmt::Write;

/// Ops digested per model and seed.
const GOLDEN_OPS: usize = 100_000;
/// Generator seeds pinned.
const GOLDEN_SEEDS: [u64; 2] = [1, 7];

/// Ops per model whose references are digested.
const REF_OPS: usize = 500_000;

/// 64-bit FNV-1a state.
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
}

/// 64-bit FNV-1a over every field of the op stream.
fn digest(ops: impl Iterator<Item = TraceOp>) -> u64 {
    let mut h = Fnv::new();
    let mut feed = |bytes: &[u8]| h.feed(bytes);
    let reg = |r: Option<u8>| r.map_or(0xff, |r| r);
    for op in ops {
        feed(&op.pc.to_le_bytes());
        feed(&[
            op.class as u8,
            reg(op.dst),
            reg(op.srcs[0]),
            reg(op.srcs[1]),
            u8::from(op.taken),
            u8::from(op.addr.is_some()),
        ]);
        feed(&op.addr.unwrap_or(0).to_le_bytes());
        feed(&op.target.to_le_bytes());
    }
    h.0
}

/// 64-bit FNV-1a over the `(addr, is_write)` of every reference.
fn ref_digest(refs: impl Iterator<Item = MemRef>) -> u64 {
    let mut h = Fnv::new();
    for r in refs {
        h.feed(&r.addr.to_le_bytes());
        h.feed(&[u8::from(r.is_write)]);
    }
    h.0
}

/// Compares `got` with the golden file `name`, naming the first
/// differing line.
fn assert_golden(name: &str, got: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        assert_eq!(g, w, "{name} line {} differs", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "{name} length differs"
    );
}

#[test]
fn spec_generators_match_their_golden() {
    let mut got = format!("ops {GOLDEN_OPS}\n");
    for b in SpecBenchmark::all() {
        for seed in GOLDEN_SEEDS {
            let d = digest(b.generator(seed).take(GOLDEN_OPS));
            writeln!(got, "{} seed {seed} {d:#018x}", b.name()).unwrap();
        }
    }
    assert_golden("generator.txt", &got);
}

#[test]
fn spec_reference_streams_match_their_golden() {
    let mut got = format!("ops {REF_OPS} seed 1\n");
    for b in SpecBenchmark::all() {
        let d = ref_digest(mem_refs(b.generator(1).take(REF_OPS)));
        writeln!(got, "{} {d:#018x}", b.name()).unwrap();
    }
    assert_golden("generator_refs.txt", &got);
}
