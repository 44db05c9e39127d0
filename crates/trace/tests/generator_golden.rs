//! Golden digests of the SPEC workload generators.
//!
//! Every experiment, golden and benchmark in the workspace replays
//! streams from `SpecBenchmark::generator`, so a generator change is a
//! change to all of them at once. `tests/golden/generator.txt` pins,
//! per model and seed, a digest of the first `GOLDEN_OPS` ops — every
//! field of every `TraceOp`. There is no regeneration switch: a
//! mismatch is a behaviour change.

use cac_trace::spec::SpecBenchmark;
use cac_trace::TraceOp;
use std::fmt::Write;

/// Ops digested per model and seed.
const GOLDEN_OPS: usize = 100_000;
/// Generator seeds pinned.
const GOLDEN_SEEDS: [u64; 2] = [1, 7];

/// 64-bit FNV-1a over every field of the op stream.
fn digest(ops: impl Iterator<Item = TraceOp>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
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
    h
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
    let path = format!("{}/tests/golden/generator.txt", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        assert_eq!(g, w, "generator golden line {} differs", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "generator golden length differs"
    );
}
