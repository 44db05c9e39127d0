//! Differential test of the event-driven `Processor` against the
//! cycle-by-cycle loop it replaced (`oracle/mod.rs`).
//!
//! Both models run the same configuration over the same trace, in one
//! to three resumed `run` calls, and must agree on the `Debug` text of
//! every returned `CpuStats` and on how much of the trace each call
//! consumed. Configurations vary the widths, ROB size, memory ports,
//! MSHRs, miss penalty, bus occupancy, critical path, address
//! prediction, physical indexing, cache size and placement. Workloads
//! are SPEC models and hand-built traces of dependent chains,
//! store→load pairs to one word, divides, branches and streaming loads.

mod oracle;

use cac_core::latency::CriticalPath;
use cac_core::{CacheGeometry, IndexSpec};
use cac_cpu::{CpuConfig, Processor, TranslationModel};
use cac_trace::record::{OpClass, TraceOp};
use cac_trace::spec::SpecBenchmark;
use proptest::prelude::*;

/// Physical-register pools hold at least `32 + rob_entries` registers:
/// with fewer, the oracle drops ops on a rename stall.
fn config() -> impl Strategy<Value = CpuConfig> {
    (
        (1usize..81, 1u32..9, 1u32..9, 1u32..9, 1u32..5, 1usize..9),
        (
            1u32..61,
            1u64..9,
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
        ),
        (0usize..4, 0usize..3, 0u32..9, 0u32..9),
    )
        .prop_map(
            |(
                (rob, fetch, issue, commit, ports, mshrs),
                (miss_penalty, bus, exposed, predict, physical),
                (placement, size, int_extra, fp_extra),
            )| {
                let spec = [
                    IndexSpec::modulo(),
                    IndexSpec::ipoly(),
                    IndexSpec::ipoly_skewed(),
                    IndexSpec::xor_skewed(),
                ][placement]
                    .clone();
                let mut c = CpuConfig::paper_baseline(spec).unwrap();
                c.rob_entries = rob;
                c.fetch_width = fetch;
                c.issue_width = issue;
                c.commit_width = commit;
                c.mem_ports = ports;
                c.mshrs = mshrs;
                c.miss_penalty = miss_penalty;
                c.bus_cycles_per_line = bus;
                c.int_phys_regs = 32 + rob as u32 + int_extra;
                c.fp_phys_regs = 32 + rob as u32 + fp_extra;
                c.cache_geometry = CacheGeometry::new([2, 8, 16][size] * 1024, 32, 2).unwrap();
                if exposed {
                    c.critical_path = CriticalPath::XorExposed;
                }
                c.address_prediction = predict;
                if physical {
                    c = c.with_physical_indexing(TranslationModel::physically_indexed());
                }
                c
            },
        )
}

/// A register drawn from `bits`: any of the 64 architectural registers,
/// including the zero register.
fn reg(bits: u64) -> u8 {
    (bits % 64) as u8
}

/// Expands one motif of a hand-built trace. `bits` supplies every
/// choice within it.
fn motif(kind: u8, bits: u64, out: &mut Vec<TraceOp>) {
    let pc = 0x1000 + (bits % 16) * 4;
    let (r1, r2, r3) = (reg(bits >> 4), reg(bits >> 10), reg(bits >> 16));
    let word = 0x9000 + ((bits >> 22) % 4) * 8;
    let slow = [OpClass::IntDiv, OpClass::FpDiv, OpClass::FpSqrt][((bits >> 26) % 3) as usize];
    match kind {
        // A dependent chain of mixed latencies.
        0 => {
            let classes = [
                OpClass::IntAlu,
                OpClass::IntMul,
                OpClass::FpAdd,
                OpClass::FpMul,
                OpClass::IntDiv,
                OpClass::FpDiv,
                OpClass::FpSqrt,
            ];
            for k in 0..2 + (bits >> 28) % 7 {
                let class = classes[((bits >> (32 + 3 * k)) % 7) as usize];
                out.push(TraceOp::compute(pc + k * 4, class, r1, [Some(r1), None]));
            }
        }
        // A store and a load of the same word, either of which may wait
        // on a slow op for its address, then a consumer of the load:
        // forwarding when the store resolves first, an ARB replay when
        // it does not. Sometimes the load comes first.
        1 => {
            out.push(TraceOp::compute(pc, slow, r2, [Some(r2), None]));
            let late = |bit: u64| (bits >> bit).is_multiple_of(2);
            let store = TraceOp::store(pc + 4, word, r1, late(47).then_some(r2));
            let load = TraceOp::load(pc + 8, word + (bits >> 40) % 8, r3, late(48).then_some(r2));
            if late(49) {
                out.extend([load, store]);
            } else {
                out.extend([store, load]);
            }
            let consumer =
                [OpClass::IntAlu, OpClass::FpDiv, OpClass::IntMul][((bits >> 44) % 3) as usize];
            out.push(TraceOp::compute(pc + 12, consumer, r1, [Some(r3), None]));
        }
        // A lone divide or square root.
        2 => out.push(TraceOp::compute(pc, slow, r1, [Some(r2), Some(r3)])),
        // A branch, biased or random.
        3 => {
            let taken = if (bits >> 30).is_multiple_of(4) {
                (bits >> 34).is_multiple_of(2)
            } else {
                true
            };
            out.push(TraceOp::branch(
                0x2000 + (bits % 4) * 4,
                taken,
                0x1000,
                Some(r1),
            ));
        }
        // Independent single-cycle ops.
        4 => {
            for k in 0..1 + (bits >> 28) % 6 {
                out.push(TraceOp::compute(
                    pc + k * 4,
                    OpClass::IntAlu,
                    reg(bits >> (32 + k)),
                    [None, None],
                ));
            }
        }
        // Streaming loads: a new line each, to fill the MSHRs.
        _ => {
            let base = 0x10_0000 + (bits >> 20) % 64 * 4096;
            for k in 0..1 + (bits >> 28) % 8 {
                out.push(TraceOp::load(
                    pc + k * 4,
                    base + k * 32,
                    reg(bits >> (32 + k)),
                    Some(r2),
                ));
            }
        }
    }
}

fn hand_built() -> impl Strategy<Value = Vec<TraceOp>> {
    prop::collection::vec((0u8..6, any::<u64>()), 20..600).prop_map(|motifs| {
        let mut ops = Vec::new();
        for (kind, bits) in motifs {
            motif(kind, bits, &mut ops);
        }
        ops
    })
}

fn spec_model() -> impl Strategy<Value = Vec<TraceOp>> {
    (0usize..18, 0u64..1000, 200usize..4000)
        .prop_map(|(b, seed, n)| SpecBenchmark::all()[b].generator(seed).take(n).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn event_driven_processor_matches_the_oracle(
        config in config(),
        trace in prop_oneof![hand_built(), spec_model()],
        cuts in prop::collection::vec(1u64..2000, 1..4),
    ) {
        let mut fast = Processor::new(config.clone()).unwrap();
        let mut slow = oracle::Processor::new(config.clone()).unwrap();
        let (mut fast_ops, mut slow_ops) = (trace.iter().copied(), trace.iter().copied());
        for (call, &n) in cuts.iter().enumerate() {
            let got = fast.run(fast_ops.by_ref(), n);
            let want = slow.run(slow_ops.by_ref(), n);
            prop_assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "run call {} of {} ops, config {:?}",
                call,
                n,
                config
            );
            prop_assert_eq!(fast_ops.len(), slow_ops.len(), "trace consumed, call {}", call);
        }
    }
}

/// A ROB larger than the ring allocated up front: a chain of square
/// roots holds the head for about 1400 cycles while 6000 independent
/// ops pile up behind it, so the ring must grow with ops in flight.
#[test]
fn a_rob_beyond_the_initial_ring_grows_in_place() {
    let mut config = CpuConfig::paper_baseline(IndexSpec::modulo()).unwrap();
    config.rob_entries = 6000;
    config.int_phys_regs = 32 + 6000;
    config.fp_phys_regs = 32 + 6000;
    let mut trace: Vec<TraceOp> = (0..40)
        .map(|_| TraceOp::compute(0x700, OpClass::FpSqrt, 33, [Some(33), None]))
        .collect();
    trace.extend((0..6000u64).map(|i| {
        if i % 3 == 0 {
            TraceOp::load(0x800, 0x4000 + i * 8, 1 + (i % 31) as u8, None)
        } else {
            TraceOp::compute(0x804, OpClass::IntAlu, 1 + (i % 31) as u8, [None, None])
        }
    }));
    let got = Processor::new(config.clone())
        .unwrap()
        .run(trace.iter().copied(), 10_000);
    let want = oracle::Processor::new(config)
        .unwrap()
        .run(trace.iter().copied(), 10_000);
    assert_eq!(got.instructions, 6040);
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
}
