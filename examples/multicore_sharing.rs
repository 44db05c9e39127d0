//! Multicore sharing: holes from external coherency actions.
//!
//! §3.3 of the paper lists three causes of L1 holes in the two-level
//! virtual-real hierarchy. The third — invalidations from other
//! processors — is dismissed in one sentence: they "occur regardless of
//! the cache architecture". This example builds a little 2-core system
//! and lets you watch that argument play out: a producer core writes a
//! buffer, a consumer core reads it, and every handoff punches coherence
//! holes in the consumer's L1 — exactly as many under I-Poly indexing as
//! under conventional indexing.
//!
//! Run with: `cargo run --release --example multicore_sharing`

use cac::core::{CacheGeometry, IndexSpec};
use cac::sim::coherence::SnoopingBus;
use cac::sim::stack::{Hierarchy, LevelBuilder};
use cac::sim::vm::PageMapper;

const BUFFER: u64 = 0x10_0000; // shared 2KB buffer: 64 blocks
const BLOCKS: u64 = 64;

fn system(l1_spec: IndexSpec) -> Result<SnoopingBus, Box<dyn std::error::Error>> {
    let node = || -> Result<Hierarchy, cac::core::Error> {
        Hierarchy::builder()
            .virtual_l1(PageMapper::identity())
            .level(
                LevelBuilder::new(CacheGeometry::new(8 * 1024, 32, 2)?).index_spec(l1_spec.clone()),
            )
            .level(LevelBuilder::new(CacheGeometry::new(256 * 1024, 32, 2)?).write_back())
            .build()
    };
    Ok(SnoopingBus::new(vec![node()?, node()?])?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("producer/consumer handoff over a snooping bus, 64-block shared buffer\n");
    println!(
        "{:<22} {:>14} {:>16} {:>16} {:>14}",
        "L1 indexing", "consumer miss%", "coher holes (P)", "coher holes (C)", "snoop hit%"
    );

    for (name, spec) in [
        ("conventional", IndexSpec::modulo()),
        ("skewed I-Poly", IndexSpec::ipoly_skewed()),
    ] {
        let mut bus = system(spec)?;
        const PRODUCER: usize = 0;
        const CONSUMER: usize = 1;

        for _round in 0..128 {
            // Producer fills the buffer (write-through; each write
            // invalidates the consumer's stale copy).
            for b in 0..BLOCKS {
                bus.write(PRODUCER, BUFFER + b * 32).unwrap();
            }
            // Consumer walks the buffer; every block is a coherence miss.
            for b in 0..BLOCKS {
                bus.read(CONSUMER, BUFFER + b * 32).unwrap();
            }
            // Consumer also does private work between handoffs.
            for i in 0..32u64 {
                bus.read(CONSUMER, (1 << 33) + i * 4096).unwrap();
            }
        }

        assert!(bus.check_invariants(), "inclusion must hold");
        println!(
            "{name:<22} {:>14.2} {:>16} {:>16} {:>14.1}",
            bus.node(CONSUMER).unwrap().level(0).stats().miss_ratio() * 100.0,
            bus.node(PRODUCER).unwrap().external_invalidations().0,
            bus.node(CONSUMER).unwrap().external_invalidations().0,
            bus.stats().snoop_hit_rate() * 100.0,
        );
    }

    println!(
        "\nThe consumer's coherence holes are essentially identical under both index\n\
         functions (the tiny gap is conventional indexing's own conflict evictions\n\
         removing a few shared blocks before the invalidation arrives): sharing\n\
         misses are a property of the access pattern, not the placement. What\n\
         I-Poly changes is only the *conflict* component of the miss ratio —\n\
         visible here in the private-work part of the consumer's traffic."
    );
    Ok(())
}
