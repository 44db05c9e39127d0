//! A write-invalidate snooping bus over virtual-real nodes.
//!
//! §3.2 of the paper notes that with Inclusion maintained, "a snooping bus
//! protocol need only compare addresses of global write operations with
//! the tags of the lowest level of private cache", and §3.3 lists
//! *invalidations due to external coherency actions* as the third cause of
//! L1 holes — then sets them aside because they "occur regardless of the
//! cache architecture". This module builds the machinery anyway, so the
//! claim can be checked and the hole-cause breakdown measured:
//!
//! * every node is a virtual-real [`Hierarchy`] (a virtually indexed L1
//!   over a physically indexed L2 with explicit inclusion, built with
//!   [`HierarchyBuilder::virtual_l1`](crate::stack::HierarchyBuilder::virtual_l1));
//! * a write by one node broadcasts an invalidation of the written
//!   physical block; snooping nodes drop it from L2 and, for Inclusion,
//!   from L1 — punching a coherence hole;
//! * the single-writer invariant (no remote copies survive a write) and
//!   per-node inclusion are checkable after any access sequence.
//!
//! The protocol is deliberately minimal (write-invalidate with
//! write-through L1s, no dirty-sharing states): the paper's architecture
//! makes every store globally visible at L2, so MESI's M/E distinction
//! adds nothing to the hole analysis this module exists to support.
//!
//! # Example
//!
//! ```
//! use cac_core::{CacheGeometry, IndexSpec};
//! use cac_sim::coherence::SnoopingBus;
//! use cac_sim::stack::{Hierarchy, LevelBuilder};
//! use cac_sim::vm::PageMapper;
//!
//! let l1 = LevelBuilder::new(CacheGeometry::new(1024, 32, 1)?).index_spec(IndexSpec::ipoly());
//! let l2 = LevelBuilder::new(CacheGeometry::new(4096, 32, 1)?).write_back();
//! let node = || {
//!     Hierarchy::builder()
//!         .virtual_l1(PageMapper::identity())
//!         .level(l1.clone())
//!         .level(l2.clone())
//!         .build()
//! };
//! let mut bus = SnoopingBus::new(vec![node()?, node()?])?;
//!
//! bus.read(0, 0x100)?;         // node 0 caches the block
//! bus.read(1, 0x100)?;         // node 1 caches it too (shared)
//! bus.write(1, 0x100)?;        // node 1 writes: node 0 is invalidated
//! assert!(!bus.node(0).unwrap().level(0).contains(0x100));
//! assert!(bus.read(9, 0x100).is_err()); // out-of-range node: an error, not a panic
//! assert!(bus.check_invariants());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::model::AccessOutcome;
use crate::stack::Hierarchy;
use cac_core::Error;

/// Bus-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Reads presented to the bus (all node reads).
    pub reads: u64,
    /// Writes presented to the bus (each one broadcasts an invalidation).
    pub writes: u64,
    /// Snoop probes delivered (writes × remote nodes).
    pub snoops: u64,
    /// Snoops that found and removed a remote L2 copy.
    pub remote_l2_invalidations: u64,
    /// Snoops that punched a hole in a remote L1.
    pub remote_l1_holes: u64,
}

impl BusStats {
    /// Fraction of snoop probes that actually hit a remote copy — how
    /// much invalidation traffic does useful work.
    pub fn snoop_hit_rate(&self) -> f64 {
        if self.snoops == 0 {
            0.0
        } else {
            self.remote_l2_invalidations as f64 / self.snoops as f64
        }
    }
}

/// A write-invalidate snooping bus over `N` private virtual-real
/// hierarchies.
///
/// See the [module docs](self) for the protocol and an example.
#[derive(Debug)]
pub struct SnoopingBus {
    nodes: Vec<Hierarchy>,
    stats: BusStats,
}

impl SnoopingBus {
    /// Creates a bus over the given nodes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfRange`] if no nodes are supplied.
    pub fn new(nodes: Vec<Hierarchy>) -> Result<Self, Error> {
        if nodes.is_empty() {
            return Err(Error::OutOfRange {
                what: "node count",
                value: 0,
                constraint: ">= 1",
            });
        }
        Ok(SnoopingBus {
            nodes,
            stats: BusStats::default(),
        })
    }

    /// Number of nodes on the bus.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Range-checks a node id, turning an out-of-range `i` into a
    /// [`Error::OutOfRange`] instead of a panic.
    fn check_node(&self, i: usize) -> Result<(), Error> {
        if i < self.nodes.len() {
            Ok(())
        } else {
            Err(Error::OutOfRange {
                what: "node id",
                value: i as u64,
                constraint: "< the bus's node count",
            })
        }
    }

    /// Immutable access to a node; `None` if `i` is out of range.
    pub fn node(&self, i: usize) -> Option<&Hierarchy> {
        self.nodes.get(i)
    }

    /// A read by node `i` at virtual address `va`. Reads are satisfied
    /// locally (L1 → L2 → memory); they generate no snoop traffic in this
    /// protocol.
    ///
    /// # Errors
    ///
    /// [`Error::OutOfRange`] if `i` is not a node on this bus.
    pub fn read(&mut self, i: usize, va: u64) -> Result<AccessOutcome, Error> {
        self.check_node(i)?;
        self.stats.reads += 1;
        Ok(self.nodes[i].read(va))
    }

    /// A write by node `i` at virtual address `va`: performed locally,
    /// then the written physical block is invalidated in every other
    /// node.
    ///
    /// # Errors
    ///
    /// [`Error::OutOfRange`] if `i` is not a node on this bus.
    pub fn write(&mut self, i: usize, va: u64) -> Result<AccessOutcome, Error> {
        self.check_node(i)?;
        self.stats.writes += 1;
        let pa = self.nodes[i].translate(va);
        let res = self.nodes[i].write(va);
        for (j, node) in self.nodes.iter_mut().enumerate() {
            if j == i {
                continue;
            }
            self.stats.snoops += 1;
            let out = node.snoop_invalidate(pa);
            if out.l2_invalidated {
                self.stats.remote_l2_invalidations += 1;
            }
            if out.l1_invalidated {
                self.stats.remote_l1_holes += 1;
            }
        }
        Ok(res)
    }

    /// Bus counters.
    pub fn stats(&self) -> BusStats {
        self.stats
    }

    /// Verifies the protocol invariants: Inclusion inside every node.
    /// (The single-writer property is enforced synchronously by
    /// [`SnoopingBus::write`]; tests check it per write via
    /// [`Hierarchy::holds_physical_block`].)
    pub fn check_invariants(&mut self) -> bool {
        self.nodes.iter_mut().all(|n| n.check_inclusion())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ServicePoint;
    use crate::stack::LevelBuilder;
    use crate::vm::PageMapper;
    use cac_core::{CacheGeometry, IndexSpec};

    fn node() -> Hierarchy {
        Hierarchy::builder()
            .virtual_l1(PageMapper::identity())
            .level(
                LevelBuilder::new(CacheGeometry::new(1024, 32, 1).unwrap())
                    .index_spec(IndexSpec::ipoly()),
            )
            .level(LevelBuilder::new(CacheGeometry::new(4096, 32, 1).unwrap()).write_back())
            .build()
            .unwrap()
    }

    fn bus(n: usize) -> SnoopingBus {
        SnoopingBus::new((0..n).map(|_| node()).collect()).unwrap()
    }

    #[test]
    fn empty_bus_is_rejected() {
        assert!(SnoopingBus::new(Vec::new()).is_err());
    }

    #[test]
    fn out_of_range_node_is_an_error_not_a_panic() {
        let mut b = bus(2);
        assert!(b.node(1).is_some());
        assert!(b.node(2).is_none());
        assert!(matches!(b.read(2, 0), Err(Error::OutOfRange { .. })));
        assert!(matches!(b.write(5, 0), Err(Error::OutOfRange { .. })));
        // Rejected operations leave the counters untouched.
        assert_eq!(b.stats().reads, 0);
        assert_eq!(b.stats().writes, 0);
        assert_eq!(b.stats().snoops, 0);
    }

    #[test]
    fn write_invalidates_remote_copies() {
        let mut b = bus(3);
        for i in 0..3 {
            b.read(i, 0x200).unwrap();
        }
        b.write(0, 0x200).unwrap();
        let pa_block = 0x200 / 32;
        assert!(b.node(0).unwrap().holds_physical_block(pa_block));
        assert!(!b.node(1).unwrap().holds_physical_block(pa_block));
        assert!(!b.node(2).unwrap().holds_physical_block(pa_block));
        assert_eq!(b.stats().remote_l2_invalidations, 2);
        assert_eq!(b.stats().remote_l1_holes, 2);
        assert!(b.check_invariants());
    }

    #[test]
    fn writes_to_private_data_produce_useless_snoops() {
        let mut b = bus(2);
        b.write(0, 0x8000).unwrap(); // nobody else has it
        assert_eq!(b.stats().snoops, 1);
        assert_eq!(b.stats().remote_l2_invalidations, 0);
        assert_eq!(b.stats().snoop_hit_rate(), 0.0);
    }

    #[test]
    fn remote_reader_misses_after_invalidation() {
        let mut b = bus(2);
        b.read(1, 0x300).unwrap();
        let l1_hit = |o: AccessOutcome| o.served_by == ServicePoint::Level(0);
        assert!(l1_hit(b.read(1, 0x300).unwrap()));
        b.write(0, 0x300).unwrap();
        // Node 1 must re-fetch: its copy was invalidated.
        assert!(!l1_hit(b.read(1, 0x300).unwrap()));
        assert_eq!(b.node(1).unwrap().external_invalidations().0, 1);
    }

    #[test]
    fn ping_pong_sharing_counts_holes_on_both_sides() {
        let mut b = bus(2);
        for round in 0..16 {
            let writer = round % 2;
            b.read(writer, 0x400).unwrap();
            b.write(writer, 0x400).unwrap();
        }
        let s = b.stats();
        // After the first write, every subsequent write finds the other
        // node's freshly-refetched copy.
        assert!(s.remote_l2_invalidations >= 14, "{s:?}");
        assert!(b.check_invariants());
        assert!(b.node(0).unwrap().external_invalidations().0 > 0);
        assert!(b.node(1).unwrap().external_invalidations().0 > 0);
    }

    #[test]
    fn single_writer_invariant_under_random_traffic() {
        let mut b = bus(4);
        // Deterministic pseudo-random mixed traffic over a small shared
        // region to force heavy interaction.
        let mut x = 0x12345678u64;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let node = (x % 4) as usize;
            let va = (x >> 8) % 128 * 32; // 128 shared blocks
            if x.is_multiple_of(3) {
                b.write(node, va).unwrap();
                // Immediately after a write, no other node may hold the
                // block (a later read may legitimately re-cache it).
                for j in 0..4 {
                    if j != node {
                        assert!(
                            !b.node(j).unwrap().holds_physical_block(va / 32),
                            "remote copy survived a write"
                        );
                    }
                }
            } else {
                b.read(node, va).unwrap();
            }
        }
        assert!(b.check_invariants());
    }

    #[test]
    fn reads_generate_no_snoops() {
        let mut b = bus(2);
        for i in 0..64 {
            b.read(0, i * 32).unwrap();
        }
        assert_eq!(b.stats().snoops, 0);
        assert_eq!(b.stats().reads, 64);
    }
}
