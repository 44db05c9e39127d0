//! Translation lookaside buffer.
//!
//! §3.1 of the paper weighs four ways of feeding an I-Poly index function
//! with enough address bits despite 4KB minimum pages. *Option 1* is to
//! translate first and index the L1 **physically** — attractive when the
//! pipeline already translates a stage ahead of tag lookup, but otherwise
//! "either extend the critical path ... or introduce an extra cycle of
//! untolerated latency via an additional pipeline stage". Evaluating that
//! trade-off needs a TLB model: this module provides a parametric
//! set-associative TLB with LRU replacement, backed by any
//! [`PageMapper`]. Its entries are the lines of a [`Cache`] whose lines
//! are pages.
//!
//! [`PageMapper`]: crate::vm::PageMapper
//!
//! # Example
//!
//! ```
//! use cac_sim::tlb::Tlb;
//! use cac_sim::vm::PageMapper;
//!
//! let mut tlb = Tlb::new(64, 4, 4096, 30)?;
//! let mut mapper = PageMapper::identity();
//! let (pa, hit) = tlb.translate(0x1234, &mut mapper);
//! assert_eq!(pa, 0x1234);
//! assert!(!hit); // compulsory TLB miss
//! let (_, hit) = tlb.translate(0x1ff8, &mut mapper);
//! assert!(hit); // same page
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::cache::Cache;
use crate::vm::PageMapper;
use cac_core::{CacheGeometry, Error, IndexSpec};

/// Statistics kept by a [`Tlb`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Translations requested.
    pub accesses: u64,
    /// Translations that missed (page walk required).
    pub misses: u64,
    /// Valid entries evicted to make room.
    pub evictions: u64,
}

impl TlbStats {
    /// Miss ratio in `[0, 1]` (0 if no accesses yet).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A set-associative TLB with true-LRU replacement.
///
/// The entries are a [`Cache`] with one page-sized line per entry,
/// modulo placement and LRU, so the fully-associative configuration
/// (`ways == entries`, §3.1's worst case for lookup cost) runs on the
/// cache's O(1) one-set engine.
#[derive(Debug)]
pub struct Tlb {
    entries: Cache,
    miss_penalty: u32,
    /// Kept here, not in the cache, so that [`Tlb::flush`] keeps them.
    stats: TlbStats,
}

impl Tlb {
    /// Creates a TLB with `entries` total entries organised as
    /// `entries / ways` sets, for pages of `page_size` bytes; a miss costs
    /// `miss_penalty` cycles (the page-walk time).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotPowerOfTwo`] unless `entries`, `ways` and
    /// `page_size` are powers of two, and [`Error::OutOfRange`] if
    /// `ways > entries`, if pages are smaller than 2 bytes (the
    /// smallest cache line) or if the TLB would map 2^64 bytes or more.
    pub fn new(entries: u32, ways: u32, page_size: u64, miss_penalty: u32) -> Result<Self, Error> {
        if entries == 0 || !entries.is_power_of_two() {
            return Err(Error::NotPowerOfTwo {
                what: "TLB entries",
                value: u64::from(entries),
            });
        }
        if ways == 0 || !ways.is_power_of_two() {
            return Err(Error::NotPowerOfTwo {
                what: "TLB ways",
                value: u64::from(ways),
            });
        }
        if page_size == 0 || !page_size.is_power_of_two() {
            return Err(Error::NotPowerOfTwo {
                what: "page size",
                value: page_size,
            });
        }
        if ways > entries {
            return Err(Error::OutOfRange {
                what: "TLB ways",
                value: u64::from(ways),
                constraint: "<= entries",
            });
        }
        let reach = u64::from(entries)
            .checked_mul(page_size)
            .ok_or(Error::OutOfRange {
                what: "page size",
                value: page_size,
                constraint: "entries x page size < 2^64 bytes",
            })?;
        let geom = CacheGeometry::new(reach, page_size, ways)?;
        Ok(Tlb {
            entries: Cache::build(geom, IndexSpec::modulo())?,
            miss_penalty,
            stats: TlbStats::default(),
        })
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.entries.geometry().block()
    }

    /// Page-walk penalty charged per miss, in cycles.
    pub fn miss_penalty(&self) -> u32 {
        self.miss_penalty
    }

    /// Translates `va`, consulting `mapper` (the page table) on a miss.
    /// Returns the physical address and whether the TLB hit.
    pub fn translate(&mut self, va: u64, mapper: &mut PageMapper) -> (u64, bool) {
        let out = self.entries.read(va);
        self.stats.accesses += 1;
        self.stats.misses += u64::from(!out.hit);
        self.stats.evictions += u64::from(out.evicted.is_some());
        // A mapper never remaps a page it has mapped, so on a hit this is
        // the frame the miss cached.
        (mapper.translate(va), out.hit)
    }

    /// The latency contribution of a translation: 0 on a hit,
    /// [`Tlb::miss_penalty`] on a miss.
    pub fn latency(&self, hit: bool) -> u32 {
        if hit {
            0
        } else {
            self.miss_penalty
        }
    }

    /// Invalidates every entry (e.g. on a context switch).
    pub fn flush(&mut self) {
        self.entries.flush();
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb() -> Tlb {
        Tlb::new(64, 4, 4096, 30).unwrap()
    }

    #[test]
    fn validation() {
        assert!(Tlb::new(0, 4, 4096, 30).is_err());
        assert!(Tlb::new(63, 4, 4096, 30).is_err());
        assert!(Tlb::new(64, 3, 4096, 30).is_err());
        assert!(Tlb::new(64, 4, 1000, 30).is_err());
        assert!(Tlb::new(4, 8, 4096, 30).is_err());
        assert!(Tlb::new(64, 64, 4096, 30).is_ok()); // fully associative
    }

    #[test]
    fn first_touch_misses_then_hits() {
        let mut t = tlb();
        let mut m = PageMapper::identity();
        let (pa, hit) = t.translate(0x5123, &mut m);
        assert_eq!(pa, 0x5123);
        assert!(!hit);
        let (pa, hit) = t.translate(0x5fff, &mut m);
        assert_eq!(pa, 0x5fff);
        assert!(hit);
        assert_eq!(t.stats().misses, 1);
        assert_eq!(t.stats().accesses, 2);
    }

    #[test]
    fn translations_preserve_page_offset() {
        let mut t = tlb();
        let mut m = PageMapper::randomized(4096, 1 << 24, 42);
        for va in [0x0u64, 0x1234, 0xabcd_e012] {
            let (pa, _) = t.translate(va, &mut m);
            assert_eq!(pa & 0xfff, va & 0xfff);
        }
    }

    #[test]
    fn cached_translation_matches_mapper() {
        let mut t = tlb();
        let mut m = PageMapper::randomized(4096, 1 << 24, 7);
        let (pa1, _) = t.translate(0x8000, &mut m);
        let (pa2, hit) = t.translate(0x8004, &mut m);
        assert!(hit);
        assert_eq!(pa2, pa1 + 4);
        assert_eq!(pa2, m.translate(0x8004));
    }

    #[test]
    fn lru_evicts_oldest_within_set() {
        // 4-way: touching 5 pages that map to one set evicts the first.
        let mut t = Tlb::new(4, 4, 4096, 30).unwrap(); // one set
        let mut m = PageMapper::identity();
        for p in 0..4u64 {
            t.translate(p * 4096, &mut m);
        }
        t.translate(0, &mut m); // refresh page 0
        t.translate(4 * 4096, &mut m); // evicts page 1 (oldest)
        assert_eq!(t.stats().evictions, 1);
        let (_, hit0) = t.translate(0, &mut m);
        assert!(hit0, "page 0 was refreshed, must survive");
        let (_, hit1) = t.translate(4096, &mut m);
        assert!(!hit1, "page 1 was LRU, must have been evicted");
    }

    #[test]
    fn flush_forgets_everything() {
        let mut t = tlb();
        let mut m = PageMapper::identity();
        t.translate(0x1000, &mut m);
        t.flush();
        let (_, hit) = t.translate(0x1000, &mut m);
        assert!(!hit);
    }

    #[test]
    fn latency_model() {
        let t = tlb();
        assert_eq!(t.latency(true), 0);
        assert_eq!(t.latency(false), 30);
    }

    /// The O(1) fully-associative path against a naive LRU vector: same
    /// hits, same translations, same eviction count.
    #[test]
    fn fully_associative_engine_matches_naive_lru() {
        let entries = 16usize;
        let mut t = Tlb::new(entries as u32, entries as u32, 4096, 30).unwrap();
        let mut m = PageMapper::randomized(4096, 1 << 26, 11);
        let mut shadow = PageMapper::randomized(4096, 1 << 26, 11);
        let mut naive: Vec<u64> = Vec::new(); // VPNs, oldest first
        let mut evictions = 0u64;
        let mut x = 0x2468_ace0u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let va = x % (1 << 19); // 128 pages: thrashes 16 entries
            let vpn = va >> 12;
            let expect_hit = if let Some(p) = naive.iter().position(|&v| v == vpn) {
                naive.remove(p);
                naive.push(vpn);
                true
            } else {
                if naive.len() == entries {
                    naive.remove(0);
                    evictions += 1;
                }
                naive.push(vpn);
                false
            };
            let (pa, hit) = t.translate(va, &mut m);
            assert_eq!(hit, expect_hit, "va {va:#x}");
            assert_eq!(pa, shadow.translate(va));
        }
        assert_eq!(t.stats().evictions, evictions);
        assert!(t.stats().misses > 0 && t.stats().misses < t.stats().accesses);
        // flush() clears the engine too.
        t.flush();
        let (_, hit) = t.translate(0, &mut m);
        assert!(!hit);
    }

    #[test]
    fn miss_ratio_over_working_set_larger_than_tlb() {
        let mut t = Tlb::new(16, 4, 4096, 30).unwrap();
        let mut m = PageMapper::identity();
        // Cycle over 64 pages repeatedly: thrashes a 16-entry TLB.
        for _ in 0..4 {
            for p in 0..64u64 {
                t.translate(p * 4096, &mut m);
            }
        }
        assert!(t.stats().miss_ratio() > 0.9);
        // Small working set: near-zero steady-state miss ratio.
        let mut t2 = Tlb::new(16, 4, 4096, 30).unwrap();
        for _ in 0..64 {
            for p in 0..8u64 {
                t2.translate(p * 4096, &mut m);
            }
        }
        assert!(t2.stats().miss_ratio() < 0.05);
    }
}
