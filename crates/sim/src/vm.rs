//! Virtual→physical page mappings.
//!
//! The two-level virtual-real hierarchy indexes L1 with virtual addresses
//! and L2 with physical addresses (§3.1). The correlation between the two
//! index streams depends on how the OS maps pages; this module provides an
//! identity mapping (kernel-style) and a deterministic pseudo-random
//! mapping (demand-paged style), which is what makes L1 and L2 indices
//! effectively uncorrelated in the hole experiments.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Minimum page size the paper's discussion assumes (§3.1: "Typical
/// operating systems permit pages to be as small as 4Kbytes").
pub const MIN_PAGE_SIZE: u64 = 4096;

/// A multiplicative hasher for `u64` page and block numbers.
///
/// The maps keyed by page or block number sit on the miss path of the
/// virtual-real hierarchy and are never iterated, so they need neither
/// SipHash's flooding resistance nor its cost: one multiply by the
/// golden-ratio constant, with the high half folded into the low bits
/// the table indexes by.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockHasher(u64);

impl Hasher for BlockHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let h = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by page or block number, hashed by [`BlockHasher`].
pub type BlockMap<V> = HashMap<u64, V, BuildHasherDefault<BlockHasher>>;

/// A set of page or block numbers, hashed by [`BlockHasher`].
pub type BlockSet = HashSet<u64, BuildHasherDefault<BlockHasher>>;

/// A virtual→physical page mapper.
#[derive(Debug, Clone)]
pub enum PageMapper {
    /// Physical address equals virtual address.
    Identity,
    /// Each new virtual page is assigned a pseudo-random free frame from a
    /// fixed physical-memory pool, deterministically from the seed.
    Randomized {
        /// Page size in bytes (power of two, >= 4KB by convention).
        page_size: u64,
        /// Established mappings: virtual page number → frame number.
        mappings: BlockMap<u64>,
        /// xorshift state for frame assignment.
        rng_state: u64,
        /// Number of physical frames available.
        frames: u64,
        /// Frames already handed out.
        used: BlockSet,
    },
    /// Many-to-one mapping: virtual page `v` maps to frame `v mod frames`.
    /// Distinct virtual pages deliberately share physical frames, creating
    /// the virtual aliases whose removal is hole cause 2 in §3.3.
    Aliased {
        /// Page size in bytes.
        page_size: u64,
        /// Number of physical frames (the modulus).
        frames: u64,
    },
}

impl PageMapper {
    /// Creates the identity mapper.
    pub fn identity() -> Self {
        PageMapper::Identity
    }

    /// Creates a randomized mapper over `memory_bytes` of physical memory
    /// with the given `page_size`.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is not a power of two or `memory_bytes` is
    /// not a multiple of `page_size`.
    pub fn randomized(page_size: u64, memory_bytes: u64, seed: u64) -> Self {
        assert!(
            page_size.is_power_of_two(),
            "page size must be a power of two"
        );
        assert!(
            memory_bytes.is_multiple_of(page_size) && memory_bytes > 0,
            "memory must be a positive multiple of the page size"
        );
        PageMapper::Randomized {
            page_size,
            mappings: BlockMap::default(),
            rng_state: seed | 1,
            frames: memory_bytes / page_size,
            used: BlockSet::default(),
        }
    }

    /// Creates an aliasing mapper: virtual page `v` maps to frame
    /// `v mod frames`, so two virtual pages `frames` apart are aliases of
    /// the same physical page.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is not a power of two or `frames == 0`.
    pub fn aliased(page_size: u64, frames: u64) -> Self {
        assert!(
            page_size.is_power_of_two(),
            "page size must be a power of two"
        );
        assert!(frames > 0, "need at least one frame");
        PageMapper::Aliased { page_size, frames }
    }

    /// Translates a virtual address to a physical address, establishing a
    /// mapping on first touch.
    ///
    /// # Panics
    ///
    /// Panics if the randomized mapper runs out of physical frames.
    pub fn translate(&mut self, va: u64) -> u64 {
        match self {
            PageMapper::Identity => va,
            PageMapper::Aliased { page_size, frames } => {
                let vpn = va / *page_size;
                let offset = va % *page_size;
                (vpn % *frames) * *page_size + offset
            }
            PageMapper::Randomized {
                page_size,
                mappings,
                rng_state,
                frames,
                used,
            } => {
                let vpn = va / *page_size;
                let offset = va % *page_size;
                let frame = *mappings.entry(vpn).or_insert_with(|| {
                    assert!(
                        (used.len() as u64) < *frames,
                        "out of physical frames ({} in use)",
                        used.len()
                    );
                    loop {
                        let mut x = *rng_state;
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        *rng_state = x;
                        let candidate = x % *frames;
                        if used.insert(candidate) {
                            break candidate;
                        }
                    }
                });
                frame * *page_size + offset
            }
        }
    }

    /// The page size (identity mapping reports [`MIN_PAGE_SIZE`]).
    pub fn page_size(&self) -> u64 {
        match self {
            PageMapper::Identity => MIN_PAGE_SIZE,
            PageMapper::Randomized { page_size, .. } | PageMapper::Aliased { page_size, .. } => {
                *page_size
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_identity() {
        let mut m = PageMapper::identity();
        for va in [0u64, 4096, 0xdead_beef, u64::MAX / 2] {
            assert_eq!(m.translate(va), va);
        }
    }

    #[test]
    fn randomized_preserves_offsets() {
        let mut m = PageMapper::randomized(4096, 1 << 24, 42);
        let pa = m.translate(0x12345);
        assert_eq!(pa % 4096, 0x12345 % 4096);
    }

    #[test]
    fn mapping_is_stable() {
        let mut m = PageMapper::randomized(4096, 1 << 24, 42);
        let a = m.translate(0x5000);
        let b = m.translate(0x5FFF);
        let c = m.translate(0x5000);
        assert_eq!(a, c);
        assert_eq!(a / 4096, b / 4096); // same page
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        let mut m = PageMapper::randomized(4096, 1 << 24, 7);
        let mut frames = std::collections::HashSet::new();
        for p in 0..512u64 {
            let pa = m.translate(p * 4096);
            assert!(frames.insert(pa / 4096), "frame reused");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = PageMapper::randomized(4096, 1 << 22, 99);
        let mut b = PageMapper::randomized(4096, 1 << 22, 99);
        for p in 0..64u64 {
            assert_eq!(a.translate(p * 4096), b.translate(p * 4096));
        }
    }

    #[test]
    #[should_panic(expected = "out of physical frames")]
    fn exhaustion_panics() {
        let mut m = PageMapper::randomized(4096, 4096 * 4, 1);
        for p in 0..5u64 {
            m.translate(p * 4096);
        }
    }

    #[test]
    fn page_size_accessor() {
        assert_eq!(PageMapper::identity().page_size(), 4096);
        assert_eq!(PageMapper::randomized(8192, 1 << 20, 1).page_size(), 8192);
        assert_eq!(PageMapper::aliased(4096, 16).page_size(), 4096);
    }

    #[test]
    fn aliased_mapper_wraps_pages() {
        let mut m = PageMapper::aliased(4096, 16);
        // Virtual pages 0 and 16 share frame 0.
        assert_eq!(m.translate(0x123), 0x123);
        assert_eq!(m.translate(16 * 4096 + 0x123), 0x123);
        // Page 5 and 21 share frame 5.
        assert_eq!(m.translate(5 * 4096), m.translate(21 * 4096));
    }
}
