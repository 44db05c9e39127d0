//! LUT compilation of placement functions.
//!
//! Every placement scheme in this workspace is (or degrades to) a pure
//! function of the low `v` block-address bits — the paper's §3.4 uses
//! `v ≤ 19` address bits throughout. [`IndexTable`] exploits that: at
//! cache-construction time the scheme is *compiled* into one flat lookup
//! table per distinct way, reducing the per-access `set_index` to a single
//! bounds-checked load with no dynamic dispatch, no mask/popcount loop and
//! no per-way branching.
//!
//! Schemes that inspect every address bit (the prime-modulus baseline) or
//! whose input width exceeds [`IndexTable::MAX_TABLE_BITS`] keep the
//! original computed path behind the same API, so a compiled table is
//! always safe to substitute for the function it was built from.
//!
//! Entries are stored as `u16` when the set count allows it (it almost
//! always does) and `u32` otherwise, keeping the hot table small enough to
//! live in L1/L2 of the *host* machine.
//!
//! Compilation is part of building every cache, and the organization
//! matrix builds twelve per workload, so it is kept cheap. The
//! GF(2)-linear placements (I-Poly, XOR-fold, XOR-matrix) never
//! evaluate entry by entry: `f(hi‖lo) = f(hi << h) ^ f(lo)`, so their
//! [`fill_table`](IndexFunction::fill_table) writes each row of a table
//! as one entry of a half-width table XOR-ed into a copy of the other
//! ([`cac_gf2::xor_tree::fill_linear`]), a vectorized loop that costs a
//! fraction of a nanosecond per entry.

use crate::index::IndexFunction;
use std::sync::Arc;

/// Flat per-way lookup tables compiled from an [`IndexFunction`].
///
/// `set_index` is behaviourally identical to the source function for
/// every block address and way — including functions too wide to
/// tabulate, which transparently fall back to the computed path.
///
/// # Example
///
/// ```
/// use cac_core::{CacheGeometry, IndexSpec};
///
/// let geom = CacheGeometry::new(8 * 1024, 32, 2)?;
/// let f = IndexSpec::ipoly_skewed().build(geom)?;
/// let t = cac_core::index::IndexTable::compile(f.clone());
/// assert!(t.is_compiled());
/// for ba in [0u64, 0x3fff, 0xdead_beef] {
///     for w in 0..2 {
///         assert_eq!(t.set_index(ba, w), f.set_index(ba, w));
///     }
/// }
/// # Ok::<(), cac_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct IndexTable {
    num_sets: u32,
    ways: u32,
    /// Low block-address bits covered by the table.
    table_bits: u32,
    /// `(1 << table_bits) - 1`.
    mask: u64,
    /// Entries per way in `storage`; 0 when all ways share one table
    /// (non-skewed placements), so the way term vanishes from the load.
    way_stride: usize,
    storage: Storage,
    /// The computed path, kept only when the source function inspects
    /// bits the table does not cover.
    fallback: Option<Arc<dyn IndexFunction>>,
}

#[derive(Debug, Clone)]
enum Storage {
    U16(Vec<u16>),
    U32(Vec<u32>),
}

impl IndexTable {
    /// Widest input (in block-address bits) that is compiled into a
    /// table: 2^20 entries per distinct way (2 MiB as `u16`). Wider
    /// functions keep the computed path.
    pub const MAX_TABLE_BITS: u32 = 20;

    /// Compiles `f` into lookup tables (or wraps it unchanged when its
    /// [`input_bits`](IndexFunction::input_bits) exceed
    /// [`MAX_TABLE_BITS`](IndexTable::MAX_TABLE_BITS)).
    pub fn compile(f: Arc<dyn IndexFunction>) -> Self {
        let num_sets = f.num_sets();
        let ways = f.ways();
        let input_bits = f.input_bits();
        if input_bits > Self::MAX_TABLE_BITS {
            return IndexTable {
                num_sets,
                ways,
                table_bits: 0,
                mask: 0,
                way_stride: 0,
                storage: Storage::U16(Vec::new()),
                fallback: Some(f),
            };
        }
        let table_bits = input_bits;
        let entries = 1usize << table_bits;
        let distinct_ways = if f.is_skewed() { ways as usize } else { 1 };
        let mut raw = vec![0u32; entries * distinct_ways];
        for w in 0..distinct_ways {
            f.fill_table(w as u32, &mut raw[w * entries..(w + 1) * entries]);
        }
        let storage = if num_sets <= 1 + u32::from(u16::MAX) {
            Storage::U16(raw.iter().map(|&s| s as u16).collect())
        } else {
            Storage::U32(raw)
        };
        IndexTable {
            num_sets,
            ways,
            table_bits,
            mask: (1u64 << table_bits) - 1,
            way_stride: if distinct_ways > 1 { entries } else { 0 },
            storage,
            fallback: None,
        }
    }

    /// The set index of `block_addr` in `way` — a single table load for
    /// compiled functions.
    ///
    /// # Panics
    ///
    /// Panics if `way >= ways()` (via the bounds check on the load).
    #[inline]
    pub fn set_index(&self, block_addr: u64, way: u32) -> u32 {
        debug_assert!(way < self.ways, "way {way} out of range");
        if let Some(f) = &self.fallback {
            return f.set_index(block_addr, way);
        }
        let i = self.way_stride * way as usize + (block_addr & self.mask) as usize;
        match &self.storage {
            Storage::U16(t) => u32::from(t[i]),
            Storage::U32(t) => t[i],
        }
    }

    /// Number of sets the table indexes into.
    #[inline]
    pub fn num_sets(&self) -> u32 {
        self.num_sets
    }

    /// Number of ways the table was compiled for.
    #[inline]
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// `true` when lookups are table loads; `false` when the source
    /// function was too wide and kept its computed path.
    pub fn is_compiled(&self) -> bool {
        self.fallback.is_none()
    }

    /// Low block-address bits covered by the table (0 for an uncompiled
    /// function).
    pub fn table_bits(&self) -> u32 {
        self.table_bits
    }

    /// Bytes of table storage.
    pub fn storage_bytes(&self) -> usize {
        match &self.storage {
            Storage::U16(t) => t.len() * 2,
            Storage::U32(t) => t.len() * 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::CacheGeometry;
    use crate::index::IndexSpec;

    fn geom() -> CacheGeometry {
        CacheGeometry::new(8 * 1024, 32, 2).unwrap()
    }

    fn addresses() -> Vec<u64> {
        let mut v: Vec<u64> = (0u64..512).collect();
        v.extend((0..64).map(|i| i * 8191 + 12345));
        v.extend([u64::MAX, u64::MAX >> 5, 1 << 40, (1 << 19) - 1, 1 << 19]);
        v
    }

    #[test]
    fn compiled_table_agrees_with_source_for_all_specs() {
        // Every table entry of every way, plus addresses above the
        // table bits, for direct-mapped, 2-way and 4-way geometries.
        let geometries = [
            geom(),
            CacheGeometry::new(8 * 1024, 32, 1).unwrap(),
            CacheGeometry::new(16 * 1024, 32, 4).unwrap(),
        ];
        for g in geometries {
            for spec in [
                IndexSpec::modulo(),
                IndexSpec::xor(),
                IndexSpec::xor_skewed(),
                IndexSpec::ipoly(),
                IndexSpec::ipoly_skewed(),
                IndexSpec::prime(),
                IndexSpec::prime_skewed(),
                IndexSpec::add_skew(),
                IndexSpec::add_skew_skewed(),
                IndexSpec::rand_table(),
                IndexSpec::rand_table_skewed(),
                IndexSpec::xor_matrix(),
                IndexSpec::xor_matrix_skewed(),
            ] {
                let f = spec.build(g).unwrap();
                let t = IndexTable::compile(f.clone());
                let exhaustive = 0..1u64 << t.table_bits();
                for ba in exhaustive.chain(addresses()) {
                    for w in 0..g.ways() {
                        assert_eq!(
                            t.set_index(ba, w),
                            f.set_index(ba, w),
                            "{spec} {g} ba={ba:#x} way {w}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn prime_keeps_computed_path() {
        let f = IndexSpec::prime().build(geom()).unwrap();
        let t = IndexTable::compile(f);
        assert!(!t.is_compiled());
        assert_eq!(t.table_bits(), 0);
    }

    #[test]
    fn non_skewed_functions_share_one_table() {
        let f = IndexSpec::ipoly().build(geom()).unwrap();
        let skewed = IndexSpec::ipoly_skewed().build(geom()).unwrap();
        let t = IndexTable::compile(f);
        let ts = IndexTable::compile(skewed);
        assert!(t.is_compiled() && ts.is_compiled());
        assert_eq!(ts.storage_bytes(), 2 * t.storage_bytes());
    }

    #[test]
    fn u16_storage_for_normal_sets() {
        let f = IndexSpec::ipoly_skewed().build(geom()).unwrap();
        let t = IndexTable::compile(f);
        // 14 input bits, 2 ways, u16 entries.
        assert_eq!(t.storage_bytes(), 2 * (1 << 14) * 2);
        assert_eq!(t.num_sets(), 128);
        assert_eq!(t.ways(), 2);
    }

    #[test]
    fn degenerate_single_set_compiles() {
        let g = CacheGeometry::fully_associative(1024, 32).unwrap();
        let f = IndexSpec::ipoly_skewed().build(g).unwrap();
        let t = IndexTable::compile(f);
        assert!(t.is_compiled());
        for ba in addresses() {
            assert_eq!(t.set_index(ba, 0), 0);
        }
    }
}
