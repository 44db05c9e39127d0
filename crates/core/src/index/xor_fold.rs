//! Two-field XOR placement — the skewed-associative baseline (`a2-Hx-Sk`).
//!
//! Seznec's skewed-associative cache [21] derives one index function per
//! way by XOR-ing two `m`-bit fields of the address. The paper uses this
//! scheme as the non-polynomial XOR baseline in Figure 1 and shows that,
//! unlike I-Poly, it still has pathological strides.

use crate::geometry::CacheGeometry;
use crate::index::IndexFunction;
use cac_gf2::xor_tree::fill_linear;

/// XOR-fold placement: the set index of way `w` is
/// `rotl(F0, w) ^ F1`, where `F0` and `F1` are the two `m`-bit fields of
/// the block address directly above the set-index position.
///
/// With `skewed = false` every way uses `F0 ^ F1` (a plain hashed index);
/// with `skewed = true` way `w` rotates `F0` left by `w` bits (mod `m`),
/// giving each way a different — but equally simple — hash, in the spirit
/// of the inter-bank dispersion functions of the skewed-associative cache.
///
/// # Example
///
/// ```
/// use cac_core::{CacheGeometry, index::{IndexFunction, XorFoldIndex}};
///
/// let geom = CacheGeometry::new(8 * 1024, 32, 2)?;
/// let f = XorFoldIndex::new(geom, true);
/// assert_eq!(f.label(), "a2-Hx-Sk");
/// // Fields: bits [0,7) and [7,14) of the block address.
/// assert_eq!(f.set_index(0b0000001_0000011, 0), 0b0000011 ^ 0b0000001);
/// # Ok::<(), cac_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct XorFoldIndex {
    index_bits: u32,
    mask: u64,
    sets: u32,
    ways: u32,
    skewed: bool,
}

impl XorFoldIndex {
    /// Builds the XOR-fold placement for a geometry.
    pub fn new(geom: CacheGeometry, skewed: bool) -> Self {
        XorFoldIndex {
            index_bits: geom.index_bits(),
            mask: u64::from(geom.num_sets() - 1),
            sets: geom.num_sets(),
            ways: geom.ways(),
            skewed,
        }
    }

    /// Rotates the low `m` bits of `v` left by `r` (mod `m`).
    #[inline]
    fn rotl_field(&self, v: u64, r: u32) -> u64 {
        let m = self.index_bits;
        if m == 0 {
            return 0;
        }
        let r = r % m;
        ((v << r) | (v >> (m - r))) & self.mask
    }
}

impl IndexFunction for XorFoldIndex {
    #[inline]
    fn set_index(&self, block_addr: u64, way: u32) -> u32 {
        let f0 = block_addr & self.mask;
        let f1 = (block_addr >> self.index_bits) & self.mask;
        let f0 = if self.skewed {
            self.rotl_field(f0, way)
        } else {
            f0
        };
        ((f0 ^ f1) & self.mask) as u32
    }

    fn num_sets(&self) -> u32 {
        self.sets
    }

    fn ways(&self) -> u32 {
        self.ways
    }

    fn is_skewed(&self) -> bool {
        self.skewed
    }

    fn label(&self) -> String {
        if self.skewed {
            format!("a{}-Hx-Sk", self.ways)
        } else {
            format!("a{}-Hx", self.ways)
        }
    }

    fn input_bits(&self) -> u32 {
        2 * self.index_bits
    }

    fn fill_table(&self, way: u32, out: &mut [u32]) {
        // Rotation and XOR of bit fields: GF(2)-linear.
        fill_linear(out, |a| self.set_index(a, way));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> CacheGeometry {
        CacheGeometry::new(8 * 1024, 32, 2).unwrap()
    }

    #[test]
    fn xor_of_two_fields() {
        let f = XorFoldIndex::new(geom(), false);
        // block addr = F1 << 7 | F0
        let ba = (0b1010101u64 << 7) | 0b0110011;
        assert_eq!(f.set_index(ba, 0), 0b1010101 ^ 0b0110011);
        assert_eq!(f.set_index(ba, 1), f.set_index(ba, 0));
    }

    #[test]
    fn skewed_ways_rotate() {
        let f = XorFoldIndex::new(geom(), true);
        let ba = 0b0000001u64; // F0 = 1, F1 = 0
        assert_eq!(f.set_index(ba, 0), 0b0000001);
        assert_eq!(f.set_index(ba, 1), 0b0000010); // rotl by 1
    }

    #[test]
    fn rotation_wraps_within_field() {
        let f = XorFoldIndex::new(geom(), true);
        let ba = 0b1000000u64; // F0 has its top field bit set
        assert_eq!(f.set_index(ba, 1), 0b0000001); // wraps to bit 0
    }

    #[test]
    fn index_within_range_for_wide_addresses() {
        let f = XorFoldIndex::new(geom(), true);
        for ba in [0u64, u64::MAX, 0xdead_beef_cafe, 1 << 40] {
            for w in 0..2 {
                assert!(f.set_index(ba, w) < 128);
            }
        }
    }

    #[test]
    fn labels() {
        assert_eq!(XorFoldIndex::new(geom(), true).label(), "a2-Hx-Sk");
        assert_eq!(XorFoldIndex::new(geom(), false).label(), "a2-Hx");
    }

    #[test]
    fn still_has_pathological_strides() {
        // A stride of 2^(2m) blocks leaves both fields unchanged, so every
        // access lands in the same set in every way — the weakness Figure 1
        // demonstrates for the XOR baseline.
        let f = XorFoldIndex::new(geom(), true);
        let stride = 1u64 << 14; // 2^(2*7) blocks
        for w in 0..2 {
            let s0 = f.set_index(3, w);
            for i in 0..32 {
                assert_eq!(f.set_index(3 + i * stride, w), s0);
            }
        }
    }
}
