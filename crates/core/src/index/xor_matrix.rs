//! General XOR-scheme placement — Frailong, Jalby & Lenfant [5].
//!
//! The most general *linear* placement over GF(2): the set index is
//! `M_w · a`, where `a` is the vector of low block-address bits and `M_w`
//! an `m × v` bit-matrix (one per way when skewed). Every other linear
//! scheme in this module tree — conventional modulo, two-field XOR, and
//! I-Poly itself — is a special case of this map; the paper's §2.1 credits
//! Frailong *et al.* with introducing the family for parallel memories.
//!
//! The matrices generated here have the form `[I_m | R_w]`: the identity on
//! the conventional index field plus a random mixing block over the
//! tag-side bits. This guarantees balance (for any fixed tag the map is a
//! bijection on the sets) while the random `R_w` decorrelates tag bits.
//! What the construction does *not* give is I-Poly's provable
//! stride-insensitivity — with probability `2^-m` a pair of tags collides,
//! and nothing rules out a regular stride hitting such a pair. The
//! [`XorMatrixIndex::matrix`] accessor exposes the map so tests and
//! experiments can check rank conditions with [`cac_gf2::BitMatrix`].

use crate::error::Error;
use crate::geometry::CacheGeometry;
use crate::index::prng::SplitMix64;
use crate::index::{IndexFunction, PAPER_ADDRESS_BITS};
use cac_gf2::xor_tree::fill_linear;
use cac_gf2::BitMatrix;

/// General GF(2) linear placement: `set = M_w · block_addr_bits`.
///
/// # Example
///
/// ```
/// use cac_core::{CacheGeometry, index::{IndexFunction, XorMatrixIndex}};
///
/// let geom = CacheGeometry::new(8 * 1024, 32, 2)?;
/// let f = XorMatrixIndex::random(geom, true, 42)?;
/// assert!(f.set_index(0xdead_beef, 1) < 128);
/// // The map is exposed as an explicit matrix for analysis:
/// assert_eq!(f.matrix(0).rank(), 7); // surjective by construction
/// # Ok::<(), cac_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct XorMatrixIndex {
    /// One matrix per way (all ways share matrix 0 when not skewed).
    matrices: Vec<BitMatrix>,
    input_bits: u32,
    input_mask: u64,
    sets: u32,
    ways: u32,
    skewed: bool,
}

impl XorMatrixIndex {
    /// Builds a placement from explicit matrices (one per way if skewed,
    /// exactly one otherwise).
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadPolynomial`] (the shared "bad linear map"
    /// error) if the matrix count is wrong, shapes disagree with the
    /// geometry, or any matrix is not surjective (rank < `m` — some sets
    /// would be unreachable).
    pub fn from_matrices(
        geom: CacheGeometry,
        matrices: Vec<BitMatrix>,
        skewed: bool,
    ) -> Result<Self, Error> {
        let m = geom.index_bits();
        let expected = if skewed { geom.ways() as usize } else { 1 };
        if matrices.len() != expected {
            return Err(Error::BadPolynomial {
                reason: format!(
                    "expected {expected} matrices for {} ways (skewed = {skewed}), got {}",
                    geom.ways(),
                    matrices.len()
                ),
            });
        }
        let input_bits = matrices[0].num_cols();
        for (i, mat) in matrices.iter().enumerate() {
            if mat.num_rows() != m {
                return Err(Error::BadPolynomial {
                    reason: format!(
                        "matrix {i} has {} rows, geometry needs {m} index bits",
                        mat.num_rows()
                    ),
                });
            }
            if mat.num_cols() != input_bits {
                return Err(Error::BadPolynomial {
                    reason: format!(
                        "matrix {i} has {} columns, matrix 0 has {input_bits}",
                        mat.num_cols()
                    ),
                });
            }
            if mat.rank() < m {
                return Err(Error::BadPolynomial {
                    reason: format!(
                        "matrix {i} has rank {} < {m}: some sets are unreachable",
                        mat.rank()
                    ),
                });
            }
        }
        let input_mask = if input_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << input_bits) - 1
        };
        Ok(XorMatrixIndex {
            matrices,
            input_bits,
            input_mask,
            sets: geom.num_sets(),
            ways: geom.ways(),
            skewed,
        })
    }

    /// Builds a placement with random `[I_m | R_w]` matrices over the
    /// paper-default address budget ([`PAPER_ADDRESS_BITS`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfRange`] if the budget leaves no tag-side bits
    /// (`address_bits <= offset + m`) — the scheme would degenerate to
    /// conventional placement.
    pub fn random(geom: CacheGeometry, skewed: bool, seed: u64) -> Result<Self, Error> {
        Self::random_with_address_bits(geom, skewed, seed, PAPER_ADDRESS_BITS)
    }

    /// Builds a placement with random `[I_m | R_w]` matrices over an
    /// explicit low-address-bit budget.
    ///
    /// # Errors
    ///
    /// See [`XorMatrixIndex::random`].
    pub fn random_with_address_bits(
        geom: CacheGeometry,
        skewed: bool,
        seed: u64,
        address_bits: u32,
    ) -> Result<Self, Error> {
        let m = geom.index_bits();
        let spent = geom.offset_bits() + m;
        if address_bits <= spent {
            return Err(Error::OutOfRange {
                what: "address bits",
                value: u64::from(address_bits),
                constraint: "> offset bits + index bits",
            });
        }
        let input_bits = (address_bits - geom.offset_bits()).min(64);
        let tag_bits = input_bits - m;
        let mut rng = SplitMix64::new(seed);
        let num_matrices = if skewed { geom.ways() as usize } else { 1 };
        let matrices = (0..num_matrices)
            .map(|_| {
                let rows = (0..m)
                    .map(|r| {
                        // Identity on the index field plus random tag-side
                        // mixing bits.
                        let mix = if tag_bits >= 64 {
                            rng.next_u64()
                        } else {
                            rng.next_u64() & ((1u64 << tag_bits) - 1)
                        };
                        (1u64 << r) | (mix << m)
                    })
                    .collect();
                BitMatrix::from_rows(rows, input_bits)
            })
            .collect();
        Self::from_matrices(geom, matrices, skewed)
    }

    /// The linear map used by `way`.
    ///
    /// # Panics
    ///
    /// Panics if `way >= ways()`.
    pub fn matrix(&self, way: u32) -> &BitMatrix {
        assert!(way < self.ways, "way {way} out of range");
        if self.skewed {
            &self.matrices[way as usize]
        } else {
            &self.matrices[0]
        }
    }

    /// Number of low block-address bits the map consumes.
    pub fn input_bits(&self) -> u32 {
        self.input_bits
    }
}

impl IndexFunction for XorMatrixIndex {
    #[inline]
    fn set_index(&self, block_addr: u64, way: u32) -> u32 {
        self.matrix(way).apply(block_addr & self.input_mask) as u32
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
            format!("a{}-Hxm-Sk", self.ways)
        } else {
            format!("a{}-Hxm", self.ways)
        }
    }

    fn input_bits(&self) -> u32 {
        self.input_bits
    }

    fn fill_table(&self, way: u32, out: &mut [u32]) {
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
    fn random_matrices_are_identity_plus_mix() {
        let f = XorMatrixIndex::random(geom(), false, 1).unwrap();
        let mat = f.matrix(0);
        assert_eq!(mat.num_rows(), 7);
        assert_eq!(mat.num_cols(), 14); // 19 - 5 offset bits
        for r in 0..7 {
            for c in 0..7 {
                assert_eq!(mat.get(r, c), u8::from(r == c), "identity block");
            }
        }
    }

    #[test]
    fn balanced_for_fixed_tag() {
        let f = XorMatrixIndex::random(geom(), true, 2).unwrap();
        for way in 0..2 {
            for tag in [0u64, 3, 99] {
                let seen: std::collections::HashSet<_> = (0..128u64)
                    .map(|f0| f.set_index((tag << 7) | f0, way))
                    .collect();
                assert_eq!(seen.len(), 128);
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = XorMatrixIndex::random(geom(), true, 7).unwrap();
        let b = XorMatrixIndex::random(geom(), true, 7).unwrap();
        for ba in 0..2048u64 {
            for w in 0..2 {
                assert_eq!(a.set_index(ba, w), b.set_index(ba, w));
            }
        }
    }

    #[test]
    fn subsumes_conventional_modulo() {
        // M = [I | 0] is exactly conventional placement.
        let mat = {
            let rows = (0..7).map(|r| 1u64 << r).collect();
            BitMatrix::from_rows(rows, 14)
        };
        let f = XorMatrixIndex::from_matrices(geom(), vec![mat], false).unwrap();
        for ba in 0..4096u64 {
            assert_eq!(f.set_index(ba, 0), (ba & 127) as u32);
        }
    }

    #[test]
    fn rejects_rank_deficient_matrix() {
        let mut rows: Vec<u64> = (0..7).map(|r| 1u64 << r).collect();
        rows[6] = rows[5]; // duplicate row: rank 6
        let mat = BitMatrix::from_rows(rows, 14);
        let err = XorMatrixIndex::from_matrices(geom(), vec![mat], false).unwrap_err();
        assert!(err.to_string().contains("rank"));
    }

    #[test]
    fn rejects_wrong_shapes_and_counts() {
        let ok = BitMatrix::identity(7);
        // Skewed needs one matrix per way.
        assert!(XorMatrixIndex::from_matrices(geom(), vec![ok.clone()], true).is_err());
        // Wrong row count.
        let bad = BitMatrix::identity(6);
        assert!(XorMatrixIndex::from_matrices(geom(), vec![bad], false).is_err());
        // Mismatched column counts across ways.
        let a = BitMatrix::identity(7);
        let mut b_rows: Vec<u64> = (0..7).map(|r| 1u64 << r).collect();
        b_rows[0] |= 1 << 8;
        let b = BitMatrix::from_rows(b_rows, 14);
        assert!(XorMatrixIndex::from_matrices(geom(), vec![a, b], true).is_err());
    }

    #[test]
    fn rejects_degenerate_budget() {
        let err = XorMatrixIndex::random_with_address_bits(geom(), false, 0, 12).unwrap_err();
        assert!(matches!(err, Error::OutOfRange { .. }));
    }

    #[test]
    fn spreads_power_of_two_column_stride() {
        let f = XorMatrixIndex::random(geom(), false, 11).unwrap();
        let seen: std::collections::HashSet<_> =
            (0..64u64).map(|i| f.set_index(i * 128, 0)).collect();
        assert!(seen.len() > 32, "random mixing should spread the stride");
    }

    #[test]
    fn labels() {
        assert_eq!(
            XorMatrixIndex::random(geom(), false, 0).unwrap().label(),
            "a2-Hxm"
        );
        assert_eq!(
            XorMatrixIndex::random(geom(), true, 0).unwrap().label(),
            "a2-Hxm-Sk"
        );
    }
}
