//! I-Poly placement: irreducible-polynomial-modulus hashing (`a2-Hp`,
//! `a2-Hp-Sk`) — the paper's proposed conflict-avoiding index function.

use crate::error::Error;
use crate::geometry::CacheGeometry;
use crate::index::{IndexFunction, PAPER_ADDRESS_BITS};
use cac_gf2::irreducible::{irreducibles, is_irreducible};
use cac_gf2::xor_tree::{fill_linear, XorTree};
use cac_gf2::Poly;

/// Polynomial-modulus placement (paper §2.1.1).
///
/// The low `v` bits of the block address are interpreted as a polynomial
/// `A(x)` over GF(2) and the set index of way `k` is
/// `A(x) mod P_k(x)`, with `deg(P_k) = m = log2(sets)`. Distinct `P_k`
/// per way skews the cache; a single shared `P` does not.
///
/// Construction synthesises one [`XorTree`] per way, so the per-access
/// cost is `m` AND+parity operations — the software analogue of the
/// `m` XOR gates a hardware implementation needs.
///
/// # Example
///
/// ```
/// use cac_core::{CacheGeometry, index::{IndexFunction, IPolyIndex}};
///
/// let geom = CacheGeometry::new(8 * 1024, 32, 2)?;
/// let f = IPolyIndex::new(geom, true)?; // skewed, auto-selected polynomials
/// assert_eq!(f.label(), "a2-Hp-Sk");
/// assert!(f.max_fan_in() <= 5); // the paper's §3.4 implementation claim
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct IPolyIndex {
    trees: Vec<XorTree>,
    sets: u32,
    ways: u32,
    skewed: bool,
    input_bits: u32,
}

impl IPolyIndex {
    /// Builds an I-Poly placement with automatically selected
    /// minimum-fan-in irreducible polynomials and the paper's default
    /// address-bit budget ([`PAPER_ADDRESS_BITS`]).
    ///
    /// # Errors
    ///
    /// Returns an error if the geometry leaves fewer hash input bits than
    /// index bits (see [`IPolyIndex::from_parts`]).
    pub fn new(geom: CacheGeometry, skewed: bool) -> Result<Self, Error> {
        Self::from_parts(geom, skewed, None, None)
    }

    /// Builds an I-Poly placement from explicit parts.
    ///
    /// * `address_bits` — total low address bits available to the hash
    ///   (the paper's 19); the hash input width is
    ///   `v = address_bits - offset_bits`. `None` chooses
    ///   `max(PAPER_ADDRESS_BITS, offset + 2m)` so the scheme is always
    ///   meaningful for large geometries.
    /// * `polys` — explicit modulus polynomials. With `skewed` there must
    ///   be exactly `ways` of them, otherwise exactly one. `None`
    ///   auto-selects irreducible polynomials of degree `m`, preferring
    ///   low XOR fan-in.
    ///
    /// # Errors
    ///
    /// * [`Error::OutOfRange`] if `v <= m` (the paper requires
    ///   `m < v`, otherwise the scheme degenerates to conventional
    ///   placement) or `v > 64`.
    /// * [`Error::BadPolynomial`] if explicit polynomials have the wrong
    ///   degree or count. Reducible polynomials are *allowed* (the paper:
    ///   "for best performance P will be an irreducible polynomial, though
    ///   it need not be so") — irreducibility is only enforced for
    ///   auto-selected polynomials.
    pub fn from_parts(
        geom: CacheGeometry,
        skewed: bool,
        address_bits: Option<u32>,
        polys: Option<Vec<Poly>>,
    ) -> Result<Self, Error> {
        let m = geom.index_bits();
        let offset = geom.offset_bits();
        if m == 0 {
            // A single set (fully-associative geometry): every placement
            // degenerates to the constant index 0, and there is no
            // polynomial of degree 0 to select.
            return Ok(IPolyIndex {
                trees: Vec::new(),
                sets: 1,
                ways: geom.ways(),
                skewed,
                input_bits: 0,
            });
        }
        let address_bits = address_bits.unwrap_or_else(|| PAPER_ADDRESS_BITS.max(offset + 2 * m));
        if address_bits <= offset {
            return Err(Error::OutOfRange {
                what: "address bits",
                value: u64::from(address_bits),
                constraint: "> block offset bits",
            });
        }
        let v = address_bits - offset;
        if v <= m {
            return Err(Error::OutOfRange {
                what: "hash input bits (v)",
                value: u64::from(v),
                constraint: "> index bits (m)",
            });
        }
        if v > 64 {
            return Err(Error::OutOfRange {
                what: "hash input bits (v)",
                value: u64::from(v),
                constraint: "<= 64",
            });
        }
        let wanted = if skewed { geom.ways() as usize } else { 1 };
        let polys = match polys {
            Some(ps) => {
                if ps.len() != wanted {
                    return Err(Error::BadPolynomial {
                        reason: format!("expected {wanted} polynomial(s), got {}", ps.len()),
                    });
                }
                for &p in &ps {
                    if p.degree() != Some(m) {
                        return Err(Error::BadPolynomial {
                            reason: format!(
                                "polynomial {p} has degree {:?}, geometry needs {m}",
                                p.degree()
                            ),
                        });
                    }
                }
                ps
            }
            None => select_polys(m, v, wanted)?,
        };
        let trees: Vec<XorTree> = if skewed {
            polys.iter().map(|&p| XorTree::new(p, v)).collect()
        } else {
            vec![XorTree::new(polys[0], v)]
        };
        Ok(IPolyIndex {
            trees,
            sets: geom.num_sets(),
            ways: geom.ways(),
            skewed,
            input_bits: v,
        })
    }

    /// The modulus polynomial used by a way.
    ///
    /// # Panics
    ///
    /// Panics if `way >= ways()`.
    pub fn poly(&self, way: u32) -> Poly {
        self.tree(way).poly()
    }

    /// The synthesised XOR tree of a way.
    ///
    /// # Panics
    ///
    /// Panics if `way >= ways()`.
    pub fn tree(&self, way: u32) -> &XorTree {
        assert!(way < self.ways, "way {way} out of range");
        if self.skewed {
            &self.trees[way as usize]
        } else {
            &self.trees[0]
        }
    }

    /// Hash input width `v` in block-address bits.
    pub fn input_bits(&self) -> u32 {
        self.input_bits
    }

    /// Largest XOR fan-in over all ways and index bits (§3.4).
    pub fn max_fan_in(&self) -> u32 {
        self.trees
            .iter()
            .map(XorTree::max_fan_in)
            .max()
            .unwrap_or(0)
    }
}

/// Selects `count` irreducible polynomials of degree `m`, preferring
/// those whose XOR trees over `v` input bits have the smallest maximum
/// fan-in (ties broken by bit pattern, so selection is deterministic).
///
/// The paper's `P_k` are "possibly distinct" (§2.1.1); when fewer
/// irreducible polynomials of degree `m` exist than ways requested (only
/// tiny degrees are affected), the selection cycles through the available
/// ones.
fn select_polys(m: u32, v: u32, count: usize) -> Result<Vec<Poly>, Error> {
    let mut candidates: Vec<(u32, Poly)> = irreducibles(m)
        .map(|p| (XorTree::new(p, v).max_fan_in(), p))
        .collect();
    candidates.sort_by_key(|&(fan_in, p)| (fan_in, p.bits()));
    debug_assert!(!candidates.is_empty());
    let chosen: Vec<Poly> = candidates
        .iter()
        .cycle()
        .take(count)
        .map(|&(_, p)| p)
        .collect();
    debug_assert!(chosen.iter().all(|&p| is_irreducible(p)));
    Ok(chosen)
}

impl IndexFunction for IPolyIndex {
    #[inline]
    fn set_index(&self, block_addr: u64, way: u32) -> u32 {
        if self.trees.is_empty() {
            return 0; // single-set degenerate geometry
        }
        let tree = if self.skewed {
            &self.trees[way as usize]
        } else {
            &self.trees[0]
        };
        tree.apply(block_addr) as u32
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
            format!("a{}-Hp-Sk", self.ways)
        } else {
            format!("a{}-Hp", self.ways)
        }
    }

    fn input_bits(&self) -> u32 {
        self.input_bits
    }

    fn fill_table(&self, way: u32, out: &mut [u32]) {
        if self.trees.is_empty() {
            out.fill(0);
            return;
        }
        let tree = self.tree(way);
        fill_linear(out, |a| tree.apply(a) as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cac_gf2::default_poly;

    #[test]
    fn fully_associative_geometry_degenerates_to_constant_zero() {
        let geom = CacheGeometry::fully_associative(8 * 1024, 32).unwrap();
        let f = IPolyIndex::new(geom, true).unwrap();
        assert_eq!(f.num_sets(), 1);
        assert_eq!(f.input_bits(), 0);
        assert_eq!(f.max_fan_in(), 0);
        for addr in [0u64, 1, 0xdead_beef, u64::MAX] {
            for w in 0..4 {
                assert_eq!(f.set_index(addr, w), 0);
            }
        }
    }

    fn geom() -> CacheGeometry {
        CacheGeometry::new(8 * 1024, 32, 2).unwrap()
    }

    #[test]
    fn matches_polynomial_division() {
        let f = IPolyIndex::new(geom(), false).unwrap();
        let p = f.poly(0);
        for ba in 0u64..(1 << 14) {
            let expected = Poly::from_bits(ba as u128).rem(p).bits() as u64;
            assert_eq!(u64::from(f.set_index(ba, 0)), expected);
        }
    }

    #[test]
    fn skewed_uses_distinct_polynomials() {
        let f = IPolyIndex::new(geom(), true).unwrap();
        assert_ne!(f.poly(0), f.poly(1));
        assert!(is_irreducible(f.poly(0)));
        assert!(is_irreducible(f.poly(1)));
        assert_eq!(f.poly(0).degree(), Some(7));
    }

    #[test]
    fn default_input_width_matches_paper() {
        // 19 address bits - 5 offset bits = 14 hash input bits.
        let f = IPolyIndex::new(geom(), true).unwrap();
        assert_eq!(f.input_bits(), 14);
        assert!(f.max_fan_in() <= 5, "fan-in {}", f.max_fan_in());
    }

    #[test]
    fn explicit_polynomials_accepted() {
        let p = default_poly(7);
        let f = IPolyIndex::from_parts(geom(), false, Some(19), Some(vec![p])).unwrap();
        assert_eq!(f.poly(0), p);
        assert_eq!(f.poly(1), p); // unskewed: same for both ways
    }

    #[test]
    fn reducible_polynomial_allowed_but_validated_for_degree() {
        // x^7 (reducible) has degree 7 and must be accepted: the paper says
        // irreducibility is for best performance, not correctness.
        let f =
            IPolyIndex::from_parts(geom(), false, Some(19), Some(vec![Poly::monomial(7)])).unwrap();
        // With P = x^7 the scheme degenerates to conventional indexing.
        for ba in 0u64..256 {
            assert_eq!(f.set_index(ba, 0), (ba & 0x7f) as u32);
        }
    }

    #[test]
    fn wrong_degree_rejected() {
        let err = IPolyIndex::from_parts(geom(), false, Some(19), Some(vec![default_poly(6)]))
            .unwrap_err();
        assert!(matches!(err, Error::BadPolynomial { .. }));
    }

    #[test]
    fn wrong_count_rejected() {
        let err = IPolyIndex::from_parts(
            geom(),
            true,
            Some(19),
            Some(vec![default_poly(7)]), // skewed 2-way needs 2
        )
        .unwrap_err();
        assert!(matches!(err, Error::BadPolynomial { .. }));
    }

    #[test]
    fn degenerate_input_width_rejected() {
        // v = m would be conventional placement; the constructor refuses.
        let err = IPolyIndex::from_parts(geom(), false, Some(12), None).unwrap_err();
        assert!(matches!(err, Error::OutOfRange { .. }));
        let err = IPolyIndex::from_parts(geom(), false, Some(3), None).unwrap_err();
        assert!(matches!(err, Error::OutOfRange { .. }));
    }

    #[test]
    fn power_of_two_strides_are_conflict_free() {
        // Rau's fundamental property (paper §2.1.2): 2^k strides produce
        // conflict-free sequences — any 128 consecutive elements of the
        // strided sequence map to 128 distinct sets.
        let f = IPolyIndex::new(geom(), false).unwrap();
        for k in 0..=7u32 {
            let stride = 1u64 << k;
            let mut seen = [false; 128];
            for i in 0..128u64 {
                let set = f.set_index(i * stride, 0) as usize;
                assert!(!seen[set], "stride 2^{k}: set {set} repeated");
                seen[set] = true;
            }
        }
    }

    #[test]
    fn large_geometry_auto_widens_input() {
        // 1MB 2-way, 32B blocks: m = 14, so the default 19 address bits
        // would give v = 14 = m; the constructor must widen to 2m.
        let g = CacheGeometry::new(1 << 20, 32, 2).unwrap();
        let f = IPolyIndex::new(g, true).unwrap();
        assert!(f.input_bits() > g.index_bits());
    }

    #[test]
    fn label_reflects_skew() {
        assert_eq!(IPolyIndex::new(geom(), false).unwrap().label(), "a2-Hp");
        assert_eq!(IPolyIndex::new(geom(), true).unwrap().label(), "a2-Hp-Sk");
    }

    #[test]
    #[should_panic(expected = "way 2 out of range")]
    fn tree_way_bounds_checked() {
        let f = IPolyIndex::new(geom(), true).unwrap();
        let _ = f.tree(2);
    }
}
