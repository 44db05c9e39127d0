//! Cache placement (index) functions.
//!
//! The paper's §2.1.1 defines block placement in a `w`-way cache with
//! `M = 2^m` sets by a set of indices `{i_1 … i_w}`, one per way, each
//! computed by a hash `h_v(A, P_k)` of the low `v` bits of the block
//! address. This module provides the trait abstracting that family and the
//! four concrete schemes evaluated in Figure 1 of the paper:
//!
//! | Label      | Scheme                                   | Type |
//! |------------|------------------------------------------|------|
//! | `a2`       | conventional modulo power-of-two          | [`ModuloIndex`] |
//! | `a2-Hx-Sk` | skewed two-field XOR (Seznec baseline)    | [`XorFoldIndex`] |
//! | `a2-Hp`    | I-Poly, same polynomial in every way      | [`IPolyIndex`] |
//! | `a2-Hp-Sk` | I-Poly, distinct polynomial per way       | [`IPolyIndex`] |
//!
//! In addition, the module implements the related-work placement schemes
//! the paper's §2.1 surveys as alternatives from the interleaved-memory
//! literature, so experiments can compare I-Poly against its historical
//! competitors rather than only against conventional indexing:
//!
//! | Label       | Scheme                                    | Type |
//! |-------------|-------------------------------------------|------|
//! | `a2-Hpr`    | prime-modulus (Lawrie–Vora \[16\])          | [`PrimeModIndex`] |
//! | `a2-Ha`     | additive skewing (Harper–Jump \[11\], Sohi \[24\]) | [`AddSkewIndex`] |
//! | `a2-Hr`     | random-table hashing (Raghavan–Hayes \[17\]) | [`RandTableIndex`] |
//! | `a2-Hxm`    | general XOR-matrix (Frailong et al. \[5\])  | [`XorMatrixIndex`] |

mod add_skew;
mod ipoly;
mod modulo;
mod prime;
mod prng;
mod rand_table;
mod table;
mod xor_fold;
mod xor_matrix;

pub use add_skew::AddSkewIndex;
pub use ipoly::IPolyIndex;
pub use modulo::ModuloIndex;
pub use prime::PrimeModIndex;
pub use rand_table::RandTableIndex;
pub use table::IndexTable;
pub use xor_fold::XorFoldIndex;
pub use xor_matrix::XorMatrixIndex;

use crate::error::Error;
use crate::geometry::CacheGeometry;
use cac_gf2::Poly;
use std::fmt;
use std::sync::Arc;

/// The number of low *address* bits the paper's experiments feed to the
/// I-Poly hash ("19 in the experiments reported in this paper", §3.4).
pub const PAPER_ADDRESS_BITS: u32 = 19;

/// A cache placement function: maps a block address to a set index, per
/// way.
///
/// Implementations must be pure functions of `(block_addr, way)` — the
/// simulators rely on replaying a placement decision giving the same
/// answer.
pub trait IndexFunction: fmt::Debug + Send + Sync {
    /// The set index (`< num_sets`) where `block_addr` may live in `way`.
    ///
    /// For non-skewed functions the result is independent of `way`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `way >= ways()`.
    fn set_index(&self, block_addr: u64, way: u32) -> u32;

    /// Number of sets this function indexes into.
    fn num_sets(&self) -> u32;

    /// Number of ways the function was built for.
    fn ways(&self) -> u32;

    /// `true` if different ways use different index functions (a *skewed*
    /// placement, §2.1.1).
    fn is_skewed(&self) -> bool;

    /// Paper-style label, e.g. `a2`, `a2-Hx-Sk`, `a2-Hp`, `a2-Hp-Sk`.
    fn label(&self) -> String;

    /// Number of low *block-address* bits the function depends on: for any
    /// block address `b` and way `w`,
    /// `set_index(b, w) == set_index(b & ((1 << input_bits()) - 1), w)`
    /// must hold (the hardware view: bits beyond `input_bits` are simply
    /// not wired into the hash).
    ///
    /// Functions that inspect every address bit (e.g. a prime modulus)
    /// return 64. The default is the conservative 64; implementations
    /// should override it with their true width so
    /// [`IndexTable`] can compile them into an
    /// exact lookup table.
    fn input_bits(&self) -> u32 {
        64
    }

    /// Writes `set_index(a, way)` for every `a` in `0..out.len()` into
    /// `out` (`out.len()` is a power of two).
    ///
    /// This is the bulk-evaluation hook [`IndexTable`]
    /// compiles placements through; the default calls [`set_index`] per
    /// entry. The GF(2)-linear placements (I-Poly, XOR-fold, XOR-matrix)
    /// override it with [`cac_gf2::xor_tree::fill_linear`], which
    /// evaluates the function only on unit inputs and fills the table in
    /// vectorizable rows.
    ///
    /// [`set_index`]: IndexFunction::set_index
    fn fill_table(&self, way: u32, out: &mut [u32]) {
        debug_assert!(out.len().is_power_of_two());
        for (a, slot) in out.iter_mut().enumerate() {
            *slot = self.set_index(a as u64, way);
        }
    }
}

/// Declarative specification of a placement scheme; [`IndexSpec::build`]
/// instantiates it for a concrete geometry.
///
/// This is the type to put in experiment configuration tables: it is
/// `Clone + Eq`, cheap, and independent of cache geometry.
///
/// # Example
///
/// ```
/// use cac_core::{CacheGeometry, IndexSpec};
///
/// let geom = CacheGeometry::new(8 * 1024, 32, 2)?;
/// for spec in [
///     IndexSpec::modulo(),
///     IndexSpec::xor_skewed(),
///     IndexSpec::ipoly(),
///     IndexSpec::ipoly_skewed(),
/// ] {
///     let f = spec.build(geom)?;
///     assert!(f.set_index(0xabcd, 0) < 128);
/// }
/// # Ok::<(), cac_core::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum IndexSpec {
    /// Conventional modulo power-of-two placement (paper label `a2`).
    Modulo,
    /// Two-field XOR placement; with `skewed` each way rotates the high
    /// field differently (paper label `a2-Hx-Sk`, the skewed-associative
    /// baseline of Seznec).
    XorFold {
        /// Use a distinct permutation per way.
        skewed: bool,
    },
    /// Polynomial-modulus placement (paper labels `a2-Hp` / `a2-Hp-Sk`).
    IPoly {
        /// Use a distinct polynomial per way.
        skewed: bool,
        /// Total low address bits fed to the hash (the paper's 19);
        /// `None` selects [`PAPER_ADDRESS_BITS`] capped to a sane range.
        address_bits: Option<u32>,
        /// Explicit modulus polynomials (one per way if `skewed`, exactly
        /// one otherwise); `None` selects minimum-fan-in irreducible
        /// polynomials automatically.
        polys: Option<Vec<Poly>>,
    },
    /// Prime-modulus placement (Lawrie–Vora \[16\]): block address modulo
    /// the largest prime not exceeding the set count.
    Prime {
        /// Multiply by a distinct non-zero constant per way.
        skewed: bool,
    },
    /// Additive skewing (Harper–Jump \[11\] / Sohi \[24\]):
    /// `(F0 + d_w * F1) mod 2^m` with odd per-way skew factors.
    AddSkew {
        /// Use a distinct odd multiplier per way.
        skewed: bool,
    },
    /// Table-driven pseudo-random placement (Raghavan–Hayes \[17\]):
    /// `T_w[F1] ^ F0` with seeded random tables.
    RandTable {
        /// Use a distinct random table per way.
        skewed: bool,
        /// Seed for the table contents (recorded so runs are replayable).
        seed: u64,
    },
    /// General GF(2) XOR-matrix placement (Frailong et al. \[5\]) with
    /// random `[I | R_w]` matrices.
    XorMatrix {
        /// Use a distinct random matrix per way.
        skewed: bool,
        /// Seed for the matrix contents.
        seed: u64,
    },
}

impl IndexSpec {
    /// Conventional modulo indexing (`a2`).
    pub fn modulo() -> Self {
        IndexSpec::Modulo
    }

    /// Non-skewed two-field XOR indexing.
    pub fn xor() -> Self {
        IndexSpec::XorFold { skewed: false }
    }

    /// Skewed two-field XOR indexing (`a2-Hx-Sk`).
    pub fn xor_skewed() -> Self {
        IndexSpec::XorFold { skewed: true }
    }

    /// Non-skewed I-Poly indexing (`a2-Hp`) with default polynomial and
    /// paper-default address bits.
    pub fn ipoly() -> Self {
        IndexSpec::IPoly {
            skewed: false,
            address_bits: None,
            polys: None,
        }
    }

    /// Skewed I-Poly indexing (`a2-Hp-Sk`) with default polynomials.
    pub fn ipoly_skewed() -> Self {
        IndexSpec::IPoly {
            skewed: true,
            address_bits: None,
            polys: None,
        }
    }

    /// I-Poly indexing with explicit polynomials (skewed iff more than one
    /// polynomial is supplied) and an explicit address-bit budget.
    pub fn ipoly_with(polys: Vec<Poly>, address_bits: u32) -> Self {
        IndexSpec::IPoly {
            skewed: polys.len() > 1,
            address_bits: Some(address_bits),
            polys: Some(polys),
        }
    }

    /// Prime-modulus indexing (Lawrie–Vora).
    pub fn prime() -> Self {
        IndexSpec::Prime { skewed: false }
    }

    /// Skewed prime-modulus indexing.
    pub fn prime_skewed() -> Self {
        IndexSpec::Prime { skewed: true }
    }

    /// Additive-skew indexing (Harper–Jump / Sohi), non-skewed across ways.
    pub fn add_skew() -> Self {
        IndexSpec::AddSkew { skewed: false }
    }

    /// Additive-skew indexing with distinct odd multipliers per way.
    pub fn add_skew_skewed() -> Self {
        IndexSpec::AddSkew { skewed: true }
    }

    /// Random-table indexing (Raghavan–Hayes) with a fixed default seed.
    pub fn rand_table() -> Self {
        IndexSpec::RandTable {
            skewed: false,
            seed: 0xcac,
        }
    }

    /// Skewed random-table indexing with a fixed default seed.
    pub fn rand_table_skewed() -> Self {
        IndexSpec::RandTable {
            skewed: true,
            seed: 0xcac,
        }
    }

    /// Random XOR-matrix indexing (Frailong et al.) with a fixed default
    /// seed.
    pub fn xor_matrix() -> Self {
        IndexSpec::XorMatrix {
            skewed: false,
            seed: 0xcac,
        }
    }

    /// Skewed random XOR-matrix indexing with a fixed default seed.
    pub fn xor_matrix_skewed() -> Self {
        IndexSpec::XorMatrix {
            skewed: true,
            seed: 0xcac,
        }
    }

    /// All placement specs compared in the related-work study (E11),
    /// in presentation order: the paper's four Figure-1 schemes followed
    /// by the four §2.1 related-work baselines (skewed variants).
    pub fn related_work_suite() -> Vec<IndexSpec> {
        vec![
            IndexSpec::modulo(),
            IndexSpec::xor_skewed(),
            IndexSpec::ipoly(),
            IndexSpec::ipoly_skewed(),
            IndexSpec::prime_skewed(),
            IndexSpec::add_skew_skewed(),
            IndexSpec::rand_table_skewed(),
            IndexSpec::xor_matrix_skewed(),
        ]
    }

    /// Every spec reachable by [`IndexSpec::parse`], in presentation
    /// order (default seeds for the seeded schemes).
    pub fn named_specs() -> Vec<IndexSpec> {
        vec![
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
        ]
    }

    /// Resolves a scheme name as printed by [`IndexSpec::name`]
    /// (`modulo`, `ipoly-skew`, ...). This is the parsing hook the CLI
    /// and the declarative configuration layer (`cac_sim::config`) share.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] naming the valid schemes.
    ///
    /// # Example
    ///
    /// ```
    /// use cac_core::IndexSpec;
    ///
    /// assert_eq!(IndexSpec::parse("ipoly-skew")?, IndexSpec::ipoly_skewed());
    /// assert!(IndexSpec::parse("md5").is_err());
    /// # Ok::<(), cac_core::Error>(())
    /// ```
    pub fn parse(name: &str) -> Result<IndexSpec, Error> {
        IndexSpec::named_specs()
            .into_iter()
            .find(|s| s.name() == name)
            .ok_or_else(|| {
                Error::config(format!(
                    "unknown index scheme {name:?}; valid schemes: {}",
                    IndexSpec::named_specs()
                        .iter()
                        .map(IndexSpec::name)
                        .collect::<Vec<_>>()
                        .join(", ")
                ))
            })
    }

    /// Instantiates the placement function for `geom`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadPolynomial`] if explicit polynomials do not
    /// match the geometry (wrong degree or count) and
    /// [`Error::OutOfRange`] if the address-bit budget is not strictly
    /// larger than the index width (the scheme would degenerate to
    /// conventional placement).
    pub fn build(&self, geom: CacheGeometry) -> Result<Arc<dyn IndexFunction>, Error> {
        match self {
            IndexSpec::Modulo => Ok(Arc::new(ModuloIndex::new(geom))),
            IndexSpec::XorFold { skewed } => Ok(Arc::new(XorFoldIndex::new(geom, *skewed))),
            IndexSpec::IPoly {
                skewed,
                address_bits,
                polys,
            } => {
                let f = IPolyIndex::from_parts(geom, *skewed, *address_bits, polys.clone())?;
                Ok(Arc::new(f))
            }
            IndexSpec::Prime { skewed } => Ok(Arc::new(PrimeModIndex::new(geom, *skewed))),
            IndexSpec::AddSkew { skewed } => Ok(Arc::new(AddSkewIndex::new(geom, *skewed))),
            IndexSpec::RandTable { skewed, seed } => {
                Ok(Arc::new(RandTableIndex::new(geom, *skewed, *seed)))
            }
            IndexSpec::XorMatrix { skewed, seed } => {
                let f = XorMatrixIndex::random(geom, *skewed, *seed)?;
                Ok(Arc::new(f))
            }
        }
    }

    /// Instantiates the placement function for `geom` and compiles it
    /// into flat per-way lookup tables (see [`IndexTable`]).
    ///
    /// This is what the simulators call: the returned table answers
    /// `set_index` with a single load for every scheme narrow enough to
    /// tabulate, and transparently keeps the computed path otherwise.
    ///
    /// # Errors
    ///
    /// Same validation as [`IndexSpec::build`].
    pub fn build_table(&self, geom: CacheGeometry) -> Result<IndexTable, Error> {
        Ok(IndexTable::compile(self.build(geom)?))
    }

    /// Short lowercase name for file/CLI use: `modulo`, `xor`, `xor-skew`,
    /// `ipoly`, `ipoly-skew`, `prime`, `add-skew`, `rand-table`,
    /// `xor-matrix` (with `-skew` suffixes for the skewed variants).
    pub fn name(&self) -> &'static str {
        match self {
            IndexSpec::Modulo => "modulo",
            IndexSpec::XorFold { skewed: false } => "xor",
            IndexSpec::XorFold { skewed: true } => "xor-skew",
            IndexSpec::IPoly { skewed: false, .. } => "ipoly",
            IndexSpec::IPoly { skewed: true, .. } => "ipoly-skew",
            IndexSpec::Prime { skewed: false } => "prime",
            IndexSpec::Prime { skewed: true } => "prime-skew",
            IndexSpec::AddSkew { skewed: false } => "add-skew",
            IndexSpec::AddSkew { skewed: true } => "add-skew-skew",
            IndexSpec::RandTable { skewed: false, .. } => "rand-table",
            IndexSpec::RandTable { skewed: true, .. } => "rand-table-skew",
            IndexSpec::XorMatrix { skewed: false, .. } => "xor-matrix",
            IndexSpec::XorMatrix { skewed: true, .. } => "xor-matrix-skew",
        }
    }
}

impl fmt::Display for IndexSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> CacheGeometry {
        CacheGeometry::new(8 * 1024, 32, 2).unwrap()
    }

    /// Every buildable spec, for exhaustive smoke tests.
    fn all_specs() -> Vec<IndexSpec> {
        vec![
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
        ]
    }

    #[test]
    fn build_all_specs() {
        for spec in all_specs() {
            let f = spec.build(geom()).unwrap();
            assert_eq!(f.num_sets(), 128, "{spec}");
            assert_eq!(f.ways(), 2, "{spec}");
            for ba in [0u64, 1, 0x7f, 0x80, 0xdead, 0x3fff] {
                for w in 0..2 {
                    assert!(f.set_index(ba, w) < 128, "{spec}");
                }
            }
        }
    }

    #[test]
    fn all_specs_have_distinct_names() {
        let names: std::collections::HashSet<_> = all_specs().iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), all_specs().len());
    }

    #[test]
    fn related_work_suite_builds() {
        let suite = IndexSpec::related_work_suite();
        assert_eq!(suite.len(), 8);
        for spec in suite {
            let f = spec.build(geom()).unwrap();
            assert!(f.set_index(0xdead_beef, 0) < 128, "{spec}");
        }
    }

    #[test]
    fn skew_flags_propagate() {
        assert!(!IndexSpec::modulo().build(geom()).unwrap().is_skewed());
        assert!(!IndexSpec::xor().build(geom()).unwrap().is_skewed());
        assert!(IndexSpec::xor_skewed().build(geom()).unwrap().is_skewed());
        assert!(!IndexSpec::ipoly().build(geom()).unwrap().is_skewed());
        assert!(IndexSpec::ipoly_skewed().build(geom()).unwrap().is_skewed());
        assert!(IndexSpec::prime_skewed().build(geom()).unwrap().is_skewed());
        assert!(IndexSpec::add_skew_skewed()
            .build(geom())
            .unwrap()
            .is_skewed());
        assert!(IndexSpec::rand_table_skewed()
            .build(geom())
            .unwrap()
            .is_skewed());
        assert!(IndexSpec::xor_matrix_skewed()
            .build(geom())
            .unwrap()
            .is_skewed());
    }

    #[test]
    fn paper_labels() {
        assert_eq!(IndexSpec::modulo().build(geom()).unwrap().label(), "a2");
        assert_eq!(
            IndexSpec::xor_skewed().build(geom()).unwrap().label(),
            "a2-Hx-Sk"
        );
        assert_eq!(IndexSpec::ipoly().build(geom()).unwrap().label(), "a2-Hp");
        assert_eq!(
            IndexSpec::ipoly_skewed().build(geom()).unwrap().label(),
            "a2-Hp-Sk"
        );
    }

    #[test]
    fn names_and_display() {
        assert_eq!(IndexSpec::modulo().name(), "modulo");
        assert_eq!(IndexSpec::xor().name(), "xor");
        assert_eq!(IndexSpec::xor_skewed().to_string(), "xor-skew");
        assert_eq!(IndexSpec::ipoly().to_string(), "ipoly");
        assert_eq!(IndexSpec::ipoly_skewed().name(), "ipoly-skew");
    }

    #[test]
    fn parse_round_trips_every_named_spec() {
        for spec in IndexSpec::named_specs() {
            assert_eq!(IndexSpec::parse(spec.name()).unwrap(), spec);
        }
        let err = IndexSpec::parse("nope").unwrap_err();
        assert!(err.to_string().contains("ipoly-skew"), "{err}");
    }

    #[test]
    fn non_skewed_functions_ignore_way() {
        for spec in [
            IndexSpec::modulo(),
            IndexSpec::xor(),
            IndexSpec::ipoly(),
            IndexSpec::prime(),
            IndexSpec::add_skew(),
            IndexSpec::rand_table(),
            IndexSpec::xor_matrix(),
        ] {
            let f = spec.build(geom()).unwrap();
            for ba in 0u64..512 {
                assert_eq!(f.set_index(ba, 0), f.set_index(ba, 1), "{spec}");
            }
        }
    }

    #[test]
    fn skewed_functions_differ_somewhere() {
        for spec in [
            IndexSpec::xor_skewed(),
            IndexSpec::ipoly_skewed(),
            IndexSpec::prime_skewed(),
            IndexSpec::add_skew_skewed(),
            IndexSpec::rand_table_skewed(),
            IndexSpec::xor_matrix_skewed(),
        ] {
            let f = spec.build(geom()).unwrap();
            let differs = (0u64..4096).any(|ba| f.set_index(ba, 0) != f.set_index(ba, 1));
            assert!(differs, "{spec} never differs between ways");
        }
    }
}
