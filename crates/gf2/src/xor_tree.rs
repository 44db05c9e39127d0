//! XOR-tree synthesis of the polynomial-modulus hash.
//!
//! `A(x) mod P(x)` is linear over GF(2) in the coefficients of `A`, so the
//! map from `v` input (block-address) bits to `m = deg(P)` index bits can be
//! precomputed as `m` bit-masks: index bit `i` is the XOR (parity) of the
//! input bits selected by `mask_i`. This is precisely the hardware structure
//! the paper describes in §3: *"bit 0 of the cache index may be computed as
//! the exclusive-OR of bits 0, 11, 14, and 19 of the original address"*,
//! and §3.4's claim that fan-in never exceeds 5 for the polynomials used in
//! the evaluation is checked by [`XorTree::max_fan_in`].

use crate::matrix::BitMatrix;
use crate::poly::Poly;

/// A synthesised XOR tree computing `A(x) mod P(x)` on `v` input bits.
///
/// Construction is `O(v)` polynomial reductions; application is `m`
/// mask-and-parity operations, independent of the polynomial.
///
/// # Example
///
/// ```
/// use cac_gf2::{Poly, XorTree, default_poly};
///
/// let p = default_poly(7);
/// let tree = XorTree::new(p, 14);
/// // The tree agrees with long division for every input.
/// let a = 0x2b57u64;
/// assert_eq!(tree.apply(a), Poly::from_bits(a as u128).rem(p).bits() as u64);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorTree {
    poly: Poly,
    input_bits: u32,
    output_bits: u32,
    /// `masks[i]` selects the input bits XOR-ed to produce index bit `i`.
    masks: Vec<u64>,
}

impl XorTree {
    /// Synthesises the XOR tree for modulus `poly` over `input_bits` input
    /// bits.
    ///
    /// `input_bits` is the paper's `v`: the number of low block-address bits
    /// fed to the hash. For the evaluation in the paper, `v = 14` block
    /// address bits (19 address bits minus the 5-bit block offset).
    ///
    /// # Panics
    ///
    /// Panics if `poly` has degree 0 (or is zero), or if
    /// `input_bits > 64`.
    pub fn new(poly: Poly, input_bits: u32) -> Self {
        let m = poly.degree().expect("modulus must be non-zero");
        assert!(m >= 1, "modulus must have degree >= 1");
        assert!(input_bits <= 64, "at most 64 input bits supported");
        let mut masks = vec![0u64; m as usize];
        // x^j mod P contributes its coefficient i to mask_i at input bit j.
        // x^{j+1} mod P is x^j mod P shifted up one place, reduced by P
        // when the shift reaches degree m.
        let top = 1u128 << m;
        let mut xj = 1u128; // x^0, already reduced: m >= 1
        for j in 0..input_bits {
            let mut coeffs = xj;
            while coeffs != 0 {
                masks[coeffs.trailing_zeros() as usize] |= 1u64 << j;
                coeffs &= coeffs - 1;
            }
            xj <<= 1;
            if xj & top != 0 {
                xj ^= poly.bits();
            }
        }
        XorTree {
            poly,
            input_bits,
            output_bits: m,
            masks,
        }
    }

    /// The modulus polynomial this tree implements.
    #[inline]
    pub fn poly(&self) -> Poly {
        self.poly
    }

    /// Number of input bits (`v`).
    #[inline]
    pub fn input_bits(&self) -> u32 {
        self.input_bits
    }

    /// Number of output (index) bits (`m = deg(P)`).
    #[inline]
    pub fn output_bits(&self) -> u32 {
        self.output_bits
    }

    /// The input-bit selection mask of output bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= output_bits`.
    #[inline]
    pub fn mask(&self, i: u32) -> u64 {
        self.masks[i as usize]
    }

    /// Applies the hash: each output bit is the parity of the masked input.
    ///
    /// Input bits at or beyond [`XorTree::input_bits`] are ignored, mirroring
    /// hardware that simply does not wire them in.
    #[inline]
    pub fn apply(&self, input: u64) -> u64 {
        let mut out = 0u64;
        for (i, &mask) in self.masks.iter().enumerate() {
            out |= (((input & mask).count_ones() & 1) as u64) << i;
        }
        out
    }

    /// Synthesises the full lookup table of this hash over the low `bits`
    /// input bits: entry `a` is `self.apply(a)` for every
    /// `a < 2^bits`.
    ///
    /// This is the construction the LUT-compiled placement functions
    /// (`cac_core::index::IndexTable`) and the column-associative
    /// rehash rely on to make cache construction cheap enough for large
    /// sweeps; see [`fill_linear`] for how it is built.
    ///
    /// # Panics
    ///
    /// Panics if `bits > 26` (a 256 MiB table — almost certainly a bug)
    /// or `bits > input_bits` (entries beyond the wired inputs would all
    /// alias).
    pub fn apply_table(&self, bits: u32) -> Vec<u32> {
        assert!(bits <= 26, "table over {bits} bits is unreasonably large");
        assert!(
            bits <= self.input_bits,
            "table bits {bits} exceed wired input bits {}",
            self.input_bits
        );
        let mut table = vec![0u32; 1usize << bits];
        fill_linear(&mut table, |a| self.apply(a) as u32);
        table
    }

    /// Fan-in of the XOR gate producing output bit `i` (number of input
    /// bits wired into it).
    ///
    /// # Panics
    ///
    /// Panics if `i >= output_bits`.
    #[inline]
    pub fn fan_in(&self, i: u32) -> u32 {
        self.masks[i as usize].count_ones()
    }

    /// Maximum XOR fan-in over all output bits. The paper reports this is at
    /// most 5 for the degree-7 polynomials used in its experiments (§3.4).
    pub fn max_fan_in(&self) -> u32 {
        (0..self.output_bits)
            .map(|i| self.fan_in(i))
            .max()
            .unwrap_or(0)
    }

    /// Estimated gate depth of a balanced tree of 2-input XOR gates
    /// implementing the widest output bit: `ceil(log2(max_fan_in))`.
    pub fn gate_depth(&self) -> u32 {
        let f = self.max_fan_in();
        if f <= 1 {
            0
        } else {
            32 - (f - 1).leading_zeros()
        }
    }

    /// The tree as an explicit GF(2) matrix (rows = index bits, columns =
    /// input bits).
    pub fn to_matrix(&self) -> BitMatrix {
        BitMatrix::from_rows(self.masks.clone(), self.input_bits.max(1))
    }

    /// Checks Rau's stride-insensitivity condition for stride `2^k`:
    /// a sequence of `M = 2^m` consecutive multiples of `2^k` (within the
    /// input width) maps one-to-one onto the `2^m` cache sets iff the map
    /// restricted to input columns `k..k+m` has full rank.
    ///
    /// Returns `false` (rather than panicking) when fewer than `m` columns
    /// remain above bit `k`, since a full-rank restriction is impossible.
    pub fn is_stride_conflict_free(&self, k: u32) -> bool {
        let m = self.output_bits;
        if k + m > self.input_bits {
            return false;
        }
        self.to_matrix().restrict_columns(k, m).rank() == m
    }
}

/// Fills `out` with `f(a)` for every `a < out.len()`, where `f` is
/// GF(2)-linear: `f(a ^ b) == f(a) ^ f(b)`, so `f(0)` is zero. XOR
/// trees, bit selections, XOR folds and XOR matrices all are.
///
/// Linearity splits an index `a = hi‖lo` (the low half of its bits in
/// `lo`) into `f(a) = H[hi] ^ L[lo]`, with `L[lo] = f(lo)` and
/// `H[hi] = f(hi << lo_bits)`. Both half tables are built by the
/// lowest-set-bit recurrence `T[x] = T[x & (x - 1)] ^ f(lowest bit of
/// x)`, so `f` runs only on the `log2(out.len())` unit inputs; then each
/// row of `out` is `H[hi]` XOR-ed into a copy of `L`, a loop without
/// dependences between entries that the compiler vectorizes. (Filling
/// the whole table by the recurrence chains every entry to an earlier
/// one through memory: about 1.3 ns an entry against a fraction of one.)
///
/// # Panics
///
/// Panics if `out.len()` is not a power of two.
pub fn fill_linear(out: &mut [u32], f: impl Fn(u64) -> u32) {
    assert!(
        out.len().is_power_of_two(),
        "table length {} is not a power of two",
        out.len()
    );
    let bits = out.len().trailing_zeros();
    let lo_bits = bits.div_ceil(2);
    let units: Vec<u32> = (0..bits).map(|j| f(1u64 << j)).collect();
    let (low, rows) = out.split_at_mut(1usize << lo_bits);
    span_table(low, &units[..lo_bits as usize]);
    let mut heads = vec![0u32; 1usize << (bits - lo_bits)];
    span_table(&mut heads, &units[lo_bits as usize..]);
    for (row, &head) in rows.chunks_exact_mut(low.len()).zip(&heads[1..]) {
        for (entry, &l) in row.iter_mut().zip(low.iter()) {
            *entry = head ^ l;
        }
    }
}

/// `table[x]` = XOR of `units[j]` over the set bits `j` of `x`.
fn span_table(table: &mut [u32], units: &[u32]) {
    table[0] = 0;
    for x in 1..table.len() {
        table[x] = table[x & (x - 1)] ^ units[x.trailing_zeros() as usize];
    }
}

/// Searches the irreducible polynomials of `degree` for the one whose XOR
/// tree over `input_bits` has the smallest maximum fan-in (ties broken by
/// smaller bit pattern).
///
/// The paper notes (§3.4) that for the polynomials used in its experiments
/// the XOR fan-in "is never higher than 5"; this is a property of *chosen*
/// polynomials, not of every irreducible polynomial, and this function
/// performs that choice.
///
/// # Panics
///
/// Panics if `degree` is 0 or exceeds [`crate::irreducible::MAX_DEGREE`],
/// or if `input_bits > 64`.
///
/// # Example
///
/// ```
/// use cac_gf2::xor_tree::{min_fan_in_poly, XorTree};
///
/// let p = min_fan_in_poly(7, 14);
/// assert!(XorTree::new(p, 14).max_fan_in() <= 5);
/// ```
pub fn min_fan_in_poly(degree: u32, input_bits: u32) -> Poly {
    crate::irreducible::irreducibles(degree)
        .min_by_key(|&p| XorTree::new(p, input_bits).max_fan_in())
        .expect("an irreducible polynomial exists for every degree >= 1")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::irreducible::{default_poly, irreducibles};

    #[test]
    fn tree_matches_long_division_exhaustively() {
        let p = default_poly(5);
        let tree = XorTree::new(p, 12);
        for a in 0u64..(1 << 12) {
            let expected = Poly::from_bits(a as u128).rem(p).bits() as u64;
            assert_eq!(tree.apply(a), expected, "a = {a:#x}");
        }
    }

    #[test]
    fn tree_matches_long_division_random_wide() {
        let p = default_poly(10);
        let tree = XorTree::new(p, 40);
        let mut state = 0x1234_5678_9abc_def0u64;
        for _ in 0..2000 {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let a = state & ((1u64 << 40) - 1);
            let expected = Poly::from_bits(a as u128).rem(p).bits() as u64;
            assert_eq!(tree.apply(a), expected);
        }
    }

    #[test]
    fn power_of_two_modulus_is_bit_selection() {
        // P = x^m  =>  index = low m bits (conventional indexing).
        let tree = XorTree::new(Poly::monomial(7), 20);
        for a in [0u64, 1, 127, 128, 0xdead_beef] {
            assert_eq!(tree.apply(a), a & 0x7f);
        }
        assert_eq!(tree.max_fan_in(), 1);
        assert_eq!(tree.gate_depth(), 0);
    }

    #[test]
    fn ignores_bits_beyond_input_width() {
        let p = default_poly(7);
        let tree = XorTree::new(p, 14);
        let a = 0x3fffu64;
        assert_eq!(tree.apply(a), tree.apply(a | 0xffff_c000));
    }

    #[test]
    fn paper_fan_in_claim_for_degree_7_trees() {
        // §3.4: for the polynomials used in the paper's experiments the
        // number of XOR inputs is never higher than 5 with 19 address bits
        // (14 block-address bits). This is achievable by choosing the
        // polynomial well; `min_fan_in_poly` performs that choice.
        let p = min_fan_in_poly(7, 14);
        let tree = XorTree::new(p, 14);
        assert!(
            tree.max_fan_in() <= 5,
            "fan-in {} for {}",
            tree.max_fan_in(),
            p
        );
        // There is more than one such polynomial, so a skewed pair with low
        // fan-in also exists.
        let good: Vec<_> = irreducibles(7)
            .filter(|&q| XorTree::new(q, 14).max_fan_in() <= 5)
            .collect();
        assert!(good.len() >= 2, "found {}", good.len());
    }

    #[test]
    fn stride_insensitivity_for_irreducible_moduli() {
        // Rau's theorem: with an irreducible modulus, every power-of-two
        // stride within the input width is conflict-free.
        let p = default_poly(7);
        let tree = XorTree::new(p, 14);
        for k in 0..=7 {
            assert!(tree.is_stride_conflict_free(k), "stride 2^{k}");
        }
        // Conventional indexing (P = x^7) fails for any k >= 1... in fact a
        // 2^k stride hits only every 2^k-th set once k >= 1.
        let conv = XorTree::new(Poly::monomial(7), 14);
        assert!(conv.is_stride_conflict_free(0));
        for k in 1..=7 {
            assert!(!conv.is_stride_conflict_free(k), "stride 2^{k}");
        }
    }

    #[test]
    fn surjectivity_of_index_map() {
        let p = default_poly(7);
        let tree = XorTree::new(p, 14);
        assert!(tree.to_matrix().is_surjective());
        // Exhaustive: every set index is produced.
        let mut seen = [false; 128];
        for a in 0u64..(1 << 14) {
            seen[tree.apply(a) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn uniform_distribution_over_sets() {
        // The hash is linear and surjective, so preimages of every set have
        // equal size: 2^(v-m).
        let p = default_poly(6);
        let tree = XorTree::new(p, 13);
        let mut counts = vec![0u32; 64];
        for a in 0u64..(1 << 13) {
            counts[tree.apply(a) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 1 << 7));
    }

    #[test]
    fn masks_and_accessors() {
        let p = default_poly(4);
        let tree = XorTree::new(p, 10);
        assert_eq!(tree.poly(), p);
        assert_eq!(tree.input_bits(), 10);
        assert_eq!(tree.output_bits(), 4);
        // Bit j < m reduces to itself: mask_i must include bit i.
        for i in 0..4 {
            assert_eq!(tree.mask(i) & (1 << i), 1 << i);
        }
    }

    #[test]
    #[should_panic(expected = "modulus must be non-zero")]
    fn zero_modulus_rejected() {
        let _ = XorTree::new(Poly::ZERO, 8);
    }

    #[test]
    fn apply_table_matches_apply_exhaustively() {
        for degree in [3u32, 5, 7] {
            let p = default_poly(degree);
            let tree = XorTree::new(p, 14);
            let table = tree.apply_table(14);
            assert_eq!(table.len(), 1 << 14);
            for (a, &entry) in table.iter().enumerate() {
                assert_eq!(
                    u64::from(entry),
                    tree.apply(a as u64),
                    "deg {degree} a={a:#x}"
                );
            }
        }
    }

    #[test]
    fn fill_linear_matches_direct_evaluation_for_every_width() {
        let tree = XorTree::new(default_poly(6), 17);
        let fold = |a: u64| ((a & 0x3f) ^ ((a >> 6) & 0x3f) ^ (a >> 12)) as u32;
        for bits in 0..=17u32 {
            let mut table = vec![u32::MAX; 1 << bits];
            fill_linear(&mut table, |a| tree.apply(a) as u32);
            for (a, &entry) in table.iter().enumerate() {
                assert_eq!(
                    u64::from(entry),
                    tree.apply(a as u64),
                    "{bits} bits a={a:#x}"
                );
            }
            fill_linear(&mut table, fold);
            for (a, &entry) in table.iter().enumerate() {
                assert_eq!(entry, fold(a as u64), "{bits} bits a={a:#x}");
            }
        }
    }

    #[test]
    fn apply_table_over_fewer_bits_is_a_prefix() {
        let tree = XorTree::new(default_poly(6), 20);
        let small = tree.apply_table(10);
        let large = tree.apply_table(12);
        assert_eq!(small[..], large[..1 << 10]);
    }

    #[test]
    #[should_panic(expected = "exceed wired input bits")]
    fn apply_table_wider_than_inputs_rejected() {
        let tree = XorTree::new(default_poly(6), 10);
        let _ = tree.apply_table(11);
    }
}
