//! Column-associative cache with polynomial rehash (§3.1, option 4).
//!
//! A physically-tagged direct-mapped cache that probes first with the
//! conventional modulo index (using unmapped address bits only) and, on a
//! first-probe miss, probes again at the I-Poly index of the full address.
//! Lines swap between their "conventional" and "alternative" locations so
//! that the most-recently-used line of a pair sits where the first probe
//! finds it — the paper reports this yields "a typical probability of
//! around 90% that a hit is detected at the first probe".

use crate::model::{extra, AccessOutcome, MemoryModel, ModelStats, ServicePoint};
use crate::stats::CacheStats;
use cac_core::{CacheGeometry, Error};
use cac_gf2::xor_tree::{min_fan_in_poly, XorTree};
use cac_trace::MemRef;

/// Counters for the column-associative organization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColumnStats {
    /// Total read accesses.
    pub accesses: u64,
    /// Hits at the first probe.
    pub first_probe_hits: u64,
    /// Hits at the second (polynomial) probe.
    pub second_probe_hits: u64,
    /// Full misses.
    pub misses: u64,
    /// Stores presented to the organization and passed through untouched
    /// (the paper evaluates it by load miss ratio; stores are not
    /// modelled).
    pub bypassed_stores: u64,
}

impl ColumnStats {
    /// Overall miss ratio.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Fraction of *hits* detected at the first probe — the paper's ~90%
    /// figure.
    pub fn first_probe_hit_fraction(&self) -> f64 {
        let hits = self.first_probe_hits + self.second_probe_hits;
        if hits == 0 {
            0.0
        } else {
            self.first_probe_hits as f64 / hits as f64
        }
    }

    /// Average probes per hit (1 for first-probe, 2 for second-probe) —
    /// the "slight increase in average hit time" of §3.1.
    pub fn avg_probes_per_hit(&self) -> f64 {
        let hits = self.first_probe_hits + self.second_probe_hits;
        if hits == 0 {
            0.0
        } else {
            (self.first_probe_hits + 2 * self.second_probe_hits) as f64 / hits as f64
        }
    }
}

/// Second-probe (rehash) function of a two-probe direct-mapped cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RehashKind {
    /// Polynomial (I-Poly) rehash — the paper's §3.1 option 4.
    #[default]
    Polynomial,
    /// Flip the top index bit — the classic hash-rehash / column-
    /// associative second probe of Agarwal et al., kept as the
    /// non-polynomial baseline the companion study \[10\] compares against.
    TopBitFlip,
}

/// Direct-mapped cache with a conventional first probe and a rehashed
/// second probe (polynomial by default).
///
/// Every resident block lives at one of its two homes: its conventional
/// index or its polynomial index. Promotions on a second-probe hit demote
/// the displaced occupant to *its own* polynomial home (the two probe
/// functions are unrelated hashes, so a plain slot swap would strand the
/// occupant somewhere neither of its probes could find it).
///
/// # Example
///
/// ```
/// use cac_core::CacheGeometry;
/// use cac_sim::column::ColumnAssociative;
///
/// let geom = CacheGeometry::new(8 * 1024, 32, 1)?;
/// let mut c = ColumnAssociative::new(geom)?;
/// for i in 0..256u64 {
///     c.read(i * 32);
/// }
/// assert!(c.read(0).is_hit());
/// assert!(c.stats().first_probe_hit_fraction() > 0.9); // the paper's ~90%
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ColumnAssociative {
    geom: CacheGeometry,
    second: SecondProbe,
    mask: u64,
    /// One block address per line (flat direct-mapped storage;
    /// `INVALID_LINE` = empty).
    lines: Vec<u64>,
    stats: ColumnStats,
}

/// How the second-probe index is computed.
#[derive(Debug, Clone)]
enum SecondProbe {
    /// The polynomial rehash tabulated over the tree's input bits, so
    /// the second-probe index is a single load on the access path (same
    /// trick as `cac_core::IndexTable`).
    Lut(Vec<u32>),
    /// The polynomial rehash, too wide to tabulate.
    Tree(XorTree),
    /// [`RehashKind::TopBitFlip`]: no polynomial at all.
    TopBitFlip,
}

/// Sentinel for an empty line (cannot collide with a real block address;
/// see `cac_sim::cache`).
const INVALID_LINE: u64 = u64::MAX;

impl ColumnAssociative {
    /// Creates the cache with the polynomial rehash. The geometry is
    /// interpreted as direct-mapped regardless of its `ways` field (the
    /// organization is "effectively a direct-mapped cache", §3.1); total
    /// lines = capacity / block.
    ///
    /// # Errors
    ///
    /// Propagates geometry validation errors.
    pub fn new(geom: CacheGeometry) -> Result<Self, Error> {
        Self::with_rehash(geom, RehashKind::Polynomial)
    }

    /// Creates the cache with an explicit rehash function.
    ///
    /// # Errors
    ///
    /// Propagates geometry validation errors.
    pub fn with_rehash(geom: CacheGeometry, rehash: RehashKind) -> Result<Self, Error> {
        let dm = CacheGeometry::new(geom.capacity(), geom.block(), 1)?;
        let second = match rehash {
            RehashKind::Polynomial => {
                let m = dm.index_bits();
                // Hash the full block address budget the paper allows (19
                // address bits) or 2m bits, whichever is larger.
                let v = (19u32.saturating_sub(dm.offset_bits())).max(2 * m).min(40);
                let tree = XorTree::new(min_fan_in_poly(m, v), v);
                if v <= 20 {
                    SecondProbe::Lut(tree.apply_table(v))
                } else {
                    SecondProbe::Tree(tree)
                }
            }
            RehashKind::TopBitFlip => SecondProbe::TopBitFlip,
        };
        Ok(ColumnAssociative {
            geom: dm,
            second,
            mask: u64::from(dm.num_sets() - 1),
            lines: vec![INVALID_LINE; dm.num_sets() as usize],
            stats: ColumnStats::default(),
        })
    }

    /// The (direct-mapped) geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Running counters.
    pub fn stats(&self) -> ColumnStats {
        self.stats
    }

    /// The conventional (first-probe) line index of a block address.
    #[inline]
    pub fn conventional_index(&self, block: u64) -> usize {
        (block & self.mask) as usize
    }

    /// The rehashed (second-probe) line index of a block address.
    #[inline]
    pub fn polynomial_index(&self, block: u64) -> usize {
        match &self.second {
            SecondProbe::Lut(lut) => lut[(block & (lut.len() as u64 - 1)) as usize] as usize,
            SecondProbe::Tree(tree) => tree.apply(block) as usize,
            SecondProbe::TopBitFlip => ((block & self.mask) ^ (self.mask / 2 + 1)) as usize,
        }
    }

    /// Demotes `occupant` (currently holding slot `slot`) to its own
    /// polynomial home, returning any block this pushed out of the cache
    /// entirely: the previous resident of the polynomial home, or the
    /// occupant itself if `slot` *is* its polynomial home (the caller is
    /// about to overwrite `slot`).
    fn demote(&mut self, occupant: u64, slot: usize) -> Option<u64> {
        let alt = self.polynomial_index(occupant);
        if alt != slot {
            let displaced = self.lines[alt];
            self.lines[alt] = occupant;
            (displaced != INVALID_LINE).then_some(displaced)
        } else {
            Some(occupant)
        }
    }

    /// Performs a read access, reporting hit/miss, the servicing probe
    /// and any block the line movement evicted.
    pub fn read(&mut self, addr: u64) -> AccessOutcome {
        self.stats.accesses += 1;
        let block = self.geom.block_addr(addr);
        let i1 = self.conventional_index(block);
        if self.lines[i1] == block {
            self.stats.first_probe_hits += 1;
            return AccessOutcome::hit_at(ServicePoint::Level(0));
        }
        let i2 = self.polynomial_index(block);
        if i2 != i1 && self.lines[i2] == block {
            // Promote the MRU line to its conventional home so the first
            // probe finds it next time; the displaced occupant moves to
            // its *own* polynomial home.
            self.lines[i2] = INVALID_LINE;
            let occupant = self.lines[i1];
            let evicted = (occupant != INVALID_LINE)
                .then(|| self.demote(occupant, i1))
                .flatten();
            self.lines[i1] = block;
            self.stats.second_probe_hits += 1;
            return AccessOutcome {
                hit: true,
                served_by: ServicePoint::SecondProbe,
                way: None,
                evicted,
                filled: false,
            };
        }
        // Miss: the incoming block takes its conventional home; the
        // occupant is demoted to its own polynomial home.
        let occupant = self.lines[i1];
        let evicted = (occupant != INVALID_LINE)
            .then(|| self.demote(occupant, i1))
            .flatten();
        self.lines[i1] = block;
        self.stats.misses += 1;
        AccessOutcome {
            hit: false,
            served_by: ServicePoint::Memory,
            way: None,
            evicted,
            filled: true,
        }
    }

    /// Number of valid lines.
    pub fn resident_lines(&self) -> usize {
        self.lines.iter().filter(|&&l| l != INVALID_LINE).count()
    }

    /// Invalidates all contents and clears all counters.
    pub fn reset(&mut self) {
        self.lines.fill(INVALID_LINE);
        self.stats = ColumnStats::default();
    }
}

impl MemoryModel for ColumnAssociative {
    fn access(&mut self, r: MemRef) -> AccessOutcome {
        if r.is_write {
            self.stats.bypassed_stores += 1;
            return AccessOutcome::bypass();
        }
        self.read(r.addr)
    }

    fn stats(&self) -> ModelStats {
        let s = self.stats;
        let demand = CacheStats {
            accesses: s.accesses,
            hits: s.first_probe_hits + s.second_probe_hits,
            misses: s.misses,
            reads: s.accesses,
            read_misses: s.misses,
            ..CacheStats::default()
        };
        let mut m = ModelStats::single("column", demand);
        m.extras = vec![
            extra("first-probe-hits", s.first_probe_hits),
            extra("second-probe-hits", s.second_probe_hits),
            extra("stores-bypassed", s.bypassed_stores),
        ];
        m
    }

    fn reset(&mut self) {
        ColumnAssociative::reset(self);
    }

    fn describe(&self) -> String {
        let rehash = match self.second {
            SecondProbe::Lut(_) | SecondProbe::Tree(_) => "polynomial",
            SecondProbe::TopBitFlip => "top-bit-flip",
        };
        format!("column-associative {} ({rehash} rehash)", self.geom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dm8k() -> CacheGeometry {
        CacheGeometry::new(8 * 1024, 32, 1).unwrap()
    }

    /// Finds two blocks with the same conventional index whose polynomial
    /// homes are distinct from that index (so both can be resident).
    fn conflicting_pair(c: &ColumnAssociative) -> (u64, u64) {
        let sets = c.geometry().num_sets() as u64;
        for base in sets..4 * sets {
            let other = base + sets;
            let i1 = c.conventional_index(base);
            if c.polynomial_index(base) != i1
                && c.polynomial_index(other) != i1
                && c.polynomial_index(base) != c.polynomial_index(other)
            {
                return (base * 32, other * 32);
            }
        }
        panic!("no conflicting pair found");
    }

    #[test]
    fn conventional_conflict_pair_coexists() {
        let mut c = ColumnAssociative::new(dm8k()).unwrap();
        let (a, b) = conflicting_pair(&c);
        assert!(!c.read(a).is_hit());
        assert!(!c.read(b).is_hit());
        // Both resident afterwards; no more misses.
        let mut misses = 0;
        for _ in 0..20 {
            if !c.read(a).is_hit() {
                misses += 1;
            }
            if !c.read(b).is_hit() {
                misses += 1;
            }
        }
        assert_eq!(misses, 0);
    }

    #[test]
    fn blocks_below_set_count_hash_to_themselves() {
        // A(x) with deg < deg(P) reduces to itself, so small blocks have a
        // single home — they behave exactly direct-mapped.
        let c = ColumnAssociative::new(dm8k()).unwrap();
        for block in 0..256u64 {
            assert_eq!(c.conventional_index(block), block as usize);
            assert_eq!(c.polynomial_index(block), block as usize);
        }
    }

    #[test]
    fn swap_promotes_mru_to_first_probe() {
        let mut c = ColumnAssociative::new(dm8k()).unwrap();
        let (a, b) = conflicting_pair(&c);
        c.read(a);
        c.read(b); // b takes the conventional slot, a demoted
                   // First access to a is a second-probe hit, which promotes it...
        assert_eq!(c.read(a).served_by, ServicePoint::SecondProbe);
        // ...so the next access to a hits at the first probe.
        assert_eq!(c.read(a).served_by, ServicePoint::Level(0));
    }

    #[test]
    fn sequential_fill_all_first_probe_hits() {
        let mut c = ColumnAssociative::new(dm8k()).unwrap();
        for i in 0..256u64 {
            c.read(i * 32);
        }
        for i in 0..256u64 {
            assert_eq!(c.read(i * 32).served_by, ServicePoint::Level(0));
        }
        assert!(c.stats().first_probe_hit_fraction() > 0.99);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = ColumnAssociative::new(dm8k()).unwrap();
        for i in 0..10_000u64 {
            c.read(i * 32 * 7);
        }
        assert!(c.resident_lines() <= 256);
    }

    #[test]
    fn stats_consistency() {
        let mut c = ColumnAssociative::new(dm8k()).unwrap();
        for i in 0..1000u64 {
            c.read((i % 300) * 32);
        }
        let s = c.stats();
        assert_eq!(s.accesses, 1000);
        assert_eq!(
            s.first_probe_hits + s.second_probe_hits + s.misses,
            s.accesses
        );
        assert!(s.avg_probes_per_hit() >= 1.0);
        assert!(s.avg_probes_per_hit() <= 2.0);
    }

    #[test]
    fn outcomes_report_real_evictions() {
        // Replay a wide mix and reconcile the evictions the outcomes
        // report against residency: fills - evictions == resident lines.
        let mut c = ColumnAssociative::new(dm8k()).unwrap();
        let mut fills = 0i64;
        let mut evictions = 0i64;
        for i in 0..5000u64 {
            let out = c.read((i.wrapping_mul(0x9E37_79B9) >> 5) & 0x3_FFFF);
            if out.filled {
                fills += 1;
            }
            if out.evicted.is_some() {
                evictions += 1;
            }
            assert_eq!(out.hit, out.is_hit());
        }
        assert_eq!(fills - evictions, c.resident_lines() as i64);
    }

    #[test]
    fn memory_model_view_matches_column_stats() {
        use crate::model::MemoryModel;
        let mut c = ColumnAssociative::new(dm8k()).unwrap();
        for i in 0..400u64 {
            let r = cac_trace::MemRef {
                pc: 0,
                addr: (i % 300) * 32,
                is_write: i % 7 == 0,
            };
            MemoryModel::access(&mut c, r);
        }
        let m = MemoryModel::stats(&c);
        let s = c.stats();
        assert_eq!(m.demand.reads, s.accesses);
        assert_eq!(m.demand.misses, s.misses);
        assert_eq!(m.demand.hits, s.first_probe_hits + s.second_probe_hits);
        assert_eq!(m.extra("stores-bypassed"), Some(s.bypassed_stores));
        assert!(s.bypassed_stores > 0);
        // Stores must not disturb the read-only contents.
        let resident_before = c.resident_lines();
        MemoryModel::access(
            &mut c,
            cac_trace::MemRef {
                pc: 0,
                addr: 0xdead_0000,
                is_write: true,
            },
        );
        assert_eq!(c.resident_lines(), resident_before);
        MemoryModel::reset(&mut c);
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.stats().accesses, 0);
    }

    #[test]
    fn pseudo_associativity_beats_direct_mapped_on_conflicts() {
        use crate::cache::Cache;
        use cac_core::IndexSpec;
        // Ping-pong between conflicting pairs: direct-mapped thrashes,
        // column-associative settles.
        let mut dm = Cache::build(dm8k(), IndexSpec::modulo()).unwrap();
        let mut col = ColumnAssociative::new(dm8k()).unwrap();
        for round in 0..50u64 {
            for pair in 0..8u64 {
                // Blocks >= 256 so each has a distinct polynomial home.
                let a = (256 + pair) * 32;
                let b = (512 + pair) * 32;
                let x = if round % 2 == 0 { a } else { b };
                dm.read(x);
                col.read(x);
                dm.read(if x == a { b } else { a });
                col.read(if x == a { b } else { a });
            }
        }
        assert!(col.stats().miss_ratio() < dm.stats().miss_ratio() / 2.0);
    }
}

#[cfg(test)]
mod rehash_tests {
    use super::*;

    #[test]
    fn polynomial_rehash_lut_matches_its_xor_tree_exhaustively() {
        // The second-probe LUT against the XOR tree it tabulates, over
        // every one of the tree's 2^v inputs.
        for size in [2 * 1024, 8 * 1024, 16 * 1024] {
            let geom = CacheGeometry::new(size, 32, 1).unwrap();
            let c = ColumnAssociative::new(geom).unwrap();
            let m = geom.index_bits();
            let v = (19 - geom.offset_bits()).max(2 * m);
            assert!(v <= 20, "{size}: the rehash is tabulated up to 20 bits");
            let tree = XorTree::new(min_fan_in_poly(m, v), v);
            for block in 0..1u64 << v {
                assert_eq!(
                    c.polynomial_index(block) as u64,
                    tree.apply(block),
                    "{size} B block {block:#x}"
                );
            }
        }
    }

    #[test]
    fn top_bit_flip_pairs_slots() {
        let geom = CacheGeometry::new(8 * 1024, 32, 1).unwrap();
        let c = ColumnAssociative::with_rehash(geom, RehashKind::TopBitFlip).unwrap();
        // 256 sets: the rehash of slot s is s ^ 128.
        assert_eq!(c.polynomial_index(0), 128);
        assert_eq!(c.polynomial_index(128), 0);
        assert_eq!(c.polynomial_index(5), 133);
    }

    #[test]
    fn bit_flip_rehash_still_thrashes_on_wide_conflicts() {
        // Three blocks that share BOTH probe locations under bit-flip
        // rehash (same low 8 bits of block address) keep missing, while
        // the polynomial rehash separates them.
        let geom = CacheGeometry::new(8 * 1024, 32, 1).unwrap();
        let mut flip = ColumnAssociative::with_rehash(geom, RehashKind::TopBitFlip).unwrap();
        let mut poly = ColumnAssociative::new(geom).unwrap();
        let blocks = [0x300u64, 0x400, 0x500]; // equal mod 256
        for _ in 0..20 {
            for &b in &blocks {
                flip.read(b * 32);
                poly.read(b * 32);
            }
        }
        assert!(flip.stats().miss_ratio() > 0.8, "{:?}", flip.stats());
        assert!(poly.stats().miss_ratio() < 0.2, "{:?}", poly.stats());
    }

    #[test]
    fn bit_flip_handles_adjacent_conflict_pair() {
        // The case hash-rehash was designed for: exactly two blocks on
        // one set coexist via the flipped slot.
        let geom = CacheGeometry::new(8 * 1024, 32, 1).unwrap();
        let mut c = ColumnAssociative::with_rehash(geom, RehashKind::TopBitFlip).unwrap();
        let (a, b) = (0x300u64 * 32, 0x400u64 * 32);
        c.read(a);
        c.read(b);
        let mut misses = 0;
        for _ in 0..10 {
            if !c.read(a).is_hit() {
                misses += 1;
            }
            if !c.read(b).is_hit() {
                misses += 1;
            }
        }
        assert_eq!(misses, 0);
    }
}
