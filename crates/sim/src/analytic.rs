//! Analytic miss-ratio models: the fast screening tier in front of the
//! replay engines.
//!
//! Exhaustive simulation pays O(refs) per configuration; a screening
//! service evaluating millions of configurations cannot. This module
//! implements the closed-form predictors the PAPERS.md analytical
//! papers describe (Majumdar/Radhakrishnan's random-placement strategy
//! analysis; the Birthday-Paradox collision bounds) on top of the exact
//! stack-distance histograms [`LruStackSweep`] already produces:
//!
//! * [`lru_curve_from_histogram`] — the **exact** LRU miss-ratio curve
//!   of every associativity of one set count, read off a recorded
//!   [`StackHistogram`] in a single suffix-sum pass (Mattson inclusion:
//!   an access at stack depth `d` misses exactly the caches with at
//!   most `d` ways).
//! * [`AnalyticModel`] — the birthday-bound set-associative predictor:
//!   from the *fully-associative* stack-distance histogram of a
//!   workload, the miss ratio of any `(sets, ways)` cache with
//!   random/hashed placement is predicted in closed form. An access
//!   whose block was last used `d` distinct blocks ago misses iff at
//!   least `ways` of those `d` intervening blocks collide with its set
//!   — a binomial (birthday-collision) tail, [`set_conflict_probability`].
//! * [`birthday_collision_probability`] / [`expected_overflow_blocks`]
//!   — standalone footprint-parameterized collision bounds: how likely
//!   a conflict is at all, and how many blocks of an `m`-block
//!   footprint a `(sets, ways)` cache is expected to spill.
//! * [`Pricer`] — the one place a configuration's cache (geometry ×
//!   placement) is priced: one stack pass per line size, the exact
//!   curve for modulus placement and [`AnalyticModel`] for the rest,
//!   optionally set-sampled with a standard error. The corpus screen
//!   and cell-budget degrade, `cac sweep --prune` and `cac analytic
//!   validate` all price through it.
//! * [`prune_dominated`] — the dominance screen of `corpus run` and
//!   `cac sweep --prune analytic`: given predicted miss ratios for the
//!   configurations of one workload, keep only those within a stated
//!   error band of the best prediction; the rest can be skipped without
//!   replaying them.
//!
//! Predictions for hashed placement are approximations — the stated
//! error band is part of the contract, and
//! `crates/sim/tests/analytic_validation.rs` plus `cac analytic
//! validate` measure the error against [`LruStackSweep`] ground truth
//! on every shipped configuration. For modulus placement the same
//! histograms give *exact* answers ([`StackHistogram::misses_at`]), so
//! the screen degrades to simulation quality exactly where the paper's
//! conflict pathologies live.
//!
//! # Example
//!
//! ```
//! use cac_sim::analytic::AnalyticModel;
//! use cac_sim::sweep::LruStackSweep;
//!
//! // One traversal of the workload records the fully-associative
//! // stack-distance histogram...
//! let mut sweep = LruStackSweep::new(32, &[1])?;
//! for i in 0..100_000u64 {
//!     sweep.observe((i.wrapping_mul(0x9E37_79B9) >> 7) & 0xF_FFFF);
//! }
//! // ...from which the model predicts any (sets, ways) organization
//! // without replaying anything.
//! let model = AnalyticModel::from_sweep(&sweep).expect("1-set family present");
//! let dm = model.predict(256, 1).expect("refs observed");
//! let w2 = model.predict(256, 2).expect("refs observed");
//! assert!(dm >= w2); // more ways at a fixed set count never conflict more
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::sweep::LruStackSweep;
use cac_core::{CacheGeometry, Error, IndexSpec};
use cac_trace::io::{RefSource, DEFAULT_CHUNK_OPS};
use cac_trace::MemRef;

/// A recorded stack-distance histogram for one set count: the raw
/// material of every analytic curve in this module.
///
/// `depths[d]` counts accesses that found their block at LRU stack
/// depth `d` (0 = MRU); `cold` counts accesses whose block had never
/// been seen — which makes `cold` also the number of **distinct blocks**
/// (the workload's footprint) observed. `refs` is the total number of
/// observed accesses, `cold + depths.iter().sum()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackHistogram {
    /// Compulsory (first-touch) accesses — equal to the number of
    /// distinct blocks observed.
    pub cold: u64,
    /// `depths[d]` = accesses that hit stack depth `d`.
    pub depths: Vec<u64>,
    /// Total observed accesses (`cold + sum(depths)`).
    pub refs: u64,
}

impl StackHistogram {
    /// Exact LRU misses at associativity `ways` for this set count, by
    /// naive summation: every access at depth `>= ways` plus the cold
    /// misses. This is the reference the one-pass
    /// [`lru_curve_from_histogram`] is tested against.
    pub fn misses_at(&self, ways: u32) -> u64 {
        self.cold + self.depths.iter().skip(ways as usize).sum::<u64>()
    }

    /// The workload footprint in blocks (distinct blocks observed).
    pub fn footprint_blocks(&self) -> u64 {
        self.cold
    }
}

/// The exact LRU miss-ratio curve of one set count over associativities
/// `1..=max_ways`, computed in a single reverse suffix-sum pass:
/// `curve[w - 1]` is the miss ratio at `w` ways (equivalently, of the
/// cache of capacity `sets * w * line`). Monotone non-increasing — more
/// ways (more capacity at a fixed set count) can only hit more (Mattson
/// inclusion).
///
/// Returns an empty vector when the histogram holds no references.
pub fn lru_curve_from_histogram(h: &StackHistogram, max_ways: u32) -> Vec<f64> {
    if h.refs == 0 || max_ways == 0 {
        return Vec::new();
    }
    let refs = h.refs as f64;
    let n = max_ways as usize;
    let mut curve = vec![0.0f64; n];
    // misses(w) = cold + accesses at depth >= w; one suffix sum built
    // from the deep end serves every associativity.
    let mut suffix: u64 = h.depths.iter().skip(n).sum();
    for w in (1..=n).rev() {
        curve[w - 1] = (h.cold + suffix) as f64 / refs;
        suffix += h.depths.get(w - 1).copied().unwrap_or(0);
    }
    curve
}

/// Probability that an access whose block was last used `d` distinct
/// blocks ago misses in a `(sets, ways)` cache with uniform random
/// (hashed) placement: the birthday-collision tail
/// `P(Binomial(d, 1/sets) >= ways)` — at least `ways` of the `d`
/// intervening blocks landed in the victim's set.
///
/// Exact for `sets == 1` (the binomial degenerates to the constant `d`,
/// so the result is the Mattson rule `d >= ways`). `ways == 0` always
/// "misses".
pub fn set_conflict_probability(sets: u32, ways: u32, d: u64) -> f64 {
    if ways == 0 {
        return 1.0;
    }
    if d < u64::from(ways) {
        return 0.0;
    }
    if sets <= 1 {
        // All d intervening blocks share the single set.
        return 1.0;
    }
    let p = 1.0 / f64::from(sets);
    let ratio = p / (1.0 - p); // pmf(k+1)/pmf(k) carries this factor
    let df = d as f64;
    // cdf = P(X <= ways - 1), built from pmf(0) = (1-p)^d upward. When
    // (1-p)^d underflows to zero the true head probability is far below
    // f64 resolution, so tail = 1 is the correct limit.
    let mut pmf = (1.0 - p).powf(df);
    let mut cdf = pmf;
    for k in 0..u64::from(ways - 1) {
        pmf *= (df - k as f64) / (k as f64 + 1.0) * ratio;
        cdf += pmf;
    }
    (1.0 - cdf).clamp(0.0, 1.0)
}

/// Classic birthday-paradox bound: the probability that placing
/// `blocks` distinct blocks uniformly into `sets` sets produces at
/// least one collision (two blocks in the same set),
/// `1 - prod_{i<m} (1 - i/s)`. Saturates to 1 once `blocks > sets`
/// (pigeonhole).
pub fn birthday_collision_probability(sets: u32, blocks: u64) -> f64 {
    if sets == 0 || blocks > u64::from(sets) {
        return 1.0;
    }
    let s = f64::from(sets);
    let mut no_collision = 1.0f64;
    for i in 1..blocks {
        no_collision *= 1.0 - i as f64 / s;
        if no_collision <= f64::MIN_POSITIVE {
            return 1.0;
        }
    }
    1.0 - no_collision
}

/// Expected number of blocks of an `m = footprint_blocks` block
/// footprint that a `(sets, ways)` cache cannot hold simultaneously
/// under uniform random placement: `m - sets * E[min(X, ways)]` with
/// `X ~ Binomial(m, 1/sets)` — each set retains at most `ways` of the
/// blocks hashed into it, the rest overflow (conflict even though the
/// total capacity may suffice).
pub fn expected_overflow_blocks(sets: u32, ways: u32, footprint_blocks: u64) -> f64 {
    if sets == 0 || footprint_blocks == 0 {
        return 0.0;
    }
    let m = footprint_blocks as f64;
    if sets == 1 {
        return (m - f64::from(ways)).max(0.0);
    }
    let p = 1.0 / f64::from(sets);
    let ratio = p / (1.0 - p);
    // E[min(X, w)] = sum_{k < w} k pmf(k) + w P(X >= w).
    let mut pmf = (1.0 - p).powf(m);
    let mut cdf = pmf;
    let mut partial_mean = 0.0;
    for k in 0..u64::from(ways.saturating_sub(1)) {
        pmf *= (m - k as f64) / (k as f64 + 1.0) * ratio;
        cdf += pmf;
        partial_mean += (k as f64 + 1.0) * pmf;
    }
    let retained_per_set = partial_mean + f64::from(ways) * (1.0 - cdf).max(0.0);
    (m - f64::from(sets) * retained_per_set).max(0.0)
}

/// The birthday-bound set-associative miss-ratio predictor: wraps a
/// workload's **fully-associative** stack-distance histogram and
/// predicts any `(sets, ways)` organization with random/hashed
/// placement in closed form — no replay.
///
/// The model: an access at fully-associative stack depth `d` has had
/// `d` distinct blocks touched since its block was last used. Under
/// uniform placement those are `d` independent Bernoulli(1/sets) trials
/// on the victim's set, so the access misses with probability
/// [`set_conflict_probability`]`(sets, ways, d)`. Summing over the
/// histogram (plus the compulsory cold misses) yields the predicted
/// miss ratio. For `sets = 1` the prediction is exact; accuracy for
/// hashed placement is measured by `cac analytic validate`.
#[derive(Debug, Clone)]
pub struct AnalyticModel {
    hist: StackHistogram,
}

impl AnalyticModel {
    /// Wraps a fully-associative (single-set) stack-distance histogram.
    pub fn from_histogram(hist: StackHistogram) -> Self {
        AnalyticModel { hist }
    }

    /// Extracts the fully-associative histogram from a stack sweep, or
    /// `None` if the sweep was not configured with a 1-set family.
    pub fn from_sweep(sweep: &LruStackSweep) -> Option<Self> {
        sweep.histogram(1).map(AnalyticModel::from_histogram)
    }

    /// The workload footprint in blocks (distinct blocks observed).
    pub fn footprint_blocks(&self) -> u64 {
        self.hist.footprint_blocks()
    }

    /// Predicted miss ratio of a `(sets, ways)` cache with
    /// random/hashed placement, or `None` before any reference was
    /// observed or for `ways == 0`.
    pub fn predict(&self, sets: u32, ways: u32) -> Option<f64> {
        if self.hist.refs == 0 || ways == 0 {
            return None;
        }
        let mut expected_misses = self.hist.cold as f64;
        for (d, &count) in self.hist.depths.iter().enumerate() {
            if count == 0 {
                continue;
            }
            expected_misses += count as f64 * set_conflict_probability(sets, ways, d as u64);
        }
        Some((expected_misses / self.hist.refs as f64).clamp(0.0, 1.0))
    }
}

/// How a [`Pricer`] samples sets in each line-size group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetSampling {
    /// 1-in-K in every group, as given (1 = exact). Rejected unless K is
    /// a power of two within every group's smallest multi-set count
    /// ([`LruStackSweep::with_set_sampling`]).
    Exact(u32),
    /// Per group, the largest power of two within both this cap (at
    /// least 1) and the group's smallest set count, so every target
    /// keeps sampled sets and a group with a one-set target runs exact.
    UpTo(u32),
}

/// The price of one [`Pricer`] target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Price {
    /// The estimated miss ratio, or `None` before any reference was
    /// observed.
    pub estimate: Option<f64>,
    /// Worst-case binomial standard error of the estimate: 0 when its
    /// group ran exact.
    pub se: f64,
}

/// The analytic tier's one pricer: the miss ratio of each target cache
/// (geometry × placement) from one stack pass per line size.
///
/// Targets are grouped by line size. Each group runs one
/// [`LruStackSweep`] over set counts `{1}` ∪ its targets' set counts.
/// A modulus-placed target ([`IndexSpec::Modulo`]) is priced by that
/// sweep's exact Mattson curve; any other placement by
/// [`AnalyticModel::predict`] over the group's fully-associative
/// histogram. The corpus screen and cell-budget degrade, `cac sweep
/// --prune` and `cac analytic validate` all price through it.
#[derive(Debug, Clone)]
pub struct Pricer {
    /// One stack pass per distinct line size, ascending.
    groups: Vec<LruStackSweep>,
    /// Each target's geometry, and whether its placement is modulus
    /// (priced off the exact curve).
    targets: Vec<(CacheGeometry, bool)>,
}

impl Pricer {
    /// A pricer for `targets`, sampled as `sampling` says.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] for a line size or set count the stack pass
    /// cannot model (not a power of two) and for an
    /// [`SetSampling::Exact`] factor some group rejects.
    pub fn new(
        targets: &[(CacheGeometry, IndexSpec)],
        sampling: SetSampling,
    ) -> Result<Self, Error> {
        let mut lines: Vec<u64> = targets.iter().map(|(g, _)| g.block()).collect();
        lines.sort_unstable();
        lines.dedup();
        let groups = lines
            .iter()
            .map(|&line| {
                let sets: Vec<u32> = targets
                    .iter()
                    .filter(|(g, _)| g.block() == line)
                    .map(|(g, _)| g.num_sets())
                    .collect();
                let k = match sampling {
                    SetSampling::Exact(k) => k,
                    SetSampling::UpTo(cap) => {
                        let min_sets = sets.iter().copied().min().unwrap_or(1);
                        1 << cap.min(min_sets).ilog2()
                    }
                };
                LruStackSweep::new(line, &[&[1], &sets[..]].concat())?.with_set_sampling(k)
            })
            .collect::<Result<_, Error>>()?;
        let targets = targets
            .iter()
            .map(|(g, index)| (*g, matches!(index, IndexSpec::Modulo)))
            .collect();
        Ok(Pricer { groups, targets })
    }

    /// Observes every reference of a slice in every group.
    pub fn run_refs(&mut self, refs: &[MemRef]) {
        for group in &mut self.groups {
            group.run_refs(refs);
        }
    }

    /// Streams a [`RefSource`] through every group: one decode, each
    /// chunk observed by each group in turn.
    ///
    /// # Errors
    ///
    /// Propagates the source's decode/read errors.
    pub fn run_source<S: RefSource>(&mut self, mut source: S) -> Result<(), S::Error> {
        let mut buf = Vec::with_capacity(DEFAULT_CHUNK_OPS);
        while source.read_ref_chunk(&mut buf, DEFAULT_CHUNK_OPS)? > 0 {
            self.run_refs(&buf);
        }
        Ok(())
    }

    /// The stack pass of each line-size group, ascending by line size.
    pub fn groups(&self) -> &[LruStackSweep] {
        &self.groups
    }

    /// One price per target, in target order.
    pub fn prices(&self) -> Vec<Price> {
        let models: Vec<AnalyticModel> = self
            .groups
            .iter()
            .map(|g| AnalyticModel::from_sweep(g).expect("1-set family configured"))
            .collect();
        self.targets
            .iter()
            .map(|&(g, exact)| {
                let i = self.groups.iter().position(|s| s.line() == g.block());
                let i = i.expect("grouped line size");
                let (sets, ways) = (g.num_sets(), g.ways());
                Price {
                    estimate: if exact {
                        self.groups[i].miss_ratio(sets, ways)
                    } else {
                        models[i].predict(sets, ways)
                    },
                    se: self.groups[i].sampling_standard_error().unwrap_or(0.0),
                }
            })
            .collect()
    }
}

/// The dominance screen: given the predicted miss ratios of every
/// configuration of one workload, returns a keep-flag per
/// configuration. A configuration survives iff its prediction is within
/// `band` (an absolute miss-ratio margin) of the best prediction;
/// strictly dominated configurations — predicted worse than the best by
/// more than the error band — are pruned and need not be replayed.
///
/// Sound whenever the predictor's absolute error is below `band / 2`
/// for every configuration: a pruned configuration's true miss ratio
/// then cannot beat the true best survivor. Unpriced (`None`) and
/// non-finite predictions are never pruned (no evidence to screen on).
pub fn prune_dominated(predicted: &[Option<f64>], band: f64) -> Vec<bool> {
    let best = predicted
        .iter()
        .flatten()
        .copied()
        .filter(|p| p.is_finite())
        .fold(f64::INFINITY, f64::min);
    predicted
        .iter()
        .map(|p| p.is_none_or(|p| !p.is_finite() || best.is_infinite() || p <= best + band))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(cold: u64, depths: &[u64]) -> StackHistogram {
        StackHistogram {
            cold,
            refs: cold + depths.iter().sum::<u64>(),
            depths: depths.to_vec(),
        }
    }

    #[test]
    fn curve_matches_naive_and_is_monotone() {
        let h = hist(7, &[40, 11, 0, 5, 2]);
        let curve = lru_curve_from_histogram(&h, 8);
        assert_eq!(curve.len(), 8);
        for w in 1..=8u32 {
            let naive = h.misses_at(w) as f64 / h.refs as f64;
            assert!(
                (curve[w as usize - 1] - naive).abs() < 1e-15,
                "w={w}: {} vs {naive}",
                curve[w as usize - 1]
            );
        }
        for pair in curve.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-15);
        }
        assert!(lru_curve_from_histogram(&hist(0, &[]), 4).is_empty());
        assert!(lru_curve_from_histogram(&h, 0).is_empty());
    }

    #[test]
    fn conflict_probability_degenerates_exactly() {
        // sets = 1: the Mattson rule d >= w.
        assert_eq!(set_conflict_probability(1, 2, 1), 0.0);
        assert_eq!(set_conflict_probability(1, 2, 2), 1.0);
        // d < w can never assemble w competitors.
        assert_eq!(set_conflict_probability(64, 4, 3), 0.0);
        // w = 0 always misses; probabilities stay in [0, 1].
        assert_eq!(set_conflict_probability(64, 0, 10), 1.0);
        for d in [0u64, 1, 5, 50, 500, 50_000] {
            let p = set_conflict_probability(128, 2, d);
            assert!((0.0..=1.0).contains(&p), "d={d}: {p}");
        }
        // Monotone in d, antitone in sets and ways.
        assert!(set_conflict_probability(128, 2, 300) >= set_conflict_probability(128, 2, 200));
        assert!(set_conflict_probability(128, 2, 200) >= set_conflict_probability(256, 2, 200));
        assert!(set_conflict_probability(128, 2, 200) >= set_conflict_probability(128, 4, 200));
    }

    #[test]
    fn conflict_probability_matches_direct_binomial() {
        // Small case checked against a direct binomial sum:
        // P(Bin(4, 1/4) >= 1) = 1 - (3/4)^4.
        let got = set_conflict_probability(4, 1, 4);
        let expect = 1.0 - 0.75f64.powi(4);
        assert!((got - expect).abs() < 1e-12, "{got} vs {expect}");
        // P(Bin(3, 1/2) >= 2) = 3 * (1/2)^3 + (1/2)^3 = 0.5.
        let got = set_conflict_probability(2, 2, 3);
        assert!((got - 0.5).abs() < 1e-12, "{got}");
    }

    #[test]
    fn birthday_paradox_landmark() {
        // 23 people, 365 days: the canonical ~50.7%.
        let p = birthday_collision_probability(365, 23);
        assert!((p - 0.5073).abs() < 1e-3, "{p}");
        assert_eq!(birthday_collision_probability(8, 9), 1.0);
        assert_eq!(birthday_collision_probability(8, 1), 0.0);
    }

    #[test]
    fn overflow_bounds_make_sense() {
        // Footprint far below capacity: essentially nothing spills.
        assert!(expected_overflow_blocks(256, 2, 16) < 0.5);
        // Footprint far above capacity: nearly everything past capacity
        // spills.
        let over = expected_overflow_blocks(4, 1, 1000);
        assert!(over > 990.0, "{over}");
        // Fully associative: exact max(m - ways, 0).
        assert_eq!(expected_overflow_blocks(1, 8, 5), 0.0);
        assert_eq!(expected_overflow_blocks(1, 8, 13), 5.0);
        assert_eq!(expected_overflow_blocks(64, 2, 0), 0.0);
    }

    #[test]
    fn model_is_exact_fully_associative_and_monotone() {
        let h = hist(10, &[100, 50, 20, 10, 5, 2, 1]);
        let model = AnalyticModel::from_histogram(h.clone());
        // sets = 1 reduces to the exact Mattson rule.
        for w in 1..=8u32 {
            let exact = h.misses_at(w) as f64 / h.refs as f64;
            let got = model.predict(1, w).unwrap();
            assert!((got - exact).abs() < 1e-12, "w={w}: {got} vs {exact}");
        }
        // More ways or more sets never predict more misses.
        for (s, w) in [(2u32, 1u32), (4, 1), (4, 2), (64, 2)] {
            let base = model.predict(s, w).unwrap();
            assert!(model.predict(s * 2, w).unwrap() <= base + 1e-12);
            assert!(model.predict(s, w * 2).unwrap() <= base + 1e-12);
        }
        assert!(model.predict(4, 0).is_none());
        let empty = AnalyticModel::from_histogram(hist(0, &[]));
        assert!(empty.predict(4, 1).is_none());
    }

    /// Targets at two line sizes, modulus and hashed, under a sampling
    /// cap each group clamps differently (32-byte lines: K = 8; 64-byte
    /// lines, whose smallest target has 4 sets: K = 4). Every price is
    /// bit-equal to a standalone stack pass and model per group.
    #[test]
    fn pricer_matches_a_standalone_pass_per_line_size() {
        use cac_trace::kernels::mem_refs;
        use cac_trace::spec::SpecBenchmark;

        let geom = |size, line, ways| CacheGeometry::new(size, line, ways).unwrap();
        let targets = [
            (geom(8192, 32, 2), IndexSpec::modulo()),
            (geom(2048, 64, 8), IndexSpec::ipoly()),
            (geom(8192, 32, 2), IndexSpec::ipoly_skewed()),
            (geom(1024, 32, 1), IndexSpec::modulo()),
            (geom(16384, 64, 4), IndexSpec::xor_skewed()),
            (geom(2048, 64, 8), IndexSpec::modulo()),
        ];
        let refs: Vec<MemRef> =
            mem_refs(SpecBenchmark::Tomcatv.generator(5).take(60_000)).collect();
        let mut pricer = Pricer::new(&targets, SetSampling::UpTo(8)).unwrap();
        pricer.run_refs(&refs);
        let prices = pricer.prices();
        assert_eq!(prices.len(), targets.len());
        assert_eq!(
            pricer
                .groups()
                .iter()
                .map(LruStackSweep::sampling)
                .collect::<Vec<_>>(),
            vec![8, 4]
        );

        for (line, k) in [(32u64, 8u32), (64, 4)] {
            let members: Vec<usize> = (0..targets.len())
                .filter(|&i| targets[i].0.block() == line)
                .collect();
            let mut sets = vec![1];
            sets.extend(members.iter().map(|&i| targets[i].0.num_sets()));
            let mut stack = LruStackSweep::new(line, &sets)
                .unwrap()
                .with_set_sampling(k)
                .unwrap();
            for r in &refs {
                stack.observe(r.addr);
            }
            let model = AnalyticModel::from_sweep(&stack).unwrap();
            let se = stack.sampling_standard_error().unwrap();
            for i in members {
                let (g, index) = &targets[i];
                let want = if *index == IndexSpec::modulo() {
                    stack.miss_ratio(g.num_sets(), g.ways())
                } else {
                    model.predict(g.num_sets(), g.ways())
                };
                assert_eq!(
                    prices[i].estimate.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "target {i}"
                );
                assert_eq!(prices[i].se.to_bits(), se.to_bits(), "target {i}");
            }
        }

        // Exact sampling takes K as given: within every group's
        // smallest multi-set count, or rejected.
        assert!(Pricer::new(&targets, SetSampling::Exact(4)).is_ok());
        assert!(Pricer::new(&targets, SetSampling::Exact(8)).is_err());
        assert!(Pricer::new(&targets, SetSampling::Exact(3)).is_err());
        // A one-set target keeps its group exact under a cap.
        let fa = [(geom(8192, 32, 256), IndexSpec::modulo())];
        let pricer = Pricer::new(&fa, SetSampling::UpTo(8)).unwrap();
        assert_eq!(pricer.groups()[0].sampling(), 1);
    }

    #[test]
    fn pruning_keeps_the_band_and_never_the_dominated() {
        let keep = prune_dominated(&[Some(0.10), Some(0.12), Some(0.30), Some(0.101)], 0.05);
        assert_eq!(keep, vec![true, true, false, true]);
        // Ties all survive; NaN and unpriced targets are never pruned.
        assert_eq!(
            prune_dominated(&[Some(0.2), Some(0.2)], 0.0),
            vec![true, true]
        );
        assert_eq!(
            prune_dominated(&[Some(f64::NAN), Some(0.5)], 0.1),
            vec![true, true],
            "non-finite predictions must survive"
        );
        assert_eq!(
            prune_dominated(&[None, Some(0.5), Some(0.1)], 0.1),
            vec![true, false, true],
            "unpriced targets must survive without setting the best"
        );
        assert!(prune_dominated(&[], 0.1).is_empty());
    }
}
