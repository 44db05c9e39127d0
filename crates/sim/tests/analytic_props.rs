//! Property-based hardening for the analytic tier.
//!
//! The one-pass suffix-sum curve must agree **exactly** with naive
//! histogram replay at every (size, assoc) grid point, the curves must
//! obey Mattson inclusion (monotone non-increasing in capacity), and
//! the histogram handed out by [`LruStackSweep`] must reproduce the
//! sweep's own miss counts — three independent code paths over the same
//! counts.

use cac_sim::analytic::{
    lru_curve_from_histogram, prune_dominated, set_conflict_probability, StackHistogram,
};
use cac_sim::sweep::LruStackSweep;
use cac_sim::AnalyticModel;
use proptest::prelude::*;

/// An arbitrary histogram: cold count plus per-depth counts, kept small
/// enough that `refs` sums without overflow.
fn arb_histogram() -> impl Strategy<Value = StackHistogram> {
    (0u64..1_000, proptest::collection::vec(0u64..1_000, 0..40)).prop_map(|(cold, depths)| {
        let refs = cold + depths.iter().sum::<u64>();
        StackHistogram { cold, depths, refs }
    })
}

proptest! {
    /// The suffix-sum curve equals naive replay (`misses_at`) at every
    /// associativity, including ways beyond the histogram's depth.
    #[test]
    fn curve_equals_naive_replay_everywhere(h in arb_histogram(), max_ways in 1u32..64) {
        let curve = lru_curve_from_histogram(&h, max_ways);
        if h.refs == 0 {
            prop_assert!(curve.is_empty());
            return Ok(());
        }
        prop_assert_eq!(curve.len(), max_ways as usize);
        for w in 1..=max_ways {
            let naive = h.misses_at(w) as f64 / h.refs as f64;
            prop_assert_eq!(curve[w as usize - 1], naive, "ways {}", w);
        }
    }

    /// Mattson inclusion: more ways at a fixed set count never miss
    /// more, and every ratio is a probability.
    #[test]
    fn curve_is_monotone_and_bounded(h in arb_histogram(), max_ways in 1u32..64) {
        let curve = lru_curve_from_histogram(&h, max_ways);
        for pair in curve.windows(2) {
            prop_assert!(pair[1] <= pair[0], "curve must be non-increasing: {:?}", pair);
        }
        for &r in &curve {
            prop_assert!((0.0..=1.0).contains(&r), "miss ratio {} out of range", r);
        }
    }

    /// The binomial conflict tail is a probability, monotone
    /// non-increasing in both `sets` and `ways` (bigger or more
    /// associative caches cannot conflict more), and exact at the
    /// degenerate corners.
    #[test]
    fn conflict_probability_is_monotone(sets in 1u32..4096, ways in 1u32..32, d in 0u64..10_000) {
        let p = set_conflict_probability(sets, ways, d);
        prop_assert!((0.0..=1.0).contains(&p), "p = {}", p);
        prop_assert!(set_conflict_probability(sets * 2, ways, d) <= p + 1e-12);
        prop_assert!(set_conflict_probability(sets, ways + 1, d) <= p + 1e-12);
        if d < u64::from(ways) {
            prop_assert_eq!(p, 0.0);
        }
    }

    /// The model's predicted miss ratio is monotone non-increasing in
    /// associativity at a fixed set count — the property the dominance
    /// pruner leans on.
    #[test]
    fn model_prediction_is_monotone_in_ways(seed in 0u64..1_000, sets in 1u32..9) {
        let mut sweep = LruStackSweep::new(32, &[1]).unwrap();
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        for _ in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            sweep.observe(x % (1 << 16));
        }
        let model = AnalyticModel::from_sweep(&sweep).unwrap();
        let sets = 1 << sets;
        let mut prev = f64::INFINITY;
        for ways in 1..=16u32 {
            let p = model.predict(sets, ways).unwrap();
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert!(p <= prev + 1e-12, "ways {}: {} > {}", ways, p, prev);
            prev = p;
        }
    }

    /// The pruner keeps every cell within the band of the best
    /// prediction and drops every cell beyond it; the best cell itself
    /// always survives.
    #[test]
    fn pruner_respects_the_band(
        raw in proptest::collection::vec(0u64..10_000, 1..32),
        band_mils in 0u64..500,
    ) {
        // The shimmed proptest has no f64 strategies; derive ratios and
        // the band from integer strategies instead.
        let predicted: Vec<f64> = raw.iter().map(|&v| v as f64 / 10_000.0).collect();
        let band = band_mils as f64 / 1_000.0;
        let priced: Vec<Option<f64>> = predicted.iter().copied().map(Some).collect();
        let keep = prune_dominated(&priced, band);
        prop_assert_eq!(keep.len(), predicted.len());
        let best = predicted.iter().copied().fold(f64::INFINITY, f64::min);
        for (i, (&p, &k)) in predicted.iter().zip(&keep).enumerate() {
            prop_assert_eq!(k, p <= best + band, "cell {} p {} best {}", i, p, best);
        }
    }
}

/// Differential: the histogram a sweep hands out reproduces the sweep's
/// own miss counts at every set count and associativity it tracked —
/// `LruStackSweep::misses` and `StackHistogram::misses_at` are
/// independent summations over the same recorded counts.
#[test]
fn sweep_histogram_reproduces_sweep_misses() {
    let set_counts = [1u32, 8, 64, 256];
    let mut sweep = LruStackSweep::new(32, &set_counts).unwrap();
    let mut x = 0xdead_beef_cafe_f00du64;
    for _ in 0..20_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sweep.observe(x % (1 << 18));
    }
    for &sets in &set_counts {
        let h = sweep.histogram(sets).unwrap();
        assert_eq!(h.refs, sweep.refs_sampled());
        let curve = lru_curve_from_histogram(&h, 32);
        for ways in 1..=32u32 {
            assert_eq!(
                h.misses_at(ways),
                sweep.misses(sets, ways).unwrap(),
                "sets {sets} ways {ways}"
            );
            let ratio = sweep.miss_ratio(sets, ways).unwrap();
            assert!(
                (curve[ways as usize - 1] - ratio).abs() < 1e-12,
                "sets {sets} ways {ways}"
            );
        }
    }
}
