//! Oracle for `LruStackSweep`'s reuse stacks.
//!
//! The engine keeps shallow sets as move-to-front vectors and promotes
//! deep ones to a stamp tree that renumbers its stamps as they run
//! out. Either way the recorded histogram must equal, bucket for
//! bucket, the one a naive move-to-front stack per set records. The
//! streams below cross the promotion depth and many renumberings, with
//! and without set sampling, and include a power-of-two stride that
//! collapses a 256-set modulo family onto a single deep set.

use cac_sim::analytic::StackHistogram;
use cac_sim::sweep::LruStackSweep;

const LINE: u64 = 32;
const FAMILIES: [u32; 6] = [1, 4, 16, 64, 128, 256];

/// The textbook Mattson pass: one `Vec` stack per set, MRU first, with
/// 1-in-`k` sampling on the block address.
fn naive_histogram(addrs: &[u64], sets: u32, k: u64) -> StackHistogram {
    let mut stacks: Vec<Vec<u64>> = vec![Vec::new(); sets as usize];
    let mut hist = StackHistogram {
        cold: 0,
        depths: Vec::new(),
        refs: 0,
    };
    for &addr in addrs {
        let block = addr / LINE;
        if !block.is_multiple_of(k) {
            continue;
        }
        hist.refs += 1;
        let stack = &mut stacks[(block % u64::from(sets)) as usize];
        match stack.iter().position(|&b| b == block) {
            Some(depth) => {
                stack[..=depth].rotate_right(1);
                if hist.depths.len() <= depth {
                    hist.depths.resize(depth + 1, 0);
                }
                hist.depths[depth] += 1;
            }
            None => {
                hist.cold += 1;
                stack.insert(0, block);
            }
        }
    }
    hist
}

fn assert_matches_oracle(addrs: &[u64], k: u32) {
    let mut sweep = LruStackSweep::new(LINE, &FAMILIES)
        .unwrap()
        .with_set_sampling(k)
        .unwrap();
    for &a in addrs {
        sweep.observe(a);
    }
    for sets in FAMILIES {
        let want = naive_histogram(addrs, sets, u64::from(k));
        assert_eq!(
            sweep.histogram(sets).unwrap(),
            want,
            "sets {sets}, sampling 1/{k}"
        );
    }
}

/// A deterministic stream over `footprint` blocks: a hot loop, uniform
/// reuse of the whole footprint, and sequential sweeps, so depths range
/// from 0 to the footprint and every block is reused many times.
fn mixed_stream(footprint: u64, n: usize, seed: u64) -> Vec<u64> {
    let mut x = seed;
    let mut next = move || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 33
    };
    let mut sweep_pos = 0;
    (0..n)
        .map(|_| {
            let block = match next() % 4 {
                0 => next() % 48,
                1 | 2 => next() % footprint,
                _ => {
                    sweep_pos = (sweep_pos + 1) % footprint;
                    sweep_pos
                }
            };
            block * LINE + next() % LINE
        })
        .collect()
}

#[test]
fn histograms_equal_the_naive_stacks_across_promotion_and_renumbering() {
    // 3 000 blocks: the 1- and 4-set families go deep (750+ blocks a
    // set), the 64–256-set families stay shallow. 60 000 refs renumber
    // the deep stamps many times over.
    let addrs = mixed_stream(3_000, 60_000, 7);
    for k in [1, 4] {
        assert_matches_oracle(&addrs, k);
    }
}

#[test]
fn histograms_equal_the_naive_stacks_just_past_the_promotion_depth() {
    // Footprints either side of the promotion depth: the 1-set stack
    // never promotes, or promotes holding barely more than the depth.
    for footprint in [200, 257, 258, 520, 1_040] {
        let addrs = mixed_stream(footprint, 20_000, footprint);
        assert_matches_oracle(&addrs, 1);
    }
}

#[test]
fn power_of_two_stride_collapses_a_modulo_family_onto_one_deep_set() {
    // Stride 256 blocks: every block maps to set 0 of every family, so
    // the 256-set family has one deep stack of 1 000 blocks and 255
    // empty ones. Reuse cycles forward and backward over the vector.
    let stride = 256 * LINE;
    let mut addrs = Vec::new();
    for pass in 0..12u64 {
        let len = 1_000 - 40 * pass;
        let order: Vec<u64> = if pass % 2 == 0 {
            (0..len).collect()
        } else {
            (0..len).rev().collect()
        };
        addrs.extend(order.into_iter().map(|i| i * stride));
    }
    for k in [1, 4] {
        assert_matches_oracle(&addrs, k);
    }
    let mut sweep = LruStackSweep::new(LINE, &[256]).unwrap();
    for &a in &addrs {
        sweep.observe(a);
    }
    let hist = sweep.histogram(256).unwrap();
    assert_eq!(hist.cold, 1_000);
    assert!(hist.depths.len() > 900, "deep reuse recorded");
}
