//! A quick copy of `crates/sim/tests/stack_oracle.rs`: the one-pass
//! stack sweep's histograms against a naive move-to-front stack per
//! set, on a stream whose deep sets cross the promotion depth and
//! renumber their stamps, with and without set sampling, plus a stride
//! that folds a 256-set family onto one set.

use cac::sim::analytic::StackHistogram;
use cac::sim::sweep::LruStackSweep;

const LINE: u64 = 32;
const FAMILIES: [u32; 4] = [1, 4, 64, 256];

fn naive_histogram(addrs: &[u64], sets: u32, k: u64) -> StackHistogram {
    let mut stacks: Vec<Vec<u64>> = vec![Vec::new(); sets as usize];
    let mut hist = StackHistogram {
        cold: 0,
        depths: Vec::new(),
        refs: 0,
    };
    for block in addrs
        .iter()
        .map(|a| a / LINE)
        .filter(|b| b.is_multiple_of(k))
    {
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

#[test]
fn stack_sweep_histograms_equal_naive_move_to_front_stacks() {
    let mut x = 3u64;
    let mut mixed: Vec<u64> = (0..20_000)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = x >> 33;
            let block = if r.is_multiple_of(3) {
                r % 32
            } else {
                (r >> 4) % 1_200
            };
            block * LINE
        })
        .collect();
    // Stride 256 blocks, forward then backward, over 400 blocks.
    let strided = (0..400u64).chain((0..400).rev()).cycle().take(4_000);
    mixed.extend(strided.map(|i| i * 256 * LINE));

    for k in [1u32, 4] {
        let mut sweep = LruStackSweep::new(LINE, &FAMILIES)
            .unwrap()
            .with_set_sampling(k)
            .unwrap();
        for &a in &mixed {
            sweep.observe(a);
        }
        for sets in FAMILIES {
            assert_eq!(
                sweep.histogram(sets).unwrap(),
                naive_histogram(&mixed, sets, u64::from(k)),
                "sets {sets}, sampling 1/{k}"
            );
        }
    }
}
