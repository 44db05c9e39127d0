//! Property-based tests for the cache simulators.

use cac_core::{CacheGeometry, IndexSpec};
use cac_sim::cache::{Cache, WritePolicy};
use cac_sim::classify::ThreeCClassifier;
use cac_sim::column::ColumnAssociative;
use cac_sim::model::MemoryModel;
use cac_sim::stack::{Hierarchy, LevelBuilder};
use cac_sim::vm::PageMapper;
use cac_sim::SimConfig;
use cac_trace::MemRef;
use proptest::prelude::*;

/// Builds one of the `[victim]`/`[stream]`/`[jouppi]` organizations.
fn organization(toml: &str) -> Box<dyn MemoryModel> {
    SimConfig::from_toml_str(toml).unwrap().build().unwrap()
}

fn load(addr: u64) -> MemRef {
    MemRef {
        pc: 0,
        addr,
        is_write: false,
    }
}

fn geometries() -> impl Strategy<Value = CacheGeometry> {
    (10u32..15, 5u32..7, 0u32..2)
        .prop_map(|(cap, blk, way)| CacheGeometry::new(1u64 << cap, 1u64 << blk, 1 << way).unwrap())
}

fn specs() -> impl Strategy<Value = IndexSpec> {
    prop_oneof![
        Just(IndexSpec::modulo()),
        Just(IndexSpec::xor_skewed()),
        Just(IndexSpec::ipoly()),
        Just(IndexSpec::ipoly_skewed()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An access to an address always makes it resident (reads allocate),
    /// and an immediate re-access hits.
    #[test]
    fn read_then_read_hits(geom in geometries(), spec in specs(),
                           addrs in proptest::collection::vec(any::<u32>(), 1..200)) {
        let mut c = Cache::build(geom, spec).unwrap();
        for &a in &addrs {
            c.read(u64::from(a));
            prop_assert!(c.read(u64::from(a)).hit);
        }
    }

    /// Residency never exceeds the number of lines.
    #[test]
    fn capacity_invariant(geom in geometries(), spec in specs(),
                          addrs in proptest::collection::vec(any::<u32>(), 1..500)) {
        let mut c = Cache::build(geom, spec).unwrap();
        for &a in &addrs {
            c.access(u64::from(a), a % 3 == 0);
            prop_assert!(c.resident_lines() <= geom.num_blocks() as usize);
        }
    }

    /// hits + misses == accesses, and reads + writes == accesses.
    #[test]
    fn stats_balance(geom in geometries(), spec in specs(),
                     addrs in proptest::collection::vec((any::<u32>(), any::<bool>()), 1..300)) {
        let mut c = Cache::build(geom, spec).unwrap();
        for &(a, w) in &addrs {
            c.access(u64::from(a), w);
        }
        let s = c.stats();
        prop_assert_eq!(s.hits + s.misses, s.accesses);
        prop_assert_eq!(s.reads + s.writes, s.accesses);
        prop_assert_eq!(s.accesses, addrs.len() as u64);
    }

    /// Write-through/no-write-allocate never leaves a written-only block
    /// resident.
    #[test]
    fn no_write_allocate_property(geom in geometries(),
                                  addrs in proptest::collection::vec(any::<u32>(), 1..100)) {
        let mut c = Cache::builder(geom)
            .write_policy(WritePolicy::WriteThroughNoAllocate)
            .build()
            .unwrap();
        for &a in &addrs {
            let before = c.contains(u64::from(a));
            c.write(u64::from(a));
            prop_assert_eq!(c.contains(u64::from(a)), before);
        }
    }

    /// 3C classification is exhaustive and consistent with raw stats.
    #[test]
    fn classification_totals(geom in geometries(), spec in specs(),
                             addrs in proptest::collection::vec(any::<u16>(), 1..300)) {
        let mut c = ThreeCClassifier::new(geom, spec).unwrap();
        for &a in &addrs {
            c.read(u64::from(a) * 8);
        }
        let s = c.stats();
        prop_assert_eq!(s.accesses(), addrs.len() as u64);
        prop_assert_eq!(s.misses(), c.cache_stats().misses);
    }

    /// Column-associative cache: every resident block is at one of its two
    /// homes (no orphans), and stats balance.
    #[test]
    fn column_assoc_no_orphans(addrs in proptest::collection::vec(any::<u16>(), 1..400)) {
        let geom = CacheGeometry::new(4096, 32, 1).unwrap();
        let mut c = ColumnAssociative::new(geom).unwrap();
        for &a in &addrs {
            c.read(u64::from(a) * 16);
            // Re-read must hit: the block is at a probe-able home.
            prop_assert!(c.read(u64::from(a) * 16).is_hit());
        }
        let s = c.stats();
        prop_assert_eq!(s.first_probe_hits + s.second_probe_hits + s.misses, s.accesses);
    }

    /// Differential test: the parametric `Cache` agrees access-for-access
    /// with a trivially-correct per-set LRU oracle for every non-skewed
    /// placement function.
    #[test]
    fn cache_matches_lru_oracle(
        geom in geometries(),
        spec in prop_oneof![
            Just(IndexSpec::modulo()),
            Just(IndexSpec::ipoly()),
            Just(IndexSpec::add_skew()),
            Just(IndexSpec::rand_table()),
        ],
        addrs in proptest::collection::vec(any::<u16>(), 1..500),
    ) {
        use std::collections::VecDeque;
        let mut cache = Cache::build(geom, spec.clone()).unwrap();
        let f = spec.build(geom).unwrap();
        // Oracle: one LRU list per set, most-recent at the back.
        let mut oracle: Vec<VecDeque<u64>> = vec![VecDeque::new(); geom.num_sets() as usize];
        for &a in &addrs {
            let addr = u64::from(a);
            let block = geom.block_addr(addr);
            let set = f.set_index(block, 0) as usize;
            let oracle_hit = oracle[set].contains(&block);
            if oracle_hit {
                let pos = oracle[set].iter().position(|&b| b == block).unwrap();
                oracle[set].remove(pos);
            } else if oracle[set].len() == geom.ways() as usize {
                oracle[set].pop_front();
            }
            oracle[set].push_back(block);

            let access = cache.read(addr);
            prop_assert_eq!(access.hit, oracle_hit, "addr {:#x} under {}", addr, spec);
        }
        // Final residency agrees too.
        let mut resident: Vec<u64> = cache.resident_blocks().collect();
        let mut expected: Vec<u64> = oracle.iter().flatten().copied().collect();
        resident.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(resident, expected);
    }

    /// Jouppi organization: the four outcome counters partition the
    /// accesses, and re-reading any address immediately afterwards hits.
    #[test]
    fn jouppi_counters_partition_accesses(
        addrs in proptest::collection::vec(any::<u32>(), 1..400)
    ) {
        let mut c = organization(
            "[jouppi]\nsize = \"4KiB\"\nvictim-lines = 4\nstream-buffers = 4\nstream-depth = 4\n",
        );
        for &a in &addrs {
            let addr = u64::from(a) % (1 << 22);
            c.access(load(addr));
            let before = c.stats().extra("main-hits").unwrap();
            c.access(load(addr));
            let after = c.stats().extra("main-hits").unwrap();
            prop_assert_eq!(after, before + 1,
                "immediate re-read of {:#x} must hit the cache", addr);
        }
        let s = c.stats();
        let get = |name| s.extra(name).unwrap();
        prop_assert_eq!(
            get("main-hits") + get("victim-hits") + get("stream-hits") + s.demand.misses,
            s.demand.accesses
        );
    }

    /// Stream buffers never increase the full-miss count over the bare
    /// cache (prefetch can only convert misses into stream hits).
    #[test]
    fn stream_buffers_never_hurt(
        addrs in proptest::collection::vec(any::<u16>(), 1..400)
    ) {
        let geom = CacheGeometry::new(4096, 32, 1).unwrap();
        let mut bare = Cache::build(geom, IndexSpec::modulo()).unwrap();
        let mut buffered = organization("[stream]\nsize = \"4KiB\"\nbuffers = 4\ndepth = 4\n");
        let mut bare_misses = 0u64;
        for &a in &addrs {
            let addr = u64::from(a);
            if !bare.read(addr).hit {
                bare_misses += 1;
            }
            buffered.access(load(addr));
        }
        prop_assert!(buffered.stats().demand.misses <= bare_misses);
    }

    /// TLB translations always agree with the page table, and the stats
    /// are internally consistent.
    #[test]
    fn tlb_translations_match_mapper(
        entries_log in 2u32..7,
        ways_log in 0u32..3,
        vas in proptest::collection::vec(any::<u32>(), 1..300),
    ) {
        use cac_sim::tlb::Tlb;
        let entries = 1u32 << entries_log;
        let ways = (1u32 << ways_log).min(entries);
        let mut tlb = Tlb::new(entries, ways, 4096, 30).unwrap();
        let mut mapper = PageMapper::randomized(4096, 1 << 28, 9);
        let mut reference = PageMapper::randomized(4096, 1 << 28, 9);
        for &va in &vas {
            let va = u64::from(va) % (1 << 24);
            let (pa, _) = tlb.translate(va, &mut mapper);
            prop_assert_eq!(pa, reference.translate(va), "va {:#x}", va);
        }
        let s = tlb.stats();
        prop_assert_eq!(s.accesses, vas.len() as u64);
        prop_assert!(s.misses <= s.accesses);
        prop_assert!(s.evictions <= s.misses);
        prop_assert!((0.0..=1.0).contains(&s.miss_ratio()));
    }

    /// The option-2 controller's mode is always a pure function of the
    /// currently-mapped segments, its per-mode access counts are
    /// conserved, and stats accumulate across flushes.
    #[test]
    fn dynamic_index_cache_mode_consistency(
        ops in proptest::collection::vec((0u8..3, any::<u8>(), any::<u16>()), 1..200)
    ) {
        use cac_sim::pagesize::{DynamicIndexCache, IndexMode, Segment};
        let geom = CacheGeometry::new(8 * 1024, 32, 2).unwrap();
        let mut c = DynamicIndexCache::new(geom, IndexSpec::ipoly_skewed(), 1 << 18).unwrap();
        let mut accesses = 0u64;
        for &(op, slot, val) in &ops {
            let base = u64::from(slot) << 24;
            match op {
                0 => {
                    let page: u64 = if val % 2 == 0 { 4096 } else { 1 << 18 };
                    let _ = c.map_segment(Segment::new(base, page * 4, page).unwrap());
                }
                1 => {
                    let _ = c.unmap_segment(base);
                }
                _ => {
                    c.read(u64::from(val) * 32);
                    accesses += 1;
                }
            }
            // Mode must match the segment predicate at every step.
            let all_big = (0u64..256).all(|s| {
                match c.segment_of(s << 24) {
                    Some(seg) => seg.page_size() >= c.threshold(),
                    None => true,
                }
            });
            let any_mapped = (0u64..256).any(|s| c.segment_of(s << 24).is_some());
            let want = if any_mapped && all_big { IndexMode::IPoly } else { IndexMode::Conventional };
            prop_assert_eq!(c.mode(), want);
        }
        prop_assert_eq!(c.stats().accesses, accesses);
        let (a, b) = c.accesses_by_mode();
        prop_assert_eq!(a + b, accesses);
    }

    /// Coherence: inclusion holds in every node and a write leaves no
    /// remote copy, for any interleaving of reads and writes.
    #[test]
    fn coherence_inclusion_invariant(
        ops in proptest::collection::vec((0usize..3, any::<u16>(), any::<bool>()), 1..500)
    ) {
        use cac_sim::coherence::SnoopingBus;
        let l1 = LevelBuilder::new(CacheGeometry::new(1024, 32, 1).unwrap())
            .index_spec(IndexSpec::ipoly());
        let l2 = LevelBuilder::new(CacheGeometry::new(4096, 32, 2).unwrap()).write_back();
        let node = || Hierarchy::builder()
            .virtual_l1(PageMapper::identity())
            .level(l1.clone())
            .level(l2.clone())
            .build()
            .unwrap();
        let mut bus = SnoopingBus::new(vec![node(), node(), node()]).unwrap();
        for &(n, a, w) in &ops {
            let va = u64::from(a) % (1 << 14);
            if w {
                bus.write(n, va).unwrap();
                let pa_block = va / 32;
                for j in 0..3 {
                    if j != n {
                        prop_assert!(!bus.node(j).unwrap().holds_physical_block(pa_block));
                    }
                }
            } else {
                bus.read(n, va).unwrap();
            }
        }
        prop_assert!(bus.check_invariants());
        let s = bus.stats();
        prop_assert!(s.remote_l2_invalidations <= s.snoops);
        prop_assert!(s.remote_l1_holes <= s.remote_l2_invalidations);
    }

    /// Inclusion holds after any access sequence.
    #[test]
    fn inclusion_invariant(addrs in proptest::collection::vec((any::<u32>(), any::<bool>()), 1..400)) {
        let l1 = CacheGeometry::new(1024, 32, 2).unwrap();
        let l2 = CacheGeometry::new(8192, 32, 2).unwrap();
        let mut h = Hierarchy::builder()
            .virtual_l1(PageMapper::randomized(4096, 1 << 26, 11))
            .level(LevelBuilder::new(l1).index_spec(IndexSpec::ipoly_skewed()))
            .level(LevelBuilder::new(l2).write_back())
            .build()
            .unwrap();
        for &(a, w) in &addrs {
            h.access(u64::from(a) % (1 << 22), w);
        }
        prop_assert!(h.check_inclusion());
        prop_assert!(h.holes_created() <= h.inclusion_invalidations());
    }
}
