//! Generic N-level cache hierarchies with per-level sidecars: the one
//! hierarchy engine behind every multi-structure organization.
//!
//! A [`Hierarchy`] is a stack of any number of [`Cache`] levels, with
//! Inclusion enforced between levels (an eviction at level *j*
//! invalidates the block everywhere above, the §3.2 property that makes
//! snooping cheap), and with the structures Jouppi's organization
//! \[13\] bakes into one type — a victim buffer, sequential stream
//! buffers and a Kroft MSHR file — attachable as *sidecars* to **any**
//! level instead.
//!
//! Semantics per level, processor side first:
//!
//! 1. the cache array is probed (and filled on a read miss, as
//!    [`Cache::access`] does);
//! 2. on a miss, the victim buffer is probed — a hit swaps the block
//!    back (the fill of step 1 *is* the swap-back) and the access is
//!    serviced here, generating no next-level traffic;
//! 3. then the stream-buffer heads — a head hit services the access and
//!    advances the prefetch FIFO;
//! 4. a full miss allocates a stream (reads), presents the block to the
//!    MSHR file (bookkeeping only — occupancy never changes hit/miss
//!    behaviour), and falls through to the next level, as a read when
//!    this level allocated (the downstream traffic is the fill fetch)
//!    or as the original write when it did not (write-through).
//!
//! Any line a level's cache evicts drops into that level's victim
//! buffer when one is attached; blocks leaving a level entirely trigger
//! the Inclusion invalidation of all levels above it.
//!
//! # Virtual-real stacks
//!
//! [`HierarchyBuilder::virtual_l1`] makes level 0 virtually indexed and
//! tagged over physically addressed deeper levels: the paper's §3
//! *virtual-real* design (Wang, Baer & Levy \[25\]), which exposes all
//! virtual address bits to the I-Poly hash without a translation delay.
//! Level 0 sees the virtual address; every deeper level, write-through
//! traffic included, sees the address a [`PageMapper`] translates it
//! to. A reverse map from physical block to the virtual block resident
//! at level 0 does three jobs:
//!
//! * Inclusion: a physical block leaving level 1 invalidates its
//!   virtual copy at level 0. Because the L1 and L2 index functions are
//!   unrelated hashes, that usually punches a *hole* the refill does
//!   not plug — the effect §3.3 models with
//!   `P_H = (2^{m_1} − 1)/2^{m_2}`;
//! * alias control: at most one virtual alias of a physical block is
//!   resident at level 0; filling a second invalidates the first (§3.3
//!   cause 2, `alias-invalidations`);
//! * coherence: [`Hierarchy::snoop_invalidate`] removes a physical block
//!   a remote writer broadcast, holes included (§3.3 cause 3; see
//!   [`crate::coherence`]).
//!
//! Such a stack reports itself as a `virtual-real hierarchy` and adds
//! `alias-invalidations` and `external-invalidations-{l1,l2}` to its
//! extras. It is what `[hierarchy] virtual-real = true` builds.
//!
//! The `[victim]`, `[stream]` and `[jouppi]` organizations of
//! [`crate::config`] are one-level stacks with sidecars. Golden files
//! under `crates/sim/tests/golden/` pin every one of these
//! organizations, virtual-real included, per access; they were
//! recorded from the concrete types these stacks replaced.
//!
//! # Example
//!
//! ```
//! use cac_core::{CacheGeometry, IndexSpec};
//! use cac_sim::stack::{Hierarchy, LevelBuilder};
//!
//! // Three levels: 8KB skewed-I-Poly L1 with a 4-line victim buffer,
//! // 256KB L2, 2MB L3 (both write-back).
//! let mut h = Hierarchy::builder()
//!     .level(
//!         LevelBuilder::new(CacheGeometry::new(8 * 1024, 32, 2)?)
//!             .index_spec(IndexSpec::ipoly_skewed())
//!             .victim_buffer(4),
//!     )
//!     .level(LevelBuilder::new(CacheGeometry::new(256 * 1024, 32, 2)?).write_back())
//!     .level(LevelBuilder::new(CacheGeometry::new(2 << 20, 32, 4)?).write_back())
//!     .build()?;
//! h.access(0x1234, false);
//! assert!(h.access(0x1234, false).hit);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::assoc::VictimQueue;
use crate::cache::{Cache, CacheBuilder, WritePolicy};
use crate::model::{extra, AccessOutcome, ComponentStats, MemoryModel, ModelStats, ServicePoint};
use crate::mshr::MshrFile;
use crate::replacement::ReplacementPolicy;
use crate::stats::CacheStats;
use crate::vm::PageMapper;
use cac_core::{CacheGeometry, Error, IndexSpec};
use cac_trace::MemRef;
use std::collections::{HashMap, VecDeque};

/// Default MSHR fill latency presented to an attached [`MshrFile`]
/// (cycles); purely bookkeeping.
pub const DEFAULT_MISS_PENALTY: u64 = 20;

/// Declarative description of one hierarchy level: a cache plus
/// optional sidecars. Consumed by [`HierarchyBuilder::level`].
#[derive(Debug, Clone)]
pub struct LevelBuilder {
    cache: CacheBuilder,
    victim_lines: Option<usize>,
    stream: Option<(usize, usize)>,
    mshrs: Option<usize>,
    miss_penalty: u64,
}

impl LevelBuilder {
    /// Starts a level with the paper's L1 defaults: modulo indexing,
    /// LRU, write-through / no-write-allocate, no sidecars.
    pub fn new(geom: CacheGeometry) -> Self {
        LevelBuilder {
            cache: CacheBuilder::new(geom),
            victim_lines: None,
            stream: None,
            mshrs: None,
            miss_penalty: DEFAULT_MISS_PENALTY,
        }
    }

    /// Sets the placement scheme.
    #[must_use]
    pub fn index_spec(mut self, spec: IndexSpec) -> Self {
        self.cache = self.cache.index_spec(spec);
        self
    }

    /// Sets the replacement policy.
    #[must_use]
    pub fn replacement(mut self, policy: ReplacementPolicy) -> Self {
        self.cache = self.cache.replacement(policy);
        self
    }

    /// Sets the write policy.
    #[must_use]
    pub fn write_policy(mut self, policy: WritePolicy) -> Self {
        self.cache = self.cache.write_policy(policy);
        self
    }

    /// Shorthand for write-back / write-allocate (the paper's L2).
    #[must_use]
    pub fn write_back(self) -> Self {
        self.write_policy(WritePolicy::WriteBackAllocate)
    }

    /// Seeds the random-replacement stream.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.cache = self.cache.seed(seed);
        self
    }

    /// Attaches a fully-associative LRU victim buffer of `lines` entries
    /// (Jouppi's configuration is 4).
    #[must_use]
    pub fn victim_buffer(mut self, lines: usize) -> Self {
        self.victim_lines = Some(lines);
        self
    }

    /// Attaches `buffers` sequential stream buffers of `depth` blocks
    /// each (Jouppi's configuration is 4 × 4).
    #[must_use]
    pub fn stream_buffers(mut self, buffers: usize, depth: usize) -> Self {
        self.stream = Some((buffers, depth));
        self
    }

    /// Attaches a Kroft MSHR file of `registers` entries (the paper's
    /// processor allows 8 outstanding misses). Bookkeeping only.
    #[must_use]
    pub fn mshrs(mut self, registers: usize) -> Self {
        self.mshrs = Some(registers);
        self
    }

    /// Fill latency reported to the MSHR file on a miss, in cycles.
    #[must_use]
    pub fn miss_penalty(mut self, cycles: u64) -> Self {
        self.miss_penalty = cycles;
        self
    }

    fn build(self) -> Result<Level, Error> {
        for (what, v) in [
            ("victim buffer lines", self.victim_lines),
            ("stream buffers", self.stream.map(|(n, _)| n)),
            ("stream buffer depth", self.stream.map(|(_, d)| d)),
            ("MSHR registers", self.mshrs),
        ] {
            if v == Some(0) {
                return Err(Error::OutOfRange {
                    what,
                    value: 0,
                    constraint: ">= 1",
                });
            }
        }
        Ok(Level {
            cache: self.cache.build()?,
            victim: self.victim_lines.map(VictimQueue::new),
            streams: self.stream.map(|(buffers, depth)| StreamSet {
                buffers: Vec::with_capacity(buffers),
                heads: Vec::with_capacity(buffers),
                capacity: buffers,
                depth,
                flushed_unused: 0,
            }),
            mshr: self.mshrs.map(MshrFile::new),
            miss_penalty: self.miss_penalty,
            victim_hits: 0,
            stream_hits: 0,
        })
    }
}

/// One sequential prefetch FIFO (Jouppi's head-only policy).
#[derive(Debug)]
struct StreamFifo {
    fifo: VecDeque<u64>,
    next: u64,
    last_used: u64,
}

/// A set of stream buffers attached to one level.
#[derive(Debug)]
struct StreamSet {
    buffers: Vec<StreamFifo>,
    /// Flat tag store over the buffer heads (`heads[i]` mirrors
    /// `buffers[i].fifo.front()`): the hit check scans one contiguous
    /// array, first match wins (two streams may converge on one head).
    heads: Vec<u64>,
    capacity: usize,
    depth: usize,
    /// Prefetched blocks discarded unused when a stream is reallocated.
    flushed_unused: u64,
}

impl StreamSet {
    /// Head-only probe: a hit pops the head, tops the FIFO back up and
    /// refreshes the LRU stamp.
    #[inline]
    fn take_head(&mut self, block: u64, clock: u64) -> bool {
        let Some(bi) = self.heads.iter().position(|&h| h == block) else {
            return false;
        };
        let b = &mut self.buffers[bi];
        b.fifo.pop_front();
        b.last_used = clock;
        while b.fifo.len() < self.depth {
            b.fifo.push_back(b.next);
            b.next += 1;
        }
        self.heads[bi] = *b.fifo.front().expect("stream topped up");
        true
    }

    /// (Re)allocates the LRU buffer to a fresh stream after `block`.
    fn allocate(&mut self, block: u64, clock: u64) {
        let mut fifo = VecDeque::with_capacity(self.depth);
        for i in 1..=self.depth as u64 {
            fifo.push_back(block + i);
        }
        let head = *fifo.front().expect("depth >= 1");
        let fresh = StreamFifo {
            fifo,
            next: block + self.depth as u64 + 1,
            last_used: clock,
        };
        if self.buffers.len() < self.capacity {
            self.buffers.push(fresh);
            self.heads.push(head);
        } else {
            let lru = self
                .buffers
                .iter()
                .enumerate()
                .min_by_key(|(_, b)| b.last_used)
                .map(|(i, _)| i)
                .expect("at least one buffer");
            self.flushed_unused += self.buffers[lru].fifo.len() as u64;
            self.buffers[lru] = fresh;
            self.heads[lru] = head;
        }
    }
}

/// One level: cache array plus attached sidecars.
#[derive(Debug)]
struct Level {
    cache: Cache,
    victim: Option<VictimQueue>,
    streams: Option<StreamSet>,
    mshr: Option<MshrFile>,
    miss_penalty: u64,
    victim_hits: u64,
    stream_hits: u64,
}

/// The virtual side of a stack whose level 0 is virtually indexed and
/// tagged; see [Virtual-real stacks](self#virtual-real-stacks).
#[derive(Debug)]
struct VirtualL1 {
    mapper: PageMapper,
    /// Reverse map: physical block → the virtual block resident at
    /// level 0 (one alias at most).
    resident: HashMap<u64, u64>,
    alias_invalidations: u64,
    external_invalidations_l1: u64,
    external_invalidations_l2: u64,
}

/// What an external (bus) invalidation found in a stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnoopOutcome {
    /// The block was resident in (and removed from) a level below 0.
    pub l2_invalidated: bool,
    /// A copy was resident in (and removed from) level 0 — a hole.
    pub l1_invalidated: bool,
}

/// Builder for a [`Hierarchy`]; see the [module docs](self).
#[derive(Debug, Default)]
pub struct HierarchyBuilder {
    levels: Vec<LevelBuilder>,
    inclusion: bool,
    mapper: Option<PageMapper>,
}

impl HierarchyBuilder {
    /// Starts an empty builder with Inclusion enforcement on (the
    /// paper's §3.2 choice).
    pub fn new() -> Self {
        HierarchyBuilder {
            levels: Vec::new(),
            inclusion: true,
            mapper: None,
        }
    }

    /// Appends a level (processor side first).
    #[must_use]
    pub fn level(mut self, level: LevelBuilder) -> Self {
        self.levels.push(level);
        self
    }

    /// Enables or disables Inclusion enforcement between levels.
    #[must_use]
    pub fn inclusion(mut self, enforce: bool) -> Self {
        self.inclusion = enforce;
        self
    }

    /// Makes level 0 virtually indexed and tagged, with `mapper`
    /// translating for the physically addressed levels below: the
    /// paper's §3 virtual-real design (see
    /// [Virtual-real stacks](self#virtual-real-stacks)).
    ///
    /// # Example
    ///
    /// ```
    /// use cac_core::{CacheGeometry, IndexSpec};
    /// use cac_sim::stack::{Hierarchy, LevelBuilder};
    /// use cac_sim::vm::PageMapper;
    ///
    /// let mut h = Hierarchy::builder()
    ///     .virtual_l1(PageMapper::randomized(4096, 1 << 26, 42))
    ///     .level(
    ///         LevelBuilder::new(CacheGeometry::new(8 * 1024, 32, 2)?)
    ///             .index_spec(IndexSpec::ipoly_skewed()),
    ///     )
    ///     .level(LevelBuilder::new(CacheGeometry::new(256 * 1024, 32, 2)?).write_back())
    ///     .build()?;
    /// h.read(0x10_0000);
    /// assert!(h.read(0x10_0000).hit);
    /// assert!(h.check_inclusion());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    #[must_use]
    pub fn virtual_l1(mut self, mapper: PageMapper) -> Self {
        self.mapper = Some(mapper);
        self
    }

    /// Builds the hierarchy.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] if there are no levels, if block sizes differ
    /// across levels, if capacities shrink going away from the
    /// processor (Inclusion requires each level to cover the one
    /// above, §3.2), or if a virtual level 0 has victim or stream
    /// buffers; plus any per-level cache validation error.
    pub fn build(self) -> Result<Hierarchy, Error> {
        if self.levels.is_empty() {
            return Err(Error::config(
                "a hierarchy needs at least one level (the paper's §4 machine has two)",
            ));
        }
        let l0 = &self.levels[0];
        if self.mapper.is_some() && (l0.victim_lines.is_some() || l0.stream.is_some()) {
            return Err(Error::config(
                "a virtually indexed level 0 takes no victim or stream buffers: they \
                 would hold virtual blocks that Inclusion cannot reach",
            ));
        }
        for (i, pair) in self.levels.windows(2).enumerate() {
            let (a, b) = (pair[0].cache.geometry(), pair[1].cache.geometry());
            if a.block() != b.block() {
                return Err(Error::config(format!(
                    "level {} block size {} != level {} block size {}; all levels must \
                     share one line size (the paper's L1 and L2 both use 32-byte lines, §4)",
                    i + 1,
                    a.block(),
                    i + 2,
                    b.block()
                )));
            }
            if b.capacity() < a.capacity() {
                return Err(Error::config(format!(
                    "level {} capacity {} < level {} capacity {}; Inclusion requires each \
                     level to cover the one above it (§3.2)",
                    i + 2,
                    b.capacity(),
                    i + 1,
                    a.capacity()
                )));
            }
        }
        Ok(Hierarchy {
            levels: self
                .levels
                .into_iter()
                .map(LevelBuilder::build)
                .collect::<Result<_, _>>()?,
            inclusion: self.inclusion,
            virt: self.mapper.map(|mapper| {
                Box::new(VirtualL1 {
                    mapper,
                    resident: HashMap::new(),
                    alias_invalidations: 0,
                    external_invalidations_l1: 0,
                    external_invalidations_l2: 0,
                })
            }),
            read_misses: 0,
            write_misses: 0,
            inclusion_invalidations: 0,
            holes_created: 0,
        })
    }
}

/// An N-level cache stack with per-level sidecars, physically
/// addressed or with a virtual level 0; see the [module docs](self) for
/// semantics and an example.
#[derive(Debug)]
pub struct Hierarchy {
    levels: Vec<Level>,
    inclusion: bool,
    /// Present when level 0 is virtually indexed.
    virt: Option<Box<VirtualL1>>,
    /// Demand reads and writes that reached memory. The rest of the
    /// demand counters come from level 0, which every access probes
    /// exactly once.
    read_misses: u64,
    write_misses: u64,
    inclusion_invalidations: u64,
    holes_created: u64,
}

impl Hierarchy {
    /// Starts a [`HierarchyBuilder`].
    pub fn builder() -> HierarchyBuilder {
        HierarchyBuilder::new()
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The cache array of level `i` (0 = closest to the processor).
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_levels()`.
    pub fn level(&self, i: usize) -> &Cache {
        &self.levels[i].cache
    }

    /// The demand stream's counters (hit = serviced before memory).
    pub fn demand_stats(&self) -> CacheStats {
        let l1 = self.levels[0].cache.stats();
        let misses = self.read_misses + self.write_misses;
        CacheStats {
            accesses: l1.accesses,
            hits: l1.accesses - misses,
            misses,
            reads: l1.reads,
            writes: l1.writes,
            read_misses: self.read_misses,
            write_misses: self.write_misses,
            ..CacheStats::default()
        }
    }

    /// Upper-level lines invalidated to preserve Inclusion.
    pub fn inclusion_invalidations(&self) -> u64 {
        self.inclusion_invalidations
    }

    /// Inclusion invalidations that punched a hole at level 0.
    pub fn holes_created(&self) -> u64 {
        self.holes_created
    }

    /// Fraction of level-1 (L2) misses that punched a hole at level 0 —
    /// the quantity the paper's §3.3 simulation reports (average <
    /// 0.1%, never > 1.2% with a 1MB L2). Zero for a one-level stack.
    pub fn hole_rate(&self) -> f64 {
        match self.levels.get(1).map(|l| l.cache.stats().misses) {
            None | Some(0) => 0.0,
            Some(misses) => self.holes_created as f64 / misses as f64,
        }
    }

    /// Level-0 lines invalidated because another virtual alias of their
    /// physical block was filled (§3.3 cause 2); zero unless level 0 is
    /// virtual.
    pub fn alias_invalidations(&self) -> u64 {
        self.virt.as_ref().map_or(0, |v| v.alias_invalidations)
    }

    /// Lines [`Hierarchy::snoop_invalidate`] removed, as `(level 0,
    /// deeper levels)`; every level-0 one is a hole (§3.3 cause 3).
    /// Counted only when level 0 is virtual.
    pub fn external_invalidations(&self) -> (u64, u64) {
        self.virt.as_ref().map_or((0, 0), |v| {
            (v.external_invalidations_l1, v.external_invalidations_l2)
        })
    }

    /// Invalidates everything (caches and sidecars) and clears all
    /// counters. Established page mappings are kept — the OS page table
    /// outlives a cache flush.
    pub fn reset(&mut self) {
        for level in &mut self.levels {
            level.cache.flush();
            if let Some(v) = &mut level.victim {
                v.clear();
            }
            if let Some(s) = &mut level.streams {
                s.buffers.clear();
                s.heads.clear();
                s.flushed_unused = 0;
            }
            if let Some(m) = &mut level.mshr {
                m.reset();
            }
            level.victim_hits = 0;
            level.stream_hits = 0;
        }
        if let Some(v) = &mut self.virt {
            v.resident.clear();
            v.alias_invalidations = 0;
            v.external_invalidations_l1 = 0;
            v.external_invalidations_l2 = 0;
        }
        self.read_misses = 0;
        self.write_misses = 0;
        self.inclusion_invalidations = 0;
        self.holes_created = 0;
    }

    /// Removes `block` from every level above `from` (cache array and
    /// victim buffer), counting Inclusion invalidations and holes. On a
    /// `VIRTUAL` stack level 0 drops the virtual copy the reverse map
    /// names.
    fn invalidate_above<const VIRTUAL: bool>(&mut self, from: usize, block: u64) {
        for k in 0..from {
            let target = if VIRTUAL && k == 0 {
                let virt = self.virt.as_mut().expect("virtual level 0");
                match virt.resident.remove(&block) {
                    Some(va_block) => va_block,
                    None => continue,
                }
            } else {
                block
            };
            if self.levels[k].cache.invalidate_block(target) {
                self.inclusion_invalidations += 1;
                if k == 0 {
                    self.holes_created += 1;
                }
            }
            if let Some(v) = &mut self.levels[k].victim {
                v.invalidate(block);
            }
        }
    }

    /// Routes a line level `i` evicted: into the level's victim buffer
    /// when one is attached. A block that leaves the level entirely is
    /// invalidated in the levels above (Inclusion) and, at the last
    /// (memory-side) level, recorded in `left_org` as having left the
    /// whole organization.
    #[inline]
    fn route_eviction<const VIRTUAL: bool>(
        &mut self,
        i: usize,
        evicted: u64,
        left_org: &mut Option<u64>,
    ) {
        let out = match &mut self.levels[i].victim {
            Some(v) => v.push(evicted),
            None => Some(evicted),
        };
        if let Some(block) = out {
            if self.inclusion && i > 0 {
                self.invalidate_above::<VIRTUAL>(i, block);
            }
            if i + 1 == self.levels.len() {
                *left_org = Some(block);
            }
        }
    }

    /// Performs an access; `is_write` selects each level's write-policy
    /// path, exactly as [`Cache::access`] does. The outcome's `evicted`
    /// reports a block the *last* level pushed out — under Inclusion
    /// that is exactly a block leaving the organization entirely
    /// (upper-level evictions stay resident below).
    #[inline]
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        let res = self.levels[0].cache.access(addr, is_write);
        if res.hit && !is_write {
            // The common case: a read hit at L1 moves nothing.
            return AccessOutcome::hit_at(ServicePoint::Level(0));
        }
        if self.virt.is_some() {
            self.walk::<true>(addr, is_write, res)
        } else {
            self.walk::<false>(addr, is_write, res)
        }
    }

    /// The rest of an access after level 0 returned `res` for `addr`.
    /// `VIRTUAL` mirrors `self.virt.is_some()` at compile time, so a
    /// physical stack's walk carries no virtual bookkeeping.
    #[inline]
    fn walk<const VIRTUAL: bool>(
        &mut self,
        addr: u64,
        is_write: bool,
        mut res: AccessOutcome,
    ) -> AccessOutcome {
        // Level 0 sees every access once, so its access count is the
        // stack's clock (stream LRU stamps, MSHR time).
        let clock = self.levels[0].cache.stats().accesses;
        // The address every level below 0 sees.
        let physical = if VIRTUAL {
            self.translate_level0(addr, &res)
        } else {
            addr
        };
        let mut level_addr = addr;
        let mut down_is_write = is_write;
        let mut left_org: Option<u64> = None;
        let mut i = 0;
        loop {
            if res.hit {
                // A hit evicts nothing; only a write moves traffic on.
                if down_is_write {
                    left_org = self.propagate_write::<VIRTUAL>(i, physical).or(left_org);
                }
                return AccessOutcome {
                    evicted: left_org,
                    ..AccessOutcome::hit_at(ServicePoint::Level(i as u8))
                };
            }
            // Cache miss: probe the read sidecars *before* buffering this
            // access's own eviction, so a block cannot be dropped from
            // the victim buffer by the very access that wants it back.
            let level = &mut self.levels[i];
            let block = level.cache.geometry().block_addr(level_addr);
            let mut sidecar = None;
            if !down_is_write {
                if level.victim.as_mut().is_some_and(|v| v.take(block)) {
                    // The fill `res` performed *is* the swap-back.
                    level.victim_hits += 1;
                    sidecar = Some(ServicePoint::Victim(i as u8));
                } else if level
                    .streams
                    .as_mut()
                    .is_some_and(|s| s.take_head(block, clock))
                {
                    level.stream_hits += 1;
                    sidecar = Some(ServicePoint::Stream(i as u8));
                }
            }
            if let Some(evicted) = res.evicted {
                self.route_eviction::<VIRTUAL>(i, evicted, &mut left_org);
            }
            if let Some(point) = sidecar {
                return AccessOutcome {
                    evicted: left_org,
                    ..AccessOutcome::hit_at(point)
                };
            }
            // Full miss at this level: allocate a stream (reads), note
            // the outstanding miss, and fall through to the next level —
            // as a read when this level allocated (the downstream
            // traffic is its fill fetch).
            let level = &mut self.levels[i];
            if !down_is_write {
                if let Some(s) = &mut level.streams {
                    s.allocate(block, clock);
                }
            }
            if let Some(m) = &mut level.mshr {
                m.request(block, clock, level.miss_penalty);
            }
            down_is_write &= !res.filled;
            i += 1;
            if i == self.levels.len() {
                break;
            }
            level_addr = physical;
            res = self.levels[i].cache.access(level_addr, down_is_write);
        }
        if is_write {
            self.write_misses += 1;
        } else {
            self.read_misses += 1;
        }
        AccessOutcome {
            filled: !is_write,
            evicted: left_org,
            ..AccessOutcome::miss()
        }
    }

    /// Translates virtual `va` past a level-0 probe `res` that did not
    /// read-hit, and keeps the reverse map: a level-0 fill drops the
    /// entry of the line it evicted and records its own physical block,
    /// invalidating a resident alias of it. A first touch of a page is
    /// always a level-0 miss, so translating only here assigns frames
    /// in first-touch order.
    fn translate_level0(&mut self, va: u64, res: &AccessOutcome) -> u64 {
        let virt = self.virt.as_mut().expect("virtual level 0");
        let pa = virt.mapper.translate(va);
        if res.filled {
            let l0 = &mut self.levels[0].cache;
            let bits = l0.geometry().offset_bits();
            if let Some(victim) = res.evicted {
                let victim_pa = virt.mapper.translate(victim << bits);
                virt.resident.remove(&(victim_pa >> bits));
            }
            let va_block = va >> bits;
            if let Some(alias) = virt.resident.insert(pa >> bits, va_block) {
                if alias != va_block && l0.invalidate_block(alias) {
                    virt.alias_invalidations += 1;
                }
            }
        }
        pa
    }

    /// Propagates a write serviced at level `i` through the levels below
    /// while the receiving level's policy is write-through. Returns any
    /// block the last level pushed out along the way.
    fn propagate_write<const VIRTUAL: bool>(&mut self, i: usize, addr: u64) -> Option<u64> {
        let mut j = i;
        let mut left_org = None;
        while j + 1 < self.levels.len()
            && self.levels[j].cache.write_policy() == WritePolicy::WriteThroughNoAllocate
        {
            j += 1;
            if let Some(evicted) = self.levels[j].cache.access(addr, true).evicted {
                self.route_eviction::<VIRTUAL>(j, evicted, &mut left_org);
            }
        }
        left_org
    }

    /// Performs a read access.
    pub fn read(&mut self, addr: u64) -> AccessOutcome {
        self.access(addr, false)
    }

    /// Performs a write access.
    pub fn write(&mut self, addr: u64) -> AccessOutcome {
        self.access(addr, true)
    }

    /// Translates a virtual address through level 0's page mapping (the
    /// identity on a physical stack). A snooping bus broadcasts the
    /// physical address of a node's write this way.
    pub fn translate(&mut self, va: u64) -> u64 {
        match &mut self.virt {
            Some(v) => v.mapper.translate(va),
            None => va,
        }
    }

    /// Applies an external coherency invalidation of physical address
    /// `pa` (§3.3 cause 3): the block is removed from every level's
    /// cache array, and its level-0 copy — found through the reverse
    /// map on a virtual stack — is a hole.
    pub fn snoop_invalidate(&mut self, pa: u64) -> SnoopOutcome {
        let block = self.levels[0].cache.geometry().block_addr(pa);
        let mut l2_invalidated = false;
        for level in &mut self.levels[1..] {
            l2_invalidated |= level.cache.invalidate_block(block);
        }
        let l0 = &mut self.levels[0].cache;
        let l1_invalidated = match &mut self.virt {
            Some(v) => {
                let hole = v
                    .resident
                    .remove(&block)
                    .is_some_and(|va_block| l0.invalidate_block(va_block));
                v.external_invalidations_l1 += u64::from(hole);
                v.external_invalidations_l2 += u64::from(l2_invalidated);
                hole
            }
            None => l0.invalidate_block(block),
        };
        SnoopOutcome {
            l2_invalidated,
            l1_invalidated,
        }
    }

    /// `true` if the stack holds physical block `pa_block` at any level
    /// (coherence invariant checks).
    pub fn holds_physical_block(&self, pa_block: u64) -> bool {
        let at_level0 = match &self.virt {
            Some(v) => v.resident.contains_key(&pa_block),
            None => self.levels[0].cache.probe_block(pa_block).is_some(),
        };
        at_level0
            || self.levels[1..]
                .iter()
                .any(|l| l.cache.probe_block(pa_block).is_some())
    }

    /// Verifies Inclusion: every block resident at a level, translated
    /// when it is a virtual level-0 block, is resident at the level
    /// below. Intended for tests; cost is `O(lines)`.
    pub fn check_inclusion(&mut self) -> bool {
        let bits = self.levels[0].cache.geometry().offset_bits();
        for k in 1..self.levels.len() {
            let above: Vec<u64> = self.levels[k - 1].cache.resident_blocks().collect();
            for block in above {
                let below = if k == 1 {
                    self.translate(block << bits) >> bits
                } else {
                    block
                };
                if self.levels[k].cache.probe_block(below).is_none() {
                    return false;
                }
            }
        }
        true
    }
}

impl MemoryModel for Hierarchy {
    fn access(&mut self, r: MemRef) -> AccessOutcome {
        Hierarchy::access(self, r.addr, r.is_write)
    }

    fn stats(&self) -> ModelStats {
        let mut components = Vec::with_capacity(self.levels.len());
        let mut extras = vec![
            extra("inclusion-invalidations", self.inclusion_invalidations),
            extra("holes-created", self.holes_created),
        ];
        if let Some(v) = &self.virt {
            extras.push(extra("alias-invalidations", v.alias_invalidations));
            extras.push(extra(
                "external-invalidations-l1",
                v.external_invalidations_l1,
            ));
            extras.push(extra(
                "external-invalidations-l2",
                v.external_invalidations_l2,
            ));
        }
        for (i, level) in self.levels.iter().enumerate() {
            let name = format!("l{}", i + 1);
            components.push(ComponentStats {
                name: name.clone(),
                stats: level.cache.stats(),
            });
            if level.victim.is_some() {
                extras.push(extra(format!("{name}-victim-hits"), level.victim_hits));
            }
            if level.streams.is_some() {
                extras.push(extra(format!("{name}-stream-hits"), level.stream_hits));
            }
            if let Some(m) = &level.mshr {
                let s = m.stats();
                extras.push(extra(format!("{name}-mshr-primary"), s.primary));
                extras.push(extra(format!("{name}-mshr-secondary"), s.secondary));
                extras.push(extra(format!("{name}-mshr-rejections"), s.rejections));
            }
        }
        ModelStats {
            demand: self.demand_stats(),
            components,
            extras,
        }
    }

    fn reset(&mut self) {
        Hierarchy::reset(self);
    }

    fn describe(&self) -> String {
        let levels: Vec<String> = self
            .levels
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let mut d = format!(
                    "L{} {} ({})",
                    i + 1,
                    l.cache.geometry(),
                    l.cache.index_fn().label()
                );
                if let Some(v) = &l.victim {
                    d.push_str(&format!(" +victim[{}]", v.capacity()));
                }
                if let Some(s) = &l.streams {
                    d.push_str(&format!(" +stream[{}x{}]", s.capacity, s.depth));
                }
                if let Some(m) = &l.mshr {
                    d.push_str(&format!(" +mshr[{}]", m.capacity()));
                }
                d
            })
            .collect();
        let kind = if self.virt.is_some() {
            "virtual-real hierarchy"
        } else {
            "hierarchy"
        };
        format!("{kind}: {}", levels.join(" / "))
    }
}

/// The `[victim]`, `[stream]` and `[jouppi]` config sections: which of
/// Jouppi's buffers sit beside the one level, and the names the
/// organization reports under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JouppiPart {
    /// The victim buffer alone.
    Victim,
    /// The stream buffers alone.
    Stream,
    /// Both: the complete reference-\[13\] design.
    Both,
}

/// A one-level [`Hierarchy`] with victim and/or stream sidecars,
/// evaluated by load miss ratio as the paper's §2.1 comparison
/// evaluates Jouppi's buffers: stores pass through untouched
/// ([`AccessOutcome::bypass`]) and are only counted.
#[derive(Debug)]
pub(crate) struct LoadsOnly {
    stack: Hierarchy,
    part: JouppiPart,
    stores_bypassed: u64,
}

impl LoadsOnly {
    /// Builds the organization around `level` (whose sidecars must
    /// match `part`).
    pub(crate) fn new(part: JouppiPart, level: LevelBuilder) -> Result<Self, Error> {
        Ok(LoadsOnly {
            stack: Hierarchy::builder().level(level).build()?,
            part,
            stores_bypassed: 0,
        })
    }
}

impl MemoryModel for LoadsOnly {
    #[inline]
    fn access(&mut self, r: MemRef) -> AccessOutcome {
        if r.is_write {
            self.stores_bypassed += 1;
            return AccessOutcome::bypass();
        }
        self.stack.access(r.addr, false)
    }

    fn stats(&self) -> ModelStats {
        let level = &self.stack.levels[0];
        let (name, main) = match self.part {
            JouppiPart::Victim => ("victim", "main-hits"),
            JouppiPart::Stream => ("stream", "cache-hits"),
            JouppiPart::Both => ("jouppi", "main-hits"),
        };
        let mut m = ModelStats::single(name, self.stack.demand_stats());
        m.extras.push(extra(main, level.cache.stats().hits));
        if level.victim.is_some() {
            m.extras.push(extra("victim-hits", level.victim_hits));
        }
        if let Some(s) = &level.streams {
            m.extras.push(extra("stream-hits", level.stream_hits));
            if self.part == JouppiPart::Stream {
                m.extras.push(extra("flushed-unused", s.flushed_unused));
            }
        }
        m.extras
            .push(extra("stores-bypassed", self.stores_bypassed));
        m
    }

    fn reset(&mut self) {
        self.stack.reset();
        self.stores_bypassed = 0;
    }

    fn describe(&self) -> String {
        let level = &self.stack.levels[0];
        let geometry = level.cache.geometry();
        let victim = level.victim.as_ref().map_or(0, VictimQueue::capacity);
        let (buffers, depth) = level
            .streams
            .as_ref()
            .map_or((0, 0), |s| (s.capacity, s.depth));
        match self.part {
            JouppiPart::Victim => {
                format!("victim cache: {geometry} + {victim}-line fully-associative buffer")
            }
            JouppiPart::Stream => format!(
                "{geometry}, {} placement + {buffers}x{depth} stream buffers",
                level.cache.index_fn().label()
            ),
            JouppiPart::Both => format!(
                "Jouppi organization: {geometry} + {victim}-line victim buffer + \
                 {buffers}x{depth} stream buffers"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_level() -> Hierarchy {
        Hierarchy::builder()
            .level(
                LevelBuilder::new(CacheGeometry::new(1024, 32, 1).unwrap())
                    .index_spec(IndexSpec::ipoly_skewed()),
            )
            .level(LevelBuilder::new(CacheGeometry::new(4096, 32, 1).unwrap()).write_back())
            .build()
            .unwrap()
    }

    #[test]
    fn validation_rejects_malformed_stacks() {
        assert!(Hierarchy::builder().build().is_err());
        // Shrinking capacity.
        let bad = Hierarchy::builder()
            .level(LevelBuilder::new(CacheGeometry::new(8192, 32, 1).unwrap()))
            .level(LevelBuilder::new(CacheGeometry::new(4096, 32, 1).unwrap()))
            .build();
        assert!(bad.is_err());
        // Mismatched block sizes.
        let bad = Hierarchy::builder()
            .level(LevelBuilder::new(CacheGeometry::new(4096, 32, 1).unwrap()))
            .level(LevelBuilder::new(CacheGeometry::new(8192, 64, 1).unwrap()))
            .build();
        assert!(bad.is_err());
        // Zero-sized sidecars.
        let g = CacheGeometry::new(4096, 32, 1).unwrap();
        for level in [
            LevelBuilder::new(g).victim_buffer(0),
            LevelBuilder::new(g).stream_buffers(0, 4),
            LevelBuilder::new(g).stream_buffers(4, 0),
            LevelBuilder::new(g).mshrs(0),
        ] {
            assert!(Hierarchy::builder().level(level).build().is_err());
        }
    }

    #[test]
    fn basic_hit_flow_and_service_levels() {
        let mut h = two_level();
        let first = h.access(0x1000, false);
        assert!(!first.hit);
        assert_eq!(first.served_by, ServicePoint::Memory);
        assert_eq!(h.access(0x1000, false).served_by, ServicePoint::Level(0));
        // Push the block out of L1 only; it should then hit at L2.
        let evicter = 0x1000 + 1024 * 3; // likely conflicting eventually
        for i in 0..64u64 {
            h.access(evicter + i * 1024, false);
        }
        let again = h.access(0x1000, false);
        assert!(matches!(
            again.served_by,
            ServicePoint::Level(_) | ServicePoint::Memory
        ));
        let s = MemoryModel::stats(&h);
        assert_eq!(s.demand.accesses, 67);
        assert_eq!(s.components.len(), 2);
        assert_eq!(s.components[0].name, "l1");
    }

    #[test]
    fn inclusion_is_maintained() {
        let mut h = two_level();
        for i in 0..4096u64 {
            h.access(i * 32 * 3, false);
        }
        assert!(h.inclusion_invalidations() > 0);
        assert_eq!(h.inclusion_invalidations(), h.holes_created());
        // Every L1-resident block must be in L2.
        let l2_blocks: std::collections::HashSet<u64> = h.level(1).resident_blocks().collect();
        for b in h.level(0).resident_blocks() {
            assert!(l2_blocks.contains(&b), "L1 block {b:#x} missing from L2");
        }
    }

    #[test]
    fn three_level_stack_services_at_the_right_depth() {
        let mut h = Hierarchy::builder()
            .level(LevelBuilder::new(CacheGeometry::new(512, 32, 1).unwrap()))
            .level(LevelBuilder::new(CacheGeometry::new(2048, 32, 1).unwrap()).write_back())
            .level(LevelBuilder::new(CacheGeometry::new(8192, 32, 1).unwrap()).write_back())
            .build()
            .unwrap();
        // Fill well past L1 and L2 capacity.
        for i in 0..256u64 {
            h.access(i * 32, false);
        }
        // A recent block should be in L1; an older one may be deeper.
        let mut seen_deeper = false;
        for i in 0..256u64 {
            let out = h.access(i * 32, false);
            if matches!(
                out.served_by,
                ServicePoint::Level(1) | ServicePoint::Level(2)
            ) {
                seen_deeper = true;
            }
        }
        assert!(seen_deeper, "no access was serviced below L1");
        let s = MemoryModel::stats(&h);
        assert_eq!(s.components.len(), 3);
        assert!(s.demand.hits > 0);
    }

    fn dm8k() -> CacheGeometry {
        CacheGeometry::new(8 * 1024, 32, 1).unwrap()
    }

    #[test]
    fn victim_sidecar_catches_conflicts_like_a_victim_cache() {
        let mut h = Hierarchy::builder()
            .level(LevelBuilder::new(dm8k()).victim_buffer(4))
            .build()
            .unwrap();
        let a = 0u64;
        let b = 8 * 1024; // same direct-mapped set
        h.access(a, false);
        h.access(b, false);
        let out = h.access(a, false);
        assert_eq!(out.served_by, ServicePoint::Victim(0));
        assert!(out.hit);
        let s = MemoryModel::stats(&h);
        assert_eq!(s.extra("l1-victim-hits"), Some(1));
        assert_eq!(s.demand.misses, 2);
        // From now on each access of the pair swaps via the buffer.
        for _ in 0..10 {
            assert!(h.access(a, false).hit);
            assert!(h.access(b, false).hit);
        }
        assert_eq!(h.demand_stats().misses, 2, "only the two cold misses");
    }

    #[test]
    fn victim_buffer_capacity_limits_protection() {
        let mut h = Hierarchy::builder()
            .level(LevelBuilder::new(dm8k()).victim_buffer(4))
            .build()
            .unwrap();
        // 8 blocks conflicting on one set overwhelm a 4-entry buffer
        // under cyclic access.
        for _ in 0..5 {
            for i in 0..8u64 {
                h.access(i * 8 * 1024, false);
            }
        }
        assert!(h.demand_stats().miss_ratio() > 0.5);
        // A sequential sweep that fits the cache never needs the buffer.
        h.reset();
        for _ in 0..2 {
            for i in 0..128u64 {
                h.access(i * 32, false);
            }
        }
        assert_eq!(h.demand_stats().misses, 128);
        assert_eq!(MemoryModel::stats(&h).extra("l1-victim-hits"), Some(0));
    }

    #[test]
    fn stream_sidecar_rescues_sequential_misses() {
        let mut h = Hierarchy::builder()
            .level(
                LevelBuilder::new(CacheGeometry::new(8 * 1024, 32, 1).unwrap())
                    .stream_buffers(4, 4),
            )
            .build()
            .unwrap();
        for i in 0..1024u64 {
            h.access(i * 32, false);
        }
        let s = MemoryModel::stats(&h);
        assert_eq!(s.demand.misses, 1, "{:?}", s.demand);
        assert_eq!(s.extra("l1-stream-hits"), Some(1023));
    }

    /// The `[stream]` organization over a direct-mapped 8KB level.
    fn stream_org(buffers: usize, depth: usize) -> LoadsOnly {
        LoadsOnly::new(
            JouppiPart::Stream,
            LevelBuilder::new(dm8k()).stream_buffers(buffers, depth),
        )
        .unwrap()
    }

    fn read(m: &mut LoadsOnly, addr: u64) -> AccessOutcome {
        m.access(MemRef {
            pc: 0,
            addr,
            is_write: false,
        })
    }

    /// `(misses, stream hits, flushed-unused)` of a stream organization.
    fn stream_counters(m: &LoadsOnly) -> (u64, u64, u64) {
        let s = m.stats();
        let get = |name| s.extra(name).unwrap();
        (s.demand.misses, get("stream-hits"), get("flushed-unused"))
    }

    #[test]
    fn stream_buffers_follow_jouppis_policy() {
        // Interleaved streams far apart each get their own buffer: one
        // allocation per stream.
        let mut m = stream_org(4, 4);
        for i in 0..512u64 {
            for base in [0, 0x1000_0000, 0x2000_0000] {
                read(&mut m, base + i * 32);
            }
        }
        assert_eq!(stream_counters(&m).0, 3);

        // Six streams over two buffers: constant reallocation, which
        // discards prefetched blocks unused.
        let mut m = stream_org(2, 4);
        for i in 0..64u64 {
            for stream in 0..6u64 {
                read(&mut m, (stream << 28) + i * 32);
            }
        }
        let (misses, _, flushed) = stream_counters(&m);
        assert!(misses > 300, "{misses}");
        assert!(flushed > 0);

        // Head-only: skipping the head (block 1) to block 2 is not a
        // stream hit; it reallocates the buffer.
        let mut m = stream_org(1, 4);
        read(&mut m, 0);
        assert_eq!(read(&mut m, 2 * 32).served_by, ServicePoint::Memory);

        // Cache hits leave the buffers alone.
        let mut m = stream_org(4, 4);
        read(&mut m, 0x40);
        assert_eq!(read(&mut m, 0x40).served_by, ServicePoint::Level(0));
        assert_eq!(read(&mut m, 0x48).served_by, ServicePoint::Level(0));
        assert_eq!(m.stats().extra("cache-hits"), Some(2));

        // Reset clears the reallocation waste with everything else.
        m.reset();
        assert_eq!(stream_counters(&m), (0, 0, 0));
    }

    #[test]
    fn stream_buffers_rescue_sequences_not_conflicts() {
        // A power-of-two column stride is not sequential: the buffers
        // do nothing for the conflicts I-Poly placement removes.
        let mut m = stream_org(4, 4);
        for _pass in 0..8 {
            for i in 0..64u64 {
                read(&mut m, i * 4096);
            }
        }
        let (misses, stream_hits, _) = stream_counters(&m);
        assert_eq!(stream_hits, 0);
        assert!(misses as f64 / m.stats().demand.accesses as f64 > 0.5);

        // Streams combine with I-Poly placement.
        let mut m = LoadsOnly::new(
            JouppiPart::Stream,
            LevelBuilder::new(CacheGeometry::new(8 * 1024, 32, 2).unwrap())
                .index_spec(IndexSpec::ipoly_skewed())
                .stream_buffers(4, 4),
        )
        .unwrap();
        for i in 0..512u64 {
            read(&mut m, i * 32);
        }
        let (misses, stream_hits, _) = stream_counters(&m);
        assert!(stream_hits as f64 / (stream_hits + misses) as f64 > 0.9);
    }

    fn jouppi() -> LoadsOnly {
        LoadsOnly::new(
            JouppiPart::Both,
            LevelBuilder::new(dm8k())
                .victim_buffer(4)
                .stream_buffers(4, 4),
        )
        .unwrap()
    }

    #[test]
    fn jouppi_outcomes_name_the_servicing_structure() {
        let mut c = jouppi();
        assert_eq!(read(&mut c, 0x0000).served_by, ServicePoint::Memory);
        assert_eq!(read(&mut c, 0x0008).served_by, ServicePoint::Level(0));
        read(&mut c, 0x2000); // same DM set as 0x0000: spills it to the victim buffer
        assert_eq!(read(&mut c, 0x0000).served_by, ServicePoint::Victim(0));
        let out = read(&mut c, 0x2020); // prefetched by 0x2000's stream
        assert_eq!(out.served_by, ServicePoint::Stream(0));
        assert!(out.hit && out.is_hit());
        // Stores pass through untouched and are only counted.
        let store = c.access(MemRef {
            pc: 0,
            addr: 0x0000,
            is_write: true,
        });
        assert_eq!(store, AccessOutcome::bypass());
        let s = c.stats();
        assert_eq!(s.extra("stores-bypassed"), Some(1));
        assert_eq!(s.demand.accesses, 5);
    }

    #[test]
    fn jouppi_buffers_split_the_miss_classes() {
        // Each structure catches its own class in a mixed workload.
        let mut c = jouppi();
        for round in 0..32u64 {
            read(&mut c, 0x0000);
            read(&mut c, 0x0008); // same block: main hit
            read(&mut c, 0x2000); // same set: victim material
            read(&mut c, 0x4_0000 + round * 32); // sequential: stream material
        }
        let s = c.stats();
        let get = |name| s.extra(name).unwrap();
        assert!(get("main-hits") > 0);
        assert!(get("victim-hits") > 0);
        assert!(get("stream-hits") > 0);
        assert_eq!(
            get("main-hits") + get("victim-hits") + get("stream-hits") + s.demand.misses,
            s.demand.accesses
        );

        // 64 blocks colliding on one set: 4 victim lines and a
        // non-sequential stride leave both buffers helpless, the gap
        // I-Poly placement closes.
        let mut c = jouppi();
        for _pass in 0..8 {
            for i in 0..64u64 {
                read(&mut c, i * 8192);
            }
        }
        let s = c.stats();
        assert_eq!(s.extra("stream-hits"), Some(0));
        assert!(s.demand.miss_ratio() > 0.8, "{:?}", s.demand);
    }

    #[test]
    fn writes_propagate_through_write_through_levels() {
        let mut h = two_level();
        h.access(0x40, false); // resident in both levels
        let l2_writes_before = h.level(1).stats().writes;
        let out = h.access(0x40, true); // L1 write-through hit
        assert_eq!(out.served_by, ServicePoint::Level(0));
        assert_eq!(h.level(1).stats().writes, l2_writes_before + 1);
        // A write miss at L1 (no-allocate) lands at L2 as a write.
        let miss = h.access(0x9000, true);
        assert!(!h.level(0).contains(0x9000));
        assert!(h.level(1).contains(0x9000));
        assert!(!miss.hit || h.level(1).stats().writes > l2_writes_before);
    }

    #[test]
    fn mshr_sidecar_is_bookkeeping_only() {
        let mk = |mshrs: Option<usize>| {
            let mut lb = LevelBuilder::new(CacheGeometry::new(1024, 32, 1).unwrap());
            if let Some(n) = mshrs {
                lb = lb.mshrs(n);
            }
            Hierarchy::builder()
                .level(lb)
                .level(LevelBuilder::new(CacheGeometry::new(4096, 32, 1).unwrap()).write_back())
                .build()
                .unwrap()
        };
        let mut with = mk(Some(8));
        let mut without = mk(None);
        let mut x = 0x9e37u64;
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = x % (1 << 18);
            let w = x.is_multiple_of(5);
            with.access(addr, w);
            without.access(addr, w);
        }
        assert_eq!(with.demand_stats(), without.demand_stats());
        assert_eq!(with.level(0).stats(), without.level(0).stats());
        assert_eq!(with.level(1).stats(), without.level(1).stats());
        let s = MemoryModel::stats(&with);
        assert!(s.extra("l1-mshr-primary").unwrap() > 0);
        // reset() clears the MSHR counters along with everything else.
        with.reset();
        let s = MemoryModel::stats(&with);
        assert_eq!(s.extra("l1-mshr-primary"), Some(0));
        assert_eq!(s.extra("l1-mshr-secondary"), Some(0));
    }

    #[test]
    fn reset_clears_everything() {
        let mut h = two_level();
        for i in 0..512u64 {
            h.access(i * 32, i % 3 == 0);
        }
        h.reset();
        assert_eq!(h.demand_stats(), CacheStats::default());
        assert_eq!(h.level(0).resident_lines(), 0);
        assert_eq!(h.level(1).resident_lines(), 0);
        assert_eq!(h.inclusion_invalidations(), 0);
    }

    /// A virtual-real stack: `l1` virtually indexed under `mapper`,
    /// over a write-back `l2`.
    fn virtual_real(
        l1: CacheGeometry,
        l1_spec: IndexSpec,
        l2: CacheGeometry,
        l2_spec: IndexSpec,
        mapper: PageMapper,
    ) -> Result<Hierarchy, Error> {
        Hierarchy::builder()
            .virtual_l1(mapper)
            .level(LevelBuilder::new(l1).index_spec(l1_spec))
            .level(LevelBuilder::new(l2).index_spec(l2_spec).write_back())
            .build()
    }

    /// Small caches so evictions happen quickly: 1KB L1 / 4KB L2.
    fn small_virtual() -> Hierarchy {
        virtual_real(
            CacheGeometry::new(1024, 32, 1).unwrap(),
            IndexSpec::ipoly_skewed(),
            CacheGeometry::new(4096, 32, 1).unwrap(),
            IndexSpec::modulo(),
            PageMapper::identity(),
        )
        .unwrap()
    }

    fn l1_hit(o: AccessOutcome) -> bool {
        o.served_by == ServicePoint::Level(0)
    }

    #[test]
    fn basic_hit_flow() {
        let mut h = small_virtual();
        let a = h.read(0x1000);
        assert!(!l1_hit(a));
        assert!(!a.hit);
        assert!(l1_hit(h.read(0x1000)));
        assert_eq!(h.level(0).stats().misses, 1);
        assert_eq!(h.level(1).stats().misses, 1);
    }

    #[test]
    fn inclusion_maintained_under_pressure() {
        let mut h = small_virtual();
        // Touch far more blocks than L2 holds; inclusion must hold at
        // every point (checked at the end and implied by hole counting).
        for i in 0..4096u64 {
            h.read(i * 32 * 3);
        }
        assert!(h.check_inclusion());
        assert!(h.inclusion_invalidations() > 0);
    }

    #[test]
    fn holes_are_counted() {
        let mut h = small_virtual();
        for i in 0..8192u64 {
            h.read((i * 97) % 100_000 * 32);
        }
        assert!(h.holes_created() > 0);
        assert!(h.holes_created() <= h.inclusion_invalidations());
        assert!(h.hole_rate() > 0.0);
        assert!(h.hole_rate() < 1.0);
    }

    #[test]
    fn write_through_reaches_l2() {
        let mut h = small_virtual();
        h.read(0x40); // fill both levels
        let before = h.level(1).stats().writes;
        h.write(0x40); // L1 hit, written through
        assert_eq!(h.level(1).stats().writes, before + 1);
    }

    #[test]
    fn write_miss_does_not_fill_l1() {
        let mut h = small_virtual();
        let a = h.write(0x9000);
        assert!(!l1_hit(a));
        assert!(!h.level(0).contains(0x9000));
        // But L2 allocates (write-back/write-allocate).
        assert!(h.level(1).contains(0x9000));
        assert!(h.check_inclusion());
    }

    #[test]
    fn alias_control_keeps_one_copy() {
        // 16-frame aliased mapping: virtual pages 0 and 16 are the same
        // physical page.
        let mut h = virtual_real(
            CacheGeometry::new(1024, 32, 1).unwrap(),
            IndexSpec::ipoly_skewed(),
            CacheGeometry::new(4096, 32, 1).unwrap(),
            IndexSpec::modulo(),
            PageMapper::aliased(4096, 16),
        )
        .unwrap();
        let va_a = 0x123u64;
        let va_b = 16 * 4096 + 0x123; // alias of va_a
        h.read(va_a);
        h.read(va_b);
        assert!(h.alias_invalidations() >= 1);
        // Only the second alias remains at L1.
        assert!(!h.level(0).contains(va_a));
        assert!(h.level(0).contains(va_b));
        // Interleaved aliases keep trading places but stay consistent.
        for _ in 0..10 {
            h.read(va_a);
            h.read(va_b);
        }
        assert!(h.check_inclusion());
    }

    #[test]
    fn geometry_validation() {
        let l1 = CacheGeometry::new(8 * 1024, 32, 2).unwrap();
        let l2_small = CacheGeometry::new(4 * 1024, 32, 2).unwrap();
        let l2_wrong_block = CacheGeometry::new(64 * 1024, 64, 2).unwrap();
        for l2 in [l2_small, l2_wrong_block] {
            let built = virtual_real(
                l1,
                IndexSpec::modulo(),
                l2,
                IndexSpec::modulo(),
                PageMapper::identity(),
            );
            assert!(built.is_err());
        }
        // A virtual level 0 takes no victim or stream buffers.
        for l0 in [
            LevelBuilder::new(l1).victim_buffer(4),
            LevelBuilder::new(l1).stream_buffers(4, 4),
        ] {
            let built = Hierarchy::builder()
                .virtual_l1(PageMapper::identity())
                .level(l0)
                .build();
            assert!(built.is_err());
        }
    }

    #[test]
    fn snoop_invalidate_removes_both_levels() {
        let mut h = small_virtual();
        h.read(0x1000);
        assert!(h.level(0).contains(0x1000));
        let out = h.snoop_invalidate(0x1000);
        assert!(out.l2_invalidated);
        assert!(out.l1_invalidated);
        assert!(!h.level(0).contains(0x1000));
        assert!(!h.holds_physical_block(0x1000 / 32));
        assert_eq!(h.external_invalidations(), (1, 1));
        // Next access is a compulsory-style refill.
        assert!(!l1_hit(h.read(0x1000)));
        assert!(h.check_inclusion());
    }

    #[test]
    fn snoop_of_absent_block_is_a_clean_miss() {
        let mut h = small_virtual();
        let out = h.snoop_invalidate(0xdead_0000);
        assert!(!out.l2_invalidated);
        assert!(!out.l1_invalidated);
        assert_eq!(h.external_invalidations().0, 0);
    }

    #[test]
    fn snoop_on_l2_only_block_creates_no_l1_hole() {
        let mut h = small_virtual();
        h.write(0x9000); // no-write-allocate: L2 only
        let out = h.snoop_invalidate(0x9000);
        assert!(out.l2_invalidated);
        assert!(!out.l1_invalidated);
    }

    #[test]
    fn hole_rate_tracks_paper_model_order_of_magnitude() {
        // 8KB direct-mapped L1 / 256KB direct-mapped L2 with random pages:
        // the analytical P_H is 0.031; the measured rate should be within
        // a small factor of that (it depends on residency, which the
        // model's "always resident" assumption upper-bounds).
        let mut h = virtual_real(
            CacheGeometry::new(8 * 1024, 32, 1).unwrap(),
            IndexSpec::ipoly(),
            CacheGeometry::new(256 * 1024, 32, 1).unwrap(),
            IndexSpec::modulo(),
            PageMapper::randomized(4096, 1 << 28, 7),
        )
        .unwrap();
        // Working set of 16K blocks (512KB) streams through repeatedly so
        // L2 keeps evicting.
        for round in 0..6u64 {
            for i in 0..16384u64 {
                h.read((i * 32) + (round % 2) * 11);
            }
        }
        let rate = h.hole_rate();
        assert!(rate < 0.05, "hole rate {rate} implausibly high");
        assert!(h.check_inclusion());
    }
}
