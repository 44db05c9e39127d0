//! Generic N-level cache hierarchies with per-level sidecars.
//!
//! [`crate::hierarchy::TwoLevelHierarchy`] models the paper's §3
//! *virtual-real* two-level design, with its virtual-alias control and
//! hole accounting. This module provides the general case it
//! specializes: a physically-addressed stack of any number of
//! [`Cache`] levels, with Inclusion enforced between levels (an
//! eviction at level *j* invalidates the block everywhere above, the
//! §3.2 property that makes snooping cheap), and with the structures
//! Jouppi's organization \[13\] bakes into one type — a victim buffer,
//! sequential stream buffers and a Kroft MSHR file — attachable as
//! *sidecars* to **any** level instead.
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
//! With two levels, default policies and no sidecars, the stack
//! reproduces the [`TwoLevelHierarchy`] counters exactly under an
//! identity page mapping (`crates/sim/tests/stack_equivalence.rs`
//! holds the guard). With one level plus victim and/or stream sidecars
//! it is the `[victim]`, `[stream]` and `[jouppi]` organization of
//! [`crate::config`], pinned by golden files recorded from the
//! concrete types those sections once built.
//!
//! [`TwoLevelHierarchy`]: crate::hierarchy::TwoLevelHierarchy
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
use cac_core::{CacheGeometry, Error, IndexSpec};
use cac_trace::MemRef;
use std::collections::VecDeque;

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

/// Builder for a [`Hierarchy`]; see the [module docs](self).
#[derive(Debug, Default)]
pub struct HierarchyBuilder {
    levels: Vec<LevelBuilder>,
    inclusion: bool,
}

impl HierarchyBuilder {
    /// Starts an empty builder with Inclusion enforcement on (the
    /// paper's §3.2 choice).
    pub fn new() -> Self {
        HierarchyBuilder {
            levels: Vec::new(),
            inclusion: true,
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

    /// Builds the hierarchy.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] if there are no levels, if block sizes differ
    /// across levels, or if capacities shrink going away from the
    /// processor (Inclusion requires each level to cover the one
    /// above, §3.2); plus any per-level cache validation error.
    pub fn build(self) -> Result<Hierarchy, Error> {
        if self.levels.is_empty() {
            return Err(Error::config(
                "a hierarchy needs at least one level (the paper's §4 machine has two)",
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
            read_misses: 0,
            write_misses: 0,
            inclusion_invalidations: 0,
            holes_created: 0,
        })
    }
}

/// A physically-addressed N-level cache stack with per-level sidecars;
/// see the [module docs](self) for semantics and an example.
#[derive(Debug)]
pub struct Hierarchy {
    levels: Vec<Level>,
    inclusion: bool,
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

    /// Invalidates everything (caches and sidecars) and clears all
    /// counters.
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
        self.read_misses = 0;
        self.write_misses = 0;
        self.inclusion_invalidations = 0;
        self.holes_created = 0;
    }

    /// Removes `block` from every level above `from` (cache array and
    /// victim buffer), counting Inclusion invalidations and holes.
    fn invalidate_above(&mut self, from: usize, block: u64) {
        for k in 0..from {
            if self.levels[k].cache.invalidate_block(block) {
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
    fn route_eviction(&mut self, i: usize, evicted: u64, left_org: &mut Option<u64>) {
        let out = match &mut self.levels[i].victim {
            Some(v) => v.push(evicted),
            None => Some(evicted),
        };
        if let Some(block) = out {
            if self.inclusion && i > 0 {
                self.invalidate_above(i, block);
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
        let mut res = self.levels[0].cache.access(addr, is_write);
        if res.hit && !is_write {
            // The common case: a read hit at L1 moves nothing.
            return AccessOutcome::hit_at(ServicePoint::Level(0));
        }
        // Level 0 sees every access once, so its access count is the
        // stack's clock (stream LRU stamps, MSHR time).
        let clock = self.levels[0].cache.stats().accesses;
        let mut down_is_write = is_write;
        let mut left_org: Option<u64> = None;
        let mut i = 0;
        loop {
            if res.hit {
                // A hit evicts nothing; only a write moves traffic on.
                if down_is_write {
                    left_org = self.propagate_write(i, addr).or(left_org);
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
            let block = level.cache.geometry().block_addr(addr);
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
                self.route_eviction(i, evicted, &mut left_org);
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
            res = self.levels[i].cache.access(addr, down_is_write);
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

    /// Propagates a write serviced at level `i` through the levels below
    /// while the receiving level's policy is write-through. Returns any
    /// block the last level pushed out along the way.
    fn propagate_write(&mut self, i: usize, addr: u64) -> Option<u64> {
        let mut j = i;
        let mut left_org = None;
        while j + 1 < self.levels.len()
            && self.levels[j].cache.write_policy() == WritePolicy::WriteThroughNoAllocate
        {
            j += 1;
            if let Some(evicted) = self.levels[j].cache.access(addr, true).evicted {
                self.route_eviction(j, evicted, &mut left_org);
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
        format!("hierarchy: {}", levels.join(" / "))
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
}
