//! The parametric cache model.
//!
//! One [`Cache`] type covers every single-level organization the paper's
//! evaluation uses: direct-mapped, set-associative and skewed caches are
//! all "a set of ways, each with its own index function" — conventional
//! caches just use the same function in every way. Fully-associative
//! caches are the degenerate single-set geometry.
//!
//! # Hot-path architecture
//!
//! The access loop is built for trace-replay throughput:
//!
//! * **LUT-compiled placement.** The [`IndexSpec`] is compiled into a
//!   [`cac_core::IndexTable`] at construction, so `set_index` on the
//!   access path is a single bounds-checked table load — no dynamic
//!   dispatch, no per-way hash evaluation (the paper's own argument:
//!   the I-Poly hash is a constant-time XOR tree, §3).
//! * **Struct-of-arrays storage with packed metadata.** Lines live in
//!   flat way-major arrays indexed by `way * sets + set`: a tag array
//!   with an invalid-tag sentinel, and **one** packed `u64` metadata
//!   word per line (bit 0 = dirty, the upper bits = the replacement
//!   stamp the configured policy actually consults — last-touch time
//!   for LRU, fill time for FIFO). An access touches two arrays, not
//!   four.
//! * **Slot-precise probes.** Probes yield the way and its storage
//!   slot, and victim selection folds the winning way and slot out of
//!   its single scan; on the unrolled shapes the fill reuses the sets
//!   the probe derived.
//! * **O(1) fully-associative engine.** When the geometry degenerates
//!   to one set, probes and victim selection run through
//!   [`crate::assoc::AssocIndex`] — an open-addressing tag map plus an
//!   intrusive LRU/FIFO list — instead of scanning every way, with
//!   behaviour (including the random-replacement RNG stream)
//!   byte-identical to the scan it replaces.
//! * **One probe-and-fill body.** Every replay path runs
//!   `Cache::probe_fill`, generic over the shape: unrolled for 1, 2
//!   and 4 ways (direct-mapped probes compile to a single
//!   load/compare), a scan for any other way count, and the one-set
//!   engine. The replacement policy is read at run time. It adds hits
//!   and misses to caller-owned counts: [`Cache::access`] folds them at
//!   once, [`Cache::run_refs_slice`] once per chunk, and the
//!   [`crate::stack::Hierarchy`] kernel keeps its level 0's counts in
//!   registers across a chunk.

use crate::assoc::AssocIndex;
use crate::model::{AccessOutcome, MemoryModel, ModelStats, ServicePoint};
use crate::replacement::{ReplacementPolicy, Selector};
use crate::stats::CacheStats;
use cac_core::{CacheGeometry, Error, IndexFunction, IndexSpec, IndexTable};
use cac_trace::{MemRef, TraceOp};
use std::sync::Arc;

/// Write handling. The paper's L1 is write-through / no-write-allocate
/// (§4); write-back / write-allocate is provided for the L2 and for
/// ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WritePolicy {
    /// Writes propagate to the next level; write misses do not allocate.
    #[default]
    WriteThroughNoAllocate,
    /// Writes dirty the line; write misses allocate.
    WriteBackAllocate,
}

/// Tag-array sentinel for an invalid line. Block addresses are byte
/// addresses shifted right by the offset bits, and [`CacheGeometry`]
/// enforces blocks of at least 2 bytes, so this value cannot collide
/// with a real block address.
const INVALID_TAG: u64 = u64::MAX;

/// Dirty flag in the packed per-line metadata word; the bits above it
/// hold the replacement stamp (`clock << META_STAMP_SHIFT`).
const META_DIRTY: u64 = 1;

/// Shift isolating the stamp in the packed metadata word.
const META_STAMP_SHIFT: u32 = 1;

/// `WAYS` of [`Cache::probe_fill`] for a way count it is not unrolled
/// for: every way is scanned, and the fill recomputes each way's set.
pub(crate) const ANY_WAYS: usize = 0;

/// `WAYS` of [`Cache::probe_fill`] for the one-set geometry's O(1)
/// [`AssocIndex`] engine.
pub(crate) const ASSOC_WAYS: usize = usize::MAX;

/// The largest way count [`Cache::probe_fill`] is unrolled for.
const UNROLLED_WAYS: usize = 4;

/// References per internal chunk of the iterator-driven replay APIs:
/// big enough to amortize the kernel dispatch, small enough to stay in
/// the host L1/L2.
const KERNEL_CHUNK: usize = 4096;

/// Result of a single access — the shared [`AccessOutcome`], kept
/// under its historical name for existing callers.
pub type Access = AccessOutcome;

/// A set-associative (possibly skewed) cache.
///
/// # Example
///
/// ```
/// use cac_core::{CacheGeometry, IndexSpec};
/// use cac_sim::cache::Cache;
///
/// let geom = CacheGeometry::new(8 * 1024, 32, 2)?;
/// let mut c = Cache::build(geom, IndexSpec::ipoly_skewed())?;
/// assert!(!c.read(0x1000).hit); // cold miss
/// assert!(c.read(0x1000).hit);  // now resident
/// assert!(c.read(0x1010).hit);  // same 32-byte block
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    geom: CacheGeometry,
    /// The placement function as built (kept for introspection and for
    /// the rare schemes the LUT compiler cannot tabulate).
    index: Arc<dyn IndexFunction>,
    /// LUT-compiled placement driving every access-path index lookup.
    table: IndexTable,
    sets: usize,
    ways: usize,
    /// Way-major tag array (`way * sets + set`); `INVALID_TAG` = empty.
    tags: Vec<u64>,
    /// Packed per-line metadata, same indexing as `tags`: bit 0 = dirty,
    /// upper bits = the stamp the replacement policy consults.
    meta: Vec<u64>,
    /// O(1) probe/victim engine, present exactly when `sets == 1`.
    assoc: Option<AssocIndex>,
    selector: Selector,
    write_policy: WritePolicy,
    clock: u64,
    stats: CacheStats,
}

/// Builder for non-default cache configurations.
///
/// # Example
///
/// ```
/// use cac_core::{CacheGeometry, IndexSpec};
/// use cac_sim::cache::{Cache, WritePolicy};
/// use cac_sim::replacement::ReplacementPolicy;
///
/// let geom = CacheGeometry::new(256 * 1024, 32, 2)?;
/// let l2 = Cache::builder(geom)
///     .index_spec(IndexSpec::modulo())
///     .replacement(ReplacementPolicy::Lru)
///     .write_policy(WritePolicy::WriteBackAllocate)
///     .build()?;
/// assert_eq!(l2.geometry().num_sets(), 4096);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CacheBuilder {
    geom: CacheGeometry,
    spec: IndexSpec,
    replacement: ReplacementPolicy,
    write_policy: WritePolicy,
    seed: u64,
}

impl CacheBuilder {
    /// The geometry this builder was started with.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Starts a builder with the paper's defaults: modulo indexing, LRU,
    /// write-through/no-write-allocate.
    pub fn new(geom: CacheGeometry) -> Self {
        CacheBuilder {
            geom,
            spec: IndexSpec::modulo(),
            replacement: ReplacementPolicy::Lru,
            write_policy: WritePolicy::WriteThroughNoAllocate,
            seed: 0x5eed_cace,
        }
    }

    /// Sets the placement scheme.
    pub fn index_spec(mut self, spec: IndexSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Sets the replacement policy.
    pub fn replacement(mut self, policy: ReplacementPolicy) -> Self {
        self.replacement = policy;
        self
    }

    /// Sets the write policy.
    pub fn write_policy(mut self, policy: WritePolicy) -> Self {
        self.write_policy = policy;
        self
    }

    /// Seeds the random-replacement stream (ignored by LRU/FIFO).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the cache.
    ///
    /// # Errors
    ///
    /// Propagates [`IndexSpec::build`] validation errors.
    pub fn build(self) -> Result<Cache, Error> {
        let index = self.spec.build(self.geom)?;
        Ok(Cache::from_parts(
            self.geom,
            index,
            self.replacement,
            self.write_policy,
            self.seed,
        ))
    }
}

impl Cache {
    /// Builds a cache with an index scheme and otherwise default policies
    /// (LRU, write-through/no-write-allocate — the paper's L1).
    ///
    /// # Errors
    ///
    /// Propagates [`IndexSpec::build`] validation errors.
    pub fn build(geom: CacheGeometry, spec: IndexSpec) -> Result<Self, Error> {
        CacheBuilder::new(geom).index_spec(spec).build()
    }

    /// Starts a [`CacheBuilder`].
    pub fn builder(geom: CacheGeometry) -> CacheBuilder {
        CacheBuilder::new(geom)
    }

    /// Builds a cache around an existing index function (for custom
    /// placements not expressible as an [`IndexSpec`]). The function is
    /// LUT-compiled here, exactly as the builder path does.
    pub fn from_parts(
        geom: CacheGeometry,
        index: Arc<dyn IndexFunction>,
        replacement: ReplacementPolicy,
        write_policy: WritePolicy,
        seed: u64,
    ) -> Self {
        let sets = geom.num_sets() as usize;
        let ways = geom.ways() as usize;
        let lines = sets * ways;
        let table = IndexTable::compile(index.clone());
        Cache {
            geom,
            index,
            table,
            sets,
            ways,
            tags: vec![INVALID_TAG; lines],
            meta: vec![0; lines],
            assoc: (sets == 1).then(|| AssocIndex::new(ways)),
            selector: Selector::new(replacement, seed),
            write_policy,
            clock: 0,
            stats: CacheStats::new(),
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// The placement function.
    pub fn index_fn(&self) -> &Arc<dyn IndexFunction> {
        &self.index
    }

    /// The LUT-compiled placement the access path actually consults.
    pub fn index_table(&self) -> &IndexTable {
        &self.table
    }

    /// The write policy.
    pub fn write_policy(&self) -> WritePolicy {
        self.write_policy
    }

    /// `true` when probes and victim selection run through the O(1)
    /// fully-associative engine (the geometry has a single set).
    pub fn uses_assoc_engine(&self) -> bool {
        self.assoc.is_some()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears statistics but keeps cache contents (for warm-up phases).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::new();
    }

    /// Invalidates everything and clears statistics, returning the
    /// cache to its as-built state (the random-replacement stream
    /// restarts from its seed too, so a flushed cache replays exactly
    /// like a freshly constructed one — the sweep engine reuses models
    /// across sweep items on this guarantee).
    pub fn flush(&mut self) {
        self.tags.fill(INVALID_TAG);
        self.meta.fill(0);
        if let Some(a) = &mut self.assoc {
            a.clear();
        }
        self.stats = CacheStats::new();
        self.clock = 0;
        self.selector.reset();
    }

    /// Non-mutating lookup: the way holding `addr`'s block, if resident.
    pub fn probe(&self, addr: u64) -> Option<u32> {
        let block = self.geom.block_addr(addr);
        self.probe_block(block)
    }

    /// Non-mutating lookup by block address.
    pub fn probe_block(&self, block: u64) -> Option<u32> {
        self.probe_slot(block).map(|(way, _)| way)
    }

    /// Non-mutating lookup by block address, yielding both the way and
    /// the set so callers never recompute the index. O(1) for
    /// fully-associative geometries, one tag compare per way otherwise.
    pub fn probe_slot(&self, block: u64) -> Option<(u32, u32)> {
        self.find(block)
            .map(|(way, slot)| (way, (slot - way as usize * self.sets) as u32))
    }

    /// The way and flat storage slot (`way * sets + set`) holding
    /// `block`, if resident.
    fn find(&self, block: u64) -> Option<(u32, usize)> {
        let mut sets = [0; UNROLLED_WAYS];
        if self.assoc.is_some() {
            self.probe_ways::<ASSOC_WAYS>(block, &mut sets)
        } else {
            self.probe_ways::<ANY_WAYS>(block, &mut sets)
        }
    }

    /// `true` if the block containing `addr` is resident.
    pub fn contains(&self, addr: u64) -> bool {
        self.probe(addr).is_some()
    }

    /// Performs a read access.
    pub fn read(&mut self, addr: u64) -> Access {
        self.access(addr, false)
    }

    /// Performs a write access.
    pub fn write(&mut self, addr: u64) -> Access {
        self.access(addr, true)
    }

    /// Performs an access; `is_write` selects the write path of the
    /// configured [`WritePolicy`].
    ///
    /// Runs `Cache::probe_fill` for the cache's shape and folds its
    /// counts into [`Cache::stats`] at once.
    pub fn access(&mut self, addr: u64, is_write: bool) -> Access {
        let mut k = KernelCounts::default();
        let out = match self.kernel_ways() {
            1 => self.probe_fill::<1>(addr, is_write, &mut k),
            2 => self.probe_fill::<2>(addr, is_write, &mut k),
            4 => self.probe_fill::<4>(addr, is_write, &mut k),
            ASSOC_WAYS => self.probe_fill::<ASSOC_WAYS>(addr, is_write, &mut k),
            _ => self.probe_fill::<ANY_WAYS>(addr, is_write, &mut k),
        };
        self.fold(k);
        out
    }

    /// The `WAYS` argument of [`Cache::probe_fill`] for this cache: the
    /// way count when it is 1, 2 or 4, [`ASSOC_WAYS`] for the one-set
    /// engine, else [`ANY_WAYS`]. Chunk kernels dispatch on it once per
    /// chunk.
    pub(crate) fn kernel_ways(&self) -> usize {
        match self.ways {
            _ if self.assoc.is_some() => ASSOC_WAYS,
            1 | 2 | 4 => self.ways,
            _ => ANY_WAYS,
        }
    }

    /// The one probe-and-fill body every replay path runs. A hit is
    /// stamped (LRU) and dirtied (write-back); an allocating miss fills
    /// the block through [`Cache::fill`]. Hits and misses are added to
    /// `k`, which the caller folds into [`Cache::stats`] with
    /// [`Cache::fold`]; evictions and write-backs are counted in place.
    ///
    /// `WAYS` must equal [`Cache::kernel_ways`]. For 1, 2 and 4 the probe
    /// is unrolled and keeps each way's set for the fill. Always inlined:
    /// the chunk kernels call it once per reference, and as a call it
    /// cost the hierarchy kernel a third of its speed.
    #[inline(always)]
    pub(crate) fn probe_fill<const WAYS: usize>(
        &mut self,
        addr: u64,
        is_write: bool,
        k: &mut KernelCounts,
    ) -> Access {
        debug_assert_eq!(WAYS, self.kernel_ways());
        let block = self.geom.block_addr(addr);
        self.clock += 1;
        let write_back = self.write_policy == WritePolicy::WriteBackAllocate;
        let mut sets = [0u32; UNROLLED_WAYS];
        let hit = self.probe_ways::<WAYS>(block, &mut sets);
        if let Some((way, slot)) = hit {
            k.count(is_write, true);
            if self.selector.policy() == ReplacementPolicy::Lru {
                if WAYS == ASSOC_WAYS {
                    // The engine's list is the recency order; nothing
                    // reads the packed stamp under it.
                    self.assoc.as_mut().expect("assoc engine").touch(way);
                } else {
                    self.meta[slot] =
                        (self.clock << META_STAMP_SHIFT) | (self.meta[slot] & META_DIRTY);
                }
            }
            if is_write && write_back {
                self.meta[slot] |= META_DIRTY;
            }
            return Access {
                hit: true,
                served_by: ServicePoint::Level(0),
                way: Some(way),
                evicted: None,
                filled: false,
            };
        }
        k.count(is_write, false);
        if is_write && !write_back {
            return Access::miss(); // no-write-allocate
        }
        let (way, evicted) = self.fill::<WAYS>(block, is_write, &sets);
        Access {
            hit: false,
            served_by: ServicePoint::Memory,
            way: Some(way),
            evicted,
            filled: true,
        }
    }

    /// The probe of [`Cache::probe_fill`]: the hitting way and its slot.
    /// With `WAYS` of 1, 2 or 4 it records each probed way's set in
    /// `sets` for the fill.
    #[inline(always)]
    fn probe_ways<const WAYS: usize>(
        &self,
        block: u64,
        sets: &mut [u32; UNROLLED_WAYS],
    ) -> Option<(u32, usize)> {
        if WAYS == ASSOC_WAYS {
            let a = self.assoc.as_ref().expect("assoc engine");
            return a.get(block).map(|way| (way, way as usize));
        }
        let ways = if WAYS == ANY_WAYS { self.ways } else { WAYS };
        for w in 0..ways {
            let set = self.table.set_index(block, w as u32);
            if WAYS != ANY_WAYS {
                if let Some(s) = sets.get_mut(w) {
                    *s = set;
                }
            }
            let slot = w * self.sets + set as usize;
            if self.tags[slot] == block {
                return Some((w as u32, slot));
            }
        }
        None
    }

    /// The one fill path: takes the first invalid way, else the
    /// policy's victim (the minimum stamp, or a random way), counts the
    /// eviction and its write-back, and installs `block`. Returns the
    /// way filled and the evicted block.
    ///
    /// Under the one-set engine, slot numbers equal way numbers and
    /// freed slots are reused lowest-first, so every random victim
    /// matches the scan's. Stamps are unique (one line is stamped per
    /// tick), so the first minimum in way order is the minimum.
    #[inline]
    fn fill<const WAYS: usize>(
        &mut self,
        block: u64,
        dirty: bool,
        sets: &[u32; UNROLLED_WAYS],
    ) -> (u32, Option<u64>) {
        let random = self.selector.policy() == ReplacementPolicy::Random;
        let mut victim = None;
        let (way, slot) = if WAYS == ASSOC_WAYS {
            let a = self.assoc.as_mut().expect("assoc engine");
            if a.is_full() {
                let w = if random {
                    self.selector.pick_random(self.ways) as u32
                } else {
                    a.victim_slot()
                };
                a.remove_slot(w);
                victim = Some(w as usize);
            }
            let way = a.insert(block);
            (way as usize, way as usize)
        } else {
            let ways = if WAYS == ANY_WAYS { self.ways } else { WAYS };
            let mut invalid = None;
            let mut oldest = (u64::MAX, 0, 0);
            for w in 0..ways {
                let set = match sets.get(w) {
                    Some(&set) if WAYS != ANY_WAYS => set,
                    _ => self.table.set_index(block, w as u32),
                };
                let slot = w * self.sets + set as usize;
                if self.tags[slot] == INVALID_TAG {
                    invalid = Some((w, slot));
                    break;
                }
                let stamp = self.meta[slot] >> META_STAMP_SHIFT;
                if stamp < oldest.0 {
                    oldest = (stamp, w, slot);
                }
            }
            match invalid {
                Some(free) => free,
                None => {
                    let (w, slot) = if random {
                        let w = self.selector.pick_random(ways);
                        let set = match sets.get(w) {
                            Some(&set) if WAYS != ANY_WAYS => set,
                            _ => self.table.set_index(block, w as u32),
                        };
                        (w, w * self.sets + set as usize)
                    } else {
                        (oldest.1, oldest.2)
                    };
                    victim = Some(slot);
                    (w, slot)
                }
            }
        };
        let mut evicted = None;
        if let Some(s) = victim {
            debug_assert_ne!(self.tags[s], INVALID_TAG, "victim slot valid");
            self.stats.evictions += 1;
            if self.meta[s] & META_DIRTY != 0 {
                self.stats.writebacks += 1;
            }
            evicted = Some(self.tags[s]);
        }
        self.tags[slot] = block;
        self.meta[slot] = (self.clock << META_STAMP_SHIFT) | u64::from(dirty);
        (way as u32, evicted)
    }

    /// Adds counts [`Cache::probe_fill`] gathered into [`Cache::stats`].
    #[inline]
    pub(crate) fn fold(&mut self, k: KernelCounts) {
        let accesses = k.reads + k.writes;
        let misses = k.read_misses + k.write_misses;
        self.stats.accesses += accesses;
        self.stats.reads += k.reads;
        self.stats.writes += k.writes;
        self.stats.read_misses += k.read_misses;
        self.stats.write_misses += k.write_misses;
        self.stats.misses += misses;
        self.stats.hits += accesses - misses;
    }

    /// Accesses since the cache was built or last flushed.
    pub(crate) fn clock(&self) -> u64 {
        self.clock
    }

    /// Replays a full instruction trace, performing the memory references
    /// and skipping everything else. Returns the counters attributable to
    /// this trace (`stats after - stats before`); totals keep
    /// accumulating in [`Cache::stats`] as with per-op calls, and the
    /// counters are identical to what the equivalent
    /// `for op { access(..) }` loop would produce.
    ///
    /// For traces too large to hold in memory, stream them instead with
    /// [`crate::replay::run_cache_source`].
    ///
    /// # Example
    ///
    /// ```
    /// use cac_core::{CacheGeometry, IndexSpec};
    /// use cac_sim::cache::Cache;
    /// use cac_trace::spec::SpecBenchmark;
    ///
    /// let geom = CacheGeometry::new(8 * 1024, 32, 2)?;
    /// let mut cache = Cache::build(geom, IndexSpec::ipoly_skewed())?;
    /// let delta = cache.run_trace(SpecBenchmark::Swim.generator(1).take(10_000));
    /// assert_eq!(delta.accesses, delta.hits + delta.misses);
    /// assert_eq!(cache.stats(), delta); // first trace on a cold cache
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn run_trace<I>(&mut self, ops: I) -> CacheStats
    where
        I: IntoIterator<Item = TraceOp>,
    {
        self.run_refs(ops.into_iter().filter_map(|op| op.mem_ref()))
    }

    /// Replays a bare memory-reference trace; see [`Cache::run_trace`].
    ///
    /// Internally the iterator is drained through a reused chunk buffer
    /// so each chunk replays on the kernel path of
    /// [`Cache::run_refs_slice`].
    ///
    /// # Example
    ///
    /// ```
    /// use cac_core::{CacheGeometry, IndexSpec};
    /// use cac_sim::cache::Cache;
    /// use cac_trace::stride::VectorStride;
    ///
    /// let geom = CacheGeometry::new(8 * 1024, 32, 2)?;
    /// let mut cache = Cache::build(geom, IndexSpec::ipoly_skewed())?;
    /// // Figure 1's pathological stride: I-Poly sees only compulsory misses.
    /// let run = cache.run_refs(VectorStride::paper_figure1(512, 16));
    /// assert_eq!(run.misses, 64);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn run_refs<I>(&mut self, refs: I) -> CacheStats
    where
        I: IntoIterator<Item = MemRef>,
    {
        let before = self.stats;
        let mut iter = refs.into_iter();
        let mut chunk: Vec<MemRef> = Vec::with_capacity(KERNEL_CHUNK);
        loop {
            chunk.extend(iter.by_ref().take(KERNEL_CHUNK));
            if chunk.is_empty() {
                break;
            }
            self.replay_slice(&chunk);
            chunk.clear();
        }
        self.stats - before
    }

    /// Replays a reference slice and returns the counters attributable
    /// to it, exactly as the equivalent per-reference
    /// [`Cache::access`] loop would produce.
    ///
    /// This is the kernel entry point: the slice is dispatched **once**
    /// on the cache's shape to `Cache::probe_fill`, and the counts are
    /// folded once at its end.
    pub fn run_refs_slice(&mut self, refs: &[MemRef]) -> CacheStats {
        let before = self.stats;
        self.replay_slice(refs);
        self.stats - before
    }

    /// Dispatches one slice to the kernel for the cache's shape.
    fn replay_slice(&mut self, refs: &[MemRef]) {
        match self.kernel_ways() {
            1 => self.run_kernel::<1>(refs),
            2 => self.run_kernel::<2>(refs),
            4 => self.run_kernel::<4>(refs),
            ASSOC_WAYS => self.run_kernel::<ASSOC_WAYS>(refs),
            _ => self.run_kernel::<ANY_WAYS>(refs),
        }
    }

    /// The chunk kernel: [`Cache::probe_fill`] per reference, its counts
    /// kept in registers and folded once.
    fn run_kernel<const WAYS: usize>(&mut self, refs: &[MemRef]) {
        let mut k = KernelCounts::default();
        for r in refs {
            self.probe_fill::<WAYS>(r.addr, r.is_write, &mut k);
        }
        self.fold(k);
    }

    /// Invalidates the line holding `block`, if resident. Returns `true`
    /// if a line was removed. Dirty lines are counted as writebacks.
    pub fn invalidate_block(&mut self, block: u64) -> bool {
        if let Some((w, slot)) = self.find(block) {
            self.tags[slot] = INVALID_TAG;
            if let Some(a) = &mut self.assoc {
                a.remove_slot(w);
            }
            self.stats.invalidations += 1;
            if self.meta[slot] & META_DIRTY != 0 {
                self.stats.writebacks += 1;
                self.meta[slot] &= !META_DIRTY;
            }
            true
        } else {
            false
        }
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID_TAG).count()
    }

    /// Iterates over the block addresses of all resident lines.
    pub fn resident_blocks(&self) -> impl Iterator<Item = u64> + '_ {
        self.tags.iter().copied().filter(|&t| t != INVALID_TAG)
    }
}

/// Hit and miss counts [`Cache::probe_fill`] adds up, kept by its
/// caller (in registers across a chunk) and folded by [`Cache::fold`].
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct KernelCounts {
    reads: u64,
    writes: u64,
    read_misses: u64,
    write_misses: u64,
}

impl KernelCounts {
    #[inline(always)]
    fn count(&mut self, is_write: bool, hit: bool) {
        if is_write {
            self.writes += 1;
            self.write_misses += u64::from(!hit);
        } else {
            self.reads += 1;
            self.read_misses += u64::from(!hit);
        }
    }
}

impl MemoryModel for Cache {
    fn access(&mut self, r: MemRef) -> AccessOutcome {
        Cache::access(self, r.addr, r.is_write)
    }

    fn stats(&self) -> ModelStats {
        ModelStats::single("cache", self.stats)
    }

    fn reset(&mut self) {
        self.flush();
    }

    fn describe(&self) -> String {
        format!("{} cache, {} placement", self.geom, self.index.label())
    }

    fn run_refs(&mut self, refs: &[MemRef]) -> ModelStats {
        // One virtual dispatch per slice; the kernel dispatch inside is
        // monomorphic.
        ModelStats::single("cache", self.run_refs_slice(refs))
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    fn paper_geom() -> CacheGeometry {
        CacheGeometry::new(8 * 1024, 32, 2).unwrap()
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::build(paper_geom(), IndexSpec::modulo()).unwrap();
        let a = c.read(0x1000);
        assert!(!a.hit);
        assert!(a.filled);
        assert!(c.read(0x1000).hit);
        assert!(c.read(0x101f).hit); // same block
        assert!(!c.read(0x1020).hit); // next block
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn two_way_holds_two_conflicting_blocks() {
        let mut c = Cache::build(paper_geom(), IndexSpec::modulo()).unwrap();
        // Same set: block addresses 128 apart (128 sets).
        let a = 0u64;
        let b = 128 * 32;
        let d = 2 * 128 * 32;
        c.read(a);
        c.read(b);
        assert!(c.read(a).hit);
        assert!(c.read(b).hit);
        // Third conflicting block evicts the LRU (a was touched before b).
        c.read(d);
        assert!(c.contains(b));
        assert!(c.contains(d));
        assert!(!c.contains(a));
    }

    #[test]
    fn lru_order_respected() {
        let mut c = Cache::build(paper_geom(), IndexSpec::modulo()).unwrap();
        let a = 0u64;
        let b = 128 * 32;
        let d = 2 * 128 * 32;
        c.read(a);
        c.read(b);
        c.read(a); // a is now MRU
        c.read(d); // evicts b
        assert!(c.contains(a));
        assert!(!c.contains(b));
    }

    #[test]
    fn write_through_no_allocate_semantics() {
        let mut c = Cache::build(paper_geom(), IndexSpec::modulo()).unwrap();
        let a = c.write(0x4000);
        assert!(!a.hit);
        assert!(!a.filled, "write miss must not allocate");
        assert!(!c.contains(0x4000));
        // A read brings it in; a subsequent write hits and does not dirty.
        c.read(0x4000);
        assert!(c.write(0x4000).hit);
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn write_back_allocate_semantics() {
        let geom = CacheGeometry::new(64, 32, 1).unwrap(); // 2 sets, tiny
        let mut c = Cache::builder(geom)
            .write_policy(WritePolicy::WriteBackAllocate)
            .build()
            .unwrap();
        assert!(c.write(0).filled, "write miss allocates");
        // Evicting the dirty line produces a writeback: block 0 and block
        // 2 map to set 0 of the 2-set direct-mapped cache.
        let evict = c.read(2 * 32);
        assert_eq!(evict.evicted, Some(0));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn skewed_cache_stores_and_finds_blocks() {
        let mut c = Cache::build(paper_geom(), IndexSpec::ipoly_skewed()).unwrap();
        let blocks: Vec<u64> = (0..100).map(|i| i * 997 * 32).collect();
        for &a in &blocks {
            c.read(a);
        }
        let resident = blocks.iter().filter(|&&a| c.contains(a)).count();
        assert!(resident >= 90, "only {resident} of 100 resident");
    }

    #[test]
    fn invalidate_creates_room() {
        let mut c = Cache::build(paper_geom(), IndexSpec::modulo()).unwrap();
        c.read(0x2000);
        assert!(c.invalidate_block(paper_geom().block_addr(0x2000)));
        assert!(!c.contains(0x2000));
        assert!(!c.invalidate_block(paper_geom().block_addr(0x2000)));
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn capacity_is_respected() {
        let mut c = Cache::build(paper_geom(), IndexSpec::ipoly_skewed()).unwrap();
        for i in 0..10_000u64 {
            c.read(i * 32);
        }
        assert!(c.resident_lines() <= 256);
        assert_eq!(c.resident_lines(), 256); // fully warm
    }

    #[test]
    fn fully_associative_geometry_works() {
        let geom = CacheGeometry::fully_associative(1024, 32).unwrap();
        let mut c = Cache::build(geom, IndexSpec::modulo()).unwrap();
        assert!(c.uses_assoc_engine());
        // 32 lines; fill 32 distinct blocks, all resident.
        for i in 0..32u64 {
            c.read(i * 32);
        }
        assert_eq!(c.resident_lines(), 32);
        assert!((0..32u64).all(|i| c.contains(i * 32)));
        // One more evicts exactly the LRU (block 0).
        c.read(32 * 32);
        assert!(!c.contains(0));
        assert!(c.contains(32 * 32));
    }

    #[test]
    fn fully_associative_lru_tracks_recency_through_the_engine() {
        let geom = CacheGeometry::fully_associative(256, 32).unwrap(); // 8 lines
        let mut c = Cache::build(geom, IndexSpec::modulo()).unwrap();
        for i in 0..8u64 {
            c.read(i * 32);
        }
        c.read(0); // block 0 becomes MRU
        c.read(8 * 32); // evicts block 1, the LRU
        assert!(c.contains(0));
        assert!(!c.contains(32));
        // Invalidation frees the lowest slot for the next fill.
        let victim_way = c.probe_block(c.geom.block_addr(2 * 32)).unwrap();
        assert!(c.invalidate_block(2));
        let out = c.read(9 * 32);
        assert_eq!(out.way, Some(victim_way), "freed way reused first");
        assert_eq!(out.evicted, None, "fill used the invalid slot");
    }

    #[test]
    fn flush_and_reset() {
        let mut c = Cache::build(paper_geom(), IndexSpec::modulo()).unwrap();
        c.read(0x100);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert!(c.contains(0x100), "reset_stats keeps contents");
        c.flush();
        assert!(!c.contains(0x100));
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn pathological_stride_conventional_vs_ipoly() {
        // The lib.rs doctest scenario, verified tightly here.
        let mut conv = Cache::build(paper_geom(), IndexSpec::modulo()).unwrap();
        let mut poly = Cache::build(paper_geom(), IndexSpec::ipoly_skewed()).unwrap();
        for _ in 0..10 {
            for i in 0..64u64 {
                conv.read(i * 4096);
                poly.read(i * 4096);
            }
        }
        assert!(conv.stats().miss_ratio() > 0.9);
        assert_eq!(poly.stats().misses, 64);
    }

    #[test]
    fn resident_blocks_enumerates_contents() {
        let mut c = Cache::build(paper_geom(), IndexSpec::modulo()).unwrap();
        c.read(0);
        c.read(32);
        let mut blocks: Vec<u64> = c.resident_blocks().collect();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![0, 1]);
    }

    #[test]
    fn probe_slot_agrees_with_index_function() {
        let mut c = Cache::build(paper_geom(), IndexSpec::ipoly_skewed()).unwrap();
        for i in 0..200u64 {
            c.read(i * 997);
        }
        for i in 0..200u64 {
            let block = paper_geom().block_addr(i * 997);
            if let Some((w, set)) = c.probe_slot(block) {
                assert_eq!(set, c.index_fn().set_index(block, w));
                assert_eq!(c.probe_block(block), Some(w));
            }
        }
    }

    fn hashed_refs(n: u64) -> Vec<cac_trace::MemRef> {
        (0..n)
            .map(|i| cac_trace::MemRef {
                pc: 0x1000 + i,
                addr: (i.wrapping_mul(0x9E37_79B9) >> 5) & 0xF_FFFF,
                is_write: i % 7 == 0,
            })
            .collect()
    }

    #[test]
    fn run_refs_matches_per_op_loop_exactly() {
        let refs = hashed_refs(5000);
        for spec in [
            IndexSpec::modulo(),
            IndexSpec::ipoly_skewed(),
            IndexSpec::prime(),
        ] {
            let mut batched = Cache::build(paper_geom(), spec.clone()).unwrap();
            let mut manual = Cache::build(paper_geom(), spec.clone()).unwrap();
            let delta = batched.run_refs(refs.iter().copied());
            for r in &refs {
                manual.access(r.addr, r.is_write);
            }
            assert_eq!(batched.stats(), manual.stats(), "{spec}");
            assert_eq!(delta, manual.stats(), "{spec} delta");
            // Contents agree too, not just counters.
            let mut a: Vec<u64> = batched.resident_blocks().collect();
            let mut b: Vec<u64> = manual.resident_blocks().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{spec}");
        }
    }

    #[test]
    fn kernels_match_per_op_loop_across_shapes() {
        // Every (ways, policy, write-policy) kernel the dispatcher can
        // pick — plus a non-kernel shape (8 ways) exercising the
        // fallback — against the per-op access loop.
        let refs = hashed_refs(6000);
        for ways in [1u32, 2, 4, 8] {
            for policy in [
                ReplacementPolicy::Lru,
                ReplacementPolicy::Fifo,
                ReplacementPolicy::Random,
            ] {
                for wp in [
                    WritePolicy::WriteThroughNoAllocate,
                    WritePolicy::WriteBackAllocate,
                ] {
                    let geom = CacheGeometry::new(8 * 1024, 32, ways).unwrap();
                    let build = || {
                        Cache::builder(geom)
                            .index_spec(IndexSpec::ipoly_skewed())
                            .replacement(policy)
                            .write_policy(wp)
                            .build()
                            .unwrap()
                    };
                    let mut batched = build();
                    let mut manual = build();
                    let delta = batched.run_refs_slice(&refs);
                    for r in &refs {
                        manual.access(r.addr, r.is_write);
                    }
                    let tag = format!("{ways} ways, {policy:?}, {wp:?}");
                    assert_eq!(batched.stats(), manual.stats(), "{tag}");
                    assert_eq!(delta, manual.stats(), "{tag}");
                    let mut a: Vec<u64> = batched.resident_blocks().collect();
                    let mut b: Vec<u64> = manual.resident_blocks().collect();
                    a.sort_unstable();
                    b.sort_unstable();
                    assert_eq!(a, b, "{tag}");
                }
            }
        }
    }

    #[test]
    fn assoc_engine_matches_per_op_loop() {
        let refs = hashed_refs(4000);
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ] {
            let geom = CacheGeometry::fully_associative(8 * 1024, 32).unwrap();
            let build = || Cache::builder(geom).replacement(policy).build().unwrap();
            let mut batched = build();
            let mut manual = build();
            let delta = batched.run_refs_slice(&refs);
            for r in &refs {
                manual.access(r.addr, r.is_write);
            }
            assert_eq!(batched.stats(), manual.stats(), "{policy:?}");
            assert_eq!(delta, manual.stats(), "{policy:?}");
            let mut a: Vec<u64> = batched.resident_blocks().collect();
            let mut b: Vec<u64> = manual.resident_blocks().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{policy:?}");
        }
    }

    #[test]
    fn run_trace_skips_non_memory_ops_and_returns_delta() {
        use cac_trace::{OpClass, TraceOp};
        let mut c = Cache::build(paper_geom(), IndexSpec::ipoly()).unwrap();
        c.read(0x40); // pre-existing traffic: delta must exclude it
        let ops = vec![
            TraceOp::compute(0x400, OpClass::IntAlu, 1, [None, None]),
            TraceOp::load(0x404, 0x80, 2, None),
            TraceOp::branch(0x408, true, 0x400, Some(1)),
            TraceOp::store(0x40c, 0x80, 2, None),
        ];
        let delta = c.run_trace(ops);
        assert_eq!(delta.accesses, 2);
        assert_eq!(delta.reads, 1);
        assert_eq!(delta.writes, 1);
        assert_eq!(c.stats().accesses, 3);
    }

    #[test]
    fn index_table_is_compiled_for_paper_schemes() {
        for spec in [
            IndexSpec::modulo(),
            IndexSpec::xor_skewed(),
            IndexSpec::ipoly_skewed(),
        ] {
            let c = Cache::build(paper_geom(), spec).unwrap();
            assert!(c.index_table().is_compiled());
        }
        // The prime baseline inspects every address bit and keeps the
        // computed path — behaviour, not speed, is what must match.
        let c = Cache::build(paper_geom(), IndexSpec::prime()).unwrap();
        assert!(!c.index_table().is_compiled());
    }
}
