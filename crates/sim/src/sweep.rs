//! Multi-configuration sweep engine: decode the reference stream
//! **once**, drive every model from it.
//!
//! Every headline experiment of the paper is a *sweep* — the same
//! reference stream replayed against a matrix of cache configurations
//! (the Figure 1 stride sweep, the §2.1 organization comparison, the
//! miss-ratio tables). Replaying each configuration independently pays
//! the trace cost (synthetic generation, varint decode, text parsing)
//! once **per configuration**: O(configs × refs) work for what is one
//! pass over the data. This module provides the two engines that
//! collapse it to O(refs + configs × accesses):
//!
//! * [`Sweep`] — a chunk-broadcast replay engine. The calling thread
//!   releases reference chunks — sub-slices of an in-memory trace, or
//!   recycled buffers refilled from a [`RefSource`] (a binary trace, a
//!   text trace, a synthetic workload iterator) — and every worker,
//!   the calling thread included, takes the model at the front of a
//!   shared queue, replays it over its next few chunks and puts it
//!   back. Slow and fast models therefore spread over all workers.
//!   Counters are byte-identical to running each model alone
//!   (`crates/sim/tests/sweep_equivalence.rs`).
//! * [`LruStackSweep`] — an exact one-pass **Mattson stack-distance**
//!   engine for the LRU / modulus-indexed cache family: a single
//!   traversal maintains per-set reuse stacks and a distance histogram,
//!   from which the miss count of *every* size × associativity of a
//!   given line size is read off exactly — dozens of independent
//!   replays become one traversal. An optional 1-in-K set-sampling mode
//!   trades exactness for a further K× cost reduction on giant sweeps.
//!
//! # Example
//!
//! ```
//! use cac_core::{CacheGeometry, IndexSpec};
//! use cac_sim::cache::Cache;
//! use cac_sim::model::MemoryModel;
//! use cac_sim::sweep::Sweep;
//! use cac_trace::stride::VectorStride;
//!
//! let geom = CacheGeometry::new(8 * 1024, 32, 2)?;
//! // Figure 1, one stride, all four placement schemes — one pass.
//! let refs: Vec<_> = VectorStride::paper_figure1(512, 16).collect();
//! let mut models: Vec<Box<dyn MemoryModel>> = [
//!     IndexSpec::modulo(),
//!     IndexSpec::xor_skewed(),
//!     IndexSpec::ipoly(),
//!     IndexSpec::ipoly_skewed(),
//! ]
//! .into_iter()
//! .map(|s| Ok(Box::new(Cache::build(geom, s)?) as Box<dyn MemoryModel>))
//! .collect::<Result<_, cac_core::Error>>()?;
//! let stats = Sweep::new().run_refs(&mut models, &refs);
//! // The pathological stride thrashes modulo placement; skewed I-Poly
//! // sees only the 64 compulsory misses.
//! assert!(stats[0].demand.miss_ratio() > 0.9);
//! assert_eq!(stats[3].demand.misses, 64);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::model::{MemoryModel, ModelStats};
use cac_core::Error;
use cac_trace::io::{RefSource, DEFAULT_CHUNK_OPS};
use cac_trace::MemRef;
use std::any::Any;
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::ops::Deref;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;

/// Per-model result of an isolated sweep ([`Sweep::run_source_isolated`]):
/// either the model's counter delta, or the reason its replay panicked.
///
/// A failed model is quarantined from the first panic on — it sees no
/// further references — and its partial counters are discarded; sibling
/// models in the same sweep (even on the same worker) are unaffected
/// and their results are byte-identical to a sweep without the failed
/// model present.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelOutcome {
    /// The model replayed the whole stream; its counter delta.
    Completed(ModelStats),
    /// The model panicked; replay of *this model only* was abandoned.
    Failed {
        /// The panic payload (or a placeholder for non-string panics).
        reason: String,
    },
    /// The sweep's [`SweepBudget`] tripped before the stream ended;
    /// replay of the whole sweep was abandoned and this model's partial
    /// counters were discarded (a partial miss count is not an estimate
    /// of anything — callers should re-price the cell analytically).
    Cancelled {
        /// References broadcast before the budget tripped.
        refs_replayed: u64,
    },
}

impl ModelOutcome {
    /// The stats delta, if the model completed.
    pub fn stats(&self) -> Option<&ModelStats> {
        match self {
            ModelOutcome::Completed(s) => Some(s),
            ModelOutcome::Failed { .. } | ModelOutcome::Cancelled { .. } => None,
        }
    }

    /// True if the model panicked.
    pub fn is_failed(&self) -> bool {
        matches!(self, ModelOutcome::Failed { .. })
    }

    /// True if the sweep's budget tripped before the stream ended.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, ModelOutcome::Cancelled { .. })
    }

    /// The failure reason, if the model panicked.
    pub fn failure(&self) -> Option<&str> {
        match self {
            ModelOutcome::Completed(_) | ModelOutcome::Cancelled { .. } => None,
            ModelOutcome::Failed { reason } => Some(reason),
        }
    }
}

/// A replay budget for [`Sweep::run_source_isolated`], checked at
/// chunk boundaries by the producer (a record-count watchdog — no
/// signals, no threads killed mid-access).
///
/// When the budget trips, the producer stops feeding references and
/// every not-yet-poisoned model reports [`ModelOutcome::Cancelled`]
/// with its partial counters discarded. A stream that ends before the
/// budget trips is a normal completion.
///
/// * `max_refs` is **deterministic**: the trip point depends only on
///   the stream and the chunk size, so reruns cancel at the same
///   reference count (the budget may overshoot by at most one chunk).
/// * `max_secs` is wall-clock and therefore machine-dependent; use it
///   as a backstop, not for reproducible experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SweepBudget {
    /// Cancel once this many references have been broadcast.
    pub max_refs: Option<u64>,
    /// Cancel once this much wall-clock time has elapsed.
    pub max_secs: Option<f64>,
}

impl SweepBudget {
    /// No budget: sweeps run to stream exhaustion.
    pub fn unlimited() -> Self {
        SweepBudget::default()
    }

    /// A deterministic reference-count budget.
    pub fn refs(max: u64) -> Self {
        SweepBudget {
            max_refs: Some(max),
            max_secs: None,
        }
    }

    /// A wall-clock budget (machine-dependent; see type docs).
    pub fn secs(max: f64) -> Self {
        SweepBudget {
            max_refs: None,
            max_secs: Some(max),
        }
    }

    /// True when no limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.max_refs.is_none() && self.max_secs.is_none()
    }

    fn exceeded(&self, fed: u64, started: Instant) -> bool {
        if self.max_refs.is_some_and(|max| fed >= max) {
            return true;
        }
        self.max_secs
            .is_some_and(|max| started.elapsed().as_secs_f64() >= max)
    }
}

/// A caught model or source panic, kept whole so it can be resumed.
type Panic = Box<dyn Any + Send>;

/// Renders a caught panic payload as a failure reason.
fn panic_reason(payload: &Panic) -> String {
    let text = payload.downcast_ref::<String>().map(String::as_str);
    let text = text.or_else(|| payload.downcast_ref::<&str>().copied());
    text.unwrap_or("model panicked with a non-string payload")
        .to_owned()
}

/// Chunks a model replays per turn before it goes back in the queue:
/// enough that its state stays in the worker's cache across several
/// chunks, few enough that fast and slow models still spread evenly
/// over the workers.
const TURN_CHUNKS: usize = 4;

/// Multi-model replay engine configuration (builder style).
///
/// `workers = 0` (the default) uses the machine's available
/// parallelism; `workers = 1` runs inline on the calling thread with no
/// thread-spawn cost at all — the right choice when the caller already
/// parallelises across sweep items (as `cac fig1` does across strides).
#[derive(Debug, Clone)]
pub struct Sweep {
    workers: usize,
    chunk_ops: usize,
    budget: SweepBudget,
}

impl Default for Sweep {
    fn default() -> Self {
        Sweep::new()
    }
}

impl Sweep {
    /// Engine with default chunking ([`DEFAULT_CHUNK_OPS`]) and
    /// auto-detected worker count.
    pub fn new() -> Self {
        Sweep {
            workers: 0,
            chunk_ops: DEFAULT_CHUNK_OPS,
            budget: SweepBudget::unlimited(),
        }
    }

    /// Sets the worker-thread count (`0` = available parallelism,
    /// `1` = run inline on the calling thread).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the reference-chunk length. A model replays a few chunks
    /// per turn, so a chunk should stay well inside the host L2 for the
    /// next model to find it still resident.
    #[must_use]
    pub fn chunk_ops(mut self, chunk_ops: usize) -> Self {
        self.chunk_ops = chunk_ops.max(1);
        self
    }

    /// Sets the replay budget, honored by [`Sweep::run_source_isolated`];
    /// [`Sweep::run_refs`] has no outcome to report a cancellation
    /// through and ignores it.
    #[must_use]
    pub fn budget(mut self, budget: SweepBudget) -> Self {
        self.budget = budget;
        self
    }

    fn effective_workers(&self, models: usize) -> usize {
        let auto = if self.workers == 0 {
            thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.workers
        };
        auto.min(models).max(1)
    }

    /// Replays an in-memory reference slice against every model. Chunks
    /// are sub-slices of `refs`: nothing is copied.
    ///
    /// Returns one per-model counter delta (`stats after - before`), in
    /// model order — exactly what `models[i].run_refs(refs)` alone
    /// would have returned.
    ///
    /// # Panics
    ///
    /// When a model panics, the others still replay the whole slice;
    /// then the first panic in model order is resumed.
    pub fn run_refs(
        &self,
        models: &mut [Box<dyn MemoryModel>],
        refs: &[MemRef],
    ) -> Vec<ModelStats> {
        let mut chunks = refs.chunks(self.chunk_ops);
        // Sub-slices cost nothing to hold: release them all at once.
        self.replay(models, usize::MAX, || chunks.next())
            .into_iter()
            .map(|delta| delta.unwrap_or_else(|payload| panic::resume_unwind(payload)))
            .collect()
    }

    /// Streams a [`RefSource`] through every model, decoding it
    /// **once**. Each model replays under [`std::panic::catch_unwind`],
    /// so one poisoned configuration yields a [`ModelOutcome::Failed`]
    /// row instead of tearing down the sweep; completed models' deltas
    /// are byte-identical to replaying each model alone. A
    /// [`SweepBudget`] is checked at every chunk boundary and cancels
    /// the whole sweep ([`ModelOutcome::Cancelled`]) once it trips.
    ///
    /// # Errors
    ///
    /// Propagates the source's decode/read errors (model panics are
    /// *not* errors — they surface as `Failed` outcomes). Every model
    /// has then replayed exactly the chunks decoded before the error.
    pub fn run_source_isolated<S: RefSource>(
        &self,
        models: &mut [Box<dyn MemoryModel>],
        mut source: S,
    ) -> Result<Vec<ModelOutcome>, S::Error> {
        let (chunk_ops, budget, started) = (self.chunk_ops, self.budget, Instant::now());
        let (mut fed, mut cancelled, mut error) = (0u64, false, None);
        // Buffers handed out, oldest first.
        let mut buffers: VecDeque<Arc<Vec<MemRef>>> = VecDeque::new();
        // Two turns of lookahead per extra worker.
        let window = 1 + 2 * TURN_CHUNKS * (self.effective_workers(models.len()) - 1);
        let deltas = self.replay(models, window, || {
            // Once no worker or window holds the oldest buffer
            // (`strong_count == 1`), it is refilled in place.
            let mut buf = match buffers.front() {
                Some(b) if Arc::strong_count(b) == 1 => {
                    Arc::try_unwrap(buffers.pop_front()?).expect("sole owner")
                }
                _ => Vec::with_capacity(chunk_ops),
            };
            let n = source.read_ref_chunk(&mut buf, chunk_ops);
            let n = n.map_err(|e| error = Some(e)).ok()?;
            // Checked *after* a successful read, so a stream that ends
            // exactly at the budget completes normally.
            cancelled = n > 0 && budget.exceeded(fed, started);
            if n == 0 || cancelled {
                return None;
            }
            fed += n as u64;
            buffers.push_back(Arc::new(buf));
            buffers.back().cloned()
        });
        if let Some(e) = error {
            return Err(e);
        }
        Ok(deltas
            .into_iter()
            .map(|delta| match delta {
                // A panic before a budget trip still wins: it carries
                // more information.
                Err(payload) => ModelOutcome::Failed {
                    reason: panic_reason(&payload),
                },
                Ok(_) if cancelled => ModelOutcome::Cancelled { refs_replayed: fed },
                Ok(stats) => ModelOutcome::Completed(stats),
            })
            .collect())
    }

    /// The one replay loop behind both entry points. `produce` releases
    /// the next chunk, or `None` once the stream is over; only the
    /// calling thread (worker 0) calls it, while at most `window`
    /// released chunks are waiting for a model. Returns each model's
    /// counter delta, or the panic that quarantined it.
    fn replay<C>(
        &self,
        models: &mut [Box<dyn MemoryModel>],
        window: usize,
        produce: impl FnMut() -> Option<C>,
    ) -> Vec<Result<ModelStats, Panic>>
    where
        C: Clone + Send + Deref<Target: AsRef<[MemRef]>>,
    {
        let before: Vec<ModelStats> = models.iter().map(|m| m.stats()).collect();
        let workers = self.effective_workers(models.len());
        // A lone worker replays each chunk against every model before
        // it releases the next.
        let board = Board::new(models, if workers == 1 { 1 } else { window });
        let (board, source_panic) = if workers == 1 {
            let board = RefCell::new(board);
            let source_panic = work(&board, Some(produce));
            (board.into_inner(), source_panic)
        } else {
            let shared = (Mutex::new((board, 0)), Condvar::new());
            let source_panic = thread::scope(|s| {
                for _ in 1..workers {
                    s.spawn(|| work(&shared, None::<fn() -> Option<C>>));
                }
                work(&shared, Some(produce))
            });
            (shared.0.into_inner().expect("sweep board").0, source_panic)
        };
        if let Some(payload) = source_panic {
            panic::resume_unwind(payload);
        }
        // A quarantined model's counters are never read.
        let Board { poisoned, .. } = board;
        let models = models.iter().zip(before).zip(poisoned);
        models
            .map(|((m, b), poison)| poison.map_or_else(|| Ok(m.stats() - b), Err))
            .collect()
    }
}

/// A model's seat in the turn queue: its index and the model.
type Seat<'m> = (usize, &'m mut Box<dyn MemoryModel>);

/// What a worker does next.
enum Job<'m> {
    /// Release one more chunk (worker 0 only).
    Produce,
    /// Replay the worker's turn against this model.
    Replay(Seat<'m>),
    /// Every live model has replayed the whole stream.
    Done,
}

/// The state a sweep's workers share: the queue of models waiting for
/// a turn and the window of released chunks.
struct Board<'m, C> {
    /// Models waiting for a turn, longest-waiting first.
    queue: VecDeque<Seat<'m>>,
    /// Released chunks some live model has yet to replay; `window[0]`
    /// is chunk number `base`.
    window: VecDeque<C>,
    base: usize,
    capacity: usize,
    /// Per model: the next chunk it replays (`usize::MAX` once
    /// quarantined, so it holds no chunk back).
    next: Vec<usize>,
    /// Per model: the panic that quarantined it.
    poisoned: Vec<Option<Panic>>,
    /// The producer has released its last chunk.
    ended: bool,
}

impl<'m, C: Clone> Board<'m, C> {
    fn new(models: &'m mut [Box<dyn MemoryModel>], capacity: usize) -> Self {
        Board {
            next: vec![0; models.len()],
            poisoned: models.iter().map(|_| None).collect(),
            queue: models.iter_mut().enumerate().collect(),
            window: VecDeque::new(),
            base: 0,
            capacity,
            ended: false,
        }
    }

    /// The calling worker's next job, filling `turn` for a replay; or
    /// `None` when it has to wait for another worker.
    fn next_job(&mut self, producer: bool, turn: &mut Vec<C>) -> Option<Job<'m>> {
        // Drop the chunks every live model has replayed, for refilling.
        let low = self.next.iter().copied().min().unwrap_or(usize::MAX);
        while self.base < low && self.window.pop_front().is_some() {
            self.base += 1;
        }
        if producer && !self.ended && self.window.len() < self.capacity {
            return Some(Job::Produce);
        }
        let released = self.base + self.window.len();
        if let Some(k) = self.queue.iter().position(|s| self.next[s.0] < released) {
            let seat = self.queue.remove(k).expect("found in the queue");
            let from = self.next[seat.0] - self.base;
            turn.extend(self.window.range(from..).take(TURN_CHUNKS).cloned());
            return Some(Job::Replay(seat));
        }
        // Only an empty window means every live model is up to date.
        (self.ended && self.window.is_empty()).then_some(Job::Done)
    }

    /// Releases a produced chunk, or ends the stream on `None`.
    fn publish(&mut self, chunk: Option<C>) {
        match chunk {
            Some(chunk) => self.window.push_back(chunk),
            None => self.ended = true,
        }
    }

    /// Takes a seat back after a turn of `replayed` chunks. A model
    /// whose turn panicked is quarantined: it leaves the queue for good.
    fn put_back(&mut self, seat: Seat<'m>, replayed: usize, panic: Option<Panic>) {
        match panic {
            None => {
                self.next[seat.0] += replayed;
                self.queue.push_back(seat);
            }
            Some(payload) => {
                self.next[seat.0] = usize::MAX;
                self.poisoned[seat.0] = Some(payload);
            }
        }
    }
}

/// How workers reach the board: a `RefCell` for a lone worker, a lock
/// (with a count of the workers waiting on it) for several.
trait Hub<B> {
    /// Runs `step` on the board until it yields a job, waiting for
    /// another worker to change the board in between. `changes`: the
    /// first step publishes a chunk or puts a seat back.
    fn visit<R>(&self, changes: bool, step: impl FnMut(&mut B) -> Option<R>) -> R;
}

impl<B> Hub<B> for RefCell<B> {
    fn visit<R>(&self, _: bool, mut step: impl FnMut(&mut B) -> Option<R>) -> R {
        // A full window always holds a chunk some queued model has yet
        // to replay, so a lone worker never waits.
        step(&mut self.borrow_mut()).expect("a lone worker never waits")
    }
}

impl<B> Hub<B> for (Mutex<(B, usize)>, Condvar) {
    fn visit<R>(&self, mut changes: bool, mut step: impl FnMut(&mut B) -> Option<R>) -> R {
        let mut guard = self.0.lock().expect("sweep board");
        loop {
            let (board, waiting) = &mut *guard;
            let job = step(board);
            // Wake waiters on any change, job or not: a quarantine can
            // free window room, or end the sweep, for another worker.
            if std::mem::take(&mut changes) && *waiting > 0 {
                self.1.notify_all();
            }
            if let Some(job) = job {
                return job;
            }
            *waiting += 1;
            guard = self.1.wait(guard).expect("sweep board");
            guard.1 -= 1;
        }
    }
}

/// One worker's loop. Worker 0 holds `produce` and releases chunks
/// while the window has room; every worker takes the first queued
/// model with released chunks it has not replayed, replays up to
/// [`TURN_CHUNKS`] of them under `catch_unwind`, and puts it back at
/// the end of the queue. Returns a panic of `produce`.
fn work<'m, C>(
    hub: &impl Hub<Board<'m, C>>,
    mut produce: Option<impl FnMut() -> Option<C>>,
) -> Option<Panic>
where
    C: Clone + Deref<Target: AsRef<[MemRef]>>,
{
    let mut turn: Vec<C> = Vec::with_capacity(TURN_CHUNKS);
    let mut produced: Option<Option<C>> = None;
    let mut finished: Option<(Seat<'m>, usize, Option<Panic>)> = None;
    let mut source_panic = None;
    loop {
        let job = hub.visit(produced.is_some() || finished.is_some(), |board| {
            if let Some(chunk) = produced.take() {
                board.publish(chunk);
            }
            if let Some((seat, replayed, panic)) = finished.take() {
                board.put_back(seat, replayed, panic);
            }
            board.next_job(produce.is_some(), &mut turn)
        });
        match job {
            Job::Produce => {
                let produce = produce.as_mut().expect("worker 0 produces");
                let chunk = panic::catch_unwind(AssertUnwindSafe(produce));
                produced = Some(chunk.unwrap_or_else(|payload| {
                    source_panic = Some(payload);
                    None
                }));
            }
            Job::Replay((idx, model)) => {
                let result = panic::catch_unwind(AssertUnwindSafe(|| {
                    for chunk in &turn {
                        model.run_refs((**chunk).as_ref());
                    }
                }));
                finished = Some(((idx, model), turn.len(), result.err()));
                turn.clear();
            }
            Job::Done => return source_panic,
        }
    }
}

// ---------------------------------------------------------------------
// One-pass Mattson stack-distance engine
// ---------------------------------------------------------------------

/// Exact one-pass miss-ratio curves for the LRU, modulus-indexed cache
/// family (Mattson et al., 1970).
///
/// LRU has the *inclusion* property: the content of an `A`-way set is
/// always a subset of the content of the same set with more ways. One
/// traversal that maintains, per set, the blocks in LRU order (a
/// "reuse stack") therefore determines every associativity at once: an
/// access whose block sits at stack depth `d` hits in every cache of
/// that set count with associativity `> d` and misses in the rest.
/// Recording a histogram of depths per set count yields the **exact**
/// miss count of every `(sets, ways)` combination of a given line size
/// in one pass — the per-combination replays of a size × associativity
/// grid collapse into a single traversal.
///
/// # Cost
///
/// Each access costs, per configured set count, the work of finding its
/// block in its set's stack. A set starts as a move-to-front vector,
/// O(depth) per access, which is fastest while the set is shallow. The
/// first time a set's stack grows past a fixed depth (256 blocks) it is
/// promoted, for good, to a Bennett–Kruskal stamp tree: one hash
/// lookup plus O(log depth) per access, with memory proportional to
/// the blocks on the stack. Promotion is by the depth a set actually
/// reaches, so the many-set families of an L1-sized grid keep the
/// vectors while the 1-set (fully-associative) family, and any family
/// a power-of-two stride folds onto a few sets, take the tree. Both
/// representations record the same exact depths.
///
/// Exactness holds for reference streams replayed with
/// allocate-on-miss, touch-on-hit semantics for every access: that is
/// any read-only stream (the paper's Figure 1 stride traces, load
/// miss-ratio studies), or mixed streams against write-allocate LRU
/// caches ([`crate::cache::WritePolicy::WriteBackAllocate`]). Under
/// no-write-allocate, whether a *write* moves its block to MRU depends
/// on the associativity, so no single stack order represents all
/// configurations — use the [`Sweep`] engine for those.
///
/// # Set sampling
///
/// [`LruStackSweep::with_set_sampling`] keeps only blocks whose low
/// index bits match one residue class (1 in K), which selects the same
/// 1-in-K subset of sets in **every** configuration with at least K
/// sets. Miss *ratios* over the sampled stream are unbiased estimates
/// of the full-stream ratios; [`LruStackSweep::sampling_note`] renders
/// the caveat for reports.
///
/// # Example
///
/// ```
/// use cac_sim::sweep::LruStackSweep;
/// use cac_trace::stride::VectorStride;
///
/// // 32-byte lines; all set counts of an 8KB cache at 1/2/4 ways plus
/// // fully-associative, in one pass.
/// let mut sweep = LruStackSweep::new(32, &[256, 128, 64, 1])?;
/// let refs: Vec<_> = VectorStride::paper_figure1(128, 16).collect();
/// sweep.run_refs(&refs);
/// // 8KB direct-mapped = 256 sets x 1 way; fully assoc = 1 set x 256.
/// let dm = sweep.misses(256, 1).unwrap();
/// let fa = sweep.misses(1, 256).unwrap();
/// assert!(dm > fa);
/// assert_eq!(fa, 64); // compulsory only: the vector fits
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct LruStackSweep {
    line: u64,
    block_bits: u32,
    families: Vec<SetFamily>,
    /// Sampling modulus (1 = every block) and the kept residue.
    sample_k: u64,
    refs_seen: u64,
    refs_sampled: u64,
}

/// Per-set reuse stacks and the distance histogram for one set count.
#[derive(Debug, Clone)]
struct SetFamily {
    sets: u32,
    /// Per-set LRU stacks. Sampled-out sets stay empty.
    stacks: Vec<SetStack>,
    /// `hist[d]` = accesses that found their block at stack depth `d`.
    hist: Vec<u64>,
    /// Accesses whose block was not on the stack (compulsory for the
    /// whole family).
    cold: u64,
}

impl LruStackSweep {
    /// Creates an engine for `line`-byte blocks covering every given
    /// set count (duplicates are merged). A `(sets, ways)` query then
    /// describes the cache of capacity `sets * ways * line`.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] unless `line` and every set count are powers
    /// of two (the modulus family the paper's conventional caches use),
    /// with at least one set count given.
    pub fn new(line: u64, set_counts: &[u32]) -> Result<Self, Error> {
        if line < 2 || !line.is_power_of_two() {
            return Err(Error::config(format!(
                "stack-distance sweep needs a power-of-two line size of at least 2, got {line}"
            )));
        }
        let mut counts: Vec<u32> = set_counts.to_vec();
        counts.sort_unstable();
        counts.dedup();
        if counts.is_empty() {
            return Err(Error::config(
                "stack-distance sweep needs at least one set count",
            ));
        }
        if let Some(bad) = counts.iter().find(|c| **c == 0 || !c.is_power_of_two()) {
            return Err(Error::config(format!(
                "stack-distance sweep set counts must be powers of two (modulus \
                 indexing), got {bad}"
            )));
        }
        Ok(LruStackSweep {
            line,
            block_bits: line.trailing_zeros(),
            families: counts
                .into_iter()
                .map(|sets| SetFamily {
                    sets,
                    stacks: vec![SetStack::Shallow(Vec::new()); sets as usize],
                    hist: Vec::new(),
                    cold: 0,
                })
                .collect(),
            sample_k: 1,
            refs_seen: 0,
            refs_sampled: 0,
        })
    }

    /// Enables 1-in-`k` set sampling: only blocks with
    /// `block_addr % k == 0` are observed.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] unless `k` is a power of two no larger than
    /// the smallest *multi-set* family configured (larger `k` would
    /// leave some configurations with no sampled set at all). A 1-set
    /// (fully-associative) family never constrains `k`: every sampled
    /// block lands in its only set, so it always retains samples — this
    /// is what lets a sampled pass still feed
    /// [`crate::analytic::AnalyticModel::from_sweep`].
    pub fn with_set_sampling(mut self, k: u32) -> Result<Self, Error> {
        if k == 0 || !k.is_power_of_two() {
            return Err(Error::config(format!(
                "set-sampling factor must be a power of two, got {k}"
            )));
        }
        let min_sets = self
            .families
            .iter()
            .map(|f| f.sets)
            .find(|s| *s > 1)
            .unwrap_or(1);
        if k > min_sets && min_sets > 1 {
            return Err(Error::config(format!(
                "set-sampling factor {k} exceeds the smallest multi-set count {min_sets}; \
                 every configuration must retain at least one sampled set"
            )));
        }
        self.sample_k = u64::from(k);
        Ok(self)
    }

    /// The configured line size in bytes.
    pub fn line(&self) -> u64 {
        self.line
    }

    /// The sampling factor K (1 = exact, no sampling).
    pub fn sampling(&self) -> u64 {
        self.sample_k
    }

    /// References presented to the engine (sampled or not).
    pub fn refs_seen(&self) -> u64 {
        self.refs_seen
    }

    /// References that fell in the sampled residue class and were
    /// observed. Equal to [`LruStackSweep::refs_seen`] when sampling is
    /// off.
    pub fn refs_sampled(&self) -> u64 {
        self.refs_sampled
    }

    /// Observes one reference.
    pub fn observe(&mut self, addr: u64) {
        self.refs_seen += 1;
        let block = addr >> self.block_bits;
        if self.sample_k > 1 && !block.is_multiple_of(self.sample_k) {
            return;
        }
        self.refs_sampled += 1;
        for family in &mut self.families {
            let set = (block & u64::from(family.sets - 1)) as usize;
            match family.stacks[set].touch(block) {
                Some(depth) => {
                    if family.hist.len() <= depth {
                        family.hist.resize(depth + 1, 0);
                    }
                    family.hist[depth] += 1;
                }
                None => family.cold += 1,
            }
        }
    }

    /// Observes every reference of a slice (reads and writes alike; see
    /// the type docs for when that is exact).
    pub fn run_refs(&mut self, refs: &[MemRef]) {
        for r in refs {
            self.observe(r.addr);
        }
    }

    /// Streams a [`RefSource`] through the engine.
    ///
    /// # Errors
    ///
    /// Propagates the source's decode/read errors; references observed
    /// before the error remain counted.
    pub fn run_source<S: RefSource>(&mut self, mut source: S) -> Result<(), S::Error> {
        let mut buf = Vec::with_capacity(DEFAULT_CHUNK_OPS);
        while source.read_ref_chunk(&mut buf, DEFAULT_CHUNK_OPS)? > 0 {
            self.run_refs(&buf);
        }
        Ok(())
    }

    fn family(&self, sets: u32) -> Option<&SetFamily> {
        self.families.iter().find(|f| f.sets == sets)
    }

    /// Exact misses of the sampled stream in the `(sets, ways)` LRU
    /// cache, or `None` if that set count was not configured or `ways`
    /// is 0.
    pub fn misses(&self, sets: u32, ways: u32) -> Option<u64> {
        if ways == 0 {
            return None;
        }
        let family = self.family(sets)?;
        let deep: u64 = family.hist.iter().skip(ways as usize).sum();
        Some(family.cold + deep)
    }

    /// Hits of the sampled stream in the `(sets, ways)` cache.
    pub fn hits(&self, sets: u32, ways: u32) -> Option<u64> {
        self.misses(sets, ways).map(|m| self.refs_sampled - m)
    }

    /// Miss ratio of the sampled stream in the `(sets, ways)` cache
    /// (exact when sampling is off, an unbiased estimate otherwise).
    /// `None` for unconfigured set counts or before any reference.
    pub fn miss_ratio(&self, sets: u32, ways: u32) -> Option<f64> {
        if self.refs_sampled == 0 {
            return None;
        }
        self.misses(sets, ways)
            .map(|m| m as f64 / self.refs_sampled as f64)
    }

    /// Worst-case binomial standard error of a reported miss ratio
    /// under set sampling, or `None` when the engine is exact
    /// (sampling off). Exposed numerically so analytic validators can
    /// widen their error bounds programmatically instead of scraping
    /// the text note.
    pub fn sampling_standard_error(&self) -> Option<f64> {
        if self.sample_k <= 1 {
            return None;
        }
        let n = self.refs_sampled.max(1) as f64;
        // p(1-p)/n is maximised at p = 0.5.
        Some((0.25 / n).sqrt())
    }

    /// A report-ready caveat line when sampling is on (`None` when the
    /// engine is exact): the sampled fraction and the worst-case
    /// binomial standard error of a reported miss ratio.
    pub fn sampling_note(&self) -> Option<String> {
        let se = self.sampling_standard_error()?;
        Some(format!(
            "set sampling 1/{}: ratios estimated from {} of {} refs \
             (worst-case standard error ±{:.2} miss-%)",
            self.sample_k,
            self.refs_sampled,
            self.refs_seen,
            se * 100.0
        ))
    }

    /// A copy of the recorded stack-distance histogram for one
    /// configured set count (the raw material of the
    /// [`analytic`](crate::analytic) tier), or `None` for set counts
    /// the sweep was not configured with.
    pub fn histogram(&self, sets: u32) -> Option<crate::analytic::StackHistogram> {
        let family = self.family(sets)?;
        Some(crate::analytic::StackHistogram {
            cold: family.cold,
            depths: family.hist.clone(),
            refs: self.refs_sampled,
        })
    }
}

/// Stack depth past which a set leaves the linear scan for a
/// [`StampStack`]. Below it, scanning and shifting a short `Vec` beats
/// the tree's hash lookup. Chosen by timing the 1-, 32- and 64–256-set
/// families over the 18 SPEC95 workload models (376 to 14 625 blocks
/// each) at 128 to 2048: at 128 the 32- and 64-set families of the
/// large-footprint models promote and run slower than on vectors, and
/// above 256 the 1-set family gains nothing.
const PROMOTE_DEPTH: usize = 256;

/// One set's LRU reuse stack.
#[derive(Debug, Clone)]
enum SetStack {
    /// Blocks MRU first: O(depth) per access.
    Shallow(Vec<u64>),
    /// Bennett–Kruskal stamps: O(log depth) per access.
    Deep(Box<StampStack>),
}

impl SetStack {
    /// Moves `block` to the top of the stack and returns the depth it
    /// was found at (0 = MRU), or `None` on its first access.
    fn touch(&mut self, block: u64) -> Option<usize> {
        match self {
            SetStack::Shallow(stack) => match stack.iter().position(|&b| b == block) {
                Some(depth) => {
                    stack[..=depth].rotate_right(1);
                    Some(depth)
                }
                None => {
                    stack.insert(0, block);
                    if stack.len() > PROMOTE_DEPTH {
                        let deep = StampStack::from_mru_first(stack);
                        *self = SetStack::Deep(Box::new(deep));
                    }
                    None
                }
            },
            SetStack::Deep(deep) => deep.touch(block),
        }
    }
}

/// An LRU stack kept as access stamps (Bennett & Kruskal, 1975).
///
/// Every access gives its block a fresh, increasing stamp. A block's
/// stack depth is then the number of *live* stamps (the latest stamp of
/// some block) newer than its own. Live stamps are bits of a bitset,
/// and a Fenwick tree over the bitset's 64-bit words counts them in
/// O(log n). When the stamp space fills, the live stamps are
/// renumbered densely into a space twice their number, so memory tracks
/// the footprint rather than the access count and the O(n)
/// renumbering amortizes to O(1) per access.
#[derive(Debug, Clone)]
struct StampStack {
    /// Block → its slot in `stamp`. Blocks come from trace files, so
    /// the map keeps std's keyed hasher against crafted collisions.
    slot: HashMap<u64, u32>,
    /// Slot → the block's latest stamp.
    stamp: Vec<u32>,
    /// Stamp → the slot it was handed to. Its length is the next stamp.
    owner: Vec<u32>,
    /// Bit `t` is set while stamp `t` is live.
    live: Vec<u64>,
    /// Fenwick tree (1-based) over the live stamps of each word.
    tree: Vec<u32>,
}

impl StampStack {
    /// Converts an MRU-first stack: the LRU block gets stamp 0.
    fn from_mru_first(stack: &[u64]) -> Self {
        let n = stack.len() as u32;
        let mut slot = HashMap::with_capacity(stack.len());
        for (t, &block) in (0..n).zip(stack.iter().rev()) {
            slot.insert(block, t);
        }
        let mut deep = StampStack {
            slot,
            stamp: (0..n).collect(),
            owner: (0..n).collect(),
            live: Vec::new(),
            tree: Vec::new(),
        };
        deep.rebuild();
        deep
    }

    fn touch(&mut self, block: u64) -> Option<usize> {
        if self.owner.len() == 64 * self.live.len() {
            self.renumber();
        }
        let blocks = self.stamp.len();
        let next = self.owner.len();
        let wn = next / 64;
        let found = match self.slot.entry(block) {
            Entry::Occupied(e) => {
                let s = *e.get();
                let old = std::mem::replace(&mut self.stamp[s as usize], next as u32) as usize;
                self.owner.push(s);
                let wo = old / 64;
                // Live stamps newer than `old`: the rest of its word,
                // then every later word.
                let depth = (self.live[wo] >> (old % 64) >> 1).count_ones() as usize + blocks
                    - self.prefix(wo) as usize;
                self.live[wo] &= !(1 << (old % 64));
                if wo != wn {
                    self.add(wo, -1);
                    self.add(wn, 1);
                }
                Some(depth)
            }
            Entry::Vacant(e) => {
                e.insert(blocks as u32);
                self.stamp.push(next as u32);
                self.owner.push(blocks as u32);
                self.add(wn, 1);
                None
            }
        };
        self.live[wn] |= 1 << (next % 64);
        found
    }

    /// Live stamps in words `0..=w`.
    fn prefix(&self, w: usize) -> u32 {
        let mut i = w + 1;
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i];
            i &= i - 1;
        }
        sum
    }

    fn add(&mut self, w: usize, delta: i32) {
        let mut i = w + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add_signed(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Restamps the live blocks `0..blocks`, keeping their order.
    fn renumber(&mut self) {
        let mut owner = Vec::with_capacity(self.stamp.len());
        for (t, &s) in self.owner.iter().enumerate() {
            if self.live[t / 64] >> (t % 64) & 1 == 1 {
                self.stamp[s as usize] = owner.len() as u32;
                owner.push(s);
            }
        }
        self.owner = owner;
        self.rebuild();
    }

    /// Sizes the stamp space at twice the live stamps, which must be
    /// exactly `0..owner.len()`, and rebuilds the bitset and tree.
    fn rebuild(&mut self) {
        let blocks = self.owner.len();
        let words = (2 * blocks).div_ceil(64);
        assert!(64 * words <= 1 << 32, "a set's stamps must fit in u32");
        self.owner.reserve(64 * words - blocks);
        self.live = (0..words)
            .map(|w| match blocks.saturating_sub(64 * w) {
                n if n >= 64 => u64::MAX,
                n => (1 << n) - 1,
            })
            .collect();
        self.tree = vec![0; words + 1];
        for i in 1..=words {
            self.tree[i] += self.live[i - 1].count_ones();
            let parent = i + (i & i.wrapping_neg());
            if parent <= words {
                self.tree[parent] += self.tree[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use cac_core::{CacheGeometry, IndexSpec};
    use cac_trace::stride::VectorStride;

    fn models(specs: &[IndexSpec]) -> Vec<Box<dyn MemoryModel>> {
        let geom = CacheGeometry::new(8 * 1024, 32, 2).unwrap();
        specs
            .iter()
            .map(|s| Box::new(Cache::build(geom, s.clone()).unwrap()) as Box<dyn MemoryModel>)
            .collect()
    }

    fn mixed_refs(n: u64) -> Vec<MemRef> {
        (0..n)
            .map(|i| MemRef {
                pc: 0x1000 + i,
                addr: (i.wrapping_mul(0x9E37_79B9) >> 5) & 0xF_FFFF,
                is_write: i % 7 == 0,
            })
            .collect()
    }

    /// Replays `refs` through a sweep's one isolated entry point, as a
    /// stream.
    fn isolated(
        sweep: Sweep,
        ms: &mut [Box<dyn MemoryModel>],
        refs: &[MemRef],
    ) -> Vec<ModelOutcome> {
        use cac_trace::io::IterRefSource;
        let source = IterRefSource::new(refs.iter().copied());
        sweep
            .run_source_isolated(ms, source)
            .unwrap_or_else(|e| match e {})
    }

    #[test]
    fn engine_matches_sequential_replay_any_worker_count() {
        let refs = mixed_refs(30_000);
        let specs = [
            IndexSpec::modulo(),
            IndexSpec::ipoly_skewed(),
            IndexSpec::xor_skewed(),
        ];
        let mut reference = models(&specs);
        let expect: Vec<ModelStats> = reference.iter_mut().map(|m| m.run_refs(&refs)).collect();
        for workers in [1usize, 2, 5] {
            let mut swept = models(&specs);
            let got = Sweep::new()
                .workers(workers)
                .chunk_ops(977)
                .run_refs(&mut swept, &refs);
            assert_eq!(got, expect, "workers {workers}");
        }
    }

    #[test]
    fn source_and_slice_paths_agree() {
        let refs = mixed_refs(25_000);
        let specs = [IndexSpec::modulo(), IndexSpec::ipoly_skewed()];
        let mut by_slice = models(&specs);
        let expect = Sweep::new().run_refs(&mut by_slice, &refs);
        for workers in [1usize, 2, 3] {
            let mut by_source = models(&specs);
            let sweep = Sweep::new().workers(workers).chunk_ops(1013);
            let got = isolated(sweep, &mut by_source, &refs);
            let got: Vec<&ModelStats> = got.iter().map(|o| o.stats().unwrap()).collect();
            assert_eq!(got, expect.iter().collect::<Vec<_>>(), "workers {workers}");
        }
    }

    #[test]
    fn isolated_sweep_matches_plain_sweep_when_nothing_fails() {
        // More models than workers, of very different speeds, so models
        // move between workers from turn to turn.
        let refs = mixed_refs(20_000);
        let geom = CacheGeometry::fully_associative(8 * 1024, 32).unwrap();
        let mut specs = vec![IndexSpec::modulo(), IndexSpec::ipoly_skewed()];
        specs.extend([IndexSpec::xor_skewed(), IndexSpec::ipoly()]);
        let build = || {
            let mut ms = models(&specs);
            ms.push(Box::new(Cache::build(geom, IndexSpec::modulo()).unwrap()));
            ms
        };
        let expect = Sweep::new().workers(1).run_refs(&mut build(), &refs);
        for workers in [1usize, 2, 3] {
            let sweep = Sweep::new().workers(workers).chunk_ops(977);
            let got = isolated(sweep, &mut build(), &refs);
            let got: Vec<&ModelStats> = got.iter().map(|o| o.stats().unwrap()).collect();
            assert_eq!(got, expect.iter().collect::<Vec<_>>(), "workers {workers}");
        }
    }

    #[test]
    fn poisoned_model_degrades_without_touching_siblings() {
        use crate::model::PoisonModel;
        let refs = mixed_refs(15_000);
        let specs = [IndexSpec::modulo(), IndexSpec::xor_skewed()];
        let mut healthy = models(&specs);
        let expect = Sweep::new().run_refs(&mut healthy, &refs);
        // Poison sandwiched between healthy models.
        let mixed = || -> Vec<Box<dyn MemoryModel>> {
            vec![
                models(&specs[..1]).pop().unwrap(),
                Box::new(PoisonModel::new(4_000)),
                models(&specs[1..]).pop().unwrap(),
            ]
        };

        for workers in [1usize, 2, 4] {
            let sweep = Sweep::new().workers(workers).chunk_ops(1013);
            let mut ms = mixed();
            let outcomes = isolated(sweep.clone(), &mut ms, &refs);
            assert_eq!(outcomes.len(), 3, "workers {workers}");
            assert_eq!(outcomes[0].stats(), Some(&expect[0]), "workers {workers}");
            assert!(outcomes[1].is_failed(), "workers {workers}");
            assert!(
                outcomes[1].failure().unwrap().contains("poison model"),
                "workers {workers}: {:?}",
                outcomes[1].failure()
            );
            assert_eq!(outcomes[2].stats(), Some(&expect[1]), "workers {workers}");

            // The slice wrapper re-raises the panic, but only after the
            // siblings replayed the whole slice.
            let mut ms = mixed();
            let caught = panic::catch_unwind(AssertUnwindSafe(|| sweep.run_refs(&mut ms, &refs)));
            let reason = panic_reason(&caught.expect_err("run_refs re-raises"));
            assert!(
                reason.contains("poison model"),
                "workers {workers}: {reason}"
            );
            assert_eq!(ms[0].stats(), expect[0], "workers {workers}");
            assert_eq!(ms[2].stats(), expect[1], "workers {workers}");
        }
    }

    /// A model that sleeps through its first turn, then panics.
    struct SlowPoison;

    impl MemoryModel for SlowPoison {
        fn access(&mut self, _: MemRef) -> crate::model::AccessOutcome {
            std::thread::sleep(std::time::Duration::from_millis(200));
            panic!("slow poison");
        }
        fn stats(&self) -> ModelStats {
            ModelStats::single("slow poison", Default::default())
        }
        fn reset(&mut self) {}
        fn describe(&self) -> String {
            "slow poison".to_owned()
        }
    }

    /// A source that stalls on its second chunk, long enough for a
    /// second worker to take the first queued model.
    struct StallingSource {
        refs: Vec<MemRef>,
        read: usize,
    }

    impl RefSource for StallingSource {
        type Error = std::convert::Infallible;

        fn read_ref_chunk(
            &mut self,
            out: &mut Vec<MemRef>,
            max: usize,
        ) -> Result<usize, Self::Error> {
            self.read += 1;
            if self.read == 2 {
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            let take = max.min(self.refs.len());
            out.clear();
            out.extend(self.refs.drain(..take));
            Ok(take)
        }
    }

    #[test]
    fn quarantine_that_frees_the_window_wakes_the_producer() {
        // Worker 1 takes the slow model with the first chunk. Worker 0
        // fills the window (9 chunks at 2 workers), brings the fast
        // model up to date and waits for room. The slow model then
        // panics while every other chunk of the 40 is still unread: its
        // quarantine empties the window, and must wake worker 0.
        let refs = mixed_refs(4_000);
        let expect = models(&[IndexSpec::modulo()])[0].run_refs(&refs);
        let (done, outcome) = std::sync::mpsc::channel();
        let source = StallingSource {
            refs: refs.clone(),
            read: 0,
        };
        std::thread::spawn(move || {
            let mut ms: Vec<Box<dyn MemoryModel>> = vec![Box::new(SlowPoison)];
            ms.extend(models(&[IndexSpec::modulo()]));
            let sweep = Sweep::new().workers(2).chunk_ops(100);
            done.send(sweep.run_source_isolated(&mut ms, source))
                .unwrap();
        });
        let got = outcome
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the sweep finishes")
            .unwrap_or_else(|e| match e {});
        assert_eq!(got[0].failure(), Some("slow poison"));
        assert_eq!(got[1], ModelOutcome::Completed(expect));
    }

    #[test]
    fn immediate_panic_is_reported_with_its_reason() {
        use crate::model::PoisonModel;
        let refs = mixed_refs(100);
        let mut ms: Vec<Box<dyn MemoryModel>> = vec![Box::new(PoisonModel::new(0))];
        let outcomes = isolated(Sweep::new().workers(1), &mut ms, &refs);
        let reason = outcomes[0].failure().expect("must fail");
        assert!(reason.contains("configured trigger 0"), "{reason}");
    }

    /// A source that delivers `good` chunks, then fails.
    struct FailingSource {
        refs: Vec<MemRef>,
        good: usize,
    }

    impl RefSource for FailingSource {
        type Error = String;

        fn read_ref_chunk(&mut self, out: &mut Vec<MemRef>, max: usize) -> Result<usize, String> {
            if self.good == 0 {
                return Err("corrupt block".to_owned());
            }
            self.good -= 1;
            let take = max.min(self.refs.len());
            out.clear();
            out.extend(self.refs.drain(..take));
            Ok(take)
        }
    }

    #[test]
    fn decode_error_leaves_every_model_at_the_chunks_decoded_before_it() {
        let (chunk, good) = (1000, 7);
        let refs = mixed_refs(20_000);
        let specs = [
            IndexSpec::modulo(),
            IndexSpec::ipoly_skewed(),
            IndexSpec::xor_skewed(),
            IndexSpec::ipoly(),
            IndexSpec::modulo(),
        ];
        let mut solo = models(&specs);
        let expect: Vec<ModelStats> = solo
            .iter_mut()
            .map(|m| m.run_refs(&refs[..chunk * good]))
            .collect();
        for workers in [1usize, 2, 3] {
            let mut ms = models(&specs);
            let source = FailingSource {
                refs: refs.clone(),
                good,
            };
            let got = Sweep::new()
                .workers(workers)
                .chunk_ops(chunk)
                .run_source_isolated(&mut ms, source);
            assert_eq!(got, Err("corrupt block".to_owned()), "workers {workers}");
            let stats: Vec<ModelStats> = ms.iter().map(|m| m.stats()).collect();
            assert_eq!(stats, expect, "workers {workers}");
        }
    }

    #[test]
    fn budget_cancels_all_models_deterministically() {
        let refs = mixed_refs(50_000);
        // Two models, and more models than workers.
        let two = [IndexSpec::modulo(), IndexSpec::ipoly_skewed()];
        let five = [
            IndexSpec::modulo(),
            IndexSpec::ipoly_skewed(),
            IndexSpec::xor_skewed(),
            IndexSpec::ipoly(),
            IndexSpec::modulo(),
        ];
        for specs in [&two[..], &five[..]] {
            for workers in [1usize, 2, 3] {
                let mut ms = models(specs);
                let sweep = Sweep::new()
                    .workers(workers)
                    .chunk_ops(1000)
                    .budget(SweepBudget::refs(10_000));
                let outcomes = isolated(sweep, &mut ms, &refs);
                assert_eq!(outcomes.len(), specs.len());
                for o in &outcomes {
                    // Trips at the first chunk boundary at/after the limit.
                    assert_eq!(
                        o,
                        &ModelOutcome::Cancelled {
                            refs_replayed: 10_000
                        },
                        "{} models, workers {workers}",
                        specs.len()
                    );
                    assert!(o.is_cancelled() && o.stats().is_none() && o.failure().is_none());
                }
                // Every model replayed exactly the chunks fed before the
                // trip.
                let mut solo = models(specs);
                for (m, s) in ms.iter().zip(solo.iter_mut()) {
                    assert_eq!(m.stats(), s.run_refs(&refs[..10_000]), "workers {workers}");
                }
            }
        }
    }

    #[test]
    fn budget_larger_than_stream_is_a_normal_completion() {
        let refs = mixed_refs(5_000);
        let specs = [IndexSpec::modulo(), IndexSpec::xor_skewed()];
        let mut plain = models(&specs);
        let expect = Sweep::new().run_refs(&mut plain, &refs);
        let mut ms = models(&specs);
        let sweep = Sweep::new().workers(1).budget(SweepBudget::refs(1_000_000));
        let outcomes = isolated(sweep, &mut ms, &refs);
        let got: Vec<&ModelStats> = outcomes.iter().map(|o| o.stats().unwrap()).collect();
        assert_eq!(got, expect.iter().collect::<Vec<_>>());
        // A stream ending exactly at the budget also completes.
        let mut ms = models(&specs);
        let sweep = Sweep::new()
            .workers(1)
            .chunk_ops(1000)
            .budget(SweepBudget::refs(5_000));
        let outcomes = isolated(sweep, &mut ms, &refs);
        assert!(outcomes.iter().all(|o| o.stats().is_some()));
    }

    #[test]
    fn poison_before_budget_trip_stays_failed() {
        use crate::model::PoisonModel;
        let refs = mixed_refs(20_000);
        let mut ms: Vec<Box<dyn MemoryModel>> = vec![
            Box::new(PoisonModel::new(100)),
            models(&[IndexSpec::modulo()]).pop().unwrap(),
        ];
        let sweep = Sweep::new()
            .workers(1)
            .chunk_ops(1000)
            .budget(SweepBudget::refs(5_000));
        let outcomes = isolated(sweep, &mut ms, &refs);
        assert!(outcomes[0].is_failed());
        assert!(outcomes[1].is_cancelled());
    }

    #[test]
    fn budget_constructors() {
        assert!(SweepBudget::unlimited().is_unlimited());
        assert!(!SweepBudget::refs(5).is_unlimited());
        assert!(!SweepBudget::secs(0.5).is_unlimited());
        assert_eq!(SweepBudget::refs(5).max_refs, Some(5));
        assert_eq!(SweepBudget::secs(2.0).max_secs, Some(2.0));
    }

    #[test]
    fn empty_inputs_are_no_ops() {
        let mut ms = models(&[IndexSpec::modulo()]);
        let stats = Sweep::new().run_refs(&mut ms, &[]);
        assert_eq!(stats[0].demand.accesses, 0);
        let mut none: Vec<Box<dyn MemoryModel>> = Vec::new();
        assert!(Sweep::new().run_refs(&mut none, &mixed_refs(10)).is_empty());
        assert!(isolated(Sweep::new(), &mut none, &mixed_refs(10)).is_empty());
    }

    #[test]
    fn promoted_stack_reports_move_to_front_depths() {
        // 1 000 blocks under a skewed reuse mix: the set promotes at
        // depth 256 and renumbers its stamps many times over.
        let mut set = SetStack::Shallow(Vec::new());
        let mut naive: Vec<u64> = Vec::new();
        let mut x = 1u64;
        for _ in 0..50_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let r = x >> 33;
            let block = if r.is_multiple_of(2) {
                r % 40
            } else {
                (r >> 8) % 1_000
            };
            let want = naive.iter().position(|&b| b == block);
            match want {
                Some(d) => naive[..=d].rotate_right(1),
                None => naive.insert(0, block),
            }
            assert_eq!(set.touch(block), want);
        }
        assert!(matches!(set, SetStack::Deep(_)));
    }

    #[test]
    fn stack_sweep_matches_figure1_compulsory_bound() {
        let mut sweep = LruStackSweep::new(32, &[128]).unwrap();
        let refs: Vec<MemRef> = VectorStride::paper_figure1(1, 16).collect();
        sweep.run_refs(&refs);
        // 64 sequential 8-byte elements = 16 blocks, all resident at
        // 2 ways x 128 sets: compulsory only.
        assert_eq!(sweep.misses(128, 2), Some(16));
        assert_eq!(sweep.hits(128, 2), Some(refs.len() as u64 - 16));
        assert_eq!(sweep.refs_seen(), refs.len() as u64);
    }

    #[test]
    fn stack_sweep_validation() {
        assert!(LruStackSweep::new(31, &[64]).is_err());
        assert!(LruStackSweep::new(32, &[]).is_err());
        assert!(LruStackSweep::new(32, &[48]).is_err());
        assert!(LruStackSweep::new(32, &[64])
            .unwrap()
            .misses(32, 1)
            .is_none());
        assert!(LruStackSweep::new(32, &[64])
            .unwrap()
            .misses(64, 0)
            .is_none());
        assert!(LruStackSweep::new(32, &[64, 128])
            .unwrap()
            .with_set_sampling(128)
            .is_err());
        assert!(LruStackSweep::new(32, &[64])
            .unwrap()
            .with_set_sampling(3)
            .is_err());
    }

    #[test]
    fn sampling_k1_is_exact_and_k4_is_close() {
        let refs = mixed_refs(60_000);
        let mut exact = LruStackSweep::new(32, &[64, 128]).unwrap();
        exact.run_refs(&refs);
        let mut k1 = LruStackSweep::new(32, &[64, 128])
            .unwrap()
            .with_set_sampling(1)
            .unwrap();
        k1.run_refs(&refs);
        assert_eq!(k1.misses(128, 2), exact.misses(128, 2));
        assert!(k1.sampling_note().is_none());

        let mut k4 = LruStackSweep::new(32, &[64, 128])
            .unwrap()
            .with_set_sampling(4)
            .unwrap();
        k4.run_refs(&refs);
        assert!(k4.refs_sampled() < refs.len() as u64 / 2);
        let exact_ratio = exact.miss_ratio(128, 2).unwrap();
        let sampled_ratio = k4.miss_ratio(128, 2).unwrap();
        assert!(
            (exact_ratio - sampled_ratio).abs() < 0.05,
            "exact {exact_ratio:.4} vs sampled {sampled_ratio:.4}"
        );
        assert!(k4.sampling_note().unwrap().contains("1/4"));
    }
}
