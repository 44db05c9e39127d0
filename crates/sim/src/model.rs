//! The composable simulation surface: one trait, one access-result type,
//! one statistics shape for every cache organization in the crate.
//!
//! The paper's whole argument is comparative — the same reference stream
//! replayed against many cache *organizations* (§2.1's direct-mapped /
//! set-associative / victim / column-associative / skewed / I-Poly
//! matrix). Historically each organization here exposed its own
//! constructor and access surface; [`MemoryModel`] unifies them:
//!
//! * [`MemoryModel::access`] replays one [`MemRef`] and reports the
//!   outcome through the shared [`AccessOutcome`], so callers never
//!   re-derive hits from stats deltas;
//! * [`MemoryModel::run_refs`] replays a slice batched (overridable so
//!   concrete models keep their monomorphic hot loops — the trait costs
//!   one virtual call per *chunk*, not per reference);
//! * [`MemoryModel::stats`] renders every organization's counters into
//!   the common [`ModelStats`] shape the report layer understands.
//!
//! The trait is object-safe: `Box<dyn MemoryModel>` is what the
//! declarative [`crate::config::SimConfig`] layer hands back, and what
//! `cac run --config` drives.
//!
//! # Example
//!
//! ```
//! use cac_core::{CacheGeometry, IndexSpec};
//! use cac_sim::cache::Cache;
//! use cac_sim::model::MemoryModel;
//! use cac_trace::MemRef;
//!
//! let geom = CacheGeometry::new(8 * 1024, 32, 2)?;
//! let mut model: Box<dyn MemoryModel> =
//!     Box::new(Cache::build(geom, IndexSpec::ipoly_skewed())?);
//! let refs: Vec<MemRef> = (0..64u64)
//!     .map(|i| MemRef { pc: 0, addr: i * 4096, is_write: false })
//!     .collect();
//! let delta = model.run_refs(&refs);
//! assert_eq!(delta.demand.misses, 64); // compulsory only under I-Poly
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::stats::CacheStats;
use cac_trace::MemRef;
use std::fmt;
use std::ops::Sub;

/// Where an access was serviced.
///
/// Levels are numbered from the processor side (`Level(0)` = L1).
/// Sidecar variants carry the index of the level they are attached to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ServicePoint {
    /// Hit in the cache array of the given level.
    Level(u8),
    /// Hit in the victim buffer attached to the given level.
    Victim(u8),
    /// Hit at a stream-buffer head attached to the given level.
    Stream(u8),
    /// Hit at the second (rehash) probe of a column-associative cache.
    SecondProbe,
    /// Missed everywhere; serviced by memory.
    Memory,
    /// Not modelled by this organization (e.g. a store presented to a
    /// read-only prefetch organization): passed through untouched.
    Bypass,
}

/// Result of a single access, shared by every organization.
///
/// Invariant: `hit` is `true` exactly when `served_by` is neither
/// [`ServicePoint::Memory`] nor [`ServicePoint::Bypass`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access was serviced without going to memory.
    pub hit: bool,
    /// Where the access was serviced.
    pub served_by: ServicePoint,
    /// The way that hit or was filled, for single-level caches that track
    /// it (`None` for non-allocating misses and composite organizations).
    pub way: Option<u32>,
    /// Block address of a valid line this access pushed out of the
    /// organization entirely (not merely demoted into a sidecar).
    pub evicted: Option<u64>,
    /// Whether a new line was brought in from the next level.
    pub filled: bool,
}

impl AccessOutcome {
    /// An access serviced at `point` with no fill or eviction.
    pub fn hit_at(point: ServicePoint) -> Self {
        AccessOutcome {
            hit: !matches!(point, ServicePoint::Memory | ServicePoint::Bypass),
            served_by: point,
            way: None,
            evicted: None,
            filled: false,
        }
    }

    /// A full miss serviced by memory.
    pub fn miss() -> Self {
        AccessOutcome {
            hit: false,
            served_by: ServicePoint::Memory,
            way: None,
            evicted: None,
            filled: false,
        }
    }

    /// An access this organization does not model (see
    /// [`ServicePoint::Bypass`]).
    pub fn bypass() -> Self {
        AccessOutcome {
            hit: false,
            served_by: ServicePoint::Bypass,
            way: None,
            evicted: None,
            filled: false,
        }
    }

    /// `true` unless the access went to memory (or was bypassed).
    pub fn is_hit(&self) -> bool {
        self.hit
    }
}

/// Counters of one component (a cache level or a sidecar) inside a
/// model, named for report rendering (`"l1"`, `"victim"`, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentStats {
    /// Component name, stable across a model's lifetime.
    pub name: String,
    /// The component's counters in the common shape.
    pub stats: CacheStats,
}

/// The statistics shape every [`MemoryModel`] reports.
///
/// `demand` describes the reference stream as presented to the model:
/// an access counts as a *hit* when it was serviced anywhere before
/// memory (cache array, victim buffer, stream-buffer head, second
/// probe). `components` break the same traffic down per cache level /
/// sidecar, and `extras` carry organization-specific counters (holes,
/// probe distribution, MSHR occupancy events, ...).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModelStats {
    /// The demand stream's counters (hit = serviced before memory).
    pub demand: CacheStats,
    /// Per-component counters, processor side first.
    pub components: Vec<ComponentStats>,
    /// Named organization-specific counters.
    pub extras: Vec<(String, u64)>,
}

/// Builds one [`ModelStats::extras`] entry.
pub fn extra(name: impl Into<String>, value: u64) -> (String, u64) {
    (name.into(), value)
}

impl ModelStats {
    /// A single-component model's stats, demand equal to the component.
    pub fn single(name: &str, stats: CacheStats) -> Self {
        ModelStats {
            demand: stats,
            components: vec![ComponentStats {
                name: name.to_owned(),
                stats,
            }],
            extras: Vec::new(),
        }
    }

    /// Looks up an extra counter by name.
    pub fn extra(&self, name: &str) -> Option<u64> {
        self.extras.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a component's counters by name.
    pub fn component(&self, name: &str) -> Option<&CacheStats> {
        self.components
            .iter()
            .find(|c| c.name == name)
            .map(|c| &c.stats)
    }
}

/// Field-wise difference, for batched-replay deltas. Both operands must
/// come from the same model (same component/extra shape).
impl Sub for ModelStats {
    type Output = ModelStats;
    fn sub(self, rhs: ModelStats) -> ModelStats {
        debug_assert_eq!(self.components.len(), rhs.components.len());
        debug_assert_eq!(self.extras.len(), rhs.extras.len());
        ModelStats {
            demand: self.demand - rhs.demand,
            components: self
                .components
                .into_iter()
                .zip(rhs.components)
                .map(|(a, b)| {
                    debug_assert_eq!(a.name, b.name);
                    ComponentStats {
                        name: a.name,
                        stats: a.stats - b.stats,
                    }
                })
                .collect(),
            extras: self
                .extras
                .into_iter()
                .zip(rhs.extras)
                .map(|((n, a), (m, b))| {
                    debug_assert_eq!(n, m);
                    (n, a - b)
                })
                .collect(),
        }
    }
}

impl fmt::Display for ModelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.demand)
    }
}

/// One memory model: anything a reference stream can be replayed
/// against. Implemented by [`crate::cache::Cache`],
/// [`crate::stack::Hierarchy`] (and the virtual-real, `[victim]`,
/// `[stream]` and `[jouppi]` organizations built on it) and
/// [`crate::column::ColumnAssociative`].
///
/// `Send` is a supertrait so a `Box<dyn MemoryModel>` can be handed to
/// a worker thread of the multi-configuration sweep engine
/// ([`crate::sweep`]); every model here is plain owned data, so the
/// bound costs implementors nothing.
pub trait MemoryModel: Send {
    /// Replays one memory reference.
    fn access(&mut self, r: MemRef) -> AccessOutcome;

    /// Accumulated counters in the common shape.
    fn stats(&self) -> ModelStats;

    /// Invalidates all contents and clears all counters.
    fn reset(&mut self);

    /// One-line human description (geometry + placement), for reports.
    fn describe(&self) -> String;

    /// Replays a reference slice and returns the counters attributable
    /// to it (`stats after - stats before`), exactly as the equivalent
    /// per-reference [`MemoryModel::access`] loop would produce.
    ///
    /// The default implementation is the per-reference loop; concrete
    /// models with batched replay paths override it. Either way the
    /// per-reference cost is monomorphic — when called through
    /// `dyn MemoryModel` only this method is dispatched virtually, once
    /// per slice.
    fn run_refs(&mut self, refs: &[MemRef]) -> ModelStats {
        let before = self.stats();
        for &r in refs {
            self.access(r);
        }
        self.stats() - before
    }
}

/// A deliberately faulty model: behaves as an always-miss "cache" until
/// its access counter reaches a trigger, then panics on every further
/// access.
///
/// This is the test fixture behind the sweep engine's panic isolation
/// (`[poison]` config sections, `Sweep::run_source_isolated`): a sweep
/// containing a `PoisonModel` must degrade that one row to
/// `Failed` while sibling models' counters stay byte-identical. It has
/// no simulation value.
#[derive(Debug, Clone)]
pub struct PoisonModel {
    after: u64,
    stats: CacheStats,
}

impl PoisonModel {
    /// A model that panics once `after` accesses have been replayed
    /// (`after = 0` panics on the very first access).
    pub fn new(after: u64) -> Self {
        PoisonModel {
            after,
            stats: CacheStats::new(),
        }
    }
}

impl MemoryModel for PoisonModel {
    fn access(&mut self, r: MemRef) -> AccessOutcome {
        if self.stats.accesses >= self.after {
            panic!(
                "poison model tripped after {} accesses (configured trigger {})",
                self.stats.accesses, self.after
            );
        }
        if r.is_write {
            self.stats.record_write(false);
        } else {
            self.stats.record_read(false);
        }
        AccessOutcome::miss()
    }

    fn stats(&self) -> ModelStats {
        ModelStats::single("poison", self.stats)
    }

    fn reset(&mut self) {
        self.stats = CacheStats::new();
    }

    fn describe(&self) -> String {
        format!("poison model (panics after {} accesses)", self.after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_constructors_uphold_the_hit_invariant() {
        assert!(AccessOutcome::hit_at(ServicePoint::Level(0)).hit);
        assert!(AccessOutcome::hit_at(ServicePoint::Victim(1)).hit);
        assert!(AccessOutcome::hit_at(ServicePoint::SecondProbe).is_hit());
        assert!(!AccessOutcome::hit_at(ServicePoint::Memory).hit);
        assert!(!AccessOutcome::miss().hit);
        assert!(!AccessOutcome::bypass().hit);
        assert_eq!(AccessOutcome::bypass().served_by, ServicePoint::Bypass);
    }

    #[test]
    fn model_stats_lookup_and_delta() {
        let mut a = CacheStats::new();
        a.record_read(false);
        a.record_read(true);
        let mut s = ModelStats::single("l1", a);
        s.extras.push(extra("holes", 3));
        assert_eq!(s.component("l1").unwrap().accesses, 2);
        assert_eq!(s.extra("holes"), Some(3));
        assert_eq!(s.extra("nope"), None);

        let mut later = s.clone();
        later.demand.record_read(true);
        later.components[0].stats.record_read(true);
        later.extras[0].1 = 5;
        let delta = later - s;
        assert_eq!(delta.demand.accesses, 1);
        assert_eq!(delta.component("l1").unwrap().hits, 1);
        assert_eq!(delta.extra("holes"), Some(2));
    }
}
