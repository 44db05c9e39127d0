//! Cache simulators for the conflict-avoiding-cache reproduction.
//!
//! This crate provides the evaluation substrate of the paper:
//!
//! * [`cache::Cache`] — a parametric set-associative cache that accepts
//!   any [`cac_core::IndexFunction`], including skewed ones (different
//!   index per way), with LRU/FIFO/random replacement and
//!   write-through/write-back policies.
//! * [`classify::ThreeCClassifier`] — compulsory/capacity/conflict miss
//!   classification against an infinite cache and a fully-associative LRU
//!   cache of equal capacity.
//! * [`column::ColumnAssociative`] — the §3.1 option-4 design: first probe
//!   with the conventional index, second probe with the polynomial hash,
//!   with line swapping ("pseudo-full associativity in what is effectively
//!   a direct-mapped cache").
//! * [`mshr::MshrFile`] — lockup-free-cache miss status holding registers
//!   (Kroft), used by the out-of-order CPU model.
//! * [`vm::PageMapper`] — virtual→physical page mappings so a
//!   virtual-real hierarchy can index L1 virtually and L2 physically.
//! * [`tlb::Tlb`] — a parametric set-associative TLB, for evaluating the
//!   §3.1 *option 1* design (translate first, index the L1 physically).
//! * [`pagesize::DynamicIndexCache`] — the §3.1 *option 2* controller:
//!   I-Poly indexing enabled only while every mapped segment has pages at
//!   or above a size threshold, with an L1 flush on every mode switch.
//! * [`coherence::SnoopingBus`] — a write-invalidate snooping bus over
//!   several virtual-real nodes, measuring the §3.3 *external coherency*
//!   hole cause the paper sets aside.
//! * [`stack::Hierarchy`] — the one hierarchy engine: an N-level stack
//!   with Inclusion and victim/stream/MSHR structures attachable to any
//!   level as sidecars. With a virtually indexed level 0
//!   ([`stack::HierarchyBuilder::virtual_l1`]) it is the two-level
//!   **virtual-real** hierarchy of Wang et al. that the paper adopts
//!   (§3.1–3.3): virtual-alias control and measurement of the *holes*
//!   the paper models analytically. Jouppi's organizations (reference
//!   \[13\], which the paper's related work compares against) are
//!   config sugar over it: `[victim]` is a modulo-indexed level with a
//!   small fully-associative victim buffer, `[stream]` a level with
//!   sequential stream buffers (they rescue streaming misses but not
//!   the conflict misses I-Poly placement removes), and `[jouppi]`
//!   both (cache → victim → stream buffers → memory), each evaluated
//!   by loads only.
//!
//! # One model API
//!
//! Every organization above implements [`model::MemoryModel`] — one
//! `access`/`run_refs`/`stats`/`reset` surface reporting through the
//! shared [`model::AccessOutcome`] and [`model::ModelStats`] shapes —
//! and every organization is constructible from a declarative
//! [`config::SimConfig`] (parsed from a small TOML subset; shipped
//! examples under `examples/*.toml`), which is what `cac run --config`
//! replays traces against.
//!
//! # Hot-path architecture
//!
//! The simulators are built for billions of replayed references (see the
//! module docs of [`cache`] for the full picture):
//!
//! * placement functions are LUT-compiled ([`cac_core::IndexTable`]) at
//!   construction — `set_index` is a single table load, with no dynamic
//!   dispatch on the access path;
//! * cache lines live in flat way-major struct-of-arrays storage with an
//!   invalid-tag sentinel and one packed metadata word per line, and
//!   probes return `(way, set)` so hit and fill paths never recompute an
//!   index;
//! * one-set (fully-associative) geometries — the paper's reference
//!   curve, maximal TLBs — probe and pick victims in O(1) through
//!   [`assoc::AssocIndex`] instead of scanning every way;
//! * one probe-and-fill body, generic over the cache's shape (1, 2 or 4
//!   ways unrolled, any other way count, the fully-associative engine),
//!   serves per-access calls, the chunk kernels, a [`stack::Hierarchy`]'s
//!   level 0 and the [`tlb::Tlb`]; batched replay dispatches once per
//!   chunk and folds counters once, and a hierarchy walks the deeper
//!   levels and sidecars only when level 0 does not read-hit;
//! * whole traces replay through the batched APIs
//!   ([`cache::Cache::run_trace`], [`model::MemoryModel::run_refs`]),
//!   which return per-trace counter deltas that are byte-identical
//!   to an equivalent per-op loop (`crates/sim/tests/replay_equivalence.rs`
//!   holds the guards);
//! * on-disk traces stream through [`replay`], which refills a reused
//!   chunk buffer from any `cac_trace::io::RefSource` (a binary,
//!   columnar or text reader) and drains it through the same batched
//!   path, so external
//!   traces larger than memory replay at in-memory speed;
//! * multi-configuration sweeps run through [`sweep`]: the reference
//!   stream is decoded/generated **once** and broadcast to every model
//!   ([`sweep::Sweep`]), and LRU modulus-indexed size × associativity
//!   grids collapse into a single Mattson stack-distance traversal
//!   ([`sweep::LruStackSweep`]), optionally set-sampled.
//!
//! # Example
//!
//! ```
//! use cac_core::{CacheGeometry, IndexSpec};
//! use cac_sim::cache::Cache;
//!
//! let geom = CacheGeometry::new(8 * 1024, 32, 2)?;
//! let mut conventional = Cache::build(geom, IndexSpec::modulo())?;
//! let mut ipoly = Cache::build(geom, IndexSpec::ipoly_skewed())?;
//!
//! // 64 blocks, 4KB apart: a pathological power-of-two stride.
//! for _round in 0..10 {
//!     for i in 0..64u64 {
//!         conventional.read(i * 4096);
//!         ipoly.read(i * 4096);
//!     }
//! }
//! // Conventional indexing thrashes (2 sets hold all 64 blocks);
//! // I-Poly sees only the 64 compulsory misses.
//! assert!(conventional.stats().miss_ratio() > 0.9);
//! assert_eq!(ipoly.stats().misses, 64);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod assoc;
pub mod cache;
pub mod classify;
pub mod coherence;
pub mod column;
pub mod config;
pub mod journal;
pub mod model;
pub mod mshr;
pub mod pagesize;
pub mod replacement;
pub mod replay;
pub mod stack;
pub mod stats;
pub mod sweep;
pub mod tlb;
pub mod vm;

pub use analytic::{AnalyticModel, StackHistogram};
pub use cache::{Cache, CacheBuilder, WritePolicy};
pub use classify::{MissKind, ThreeCClassifier};
pub use config::SimConfig;
pub use model::{AccessOutcome, MemoryModel, ModelStats, ServicePoint};
pub use stack::{Hierarchy, HierarchyBuilder, LevelBuilder, SnoopOutcome};
pub use stats::CacheStats;
pub use sweep::{LruStackSweep, Sweep};
