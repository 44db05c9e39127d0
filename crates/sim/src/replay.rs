//! Streaming trace replay: feed any [`ChunkSource`] through the batched
//! simulation APIs.
//!
//! The batched entry point [`Cache::run_trace`] wants whole traces, but external
//! traces can be much larger than memory. This module bridges the two:
//! a caller-invisible chunk buffer is refilled from the source and
//! drained through the batched path, so a multi-gigabyte on-disk binary
//! trace replays with the same per-reference cost as an in-memory
//! vector — no per-op allocation, no per-op `Result`, and counters
//! byte-identical to the equivalent per-op loop (guarded by
//! `crates/sim/tests/replay_equivalence.rs`).
//!
//! # Example
//!
//! ```
//! use cac_core::{CacheGeometry, IndexSpec};
//! use cac_sim::cache::Cache;
//! use cac_sim::replay::run_cache;
//! use cac_trace::io::{write_trace_binary, BinaryTraceReader};
//! use cac_trace::spec::SpecBenchmark;
//!
//! let ops: Vec<_> = SpecBenchmark::Swim.generator(7).take(10_000).collect();
//! let bytes = write_trace_binary(Vec::new(), ops.iter().copied())?;
//!
//! let geom = CacheGeometry::new(8 * 1024, 32, 2)?;
//! let mut streamed = Cache::build(geom, IndexSpec::ipoly_skewed())?;
//! let delta = run_cache(&mut streamed, BinaryTraceReader::new(&bytes[..])?)?;
//!
//! let mut in_memory = Cache::build(geom, IndexSpec::ipoly_skewed())?;
//! assert_eq!(delta, in_memory.run_trace(ops.iter().copied()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::cache::Cache;
use crate::stats::CacheStats;
use cac_trace::io::{ChunkSource, RefSource, DEFAULT_CHUNK_OPS};

/// Streams a trace through a single-level [`Cache`] in
/// [`DEFAULT_CHUNK_OPS`]-sized batches; see [`run_cache_chunked`].
///
/// # Errors
///
/// Propagates the source's decode/read errors. References replayed
/// before the error remain applied (and counted in [`Cache::stats`]).
pub fn run_cache<S: ChunkSource>(cache: &mut Cache, source: S) -> Result<CacheStats, S::Error> {
    run_cache_chunked(cache, source, DEFAULT_CHUNK_OPS)
}

/// Streams a trace through a single-level [`Cache`], refilling a reused
/// `chunk_ops`-op buffer from `source` and draining it through
/// [`Cache::run_trace`]. Returns the counter delta attributable to the
/// whole stream, exactly as [`Cache::run_trace`] would for the same ops
/// in memory.
///
/// # Errors
///
/// Propagates the source's decode/read errors.
pub fn run_cache_chunked<S: ChunkSource>(
    cache: &mut Cache,
    mut source: S,
    chunk_ops: usize,
) -> Result<CacheStats, S::Error> {
    let chunk_ops = chunk_ops.max(1);
    let mut buf = Vec::with_capacity(chunk_ops);
    let mut total = CacheStats::default();
    while source.read_chunk(&mut buf, chunk_ops)? > 0 {
        total += cache.run_trace(buf.iter().copied());
    }
    Ok(total)
}

/// Streams any [`RefSource`] — a binary trace reader, a columnar
/// corpus file — through a single-level [`Cache`] on the
/// memory-reference fast path: records decode straight to `MemRef`
/// chunks of [`DEFAULT_CHUNK_OPS`], skipping the instruction fields
/// cache-only replay never looks at, and each chunk replays through
/// [`Cache::run_refs_slice`] — one kernel dispatch per chunk, so the
/// streaming path inherits the same specialized probe kernels as
/// in-memory replay.
///
/// Counters are identical to [`run_cache`] on the same stream. This is
/// the path `cac replay` and the `trace_streaming` benchmark use.
///
/// # Errors
///
/// Propagates decode/read errors from the source. References decoded
/// before the error remain applied (and counted in [`Cache::stats`]).
pub fn run_cache_source<S: RefSource>(
    cache: &mut Cache,
    mut source: S,
) -> Result<CacheStats, S::Error> {
    let before = cache.stats();
    let mut buf: Vec<cac_trace::MemRef> = Vec::with_capacity(DEFAULT_CHUNK_OPS);
    loop {
        match source.read_ref_chunk(&mut buf, DEFAULT_CHUNK_OPS) {
            Ok(0) => break,
            Ok(_) => {
                cache.run_refs_slice(&buf);
            }
            Err(e) => {
                // References decoded before the error still replay, as
                // the fused per-op loop this path replaced did.
                cache.run_refs_slice(&buf);
                return Err(e);
            }
        }
    }
    Ok(cache.stats() - before)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cac_core::{CacheGeometry, IndexSpec};
    use cac_trace::io::SliceSource;
    use cac_trace::spec::SpecBenchmark;
    use cac_trace::TraceOp;

    fn geom() -> CacheGeometry {
        CacheGeometry::new(8 * 1024, 32, 2).unwrap()
    }

    #[test]
    fn chunk_boundaries_do_not_change_results() {
        let ops: Vec<TraceOp> = SpecBenchmark::Tomcatv.generator(3).take(20_000).collect();
        let mut reference = Cache::build(geom(), IndexSpec::ipoly_skewed()).unwrap();
        let expect = reference.run_trace(ops.iter().copied());
        for chunk in [1usize, 7, 1024, 1 << 20] {
            let mut c = Cache::build(geom(), IndexSpec::ipoly_skewed()).unwrap();
            let got = run_cache_chunked(&mut c, SliceSource::new(&ops), chunk).unwrap();
            assert_eq!(got, expect, "chunk {chunk}");
            assert_eq!(c.stats(), reference.stats(), "chunk {chunk}");
        }
    }

    #[test]
    fn ref_fast_path_matches_op_path() {
        use cac_trace::io::{write_trace_binary, BinaryTraceReader};
        let ops: Vec<TraceOp> = SpecBenchmark::Swim.generator(11).take(30_000).collect();
        let bytes = write_trace_binary(Vec::new(), ops.iter().copied()).unwrap();
        let mut via_ops = Cache::build(geom(), IndexSpec::ipoly_skewed()).unwrap();
        let a = run_cache(&mut via_ops, BinaryTraceReader::new(&bytes[..]).unwrap()).unwrap();
        let mut via_refs = Cache::build(geom(), IndexSpec::ipoly_skewed()).unwrap();
        let mut reader = BinaryTraceReader::new(&bytes[..]).unwrap();
        let b = run_cache_source(&mut via_refs, &mut reader).unwrap();
        assert_eq!(a, b);
        assert_eq!(via_ops.stats(), via_refs.stats());
    }

    #[test]
    fn empty_source_is_a_no_op() {
        let mut c = Cache::build(geom(), IndexSpec::modulo()).unwrap();
        let delta = run_cache(&mut c, SliceSource::new(&[])).unwrap();
        assert_eq!(delta, CacheStats::default());
        assert_eq!(c.stats().accesses, 0);
    }
}
