//! Trace serialization: text interchange, compact binary streaming and
//! columnar block storage.
//!
//! The paper's evaluation ran captured SPEC95 traces through its
//! simulators; this workspace substitutes synthetic models, but the hook
//! for *real* traces should exist for downstream users. Three on-disk
//! formats are provided:
//!
//! * [`text`] — a line-oriented format (one dynamic instruction per
//!   line, `#` comments). Human-readable and trivial to emit from any
//!   tracing tool, but parsing it tops out far below the simulator's
//!   replay speed.
//! * [`binary`] (versions 1 and 2) — a compact streaming format:
//!   magic/version header, one op-kind tag byte per record, and varint
//!   **delta-encoded** addresses, so multi-gigabyte externally captured
//!   traces decode at batched-replay speed (see
//!   [`FramedReader::read_chunk`]). Version 2 frames records into
//!   checksummed blocks.
//! * [`columnar`] (version 3) — the corpus store: each block's records
//!   split into bit-packed columns, and a trailing block index for
//!   random access.
//!
//! Versions 2 and 3 are read by one framed-block layer,
//! [`FramedReader`]: the refill buffer, the header check, the block
//! walk, and the lenient decode mode ([`DecodeMode::Lenient`]) that
//! skips damaged blocks and tallies them in a [`SkipReport`] instead of
//! failing. Each format adds only its block header, checksum and
//! payload decode.
//!
//! [`open_trace`] is the one place that opens a trace of any format:
//! it detects the format from the leading bytes ([`sniff_format`]) and
//! returns the matching reader as an [`AnyTraceReader`].
//! `cac trace convert` translates between the formats.
//!
//! Replay consumers should not care where ops come from — an in-memory
//! vector, a text file, a binary stream. The [`ChunkSource`] trait is
//! that abstraction: it refills a caller-owned buffer with the next
//! batch of ops, which `cac_sim`'s streaming entry points feed straight
//! into the batched `run_trace`/`run_refs` replay loops without
//! per-op allocation.
//!
//! # Example
//!
//! ```
//! use cac_trace::io::{read_trace, write_trace, BinaryTraceReader, BinaryTraceWriter};
//! use cac_trace::spec::SpecBenchmark;
//!
//! let ops: Vec<_> = SpecBenchmark::Swim.generator(1).take(100).collect();
//!
//! // Text round-trip.
//! let mut text = Vec::new();
//! write_trace(&mut text, ops.iter().copied())?;
//! let back: Result<Vec<_>, _> = read_trace(&text[..]).collect();
//! assert_eq!(back?, ops);
//!
//! // Binary round-trip (considerably smaller and faster to decode).
//! let mut w = BinaryTraceWriter::new(Vec::new())?;
//! w.write_all(ops.iter().copied())?;
//! let bytes = w.finish()?;
//! let back: Result<Vec<_>, _> = BinaryTraceReader::new(&bytes[..])?.collect();
//! assert_eq!(back?, ops);
//! assert!(bytes.len() < text.len());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod binary;
pub mod columnar;
pub mod commitfs;
mod framed;
pub mod text;

pub use binary::{
    block_checksum, write_trace_binary, BinaryTraceError, BinaryTraceReader, BinaryTraceWriter,
    FailureClass, BINARY_MAGIC, BINARY_VERSION, BLOCK_HEADER_LEN, BLOCK_MAGIC, BLOCK_TARGET,
    HEADER_LEN, MAX_BLOCK_LEN,
};
pub use columnar::{
    col_block_checksum, write_trace_columnar, ColIndexEntry, ColumnBytes, ColumnarFile,
    ColumnarTraceReader, ColumnarTraceWriter, COLUMNAR_VERSION, COL_BLOCK_HEADER_LEN,
    COL_BLOCK_MAGIC, COL_BLOCK_RECORDS, COL_FOOTER_LEN, COL_FOOTER_MAGIC, COL_INDEX_ENTRY_LEN,
    COL_INDEX_MAGIC,
};
pub use commitfs::{CommitFs, DiskFs, FaultFs, FaultPlan};
pub use framed::{BlockDecoder, DecodeMode, FramedReader, SkipReport};
pub use text::{read_trace, write_trace, ParseTraceError, ReadTrace};

use crate::record::{MemRef, TraceOp};
use std::convert::Infallible;
use std::fmt;
use std::io::{Read, Seek, SeekFrom};

/// A stream of [`TraceOp`]s delivered in caller-buffered batches.
///
/// This is the glue between trace storage and the simulators' batched
/// replay loops: implementors refill a reusable buffer (no per-op
/// allocation, no per-op `Result`), and consumers like
/// [`OpRefSource`] drain it through `cac_sim::replay::run_cache_source`.
///
/// Implementations are provided for the framed readers
/// ([`FramedReader`]), the text reader ([`ReadTrace`]), any trace file
/// ([`AnyTraceReader`]) and in-memory slices ([`SliceSource`]).
pub trait ChunkSource {
    /// Error type produced by the underlying decoder.
    type Error;

    /// Clears `out` and refills it with up to `max` ops. Returns the
    /// number of ops delivered; `0` means the stream is exhausted.
    ///
    /// # Errors
    ///
    /// Propagates decode/read errors from the source.
    fn read_chunk(&mut self, out: &mut Vec<TraceOp>, max: usize) -> Result<usize, Self::Error>;
}

/// Default chunk length used by streaming replay loops: large enough to
/// amortise per-chunk overhead, small enough that the op buffer
/// (~48 bytes/op) stays resident in the host's L2 between the decode
/// pass and the replay pass.
pub const DEFAULT_CHUNK_OPS: usize = 1 << 13;

/// [`ChunkSource`] over an in-memory slice of ops (infallible).
///
/// # Example
///
/// ```
/// use cac_trace::io::{ChunkSource, SliceSource};
/// use cac_trace::TraceOp;
///
/// let ops = vec![TraceOp::load(0x400, 0x1000, 5, None); 10];
/// let mut src = SliceSource::new(&ops);
/// let mut buf = Vec::new();
/// assert_eq!(src.read_chunk(&mut buf, 7).unwrap(), 7);
/// assert_eq!(src.read_chunk(&mut buf, 7).unwrap(), 3);
/// assert_eq!(src.read_chunk(&mut buf, 7).unwrap(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct SliceSource<'a> {
    rest: &'a [TraceOp],
}

impl<'a> SliceSource<'a> {
    /// Wraps a slice of ops.
    pub fn new(ops: &'a [TraceOp]) -> Self {
        SliceSource { rest: ops }
    }
}

impl ChunkSource for SliceSource<'_> {
    type Error = Infallible;

    fn read_chunk(&mut self, out: &mut Vec<TraceOp>, max: usize) -> Result<usize, Infallible> {
        out.clear();
        let n = self.rest.len().min(max);
        out.extend_from_slice(&self.rest[..n]);
        self.rest = &self.rest[n..];
        Ok(n)
    }
}

impl<R: Read> ChunkSource for ReadTrace<R> {
    type Error = ParseTraceError;

    fn read_chunk(&mut self, out: &mut Vec<TraceOp>, max: usize) -> Result<usize, ParseTraceError> {
        out.clear();
        while out.len() < max {
            match self.next() {
                Some(Ok(op)) => out.push(op),
                Some(Err(e)) => return Err(e),
                None => break,
            }
        }
        Ok(out.len())
    }
}

/// A stream of bare [`MemRef`]s delivered in caller-buffered batches —
/// the decode-once feed of multi-model sweeps.
///
/// [`ChunkSource`] delivers whole [`TraceOp`]s; cache-only consumers
/// (`cac_sim::sweep`, the replay fast paths) never look at the
/// instruction fields, so this trait delivers the memory-reference
/// projection directly. A sweep engine refills **one** reference buffer
/// from the source and fans it out to every model, so varint decode,
/// text parsing or synthetic-trace generation is paid once per sweep
/// instead of once per configuration.
///
/// Implementations are provided for the framed readers
/// ([`FramedReader::read_ref_chunk`] is the fused fast path), for any
/// [`ChunkSource`] via [`OpRefSource`], and for arbitrary reference
/// iterators (synthetic workloads) via [`IterRefSource`].
pub trait RefSource {
    /// Error type produced by the underlying decoder.
    type Error;

    /// Clears `out` and refills it with up to `max` references. Returns
    /// the number delivered; `0` means the stream is exhausted (sources
    /// skip over non-memory ops rather than delivering short chunks).
    ///
    /// # Errors
    ///
    /// Propagates decode/read errors from the source.
    fn read_ref_chunk(&mut self, out: &mut Vec<MemRef>, max: usize) -> Result<usize, Self::Error>;
}

/// Mutable references forward, so a caller can stream a source through
/// a generic consumer while keeping ownership (to read skip accounting
/// or decode counters afterwards).
impl<S: RefSource + ?Sized> RefSource for &mut S {
    type Error = S::Error;

    fn read_ref_chunk(&mut self, out: &mut Vec<MemRef>, max: usize) -> Result<usize, Self::Error> {
        (**self).read_ref_chunk(out, max)
    }
}

/// [`RefSource`] over any reference iterator (infallible) — the bridge
/// from synthetic workload generators to the sweep engine.
///
/// # Example
///
/// ```
/// use cac_trace::io::{IterRefSource, RefSource};
/// use cac_trace::stride::VectorStride;
///
/// let mut src = IterRefSource::new(VectorStride::paper_figure1(4, 1));
/// let mut buf = Vec::new();
/// assert_eq!(src.read_ref_chunk(&mut buf, 50).unwrap(), 50);
/// assert_eq!(src.read_ref_chunk(&mut buf, 50).unwrap(), 14);
/// assert_eq!(src.read_ref_chunk(&mut buf, 50).unwrap(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct IterRefSource<I> {
    iter: I,
}

impl<I: Iterator<Item = MemRef>> IterRefSource<I> {
    /// Wraps a reference iterator.
    pub fn new(iter: I) -> Self {
        IterRefSource { iter }
    }
}

impl<I: Iterator<Item = MemRef>> RefSource for IterRefSource<I> {
    type Error = Infallible;

    fn read_ref_chunk(&mut self, out: &mut Vec<MemRef>, max: usize) -> Result<usize, Infallible> {
        out.clear();
        out.extend(self.iter.by_ref().take(max));
        Ok(out.len())
    }
}

/// [`RefSource`] adapter over any [`ChunkSource`]: decodes op chunks
/// through an internal buffer and keeps only the memory references
/// (text traces, slices — the framed readers have their own fused
/// path).
#[derive(Debug)]
pub struct OpRefSource<S> {
    source: S,
    ops: Vec<TraceOp>,
}

impl<S: ChunkSource> OpRefSource<S> {
    /// Wraps an op-chunk source.
    pub fn new(source: S) -> Self {
        OpRefSource {
            source,
            ops: Vec::new(),
        }
    }
}

impl<S: ChunkSource> RefSource for OpRefSource<S> {
    type Error = S::Error;

    fn read_ref_chunk(&mut self, out: &mut Vec<MemRef>, max: usize) -> Result<usize, S::Error> {
        out.clear();
        // An op chunk may hold no memory references at all; keep
        // draining so only true exhaustion reports 0.
        while out.len() < max {
            let want = max - out.len();
            if self.source.read_chunk(&mut self.ops, want)? == 0 {
                break;
            }
            out.extend(self.ops.iter().filter_map(TraceOp::mem_ref));
        }
        Ok(out.len())
    }
}

/// Op chunks pass straight through to the wrapped source.
impl<S: ChunkSource> ChunkSource for OpRefSource<S> {
    type Error = S::Error;

    fn read_chunk(&mut self, out: &mut Vec<TraceOp>, max: usize) -> Result<usize, S::Error> {
        self.source.read_chunk(out, max)
    }
}

/// On-disk trace format, as detected by [`sniff_format`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// The line-oriented [`text`] format.
    Text,
    /// The compact row-oriented [`binary`] format (versions 1–2).
    Binary,
    /// The block-compressed [`columnar`] format (version 3).
    Columnar,
}

/// Detects the format of a trace from its first bytes (at least
/// [`BINARY_MAGIC`]`.len() + 1` bytes should be supplied so the version
/// byte distinguishes the row and columnar layouts; fewer than the
/// magic is treated as text, which the text parser will then reject
/// with a line number if it is not).
pub fn sniff_format(prefix: &[u8]) -> TraceFormat {
    if prefix.len() >= BINARY_MAGIC.len() && prefix[..BINARY_MAGIC.len()] == BINARY_MAGIC {
        if prefix.len() > BINARY_MAGIC.len() && prefix[BINARY_MAGIC.len()] == COLUMNAR_VERSION {
            TraceFormat::Columnar
        } else {
            TraceFormat::Binary
        }
    } else {
        TraceFormat::Text
    }
}

/// A trace opened by [`open_trace`]: the reader its leading bytes call
/// for.
#[derive(Debug)]
pub enum AnyTraceReader<R: Read> {
    /// Binary, versions 1 and 2.
    Binary(BinaryTraceReader<R>),
    /// Columnar, version 3 (boxed: its block scratch makes it much
    /// larger than its siblings).
    Columnar(Box<ColumnarTraceReader<R>>),
    /// Text, with memory references projected by [`OpRefSource`].
    Text(OpRefSource<ReadTrace<R>>),
}

/// Opens a trace of any format, detected from its first bytes by
/// [`sniff_format`] and read from the start of `inner`. `mode` applies
/// to the framed formats; text has no blocks to skip.
///
/// # Errors
///
/// I/O errors reading or rewinding `inner`, and the framed readers'
/// header errors ([`BinaryTraceError::BadMagic`],
/// [`BinaryTraceError::UnsupportedVersion`],
/// [`BinaryTraceError::Truncated`]).
pub fn open_trace<R: Read + Seek>(
    mut inner: R,
    mode: DecodeMode,
) -> Result<AnyTraceReader<R>, BinaryTraceError> {
    // The version byte too: the columnar format shares the `CACT` magic.
    let mut prefix = Vec::new();
    (&mut inner)
        .take(BINARY_MAGIC.len() as u64 + 1)
        .read_to_end(&mut prefix)?;
    inner.seek(SeekFrom::Start(0))?;
    Ok(match sniff_format(&prefix) {
        TraceFormat::Binary => AnyTraceReader::Binary(BinaryTraceReader::with_mode(inner, mode)?),
        TraceFormat::Columnar => {
            AnyTraceReader::Columnar(Box::new(ColumnarTraceReader::with_mode(inner, mode)?))
        }
        TraceFormat::Text => AnyTraceReader::Text(OpRefSource::new(read_trace(inner))),
    })
}

impl<R: Read> AnyTraceReader<R> {
    /// The format [`open_trace`] detected.
    pub fn format(&self) -> TraceFormat {
        match self {
            AnyTraceReader::Binary(_) => TraceFormat::Binary,
            AnyTraceReader::Columnar(_) => TraceFormat::Columnar,
            AnyTraceReader::Text(_) => TraceFormat::Text,
        }
    }

    /// What a lenient framed decode skipped so far (empty for text).
    pub fn skipped(&self) -> SkipReport {
        match self {
            AnyTraceReader::Binary(r) => r.skipped(),
            AnyTraceReader::Columnar(r) => r.skipped(),
            AnyTraceReader::Text(_) => SkipReport::default(),
        }
    }
}

impl<R: Read> ChunkSource for AnyTraceReader<R> {
    type Error = TraceReadError;

    fn read_chunk(&mut self, out: &mut Vec<TraceOp>, max: usize) -> Result<usize, TraceReadError> {
        Ok(match self {
            AnyTraceReader::Binary(r) => r.read_chunk(out, max)?,
            AnyTraceReader::Columnar(r) => r.read_chunk(out, max)?,
            AnyTraceReader::Text(r) => r.read_chunk(out, max)?,
        })
    }
}

impl<R: Read> RefSource for AnyTraceReader<R> {
    type Error = TraceReadError;

    fn read_ref_chunk(
        &mut self,
        out: &mut Vec<MemRef>,
        max: usize,
    ) -> Result<usize, TraceReadError> {
        Ok(match self {
            AnyTraceReader::Binary(r) => r.read_ref_chunk(out, max)?,
            AnyTraceReader::Columnar(r) => r.read_ref_chunk(out, max)?,
            AnyTraceReader::Text(r) => r.read_ref_chunk(out, max)?,
        })
    }
}

/// Error from an [`AnyTraceReader`]: the framed readers' decode error
/// or the text parser's, displayed as the error itself.
#[derive(Debug)]
pub enum TraceReadError {
    /// From the binary or columnar reader.
    Framed(BinaryTraceError),
    /// From the text parser.
    Text(ParseTraceError),
}

impl fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceReadError::Framed(e) => e.fmt(f),
            TraceReadError::Text(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for TraceReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceReadError::Framed(e) => Some(e),
            TraceReadError::Text(e) => Some(e),
        }
    }
}

impl From<BinaryTraceError> for TraceReadError {
    fn from(e: BinaryTraceError) -> Self {
        TraceReadError::Framed(e)
    }
}

impl From<ParseTraceError> for TraceReadError {
    fn from(e: ParseTraceError) -> Self {
        TraceReadError::Text(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecBenchmark;

    #[test]
    fn sniff_distinguishes_formats() {
        let ops: Vec<TraceOp> = SpecBenchmark::Swim.generator(3).take(10).collect();
        let mut text = Vec::new();
        write_trace(&mut text, ops.iter().copied()).unwrap();
        assert_eq!(sniff_format(&text), TraceFormat::Text);
        let bin = write_trace_binary(Vec::new(), ops.iter().copied()).unwrap();
        assert_eq!(sniff_format(&bin), TraceFormat::Binary);
        let col = write_trace_columnar(Vec::new(), ops.iter().copied()).unwrap();
        assert_eq!(sniff_format(&col), TraceFormat::Columnar);
        assert_eq!(sniff_format(b""), TraceFormat::Text);
        assert_eq!(sniff_format(b"CA"), TraceFormat::Text);
        // A bare magic (no version byte) still reads as the row format.
        assert_eq!(sniff_format(b"CACT"), TraceFormat::Binary);
    }

    #[test]
    fn open_trace_reads_every_format_alike() {
        let ops: Vec<TraceOp> = SpecBenchmark::Swim.generator(3).take(5000).collect();
        let expect: Vec<MemRef> = ops.iter().filter_map(TraceOp::mem_ref).collect();
        let mut text = Vec::new();
        write_trace(&mut text, ops.iter().copied()).unwrap();
        for (bytes, format) in [
            (text, TraceFormat::Text),
            (
                write_trace_binary(Vec::new(), ops.iter().copied()).unwrap(),
                TraceFormat::Binary,
            ),
            (
                write_trace_columnar(Vec::new(), ops.iter().copied()).unwrap(),
                TraceFormat::Columnar,
            ),
        ] {
            let mut r = open_trace(std::io::Cursor::new(bytes), DecodeMode::Lenient).unwrap();
            assert_eq!(r.format(), format);
            let (mut buf, mut all) = (Vec::new(), Vec::new());
            while r.read_ref_chunk(&mut buf, 777).unwrap() > 0 {
                all.extend_from_slice(&buf);
            }
            assert_eq!(all, expect, "{format:?}");
            assert!(!r.skipped().any());
        }
    }

    #[test]
    fn op_ref_source_matches_direct_projection() {
        let ops: Vec<TraceOp> = SpecBenchmark::Swim.generator(8).take(2000).collect();
        let expect: Vec<MemRef> = ops.iter().filter_map(TraceOp::mem_ref).collect();
        let mut src = OpRefSource::new(SliceSource::new(&ops));
        let mut buf = Vec::new();
        let mut all = Vec::new();
        while src.read_ref_chunk(&mut buf, 97).unwrap() > 0 {
            all.extend_from_slice(&buf);
        }
        assert_eq!(all, expect);
        // Iterator-backed source delivers the same projection.
        let mut src = IterRefSource::new(expect.iter().copied());
        let mut all = Vec::new();
        while src.read_ref_chunk(&mut buf, 97).unwrap() > 0 {
            all.extend_from_slice(&buf);
        }
        assert_eq!(all, expect);
    }

    #[test]
    fn text_reader_chunks() {
        let ops: Vec<TraceOp> = SpecBenchmark::Swim.generator(3).take(100).collect();
        let mut text = Vec::new();
        write_trace(&mut text, ops.iter().copied()).unwrap();
        let mut r = read_trace(&text[..]);
        let mut buf = Vec::new();
        let mut all = Vec::new();
        while r.read_chunk(&mut buf, 33).unwrap() > 0 {
            all.extend_from_slice(&buf);
        }
        assert_eq!(all, ops);
    }
}
