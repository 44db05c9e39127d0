//! Compact binary trace serialization.
//!
//! The text format parses at a few million ops per second — an order of
//! magnitude below the simulator's batched replay path. This module
//! defines a streaming binary format that closes that gap, so
//! multi-gigabyte externally captured traces (the MIRAGE/birthday-bound
//! style of evaluation) replay at full speed:
//!
//! * an 8-byte header: the [`BINARY_MAGIC`] bytes `CACT`, a format
//!   version byte ([`BINARY_VERSION`]) and three reserved zero bytes;
//! * one record per dynamic instruction: a **tag byte** encoding the op
//!   kind (compute class, load, store, branch taken/not-taken), followed
//!   by kind-specific fields;
//! * program counters and effective addresses are **delta-encoded**
//!   against the previous record (zigzag + LEB128 varint), which turns
//!   the mostly-sequential pc stream and spatially local address stream
//!   into one- or two-byte fields;
//! * register operands are single bytes (`0xFF` = absent).
//!
//! # Version 2: framed, checksummed blocks
//!
//! Version 2 (the current writer output) groups records into
//! independently decodable **blocks** of roughly [`BLOCK_TARGET`]
//! payload bytes. Each block is a 16-byte header — the [`BLOCK_MAGIC`]
//! marker `CBLK`, the payload length, the record count, and a checksum
//! of the payload — followed by the v1-encoded records. The delta state
//! resets at every block start, so one damaged block never corrupts the
//! decode of its neighbours. Version 1 streams (no framing, one
//! continuous record run) are still read transparently.
//!
//! Framing is what makes **lenient decode** possible: a reader in
//! [`DecodeMode::Lenient`](super::DecodeMode::Lenient) drops a block
//! whose checksum (or structure) does not verify, resynchronizes at the
//! next `CBLK` marker, and keeps going, tallying what it skipped in a
//! [`SkipReport`](super::SkipReport) instead of failing the stream.
//! Strict mode (the default) reports the first damage as an error
//! positioned by absolute byte offset. Truncation is detected in both
//! versions and both modes: the stream ends either at a block/record
//! boundary (clean EOF) or inside one ([`BinaryTraceError::Truncated`],
//! or a skip tally in lenient mode). The block walk, resynchronization
//! and skip tally are the shared [`FramedReader`] layer's, which also
//! reads the columnar v3 format; this module supplies the v2 block
//! header, its checksum and the record decode.
//!
//! # Example
//!
//! ```
//! use cac_trace::io::{BinaryTraceReader, BinaryTraceWriter};
//! use cac_trace::TraceOp;
//!
//! let ops = vec![
//!     TraceOp::load(0x400, 0x1_0000, 5, Some(3)),
//!     TraceOp::store(0x404, 0x1_0008, 7, None),
//!     TraceOp::branch(0x408, true, 0x400, Some(2)),
//! ];
//! let mut w = BinaryTraceWriter::new(Vec::new())?;
//! w.write_all(ops.iter().copied())?;
//! let bytes = w.finish()?;
//! let back: Result<Vec<_>, _> = BinaryTraceReader::new(&bytes[..])?.collect();
//! assert_eq!(back?, ops);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use super::framed::{
    compute_tag, le_u32, reg_byte, zigzag_decode, zigzag_encode, BlockDecoder, BlockHeader, Frame,
    FramedReader, FramedStream, Framing, COMPUTE_CLASSES, REG_NONE, TAG_BRANCH_NOT_TAKEN,
    TAG_BRANCH_TAKEN, TAG_LOAD, TAG_STORE,
};
use crate::record::{MemRef, OpClass, TraceOp};
use std::fmt;
use std::io::{self, BufWriter, Read, Write};
use std::ops::RangeInclusive;

/// Magic bytes opening every binary trace.
pub const BINARY_MAGIC: [u8; 4] = *b"CACT";

/// Current format version (written by [`BinaryTraceWriter::new`]).
/// Versions 1 and 2 are both readable.
pub const BINARY_VERSION: u8 = 2;

/// Header length in bytes: magic, version, three reserved zeros.
pub const HEADER_LEN: usize = 8;

/// Marker bytes opening every version-2 block.
pub const BLOCK_MAGIC: [u8; 4] = *b"CBLK";

/// Version-2 block header length: marker, payload length (u32 LE),
/// record count (u32 LE), payload checksum (u32 LE).
pub const BLOCK_HEADER_LEN: usize = 16;

/// Payload size at which the writer closes the current block. Blocks
/// may exceed this by at most one record.
pub const BLOCK_TARGET: usize = 32 << 10;

/// Largest payload length a reader accepts in a block header. A
/// corrupted length field cannot make the reader buffer an absurd
/// amount of data: anything above this cap is treated as damage.
pub const MAX_BLOCK_LEN: usize = 1 << 20;

/// Upper bound on the encoded size of one record: tag byte, two 10-byte
/// varints, three register bytes.
const MAX_RECORD_LEN: usize = 1 + 10 + 10 + 3;

/// Checksum over a block payload: FNV-1a over 8-byte words (plus a
/// byte-wise tail), folded to 32 bits. Word-wise so verification costs
/// a fraction of record decode on the hot streaming path.
pub fn block_checksum(bytes: &[u8]) -> u32 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET ^ (bytes.len() as u64);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h ^= u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    (h ^ (h >> 32)) as u32
}

/// Error produced while reading a binary (v1/v2) or columnar (v3)
/// trace. Its messages name no format: both readers report through it.
#[derive(Debug)]
pub enum BinaryTraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream does not start with [`BINARY_MAGIC`].
    BadMagic,
    /// The header carries a version this reader does not understand.
    UnsupportedVersion(u8),
    /// The stream ended in the middle of a record, block header or
    /// block payload.
    Truncated {
        /// Number of records successfully decoded before the cut.
        ops_decoded: u64,
        /// Absolute byte offset of the end of the stream.
        offset: u64,
    },
    /// A structurally invalid record or block.
    Corrupt {
        /// 0-based index of the next record (records decoded so far).
        op: u64,
        /// Absolute byte offset of the damage.
        offset: u64,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for BinaryTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinaryTraceError::Io(e) => write!(f, "trace read failed: {e}"),
            BinaryTraceError::BadMagic => {
                write!(f, "not a cac trace (bad magic; expected `CACT`)")
            }
            BinaryTraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace version {v} (binary reads 1-2, columnar reads 3)"
                )
            }
            BinaryTraceError::Truncated {
                ops_decoded,
                offset,
            } => {
                write!(
                    f,
                    "trace truncated at byte {offset} after {ops_decoded} complete records"
                )
            }
            BinaryTraceError::Corrupt { op, offset, reason } => {
                write!(f, "corrupt trace at byte {offset} (record {op}): {reason}")
            }
        }
    }
}

impl std::error::Error for BinaryTraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BinaryTraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Coarse failure classification shared by every consumer that must
/// decide between *retrying* and *giving up* — the corpus fleet
/// supervisor, `cac corpus verify`, the chaos harness.
///
/// The split is about what a retry can change, not about severity: an
/// I/O error may be a flaky mount that succeeds on the next attempt,
/// while structural damage (bad magic, truncation, corrupt blocks) is
/// a property of the bytes themselves — re-reading the same file can
/// only reproduce it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureClass {
    /// Retrying the same operation may succeed (transient I/O faults,
    /// flaky mounts, excessive lenient-decode skips from a mid-read
    /// disturbance).
    Transient,
    /// Retrying cannot help: the input itself is wrong (structural
    /// corruption, truncation, unsupported formats, config errors,
    /// model panics).
    Permanent,
}

impl fmt::Display for FailureClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FailureClass::Transient => "transient",
            FailureClass::Permanent => "permanent",
        })
    }
}

impl FailureClass {
    /// Parses the rendering produced by [`Display`](fmt::Display)
    /// (used by the corpus quarantine manifest).
    pub fn parse(s: &str) -> Option<FailureClass> {
        match s {
            "transient" => Some(FailureClass::Transient),
            "permanent" => Some(FailureClass::Permanent),
            _ => None,
        }
    }
}

impl BinaryTraceError {
    /// The one shared trace-decode classifier: I/O failures are
    /// [`FailureClass::Transient`], structural damage — bad magic,
    /// unsupported versions, truncation, corrupt records or blocks —
    /// is [`FailureClass::Permanent`].
    pub fn failure_class(&self) -> FailureClass {
        match self {
            BinaryTraceError::Io(_) => FailureClass::Transient,
            BinaryTraceError::BadMagic
            | BinaryTraceError::UnsupportedVersion(_)
            | BinaryTraceError::Truncated { .. }
            | BinaryTraceError::Corrupt { .. } => FailureClass::Permanent,
        }
    }
}

impl From<io::Error> for BinaryTraceError {
    fn from(e: io::Error) -> Self {
        BinaryTraceError::Io(e)
    }
}

#[inline]
fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Record-decode failure, positioned by the caller.
enum DecodeError {
    Truncated,
    Corrupt(String),
}

/// Byte cursor over a fully buffered span of the stream.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    #[inline(always)]
    fn byte(&mut self) -> Result<u8, DecodeError> {
        let b = *self.buf.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    #[inline(always)]
    fn varint(&mut self) -> Result<u64, DecodeError> {
        // Unrolled fast paths: delta-encoded streams are dominated by
        // one-byte (sequential pc) and two/three-byte (local address)
        // varints.
        let b = self.byte()?;
        if b < 0x80 {
            return Ok(u64::from(b));
        }
        let mut v = u64::from(b & 0x7F);
        let b = self.byte()?;
        v |= u64::from(b & 0x7F) << 7;
        if b < 0x80 {
            return Ok(v);
        }
        let b = self.byte()?;
        v |= u64::from(b & 0x7F) << 14;
        if b < 0x80 {
            return Ok(v);
        }
        let mut shift = 21u32;
        loop {
            let b = self.byte()?;
            if shift == 63 && b > 1 {
                return Err(DecodeError::Corrupt("varint overflows 64 bits".into()));
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(DecodeError::Corrupt("varint longer than 10 bytes".into()));
            }
        }
    }

    #[inline(always)]
    fn reg(&mut self) -> Result<Option<u8>, DecodeError> {
        match self.byte()? {
            REG_NONE => Ok(None),
            r if r < 64 => Ok(Some(r)),
            r => Err(bad_register(r)),
        }
    }
}

#[cold]
fn bad_register(r: u8) -> DecodeError {
    DecodeError::Corrupt(format!("register byte {r:#x} out of range"))
}

/// Decodes one record from `cur`, given the previous pc/addr state.
/// Returns the op and the updated previous-address state.
#[inline(always)]
fn decode_record(
    cur: &mut Cursor<'_>,
    prev_pc: u64,
    prev_addr: u64,
) -> Result<(TraceOp, u64), DecodeError> {
    let tag = cur.byte()?;
    let pc = prev_pc.wrapping_add(zigzag_decode(cur.varint()?) as u64);
    let op = match tag {
        TAG_LOAD | TAG_STORE => {
            let addr = prev_addr.wrapping_add(zigzag_decode(cur.varint()?) as u64);
            let a = cur.reg()?;
            let b = cur.reg()?;
            let op = if tag == TAG_LOAD {
                let dst =
                    a.ok_or_else(|| DecodeError::Corrupt("load without destination".into()))?;
                TraceOp::load(pc, addr, dst, b)
            } else {
                let src =
                    a.ok_or_else(|| DecodeError::Corrupt("store without data register".into()))?;
                TraceOp::store(pc, addr, src, b)
            };
            return Ok((op, addr));
        }
        TAG_BRANCH_NOT_TAKEN | TAG_BRANCH_TAKEN => {
            let target = pc.wrapping_add(zigzag_decode(cur.varint()?) as u64);
            let src = cur.reg()?;
            TraceOp::branch(pc, tag == TAG_BRANCH_TAKEN, target, src)
        }
        t if (t as usize) < COMPUTE_CLASSES.len() => {
            let dst = cur
                .reg()?
                .ok_or_else(|| DecodeError::Corrupt("compute op without destination".into()))?;
            let s1 = cur.reg()?;
            let s2 = cur.reg()?;
            TraceOp::compute(pc, COMPUTE_CLASSES[t as usize], dst, [s1, s2])
        }
        t => return Err(DecodeError::Corrupt(format!("unknown tag byte {t:#x}"))),
    };
    Ok((op, prev_addr))
}

/// Streaming writer for the binary format.
///
/// Writes version-2 framed blocks by default
/// ([`new`](BinaryTraceWriter::new)); the unframed version-1 layout
/// remains writable ([`new_v1`](BinaryTraceWriter::new_v1)) for
/// compatibility fixtures. Buffers internally; call
/// [`finish`](BinaryTraceWriter::finish) to flush the final block and
/// recover the underlying writer.
#[derive(Debug)]
pub struct BinaryTraceWriter<W: Write> {
    out: BufWriter<W>,
    version: u8,
    /// v1: per-record scratch. v2: the accumulating block payload.
    scratch: Vec<u8>,
    block_records: u32,
    prev_pc: u64,
    prev_addr: u64,
    ops: u64,
}

impl<W: Write> BinaryTraceWriter<W> {
    /// Starts a version-2 binary trace on `w`, writing the header
    /// immediately.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn new(w: W) -> io::Result<Self> {
        BinaryTraceWriter::with_version(w, BINARY_VERSION)
    }

    /// Starts a legacy version-1 (unframed) binary trace on `w`. Kept
    /// so compatibility with old readers and fixtures can be exercised;
    /// new traces should use [`new`](BinaryTraceWriter::new).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn new_v1(w: W) -> io::Result<Self> {
        BinaryTraceWriter::with_version(w, 1)
    }

    fn with_version(w: W, version: u8) -> io::Result<Self> {
        let mut out = BufWriter::with_capacity(1 << 16, w);
        out.write_all(&BINARY_MAGIC)?;
        out.write_all(&[version, 0, 0, 0])?;
        Ok(BinaryTraceWriter {
            out,
            version,
            scratch: Vec::with_capacity(if version >= 2 {
                BLOCK_TARGET + MAX_RECORD_LEN
            } else {
                MAX_RECORD_LEN
            }),
            block_records: 0,
            prev_pc: 0,
            prev_addr: 0,
            ops: 0,
        })
    }

    /// Number of records written so far.
    pub fn ops_written(&self) -> u64 {
        self.ops
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_op(&mut self, op: TraceOp) -> io::Result<()> {
        if self.version < 2 {
            self.scratch.clear();
        }
        let scratch = &mut self.scratch;
        let pc_delta = zigzag_encode(op.pc.wrapping_sub(self.prev_pc) as i64);
        match op.class {
            OpClass::Load => {
                let addr = op.addr.unwrap_or(0);
                scratch.push(TAG_LOAD);
                write_varint(scratch, pc_delta);
                write_varint(
                    scratch,
                    zigzag_encode(addr.wrapping_sub(self.prev_addr) as i64),
                );
                scratch.push(reg_byte(op.dst));
                scratch.push(reg_byte(op.srcs[0]));
                self.prev_addr = addr;
            }
            OpClass::Store => {
                let addr = op.addr.unwrap_or(0);
                scratch.push(TAG_STORE);
                write_varint(scratch, pc_delta);
                write_varint(
                    scratch,
                    zigzag_encode(addr.wrapping_sub(self.prev_addr) as i64),
                );
                scratch.push(reg_byte(op.srcs[0]));
                scratch.push(reg_byte(op.srcs[1]));
                self.prev_addr = addr;
            }
            OpClass::Branch => {
                scratch.push(if op.taken {
                    TAG_BRANCH_TAKEN
                } else {
                    TAG_BRANCH_NOT_TAKEN
                });
                write_varint(scratch, pc_delta);
                write_varint(scratch, zigzag_encode(op.target.wrapping_sub(op.pc) as i64));
                scratch.push(reg_byte(op.srcs[0]));
            }
            class => {
                scratch.push(compute_tag(class));
                write_varint(scratch, pc_delta);
                scratch.push(reg_byte(op.dst));
                scratch.push(reg_byte(op.srcs[0]));
                scratch.push(reg_byte(op.srcs[1]));
            }
        }
        self.prev_pc = op.pc;
        self.ops += 1;
        if self.version < 2 {
            return self.out.write_all(&self.scratch);
        }
        self.block_records += 1;
        if self.scratch.len() >= BLOCK_TARGET {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Writes the accumulated block (header + payload) and resets the
    /// per-block delta state, matching the reader's per-block reset.
    fn flush_block(&mut self) -> io::Result<()> {
        if self.scratch.is_empty() {
            return Ok(());
        }
        let mut header = [0u8; BLOCK_HEADER_LEN];
        header[..4].copy_from_slice(&BLOCK_MAGIC);
        header[4..8].copy_from_slice(&(self.scratch.len() as u32).to_le_bytes());
        header[8..12].copy_from_slice(&self.block_records.to_le_bytes());
        header[12..16].copy_from_slice(&block_checksum(&self.scratch).to_le_bytes());
        self.out.write_all(&header)?;
        self.out.write_all(&self.scratch)?;
        self.scratch.clear();
        self.block_records = 0;
        self.prev_pc = 0;
        self.prev_addr = 0;
        Ok(())
    }

    /// Appends every op of an iterator.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_all<I: IntoIterator<Item = TraceOp>>(&mut self, ops: I) -> io::Result<()> {
        for op in ops {
            self.write_op(op)?;
        }
        Ok(())
    }

    /// Flushes (closing the final block on version 2) and returns the
    /// underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the final flush.
    pub fn finish(mut self) -> io::Result<W> {
        if self.version >= 2 {
            self.flush_block()?;
        }
        self.out
            .into_inner()
            .map_err(io::IntoInnerError::into_error)
    }
}

/// One-call convenience: writes header plus all `ops` to `w` and returns
/// the writer.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_trace_binary<W: Write, I: IntoIterator<Item = TraceOp>>(
    w: W,
    ops: I,
) -> io::Result<W> {
    let mut writer = BinaryTraceWriter::new(w)?;
    writer.write_all(ops)?;
    writer.finish()
}

/// Streaming reader for the binary format (versions 1 and 2): the
/// shared [`FramedReader`] over the v1/v2 record decode.
///
/// # Example
///
/// ```
/// use cac_trace::io::{write_trace_binary, BinaryTraceReader};
/// use cac_trace::TraceOp;
///
/// let ops = vec![TraceOp::load(0x400, 0x1000, 5, None)];
/// let bytes = write_trace_binary(Vec::new(), ops.iter().copied())?;
/// let mut reader = BinaryTraceReader::new(&bytes[..])?;
/// assert_eq!(reader.version(), 2);
/// assert_eq!(reader.next_op()?, Some(ops[0]));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type BinaryTraceReader<R> = FramedReader<R, BinaryBlocks>;

/// The v2 block framing: `CBLK`, payload length, record count and a
/// checksum of the payload.
const FRAMING: Framing = Framing {
    marker: BLOCK_MAGIC,
    header_len: BLOCK_HEADER_LEN,
    trailer: None,
    parse: |h| {
        let payload_len = le_u32(h, 4) as usize;
        BlockHeader {
            payload_len,
            framed: BLOCK_HEADER_LEN + payload_len,
            records: le_u32(h, 8),
            refs: 0,
            checksum: le_u32(h, 12),
        }
    },
    implausible: |h| {
        (h.payload_len > MAX_BLOCK_LEN).then(|| {
            format!(
                "block length {} exceeds the {MAX_BLOCK_LEN}-byte cap",
                h.payload_len
            )
        })
    },
    checksum: |_, payload| block_checksum(payload),
};

/// The binary format's payload decode: varint records, whose delta
/// state resets at every v2 block. Version-1 streams have no blocks
/// and decode as one continuous record run.
#[derive(Debug, Default)]
pub struct BinaryBlocks {
    /// End of the open v2 block's payload in the stream buffer; no
    /// block is open when the cursor is at or past it.
    block_end: usize,
    /// Record count the open block's header claims.
    block_records: u64,
    /// Records decoded when the open block opened.
    block_ops_base: u64,
    prev_pc: u64,
    prev_addr: u64,
}

impl BinaryBlocks {
    /// Ensures decodable data is buffered at the cursor and returns the
    /// *guard*: the exclusive bound on record **start** positions for
    /// the decode loops. `None` means clean end of stream.
    ///
    /// v1: records starting before the guard are guaranteed fully
    /// buffered (except at EOF, where running out is genuine
    /// truncation). v2: the guard is the end of the open block.
    fn prepare<R: Read>(
        &mut self,
        s: &mut FramedStream<R>,
    ) -> Result<Option<usize>, BinaryTraceError> {
        if s.version < 2 {
            if s.len - s.pos < MAX_RECORD_LEN && !s.hit_eof {
                s.refill(0)?;
            }
            if s.pos == s.len {
                return Ok(None);
            }
            return Ok(Some(if s.hit_eof {
                s.len
            } else {
                s.len - MAX_RECORD_LEN + 1
            }));
        }
        if s.pos < self.block_end {
            return Ok(Some(self.block_end));
        }
        // No block is open, and the walk may move the buffer.
        self.block_end = 0;
        let Frame::Block(h) = s.next_frame(&FRAMING)? else {
            return Ok(None);
        };
        // Open the block and reset the delta state, the writer's
        // per-block reset mirrored.
        s.pos += BLOCK_HEADER_LEN;
        s.blocks += 1;
        self.block_end = s.pos + h.payload_len;
        self.block_records = u64::from(h.records);
        self.block_ops_base = s.ops;
        self.prev_pc = 0;
        self.prev_addr = 0;
        Ok(Some(self.block_end))
    }

    /// The exclusive bound the record decoder may read up to (wider
    /// than the guard on v1, where only record *starts* are bounded).
    fn decode_limit<R>(&self, s: &FramedStream<R>) -> usize {
        if s.version >= 2 {
            self.block_end
        } else {
            s.len
        }
    }

    /// Handles a record-decode failure at buffer position `at`: strict
    /// mode returns the positioned error. Lenient mode drops the rest
    /// of the v2 block (damage that survived the checksum) or, with no
    /// block boundary to resynchronize on, the rest of a v1 stream,
    /// and returns `Ok` so the caller prepares again.
    fn record_failure<R: Read>(
        &mut self,
        s: &mut FramedStream<R>,
        e: DecodeError,
        at: usize,
    ) -> Result<(), BinaryTraceError> {
        s.pos = at;
        if s.strict() {
            return Err(match e {
                DecodeError::Truncated if s.version >= 2 => {
                    s.corrupt_at(at, "record crosses its block boundary")
                }
                DecodeError::Truncated => s.truncated(),
                DecodeError::Corrupt(reason) => s.corrupt_at(at, reason),
            });
        }
        s.skip.blocks += 1;
        if s.version >= 2 {
            let decoded_here = s.ops - self.block_ops_base;
            s.skip.records += self.block_records.saturating_sub(decoded_here);
            s.skip.bytes += (self.block_end - s.pos) as u64;
            s.pos = self.block_end;
            return Ok(());
        }
        loop {
            s.skip.bytes += (s.len - s.pos) as u64;
            s.pos = s.len;
            if s.hit_eof {
                return Ok(());
            }
            s.refill(0)?;
        }
    }

    /// The one batched decode loop: clears `out` and fills it with up
    /// to `max` items, `decode` turning each record into an item (or
    /// none) and the new pc/address state. Preparation and framing run
    /// once per block; the inner loop runs over a plain byte slice.
    #[inline(always)]
    fn read_into<R: Read, T>(
        &mut self,
        s: &mut FramedStream<R>,
        out: &mut Vec<T>,
        max: usize,
        decode: impl Fn(&mut Cursor<'_>, u64, u64) -> Result<(Option<T>, u64, u64), DecodeError>,
    ) -> Result<usize, BinaryTraceError> {
        out.clear();
        out.reserve(max.min(1 << 20));
        while out.len() < max {
            let Some(guard) = self.prepare(s)? else { break };
            let mut cur = Cursor {
                buf: &s.buf[..self.decode_limit(s)],
                pos: s.pos,
            };
            let (mut prev_pc, mut prev_addr) = (self.prev_pc, self.prev_addr);
            let mut ops = s.ops;
            let mut failure = None;
            while out.len() < max && cur.pos < guard {
                let at = cur.pos;
                match decode(&mut cur, prev_pc, prev_addr) {
                    Ok((item, pc, addr)) => {
                        prev_pc = pc;
                        prev_addr = addr;
                        ops += 1;
                        if let Some(item) = item {
                            out.push(item);
                        }
                    }
                    Err(e) => {
                        failure = Some((e, at));
                        break;
                    }
                }
            }
            let end = cur.pos;
            self.prev_pc = prev_pc;
            self.prev_addr = prev_addr;
            s.ops = ops;
            match failure {
                Some((e, at)) => self.record_failure(s, e, at)?,
                None => s.pos = end,
            }
        }
        Ok(out.len())
    }
}

impl BlockDecoder for BinaryBlocks {
    const VERSIONS: RangeInclusive<u8> = 1..=BINARY_VERSION;

    fn next_op<R: Read>(r: &mut BinaryTraceReader<R>) -> Result<Option<TraceOp>, BinaryTraceError> {
        let (s, d) = (&mut r.stream, &mut r.decoder);
        loop {
            if d.prepare(s)?.is_none() {
                return Ok(None);
            }
            let at = s.pos;
            let mut cur = Cursor {
                buf: &s.buf[..d.decode_limit(s)],
                pos: at,
            };
            match decode_record(&mut cur, d.prev_pc, d.prev_addr) {
                Ok((op, prev_addr)) => {
                    s.pos = cur.pos;
                    d.prev_pc = op.pc;
                    d.prev_addr = prev_addr;
                    s.ops += 1;
                    return Ok(Some(op));
                }
                Err(e) => d.record_failure(s, e, at)?,
            }
        }
    }

    fn read_chunk<R: Read>(
        r: &mut BinaryTraceReader<R>,
        out: &mut Vec<TraceOp>,
        max: usize,
    ) -> Result<usize, BinaryTraceError> {
        r.decoder
            .read_into(&mut r.stream, out, max, |cur, pc, addr| {
                decode_record(cur, pc, addr).map(|(op, addr)| (Some(op), op.pc, addr))
            })
    }

    fn read_ref_chunk<R: Read>(
        r: &mut BinaryTraceReader<R>,
        out: &mut Vec<MemRef>,
        max: usize,
    ) -> Result<usize, BinaryTraceError> {
        r.decoder.read_into(&mut r.stream, out, max, decode_ref)
    }
}

/// Decodes one record, keeping only its memory-reference projection.
/// Returns the (optional) reference plus the new pc/addr state.
#[inline(always)]
fn decode_ref(
    cur: &mut Cursor<'_>,
    prev_pc: u64,
    prev_addr: u64,
) -> Result<(Option<MemRef>, u64, u64), DecodeError> {
    let tag = cur.byte()?;
    let pc = prev_pc.wrapping_add(zigzag_decode(cur.varint()?) as u64);
    match tag {
        TAG_LOAD | TAG_STORE => {
            let addr = prev_addr.wrapping_add(zigzag_decode(cur.varint()?) as u64);
            let a = cur.reg()?;
            cur.reg()?;
            if a.is_none() {
                return Err(DecodeError::Corrupt(
                    if tag == TAG_LOAD {
                        "load without destination"
                    } else {
                        "store without data register"
                    }
                    .into(),
                ));
            }
            let r = MemRef {
                pc,
                addr,
                is_write: tag == TAG_STORE,
            };
            Ok((Some(r), pc, addr))
        }
        TAG_BRANCH_NOT_TAKEN | TAG_BRANCH_TAKEN => {
            cur.varint()?;
            cur.reg()?;
            Ok((None, pc, prev_addr))
        }
        t if (t as usize) < COMPUTE_CLASSES.len() => {
            cur.reg()?
                .ok_or_else(|| DecodeError::Corrupt("compute op without destination".into()))?;
            cur.reg()?;
            cur.reg()?;
            Ok((None, pc, prev_addr))
        }
        t => Err(DecodeError::Corrupt(format!("unknown tag byte {t:#x}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecBenchmark;

    fn sample_ops() -> Vec<TraceOp> {
        vec![
            TraceOp::load(0x400, 0x1000, 5, Some(3)),
            TraceOp::load(0x404, 0x2000, 6, None),
            TraceOp::store(0x408, 0x3000, 7, Some(2)),
            TraceOp::branch(0x40c, true, 0x400, Some(1)),
            TraceOp::branch(0x410, false, 0, None),
            TraceOp::compute(0x414, OpClass::IntAlu, 1, [Some(2), Some(3)]),
            TraceOp::compute(0x418, OpClass::FpSqrt, 40, [Some(41), None]),
            TraceOp::compute(0x41c, OpClass::IntDiv, 9, [None, None]),
        ]
    }

    /// A big-enough op stream to span several v2 blocks.
    fn multi_block_ops(n: usize) -> Vec<TraceOp> {
        SpecBenchmark::Swim.generator(4).take(n).collect()
    }

    #[test]
    fn round_trip_every_op_kind() {
        let ops = sample_ops();
        let bytes = write_trace_binary(Vec::new(), ops.iter().copied()).unwrap();
        let back: Vec<TraceOp> = BinaryTraceReader::new(&bytes[..])
            .unwrap()
            .map(Result::unwrap)
            .collect();
        assert_eq!(back, ops);
    }

    #[test]
    fn round_trip_synthetic_benchmark_prefix() {
        let ops: Vec<TraceOp> = SpecBenchmark::Tomcatv.generator(9).take(5000).collect();
        let bytes = write_trace_binary(Vec::new(), ops.iter().copied()).unwrap();
        let back: Vec<TraceOp> = BinaryTraceReader::new(&bytes[..])
            .unwrap()
            .map(Result::unwrap)
            .collect();
        assert_eq!(back, ops);
    }

    #[test]
    fn v1_streams_still_read() {
        let ops = multi_block_ops(20_000);
        let mut w = BinaryTraceWriter::new_v1(Vec::new()).unwrap();
        w.write_all(ops.iter().copied()).unwrap();
        let bytes = w.finish().unwrap();
        assert_eq!(bytes[4], 1);
        let mut reader = BinaryTraceReader::new(&bytes[..]).unwrap();
        assert_eq!(reader.version(), 1);
        let back: Vec<TraceOp> = (&mut reader).map(Result::unwrap).collect();
        assert_eq!(back, ops);
        assert_eq!(reader.blocks_decoded(), 0);
    }

    #[test]
    fn v2_streams_are_blocked() {
        let ops = multi_block_ops(60_000);
        let bytes = write_trace_binary(Vec::new(), ops.iter().copied()).unwrap();
        assert_eq!(bytes[4], 2);
        assert_eq!(bytes[HEADER_LEN..HEADER_LEN + 4], BLOCK_MAGIC);
        let mut reader = BinaryTraceReader::new(&bytes[..]).unwrap();
        let back: Vec<TraceOp> = (&mut reader).map(Result::unwrap).collect();
        assert_eq!(back, ops);
        assert!(reader.blocks_decoded() > 1, "{}", reader.blocks_decoded());
        assert!(!reader.skipped().any());
    }

    #[test]
    fn delta_encoding_is_compact() {
        // A sequential pc stream with local addresses: ~4 bytes per
        // memory op, ~4 per compute op.
        let ops: Vec<TraceOp> = (0..1000u64)
            .map(|i| TraceOp::load(0x1_0000 + i * 4, 0x8_0000 + i * 8, 5, Some(3)))
            .collect();
        let bytes = write_trace_binary(Vec::new(), ops.iter().copied()).unwrap();
        // First record pays full-width deltas; every later one is
        // tag + 1-byte pc delta + 1-byte addr delta + 2 register bytes.
        // One block header covers the whole 5KB stream.
        assert!(
            bytes.len() <= HEADER_LEN + BLOCK_HEADER_LEN + MAX_RECORD_LEN + (ops.len() - 1) * 5,
            "{} bytes for {} ops",
            bytes.len(),
            ops.len()
        );
    }

    #[test]
    fn extreme_values_survive() {
        let ops = vec![
            TraceOp::load(u64::MAX, 0, 63, Some(0)),
            TraceOp::load(0, u64::MAX, 0, None),
            TraceOp::branch(u64::MAX / 2, true, u64::MAX, None),
        ];
        let bytes = write_trace_binary(Vec::new(), ops.iter().copied()).unwrap();
        let back: Vec<TraceOp> = BinaryTraceReader::new(&bytes[..])
            .unwrap()
            .map(Result::unwrap)
            .collect();
        assert_eq!(back, ops);
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        assert!(matches!(
            BinaryTraceReader::new(&b"NOPE4567"[..]),
            Err(BinaryTraceError::BadMagic)
        ));
        assert!(matches!(
            BinaryTraceReader::new(&b""[..]),
            Err(BinaryTraceError::BadMagic)
        ));
        let mut bytes = write_trace_binary(Vec::new(), sample_ops()).unwrap();
        bytes[4] = 9;
        assert!(matches!(
            BinaryTraceReader::new(&bytes[..]),
            Err(BinaryTraceError::UnsupportedVersion(9))
        ));
    }

    #[test]
    fn truncation_is_detected_at_every_cut() {
        let ops = sample_ops();
        let bytes = write_trace_binary(Vec::new(), ops.iter().copied()).unwrap();
        for cut in 0..bytes.len() {
            let r = BinaryTraceReader::new(&bytes[..cut]);
            match r {
                Err(BinaryTraceError::BadMagic) => assert!(cut < 4),
                Err(BinaryTraceError::Truncated { .. }) => assert!(cut < HEADER_LEN),
                Ok(reader) => {
                    assert!(cut >= HEADER_LEN);
                    let results: Vec<_> = reader.collect();
                    let decoded_ok = results.iter().filter(|r| r.is_ok()).count();
                    assert!(decoded_ok <= ops.len());
                    // A cut either lands on a block boundary (clean
                    // short stream) or yields exactly one final error.
                    if let Some(Err(e)) = results.last() {
                        assert!(matches!(e, BinaryTraceError::Truncated { .. }), "{e}");
                    }
                }
                Err(e) => panic!("unexpected header error at cut {cut}: {e}"),
            }
        }
    }

    #[test]
    fn v1_truncation_is_detected_at_every_cut() {
        let ops = sample_ops();
        let mut w = BinaryTraceWriter::new_v1(Vec::new()).unwrap();
        w.write_all(ops.iter().copied()).unwrap();
        let bytes = w.finish().unwrap();
        for cut in HEADER_LEN..bytes.len() {
            let results: Vec<_> = BinaryTraceReader::new(&bytes[..cut]).unwrap().collect();
            let decoded: Vec<TraceOp> = results
                .iter()
                .filter_map(|r| r.as_ref().ok())
                .copied()
                .collect();
            assert_eq!(&decoded[..], &ops[..decoded.len()], "cut {cut}");
            if let Some(Err(e)) = results.last() {
                assert!(matches!(e, BinaryTraceError::Truncated { .. }), "{e}");
            }
        }
    }

    #[test]
    fn corrupt_records_are_rejected() {
        // Destroying the first block marker is structural corruption.
        let mut bytes = write_trace_binary(Vec::new(), sample_ops()).unwrap();
        bytes[HEADER_LEN] = 0x3F;
        let err = BinaryTraceReader::new(&bytes[..])
            .unwrap()
            .find_map(Result::err)
            .expect("error");
        assert!(
            matches!(err, BinaryTraceError::Corrupt { op: 0, .. }),
            "{err}"
        );

        // Payload damage is caught by the block checksum.
        let ops = vec![TraceOp::load(1, 1, 5, None)];
        let mut bytes = write_trace_binary(Vec::new(), ops).unwrap();
        let dst_off = bytes.len() - 2;
        bytes[dst_off] = 0x64;
        let err = BinaryTraceReader::new(&bytes[..])
            .unwrap()
            .find_map(Result::err)
            .expect("error");
        assert!(matches!(err, BinaryTraceError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn v1_corrupt_records_are_rejected() {
        // With no checksum, v1 damage is caught at the record decoder:
        // an out-of-range register byte.
        let ops = vec![TraceOp::load(1, 1, 5, None)];
        let mut w = BinaryTraceWriter::new_v1(Vec::new()).unwrap();
        w.write_all(ops).unwrap();
        let mut bytes = w.finish().unwrap();
        let dst_off = bytes.len() - 2;
        bytes[dst_off] = 0x64;
        let err = BinaryTraceReader::new(&bytes[..])
            .unwrap()
            .find_map(Result::err)
            .expect("error");
        assert!(
            matches!(err, BinaryTraceError::Corrupt { op: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn errors_carry_stream_offsets() {
        let ops = multi_block_ops(60_000);
        let mut bytes = write_trace_binary(Vec::new(), ops).unwrap();
        // Flip a byte in the *second* block's payload; the error should
        // point at the second block's checksum field, past the first
        // block entirely.
        let first_payload =
            u32::from_le_bytes(bytes[HEADER_LEN + 4..HEADER_LEN + 8].try_into().unwrap()) as usize;
        let second_block = HEADER_LEN + BLOCK_HEADER_LEN + first_payload;
        assert_eq!(&bytes[second_block..second_block + 4], &BLOCK_MAGIC);
        bytes[second_block + BLOCK_HEADER_LEN + 10] ^= 0xFF;
        let err = BinaryTraceReader::new(&bytes[..])
            .unwrap()
            .find_map(Result::err)
            .expect("error");
        match err {
            BinaryTraceError::Corrupt { op, offset, .. } => {
                assert!(op > 0, "whole first block decoded first");
                assert_eq!(offset, (second_block + 12) as u64);
            }
            e => panic!("expected Corrupt, got {e}"),
        }
    }

    #[test]
    fn lenient_skips_damaged_blocks_and_resumes() {
        let ops = multi_block_ops(60_000);
        let mut bytes = write_trace_binary(Vec::new(), ops.iter().copied()).unwrap();
        // Count blocks and record the second block's claimed records.
        let first_payload =
            u32::from_le_bytes(bytes[HEADER_LEN + 4..HEADER_LEN + 8].try_into().unwrap()) as usize;
        let second_block = HEADER_LEN + BLOCK_HEADER_LEN + first_payload;
        let second_records = u32::from_le_bytes(
            bytes[second_block + 8..second_block + 12]
                .try_into()
                .unwrap(),
        ) as u64;
        bytes[second_block + BLOCK_HEADER_LEN + 3] ^= 0x10;

        let mut reader = BinaryTraceReader::new_lenient(&bytes[..]).unwrap();
        let back: Vec<TraceOp> = (&mut reader).map(Result::unwrap).collect();
        let skip = reader.skipped();
        assert_eq!(skip.blocks, 1);
        assert_eq!(skip.records, second_records);
        assert_eq!(back.len() as u64 + skip.records, ops.len() as u64);
        // Everything outside the damaged block decodes exactly.
        let first_count =
            u32::from_le_bytes(bytes[HEADER_LEN + 8..HEADER_LEN + 12].try_into().unwrap()) as usize;
        assert_eq!(&back[..first_count], &ops[..first_count]);
        assert_eq!(
            &back[first_count..],
            &ops[first_count + second_records as usize..]
        );
    }

    #[test]
    fn lenient_resyncs_over_shredded_headers() {
        let ops = multi_block_ops(60_000);
        let mut bytes = write_trace_binary(Vec::new(), ops.iter().copied()).unwrap();
        // Shred the second block's *header* (marker included): the
        // reader must scan to the third block and continue.
        let first_payload =
            u32::from_le_bytes(bytes[HEADER_LEN + 4..HEADER_LEN + 8].try_into().unwrap()) as usize;
        let second_block = HEADER_LEN + BLOCK_HEADER_LEN + first_payload;
        for b in &mut bytes[second_block..second_block + BLOCK_HEADER_LEN] {
            *b = 0xAA;
        }
        let mut reader = BinaryTraceReader::new_lenient(&bytes[..]).unwrap();
        let back: Vec<TraceOp> = (&mut reader).map(Result::unwrap).collect();
        assert!(reader.skipped().blocks >= 1);
        assert!(reader.skipped().bytes > 0);
        let first_count =
            u32::from_le_bytes(bytes[HEADER_LEN + 8..HEADER_LEN + 12].try_into().unwrap()) as usize;
        // The first block decodes cleanly, the tail blocks decode
        // cleanly, only the shredded block's records are missing.
        assert_eq!(&back[..first_count], &ops[..first_count]);
        assert!(back.len() < ops.len());
        assert_eq!(&ops[ops.len() - 100..], &back[back.len() - 100..]);
    }

    #[test]
    fn lenient_counts_truncated_tail() {
        let ops = multi_block_ops(60_000);
        let bytes = write_trace_binary(Vec::new(), ops.iter().copied()).unwrap();
        let cut = bytes.len() - 1000;
        let mut reader = BinaryTraceReader::new_lenient(&bytes[..cut]).unwrap();
        let back: Vec<TraceOp> = (&mut reader).map(Result::unwrap).collect();
        assert!(!back.is_empty() && back.len() < ops.len());
        assert_eq!(&back[..], &ops[..back.len()]);
        let skip = reader.skipped();
        assert_eq!(skip.blocks, 1);
        assert!(skip.bytes > 0);
    }

    #[test]
    fn lenient_v1_abandons_tail_on_damage() {
        let ops = sample_ops();
        let mut w = BinaryTraceWriter::new_v1(Vec::new()).unwrap();
        w.write_all(ops.iter().copied()).unwrap();
        let mut bytes = w.finish().unwrap();
        bytes[HEADER_LEN] = 0x3F; // unknown tag on record 0
        let mut reader = BinaryTraceReader::new_lenient(&bytes[..]).unwrap();
        let back: Vec<TraceOp> = (&mut reader).map(Result::unwrap).collect();
        assert!(back.is_empty());
        let skip = reader.skipped();
        assert_eq!(skip.bytes, (bytes.len() - HEADER_LEN) as u64);
    }

    #[test]
    fn lenient_matches_strict_on_clean_streams() {
        let ops = multi_block_ops(40_000);
        let bytes = write_trace_binary(Vec::new(), ops.iter().copied()).unwrap();
        let mut strict = BinaryTraceReader::new(&bytes[..]).unwrap();
        let mut lenient = BinaryTraceReader::new_lenient(&bytes[..]).unwrap();
        let drain = |r: &mut BinaryTraceReader<&[u8]>| {
            let (mut buf, mut all) = (Vec::new(), Vec::new());
            while r.read_ref_chunk(&mut buf, 4096).unwrap() > 0 {
                all.extend_from_slice(&buf);
            }
            all
        };
        assert_eq!(drain(&mut strict), drain(&mut lenient));
        assert!(!lenient.skipped().any());
        assert_eq!(strict.ops_decoded(), lenient.ops_decoded());
    }

    #[test]
    fn chunked_reads_match_iteration() {
        let ops: Vec<TraceOp> = SpecBenchmark::Swim.generator(4).take(3000).collect();
        let bytes = write_trace_binary(Vec::new(), ops.iter().copied()).unwrap();
        let mut reader = BinaryTraceReader::new(&bytes[..]).unwrap();
        let mut buf = Vec::new();
        let mut all = Vec::new();
        while reader.read_chunk(&mut buf, 257).unwrap() > 0 {
            all.extend_from_slice(&buf);
        }
        assert_eq!(all, ops);
        assert_eq!(reader.ops_decoded(), ops.len() as u64);
    }

    #[test]
    fn ref_chunks_match_op_projection() {
        let ops: Vec<TraceOp> = SpecBenchmark::Tomcatv.generator(6).take(4000).collect();
        let bytes = write_trace_binary(Vec::new(), ops.iter().copied()).unwrap();
        let projected: Vec<MemRef> = ops.iter().filter_map(TraceOp::mem_ref).collect();
        for chunk in [1usize, 61, 8192] {
            let mut reader = BinaryTraceReader::new(&bytes[..]).unwrap();
            let mut buf = Vec::new();
            let mut all = Vec::new();
            while reader.read_ref_chunk(&mut buf, chunk).unwrap() > 0 {
                all.extend_from_slice(&buf);
            }
            assert_eq!(all, projected, "chunk {chunk}");
            assert_eq!(reader.ops_decoded(), ops.len() as u64);
        }
    }

    #[test]
    fn ref_chunks_skip_non_memory_tails() {
        // A stream ending in non-memory ops must still report 0 (not a
        // short non-empty chunk followed by a stuck loop).
        let ops = [
            TraceOp::load(0x400, 0x1000, 5, None),
            TraceOp::branch(0x404, true, 0x400, None),
            TraceOp::compute(0x408, OpClass::IntAlu, 1, [None, None]),
        ];
        let bytes = write_trace_binary(Vec::new(), ops.iter().copied()).unwrap();
        let mut reader = BinaryTraceReader::new(&bytes[..]).unwrap();
        let mut buf = Vec::new();
        assert_eq!(reader.read_ref_chunk(&mut buf, 8).unwrap(), 1);
        assert_eq!(reader.read_ref_chunk(&mut buf, 8).unwrap(), 0);
    }

    #[test]
    fn small_refill_buffers_still_decode() {
        // Force many refills by feeding one byte at a time.
        struct OneByte<'a>(&'a [u8]);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.0.is_empty() || buf.is_empty() {
                    return Ok(0);
                }
                buf[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        let ops: Vec<TraceOp> = SpecBenchmark::Swim.generator(4).take(50).collect();
        let bytes = write_trace_binary(Vec::new(), ops.iter().copied()).unwrap();
        let back: Vec<TraceOp> = BinaryTraceReader::new(OneByte(&bytes))
            .unwrap()
            .map(Result::unwrap)
            .collect();
        assert_eq!(back, ops);
    }

    #[test]
    fn checksum_distinguishes_lengths_and_content() {
        assert_ne!(block_checksum(b""), block_checksum(b"\0"));
        assert_ne!(block_checksum(b"\0\0"), block_checksum(b"\0"));
        assert_ne!(block_checksum(b"abcdefgh"), block_checksum(b"abcdefgi"));
        assert_eq!(block_checksum(b"abcdefgh"), block_checksum(b"abcdefgh"));
    }
}
