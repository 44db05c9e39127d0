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
//! [`DecodeMode::Lenient`] drops a block whose checksum (or structure)
//! does not verify, resynchronizes at the next `CBLK` marker, and keeps
//! going, tallying what it skipped in a [`SkipReport`] instead of
//! failing the stream. Strict mode (the default) reports the first
//! damage as an error positioned by absolute byte offset. Truncation is
//! detected in both versions and both modes: the stream ends either at
//! a block/record boundary (clean EOF) or inside one
//! ([`BinaryTraceError::Truncated`], or a skip tally in lenient mode).
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

use super::ChunkSource;
use crate::record::{MemRef, OpClass, TraceOp};
use std::fmt;
use std::io::{self, BufWriter, Read, Write};

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

/// Register-operand byte meaning "absent".
const REG_NONE: u8 = 0xFF;

// Tag-byte kinds. 0..=6 are the compute classes in `OpClass` order;
// memory and branch kinds follow. The high tag bits are reserved and
// must be zero.
const TAG_LOAD: u8 = 7;
const TAG_STORE: u8 = 8;
const TAG_BRANCH_NOT_TAKEN: u8 = 9;
const TAG_BRANCH_TAKEN: u8 = 10;

const COMPUTE_CLASSES: [OpClass; 7] = [
    OpClass::IntAlu,
    OpClass::IntMul,
    OpClass::IntDiv,
    OpClass::FpAdd,
    OpClass::FpMul,
    OpClass::FpDiv,
    OpClass::FpSqrt,
];

fn compute_tag(class: OpClass) -> u8 {
    COMPUTE_CLASSES
        .iter()
        .position(|&c| c == class)
        .expect("compute class") as u8
}

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

/// Error produced while reading a binary trace.
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
            BinaryTraceError::Io(e) => write!(f, "binary trace read failed: {e}"),
            BinaryTraceError::BadMagic => {
                write!(f, "not a binary trace (bad magic; expected `CACT`)")
            }
            BinaryTraceError::UnsupportedVersion(v) => {
                write!(f, "unsupported binary trace version {v} (supported: 1-2)")
            }
            BinaryTraceError::Truncated {
                ops_decoded,
                offset,
            } => {
                write!(
                    f,
                    "binary trace truncated at byte {offset} after {ops_decoded} complete records"
                )
            }
            BinaryTraceError::Corrupt { op, offset, reason } => {
                write!(
                    f,
                    "corrupt binary trace at byte {offset} (record {op}): {reason}"
                )
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

/// Error-handling policy of a [`BinaryTraceReader`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DecodeMode {
    /// Report the first structural damage as an error (the default).
    #[default]
    Strict,
    /// Skip damaged data and resynchronize at the next block boundary,
    /// tallying what was dropped in a [`SkipReport`]. Only header and
    /// I/O errors still fail the stream. On version-1 streams (no block
    /// framing to resynchronize on) the remaining tail is abandoned at
    /// the first damaged record.
    Lenient,
}

/// What a lenient reader skipped over. All zeros on a clean stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SkipReport {
    /// Damaged regions skipped: blocks that failed verification, plus
    /// one per resynchronization scan over unrecognizable bytes.
    pub blocks: u64,
    /// Records lost, as claimed by the skipped blocks' headers (exact
    /// when the damage is confined to block payloads; damage to a block
    /// header loses that block's count).
    pub records: u64,
    /// Bytes skipped without being decoded.
    pub bytes: u64,
}

impl SkipReport {
    /// True if anything at all was skipped.
    pub fn any(&self) -> bool {
        *self != SkipReport::default()
    }
}

#[inline]
fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
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

fn reg_byte(r: Option<u8>) -> u8 {
    r.unwrap_or(REG_NONE)
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

/// Streaming reader for the binary format (versions 1 and 2).
///
/// Maintains its own refill buffer (no `BufReader` needed underneath)
/// and decodes records either one at a time (the [`Iterator`] impl) or
/// in caller-buffered batches
/// ([`read_chunk`](BinaryTraceReader::read_chunk), the fast path used by
/// `cac_sim::replay`).
///
/// Opened in [`DecodeMode::Strict`] by
/// [`new`](BinaryTraceReader::new) or [`DecodeMode::Lenient`] by
/// [`new_lenient`](BinaryTraceReader::new_lenient); see [`DecodeMode`]
/// for the difference and [`skipped`](BinaryTraceReader::skipped) for
/// the lenient-mode damage tally.
#[derive(Debug)]
pub struct BinaryTraceReader<R: Read> {
    inner: R,
    buf: Vec<u8>,
    pos: usize,
    len: usize,
    hit_eof: bool,
    failed: bool,
    mode: DecodeMode,
    version: u8,
    /// Absolute stream offset of `buf[0]`.
    stream_base: u64,
    /// End of the current verified block payload in `buf` (v2 only;
    /// `== pos` when no block is open).
    block_end: usize,
    /// Record count the current block's header claims (v2 only).
    block_records: u64,
    /// `ops` when the current block opened (v2 only).
    block_ops_base: u64,
    blocks: u64,
    skip: SkipReport,
    prev_pc: u64,
    prev_addr: u64,
    ops: u64,
}

impl<R: Read> BinaryTraceReader<R> {
    /// Opens a binary trace in strict mode, validating the header.
    ///
    /// # Errors
    ///
    /// [`BinaryTraceError::BadMagic`] /
    /// [`BinaryTraceError::UnsupportedVersion`] on a foreign or
    /// newer-versioned stream, [`BinaryTraceError::Truncated`] if the
    /// stream ends inside the header, or an I/O error.
    pub fn new(inner: R) -> Result<Self, BinaryTraceError> {
        BinaryTraceReader::with_mode(inner, DecodeMode::Strict)
    }

    /// Opens a binary trace in lenient mode: damaged blocks are skipped
    /// and tallied instead of failing the stream.
    ///
    /// # Errors
    ///
    /// As for [`new`](BinaryTraceReader::new) — the file header must
    /// still be intact.
    pub fn new_lenient(inner: R) -> Result<Self, BinaryTraceError> {
        BinaryTraceReader::with_mode(inner, DecodeMode::Lenient)
    }

    /// Opens a binary trace with an explicit [`DecodeMode`].
    ///
    /// # Errors
    ///
    /// As for [`new`](BinaryTraceReader::new).
    pub fn with_mode(inner: R, mode: DecodeMode) -> Result<Self, BinaryTraceError> {
        let mut r = BinaryTraceReader {
            inner,
            buf: vec![0; 1 << 16],
            pos: 0,
            len: 0,
            hit_eof: false,
            failed: false,
            mode,
            version: 0,
            stream_base: 0,
            block_end: 0,
            block_records: 0,
            block_ops_base: 0,
            blocks: 0,
            skip: SkipReport::default(),
            prev_pc: 0,
            prev_addr: 0,
            ops: 0,
        };
        r.refill(0)?;
        if r.len < HEADER_LEN {
            let have = r.len.min(BINARY_MAGIC.len());
            if r.len == 0 || r.buf[..have] != BINARY_MAGIC[..have] {
                return Err(BinaryTraceError::BadMagic);
            }
            return Err(BinaryTraceError::Truncated {
                ops_decoded: 0,
                offset: r.len as u64,
            });
        }
        if r.buf[..4] != BINARY_MAGIC {
            return Err(BinaryTraceError::BadMagic);
        }
        if !(1..=BINARY_VERSION).contains(&r.buf[4]) {
            return Err(BinaryTraceError::UnsupportedVersion(r.buf[4]));
        }
        r.version = r.buf[4];
        r.pos = HEADER_LEN;
        r.block_end = r.pos;
        Ok(r)
    }

    /// Number of records decoded so far.
    pub fn ops_decoded(&self) -> u64 {
        self.ops
    }

    /// The stream's format version (1 or 2).
    pub fn version(&self) -> u8 {
        self.version
    }

    /// The reader's error-handling mode.
    pub fn mode(&self) -> DecodeMode {
        self.mode
    }

    /// Verified blocks decoded so far (always 0 on version-1 streams).
    pub fn blocks_decoded(&self) -> u64 {
        self.blocks
    }

    /// What lenient decode has skipped so far (all zeros in strict mode
    /// and on clean streams).
    pub fn skipped(&self) -> SkipReport {
        self.skip
    }

    /// Absolute stream offset of buffer position `pos`.
    fn offset_at(&self, pos: usize) -> u64 {
        self.stream_base + pos as u64
    }

    /// Moves the unconsumed tail to the front of the buffer, grows it
    /// to at least `needed` bytes, and reads until the buffer is full
    /// or the stream ends.
    fn refill(&mut self, needed: usize) -> Result<(), BinaryTraceError> {
        self.stream_base += self.pos as u64;
        self.buf.copy_within(self.pos..self.len, 0);
        self.len -= self.pos;
        self.block_end = self.block_end.saturating_sub(self.pos);
        self.pos = 0;
        if self.buf.len() < needed {
            self.buf.resize(needed, 0);
        }
        while self.len < self.buf.len() && !self.hit_eof {
            match self.inner.read(&mut self.buf[self.len..]) {
                Ok(0) => self.hit_eof = true,
                Ok(n) => self.len += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    fn truncated(&self) -> BinaryTraceError {
        BinaryTraceError::Truncated {
            ops_decoded: self.ops,
            offset: self.offset_at(self.len),
        }
    }

    fn corrupt_at(&self, pos: usize, reason: impl Into<String>) -> BinaryTraceError {
        BinaryTraceError::Corrupt {
            op: self.ops,
            offset: self.offset_at(pos),
            reason: reason.into(),
        }
    }

    /// Ensures decodable data is buffered at `pos` and returns the
    /// *guard*: the exclusive bound on record **start** positions for
    /// the inner decode loops. `None` means clean end of stream.
    ///
    /// v1: records starting before the guard are guaranteed fully
    /// buffered (except at EOF, where running out is genuine
    /// truncation). v2: the guard is the end of the current verified
    /// block payload.
    fn prepare(&mut self) -> Result<Option<usize>, BinaryTraceError> {
        if self.version >= 2 {
            return self.prepare_block();
        }
        if self.len - self.pos < MAX_RECORD_LEN && !self.hit_eof {
            self.refill(0)?;
        }
        if self.pos == self.len {
            return Ok(None);
        }
        Ok(Some(if self.hit_eof {
            self.len
        } else {
            self.len - MAX_RECORD_LEN + 1
        }))
    }

    /// The exclusive bound the record decoder may read up to (wider
    /// than the guard on v1, where only record *starts* are bounded).
    fn decode_limit(&self) -> usize {
        if self.version >= 2 {
            self.block_end
        } else {
            self.len
        }
    }

    /// v2 [`prepare`](Self::prepare): verifies block framing, skipping
    /// damage in lenient mode.
    fn prepare_block(&mut self) -> Result<Option<usize>, BinaryTraceError> {
        loop {
            if self.pos < self.block_end {
                return Ok(Some(self.block_end));
            }
            if self.len - self.pos < BLOCK_HEADER_LEN && !self.hit_eof {
                self.refill(0)?;
            }
            if self.pos == self.len {
                return Ok(None);
            }
            let avail = self.len - self.pos;
            if avail < BLOCK_HEADER_LEN {
                // EOF inside a block header (or trailing garbage too
                // short to be one).
                if self.mode == DecodeMode::Strict {
                    return Err(self.truncated());
                }
                self.skip.blocks += 1;
                self.skip.bytes += avail as u64;
                self.pos = self.len;
                continue;
            }
            if self.buf[self.pos..self.pos + 4] != BLOCK_MAGIC {
                if self.mode == DecodeMode::Strict {
                    return Err(self.corrupt_at(self.pos, "bad block marker"));
                }
                self.resync()?;
                continue;
            }
            let header = &self.buf[self.pos..self.pos + BLOCK_HEADER_LEN];
            let payload_len =
                u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
            let records = u64::from(u32::from_le_bytes(
                header[8..12].try_into().expect("4 bytes"),
            ));
            let stored_sum = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes"));
            if payload_len > MAX_BLOCK_LEN {
                if self.mode == DecodeMode::Strict {
                    return Err(self.corrupt_at(
                        self.pos + 4,
                        format!("block length {payload_len} exceeds the {MAX_BLOCK_LEN}-byte cap"),
                    ));
                }
                self.resync()?;
                continue;
            }
            let framed = BLOCK_HEADER_LEN + payload_len;
            if self.len - self.pos < framed {
                self.refill(framed)?;
                if self.len - self.pos < framed {
                    // EOF inside the payload.
                    if self.mode == DecodeMode::Strict {
                        return Err(self.truncated());
                    }
                    self.skip.blocks += 1;
                    self.skip.records += records;
                    self.skip.bytes += (self.len - self.pos) as u64;
                    self.pos = self.len;
                    continue;
                }
            }
            let payload = &self.buf[self.pos + BLOCK_HEADER_LEN..self.pos + framed];
            if block_checksum(payload) != stored_sum {
                if self.mode == DecodeMode::Strict {
                    return Err(self.corrupt_at(self.pos + 12, "block checksum mismatch"));
                }
                self.skip.blocks += 1;
                self.skip.records += records;
                self.skip.bytes += framed as u64;
                self.pos += framed;
                continue;
            }
            // Verified: open the block and reset the delta state, the
            // writer's per-block reset mirrored.
            self.pos += BLOCK_HEADER_LEN;
            self.block_end = self.pos + payload_len;
            self.block_records = records;
            self.block_ops_base = self.ops;
            self.blocks += 1;
            self.prev_pc = 0;
            self.prev_addr = 0;
            return Ok(Some(self.block_end));
        }
    }

    /// Lenient-mode resynchronization: the bytes at `pos` do not start
    /// a block, so skip at least one byte and scan forward for the next
    /// [`BLOCK_MAGIC`] marker, refilling as needed.
    fn resync(&mut self) -> Result<(), BinaryTraceError> {
        self.skip.blocks += 1;
        self.pos += 1;
        self.skip.bytes += 1;
        loop {
            while self.len - self.pos >= BLOCK_MAGIC.len() {
                if self.buf[self.pos..self.pos + 4] == BLOCK_MAGIC {
                    return Ok(());
                }
                self.pos += 1;
                self.skip.bytes += 1;
            }
            if self.hit_eof {
                self.skip.bytes += (self.len - self.pos) as u64;
                self.pos = self.len;
                return Ok(());
            }
            self.refill(0)?;
        }
    }

    /// Lenient handling of a damaged record inside a verified v2 block
    /// (possible only if the damage survived the checksum): drop the
    /// rest of the block.
    fn skip_rest_of_block(&mut self) {
        let decoded_here = self.ops - self.block_ops_base;
        self.skip.records += self.block_records.saturating_sub(decoded_here);
        self.skip.blocks += 1;
        self.skip.bytes += (self.block_end - self.pos) as u64;
        self.pos = self.block_end;
    }

    /// Lenient handling of a damaged record on an unframed v1 stream:
    /// with no block boundary to resynchronize on, abandon (and count)
    /// the rest of the stream.
    fn abandon_tail(&mut self) -> Result<(), BinaryTraceError> {
        self.skip.blocks += 1;
        self.skip.bytes += (self.len - self.pos) as u64;
        self.pos = self.len;
        let mut scratch = [0u8; 8192];
        while !self.hit_eof {
            match self.inner.read(&mut scratch) {
                Ok(0) => self.hit_eof = true,
                Ok(n) => self.skip.bytes += n as u64,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Handles a record-decode failure at buffer position `at`: strict
    /// mode returns the positioned error; lenient mode tallies the skip
    /// and returns `Ok` so the caller re-enters [`prepare`](Self::prepare).
    fn record_failure(&mut self, e: DecodeError, at: usize) -> Result<(), BinaryTraceError> {
        match self.mode {
            DecodeMode::Strict => Err(match e {
                DecodeError::Truncated if self.version >= 2 => {
                    self.corrupt_at(at, "record crosses its block boundary")
                }
                DecodeError::Truncated => self.truncated(),
                DecodeError::Corrupt(reason) => self.corrupt_at(at, reason),
            }),
            DecodeMode::Lenient => {
                if self.version >= 2 {
                    self.skip_rest_of_block();
                    Ok(())
                } else {
                    self.abandon_tail()
                }
            }
        }
    }

    /// Decodes the next record, or `Ok(None)` at a clean end of stream.
    ///
    /// # Errors
    ///
    /// [`BinaryTraceError::Truncated`] if the stream stops mid-record,
    /// [`BinaryTraceError::Corrupt`] on invalid blocks/tags/operands,
    /// or an I/O error. Lenient mode reports only header and I/O
    /// errors; structural damage is skipped and tallied instead.
    pub fn next_op(&mut self) -> Result<Option<TraceOp>, BinaryTraceError> {
        loop {
            if self.prepare()?.is_none() {
                return Ok(None);
            }
            let limit = self.decode_limit();
            let at = self.pos;
            let mut cur = Cursor {
                buf: &self.buf[..limit],
                pos: at,
            };
            match decode_record(&mut cur, self.prev_pc, self.prev_addr) {
                Ok((op, prev_addr)) => {
                    self.pos = cur.pos;
                    self.prev_pc = op.pc;
                    self.prev_addr = prev_addr;
                    self.ops += 1;
                    return Ok(Some(op));
                }
                Err(e) => self.record_failure(e, at)?,
            }
        }
    }

    /// Clears `out` and decodes up to `max` records into it, returning
    /// the count (`0` = end of stream). This is the batched fast path:
    /// the buffer is caller-owned and reused, refill and framing checks
    /// are hoisted out of the per-record loop, and the inner decode
    /// runs over a plain byte slice — so a replay loop does no per-op
    /// allocation, error-checking or buffer management.
    ///
    /// # Errors
    ///
    /// As for [`next_op`](BinaryTraceReader::next_op). Records decoded
    /// before the error are left in `out`.
    pub fn read_chunk(
        &mut self,
        out: &mut Vec<TraceOp>,
        max: usize,
    ) -> Result<usize, BinaryTraceError> {
        out.clear();
        out.reserve(max.min(1 << 20));
        while out.len() < max {
            let Some(guard) = self.prepare()? else { break };
            let limit = self.decode_limit();
            let mut cur = Cursor {
                buf: &self.buf[..limit],
                pos: self.pos,
            };
            let (mut prev_pc, mut prev_addr) = (self.prev_pc, self.prev_addr);
            let mut ops = self.ops;
            let mut failure = None;
            while out.len() < max && cur.pos < guard {
                let at = cur.pos;
                match decode_record(&mut cur, prev_pc, prev_addr) {
                    Ok((op, addr)) => {
                        prev_pc = op.pc;
                        prev_addr = addr;
                        ops += 1;
                        out.push(op);
                    }
                    Err(e) => {
                        failure = Some((e, at));
                        break;
                    }
                }
            }
            self.prev_pc = prev_pc;
            self.prev_addr = prev_addr;
            self.ops = ops;
            match failure {
                Some((e, at)) => {
                    self.pos = at;
                    self.record_failure(e, at)?;
                }
                None => self.pos = cur.pos,
            }
        }
        Ok(out.len())
    }
}

impl<R: Read> BinaryTraceReader<R> {
    /// Clears `out` and decodes records into it as bare [`MemRef`]s
    /// until `max` references are buffered or the stream ends, skipping
    /// non-memory records without materialising them. Returns the
    /// reference count (`0` = end of stream).
    ///
    /// This is the chunked sibling of
    /// [`for_each_ref`](BinaryTraceReader::for_each_ref), shaped for
    /// multi-model sweeps (`cac_sim::sweep`): the chunk is decoded
    /// **once** and then replayed against any number of cache models,
    /// so decode cost is amortised across the whole configuration
    /// matrix instead of being paid per configuration.
    ///
    /// # Errors
    ///
    /// As for [`next_op`](BinaryTraceReader::next_op). References
    /// decoded before the error are left in `out`.
    pub fn read_ref_chunk(
        &mut self,
        out: &mut Vec<MemRef>,
        max: usize,
    ) -> Result<usize, BinaryTraceError> {
        out.clear();
        out.reserve(max.min(1 << 20));
        while out.len() < max {
            let Some(guard) = self.prepare()? else { break };
            let limit = self.decode_limit();
            let mut cur = Cursor {
                buf: &self.buf[..limit],
                pos: self.pos,
            };
            let (mut prev_pc, mut prev_addr) = (self.prev_pc, self.prev_addr);
            let mut ops = self.ops;
            let mut failure = None;
            while out.len() < max && cur.pos < guard {
                let at = cur.pos;
                match decode_ref(&mut cur, prev_pc, prev_addr) {
                    Ok((r, pc, addr)) => {
                        prev_pc = pc;
                        prev_addr = addr;
                        ops += 1;
                        if let Some(r) = r {
                            out.push(r);
                        }
                    }
                    Err(e) => {
                        failure = Some((e, at));
                        break;
                    }
                }
            }
            self.prev_pc = prev_pc;
            self.prev_addr = prev_addr;
            self.ops = ops;
            match failure {
                Some((e, at)) => {
                    self.pos = at;
                    self.record_failure(e, at)?;
                }
                None => self.pos = cur.pos,
            }
        }
        Ok(out.len())
    }

    /// Decodes the rest of the stream, invoking `f` on every memory
    /// reference, and returns the number of records consumed.
    ///
    /// Decode and consumer run fused in one loop with no intermediate
    /// buffer — the right shape when the consumer is a genuinely
    /// per-reference closure. Batched replay consumers should prefer
    /// [`read_ref_chunk`](BinaryTraceReader::read_ref_chunk) instead:
    /// `cac_sim::replay::run_cache_source` decodes chunks through it so
    /// each chunk replays on the simulator's specialized probe kernels,
    /// which outruns the fused per-op loop.
    ///
    /// # Errors
    ///
    /// As for [`next_op`](BinaryTraceReader::next_op). References
    /// already delivered to `f` before the error stand.
    pub fn for_each_ref<F: FnMut(MemRef)>(&mut self, mut f: F) -> Result<u64, BinaryTraceError> {
        let mut consumed = 0u64;
        loop {
            let Some(guard) = self.prepare()? else {
                return Ok(consumed);
            };
            let limit = self.decode_limit();
            let mut cur = Cursor {
                buf: &self.buf[..limit],
                pos: self.pos,
            };
            let (mut prev_pc, mut prev_addr) = (self.prev_pc, self.prev_addr);
            let mut ops = self.ops;
            let mut failure = None;
            while cur.pos < guard {
                let at = cur.pos;
                match decode_ref(&mut cur, prev_pc, prev_addr) {
                    Ok((r, pc, addr)) => {
                        prev_pc = pc;
                        prev_addr = addr;
                        ops += 1;
                        consumed += 1;
                        if let Some(r) = r {
                            f(r);
                        }
                    }
                    Err(e) => {
                        failure = Some((e, at));
                        break;
                    }
                }
            }
            self.prev_pc = prev_pc;
            self.prev_addr = prev_addr;
            self.ops = ops;
            match failure {
                Some((e, at)) => {
                    self.pos = at;
                    self.record_failure(e, at)?;
                }
                None => self.pos = cur.pos,
            }
        }
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

impl<R: Read> Iterator for BinaryTraceReader<R> {
    type Item = Result<TraceOp, BinaryTraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        match self.next_op() {
            Ok(Some(op)) => Some(Ok(op)),
            Ok(None) => None,
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

impl<R: Read> ChunkSource for BinaryTraceReader<R> {
    type Error = BinaryTraceError;

    fn read_chunk(
        &mut self,
        out: &mut Vec<TraceOp>,
        max: usize,
    ) -> Result<usize, BinaryTraceError> {
        BinaryTraceReader::read_chunk(self, out, max)
    }
}

impl<R: Read> super::RefSource for BinaryTraceReader<R> {
    type Error = BinaryTraceError;

    fn read_ref_chunk(
        &mut self,
        out: &mut Vec<MemRef>,
        max: usize,
    ) -> Result<usize, BinaryTraceError> {
        BinaryTraceReader::read_ref_chunk(self, out, max)
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
        let mut refs_strict = Vec::new();
        let mut refs_lenient = Vec::new();
        strict.for_each_ref(|r| refs_strict.push(r)).unwrap();
        lenient.for_each_ref(|r| refs_lenient.push(r)).unwrap();
        assert_eq!(refs_strict, refs_lenient);
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
    fn ref_chunks_match_for_each_ref() {
        let ops: Vec<TraceOp> = SpecBenchmark::Tomcatv.generator(6).take(4000).collect();
        let bytes = write_trace_binary(Vec::new(), ops.iter().copied()).unwrap();
        let mut fused = Vec::new();
        BinaryTraceReader::new(&bytes[..])
            .unwrap()
            .for_each_ref(|r| fused.push(r))
            .unwrap();
        for chunk in [1usize, 61, 8192] {
            let mut reader = BinaryTraceReader::new(&bytes[..]).unwrap();
            let mut buf = Vec::new();
            let mut all = Vec::new();
            while reader.read_ref_chunk(&mut buf, chunk).unwrap() > 0 {
                all.extend_from_slice(&buf);
            }
            assert_eq!(all, fused, "chunk {chunk}");
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
