//! The framed-block layer under the binary v2 and columnar v3 readers.
//!
//! Both formats open with the same 8-byte `CACT` header and then frame
//! their records into checksummed blocks: a 4-byte marker, the payload
//! length, record counts and a checksum, then the payload. The formats
//! differ in their header layout, their checksum and what a payload
//! holds. [`FramedReader`] owns everything else, once: the refill
//! buffer and absolute offsets, the header check, the block walk with
//! its strict-or-lenient damage policy ([`DecodeMode`]), lenient
//! resynchronization and the [`SkipReport`] tally, the accessors, and
//! the [`Iterator`], [`ChunkSource`] and [`RefSource`] impls. A format
//! supplies its header layout and checksum (a `Framing`) and its
//! payload decode (a [`BlockDecoder`]), whose per-record loops stay
//! monomorphized in the format's own module. The walk runs once per
//! block, never once per record.

use super::binary::BinaryTraceError;
use super::{ChunkSource, RefSource, BINARY_MAGIC, HEADER_LEN};
use crate::record::{MemRef, OpClass, TraceOp};
use std::io::{self, Read};
use std::ops::RangeInclusive;

/// Error-handling policy of a framed reader
/// ([`BinaryTraceReader`](super::BinaryTraceReader) or
/// [`ColumnarTraceReader`](super::ColumnarTraceReader)).
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

/// Register-operand byte meaning "absent".
pub(super) const REG_NONE: u8 = 0xFF;

// Record kinds, shared by the v1/v2 tag byte and the v3 tag nibble.
// 0..=6 are the compute classes in `OpClass` order; memory and branch
// kinds follow. Anything above `TAG_BRANCH_TAKEN` is invalid.
pub(super) const TAG_LOAD: u8 = 7;
pub(super) const TAG_STORE: u8 = 8;
pub(super) const TAG_BRANCH_NOT_TAKEN: u8 = 9;
pub(super) const TAG_BRANCH_TAKEN: u8 = 10;

pub(super) const COMPUTE_CLASSES: [OpClass; 7] = [
    OpClass::IntAlu,
    OpClass::IntMul,
    OpClass::IntDiv,
    OpClass::FpAdd,
    OpClass::FpMul,
    OpClass::FpDiv,
    OpClass::FpSqrt,
];

pub(super) fn compute_tag(class: OpClass) -> u8 {
    COMPUTE_CLASSES
        .iter()
        .position(|&c| c == class)
        .expect("compute class") as u8
}

#[inline]
pub(super) fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
pub(super) fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

pub(super) fn reg_byte(r: Option<u8>) -> u8 {
    r.unwrap_or(REG_NONE)
}

/// One format's block framing. The checksum field is the last four
/// bytes of the block header in both formats.
pub(super) struct Framing {
    /// Marker bytes opening every block.
    pub(super) marker: [u8; 4],
    /// Block header length, marker included.
    pub(super) header_len: usize,
    /// Marker of the section that ends the block run (v3's index);
    /// resynchronization stops at it as at a block marker.
    pub(super) trailer: Option<[u8; 4]>,
    /// Decodes a header's fields (the marker is checked by the caller).
    pub(super) parse: fn(&[u8]) -> BlockHeader,
    /// Why a parsed header cannot be genuine, if it cannot.
    pub(super) implausible: fn(&BlockHeader) -> Option<String>,
    /// The checksum a block with this header and payload carries.
    pub(super) checksum: fn(&BlockHeader, &[u8]) -> u32,
}

impl Framing {
    /// Parses the block header at the front of `bytes`, or `None` if
    /// it does not open with the block marker.
    pub(super) fn header(&self, bytes: &[u8]) -> Option<BlockHeader> {
        (bytes[..4] == self.marker).then(|| (self.parse)(&bytes[..self.header_len]))
    }
}

/// The fields of one block header.
#[derive(Clone, Copy, Debug)]
pub(super) struct BlockHeader {
    /// Payload length in bytes.
    pub(super) payload_len: usize,
    /// Header plus payload length.
    pub(super) framed: usize,
    /// Records the block holds.
    pub(super) records: u32,
    /// Memory references among them (v3; 0 in v2 headers).
    pub(super) refs: u32,
    /// The stored checksum.
    pub(super) checksum: u32,
}

/// Reads the little-endian `u32` at `at`.
pub(super) fn le_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

/// What the block walk found at the cursor.
pub(super) enum Frame {
    /// A block whose framing and checksum verified. The cursor is at
    /// its header; its payload is buffered behind it.
    Block(BlockHeader),
    /// The section that ends the block run (v3's index).
    Trailer,
    /// The end of the stream.
    End,
}

/// The buffered byte stream under a framed reader, with absolute
/// offsets and the damage accounting.
#[derive(Debug)]
pub(super) struct FramedStream<R> {
    inner: R,
    pub(super) buf: Vec<u8>,
    pub(super) pos: usize,
    pub(super) len: usize,
    pub(super) hit_eof: bool,
    pub(super) mode: DecodeMode,
    /// The header's version byte.
    pub(super) version: u8,
    /// Absolute stream offset of `buf[0]`.
    stream_base: u64,
    /// Verified blocks decoded so far.
    pub(super) blocks: u64,
    pub(super) skip: SkipReport,
    /// Records decoded so far.
    pub(super) ops: u64,
}

impl<R: Read> FramedStream<R> {
    /// Absolute stream offset of buffer position `pos`.
    pub(super) fn offset_at(&self, pos: usize) -> u64 {
        self.stream_base + pos as u64
    }

    /// Moves the unconsumed tail to the front of the buffer, grows it
    /// to at least `needed` bytes, and reads until the buffer is full
    /// or the stream ends.
    pub(super) fn refill(&mut self, needed: usize) -> Result<(), BinaryTraceError> {
        self.stream_base += self.pos as u64;
        self.buf.copy_within(self.pos..self.len, 0);
        self.len -= self.pos;
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

    pub(super) fn strict(&self) -> bool {
        self.mode == DecodeMode::Strict
    }

    pub(super) fn truncated(&self) -> BinaryTraceError {
        BinaryTraceError::Truncated {
            ops_decoded: self.ops,
            offset: self.offset_at(self.len),
        }
    }

    pub(super) fn corrupt_at(&self, pos: usize, reason: impl Into<String>) -> BinaryTraceError {
        BinaryTraceError::Corrupt {
            op: self.ops,
            offset: self.offset_at(pos),
            reason: reason.into(),
        }
    }

    /// Walks to the next verified block, skipping and tallying damage
    /// in lenient mode and reporting it in strict mode.
    pub(super) fn next_frame(&mut self, f: &Framing) -> Result<Frame, BinaryTraceError> {
        loop {
            if self.len - self.pos < f.header_len && !self.hit_eof {
                self.refill(0)?;
            }
            if self.pos == self.len {
                return Ok(Frame::End);
            }
            let avail = self.len - self.pos;
            if avail >= 4
                && f.trailer
                    .is_some_and(|t| self.buf[self.pos..self.pos + 4] == t)
            {
                return Ok(Frame::Trailer);
            }
            if avail < f.header_len {
                // EOF inside a block header (or trailing garbage too
                // short to be one).
                if self.strict() {
                    return Err(self.truncated());
                }
                self.skip.blocks += 1;
                self.skip.bytes += avail as u64;
                self.pos = self.len;
                continue;
            }
            let Some(h) = f.header(&self.buf[self.pos..]) else {
                if self.strict() {
                    return Err(self.corrupt_at(self.pos, "bad block marker"));
                }
                self.resync(f)?;
                continue;
            };
            if let Some(reason) = (f.implausible)(&h) {
                if self.strict() {
                    return Err(self.corrupt_at(self.pos + 4, reason));
                }
                self.resync(f)?;
                continue;
            }
            if self.len - self.pos < h.framed {
                self.refill(h.framed)?;
                if self.len - self.pos < h.framed {
                    // EOF inside the payload.
                    if self.strict() {
                        return Err(self.truncated());
                    }
                    self.skip.blocks += 1;
                    self.skip.records += u64::from(h.records);
                    self.skip.bytes += (self.len - self.pos) as u64;
                    self.pos = self.len;
                    continue;
                }
            }
            let payload = &self.buf[self.pos + f.header_len..self.pos + h.framed];
            if (f.checksum)(&h, payload) != h.checksum {
                let at = self.pos + f.header_len - 4;
                self.reject(&h, at, "block checksum mismatch")?;
                continue;
            }
            return Ok(Frame::Block(h));
        }
    }

    /// Refuses the block at the cursor: strict mode reports `reason` at
    /// buffer position `at`; lenient mode skips the whole block.
    pub(super) fn reject(
        &mut self,
        h: &BlockHeader,
        at: usize,
        reason: impl Into<String>,
    ) -> Result<(), BinaryTraceError> {
        if self.strict() {
            return Err(self.corrupt_at(at, reason));
        }
        self.skip.blocks += 1;
        self.skip.records += u64::from(h.records);
        self.skip.bytes += h.framed as u64;
        self.pos += h.framed;
        Ok(())
    }

    /// Lenient-mode resynchronization: the bytes at the cursor do not
    /// start a block, so skip at least one byte and scan forward for
    /// the next block (or trailer) marker, refilling as needed.
    fn resync(&mut self, f: &Framing) -> Result<(), BinaryTraceError> {
        self.skip.blocks += 1;
        self.pos += 1;
        self.skip.bytes += 1;
        loop {
            while self.len - self.pos >= 4 {
                let m = &self.buf[self.pos..self.pos + 4];
                if m == f.marker || f.trailer.is_some_and(|t| m == t) {
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
}

/// The payload half of a [`FramedReader`]: one format's block decode.
/// Implemented by [`BinaryBlocks`](super::binary::BinaryBlocks) (v1 and
/// v2) and [`ColumnarBlocks`](super::columnar::ColumnarBlocks) (v3);
/// see [`FramedReader`] for what each method does.
pub trait BlockDecoder: Default {
    /// Header version bytes the format reads.
    const VERSIONS: RangeInclusive<u8>;

    /// See [`FramedReader::next_op`].
    ///
    /// # Errors
    ///
    /// As for [`FramedReader::next_op`].
    fn next_op<R: Read>(r: &mut FramedReader<R, Self>)
        -> Result<Option<TraceOp>, BinaryTraceError>;

    /// See [`FramedReader::read_chunk`].
    ///
    /// # Errors
    ///
    /// As for [`FramedReader::next_op`].
    fn read_chunk<R: Read>(
        r: &mut FramedReader<R, Self>,
        out: &mut Vec<TraceOp>,
        max: usize,
    ) -> Result<usize, BinaryTraceError>;

    /// See [`FramedReader::read_ref_chunk`].
    ///
    /// # Errors
    ///
    /// As for [`FramedReader::next_op`].
    fn read_ref_chunk<R: Read>(
        r: &mut FramedReader<R, Self>,
        out: &mut Vec<MemRef>,
        max: usize,
    ) -> Result<usize, BinaryTraceError>;
}

/// Streaming reader for a framed trace format, over any [`Read`]:
/// [`BinaryTraceReader`](super::BinaryTraceReader) (versions 1 and 2)
/// or [`ColumnarTraceReader`](super::ColumnarTraceReader) (version 3).
///
/// Maintains its own refill buffer (no `BufReader` needed underneath)
/// and decodes records one at a time (the [`Iterator`] impl,
/// [`next_op`](FramedReader::next_op)) or in caller-buffered batches
/// ([`read_chunk`](FramedReader::read_chunk) for whole ops,
/// [`read_ref_chunk`](FramedReader::read_ref_chunk) for memory
/// references, the replay fast path).
///
/// Opened in [`DecodeMode::Strict`] by [`new`](FramedReader::new) or
/// [`DecodeMode::Lenient`] by [`new_lenient`](FramedReader::new_lenient);
/// see [`DecodeMode`] for the difference and
/// [`skipped`](FramedReader::skipped) for the lenient-mode damage
/// tally.
#[derive(Debug)]
pub struct FramedReader<R, D> {
    pub(super) stream: FramedStream<R>,
    pub(super) decoder: D,
    failed: bool,
}

impl<R: Read, D: BlockDecoder> FramedReader<R, D> {
    /// Opens a trace in strict mode, validating the header.
    ///
    /// # Errors
    ///
    /// [`BinaryTraceError::BadMagic`] /
    /// [`BinaryTraceError::UnsupportedVersion`] on a foreign stream or
    /// another format's version, [`BinaryTraceError::Truncated`] if the
    /// stream ends inside the header, or an I/O error.
    pub fn new(inner: R) -> Result<Self, BinaryTraceError> {
        FramedReader::with_mode(inner, DecodeMode::Strict)
    }

    /// Opens a trace in lenient mode: damaged blocks are skipped and
    /// tallied instead of failing the stream.
    ///
    /// # Errors
    ///
    /// As for [`new`](FramedReader::new) — the file header must still
    /// be intact.
    pub fn new_lenient(inner: R) -> Result<Self, BinaryTraceError> {
        FramedReader::with_mode(inner, DecodeMode::Lenient)
    }

    /// Opens a trace with an explicit [`DecodeMode`].
    ///
    /// # Errors
    ///
    /// As for [`new`](FramedReader::new).
    pub fn with_mode(inner: R, mode: DecodeMode) -> Result<Self, BinaryTraceError> {
        let mut s = FramedStream {
            inner,
            buf: vec![0; 1 << 16],
            pos: 0,
            len: 0,
            hit_eof: false,
            mode,
            version: 0,
            stream_base: 0,
            blocks: 0,
            skip: SkipReport::default(),
            ops: 0,
        };
        s.refill(0)?;
        if s.len < HEADER_LEN {
            let have = s.len.min(BINARY_MAGIC.len());
            if s.len == 0 || s.buf[..have] != BINARY_MAGIC[..have] {
                return Err(BinaryTraceError::BadMagic);
            }
            return Err(BinaryTraceError::Truncated {
                ops_decoded: 0,
                offset: s.len as u64,
            });
        }
        if s.buf[..4] != BINARY_MAGIC {
            return Err(BinaryTraceError::BadMagic);
        }
        if !D::VERSIONS.contains(&s.buf[4]) {
            return Err(BinaryTraceError::UnsupportedVersion(s.buf[4]));
        }
        s.version = s.buf[4];
        s.pos = HEADER_LEN;
        Ok(FramedReader {
            stream: s,
            decoder: D::default(),
            failed: false,
        })
    }

    /// Decodes the next record, or `Ok(None)` at a clean end of stream.
    ///
    /// # Errors
    ///
    /// [`BinaryTraceError::Truncated`] if the stream stops mid-record or
    /// mid-block (or, in v3, before the index),
    /// [`BinaryTraceError::Corrupt`] on invalid blocks, tags or
    /// operands, or an I/O error. Lenient mode reports only header and
    /// I/O errors; structural damage is skipped and tallied instead.
    pub fn next_op(&mut self) -> Result<Option<TraceOp>, BinaryTraceError> {
        D::next_op(self)
    }

    /// Clears `out` and decodes up to `max` records into it, returning
    /// the count (`0` = end of stream). The buffer is caller-owned and
    /// reused, and framing checks run once per block, so a replay loop
    /// does no per-op allocation or buffer management.
    ///
    /// # Errors
    ///
    /// As for [`next_op`](FramedReader::next_op). Records decoded
    /// before the error are left in `out`.
    pub fn read_chunk(
        &mut self,
        out: &mut Vec<TraceOp>,
        max: usize,
    ) -> Result<usize, BinaryTraceError> {
        D::read_chunk(self, out, max)
    }

    /// Clears `out` and decodes records into it as bare [`MemRef`]s
    /// until `max` references are buffered or the stream ends, skipping
    /// non-memory records without materializing them. Returns the
    /// reference count (`0` = end of stream).
    ///
    /// This is the shape multi-model sweeps (`cac_sim::sweep`) want:
    /// the chunk is decoded **once** and then replayed against any
    /// number of cache models.
    ///
    /// # Errors
    ///
    /// As for [`next_op`](FramedReader::next_op). References decoded
    /// before the error are left in `out`.
    pub fn read_ref_chunk(
        &mut self,
        out: &mut Vec<MemRef>,
        max: usize,
    ) -> Result<usize, BinaryTraceError> {
        D::read_ref_chunk(self, out, max)
    }
}

impl<R, D> FramedReader<R, D> {
    /// Number of records decoded so far.
    pub fn ops_decoded(&self) -> u64 {
        self.stream.ops
    }

    /// The stream's format version (1 or 2 for binary, 3 for columnar).
    pub fn version(&self) -> u8 {
        self.stream.version
    }

    /// The reader's error-handling mode.
    pub fn mode(&self) -> DecodeMode {
        self.stream.mode
    }

    /// Verified blocks decoded so far (always 0 on version-1 streams).
    pub fn blocks_decoded(&self) -> u64 {
        self.stream.blocks
    }

    /// What lenient decode has skipped so far (all zeros in strict mode
    /// and on clean streams).
    pub fn skipped(&self) -> SkipReport {
        self.stream.skip
    }
}

impl<R: Read, D: BlockDecoder> Iterator for FramedReader<R, D> {
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

impl<R: Read, D: BlockDecoder> ChunkSource for FramedReader<R, D> {
    type Error = BinaryTraceError;

    fn read_chunk(
        &mut self,
        out: &mut Vec<TraceOp>,
        max: usize,
    ) -> Result<usize, BinaryTraceError> {
        D::read_chunk(self, out, max)
    }
}

impl<R: Read, D: BlockDecoder> RefSource for FramedReader<R, D> {
    type Error = BinaryTraceError;

    fn read_ref_chunk(
        &mut self,
        out: &mut Vec<MemRef>,
        max: usize,
    ) -> Result<usize, BinaryTraceError> {
        D::read_ref_chunk(self, out, max)
    }
}
