//! Block-compressed columnar trace storage (format version 3).
//!
//! The row-oriented v2 format ([`super::binary`]) interleaves every
//! record's fields, so the decoder pays a branchy tag dispatch per
//! record and the compressor sees pc deltas, address deltas and register
//! bytes shuffled together. Version 3 — the corpus storage tier —
//! splits each block into **columns**:
//!
//! * a 4-bit packed **tag** column (two records per byte);
//! * the **pc delta** column: zigzag deltas against the previous
//!   record's pc, bit-packed in miniblocks of 64 values (one width byte
//!   then `ceil(64·w/8)` payload bytes; width 0 encodes an all-zero run,
//!   the RLE fast path for tight loops);
//! * the **address delta** column (one entry per load/store), same
//!   miniblock bit-packing;
//! * the **branch target delta** column (one entry per branch, relative
//!   to the branch's own pc);
//! * the raw **register** column (compute ops contribute 3 bytes,
//!   loads/stores 2, branches 1, in record order).
//!
//! Each block is framed by a 20-byte header — the [`COL_BLOCK_MAGIC`]
//! marker `CCOL`, payload length, record count, memory-reference count
//! and a checksum binding the payload *and* both counts — so damage to
//! any header field or payload byte is detected before a single column
//! is interpreted. Delta state resets at every block, exactly like v2,
//! so blocks decode independently.
//!
//! After the last block the writer emits a **block index** (`CIDX`): one
//! 20-byte entry per block (absolute file offset, record count,
//! reference count, block checksum) plus its own checksum, and a
//! 16-byte `CEND` footer holding the index offset. [`ColumnarFile`]
//! reads the footer and index in two seeks and then serves any block in
//! O(1) — the seam the corpus tier (`cac corpus`) builds on. The
//! streaming reader ([`ColumnarTraceReader`]) works over any
//! [`Read`] — including a fault-injecting wrapper — and validates the
//! index when it reaches it, so a truncated tail (even one cut exactly
//! at a block boundary) is always detected.
//!
//! # Example
//!
//! ```
//! use cac_trace::io::{ColumnarTraceReader, ColumnarTraceWriter};
//! use cac_trace::TraceOp;
//!
//! let ops = vec![
//!     TraceOp::load(0x400, 0x1_0000, 5, Some(3)),
//!     TraceOp::store(0x404, 0x1_0008, 7, None),
//!     TraceOp::branch(0x408, true, 0x400, Some(2)),
//! ];
//! let mut w = ColumnarTraceWriter::new(Vec::new())?;
//! w.write_all(ops.iter().copied())?;
//! let bytes = w.finish()?;
//! let back: Result<Vec<_>, _> = ColumnarTraceReader::new(&bytes[..])?.collect();
//! assert_eq!(back?, ops);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use super::binary::{block_checksum, BinaryTraceError};
use super::framed::{
    compute_tag, le_u32, reg_byte, zigzag_decode, zigzag_encode, BlockDecoder, BlockHeader, Frame,
    FramedReader, FramedStream, Framing, COMPUTE_CLASSES, REG_NONE, TAG_BRANCH_NOT_TAKEN,
    TAG_BRANCH_TAKEN, TAG_LOAD, TAG_STORE,
};
use super::{BINARY_MAGIC, HEADER_LEN, MAX_BLOCK_LEN};
use crate::record::{MemRef, OpClass, TraceOp};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::ops::RangeInclusive;

/// Header version byte identifying the columnar format.
pub const COLUMNAR_VERSION: u8 = 3;

/// Marker bytes opening every columnar block.
pub const COL_BLOCK_MAGIC: [u8; 4] = *b"CCOL";

/// Marker bytes opening the trailing block index.
pub const COL_INDEX_MAGIC: [u8; 4] = *b"CIDX";

/// Marker bytes closing the 16-byte footer (and the file).
pub const COL_FOOTER_MAGIC: [u8; 4] = *b"CEND";

/// Columnar block header length: marker, payload length (u32 LE),
/// record count (u32 LE), memory-reference count (u32 LE), checksum
/// (u32 LE).
pub const COL_BLOCK_HEADER_LEN: usize = 20;

/// Records per block written by [`ColumnarTraceWriter`].
pub const COL_BLOCK_RECORDS: usize = 4096;

/// Size of one index entry: offset (u64 LE), record count (u32 LE),
/// reference count (u32 LE), block checksum (u32 LE).
pub const COL_INDEX_ENTRY_LEN: usize = 20;

/// Footer length: index offset (u64 LE), entry count (u32 LE), the
/// [`COL_FOOTER_MAGIC`] bytes.
pub const COL_FOOTER_LEN: usize = 16;

/// Miniblock width used by the delta columns.
const MINIBLOCK: usize = 64;

/// Upper bound on the record count a block header may claim; anything
/// above is treated as damage before any allocation happens.
const MAX_BLOCK_RECORDS: u32 = 1 << 20;

/// Register bytes a record of `tag` contributes to the register column.
fn regs_for_tag(tag: u8) -> usize {
    match tag {
        TAG_LOAD | TAG_STORE => 2,
        TAG_BRANCH_NOT_TAKEN | TAG_BRANCH_TAKEN => 1,
        _ => 3,
    }
}

/// Checksum stored in a columnar block header: the payload checksum
/// XOR-mixed with both header counts, so a flipped count field fails
/// verification exactly like a flipped payload byte.
pub fn col_block_checksum(payload: &[u8], records: u32, refs: u32) -> u32 {
    block_checksum(payload) ^ records.rotate_left(16) ^ refs.wrapping_mul(0x9E37_79B9)
}

/// Bit-packs `vals` as miniblocks of [`MINIBLOCK`] values: one width
/// byte (0..=64) then the values in little-endian bit order. Width 0
/// carries no payload — the all-zero run.
fn pack_deltas(out: &mut Vec<u8>, vals: &[u64]) {
    for chunk in vals.chunks(MINIBLOCK) {
        let width = chunk
            .iter()
            .map(|&v| 64 - v.leading_zeros())
            .max()
            .unwrap_or(0) as u8;
        out.push(width);
        if width == 0 {
            continue;
        }
        let mut acc: u128 = 0;
        let mut nbits = 0u32;
        for &v in chunk {
            acc |= u128::from(v) << nbits;
            nbits += u32::from(width);
            while nbits >= 8 {
                out.push(acc as u8);
                acc >>= 8;
                nbits -= 8;
            }
        }
        if nbits > 0 {
            out.push(acc as u8);
        }
    }
}

/// Inverse of [`pack_deltas`]: reads exactly `count` values from
/// `bytes`, which must contain the miniblock stream and nothing else.
fn unpack_deltas(bytes: &[u8], count: usize, out: &mut Vec<u64>) -> Result<(), String> {
    out.clear();
    out.reserve(count);
    let mut pos = 0usize;
    let mut remaining = count;
    while remaining > 0 {
        let take = remaining.min(MINIBLOCK);
        let width = *bytes
            .get(pos)
            .ok_or_else(|| "delta column ends inside a miniblock header".to_string())?;
        pos += 1;
        if width > 64 {
            return Err(format!("miniblock width {width} exceeds 64 bits"));
        }
        if width == 0 {
            out.extend(std::iter::repeat_n(0u64, take));
            remaining -= take;
            continue;
        }
        let nbytes = (take * width as usize).div_ceil(8);
        let packed = bytes
            .get(pos..pos + nbytes)
            .ok_or_else(|| "delta column ends inside a miniblock payload".to_string())?;
        pos += nbytes;
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        // Fast path: while a full 8-byte window fits inside the
        // miniblock, each value is one unaligned little-endian load
        // plus a shift — widths up to 56 keep the value inside the
        // window regardless of bit offset.
        let mut done = 0usize;
        let mut bit = 0usize;
        if width <= 56 {
            while done < take {
                let byte = bit >> 3;
                if byte + 8 > packed.len() {
                    break;
                }
                let word = u64::from_le_bytes(packed[byte..byte + 8].try_into().expect("8 bytes"));
                out.push((word >> (bit & 7)) & mask);
                bit += width as usize;
                done += 1;
            }
        }
        // Tail (and the rare >56-bit widths): accumulator decode over
        // the remaining bytes, starting mid-byte if the fast path
        // stopped on an unaligned boundary.
        let mut bytes_it = packed[bit >> 3..].iter();
        let mut acc: u128 = 0;
        let mut nbits = 0u32;
        if bit & 7 != 0 {
            acc = u128::from(*bytes_it.next().expect("sized above")) >> (bit & 7);
            nbits = 8 - (bit & 7) as u32;
        }
        for _ in done..take {
            while nbits < u32::from(width) {
                acc |= u128::from(*bytes_it.next().expect("sized above")) << nbits;
                nbits += 8;
            }
            out.push((acc as u64) & mask);
            acc >>= width;
            nbits -= u32::from(width);
        }
        remaining -= take;
    }
    if pos != bytes.len() {
        return Err(format!(
            "delta column carries {} trailing bytes",
            bytes.len() - pos
        ));
    }
    Ok(())
}

/// One entry of the trailing block index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColIndexEntry {
    /// Absolute file offset of the block's `CCOL` marker.
    pub offset: u64,
    /// Records the block holds.
    pub records: u32,
    /// Memory references (loads + stores) among those records.
    pub refs: u32,
    /// The block's stored checksum (see [`col_block_checksum`]).
    pub checksum: u32,
}

impl ColIndexEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.records.to_le_bytes());
        out.extend_from_slice(&self.refs.to_le_bytes());
        out.extend_from_slice(&self.checksum.to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> ColIndexEntry {
        ColIndexEntry {
            offset: u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")),
            records: u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")),
            refs: u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")),
            checksum: u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes")),
        }
    }
}

/// Streaming writer for the columnar format.
///
/// Accumulates [`COL_BLOCK_RECORDS`] records of column state, flushes
/// them as one checksummed `CCOL` block, and appends the `CIDX` block
/// index plus `CEND` footer on [`finish`](ColumnarTraceWriter::finish).
#[derive(Debug)]
pub struct ColumnarTraceWriter<W: Write> {
    out: BufWriter<W>,
    tags: Vec<u8>,
    pc_deltas: Vec<u64>,
    mem_deltas: Vec<u64>,
    target_deltas: Vec<u64>,
    regs: Vec<u8>,
    prev_pc: u64,
    prev_addr: u64,
    ops: u64,
    offset: u64,
    index: Vec<ColIndexEntry>,
    payload: Vec<u8>,
}

impl<W: Write> ColumnarTraceWriter<W> {
    /// Starts a columnar trace on `w`, writing the 8-byte `CACT`
    /// version-3 header immediately.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn new(w: W) -> io::Result<Self> {
        let mut out = BufWriter::with_capacity(1 << 16, w);
        out.write_all(&BINARY_MAGIC)?;
        out.write_all(&[COLUMNAR_VERSION, 0, 0, 0])?;
        Ok(ColumnarTraceWriter {
            out,
            tags: Vec::with_capacity(COL_BLOCK_RECORDS),
            pc_deltas: Vec::with_capacity(COL_BLOCK_RECORDS),
            mem_deltas: Vec::with_capacity(COL_BLOCK_RECORDS),
            target_deltas: Vec::with_capacity(COL_BLOCK_RECORDS),
            regs: Vec::with_capacity(COL_BLOCK_RECORDS * 3),
            prev_pc: 0,
            prev_addr: 0,
            ops: 0,
            offset: HEADER_LEN as u64,
            index: Vec::new(),
            payload: Vec::new(),
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
        self.pc_deltas
            .push(zigzag_encode(op.pc.wrapping_sub(self.prev_pc) as i64));
        match op.class {
            OpClass::Load => {
                let addr = op.addr.unwrap_or(0);
                self.tags.push(TAG_LOAD);
                self.mem_deltas
                    .push(zigzag_encode(addr.wrapping_sub(self.prev_addr) as i64));
                self.regs.push(reg_byte(op.dst));
                self.regs.push(reg_byte(op.srcs[0]));
                self.prev_addr = addr;
            }
            OpClass::Store => {
                let addr = op.addr.unwrap_or(0);
                self.tags.push(TAG_STORE);
                self.mem_deltas
                    .push(zigzag_encode(addr.wrapping_sub(self.prev_addr) as i64));
                self.regs.push(reg_byte(op.srcs[0]));
                self.regs.push(reg_byte(op.srcs[1]));
                self.prev_addr = addr;
            }
            OpClass::Branch => {
                self.tags.push(if op.taken {
                    TAG_BRANCH_TAKEN
                } else {
                    TAG_BRANCH_NOT_TAKEN
                });
                self.target_deltas
                    .push(zigzag_encode(op.target.wrapping_sub(op.pc) as i64));
                self.regs.push(reg_byte(op.srcs[0]));
            }
            class => {
                self.tags.push(compute_tag(class));
                self.regs.push(reg_byte(op.dst));
                self.regs.push(reg_byte(op.srcs[0]));
                self.regs.push(reg_byte(op.srcs[1]));
            }
        }
        self.prev_pc = op.pc;
        self.ops += 1;
        if self.tags.len() >= COL_BLOCK_RECORDS {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Writes the accumulated block and resets the per-block delta
    /// state, matching the reader's per-block reset.
    fn flush_block(&mut self) -> io::Result<()> {
        if self.tags.is_empty() {
            return Ok(());
        }
        let records = self.tags.len() as u32;
        let refs = self.mem_deltas.len() as u32;
        let payload = &mut self.payload;
        payload.clear();

        let section = |payload: &mut Vec<u8>, fill: &mut dyn FnMut(&mut Vec<u8>)| {
            let len_at = payload.len();
            payload.extend_from_slice(&[0; 4]);
            fill(payload);
            let len = (payload.len() - len_at - 4) as u32;
            payload[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
        };
        let tags = &self.tags;
        section(payload, &mut |p| {
            for pair in tags.chunks(2) {
                p.push(pair[0] | (pair.get(1).copied().unwrap_or(0) << 4));
            }
        });
        let pc_deltas = &self.pc_deltas;
        section(payload, &mut |p| pack_deltas(p, pc_deltas));
        let mem_deltas = &self.mem_deltas;
        section(payload, &mut |p| pack_deltas(p, mem_deltas));
        let target_deltas = &self.target_deltas;
        section(payload, &mut |p| pack_deltas(p, target_deltas));
        let regs = &self.regs;
        section(payload, &mut |p| p.extend_from_slice(regs));

        let checksum = col_block_checksum(payload, records, refs);
        let mut header = [0u8; COL_BLOCK_HEADER_LEN];
        header[..4].copy_from_slice(&COL_BLOCK_MAGIC);
        header[4..8].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[8..12].copy_from_slice(&records.to_le_bytes());
        header[12..16].copy_from_slice(&refs.to_le_bytes());
        header[16..20].copy_from_slice(&checksum.to_le_bytes());
        self.out.write_all(&header)?;
        self.out.write_all(payload)?;
        self.index.push(ColIndexEntry {
            offset: self.offset,
            records,
            refs,
            checksum,
        });
        self.offset += (COL_BLOCK_HEADER_LEN + payload.len()) as u64;
        self.tags.clear();
        self.pc_deltas.clear();
        self.mem_deltas.clear();
        self.target_deltas.clear();
        self.regs.clear();
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

    /// Flushes the final block, writes the block index and footer, and
    /// returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the final flush.
    pub fn finish(mut self) -> io::Result<W> {
        self.flush_block()?;
        let index_offset = self.offset;
        let mut entries = Vec::with_capacity(self.index.len() * COL_INDEX_ENTRY_LEN);
        for e in &self.index {
            e.encode(&mut entries);
        }
        self.out.write_all(&COL_INDEX_MAGIC)?;
        self.out
            .write_all(&(self.index.len() as u32).to_le_bytes())?;
        self.out.write_all(&entries)?;
        self.out
            .write_all(&block_checksum(&entries).to_le_bytes())?;
        self.out.write_all(&index_offset.to_le_bytes())?;
        self.out
            .write_all(&(self.index.len() as u32).to_le_bytes())?;
        self.out.write_all(&COL_FOOTER_MAGIC)?;
        self.out
            .into_inner()
            .map_err(io::IntoInnerError::into_error)
    }
}

/// One-call convenience: writes header, blocks, index and footer to `w`
/// and returns the writer.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_trace_columnar<W: Write, I: IntoIterator<Item = TraceOp>>(
    w: W,
    ops: I,
) -> io::Result<W> {
    let mut writer = ColumnarTraceWriter::new(w)?;
    writer.write_all(ops)?;
    writer.finish()
}

/// Streaming miniblock unpacker: decodes one [`MINIBLOCK`] group at a
/// time into a stack buffer, so ref-mode decode never materializes a
/// whole delta column in memory. Structural validation (and error
/// wording) matches [`unpack_deltas`]. Errors are deferred: a damaged
/// miniblock yields zeros from [`next`](DeltaCursor::next) and the
/// first error surfaces from [`finish`](DeltaCursor::finish) — callers
/// must pull exactly the declared count, then `finish`, and discard
/// every value on error (per-value `Result`s would put a 32-byte enum
/// on the hot path).
struct DeltaCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Values not yet moved into `buf`.
    remaining: usize,
    buf: [u64; MINIBLOCK],
    buf_len: usize,
    buf_pos: usize,
    err: Option<String>,
}

impl<'a> DeltaCursor<'a> {
    fn new(bytes: &'a [u8], count: usize) -> Self {
        DeltaCursor {
            bytes,
            pos: 0,
            remaining: count,
            buf: [0; MINIBLOCK],
            buf_len: 0,
            buf_pos: 0,
            err: None,
        }
    }

    #[inline]
    fn next(&mut self) -> u64 {
        if self.buf_pos == self.buf_len {
            self.load_miniblock();
        }
        let v = self.buf[self.buf_pos];
        self.buf_pos += 1;
        v
    }

    /// Returns the rest of the current miniblock (unpacking the next
    /// one first if it is drained), advancing the cursor past every
    /// returned value.
    /// Empty once `count` values have been yielded.
    #[inline]
    fn next_group(&mut self) -> &[u64] {
        if self.buf_pos == self.buf_len {
            if self.remaining == 0 {
                return &[];
            }
            self.load_miniblock();
        }
        let start = self.buf_pos;
        self.buf_pos = self.buf_len;
        &self.buf[start..self.buf_len]
    }

    #[cold]
    fn fail(&mut self, take: usize, reason: String) {
        if self.err.is_none() {
            self.err = Some(reason);
        }
        self.buf[..take].fill(0);
        self.remaining -= take;
        self.buf_len = take;
        self.buf_pos = 0;
    }

    /// Unpacks the next miniblock into the value buffer.
    fn load_miniblock(&mut self) {
        debug_assert!(self.remaining > 0, "caller pulls exactly `count` values");
        let take = self.remaining.min(MINIBLOCK);
        let width = match self.bytes.get(self.pos) {
            Some(&w) => w,
            None => {
                return self.fail(take, "delta column ends inside a miniblock header".into());
            }
        };
        self.pos += 1;
        if width > 64 {
            return self.fail(take, format!("miniblock width {width} exceeds 64 bits"));
        }
        if width == 0 {
            self.buf[..take].fill(0);
        } else {
            let nbytes = (take * width as usize).div_ceil(8);
            let packed = match self.bytes.get(self.pos..self.pos + nbytes) {
                Some(p) => p,
                None => {
                    return self.fail(take, "delta column ends inside a miniblock payload".into());
                }
            };
            self.pos += nbytes;
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            // Same two-phase decode as `unpack_deltas`: unaligned
            // 64-bit window loads while a full window fits, then an
            // accumulator for the tail bytes.
            let mut done = 0usize;
            let mut bit = 0usize;
            if width <= 56 {
                while done < take {
                    let byte = bit >> 3;
                    if byte + 8 > packed.len() {
                        break;
                    }
                    let word =
                        u64::from_le_bytes(packed[byte..byte + 8].try_into().expect("8 bytes"));
                    self.buf[done] = (word >> (bit & 7)) & mask;
                    bit += width as usize;
                    done += 1;
                }
            }
            let mut bytes_it = packed[bit >> 3..].iter();
            let mut acc: u128 = 0;
            let mut nbits = 0u32;
            if bit & 7 != 0 {
                acc = u128::from(*bytes_it.next().expect("sized above")) >> (bit & 7);
                nbits = 8 - (bit & 7) as u32;
            }
            for slot in done..take {
                while nbits < u32::from(width) {
                    acc |= u128::from(*bytes_it.next().expect("sized above")) << nbits;
                    nbits += 8;
                }
                self.buf[slot] = (acc as u64) & mask;
                acc >>= width;
                nbits -= u32::from(width);
            }
        }
        self.remaining -= take;
        self.buf_len = take;
        self.buf_pos = 0;
    }

    /// Surfaces any deferred decode error, then validates that the
    /// column body was consumed exactly.
    fn finish(self) -> Result<(), String> {
        debug_assert_eq!(self.remaining, 0, "caller pulls exactly `count` values");
        if let Some(e) = self.err {
            return Err(e);
        }
        if self.pos != self.bytes.len() {
            return Err(format!(
                "delta column carries {} trailing bytes",
                self.bytes.len() - self.pos
            ));
        }
        Ok(())
    }
}

/// Fully decoded, validated columns of one block, drained record by
/// record by the reader's chunk loops.
///
/// A block decodes in one of two modes. Op mode (`decode`)
/// materializes every column for `take_op`. Ref mode (`decode_refs`)
/// is the replay fast path: one fused pass produces bare [`MemRef`]s
/// without building the pc/target/register columns at all. The raw
/// payload is retained so a consumer that switches from refs back to
/// ops mid-block re-decodes the full columns and resumes at the same
/// record.
#[derive(Debug, Default)]
struct BlockScratch {
    tags: Vec<u8>,
    /// Absolute pc per record.
    pcs: Vec<u64>,
    /// Absolute address per load/store, in record order.
    addrs: Vec<u64>,
    /// Absolute target per branch, in record order.
    targets: Vec<u64>,
    regs: Vec<u8>,
    /// Drain cursors into the four streams above.
    rec: usize,
    mem: usize,
    br: usize,
    reg: usize,
    /// Scratch for the delta unpacker.
    deltas: Vec<u64>,
    /// Ref mode: `true` while the current block holds `refs_buf`
    /// instead of full columns.
    ref_mode: bool,
    /// Ref mode: the block's references, in record order.
    refs_buf: Vec<MemRef>,
    /// Ref mode: record count consumed once the matching reference is
    /// drained (parallel to `refs_buf`), keeping the reader's record
    /// tally exact across partial drains.
    rec_after: Vec<u32>,
    /// Ref mode: drain cursor into `refs_buf`.
    ref_pos: usize,
    /// Ref mode: the block's record count (`rec` advances toward it).
    block_records: usize,
    /// Ref mode: the block's reference count, kept for re-decode.
    block_refs: u32,
    /// Ref mode: the block's framed length (header + payload). The
    /// reader uses it to re-borrow the payload from its stream buffer
    /// — which cannot have been refilled while the block is undrained
    /// — on a mid-block switch to op mode.
    block_framed: usize,
}

impl BlockScratch {
    fn clear(&mut self) {
        self.tags.clear();
        self.pcs.clear();
        self.addrs.clear();
        self.targets.clear();
        self.regs.clear();
        self.rec = 0;
        self.mem = 0;
        self.br = 0;
        self.reg = 0;
        self.ref_mode = false;
        self.refs_buf.clear();
        self.rec_after.clear();
        self.ref_pos = 0;
        self.block_records = 0;
        self.block_refs = 0;
        self.block_framed = 0;
    }

    fn exhausted(&self) -> bool {
        if self.ref_mode {
            self.rec == self.block_records
        } else {
            self.rec == self.tags.len()
        }
    }

    /// Splits a payload into its five length-prefixed sections.
    fn split_sections(payload: &[u8]) -> Result<[&[u8]; 5], String> {
        let mut pos = 0usize;
        let mut sections: [&[u8]; 5] = [&[]; 5];
        for s in sections.iter_mut() {
            let len_bytes = payload
                .get(pos..pos + 4)
                .ok_or_else(|| "payload ends inside a section length".to_string())?;
            let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
            pos += 4;
            *s = payload
                .get(pos..pos + len)
                .ok_or_else(|| "payload ends inside a section".to_string())?;
            pos += len;
        }
        if pos != payload.len() {
            return Err(format!(
                "payload carries {} bytes past its sections",
                payload.len() - pos
            ));
        }
        Ok(sections)
    }

    /// Decodes and validates one block payload into absolute columns.
    /// `prev_pc`/`prev_addr` are always 0 at a block start (the writer
    /// resets them), so decode needs no carried state.
    fn decode(&mut self, payload: &[u8], records: u32, refs: u32) -> Result<(), String> {
        self.clear();
        let records = records as usize;
        let refs = refs as usize;
        let sections = Self::split_sections(payload)?;

        // Tags: two nibbles per byte, padding nibble must be zero.
        if sections[0].len() != records.div_ceil(2) {
            return Err(format!(
                "tag column holds {} bytes for {records} records",
                sections[0].len()
            ));
        }
        self.tags.reserve(records);
        let mut mems = 0usize;
        let mut branches = 0usize;
        let mut reg_bytes = 0usize;
        let mut tally = |t: u8| -> Result<(), String> {
            if t > TAG_BRANCH_TAKEN {
                return Err(format!("unknown tag nibble {t:#x}"));
            }
            match t {
                TAG_LOAD | TAG_STORE => mems += 1,
                TAG_BRANCH_NOT_TAKEN | TAG_BRANCH_TAKEN => branches += 1,
                _ => {}
            }
            reg_bytes += regs_for_tag(t);
            Ok(())
        };
        for (i, &b) in sections[0].iter().enumerate() {
            tally(b & 0x0F)?;
            self.tags.push(b & 0x0F);
            if 2 * i + 1 < records {
                tally(b >> 4)?;
                self.tags.push(b >> 4);
            } else if b >> 4 != 0 {
                return Err("nonzero padding nibble in tag column".into());
            }
        }
        if mems != refs {
            return Err(format!(
                "tag column holds {mems} memory records, header claims {refs}"
            ));
        }

        // Delta columns, exact-length.
        unpack_deltas(sections[1], records, &mut self.deltas)?;
        let mut prev_pc = 0u64;
        self.pcs.reserve(records);
        for &d in &self.deltas {
            prev_pc = prev_pc.wrapping_add(zigzag_decode(d) as u64);
            self.pcs.push(prev_pc);
        }
        unpack_deltas(sections[2], refs, &mut self.deltas)?;
        let mut prev_addr = 0u64;
        self.addrs.reserve(refs);
        for &d in &self.deltas {
            prev_addr = prev_addr.wrapping_add(zigzag_decode(d) as u64);
            self.addrs.push(prev_addr);
        }
        unpack_deltas(sections[3], branches, &mut self.deltas)?;
        self.targets.reserve(branches);
        // Targets are relative to the branch's own pc.
        let mut br = 0usize;
        for (i, &t) in self.tags.iter().enumerate() {
            if t == TAG_BRANCH_NOT_TAKEN || t == TAG_BRANCH_TAKEN {
                self.targets
                    .push(self.pcs[i].wrapping_add(zigzag_decode(self.deltas[br]) as u64));
                br += 1;
            }
        }

        // Register column: exact length, every byte in range, required
        // operands present.
        if sections[4].len() != reg_bytes {
            return Err(format!(
                "register column holds {} bytes, tags require {reg_bytes}",
                sections[4].len()
            ));
        }
        let mut at = 0usize;
        for &t in &self.tags {
            let n = regs_for_tag(t);
            for &r in &sections[4][at..at + n] {
                if r != REG_NONE && r >= 64 {
                    return Err(format!("register byte {r:#x} out of range"));
                }
            }
            let first = sections[4][at];
            match t {
                TAG_LOAD if first == REG_NONE => return Err("load without destination".into()),
                TAG_STORE if first == REG_NONE => return Err("store without data register".into()),
                t if (t as usize) < COMPUTE_CLASSES.len() && first == REG_NONE => {
                    return Err("compute op without destination".into())
                }
                _ => {}
            }
            at += n;
        }
        self.regs.extend_from_slice(sections[4]);
        Ok(())
    }

    /// Validates the miniblock framing of a delta column without
    /// unpacking its values: same structural checks (and messages) as
    /// [`unpack_deltas`], minus the value decode.
    fn check_delta_framing(bytes: &[u8], count: usize) -> Result<(), String> {
        let mut pos = 0usize;
        let mut remaining = count;
        while remaining > 0 {
            let take = remaining.min(MINIBLOCK);
            let width = *bytes
                .get(pos)
                .ok_or_else(|| "delta column ends inside a miniblock header".to_string())?;
            pos += 1;
            if width > 64 {
                return Err(format!("miniblock width {width} exceeds 64 bits"));
            }
            if width > 0 {
                pos += (take * width as usize).div_ceil(8);
                if pos > bytes.len() {
                    return Err("delta column ends inside a miniblock payload".to_string());
                }
            }
            remaining -= take;
        }
        if pos != bytes.len() {
            return Err(format!(
                "delta column carries {} trailing bytes",
                bytes.len() - pos
            ));
        }
        Ok(())
    }

    /// Ref-mode decode: validates the block's structure and produces
    /// its [`MemRef`]s in one fused pass over the tag column, without
    /// materializing the pc/target/register columns.
    ///
    /// Branch targets are framing-checked but never decoded, and the
    /// register column is not examined at all — a block whose register
    /// column is malformed (wrong length, out-of-range byte, a load
    /// without a destination) passes here and only errors under
    /// op-mode decode (`cac corpus verify` and every record-level
    /// consumer take that path). The block checksum has already
    /// vouched for integrity by the time either decode runs.
    fn decode_refs(&mut self, payload: &[u8], records: u32, refs: u32) -> Result<(), String> {
        self.clear();
        self.ref_mode = true;
        let records = records as usize;
        let refs = refs as usize;
        let sections = Self::split_sections(payload)?;

        if sections[0].len() != records.div_ceil(2) {
            return Err(format!(
                "tag column holds {} bytes for {records} records",
                sections[0].len()
            ));
        }
        if records % 2 == 1 && sections[0][records >> 1] >> 4 != 0 {
            return Err("nonzero padding nibble in tag column".into());
        }

        let mut pc_cur = DeltaCursor::new(sections[1], records);
        let mut addr_cur = DeltaCursor::new(sections[2], refs);
        self.refs_buf.reserve(refs);
        self.rec_after.reserve(refs);
        let tag_bytes = sections[0];
        let mut mems = 0usize;
        let mut branches = 0usize;
        let mut pc = 0u64;
        let mut addr = 0u64;
        // Shared record body for the unrolled walk below; `$i` is the
        // absolute record index.
        macro_rules! step {
            ($t:expr, $d:expr, $i:expr) => {{
                let t = $t;
                if t > TAG_BRANCH_TAKEN {
                    return Err(format!("unknown tag nibble {t:#x}"));
                }
                pc = pc.wrapping_add(zigzag_decode($d) as u64);
                match t {
                    TAG_LOAD | TAG_STORE => {
                        // Past `refs`, keep counting (the mismatch
                        // check below needs the true total) without
                        // touching the exhausted addr-delta column.
                        if mems < refs {
                            addr = addr.wrapping_add(zigzag_decode(addr_cur.next()) as u64);
                            self.refs_buf.push(MemRef {
                                pc,
                                addr,
                                is_write: t == TAG_STORE,
                            });
                            self.rec_after.push(($i + 1) as u32);
                        }
                        mems += 1;
                    }
                    TAG_BRANCH_NOT_TAKEN | TAG_BRANCH_TAKEN => branches += 1,
                    _ => {}
                }
            }};
        }
        // Hot loop: one pc miniblock per outer iteration, two records
        // (one tag byte) per inner iteration. Miniblocks hold an even
        // number of records, so every group starts byte-aligned in the
        // tag column.
        let mut i = 0usize;
        while i < records {
            let pcs = pc_cur.next_group();
            let glen = pcs.len().min(records - i);
            debug_assert_eq!(glen, pcs.len(), "cursor yields exactly `records` values");
            let mut k = 0usize;
            while k + 1 < glen {
                let b = tag_bytes[(i + k) >> 1];
                step!(b & 0x0F, pcs[k], i + k);
                step!(b >> 4, pcs[k + 1], i + k + 1);
                k += 2;
            }
            if k < glen {
                step!(tag_bytes[(i + k) >> 1] & 0x0F, pcs[k], i + k);
            }
            i += glen;
        }
        if mems != refs {
            return Err(format!(
                "tag column holds {mems} memory records, header claims {refs}"
            ));
        }
        pc_cur.finish()?;
        addr_cur.finish()?;
        Self::check_delta_framing(sections[3], branches)?;

        // Only now — with every check passed — does the block become
        // drainable; a failed decode leaves the scratch exhausted.
        self.block_records = records;
        self.block_refs = refs as u32;
        Ok(())
    }

    /// Drains ref-mode references into `out` until the block is
    /// exhausted or `out` reaches `max`, with the same record-consum-
    /// ption semantics as the op-mode drain: trailing non-memory
    /// records are consumed only once every reference fit.
    fn drain_refs_fast(&mut self, out: &mut Vec<MemRef>, max: usize) {
        let take = (max - out.len()).min(self.refs_buf.len() - self.ref_pos);
        out.extend_from_slice(&self.refs_buf[self.ref_pos..self.ref_pos + take]);
        self.ref_pos += take;
        if take > 0 {
            self.rec = self.rec_after[self.ref_pos - 1] as usize;
        }
        if self.ref_pos == self.refs_buf.len() && out.len() < max {
            self.rec = self.block_records;
        }
    }

    /// Re-decodes a partially drained ref-mode block into full op-mode
    /// columns (from the payload still sitting in the reader's stream
    /// buffer) and fast-forwards the drain cursors to the same record,
    /// so op- and ref-mode reads can interleave mid-block.
    fn reopen_as_ops(&mut self, payload: &[u8]) -> Result<(), String> {
        let (rec, records, refs) = (self.rec, self.block_records as u32, self.block_refs);
        self.decode(payload, records, refs)?;
        while self.rec < rec {
            let _ = self.take_op();
        }
        Ok(())
    }

    /// Materializes the record at the drain cursor and advances it.
    fn take_op(&mut self) -> TraceOp {
        let i = self.rec;
        let tag = self.tags[i];
        let pc = self.pcs[i];
        let opt = |r: u8| if r == REG_NONE { None } else { Some(r) };
        let op = match tag {
            TAG_LOAD => {
                let addr = self.addrs[self.mem];
                self.mem += 1;
                let dst = self.regs[self.reg];
                let base = opt(self.regs[self.reg + 1]);
                self.reg += 2;
                TraceOp::load(pc, addr, dst, base)
            }
            TAG_STORE => {
                let addr = self.addrs[self.mem];
                self.mem += 1;
                let src = self.regs[self.reg];
                let base = opt(self.regs[self.reg + 1]);
                self.reg += 2;
                TraceOp::store(pc, addr, src, base)
            }
            TAG_BRANCH_NOT_TAKEN | TAG_BRANCH_TAKEN => {
                let target = self.targets[self.br];
                self.br += 1;
                let src = opt(self.regs[self.reg]);
                self.reg += 1;
                TraceOp::branch(pc, tag == TAG_BRANCH_TAKEN, target, src)
            }
            t => {
                let dst = self.regs[self.reg];
                let s1 = opt(self.regs[self.reg + 1]);
                let s2 = opt(self.regs[self.reg + 2]);
                self.reg += 3;
                TraceOp::compute(pc, COMPUTE_CLASSES[t as usize], dst, [s1, s2])
            }
        };
        self.rec += 1;
        op
    }

    /// Drains memory references into `out` until the block is exhausted
    /// or `out` reaches `max`, advancing every cursor past each record
    /// it consumes.
    fn drain_refs(&mut self, out: &mut Vec<MemRef>, max: usize) {
        let mut rec = self.rec;
        let mut mem = self.mem;
        let mut br = self.br;
        let mut reg = self.reg;
        let tags = &self.tags[..];
        while rec < tags.len() && out.len() < max {
            let tag = tags[rec];
            let pc = self.pcs[rec];
            rec += 1;
            reg += regs_for_tag(tag);
            match tag {
                TAG_LOAD | TAG_STORE => {
                    out.push(MemRef {
                        pc,
                        addr: self.addrs[mem],
                        is_write: tag == TAG_STORE,
                    });
                    mem += 1;
                }
                TAG_BRANCH_NOT_TAKEN | TAG_BRANCH_TAKEN => br += 1,
                _ => {}
            }
        }
        self.rec = rec;
        self.mem = mem;
        self.br = br;
        self.reg = reg;
    }
}

/// Per-column encoded byte totals, tallied by the streaming reader for
/// `cac trace info --verify`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColumnBytes {
    /// Packed tag column bytes.
    pub tags: u64,
    /// Pc delta column bytes.
    pub pc: u64,
    /// Address delta column bytes.
    pub addr: u64,
    /// Branch target delta column bytes.
    pub target: u64,
    /// Raw register column bytes.
    pub regs: u64,
}

/// Streaming reader for the columnar format, over any [`Read`]: the
/// shared [`FramedReader`] over the v3 column decode.
///
/// Decodes one whole block of columns at a time (a verified block's
/// payload is validated end to end before a single record is
/// delivered), then drains it. Errors, the
/// [`DecodeMode`](super::DecodeMode) policy and the
/// [`SkipReport`](super::SkipReport) tally are the v2 reader's, so
/// every replay consumer treats v2 and v3 uniformly.
///
/// Unlike v2, a truncated tail is *always* detected: a well-formed file
/// ends in an index and footer, so hitting end-of-stream without them
/// is damage even when the cut lands exactly on a block boundary.
pub type ColumnarTraceReader<R> = FramedReader<R, ColumnarBlocks>;

/// The v3 block framing: `CCOL`, payload length, record and reference
/// counts, and a checksum binding the payload and both counts. The
/// block run ends at the `CIDX` index.
const FRAMING: Framing = Framing {
    marker: COL_BLOCK_MAGIC,
    header_len: COL_BLOCK_HEADER_LEN,
    trailer: Some(COL_INDEX_MAGIC),
    parse: |h| {
        let payload_len = le_u32(h, 4) as usize;
        BlockHeader {
            payload_len,
            framed: COL_BLOCK_HEADER_LEN + payload_len,
            records: le_u32(h, 8),
            refs: le_u32(h, 12),
            checksum: le_u32(h, 16),
        }
    },
    implausible: |h| {
        (h.payload_len > MAX_BLOCK_LEN || h.records > MAX_BLOCK_RECORDS || h.refs > h.records)
            .then(|| "implausible block header".to_owned())
    },
    checksum: |h, payload| col_block_checksum(payload, h.records, h.refs),
};

/// The columnar format's payload decode: whole blocks of columns,
/// drained record by record, and the trailing index check.
#[derive(Debug, Default)]
pub struct ColumnarBlocks {
    /// Memory references among the decoded records.
    refs: u64,
    /// Set once the trailing index has been consumed (clean end).
    saw_index: bool,
    index_entries: u64,
    scratch: BlockScratch,
    col_bytes: ColumnBytes,
    payload_bytes: u64,
}

impl<R> ColumnarTraceReader<R> {
    /// Number of memory references among the decoded records.
    pub fn refs_decoded(&self) -> u64 {
        self.decoder.refs
    }

    /// Entries the trailing index claimed (0 until the index is
    /// reached).
    pub fn index_entries(&self) -> u64 {
        self.decoder.index_entries
    }

    /// Encoded bytes per column across the verified blocks so far.
    pub fn column_bytes(&self) -> ColumnBytes {
        self.decoder.col_bytes
    }

    /// Total verified block payload bytes so far (section prefixes
    /// included).
    pub fn payload_bytes(&self) -> u64 {
        self.decoder.payload_bytes
    }
}

impl ColumnarBlocks {
    /// Consumes and validates the trailing index + footer. On success
    /// the stream is cleanly finished; structural damage is an error in
    /// strict mode and a tallied skip in lenient mode.
    fn consume_index<R: Read>(&mut self, s: &mut FramedStream<R>) -> Result<(), BinaryTraceError> {
        let index_offset = s.offset_at(s.pos);
        // Buffer the whole tail: index sizes are bounded by block count
        // (20 bytes per ~4096 records), far below any problematic size.
        while !s.hit_eof {
            let want = (s.len - s.pos).max(1 << 16) * 2;
            s.refill(want)?;
        }
        let tail = &s.buf[s.pos..s.len];
        let damage: Option<String> = 'v: {
            if tail.len() < 8 + COL_FOOTER_LEN {
                break 'v Some("stream ends inside the block index".into());
            }
            let count = le_u32(tail, 4) as usize;
            let entries_len = count * COL_INDEX_ENTRY_LEN;
            let expect = 8 + entries_len + 4 + COL_FOOTER_LEN;
            if tail.len() != expect {
                break 'v Some(format!(
                    "index section is {} bytes, {count} entries require {expect}",
                    tail.len()
                ));
            }
            let entries = &tail[8..8 + entries_len];
            if block_checksum(entries) != le_u32(tail, 8 + entries_len) {
                break 'v Some("index checksum mismatch".into());
            }
            let footer = &tail[12 + entries_len..];
            if footer[12..16] != COL_FOOTER_MAGIC {
                break 'v Some("bad footer magic".into());
            }
            let footer_offset = u64::from_le_bytes(footer[..8].try_into().expect("8 bytes"));
            if footer_offset != index_offset || le_u32(footer, 8) as usize != count {
                break 'v Some("footer disagrees with the index".into());
            }
            // In a strict (undamaged) walk the index must describe
            // exactly the blocks seen; a lenient walk may have skipped
            // some, so the counts legitimately differ.
            if s.strict() && count as u64 != s.blocks {
                break 'v Some(format!(
                    "index lists {count} blocks, stream held {}",
                    s.blocks
                ));
            }
            self.index_entries = count as u64;
            None
        };
        if let Some(reason) = damage {
            if s.strict() {
                return Err(s.corrupt_at(s.pos, reason));
            }
            s.skip.blocks += 1;
            s.skip.bytes += (s.len - s.pos) as u64;
        }
        s.pos = s.len;
        self.saw_index = true;
        Ok(())
    }

    /// Ensures the scratch holds undrained records, decoding the next
    /// verified block if needed; `Ok(false)` means clean end of stream.
    /// `want_refs` selects the fused ref-only decode for fresh blocks.
    /// A partially drained block keeps its current mode (switching
    /// refs→ops re-decodes the retained payload).
    fn prepare<R: Read>(
        &mut self,
        s: &mut FramedStream<R>,
        want_refs: bool,
    ) -> Result<bool, BinaryTraceError> {
        loop {
            if !self.scratch.exhausted() {
                if !want_refs && self.scratch.ref_mode {
                    // No refill can have happened since this block was
                    // decoded (refills only run once the scratch is
                    // exhausted), so its payload still sits in the
                    // stream buffer just behind the cursor.
                    let start = s.pos - self.scratch.block_framed + COL_BLOCK_HEADER_LEN;
                    if let Err(reason) = self.scratch.reopen_as_ops(&s.buf[start..s.pos]) {
                        return Err(s.corrupt_at(start, reason));
                    }
                }
                return Ok(true);
            }
            if self.saw_index {
                return Ok(false);
            }
            let h = match s.next_frame(&FRAMING)? {
                Frame::Block(h) => h,
                Frame::Trailer => {
                    self.consume_index(s)?;
                    continue;
                }
                Frame::End => {
                    // End of stream without an index: always damage.
                    if s.strict() {
                        return Err(s.truncated());
                    }
                    s.skip.blocks += 1;
                    self.saw_index = true;
                    return Ok(false);
                }
            };
            let payload = &s.buf[s.pos + COL_BLOCK_HEADER_LEN..s.pos + h.framed];
            let decoded = if want_refs {
                self.scratch.decode_refs(payload, h.records, h.refs)
            } else {
                self.scratch.decode(payload, h.records, h.refs)
            };
            if let Err(reason) = decoded {
                let at = s.pos;
                s.reject(&h, at, reason)?;
                continue;
            }
            // Column stats, from the verified section prefixes.
            let mut at = 0usize;
            for total in [
                &mut self.col_bytes.tags,
                &mut self.col_bytes.pc,
                &mut self.col_bytes.addr,
                &mut self.col_bytes.target,
                &mut self.col_bytes.regs,
            ] {
                let len = le_u32(payload, at) as usize;
                *total += len as u64;
                at += 4 + len;
            }
            self.payload_bytes += h.payload_len as u64;
            self.scratch.block_framed = h.framed;
            s.blocks += 1;
            s.pos += h.framed;
        }
    }

    /// Takes the op at the scratch's drain cursor, counting it.
    fn take_op<R>(&mut self, s: &mut FramedStream<R>) -> TraceOp {
        let op = self.scratch.take_op();
        s.ops += 1;
        if op.addr.is_some() {
            self.refs += 1;
        }
        op
    }
}

impl BlockDecoder for ColumnarBlocks {
    const VERSIONS: RangeInclusive<u8> = COLUMNAR_VERSION..=COLUMNAR_VERSION;

    fn next_op<R: Read>(
        r: &mut ColumnarTraceReader<R>,
    ) -> Result<Option<TraceOp>, BinaryTraceError> {
        let (s, d) = (&mut r.stream, &mut r.decoder);
        if !d.prepare(s, false)? {
            return Ok(None);
        }
        Ok(Some(d.take_op(s)))
    }

    fn read_chunk<R: Read>(
        r: &mut ColumnarTraceReader<R>,
        out: &mut Vec<TraceOp>,
        max: usize,
    ) -> Result<usize, BinaryTraceError> {
        let (s, d) = (&mut r.stream, &mut r.decoder);
        out.clear();
        out.reserve(max.min(1 << 20));
        while out.len() < max && d.prepare(s, false)? {
            while out.len() < max && !d.scratch.exhausted() {
                out.push(d.take_op(s));
            }
        }
        Ok(out.len())
    }

    /// The corpus fast path: tags, pcs and addresses stream out of
    /// their decoded columns directly, and non-memory records never
    /// materialize a [`TraceOp`] at all.
    fn read_ref_chunk<R: Read>(
        r: &mut ColumnarTraceReader<R>,
        out: &mut Vec<MemRef>,
        max: usize,
    ) -> Result<usize, BinaryTraceError> {
        let (s, d) = (&mut r.stream, &mut r.decoder);
        out.clear();
        out.reserve(max.min(1 << 20));
        while out.len() < max && d.prepare(s, true)? {
            let before = d.scratch.rec;
            if d.scratch.ref_mode {
                let n = d.scratch.refs_buf.len();
                if out.is_empty() && d.scratch.ref_pos == 0 && n > 0 && n <= max {
                    // Whole-block fast path: hand the first block's
                    // refs to the caller by swap — no copy — then keep
                    // looping so later blocks top the chunk up to
                    // `max` through the ordinary copying drain.
                    std::mem::swap(out, &mut d.scratch.refs_buf);
                    d.scratch.ref_pos = 0;
                    d.scratch.rec = d.scratch.block_records;
                    s.ops += (d.scratch.rec - before) as u64;
                    continue;
                }
                d.scratch.drain_refs_fast(out, max);
            } else {
                // Leftover of a block opened in op mode: drain through
                // the column walk so the cursors stay consistent.
                d.scratch.drain_refs(out, max);
            }
            s.ops += (d.scratch.rec - before) as u64;
        }
        d.refs += out.len() as u64;
        Ok(out.len())
    }
}

/// A columnar trace opened through its block index: footer and index
/// are read in two seeks, then any block is served in O(1).
///
/// Blocks decode independently (delta state resets at every block), so
/// random access needs no context from preceding blocks.
#[derive(Debug)]
pub struct ColumnarFile<R: Read + Seek> {
    inner: R,
    index: Vec<ColIndexEntry>,
    scratch: BlockScratch,
    payload: Vec<u8>,
}

impl ColumnarFile<std::fs::File> {
    /// Opens the columnar trace at `path`.
    ///
    /// # Errors
    ///
    /// As for [`open`](ColumnarFile::open), plus file-open errors.
    pub fn open_path(path: &std::path::Path) -> Result<Self, BinaryTraceError> {
        ColumnarFile::open(std::fs::File::open(path)?)
    }
}

impl<R: Read + Seek> ColumnarFile<R> {
    /// Validates the header, footer and index of `inner` and returns an
    /// indexed handle.
    ///
    /// # Errors
    ///
    /// [`BinaryTraceError::BadMagic`] /
    /// [`BinaryTraceError::UnsupportedVersion`] on a foreign stream,
    /// [`BinaryTraceError::Corrupt`] if footer or index do not verify,
    /// [`BinaryTraceError::Truncated`] if the file is too short to hold
    /// them, or an I/O error.
    pub fn open(mut inner: R) -> Result<Self, BinaryTraceError> {
        let total = inner.seek(SeekFrom::End(0))?;
        let min = (HEADER_LEN + 8 + 4 + COL_FOOTER_LEN) as u64;
        let mut head = [0u8; HEADER_LEN];
        if total < min {
            inner.seek(SeekFrom::Start(0))?;
            let n = inner.read(&mut head)?;
            if n < 4 || head[..4] != BINARY_MAGIC {
                return Err(BinaryTraceError::BadMagic);
            }
            if n >= 5 && head[4] != COLUMNAR_VERSION {
                return Err(BinaryTraceError::UnsupportedVersion(head[4]));
            }
            return Err(BinaryTraceError::Truncated {
                ops_decoded: 0,
                offset: total,
            });
        }
        inner.seek(SeekFrom::Start(0))?;
        inner.read_exact(&mut head)?;
        if head[..4] != BINARY_MAGIC {
            return Err(BinaryTraceError::BadMagic);
        }
        if head[4] != COLUMNAR_VERSION {
            return Err(BinaryTraceError::UnsupportedVersion(head[4]));
        }
        let corrupt = |offset: u64, reason: &str| BinaryTraceError::Corrupt {
            op: 0,
            offset,
            reason: reason.into(),
        };
        let mut footer = [0u8; COL_FOOTER_LEN];
        inner.seek(SeekFrom::End(-(COL_FOOTER_LEN as i64)))?;
        inner.read_exact(&mut footer)?;
        if footer[12..16] != COL_FOOTER_MAGIC {
            return Err(corrupt(total - 4, "bad footer magic"));
        }
        let index_offset = u64::from_le_bytes(footer[..8].try_into().expect("8 bytes"));
        let count = u32::from_le_bytes(footer[8..12].try_into().expect("4 bytes")) as usize;
        let expect_index = 8 + count * COL_INDEX_ENTRY_LEN + 4;
        if index_offset < HEADER_LEN as u64
            || index_offset + expect_index as u64 + COL_FOOTER_LEN as u64 != total
        {
            return Err(corrupt(total - COL_FOOTER_LEN as u64, "implausible footer"));
        }
        inner.seek(SeekFrom::Start(index_offset))?;
        let mut index_bytes = vec![0u8; expect_index];
        inner.read_exact(&mut index_bytes)?;
        if index_bytes[..4] != COL_INDEX_MAGIC {
            return Err(corrupt(index_offset, "bad index marker"));
        }
        let listed = u32::from_le_bytes(index_bytes[4..8].try_into().expect("4 bytes")) as usize;
        if listed != count {
            return Err(corrupt(index_offset + 4, "footer disagrees with the index"));
        }
        let entries = &index_bytes[8..8 + count * COL_INDEX_ENTRY_LEN];
        let stored = u32::from_le_bytes(
            index_bytes[8 + count * COL_INDEX_ENTRY_LEN..]
                .try_into()
                .expect("4 bytes"),
        );
        if block_checksum(entries) != stored {
            return Err(corrupt(index_offset + 8, "index checksum mismatch"));
        }
        let index: Vec<ColIndexEntry> = entries
            .chunks_exact(COL_INDEX_ENTRY_LEN)
            .map(ColIndexEntry::decode)
            .collect();
        for (i, e) in index.iter().enumerate() {
            if e.offset < HEADER_LEN as u64 || e.offset >= index_offset {
                return Err(corrupt(index_offset, "index entry offset out of range"));
            }
            if i > 0 && e.offset <= index[i - 1].offset {
                return Err(corrupt(index_offset, "index entry offsets not increasing"));
            }
        }
        Ok(ColumnarFile {
            inner,
            index,
            scratch: BlockScratch::default(),
            payload: Vec::new(),
        })
    }

    /// The block index.
    pub fn entries(&self) -> &[ColIndexEntry] {
        &self.index
    }

    /// Number of blocks in the file.
    pub fn block_count(&self) -> usize {
        self.index.len()
    }

    /// Total records across all blocks, per the index.
    pub fn records(&self) -> u64 {
        self.index.iter().map(|e| u64::from(e.records)).sum()
    }

    /// Total memory references across all blocks, per the index.
    pub fn refs(&self) -> u64 {
        self.index.iter().map(|e| u64::from(e.refs)).sum()
    }

    /// Decodes block `i` in one seek, verifying its header against the
    /// index entry and its checksum before interpreting any column.
    ///
    /// # Errors
    ///
    /// [`BinaryTraceError::Corrupt`] if the block does not match its
    /// index entry or fails verification, or an I/O error.
    pub fn read_block(&mut self, i: usize) -> Result<Vec<TraceOp>, BinaryTraceError> {
        let e = *self.index.get(i).ok_or_else(|| BinaryTraceError::Corrupt {
            op: 0,
            offset: 0,
            reason: format!("block {i} out of range ({} blocks)", self.index.len()),
        })?;
        let corrupt = |reason: &str| BinaryTraceError::Corrupt {
            op: 0,
            offset: e.offset,
            reason: reason.into(),
        };
        self.inner.seek(SeekFrom::Start(e.offset))?;
        let mut header = [0u8; COL_BLOCK_HEADER_LEN];
        self.inner.read_exact(&mut header)?;
        let h = FRAMING
            .header(&header)
            .ok_or_else(|| corrupt("bad block marker"))?;
        if h.payload_len > MAX_BLOCK_LEN
            || h.records != e.records
            || h.refs != e.refs
            || h.checksum != e.checksum
        {
            return Err(corrupt("block header disagrees with the index"));
        }
        self.payload.resize(h.payload_len, 0);
        self.inner.read_exact(&mut self.payload)?;
        if (FRAMING.checksum)(&h, &self.payload) != h.checksum {
            return Err(corrupt("block checksum mismatch"));
        }
        self.scratch
            .decode(&self.payload, h.records, h.refs)
            .map_err(|reason| BinaryTraceError::Corrupt {
                op: 0,
                offset: e.offset,
                reason,
            })?;
        let mut ops = Vec::with_capacity(h.records as usize);
        while !self.scratch.exhausted() {
            ops.push(self.scratch.take_op());
        }
        Ok(ops)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{write_trace_binary, BinaryTraceReader, RefSource, BLOCK_TARGET};
    use super::*;
    use crate::spec::SpecBenchmark;
    use std::io::Cursor;

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

    fn multi_block_ops(n: usize) -> Vec<TraceOp> {
        SpecBenchmark::Swim.generator(4).take(n).collect()
    }

    #[test]
    fn round_trip_every_op_kind() {
        let ops = sample_ops();
        let bytes = write_trace_columnar(Vec::new(), ops.iter().copied()).unwrap();
        let back: Vec<TraceOp> = ColumnarTraceReader::new(&bytes[..])
            .unwrap()
            .map(Result::unwrap)
            .collect();
        assert_eq!(back, ops);
    }

    #[test]
    fn round_trip_multi_block() {
        let ops = multi_block_ops(3 * COL_BLOCK_RECORDS + 17);
        let bytes = write_trace_columnar(Vec::new(), ops.iter().copied()).unwrap();
        let mut r = ColumnarTraceReader::new(&bytes[..]).unwrap();
        let mut back = Vec::new();
        let mut buf = Vec::new();
        while r.read_chunk(&mut buf, 1000).unwrap() > 0 {
            back.extend_from_slice(&buf);
        }
        assert_eq!(back, ops);
        assert_eq!(r.blocks_decoded(), 4);
        assert_eq!(r.index_entries(), 4);
        assert!(!r.skipped().any());
    }

    #[test]
    fn mixed_ref_and_op_reads_stay_consistent() {
        // A ref-mode block reopened for op-mode reads mid-block must
        // resume at the exact record the ref drain stopped at.
        let ops = multi_block_ops(2 * COL_BLOCK_RECORDS);
        let bytes = write_trace_columnar(Vec::new(), ops.iter().copied()).unwrap();
        let mut r = ColumnarTraceReader::new(&bytes[..]).unwrap();
        let mut refs = Vec::new();
        // Stop mid-block: fewer refs than the first block holds.
        let got = r.read_ref_chunk(&mut refs, 100).unwrap();
        assert_eq!(got, 100);
        let consumed = r.ops_decoded() as usize;
        let expect_refs: Vec<MemRef> = ops[..consumed]
            .iter()
            .filter_map(|op| {
                op.addr.map(|addr| MemRef {
                    pc: op.pc,
                    addr,
                    is_write: op.class == OpClass::Store,
                })
            })
            .collect();
        assert_eq!(refs, expect_refs);
        // Every remaining record must now come out op-identical.
        let rest: Vec<TraceOp> = r.map(Result::unwrap).collect();
        assert_eq!(rest, ops[consumed..]);
    }

    #[test]
    fn round_trip_extreme_values() {
        let ops = vec![
            TraceOp::load(u64::MAX, 0, 0, Some(63)),
            TraceOp::store(0, u64::MAX, 63, None),
            TraceOp::branch(u64::MAX / 2, true, 0, None),
            TraceOp::load(1, u64::MAX / 2 + 7, 1, None),
        ];
        let bytes = write_trace_columnar(Vec::new(), ops.iter().copied()).unwrap();
        let back: Vec<TraceOp> = ColumnarTraceReader::new(&bytes[..])
            .unwrap()
            .map(Result::unwrap)
            .collect();
        assert_eq!(back, ops);
    }

    #[test]
    fn ref_chunks_match_op_projection() {
        let ops = multi_block_ops(2 * COL_BLOCK_RECORDS + 100);
        let expect: Vec<MemRef> = ops.iter().filter_map(TraceOp::mem_ref).collect();
        let bytes = write_trace_columnar(Vec::new(), ops.iter().copied()).unwrap();
        let mut r = ColumnarTraceReader::new(&bytes[..]).unwrap();
        let mut buf = Vec::new();
        let mut all = Vec::new();
        while r.read_ref_chunk(&mut buf, 777).unwrap() > 0 {
            all.extend_from_slice(&buf);
        }
        assert_eq!(all, expect);
        assert_eq!(r.refs_decoded(), expect.len() as u64);
        assert_eq!(r.ops_decoded(), ops.len() as u64);
    }

    #[test]
    fn matches_v2_record_stream() {
        let ops = multi_block_ops(COL_BLOCK_RECORDS + 333);
        let v2 = write_trace_binary(Vec::new(), ops.iter().copied()).unwrap();
        let v3 = write_trace_columnar(Vec::new(), ops.iter().copied()).unwrap();
        let from_v2: Vec<TraceOp> = BinaryTraceReader::new(&v2[..])
            .unwrap()
            .map(Result::unwrap)
            .collect();
        let from_v3: Vec<TraceOp> = ColumnarTraceReader::new(&v3[..])
            .unwrap()
            .map(Result::unwrap)
            .collect();
        assert_eq!(from_v2, from_v3);
    }

    #[test]
    fn columnar_is_smaller_than_v2_on_regular_streams() {
        let ops = multi_block_ops(4 * COL_BLOCK_RECORDS);
        let v2 = write_trace_binary(Vec::new(), ops.iter().copied()).unwrap();
        let v3 = write_trace_columnar(Vec::new(), ops.iter().copied()).unwrap();
        assert!(
            v3.len() < v2.len(),
            "columnar {} bytes vs row {} bytes",
            v3.len(),
            v2.len()
        );
    }

    #[test]
    fn empty_trace_round_trips() {
        let bytes = write_trace_columnar(Vec::new(), std::iter::empty()).unwrap();
        let mut r = ColumnarTraceReader::new(&bytes[..]).unwrap();
        assert!(r.next_op().unwrap().is_none());
        assert_eq!(r.index_entries(), 0);
        let mut f = ColumnarFile::open(Cursor::new(bytes)).unwrap();
        assert_eq!(f.block_count(), 0);
        assert_eq!(f.records(), 0);
        assert!(f.read_block(0).is_err());
    }

    #[test]
    fn rejects_v2_stream() {
        let bytes = write_trace_binary(Vec::new(), sample_ops()).unwrap();
        match ColumnarTraceReader::new(&bytes[..]) {
            Err(BinaryTraceError::UnsupportedVersion(2)) => {}
            other => panic!("expected UnsupportedVersion(2), got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_always_detected() {
        let ops = multi_block_ops(2 * COL_BLOCK_RECORDS);
        let bytes = write_trace_columnar(Vec::new(), ops.iter().copied()).unwrap();
        // Every cut — including ones landing exactly on block
        // boundaries — must fail strict decode (the index is missing)
        // and leave a skip tally in lenient mode.
        let step = (bytes.len() / 61).max(1);
        for cut in (HEADER_LEN..bytes.len() - 1).step_by(step) {
            let cut_bytes = &bytes[..cut];
            let r = ColumnarTraceReader::new(cut_bytes).unwrap();
            let res: Result<Vec<TraceOp>, _> = r.collect();
            assert!(res.is_err(), "cut at {cut} decoded strictly");
            let mut r = ColumnarTraceReader::new_lenient(cut_bytes).unwrap();
            let decoded: Vec<TraceOp> = (&mut r).map(Result::unwrap).collect();
            assert!(r.skipped().any(), "cut at {cut} left no lenient tally");
            // Whatever decoded must be a prefix of the real stream.
            assert_eq!(decoded[..], ops[..decoded.len()], "cut at {cut}");
        }
    }

    #[test]
    fn bit_flips_never_misdecode() {
        let ops = multi_block_ops(COL_BLOCK_RECORDS + 500);
        let bytes = write_trace_columnar(Vec::new(), ops.iter().copied()).unwrap();
        let step = (bytes.len() / 97).max(1);
        for at in (HEADER_LEN..bytes.len()).step_by(step) {
            for bit in [0u8, 3, 7] {
                let mut damaged = bytes.clone();
                damaged[at] ^= 1 << bit;
                if damaged[at] == bytes[at] {
                    continue;
                }
                let mut r = ColumnarTraceReader::new_lenient(&damaged[..]).unwrap();
                let decoded: Vec<TraceOp> = (&mut r).map(Result::unwrap).collect();
                // Lenient decode may drop blocks but never invent or
                // alter records: every decoded op must appear at its
                // stream position in some undamaged block.
                let mut at_op = 0usize;
                for block in decoded.chunks(COL_BLOCK_RECORDS.min(decoded.len().max(1))) {
                    // Find the block's position in the original stream.
                    let found = ops
                        .chunks(COL_BLOCK_RECORDS)
                        .any(|orig| orig.len() >= block.len() && orig[..block.len()] == *block);
                    assert!(
                        found,
                        "flip at byte {at} bit {bit} invented records (block at {at_op})"
                    );
                    at_op += block.len();
                }
            }
        }
    }

    #[test]
    fn lenient_skip_counts_are_exact_for_payload_damage() {
        let ops = multi_block_ops(3 * COL_BLOCK_RECORDS);
        let bytes = write_trace_columnar(Vec::new(), ops.iter().copied()).unwrap();
        // Damage one payload byte in the middle block.
        let mut damaged = bytes.clone();
        let target = HEADER_LEN
            + COL_BLOCK_HEADER_LEN
            + (find_block_len(&bytes, HEADER_LEN))
            + COL_BLOCK_HEADER_LEN
            + 10;
        damaged[target] ^= 0x40;
        let mut r = ColumnarTraceReader::new_lenient(&damaged[..]).unwrap();
        let decoded: Vec<TraceOp> = (&mut r).map(Result::unwrap).collect();
        let skip = r.skipped();
        assert_eq!(skip.blocks, 1);
        assert_eq!(skip.records, COL_BLOCK_RECORDS as u64);
        assert_eq!(decoded.len(), ops.len() - COL_BLOCK_RECORDS);
        // The surviving records are blocks 0 and 2, intact.
        assert_eq!(decoded[..COL_BLOCK_RECORDS], ops[..COL_BLOCK_RECORDS]);
        assert_eq!(decoded[COL_BLOCK_RECORDS..], ops[2 * COL_BLOCK_RECORDS..]);
    }

    /// Payload length of the block whose header starts at `at`.
    fn find_block_len(bytes: &[u8], at: usize) -> usize {
        assert_eq!(&bytes[at..at + 4], &COL_BLOCK_MAGIC);
        u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap()) as usize
    }

    #[test]
    fn indexed_file_serves_blocks_in_any_order() {
        let ops = multi_block_ops(3 * COL_BLOCK_RECORDS + 55);
        let bytes = write_trace_columnar(Vec::new(), ops.iter().copied()).unwrap();
        let mut f = ColumnarFile::open(Cursor::new(bytes)).unwrap();
        assert_eq!(f.block_count(), 4);
        assert_eq!(f.records(), ops.len() as u64);
        let expect_refs = ops.iter().filter(|o| o.addr.is_some()).count() as u64;
        assert_eq!(f.refs(), expect_refs);
        for i in [3usize, 0, 2, 1] {
            let block = f.read_block(i).unwrap();
            let lo = i * COL_BLOCK_RECORDS;
            let hi = (lo + COL_BLOCK_RECORDS).min(ops.len());
            assert_eq!(block, &ops[lo..hi], "block {i}");
        }
    }

    #[test]
    fn indexed_open_rejects_damaged_footer_and_index() {
        let ops = multi_block_ops(COL_BLOCK_RECORDS);
        let bytes = write_trace_columnar(Vec::new(), ops.iter().copied()).unwrap();
        // Footer magic.
        let mut d = bytes.clone();
        let n = d.len();
        d[n - 1] ^= 0xFF;
        assert!(ColumnarFile::open(Cursor::new(d)).is_err());
        // Index entry byte.
        let mut d = bytes.clone();
        let idx_off = {
            let f = &bytes[n - COL_FOOTER_LEN..];
            u64::from_le_bytes(f[..8].try_into().unwrap()) as usize
        };
        d[idx_off + 10] ^= 0x01;
        assert!(ColumnarFile::open(Cursor::new(d)).is_err());
        // Truncated tail.
        let d = bytes[..n - 3].to_vec();
        assert!(ColumnarFile::open(Cursor::new(d)).is_err());
    }

    #[test]
    fn ref_source_trait_objectless_usage_compiles() {
        // The reader plugs into generic RefSource consumers.
        fn drain<S: RefSource>(mut s: S) -> usize
        where
            S::Error: std::fmt::Debug,
        {
            let mut buf = Vec::new();
            let mut n = 0;
            while s.read_ref_chunk(&mut buf, 128).unwrap() > 0 {
                n += buf.len();
            }
            n
        }
        let ops = multi_block_ops(1000);
        let refs = ops.iter().filter(|o| o.addr.is_some()).count();
        let bytes = write_trace_columnar(Vec::new(), ops).unwrap();
        assert_eq!(drain(ColumnarTraceReader::new(&bytes[..]).unwrap()), refs);
    }

    #[test]
    fn pack_unpack_deltas_round_trip() {
        let cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![0; 200],
            vec![1, 2, 3, u64::MAX, 0, 1 << 63],
            (0..1000u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect(),
        ];
        for vals in cases {
            let mut packed = Vec::new();
            pack_deltas(&mut packed, &vals);
            let mut back = Vec::new();
            unpack_deltas(&packed, vals.len(), &mut back).unwrap();
            assert_eq!(back, vals);
        }
        // All-zero runs cost one byte per miniblock.
        let mut packed = Vec::new();
        pack_deltas(&mut packed, &[0u64; 640]);
        assert_eq!(packed.len(), 10);
    }

    #[test]
    fn block_target_is_v2_comparable() {
        // Keep v3 blocks in the same ballpark as v2's BLOCK_TARGET so
        // streaming buffer sizing assumptions carry over.
        let ops = multi_block_ops(COL_BLOCK_RECORDS);
        let bytes = write_trace_columnar(Vec::new(), ops).unwrap();
        let payload = find_block_len(&bytes, HEADER_LEN);
        assert!(payload < BLOCK_TARGET, "block payload {payload}");
    }
}
