//! Golden damage matrix of the framed trace readers (v2 and v3).
//!
//! One SPEC stream is encoded as binary v2 and columnar v3, each long
//! enough for several blocks. Every case damages one copy: a cut at
//! each block boundary and one byte either side of it, a cut inside
//! each block header and payload (and, for v3, inside the trailing
//! index and footer), or a one-bit flip in each block's marker, length,
//! counts, checksum and payload. Each case is read through `next_op`,
//! `read_chunk` and `read_ref_chunk`, once strict and once lenient.
//! `tests/golden/damage.txt` pins, per case and method, the strict
//! error (its `Display`, offset and reason included) or the clean
//! count, and the lenient counts, blocks decoded and `SkipReport`,
//! each with a digest of everything delivered.
//! There is no regeneration switch: a mismatch is a behaviour change.

use cac_trace::io::{
    write_trace_binary, write_trace_columnar, BinaryTraceError, BinaryTraceReader,
    ColumnarTraceReader, DecodeMode, SkipReport, BLOCK_HEADER_LEN, COL_BLOCK_HEADER_LEN,
    COL_FOOTER_LEN, COL_INDEX_MAGIC, HEADER_LEN,
};
use cac_trace::spec::SpecBenchmark;
use cac_trace::{MemRef, TraceOp};
use std::fmt::Write;

/// Ops in the encoded stream.
const OPS: usize = 20_000;

/// Chunk length for `read_chunk` and `read_ref_chunk`, deliberately
/// not a divisor of either format's block.
const CHUNK: usize = 1000;

/// 64-bit FNV-1a state.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn op(&mut self, op: &TraceOp) {
        let reg = |r: Option<u8>| r.map_or(0xff, |r| r);
        self.feed(&op.pc.to_le_bytes());
        self.feed(&[
            op.class as u8,
            reg(op.dst),
            reg(op.srcs[0]),
            reg(op.srcs[1]),
            u8::from(op.taken),
        ]);
        self.feed(&op.addr.unwrap_or(u64::MAX).to_le_bytes());
        self.feed(&op.target.to_le_bytes());
    }

    fn mem_ref(&mut self, r: &MemRef) {
        self.feed(&r.pc.to_le_bytes());
        self.feed(&r.addr.to_le_bytes());
        self.feed(&[u8::from(r.is_write)]);
    }
}

/// The reader surface the matrix drives, for both formats.
trait Framed {
    fn next_op(&mut self) -> Result<Option<TraceOp>, BinaryTraceError>;
    fn read_chunk(&mut self, out: &mut Vec<TraceOp>) -> Result<usize, BinaryTraceError>;
    fn read_ref_chunk(&mut self, out: &mut Vec<MemRef>) -> Result<usize, BinaryTraceError>;
    fn ops_decoded(&self) -> u64;
    fn blocks_decoded(&self) -> u64;
    fn skipped(&self) -> SkipReport;
}

macro_rules! framed {
    ($reader:ident) => {
        impl Framed for $reader<&[u8]> {
            fn next_op(&mut self) -> Result<Option<TraceOp>, BinaryTraceError> {
                $reader::next_op(self)
            }
            fn read_chunk(&mut self, out: &mut Vec<TraceOp>) -> Result<usize, BinaryTraceError> {
                $reader::read_chunk(self, out, CHUNK)
            }
            fn read_ref_chunk(&mut self, out: &mut Vec<MemRef>) -> Result<usize, BinaryTraceError> {
                $reader::read_ref_chunk(self, out, CHUNK)
            }
            fn ops_decoded(&self) -> u64 {
                $reader::ops_decoded(self)
            }
            fn blocks_decoded(&self) -> u64 {
                $reader::blocks_decoded(self)
            }
            fn skipped(&self) -> SkipReport {
                $reader::skipped(self)
            }
        }
    };
}

framed!(BinaryTraceReader);
framed!(ColumnarTraceReader);

#[derive(Clone, Copy)]
enum Method {
    NextOp,
    ReadChunk,
    ReadRefChunk,
}

const METHODS: [(Method, &str); 3] = [
    (Method::NextOp, "next_op"),
    (Method::ReadChunk, "read_chunk"),
    (Method::ReadRefChunk, "read_ref_chunk"),
];

/// Drains `r` through `method`: items delivered, their digest, and the
/// error that stopped the stream, if any. Items a failing chunk call
/// left in its buffer count as delivered.
fn drain(r: &mut impl Framed, method: Method) -> (u64, u64, Option<BinaryTraceError>) {
    let mut h = Fnv::new();
    let mut n = 0u64;
    let mut ops = Vec::new();
    let mut refs = Vec::new();
    let err = loop {
        let step = match method {
            Method::NextOp => r.next_op().map(|op| {
                op.map_or(0, |op| {
                    h.op(&op);
                    1
                })
            }),
            Method::ReadChunk => {
                let got = r.read_chunk(&mut ops);
                ops.iter().for_each(|op| h.op(op));
                n += ops.len() as u64;
                got.map(|_| ops.len())
            }
            Method::ReadRefChunk => {
                let got = r.read_ref_chunk(&mut refs);
                refs.iter().for_each(|m| h.mem_ref(m));
                n += refs.len() as u64;
                got.map(|_| refs.len())
            }
        };
        match step {
            Ok(0) => break None,
            Ok(k) => {
                if matches!(method, Method::NextOp) {
                    n += k as u64;
                }
            }
            Err(e) => break Some(e),
        }
    };
    (n, h.0, err)
}

/// One line per method: the strict outcome, then the lenient one.
fn record_case<R: Framed>(
    out: &mut String,
    label: &str,
    open: impl Fn(DecodeMode) -> Result<R, BinaryTraceError>,
) {
    for (method, name) in METHODS {
        write!(out, "{label} {name}: strict ").unwrap();
        match open(DecodeMode::Strict) {
            Err(e) => write!(out, "open error: {e}").unwrap(),
            Ok(mut r) => {
                let (n, digest, err) = drain(&mut r, method);
                match err {
                    Some(e) => write!(out, "error after {n} ({digest:016x}): {e}").unwrap(),
                    None => write!(
                        out,
                        "clean {n} ({digest:016x}) ops {} blocks {}",
                        r.ops_decoded(),
                        r.blocks_decoded()
                    )
                    .unwrap(),
                }
            }
        }
        write!(out, " | lenient ").unwrap();
        match open(DecodeMode::Lenient) {
            Err(e) => writeln!(out, "open error: {e}").unwrap(),
            Ok(mut r) => {
                let (n, digest, err) = drain(&mut r, method);
                if let Some(e) = err {
                    write!(out, "error: {e}; ").unwrap();
                }
                let s = r.skipped();
                writeln!(
                    out,
                    "{n} ({digest:016x}) ops {} blocks {} skipped {}/{}/{}",
                    r.ops_decoded(),
                    r.blocks_decoded(),
                    s.blocks,
                    s.records,
                    s.bytes
                )
                .unwrap();
            }
        }
    }
}

/// A block's start offset and header and payload lengths.
struct Block {
    start: usize,
    header: usize,
    payload: usize,
}

/// Walks the block framing of a clean stream: `header` bytes per block
/// header, payload length at bytes 4..8, blocks until `end`.
fn blocks(bytes: &[u8], header: usize, end: usize) -> Vec<Block> {
    let mut at = HEADER_LEN;
    let mut out = Vec::new();
    while at < end {
        let payload = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap()) as usize;
        out.push(Block {
            start: at,
            header,
            payload,
        });
        at += header + payload;
    }
    assert_eq!(at, end, "blocks tile the stream");
    out
}

/// The damage cases of one encoding: `(label, damaged bytes)`.
fn cases(bytes: &[u8], blocks: &[Block], fields: &[(&str, usize)]) -> Vec<(String, Vec<u8>)> {
    let mut cases = vec![("clean".to_owned(), bytes.to_vec())];
    let mut cut = |label: String, at: usize| {
        if at <= bytes.len() {
            cases.push((format!("cut@{at} {label}"), bytes[..at].to_vec()));
        }
    };
    let end = blocks
        .last()
        .map_or(HEADER_LEN, |b| b.start + b.header + b.payload);
    let mut bounds: Vec<usize> = blocks.iter().map(|b| b.start).collect();
    bounds.push(end);
    for (i, &at) in bounds.iter().enumerate() {
        cut(format!("boundary {i} -1"), at - 1);
        cut(format!("boundary {i}"), at);
        cut(format!("boundary {i} +1"), at + 1);
    }
    for (i, b) in blocks.iter().enumerate() {
        cut(format!("block {i} mid-header"), b.start + b.header / 2);
        cut(
            format!("block {i} mid-payload"),
            b.start + b.header + b.payload / 2,
        );
    }
    for (i, b) in blocks.iter().enumerate() {
        let mut flips: Vec<(&str, usize, u8)> = fields
            .iter()
            .map(|&(name, offset)| (name, b.start + offset, 0))
            .collect();
        // The length's third byte: a length past the block-size cap.
        flips.push(("length-high", b.start + 6, 7));
        flips.push(("payload", b.start + b.header + b.payload / 2, 3));
        for (name, at, bit) in flips {
            let mut damaged = bytes.to_vec();
            damaged[at] ^= 1 << bit;
            cases.push((format!("flip@{at}.{bit} block {i} {name}"), damaged));
        }
    }
    cases
}

#[test]
fn framed_readers_match_the_damage_golden() {
    let ops: Vec<TraceOp> = SpecBenchmark::Swim.generator(4).take(OPS).collect();
    let mut got = format!("ops {OPS} chunk {CHUNK}\n");

    let v2 = write_trace_binary(Vec::new(), ops.iter().copied()).unwrap();
    let v2_blocks = blocks(&v2, BLOCK_HEADER_LEN, v2.len());
    writeln!(got, "v2 bytes {} blocks {}", v2.len(), v2_blocks.len()).unwrap();
    let v2_fields = [
        ("marker", 0),
        ("length", 4),
        ("records", 8),
        ("checksum", 12),
    ];
    for (label, bytes) in cases(&v2, &v2_blocks, &v2_fields) {
        record_case(&mut got, &format!("v2 {label}"), |mode| {
            BinaryTraceReader::with_mode(&bytes[..], mode)
        });
    }

    let v3 = write_trace_columnar(Vec::new(), ops.iter().copied()).unwrap();
    let footer = v3.len() - COL_FOOTER_LEN;
    let index = u64::from_le_bytes(v3[footer..footer + 8].try_into().unwrap()) as usize;
    assert_eq!(v3[index..index + 4], COL_INDEX_MAGIC);
    let v3_blocks = blocks(&v3, COL_BLOCK_HEADER_LEN, index);
    writeln!(got, "v3 bytes {} blocks {}", v3.len(), v3_blocks.len()).unwrap();
    let v3_fields = [
        ("marker", 0),
        ("length", 4),
        ("records", 8),
        ("refs", 12),
        ("checksum", 16),
    ];
    let mut v3_cases = cases(&v3, &v3_blocks, &v3_fields);
    for (label, at) in [
        ("index count", index + 5),
        ("index entries", index + 8 + 10),
        ("index checksum", footer - 2),
        ("footer offset", footer + 3),
        ("footer magic", v3.len() - 1),
    ] {
        v3_cases.push((format!("cut@{at} {label}"), v3[..at].to_vec()));
        let mut damaged = v3.clone();
        damaged[at] ^= 1;
        v3_cases.push((format!("flip@{at}.0 {label}"), damaged));
    }
    for (label, bytes) in v3_cases {
        record_case(&mut got, &format!("v3 {label}"), |mode| {
            ColumnarTraceReader::with_mode(&bytes[..], mode)
        });
    }

    assert_golden("damage.txt", &got);
}

/// Compares `got` with the golden file `name`, naming the first
/// differing line.
fn assert_golden(name: &str, got: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        assert_eq!(g, w, "{name} line {} differs", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "{name} length differs"
    );
}
