//! Property-based tests for the trace codecs: arbitrary op sequences
//! survive text ↔ binary ↔ in-memory round trips, and structurally
//! damaged binary streams are rejected rather than misdecoded.

use cac_trace::fault::{FaultSource, FaultSpec};
use cac_trace::io::{
    read_trace, sniff_format, write_trace, write_trace_binary, BinaryTraceError, BinaryTraceReader,
    TraceFormat, HEADER_LEN,
};
use cac_trace::{MemRef, OpClass, TraceOp};
use proptest::prelude::*;

/// Strategy for one arbitrary (but structurally valid) trace op.
fn arb_op() -> impl Strategy<Value = TraceOp> {
    let reg = prop_oneof![Just(None), (0u8..64).prop_map(Some)];
    (
        any::<u64>(),  // pc
        any::<u64>(),  // addr / target
        0u8..64,       // mandatory register
        reg,           // optional register
        any::<bool>(), // taken / spare
        0usize..10,    // kind selector
    )
        .prop_map(|(pc, addr, r1, r2, flag, kind)| match kind {
            0..=2 => TraceOp::load(pc, addr, r1, r2),
            3 | 4 => TraceOp::store(pc, addr, r1, r2),
            5 | 6 => TraceOp::branch(pc, flag, addr, r2),
            7 => TraceOp::compute(pc, OpClass::IntAlu, r1, [r2, None]),
            8 => TraceOp::compute(pc, OpClass::FpMul, r1, [r2, Some(r1)]),
            _ => TraceOp::compute(pc, OpClass::IntDiv, r1, [None, r2]),
        })
}

proptest! {
    /// in-memory → binary → in-memory is the identity.
    #[test]
    fn binary_round_trip(ops in proptest::collection::vec(arb_op(), 0..300)) {
        let bytes = write_trace_binary(Vec::new(), ops.iter().copied()).unwrap();
        prop_assert_eq!(sniff_format(&bytes), TraceFormat::Binary);
        let back: Result<Vec<TraceOp>, _> =
            BinaryTraceReader::new(&bytes[..]).unwrap().collect();
        prop_assert_eq!(back.unwrap(), ops);
    }

    /// in-memory → text → binary → text → in-memory is the identity:
    /// the two formats encode exactly the same information.
    #[test]
    fn text_binary_text_round_trip(ops in proptest::collection::vec(arb_op(), 0..200)) {
        let mut text = Vec::new();
        write_trace(&mut text, ops.iter().copied()).unwrap();
        let from_text: Vec<TraceOp> =
            read_trace(&text[..]).map(Result::unwrap).collect();
        prop_assert_eq!(&from_text, &ops);

        let bytes = write_trace_binary(Vec::new(), from_text.iter().copied()).unwrap();
        let from_binary: Vec<TraceOp> =
            BinaryTraceReader::new(&bytes[..]).unwrap().map(Result::unwrap).collect();
        prop_assert_eq!(&from_binary, &ops);

        let mut text2 = Vec::new();
        write_trace(&mut text2, from_binary.iter().copied()).unwrap();
        prop_assert_eq!(text, text2);
    }

    /// Truncating a valid stream anywhere either yields a clean prefix
    /// (cut on a record boundary) or ends with exactly one
    /// `Truncated` error — never garbage ops beyond the damage point.
    #[test]
    fn truncation_never_misdecodes(
        ops in proptest::collection::vec(arb_op(), 1..100),
        cut_permille in 0u64..1000,
    ) {
        let bytes = write_trace_binary(Vec::new(), ops.iter().copied()).unwrap();
        let cut = HEADER_LEN + ((bytes.len() - HEADER_LEN) as u64 * cut_permille / 1000) as usize;
        let results: Vec<_> = BinaryTraceReader::new(&bytes[..cut]).unwrap().collect();
        let decoded: Vec<TraceOp> = results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .copied()
            .collect();
        // Decoded prefix must be a prefix of the original ops.
        prop_assert!(decoded.len() <= ops.len());
        prop_assert_eq!(&decoded[..], &ops[..decoded.len()]);
        if let Some(Err(e)) = results.last() {
            prop_assert!(matches!(e, BinaryTraceError::Truncated { .. }), "{}", e);
        }
    }

    /// Truncating a valid stream anywhere never misdecodes through the
    /// chunked ref path either: whatever it delivers is a prefix of the
    /// clean stream's reference projection.
    #[test]
    fn truncation_never_misdecodes_ref_paths(
        ops in proptest::collection::vec(arb_op(), 1..100),
        cut_permille in 0u64..1000,
        chunk in 1usize..200,
    ) {
        let bytes = write_trace_binary(Vec::new(), ops.iter().copied()).unwrap();
        let clean_refs: Vec<MemRef> = ops.iter().filter_map(TraceOp::mem_ref).collect();
        let cut = HEADER_LEN + ((bytes.len() - HEADER_LEN) as u64 * cut_permille / 1000) as usize;

        // Chunked ref path.
        let mut reader = BinaryTraceReader::new(&bytes[..cut]).unwrap();
        let mut buf = Vec::new();
        let mut refs = Vec::new();
        let err = loop {
            match reader.read_ref_chunk(&mut buf, chunk) {
                Ok(0) => break None,
                Ok(_) => refs.extend_from_slice(&buf),
                Err(e) => { refs.extend_from_slice(&buf); break Some(e) }
            }
        };
        prop_assert!(refs.len() <= clean_refs.len());
        prop_assert_eq!(&refs[..], &clean_refs[..refs.len()]);
        if let Some(ref e) = err {
            prop_assert!(matches!(e, BinaryTraceError::Truncated { .. }), "{}", e);
        }
    }

    /// Lenient mode on a clean stream is exactly strict mode: same
    /// ops, nothing skipped — it never misdecodes a clean block.
    #[test]
    fn lenient_matches_strict_on_clean_input(
        ops in proptest::collection::vec(arb_op(), 0..300),
    ) {
        let bytes = write_trace_binary(Vec::new(), ops.iter().copied()).unwrap();
        let mut reader = BinaryTraceReader::new_lenient(&bytes[..]).unwrap();
        let back: Vec<TraceOp> = (&mut reader).map(Result::unwrap).collect();
        prop_assert_eq!(back, ops);
        prop_assert!(!reader.skipped().any());
    }

    /// Under seeded bit-flip injection, lenient decode (a) never
    /// fails the stream, (b) accounts for every record exactly —
    /// decoded + header-claimed-skipped = written, whenever every
    /// damaged region left its block header intact — and (c) never
    /// fabricates more records than were written.
    #[test]
    fn lenient_skip_counts_are_exact_under_fault_injection(
        seed in 0u64..1000,
        flip_ppm in 50u32..400,
    ) {
        use cac_trace::SpecBenchmark;
        let ops: Vec<TraceOp> = SpecBenchmark::Swim.generator(seed).take(40_000).collect();
        let clean = write_trace_binary(Vec::new(), ops.iter().copied()).unwrap();
        let spec = FaultSpec { seed, flip_ppm, ..FaultSpec::default() };
        let mut damaged = Vec::new();
        std::io::Read::read_to_end(
            &mut FaultSource::new(&clean[..], spec),
            &mut damaged,
        ).unwrap();
        // Keep the 8-byte file header intact: lenient mode still
        // requires an identifiable file.
        damaged[..HEADER_LEN].copy_from_slice(&clean[..HEADER_LEN]);

        let mut reader = BinaryTraceReader::new_lenient(&damaged[..]).unwrap();
        let mut decoded = 0u64;
        let mut buf = Vec::new();
        while reader.read_ref_chunk(&mut buf, 4096).unwrap() > 0 {
            decoded += buf.len() as u64;
        }
        let skip = reader.skipped();
        let total_mem = ops.iter().filter(|o| o.mem_ref().is_some()).count() as u64;
        // Never fabricates records beyond the clean stream's content.
        prop_assert!(decoded <= total_mem);
        prop_assert!(reader.ops_decoded() <= ops.len() as u64);
        // If nothing needed skipping, the decode was complete; if
        // something was lost, the tally says so. (Exact per-record
        // accounting under payload-confined damage is proven by
        // `payload_damage_accounting_is_exact`; a flipped *header*
        // byte can forge the claimed record count, so only block/byte
        // tallies are meaningful here.)
        if skip.blocks == 0 {
            prop_assert_eq!(decoded, total_mem);
            prop_assert_eq!(reader.ops_decoded(), ops.len() as u64);
        } else {
            prop_assert!(skip.bytes > 0 || skip.records > 0);
        }
    }

    /// Payload-confined damage (block headers left alone) gives exact
    /// record accounting: decoded + skipped == written.
    #[test]
    fn payload_damage_accounting_is_exact(seed in 0u64..500) {
        use cac_trace::SpecBenchmark;
        let ops: Vec<TraceOp> = SpecBenchmark::Tomcatv.generator(seed).take(40_000).collect();
        let mut bytes = write_trace_binary(Vec::new(), ops.iter().copied()).unwrap();
        // Walk the block structure and flip one payload byte per block
        // on a seeded coin toss, never touching headers.
        let mut pos = HEADER_LEN;
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || { state ^= state << 13; state ^= state >> 7; state ^= state << 17; state };
        while pos + 16 <= bytes.len() {
            let payload = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap()) as usize;
            if next() % 2 == 0 && payload > 0 {
                let off = pos + 16 + (next() as usize % payload);
                bytes[off] ^= 1 << (next() % 8);
            }
            pos += 16 + payload;
        }
        let mut reader = BinaryTraceReader::new_lenient(&bytes[..]).unwrap();
        let decoded: Vec<TraceOp> = (&mut reader).map(Result::unwrap).collect();
        let skip = reader.skipped();
        prop_assert_eq!(
            decoded.len() as u64 + skip.records,
            ops.len() as u64,
            "blocks skipped: {}", skip.blocks
        );
        // Decoded records are genuine: each surviving block's run
        // matches the original stream (checked as subsequence).
        let mut it = ops.iter();
        for op in &decoded {
            prop_assert!(it.any(|o| o == op), "fabricated record {:?}", op);
        }
    }

    /// A flipped version byte is always rejected at open.
    #[test]
    fn wrong_version_rejected(ops in proptest::collection::vec(arb_op(), 0..20), v in 3u8..255) {
        let mut bytes = write_trace_binary(Vec::new(), ops.iter().copied()).unwrap();
        bytes[4] = v;
        prop_assert!(matches!(
            BinaryTraceReader::new(&bytes[..]),
            Err(BinaryTraceError::UnsupportedVersion(got)) if got == v
        ));
    }

    /// Any corruption of the magic is rejected as a foreign stream.
    #[test]
    fn corrupt_magic_rejected(byte in 0usize..4, xor in 1u16..256) {
        let mut bytes = write_trace_binary(Vec::new(), std::iter::empty()).unwrap();
        bytes[byte] ^= xor as u8;
        prop_assert!(matches!(
            BinaryTraceReader::new(&bytes[..]),
            Err(BinaryTraceError::BadMagic)
        ));
        prop_assert_eq!(sniff_format(&bytes), TraceFormat::Text);
    }
}
