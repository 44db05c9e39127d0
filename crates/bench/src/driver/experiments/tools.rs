//! Trace tooling: `cac trace gen`, `cac trace convert`,
//! `cac trace info` and `cac replay`.
//!
//! This is the external-trace workflow the binary format exists for:
//! generate (or import) a trace file, inspect it, convert between the
//! text interchange format and the compact binary format, and stream it
//! through a configurable cache at batched-replay speed.

use super::common::{parse_benchmark, parse_geometry, parse_scheme};
use crate::driver::args::ExpArgs;
use crate::driver::report::{Report, Table, Value};
use crate::driver::DriverError;
use cac_sim::cache::Cache;
use cac_sim::replay::run_cache_source;
use cac_trace::fault::{FaultSource, FaultSpec};
use cac_trace::io::{
    open_trace, write_trace, write_trace_columnar, AnyTraceReader, BinaryTraceWriter, ChunkSource,
    ColumnarTraceWriter, DecodeMode, TraceFormat, DEFAULT_CHUNK_OPS,
};
use cac_trace::OpClass;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::time::Instant;

/// Parses the shared `--mode strict|lenient` trace-decode flag.
pub(super) fn parse_decode_mode(s: &str) -> Result<DecodeMode, DriverError> {
    match s {
        "strict" => Ok(DecodeMode::Strict),
        "lenient" => Ok(DecodeMode::Lenient),
        other => Err(DriverError::Usage(format!(
            "unknown decode mode {other:?}; valid: strict, lenient"
        ))),
    }
}

/// Parses a boolean-ish experiment flag.
pub(super) fn parse_bool(name: &str, s: &str) -> Result<bool, DriverError> {
    match s {
        "true" | "yes" | "1" => Ok(true),
        "false" | "no" | "0" | "" => Ok(false),
        other => Err(DriverError::Usage(format!(
            "--{name} expects true or false, got {other:?}"
        ))),
    }
}

fn parse_file_format(s: &str) -> Result<TraceFormat, DriverError> {
    match s {
        "binary" => Ok(TraceFormat::Binary),
        "text" => Ok(TraceFormat::Text),
        "columnar" => Ok(TraceFormat::Columnar),
        other => Err(DriverError::Usage(format!(
            "unknown trace format {other:?}; valid: binary, text, columnar"
        ))),
    }
}

/// Opens a trace file of any format through [`open_trace`].
pub(super) fn open_trace_file(
    path: &str,
    mode: DecodeMode,
) -> Result<AnyTraceReader<File>, DriverError> {
    let file =
        File::open(path).map_err(|e| DriverError::Input(format!("cannot open {path}: {e}")))?;
    open_trace(file, mode).map_err(|e| DriverError::Input(format!("{path}: {e}")))
}

fn format_name(f: TraceFormat) -> &'static str {
    match f {
        TraceFormat::Binary => "binary",
        TraceFormat::Columnar => "columnar",
        TraceFormat::Text => "text",
    }
}

pub(super) fn trace_gen(a: &ExpArgs) -> Result<Report, DriverError> {
    let bench = parse_benchmark(a.str("bench"))?;
    let ops = a.u64("ops")?;
    let seed = a.u64("seed")?;
    let out = a.str("out");
    if out.is_empty() {
        return Err(DriverError::Usage(
            "--out is required (path of the trace file to write)".into(),
        ));
    }
    let format = parse_file_format(a.str("format"))?;
    let inject = if a.is_set("inject") {
        Some(FaultSpec::parse(a.str("inject")).map_err(DriverError::Usage)?)
    } else {
        None
    };

    let file =
        File::create(out).map_err(|e| DriverError::Input(format!("cannot create {out}: {e}")))?;
    let gen = bench.generator(seed).take(ops as usize);
    // The clean encoding is staged in memory so fault injection can
    // damage the *encoded* bytes (the failure mode lenient decode and
    // `trace info --verify` exist for), not the op stream.
    let mut clean: Vec<u8> = Vec::new();
    match format {
        TraceFormat::Binary => {
            let mut w = BinaryTraceWriter::new(&mut clean)?;
            w.write_all(gen)?;
            w.finish()?;
        }
        TraceFormat::Columnar => {
            write_trace_columnar(&mut clean, gen)?;
        }
        TraceFormat::Text => {
            write_trace(&mut clean, gen)?;
        }
    }
    let mut flips = 0u64;
    let mut w = BufWriter::new(file);
    match inject {
        None => w.write_all(&clean)?,
        Some(spec) => {
            let mut faulty = FaultSource::new(&clean[..], spec);
            // Injected IO errors are transient by design; surface them
            // as a note-worthy count rather than aborting the write.
            let mut buf = [0u8; 8192];
            loop {
                match faulty.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => w.write_all(&buf[..n])?,
                    Err(_) => continue,
                }
            }
            flips = faulty.flips();
        }
    }
    w.flush()?;
    let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    let mut report = Report::new("trace gen")
        .param("bench", bench.name())
        .param("ops", ops)
        .param("seed", seed)
        .param("out", out)
        .param("format", format_name(format))
        .table(
            Table::new("written", &["file", "format", "ops", "bytes", "bytes/op"]).row(vec![
                Value::s(out),
                Value::s(format_name(format)),
                Value::u(ops),
                Value::u(bytes),
                Value::f(bytes as f64 / ops.max(1) as f64, 2),
            ]),
        );
    if a.is_set("inject") {
        report = report
            .param("inject", a.str("inject"))
            .table(
                Table::new("injected faults", &["fault", "value"])
                    .row(vec![Value::s("bytes with a flipped bit"), Value::u(flips)])
                    .row(vec![
                        Value::s("truncated at"),
                        Value::u(bytes.min(clean.len() as u64)),
                    ]),
            )
            .note("this file is deliberately damaged; replay it with --mode lenient");
    }
    Ok(report)
}

pub(super) fn trace_convert(a: &ExpArgs) -> Result<Report, DriverError> {
    let input = a.str("input");
    let output = a.str("output");
    if input.is_empty() || output.is_empty() {
        return Err(DriverError::Usage(
            "usage: cac trace convert <input> <output> [--to binary|text]".into(),
        ));
    }
    let mut source = open_trace_file(input, DecodeMode::Strict)?;
    let to = if a.is_set("to") {
        parse_file_format(a.str("to"))?
    } else {
        // Default: binary becomes text, everything else becomes binary.
        match source.format() {
            TraceFormat::Binary => TraceFormat::Text,
            TraceFormat::Columnar | TraceFormat::Text => TraceFormat::Binary,
        }
    };

    let file = File::create(output)
        .map_err(|e| DriverError::Failed(format!("cannot create {output}: {e}")))?;
    let mut buf = Vec::with_capacity(DEFAULT_CHUNK_OPS);
    let mut ops = 0u64;
    match to {
        TraceFormat::Binary => {
            let mut w = BinaryTraceWriter::new(file)?;
            while source.read_chunk(&mut buf, DEFAULT_CHUNK_OPS)? > 0 {
                ops += buf.len() as u64;
                w.write_all(buf.iter().copied())?;
            }
            w.finish()?;
        }
        TraceFormat::Columnar => {
            let mut w = ColumnarTraceWriter::new(BufWriter::new(file))?;
            while source.read_chunk(&mut buf, DEFAULT_CHUNK_OPS)? > 0 {
                ops += buf.len() as u64;
                w.write_all(buf.iter().copied())?;
            }
            w.finish()?.flush()?;
        }
        TraceFormat::Text => {
            let mut w = BufWriter::new(file);
            while source.read_chunk(&mut buf, DEFAULT_CHUNK_OPS)? > 0 {
                ops += buf.len() as u64;
                write_trace(&mut w, buf.iter().copied())?;
            }
            w.flush()?;
        }
    }
    let in_bytes = std::fs::metadata(input).map(|m| m.len()).unwrap_or(0);
    let out_bytes = std::fs::metadata(output).map(|m| m.len()).unwrap_or(0);
    Ok(Report::new("trace convert")
        .param("input", input)
        .param("output", output)
        .param("to", format_name(to))
        .table(
            Table::new("converted", &["from", "to", "ops", "in bytes", "out bytes"]).row(vec![
                Value::s(format_name(source.format())),
                Value::s(format_name(to)),
                Value::u(ops),
                Value::u(in_bytes),
                Value::u(out_bytes),
            ]),
        ))
}

pub(super) fn trace_info(a: &ExpArgs) -> Result<Report, DriverError> {
    let input = a.str("input");
    if input.is_empty() {
        return Err(DriverError::Usage("usage: cac trace info <file>".into()));
    }
    let verify = parse_bool("verify", a.str("verify"))?;
    // An audit decodes leniently so damage is *counted* instead of
    // aborting the summary at the first bad block; a plain info run
    // stays strict and reports the first decode error as an input
    // error.
    let mode = if verify {
        DecodeMode::Lenient
    } else {
        DecodeMode::Strict
    };
    let mut source = open_trace_file(input, mode)?;
    let format = source.format();

    let mut buf = Vec::with_capacity(DEFAULT_CHUNK_OPS);
    let mut total = 0u64;
    let mut loads = 0u64;
    let mut stores = 0u64;
    let mut branches = 0u64;
    let mut taken = 0u64;
    let mut addr_min = u64::MAX;
    let mut addr_max = 0u64;
    while source.read_chunk(&mut buf, DEFAULT_CHUNK_OPS)? > 0 {
        total += buf.len() as u64;
        for op in &buf {
            match op.class {
                OpClass::Load => loads += 1,
                OpClass::Store => stores += 1,
                OpClass::Branch => {
                    branches += 1;
                    if op.taken {
                        taken += 1;
                    }
                }
                _ => {}
            }
            if let Some(addr) = op.addr {
                addr_min = addr_min.min(addr);
                addr_max = addr_max.max(addr);
            }
        }
    }
    let bytes = std::fs::metadata(input).map(|m| m.len()).unwrap_or(0);
    let mem = loads + stores;
    let mut table = Table::new("trace summary", &["field", "value"])
        .row(vec![Value::s("format"), Value::s(format_name(format))])
        .row(vec![Value::s("bytes"), Value::u(bytes)])
        .row(vec![Value::s("ops"), Value::u(total)])
        .row(vec![Value::s("loads"), Value::u(loads)])
        .row(vec![Value::s("stores"), Value::u(stores)])
        .row(vec![Value::s("branches"), Value::u(branches)])
        .row(vec![Value::s("branches taken"), Value::u(taken)])
        .row(vec![
            Value::s("compute ops"),
            Value::u(total - mem - branches),
        ]);
    if mem > 0 {
        table.push_row(vec![
            Value::s("address range"),
            Value::s(format!("{addr_min:#x}..{addr_max:#x}")),
        ]);
    }
    let mut report = Report::new(format!("trace info: {input}"))
        .param("input", input)
        .table(table);
    if let AnyTraceReader::Columnar(r) = &source {
        // Column-split storage: report where the bytes went and what
        // the delta/bit-packing bought. The "unpacked" reference is the
        // fixed-width record layout the columns replace: per record 1
        // tag, 8 pc, 8 target and 3 register bytes, plus 8 address
        // bytes per memory reference.
        let (columns, payload_bytes, blocks) =
            (r.column_bytes(), r.payload_bytes(), r.blocks_decoded());
        let refs = r.refs_decoded();
        let unpacked = total * (1 + 8 + 8 + 3) + refs * 8;
        let mut cols = Table::new(
            "columnar storage",
            &["column", "bytes", "bytes/record", "share %"],
        );
        let per = |b: u64, n: u64| Value::f(b as f64 / n.max(1) as f64, 3);
        let share = |b: u64| Value::f(100.0 * b as f64 / payload_bytes.max(1) as f64, 1);
        for (name, bytes, records) in [
            ("tags", columns.tags, total),
            ("pc deltas", columns.pc, total),
            ("addr deltas", columns.addr, refs),
            ("branch target deltas", columns.target, total),
            ("registers", columns.regs, total),
        ] {
            cols.push_row(vec![
                Value::s(name),
                Value::u(bytes),
                per(bytes, records),
                share(bytes),
            ]);
        }
        cols.push_row(vec![
            Value::s("total payload"),
            Value::u(payload_bytes),
            per(payload_bytes, total),
            Value::f(100.0, 1),
        ]);
        report = report.table(cols).table(
            Table::new("block index", &["field", "value"])
                .row(vec![Value::s("blocks decoded"), Value::u(blocks)])
                .row(vec![Value::s("index entries"), Value::u(r.index_entries())])
                .row(vec![
                    Value::s("records/block (mean)"),
                    Value::f(total as f64 / blocks.max(1) as f64, 1),
                ])
                .row(vec![
                    Value::s("payload bytes/block (mean)"),
                    Value::f(payload_bytes as f64 / blocks.max(1) as f64, 1),
                ])
                .row(vec![
                    Value::s("compression vs fixed-width"),
                    Value::s(format!(
                        "{:.2}x ({} -> {} bytes)",
                        unpacked as f64 / payload_bytes.max(1) as f64,
                        unpacked,
                        payload_bytes
                    )),
                ]),
        );
    }
    if verify {
        let skip = source.skipped();
        let verdict = if skip.any() { "DAMAGED" } else { "clean" };
        report = report.param("verify", "true").table(
            Table::new("verification", &["field", "value"])
                .row(vec![Value::s("verdict"), Value::s(verdict)])
                .row(vec![Value::s("records decoded"), Value::u(total)])
                .row(vec![Value::s("blocks skipped"), Value::u(skip.blocks)])
                .row(vec![Value::s("records skipped"), Value::u(skip.records)])
                .row(vec![Value::s("bytes skipped"), Value::u(skip.bytes)]),
        );
        if skip.any() {
            report = report
                .flag_failures(skip.blocks.max(1))
                .note("verification found damage; replay this file with --mode lenient");
        } else {
            report = report.note("verification passed: every block framed and checksummed");
        }
    }
    Ok(report)
}

pub(super) fn replay(a: &ExpArgs) -> Result<Report, DriverError> {
    let trace = a.str("trace");
    if trace.is_empty() {
        return Err(DriverError::Usage(
            "--trace is required (a file produced by `cac trace gen`/`convert`)".into(),
        ));
    }
    let scheme = parse_scheme(a.str("scheme"))?;
    let geom = parse_geometry(a)?;
    let mode = parse_decode_mode(a.str("mode"))?;
    let mut cache = Cache::build(geom, scheme.clone())?;

    let mut source = open_trace_file(trace, mode)?;
    let format = source.format();
    let start = Instant::now();
    let stats = run_cache_source(&mut cache, &mut source)?;
    let skip = source.skipped();
    let elapsed = start.elapsed();

    let melem_s = stats.accesses as f64 / elapsed.as_secs_f64() / 1e6;
    let table = Table::new("replay statistics", &["counter", "value"])
        .row(vec![Value::s("accesses"), Value::u(stats.accesses)])
        .row(vec![Value::s("reads"), Value::u(stats.reads)])
        .row(vec![Value::s("writes"), Value::u(stats.writes)])
        .row(vec![Value::s("misses"), Value::u(stats.misses)])
        .row(vec![
            Value::s("miss ratio %"),
            Value::f(stats.miss_ratio() * 100.0, 3),
        ])
        .row(vec![
            Value::s("read miss ratio %"),
            Value::f(stats.read_miss_ratio() * 100.0, 3),
        ])
        .row(vec![Value::s("evictions"), Value::u(stats.evictions)]);
    let mut report = Report::new(format!(
        "replay: {trace} ({}) through {scheme} on {geom}",
        format_name(format)
    ))
    .param("trace", trace)
    .param("scheme", scheme.name())
    .param("size", geom.capacity())
    .param("line", geom.block())
    .param("ways", geom.ways())
    .param("mode", a.str("mode"))
    .table(table)
    .note(format!(
        "replayed {} references in {:.1} ms ({melem_s:.1} Melem/s streaming)",
        stats.accesses,
        elapsed.as_secs_f64() * 1e3
    ));
    if skip.any() {
        // A lenient replay that had to drop data completes, but the
        // numbers are partial: flag it so `cac` exits 1.
        report = report
            .table(
                Table::new("skipped (damaged input)", &["what", "count"])
                    .row(vec![Value::s("blocks"), Value::u(skip.blocks)])
                    .row(vec![Value::s("records"), Value::u(skip.records)])
                    .row(vec![Value::s("bytes"), Value::u(skip.bytes)]),
            )
            .flag_failures(skip.blocks.max(1))
            .note("input was damaged; statistics cover the decodable blocks only");
    }
    Ok(report)
}
