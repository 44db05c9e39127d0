//! E2–E4 — the paper's Tables 1–3 (`cac table1`, `cac table2`,
//! `cac table3`).
//!
//! Table 1 is a configuration sanity harness; Tables 2 and 3 run the 18
//! SPEC95 workload models through the out-of-order processor under the
//! six measured configurations (16KB/8KB conventional with and
//! without address prediction, skewed I-Poly with the XOR on and off
//! the critical path) and report IPC plus load miss ratio, next to the
//! paper's published rows.

use crate::driver::args::ExpArgs;
use crate::driver::report::{Report, Table, Value};
use crate::driver::DriverError;
use crate::table2::{run_all, summarize, Summary, Table2Row};
use cac_core::IndexSpec;
use cac_cpu::CpuConfig;

pub(super) fn table1(_a: &ExpArgs) -> Result<Report, DriverError> {
    let c = CpuConfig::paper_baseline(IndexSpec::ipoly_skewed()).expect("valid configuration");
    let units = Table::new(
        "functional units and instruction latency",
        &["Functional Unit", "Latency", "Repeat rate"],
    )
    .row(vec![
        Value::s("1 Simple Integer"),
        Value::s("1"),
        Value::s("1"),
    ])
    .row(vec![
        Value::s("1 Complex Integer"),
        Value::s("9/67"),
        Value::s("1/67"),
    ])
    .row(vec![
        Value::s("2 Effective Address"),
        Value::s("1"),
        Value::s("1"),
    ])
    .row(vec![Value::s("1 Simple FP"), Value::s("4"), Value::s("1")])
    .row(vec![
        Value::s("1 FP Multiplication"),
        Value::s("4"),
        Value::s("1"),
    ])
    .row(vec![
        Value::s("1 FP Div and SQR"),
        Value::s("16/35"),
        Value::s("16/35"),
    ]);

    if c.fetch_width != 4 || c.rob_entries != 32 || c.mshrs != 8 {
        return Err(DriverError::Failed(
            "paper baseline drifted from Table 1 / §4 parameters".into(),
        ));
    }
    Ok(
        Report::new("E2 / Table 1: functional units and instruction latency")
            .table(units)
            .note(format!(
                "processor: {}-way fetch/issue/commit, ROB {}, {}+{} physical registers",
                c.fetch_width, c.rob_entries, c.int_phys_regs, c.fp_phys_regs
            ))
            .note(format!(
                "memory: {} ports, {} MSHRs, {} L1, hit {} cycles, miss {} cycles, \
             bus {} cycles/line, BHT {} entries",
                c.mem_ports,
                c.mshrs,
                c.cache_geometry,
                c.hit_latency,
                c.miss_penalty,
                c.bus_cycles_per_line,
                c.bht_entries
            ))
            .note("all Table 1 / §4 parameters verified"),
    )
}

const TABLE2_COLUMNS: [&str; 10] = [
    "bench", "16K", "miss", "8K", "8K+p", "miss", "Hp", "miss", "HpCP", "+pred",
];

fn measured_row(label: &str, r: &Table2Row) -> Vec<Value> {
    vec![
        Value::s(label),
        Value::f(r.conv16_ipc, 2),
        Value::f(r.conv16_miss, 2),
        Value::f(r.conv8_ipc, 2),
        Value::f(r.conv8_ipc_pred, 2),
        Value::f(r.conv8_miss, 2),
        Value::f(r.ipoly_ipc, 2),
        Value::f(r.ipoly_miss, 2),
        Value::f(r.ipoly_cp_ipc, 2),
        Value::f(r.ipoly_cp_ipc_pred, 2),
    ]
}

fn summary_row(label: &str, s: &Summary) -> Vec<Value> {
    vec![
        Value::s(label),
        Value::f(s.conv16_ipc, 2),
        Value::f(s.conv16_miss, 2),
        Value::f(s.conv8_ipc, 2),
        Value::f(s.conv8_ipc_pred, 2),
        Value::f(s.conv8_miss, 2),
        Value::f(s.ipoly_ipc, 2),
        Value::f(s.ipoly_miss, 2),
        Value::f(s.ipoly_cp_ipc, 2),
        Value::f(s.ipoly_cp_ipc_pred, 2),
    ]
}

/// Pushes a measured row followed by the paper's published row.
fn push_with_paper(table: &mut Table, r: &Table2Row) {
    table.push_row(measured_row(r.bench.name(), r));
    let p = r.bench.paper_row();
    table.push_row(vec![
        Value::s("  (paper)"),
        Value::f(p.conv16_ipc, 2),
        Value::f(p.conv16_miss, 2),
        Value::f(p.conv8_ipc, 2),
        Value::f(p.conv8_ipc_pred, 2),
        Value::f(p.conv8_miss, 2),
        Value::f(p.ipoly_ipc, 2),
        Value::f(p.ipoly_miss, 2),
        Value::f(p.ipoly_cp_ipc, 2),
        Value::f(p.ipoly_cp_ipc_pred, 2),
    ]);
}

pub(super) fn table2(a: &ExpArgs) -> Result<Report, DriverError> {
    let ops = a.u64("ops")?;
    let rows = run_all(ops, 12345);
    let mut table = Table::new(
        "IPC and load miss ratio (measured over paper)",
        &TABLE2_COLUMNS,
    );
    for r in &rows {
        push_with_paper(&mut table, r);
    }
    let ints: Vec<_> = rows.iter().filter(|r| !r.bench.is_fp()).collect();
    let fps: Vec<_> = rows.iter().filter(|r| r.bench.is_fp()).collect();
    let all: Vec<_> = rows.iter().collect();
    let summary = Table::new("averages (geo-mean IPC, arith-mean miss)", &TABLE2_COLUMNS)
        .row(summary_row("Int avg", &summarize(&ints)))
        .row(summary_row("Fp avg", &summarize(&fps)))
        .row(summary_row("Combined", &summarize(&all)));

    let conv: Vec<f64> = rows.iter().map(|r| r.conv8_miss).collect();
    let ipoly: Vec<f64> = rows.iter().map(|r| r.ipoly_miss).collect();
    Ok(Report::new(format!(
        "E3 / Table 2: IPC and load miss ratio ({ops} instructions per configuration)"
    ))
    .param("ops", ops)
    .table(table)
    .table(summary)
    .note("paper combined: 1.36 10.47 | 1.27 1.28 16.53 | 1.33 9.68 | 1.29 1.33")
    .note(format!(
        "miss-ratio stddev: conv {:.2} -> ipoly {:.2}  (paper: 18.49 -> 5.16)",
        crate::std_dev(&conv),
        crate::std_dev(&ipoly)
    )))
}

pub(super) fn table3(a: &ExpArgs) -> Result<Report, DriverError> {
    let ops = a.u64("ops")?;
    let rows = run_all(ops, 12345);
    let bad: Vec<_> = rows.iter().filter(|r| r.bench.is_high_conflict()).collect();
    let good: Vec<_> = rows
        .iter()
        .filter(|r| !r.bench.is_high_conflict())
        .collect();
    let mut table = Table::new(
        "high-conflict programs (measured over paper)",
        &TABLE2_COLUMNS,
    );
    for r in &bad {
        push_with_paper(&mut table, r);
    }
    let sb = summarize(&bad);
    let sg = summarize(&good);
    let summary = Table::new("averages", &TABLE2_COLUMNS)
        .row(summary_row("Avg-bad", &sb))
        .row(summary_row("Avg-good", &sg));

    let gain_nopred = (sb.ipoly_cp_ipc / sb.conv8_ipc - 1.0) * 100.0;
    let gain_pred = (sb.ipoly_cp_ipc_pred / sb.conv8_ipc - 1.0) * 100.0;
    let vs_double = (sb.ipoly_cp_ipc_pred / sb.conv16_ipc - 1.0) * 100.0;
    let good_delta = (sg.ipoly_cp_ipc_pred / sg.conv8_ipc - 1.0) * 100.0;
    Ok(Report::new(format!(
        "E4 / Table 3: high-conflict programs ({ops} instructions per configuration)"
    ))
    .param("ops", ops)
    .table(table)
    .table(summary)
    .note("paper Avg-bad:  1.28  30.80 |  1.11  1.13  54.61 |  1.46  14.40 |  1.42  1.49")
    .note("paper Avg-good: 1.38   6.40 |  1.30  1.32   8.91 |  1.30   8.74 |  1.27  1.30")
    .note(format!(
        "bad-program IPC gain over conv-8KB: {gain_nopred:+.1}% without prediction (paper: +27%)"
    ))
    .note(format!(
        "bad-program IPC gain over conv-8KB: {gain_pred:+.1}% with prediction (paper: +33%)"
    ))
    .note(format!(
        "bad-program IPC vs doubling to 16KB: {vs_double:+.1}% (paper: +16%)"
    ))
    .note(format!(
        "good-program IPC change (I-Poly in CP, with prediction): {good_delta:+.1}% \
         (paper: about -1.7% without prediction)"
    )))
}
