//! Shared runner for the paper's Tables 2 and 3: IPC and load miss ratio
//! for every benchmark under the six measured configurations.

use cac_core::IndexSpec;
use cac_cpu::{CpuConfig, Processor};
use cac_trace::spec::SpecBenchmark;
use cac_trace::TraceOp;

/// Measured results for one benchmark (mirrors the paper's Table 2 column
/// layout).
#[derive(Debug, Clone, Copy)]
pub struct Table2Row {
    /// Benchmark.
    pub bench: SpecBenchmark,
    /// 16KB conventional IPC.
    pub conv16_ipc: f64,
    /// 16KB conventional load miss ratio (%).
    pub conv16_miss: f64,
    /// 8KB conventional IPC, no address prediction.
    pub conv8_ipc: f64,
    /// 8KB conventional IPC with address prediction.
    pub conv8_ipc_pred: f64,
    /// 8KB conventional load miss ratio (%).
    pub conv8_miss: f64,
    /// 8KB I-Poly (XOR off the critical path) IPC, no prediction.
    pub ipoly_ipc: f64,
    /// 8KB I-Poly load miss ratio (%).
    pub ipoly_miss: f64,
    /// 8KB I-Poly with XOR on the critical path, no prediction.
    pub ipoly_cp_ipc: f64,
    /// 8KB I-Poly with XOR on the critical path and address prediction.
    pub ipoly_cp_ipc_pred: f64,
}

fn run_one(trace: &[TraceOp], config: CpuConfig, ops: u64) -> (f64, f64) {
    let mut cpu = Processor::new(config).expect("valid configuration");
    let stats = cpu.run(trace.iter().copied(), ops);
    (stats.ipc(), stats.load_miss_ratio_pct())
}

/// Instruction slack beyond the simulated-instruction target, so a
/// trace materialised once (and shared by every processor
/// configuration) never runs dry inside the pipeline's in-flight
/// window — which would change drain behaviour relative to an endless
/// generator. Shared by every CPU-level driver that materialises a
/// trace (`cac options` uses it too).
pub const TRACE_SLACK: usize = 4096;

/// Runs all six configurations of the paper's Table 2 for one
/// benchmark, simulating `ops` instructions per configuration. The
/// benchmark's instruction stream is generated ONCE and shared by all
/// six (the configurations differ only on the processor side).
pub fn run_benchmark(b: SpecBenchmark, ops: u64, seed: u64) -> Table2Row {
    let trace: Vec<TraceOp> = b.generator(seed).take(ops as usize + TRACE_SLACK).collect();
    let conv16 = run_one(
        &trace,
        CpuConfig::paper_16kb(IndexSpec::modulo()).unwrap(),
        ops,
    );
    let conv8 = run_one(
        &trace,
        CpuConfig::paper_baseline(IndexSpec::modulo()).unwrap(),
        ops,
    );
    let conv8_pred = run_one(
        &trace,
        CpuConfig::paper_baseline(IndexSpec::modulo())
            .unwrap()
            .with_address_prediction(),
        ops,
    );
    let ipoly = run_one(
        &trace,
        CpuConfig::paper_baseline(IndexSpec::ipoly_skewed()).unwrap(),
        ops,
    );
    let ipoly_cp = run_one(
        &trace,
        CpuConfig::paper_baseline(IndexSpec::ipoly_skewed())
            .unwrap()
            .with_xor_in_critical_path(),
        ops,
    );
    let ipoly_cp_pred = run_one(
        &trace,
        CpuConfig::paper_baseline(IndexSpec::ipoly_skewed())
            .unwrap()
            .with_xor_in_critical_path()
            .with_address_prediction(),
        ops,
    );
    Table2Row {
        bench: b,
        conv16_ipc: conv16.0,
        conv16_miss: conv16.1,
        conv8_ipc: conv8.0,
        conv8_ipc_pred: conv8_pred.0,
        conv8_miss: conv8.1,
        ipoly_ipc: ipoly.0,
        ipoly_miss: ipoly.1,
        ipoly_cp_ipc: ipoly_cp.0,
        ipoly_cp_ipc_pred: ipoly_cp_pred.0,
    }
}

/// Runs the full 18-benchmark suite.
pub fn run_all(ops: u64, seed: u64) -> Vec<Table2Row> {
    SpecBenchmark::all()
        .into_iter()
        .map(|b| run_benchmark(b, ops, seed))
        .collect()
}

/// Summary statistics over a set of rows.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Geometric-mean IPC per configuration (paper's averaging).
    pub conv16_ipc: f64,
    /// Arithmetic-mean miss ratio (%).
    pub conv16_miss: f64,
    /// See [`Table2Row`].
    pub conv8_ipc: f64,
    /// See [`Table2Row`].
    pub conv8_ipc_pred: f64,
    /// See [`Table2Row`].
    pub conv8_miss: f64,
    /// See [`Table2Row`].
    pub ipoly_ipc: f64,
    /// See [`Table2Row`].
    pub ipoly_miss: f64,
    /// See [`Table2Row`].
    pub ipoly_cp_ipc: f64,
    /// See [`Table2Row`].
    pub ipoly_cp_ipc_pred: f64,
}

/// Computes the paper's averages: geometric mean for IPC, arithmetic mean
/// for miss ratios.
pub fn summarize(rows: &[&Table2Row]) -> Summary {
    let g = |f: fn(&Table2Row) -> f64| {
        crate::geometric_mean(&rows.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let a = |f: fn(&Table2Row) -> f64| {
        crate::arithmetic_mean(&rows.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    Summary {
        conv16_ipc: g(|r| r.conv16_ipc),
        conv16_miss: a(|r| r.conv16_miss),
        conv8_ipc: g(|r| r.conv8_ipc),
        conv8_ipc_pred: g(|r| r.conv8_ipc_pred),
        conv8_miss: a(|r| r.conv8_miss),
        ipoly_ipc: g(|r| r.ipoly_ipc),
        ipoly_miss: a(|r| r.ipoly_miss),
        ipoly_cp_ipc: g(|r| r.ipoly_cp_ipc),
        ipoly_cp_ipc_pred: g(|r| r.ipoly_cp_ipc_pred),
    }
}
