//! `table2-ipc`: the paper's Table 2 grid, 18 SPEC95 models × the six
//! processor configurations `cac_bench::table2::run_benchmark` runs.
//!
//! Closed loop, one cell at a time on one thread. Instruction-stream
//! generation is inside the timed phase because `cac table2` pays it on
//! every run.

use crate::measure::{quantile, ratio, repeat_setup, time, Ctx, Digest, Outcome, Scale};
use crate::spans::span;
use cac_bench::table2::TRACE_SLACK;
use cac_core::IndexSpec;
use cac_cpu::dcache::LoadResponse;
use cac_cpu::{CpuConfig, CpuStats, DataCache, Processor};
use cac_trace::spec::{PaperRow, SpecBenchmark};
use cac_trace::TraceOp;

/// Simulated instructions per cell: the benchmark's size, and the
/// `cac table2` default.
fn ops(ctx: &Ctx) -> u64 {
    match ctx.scale {
        Scale::Bench => 60_000,
        Scale::Full => 200_000,
    }
}

/// The six configurations, in the order `run_benchmark` runs them.
pub const CONFIGS: [&str; 6] = [
    "conv16",
    "conv8",
    "conv8-pred",
    "ipoly",
    "ipoly-cp",
    "ipoly-cp-pred",
];

fn cpu_configs() -> Vec<CpuConfig> {
    let conv8 = || CpuConfig::paper_baseline(IndexSpec::modulo()).expect("paper config");
    let ipoly = || CpuConfig::paper_baseline(IndexSpec::ipoly_skewed()).expect("paper config");
    vec![
        CpuConfig::paper_16kb(IndexSpec::modulo()).expect("paper config"),
        conv8(),
        conv8().with_address_prediction(),
        ipoly(),
        ipoly().with_xor_in_critical_path(),
        ipoly()
            .with_xor_in_critical_path()
            .with_address_prediction(),
    ]
}

/// Paper IPC for config `c` of a row.
fn paper_ipc(p: &PaperRow, c: usize) -> f64 {
    [
        p.conv16_ipc,
        p.conv8_ipc,
        p.conv8_ipc_pred,
        p.ipoly_ipc,
        p.ipoly_cp_ipc,
        p.ipoly_cp_ipc_pred,
    ][c]
}

/// Paper load miss % for config `c`, where the table has one.
fn paper_miss(p: &PaperRow, c: usize) -> Option<f64> {
    match c {
        0 => Some(p.conv16_miss),
        1 => Some(p.conv8_miss),
        3 => Some(p.ipoly_miss),
        _ => None,
    }
}

fn generate(b: SpecBenchmark, seed: u64, ops: u64) -> Vec<TraceOp> {
    b.generator(seed).take(ops as usize + TRACE_SLACK).collect()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let ops = ops(ctx);
    let configs = repeat_setup(&mut out, |_| {
        let cfgs = cpu_configs();
        for c in &cfgs {
            Processor::new(c.clone()).expect("paper config builds");
        }
        cfgs
    });

    let benches = SpecBenchmark::all();
    let mut first: Vec<CpuStats> = Vec::new();
    let mut cell_ms: Vec<f64> = Vec::new();
    let mut cfg_busy = [0.0f64; 6];
    crate::measure::timed_loop(ctx, &mut out, |i, traced| {
        let mut digest = Digest::default();
        let mut stats = Vec::with_capacity(benches.len() * configs.len());
        let (_, wall) = time(|| {
            for b in benches {
                let trace = span("trace.spec", || generate(b, ctx.seed, ops));
                for (c, cfg) in configs.iter().enumerate() {
                    let (s, secs) = time(|| {
                        span("cpu", || {
                            let mut cpu = Processor::new(cfg.clone()).expect("paper config");
                            cpu.run(trace.iter().copied(), ops)
                        })
                    });
                    if traced {
                        cfg_busy[c] += secs;
                    } else if i > 0 {
                        cell_ms.push(secs * 1e3);
                    }
                    stats.push(s);
                }
            }
        });
        for s in &stats {
            digest.feed(&format!("{s:?}"));
        }
        if first.is_empty() {
            first = stats;
        }
        (wall, digest)
    });

    // Output checks and the simulated figures, from the first iteration.
    let mut ipc_err = Vec::new();
    let mut miss_err = Vec::new();
    let mut insts = 0u64;
    let mut cycles = 0u64;
    let mut mem_ops = 0u64;
    for (i, s) in first.iter().enumerate() {
        let (b, c) = (benches[i / CONFIGS.len()], i % CONFIGS.len());
        out.checks.check(s.instructions >= ops && s.cycles > 0, || {
            format!(
                "{} {}: committed {} of {ops} instructions in {} cycles",
                b.name(),
                CONFIGS[c],
                s.instructions,
                s.cycles
            )
        });
        let p = b.paper_row();
        ipc_err.push((s.ipc() - paper_ipc(&p, c)).abs());
        if let Some(m) = paper_miss(&p, c) {
            miss_err.push((s.load_miss_ratio_pct() - m).abs());
        }
        insts += s.instructions;
        cycles += s.cycles;
        mem_ops += s.loads + s.stores;
    }
    let wall = out.wall();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    out.e2e.set(
        "grid_mrefs_per_s",
        "Mref/s",
        ratio(mem_ops as f64 / 1e6, wall),
    );
    out.e2e.set("miss_mae", "pp", mean(&miss_err));
    out.e2e.set(
        "sim_minst_per_s",
        "Minst/s",
        ratio(insts as f64 / 1e6, wall),
    );
    out.e2e.set("cell_p50_ms", "ms", quantile(&cell_ms, 0.5));
    out.e2e.set("cell_p90_ms", "ms", quantile(&cell_ms, 0.9));
    out.e2e.set("cells_timed", "count", cell_ms.len() as f64);
    out.e2e.set("ipc_mae", "IPC", mean(&ipc_err));

    if ctx.traced {
        let spans = crate::measure::span_means(&out);
        let l = &mut out.layers;
        let (gen_busy, _) = spans.get("trace.spec").copied().unwrap_or_default();
        let (cpu_busy, cpu_self) = spans.get("cpu").copied().unwrap_or_default();
        let generated = (benches.len() * (ops as usize + TRACE_SLACK)) as f64;
        l.set("trace.spec.busy_s", "s", gen_busy);
        l.set(
            "trace.spec.mops_per_s",
            "Mop/s",
            ratio(generated / 1e6, gen_busy),
        );
        l.set("cpu.busy_s", "s", cpu_busy);
        l.set("cpu.self_s", "s", cpu_self);
        l.set(
            "cpu.minst_per_s",
            "Minst/s",
            ratio(insts as f64 / 1e6, cpu_busy),
        );
        l.set(
            "cpu.ns_per_cycle",
            "ns",
            ratio(cpu_busy * 1e9, cycles as f64),
        );
        l.set("cpu.cycles", "count", cycles as f64);
        l.set("cpu.ipc", "IPC", ratio(insts as f64, cycles as f64));
        let n = out.traced_walls.len() as f64;
        for (c, name) in CONFIGS.iter().enumerate() {
            let cfg_insts: u64 = first
                .iter()
                .skip(c)
                .step_by(CONFIGS.len())
                .map(|s| s.instructions)
                .sum();
            l.set(
                format!("cpu.{name}.minst_per_s"),
                "Minst/s",
                ratio(cfg_insts as f64 / 1e6, cfg_busy[c] / n),
            );
        }
        l.set("cpu.dcache.mops_per_s", "Mop/s", dcache_rate(ctx, &configs));
        l.set("cpu.cell_p50_ms", "ms", quantile(&cell_ms, 0.5));
        l.set("cpu.cell_p90_ms", "ms", quantile(&cell_ms, 0.9));
        l.set("cpu.ipc_mae", "IPC", mean(&ipc_err));
        l.set("bench.explained_s", "s", gen_busy + cpu_self);
    }
    out
}

/// Memory operations per second driven straight through
/// `DataCache::load`/`store`, every model's trace under every
/// configuration, with the instruction index standing in for the cycle
/// an address becomes ready.
fn dcache_rate(ctx: &Ctx, configs: &[CpuConfig]) -> f64 {
    let mut mem_ops = 0u64;
    let mut busy = 0.0;
    for b in SpecBenchmark::all() {
        let trace = generate(b, ctx.seed, ops(ctx));
        let trace = &trace[..ops(ctx) as usize];
        for cfg in configs {
            let mut dc = DataCache::new(cfg).expect("paper config");
            let (n, secs) = time(|| {
                let mut n = 0u64;
                for (i, op) in trace.iter().enumerate() {
                    match (op.addr, op.is_store()) {
                        (Some(a), true) => dc.store(a),
                        (Some(a), false) => {
                            let r = dc.load(op.pc, a, i as u64);
                            std::hint::black_box(matches!(r, LoadResponse::Blocked));
                        }
                        (None, _) => continue,
                    }
                    n += 1;
                }
                n
            });
            std::hint::black_box(dc.stats());
            mem_ops += n;
            busy += secs;
        }
    }
    ratio(mem_ops as f64 / 1e6, busy)
}
