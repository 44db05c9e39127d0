//! `org-matrix`: the §2.1 organization matrix (12 organizations) over
//! all 18 SPEC95 models, in the shape `cac organizations` uses: each
//! model's references are generated once and broadcast through one
//! two-worker `Sweep`.

use crate::measure::{ratio, repeat_setup, time, Ctx, Digest, Outcome, Scale};
use crate::spans::span;
use cac_bench::driver::experiments::organization_matrix;
use cac_sim::model::{MemoryModel, ModelStats};
use cac_sim::sweep::Sweep;
use cac_sim::SimConfig;
use cac_trace::kernels::mem_refs;
use cac_trace::spec::SpecBenchmark;
use cac_trace::MemRef;

/// Instructions generated per model (about a third are references):
/// the benchmark's size, and the size of `cac organizations --ops`.
fn ops(ctx: &Ctx) -> usize {
    match ctx.scale {
        Scale::Bench => 500_000,
        Scale::Full => 2_000_000,
    }
}
/// Sweep worker threads.
const WORKERS: usize = 2;

/// Short names of the matrix rows, in `organization_matrix()` order.
pub const ORGS: [&str; 12] = [
    "dm",
    "sa2",
    "sa4",
    "victim",
    "hash-rehash",
    "column-ipoly",
    "stream",
    "jouppi",
    "xor-skew2",
    "ipoly2",
    "ipoly-skew2",
    "fa",
];
/// Rows compared with the paper: 2-way modulo and 2-way skewed I-Poly.
const SA2: usize = 1;
const IPOLY_SKEW2: usize = 10;

fn build(configs: &[SimConfig]) -> Vec<Box<dyn MemoryModel>> {
    configs
        .iter()
        .map(|c| c.build().expect("matrix config builds"))
        .collect()
}

fn generate(b: SpecBenchmark, seed: u64, ops: usize) -> Vec<MemRef> {
    mem_refs(b.generator(seed).take(ops)).collect()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let ops = ops(ctx);
    let configs = repeat_setup(&mut out, |_| {
        let cfgs: Vec<SimConfig> = organization_matrix().into_iter().map(|(_, c)| c).collect();
        std::hint::black_box(build(&cfgs));
        cfgs
    });
    assert_eq!(
        configs.len(),
        ORGS.len(),
        "organization matrix changed shape"
    );

    let benches = SpecBenchmark::all();
    let mut first: Vec<Vec<ModelStats>> = Vec::new();
    let mut refs_per_pass = 0u64;
    crate::measure::timed_loop(ctx, &mut out, |_, _| {
        let mut digest = Digest::default();
        let mut all = Vec::with_capacity(benches.len());
        let mut refs_total = 0u64;
        let (_, wall) = time(|| {
            for b in benches {
                let refs = span("trace.spec", || generate(b, ctx.seed, ops));
                let mut models = build(&configs);
                let stats = span("sim.sweep", || {
                    Sweep::new().workers(WORKERS).run_refs(&mut models, &refs)
                });
                refs_total += refs.len() as u64;
                all.push(stats);
            }
        });
        for s in all.iter().flatten() {
            digest.feed(&format!("{s:?}"));
        }
        if first.is_empty() {
            first = all;
            refs_per_pass = refs_total;
        }
        (wall, digest)
    });

    // Check every sweep cell against a solo `run_refs` of the same
    // model on the same references; the solo replays double as the
    // per-organization rates of the traced run.
    let mut solo_secs = [0.0f64; ORGS.len()];
    let mut engine1_secs = 0.0;
    let mut miss_err = Vec::new();
    for (bi, b) in benches.iter().enumerate() {
        let refs = generate(*b, ctx.seed, ops);
        for (o, cfg) in configs.iter().enumerate() {
            let mut m = cfg.build().expect("matrix config builds");
            let (solo, secs) = time(|| m.run_refs(&refs));
            solo_secs[o] += secs;
            let swept = &first[bi][o];
            out.checks.check(solo == *swept, || {
                format!(
                    "{} {}: sweep stats differ from a solo run_refs",
                    b.name(),
                    ORGS[o]
                )
            });
        }
        if ctx.traced {
            let mut models = build(&configs);
            engine1_secs += time(|| Sweep::new().workers(1).run_refs(&mut models, &refs)).1;
        }
        let p = b.paper_row();
        let pct = |o: usize| first[bi][o].demand.read_miss_ratio() * 100.0;
        miss_err.push((pct(SA2) - p.conv8_miss).abs());
        miss_err.push((pct(IPOLY_SKEW2) - p.ipoly_miss).abs());
    }

    let wall = out.wall();
    let grid = (refs_per_pass * ORGS.len() as u64) as f64;
    out.e2e
        .set("grid_mrefs_per_s", "Mref/s", ratio(grid / 1e6, wall));
    out.e2e.set(
        "miss_mae",
        "pp",
        miss_err.iter().sum::<f64>() / miss_err.len() as f64,
    );

    if ctx.traced {
        let spans = crate::measure::span_means(&out);
        let l = &mut out.layers;
        let (gen_busy, _) = spans.get("trace.spec").copied().unwrap_or_default();
        let (sweep_busy, _) = spans.get("sim.sweep").copied().unwrap_or_default();
        let solo_total: f64 = solo_secs.iter().sum();
        l.set("trace.spec.busy_s", "s", gen_busy);
        l.set(
            "trace.spec.mops_per_s",
            "Mop/s",
            ratio((benches.len() * ops) as f64 / 1e6, gen_busy),
        );
        l.set("sim.sweep.busy_s", "s", sweep_busy);
        l.set("sim.sweep.overhead_s", "s", engine1_secs - solo_total);
        l.set(
            "sim.sweep.efficiency",
            "ratio",
            ratio(solo_total, sweep_busy * WORKERS as f64),
        );
        l.set("sim.model.self_s", "s", solo_total);
        for (o, name) in ORGS.iter().enumerate() {
            l.set(
                format!("sim.model.{name}.mrefs_per_s"),
                "Mref/s",
                ratio(refs_per_pass as f64 / 1e6, solo_secs[o]),
            );
        }
        l.set("bench.explained_s", "s", gen_busy + sweep_busy);
    }
    out
}
