//! Shared measurement plumbing: the timed loop, order statistics,
//! output checks, the digest of simulated statistics and the metric
//! sink every workload fills.

use crate::spans;
use std::collections::BTreeMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Timed iterations every run makes at least, whatever `--seconds` is.
pub const MIN_ITERATIONS: usize = 3;
/// Set-up samples every run takes at least, and the seconds they last
/// together at least.
pub const SETUPS: usize = 5;
pub const SETUP_SECS: f64 = 0.5;
/// Seconds one set-up sample lasts at least: a quicker set-up is
/// repeated back to back within the sample, so that allocator and
/// page-fault jitter averages out.
pub const SETUP_SAMPLE_SECS: f64 = 0.03;
/// Seconds of untimed set-up calls before the samples.
pub const SETUP_WARMUP_SECS: f64 = 0.3;
/// The clock rate the end-to-end timings are rescaled to: a reference
/// second is 3e9 processor cycles (see [`clock_scale`]).
pub const REF_HZ: f64 = 3.0e9;

/// Everything a workload needs to know about its run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Scratch directory inside the checkout, removed afterwards.
    pub work: PathBuf,
    /// The sizes of the workloads.
    pub scale: Scale,
}

/// How much work one iteration of each workload does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes: one iteration takes about a second.
    Bench,
    /// The sizes users run: `cac table2` and `cac organizations`
    /// defaults, and a corpus of four 2M-op traces. For one-off
    /// comparisons with the benchmark's sizes; a run takes minutes.
    Full,
}

/// Flushes every file under `dir`, and `dir` itself, to disk, so that
/// writes made before a timed phase are not written back during it.
pub fn sync_tree(dir: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            sync_tree(&path)?;
        } else {
            File::open(&path)?.sync_all()?;
        }
    }
    File::open(dir)?.sync_all()
}

/// Removes `dir` and commits the removal to disk, so that freeing its
/// blocks is not charged to the next timed `fsync`.
pub fn remove_synced(dir: &Path) {
    std::fs::remove_dir_all(dir).ok();
    if let Some(parent) = dir.parent() {
        File::open(parent).and_then(|d| d.sync_all()).ok();
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Arithmetic mean of `v` (0 for an empty slice).
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Linear-interpolated quantile `q` of `v` (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The processor's clock rate over [`REF_HZ`]. Host seconds times this
/// are reference seconds: cycles over `REF_HZ`. This host's clock moves
/// by up to 1.7 times between periods of minutes, and every workload's
/// seconds move with it; cycles do not. The rate comes from timing a
/// chain of dependent multiplies, 5 cycles a step (`or`, `imul`,
/// `xor`), whose speed depends on the clock alone; the fastest of four
/// short chains, so that an interrupt does not count.
pub fn clock_scale() -> f64 {
    const STEPS: u64 = 500_000;
    const CYCLES_PER_STEP: f64 = 5.0;
    let chain = || {
        let n = std::hint::black_box(STEPS);
        let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15_u64);
        for k in 0..n {
            x = x.wrapping_mul(x | 1) ^ k;
        }
        std::hint::black_box(x);
    };
    let best = (0..4).map(|_| time(chain).1).fold(f64::INFINITY, f64::min);
    STEPS as f64 * CYCLES_PER_STEP / best / REF_HZ
}

/// Seconds `f` takes, with its result.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// FNV-1a digest of every simulated statistic a run produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn feed(&mut self, text: &str) {
        for b in text.bytes().chain([0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Output checks: how many were made and which failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Adds `other`'s checks to these.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Metric values by name, with their units.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name.into(), (value, unit));
    }
}

/// Repeats a set-up step and records its seconds in `out.setup`, one
/// figure per sample: at least [`SETUPS`] samples lasting [`SETUP_SECS`]
/// together. Untimed calls first, for at least [`SETUP_WARMUP_SECS`],
/// warm the allocator and the processor, which runs a newly started
/// process slower for a few hundred milliseconds, and size the samples:
/// each runs the step as many times as fill [`SETUP_SAMPLE_SECS`] and
/// records the mean. `f` gets the call's index; returns the last call's
/// result.
pub fn repeat_setup<T>(out: &mut Outcome, mut f: impl FnMut(usize) -> T) -> T {
    let start = Instant::now();
    let mut v = f(0);
    let mut k = 1;
    while start.elapsed().as_secs_f64() < SETUP_WARMUP_SECS {
        v = f(k);
        k += 1;
    }
    let per_call = start.elapsed().as_secs_f64() / k as f64;
    let batch = (SETUP_SAMPLE_SECS / per_call).ceil().max(1.0) as usize;
    let before = clock_scale();
    let start = Instant::now();
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            v = f(k);
            k += 1;
        }
        out.setup.push(t.elapsed().as_secs_f64() / batch as f64);
        if out.setup.len() >= SETUPS && start.elapsed().as_secs_f64() >= SETUP_SECS {
            out.setup_scale = (before + clock_scale()) / 2.0;
            return v;
        }
    }
}

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Set-up samples, host seconds each.
    pub setup: Vec<f64>,
    /// [`clock_scale`] over the set-up samples.
    pub setup_scale: f64,
    /// Untraced timed iterations, host seconds each.
    pub walls: Vec<f64>,
    /// [`clock_scale`] over each untraced timed iteration.
    pub wall_scales: Vec<f64>,
    /// Traced timed iterations, seconds each (traced runs only).
    pub traced_walls: Vec<f64>,
    pub checks: Checks,
    /// Digest of the first iteration's simulated statistics.
    pub digest: Digest,
    /// Workload-level figures printed with the end-to-end metrics:
    /// `grid_mrefs_per_s` and `miss_mae` plus the workload-specific
    /// ones the notes name.
    pub e2e: Metrics,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
    /// Spans recorded during traced iterations.
    pub spans: Vec<spans::Span>,
}

impl Outcome {
    /// The run's figure for one timed iteration, in reference seconds:
    /// the mean, not the median, of the untraced iterations, each
    /// rescaled by the clock measured around it. Besides its clock,
    /// this host's speed drifts between levels that last 10–30 s, so a
    /// run's iterations are a mixture of levels; the median snaps to
    /// whichever level held most of the run and the mean averages them,
    /// which spread less from run to run in paired comparisons (see
    /// NOTES.md).
    pub fn wall(&self) -> f64 {
        let cycles: Vec<f64> = self
            .walls
            .iter()
            .zip(&self.wall_scales)
            .map(|(w, s)| w * s)
            .collect();
        mean(&cycles)
    }

    /// The mean untraced iteration in host seconds.
    pub fn host_wall(&self) -> f64 {
        mean(&self.walls)
    }

    /// The median set-up sample in reference seconds.
    pub fn setup(&self) -> f64 {
        median(&self.setup) * self.setup_scale
    }

    /// The mean traced iteration in host seconds.
    pub fn traced_wall(&self) -> f64 {
        mean(&self.traced_walls)
    }
}

/// Runs `iteration` until `ctx.seconds` have passed and at least
/// [`MIN_ITERATIONS`] ran; traced runs alternate untraced and traced
/// iterations, starting untraced, with at least that many of each.
/// Iteration 0 warms caches and the allocator: it is checked but not
/// timed.
/// Every iteration's digest must equal the first one's (a check), so a
/// traced iteration is proven to simulate exactly what an untraced one
/// does. `iteration` gets its index and whether it is traced, and
/// returns its timed seconds and digest.
pub fn timed_loop(
    ctx: &Ctx,
    out: &mut Outcome,
    mut iteration: impl FnMut(u32, bool) -> (f64, Digest),
) {
    let mut start = Instant::now();
    let mut first: Option<Digest> = None;
    let mut i: u32 = 0;
    let mut clock = clock_scale();
    loop {
        let traced = ctx.traced && i % 2 == 1;
        spans::record(traced, i);
        let (secs, digest) = iteration(i, traced);
        spans::record(false, 0);
        let clock_after = clock_scale();
        if traced {
            out.traced_walls.push(secs);
        } else if i > 0 {
            out.walls.push(secs);
            out.wall_scales.push((clock + clock_after) / 2.0);
        }
        clock = clock_after;
        match first {
            None => first = Some(digest),
            Some(d) => out.checks.check(d == digest, || {
                format!(
                    "iteration {i} ({}) simulated different statistics: digest {} != {}",
                    if traced { "traced" } else { "untraced" },
                    digest.hex(),
                    d.hex()
                )
            }),
        }
        if i == 0 {
            start = Instant::now();
        }
        i += 1;
        let done = out.walls.len() >= MIN_ITERATIONS
            && (!ctx.traced || out.traced_walls.len() >= MIN_ITERATIONS);
        if done && start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    out.digest = first.expect("at least one iteration ran");
    out.spans = spans::take();
}

/// Per-iteration mean of each span name's `(duration, self time)` over
/// the traced iterations.
pub fn span_means(out: &Outcome) -> BTreeMap<&'static str, (f64, f64)> {
    let n = out.traced_walls.len().max(1) as f64;
    spans::totals(&out.spans)
        .into_iter()
        .map(|(k, (d, s))| (k, (d / n, s / n)))
        .collect()
}

/// The process's peak resident set in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_separates_fields() {
        let mut a = Digest::default();
        a.feed("ab");
        a.feed("c");
        let mut b = Digest::default();
        b.feed("a");
        b.feed("bc");
        assert_ne!(a, b);
    }
}
