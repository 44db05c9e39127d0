//! Integration tests for the unified `cac` experiment driver.
//!
//! The load-bearing guarantee: `cac fig1` (and every other subcommand)
//! produces the *same numbers* as the standalone binary it replaced.
//! This test re-derives Figure 1 the way the old `fig1_stride_sweep`
//! main did — a direct per-stride loop — and checks the driver's report
//! against it.

use cac_bench::driver::report::{OutputFormat, Value};
use cac_bench::driver::{self, DriverError};
use cac_core::{CacheGeometry, IndexSpec};
use cac_sim::cache::Cache;
use cac_trace::stride::VectorStride;

fn words(ws: &[&str]) -> Vec<String> {
    ws.iter().map(|s| (*s).to_owned()).collect()
}

#[test]
fn fig1_matches_the_retired_binary_computation() {
    let max_stride = 256u64;
    let passes = 4u64;

    // The old fig1_stride_sweep main, inlined: serial per-stride loop
    // over the four schemes, then the same histogram binning.
    let schemes: [fn() -> IndexSpec; 4] = [
        IndexSpec::modulo,
        IndexSpec::xor_skewed,
        IndexSpec::ipoly,
        IndexSpec::ipoly_skewed,
    ];
    let geom = CacheGeometry::new(8 * 1024, 32, 2).unwrap();
    let mut histogram = [[0u64; 10]; 4];
    let mut pathological = [0u64; 4];
    for stride in 1..max_stride {
        for (si, spec) in schemes.iter().enumerate() {
            let mut cache = Cache::build(geom, spec()).unwrap();
            let ratio = cache
                .run_refs(VectorStride::paper_figure1(stride, passes))
                .miss_ratio();
            let bin = ((ratio * 10.0).ceil() as usize).clamp(1, 10) - 1;
            histogram[si][bin] += 1;
            if ratio > 0.5 {
                pathological[si] += 1;
            }
        }
    }

    let report =
        driver::run_experiment("fig1", &words(&["--max-stride", "256", "--passes", "4"])).unwrap();
    let hist = &report.tables[0];
    assert_eq!(hist.rows.len(), 10);
    for (bin, row) in hist.rows.iter().enumerate() {
        for (si, cell) in row[1..].iter().enumerate() {
            assert_eq!(
                cell.as_f64().unwrap() as u64,
                histogram[si][bin],
                "histogram bin {bin} scheme {si}"
            );
        }
    }
    let path = &report.tables[1];
    for (si, row) in path.rows.iter().enumerate() {
        assert_eq!(row[1].as_f64().unwrap() as u64, pathological[si]);
        assert_eq!(row[2].as_f64().unwrap() as u64, max_stride - 1);
    }
}

#[test]
fn fig1_positional_and_flag_args_agree() {
    let by_flags =
        driver::run_experiment("fig1", &words(&["--max-stride", "64", "--passes", "2"])).unwrap();
    let by_position = driver::run_experiment("fig1", &words(&["64", "2"])).unwrap();
    assert_eq!(by_flags.to_json(), by_position.to_json());
}

#[test]
fn reports_render_in_all_three_formats() {
    let report =
        driver::run_experiment("fig1", &words(&["--max-stride", "16", "--passes", "2"])).unwrap();
    let text = report.render(OutputFormat::Text);
    assert!(text.contains("## miss-ratio histogram"));
    assert!(text.contains("pathological"));
    assert!(text.contains("Figure 1"), "chart block present in text");

    let json = report.render(OutputFormat::Json);
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"columns\":[\"bin\",\"a2\",\"a2-Hx-Sk\",\"a2-Hp\",\"a2-Hp-Sk\"]"));

    let csv = report.render(OutputFormat::Csv);
    assert!(csv.contains("# table: miss-ratio histogram (strides per bin)"));
    assert!(csv.contains("bin,a2,a2-Hx-Sk,a2-Hp,a2-Hp-Sk"));
}

#[test]
fn trace_tools_round_trip_through_files() {
    let dir = std::env::temp_dir().join(format!("cac-driver-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bin_path = dir.join("t.bin");
    let txt_path = dir.join("t.txt");
    let bin2_path = dir.join("t2.bin");
    let p = |p: &std::path::Path| p.to_str().unwrap().to_owned();

    // gen (binary) -> convert to text -> convert back: byte-identical.
    driver::run_experiment(
        "trace-gen",
        &[
            "--bench".into(),
            "swim".into(),
            "--ops".into(),
            "20000".into(),
            "--out".into(),
            p(&bin_path),
        ],
    )
    .unwrap();
    driver::run_experiment("trace-convert", &[p(&bin_path), p(&txt_path)]).unwrap();
    driver::run_experiment("trace-convert", &[p(&txt_path), p(&bin2_path)]).unwrap();
    assert_eq!(
        std::fs::read(&bin_path).unwrap(),
        std::fs::read(&bin2_path).unwrap(),
        "binary -> text -> binary must be byte-identical"
    );

    // info agrees on both representations.
    let info_bin = driver::run_experiment("trace-info", &[p(&bin_path)]).unwrap();
    let info_txt = driver::run_experiment("trace-info", &[p(&txt_path)]).unwrap();
    let field = |r: &cac_bench::driver::report::Report, name: &str| -> u64 {
        r.tables[0]
            .rows
            .iter()
            .find(|row| matches!(&row[0], Value::Str(s) if s == name))
            .and_then(|row| row[1].as_f64())
            .unwrap() as u64
    };
    assert_eq!(field(&info_bin, "ops"), 20_000);
    for f in ["ops", "loads", "stores", "branches"] {
        assert_eq!(field(&info_bin, f), field(&info_txt, f), "{f}");
    }

    // Streamed replay of the file equals an in-memory replay.
    let report = driver::run_experiment(
        "replay",
        &[
            "--trace".into(),
            p(&bin_path),
            "--scheme".into(),
            "ipoly-skew".into(),
        ],
    )
    .unwrap();
    let mut reference = Cache::build(
        CacheGeometry::new(8 * 1024, 32, 2).unwrap(),
        IndexSpec::ipoly_skewed(),
    )
    .unwrap();
    let expect = reference.run_trace(
        cac_trace::spec::SpecBenchmark::Swim
            .generator(12345)
            .take(20_000),
    );
    assert_eq!(field(&report, "accesses"), expect.accesses);
    assert_eq!(field(&report, "misses"), expect.misses);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_errors_are_reported_not_panicked() {
    for (name, bad) in [
        ("fig1", words(&["--nope", "1"])),
        ("fig1", words(&["--max-stride", "zero"])),
        ("fig1", words(&["--max-stride", "1"])),
        ("replay", words(&[])),    // missing --trace
        ("trace-gen", words(&[])), // missing --out
        ("regions", words(&["nosuchbench"])),
        ("sweep", words(&["--schemes", "nosuchscheme"])),
    ] {
        let got = driver::run_experiment(name, &bad);
        assert!(
            matches!(got, Err(DriverError::Usage(_))),
            "{name} {bad:?} should be a usage error, got {got:?}"
        );
    }
    // A missing trace file is an input error (exit 3), not a usage error.
    let got = driver::run_experiment("replay", &words(&["--trace", "/nonexistent/x.bin"]));
    assert!(matches!(got, Err(DriverError::Input(_))), "{got:?}");
}

#[test]
fn interleave_rejects_zero_stride() {
    let got = driver::run_experiment("interleave", &words(&["--max-stride", "0"]));
    assert!(matches!(got, Err(DriverError::Usage(_))), "{got:?}");
}
