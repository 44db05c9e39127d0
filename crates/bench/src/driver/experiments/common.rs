//! Helpers shared by the experiment ports.

use crate::driver::args::ExpArgs;
use crate::driver::DriverError;
use cac_core::{CacheGeometry, IndexSpec};
use cac_sim::cache::Cache;
use cac_sim::model::MemoryModel;

/// The paper's L1 geometry: 8KB, 32-byte lines, 2 ways.
pub(super) fn paper_l1() -> CacheGeometry {
    CacheGeometry::new(8 * 1024, 32, 2).expect("paper geometry is valid")
}

/// One `geom` cache per scheme, boxed for the sweep engine.
pub(super) fn scheme_caches(
    geom: CacheGeometry,
    schemes: &[IndexSpec],
) -> Vec<Box<dyn MemoryModel>> {
    schemes
        .iter()
        .map(|s| {
            Box::new(Cache::build(geom, s.clone()).expect("validated scheme"))
                as Box<dyn MemoryModel>
        })
        .collect()
}

/// Resolves one scheme name (as printed by [`IndexSpec::name`]) via the
/// shared [`IndexSpec::parse`] hook, mapping the failure to a CLI usage
/// error.
pub(super) fn parse_scheme(name: &str) -> Result<IndexSpec, DriverError> {
    IndexSpec::parse(name).map_err(|e| DriverError::Usage(e.to_string()))
}

/// Resolves a comma-separated scheme list.
pub(super) fn parse_schemes(csv: &str) -> Result<Vec<IndexSpec>, DriverError> {
    let schemes: Vec<IndexSpec> = csv
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| parse_scheme(s.trim()))
        .collect::<Result<_, _>>()?;
    if schemes.is_empty() {
        return Err(DriverError::Usage("no schemes given".into()));
    }
    Ok(schemes)
}

/// Builds a geometry from the conventional `size`/`line`/`ways`
/// parameters declared by the trace tools.
pub(super) fn parse_geometry(a: &ExpArgs) -> Result<CacheGeometry, DriverError> {
    CacheGeometry::new(a.u64("size")?, a.u64("line")?, a.u32("ways")?).map_err(DriverError::from)
}

/// Resolves a benchmark name against the 18-model workload suite.
pub(super) fn parse_benchmark(name: &str) -> Result<cac_trace::spec::SpecBenchmark, DriverError> {
    cac_trace::spec::SpecBenchmark::all()
        .into_iter()
        .find(|b| b.name() == name)
        .ok_or_else(|| {
            DriverError::Usage(format!(
                "unknown benchmark {name:?}; valid: {}",
                cac_trace::spec::SpecBenchmark::all()
                    .iter()
                    .map(|b| b.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })
}

/// Parses a comma-separated list with an element parser, mapping
/// failures to usage errors.
pub(super) fn parse_csv<T>(
    csv: &str,
    what: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, DriverError> {
    let items: Vec<T> = csv
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| parse(s).ok_or_else(|| DriverError::Usage(format!("invalid {what} value {s:?}"))))
        .collect::<Result<_, _>>()?;
    if items.is_empty() {
        return Err(DriverError::Usage(format!("no {what} values given")));
    }
    Ok(items)
}

/// Renders a byte size with binary-unit suffixes for table labels.
pub(super) fn format_size(bytes: u64) -> String {
    if bytes >= 1 << 20 && bytes.is_multiple_of(1 << 20) {
        format!("{}MiB", bytes >> 20)
    } else if bytes >= 1 << 10 && bytes.is_multiple_of(1 << 10) {
        format!("{}KiB", bytes >> 10)
    } else {
        format!("{bytes}B")
    }
}
