//! The experiment platform of the conflict-avoiding-cache reproduction.
//!
//! The paper's whole evaluation is driven from one binary, `cac`
//! (`src/bin/cac.rs`), whose subcommands live in the [`driver`] module:
//! every experiment is a function from parsed parameters to a structured
//! report that renders as text, JSON or CSV. Criterion
//! micro-benchmarks live in `benches/`.
//!
//! This library also hosts the shared substrate: the [`driver`] itself,
//! parallel sweeps ([`parallel`]), terminal bar charts ([`chart`]), the
//! Tables 2–3 runner ([`table2`]) and summary statistics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod driver;
pub mod parallel;
pub mod table2;

/// Arithmetic mean (the paper averages miss ratios arithmetically).
pub fn arithmetic_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Geometric mean (the paper averages IPC geometrically).
pub fn geometric_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
    }
}

/// Population standard deviation (used for the §5 predictability claim:
/// Spec95 miss-ratio stddev 18.49 → 5.16).
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mean = arithmetic_mean(xs);
    (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Formats a row of fixed-width columns for the experiment tables.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means() {
        assert_eq!(arithmetic_mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(arithmetic_mean(&[]), 0.0);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn std_dev_basics() {
        assert_eq!(std_dev(&[5.0, 5.0, 5.0]), 0.0);
        assert!((std_dev(&[2.0, 4.0]) - 1.0).abs() < 1e-12);
        assert_eq!(std_dev(&[]), 0.0);
    }

    #[test]
    fn row_formatting() {
        let s = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(s, "  a    bb");
    }
}
