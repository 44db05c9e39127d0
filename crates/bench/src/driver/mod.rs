//! The unified experiment driver behind the `cac` CLI.
//!
//! The paper's evaluation is a matrix of experiments (the Figure 1
//! stride sweep, Tables 1–3, the §3.1 option studies, the §3.3 hole
//! model, plus this workspace's ablations). This module puts them all
//! behind one registry:
//!
//! * every experiment is a function from parsed parameters
//!   ([`args::ExpArgs`]) to a structured [`report::Report`];
//! * the `cac` binary dispatches subcommands (`cac fig1`, `cac table2`,
//!   `cac trace convert`, ...) to the registry and renders the report as
//!   text, JSON or CSV (`--format`), to stdout or a file (`--out`).
//!
//! # Example
//!
//! ```
//! use cac_bench::driver;
//!
//! let words = vec!["--max-stride".to_owned(), "16".to_owned(), "--passes".to_owned(), "2".to_owned()];
//! let report = driver::run_experiment("fig1", &words).unwrap();
//! assert!(report.to_text().contains("pathological"));
//! ```

pub mod args;
pub mod experiments;
pub mod report;

use args::{ExpArgs, ParamSpec};
use report::{OutputFormat, Report};
use std::fmt;
use std::io::Write as _;

/// Error produced by the driver or an experiment.
///
/// The variants define the `cac` exit-code contract:
///
/// | exit | meaning                                                    |
/// |------|------------------------------------------------------------|
/// | 0    | success                                                    |
/// | 1    | ran to completion but the report carries failures          |
/// | 2    | usage error (unknown command, malformed parameters)        |
/// | 3    | input error (unreadable/corrupt trace, bad config file)    |
#[derive(Debug)]
pub enum DriverError {
    /// The command line (or a parameter value) was invalid; exit code 2.
    Usage(String),
    /// The experiment itself failed mid-flight; exit code 1.
    Failed(String),
    /// An input file was missing, unreadable, undecodable, or refused
    /// (config rot, trace corruption under strict decode, stale
    /// checkpoint); exit code 3.
    Input(String),
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::Usage(m) | DriverError::Failed(m) | DriverError::Input(m) => {
                f.write_str(m)
            }
        }
    }
}

impl std::error::Error for DriverError {}

impl From<cac_core::Error> for DriverError {
    fn from(e: cac_core::Error) -> Self {
        DriverError::Failed(e.to_string())
    }
}

impl From<std::io::Error> for DriverError {
    fn from(e: std::io::Error) -> Self {
        DriverError::Failed(e.to_string())
    }
}

/// One registered experiment.
#[derive(Clone, Copy)]
pub struct Experiment {
    /// Subcommand name (`cac <name>`).
    pub name: &'static str,
    /// Help grouping.
    pub group: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// Declared parameters.
    pub params: &'static [ParamSpec],
    /// The experiment body.
    pub run: fn(&ExpArgs) -> Result<Report, DriverError>,
}

impl fmt::Debug for Experiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Experiment")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// The full experiment registry, in help-display order.
pub fn experiments() -> &'static [Experiment] {
    experiments::REGISTRY
}

/// Looks an experiment up by subcommand name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    experiments().iter().find(|e| e.name == name)
}

/// Parses `words` against the experiment's declared parameters and runs
/// it. This is the programmatic entry the CLI and the tests share.
///
/// # Errors
///
/// [`DriverError::Usage`] for unknown experiments or malformed
/// parameters; whatever the experiment itself reports otherwise.
pub fn run_experiment(name: &str, words: &[String]) -> Result<Report, DriverError> {
    let exp = find(name)
        .ok_or_else(|| DriverError::Usage(format!("unknown command {name:?}; try `cac list`")))?;
    let parsed = ExpArgs::parse(exp.params, words)?;
    (exp.run)(&parsed)
}

fn usage() -> String {
    let mut out = String::new();
    out.push_str(
        "cac — experiment driver for the conflict-avoiding-cache reproduction\n\
         \n\
         USAGE:\n\
         \x20   cac [--format text|json|csv] [--out FILE] <command> [--param value ...]\n\
         \x20   cac help <command>     show a command's parameters\n\
         \x20   cac list               one line per command\n\
         \x20   cac --version          print the driver version\n\
         \n\
         Parameters may also be given positionally, in declaration order.\n\
         \n\
         Exit codes: 0 success; 1 report carries failures; 2 usage error;\n\
         3 input error (unreadable/corrupt trace, bad config, stale checkpoint).\n",
    );
    let mut group = "";
    for e in experiments() {
        if e.group != group {
            group = e.group;
            out.push_str(&format!("\n{group}:\n"));
        }
        out.push_str(&format!("    {:<22} {}\n", e.name, e.summary));
    }
    out
}

fn command_help(e: &Experiment) -> String {
    let mut out = format!("cac {} — {}\n", e.name, e.summary);
    if e.params.is_empty() {
        out.push_str("\nno parameters\n");
    } else {
        out.push_str("\nparameters:\n");
        for p in e.params {
            let default = if p.default.is_empty() {
                "unset".to_owned()
            } else {
                format!("default {}", p.default)
            };
            out.push_str(&format!("    --{:<18} {} [{default}]\n", p.name, p.help));
        }
    }
    out
}

/// Full CLI entry point for the `cac` binary. Returns the process exit
/// code: 0 on success, 1 when the run completed but its report carries
/// failures (degraded sweep rows, damaged trace blocks), 2 on usage
/// errors, 3 on input errors (see [`DriverError`]).
pub fn cli_main(raw: Vec<String>) -> i32 {
    let mut format = OutputFormat::Text;
    let mut out_path: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut it = raw.into_iter();
    // Global flags may precede the subcommand; everything after it is
    // handed to the experiment's own parser.
    while let Some(w) = it.next() {
        match w.as_str() {
            "--format" | "-f" => match it.next().as_deref().and_then(OutputFormat::parse) {
                Some(f) => format = f,
                None => {
                    eprintln!("--format expects one of: text, json, csv");
                    return 2;
                }
            },
            "--out" | "-o" => match it.next() {
                Some(p) => out_path = Some(p),
                None => {
                    eprintln!("--out expects a file path");
                    return 2;
                }
            },
            "--help" | "-h" | "help" if rest.is_empty() => {
                rest.push("help".to_owned());
                rest.extend(it.by_ref());
            }
            "--version" | "-V" if rest.is_empty() => {
                println!("cac {}", env!("CARGO_PKG_VERSION"));
                return 0;
            }
            _ => {
                rest.push(w);
                rest.extend(it.by_ref());
            }
        }
    }
    let Some(command) = rest.first().cloned() else {
        print!("{}", usage());
        return 2;
    };
    let mut words = rest[1..].to_vec();
    match command.as_str() {
        "help" => {
            if words.is_empty() {
                print!("{}", usage());
                return 0;
            }
            let topic = words.remove(0);
            let name = canonical_name(&topic, &mut words);
            match find(&name) {
                Some(e) => {
                    print!("{}", command_help(e));
                    0
                }
                None => {
                    eprintln!("unknown command {name:?}; try `cac list`");
                    2
                }
            }
        }
        "list" => {
            for e in experiments() {
                println!("{:<22} {}", e.name, e.summary);
            }
            0
        }
        _ => {
            let name = canonical_name(&command, &mut words);
            if let Err(m) = extract_global_flags(&name, &mut words, &mut format, &mut out_path) {
                eprintln!("{m}");
                return 2;
            }
            match run_experiment(&name, &words) {
                Ok(report) => {
                    // A report that completed but carries failure rows
                    // (degraded sweep cells, skipped trace blocks)
                    // still renders in full — the exit code flags it.
                    let ok = if report.failures == 0 { 0 } else { 1 };
                    let rendered = report.render(format);
                    match &out_path {
                        None => {
                            print!("{rendered}");
                            ok
                        }
                        Some(path) => match std::fs::File::create(path)
                            .and_then(|mut f| f.write_all(rendered.as_bytes()))
                        {
                            Ok(()) => ok,
                            Err(e) => {
                                eprintln!("cannot write {path}: {e}");
                                1
                            }
                        },
                    }
                }
                Err(DriverError::Usage(m)) => {
                    eprintln!("{m}");
                    if let Some(e) = find(&name) {
                        eprint!("{}", command_help(e));
                    }
                    2
                }
                Err(DriverError::Failed(m)) => {
                    eprintln!("{name} failed: {m}");
                    1
                }
                Err(DriverError::Input(m)) => {
                    eprintln!("{name}: {m}");
                    3
                }
            }
        }
    }
}

/// Resolves the two-word `trace <sub>` / `config <sub>` /
/// `bench <sub>` / `analytic <sub>` / `corpus <sub>` spellings to the
/// registered `trace-<sub>` / `config-<sub>` / `bench-<sub>` /
/// `analytic-<sub>` / `corpus-<sub>` experiment names, consuming the
/// sub-word from `words`.
fn canonical_name(command: &str, words: &mut Vec<String>) -> String {
    if matches!(
        command,
        "trace" | "config" | "bench" | "analytic" | "corpus"
    ) {
        if let Some(first) = words.first() {
            if !first.starts_with("--") {
                let sub = words.remove(0);
                return format!("{command}-{sub}");
            }
        }
    }
    command.to_owned()
}

/// Lifts global `--format`/`--out` flags given *after* the subcommand
/// (`cac bench sweep --format json`) out of the experiment's words —
/// unless the experiment declares a parameter of that name itself
/// (`cac trace gen --format binary` stays an experiment flag).
///
/// Returns a usage-error message for a malformed global flag value.
fn extract_global_flags(
    name: &str,
    words: &mut Vec<String>,
    format: &mut OutputFormat,
    out_path: &mut Option<String>,
) -> Result<(), String> {
    let declared = |flag: &str| find(name).is_some_and(|e| e.params.iter().any(|p| p.name == flag));
    let mut i = 0;
    while i < words.len() {
        let (flag, inline) = match words[i].split_once('=') {
            Some((f, v)) => (f.to_owned(), Some(v.to_owned())),
            None => (words[i].clone(), None),
        };
        let is_format = matches!(flag.as_str(), "--format" | "-f") && !declared("format");
        let is_out = matches!(flag.as_str(), "--out" | "-o") && !declared("out");
        if !is_format && !is_out {
            i += 1;
            continue;
        }
        words.remove(i);
        let value = match inline {
            Some(v) => v,
            None => {
                if i < words.len() {
                    words.remove(i)
                } else {
                    return Err(format!("{flag} expects a value"));
                }
            }
        };
        if is_format {
            *format = OutputFormat::parse(&value)
                .ok_or_else(|| "--format expects one of: text, json, csv".to_owned())?;
        } else {
            *out_path = Some(value);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_consistent() {
        let mut names = std::collections::BTreeSet::new();
        for e in experiments() {
            assert!(names.insert(e.name), "duplicate command {}", e.name);
            assert!(!e.summary.is_empty(), "{} needs a summary", e.name);
        }
        assert_eq!(names.len(), 42, "the registered command surface");
    }

    #[test]
    fn unknown_command_is_a_usage_error() {
        assert!(matches!(
            run_experiment("nope", &[]),
            Err(DriverError::Usage(_))
        ));
    }

    #[test]
    fn trace_subcommands_resolve() {
        let mut words = vec!["gen".to_owned(), "--ops".to_owned(), "5".to_owned()];
        assert_eq!(canonical_name("trace", &mut words), "trace-gen");
        assert_eq!(words, vec!["--ops", "5"]);
        let mut words = vec!["validate".to_owned(), "a.toml".to_owned()];
        assert_eq!(canonical_name("config", &mut words), "config-validate");
        assert_eq!(words, vec!["a.toml"]);
        let mut words = vec!["sweep".to_owned()];
        assert_eq!(canonical_name("bench", &mut words), "bench-sweep");
        let mut none: Vec<String> = Vec::new();
        assert_eq!(canonical_name("fig1", &mut none), "fig1");
    }

    #[test]
    fn trailing_global_flags_are_lifted_unless_declared() {
        use report::OutputFormat;
        // `cac bench sweep --ops 9 --format json`: --format is global.
        let mut words: Vec<String> = ["--ops", "9", "--format", "json"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let mut format = OutputFormat::Text;
        let mut out = None;
        extract_global_flags("bench-sweep", &mut words, &mut format, &mut out).unwrap();
        assert_eq!(format, OutputFormat::Json);
        assert_eq!(words, vec!["--ops", "9"]);

        // `cac trace gen --format binary`: trace-gen declares --format,
        // so it stays an experiment flag.
        let mut words: Vec<String> = ["--format=binary", "--out=x.bin"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let mut format = OutputFormat::Text;
        let mut out = None;
        extract_global_flags("trace-gen", &mut words, &mut format, &mut out).unwrap();
        assert_eq!(format, OutputFormat::Text);
        assert!(out.is_none());
        assert_eq!(words, vec!["--format=binary", "--out=x.bin"]);

        // Malformed values are usage errors.
        let mut words = vec!["--format".to_owned()];
        let mut format = OutputFormat::Text;
        let mut out = None;
        assert!(extract_global_flags("fig1", &mut words, &mut format, &mut out).is_err());
        let mut words = vec!["--format".to_owned(), "yaml".to_owned()];
        assert!(extract_global_flags("fig1", &mut words, &mut format, &mut out).is_err());
    }
}
