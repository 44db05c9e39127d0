//! Experiment parameter parsing.
//!
//! Every experiment declares its parameters as a static [`ParamSpec`]
//! slice (name, default, help). The CLI accepts them as `--name value`
//! or `--name=value` in any order, or positionally in declaration order
//! (`cac fig1 512 8`).

use super::DriverError;
use std::collections::BTreeMap;

/// Declaration of one experiment parameter.
#[derive(Debug, Clone, Copy)]
pub struct ParamSpec {
    /// Flag name (`--name`).
    pub name: &'static str,
    /// Default value, as a string ("" means "no value").
    pub default: &'static str,
    /// One-line help text.
    pub help: &'static str,
    /// Variadic: surplus positional arguments append to this parameter
    /// (newline-separated, so values containing spaces survive), so
    /// `cac config validate examples/*.toml` collects every
    /// shell-expanded path. Read the result with [`ExpArgs::list`].
    pub variadic: bool,
}

/// Convenience constructor used by the experiment registry.
pub const fn param(name: &'static str, default: &'static str, help: &'static str) -> ParamSpec {
    ParamSpec {
        name,
        default,
        help,
        variadic: false,
    }
}

/// Variadic-parameter constructor; see [`ParamSpec::variadic`].
pub const fn vparam(name: &'static str, default: &'static str, help: &'static str) -> ParamSpec {
    ParamSpec {
        name,
        default,
        help,
        variadic: true,
    }
}

/// Parsed parameter values for one experiment invocation.
#[derive(Debug, Clone, Default)]
pub struct ExpArgs {
    values: BTreeMap<&'static str, String>,
}

impl ExpArgs {
    /// Builds from raw CLI words against the declared specs, accepting
    /// `--name value`, `--name=value`, and bare positional values (bound
    /// to the specs in declaration order). A parameter whose default is
    /// `"true"`/`"false"` is a boolean flag and may stand alone
    /// (`--verify` means `--verify true`).
    ///
    /// # Errors
    ///
    /// [`DriverError::Usage`] on unknown flags, a repeated flag that is
    /// not variadic, surplus values, or a non-boolean flag without a
    /// value.
    pub fn parse(specs: &'static [ParamSpec], words: &[String]) -> Result<Self, DriverError> {
        let mut args = ExpArgs::default();
        for spec in specs {
            args.values.insert(spec.name, spec.default.to_owned());
        }
        let mut positional = specs.iter();
        let mut explicit: Vec<&str> = Vec::new();
        let mut open_variadic: Option<&'static str> = None;
        let mut i = 0;
        while i < words.len() {
            let w = &words[i];
            if let Some(flag) = w.strip_prefix("--") {
                let (name, value) = match flag.split_once('=') {
                    Some((n, v)) => (n, Some(v.to_owned())),
                    None => (flag, words.get(i + 1).cloned()),
                };
                let spec = specs.iter().find(|s| s.name == name).ok_or_else(|| {
                    DriverError::Usage(format!(
                        "unknown flag --{name}; valid: {}",
                        specs
                            .iter()
                            .map(|s| format!("--{}", s.name))
                            .collect::<Vec<_>>()
                            .join(" ")
                    ))
                })?;
                let boolean = matches!(spec.default, "true" | "false");
                let value = match value {
                    // A boolean flag may stand alone (`--verify`); the
                    // next word is only its value when it isn't a flag.
                    Some(v) if boolean && !flag.contains('=') => {
                        if v.starts_with("--") {
                            "true".to_owned()
                        } else {
                            i += 1;
                            v
                        }
                    }
                    Some(v) => {
                        if !flag.contains('=') {
                            i += 1;
                        }
                        v
                    }
                    None if boolean => "true".to_owned(),
                    None => return Err(DriverError::Usage(format!("flag --{flag} needs a value"))),
                };
                if !explicit.contains(&spec.name) {
                    explicit.push(spec.name);
                    args.values.insert(spec.name, value);
                } else if spec.variadic {
                    // A repeated variadic flag appends: `--configs a.toml
                    // --configs b.toml`.
                    let joined = args.values.get_mut(spec.name).expect("declared");
                    joined.push('\n');
                    joined.push_str(&value);
                } else {
                    return Err(DriverError::Usage(format!("--{name} given twice")));
                }
            } else if let Some(name) = open_variadic {
                // A positionally-bound variadic parameter swallows every
                // later positional, so `cac analytic validate a.toml
                // b.toml --trace t.bin` collects both paths into
                // `configs` while later specs stay reachable by flag.
                let joined = args.values.get_mut(name).expect("declared");
                joined.push('\n');
                joined.push_str(w);
            } else {
                // Positional: next spec not yet bound explicitly; a
                // variadic spec keeps collecting (above), and surplus
                // positionals past the last spec fall back to the last
                // variadic spec if any.
                match positional.by_ref().find(|s| !explicit.contains(&s.name)) {
                    Some(spec) => {
                        explicit.push(spec.name);
                        args.values.insert(spec.name, w.clone());
                        if spec.variadic {
                            open_variadic = Some(spec.name);
                        }
                    }
                    None => {
                        let spec = specs.iter().rev().find(|s| s.variadic).ok_or_else(|| {
                            DriverError::Usage(format!("unexpected positional argument {w:?}"))
                        })?;
                        let joined = args.values.get_mut(spec.name).expect("declared");
                        if !joined.is_empty() {
                            joined.push('\n');
                        }
                        joined.push_str(w);
                    }
                }
            }
            i += 1;
        }
        Ok(args)
    }

    /// Raw string value of a declared parameter.
    ///
    /// # Panics
    ///
    /// If `name` was not declared — a driver bug, not a user error.
    pub fn str(&self, name: &str) -> &str {
        self.values
            .get(name)
            .unwrap_or_else(|| panic!("parameter {name} not declared"))
    }

    /// `true` if the parameter has a non-empty value.
    pub fn is_set(&self, name: &str) -> bool {
        !self.str(name).is_empty()
    }

    /// A variadic parameter's collected values (one per surplus
    /// positional argument; empty when unset). Values may contain
    /// spaces — the accumulator separates entries with newlines.
    pub fn list(&self, name: &str) -> Vec<&str> {
        self.str(name)
            .split('\n')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect()
    }

    fn parse_as<T: std::str::FromStr>(&self, name: &str) -> Result<T, DriverError> {
        let raw = self.str(name);
        raw.parse().map_err(|_| {
            DriverError::Usage(format!(
                "--{name} expects a {}, got {raw:?}",
                std::any::type_name::<T>()
            ))
        })
    }

    /// The parameter as a `u64`.
    ///
    /// # Errors
    ///
    /// [`DriverError::Usage`] when the value does not parse.
    pub fn u64(&self, name: &str) -> Result<u64, DriverError> {
        self.parse_as(name)
    }

    /// The parameter as a `usize`.
    ///
    /// # Errors
    ///
    /// [`DriverError::Usage`] when the value does not parse.
    pub fn usize(&self, name: &str) -> Result<usize, DriverError> {
        self.parse_as(name)
    }

    /// The parameter as a `u32`.
    ///
    /// # Errors
    ///
    /// [`DriverError::Usage`] when the value does not parse.
    pub fn u32(&self, name: &str) -> Result<u32, DriverError> {
        self.parse_as(name)
    }

    /// Sets a value programmatically (used by tests and the shims).
    pub fn set(&mut self, name: &'static str, value: impl ToString) {
        self.values.insert(name, value.to_string());
    }

    /// Effective `(name, value)` pairs in declaration order, for the
    /// report's parameter echo.
    pub fn echo(&self, specs: &'static [ParamSpec]) -> Vec<(String, String)> {
        specs
            .iter()
            .map(|s| (s.name.to_owned(), self.str(s.name).to_owned()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPECS: &[ParamSpec] = &[
        param("ops", "1000", "instructions per benchmark"),
        param("seed", "5", "workload seed"),
        param("label", "", "optional label"),
    ];

    fn words(ws: &[&str]) -> Vec<String> {
        ws.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn defaults_flags_and_positionals() {
        let a = ExpArgs::parse(SPECS, &[]).unwrap();
        assert_eq!(a.u64("ops").unwrap(), 1000);
        assert!(!a.is_set("label"));

        let a = ExpArgs::parse(SPECS, &words(&["--seed", "9", "--label=x"])).unwrap();
        assert_eq!(a.u64("seed").unwrap(), 9);
        assert_eq!(a.str("label"), "x");

        // Positionals bind in declaration order, skipping explicit flags.
        let a = ExpArgs::parse(SPECS, &words(&["--ops", "7", "11"])).unwrap();
        assert_eq!(a.u64("ops").unwrap(), 7);
        assert_eq!(a.u64("seed").unwrap(), 11);
    }

    #[test]
    fn variadic_param_collects_surplus_positionals() {
        const V: &[ParamSpec] = &[
            param("mode", "check", "validation mode"),
            vparam("files", "", "files to validate"),
        ];
        let a = ExpArgs::parse(V, &words(&["strict", "a.toml", "b.toml", "c.toml"])).unwrap();
        assert_eq!(a.str("mode"), "strict");
        assert_eq!(a.list("files"), vec!["a.toml", "b.toml", "c.toml"]);
        // A single-variadic-spec experiment takes any number of files,
        // including paths with spaces.
        const JUST_FILES: &[ParamSpec] = &[vparam("files", "", "files")];
        let a = ExpArgs::parse(JUST_FILES, &words(&["x.toml", "my dir/y.toml"])).unwrap();
        assert_eq!(a.list("files"), vec!["x.toml", "my dir/y.toml"]);
        // Without a variadic spec, surplus positionals stay an error.
        assert!(matches!(
            ExpArgs::parse(SPECS, &words(&["1", "2", "3", "4"])),
            Err(DriverError::Usage(_))
        ));
    }

    #[test]
    fn variadic_first_swallows_positionals_but_leaves_flags() {
        // The `analytic validate` shape: the variadic spec comes first
        // and later specs are reachable only by flag — every positional
        // after the first must append to the variadic parameter, not
        // bind `trace`.
        const V: &[ParamSpec] = &[
            vparam("configs", "", "config files"),
            param("trace", "", "trace file"),
            param("ops", "1000", "refs"),
        ];
        let a = ExpArgs::parse(
            V,
            &words(&["a.toml", "b.toml", "--trace", "t.bin", "c.toml"]),
        )
        .unwrap();
        assert_eq!(a.list("configs"), vec!["a.toml", "b.toml", "c.toml"]);
        assert_eq!(a.str("trace"), "t.bin");
        assert_eq!(a.u64("ops").unwrap(), 1000);
        // Explicitly-set variadic flags do not swallow positionals.
        let a = ExpArgs::parse(V, &words(&["--configs", "a.toml", "t.bin"])).unwrap();
        assert_eq!(a.list("configs"), vec!["a.toml"]);
        assert_eq!(a.str("trace"), "t.bin");
        // A repeated variadic flag appends; a repeated plain flag is
        // still an error.
        let a = ExpArgs::parse(
            V,
            &words(&["--configs", "a.toml", "--configs=b.toml", "t.bin"]),
        )
        .unwrap();
        assert_eq!(a.list("configs"), vec!["a.toml", "b.toml"]);
        assert_eq!(a.str("trace"), "t.bin");
        assert!(matches!(
            ExpArgs::parse(V, &words(&["--trace", "a", "--trace", "b"])),
            Err(DriverError::Usage(_))
        ));
    }

    #[test]
    fn boolean_flags_stand_alone() {
        const B: &[ParamSpec] = &[
            param("input", "", "file"),
            param("verify", "false", "audit"),
            param("format", "text", "renderer"),
        ];
        // Bare at the end, bare before another flag, and explicit forms.
        for ws in [
            vec!["t.bin", "--verify"],
            vec!["t.bin", "--verify", "--format", "text"],
            vec!["t.bin", "--verify=true"],
            vec!["t.bin", "--verify", "true"],
        ] {
            let a = ExpArgs::parse(B, &words(&ws)).unwrap();
            assert_eq!(a.str("verify"), "true", "{ws:?}");
            assert_eq!(a.str("input"), "t.bin", "{ws:?}");
            assert_eq!(a.str("format"), "text", "{ws:?}");
        }
        let a = ExpArgs::parse(B, &words(&["t.bin", "--verify", "false"])).unwrap();
        assert_eq!(a.str("verify"), "false");
        // Non-boolean flags still require a value.
        assert!(matches!(
            ExpArgs::parse(B, &words(&["--format"])),
            Err(DriverError::Usage(_))
        ));
    }

    #[test]
    fn errors_are_usage_errors() {
        for bad in [
            vec!["--nope", "1"],
            vec!["--ops"],
            vec!["--ops", "1", "--ops", "2"],
            vec!["1", "2", "3", "4"],
        ] {
            let got = ExpArgs::parse(SPECS, &words(&bad));
            assert!(matches!(got, Err(DriverError::Usage(_))), "{bad:?}");
        }
        let a = ExpArgs::parse(SPECS, &words(&["abc"])).unwrap();
        assert!(matches!(a.u64("ops"), Err(DriverError::Usage(_))));
    }
}
