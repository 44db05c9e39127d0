//! The workloads and metric lists of `BENCHMARK.json`, read at run
//! time so that they are kept in one place. A metric a workload
//! produces but the file does not list is an error, not a silent drop.

use std::path::Path;

/// One metric the file lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Listed {
    pub name: String,
    pub unit: String,
}

/// What the benchmark reports, as `BENCHMARK.json` lists it.
#[derive(Debug)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Listed>,
    pub per_layer: Vec<Listed>,
}

pub fn load(path: &Path) -> Result<Spec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn parse(text: &str) -> Result<Spec, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let doc = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing text at byte {}", p.i));
    }
    let field = |v: &Json, key: &str| -> Result<String, String> {
        match v.get(key) {
            Some(Json::Str(s)) => Ok(s.clone()),
            _ => Err(format!("an entry has no string {key:?}")),
        }
    };
    let list = |key: &str| -> Result<&[Json], String> {
        match doc.get(key) {
            Some(Json::Arr(a)) => Ok(a),
            _ => Err(format!("no {key:?} list")),
        }
    };
    let metrics = |key: &str| -> Result<Vec<Listed>, String> {
        list(key)?
            .iter()
            .map(|m| {
                Ok(Listed {
                    name: field(m, "name")?,
                    unit: field(m, "unit")?,
                })
            })
            .collect()
    };
    Ok(Spec {
        workloads: list("workloads")?
            .iter()
            .map(|w| field(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

#[derive(Debug)]
enum Json {
    /// A number, `true`, `false` or `null`: the lists need none.
    Scalar,
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// A JSON reader for the file's plain shape: objects, arrays, strings
/// with the standard escapes, numbers and literals.
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.i))
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            Ok(())
        } else {
            self.err(&format!("expected {:?}", b as char))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return self.err("expected ',' or '}'"),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return self.err("expected ',' or ']'"),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(_) => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|b| b.is_ascii_alphanumeric() || b"+-.".contains(b))
                {
                    self.i += 1;
                }
                let word = std::str::from_utf8(&self.s[start..self.i]).unwrap_or_default();
                if ["null", "true", "false"].contains(&word) || word.parse::<f64>().is_ok() {
                    Ok(Json::Scalar)
                } else {
                    self.err("bad value")
                }
            }
            None => self.err("unexpected end"),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return self.err("expected a string");
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.s.get(self.i) else {
                return self.err("unterminated string");
            };
            self.i += 1;
            match b {
                b'"' => return String::from_utf8(out).or_else(|_| self.err("bad UTF-8")),
                b'\\' => {
                    let Some(&e) = self.s.get(self.i) else {
                        return self.err("unterminated escape");
                    };
                    self.i += 1;
                    let c = match e {
                        b'"' | b'\\' | b'/' => e as char,
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).unwrap_or_default();
                            self.i += 4;
                            std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .map_or_else(|| self.err("bad \\u escape"), Ok)?
                        }
                        _ => return self.err("bad escape"),
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                _ => out.push(b),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_lists() {
        let spec = parse(
            r#"{"command": ["x"], "run_seconds": 10,
                "workloads": [{"name": "a", "why": "q\"uoted é"}],
                "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
                "per_layer": [{"name": "l.x", "unit": "Mop/s", "better": "higher"}]}"#,
        )
        .unwrap();
        assert_eq!(spec.workloads, ["a"]);
        assert_eq!(spec.end_to_end[0].name, "setup_s");
        assert_eq!(spec.per_layer[0].unit, "Mop/s");
    }

    #[test]
    fn refuses_broken_files() {
        assert!(parse(r#"{"workloads": [}"#).is_err());
        assert!(parse(r#"{"workloads": []} x"#).is_err());
        assert!(parse(r#"{"workloads": [], "end_to_end": []}"#).is_err());
    }
}
