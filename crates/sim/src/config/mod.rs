//! Declarative simulation configs: build any [`MemoryModel`] from a
//! serializable description.
//!
//! The ROADMAP's north star — "as many scenarios as you can imagine" —
//! needs new cache organizations to be a config file, not a code
//! change. [`SimConfig`] is that file's in-memory form: a tagged
//! description of one model, parsed from a small TOML subset (see
//! [`toml`]; no external dependencies — the build environment has no
//! crate registry), validated with paper-grounded error messages, and
//! built into a boxed [`MemoryModel`] the `cac run --config`
//! subcommand replays traces against.
//!
//! One section selects the organization:
//!
//! | section       | model |
//! |---------------|-------|
//! | `[cache]`     | [`crate::cache::Cache`] (any placement/policy) |
//! | `[hierarchy]` + `[[level]]` | [`crate::stack::Hierarchy`]; with `virtual-real = true`, the §3 design: a virtually indexed L1 over a physical L2 |
//! | `[column]`    | [`crate::column::ColumnAssociative`] |
//! | `[victim]`    | one-level [`crate::stack::Hierarchy`] with a victim buffer |
//! | `[stream]`    | one-level [`crate::stack::Hierarchy`] with stream buffers |
//! | `[jouppi]`    | one-level [`crate::stack::Hierarchy`] with both |
//!
//! The last three are sugar for Jouppi's organizations (reference
//! \[13\], the paper's §2.1 comparison): a modulo-indexed level (the
//! `[stream]` section takes any `index`) with the named sidecars,
//! evaluated by loads only. Stores pass through as
//! [`ServicePoint::Bypass`](crate::model::ServicePoint::Bypass) and are
//! counted as `stores-bypassed`; the report keeps the section's own
//! component name (`victim`, `stream`, `jouppi`) and extras.
//!
//! Shipped examples for every organization in the paper's comparison
//! matrix live under `examples/*.toml`; `cac config validate` keeps
//! them building.

pub mod toml;

use crate::cache::{Cache, WritePolicy};
use crate::column::{ColumnAssociative, RehashKind};
use crate::model::MemoryModel;
use crate::replacement::ReplacementPolicy;
use crate::stack::{Hierarchy, JouppiPart, LevelBuilder, LoadsOnly};
use crate::vm::PageMapper;
use cac_core::{parse_size, CacheGeometry, Error, IndexSpec};
use toml::{Table, Value};

/// A cache array description, shared by `[cache]` and `[[level]]`.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Geometry (capacity / line / ways).
    pub geometry: CacheGeometry,
    /// Placement scheme.
    pub index: IndexSpec,
    /// Replacement policy.
    pub replacement: ReplacementPolicy,
    /// Write policy.
    pub write_policy: WritePolicy,
    /// Seed for the random-replacement stream.
    pub seed: u64,
}

impl CacheConfig {
    /// A cache with the paper's defaults (LRU, write-through /
    /// no-write-allocate).
    pub fn new(geometry: CacheGeometry, index: IndexSpec) -> Self {
        CacheConfig {
            geometry,
            index,
            replacement: ReplacementPolicy::Lru,
            write_policy: WritePolicy::WriteThroughNoAllocate,
            seed: 0x5eed_cace,
        }
    }

    fn build(&self) -> Result<Cache, Error> {
        Cache::builder(self.geometry)
            .index_spec(self.index.clone())
            .replacement(self.replacement)
            .write_policy(self.write_policy)
            .seed(self.seed)
            .build()
    }
}

/// One level of a `[hierarchy]`: a cache plus optional sidecars.
#[derive(Debug, Clone)]
pub struct LevelConfig {
    /// The level's cache array.
    pub cache: CacheConfig,
    /// Victim-buffer sidecar (lines), if attached.
    pub victim_lines: Option<usize>,
    /// Stream-buffer sidecar (buffers, depth), if attached.
    pub stream: Option<(usize, usize)>,
    /// MSHR-file sidecar (registers), if attached.
    pub mshrs: Option<usize>,
    /// Fill latency reported to the MSHR file (cycles).
    pub miss_penalty: u64,
}

impl LevelConfig {
    /// A bare level around `cache` (no sidecars).
    pub fn new(cache: CacheConfig) -> Self {
        LevelConfig {
            cache,
            victim_lines: None,
            stream: None,
            mshrs: None,
            miss_penalty: crate::stack::DEFAULT_MISS_PENALTY,
        }
    }

    fn has_sidecars(&self) -> bool {
        self.victim_lines.is_some() || self.stream.is_some() || self.mshrs.is_some()
    }

    fn level_builder(&self) -> LevelBuilder {
        let mut lb = LevelBuilder::new(self.cache.geometry)
            .index_spec(self.cache.index.clone())
            .replacement(self.cache.replacement)
            .write_policy(self.cache.write_policy)
            .seed(self.cache.seed)
            .miss_penalty(self.miss_penalty);
        if let Some(v) = self.victim_lines {
            lb = lb.victim_buffer(v);
        }
        if let Some((n, d)) = self.stream {
            lb = lb.stream_buffers(n, d);
        }
        if let Some(m) = self.mshrs {
            lb = lb.mshrs(m);
        }
        lb
    }
}

/// Virtual→physical page-mapping description (virtual-real hierarchies
/// only).
#[derive(Debug, Clone)]
pub enum MappingConfig {
    /// Physical address equals virtual address.
    Identity,
    /// Deterministic pseudo-random demand paging.
    Randomized {
        /// Page size in bytes.
        page_size: u64,
        /// Physical memory pool in bytes.
        memory: u64,
        /// Frame-assignment seed.
        seed: u64,
    },
    /// Many-to-one aliasing (`vpn mod frames`).
    Aliased {
        /// Page size in bytes.
        page_size: u64,
        /// Number of physical frames.
        frames: u64,
    },
}

impl MappingConfig {
    fn mapper(&self) -> PageMapper {
        match *self {
            MappingConfig::Identity => PageMapper::identity(),
            MappingConfig::Randomized {
                page_size,
                memory,
                seed,
            } => PageMapper::randomized(page_size, memory, seed),
            MappingConfig::Aliased { page_size, frames } => PageMapper::aliased(page_size, frames),
        }
    }
}

/// A multi-level hierarchy description.
#[derive(Debug, Clone)]
pub struct HierarchyConfig {
    /// The levels, processor side first.
    pub levels: Vec<LevelConfig>,
    /// `true` builds the paper's §3 virtual-real design: a
    /// [`Hierarchy`] of exactly two levels, no sidecars, whose L1 is
    /// virtually indexed ([`crate::stack::HierarchyBuilder::virtual_l1`]);
    /// `false` builds a physical [`Hierarchy`].
    pub virtual_real: bool,
    /// Inclusion enforcement (generic stacks only; the virtual-real
    /// hierarchy always enforces it).
    pub inclusion: bool,
    /// Page mapping (virtual-real only).
    pub mapping: MappingConfig,
}

/// A column-associative cache description (§3.1 option 4).
#[derive(Debug, Clone)]
pub struct ColumnConfig {
    /// Geometry (interpreted direct-mapped).
    pub geometry: CacheGeometry,
    /// Second-probe function.
    pub rehash: RehashKind,
}

/// A victim-cache description (Jouppi's first half).
#[derive(Debug, Clone)]
pub struct VictimConfig {
    /// Main-cache geometry.
    pub geometry: CacheGeometry,
    /// Victim-buffer lines.
    pub victim_lines: usize,
}

/// A stream-buffer cache description (Jouppi's second half).
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Cache geometry.
    pub geometry: CacheGeometry,
    /// Placement scheme.
    pub index: IndexSpec,
    /// Number of stream buffers.
    pub buffers: usize,
    /// Depth of each buffer (blocks).
    pub depth: usize,
}

/// The full Jouppi organization description.
#[derive(Debug, Clone)]
pub struct JouppiConfig {
    /// Main-cache geometry.
    pub geometry: CacheGeometry,
    /// Victim-buffer lines.
    pub victim_lines: usize,
    /// Number of stream buffers.
    pub stream_buffers: usize,
    /// Depth of each stream buffer.
    pub stream_depth: usize,
}

/// A deliberately faulty model for exercising the sweep engine's panic
/// isolation (see [`crate::model::PoisonModel`]). Test-and-demo only.
#[derive(Debug, Clone)]
pub struct PoisonConfig {
    /// Accesses replayed before the model starts panicking.
    pub after: u64,
}

/// The model a [`SimConfig`] describes.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum ModelConfig {
    /// A single parametric cache.
    Cache(CacheConfig),
    /// A multi-level hierarchy (virtual-real or generic).
    Hierarchy(HierarchyConfig),
    /// A column-associative cache.
    Column(ColumnConfig),
    /// A victim cache.
    Victim(VictimConfig),
    /// A stream-buffer cache.
    Stream(StreamConfig),
    /// The complete Jouppi organization.
    Jouppi(JouppiConfig),
    /// A panic-injection fixture ([`crate::model::PoisonModel`]).
    Poison(PoisonConfig),
}

/// A declarative simulation configuration: an optional name plus one
/// model description. See the [module docs](self) for the file format.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Display name (`name = "..."` at the file's top level).
    pub name: Option<String>,
    /// The model to build.
    pub model: ModelConfig,
}

impl SimConfig {
    /// Wraps a model description without a name.
    pub fn new(model: ModelConfig) -> Self {
        SimConfig { name: None, model }
    }

    /// Shorthand for a single-cache config with the paper's default
    /// policies.
    pub fn cache(geometry: CacheGeometry, index: IndexSpec) -> Self {
        SimConfig::new(ModelConfig::Cache(CacheConfig::new(geometry, index)))
    }

    /// Names the config (builder style).
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Builds the described model.
    ///
    /// # Errors
    ///
    /// Any geometry/placement validation error, plus [`Error::Config`]
    /// for descriptions the organizations cannot realize.
    ///
    /// # Example
    ///
    /// The paper's §4 L1 — 8KB, 2-way, 32-byte lines, skewed I-Poly
    /// placement — as a config:
    ///
    /// ```
    /// use cac_sim::config::SimConfig;
    /// use cac_trace::MemRef;
    ///
    /// let cfg = SimConfig::from_toml_str(
    ///     "name = \"paper section-4 L1\"\n\
    ///      [cache]\n\
    ///      size = \"8KiB\"\n\
    ///      line = 32\n\
    ///      ways = 2\n\
    ///      index = \"ipoly-skew\"\n",
    /// )?;
    /// let mut model = cfg.build()?;
    /// // Figure 1's pathological power-of-two stride: the skewed I-Poly
    /// // organization sees only the 64 compulsory misses.
    /// for _pass in 0..10 {
    ///     for i in 0..64u64 {
    ///         model.access(MemRef { pc: 0, addr: i * 4096, is_write: false });
    ///     }
    /// }
    /// assert_eq!(model.stats().demand.misses, 64);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn build(&self) -> Result<Box<dyn MemoryModel>, Error> {
        match &self.model {
            ModelConfig::Cache(c) => Ok(Box::new(c.build()?)),
            ModelConfig::Hierarchy(h) => build_hierarchy(h),
            ModelConfig::Column(c) => Ok(Box::new(ColumnAssociative::with_rehash(
                c.geometry, c.rehash,
            )?)),
            ModelConfig::Victim(v) => Ok(Box::new(LoadsOnly::new(
                JouppiPart::Victim,
                LevelBuilder::new(v.geometry).victim_buffer(v.victim_lines),
            )?)),
            ModelConfig::Stream(s) => Ok(Box::new(LoadsOnly::new(
                JouppiPart::Stream,
                LevelBuilder::new(s.geometry)
                    .index_spec(s.index.clone())
                    .stream_buffers(s.buffers, s.depth),
            )?)),
            ModelConfig::Jouppi(j) => Ok(Box::new(LoadsOnly::new(
                JouppiPart::Both,
                LevelBuilder::new(j.geometry)
                    .victim_buffer(j.victim_lines)
                    .stream_buffers(j.stream_buffers, j.stream_depth),
            )?)),
            ModelConfig::Poison(p) => Ok(Box::new(crate::model::PoisonModel::new(p.after))),
        }
    }

    /// The geometry of the model's primary (closest-to-CPU) cache:
    /// level 1 for hierarchies, the main array for
    /// column/victim/stream/Jouppi organizations. `None` for models
    /// without a cache array (the poison fixture). This is the geometry
    /// the [`analytic`](crate::analytic) tier predicts for.
    pub fn primary_geometry(&self) -> Option<CacheGeometry> {
        match &self.model {
            ModelConfig::Cache(c) => Some(c.geometry),
            ModelConfig::Hierarchy(h) => h.levels.first().map(|l| l.cache.geometry),
            ModelConfig::Column(c) => Some(c.geometry),
            ModelConfig::Victim(v) => Some(v.geometry),
            ModelConfig::Stream(s) => Some(s.geometry),
            ModelConfig::Jouppi(j) => Some(j.geometry),
            ModelConfig::Poison(_) => None,
        }
    }

    /// The placement scheme of the model's primary cache.
    /// Column/victim/Jouppi primary arrays are modulus-indexed by
    /// construction; `None` for models without a cache array. Paired
    /// with [`SimConfig::primary_geometry`], this tells the analytic
    /// tier which estimator applies (exact Mattson curves for modulus
    /// placement, the binomial model for hashed placement).
    pub fn primary_index(&self) -> Option<IndexSpec> {
        match &self.model {
            ModelConfig::Cache(c) => Some(c.index.clone()),
            ModelConfig::Hierarchy(h) => h.levels.first().map(|l| l.cache.index.clone()),
            ModelConfig::Column(_) | ModelConfig::Victim(_) | ModelConfig::Jouppi(_) => {
                Some(IndexSpec::modulo())
            }
            ModelConfig::Stream(s) => Some(s.index.clone()),
            ModelConfig::Poison(_) => None,
        }
    }

    /// Parses a config document.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] on syntax errors, unknown sections/keys, or
    /// descriptions that fail validation.
    pub fn from_toml_str(input: &str) -> Result<SimConfig, Error> {
        let doc = toml::parse(input)?;
        check_keys(&doc.root, &["name", "description"], "the file's top level")?;
        let name = opt_str(&doc.root, "name")?;

        let model_sections: Vec<&str> = doc
            .section_names()
            .into_iter()
            .filter(|n| {
                matches!(
                    *n,
                    "cache" | "hierarchy" | "column" | "victim" | "stream" | "jouppi" | "poison"
                )
            })
            .collect();
        let has_levels = !doc.section_array("level").is_empty();
        let model = match (model_sections.as_slice(), has_levels) {
            (["cache"], false) => ModelConfig::Cache(parse_cache_table(
                doc.section("cache")?.expect("present"),
                &[],
            )?),
            (["hierarchy"], _) => ModelConfig::Hierarchy(parse_hierarchy(&doc)?),
            (["column"], false) => {
                ModelConfig::Column(parse_column(doc.section("column")?.expect("present"))?)
            }
            (["victim"], false) => {
                ModelConfig::Victim(parse_victim(doc.section("victim")?.expect("present"))?)
            }
            (["stream"], false) => {
                ModelConfig::Stream(parse_stream(doc.section("stream")?.expect("present"))?)
            }
            (["jouppi"], false) => {
                ModelConfig::Jouppi(parse_jouppi(doc.section("jouppi")?.expect("present"))?)
            }
            (["poison"], false) => {
                let table = doc.section("poison")?.expect("present");
                check_keys(table, &["after"], "[poison]")?;
                ModelConfig::Poison(PoisonConfig {
                    after: get_u64(table, "after", 0)?,
                })
            }
            ([], false) => {
                return Err(Error::config(
                    "no model section; add one of [cache], [hierarchy] (with [[level]] \
                     entries), [column], [victim], [stream] or [jouppi]",
                ))
            }
            (_, true) if model_sections != ["hierarchy"] => {
                return Err(Error::config(
                    "[[level]] entries belong to a [hierarchy] section",
                ))
            }
            _ => {
                return Err(Error::config(format!(
                    "exactly one model section is allowed, found: {}",
                    model_sections.join(", ")
                )))
            }
        };
        // Reject stray sections the parser did not consume.
        for n in doc.section_names() {
            if !matches!(
                n,
                "cache"
                    | "hierarchy"
                    | "level"
                    | "column"
                    | "victim"
                    | "stream"
                    | "jouppi"
                    | "poison"
            ) {
                return Err(Error::config(format!(
                    "unknown section [{n}]; valid sections: cache, hierarchy, level, \
                     column, victim, stream, jouppi"
                )));
            }
        }
        Ok(SimConfig { name, model })
    }

    /// Reads and parses a config file.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] for I/O problems (with the path in the
    /// message), plus everything [`SimConfig::from_toml_str`] reports.
    pub fn load(path: &str) -> Result<SimConfig, Error> {
        let input = std::fs::read_to_string(path)
            .map_err(|e| Error::config(format!("cannot read {path}: {e}")))?;
        SimConfig::from_toml_str(&input).map_err(|e| match e {
            Error::Config { message } => Error::config(format!("{path}: {message}")),
            other => other,
        })
    }
}

fn build_hierarchy(h: &HierarchyConfig) -> Result<Box<dyn MemoryModel>, Error> {
    let mut b = Hierarchy::builder().inclusion(h.inclusion);
    if h.virtual_real {
        if h.levels.len() != 2 {
            return Err(Error::config(format!(
                "the virtual-real hierarchy has exactly two levels (virtually-indexed L1 \
                 over physically-indexed L2, §3.1), got {}",
                h.levels.len()
            )));
        }
        if h.levels.iter().any(LevelConfig::has_sidecars) {
            return Err(Error::config(
                "sidecars (victim/stream/mshr) are not available on the virtual-real \
                 hierarchy; use a generic hierarchy (virtual-real = false) instead",
            ));
        }
        let (l1, l2) = (&h.levels[0].cache, &h.levels[1].cache);
        if l1.write_policy != WritePolicy::WriteThroughNoAllocate
            || l2.write_policy != WritePolicy::WriteBackAllocate
        {
            return Err(Error::config(
                "the virtual-real hierarchy fixes L1 write-through/no-write-allocate and \
                 L2 write-back/write-allocate (§4); remove the write-policy overrides",
            ));
        }
        b = b.virtual_l1(h.mapping.mapper());
    } else if !matches!(h.mapping, MappingConfig::Identity) {
        return Err(Error::config(
            "page-mapping applies only to the virtual-real hierarchy (the generic \
             stack is physically addressed); set virtual-real = true",
        ));
    }
    for level in &h.levels {
        b = b.level(level.level_builder());
    }
    Ok(Box::new(b.build()?))
}

// ---------------------------------------------------------------------
// TOML-table → config parsing helpers
// ---------------------------------------------------------------------

fn check_keys(table: &Table, allowed: &[&str], context: &str) -> Result<(), Error> {
    for key in table.keys() {
        if !allowed.contains(&key) {
            return Err(Error::config(format!(
                "unknown key {key:?} in {context}; valid keys: {}",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

fn opt_str(table: &Table, key: &str) -> Result<Option<String>, Error> {
    match table.get(key) {
        None => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(other) => Err(Error::config(format!(
            "{key} must be a string, got a {}",
            other.type_name()
        ))),
    }
}

fn get_u64(table: &Table, key: &str, default: u64) -> Result<u64, Error> {
    match table.get(key) {
        None => Ok(default),
        Some(Value::Int(v)) if *v >= 0 => Ok(*v as u64),
        Some(other) => Err(Error::config(format!(
            "{key} must be a non-negative integer, got {other:?}"
        ))),
    }
}

fn get_usize(table: &Table, key: &str, default: usize) -> Result<usize, Error> {
    Ok(get_u64(table, key, default as u64)? as usize)
}

fn get_bool(table: &Table, key: &str, default: bool) -> Result<bool, Error> {
    match table.get(key) {
        None => Ok(default),
        Some(Value::Bool(v)) => Ok(*v),
        Some(other) => Err(Error::config(format!(
            "{key} must be true or false, got a {}",
            other.type_name()
        ))),
    }
}

/// A byte size: an integer or a string with binary-unit suffix.
fn get_size(table: &Table, key: &str, default: Option<u64>) -> Result<u64, Error> {
    match table.get(key) {
        None => default.ok_or_else(|| Error::config(format!("missing required key {key:?}"))),
        Some(Value::Int(v)) if *v > 0 => Ok(*v as u64),
        Some(Value::Str(s)) => parse_size(s),
        Some(other) => Err(Error::config(format!(
            "{key} must be a byte count or a size string like \"8KiB\", got {other:?}"
        ))),
    }
}

const CACHE_KEYS: &[&str] = &[
    "size",
    "line",
    "ways",
    "index",
    "replacement",
    "write-policy",
    "seed",
];

/// Parses the shared cache keys (plus `extra_allowed` sidecar keys the
/// caller will read itself) into a [`CacheConfig`].
fn parse_cache_table(table: &Table, extra_allowed: &[&str]) -> Result<CacheConfig, Error> {
    let mut allowed: Vec<&str> = CACHE_KEYS.to_vec();
    allowed.extend_from_slice(extra_allowed);
    check_keys(table, &allowed, "a cache description")?;
    let size = get_size(table, "size", None)?;
    let line = get_size(table, "line", Some(32))?;
    let ways = get_u64(table, "ways", 1)? as u32;
    let geometry = CacheGeometry::new(size, line, ways)?;
    let index = match opt_str(table, "index")? {
        None => IndexSpec::modulo(),
        Some(name) => IndexSpec::parse(&name)?,
    };
    let replacement = match opt_str(table, "replacement")?.as_deref() {
        None | Some("lru") => ReplacementPolicy::Lru,
        Some("fifo") => ReplacementPolicy::Fifo,
        Some("random") => ReplacementPolicy::Random,
        Some(other) => {
            return Err(Error::config(format!(
                "unknown replacement policy {other:?}; valid: lru, fifo, random"
            )))
        }
    };
    let write_policy = match opt_str(table, "write-policy")?.as_deref() {
        None | Some("write-through") => WritePolicy::WriteThroughNoAllocate,
        Some("write-back") => WritePolicy::WriteBackAllocate,
        Some(other) => {
            return Err(Error::config(format!(
                "unknown write policy {other:?}; valid: write-through (no-write-allocate, \
                 the paper's L1) or write-back (write-allocate, the paper's L2)"
            )))
        }
    };
    let seed = get_u64(table, "seed", 0x5eed_cace)?;
    Ok(CacheConfig {
        geometry,
        index,
        replacement,
        write_policy,
        seed,
    })
}

const LEVEL_SIDECAR_KEYS: &[&str] = &[
    "victim-lines",
    "stream-buffers",
    "stream-depth",
    "mshrs",
    "miss-penalty",
];

fn parse_level(table: &Table, position: usize) -> Result<LevelConfig, Error> {
    let mut cache = parse_cache_table(table, LEVEL_SIDECAR_KEYS)?;
    // Deeper levels default to the paper's L2 policy unless overridden.
    if position > 0 && table.get("write-policy").is_none() {
        cache.write_policy = WritePolicy::WriteBackAllocate;
    }
    let victim_lines = match get_usize(table, "victim-lines", 0)? {
        0 => None,
        n => Some(n),
    };
    let buffers = get_usize(table, "stream-buffers", 0)?;
    let depth = get_usize(table, "stream-depth", 4)?;
    let stream = (buffers > 0).then_some((buffers, depth));
    if buffers == 0 && table.get("stream-depth").is_some() {
        return Err(Error::config(
            "stream-depth without stream-buffers; set both (Jouppi's configuration is 4x4)",
        ));
    }
    let mshrs = match get_usize(table, "mshrs", 0)? {
        0 => None,
        n => Some(n),
    };
    Ok(LevelConfig {
        cache,
        victim_lines,
        stream,
        mshrs,
        miss_penalty: get_u64(table, "miss-penalty", crate::stack::DEFAULT_MISS_PENALTY)?,
    })
}

fn parse_hierarchy(doc: &toml::Doc) -> Result<HierarchyConfig, Error> {
    let table = doc.section("hierarchy")?.expect("caller checked");
    check_keys(
        table,
        &[
            "virtual-real",
            "inclusion",
            "page-mapping",
            "page-size",
            "memory",
            "frames",
            "seed",
        ],
        "[hierarchy]",
    )?;
    let virtual_real = get_bool(table, "virtual-real", false)?;
    if virtual_real && table.get("inclusion").is_some() {
        return Err(Error::config(
            "inclusion cannot be overridden on the virtual-real hierarchy — it always \
             enforces Inclusion (§3.2); the key applies to generic stacks only",
        ));
    }
    let inclusion = get_bool(table, "inclusion", true)?;
    let page_size = get_size(table, "page-size", Some(4096))?;
    let mapping = match opt_str(table, "page-mapping")?.as_deref() {
        None | Some("identity") => {
            for key in ["page-size", "memory", "frames", "seed"] {
                if table.get(key).is_some() {
                    return Err(Error::config(format!(
                        "{key} only applies to the randomized/aliased page mappings"
                    )));
                }
            }
            MappingConfig::Identity
        }
        Some("randomized") => {
            let memory = get_size(table, "memory", Some(256 << 20))?;
            if !page_size.is_power_of_two() || memory == 0 || !memory.is_multiple_of(page_size) {
                return Err(Error::config(format!(
                    "page-size {page_size} must be a power of two and memory {memory} a \
                     positive multiple of it (whole page frames, §3.1)"
                )));
            }
            MappingConfig::Randomized {
                page_size,
                memory,
                seed: get_u64(table, "seed", 42)?,
            }
        }
        Some("aliased") => {
            let frames = get_u64(table, "frames", 16)?;
            if !page_size.is_power_of_two() || frames == 0 {
                return Err(Error::config(format!(
                    "page-size {page_size} must be a power of two and frames {frames} at \
                     least 1 (aliases share a frame modulo the frame count, §3.3)"
                )));
            }
            MappingConfig::Aliased { page_size, frames }
        }
        Some(other) => {
            return Err(Error::config(format!(
                "unknown page-mapping {other:?}; valid: identity, randomized, aliased"
            )))
        }
    };
    let level_tables = doc.section_array("level");
    if level_tables.is_empty() {
        return Err(Error::config(
            "[hierarchy] needs [[level]] entries, processor side first \
             (the paper's §4 machine: an 8KB L1 over a 256KB..1MB L2)",
        ));
    }
    let levels = level_tables
        .iter()
        .enumerate()
        .map(|(i, t)| parse_level(t, i))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(HierarchyConfig {
        levels,
        virtual_real,
        inclusion,
        mapping,
    })
}

fn parse_column(table: &Table) -> Result<ColumnConfig, Error> {
    check_keys(table, &["size", "line", "rehash"], "[column]")?;
    let geometry = CacheGeometry::new(
        get_size(table, "size", None)?,
        get_size(table, "line", Some(32))?,
        1,
    )?;
    let rehash = match opt_str(table, "rehash")?.as_deref() {
        None | Some("polynomial") => RehashKind::Polynomial,
        Some("top-bit-flip") => RehashKind::TopBitFlip,
        Some(other) => {
            return Err(Error::config(format!(
                "unknown rehash {other:?}; valid: polynomial (§3.1 option 4) or \
                 top-bit-flip (the hash-rehash baseline)"
            )))
        }
    };
    Ok(ColumnConfig { geometry, rehash })
}

fn parse_victim(table: &Table) -> Result<VictimConfig, Error> {
    check_keys(table, &["size", "line", "ways", "victim-lines"], "[victim]")?;
    let geometry = CacheGeometry::new(
        get_size(table, "size", None)?,
        get_size(table, "line", Some(32))?,
        get_u64(table, "ways", 1)? as u32,
    )?;
    Ok(VictimConfig {
        geometry,
        victim_lines: get_usize(table, "victim-lines", 4)?,
    })
}

fn parse_stream(table: &Table) -> Result<StreamConfig, Error> {
    check_keys(
        table,
        &["size", "line", "ways", "index", "buffers", "depth"],
        "[stream]",
    )?;
    let geometry = CacheGeometry::new(
        get_size(table, "size", None)?,
        get_size(table, "line", Some(32))?,
        get_u64(table, "ways", 1)? as u32,
    )?;
    let index = match opt_str(table, "index")? {
        None => IndexSpec::modulo(),
        Some(name) => IndexSpec::parse(&name)?,
    };
    Ok(StreamConfig {
        geometry,
        index,
        buffers: get_usize(table, "buffers", 4)?,
        depth: get_usize(table, "depth", 4)?,
    })
}

fn parse_jouppi(table: &Table) -> Result<JouppiConfig, Error> {
    check_keys(
        table,
        &[
            "size",
            "line",
            "victim-lines",
            "stream-buffers",
            "stream-depth",
        ],
        "[jouppi]",
    )?;
    let geometry = CacheGeometry::new(
        get_size(table, "size", None)?,
        get_size(table, "line", Some(32))?,
        1,
    )?;
    Ok(JouppiConfig {
        geometry,
        victim_lines: get_usize(table, "victim-lines", 4)?,
        stream_buffers: get_usize(table, "stream-buffers", 4)?,
        stream_depth: get_usize(table, "stream-depth", 4)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cac_trace::MemRef;

    fn refs(n: u64) -> Vec<MemRef> {
        (0..n)
            .map(|i| MemRef {
                pc: 0x1000 + i,
                addr: (i.wrapping_mul(0x9E37_79B9) >> 5) & 0xF_FFFF,
                is_write: i % 7 == 0,
            })
            .collect()
    }

    #[test]
    fn cache_config_matches_hand_wired_cache() {
        let cfg = SimConfig::from_toml_str(
            "[cache]\nsize = \"8KiB\"\nline = 32\nways = 2\nindex = \"ipoly-skew\"\n",
        )
        .unwrap();
        let mut model = cfg.build().unwrap();
        let mut reference = Cache::build(
            CacheGeometry::new(8 * 1024, 32, 2).unwrap(),
            IndexSpec::ipoly_skewed(),
        )
        .unwrap();
        let refs = refs(20_000);
        let delta = model.run_refs(&refs);
        let expect = reference.run_refs(refs.iter().copied());
        assert_eq!(delta.demand, expect);
    }

    #[test]
    fn virtual_real_hierarchy_builds_and_accepts_mappings() {
        let cfg = SimConfig::from_toml_str(
            "name = \"vr\"\n[hierarchy]\nvirtual-real = true\npage-mapping = \"randomized\"\n\
             page-size = 4096\nmemory = \"64MiB\"\nseed = 7\n\
             [[level]]\nsize = \"8KiB\"\nways = 2\nindex = \"ipoly-skew\"\n\
             [[level]]\nsize = \"256KiB\"\nways = 2\n",
        )
        .unwrap();
        assert_eq!(cfg.name.as_deref(), Some("vr"));
        let mut model = cfg.build().unwrap();
        let refs = refs(30_000);
        let delta = model.run_refs(&refs);
        assert_eq!(delta.demand.accesses, 30_000);
        assert!(model.stats().extra("holes-created").is_some());
        assert!(model.describe().contains("virtual-real"));
    }

    #[test]
    fn generic_hierarchy_with_sidecars_builds() {
        let cfg = SimConfig::from_toml_str(
            "[hierarchy]\n\
             [[level]]\nsize = \"8KiB\"\nvictim-lines = 4\nstream-buffers = 4\nmshrs = 8\n\
             [[level]]\nsize = \"64KiB\"\n\
             [[level]]\nsize = \"1MiB\"\n",
        )
        .unwrap();
        let mut model = cfg.build().unwrap();
        let refs = refs(20_000);
        model.run_refs(&refs);
        let s = model.stats();
        assert_eq!(s.components.len(), 3);
        assert!(s.extra("l1-victim-hits").is_some());
        assert!(s.extra("l1-mshr-primary").is_some());
    }

    #[test]
    fn every_organization_section_builds() {
        for (section, needle) in [
            ("[column]\nsize = \"8KiB\"\n", "column"),
            ("[victim]\nsize = \"8KiB\"\nvictim-lines = 4\n", "victim"),
            (
                "[stream]\nsize = \"8KiB\"\nbuffers = 4\ndepth = 4\n",
                "stream",
            ),
            ("[jouppi]\nsize = \"8KiB\"\n", "Jouppi"),
        ] {
            let cfg = SimConfig::from_toml_str(section).unwrap();
            let mut model = cfg.build().unwrap();
            let refs = refs(5_000);
            let delta = model.run_refs(&refs);
            assert!(delta.demand.reads > 0, "{section}");
            assert!(model.describe().contains(needle), "{section}");
        }
    }

    #[test]
    fn validation_messages_are_grounded() {
        for (src, needle) in [
            ("x = 1", "unknown key"),
            ("", "no model section"),
            ("[cache]\n", "missing required key \"size\""),
            (
                "[cache]\nsize = \"8KiB\"\n[column]\nsize = \"8KiB\"\n",
                "exactly one",
            ),
            (
                "[cache]\nsize = \"8KiB\"\nindex = \"sha256\"\n",
                "unknown index scheme",
            ),
            ("[cache]\nsize = 3000\n", "power of two"),
            (
                "[cache]\nsize = \"8KiB\"\nwrite-policy = \"wt\"\n",
                "write-through",
            ),
            ("[[level]]\nsize = \"8KiB\"\n", "[hierarchy]"),
            ("[hierarchy]\n", "[[level]]"),
            (
                "[hierarchy]\nvirtual-real = true\n[[level]]\nsize = \"8KiB\"\n",
                "exactly two levels",
            ),
            (
                "[hierarchy]\nvirtual-real = true\n[[level]]\nsize = \"8KiB\"\nvictim-lines = 2\n\
                 [[level]]\nsize = \"64KiB\"\n",
                "sidecars",
            ),
            (
                "[hierarchy]\npage-mapping = \"randomized\"\n[[level]]\nsize = \"8KiB\"\n\
                 [[level]]\nsize = \"64KiB\"\n",
                "virtual-real",
            ),
            (
                "[hierarchy]\nvirtual-real = true\ninclusion = false\n\
                 [[level]]\nsize = \"8KiB\"\n[[level]]\nsize = \"64KiB\"\n",
                "always",
            ),
            (
                "[hierarchy]\npage-size = 8192\n[[level]]\nsize = \"8KiB\"\n",
                "randomized/aliased",
            ),
            (
                "[hierarchy]\n[[level]]\nsize = \"8KiB\"\n[[level]]\nsize = \"4KiB\"\n",
                "Inclusion",
            ),
            // A virtual-real stack's geometry is checked as a physical
            // one's is.
            (
                "[hierarchy]\nvirtual-real = true\n\
                 [[level]]\nsize = \"8KiB\"\n[[level]]\nsize = \"4KiB\"\n",
                "level 2 capacity 4096 < level 1 capacity 8192; Inclusion requires each \
                 level to cover the one above it",
            ),
            (
                "[hierarchy]\nvirtual-real = true\n\
                 [[level]]\nsize = \"8KiB\"\n[[level]]\nsize = \"64KiB\"\nline = 64\n",
                "level 1 block size 32 != level 2 block size 64; all levels must share one \
                 line size",
            ),
            // Page mappings the mapper cannot build.
            (
                "[hierarchy]\nvirtual-real = true\npage-mapping = \"randomized\"\n\
                 page-size = 3000\n[[level]]\nsize = \"8KiB\"\n[[level]]\nsize = \"64KiB\"\n",
                "page-size 3000 must be a power of two",
            ),
            (
                "[hierarchy]\nvirtual-real = true\npage-mapping = \"randomized\"\n\
                 memory = 6000\n[[level]]\nsize = \"8KiB\"\n[[level]]\nsize = \"64KiB\"\n",
                "memory 6000 a positive multiple",
            ),
            (
                "[hierarchy]\nvirtual-real = true\npage-mapping = \"aliased\"\n\
                 frames = 0\n[[level]]\nsize = \"8KiB\"\n[[level]]\nsize = \"64KiB\"\n",
                "frames 0 at least 1",
            ),
            (
                "[hierarchy]\nvirtual-real = true\npage-mapping = \"aliased\"\n\
                 page-size = 3000\n[[level]]\nsize = \"8KiB\"\n[[level]]\nsize = \"64KiB\"\n",
                "page-size 3000 must be a power of two",
            ),
            ("[cache]\nsize = \"8KiB\"\n[stray]\nx = 1\n", "unknown"),
            // Zero-sized buffers, in the order the organization checks them.
            (
                "[victim]\nsize = \"8KiB\"\nvictim-lines = 0\n",
                "victim buffer lines out of range: 0 (must be >= 1)",
            ),
            (
                "[stream]\nsize = \"8KiB\"\nbuffers = 0\n",
                "stream buffers out of range: 0 (must be >= 1)",
            ),
            (
                "[stream]\nsize = \"8KiB\"\ndepth = 0\n",
                "stream buffer depth out of range: 0 (must be >= 1)",
            ),
            (
                "[jouppi]\nsize = \"8KiB\"\nvictim-lines = 0\nstream-buffers = 0\n",
                "victim buffer lines out of range",
            ),
            (
                "[jouppi]\nsize = \"8KiB\"\nstream-buffers = 0\nstream-depth = 0\n",
                "stream buffers out of range",
            ),
            (
                "[jouppi]\nsize = \"8KiB\"\nstream-depth = 0\n",
                "stream buffer depth out of range",
            ),
        ] {
            let err = SimConfig::from_toml_str(src)
                .and_then(|c| c.build().map(|_| ()))
                .unwrap_err()
                .to_string();
            assert!(err.contains(needle), "{src:?} -> {err}");
        }
    }

    #[test]
    fn load_reports_the_path() {
        let err = SimConfig::load("/nonexistent/x.toml")
            .unwrap_err()
            .to_string();
        assert!(err.contains("/nonexistent/x.toml"), "{err}");
    }
}
