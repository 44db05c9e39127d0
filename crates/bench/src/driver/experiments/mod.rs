//! The experiment implementations behind the `cac` subcommands.
//!
//! Each submodule holds one group of experiments as functions from
//! [`ExpArgs`](crate::driver::args::ExpArgs) to
//! [`Report`](crate::driver::report::Report); [`REGISTRY`] binds them
//! to subcommand names and declared parameters.
//!
//! Parameter declaration order matters: it is the order in which
//! `cac <command>` accepts parameters positionally.

mod ablations;
mod analytic;
mod benchmarks;
mod cache_level;
mod common;
mod configs;
mod corpus;
mod cpu_level;
mod figures;
mod hardware;
mod hier;
mod tables;
mod tools;

use crate::driver::args::{param, vparam};
use crate::driver::Experiment;

pub use cache_level::organization_matrix;

/// Every registered experiment, in help-display order.
pub const REGISTRY: &[Experiment] = &[
    // ----- paper figures & tables ------------------------------------
    Experiment {
        name: "fig1",
        group: "paper figures & tables",
        summary: "Figure 1: per-stride miss-ratio distribution of the four schemes",
        params: &[
            param("max-stride", "4096", "sweep strides 1..max (8B elements)"),
            param("passes", "16", "passes over the 64-element vector"),
        ],
        run: figures::fig1,
    },
    Experiment {
        name: "table1",
        group: "paper figures & tables",
        summary: "Table 1: functional units and processor parameters, verified",
        params: &[],
        run: tables::table1,
    },
    Experiment {
        name: "table2",
        group: "paper figures & tables",
        summary: "Table 2: IPC and load miss ratio, 18 workloads x 6 configurations",
        params: &[param("ops", "200000", "instructions per configuration")],
        run: tables::table2,
    },
    Experiment {
        name: "table3",
        group: "paper figures & tables",
        summary: "Table 3: the high-conflict programs and the headline IPC gains",
        params: &[param("ops", "200000", "instructions per configuration")],
        run: tables::table3,
    },
    // ----- cache-level studies ---------------------------------------
    Experiment {
        name: "missratio",
        group: "cache-level studies",
        summary: "section 2.1: conventional vs I-Poly vs fully-associative miss ratios",
        params: &[param("ops", "400000", "ops per benchmark")],
        run: cache_level::missratio,
    },
    Experiment {
        name: "organizations",
        group: "cache-level studies",
        summary: "section 2.1: every named 8KB cache organization, head to head",
        params: &[param("ops", "200000", "ops per benchmark")],
        run: cache_level::organizations,
    },
    Experiment {
        name: "column",
        group: "cache-level studies",
        summary: "section 3.1 option 4: column-associative with polynomial rehash",
        params: &[param("ops", "400000", "ops per benchmark")],
        run: cache_level::column_assoc,
    },
    Experiment {
        name: "related",
        group: "cache-level studies",
        summary: "section 2.1 related work: all placement functions on both evaluations",
        params: &[
            param("max-stride", "4096", "sweep strides 1..max"),
            param("ops", "150000", "ops per benchmark"),
        ],
        run: cache_level::related_work,
    },
    Experiment {
        name: "tiling",
        group: "cache-level studies",
        summary: "section 5: tiled matmul tile-size sweep, conventional vs I-Poly",
        params: &[param("n", "128", "matrix dimension")],
        run: cache_level::tiling,
    },
    Experiment {
        name: "lru-curve",
        group: "cache-level studies",
        summary: "Mattson one-pass LRU miss-ratio curves over a size x associativity grid",
        params: &[
            param("bench", "swim", "workload model name"),
            param("ops", "400000", "ops to replay"),
            param("line", "32", "line size (bytes)"),
            param(
                "sizes",
                "1KiB,2KiB,4KiB,8KiB,16KiB,32KiB,64KiB",
                "comma-separated capacities",
            ),
            param("ways", "1,2,4,8", "comma-separated associativities"),
            param("sample", "1", "1-in-K set sampling (1 = exact)"),
        ],
        run: cache_level::lru_curve,
    },
    Experiment {
        name: "regions",
        group: "cache-level studies",
        summary: "debugging aid: per-region miss breakdown for one benchmark",
        params: &[
            param("bench", "swim", "workload model name"),
            param("ops", "400000", "ops to replay"),
        ],
        run: cache_level::regions,
    },
    // ----- analytic screening ----------------------------------------
    Experiment {
        name: "analytic-predict",
        group: "analytic screening",
        summary: "closed-form miss-ratio grid from one stack-distance pass, no replay",
        params: &[
            param("bench", "swim", "workload model name"),
            param("ops", "400000", "ops to observe"),
            param("line", "32", "line size (bytes)"),
            param(
                "sizes",
                "1KiB,2KiB,4KiB,8KiB,16KiB,32KiB,64KiB",
                "comma-separated capacities",
            ),
            param("ways", "1,2,4,8", "comma-separated associativities"),
            param("trace", "", "trace file (overrides the synthetic workload)"),
        ],
        run: analytic::predict,
    },
    Experiment {
        name: "analytic-validate",
        group: "analytic screening",
        summary: "model-vs-simulation error over config files; exit 1 beyond the bound",
        params: &[
            vparam(
                "configs",
                "",
                "config files: bare paths (shell globs expand) or --configs once per file",
            ),
            param("trace", "", "trace file (overrides the synthetic workload)"),
            param("bench", "tomcatv", "synthetic workload model"),
            param("ops", "200000", "synthetic workload length (ops)"),
            param("sample", "1", "1-in-K set sampling (1 = exact)"),
            param("bound", "5", "mean abs error bound (miss-% points)"),
        ],
        run: analytic::validate,
    },
    // ----- processor-level studies -----------------------------------
    Experiment {
        name: "options",
        group: "processor-level studies",
        summary: "section 3.1: translation options (physical vs virtual-real) by IPC",
        params: &[param("ops", "120000", "instructions per benchmark")],
        run: cpu_level::options,
    },
    Experiment {
        name: "predictor",
        group: "processor-level studies",
        summary: "section 3.4: memory address predictability of the workload suite",
        params: &[param("ops", "400000", "ops per benchmark")],
        run: cpu_level::predictor_accuracy,
    },
    // ----- two-level hierarchy ---------------------------------------
    Experiment {
        name: "holes",
        group: "two-level hierarchy",
        summary: "section 3.3: hole probability, analytical model vs simulation",
        params: &[param("ops", "400000", "ops per benchmark")],
        run: hier::holes,
    },
    Experiment {
        name: "option2",
        group: "two-level hierarchy",
        summary: "section 3.1 option 2: page-size-aware dynamic index switching",
        params: &[param("passes", "64", "kernel passes per phase")],
        run: hier::option2,
    },
    Experiment {
        name: "coherency",
        group: "two-level hierarchy",
        summary: "section 3.3 cause 3: external coherency holes on a snooping bus",
        params: &[param("rounds", "256", "traffic rounds")],
        run: hier::coherency,
    },
    // ----- hardware cost ---------------------------------------------
    Experiment {
        name: "xor-tree",
        group: "hardware cost",
        summary: "section 3.4: XOR-tree fan-in and the carry-lookahead slack argument",
        params: &[],
        run: hardware::xor_tree,
    },
    Experiment {
        name: "interleave",
        group: "hardware cost",
        summary: "Rau [19]: bank-selection functions in interleaved memory",
        params: &[
            param("banks", "16", "number of memory banks"),
            param("busy", "6", "bank busy time (cycles)"),
            param("max-stride", "128", "sweep strides 1..=max"),
            param("accesses", "2048", "accesses per stride"),
        ],
        run: hardware::interleave,
    },
    // ----- ablations -------------------------------------------------
    Experiment {
        name: "ablation-poly",
        group: "ablations",
        summary: "A1: irreducible vs reducible vs degenerate polynomial choice",
        params: &[param("ops", "200000", "ops per benchmark")],
        run: ablations::poly_choice,
    },
    Experiment {
        name: "ablation-address-bits",
        group: "ablations",
        summary: "A2: I-Poly hash input width vs miss ratio",
        params: &[param("ops", "200000", "ops per benchmark")],
        run: ablations::address_bits,
    },
    Experiment {
        name: "ablation-predictor",
        group: "ablations",
        summary: "A3: address-predictor table size sweep",
        params: &[param("ops", "200000", "ops per benchmark")],
        run: cpu_level::ablation_predictor,
    },
    Experiment {
        name: "ablation-related-ipc",
        group: "ablations",
        summary: "A4: related-work schemes through the full processor model",
        params: &[param("ops", "100000", "instructions per benchmark")],
        run: cpu_level::ablation_related_ipc,
    },
    Experiment {
        name: "ablation-write-policy",
        group: "ablations",
        summary: "A5: write policy x placement interaction",
        params: &[param("ops", "150000", "ops per benchmark")],
        run: ablations::write_policy,
    },
    Experiment {
        name: "ablation-l2-index",
        group: "ablations",
        summary: "A6: does the L2 index function change the hole rate?",
        params: &[
            param("blocks", "16384", "streamed blocks per round"),
            param("rounds", "6", "rounds over the stream"),
        ],
        run: hier::ablation_l2_index,
    },
    Experiment {
        name: "ablation-replacement",
        group: "ablations",
        summary: "A7: LRU vs FIFO vs random replacement under skew",
        params: &[param("ops", "150000", "ops per benchmark")],
        run: ablations::replacement,
    },
    // ----- trace tools -----------------------------------------------
    Experiment {
        name: "sweep",
        group: "trace tools",
        summary: "generalised stride sweep: any schemes, any geometry, CSV-friendly",
        params: &[
            param(
                "schemes",
                "modulo,xor-skew,ipoly,ipoly-skew",
                "comma-separated scheme list",
            ),
            param("max-stride", "512", "sweep strides 1..max"),
            param("passes", "16", "passes over the vector"),
            param("size", "8192", "cache capacity (bytes)"),
            param("line", "32", "line size (bytes)"),
            param("ways", "2", "associativity"),
            param(
                "checkpoint",
                "",
                "journal file for crash-safe kill-and-resume",
            ),
            param(
                "prune",
                "",
                "analytic = screen cells with the analytic tier before replay",
            ),
            param(
                "prune-band",
                "5",
                "pruning error band (miss-% points; with --prune)",
            ),
        ],
        run: figures::sweep,
    },
    Experiment {
        name: "replay",
        group: "trace tools",
        summary: "stream a trace file through a configurable cache",
        params: &[
            param(
                "trace",
                "",
                "trace file (binary, columnar or text, auto-detected)",
            ),
            param("scheme", "ipoly-skew", "placement scheme"),
            param("size", "8192", "cache capacity (bytes)"),
            param("line", "32", "line size (bytes)"),
            param("ways", "2", "associativity"),
            param(
                "mode",
                "strict",
                "strict | lenient (skip damaged binary or columnar blocks)",
            ),
        ],
        run: tools::replay,
    },
    Experiment {
        name: "trace-gen",
        group: "trace tools",
        summary: "generate a workload-model trace file (binary, columnar or text)",
        params: &[
            param("bench", "swim", "workload model name"),
            param("ops", "1000000", "ops to generate"),
            param("out", "", "output file path (required)"),
            param("format", "binary", "binary | columnar | text"),
            param("seed", "12345", "generator seed"),
            param(
                "inject",
                "",
                "fault spec, e.g. flip=200,seed=7,truncate=4096,io-error=99",
            ),
        ],
        run: tools::trace_gen,
    },
    Experiment {
        name: "trace-convert",
        group: "trace tools",
        summary: "convert a trace between text and binary formats",
        params: &[
            param("input", "", "input trace (format auto-detected)"),
            param("output", "", "output file path"),
            param("to", "", "target format (default: the other one)"),
        ],
        run: tools::trace_convert,
    },
    Experiment {
        name: "trace-info",
        group: "trace tools",
        summary: "summarise a trace file (op mix, address range)",
        params: &[
            param("input", "", "trace file to inspect"),
            param(
                "verify",
                "false",
                "audit block framing and checksums (lenient walk)",
            ),
        ],
        run: tools::trace_info,
    },
    // ----- corpus tier -----------------------------------------------
    Experiment {
        name: "corpus-add",
        group: "corpus tier",
        summary: "ingest a trace into a corpus (any format -> columnar store)",
        params: &[
            param("dir", "", "corpus directory (created on first add)"),
            param("name", "", "corpus-unique trace name"),
            param("input", "", "trace file to ingest (format auto-detected)"),
        ],
        run: corpus::corpus_add,
    },
    Experiment {
        name: "corpus-ls",
        group: "corpus tier",
        summary: "list a corpus's stored traces (counts, sizes, content hashes)",
        params: &[param("dir", "", "corpus directory")],
        run: corpus::corpus_ls,
    },
    Experiment {
        name: "corpus-verify",
        group: "corpus tier",
        summary: "audit every stored trace: hashes, checksums, record counts",
        params: &[param("dir", "", "corpus directory")],
        run: corpus::corpus_verify,
    },
    Experiment {
        name: "corpus-run",
        group: "corpus tier",
        summary: "sweep every stored trace x config grid, recomputing only changed cells",
        params: &[
            param("dir", "", "corpus directory"),
            vparam(
                "configs",
                "",
                "config files: bare paths (shell globs expand) or --configs once per file",
            ),
            param(
                "prune",
                "",
                "analytic = screen dominated configs before replay",
            ),
            param(
                "prune-band",
                "5",
                "pruning error band (miss-% points; with --prune)",
            ),
            param("workers", "1", "sweep worker threads"),
            param("chunk", "8192", "ops per replay chunk"),
            param("retry", "0", "retry attempts for transient failures"),
            param(
                "backoff-ms",
                "0",
                "base backoff delay between retries (deterministic jittered exponential)",
            ),
            param("retry-seed", "0", "seed for the backoff jitter stream"),
            param(
                "cell-budget",
                "",
                "per-cell replay budget (<N>[refs] or <X>secs); over-budget cells degrade to analytic estimates",
            ),
            param(
                "skip-threshold",
                "0",
                "lenient-decode skipped blocks tolerated per trace before the attempt fails",
            ),
            param(
                "explain",
                "false",
                "append the work-accounting table (replayed/restored/pruned)",
            ),
            param(
                "runner",
                "",
                "runner id for multi-runner fleets (distinct per concurrent process; default pid-<pid>)",
            ),
        ],
        run: corpus::corpus_run,
    },
    Experiment {
        name: "corpus-fsck",
        group: "corpus tier",
        summary: "audit manifest/pool/journal consistency; --repair fixes the mechanically-safe subset",
        params: &[
            param("dir", "", "corpus directory"),
            param(
                "repair",
                "false",
                "repair orphaned temps, stale cells/claims, torn journal lines, duplicate quarantines",
            ),
        ],
        run: corpus::corpus_fsck,
    },
    Experiment {
        name: "corpus-chaos",
        group: "corpus tier",
        summary: "fault-injection harness: run the fleet under seeded faults and audit convergence",
        params: &[
            param("dir", "", "corpus directory"),
            vparam(
                "configs",
                "",
                "config files: bare paths (shell globs expand) or --configs once per file",
            ),
            param(
                "fault",
                "flip=200,seed=42",
                "fault spec: flip=<ppm>,seed=<n>,truncate=<off>,io-error=<off>",
            ),
            param(
                "faulty-attempts",
                "1",
                "leading attempts (per trace) that see the fault; more than --retry makes it persistent",
            ),
            param("trace", "", "restrict injection to this trace name (default: all)"),
            param("workers", "1", "sweep worker threads"),
            param("chunk", "8192", "ops per replay chunk"),
            param("retry", "2", "retry attempts for transient failures"),
            param("backoff-ms", "0", "base backoff delay between retries"),
            param("retry-seed", "0", "seed for the backoff jitter stream"),
            param(
                "cell-budget",
                "",
                "per-cell replay budget (<N>[refs] or <X>secs)",
            ),
            param(
                "skip-threshold",
                "0",
                "lenient-decode skipped blocks tolerated per trace",
            ),
        ],
        run: corpus::corpus_chaos,
    },
    // ----- benchmarks ------------------------------------------------
    Experiment {
        name: "bench-corpus",
        group: "benchmarks",
        summary: "columnar streaming vs in-memory sweep throughput + incremental rerun speedup",
        params: &[
            param("bench", "swim", "workload model name"),
            param("ops", "1000000", "ops to generate"),
            param("seed", "12345", "generator seed"),
            param("chunk", "8192", "refs per replay chunk"),
            param(
                "repeat",
                "1",
                "runs per timed region; tables report the median",
            ),
        ],
        run: corpus::bench_corpus,
    },
    Experiment {
        name: "bench-sweep",
        group: "benchmarks",
        summary: "sweep-engine throughput over the organization matrix (JSON-friendly)",
        params: &[
            param("bench", "swim", "workload model name"),
            param("ops", "1000000", "ops to generate"),
            param("seed", "12345", "generator seed"),
            param("workers", "0", "sweep worker threads (0 = auto)"),
            param("chunk", "8192", "refs per broadcast chunk"),
            param(
                "repeat",
                "1",
                "runs per timed region; tables report the median",
            ),
            param(
                "baseline",
                "true",
                "also time per-config replay (false to skip)",
            ),
        ],
        run: benchmarks::bench_sweep,
    },
    // ----- declarative configs ---------------------------------------
    Experiment {
        name: "run",
        group: "declarative configs",
        summary: "replay a trace (file or synthetic) against a TOML-configured model",
        params: &[
            param(
                "config",
                "",
                "model description(s), comma-separated (TOML; see examples/*.toml)",
            ),
            param(
                "trace",
                "",
                "trace file (binary, columnar or text; default: synthetic workload)",
            ),
            param(
                "bench",
                "swim",
                "synthetic workload model when no trace is given",
            ),
            param("ops", "1000000", "synthetic workload length (ops)"),
            param("seed", "12345", "synthetic workload seed"),
            param("chunk", "8192", "ops per replay chunk"),
            param(
                "checkpoint",
                "",
                "journal file for crash-safe kill-and-resume",
            ),
        ],
        run: configs::run,
    },
    Experiment {
        name: "config-validate",
        group: "declarative configs",
        summary: "parse and build config files, failing loudly on any rot",
        params: &[vparam(
            "files",
            "",
            "config files: bare paths (shell globs expand) or --files once per file",
        )],
        run: configs::validate,
    },
];
