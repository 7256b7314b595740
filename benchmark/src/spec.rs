//! What the benchmark measures, as data: workloads, end-to-end metrics
//! with their regression bounds, and per-layer metrics with the
//! end-to-end metric × workload each one should move.
//!
//! `BENCHMARK.json` at the repo root is `--emit-spec`'s output; a unit
//! test keeps the two in step. The per-layer predictions do not fit that
//! file's fixed keys, so they live here and in `README.md`.

use std::fmt::Write as _;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

use Better::{Higher as H, Lower as L};

impl Better {
    /// Spelling in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Parses the `BENCHMARK.json` spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// The program and arguments the driver runs, before its own flags.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];
/// How long one run measures.
pub const RUN_SECONDS: u32 = 20;

/// `(name, why)` per workload. The names are fixed: later issues refer
/// to them.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "codec_models",
        "FedSZ compress+decompress of 64 MB of paper-scale model state on one thread: lossy, \
         lossless and core do all the work, so a codec kernel change must show here",
    ),
    (
        "fl_sim",
        "the paper's whole round on the simulator (2 clients train, SZ2 1e-2 upload, fold, \
         validate): nn dominates and the codec is ~3%, so codec changes predict no move here",
    ),
    (
        "agg_tree",
        "exact fold of 2048 ready-made updates, flat vs a 2-thread 4x4 tree with lossless psum \
         frames: only fl.agg and the psum codec work, at streaming scale",
    ),
    (
        "server_ingest",
        "a real NetServer on host loopback fed by 2 sessions replaying cached FedSZ updates: \
         net framing, reactor and the server's decode+fold path, at per-call-overhead scale",
    ),
];

/// An end-to-end metric every workload reports.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// The end-to-end metrics defined on all four workloads.
///
/// `op_best3_ms` is the median, over triples of consecutive ops, of the
/// fastest op of each triple, each op time resolved over a window of at
/// least 250 ms (`stats::{windowed, best_of_median}`), and `model_mbps`
/// the model bytes of one op over that time. The plain median is printed
/// beside them, ungated — on `fl_sim` it moves by a fifth between runs of
/// the same code when the two-core VM's neighbours are busy.
///
/// The bounds are what this box can resolve, not what one would wish
/// for: a bound must sit well above the spread (quartile distance over
/// median) of ten runs of a workload, each on another seed. `wire_ratio`
/// spreads by 0.02 from seed to seed and `peak_rss_mb` by up to 0.1 (the
/// allocator's doing). A claim needs tighter evidence than these:
/// alternate parent and change on the same seeds and use `--compare`
/// (see `README.md`).
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "op_best3_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "model_mbps", unit: "MB/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "wire_ratio", unit: "x", better: Better::Higher, bound: 0.08 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

/// An end-to-end metric only one workload defines. `BENCHMARK.json`'s
/// `end_to_end` list is reported whole by every workload, so these are
/// listed there under `per_layer` as `<workload>.<name>`; an untraced run
/// of their workload still measures and prints them, and `--compare`
/// holds them to the bound here.
#[derive(Debug, Clone, Copy)]
pub struct Extra {
    /// The workload that defines it.
    pub workload: &'static str,
    /// Name within the workload.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// The workload-specific end-to-end metrics.
pub const EXTRAS: [Extra; 5] = [
    Extra {
        workload: "codec_models",
        name: "compress_mbps",
        unit: "MB/s",
        better: Better::Higher,
        bound: 0.10,
    },
    Extra {
        workload: "codec_models",
        name: "decompress_mbps",
        unit: "MB/s",
        better: Better::Higher,
        bound: 0.10,
    },
    Extra {
        workload: "codec_models",
        name: "eqn1_breakeven_mbps",
        unit: "Mbit/s",
        better: Better::Higher,
        bound: 0.10,
    },
    Extra {
        workload: "fl_sim",
        name: "final_accuracy",
        unit: "fraction",
        better: Better::Higher,
        bound: 0.005,
    },
    Extra {
        workload: "agg_tree",
        name: "tree_speedup",
        unit: "x",
        better: Better::Higher,
        bound: 0.10,
    },
];

/// A per-layer metric: a layer's own number from the traced run, and the
/// end-to-end metric × workload it is expected to move.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Name; its prefix up to the metric is the layer (crate/module).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Prediction, written down before anything was measured.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer { name, unit, better, moves }
}

const LOSSY: &str =
    "compress_mbps/decompress_mbps/eqn1_breakeven_mbps/wire_ratio on codec_models; \
                     <=3% of op_best3_ms on fl_sim; nothing on agg_tree";
const LOSSY_SZ2_D: &str = "decompress_mbps on codec_models; op_best3_ms on server_ingest";
const LOSSLESS: &str = "a small share of compress_mbps/decompress_mbps on codec_models";
const PSUM: &str = "tree_speedup/model_mbps/wire_ratio on agg_tree only";
const CODEC: &str = "via lossy.sz2.* (codec_models) and net.wire.* (server_ingest)";
const CORE: &str = "compress_mbps/decompress_mbps on codec_models";
const FAMILY: &str = "no end-to-end metric yet (no family workload): ROADMAP item 5 baseline";
const NN: &str = "op_best3_ms/model_mbps on fl_sim only";
const DP: &str = "off in every workload: baseline only";
const NET: &str = "op_best3_ms/model_mbps on server_ingest only";
const AGG: &str = "tree_speedup/model_mbps on agg_tree; the fold share of op_best3_ms on \
                   server_ingest; nothing on codec_models";
const ENGINE: &str = "op_best3_ms on fl_sim";
const SERVE: &str = "op_best3_ms on server_ingest";
const TELEMETRY: &str = "tracing off is one branch: no end-to-end metric may move with it";
const E2E: &str = "is an end-to-end metric of its one workload (see EXTRAS)";

/// Every per-layer metric of a traced run.
pub const PER_LAYER: &[Layer] = &[
    layer("lossy.sz2.compress_mbps", "MB/s", H, LOSSY),
    layer("lossy.sz2.decompress_mbps", "MB/s", H, LOSSY_SZ2_D),
    layer("lossy.sz2.ratio", "x", H, LOSSY),
    layer("lossy.sz2.err_over_eb", "fraction", L, LOSSY),
    layer("lossy.sz3.compress_mbps", "MB/s", H, LOSSY),
    layer("lossy.sz3.decompress_mbps", "MB/s", H, LOSSY),
    layer("lossy.sz3.ratio", "x", H, LOSSY),
    layer("lossy.sz3.err_over_eb", "fraction", L, LOSSY),
    layer("lossy.szx.compress_mbps", "MB/s", H, LOSSY),
    layer("lossy.szx.decompress_mbps", "MB/s", H, LOSSY),
    layer("lossy.szx.ratio", "x", H, LOSSY),
    layer("lossy.szx.err_over_eb", "fraction", L, LOSSY),
    layer("lossy.zfp.compress_mbps", "MB/s", H, LOSSY),
    layer("lossy.zfp.decompress_mbps", "MB/s", H, LOSSY),
    layer("lossy.zfp.ratio", "x", H, LOSSY),
    layer("lossy.zfp.err_over_eb", "fraction", L, LOSSY),
    layer("lossy.sz2.rel1e-3.compress_mbps", "MB/s", H, LOSSY),
    layer("lossy.sz2.rel1e-3.ratio", "x", H, LOSSY),
    layer("lossless.blosclz.compress_mbps", "MB/s", H, LOSSLESS),
    layer("lossless.blosclz.decompress_mbps", "MB/s", H, LOSSLESS),
    layer("lossless.blosclz.ratio", "x", H, LOSSLESS),
    layer("lossless.gzip.compress_mbps", "MB/s", H, LOSSLESS),
    layer("lossless.gzip.decompress_mbps", "MB/s", H, LOSSLESS),
    layer("lossless.gzip.ratio", "x", H, LOSSLESS),
    layer("lossless.zlib.compress_mbps", "MB/s", H, LOSSLESS),
    layer("lossless.zlib.decompress_mbps", "MB/s", H, LOSSLESS),
    layer("lossless.zlib.ratio", "x", H, LOSSLESS),
    layer("lossless.zstd.compress_mbps", "MB/s", H, LOSSLESS),
    layer("lossless.zstd.decompress_mbps", "MB/s", H, LOSSLESS),
    layer("lossless.zstd.ratio", "x", H, LOSSLESS),
    layer("lossless.xz.compress_mbps", "MB/s", H, LOSSLESS),
    layer("lossless.xz.decompress_mbps", "MB/s", H, LOSSLESS),
    layer("lossless.xz.ratio", "x", H, LOSSLESS),
    layer("lossless.psum.compress_mbps", "MB/s", H, PSUM),
    layer("lossless.psum.decompress_mbps", "MB/s", H, PSUM),
    layer("lossless.psum.ratio", "x", H, PSUM),
    layer("codec.huffman.encode_mbps", "MB/s", H, CODEC),
    layer("codec.huffman.decode_mbps", "MB/s", H, CODEC),
    layer("codec.crc32.mbps", "MB/s", H, CODEC),
    layer("core.fedsz.compress_busy_s", "s", L, CORE),
    layer("core.fedsz.decompress_busy_s", "s", L, CORE),
    layer("core.fedsz.compress_self_frac", "fraction", L, CORE),
    layer("core.fedsz.decompress_self_frac", "fraction", L, CORE),
    layer("core.delta.compress_mbps", "MB/s", H, CORE),
    layer("core.delta.decompress_mbps", "MB/s", H, CORE),
    layer("fl.codec.topk.encode_mbps", "MB/s", H, FAMILY),
    layer("fl.codec.topk.decode_mbps", "MB/s", H, FAMILY),
    layer("fl.codec.topk.ratio", "x", H, FAMILY),
    layer("fl.codec.q8.encode_mbps", "MB/s", H, FAMILY),
    layer("fl.codec.q8.decode_mbps", "MB/s", H, FAMILY),
    layer("fl.codec.q8.ratio", "x", H, FAMILY),
    layer("fl.codec.q4s.encode_mbps", "MB/s", H, FAMILY),
    layer("fl.codec.q4s.decode_mbps", "MB/s", H, FAMILY),
    layer("fl.codec.q4s.ratio", "x", H, FAMILY),
    layer("nn.train_epoch_ms", "ms", L, NN),
    layer("nn.evaluate_ms", "ms", L, NN),
    layer("nn.state_dict.to_bytes_mbps", "MB/s", H, NN),
    layer("nn.state_dict.from_bytes_mbps", "MB/s", H, NN),
    layer("data.generate_s", "s", L, "setup_s on fl_sim"),
    layer("dp.apply_mbps", "MB/s", H, DP),
    layer("net.wire.encode_mbps", "MB/s", H, NET),
    layer("net.wire.decode_mbps", "MB/s", H, NET),
    layer("net.wire.join_encode_ns", "ns", L, NET),
    layer("net.wire.join_decode_ns", "ns", L, NET),
    layer("net.frame.write_mbps", "MB/s", H, NET),
    layer("net.frame.read_mbps", "MB/s", H, NET),
    layer("net.reactor.idle_poll_us", "us", L, NET),
    layer("net.reactor.frames_per_s", "1/s", H, NET),
    layer("fl.agg.exactacc.add_slice_melems", "Melem/s", H, AGG),
    layer("fl.agg.exactacc.merge_slice_melems", "Melem/s", H, AGG),
    layer("fl.agg.partial.accumulate_melems", "Melem/s", H, AGG),
    layer("fl.agg.partial.finish_melems", "Melem/s", H, AGG),
    layer("fl.agg.partial.encode_exact_mbps", "MB/s", H, AGG),
    layer("fl.agg.partial.decode_exact_mbps", "MB/s", H, AGG),
    layer("fl.agg.tree.leaf_merge_ms", "ms", L, AGG),
    layer("fl.agg.tree.upper_merge_ms", "ms", L, AGG),
    layer("fl.agg.tree.psum_ratio", "x", H, "wire_ratio on agg_tree"),
    layer("fl.agg.flat.op_ms", "ms", L, "tree_speedup on agg_tree (its base)"),
    layer(
        "fl.agg.downlink.encode_ms",
        "ms",
        L,
        "op_best3_ms on server_ingest (raw downlink: none today)",
    ),
    layer(
        "fl.agg.downlink.decode_ms",
        "ms",
        L,
        "op_best3_ms on server_ingest (raw downlink: none today)",
    ),
    layer("fl.engine.train_s", "s", L, ENGINE),
    layer("fl.engine.compress_s", "s", L, ENGINE),
    layer("fl.engine.decompress_s", "s", L, ENGINE),
    layer("fl.engine.validate_s", "s", L, ENGINE),
    layer("fl.engine.merge_s", "s", L, ENGINE),
    layer("fl.engine.codec_share", "fraction", L, "the paper's <4.7% claim; op_best3_ms on fl_sim"),
    layer("fl.engine.span.broadcast_self_ms", "ms", L, ENGINE),
    layer("fl.engine.span.train_self_ms", "ms", L, ENGINE),
    layer("fl.engine.span.comm_self_ms", "ms", L, ENGINE),
    layer("fl.engine.span.decode_self_ms", "ms", L, ENGINE),
    layer("fl.engine.span.merge_self_ms", "ms", L, ENGINE),
    layer("fl.engine.span.validate_self_ms", "ms", L, ENGINE),
    layer(
        "fl.engine.span_coverage",
        "fraction",
        H,
        "none: ROADMAP wants >=0.95; reported, not asserted",
    ),
    layer("fl.net.serve.round_ms", "ms", L, SERVE),
    layer("fl.net.serve.driver_gap_ms", "ms", L, SERVE),
    layer("fl.net.serve.per_update_ms", "ms", L, SERVE),
    layer("fl.net.serve.upstream_bytes_per_round", "B", L, "wire_ratio on server_ingest"),
    layer("telemetry.span_enabled_ns", "ns", L, "trace.overhead_frac only"),
    layer("telemetry.span_disabled_ns", "ns", L, TELEMETRY),
    layer(
        "trace.overhead_frac",
        "fraction",
        L,
        "of the workload run: median over turns of traced / untraced op time, - 1",
    ),
    layer(
        "trace.op_tail_ms",
        "ms",
        L,
        "of the workload run: reported with its percentile, not gated",
    ),
    layer(
        "trace.op_tail_pct",
        "%",
        H,
        "the percentile trace.op_tail_ms was read at (0: under 20 samples, value is the maximum)",
    ),
    layer("trace.op_tail_samples", "count", H, "the sample count trace.op_tail_ms was read over"),
    layer("codec_models.compress_mbps", "MB/s", H, E2E),
    layer("codec_models.decompress_mbps", "MB/s", H, E2E),
    layer("codec_models.eqn1_breakeven_mbps", "Mbit/s", H, E2E),
    layer("fl_sim.final_accuracy", "fraction", H, E2E),
    layer("agg_tree.tree_speedup", "x", H, E2E),
];

fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Renders `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    let list = |items: &[&str]| items.iter().map(|s| quoted(s)).collect::<Vec<_>>().join(", ");
    let _ = writeln!(out, "  \"command\": [{}],", list(&COMMAND));
    let _ = writeln!(out, "  \"paths\": [{}],", list(&PATHS));
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let why = why.split_whitespace().collect::<Vec<_>>().join(" ");
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ =
            writeln!(out, "    {{\"name\": {}, \"why\": {}}}{comma}", quoted(name), quoted(&why));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{comma}",
            quoted(m.name),
            quoted(m.unit),
            quoted(m.better.name()),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}",
            quoted(m.name),
            quoted(m.unit),
            quoted(m.better.name())
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders the metric glossary as markdown tables: what `--list` prints
/// and `README.md` quotes, the per-layer predictions included.
pub fn glossary() -> String {
    let mut out = String::from(
        "| end-to-end metric | unit | better | bound | defined on |\n|---|---|---|---|---|\n",
    );
    for m in END_TO_END {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {}% | all |",
            m.name,
            m.unit,
            m.better.name(),
            m.bound * 100.0
        );
    }
    for m in EXTRAS {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {}% | `{}` |",
            m.name,
            m.unit,
            m.better.name(),
            m.bound * 100.0,
            m.workload
        );
    }
    out.push_str("\n| per-layer metric | unit | better | should move |\n|---|---|---|---|\n");
    for m in PER_LAYER {
        let _ = writeln!(out, "| `{}` | {} | {} | {} |", m.name, m.unit, m.better.name(), m.moves);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str, max: usize) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name, 64), "{name}");
            let why = why.split_whitespace().collect::<Vec<_>>().join(" ");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why is {} chars", why.len());
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in END_TO_END {
            assert!(name_ok(m.name, 64) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name, 64) && unit_ok(m.unit), "{}", m.name);
            assert!(!m.moves.is_empty());
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        for e in EXTRAS {
            let listed = format!("{}.{}", e.workload, e.name);
            assert!(PER_LAYER.iter().any(|m| m.name == listed && m.unit == e.unit), "{listed}");
            assert!(WORKLOADS.iter().any(|(w, _)| *w == e.workload));
        }
        assert!(COMMAND.len() <= 32 && benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json exists");
        assert_eq!(on_disk, benchmark_json(), "regenerate with --emit-spec");
    }
}
