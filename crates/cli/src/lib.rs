//! Command-line interface for the FedSZ pipeline.
//!
//! Ships a `fedsz` binary with seven subcommands:
//!
//! * `fedsz gen <model> <out.fsd>` — generate a full-size model state
//!   dict (AlexNet / MobileNetV2 / ResNet50) for experimentation,
//! * `fedsz compress <in.fsd> <out.fsz>` — run the FedSZ pipeline,
//! * `fedsz decompress <in.fsz> <out.fsd>` — reverse it,
//! * `fedsz inspect <file>` — describe either format,
//! * `fedsz fl` — run a *simulated* federated session on the round
//!   engine, with per-client heterogeneous links, straggler/drop
//!   injection and synchronous or buffered-asynchronous aggregation,
//! * `fedsz serve` — run a *real* federated server: a blocking TCP
//!   listener that aggregates worker processes' updates (or, with
//!   `--shard`, an edge relay forwarding partial-sum frames upstream),
//! * `fedsz worker` — one real training client process, connecting to
//!   a `serve` over TCP.
//!
//! `fl`, `serve` and `worker` share one config parser for every flag
//! that shapes the *bits* of the run (seeds, data geometry, codec,
//! architecture), so a loopback `serve` + `worker` deployment prints
//! the same `global checksum` as the in-memory `fl` run — the
//! bit-parity contract the CI smoke job asserts across processes.
//! All three also accept `--config run.toml` ([`spec`]): a declarative
//! run spec whose keys are the same flags, with explicit command-line
//! flags overriding file values. Every configuration is validated
//! through [`FlConfig::plan`] before anything runs, so a bad spec
//! fails with a [`PlanError`](fedsz_fl::PlanError) message instead of
//! a clamp or a mid-round panic. `fl` and `serve` additionally emit
//! one shared machine-readable schema with `--json` ([`report`]).
//!
//! The library half exposes [`run`] so the whole surface is unit-tested
//! without spawning processes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod spec;
pub mod sweep;

use fedsz::{ErrorBound, FedSz, FedSzConfig, LosslessKind, LossyKind};
use fedsz_data::DatasetKind;
use fedsz_fl::net::{global_checksum, run_worker, NetServer, Role, ServeConfig, WorkerConfig};
use fedsz_fl::{
    AggregationPolicy, DpMechanism, DpPolicy, Experiment, FlConfig, LinkProfile, StagePolicy,
    Topology, TreePlan,
};
use fedsz_net::MetricsServer;
use fedsz_nn::models::specs::ModelSpec;
use fedsz_nn::models::tiny::TinyArch;
use fedsz_nn::StateDict;
use fedsz_telemetry::Telemetry;
use report::{RoundRow, RunReport};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

/// Outcome of a CLI invocation: the text to print and the exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Human-readable report for stdout.
    pub report: String,
    /// Process exit code (0 = success).
    pub code: i32,
}

impl Outcome {
    fn ok(report: String) -> Self {
        Self { report, code: 0 }
    }

    fn fail(report: String) -> Self {
        Self { report, code: 2 }
    }
}

/// Usage text shown for `--help` and argument errors.
pub const USAGE: &str = "\
fedsz — error-bounded lossy compression for FL model updates

USAGE:
  fedsz gen <alexnet|mobilenetv2|resnet50> <out.fsd> [--seed N] [--scale F]
  fedsz compress <in.fsd> <out.fsz> [--eb REL] [--abs ABS] [--lossy sz2|sz3|szx|zfp]
                 [--lossless blosc-lz|zlib|gzip|zstd|xz] [--threshold N]
  fedsz decompress <in.fsz> <out.fsd>
  fedsz inspect <file>
  fedsz fl [--config FILE] [--json] [--clients N] [--rounds N]
           [--arch alexnet|mobilenetv2|resnet]
           [--participation F] [--bandwidth MBPS] [--links MBPS,MBPS,...]
           [--latency MS] [--straggler ID:FACTOR]... [--drop ID:PROB]...
           [--policy sync|buffered:K] [--adaptive] [--non-iid ALPHA]
           [--weighted] [--no-compress] [--seed N] [--train-per-class N]
           [--shards S] [--tree F1xF2x...] [--psum raw|lossless|auto]
           [--downlink raw|fedsz|auto] [--uplink CODEC] [--threads N]
           [--dp-clip F] [--dp-noise F] [--dp-mechanism gaussian|laplace]
           [--dp-seed N] [--trace FILE]
  fedsz sweep <SPEC.toml|DIR> [--json [FILE]] [--threads N]
  fedsz serve [--config FILE] [--json] [--bind ADDR] [--clients N]
              [--rounds N] [--seed N]
              [--train-per-class N] [--arch ...] [--no-compress]
              [--downlink raw|fedsz] [--uplink CODEC] [--shards S]
              [--psum raw|lossless]
              [--dp-clip F] [--dp-noise F]
              [--dp-mechanism gaussian|laplace] [--dp-seed N]
              [--shard I --connect ADDR] [--accept-timeout SECS]
              [--round-timeout SECS] [--reconnect-grace SECS]
              [--max-sessions N] [--fail-at-round R] [--threads N]
              [--trace FILE] [--metrics-addr ADDR]
  fedsz worker --id K [--config FILE] [--connect ADDR] [--clients N]
               [--rounds N] [--seed N] [--train-per-class N] [--arch ...]
               [--no-compress] [--adaptive] [--uplink CODEC]
               [--dp-clip F] [--dp-noise F]
               [--dp-mechanism gaussian|laplace] [--dp-seed N]
               [--fallback ADDR] [--retries N] [--drop-at-round R]
               [--timeout SECS] [--trace FILE]

`fedsz fl` runs a federated session on the shared round engine. With
--links each client gets its own simulated uplink (comm time comes from
the virtual-time event queue, so fast links overlap instead of queueing
on one pipe); --straggler slows a client's compute; --policy buffered:K
aggregates after the first K arrivals and applies stragglers stale.
--shards S aggregates through a two-level tree of S edge aggregators
(bit-identical to the flat server, but root ingress drops to S
partial-sum frames); --tree 4x8 builds an arbitrary-depth hierarchy
(4 mid-tier nodes over 32 leaves, still bit-identical); --psum
lossless compresses the inter-aggregator partial-sum frames with the
byte-plane coder, --psum auto decides per edge with Eqn 1.
--downlink fedsz FedSZ-encodes the broadcast once per round,
--downlink auto applies Eqn 1 with a raw fallback. --uplink picks the
upload codec family: raw, lossy, adaptive, topk:RATIO (Top-K delta
sparsification, e.g. topk:0.01), q4/q8 (linear quantization; q4s/q8s
stochastic), or auto (Eqn 1 prices lossy vs topk:0.01 vs q8 per link
and picks the fastest, probing unmeasured families first). Appending
+ef (topk:0.01+ef, q8+ef) adds per-client error feedback: mass the
codec dropped re-enters the next round's delta. EF keeps state across
rounds, so it is rejected with --policy buffered:K and by
serve/worker. --threads N sets
the tree's merge worker-pool width (default: host parallelism); it
changes wall-clock only — any width produces identical bits.
--dp-clip C turns on the differential-privacy stage: each client's
update delta is clipped to L2 norm <= C, then per-element noise of
scale sigma = C x --dp-noise is added (--dp-mechanism picks gaussian
or laplace) BEFORE the uplink codec sees the update — so compression
ratios, Eqn-1 decisions and accuracy all feel the noise, which is
the trade-off the paper's Section VII-D is about. The noise stream
is derived from (--dp-seed, round, client id) alone — stateless, so
it is legal under buffered aggregation and on socket workers, and
every runtime produces identical bits. --dp-seed defaults to --seed;
--dp-noise 0 means clip-only.

`fedsz sweep` executes a grid of `fl` scenarios from one spec file: a
flat run spec plus a [matrix] table whose keys are run-spec keys and
whose values are arrays (dp-noise = [0.0, 0.5], uplink =
[\"topk:0.01\", \"q8\"]). Axes expand cross-product style in
declaration order with the last axis varying fastest; every expanded
cell's plan is validated before any cell runs (a bad cell fails the
whole sweep up front, naming the cell); each cell derives its seed
from the base seed and its cell index — cell 0 keeps the base seed
exactly, so a one-cell sweep is bit-identical to the equivalent
`fedsz fl` run. Cells execute across a worker pool (--threads N,
default host parallelism) and the merged fedsz.sweep_report.v1
document (--json [FILE]; stdout without FILE) embeds every cell's
coordinates, seed and full run_report.v2 rows, plus the Pareto front
over final accuracy / total uplink bytes / virtual time. Passing a
directory instead of a file sweeps every *.toml inside it, one cell
per spec.

`fedsz serve` + `fedsz worker` run the SAME round across real
processes over TCP: `serve` listens (default 127.0.0.1:7070), waits
for every worker's Join, then drives rounds of framed broadcast →
barrier → exact aggregation, evicting children that miss the round
timeout. With --shards S the root expects S relay servers instead of
workers; each relay runs `fedsz serve --shard I --connect ROOT` and
forwards one PartialSum[Compressed] frame per round. Config flags that
shape the bits (seed, data, arch, codec) must match across every
process; both `fl` and `serve` print a `global checksum` line so
parity is a diff away. A worker under a priced uplink policy
(--uplink adaptive|auto; --adaptive is shorthand for the former)
applies Eqn 1 to its own MEASURED send bandwidth and codec times
instead of a simulated link profile, and reports that bandwidth.

Membership is elastic: `serve` runs a single-threaded poll(2) reactor
(one event loop handles every session; --max-sessions caps them), so
a dropped worker is evicted from the round but its seat survives — a
worker that reconnects within --reconnect-grace resumes by resending
its cached update, bit-parity intact. Workers retry with bounded
id-jittered backoff (--retries attempts per outage) and fail over to
--fallback (usually the root) when their relay stops answering; a
sharded root adopts a dead relay's orphans using the shard plan.
--fail-at-round / --drop-at-round are fault-injection knobs for churn
tests: a relay exits after forwarding round R's broadcast; a worker
drops (and resumes) its session on receiving round R.

`fl`, `serve` and `worker` all accept --config FILE: a flat TOML
run spec whose keys are these flags (clients = 8, tree = \"2x4\",
weighted = true, straggler = [\"0:4\"]...). Explicit flags override
file values, so one spec can drive a whole fleet while each process
sets only --id/--bind/--connect (see examples/configs/). Every
configuration is validated up front — out-of-range shard counts,
contradictory topology, bad participation and the like fail with an
actionable message before anything runs. `fl` and `serve` emit one
shared stable JSON schema (fedsz.run_report.v2: per-round metrics
columns, per-level merge nanos and Eqn-1 decision records, plus the
global checksum) with --json.

Observability: --trace FILE writes a Chrome-trace-format JSONL stream
(schema fedsz.trace.v1, loadable in chrome://tracing or Perfetto) of
engine stage spans, per-level merge spans and eqn1.decision events;
it never changes the bits — a traced run prints the same global
checksum as an untraced one. `serve --metrics-addr ADDR` additionally
exposes a Prometheus text endpoint (session, eviction and frame-byte
counters) for the life of the process. FEDSZ_LOG=debug|info|warn sets
the stderr log level (default info).
";

/// Executes a CLI invocation (argv without the program name).
pub fn run(args: &[String]) -> Outcome {
    // The run subcommands accept declarative specs: `--config FILE`
    // expands to the file's equivalent flags, appended after the
    // explicit ones so the command line wins.
    let with_spec = |f: fn(&[String]) -> Outcome, args: &[String]| match spec::expand_config(args) {
        Ok(expanded) => f(&expanded),
        Err(e) => Outcome::fail(e),
    };
    match args.first().map(String::as_str) {
        Some("gen") => gen(&args[1..]),
        Some("compress") => compress(&args[1..]),
        Some("decompress") => decompress(&args[1..]),
        Some("inspect") => inspect(&args[1..]),
        Some("fl") => with_spec(fl, &args[1..]),
        Some("serve") => with_spec(serve, &args[1..]),
        Some("worker") => with_spec(worker, &args[1..]),
        // `sweep` owns its spec handling: the spec file is the
        // positional argument and may carry a [matrix] table the flat
        // --config expansion rejects.
        Some("sweep") => sweep::sweep(&args[1..]),
        Some("--help") | Some("-h") => Outcome::ok(USAGE.to_string()),
        _ => Outcome::fail(USAGE.to_string()),
    }
}

fn flag_value<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// Every value of a repeatable `--key v` flag, in order.
fn flag_values<'a>(args: &'a [String], key: &str) -> Vec<&'a str> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == key)
        .filter_map(|(i, _)| args.get(i + 1))
        .map(String::as_str)
        .collect()
}

fn gen(args: &[String]) -> Outcome {
    let (Some(model), Some(out)) = (args.first(), args.get(1)) else {
        return Outcome::fail(USAGE.to_string());
    };
    let Some(spec) = ModelSpec::by_name(model) else {
        return Outcome::fail(format!(
            "unknown model `{model}`; try alexnet, mobilenetv2, resnet50"
        ));
    };
    let seed: u64 = match flag_value(args, "--seed").map(str::parse).transpose() {
        Ok(v) => v.unwrap_or(42),
        Err(_) => return Outcome::fail("--seed expects an integer".into()),
    };
    let scale: f64 = match flag_value(args, "--scale").map(str::parse).transpose() {
        Ok(v) => v.unwrap_or(1.0),
        Err(_) => return Outcome::fail("--scale expects a number".into()),
    };
    if !(0.0..=1.0).contains(&scale) || scale == 0.0 {
        return Outcome::fail("--scale must be in (0, 1]".into());
    }
    let dict =
        if scale < 1.0 { spec.instantiate_scaled(seed, scale) } else { spec.instantiate(seed) };
    if let Err(e) = std::fs::write(out, dict.to_bytes()) {
        return Outcome::fail(format!("cannot write {out}: {e}"));
    }
    Outcome::ok(format!(
        "wrote {} ({} tensors, {:.1} MB) to {out}",
        spec.name(),
        dict.len(),
        dict.byte_size() as f64 / 1e6
    ))
}

fn parse_lossy(name: &str) -> Option<LossyKind> {
    match name.to_ascii_lowercase().as_str() {
        "sz2" => Some(LossyKind::Sz2),
        "sz3" => Some(LossyKind::Sz3),
        "szx" => Some(LossyKind::Szx),
        "zfp" => Some(LossyKind::Zfp),
        _ => None,
    }
}

fn parse_lossless(name: &str) -> Option<LosslessKind> {
    match name.to_ascii_lowercase().as_str() {
        "blosc-lz" | "blosclz" => Some(LosslessKind::BloscLz),
        "zlib" => Some(LosslessKind::Zlib),
        "gzip" => Some(LosslessKind::Gzip),
        "zstd" => Some(LosslessKind::Zstd),
        "xz" => Some(LosslessKind::Xz),
        _ => None,
    }
}

fn compress(args: &[String]) -> Outcome {
    let (Some(input), Some(output)) = (args.first(), args.get(1)) else {
        return Outcome::fail(USAGE.to_string());
    };
    let mut config = FedSzConfig::default();
    if let Some(eb) = flag_value(args, "--eb") {
        match eb.parse::<f64>() {
            Ok(v) => config.error_bound = ErrorBound::Relative(v),
            Err(_) => return Outcome::fail("--eb expects a number (relative bound)".into()),
        }
    }
    if let Some(eb) = flag_value(args, "--abs") {
        match eb.parse::<f64>() {
            Ok(v) => config.error_bound = ErrorBound::Absolute(v),
            Err(_) => return Outcome::fail("--abs expects a number (absolute bound)".into()),
        }
    }
    if let Some(name) = flag_value(args, "--lossy") {
        match parse_lossy(name) {
            Some(kind) => config.lossy = kind,
            None => return Outcome::fail(format!("unknown lossy codec `{name}`")),
        }
    }
    if let Some(name) = flag_value(args, "--lossless") {
        match parse_lossless(name) {
            Some(kind) => config.lossless = kind,
            None => return Outcome::fail(format!("unknown lossless codec `{name}`")),
        }
    }
    if let Some(t) = flag_value(args, "--threshold") {
        match t.parse::<usize>() {
            Ok(v) => config.threshold = v,
            Err(_) => return Outcome::fail("--threshold expects an integer".into()),
        }
    }
    let bytes = match std::fs::read(input) {
        Ok(b) => b,
        Err(e) => return Outcome::fail(format!("cannot read {input}: {e}")),
    };
    let dict = match StateDict::from_bytes(&bytes) {
        Ok(d) => d,
        Err(e) => return Outcome::fail(format!("{input} is not a state dict: {e}")),
    };
    let packed = match FedSz::new(config).compress(&dict) {
        Ok(p) => p,
        Err(e) => return Outcome::fail(format!("compression failed: {e}")),
    };
    let stats = *packed.stats();
    if let Err(e) = std::fs::write(output, packed.bytes()) {
        return Outcome::fail(format!("cannot write {output}: {e}"));
    }
    Outcome::ok(format!(
        "{:.2} MB -> {:.2} MB (ratio {:.2}x, {} lossy / {} lossless tensors) -> {output}",
        stats.original_bytes as f64 / 1e6,
        stats.compressed_bytes as f64 / 1e6,
        stats.ratio(),
        stats.lossy_tensors,
        stats.lossless_tensors,
    ))
}

fn decompress(args: &[String]) -> Outcome {
    let (Some(input), Some(output)) = (args.first(), args.get(1)) else {
        return Outcome::fail(USAGE.to_string());
    };
    let bytes = match std::fs::read(input) {
        Ok(b) => b,
        Err(e) => return Outcome::fail(format!("cannot read {input}: {e}")),
    };
    let (dict, config) = match FedSz::decompress_with_config(&bytes) {
        Ok(d) => d,
        Err(e) => return Outcome::fail(format!("{input} is not a FedSZ stream: {e}")),
    };
    if let Err(e) = std::fs::write(output, dict.to_bytes()) {
        return Outcome::fail(format!("cannot write {output}: {e}"));
    }
    Outcome::ok(format!(
        "restored {} tensors ({:.2} MB) compressed with {}+{} @ {} -> {output}",
        dict.len(),
        dict.byte_size() as f64 / 1e6,
        config.lossy.name(),
        config.lossless.name(),
        config.error_bound,
    ))
}

fn inspect(args: &[String]) -> Outcome {
    let Some(input) = args.first() else {
        return Outcome::fail(USAGE.to_string());
    };
    let bytes = match std::fs::read(input) {
        Ok(b) => b,
        Err(e) => return Outcome::fail(format!("cannot read {input}: {e}")),
    };
    let mut report = String::new();
    if let Ok(dict) = StateDict::from_bytes(&bytes) {
        let _ = writeln!(
            report,
            "{input}: state dict, {} tensors, {} elements, {:.2} MB",
            dict.len(),
            dict.total_elements(),
            dict.byte_size() as f64 / 1e6
        );
        for (name, tensor) in dict.iter().take(12) {
            let _ = writeln!(report, "  {name}: {:?}", tensor.shape());
        }
        if dict.len() > 12 {
            let _ = writeln!(report, "  ... and {} more", dict.len() - 12);
        }
        return Outcome::ok(report);
    }
    match FedSz::decompress_with_config(&bytes) {
        Ok((dict, config)) => {
            let _ = writeln!(
                report,
                "{input}: FedSZ stream ({} bytes), {}+{} @ {}, threshold {}",
                bytes.len(),
                config.lossy.name(),
                config.lossless.name(),
                config.error_bound,
                config.threshold,
            );
            let _ = writeln!(
                report,
                "  decodes to {} tensors / {} elements ({:.2} MB, ratio {:.2}x)",
                dict.len(),
                dict.total_elements(),
                dict.byte_size() as f64 / 1e6,
                dict.byte_size() as f64 / bytes.len() as f64,
            );
            Outcome::ok(report)
        }
        Err(e) => Outcome::fail(format!("{input}: unrecognized format ({e})")),
    }
}

fn parse_arch(name: &str) -> Option<TinyArch> {
    match name.to_ascii_lowercase().as_str() {
        "alexnet" => Some(TinyArch::AlexNet),
        "mobilenetv2" | "mobilenet" => Some(TinyArch::MobileNetV2),
        "resnet" | "resnet50" => Some(TinyArch::ResNet),
        _ => None,
    }
}

/// Parses repeatable `ID:VALUE` flags into `(client, value)` pairs.
/// Parses an `--uplink` codec spec into its [`StagePolicy`]: `raw`,
/// `lossy`, `adaptive`, `topk:RATIO[+ef]`, `q4[s][+ef]`, `q8[s][+ef]`
/// or `auto` (an [`StagePolicy::AutoFamily`] over lossy, `topk:0.01`
/// and `q8`, priced per link with Eqn 1). `+ef` turns on per-client
/// error feedback — legal only in the simulator, and rejected with a
/// typed plan error under buffered aggregation or socket workers.
fn parse_uplink(spec: &str, compression: Option<FedSzConfig>) -> Result<StagePolicy, String> {
    let lower = spec.to_ascii_lowercase();
    let (base, ef) = match lower.strip_suffix("+ef") {
        Some(base) => (base, true),
        None => (lower.as_str(), false),
    };
    let need_codec = |name: &str| {
        compression
            .ok_or_else(|| format!("--uplink {name} requires compression (drop --no-compress)"))
    };
    if !ef {
        match base {
            "raw" => return Ok(StagePolicy::Raw),
            "lossy" | "fedsz" => return Ok(StagePolicy::Lossy(need_codec(base)?)),
            "adaptive" | "eqn1" => {
                return Ok(StagePolicy::Adaptive {
                    compressed: Box::new(StagePolicy::Lossy(need_codec(base)?)),
                })
            }
            "auto" => {
                // EF candidates are illegal under AutoFamily (a
                // residual has no meaning when the codec changes per
                // round), so the default slate is EF-free.
                let mut candidates = Vec::new();
                if let Some(cfg) = compression {
                    candidates.push(StagePolicy::Lossy(cfg));
                }
                candidates.push(StagePolicy::TopK { ratio: 0.01, error_feedback: false });
                candidates.push(StagePolicy::Quant {
                    bits: 8,
                    stochastic: false,
                    error_feedback: false,
                });
                return Ok(StagePolicy::AutoFamily { candidates });
            }
            _ => {}
        }
    }
    if let Some(ratio) = base.strip_prefix("topk:") {
        let ratio: f64 = ratio.parse().map_err(|_| {
            format!("--uplink topk expects a keep ratio, e.g. topk:0.01, got `{spec}`")
        })?;
        return Ok(StagePolicy::TopK { ratio, error_feedback: ef });
    }
    let quant = match base {
        "q4" => Some((4, false)),
        "q4s" => Some((4, true)),
        "q8" => Some((8, false)),
        "q8s" => Some((8, true)),
        _ => None,
    };
    if let Some((bits, stochastic)) = quant {
        return Ok(StagePolicy::Quant { bits, stochastic, error_feedback: ef });
    }
    Err(format!(
        "unknown uplink codec `{spec}`; try raw, lossy, adaptive, topk:RATIO[+ef], \
         q4[s][+ef], q8[s][+ef], auto"
    ))
}

fn parse_client_pairs(values: &[&str], flag: &str) -> Result<Vec<(usize, f64)>, String> {
    values
        .iter()
        .map(|spec| {
            let (id, value) = spec
                .split_once(':')
                .ok_or_else(|| format!("{flag} expects ID:VALUE, got `{spec}`"))?;
            let id = id.parse::<usize>().map_err(|_| format!("{flag}: bad client id `{id}`"))?;
            let value = value.parse::<f64>().map_err(|_| format!("{flag}: bad value `{value}`"))?;
            Ok((id, value))
        })
        .collect()
}

/// Parses a numeric `--key value` flag, falling back to `default`.
fn parse_flag<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> Result<T, String> {
    match flag_value(args, key).map(str::parse::<T>).transpose() {
        Ok(v) => Ok(v.unwrap_or(default)),
        Err(_) => Err(format!("{key} expects a number")),
    }
}

/// Parses the flags shared by `fl`, `serve` and `worker`: everything
/// that shapes the *bits* of the run (cohort and data geometry, seeds,
/// architecture, codec, topology, downlink/psum modes). Multi-process
/// deployments must pass identical values of these to every process;
/// parsing them in one place is what lets the `serve`/`worker`
/// checksum be compared against the in-memory `fl` run's.
fn shared_fl_config(args: &[String]) -> Result<FlConfig, String> {
    let clients: usize = parse_flag(args, "--clients", 4)?;
    let rounds: usize = parse_flag(args, "--rounds", 5)?;
    let seed: u64 = parse_flag(args, "--seed", 42)?;
    let train_per_class: usize = parse_flag(args, "--train-per-class", 8)?;
    if clients == 0 || rounds == 0 {
        return Err("--clients and --rounds must be positive".into());
    }
    let arch = match flag_value(args, "--arch") {
        None => TinyArch::AlexNet,
        Some(name) => match parse_arch(name) {
            Some(a) => a,
            None => return Err(format!("unknown arch `{name}`")),
        },
    };

    let mut config = FlConfig::paper_default(arch, DatasetKind::Cifar10Like);
    config.clients = clients;
    config.rounds = rounds;
    config.seed = seed;
    config.data.seed = seed;
    config.data.train_per_class = train_per_class;
    config.data.test_per_class = (train_per_class / 2).max(2);
    config.data.resolution = 16;
    // The FedSZ codec every compressing flag below wraps; `None` under
    // --no-compress, which also makes raw the default upload policy.
    let codec = if args.iter().any(|a| a == "--no-compress") {
        config.uplink = StagePolicy::Raw;
        None
    } else {
        Some(FlConfig::tiny_model_compression())
    };
    if let Some(alpha) = flag_value(args, "--non-iid") {
        match alpha.parse::<f64>() {
            Ok(a) if a > 0.0 => config.non_iid_alpha = Some(a),
            _ => return Err("--non-iid expects a positive Dirichlet alpha".into()),
        }
    }
    // --shards S is the two-level spelling of --tree S, range-checked
    // against the cohort (an explicit --tree may out-leaf it).
    config.tree = match (flag_value(args, "--shards"), flag_value(args, "--tree")) {
        (Some(_), Some(_)) => {
            return Err("contradictory topology flags: --shards and --tree both set; \
                        pick one (--tree S is the two-level equivalent of --shards S)"
                .into())
        }
        (Some(shards), None) => match shards.parse::<usize>() {
            Ok(s) if (1..=clients).contains(&s) => Some(vec![s]),
            Ok(s) if s > 0 => {
                return Err(format!(
                    "invalid configuration: shards must be in [1, clients], \
                     got {s} shards for {clients} clients"
                ))
            }
            _ => return Err("--shards expects a positive shard count".into()),
        },
        (None, Some(spec)) => {
            Some(TreePlan::parse_fanouts(spec).map_err(|e| format!("--tree: {e}"))?)
        }
        (None, None) => None,
    };
    if let Some(mode) = flag_value(args, "--psum") {
        config.psum = match mode.to_ascii_lowercase().as_str() {
            "raw" => StagePolicy::Raw,
            "lossless" => StagePolicy::Lossless,
            "auto" | "adaptive" => {
                StagePolicy::Adaptive { compressed: Box::new(StagePolicy::Lossless) }
            }
            other => return Err(format!("unknown psum mode `{other}`; try raw, lossless, auto")),
        };
        if config.psum.compresses() && config.tree.is_none() {
            return Err("--psum needs an aggregation tree (--shards or --tree)".into());
        }
    }
    if let Some(mode) = flag_value(args, "--downlink") {
        let need_codec = || {
            codec.map(StagePolicy::Lossy).ok_or_else(|| {
                "--downlink fedsz/auto requires compression (drop --no-compress)".to_string()
            })
        };
        config.downlink = match mode.to_ascii_lowercase().as_str() {
            "raw" => StagePolicy::Raw,
            "fedsz" => need_codec()?,
            "auto" | "adaptive" => StagePolicy::Adaptive { compressed: Box::new(need_codec()?) },
            other => return Err(format!("unknown downlink mode `{other}`; try raw, fedsz, auto")),
        };
    }
    // The uplink codec policy, parsed here so `fl`, `serve` and
    // `worker` agree. `--adaptive` is shorthand for `--uplink
    // adaptive`; naming a second policy next to it is contradictory.
    let adaptive = args.iter().any(|a| a == "--adaptive");
    match flag_value(args, "--uplink") {
        Some(spec) if adaptive => {
            return Err(format!(
                "contradictory uplink flags: --adaptive is shorthand for --uplink adaptive, \
                 but --uplink {spec} is also set; pick one"
            ))
        }
        Some(spec) => config.uplink = parse_uplink(spec, codec)?,
        None if adaptive => config.uplink = parse_uplink("adaptive", codec)?,
        None => {}
    }
    // The DP stage: --dp-clip is the switch (a clip bound is the one
    // part a DP deployment cannot omit); the other dp flags refine it
    // and are rejected alone so a spec that forgot the clip fails
    // loudly instead of silently running without privacy.
    let dp_noise = flag_value(args, "--dp-noise");
    let dp_mechanism = flag_value(args, "--dp-mechanism");
    let dp_seed = flag_value(args, "--dp-seed");
    match flag_value(args, "--dp-clip") {
        None => {
            if dp_noise.is_some() || dp_mechanism.is_some() || dp_seed.is_some() {
                return Err("--dp-noise/--dp-mechanism/--dp-seed need --dp-clip \
                            (the clip bound is what turns the DP stage on)"
                    .into());
            }
        }
        Some(clip) => {
            let clip_norm: f64 = clip
                .parse()
                .map_err(|_| "--dp-clip expects a number (the L2 clip bound)".to_string())?;
            let noise_multiplier: f64 = match dp_noise {
                None => 0.0, // clip-only
                Some(v) => v.parse().map_err(|_| {
                    "--dp-noise expects a number (the noise multiplier)".to_string()
                })?,
            };
            let mechanism = match dp_mechanism {
                None => DpMechanism::Gaussian,
                Some(name) => DpMechanism::parse(name).ok_or_else(|| {
                    format!("unknown DP mechanism `{name}`; try gaussian or laplace")
                })?,
            };
            let seed = match dp_seed {
                // The run seed, so one spec keeps every process's
                // noise stream aligned by default.
                None => seed,
                Some(v) => v.parse().map_err(|_| "--dp-seed expects an integer".to_string())?,
            };
            config.dp = Some(DpPolicy { clip_norm, noise_multiplier, mechanism, seed });
        }
    }
    // Execution width, not semantics: the aggregation tree merges its
    // leaves/levels on this many worker threads (default: the host's
    // available parallelism). Any width produces identical bits, so
    // multi-process peers need not agree on it.
    if let Some(threads) = flag_value(args, "--threads") {
        match threads.parse::<usize>() {
            Ok(t) if t > 0 => config.worker_threads = Some(t),
            _ => return Err("--threads expects a positive worker-thread count".into()),
        }
    }
    Ok(config)
}

/// Assembles the full simulator configuration — the shared bit-shaping
/// flags plus the simulator-only knobs (participation, links,
/// stragglers, drops, aggregation policy) — and validates it through
/// the plan. `fl` and every `sweep` cell go through this one function,
/// which is what makes a sweep cell exactly an `fl` run.
fn simulator_config(args: &[String]) -> Result<FlConfig, String> {
    let mut config = shared_fl_config(args)?;
    let clients = config.clients;
    let participation: f64 = parse_flag(args, "--participation", 1.0)?;
    let bandwidth_mbps: f64 = parse_flag(args, "--bandwidth", 10.0)?;
    let latency_ms: f64 = parse_flag(args, "--latency", 0.0)?;
    if !(bandwidth_mbps.is_finite() && bandwidth_mbps > 0.0) {
        return Err("--bandwidth must be positive".into());
    }
    if !(participation.is_finite() && participation > 0.0 && participation <= 1.0) {
        return Err("--participation must be in (0, 1]".into());
    }
    if !(latency_ms.is_finite() && latency_ms >= 0.0) {
        return Err("--latency must be non-negative".into());
    }
    config.participation = participation;
    config.weighted_aggregation = args.iter().any(|a| a == "--weighted");

    // Per-client links: a bandwidth list plus straggler/drop injection.
    let stragglers = parse_client_pairs(&flag_values(args, "--straggler"), "--straggler")?;
    let drops = parse_client_pairs(&flag_values(args, "--drop"), "--drop")?;
    // --latency alone keeps the paper's shared pipe (with per-message
    // latency); only per-client knobs switch to dedicated links.
    let pipe = LinkProfile::symmetric(bandwidth_mbps * 1e6).with_latency(latency_ms / 1e3);
    config.links = Some(Topology::Shared(pipe));
    let heterogeneous =
        flag_value(args, "--links").is_some() || !stragglers.is_empty() || !drops.is_empty();
    if heterogeneous {
        let mut mbps: Vec<f64> = vec![bandwidth_mbps; clients];
        if let Some(list) = flag_value(args, "--links") {
            let parsed: Result<Vec<f64>, _> =
                list.split(',').map(|v| v.trim().parse::<f64>()).collect();
            match parsed {
                Ok(values) if !values.is_empty() => {
                    // Cycle the list so `--links 100,1` alternates fast/slow.
                    for (i, m) in mbps.iter_mut().enumerate() {
                        *m = values[i % values.len()];
                    }
                }
                _ => return Err("--links expects MBPS,MBPS,...".into()),
            }
        }
        let mut links: Vec<LinkProfile> = mbps
            .iter()
            .map(|&m| {
                if m > 0.0 && m.is_finite() {
                    Ok(LinkProfile::symmetric(m * 1e6).with_latency(latency_ms / 1e3))
                } else {
                    Err(format!("--links: bandwidth must be positive, got {m}"))
                }
            })
            .collect::<Result<_, _>>()?;
        for (id, factor) in stragglers {
            let Some(link) = links.get_mut(id) else {
                return Err(format!("--straggler: no client {id}"));
            };
            if !(factor.is_finite() && factor >= 1.0) {
                return Err("--straggler factor must be >= 1".into());
            }
            *link = link.with_slowdown(factor);
        }
        for (id, prob) in drops {
            let Some(link) = links.get_mut(id) else {
                return Err(format!("--drop: no client {id}"));
            };
            if !(0.0..=1.0).contains(&prob) {
                return Err("--drop probability must be in [0, 1]".into());
            }
            *link = link.with_drop_prob(prob);
        }
        config.links = Some(Topology::Dedicated(links));
    }

    if let Some(policy) = flag_value(args, "--policy") {
        config.aggregation = match policy.to_ascii_lowercase().as_str() {
            "sync" | "synchronous" => AggregationPolicy::Synchronous,
            other => match other.strip_prefix("buffered:").map(str::parse::<usize>) {
                Some(Ok(k)) if k > 0 => AggregationPolicy::Buffered { target: k },
                _ => return Err(format!("unknown policy `{policy}`; try sync or buffered:K")),
            },
        };
    }

    // One validation pass over the assembled configuration: anything
    // the targeted flag checks above missed (illegal stage policies,
    // stateful uplinks under buffering, link-list mismatches) fails
    // here with the plan's actionable message instead of a panic.
    if let Err(e) = config.plan() {
        return Err(format!("invalid configuration: {e}"));
    }
    Ok(config)
}

fn fl(args: &[String]) -> Outcome {
    let config = match simulator_config(args) {
        Ok(config) => config,
        Err(e) => return Outcome::fail(e),
    };
    let clients = config.clients;
    let arch = config.arch;

    // A tree implies per-client last miles into the leaves (the tree
    // topology), even when no explicit link list was given.
    let topology = if matches!(config.links, Some(Topology::Dedicated(_))) {
        "per-client links"
    } else if config.tree.is_some() {
        "per-client last miles"
    } else {
        "shared pipe"
    };
    let server = match &config.tree {
        Some(f) if f.len() == 1 => format!("{}-shard tree", f[0]),
        Some(f) => format!(
            "depth-{} tree ({})",
            f.len() + 1,
            f.iter().map(usize::to_string).collect::<Vec<_>>().join("x")
        ),
        None => "flat server".to_string(),
    };
    let mut report = String::new();
    let _ = writeln!(
        report,
        "fl: {clients} clients, {} rounds, {:?} on {topology}, {server}, policy {:?}, downlink {}, psum {}",
        config.rounds, arch, config.aggregation, config.downlink.name(), config.psum.name()
    );
    let _ = writeln!(
        report,
        "round    acc%  train(s)  codec(s)  comm(s)  round(s)     upKB   downKB  ratio  agg  stale  drop"
    );
    let json = args.iter().any(|a| a == "--json");
    let telemetry = match telemetry_from_args(args, false) {
        Ok(t) => t,
        Err(e) => return Outcome::fail(e),
    };
    let mut experiment = Experiment::new(config).with_telemetry(telemetry.clone());
    let metrics = experiment.run();
    let checksum = global_checksum(experiment.global_state());
    telemetry.flush();
    if json {
        // RoundRow::simulator owns the fills-vs-nulls column contract.
        let rounds = metrics.iter().map(RoundRow::simulator).collect();
        let report = RunReport { command: "fl", clients, rounds, checksum: Some(checksum) };
        return Outcome::ok(report.to_json());
    }
    for m in &metrics {
        let _ = writeln!(
            report,
            "{:>5}  {:>5.1}  {:>8.3}  {:>8.3}  {:>7.3}  {:>8.3}  {:>7.1}  {:>7.1}  {:>5.2}  {:>3}  {:>5}  {:>4}",
            m.round + 1,
            m.test_accuracy * 100.0,
            m.train_secs,
            m.compress_secs + m.decompress_secs,
            m.comm_secs,
            m.round_secs,
            m.upstream_bytes as f64 / 1e3,
            m.downstream_bytes as f64 / 1e3,
            m.ratio,
            m.aggregated_updates,
            m.stale_updates,
            m.dropped_updates,
        );
    }
    let total_comm: f64 = metrics.iter().map(|m| m.comm_secs).sum();
    let total_round: f64 = metrics.iter().map(|m| m.round_secs).sum();
    let _ = writeln!(
        report,
        "total simulated comm {total_comm:.3}s, virtual session time {total_round:.3}s"
    );
    let total_down: usize = metrics.iter().map(|m| m.downstream_bytes).sum();
    let total_up: usize = metrics.iter().map(|m| m.upstream_bytes).sum();
    let root_in: usize = metrics.iter().map(|m| m.root_ingress_bytes).sum();
    let root_out: usize = metrics.iter().map(|m| m.root_egress_bytes).sum();
    let n = metrics.len().max(1) as f64;
    let downlink_ratio: f64 = metrics.iter().map(|m| m.downlink_ratio).sum::<f64>() / n;
    let psum_ratio: f64 = metrics.iter().map(|m| m.psum_ratio).sum::<f64>() / n;
    let _ = writeln!(
        report,
        "bytes: up {:.1} KB, down {:.1} KB (downlink ratio {downlink_ratio:.2}x); root ingress {:.1} KB (psum ratio {psum_ratio:.2}x), egress {:.1} KB",
        total_up as f64 / 1e3,
        total_down as f64 / 1e3,
        root_in as f64 / 1e3,
        root_out as f64 / 1e3,
    );
    // The bit-parity fingerprint a loopback `serve` + `worker` run of
    // the same config must reproduce.
    let _ = writeln!(report, "global checksum: 0x{checksum:08x}");
    Outcome::ok(report)
}

/// Rejects flags the socket runtime cannot honor. Several of them
/// shape the bits of the run (`--weighted` changes aggregation
/// weights, `--participation` the cohort, `--policy` the barrier,
/// `--drop` loses uploads), so silently ignoring them would let a
/// `serve`/`worker` deployment print a checksum that can never match
/// the `fl` run it claims to mirror; the rest price a simulated
/// network that does not exist here.
fn reject_simulator_flags(args: &[String], subcommand: &str) -> Result<(), String> {
    let simulator_only = [
        "--weighted",
        "--participation",
        "--policy",
        "--links",
        "--straggler",
        "--drop",
        "--bandwidth",
        "--latency",
    ];
    for flag in simulator_only {
        if args.iter().any(|a| a == flag) {
            return Err(format!(
                "{flag} is simulator-only: `fedsz {subcommand}` cannot honor it (use `fedsz fl`)"
            ));
        }
    }
    Ok(())
}

/// Builds the invocation's telemetry handle: `--trace FILE` opens the
/// Chrome-trace JSONL writer, `require_registry` (serve's
/// `--metrics-addr` without a trace file) turns on the in-memory
/// counter registry alone, and otherwise the handle stays disabled —
/// a no-op off the hot path.
fn telemetry_from_args(args: &[String], require_registry: bool) -> Result<Telemetry, String> {
    match flag_value(args, "--trace") {
        Some(path) => Telemetry::with_trace(Path::new(path))
            .map_err(|e| format!("cannot open trace file {path}: {e}")),
        None if require_registry => Ok(Telemetry::enabled()),
        None => Ok(Telemetry::disabled()),
    }
}

/// Parses a `--key SECS` duration flag.
fn parse_secs(args: &[String], key: &str, default: f64) -> Result<Duration, String> {
    let secs: f64 = match flag_value(args, key).map(str::parse).transpose() {
        Ok(v) => v.unwrap_or(default),
        Err(_) => return Err(format!("{key} expects seconds")),
    };
    if !(secs.is_finite() && secs > 0.0) {
        return Err(format!("{key} must be positive"));
    }
    Ok(Duration::from_secs_f64(secs))
}

fn serve(args: &[String]) -> Outcome {
    let config = match shared_fl_config(args) {
        Ok(config) => config,
        Err(e) => return Outcome::fail(e),
    };
    if let Err(e) = reject_simulator_flags(args, "serve") {
        return Outcome::fail(e);
    }
    if config.tree.as_ref().is_some_and(|f| f.len() > 1) {
        return Outcome::fail(
            "the socket runtime runs two-level trees: use --shards S \
             (deeper --tree hierarchies are simulator-only for now)"
                .into(),
        );
    }
    if config.downlink.is_adaptive() {
        return Outcome::fail(
            "serve supports --downlink raw|fedsz (auto needs the simulator's link model)".into(),
        );
    }
    let accept_timeout = match parse_secs(args, "--accept-timeout", 30.0) {
        Ok(t) => t,
        Err(e) => return Outcome::fail(e),
    };
    let round_timeout = match parse_secs(args, "--round-timeout", 120.0) {
        Ok(t) => t,
        Err(e) => return Outcome::fail(e),
    };
    let reconnect_grace = match parse_secs(args, "--reconnect-grace", 3.0) {
        Ok(t) => t,
        Err(e) => return Outcome::fail(e),
    };
    let max_sessions = match flag_value(args, "--max-sessions").map(str::parse::<usize>) {
        None => 1024,
        Some(Ok(n)) if n > 0 => n,
        Some(_) => return Outcome::fail("--max-sessions expects a positive count".into()),
    };
    let fail_at_round = match flag_value(args, "--fail-at-round").map(str::parse::<u32>) {
        None => None,
        Some(Ok(r)) => Some(r),
        Some(Err(_)) => return Outcome::fail("--fail-at-round expects a round index".into()),
    };
    let role = match flag_value(args, "--shard") {
        None => Role::Root,
        Some(spec) => {
            let Ok(shard) = spec.parse::<u32>() else {
                return Outcome::fail("--shard expects a shard index".into());
            };
            let Some(upstream) = flag_value(args, "--connect") else {
                return Outcome::fail("--shard requires --connect UPSTREAM".into());
            };
            Role::Relay { shard, upstream: upstream.to_string() }
        }
    };
    let json = args.iter().any(|a| a == "--json");
    let clients = config.clients;
    let metrics_addr = flag_value(args, "--metrics-addr");
    let telemetry = match telemetry_from_args(args, metrics_addr.is_some()) {
        Ok(t) => t,
        Err(e) => return Outcome::fail(e),
    };
    if fail_at_round.is_some() && matches!(role, Role::Root) {
        return Outcome::fail(
            "--fail-at-round is the relay fault-injection knob: it requires --shard".into(),
        );
    }
    let serve_config = ServeConfig {
        fl: config,
        role,
        accept_timeout,
        round_timeout,
        max_sessions,
        reconnect_grace,
        fail_at_round,
        telemetry: telemetry.clone(),
    };
    // Validate once. The plan's checks and the socket runtime's own
    // (a `--tree S` spec that out-leafs the cohort, a `--shard` the
    // tree does not have — every shard here is a real relay process)
    // live in one place: ServeConfig::plan.
    let plan = match serve_config.plan() {
        Ok(plan) => plan,
        Err(e) => return Outcome::fail(e.to_string()),
    };
    let expected = ServeConfig::expected_children_of(&plan, &serve_config.role).len();
    let bind = flag_value(args, "--bind").unwrap_or("127.0.0.1:7070");
    let server = match NetServer::bind(bind) {
        Ok(server) => server,
        Err(e) => return Outcome::fail(format!("cannot bind {bind}: {e}")),
    };
    // The scrape endpoint outlives the round loop (the accept thread
    // is detached), so late scrapes after the last round still see
    // final counter values.
    let metrics_server = match metrics_addr {
        None => None,
        Some(addr) => match MetricsServer::bind(addr, telemetry.clone()) {
            Ok(server) => Some(server),
            Err(e) => return Outcome::fail(format!("cannot bind metrics endpoint {addr}: {e}")),
        },
    };
    // Announced before the blocking run so scripts can synchronize on
    // it (stderr keeps stdout reserved for the final report).
    fedsz_telemetry::info!(
        "serve: listening on {} ({expected} children expected)",
        server.local_addr()
    );
    if let Some(metrics_server) = &metrics_server {
        fedsz_telemetry::info!("serve: metrics on http://{}/metrics", metrics_server.addr());
    }
    let relay = matches!(serve_config.role, Role::Relay { .. });
    let report = match server.run(serve_config) {
        Ok(report) => report,
        Err(e) => return Outcome::fail(format!("serve failed: {e}")),
    };
    telemetry.flush();
    if json {
        // RoundRow::socket owns the fills-vs-nulls column contract;
        // dp_sigma comes from the shared plan (the noise itself is
        // applied worker-side, but the policy is part of the plan
        // every process agrees on).
        let dp_sigma = plan.config.dp.map(|p| p.sigma());
        let rounds = report.rounds.iter().map(|r| RoundRow::socket(r, relay, dp_sigma)).collect();
        let run_report = RunReport {
            command: "serve",
            clients,
            rounds,
            checksum: (!relay).then_some(report.checksum),
        };
        return Outcome::ok(run_report.to_json());
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve: {} rounds, {} children expected, {} evicted",
        report.rounds.len(),
        expected,
        report.evicted
    );
    let _ = writeln!(out, "round  merged  evicted     upKB   downKB  wall(s)  checksum");
    for r in &report.rounds {
        let _ = writeln!(
            out,
            "{:>5}  {:>6}  {:>7}  {:>7.1}  {:>7.1}  {:>7.3}  0x{:08x}",
            r.round + 1,
            r.merged,
            r.evicted,
            r.upstream_bytes as f64 / 1e3,
            r.downstream_bytes as f64 / 1e3,
            r.wall_secs,
            r.checksum,
        );
    }
    for (id, round, reason) in &report.evictions {
        let _ = writeln!(out, "evicted child {id} at round {}: {reason}", round + 1);
    }
    if report.reconnects + report.reparented > 0 {
        let _ = writeln!(
            out,
            "elastic membership: {} reconnects, {} re-parented",
            report.reconnects, report.reparented
        );
    }
    if report.psum_raw_frames + report.psum_compressed_frames > 0 {
        let _ = writeln!(
            out,
            "psum frames: {} compressed, {} raw",
            report.psum_compressed_frames, report.psum_raw_frames
        );
    }
    if !relay {
        let _ = writeln!(out, "global checksum: 0x{:08x}", report.checksum);
    }
    Outcome::ok(out)
}

fn worker(args: &[String]) -> Outcome {
    let config = match shared_fl_config(args) {
        Ok(config) => config,
        Err(e) => return Outcome::fail(e),
    };
    if let Err(e) = reject_simulator_flags(args, "worker") {
        return Outcome::fail(e);
    }
    // A worker process cannot carry error-feedback residuals across
    // reconnects, so stateful uplinks fail here — before any socket
    // work — with the typed plan error.
    let plan = match config.plan().and_then(|plan| plan.validate_for_workers().map(|()| plan)) {
        Ok(plan) => plan,
        Err(e) => return Outcome::fail(format!("invalid configuration: {e}")),
    };
    let Some(id_spec) = flag_value(args, "--id") else {
        return Outcome::fail("worker requires --id K (the client id to embody)".into());
    };
    let Ok(id) = id_spec.parse::<usize>() else {
        return Outcome::fail("--id expects a client index".into());
    };
    if id >= config.clients {
        return Outcome::fail(format!(
            "--id {id} outside the cohort of {} (set --clients to the full cohort size)",
            config.clients
        ));
    }
    let timeout = match parse_secs(args, "--timeout", 120.0) {
        Ok(t) => t,
        Err(e) => return Outcome::fail(e),
    };
    let connect = flag_value(args, "--connect").unwrap_or("127.0.0.1:7070").to_string();
    let fallback = flag_value(args, "--fallback").map(str::to_string);
    let retries = match flag_value(args, "--retries").map(str::parse::<u32>) {
        None => 8,
        Some(Ok(n)) => n,
        Some(Err(_)) => return Outcome::fail("--retries expects an attempt count".into()),
    };
    let drop_session_at_round = match flag_value(args, "--drop-at-round").map(str::parse::<u32>) {
        None => None,
        Some(Ok(r)) => Some(r),
        Some(Err(_)) => return Outcome::fail("--drop-at-round expects a round index".into()),
    };
    let telemetry = match telemetry_from_args(args, false) {
        Ok(t) => t,
        Err(e) => return Outcome::fail(e),
    };
    let fl = config.clone();
    let mut worker_config = WorkerConfig::new(fl, id, connect);
    worker_config.fallback = fallback;
    worker_config.retries = retries;
    worker_config.drop_session_at_round = drop_session_at_round;
    worker_config.timeout = timeout;
    worker_config.telemetry = telemetry.clone();
    let report = match run_worker(worker_config) {
        Ok(report) => report,
        Err(e) => return Outcome::fail(format!("worker {id} failed: {e}")),
    };
    telemetry.flush();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "worker {id}: {} rounds, up {:.1} KB, down {:.1} KB, compressed {}/{} rounds, \
         {} reconnects{}",
        report.rounds,
        report.uploaded_bytes as f64 / 1e3,
        report.downloaded_bytes as f64 / 1e3,
        report.compressed_rounds,
        report.rounds,
        report.reconnects,
        // The bandwidth Eqn 1 was priced with, whenever it priced.
        if plan.config.uplink.is_adaptive() {
            format!(", measured uplink {:.0} Mbps", report.measured_bps / 1e6)
        } else {
            String::new()
        }
    );
    Outcome::ok(out)
}

/// Test helper: a scratch file path in the OS temp dir.
pub fn temp_path(tag: &str) -> String {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    dir.join(format!("fedsz-cli-{pid}-{tag}")).to_string_lossy().into_owned()
}

/// Removes scratch files, ignoring errors.
pub fn cleanup(paths: &[&str]) {
    for p in paths {
        let _ = std::fs::remove_file(Path::new(p));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runv(args: &[&str]) -> Outcome {
        run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn help_and_unknown_commands() {
        assert_eq!(runv(&["--help"]).code, 0);
        assert_ne!(runv(&["frobnicate"]).code, 0);
        assert_ne!(runv(&[]).code, 0);
    }

    #[test]
    fn full_pipeline_via_cli() {
        let fsd = temp_path("gen.fsd");
        let fsz = temp_path("packed.fsz");
        let back = temp_path("restored.fsd");

        let out = runv(&["gen", "mobilenetv2", &fsd, "--seed", "7", "--scale", "0.02"]);
        assert_eq!(out.code, 0, "{}", out.report);

        let out = runv(&["compress", &fsd, &fsz, "--eb", "1e-3", "--lossy", "sz3"]);
        assert_eq!(out.code, 0, "{}", out.report);
        assert!(out.report.contains("ratio"));

        let out = runv(&["decompress", &fsz, &back]);
        assert_eq!(out.code, 0, "{}", out.report);
        assert!(out.report.contains("SZ3"));

        let original = StateDict::from_bytes(&std::fs::read(&fsd).unwrap()).unwrap();
        let restored = StateDict::from_bytes(&std::fs::read(&back).unwrap()).unwrap();
        assert_eq!(original.len(), restored.len());

        let out = runv(&["inspect", &fsz]);
        assert_eq!(out.code, 0);
        assert!(out.report.contains("FedSZ stream"));
        let out = runv(&["inspect", &fsd]);
        assert_eq!(out.code, 0);
        assert!(out.report.contains("state dict"));

        cleanup(&[&fsd, &fsz, &back]);
    }

    #[test]
    fn bad_inputs_fail_cleanly() {
        assert_ne!(runv(&["gen", "vgg", "/tmp/x.fsd"]).code, 0);
        assert_ne!(runv(&["gen", "alexnet", "/tmp/x.fsd", "--scale", "2.0"]).code, 0);
        assert_ne!(runv(&["compress", "/nonexistent.fsd", "/tmp/y.fsz"]).code, 0);
        assert_ne!(runv(&["decompress", "/nonexistent.fsz", "/tmp/y.fsd"]).code, 0);
        assert_ne!(runv(&["inspect", "/nonexistent"]).code, 0);
        let junk = temp_path("junk");
        std::fs::write(&junk, b"not a recognized format at all").unwrap();
        assert_ne!(runv(&["inspect", &junk]).code, 0);
        assert_ne!(runv(&["compress", &junk, "/tmp/z.fsz"]).code, 0);
        cleanup(&[&junk]);
    }

    #[test]
    fn fl_session_runs_with_heterogeneous_links() {
        let out = runv(&[
            "fl",
            "--clients",
            "2",
            "--rounds",
            "1",
            "--train-per-class",
            "2",
            "--links",
            "100,1",
            "--straggler",
            "1:4",
            "--policy",
            "buffered:1",
        ]);
        assert_eq!(out.code, 0, "{}", out.report);
        assert!(out.report.contains("per-client links"), "{}", out.report);
        assert!(out.report.contains("Buffered"), "{}", out.report);
        assert!(out.report.contains("virtual session time"), "{}", out.report);
    }

    #[test]
    fn fl_shared_pipe_and_flags_validate() {
        let out = runv(&["fl", "--clients", "2", "--rounds", "1", "--train-per-class", "2"]);
        assert_eq!(out.code, 0, "{}", out.report);
        assert!(out.report.contains("shared pipe"), "{}", out.report);

        // --latency alone must keep the paper's shared-pipe semantics,
        // not silently switch to overlapping dedicated links.
        let out = runv(&[
            "fl",
            "--clients",
            "2",
            "--rounds",
            "1",
            "--train-per-class",
            "2",
            "--latency",
            "20",
        ]);
        assert_eq!(out.code, 0, "{}", out.report);
        assert!(out.report.contains("shared pipe"), "{}", out.report);

        assert_ne!(runv(&["fl", "--clients", "abc"]).code, 0);
        assert_ne!(runv(&["fl", "--clients", "0"]).code, 0);
        assert_ne!(runv(&["fl", "--bandwidth", "0"]).code, 0);
        assert_ne!(runv(&["fl", "--bandwidth", "-5"]).code, 0);
        assert_ne!(runv(&["fl", "--participation", "0"]).code, 0);
        assert_ne!(runv(&["fl", "--participation", "1.5"]).code, 0);
        assert_ne!(runv(&["fl", "--links", "10", "--latency", "-3", "--clients", "1"]).code, 0);
        assert_ne!(runv(&["fl", "--arch", "vgg"]).code, 0);
        assert_ne!(runv(&["fl", "--policy", "eventually"]).code, 0);
        assert_ne!(runv(&["fl", "--policy", "buffered:0"]).code, 0);
        assert_ne!(runv(&["fl", "--links", "10,-3"]).code, 0);
        assert_ne!(runv(&["fl", "--straggler", "9:2", "--clients", "2"]).code, 0);
        assert_ne!(runv(&["fl", "--straggler", "0:0.5", "--clients", "2"]).code, 0);
        assert_ne!(runv(&["fl", "--drop", "0:1.5", "--clients", "2"]).code, 0);
        assert_ne!(runv(&["fl", "--drop", "zero", "--clients", "2"]).code, 0);
        assert_ne!(runv(&["fl", "--non-iid", "-1"]).code, 0);
        assert_ne!(runv(&["fl", "--shards", "0"]).code, 0);
        assert_ne!(runv(&["fl", "--shards", "two"]).code, 0);
        assert_ne!(runv(&["fl", "--tree", "4x0"]).code, 0);
        assert_ne!(runv(&["fl", "--tree", "4xtwo"]).code, 0);
        assert_ne!(runv(&["fl", "--psum", "gzip", "--shards", "2"]).code, 0);
        assert_ne!(runv(&["fl", "--psum", "lossless"]).code, 0, "--psum needs a tree");
        assert_ne!(runv(&["fl", "--downlink", "gzip"]).code, 0);
        assert_ne!(runv(&["fl", "--downlink", "fedsz", "--no-compress"]).code, 0);
    }

    #[test]
    fn contradictory_topology_flags_rejected() {
        // --shards is sugar for a one-level --tree: naming both is an
        // error, on every subcommand sharing the parser.
        for cmd in ["fl", "serve", "worker"] {
            let out = runv(&[cmd, "--shards", "2", "--tree", "2x2", "--clients", "4"]);
            assert_ne!(out.code, 0, "{cmd} accepted --shards with --tree");
            assert!(out.report.contains("contradictory"), "{}", out.report);
        }
    }

    #[test]
    fn fl_prints_the_parity_checksum() {
        let out = runv(&["fl", "--clients", "2", "--rounds", "1", "--train-per-class", "2"]);
        assert_eq!(out.code, 0, "{}", out.report);
        assert!(out.report.contains("global checksum: 0x"), "{}", out.report);
        // Same config, same checksum — the line is a stable fingerprint.
        let again = runv(&["fl", "--clients", "2", "--rounds", "1", "--train-per-class", "2"]);
        let line =
            |r: &str| r.lines().find(|l| l.starts_with("global checksum")).map(str::to_owned);
        assert_eq!(line(&out.report), line(&again.report));
    }

    #[test]
    fn serve_and_worker_flags_validate() {
        // Worker: id is mandatory and must be inside the cohort.
        assert_ne!(runv(&["worker"]).code, 0);
        assert_ne!(runv(&["worker", "--id", "abc"]).code, 0);
        assert_ne!(runv(&["worker", "--id", "9", "--clients", "4"]).code, 0);
        assert_ne!(runv(&["worker", "--id", "0", "--timeout", "-5"]).code, 0);
        // Serve: relay mode needs the tree shape and an upstream.
        assert_ne!(runv(&["serve", "--shard", "0", "--clients", "4"]).code, 0);
        assert_ne!(runv(&["serve", "--shard", "0", "--shards", "2", "--clients", "4"]).code, 0);
        assert_ne!(runv(&["serve", "--shard", "x", "--connect", "h:1", "--shards", "2"]).code, 0);
        // A relay shard index outside the plan is a CLI error, not a
        // later panic.
        let out =
            runv(&["serve", "--shard", "7", "--connect", "h:1", "--shards", "2", "--clients", "4"]);
        assert_ne!(out.code, 0);
        assert!(out.report.contains("outside the 2-shard plan"), "{}", out.report);
        // Deep trees and adaptive downlink are simulator-only, and a
        // tree spec that out-leafs the cohort would stall empty relays.
        assert_ne!(runv(&["serve", "--tree", "2x2", "--clients", "4"]).code, 0);
        assert_ne!(runv(&["serve", "--downlink", "auto"]).code, 0);
        let out = runv(&["serve", "--tree", "9", "--clients", "2"]);
        assert_ne!(out.code, 0);
        assert!(out.report.contains("shards <= clients"), "{}", out.report);
        // Bit-shaping simulator flags must be rejected, not silently
        // ignored with a checksum that can never match `fedsz fl`.
        for flag in ["--weighted", "--policy", "--drop"] {
            let out = runv(&["serve", flag, "x", "--clients", "2"]);
            assert_ne!(out.code, 0, "serve accepted {flag}");
            assert!(out.report.contains("simulator-only"), "{}", out.report);
            let out = runv(&["worker", "--id", "0", flag, "x", "--clients", "2"]);
            assert_ne!(out.code, 0, "worker accepted {flag}");
        }
        assert_ne!(runv(&["serve", "--participation", "0.5", "--clients", "2"]).code, 0);
        // --adaptive is shorthand for --uplink adaptive on every
        // subcommand; a second uplink policy next to it used to be
        // dropped silently and is now a contradiction.
        for sub in [&["fl"][..], &["serve"], &["worker", "--id", "0"]] {
            let mut args = sub.to_vec();
            args.extend(["--clients", "2", "--adaptive", "--uplink", "topk:0.1"]);
            let out = runv(&args);
            assert_ne!(out.code, 0, "{sub:?} accepted --adaptive with --uplink");
            assert!(out.report.contains("contradictory uplink flags"), "{}", out.report);
        }
        // And a bad bind fails cleanly instead of hanging.
        assert_ne!(runv(&["serve", "--bind", "256.0.0.1:1", "--clients", "1"]).code, 0);
    }

    #[test]
    fn fl_deep_tree_with_lossless_psum() {
        let out = runv(&[
            "fl",
            "--clients",
            "8",
            "--rounds",
            "1",
            "--train-per-class",
            "2",
            "--tree",
            "2x4",
            "--psum",
            "lossless",
        ]);
        assert_eq!(out.code, 0, "{}", out.report);
        assert!(out.report.contains("depth-3 tree (2x4)"), "{}", out.report);
        assert!(out.report.contains("psum lossless"), "{}", out.report);
        assert!(out.report.contains("psum ratio"), "{}", out.report);
    }

    #[test]
    fn fl_sharded_tree_with_downlink_compression() {
        let out = runv(&[
            "fl",
            "--clients",
            "4",
            "--rounds",
            "1",
            "--train-per-class",
            "2",
            "--shards",
            "2",
            "--downlink",
            "fedsz",
        ]);
        assert_eq!(out.code, 0, "{}", out.report);
        assert!(out.report.contains("2-shard tree"), "{}", out.report);
        assert!(out.report.contains("downlink lossy"), "{}", out.report);
        assert!(out.report.contains("downKB"), "{}", out.report);
        assert!(out.report.contains("root ingress"), "{}", out.report);
    }

    #[test]
    fn config_specs_drive_fl_and_flags_override() {
        let path = temp_path("spec.toml");
        std::fs::write(&path, "clients = 2\nrounds = 3\ntrain-per-class = 2\nseed = 5\n").unwrap();
        let out = runv(&["fl", "--config", &path]);
        assert_eq!(out.code, 0, "{}", out.report);
        assert!(out.report.contains("2 clients, 3 rounds"), "{}", out.report);
        // Explicit flags win over the file.
        let out = runv(&["fl", "--rounds", "1", "--config", &path]);
        assert_eq!(out.code, 0, "{}", out.report);
        assert!(out.report.contains("2 clients, 1 rounds"), "{}", out.report);
        // A typo'd key is a hard error naming the line.
        std::fs::write(&path, "clientz = 2\n").unwrap();
        let out = runv(&["fl", "--config", &path]);
        assert_ne!(out.code, 0);
        assert!(out.report.contains("unknown key"), "{}", out.report);
        assert_ne!(runv(&["fl", "--config", "/nonexistent.toml"]).code, 0);
        // Each sugar flag parses into the same field as its long form:
        // same config, same run, same bits.
        std::fs::write(&path, "clients = 2\nrounds = 1\ntrain-per-class = 2\nseed = 5\n").unwrap();
        let checksum = |extra: &[&str]| {
            let out = runv(&[&["fl", "--config", &path], extra].concat());
            assert_eq!(out.code, 0, "{extra:?}: {}", out.report);
            let line = out.report.lines().find(|l| l.starts_with("global checksum"));
            line.unwrap_or_else(|| panic!("{extra:?} printed no checksum")).to_owned()
        };
        for (sugar, long_form) in [
            (&["--shards", "2"][..], &["--tree", "2"][..]),
            (&["--no-compress"], &["--uplink", "raw"]),
            (&["--adaptive"], &["--uplink", "adaptive"]),
        ] {
            assert_eq!(checksum(sugar), checksum(long_form), "{sugar:?} vs {long_form:?}");
        }
        cleanup(&[&path]);
    }

    #[test]
    fn json_report_carries_the_shared_schema_and_checksum() {
        let out =
            runv(&["fl", "--clients", "2", "--rounds", "1", "--train-per-class", "2", "--json"]);
        assert_eq!(out.code, 0, "{}", out.report);
        assert!(out.report.contains("\"schema\": \"fedsz.run_report.v2\""), "{}", out.report);
        assert!(out.report.contains("\"command\": \"fl\""), "{}", out.report);
        assert!(out.report.contains("\"checksum\": \"0x"), "{}", out.report);
        // fl fingerprints every round, not just the final model.
        assert!(!out.report.contains("\"checksum\": null"), "{}", out.report);
        // The v2 observability columns carry values on the fl side.
        assert!(out.report.contains("\"level_merge_nanos\": ["), "{}", out.report);
        assert!(out.report.contains("\"eqn1\": [{\"leg\": "), "{}", out.report);
        // The JSON checksum equals the table output's parity line.
        let table = runv(&["fl", "--clients", "2", "--rounds", "1", "--train-per-class", "2"]);
        let fingerprint = table
            .report
            .lines()
            .find(|l| l.starts_with("global checksum"))
            .and_then(|l| l.split_whitespace().last())
            .expect("table prints the checksum");
        assert!(out.report.contains(fingerprint), "{} missing {fingerprint}", out.report);
    }

    #[test]
    fn invalid_plans_fail_with_actionable_messages() {
        // An out-of-range --shards count fails with the range in the
        // message, on every subcommand sharing the parser.
        let out = runv(&["fl", "--clients", "2", "--shards", "9"]);
        assert_ne!(out.code, 0);
        assert!(out.report.contains("9 shards for 2 clients"), "{}", out.report);
        let out = runv(&["serve", "--clients", "2", "--shards", "9"]);
        assert_ne!(out.code, 0);
        assert!(out.report.contains("invalid configuration"), "{}", out.report);
        let out = runv(&["worker", "--id", "0", "--clients", "2", "--shards", "9"]);
        assert_ne!(out.code, 0);
        assert!(out.report.contains("invalid configuration"), "{}", out.report);
    }

    #[test]
    fn uplink_codec_flags_run_and_reach_the_report() {
        let base = ["fl", "--clients", "2", "--rounds", "1", "--train-per-class", "2", "--json"];
        for (spec, family) in [
            ("topk:0.5", "\"family\": \"topk\""),
            ("topk:0.5+ef", "\"family\": \"topk+ef\""),
            ("q8", "\"family\": \"q8\""),
            ("q4s", "\"family\": \"q4s\""),
        ] {
            let mut args = base.to_vec();
            args.extend(["--uplink", spec]);
            let out = runv(&args);
            assert_eq!(out.code, 0, "--uplink {spec}: {}", out.report);
            assert!(
                out.report.contains(family),
                "--uplink {spec} missing {family}: {}",
                out.report
            );
        }
        // The auto slate needs a bandwidth before Eqn 1 prices
        // families; the probe rounds still run and are recorded.
        let mut args = base.to_vec();
        args.extend(["--uplink", "auto", "--bandwidth", "1"]);
        let out = runv(&args);
        assert_eq!(out.code, 0, "{}", out.report);
        assert!(out.report.contains("\"family\""), "{}", out.report);
    }

    #[test]
    fn invalid_uplink_specs_are_hard_errors() {
        let base = ["fl", "--clients", "2", "--rounds", "1", "--train-per-class", "2"];
        for spec in ["bogus", "topk", "topk:zero", "q5", "q8+fe", "raw+ef", "auto+ef"] {
            let mut args = base.to_vec();
            args.extend(["--uplink", spec]);
            let out = runv(&args);
            assert_ne!(out.code, 0, "--uplink {spec} must fail");
        }
        // Parametrically wrong specs surface the plan's typed message.
        let mut args = base.to_vec();
        args.extend(["--uplink", "topk:0"]);
        let out = runv(&args);
        assert_ne!(out.code, 0);
        assert!(out.report.contains("(0, 1]"), "{}", out.report);
        // Codec-dependent specs need the codec.
        let mut args = base.to_vec();
        args.extend(["--uplink", "lossy", "--no-compress"]);
        let out = runv(&args);
        assert_ne!(out.code, 0);
        assert!(out.report.contains("requires compression"), "{}", out.report);
    }

    #[test]
    fn stateful_uplinks_are_rejected_where_state_cannot_live() {
        // EF + buffered aggregation: typed plan error through `fl`.
        let out = runv(&[
            "fl",
            "--clients",
            "2",
            "--rounds",
            "1",
            "--train-per-class",
            "2",
            "--uplink",
            "topk:0.5+ef",
            "--policy",
            "buffered:1",
        ]);
        assert_ne!(out.code, 0);
        assert!(out.report.contains("error-feedback"), "{}", out.report);
        // EF + a worker process: rejected before any socket work.
        let out = runv(&["worker", "--id", "0", "--clients", "2", "--uplink", "q8+ef"]);
        assert_ne!(out.code, 0);
        assert!(out.report.contains("error-feedback"), "{}", out.report);
    }

    #[test]
    fn codec_flags_are_validated() {
        let fsd = temp_path("flags.fsd");
        let out = runv(&["gen", "alexnet", &fsd, "--scale", "0.005"]);
        assert_eq!(out.code, 0, "{}", out.report);
        assert_ne!(runv(&["compress", &fsd, "/tmp/a.fsz", "--lossy", "lz4"]).code, 0);
        assert_ne!(runv(&["compress", &fsd, "/tmp/a.fsz", "--lossless", "brotli"]).code, 0);
        assert_ne!(runv(&["compress", &fsd, "/tmp/a.fsz", "--eb", "abc"]).code, 0);
        cleanup(&[&fsd]);
    }
}
