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
//! `fl`, `serve` and `worker` parse one flag table ([`flags`]) and
//! build every flag that shapes the *bits* of the run (seeds, data
//! geometry, codec, architecture) in one function, so a loopback
//! `serve` + `worker` deployment prints the same `global checksum` as
//! the in-memory `fl` run — the bit-parity contract the CI smoke job
//! asserts across processes. All three also accept `--config run.toml`
//! ([`spec`]): a declarative run spec whose keys are the same flags,
//! with explicit command-line flags overriding file values. The CLI
//! only parses: every range is checked once, by [`FlConfig::plan`]
//! and, for the socket runtime, `ServeConfig::plan` or
//! `WorkerConfig::plan`, before anything runs — so a bad spec fails
//! with a [`PlanError`] message instead of a
//! clamp or a mid-round panic. `fl` and `serve` additionally emit one
//! shared machine-readable schema with `--json` ([`report`]).
//!
//! The library half exposes [`run`] so the whole surface is unit-tested
//! without spawning processes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flags;
pub mod report;
pub mod spec;
pub mod sweep;

use fedsz::{ErrorBound, FedSz, FedSzConfig, LosslessKind, LossyKind};
use fedsz_data::DatasetKind;
use fedsz_fl::net::{global_checksum, run_worker, NetServer, Role, ServeConfig, WorkerConfig};
use fedsz_fl::{
    AggregationPolicy, DpMechanism, DpPolicy, Experiment, FlConfig, LinkProfile, PlanError,
    StagePolicy, Topology, TreePlan,
};
use fedsz_net::MetricsServer;
use fedsz_nn::models::specs::ModelSpec;
use fedsz_nn::models::tiny::TinyArch;
use fedsz_nn::StateDict;
use fedsz_telemetry::Telemetry;
use flags::{Args, Command};
use report::{RoundRow, RunReport};
use std::fmt::Write as _;
use std::path::Path;

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
           [--policy sync|buffered:K] [--non-iid ALPHA]
           [--weighted] [--no-compress] [--seed N] [--train-per-class N]
           [--shards S] [--tree F1xF2x...] [--psum raw|lossless|auto]
           [--downlink raw|fedsz|auto] [--uplink CODEC] [--threads N]
           [--dp-clip F] [--dp-noise F] [--dp-mechanism gaussian|laplace]
           [--dp-seed N] [--trace FILE]
  fedsz sweep <SPEC.toml|DIR> [--json [FILE]] [--threads N]
  fedsz serve [--config FILE] [--json] [--bind ADDR] [--clients N]
              [--rounds N] [--seed N] [--train-per-class N] [--arch ...]
              [--non-iid ALPHA] [--no-compress]
              [--downlink raw|fedsz] [--uplink CODEC] [--shards S]
              [--tree S] [--psum raw|lossless|auto]
              [--dp-clip F] [--dp-noise F]
              [--dp-mechanism gaussian|laplace] [--dp-seed N]
              [--shard I --connect ADDR] [--accept-timeout SECS]
              [--round-timeout SECS] [--reconnect-grace SECS]
              [--max-sessions N] [--fail-at-round R] [--threads N]
              [--trace FILE] [--metrics-addr ADDR]
  fedsz worker --id K [--config FILE] [--connect ADDR] [--clients N]
               [--rounds N] [--seed N] [--train-per-class N] [--arch ...]
               [--non-iid ALPHA] [--no-compress]
               [--uplink CODEC] [--downlink raw|fedsz] [--shards S]
               [--tree S] [--psum raw|lossless|auto]
               [--dp-clip F] [--dp-noise F]
               [--dp-mechanism gaussian|laplace] [--dp-seed N]
               [--fallback ADDR] [--retries N] [--drop-at-round R]
               [--timeout SECS] [--threads N] [--trace FILE]

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
upload codec family: raw, lossy, adaptive (Eqn 1 prices lossy against
raw per link), topk:RATIO (Top-K delta sparsification, e.g.
topk:0.01), q4/q8 (linear quantization; q4s/q8s stochastic), or auto
(Eqn 1 prices lossy vs topk:0.01 vs q8 per link and picks the
fastest, probing unmeasured families first). Appending
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
(--uplink adaptive|auto) applies Eqn 1 to its own MEASURED send
bandwidth and codec times instead of a simulated link profile, and
reports that bandwidth.

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
    match args.first().map(String::as_str) {
        Some("gen") => outcome(gen(&args[1..])),
        Some("compress") => outcome(compress(&args[1..])),
        Some("decompress") => decompress(&args[1..]),
        Some("inspect") => inspect(&args[1..]),
        Some("fl") => run_command(Command::Fl, &args[1..], fl),
        Some("serve") => run_command(Command::Serve, &args[1..], serve),
        Some("worker") => run_command(Command::Worker, &args[1..], worker),
        // `sweep` owns its spec handling: the spec file is the
        // positional argument and may carry a [matrix] table the flat
        // --config expansion rejects.
        Some("sweep") => sweep::sweep(&args[1..]),
        Some("--help") | Some("-h") => Outcome::ok(USAGE.to_string()),
        _ => Outcome::fail(USAGE.to_string()),
    }
}

fn outcome(result: Result<String, String>) -> Outcome {
    match result {
        Ok(report) => Outcome::ok(report),
        Err(e) => Outcome::fail(e),
    }
}

/// Runs `fl`, `serve` or `worker`: `--config FILE` expands to the
/// file's equivalent flags, appended after the explicit ones so the
/// command line wins, and the result is parsed against the flag table.
fn run_command(
    command: Command,
    args: &[String],
    run: fn(&Args<'_>) -> Result<String, String>,
) -> Outcome {
    outcome(spec::expand_config(args).and_then(|expanded| run(&Args::parse(command, &expanded)?)))
}

/// Splits `args` into the two positional arguments of `gen` or
/// `compress` and the flags after them, parsed against the table.
fn two_paths(command: Command, args: &[String]) -> Result<(&str, &str, Args<'_>), String> {
    match args {
        [first, second, flags @ ..] if !first.starts_with("--") && !second.starts_with("--") => {
            Ok((first, second, Args::parse(command, flags)?))
        }
        _ => Err(USAGE.to_string()),
    }
}

fn gen(args: &[String]) -> Result<String, String> {
    let (model, out, args) = two_paths(Command::Gen, args)?;
    let spec = ModelSpec::by_name(model)
        .ok_or_else(|| format!("unknown model `{model}`; try alexnet, mobilenetv2, resnet50"))?;
    let seed: u64 = args.parsed_or("seed", 42)?;
    let scale: f64 = args.parsed_or("scale", 1.0)?;
    if !(0.0..=1.0).contains(&scale) || scale == 0.0 {
        return Err("--scale must be in (0, 1]".into());
    }
    let dict =
        if scale < 1.0 { spec.instantiate_scaled(seed, scale) } else { spec.instantiate(seed) };
    std::fs::write(out, dict.to_bytes()).map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(format!(
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

fn compress(args: &[String]) -> Result<String, String> {
    let (input, output, args) = two_paths(Command::Compress, args)?;
    let mut config = FedSzConfig::default();
    config.error_bound = match (args.parsed("eb")?, args.parsed("abs")?) {
        (Some(_), Some(_)) => return Err("--eb and --abs both set the bound: give one".into()),
        (Some(rel), None) => ErrorBound::Relative(rel),
        (None, Some(abs)) => ErrorBound::Absolute(abs),
        (None, None) => config.error_bound,
    };
    if let Some(name) = args.value("lossy") {
        config.lossy = parse_lossy(name).ok_or_else(|| format!("unknown lossy codec `{name}`"))?;
    }
    if let Some(name) = args.value("lossless") {
        config.lossless =
            parse_lossless(name).ok_or_else(|| format!("unknown lossless codec `{name}`"))?;
    }
    config.threshold = args.parsed_or("threshold", config.threshold)?;
    let bytes = std::fs::read(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let dict =
        StateDict::from_bytes(&bytes).map_err(|e| format!("{input} is not a state dict: {e}"))?;
    let packed =
        FedSz::new(config).compress(&dict).map_err(|e| format!("compression failed: {e}"))?;
    let stats = *packed.stats();
    std::fs::write(output, packed.bytes()).map_err(|e| format!("cannot write {output}: {e}"))?;
    Ok(format!(
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

/// Parses an `--uplink` codec spec into its [`StagePolicy`]: `raw`,
/// `lossy`, `adaptive` (a [`StagePolicy::Priced`] over lossy alone),
/// `topk:RATIO[+ef]`, `q4[s][+ef]`, `q8[s][+ef]` or `auto` (priced
/// over lossy, `topk:0.01` and `q8`). `+ef` turns on per-client
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
                return Ok(StagePolicy::Priced {
                    candidates: vec![StagePolicy::Lossy(need_codec(base)?)],
                })
            }
            "auto" => {
                // EF candidates are illegal under a priced policy (a
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
                return Ok(StagePolicy::Priced { candidates });
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

/// Parses repeatable `ID:VALUE` flags into `(client, value)` pairs.
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

/// Builds the [`FlConfig`] from the flags `fl`, `serve` and `worker`
/// share: everything that shapes the *bits* of the run (cohort and data
/// geometry, seeds, architecture, codec, topology, downlink/psum modes,
/// DP), plus the merge pool width. Multi-process deployments must pass
/// identical values of these to every process; building them in one
/// place is what lets the `serve`/`worker` checksum be compared against
/// the in-memory `fl` run's. Nothing here is range-checked: the plan
/// does that once, for every runtime.
fn shared_fl_config(args: &Args) -> Result<FlConfig, String> {
    let seed: u64 = args.parsed_or("seed", 42)?;
    let train_per_class: usize = args.parsed_or("train-per-class", 8)?;
    let arch = match args.value("arch") {
        None => TinyArch::AlexNet,
        Some(name) => parse_arch(name).ok_or_else(|| format!("unknown arch `{name}`"))?,
    };

    let mut config = FlConfig::paper_default(arch, DatasetKind::Cifar10Like);
    config.clients = args.parsed_or("clients", 4)?;
    config.rounds = args.parsed_or("rounds", 5)?;
    config.seed = seed;
    config.data.seed = seed;
    config.data.train_per_class = train_per_class;
    config.data.test_per_class = (train_per_class / 2).max(2);
    config.data.resolution = 16;
    config.non_iid_alpha = args.parsed("non-iid")?;
    // Execution width, not semantics: any width produces identical
    // bits, so multi-process peers need not agree on it.
    config.worker_threads = args.parsed("threads")?;
    // The FedSZ codec every compressing flag below wraps; `None` under
    // --no-compress, which also makes raw the default upload policy.
    let codec = if args.switch("no-compress") {
        config.uplink = StagePolicy::Raw;
        None
    } else {
        Some(FlConfig::tiny_model_compression())
    };
    // --shards S is the two-level spelling of --tree S.
    config.tree = match (args.value("shards"), args.value("tree")) {
        (Some(_), Some(_)) => {
            return Err("contradictory topology flags: --shards and --tree both set; \
                        pick one (--tree S is the two-level equivalent of --shards S)"
                .into())
        }
        (Some(_), None) => args.parsed("shards")?.map(|shards| vec![shards]),
        (None, Some(spec)) => {
            Some(TreePlan::parse_fanouts(spec).map_err(|e| format!("--tree: {e}"))?)
        }
        (None, None) => None,
    };
    if let Some(mode) = args.value("psum") {
        config.psum = match mode.to_ascii_lowercase().as_str() {
            "raw" => StagePolicy::Raw,
            "lossless" => StagePolicy::Lossless,
            "auto" | "adaptive" => StagePolicy::Priced { candidates: vec![StagePolicy::Lossless] },
            other => return Err(format!("unknown psum mode `{other}`; try raw, lossless, auto")),
        };
    }
    if let Some(mode) = args.value("downlink") {
        let need_codec = || {
            codec.map(StagePolicy::Lossy).ok_or_else(|| {
                "--downlink fedsz/auto requires compression (drop --no-compress)".to_string()
            })
        };
        config.downlink = match mode.to_ascii_lowercase().as_str() {
            "raw" => StagePolicy::Raw,
            "fedsz" => need_codec()?,
            "auto" | "adaptive" => StagePolicy::Priced { candidates: vec![need_codec()?] },
            other => return Err(format!("unknown downlink mode `{other}`; try raw, fedsz, auto")),
        };
    }
    if let Some(spec) = args.value("uplink") {
        config.uplink = parse_uplink(spec, codec)?;
    }
    // The DP stage: --dp-clip is the switch (a clip bound is the one
    // part a DP deployment cannot omit); the other dp flags refine it
    // and are rejected alone so a spec that forgot the clip fails
    // loudly instead of silently running without privacy.
    match args.parsed("dp-clip")? {
        None => {
            if ["dp-noise", "dp-mechanism", "dp-seed"].iter().any(|f| args.value(f).is_some()) {
                return Err("--dp-noise/--dp-mechanism/--dp-seed need --dp-clip \
                            (the clip bound is what turns the DP stage on)"
                    .into());
            }
        }
        Some(clip_norm) => {
            let mechanism = match args.value("dp-mechanism") {
                None => DpMechanism::Gaussian,
                Some(name) => DpMechanism::parse(name).ok_or_else(|| {
                    format!("unknown DP mechanism `{name}`; try gaussian or laplace")
                })?,
            };
            config.dp = Some(DpPolicy {
                clip_norm,
                // 0 is clip-only.
                noise_multiplier: args.parsed_or("dp-noise", 0.0)?,
                mechanism,
                // The run seed, so one spec keeps every process's noise
                // stream aligned by default.
                seed: args.parsed_or("dp-seed", seed)?,
            });
        }
    }
    Ok(config)
}

/// Assembles the full simulator configuration — the shared bit-shaping
/// flags plus the simulator-only knobs (participation, links,
/// stragglers, drops, aggregation policy) — and validates it through
/// the plan. `fl` and every `sweep` cell go through this one function,
/// which is what makes a sweep cell exactly an `fl` run.
fn simulator_config(args: &Args) -> Result<FlConfig, String> {
    let mut config = shared_fl_config(args)?;
    config.participation = args.parsed_or("participation", 1.0)?;
    config.weighted_aggregation = args.switch("weighted");
    if let Some(policy) = args.value("policy") {
        config.aggregation = match policy.to_ascii_lowercase().as_str() {
            "sync" | "synchronous" => AggregationPolicy::Synchronous,
            other => match other.strip_prefix("buffered:").map(str::parse::<usize>) {
                Some(Ok(target)) => AggregationPolicy::Buffered { target },
                _ => return Err(format!("unknown policy `{policy}`; try sync or buffered:K")),
            },
        };
    }

    // The client link model. Profiles are built field by field so an
    // out-of-range value reaches the plan's check instead of a builder
    // assert.
    let bandwidth_mbps: f64 = args.parsed_or("bandwidth", 10.0)?;
    let latency_secs = args.parsed_or("latency", 0.0)? / 1e3;
    let link = |mbps: f64| LinkProfile {
        bandwidth_bps: mbps * 1e6,
        latency_secs,
        ..LinkProfile::default()
    };
    let stragglers = parse_client_pairs(args.values("straggler"), "--straggler")?;
    let drops = parse_client_pairs(args.values("drop"), "--drop")?;
    // --latency alone keeps the paper's shared pipe (with per-message
    // latency); only per-client knobs switch to dedicated links.
    config.links =
        Some(if args.value("links").is_none() && stragglers.is_empty() && drops.is_empty() {
            Topology::Shared(link(bandwidth_mbps))
        } else {
            let mbps: Vec<f64> = match args.value("links") {
                None => vec![bandwidth_mbps],
                Some(list) => list
                    .split(',')
                    .map(|v| v.trim().parse::<f64>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| format!("--links expects MBPS,MBPS,..., got `{list}`"))?,
            };
            // Cycle the list so `--links 100,1` alternates fast/slow.
            let mut links: Vec<LinkProfile> =
                (0..config.clients).map(|i| link(mbps[i % mbps.len()])).collect();
            for (id, factor) in stragglers {
                let profile = links.get_mut(id).ok_or(format!("--straggler: no client {id}"))?;
                profile.compute_slowdown = factor;
            }
            for (id, prob) in drops {
                links.get_mut(id).ok_or(format!("--drop: no client {id}"))?.drop_prob = prob;
            }
            Topology::Dedicated(links)
        });

    // One validation pass over the assembled configuration: every
    // range (cohort, links, participation, stage policies, DP) is the
    // plan's to check.
    let invalid = |e: PlanError| format!("invalid configuration: {e}");
    let plan = config.plan().map_err(invalid)?;
    // `--shards S` promises S edges that each aggregate someone; an
    // explicit `--tree` may out-leaf the cohort.
    if args.value("shards").is_some() {
        plan.check_shards().map_err(invalid)?;
    }
    Ok(config)
}

fn fl(args: &Args) -> Result<String, String> {
    let config = simulator_config(args)?;
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
    let telemetry = telemetry_from_args(args, false)?;
    let mut experiment = Experiment::new(config).with_telemetry(telemetry.clone());
    let metrics = experiment.run();
    let checksum = global_checksum(experiment.global_state());
    telemetry.flush();
    if args.switch("json") {
        // RoundRow::simulator owns the fills-vs-nulls column contract.
        let rounds = metrics.iter().map(RoundRow::simulator).collect();
        let report = RunReport { command: "fl", clients, rounds, checksum: Some(checksum) };
        return Ok(report.to_json());
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
    Ok(report)
}

/// Builds the invocation's telemetry handle: `--trace FILE` opens the
/// Chrome-trace JSONL writer, `require_registry` (serve's
/// `--metrics-addr` without a trace file) turns on the in-memory
/// counter registry alone, and otherwise the handle stays disabled —
/// a no-op off the hot path.
fn telemetry_from_args(args: &Args, require_registry: bool) -> Result<Telemetry, String> {
    match args.value("trace") {
        Some(path) => Telemetry::with_trace(Path::new(path))
            .map_err(|e| format!("cannot open trace file {path}: {e}")),
        None if require_registry => Ok(Telemetry::enabled()),
        None => Ok(Telemetry::disabled()),
    }
}

fn serve(args: &Args) -> Result<String, String> {
    let fl = shared_fl_config(args)?;
    let role = match (args.parsed("shard")?, args.value("connect")) {
        (None, None) => Role::Root,
        (Some(shard), Some(upstream)) => Role::Relay { shard, upstream: upstream.to_string() },
        (Some(_), None) => return Err("--shard requires --connect UPSTREAM".into()),
        (None, Some(_)) => {
            return Err("--connect names a relay's upstream: it requires --shard I".into())
        }
    };
    let mut serve_config = ServeConfig {
        fl,
        role,
        accept_timeout: args.secs_or("accept-timeout", 30.0)?,
        round_timeout: args.secs_or("round-timeout", 120.0)?,
        max_sessions: args.parsed_or("max-sessions", 1024)?,
        reconnect_grace: args.secs_or("reconnect-grace", 3.0)?,
        fail_at_round: args.parsed("fail-at-round")?,
        telemetry: Telemetry::disabled(),
    };
    // Validate once, before any file or socket is opened: every rule
    // of a serve configuration lives in ServeConfig::plan.
    let plan = serve_config.plan().map_err(|e| e.to_string())?;
    let expected = ServeConfig::expected_children_of(&plan, &serve_config.role).len();
    let metrics_addr = args.value("metrics-addr");
    let telemetry = telemetry_from_args(args, metrics_addr.is_some())?;
    serve_config.telemetry = telemetry.clone();
    let bind = args.value("bind").unwrap_or("127.0.0.1:7070");
    let server = NetServer::bind(bind).map_err(|e| format!("cannot bind {bind}: {e}"))?;
    // The scrape endpoint outlives the round loop (the accept thread
    // is detached), so late scrapes after the last round still see
    // final counter values.
    let metrics_server = metrics_addr
        .map(|addr| {
            MetricsServer::bind(addr, telemetry.clone())
                .map_err(|e| format!("cannot bind metrics endpoint {addr}: {e}"))
        })
        .transpose()?;
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
    let clients = plan.config.clients;
    let report = server.run(serve_config).map_err(|e| format!("serve failed: {e}"))?;
    telemetry.flush();
    if args.switch("json") {
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
        return Ok(run_report.to_json());
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
    Ok(out)
}

fn worker(args: &Args) -> Result<String, String> {
    let fl = shared_fl_config(args)?;
    let id = args.parsed("id")?.ok_or("worker requires --id K (the client id to embody)")?;
    let connect = args.value("connect").unwrap_or("127.0.0.1:7070").to_string();
    let mut config = WorkerConfig::new(fl, id, connect);
    config.fallback = args.value("fallback").map(str::to_string);
    config.retries = args.parsed_or("retries", 8)?;
    config.drop_session_at_round = args.parsed("drop-at-round")?;
    config.timeout = args.secs_or("timeout", 120.0)?;
    // Validate once, before any file or socket is opened: every rule of
    // a worker configuration lives in WorkerConfig::plan.
    let plan = config.plan().map_err(|e| e.to_string())?;
    let telemetry = telemetry_from_args(args, false)?;
    config.telemetry = telemetry.clone();
    let report = run_worker(config).map_err(|e| format!("worker {id} failed: {e}"))?;
    telemetry.flush();
    // The bandwidth Eqn 1 was priced with, whenever it priced.
    let measured = if plan.config.uplink.is_priced() {
        format!(", measured uplink {:.0} Mbps", report.measured_bps / 1e6)
    } else {
        String::new()
    };
    Ok(format!(
        "worker {id}: {} rounds, up {:.1} KB, down {:.1} KB, compressed {}/{} rounds, \
         {} reconnects{measured}\n",
        report.rounds,
        report.uploaded_bytes as f64 / 1e3,
        report.downloaded_bytes as f64 / 1e3,
        report.compressed_rounds,
        report.rounds,
        report.reconnects,
    ))
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
        // And a bad bind fails cleanly instead of hanging.
        assert_ne!(runv(&["serve", "--bind", "256.0.0.1:1", "--clients", "1"]).code, 0);
    }

    #[test]
    fn the_cli_parses_and_the_plan_range_checks() {
        // What the flag table cannot place is a parse error, on every
        // run subcommand and through a run spec alike.
        for (args, needle) in [
            (&["fl", "--clinets", "8"][..], "unknown flag --clinets"),
            (&["worker", "--id", "0", "--id", "1"], "--id given twice"),
            (&["serve", "--id", "0"], "--id is a `fedsz worker` flag"),
            (&["fl", "8"], "unexpected argument `8`"),
            (&["serve", "--connect", "h:1"], "requires --shard"),
            (&["serve", "--round-timeout", "-1"], "--round-timeout expects seconds"),
        ] {
            let out = runv(args);
            assert_ne!(out.code, 0, "{args:?} was accepted");
            assert!(out.report.contains(needle), "{args:?}: {}", out.report);
        }
        // Every range is the plan's: one message per rule, whichever
        // runtime meets it first.
        for (args, needle) in [
            (&["fl", "--bandwidth", "0"][..], "link profile for client 0"),
            (&["fl", "--threads", "0"], "worker_threads must be at least 1"),
            (&["fl", "--tree", "2x0"], "fan-out at level 1"),
            (&["serve", "--max-sessions", "0"], "max_sessions must be at least 1"),
            (&["serve", "--accept-timeout", "0"], "accept_timeout must be positive"),
            (&["serve", "--fail-at-round", "1"], "relay fault-injection knob"),
            (&["worker", "--id", "0", "--timeout", "0"], "timeout must be positive"),
            (&["worker", "--id", "0", "--tree", "2x2"], "multi-tier tree is simulator-only"),
        ] {
            let out = runv(args);
            assert_ne!(out.code, 0, "{args:?} was accepted");
            assert!(out.report.contains("invalid configuration"), "{args:?}: {}", out.report);
            assert!(out.report.contains(needle), "{args:?}: {}", out.report);
        }
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

    /// `gen` and `compress` parse the flag table: a misspelt, repeated
    /// or contradictory flag exits 2 instead of running with a default.
    #[test]
    fn file_subcommands_refuse_what_they_used_to_ignore() {
        let (fsd, fsz) = (temp_path("strict.fsd"), temp_path("strict.fsz"));
        for (argv, needle) in [
            (&["gen", "mobilenetv2", &fsd, "--sede", "3"][..], "unknown flag --sede"),
            (&["gen", "alexnet", &fsd, "--seed", "1", "--seed", "2"], "--seed given twice"),
            (&["gen", "alexnet", &fsd, "--eb", "1e-3"], "--eb is a `fedsz compress` flag"),
            (&["gen", "alexnet", &fsd, "--seed", "x"], "--seed expects an integer seed"),
            (&["compress", &fsd, &fsz, "--ebb", "1e-4"], "unknown flag --ebb"),
            (&["compress", &fsd, &fsz, "--eb", "1e-4", "--abs", "1e-1"], "give one"),
            (&["compress", &fsd, &fsz, "--abs", "1e-4", "--abs", "1e-1"], "--abs given twice"),
            (&["compress", &fsd, &fsz, "--seed", "1"], "not a `fedsz compress` one"),
            (&["compress", &fsd, &fsz, "stray"], "unexpected argument `stray`"),
            (&["compress", &fsd], "USAGE"),
        ] {
            let out = runv(argv);
            assert_eq!(out.code, 2, "{argv:?}: {}", out.report);
            assert!(
                out.report.contains(needle),
                "{argv:?} gave `{}`, wanted `{needle}`",
                out.report
            );
        }
        assert!(!Path::new(&fsd).exists() && !Path::new(&fsz).exists());

        // The seed given is the seed used.
        let other = temp_path("strict_other.fsd");
        let gen = |path: &str, seed: &str| {
            let out = runv(&["gen", "alexnet", path, "--scale", "0.005", "--seed", seed]);
            assert_eq!(out.code, 0, "{}", out.report);
            std::fs::read(path).unwrap()
        };
        assert_ne!(gen(&fsd, "3"), gen(&other, "42"));
        assert_eq!(gen(&fsd, "42"), gen(&other, "42"));
        cleanup(&[&fsd, &other]);
    }
}
