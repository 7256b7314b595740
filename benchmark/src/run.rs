//! Runs one workload and turns its ops into metrics.
//!
//! An untraced run measures the end-to-end metrics. A traced run is the
//! per-layer ledger: the chosen workload runs twice side by side, tracing
//! off and tracing on (the difference is the tracing overhead), the other
//! three run a few traced ops each so that every layer's own numbers are
//! in one place, and the layer probes fill in the rest.

use crate::stats::{best_of_median, median, tail, windowed, TRIES, WINDOW_MS};
use crate::trace::Tracer;
use crate::workloads::agg_tree::AggTree;
use crate::workloads::codec_models::CodecModels;
use crate::workloads::fl_sim::FlSim;
use crate::workloads::server_ingest::ServerIngest;
use crate::workloads::{Metric, Op, Summary, Workload};
use crate::{inputs, probes, spec};
use fedsz::FedSz;
use fedsz_fl::FlConfig;
use std::path::Path;
use std::time::{Duration, Instant};

/// An untraced run sets the workload up at least this many times and
/// reports the median, which a one-off stall cannot move ...
const SETUP_REPS_MIN: usize = 3;
/// ... and a set-up of a few milliseconds up to this many times, while
/// they fit in `SETUP_REPS_SECONDS`, so its median is of more than three.
const SETUP_REPS_MAX: usize = 15;
const SETUP_REPS_SECONDS: f64 = 1.0;
/// How long one side of a traced run's pair keeps the turn (at least one
/// op). Long enough that a server instance idles through few of its
/// rounds while the other side runs; short enough to share the weather.
const PAIR_SLICE: Duration = Duration::from_millis(250);

/// How long a region runs.
#[derive(Debug, Clone, Copy)]
enum Budget {
    /// Until this many seconds of ops have run.
    Seconds(f64),
    /// Exactly this many ops.
    Ops(usize),
}

/// The timed region of one workload instance.
struct Region {
    op_ms: Vec<f64>,
    failed: usize,
    summary: Summary,
}

/// One timed op under its own span, named after the workload.
fn timed_op<W: Workload>(workload: &mut W, tracer: &mut Tracer) -> Op {
    tracer.next_op();
    let span = tracer.enter(W::NAME);
    let op = workload.op(tracer);
    tracer.exit(span);
    op
}

/// Warm-up, timed ops, tear-down.
fn region<W: Workload>(mut workload: W, budget: Budget, tracer: &mut Tracer) -> Region {
    for _ in 0..W::WARMUP {
        tracer.next_op();
        workload.op(tracer);
    }
    workload.end_warmup();
    let (mut op_ms, mut failed) = (Vec::new(), 0);
    let started = Instant::now();
    loop {
        match budget {
            Budget::Ops(n) if op_ms.len() >= n => break,
            // At least one op, however short the budget.
            Budget::Seconds(s) if !op_ms.is_empty() && started.elapsed().as_secs_f64() >= s => {
                break
            }
            _ => {}
        }
        let op = timed_op(&mut workload, tracer);
        op_ms.push(op.ms);
        failed += usize::from(op.failed);
    }
    let summary = workload.finish(tracer);
    failed += summary.late_failures;
    Region { op_ms, failed, summary }
}

/// What a run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// The metrics the contract asks for in this mode, in its order.
    pub metrics: Vec<Metric>,
    /// Measured too, printed and saved, but not part of the contract's
    /// last line: the workload's own end-to-end metrics and the tail.
    pub also: Vec<Metric>,
    /// Wall milliseconds of each timed op of the chosen workload, in
    /// order (tracing off), for whoever wants to look past the median.
    pub op_ms: Vec<f64>,
    /// Timed ops of the chosen workload.
    pub attempted: usize,
    /// Ops whose output check failed.
    pub failed: usize,
    /// Untimed ops before the timed ones.
    pub warmup_ops: usize,
    /// Runnable threads the workload used.
    pub threads: usize,
    /// Connections the workload held.
    pub connections: usize,
}

/// `VmHWM` of this process in MB: one process per workload, so the peak
/// is the workload's.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

fn tail_metrics(op_ms: &[f64]) -> Vec<Metric> {
    // Under twenty samples no percentile has ten samples beyond it and
    // still sits above the median: report the maximum, marked pct 0.
    let (value, pct) = match tail(op_ms) {
        Some(t) => (t.value, t.pct),
        None => (op_ms.iter().copied().fold(f64::NAN, f64::max), 0.0),
    };
    vec![
        Metric::new("trace.op_tail_ms", value, "ms"),
        Metric::new("trace.op_tail_pct", pct, "%"),
        Metric::new("trace.op_tail_samples", op_ms.len() as f64, "count"),
    ]
}

fn untraced<W: Workload>(seed: u64, seconds: f64) -> Outcome {
    let mut tracer = Tracer::new(false);
    let mut setup_s = Vec::new();
    let mut instance = None;
    let started = Instant::now();
    while setup_s.len() < SETUP_REPS_MIN
        || (setup_s.len() < SETUP_REPS_MAX && started.elapsed().as_secs_f64() < SETUP_REPS_SECONDS)
    {
        // Tear the previous one down first: two at once would double the
        // peak memory and, for the server, the threads.
        if let Some(previous) = instance.take() {
            W::finish(previous, &mut tracer);
        }
        let t0 = Instant::now();
        instance = Some(W::setup(seed, None));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let run = region(instance.expect("SETUP_REPS_MIN > 0"), Budget::Seconds(seconds), &mut tracer);
    // The tracked op time is the median of best-of-three windowed op
    // times, not the plain median, which a busy neighbour moves by a
    // fifth between runs of the same code (see `stats::best_of_median`).
    // The throughput is taken at that same op time; the plain median is
    // printed beside them.
    let op_ms = best_of_median(&windowed(&run.op_ms, WINDOW_MS), TRIES);
    let mut also = vec![Metric::new("op_p50_ms", median(&run.op_ms), "ms")];
    also.extend(run.summary.extras);
    also.extend(tail_metrics(&run.op_ms));
    Outcome {
        metrics: vec![
            Metric::new("op_best3_ms", op_ms, "ms"),
            Metric::new("model_mbps", run.summary.model_bytes_per_op / op_ms / 1e3, "MB/s"),
            Metric::new("wire_ratio", run.summary.wire_ratio, "x"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
            Metric::new("setup_s", median(&setup_s), "s"),
        ],
        also,
        attempted: run.op_ms.len(),
        op_ms: run.op_ms,
        failed: run.failed,
        warmup_ops: W::WARMUP,
        threads: W::THREADS,
        connections: W::CONNECTIONS,
    }
}

/// What a traced run threads through its four workload parts.
struct Ledger<'a> {
    chosen: &'a str,
    seed: u64,
    seconds: f64,
    dir: &'a Path,
    tracer: Tracer,
    layers: Vec<Metric>,
    outcome: Outcome,
}

impl Ledger<'_> {
    /// The chosen workload twice over, tracing off and tracing on, taking
    /// turns in slices of `PAIR_SLICE` (who goes first alternates): the two
    /// instances see the same inputs and the same machine weather, so the
    /// ratio of their op times is the tracing overhead and not drift.
    /// Returns both regions and the per-turn ratios traced ÷ plain.
    fn pair<W: Workload>(&mut self) -> (Region, Region, Vec<f64>) {
        let mut off = Tracer::new(false);
        let mut plain = W::setup(self.seed, None);
        let mut traced = W::setup(self.seed, Some(self.dir));
        for _ in 0..W::WARMUP {
            plain.op(&mut off);
            self.tracer.next_op();
            traced.op(&mut self.tracer);
        }
        plain.end_warmup();
        traced.end_warmup();
        let mut ops = [Vec::new(), Vec::new()];
        let mut failed = [0, 0];
        let mut ratios = Vec::new();
        let started = Instant::now();
        while ratios.is_empty() || started.elapsed().as_secs_f64() < self.seconds / 2.0 {
            let first = ratios.len() % 2;
            let mut slice_ms = [f64::NAN; 2];
            for side in [first, 1 - first] {
                let from = ops[side].len();
                let slice = Instant::now();
                while ops[side].len() == from || slice.elapsed() < PAIR_SLICE {
                    let op = if side == 0 {
                        plain.op(&mut off)
                    } else {
                        timed_op(&mut traced, &mut self.tracer)
                    };
                    ops[side].push(op.ms);
                    failed[side] += usize::from(op.failed);
                }
                // One turn is one window (see `stats::windowed`).
                let turn = &ops[side][from..];
                slice_ms[side] = turn.iter().sum::<f64>() / turn.len() as f64;
            }
            ratios.push(slice_ms[1] / slice_ms[0]);
        }
        let [plain_ms, traced_ms] = ops;
        let plain = plain.finish(&mut off);
        let traced = traced.finish(&mut self.tracer);
        (
            Region { failed: failed[0] + plain.late_failures, op_ms: plain_ms, summary: plain },
            Region { failed: failed[1] + traced.late_failures, op_ms: traced_ms, summary: traced },
            ratios,
        )
    }

    /// Workload `W`'s part of the ledger: the untraced/traced pair when
    /// it is the chosen workload, a few traced ops otherwise.
    fn part<W: Workload>(&mut self) -> Summary {
        let traced = if W::NAME == self.chosen {
            let (plain, traced, ratios) = self.pair::<W>();
            self.layers.push(Metric::new("trace.overhead_frac", median(&ratios) - 1.0, "fraction"));
            self.layers.extend(tail_metrics(&plain.op_ms));
            self.outcome.attempted = plain.op_ms.len() + traced.op_ms.len();
            self.outcome.op_ms = plain.op_ms;
            self.outcome.failed += plain.failed;
            self.outcome.warmup_ops = W::WARMUP;
            self.outcome.threads = W::THREADS;
            self.outcome.connections = W::CONNECTIONS;
            traced
        } else {
            let ops = Budget::Ops(W::LEDGER_OPS);
            region(W::setup(self.seed, Some(self.dir)), ops, &mut self.tracer)
        };
        // A part that fails its own checks fails the run, chosen or not.
        self.outcome.failed += traced.failed;
        self.layers.extend(traced.summary.layers.iter().cloned());
        self.layers.extend(
            traced
                .summary
                .extras
                .iter()
                .map(|m| Metric::new(format!("{}.{}", W::NAME, m.name), m.value, m.unit)),
        );
        traced.summary
    }
}

fn traced(chosen: &str, seed: u64, seconds: f64, dir: &Path) -> Outcome {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    let mut ledger = Ledger {
        chosen,
        seed,
        seconds,
        dir,
        tracer: Tracer::new(true),
        layers: Vec::new(),
        outcome: Outcome::default(),
    };
    let codec = ledger.part::<CodecModels>();
    ledger.part::<FlSim>();
    ledger.part::<AggTree>();
    ledger.part::<ServerIngest>();

    let Ledger { mut tracer, mut layers, mut outcome, .. } = ledger;
    let span = tracer.enter("probes");
    let fedsz = FedSz::default(); // the pipeline `codec_models` runs
    let models = inputs::paper_models(seed);
    probes::codec_layers(&mut tracer, &fedsz, &models, codec.wire_ratio, &mut layers);
    probes::model_layers(&mut tracer, seed, &fedsz, &models[1].1, &mut layers);
    drop(models);
    probes::nn_layers(&mut tracer, &inputs::fl_config(seed), &mut layers);
    let update = inputs::perturbed(&inputs::tiny_state(seed), seed, 0, 0.01);
    probes::agg_layers(&mut tracer, &update, &mut layers);
    let packed = FedSz::new(FlConfig::tiny_model_compression())
        .compress(&update)
        .expect("finite weights")
        .into_bytes();
    probes::net_layers(&mut tracer, &packed, &update.to_bytes(), &mut layers);
    probes::telemetry_layers(&mut tracer, dir, &mut layers);
    tracer.exit(span);

    let path = dir.join(format!("{chosen}.trace.json"));
    tracer
        .write_json(&path, chosen)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));

    // Exactly the listed metrics, in the listed order; a probe that went
    // missing is a bug in the benchmark, not a result.
    outcome.metrics = spec::PER_LAYER
        .iter()
        .map(|listed| {
            let found = layers
                .iter()
                .find(|m| m.name == listed.name)
                .unwrap_or_else(|| panic!("per-layer metric `{}` was not measured", listed.name));
            assert_eq!(found.unit, listed.unit, "unit of `{}`", listed.name);
            found.clone()
        })
        .collect();
    outcome
}

/// Runs `workload`; `None` for a name that is not one of the four.
/// Traced runs leave their span files in `out_dir`.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> Option<Outcome> {
    if !spec::WORKLOADS.iter().any(|(name, _)| *name == workload) {
        return None;
    }
    Some(if trace {
        traced(workload, seed, seconds, out_dir)
    } else {
        match workload {
            CodecModels::NAME => untraced::<CodecModels>(seed, seconds),
            FlSim::NAME => untraced::<FlSim>(seed, seconds),
            AggTree::NAME => untraced::<AggTree>(seed, seconds),
            _ => untraced::<ServerIngest>(seed, seconds),
        }
    })
}
