//! Accuracy / uplink-bytes / round-time Pareto sweep across the
//! uplink codec families.
//!
//! One training run per family on the same seed, data shards and
//! schedule — the only thing that varies is the uplink
//! [`StagePolicy`], so every difference in the table is attributable
//! to the codec:
//!
//! * `raw` — uncompressed f32 uploads (the accuracy/byte ceiling),
//! * `sz3` — the paper's error-bounded FedSZ pipeline (SZ3, REL 1e-2),
//! * `topk` / `topk+ef` — Top-K sparsified deltas, without and with
//!   the error-feedback residual (the pair shows what EF buys),
//! * `q8` — 8-bit linear quantization,
//! * `q4s+ef` — 4-bit stochastic quantization with error feedback,
//! * `auto` — the Eqn-1 advisor picking per client per round among
//!   {sz3, topk, q8}; its per-family decision counts ride along so
//!   the JSON shows *what* the advisor chose, not just what it cost.
//!
//! Two gates hold the headline claim: `topk+ef` stays within one
//! accuracy point of `raw` while shipping at most 10% of raw's uplink
//! bytes. That is the FedSparQ-style claim this repo's family codecs
//! exist to reproduce, so it is an invariant here, not a plot caption.
//! Each row also records `diverged`: its final accuracy fell more than
//! five points below its best.
//!
//! Flags (see [`USAGE`]): `--rounds N` (default 20 — error feedback
//! needs a horizon to drain its residual), `--clients N` (default 4),
//! `--train-per-class N` (default 20, so the test split is 100 samples
//! and a one-point accuracy gap is resolvable), `--seed N`,
//! `--bandwidth BPS` (shared uplink pipe, default 10 Mbps — makes
//! `round_secs` reward small payloads), `--topk RATIO` (default 0.07 ≈
//! 9% of raw bytes after sparse-index overhead) and `--out PATH`
//! (default `BENCH_pareto.json`; `-` disables the file).
//!
//! The six fixed families form the `families` grid, and `on_frontier`
//! marks a row no other fixed family beats on both uplink bytes and
//! best accuracy. `auto`'s choices follow measured codec times, so its
//! row is the `priced` grid, timings throughout, placed against the
//! same six.

use fedsz::timing::Eqn1Leg;
use fedsz::{ErrorBound, FedSzConfig, LossyKind};
use fedsz_bench::{row, Args, Report};
use fedsz_data::DatasetKind;
use fedsz_fl::plan::{StageLeg, StagePolicy};
use fedsz_fl::{Experiment, FlConfig, LinkProfile, RoundMetrics, Topology};
use fedsz_nn::models::tiny::TinyArch;
use std::collections::BTreeMap;

const USAGE: &str = "pareto [--rounds N] [--clients N] [--train-per-class N] [--seed N] \
                     [--bandwidth BPS] [--topk RATIO] [--out PATH]";
const TIMING: &str = "round_secs_mean;compress_secs_mean;priced";
const COLUMNS: &str = "family;spec;final_accuracy;best_accuracy;diverged;uplink_bytes_per_round;\
                       bytes_vs_raw;round_secs_mean;compress_secs_mean;eqn1_uplink_decisions;\
                       on_frontier";

/// One family's sweep outcome.
struct Row {
    name: &'static str,
    spec: String,
    final_accuracy: f64,
    best_accuracy: f64,
    uplink_bytes_per_round: f64,
    round_secs_mean: f64,
    compress_secs_mean: f64,
    decision_families: BTreeMap<&'static str, usize>,
}

impl Row {
    /// Whether some row of `rows` beats this one on one axis without
    /// losing on the other.
    fn dominated_in(&self, rows: &[Row]) -> bool {
        rows.iter().any(|other| {
            other.uplink_bytes_per_round <= self.uplink_bytes_per_round
                && other.best_accuracy >= self.best_accuracy
                && (other.uplink_bytes_per_round < self.uplink_bytes_per_round
                    || other.best_accuracy > self.best_accuracy)
        })
    }

    fn cells(&self, raw_bytes: f64, fixed: &[Row]) -> Vec<String> {
        row![
            self.name,
            self.spec,
            self.final_accuracy,
            self.best_accuracy,
            self.final_accuracy < self.best_accuracy - 0.05,
            self.uplink_bytes_per_round,
            self.uplink_bytes_per_round / raw_bytes.max(1.0),
            self.round_secs_mean,
            self.compress_secs_mean,
            self.decision_families,
            !self.dominated_in(fixed),
        ]
    }
}

fn run_family(name: &'static str, spec: &str, uplink: StagePolicy, args: &SweepArgs) -> Row {
    let mut config = FlConfig::paper_default(TinyArch::AlexNet, DatasetKind::Cifar10Like);
    config.rounds = args.rounds;
    config.clients = args.clients;
    config.seed = args.seed;
    config.data.seed = args.seed;
    config.data.train_per_class = args.train_per_class;
    config.data.test_per_class = (args.train_per_class / 2).max(2);
    config.links = Some(Topology::Shared(LinkProfile::symmetric(args.bandwidth)));
    config.uplink = uplink;

    let metrics: Vec<RoundMetrics> = Experiment::new(config).run();
    let rounds = metrics.len().max(1) as f64;
    let mut decision_families: BTreeMap<&'static str, usize> = BTreeMap::new();
    for m in &metrics {
        for d in &m.eqn1 {
            if d.leg == Eqn1Leg::Uplink {
                *decision_families.entry(d.family).or_insert(0) += 1;
            }
        }
    }
    Row {
        name,
        spec: spec.to_string(),
        final_accuracy: metrics.last().map_or(0.0, |m| m.test_accuracy),
        best_accuracy: metrics.iter().map(|m| m.test_accuracy).fold(0.0f64, f64::max),
        uplink_bytes_per_round: metrics.iter().map(|m| m.upstream_bytes as f64).sum::<f64>()
            / rounds,
        round_secs_mean: metrics.iter().map(|m| m.round_secs).sum::<f64>() / rounds,
        compress_secs_mean: metrics.iter().map(|m| m.compress_secs).sum::<f64>() / rounds,
        decision_families,
    }
}

struct SweepArgs {
    rounds: usize,
    clients: usize,
    train_per_class: usize,
    seed: u64,
    bandwidth: f64,
}

fn main() {
    let args = Args::parse(USAGE);
    let sweep = SweepArgs {
        rounds: args.get("--rounds", 20),
        clients: args.get("--clients", 4),
        train_per_class: args.get("--train-per-class", 20),
        seed: args.get("--seed", 42),
        bandwidth: args.get("--bandwidth", 10e6),
    };
    let topk_ratio: f64 = args.get("--topk", 0.07);

    let sz3 = FedSzConfig {
        lossy: LossyKind::Sz3,
        threshold: 128,
        error_bound: ErrorBound::Relative(1e-2),
        ..FedSzConfig::default()
    };
    // Every row is a spelling of the stage-policy grammar; `auto`
    // prices the swept Top-K ratio rather than the grammar's default
    // slate.
    let parse = |spec: &str| {
        StagePolicy::parse(spec, StageLeg::Uplink, sz3)
            .unwrap_or_else(|e| args.reject(&format!("`{spec}`: {e}")))
    };
    let topk = format!("topk:{topk_ratio}");
    let slate = ["lossy", &topk, "q8"];
    let mut sweeps: Vec<(String, StagePolicy)> =
        ["raw", "lossy", &topk, &format!("{topk}+ef"), "q8", "q4s+ef"]
            .map(|spec| (spec.to_string(), parse(spec)))
            .into();
    sweeps.push((
        format!("auto {{{}}}", slate.join(", ")),
        StagePolicy::Priced { candidates: slate.map(parse).into() },
    ));

    let mut rows: Vec<Row> = Vec::new();
    for (spec, uplink) in sweeps {
        // The lossy row is the paper's SZ3 pipeline.
        let name = if matches!(uplink, StagePolicy::Lossy(_)) { "sz3" } else { uplink.name() };
        let row = run_family(name, &spec, uplink, &sweep);
        eprintln!(
            "{name:>8}: best acc {:.3}, final acc {:.3}, {:.0} B/round uplink, \
             round {:.3}s",
            row.best_accuracy, row.final_accuracy, row.uplink_bytes_per_round, row.round_secs_mean
        );
        rows.push(row);
    }
    let auto = rows.pop().expect("auto is swept");

    let mut r = Report::new("fedsz.pareto.v2", TIMING);
    r.setting("rounds", sweep.rounds);
    r.setting("clients", sweep.clients);
    r.setting("train_per_class", sweep.train_per_class);
    r.setting("seed", sweep.seed);
    r.setting("bandwidth_bps", sweep.bandwidth);
    r.setting("topk", topk_ratio);
    let raw = &rows[0];
    let cells: Vec<_> =
        rows.iter().map(|row| row.cells(raw.uplink_bytes_per_round, &rows)).collect();
    r.grid("families", "family", COLUMNS, &cells);
    r.grid("priced", "family", COLUMNS, &[auto.cells(raw.uplink_bytes_per_round, &rows)]);

    let topk_ef = rows.iter().find(|r| r.name == "topk+ef").expect("topk+ef is swept");
    let acc_gap = raw.best_accuracy - topk_ef.best_accuracy;
    let detail = format!("topk+ef best accuracy {acc_gap:.4} below raw (limit 0.01)");
    r.gate("topk_ef_holds_raw_accuracy", acc_gap <= 0.01, &detail);
    let bytes_fraction = topk_ef.uplink_bytes_per_round / raw.uplink_bytes_per_round.max(1.0);
    let detail =
        format!("topk+ef ships {:.1}% of raw's uplink bytes (limit 10%)", bytes_fraction * 100.0);
    r.gate("topk_ef_ships_a_tenth_of_raw", bytes_fraction <= 0.10, &detail);
    std::process::exit(r.finish(&args.get("--out", "BENCH_pareto.json".to_string())));
}
