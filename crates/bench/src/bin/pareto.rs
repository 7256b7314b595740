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
//! The headline gate (asserted unless `--no-gate`): `topk+ef` stays
//! within one accuracy point of `raw` while shipping at most 10% of
//! raw's uplink bytes. That is the FedSparQ-style claim this repo's
//! family codecs exist to reproduce, so it is an invariant here, not
//! a plot caption.
//!
//! Flags: `--rounds N` (default 20 — error feedback needs a horizon
//! to drain its residual), `--clients N` (default 4),
//! `--train-per-class N` (default 20, so the test split is 100
//! samples and a one-point accuracy gap is resolvable), `--seed N`,
//! `--bandwidth BPS` (shared uplink pipe, default 10 Mbps — makes
//! `round_secs` reward small payloads), `--topk RATIO` (default
//! 0.07 ≈ 9% of raw bytes after sparse-index overhead), `--no-gate`
//! (skip
//! the accuracy/bytes gate; the CI micro-sweep runs 2 rounds, too few
//! for the gate to be meaningful), `--out PATH` (stable-schema JSON
//! the repo tracks across PRs, default `BENCH_pareto.json`; `-`
//! disables the file), and `--dp-clip F` / `--dp-noise F` (default
//! off): clip+noise every client delta before the codec, re-running
//! the whole family sweep under the paper's §VII-D
//! compression-of-noised-updates regime — pair with `--no-gate`,
//! since the topk+ef gate calibrates against noise-free training.
//!
//! Output rows carry `on_frontier`: true when no other family got
//! both more accuracy and fewer uplink bytes — the Pareto frontier
//! over the (bytes, accuracy) plane.

use fedsz::timing::Eqn1Leg;
use fedsz::{ErrorBound, FedSzConfig, LossyKind};
use fedsz_bench::Args;
use fedsz_data::DatasetKind;
use fedsz_fl::plan::{StageLeg, StagePolicy};
use fedsz_fl::{DpMechanism, DpPolicy, Experiment, FlConfig, LinkProfile, RoundMetrics, Topology};
use fedsz_nn::models::tiny::TinyArch;
use std::collections::BTreeMap;

/// One family's sweep outcome, ready for JSON.
struct Row {
    name: &'static str,
    spec: String,
    final_accuracy: f64,
    best_accuracy: f64,
    uplink_bytes_per_round: f64,
    round_secs_mean: f64,
    compress_secs_mean: f64,
    decision_families: BTreeMap<&'static str, usize>,
    on_frontier: bool,
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
    if args.dp_clip > 0.0 {
        config.dp = Some(DpPolicy {
            clip_norm: args.dp_clip,
            noise_multiplier: args.dp_noise,
            mechanism: DpMechanism::Gaussian,
            seed: args.seed,
        });
    }

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
        on_frontier: false,
    }
}

struct SweepArgs {
    rounds: usize,
    clients: usize,
    train_per_class: usize,
    seed: u64,
    bandwidth: f64,
    dp_clip: f64,
    dp_noise: f64,
}

fn main() {
    let args = Args::parse();
    let sweep = SweepArgs {
        rounds: args.get("--rounds", 20),
        clients: args.get("--clients", 4),
        train_per_class: args.get("--train-per-class", 20),
        seed: args.get("--seed", 42),
        bandwidth: args.get("--bandwidth", 10e6),
        dp_clip: args.get("--dp-clip", 0.0),
        dp_noise: args.get("--dp-noise", 0.0),
    };
    let topk_ratio: f64 = args.get("--topk", 0.07);
    let gate = !args.has("--no-gate");

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
        StagePolicy::parse(spec, StageLeg::Uplink, Some(sz3)).expect("a grammar spelling")
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

    // Pareto frontier over (uplink bytes, best accuracy): a row stays
    // on the frontier unless some other row beats it on one axis
    // without losing the other.
    for i in 0..rows.len() {
        let dominated = rows.iter().enumerate().any(|(j, other)| {
            j != i
                && other.uplink_bytes_per_round <= rows[i].uplink_bytes_per_round
                && other.best_accuracy >= rows[i].best_accuracy
                && (other.uplink_bytes_per_round < rows[i].uplink_bytes_per_round
                    || other.best_accuracy > rows[i].best_accuracy)
        });
        rows[i].on_frontier = !dominated;
    }

    let raw_bytes = rows[0].uplink_bytes_per_round;
    let raw_acc = rows[0].best_accuracy;
    let topk_ef = rows.iter().find(|r| r.name == "topk+ef").expect("topk+ef is swept");
    let acc_gap = raw_acc - topk_ef.best_accuracy;
    let bytes_fraction = topk_ef.uplink_bytes_per_round / raw_bytes.max(1.0);
    eprintln!(
        "gate: topk+ef accuracy gap {acc_gap:.4} (limit 0.01), uplink bytes \
         {:.1}% of raw (limit 10%)",
        bytes_fraction * 100.0
    );
    if gate {
        assert!(
            acc_gap <= 0.01,
            "topk+ef best accuracy {:.4} fell more than one point below raw {raw_acc:.4}",
            topk_ef.best_accuracy
        );
        assert!(
            bytes_fraction <= 0.10,
            "topk+ef shipped {:.1}% of raw uplink bytes — above the 10% ceiling",
            bytes_fraction * 100.0
        );
    }

    let body = rows
        .iter()
        .map(|r| {
            let decisions = r
                .decision_families
                .iter()
                .map(|(family, count)| format!("\"{family}\": {count}"))
                .collect::<Vec<_>>()
                .join(", ");
            format!(
                concat!(
                    "  {{\"family\": \"{}\", \"spec\": \"{}\", ",
                    "\"final_accuracy\": {:.4}, \"best_accuracy\": {:.4}, ",
                    "\"uplink_bytes_per_round\": {:.0}, \"bytes_vs_raw\": {:.4}, ",
                    "\"round_secs_mean\": {:.4}, \"compress_secs_mean\": {:.6}, ",
                    "\"eqn1_uplink_decisions\": {{{}}}, \"on_frontier\": {}}}"
                ),
                r.name,
                r.spec,
                r.final_accuracy,
                r.best_accuracy,
                r.uplink_bytes_per_round,
                r.uplink_bytes_per_round / raw_bytes.max(1.0),
                r.round_secs_mean,
                r.compress_secs_mean,
                decisions,
                r.on_frontier,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let wrapped = format!(
        concat!(
            "{{\n\"schema\": \"fedsz.pareto.v1\",\n\"schema_version\": 1,\n",
            "\"rounds\": {},\n\"clients\": {},\n\"bandwidth_bps\": {:.0},\n",
            "\"gate\": {{\"enforced\": {}, \"topk_ef_accuracy_gap\": {:.4}, ",
            "\"topk_ef_bytes_vs_raw\": {:.4}}},\n\"families\": [\n{}\n]\n}}\n"
        ),
        sweep.rounds, sweep.clients, sweep.bandwidth, gate, acc_gap, bytes_fraction, body
    );
    println!("{wrapped}");
    let out_path: String = args.get("--out", "BENCH_pareto.json".to_string());
    if out_path != "-" {
        std::fs::write(&out_path, &wrapped).expect("write --out report");
        eprintln!("wrote {out_path}");
    }
}
