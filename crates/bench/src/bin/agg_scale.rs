//! Scale study of the hierarchical aggregation tree: 10^2 → 10^6
//! clients at depths 2 → 4.
//!
//! The paper's Fig. 9 stops at 127 clients because the flat server
//! merges one `O(clients · params)` serial loop behind one serialized
//! link. This bench sweeps client counts four orders of magnitude past
//! that and, per point, sweeps the tree depth, comparing:
//!
//! * flat aggregation (one serial exact merge in client-id order) vs
//!   the tree (leaf merges spread across a worker pool, streamed so
//!   peak memory is one update *per worker thread*, not `N` — the
//!   cohort is synthesized in place into per-worker scratch dicts, so
//!   a 10^6-client point costs the same resident memory as a
//!   10^2-client one),
//! * per-level ingress bytes: `N` serialized updates at the flat root
//!   vs partial-sum frames climbing the hierarchy — with the lossless
//!   psum codec on, so the frames ship compressed,
//! * the break-even arithmetic from `agg::shard`'s docs: with raw
//!   `f32` uploads of `U` bytes and frames of `2·U/ratio` bytes, root
//!   ingress shrinks by `fan-in · ratio / 2` — a gate holds the
//!   measured reduction to that closed form (so the "fan-in must
//!   exceed `2/ratio`" break-even claim stays an invariant, not a
//!   footnote),
//! * a bit-parity gate: every tree's global model must equal the flat
//!   reference byte for byte, lossless frames included.
//!
//! Client updates are synthesized (base model + deterministic
//! per-client perturbation) instead of trained — aggregation
//! throughput is the quantity under study, and training 10^6 clients
//! would drown it.
//!
//! Flags (see [`USAGE`]): `--clients 100,1000,10000` (sweep list; points at 10^5–10^6
//! are practical because of the streaming generator), `--leaves N`
//! (leaf aggregator count, the report's `shards` setting, default 16),
//! `--depths 2,3,4` (tree depths to sweep), `--threads N` (merge
//! worker pool width, default the
//! host's available parallelism), `--psum lossless|raw` (frame codec,
//! default lossless), `--scale F` (model-size fraction, default
//! 0.001), `--seed N`, `--min-speedup F` (a gate on `merge_speedup >= F`
//! at every point — the CI perf gate; omitted means no such gate),
//! `--out PATH` (the report the repo tracks across PRs, default
//! `BENCH_agg_scale.json`; `-` disables the file), `--trace
//! FILE` (Chrome-trace JSONL of the sweep's `merge.level` spans and
//! pool counters, same `fedsz.trace.v1` schema the CLI emits — open it
//! in `about://tracing` to see where a slow point spends its merge
//! time).
//!
//! `merge_speedup` tracks `--threads` (each leaf merges on a pool
//! worker); the JSON carries `worker_threads` so a single-core CI
//! runner's ~1x reads as expected, not as a regression. The byte
//! reductions and the parity bit are hardware-independent.

use fedsz::{FedSzConfig, LossyKind};
use fedsz_bench::{row, Args, Report};
use fedsz_fl::agg::{Downlink, DownlinkMode, PartialSum, PsumMode, ShardedTree, TreePlan};
use fedsz_nn::models::specs::ModelSpec;
use fedsz_nn::StateDict;
use std::time::Instant;

/// Deterministic per-client perturbation of the base model (splitmix64
/// stream keyed by client id), standing in for one round of local SGD.
/// Written *into* `scratch` so the sweep's streaming paths synthesize
/// every client into one reused per-worker dict — zero allocations per
/// client, and peak update memory is one dict per worker thread.
fn synth_update_into(base: &StateDict, scratch: &mut StateDict, client: usize, seed: u64) {
    let mut state = seed ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for (name, tensor) in base.iter() {
        let out = scratch.get_mut(name).expect("scratch is a clone of base");
        for (dst, &v) in out.data_mut().iter_mut().zip(tensor.data()) {
            *dst = v + (next() as f32 / u64::MAX as f32 - 0.5) * 0.01;
        }
    }
}

/// Splits `leaves` into `levels` fan-out factors, each as close to the
/// geometric mean as its divisors allow (root downward; the last level
/// absorbs the remainder so the product is exactly `leaves`). Divisors
/// are enumerated in complement pairs up to `√rest`, so a level costs
/// `O(√rest)` instead of the old `O(rest)` trial division — the
/// difference between microseconds and minutes once shard counts reach
/// the 10^5–10^6 sweep's scale.
fn fanouts_for(leaves: usize, levels: usize) -> Vec<usize> {
    let mut fanouts = Vec::with_capacity(levels);
    let mut rest = leaves;
    for remaining in (1..=levels).rev() {
        if remaining == 1 {
            fanouts.push(rest);
            break;
        }
        let target = (rest as f64).powf(1.0 / remaining as f64);
        let mut best = 1usize;
        let mut best_gap = f64::INFINITY;
        let mut consider = |d: usize| {
            let gap = (d as f64 - target).abs();
            // Strict `<` keeps the old full-scan tie-break (smallest
            // divisor wins a tie) as long as candidates arrive in
            // ascending order — see the loop below.
            if gap < best_gap {
                best = d;
                best_gap = gap;
            }
        };
        // Ascending low divisors, then ascending high complements:
        // every candidate ≤ √rest before any > √rest, and each half is
        // itself ascending, so ties resolve exactly as the old
        // smallest-first scan did.
        let mut high = Vec::new();
        let mut d = 1usize;
        while d * d <= rest {
            if rest.is_multiple_of(d) {
                consider(d);
                if d != rest / d {
                    high.push(rest / d);
                }
            }
            d += 1;
        }
        for d in high.into_iter().rev() {
            consider(d);
        }
        fanouts.push(best);
        rest /= best;
    }
    fanouts
}

const USAGE: &str = "agg_scale [--clients N,N] [--leaves N] [--depths D,D] [--threads N] \
                     [--psum MODE] [--scale F] [--seed N] [--min-speedup F] [--out PATH] \
                     [--trace FILE]";
const TIMING: &str = "flat_ms;tree_ms;merge_speedup";
const COLUMNS: &str = "clients;depth;fanouts;params;worker_threads;peak_update_mem_bytes;flat_ms;\
                       tree_ms;merge_speedup;flat_root_ingress_bytes;tree_root_ingress_bytes;\
                       level_ingress_bytes;ingress_reduction;fan_in;psum_ratio;parity";

fn main() {
    let args = Args::parse(USAGE);
    let shards: usize = args.get("--leaves", 16);
    let scale: f64 = args.get("--scale", 0.001);
    let seed: u64 = args.get("--seed", 7);
    let threads: usize =
        args.get("--threads", std::thread::available_parallelism().map_or(1, usize::from)).max(1);
    let min_speedup: Option<f64> =
        args.value("--min-speedup").map(|_| args.get("--min-speedup", 1.0));
    let clients_list: Vec<usize> = args.list("--clients", "100,1000,10000");
    let depths: Vec<usize> = args.list("--depths", "2,3,4");
    if depths.iter().any(|&d| d < 2) {
        args.reject("a tree is at least depth 2 (root + leaves)");
    }
    let psum = match args.value("--psum").unwrap_or("lossless") {
        "lossless" => PsumMode::Lossless,
        "raw" => PsumMode::Raw,
        other => args.reject(&format!("--psum expects lossless or raw, got `{other}`")),
    };
    // Tracing is observation only: the sweep's merges, parity checks
    // and reported numbers are identical with or without it.
    let telemetry = match args.value("--trace") {
        Some(path) => fedsz_telemetry::Telemetry::with_trace(std::path::Path::new(path))
            .unwrap_or_else(|e| args.reject(&format!("cannot open trace file {path}: {e}"))),
        None => fedsz_telemetry::Telemetry::disabled(),
    };

    let base = ModelSpec::alexnet().instantiate_scaled(seed, scale);
    let params = base.total_elements();
    let update_wire_bytes = base.to_bytes().len();
    // Streaming peak: each pool worker owns one scratch update; the
    // cohort never materializes. (The flat reference uses one.)
    let peak_update_mem_bytes = threads * base.byte_size();

    // The downlink leg: encode the "global" once, as the engine would
    // each round, and report what the broadcast fan-out saves.
    let downlink = Downlink::new(
        DownlinkMode::Compressed,
        Some(FedSzConfig { threshold: 128, lossy: LossyKind::Sz2, ..FedSzConfig::default() }),
    );
    let payload = downlink.encode(&base, None, 1);

    let mut r = Report::new("fedsz.agg_scale.v3", TIMING);
    r.setting("shards", shards);
    r.setting("threads", threads);
    r.setting("psum_mode", psum.name());
    r.setting("scale", scale);
    r.setting("seed", seed);
    let downlink = row![payload.raw_bytes, payload.bytes.len(), payload.ratio()];
    r.grid("downlink", "", "raw_bytes;encoded_bytes;ratio", &[downlink]);
    let mut points = Vec::new();
    // Per point: (bit parity, |measured / closed-form reduction - 1|,
    // psum ratio, merge speed-up).
    let mut checks: Vec<(bool, f64, f64, f64)> = Vec::new();
    for &clients in &clients_list {
        let weight_of = |client: usize| 1.0 + (client % 7) as f64;

        // Flat reference: one serial exact merge in client-id order,
        // synthesized through a single reused scratch dict.
        let t_flat = Instant::now();
        let mut flat = PartialSum::new();
        let mut scratch = base.clone();
        for client in 0..clients {
            synth_update_into(&base, &mut scratch, client, seed);
            flat.accumulate(&scratch, weight_of(client));
        }
        let flat_global = flat.finish().expect("non-empty cohort");
        let flat_ms = t_flat.elapsed().as_secs_f64() * 1e3;
        let flat_ingress = clients * update_wire_bytes;
        drop(scratch);

        for &depth in &depths {
            let fanouts = fanouts_for(shards, depth - 1);
            let plan = TreePlan::new(clients, fanouts.clone());
            let root_children = plan.nodes_at(1);
            let mut tree = ShardedTree::new(plan, None, psum)
                .with_threads(threads)
                .with_telemetry(telemetry.clone());
            let point_span = telemetry.span_with(
                "bench.point",
                &[
                    ("clients", fedsz_telemetry::Value::U64(clients as u64)),
                    ("depth", fedsz_telemetry::Value::U64(depth as u64)),
                ],
            );
            let t_tree = Instant::now();
            let outcome = tree
                .aggregate_streamed_with(
                    0,
                    || base.clone(),
                    |client, scratch: &mut StateDict| {
                        synth_update_into(&base, scratch, client, seed);
                        (&*scratch, weight_of(client))
                    },
                )
                .expect("non-empty cohort");
            let tree_ms = t_tree.elapsed().as_secs_f64() * 1e3;
            drop(point_span);
            let merge_speedup = flat_ms / tree_ms.max(1e-9);

            let parity = outcome.global.to_bytes() == flat_global.to_bytes();
            let reduction = flat_ingress as f64 / outcome.root_ingress_bytes.max(1) as f64;
            let psum_ratio = outcome.psum_ratio();
            // The break-even claim from agg::shard's docs, measured
            // with the codec on: raw f32 uploads carry ~4 B/element,
            // frames ~8 B/element over the lossless ratio, so the
            // root-ingress reduction must track fan-in · ratio / 2
            // (headers and entry names smear it by a few percent).
            let fan_in = clients as f64 / root_children as f64;
            let predicted = fan_in * psum_ratio / 2.0;
            checks.push((parity, (reduction / predicted - 1.0).abs(), psum_ratio, merge_speedup));

            let fanouts = fanouts.iter().map(usize::to_string).collect::<Vec<_>>().join("x");
            eprintln!(
                "{clients} clients / depth {depth} ({fanouts}): flat {flat_ms:.0} ms, tree \
                 {tree_ms:.0} ms, ingress {flat_ingress} -> {} ({reduction:.1}x, psum \
                 {psum_ratio:.2}x)",
                outcome.root_ingress_bytes
            );
            points.push(row![
                clients,
                depth,
                fanouts,
                params,
                threads,
                peak_update_mem_bytes,
                flat_ms,
                tree_ms,
                merge_speedup,
                flat_ingress,
                outcome.root_ingress_bytes,
                outcome.level_ingress_bytes,
                reduction,
                fan_in,
                psum_ratio,
                parity,
            ]);
        }
    }
    r.grid("points", "clients;depth", COLUMNS, &points);
    let parity = checks.iter().filter(|c| c.0).count();
    let detail = format!("{parity} of {} trees equal the flat global byte for byte", checks.len());
    r.gate("parity", parity == checks.len(), &detail);
    let worst = checks.iter().map(|c| c.1).fold(0.0, f64::max);
    let detail = format!(
        "root-ingress reduction within {:.1}% of fan-in x ratio / 2 (limit 20%)",
        worst * 100.0
    );
    r.gate("ingress_tracks_closed_form", worst < 0.2, &detail);
    if psum == PsumMode::Lossless {
        let least = checks.iter().map(|c| c.2).fold(f64::MAX, f64::min);
        let detail = format!("lossless psum ratio at least {least:.3} (floor 1.2)");
        r.gate("psum_ratio_floor", least > 1.2, &detail);
    }
    if let Some(floor) = min_speedup {
        let least = checks.iter().map(|c| c.3).fold(f64::MAX, f64::min);
        let detail =
            format!("merge_speedup at least {least:.2} on {threads} threads (floor {floor:.2})");
        r.gate("merge_speedup_floor", least >= floor, &detail);
    }
    telemetry.flush();
    std::process::exit(r.finish(&args.get("--out", "BENCH_agg_scale.json".to_string())));
}
