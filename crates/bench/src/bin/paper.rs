//! Every table and figure of the FedSZ paper, plus four ablations, as
//! sections of one run that CI gates and `BENCH_paper.json` tracks.
//!
//! Three grids are measured once; every section that needs one of
//! their numbers reads it from there:
//!
//! * **lossy** — each full-size model's lossy partition (seed 42,
//!   sampled by `--scale`) × {SZ2, SZ3, SZx, ZFP} × REL 1e-2..1e-4:
//!   ratio, codec seconds and `max|x − x̂| / eb` (Table I's codec
//!   columns, Fig 8 and its break-even bandwidths).
//! * **pipeline** — the whole FedSZ pipeline × model × dataset seed ×
//!   REL 1e-1..1e-5 (Table V, Fig 7; the threshold ablation sweeps the
//!   same CIFAR-10 dicts).
//! * **training** — one `fedsz_fl::sweep::run_cells` grid of
//!   `--rounds`-round runs per tiny arch × {raw, codec@bound} on
//!   CIFAR-10 (Table I's accuracy columns, Figs 4 and 5; round `r` of a
//!   run is the last round of an `r`-round run, so one run serves every
//!   horizon), plus SZ2@1e-2 on the other two datasets for Fig 6's stage
//!   seconds. Fig 9's client counts are a second, one-round grid.
//!
//! Each "shape check vs paper" is a gate computed from the numbers
//! above it. Gates read deterministic columns only (ratios, accuracies,
//! byte counts, virtual link seconds); timings are recorded, not gated.
//! The three grids and every section's tables are the document's grids,
//! and a failed gate exits 1 after it is written.
//!
//! Usage: see [`USAGE`]. A full run writes `BENCH_paper.json` (`--out -`
//! disables); a run filtered by section names writes only where `--out`
//! points, and never to the tracked file.

use fedsz::timing::{mbps, TransferPlan};
use fedsz::{partition, ErrorBound, FedSz, FedSzConfig, LossyKind};
use fedsz_bench::{
    lossless_partition_bytes, lossy_partition_values, pays_off_on_the_delta, render_histogram,
    render_series, row, timed, transform_lossy_deltas, Args, Report,
};
use fedsz_codec::stats::{value_range, Histogram};
use fedsz_data::{mean_abs_diff, miranda_like_series, DatasetKind, SyntheticConfig};
use fedsz_dp::{analyze_noise, compression_errors};
use fedsz_fl::sweep::{run_cells, CellOutcome};
use fedsz_fl::{Experiment, FlConfig, StagePolicy};
use fedsz_lossless::{BloscLz, Lossless, LosslessKind};
use fedsz_lossy::{quant::Quantizer, sparse::Sparsifier, ErrorBounded, Sz2};
use fedsz_nn::models::{specs::ModelSpec, tiny::TinyArch};
use fedsz_nn::StateDict;

type Section = fn(&mut Report, &Inputs);
const SECTIONS: [(&str, Section); 18] = [
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("table5", table5),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("ablation_sz2", ablation_sz2),
    ("ablation_shuffle", ablation_shuffle),
    ("ablation_threshold", ablation_threshold),
    ("ablation_composition", ablation_composition),
];
const USAGE: &str = "paper [--scale F | --full] [--rounds N] [--out PATH] [SECTION...]";
const TRACKED: &str = "BENCH_paper.json";
/// The grids' and tables' timing columns; `fig6` is timings throughout.
const TIMING: &str = "compress_secs;decompress_secs;train_secs;validate_secs;t_C 1e-2 (s);\
                      t_C 1e-3 (s);t_C 1e-4 (s);MB/s 1e-2;MB/s 1e-3;MB/s 1e-4;Runtime (s);\
                      Throughput (MB/s);Decomp (s);fig6;FedSZ 1e-5;FedSZ 1e-4;FedSZ 1e-3;\
                      FedSZ 1e-2;SZ2;SZ3;ZFP;Break-even (Mbps);FedSZ epoch (s);Plain epoch (s);\
                      Time (s);MB/s";
const CIFAR: DatasetKind = DatasetKind::Cifar10Like;
/// `ModelSpec::all()` runs MobileNet-V2, ResNet50, AlexNet; these are
/// the trainable stand-ins in that order, and AlexNet's index.
const ARCHS: [TinyArch; 3] = [TinyArch::MobileNetV2, TinyArch::ResNet, TinyArch::AlexNet];
const ALEXNET: usize = 2;
/// The lossy grid's bounds (Table I's columns).
const REL_BOUNDS: [f64; 3] = [1e-2, 1e-3, 1e-4];
/// The pipeline grid's bounds: Table V reads the first four, Fig 7 the
/// last four.
const PIPELINE_BOUNDS: [f64; 5] = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5];

/// What the sections read: the run's settings, the shared codec inputs
/// and the three grids (a grid no selected section reads stays empty).
#[derive(Default)]
struct Inputs {
    scale: f64,
    rounds: usize,
    /// `ModelSpec::all()` at seed 42, sampled by `--scale`.
    models: Vec<Model>,
    /// Table II's pooled full-size metadata.
    metadata: Vec<u8>,
    lossy: Vec<Cell>,
    pipeline: Vec<Cell>,
    training: Vec<(Coords, CellOutcome)>,
}

struct Model {
    spec: ModelSpec,
    dict: StateDict,
    /// The lossy partition, concatenated.
    weights: Vec<f32>,
}

/// One codec measurement at one REL bound: an EBLC on a model's lossy
/// partition (lossy grid) or the whole FedSZ pipeline on its state dict
/// (pipeline grid, where the dataset picks the weight generator's seed).
struct Cell {
    dataset: Option<DatasetKind>,
    model: &'static str,
    codec: &'static str,
    eb: f64,
    raw_bytes: usize,
    packed_bytes: usize,
    compress_secs: f64,
    decompress_secs: f64,
    /// `max|x − x̂| / eb`; the lossy grid measures it.
    err_over_eb: Option<f64>,
}

impl Cell {
    fn ratio(&self) -> f64 {
        self.raw_bytes as f64 / self.packed_bytes as f64
    }

    /// Eqn 1's terms, rescaled from the sample to the full-size model.
    fn plan(&self) -> TransferPlan {
        let full_bytes = ModelSpec::by_name(self.model).expect("a profiled model").byte_size();
        let inflate = full_bytes as f64 / self.raw_bytes as f64;
        TransferPlan {
            compress_secs: self.compress_secs * inflate,
            decompress_secs: self.decompress_secs * inflate,
            original_bytes: full_bytes,
            compressed_bytes: (self.packed_bytes as f64 * inflate) as usize,
        }
    }

    const KEY: &str = "dataset;model;codec;rel_bound";
    const COLUMNS: &str = "dataset;model;codec;rel_bound;ratio;compressed_bytes;compress_secs;\
                           decompress_secs;err_over_eb;bound_held";

    fn row(&self) -> Vec<String> {
        row![
            self.dataset.map(DatasetKind::name),
            self.model,
            self.codec,
            self.eb,
            self.ratio(),
            self.packed_bytes,
            self.compress_secs,
            self.decompress_secs,
            self.err_over_eb,
            self.err_over_eb.map(|err| err <= 1.0),
        ]
    }
}

fn lossy_grid(models: &[Model]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for model in models {
        let data = &model.weights;
        for kind in LossyKind::all() {
            let codec = kind.codec();
            for eb in REL_BOUNDS {
                let bound = ErrorBound::Relative(eb);
                let (packed, compress_secs) = timed(|| codec.compress(data, bound).unwrap());
                let (back, decompress_secs) = timed(|| codec.decompress(&packed).unwrap());
                let errors = data.iter().zip(&back).map(|(&x, &y)| f64::from(x) - f64::from(y));
                let worst = errors.fold(0.0, |worst, e| e.abs().max(worst));
                cells.push(Cell {
                    dataset: None,
                    model: model.spec.name(),
                    codec: kind.name(),
                    eb,
                    raw_bytes: data.len() * 4,
                    packed_bytes: packed.len(),
                    compress_secs,
                    decompress_secs,
                    err_over_eb: bound.absolute_for(data).map(|abs| worst / abs),
                });
            }
        }
    }
    cells
}

fn pipeline_grid(scale: f64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (d, dataset) in DatasetKind::all().into_iter().enumerate() {
        for spec in [ModelSpec::alexnet(), ModelSpec::mobilenet_v2(), ModelSpec::resnet50()] {
            let dict = spec.instantiate_scaled(100 + d as u64, scale);
            for eb in PIPELINE_BOUNDS {
                let bound = ErrorBound::Relative(eb);
                let fedsz = FedSz::new(FedSzConfig::default().with_error_bound(bound));
                let (packed, compress_secs) = timed(|| fedsz.compress(&dict).unwrap());
                let (_, decompress_secs) = timed(|| fedsz.decompress(packed.bytes()).unwrap());
                cells.push(Cell {
                    dataset: Some(dataset),
                    model: spec.name(),
                    codec: "FedSZ",
                    eb,
                    raw_bytes: dict.byte_size(),
                    packed_bytes: packed.bytes().len(),
                    compress_secs,
                    decompress_secs,
                    err_over_eb: None,
                });
            }
        }
    }
    cells
}

/// An uplink of the training grid: `None` is raw uploads, otherwise an
/// EBLC and its REL bound.
type Uplink = Option<(LossyKind, f64)>;
const SZ2_1E2: Uplink = Some((LossyKind::Sz2, 1e-2));

/// A training-grid run's coordinates: `paper_default` on a dataset and
/// an arch, with one uplink.
type Coords = (DatasetKind, TinyArch, Uplink);
const TRAINING_COLUMNS: &str =
    "dataset;arch;uplink;accuracy;upstream_bytes_per_round;train_secs;validate_secs;compress_secs";

fn training_row(((dataset, arch, uplink), run): &(Coords, CellOutcome)) -> Vec<String> {
    row![
        dataset.name(),
        arch.name(),
        uplink.map_or("raw".into(), |(k, eb)| format!("{}@{eb:e}", k.name())),
        run.metrics.iter().map(|m| m.test_accuracy).collect::<Vec<_>>(),
        run.mean(|m| m.upstream_bytes as f64),
        run.mean(|m| m.train_secs),
        run.mean(|m| m.validation_secs),
        run.mean(|m| m.compress_secs),
    ]
}

fn training_grid(rounds: usize) -> Vec<(Coords, CellOutcome)> {
    let (mut coords, mut configs) = (Vec::new(), Vec::new());
    for dataset in DatasetKind::all() {
        // Only Fig 6 reads the other two datasets: timings, at the
        // paper's default uplink, over two rounds (Caltech101's 101
        // classes make its rounds ten times CIFAR-10's).
        let (mut uplinks, mut horizon) = (vec![SZ2_1E2], rounds.min(2));
        if dataset == CIFAR {
            uplinks = vec![None, Some((LossyKind::Sz2, 1e-5)), Some((LossyKind::Sz2, 1e-1))];
            let table1 = LossyKind::all().into_iter().flat_map(|k| REL_BOUNDS.map(|eb| (k, eb)));
            uplinks.extend(table1.map(Some));
            horizon = rounds;
        }
        for arch in TinyArch::all() {
            for &uplink in &uplinks {
                let mut config = FlConfig::paper_default(arch, dataset);
                config.rounds = horizon;
                config.uplink = uplink.map_or(StagePolicy::Raw, |(lossy, eb)| {
                    let codec = FedSzConfig { lossy, ..FlConfig::tiny_model_compression() };
                    StagePolicy::Lossy(codec.with_error_bound(ErrorBound::Relative(eb)))
                });
                coords.push((dataset, arch, uplink));
                configs.push(config);
            }
        }
    }
    eprintln!("training {} runs", configs.len());
    // One cell at a time: Fig 6 reads each run's stage seconds.
    coords.into_iter().zip(run_cells(&configs, 1)).collect()
}

fn find_run(runs: &[(Coords, CellOutcome)], coords: Coords) -> &CellOutcome {
    let run = runs.iter().find(|(c, _)| *c == coords);
    &run.expect("the training grid holds every run a section reads").1
}

fn table1(r: &mut Report, inp: &Inputs) {
    let mut rows = Vec::new();
    // The grid is model-major, then codec, then bound: one row per
    // (model, codec), four rows a model.
    for (i, cells) in inp.lossy.chunks(REL_BOUNDS.len()).enumerate() {
        let kind = LossyKind::all()[i % 4];
        let mut row = vec![cells[0].model.to_string(), kind.name().to_string()];
        row.extend(cells.iter().map(|c| format!("{:.3}", c.compress_secs)));
        row.extend(
            cells.iter().map(|c| format!("{:.1}", c.raw_bytes as f64 / 1e6 / c.compress_secs)),
        );
        row.extend(cells.iter().map(|c| format!("{:.3}", c.ratio())));
        row.extend(cells.iter().map(|c| {
            let run = find_run(&inp.training, (CIFAR, ARCHS[i / 4], Some((kind, c.eb))));
            format!("{:.2}", run.final_accuracy() * 100.0)
        }));
        rows.push(row.join(";"));
    }
    let headers = "Model;Compressor;t_C 1e-2 (s);t_C 1e-3 (s);t_C 1e-4 (s);MB/s 1e-2;MB/s 1e-3;\
                   MB/s 1e-4;CR 1e-2;CR 1e-3;CR 1e-4;Acc% 1e-2;Acc% 1e-3;Acc% 1e-4";
    r.table("Table I: EBLC comparison (CIFAR-10)", headers, &rows);
    println!("\n- weights are a prefix sample; CR is size-independent per byte.");
    println!("- accuracy from tiny trainable variants on the synthetic CIFAR-10-like task.");
    println!("- deviation: our faithful error-bounded SZx preserves accuracy; the paper");
    println!("  reports SZx at 10% (random), an artifact of their integration.");
    // The paper's verdict on this table: SZ2 is the most effective
    // EBLC. A model's twelve cells run SZ2 first, then SZ3, loosest
    // bound first.
    let leads: Vec<(f64, f64)> = inp
        .lossy
        .chunks(4 * REL_BOUNDS.len())
        .map(|cells| (cells[0].ratio(), cells[REL_BOUNDS.len()].ratio()))
        .collect();
    let detail = format!("SZ2 vs SZ3 CR at REL 1e-2, per model: {leads:.2?}");
    r.gate("sz2_leads_at_1e-2", leads.iter().all(|(sz2, sz3)| sz2 >= sz3), &detail);
    for kind in LossyKind::all() {
        let of_kind = inp.lossy.iter().filter(|c| c.codec == kind.name());
        let worst = of_kind.filter_map(|c| c.err_over_eb).fold(0.0, f64::max);
        let detail = format!("worst max|x-x'|/eb over models and bounds = {worst:.4}");
        if kind == LossyKind::Zfp {
            // ZFP maps a REL bound to a fixed precision, which bounds
            // nothing (ROADMAP item 2, one definition of the bound):
            // each grid cell carries its `bound_held`, and this becomes
            // a gate when that item lands.
            println!("ZFP, recorded and not gated: {detail}");
        } else {
            r.gate(&format!("bound_held.{}", kind.name()), worst <= 1.0, &detail);
        }
    }
}

/// The pooled Algorithm-1 metadata of all three full-size models over
/// three update seeds. One AlexNet update's metadata is ~41 KB — too
/// small to time — and tiling it would hand the large-window codecs
/// fake long-range matches, so Table II pools genuinely distinct floats.
fn pooled_metadata() -> Vec<u8> {
    let mut metadata = Vec::new();
    for seed in 42..45 {
        for spec in ModelSpec::all() {
            metadata.extend(lossless_partition_bytes(&spec.instantiate_scaled(seed, 1.0), 1000));
        }
    }
    metadata
}

fn table2(r: &mut Report, inp: &Inputs) {
    let metadata = &inp.metadata;
    let mb = metadata.len() as f64 / 1e6;
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    let mut round_trips = true;
    for kind in LosslessKind::all() {
        let codec = kind.codec();
        let (packed, secs) = timed(|| codec.compress(metadata));
        let (restored, dsecs) = timed(|| codec.decompress(&packed).unwrap());
        round_trips &= &restored == metadata;
        let (name, mbps, ratio) =
            (kind.name(), mb / secs, metadata.len() as f64 / packed.len() as f64);
        rows.push(format!("{name};{secs:.3};{mbps:.1};{ratio:.3};{dsecs:.3}"));
        ratios.push(ratio);
    }
    let title = format!(
        "Table II: lossless compressors on pooled model metadata (3 models x 3 seeds, {mb:.2} MB)"
    );
    let headers = "Compressor;Runtime (s);Throughput (MB/s);Compression Ratio;Decomp (s)";
    r.table(&title, headers, &rows);
    r.gate("round_trip", round_trips, "all five codecs restore the input bit for bit");
    // `LosslessKind::all()` runs blosc-lz, gzip, xz, zlib, zstd.
    let (gzip, zlib) = (ratios[1], ratios[3]);
    let detail = format!("same DEFLATE payload, different frame: {gzip:.4} vs {zlib:.4}");
    r.gate("gzip_matches_zlib", (gzip - zlib).abs() / zlib < 0.01, &detail);
}

fn table3(r: &mut Report, _: &Inputs) {
    let mut rows = Vec::new();
    let mut lossy = Vec::new();
    for spec in ModelSpec::all() {
        let report = partition::report(&spec.instantiate(42), partition::DEFAULT_THRESHOLD);
        lossy.push(report.lossy_fraction());
        let (name, params, mb) =
            (spec.name(), spec.parameter_count() as f64, spec.byte_size() / 1_000_000);
        let (lossy_pct, gflops) = (report.lossy_fraction() * 100.0, spec.flops() as f64 / 1e9);
        rows.push(format!("{name};{params:.1e};{mb} MB;{lossy_pct:.2}%;{gflops:.2} G"));
    }
    let headers = "Model;Parameters;Size;% Lossy Data;FLOPs";
    r.table("Table III: DNNs for FedSZ profiling", headers, &rows);
    println!("\nPaper reference: MobileNet-V2 3.5e6 / 14MB / 96.94%; ResNet50 4.5e7 /");
    println!("180MB / 99.47%; AlexNet 6.0e7 / 230MB / 99.98%.");
    println!("Deviation: torchvision ResNet50 is actually 25.6M params (102 MB); the");
    println!("paper's 45M/180MB row does not match any standard ResNet50 build.");
    let rising = lossy[0] >= 0.9694 && lossy.windows(2).all(|w| w[0] < w[1]);
    r.gate("lossy_fraction", rising, "at least the paper's 96.94%, rising with model size");
}

fn table4(r: &mut Report, _: &Inputs) {
    let cfg = SyntheticConfig::default();
    let mut rows = Vec::new();
    for kind in DatasetKind::all() {
        let (samples, dim, classes) = kind.paper_characteristics();
        let (train, test) = kind.generate(&cfg);
        let (train, test, hw, channels) =
            (train.len(), test.len(), cfg.resolution, kind.channels());
        let name = kind.name();
        rows.push(format!(
            "{name};{samples};{dim} x {dim};{classes};{train} / {test};{hw} x {hw} x {channels}"
        ));
    }
    let title = "Table IV: dataset characteristics (paper reference vs synthetic stand-in)";
    let headers = "Dataset;# Samples (paper);Input Dim (paper);Classes;Synthetic train/test;\
                   Synthetic dims";
    r.table(title, headers, &rows);
    println!("\nThe synthetic datasets keep channel and class structure; resolution and");
    println!("sample counts are CPU-scale.");
}

fn table5(r: &mut Report, inp: &Inputs) {
    // One row per (dataset, model): five cells, loosest bound first.
    let per_model = || inp.pipeline.chunks(PIPELINE_BOUNDS.len());
    let mut rows = Vec::new();
    for cells in per_model() {
        let dataset = cells[0].dataset.expect("pipeline cells carry a dataset");
        let mut row = vec![dataset.name().to_string(), cells[0].model.to_string()];
        row.extend(cells[..4].iter().map(|c| format!("{:.2}", c.ratio())));
        rows.push(row.join(";"));
    }
    let headers = "Dataset;Model;CR 1e-1;CR 1e-2;CR 1e-3;CR 1e-4";
    r.table("Table V: FedSZ compression ratios", headers, &rows);
    println!("\nPaper reference (CIFAR-10): AlexNet 54.5/12.6/5.5/3.5; MobileNetV2");
    println!("11.1/5.4/3.2/1.9; ResNet50 20.2/7.0/4.0/2.7.");
    let falls = per_model().all(|cells| cells.windows(2).all(|w| w[0].ratio() > w[1].ratio()));
    r.gate("ratio_falls_with_bound", falls, "strictly, from REL 1e-1 down to 1e-5, on every row");
    // Within a dataset the rows run AlexNet, MobileNet-V2, ResNet50.
    let at_1e2: Vec<f64> = per_model().map(|cells| cells[1].ratio()).collect();
    let ordered = at_1e2.chunks(3).all(|m| m[0] > m[2] && m[2] > m[1]);
    r.gate("model_order_at_1e-2", ordered, "AlexNet > ResNet50 > MobileNet-V2 on every dataset");
    // The paper's Table V spans 5.55–12.61 at REL 1e-2 across its models
    // and datasets; ours must land within a quarter beyond either end.
    let (lo, hi) = at_1e2.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    let detail = format!("ours span {lo:.2}-{hi:.2}; the band is 0.75 x 5.55 to 1.25 x 12.61");
    r.gate("fedsz_1e-2_in_paper_band", 0.75 * 5.55 <= lo && hi <= 1.25 * 12.61, &detail);
}

/// Compression ratio of `codec` on `data` at REL 1e-2, and its seconds.
fn ratio_at_1e2(codec: &dyn ErrorBounded, data: &[f32]) -> (f64, f64) {
    let (packed, secs) = timed(|| codec.compress(data, ErrorBound::Relative(1e-2)).unwrap());
    ((data.len() * 4) as f64 / packed.len() as f64, secs)
}

fn fig2(r: &mut Report, inp: &Inputs) {
    let spikiness = |data: &[f32]| {
        let mean = data.iter().map(|&v| f64::from(v)).sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|&v| (f64::from(v) - mean).powi(2)).sum::<f64>();
        mean_abs_diff(data) / (var / data.len() as f64).sqrt().max(1e-12)
    };
    let weights = inp.models[ALEXNET].dict.get("classifier.1.weight").unwrap().data();
    let miranda = miranda_like_series(7, weights.len().min(1 << 16));
    let weights = &weights[..miranda.len()];
    let mut rows = Vec::new();
    let mut measured = Vec::new();
    for (name, data) in [("FL weights (AlexNet)", weights), ("Miranda-like field", &miranda[..])] {
        // A snippet, as in the figure's panels.
        let snippet: Vec<(String, f64)> =
            (500..508).map(|i| (format!("[{i}]"), f64::from(data[i]))).collect();
        println!("\n{}", render_series(&format!("{name} snippet"), &snippet));
        let (spiky, cr) = (spikiness(data), ratio_at_1e2(&Sz2::new(), data).0);
        rows.push(format!("{name};{spiky:.4};{cr:.2}"));
        measured.push((spiky, cr));
    }
    let headers = "Series;mean|Δ|/std (spikiness);SZ2 CR @ REL 1e-2";
    r.table("Figure 2: spikiness and compressibility", headers, &rows);
    let ((w_spiky, w_cr), (m_spiky, m_cr)) = (measured[0], measured[1]);
    let detail = format!("{:.0}x spikier, compress {:.1}x worse", w_spiky / m_spiky, m_cr / w_cr);
    let holds = w_spiky > 10.0 * m_spiky && w_cr < m_cr;
    r.gate("weights_spikier_and_less_compressible", holds, &detail);
}

fn fig3(_: &mut Report, inp: &Inputs) {
    for model in &inp.models {
        let range = value_range(&model.weights).unwrap();
        let (lo, hi) = (f64::from(range.min).max(-0.3), f64::from(range.max).min(0.3));
        let hist = Histogram::build(&model.weights, lo, hi, 24);
        let title = format!(
            "Figure 3: {} weight density (range [{:.3}, {:.3}], {} outliers)",
            model.spec.name(),
            range.min,
            range.max,
            hist.outliers
        );
        println!("\n{}", render_histogram(&title, &hist));
    }
    println!("The dynamic ranges differ per model, which motivates relative error bounds.");
}

fn fig4(r: &mut Report, inp: &Inputs) {
    let headers = std::iter::once("Compression".to_string())
        .chain((1..=inp.rounds).map(|round| format!("R{round}")))
        .collect::<Vec<_>>()
        .join(";");
    let mut worst_gap = 0.0f64;
    for arch in TinyArch::all() {
        let raw = find_run(&inp.training, (CIFAR, arch, None));
        let mut rows = Vec::new();
        // The figure's legend order: uncompressed, SZ2, SZ3, ZFP, SZx.
        for kind in [None, Some(0), Some(1), Some(3), Some(2)] {
            let kind = kind.map(|k: usize| LossyKind::all()[k]);
            let run = find_run(&inp.training, (CIFAR, arch, kind.map(|k| (k, 1e-2))));
            worst_gap = worst_gap.max(raw.final_accuracy() * 100.0 - run.final_accuracy() * 100.0);
            let label = kind.map_or("Uncompressed".to_string(), |k| format!("FedSZ-{}", k.name()));
            let curve = run.metrics.iter().map(|m| format!("{:.1}", m.test_accuracy * 100.0));
            rows.push(std::iter::once(label).chain(curve).collect::<Vec<_>>().join(";"));
        }
        r.table(&format!("Figure 4: accuracy (%) per round — {arch} on CIFAR-10"), &headers, &rows);
    }
    println!("\nDeviation: the paper's SZx collapses to 10% (their integration artifact);");
    println!("our error-bounded SZx converges like the others.");
    let detail =
        format!("worst final-round gap to uncompressed at REL 1e-2: {worst_gap:.1} (limit 15)");
    r.gate("eblc_curves_reach_uncompressed", worst_gap <= 15.0, &detail);
}

fn fig5(r: &mut Report, inp: &Inputs) {
    let mut rows = Vec::new();
    let (mut tight_gap, mut loose_drop) = (0.0f64, f64::MAX);
    for arch in TinyArch::all() {
        let percent =
            |uplink| find_run(&inp.training, (CIFAR, arch, uplink)).final_accuracy() * 100.0;
        let baseline = percent(None);
        let at = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1].map(|eb| percent(Some((LossyKind::Sz2, eb))));
        tight_gap = at[..3].iter().fold(tight_gap, |gap, &acc| gap.max(baseline - acc));
        loose_drop = loose_drop.min(baseline - at[4]);
        let cells = std::iter::once(baseline).chain(at).map(|acc| format!("{acc:.1}"));
        rows.push(format!("{};{}", arch.name(), cells.collect::<Vec<_>>().join(";")));
    }
    let title =
        format!("Figure 5: final accuracy (%) vs REL bound — CIFAR-10 ({} rounds)", inp.rounds);
    r.table(&title, "Model;No FedSZ;1e-5;1e-4;1e-3;1e-2;1e-1", &rows);
    let detail = format!(
        "bounds <= 1e-3 within {tight_gap:.1} of no FedSZ (limit 5); 1e-1 costs >= {loose_drop:.1} (floor 30)"
    );
    r.gate("threshold_effect", tight_gap <= 5.0 && loose_drop >= 30.0, &detail);
}

fn fig6(r: &mut Report, inp: &Inputs) {
    let mut rows = Vec::new();
    let mut shares = Vec::new();
    for dataset in DatasetKind::all() {
        for arch in TinyArch::all() {
            let run = find_run(&inp.training, (dataset, arch, SZ2_1E2));
            let train = run.mean(|m| m.train_secs);
            let compress = run.mean(|m| m.compress_secs);
            let validate = run.mean(|m| m.validation_secs);
            let total = train + compress + validate;
            let share = if total > 0.0 { compress / total * 100.0 } else { 0.0 };
            rows.push(format!(
                "{dataset};{arch};{train:.3};{validate:.3};{compress:.4};{share:.1}%"
            ));
            shares.push(share);
        }
    }
    let title = "Figure 6: client epoch time breakdown (seconds, measured)";
    r.table(title, "Dataset;Model;Train (s);Validate (s);Compress (s);Compress %", &rows);
    let mean = shares.iter().sum::<f64>() / shares.len() as f64;
    println!("\nMean compression share of epoch time: {mean:.1}% (paper: 4.7% mean,");
    println!("<12.5% typical, 17% worst case). Timings are recorded, not gated.");
}

fn fig7(r: &mut Report, inp: &Inputs) {
    let bandwidth = mbps(10.0);
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    // The grid's first three rows are its CIFAR-10 ones.
    for cells in inp.pipeline.chunks(PIPELINE_BOUNDS.len()).take(3) {
        let uncompressed = cells[0].plan().uncompressed_time(bandwidth);
        // Tightest bound first, as in the figure: 1e-5 up to 1e-2.
        let times = [4, 3, 2, 1].map(|b| cells[b].plan().compressed_time(bandwidth));
        let secs = std::iter::once(uncompressed).chain(times).map(|t| format!("{t:.1}"));
        rows.push(format!("{};{}", cells[0].model, secs.collect::<Vec<_>>().join(";")));
        speedups.push(format!("{} {:.1}x", cells[0].model, uncompressed / times[3]));
    }
    let title = "Figure 7: total communication time (s) at 10 Mbps";
    r.table(title, "Model;Uncompressed;FedSZ 1e-5;FedSZ 1e-4;FedSZ 1e-3;FedSZ 1e-2", &rows);
    println!("\nSpeed-up at REL 1e-2: {} (paper: 13.26x for AlexNet).", speedups.join(", "));
    println!("These are Table V's CIFAR-10 rows; their byte counts are gated there.");
}

fn fig8(r: &mut Report, inp: &Inputs) {
    let cells =
        inp.lossy.iter().filter(|c| c.model == "AlexNet" && c.eb == 1e-2 && c.codec != "SZx");
    let plans: Vec<(&str, TransferPlan)> = cells.map(|c| (c.codec, c.plan())).collect();
    let mut rows = Vec::new();
    for bw in [1.0f64, 5.0, 10.0, 50.0, 100.0, 500.0, 1_000.0, 5_000.0, 10_000.0] {
        let original = plans[0].1.uncompressed_time(mbps(bw));
        let times = plans.iter().map(|(_, plan)| format!("{:.1}", plan.compressed_time(mbps(bw))));
        rows.push(format!("{bw:.0};{original:.1};{}", times.collect::<Vec<_>>().join(";")));
    }
    let title = "Figure 8: AlexNet communication time (s) vs bandwidth (Mbps)";
    r.table(title, "Mbps;Original;SZ2;SZ3;ZFP", &rows);
    let mut rows = Vec::new();
    let mut finite = true;
    for (codec, plan) in &plans {
        let (ratio, breakeven) = (plan.ratio(), plan.breakeven_bandwidth() / 1e6);
        finite &= breakeven.is_finite() && breakeven > 0.0;
        rows.push(format!("{codec};{ratio:.2};{breakeven:.0}"));
    }
    let title = "Break-even bandwidths (compression wins below these)";
    r.table(title, "Compressor;Ratio;Break-even (Mbps)", &rows);
    println!("\nAbsolute break-evens move with codec speed (the paper used a Raspberry Pi 5).");
    r.gate("breakeven_finite_positive", finite, "Eqn 1 says compress below some link speed");
}

fn fig9(r: &mut Report, _: &Inputs) {
    const CLIENTS: [usize; 4] = [2, 4, 8, 16];
    // The paper's setting — one client per worker, all uploading over
    // one shared 10 Mbps pipe, FedSZ at REL 1e-2 — is `paper_default`
    // itself; each client count runs it, then its raw-uplink twin.
    let base = FlConfig { rounds: 1, ..FlConfig::paper_default(TinyArch::MobileNetV2, CIFAR) };
    let uplinks = [base.uplink.clone(), StagePolicy::Raw];
    let configs: Vec<FlConfig> = (CLIENTS.iter())
        .flat_map(|&clients| {
            uplinks.clone().map(|uplink| FlConfig { clients, uplink, ..base.clone() })
        })
        .collect();
    let runs = run_cells(&configs, 1);
    let mut rows = Vec::new();
    let mut comm = Vec::new();
    for (clients, pair) in CLIENTS.iter().zip(runs.chunks(2)) {
        let (fedsz, plain) = (&pair[0].metrics[0], &pair[1].metrics[0]);
        let (fedsz_comm, plain_comm) = (fedsz.comm_secs, plain.comm_secs);
        rows.push(format!(
            "{clients};{:.2};{:.2};{fedsz_comm:.2};{plain_comm:.2}",
            fedsz.round_secs, plain.round_secs
        ));
        comm.push((fedsz_comm, plain_comm));
    }
    let title = "Figure 9: weak scaling (one client per worker, shared 10 Mbps pipe)";
    let headers = "Workers;FedSZ epoch (s);Plain epoch (s);FedSZ comm (s);Plain comm (s)";
    r.table(title, headers, &rows);
    let grows = comm.windows(2).all(|w| w[1].0 > 1.5 * w[0].0 && w[1].1 > 1.5 * w[0].1);
    let detail = "uploads serialize on the shared pipe: doubling the clients grows comm over 1.5x";
    r.gate("comm_grows_with_clients", grows, detail);
    let cut = comm.iter().map(|(fedsz, plain)| plain / fedsz).fold(f64::MAX, f64::min);
    let detail =
        format!("FedSZ cuts the link's busy time at least {cut:.2}x at every client count");
    r.gate("compression_cuts_comm", cut > 1.5, &detail);
}

fn fig10(r: &mut Report, inp: &Inputs) {
    let codec = Sz2::new();
    let mut rows = Vec::new();
    let mut fits = Vec::new();
    for eb in [0.5f64, 0.1, 0.05] {
        // Pool errors across tensors: each gets its own absolute bound
        // (value-range relative mode), exactly like a FedSZ update.
        let mut errors = Vec::new();
        for (name, tensor) in inp.models[ALEXNET].dict.iter() {
            if partition::is_lossy(name, tensor.len(), 1000) {
                let bound = ErrorBound::Relative(eb);
                errors.extend(compression_errors(&codec, tensor.data(), bound).unwrap());
            }
        }
        let report = analyze_noise(&errors);
        let spread = 3.0 * report.laplace.scale;
        let hist = Histogram::build(&errors, -spread, spread, 21);
        println!("\n{}", render_histogram(&format!("Figure 10: error density at REL {eb}"), &hist));
        let fit = if report.laplace_preferred() { "Laplace" } else { "Gaussian" };
        let (b, ks_l, ks_g) = (report.laplace.scale, report.ks_laplace, report.ks_gaussian);
        let eps = report.laplace.epsilon_for_sensitivity(1.0);
        rows.push(format!("{eb};{b:.2e};{ks_l:.4};{ks_g:.4};{fit};{eps:.2}"));
        fits.push(format!("{fit} at {eb}"));
    }
    let headers = "REL bound;Laplace b;KS(Laplace);KS(Gaussian);Better fit;eps(sens=1)";
    r.table("Figure 10: error-distribution fits", headers, &rows);
    println!("\nKS-preferred fit: {}. When the bound is loose relative to the", fits.join(", "));
    println!("weight bulk (outlier-driven ranges make REL 0.05-0.5 bins wider than most");
    println!("weights) the error inherits the weight distribution itself rather than");
    println!("scaling with the bound. Suggestive of DP, as the paper says; no guarantee.");
}

fn ablation_sz2(r: &mut Report, inp: &Inputs) {
    let weights = &inp.models[ALEXNET].weights;
    let ramp: Vec<f32> = (0..weights.len()).map(|i| 0.1 + i as f32 * 1e-5).collect();
    let mut rows = Vec::new();
    // Hybrid's ratio over Lorenzo-only's, per data set.
    let [on_weights, on_ramp] =
        [("AlexNet weights", weights), ("smooth ramp", &ramp)].map(|(label, data)| {
            let hybrid = ratio_at_1e2(&Sz2::new(), data);
            let lorenzo = ratio_at_1e2(&Sz2::new().lorenzo_only(), data);
            for (variant, (ratio, secs)) in [("hybrid", hybrid), ("lorenzo-only", lorenzo)] {
                rows.push(format!("{label};{variant};{ratio:.3};{secs:.3}"));
            }
            hybrid.0 / lorenzo.0
        });
    r.table("Ablation: SZ2 predictor choice @ REL 1e-2", "Data;Predictor;Ratio;Time (s)", &rows);
    // The choice is priced in coded bits, so it can only cost what the
    // estimate misjudges: nothing on weights, where the header mean
    // beats Lorenzo block after block, and a few bytes of a ~200-byte
    // stream on the ramp, where every block but the mean's is Lorenzo.
    let detail = format!(
        "hybrid / lorenzo-only: {on_weights:.3} on weights (at least 1), {on_ramp:.3} on the \
         ramp (at least 0.9)"
    );
    r.gate("hybrid_never_loses", on_weights >= 1.0 && on_ramp >= 0.9, &detail);

    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for block in [16usize, 64, 128, 256, 1024] {
        let (ratio, secs) = ratio_at_1e2(&Sz2::with_block_size(block), weights);
        rows.push(format!("{block};{ratio:.3};{secs:.3}"));
        ratios.push(ratio);
    }
    let title = "Ablation: SZ2 block size on AlexNet weights @ REL 1e-2";
    r.table(title, "Block;Ratio;Time (s)", &rows);
    // Constant blocks carry no per-block bytes, so from 64 elements up
    // there is no metadata for a larger block to amortize.
    let (lo, hi) =
        ratios[1..].iter().fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    let detail = format!("blocks of 64 to 1024 span {lo:.3}-{hi:.3}: under 3% apart");
    r.gate("block_size_barely_matters", hi < 1.03 * lo, &detail);
}

fn ablation_shuffle(r: &mut Report, inp: &Inputs) {
    let weights: Vec<u8> =
        inp.models[ALEXNET].weights.iter().flat_map(|v| v.to_le_bytes()).collect();
    let mut rows = Vec::new();
    let (mut shuffle_wins, mut round_trips) = (true, true);
    for (label, data) in [("metadata bytes", &inp.metadata), ("weight bytes", &weights)] {
        let mut ratios = Vec::new();
        for (variant, codec) in
            [("shuffle (4B)", BloscLz::new()), ("no shuffle", BloscLz::without_shuffle())]
        {
            let (packed, secs) = timed(|| codec.compress(data));
            round_trips &= codec.decompress(&packed).is_ok_and(|back| &back == data);
            let (ratio, mbps) =
                (data.len() as f64 / packed.len() as f64, data.len() as f64 / 1e6 / secs);
            rows.push(format!("{label};{variant};{ratio:.3};{mbps:.1}"));
            ratios.push(ratio);
        }
        shuffle_wins &= ratios[0] > ratios[1];
    }
    r.table("Ablation: blosc-lz byte shuffle", "Data;Variant;Ratio;MB/s", &rows);
    let detail =
        "grouping exponent bytes into runs beats unshuffled LZ on metadata and on weights \
                  (both variants round-trip)";
    r.gate("shuffle_buys_the_ratio", shuffle_wins && round_trips, detail);
}

fn ablation_threshold(r: &mut Report, inp: &Inputs) {
    let mut rows = Vec::new();
    let mut default_takes_the_ratio = true;
    for spec in [ModelSpec::mobilenet_v2(), ModelSpec::resnet50()] {
        // Table V's CIFAR-10 dicts. Thresholds are in elements of the
        // FULL model; the sampled dict scales tensor sizes, so scale
        // the thresholds identically.
        let dict = spec.instantiate_scaled(100, inp.scale);
        let mut ratios = Vec::new();
        for full in [0usize, 100, 1000, 10_000, 1_000_000] {
            let threshold = (full as f64 * inp.scale) as usize;
            let fedsz = FedSz::new(FedSzConfig { threshold, ..FedSzConfig::default() });
            let ratio = fedsz.compress(&dict).unwrap().stats().ratio();
            let report = partition::report(&dict, threshold);
            let (name, lossy_pct, tensors) =
                (spec.name(), report.lossy_fraction() * 100.0, report.lossy_tensors);
            rows.push(format!("{name};{full};{ratio:.2};{lossy_pct:.2}%;{tensors}"));
            ratios.push(ratio);
        }
        let best = ratios.iter().copied().fold(0.0, f64::max);
        default_takes_the_ratio &= ratios[2] >= 0.97 * best && ratios[4] < 0.5 * best;
    }
    let title = "Ablation: partition threshold (full-model elements)";
    r.table(title, "Model;Threshold;FedSZ ratio;% lossy elements;# lossy tensors", &rows);
    let detail = "the paper's 1000 keeps >= 97% of the best ratio; 1e6 at least halves it";
    r.gate("default_takes_the_ratio", default_takes_the_ratio, detail);
}

/// FedSZ as a "last step" on top of sparsification and quantization
/// (the paper's Section III-C composition argument), on one trained
/// client update and the global it started from. "Alone" rows serialize
/// the transformed dict densely: sparsity or few levels by themselves
/// do not shrink a float array, which is why a byte-level last step helps.
fn ablation_composition(r: &mut Report, _: &Inputs) {
    let fedsz = FedSz::new(FlConfig::tiny_model_compression());
    let threshold = FlConfig::tiny_model_compression().threshold;
    let mut config = FlConfig::paper_default(TinyArch::AlexNet, CIFAR);
    config.rounds = 1;
    config.clients = 1;
    let mut exp = Experiment::new(config);
    let global = exp.global_state().clone();
    let _ = exp.run_round(0);
    let update = exp.global_state().clone(); // 1 client => global == its update

    let sparsifier = Sparsifier::top_k(0.05).expect("ratio in (0, 1]");
    let sparse = transform_lossy_deltas(&update, &global, threshold, |_, delta| {
        sparsifier.compress_with_applied(delta).expect("finite deltas").1
    });
    let quantizer = Quantizer::new(4, true).expect("4 bits is supported");
    let quant = transform_lossy_deltas(&update, &global, threshold, |tensor, delta| {
        quantizer.compress_with_applied(delta, 9 + tensor as u64).expect("finite deltas").1
    });
    let alone = |dict: &StateDict| fedsz.compress(dict).unwrap().bytes().len();
    let on_delta = |dict: &StateDict| fedsz.compress_delta(dict, &global).unwrap().bytes().len();
    let raw = update.byte_size();
    let sizes = [
        ("raw update", raw),
        ("FedSZ delta (vs global)", on_delta(&update)),
        ("top-5% + FedSZ delta", on_delta(&sparse)),
        ("q4s + FedSZ delta", on_delta(&quant)),
        ("FedSZ alone", alone(&update)),
        ("top-5% alone (dense bytes)", sparse.to_bytes().len()),
        ("top-5% + FedSZ", alone(&sparse)),
        ("q4s alone (dense bytes)", quant.to_bytes().len()),
        ("q4s + FedSZ", alone(&quant)),
    ];
    let rows: Vec<String> =
        sizes.iter().map(|(name, n)| format!("{name};{n};{:.2}", raw as f64 / *n as f64)).collect();
    let title = "Ablation: composing FedSZ with sparsification/quantization";
    r.table(title, "Pipeline;Bytes;Ratio vs raw", &rows);
    let bytes = |i: usize| sizes[i].1 as f64;
    let composes = [5, 7].iter().all(|&i| sizes[i].1 >= raw)
        && [6, 8].iter().all(|&i| (bytes(i) / bytes(4) - 1.0).abs() < 0.10);
    let detail = "transforms alone shrink nothing; FedSZ on top lands within 10% of plain FedSZ";
    r.gate("fedsz_composes_cleanly", composes, detail);
    let detail = "top-k deltas halve plain FedSZ and q4s deltas beat it: near-constant deltas";
    let pays = pays_off_on_the_delta(sizes[2].1, sizes[3].1, sizes[4].1);
    r.gate("pays_off_on_the_delta", pays, detail);
}

fn main() {
    let args = Args::parse(USAGE);
    let scale = if args.has("--full") { 1.0 } else { args.get("--scale", 0.05) };
    let rounds = args.get("--rounds", 10usize);
    let names = SECTIONS.map(|(name, _)| name);
    let wanted = &args.positional;
    if let Some(bad) = wanted.iter().find(|w| !names.contains(&w.as_str())) {
        args.reject(&format!("unknown section `{bad}`; sections: {}", names.join(" ")));
    }
    let wants = |sections: &[&str]| {
        wanted.is_empty() || sections.iter().any(|s| wanted.iter().any(|w| w == s))
    };
    let out: String = args.get("--out", if wanted.is_empty() { TRACKED } else { "-" }.to_string());
    if !wanted.is_empty() && std::path::Path::new(&out).file_name().is_some_and(|f| f == TRACKED) {
        args.reject(&format!("a run filtered by section names must not overwrite {TRACKED}"));
    }
    if rounds == 0 || !(scale > 0.0 && scale <= 1.0) {
        args.reject("--rounds must be > 0, --scale in (0, 1]");
    }
    println!("FedSZ paper reproduction (scale = {scale}, rounds = {rounds})");

    let mut inputs = Inputs { scale, rounds, ..Inputs::default() };
    for spec in ModelSpec::all() {
        let dict = spec.instantiate_scaled(42, scale);
        let weights = lossy_partition_values(&dict, 1000);
        inputs.models.push(Model { spec, dict, weights });
    }
    if wants(&["table2", "ablation_shuffle"]) {
        inputs.metadata = pooled_metadata();
    }
    if wants(&["table1", "fig8"]) {
        inputs.lossy = lossy_grid(&inputs.models);
    }
    if wants(&["table5", "fig7"]) {
        inputs.pipeline = pipeline_grid(scale);
    }
    if wants(&["table1", "fig4", "fig5", "fig6"]) {
        inputs.training = training_grid(rounds);
    }
    let mut r = Report::new("fedsz.paper.v2", TIMING);
    r.setting("scale", scale);
    r.setting("rounds", rounds);
    r.setting("sections", names.into_iter().filter(|n| wants(&[n])).collect::<Vec<_>>());
    let cells = |grid: &[Cell]| grid.iter().map(Cell::row).collect::<Vec<_>>();
    r.grid("lossy_grid", Cell::KEY, Cell::COLUMNS, &cells(&inputs.lossy));
    r.grid("pipeline_grid", Cell::KEY, Cell::COLUMNS, &cells(&inputs.pipeline));
    let runs: Vec<_> = inputs.training.iter().map(training_row).collect();
    r.grid("training_grid", "dataset;arch;uplink", TRAINING_COLUMNS, &runs);
    for (name, section) in SECTIONS {
        if wants(&[name]) {
            r.scope(name);
            section(&mut r, &inputs);
        }
    }
    std::process::exit(r.finish(&out));
}
