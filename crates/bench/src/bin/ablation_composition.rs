//! Ablation: FedSZ as a "last step" on top of sparsification and
//! quantization (the paper's Section III-C composition argument).
//!
//! Trains one FL round, then compares the wire size of the client update
//! under: raw; FedSZ alone; top-k alone; top-k + FedSZ; stochastic
//! quantization alone; quantization + FedSZ. The transforms are
//! `fedsz_lossy`'s own sparsifier and quantizer applied to the lossy
//! partition's deltas. "Alone" baselines are serialized with the state-dict
//! wire format (sparsity/quantization by themselves don't shrink dense
//! float arrays — which is exactly why a byte-level last step helps).

use fedsz::FedSz;
use fedsz_bench::{print_table, transform_lossy_deltas, Args};
use fedsz_data::DatasetKind;
use fedsz_fl::{Experiment, FlConfig};
use fedsz_lossy::quant::Quantizer;
use fedsz_lossy::sparse::Sparsifier;
use fedsz_nn::models::tiny::TinyArch;
use fedsz_nn::StateDict;

fn main() {
    let args = Args::parse();
    let fraction: f64 = args.get("--topk", 0.05);
    let bits: u8 = args.get("--bits", 4);
    let threshold = FlConfig::tiny_model_compression().threshold;

    // One trained client update and the global model it started from.
    let mut config = FlConfig::paper_default(TinyArch::AlexNet, DatasetKind::Cifar10Like);
    config.rounds = 1;
    config.clients = 1;
    let mut exp = Experiment::new(config);
    let global = exp.global_state().clone();
    let _ = exp.run_round(0);
    let update = exp.global_state().clone(); // 1 client => global == its update

    let fedsz = FedSz::new(FlConfig::tiny_model_compression());
    let raw = update.byte_size();
    let size = |dict: &StateDict| fedsz.compress(dict).unwrap().bytes().len();

    let sparsifier = Sparsifier::top_k(fraction).expect("--topk must be in (0, 1]");
    let sparse = transform_lossy_deltas(&update, &global, threshold, |_, delta| {
        sparsifier.compress_with_applied(delta).expect("finite deltas").1
    });
    let quantizer = Quantizer::new(bits, true).expect("--bits must be 4 or 8");
    let quant = transform_lossy_deltas(&update, &global, threshold, |tensor, delta| {
        quantizer.compress_with_applied(delta, 9 + tensor as u64).expect("finite deltas").1
    });
    let delta_size = |dict: &StateDict| fedsz.compress_delta(dict, &global).unwrap().bytes().len();

    let rows = vec![
        vec!["raw update".into(), format!("{raw}"), "1.00".into()],
        vec![
            "FedSZ delta (vs global)".into(),
            format!("{}", delta_size(&update)),
            format!("{:.2}", raw as f64 / delta_size(&update) as f64),
        ],
        vec![
            format!("top-{:.0}% + FedSZ delta", fraction * 100.0),
            format!("{}", delta_size(&sparse)),
            format!("{:.2}", raw as f64 / delta_size(&sparse) as f64),
        ],
        vec![
            format!("q{bits}s + FedSZ delta"),
            format!("{}", delta_size(&quant)),
            format!("{:.2}", raw as f64 / delta_size(&quant) as f64),
        ],
        vec![
            "FedSZ alone".into(),
            format!("{}", size(&update)),
            format!("{:.2}", raw as f64 / size(&update) as f64),
        ],
        vec![
            format!("top-{:.0}% alone (dense bytes)", fraction * 100.0),
            format!("{}", sparse.to_bytes().len()),
            format!("{:.2}", raw as f64 / sparse.to_bytes().len() as f64),
        ],
        vec![
            format!("top-{:.0}% + FedSZ", fraction * 100.0),
            format!("{}", size(&sparse)),
            format!("{:.2}", raw as f64 / size(&sparse) as f64),
        ],
        vec![
            format!("q{bits}s alone (dense bytes)"),
            format!("{}", quant.to_bytes().len()),
            format!("{:.2}", raw as f64 / quant.to_bytes().len() as f64),
        ],
        vec![
            format!("q{bits}s + FedSZ"),
            format!("{}", size(&quant)),
            format!("{:.2}", raw as f64 / size(&quant) as f64),
        ],
    ];
    print_table(
        "Ablation: composing FedSZ with sparsification/quantization",
        &["Pipeline", "Bytes", "Ratio vs raw"],
        &rows,
    );
    println!("\nFinding: FedSZ composes cleanly — it compresses transformed updates about");
    println!("as well as raw ones, while the transforms alone shrink nothing (a dense");
    println!("float array is the same size no matter how many entries changed). The");
    println!("composition pays off on the delta (update - global): sparsified and");
    println!("few-level deltas are nearly constant, so FedSZ's predictor removes them,");
    println!("whereas added back onto the global they look like any other weights.");
}
