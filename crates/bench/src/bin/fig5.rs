//! Figure 5: inference accuracy vs relative error bound (1e-5 .. 1e-1).
//!
//! For each model (and dataset with `--all-datasets`), runs FedAvg with
//! FedSZ at each bound plus an uncompressed baseline, reporting final
//! accuracy. The paper's key result: accuracy is flat up to REL 1e-2 and
//! collapses at 1e-1.

use fedsz::ErrorBound;
use fedsz_bench::{print_table, Args};
use fedsz_data::DatasetKind;
use fedsz_fl::{Experiment, FlConfig, StagePolicy};
use fedsz_nn::models::tiny::TinyArch;

fn main() {
    let args = Args::parse();
    let rounds: usize = args.get("--rounds", 8);
    let bounds = [1e-5f64, 1e-4, 1e-3, 1e-2, 1e-1];
    let datasets: Vec<DatasetKind> = if args.has("--all-datasets") {
        DatasetKind::all().to_vec()
    } else {
        vec![DatasetKind::Cifar10Like]
    };

    for dataset in datasets {
        let mut rows = Vec::new();
        for arch in TinyArch::all() {
            let mut config = FlConfig::paper_default(arch, dataset);
            config.rounds = rounds;
            config.uplink = StagePolicy::Raw;
            let baseline =
                Experiment::new(config).run().last().map(|m| m.test_accuracy).unwrap_or(0.0);
            let mut cells = vec![arch.name().to_string(), format!("{:.1}", baseline * 100.0)];
            for &eb in &bounds {
                let mut config = FlConfig::paper_default(arch, dataset);
                config.rounds = rounds;
                config.uplink = StagePolicy::Lossy(
                    FlConfig::tiny_model_compression().with_error_bound(ErrorBound::Relative(eb)),
                );
                let acc =
                    Experiment::new(config).run().last().map(|m| m.test_accuracy).unwrap_or(0.0);
                cells.push(format!("{:.1}", acc * 100.0));
            }
            rows.push(cells);
        }
        print_table(
            &format!("Figure 5: final accuracy (%) vs REL bound — {dataset} ({rounds} rounds)"),
            &["Model", "No FedSZ", "1e-5", "1e-4", "1e-3", "1e-2", "1e-1"],
            &rows,
        );
    }
    println!("\nShape check vs paper: bounds <= 1e-2 track the uncompressed baseline;");
    println!("1e-1 degrades sharply (Fig 5's threshold effect).");
}
