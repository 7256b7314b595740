//! A complete federated-learning session with FedSZ compression, on the
//! in-process round engine.
//!
//! ```text
//! cargo run --release --example fl_round
//! ```
//!
//! Trains the tiny ResNet on the synthetic CIFAR-10-like task with four
//! clients for five FedAvg rounds, two ways: uncompressed on the
//! paper's shared 10 Mbps pipe, and FedSZ-compressed on the same pipe
//! (Figures 4 and 7 in miniature).

use fedsz_data::DatasetKind;
use fedsz_fl::{Experiment, FlConfig, StagePolicy};
use fedsz_nn::models::tiny::TinyArch;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let rounds = 5;

    let base =
        FlConfig { rounds, ..FlConfig::paper_default(TinyArch::ResNet, DatasetKind::Cifar10Like) };

    let plain_cfg = FlConfig { uplink: StagePolicy::Raw, ..base.clone() };
    let plain = Experiment::new(plain_cfg).run();
    let fedsz = Experiment::new(base).run();

    println!("round  plain-acc  fedsz-acc  plain-comm(s)  fedsz-comm(s)  ratio");
    for (p, f) in plain.iter().zip(&fedsz) {
        println!(
            "{:>5}  {:>8.1}%  {:>8.1}%  {:>13.2}  {:>13.2}  {:>5.2}x",
            p.round + 1,
            p.test_accuracy * 100.0,
            f.test_accuracy * 100.0,
            p.comm_secs,
            f.comm_secs,
            f.ratio,
        );
    }

    let p = plain.last().expect("rounds > 0");
    let f = fedsz.last().expect("rounds > 0");
    println!(
        "\nFedSZ kept accuracy within {:.1} points while cutting simulated 10 Mbps \
         communication {:.1}x.",
        (p.test_accuracy - f.test_accuracy).abs() * 100.0,
        p.comm_secs / f.comm_secs,
    );
    Ok(())
}
