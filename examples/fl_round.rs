//! A complete federated-learning session with FedSZ compression, on the
//! in-process round engine.
//!
//! ```text
//! cargo run --release --example fl_round
//! ```
//!
//! Trains the tiny ResNet on the synthetic CIFAR-10-like task with four
//! clients for five FedAvg rounds, three ways:
//!
//! 1. uncompressed on the paper's shared 10 Mbps pipe,
//! 2. FedSZ-compressed on the same pipe (Figures 4 and 7 in miniature),
//! 3. FedSZ on per-client heterogeneous links with one straggler and
//!    FedBuff-style buffered aggregation — the scenario the shared-pipe
//!    loop could not express.

use fedsz_data::DatasetKind;
use fedsz_fl::{AggregationPolicy, Experiment, FlConfig, LinkProfile, StagePolicy, Topology};
use fedsz_nn::models::tiny::TinyArch;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let rounds = 5;

    let base =
        FlConfig { rounds, ..FlConfig::paper_default(TinyArch::ResNet, DatasetKind::Cifar10Like) };

    let plain_cfg = FlConfig { uplink: StagePolicy::Raw, ..base.clone() };
    let plain = Experiment::new(plain_cfg).run();
    let fedsz = Experiment::new(base.clone()).run();

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

    // The same engine, now with per-client links: three fast clients and
    // one straggler on a 1 Mbps uplink with 20x slower compute. The
    // buffered policy aggregates after 3 arrivals; the straggler's
    // update lands one round late with a staleness-discounted weight.
    let mut hetero = base;
    hetero.links = Some(Topology::Dedicated(vec![
        LinkProfile::symmetric(50e6),
        LinkProfile::symmetric(50e6),
        LinkProfile::symmetric(50e6),
        LinkProfile::symmetric(1e6).with_slowdown(20.0),
    ]));
    hetero.aggregation = AggregationPolicy::Buffered { target: 3 };
    let buffered = Experiment::new(hetero).run();

    println!("\nheterogeneous links, buffered async (aggregate after 3 of 4):");
    println!("round    acc   comm(s)  virtual-round(s)  aggregated  stale");
    for m in &buffered {
        println!(
            "{:>5}  {:>4.1}%  {:>8.3}  {:>16.3}  {:>10}  {:>5}",
            m.round + 1,
            m.test_accuracy * 100.0,
            m.comm_secs,
            m.round_secs,
            m.aggregated_updates,
            m.stale_updates,
        );
    }
    println!(
        "\nPer-client links overlap on the virtual clock (comm = slowest transfer, \
         not a serialized sum), and buffered rounds complete without waiting for \
         the straggler."
    );
    Ok(())
}
