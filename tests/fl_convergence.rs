//! Training-level integration: the paper's accuracy claims on the
//! CPU-scale substrate, with fixed seeds.

use fedsz::timing::{mbps, TransferPlan};
use fedsz::{ErrorBound, FedSz};
use fedsz_data::DatasetKind;
use fedsz_fl::{Experiment, FlConfig, StagePolicy, Topology};
use fedsz_nn::models::specs::ModelSpec;
use fedsz_nn::models::tiny::TinyArch;
use std::sync::{PoisonError, RwLock};
use std::time::Instant;

/// Every training test here keeps both cores busy with client threads
/// (more so since `nn`'s kernels stopped idling in a scalar loop), and
/// the harness runs tests side by side. They share this lock; the one
/// wall-clock test takes it alone, so it times the codec and not the
/// scheduler.
static CORES: RwLock<()> = RwLock::new(());

fn quick_config(arch: TinyArch) -> FlConfig {
    let mut config = FlConfig::paper_default(arch, DatasetKind::Cifar10Like);
    config.rounds = 5;
    config.data.train_per_class = 8;
    config.data.test_per_class = 4;
    config
}

#[test]
fn all_archs_learn_above_chance_with_fedsz() {
    let _shared = CORES.read().unwrap_or_else(PoisonError::into_inner);
    for arch in TinyArch::all() {
        let mut config = quick_config(arch);
        // The MobileNet-style blocks (BN + depthwise + ReLU6) converge
        // slowest of the three — also visible in the paper's Fig 4 —
        // so give it a longer schedule.
        if arch == TinyArch::MobileNetV2 {
            config.rounds = 8;
            config.lr = 0.1;
        }
        let metrics = Experiment::new(config).run();
        let best_acc = metrics.iter().map(|m| m.test_accuracy).fold(0.0f64, f64::max);
        assert!(best_acc > 0.15, "{arch}: best accuracy {best_acc:.3} not above chance (0.10)");
        // Communication must be simulated and nonzero.
        assert!(metrics.iter().all(|m| m.comm_secs > 0.0), "{arch}");
    }
}

#[test]
fn recommended_bound_tracks_uncompressed_accuracy() {
    let _shared = CORES.read().unwrap_or_else(PoisonError::into_inner);
    // Fig 5's central claim at the paper's recommended REL 1e-2.
    let mut plain_cfg = quick_config(TinyArch::AlexNet);
    plain_cfg.uplink = StagePolicy::Raw;
    let plain: Vec<f64> =
        Experiment::new(plain_cfg).run().iter().map(|m| m.test_accuracy).collect();

    let mut fedsz_cfg = quick_config(TinyArch::AlexNet);
    fedsz_cfg.uplink = StagePolicy::Lossy(
        FlConfig::tiny_model_compression().with_error_bound(ErrorBound::Relative(1e-2)),
    );
    let compressed: Vec<f64> =
        Experiment::new(fedsz_cfg).run().iter().map(|m| m.test_accuracy).collect();

    let final_gap = (plain.last().unwrap() - compressed.last().unwrap()).abs();
    assert!(
        final_gap < 0.20,
        "REL 1e-2 diverged from uncompressed: plain {plain:?} vs fedsz {compressed:?}"
    );
}

#[test]
fn communication_savings_match_eqn1_model() {
    let _shared = CORES.read().unwrap_or_else(PoisonError::into_inner);
    // The round metrics' simulated comm time must agree with the Eqn 1
    // timing model evaluated on the same payload sizes.
    let mut config = quick_config(TinyArch::MobileNetV2);
    config.rounds = 1;
    let clients = config.clients;
    let Some(Topology::Shared(pipe)) = &config.links else { panic!("shared-pipe config") };
    let bandwidth = pipe.bandwidth_bps;
    let metrics = Experiment::new(config).run();
    let m = metrics.last().unwrap();
    let expected = m.update_bytes * 8.0 / bandwidth * clients as f64;
    let rel_err = (m.comm_secs - expected).abs() / expected;
    assert!(rel_err < 1e-9, "comm {:.4}s vs model {expected:.4}s", m.comm_secs);
}

#[test]
fn full_size_update_breakeven_is_in_the_papers_regime() {
    let _alone = CORES.write().unwrap_or_else(PoisonError::into_inner);
    // Fig 8: compression should clearly pay at 10 Mbps and clearly not
    // at 10 Gbps for AlexNet-sized updates on this machine.
    let spec = ModelSpec::alexnet();
    let dict = spec.instantiate_scaled(2, 0.02);
    let inflate = spec.byte_size() as f64 / dict.byte_size() as f64;
    let fedsz = FedSz::default();
    let t0 = Instant::now();
    let packed = fedsz.compress(&dict).unwrap();
    let c = t0.elapsed().as_secs_f64() * inflate;
    let t1 = Instant::now();
    let _ = fedsz.decompress(packed.bytes()).unwrap();
    let d = t1.elapsed().as_secs_f64() * inflate;
    let plan = TransferPlan {
        compress_secs: c,
        decompress_secs: d,
        original_bytes: spec.byte_size(),
        compressed_bytes: (packed.bytes().len() as f64 * inflate) as usize,
    };
    assert!(plan.worthwhile(mbps(10.0)), "compression must win at 10 Mbps: {plan:?}");
    assert!(!plan.worthwhile(mbps(100_000.0)), "compression must lose at 100 Gbps: {plan:?}");
    assert!(plan.speedup(mbps(10.0)) > 3.0, "speedup at 10 Mbps too small: {plan:?}");
}

#[test]
fn all_dataset_geometries_run_end_to_end() {
    let _shared = CORES.read().unwrap_or_else(PoisonError::into_inner);
    // FMNIST-like exercises the 1-channel path; Caltech101-like the
    // 101-class head. Tiny budgets: this checks plumbing, not accuracy.
    for dataset in [DatasetKind::FashionMnistLike, DatasetKind::Caltech101Like] {
        let mut config = FlConfig::paper_default(TinyArch::AlexNet, dataset);
        config.rounds = 1;
        config.clients = 2;
        config.data.train_per_class = 2;
        config.data.test_per_class = 1;
        let metrics = Experiment::new(config).run();
        let m = metrics.last().unwrap();
        assert!(m.test_accuracy.is_finite(), "{dataset}");
        assert!(m.ratio > 1.0, "{dataset}: compression inactive");
        assert!(m.comm_secs > 0.0, "{dataset}");
    }
}
