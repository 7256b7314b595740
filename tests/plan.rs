//! The config/plan split's contract tests.
//!
//! Two layers:
//!
//! 1. **Golden bit-parity.** The checksums below were captured by
//!    running the *pre-redesign* engine (the field-by-field
//!    `RoundEngine::new` that read its topology and stage knobs
//!    directly) on a spread of representative configurations. The
//!    plan-based engine must reproduce every one bit for bit — each
//!    redesign since has been an API change, not a numerics change.
//! 2. **Total validation.** For arbitrary configurations, `plan()`
//!    either fails with a typed [`PlanError`] (and the panicking
//!    constructor reports the same condition) or the engine completes
//!    a round; and the `RoundEngine::new` (config) and
//!    `RoundEngine::from_plan` (plan) construction paths produce
//!    bit-identical rounds.

use fedsz_fl::engine::RoundEngine;
use fedsz_fl::net::global_checksum;
use fedsz_fl::plan::{PlanError, StageLeg, StagePolicy};
use fedsz_fl::{DpMechanism, DpPolicy, Experiment, FlConfig, LinkProfile, Topology};
use proptest::prelude::*;

/// The smoke config's codec, as the policy of a compressing leg.
fn lossy() -> StagePolicy {
    StagePolicy::Lossy(FlConfig::tiny_model_compression())
}

/// The uplink family codec `spec` names.
fn family(spec: &str) -> StagePolicy {
    StagePolicy::parse(spec, StageLeg::Uplink, FlConfig::tiny_model_compression()).unwrap()
}

fn checksum_of(config: FlConfig) -> u32 {
    let mut exp = Experiment::new(config);
    exp.run();
    global_checksum(exp.global_state())
}

/// Checksums captured from the pre-redesign engine (same seed, same
/// shim RNG, deterministic configurations only — adaptive modes key
/// on measured wall time and are exempt from bit-parity by design). Every config but `plain` uploads through SZ2,
/// so those were captured again when its stream went to version 2 (PR
/// 23: different bytes decode to different weights inside the same
/// bound); `plain`, which runs no codec, did not move. CHANGES.md lists
/// old → new.
#[test]
fn plan_based_engine_reproduces_pre_redesign_checksums() {
    let base = FlConfig::smoke_test;
    let mut configs: Vec<(&str, FlConfig, u32)> = Vec::new();
    configs.push(("smoke", base(), 0x31c90905));
    {
        let mut c = base();
        c.clients = 8;
        c.tree = Some(vec![4]);
        configs.push(("shards4", c, 0xc7a3f00d));
    }
    {
        let mut c = base();
        c.clients = 8;
        c.tree = Some(vec![2, 4]);
        c.psum = StagePolicy::Lossless;
        configs.push(("tree2x4-lossless", c, 0xc7a3f00d));
    }
    {
        let mut c = base();
        c.downlink = lossy();
        configs.push(("downlink", c, 0xc29f16bc));
    }
    {
        let mut c = base();
        c.clients = 4;
        c.participation = 0.5;
        configs.push(("participation", c, 0x6dac74c6));
    }
    {
        let mut c = base();
        c.clients = 4;
        c.weighted_aggregation = true;
        c.non_iid_alpha = Some(0.5);
        configs.push(("weighted-noniid", c, 0xacc66fe2));
    }
    {
        let mut c = base();
        c.clients = 3;
        c.links = Some(Topology::Dedicated(vec![
            LinkProfile::symmetric(100e6),
            LinkProfile::symmetric(1e6).with_drop_prob(1.0),
            LinkProfile::symmetric(10e6),
        ]));
        configs.push(("links-drop", c, 0x863f1714));
    }
    {
        let mut c = base();
        c.uplink = StagePolicy::Raw;
        configs.push(("plain", c, 0x7ab2a739));
    }
    {
        let mut c = base();
        c.links = Some(Topology::Shared(LinkProfile::symmetric(10e6).with_latency(0.02)));
        configs.push(("latency", c, 0x31c90905));
    }
    {
        let mut c = base();
        c.clients = 6;
        c.tree = Some(vec![3]);
        c.psum = StagePolicy::Lossless;
        c.downlink = lossy();
        configs.push(("edges-all-stages", c, 0x0d062213));
    }
    for (name, config, want) in configs {
        let got = checksum_of(config);
        assert_eq!(
            got, want,
            "`{name}`: plan-based engine produced 0x{got:08x}, pre-redesign code produced \
             0x{want:08x}"
        );
    }
}

/// Every checksum above trains tiny AlexNet on 3-channel input, which
/// runs `Conv2d` at stride 1, `groups == 1`, 3x3 only. These pin the
/// rest of `crates/nn`'s layer arithmetic — depthwise, stride-2, 1x1
/// and single-channel convolutions, `BatchNorm2d`, `GlobalAvgPool`,
/// the residual adds — on a raw uplink and through the smoke codec.
/// Captured at c71840e, the last commit whose `Conv2d` was the scalar
/// seven-deep loop nest; a kernel that reorders one `f32` sum moves
/// them. The raw column still holds those values; the codec column was
/// captured again with SZ2's version 2 stream (PR 23), its raw twin
/// unmoved in the same run.
#[test]
fn layer_arithmetic_off_the_alexnet_path_is_pinned() {
    use fedsz_data::DatasetKind::{Cifar10Like, FashionMnistLike};
    use fedsz_nn::models::tiny::TinyArch::{AlexNet, MobileNetV2, ResNet};
    let goldens = [
        ("mobilenetv2", MobileNetV2, Cifar10Like, 0x437dd8e0u32, 0x57a9cb76u32),
        ("resnet", ResNet, Cifar10Like, 0xd1928f6f, 0x1b161335),
        ("alexnet-1ch", AlexNet, FashionMnistLike, 0x9be45a84, 0xd7ed9c27),
    ];
    for (name, arch, dataset, want_raw, want_lossy) in goldens {
        let lossy = FlConfig { arch, dataset, ..FlConfig::smoke_test() };
        let raw = FlConfig { uplink: StagePolicy::Raw, ..lossy.clone() };
        let (got_raw, got_lossy) = (checksum_of(raw), checksum_of(lossy));
        assert_eq!(
            (got_raw, got_lossy),
            (want_raw, want_lossy),
            "`{name}`: raw 0x{got_raw:08x} / smoke codec 0x{got_lossy:08x}, captured \
             0x{want_raw:08x} / 0x{want_lossy:08x}"
        );
    }
}

/// The new uplink codec families perturb only the uplink leg.
///
/// Three pins. (1) `uplink = Raw` reproduces the raw-uplink golden
/// bit for bit. (2) Each family's smoke-config checksum is
/// pinned as its own golden (every family, stochastic dither included,
/// is fully deterministic under a fixed seed), plus one downlink
/// composition golden; a change to *any* other leg would shift these.
/// (3) Tree psum bit-parity survives every family uplink: a sharded
/// lossless-psum run is bit-identical to its flat twin, codec by
/// codec — the aggregation legs cannot tell family uplinks apart from
/// raw ones. (A family uplink is *not* expected to be bit-identical
/// to raw even at `topk:1.0`: FUC1 ships `update − reference` deltas,
/// and `(a − b) + b` is not an f32 identity.)
#[test]
fn family_uplinks_leave_the_other_legs_bit_identical() {
    let mut raw = FlConfig::smoke_test();
    raw.uplink = StagePolicy::Raw;
    assert_eq!(checksum_of(raw), 0x7ab2a739, "uplink = Raw must reproduce the raw-uplink golden");

    let families: Vec<(&str, StagePolicy, u32)> = [
        ("topk:0.5", 0xd27ad43e),
        ("topk:0.5+ef", 0xd76a9829),
        ("q8", 0x674ed809),
        ("q8s", 0x45305d4b),
        ("q4", 0xa7d3bbf3),
    ]
    .into_iter()
    .map(|(codec, want)| (codec, family(codec), want))
    .collect();
    for (codec, uplink, want) in &families {
        let mut c = FlConfig::smoke_test();
        c.uplink = uplink.clone();
        let got = checksum_of(c);
        assert_eq!(
            got, *want,
            "`{codec}` smoke golden drifted (0x{got:08x} vs 0x{want:08x}) — either the \
             codec changed numerics or another leg leaked into the uplink"
        );
    }

    let mut composed = FlConfig::smoke_test();
    composed.downlink = lossy();
    composed.uplink = family("topk:0.5");
    let got = checksum_of(composed);
    assert_eq!(
        got, 0xced4e840,
        "compressed downlink + topk:0.5 composition golden drifted (0x{got:08x})"
    );

    for (codec, uplink, _) in &families {
        let mut flat = FlConfig::smoke_test();
        flat.clients = 6;
        flat.uplink = uplink.clone();
        let mut tree = flat.clone();
        tree.tree = Some(vec![3]);
        tree.psum = StagePolicy::Lossless;
        let (flat_sum, tree_sum) = (checksum_of(flat), checksum_of(tree));
        assert_eq!(
            flat_sum, tree_sum,
            "`{codec}`: lossless tree psum broke bit-parity with the flat run \
             (0x{flat_sum:08x} vs 0x{tree_sum:08x}) — the family codec leaked into the psum leg"
        );
    }
}

/// A tiny config so each generated case trains in milliseconds.
fn tiny_base() -> FlConfig {
    let mut config = FlConfig::smoke_test();
    config.rounds = 1;
    config.data.train_per_class = 1;
    config.data.test_per_class = 1;
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary configurations either fail `plan()` with a typed
    /// `PlanError` (which the panicking constructor reports too), or
    /// the engine completes a round.
    #[test]
    fn arbitrary_configs_plan_or_fail_cleanly(
        clients in 1usize..5,
        tree in prop_oneof![
            Just(None),
            (0usize..7).prop_map(|s| Some(vec![s])),
            Just(Some(vec![2usize, 2])),
            Just(Some(vec![0usize, 2])),
            Just(Some(Vec::new())),
        ],
        participation in prop_oneof![
            Just(-0.5f64), Just(0.0), Just(0.4), Just(1.0), Just(1.5)
        ],
        lr in prop_oneof![Just(0.05f32), Just(0.0), Just(-1.0)],
        batch in prop_oneof![Just(8usize), Just(0)],
        uplink in prop_oneof![
            Just(StagePolicy::Raw),
            Just(lossy()),
            Just(StagePolicy::Priced { candidates: vec![lossy()] }),
            Just(StagePolicy::Lossless),
        ],
        psum in prop_oneof![
            Just(StagePolicy::Raw),
            Just(StagePolicy::Lossless),
            Just(StagePolicy::Priced { candidates: vec![StagePolicy::Lossless] }),
            Just(lossy()),
        ],
        downlink in prop_oneof![
            Just(StagePolicy::Raw),
            Just(lossy()),
            Just(StagePolicy::Priced { candidates: vec![lossy()] }),
            Just(family("topk:0.5")),
        ],
        links in prop_oneof![
            Just(None),
            Just(Some(Topology::Shared(LinkProfile::symmetric(10e6)))),
            Just(Some(Topology::Shared(LinkProfile {
                bandwidth_bps: -1.0,
                ..LinkProfile::default()
            }))),
            (0usize..6).prop_map(|n| Some(Topology::Dedicated(vec![LinkProfile::symmetric(5e6); n]))),
        ],
    ) {
        let mut config = tiny_base();
        config.clients = clients;
        config.tree = tree;
        config.participation = participation;
        config.lr = lr;
        config.batch_size = batch;
        config.uplink = uplink;
        config.psum = psum;
        config.downlink = downlink;
        config.links = links;

        match config.plan() {
            Err(e) => {
                // Errors are typed and actionable, never panics: the
                // Display impl names the offending field.
                let message = e.to_string();
                prop_assert!(!message.is_empty());
                // And the panicking construction path reports the same
                // condition rather than clamping it away.
                let result = std::panic::catch_unwind(|| {
                    let _ = RoundEngine::new(config.clone());
                });
                prop_assert!(
                    result.is_err(),
                    "plan rejected ({e:?}) but RoundEngine::new accepted the config"
                );
            }
            Ok(plan) => {
                // The plan derives, it does not rewrite: the tree is
                // the configured one, and under a tree with links every
                // client holds its own dedicated last mile.
                prop_assert_eq!(
                    plan.tree.as_ref().map(|t| t.fanouts().to_vec()),
                    config.tree.clone()
                );
                if config.tree.is_some() && config.links.is_some() {
                    let per_client = matches!(
                        &plan.topology,
                        Some(Topology::Dedicated(links)) if links.len() == clients
                    );
                    prop_assert!(per_client, "tree topology {:?}", plan.topology);
                }
                // And the plan actually runs: one full round, no panic.
                let mut engine = RoundEngine::from_plan(plan);
                let metrics = engine.run_round(0);
                prop_assert!(metrics.aggregated_updates + metrics.dropped_updates <= clients);
            }
        }
    }

    /// Deterministic (non-measurement-driven) valid configs are
    /// bit-identical between the config-path and plan-path engines.
    #[test]
    fn valid_configs_are_bit_identical_across_construction_paths(
        clients in 1usize..5,
        shards in prop_oneof![Just(None), (1usize..4).prop_map(Some)],
        compressed in any::<bool>(),
        weighted in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let mut config = tiny_base();
        config.clients = clients;
        config.seed = seed;
        config.data.seed = seed;
        config.tree = shards.map(|s| vec![s]);
        if !compressed {
            config.uplink = StagePolicy::Raw;
        }
        config.weighted_aggregation = weighted;
        let plan = match config.plan() {
            Ok(plan) => plan,
            Err(e) => return Err(TestCaseError::Fail(format!("unexpected plan error: {e}"))),
        };
        let mut via_config = RoundEngine::new(config.clone());
        let mut via_plan = RoundEngine::from_plan(plan);
        via_config.run_round(0);
        via_plan.run_round(0);
        prop_assert_eq!(
            via_config.global_state().to_bytes(),
            via_plan.global_state().to_bytes()
        );
    }
}

/// The DP stage's plan-time legality: each parameter's range is a row
/// of `plan()`'s range table, which the plan module's unit tests walk
/// row by row; here, the edge of the noise range is a legal policy.
#[test]
fn dp_policies_validate_at_plan_time() {
    let mut config = tiny_base();
    // Clip-only (noise multiplier 0) is a legal policy.
    config.dp = Some(DpPolicy {
        clip_norm: 1.0,
        noise_multiplier: 0.0,
        mechanism: DpMechanism::Gaussian,
        seed: 7,
    });
    assert!(config.plan().is_ok());
}

#[test]
fn dp_is_stateless_and_composes_everywhere() {
    let mut config = tiny_base();
    config.dp = Some(DpPolicy {
        clip_norm: 1.0,
        noise_multiplier: 0.5,
        mechanism: DpMechanism::Laplace,
        seed: 7,
    });
    // Legal on socket workers (a reconnect loses no DP state).
    config.plan().unwrap().validate_for_workers().unwrap();
    // DP + error feedback still trips the EF rejection: the residual
    // is the stateful part, not the noise.
    config.uplink = family("topk:0.1+ef");
    let err = config.plan().unwrap().validate_for_workers().unwrap_err();
    assert_eq!(err, PlanError::StatefulUplinkWorker);
}

/// Seeded DP noise is a deterministic part of the bits: the same
/// policy reproduces the same global checksum run over run, a
/// different noise seed diverges, and turning DP off diverges.
#[test]
fn dp_noise_is_seeded_and_deterministic() {
    let with_dp = |seed: u64| {
        let mut config = tiny_base();
        config.dp = Some(DpPolicy {
            clip_norm: 0.5,
            noise_multiplier: 1.0,
            mechanism: DpMechanism::Gaussian,
            seed,
        });
        config
    };
    let base = checksum_of(tiny_base());
    let a = checksum_of(with_dp(7));
    let b = checksum_of(with_dp(7));
    let c = checksum_of(with_dp(8));
    assert_eq!(a, b, "same DP policy must reproduce the same bits");
    assert_ne!(a, base, "DP noise must actually perturb the model");
    assert_ne!(a, c, "the DP seed must steer the noise stream");
}
