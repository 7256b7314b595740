//! The config/plan split's contract tests.
//!
//! Three layers:
//!
//! 1. **Golden bit-parity.** The checksums below were captured by
//!    running the *pre-redesign* engine (the field-by-field
//!    `RoundEngine::new` that read `shards`/`tree`/`links`/
//!    `downlink`/`psum` directly) on a spread of representative
//!    configurations. The plan-based engine must reproduce every one
//!    bit for bit — the redesign is an API change, not a numerics
//!    change.
//! 2. **Canonicalization parity.** For arbitrary configurations, the
//!    plan either fails with a typed [`PlanError`] or its canonical
//!    tree/topology agree with the legacy field-by-field derivation
//!    rules (reimplemented here as the reference), and the
//!    `RoundEngine::new` (config) and `RoundEngine::from_plan` (plan)
//!    construction paths produce bit-identical rounds.
//! 3. **Builder equivalence.** `FlConfig::builder()` chains produce
//!    the same configs (and therefore the same bits) as field-by-field
//!    struct mutation.

use fedsz_fl::engine::RoundEngine;
use fedsz_fl::link::Topology;
use fedsz_fl::net::global_checksum;
use fedsz_fl::plan::{PlanError, StagePolicy};
use fedsz_fl::transport::InMemoryTransport;
use fedsz_fl::{
    AggregationPolicy, DownlinkMode, DpMechanism, DpPolicy, Experiment, FlConfig, LinkProfile,
    PsumMode,
};
use proptest::prelude::*;

fn checksum_of(config: FlConfig) -> u32 {
    let mut exp = Experiment::new(config);
    exp.run();
    global_checksum(exp.global_state())
}

/// Checksums captured from the pre-redesign engine (same seed, same
/// shim RNG, synchronous deterministic configurations only — adaptive
/// and buffered modes key on measured wall time and are exempt from
/// bit-parity by design, as they were across transports).
#[test]
fn plan_based_engine_reproduces_pre_redesign_checksums() {
    let base = FlConfig::smoke_test;
    let mut configs: Vec<(&str, FlConfig, u32)> = Vec::new();
    configs.push(("smoke", base(), 0x82c3c3f4));
    {
        let mut c = base();
        c.clients = 8;
        c.shards = Some(4);
        configs.push(("shards4", c, 0xf4b41e60));
    }
    {
        let mut c = base();
        c.clients = 8;
        c.tree = Some(vec![2, 4]);
        c.psum = PsumMode::Lossless;
        configs.push(("tree2x4-lossless", c, 0xf4b41e60));
    }
    {
        let mut c = base();
        c.downlink = DownlinkMode::Compressed;
        configs.push(("downlink", c, 0xe49849c8));
    }
    {
        let mut c = base();
        c.clients = 4;
        c.participation = 0.5;
        configs.push(("participation", c, 0x8848b4fb));
    }
    {
        let mut c = base();
        c.clients = 4;
        c.weighted_aggregation = true;
        c.non_iid_alpha = Some(0.5);
        configs.push(("weighted-noniid", c, 0xf05591f1));
    }
    {
        let mut c = base();
        c.clients = 3;
        c.links = Some(vec![
            LinkProfile::symmetric(100e6),
            LinkProfile::symmetric(1e6).with_drop_prob(1.0),
            LinkProfile::symmetric(10e6),
        ]);
        configs.push(("links-drop", c, 0x8185b97a));
    }
    {
        let mut c = base();
        c.compression = None;
        configs.push(("plain", c, 0x7ab2a739));
    }
    {
        let mut c = base();
        c.latency_secs = 0.02;
        configs.push(("latency", c, 0x82c3c3f4));
    }
    {
        let mut c = base();
        c.clients = 6;
        c.shards = Some(3);
        c.edge_links = Some(vec![LinkProfile::symmetric(1e9); 3]);
        c.psum = PsumMode::Lossless;
        c.downlink = DownlinkMode::Compressed;
        configs.push(("edges-all-stages", c, 0x6bb28c83));
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

/// The new uplink codec families perturb only the uplink leg.
///
/// Three pins. (1) An explicit `uplink = Raw` override reproduces the
/// legacy no-compression golden bit for bit — the override machinery
/// adds no bits of its own. (2) Each family's smoke-config checksum is
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
    let mut raw_override = FlConfig::smoke_test();
    raw_override.uplink = Some(StagePolicy::Raw);
    assert_eq!(
        checksum_of(raw_override),
        0x7ab2a739,
        "uplink = Raw must reproduce the legacy no-compression golden"
    );

    let families: Vec<(&str, StagePolicy, u32)> = vec![
        ("topk:0.5", StagePolicy::TopK { ratio: 0.5, error_feedback: false }, 0xd27ad43e),
        ("topk:0.5+ef", StagePolicy::TopK { ratio: 0.5, error_feedback: true }, 0xd76a9829),
        (
            "q8",
            StagePolicy::Quant { bits: 8, stochastic: false, error_feedback: false },
            0x674ed809,
        ),
        (
            "q8s",
            StagePolicy::Quant { bits: 8, stochastic: true, error_feedback: false },
            0x45305d4b,
        ),
        (
            "q4",
            StagePolicy::Quant { bits: 4, stochastic: false, error_feedback: false },
            0xa7d3bbf3,
        ),
    ];
    for (codec, uplink, want) in &families {
        let mut c = FlConfig::smoke_test();
        c.uplink = Some(uplink.clone());
        let got = checksum_of(c);
        assert_eq!(
            got, *want,
            "`{codec}` smoke golden drifted (0x{got:08x} vs 0x{want:08x}) — either the \
             codec changed numerics or another leg leaked into the uplink"
        );
    }

    let mut composed = FlConfig::smoke_test();
    composed.downlink = DownlinkMode::Compressed;
    composed.uplink = Some(StagePolicy::TopK { ratio: 0.5, error_feedback: false });
    let got = checksum_of(composed);
    assert_eq!(
        got, 0x7a2be90c,
        "compressed downlink + topk:0.5 composition golden drifted (0x{got:08x})"
    );

    for (codec, uplink, _) in &families {
        let mut flat = FlConfig::smoke_test();
        flat.clients = 6;
        flat.uplink = Some(uplink.clone());
        let mut tree = flat.clone();
        tree.shards = Some(3);
        tree.psum = PsumMode::Lossless;
        let (flat_sum, tree_sum) = (checksum_of(flat), checksum_of(tree));
        assert_eq!(
            flat_sum, tree_sum,
            "`{codec}`: lossless tree psum broke bit-parity with the flat run \
             (0x{flat_sum:08x} vs 0x{tree_sum:08x}) — the family codec leaked into the psum leg"
        );
    }
}

/// The construction paths are one path: `RoundEngine::new(config)` is
/// `from_plan(config.plan()?)`, bit for bit.
#[test]
fn config_and_plan_construction_paths_are_bit_identical() {
    let mut config = FlConfig::smoke_test();
    config.clients = 4;
    config.shards = Some(2);
    config.psum = PsumMode::Lossless;
    config.downlink = DownlinkMode::Compressed;
    let mut via_config = RoundEngine::new(config.clone(), Box::<InMemoryTransport>::default());
    let plan = config.plan().expect("valid config");
    let mut via_plan = RoundEngine::from_plan(plan, Box::<InMemoryTransport>::default());
    for round in 0..config.rounds {
        via_config.run_round(round);
        via_plan.run_round(round);
        assert_eq!(
            via_config.global_state().to_bytes(),
            via_plan.global_state().to_bytes(),
            "construction paths diverged at round {round}"
        );
    }
}

/// The builder names only what differs and produces the exact same
/// config (hence the exact same bits) as struct mutation.
#[test]
fn builder_matches_field_by_field_configuration() {
    let built = FlConfig::builder()
        .clients(8)
        .rounds(2)
        .seed(7)
        .train_per_class(4)
        .tree(vec![2, 4])
        .psum(PsumMode::Lossless)
        .downlink(DownlinkMode::Compressed)
        .build();
    let mut manual = FlConfig::paper_default(built.arch, built.dataset);
    manual.clients = 8;
    manual.rounds = 2;
    manual.seed = 7;
    manual.data.seed = 7;
    manual.data.train_per_class = 4;
    manual.tree = Some(vec![2, 4]);
    manual.psum = PsumMode::Lossless;
    manual.downlink = DownlinkMode::Compressed;
    assert_eq!(format!("{built:?}"), format!("{manual:?}"));
    let plan = built.plan().expect("builder output is valid");
    assert_eq!(plan.shard_count(), Some(2));
    assert_eq!(plan.psum, StagePolicy::Lossless);
}

/// The builder's codec shorthands carry their parameters into the
/// plan verbatim, and `plan()` — not the builder — is where bad
/// parameters become typed errors, so a builder chain cannot smuggle
/// an illegal codec past validation.
#[test]
fn builder_codec_shorthands_validate_at_plan_time() {
    let plan = FlConfig::builder()
        .clients(2)
        .rounds(1)
        .uplink_topk(0.25, true)
        .build()
        .plan()
        .expect("topk:0.25+ef is a legal simulation uplink");
    assert_eq!(plan.uplink, StagePolicy::TopK { ratio: 0.25, error_feedback: true });

    let plan = FlConfig::builder()
        .clients(2)
        .rounds(1)
        .uplink_quant(8, true, false)
        .build()
        .plan()
        .expect("q8s is a legal uplink");
    assert_eq!(
        plan.uplink,
        StagePolicy::Quant { bits: 8, stochastic: true, error_feedback: false }
    );

    assert_eq!(
        FlConfig::builder().uplink_topk(0.0, false).build().plan().unwrap_err(),
        PlanError::BadTopKRatio { ratio: 0.0 },
        "a zero keep-ratio must fail at plan time"
    );
    assert!(
        matches!(
            FlConfig::builder().uplink_topk(f64::NAN, false).build().plan().unwrap_err(),
            PlanError::BadTopKRatio { ratio } if ratio.is_nan()
        ),
        "a NaN keep-ratio must fail at plan time"
    );
    assert_eq!(
        FlConfig::builder().uplink_quant(6, false, false).build().plan().unwrap_err(),
        PlanError::BadQuantBits { bits: 6 },
        "a 6-bit width must fail at plan time"
    );
    assert_eq!(
        FlConfig::builder()
            .uplink_quant(8, false, true)
            .aggregation(AggregationPolicy::Buffered { target: 2 })
            .build()
            .plan()
            .unwrap_err(),
        PlanError::StatefulUplinkBuffered,
        "the builder must not bypass the EF/buffered legality check"
    );
}

/// The legacy (pre-redesign) field-by-field canonicalization rules,
/// reimplemented as the proptest reference: `tree` silently outranked
/// `shards`, `shards` was clamped into `[1, clients]`, and `links`
/// outranked `bandwidth_bps`.
fn legacy_fanouts(config: &FlConfig) -> Option<Vec<usize>> {
    config.tree.clone().or_else(|| config.shards.map(|s| vec![s.clamp(1, config.clients.max(1))]))
}

#[derive(Debug, PartialEq)]
enum LegacyTopology {
    None,
    Shared,
    Dedicated,
    Tree,
}

fn legacy_topology(config: &FlConfig) -> LegacyTopology {
    let tree = legacy_fanouts(config).is_some();
    match (&config.links, config.bandwidth_bps, tree) {
        (Some(_), _, true) | (None, Some(_), true) => LegacyTopology::Tree,
        (Some(_), _, false) => LegacyTopology::Dedicated,
        (None, Some(_), false) => LegacyTopology::Shared,
        (None, None, _) => LegacyTopology::None,
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
    /// `PlanError`, or the plan's canonical topology agrees with the
    /// legacy field-by-field rules and the engine completes a round.
    #[test]
    fn arbitrary_configs_plan_or_fail_cleanly(
        clients in 1usize..5,
        shards in prop_oneof![
            Just(None),
            (0usize..7).prop_map(Some),
        ],
        tree in prop_oneof![
            Just(None),
            Just(Some(vec![2usize])),
            Just(Some(vec![2usize, 2])),
            Just(Some(vec![0usize, 2])),
            Just(Some(Vec::new())),
        ],
        participation in prop_oneof![
            Just(-0.5f64), Just(0.0), Just(0.4), Just(1.0), Just(1.5)
        ],
        lr in prop_oneof![Just(0.05f32), Just(0.0), Just(-1.0)],
        batch in prop_oneof![Just(8usize), Just(0)],
        compressed in any::<bool>(),
        adaptive in any::<bool>(),
        psum in prop_oneof![
            Just(PsumMode::Raw), Just(PsumMode::Lossless), Just(PsumMode::Adaptive)
        ],
        downlink in prop_oneof![
            Just(DownlinkMode::Raw),
            Just(DownlinkMode::Compressed),
            Just(DownlinkMode::Adaptive),
        ],
        link_count in prop_oneof![Just(None), (0usize..6).prop_map(Some)],
        bandwidth in prop_oneof![Just(None), Just(Some(10e6)), Just(Some(-1.0))],
    ) {
        let mut config = tiny_base();
        config.clients = clients;
        config.shards = shards;
        config.tree = tree;
        config.participation = participation;
        config.lr = lr;
        config.batch_size = batch;
        if !compressed {
            config.compression = None;
        }
        if adaptive {
            config.uplink = config
                .compression
                .map(|c| StagePolicy::Adaptive { compressed: Box::new(StagePolicy::Lossy(c)) });
        }
        config.psum = psum;
        config.downlink = downlink;
        config.links = link_count.map(|n| vec![LinkProfile::symmetric(5e6); n]);
        config.bandwidth_bps = bandwidth;

        match config.plan() {
            Err(e) => {
                // Errors are typed and actionable, never panics: the
                // Display impl names the offending field.
                let message = e.to_string();
                prop_assert!(!message.is_empty());
                // And the panicking construction path reports the same
                // condition rather than clamping it away.
                let result = std::panic::catch_unwind(|| {
                    let _ = RoundEngine::new(
                        config.clone(),
                        Box::<InMemoryTransport>::default(),
                    );
                });
                prop_assert!(
                    result.is_err(),
                    "plan rejected ({e:?}) but RoundEngine::new accepted the config"
                );
            }
            Ok(plan) => {
                // Canonical tree agrees with the legacy rules wherever
                // the legacy rules did not clamp or prefer (any such
                // config fails plan() and cannot reach this branch).
                prop_assert_eq!(
                    plan.tree_fanouts().map(<[usize]>::to_vec),
                    legacy_fanouts(&config),
                    "canonical tree diverged from the legacy derivation"
                );
                let got = match &plan.topology {
                    None => LegacyTopology::None,
                    Some(Topology::Shared(_)) => LegacyTopology::Shared,
                    Some(Topology::Dedicated(_)) => LegacyTopology::Dedicated,
                    Some(Topology::Tree { .. }) => LegacyTopology::Tree,
                };
                prop_assert_eq!(
                    got,
                    legacy_topology(&config),
                    "canonical topology diverged from the legacy derivation"
                );
                // And the plan actually runs: one full round, no panic.
                let mut engine =
                    RoundEngine::from_plan(plan, Box::<InMemoryTransport>::default());
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
        config.shards = shards.filter(|&s| s <= clients);
        if !compressed {
            config.compression = None;
        }
        config.weighted_aggregation = weighted;
        let plan = match config.plan() {
            Ok(plan) => plan,
            Err(PlanError::ShardsOutOfRange { .. }) => return Ok(()),
            Err(e) => return Err(TestCaseError::Fail(format!("unexpected plan error: {e}"))),
        };
        let mut via_config =
            RoundEngine::new(config.clone(), Box::<InMemoryTransport>::default());
        let mut via_plan = RoundEngine::from_plan(plan, Box::<InMemoryTransport>::default());
        via_config.run_round(0);
        via_plan.run_round(0);
        prop_assert_eq!(
            via_config.global_state().to_bytes(),
            via_plan.global_state().to_bytes()
        );
    }
}

/// The DP stage's plan-time legality: bad policies fail with typed
/// errors before anything runs, and because the stage is stateless
/// (noise is a pure function of `(seed, round, client)`), a legal
/// policy composes with every runtime and aggregation policy — only
/// error feedback's residual remains stateful.
#[test]
fn dp_policies_validate_at_plan_time() {
    let policy = |clip: f64, noise: f64| DpPolicy {
        clip_norm: clip,
        noise_multiplier: noise,
        mechanism: DpMechanism::Gaussian,
        seed: 7,
    };
    let mut config = tiny_base();
    config.dp = Some(policy(0.0, 0.5));
    assert_eq!(config.plan().unwrap_err(), PlanError::BadDpClipNorm(0.0));
    config.dp = Some(policy(f64::NAN, 0.5));
    assert!(matches!(config.plan().unwrap_err(), PlanError::BadDpClipNorm(_)));
    config.dp = Some(policy(1.0, -0.5));
    assert_eq!(config.plan().unwrap_err(), PlanError::BadDpNoiseMultiplier(-0.5));
    config.dp = Some(policy(1.0, f64::INFINITY));
    assert!(matches!(config.plan().unwrap_err(), PlanError::BadDpNoiseMultiplier(_)));
    // Clip-only (noise multiplier 0) is a legal policy.
    config.dp = Some(policy(1.0, 0.0));
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
    // Legal on socket workers (a reconnect loses no DP state)...
    config.plan().unwrap().validate_for_workers().unwrap();
    // ...and under buffered aggregation (no cross-round residual).
    config.aggregation = AggregationPolicy::Buffered { target: 1 };
    config.plan().unwrap();
    // DP + error feedback still trips the EF rejections: the residual
    // is the stateful part, not the noise.
    config.aggregation = AggregationPolicy::Synchronous;
    config.uplink = Some(StagePolicy::TopK { ratio: 0.1, error_feedback: true });
    let err = config.plan().unwrap().validate_for_workers().unwrap_err();
    assert_eq!(err, PlanError::StatefulUplinkWorker);
    config.aggregation = AggregationPolicy::Buffered { target: 1 };
    assert_eq!(config.plan().unwrap_err(), PlanError::StatefulUplinkBuffered);
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
