//! Integration tests for the in-process round engine: upstream byte
//! accounting, heterogeneous-link virtual-time accounting, and
//! buffered-asynchronous aggregation.

use fedsz_fl::{AggregationPolicy, Experiment, FlConfig, LinkProfile, StagePolicy, Topology};

fn quick_config() -> FlConfig {
    let mut config = FlConfig::smoke_test();
    config.rounds = 3;
    config.data.train_per_class = 8;
    config.data.test_per_class = 4;
    config
}

/// Total upstream payload bytes of a run.
fn upstream_bytes_of(config: &FlConfig) -> usize {
    Experiment::new(config.clone()).run().iter().map(|m| m.upstream_bytes).sum()
}

#[test]
fn wire_accounting_sees_compression_and_partial_participation() {
    // FedSZ must shrink the upstream traffic the links are charged.
    let mut config = quick_config();
    let compressed = upstream_bytes_of(&config);
    config.uplink = StagePolicy::Raw;
    let plain = upstream_bytes_of(&config);
    assert!(compressed * 2 < plain, "upstream should at least halve: {compressed} vs {plain}");

    // Half the cohort uploads per round: upstream must be well below a
    // full-participation run's.
    let mut config = quick_config();
    config.clients = 4;
    config.rounds = 2;
    config.participation = 0.5;
    config.non_iid_alpha = Some(0.5);
    config.weighted_aggregation = true;
    let half = upstream_bytes_of(&config);
    config.participation = 1.0;
    let full = upstream_bytes_of(&config);
    assert!(
        half * 3 < full * 2,
        "half cohort should upload well under 2/3 of full: {half} vs {full}"
    );
}

#[test]
fn heterogeneous_links_do_not_serialize_on_one_pipe() {
    // Four clients on dedicated 10 Mbps links must finish their uploads
    // in roughly the time one client takes on the shared 10 Mbps pipe.
    let mut shared = quick_config();
    shared.clients = 4;
    shared.rounds = 1;
    shared.links = Some(Topology::Shared(LinkProfile::symmetric(10e6)));
    let shared_metrics = Experiment::new(shared.clone()).run_round(0);

    let mut dedicated = shared.clone();
    dedicated.links = Some(Topology::Dedicated(vec![LinkProfile::symmetric(10e6); 4]));
    let dedicated_metrics = Experiment::new(dedicated).run_round(0);

    assert!(
        dedicated_metrics.comm_secs < shared_metrics.comm_secs / 2.0,
        "dedicated links must overlap: {:.4}s vs shared {:.4}s",
        dedicated_metrics.comm_secs,
        shared_metrics.comm_secs
    );
    // Identical payloads either way: the topology only changes timing.
    assert_eq!(dedicated_metrics.upstream_bytes, shared_metrics.upstream_bytes);
}

#[test]
fn slow_links_dominate_round_time_in_heterogeneous_cohorts() {
    let mut config = quick_config();
    config.clients = 2;
    config.rounds = 1;
    config.links = Some(Topology::Dedicated(vec![
        LinkProfile::symmetric(100e6),
        LinkProfile::symmetric(0.5e6), // ~200x slower uplink
    ]));
    let metrics = Experiment::new(config).run_round(0);
    // comm time on dedicated links == the slowest single transfer.
    let payload_bits = metrics.update_bytes * 8.0;
    let slow_transfer = payload_bits / 0.5e6;
    assert!(
        (metrics.comm_secs - slow_transfer).abs() / slow_transfer < 0.1,
        "comm {:.4}s should track the slow link's {:.4}s",
        metrics.comm_secs,
        slow_transfer
    );
}

#[test]
fn buffered_async_policy_converges_on_the_smoke_config() {
    let mut config = quick_config();
    config.clients = 4;
    config.rounds = 6;
    // One straggler on a slow link; aggregate after 3 of 4 arrivals.
    config.links = Some(Topology::Dedicated(vec![
        LinkProfile::symmetric(50e6),
        LinkProfile::symmetric(50e6),
        LinkProfile::symmetric(50e6),
        LinkProfile::symmetric(1e6).with_slowdown(20.0),
    ]));
    config.aggregation = AggregationPolicy::Buffered { target: 3 };
    let metrics = Experiment::new(config).run();
    let best = metrics.iter().map(|m| m.test_accuracy).fold(0.0f64, f64::max);
    assert!(best > 0.15, "buffered-async run stuck at {best:.3}");
    // Stale straggler updates must actually flow into later rounds.
    let stale_total: usize = metrics.iter().map(|m| m.stale_updates).sum();
    assert!(stale_total > 0, "straggler updates never applied");
    // The straggler must not gate round completion time.
    let sync_round = metrics[0].round_secs;
    assert!(sync_round.is_finite() && sync_round > 0.0);
}

#[test]
fn buffered_rounds_complete_faster_than_synchronous_with_stragglers() {
    let mut config = quick_config();
    config.clients = 3;
    config.rounds = 1;
    let links = vec![
        LinkProfile::symmetric(50e6),
        LinkProfile::symmetric(50e6),
        LinkProfile::symmetric(50e6).with_slowdown(100.0),
    ];
    config.links = Some(Topology::Dedicated(links));
    config.aggregation = AggregationPolicy::Synchronous;
    let sync = Experiment::new(config.clone()).run_round(0);
    config.aggregation = AggregationPolicy::Buffered { target: 2 };
    let buffered = Experiment::new(config).run_round(0);
    assert!(
        buffered.round_secs < sync.round_secs / 2.0,
        "buffered {:.3}s should beat synchronous {:.3}s by skipping the straggler",
        buffered.round_secs,
        sync.round_secs
    );
}

#[test]
fn adaptive_uplink_sends_raw_on_fast_links() {
    // Eqn 1: at terabit speeds codec time can never pay for itself, so
    // after the probe round every client should ship raw bytes.
    let mut config = quick_config();
    config.clients = 2;
    config.rounds = 3;
    config.links = Some(Topology::Dedicated(vec![LinkProfile::symmetric(1e12); 2]));
    config.uplink = StagePolicy::Priced { candidates: vec![config.uplink] };
    let metrics = Experiment::new(config.clone()).run();
    assert!(metrics[0].ratio > 1.2, "probe round should compress");
    let last = metrics.last().unwrap();
    assert!(
        (last.ratio - 1.0).abs() < 0.05,
        "fast links should skip compression after probing, ratio {:.2}",
        last.ratio
    );

    // And on a crawling 1 Mbps link compression must stay on.
    config.links = Some(Topology::Dedicated(vec![LinkProfile::symmetric(1e6); 2]));
    let metrics = Experiment::new(config).run();
    assert!(metrics.iter().all(|m| m.ratio > 1.2), "slow links must keep compressing");
}

#[test]
fn dropped_uploads_are_excluded_but_learning_continues() {
    let mut config = quick_config();
    config.clients = 4;
    config.rounds = 4;
    config.links = Some(Topology::Dedicated(vec![
        LinkProfile::symmetric(10e6),
        LinkProfile::symmetric(10e6).with_drop_prob(0.5),
        LinkProfile::symmetric(10e6),
        LinkProfile::symmetric(10e6).with_drop_prob(0.5),
    ]));
    let metrics = Experiment::new(config).run();
    let drops: usize = metrics.iter().map(|m| m.dropped_updates).sum();
    assert!(drops > 0, "a 50% drop link should lose something over 4 rounds");
    for m in &metrics {
        assert_eq!(m.aggregated_updates + m.dropped_updates, 4, "round {}", m.round);
    }
}
