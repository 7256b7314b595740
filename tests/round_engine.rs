//! Integration tests for the in-process round engine: upstream byte
//! accounting, heterogeneous-link virtual-time accounting, and the
//! synchronous barrier.

use fedsz_fl::{Experiment, FlConfig, LinkProfile, StagePolicy, Topology};

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
    // The second input makes every client a 100x compute straggler.
    for slowdown in [1.0, 100.0] {
        let mut config = quick_config();
        config.clients = 2;
        config.rounds = 1;
        config.links = Some(Topology::Dedicated(vec![
            LinkProfile::symmetric(100e6).with_slowdown(slowdown),
            LinkProfile::symmetric(0.5e6).with_slowdown(slowdown), // ~200x slower uplink
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
        // The round is a barrier: it ends after the last client's
        // straggler-scaled ready time, which is at least the cohort's
        // mean (the downlink is raw, so there is no broadcast decode).
        let mean_ready = slowdown * (metrics.train_secs + metrics.compress_secs);
        assert!(
            metrics.round_secs >= mean_ready,
            "slowdown {slowdown}: round {:.3}s ended before the mean ready time {mean_ready:.3}s",
            metrics.round_secs
        );
    }
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
