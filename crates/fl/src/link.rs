//! Per-client heterogeneous links and the virtual-time event queue.
//!
//! The paper emulates one constrained server link; real cross-device
//! cohorts are heterogeneous — a phone on 3G next to a desktop on fibre,
//! with stragglers and lossy last miles. A [`LinkProfile`] describes one
//! client's path to the server (bandwidth, per-message latency, an
//! optional drop probability and a compute-slowdown factor for
//! stragglers), and [`Topology`] states how those paths compose: a
//! single [`Topology::Shared`] pipe that serializes every upload (the
//! paper's setting) or [`Topology::Dedicated`] per-client links that
//! overlap in time. Under an aggregation tree every client keeps its
//! own last mile to its leaf aggregator, so the plan hands the tree
//! dedicated links; the [`agg`](crate::agg) subsystem prices the
//! inter-aggregator hops above them level by level.
//!
//! [`schedule`] is the virtual clock: it turns "client `i` finished
//! computing at `t_i` with `b_i` bytes to send" departure events into
//! server-side [`Arrival`]s, ordering them on a simulated timeline
//! without ever sleeping. The round engine aggregates from this queue
//! synchronously: the round ends at the last delivered arrival.
//!
//! This module is the repo's one timing model: the legacy
//! `SimulatedNetwork` type computed the same `latency + bytes·8/bw`
//! quantity and was folded into [`LinkProfile::transfer_secs`].

/// One client's network path to the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// Uplink bandwidth in bits/second.
    pub bandwidth_bps: f64,
    /// Fixed per-message latency in seconds.
    pub latency_secs: f64,
    /// Probability that an upload is lost in transit (`0.0` = reliable).
    pub drop_prob: f64,
    /// Multiplier on the client's compute time (`1.0` = nominal; larger
    /// values model stragglers on slow hardware).
    pub compute_slowdown: f64,
}

impl Default for LinkProfile {
    /// The paper's 10 Mbps edge uplink, reliable and straggler-free.
    fn default() -> Self {
        Self::symmetric(10e6)
    }
}

impl LinkProfile {
    /// A reliable zero-latency link at `bandwidth_bps`.
    ///
    /// # Panics
    ///
    /// Panics unless the bandwidth is positive and finite.
    pub fn symmetric(bandwidth_bps: f64) -> Self {
        assert!(bandwidth_bps.is_finite() && bandwidth_bps > 0.0, "bandwidth must be positive");
        Self { bandwidth_bps, latency_secs: 0.0, drop_prob: 0.0, compute_slowdown: 1.0 }
    }

    /// Builder: sets per-message latency.
    ///
    /// # Panics
    ///
    /// Panics if the latency is negative or non-finite.
    pub fn with_latency(mut self, latency_secs: f64) -> Self {
        assert!(latency_secs.is_finite() && latency_secs >= 0.0, "latency must be non-negative");
        self.latency_secs = latency_secs;
        self
    }

    /// Builder: sets the upload drop probability.
    ///
    /// # Panics
    ///
    /// Panics unless the probability is in `[0, 1]`.
    pub fn with_drop_prob(mut self, drop_prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&drop_prob), "drop probability must be in [0, 1]");
        self.drop_prob = drop_prob;
        self
    }

    /// Builder: sets the straggler compute-slowdown multiplier.
    ///
    /// # Panics
    ///
    /// Panics unless the factor is at least 1.
    pub fn with_slowdown(mut self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor >= 1.0, "slowdown must be >= 1");
        self.compute_slowdown = factor;
        self
    }

    /// Wire seconds to move `bytes` over this link (latency + serialization).
    pub fn transfer_secs(&self, bytes: usize) -> f64 {
        self.latency_secs + bytes as f64 * 8.0 / self.bandwidth_bps
    }
}

/// How client links compose at the server.
#[derive(Debug, Clone, PartialEq)]
pub enum Topology {
    /// One pipe shared by every client: uploads serialize, as in the
    /// paper's single constrained server link.
    Shared(LinkProfile),
    /// One independent link per client: uploads overlap in virtual time.
    Dedicated(Vec<LinkProfile>),
}

impl Topology {
    /// The link a given client transmits over.
    ///
    /// # Panics
    ///
    /// Panics when a dedicated topology has no profile for `client`.
    pub fn link(&self, client: usize) -> &LinkProfile {
        match self {
            Topology::Shared(link) => link,
            Topology::Dedicated(links) => {
                links.get(client).unwrap_or_else(|| panic!("no link profile for client {client}"))
            }
        }
    }
}

/// A client finishing local compute with an update ready to send.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Departure {
    /// Client index.
    pub client: usize,
    /// Virtual time the payload is ready (compute already scaled by the
    /// client's `compute_slowdown`).
    pub ready_secs: f64,
    /// Bytes on the wire.
    pub bytes: usize,
    /// Whether the transit loses this upload.
    pub dropped: bool,
}

/// A (possibly lost) upload as the server observes it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Client index.
    pub client: usize,
    /// When the client finished compute (virtual seconds).
    pub ready_secs: f64,
    /// When the server holds the full payload; infinite for drops.
    pub done_secs: f64,
    /// Pure wire time for this payload on its link.
    pub transfer_secs: f64,
    /// Whether the upload was lost.
    pub dropped: bool,
}

/// Runs the virtual-time event queue: orders departures on the simulated
/// clock and computes when each upload completes at the server.
///
/// On a [`Topology::Shared`] pipe an upload must wait for the pipe to
/// free up (`start = max(ready, previous done)`); dedicated links never
/// queue.
pub fn schedule(departures: &[Departure], topology: &Topology) -> Vec<Arrival> {
    let mut arrivals: Vec<Arrival> = Vec::with_capacity(departures.len());
    match topology {
        Topology::Dedicated(_) => {
            for d in departures {
                let transfer = topology.link(d.client).transfer_secs(d.bytes);
                arrivals.push(Arrival {
                    client: d.client,
                    ready_secs: d.ready_secs,
                    done_secs: if d.dropped { f64::INFINITY } else { d.ready_secs + transfer },
                    transfer_secs: transfer,
                    dropped: d.dropped,
                });
            }
        }
        Topology::Shared(link) => {
            // The pipe serves uploads in the order clients become ready.
            let mut order: Vec<usize> = (0..departures.len()).collect();
            order.sort_by(|&a, &b| {
                departures[a]
                    .ready_secs
                    .total_cmp(&departures[b].ready_secs)
                    .then(departures[a].client.cmp(&departures[b].client))
            });
            let mut pipe_free = 0.0f64;
            for idx in order {
                let d = &departures[idx];
                let transfer = link.transfer_secs(d.bytes);
                if d.dropped {
                    // A lost upload never occupies the server pipe.
                    arrivals.push(Arrival {
                        client: d.client,
                        ready_secs: d.ready_secs,
                        done_secs: f64::INFINITY,
                        transfer_secs: transfer,
                        dropped: true,
                    });
                    continue;
                }
                let start = pipe_free.max(d.ready_secs);
                pipe_free = start + transfer;
                arrivals.push(Arrival {
                    client: d.client,
                    ready_secs: d.ready_secs,
                    done_secs: pipe_free,
                    transfer_secs: transfer,
                    dropped: false,
                });
            }
        }
    }
    arrivals
}

/// Time the network is busy with the round's uploads: the serialized sum
/// on a shared pipe, the slowest single transfer when links overlap
/// (a tree's edge→root forwards are accounted in the round-completion
/// time, not here).
pub fn comm_secs(arrivals: &[Arrival], topology: &Topology) -> f64 {
    let delivered = arrivals.iter().filter(|a| !a.dropped);
    match topology {
        Topology::Shared(_) => delivered.map(|a| a.transfer_secs).sum(),
        Topology::Dedicated(_) => delivered.map(|a| a.transfer_secs).fold(0.0, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn departures(n: usize, bytes: usize) -> Vec<Departure> {
        (0..n).map(|client| Departure { client, ready_secs: 0.0, bytes, dropped: false }).collect()
    }

    /// The arrival of `client`'s upload.
    fn arrival(arrivals: &[Arrival], client: usize) -> &Arrival {
        arrivals.iter().find(|a| a.client == client).expect("every departure arrives")
    }

    #[test]
    fn shared_pipe_serializes_uploads() {
        let topo = Topology::Shared(LinkProfile::symmetric(8e6));
        let arrivals = schedule(&departures(4, 1_000_000), &topo);
        // 1 MB at 8 Mbps = 1 s each, queued back to back.
        let dones: Vec<f64> = arrivals.iter().map(|a| a.done_secs).collect();
        assert_eq!(dones, vec![1.0, 2.0, 3.0, 4.0]);
        assert!((comm_secs(&arrivals, &topo) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn dedicated_links_overlap() {
        let links = vec![LinkProfile::symmetric(8e6); 4];
        let topo = Topology::Dedicated(links);
        let arrivals = schedule(&departures(4, 1_000_000), &topo);
        assert!(arrivals.iter().all(|a| (a.done_secs - 1.0).abs() < 1e-9));
        // Four parallel links take as long as one transfer, not four.
        assert!((comm_secs(&arrivals, &topo) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn heterogeneous_links_order_arrivals() {
        let topo = Topology::Dedicated(vec![
            LinkProfile::symmetric(1e6),   // slow
            LinkProfile::symmetric(100e6), // fast
        ]);
        let arrivals = schedule(&departures(2, 125_000), &topo);
        let (slow, fast) = (arrival(&arrivals, 0), arrival(&arrivals, 1));
        assert!(fast.done_secs < slow.done_secs / 10.0, "fast link should arrive first");
    }

    #[test]
    fn shared_pipe_respects_ready_times() {
        let topo = Topology::Shared(LinkProfile::symmetric(8e6));
        let deps = vec![
            Departure { client: 0, ready_secs: 10.0, bytes: 1_000_000, dropped: false },
            Departure { client: 1, ready_secs: 0.0, bytes: 1_000_000, dropped: false },
        ];
        let arrivals = schedule(&deps, &topo);
        // Client 1 is ready first and transmits first; client 0's upload
        // starts at its ready time (pipe already free).
        assert!((arrival(&arrivals, 1).done_secs - 1.0).abs() < 1e-9);
        assert!((arrival(&arrivals, 0).done_secs - 11.0).abs() < 1e-9);
    }

    #[test]
    fn drops_never_arrive_and_free_the_pipe() {
        let topo = Topology::Shared(LinkProfile::symmetric(8e6));
        let deps = vec![
            Departure { client: 0, ready_secs: 0.0, bytes: 1_000_000, dropped: true },
            Departure { client: 1, ready_secs: 0.0, bytes: 1_000_000, dropped: false },
        ];
        let arrivals = schedule(&deps, &topo);
        let (lost, kept) = (arrival(&arrivals, 0), arrival(&arrivals, 1));
        assert!((kept.done_secs - 1.0).abs() < 1e-9, "drop must not hold the pipe");
        assert!(lost.done_secs.is_infinite() && lost.dropped);
        assert!((comm_secs(&arrivals, &topo) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn latency_adds_per_message() {
        let link = LinkProfile::symmetric(1e9).with_latency(0.05);
        assert!((link.transfer_secs(0) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn straggler_slowdown_validates() {
        let link = LinkProfile::symmetric(1e6).with_slowdown(8.0);
        assert_eq!(link.compute_slowdown, 8.0);
    }

    #[test]
    #[should_panic(expected = "slowdown must be >= 1")]
    fn sub_unit_slowdown_rejected() {
        let _ = LinkProfile::symmetric(1e6).with_slowdown(0.5);
    }

    #[test]
    #[should_panic(expected = "drop probability must be in [0, 1]")]
    fn bad_drop_prob_rejected() {
        let _ = LinkProfile::symmetric(1e6).with_drop_prob(1.5);
    }

    #[test]
    fn paper_transfer_time_matches_arithmetic() {
        // 10 Mbps, 230 MB -> 184 s (the paper's uncompressed AlexNet);
        // this was the legacy SimulatedNetwork's defining check.
        let link = LinkProfile::symmetric(10e6);
        assert!((link.transfer_secs(230_000_000) - 184.0).abs() < 1e-9);
    }
}
