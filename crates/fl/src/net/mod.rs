//! The multi-process runtime: real federated rounds over TCP sockets.
//!
//! Everything else in this crate *simulates* communication — a
//! payload never leaves the process
//! ([`RoundEngine`](crate::engine::RoundEngine) decodes the very
//! buffer the client step encoded) and transfer time is priced
//! analytically from its length. This module is the execution mode the
//! ROADMAP's production north-star asks for: the same round, run
//! across OS processes with every byte crossing a real kernel socket
//! as a CRC-framed FMSG message ([`fedsz_net`]'s
//! `FrameReader`/`FrameWriter`, the workspace's one framing path).
//!
//! ```text
//!   fedsz worker --id 0 ─┐ Join/Update            ┌─ GlobalModel/EncodedGlobal
//!   fedsz worker --id 1 ─┤                        │
//!   fedsz worker --id 2 ─┼──► fedsz serve (root) ─┘    flat FedAvg
//!   fedsz worker --id 3 ─┘
//!
//!   fedsz worker --id 0..2 ──► fedsz serve --shard 0 ─┐ PartialSum
//!                                                     ├──► fedsz serve (root, --tree 2)
//!   fedsz worker --id 2..4 ──► fedsz serve --shard 1 ─┘    exact psum merge
//! ```
//!
//! **Roles.** [`NetServer`] runs either as the *root* (owns the global
//! model, aggregates, evaluates the round barrier) or as a *relay*
//! edge aggregator ([`Role::Relay`]): a relay joins its parent like a
//! client, fans the broadcast out to its own workers, merges their
//! updates into a [`PartialSum`](crate::agg::PartialSum) and forwards
//! one `PartialSum` frame (raw or compressed) upstream per round.
//! [`run_worker`] is the leaf: it builds its
//! [`Client`](crate::client::Client) through the same
//! [`FlConfig::make_client`](crate::FlConfig::make_client) path the
//! in-memory engine uses, trains for real, and uploads raw or
//! codec-compressed updates.
//!
//! **One pipeline.** Neither side re-implements the round. The worker
//! runs the shared client step and the server the shared fold step of
//! [`crate::step`] — the same code the in-memory engine runs on both
//! ends — so a codec, a DP stage or a validation rule exists once and
//! every runtime gets it. This module adds only what sockets need:
//! framing, the reactor, membership and retry.
//!
//! **Bit parity.** A loopback multi-process run is bit-identical to
//! the in-memory engine on the same config: client construction and
//! the client step are shared, every codec is deterministic (the
//! stochastic quantizer's dither is derived from the run seed, round
//! and client id), the root merges with the
//! exact fixed-point accumulator, and relays ship the *exact*
//! accumulator image ([`PartialSum::encode_exact`]) rather than
//! `f64`-rounded sums — so hierarchy depth and process boundaries
//! cannot move a bit (the `net_loopback` integration tests and the CI
//! smoke job assert this end to end via [`global_checksum`]).
//!
//! **The reactor.** A [`NetServer`] multiplexes every session on one
//! OS thread: a `poll(2)` readiness loop
//! ([`fedsz_net::reactor::Reactor`]) drives nonblocking sockets
//! through per-connection frame state machines, with write interest
//! registered only while a session's outbox holds bytes and each
//! round's broadcast encoded once and shared by every outbox. One
//! serve process holds hundreds of sessions without a thread per
//! socket (the `net_round` bench tracks the sessions-per-thread
//! ratio).
//!
//! **Elastic membership.** Sessions may die without killing the run.
//! A disconnected child's seat is held for
//! [`ServeConfig::reconnect_grace`]; a worker retries with id-seeded
//! jittered backoff ([`fedsz_net::Backoff`]), re-`Join`s at its
//! current round, and *resumes* — a round it already trained is
//! answered by resending the cached update frame byte-for-byte, never
//! by retraining (which would advance RNG/momentum state and break
//! parity). If a relay dies, its workers fail over to the root
//! (`WorkerConfig::fallback`), which adopts them onto the dead relay's
//! [`RoundPlan::reparent_range`](crate::RoundPlan::reparent_range) and
//! folds their raw updates
//! where the relay's partial sum would have gone — the exact
//! accumulator keeps the checksum bit-identical to the never-failed
//! run.
//!
//! **Liveness.** The root tolerates a slow or permanently vanished
//! child: the round barrier waits at most the configured round
//! timeout (holding grace for rejoinable seats), then evicts whoever
//! has not reported and aggregates the contributions it holds — the
//! socket analogue of the simulator's drop accounting.
//!
//! **Eqn 1 on measured links.** The simulator feeds the paper's
//! compress-or-not decision from configured
//! [`LinkProfile`](crate::link::LinkProfile)s; a worker has a real
//! link instead, so under a priced uplink policy (`adaptive`, `auto`)
//! [`run_worker`] measures the wall clock of its own frame sends and
//! hands the observed bandwidth and codec costs to the same
//! selection the engine runs — the inputs differ, the rule does not.
//!
//! [`PartialSum::encode_exact`]: crate::agg::PartialSum::encode_exact

// Root and relay share one round loop; a role split that needs an
// unreachable arm belongs in `server::Parent` instead.
#![deny(clippy::unreachable)]

mod membership;
pub mod server;
pub mod worker;

pub use server::{NetRound, NetServer, Role, ServeConfig, ServeReport};
pub use worker::{run_worker, WorkerConfig, WorkerReport};

use fedsz_codec::checksum::Crc32;
use fedsz_net::NetError;
use fedsz_nn::StateDict;

/// A configuration the socket runtime refuses before any socket work
/// (`ServeConfig::plan`, `WorkerConfig::plan`).
fn invalid(reason: impl std::fmt::Display) -> NetError {
    NetError::Config(reason.to_string())
}

/// The stable fingerprint of a global model, printed by `fedsz fl`,
/// `fedsz serve` and the benches so independent runs can assert bit
/// parity without shipping the model around: a CRC-32 of the
/// serialized state dict, fed piece by piece
/// ([`StateDict::visit_bytes`]) rather than from a model-sized copy.
pub fn global_checksum(global: &StateDict) -> u32 {
    let mut crc = Crc32::new();
    global.visit_bytes(|piece| crc.update(piece));
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsz_tensor::Tensor;

    #[test]
    fn checksum_is_the_crc_of_the_serialized_dict() {
        use fedsz_codec::checksum::crc32;
        let entries: [(&str, usize); 3] = [("a.weight", 1025), ("a.bias", 0), ("b", 3)];
        for count in 0..=3 {
            for empty_first in [false, true] {
                let mut dict = StateDict::new();
                for (i, &(name, len)) in entries[..count].iter().enumerate() {
                    let len = if empty_first && i == 0 { 0 } else { len };
                    let values = (0..len).map(|j| (j as f32 * 0.37).cos()).collect();
                    dict.insert(name, Tensor::from_vec(vec![len], values));
                }
                assert_eq!(global_checksum(&dict), crc32(&dict.to_bytes()), "{count} entries");
            }
        }
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        let mut dict = StateDict::new();
        dict.insert("w.weight", Tensor::filled(vec![4], 0.5));
        let a = global_checksum(&dict);
        assert_eq!(a, global_checksum(&dict.clone()), "checksum must be deterministic");
        let mut other = StateDict::new();
        other.insert("w.weight", Tensor::filled(vec![4], 0.5000001));
        assert_ne!(a, global_checksum(&other), "one moved bit must change the checksum");
    }
}
