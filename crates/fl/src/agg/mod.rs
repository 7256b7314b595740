//! Hierarchical aggregation with aggregation-path and download-path
//! compression.
//!
//! The paper's server is flat: every client uploads to one process,
//! which averages updates in a single `O(clients · params)` loop and
//! re-broadcasts `N` raw copies of the global model. That shape caps
//! the scaling study at 127 clients on one serialized link. This
//! subsystem replaces it with a pluggable pipeline that stays
//! bit-compatible with flat FedAvg while scaling to 10^4+ clients:
//!
//! ```text
//!          clients 0..j   clients j..k     clients k..m   clients m..n
//!              │  ▲           │  ▲             │  ▲           │  ▲
//!              ▼  │ encoded   ▼  │ broadcast   ▼  │           ▼  │
//!          ┌────────┐     ┌────────┐       ┌────────┐     ┌────────┐
//!          │ leaf 0 │     │ leaf 1 │  ...  │ leaf L-1│    │ leaf L │  plan.rs
//!          └───┬────┘     └───┬────┘       └───┬────┘     └───┬────┘  shard.rs
//!  partial-sum │ frame        │                │               │
//!  (raw or     ▼              ▼                ▼               ▼
//!   lossless,  ┌──────────────────┐        ┌──────────────────┐
//!   psum.rs)   │   mid node 0     │  ...   │   mid node M     │      tree.rs
//!              └────────┬─────────┘        └────────┬─────────┘
//!                       │ (per-edge LinkProfile)    │
//!                       ▼                           ▼
//!          ┌─────────────────────────────────────────────────────┐
//!          │  root: exact merge in ascending child order → global │
//!          └──────────────────────────┬──────────────────────────┘
//!                                     │ FedSZ-encode ONCE per round
//!                             downlink.rs (Eqn-1 raw fallback)
//! ```
//!
//! **Shape.** [`TreePlan`] describes an arbitrary-depth hierarchy as a
//! list of per-level fan-outs (`--tree 4x8x32`); the two-level
//! `--tree S` is the one-entry case `[S]`. Clients partition
//! contiguously and balanced across the *leaf* aggregators, and every
//! internal node owns the union of its children's ranges.
//!
//! **Determinism.** Each leaf merges its cohort in ascending client-id
//! order and every parent merges its children in ascending child
//! order; on top of that fixed order, [`shard::ExactAcc`] accumulates
//! every `w·x` term in 128-bit fixed-point arithmetic, which is
//! associative — so the tree's global model is **bit-identical** to
//! the flat synchronous FedAvg result at *any* depth and fan-out (the
//! parity tests assert exactly this for two-level shards ∈ {1, 2, 7,
//! 16} and for depth-3/4 trees with uneven fan-outs).
//!
//! **Cost model.** Root ingress drops from `N` update payloads to the
//! root's fan-out in partial-sum frames; every hop is priced on the
//! forwarding node's own [`LinkProfile`](crate::link::LinkProfile) by
//! the same virtual-time model the client links use, and per-level
//! ingress bytes are reported in [`AggOutcome`]. Frames ship `f64`
//! sums — 2x a raw `f32` payload per element — so [`PsumForwarder`]
//! can compress them *losslessly* (bit-parity survives) with
//! [`PsumCodec`](fedsz_lossless::PsumCodec), choosing per edge via the
//! paper's Eqn 1. On the download path, [`Downlink`] encodes the
//! global model once per round and the tree fans the encoded stream
//! out through its levels instead of the server re-sending `N` raw
//! copies; Eqn 1 (via an EWMA of measured codec costs) falls back to
//! raw bytes whenever the bottleneck link would get them there faster.
//!
//! **Vocabulary.** A configuration names each leg's behaviour with a
//! [`StagePolicy`](crate::plan::StagePolicy); the plan-driven runtimes
//! build these executors through their `from_policy` constructors.
//! [`PsumMode`] and [`DownlinkMode`] are the executors' own
//! constructor arguments ([`PsumForwarder::new`], [`ShardedTree::new`],
//! [`Downlink::new`]) for callers that drive one directly — they
//! appear in no configuration.

// A partial-sum frame is one `Message` variant, so the forwarder needs
// no arm for a variant it never builds.
#![deny(clippy::unreachable)]

pub mod downlink;
pub mod plan;
pub mod pool;
pub mod psum;
pub mod shard;
// The fold's `unsafe`: AVX-512 and AVX2 loads and stores, each under
// a `// SAFETY:` comment.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd;
pub mod tree;

pub use downlink::{decode_broadcast, Downlink, DownlinkMode, DownlinkPayload};
pub use plan::TreePlan;
pub use pool::WorkerPool;
pub use psum::{PsumForwarder, PsumFrame, PsumMode, PsumScratch};
pub use shard::{template_matches, ExactAcc, PartialSum};
pub use tree::{aggregate_flat, AggOutcome, Contribution, ShardedTree};
