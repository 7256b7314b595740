//! `agg_tree`: exact aggregation of a large cohort of ready-made
//! updates, flat versus a two-thread sharded tree.
//!
//! `fl.agg` (`ExactAcc`, `PartialSum`, `ShardedTree`, `WorkerPool`,
//! `PsumForwarder`) and `lossless::PsumCodec` do all the work: no
//! training, no lossy codec, no sockets. The updates are generated in
//! set-up and only lent to the fold, so the op times the fold and not the
//! generator. The fold streams `COHORT` models per op here, where
//! `server_ingest` pays it twice per op: streaming cost versus fixed
//! per-round cost.

use super::{Metric, Op, Summary, Workload};
use crate::inputs;
use crate::stats::{median, median_ratio};
use crate::trace::{ProgramTrace, Tracer};
use fedsz_fl::agg::{AggOutcome, PartialSum, PsumMode, ShardedTree, TreePlan};
use fedsz_fl::net::global_checksum;
use fedsz_nn::StateDict;
use std::path::Path;
use std::time::Instant;

/// Client updates folded per op.
pub const COHORT: usize = 2048;
/// Distinct pre-generated updates, cycled to form the cohort.
pub const POOL: usize = 64;
/// Per-level fan-outs, root downward: 16 leaf aggregators.
pub const FANOUTS: [usize; 2] = [4, 4];

/// See the module docs.
pub struct AggTree {
    pool: Vec<StateDict>,
    tree: ShardedTree,
    update_wire_bytes: usize,
    ops: usize,
    flat_ms: Vec<f64>,
    tree_ms: Vec<f64>,
    leaf_ms: Vec<f64>,
    upper_ms: Vec<f64>,
    last: Option<AggOutcome>,
    /// The tree's own `merge.level` spans and pool counters, when tracing.
    tree_trace: Option<ProgramTrace>,
}

fn weight_of(client: usize) -> f64 {
    1.0 + (client % 7) as f64
}

impl AggTree {
    /// The serial reference: one exact fold in client order.
    fn flat(&self, tracer: &mut Tracer) -> (StateDict, f64) {
        let t0 = Instant::now();
        let mut sum = PartialSum::new();
        tracer.scope("fl.agg.partial.accumulate", || {
            for client in 0..COHORT {
                sum.accumulate(&self.pool[client % POOL], weight_of(client));
            }
        });
        let global =
            tracer.scope("fl.agg.partial.finish", || sum.finish()).expect("non-empty cohort");
        (global, t0.elapsed().as_secs_f64() * 1e3)
    }

    fn tree(&mut self, tracer: &mut Tracer) -> (AggOutcome, f64) {
        let pool = &self.pool;
        let span = tracer.enter("fl.agg.tree.aggregate");
        let t0 = Instant::now();
        let outcome = self
            .tree
            // Each worker's scratch is the shared pool itself: the fold is
            // lent a ready-made update, nothing is generated or copied.
            .aggregate_streamed_with(
                self.ops,
                || pool,
                |client, pool| (&pool[client % POOL], weight_of(client)),
            )
            .expect("non-empty cohort");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        tracer.exit(span);
        (outcome, ms)
    }
}

impl Workload for AggTree {
    const NAME: &'static str = "agg_tree";
    const THREADS: usize = 2;
    const CONNECTIONS: usize = 0;
    const WARMUP: usize = 1;
    const LEDGER_OPS: usize = 2;

    fn setup(seed: u64, trace_dir: Option<&Path>) -> Self {
        let base = inputs::tiny_state(seed);
        let pool: Vec<StateDict> =
            (0..POOL).map(|i| inputs::perturbed(&base, seed, i as u64, 0.01)).collect();
        let tree =
            ShardedTree::new(TreePlan::new(COHORT, FANOUTS.to_vec()), None, PsumMode::Lossless)
                .with_threads(Self::THREADS);
        let tree_trace = trace_dir.map(|dir| ProgramTrace::open(dir, "agg_tree.tree.jsonl"));
        let tree = match &tree_trace {
            Some(trace) => tree.with_telemetry(trace.telemetry()),
            None => tree,
        };
        Self {
            tree_trace,
            update_wire_bytes: base.to_bytes().len(),
            pool,
            tree,
            ops: 0,
            flat_ms: Vec::new(),
            tree_ms: Vec::new(),
            leaf_ms: Vec::new(),
            upper_ms: Vec::new(),
            last: None,
        }
    }

    fn end_warmup(&mut self) {
        self.flat_ms.clear();
        self.tree_ms.clear();
        self.leaf_ms.clear();
        self.upper_ms.clear();
    }

    /// One pair: the flat fold and the tree fold of the same cohort, the
    /// two sides alternated so drift cannot favour one. The op's time is
    /// the tree's; the flat side is the parity reference and the base of
    /// `tree_speedup`.
    fn op(&mut self, tracer: &mut Tracer) -> Op {
        self.ops += 1;
        let ((flat_global, flat_ms), (outcome, tree_ms)) = if self.ops.is_multiple_of(2) {
            let flat = self.flat(tracer);
            (flat, self.tree(tracer))
        } else {
            let tree = self.tree(tracer);
            (self.flat(tracer), tree)
        };
        let failed = tracer.scope("benchmark.verify", || {
            outcome.merged != COHORT
                || global_checksum(&outcome.global) != global_checksum(&flat_global)
        });
        self.flat_ms.push(flat_ms);
        self.tree_ms.push(tree_ms);
        let nanos = &outcome.level_merge_nanos;
        self.leaf_ms.push(nanos.last().copied().unwrap_or(0) as f64 / 1e6);
        self.upper_ms.push(nanos[..nanos.len().saturating_sub(1)].iter().sum::<u64>() as f64 / 1e6);
        self.last = Some(outcome);
        Op { ms: tree_ms, failed }
    }

    fn finish(self, tracer: &mut Tracer) -> Summary {
        if let Some(trace) = &self.tree_trace {
            trace.collect(tracer);
        }
        let model_bytes = self.pool[0].byte_size() as f64;
        // Torn down before any op (a repeated set-up): nothing to report.
        let Some(outcome) = self.last else { return Summary::default() };
        let flat_ingress = (COHORT * self.update_wire_bytes) as f64;
        Summary {
            model_bytes_per_op: model_bytes * COHORT as f64,
            wire_ratio: flat_ingress / outcome.root_ingress_bytes.max(1) as f64,
            late_failures: 0,
            extras: vec![Metric::new(
                "tree_speedup",
                median_ratio(&self.flat_ms, &self.tree_ms),
                "x",
            )],
            layers: vec![
                Metric::new("fl.agg.flat.op_ms", median(&self.flat_ms), "ms"),
                Metric::new("fl.agg.tree.leaf_merge_ms", median(&self.leaf_ms), "ms"),
                Metric::new("fl.agg.tree.upper_merge_ms", median(&self.upper_ms), "ms"),
                Metric::new("fl.agg.tree.psum_ratio", outcome.psum_ratio(), "x"),
            ],
        }
    }
}
