//! The flat and hierarchical folds of a round's contributions.
//!
//! The round engine hands the decoded, delivered contributions to one
//! of two folds:
//!
//! * [`aggregate_flat`] — the paper's topology: every client reports
//!   straight to the root, which merges in ascending client-id order.
//!   Root ingress is every upload's wire bytes.
//! * [`ShardedTree`] — an arbitrary-depth aggregation hierarchy: a
//!   [`TreePlan`] assigns each *leaf* aggregator a contiguous client-id
//!   range, each leaf merges its cohort's updates in client-id order on
//!   its own worker thread, and partial sums then climb the tree level
//!   by level — every non-root node forwards one (possibly
//!   losslessly-compressed, see [`PsumForwarder`]) partial-sum frame
//!   over its own [`LinkProfile`] uplink. Root ingress drops from `N`
//!   updates to the root's fan-out in frames, and the virtual clock
//!   prices every hop (leaf ready time + measured merge time + codec
//!   time + frame transfer, maxed up each level).
//!
//! Both backends accumulate with [`PartialSum`]'s exact fixed-point
//! arithmetic, and the frame codec is lossless, so the tree's global
//! model is bit-identical to the flat result for any depth and any
//! fan-outs — the property the parity tests pin down.

use crate::agg::plan::TreePlan;
use crate::agg::pool::WorkerPool;
use crate::agg::psum::{PsumForwarder, PsumFrame, PsumMode, PsumScratch};
use crate::agg::shard::PartialSum;
use crate::link::LinkProfile;
use crate::plan::{PlanError, StagePolicy};
use crate::step::emit_eqn1;
use fedsz::timing::Eqn1Decision;
use fedsz_nn::StateDict;
use fedsz_telemetry::{Telemetry, Value};
use std::sync::Mutex;
use std::time::Instant;

/// One delivered, already-decoded update as aggregation input.
#[derive(Debug, Clone)]
pub struct Contribution {
    /// Client id (stable across rounds; routes the update to its shard).
    pub client: usize,
    /// The decoded update.
    pub dict: StateDict,
    /// Aggregation weight (sample count, or 1).
    pub weight: f64,
    /// Wire bytes this update cost on its first hop.
    pub wire_bytes: usize,
    /// Virtual time the update reached its first-hop aggregator.
    pub done_secs: f64,
}

/// What one round of aggregation produced.
#[derive(Debug, Clone)]
pub struct AggOutcome {
    /// The merged global model.
    pub global: StateDict,
    /// Contributions folded in.
    pub merged: usize,
    /// Bytes arriving at the root: all update wire bytes (flat) or the
    /// root's children's partial-sum frames (tree).
    pub root_ingress_bytes: usize,
    /// Partial-sum frame bytes arriving at each aggregator level from
    /// the level below, root first (`[0]` equals
    /// [`AggOutcome::root_ingress_bytes`] for a tree). Empty for the
    /// flat backend, which has no inter-aggregator hops.
    pub level_ingress_bytes: Vec<usize>,
    /// Uncompressed partial-sum payload bytes across all tree hops
    /// (zero for the flat backend).
    pub psum_payload_bytes: usize,
    /// Partial-sum payload bytes actually shipped (equals
    /// `psum_payload_bytes` when frames travel raw).
    pub psum_wire_bytes: usize,
    /// Virtual time the root holds the merged model: the last accepted
    /// arrival (flat), or the slowest leaf-to-root chain of merge +
    /// codec + forward hops (tree).
    pub root_done_secs: f64,
    /// Measured wall nanoseconds merging *into* each level, root
    /// first: `[depth - 1]` is the leaf accumulation pass, `[0]` the
    /// final fold into the root. [`aggregate_flat`] reports its single
    /// merge as a one-element vector.
    pub level_merge_nanos: Vec<u64>,
    /// The partial-sum leg's Eqn-1 decisions this round, one per
    /// priced frame in deterministic (level-descending, ascending
    /// node) order. Empty for the flat backend, which ships no frames.
    pub eqn1: Vec<Eqn1Decision>,
}

impl AggOutcome {
    /// Lossless compression ratio of the partial-sum frames (payload
    /// over shipped bytes; 1.0 when nothing was compressed or the
    /// backend is flat).
    pub fn psum_ratio(&self) -> f64 {
        if self.psum_wire_bytes == 0 {
            return 1.0;
        }
        self.psum_payload_bytes as f64 / self.psum_wire_bytes as f64
    }
}

/// Every client reports straight to the root (classic FedAvg), which
/// merges in ascending client-id order; `None` when there are no
/// contributions (the global model then stays put).
pub fn aggregate_flat(mut contributions: Vec<Contribution>) -> Option<AggOutcome> {
    contributions.sort_by_key(|c| c.client);
    let t0 = Instant::now();
    let mut sum = PartialSum::new();
    for c in &contributions {
        sum.accumulate(&c.dict, c.weight);
    }
    let global = sum.finish()?;
    let level_merge_nanos = vec![t0.elapsed().as_nanos() as u64];
    Some(AggOutcome {
        global,
        merged: contributions.len(),
        root_ingress_bytes: contributions.iter().map(|c| c.wire_bytes).sum(),
        level_ingress_bytes: Vec::new(),
        psum_payload_bytes: 0,
        psum_wire_bytes: 0,
        root_done_secs: contributions.iter().map(|c| c.done_secs).fold(0.0, f64::max),
        level_merge_nanos,
        eqn1: Vec::new(),
    })
}

/// A free list of recycled [`PartialSum`] buffers. Steady-state rounds
/// take a reset buffer (entries, names and accumulator `Vec`s intact),
/// fold into it, and hand it back after the parent consumed it — so a
/// long-running tree does no per-round accumulator allocation once the
/// first round has warmed the pool. Cloning a tree starts an empty
/// pool (buffers are round-local state, not configuration).
#[derive(Debug, Default)]
struct BufferPool {
    free: Mutex<Vec<PartialSum>>,
}

impl BufferPool {
    /// A zeroed buffer: recycled (allocations intact) when one is
    /// available, freshly default-constructed otherwise.
    fn take(&self) -> PartialSum {
        match self.free.lock().expect("buffer pool poisoned").pop() {
            Some(mut sum) => {
                sum.reset();
                sum
            }
            None => PartialSum::new(),
        }
    }

    /// Returns a consumed buffer to the pool (layout-less buffers carry
    /// no allocations worth keeping and are dropped).
    fn put(&self, sum: PartialSum) {
        if sum.total_elements() > 0 {
            self.free.lock().expect("buffer pool poisoned").push(sum);
        }
    }
}

impl Clone for BufferPool {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// Arbitrary-depth aggregation hierarchy: contiguous client ranges per
/// leaf, parallel leaf merges, and one partial-sum frame per node per
/// hop climbing to the root.
#[derive(Debug, Clone)]
pub struct ShardedTree {
    plan: TreePlan,
    /// Per-level uplink profiles: `levels[l - 1]` holds one profile per
    /// node at tree level `l` (the link that node forwards its frame
    /// over). `None` skips the timing model entirely.
    levels: Option<Vec<Vec<LinkProfile>>>,
    forwarder: PsumForwarder,
    /// Worker width for leaf merges and frame pricing. Exact integer
    /// accumulation is order- and grouping-invariant, so any width
    /// produces the same bits (the parity proptests pin this).
    threads: usize,
    buffers: BufferPool,
    /// Per-level spans, psum Eqn-1 events and pool counters land here
    /// (disabled by default: one branch per call, nothing recorded).
    telemetry: Telemetry,
}

impl ShardedTree {
    /// Builds the tree over `plan` with optional per-level uplinks and
    /// a partial-sum forwarding mode.
    ///
    /// # Panics
    ///
    /// Panics when `levels` is present but does not provide exactly one
    /// profile per non-root node, level by level.
    pub fn new(plan: TreePlan, levels: Option<Vec<Vec<LinkProfile>>>, psum: PsumMode) -> Self {
        Self::with_forwarder(plan, levels, PsumForwarder::new(psum))
    }

    /// [`ShardedTree::new`] around a ready-built forwarder.
    fn with_forwarder(
        plan: TreePlan,
        levels: Option<Vec<Vec<LinkProfile>>>,
        forwarder: PsumForwarder,
    ) -> Self {
        if let Some(levels) = &levels {
            assert_eq!(
                levels.len(),
                plan.depth() - 1,
                "need one link tier per non-root level ({} tiers for depth {})",
                levels.len(),
                plan.depth()
            );
            for (i, tier) in levels.iter().enumerate() {
                assert_eq!(
                    tier.len(),
                    plan.nodes_at(i + 1),
                    "need one edge link per shard at level {} ({} links for {} nodes)",
                    i + 1,
                    tier.len(),
                    plan.nodes_at(i + 1)
                );
            }
        }
        Self {
            plan,
            levels,
            forwarder,
            threads: WorkerPool::host_wide().threads(),
            buffers: BufferPool::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Sets the worker width for leaf merges and frame pricing (0 is
    /// treated as 1; the default is the host's available parallelism).
    /// Width cannot move a bit: the parity tests hold at every width.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attaches a telemetry handle: every aggregation then opens one
    /// `merge.level` span per tree level, emits the psum leg's Eqn-1
    /// decisions as `eqn1.decision` events, and feeds the worker
    /// pool's task/busy/idle counters.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The worker pool all of the tree's parallel passes run on.
    fn pool(&self) -> WorkerPool {
        WorkerPool::new(self.threads).with_telemetry(self.telemetry.clone())
    }

    /// Builds the tree from a validated plan-level [`StagePolicy`] for
    /// the partial-sum leg — the constructor the plan-based engine
    /// uses.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] when the policy is illegal on the
    /// partial-sum leg (e.g. lossy, which would break bit-parity).
    ///
    /// # Panics
    ///
    /// Panics when `levels` does not match the plan's shape (see
    /// [`ShardedTree::new`]).
    pub fn from_policy(
        plan: TreePlan,
        levels: Option<Vec<Vec<LinkProfile>>>,
        psum: &StagePolicy,
    ) -> Result<Self, PlanError> {
        Ok(Self::with_forwarder(plan, levels, PsumForwarder::from_policy(psum)?))
    }

    /// The uplink of node `node` at tree level `level` (`None` without
    /// a timing model).
    fn uplink(&self, level: usize, node: usize) -> Option<&LinkProfile> {
        self.levels.as_ref().map(|tiers| &tiers[level - 1][node])
    }

    /// Distinct first-hop destinations a broadcast to `cohort` fans out
    /// from the root: one copy per *active child* of the root; that
    /// child's subtree fans it out from there.
    pub fn fanout(&self, cohort: &[usize]) -> usize {
        let stride: usize = self.plan.fanouts()[1..].iter().product();
        let mut seen = vec![false; self.plan.fanouts()[0]];
        for &client in cohort {
            seen[self.plan.leaf_of(client) / stride] = true;
        }
        seen.iter().filter(|&&s| s).count()
    }

    /// Merges one round's contributions; `None` when there are none
    /// (the global model then stays put). A leaf is "ready" once its
    /// slowest accepted member arrived and its fold completed.
    pub fn aggregate(
        &mut self,
        round: usize,
        contributions: Vec<Contribution>,
    ) -> Option<AggOutcome> {
        if contributions.is_empty() {
            return None;
        }
        let mut per_leaf: Vec<Vec<Contribution>> =
            (0..self.plan.leaves()).map(|_| Vec::new()).collect();
        for c in contributions {
            per_leaf[self.plan.leaf_of(c.client)].push(c);
        }
        for cohort in &mut per_leaf {
            cohort.sort_by_key(|c| c.client);
        }
        let (leaves, leaf_merge_nanos) = self.fold_leaves(
            || (),
            |leaf, _, sum| {
                for c in &per_leaf[leaf] {
                    sum.accumulate(&c.dict, c.weight);
                }
            },
        );
        let (partials, ready) = leaves
            .into_iter()
            .zip(&per_leaf)
            .map(|((sum, fold_secs), cohort)| {
                (sum, cohort.iter().map(|c| c.done_secs).fold(0.0, f64::max) + fold_secs)
            })
            .unzip();
        self.reduce(round, partials, ready, leaf_merge_nanos)
    }

    /// Streams synthesized updates through the tree without holding the
    /// whole cohort in memory: `init` builds one scratch value per
    /// worker thread, and each leaf worker calls `fill` for the clients
    /// it owns (ascending), which overwrites the scratch and lends out
    /// the update to fold straight into the leaf's partial sum. A pool
    /// of [`ShardedTree::with_threads`] workers drains the leaves, so
    /// the cohort's memory high-water mark is one scratch value per
    /// worker plus the tree's partial sums — independent of the client
    /// count.
    pub fn aggregate_streamed_with<S, I, F>(
        &mut self,
        round: usize,
        init: I,
        fill: F,
    ) -> Option<AggOutcome>
    where
        I: Fn() -> S + Sync,
        F: for<'a> Fn(usize, &'a mut S) -> (&'a StateDict, f64) + Sync,
    {
        let (leaves, leaf_merge_nanos) = self.fold_leaves(init, |leaf, scratch, sum| {
            for client in self.plan.leaf_range(leaf) {
                let (dict, weight) = fill(client, scratch);
                sum.accumulate(dict, weight);
            }
        });
        let partials = leaves.into_iter().map(|(sum, _)| sum).collect();
        self.reduce(round, partials, vec![0.0; self.plan.leaves()], leaf_merge_nanos)
    }

    /// The leaf level behind both entry points: every leaf runs
    /// `fold(leaf, scratch, sum)` into a pooled buffer on a worker, with
    /// one `init` scratch per worker, inside the leaf level's
    /// `merge.level` span. Returns each leaf's sum with its own fold
    /// wall seconds, and the level's wall nanoseconds.
    fn fold_leaves<S>(
        &self,
        init: impl Fn() -> S + Sync,
        fold: impl Fn(usize, &mut S, &mut PartialSum) + Sync,
    ) -> (Vec<(PartialSum, f64)>, u64) {
        let t0 = Instant::now();
        let pool = self.pool();
        let leaf_span = self.telemetry.span_with(
            "merge.level",
            &[
                ("level", Value::U64(self.plan.depth() as u64 - 1)),
                ("nodes", Value::U64(self.plan.leaves() as u64)),
            ],
        );
        let leaves = pool.run_with(self.plan.leaves(), init, |leaf, scratch| {
            let t_leaf = Instant::now();
            let mut sum = self.buffers.take();
            fold(leaf, scratch, &mut sum);
            (sum, t_leaf.elapsed().as_secs_f64())
        });
        let leaf_merge_nanos = t0.elapsed().as_nanos() as u64;
        drop(leaf_span);
        (leaves, leaf_merge_nanos)
    }

    /// Climbs the hierarchy: starting from the leaf partials, each
    /// level's non-empty nodes frame their sums (raw or compressed, per
    /// the forwarder's Eqn-1 decision), their parents merge the *exact*
    /// accumulators in ascending child order, and per-level ingress and
    /// arrival times are maxed up the chain until one partial remains
    /// at the root.
    fn reduce(
        &mut self,
        round: usize,
        mut partials: Vec<PartialSum>,
        mut ready: Vec<f64>,
        leaf_merge_nanos: u64,
    ) -> Option<AggOutcome> {
        let depth = self.plan.depth();
        let mut level_ingress_bytes = vec![0usize; depth - 1];
        let mut level_merge_nanos = vec![0u64; depth];
        level_merge_nanos[depth - 1] = leaf_merge_nanos;
        let mut eqn1 = Vec::new();
        let mut psum_payload_bytes = 0usize;
        let mut psum_wire_bytes = 0usize;
        let pool = self.pool();
        for level in (1..depth).rev() {
            let fanout = self.plan.fanouts()[level - 1];
            let parents = self.plan.nodes_at(level - 1);
            let level_span = self.telemetry.span_with(
                "merge.level",
                &[("level", Value::U64(level as u64 - 1)), ("nodes", Value::U64(parents as u64))],
            );
            let t_level = Instant::now();
            // Frame pricing (including the lossless codec work, the
            // expensive part) is independent per node, so it runs on
            // the worker pool with one pricing scratch per worker; the
            // measured cost samples are folded back in ascending node
            // order below, keeping the EWMA profile deterministic.
            let forwarder = &self.forwarder;
            let frames: Vec<Option<PsumFrame>> =
                pool.run_with(partials.len(), PsumScratch::default, |node, scratch| {
                    let partial = &partials[node];
                    let bandwidth = self.uplink(level, node).map(|l| l.bandwidth_bps);
                    (!partial.is_empty())
                        .then(|| forwarder.price_with(round, node, partial, bandwidth, scratch))
                });
            let mut parent_partials: Vec<PartialSum> =
                (0..parents).map(|_| self.buffers.take()).collect();
            let mut parent_ready = vec![0.0f64; parents];
            for ((node, partial), frame) in partials.into_iter().enumerate().zip(frames) {
                let Some(frame) = frame else {
                    self.buffers.put(partial);
                    continue;
                };
                self.forwarder.observe(&frame);
                let decision = frame.choice.decision(node, frame.codec_secs());
                emit_eqn1(&self.telemetry, &decision);
                eqn1.push(decision);
                level_ingress_bytes[level - 1] += frame.wire_bytes;
                psum_payload_bytes += frame.payload_bytes;
                psum_wire_bytes += frame.shipped_payload_bytes;
                let transfer =
                    self.uplink(level, node).map_or(0.0, |l| l.transfer_secs(frame.wire_bytes));
                let parent = node / fanout;
                parent_ready[parent] =
                    parent_ready[parent].max(ready[node] + frame.codec_secs() + transfer);
                // Ascending-node iteration gives the ascending-child
                // merge order; exact accumulators make the grouping
                // irrelevant to the bits anyway. Borrow-merging lets
                // the consumed child return to the buffer pool.
                parent_partials[parent].merge_from(&partial).expect("self-produced partial sums");
                self.buffers.put(partial);
            }
            partials = parent_partials;
            ready = parent_ready;
            level_merge_nanos[level - 1] = t_level.elapsed().as_nanos() as u64;
            drop(level_span);
        }
        let root = partials.pop().expect("a tree always has a root");
        let merged = root.contributions();
        let global = root.finish()?;
        self.buffers.put(root);
        Some(AggOutcome {
            global,
            merged,
            root_ingress_bytes: level_ingress_bytes[0],
            level_ingress_bytes,
            psum_payload_bytes,
            psum_wire_bytes,
            root_done_secs: ready[0],
            level_merge_nanos,
            eqn1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsz::timing::Eqn1Leg;
    use fedsz_tensor::Tensor;

    /// One tier of `shards` edge aggregators, raw partial-sum frames.
    fn two_level(clients: usize, shards: usize, edges: Option<Vec<LinkProfile>>) -> ShardedTree {
        ShardedTree::new(
            TreePlan::new(clients, vec![shards]),
            edges.map(|e| vec![e]),
            PsumMode::Raw,
        )
    }

    fn contribution(client: usize, value: f32, done_secs: f64) -> Contribution {
        let mut dict = StateDict::new();
        dict.insert("w.weight", Tensor::filled(vec![4], value));
        Contribution { client, dict, weight: 1.0, wire_bytes: 100, done_secs }
    }

    #[test]
    fn flat_and_tree_agree_bitwise() {
        let contribs: Vec<Contribution> =
            (0..11).map(|c| contribution(c, (c as f32).sin(), c as f64)).collect();
        let flat = aggregate_flat(contribs.clone()).unwrap().global.to_bytes();
        for shards in [1usize, 2, 3, 7, 11] {
            let mut tree = two_level(11, shards, None);
            let out = tree.aggregate(0, contribs.clone()).unwrap();
            assert_eq!(out.global.to_bytes(), flat, "{shards} shards diverged");
            assert_eq!(out.merged, 11);
        }
    }

    #[test]
    fn deep_trees_agree_bitwise_for_any_fanouts() {
        let contribs: Vec<Contribution> =
            (0..23).map(|c| contribution(c, (c as f32).cos(), c as f64)).collect();
        let flat = aggregate_flat(contribs.clone()).unwrap().global.to_bytes();
        for fanouts in [vec![2, 3], vec![3, 2, 2], vec![5, 5], vec![2, 2, 2, 2]] {
            for psum in [PsumMode::Raw, PsumMode::Lossless] {
                let mut tree = ShardedTree::new(TreePlan::new(23, fanouts.clone()), None, psum);
                let out = tree.aggregate(0, contribs.clone()).unwrap();
                assert_eq!(
                    out.global.to_bytes(),
                    flat,
                    "fan-outs {fanouts:?} with {} frames diverged",
                    psum.name()
                );
                assert_eq!(out.merged, 23);
                assert_eq!(out.level_ingress_bytes.len(), fanouts.len());
            }
        }
    }

    #[test]
    fn tree_root_ingress_is_frames_not_uploads() {
        let contribs: Vec<Contribution> = (0..8).map(|c| contribution(c, 1.0, 0.0)).collect();
        let flat = aggregate_flat(contribs.clone()).unwrap();
        assert_eq!(flat.root_ingress_bytes, 800, "flat ingress sums upload wire bytes");
        assert!(flat.level_ingress_bytes.is_empty(), "flat has no inter-aggregator hops");
        let mut tree = two_level(8, 4, None);
        let out = tree.aggregate(0, contribs).unwrap();
        // 4 frames of a 4-element partial sum each: well under 800 per
        // frame-count scaling, and exactly 4 frames' worth.
        let one_frame = out.root_ingress_bytes / 4;
        assert_eq!(out.root_ingress_bytes, one_frame * 4);
        assert_eq!(out.level_ingress_bytes, vec![out.root_ingress_bytes]);
    }

    #[test]
    fn deeper_levels_carry_more_frames_than_the_root() {
        let contribs: Vec<Contribution> = (0..16).map(|c| contribution(c, 0.5, 0.0)).collect();
        let mut tree = ShardedTree::new(TreePlan::new(16, vec![2, 4]), None, PsumMode::Raw);
        let out = tree.aggregate(0, contribs).unwrap();
        assert_eq!(out.level_ingress_bytes.len(), 2);
        // 8 leaf frames feed level 1; 2 frames feed the root.
        assert!(
            out.level_ingress_bytes[1] > out.level_ingress_bytes[0],
            "leaf tier {} should out-byte the root tier {}",
            out.level_ingress_bytes[1],
            out.level_ingress_bytes[0]
        );
        assert_eq!(out.root_ingress_bytes, out.level_ingress_bytes[0]);
    }

    #[test]
    fn lossless_frames_shrink_the_wire_image() {
        let contribs: Vec<Contribution> = (0..12)
            .map(|c| {
                let mut dict = StateDict::new();
                let data: Vec<f32> = (0..2048).map(|i| ((i + c) as f32 * 0.017).sin()).collect();
                dict.insert("w.weight", Tensor::from_vec(vec![2048], data));
                Contribution { client: c, dict, weight: 1.0, wire_bytes: 0, done_secs: 0.0 }
            })
            .collect();
        let mut raw = ShardedTree::new(TreePlan::new(12, vec![4]), None, PsumMode::Raw);
        let raw_out = raw.aggregate(0, contribs.clone()).unwrap();
        let mut packed = ShardedTree::new(TreePlan::new(12, vec![4]), None, PsumMode::Lossless);
        let packed_out = packed.aggregate(0, contribs).unwrap();
        assert_eq!(
            packed_out.global.to_bytes(),
            raw_out.global.to_bytes(),
            "lossless frames must not move a bit of the model"
        );
        assert!((raw_out.psum_ratio() - 1.0).abs() < 1e-12);
        assert!(
            packed_out.psum_ratio() > 1.2,
            "psum ratio {:.2} below the 1.2x floor",
            packed_out.psum_ratio()
        );
        assert!(packed_out.root_ingress_bytes < raw_out.root_ingress_bytes);
    }

    #[test]
    fn edge_links_price_the_forward_hop() {
        let contribs: Vec<Contribution> = (0..4).map(|c| contribution(c, 1.0, 2.0)).collect();
        let slow = vec![LinkProfile::symmetric(8.0); 2]; // 1 byte/s
        let mut tree = two_level(4, 2, Some(slow));
        let out = tree.aggregate(0, contribs.clone()).unwrap();
        // Edges become ready at 2.0 virtual seconds, then a frame of F
        // bytes takes F seconds at 8 bps.
        let frame = out.root_ingress_bytes / 2;
        assert!(
            out.root_done_secs >= 2.0 + frame as f64 - 1.0,
            "root_done {:.1}s must include the {frame}-byte forward",
            out.root_done_secs
        );
        let mut free = two_level(4, 2, None);
        let out_free = free.aggregate(0, contribs).unwrap();
        assert!(out_free.root_done_secs < 3.0, "no timing model: forwards are free");
    }

    #[test]
    fn multi_tier_links_compound_the_chain() {
        let contribs: Vec<Contribution> = (0..4).map(|c| contribution(c, 1.0, 0.0)).collect();
        // Leaves forward at 1 byte/s, the mid tier at 1 byte/s again:
        // the root's ready time must cover both hops in sequence.
        let tiers =
            vec![vec![LinkProfile::symmetric(8.0); 2], vec![LinkProfile::symmetric(8.0); 4]];
        let mut tree = ShardedTree::new(TreePlan::new(4, vec![2, 2]), Some(tiers), PsumMode::Raw);
        let out = tree.aggregate(0, contribs.clone()).unwrap();
        let leaf_frame = out.level_ingress_bytes[1] / 4;
        let mid_frame = out.level_ingress_bytes[0] / 2;
        assert!(
            out.root_done_secs >= (leaf_frame + mid_frame) as f64 - 1.0,
            "root_done {:.1}s must chain the {leaf_frame}+{mid_frame} byte hops",
            out.root_done_secs
        );
    }

    #[test]
    fn fanout_counts_active_root_children() {
        let tree = two_level(8, 4, None);
        assert_eq!(tree.fanout(&[0, 1]), 1, "same shard");
        assert_eq!(tree.fanout(&[0, 7]), 2);
        assert_eq!(tree.fanout(&[0, 2, 4, 6]), 4);
        // Depth 3: the root has 2 children regardless of 8 leaves.
        let deep = ShardedTree::new(TreePlan::new(16, vec![2, 4]), None, PsumMode::Raw);
        assert_eq!(deep.fanout(&(0..16).collect::<Vec<_>>()), 2);
        assert_eq!(deep.fanout(&[0, 1]), 1, "both in the first child's subtree");
    }

    #[test]
    fn streamed_matches_materialized() {
        let make = |client: usize| {
            let mut dict = StateDict::new();
            dict.insert("w.weight", Tensor::filled(vec![3], client as f32 * 0.1));
            (dict, 1.0 + client as f64)
        };
        // A cohort with gaps over 10 clients and 6 leaves ([0, 1], [2,
        // 3], [4, 5], [6, 7], [8], [9]): leaves 2 and 4 get nothing.
        let cohort = [0, 1, 3, 6, 9];
        let contribs: Vec<Contribution> = cohort
            .iter()
            .map(|&c| {
                let (dict, weight) = make(c);
                Contribution { client: c, dict, weight, wire_bytes: 0, done_secs: 0.0 }
            })
            .collect();
        let flat = aggregate_flat(contribs.clone()).unwrap().global.to_bytes();
        let mut tree = ShardedTree::new(TreePlan::new(10, vec![3, 2]), None, PsumMode::Raw);
        let materialized = tree.aggregate(0, contribs).unwrap();
        assert_eq!(materialized.global.to_bytes(), flat);
        assert_eq!(materialized.merged, cohort.len());
        // The same five updates streamed as clients 0..5 over the same
        // six leaves: one leaf owns no client.
        let mut streamed_tree = ShardedTree::new(TreePlan::new(5, vec![3, 2]), None, PsumMode::Raw);
        let streamed = streamed_tree
            .aggregate_streamed_with(
                0,
                || None,
                |client, slot: &mut Option<StateDict>| {
                    let (dict, weight) = make(cohort[client]);
                    (&*slot.insert(dict), weight)
                },
            )
            .unwrap();
        assert_eq!(streamed.global.to_bytes(), flat);
        assert_eq!(streamed.merged, cohort.len());
        assert_eq!(streamed.level_merge_nanos.len(), materialized.level_merge_nanos.len());
    }

    #[test]
    fn level_merge_nanos_and_eqn1_cover_every_level() {
        let contribs: Vec<Contribution> = (0..8).map(|c| contribution(c, 1.0, 0.0)).collect();
        // Depth 3 (fanouts [2, 2]): 4 leaves, 2 mid nodes, 1 root.
        let mut tree = ShardedTree::new(TreePlan::new(8, vec![2, 2]), None, PsumMode::Lossless);
        let out = tree.aggregate(0, contribs.clone()).unwrap();
        assert_eq!(out.level_merge_nanos.len(), 3, "one entry per level, leaves included");
        assert!(out.level_merge_nanos[2] > 0, "leaf accumulation takes measurable time");
        // Every level ships one frame per non-empty node: 4 + 2.
        assert_eq!(out.eqn1.len(), 6);
        assert!(out.eqn1.iter().all(|d| d.leg == Eqn1Leg::Psum && d.compressed));
        assert!(
            out.eqn1.iter().all(|d| d.measured_codec_secs > 0.0),
            "lossless frames pay real codec time"
        );
        // The flat fold: one merge, no frames.
        let flat = aggregate_flat(contribs).unwrap();
        assert_eq!(flat.level_merge_nanos.len(), 1);
        assert!(flat.eqn1.is_empty());
    }

    #[test]
    fn telemetry_traces_per_level_merge_spans() {
        let path =
            std::env::temp_dir().join(format!("fedsz-tree-trace-{}.jsonl", std::process::id()));
        {
            let telemetry = Telemetry::with_trace(&path).unwrap();
            let contribs: Vec<Contribution> = (0..8).map(|c| contribution(c, 1.0, 0.0)).collect();
            let mut tree = ShardedTree::new(TreePlan::new(8, vec![2, 2]), None, PsumMode::Raw)
                .with_telemetry(telemetry.clone());
            let out = tree.aggregate(0, contribs).unwrap();
            assert_eq!(out.merged, 8);
            telemetry.flush();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        // Depth 3: a merge.level span per level plus an eqn1.decision
        // event per frame, all valid JSON.
        let mut merge_spans = 0;
        let mut decisions = 0;
        for line in text.lines() {
            let event = fedsz_telemetry::json::parse(line).expect("valid trace line");
            match event.get("name").and_then(fedsz_telemetry::json::Json::as_str) {
                Some("merge.level") => merge_spans += 1,
                Some("eqn1.decision") => decisions += 1,
                _ => {}
            }
        }
        assert_eq!(merge_spans, 3, "{text}");
        assert_eq!(decisions, 6, "{text}");
    }

    #[test]
    fn empty_contributions_yield_none() {
        assert!(aggregate_flat(Vec::new()).is_none());
        let mut tree = two_level(4, 2, None);
        assert!(tree.aggregate(0, Vec::new()).is_none());
    }

    #[test]
    #[should_panic(expected = "one edge link per shard")]
    fn mismatched_edge_links_rejected() {
        let _ = two_level(4, 2, Some(vec![LinkProfile::default()]));
    }

    #[test]
    #[should_panic(expected = "one link tier per non-root level")]
    fn mismatched_level_count_rejected() {
        let _ = ShardedTree::new(
            TreePlan::new(8, vec![2, 2]),
            Some(vec![vec![LinkProfile::default(); 2]]),
            PsumMode::Raw,
        );
    }
}
