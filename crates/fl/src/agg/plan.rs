//! Arbitrary-depth aggregation-tree planning.
//!
//! [`TreePlan`] describes the whole hierarchy — one tier of edge
//! aggregators or many — as a list of per-level fan-outs (root
//! downward) whose product is the leaf-aggregator count. Clients are
//! partitioned *contiguously and balanced* across the leaves, and
//! every internal node owns exactly the union of its children's ranges
//! — so membership at every level is a pure function of
//! `(clients, fanouts)` and no routing table ever crosses the wire.
//!
//! ```text
//! TreePlan::new(12, vec![2, 3])        depth 3, fan-outs 2x3
//!
//! level 0                  root                  1 node
//!                        /      \
//! level 1             n0          n1             2 nodes
//!                   / | \       / | \
//! level 2         l0 l1 l2    l3 l4 l5           6 leaves
//! clients        0,1|2,3|4,5|6,7|8,9|10,11       contiguous ranges
//! ```
//!
//! The same exactness argument as the two-level tree applies at any
//! depth: each level merges [`ExactAcc`](crate::agg::ExactAcc)
//! accumulators, whose integer addition is associative, so the level
//! structure cannot move a single bit of the final model.

use std::ops::Range;

/// The shape of an arbitrary-depth aggregation hierarchy.
///
/// `fanouts[l]` is the number of children under each node at level `l`
/// (level 0 is the root); clients hang off the last level's nodes (the
/// *leaf aggregators*). A two-level `--tree S` is
/// `TreePlan::new(clients, vec![S])`.
///
/// Leaf ranges are balanced to within one client. A plan with more
/// leaves than clients is legal — surplus leaves own empty ranges and
/// simply never forward a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreePlan {
    clients: usize,
    fanouts: Vec<usize>,
}

impl TreePlan {
    /// Builds a plan over `clients` clients with the given per-level
    /// fan-outs (root downward).
    ///
    /// # Panics
    ///
    /// Panics when `clients == 0`, when `fanouts` is empty, when any
    /// fan-out is zero, or when the leaf count overflows `usize`.
    pub fn new(clients: usize, fanouts: Vec<usize>) -> Self {
        assert!(clients > 0, "need at least one client to plan a tree");
        assert!(!fanouts.is_empty(), "a tree needs at least one aggregator level");
        assert!(fanouts.iter().all(|&f| f > 0), "every fan-out must be positive");
        fanouts
            .iter()
            .try_fold(1usize, |acc, &f| acc.checked_mul(f))
            .expect("leaf count overflows usize");
        Self { clients, fanouts }
    }

    /// Parses a `--tree` spec like `"4x8x32"` into per-level fan-outs
    /// (root downward). Only the syntax is checked here: a zero fan-out
    /// parses, and `FlConfig::plan` rejects it with the level it is at.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending component when any
    /// component (an empty spec included) is not an integer.
    pub fn parse_fanouts(spec: &str) -> Result<Vec<usize>, String> {
        spec.split('x')
            .map(|part| {
                part.trim().parse::<usize>().map_err(|_| {
                    format!("bad tree fan-out `{part}` in `{spec}` (want e.g. 4x8x32)")
                })
            })
            .collect()
    }

    /// Total clients covered by the plan.
    pub fn clients(&self) -> usize {
        self.clients
    }

    /// The per-level fan-outs, root downward.
    pub fn fanouts(&self) -> &[usize] {
        &self.fanouts
    }

    /// Tree depth counting the root: a `--tree S` tree has depth 2.
    pub fn depth(&self) -> usize {
        self.fanouts.len() + 1
    }

    /// Number of aggregator nodes at `level` (0 = the root, so
    /// `nodes_at(0) == 1`; the leaves sit at `depth() - 1`).
    ///
    /// # Panics
    ///
    /// Panics when `level >= depth()`.
    pub fn nodes_at(&self, level: usize) -> usize {
        assert!(level < self.depth(), "level {level} outside depth-{} tree", self.depth());
        self.fanouts[..level].iter().product()
    }

    /// Number of leaf aggregators (the product of all fan-outs).
    pub fn leaves(&self) -> usize {
        self.nodes_at(self.depth() - 1)
    }

    /// The leaf aggregator that owns `client`.
    ///
    /// # Panics
    ///
    /// Panics when `client` is outside the plan.
    pub fn leaf_of(&self, client: usize) -> usize {
        assert!(client < self.clients, "client {client} outside plan of {}", self.clients);
        let leaves = self.leaves();
        let base = self.clients / leaves;
        let extra = self.clients % leaves;
        let wide = extra * (base + 1);
        if client < wide {
            client / (base + 1)
        } else {
            extra + (client - wide) / base.max(1)
        }
    }

    /// The contiguous client-id range leaf `leaf` owns (balanced to
    /// within one client; empty when there are more leaves than
    /// clients).
    ///
    /// # Panics
    ///
    /// Panics when `leaf >= self.leaves()`.
    pub fn leaf_range(&self, leaf: usize) -> Range<usize> {
        let leaves = self.leaves();
        assert!(leaf < leaves, "leaf {leaf} outside plan of {leaves}");
        let base = self.clients / leaves;
        let extra = self.clients % leaves;
        let start = leaf * base + leaf.min(extra);
        let len = base + usize::from(leaf < extra);
        start..start + len
    }

    /// The contiguous client-id range node `node` at `level` owns: the
    /// union of its descendant leaves' ranges.
    ///
    /// # Panics
    ///
    /// Panics when `level >= depth()` or `node >= nodes_at(level)`.
    pub fn node_range(&self, level: usize, node: usize) -> Range<usize> {
        assert!(node < self.nodes_at(level), "node {node} outside level {level}");
        let stride: usize = self.fanouts[level..].iter().product();
        let first = self.leaf_range(node * stride);
        let last = self.leaf_range((node + 1) * stride - 1);
        first.start..last.end
    }

    /// The range of child indices (at `level + 1`) under node `node` at
    /// `level`.
    ///
    /// # Panics
    ///
    /// Panics when `level + 1 >= depth()` or `node >= nodes_at(level)`.
    pub fn children(&self, level: usize, node: usize) -> Range<usize> {
        assert!(level + 1 < self.depth(), "leaves have no children");
        assert!(node < self.nodes_at(level), "node {node} outside level {level}");
        let fanout = self.fanouts[level];
        node * fanout..(node + 1) * fanout
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_level_plan_matches_shard_semantics() {
        let plan = TreePlan::new(10, vec![3]);
        assert_eq!(plan.depth(), 2);
        assert_eq!(plan.leaves(), 3);
        assert_eq!(plan.nodes_at(0), 1);
        let sizes: Vec<usize> = (0..3).map(|l| plan.leaf_range(l).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn leaf_ranges_are_contiguous_and_inverted_by_leaf_of() {
        for (clients, fanouts) in [
            (12, vec![2, 3]),
            (100, vec![4, 8]),
            (7, vec![2, 2, 2]), // more leaves than clients
            (1000, vec![4, 4, 4]),
            (5, vec![9]),
            // One tier of edge aggregators (`--tree S`).
            (10, vec![3]),
            (16, vec![16]),
            (100, vec![7]),
            (5, vec![1]),
        ] {
            let plan = TreePlan::new(clients, fanouts.clone());
            let mut covered = 0usize;
            for leaf in 0..plan.leaves() {
                let range = plan.leaf_range(leaf);
                assert_eq!(range.start, covered, "ranges must be contiguous ({fanouts:?})");
                for c in range.clone() {
                    assert_eq!(plan.leaf_of(c), leaf, "leaf_of must invert leaf_range");
                }
                covered = range.end;
            }
            assert_eq!(covered, clients, "ranges must cover every client");
        }
    }

    #[test]
    fn node_ranges_union_their_children() {
        let plan = TreePlan::new(100, vec![3, 2, 4]);
        assert_eq!(plan.depth(), 4);
        assert_eq!(plan.node_range(0, 0), 0..100, "the root owns everyone");
        for level in 0..plan.depth() - 1 {
            for node in 0..plan.nodes_at(level) {
                let range = plan.node_range(level, node);
                let children = plan.children(level, node);
                assert_eq!(range.start, plan.node_range(level + 1, children.start).start);
                assert_eq!(range.end, plan.node_range(level + 1, children.end - 1).end);
            }
        }
    }

    #[test]
    fn parse_accepts_specs_and_rejects_junk() {
        assert_eq!(TreePlan::parse_fanouts("4x8x32").unwrap(), vec![4, 8, 32]);
        assert_eq!(TreePlan::parse_fanouts("16").unwrap(), vec![16]);
        assert!(TreePlan::parse_fanouts("").is_err());
        assert_eq!(TreePlan::parse_fanouts("4x0x2").unwrap(), vec![4, 0, 2], "plan's to reject");
        assert!(TreePlan::parse_fanouts("4xtwo").is_err());
    }

    #[test]
    #[should_panic(expected = "at least one aggregator level")]
    fn empty_fanouts_rejected() {
        let _ = TreePlan::new(4, Vec::new());
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_clients_rejected() {
        let _ = TreePlan::new(0, vec![2]);
    }
}
