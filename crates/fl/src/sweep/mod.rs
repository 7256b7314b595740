//! The one grid executor: cross-product expansion, execution, per-cell
//! reductions and the Pareto summary.
//!
//! One federated run answers one question; the evaluation questions the
//! ROADMAP cares about — does DP noise change the compression
//! trade-off, how do codec families behave under non-IID skew, what
//! does partial participation cost — are *grids*. This module turns a
//! declarative `[matrix]` table (axis name → list of values) into an
//! executed grid:
//!
//! ```text
//! [matrix]                 cell 0: dp-noise=0.0  uplink="topk:0.1"
//! dp-noise = [0.0, 0.5]    cell 1: dp-noise=0.0  uplink="q8"
//! uplink = ["topk:0.1",    cell 2: dp-noise=0.5  uplink="topk:0.1"
//!           "q8"]          cell 3: dp-noise=0.5  uplink="q8"
//! ```
//!
//! **Expansion order.** Axes expand in declaration order with the
//! *last* axis varying fastest (row-major odometer): cell `i`'s value
//! on axis `j` is `values_j[(i / stride_j) % len_j]` where `stride_j`
//! is the product of the lengths of the axes after `j`. The order is
//! part of the report contract — cell indices are stable across runs
//! and machines.
//!
//! **Seeds.** A cell's coordinates are all that set it apart: every
//! cell runs on the spec's seed, so cells that differ in a codec
//! compare that codec on the same data and initial model, and a cell
//! is bit for bit the `fedsz fl` run of its coordinates. Replicates are
//! a `seed` axis like any other.
//!
//! **Execution.** [`run_cells`] is the one place a grid of [`FlConfig`]s
//! runs: `fedsz sweep` fans its cells across a [`WorkerPool`], and the
//! `paper` and `pareto` bench bins run theirs one at a time (their
//! timing columns read clocks). Outcomes come back in cell order. Every
//! cell must already hold a validated plan: the CLI front-end validates
//! the *whole* grid before any cell executes (no partial sweeps).
//!
//! **Summary.** A [`CellOutcome`] reduces its rounds to final and best
//! accuracy and a metric's total or per-round mean; [`pareto_front`]
//! keeps the non-dominated cells over (accuracy ↑, uplink bytes ↓,
//! seconds ↓), the axes the paper's evaluation trades against each
//! other. A caller ranking on two axes holds the third equal.

use crate::agg::WorkerPool;
use crate::net::global_checksum;
use crate::{Experiment, FlConfig, RoundMetrics};

/// One axis of a scenario matrix: a spec key and the values it sweeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixAxis {
    /// The run-spec key this axis varies (e.g. `dp-noise`, `uplink`).
    pub key: String,
    /// The values, in declaration order. Never empty past
    /// [`SweepMatrix::new`].
    pub values: Vec<String>,
}

/// A validated cross-product scenario matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepMatrix {
    axes: Vec<MatrixAxis>,
}

/// One expanded cell: its stable linear index and its coordinates, one
/// `(key, value)` pair per axis in declaration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepCell {
    /// Row-major linear index (the last axis varies fastest).
    pub index: usize,
    /// `(axis key, value)` per axis, in axis declaration order.
    pub coords: Vec<(String, String)>,
}

impl SweepMatrix {
    /// Builds a matrix from its axes. An empty axis list is the
    /// degenerate single-cell matrix (a spec without `[matrix]`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending axis when one has no
    /// values (an empty array cannot expand to any cell).
    pub fn new(axes: Vec<MatrixAxis>) -> Result<Self, String> {
        if let Some(axis) = axes.iter().find(|a| a.values.is_empty()) {
            return Err(format!("matrix axis `{}` has no values", axis.key));
        }
        Ok(Self { axes })
    }

    /// The axes, in declaration order.
    pub fn axes(&self) -> &[MatrixAxis] {
        &self.axes
    }

    /// Number of expanded cells: the product of the axis lengths (1
    /// for the degenerate axis-free matrix).
    pub fn cell_count(&self) -> usize {
        self.axes.iter().map(|a| a.values.len()).product()
    }

    /// The coordinates of cell `index` in row-major order (last axis
    /// fastest).
    ///
    /// # Panics
    ///
    /// Panics when `index` is outside `0..cell_count()`.
    pub fn coords(&self, index: usize) -> Vec<(String, String)> {
        assert!(index < self.cell_count(), "cell {index} outside matrix");
        let mut stride = self.cell_count();
        self.axes
            .iter()
            .map(|axis| {
                stride /= axis.values.len();
                let value = &axis.values[(index / stride) % axis.values.len()];
                (axis.key.clone(), value.clone())
            })
            .collect()
    }

    /// Every cell of the matrix, in linear-index order.
    pub fn cells(&self) -> Vec<SweepCell> {
        (0..self.cell_count())
            .map(|index| SweepCell { index, coords: self.coords(index) })
            .collect()
    }
}

/// One executed cell: its linear index and the per-round metrics the
/// in-memory engine produced for it.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The cell's linear index in the matrix.
    pub index: usize,
    /// Per-round metrics, exactly what `Experiment::run` returns for
    /// the cell's configuration.
    pub metrics: Vec<RoundMetrics>,
    /// The cell's final global model fingerprint — the same bit-parity
    /// checksum `fedsz fl` prints, so a one-cell sweep can be diffed
    /// against the plain run.
    pub checksum: u32,
}

impl CellOutcome {
    /// Final-round test accuracy; 0.0 for a run with no rounds.
    pub fn final_accuracy(&self) -> f64 {
        self.metrics.last().map_or(0.0, |m| m.test_accuracy)
    }

    /// Best test accuracy over the rounds; 0.0 for a run with no rounds.
    pub fn best_accuracy(&self) -> f64 {
        self.metrics.iter().map(|m| m.test_accuracy).fold(0.0, f64::max)
    }

    /// A per-round metric summed over the rounds.
    pub fn total(&self, metric: impl Fn(&RoundMetrics) -> f64) -> f64 {
        self.metrics.iter().map(metric).sum()
    }

    /// A per-round metric's mean over the rounds; 0.0 for a run with no
    /// rounds.
    pub fn mean(&self, metric: impl Fn(&RoundMetrics) -> f64) -> f64 {
        self.total(metric) / self.metrics.len().max(1) as f64
    }
}

/// Executes every cell configuration across a [`WorkerPool`] of
/// `threads` workers, returning outcomes in cell order. Callers must
/// have validated every configuration's plan first — the executor
/// panics (via [`Experiment::new`]) on an invalid cell rather than
/// producing a partial sweep.
pub fn run_cells(configs: &[FlConfig], threads: usize) -> Vec<CellOutcome> {
    let pool = WorkerPool::new(threads);
    pool.run(configs.len(), |index| {
        let mut exp = Experiment::new(configs[index].clone());
        let metrics = exp.run();
        let checksum = global_checksum(exp.global_state());
        CellOutcome { index, metrics, checksum }
    })
}

/// One cell's summary point for the Pareto reduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoPoint {
    /// Final-round test accuracy (higher is better).
    pub accuracy: f64,
    /// Total upstream bytes across rounds (lower is better).
    pub bytes: f64,
    /// Total virtual round seconds across rounds (lower is better).
    pub secs: f64,
}

impl ParetoPoint {
    /// Whether `self` dominates `other`: at least as good on every
    /// objective and strictly better on one.
    fn dominates(&self, other: &ParetoPoint) -> bool {
        let ge =
            self.accuracy >= other.accuracy && self.bytes <= other.bytes && self.secs <= other.secs;
        let strict =
            self.accuracy > other.accuracy || self.bytes < other.bytes || self.secs < other.secs;
        ge && strict
    }
}

/// Indices of the non-dominated points (the Pareto front over accuracy
/// ↑ / bytes ↓ / time ↓), in input order. Duplicate points all
/// survive — neither strictly dominates the other.
pub fn pareto_front(points: &[ParetoPoint]) -> Vec<usize> {
    points
        .iter()
        .enumerate()
        .filter(|(i, p)| !points.iter().enumerate().any(|(j, q)| j != *i && q.dominates(p)))
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn axis(key: &str, values: &[&str]) -> MatrixAxis {
        MatrixAxis { key: key.into(), values: values.iter().map(|v| v.to_string()).collect() }
    }

    #[test]
    fn axis_free_matrix_is_one_cell() {
        let matrix = SweepMatrix::new(Vec::new()).unwrap();
        assert_eq!(matrix.cell_count(), 1);
        assert_eq!(matrix.coords(0), Vec::<(String, String)>::new());
    }

    #[test]
    fn empty_axis_is_rejected_by_name() {
        let err = SweepMatrix::new(vec![axis("dp-noise", &[])]).unwrap_err();
        assert!(err.contains("dp-noise"), "{err}");
    }

    #[test]
    fn expansion_is_row_major_with_the_last_axis_fastest() {
        let matrix = SweepMatrix::new(vec![
            axis("noise", &["0.0", "0.5"]),
            axis("uplink", &["topk:0.1", "q8", "raw"]),
        ])
        .unwrap();
        assert_eq!(matrix.cell_count(), 6);
        let flat: Vec<(String, String)> =
            matrix.cells().iter().map(|c| (c.coords[0].1.clone(), c.coords[1].1.clone())).collect();
        assert_eq!(
            flat,
            [
                ("0.0", "topk:0.1"),
                ("0.0", "q8"),
                ("0.0", "raw"),
                ("0.5", "topk:0.1"),
                ("0.5", "q8"),
                ("0.5", "raw"),
            ]
            .map(|(a, b)| (a.to_string(), b.to_string()))
        );
    }

    #[test]
    fn cell_indices_are_stable_and_dense() {
        let matrix =
            SweepMatrix::new(vec![axis("a", &["1", "2"]), axis("b", &["x", "y"])]).unwrap();
        for (i, cell) in matrix.cells().iter().enumerate() {
            assert_eq!(cell.index, i);
            assert_eq!(cell.coords, matrix.coords(i));
        }
    }

    fn tiny(seed: u64) -> FlConfig {
        let mut config = FlConfig::smoke_test();
        (config.rounds, config.seed, config.data.seed) = (1, seed, seed);
        (config.data.train_per_class, config.data.test_per_class) = (2, 1);
        config.worker_threads = Some(1);
        config
    }

    #[test]
    fn executor_returns_cells_in_order_at_any_width() {
        let configs: Vec<FlConfig> = (7..10).map(tiny).collect();
        let serial = run_cells(&configs, 1);
        let parallel = run_cells(&configs, 3);
        assert_eq!(serial.len(), 3);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.index, p.index);
            assert_eq!(s.metrics[0].test_accuracy, p.metrics[0].test_accuracy);
            assert_eq!(s.metrics[0].upstream_bytes, p.metrics[0].upstream_bytes);
            assert_eq!(s.checksum, p.checksum, "pool width must not change the bits");
        }
    }

    #[test]
    fn cell_reductions_read_final_best_total_and_mean() {
        // Hand-set (accuracy, upstream bytes, round seconds) on a real round.
        let round = run_cells(&[tiny(7)], 1).remove(0).metrics.remove(0);
        let metrics = [(0.5, 100, 1.0), (0.9, 300, 2.0), (0.7, 200, 4.5)].map(|(acc, up, secs)| {
            let mut m = round.clone();
            (m.test_accuracy, m.upstream_bytes, m.round_secs) = (acc, up, secs);
            m
        });
        let run = CellOutcome { index: 0, metrics: metrics.into(), checksum: 0 };
        assert_eq!((run.final_accuracy(), run.best_accuracy()), (0.7, 0.9));
        let bytes = |m: &RoundMetrics| m.upstream_bytes as f64;
        assert_eq!((run.total(bytes), run.mean(bytes)), (600.0, 200.0));
        assert_eq!((run.total(|m| m.round_secs), run.mean(|m| m.round_secs)), (7.5, 2.5));
        let empty = CellOutcome { metrics: Vec::new(), ..run };
        let reduced = [empty.final_accuracy(), empty.best_accuracy(), empty.total(bytes)];
        assert_eq!((reduced, empty.mean(bytes)), ([0.0; 3], 0.0));
    }

    #[test]
    fn with_seconds_held_equal_the_front_is_the_bytes_accuracy_frontier() {
        let at = |accuracy, bytes| ParetoPoint { accuracy, bytes, secs: 0.0 };
        // raw (most bytes, best accuracy), a codec trading accuracy for
        // bytes, one beaten on both axes, one tied on bytes and worse.
        let fixed = [at(0.98, 500.0), at(0.90, 100.0), at(0.85, 300.0), at(0.80, 100.0)];
        assert_eq!(pareto_front(&fixed), vec![0, 1]);
        // A candidate appended to the fixed set (`pareto`'s `auto`) is on
        // the front exactly when no fixed point dominates it.
        let survives = |candidate| pareto_front(&[&fixed[..], &[candidate]].concat()).contains(&4);
        assert!(survives(at(0.95, 200.0)), "between raw and the codec");
        assert!(!survives(at(0.90, 150.0)), "the codec: fewer bytes at equal accuracy");
        assert!(!survives(at(0.97, 500.0)), "raw: more accuracy at equal bytes");
    }

    #[test]
    fn pareto_front_keeps_only_non_dominated_points() {
        let points = vec![
            ParetoPoint { accuracy: 0.9, bytes: 100.0, secs: 10.0 },
            ParetoPoint { accuracy: 0.8, bytes: 50.0, secs: 10.0 },
            // Dominated by the first point on every axis.
            ParetoPoint { accuracy: 0.7, bytes: 200.0, secs: 20.0 },
            // Trades time for bytes: survives.
            ParetoPoint { accuracy: 0.8, bytes: 80.0, secs: 5.0 },
        ];
        assert_eq!(pareto_front(&points), vec![0, 1, 3]);
    }

    #[test]
    fn duplicate_points_all_survive_the_front() {
        let p = ParetoPoint { accuracy: 0.5, bytes: 10.0, secs: 1.0 };
        assert_eq!(pareto_front(&[p, p]), vec![0, 1]);
    }
}
