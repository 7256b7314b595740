//! The four closed-loop workloads. Each stresses a different set of
//! layers, so a change to one layer predicts a move on one workload and
//! no change on the others (see `README.md` for the table).

pub mod agg_tree;
pub mod codec_models;
pub mod fl_sim;
pub mod server_ingest;

use crate::trace::Tracer;
use std::path::Path;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: String,
    /// The value as measured, all digits.
    pub value: f64,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

impl Metric {
    /// A metric row.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self { name: name.into(), value, unit }
    }
}

/// What one op did.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Wall milliseconds the program under test spent on the op (the
    /// benchmark's own output checks are left out).
    pub ms: f64,
    /// Whether the op's output check failed.
    pub failed: bool,
}

/// What a workload instance reports once its ops are done.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Bytes of raw (`f32`) model state one op carries.
    pub model_bytes_per_op: f64,
    /// Raw model bytes over the bytes put on the wire for them.
    pub wire_ratio: f64,
    /// Failures only visible once the instance is torn down (a server's
    /// own round report), on top of the per-op ones.
    pub late_failures: usize,
    /// End-to-end metrics only this workload defines.
    pub extras: Vec<Metric>,
    /// Per-layer metrics read off this instance's ops and, in a traced
    /// instance, the program's own spans.
    pub layers: Vec<Metric>,
}

/// A closed-loop workload: set up from a seed, run one op at a time,
/// check every output.
pub trait Workload: Sized {
    /// Name as `BENCHMARK.json` lists it.
    const NAME: &'static str;
    /// Runnable threads at the busiest point of an op.
    const THREADS: usize;
    /// Open connections while ops run.
    const CONNECTIONS: usize;
    /// Untimed ops before the timed region (caches, lazy set-up, EWMAs).
    const WARMUP: usize;
    /// Timed ops when the instance only feeds the per-layer ledger of a
    /// traced run of another workload.
    const LEDGER_OPS: usize;

    /// Builds the inputs and the program state from `seed`. `trace_dir`
    /// is `Some` in a traced instance: in-program `fedsz.trace.v1` files
    /// go there.
    fn setup(seed: u64, trace_dir: Option<&Path>) -> Self;

    /// Called once after the warm-up ops: forget what they measured.
    fn end_warmup(&mut self);

    /// Runs and checks one op.
    fn op(&mut self, tracer: &mut Tracer) -> Op;

    /// Tears the instance down and reports.
    fn finish(self, tracer: &mut Tracer) -> Summary;
}
