//! The `fedsz sweep` subcommand: declarative scenario matrices.
//!
//! One `fedsz fl` run answers one question; evaluation questions are
//! grids. `fedsz sweep SPEC.toml` reads a run spec whose optional
//! `[matrix]` table sweeps any value-taking spec keys:
//!
//! ```toml
//! clients = 4
//! rounds = 2
//! dp-clip = 0.5
//!
//! [matrix]
//! dp-noise = [0.0, 1.0]
//! uplink = ["topk:0.01", "q8"]
//! ```
//!
//! Axes expand cross-product style ([`SweepMatrix`] — declaration
//! order, last axis fastest), every expanded cell's configuration is
//! validated **before any cell runs** (a bad cell fails the whole
//! sweep with one error naming the cell — no partial sweeps), and the
//! cells then execute across a worker pool. Cell `i` is exactly
//! `fedsz fl --config BASE --AXIS VALUE…` over its coordinates: its
//! flags are its coordinates followed by the flat section's, parsed by
//! the *same* `simulator_config` path `fedsz fl` uses, on the spec's
//! seed (default 42). Cells that differ in one axis therefore compare
//! that axis on the same data and initial model; replicates are a
//! `seed = [...]` axis.
//!
//! The merged output (`--json [FILE]`) is one `fedsz.sweep_report.v1`
//! document: top-level `schema`/`schema_version`/`cell_count`, the
//! `axes` (key + values, in declaration order), one entry per cell
//! carrying its `index`, effective `seed`, `coords` object and the
//! cell's complete embedded `fedsz.run_report.v2` (the exact document
//! `fedsz fl --json` would print for that configuration, nulls never
//! omitted), plus the `pareto` front — the non-dominated cells over
//! final accuracy ↑ / total uplink bytes ↓ / total virtual seconds ↓.

use crate::flags::{Args, Command};
use crate::report::{json_f64, json_string, RoundRow, RunReport};
use crate::spec;
use crate::{simulator_config, Outcome};
use fedsz_fl::sweep::{pareto_front, run_cells, CellOutcome, MatrixAxis, ParetoPoint, SweepMatrix};
use fedsz_fl::FlConfig;
use std::fmt::Write as _;

/// The schema tag every sweep report carries.
pub const SWEEP_REPORT_SCHEMA: &str = "fedsz.sweep_report.v1";

/// The schema version every sweep report carries.
pub const SWEEP_SCHEMA_VERSION: u32 = 1;

/// Reads a sweep spec and plans every cell of its matrix, returning
/// the cells' configurations in cell order. The first cell that fails
/// to parse or plan fails the whole sweep, named by its index and
/// coordinates.
fn plan_cells(path: &str) -> Result<(SweepMatrix, Vec<FlConfig>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let sweep = spec::parse_sweep_spec(&text).map_err(|e| format!("{path}: {e}"))?;
    let axes = sweep.axes.into_iter().map(|(key, values)| MatrixAxis { key, values }).collect();
    let matrix = SweepMatrix::new(axes).map_err(|e| format!("{path}: {e}"))?;
    let base_args = spec::spec_to_args(&sweep.base);
    let configs = matrix
        .cells()
        .iter()
        .map(|cell| {
            let args: Vec<String> = cell
                .coords
                .iter()
                .flat_map(|(key, value)| [format!("--{key}"), value.clone()])
                .chain(base_args.iter().cloned())
                .collect();
            Args::parse(Command::Fl, &args)
                .and_then(|args| simulator_config(&args))
                .map_err(|e| format!("cell {} ({}): {e}", cell.index, coords_label(&cell.coords)))
        })
        .collect::<Result<_, _>>()?;
    Ok((matrix, configs))
}

fn coords_label(coords: &[(String, String)]) -> String {
    coords.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ")
}

/// One cell's Pareto objectives from its executed metrics.
fn pareto_point(outcome: &CellOutcome) -> ParetoPoint {
    ParetoPoint {
        accuracy: outcome.final_accuracy(),
        bytes: outcome.total(|m| m.upstream_bytes as f64),
        secs: outcome.total(|m| m.round_secs),
    }
}

/// Renders the merged `fedsz.sweep_report.v1` document.
fn sweep_json(
    matrix: &SweepMatrix,
    configs: &[FlConfig],
    outcomes: &[CellOutcome],
    points: &[ParetoPoint],
    front: &[usize],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": {},", json_string(SWEEP_REPORT_SCHEMA));
    let _ = writeln!(out, "  \"schema_version\": {SWEEP_SCHEMA_VERSION},");
    let _ = writeln!(out, "  \"cell_count\": {},", configs.len());
    let _ = writeln!(out, "  \"axes\": [");
    let axes = matrix.axes();
    for (i, axis) in axes.iter().enumerate() {
        let body = axis.values.iter().map(|v| json_string(v)).collect::<Vec<_>>().join(", ");
        let _ = write!(out, "    {{\"key\": {}, \"values\": [{body}]}}", json_string(&axis.key));
        let _ = writeln!(out, "{}", if i + 1 < axes.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"cells\": [");
    for ((cell, config), outcome) in matrix.cells().iter().zip(configs).zip(outcomes) {
        let coords = cell
            .coords
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
            .collect::<Vec<_>>()
            .join(", ");
        // The embedded document is built by the exact code `fedsz fl
        // --json` runs, so each cell's report diffs clean against the
        // plain run of its coordinates.
        let report = RunReport {
            command: "fl",
            clients: config.clients,
            rounds: outcome.metrics.iter().map(RoundRow::simulator).collect(),
            checksum: Some(outcome.checksum),
        };
        let _ = writeln!(
            out,
            "    {{\"index\": {}, \"seed\": {}, \"coords\": {{{coords}}}, \"report\":",
            cell.index, config.seed
        );
        let _ = write!(out, "{}", report.to_json().trim_end());
        let _ = writeln!(out, "}}{}", if cell.index + 1 < configs.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"pareto\": [");
    for (i, &index) in front.iter().enumerate() {
        let p = &points[index];
        let _ = write!(
            out,
            "    {{\"index\": {index}, \"accuracy\": {}, \"upstream_bytes\": {}, \"secs\": {}}}",
            json_f64(p.accuracy),
            p.bytes as usize,
            json_f64(p.secs),
        );
        let _ = writeln!(out, "{}", if i + 1 < front.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// Runs `fedsz sweep SPEC.toml [--json [FILE]] [--threads N]`.
pub fn sweep(args: &[String]) -> Outcome {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")).map(String::as_str) else {
        return Outcome::fail(
            "sweep requires a spec: fedsz sweep <SPEC.toml> [--json [FILE]] [--threads N]".into(),
        );
    };
    let flags = match Args::parse(Command::Sweep, &args[1..]) {
        Ok(flags) => flags,
        Err(e) => return Outcome::fail(e),
    };
    let threads = match flags.parsed::<usize>("threads") {
        Ok(None) => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        Ok(Some(n)) if n > 0 => n,
        _ => return Outcome::fail("--threads expects a positive worker-thread count".into()),
    };
    // Plan the WHOLE grid before running any of it: one bad cell fails
    // the sweep up front, naming the cell, so a sweep either starts
    // completely or not at all.
    let (matrix, configs) = match plan_cells(path) {
        Ok(planned) => planned,
        Err(e) => return Outcome::fail(e),
    };

    let outcomes = run_cells(&configs, threads);
    let points: Vec<ParetoPoint> = outcomes.iter().map(pareto_point).collect();
    let front = pareto_front(&points);

    if flags.switch("json") {
        let doc = sweep_json(&matrix, &configs, &outcomes, &points, &front);
        return match flags.value("json") {
            None => Outcome::ok(doc),
            Some(file) => match std::fs::write(file, &doc) {
                Ok(()) => Outcome::ok(format!(
                    "wrote {} cells ({SWEEP_REPORT_SCHEMA}) to {file}\n",
                    configs.len()
                )),
                Err(e) => Outcome::fail(format!("cannot write {file}: {e}")),
            },
        };
    }

    // Human table: one line per cell, Pareto cells starred.
    let mut out = String::new();
    let _ = writeln!(
        out,
        "sweep: {} cells over {} axes, {} worker threads",
        configs.len(),
        matrix.axes().len(),
        threads
    );
    let _ = writeln!(out, " cell                  seed    acc%     upKB  virt(s)  coords");
    for ((cell, config), point) in matrix.cells().iter().zip(&configs).zip(&points) {
        let star = if front.contains(&cell.index) { "*" } else { " " };
        let _ = writeln!(
            out,
            "{star}{:>4}  {:>20}  {:>5.1}  {:>7.1}  {:>7.3}  {}",
            cell.index,
            config.seed,
            point.accuracy * 100.0,
            point.bytes / 1e3,
            point.secs,
            coords_label(&cell.coords),
        );
    }
    let _ = writeln!(
        out,
        "pareto front (accuracy vs uplink bytes vs time): cells [{}]",
        front.iter().map(usize::to_string).collect::<Vec<_>>().join(", ")
    );
    Outcome::ok(out)
}
