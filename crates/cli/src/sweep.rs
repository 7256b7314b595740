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
//! cells then execute across a worker pool. Each cell's config is
//! assembled by the *same* `simulator_config` path `fedsz fl` uses,
//! with its seed derived from the base seed and the cell index
//! ([`cell_seed`]; cell 0 keeps the base seed exactly, so a one-cell
//! sweep reproduces the plain `fl` run bit for bit). Sweeping `seed`
//! as an axis takes over seeding entirely — no derivation then.
//!
//! `fedsz sweep DIR` instead treats every `*.toml` inside `DIR`
//! (sorted by name) as one cell of a single `spec` axis; those specs
//! must be flat (a `[matrix]` spec runs directly, not from a
//! directory).
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
use crate::spec::{self, SpecValue};
use crate::{simulator_config, Outcome};
use fedsz_fl::sweep::{
    cell_seed, pareto_front, run_cells, CellOutcome, MatrixAxis, ParetoPoint, SweepMatrix,
};
use fedsz_fl::FlConfig;
use std::fmt::Write as _;
use std::path::Path;

/// The schema tag every sweep report carries.
pub const SWEEP_REPORT_SCHEMA: &str = "fedsz.sweep_report.v1";

/// The schema version every sweep report carries.
pub const SWEEP_SCHEMA_VERSION: u32 = 1;

/// One fully planned (not yet executed) cell.
struct PlannedCell {
    index: usize,
    coords: Vec<(String, String)>,
    config: FlConfig,
}

/// The axes (key + values, declaration order) and per-cell flag
/// vectors an expansion produces.
type ExpandedCells = (Vec<(String, Vec<String>)>, Vec<Vec<String>>);

/// Expands a `[matrix]` spec file into per-cell flag vectors plus the
/// axes for the report header.
fn cells_from_file(path: &str) -> Result<ExpandedCells, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let sweep = spec::parse_sweep_spec(&text).map_err(|e| format!("{path}: {e}"))?;
    let axes: Vec<MatrixAxis> = sweep
        .axes
        .iter()
        .map(|(key, values)| MatrixAxis { key: key.clone(), values: values.clone() })
        .collect();
    let matrix = SweepMatrix::new(axes).map_err(|e| format!("{path}: {e}"))?;
    // An explicit `seed` axis takes over seeding; otherwise every cell
    // derives its own from the spec's base seed (default 42) and its
    // index, so neighbouring cells never share RNG streams. A flag may
    // be given once, so the derived seed replaces the base entry.
    let seed_swept = sweep.axes.iter().any(|(key, _)| key == "seed");
    let (seed_entry, base): (Vec<_>, Vec<_>) =
        sweep.base.iter().cloned().partition(|(key, _)| key == "seed");
    let base_seed: u64 = match seed_entry.first() {
        Some((_, SpecValue::Scalar(s))) => {
            s.parse().map_err(|_| format!("{path}: bad seed `{s}`"))?
        }
        _ => 42,
    };
    let base_args = spec::spec_to_args(&base);
    let mut cells = Vec::with_capacity(matrix.cell_count());
    for cell in matrix.cells() {
        let mut args: Vec<String> = Vec::new();
        for (key, value) in &cell.coords {
            args.push(format!("--{key}"));
            args.push(value.clone());
        }
        if !seed_swept {
            args.push("--seed".into());
            args.push(cell_seed(base_seed, cell.index).to_string());
        }
        args.extend(base_args.iter().cloned());
        cells.push(args);
    }
    Ok((sweep.axes, cells))
}

/// Treats every `*.toml` in a directory as one cell of a `spec` axis.
fn cells_from_dir(path: &str) -> Result<ExpandedCells, String> {
    let entries = std::fs::read_dir(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut files: Vec<String> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .filter_map(|p| p.to_str().map(str::to_string))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{path}: no .toml run specs to sweep"));
    }
    let mut names = Vec::with_capacity(files.len());
    let mut cells = Vec::with_capacity(files.len());
    for file in &files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
        let sweep = spec::parse_sweep_spec(&text).map_err(|e| format!("{file}: {e}"))?;
        if !sweep.axes.is_empty() {
            return Err(format!(
                "{file}: directory sweeps take flat specs; run a [matrix] spec directly \
                 (fedsz sweep {file})"
            ));
        }
        let name = Path::new(file)
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or(file.as_str())
            .to_string();
        names.push(name);
        cells.push(spec::spec_to_args(&sweep.base));
    }
    Ok((vec![("spec".to_string(), names)], cells))
}

fn coords_label(coords: &[(String, String)]) -> String {
    coords.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ")
}

/// One cell's Pareto objectives from its executed metrics.
fn pareto_point(outcome: &CellOutcome) -> ParetoPoint {
    ParetoPoint {
        accuracy: outcome.metrics.last().map_or(0.0, |m| m.test_accuracy),
        bytes: outcome.metrics.iter().map(|m| m.upstream_bytes).sum::<usize>() as f64,
        secs: outcome.metrics.iter().map(|m| m.round_secs).sum(),
    }
}

/// Renders the merged `fedsz.sweep_report.v1` document.
fn sweep_json(
    axes: &[(String, Vec<String>)],
    planned: &[PlannedCell],
    outcomes: &[CellOutcome],
    points: &[ParetoPoint],
    front: &[usize],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": {},", json_string(SWEEP_REPORT_SCHEMA));
    let _ = writeln!(out, "  \"schema_version\": {SWEEP_SCHEMA_VERSION},");
    let _ = writeln!(out, "  \"cell_count\": {},", planned.len());
    let _ = writeln!(out, "  \"axes\": [");
    for (i, (key, values)) in axes.iter().enumerate() {
        let body = values.iter().map(|v| json_string(v)).collect::<Vec<_>>().join(", ");
        let _ = write!(out, "    {{\"key\": {}, \"values\": [{body}]}}", json_string(key));
        let _ = writeln!(out, "{}", if i + 1 < axes.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"cells\": [");
    for (cell, outcome) in planned.iter().zip(outcomes) {
        let coords = cell
            .coords
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
            .collect::<Vec<_>>()
            .join(", ");
        // The embedded document is built by the exact code `fedsz fl
        // --json` runs, so a one-cell sweep's report diffs clean
        // against the plain run's.
        let report = RunReport {
            command: "fl",
            clients: cell.config.clients,
            rounds: outcome.metrics.iter().map(RoundRow::simulator).collect(),
            checksum: Some(outcome.checksum),
        };
        let _ = writeln!(
            out,
            "    {{\"index\": {}, \"seed\": {}, \"coords\": {{{coords}}}, \"report\":",
            cell.index, cell.config.seed
        );
        let _ = write!(out, "{}", report.to_json().trim_end());
        let _ = writeln!(out, "}}{}", if cell.index + 1 < planned.len() { "," } else { "" });
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

/// The word after `key` in `args`, if `key` is there.
fn flag_value<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// Runs `fedsz sweep SPEC.toml|DIR [--json [FILE]] [--threads N]`.
pub fn sweep(args: &[String]) -> Outcome {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")).map(String::as_str) else {
        return Outcome::fail(
            "sweep requires a spec: fedsz sweep <SPEC.toml|DIR> [--json [FILE]] [--threads N]"
                .into(),
        );
    };
    let flags = &args[1..];
    let threads = match flag_value(flags, "--threads").map(str::parse::<usize>) {
        None => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        Some(Ok(n)) if n > 0 => n,
        Some(_) => return Outcome::fail("--threads expects a positive worker-thread count".into()),
    };
    let is_dir = Path::new(path).is_dir();
    let (axes, cell_args) = match if is_dir { cells_from_dir(path) } else { cells_from_file(path) }
    {
        Ok(expanded) => expanded,
        Err(e) => return Outcome::fail(e),
    };

    // Validate the WHOLE grid before running any of it: one bad cell
    // fails the sweep up front, naming the cell, so a sweep either
    // starts completely or not at all.
    let matrix = match SweepMatrix::new(
        axes.iter()
            .map(|(key, values)| MatrixAxis { key: key.clone(), values: values.clone() })
            .collect(),
    ) {
        Ok(matrix) => matrix,
        Err(e) => return Outcome::fail(e),
    };
    let mut planned = Vec::with_capacity(cell_args.len());
    for (index, args) in cell_args.iter().enumerate() {
        let coords = matrix.coords(index);
        match Args::parse(Command::Fl, args).and_then(|args| simulator_config(&args)) {
            Ok(config) => planned.push(PlannedCell { index, coords, config }),
            Err(e) => {
                return Outcome::fail(format!(
                    "cell {index} ({}): {e}",
                    coords_label(&matrix.coords(index))
                ))
            }
        }
    }

    let configs: Vec<FlConfig> = planned.iter().map(|c| c.config.clone()).collect();
    let outcomes = run_cells(&configs, threads);
    let points: Vec<ParetoPoint> = outcomes.iter().map(pareto_point).collect();
    let front = pareto_front(&points);

    if let Some(pos) = flags.iter().position(|a| a == "--json") {
        let doc = sweep_json(&axes, &planned, &outcomes, &points, &front);
        return match flags.get(pos + 1).filter(|a| !a.starts_with("--")) {
            None => Outcome::ok(doc),
            Some(file) => match std::fs::write(file, &doc) {
                Ok(()) => Outcome::ok(format!(
                    "wrote {} cells ({SWEEP_REPORT_SCHEMA}) to {file}\n",
                    planned.len()
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
        planned.len(),
        axes.len(),
        threads
    );
    let _ = writeln!(out, " cell                  seed    acc%     upKB  virt(s)  coords");
    for (cell, outcome) in planned.iter().zip(&outcomes) {
        let p = pareto_point(outcome);
        let star = if front.contains(&cell.index) { "*" } else { " " };
        let _ = writeln!(
            out,
            "{star}{:>4}  {:>20}  {:>5.1}  {:>7.1}  {:>7.3}  {}",
            cell.index,
            cell.config.seed,
            p.accuracy * 100.0,
            p.bytes / 1e3,
            p.secs,
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
