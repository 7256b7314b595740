//! Contract tests for the `fedsz sweep` scenario-matrix subsystem.
//!
//! Five contracts pinned here:
//!
//! 1. **Expansion** — a `[matrix]` spec expands cross-product style in
//!    declaration order with the last axis fastest, and every cell
//!    runs on the spec's seed unless `seed` is itself an axis.
//! 2. **Schema** — the merged document is one `fedsz.sweep_report.v1`
//!    that a real JSON parser accepts, with `axes`, per-cell `coords`,
//!    and one complete embedded `fedsz.run_report.v2` per cell.
//! 3. **Determinism** — two runs of the same sweep agree bit for bit
//!    outside the measured wall-clock fields (and the Pareto front,
//!    which ranks on wall time).
//! 4. **Parity** — every cell embeds the byte-identical report
//!    `fedsz fl --config BASE --AXIS VALUE… --json` prints for its
//!    coordinates, so cells that differ only in a repeated axis value
//!    are one run.
//! 5. **Up-front validation** — one bad cell fails the whole sweep
//!    before anything runs, naming the cell.
//!
//! Plus the paper's Section VII-D acceptance pin: a DP-noised cell
//! compresses measurably worse than its noise-free twin under the
//! FedSZ lossy uplink, and the strictness of `sweep`'s own flags.
//!
//! The CLI runs in-process through [`fedsz_cli::run`], so these tests
//! need no subprocess or installed binary.

use fedsz_telemetry::json::{self, Json};

/// Runs `fedsz <args>` in-process, asserting success.
fn run_ok(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let outcome = fedsz_cli::run(&args);
    assert_eq!(outcome.code, 0, "fedsz {args:?} failed:\n{}", outcome.report);
    outcome.report
}

/// Writes a spec to a temp file and returns its path.
fn write_spec(tag: &str, body: &str) -> String {
    let path = fedsz_cli::temp_path(tag);
    std::fs::write(&path, body).expect("writable temp spec");
    path
}

/// A 2×2 matrix over DP noise and the uplink family, sized to finish
/// in test time: 2 clients, 1 round, 2 training samples per class.
const MATRIX_SPEC: &str = "clients = 2\nrounds = 1\nseed = 42\ntrain-per-class = 2\n\
                           dp-clip = 0.5\n\n[matrix]\ndp-noise = [0.0, 0.5]\n\
                           uplink = [\"q8\", \"topk:0.1\"]\n";

/// Masks the measured wall-clock values (the only nondeterministic
/// bits in a report): everything after one of the timing keys up to
/// the next delimiter — or the whole array, for the per-level merge
/// nanos — is replaced with `#`.
fn mask_timing(doc: &str) -> String {
    const KEYS: [&str; 5] = [
        "\"secs\": ",
        "\"measured_codec_secs\": ",
        "\"predicted_compressed_secs\": ",
        "\"predicted_raw_secs\": ",
        "\"level_merge_nanos\": ",
    ];
    let mut out = doc.to_string();
    for key in KEYS {
        let mut masked = String::new();
        let mut rest = out.as_str();
        while let Some(pos) = rest.find(key) {
            let start = pos + key.len();
            masked.push_str(&rest[..start]);
            masked.push('#');
            let tail = &rest[start..];
            let skip = if tail.starts_with('[') {
                tail.find(']').map_or(tail.len(), |i| i + 1)
            } else {
                tail.find([',', '}', '\n']).unwrap_or(tail.len())
            };
            rest = &tail[skip..];
        }
        masked.push_str(rest);
        out = masked;
    }
    out
}

#[test]
fn matrix_expansion_is_row_major_on_the_base_seed() {
    let spec = write_spec("expansion.toml", MATRIX_SPEC);
    let report = run_ok(&["sweep", &spec, "--json"]);
    fedsz_cli::cleanup(&[&spec]);
    let doc = json::parse(&report).expect("sweep report parses under a real JSON parser");

    assert_eq!(doc.get("cell_count").and_then(Json::as_f64), Some(4.0));
    // Axes render in declaration order with their values verbatim.
    let axes = doc.get("axes").and_then(Json::as_array).expect("axes array");
    let axis = |i: usize| {
        let a = &axes[i];
        (
            a.get("key").and_then(Json::as_str).unwrap().to_string(),
            a.get("values")
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|v| v.as_str().unwrap().to_string())
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(axis(0), ("dp-noise".into(), vec!["0.0".into(), "0.5".into()]));
    assert_eq!(axis(1), ("uplink".into(), vec!["q8".into(), "topk:0.1".into()]));

    // Last axis fastest: uplink cycles within each dp-noise value.
    let cells = doc.get("cells").and_then(Json::as_array).expect("cells array");
    assert_eq!(cells.len(), 4);
    let want = [("0.0", "q8"), ("0.0", "topk:0.1"), ("0.5", "q8"), ("0.5", "topk:0.1")];
    for (i, (noise, uplink)) in want.iter().enumerate() {
        let cell = &cells[i];
        assert_eq!(cell.get("index").and_then(Json::as_f64), Some(i as f64));
        let coords = cell.get("coords").expect("coords object");
        assert_eq!(coords.get("dp-noise").and_then(Json::as_str), Some(*noise), "cell {i}");
        assert_eq!(coords.get("uplink").and_then(Json::as_str), Some(*uplink), "cell {i}");
        // `seed` is no axis here, so every cell runs on the base seed.
        assert_eq!(cell.get("seed").and_then(Json::as_f64), Some(42.0), "cell {i} seed");
    }
}

/// The `(seed, checksum)` each cell of a sweep over `spec` reports.
fn seeds_and_checksums(tag: &str, spec: &str) -> Vec<(f64, String)> {
    let spec = write_spec(tag, spec);
    let report = run_ok(&["sweep", &spec, "--json"]);
    fedsz_cli::cleanup(&[&spec]);
    let doc = json::parse(&report).expect("sweep report parses");
    let cells = doc.get("cells").and_then(Json::as_array).expect("cells array");
    cells
        .iter()
        .map(|cell| {
            let seed = cell.get("seed").and_then(Json::as_f64).expect("seed");
            let checksum = cell.get("report").and_then(|r| r.get("checksum")?.as_str());
            (seed, checksum.expect("checksum").to_string())
        })
        .collect()
}

#[test]
fn a_repeated_axis_value_is_the_same_run_and_a_seed_axis_replicates() {
    // Two cells whose coordinates are equal are one `fedsz fl` run:
    // same seed, same global model bits.
    let base = "clients = 2\nrounds = 1\ntrain-per-class = 2\n\n[matrix]\n";
    let cells = seeds_and_checksums("repeat.toml", &format!("{base}uplink = [\"raw\", \"raw\"]\n"));
    assert_eq!(cells.len(), 2);
    assert_eq!(cells[0].0, 42.0, "the default seed");
    assert_eq!(cells[0], cells[1], "cells that differ only in a repeated value");
    // Replicates are a seed axis: each cell runs on its own seed.
    let cells = seeds_and_checksums("seeds.toml", &format!("{base}seed = [1, 2]\n"));
    assert_eq!(cells.iter().map(|c| c.0).collect::<Vec<_>>(), [1.0, 2.0]);
    assert_ne!(cells[0].1, cells[1].1, "two seeds, one checksum");
}

#[test]
fn sweep_report_v1_schema_holds_under_a_real_parser() {
    let spec = write_spec("schema.toml", MATRIX_SPEC);
    let report = run_ok(&["sweep", &spec, "--json"]);
    fedsz_cli::cleanup(&[&spec]);
    let doc = json::parse(&report).expect("sweep report parses");

    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(fedsz_cli::sweep::SWEEP_REPORT_SCHEMA)
    );
    assert_eq!(
        doc.get("schema_version").and_then(Json::as_f64),
        Some(f64::from(fedsz_cli::sweep::SWEEP_SCHEMA_VERSION))
    );
    // Every cell embeds one complete run report: the run-level schema
    // tag, the checksum the plain run would print, and the DP columns
    // (never omitted — cell 0 and 1 are clip-only, sigma 0).
    let cells = doc.get("cells").and_then(Json::as_array).expect("cells array");
    for (i, cell) in cells.iter().enumerate() {
        let embedded = cell.get("report").expect("embedded run report");
        assert_eq!(
            embedded.get("schema").and_then(Json::as_str),
            Some("fedsz.run_report.v2"),
            "cell {i}"
        );
        assert!(embedded.get("checksum").and_then(Json::as_str).is_some(), "cell {i} checksum");
        let rounds = embedded.get("rounds").and_then(Json::as_array).expect("rounds");
        assert!(!rounds.is_empty(), "cell {i} has rounds");
        for row in rounds {
            let sigma = row.get("dp_sigma").expect("dp_sigma column present");
            let want = if i < 2 { 0.0 } else { 0.25 };
            assert_eq!(sigma.as_f64(), Some(want), "cell {i}: sigma = clip × multiplier");
            assert!(
                row.get("clipped_fraction").and_then(Json::as_f64).is_some(),
                "the simulator observes clipping, so the column is filled"
            );
        }
    }
    // The Pareto front is non-empty (something always survives) and
    // only names real cells.
    let front = doc.get("pareto").and_then(Json::as_array).expect("pareto array");
    assert!(!front.is_empty(), "a non-empty sweep has a non-empty Pareto front");
    for p in front {
        let index = p.get("index").and_then(Json::as_f64).expect("pareto index") as usize;
        assert!(index < cells.len(), "pareto front names cell {index} of {}", cells.len());
        assert!(p.get("upstream_bytes").and_then(Json::as_f64).is_some());
    }
}

#[test]
fn sweeps_are_deterministic_outside_wall_clock() {
    let spec = write_spec("determinism.toml", MATRIX_SPEC);
    let first = run_ok(&["sweep", &spec, "--json", "--threads", "2"]);
    let second = run_ok(&["sweep", &spec, "--json", "--threads", "1"]);
    fedsz_cli::cleanup(&[&spec]);
    // The Pareto front ranks on measured wall time, so it may differ
    // run to run by design; everything before it must agree bit for
    // bit once the measured timings are masked — across pool widths.
    let cells_only = |doc: &str| {
        let masked = mask_timing(doc);
        masked.split("\"pareto\"").next().expect("report has a pareto section").to_string()
    };
    assert_eq!(
        cells_only(&first),
        cells_only(&second),
        "same spec must reproduce the same cells, regardless of worker threads"
    );
}

#[test]
fn a_one_cell_sweep_embeds_the_plain_fl_report_bit_for_bit() {
    let flat = "clients = 2\nrounds = 1\nseed = 42\ntrain-per-class = 2\ndp-clip = 0.5\n\
                dp-noise = 0.5\n";
    let base = write_spec("parity_base.toml", flat);
    // (sweep spec, cell index, the `fedsz fl` flags of that cell): a
    // flat spec is the degenerate one-cell sweep, and cell 1 of a
    // two-cell matrix is the base spec plus its coordinate.
    let one_cell = write_spec("parity.toml", &format!("{flat}uplink = \"q8\"\n"));
    let two_cells = write_spec(
        "parity_matrix.toml",
        &format!("{flat}\n[matrix]\nuplink = [\"raw\", \"q8\"]\n"),
    );
    for (spec, index, fl) in [
        (&one_cell, 0, vec!["--config", one_cell.as_str()]),
        (&two_cells, 1, vec!["--config", base.as_str(), "--uplink", "q8"]),
    ] {
        let sweep = run_ok(&["sweep", spec, "--json"]);
        let plain = run_ok(&[&["fl"][..], &fl, &["--json"]].concat());
        // The embedded report must be the exact document the plain run
        // prints — only measured timings may differ.
        let sweep_parsed = json::parse(&sweep).expect("sweep parses");
        let cells = sweep_parsed.get("cells").and_then(Json::as_array).expect("cells array");
        let sweep_doc = mask_timing(&sweep);
        let cell_doc = sweep_doc.split("{\"index\": ").nth(index + 1).expect("the cell's entry");
        let plain_doc = mask_timing(&plain);
        assert!(
            cell_doc.contains(plain_doc.trim_end()),
            "cell {index} of {spec} must embed `fedsz fl {fl:?} --json` bit for bit\n\
             --- sweep ---\n{sweep_doc}\n--- fl ---\n{plain_doc}"
        );
        // And the model fingerprints agree exactly — no masking needed.
        let plain_parsed = json::parse(&plain).expect("plain report parses");
        let plain_sum = plain_parsed.get("checksum").and_then(Json::as_str);
        let embedded = cells[index].get("report").and_then(|r| r.get("checksum")?.as_str());
        assert!(plain_sum.is_some(), "plain report carries a checksum");
        assert_eq!(embedded, plain_sum, "cell {index} of {spec}: the global model bits");
    }
    fedsz_cli::cleanup(&[&base, &one_cell, &two_cells]);
}

#[test]
fn one_bad_cell_fails_the_whole_sweep_up_front() {
    let spec = write_spec(
        "bad_cell.toml",
        "clients = 2\nrounds = 1\ntrain-per-class = 2\n\n[matrix]\n\
         uplink = [\"q8\", \"nonsense\"]\n",
    );
    let args: Vec<String> = ["sweep", spec.as_str()].iter().map(|s| s.to_string()).collect();
    let outcome = fedsz_cli::run(&args);
    fedsz_cli::cleanup(&[&spec]);
    assert_ne!(outcome.code, 0, "a sweep with an invalid cell must not start");
    assert!(
        outcome.report.contains("cell 1") && outcome.report.contains("uplink=nonsense"),
        "the error must name the offending cell and its coordinates, got:\n{}",
        outcome.report
    );
}

#[test]
fn a_malformed_base_seed_fails_instead_of_defaulting() {
    // The base seed is every cell's seed; a typo in it must not
    // quietly sweep from the default seed instead.
    let spec = write_spec(
        "bad_seed.toml",
        "clients = 2\nrounds = 1\ntrain-per-class = 2\nseed = \"4two\"\n\n[matrix]\n\
         uplink = [\"q8\", \"raw\"]\n",
    );
    let args: Vec<String> = ["sweep", spec.as_str()].iter().map(|s| s.to_string()).collect();
    let outcome = fedsz_cli::run(&args);
    fedsz_cli::cleanup(&[&spec]);
    assert_ne!(outcome.code, 0, "a sweep with a malformed seed must not start");
    assert!(
        outcome.report.contains("--seed expects an integer seed, got `4two`"),
        "{}",
        outcome.report
    );
}

/// The Section VII-D acceptance pin: DP noise is incompressible, so
/// the noised cell's lossy uplink ships measurably more bytes than
/// its noise-free twin — same spec, same seed, one axis.
#[test]
fn dp_noise_measurably_hurts_lossy_compression() {
    // The effect needs a model big enough that the noise floor beats
    // the lossy codec's error bound — AlexNet, not the tiny default.
    let spec = write_spec(
        "vii_d.toml",
        "clients = 4\nrounds = 2\nseed = 42\narch = \"alexnet\"\ntrain-per-class = 4\n\
         dp-clip = 0.5\nuplink = \"lossy\"\n\n[matrix]\ndp-noise = [0.0, 1.0]\n",
    );
    let report = run_ok(&["sweep", &spec, "--json"]);
    fedsz_cli::cleanup(&[&spec]);
    let doc = json::parse(&report).expect("sweep report parses");
    let cells = doc.get("cells").and_then(Json::as_array).expect("cells");
    let upstream = |cell: &Json| -> f64 {
        cell.get("report")
            .and_then(|r| r.get("rounds"))
            .and_then(Json::as_array)
            .expect("rounds")
            .iter()
            .map(|row| row.get("upstream_bytes").and_then(Json::as_f64).expect("bytes"))
            .sum()
    };
    let (quiet, noised) = (upstream(&cells[0]), upstream(&cells[1]));
    assert!(
        noised > quiet,
        "a DP-noised update must compress worse under the lossy codec \
         (noise-free {quiet} bytes vs noised {noised} bytes)"
    );
}

/// `sweep` parses its flags through the flag table: a mistyped,
/// repeated or foreign flag exits 2 before any cell runs, and `--json`
/// prints the document, or writes it to the file that follows it.
#[test]
fn sweep_flags_are_parsed_not_guessed() {
    let spec = write_spec(
        "flags.toml",
        "clients = 2\nrounds = 1\ntrain-per-class = 2\n\n[matrix]\nuplink = [\"q8\"]\n",
    );
    let file = fedsz_cli::temp_path("flags.json");
    for (flags, needle) in [
        (&["--thread", "1", "--jsn", file.as_str()][..], "unknown flag --thread"),
        (&["--threads", "1", "--jsn", file.as_str()], "unknown flag --jsn"),
        (&["--threads", "1", "--threads", "2"], "--threads given twice"),
        (&["--json", "--json"], "--json given twice"),
        (&["--threads", "two"], "--threads expects a positive worker-thread count"),
        (&["--clients", "2"], "not a `fedsz sweep` one"),
    ] {
        let args: Vec<String> =
            ["sweep", spec.as_str()].iter().chain(flags).map(|s| s.to_string()).collect();
        let outcome = fedsz_cli::run(&args);
        assert_eq!(outcome.code, 2, "{flags:?}: {}", outcome.report);
        assert!(outcome.report.contains(needle), "{flags:?} gave `{}`", outcome.report);
    }
    assert!(!std::path::Path::new(&file).exists(), "a refused sweep wrote its report");

    let printed = run_ok(&["sweep", &spec, "--json", "--threads", "1"]);
    let wrote = run_ok(&["sweep", &spec, "--threads", "1", "--json", &file]);
    let written = std::fs::read_to_string(&file).expect("--json FILE writes the report");
    fedsz_cli::cleanup(&[&spec, &file]);
    assert!(wrote.contains("wrote 1 cells"), "{wrote}");
    let cells_only = |doc: &str| mask_timing(doc).split("\"pareto\"").next().unwrap().to_string();
    assert_eq!(cells_only(&printed), cells_only(&written));
}
