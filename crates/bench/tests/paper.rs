//! Drives the `paper` bin the way CI does, at smoke scale, and checks
//! the `fedsz.paper.v2` document it writes with a real JSON parser.

use fedsz_telemetry::json::{self, Json};
use std::path::PathBuf;
use std::process::{Command, Stdio};

const SECTIONS: [&str; 18] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "ablation_sz2",
    "ablation_shuffle",
    "ablation_threshold",
    "ablation_composition",
];

fn paper(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn the paper bin")
        .code()
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fedsz_paper_{name}_{}.json", std::process::id()))
}

fn load(path: &PathBuf) -> Json {
    let text = std::fs::read_to_string(path).expect("the run wrote its document");
    let _ = std::fs::remove_file(path);
    json::parse(&text).expect("the document is valid JSON")
}

fn array<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key).and_then(Json::as_array).unwrap_or_else(|| panic!("`{key}` must be an array"))
}

fn text<'a>(value: &'a Json, key: &str) -> &'a str {
    value.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("`{key}` must be a string"))
}

/// A grid's rows as column-name → cell maps.
fn rows(grid: &Json) -> Vec<std::collections::BTreeMap<&str, &Json>> {
    let columns: Vec<&str> = array(grid, "columns").iter().filter_map(Json::as_str).collect();
    let rows = array(grid, "rows").iter().map(|row| row.as_array().expect("a row is an array"));
    rows.map(|row| columns.iter().copied().zip(row).collect()).collect()
}

// The full-size metadata pool and xz make this minutes long unoptimized.
#[cfg_attr(debug_assertions, ignore = "run with --release, as CI does")]
#[test]
fn smoke_run_writes_every_section_and_evaluates_every_gate() {
    let out = scratch("smoke");
    let code = paper(&["--scale", "0.002", "--rounds", "1", "--out", out.to_str().unwrap()]);
    // Exit 1 says a gate failed, which shape checks may at this scale
    // (one round trains nothing); anything else is a crash or misuse.
    assert!(matches!(code, Some(0 | 1)), "paper exited with {code:?}");
    let doc = load(&out);
    assert_eq!(text(&doc, "schema"), "fedsz.paper.v2");
    assert_eq!(doc.get("schema_version").and_then(Json::as_f64), Some(2.0));
    let settings = doc.get("settings").expect("`settings` object");
    assert_eq!(settings.get("scale").and_then(Json::as_f64), Some(0.002));
    assert_eq!(settings.get("rounds").and_then(Json::as_f64), Some(1.0));
    let ran: Vec<&str> = array(settings, "sections").iter().filter_map(Json::as_str).collect();
    assert_eq!(ran, SECTIONS);

    // The three grids, then every section's tables: `fig4` and `fig4.2`
    // for a section's first two. Figure 3 is three histograms, as in
    // its parent bin, so it has none.
    let grids = doc.get("grids").and_then(Json::as_object).expect("`grids` object");
    for name in SECTIONS {
        assert_eq!(grids.contains_key(name), name != "fig3", "{name}");
    }
    for (name, grid) in grids {
        let section = name.split('.').next().unwrap();
        assert!(name.ends_with("_grid") || SECTIONS.contains(&section), "{name}");
        let columns = array(grid, "columns");
        for list in ["key", "timing"] {
            assert!(array(grid, list).iter().all(|c| columns.contains(c)), "{name}: {list}");
        }
        let rows = array(grid, "rows");
        assert!(rows.iter().all(|r| r.as_array().is_some_and(|r| r.len() == columns.len())));
        if !name.ends_with("_grid") {
            assert!(!text(grid, "title").is_empty() && !rows.is_empty(), "{name}");
        }
    }

    let gates = array(&doc, "gates");
    let verdict = |name: &str| {
        let gate = gates.iter().find(|g| text(g, "name") == name);
        gate.unwrap_or_else(|| panic!("gate `{name}` missing"))
            .get("passed")
            .and_then(Json::as_bool)
    };
    for gate in gates {
        let (section, _) = text(gate, "name").split_once('.').expect("section.check");
        assert!(SECTIONS.contains(&section), "{section}");
        assert!(gate.get("passed").and_then(Json::as_bool).is_some(), "{}", text(gate, "name"));
        assert!(!text(gate, "detail").is_empty());
    }
    let failed = gates.iter().filter(|g| g.get("passed") == Some(&Json::Bool(false))).count();
    assert_eq!(doc.get("gates_failed").and_then(Json::as_f64), Some(failed as f64));
    assert_eq!(code, Some(i32::from(failed > 0)));
    // What must hold at any scale: the error bound, SZ2's lead over
    // SZ3 and its block choice never losing to Lorenzo alone, lossless
    // round trips, and the shared-pipe and composition claims (those
    // two sections train at a fixed size, whatever `--scale` says).
    for name in [
        "table1.sz2_leads_at_1e-2",
        "ablation_sz2.hybrid_never_loses",
        "ablation_sz2.block_size_barely_matters",
        "table1.bound_held.SZ2",
        "table1.bound_held.SZ3",
        "table1.bound_held.SZx",
        "table2.round_trip",
        "fig9.comm_grows_with_clients",
        "fig9.compression_cuts_comm",
        "ablation_composition.fedsz_composes_cleanly",
        "ablation_composition.pays_off_on_the_delta",
    ] {
        assert_eq!(verdict(name), Some(true), "{name}");
    }

    let lossy = rows(&grids["lossy_grid"]);
    assert_eq!(lossy.len(), 3 * 4 * 3, "models x codecs x bounds");
    for cell in lossy {
        let err = cell["err_over_eb"].as_f64().expect("err_over_eb");
        let held = cell["bound_held"].as_bool().expect("bound_held");
        assert_eq!(held, err <= 1.0);
        assert!(held || cell["codec"].as_str() == Some("ZFP"), "only ZFP may overshoot: {cell:?}");
    }
    assert_eq!(rows(&grids["pipeline_grid"]).len(), 3 * 3 * 5, "datasets x models x bounds");
    let training = rows(&grids["training_grid"]);
    assert_eq!(training.len(), 3 * 15 + 6, "CIFAR-10 archs x uplinks, plus Fig 6's six");
    assert!(training.iter().all(|run| run["accuracy"].as_array().is_some_and(|a| a.len() == 1)));
}

#[test]
fn a_filtered_run_spares_the_tracked_file_and_rejects_unknown_names() {
    assert_eq!(paper(&["fig99"]), Some(2));
    assert_eq!(paper(&["--scale", "0.002", "table4", "--out", "BENCH_paper.json"]), Some(2));
    assert!(!PathBuf::from("BENCH_paper.json").exists(), "the refused run wrote nothing");
    let out = scratch("filtered");
    assert_eq!(paper(&["--scale", "0.002", "table4", "--out", out.to_str().unwrap()]), Some(0));
    let doc = load(&out);
    let grids = doc.get("grids").and_then(Json::as_object).expect("`grids` object");
    let names = ["lossy_grid", "pipeline_grid", "table4", "training_grid"];
    assert_eq!(grids.keys().collect::<Vec<_>>(), names);
    assert!(
        array(&grids["lossy_grid"], "rows").is_empty(),
        "a grid no section reads is not measured"
    );
}
