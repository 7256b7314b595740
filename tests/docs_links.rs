//! Keeps README.md and ARCHITECTURE.md honest: every local path the
//! docs link or name must exist in the repo, and every `fedsz fl` flag
//! the README demonstrates must appear in the CLI's usage text. CI
//! runs this as the "docs link check" step, so renaming a crate or a
//! flag without updating the docs fails the build.

use std::path::Path;

/// Repo root: these integration tests run with the workspace root as
/// the working directory, but derive it from the manifest to be safe.
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(name: &str) -> String {
    std::fs::read_to_string(root().join(name))
        .unwrap_or_else(|e| panic!("{name} must exist at the repo root: {e}"))
}

/// Extracts the targets of markdown inline links `[text](target)`.
fn markdown_link_targets(doc: &str) -> Vec<String> {
    let mut targets = Vec::new();
    let bytes = doc.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b']' && i + 1 < bytes.len() && bytes[i + 1] == b'(' {
            if let Some(end) = doc[i + 2..].find(')') {
                targets.push(doc[i + 2..i + 2 + end].to_string());
            }
        }
        i += 1;
    }
    targets
}

/// Extracts backticked tokens that look like repo paths (contain a
/// `/` and a known extension, or start with a tracked directory).
fn inline_path_tokens(doc: &str) -> Vec<String> {
    doc.split('`')
        .skip(1)
        .step_by(2)
        .filter(|tok| !tok.contains(char::is_whitespace) && !tok.contains("::"))
        .filter(|tok| {
            tok.starts_with("crates/")
                || tok.starts_with("tests/")
                || tok.starts_with("examples/")
                || tok.starts_with("shims/")
        })
        .map(str::to_string)
        .collect()
}

#[test]
fn every_documented_path_exists() {
    for doc_name in ["README.md", "ARCHITECTURE.md"] {
        let doc = read(doc_name);
        let mut checked = 0usize;
        for target in markdown_link_targets(&doc) {
            if target.starts_with("http://") || target.starts_with("https://") {
                continue;
            }
            let path = target.split('#').next().unwrap_or(&target);
            if path.is_empty() {
                continue;
            }
            assert!(
                root().join(path).exists(),
                "{doc_name} links to `{path}`, which does not exist"
            );
            checked += 1;
        }
        for token in inline_path_tokens(&doc) {
            assert!(
                root().join(&token).exists(),
                "{doc_name} names `{token}`, which does not exist"
            );
            checked += 1;
        }
        assert!(checked >= 3, "{doc_name} should reference at least a few repo paths");
    }
}

#[test]
fn architecture_names_real_modules() {
    // The layer diagram cites engine/link/agg modules; if a
    // refactor moves them, the diagram must move too.
    let doc = read("ARCHITECTURE.md");
    for (token, path) in [
        ("engine::RoundEngine", "crates/fl/src/engine.rs"),
        ("link::schedule", "crates/fl/src/link.rs"),
        ("agg::TreePlan", "crates/fl/src/agg/plan.rs"),
        ("PsumForwarder", "crates/fl/src/agg/psum.rs"),
        ("step::UplinkStage", "crates/fl/src/step.rs"),
        ("step::FoldStep", "crates/fl/src/step.rs"),
        ("RoundPlan", "crates/fl/src/plan.rs"),
        ("StagePolicy", "crates/fl/src/plan.rs"),
        ("PlanError", "crates/fl/src/plan.rs"),
    ] {
        assert!(doc.contains(token), "ARCHITECTURE.md no longer mentions `{token}`");
        assert!(root().join(path).exists(), "`{token}` documented but `{path}` is gone");
    }
}

#[test]
fn example_run_specs_exist_parse_and_are_documented() {
    // Every shipped run spec must parse under the CLI's spec grammar
    // (a stale key after a flag rename must fail this test, not the
    // user), and the docs must mention the directory so the specs are
    // discoverable.
    let dir = root().join("examples/configs");
    let mut specs = 0usize;
    for entry in std::fs::read_dir(&dir).expect("examples/configs/ must exist") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("toml") {
            continue;
        }
        specs += 1;
        let text = std::fs::read_to_string(&path).expect("readable spec");
        // Specs with a [matrix] table are sweep specs: they parse
        // under the sweep grammar (and the flat parser must route
        // users at them), not under `--config`.
        let sweep = fedsz_cli::spec::parse_sweep_spec(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        if !sweep.axes.is_empty() {
            let flat_err = fedsz_cli::spec::parse_spec(&text)
                .expect_err("a [matrix] spec must not parse as a flat run spec");
            assert!(
                flat_err.contains("fedsz sweep"),
                "{}: the flat parser must route [matrix] specs at `fedsz sweep`, got: {flat_err}",
                path.display()
            );
            assert!(!sweep.base.is_empty(), "{} has an empty base section", path.display());
            continue;
        }
        let entries = fedsz_cli::spec::parse_spec(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        assert!(!entries.is_empty(), "{} is an empty spec", path.display());
        // Specs must expand to flags the CLI accepts end to end.
        let mut args = vec!["fl".to_string(), "--rounds".into(), "1".into()];
        args.push("--config".into());
        args.push(path.to_string_lossy().into_owned());
        // Only validate the parse/validation path cheaply: a spec that
        // fails flag parsing or plan validation reports code != 0 with
        // a message; a valid one would train, which is the CI smoke
        // job's (not this test's) budget. Parse-only: expand + config.
        let expanded = fedsz_cli::spec::expand_config(&args)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(expanded.len() >= args.len() - 2, "expansion lost arguments");
    }
    assert!(specs >= 3, "expected the paper/tree/socket example specs, found {specs}");
    for doc_name in ["README.md", "ARCHITECTURE.md"] {
        let doc = read(doc_name);
        assert!(
            doc.contains("examples/configs"),
            "{doc_name} must point readers at the example run specs"
        );
    }
    // The named examples the docs walk through must exist.
    for name in ["paper.toml", "tree_depth3.toml", "socket.toml", "sweep_dp.toml"] {
        assert!(dir.join(name).exists(), "examples/configs/{name} is documented but missing");
    }
}

#[test]
fn readme_fl_flags_match_the_cli_usage() {
    // Every `--flag` the README demonstrates for `fedsz fl` must be a
    // real flag in the CLI's usage text (the usage string is itself
    // unit-tested against the parser in crates/cli).
    let readme = read("README.md");
    for flag in [
        "--clients",
        "--rounds",
        "--links",
        "--straggler",
        "--downlink",
        "--tree",
        "--psum",
        "--config",
        "--json",
        "--dp-clip",
        "--dp-noise",
    ] {
        assert!(readme.contains(flag), "README quickstart lost the `{flag}` example");
        assert!(
            fedsz_cli::USAGE.contains(flag),
            "README shows `{flag}` but the CLI usage does not"
        );
    }
}
