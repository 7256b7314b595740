//! Declarative run specs: a dependency-free TOML-subset parser that
//! turns `run.toml` files into the exact flag vocabulary the CLI
//! already speaks.
//!
//! `fedsz fl|serve|worker --config run.toml` reads a key/value file
//! and appends the equivalent flags after the command-line ones,
//! dropping any file key whose flag the command line already set —
//! command-line flags override file values (repeatable flags
//! included: an explicit `--straggler` replaces the file's whole
//! `straggler` list, it does not merge with it). The same config file
//! can therefore drive a whole fleet while each process overrides
//! only what differs (`--id`, `--bind`, `--connect`).
//!
//! The accepted grammar is the flat subset of TOML a run spec needs:
//!
//! ```toml
//! # comments and blank lines
//! clients = 8              # integers / floats stay verbatim
//! tree = "2x4"             # quoted or bare strings
//! psum = "lossless"
//! weighted = true          # booleans become bare flags
//! straggler = ["0:4", "1:2"]   # arrays repeat the flag
//! ```
//!
//! No tables/sections, no multi-line values, no escapes — a `[table]`
//! header or an unknown key is a *hard error*, because a silently
//! ignored key in a run spec is exactly the class of misconfiguration
//! the plan layer exists to reject. Keys may use `_` or `-`
//! interchangeably (`train_per_class` = `train-per-class`).

use crate::flags::{self, Arity, Flag, FLAGS};
use std::fmt::Write as _;

/// One parsed spec value.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecValue {
    /// A scalar: number or string, kept verbatim for the flag parser
    /// to re-parse (so the file and the flag path share one
    /// validation).
    Scalar(String),
    /// A boolean: `true` appends the bare flag, `false` omits it.
    Bool(bool),
    /// An array of scalars: the flag is repeated once per element.
    List(Vec<String>),
}

/// The flag a run-spec key names: every run subcommand's row of the
/// flag table but `config` (a spec cannot include another spec). A key behaves exactly
/// like its flag on the invoked subcommand — including `serve`/`worker`
/// *rejecting* simulator-only keys (`bandwidth`, `weighted`,
/// `participation`, …), since several of them shape the bits and
/// silently ignoring one would let a deployment print a checksum that
/// can never match its `fl` twin. A spec meant to drive a whole
/// serve+worker fleet must therefore stick to the keys all three share
/// (see `examples/configs/socket.toml`).
fn spec_flag(key: &str) -> Option<&'static Flag> {
    flags::lookup(key).filter(|flag| flag.runs() && flag.name != "config")
}

/// The keys an array value is legal for: the repeatable flags.
/// Everything else takes one value, and a flag given twice is a parse
/// error.
fn repeatable_keys() -> Vec<&'static str> {
    FLAGS.iter().filter(|f| matches!(f.arity, Arity::Repeated(_))).map(|f| f.name).collect()
}

fn normalize_key(key: &str) -> String {
    key.replace('_', "-")
}

/// Parses one value token: quoted string, boolean, bare scalar, or a
/// single-line array of those.
fn parse_value(raw: &str, line_no: usize) -> Result<SpecValue, String> {
    let raw = raw.trim();
    if raw.is_empty() {
        return Err(format!("line {line_no}: missing value"));
    }
    if let Some(body) = raw.strip_prefix('[') {
        let Some(body) = body.strip_suffix(']') else {
            return Err(format!("line {line_no}: unterminated array (arrays are single-line)"));
        };
        let mut items = Vec::new();
        for item in body.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue; // tolerate a trailing comma
            }
            match parse_value(item, line_no)? {
                SpecValue::Scalar(s) => items.push(s),
                SpecValue::Bool(_) => {
                    return Err(format!("line {line_no}: arrays may not contain booleans"))
                }
                SpecValue::List(_) => {
                    return Err(format!("line {line_no}: nested arrays are not supported"))
                }
            }
        }
        // Arrays must be one type throughout: a `[0.0, "q8"]` mix is
        // almost always a quoting slip, and down a [matrix] axis it
        // would silently sweep a value the flag parser then rejects
        // mid-grid.
        let numeric = items.iter().filter(|i| i.parse::<f64>().is_ok()).count();
        if numeric != 0 && numeric != items.len() {
            return Err(format!(
                "line {line_no}: array mixes numbers and strings — an array (and a \
                 [matrix] axis) must be all one type; quote every value or none"
            ));
        }
        return Ok(SpecValue::List(items));
    }
    if let Some(body) = raw.strip_prefix('"') {
        let Some(body) = body.strip_suffix('"') else {
            return Err(format!("line {line_no}: unterminated string"));
        };
        if body.contains('"') || body.contains('\\') {
            return Err(format!("line {line_no}: escapes are not supported in spec strings"));
        }
        return Ok(SpecValue::Scalar(body.to_string()));
    }
    match raw {
        "true" => Ok(SpecValue::Bool(true)),
        "false" => Ok(SpecValue::Bool(false)),
        _ => {
            if raw.contains('"') {
                return Err(format!("line {line_no}: malformed value `{raw}`"));
            }
            Ok(SpecValue::Scalar(raw.to_string()))
        }
    }
}

/// Strips a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses a run spec into `(key, value)` entries, in file order.
///
/// # Errors
///
/// Returns a message naming the offending line for any syntax the
/// subset does not cover, and for unknown keys (silently ignoring a
/// typo'd key is exactly what run specs must not do).
pub fn parse_spec(text: &str) -> Result<Vec<(String, SpecValue)>, String> {
    let mut entries = Vec::new();
    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            if line == "[matrix]" {
                return Err(format!(
                    "line {line_no}: [matrix] makes this a sweep spec — run it with \
                     `fedsz sweep FILE`, not --config"
                ));
            }
            return Err(format!(
                "line {line_no}: tables like `{line}` are not supported (run specs are flat)"
            ));
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("line {line_no}: expected `key = value`, got `{line}`"));
        };
        let key = normalize_key(key.trim());
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '-') {
            return Err(format!("line {line_no}: bad key `{key}`"));
        }
        let Some(flag) = spec_flag(&key) else {
            return Err(format!(
                "line {line_no}: unknown key `{key}` (see `fedsz --help` for the flag list)"
            ));
        };
        if entries.iter().any(|(k, _)| *k == key) {
            return Err(format!("line {line_no}: duplicate key `{key}`"));
        }
        let value = parse_value(value, line_no)?;
        match (flag.arity, &value) {
            (Arity::Switch, SpecValue::Bool(_)) => {}
            (Arity::Switch, _) => {
                return Err(format!("line {line_no}: `{key}` expects true or false"));
            }
            (_, SpecValue::Bool(_)) => {
                return Err(format!("line {line_no}: `{key}` expects a value, not a boolean"));
            }
            (Arity::Value(_), SpecValue::List(_)) => {
                return Err(format!(
                    "line {line_no}: `{key}` takes one value, not an array (arrays are only \
                     legal for repeatable flags: {})",
                    repeatable_keys().join(", ")
                ));
            }
            _ => {}
        }
        entries.push((key, value));
    }
    Ok(entries)
}

/// Renders parsed entries as the flag vector they are equivalent to.
pub fn spec_to_args(entries: &[(String, SpecValue)]) -> Vec<String> {
    let mut args = Vec::new();
    for (key, value) in entries {
        let flag = format!("--{key}");
        match value {
            SpecValue::Scalar(v) => {
                args.push(flag);
                args.push(v.clone());
            }
            SpecValue::Bool(true) => args.push(flag),
            SpecValue::Bool(false) => {}
            SpecValue::List(items) => {
                for item in items {
                    args.push(flag.clone());
                    args.push(item.clone());
                }
            }
        }
    }
    args
}

/// Expands a `--config FILE` flag: returns the argument vector with
/// the file's equivalent flags appended *after* the command-line ones.
/// A file key whose `--flag` already appears on the command line is
/// dropped entirely, so explicit flags override file values for
/// scalars *and* for repeatable flags (where the flag parser would
/// otherwise merge both sources and apply the file's values last).
/// Without `--config` the args pass through untouched.
///
/// # Errors
///
/// Returns a message when the file cannot be read or fails to parse.
pub fn expand_config(args: &[String]) -> Result<Vec<String>, String> {
    let Some(pos) = args.iter().position(|a| a == "--config") else {
        return Ok(args.to_vec());
    };
    let Some(path) = args.get(pos + 1) else {
        return Err("--config requires a file path".into());
    };
    if args[pos + 2..].iter().any(|a| a == "--config") {
        return Err("--config may be given at most once".into());
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut entries = parse_spec(&text).map_err(|e| format!("{path}: {e}"))?;
    // `shards` and `tree` are two spellings of one logical topology
    // setting (the plan layer rejects them together), so an explicit
    // topology flag overrides the file's topology under either name —
    // otherwise `--shards 4` against a spec with `tree = "2x4"` would
    // hard-fail as a conflict the user cannot resolve from the CLI.
    let cli_sets_topology = args.iter().any(|a| a == "--shards" || a == "--tree");
    entries.retain(|(key, _)| {
        if cli_sets_topology && (key == "shards" || key == "tree") {
            return false;
        }
        !args.iter().any(|a| *a == format!("--{key}"))
    });
    let mut expanded: Vec<String> = Vec::with_capacity(args.len() + entries.len() * 2);
    expanded.extend_from_slice(&args[..pos]);
    expanded.extend_from_slice(&args[pos + 2..]);
    expanded.extend(spec_to_args(&entries));
    Ok(expanded)
}

/// A parsed sweep spec: the flat base entries plus the `[matrix]`
/// axes, both in declaration order. A spec without `[matrix]` parses
/// to an empty axis list — the degenerate single-cell sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// The flat section, exactly what [`parse_spec`] returns for it.
    pub base: Vec<(String, SpecValue)>,
    /// `(key, values)` per matrix axis, in declaration order.
    pub axes: Vec<(String, Vec<String>)>,
}

/// Parses a sweep spec: the flat run-spec grammar, optionally followed
/// by one `[matrix]` table whose entries are `key = [v1, v2, ...]`
/// arrays over the value-taking run-spec keys.
///
/// # Errors
///
/// Returns a line-numbered message for everything [`parse_spec`]
/// rejects in the flat section, and for matrix-specific faults: a
/// non-array axis, an empty or mixed-type array, an unknown or
/// duplicate axis key, an axis also pinned in the flat section, or
/// anything after `[matrix]` that is not an axis line.
pub fn parse_sweep_spec(text: &str) -> Result<SweepSpec, String> {
    let mut base_lines: Vec<&str> = Vec::new();
    let mut axes: Vec<(String, Vec<String>)> = Vec::new();
    let mut matrix_line = None;
    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw_line).trim();
        if matrix_line.is_none() {
            if line == "[matrix]" {
                matrix_line = Some(line_no);
            } else {
                base_lines.push(raw_line);
            }
            continue;
        }
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            return Err(format!(
                "line {line_no}: `{line}` — [matrix] must be the only and last table \
                 in a sweep spec"
            ));
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("line {line_no}: expected `key = [v1, v2, ...]`, got `{line}`"));
        };
        let key = normalize_key(key.trim());
        if spec_flag(&key).is_none_or(|flag| flag.arity == Arity::Switch) {
            return Err(format!(
                "line {line_no}: unknown matrix axis `{key}` (axes are the value-taking \
                 run-spec keys; see `fedsz --help`)"
            ));
        }
        if axes.iter().any(|(k, _)| *k == key) {
            return Err(format!("line {line_no}: duplicate matrix axis `{key}`"));
        }
        match parse_value(value, line_no)? {
            SpecValue::List(items) if !items.is_empty() => axes.push((key, items)),
            SpecValue::List(_) => {
                return Err(format!("line {line_no}: matrix axis `{key}` has no values"))
            }
            SpecValue::Scalar(_) | SpecValue::Bool(_) => {
                return Err(format!(
                    "line {line_no}: matrix axis `{key}` must be an array of values \
                     (a fixed value belongs above [matrix])"
                ));
            }
        }
    }
    // The base section re-parses through the flat grammar; it comes
    // first in the file, so its error line numbers stay accurate.
    let base = parse_spec(&base_lines.join("\n"))?;
    for (key, _) in &axes {
        if base.iter().any(|(k, _)| k == key) {
            return Err(format!(
                "matrix axis `{key}` is also pinned in the flat section; sweep it or \
                 pin it, not both"
            ));
        }
    }
    if let Some(line_no) = matrix_line {
        if axes.is_empty() {
            return Err(format!(
                "line {line_no}: [matrix] has no axes (delete the table or add \
                 `key = [v1, v2]` lines)"
            ));
        }
    }
    Ok(SweepSpec { base, axes })
}

/// Renders entries back as canonical spec text (used by tests to
/// assert round-tripping, and handy for generating example files).
pub fn render_spec(entries: &[(String, SpecValue)]) -> String {
    let mut out = String::new();
    for (key, value) in entries {
        match value {
            SpecValue::Scalar(v) => {
                if v.parse::<f64>().is_ok() {
                    let _ = writeln!(out, "{key} = {v}");
                } else {
                    let _ = writeln!(out, "{key} = \"{v}\"");
                }
            }
            SpecValue::Bool(b) => {
                let _ = writeln!(out, "{key} = {b}");
            }
            SpecValue::List(items) => {
                let quoted: Vec<String> = items.iter().map(|i| format!("\"{i}\"")).collect();
                let _ = writeln!(out, "{key} = [{}]", quoted.join(", "));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_subset() {
        let spec = r#"
            # a run spec
            clients = 8
            tree = "2x4"            # inline comment
            psum = lossless
            weighted = true
            no-compress = false
            participation = 0.5
            straggler = ["0:4", "1:2"]
        "#;
        let entries = parse_spec(spec).unwrap();
        let args = spec_to_args(&entries);
        assert_eq!(
            args,
            vec![
                "--clients",
                "8",
                "--tree",
                "2x4",
                "--psum",
                "lossless",
                "--weighted",
                "--participation",
                "0.5",
                "--straggler",
                "0:4",
                "--straggler",
                "1:2",
            ]
        );
    }

    #[test]
    fn underscores_normalize_to_dashes() {
        let entries = parse_spec("train_per_class = 4").unwrap();
        assert_eq!(spec_to_args(&entries), vec!["--train-per-class", "4"]);
    }

    #[test]
    fn every_flag_but_config_is_a_spec_key() {
        // The keys are the run subcommands' rows of the flag table, so
        // a socket knob a spec used to reject by omission parses like
        // any other, and `gen`/`compress`'s rows are no keys at all.
        for flag in FLAGS.iter().filter(|f| f.runs() && f.name != "config") {
            let value = match flag.arity {
                Arity::Switch => "true",
                Arity::Value(_) | Arity::Repeated(_) => "1",
            };
            let entries = parse_spec(&format!("{} = {value}", flag.name))
                .unwrap_or_else(|e| panic!("--{} is not a spec key: {e}", flag.name));
            assert_eq!(spec_to_args(&entries)[0], format!("--{}", flag.name));
        }
        for key in ["scale", "eb", "abs", "lossy", "lossless", "threshold"] {
            let err = parse_spec(&format!("{key} = 1")).unwrap_err();
            assert!(err.contains("unknown key"), "{key}: {err}");
        }
    }

    #[test]
    fn junk_is_rejected_with_line_numbers() {
        for (spec, needle) in [
            ("[section]\nclients = 2", "tables"),
            ("clients 2", "key = value"),
            ("frobnicate = 2", "unknown key"),
            ("clients = ", "missing value"),
            ("clients = \"2", "unterminated string"),
            ("straggler = [\"0:1\"", "unterminated array"),
            ("weighted = 3", "expects true or false"),
            ("clients = true", "expects a value"),
            ("clients = 2\nclients = 3", "duplicate"),
            ("straggler = [true]", "booleans"),
            ("tree = \"a\\\"b\"", "escapes"),
            // An array on a scalar key would silently drop all but its
            // first element at the flag parser; reject it outright.
            ("links = [100, 1]", "takes one value"),
            ("clients = [2, 4]", "takes one value"),
            // A spec cannot pull in another spec.
            ("config = \"other.toml\"", "unknown key"),
        ] {
            let err = parse_spec(spec).unwrap_err();
            assert!(err.contains(needle), "spec {spec:?} gave `{err}`, wanted `{needle}`");
            assert!(err.contains("line "), "error must name a line: {err}");
        }
    }

    #[test]
    fn expand_appends_file_flags_after_cli_flags() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("fedsz-spec-{}.toml", std::process::id()));
        std::fs::write(&path, "clients = 8\nrounds = 3\n").unwrap();
        let args: Vec<String> = ["--rounds", "1", "--config", path.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let expanded = expand_config(&args).unwrap();
        // The CLI set --rounds, so the file's rounds entry is dropped.
        assert_eq!(expanded, vec!["--rounds", "1", "--clients", "8"]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cli_flags_override_either_file_spelling_of_one_setting() {
        // `shards` and `tree` are one logical setting: an explicit
        // --shards must displace a file's `tree` (and vice versa)
        // instead of colliding into a contradictory-topology error.
        let dir = std::env::temp_dir();
        let path = dir.join(format!("fedsz-spec-topo-{}.toml", std::process::id()));
        std::fs::write(&path, "tree = \"2x4\"\nrounds = 2\n").unwrap();
        let args: Vec<String> = ["--shards", "4", "--config", path.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let expanded = expand_config(&args).unwrap();
        assert_eq!(expanded, vec!["--shards", "4", "--rounds", "2"]);
        std::fs::write(&path, "shards = 2\n").unwrap();
        let args: Vec<String> = ["--tree", "2x2", "--config", path.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let expanded = expand_config(&args).unwrap();
        assert_eq!(expanded, vec!["--tree", "2x2"]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cli_flags_override_repeatable_file_flags_too() {
        // Repeatable flags are applied in order by the CLI (last
        // assignment to a client wins), so merging file values after
        // the command line's would silently invert precedence — the
        // whole file entry must be dropped instead.
        let dir = std::env::temp_dir();
        let path = dir.join(format!("fedsz-spec-rep-{}.toml", std::process::id()));
        std::fs::write(&path, "straggler = [\"0:8\"]\ndrop = [\"1:0.5\"]\n").unwrap();
        let args: Vec<String> = ["--straggler", "0:2", "--config", path.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let expanded = expand_config(&args).unwrap();
        assert_eq!(
            expanded,
            vec!["--straggler", "0:2", "--drop", "1:0.5"],
            "the file's straggler list must be dropped, its drop list kept"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn expand_without_config_is_identity_and_errors_are_clean() {
        let args: Vec<String> = vec!["--clients".into(), "2".into()];
        assert_eq!(expand_config(&args).unwrap(), args);
        let missing: Vec<String> = vec!["--config".into()];
        assert!(expand_config(&missing).unwrap_err().contains("file path"));
        let nofile: Vec<String> = vec!["--config".into(), "/nonexistent.toml".into()];
        assert!(expand_config(&nofile).unwrap_err().contains("cannot read"));
        let twice: Vec<String> =
            vec!["--config".into(), "/a".into(), "--config".into(), "/b".into()];
        assert!(expand_config(&twice).unwrap_err().contains("at most once"));
    }

    #[test]
    fn matrix_tables_are_routed_to_sweep() {
        let err = parse_spec("clients = 2\n[matrix]\nseed = [1, 2]\n").unwrap_err();
        assert!(err.contains("fedsz sweep"), "{err}");
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn mixed_type_arrays_are_rejected() {
        let err = parse_spec("straggler = [\"0:4\", 7]").unwrap_err();
        assert!(err.contains("all one type"), "{err}");
    }

    #[test]
    fn sweep_specs_split_base_from_matrix() {
        let spec = "\
            clients = 4\n\
            rounds = 2\n\
            [matrix]\n\
            dp-noise = [0.0, 0.5]\n\
            uplink = [\"topk:0.01\", \"q8\"]\n";
        let sweep = parse_sweep_spec(spec).unwrap();
        assert_eq!(
            sweep.base,
            vec![
                ("clients".to_string(), SpecValue::Scalar("4".into())),
                ("rounds".to_string(), SpecValue::Scalar("2".into())),
            ]
        );
        assert_eq!(
            sweep.axes,
            vec![
                ("dp-noise".to_string(), vec!["0.0".to_string(), "0.5".to_string()]),
                ("uplink".to_string(), vec!["topk:0.01".to_string(), "q8".to_string()]),
            ]
        );
    }

    #[test]
    fn a_flat_spec_is_a_single_cell_sweep() {
        let sweep = parse_sweep_spec("clients = 2\nrounds = 1\n").unwrap();
        assert_eq!(sweep.base.len(), 2);
        assert!(sweep.axes.is_empty());
    }

    #[test]
    fn bad_sweep_specs_fail_with_actionable_messages() {
        for (spec, needle) in [
            ("[matrix]\n", "no axes"),
            ("[matrix]\ndp-noise = 0.5\n", "must be an array"),
            ("[matrix]\ndp-noise = []\n", "no values"),
            ("[matrix]\nfrobnicate = [1]\n", "unknown matrix axis"),
            ("[matrix]\nseed = [1]\nseed = [2]\n", "duplicate matrix axis"),
            ("[matrix]\nseed = [1]\n[again]\n", "only and last table"),
            ("[matrix]\nseed = [1, \"x\"]\n", "all one type"),
            ("seed = 1\n[matrix]\nseed = [1, 2]\n", "sweep it or pin it"),
            ("clients 2\n[matrix]\nseed = [1]\n", "key = value"),
        ] {
            let err = parse_sweep_spec(spec).unwrap_err();
            assert!(err.contains(needle), "spec {spec:?} gave `{err}`, wanted `{needle}`");
        }
    }

    #[test]
    fn dp_keys_are_spec_keys() {
        let entries =
            parse_spec("dp-clip = 1.0\ndp-noise = 0.5\ndp-mechanism = \"laplace\"\ndp-seed = 9\n")
                .unwrap();
        assert_eq!(
            spec_to_args(&entries),
            vec![
                "--dp-clip",
                "1.0",
                "--dp-noise",
                "0.5",
                "--dp-mechanism",
                "laplace",
                "--dp-seed",
                "9",
            ]
        );
    }

    #[test]
    fn render_round_trips() {
        let entries = parse_spec("clients = 4\narch = \"alexnet\"\nweighted = true\n").unwrap();
        let rendered = render_spec(&entries);
        assert_eq!(parse_spec(&rendered).unwrap(), entries);
    }
}
