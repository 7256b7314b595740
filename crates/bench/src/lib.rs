//! Shared infrastructure for the bench binaries.
//!
//! `src/bin/` holds four binaries and CI runs each of them: `paper`
//! (every table and figure of the FedSZ paper plus four ablations, as
//! sections of one run that writes `BENCH_paper.json`), `agg_scale`,
//! `net_round` and `pareto`. This module provides what they share: the
//! argument parser ([`Args`]), the one document writer ([`Report`]),
//! ASCII table/plot rendering and timing.
//!
//! Every bin writes its tracked `BENCH_*.json` through [`Report`]: the
//! run's settings, row grids and gates. A grid names its key columns
//! (how rows of two runs are matched) and its timing columns (values
//! that come from a clock, directly or through an Eqn-1 decision);
//! every other column is deterministic, and `scripts/bench_check.py`
//! requires a fresh run to reproduce it in the tracked file.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::time::Instant;

/// A bin's arguments, checked against its usage line.
///
/// The usage line is the spec: `[--key V]` takes a value, `[--flag]` is
/// a switch, `|` separates alternatives inside one bracket, and a
/// bracket that does not open with `--` (`[SECTION...]`) admits bare
/// arguments. An unknown flag, a stray argument, a flag given twice or
/// without its value exits 2 with the usage line.
#[derive(Debug, Clone)]
pub struct Args {
    usage: &'static str,
    given: Vec<(String, Option<String>)>,
    /// The bare arguments, in order.
    pub positional: Vec<String>,
}

impl Args {
    /// Parses the process arguments against `usage`, exiting 2 on misuse.
    pub fn parse(usage: &'static str) -> Self {
        let empty = Self { usage, given: Vec::new(), positional: Vec::new() };
        Self::from_vec(usage, std::env::args().skip(1).collect())
            .unwrap_or_else(|e| empty.reject(&e))
    }

    /// Parses an explicit list against `usage`.
    ///
    /// # Errors
    ///
    /// Names the misuse: an unknown flag, a stray argument, a flag given
    /// twice or without its value.
    pub fn from_vec(usage: &'static str, raw: Vec<String>) -> Result<Self, String> {
        let groups = || usage.split('[').skip(1).filter_map(|g| g.split(']').next());
        let arity = |flag: &str| {
            let mut alternatives = groups().flat_map(|g| g.split('|')).map(str::split_whitespace);
            alternatives.find_map(|mut w| (w.next() == Some(flag)).then(|| w.next().is_some()))
        };
        let bare_ok = groups().any(|g| !g.trim_start().starts_with("--"));
        let mut args = Self { usage, given: Vec::new(), positional: Vec::new() };
        let mut raw = raw.into_iter();
        while let Some(arg) = raw.next() {
            match arity(&arg) {
                Some(_) if args.has(&arg) => return Err(format!("{arg} given twice")),
                Some(takes_value) => {
                    let missing = || format!("{arg} requires a value");
                    let value =
                        if takes_value { Some(raw.next().ok_or_else(missing)?) } else { None };
                    args.given.push((arg, value));
                }
                None if arg.starts_with("--") => return Err(format!("unknown flag `{arg}`")),
                None if bare_ok => args.positional.push(arg),
                None => return Err(format!("unexpected argument `{arg}`")),
            }
        }
        Ok(args)
    }

    /// Prints `why` and the usage line, and exits 2.
    pub fn reject(&self, why: &str) -> ! {
        eprintln!("{why}\nusage: {}", self.usage);
        std::process::exit(2)
    }

    /// Whether a flag was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, _)| f == flag)
    }

    /// The raw value of `--key V`, if given.
    pub fn value(&self, key: &str) -> Option<&str> {
        self.given.iter().find(|(f, _)| f == key).and_then(|(_, v)| v.as_deref())
    }

    /// Value of `--key V`, parsed, or the default; a value that does not
    /// parse exits 2.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.value(key).map_or(default, |v| self.parsed(key, v))
    }

    /// Value of `--key A,B,...` (or `default`), each item parsed.
    pub fn list<T: std::str::FromStr>(&self, key: &str, default: &str) -> Vec<T> {
        self.value(key).unwrap_or(default).split(',').map(|v| self.parsed(key, v.trim())).collect()
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, v: &str) -> T {
        v.parse().unwrap_or_else(|_| self.reject(&format!("could not parse `{v}` for {key}")))
    }
}

/// A value a report cell or setting holds, written as JSON.
pub trait Value {
    /// The value as a JSON literal.
    fn json(&self) -> String;
}

macro_rules! values {
    ($($t:ty: $v:ident => $json:expr),* $(,)?) => {$(
        impl Value for $t {
            fn json(&self) -> String {
                let $v = self;
                $json
            }
        }
    )*};
}

values! {
    bool: v => v.to_string(),
    u64: v => v.to_string(),
    usize: v => v.to_string(),
    // A non-finite number has no JSON spelling.
    f64: v => if v.is_finite() { v.to_string() } else { "null".into() },
    &str: v => {
        let mut out = String::new();
        fedsz_telemetry::push_json_string(&mut out, v);
        out
    },
    String: v => v.as_str().json(),
}

impl<T: Value> Value for Option<T> {
    fn json(&self) -> String {
        self.as_ref().map_or("null".into(), T::json)
    }
}

impl<T: Value> Value for Vec<T> {
    fn json(&self) -> String {
        format!("[{}]", self.iter().map(T::json).collect::<Vec<_>>().join(", "))
    }
}

impl<V: Value> Value for BTreeMap<&str, V> {
    fn json(&self) -> String {
        let members = self.iter().map(|(k, v)| format!("{}: {}", k.json(), v.json()));
        format!("{{{}}}", members.collect::<Vec<_>>().join(", "))
    }
}

/// One grid row: each argument rendered through [`Value`].
#[macro_export]
macro_rules! row {
    ($($value:expr),* $(,)?) => {
        vec![$($crate::Value::json(&$value)),*]
    };
}

/// One bench run's document — its settings, row grids and gates —
/// written as one JSON file by [`Report::finish`].
///
/// Column lists are one string, names separated by `;`.
#[derive(Debug, Default)]
pub struct Report {
    schema: &'static str,
    timing: Vec<&'static str>,
    /// Prefixes gate names and names tables (`paper`'s sections).
    scope: &'static str,
    settings: Vec<String>,
    grids: Vec<(String, String)>,
    gates: Vec<String>,
    failed: usize,
}

impl Report {
    /// An empty report of `schema` (`fedsz.<bin>.v<N>`). `timing` names
    /// the bin's timing columns once: a column is timing when the list
    /// names it or its grid.
    pub fn new(schema: &'static str, timing: &'static str) -> Self {
        Self { schema, timing: timing.split(';').collect(), ..Self::default() }
    }

    /// Records one run setting.
    pub fn setting(&mut self, key: &str, value: impl Value) {
        self.settings.push(format!("{}: {}", key.json(), value.json()));
    }

    /// Prefixes later gates with `scope.` and names later tables after it.
    pub fn scope(&mut self, scope: &'static str) {
        self.scope = scope;
    }

    /// Records a grid: rows of [`row!`] cells under `columns`, matched
    /// across runs by the `key` columns (by position when `key` is empty).
    pub fn grid(&mut self, name: &str, key: &str, columns: &str, rows: &[Vec<String>]) {
        let key: Vec<&str> = key.split(';').filter(|k| !k.is_empty()).collect();
        let columns: Vec<&str> = columns.split(';').collect();
        assert!(rows.iter().all(|row| row.len() == columns.len()), "grid `{name}`: ragged row");
        let timed =
            |c: &&str| !key.contains(c) && [*c, name].iter().any(|t| self.timing.contains(t));
        let timing: Vec<&str> = columns.iter().copied().filter(timed).collect();
        let rows: Vec<String> = rows.iter().map(|row| format!("  [{}]", row.join(", "))).collect();
        let grid = format!(
            "{{\"key\": {}, \"timing\": {}, \"columns\": {}, \"rows\": [\n{}\n]}}",
            key.json(),
            timing.json(),
            columns.json(),
            rows.join(",\n")
        );
        self.grids.push((name.to_string(), grid));
    }

    /// Prints a table and records it as a grid named after the scope
    /// (`scope.2`, `scope.3` for later ones). Headers and each row are
    /// one string, cells separated by `;`.
    pub fn table(&mut self, title: &str, headers: &str, rows: &[String]) {
        let cells: Vec<Vec<String>> =
            rows.iter().map(|row| row.split(';').map(String::from).collect()).collect();
        println!("\n=== {title} ===\n");
        print!("{}", render_table(&headers.split(';').collect::<Vec<_>>(), &cells));
        let earlier =
            self.grids.iter().filter(|(name, _)| name.split('.').next() == Some(self.scope));
        let name = match earlier.count() {
            0 => self.scope.to_string(),
            n => format!("{}.{}", self.scope, n + 1),
        };
        let rows: Vec<_> = cells.iter().map(|row| row.iter().map(|c| c.json()).collect()).collect();
        self.grid(&name, "", headers, &rows);
        // The title leads the table's grid object.
        let grid = &mut self.grids.last_mut().expect("just recorded").1;
        grid.insert_str(1, &format!("\"title\": {}, ", title.json()));
    }

    /// Records one gate's verdict over the numbers recorded before it.
    pub fn gate(&mut self, name: &str, passed: bool, detail: &str) {
        let name =
            if self.scope.is_empty() { name.to_string() } else { format!("{}.{name}", self.scope) };
        println!("gate {name}: {} — {detail}", if passed { "pass" } else { "FAIL" });
        self.failed += usize::from(!passed);
        let (name, detail) = (name.json(), detail.json());
        self.gates
            .push(format!("  {{\"name\": {name}, \"passed\": {passed}, \"detail\": {detail}}}"));
    }

    /// Writes the document to `out` (`-` writes nothing), then returns
    /// the bin's exit status: 1 when a gate failed, else 0. The document
    /// is written either way, so a failing run can still be read.
    ///
    /// # Panics
    ///
    /// Panics when `out` cannot be written.
    pub fn finish(&self, out: &str) -> i32 {
        let version = self.schema.rsplit_once(".v").map_or("null", |(_, v)| v);
        let grids: Vec<String> =
            self.grids.iter().map(|(name, g)| format!("{}: {g}", name.json())).collect();
        let document = format!(
            "{{\n\"schema\": {},\n\"schema_version\": {version},\n\"settings\": {{{}}},\n\
             \"gates_failed\": {},\n\"gates\": [\n{}\n],\n\"grids\": {{\n{}\n}}\n}}\n",
            self.schema.json(),
            self.settings.join(", "),
            self.failed,
            self.gates.join(",\n"),
            grids.join(",\n")
        );
        if out != "-" {
            std::fs::write(out, document).unwrap_or_else(|e| panic!("write {out}: {e}"));
            eprintln!("wrote {out}");
        }
        if self.failed > 0 {
            eprintln!("{} gate(s) failed", self.failed);
        }
        i32::from(self.failed > 0)
    }
}

/// Times a closure, returning its value and elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let value = f();
    (value, t0.elapsed().as_secs_f64())
}

/// Renders an aligned ASCII table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{cell:<width$}", width = widths[i]));
        }
        out.push('\n');
    };
    line(&mut out, &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// Renders one `(x, y)` series as an ASCII bar chart (log-ish friendly:
/// bars are proportional to `y / max(y)`).
pub fn render_series(title: &str, points: &[(String, f64)]) -> String {
    let max = points.iter().map(|(_, y)| *y).fold(f64::MIN_POSITIVE, f64::max);
    let label_w = points.iter().map(|(x, _)| x.len()).max().unwrap_or(4);
    let mut out = format!("{title}\n");
    for (x, y) in points {
        let bar = "#".repeat(((y / max) * 50.0).round().max(0.0) as usize);
        out.push_str(&format!("{x:<label_w$}  {y:>12.4}  {bar}\n"));
    }
    out
}

/// Renders a normalized text histogram (Fig 3/10 style).
pub fn render_histogram(title: &str, hist: &fedsz_codec::stats::Histogram) -> String {
    let mut out = format!("{title}\n");
    let peak = (0..hist.counts.len()).map(|i| hist.density(i)).fold(f64::MIN_POSITIVE, f64::max);
    for i in 0..hist.counts.len() {
        let d = hist.density(i);
        let bar = "#".repeat(((d / peak) * 40.0).round() as usize);
        out.push_str(&format!("{:>9.4}  {d:>9.4}  {bar}\n", hist.center(i)));
    }
    out
}

/// Concatenates the lossy-partition values of a state dict (the data the
/// EBLC benchmarks compress), using the given threshold.
pub fn lossy_partition_values(dict: &fedsz_nn::StateDict, threshold: usize) -> Vec<f32> {
    let mut values = Vec::new();
    for (name, tensor) in dict.iter() {
        if fedsz::partition::is_lossy(name, tensor.len(), threshold) {
            values.extend_from_slice(tensor.data());
        }
    }
    values
}

/// Serializes the lossless-partition values of a state dict to bytes
/// (what Table II's lossless codecs compress).
pub fn lossless_partition_bytes(dict: &fedsz_nn::StateDict, threshold: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (name, tensor) in dict.iter() {
        if !fedsz::partition::is_lossy(name, tensor.len(), threshold) {
            for &v in tensor.data() {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    bytes
}

/// Rewrites `update` with `applied` run over the *delta* against
/// `global` of every tensor Algorithm 1 marks lossy — how the
/// composition ablation stacks `fedsz_lossy`'s sparsifier or quantizer
/// (their `compress_with_applied` reconstructions) under FedSZ.
/// `applied` gets the tensor's index and its delta and returns what
/// the receiver would reconstruct; metadata and small tensors pass
/// through bit-exactly, mirroring how these methods treat non-gradient
/// state.
///
/// # Panics
///
/// Panics when `global` disagrees with `update` on names or shapes.
pub fn transform_lossy_deltas(
    update: &fedsz_nn::StateDict,
    global: &fedsz_nn::StateDict,
    threshold: usize,
    mut applied: impl FnMut(usize, &[f32]) -> Vec<f32>,
) -> fedsz_nn::StateDict {
    let mut out = update.clone();
    for (index, (name, tensor)) in out.iter_mut().enumerate() {
        if !fedsz::partition::is_lossy(name, tensor.len(), threshold) {
            continue;
        }
        let base = global.get(name).unwrap_or_else(|| panic!("global dict missing `{name}`"));
        assert_eq!(base.shape(), tensor.shape(), "shape mismatch for `{name}`");
        let delta: Vec<f32> = tensor.data().iter().zip(base.data()).map(|(&u, &g)| u - g).collect();
        let kept = applied(index, &delta);
        for ((v, &g), &d) in tensor.data_mut().iter_mut().zip(base.data()).zip(&kept) {
            *v = g + d;
        }
    }
    out
}

/// The composition ablation's claim, written once for `paper`'s
/// `ablation_composition.pays_off_on_the_delta` gate and this crate's
/// test of the same composition: FedSZ on the top-5% sparsified delta
/// takes under half the bytes of FedSZ on the plain update
/// (`top_k_delta`, `plain`), and FedSZ on the 4-bit stochastically
/// quantized delta (`q4s_delta`) takes fewer. Deltas of a sparsified or
/// few-level update are near-constant, which is what SZ codes best.
pub fn pays_off_on_the_delta(top_k_delta: usize, q4s_delta: usize, plain: usize) -> bool {
    2 * top_k_delta < plain && q4s_delta < plain
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composed_baselines_preserve_metadata_and_shrink_wire_size() {
        use fedsz::FedSz;
        use fedsz_fl::{Experiment, FlConfig};
        use fedsz_lossy::{quant::Quantizer, sparse::Sparsifier};
        use fedsz_nn::models::tiny::TinyArch;

        let mut config =
            FlConfig::paper_default(TinyArch::AlexNet, fedsz_data::DatasetKind::Cifar10Like);
        config.rounds = 1;
        config.clients = 1;
        let mut exp = Experiment::new(config);
        let global = exp.global_state().clone();
        let _ = exp.run_round(0);
        let update = exp.global_state().clone();
        let threshold = FlConfig::tiny_model_compression().threshold;
        let fedsz = FedSz::new(FlConfig::tiny_model_compression());
        let delta_size =
            |dict: &fedsz_nn::StateDict| fedsz.compress_delta(dict, &global).unwrap().bytes().len();

        let plain = fedsz.compress(&update).unwrap().bytes().len();
        let top_k = Sparsifier::top_k(0.05).unwrap();
        let sparse = transform_lossy_deltas(&update, &global, threshold, |_, delta| {
            top_k.compress_with_applied(delta).unwrap().1
        });
        let q4s = Quantizer::new(4, true).unwrap();
        let quant = transform_lossy_deltas(&update, &global, threshold, |i, delta| {
            q4s.compress_with_applied(delta, 5 + i as u64).unwrap().1
        });
        let (top_k_delta, q4s_delta) = (delta_size(&sparse), delta_size(&quant));
        assert!(
            pays_off_on_the_delta(top_k_delta, q4s_delta, plain),
            "top-k + FedSZ delta {top_k_delta} B, q4s + FedSZ delta {q4s_delta} B, plain {plain} B"
        );

        // Both transforms leave non-lossy tensors bit-exact, and do
        // change the lossy ones.
        for (name, tensor) in update.iter() {
            if fedsz::partition::is_lossy(name, tensor.len(), threshold) {
                assert_ne!(sparse.get(name).unwrap(), tensor, "{name}");
            } else {
                assert_eq!(sparse.get(name).unwrap(), tensor, "{name}");
                assert_eq!(quant.get(name).unwrap(), tensor, "{name}");
            }
        }
    }

    const USAGE: &str = "bin [--scale F | --full] [--rounds N] [--clients N,N] [--verbose]";

    fn args(usage: &'static str, raw: &[&str]) -> Result<Args, String> {
        Args::from_vec(usage, raw.iter().map(|a| a.to_string()).collect())
    }

    #[test]
    fn args_parse_values_lists_and_switches() {
        let args = args(USAGE, &["--scale", "0.25", "--rounds", "7", "--verbose"]).unwrap();
        assert_eq!(args.get("--rounds", 10usize), 7);
        assert_eq!(args.get("--scale", 0.05), 0.25);
        assert!(args.has("--verbose") && !args.has("--full"));
        assert_eq!(args.get("--clients", 3usize), 3);
        assert_eq!(args.list::<usize>("--clients", "2, 4"), [2, 4]);
        let args = self::args(USAGE, &["--full", "--clients", "10"]).unwrap();
        assert!(args.has("--full") && args.value("--scale").is_none());
        assert_eq!(args.list::<usize>("--clients", "2,4"), [10]);
    }

    #[test]
    fn args_reject_what_the_usage_does_not_name() {
        let err = |raw: &[&str]| args(USAGE, raw).unwrap_err();
        assert_eq!(err(&["--client", "10"]), "unknown flag `--client`");
        assert_eq!(err(&["table1"]), "unexpected argument `table1`");
        assert_eq!(err(&["--rounds"]), "--rounds requires a value");
        assert_eq!(err(&["--full", "--full"]), "--full given twice");
        let sections = args("paper [--out PATH] [SECTION...]", &["fig4", "--out", "-", "fig5"]);
        assert_eq!(sections.unwrap().positional, ["fig4", "fig5"]);
    }

    #[test]
    fn a_failed_gate_still_writes_the_document_and_exits_1() {
        let mut report = Report::new("fedsz.test.v3", "secs;priced");
        report.setting("rounds", 2usize);
        let rows = [row!["a", 1.5, 0.25, f64::NAN], row!["b", 2.0, 0.5, Some(true)]];
        report.grid("points", "name", "name;ratio;secs;extra", &rows);
        report.grid("priced", "name", "name;bytes", &[row!["auto", 7usize]]);
        report.scope("fig4");
        report.table("two", "Model;Acc", &["AlexNet;0.9".into()]);
        report.table("two more", "Model;Acc", &["ResNet;0.8".into()]);
        report.gate("holds", true, "fine");
        report.gate("breaks", false, "forged");
        let out = std::env::temp_dir().join(format!("fedsz_report_{}.json", std::process::id()));
        assert_eq!(report.finish(out.to_str().unwrap()), 1);
        let text = std::fs::read_to_string(&out).unwrap();
        let _ = std::fs::remove_file(&out);
        let doc = fedsz_telemetry::json::parse(&text).expect("valid JSON");
        assert_eq!(doc.get("schema_version").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(doc.get("gates_failed").and_then(|v| v.as_f64()), Some(1.0));
        let gates = doc.get("gates").and_then(|g| g.as_array()).unwrap();
        let names: Vec<_> = gates.iter().filter_map(|g| g.get("name")?.as_str()).collect();
        assert_eq!(names, ["fig4.holds", "fig4.breaks"]);
        let grids = doc.get("grids").and_then(|g| g.as_object()).unwrap();
        assert_eq!(grids.keys().collect::<Vec<_>>(), ["fig4", "fig4.2", "points", "priced"]);
        let timing = |grid: &str| grids[grid].get("timing").unwrap().as_array().unwrap().len();
        // Named columns, or a whole grid bar its key.
        assert_eq!((timing("points"), timing("priced"), timing("fig4")), (1, 1, 0));
        let rows = grids["points"].get("rows").and_then(|r| r.as_array()).unwrap();
        assert!(rows[0].as_array().unwrap()[3].is_null(), "NaN is written as null");
        assert_eq!(report.finish("-"), 1, "`-` writes nothing and still fails");
    }

    #[test]
    fn tables_align() {
        let rendered = render_table(
            &["Model", "Ratio"],
            &[vec!["AlexNet".into(), "12.61".into()], vec!["MobileNet-V2".into(), "5.39".into()]],
        );
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Model"));
        assert!(lines[2].contains("12.61"));
    }

    #[test]
    fn series_renders_bars() {
        let s = render_series("comm time", &[("10".into(), 100.0), ("100".into(), 10.0)]);
        assert!(s.contains("##"));
    }

    #[test]
    fn partition_helpers_split_consistently() {
        let dict = fedsz_nn::models::specs::ModelSpec::mobilenet_v2().instantiate_scaled(1, 0.01);
        let lossy = lossy_partition_values(&dict, 100);
        let lossless = lossless_partition_bytes(&dict, 100);
        assert_eq!(lossy.len() * 4 + lossless.len(), dict.byte_size());
    }

    #[test]
    fn timed_measures_something() {
        let (v, secs) = timed(|| (0..10_000).sum::<u64>());
        assert_eq!(v, 49_995_000);
        assert!(secs >= 0.0);
    }
}
