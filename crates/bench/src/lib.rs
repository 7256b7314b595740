//! Shared infrastructure for the bench binaries.
//!
//! `src/bin/` holds four binaries and CI runs each of them: `paper`
//! (every table and figure of the FedSZ paper plus four ablations, as
//! sections of one run that writes `BENCH_paper.json`), `agg_scale`,
//! `net_round` and `pareto`. This module provides the tiny CLI parser,
//! ASCII table/plot rendering, timing and JSON-rendering helpers they
//! share.
//!
//! `paper` accepts `--scale <f>` (fraction of each full-size model
//! tensor used, default 0.05 — compression ratios are per-byte
//! quantities, so a prefix sample is representative), `--full`
//! (equivalent to `--scale 1.0`) and `--rounds <n>` for its training
//! runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

/// Minimal argument accessor over `std::env::args`.
#[derive(Debug, Clone)]
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures the process arguments.
    pub fn parse() -> Self {
        Self { raw: std::env::args().skip(1).collect() }
    }

    /// Builds from an explicit list (for tests).
    pub fn from_vec(raw: Vec<String>) -> Self {
        Self { raw }
    }

    /// Whether a bare flag is present.
    pub fn has(&self, flag: &str) -> bool {
        self.raw.iter().any(|a| a == flag)
    }

    /// Value of `--key v`, parsed, or the default.
    ///
    /// # Panics
    ///
    /// Panics with a clear message when the value does not parse.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.raw.iter().position(|a| a == key) {
            Some(i) => {
                let v = self.raw.get(i + 1).unwrap_or_else(|| panic!("{key} requires a value"));
                v.parse().unwrap_or_else(|_| panic!("could not parse `{v}` for {key}"))
            }
            None => default,
        }
    }

    /// The model-scale fraction (`--full` overrides `--scale`).
    pub fn scale(&self, default: f64) -> f64 {
        if self.has("--full") {
            1.0
        } else {
            self.get("--scale", default)
        }
    }
}

/// Renders a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::new();
    fedsz_telemetry::push_json_string(&mut out, s);
    out
}

/// Renders a JSON array of already-rendered values.
pub fn json_arr(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(", "))
}

/// Renders a JSON array of string literals.
pub fn json_strs<S: AsRef<str>>(items: &[S]) -> String {
    json_arr(items.iter().map(|s| json_str(s.as_ref())))
}

/// Renders a JSON object of already-rendered values.
pub fn json_obj(members: &[(&str, String)]) -> String {
    let members: Vec<String> =
        members.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    format!("{{{}}}", members.join(", "))
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

/// Prints a table with a title banner.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===\n");
    print!("{}", render_table(headers, rows));
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
        assert!(
            delta_size(&sparse) * 2 < plain,
            "top-k + delta ({}) should easily halve plain FedSZ ({plain})",
            delta_size(&sparse)
        );
        let q4s = Quantizer::new(4, true).unwrap();
        let quant = transform_lossy_deltas(&update, &global, threshold, |i, delta| {
            q4s.compress_with_applied(delta, 5 + i as u64).unwrap().1
        });
        assert!(
            delta_size(&quant) < plain,
            "q4s + FedSZ delta ({}) should beat plain ({plain})",
            delta_size(&quant)
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

    #[test]
    fn args_parse_values_and_flags() {
        let args = Args::from_vec(vec![
            "--scale".into(),
            "0.25".into(),
            "--rounds".into(),
            "7".into(),
            "--verbose".into(),
        ]);
        assert_eq!(args.get("--rounds", 10usize), 7);
        assert!((args.scale(0.05) - 0.25).abs() < 1e-12);
        assert!(args.has("--verbose"));
        assert!(!args.has("--full"));
        assert_eq!(args.get("--missing", 3usize), 3);
    }

    #[test]
    fn full_overrides_scale() {
        let args = Args::from_vec(vec!["--full".into(), "--scale".into(), "0.1".into()]);
        assert_eq!(args.scale(0.05), 1.0);
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
