//! `fedsz-benchmark`: the repo benchmark. One process runs one workload
//! from one seed, checks its own outputs, prints every metric by name and
//! unit, and ends with one JSON line for the driver. `README.md` has the
//! commands, the metric glossary and the layer → end-to-end table.

mod compare;
mod inputs;
mod probes;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::Metric;

const USAGE: &str = "usage:
  fedsz-benchmark --workload NAME --seed N [--seconds S] [--trace 0|1] [--out FILE]
  fedsz-benchmark --compare A.jsonl B.jsonl [--spec BENCHMARK.json]
  fedsz-benchmark --emit-spec | --list
workloads: codec_models, fl_sim, agg_tree, server_ingest
run from the repository root: traces and results go to benchmark/out/";

/// Where runs leave their span and result files, relative to the
/// repository root the driver runs from.
const OUT_DIR: &str = "benchmark/out";

struct Args(Vec<String>);

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    /// The `n` values following `flag`.
    fn values(&self, flag: &str, n: usize) -> Option<&[String]> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1..at + 1 + n)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.values(flag, 1) {
            None if self.has(flag) => Err(format!("{flag} needs a value")),
            None => Ok(None),
            Some(v) => {
                v[0].parse().map(Some).map_err(|_| format!("bad value for {flag}: {}", v[0]))
            }
        }
    }
}

/// First line of a command's output, or "unknown" when it cannot run.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// JSON number: all the digits as measured; a non-finite value (a
/// workload with no clean op to take a median over) reads 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn metrics_object(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            number(m.value),
            m.unit
        );
    }
    out.push('}');
    out
}

fn run_workload(args: &Args) -> Result<ExitCode, String> {
    let workload = args.values("--workload", 1).ok_or("--workload needs a name")?[0].clone();
    let seed: u64 = args.parsed("--seed")?.ok_or("--seed is required: it makes the inputs")?;
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(f64::from(spec::RUN_SECONDS));
    let trace = match args.parsed::<u8>("--trace")? {
        None | Some(0) => false,
        Some(1) => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let out_dir = Path::new(OUT_DIR);
    trace::clock_ns();
    let outcome = run::run(&workload, seed, seconds, trace, out_dir)
        .ok_or_else(|| format!("unknown workload `{workload}`"))?;

    // The environment the numbers were taken in.
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let oversubscribed = outcome.threads > nproc || outcome.connections > nproc;
    if oversubscribed {
        eprintln!(
            "warning: {workload} uses {} threads and {} connections on {nproc} cores: \
             oversubscribed, timings are not comparable",
            outcome.threads, outcome.connections
        );
    }
    let transport = if workload == "server_ingest" || trace {
        workloads::server_ingest::TRANSPORT
    } else {
        "none"
    };
    let env = format!(
        "{{\"nproc\": {nproc}, \"threads\": {}, \"connections\": {}, \"oversubscribed\": {oversubscribed}, \
         \"rustc\": \"{}\", \"commit\": \"{}\", \"transport\": \"{transport}\", \
         \"warmup_ops\": {}, \"timed_ops\": {}}}",
        outcome.threads,
        outcome.connections,
        first_line("rustc", &["-V"]),
        first_line("git", &["rev-parse", "HEAD"]),
        outcome.warmup_ops,
        outcome.attempted,
    );

    let correct = outcome.failed == 0;
    println!("# {workload}  seed {seed}  {seconds} s  trace {}", u8::from(trace));
    println!("# env {env}");
    for m in outcome.metrics.iter().chain(&outcome.also) {
        println!("{:<44} {:>16} {}", m.name, number(m.value), m.unit);
    }
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!("{:<44} {:>16} fraction", "failed_frac", number(failed_frac));

    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        metrics_object(&outcome.metrics)
    );
    let record = format!(
        "{{\"schema\": \"fedsz.benchmark.result.v1\", \"workload\": \"{workload}\", \"seed\": {seed}, \
         \"seconds\": {}, \"trace\": {trace}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \
         \"env\": {env}, \"metrics\": {}, \"also\": {}, \"op_ms\": [{}]}}\n",
        number(seconds),
        outcome.attempted,
        outcome.failed,
        metrics_object(&outcome.metrics),
        metrics_object(&outcome.also),
        outcome.op_ms.iter().map(|&v| number(v)).collect::<Vec<_>>().join(", ")
    );
    let write = |path: &Path, append: bool| {
        std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .append(append)
            .truncate(!append)
            .open(path)
            .and_then(|mut f| f.write_all(record.as_bytes()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    std::fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let suffix = if trace { ".trace" } else { "" };
    write(&out_dir.join(format!("{workload}{suffix}.result.json")), false)?;
    if let Some(path) = args.values("--out", 1) {
        write(&PathBuf::from(&path[0]), true)?;
    }
    println!("{line}");
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let result = if args.has("--emit-spec") {
        print!("{}", spec::benchmark_json());
        Ok(ExitCode::SUCCESS)
    } else if args.has("--list") {
        print!("{}", spec::glossary());
        Ok(ExitCode::SUCCESS)
    } else if args.has("--compare") {
        match args.values("--compare", 2) {
            Some([a, b]) => {
                let spec = args.values("--spec", 1).map_or("BENCHMARK.json", |v| v[0].as_str());
                compare::compare(Path::new(a), Path::new(b), Path::new(spec)).map(|clean| {
                    if clean {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                })
            }
            _ => Err("--compare needs two result sets".to_owned()),
        }
    } else if args.has("--workload") {
        run_workload(&args)
    } else {
        Err("nothing to do".to_owned())
    };
    result.unwrap_or_else(|why| {
        eprintln!("fedsz-benchmark: {why}\n{USAGE}");
        ExitCode::from(2)
    })
}
