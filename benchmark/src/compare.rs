//! `--compare A B`: judges result set `B` against result set `A`, one
//! row per end-to-end metric × workload, by the bounds `BENCHMARK.json`
//! fixes.
//!
//! A result set is a file of result lines (`--out FILE` appends one per
//! run); run each workload several times into it so the sets carry their
//! own spread.

use crate::spec::{self, Better};
use crate::stats::{median, spread};
use fedsz_telemetry::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// A row's judgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `B`'s median is no worse than `A`'s by more than the bound.
    Ok,
    /// It is worse by more than the bound.
    Regressed,
    /// The sets' own run-to-run spread exceeds the bound and their runs
    /// overlap: the data cannot tell.
    Unresolved,
    /// One set has no run of this workload.
    Missing,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// Judges one metric. `bound` is a share of `a`'s median.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Missing;
    }
    let (ma, mb) = (median(a), median(b));
    // How much worse B reads, as a share of A (negative: better).
    let diff = match better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    let worse_by = if ma != 0.0 {
        diff / ma.abs()
    } else if diff > 0.0 {
        f64::INFINITY
    } else {
        0.0
    };
    let is_better = |x: f64, than: f64| match better {
        Better::Lower => x < than,
        Better::Higher => x > than,
    };
    let noise = spread(a).unwrap_or(0.0).max(spread(b).unwrap_or(0.0));
    // A zero bound marks a count that must not move at all; spread does
    // not excuse it.
    if bound > 0.0 && noise > bound {
        // Too noisy for medians: only a clean separation of the two
        // sets decides.
        let all = |f: &dyn Fn(f64, f64) -> bool| b.iter().all(|&y| a.iter().all(|&x| f(y, x)));
        if all(&|y, x| is_better(y, x) || y == x) {
            Verdict::Ok
        } else if worse_by > bound && all(&|y, x| is_better(x, y)) {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// `workload → metric → values` over the untraced runs of a result set.
type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_set(path: &Path) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = Set::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let record = json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
        if record.get("trace").and_then(Json::as_bool) != Some(false) {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: a result without a workload", path.display()))?;
        let metrics = set.entry(workload.to_owned()).or_default();
        for key in ["metrics", "also"] {
            let Some(map) = record.get(key).and_then(Json::as_object) else { continue };
            for (name, m) in map {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    metrics.entry(name.clone()).or_default().push(v);
                }
            }
        }
        let count = |key: &str| record.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        metrics
            .entry("failed_frac".to_owned())
            .or_default()
            .push(count("failed") / count("attempted").max(1.0));
    }
    Ok(set)
}

/// `(name, better, bound)` of the end-to-end metrics in `BENCHMARK.json`.
fn load_bounds(path: &Path) -> Result<Vec<(String, Better, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{}: no end_to_end list", path.display()))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str).and_then(Better::parse);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b), Some(x)) => Ok((n.to_owned(), b, x)),
                _ => Err(format!("{}: malformed end_to_end entry", path.display())),
            }
        })
        .collect()
}

/// Prints the table; `Ok(true)` when nothing regressed or went missing.
pub fn compare(a: &Path, b: &Path, benchmark_json: &Path) -> Result<bool, String> {
    let (set_a, set_b) = (load_set(a)?, load_set(b)?);
    let shared = load_bounds(benchmark_json)?;
    let mut clean = true;
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    for (workload, _) in spec::WORKLOADS {
        let mut rows = shared.clone();
        rows.extend(
            spec::EXTRAS
                .iter()
                .filter(|e| e.workload == workload)
                .map(|e| (e.name.to_owned(), e.better, e.bound)),
        );
        // Any increase in the failed share is a regression.
        rows.push(("failed_frac".to_owned(), Better::Lower, 0.0));
        for (name, better, bound) in rows {
            let values = |set: &Set| {
                set.get(workload).and_then(|m| m.get(&name)).cloned().unwrap_or_default()
            };
            let (va, vb) = (values(&set_a), values(&set_b));
            let verdict = judge(&va, &vb, better, bound);
            clean &= matches!(verdict, Verdict::Ok | Verdict::Unresolved);
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{workload:<14} {name:<22} {ma:>14.6} {mb:>14.6} {:>+8.2}% {:>6.1}%  {}",
                (mb / ma - 1.0) * 100.0,
                bound * 100.0,
                verdict.name()
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [10.0, 10.1, 9.9, 10.0];
        // Within the bound either way.
        assert_eq!(judge(&a, &[10.4, 10.5, 10.3, 10.4], Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(judge(&a, &[8.0, 8.1, 7.9, 8.0], Better::Lower, 0.10), Verdict::Ok);
        // Worse by 20% with tight runs.
        assert_eq!(judge(&a, &[12.0, 12.1, 11.9, 12.0], Better::Lower, 0.10), Verdict::Regressed);
        // "Higher is better" flips the direction.
        assert_eq!(judge(&a, &[12.0, 12.1, 11.9, 12.0], Better::Higher, 0.10), Verdict::Ok);
        assert_eq!(judge(&a, &[8.0, 8.1, 7.9, 8.0], Better::Higher, 0.10), Verdict::Regressed);
        // Spread wider than the bound and overlapping runs: cannot tell.
        let noisy = [8.0, 12.0, 9.0, 13.0];
        assert_eq!(judge(&a, &noisy, Better::Lower, 0.10), Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        assert_eq!(judge(&[20.0, 30.0, 22.0, 28.0], &a, Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(judge(&a, &[20.0, 30.0, 22.0, 28.0], Better::Lower, 0.10), Verdict::Regressed);
        // A zero bound: any increase regresses, equality is fine.
        assert_eq!(judge(&[0.0, 0.0], &[0.0, 0.0], Better::Lower, 0.0), Verdict::Ok);
        assert_eq!(judge(&[0.0, 0.0], &[0.0, 0.1], Better::Lower, 0.0), Verdict::Regressed);
        assert_eq!(judge(&a, &[], Better::Lower, 0.10), Verdict::Missing);
    }
}
