//! Order statistics for timings: medians, windows and best-of-three,
//! quartiles, the tail rule.
//!
//! Single runs on a small shared box differ by 10–15%, so nothing here
//! reports a mean: every timing is an order statistic over all ops of a
//! timed region, and a ratio of two timings is the median of per-pair
//! ratios.

/// Sorted copy of `values` (total order; the inputs are finite timings).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; `NaN` when empty (callers gate on op counts).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Consecutive tries of which the fastest counts (see `best_of_median`).
pub const TRIES: usize = 3;
/// Op times are resolved over windows of at least this long.
pub const WINDOW_MS: f64 = 250.0;

/// Mean op time of each run of consecutive ops lasting at least
/// `window_ms` together; an unfinished last window is left out unless it
/// is the only one.
///
/// Back-to-back ops of a closed loop share slack: a `server_ingest` round
/// the server has half finished while the driver was still sending reads
/// 4 ms, the next 12, and only their sum is the program's doing. Ops
/// longer than the window are their own windows.
pub fn windowed(op_ms: &[f64], window_ms: f64) -> Vec<f64> {
    let mut out = Vec::new();
    let (mut sum, mut n) = (0.0, 0usize);
    for &ms in op_ms {
        sum += ms;
        n += 1;
        if sum >= window_ms {
            out.push(sum / n as f64);
            (sum, n) = (0.0, 0);
        }
    }
    if out.is_empty() && n > 0 {
        out.push(sum / n as f64);
    }
    out
}

/// Median, over runs of `tries` consecutive values, of the smallest of
/// each run; tries left over at the end are dropped, fewer than `tries`
/// values give their minimum, none gives `NaN`.
///
/// A neighbour on the shared host only ever adds time, in bursts of a few
/// ops, so the best of three consecutive tries is an op the neighbour
/// mostly left alone; the median over the triples then sits in whatever
/// speed the host ran at for most of the run. Neither half does alone.
/// Over ten runs of the same code, quartile distance over median of the
/// per-run value: the plain median 0.13–0.33 on `fl_sim` (disturbed
/// rounds are between three and seven in ten) and 0.02–0.05 on
/// `codec_models`; a low quantile (the first decile) 0.04 on `fl_sim` but
/// 0.11–0.17 on `codec_models` (whose host runs a fifth faster for a tenth
/// to a third of most runs); this 0.05–0.10 and 0.04–0.09.
pub fn best_of_median(values: &[f64], tries: usize) -> f64 {
    let best = |run: &[f64]| run.iter().copied().fold(f64::INFINITY, f64::min);
    let bests: Vec<f64> = values.chunks_exact(tries.max(1)).map(best).collect();
    match (bests.is_empty(), values.is_empty()) {
        (false, _) => median(&bests),
        (true, false) => best(values),
        (true, true) => f64::NAN,
    }
}

/// First and third quartile by the exclusive method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` returns, which is what
/// the driver judges run-to-run spread with. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |q: usize| {
        // CPython's integer arithmetic: the neighbour index is clamped
        // into the data, the weight is not (tiny samples extrapolate).
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median: the spread measure
/// the benchmark's bounds are written against. `None` below two values
/// or for a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The tail of a timing sample: the highest percentile that still has at
/// least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, in percent.
    pub pct: f64,
    /// The timing at that percentile.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// Applies the tail rule. Below twenty samples the "highest percentile
/// with ten samples beyond it" would sit at or under the median, which
/// is no tail at all, so the answer is `None`.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n < 20 {
        return None;
    }
    let v = sorted(values);
    // v[n - 11] has exactly ten samples above it.
    Some(Tail { pct: 100.0 * (n - 10) as f64 / n as f64, value: v[n - 11], samples: n })
}

/// Median of `num[i] / den[i]` over pairs measured back to back — robust
/// against drift that moves both sides of a pair together.
pub fn median_ratio(num: &[f64], den: &[f64]) -> f64 {
    let ratios: Vec<f64> = num.iter().zip(den).map(|(a, b)| a / b).collect();
    median(&ratios)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn best_of_three_then_median() {
        // Triples (5,3,4) (9,1,7) (6,8,2): bests 3, 1, 2; the 10 is left over.
        let v = [5.0, 3.0, 4.0, 9.0, 1.0, 7.0, 6.0, 8.0, 2.0, 10.0];
        assert_eq!(best_of_median(&v, 3), 2.0);
        assert_eq!(best_of_median(&[5.0, 3.0], 3), 3.0, "under three tries: the minimum");
        assert!(best_of_median(&[], 3).is_nan());
        // One disturbed try in each triple moves nothing ...
        let steady = [10.0; 30];
        let mut burst = steady;
        burst.iter_mut().step_by(3).for_each(|x| *x = 40.0);
        assert_eq!(best_of_median(&burst, 3), 10.0);
        // ... and a faster spell shorter than half the run does not either.
        let mut spell = steady;
        spell[..12].iter_mut().for_each(|x| *x = 8.0);
        assert_eq!(best_of_median(&spell, 3), 10.0);
    }

    #[test]
    fn windows_average_runs_of_short_ops_and_keep_long_ones() {
        // Ops as long as the window are their own windows.
        assert_eq!(windowed(&[300.0, 250.0, 400.0], 250.0), vec![300.0, 250.0, 400.0]);
        // Short ops that share slack: only their sum counts; the
        // unfinished tail is dropped.
        assert_eq!(windowed(&[4.0, 12.0, 8.0, 4.0, 12.0, 8.0, 4.0], 24.0), vec![8.0, 8.0]);
        // ... unless nothing else is there.
        assert_eq!(windowed(&[4.0, 12.0], 250.0), vec![8.0]);
        assert!(windowed(&[], 250.0).is_empty());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates on tiny samples.
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(tail(&few), None, "19 samples: ten beyond would sit under the median");
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        let t = tail(&v).expect("100 samples have a tail");
        assert_eq!(t.samples, 100);
        assert_eq!(t.pct, 90.0);
        assert_eq!(t.value, 89.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        let many: Vec<f64> = (0..2500).map(f64::from).collect();
        assert_eq!(tail(&many).map(|t| t.pct), Some(99.6));
    }

    #[test]
    fn ratio_is_taken_per_pair() {
        // One slow pair moves the ratio of medians but not the median
        // of ratios.
        assert_eq!(median_ratio(&[2.0, 4.0, 20.0], &[1.0, 2.0, 10.0]), 2.0);
    }
}
