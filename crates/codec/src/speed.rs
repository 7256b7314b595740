//! The one rule every speed gate in the workspace is held by: an A/B
//! ratio of two implementations run back to back in one process, not a
//! wall-clock floor a shared host cannot keep.
//!
//! [`gate`] runs 11 rotations. Each times a sample of the new side, one
//! of the old side and a null sample (the old side again); even
//! rotations run the new side first and odd ones the old side first, so
//! a warm-up or clock step lands on each side as often, and a speed
//! phase of the host slows all three. A rotation gives one `old / new`
//! ratio; the gate passes on their median, so one slow rotation neither
//! passes nor fails it. The spread of the ratios and of the null run's
//! `old / old` ratios, the host's own noise, are printed on the gate's
//! one line. A sample is the mean of as many calls as the faster side
//! needs to take 1 ms, the same count on both sides, read from one
//! warm-up call of each.
//!
//! libtest runs a binary's tests on parallel threads, so each gate holds
//! a process-wide lock ([`exclusive`]) while it measures: two gates never
//! time each other. Only tests call this module.

use std::hint::black_box;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Rotations per gate: odd, so the median is one rotation's ratio.
const ROTATIONS: usize = 11;

/// The least time the faster side's sample takes, in seconds.
const SAMPLE_SECS: f64 = 1e-3;

static HOST: Mutex<()> = Mutex::new(());

/// Holds the host for one measurement, against every other gate in the
/// process. A gate that panicked leaves the lock usable.
pub fn exclusive() -> MutexGuard<'static, ()> {
    HOST.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The middle of `values` once sorted, the mean of the two middle ones
/// for an even count.
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The least and the greatest of `values`.
fn spread(values: &[f64]) -> (f64, f64) {
    values.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

/// What a gate measured: the per-call seconds of each side's sample in
/// each rotation, in rotation order.
#[derive(Default)]
struct Reading {
    /// The new side's samples.
    new: Vec<f64>,
    /// The old side's samples.
    old: Vec<f64>,
    /// The null samples: the old side in the null slot.
    null: Vec<f64>,
}

impl Reading {
    /// Runs `rotations` rotations, each calling `new` once and `old`
    /// twice (its second call the null sample): the new side first in
    /// even rotations, the old side first in odd ones. Each call returns
    /// the per-call seconds of one sample.
    fn take(
        rotations: usize,
        mut new: impl FnMut() -> f64,
        mut old: impl FnMut() -> f64,
    ) -> Reading {
        let mut reading = Reading::default();
        for rotation in 0..rotations {
            if rotation.is_multiple_of(2) {
                reading.new.push(new());
                reading.old.push(old());
                reading.null.push(old());
            } else {
                reading.null.push(old());
                reading.old.push(old());
                reading.new.push(new());
            }
        }
        reading
    }

    /// `old / new` in each rotation.
    fn ratios(&self) -> Vec<f64> {
        self.old.iter().zip(&self.new).map(|(old, new)| old / new).collect()
    }

    /// `old / null` in each rotation: 1 on a quiet host.
    fn null_ratios(&self) -> Vec<f64> {
        self.old.iter().zip(&self.null).map(|(old, null)| old / null).collect()
    }

    /// The gate's line: each side's per-call median, the median ratio,
    /// its spread, the null run's spread and the floor.
    fn line(&self, name: &str, floor: f64) -> String {
        let ((lo, hi), (null_lo, null_hi)) = (spread(&self.ratios()), spread(&self.null_ratios()));
        format!(
            "{name}: new {} old {} per call, {:.2}x (median of {}, {lo:.2}-{hi:.2}x; \
             null {null_lo:.2}-{null_hi:.2}x); floor {floor}x",
            per_call(median(&self.new)),
            per_call(median(&self.old)),
            median(&self.ratios()),
            self.new.len(),
        )
    }

    /// Prints [`line`](Reading::line) and panics, with the gate's name, its
    /// median and its floor, when the median ratio is below `floor`.
    fn check(&self, name: &str, floor: f64) {
        println!("{}", self.line(name, floor));
        let median = median(&self.ratios());
        assert!(median >= floor, "{name}: median {median:.2}x is below its floor {floor}x");
    }
}

/// `secs` in the unit that gives it three or four digits.
fn per_call(secs: f64) -> String {
    let (value, unit) = match secs {
        s if s < 1e-6 => (s * 1e9, "ns"),
        s if s < 1e-3 => (s * 1e6, "us"),
        s if s < 1.0 => (s * 1e3, "ms"),
        s => (s, "s"),
    };
    format!("{value:.2} {unit}")
}

/// The mean seconds of `calls` calls of `run`.
fn time<T>(calls: usize, run: &mut impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    for _ in 0..calls {
        black_box(run());
    }
    t0.elapsed().as_secs_f64() / calls as f64
}

/// The speed gate: `new` must run at least `floor` times as fast as
/// `old`, in the median of 11 rotations (see the module
/// docs). Prints one line, and panics below the floor.
pub fn gate<A, B>(name: &str, floor: f64, mut new: impl FnMut() -> A, mut old: impl FnMut() -> B) {
    let _host = exclusive();
    let faster = time(1, &mut new).min(time(1, &mut old));
    let calls = (SAMPLE_SECS / faster.max(1e-9)).ceil() as usize;
    Reading::take(ROTATIONS, || time(calls, &mut new), || time(calls, &mut old)).check(name, floor);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// The clock-free half of [`gate`] on fixed times: rotation `r`'s
    /// new sample takes `new[r]` seconds, every old one `old`.
    fn reading(new: &[f64], old: f64) -> Reading {
        let mut next = new.iter().copied();
        Reading::take(new.len(), || next.next().unwrap(), || old)
    }

    #[test]
    fn even_rotations_run_the_new_side_first_and_odd_ones_the_old() {
        let log = RefCell::new(String::new());
        let reading = Reading::take(
            4,
            || {
                log.borrow_mut().push('n');
                1.0
            },
            || {
                log.borrow_mut().push('o');
                1.0
            },
        );
        assert_eq!(*log.borrow(), "noooonnoooon");
        assert_eq!((reading.new.len(), reading.old.len(), reading.null.len()), (4, 4, 4));
    }

    #[test]
    fn median_and_spread_on_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(spread(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(spread(&[4.0, 1.0, 3.0, 2.0]), (1.0, 4.0));
        let reading = reading(&[1.0, 0.5, 0.25], 1.0);
        assert_eq!(reading.ratios(), [1.0, 2.0, 4.0]);
        assert_eq!(reading.null_ratios(), [1.0; 3]);
        let line = reading.line("fixed", 1.5);
        assert!(line.contains("2.00x (median of 3, 1.00-4.00x; null 1.00-1.00x); floor 1.5x"));
        assert!(line.starts_with("fixed: new 500.00 ms old 1.00 s per call"), "{line}");
    }

    #[test]
    fn one_slow_rotation_neither_passes_nor_fails_a_gate() {
        // Ten rotations at 2x and one whose new side stalled: passes.
        let mut new = [0.5; ROTATIONS];
        new[4] = 50.0;
        reading(&new, 1.0).check("one stalled new side", 1.5);
        // Ten rotations at 1x and one at 100x: fails.
        let mut new = [1.0; ROTATIONS];
        new[7] = 0.01;
        let stalled = reading(&new, 1.0);
        assert_eq!(spread(&stalled.ratios()), (1.0, 100.0));
        assert!(std::panic::catch_unwind(|| stalled.check("one fast rotation", 1.5)).is_err());
    }

    #[test]
    #[should_panic(expected = "slow kernel: median 1.25x is below its floor 1.5x")]
    fn a_median_below_the_floor_panics_with_the_name_and_both_numbers() {
        reading(&[0.8; ROTATIONS], 1.0).check("slow kernel", 1.5);
    }
}
