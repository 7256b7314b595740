//! The paper's Eqn 1: when is compression worth it?
//!
//! `0 < t_C + t_D + S'/B_N < S/B_N` — compressing pays off iff the
//! compression and decompression runtimes plus the compressed transfer
//! time stay below the uncompressed transfer time. These helpers drive
//! the Figure 7/8 benches and the bandwidth-planner example.

/// Measured cost profile of compressing one update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferPlan {
    /// Compression runtime in seconds (`t_C`).
    pub compress_secs: f64,
    /// Decompression runtime in seconds (`t_D`).
    pub decompress_secs: f64,
    /// Uncompressed payload size in bytes (`S`).
    pub original_bytes: usize,
    /// Compressed payload size in bytes (`S'`).
    pub compressed_bytes: usize,
}

impl TransferPlan {
    /// Compression ratio `S / S'`.
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            return 0.0;
        }
        self.original_bytes as f64 / self.compressed_bytes as f64
    }

    /// Seconds to send the *uncompressed* update over `bandwidth_bps`
    /// (bits per second).
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is not positive.
    pub fn uncompressed_time(&self, bandwidth_bps: f64) -> f64 {
        assert!(bandwidth_bps > 0.0, "bandwidth must be positive");
        self.original_bytes as f64 * 8.0 / bandwidth_bps
    }

    /// Total compressed-path time: `t_C + t_D + S' * 8 / B_N`.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is not positive.
    pub fn compressed_time(&self, bandwidth_bps: f64) -> f64 {
        assert!(bandwidth_bps > 0.0, "bandwidth must be positive");
        self.compress_secs
            + self.decompress_secs
            + self.compressed_bytes as f64 * 8.0 / bandwidth_bps
    }

    /// Eqn 1's decision: true iff compressing is faster end to end.
    pub fn worthwhile(&self, bandwidth_bps: f64) -> bool {
        self.compressed_time(bandwidth_bps) < self.uncompressed_time(bandwidth_bps)
    }

    /// The bandwidth (bits/s) at which compressed and uncompressed paths
    /// take equal time; compression wins below this, loses above. Returns
    /// `f64::INFINITY` when compression is free or always wins.
    pub fn breakeven_bandwidth(&self) -> f64 {
        let saved_bits = (self.original_bytes.saturating_sub(self.compressed_bytes)) as f64 * 8.0;
        let overhead = self.compress_secs + self.decompress_secs;
        if overhead <= 0.0 {
            return f64::INFINITY;
        }
        saved_bits / overhead
    }

    /// Wall-clock speedup of the compressed path at `bandwidth_bps`.
    pub fn speedup(&self, bandwidth_bps: f64) -> f64 {
        self.uncompressed_time(bandwidth_bps) / self.compressed_time(bandwidth_bps)
    }
}

/// Exponentially-weighted moving profile of a codec's measured
/// per-byte costs, feeding Eqn-1 decisions when the *next* payload's
/// costs must be predicted before paying them.
///
/// One definition for every adaptive stage in the FL pipeline — the
/// per-client upload decision, the broadcast downlink stage and the
/// partial-sum forwarding stage all fold their measurements into this
/// type and price candidate transfers through [`CostProfile::plan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostProfile {
    /// Seconds of compression time per input byte.
    pub compress_secs_per_byte: f64,
    /// Seconds of decompression time per input byte.
    pub decompress_secs_per_byte: f64,
    /// Observed compression ratio (original over compressed size).
    pub ratio: f64,
}

impl CostProfile {
    /// Folds a fresh measurement into an optional previous profile with
    /// a 50/50 exponential blend (`None` adopts the sample outright).
    pub fn blend(prev: Option<CostProfile>, sample: CostProfile) -> CostProfile {
        match prev {
            None => sample,
            Some(prev) => CostProfile {
                compress_secs_per_byte: 0.5 * prev.compress_secs_per_byte
                    + 0.5 * sample.compress_secs_per_byte,
                decompress_secs_per_byte: 0.5 * prev.decompress_secs_per_byte
                    + 0.5 * sample.decompress_secs_per_byte,
                ratio: 0.5 * prev.ratio + 0.5 * sample.ratio,
            },
        }
    }

    /// Predicts a [`TransferPlan`] for a payload of `raw_bytes` from
    /// the profiled per-byte costs. Callers scale the estimate for
    /// their own setting (a straggler multiplies `compress_secs` by its
    /// slowdown; a broadcast divides it by the fan-out it amortizes
    /// over).
    pub fn plan(&self, raw_bytes: usize) -> TransferPlan {
        TransferPlan {
            compress_secs: self.compress_secs_per_byte * raw_bytes as f64,
            decompress_secs: self.decompress_secs_per_byte * raw_bytes as f64,
            original_bytes: raw_bytes,
            compressed_bytes: ((raw_bytes as f64 / self.ratio.max(f64::MIN_POSITIVE)) as usize)
                .max(1),
        }
    }
}

/// Which compression leg of the pipeline an Eqn-1 decision priced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eqn1Leg {
    /// A client's update upload (one decision per cohort client).
    Uplink,
    /// The broadcast of the global model (one decision per round).
    Downlink,
    /// A partial-sum frame inside the aggregation tree (one decision
    /// per priced edge).
    Psum,
}

impl Eqn1Leg {
    /// Stable lowercase name used in trace events and reports.
    pub fn name(self) -> &'static str {
        match self {
            Eqn1Leg::Uplink => "uplink",
            Eqn1Leg::Downlink => "downlink",
            Eqn1Leg::Psum => "psum",
        }
    }
}

/// One auditable Eqn-1 decision: what a compression stage chose and
/// what it predicted both paths would cost when it chose.
///
/// Every leg records a decision even when its policy is trivial
/// (forced raw or forced compressed): the predicted costs are `None`
/// then, because no [`TransferPlan`] was priced. When a
/// [`CostProfile`] *did* predict, both sides of the inequality are
/// kept so the advisor's call can be checked against the measured
/// codec time after the fact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Eqn1Decision {
    /// The pipeline leg that decided.
    pub leg: Eqn1Leg,
    /// The deciding node: client id on the uplink, tree node index on
    /// the psum leg, `0` for the round-global downlink.
    pub node: u64,
    /// The verdict: `true` means the payload shipped compressed.
    pub compressed: bool,
    /// The codec family the decision chose (`"raw"`, `"lossy"`,
    /// `"lossless"`, `"topk"`, `"q8"`, …). Before codec-family
    /// selection existed this was implied by `compressed`; it is now
    /// explicit so a trace can tell *which* codec won, not just that
    /// one did.
    pub family: &'static str,
    /// Predicted end-to-end seconds for the compressed path
    /// (`t_C + t_D + S'·8/B_N`), when a plan was priced.
    pub predicted_compressed_secs: Option<f64>,
    /// Predicted seconds for the raw path (`S·8/B_N`), when a plan was
    /// priced.
    pub predicted_raw_secs: Option<f64>,
    /// Measured codec seconds actually paid for this payload (encode
    /// side; zero when it shipped raw).
    pub measured_codec_secs: f64,
}

/// One codec family as a candidate in a family-selection decision:
/// its stable name plus the measured [`CostProfile`], when one exists.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FamilyCandidate {
    /// Stable family name (`"lossy"`, `"topk"`, `"q8"`, …) as it will
    /// appear in trace events and reports.
    pub family: &'static str,
    /// EWMA cost profile measured for this family, `None` until the
    /// family has been probed at least once.
    pub profile: Option<CostProfile>,
}

/// The outcome of [`select_family`]: which candidate (if any) to use
/// for the next payload, and the predictions that picked it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FamilySelection {
    /// Index into the candidate slice, or `None` to send raw.
    pub choice: Option<usize>,
    /// Predicted end-to-end seconds of the best *compressed* path
    /// (kept even when raw wins, so the margin is auditable), when
    /// priced.
    pub predicted_choice_secs: Option<f64>,
    /// Predicted seconds of the raw path, when priced.
    pub predicted_raw_secs: Option<f64>,
    /// True when the choice is an unpriced probe of an unprofiled
    /// family (the measurement that makes the next decision priceable).
    pub probe: bool,
}

/// The generalized Eqn 1: instead of compress-or-not with a single
/// codec, pick the **family** minimizing predicted end-to-end time
/// `t_C + t_D + S'·8/B_N` among `candidates`, with sending raw
/// (`S·8/B_N`) always on the menu.
///
/// Families without a [`CostProfile`] cannot be priced, so they are
/// probed first: the call returns the unprofiled candidate at
/// `probe_hint % candidates.len()` (or the next unprofiled one after
/// it), letting callers rotate the hint per client/round so every
/// family gets measured instead of only the first. With no bandwidth
/// estimate the candidate at the hint keeps being used: an adaptive
/// stage compresses until it can price.
///
/// Ties go to raw: a family must be *strictly* faster than sending
/// uncompressed to win, same as [`TransferPlan::worthwhile`].
///
/// `plan` turns a candidate's profile into this payload's
/// [`TransferPlan`] — [`CostProfile::plan`] of `raw_bytes`, scaled for
/// the caller's setting (a straggler's slower compression, an encode
/// amortized over a broadcast's fan-out).
pub fn select_family(
    raw_bytes: usize,
    bandwidth_bps: Option<f64>,
    candidates: &[FamilyCandidate],
    probe_hint: usize,
    plan: &dyn Fn(&CostProfile) -> TransferPlan,
) -> FamilySelection {
    if candidates.is_empty() {
        return FamilySelection {
            choice: None,
            predicted_choice_secs: None,
            predicted_raw_secs: None,
            probe: false,
        };
    }
    // Probe rounds: some family is still unmeasured. Rotate through the
    // unprofiled ones so each earns a profile.
    if candidates.iter().any(|c| c.profile.is_none()) {
        let n = candidates.len();
        let probe = (0..n)
            .map(|i| (probe_hint + i) % n)
            .find(|&i| candidates[i].profile.is_none())
            .expect("an unprofiled candidate exists");
        return FamilySelection {
            choice: Some(probe),
            predicted_choice_secs: None,
            predicted_raw_secs: None,
            probe: true,
        };
    }
    let Some(bps) = bandwidth_bps else {
        // No bandwidth estimate to price against: keep compressing with
        // the first family (the conservative choice on an unknown link).
        return FamilySelection {
            choice: Some(probe_hint % candidates.len()),
            predicted_choice_secs: None,
            predicted_raw_secs: None,
            probe: true,
        };
    };
    let raw_secs = raw_bytes as f64 * 8.0 / bps;
    let mut best: Option<(usize, f64)> = None;
    for (i, candidate) in candidates.iter().enumerate() {
        let profile = candidate.profile.expect("all candidates profiled above");
        let secs = plan(&profile).compressed_time(bps);
        if best.is_none_or(|(_, b)| secs < b) {
            best = Some((i, secs));
        }
    }
    let (winner, secs) = best.expect("candidates are non-empty");
    FamilySelection {
        choice: (secs < raw_secs).then_some(winner),
        predicted_choice_secs: Some(secs),
        predicted_raw_secs: Some(raw_secs),
        probe: false,
    }
}

/// Convenience: megabits per second to bits per second.
pub fn mbps(v: f64) -> f64 {
    v * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> TransferPlan {
        TransferPlan {
            compress_secs: 1.0,
            decompress_secs: 0.5,
            original_bytes: 230_000_000,  // AlexNet-sized
            compressed_bytes: 23_000_000, // 10x
        }
    }

    #[test]
    fn low_bandwidth_favours_compression() {
        // 10 Mbps: uncompressed 184 s, compressed 1.5 + 18.4 s.
        let p = plan();
        assert!(p.worthwhile(mbps(10.0)));
        assert!(p.speedup(mbps(10.0)) > 9.0);
    }

    #[test]
    fn high_bandwidth_disfavours_compression() {
        // 10 Gbps: transfer is nearly free; 1.5 s overhead dominates.
        let p = plan();
        assert!(!p.worthwhile(mbps(10_000.0)));
    }

    #[test]
    fn breakeven_matches_closed_form() {
        let p = plan();
        let be = p.breakeven_bandwidth();
        // Just below break-even: worthwhile; just above: not.
        assert!(p.worthwhile(be * 0.99));
        assert!(!p.worthwhile(be * 1.01));
        // (230M - 23M) * 8 bits / 1.5 s = 1.104e9 bps.
        assert!((be - 1.104e9).abs() / 1.104e9 < 1e-9);
    }

    #[test]
    fn paper_headline_numbers_reproduce() {
        // Paper Section VII-B: at 10 Mbps AlexNet sees a 13.26x
        // communication-time reduction. With a 12.61x ratio and ~1 s of
        // codec overhead the model predicts the same order.
        let p = TransferPlan {
            compress_secs: 3.22, // Table I, SZ2 at 1e-2 on a Pi 5
            decompress_secs: 1.5,
            original_bytes: 230_000_000,
            compressed_bytes: (230_000_000.0 / 12.61) as usize,
        };
        let speedup = p.speedup(mbps(10.0));
        assert!((8.0..14.0).contains(&speedup), "speedup {speedup:.2} out of the paper's ballpark");
    }

    #[test]
    fn ratio_and_edge_cases() {
        let p = plan();
        assert!((p.ratio() - 10.0).abs() < 1e-9);
        let free = TransferPlan {
            compress_secs: 0.0,
            decompress_secs: 0.0,
            original_bytes: 100,
            compressed_bytes: 50,
        };
        assert_eq!(free.breakeven_bandwidth(), f64::INFINITY);
    }

    #[test]
    fn mbps_converts() {
        assert_eq!(mbps(10.0), 1e7);
    }

    #[test]
    fn cost_profile_blends_and_plans() {
        let first = CostProfile {
            compress_secs_per_byte: 2e-9,
            decompress_secs_per_byte: 1e-9,
            ratio: 4.0,
        };
        assert_eq!(CostProfile::blend(None, first), first, "no history adopts the sample");
        let second = CostProfile {
            compress_secs_per_byte: 4e-9,
            decompress_secs_per_byte: 3e-9,
            ratio: 2.0,
        };
        let blended = CostProfile::blend(Some(first), second);
        assert!((blended.compress_secs_per_byte - 3e-9).abs() < 1e-18);
        assert!((blended.ratio - 3.0).abs() < 1e-12);
        let plan = blended.plan(1_000_000);
        assert_eq!(plan.original_bytes, 1_000_000);
        assert_eq!(plan.compressed_bytes, 333_333);
        assert!((plan.compress_secs - 3e-3).abs() < 1e-12);
    }

    /// A cheap, fast family: tiny codec cost, 10x ratio.
    fn fast_family() -> CostProfile {
        CostProfile { compress_secs_per_byte: 1e-10, decompress_secs_per_byte: 1e-10, ratio: 10.0 }
    }

    /// A slow family: heavy codec cost, 2x ratio.
    fn slow_family() -> CostProfile {
        CostProfile { compress_secs_per_byte: 1e-6, decompress_secs_per_byte: 1e-6, ratio: 2.0 }
    }

    /// The unscaled pricing: each profile's plan for `raw_bytes`.
    fn plan_of(raw_bytes: usize) -> impl Fn(&CostProfile) -> TransferPlan {
        move |p| p.plan(raw_bytes)
    }

    #[test]
    fn select_family_probes_unprofiled_candidates_in_rotation() {
        let candidates = [
            FamilyCandidate { family: "lossy", profile: Some(fast_family()) },
            FamilyCandidate { family: "topk", profile: None },
            FamilyCandidate { family: "q8", profile: None },
        ];
        let s = select_family(1_000_000, Some(mbps(10.0)), &candidates, 0, &plan_of(1_000_000));
        assert!(s.probe);
        assert_eq!(s.choice, Some(1), "hint 0 rotates to the first unprofiled slot");
        assert_eq!(s.predicted_raw_secs, None);
        let s = select_family(1_000_000, Some(mbps(10.0)), &candidates, 2, &plan_of(1_000_000));
        assert_eq!(s.choice, Some(2), "hint 2 lands on the other unprofiled slot");
    }

    #[test]
    fn select_family_prices_candidates_and_picks_the_fastest() {
        let candidates = [
            FamilyCandidate { family: "slow", profile: Some(slow_family()) },
            FamilyCandidate { family: "fast", profile: Some(fast_family()) },
        ];
        // 10 Mbps, 10 MB payload: raw 8 s; fast family ~0.8 s + codec.
        let s = select_family(10_000_000, Some(mbps(10.0)), &candidates, 0, &plan_of(10_000_000));
        assert!(!s.probe);
        assert_eq!(s.choice, Some(1));
        let raw = s.predicted_raw_secs.unwrap();
        let chosen = s.predicted_choice_secs.unwrap();
        assert!((raw - 8.0).abs() < 1e-9);
        assert!(chosen < raw);
    }

    #[test]
    fn select_family_falls_back_to_raw_on_fast_links() {
        // 100 Gbps: raw wins against a family that burns 1 us/byte.
        let candidates = [FamilyCandidate { family: "slow", profile: Some(slow_family()) }];
        let s = select_family(10_000_000, Some(100e9), &candidates, 0, &plan_of(10_000_000));
        assert!(!s.probe);
        assert_eq!(s.choice, None, "raw is faster than every candidate");
        // The losing family's prediction is still reported for audit.
        assert!(s.predicted_choice_secs.unwrap() > s.predicted_raw_secs.unwrap());
    }

    #[test]
    fn select_family_handles_empty_and_unpriced_inputs() {
        let s = select_family(1_000, Some(mbps(1.0)), &[], 3, &plan_of(1_000));
        assert_eq!(s.choice, None);
        assert!(!s.probe);
        let candidates = [FamilyCandidate { family: "fast", profile: Some(fast_family()) }];
        let s = select_family(1_000, None, &candidates, 5, &plan_of(1_000));
        assert!(s.probe, "no bandwidth sample means an unpriced probe");
        assert_eq!(s.choice, Some(0));
    }
}
