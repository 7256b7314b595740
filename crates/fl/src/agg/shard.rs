//! Exact, merge-order-invariant partial sums.
//!
//! The sharded tree only works as a drop-in replacement for flat FedAvg
//! if splitting the cohort across edge aggregators cannot change the
//! aggregated model by even one bit. Floating-point addition is not
//! associative, so naively summing per shard and then summing the shard
//! partials would make the global model depend on the shard count. The
//! fix here is [`ExactAcc`]: every term `w_i · x_i` is quantized onto a
//! fixed `2^-80` binary grid (exact for every practically-scaled term —
//! quantization only discards magnitude below `2^-80`, far beneath an
//! `f32` model weight's resolution) and accumulated in 128-bit integer
//! arithmetic. Integer addition is associative and commutative, so a
//! [`PartialSum`] merge is bitwise independent of how clients were
//! grouped into shards and of the order edges report in. The merge
//! still runs in ascending client-id order per shard and ascending
//! shard order at the root, so the bytes a debugger sees are stable
//! too, not merely the final model.
//!
//! # Reading a sum out
//!
//! Every sum leaves the grid through one rounding: [`ExactAcc::value`]
//! is bit for bit `x as f64 * 2^-80` for the accumulator's integer
//! `x`, and [`PartialSum::finish`] divides that by the total weight.
//! The `i128` cast is a library call per element, so the readout
//! converts `x` as two halves, `x >> 52` and `x & (2^52 - 1)`, each of
//! which a double holds exactly, and rounds once when it adds them:
//! the cast's round to nearest even (the proof is on
//! [`ExactAcc::value`]). That holds below `2^103` in magnitude (`2^23`
//! after scaling, far outside any model); the loop has no branch, so
//! it vectorizes, and a second pass reads any accumulator past that
//! range by the cast, only when one exists.
//!
//! [`TreePlan`](crate::agg::TreePlan) assigns each leaf aggregator a
//! contiguous client-id range (balanced to within one client), which
//! keeps shard membership a pure function of the client id — no
//! routing table to ship.
//!
//! # Pricing: when does a partial-sum frame beat forwarding uploads?
//!
//! A [`PartialSum`] frame ships one `f64` per model element (see
//! [`PartialSum::encode_payload`]) — **2x** the bytes of the raw `f32`
//! upload it summarizes. An edge aggregator with fan-in `F` (clients
//! per frame) therefore cuts its parent's ingress only when
//!
//! * `F > 2` against raw uploads, and
//! * `F > 2·r_up` against FedSZ-compressed uploads of ratio `r_up`;
//!
//! compressing the frames *losslessly* (ratio `r_ps`, see
//! [`PsumForwarder`](crate::agg::PsumForwarder)) divides both
//! break-evens by `r_ps`: the ingress reduction at a node is exactly
//! `F · r_ps / 2` against raw uploads. These are not just
//! documentation: the `agg_scale` bench measures the reduction with
//! the lossless codec on and asserts it tracks the `F · r_ps / 2`
//! closed form at every sweep point (at 10^3 clients / 16 shards the
//! two-level reduction is ~54x with `r_ps ≈ 1.72`, and deeper trees
//! multiply it by their extra fan-in). `r_ps` is bounded by the sums'
//! noise, not by the codec: the low three mantissa bytes of a sum are
//! incompressible and the byte planes' order-0 entropies add up to
//! about 4.6 of its 8 bytes, so `8 / 4.6 ≈ 1.75` is what per-plane
//! coding can reach (the byte-plane coder sits within two percent of
//! it; the shuffle + LZ pipeline it replaced reached 1.56). The break-evens
//! therefore stand at `F > 2 / 1.72 ≈ 1.2` clients per frame against
//! raw uploads and `F > 1.2 · r_up` against FedSZ-compressed ones.

use fedsz_codec::varint::{
    read_shape, read_str, read_uvarint, uvarint_len, write_shape, write_str, write_uvarint,
};
use fedsz_codec::{CodecError, Result};
use fedsz_nn::StateDict;
use fedsz_tensor::Tensor;

/// Fractional bits of the fixed-point accumulation grid: terms are
/// summed exactly as multiples of `2^-80`.
pub const FRAC_BITS: i32 = 80;

/// The batched kernels' fast window over a term's biased exponent:
/// `shift = (biased - 1075) + FRAC_BITS` lands in `[0, 74]`, so the
/// quantized magnitude is the mantissa shifted left by `biased -
/// FAST_LO`.
pub(super) const FAST_LO: i32 = 1075 - FRAC_BITS;
pub(super) const FAST_HI: i32 = FAST_LO + 74;

/// `2^-80`, the grid step, constructed bit-exactly (a decimal literal
/// could be off by an ulp).
const GRID: f64 = f64::from_bits(((1023 - FRAC_BITS as u64) & 0x7FF) << 52);

/// `2^52`: one mantissa step of a double in `[2^52, 2^53)` is 1.
const LOW_MAGIC: f64 = 4_503_599_627_370_496.0;

/// `1.5 * 2^52`: the midpoint of that binade, so a signed 51-bit
/// integer added to its bits stays inside it.
const HIGH_MAGIC: f64 = 6_755_399_441_055_744.0;

/// The `i128` with words `low` and `high` as `f64`, by two exact halves
/// and one rounding (see [`ExactAcc::value`]); meaningful only where
/// [`outside_split`] is 0. No branch, so a loop over it vectorizes.
#[inline(always)]
fn split(low: u64, high: u64) -> f64 {
    // `x >> 52` and `x & (2^52 - 1)`, from the two words.
    let (xh, xl) = (high << 12 | low >> 52, low & ((1 << 52) - 1));
    let xh = f64::from_bits(HIGH_MAGIC.to_bits().wrapping_add(xh)) - HIGH_MAGIC;
    let xl = f64::from_bits(LOW_MAGIC.to_bits() | xl) - LOW_MAGIC;
    xh * LOW_MAGIC + xl
}

/// Nonzero when the `i128` whose high word is `high` lies outside
/// `[-2^103, 2^103)`, where [`split`] does not hold: `high + 2^39`
/// leaves `[0, 2^40)`.
#[inline(always)]
fn outside_split(high: u64) -> u64 {
    high.wrapping_add(1 << 39) >> 40
}

/// Quantizes one `f64` term onto the `2^-80` grid (truncating toward
/// zero), exactly — the shift arithmetic never rounds twice.
///
/// # Panics
///
/// Panics when the term is non-finite or its magnitude reaches `2^47`
/// (far beyond any sane weighted model entry; a silent wrap would
/// corrupt the aggregate).
fn quantize(term: f64) -> i128 {
    if term == 0.0 {
        return 0;
    }
    assert!(term.is_finite(), "non-finite term in aggregation");
    let bits = term.to_bits();
    let negative = bits >> 63 == 1;
    let biased = ((bits >> 52) & 0x7FF) as i32;
    let frac = bits & ((1u64 << 52) - 1);
    // value = ±m · 2^e with m in [2^52, 2^53) for normal numbers.
    let (m, e) = if biased == 0 { (frac, -1074) } else { (frac | (1 << 52), biased - 1075) };
    let shift = e + FRAC_BITS;
    let magnitude: i128 = if shift >= 0 {
        assert!(shift <= 74, "aggregation term magnitude {term:e} exceeds the fixed-point range");
        i128::from(m) << shift
    } else if shift > -64 {
        i128::from(m >> (-shift) as u32)
    } else {
        0
    };
    if negative {
        -magnitude
    } else {
        magnitude
    }
}

/// An order- and grouping-invariant accumulator for `f64` terms.
///
/// Internally a signed 128-bit fixed-point integer at [`FRAC_BITS`]
/// fractional bits; see the module docs for why this makes sharded
/// aggregation bit-identical to flat aggregation.
///
/// `repr(transparent)`: a slice of accumulators is a slice of `i128`s,
/// which is how the wide kernels behind [`ExactAcc::add_slice`] load it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(transparent)]
pub struct ExactAcc(i128);

impl ExactAcc {
    /// Folds one term into the sum.
    ///
    /// # Panics
    ///
    /// Panics on non-finite terms, on terms with magnitude `>= 2^47`,
    /// and on accumulator overflow (which would need astronomically
    /// large weights).
    pub fn add(&mut self, term: f64) {
        self.0 = self.0.checked_add(quantize(term)).expect("partial-sum overflow");
    }

    /// Merges another accumulator exactly: `None` on overflow, so a
    /// hostile frame with extreme accumulator bits evicts its sender
    /// instead of aborting the server.
    pub fn checked_merge(self, other: ExactAcc) -> Option<ExactAcc> {
        self.0.checked_add(other.0).map(ExactAcc)
    }

    /// The accumulated value, rounded once to `f64`: bit for bit
    /// `self.to_bits() as f64 * 2^-80` (the scaling is by a power of
    /// two and exact), without the `i128` cast.
    ///
    /// The cast is a compiler-rt call (`__floattidf`) per element,
    /// which does not vectorize. Below `2^103` in magnitude the integer
    /// `x` splits into `xh = x >> 52`, in `[-2^51, 2^51)`, and `xl = x
    /// & (2^52 - 1)`, in `[0, 2^52)`, and each half converts exactly by
    /// placing it in the mantissa of a double whose exponent makes one
    /// mantissa step worth 1:
    ///
    /// * `xh` added as an integer to the bits of `1.5 * 2^52` lands in
    ///   `[2^52, 2^53)` without touching the exponent, so subtracting
    ///   `1.5 * 2^52` leaves exactly `xh`;
    /// * `xl` OR-ed into the bits of `2^52` is `2^52 + xl`, so
    ///   subtracting `2^52` leaves exactly `xl`.
    ///
    /// `xh * 2^52` is exact too, so `xh * 2^52 + xl` has exactly the
    /// value `x` before its one rounding, which is round to nearest
    /// even, as the cast's is. A value at or past `2^103` (`2^23` after
    /// scaling, far beyond any model weight) takes the cast instead.
    pub fn value(self) -> f64 {
        let (low, high) = self.words();
        let x = if outside_split(high) == 0 { split(low, high) } else { self.0 as f64 };
        x * GRID
    }

    /// The low and high 64-bit words of the accumulator.
    #[inline(always)]
    fn words(self) -> (u64, u64) {
        (self.0 as u64, (self.0 >> 64) as u64)
    }

    /// Writes `f(accs[i].value())` to `out[i]` for every `i`, through
    /// the [`Readout`] kernel's AVX2 copy where the CPU has AVX2.
    ///
    /// # Panics
    ///
    /// Panics on slice length mismatch.
    pub(crate) fn read_slice<T>(accs: &[ExactAcc], out: &mut [T], f: impl Fn(f64) -> T) {
        fedsz_codec::simd::dispatch(Readout { accs, out, f });
    }

    /// Whether nothing has been accumulated (or everything cancelled).
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The raw fixed-point state, for exact serialization
    /// ([`PartialSum::encode_exact`]).
    pub fn to_bits(self) -> i128 {
        self.0
    }

    /// Rebuilds an accumulator from [`ExactAcc::to_bits`] output.
    pub fn from_bits(bits: i128) -> Self {
        Self(bits)
    }

    /// Folds `weight * values[i]` into `accs[i]` across a contiguous
    /// slice — the batched form of [`ExactAcc::add`], bit-identical to
    /// it by construction.
    ///
    /// The hot case (a normal finite term whose quantized shift lands
    /// in `[0, 74]`) is a single biased-exponent range check followed by
    /// one mask, one shift and one add; everything else — zeros,
    /// subnormal products, magnitudes below the grid or past the `2^47`
    /// ceiling, non-finite terms — falls through to the scalar
    /// `quantize` path, which carries the range panics. There is no
    /// separate rounding step to diverge: the fast path computes the
    /// same `(frac | 2^52) << (e + FRAC_BITS)` the scalar path does.
    ///
    /// On an x86-64 host the slice runs through the widest kernel in
    /// `agg/simd.rs` that the CPU has, as `is_x86_feature_detected!`
    /// reports it: eight lanes under AVX-512 F and DQ, else four under
    /// AVX2. Each does the same per-element arithmetic, with nothing
    /// reduced across lanes; everywhere else, and as those kernels'
    /// test oracle, it runs the portable loop.
    ///
    /// # Panics
    ///
    /// Panics on slice length mismatch, and wherever [`ExactAcc::add`]
    /// panics (non-finite terms, magnitude `>= 2^47`, overflow).
    pub fn add_slice(accs: &mut [ExactAcc], values: &[f32], weight: f64) {
        #[cfg(target_arch = "x86_64")]
        if super::simd::add_slice(accs, values, weight) {
            return;
        }
        Self::add_slice_portable(accs, values, weight);
    }

    /// The portable [`ExactAcc::add_slice`]: one element per step.
    pub(super) fn add_slice_portable(accs: &mut [ExactAcc], values: &[f32], weight: f64) {
        assert_eq!(accs.len(), values.len(), "kernel slice length mismatch");
        for (acc, &v) in accs.iter_mut().zip(values) {
            let term = weight * f64::from(v);
            let bits = term.to_bits();
            let biased = ((bits >> 52) & 0x7FF) as i32;
            if (FAST_LO..=FAST_HI).contains(&biased) {
                let m = (bits & ((1u64 << 52) - 1)) | (1 << 52);
                let mag = i128::from(m) << (biased - FAST_LO);
                // Two's-complement negate under an all-ones mask: the
                // sign of a weight is a coin flip no predictor learns.
                let sign = i128::from(bits as i64 >> 63);
                acc.0 = acc.0.checked_add((mag ^ sign) - sign).expect("partial-sum overflow");
            } else {
                acc.add(term);
            }
        }
    }

    /// Merges `src[i]` into `dst[i]` across a contiguous slice: the
    /// asserting form of [`ExactAcc::try_merge_slice`].
    ///
    /// # Panics
    ///
    /// Panics on slice length mismatch or accumulator overflow.
    pub fn merge_slice(dst: &mut [ExactAcc], src: &[ExactAcc]) {
        assert!(Self::try_merge_slice(dst, src), "partial-sum overflow");
    }

    /// Merges `src[i]` into `dst[i]` across a contiguous slice — the
    /// batched form of [`ExactAcc::checked_merge`] behind
    /// [`PartialSum::merge_from`] — and on the first overflow rolls the
    /// committed prefix back to its exact prior bits and returns `false`.
    /// (`i128` addition forms a group, so subtracting what was added
    /// restores every element bit-for-bit — no validation scratch
    /// buffer needed.)
    ///
    /// # Panics
    ///
    /// Panics on slice length mismatch.
    pub fn try_merge_slice(dst: &mut [ExactAcc], src: &[ExactAcc]) -> bool {
        assert_eq!(dst.len(), src.len(), "kernel slice length mismatch");
        for i in 0..dst.len() {
            match dst[i].0.checked_add(src[i].0) {
                Some(sum) => dst[i].0 = sum,
                None => {
                    Self::unmerge_slice(&mut dst[..i], &src[..i]);
                    return false;
                }
            }
        }
        true
    }

    /// Exact inverse of a committed [`ExactAcc::try_merge_slice`] prefix.
    fn unmerge_slice(dst: &mut [ExactAcc], src: &[ExactAcc]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            d.0 = d.0.wrapping_sub(s.0);
        }
    }
}

/// [`ExactAcc::read_slice`]'s loop, compiled for the build target and
/// for AVX2 ([`fedsz_codec::simd`]): `out[i] = f(accs[i].value())`.
/// One branch-free pass by [`split`], then, only if some accumulator
/// lies outside its range, a second pass that rewrites those elements
/// from the cast. On tiny AlexNet's 72,042 accumulators its AVX2 copy
/// is 1.8–1.9x the build target's for `finish` and 1.35–1.45x for the
/// psum image.
struct Readout<'a, T, F> {
    accs: &'a [ExactAcc],
    out: &'a mut [T],
    f: F,
}

impl<T, F: Fn(f64) -> T> fedsz_codec::simd::Kernel for Readout<'_, T, F> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let Readout { accs, out, f } = self;
        assert_eq!(accs.len(), out.len(), "readout slice length mismatch");
        let (groups, tail) = accs.as_chunks::<4>();
        let (out_groups, out_tail) = out.as_chunks_mut::<4>();
        let mut outside = 0;
        for (out, group) in out_groups.iter_mut().zip(groups) {
            // Word arrays per group of four, not one `i128` at a time:
            // that is the form the compiler keeps in vectors.
            let low = group.map(|acc| acc.words().0);
            let high = group.map(|acc| acc.words().1);
            for i in 0..4 {
                outside |= outside_split(high[i]);
                out[i] = f(split(low[i], high[i]) * GRID);
            }
        }
        for (out, acc) in out_tail.iter_mut().zip(tail) {
            *out = f(acc.value());
        }
        if outside != 0 {
            for (out, acc) in out.iter_mut().zip(accs) {
                if outside_split(acc.words().1) != 0 {
                    *out = f(acc.value());
                }
            }
        }
    }
}

/// One image entry's header: `(name, shape, element count)`.
type EntryHeader = (String, Vec<usize>, usize);

/// Order-sensitive `(name, shape)` agreement between an architecture
/// template and any entry sequence — the one definition every remote
/// ingress validator uses (decoded update dicts and partial-sum frames
/// alike), guarding the fold's asserts.
pub fn template_matches<'a>(
    template: &StateDict,
    count: usize,
    entries: impl Iterator<Item = (&'a str, &'a [usize])>,
) -> bool {
    count == template.len()
        && template
            .iter()
            .zip(entries)
            .all(|((tname, tensor), (name, shape))| tname == name && tensor.shape() == shape)
}

/// A weighted partial sum of state dicts, held exactly.
///
/// This is what an edge aggregator forwards to the root: one
/// accumulator per model element plus the total weight, `Σ w_i · x_i`
/// and `Σ w_i`. Merging two partial sums is exact ([`ExactAcc`]), so
/// `finish` yields the same bytes no matter how contributions were
/// grouped.
#[derive(Debug, Clone, Default)]
pub struct PartialSum {
    entries: Vec<(String, Vec<usize>, Vec<ExactAcc>)>,
    weight: ExactAcc,
    contributions: usize,
}

impl PartialSum {
    /// Bytes per element of the [`PartialSum::encode_payload`] image
    /// (an `f64` sum): the byte-plane stride its frames are coded at.
    pub const PAYLOAD_STRIDE: usize = 8;

    /// Bytes per element of the [`PartialSum::encode_exact`] image (an
    /// `i128` accumulator).
    pub const EXACT_STRIDE: usize = 16;

    /// An empty partial sum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of contributions folded in so far.
    pub fn contributions(&self) -> usize {
        self.contributions
    }

    /// Whether no contribution has been folded in.
    pub fn is_empty(&self) -> bool {
        self.contributions == 0
    }

    /// Total model elements per contribution.
    pub fn total_elements(&self) -> usize {
        self.entries.iter().map(|(_, _, accs)| accs.len()).sum()
    }

    /// Total accumulated weight.
    pub fn weight_total(&self) -> f64 {
        self.weight.value()
    }

    /// Folds one weighted state dict into the sum. The first
    /// contribution fixes the entry names and shapes; later ones must
    /// match it (the FedAvg setting: every client trains the same
    /// architecture).
    ///
    /// # Panics
    ///
    /// Panics on non-positive weights, on a missing or extra entry, or
    /// on a shape mismatch.
    pub fn accumulate(&mut self, dict: &StateDict, weight: f64) {
        assert!(weight.is_finite() && weight > 0.0, "weights must be positive");
        // A recycled ([`PartialSum::reset`]) buffer whose zeroed entries
        // already match the dict is reused as-is; anything else
        // (re)builds the entry layout from the first contribution.
        if self.entries.is_empty() || (self.is_empty() && !self.shape_matches(dict)) {
            self.entries = dict
                .iter()
                .map(|(name, t)| {
                    (name.to_owned(), t.shape().to_vec(), vec![ExactAcc::default(); t.len()])
                })
                .collect();
        }
        // Names are unique on both sides, so equal counts and every
        // entry found below mean the same set of names.
        assert_eq!(dict.len(), self.entries.len(), "update entry count differs from the sum's");
        for (name, shape, accs) in &mut self.entries {
            let tensor = dict.get(name).unwrap_or_else(|| panic!("update missing entry `{name}`"));
            assert_eq!(tensor.shape(), &shape[..], "shape mismatch for `{name}`");
            ExactAcc::add_slice(accs, tensor.data(), weight);
        }
        self.weight.add(weight);
        self.contributions += 1;
    }

    /// Merges another partial sum exactly, without taking ownership, so
    /// tree levels can recycle child buffers and the server merges what
    /// it decoded. Either side may be empty. An empty `self` whose
    /// recycled (zeroed) entries already match `other`'s layout merges
    /// in place — adding into zeros reproduces `other`'s bits exactly —
    /// and any other empty `self` becomes a clone of `other`.
    ///
    /// # Errors
    ///
    /// Returns why `other` cannot be merged: both sides hold
    /// contributions and disagree on entry names, order or shapes, or
    /// an accumulator would overflow. `self` is then bit for bit what it
    /// was: an overflow rolls the committed prefix back (see
    /// [`ExactAcc::try_merge_slice`]), with no scratch copy of the
    /// model. Remote ingress evicts the sender; the in-process tree,
    /// whose inputs are its own, treats an error as a bug.
    pub fn merge_from(&mut self, other: &PartialSum) -> std::result::Result<(), &'static str> {
        if other.is_empty() {
            return Ok(());
        }
        let same_layout = self.entries.len() == other.entries.len()
            && self.entries.iter().zip(&other.entries).all(
                |((name, shape, accs), (oname, oshape, oaccs))| {
                    name == oname && shape == oshape && accs.len() == oaccs.len()
                },
            );
        if !same_layout {
            if !self.is_empty() {
                return Err("partial sums disagree on entry names, order or shapes");
            }
            self.entries.clone_from(&other.entries);
            self.weight = other.weight;
            self.contributions = other.contributions;
            return Ok(());
        }
        let weight = self.weight.checked_merge(other.weight).ok_or("weight overflow")?;
        for e in 0..self.entries.len() {
            if !ExactAcc::try_merge_slice(&mut self.entries[e].2, &other.entries[e].2) {
                for (done, (_, _, oaccs)) in self.entries[..e].iter_mut().zip(&other.entries) {
                    ExactAcc::unmerge_slice(&mut done.2, oaccs);
                }
                return Err("partial-sum overflow");
            }
        }
        self.weight = weight;
        self.contributions += other.contributions;
        Ok(())
    }

    /// Clears the sum for reuse while keeping every allocation: entry
    /// names, shapes and accumulator buffers survive, so the next
    /// round on a pooled buffer does no `Vec` growth when the model
    /// layout repeats.
    pub fn reset(&mut self) {
        for (_, _, accs) in &mut self.entries {
            accs.fill(ExactAcc::default());
        }
        self.weight = ExactAcc::default();
        self.contributions = 0;
    }

    /// Divides by the total weight and rounds to `f32`, producing the
    /// aggregated state dict. Returns `None` when nothing was
    /// accumulated.
    pub fn finish(&self) -> Option<StateDict> {
        if self.is_empty() {
            return None;
        }
        let total = self.weight.value();
        assert!(total > 0.0, "aggregate weight must be positive");
        let mut out = StateDict::new();
        for (name, shape, accs) in &self.entries {
            // A division, not a multiply by `1 / total`: that rounds
            // twice and moves bits.
            let mut data = vec![0.0; accs.len()];
            ExactAcc::read_slice(accs, &mut data, |v| (v / total) as f32);
            out.insert(name.clone(), Tensor::from_vec(shape.clone(), data));
        }
        Some(out)
    }

    /// Whether this partial sum's entries agree with `template` — same
    /// entry names, same order, same shapes. Remote aggregators
    /// validate frames against the architecture-derived template
    /// *before* merging, so a misconfigured (or hostile) child gets
    /// evicted before any of its sums is read.
    pub fn shape_matches(&self, template: &StateDict) -> bool {
        template_matches(
            template,
            self.entries.len(),
            self.entries.iter().map(|(name, shape, _)| (name.as_str(), &shape[..])),
        )
    }

    /// Serializes the sums as the payload an edge would ship to the
    /// root: every entry's name and shape, then every entry's
    /// `f64`-rounded accumulator values back to back. (The in-process
    /// tree merges the exact accumulators instead — shipping rounded
    /// sums would re-introduce shard-dependent rounding — but this is
    /// the byte image the wire accounting charges for, and no runtime
    /// decodes it.)
    ///
    /// Headers first, sums after: the sums then form one packed array
    /// in which byte `k` of every sum sits at one offset modulo
    /// [`PartialSum::PAYLOAD_STRIDE`] — the byte planes
    /// [`PsumCodec`](fedsz_lossless::PsumCodec) codes. A header between
    /// two tensors would shift that phase, and every plane would mix
    /// noise bytes with exponent bytes.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_payload_into(&mut out);
        out
    }

    /// [`PartialSum::encode_payload`] into a caller-owned buffer
    /// (cleared first), so per-frame pricing can reuse one allocation
    /// across nodes and rounds.
    pub fn encode_payload_into(&self, out: &mut Vec<u8>) {
        out.clear();
        // A reset/pooled buffer with zeroed entries is semantically the
        // empty sum: ship the canonical empty image, not model-sized
        // zeros.
        if self.is_empty() {
            write_uvarint(out, 0);
            return;
        }
        out.reserve(self.total_elements() * Self::PAYLOAD_STRIDE + 64);
        self.write_headers(out);
        for (_, _, accs) in &self.entries {
            let start = out.len();
            out.resize(start + accs.len() * Self::PAYLOAD_STRIDE, 0);
            let (sums, _) = out[start..].as_chunks_mut::<{ Self::PAYLOAD_STRIDE }>();
            ExactAcc::read_slice(accs, sums, |v| v.to_le_bytes());
        }
    }

    /// The entry count, then every entry's name, rank and dimensions:
    /// the head of both images.
    fn write_headers(&self, out: &mut Vec<u8>) {
        write_uvarint(out, self.entries.len() as u64);
        for (name, shape, _) in &self.entries {
            write_str(out, name);
            write_shape(out, shape);
        }
    }

    /// Reads what [`PartialSum::write_headers`] wrote, as `(name,
    /// shape, element count)` per entry plus the element count of them
    /// all. Header-claimed sizes bound allocations *before* anything
    /// reserves for them: the entries must fit the remaining input at
    /// [`PartialSum::EXACT_STRIDE`] bytes per element, so a corrupt
    /// image fails with a `CodecError`, not with a terabyte
    /// `with_capacity` aborting in the allocator.
    fn read_headers(bytes: &[u8], pos: &mut usize) -> Result<(Vec<EntryHeader>, usize)> {
        let count = read_uvarint(bytes, pos)? as usize;
        if count > bytes.len().saturating_sub(*pos) {
            return Err(CodecError::Corrupt("entry count larger than remaining input"));
        }
        let mut headers = Vec::with_capacity(count);
        let mut total = 0usize;
        for _ in 0..count {
            let name = read_str(bytes, pos)?.to_owned();
            let (shape, elems) = read_shape(bytes, pos)?;
            total = total.checked_add(elems).ok_or(CodecError::Corrupt("shape overflow"))?;
            headers.push((name, shape, elems));
        }
        if total > bytes.len().saturating_sub(*pos) / Self::EXACT_STRIDE {
            return Err(CodecError::Corrupt("tensors larger than remaining input"));
        }
        Ok((headers, total))
    }

    /// Serializes the *exact* accumulator state — the 128-bit
    /// fixed-point integers themselves, not their `f64` roundings — so
    /// a partial sum can cross a process boundary and be merged by the
    /// receiver with the same bits an in-process merge produces: the
    /// entry headers, every entry's accumulators back to back (one
    /// packed array, as in [`PartialSum::encode_payload`]), the weight
    /// accumulator and the contribution count.
    ///
    /// This is what a real relay aggregator ships upstream (see
    /// [`crate::net`]): [`PartialSum::encode_payload`] rounds each
    /// accumulator to `f64`, which is fine for byte *accounting* but
    /// would re-introduce shard-dependent rounding if a remote parent
    /// re-quantized the rounded sums. At 16 bytes per element the exact
    /// image is 2x the `f64` one; the lossless psum codec claws most of
    /// that back (the high bytes are sign extension).
    pub fn encode_exact(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_exact_into(&mut out);
        out
    }

    /// [`PartialSum::encode_exact`] into a caller-owned buffer (cleared
    /// first), the relay path's per-round reusable variant.
    pub fn encode_exact_into(&self, out: &mut Vec<u8>) {
        out.clear();
        // Canonical empty image for reset/pooled buffers (zeroed
        // entries are semantically the empty sum) — byte-identical to
        // encoding a fresh `PartialSum::new()`.
        if self.is_empty() {
            write_uvarint(out, 0);
            out.extend_from_slice(&ExactAcc::default().to_bits().to_le_bytes());
            write_uvarint(out, 0);
            return;
        }
        out.reserve(self.total_elements() * Self::EXACT_STRIDE + 64);
        self.write_headers(out);
        for (_, _, accs) in &self.entries {
            for acc in accs {
                out.extend_from_slice(&acc.to_bits().to_le_bytes());
            }
        }
        out.extend_from_slice(&self.weight.to_bits().to_le_bytes());
        write_uvarint(out, self.contributions as u64);
    }

    /// The longest [`PartialSum::encode_exact`] image a sum over
    /// `template`'s architecture can have, whatever it accumulated: what
    /// a receiver lets a compressed frame declare before it allocates
    /// for it.
    pub fn max_exact_image_len(template: &StateDict) -> usize {
        let entries: usize = template
            .iter()
            .map(|(name, tensor)| {
                let dims: usize = tensor.shape().iter().map(|&d| uvarint_len(d as u64)).sum();
                uvarint_len(name.len() as u64)
                    + name.len()
                    + uvarint_len(tensor.shape().len() as u64)
                    + dims
                    + tensor.len() * Self::EXACT_STRIDE
            })
            .sum();
        // Entry count, entries, the weight accumulator, and a
        // contribution count of any size.
        uvarint_len(template.len() as u64) + entries + Self::EXACT_STRIDE + uvarint_len(u64::MAX)
    }

    /// Parses an [`PartialSum::encode_exact`] image back into a
    /// mergeable partial sum, bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or malformed input
    /// (size claims are validated before any allocation).
    pub fn decode_exact(bytes: &[u8]) -> Result<PartialSum> {
        let mut pos = 0usize;
        let (headers, total) = Self::read_headers(bytes, &mut pos)?;
        let (arrays, trailer) = bytes[pos..].split_at(total * Self::EXACT_STRIDE);
        let acc_of = |raw: &[u8]| {
            ExactAcc::from_bits(i128::from_le_bytes(raw.try_into().expect("a whole element")))
        };
        let mut accs = arrays.chunks_exact(Self::EXACT_STRIDE).map(acc_of);
        let entries: Vec<_> = headers
            .into_iter()
            .map(|(name, shape, elems)| (name, shape, accs.by_ref().take(elems).collect()))
            .collect();
        let weight = acc_of(trailer.get(..Self::EXACT_STRIDE).ok_or(CodecError::UnexpectedEof)?);
        let mut pos = Self::EXACT_STRIDE;
        let contributions = read_uvarint(trailer, &mut pos)? as usize;
        if pos != trailer.len() {
            return Err(CodecError::Corrupt("trailing bytes in partial-sum payload"));
        }
        if contributions == 0 && !entries.is_empty() {
            return Err(CodecError::Corrupt("non-empty partial sum with zero contributions"));
        }
        Ok(PartialSum { entries, weight, contributions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::TreePlan;
    use fedsz_codec::simd::Kernel;
    use fedsz_tensor::rng::{normal, seeded};
    use proptest::prelude::*;

    /// What the readout replaced: the `i128` cast, then the grid scale.
    fn cast(x: i128) -> f64 {
        x as f64 * GRID
    }

    /// `f` over `accs` by each copy of the [`Readout`] kernel the host
    /// runs: the build target's, and AVX2's where the CPU has it.
    fn both_copies<T: Copy + Default>(
        accs: &[ExactAcc],
        f: impl Fn(f64) -> T + Copy,
    ) -> Vec<Vec<T>> {
        let mut target = vec![T::default(); accs.len()];
        Readout { accs, out: &mut target, f }.run();
        let mut avx2 = vec![T::default(); accs.len()];
        if fedsz_codec::simd::avx2(Readout { accs, out: &mut avx2, f }).is_none() {
            println!("skipped the readout's AVX2 copy: this host has no AVX2");
            return vec![target];
        }
        vec![target, avx2]
    }

    /// Holds `value`, both copies of the readout kernel and, inside its
    /// range, the unscaled split to the cast on every element of `xs`,
    /// bit for bit.
    fn assert_reads_as_the_cast(xs: &[i128]) {
        let accs: Vec<ExactAcc> = xs.iter().map(|&x| ExactAcc::from_bits(x)).collect();
        let copies = both_copies(&accs, |v| v.to_bits());
        for (i, &x) in xs.iter().enumerate() {
            let want = cast(x).to_bits();
            assert_eq!(accs[i].value().to_bits(), want, "value of {x}");
            for read in &copies {
                assert_eq!(read[i], want, "readout of {x} at {i}");
            }
            let inside = (-(1i128 << 103)..1i128 << 103).contains(&x);
            let (low, high) = accs[i].words();
            assert_eq!(outside_split(high) == 0, inside, "range test of {x}");
            if inside {
                assert_eq!(split(low, high).to_bits(), (x as f64).to_bits(), "split of {x}");
            }
        }
    }

    #[test]
    fn readout_matches_the_cast_at_every_edge() {
        let mut xs = vec![0, 1, -1, i128::MIN, i128::MAX, i128::MIN + 1, i128::MAX - 1];
        // ±(2^k + d): every carry and borrow across the 52-bit split.
        for k in 0..127 {
            for d in -3..=3 {
                let x = (1i128 << k) + d;
                xs.extend([x, -x]);
            }
        }
        // Round-half-even ties at every exponent from 2^53 up, both
        // ways (even mantissa down, odd up) and carrying into the next
        // binade.
        for e in 53..127 {
            let (ulp, half) = (1i128 << (e - 52), 1i128 << (e - 53));
            let base = 1i128 << e;
            for x in [base + half, base + ulp + half, base + 3 * ulp + half] {
                xs.extend([x, -x]);
            }
            if e < 126 {
                let top = (base << 1) - half;
                xs.extend([top, -top]);
            }
        }
        // Both sides of the switch to the cast.
        for d in -3..=3 {
            xs.extend([(1i128 << 103) + d, -(1i128 << 103) + d]);
        }
        assert_reads_as_the_cast(&xs);
    }

    proptest! {
        #[test]
        fn readout_matches_the_cast_on_random_bits(
            words in proptest::collection::vec((any::<u64>(), any::<u64>(), 0u32..128), 1..40),
        ) {
            let xs: Vec<i128> = words
                .iter()
                .map(|&(hi, lo, shift)| (i128::from(hi as i64) << 64 | i128::from(lo)) >> shift)
                .collect();
            assert_reads_as_the_cast(&xs);
        }
    }

    /// A three-entry leaf sum with out-of-range accumulators planted
    /// among in-range ones, first, last and in between.
    fn planted_sum() -> PartialSum {
        let rng = &mut seeded(3);
        let mut sum = PartialSum::new();
        for client in 0..5 {
            let mut sd = StateDict::new();
            for (name, len) in [("a.weight", 37), ("a.bias", 1), ("b.weight", 70)] {
                let values = (0..len).map(|_| 0.05 * normal(rng)).collect();
                sd.insert(name, Tensor::from_vec(vec![len], values));
            }
            sum.accumulate(&sd, 1.0 + f64::from(client));
        }
        let planted =
            [i128::MAX, i128::MIN, 1 << 103, -(1 << 103) - 1, (1 << 110) + 12345, -(1 << 120) - 7];
        let entries = &mut sum.entries;
        entries[0].2[0] = ExactAcc::from_bits(planted[0]);
        entries[0].2[36] = ExactAcc::from_bits(planted[1]);
        entries[1].2[0] = ExactAcc::from_bits(planted[2]);
        for (i, &x) in planted[3..].iter().enumerate() {
            entries[2].2[3 + 31 * i] = ExactAcc::from_bits(x);
        }
        // In range, next to the switch.
        entries[2].2[1] = ExactAcc::from_bits((1 << 103) - 1);
        entries[2].2[2] = ExactAcc::from_bits(-(1 << 103));
        sum
    }

    #[test]
    fn finish_and_payload_readout_matches_the_cast_on_planted_accumulators() {
        let sum = planted_sum();
        let total = cast(sum.weight.to_bits());
        let global = sum.finish().unwrap();
        let mut payload = Vec::new();
        sum.encode_payload_into(&mut payload);
        let headers = payload.len() - sum.total_elements() * PartialSum::PAYLOAD_STRIDE;
        let mut sums = payload[headers..].chunks_exact(PartialSum::PAYLOAD_STRIDE);
        for (name, _, accs) in &sum.entries {
            let finished = both_copies(accs, |v| (v / total) as f32);
            let images = both_copies(accs, |v| v.to_le_bytes());
            let data = global.get(name).unwrap().data();
            for (i, acc) in accs.iter().enumerate() {
                let x = acc.to_bits();
                let want = ((cast(x) / total) as f32).to_bits();
                assert_eq!(data[i].to_bits(), want, "`{name}` finish of {x}");
                for copy in &finished {
                    assert_eq!(copy[i].to_bits(), want, "`{name}` finish kernel of {x}");
                }
                let want = cast(x).to_le_bytes();
                assert_eq!(sums.next().unwrap(), want, "`{name}` payload of {x}");
                for copy in &images {
                    assert_eq!(copy[i], want, "`{name}` payload kernel of {x}");
                }
            }
        }
        assert!(sums.next().is_none());
    }

    /// `finish` as it read before the split: one cast per accumulator.
    fn cast_finish(sum: &PartialSum) -> StateDict {
        let total = cast(sum.weight.to_bits());
        let mut out = StateDict::new();
        for (name, shape, accs) in &sum.entries {
            let data = accs.iter().map(|a| (cast(a.to_bits()) / total) as f32).collect();
            out.insert(name.clone(), Tensor::from_vec(shape.clone(), data));
        }
        out
    }

    /// `finish` on one leaf sum of 128 tiny-AlexNet-sized updates
    /// (72,042 elements), against the cast loop it replaced
    /// ([`fedsz_codec::speed::gate`]); release mode only. Over 10 runs on
    /// a 2-core Xeon the median read 4.25-4.64x (median 4.29x); floor
    /// 2.5x.
    #[test]
    #[ignore = "a timing ratio: run with --release -- --ignored"]
    fn split_readout_finish_is_2_5x_the_cast_loop() {
        let rng = &mut seeded(25);
        let updates: Vec<StateDict> = (0..8)
            .map(|_| dict(&(0..72_042).map(|_| 0.05 * normal(rng)).collect::<Vec<_>>()))
            .collect();
        let mut sum = PartialSum::new();
        for client in 0..128 {
            sum.accumulate(&updates[client % updates.len()], 1.0 + (client % 7) as f64);
        }
        assert_eq!(sum.finish().unwrap().to_bytes(), cast_finish(&sum).to_bytes());
        fedsz_codec::speed::gate(
            "PartialSum::finish, split readout against the cast loop",
            2.5,
            || sum.finish().unwrap(),
            || cast_finish(&sum),
        );
    }

    fn dict(values: &[f32]) -> StateDict {
        let mut sd = StateDict::new();
        sd.insert("w.weight", Tensor::from_vec(vec![values.len()], values.to_vec()));
        sd
    }

    #[test]
    fn quantize_is_exact_for_weight_scale_values() {
        // Exactness needs every mantissa bit on or above the 2^-80
        // grid, which holds for all weight-scale magnitudes (an f32
        // promoted to f64 keeps a 24-bit mantissa, so even 1e-6-scale
        // values bottom out near 2^-44).
        for v in [1.0f64, -1.0, 0.5, 3.75, f64::from(-1e-6f32), 123.456, 2f64.powi(-40)] {
            let mut acc = ExactAcc::default();
            acc.add(v);
            assert_eq!(acc.value(), v, "value {v} should round-trip exactly");
        }
    }

    #[test]
    fn tiny_terms_truncate_deterministically() {
        // Magnitude below the 2^-80 grid vanishes — by design, and
        // deterministically (2^-80 is far beneath any f32 weight's
        // contribution to an average).
        let mut acc = ExactAcc::default();
        acc.add(1e-40);
        assert_eq!(acc.value(), 0.0);
        acc.add(f64::from(f32::MIN_POSITIVE));
        assert_eq!(acc.value(), 0.0);
        // Partially representable terms keep their on-grid part.
        let mut partial = ExactAcc::default();
        partial.add(1.0 + 2f64.powi(-100));
        assert_eq!(partial.value(), 1.0);
    }

    #[test]
    #[should_panic(expected = "fixed-point range")]
    fn huge_terms_rejected() {
        let mut acc = ExactAcc::default();
        acc.add(1e30);
    }

    #[test]
    fn accumulation_is_grouping_invariant() {
        // The property the whole tree rests on: any grouping of the same
        // terms produces the same bits.
        let terms: Vec<f64> =
            (0..257).map(|i| ((i * 2654435761u64 as usize) as f64).sin() * 0.37).collect();
        let mut flat = ExactAcc::default();
        for &t in &terms {
            flat.add(t);
        }
        for split in [1usize, 2, 7, 100, 256] {
            let mut left = ExactAcc::default();
            let mut right = ExactAcc::default();
            for &t in &terms[..split] {
                left.add(t);
            }
            for &t in &terms[split..] {
                right.add(t);
            }
            left = left.checked_merge(right).unwrap();
            assert_eq!(left, flat, "split at {split} changed the sum");
        }
    }

    #[test]
    fn partial_sum_matches_manual_average() {
        let mut sum = PartialSum::new();
        sum.accumulate(&dict(&[1.0, 2.0]), 1.0);
        sum.accumulate(&dict(&[3.0, 6.0]), 1.0);
        let avg = sum.finish().unwrap();
        assert_eq!(avg.get("w.weight").unwrap().data(), &[2.0, 4.0]);
        assert_eq!(sum.contributions(), 2);
    }

    #[test]
    fn partial_sum_merge_is_shard_invariant() {
        let dicts: Vec<StateDict> =
            (0..13).map(|i| dict(&[(i as f32).sin(), 0.01 * i as f32, -1.7])).collect();
        let mut flat = PartialSum::new();
        for (i, d) in dicts.iter().enumerate() {
            flat.accumulate(d, 1.0 + i as f64);
        }
        let flat_bytes = flat.finish().unwrap().to_bytes();
        for shards in [1usize, 2, 5, 13] {
            let plan = TreePlan::new(dicts.len(), vec![shards]);
            let mut root = PartialSum::new();
            for s in 0..shards {
                let mut partial = PartialSum::new();
                for c in plan.leaf_range(s) {
                    partial.accumulate(&dicts[c], 1.0 + c as f64);
                }
                root.merge_from(&partial).unwrap();
            }
            assert_eq!(
                root.finish().unwrap().to_bytes(),
                flat_bytes,
                "{shards} shards changed the model"
            );
        }
    }

    #[test]
    fn empty_partial_sum_finishes_to_none() {
        assert!(PartialSum::new().finish().is_none());
        let mut sum = PartialSum::new();
        sum.merge_from(&PartialSum::new()).unwrap();
        assert!(sum.is_empty());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mismatched_shapes_rejected() {
        let mut sum = PartialSum::new();
        sum.accumulate(&dict(&[1.0, 2.0]), 1.0);
        sum.accumulate(&dict(&[1.0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "entry count differs")]
    fn extra_entries_rejected() {
        let mut sum = PartialSum::new();
        sum.accumulate(&dict(&[1.0, 2.0]), 1.0);
        let mut extra = dict(&[1.0, 2.0]);
        extra.insert("extra", Tensor::from_vec(vec![1], vec![3.0]));
        sum.accumulate(&extra, 1.0);
    }

    #[test]
    fn corrupt_payload_size_claims_rejected_before_allocating() {
        use fedsz_codec::varint::{write_str, write_uvarint};
        // An absurd entry-count claim must error, not abort in the
        // allocator.
        let mut huge_count = Vec::new();
        write_uvarint(&mut huge_count, u64::MAX >> 1);
        assert!(PartialSum::decode_exact(&huge_count).is_err());
        // Same for a single entry claiming a terabyte-scale dimension.
        let mut giant_dim = Vec::new();
        write_uvarint(&mut giant_dim, 1);
        write_str(&mut giant_dim, "w.weight");
        write_uvarint(&mut giant_dim, 1);
        write_uvarint(&mut giant_dim, 1 << 40);
        assert!(PartialSum::decode_exact(&giant_dim).is_err());
    }

    #[test]
    fn exact_payload_round_trips_the_accumulator_bits() {
        // A partial sum shipped through `encode_exact` and merged
        // remotely must be indistinguishable from an in-process merge —
        // the property the multi-process relay path rests on.
        let dicts: Vec<StateDict> =
            (0..9).map(|i| dict(&[(i as f32).sin() * 0.3, -0.07 * i as f32])).collect();
        let mut local = PartialSum::new();
        let mut left = PartialSum::new();
        let mut right = PartialSum::new();
        for (i, d) in dicts.iter().enumerate() {
            local.accumulate(d, 1.0 + i as f64);
            if i < 4 {
                left.accumulate(d, 1.0 + i as f64)
            } else {
                right.accumulate(d, 1.0 + i as f64)
            }
        }
        let mut remote = PartialSum::decode_exact(&left.encode_exact()).unwrap();
        remote.merge_from(&PartialSum::decode_exact(&right.encode_exact()).unwrap()).unwrap();
        assert_eq!(remote.contributions(), local.contributions());
        assert_eq!(remote.weight_total().to_bits(), local.weight_total().to_bits());
        assert_eq!(
            remote.finish().unwrap().to_bytes(),
            local.finish().unwrap().to_bytes(),
            "remote merge must be bit-identical to the in-process merge"
        );
        // Truncation and trailing garbage are rejected.
        let image = local.encode_exact();
        assert!(PartialSum::decode_exact(&image[..image.len() - 1]).is_err());
        let mut long = image.clone();
        long.push(0);
        assert!(PartialSum::decode_exact(&long).is_err());
        // The template-derived bound covers the image, the empty one
        // too, with only the contribution count's varint to spare.
        let bound = PartialSum::max_exact_image_len(&dicts[0]);
        assert!((image.len()..image.len() + 10).contains(&bound), "{bound} vs {}", image.len());
        assert!(PartialSum::new().encode_exact().len() <= bound);
    }

    #[test]
    fn payload_round_trips() {
        // The priced image is the exact image's headers followed by the
        // `f64`-rounded sums, one packed little-endian array.
        let mut sum = PartialSum::new();
        sum.accumulate(&dict(&[0.25, -3.5, 11.0]), 2.0);
        let payload = sum.encode_payload();
        let exact = sum.encode_exact();
        let headers = payload.len() - 3 * PartialSum::PAYLOAD_STRIDE;
        assert_eq!(payload[..headers], exact[..headers]);
        let sums: Vec<f64> = payload[headers..]
            .chunks_exact(PartialSum::PAYLOAD_STRIDE)
            .map(|raw| f64::from_le_bytes(raw.try_into().unwrap()))
            .collect();
        assert_eq!(sums, vec![0.5, -7.0, 22.0]);
    }

    #[test]
    fn batched_kernel_matches_scalar_add_bit_for_bit() {
        // Values spanning every kernel branch: fast-path normals, exact
        // zeros, f32 subnormals, values whose weighted product goes
        // subnormal, and magnitudes just under the 2^47 panic ceiling.
        let values: Vec<f32> = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.127,
            -3.75e4,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1.0e-45, // f32 subnormal
            1.0e38,
            -1.0e38,
            6.5e-30,
        ];
        for weight in [1.0, 1.0 / 3.0, 7.25e-9, 1.0e-290, 1.0e8] {
            let mut batched = vec![ExactAcc::default(); values.len()];
            let mut scalar = vec![ExactAcc::default(); values.len()];
            // Skip weight/value combos the scalar path rejects; the
            // panic-parity test below covers those.
            if values.iter().any(|&v| (weight * f64::from(v)).abs() >= 2f64.powi(47)) {
                continue;
            }
            ExactAcc::add_slice(&mut batched, &values, weight);
            for (acc, &v) in scalar.iter_mut().zip(&values) {
                acc.add(weight * f64::from(v));
            }
            for (b, s) in batched.iter().zip(&scalar) {
                assert_eq!(b.to_bits(), s.to_bits(), "weight {weight:e}");
            }
        }
    }

    #[test]
    fn batched_kernel_handles_threshold_magnitudes() {
        // Just under the 2^47 ceiling quantizes; the fast-path bound
        // (biased exponent 1069, shift 74) is inclusive.
        let below = (2f64.powi(47) - 2f64.powi(20)) as f32;
        let mut accs = vec![ExactAcc::default()];
        ExactAcc::add_slice(&mut accs, &[below], 0.99);
        let mut scalar = ExactAcc::default();
        scalar.add(0.99 * f64::from(below));
        assert_eq!(accs[0].to_bits(), scalar.to_bits());
    }

    #[test]
    #[should_panic(expected = "fixed-point range")]
    fn batched_kernel_keeps_the_range_panic() {
        let mut accs = vec![ExactAcc::default()];
        ExactAcc::add_slice(&mut accs, &[1.0e30], 1.0e30);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn batched_kernel_keeps_the_finite_panic() {
        let mut accs = vec![ExactAcc::default()];
        ExactAcc::add_slice(&mut accs, &[f32::INFINITY], 1.0);
    }

    #[test]
    fn try_merge_slice_rolls_back_exactly() {
        let mut dst = vec![
            ExactAcc::from_bits(7),
            ExactAcc::from_bits(i128::MAX - 1),
            ExactAcc::from_bits(3),
        ];
        let src = vec![ExactAcc::from_bits(5), ExactAcc::from_bits(9), ExactAcc::from_bits(1)];
        let before: Vec<i128> = dst.iter().map(|a| a.to_bits()).collect();
        assert!(!ExactAcc::try_merge_slice(&mut dst, &src), "middle element must overflow");
        let after: Vec<i128> = dst.iter().map(|a| a.to_bits()).collect();
        assert_eq!(before, after, "failed merge must restore every element");
        let ok = vec![ExactAcc::from_bits(1); 3];
        assert!(ExactAcc::try_merge_slice(&mut dst, &ok));
        assert_eq!(dst[0].to_bits(), 8);
    }

    /// The checked merge of a remote frame: an overflow leaves the
    /// target untouched, and a sane frame still merges afterwards.
    #[test]
    fn try_merge_overflow_leaves_self_untouched() {
        let mut near_max = PartialSum::new();
        near_max.accumulate(&dict(&[1.0, 2.0, 3.0]), 1.0);
        // Push a mid-entry accumulator to the ceiling so the in-place
        // commit overflows after a prefix has already landed.
        near_max.entries[0].2[1] = ExactAcc::from_bits(i128::MAX - 1);
        let before = near_max.encode_exact();

        let mut hostile = PartialSum::new();
        hostile.accumulate(&dict(&[4.0, 5.0, 6.0]), 1.0);
        assert!(near_max.merge_from(&hostile).is_err());
        assert_eq!(near_max.encode_exact(), before, "failed merge must not corrupt the partial");

        // A sane frame still merges afterwards.
        hostile.entries[0].2[1] = ExactAcc::from_bits(0);
        assert!(near_max.merge_from(&hostile).is_ok());
    }

    #[test]
    fn reset_recycles_the_buffer_without_moving_bits() {
        let mut pooled = PartialSum::new();
        pooled.accumulate(&dict(&[1.0, 2.0, 3.0]), 2.0);
        pooled.reset();
        assert!(pooled.is_empty());
        assert_eq!(pooled.weight_total(), 0.0);

        // Recycled accumulate must equal a fresh one bit-for-bit.
        let mut fresh = PartialSum::new();
        for sum in [&mut pooled, &mut fresh] {
            sum.accumulate(&dict(&[0.5, -0.25, 9.0]), 3.0);
        }
        assert_eq!(pooled.finish().unwrap().to_bytes(), fresh.finish().unwrap().to_bytes());

        // A recycled buffer accepts a *different* layout by rebuilding.
        pooled.reset();
        let mut other_arch = StateDict::new();
        other_arch.insert("b.bias", Tensor::from_vec(vec![2], vec![1.0, -1.0]));
        pooled.accumulate(&other_arch, 1.0);
        assert_eq!(pooled.finish().unwrap().get("b.bias").unwrap().data(), &[1.0, -1.0]);
    }

    /// A two-entry dict: `a`, then `b`.
    fn pair(a: &[f32], b: &[f32]) -> StateDict {
        let mut out = StateDict::new();
        out.insert("a", Tensor::from_vec(vec![a.len()], a.to_vec()));
        out.insert("b", Tensor::from_vec(vec![b.len()], b.to_vec()));
        out
    }

    #[test]
    fn merge_from_gives_the_same_bits_into_every_kind_of_target() {
        let (da, db) = (pair(&[1.0, 2.0], &[3.0]), pair(&[-0.5, 0.25], &[7.0]));
        let (mut a, mut b) = (PartialSum::new(), PartialSum::new());
        a.accumulate(&da, 1.5);
        b.accumulate(&db, 2.5);
        let mut want = PartialSum::new();
        want.accumulate(&da, 1.5);
        want.accumulate(&db, 2.5);
        let want = want.encode_exact();
        // Recycled with the same layout (merged in place), fresh, and
        // recycled with another layout (both rebuilt by cloning).
        let mut recycled = a.clone();
        recycled.reset();
        let mut stale = PartialSum::new();
        stale.accumulate(&pair(&[9.0], &[9.0, 9.0]), 1.0);
        stale.reset();
        for (kind, mut target) in
            [("recycled", recycled), ("fresh", PartialSum::new()), ("stale", stale)]
        {
            target.merge_from(&PartialSum::new()).unwrap();
            assert!(target.is_empty(), "an empty other is a no-op on a {kind} target");
            target.merge_from(&a).unwrap();
            target.merge_from(&b).unwrap();
            assert_eq!(target.encode_exact(), want, "{kind} target");
        }
    }

    #[test]
    fn merge_from_overflow_leaves_the_target_bit_identical() {
        let mut target = PartialSum::new();
        target.accumulate(&pair(&[1.0, 2.0, 3.0], &[4.0, 5.0]), 1.0);
        let mut other = PartialSum::new();
        other.accumulate(&pair(&[1.0; 3], &[1.0; 2]), 1.0);
        // The weight, then the k-th accumulator at the ceiling: every
        // accumulator before k has landed when k overflows.
        for at in [None, Some((0, 0)), Some((0, 2)), Some((1, 0)), Some((1, 1))] {
            let mut near_max = target.clone();
            match at {
                None => near_max.weight = ExactAcc::from_bits(i128::MAX),
                Some((e, k)) => near_max.entries[e].2[k] = ExactAcc::from_bits(i128::MAX - 1),
            }
            let before = near_max.encode_exact();
            assert!(near_max.merge_from(&other).is_err(), "{at:?} must overflow");
            assert_eq!(near_max.encode_exact(), before, "the overflow at {at:?} moved a bit");
        }
        target.merge_from(&other).unwrap();
        assert_eq!(target.contributions(), 2, "a sane sum still merges");
    }

    #[test]
    #[should_panic(expected = "partial-sum overflow")]
    fn merge_slice_asserts_on_overflow() {
        let mut dst = [ExactAcc::from_bits(7), ExactAcc::from_bits(i128::MAX)];
        ExactAcc::merge_slice(&mut dst, &[ExactAcc::from_bits(1); 2]);
    }

    #[test]
    fn merge_from_refuses_a_layout_mismatch() {
        let mut target = PartialSum::new();
        target.accumulate(&pair(&[1.0, 2.0], &[3.0, 4.0]), 1.0);
        let before = target.encode_exact();
        let mut reordered = StateDict::new();
        reordered.insert("b", Tensor::from_vec(vec![2], vec![1.0, 2.0]));
        reordered.insert("a", Tensor::from_vec(vec![2], vec![3.0, 4.0]));
        for d in [reordered, pair(&[1.0], &[2.0, 3.0, 4.0]), dict(&[1.0, 2.0, 3.0, 4.0])] {
            let mut other = PartialSum::new();
            other.accumulate(&d, 1.0);
            assert!(target.merge_from(&other).is_err());
            assert_eq!(target.encode_exact(), before);
        }
    }
}
