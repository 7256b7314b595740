//! Dense `f32` tensors for the FedSZ reproduction.
//!
//! A deliberately small tensor library: row-major dense storage, shape
//! arithmetic, the elementwise/matrix operations the neural-network crate
//! needs, and seeded random initializers. FedSZ itself only ever sees
//! tensors through flattened `&[f32]` views (Algorithm 1 flattens every
//! state-dict entry before compression), which [`Tensor::data`] provides.
//!
//! # Examples
//!
//! ```
//! use fedsz_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rng;

use fedsz_codec::simd::{self, Kernel};
use std::fmt;

/// A dense, row-major `f32` tensor.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}, len={})", self.shape, self.data.len())
    }
}

impl Tensor {
    /// Creates a tensor of zeros.
    ///
    /// # Panics
    ///
    /// Panics if the shape's element count overflows `usize`.
    pub fn zeros(shape: Vec<usize>) -> Self {
        let n = element_count(&shape);
        Self { shape, data: vec![0.0; n] }
    }

    /// Creates a tensor filled with `value`.
    pub fn filled(shape: Vec<usize>, value: f32) -> Self {
        let n = element_count(&shape);
        Self { shape, data: vec![value; n] }
    }

    /// Creates a tensor of ones.
    pub fn ones(shape: Vec<usize>) -> Self {
        Self::filled(shape, 1.0)
    }

    /// Creates the `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(vec![n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Wraps existing data in a tensor.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Self {
        assert_eq!(
            element_count(&shape),
            data.len(),
            "shape {shape:?} does not match data length {}",
            data.len()
        );
        Self { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flattened element view (row-major), as consumed by the compressors.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flattened element view.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns a reshaped copy sharing no storage.
    ///
    /// # Panics
    ///
    /// Panics if the new shape's element count differs.
    pub fn reshaped(&self, shape: Vec<usize>) -> Self {
        assert_eq!(element_count(&shape), self.data.len(), "reshape must preserve element count");
        Self { shape, data: self.data.clone() }
    }

    /// Reinterprets the shape in place.
    ///
    /// # Panics
    ///
    /// Panics if the new shape's element count differs.
    pub fn reshape(&mut self, shape: Vec<usize>) {
        assert_eq!(element_count(&shape), self.data.len(), "reshape must preserve element count");
        self.shape = shape;
    }

    /// Element at a 2D index.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2D or the index is out of bounds.
    #[inline]
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[i * self.shape[1] + j]
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self { shape: self.shape.clone(), data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// In-place elementwise update.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Elementwise addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Self {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, other: &Tensor) -> Self {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise multiplication.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn mul(&self, other: &Tensor) -> Self {
        self.zip(other, |a, b| a * b)
    }

    /// Elementwise combine with `f`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {:?} vs {:?}",
            self.shape, other.shape
        );
        Self {
            shape: self.shape.clone(),
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// `self += alpha * other`, the FedAvg/SGD workhorse.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {:?} vs {:?}",
            self.shape, other.shape
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `s`.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Sum of all elements (accumulated in f64).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&v| f64::from(v)).sum()
    }

    /// Index of the largest element (ties broken by first occurrence);
    /// `None` for empty tensors.
    pub fn argmax(&self) -> Option<usize> {
        if self.data.is_empty() {
            return None;
        }
        let mut best = 0usize;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// Matrix product of two 2D tensors: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// Each output row starts at `+0.0` and takes `out += l * rhs_row`
    /// for every lhs entry `l` of its row, `p` ascending. An entry equal
    /// to zero (`+0.0` or `-0.0`; NaN is not) is *skipped*, not
    /// multiplied, so `0 * inf` never turns an output into NaN and a row
    /// of zeros leaves `+0.0`.
    ///
    /// The skip is an index list ([`nonzero_positions`]), not a branch
    /// per entry: after ReLU half an lhs row is zero at random, and a
    /// branch on it mispredicts. The listed entries are then applied
    /// four at a time, `out = out + l0 * r0 + l1 * r1 + l2 * r2 + l3 * r3`
    /// evaluated left to right: each output element sees the same
    /// roundings in the same order as with one entry at a time, and its
    /// row is loaded and stored a quarter as often. On a CPU with AVX2
    /// the same loops run in their AVX2 copy, to the same bits
    /// ([`simd::dispatch`]).
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 2D with compatible inner dims.
    pub fn matmul(&self, other: &Tensor) -> Self {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be 2D");
        assert_eq!(other.shape.len(), 2, "matmul rhs must be 2D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dimensions differ: {k} vs {k2}");
        Self { shape: vec![m, n], data: simd::dispatch(MatMul { lhs: self, rhs: other }) }
    }

    /// `self.matmul(&rhs.transposed())` without the transpose:
    /// `[m, k] x [n, k]^T -> [m, n]`, to the same bits.
    ///
    /// A `Linear` layer's forward, whose weights are `[out, in]`:
    /// transposing them cost more than the product itself. Lanes run
    /// across 16 rows of `self`, each lane one output's sum, and the `k`
    /// terms go in ascending order as in [`Tensor::matmul`]. A zero
    /// entry of `self` cannot be skipped by one lane alone; its lane
    /// adds a zero instead, which leaves the sum as the skip would: the
    /// sum starts at `+0.0` and so is never `-0.0`. Where `0 * w` is
    /// not a zero (`w` infinite or NaN), the lane selects `+0.0`.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 2D with the same number of
    /// columns.
    pub fn matmul_transposed(&self, rhs: &Tensor) -> Self {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be 2D");
        assert_eq!(rhs.shape.len(), 2, "matmul rhs must be 2D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "matmul inner dimensions differ: {k} vs {k2}");
        Self { shape: vec![m, n], data: simd::dispatch(MatMulT { lhs: self, rhs }) }
    }

    /// Transpose of a 2D tensor.
    ///
    /// Copies one 16 x 16 block at a time, so that neither the reads nor
    /// the writes stride across the whole matrix.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is 2D.
    pub fn transposed(&self) -> Self {
        assert_eq!(self.shape.len(), 2, "transpose requires a 2D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i0 in (0..m).step_by(TILE) {
            for j0 in (0..n).step_by(TILE) {
                let cols = j0..n.min(j0 + TILE);
                for i in i0..m.min(i0 + TILE) {
                    let src = &self.data[i * n + cols.start..i * n + cols.end];
                    for (j, &v) in cols.clone().zip(src) {
                        out[j * m + i] = v;
                    }
                }
            }
        }
        Self { shape: vec![n, m], data: out }
    }

    /// Serializes shape + data as little-endian bytes (4 bytes/element).
    pub fn byte_size(&self) -> usize {
        self.data.len() * 4
    }
}

/// The side of the square blocks [`Tensor::transposed`] copies.
const TILE: usize = 16;

/// [`Tensor::matmul`]'s loops, compiled for the build target and for
/// AVX2 ([`simd::dispatch`]).
struct MatMul<'a> {
    lhs: &'a Tensor,
    rhs: &'a Tensor,
}

impl Kernel for MatMul<'_> {
    type Output = Vec<f32>;

    #[inline(always)]
    fn run(self) -> Vec<f32> {
        let (m, k, n) = (self.lhs.shape[0], self.lhs.shape[1], self.rhs.shape[1]);
        let rhs_row = |p: u32| &self.rhs.data[p as usize * n..][..n];
        let mut out = vec![0.0f32; m * n];
        let mut entries = vec![(0, 0.0); k];
        for i in 0..m {
            let lhs_row = &self.lhs.data[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            let live = nonzero_positions(lhs_row, &mut entries);
            let (quads, rest) = live.as_chunks::<4>();
            for &[(p0, l0), (p1, l1), (p2, l2), (p3, l3)] in quads {
                let rows = rhs_row(p0).iter().zip(rhs_row(p1)).zip(rhs_row(p2)).zip(rhs_row(p3));
                for (o, (((&r0, &r1), &r2), &r3)) in out_row.iter_mut().zip(rows) {
                    *o = *o + l0 * r0 + l1 * r1 + l2 * r2 + l3 * r3;
                }
            }
            for &(p, l) in rest {
                for (o, &r) in out_row.iter_mut().zip(rhs_row(p)) {
                    *o += l * r;
                }
            }
        }
        out
    }
}

/// Rows of the left operand one lane group of
/// [`Tensor::matmul_transposed`] carries: two AVX2 registers.
const ROWS: usize = 16;

/// Right-hand rows (outputs per left row) one block of
/// [`Tensor::matmul_transposed`] carries: twelve registers of sums, with
/// room left for the left column and a product.
const FEATURES: usize = 6;

/// [`Tensor::matmul_transposed`]'s loops, compiled for the build target
/// and for AVX2 ([`simd::dispatch`]).
struct MatMulT<'a> {
    lhs: &'a Tensor,
    rhs: &'a Tensor,
}

impl Kernel for MatMulT<'_> {
    type Output = Vec<f32>;

    #[inline(always)]
    fn run(self) -> Vec<f32> {
        let (k, n) = (self.lhs.shape[1], self.rhs.shape[0]);
        let mut out = vec![0.0f32; self.lhs.shape[0] * n];
        // One group of ROWS left rows, column by column; rows past `m`
        // stay zero and are never stored. With `k == 0` there is no
        // group, and every output stays `+0.0`.
        let mut cols = vec![[0.0f32; ROWS]; k];
        for (group, rows) in self.lhs.data.chunks(ROWS * k.max(1)).enumerate() {
            let live = rows.len() / k;
            for (r, row) in rows.chunks_exact(k).enumerate() {
                for (col, &v) in cols.iter_mut().zip(row) {
                    col[r] = v;
                }
            }
            for col in &mut cols {
                col[live..].fill(0.0);
            }
            let out = &mut out[group * ROWS * n..][..live * n];
            for (block, weights) in self.rhs.data.chunks(FEATURES * k).enumerate() {
                let first = block * FEATURES;
                let features = FEATURES.min(n - first);
                let sums = match features {
                    1 => dot_rows::<1>(&cols, weights),
                    2 => dot_rows::<2>(&cols, weights),
                    3 => dot_rows::<3>(&cols, weights),
                    4 => dot_rows::<4>(&cols, weights),
                    5 => dot_rows::<5>(&cols, weights),
                    _ => dot_rows::<FEATURES>(&cols, weights),
                };
                for (r, out) in out.chunks_exact_mut(n).enumerate() {
                    for (o, sum) in out[first..first + features].iter_mut().zip(&sums) {
                        *o = sum[r];
                    }
                }
            }
        }
        out
    }
}

/// The sums of `J` right rows (`weights`, `J * k` values) against each
/// lane's left row (`cols[p]` holds the lanes' entries `p`), padded to
/// [`FEATURES`] sums of which the first `J` count.
///
/// A lane whose left entry is zero must come out as if the term were
/// skipped. With every weight finite its product is `±0.0`, which
/// leaves the sum as it was: the sum is never `-0.0`. A block with an
/// infinite or NaN weight, where `0 * inf` would be NaN, selects `+0.0`
/// for those lanes instead, at the cost of one more operation per
/// product.
#[inline(always)]
fn dot_rows<const J: usize>(cols: &[[f32; ROWS]], weights: &[f32]) -> [[f32; ROWS]; FEATURES] {
    let k = cols.len();
    let mut rows: [&[f32]; J] = [&[]; J];
    for (j, row) in rows.iter_mut().enumerate() {
        *row = &weights[j * k..][..k];
    }
    let finite = weights[..J * k].iter().fold(true, |all, w| all & w.is_finite());
    let sums = if finite {
        dot_rows_with::<J, false>(cols, rows)
    } else {
        dot_rows_with::<J, true>(cols, rows)
    };
    let mut padded = [[0.0f32; ROWS]; FEATURES];
    padded[..J].copy_from_slice(&sums);
    padded
}

/// [`dot_rows`]' loop, with or without the select, returning its sums
/// by value so that LLVM keeps them in registers.
#[inline(always)]
fn dot_rows_with<const J: usize, const SELECT: bool>(
    cols: &[[f32; ROWS]],
    rows: [&[f32]; J],
) -> [[f32; ROWS]; J] {
    let mut sums = [[0.0f32; ROWS]; J];
    for (p, col) in cols.iter().enumerate() {
        for (sum, row) in sums.iter_mut().zip(&rows) {
            let w = row[p];
            for (s, &x) in sum.iter_mut().zip(col) {
                *s += if !SELECT || x != 0.0 { x * w } else { 0.0 };
            }
        }
    }
    sums
}

/// The position and value of each of `values`' entries that is not
/// equal to zero, ascending, written to the front of `entries` and
/// returned. `+0.0` and `-0.0` are left out, NaN is kept: the entries
/// `if v == 0.0 { continue }` would not skip. Panics if `entries` is
/// shorter than `values`, or `values` longer than a `u32` indexes.
///
/// Branch-free: every entry is written, and the write position advances
/// by `(v != 0.0) as usize`, so a row whose zeros fall at random (ReLU's
/// output, its gradient behind a max-pool) costs no mispredicted branch.
/// The writes go eight at a time into a fixed window, so the cursor is
/// bounds-checked once per eight values. The caller then runs its
/// unchanged per-entry work over the list, each value beside its
/// position instead of a load behind it.
pub fn nonzero_positions<'a>(values: &[f32], entries: &'a mut [(u32, f32)]) -> &'a [(u32, f32)] {
    const CHUNK: usize = 8;
    assert!(u32::try_from(values.len()).is_ok(), "more values than a u32 indexes");
    let entries = &mut entries[..values.len()];
    let mut len = 0;
    let (chunks, rest) = values.as_chunks::<CHUNK>();
    for (c, chunk) in chunks.iter().enumerate() {
        // The cursor within a chunk stays below `CHUNK`, which the mask
        // tells the compiler.
        let out: &mut [(u32, f32); CHUNK] = (&mut entries[len..len + CHUNK]).try_into().unwrap();
        let mut n = 0;
        for (j, &v) in chunk.iter().enumerate() {
            out[n & (CHUNK - 1)] = ((c * CHUNK + j) as u32, v);
            n += usize::from(v != 0.0);
        }
        len += n;
    }
    for (i, &v) in rest.iter().enumerate() {
        entries[len] = ((chunks.len() * CHUNK + i) as u32, v);
        len += usize::from(v != 0.0);
    }
    &entries[..len]
}

/// Product of the dims, panicking on overflow.
fn element_count(shape: &[usize]) -> usize {
    shape.iter().copied().fold(1usize, |acc, d| acc.checked_mul(d).expect("shape overflows usize"))
}

/// The loops [`Tensor::matmul`] and [`Tensor::transposed`] replaced,
/// kept as the oracles: they must match these to the bit.
#[cfg(test)]
mod reference {
    use super::Tensor;

    pub(crate) fn transposed(t: &Tensor) -> Tensor {
        let (m, n) = (t.shape[0], t.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = t.data[i * n + j];
            }
        }
        Tensor { shape: vec![n, m], data: out }
    }

    pub(crate) fn matmul(lhs: &Tensor, rhs: &Tensor) -> Tensor {
        let (m, k, n) = (lhs.shape[0], lhs.shape[1], rhs.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let lhs_row = &lhs.data[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (p, &l) in lhs_row.iter().enumerate() {
                if l == 0.0 {
                    continue;
                }
                let rhs_row = &rhs.data[p * n..(p + 1) * n];
                for (o, &r) in out_row.iter_mut().zip(rhs_row) {
                    *o += l * r;
                }
            }
        }
        Tensor { shape: vec![m, n], data: out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::time::Instant;

    /// Every bit of every element, except that all NaNs compare equal:
    /// Rust leaves the sign and payload of a NaN result unspecified
    /// (`inf + -inf` may come out either sign, depending on which
    /// operand the compiled add puts first), so two compilations of one
    /// loop may differ there and nowhere else.
    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() }).collect()
    }

    /// A tensor whose entries are drawn from `palette`, or a normal
    /// sample where the palette holds `None`.
    fn drawn(rng: &mut StdRng, shape: Vec<usize>, palette: &[Option<f32>]) -> Tensor {
        let n = element_count(&shape);
        let data = (0..n)
            .map(|_| palette[rng.gen_range(0..palette.len())].unwrap_or_else(|| rng::normal(rng)))
            .collect();
        Tensor::from_vec(shape, data)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Signed zeros, NaN and subnormals on the left, infinities and
        /// `-0.0` on the right: a zero that is multiplied instead of
        /// skipped turns `0 * inf` into NaN, and one that is skipped
        /// although NaN loses the NaN. `k` runs past any fixed-size
        /// buffer the index list could hide in.
        #[test]
        fn matmul_matches_the_branching_loop_bit_for_bit(
            (m, n) in (1usize..4, 1usize..6),
            k in prop_oneof![1usize..9, 190usize..260],
            seed in any::<u64>(),
        ) {
            let rng = &mut rng::seeded(seed);
            let subnormal = f32::MIN_POSITIVE / 8.0;
            let left = [Some(0.0), Some(-0.0), Some(0.0), Some(f32::NAN), Some(subnormal), None];
            let right =
                [None, None, Some(f32::INFINITY), Some(f32::NEG_INFINITY), Some(-0.0), Some(0.0)];
            let lhs = drawn(rng, vec![m, k], &left);
            let rhs = drawn(rng, vec![k, n], &right);
            let want = bits(&reference::matmul(&lhs, &rhs));
            let product = |data| Tensor::from_vec(vec![m, n], data);
            prop_assert_eq!(bits(&product(MatMul { lhs: &lhs, rhs: &rhs }.run())), want.clone());
            match simd::avx2(MatMul { lhs: &lhs, rhs: &rhs }) {
                Some(data) => prop_assert_eq!(bits(&product(data)), want),
                None => println!("skipped the AVX2 matmul: this host has no AVX2"),
            }
        }

        /// The transpose-free product against the branching loop on the
        /// transposed right side, both copies, on the palettes of
        /// `matmul_matches_the_branching_loop_bit_for_bit` (a zero left
        /// entry whose lane added `0 * inf` would read NaN) and on a
        /// finite right side, which takes the loop without the select.
        /// Row counts on both sides of a lane group, right sides on both
        /// sides of a block, subnormal products among the finite ones.
        #[test]
        fn matmul_transposed_matches_the_branching_loop_bit_for_bit(
            m in prop_oneof![1usize..4, 15usize..34],
            n in prop_oneof![1usize..4, 5usize..14],
            k in prop_oneof![0usize..9, 190usize..260],
            finite in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let rng = &mut rng::seeded(seed);
            let subnormal = f32::MIN_POSITIVE / 8.0;
            let left = [Some(0.0), Some(-0.0), Some(0.0), Some(f32::NAN), Some(subnormal), None];
            let right = if finite {
                [None, None, Some(subnormal), Some(-subnormal), Some(-0.0), Some(0.0)]
            } else {
                [None, None, Some(f32::INFINITY), Some(f32::NEG_INFINITY), Some(-0.0), Some(0.0)]
            };
            let lhs = drawn(rng, vec![m, k], &left);
            let rhs = drawn(rng, vec![n, k], &right);
            let want = bits(&reference::matmul(&lhs, &reference::transposed(&rhs)));
            prop_assert_eq!(bits(&lhs.matmul_transposed(&rhs)), want.clone());
            let product = |data| Tensor::from_vec(vec![m, n], data);
            prop_assert_eq!(bits(&product(MatMulT { lhs: &lhs, rhs: &rhs }.run())), want.clone());
            match simd::avx2(MatMulT { lhs: &lhs, rhs: &rhs }) {
                Some(data) => prop_assert_eq!(bits(&product(data)), want),
                None => println!("skipped the AVX2 transposed matmul: this host has no AVX2"),
            }
        }

        /// The tiled copy against the double loop, on shapes with no
        /// rows or columns, one of either, and sides below, at and past
        /// whole tiles. Every bit moves, NaN payloads included.
        #[test]
        fn tiled_transpose_matches_the_double_loop(
            (m, n) in prop_oneof![
                Just((0usize, 7usize)),
                Just((7, 0)),
                Just((1, 40)),
                Just((40, 1)),
                Just((15, 17)),
                Just((16, 16)),
                Just((33, 65)),
                (0usize..50, 0usize..50),
            ],
            seed in any::<u64>(),
        ) {
            let rng = &mut rng::seeded(seed);
            let nan = f32::from_bits(0x7fc0_1234);
            let palette =
                [Some(nan), Some(-0.0), Some(f32::INFINITY), Some(f32::NEG_INFINITY), None];
            let t = drawn(rng, vec![m, n], &palette);
            let (tiled, want) = (t.transposed(), reference::transposed(&t));
            prop_assert_eq!(tiled.shape(), want.shape());
            let raw = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(raw(&tiled), raw(&want));
        }
    }

    #[test]
    fn nonzero_positions_lists_what_the_branch_kept() {
        let values = [0.0, 1.0, -0.0, f32::NAN, -2.0, 0.0, f32::MIN_POSITIVE / 2.0];
        let mut entries = vec![(99, 9.0); 20];
        let kept = nonzero_positions(&values, &mut entries);
        let bits = |entries: &[(u32, f32)]| {
            entries.iter().map(|&(p, v)| (p, v.to_bits())).collect::<Vec<_>>()
        };
        assert_eq!(bits(kept), bits(&[1, 3, 4, 6].map(|p| (p, values[p as usize]))));
        assert!(nonzero_positions(&[0.0; 3], &mut entries).is_empty());
        assert!(nonzero_positions(&[], &mut entries).is_empty());
        // Every length across the eight-value windows, against the branch.
        let pattern = [1.5, 0.0, -0.0, f32::NAN, 0.0, 0.0, -3.0, f32::INFINITY, 0.0];
        for len in 0..=20 {
            let values: Vec<f32> = (0..len).map(|i| pattern[i * 5 % pattern.len()]).collect();
            let want: Vec<(u32, f32)> = (0..len as u32)
                .filter(|&p| values[p as usize] != 0.0)
                .map(|p| (p, values[p as usize]))
                .collect();
            assert_eq!(bits(nonzero_positions(&values, &mut entries)), bits(&want), "{len}");
        }
    }

    /// CI's `codec-smoke` job runs this in release mode; debug timings
    /// mean nothing. Tiny AlexNet's `Linear` 512 -> 128 forward at
    /// batch 16, with half of each input row zero at random as ReLU
    /// leaves it: the index list against the per-entry branch, best of
    /// 7. A ratio of two loops run back to back on one input, not a
    /// wall-clock floor a shared runner cannot keep.
    #[test]
    #[ignore = "a timing ratio: run with --release -- --ignored"]
    fn zero_skip_matmul_beats_the_branching_reference() {
        fn best_of(mut run: impl FnMut()) -> f64 {
            let time = |_| {
                let t0 = Instant::now();
                for _ in 0..20 {
                    run();
                }
                t0.elapsed().as_secs_f64() / 20.0
            };
            (0..7).map(time).fold(f64::INFINITY, f64::min)
        }
        let rng = &mut rng::seeded(23);
        let lhs = drawn(rng, vec![16, 512], &[Some(0.0), None]);
        let rhs = drawn(rng, vec![512, 128], &[None]);
        let new = best_of(|| {
            std::hint::black_box(std::hint::black_box(&lhs).matmul(&rhs));
        });
        let old = best_of(|| {
            std::hint::black_box(reference::matmul(std::hint::black_box(&lhs), &rhs));
        });
        println!(
            "linear 512->128 @ batch 16, half zero: index list {:.1} us, branch {:.1} us: {:.2}x",
            new * 1e6,
            old * 1e6,
            old / new
        );
        let floor = 1.2;
        assert!(old >= floor * new, "only {:.2}x the branching loop", old / new);
    }

    #[test]
    fn construction_and_views() {
        let t = Tensor::zeros(vec![2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert!(t.data().iter().all(|&v| v == 0.0));
        let u = Tensor::filled(vec![3], 2.5);
        assert_eq!(u.data(), &[2.5, 2.5, 2.5]);
    }

    #[test]
    #[should_panic(expected = "does not match data length")]
    fn from_vec_validates_length() {
        let _ = Tensor::from_vec(vec![2, 2], vec![1.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let mut t = Tensor::from_vec(vec![6], (0..6).map(|i| i as f32).collect());
        t.reshape(vec![2, 3]);
        assert_eq!(t.at2(1, 2), 5.0);
        let r = t.reshaped(vec![3, 2]);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![3], vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(vec![3], vec![0.5, 0.5, 0.5]);
        assert_eq!(a.add(&b).data(), &[1.5, 2.5, 3.5]);
        assert_eq!(a.sub(&b).data(), &[0.5, 1.5, 2.5]);
        assert_eq!(a.mul(&b).data(), &[0.5, 1.0, 1.5]);
        let mut c = a.clone();
        c.axpy(2.0, &b);
        assert_eq!(c.data(), &[2.0, 3.0, 4.0]);
        c.scale(0.5);
        assert_eq!(c.data(), &[1.0, 1.5, 2.0]);
    }

    #[test]
    fn matmul_identity_and_known() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let i3 = Tensor::eye(3);
        assert_eq!(a.matmul(&i3).data(), a.data());
        let b = Tensor::from_vec(vec![3, 1], vec![1.0, 1.0, 1.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 1]);
        assert_eq!(c.data(), &[6.0, 15.0]);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transposed();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.at2(2, 1), 6.0);
        assert_eq!(t.transposed(), a);
    }

    #[test]
    fn argmax_and_sum() {
        let a = Tensor::from_vec(vec![4], vec![0.1, 0.9, 0.3, 0.9]);
        assert_eq!(a.argmax(), Some(1));
        assert!((a.sum() - 2.2).abs() < 1e-6);
        assert_eq!(Tensor::zeros(vec![0]).argmax(), None);
    }

    #[test]
    fn map_and_zip() {
        let a = Tensor::from_vec(vec![2], vec![-1.0, 2.0]);
        assert_eq!(a.map(|v| v.max(0.0)).data(), &[0.0, 2.0]);
        let mut b = a.clone();
        b.map_inplace(|v| v * 10.0);
        assert_eq!(b.data(), &[-10.0, 20.0]);
    }
}
