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
    /// Each output element starts at `+0.0` and takes `+= l * r` for every
    /// lhs entry `l` of its row, `p` ascending. An entry equal to zero
    /// (`+0.0` or `-0.0`; NaN is not) is *skipped*, not multiplied, so
    /// `0 * inf` never turns an output into NaN and a row of zeros leaves
    /// `+0.0`.
    ///
    /// The skip is an index list ([`nonzero_positions`]), not a branch
    /// per entry: after ReLU half an lhs row is zero at random, and a
    /// branch on it mispredicts. Each row is listed once; the outputs are
    /// then summed 64 columns at a time, each block's sums held in
    /// registers through the row's whole list and stored once, and the
    /// blocks run outermost, so that the rhs columns of a block stay in
    /// the L1 cache across the rows. On a CPU with AVX2 the same loops
    /// run in their AVX2 copy, to the same bits ([`simd::dispatch`]).
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

    /// `self += lhs^T x rhs` for `lhs` `[m, p]`, `rhs` `[m, q]` and `self`
    /// `[p, q]`: to the bits `self.axpy(1.0, &lhs.transposed().matmul(rhs))`
    /// gives, without the transposed product in memory.
    ///
    /// A `Linear` layer's weight gradient, `dW += dy^T x`. Each product
    /// element is summed as [`Tensor::matmul`] sums it (from `+0.0`, the
    /// `lhs` column's nonzero entries in ascending row order) in
    /// registers, then added into `self` once; `1.0 * v` is `v`, so the
    /// add is the `axpy`'s.
    ///
    /// # Panics
    ///
    /// Panics unless the three tensors are 2D with those shapes.
    pub fn add_transposed_matmul(&mut self, lhs: &Tensor, rhs: &Tensor) {
        assert_eq!(lhs.shape.len(), 2, "matmul lhs must be 2D");
        assert_eq!(rhs.shape.len(), 2, "matmul rhs must be 2D");
        let (m, p) = (lhs.shape[0], lhs.shape[1]);
        let (m2, q) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(m, m2, "matmul inner dimensions differ: {m} vs {m2}");
        assert_eq!(self.shape, [p, q], "accumulator is not shaped like the product");
        let lhs_t = lhs.transposed();
        simd::dispatch(AddMatMul { acc: &mut self.data, lhs: &lhs_t, rhs });
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
        let n = self.rhs.shape[1];
        let mut out = vec![0.0f32; self.lhs.shape[0] * n];
        row_products(self.lhs, self.rhs, |i, col, sums| {
            out[i * n + col..][..sums.len()].copy_from_slice(sums);
        });
        out
    }
}

/// [`Tensor::add_transposed_matmul`]'s loops, on the transposed `lhs`,
/// compiled for the build target and for AVX2 ([`simd::dispatch`]).
struct AddMatMul<'a> {
    acc: &'a mut [f32],
    lhs: &'a Tensor,
    rhs: &'a Tensor,
}

impl Kernel for AddMatMul<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let n = self.rhs.shape[1];
        row_products(self.lhs, self.rhs, |i, col, sums| {
            for (a, &v) in self.acc[i * n + col..][..sums.len()].iter_mut().zip(sums) {
                *a += v;
            }
        });
    }
}

/// Output columns one block of [`Tensor::matmul`] keeps in registers:
/// eight AVX2 registers of sums (the build target's SSE copy spills
/// some).
const COLUMNS: usize = 64;

/// Every element of `lhs x rhs`, handed to `emit(row, column, sums)` a
/// block of consecutive columns of one row at a time: [`COLUMNS`], then
/// eight, then one at the right edge. Each sum starts at `+0.0` and
/// takes `l * r` for the row's nonzero entries `l` in ascending order.
///
/// The blocks run outermost, the rows within a block, and each block's
/// rhs columns are first copied into one contiguous `[k][width]` panel:
/// in place, a weight matrix's rows sit a power of two apart, so the
/// block's columns map to a few cache sets and miss the L1 cache on
/// every row, however small the block.
#[inline(always)]
fn row_products(lhs: &Tensor, rhs: &Tensor, mut emit: impl FnMut(usize, usize, &[f32])) {
    let (m, k, n) = (lhs.shape[0], lhs.shape[1], rhs.shape[1]);
    let mut positions = vec![0u32; m * k];
    let lens: Vec<usize> = (0..m)
        .map(|i| nonzero_positions(&lhs.data[i * k..][..k], &mut positions[i * k..][..k]).len())
        .collect();
    let mut panel = vec![0.0f32; k * COLUMNS.min(n)];
    let mut col = 0;
    while col < n {
        let width = match n - col {
            left if left >= COLUMNS => COLUMNS,
            left if left >= 8 => 8,
            _ => 1,
        };
        let panel = &mut panel[..k * width];
        for (packed, row) in panel.chunks_exact_mut(width).zip(rhs.data.chunks_exact(n)) {
            packed.copy_from_slice(&row[col..col + width]);
        }
        for (i, &len) in lens.iter().enumerate() {
            let (live, row) = (&positions[i * k..][..len], &lhs.data[i * k..][..k]);
            match width {
                COLUMNS => emit(i, col, &block_sums::<COLUMNS>(live, row, panel)),
                8 => emit(i, col, &block_sums::<8>(live, row, panel)),
                _ => emit(i, col, &block_sums::<1>(live, row, panel)),
            }
        }
        col += width;
    }
}

/// The sums of a `[k][W]` panel's rows weighted by `row`'s entries at
/// `live`, returned by value so that LLVM keeps them in registers.
#[inline(always)]
fn block_sums<const W: usize>(live: &[u32], row: &[f32], panel: &[f32]) -> [f32; W] {
    let mut sums = [0.0f32; W];
    let (panel, _) = panel.as_chunks::<W>();
    for &p in live {
        let (l, r) = (row[p as usize], &panel[p as usize]);
        for (s, &r) in sums.iter_mut().zip(r) {
            *s += l * r;
        }
    }
    sums
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

/// The position of each of `values`' entries that is not equal to zero,
/// ascending, written to the front of `positions` and returned. `+0.0`
/// and `-0.0` are left out, NaN is kept: the entries `if v == 0.0 {
/// continue }` would not skip. Panics if `positions` is shorter than
/// `values`, or `values` longer than a `u32` indexes.
///
/// Branch-free, in two passes over up to 64 values at a time. The first
/// writes one flag byte per value (compares and packs the compiler
/// widens); the second reads eight flags as one `u64`, whose multiply by
/// `0x0102_0408_1020_4080` gathers them into one byte in its top eight
/// bits, and that byte picks the row of a 256-row table listing the kept
/// lanes: all eight of the row's positions are written at the cursor,
/// which then advances by the byte's count. A row whose zeros fall at
/// random (ReLU's output, its gradient behind a max-pool) costs no
/// mispredicted branch, and about half the time per value of a store
/// per value. The caller runs its per-entry work over the list and
/// loads each value at its position. Inlined always, so that a kernel
/// that lists its rows runs the lister in its own AVX2 copy.
#[inline(always)]
pub fn nonzero_positions<'a>(values: &[f32], positions: &'a mut [u32]) -> &'a [u32] {
    const CHUNK: usize = 8;
    const GROUP: usize = 8;
    assert!(u32::try_from(values.len()).is_ok(), "more values than a u32 indexes");
    let positions = &mut positions[..values.len()];
    let mut len = 0;
    let (chunks, rest) = values.as_chunks::<CHUNK>();
    for (g, group) in chunks.chunks(GROUP).enumerate() {
        let mut flags = [[0u8; CHUNK]; GROUP];
        for (flag, &v) in flags.as_flattened_mut().iter_mut().zip(group.as_flattened()) {
            *flag = u8::from(v != 0.0);
        }
        for (i, flags) in flags[..group.len()].iter().enumerate() {
            // Flag `j` lands on bit `56 + j`, and no partial product
            // carries into the top byte.
            let kept =
                (u64::from_le_bytes(*flags).wrapping_mul(0x0102_0408_1020_4080) >> 56) as usize;
            let first = ((g * GROUP + i) * CHUNK) as u32;
            // The cursor is at most `first`, so the eight writes stay
            // inside the values listed so far and this chunk.
            let out: &mut [u32; CHUNK] = (&mut positions[len..len + CHUNK]).try_into().unwrap();
            *out = KEPT_LANES[kept].map(|lane| first + lane);
            len += usize::from(KEPT_COUNT[kept]);
        }
    }
    for (i, &v) in rest.iter().enumerate() {
        positions[len] = (chunks.len() * CHUNK + i) as u32;
        len += usize::from(v != 0.0);
    }
    &positions[..len]
}

/// For each byte of nonzero flags, the lanes whose flag is set,
/// ascending, then zeros: [`nonzero_positions`]' table.
static KEPT_LANES: [[u32; 8]; 256] = {
    let mut table = [[0; 8]; 256];
    let mut pattern = 0;
    while pattern < 256 {
        let (mut lane, mut kept) = (0, 0);
        while lane < 8 {
            if pattern >> lane & 1 == 1 {
                table[pattern][kept] = lane as u32;
                kept += 1;
            }
            lane += 1;
        }
        pattern += 1;
    }
    table
};

/// How many flags each byte of [`KEPT_LANES`] sets.
static KEPT_COUNT: [u8; 256] = {
    let mut count = [0; 256];
    let mut pattern = 0;
    while pattern < 256 {
        count[pattern] = (pattern as u32).count_ones() as u8;
        pattern += 1;
    }
    count
};

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

        /// The column blocks of the rebuilt product against the branching
        /// loop, both copies: widths below, at and past one and two
        /// blocks of [`COLUMNS`] and past the eight-column blocks, lhs
        /// rows of zeros (their outputs stay `+0.0`) and the palettes of
        /// `matmul_matches_the_branching_loop_bit_for_bit`.
        #[test]
        fn matmul_column_blocks_match_the_branching_loop_bit_for_bit(
            m in prop_oneof![1usize..4, 15usize..18],
            n in prop_oneof![1usize..10, 60usize..70, 126usize..132],
            k in prop_oneof![0usize..9, 120usize..136],
            zero_row in any::<usize>(),
            seed in any::<u64>(),
        ) {
            let rng = &mut rng::seeded(seed);
            let subnormal = f32::MIN_POSITIVE / 8.0;
            let left = [Some(0.0), Some(-0.0), Some(0.0), Some(f32::NAN), Some(subnormal), None];
            let right =
                [None, None, Some(f32::INFINITY), Some(f32::NEG_INFINITY), Some(-0.0), Some(0.0)];
            let mut lhs = drawn(rng, vec![m, k], &left);
            lhs.data[zero_row % m * k..][..k].fill(-0.0);
            let rhs = drawn(rng, vec![k, n], &right);
            let want = bits(&reference::matmul(&lhs, &rhs));
            let product = |data| Tensor::from_vec(vec![m, n], data);
            prop_assert_eq!(bits(&product(MatMul { lhs: &lhs, rhs: &rhs }.run())), want.clone());
            match simd::avx2(MatMul { lhs: &lhs, rhs: &rhs }) {
                Some(data) => prop_assert_eq!(bits(&product(data)), want),
                None => println!("skipped the AVX2 matmul: this host has no AVX2"),
            }
        }

        /// `Linear`'s weight gradient: `acc += lhs^T x rhs` against the
        /// transpose, the branching product and `axpy` it replaced, on
        /// both copies. Batches on both sides of 16, outputs across the
        /// column blocks, a batch row of zeros, accumulators holding
        /// signed zeros, and the palettes of
        /// `matmul_transposed_matches_the_branching_loop_bit_for_bit`:
        /// a zero entry whose term was added would read NaN against an
        /// infinite input, and a term out of order moves the rounding.
        #[test]
        fn add_transposed_matmul_matches_transpose_matmul_axpy_bit_for_bit(
            m in prop_oneof![0usize..4, 15usize..18, 31usize..34],
            p in prop_oneof![1usize..4, 15usize..18],
            q in prop_oneof![1usize..10, 60usize..70, 126usize..132],
            finite in any::<bool>(),
            zero_row in any::<usize>(),
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
            let mut lhs = drawn(rng, vec![m, p], &left);
            if m > 0 {
                lhs.data[zero_row % m * p..][..p].fill(0.0);
            }
            let rhs = drawn(rng, vec![m, q], &right);
            let acc = drawn(rng, vec![p, q], &[Some(0.0), Some(-0.0), None]);
            let mut want = acc.clone();
            want.axpy(1.0, &reference::matmul(&reference::transposed(&lhs), &rhs));
            let want = bits(&want);
            let mut got = acc.clone();
            got.add_transposed_matmul(&lhs, &rhs);
            prop_assert_eq!(bits(&got), want.clone());
            let lhs_t = reference::transposed(&lhs);
            let mut portable = acc.clone();
            AddMatMul { acc: &mut portable.data, lhs: &lhs_t, rhs: &rhs }.run();
            prop_assert_eq!(bits(&portable), want.clone());
            let mut wide = acc.clone();
            match simd::avx2(AddMatMul { acc: &mut wide.data, lhs: &lhs_t, rhs: &rhs }) {
                Some(()) => prop_assert_eq!(bits(&wide), want),
                None => println!("skipped the AVX2 transposed-lhs product: this host has no AVX2"),
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
        let mut positions = vec![99; 24];
        assert_eq!(nonzero_positions(&values, &mut positions), [1, 3, 4, 6]);
        assert!(nonzero_positions(&[0.0; 3], &mut positions).is_empty());
        assert!(nonzero_positions(&[], &mut positions).is_empty());
        // Every length across the eight-value windows, against the branch.
        let pattern = [1.5, 0.0, -0.0, f32::NAN, 0.0, 0.0, -3.0, f32::INFINITY, 0.0];
        let branch = |values: &[f32]| -> Vec<u32> {
            (0..values.len() as u32).filter(|&p| values[p as usize] != 0.0).collect()
        };
        for len in 0..=20 {
            let values: Vec<f32> = (0..len).map(|i| pattern[i * 5 % pattern.len()]).collect();
            assert_eq!(nonzero_positions(&values, &mut positions), branch(&values), "{len}");
        }
        // Every row of the lane table, in the second window of three,
        // with signed zeros, subnormals, NaN payloads and infinities.
        let kept =
            [f32::from_bits(1), -f32::from_bits(1), f32::from_bits(0x7fc0_0001), f32::NEG_INFINITY];
        for byte in 0..256usize {
            let mut values = vec![0.0; 24];
            for lane in 0..8 {
                values[8 + lane] = if byte >> lane & 1 == 1 {
                    kept[(byte + lane) % 4]
                } else {
                    [0.0, -0.0][lane % 2]
                };
            }
            values[0] = 7.0;
            values[23] = -0.0;
            assert_eq!(nonzero_positions(&values, &mut positions), branch(&values), "{byte:08b}");
        }
    }

    /// Tiny AlexNet's `Linear` 512 -> 128 forward at batch 16, with half
    /// of each input row zero at random as ReLU leaves it: the index list
    /// against the per-entry branch ([`fedsz_codec::speed::gate`]).
    /// Release mode only; debug timings mean nothing. Over 10 runs on a
    /// 2-core Xeon the median read 1.63-2.03x (median 1.73x); floor 1.2x.
    #[test]
    #[ignore = "a timing ratio: run with --release -- --ignored"]
    fn zero_skip_matmul_beats_the_branching_reference() {
        let rng = &mut rng::seeded(23);
        let lhs = drawn(rng, vec![16, 512], &[Some(0.0), None]);
        let rhs = drawn(rng, vec![512, 128], &[None]);
        fedsz_codec::speed::gate(
            "linear 512->128 @ batch 16, half zero: index list against the branch",
            1.2,
            || std::hint::black_box(&lhs).matmul(&rhs),
            || reference::matmul(std::hint::black_box(&lhs), &rhs),
        );
    }

    /// `Linear`'s backward on tiny AlexNet's fc1 (512 -> 128) at batch
    /// 16, half of the output gradient zero as ReLU leaves it: the weight
    /// gradient `add_transposed_matmul` and the input gradient `matmul`
    /// against the transpose, the branching loop and the `axpy` they
    /// replaced ([`fedsz_codec::speed::gate`]). Release mode only. Over
    /// 10 runs on a 2-core Xeon the median read 2.07-2.32x (median
    /// 2.27x); floor 1.45x.
    #[test]
    #[ignore = "a timing ratio: run with --release -- --ignored"]
    fn linear_backward_is_2x_the_loop_reference() {
        let rng = &mut rng::seeded(37);
        let grad = drawn(rng, vec![16, 128], &[Some(0.0), None]);
        let input = drawn(rng, vec![16, 512], &[Some(0.0), None]);
        let weight = drawn(rng, vec![128, 512], &[None]);
        let (mut dw, mut ref_dw) = (Tensor::zeros(vec![128, 512]), Tensor::zeros(vec![128, 512]));
        fedsz_codec::speed::gate(
            "linear 512->128 backward @ batch 16, half zero, against the loop reference",
            1.45,
            || {
                dw.add_transposed_matmul(&grad, &input);
                std::hint::black_box(&dw);
                grad.matmul(&weight)
            },
            || {
                ref_dw.axpy(1.0, &reference::matmul(&reference::transposed(&grad), &input));
                std::hint::black_box(&ref_dw);
                reference::matmul(&grad, &weight)
            },
        );
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
