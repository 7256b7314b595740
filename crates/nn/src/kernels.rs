//! Slice kernels behind [`Conv2d`](crate::layers::Conv2d) and
//! [`MaxPool2d`](crate::layers::MaxPool2d).
//!
//! # The invariant: lanes run across independent sums, never across a reduction
//!
//! Every golden in `tests/plan.rs` is a checksum of trained weights, so
//! these kernels must hand every output element, every `dW`/`db`
//! element and every `dx` element exactly the `f32` operations, in
//! exactly the order, that the loop nests in `mod reference` do. `f32`
//! addition is not associative: a kernel that splits one sum over SIMD
//! lanes (a dot-product reduction, a tree sum, a split-K GEMM) moves
//! every golden. What *is* free is which independent sums advance
//! together, so each kernel picks a layout in which independent
//! accumulators sit side by side and walks each one's terms in the
//! reference order:
//!
//! * **forward** works on one block of at most [`BLOCK`] output
//!   columns of one output row by one [`LANES`]-channel tile at a time.
//!   The block's accumulators start at the bias and stay in registers
//!   while each column walks its in-image taps `(ic, ky, kx)` in
//!   ascending order, `acc[c][..] += x[tap of column c] * w[tap][..]`
//!   (weights re-laid tap-major, channel-minor); the columns of a block
//!   are independent sums, so their adds overlap;
//! * **backward** runs its lanes across the taps of one filter. Per
//!   sample and group it builds one *tap row* per output pixel: the
//!   pixel's `icg * k * k` input values in `(ky, kx, ic)` order, padded
//!   to whole [`TAP_LANES`] — the row every output channel's `dW`
//!   update for that pixel reads. Each output channel then keeps one
//!   `dW` accumulator the width of a row in registers and walks its
//!   plane's nonzero output gradients, `(oy, ox)` ascending, with one
//!   `acc[t] += g * row[t]` per tap, at most [`TAP_BLOCK`] taps (nine
//!   AVX2 registers) at a time; a wider filter is walked once per
//!   block. Every `dW` element takes its terms in `(ni, oy, ox)` order,
//!   and `db` rides along the first block's walk. `dx` is one pass over
//!   the same gradients per one or two kernel rows, `ky` descending, with
//!   those rows of the filter in registers: one `+= g * w[ky][..]` per
//!   kernel row and nonzero gradient, channels last, output positions
//!   `(ni, oc, oy, ox)` ascending within a pass. For a given `dx`
//!   element that is `ky`, `kx` *descending* — the order the reference
//!   produces;
//! * a **depthwise** shape has one channel per group on both sides,
//!   so its lanes run across the groups, everything channel-last.
//!
//! A tap that falls outside the image is *skipped*, and a zero output
//! gradient is skipped too (a depthwise lane keeps its old value),
//! exactly as the reference skips them. The forward walks each output
//! pixel's list of in-image taps, one list per distinct pair of in-image
//! `ky` and `kx` ranges. The backward reads its inputs from a copy of the
//! image inside a zero border of `padding`, so that every kernel row of
//! every pixel is one run of `k * icg` values, and a tap row's lane for
//! an out-of-image tap holds `+0.0`. Adding that lane's `g * 0.0` is the
//! skip for every accumulator but `-0.0`, and only while `g` is finite;
//! so the walks add every lane only when no `dW` starts at `-0.0` and
//! every `g` is finite, as in training, and otherwise take each lane by
//! a *select* on a per-pixel lane mask ([`TapView::accumulate`]). An
//! out-of-image `dx` tap lands in a border that is never read back. So
//! the kernels agree with the reference bit for bit on every input,
//! `-0.0` and infinities included, although `x + 0.0 * w` is not `x`
//! when `x` is `-0.0` or `w` is infinite. (Where a NaN lands is pinned
//! too; its payload after an add of two NaNs is not, as Rust leaves it
//! unspecified.)
//!
//! The zero-gradient skip branches on no data. Behind ReLU and max-pool
//! most of `dy` is zero at random positions, and a branch on it
//! mispredicts; instead each plane's nonzero gradients are listed first
//! by [`fedsz_tensor::nonzero_positions`], the lister `Tensor::matmul`
//! uses (eight flags at a time pick a row of kept positions from a
//! table), and the walks and axpys then run over that list, loading each
//! gradient at its position. The max-pool's comparison is a select for
//! the same reason.
//!
//! # Why the forward keeps a block of columns in registers
//!
//! The row kernel it replaced walked the taps outermost over a row
//! buffer of `ow` accumulator tiles: every tap loaded and stored every
//! tile of the row, so the loop ran at the load and store ports, not at
//! the adds. A [`BLOCK`] of columns by one tile is twelve AVX2
//! registers, which stay put through the whole walk; per tap the block
//! loads the tap's weights once and one input value per column. Each
//! block's input comes from a copy of the sample inside a zero border
//! (`x_pad`), so a tap's input sits at a fixed offset from its pixel's
//! window (a [`Tap`]). The border's zeros are never read: a tap outside
//! the image is left out of the pixel's list. The columns are cut per
//! call ([`Windows`]): a run of columns with the same in-image `kx`
//! shares one list and, at stride 1, one load of its inputs; classes
//! too small for a block of their own, the border columns, are pooled
//! with others whose lists are as long, each walking its own list. A
//! 32-channel convolution runs as two tiles, not as one wider tile:
//! with 32 lanes the weights of a tap take four registers, and three
//! columns of accumulators no longer fit beside them. Each walk returns its
//! accumulators by value ([`Taps`]): an array that some loop indexes
//! by a run-time lane stays in memory, and LLVM stores it on every tap.
//! Measured per call at batch 16 on a 2-core Xeon with AVX2, against
//! the row kernel: tiny AlexNet's conv2 ~1.7x, its conv1 ~1.1x (its 27
//! taps do not outweigh the write of 16 channels into their planes),
//! ResNet's 3x3s 1.7-1.9x. [`BlockForward`] is compiled for the build
//! target and for AVX2 and picked per call ([`fedsz_codec::simd`]). The
//! depthwise forward and backward gained nothing from an AVX2 copy
//! (0.86-1.07x, 0.83x) and are compiled once.
//!
//! # Why the backward walks tap rows, and what it does around the walks
//!
//! The backward before tap rows took three `k * icg`-float axpys per
//! nonzero output gradient, one per kernel row, into a channel-last
//! `dW`: on conv1 that is three 9-float loops with their range and
//! slice work for 27 multiply-adds, so the time went to per-nonzero
//! overhead, not arithmetic, and an AVX2 copy gained nothing
//! (0.95-1.07x). A tap row is one fixed-width vector walk per nonzero
//! gradient, with the accumulators held in registers across the plane.
//! What the first tap-row kernel still spent went around its walks:
//!
//! * a select on every lane of every step, interior pixels included,
//!   on the accumulator's dependency chain: the walks now add every lane
//!   whenever that is exact (see above);
//! * the plane listing, a store per value: now a table row per eight;
//! * the tap rows' copies, sliced and bounds-checked per chunk, and the
//!   transposes into and out of the channel-last image through
//!   `step_by`: now copies of a chunk count fixed at compile time, and
//!   the loop order that suits the channel count;
//! * conv2's `dx`, three read-modify-write axpys per gradient that each
//!   reloaded a kernel row of the filter: now passes of two rows held in
//!   registers;
//! * work buffers a heap `Vec` aligns to 16 bytes only, so that half of
//!   the whole-register loads and stores straddled two cache lines
//!   ([`LineAligned`]).
//!
//! Measured per call at batch 16 on a 2-core Xeon with AVX2, in one
//! harness that alternates the two builds (medians of 10 runs of each
//! run's 10th percentile), against that kernel: tiny AlexNet's conv1
//! (no `dx`) 0.177 -> 0.096 ms (1.8x) and its conv2 0.258 -> 0.164 ms
//! (1.6x). [`TapRowBackward`]
//! is compiled for the build target and for AVX2 and picked per call
//! ([`fedsz_codec::simd`]). The build target's copy, all a host without
//! AVX2 runs, measured with the dispatch held to it on both sides, is
//! 1.46x its predecessor on conv1, 1.5x on conv2, 1.45x on a stride-2
//! 3x3 and 1.4x on ResNet's 3x3 (that predecessor was 0.65-0.9x the
//! axpy kernel on the last three). The per-pixel offsets are computed
//! once per call ([`tap_pixels`]) and every scratch buffer once per
//! call, sized by the shape, not the batch, so the walk divides nothing
//! and allocates nothing.
//!
//! `dx` is optional: the network's first layer passes none
//! ([`Layer::backward_params`](crate::layers::Layer::backward_params)),
//! since nobody reads the gradient of the input batch, and skips the
//! `dx` axpys and transposes. `dW` and `db` come out the same bits
//! either way: the `dx` accumulator is a buffer of its own.

use fedsz_codec::simd::{self, Kernel};
use fedsz_tensor::nonzero_positions;
use std::ops::Range;

/// Output channels one forward accumulator tile carries: four SSE
/// registers or two AVX2 ones. The latency of the adds is covered by
/// the block's independent columns, not by the tile's width.
const LANES: usize = 16;

/// The geometry of one convolution call.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConvShape {
    /// Batch size.
    pub n: usize,
    /// Input channels.
    pub c: usize,
    /// Input height and width.
    pub h: usize,
    pub w: usize,
    /// Output channels.
    pub oc: usize,
    /// Output height and width.
    pub oh: usize,
    pub ow: usize,
    pub kernel: usize,
    pub stride: usize,
    pub padding: usize,
    pub groups: usize,
}

impl ConvShape {
    /// The kernel taps along one axis that land inside an image of
    /// `size` for output coordinate `o`, and the input coordinate of the
    /// first of them.
    fn taps(&self, o: usize, size: usize) -> (Range<usize>, usize) {
        let origin = o * self.stride;
        let lo = self.padding.saturating_sub(origin);
        let hi = self.kernel.min((size + self.padding).saturating_sub(origin));
        if lo < hi {
            (lo..hi, origin + lo - self.padding)
        } else {
            (0..0, 0)
        }
    }

    /// [`ConvShape::taps`] of every output column.
    fn column_taps(&self) -> Vec<(Range<usize>, usize)> {
        (0..self.ow).map(|ox| self.taps(ox, self.w)).collect()
    }

    /// The image rows of a channel-last `[h + 2p][w + 2p][channels]`
    /// buffer (one padded plane with `channels = 1`), inside its border
    /// of `padding`.
    fn interior_rows<'a>(
        &self,
        padded: &'a mut [f32],
        channels: usize,
    ) -> impl Iterator<Item = &'a mut [f32]> {
        let wp = self.w + 2 * self.padding;
        let first = (self.padding * wp + self.padding) * channels;
        let width = self.w * channels;
        padded[first..].chunks_mut(wp * channels).map(move |row| &mut row[..width]).take(self.h)
    }

    /// Writes one group's channel-first `[channels][h][w]` planes into
    /// the image rows of a channel-last padded buffer (see
    /// [`ConvShape::interior_rows`]). A few channels go a plane at a
    /// time; from eight on, a pixel at a time, each of its channels read
    /// from its plane (on tiny AlexNet at batch 16 each order is
    /// 1.7-2.2x the other where it is picked).
    fn pad_channel_last(&self, planes: &[f32], channels: usize, padded: &mut [f32]) {
        let in_plane = self.h * self.w;
        if channels < 8 {
            for (channel, plane) in planes.chunks_exact(in_plane).enumerate() {
                let rows = self.interior_rows(padded, channels).zip(plane.chunks_exact(self.w));
                for (row, src) in rows {
                    for (pixel, &v) in row.chunks_exact_mut(channels).zip(src) {
                        pixel[channel] = v;
                    }
                }
            }
            return;
        }
        for (iy, row) in self.interior_rows(padded, channels).enumerate() {
            for (ix, pixel) in row.chunks_exact_mut(channels).enumerate() {
                for (v, plane) in pixel.iter_mut().zip(planes.chunks_exact(in_plane)) {
                    *v = plane[iy * self.w + ix];
                }
            }
        }
    }

    /// Appends the image rows of a channel-last padded buffer to `dst`
    /// channel-first, `[channels][h][w]`: the order a `[n, c, h, w]`
    /// tensor holds them in. As in [`ConvShape::pad_channel_last`], a few
    /// channels go a plane at a time and from eight on a pixel at a time.
    fn extend_from_padded(&self, dst: &mut Vec<f32>, padded: &mut [f32], channels: usize) {
        let in_plane = self.h * self.w;
        if channels < 8 {
            for channel in 0..channels {
                for row in self.interior_rows(padded, channels) {
                    dst.extend(row.chunks_exact(channels).map(|pixel| pixel[channel]));
                }
            }
            return;
        }
        let start = dst.len();
        dst.resize(start + channels * in_plane, 0.0);
        let planes = &mut dst[start..];
        for (iy, row) in self.interior_rows(padded, channels).enumerate() {
            for (ix, pixel) in row.chunks_exact(channels).enumerate() {
                for (&v, plane) in pixel.iter().zip(planes.chunks_exact_mut(in_plane)) {
                    plane[iy * self.w + ix] = v;
                }
            }
        }
    }

    /// One filter per channel: with a single input and output channel
    /// per group there is nothing for the grouped kernels' lanes to run
    /// across, so lanes run across the groups instead.
    fn is_depthwise(&self) -> bool {
        self.groups == self.c && self.oc == self.c
    }
}

/// `out = bias + conv(x, wt)`: `x` is `[n, c, h, w]`, `wt` is
/// `[oc, c/groups, k, k]`, `out` is `[n, oc, oh, ow]`.
pub(crate) fn conv_forward(s: &ConvShape, x: &[f32], wt: &[f32], bias: &[f32], out: &mut [f32]) {
    if s.is_depthwise() {
        depthwise_forward(s, x, wt, bias, out);
    } else {
        simd::dispatch(BlockForward { s, x, wt, bias, out });
    }
}

/// The grouped forward, one block of output columns by one
/// [`LANES`]-channel tile at a time, its accumulators in registers
/// through every tap (see the module comment); compiled for the build
/// target and for AVX2 ([`simd::dispatch`]). It is correct for a
/// depthwise shape too, which the oracle tests use.
struct BlockForward<'a> {
    s: &'a ConvShape,
    x: &'a [f32],
    wt: &'a [f32],
    bias: &'a [f32],
    out: &'a mut [f32],
}

impl Kernel for BlockForward<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        block_forward(self.s, self.x, self.wt, self.bias, self.out);
    }
}

/// The most output columns one block carries: twelve AVX2 registers of
/// accumulators, which leaves two for the tap's weights and one each
/// for an input broadcast and a product.
const BLOCK: usize = 6;

/// One accumulator tile, or one tap's weights for a tile.
type Tile = [f32; LANES];

/// [`BlockForward`]'s loops.
#[inline(always)]
fn block_forward(s: &ConvShape, x: &[f32], wt: &[f32], bias: &[f32], out: &mut [f32]) {
    let (icg, ocg) = (s.c / s.groups, s.oc / s.groups);
    let taps = icg * s.kernel * s.kernel;
    let tiles = ocg.div_ceil(LANES);
    // packed[group][tile][tap]: the LANES weights one input value meets;
    // lanes past `ocg` stay zero and are never stored.
    let mut packed = vec![[0.0f32; LANES]; s.groups * tiles * taps];
    for (oc, filter) in wt.chunks_exact(taps).enumerate() {
        let (grp, in_grp) = (oc / ocg, oc % ocg);
        let tile = &mut packed[(grp * tiles + in_grp / LANES) * taps..][..taps];
        for (row, &v) in tile.iter_mut().zip(filter) {
            row[in_grp % LANES] = v;
        }
    }
    let windows = Windows::new(s);
    let (hp, wp) = (s.h + 2 * s.padding, s.w + 2 * s.padding);
    let (in_plane, out_plane) = (s.h * s.w, s.oh * s.ow);
    let mut x_pad = vec![0.0f32; icg * hp * wp];
    let mut done = [[0.0f32; LANES]; BLOCK];
    for ni in 0..s.n {
        for grp in 0..s.groups {
            let xg = &x[(ni * s.c + grp * icg) * in_plane..][..icg * in_plane];
            for (plane, padded) in xg.chunks_exact(in_plane).zip(x_pad.chunks_exact_mut(hp * wp)) {
                for (row, padded) in plane.chunks_exact(s.w).zip(s.interior_rows(padded, 1)) {
                    padded.copy_from_slice(row);
                }
            }
            for tile in 0..tiles {
                let oc0 = grp * ocg + tile * LANES;
                let live = LANES.min(ocg - tile * LANES);
                let mut start = [0.0f32; LANES];
                start[..live].copy_from_slice(&bias[oc0..oc0 + live]);
                let taps = Taps {
                    x_pad: &x_pad,
                    wtile: &packed[(grp * tiles + tile) * taps..][..taps],
                    start,
                };
                let og = &mut out[(ni * s.oc + oc0) * out_plane..][..live * out_plane];
                for oy in 0..s.oh {
                    for block in &windows.blocks {
                        windows.block(taps, (oy, block), og, &mut done);
                    }
                }
            }
        }
    }
}

/// One tap of an output pixel: where its input value sits in the
/// padded image, from the pixel's window origin, and which filter tap
/// it meets.
type Tap = (u32, u32);

/// A block of output columns walked together.
struct Block {
    cols: Vec<usize>,
    /// Whether the columns are consecutive and share their in-image
    /// `kx`, and so one tap list.
    shared: bool,
}

/// What [`block_forward`] precomputes per call: the in-image taps of
/// every class of output pixel, and the blocks the output columns are
/// cut into.
struct Windows {
    /// The in-image taps `(ic, ky, kx)` ascending, one list per pair of
    /// distinct in-image `ky` and `kx` ranges, `[row class][column
    /// class]`.
    lists: Vec<Vec<Tap>>,
    /// Column classes.
    classes: usize,
    /// The class of each output row and of each output column.
    row_of: Vec<usize>,
    col_of: Vec<usize>,
    /// At most [`BLOCK`] columns each, all with as many in-image `kx`,
    /// so that their tap lists are as long on every row. A class of at
    /// least [`BLOCK`] columns is cut into the fewest, most even blocks;
    /// the smaller classes (the border columns) are pooled by their
    /// count of `kx` and cut the same way.
    blocks: Vec<Block>,
    /// The padded image's row length, the stride and the output
    /// plane's sides.
    wp: usize,
    stride: usize,
    oh: usize,
    ow: usize,
}

impl Windows {
    fn new(s: &ConvShape) -> Self {
        let k = s.kernel;
        let (hp, wp) = (s.h + 2 * s.padding, s.w + 2 * s.padding);
        let (ky_ranges, row_of) = range_classes((0..s.oh).map(|oy| s.taps(oy, s.h).0));
        let (kx_ranges, col_of) = range_classes((0..s.ow).map(|ox| s.taps(ox, s.w).0));
        let mut lists = Vec::with_capacity(ky_ranges.len() * kx_ranges.len());
        for kys in &ky_ranges {
            for kxs in &kx_ranges {
                let mut list = Vec::new();
                for ic in 0..s.c / s.groups {
                    for ky in kys.clone() {
                        for kx in kxs.clone() {
                            let at = (ic * hp + ky) * wp + kx;
                            list.push((at as u32, ((ic * k + ky) * k + kx) as u32));
                        }
                    }
                }
                lists.push(list);
            }
        }
        // The fewest blocks of at most BLOCK columns, as even as they go.
        let cut = |cols: &[usize], blocks: &mut Vec<Block>| {
            let size = cols.len().div_ceil(cols.len().div_ceil(BLOCK).max(1));
            for cols in cols.chunks(size.max(1)) {
                let shared =
                    cols.windows(2).all(|p| p[1] == p[0] + 1 && col_of[p[1]] == col_of[p[0]]);
                blocks.push(Block { cols: cols.to_vec(), shared });
            }
        };
        let (mut blocks, mut rest) = (Vec::new(), Vec::new());
        for class in 0..kx_ranges.len() {
            let members: Vec<usize> = (0..s.ow).filter(|&ox| col_of[ox] == class).collect();
            if members.len() >= BLOCK {
                cut(&members, &mut blocks);
            } else {
                rest.extend(members);
            }
        }
        let mut counts: Vec<usize> = kx_ranges.iter().map(Range::len).collect();
        counts.sort_unstable();
        counts.dedup();
        for count in counts {
            let same: Vec<usize> =
                rest.iter().copied().filter(|&ox| kx_ranges[col_of[ox]].len() == count).collect();
            cut(&same, &mut blocks);
        }
        Self {
            lists,
            classes: kx_ranges.len(),
            row_of,
            col_of,
            blocks,
            wp,
            stride: s.stride,
            oh: s.oh,
            ow: s.ow,
        }
    }

    /// Output row `oy` at the columns of `block` in the tile's `og`
    /// planes: each accumulator started at the bias and run through its
    /// in-image taps. `done` holds the accumulators on their way to the
    /// planes.
    #[inline(always)]
    fn block(&self, taps: Taps<'_>, at: (usize, &Block), og: &mut [f32], done: &mut [Tile; BLOCK]) {
        match at.1.cols.len() {
            1 => self.walk::<1>(taps, at, og, done),
            2 => self.walk::<2>(taps, at, og, done),
            3 => self.walk::<3>(taps, at, og, done),
            4 => self.walk::<4>(taps, at, og, done),
            5 => self.walk::<5>(taps, at, og, done),
            _ => self.walk::<BLOCK>(taps, at, og, done),
        }
    }

    /// [`Windows::block`] for `B` columns.
    #[inline(always)]
    fn walk<const B: usize>(
        &self,
        taps: Taps<'_>,
        (oy, block): (usize, &Block),
        og: &mut [f32],
        done: &mut [Tile; BLOCK],
    ) {
        let cols: &[usize; B] = block.cols[..].try_into().unwrap();
        let row = self.row_of[oy] * self.classes;
        let origin = |ox: usize| (oy * self.wp + ox) * self.stride;
        let done: &mut [Tile; B] = (&mut done[..B]).try_into().unwrap();
        *done = if block.shared {
            let list = &self.lists[row + self.col_of[cols[0]]];
            taps.shared::<B>(list, origin(cols[0]), self.stride)
        } else {
            let mut lists: [&[Tap]; B] = [&[]; B];
            let mut origins = [0; B];
            for ((list, at), &ox) in lists.iter_mut().zip(&mut origins).zip(cols) {
                *list = &self.lists[row + self.col_of[ox]];
                *at = origin(ox);
            }
            taps.mixed::<B>(lists, origins)
        };
        let planes = og.chunks_exact_mut(self.oh * self.ow).map(|plane| &mut plane[oy * self.ow..]);
        if block.shared {
            for (l, row) in planes.enumerate() {
                let row: &mut [f32; B] = (&mut row[cols[0]..][..B]).try_into().unwrap();
                for (o, acc) in row.iter_mut().zip(done.iter()) {
                    *o = acc[l];
                }
            }
        } else {
            for (l, row) in planes.enumerate() {
                for (&ox, acc) in cols.iter().zip(done.iter()) {
                    row[ox] = acc[l];
                }
            }
        }
    }
}

/// One tile's view of a sample and group: its input inside a border of
/// `padding`, the tile's packed weights and its bias.
#[derive(Clone, Copy)]
struct Taps<'a> {
    x_pad: &'a [f32],
    wtile: &'a [Tile],
    start: Tile,
}

// Each walk returns its accumulators by value from a loop of its own:
// LLVM keeps a local array in registers only while every index into it
// is a constant once its loops are unrolled, so no walk shares its
// array with another loop or with the lane-by-lane write-back.
impl Taps<'_> {
    /// `B` consecutive columns of one class, `stride` apart in the
    /// image: one tap list, one weight load per tap for all `B`.
    #[inline(always)]
    fn shared<const B: usize>(&self, list: &[Tap], origin: usize, stride: usize) -> [Tile; B] {
        let mut acc = [self.start; B];
        if stride == 1 {
            for &(at, tap) in list {
                let w = self.wtile[tap as usize];
                let xs: &[f32; B] = self.x_pad[origin + at as usize..][..B].try_into().unwrap();
                for (acc, &xv) in acc.iter_mut().zip(xs) {
                    madd(acc, xv, &w);
                }
            }
        } else {
            for &(at, tap) in list {
                let w = self.wtile[tap as usize];
                let xs = &self.x_pad[origin + at as usize..];
                for (c, acc) in acc.iter_mut().enumerate() {
                    madd(acc, xs[c * stride], &w);
                }
            }
        }
        acc
    }

    /// `B` columns with tap lists of their own, all as long.
    #[inline(always)]
    fn mixed<const B: usize>(&self, lists: [&[Tap]; B], origins: [usize; B]) -> [Tile; B] {
        let mut acc = [self.start; B];
        let len = lists[0].len();
        let lists = lists.map(|list| &list[..len]);
        for i in 0..len {
            for ((acc, list), &origin) in acc.iter_mut().zip(&lists).zip(&origins) {
                let (at, tap) = list[i];
                madd(acc, self.x_pad[origin + at as usize], &self.wtile[tap as usize]);
            }
        }
        acc
    }
}

/// `acc[..] += x * w[..]`.
#[inline(always)]
fn madd(acc: &mut Tile, x: f32, w: &Tile) {
    for (a, &w) in acc.iter_mut().zip(w) {
        *a += x * w;
    }
}

/// The distinct ranges among `ranges`, in order of first appearance,
/// and the index of each range among them.
fn range_classes(ranges: impl Iterator<Item = Range<usize>>) -> (Vec<Range<usize>>, Vec<usize>) {
    let mut distinct: Vec<Range<usize>> = Vec::new();
    let of = ranges
        .map(|r| match distinct.iter().position(|d| *d == r) {
            Some(i) => i,
            None => {
                distinct.push(r);
                distinct.len() - 1
            }
        })
        .collect();
    (distinct, of)
}

/// `dst[i] += g * src[i]`.
#[inline]
fn axpy(dst: &mut [f32], g: f32, src: &[f32]) {
    for (d, &v) in dst.iter_mut().zip(src) {
        *d += g * v;
    }
}

/// Appends the channel-last `src`, `channels` values per pixel, to `dst`
/// channel-first: the order a `[n, c, h, w]` tensor holds them in.
fn extend_channel_first(dst: &mut Vec<f32>, src: &[f32], channels: usize) {
    for channel in 0..channels {
        dst.extend(src[channel..].iter().step_by(channels));
    }
}

/// `dst = src^T` for a row-major `src` of `rows` rows: channel-first
/// `[channels, pixels]` to channel-last with `rows = channels`, and
/// back with `rows = pixels`.
fn transpose(src: &[f32], rows: usize, dst: &mut [f32]) {
    for (r, row) in src.chunks_exact(src.len() / rows).enumerate() {
        for (&v, d) in row.iter().zip(dst[r..].iter_mut().step_by(rows)) {
            *d = v;
        }
    }
}

/// Accumulates `dwt += dW` and `db += db`, and appends `dx` to an empty
/// buffer when given one, for the output gradient `dy` of a
/// [`conv_forward`] call on `x`. `dW` and `db` do not depend on whether
/// `dx` is computed. `dx` is appended a sample at a time, so that the
/// caller needs no zeroed buffer for it.
pub(crate) fn conv_backward(
    s: &ConvShape,
    x: &[f32],
    wt: &[f32],
    dy: &[f32],
    dwt: &mut [f32],
    db: &mut [f32],
    dx: Option<&mut Vec<f32>>,
) {
    if s.is_depthwise() {
        depthwise_backward(s, x, wt, dy, dwt, db, dx);
    } else {
        simd::dispatch(TapRowBackward { s, x, wt, dy, dwt, db, dx });
    }
}

/// What a tap row is padded to, and copied in: one AVX2 register of
/// `f32`s.
const TAP_LANES: usize = 8;

/// The most taps one `dW` accumulator block carries through a plane's
/// nonzero output gradients: nine AVX2 registers, which leaves room for
/// the row loads (the build target's SSE copy spills some). A wider
/// filter is cut into the fewest, most even blocks.
const TAP_BLOCK: usize = 72;

/// A zeroed buffer whose first `f32` starts a 64-byte cache line: the
/// backward's whole-register loads and stores then never straddle two
/// lines, which a heap `Vec<f32>` (16-byte aligned) makes half of them
/// do. Measured on conv2 of tiny AlexNet at batch 16 on a 2-core Xeon,
/// aligning its three work buffers took 11 % off the backward.
struct LineAligned {
    buf: Vec<f32>,
    start: usize,
    len: usize,
}

impl LineAligned {
    fn zeroed(len: usize) -> Self {
        let buf = vec![0.0f32; len + 15];
        // An offset past 15 floats cannot happen for a 4-aligned
        // pointer; should it, the buffer is merely unaligned.
        let start = Some(buf.as_ptr().align_offset(64)).filter(|&at| at < 16).unwrap_or(0);
        Self { buf, start, len }
    }
}

impl std::ops::Deref for LineAligned {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.buf[self.start..self.start + self.len]
    }
}

impl std::ops::DerefMut for LineAligned {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf[self.start..self.start + self.len]
    }
}

/// The grouped backward (see the module comment): `dW` from tap rows,
/// `dx` by one axpy per kernel row and nonzero output gradient;
/// compiled for the build target and for AVX2 ([`simd::dispatch`]).
struct TapRowBackward<'a> {
    s: &'a ConvShape,
    x: &'a [f32],
    wt: &'a [f32],
    dy: &'a [f32],
    dwt: &'a mut [f32],
    db: &'a mut [f32],
    dx: Option<&'a mut Vec<f32>>,
}

impl Kernel for TapRowBackward<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        tap_row_backward(self.s, self.x, self.wt, self.dy, self.dwt, self.db, self.dx);
    }
}

/// [`TapRowBackward`]'s loops.
#[inline(always)]
fn tap_row_backward(
    s: &ConvShape,
    x: &[f32],
    wt: &[f32],
    dy: &[f32],
    dwt: &mut [f32],
    db: &mut [f32],
    mut dx: Option<&mut Vec<f32>>,
) {
    let (icg, ocg) = (s.c / s.groups, s.oc / s.groups);
    let k = s.kernel;
    let (taps, in_plane, out_plane) = (icg * k * k, s.h * s.w, s.oh * s.ow);
    let width = taps.next_multiple_of(TAP_LANES);
    // The fewest walks of at most `TAP_BLOCK` taps, as even as whole
    // `TAP_LANES` allow.
    let block = width.div_ceil(width.div_ceil(TAP_BLOCK)).next_multiple_of(TAP_LANES);
    // Whether the walks must select their in-image lanes (see
    // `TapView::accumulate`): only if some accumulator starts at `-0.0`
    // or some output gradient is infinite or NaN.
    let negative_zero = (-0.0f32).to_bits();
    let masked = dwt.iter().fold(false, |any, v| any | (v.to_bits() == negative_zero))
        || !dy.iter().fold(true, |all, g| all & g.is_finite());
    // Filters as [oc][ky][kx][icg]; `dW` the same, each filter padded to
    // `width`; a group's pixels as [iy][ix][icg].
    let with_dx = dx.is_some();
    let mut wt_cl = vec![0.0f32; if with_dx { wt.len() } else { 0 }];
    for (w, w_cl) in wt.chunks_exact(taps).zip(wt_cl.chunks_exact_mut(taps)) {
        transpose(w, icg, w_cl);
    }
    let mut dw_rows = vec![0.0f32; s.oc * width];
    for (dw, dw_row) in dwt.chunks_exact(taps).zip(dw_rows.chunks_exact_mut(width)) {
        transpose(dw, icg, &mut dw_row[..taps]);
    }
    let (hp, wp) = (s.h + 2 * s.padding, s.w + 2 * s.padding);
    let run = k * icg;
    let (pixels, masks) = tap_pixels(s, width);
    // A group's pixels as [iy][ix][icg] inside a zero border of
    // `padding`, so that every kernel row of every output pixel is one
    // run of `k * icg` values, and `dx` in the same layout; `TAP_LANES`
    // of slack past the end for the tap rows' whole-chunk copies.
    let mut x_pad = LineAligned::zeroed(hp * wp * icg + TAP_LANES);
    let mut dx_pad = LineAligned::zeroed(if with_dx { hp * wp * icg } else { 0 });
    let mut rows = LineAligned::zeroed(out_plane * width + TAP_LANES);
    let mut positions = vec![0; out_plane];
    let tap_rows = TapRows { pixels: &pixels, k, run, line: wp * icg, taps, width };
    for ni in 0..s.n {
        for grp in 0..s.groups {
            let sample = (ni * s.c + grp * icg) * in_plane..(ni * s.c + (grp + 1) * icg) * in_plane;
            s.pad_channel_last(&x[sample], icg, &mut x_pad);
            tap_rows.build(&x_pad, &mut rows);
            dx_pad.fill(0.0);
            let view = TapView { rows: &rows, width, masks: &masks, pixels: &pixels };
            for oc in grp * ocg..(grp + 1) * ocg {
                let plane = &dy[(ni * s.oc + oc) * out_plane..][..out_plane];
                let live = Live { plane, positions: nonzero_positions(plane, &mut positions) };
                // `db` rides along the first block's walk.
                let mut bias = db[oc];
                let filter = dw_rows[oc * width..][..width].chunks_mut(block);
                for (b, acc) in filter.enumerate() {
                    if b == 0 {
                        view.walk(masked, 0, acc, &live, |g| bias += g);
                    } else {
                        view.walk(masked, b * block, acc, &live, |_| {});
                    }
                }
                db[oc] = bias;
                if !with_dx {
                    continue;
                }
                let walk = DxWalk {
                    live: &live,
                    pixels: &pixels,
                    filter: &wt_cl[oc * taps..][..taps],
                    k,
                    run,
                    row: wp * icg,
                };
                match run {
                    48 => walk.run::<48>(&mut dx_pad),
                    _ => walk.run::<0>(&mut dx_pad),
                }
            }
            if let Some(dx) = dx.as_deref_mut() {
                s.extend_from_padded(dx, &mut dx_pad, icg);
            }
        }
    }
    for (dw_row, dw) in dw_rows.chunks_exact(width).zip(dwt.chunks_exact_mut(taps)) {
        transpose(&dw_row[..taps], k * k, dw);
    }
}

/// One output channel's plane of a sample's output gradient, and the
/// positions of its nonzero entries.
struct Live<'a> {
    plane: &'a [f32],
    positions: &'a [u32],
}

impl Live<'_> {
    /// Each nonzero gradient with its pixel, pixels ascending.
    #[inline(always)]
    fn iter(&self) -> impl Iterator<Item = (usize, f32)> + '_ {
        self.positions.iter().map(|&p| (p as usize, self.plane[p as usize]))
    }
}

/// One output channel's `dx` update, in the padded layout: passes over
/// the channel's nonzero output gradients, output positions ascending,
/// each pass adding one or two kernel rows (`ky` descending across the
/// passes) per gradient, one axpy each, with those rows of the filter
/// held in registers. Each gradient adds into a `dx` element through at
/// most one `(ky, kx)`, and the pixels that do so through a larger `ky`
/// sit in earlier output rows, so every `dx` element takes its terms
/// output positions ascending, as the reference does (for one element,
/// `ky`, `kx` descending). An out-of-image tap lands in the border,
/// which is never read back.
struct DxWalk<'a> {
    /// The channel's nonzero output gradients.
    live: &'a Live<'a>,
    pixels: &'a [TapPixel],
    /// The channel's filter as [ky][kx][icg].
    filter: &'a [f32],
    k: usize,
    /// Values in one kernel row, `k * icg`.
    run: usize,
    /// Values in one row of the padded image.
    row: usize,
}

impl DxWalk<'_> {
    /// The walk with kernel rows of `N` values, a length the compiler
    /// unrolls into whole registers, which hold two kernel rows through
    /// each pass; `N = 0` takes `run` at run time, a row per pass.
    #[inline(always)]
    fn run<const N: usize>(&self, dx_pad: &mut [f32]) {
        let mut ky = self.k;
        while ky > 0 {
            if N != 0 && ky >= 2 {
                self.two_rows::<N>(ky - 1, dx_pad);
                ky -= 2;
            } else {
                self.one_row::<N>(ky - 1, dx_pad);
                ky -= 1;
            }
        }
    }

    /// The pass of kernel row `ky`.
    #[inline(always)]
    fn one_row<const N: usize>(&self, ky: usize, dx_pad: &mut [f32]) {
        let run = if N == 0 { self.run } else { N };
        let w = &self.filter[ky * run..][..run];
        for (pixel, g) in self.live.iter() {
            let at = self.pixels[pixel].window + ky * self.row;
            axpy(&mut dx_pad[at..at + run], g, w);
        }
    }

    /// The pass of kernel rows `ky` and `ky - 1`: for one pixel they land
    /// in different `dx` rows, and each `dx` element still takes its
    /// terms pixels ascending.
    #[inline(always)]
    fn two_rows<const N: usize>(&self, ky: usize, dx_pad: &mut [f32]) {
        let upper: [f32; N] = self.filter[ky * N..][..N].try_into().unwrap();
        let lower: [f32; N] = self.filter[(ky - 1) * N..][..N].try_into().unwrap();
        for (pixel, g) in self.live.iter() {
            let window = self.pixels[pixel].window;
            for (ky, w) in [(ky, &upper), (ky - 1, &lower)] {
                let at = window + ky * self.row;
                let d: &mut [f32; N] = (&mut dx_pad[at..at + N]).try_into().unwrap();
                for (d, &w) in d.iter_mut().zip(w) {
                    *d += g * w;
                }
            }
        }
    }
}

/// Where an output pixel's lane mask and kernel window start. Its tap
/// row starts at `pixel * width`.
#[derive(Clone, Copy)]
struct TapPixel {
    /// Into the masks.
    mask: usize,
    /// The window's first value in the padded image (and padded `dx`).
    window: usize,
}

/// Every output pixel's [`TapPixel`], `(oy, ox)` ascending, and the lane
/// masks: one row of `width` lanes per distinct pair of in-image `ky` and
/// `kx` ranges, `!0` where a tap lands in the image and `0` elsewhere (the
/// padding past the taps too).
fn tap_pixels(s: &ConvShape, width: usize) -> (Vec<TapPixel>, Vec<i32>) {
    let icg = s.c / s.groups;
    let k = s.kernel;
    let wp = s.w + 2 * s.padding;
    let (ky_ranges, ky_of) = range_classes((0..s.oh).map(|oy| s.taps(oy, s.h).0));
    let (kx_ranges, kx_of) = range_classes((0..s.ow).map(|ox| s.taps(ox, s.w).0));
    let mut masks = vec![0i32; ky_ranges.len() * kx_ranges.len() * width];
    let mut pairs = masks.chunks_exact_mut(width);
    for kys in &ky_ranges {
        for kxs in &kx_ranges {
            let mask = pairs.next().unwrap();
            for ky in kys.clone() {
                mask[(ky * k + kxs.start) * icg..(ky * k + kxs.end) * icg].fill(-1);
            }
        }
    }
    let mut pixels = Vec::with_capacity(s.oh * s.ow);
    for (oy, &r) in ky_of.iter().enumerate() {
        for (ox, &c) in kx_of.iter().enumerate() {
            pixels.push(TapPixel {
                mask: (r * kx_ranges.len() + c) * width,
                window: (oy * wp + ox) * s.stride * icg,
            });
        }
    }
    (pixels, masks)
}

/// How a sample's tap rows are cut from its padded image: one row of
/// `width` lanes per output pixel, [oy][ox][ky][kx][icg], its kernel rows
/// copied whole [`TAP_LANES`] chunks at a time. A chunk that runs past its
/// kernel row is overwritten by the next one, or by the chunk of zeros
/// written over the padding lanes past `taps`; what runs past the row
/// lands in the next pixel's row, which is built after it, or in the
/// slack past the end. A tap outside the image comes from the zero
/// border, so every lane that is not one of the pixel's in-image taps
/// holds `+0.0`.
struct TapRows<'a> {
    pixels: &'a [TapPixel],
    k: usize,
    /// Values in one kernel row, `k * icg`.
    run: usize,
    /// Values in one row of the padded image.
    line: usize,
    taps: usize,
    width: usize,
}

impl TapRows<'_> {
    /// Writes every pixel's tap row into `rows` from `x_pad`.
    #[inline(always)]
    fn build(&self, x_pad: &[f32], rows: &mut [f32]) {
        match self.run.div_ceil(TAP_LANES) {
            1 => self.build_in::<1>(x_pad, rows),
            2 => self.build_in::<2>(x_pad, rows),
            3 => self.build_in::<3>(x_pad, rows),
            4 => self.build_in::<4>(x_pad, rows),
            6 => self.build_in::<6>(x_pad, rows),
            _ => self.build_in::<0>(x_pad, rows),
        }
    }

    /// [`TapRows::build`] with `C` chunks per kernel row, a count the
    /// compiler unrolls; `C = 0` counts them at run time.
    #[inline(always)]
    fn build_in<const C: usize>(&self, x_pad: &[f32], rows: &mut [f32]) {
        let chunks = if C == 0 { self.run.div_ceil(TAP_LANES) } else { C };
        let lanes = chunks * TAP_LANES;
        // What one pixel's copies read and write: the last kernel row's
        // chunks, or the zero chunk over the padding lanes, end last.
        let read = (self.k - 1) * self.line + lanes;
        let written = ((self.k - 1) * self.run + lanes).max(self.taps + TAP_LANES);
        for (p, pixel) in self.pixels.iter().enumerate() {
            let (src, row) =
                (&x_pad[pixel.window..][..read], &mut rows[p * self.width..][..written]);
            for ky in 0..self.k {
                let (src, _) = src[ky * self.line..][..lanes].as_chunks::<TAP_LANES>();
                let (dst, _) = row[ky * self.run..][..lanes].as_chunks_mut::<TAP_LANES>();
                for (d, s) in dst.iter_mut().zip(src).take(chunks) {
                    *d = *s;
                }
            }
            if self.taps < self.width {
                row[self.taps..self.taps + TAP_LANES].fill(0.0);
            }
        }
    }
}

/// Every output pixel's tap row and mask.
struct TapView<'a> {
    rows: &'a [f32],
    width: usize,
    masks: &'a [i32],
    pixels: &'a [TapPixel],
}

impl TapView<'_> {
    /// [`TapView::accumulate`], with the lane select or without, on a
    /// block of any width [`tap_row_backward`] cuts: [`TAP_BLOCK`] or a
    /// multiple of [`TAP_LANES`] below it.
    #[inline(always)]
    fn walk(
        &self,
        masked: bool,
        at: usize,
        acc: &mut [f32],
        live: &Live<'_>,
        also: impl FnMut(f32),
    ) {
        if masked {
            self.walk_as::<true>(at, acc, live, also);
        } else {
            self.walk_as::<false>(at, acc, live, also);
        }
    }

    /// [`TapView::walk`] for one setting of the select.
    #[inline(always)]
    fn walk_as<const MASKED: bool>(
        &self,
        at: usize,
        acc: &mut [f32],
        live: &Live<'_>,
        also: impl FnMut(f32),
    ) {
        match acc.len() {
            TAP_BLOCK => {
                self.accumulate::<TAP_BLOCK, MASKED>(at, acc.try_into().unwrap(), live, also)
            }
            64 => self.accumulate::<64, MASKED>(at, acc.try_into().unwrap(), live, also),
            56 => self.accumulate::<56, MASKED>(at, acc.try_into().unwrap(), live, also),
            48 => self.accumulate::<48, MASKED>(at, acc.try_into().unwrap(), live, also),
            40 => self.accumulate::<40, MASKED>(at, acc.try_into().unwrap(), live, also),
            32 => self.accumulate::<32, MASKED>(at, acc.try_into().unwrap(), live, also),
            24 => self.accumulate::<24, MASKED>(at, acc.try_into().unwrap(), live, also),
            16 => self.accumulate::<16, MASKED>(at, acc.try_into().unwrap(), live, also),
            _ => self.accumulate::<8, MASKED>(at, acc.try_into().unwrap(), live, also),
        }
    }

    /// `acc[t] += g * row[t]` for each nonzero output gradient `g` in
    /// `live` (pixels ascending), where the pixel's tap `at + t` lies in
    /// the image; the accumulators stay in registers across the walk.
    ///
    /// A lane outside the image holds `+0.0` ([`TapRows`]), so while `g`
    /// is finite its product is a signed zero, and adding a signed zero
    /// leaves every accumulator but `-0.0` as it is. An accumulator that
    /// does not start at `-0.0` never becomes `-0.0` (a sum is `-0.0`
    /// only when both terms are), so unless some accumulator starts at
    /// `-0.0` or some `g` is infinite or NaN the walk adds every lane, as
    /// if the out-of-image taps were skipped. Otherwise (`MASKED`) a tap
    /// outside the image is a select on the pixel's lane mask, not an
    /// add: `g * 0.0` would turn a `-0.0` accumulator into `+0.0` and an
    /// infinite `g` into NaN. The multiply and the add stay two
    /// roundings: the dispatch seam never enables FMA.
    #[inline(always)]
    fn accumulate<const B: usize, const MASKED: bool>(
        &self,
        at: usize,
        acc: &mut [f32; B],
        live: &Live<'_>,
        mut also: impl FnMut(f32),
    ) {
        let mut a = *acc;
        for (pixel, g) in live.iter() {
            also(g);
            let row: &[f32; B] = self.rows[pixel * self.width + at..][..B].try_into().unwrap();
            if MASKED {
                let mask = self.pixels[pixel].mask;
                let mask: &[i32; B] = self.masks[mask + at..][..B].try_into().unwrap();
                for t in 0..B {
                    let sum = a[t] + g * row[t];
                    a[t] = if mask[t] < 0 { sum } else { a[t] };
                }
            } else {
                for t in 0..B {
                    a[t] += g * row[t];
                }
            }
        }
        *acc = a;
    }
}

/// [`conv_forward`] for a depthwise shape: everything channel-last, one
/// `out[pixel][..] += x[pixel + tap][..] * w[tap][..]` per tap, taps
/// `(ky, kx)` ascending.
fn depthwise_forward(s: &ConvShape, x: &[f32], wt: &[f32], bias: &[f32], out: &mut [f32]) {
    let (c, k) = (s.c, s.kernel);
    let (in_plane, out_plane) = (s.h * s.w, s.oh * s.ow);
    let mut w_cl = vec![0.0f32; wt.len()];
    transpose(wt, c, &mut w_cl);
    let cols = s.column_taps();
    let mut x_cl = vec![0.0f32; c * in_plane];
    let mut out_cl = vec![0.0f32; c * out_plane];
    for (x, out) in x.chunks_exact(c * in_plane).zip(out.chunks_exact_mut(c * out_plane)) {
        transpose(x, c, &mut x_cl);
        for (oy, out_row) in out_cl.chunks_exact_mut(s.ow * c).enumerate() {
            let (kys, iy0) = s.taps(oy, s.h);
            for (acc, (kxs, ix0)) in out_row.chunks_exact_mut(c).zip(&cols) {
                acc.copy_from_slice(bias);
                for (ky, iy) in kys.clone().zip(iy0..) {
                    for (kx, ix) in kxs.clone().zip(*ix0..) {
                        let xs = &x_cl[(iy * s.w + ix) * c..][..c];
                        let ws = &w_cl[(ky * k + kx) * c..][..c];
                        for ((a, &xv), &wv) in acc.iter_mut().zip(xs).zip(ws) {
                            *a += xv * wv;
                        }
                    }
                }
            }
        }
        transpose(&out_cl, out_plane, out);
    }
}

/// [`conv_backward`] for a depthwise shape. The reference skips a zero
/// output gradient; a lane cannot skip, so it keeps its old value.
fn depthwise_backward(
    s: &ConvShape,
    x: &[f32],
    wt: &[f32],
    dy: &[f32],
    dwt: &mut [f32],
    db: &mut [f32],
    mut dx: Option<&mut Vec<f32>>,
) {
    let (c, k) = (s.c, s.kernel);
    let (in_plane, out_plane) = (s.h * s.w, s.oh * s.ow);
    let mut w_cl = vec![0.0f32; wt.len()];
    let mut dw_cl = vec![0.0f32; wt.len()];
    transpose(wt, c, &mut w_cl);
    transpose(dwt, c, &mut dw_cl);
    let cols = s.column_taps();
    let mut x_cl = vec![0.0f32; c * in_plane];
    let with_dx = dx.is_some();
    let mut dx_cl = vec![0.0f32; if with_dx { c * in_plane } else { 0 }];
    let mut dy_cl = vec![0.0f32; c * out_plane];
    let samples = x.chunks_exact(c * in_plane).zip(dy.chunks_exact(c * out_plane));
    for (x, dy) in samples {
        transpose(x, c, &mut x_cl);
        transpose(dy, c, &mut dy_cl);
        dx_cl.fill(0.0);
        for (oy, g_row) in dy_cl.chunks_exact(s.ow * c).enumerate() {
            let (kys, iy0) = s.taps(oy, s.h);
            for (gs, (kxs, ix0)) in g_row.chunks_exact(c).zip(&cols) {
                for (b, &g) in db.iter_mut().zip(gs) {
                    *b = if g == 0.0 { *b } else { *b + g };
                }
                for (ky, iy) in kys.clone().zip(iy0..) {
                    for (kx, ix) in kxs.clone().zip(*ix0..) {
                        let at_x = (iy * s.w + ix) * c..(iy * s.w + ix + 1) * c;
                        let at_w = (ky * k + kx) * c..(ky * k + kx + 1) * c;
                        let pairs = dw_cl[at_w.clone()].iter_mut().zip(&x_cl[at_x.clone()]);
                        for ((d, &xv), &g) in pairs.zip(gs) {
                            *d = if g == 0.0 { *d } else { *d + g * xv };
                        }
                        if with_dx {
                            let pairs = dx_cl[at_x].iter_mut().zip(&w_cl[at_w]);
                            for ((d, &wv), &g) in pairs.zip(gs) {
                                *d = if g == 0.0 { *d } else { *d + g * wv };
                            }
                        }
                    }
                }
            }
        }
        if let Some(dx) = dx.as_deref_mut() {
            extend_channel_first(dx, &dx_cl, c);
        }
    }
    transpose(&dw_cl, k * k, dwt);
}

/// 2x2 / stride-2 max pooling over `planes` images of `h x w`; `slot`
/// receives where in its window each maximum sits, `2 * dy + dx`. A
/// window with no element above `-inf` yields `-inf` and slot 0, its
/// own first element, as the reference does.
///
/// One byte per output rather than a flat `usize` index: pool1's
/// indices at batch 16 were 128 KiB, allocated and zero-filled on every
/// training call. [`maxpool_backward`] rebuilds each index from its
/// slot. Each row walks its windows as column pairs zipped with its
/// outputs, with no index arithmetic or bounds check per window, and
/// the eval loop does not test for a slot per window: on pool1 both
/// run in under half the time of the indexed loop they replaced.
pub(crate) fn maxpool_forward(
    planes: usize,
    h: usize,
    w: usize,
    x: &[f32],
    out: &mut [f32],
    mut slot: Option<&mut [u8]>,
) {
    let (oh, ow) = (h / 2, w / 2);
    for p in 0..planes {
        for oy in 0..oh {
            let top = (p * h + 2 * oy) * w;
            let (upper, _) = x[top..top + 2 * ow].as_chunks::<2>();
            let (lower, _) = x[top + w..top + w + 2 * ow].as_chunks::<2>();
            let windows = upper.iter().zip(lower).map(|(u, l)| [u[0], u[1], l[0], l[1]]);
            let at = (p * oh + oy) * ow;
            let out = &mut out[at..at + ow];
            // Selects, not branches: which element wins is data.
            match slot.as_deref_mut() {
                None => {
                    for (out, window) in out.iter_mut().zip(windows) {
                        let mut best = f32::NEG_INFINITY;
                        for v in window {
                            best = if v > best { v } else { best };
                        }
                        *out = best;
                    }
                }
                Some(slot) => {
                    for ((out, slot), window) in
                        out.iter_mut().zip(&mut slot[at..at + ow]).zip(windows)
                    {
                        let (mut best, mut best_slot) = (f32::NEG_INFINITY, 0);
                        for (v, s) in window.into_iter().zip(0..) {
                            let wins = v > best;
                            best = if wins { v } else { best };
                            best_slot = if wins { s } else { best_slot };
                        }
                        *out = best;
                        *slot = best_slot;
                    }
                }
            }
        }
    }
}

/// The backward of [`maxpool_forward`]: each output's gradient added
/// into the `dx` element its `slot` names, outputs in ascending order.
/// The windows do not overlap, so every `dx` element takes at most one
/// add, into whatever `dx` held (zeros, for a layer).
pub(crate) fn maxpool_backward(
    planes: usize,
    h: usize,
    w: usize,
    slot: &[u8],
    grad: &[f32],
    dx: &mut [f32],
) {
    let (oh, ow) = (h / 2, w / 2);
    for p in 0..planes {
        for oy in 0..oh {
            let top = (p * h + 2 * oy) * w;
            let at = (p * oh + oy) * ow;
            for (ox, (&s, &g)) in slot[at..at + ow].iter().zip(&grad[at..at + ow]).enumerate() {
                let s = usize::from(s);
                dx[top + (s >> 1) * w + 2 * ox + (s & 1)] += g;
            }
        }
    }
}

/// The loop nests these kernels replaced, kept as the oracle: the
/// kernels above must match them to the bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::ConvShape;
    use crate::layers::idx4;

    pub(crate) fn conv_forward(s: &ConvShape, x: &[f32], wt: &[f32], b: &[f32], o: &mut [f32]) {
        let (n, c, h, w, oh, ow) = (s.n, s.c, s.h, s.w, s.oh, s.ow);
        let in_per_g = s.c / s.groups;
        let out_per_g = s.oc / s.groups;
        let k = s.kernel;
        for ni in 0..n {
            for g in 0..s.groups {
                for ocg in 0..out_per_g {
                    let oc = g * out_per_g + ocg;
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut acc = b[oc];
                            for icg in 0..in_per_g {
                                let ic = g * in_per_g + icg;
                                for ky in 0..k {
                                    let iy = oy * s.stride + ky;
                                    if iy < s.padding || iy - s.padding >= h {
                                        continue;
                                    }
                                    let iy = iy - s.padding;
                                    for kx in 0..k {
                                        let ix = ox * s.stride + kx;
                                        if ix < s.padding || ix - s.padding >= w {
                                            continue;
                                        }
                                        let ix = ix - s.padding;
                                        acc += x[idx4(ni, ic, iy, ix, c, h, w)]
                                            * wt[idx4(oc, icg, ky, kx, in_per_g, k, k)];
                                    }
                                }
                            }
                            o[idx4(ni, oc, oy, ox, s.oc, oh, ow)] = acc;
                        }
                    }
                }
            }
        }
    }

    pub(crate) fn conv_backward(
        s: &ConvShape,
        x: &[f32],
        wt: &[f32],
        dy: &[f32],
        dwt: &mut [f32],
        dbias: &mut [f32],
        dxd: &mut [f32],
    ) {
        let (n, c, h, w, oh, ow) = (s.n, s.c, s.h, s.w, s.oh, s.ow);
        let in_per_g = s.c / s.groups;
        let out_per_g = s.oc / s.groups;
        let k = s.kernel;
        dxd.fill(0.0);
        for ni in 0..n {
            for g in 0..s.groups {
                for ocg in 0..out_per_g {
                    let oc = g * out_per_g + ocg;
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let gval = dy[idx4(ni, oc, oy, ox, s.oc, oh, ow)];
                            if gval == 0.0 {
                                continue;
                            }
                            dbias[oc] += gval;
                            for icg in 0..in_per_g {
                                let ic = g * in_per_g + icg;
                                for ky in 0..k {
                                    let iy = oy * s.stride + ky;
                                    if iy < s.padding || iy - s.padding >= h {
                                        continue;
                                    }
                                    let iy = iy - s.padding;
                                    for kx in 0..k {
                                        let ix = ox * s.stride + kx;
                                        if ix < s.padding || ix - s.padding >= w {
                                            continue;
                                        }
                                        let ix = ix - s.padding;
                                        let xi = idx4(ni, ic, iy, ix, c, h, w);
                                        let wi = idx4(oc, icg, ky, kx, in_per_g, k, k);
                                        dwt[wi] += gval * x[xi];
                                        dxd[xi] += gval * wt[wi];
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    pub(crate) fn maxpool_forward(
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        x: &[f32],
        o: &mut [f32],
        arg: &mut [usize],
    ) {
        let (oh, ow) = (h / 2, w / 2);
        for ni in 0..n {
            for ci in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_i = idx4(ni, ci, oy * 2, ox * 2, c, h, w);
                        for dy in 0..2 {
                            for dxp in 0..2 {
                                let i = idx4(ni, ci, oy * 2 + dy, ox * 2 + dxp, c, h, w);
                                if x[i] > best {
                                    best = x[i];
                                    best_i = i;
                                }
                            }
                        }
                        let oi = idx4(ni, ci, oy, ox, c, oh, ow);
                        o[oi] = best;
                        arg[oi] = best_i;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsz_tensor::rng::{normal, seeded};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::Rng;

    fn shape(
        [n, c, h, w]: [usize; 4],
        oc: usize,
        [kernel, stride, padding, groups]: [usize; 4],
    ) -> ConvShape {
        let out = |size: usize| (size + 2 * padding - kernel) / stride + 1;
        ConvShape { n, c, h, w, oc, oh: out(h), ow: out(w), kernel, stride, padding, groups }
    }

    /// Normal samples, of which a share `zeros` are exact `0.0` or `-0.0`
    /// and a share `specials` are `+inf`, `-inf` or a NaN with a random
    /// sign and payload.
    fn samples(rng: &mut StdRng, len: usize, zeros: f64, specials: f64) -> Vec<f32> {
        (0..len)
            .map(|_| match rng.gen::<f64>() {
                p if p < zeros / 2.0 => 0.0,
                p if p < zeros => -0.0,
                p if p < zeros + specials / 3.0 => f32::INFINITY,
                p if p < zeros + specials * 2.0 / 3.0 => f32::NEG_INFINITY,
                p if p < zeros + specials => f32::from_bits(
                    rng.gen_range(0..2u32) << 31 | 0x7f80_0000 | rng.gen_range(1..1 << 23),
                ),
                _ => normal(rng),
            })
            .collect()
    }

    /// The raw bits of `values`, except that every NaN reads as one: an
    /// add of two NaNs keeps one operand's payload, and which one the
    /// compiler may pick by swapping the operands (Rust leaves NaN
    /// payloads unspecified), so only where a NaN lands is pinned.
    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() }).collect()
    }

    /// The outputs of [`conv_forward`], of [`BlockForward`]'s
    /// build-target copy and, on a host with AVX2, of its AVX2 copy. On a
    /// depthwise shape the first runs `depthwise_forward` and the block
    /// kernel runs all the same.
    fn forward_copies(
        s: &ConvShape,
        x: &[f32],
        wt: &[f32],
        bias: &[f32],
    ) -> Vec<(&'static str, Vec<f32>)> {
        let len = s.n * s.oc * s.oh * s.ow;
        let mut outs = vec![vec![f32::NAN; len]; 3];
        conv_forward(s, x, wt, bias, &mut outs[0]);
        BlockForward { s, x, wt, bias, out: &mut outs[1] }.run();
        let mut names = vec!["conv_forward", "build-target block kernel"];
        if simd::avx2(BlockForward { s, x, wt, bias, out: &mut outs[2] }).is_some() {
            names.push("avx2 block kernel");
        } else {
            println!("skipped the AVX2 block kernel: this host has no AVX2");
        }
        names.into_iter().zip(outs).collect()
    }

    /// What one copy of the backward wrote.
    struct Grads {
        copy: String,
        dw: Vec<f32>,
        db: Vec<f32>,
        dx: Option<Vec<f32>>,
    }

    /// The gradients of [`conv_backward`], of [`TapRowBackward`]'s
    /// build-target copy and, on a host with AVX2, of its AVX2 copy, each
    /// with and without `dx`, from `dW`/`db` starting at `dw`/`db`. On a
    /// depthwise shape the first runs `depthwise_backward` and the
    /// tap-row kernel runs all the same.
    fn backward_copies(
        s: &ConvShape,
        (x, wt, dy): (&[f32], &[f32], &[f32]),
        dw: &[f32],
        db: &[f32],
    ) -> Vec<Grads> {
        let mut copies = Vec::new();
        for with_dx in [true, false] {
            for copy in ["conv_backward", "build-target tap-row kernel", "avx2 tap-row kernel"] {
                let mut grads = Grads {
                    copy: format!("{copy}{}", if with_dx { "" } else { " without dx" }),
                    dw: dw.to_vec(),
                    db: db.to_vec(),
                    dx: with_dx.then(Vec::new),
                };
                let (dwt, db, dx) = (&mut grads.dw[..], &mut grads.db[..], grads.dx.as_mut());
                let ran = match copy {
                    "conv_backward" => {
                        conv_backward(s, x, wt, dy, dwt, db, dx);
                        true
                    }
                    "build-target tap-row kernel" => {
                        TapRowBackward { s, x, wt, dy, dwt, db, dx }.run();
                        true
                    }
                    _ => simd::avx2(TapRowBackward { s, x, wt, dy, dwt, db, dx }).is_some(),
                };
                if ran {
                    copies.push(grads);
                } else if with_dx {
                    println!("skipped the AVX2 tap-row kernel: this host has no AVX2");
                }
            }
        }
        copies
    }

    /// Runs a forward and two backward passes through every copy of the
    /// kernels and the loop nests and compares every output bit. `dW`/`db`
    /// start at `-0.0`, then from arbitrary values, signed zeros among
    /// them, as a step without `zero_grad` would leave them; with
    /// `specials > 0` some inputs, weights and output gradients are
    /// infinite or NaN, which tells a skipped tap or gradient from one
    /// multiplied by zero. Each pass also runs the backwards that write no
    /// `dx`, whose `dW`/`db` must be the full backward's.
    fn assert_matches_reference(
        s: &ConvShape,
        seed: u64,
        specials: f64,
    ) -> Result<(), TestCaseError> {
        let rng = &mut seeded(seed);
        let taps = s.c / s.groups * s.kernel * s.kernel;
        let x = samples(rng, s.n * s.c * s.h * s.w, 0.3, specials);
        let wt = samples(rng, s.oc * taps, 0.1, specials);
        let bias = samples(rng, s.oc, 0.3, 0.0);
        let out_len = s.n * s.oc * s.oh * s.ow;
        let mut want = vec![0.0; out_len];
        reference::conv_forward(s, &x, &wt, &bias, &mut want);
        for (copy, out) in forward_copies(s, &x, &wt, &bias) {
            prop_assert_eq!(bits(&out), bits(&want), "{} forward, {:?}", copy, s);
        }

        for pass in 0..2 {
            let (dw, db) = match pass {
                0 => (vec![-0.0; wt.len()], vec![-0.0; s.oc]),
                _ => (samples(rng, wt.len(), 0.5, 0.0), samples(rng, s.oc, 0.5, 0.0)),
            };
            let dy = samples(rng, out_len, 0.5, specials);
            let (mut dw_want, mut db_want, mut dx_want) =
                (dw.clone(), db.clone(), vec![0.0; x.len()]);
            reference::conv_backward(s, &x, &wt, &dy, &mut dw_want, &mut db_want, &mut dx_want);
            for Grads { copy, dw, db, dx } in backward_copies(s, (&x, &wt, &dy), &dw, &db) {
                prop_assert_eq!(bits(&dw), bits(&dw_want), "{} dW, pass {}, {:?}", copy, pass, s);
                prop_assert_eq!(bits(&db), bits(&db_want), "{} db, pass {}, {:?}", copy, pass, s);
                if let Some(dx) = dx {
                    prop_assert_eq!(
                        bits(&dx),
                        bits(&dx_want),
                        "{} dx, pass {}, {:?}",
                        copy,
                        pass,
                        s
                    );
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Kernel, stride, padding (past `kernel / 2` too), the three
        /// group structures, channel counts on both sides of a
        /// `LANES` tile, `H != W` down to `h + 2p == k`, and widths
        /// past two whole blocks of the forward.
        #[test]
        fn conv_kernels_match_the_loop_nest_bit_for_bit(
            kernel in prop_oneof![Just(1usize), Just(3usize), Just(5usize)],
            stride in 1usize..4,
            padding in 0usize..4,
            grouping in 0usize..3,
            (icg, ocg) in (1usize..4, prop_oneof![1usize..4, Just(17usize), Just(33usize)]),
            (n, dh, dw) in (1usize..4, 0usize..6, prop_oneof![0usize..6, 6usize..20]),
            specials in prop_oneof![Just(0.0), Just(0.0), Just(0.0), Just(0.05)],
            seed in any::<u64>(),
        ) {
            let (c, groups) = match grouping {
                0 => (icg, 1),
                1 => (2 * icg, 2),
                _ => (icg, icg), // depthwise, with a channel multiplier
            };
            let smallest = kernel.saturating_sub(2 * padding).max(1);
            let s = shape(
                [n, c, smallest + dh, smallest + dw],
                groups * ocg,
                [kernel, stride, padding, groups],
            );
            assert_matches_reference(&s, seed, specials)?;
        }

        /// Ties, signed zeros, `-inf`-only and NaN windows, odd sides.
        #[test]
        fn maxpool_kernel_matches_the_loop_nest(
            (n, c, h, w) in (1usize..3, 1usize..4, 1usize..8, 1usize..8),
            seed in any::<u64>(),
        ) {
            let rng = &mut seeded(seed);
            let palette = [-1.0, 0.0, -0.0, 1.0, 1.0, 2.0, f32::NEG_INFINITY, f32::NAN];
            let x: Vec<f32> =
                (0..n * c * h * w).map(|_| palette[rng.gen_range(0..palette.len())]).collect();
            let len = n * c * (h / 2) * (w / 2);
            let (mut out, mut slot) = (vec![0.0; len], vec![u8::MAX; len]);
            let (mut want, mut want_arg) = (out.clone(), vec![usize::MAX; len]);
            maxpool_forward(n * c, h, w, &x, &mut out, Some(&mut slot));
            reference::maxpool_forward(n, c, h, w, &x, &mut want, &mut want_arg);
            prop_assert_eq!(bits(&out), bits(&want));
            let mut eval = vec![0.0; len];
            maxpool_forward(n * c, h, w, &x, &mut eval, None);
            prop_assert_eq!(bits(&eval), bits(&want));
            // Each slot must name the reference's argmax: a distinct
            // gradient per output lands where the reference's index
            // puts it, and nowhere else.
            let grad: Vec<f32> = (0..len).map(|i| 1.0 + i as f32).collect();
            let mut dx = vec![0.0; x.len()];
            maxpool_backward(n * c, h, w, &slot, &grad, &mut dx);
            let mut want_dx = vec![0.0; x.len()];
            for (&i, &g) in want_arg.iter().zip(&grad) {
                want_dx[i] += g;
            }
            prop_assert_eq!(bits(&dx), bits(&want_dx));
        }
    }

    /// A window with nothing above `-inf` sends its gradient to its own
    /// first element, never into another sample.
    #[test]
    fn maxpool_without_a_maximum_keeps_its_gradient_in_its_window() {
        // Two samples of one 2x2 plane; sample 1 is all NaN.
        let x = [1.0, 4.0, 2.0, 3.0, f32::NAN, f32::NAN, f32::NAN, f32::NAN];
        let (mut out, mut slot) = ([0.0; 2], [u8::MAX; 2]);
        maxpool_forward(2, 2, 2, &x, &mut out, Some(&mut slot));
        let (mut want, mut want_arg) = ([0.0; 2], [usize::MAX; 2]);
        reference::maxpool_forward(2, 1, 2, 2, &x, &mut want, &mut want_arg);
        assert_eq!(want_arg, [1, 4], "the reference's argmax");
        let mut dx = [0.0; 8];
        maxpool_backward(2, 2, 2, &slot, &[10.0, 20.0], &mut dx);
        assert_eq!(dx, [0.0, 10.0, 0.0, 0.0, 20.0, 0.0, 0.0, 0.0]);
    }

    /// Every way [`Windows`] cuts a row into blocks, on both copies of
    /// the forward: output widths 1 to 19 (below one block, whole
    /// blocks, every remainder, border columns pooled), rows that are
    /// all border (`h + 2p == k`) and rows with an interior, strides 1
    /// to 3, padding 0 to 2, kernels 1, 3 and 5, one tile and a tile
    /// plus one lane, one group and two; with infinities and NaN
    /// payloads in the inputs and weights, so that a tap multiplied by
    /// a padding zero would show.
    #[test]
    fn forward_blocks_match_the_loop_nest() {
        let geometries: [[usize; 3]; 7] =
            [[3, 1, 1], [3, 2, 1], [3, 3, 0], [1, 1, 0], [1, 2, 2], [5, 1, 2], [5, 2, 0]];
        let mut seed = 0;
        for [kernel, stride, padding] in geometries {
            for ow in 1..20 {
                let w = ((ow - 1) * stride + kernel).saturating_sub(2 * padding);
                if w == 0 {
                    continue;
                }
                let border = kernel.saturating_sub(2 * padding).max(1);
                for (h, ocg, groups) in [(border, 16, 1), (border + 2, 17, 2)] {
                    let geometry = [kernel, stride, padding, groups];
                    let s = shape([1, 2 * groups, h, w], ocg * groups, geometry);
                    assert_eq!(s.ow, ow, "{s:?}");
                    seed += 1;
                    assert_matches_reference(&s, seed, 0.05).unwrap_or_else(|e| panic!("{e:?}"));
                }
            }
        }
    }

    /// The shapes the tracked models run, at full size, and the edges
    /// of the tap-row backward: a stride-2 1x1 kernel over two groups,
    /// padding 0 and padding 2 around a 3x3 kernel on odd sides. Each
    /// runs clean and with infinities and NaN payloads in `x`, the
    /// weights and `dy`.
    #[test]
    fn model_shapes_match_the_loop_nest() {
        let shapes = [
            shape([2, 3, 16, 16], 16, [3, 1, 1, 1]),   // AlexNet conv1
            shape([2, 16, 8, 8], 32, [3, 1, 1, 1]),    // AlexNet conv2
            shape([2, 16, 16, 16], 16, [3, 2, 1, 16]), // MobileNetV2 depthwise
            shape([2, 24, 4, 4], 64, [1, 1, 0, 1]),    // MobileNetV2 head
            shape([2, 16, 16, 16], 32, [1, 2, 0, 1]),  // ResNet shortcut
            shape([2, 6, 7, 9], 10, [1, 2, 0, 2]),
            shape([2, 5, 9, 7], 6, [3, 1, 0, 1]),
            shape([2, 5, 7, 11], 6, [3, 1, 2, 1]),
        ];
        for (i, s) in shapes.iter().enumerate() {
            for specials in [0.0, 0.05] {
                assert_matches_reference(s, i as u64, specials).unwrap_or_else(|e| panic!("{e:?}"));
            }
        }
    }

    /// Where the backward's `dW`/`db` accumulators start.
    #[derive(Debug, Clone, Copy)]
    enum Start {
        /// `+0.0`, as `zero_grad` leaves them: with a finite `dy` the
        /// walks add their out-of-image lanes instead of selecting.
        Zero,
        /// `-0.0`, which the lane select must keep.
        NegativeZero,
        /// Normal values, a third of them signed zeros.
        Drawn,
    }

    /// One backward of every copy against the loop nest, as in
    /// [`assert_matches_reference`], from accumulators at `start`, on an
    /// output gradient a share `zeros` of which is zero and, with
    /// `specials > 0`, on inputs, weights and (`specials_in_dy`) output
    /// gradients with infinities and NaNs among them.
    fn assert_backward_matches(
        s: &ConvShape,
        seed: u64,
        start: Start,
        zeros: f64,
        (specials, specials_in_dy): (f64, bool),
    ) -> Result<(), TestCaseError> {
        let rng = &mut seeded(seed);
        let taps = s.c / s.groups * s.kernel * s.kernel;
        let x = samples(rng, s.n * s.c * s.h * s.w, 0.3, specials);
        let wt = samples(rng, s.oc * taps, 0.1, specials);
        let dy_specials = if specials_in_dy { specials } else { 0.0 };
        let dy = samples(rng, s.n * s.oc * s.oh * s.ow, zeros, dy_specials);
        let (dw, db) = match start {
            Start::Zero => (vec![0.0; wt.len()], vec![0.0; s.oc]),
            Start::NegativeZero => (vec![-0.0; wt.len()], vec![-0.0; s.oc]),
            Start::Drawn => (samples(rng, wt.len(), 0.3, 0.0), samples(rng, s.oc, 0.3, 0.0)),
        };
        let (mut dw_want, mut db_want, mut dx_want) = (dw.clone(), db.clone(), vec![0.0; x.len()]);
        reference::conv_backward(s, &x, &wt, &dy, &mut dw_want, &mut db_want, &mut dx_want);
        for Grads { copy, dw, db, dx } in backward_copies(s, (&x, &wt, &dy), &dw, &db) {
            let case = format!("{copy}, {start:?}, {zeros} zero, {specials} special, {s:?}");
            prop_assert_eq!(bits(&dw), bits(&dw_want), "dW: {}", case);
            prop_assert_eq!(bits(&db), bits(&db_want), "db: {}", case);
            if let Some(dx) = dx {
                prop_assert_eq!(bits(&dx), bits(&dx_want), "dx: {}", case);
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The backward as training runs it: accumulators from `+0.0` and
        /// a finite output gradient, so the walks add every lane, on the
        /// shapes of `conv_kernels_match_the_loop_nest_bit_for_bit` and
        /// with infinities and NaNs in the inputs and weights.
        #[test]
        fn unselected_backward_matches_the_loop_nest_bit_for_bit(
            kernel in prop_oneof![Just(1usize), Just(3usize), Just(5usize)],
            stride in 1usize..4,
            padding in 0usize..4,
            grouping in 0usize..3,
            (icg, ocg) in (1usize..4, prop_oneof![1usize..4, Just(17usize)]),
            (n, dh, dw) in (1usize..3, 0usize..6, prop_oneof![0usize..6, 6usize..20]),
            zeros in prop_oneof![Just(0.0), Just(0.5), Just(0.75), Just(1.0)],
            specials in prop_oneof![Just(0.0), Just(0.05)],
            seed in any::<u64>(),
        ) {
            let (c, groups) = match grouping {
                0 => (icg, 1),
                1 => (2 * icg, 2),
                _ => (icg, icg),
            };
            let smallest = kernel.saturating_sub(2 * padding).max(1);
            let s = shape(
                [n, c, smallest + dh, smallest + dw],
                groups * ocg,
                [kernel, stride, padding, groups],
            );
            assert_backward_matches(&s, seed, Start::Zero, zeros, (specials, false))?;
        }
    }

    /// The backward's edges, on both copies with `dx` and without: strides
    /// 1 to 3, padding 0 to 2, kernels 1, 3 and 5, one group and two;
    /// filters of 9, 72 and 81 taps (one `TAP_LANES` chunk with padding
    /// lanes, exactly one `TAP_BLOCK`, two blocks), 50 and 75 at kernel 5,
    /// and 144 (kernel rows of 48, which `dx` walks two at a time); output
    /// planes of 7 to 9 and 63 to 65 pixels (the
    /// lister's chunk and group edges) and rows 1 to 19 wide. Output
    /// gradients all zero, all nonzero and three in four zero; the
    /// accumulators from `+0.0`, `-0.0` and drawn values; clean and with
    /// infinities and NaN payloads in `x`, the weights and (from `-0.0`
    /// and drawn starts) `dy`, so that a lane multiplied by a padding
    /// zero, an added zero gradient or a term out of order would show.
    #[test]
    fn backward_matches_the_loop_nest_across_its_edges() {
        // (kernel, stride, padding, input channels per group)
        let filters = [
            (3, 1, 1, 1),
            (3, 2, 1, 8),
            (3, 1, 0, 9),
            (1, 1, 0, 9),
            (1, 3, 0, 8),
            (5, 1, 2, 2),
            (5, 2, 1, 3),
            (3, 3, 2, 1),
            (3, 1, 1, 16),
            (3, 2, 0, 16),
        ];
        // (oh, ow): planes of 7, 8, 9, 63, 64 and 65 pixels, rows of 1
        // and 19.
        let planes = [(1, 7), (1, 8), (1, 9), (7, 9), (8, 8), (5, 13), (3, 1), (2, 19)];
        let mut seed = 0;
        for (kernel, stride, padding, icg) in filters {
            for (i, &(oh, ow)) in planes.iter().enumerate() {
                let side =
                    |o: usize| ((o - 1) * stride + kernel).saturating_sub(2 * padding).max(1);
                let groups = 1 + i % 2;
                let s = shape(
                    [1, groups * icg, side(oh), side(ow)],
                    groups * 2,
                    [kernel, stride, padding, groups],
                );
                if (s.oh, s.ow) != (oh, ow) {
                    continue;
                }
                for zeros in [1.0, 0.0, 0.75] {
                    for start in [Start::Zero, Start::NegativeZero, Start::Drawn] {
                        for specials in [0.0, 0.05] {
                            seed += 1;
                            let in_dy = !matches!(start, Start::Zero);
                            assert_backward_matches(&s, seed, start, zeros, (specials, in_dy))
                                .unwrap_or_else(|e| panic!("{e:?}"));
                        }
                    }
                }
            }
        }
        assert!(seed > 700, "only {seed} cases ran");
    }

    /// Forward + backward, the kernels against the loop nest
    /// ([`fedsz_codec::speed::gate`]); release mode only, debug timings
    /// mean nothing.
    #[test]
    #[ignore = "a timing ratio: run with --release -- --ignored"]
    fn row_conv_is_2x_the_loop_reference() {
        // (shape, share of zero output gradients, floor): the AlexNet
        // convolutions sit under ReLU + max-pool, which zero most of
        // `dy` (three in four behind conv1's pool, at random positions);
        // the other two sit under batch norm, which zeroes none. Over 10
        // runs on a 2-core Xeon the medians read conv1 9.8-12.9x (median
        // 11.8x), conv2 25.8-28.0x (27.0x), depthwise 2.00-2.23x (2.19x)
        // and stride-2 17.5-22.2x (20.0x).
        let cases = [
            ("alexnet conv1 3->16 @ 16x16", shape([16, 3, 16, 16], 16, [3, 1, 1, 1]), 0.75, 4.0),
            ("alexnet conv2 16->32 @ 8x8", shape([16, 16, 8, 8], 32, [3, 1, 1, 1]), 0.5, 2.0),
            ("depthwise 16 @ 16x16", shape([16, 16, 16, 16], 16, [3, 1, 1, 16]), 0.0, 1.0),
            ("stride-2 16->32 @ 16x16", shape([16, 16, 16, 16], 32, [3, 2, 1, 1]), 0.0, 1.0),
        ];
        for (name, s, zeros, floor) in cases {
            let rng = &mut seeded(19);
            let taps = s.c / s.groups * s.kernel * s.kernel;
            let x = samples(rng, s.n * s.c * s.h * s.w, 0.5, 0.0);
            let wt = samples(rng, s.oc * taps, 0.0, 0.0);
            let bias = samples(rng, s.oc, 0.0, 0.0);
            let dy = samples(rng, s.n * s.oc * s.oh * s.ow, zeros, 0.0);
            let (mut out, mut dw, mut db) =
                (vec![0.0; dy.len()], vec![0.0; wt.len()], vec![0.0; s.oc]);
            let (mut ref_out, mut ref_dw, mut ref_db, mut ref_dx) =
                (out.clone(), dw.clone(), db.clone(), vec![0.0; x.len()]);
            fedsz_codec::speed::gate(
                &format!("{name} forward + backward, kernels against the loop nest"),
                floor,
                || {
                    conv_forward(&s, &x, &wt, &bias, &mut out);
                    let mut dx = Vec::with_capacity(x.len());
                    conv_backward(&s, &x, &wt, &dy, &mut dw, &mut db, Some(&mut dx));
                    std::hint::black_box((&out, &dw, &db, &dx));
                },
                || {
                    reference::conv_forward(&s, &x, &wt, &bias, &mut ref_out);
                    let (dw, db, dx) = (&mut ref_dw, &mut ref_db, &mut ref_dx);
                    reference::conv_backward(&s, &x, &wt, &dy, dw, db, dx);
                    std::hint::black_box((&ref_out, &ref_dw, &ref_db, &ref_dx));
                },
            );
        }
    }

    /// [`row_conv_is_2x_the_loop_reference`] times forward and backward
    /// together, so a backward gain could hide a forward regression:
    /// this times the forward alone, the dispatched block kernel against
    /// the loop nest, on tiny AlexNet's two convolutions at batch 16.
    #[test]
    #[ignore = "a timing ratio: run with --release -- --ignored"]
    fn block_forward_is_2x_the_loop_reference() {
        // (shape, floor): over 10 runs on a 2-core Xeon with AVX2 the
        // medians read conv1 36.6-43.1x (median 37.9x) and conv2
        // 48.1-59.8x (51.3x). The tap-outer row kernel this one replaced
        // read 21-37x and 27-38x there, best of 7; the per-pixel tile
        // before it, 9-15x and 12-20x.
        let cases = [
            ("alexnet conv1 3->16 @ 16x16", shape([16, 3, 16, 16], 16, [3, 1, 1, 1]), 23.0),
            ("alexnet conv2 16->32 @ 8x8", shape([16, 16, 8, 8], 32, [3, 1, 1, 1]), 33.0),
        ];
        for (name, s, floor) in cases {
            let rng = &mut seeded(29);
            let taps = s.c / s.groups * s.kernel * s.kernel;
            let x = samples(rng, s.n * s.c * s.h * s.w, 0.5, 0.0);
            let wt = samples(rng, s.oc * taps, 0.0, 0.0);
            let bias = samples(rng, s.oc, 0.0, 0.0);
            let mut out = vec![0.0; s.n * s.oc * s.oh * s.ow];
            let mut ref_out = out.clone();
            fedsz_codec::speed::gate(
                &format!("{name} forward, block kernel against the loop nest"),
                floor,
                || {
                    conv_forward(&s, &x, &wt, &bias, &mut out);
                    std::hint::black_box(&out);
                },
                || {
                    reference::conv_forward(&s, &x, &wt, &bias, &mut ref_out);
                    std::hint::black_box(&ref_out);
                },
            );
        }
    }

    /// The backward alone, the AVX2 copy of the tap-row kernel against
    /// the loop nest ([`fedsz_codec::speed::gate`]). conv1 runs without
    /// `dx`, as the network's first layer does (the loop nest always
    /// computes it: its time is a yardstick, not a like-for-like). A host
    /// without AVX2 skips the gate.
    #[test]
    #[ignore = "a timing ratio: run with --release -- --ignored"]
    fn backward_is_2x_the_loop_reference() {
        // (shape, share of zero output gradients, dx, floor). Over 10
        // runs on a 2-core Xeon with AVX2 the medians read conv1
        // 11.7-15.1x (median 13.2x), conv2 12.0-15.7x (13.4x) and
        // stride-2 11.0-16.2x (12.6x). The tap rows this kernel rebuilt read 7.6-8.8x,
        // 9.7-10.3x and 8.7-10.4x there (best of 7), and the per-nonzero
        // axpys before them 3.1x, 6.2-6.9x and 6.2-7.4x.
        let cases = [
            (
                "alexnet conv1 3->16 @ 16x16",
                shape([16, 3, 16, 16], 16, [3, 1, 1, 1]),
                0.75,
                false,
                7.5,
            ),
            ("alexnet conv2 16->32 @ 8x8", shape([16, 16, 8, 8], 32, [3, 1, 1, 1]), 0.5, true, 9.0),
            ("stride-2 16->32 @ 16x16", shape([16, 16, 16, 16], 32, [3, 2, 1, 1]), 0.0, true, 8.5),
        ];
        if !simd::has_avx2() {
            println!("skipped: this host has no AVX2, so the gate's floors do not apply");
            return;
        }
        for (name, s, zeros, with_dx, floor) in cases {
            let rng = &mut seeded(31);
            let taps = s.c / s.groups * s.kernel * s.kernel;
            let x = samples(rng, s.n * s.c * s.h * s.w, 0.5, 0.0);
            let wt = samples(rng, s.oc * taps, 0.0, 0.0);
            let dy = samples(rng, s.n * s.oc * s.oh * s.ow, zeros, 0.0);
            let (x, wt, dy) = (&x[..], &wt[..], &dy[..]);
            let (mut dwt, mut db) = (vec![0.0; wt.len()], vec![0.0; s.oc]);
            let (mut ref_dwt, mut ref_db, mut ref_dx) =
                (vec![0.0; wt.len()], vec![0.0; s.oc], vec![0.0; x.len()]);
            fedsz_codec::speed::gate(
                &format!("{name} backward, AVX2 tap-row kernel against the loop nest"),
                floor,
                || {
                    let mut dx = Vec::with_capacity(if with_dx { x.len() } else { 0 });
                    let (dwt, db, dx_out) = (&mut dwt, &mut db, with_dx.then_some(&mut dx));
                    simd::avx2(TapRowBackward { s: &s, x, wt, dy, dwt, db, dx: dx_out });
                    std::hint::black_box((&dwt, &db, &dx));
                },
                || {
                    reference::conv_backward(&s, x, wt, dy, &mut ref_dwt, &mut ref_db, &mut ref_dx);
                    std::hint::black_box((&ref_dwt, &ref_db, &ref_dx));
                },
            );
        }
    }
}
