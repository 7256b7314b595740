//! The AVX2 seam of the codec crates: a hot loop written once, compiled
//! twice, and picked at run time.
//!
//! The workspace builds for baseline x86-64, whose SSE2 vectors hold two
//! `f64`s; on a host with AVX2 the same loops could run four wide. A
//! [`Kernel`]'s body is `#[inline(always)]`, so every kernel [`dispatch`]
//! runs exists twice: once compiled for the build target, and once
//! inlined into a `#[target_feature(enable = "avx2")]` wrapper. No
//! intrinsic is written anywhere: the compiler widens the loops.
//!
//! # Same source, same bits
//!
//! The wrapper enables `avx2` only — never `fma`, so no multiply and add
//! are fused into one rounding — and Rust neither reassociates nor
//! contracts floating-point arithmetic. Both copies therefore compute
//! every value with the same operations in the same order, and produce
//! the same bytes by construction. The oracle tests of each kernel
//! (`sz2.rs`, `huffman.rs`) run both copies on the same inputs and
//! compare, so a change that broke this would fail tier-1 on any AVX2
//! host.
//!
//! # Where the line is drawn
//!
//! A kernel is dispatched once per tensor or block stream, never per
//! block, and holds every loop of that stream it calls: a callee that is
//! not inlined into the wrapper runs the build target's code. Callees
//! on the hot path are therefore `#[inline(always)]` too (or small
//! enough that the compiler inlines them anyway).
//!
//! The one `unsafe` is the call into the wrapper, whose only
//! precondition — that the CPU has AVX2 — is checked just before it. A
//! crate that dispatches its own kernels through [`dispatch`] needs no
//! `unsafe` of its own.

#![deny(clippy::undocumented_unsafe_blocks)]

/// A hot loop to compile for the build target and for AVX2.
///
/// Implementations mark [`Kernel::run`] `#[inline(always)]`: a body that
/// is not inlined into [`dispatch`]'s wrapper is compiled once, for the
/// build target, and the AVX2 path would gain nothing.
pub trait Kernel {
    /// What the loop produces.
    type Output;

    /// The loop itself, as the build target compiles it.
    fn run(self) -> Self::Output;
}

/// Runs `kernel`'s AVX2 copy when the CPU has AVX2, its build-target
/// copy otherwise. The two return the same value.
#[inline]
pub fn dispatch<K: Kernel>(kernel: K) -> K::Output {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 was detected just above, which is the only
        // precondition of calling a `#[target_feature(enable = "avx2")]`
        // function.
        return unsafe { avx2_copy(kernel) };
    }
    kernel.run()
}

/// `kernel`'s AVX2 copy, or `None` on a CPU without AVX2: what the
/// oracle tests and speed gates hold against [`Kernel::run`].
pub fn avx2<K: Kernel>(kernel: K) -> Option<K::Output> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return Some(dispatch(kernel));
    }
    drop(kernel);
    None
}

/// [`Kernel::run`], inlined under AVX2 code generation.
///
/// # Safety
///
/// The running CPU must support AVX2; that is the only reason a call
/// from code without the feature enabled is `unsafe`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2_copy<K: Kernel>(kernel: K) -> K::Output {
    kernel.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An `f64` loop whose sum depends on its order.
    struct Sum<'a>(&'a [f64]);

    impl Kernel for Sum<'_> {
        type Output = f64;

        #[inline(always)]
        fn run(self) -> f64 {
            self.0.iter().fold(0.0, |acc, &x| acc * 0.5 + x * 1.25)
        }
    }

    #[test]
    fn both_copies_agree() {
        let data: Vec<f64> = (0..1000).map(|i| (f64::from(i) * 0.37).sin() * 1e3).collect();
        let portable = Sum(&data).run();
        assert_eq!(dispatch(Sum(&data)).to_bits(), portable.to_bits());
        match avx2(Sum(&data)) {
            Some(avx2) => assert_eq!(avx2.to_bits(), portable.to_bits()),
            None => {
                println!("skipped: this host has no AVX2, so the portable copy is the only path")
            }
        }
    }
}
