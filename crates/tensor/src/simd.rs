//! Runtime-dispatched wide-vector compilation of the hot numeric kernels,
//! and the workspace's one CPU-feature probe.
//!
//! The workspace builds for baseline `x86-64` (SSE2, 4 f32 lanes) so the
//! binaries stay portable. The hot loops, however, are memory-bandwidth and
//! port-width bound: on an AVX2 (8-lane) or AVX-512 (16-lane) machine the
//! baseline codegen leaves most of the vector unit idle. [`simd_hot!`](crate::simd_hot)
//! closes that gap without a second build: it compiles the *same* function
//! body once per feature tier behind `#[target_feature]`, and a cached
//! one-time CPUID probe ([`tiers`]) picks the widest tier the host supports.
//! The same probe picks the carry-less-multiply fold of [`crate::crc`].
//!
//! # Why this cannot change results
//!
//! The repo's determinism contract is bitwise: every reduction consumes its
//! terms in a fixed order, one exactly-rounded IEEE op at a time. Widening
//! the vector unit cannot break that, for two structural reasons:
//!
//! 1. rustc emits no fast-math flags, so LLVM is not *allowed* to
//!    reassociate floating-point reductions or contract `a*b + c` into an
//!    FMA — the only transforms that could alter rounding. Loops that
//!    auto-vectorize are exactly the element-independent ones, where each
//!    lane is the same serial chain of exactly-rounded ops it was in scalar
//!    code (IEEE-754 `mulps`/`addps`/`divps`/`sqrtps` are exact per lane).
//! 2. Serial dependence (dot products, running sums, `softmax` row sums)
//!    therefore stays scalar in every tier — slower, but bit-stable.
//!
//! Consequently baseline, AVX2 and AVX-512 tiers return identical bits and
//! the dispatch never needs to be pinned for reproducibility. The
//! `fused_attention` / pooled-vs-fresh equivalence suites run the same
//! kernels on whatever host executes them, so any codegen deviation would
//! trip the bitwise asserts immediately.

use std::sync::atomic::{AtomicU8, Ordering};

/// Baseline tier: whatever the crate was compiled for (SSE2 on x86-64).
pub const BASELINE: u8 = 0;
/// AVX2 tier: 8-lane f32 vectors.
pub const AVX2: u8 = 1;
/// AVX-512 tier: 16-lane f32 vectors (F/VL/DQ/BW, the f32-relevant subset).
pub const AVX512: u8 = 2;

/// CRC fold tier: the slicing-by-8 table (see [`crate::crc`]).
pub const CRC_TABLE: u8 = 0;
/// CRC fold tier: PCLMULQDQ over eight 128-bit accumulators.
pub const CRC_XMM: u8 = 1;
/// CRC fold tier: VPCLMULQDQ over four 512-bit accumulators.
pub const CRC_ZMM: u8 = 2;

/// What the one CPU probe selects: the vector tier [`simd_hot!`](crate::simd_hot)
/// dispatches on and the CRC fold [`crate::crc`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tiers {
    /// [`BASELINE`], [`AVX2`] or [`AVX512`].
    pub vector: u8,
    /// [`CRC_TABLE`], [`CRC_XMM`] or [`CRC_ZMM`].
    pub crc: u8,
}

/// The tiers in force, packed `vector | crc << 4`; `UNPROBED` until the
/// first [`tiers`] call. It publishes no other data, so every access is
/// `Relaxed`.
static TIERS: AtomicU8 = AtomicU8::new(UNPROBED);
const UNPROBED: u8 = u8::MAX;

fn pack(t: Tiers) -> u8 {
    t.vector | t.crc << 4
}

/// The widest tiers this CPU supports, straight from CPUID.
#[cfg(target_arch = "x86_64")]
fn probe() -> Tiers {
    let vector = if std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512vl")
        && std::arch::is_x86_feature_detected!("avx512dq")
        && std::arch::is_x86_feature_detected!("avx512bw")
    {
        AVX512
    } else if std::arch::is_x86_feature_detected!("avx2") {
        AVX2
    } else {
        BASELINE
    };
    let crc = if std::arch::is_x86_feature_detected!("vpclmulqdq")
        && std::arch::is_x86_feature_detected!("avx512f")
    {
        CRC_ZMM
    } else if std::arch::is_x86_feature_detected!("pclmulqdq") {
        CRC_XMM
    } else {
        CRC_TABLE
    };
    Tiers { vector, crc }
}

/// Non-x86 hosts always run the portable tiers.
#[cfg(not(target_arch = "x86_64"))]
fn probe() -> Tiers {
    Tiers {
        vector: BASELINE,
        crc: CRC_TABLE,
    }
}

/// The tiers in force: probed once, then cached (or as [`pin`]ned).
pub fn tiers() -> Tiers {
    let mut packed = TIERS.load(Ordering::Relaxed);
    if packed == UNPROBED {
        // A concurrent pin wins over this lazy probe.
        let probed = pack(probe());
        packed =
            match TIERS.compare_exchange(UNPROBED, probed, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => probed,
                Err(current) => current,
            };
    }
    Tiers {
        vector: packed & 0xF,
        crc: packed >> 4,
    }
}

/// The vector tier in force — what [`simd_hot!`](crate::simd_hot) dispatches on.
pub fn level() -> u8 {
    tiers().vector
}

/// Pins the dispatch tiers, or with `None` restores the probed ones. Tests
/// and benches use it to run every tier the host has on the same input;
/// every tier computes the same bits, so a pin only changes speed.
///
/// # Panics
/// If a pinned tier exceeds what the CPU supports.
#[doc(hidden)]
pub fn pin(pinned: Option<Tiers>) {
    let probed = probe();
    let t = pinned.unwrap_or(probed);
    assert!(
        t.vector <= probed.vector && t.crc <= probed.crc,
        "pinned {t:?} exceeds the probed {probed:?}"
    );
    TIERS.store(pack(t), Ordering::Relaxed);
}

/// Compiles each function body three times — baseline, AVX2, AVX-512 — and
/// dispatches on [`level()`]. The body is emitted as an `#[inline(always)]`
/// inner function, so helpers it calls must themselves be `#[inline]`-able
/// for the wide tiers to reach them; anything that stays out-of-line simply
/// runs baseline code, which is bit-identical (see module docs). The
/// workspace's only dispatch macro: cf-kg's store scans use it too.
#[macro_export]
macro_rules! simd_hot {
    ($( $(#[$meta:meta])* $vis:vis fn $name:ident( $($arg:ident : $ty:ty),* $(,)? ) $(-> $ret:ty)? $body:block )*) => {$(
        $(#[$meta])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[inline(always)]
            fn baseline($($arg: $ty),*) $(-> $ret)? $body
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                unsafe fn avx2($($arg: $ty),*) $(-> $ret)? {
                    baseline($($arg),*)
                }
                #[target_feature(enable = "avx512f,avx512vl,avx512dq,avx512bw")]
                unsafe fn avx512($($arg: $ty),*) $(-> $ret)? {
                    baseline($($arg),*)
                }
                // SAFETY: `level()` only reports a tier after probing that
                // this CPU supports every feature the tier enables, and
                // `pin` refuses any tier above the probed one.
                match $crate::simd::level() {
                    $crate::simd::AVX512 => return unsafe { avx512($($arg),*) },
                    $crate::simd::AVX2 => return unsafe { avx2($($arg),*) },
                    _ => {}
                }
            }
            baseline($($arg),*)
        }
    )*};
}

/// Element count above which the element-wise helpers fan contiguous chunks
/// out across the thread pool. Every lane is an independent one-op chain, so
/// the split is bitwise invariant; below this the pool round-trip costs more
/// than the memory-bound loop it would hide.
const PAR_MIN_ELEMS: usize = 32 * 1024;

simd_hot! {
    /// `dst[i] += src[i]` over one contiguous chunk.
    fn add_assign_chunk(dst: &mut [f32], src: &[f32]) {
        for (o, s) in dst.iter_mut().zip(src) {
            *o += *s;
        }
    }

    /// `dst[i] *= alpha` over one contiguous chunk.
    fn scale_chunk(dst: &mut [f32], alpha: f32) {
        for x in dst.iter_mut() {
            *x *= alpha;
        }
    }
}

/// `dst[i] += src[i]` — the gradient-accumulation workhorse. Large slices
/// split into per-thread chunks (independent lanes, so bitwise invariant).
pub(crate) fn add_assign_slice(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "add_assign length mismatch");
    if dst.len() >= PAR_MIN_ELEMS {
        let d = crate::pool::SharedMut::new(dst);
        crate::pool::parallel_for(src.len(), |r| {
            // SAFETY: partition ranges are disjoint.
            let dr = unsafe { d.get(r.start, r.len()) };
            add_assign_chunk(dr, &src[r]);
        });
    } else {
        add_assign_chunk(dst, src);
    }
}

/// `dst[i] *= alpha` — gradient clipping / scaling.
pub(crate) fn scale_slice(dst: &mut [f32], alpha: f32) {
    let n = dst.len();
    if n >= PAR_MIN_ELEMS {
        let d = crate::pool::SharedMut::new(dst);
        crate::pool::parallel_for(n, |r| {
            // SAFETY: partition ranges are disjoint.
            let dr = unsafe { d.get(r.start, r.len()) };
            scale_chunk(dr, alpha);
        });
    } else {
        scale_chunk(dst, alpha);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probed_level_is_a_known_tier() {
        let l = level();
        assert!(l == BASELINE || l == AVX2 || l == AVX512);
        assert_eq!(l, level(), "probe must be stable");
        assert!(tiers().crc <= CRC_ZMM);
    }

    #[test]
    fn slice_helpers_match_scalar_reference() {
        let n = 1037; // odd length: exercises the vector tail
        let a: Vec<f32> = (0..n).map(|i| (i as f32) * 0.37 - 11.0).collect();
        let b: Vec<f32> = (0..n).map(|i| (i as f32) * -0.11 + 3.0).collect();

        let mut got = a.clone();
        add_assign_slice(&mut got, &b);
        for i in 0..n {
            assert_eq!(got[i].to_bits(), (a[i] + b[i]).to_bits());
        }

        let mut got = a.clone();
        scale_slice(&mut got, 0.731);
        for i in 0..n {
            assert_eq!(got[i].to_bits(), (a[i] * 0.731f32).to_bits());
        }
    }
}
