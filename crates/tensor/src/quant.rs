//! Int8 inference path: per-tensor symmetric quantization, an int8×int8→i32
//! GEMM sharing the pack/register-tile machinery of [`crate::tensor`], and
//! the [`QuantizedParamStore`] whose packed weights [`InferCtx`]'s `linear`
//! runs once the store is attached ([`InferCtx::set_weights`]); everything
//! else (softmax, layer norm, attention, the numeric heads) stays in f32.
//!
//! ## Scale scheme
//!
//! Quantization is symmetric: `scale = max|x| / 127`, `q = round(x / scale)`
//! clamped to `[-127, 127]`. Weights are quantized once at checkpoint-load
//! time with one *per-tensor* scale ([`QuantizedParamStore::from_store`],
//! which also pre-packs the NR-column panels); activations are quantized
//! dynamically per GEMM with one scale *per row*. Per-row matters for more
//! than accuracy: serving concatenates the chains of every query in a
//! micro-batch into one activation matrix, so a per-tensor activation scale
//! would couple a query's bits to its batch-mates — and batch composition
//! varies with shard count and traffic. With per-row scales each output row
//! is a pure function of its own input row, exactly like the (row-linear)
//! f32 GEMM. Row `i` dequantizes with the combined factor
//! `scale_a[i] · scale_b` applied to the exact i32 accumulator, so the only
//! rounding beyond f32 GEMM is the two quantization roundings — bias add and
//! every nonlinearity run on f32 values as usual.
//!
//! ## Determinism
//!
//! The i32 accumulation is exact integer math, so — unlike the f32 kernels,
//! which must pin one serial reduction order — *any* summation order yields
//! identical bits. Scale computation (`max|x|` per row) and the
//! quantize/dequantize maps are order-independent too, making the whole path
//! trivially bitwise invariant across thread counts, SIMD tiers, shard
//! assignments and (via the per-row scales) batch composition.
//!
//! ## Kernel layout
//!
//! Values are stored as `i16` (holding the i8 range) so the AVX2 tier can use
//! `_mm256_madd_epi16`: one instruction multiplies 16 i16 pairs and adds
//! adjacent products into 8 i32 lanes. Panels therefore interleave *pairs* of
//! reduction indices: with `kp = ceil(k/2)`,
//!
//! - A panel: `ap[ip·MR·2·kp + pp·MR·2 + r·2 + s] = A[i0+r, 2·pp+s]`
//! - B panel: `bp[jp·NR·2·kp + pp·NR·2 + c·2 + s] = B[2·pp+s, j0+c]`
//!
//! zero-padded past every edge (a zero quantized term contributes zero, so
//! padding is exact). The micro-kernel broadcasts each A pair across a
//! B-panel vector of 8 column pairs, accumulating an MR×NR i32 tile in
//! registers. Row panels fan out across the thread pool exactly like the f32
//! path. |q| ≤ 127 bounds each pair product by 2·127², so `k` up to
//! [`MAX_K`] cannot overflow the i32 accumulator.

use crate::infer::InferCtx;
use crate::params::ParamStore;
use crate::pool;
use crate::tensor::Tensor;

/// Register tile height (matches the f32 GEMM).
const MR: usize = 4;
/// Register tile width (matches the f32 GEMM).
const NR: usize = 8;

/// Largest supported reduction depth: `127² · 2·ceil(k/2) ≤ i32::MAX` holds
/// for every `k ≤ 131072`, with headroom (the true bound is 133152).
pub const MAX_K: usize = 131_072;

/// Per-tensor symmetric scale: `max|x| / 127`, or `1.0` for an all-zero (or
/// non-finite-max) tensor so the reciprocal stays usable.
pub fn quantize_scale(data: &[f32]) -> f32 {
    let mut max_abs = 0.0f32;
    for &x in data {
        max_abs = max_abs.max(x.abs());
    }
    if max_abs == 0.0 || !max_abs.is_finite() {
        1.0
    } else {
        max_abs / 127.0
    }
}

/// `round(x / scale)` clamped to the symmetric i8 range, via a precomputed
/// reciprocal (`recip = 1/scale`) so weight-load and per-batch activation
/// quantization apply the exact same float op sequence.
///
/// Rounding is nearest-ties-even via the magic-number trick: adding 1.5·2²³
/// lands `v = x·recip` in the binade where the float ulp is exactly 1, so
/// the hardware's round-to-nearest-even of the *addition* performs the
/// integer rounding, and the low mantissa bits are `2²² + round(v)`. Exact
/// for `|v| ≤ 2²²` — far above the ±127 these values are scaled into. Unlike
/// `f32::round`/`round_ties_even` (libm calls on baseline x86-64), this is
/// pure mul/add/bit ops: it autovectorizes on every tier and produces the
/// same bits on every tier, and activation quantization runs once per linear
/// layer per batch — it must not eat the int8 GEMM's win.
#[inline]
fn quantize_value(x: f32, recip: f32) -> i16 {
    const MAGIC: f32 = 12_582_912.0; // 1.5 * 2^23
    let y = x * recip + MAGIC;
    let i = (y.to_bits() & 0x7F_FFFF) as i32 - 0x40_0000;
    i.clamp(-127, 127) as i16
}

/// Appends the quantization of `data` (with `recip = 1/scale`) to `out`.
/// Written as resize + in-place stores (not `extend`) so the loop carries no
/// capacity checks and vectorizes.
pub fn quantize_slice_into(data: &[f32], recip: f32, out: &mut Vec<i16>) {
    let start = out.len();
    out.resize(start + data.len(), 0);
    for (o, &x) in out[start..].iter_mut().zip(data) {
        *o = quantize_value(x, recip);
    }
}

/// Packs quantized `A[m,k]` (row-major) into MR-row pair-interleaved panels.
fn pack_a_q8(aq: &[i16], ap: &mut [i16], m: usize, k: usize) {
    let kp = k.div_ceil(2);
    let mp = m.div_ceil(MR);
    for ip in 0..mp {
        let i0 = ip * MR;
        let rows = MR.min(m - i0);
        let panel = &mut ap[ip * MR * 2 * kp..(ip + 1) * MR * 2 * kp];
        for r in 0..rows {
            let row = &aq[(i0 + r) * k..(i0 + r + 1) * k];
            for (p, &v) in row.iter().enumerate() {
                panel[(p / 2) * MR * 2 + r * 2 + (p % 2)] = v;
            }
        }
    }
}

/// Packs quantized `B[k,n]` (row-major) into NR-column pair-interleaved
/// panels.
fn pack_b_q8(bq: &[i16], bp: &mut [i16], k: usize, n: usize) {
    let kp = k.div_ceil(2);
    let np = n.div_ceil(NR);
    for jp in 0..np {
        let j0 = jp * NR;
        let cols = NR.min(n - j0);
        let panel = &mut bp[jp * NR * 2 * kp..(jp + 1) * NR * 2 * kp];
        for p in 0..k {
            let row = &bq[p * n + j0..p * n + j0 + cols];
            for (c, &v) in row.iter().enumerate() {
                panel[(p / 2) * NR * 2 + c * 2 + (p % 2)] = v;
            }
        }
    }
}

/// Scalar tile sweep over row panels `ip0..ip1` (band-relative output rows,
/// like the f32 `gemm_tiles`). Writes each output element exactly once
/// (overwrite, not `+=` — the accumulator starts at zero inside the tile).
fn q8_tiles_scalar(
    ap: &[i16],
    bp: &[i16],
    out_rows: &mut [i32],
    m: usize,
    kp: usize,
    n: usize,
    ip0: usize,
    ip1: usize,
) {
    let np = n.div_ceil(NR);
    let row0 = ip0 * MR;
    for jp in 0..np {
        let j0 = jp * NR;
        let cols = NR.min(n - j0);
        let b_panel = &bp[jp * NR * 2 * kp..(jp + 1) * NR * 2 * kp];
        for ip in ip0..ip1 {
            let i0 = ip * MR;
            let rows = MR.min(m - i0);
            let a_panel = &ap[ip * MR * 2 * kp..(ip + 1) * MR * 2 * kp];
            let mut acc = [[0i32; NR]; MR];
            for pp in 0..kp {
                let ab = pp * MR * 2;
                let bb = pp * NR * 2;
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    let a0 = a_panel[ab + r * 2] as i32;
                    let a1 = a_panel[ab + r * 2 + 1] as i32;
                    for (c, slot) in acc_row.iter_mut().enumerate() {
                        *slot +=
                            a0 * b_panel[bb + c * 2] as i32 + a1 * b_panel[bb + c * 2 + 1] as i32;
                    }
                }
            }
            for (r, acc_row) in acc.iter().enumerate().take(rows) {
                let o = (i0 - row0 + r) * n + j0;
                for (c, &v) in acc_row.iter().enumerate().take(cols) {
                    out_rows[o + c] = v;
                }
            }
        }
    }
}

/// AVX2 tile sweep: `_mm256_madd_epi16` widens and pair-sums 16 i16 products
/// into 8 i32 lanes — one full NR-wide accumulator update per instruction.
/// Bit-identical to the scalar sweep because integer addition is exact.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn q8_tiles_avx2(
    ap: &[i16],
    bp: &[i16],
    out_rows: &mut [i32],
    m: usize,
    kp: usize,
    n: usize,
    ip0: usize,
    ip1: usize,
) {
    use std::arch::x86_64::*;
    let np = n.div_ceil(NR);
    let row0 = ip0 * MR;
    for jp in 0..np {
        let j0 = jp * NR;
        let cols = NR.min(n - j0);
        let b_panel = &bp[jp * NR * 2 * kp..(jp + 1) * NR * 2 * kp];
        for ip in ip0..ip1 {
            let i0 = ip * MR;
            let rows = MR.min(m - i0);
            let a_panel = &ap[ip * MR * 2 * kp..(ip + 1) * MR * 2 * kp];
            let mut acc = [_mm256_setzero_si256(); MR];
            for pp in 0..kp {
                let bv = _mm256_loadu_si256(b_panel.as_ptr().add(pp * NR * 2) as *const __m256i);
                let ab = pp * MR * 2;
                for (r, slot) in acc.iter_mut().enumerate() {
                    // Lane layout: each i32 lane holds the (s=0, s=1) pair of
                    // one A row, multiplied against the matching B column pair.
                    let lo = a_panel[ab + r * 2] as u16 as u32;
                    let hi = a_panel[ab + r * 2 + 1] as u16 as u32;
                    let av = _mm256_set1_epi32(((hi << 16) | lo) as i32);
                    *slot = _mm256_add_epi32(*slot, _mm256_madd_epi16(av, bv));
                }
            }
            if rows == MR && cols == NR {
                for (r, &slot) in acc.iter().enumerate() {
                    let o = (i0 - row0 + r) * n + j0;
                    _mm256_storeu_si256(out_rows.as_mut_ptr().add(o) as *mut __m256i, slot);
                }
            } else {
                let mut tmp = [0i32; NR];
                for (r, &slot) in acc.iter().enumerate().take(rows) {
                    _mm256_storeu_si256(tmp.as_mut_ptr() as *mut __m256i, slot);
                    let o = (i0 - row0 + r) * n + j0;
                    out_rows[o..o + cols].copy_from_slice(&tmp[..cols]);
                }
            }
        }
    }
}

/// Runtime-dispatched tile sweep. `simd_hot!` cannot host explicit
/// intrinsics (it recompiles one portable body per tier), so this kernel
/// dispatches by hand on the same cached [`crate::simd::level`] probe.
fn q8_tiles(
    ap: &[i16],
    bp: &[i16],
    out_rows: &mut [i32],
    m: usize,
    kp: usize,
    n: usize,
    ip0: usize,
    ip1: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::level() >= crate::simd::AVX2 {
        // SAFETY: `level()` only reports AVX2 after probing CPU support.
        unsafe { q8_tiles_avx2(ap, bp, out_rows, m, kp, n, ip0, ip1) };
        return;
    }
    q8_tiles_scalar(ap, bp, out_rows, m, kp, n, ip0, ip1);
}

/// Tile sweep over pre-packed panels, fanning row panels across the thread
/// pool above the same flop floor as the f32 GEMM. Integer accumulation is
/// exact, so the split is bitwise invariant by construction.
fn gemm_q8_packed(ap: &[i16], bp: &[i16], out: &mut [i32], m: usize, kp: usize, n: usize) {
    let mp = m.div_ceil(MR);
    if m * kp * 2 * n >= crate::tensor::PAR_MIN_FLOPS {
        let shared = pool::SharedMut::new(out);
        pool::parallel_for(mp, |r| {
            if r.is_empty() {
                return;
            }
            let row0 = r.start * MR;
            let row1 = (r.end * MR).min(m);
            // SAFETY: panel ranges from the static partition map to disjoint
            // row bands of `out`, and the borrow outlives the scoped run.
            let band = unsafe { shared.get(row0 * n, (row1 - row0) * n) };
            q8_tiles(ap, bp, band, m, kp, n, r.start, r.end);
        });
    } else {
        q8_tiles(ap, bp, out, m, kp, n, 0, mp);
    }
}

/// `out[i,j] = Σ_p aq[i,p] · bq[p,j]` over quantized values in exact i32.
///
/// `aq` is row-major `[m,k]`, `bq` row-major `[k,n]`, both holding values in
/// the i8 range (the i16 storage exists for the widening kernel). Overwrites
/// `out`. This is the raw kernel the exactness tests target; the inference
/// path goes through [`QuantizedTensor::matmul_quantized`], which adds the
/// quantize/dequantize envelope.
pub fn matmul_q8_into(aq: &[i16], bq: &[i16], out: &mut [i32], m: usize, k: usize, n: usize) {
    assert!(k <= MAX_K, "quantized GEMM k={k} exceeds MAX_K={MAX_K}");
    assert_eq!(aq.len(), m * k, "A size mismatch");
    assert_eq!(bq.len(), k * n, "B size mismatch");
    assert_eq!(out.len(), m * n, "out size mismatch");
    if m == 0 || n == 0 {
        return;
    }
    let kp = k.div_ceil(2);
    let mp = m.div_ceil(MR);
    let np = n.div_ceil(NR);
    let mut ap = pool::Scratch::<i16>::zeroed(mp * MR * 2 * kp);
    let mut bp = pool::Scratch::<i16>::zeroed(np * NR * 2 * kp);
    pack_a_q8(aq, &mut ap, m, k);
    pack_b_q8(bq, &mut bp, k, n);
    gemm_q8_packed(&ap, &bp, out, m, kp, n);
}

/// One weight matrix quantized and pre-packed for the int8 GEMM.
pub struct QuantizedTensor {
    /// NR-column pair-interleaved panels of the quantized `[k, n]` weight.
    packed: Vec<i16>,
    k: usize,
    n: usize,
    /// Dequantization scale of the weight (`max|w| / 127`).
    scale: f32,
}

impl QuantizedTensor {
    /// Quantizes and packs a rank-2 `[k, n]` weight. Returns `None` for
    /// tensors the quantized path skips: non-matrices, matrices narrower
    /// than one register tile (`n < NR` — e.g. the `[d, 1]` numeric-head
    /// weights, which stay f32 by design), and reductions past [`MAX_K`].
    pub fn from_tensor(t: &Tensor) -> Option<QuantizedTensor> {
        if t.shape().rank() != 2 {
            return None;
        }
        let (k, n) = t.shape().as_matrix();
        if n < NR || k == 0 || k > MAX_K {
            return None;
        }
        let scale = quantize_scale(t.data());
        let recip = 1.0 / scale;
        let mut bq = pool::Scratch::<i16>::with_capacity(k * n);
        quantize_slice_into(t.data(), recip, &mut bq);
        let kp = k.div_ceil(2);
        let np = n.div_ceil(NR);
        // Owned (not pooled): lives as long as the model, not one request.
        let mut packed = vec![0i16; np * NR * 2 * kp];
        pack_b_q8(&bq, &mut packed, k, n);
        Some(QuantizedTensor {
            packed,
            k,
            n,
            scale,
        })
    }

    /// Input dimension (`k`) of the packed weight.
    pub fn in_dim(&self) -> usize {
        self.k
    }

    /// Output dimension (`n`) of the packed weight.
    pub fn out_dim(&self) -> usize {
        self.n
    }

    /// The weight's dequantization scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// `a[m,k] · W[k,n]` through the quantized kernel, as a new `[m, n]`
    /// tensor: [`Self::matmul_rows_into`] on `a`'s rows.
    pub fn matmul_quantized(&self, a: &Tensor) -> Tensor {
        let (m, _) = a.shape().as_matrix();
        let mut out = pool::take_zeroed(m * self.n);
        self.matmul_rows_into(a.data(), m, &mut out);
        Tensor::new([m, self.n], out)
    }

    /// Overwrites `out[m,n]` with `a[m,k] · W[k,n]`, reading `a` as `m`
    /// row-major rows of `k`: dynamically quantizes each activation row
    /// with its own scale, runs the exact i32 GEMM against the pre-packed
    /// weight, and dequantizes the accumulator to f32. Per-row scales keep
    /// every output row a pure function of its own input row (see the
    /// module docs — batched serving depends on it). Taking rows as a slice
    /// lets a rank-3 input run without a reshape copy. All scratch is
    /// pooled — zero heap traffic in the steady state.
    pub fn matmul_rows_into(&self, a: &[f32], m: usize, out: &mut [f32]) {
        let k = self.k;
        assert_eq!(
            a.len(),
            m * k,
            "quantized matmul: input is not {m} rows of {k}"
        );
        assert_eq!(out.len(), m * self.n, "quantized matmul: out size mismatch");
        let mut scales = pool::Scratch::<f32>::with_capacity(m);
        let mut aq = pool::Scratch::<i16>::with_capacity(m * k);
        for row in a.chunks_exact(k) {
            let s = quantize_scale(row);
            scales.push(s);
            quantize_slice_into(row, 1.0 / s, &mut aq);
        }
        let kp = k.div_ceil(2);
        let mp = m.div_ceil(MR);
        let mut ap = pool::Scratch::<i16>::zeroed(mp * MR * 2 * kp);
        pack_a_q8(&aq, &mut ap, m, k);
        let mut acc = pool::Scratch::<i32>::zeroed(m * self.n);
        gemm_q8_packed(&ap, &self.packed, &mut acc, m, kp, self.n);
        for ((orow, arow), &s) in out
            .chunks_exact_mut(self.n)
            .zip(acc.chunks_exact(self.n))
            .zip(scales.iter())
        {
            let combined = s * self.scale;
            for (o, &v) in orow.iter_mut().zip(arow) {
                *o = v as f32 * combined;
            }
        }
    }
}

/// A [`ParamStore`] companion holding the quantized, pre-packed form of
/// every eligible weight matrix, indexed by [`ParamId`](crate::ParamId).
/// Built once per checkpoint load / hot reload; immutable afterwards (a
/// serving engine's shards share one through `Arc`).
pub struct QuantizedParamStore {
    entries: Vec<Option<QuantizedTensor>>,
}

impl QuantizedParamStore {
    /// Quantizes every eligible parameter of `store` that a `linear` may
    /// read: each one but the row-lookup tables
    /// ([`ParamStore::add_table`]), under [`QuantizedTensor::from_tensor`]'s
    /// eligibility rule.
    pub fn from_store(store: &ParamStore) -> QuantizedParamStore {
        let entries = store
            .iter()
            .map(|(id, _, t)| {
                if store.is_table(id) {
                    None
                } else {
                    QuantizedTensor::from_tensor(t)
                }
            })
            .collect();
        QuantizedParamStore { entries }
    }

    /// The quantized form of parameter `index` (`ParamId::index()`), if that
    /// parameter was eligible.
    pub fn entry(&self, index: usize) -> Option<&QuantizedTensor> {
        self.entries.get(index).and_then(Option::as_ref)
    }

    /// Number of parameters that were quantized.
    pub fn num_quantized(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Number of parameter slots tracked (equals the source store's `len`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no parameters are tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The int8 forward context is [`InferCtx`] with a [`QuantizedParamStore`]
/// attached ([`InferCtx::set_weights`]). The name stays for the benchmark
/// sources (`crates/bench/src/bin/cfbench`) that still spell it.
pub type QuantInferCtx = InferCtx;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::Forward;
    use std::sync::Arc;

    /// Naive triple-loop reference over the same quantized inputs.
    fn matmul_q8_ref(aq: &[i16], bq: &[i16], m: usize, k: usize, n: usize) -> Vec<i32> {
        let mut out = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i32;
                for p in 0..k {
                    acc += aq[i * k + p] as i32 * bq[p * n + j] as i32;
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    /// Deterministic i8-range fill covering the full [-127, 127] span.
    fn qseq(len: usize, seed: i32) -> Vec<i16> {
        (0..len)
            .map(|i| {
                let v = (i as i32).wrapping_mul(37).wrapping_add(seed) % 255;
                (v - 127) as i16
            })
            .collect()
    }

    #[test]
    fn q8_gemm_matches_reference_exactly_on_odd_sizes() {
        // Edge-straddling shapes around the MR/NR tile boundaries, plus odd
        // k to exercise the zero-padded pair slot.
        for &(m, k, n) in &[
            (1usize, 1usize, 8usize),
            (3, 5, 9),
            (4, 2, 8),
            (5, 7, 17),
            (8, 8, 8),
            (13, 11, 24),
            (16, 33, 40),
        ] {
            let aq = qseq(m * k, 17);
            let bq = qseq(k * n, -91);
            let mut out = vec![0i32; m * n];
            matmul_q8_into(&aq, &bq, &mut out, m, k, n);
            assert_eq!(
                out,
                matmul_q8_ref(&aq, &bq, m, k, n),
                "mismatch at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn q8_gemm_saturated_inputs_do_not_overflow() {
        // All values pinned at ±127: every accumulator hits its magnitude
        // bound for this k.
        let (m, k, n) = (4usize, 1024usize, 8usize);
        let aq = vec![127i16; m * k];
        let bq: Vec<i16> = (0..k * n)
            .map(|i| if i % 2 == 0 { 127 } else { -127 })
            .collect();
        let mut out = vec![0i32; m * n];
        matmul_q8_into(&aq, &bq, &mut out, m, k, n);
        assert_eq!(out, matmul_q8_ref(&aq, &bq, m, k, n));
    }

    #[test]
    fn scale_and_quantize_roundtrip_within_one_step() {
        let data: Vec<f32> = (0..100).map(|i| (i as f32 - 50.0) * 0.31).collect();
        let scale = quantize_scale(&data);
        let recip = 1.0 / scale;
        let mut q = Vec::new();
        quantize_slice_into(&data, recip, &mut q);
        for (&x, &qi) in data.iter().zip(&q) {
            assert!((-127..=127).contains(&qi));
            let back = qi as f32 * scale;
            assert!(
                (back - x).abs() <= scale * 0.5 + 1e-6,
                "x={x} back={back} scale={scale}"
            );
        }
        assert_eq!(quantize_scale(&[0.0, 0.0]), 1.0, "all-zero scale");
    }

    #[test]
    fn quantized_store_skips_ineligible_params() {
        let mut ps = ParamStore::new();
        let wide = ps.add("wide", Tensor::ones([16, 16]));
        let narrow = ps.add("narrow.w", Tensor::ones([16, 1])); // numeric head
        let vector = ps.add("bias", Tensor::ones([16]));
        let q = QuantizedParamStore::from_store(&ps);
        assert!(q.entry(wide.index()).is_some());
        assert!(q.entry(narrow.index()).is_none(), "n < NR must stay f32");
        assert!(q.entry(vector.index()).is_none(), "rank-1 must stay f32");
        assert_eq!(q.num_quantized(), 1);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn matmul_quantized_matches_manual_dequant() {
        let k = 24;
        let n = 16;
        let m = 5;
        let w = Tensor::new(
            [k, n],
            (0..k * n)
                .map(|i| ((i as f32) * 0.013 - 1.7) * if i % 5 == 0 { -1.0 } else { 1.0 })
                .collect(),
        );
        let a = Tensor::new(
            [m, k],
            (0..m * k).map(|i| (i as f32) * 0.021 - 1.1).collect(),
        );
        let qt = QuantizedTensor::from_tensor(&w).expect("eligible");
        let got = qt.matmul_quantized(&a);
        // Manual: quantize both sides (activation per row), exact integer
        // product, dequantize per row.
        let sb = quantize_scale(w.data());
        let mut aq = Vec::new();
        let mut sa = Vec::new();
        for row in a.data().chunks_exact(k) {
            let s = quantize_scale(row);
            sa.push(s);
            quantize_slice_into(row, 1.0 / s, &mut aq);
        }
        let mut bq = Vec::new();
        quantize_slice_into(w.data(), 1.0 / sb, &mut bq);
        let acc = matmul_q8_ref(&aq, &bq, m, k, n);
        for (i, (&g, &ac)) in got.data().iter().zip(&acc).enumerate() {
            let want = ac as f32 * (sa[i / n] * sb);
            assert_eq!(g.to_bits(), want.to_bits(), "element {i}");
        }
        // And the dequantized result approximates the f32 product.
        let f32_out = a.matmul(&w);
        for (&g, &f) in got.data().iter().zip(f32_out.data()) {
            assert!((g - f).abs() < 0.5, "quantized {g} too far from f32 {f}");
        }
    }

    #[test]
    fn matmul_quantized_rows_are_independent_of_batch_mates() {
        // Serving concatenates every batched query's chains into one
        // activation matrix, so a row's bits must not change when other rows
        // join the batch (a per-tensor activation scale would break this —
        // the ci.sh shard-matrix gate caught exactly that).
        let k = 20;
        let n = 8;
        let w = Tensor::new(
            [k, n],
            (0..k * n).map(|i| (i as f32) * 0.017 - 1.3).collect(),
        );
        let qt = QuantizedTensor::from_tensor(&w).expect("eligible");
        let row: Vec<f32> = (0..k).map(|i| (i as f32) * 0.03 - 0.2).collect();
        let alone = qt.matmul_quantized(&Tensor::new([1, k], row.clone()));
        // Batch-mate with a much larger magnitude, which would dominate a
        // shared per-tensor scale.
        let mut batched_data = row.clone();
        batched_data.extend((0..k).map(|i| (i as f32) * 9.0 - 55.0));
        let batched = qt.matmul_quantized(&Tensor::new([2, k], batched_data));
        for (j, (&a, &b)) in alone.data().iter().zip(&batched.data()[..n]).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "column {j} depends on batch-mates"
            );
        }
    }

    #[test]
    fn quant_ctx_runs_linear_layers_quantized_and_rest_f32() {
        use crate::nn::{Activation, Mlp};
        use cf_rand::SeedableRng;
        let mut rng = cf_rand::rngs::StdRng::seed_from_u64(11);
        let mut ps = ParamStore::new();
        let mlp = Mlp::new(&mut ps, "f", &[12, 32, 32], Activation::Gelu, &mut rng);
        let q = Arc::new(QuantizedParamStore::from_store(&ps));
        assert!(q.num_quantized() >= 2, "MLP weights should quantize");
        let x = Tensor::new([4, 12], (0..48).map(|i| (i as f32) * 0.07 - 1.5).collect());

        let mut fctx = InferCtx::new();
        let xv = fctx.leaf(x.clone());
        let fy = mlp.forward(&mut fctx, &ps, xv);
        let f32_out = fctx.value(fy).data().to_vec();

        let mut qctx = InferCtx::new();
        qctx.set_weights(Arc::clone(&q));
        let xv = qctx.leaf(x.clone());
        let qy = mlp.forward(&mut qctx, &ps, xv);
        let q_out = qctx.value(qy).data().to_vec();

        assert_eq!(q_out.len(), f32_out.len());
        let mut max_err = 0.0f32;
        let mut identical = true;
        for (&a, &b) in q_out.iter().zip(&f32_out) {
            max_err = max_err.max((a - b).abs());
            identical &= a.to_bits() == b.to_bits();
        }
        assert!(!identical, "quantized path must actually run quantized");
        assert!(max_err < 0.2, "quantization error too large: {max_err}");

        // Detaching the store makes the same ctx bit-identical to f32.
        let mut plain = qctx;
        plain.set_weights(None);
        let xv = plain.leaf(x);
        let py = mlp.forward(&mut plain, &ps, xv);
        assert_eq!(plain.value(py).data(), f32_out.as_slice());
    }

    #[test]
    fn quant_ctx_is_deterministic_across_clears() {
        use crate::nn::{Activation, Mlp};
        use cf_rand::SeedableRng;
        let mut rng = cf_rand::rngs::StdRng::seed_from_u64(3);
        let mut ps = ParamStore::new();
        let mlp = Mlp::new(&mut ps, "f", &[8, 16, 16], Activation::Tanh, &mut rng);
        let q = Arc::new(QuantizedParamStore::from_store(&ps));
        let x = Tensor::new([3, 8], (0..24).map(|i| (i as f32) * 0.11 - 1.0).collect());
        let mut ctx = InferCtx::new();
        ctx.set_weights(q);
        let mut runs = Vec::new();
        for _ in 0..3 {
            ctx.clear();
            let xv = ctx.leaf(x.clone());
            let y = mlp.forward(&mut ctx, &ps, xv);
            runs.push(
                ctx.value(y)
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
    }
}
