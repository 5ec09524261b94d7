//! Elementwise and broadcasting ops.

use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

impl Tape {
    /// `a + b`, same shape.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).zip(self.value(b), |x, y| x + y);
        self.push_bwd(value, move |g, _t, grads| {
            grads.accumulate_in_place(a, g);
            grads.accumulate_in_place(b, g);
        })
    }

    /// `a - b`, same shape.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).zip(self.value(b), |x, y| x - y);
        self.push_bwd(value, move |g, _t, grads| {
            grads.accumulate_in_place(a, g);
            grads.accumulate(b, g.map(|x| -x));
        })
    }

    /// Hadamard product `a ⊙ b`, same shape.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).zip(self.value(b), |x, y| x * y);
        self.push_bwd(value, move |g, t, grads| {
            grads.accumulate(a, g.zip(t.value(b), |gi, bi| gi * bi));
            grads.accumulate(b, g.zip(t.value(a), |gi, ai| gi * ai));
        })
    }

    /// Elementwise `a / b`, same shape.
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).zip(self.value(b), |x, y| x / y);
        self.push_bwd(value, move |g, t, grads| {
            let bv = t.value(b);
            grads.accumulate(a, g.zip(bv, |gi, bi| gi / bi));
            let av = t.value(a);
            let mut db = g.zip(av, |gi, ai| gi * ai);
            let db2 = db.zip(bv, |x, bi| -x / (bi * bi));
            db = db2;
            grads.accumulate(b, db);
        })
    }

    /// `-a`.
    pub fn neg(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|x| -x);
        self.push_bwd(value, move |g, _t, grads| {
            grads.accumulate(a, g.map(|x| -x));
        })
    }

    /// `a + c` for a scalar constant `c`.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let value = self.value(a).map(|x| x + c);
        self.push_bwd(value, move |g, _t, grads| {
            grads.accumulate_in_place(a, g);
        })
    }

    /// `c * a` for a scalar constant `c`.
    pub fn mul_scalar(&mut self, a: Var, c: f32) -> Var {
        let value = self.value(a).map(|x| c * x);
        self.push_bwd(value, move |g, _t, grads| {
            grads.accumulate(a, g.map(|x| c * x));
        })
    }

    /// Adds a constant tensor with no gradient path into it (e.g. an additive
    /// attention mask). Shapes must match.
    pub fn add_const(&mut self, a: Var, c: &Tensor) -> Var {
        let value = self.value(a).zip(c, |x, y| x + y);
        self.push_bwd(value, move |g, _t, grads| {
            grads.accumulate_in_place(a, g);
        })
    }

    /// Row-broadcast add: `a[.., d] + b[d]`.
    pub fn add_bias(&mut self, a: Var, b: Var) -> Var {
        let av = self.value(a);
        let d = av.shape().last_dim();
        let bv = self.value(b);
        assert_eq!(
            bv.shape().numel(),
            d,
            "add_bias: bias length {} != last dim {d}",
            bv.numel()
        );
        let mut out = av.clone();
        let rows = out.shape().leading();
        add_bias_rows(out.data_mut(), bv.data(), rows, d);
        self.push_bwd(out, move |g, _t, grads| {
            grads.accumulate_in_place(a, g);
            let d = g.shape().last_dim();
            let mut db = crate::pool::take_f32_zeroed(d);
            colsum_rows(g.data(), &mut db, g.shape().leading(), d);
            grads.accumulate(b, Tensor::new([d], db));
        })
    }

    /// Row-broadcast multiply: `a[.., d] ⊙ b[d]`.
    pub fn mul_bcast_row(&mut self, a: Var, b: Var) -> Var {
        let av = self.value(a);
        let d = av.shape().last_dim();
        let bv = self.value(b);
        assert_eq!(
            bv.shape().numel(),
            d,
            "mul_bcast_row: length {} != last dim {d}",
            bv.numel()
        );
        let mut out = av.clone();
        let rows = out.shape().leading();
        mul_rows(out.data_mut(), bv.data(), rows, d);
        self.push_bwd(out, move |g, t, grads| {
            let d = g.shape().last_dim();
            let rows = g.shape().leading();
            let bv = t.value(b);
            let av = t.value(a);
            let mut da = g.clone();
            let mut db = crate::pool::take_f32_zeroed(d);
            mul_bcast_backward_rows(
                da.data_mut(),
                &mut db,
                g.data(),
                av.data(),
                bv.data(),
                rows,
                d,
            );
            grads.accumulate(a, da);
            grads.accumulate(b, Tensor::new([d], db));
        })
    }

    /// Scales each row of `a` (viewed as `[L, d]`) by the matching scalar of
    /// `w` (numel `L`): `out[r, :] = w[r] * a[r, :]`.
    ///
    /// This is the workhorse for masking, attention-weighted sums and
    /// per-chain weighting.
    pub fn scale_rows(&mut self, a: Var, w: Var) -> Var {
        let av = self.value(a);
        let d = av.shape().last_dim();
        let rows = av.shape().leading();
        let wv = self.value(w);
        assert_eq!(
            wv.numel(),
            rows,
            "scale_rows: weights {} != rows {rows}",
            wv.numel()
        );
        let mut out = av.clone();
        scale_rows_inplace(out.data_mut(), wv.data(), rows, d);
        self.push_bwd(out, move |g, t, grads| {
            let av = t.value(a);
            let wv = t.value(w);
            let d = av.shape().last_dim();
            let rows = av.shape().leading();
            let mut da = g.clone();
            let mut dw = crate::pool::take_f32_zeroed(rows);
            scale_rows_backward(
                da.data_mut(),
                &mut dw,
                g.data(),
                av.data(),
                wv.data(),
                rows,
                d,
            );
            grads.accumulate(a, da);
            grads.accumulate(w, Tensor::new(wv.shape().clone(), dw));
        })
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|x| x.max(0.0));
        self.push_bwd(value, move |g, t, grads| {
            grads.accumulate(a, g.zip(t.value(a), |gi, x| if x > 0.0 { gi } else { 0.0 }));
        })
    }

    /// GELU with the tanh approximation (as used by most Transformer stacks).
    ///
    /// The forward pass caches its `tanh` evaluations in a pooled scratch so
    /// the backward rule reuses them instead of recomputing — `tanh` is by
    /// far the most expensive scalar in the FFN, and the cached value is the
    /// exact same bits the recomputation would produce.
    pub fn gelu(&mut self, a: Var) -> Var {
        let av = self.value(a);
        let mut value = av.clone();
        let mut th = crate::pool::ScratchF32::zeroed(av.numel());
        gelu_forward_cached(value.data_mut(), &mut th);
        self.push_bwd(value, move |g, t, grads| {
            let av = t.value(a);
            let a_shape = *av.shape();
            grads.accumulate_with(a, &a_shape, |dst| {
                gelu_backward_cached(g.data(), av.data(), &th, dst);
            });
        })
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.value(a).map(tanh);
        let out = self.push_value(value);
        // tanh's gradient is cheapest in terms of the *output*; the closure
        // is attached after the push so it can capture the output var id.
        self.set_bwd(out, move |g, t, grads| {
            grads.accumulate(a, g.zip(t.value(out), |gi, y| gi * (1.0 - y * y)));
        });
        out
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        let out = self.push_value(value);
        self.set_bwd(out, move |g, t, grads| {
            grads.accumulate(a, g.zip(t.value(out), |gi, y| gi * y * (1.0 - y)));
        });
        out
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        let value = self.value(a).map(f32::exp);
        let out = self.push_value(value);
        self.set_bwd(out, move |g, t, grads| {
            grads.accumulate(a, g.zip(t.value(out), |gi, y| gi * y));
        });
        out
    }

    /// Elementwise natural log (inputs must be positive).
    pub fn ln(&mut self, a: Var) -> Var {
        let value = self.value(a).map(f32::ln);
        self.push_bwd(value, move |g, t, grads| {
            grads.accumulate(a, g.zip(t.value(a), |gi, x| gi / x));
        })
    }

    /// Inverted dropout: at train time zeroes each element with probability
    /// `p` and rescales survivors by `1/(1-p)`; identity when `p == 0`.
    pub fn dropout(&mut self, a: Var, p: f32, rng: &mut impl cf_rand::Rng) -> Var {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout p must be in [0,1), got {p}"
        );
        if p == 0.0 {
            return a;
        }
        let keep = 1.0 - p;
        let av = self.value(a);
        let mut mask = crate::pool::take_f32(av.numel());
        mask.extend((0..av.numel()).map(|_| {
            if rng.gen::<f32>() < keep {
                1.0 / keep
            } else {
                0.0
            }
        }));
        let mask = Tensor::new(*av.shape(), mask);
        let value = av.zip(&mask, |x, m| x * m);
        self.push_bwd(value, move |g, _t, grads| {
            grads.accumulate(a, g.zip(&mask, |gi, m| gi * m));
        })
    }
}

crate::simd_hot! {

/// Row-broadcast add in place: `data[r, :] += bias`.
pub(crate) fn add_bias_rows(data: &mut [f32], bias: &[f32], rows: usize, d: usize) {
    for row in 0..rows {
        let base = row * d;
        for j in 0..d {
            data[base + j] += bias[j];
        }
    }
}

/// Column sums (bias gradient): `db[j] += Σ_r g[r, j]`, rows ascending.
pub(crate) fn colsum_rows(gd: &[f32], db: &mut [f32], rows: usize, d: usize) {
    for row in 0..rows {
        for j in 0..d {
            db[j] += gd[row * d + j];
        }
    }
}

/// Row-broadcast multiply in place: `data[r, :] *= bias`.
pub(crate) fn mul_rows(data: &mut [f32], bias: &[f32], rows: usize, d: usize) {
    for row in 0..rows {
        let base = row * d;
        for j in 0..d {
            data[base + j] *= bias[j];
        }
    }
}

/// Fused backward of [`Tape::mul_bcast_row`]: `da[r,j] *= b[j]` and
/// `db[j] += g[r,j]·a[r,j]` in the original single-pass order.
pub(crate) fn mul_bcast_backward_rows(
    da: &mut [f32],
    db: &mut [f32],
    gd: &[f32],
    ad: &[f32],
    bv: &[f32],
    rows: usize,
    d: usize,
) {
    for row in 0..rows {
        let base = row * d;
        for j in 0..d {
            da[base + j] *= bv[j];
            db[j] += gd[base + j] * ad[base + j];
        }
    }
}

/// In-place [`gelu_fwd`] over `data`.
pub(crate) fn gelu_in_place(data: &mut [f32]) {
    for x in data.iter_mut() {
        *x = gelu_fwd(*x);
    }
}

/// In-place [`gelu_fwd`] over `data` that also stores each element's `tanh`
/// into `th` (same length) for the backward rule. Identical expression tree
/// to [`gelu_fwd`], so the outputs are the same bits.
fn gelu_forward_cached(data: &mut [f32], th: &mut [f32]) {
    for (x, t) in data.iter_mut().zip(th.iter_mut()) {
        *t = gelu_tanh(*x);
        *x = 0.5 * *x * (1.0 + *t);
    }
}

/// Per-row scaling in place: `data[r, :] *= w[r]`.
pub(crate) fn scale_rows_inplace(data: &mut [f32], w: &[f32], rows: usize, d: usize) {
    for r in 0..rows {
        let s = w[r];
        for x in &mut data[r * d..(r + 1) * d] {
            *x *= s;
        }
    }
}

/// Fused backward of [`Tape::scale_rows`]: `dw[r] += Σ_j g[r,j]·a[r,j]`
/// (j ascending) and `da[r, :] *= w[r]`, in the original single-pass order.
pub(crate) fn scale_rows_backward(
    da: &mut [f32],
    dw: &mut [f32],
    gd: &[f32],
    ad: &[f32],
    w: &[f32],
    rows: usize,
    d: usize,
) {
    for r in 0..rows {
        let s = w[r];
        let base = r * d;
        for j in 0..d {
            dw[r] += gd[base + j] * ad[base + j];
            da[base + j] *= s;
        }
    }
}

}

/// Hyperbolic tangent: the one `tanh` behind [`Tape::tanh`],
/// [`crate::infer::InferCtx`] and GELU.
///
/// A clamped odd rational `x·P(x²)/Q(x²)` (degrees 5 and 3 in `x²`),
/// near-minimax for absolute error on `[0, 9]` with `t(9) = 1` imposed, so
/// every input past the clamp lands on exactly ±1. It is evaluated in `f64`
/// and rounded once: `f32` Horner rounding jitters by an ulp where tanh is
/// flat, which breaks monotonicity, while `f64` keeps that noise far below
/// one `f32` ulp. Over every `f32` in `[0, 10]` the maximum absolute error
/// against `f64` tanh is 8.4e-8 and the result never decreases; it is odd
/// bit for bit, keeps ±0, and propagates NaN (`f32::clamp` does).
///
/// It replaces libm's `tanhf`, an opaque call that neither inlines nor
/// vectorizes and whose last bit may differ between libms. Built only from
/// IEEE mul, add, div, conversions and min/max, and with no fast-math (so no
/// FMA contraction), it gives the same bits on every SIMD tier and host.
#[inline]
pub(crate) fn tanh(x: f32) -> f32 {
    let x = f64::from(x.clamp(-9.0, 9.0));
    let s = x * x;
    let p = ((((1.769_989_645_927_142_3e-11 * s - 1.253_580_718_288_117_7e-8) * s
        + 9.176_214_757_791_853e-6)
        * s
        + 2.909_897_500_407_495_2e-3)
        * s
        + 0.129_087_207_770_125_78)
        * s
        + 0.999_999_729_075_382_7;
    let q = ((2.266_529_108_890_740_6e-4 * s + 2.371_754_964_344_112e-2) * s
        + 0.462_419_510_890_933_7)
        * s
        + 1.0;
    // The fit keeps |t| ≤ 1 on its own; the clamp makes that structural.
    ((x * p / q) as f32).clamp(-1.0, 1.0)
}

/// The `tanh` inside the GELU approximation, `tanh(√(2/π)·(x + 0.044715x³))`.
#[inline]
fn gelu_tanh(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    tanh(C * (x + 0.044_715 * x * x * x))
}

/// GELU forward (tanh approximation). Shared with the tape-free path
/// ([`crate::infer::InferCtx`]) so both stay bitwise identical.
#[inline]
pub(crate) fn gelu_fwd(x: f32) -> f32 {
    0.5 * x * (1.0 + gelu_tanh(x))
}

/// GELU backward using the cached forward `tanh`: same arithmetic as the
/// recompute-from-`x` rule (`tanh` is a pure function of `x`), minus the
/// second `tanh` evaluation per element.
fn gelu_backward_cached(gd: &[f32], xd: &[f32], th: &[f32], dst: &mut [f32]) {
    const C: f32 = 0.797_884_6;
    for i in 0..gd.len() {
        let x = xd[i];
        let t = th[i];
        let sech2 = 1.0 - t * t;
        let grad = 0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044_715 * x * x);
        dst[i] = gd[i] * grad;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single(v: f32) -> Tensor {
        Tensor::vector(&[v])
    }

    #[test]
    fn add_forward_and_grad() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::vector(&[1.0, 2.0]));
        let b = t.leaf(Tensor::vector(&[3.0, 4.0]));
        let c = t.add(a, b);
        assert_eq!(t.value(c).data(), &[4.0, 6.0]);
        let s = t.sum_all(c);
        let g = t.backward(s, 0);
        assert_eq!(g.grad(a).unwrap().data(), &[1.0, 1.0]);
        assert_eq!(g.grad(b).unwrap().data(), &[1.0, 1.0]);
    }

    #[test]
    fn mul_grad_swaps_operands() {
        let mut t = Tape::new();
        let a = t.leaf(single(3.0));
        let b = t.leaf(single(5.0));
        let c = t.mul(a, b);
        let g = t.backward(c, 0);
        assert_eq!(g.grad(a).unwrap().item(), 5.0);
        assert_eq!(g.grad(b).unwrap().item(), 3.0);
    }

    #[test]
    fn div_grads() {
        let mut t = Tape::new();
        let a = t.leaf(single(6.0));
        let b = t.leaf(single(2.0));
        let c = t.div(a, b);
        assert_eq!(t.value(c).item(), 3.0);
        let g = t.backward(c, 0);
        assert!((g.grad(a).unwrap().item() - 0.5).abs() < 1e-6);
        assert!((g.grad(b).unwrap().item() + 1.5).abs() < 1e-6);
    }

    #[test]
    fn add_bias_broadcasts_rows() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::matrix(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = t.leaf(Tensor::vector(&[10.0, 20.0]));
        let c = t.add_bias(a, b);
        assert_eq!(t.value(c).data(), &[11.0, 22.0, 13.0, 24.0]);
        let s = t.sum_all(c);
        let g = t.backward(s, 0);
        assert_eq!(g.grad(b).unwrap().data(), &[2.0, 2.0]);
    }

    #[test]
    fn scale_rows_forward_and_grads() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::matrix(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let w = t.leaf(Tensor::vector(&[2.0, 0.5]));
        let c = t.scale_rows(a, w);
        assert_eq!(t.value(c).data(), &[2.0, 4.0, 1.5, 2.0]);
        let s = t.sum_all(c);
        let g = t.backward(s, 0);
        assert_eq!(g.grad(w).unwrap().data(), &[3.0, 7.0]);
        assert_eq!(g.grad(a).unwrap().data(), &[2.0, 2.0, 0.5, 0.5]);
    }

    #[test]
    fn relu_kills_negative_grad() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::vector(&[-1.0, 2.0]));
        let r = t.relu(a);
        assert_eq!(t.value(r).data(), &[0.0, 2.0]);
        let s = t.sum_all(r);
        let g = t.backward(s, 0);
        assert_eq!(g.grad(a).unwrap().data(), &[0.0, 1.0]);
    }

    #[test]
    fn tanh_grad_uses_output() {
        let mut t = Tape::new();
        let a = t.leaf(single(0.5));
        let y = t.tanh(a);
        let g = t.backward(y, 0);
        let expect = 1.0 - tanh(0.5).powi(2);
        assert!((g.grad(a).unwrap().item() - expect).abs() < 1e-6);
    }

    /// The in-tree tanh on a dense sweep of [-10, 10] (step 1e-5, plus
    /// every 251st `f32` bit pattern in (0, 10] for the small magnitudes):
    /// within 1e-6 of `f64` tanh, odd bit for bit, bounded by 1 and
    /// monotone non-decreasing.
    #[test]
    fn tanh_matches_f64_on_a_dense_sweep() {
        fn sweep(xs: impl Iterator<Item = f32>) {
            let mut prev = f32::NEG_INFINITY;
            let mut max_err = 0.0f64;
            for x in xs {
                let t = tanh(x);
                max_err = max_err.max((f64::from(t) - f64::from(x).tanh()).abs());
                assert_eq!(tanh(-x).to_bits(), (-t).to_bits(), "odd at {x}");
                assert!(t.abs() <= 1.0, "|tanh({x})| = {t} > 1");
                assert!(t >= prev, "tanh decreases at {x}: {prev} -> {t}");
                prev = t;
            }
            assert!(max_err <= 1e-6, "max abs error {max_err:e}");
        }
        sweep((-1_000_000..=1_000_000).map(|i| i as f32 * 1e-5));
        sweep((1..=10f32.to_bits()).step_by(251).map(f32::from_bits));
    }

    #[test]
    fn tanh_special_values() {
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert!(tanh(f32::NAN).is_nan());
    }

    cf_check::property! {
        #![config(cases = 512)]

        /// Over arbitrary bit patterns (huge, subnormal, NaN): odd bit for
        /// bit, NaN exactly for NaN, otherwise within 1e-6 of `f64` tanh.
        #[test]
        fn tanh_holds_for_any_f32(bits in 0u32..=u32::MAX) {
            let x = f32::from_bits(bits);
            let t = tanh(x);
            cf_check::check_assert_eq!(t.is_nan(), x.is_nan());
            if !x.is_nan() {
                cf_check::check_assert_eq!(tanh(-x).to_bits(), (-t).to_bits());
                let err = (f64::from(t) - f64::from(x).tanh()).abs();
                cf_check::check_assert!(err <= 1e-6, "tanh({x}) = {t}, error {err:e}");
            }
        }
    }

    #[test]
    fn gelu_matches_reference_points() {
        // Reference values from the tanh approximation itself at x=0 and x→∞.
        assert_eq!(gelu_fwd(0.0), 0.0);
        assert!((gelu_fwd(10.0) - 10.0).abs() < 1e-4);
        assert!(gelu_fwd(-10.0).abs() < 1e-4);
    }

    #[test]
    fn dropout_zero_p_is_identity() {
        let mut t = Tape::new();
        let mut rng = cf_rand::rngs::mock::StepRng::new(0, 1);
        let a = t.leaf(Tensor::vector(&[1.0, 2.0]));
        let d = t.dropout(a, 0.0, &mut rng);
        assert_eq!(d, a);
    }

    #[test]
    fn dropout_preserves_expectation_roughly() {
        use cf_rand::SeedableRng;
        let mut rng = cf_rand::rngs::StdRng::seed_from_u64(9);
        let mut t = Tape::new();
        let a = t.leaf(Tensor::full([10_000], 1.0));
        let d = t.dropout(a, 0.3, &mut rng);
        let m = t.value(d).mean();
        assert!((m - 1.0).abs() < 0.05, "mean after dropout {m}");
    }
}
