//! Reductions, softmax and layer normalization.

use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

impl Tape {
    /// Sum of all elements, producing a scalar.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let value = sum_all_fwd(self.value(a));
        self.push_bwd(value, move |g, t, grads| {
            let gi = g.item();
            let a_shape = *t.value(a).shape();
            grads.accumulate_with(a, &a_shape, |dst| dst.fill(gi));
        })
    }

    /// Mean of all elements, producing a scalar.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let n = self.value(a).numel() as f32;
        let value = Tensor::scalar(self.value(a).mean());
        self.push_bwd(value, move |g, t, grads| {
            let gi = g.item() / n;
            let a_shape = *t.value(a).shape();
            grads.accumulate_with(a, &a_shape, |dst| dst.fill(gi));
        })
    }

    /// Sums a rank-3 tensor over its middle dimension: `[B,T,d] -> [B,d]`.
    pub fn sum_dim1(&mut self, a: Var) -> Var {
        let out = sum_dim1_fwd(self.value(a));
        self.push_bwd(out, move |g, t, grads| {
            let (b, tt, d) = t.value(a).shape().as_batch_matrix();
            let a_shape = *t.value(a).shape();
            grads.accumulate_with(a, &a_shape, |dst| {
                for bi in 0..b {
                    for ti in 0..tt {
                        let base = (bi * tt + ti) * d;
                        dst[base..base + d].copy_from_slice(&g.data()[bi * d..(bi + 1) * d]);
                    }
                }
            });
        })
    }

    /// Row-wise softmax over the last dimension (numerically stabilized).
    pub fn softmax_last(&mut self, a: Var) -> Var {
        let out = softmax_last_fwd(self.value(a));
        let node = self.push_value(out);
        self.set_bwd(node, move |g, t, grads| {
            let y = t.value(node);
            let d = y.shape().last_dim();
            let rows = y.shape().leading();
            let y_shape = *y.shape();
            grads.accumulate_with(a, &y_shape, |dst| {
                softmax_backward_rows(y.data(), g.data(), dst, rows, d);
            });
        });
        node
    }

    /// Row-wise layer normalization over the last dimension, without affine
    /// parameters (compose with [`Tape::mul_bcast_row`]/[`Tape::add_bias`]).
    pub fn layer_norm_last(&mut self, a: Var, eps: f32) -> Var {
        // Cache per-row statistics for the backward rule. The pooled scratch
        // is recycled when the closure is dropped on tape reset.
        let (out, inv_stds) = layer_norm_last_fwd(self.value(a), eps);
        let node = self.push_value(out);
        self.set_bwd(node, move |g, t, grads| {
            // With y = (x - μ)/σ: dx = (g - mean(g) - y·mean(g⊙y)) / σ
            let y = t.value(node);
            let d = y.shape().last_dim();
            let rows = y.shape().leading();
            let y_shape = *y.shape();
            grads.accumulate_with(a, &y_shape, |dst| {
                layer_norm_backward_rows(y.data(), g.data(), &inv_stds, dst, rows, d);
            });
        });
        node
    }
}

/// Forward value of [`Tape::sum_all`]: the sum of every element, as a scalar.
pub(crate) fn sum_all_fwd(a: &Tensor) -> Tensor {
    Tensor::scalar(a.sum())
}

/// Forward value of [`Tape::sum_dim1`]: `[B, T, d]` summed over `T`, tokens
/// ascending.
pub(crate) fn sum_dim1_fwd(a: &Tensor) -> Tensor {
    let (b, tt, d) = a.shape().as_batch_matrix();
    let mut out = crate::pool::take_zeroed(b * d);
    for bi in 0..b {
        for ti in 0..tt {
            let base = (bi * tt + ti) * d;
            for j in 0..d {
                out[bi * d + j] += a.data()[base + j];
            }
        }
    }
    Tensor::new([b, d], out)
}

/// Forward value of [`Tape::softmax_last`]: [`softmax_row`] over every row.
pub(crate) fn softmax_last_fwd(a: &Tensor) -> Tensor {
    let d = a.shape().last_dim();
    let mut out = a.clone();
    for r in 0..a.shape().leading() {
        softmax_row(&mut out.data_mut()[r * d..(r + 1) * d]);
    }
    out
}

/// Forward value of [`Tape::layer_norm_last`], plus the per-row `1/σ` its
/// backward rule reads.
pub(crate) fn layer_norm_last_fwd(a: &Tensor, eps: f32) -> (Tensor, crate::pool::Scratch<f32>) {
    let d = a.shape().last_dim();
    let mut out = a.clone();
    let inv_stds = layer_norm_rows(out.data_mut(), a.shape().leading(), d, eps);
    (out, crate::pool::Scratch(inv_stds))
}

crate::simd_hot! {

/// In-place row-wise layer normalization of `data` viewed as `[rows, d]`;
/// returns the per-row `1/σ` the backward rule needs.
fn layer_norm_rows(data: &mut [f32], rows: usize, d: usize, eps: f32) -> Vec<f32> {
    let mut inv_stds = crate::pool::take(rows);
    for r in 0..rows {
        let slice = &mut data[r * d..(r + 1) * d];
        let mean: f32 = slice.iter().sum::<f32>() / d as f32;
        let var: f32 = slice.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / d as f32;
        let inv = 1.0 / (var + eps).sqrt();
        for x in slice.iter_mut() {
            *x = (*x - mean) * inv;
        }
        inv_stds.push(inv);
    }
    inv_stds
}

/// Softmax backward: `dst[r] = y_r ⊙ (g_r − ⟨y_r, g_r⟩)` (dot ascending).
pub(crate) fn softmax_backward_rows(yd: &[f32], gd: &[f32], dst: &mut [f32], rows: usize, d: usize) {
    for r in 0..rows {
        let yr = &yd[r * d..(r + 1) * d];
        let gr = &gd[r * d..(r + 1) * d];
        let dot: f32 = yr.iter().zip(gr).map(|(&yi, &gi)| yi * gi).sum();
        for j in 0..d {
            dst[r * d + j] = yr[j] * (gr[j] - dot);
        }
    }
}

/// Layer-norm backward: `dst[r] = (g_r − mean(g_r) − y_r·mean(g_r ⊙ y_r))/σ_r`
/// (both row means ascending).
pub(crate) fn layer_norm_backward_rows(
    yd: &[f32],
    gd: &[f32],
    inv_stds: &[f32],
    dst: &mut [f32],
    rows: usize,
    d: usize,
) {
    for r in 0..rows {
        let yr = &yd[r * d..(r + 1) * d];
        let gr = &gd[r * d..(r + 1) * d];
        let mg: f32 = gr.iter().sum::<f32>() / d as f32;
        let mgy: f32 = gr.iter().zip(yr).map(|(&gi, &yi)| gi * yi).sum::<f32>() / d as f32;
        let inv = inv_stds[r];
        for j in 0..d {
            dst[r * d + j] = (gr[j] - mg - yr[j] * mgy) * inv;
        }
    }
}

}

/// In-place stabilized softmax of one row. Shared with the fused attention
/// kernel so both paths stay bitwise identical.
#[inline(always)]
pub(crate) fn softmax_row(row: &mut [f32]) {
    let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
    let mut sum = 0.0f32;
    for x in row.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    for x in row.iter_mut() {
        *x /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::matrix(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]));
        let y = t.softmax_last(a);
        for r in 0..2 {
            let s: f32 = t.value(y).row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::vector(&[1000.0, 1000.0]));
        let y = t.softmax_last(a);
        assert!((t.value(y).data()[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn softmax_grad_sums_to_zero_per_row() {
        // sum of softmax grad over a row is 0 because outputs sum to 1.
        let mut t = Tape::new();
        let a = t.leaf(Tensor::vector(&[0.3, -1.0, 2.0]));
        let y = t.softmax_last(a);
        let first = t.row(y, 0); // [3] -> picks row 0 of [1? ]  (rank-1 so leading=1)
        let s = t.sum_all(first);
        let _ = s;
        let pick = t.slice_last(y, 0, 1);
        let l = t.sum_all(pick);
        let g = t.backward(l, 0);
        let da = g.grad(a).unwrap();
        let sum: f32 = da.data().iter().sum();
        assert!(sum.abs() < 1e-6, "softmax grads should sum to 0, got {sum}");
    }

    #[test]
    fn layer_norm_normalizes_rows() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::matrix(&[
            &[1.0, 2.0, 3.0, 4.0],
            &[10.0, 10.0, 30.0, 30.0],
        ]));
        let y = t.layer_norm_last(a, 1e-5);
        for r in 0..2 {
            let row = t.value(y).row(r);
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn layer_norm_grad_orthogonal_to_ones() {
        // The LN output is mean-free, so the gradient wrt x of any loss is
        // orthogonal to the all-ones direction.
        let mut t = Tape::new();
        let a = t.leaf(Tensor::vector(&[0.5, -1.5, 2.0, 0.1]));
        let y = t.layer_norm_last(a, 1e-5);
        let w = t.leaf(Tensor::vector(&[1.0, -2.0, 0.3, 0.7]));
        let p = t.mul(y, w);
        let l = t.sum_all(p);
        let g = t.backward(l, 0);
        let sum: f32 = g.grad(a).unwrap().data().iter().sum();
        assert!(sum.abs() < 1e-4, "LN grad not mean-free: {sum}");
    }

    #[test]
    fn sum_dim1_collapses_tokens() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::new([2, 2, 2], (0..8).map(|x| x as f32).collect()));
        let s = t.sum_dim1(a);
        assert_eq!(t.value(s).data(), &[2.0, 4.0, 10.0, 12.0]);
        let l = t.sum_all(s);
        let g = t.backward(l, 0);
        assert!(g.grad(a).unwrap().data().iter().all(|&x| x == 1.0));
    }

    #[test]
    fn mean_all_grad_is_uniform() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::vector(&[2.0, 4.0, 6.0, 8.0]));
        let m = t.mean_all(a);
        assert_eq!(t.value(m).item(), 5.0);
        let g = t.backward(m, 0);
        assert!(g
            .grad(a)
            .unwrap()
            .data()
            .iter()
            .all(|&x| (x - 0.25).abs() < 1e-7));
    }
}
