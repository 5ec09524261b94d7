//! Additional ops a downstream user of the library will reach for:
//! axis-0 concatenation, clamping, leaky ReLU / softplus, log-softmax, and
//! non-differentiable argmax/max utilities.

use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

impl Tape {
    /// Concatenates tensors along the first axis. All inputs must share
    /// their trailing dims; a `[a, d]` and a `[b, d]` give `[a+b, d]`.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_rows of zero tensors");
        let first_shape = *self.value(parts[0]).shape();
        assert!(first_shape.rank() >= 1, "concat_rows needs rank >= 1");
        let trailing = &first_shape.dims()[1..];
        let mut total_rows = 0usize;
        for &p in parts {
            let s = self.value(p).shape();
            assert_eq!(
                &s.dims()[1..],
                trailing,
                "concat_rows trailing-dim mismatch"
            );
            total_rows += s.dim(0);
        }
        let mut data = crate::pool::take(total_rows * trailing.iter().product::<usize>().max(1));
        for &p in parts {
            data.extend_from_slice(self.value(p).data());
        }
        let mut dims = [0usize; crate::shape::MAX_RANK];
        dims[..first_shape.rank()].copy_from_slice(first_shape.dims());
        dims[0] = total_rows;
        let shape = crate::shape::Shape::new(&dims[..first_shape.rank()]);
        let parts = crate::pool::Scratch::collect(parts.iter().map(|p| p.0));
        self.push_bwd(Tensor::new(shape, data), move |g, t, grads| {
            let mut offset = 0usize;
            for &p in parts.iter() {
                let n = t.value(Var(p)).numel();
                let p_shape = *t.value(Var(p)).shape();
                grads.accumulate_with(Var(p), &p_shape, |dst| {
                    dst.copy_from_slice(&g.data()[offset..offset + n]);
                });
                offset += n;
            }
        })
    }

    /// Clamps every element into `[lo, hi]`; gradient is zero outside the
    /// active range (straight-through would be `identity`; this is the
    /// exact subgradient).
    pub fn clamp(&mut self, a: Var, lo: f32, hi: f32) -> Var {
        assert!(lo <= hi, "clamp bounds inverted: [{lo}, {hi}]");
        let value = self.value(a).map(|x| x.clamp(lo, hi));
        self.push_bwd(value, move |g, t, grads| {
            grads.accumulate(
                a,
                g.zip(
                    t.value(a),
                    |gi, x| if (lo..=hi).contains(&x) { gi } else { 0.0 },
                ),
            );
        })
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&mut self, a: Var, alpha: f32) -> Var {
        let value = self.value(a).map(|x| if x > 0.0 { x } else { alpha * x });
        self.push_bwd(value, move |g, t, grads| {
            grads.accumulate(
                a,
                g.zip(t.value(a), |gi, x| if x > 0.0 { gi } else { alpha * gi }),
            );
        })
    }

    /// Numerically-stable softplus `ln(1 + e^x)`.
    pub fn softplus(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|x| {
            if x > 20.0 {
                x
            } else if x < -20.0 {
                x.exp()
            } else {
                x.exp().ln_1p()
            }
        });
        self.push_bwd(value, move |g, t, grads| {
            // d softplus / dx = sigmoid(x)
            grads.accumulate(a, g.zip(t.value(a), |gi, x| gi / (1.0 + (-x).exp())));
        })
    }

    /// Row-wise log-softmax over the last dimension (stable log-sum-exp).
    pub fn log_softmax_last(&mut self, a: Var) -> Var {
        let av = self.value(a);
        let d = av.shape().last_dim();
        let rows = av.shape().leading();
        let mut out = av.clone();
        for r in 0..rows {
            let slice = &mut out.data_mut()[r * d..(r + 1) * d];
            let max = slice.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
            let lse = max + slice.iter().map(|&x| (x - max).exp()).sum::<f32>().ln();
            for x in slice.iter_mut() {
                *x -= lse;
            }
        }
        let node = self.push_value(out);
        self.set_bwd(node, move |g, t, grads| {
            // dx = g − softmax(x) · Σ g   (row-wise)
            let y = t.value(node); // log-probs
            let d = y.shape().last_dim();
            let rows = y.shape().leading();
            let y_shape = *y.shape();
            grads.accumulate_with(a, &y_shape, |dst| {
                for r in 0..rows {
                    let yr = &y.data()[r * d..(r + 1) * d];
                    let gr = &g.data()[r * d..(r + 1) * d];
                    let gsum: f32 = gr.iter().sum();
                    for j in 0..d {
                        dst[r * d + j] = gr[j] - yr[j].exp() * gsum;
                    }
                }
            });
        });
        node
    }

    /// Row-wise maximum over the last dimension; `[.., d] -> [..rows]`.
    /// Gradient flows only to the (first) arg-max element of each row.
    pub fn max_last(&mut self, a: Var) -> Var {
        let av = self.value(a);
        let d = av.shape().last_dim();
        let rows = av.shape().leading();
        let mut maxima = crate::pool::take(rows);
        let mut arg = crate::pool::Scratch::<usize>::with_capacity(rows);
        for r in 0..rows {
            let slice = &av.data()[r * d..(r + 1) * d];
            let (i, &m) = slice
                .iter()
                .enumerate()
                .max_by(|x, y| x.1.partial_cmp(y.1).expect("finite"))
                .expect("non-empty row");
            maxima.push(m);
            arg.push(i);
        }
        self.push_bwd(Tensor::new([rows], maxima), move |g, t, grads| {
            let av = t.value(a);
            let d = av.shape().last_dim();
            let a_shape = *av.shape();
            grads.accumulate_with(a, &a_shape, |dst| {
                for (r, (&i, &gi)) in arg.iter().zip(g.data()).enumerate() {
                    dst[r * d + i] = gi;
                }
            });
        })
    }

    /// Row-wise arg-max over the last dimension (no gradient; returns plain
    /// indices for the caller).
    pub fn argmax_last(&self, a: Var) -> Vec<usize> {
        let av = self.value(a);
        let d = av.shape().last_dim();
        (0..av.shape().leading())
            .map(|r| {
                av.data()[r * d..(r + 1) * d]
                    .iter()
                    .enumerate()
                    .max_by(|x, y| x.1.partial_cmp(y.1).expect("finite"))
                    .map(|(i, _)| i)
                    .expect("non-empty row")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_rows_stacks_and_splits_grads() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::matrix(&[&[1.0, 2.0]]));
        let b = t.leaf(Tensor::matrix(&[&[3.0, 4.0], &[5.0, 6.0]]));
        let c = t.concat_rows(&[a, b]);
        assert_eq!(t.value(c).shape().as_matrix(), (3, 2));
        assert_eq!(t.value(c).data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let r = t.row(c, 2);
        let s = t.sum_all(r);
        let g = t.backward(s, 0);
        assert!(g.grad(a).is_none() || g.grad(a).unwrap().data().iter().all(|&x| x == 0.0));
        assert_eq!(g.grad(b).unwrap().data(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn clamp_saturates_and_blocks_grad() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::vector(&[-2.0, 0.5, 3.0]));
        let c = t.clamp(a, -1.0, 1.0);
        assert_eq!(t.value(c).data(), &[-1.0, 0.5, 1.0]);
        let s = t.sum_all(c);
        let g = t.backward(s, 0);
        assert_eq!(g.grad(a).unwrap().data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn leaky_relu_slope() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::vector(&[-2.0, 2.0]));
        let y = t.leaky_relu(a, 0.1);
        assert_eq!(t.value(y).data(), &[-0.2, 2.0]);
        let s = t.sum_all(y);
        let g = t.backward(s, 0);
        assert_eq!(g.grad(a).unwrap().data(), &[0.1, 1.0]);
    }

    #[test]
    fn softplus_limits() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::vector(&[-30.0, 0.0, 30.0]));
        let y = t.softplus(a);
        let v = t.value(y).data();
        assert!(v[0] > 0.0 && v[0] < 1e-8);
        assert!((v[1] - 2f32.ln()).abs() < 1e-6);
        assert!((v[2] - 30.0).abs() < 1e-4);
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::vector(&[0.2, -1.0, 3.0]));
        let ls = t.log_softmax_last(a);
        let sm = t.softmax_last(a);
        for (l, s) in t.value(ls).data().iter().zip(t.value(sm).data()) {
            assert!((l - s.ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn log_softmax_gradcheck() {
        use crate::tensor::Tensor as T;
        cf_gradcheck(&T::vector(&[0.3, -0.7, 1.1]));
    }

    fn cf_gradcheck(x: &Tensor) {
        crate::gradcheck::assert_grad_close(x, 1e-2, 3e-2, |t, v| {
            let ls = t.log_softmax_last(v);
            let w = t.constant(Tensor::vector(&[0.5, -1.0, 0.25]));
            let p = t.mul(ls, w);
            t.sum_all(p)
        });
    }

    #[test]
    fn max_last_and_argmax() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::matrix(&[&[1.0, 5.0, 3.0], &[9.0, 2.0, 4.0]]));
        let m = t.max_last(a);
        assert_eq!(t.value(m).data(), &[5.0, 9.0]);
        assert_eq!(t.argmax_last(a), vec![1, 0]);
        let s = t.sum_all(m);
        let g = t.backward(s, 0);
        assert_eq!(g.grad(a).unwrap().data(), &[0.0, 1.0, 0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "trailing-dim mismatch")]
    fn concat_rows_checks_trailing_dims() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::zeros([1, 2]));
        let b = t.leaf(Tensor::zeros([1, 3]));
        t.concat_rows(&[a, b]);
    }
}
