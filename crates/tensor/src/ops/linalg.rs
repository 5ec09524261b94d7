//! Matrix-product and transpose ops.
//!
//! All product backward rules are transpose-fused: `dA = G·Bᵀ` and
//! `dB = Aᵀ·G` go through [`matmul_into_bt`] / [`matmul_into_at`] straight
//! into the gradient slots ([`GradStore::accumulate_with`]), so backward
//! never materializes a transpose tensor nor a per-op gradient temporary.
//!
//! [`GradStore::accumulate_with`]: crate::tape::GradStore::accumulate_with

use crate::pool::SharedMut;
use crate::tape::{Tape, Var};
use crate::tensor::{matmul_into, matmul_into_at, matmul_into_bt, par_batches, Tensor};

impl Tape {
    /// Rank-2 matrix product `[m,k] x [k,n] -> [m,n]`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        self.push_bwd(value, move |g, t, grads| {
            let av = t.value(a);
            let bv = t.value(b);
            let (m, k) = av.shape().as_matrix();
            let n = bv.shape().as_matrix().1;
            // dA += G·Bᵀ (B kept in its stored layout)
            let a_shape = av.shape().clone();
            grads.accumulate_with(a, &a_shape, |dst| {
                matmul_into_bt(g.data(), bv.data(), dst, m, n, k)
            });
            // dB += Aᵀ·G (A kept in its stored layout)
            let b_shape = bv.shape().clone();
            grads.accumulate_with(b, &b_shape, |dst| {
                matmul_into_at(av.data(), g.data(), dst, k, m, n)
            });
        })
    }

    /// Batched matrix product `[B,m,k] x [B,k,n] -> [B,m,n]`.
    pub fn bmm(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).bmm(self.value(b));
        self.push_bwd(value, move |g, t, grads| {
            let av = t.value(a);
            let bv = t.value(b);
            let (bs, m, k) = av.shape().as_batch_matrix();
            let n = bv.shape().as_batch_matrix().2;
            let a_shape = av.shape().clone();
            grads.accumulate_with(a, &a_shape, |dst| {
                let sh = SharedMut::new(dst);
                par_batches(bs, bs * m * n * k, |i| {
                    // SAFETY: each batch writes its own contiguous block.
                    let d = unsafe { sh.get(i * m * k, m * k) };
                    matmul_into_bt(
                        &g.data()[i * m * n..(i + 1) * m * n],
                        &bv.data()[i * k * n..(i + 1) * k * n],
                        d,
                        m,
                        n,
                        k,
                    );
                });
            });
            let b_shape = bv.shape().clone();
            grads.accumulate_with(b, &b_shape, |dst| {
                let sh = SharedMut::new(dst);
                par_batches(bs, bs * m * n * k, |i| {
                    // SAFETY: each batch writes its own contiguous block.
                    let d = unsafe { sh.get(i * k * n, k * n) };
                    matmul_into_at(
                        &av.data()[i * m * k..(i + 1) * m * k],
                        &g.data()[i * m * n..(i + 1) * m * n],
                        d,
                        k,
                        m,
                        n,
                    );
                });
            });
        })
    }

    /// Batched transpose-fused product `A·Bᵀ`: `[B,m,k] x [B,n,k] -> [B,m,n]`
    /// (the attention `QKᵀ` shape) without materializing any transpose.
    pub fn bmm_bt(&mut self, a: Var, b: Var) -> Var {
        let (bs, m, k) = self.value(a).shape().as_batch_matrix();
        let (bs2, n, k2) = self.value(b).shape().as_batch_matrix();
        assert_eq!(
            bs,
            bs2,
            "bmm_bt batch mismatch {} vs {}",
            self.value(a).shape(),
            self.value(b).shape()
        );
        assert_eq!(
            k,
            k2,
            "bmm_bt inner-dim mismatch {} vs {}",
            self.value(a).shape(),
            self.value(b).shape()
        );
        let mut out = crate::pool::take_zeroed(bs * m * n);
        {
            let sh = SharedMut::new(&mut out);
            let (ad, bd) = (self.value(a).data(), self.value(b).data());
            par_batches(bs, bs * m * k * n, |i| {
                // SAFETY: each batch writes its own contiguous block.
                let o = unsafe { sh.get(i * m * n, m * n) };
                matmul_into_bt(
                    &ad[i * m * k..(i + 1) * m * k],
                    &bd[i * n * k..(i + 1) * n * k],
                    o,
                    m,
                    k,
                    n,
                );
            });
        }
        self.push_bwd(Tensor::new([bs, m, n], out), move |g, t, grads| {
            let av = t.value(a);
            let bv = t.value(b);
            let (bs, m, k) = av.shape().as_batch_matrix();
            let n = bv.shape().as_batch_matrix().1;
            let a_shape = av.shape().clone();
            grads.accumulate_with(a, &a_shape, |dst| {
                let sh = SharedMut::new(dst);
                par_batches(bs, bs * m * n * k, |i| {
                    // SAFETY: each batch writes its own contiguous block.
                    let d = unsafe { sh.get(i * m * k, m * k) };
                    matmul_into(
                        &g.data()[i * m * n..(i + 1) * m * n],
                        &bv.data()[i * n * k..(i + 1) * n * k],
                        d,
                        m,
                        n,
                        k,
                    );
                });
            });
            let b_shape = bv.shape().clone();
            grads.accumulate_with(b, &b_shape, |dst| {
                let sh = SharedMut::new(dst);
                par_batches(bs, bs * m * n * k, |i| {
                    // SAFETY: each batch writes its own contiguous block.
                    let d = unsafe { sh.get(i * n * k, n * k) };
                    matmul_into_at(
                        &g.data()[i * m * n..(i + 1) * m * n],
                        &av.data()[i * m * k..(i + 1) * m * k],
                        d,
                        n,
                        m,
                        k,
                    );
                });
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn matmul_grads_match_manual() {
        // f = sum(A B); dA = 1 Bᵀ, dB = Aᵀ 1
        let mut t = Tape::new();
        let a = t.leaf(Tensor::matrix(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = t.leaf(Tensor::matrix(&[&[5.0, 6.0], &[7.0, 8.0]]));
        let c = t.matmul(a, b);
        let s = t.sum_all(c);
        let g = t.backward(s, 0);
        // row sums of B give dA columns: dA[i][j] = sum_k B[j][k]
        assert_eq!(g.grad(a).unwrap().data(), &[11.0, 15.0, 11.0, 15.0]);
        // col sums of A give dB rows: dB[j][k] = sum_i A[i][j]
        assert_eq!(g.grad(b).unwrap().data(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn bmm_grad_shapes() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::new(
            [2, 2, 3],
            (0..12).map(|x| x as f32 * 0.1).collect(),
        ));
        let b = t.leaf(Tensor::new(
            [2, 3, 4],
            (0..24).map(|x| x as f32 * 0.1).collect(),
        ));
        let c = t.bmm(a, b);
        assert_eq!(t.value(c).shape().as_batch_matrix(), (2, 2, 4));
        let s = t.sum_all(c);
        let g = t.backward(s, 0);
        assert_eq!(g.grad(a).unwrap().shape().as_batch_matrix(), (2, 2, 3));
        assert_eq!(g.grad(b).unwrap().shape().as_batch_matrix(), (2, 3, 4));
    }

    fn probe(n: usize, scale: f32) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.23 - 0.9) * scale * if i % 2 == 0 { 1.0 } else { -0.7 })
            .collect()
    }

    /// `[b, m, n] -> [b, n, m]`, each matrix transposed on its own.
    fn transpose_batch(x: &Tensor) -> Tensor {
        let (b, m, n) = x.shape().as_batch_matrix();
        let data = (0..b)
            .flat_map(|i| {
                Tensor::new([m, n], x.data()[i * m * n..(i + 1) * m * n].to_vec())
                    .transpose()
                    .data()
                    .to_vec()
            })
            .collect();
        Tensor::new([b, n, m], data)
    }

    /// The fused `bmm_bt` equals `bmm` against the explicitly transposed
    /// operand, in the value and in both gradients, bit for bit.
    #[test]
    fn bmm_bt_equals_bmm_of_transpose_batch_bitwise() {
        let b_val = Tensor::new([2, 5, 4], probe(40, 0.7));
        let run = |fused: bool| {
            let mut t = Tape::new();
            let a = t.leaf(Tensor::new([2, 3, 4], probe(24, 1.0)));
            let b = t.leaf(if fused {
                b_val.clone()
            } else {
                transpose_batch(&b_val)
            });
            let c = if fused { t.bmm_bt(a, b) } else { t.bmm(a, b) };
            let w = t.constant(Tensor::new([2, 3, 5], probe(30, 0.4)));
            let p = t.mul(c, w);
            let l = t.sum_all(p);
            let g = t.backward(l, 0);
            let gb = g.grad(b).unwrap();
            let gb = if fused {
                gb.clone()
            } else {
                transpose_batch(gb)
            };
            (
                t.value(c).data().to_vec(),
                g.grad(a).unwrap().data().to_vec(),
                gb.data().to_vec(),
            )
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn matmul_grad_accumulates_across_uses() {
        // The same leaf feeding two matmuls exercises the occupied-slot
        // (scratch buffer) path of accumulate_with.
        let mut t = Tape::new();
        let a = t.leaf(Tensor::matrix(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = t.leaf(Tensor::matrix(&[&[1.0, 0.0], &[0.0, 1.0]]));
        let c1 = t.matmul(a, b);
        let c2 = t.matmul(a, b);
        let s1 = t.sum_all(c1);
        let s2 = t.sum_all(c2);
        let s = t.add(s1, s2);
        let g = t.backward(s, 0);
        // Each use contributes 1·Bᵀ = all-ones against identity B.
        assert_eq!(g.grad(a).unwrap().data(), &[2.0, 2.0, 2.0, 2.0]);
    }
}
