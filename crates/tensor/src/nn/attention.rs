//! Multi-head scaled dot-product self-attention over `[B, T, d]` sequences.

use super::linear::Linear;
use crate::infer::Forward;
use crate::params::ParamStore;
#[cfg(debug_assertions)]
use crate::tape::Tape;
use crate::tape::Var;
use crate::tensor::Tensor;
use cf_rand::Rng;

/// Additive value for masked attention logits. Large enough to zero the
/// softmax weight, small enough to stay far from f32 overflow.
const MASK_NEG: f32 = -1e9;

/// The `[B, seq, seq]` additive logit mask for padded batches, built in
/// pooled storage: key `ki` of batch element `bi` is valid (0) when
/// `ki < lens[bi]` and masked (`-1e9`) otherwise, for every query.
fn prefix_mask(lens: &[usize], b: usize, seq: usize) -> Tensor {
    assert_eq!(lens.len(), b, "key_mask batch mismatch");
    let mut data = crate::pool::take_zeroed(b * seq * seq);
    for (bi, &len) in lens.iter().enumerate() {
        assert!(len <= seq, "key_mask prefix {len} exceeds seq {seq}");
        for qi in 0..seq {
            let row = (bi * seq + qi) * seq;
            data[row + len..row + seq].fill(MASK_NEG);
        }
    }
    Tensor::new([b, seq, seq], data)
}

/// Multi-head self-attention (Vaswani et al.), as used by the paper's Chain
/// Encoder and Treeformer.
#[derive(Clone, Debug)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    dim: usize,
}

impl MultiHeadAttention {
    /// Builds the four projections; `dim` must divide evenly by `heads`.
    pub fn new(
        ps: &mut ParamStore,
        name: &str,
        dim: usize,
        heads: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            heads > 0 && dim % heads == 0,
            "dim {dim} not divisible by heads {heads}"
        );
        MultiHeadAttention {
            wq: Linear::new(ps, &format!("{name}.wq"), dim, dim, rng),
            wk: Linear::new(ps, &format!("{name}.wk"), dim, dim, rng),
            wv: Linear::new(ps, &format!("{name}.wv"), dim, dim, rng),
            wo: Linear::new(ps, &format!("{name}.wo"), dim, dim, rng),
            heads,
            dim,
        }
    }

    /// Model dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Self-attention over `x: [B, T, d]`.
    ///
    /// `key_mask`, when given, holds per batch element the count of valid
    /// leading key positions (the padded-batch case). Keys past it receive
    /// `-1e9` logits for every query.
    pub fn forward<F: Forward>(
        &self,
        t: &mut F,
        ps: &ParamStore,
        x: Var,
        key_mask: Option<&[usize]>,
    ) -> Var {
        let (b, seq, d) = t.value(x).shape().as_batch_matrix();
        assert_eq!(d, self.dim, "attention dim mismatch: {d} vs {}", self.dim);
        let q = self.wq.forward(t, ps, x);
        let k = self.wk.forward(t, ps, x);
        let v = self.wv.forward(t, ps, x);
        let add_mask = key_mask.map(|lens| prefix_mask(lens, b, seq));

        let dh = self.dim / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let merged = t.fused_attention(q, k, v, self.heads, scale, add_mask.as_ref());
        self.wo.forward(t, ps, merged)
    }

    /// Reference forward running the compositional per-head graph the fused
    /// kernel replaced (slice, QKᵀ, scale, mask, softmax, probs·V, concat).
    /// Kept for the bitwise fused-vs-reference equivalence test; debug builds
    /// only so release binaries carry a single attention path.
    #[cfg(debug_assertions)]
    pub fn forward_reference(
        &self,
        t: &mut Tape,
        ps: &ParamStore,
        x: Var,
        key_mask: Option<&[usize]>,
    ) -> Var {
        let (b, seq, d) = t.value(x).shape().as_batch_matrix();
        assert_eq!(d, self.dim, "attention dim mismatch: {d} vs {}", self.dim);
        let q = self.wq.forward(t, ps, x);
        let k = self.wk.forward(t, ps, x);
        let v = self.wv.forward(t, ps, x);
        let add_mask = key_mask.map(|lens| prefix_mask(lens, b, seq));
        let dh = self.dim / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut head_outputs = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let qh = t.slice_last(q, h * dh, dh);
            let kh = t.slice_last(k, h * dh, dh);
            let vh = t.slice_last(v, h * dh, dh);
            let scores = t.bmm_bt(qh, kh);
            let mut scores = t.mul_scalar(scores, scale);
            if let Some(m) = &add_mask {
                scores = t.add_const(scores, m);
            }
            let probs = t.softmax_last(scores);
            head_outputs.push(t.bmm(probs, vh));
        }
        let merged = t.concat_last(&head_outputs);
        self.wo.forward(t, ps, merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;
    use cf_rand::rngs::StdRng;
    use cf_rand::SeedableRng;

    fn attn(dim: usize, heads: usize, seed: u64) -> (MultiHeadAttention, ParamStore) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ps = ParamStore::new();
        let a = MultiHeadAttention::new(&mut ps, "a", dim, heads, &mut rng);
        (a, ps)
    }

    #[test]
    fn output_shape_matches_input() {
        let (a, ps) = attn(8, 2, 0);
        let mut t = Tape::new();
        let x = t.leaf(Tensor::new([3, 5, 8], vec![0.1; 120]));
        let y = a.forward(&mut t, &ps, x, None);
        assert_eq!(t.value(y).shape().as_batch_matrix(), (3, 5, 8));
    }

    #[test]
    fn masked_positions_do_not_influence_output() {
        // Changing the value at a masked key position must leave every
        // unmasked query's output untouched.
        let (a, ps) = attn(4, 1, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let base: Vec<f32> = (0..2 * 3 * 4).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let lens = [2, 3];

        let mut t1 = Tape::new();
        let x1 = t1.leaf(Tensor::new([2, 3, 4], base.clone()));
        let y1 = a.forward(&mut t1, &ps, x1, Some(&lens));

        let mut perturbed = base.clone();
        for j in 0..4 {
            perturbed[2 * 4 + j] += 10.0; // token 2 of batch 0 is masked
        }
        let mut t2 = Tape::new();
        let x2 = t2.leaf(Tensor::new([2, 3, 4], perturbed));
        let y2 = a.forward(&mut t2, &ps, x2, Some(&lens));

        // Batch 0, tokens 0 and 1 must match exactly (token 2 itself queries
        // with a different input so it may differ).
        for tok in 0..2 {
            for j in 0..4 {
                let i = (0 * 3 + tok) * 4 + j;
                assert!(
                    (t1.value(y1).data()[i] - t2.value(y2).data()[i]).abs() < 1e-5,
                    "masked key leaked into output"
                );
            }
        }
        // Batch 1 untouched entirely.
        for i in 3 * 4..2 * 3 * 4 {
            let i1 = t1.value(y1).data()[3 * 4 + i - 12];
            let i2 = t2.value(y2).data()[3 * 4 + i - 12];
            assert!((i1 - i2).abs() < 1e-5);
        }
    }

    #[test]
    fn permutation_equivariance_without_mask() {
        // Self-attention with no positional signal is permutation-equivariant.
        let (a, ps) = attn(4, 2, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let rows: Vec<Vec<f32>> = (0..3)
            .map(|_| (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let seq = |order: &[usize]| -> Tensor {
            let mut data = Vec::new();
            for &i in order {
                data.extend_from_slice(&rows[i]);
            }
            Tensor::new([1, 3, 4], data)
        };
        let mut t1 = Tape::new();
        let x1 = t1.leaf(seq(&[0, 1, 2]));
        let y1 = a.forward(&mut t1, &ps, x1, None);
        let mut t2 = Tape::new();
        let x2 = t2.leaf(seq(&[2, 0, 1]));
        let y2 = a.forward(&mut t2, &ps, x2, None);
        // token 0's output in t1 should equal token 1's output in t2.
        for j in 0..4 {
            let a0 = t1.value(y1).data()[j];
            let b1 = t2.value(y2).data()[4 + j];
            assert!((a0 - b1).abs() < 1e-5, "not permutation-equivariant");
        }
    }

    #[test]
    fn gradients_flow_to_all_projections() {
        let (a, ps) = attn(4, 2, 5);
        let mut t = Tape::new();
        let x = t.leaf(Tensor::new(
            [1, 3, 4],
            (0..12).map(|i| i as f32 * 0.1).collect(),
        ));
        let y = a.forward(&mut t, &ps, x, None);
        let l = t.mean_all(y);
        let g = t.backward(l, ps.len());
        for (id, name, _) in ps.iter() {
            assert!(g.param_grad(id).is_some(), "no grad for {name}");
        }
    }
}
