//! Encoder-only Transformer (post-LN, as in Vaswani et al. and the paper's
//! Chain Encoder / Treeformer).

use super::attention::MultiHeadAttention;
use super::linear::{LayerNorm, Linear};
use crate::infer::Forward;
use crate::params::ParamStore;
use crate::tape::Var;
use cf_rand::Rng;

/// One encoder block: self-attention and feed-forward sublayers, each wrapped
/// in residual + layer norm (post-LN).
#[derive(Clone, Debug)]
pub struct TransformerEncoderLayer {
    attn: MultiHeadAttention,
    ff1: Linear,
    ff2: Linear,
    ln1: LayerNorm,
    ln2: LayerNorm,
}

impl TransformerEncoderLayer {
    /// One block of `dim` width with `heads` attention heads and a `ff_dim` feed-forward.
    pub fn new(
        ps: &mut ParamStore,
        name: &str,
        dim: usize,
        heads: usize,
        ff_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        TransformerEncoderLayer {
            attn: MultiHeadAttention::new(ps, &format!("{name}.attn"), dim, heads, rng),
            ff1: Linear::new(ps, &format!("{name}.ff1"), dim, ff_dim, rng),
            ff2: Linear::new(ps, &format!("{name}.ff2"), ff_dim, dim, rng),
            ln1: LayerNorm::new(ps, &format!("{name}.ln1"), dim),
            ln2: LayerNorm::new(ps, &format!("{name}.ln2"), dim),
        }
    }

    /// Applies attention then feed-forward, each with residual + layer norm.
    pub fn forward<F: Forward>(
        &self,
        t: &mut F,
        ps: &ParamStore,
        x: Var,
        key_mask: Option<&[usize]>,
    ) -> Var {
        let attended = self.attn.forward(t, ps, x, key_mask);
        let res1 = t.add(x, attended);
        let h = self.ln1.forward(t, ps, res1);
        let ff = self.ff1.forward(t, ps, h);
        let ff = t.gelu(ff);
        let ff = self.ff2.forward(t, ps, ff);
        let res2 = t.add(h, ff);
        self.ln2.forward(t, ps, res2)
    }
}

/// A stack of [`TransformerEncoderLayer`]s sharing one padding mask.
#[derive(Clone, Debug)]
pub struct TransformerEncoder {
    layers: Vec<TransformerEncoderLayer>,
    dim: usize,
}

impl TransformerEncoder {
    /// `ff_dim` follows the usual `4 × dim` convention unless specified.
    pub fn new(
        ps: &mut ParamStore,
        name: &str,
        dim: usize,
        heads: usize,
        num_layers: usize,
        ff_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let layers = (0..num_layers)
            .map(|i| {
                TransformerEncoderLayer::new(
                    ps,
                    &format!("{name}.layer{i}"),
                    dim,
                    heads,
                    ff_dim,
                    rng,
                )
            })
            .collect();
        TransformerEncoder { layers, dim }
    }

    /// Model dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stacked encoder blocks.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Encodes `x: [B, T, d]`, optionally masking padded key positions
    /// (`key_mask` holds each batch element's count of valid leading keys).
    pub fn forward<F: Forward>(
        &self,
        t: &mut F,
        ps: &ParamStore,
        x: Var,
        key_mask: Option<&[usize]>,
    ) -> Var {
        let mut h = x;
        for layer in &self.layers {
            h = layer.forward(t, ps, h, key_mask);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use crate::tape::Tape;
    use crate::tensor::Tensor;
    use cf_rand::rngs::StdRng;
    use cf_rand::SeedableRng;

    #[test]
    fn encoder_preserves_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let enc = TransformerEncoder::new(&mut ps, "enc", 8, 2, 2, 16, &mut rng);
        let mut t = Tape::new();
        let x = t.leaf(Tensor::new([2, 4, 8], vec![0.3; 64]));
        let y = enc.forward(&mut t, &ps, x, None);
        assert_eq!(t.value(y).shape().as_batch_matrix(), (2, 4, 8));
        assert!(t.value(y).all_finite());
    }

    #[test]
    fn encoder_learns_sequence_sum_task() {
        // Regression: predict the sum of the first feature across tokens,
        // read out from token 0. Requires attention to move information.
        let mut rng = StdRng::seed_from_u64(1);
        let mut ps = ParamStore::new();
        let dim = 8;
        let enc = TransformerEncoder::new(&mut ps, "enc", dim, 2, 1, 16, &mut rng);
        let head = Linear::new(&mut ps, "head", dim, 1, &mut rng);
        let mut opt = Adam::new(3e-3);
        let batch = 8;
        let seq = 3;
        let mut last_loss = f32::MAX;
        for _ in 0..300 {
            let mut data = vec![0.0f32; batch * seq * dim];
            let mut targets = vec![0.0f32; batch];
            for b in 0..batch {
                let mut sum = 0.0;
                for s in 0..seq {
                    let v: f32 = rng.gen_range(-1.0..1.0);
                    data[(b * seq + s) * dim] = v;
                    sum += v;
                }
                targets[b] = sum;
            }
            let mut t = Tape::new();
            let x = t.leaf(Tensor::new([batch, seq, dim], data));
            let h = enc.forward(&mut t, &ps, x, None);
            // gather token 0 of each sequence: rows b*seq in the [B*T, d] view
            let idx: Vec<usize> = (0..batch).map(|b| b * seq).collect();
            let flat = t.reshape(h, [batch * seq, dim]);
            let tok0 = t.select_rows(flat, &idx);
            let pred = head.forward(&mut t, &ps, tok0);
            let pred = t.reshape(pred, [batch]);
            let loss = t.mse_loss(pred, &Tensor::new([batch], targets));
            last_loss = t.value(loss).item();
            let grads = t.backward(loss, ps.len());
            opt.step(&mut ps, &grads);
        }
        assert!(last_loss < 0.1, "sequence-sum loss stuck at {last_loss}");
    }

    #[test]
    fn deep_stack_stays_finite() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut ps = ParamStore::new();
        let enc = TransformerEncoder::new(&mut ps, "enc", 16, 4, 4, 32, &mut rng);
        let mut t = Tape::new();
        let x = t.leaf(Tensor::new(
            [1, 6, 16],
            (0..96).map(|i| (i as f32).sin()).collect(),
        ));
        let y = enc.forward(&mut t, &ps, x, None);
        let l = t.mean_all(y);
        let g = t.backward(l, ps.len());
        assert!(t.value(y).all_finite());
        assert!(g.all_finite());
    }
}
