//! Affine layers: `Linear` and `LayerNorm` (with learnable affine).

use crate::infer::Forward;
use crate::init::Init;
use crate::params::{ParamId, ParamStore};
use crate::tape::Var;
use cf_rand::Rng;

/// Fully connected layer `y = x W + b` with `W: [in, out]`.
///
/// Accepts inputs of any rank; the last dimension must equal `in_dim` and is
/// mapped to `out_dim` (higher-rank inputs are flattened to rows internally).
#[derive(Clone, Debug)]
pub struct Linear {
    /// Weight parameter `[in, out]`.
    pub w: ParamId,
    /// Bias parameter `[out]`.
    pub b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Xavier-initialised layer with a zero bias.
    pub fn new(
        ps: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let w = ps.add_init(
            format!("{name}.w"),
            [in_dim, out_dim],
            Init::XavierUniform,
            rng,
        );
        let b = ps.add(format!("{name}.b"), crate::tensor::Tensor::zeros([out_dim]));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Applies `x W + b` over the last dimension through
    /// [`Forward::linear`]. Generic over the evaluation context: a
    /// [`Tape`](crate::tape::Tape) for training or an
    /// [`InferCtx`](crate::infer::InferCtx) for the tape-free serving path.
    pub fn forward<F: Forward>(&self, t: &mut F, ps: &ParamStore, x: Var) -> Var {
        let d = t.value(x).shape().last_dim();
        assert_eq!(
            d, self.in_dim,
            "Linear: input last dim {d} != {}",
            self.in_dim
        );
        t.linear(ps, x, self.w, self.b)
    }
}

/// Layer normalization over the last dimension with learnable gain/bias.
#[derive(Clone, Debug)]
pub struct LayerNorm {
    /// Learnable per-feature gain (init 1).
    pub gain: ParamId,
    /// Learnable per-feature bias (init 0).
    pub bias: ParamId,
    /// Variance epsilon.
    pub eps: f32,
}

impl LayerNorm {
    /// Layer norm over `dim` features.
    pub fn new(ps: &mut ParamStore, name: &str, dim: usize) -> Self {
        let gain = ps.add(format!("{name}.gain"), crate::tensor::Tensor::ones([dim]));
        let bias = ps.add(format!("{name}.bias"), crate::tensor::Tensor::zeros([dim]));
        LayerNorm {
            gain,
            bias,
            eps: 1e-5,
        }
    }

    /// Normalizes the last dimension, then applies gain and bias.
    pub fn forward<F: Forward>(&self, t: &mut F, ps: &ParamStore, x: Var) -> Var {
        let normed = t.layer_norm_last(x, self.eps);
        let g = t.param(ps, self.gain);
        let scaled = t.mul_bcast_row(normed, g);
        let b = t.param(ps, self.bias);
        t.add_bias(scaled, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;
    use crate::tensor::Tensor;
    use cf_rand::rngs::StdRng;
    use cf_rand::SeedableRng;

    #[test]
    fn linear_shapes_2d_and_3d() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let lin = Linear::new(&mut ps, "l", 4, 3, &mut rng);
        let mut t = Tape::new();
        let x2 = t.leaf(Tensor::zeros([5, 4]));
        let y2 = lin.forward(&mut t, &ps, x2);
        assert_eq!(t.value(y2).shape().as_matrix(), (5, 3));
        let x3 = t.leaf(Tensor::zeros([2, 5, 4]));
        let y3 = lin.forward(&mut t, &ps, x3);
        assert_eq!(t.value(y3).shape().as_batch_matrix(), (2, 5, 3));
    }

    #[test]
    fn linear_trains_to_fit_line() {
        // y = 2x + 1 learned by a 1->1 linear layer.
        let mut rng = StdRng::seed_from_u64(1);
        let mut ps = ParamStore::new();
        let lin = Linear::new(&mut ps, "l", 1, 1, &mut rng);
        let mut opt = crate::optim::Adam::new(0.05);
        let xs = Tensor::new([8, 1], vec![-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0]);
        let ys = xs.map(|x| 2.0 * x + 1.0);
        for _ in 0..400 {
            let mut t = Tape::new();
            let x = t.leaf(xs.clone());
            let pred = lin.forward(&mut t, &ps, x);
            let loss = t.mse_loss(pred, &ys);
            let grads = t.backward(loss, ps.len());
            opt.step(&mut ps, &grads);
        }
        let w = ps.get(lin.w).item();
        let b = ps.get(lin.b).item();
        assert!((w - 2.0).abs() < 0.05, "w = {w}");
        assert!((b - 1.0).abs() < 0.05, "b = {b}");
    }

    #[test]
    fn layer_norm_affine_identity_at_init() {
        // gain=1, bias=0 at init: output equals plain layer norm.
        let mut ps = ParamStore::new();
        let ln = LayerNorm::new(&mut ps, "ln", 4);
        let mut t = Tape::new();
        let x = t.leaf(Tensor::matrix(&[&[1.0, 2.0, 3.0, 4.0]]));
        let y = ln.forward(&mut t, &ps, x);
        let plain = t.layer_norm_last(x, 1e-5);
        assert_eq!(t.value(y).data(), t.value(plain).data());
    }

    #[test]
    #[should_panic(expected = "input last dim")]
    fn linear_rejects_wrong_width() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut ps = ParamStore::new();
        let lin = Linear::new(&mut ps, "l", 4, 3, &mut rng);
        let mut t = Tape::new();
        let x = t.leaf(Tensor::zeros([5, 5]));
        lin.forward(&mut t, &ps, x);
    }
}
