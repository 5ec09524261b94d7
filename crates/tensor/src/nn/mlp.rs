//! Multi-layer perceptron with a configurable activation.

use super::linear::Linear;
use crate::infer::Forward;
use crate::params::ParamStore;
use crate::tape::Var;
use cf_rand::Rng;

/// Activation functions available to [`Mlp`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Applies the activation on the evaluation context.
    pub fn apply<F: Forward>(self, t: &mut F, x: Var) -> Var {
        match self {
            Activation::Relu => t.relu(x),
            Activation::Gelu => t.gelu(x),
            Activation::Tanh => t.tanh(x),
        }
    }
}

/// A stack of linear layers with the activation between them (not after the
/// last layer).
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

impl Mlp {
    /// `dims` lists every width including input and output, e.g.
    /// `[64, 128, 1]` builds `64→128→1` with one hidden activation.
    pub fn new(
        ps: &mut ParamStore,
        name: &str,
        dims: &[usize],
        activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(dims.len() >= 2, "Mlp needs at least input and output dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(ps, &format!("{name}.{i}"), w[0], w[1], rng))
            .collect();
        Mlp { layers, activation }
    }

    /// Output width of the final layer.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Input width of the first layer.
    pub fn in_dim(&self) -> usize {
        self.layers.first().expect("non-empty").in_dim()
    }

    /// Runs the stack; the activation sits between layers, not after the last.
    pub fn forward<F: Forward>(&self, t: &mut F, ps: &ParamStore, x: Var) -> Var {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(t, ps, h);
            if i != last {
                h = self.activation.apply(t, h);
            }
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
    fn mlp_learns_xor() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut ps = ParamStore::new();
        let mlp = Mlp::new(&mut ps, "xor", &[2, 8, 1], Activation::Tanh, &mut rng);
        let mut opt = Adam::new(0.05);
        let x = Tensor::matrix(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let y = Tensor::new([4, 1], vec![0.0, 1.0, 1.0, 0.0]);
        let mut final_loss = f32::MAX;
        for _ in 0..800 {
            let mut t = Tape::new();
            let xv = t.leaf(x.clone());
            let pred = mlp.forward(&mut t, &ps, xv);
            let loss = t.mse_loss(pred, &y);
            final_loss = t.value(loss).item();
            let grads = t.backward(loss, ps.len());
            opt.step(&mut ps, &grads);
        }
        assert!(final_loss < 0.02, "xor loss stuck at {final_loss}");
    }

    #[test]
    fn dims_recorded() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut ps = ParamStore::new();
        let mlp = Mlp::new(&mut ps, "m", &[5, 7, 3], Activation::Relu, &mut rng);
        assert_eq!(mlp.in_dim(), 5);
        assert_eq!(mlp.out_dim(), 3);
    }
}
