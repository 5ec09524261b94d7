//! Single-layer LSTM, used by the paper's "w LSTM as Chain Encoder" ablation.

use super::linear::Linear;
use crate::infer::Forward;
use crate::params::ParamStore;
use crate::tape::Var;
use crate::tensor::Tensor;
use cf_rand::Rng;

/// A unidirectional LSTM that consumes `[B, T, d_in]` and exposes the hidden
/// state at each sequence's final *valid* position.
#[derive(Clone, Debug)]
pub struct Lstm {
    /// Joint gate projection of `[x_t ‖ h_{t-1}]` to `[i f o g]`.
    gates: Linear,
    in_dim: usize,
    hidden: usize,
}

impl Lstm {
    /// An LSTM mapping `in_dim` inputs to a `hidden`-wide state.
    pub fn new(
        ps: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let gates = Linear::new(
            ps,
            &format!("{name}.gates"),
            in_dim + hidden,
            4 * hidden,
            rng,
        );
        Lstm {
            gates,
            in_dim,
            hidden,
        }
    }

    /// Runs the recurrence and returns `[B, hidden]`: the hidden state at
    /// position `lens[b] - 1` for each sequence. `lens[b]` must be in
    /// `1..=T`.
    pub fn forward_last<F: Forward>(
        &self,
        t: &mut F,
        ps: &ParamStore,
        x: Var,
        lens: &[usize],
    ) -> Var {
        let (b, seq, d) = t.value(x).shape().as_batch_matrix();
        assert_eq!(d, self.in_dim, "lstm input dim {d} != {}", self.in_dim);
        assert_eq!(lens.len(), b, "lens length mismatch");
        for &l in lens {
            assert!(
                (1..=seq).contains(&l),
                "sequence length {l} outside 1..={seq}"
            );
        }
        let flat = t.reshape(x, [b * seq, d].into());
        let mut h = t.constant(Tensor::zeros([b, self.hidden]));
        let mut c = t.constant(Tensor::zeros([b, self.hidden]));
        let mut per_step_h: Vec<Var> = Vec::with_capacity(seq);
        for step in 0..seq {
            let idx: Vec<usize> = (0..b).map(|bi| bi * seq + step).collect();
            let xt = t.select_rows(flat, &idx);
            let joint = t.concat_last(&[xt, h]);
            let gates = self.gates.forward(t, ps, joint);
            let i = t.slice_last(gates, 0, self.hidden);
            let f = t.slice_last(gates, self.hidden, self.hidden);
            let o = t.slice_last(gates, 2 * self.hidden, self.hidden);
            let g = t.slice_last(gates, 3 * self.hidden, self.hidden);
            let i = t.sigmoid(i);
            let f = t.sigmoid(f);
            let o = t.sigmoid(o);
            let g = t.tanh(g);
            let fc = t.mul(f, c);
            let ig = t.mul(i, g);
            c = t.add(fc, ig);
            let ct = t.tanh(c);
            h = t.mul(o, ct);
            per_step_h.push(h);
        }
        // Gather each sequence's final hidden state.
        let rows: Vec<Var> = (0..b)
            .map(|bi| t.row(per_step_h[lens[bi] - 1], bi))
            .collect();
        t.stack_rows(&rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use crate::tape::Tape;
    use cf_rand::rngs::StdRng;
    use cf_rand::SeedableRng;

    #[test]
    fn output_shape_and_finiteness() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let lstm = Lstm::new(&mut ps, "l", 4, 6, &mut rng);
        let mut t = Tape::new();
        let x = t.leaf(Tensor::new([3, 5, 4], vec![0.2; 60]));
        let y = lstm.forward_last(&mut t, &ps, x, &[5, 3, 1]);
        assert_eq!(t.value(y).shape().as_matrix(), (3, 6));
        assert!(t.value(y).all_finite());
    }

    #[test]
    fn final_state_respects_lengths() {
        // With lens[b]=1 the output must equal the state after one step,
        // independent of later (padding) tokens.
        let mut rng = StdRng::seed_from_u64(1);
        let mut ps = ParamStore::new();
        let lstm = Lstm::new(&mut ps, "l", 2, 3, &mut rng);
        let xa = Tensor::new([1, 3, 2], vec![0.5, -0.5, 9.0, 9.0, -9.0, 9.0]);
        let xb = Tensor::new([1, 3, 2], vec![0.5, -0.5, 0.0, 0.0, 0.0, 0.0]);
        let mut ta = Tape::new();
        let a = ta.leaf(xa);
        let ya = lstm.forward_last(&mut ta, &ps, a, &[1]);
        let mut tb = Tape::new();
        let b = tb.leaf(xb);
        let yb = lstm.forward_last(&mut tb, &ps, b, &[1]);
        assert_eq!(ta.value(ya).data(), tb.value(yb).data());
    }

    #[test]
    fn learns_last_token_identity() {
        // Predict the last token's first feature: trivially solvable if the
        // recurrence carries information.
        let mut rng = StdRng::seed_from_u64(2);
        let mut ps = ParamStore::new();
        let lstm = Lstm::new(&mut ps, "l", 2, 8, &mut rng);
        let head = Linear::new(&mut ps, "head", 8, 1, &mut rng);
        let mut opt = Adam::new(0.01);
        let mut last_loss = f32::MAX;
        for _ in 0..300 {
            let b = 8;
            let seq = 4;
            let mut data = vec![0.0f32; b * seq * 2];
            let mut targets = vec![0.0f32; b];
            for bi in 0..b {
                for s in 0..seq {
                    let v: f32 = rng.gen_range(-1.0..1.0);
                    data[(bi * seq + s) * 2] = v;
                    if s == seq - 1 {
                        targets[bi] = v;
                    }
                }
            }
            let mut t = Tape::new();
            let x = t.leaf(Tensor::new([b, seq, 2], data));
            let hidden = lstm.forward_last(&mut t, &ps, x, &vec![seq; b]);
            let pred = head.forward(&mut t, &ps, hidden);
            let pred = t.reshape(pred, [b]);
            let loss = t.mse_loss(pred, &Tensor::new([b], targets));
            last_loss = t.value(loss).item();
            let grads = t.backward(loss, ps.len());
            opt.step(&mut ps, &grads);
        }
        assert!(last_loss < 0.05, "lstm loss stuck at {last_loss}");
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_zero_length() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ps = ParamStore::new();
        let lstm = Lstm::new(&mut ps, "l", 2, 3, &mut rng);
        let mut t = Tape::new();
        let x = t.leaf(Tensor::zeros([1, 3, 2]));
        lstm.forward_last(&mut t, &ps, x, &[0]);
    }
}
