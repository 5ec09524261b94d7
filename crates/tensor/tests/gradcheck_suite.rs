//! Systematic finite-difference gradient checks over the full op set, plus
//! property-based checks of tensor algebra. These are the tests that keep
//! the hand-written backward rules honest.

use cf_check::prelude::*;
use cf_rand::rngs::StdRng;
use cf_rand::SeedableRng;
use cf_tensor::gradcheck::assert_grad_close;
use cf_tensor::nn::MultiHeadAttention;
use cf_tensor::{ParamStore, Tape, Tensor, Var};

const EPS: f32 = 1e-2;
const TOL: f32 = 3e-2;

fn input(n: usize) -> Tensor {
    Tensor::new(
        [n],
        (0..n)
            .map(|i| 0.15 * (i as f32 + 1.0) * if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect(),
    )
}

fn check(n: usize, f: impl Fn(&mut Tape, Var) -> Var) {
    assert_grad_close(&input(n), EPS, TOL, f);
}

#[test]
fn grad_elementwise_ops() {
    check(6, |t, x| {
        let y = t.mul(x, x);
        t.sum_all(y)
    });
    check(6, |t, x| {
        let y = t.mul_scalar(x, -1.0);
        let z = t.add(x, y); // zero, but exercises add/mul_scalar
        let w = t.add_scalar(z, 1.0);
        let m = t.mul(w, x);
        t.mean_all(m)
    });
    // The gradient into one operand of a product with a constant.
    check(4, |t, x| {
        let c = t.constant(Tensor::vector(&[0.5, -2.0, 0.25, 3.0]));
        let y = t.mul(x, c);
        t.sum_all(y)
    });
}

#[test]
fn grad_activations() {
    check(5, |t, x| {
        let y = t.tanh(x);
        t.sum_all(y)
    });
    check(5, |t, x| {
        let y = t.sigmoid(x);
        t.sum_all(y)
    });
    check(5, |t, x| {
        let y = t.gelu(x);
        t.sum_all(y)
    });
    // relu is kinked at 0 — inputs avoid it by construction.
    check(5, |t, x| {
        let y = t.relu(x);
        t.sum_all(y)
    });
}

#[test]
fn grad_matmul_chain() {
    // x feeds both operands, so both gradient paths are checked.
    check(12, |t, x| {
        let a = t.reshape(x, [3, 4]);
        let b = t.reshape(x, [4, 3]);
        let p = t.matmul(a, b);
        t.sum_all(p)
    });
}

#[test]
fn grad_bmm() {
    check(12, |t, x| {
        let a = t.reshape(x, [2, 2, 3]);
        let b = t.reshape(x, [2, 3, 2]);
        let p = t.bmm(a, b);
        t.mean_all(p)
    });
}

#[test]
fn grad_bmm_bt() {
    check(12, |t, x| {
        let m = t.reshape(x, [2, 2, 3]);
        let p = t.bmm_bt(m, m); // [2,2,2] batched Gram
        t.mean_all(p)
    });
}

#[test]
fn grad_fused_attention_core() {
    // Gradient wrt q, k and v of the fused kernel itself (x feeds all
    // three), with and without an additive mask.
    check(12, |t, x| {
        let m = t.reshape(x, [1, 3, 4]);
        let y = t.fused_attention(m, m, m, 2, 0.5, None);
        t.mean_all(y)
    });
    check(12, |t, x| {
        let m = t.reshape(x, [1, 3, 4]);
        let mask = Tensor::new(
            [1, 3, 3],
            vec![0.0, 0.0, -1e9, 0.0, 0.0, -1e9, 0.0, 0.0, -1e9],
        );
        let y = t.fused_attention(m, m, m, 2, 0.5, Some(&mask));
        t.mean_all(y)
    });
}

#[test]
fn grad_softmax_and_layernorm() {
    check(6, |t, x| {
        let m = t.reshape(x, [2, 3]);
        let s = t.softmax_last(m);
        let w = t.constant(Tensor::new([2, 3], vec![1.0, -2.0, 0.5, 0.7, 0.1, -0.4]));
        let p = t.mul(s, w);
        t.sum_all(p)
    });
    check(8, |t, x| {
        let m = t.reshape(x, [2, 4]);
        let y = t.layer_norm_last(m, 1e-5);
        let w = t.constant(Tensor::new(
            [2, 4],
            (0..8).map(|i| (i as f32) * 0.3 - 1.0).collect(),
        ));
        let p = t.mul(y, w);
        t.sum_all(p)
    });
}

#[test]
fn grad_shape_ops() {
    check(8, |t, x| {
        let m = t.reshape(x, [2, 4]);
        let left = t.slice_last(m, 0, 2);
        let right = t.slice_last(m, 2, 2);
        let swapped = t.concat_last(&[right, left]);
        let sel = t.select_rows(swapped, &[1, 1, 0]);
        t.mean_all(sel)
    });
    check(6, |t, x| {
        let m = t.reshape(x, [3, 2]);
        let r = t.row(m, 1);
        let s = t.stack_rows(&[r, r]);
        t.sum_all(s)
    });
}

#[test]
fn grad_broadcast_ops() {
    check(6, |t, x| {
        let m = t.reshape(x, [2, 3]);
        let b = t.constant(Tensor::vector(&[0.5, -0.2, 0.9]));
        let y = t.add_bias(m, b);
        let z = t.mul_bcast_row(y, b);
        t.sum_all(z)
    });
    check(6, |t, x| {
        let m = t.reshape(x, [2, 3]);
        let w = t.constant(Tensor::vector(&[2.0, -1.0]));
        let y = t.scale_rows(m, w);
        t.sum_all(y)
    });
    // grad wrt the scale weights themselves
    check(2, |t, w| {
        let m = t.constant(Tensor::new(
            [2, 3],
            (0..6).map(|i| i as f32 * 0.2).collect(),
        ));
        let y = t.scale_rows(m, w);
        t.sum_all(y)
    });
}

#[test]
fn grad_reductions() {
    check(12, |t, x| {
        let m = t.reshape(x, [2, 3, 2]);
        let s = t.sum_dim1(m);
        let y = t.tanh(s);
        t.mean_all(y)
    });
}

#[test]
fn grad_scalar_and_const_ops() {
    check(6, |t, x| {
        let y = t.mul_scalar(x, -1.7);
        let z = t.add(x, y);
        t.sum_all(z)
    });
    check(6, |t, x| {
        let c = Tensor::vector(&[0.3, -0.1, 0.7, 0.2, -0.5, 0.4]);
        let y = t.add_const(x, &c);
        let sq = t.mul(y, y);
        t.mean_all(sq)
    });
}

#[test]
fn grad_extra_activations() {
    // The smooth activations away from the origin: a +2 shift puts every
    // input in 1.1..=2.9, where tanh and sigmoid begin to saturate.
    check(6, |t, x| {
        let p = t.add_scalar(x, 2.0);
        let a = t.tanh(p);
        let b = t.sigmoid(p);
        let c = t.gelu(p);
        let ab = t.add(a, b);
        let y = t.add(ab, c);
        t.sum_all(y)
    });
}

#[test]
fn grad_attention_forward() {
    // Gradient wrt the input of a full multi-head self-attention block
    // ([B=1, T=3, d=4], 2 heads). Projections are rebuilt from the same
    // seed every evaluation, so the closure stays deterministic.
    let n_params = {
        let mut rng = StdRng::seed_from_u64(7);
        let mut ps = ParamStore::new();
        MultiHeadAttention::new(&mut ps, "gc", 4, 2, &mut rng);
        ps.len()
    };
    cf_tensor::gradcheck::assert_grad_close_with_params(&input(12), EPS, TOL, n_params, |t, x| {
        let mut rng = StdRng::seed_from_u64(7);
        let mut ps = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut ps, "gc", 4, 2, &mut rng);
        let xs = t.reshape(x, [1, 3, 4]);
        let y = mha.forward(t, &ps, xs, None);
        t.mean_all(y)
    });
    // Masked variant: the padded key position must not receive gradient
    // through the attention probabilities.
    cf_tensor::gradcheck::assert_grad_close_with_params(&input(12), EPS, TOL, n_params, |t, x| {
        let mut rng = StdRng::seed_from_u64(7);
        let mut ps = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut ps, "gc", 4, 2, &mut rng);
        let xs = t.reshape(x, [1, 3, 4]);
        let y = mha.forward(t, &ps, xs, Some(&[2]));
        t.mean_all(y)
    });
}

#[test]
fn grad_losses() {
    let target = Tensor::vector(&[0.1, -0.3, 0.8, 0.05]);
    check(4, |t, x| t.mse_loss(x, &target));
    // L1 subgradient: exact away from kinks (inputs differ from target).
    check(4, |t, x| t.l1_loss(x, &target));
}

property! {
    #![config(cases = 48)]

    /// (A·B)ᵀ = Bᵀ·Aᵀ for arbitrary small matrices.
    #[test]
    fn matmul_transpose_identity(
        a in vec(-2f32..2.0, 6),
        b in vec(-2f32..2.0, 6),
    ) {
        let ma = Tensor::new([2, 3], a);
        let mb = Tensor::new([3, 2], b);
        let lhs = ma.matmul(&mb).transpose();
        let rhs = mb.transpose().matmul(&ma.transpose());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            check_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Matmul distributes over addition: A(B + C) = AB + AC.
    #[test]
    fn matmul_distributes(
        a in vec(-2f32..2.0, 4),
        b in vec(-2f32..2.0, 4),
        c in vec(-2f32..2.0, 4),
    ) {
        let ma = Tensor::new([2, 2], a);
        let mb = Tensor::new([2, 2], b);
        let mc = Tensor::new([2, 2], c);
        let sum = mb.zip(&mc, |x, y| x + y);
        let lhs = ma.matmul(&sum);
        let rhs_a = ma.matmul(&mb);
        let rhs_b = ma.matmul(&mc);
        for ((l, x), y) in lhs.data().iter().zip(rhs_a.data()).zip(rhs_b.data()) {
            check_assert!((l - (x + y)).abs() < 1e-4);
        }
    }

    /// backward() of sum_all always returns all-ones gradients.
    #[test]
    fn sum_grad_is_ones(data in vec(-10f32..10.0, 1..20)) {
        let mut t = Tape::new();
        let x = t.leaf(Tensor::new([data.len()], data));
        let s = t.sum_all(x);
        let g = t.backward(s, 0);
        check_assert!(g.grad(x).unwrap().data().iter().all(|&v| v == 1.0));
    }

    /// Smooth activations pass gradcheck on arbitrary inputs, not just the
    /// fixed probe vector.
    #[test]
    fn grad_smooth_activations_random_inputs(data in vec(-2f32..2.0, 4)) {
        let x = Tensor::new([4], data);
        assert_grad_close(&x, EPS, TOL, |t, v| {
            let a = t.tanh(v);
            let b = t.sigmoid(a);
            let c = t.gelu(b);
            let d = t.mul(c, c);
            t.sum_all(d)
        });
    }

    /// Softmax and layer-norm gradients, alone and through their product,
    /// hold on random 2×3 inputs.
    #[test]
    fn grad_rowwise_ops_random_inputs(data in vec(-3f32..3.0, 6), w in vec(-1f32..1.0, 6)) {
        let x = Tensor::new([6], data);
        let weights = Tensor::new([2, 3], w);
        assert_grad_close(&x, EPS, TOL, |t, v| {
            let m = t.reshape(v, [2, 3]);
            let s = t.softmax_last(m);
            let n = t.layer_norm_last(m, 1e-5);
            let l = t.mul(s, n);
            let wc = t.constant(weights.clone());
            let sw = t.mul(s, wc);
            let lw = t.mul(l, wc);
            let sum1 = t.sum_all(sw);
            let sum2 = t.sum_all(lw);
            let sum3 = t.mean_all(n);
            let partial = t.add(sum1, sum2);
            t.add(partial, sum3)
        });
    }

    /// Kinked ops (relu and the L1 loss) pass gradcheck whenever the input
    /// sits safely away from their kink points.
    #[test]
    fn grad_kinked_ops_away_from_kinks(data in vec(-2f32..2.0, 6)) {
        // Keep every coordinate clear of 0 (the relu kink) and of ±1, where
        // the L1 target below puts its other kinks.
        let margin = 0.05;
        check_assume!(data.iter().all(|v| v.abs() > margin && (v.abs() - 1.0).abs() > margin));
        let target = Tensor::new([6], vec![1.0, -1.0, 0.0, -1.0, 0.0, 1.0]);
        let x = Tensor::new([6], data);
        assert_grad_close(&x, EPS, TOL, |t, v| {
            let r = t.relu(v);
            let rv = t.mul(r, v);
            let s1 = t.sum_all(rv);
            let s2 = t.l1_loss(v, &target);
            t.add(s1, s2)
        });
    }

    /// Softmax is invariant to constant logit shifts.
    #[test]
    fn softmax_shift_invariance(data in vec(-20f32..20.0, 2..10), shift in -50f32..50.0) {
        let mut t = Tape::new();
        let n = data.len();
        let x1 = t.leaf(Tensor::new([n], data.clone()));
        let y1 = t.softmax_last(x1);
        let x2 = t.leaf(Tensor::new([n], data.iter().map(|v| v + shift).collect::<Vec<_>>()));
        let y2 = t.softmax_last(x2);
        for (a, b) in t.value(y1).data().iter().zip(t.value(y2).data()) {
            check_assert!((a - b).abs() < 1e-4);
        }
    }
}
