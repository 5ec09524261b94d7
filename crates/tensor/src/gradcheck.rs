//! Finite-difference gradient checking for tests.

use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

/// Compares the analytic gradient of `f` (a scalar-valued function of one
/// input) against central finite differences.
///
/// Returns the worst relative error encountered. `f` is invoked with a fresh
/// tape each time, so it must be deterministic.
pub fn check_grad(input: &Tensor, eps: f32, f: impl Fn(&mut Tape, Var) -> Var) -> f32 {
    check_grad_with_params(input, eps, 0, f)
}

/// [`check_grad`] for functions that also route through [`ParamStore`]
/// parameters (e.g. `nn` layers): `n_params` sizes the parameter-gradient
/// store so backward can accumulate into it.
///
/// [`ParamStore`]: crate::ParamStore
pub fn check_grad_with_params(
    input: &Tensor,
    eps: f32,
    n_params: usize,
    f: impl Fn(&mut Tape, Var) -> Var,
) -> f32 {
    // Analytic gradient.
    let mut tape = Tape::new();
    let x = tape.leaf(input.clone());
    let y = f(&mut tape, x);
    assert_eq!(tape.value(y).numel(), 1, "check_grad needs a scalar output");
    let grads = tape.backward(y, n_params);
    let analytic = grads
        .grad(x)
        .cloned()
        .unwrap_or_else(|| Tensor::zeros(input.shape().clone()));

    // Numeric gradient by central differences.
    let mut worst = 0.0f32;
    for i in 0..input.numel() {
        let mut plus = input.clone();
        plus.data_mut()[i] += eps;
        let mut minus = input.clone();
        minus.data_mut()[i] -= eps;
        let fp = eval_scalar(&plus, &f);
        let fm = eval_scalar(&minus, &f);
        let numeric = (fp - fm) / (2.0 * eps);
        let a = analytic.data()[i];
        let denom = a.abs().max(numeric.abs()).max(1.0);
        let rel = (a - numeric).abs() / denom;
        worst = worst.max(rel);
    }
    worst
}

/// Asserts the worst relative gradient error stays under `tol`.
pub fn assert_grad_close(input: &Tensor, eps: f32, tol: f32, f: impl Fn(&mut Tape, Var) -> Var) {
    let worst = check_grad(input, eps, f);
    assert!(
        worst < tol,
        "gradient check failed: worst relative error {worst} >= {tol}"
    );
}

/// [`assert_grad_close`] for functions that route through `n_params`
/// [`ParamStore`](crate::ParamStore) parameters.
pub fn assert_grad_close_with_params(
    input: &Tensor,
    eps: f32,
    tol: f32,
    n_params: usize,
    f: impl Fn(&mut Tape, Var) -> Var,
) {
    let worst = check_grad_with_params(input, eps, n_params, f);
    assert!(
        worst < tol,
        "gradient check failed: worst relative error {worst} >= {tol}"
    );
}

fn eval_scalar(input: &Tensor, f: &impl Fn(&mut Tape, Var) -> Var) -> f32 {
    let mut tape = Tape::new();
    let x = tape.leaf(input.clone());
    let y = f(&mut tape, x);
    tape.value(y).item()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadratic_passes() {
        let x = Tensor::vector(&[0.4, -1.2, 2.0]);
        assert_grad_close(&x, 1e-3, 1e-2, |t, v| {
            let sq = t.mul(v, v);
            t.sum_all(sq)
        });
    }

    #[test]
    fn detects_wrong_gradient() {
        // At its kink relu's backward rule takes the subgradient 0, while
        // the central difference reads the slope 0.5: a gradient that
        // disagrees with the function must be reported, and one that
        // agrees must not.
        let x = Tensor::vector(&[0.0]);
        let worst = check_grad(&x, 1e-3, |t, v| {
            let r = t.relu(v);
            t.sum_all(r)
        });
        assert!((worst - 0.5).abs() < 1e-3, "kink not detected: {worst}");
        let x = Tensor::vector(&[0.5]);
        let worst = check_grad(&x, 1e-3, |t, v| {
            let s = t.sigmoid(v);
            t.sum_all(s)
        });
        assert!(worst < 1e-2, "sigmoid grad should pass, got {worst}");
    }

    #[test]
    fn chain_of_ops_passes() {
        let x = Tensor::vector(&[0.3, 0.7, -0.2, 0.1]);
        assert_grad_close(&x, 1e-3, 2e-2, |t, v| {
            let m = t.reshape(v, [2, 2]);
            let p = t.matmul(m, m);
            let sm = t.softmax_last(p);
            let tanh = t.tanh(sm);
            t.mean_all(tanh)
        });
    }
}
