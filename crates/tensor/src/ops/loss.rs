//! Regression losses against constant targets.

use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

impl Tape {
    /// Mean squared error against a constant target (Eq. 24 of the paper).
    pub fn mse_loss(&mut self, pred: Var, target: &Tensor) -> Var {
        let pv = self.value(pred);
        assert_eq!(pv.shape(), target.shape(), "mse_loss shape mismatch");
        let n = pv.numel() as f32;
        let loss = pv.zip(target, |p, t| (p - t).powi(2)).sum() / n;
        let target = target.clone();
        self.push_bwd(Tensor::scalar(loss), move |g, t, grads| {
            let gi = g.item();
            let dp = t
                .value(pred)
                .zip(&target, |p, tv| gi * 2.0 * (p - tv) / target.numel() as f32);
            grads.accumulate(pred, dp);
        })
    }

    /// Mean absolute error against a constant target (L1 loss of §V-A).
    ///
    /// Uses the subgradient `sign(p - t)`, with 0 at the kink.
    pub fn l1_loss(&mut self, pred: Var, target: &Tensor) -> Var {
        let pv = self.value(pred);
        assert_eq!(pv.shape(), target.shape(), "l1_loss shape mismatch");
        let n = pv.numel() as f32;
        let loss = pv.zip(target, |p, t| (p - t).abs()).sum() / n;
        let target = target.clone();
        self.push_bwd(Tensor::scalar(loss), move |g, t, grads| {
            let gi = g.item();
            let n = target.numel() as f32;
            let dp = t.value(pred).zip(&target, |p, tv| {
                gi * (p - tv).signum() * if p == tv { 0.0 } else { 1.0 } / n
            });
            grads.accumulate(pred, dp);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_value_and_grad() {
        let mut t = Tape::new();
        let p = t.leaf(Tensor::vector(&[1.0, 3.0]));
        let target = Tensor::vector(&[0.0, 0.0]);
        let l = t.mse_loss(p, &target);
        assert!((t.value(l).item() - 5.0).abs() < 1e-6);
        let g = t.backward(l, 0);
        assert_eq!(g.grad(p).unwrap().data(), &[1.0, 3.0]); // 2*(p-t)/2
    }

    #[test]
    fn l1_value_and_grad_signs() {
        let mut t = Tape::new();
        let p = t.leaf(Tensor::vector(&[2.0, -2.0]));
        let target = Tensor::vector(&[0.0, 0.0]);
        let l = t.l1_loss(p, &target);
        assert!((t.value(l).item() - 2.0).abs() < 1e-6);
        let g = t.backward(l, 0);
        assert_eq!(g.grad(p).unwrap().data(), &[0.5, -0.5]);
    }

    #[test]
    fn l1_grad_zero_at_kink() {
        let mut t = Tape::new();
        let p = t.leaf(Tensor::vector(&[1.0]));
        let target = Tensor::vector(&[1.0]);
        let l = t.l1_loss(p, &target);
        let g = t.backward(l, 0);
        assert_eq!(g.grad(p).unwrap().data(), &[0.0]);
    }

    #[test]
    fn zero_loss_has_zero_grad() {
        let mut t = Tape::new();
        let p = t.leaf(Tensor::vector(&[1.0, 2.0]));
        let target = Tensor::vector(&[1.0, 2.0]);
        let l = t.mse_loss(p, &target);
        assert_eq!(t.value(l).item(), 0.0);
        let g = t.backward(l, 0);
        assert!(g.grad(p).unwrap().data().iter().all(|&x| x == 0.0));
    }
}
