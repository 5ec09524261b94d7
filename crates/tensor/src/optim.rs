//! Optimizers: Adam (used by the paper) and plain SGD, plus global-norm
//! gradient clipping.

use crate::params::{ParamId, ParamStore};
use crate::tape::GradStore;
use crate::tensor::Tensor;

/// Clips parameter gradients to a maximum global L2 norm; returns the
/// pre-clip norm.
pub fn clip_global_norm(grads: &mut GradStore, max_norm: f32) -> f32 {
    let norm = grads.global_param_norm();
    if norm.is_finite() && norm > max_norm && norm > 0.0 {
        grads.scale_param_grads(max_norm / norm);
    }
    norm
}

/// Adam with bias correction and optional decoupled weight decay (AdamW when
/// `weight_decay > 0`).
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay (default 0.9).
    pub beta1: f32,
    /// Second-moment decay (default 0.999).
    pub beta2: f32,
    /// Denominator epsilon.
    pub eps: f32,
    /// Decoupled weight-decay coefficient (0 disables).
    pub weight_decay: f32,
    step: u64,
    m: Vec<Option<Tensor>>,
    v: Vec<Option<Tensor>>,
}

impl Adam {
    /// Adam with the paper's learning rate default (1e-4) unless overridden.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            step: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Enables decoupled (AdamW-style) weight decay.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Number of optimizer steps taken so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// A copy of the optimizer's mutable state (step count and both moment
    /// estimates), for durable checkpoints.
    pub fn snapshot(&self) -> AdamSnapshot {
        AdamSnapshot {
            step: self.step,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Restores state captured by [`Self::snapshot`]. Together with
    /// restoring parameters and the data-order RNG, this makes a resumed
    /// run's update sequence bit-identical to the uninterrupted one.
    pub fn restore(&mut self, snapshot: AdamSnapshot) {
        self.step = snapshot.step;
        self.m = snapshot.m;
        self.v = snapshot.v;
    }

    /// Applies one update using the gradients produced by a backward pass.
    /// Parameters without gradients are left untouched.
    pub fn step(&mut self, params: &mut ParamStore, grads: &GradStore) {
        self.step += 1;
        if self.m.len() < params.len() {
            self.m.resize_with(params.len(), || None);
            self.v.resize_with(params.len(), || None);
        }
        let bc1 = 1.0 - self.beta1.powi(self.step as i32);
        let bc2 = 1.0 - self.beta2.powi(self.step as i32);
        for idx in 0..params.len() {
            let id = ParamId(idx);
            let Some(g) = grads.param_grad(id) else {
                continue;
            };
            let m = self.m[idx].get_or_insert_with(|| Tensor::zeros(g.shape().clone()));
            let v = self.v[idx].get_or_insert_with(|| Tensor::zeros(g.shape().clone()));
            let p = params.get_mut(id);
            adam_update_slice(
                p.data_mut(),
                g.data(),
                m.data_mut(),
                v.data_mut(),
                self.beta1,
                self.beta2,
                bc1,
                bc2,
                self.lr,
                self.eps,
                self.weight_decay,
            );
        }
    }
}

/// Element count above which one parameter's Adam update fans out across
/// the thread pool (every lane is independent, so the split is bitwise
/// invariant at any thread count).
const PAR_MIN_ELEMS: usize = 32 * 1024;

/// One Adam update over a parameter's flat data, chunked across the thread
/// pool for large tensors.
#[allow(clippy::too_many_arguments)]
fn adam_update_slice(
    p: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    beta1: f32,
    beta2: f32,
    bc1: f32,
    bc2: f32,
    lr: f32,
    eps: f32,
    weight_decay: f32,
) {
    let n = g.len();
    if n >= PAR_MIN_ELEMS {
        let (sp, sm, sv) = (
            crate::pool::SharedMut::new(p),
            crate::pool::SharedMut::new(m),
            crate::pool::SharedMut::new(v),
        );
        crate::pool::parallel_for(n, |r| {
            // SAFETY: partition ranges are disjoint and identical across
            // all four buffers.
            let (pr, mr, vr) = unsafe {
                (
                    sp.get(r.start, r.len()),
                    sm.get(r.start, r.len()),
                    sv.get(r.start, r.len()),
                )
            };
            adam_update_chunk(
                pr,
                &g[r],
                mr,
                vr,
                beta1,
                beta2,
                bc1,
                bc2,
                lr,
                eps,
                weight_decay,
            );
        });
    } else {
        adam_update_chunk(p, g, m, v, beta1, beta2, bc1, bc2, lr, eps, weight_decay);
    }
}

crate::simd_hot! {

/// One contiguous chunk of an Adam update: every lane is an independent
/// exactly-rounded chain, so this vectorizes fully.
#[allow(clippy::too_many_arguments)]
fn adam_update_chunk(
    p: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    beta1: f32,
    beta2: f32,
    bc1: f32,
    bc2: f32,
    lr: f32,
    eps: f32,
    weight_decay: f32,
) {
    for i in 0..g.len() {
        let gi = g[i];
        let mi = beta1 * m[i] + (1.0 - beta1) * gi;
        let vi = beta2 * v[i] + (1.0 - beta2) * gi * gi;
        m[i] = mi;
        v[i] = vi;
        let m_hat = mi / bc1;
        let v_hat = vi / bc2;
        let mut update = lr * m_hat / (v_hat.sqrt() + eps);
        if weight_decay > 0.0 {
            update += lr * weight_decay * p[i];
        }
        p[i] -= update;
    }
}

}

/// The mutable state of an [`Adam`] optimizer, as captured by
/// [`Adam::snapshot`] and serialized into CFT2 checkpoints (see
/// [`crate::serialize`]). Moment slots are `None` for parameters that have
/// never received a gradient, mirroring the lazy allocation in
/// [`Adam::step`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AdamSnapshot {
    /// Optimizer steps taken (drives bias correction).
    pub step: u64,
    /// First-moment estimates, indexed by parameter id.
    pub m: Vec<Option<Tensor>>,
    /// Second-moment estimates, indexed by parameter id.
    pub v: Vec<Option<Tensor>>,
}

/// Plain stochastic gradient descent (used by a few baselines and tests).
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }

    /// Applies `p -= lr * grad` to every parameter with a gradient.
    pub fn step(&self, params: &mut ParamStore, grads: &GradStore) {
        for idx in 0..params.len() {
            let id = ParamId(idx);
            if let Some(g) = grads.param_grad(id) {
                params.get_mut(id).axpy(-self.lr, g);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    /// Minimizes f(w) = (w - 3)^2 and checks convergence.
    fn converge(opt: &mut Adam, iters: usize) -> f32 {
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::vector(&[0.0]));
        for _ in 0..iters {
            let mut t = Tape::new();
            let wv = t.param(&ps, w);
            let target = Tensor::vector(&[3.0]);
            let loss = t.mse_loss(wv, &target);
            let grads = t.backward(loss, ps.len());
            opt.step(&mut ps, &grads);
        }
        ps.get(w).item()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let w = converge(&mut opt, 300);
        assert!((w - 3.0).abs() < 0.05, "adam stopped at {w}");
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::vector(&[0.0]));
        let opt = Sgd::new(0.1);
        for _ in 0..100 {
            let mut t = Tape::new();
            let wv = t.param(&ps, w);
            let loss = t.mse_loss(wv, &Tensor::vector(&[3.0]));
            let grads = t.backward(loss, ps.len());
            opt.step(&mut ps, &grads);
        }
        assert!((ps.get(w).item() - 3.0).abs() < 1e-3);
    }

    #[test]
    fn clip_rescales_large_gradients() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::vector(&[0.0]));
        let mut t = Tape::new();
        let wv = t.param(&ps, w);
        let scaled = t.mul_scalar(wv, 100.0);
        let loss = t.mse_loss(scaled, &Tensor::vector(&[100.0]));
        let mut grads = t.backward(loss, ps.len());
        let pre = clip_global_norm(&mut grads, 1.0);
        assert!(pre > 1.0);
        assert!((grads.global_param_norm() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn adam_skips_ungradded_params() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::vector(&[1.0]));
        let frozen = ps.add("frozen", Tensor::vector(&[7.0]));
        let mut opt = Adam::new(0.1);
        let mut t = Tape::new();
        let wv = t.param(&ps, w);
        let loss = t.mse_loss(wv, &Tensor::vector(&[0.0]));
        let grads = t.backward(loss, ps.len());
        opt.step(&mut ps, &grads);
        assert_eq!(ps.get(frozen).item(), 7.0);
        assert!(ps.get(w).item() < 1.0);
    }

    #[test]
    fn snapshot_restore_resumes_updates_bitwise() {
        // Two optimizers on identical problems: one runs 6 steps straight;
        // the other runs 3, is snapshotted into a fresh instance, and runs
        // 3 more. Final parameters must agree bit-for-bit.
        fn one_step(opt: &mut Adam, ps: &mut ParamStore, w: ParamId) {
            let mut t = Tape::new();
            let wv = t.param(ps, w);
            let loss = t.mse_loss(wv, &Tensor::vector(&[3.0]));
            let grads = t.backward(loss, ps.len());
            opt.step(ps, &grads);
        }
        let mut ps_a = ParamStore::new();
        let wa = ps_a.add("w", Tensor::vector(&[0.0]));
        let mut opt_a = Adam::new(0.1);
        for _ in 0..6 {
            one_step(&mut opt_a, &mut ps_a, wa);
        }

        let mut ps_b = ParamStore::new();
        let wb = ps_b.add("w", Tensor::vector(&[0.0]));
        let mut opt_b = Adam::new(0.1);
        for _ in 0..3 {
            one_step(&mut opt_b, &mut ps_b, wb);
        }
        let snap = opt_b.snapshot();
        let mut opt_c = Adam::new(0.1);
        opt_c.restore(snap);
        assert_eq!(opt_c.steps(), 3);
        for _ in 0..3 {
            one_step(&mut opt_c, &mut ps_b, wb);
        }
        assert_eq!(
            ps_a.get(wa).item().to_bits(),
            ps_b.get(wb).item().to_bits(),
            "resumed Adam diverged from the uninterrupted run"
        );
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::vector(&[5.0]));
        let mut opt = Adam::new(0.0).with_weight_decay(0.1);
        opt.lr = 0.1; // decay applies via lr * wd * p
        let mut t = Tape::new();
        let wv = t.param(&ps, w);
        // Loss constant in w would produce no grad; use a tiny quadratic.
        let loss = t.mse_loss(wv, &Tensor::vector(&[5.0]));
        let grads = t.backward(loss, ps.len());
        opt.step(&mut ps, &grads);
        assert!(ps.get(w).item() < 5.0);
    }
}
