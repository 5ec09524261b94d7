//! Bit-equality of the pooled and fresh-buffer execution paths.
//!
//! The buffer pool (`cf_tensor::pool`) recycles every tensor and scratch
//! buffer across tape/context lifetimes. Recycling must be unobservable:
//! with the pool disabled, every buffer comes fresh from the allocator (the
//! pre-pool behaviour), so running the same seeded computation both ways and
//! comparing bits proves a recycled buffer can never leak stale contents
//! into results. Each test additionally *dirties* the pool with NaN-filled
//! buffers first, so any read of recycled memory would poison the output.

use cf_rand::rngs::StdRng;
use cf_rand::{Rng, SeedableRng};
use cf_tensor::nn::{Linear, TransformerEncoder};
use cf_tensor::optim::Adam;
use cf_tensor::{pool, Forward, InferCtx, ParamStore, Tape, Tensor};

fn rand_tensor(shape: &[usize], rng: &mut StdRng) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::new(
        shape.to_vec(),
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    )
}

/// Fills this thread's pool with NaN garbage across the size classes the
/// model shapes use, so stale-content reads cannot go unnoticed.
fn dirty_pool() {
    for n in [1usize, 16, 64, 256, 1024, 4096, 16384] {
        let mut v = pool::take(n);
        v.resize(n, f32::NAN);
        pool::recycle(v);
    }
}

/// Runs `steps` taped train steps (encoder + head, MSE loss, Adam) from a
/// fixed seed and returns each step's loss bits.
fn train_loss_bits(pooled: bool, steps: usize) -> Vec<u32> {
    let prev = pool::set_enabled(pooled);
    if pooled {
        dirty_pool();
    }
    let mut rng = StdRng::seed_from_u64(23);
    let mut ps = ParamStore::new();
    let enc = TransformerEncoder::new(&mut ps, "enc", 16, 2, 2, 32, &mut rng);
    let head = Linear::new(&mut ps, "head", 16, 1, &mut rng);
    let x = rand_tensor(&[8, 4, 16], &mut rng);
    let target = rand_tensor(&[32, 1], &mut rng);
    let mut opt = Adam::new(1e-3);
    let mut bits = Vec::with_capacity(steps);
    for _ in 0..steps {
        let mut t = Tape::new();
        let xv = t.leaf(x.clone());
        let h = enc.forward(&mut t, &ps, xv, None);
        let flat = t.reshape(h, [32, 16]);
        let pred = head.forward(&mut t, &ps, flat);
        let loss = t.mse_loss(pred, &target);
        let grads = t.backward(loss, ps.len());
        opt.step(&mut ps, &grads);
        bits.push(t.value(loss).item().to_bits());
    }
    pool::set_enabled(prev);
    bits
}

/// Pooled and fresh-buffer training must follow the identical loss
/// trajectory, bit for bit, for several steps (covering forward, backward,
/// gradient accumulation and the optimizer update).
#[test]
fn taped_train_step_loss_bits_pooled_vs_fresh() {
    let pooled = train_loss_bits(true, 6);
    let fresh = train_loss_bits(false, 6);
    assert_eq!(pooled, fresh, "pooled training diverged from fresh buffers");
}

/// One tape-free forward of the encoder stack, returning output bits.
fn infer_bits(pooled: bool) -> Vec<u32> {
    let prev = pool::set_enabled(pooled);
    if pooled {
        dirty_pool();
    }
    let mut rng = StdRng::seed_from_u64(29);
    let mut ps = ParamStore::new();
    let enc = TransformerEncoder::new(&mut ps, "enc", 16, 4, 2, 32, &mut rng);
    let head = Linear::new(&mut ps, "head", 16, 1, &mut rng);
    let x = rand_tensor(&[3, 5, 16], &mut rng);
    let mut ctx = InferCtx::new();
    // Two rounds through one reused context: the second runs entirely on
    // recycled buffers and must not change the answer.
    let mut out = Vec::new();
    for _ in 0..2 {
        ctx.clear();
        let xv = ctx.leaf(x.clone());
        let h = enc.forward(&mut ctx, &ps, xv, None);
        let flat = ctx.reshape(h, [15, 16].into());
        let y = head.forward(&mut ctx, &ps, flat);
        out = ctx.value(y).data().iter().map(|v| v.to_bits()).collect();
    }
    pool::set_enabled(prev);
    out
}

/// The tape-free (serving) forward must be bitwise identical with the pool
/// enabled-and-dirty, warm-recycled, and disabled.
#[test]
fn infer_forward_bits_pooled_vs_fresh() {
    let pooled = infer_bits(true);
    let fresh = infer_bits(false);
    assert_eq!(pooled, fresh, "pooled InferCtx forward diverged");
}

/// Gradcheck over a tape running on a warm, dirtied pool: finite-difference
/// gradients of a composition that crosses the blocked-GEMM dispatch
/// threshold (8×16 · 16×64 = 8192 flops) and the fused softmax/layer-norm
/// scratch paths.
#[test]
fn gradcheck_on_warm_pooled_tape() {
    let prev = pool::set_enabled(true);
    dirty_pool();
    let mut rng = StdRng::seed_from_u64(31);
    let x = rand_tensor(&[8, 16], &mut rng);
    let w = rand_tensor(&[16, 64], &mut rng);
    cf_tensor::gradcheck::assert_grad_close(&x, 1e-2, 2e-2, |t, xv| {
        let wv = t.constant(w.clone());
        let h = t.matmul(xv, wv); // blocked-path GEMM
        let h = t.softmax_last(h);
        let h = t.layer_norm_last(h, 1e-5);
        t.mean_all(h)
    });
    pool::set_enabled(prev);
}
