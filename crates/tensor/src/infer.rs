//! Tape-free forward evaluation for inference/serving.
//!
//! Training builds every activation as a [`Tape`] node carrying a boxed
//! backward closure; a serving process never calls `backward`, so those
//! closures (and the `GradStore` plumbing behind them) are pure overhead.
//! This module splits the *forward* op set out into the [`Forward`] trait,
//! implemented twice:
//!
//! - by [`Tape`], delegating to the existing differentiable ops (training and
//!   any code that might still want gradients keeps working unchanged);
//! - by [`InferCtx`], a value-only arena: each op computes the identical
//!   forward tensor and stores it, recording nothing else.
//!
//! ## Bitwise contract
//!
//! `InferCtx` does not approximate the taped forward — it *is* the taped
//! forward. Each op's value is written once, as a crate-private `*_fwd`
//! function in its `crate::ops` module (or one `Tensor` call: `map`/`zip`
//! with a one-operator closure, `matmul`, `bmm`, `reshape`); the `Tape`
//! method calls it and attaches a backward rule, `InferCtx` calls it and
//! pushes the value. What differs is only what a backward pass would need:
//! GELU skips the taped op's `tanh` cache (both loops share `gelu_tanh`), and
//! layer norm's `1/σ` and attention's probabilities go back to the pool at
//! once. The one fused op is [`Forward::linear`]: `InferCtx` reads the weight
//! and bias in place and adds the bias into the GEMM's own output buffer,
//! which is the composed path's `matmul_into` then `add_bias_rows` minus its
//! copies. The equivalence tests below and the model-shape test in
//! `chainsformer` pin this.
//!
//! ## Weight twins
//!
//! With a [`WeightTwin`] attached ([`InferCtx::set_weights`]), `linear` runs
//! every weight that has a packed twin through
//! [`PackedWeight::matmul_rows_into`] instead of `matmul_into`, packing only
//! the input rows, then adds the bias the same way. An f32 twin holds the
//! GEMM's own `B` panels, so its products are `matmul_into`'s bits; an int8
//! twin runs the int8 GEMM (`crate::quant` has the scale scheme). Every other
//! op, and every weight without a twin, stays f32.
//! [`InferCtx::linear_tiles`] is the same product handed out one column tile
//! at a time, for a consumer that folds each tile away.

use crate::ops::attn::fused_attention_fwd;
use crate::ops::elementwise::{
    add_bias_fwd, add_bias_into, add_bias_rows, gelu_in_place, mul_bcast_row_fwd, scale_rows_fwd,
    sigmoid, tanh,
};
use crate::ops::reduce::{layer_norm_last_fwd, softmax_last_fwd, sum_all_fwd, sum_dim1_fwd};
use crate::ops::shape_ops::{
    concat_last_fwd, row_fwd, select_rows_fwd, slice_last_fwd, stack_rows_fwd,
};
use crate::params::{ParamId, ParamStore};
use crate::shape::Shape;
use crate::tape::{Tape, Var};
use crate::tensor::{matmul_into, PackedRows, Tensor};
use crate::twin::{PackedWeight, WeightTwin};
use std::sync::Arc;

/// Column tiles of [`InferCtx::linear_tiles`] start at multiples of this
/// width: a whole number of packed panels in either numeric mode.
pub const LINEAR_TILE_ALIGN: usize = crate::tensor::NR;
const _: () = assert!(LINEAR_TILE_ALIGN.is_multiple_of(crate::quant::NR));

/// The forward-only op set shared by [`Tape`] (training) and [`InferCtx`]
/// (serving). Layer `forward` methods are generic over this trait, so one
/// definition of a model serves both paths with bit-identical results.
///
/// The methods mirror the inherent `Tape` ops exactly — see `crate::ops` for
/// semantics. Only the subset reachable from inference forwards is included;
/// the losses and the other training-only ops stay `Tape`-only.
pub trait Forward {
    /// Reads the tensor behind a handle.
    fn value(&self, v: Var) -> &Tensor;
    /// Registers an input tensor (a differentiable leaf on the tape).
    fn leaf(&mut self, value: Tensor) -> Var;
    /// Registers a non-differentiable constant tensor.
    fn constant(&mut self, value: Tensor) -> Var;
    /// Brings a parameter from the store into the graph.
    fn param(&mut self, store: &ParamStore, id: ParamId) -> Var;
    /// `a + b`, same shape.
    fn add(&mut self, a: Var, b: Var) -> Var;
    /// Hadamard product `a ⊙ b`, same shape.
    fn mul(&mut self, a: Var, b: Var) -> Var;
    /// `a + c` for a scalar constant `c`.
    fn add_scalar(&mut self, a: Var, c: f32) -> Var;
    /// `c * a` for a scalar constant `c`.
    fn mul_scalar(&mut self, a: Var, c: f32) -> Var;
    /// Row-broadcast add: `a[.., d] + b[d]`.
    fn add_bias(&mut self, a: Var, b: Var) -> Var;
    /// Row-broadcast multiply: `a[.., d] ⊙ b[d]`.
    fn mul_bcast_row(&mut self, a: Var, b: Var) -> Var;
    /// Scales each row of `a` (viewed as `[L, d]`) by the matching scalar of
    /// `w`.
    fn scale_rows(&mut self, a: Var, w: Var) -> Var;
    /// Rectified linear unit.
    fn relu(&mut self, a: Var) -> Var;
    /// GELU with the tanh approximation.
    fn gelu(&mut self, a: Var) -> Var;
    /// Hyperbolic tangent.
    fn tanh(&mut self, a: Var) -> Var;
    /// Logistic sigmoid.
    fn sigmoid(&mut self, a: Var) -> Var;
    /// Rank-2 matrix product.
    fn matmul(&mut self, a: Var, b: Var) -> Var;
    /// Batched matrix product `[b,m,k] x [b,k,n]`.
    fn bmm(&mut self, a: Var, b: Var) -> Var;
    /// Metadata-only reshape.
    fn reshape(&mut self, a: Var, shape: Shape) -> Var;
    /// Slices `len` columns starting at `start` from the last dimension.
    fn slice_last(&mut self, a: Var, start: usize, len: usize) -> Var;
    /// Concatenates tensors along the last dimension.
    fn concat_last(&mut self, parts: &[Var]) -> Var;
    /// Gathers rows of `a` (viewed as `[L, d]`) by index.
    fn select_rows(&mut self, a: Var, indices: &[usize]) -> Var;
    /// Stacks rank-1 vectors of equal length into a `[k, d]` matrix.
    fn stack_rows(&mut self, rows: &[Var]) -> Var;
    /// Extracts row `i` of `a` (viewed as `[L, d]`) as a rank-1 vector.
    fn row(&mut self, a: Var, i: usize) -> Var;
    /// Sum of all elements, producing a scalar.
    fn sum_all(&mut self, a: Var) -> Var;
    /// Sums a rank-3 tensor over its middle dimension: `[B,T,d] -> [B,d]`.
    fn sum_dim1(&mut self, a: Var) -> Var;
    /// Row-wise softmax over the last dimension.
    fn softmax_last(&mut self, a: Var) -> Var;
    /// Row-wise layer normalization over the last dimension (no affine).
    fn layer_norm_last(&mut self, a: Var, eps: f32) -> Var;
    /// Fused multi-head attention over packed `[B, T, d]` projections.
    fn fused_attention(
        &mut self,
        q: Var,
        k: Var,
        v: Var,
        heads: usize,
        scale: f32,
        add_mask: Option<&Tensor>,
    ) -> Var;

    /// Affine map `x W + b` over the last dimension of `x` (any rank; the
    /// leading dimensions are rows), with `W: [in, out]` and `b: [out]`.
    ///
    /// The default body is the composed graph — param, reshape to rows,
    /// matmul, param, add_bias, reshape back — so [`Tape`] records its usual
    /// nodes and gradients. [`InferCtx`] overrides it with a copy-free
    /// version that yields the same bits, and that is where its int8 route
    /// lives.
    fn linear(&mut self, ps: &ParamStore, x: Var, w: ParamId, b: ParamId) -> Var {
        let shape = *self.value(x).shape();
        let flat = if shape.rank() == 2 {
            x
        } else {
            self.reshape(x, [shape.leading(), shape.last_dim()].into())
        };
        let wv = self.param(ps, w);
        let y = self.matmul(flat, wv);
        let bv = self.param(ps, b);
        let mut y = self.add_bias(y, bv);
        if shape.rank() != 2 {
            let out_dim = self.value(y).shape().last_dim();
            y = self.reshape(y, shape.with_last(out_dim));
        }
        y
    }
}

impl Forward for Tape {
    fn value(&self, v: Var) -> &Tensor {
        Tape::value(self, v)
    }
    fn leaf(&mut self, value: Tensor) -> Var {
        Tape::leaf(self, value)
    }
    fn constant(&mut self, value: Tensor) -> Var {
        Tape::constant(self, value)
    }
    fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        Tape::param(self, store, id)
    }
    fn add(&mut self, a: Var, b: Var) -> Var {
        Tape::add(self, a, b)
    }
    fn mul(&mut self, a: Var, b: Var) -> Var {
        Tape::mul(self, a, b)
    }
    fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        Tape::add_scalar(self, a, c)
    }
    fn mul_scalar(&mut self, a: Var, c: f32) -> Var {
        Tape::mul_scalar(self, a, c)
    }
    fn add_bias(&mut self, a: Var, b: Var) -> Var {
        Tape::add_bias(self, a, b)
    }
    fn mul_bcast_row(&mut self, a: Var, b: Var) -> Var {
        Tape::mul_bcast_row(self, a, b)
    }
    fn scale_rows(&mut self, a: Var, w: Var) -> Var {
        Tape::scale_rows(self, a, w)
    }
    fn relu(&mut self, a: Var) -> Var {
        Tape::relu(self, a)
    }
    fn gelu(&mut self, a: Var) -> Var {
        Tape::gelu(self, a)
    }
    fn tanh(&mut self, a: Var) -> Var {
        Tape::tanh(self, a)
    }
    fn sigmoid(&mut self, a: Var) -> Var {
        Tape::sigmoid(self, a)
    }
    fn matmul(&mut self, a: Var, b: Var) -> Var {
        Tape::matmul(self, a, b)
    }
    fn bmm(&mut self, a: Var, b: Var) -> Var {
        Tape::bmm(self, a, b)
    }
    fn reshape(&mut self, a: Var, shape: Shape) -> Var {
        Tape::reshape(self, a, shape)
    }
    fn slice_last(&mut self, a: Var, start: usize, len: usize) -> Var {
        Tape::slice_last(self, a, start, len)
    }
    fn concat_last(&mut self, parts: &[Var]) -> Var {
        Tape::concat_last(self, parts)
    }
    fn select_rows(&mut self, a: Var, indices: &[usize]) -> Var {
        Tape::select_rows(self, a, indices)
    }
    fn stack_rows(&mut self, rows: &[Var]) -> Var {
        Tape::stack_rows(self, rows)
    }
    fn row(&mut self, a: Var, i: usize) -> Var {
        Tape::row(self, a, i)
    }
    fn sum_all(&mut self, a: Var) -> Var {
        Tape::sum_all(self, a)
    }
    fn sum_dim1(&mut self, a: Var) -> Var {
        Tape::sum_dim1(self, a)
    }
    fn softmax_last(&mut self, a: Var) -> Var {
        Tape::softmax_last(self, a)
    }
    fn layer_norm_last(&mut self, a: Var, eps: f32) -> Var {
        Tape::layer_norm_last(self, a, eps)
    }
    fn fused_attention(
        &mut self,
        q: Var,
        k: Var,
        v: Var,
        heads: usize,
        scale: f32,
        add_mask: Option<&Tensor>,
    ) -> Var {
        Tape::fused_attention(self, q, k, v, heads, scale, add_mask)
    }
}

/// A value-only evaluation arena: the tape-free forward pass.
///
/// Holds one [`Tensor`] per op output and nothing else — no backward
/// closures, no parent bookkeeping, no `GradStore`. `Var` handles index into
/// this arena exactly as they index into a `Tape`, so layer code is oblivious
/// to which one it is running on. An attached [`WeightTwin`] sends `linear`
/// layers through its packed weights (see the module docs).
#[derive(Default)]
pub struct InferCtx {
    vals: Vec<Tensor>,
    weights: Option<Arc<WeightTwin>>,
}

impl InferCtx {
    /// Creates an empty f32 context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches the twin of the `ParamStore` later `linear` calls read, f32
    /// or int8 (`None` detaches it: every weight is packed per call again).
    /// Call between forwards, not mid-forward.
    pub fn set_weights(&mut self, weights: impl Into<Option<Arc<WeightTwin>>>) {
        self.weights = weights.into();
    }

    fn twin(&self, w: ParamId) -> Option<&PackedWeight> {
        self.weights.as_deref().and_then(|t| t.entry(w.index()))
    }

    /// [`Forward::linear`] of `x` handed out one column tile at a time, for a
    /// consumer that folds each tile away instead of keeping the `[rows, n]`
    /// output: calls `each(c0, tile)` for `c0 = 0, cols, 2·cols, …` with
    /// `tile` the `[rows, w]` block of output columns `c0..c0 + w`, `w =
    /// min(cols, n - c0)`, bias added. Every element is bit for bit the one
    /// `linear` computes: the same packed rows (quantized once per row in
    /// int8), the same panels, micro-kernel and bias add, so only the
    /// working memory differs — one tile instead of the whole output.
    /// Nothing is recorded in the arena. `cols` must be a positive multiple
    /// of [`LINEAR_TILE_ALIGN`].
    pub fn linear_tiles(
        &self,
        ps: &ParamStore,
        x: Var,
        w: ParamId,
        b: ParamId,
        cols: usize,
        mut each: impl FnMut(usize, &[f32]),
    ) {
        assert!(
            cols > 0 && cols.is_multiple_of(LINEAR_TILE_ALIGN),
            "linear_tiles: {cols} columns is not a positive multiple of {LINEAR_TILE_ALIGN}"
        );
        let xv = self.value(x);
        let wv = ps.get(w);
        let (k, n) = wv.shape().as_matrix();
        assert_eq!(
            xv.shape().last_dim(),
            k,
            "linear_tiles: input last dim {} != weight rows {k}",
            xv.shape().last_dim()
        );
        let bias = ps.get(b).data();
        assert_eq!(
            bias.len(),
            n,
            "linear_tiles: bias length {} != {n}",
            bias.len()
        );
        let rows = xv.shape().leading();
        let mut tile = crate::pool::Scratch::<f32>::with_capacity(rows * cols.min(n));
        let mut run = |c0: usize, product: &mut dyn FnMut(usize, &mut [f32])| {
            let c1 = (c0 + cols).min(n);
            tile.clear();
            tile.resize(rows * (c1 - c0), 0.0);
            product(c1, &mut tile);
            add_bias_rows(&mut tile, &bias[c0..c1], rows, c1 - c0);
            each(c0, &tile);
        };
        match self.twin(w) {
            Some(PackedWeight::Int8(qw)) => {
                let a = qw.quantize_rows(xv.data(), rows);
                for c0 in (0..n).step_by(cols) {
                    run(c0, &mut |c1, t| qw.matmul_cols_into(&a, c0, c1, t));
                }
            }
            twin => {
                let a = PackedRows::new(xv.data(), rows, k);
                for c0 in (0..n).step_by(cols) {
                    run(c0, &mut |c1, t| match twin {
                        Some(PackedWeight::F32(pw)) => pw.matmul_cols_into(&a, c0, c1, t),
                        _ => a.matmul_cols_into(wv.data(), n, c0, c1, t),
                    });
                }
            }
        }
    }

    /// Number of recorded values.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// True when nothing has been evaluated yet.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Drops all recorded values (invalidating outstanding handles) so the
    /// context can be reused for the next request without reallocating the
    /// arena itself. The attached int8 weights stay attached.
    pub fn clear(&mut self) {
        self.vals.clear();
    }

    fn push(&mut self, value: Tensor) -> Var {
        self.vals.push(value);
        Var(self.vals.len() - 1)
    }
}

impl Forward for InferCtx {
    fn value(&self, v: Var) -> &Tensor {
        &self.vals[v.0]
    }

    fn leaf(&mut self, value: Tensor) -> Var {
        self.push(value)
    }

    fn constant(&mut self, value: Tensor) -> Var {
        self.push(value)
    }

    fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        self.push(store.get(id).clone())
    }

    fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).zip(self.value(b), |x, y| x + y);
        self.push(value)
    }

    fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).zip(self.value(b), |x, y| x * y);
        self.push(value)
    }

    fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let value = self.value(a).map(|x| x + c);
        self.push(value)
    }

    fn mul_scalar(&mut self, a: Var, c: f32) -> Var {
        let value = self.value(a).map(|x| c * x);
        self.push(value)
    }

    fn add_bias(&mut self, a: Var, b: Var) -> Var {
        let value = add_bias_fwd(self.value(a), self.value(b));
        self.push(value)
    }

    fn mul_bcast_row(&mut self, a: Var, b: Var) -> Var {
        let value = mul_bcast_row_fwd(self.value(a), self.value(b));
        self.push(value)
    }

    fn scale_rows(&mut self, a: Var, w: Var) -> Var {
        let value = scale_rows_fwd(self.value(a), self.value(w));
        self.push(value)
    }

    fn relu(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|x| x.max(0.0));
        self.push(value)
    }

    /// GELU without the taped op's `tanh` cache: no backward reads it.
    fn gelu(&mut self, a: Var) -> Var {
        let mut value = self.value(a).clone();
        gelu_in_place(value.data_mut());
        self.push(value)
    }

    fn tanh(&mut self, a: Var) -> Var {
        let value = self.value(a).map(tanh);
        self.push(value)
    }

    fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.value(a).map(sigmoid);
        self.push(value)
    }

    fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        self.push(value)
    }

    fn bmm(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).bmm(self.value(b));
        self.push(value)
    }

    fn reshape(&mut self, a: Var, shape: Shape) -> Var {
        let value = self.value(a).reshape(shape);
        self.push(value)
    }

    fn slice_last(&mut self, a: Var, start: usize, len: usize) -> Var {
        let value = slice_last_fwd(self.value(a), start, len);
        self.push(value)
    }

    fn concat_last(&mut self, parts: &[Var]) -> Var {
        let value = concat_last_fwd(parts, |p| self.value(p));
        self.push(value)
    }

    fn select_rows(&mut self, a: Var, indices: &[usize]) -> Var {
        let value = select_rows_fwd(self.value(a), indices);
        self.push(value)
    }

    fn stack_rows(&mut self, rows: &[Var]) -> Var {
        let value = stack_rows_fwd(rows, |r| self.value(r));
        self.push(value)
    }

    fn row(&mut self, a: Var, i: usize) -> Var {
        let value = row_fwd(self.value(a), i);
        self.push(value)
    }

    fn sum_all(&mut self, a: Var) -> Var {
        let value = sum_all_fwd(self.value(a));
        self.push(value)
    }

    fn sum_dim1(&mut self, a: Var) -> Var {
        let value = sum_dim1_fwd(self.value(a));
        self.push(value)
    }

    fn softmax_last(&mut self, a: Var) -> Var {
        let value = softmax_last_fwd(self.value(a));
        self.push(value)
    }

    fn layer_norm_last(&mut self, a: Var, eps: f32) -> Var {
        // The per-row 1/σ is backward-only state: it goes back to the pool
        // here, so the serve path doesn't bleed one buffer per layer norm.
        let (value, _) = layer_norm_last_fwd(self.value(a), eps);
        self.push(value)
    }

    fn fused_attention(
        &mut self,
        q: Var,
        k: Var,
        v: Var,
        heads: usize,
        scale: f32,
        add_mask: Option<&Tensor>,
    ) -> Var {
        // The probabilities are only an intermediate here (no backward
        // pass), so they go back to the pool as soon as the merge is done.
        let (_, merged) = fused_attention_fwd(
            self.value(q),
            self.value(k),
            self.value(v),
            heads,
            scale,
            add_mask,
        );
        self.push(merged)
    }

    /// The composed `linear` without its copies: no parameter clones, no
    /// reshape copies, no clone-then-add bias pass. The GEMM writes a zeroed
    /// buffer and the bias is then added into that buffer row by row — the
    /// same GEMM and `add_bias_rows` calls, in the same order, as the
    /// default body, so the bits are identical. A weight with a twin in the
    /// attached store packs only `x` and runs the twin's tiles (f32: the
    /// same bits; int8: the int8 GEMM); any other packs both per call.
    fn linear(&mut self, ps: &ParamStore, x: Var, w: ParamId, b: ParamId) -> Var {
        let xv = self.value(x);
        let shape = *xv.shape();
        let wv = ps.get(w);
        let (k, n) = wv.shape().as_matrix();
        assert_eq!(
            shape.last_dim(),
            k,
            "linear: input last dim {} != weight rows {k}",
            shape.last_dim()
        );
        let rows = shape.leading();
        let mut out = crate::pool::take_zeroed(rows * n);
        match self.twin(w) {
            Some(tw) => tw.matmul_rows_into(xv.data(), rows, &mut out),
            None => matmul_into(xv.data(), wv.data(), &mut out, rows, k, n),
        }
        add_bias_into(&mut out, ps.get(b), rows, n);
        self.push(Tensor::new(shape.with_last(n), out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::{Activation, Linear, Mlp, MultiHeadAttention, TransformerEncoder};
    use cf_rand::rngs::StdRng;
    use cf_rand::{Rng, SeedableRng};

    fn rand_tensor(shape: &[usize], rng: &mut StdRng) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::new(
            shape.to_vec(),
            (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
    }

    struct Inputs {
        a3: Tensor,
        b3: Tensor,
        bias: Tensor,
        w: Tensor,
        m1: Tensor,
        m2: Tensor,
        mask: Tensor,
        /// Holds `m2` as the `[4, 5]` weight `lw` and a `[5]` bias `lb`.
        ps: ParamStore,
        lw: ParamId,
        lb: ParamId,
    }

    /// Runs every trait op once and collects each output's shape and bits.
    fn drive(f: &mut dyn Forward, inp: &Inputs) -> Vec<(Shape, Vec<u32>)> {
        let a = f.leaf(inp.a3.clone());
        let b = f.constant(inp.b3.clone());
        let bi = f.leaf(inp.bias.clone());
        let wv = f.leaf(inp.w.clone());
        let x1 = f.leaf(inp.m1.clone());
        let x2 = f.leaf(inp.m2.clone());
        let mut vars = vec![
            f.add(a, b),
            f.mul(a, b),
            f.add_scalar(a, 0.37),
            f.mul_scalar(a, -1.21),
            f.add_bias(a, bi),
            f.mul_bcast_row(a, bi),
            f.scale_rows(a, wv),
            f.relu(a),
            f.gelu(a),
            f.tanh(a),
            f.sigmoid(a),
            f.matmul(x1, x2),
            f.slice_last(a, 1, 2),
            f.concat_last(&[a, b]),
            f.select_rows(x1, &[4, 0, 4, 2]),
            f.sum_all(a),
            f.sum_dim1(a),
            f.softmax_last(a),
            f.layer_norm_last(a, 1e-5),
            f.fused_attention(a, b, a, 2, 0.5, Some(&inp.mask)),
            f.linear(&inp.ps, x1, inp.lw, inp.lb),
            f.linear(&inp.ps, a, inp.lw, inp.lb),
        ];
        let r = f.reshape(a, Shape::from([2, 4, 3]));
        vars.push(f.bmm(a, r));
        let r0 = f.row(x1, 0);
        let r3 = f.row(x1, 3);
        vars.push(f.stack_rows(&[r0, r3]));
        vars.iter()
            .map(|&v| {
                let t = f.value(v);
                (*t.shape(), t.data().iter().map(|x| x.to_bits()).collect())
            })
            .collect()
    }

    /// Every op available on both contexts, driven with the same inputs,
    /// must produce bit-identical values.
    #[test]
    fn op_by_op_bitwise_equivalence() {
        let mut rng = StdRng::seed_from_u64(17);
        let m2 = rand_tensor(&[4, 5], &mut rng);
        let mut ps = ParamStore::new();
        let lw = ps.add("lin.w", m2.clone());
        let lb = ps.add("lin.b", rand_tensor(&[5], &mut rng));
        let inputs = Inputs {
            a3: rand_tensor(&[2, 3, 4], &mut rng),
            b3: rand_tensor(&[2, 3, 4], &mut rng),
            bias: rand_tensor(&[4], &mut rng),
            w: rand_tensor(&[6], &mut rng),
            m1: rand_tensor(&[6, 4], &mut rng),
            m2,
            mask: rand_tensor(&[2, 3, 3], &mut rng),
            ps,
            lw,
            lb,
        };
        let taped = drive(&mut Tape::new(), &inputs);
        let tape_free = drive(&mut InferCtx::new(), &inputs);
        assert_eq!(taped.len(), tape_free.len());
        for (i, (t, n)) in taped.iter().zip(&tape_free).enumerate() {
            assert_eq!(t, n, "op #{i} differs between Tape and InferCtx");
        }
    }

    /// A 2-layer Transformer encoder under ragged prefix-length key masks, a
    /// projection and an MLP head — the ChainsFormer encoder composition,
    /// with `linear` on rank-3 and rank-2 inputs — evaluated on both
    /// contexts, compared bitwise.
    #[test]
    fn transformer_stack_bitwise_equivalence() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut ps = ParamStore::new();
        let enc = TransformerEncoder::new(&mut ps, "enc", 16, 4, 2, 32, &mut rng);
        let proj = Linear::new(&mut ps, "proj", 16, 16, &mut rng);
        let head = Mlp::new(&mut ps, "head", &[16, 16, 1], Activation::Gelu, &mut rng);
        let x = rand_tensor(&[3, 5, 16], &mut rng);
        let lens = [5, 2, 3];

        let mut tape = Tape::new();
        let xv = Forward::leaf(&mut tape, x.clone());
        let h = enc.forward(&mut tape, &ps, xv, Some(&lens));
        let h = proj.forward(&mut tape, &ps, h);
        let flat = Forward::reshape(&mut tape, h, Shape::from([15, 16]));
        let y = head.forward(&mut tape, &ps, flat);
        let taped = Forward::value(&tape, y).data().to_vec();

        let mut ctx = InferCtx::new();
        let xv = ctx.leaf(x);
        let h = enc.forward(&mut ctx, &ps, xv, Some(&lens));
        let h = proj.forward(&mut ctx, &ps, h);
        let flat = ctx.reshape(h, Shape::from([15, 16]));
        let y = head.forward(&mut ctx, &ps, flat);
        assert_eq!(ctx.value(y).data(), taped.as_slice());
    }

    /// The int8 `linear` as the composed default body ran it before the
    /// int8 route moved into `InferCtx::linear`: rows as a reshape copy, the
    /// weight as a parameter copy, the int8 product as a new value when the
    /// weight has a twin (else the f32 `matmul`), then a clone-then-add bias
    /// and a reshape back. `ctx` has no weights attached.
    fn composed_int8_linear(
        ctx: &mut InferCtx,
        ps: &ParamStore,
        q: &WeightTwin,
        x: Var,
        w: ParamId,
        b: ParamId,
    ) -> Var {
        let shape = *ctx.value(x).shape();
        let flat = if shape.rank() == 2 {
            x
        } else {
            ctx.reshape(x, [shape.leading(), shape.last_dim()].into())
        };
        let wv = ctx.param(ps, w);
        let y = match q.entry(w.index()) {
            Some(PackedWeight::Int8(qw)) => {
                let value = qw.matmul_quantized(ctx.value(flat));
                ctx.leaf(value)
            }
            _ => ctx.matmul(flat, wv),
        };
        let bv = ctx.param(ps, b);
        let mut y = ctx.add_bias(y, bv);
        if shape.rank() != 2 {
            let out_dim = ctx.value(y).shape().last_dim();
            y = ctx.reshape(y, shape.with_last(out_dim));
        }
        y
    }

    cf_check::property! {
        #![config(cases = 96)]

        /// With weights attached, `InferCtx::linear` is the composed int8
        /// path bit for bit: rank-2 and rank-3 inputs, weights with a twin
        /// (`n ≥ 8`) and without (`n < 8`, the `[d, 1]` heads).
        #[test]
        fn int8_linear_matches_the_composed_path(
            lead in 1usize..6,
            seq in 0usize..4,
            k in 1usize..40,
            n in 1usize..24,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ps = ParamStore::new();
            let w = ps.add("w", rand_tensor(&[k, n], &mut rng));
            let b = ps.add("b", rand_tensor(&[n], &mut rng));
            let q = WeightTwin::int8(&ps);
            cf_check::check_assert_eq!(q.entry(w.index()).is_some(), n >= 8);
            // seq == 0: a rank-2 `[lead, k]` input; else rank-3.
            let x = if seq == 0 {
                rand_tensor(&[lead, k], &mut rng)
            } else {
                rand_tensor(&[lead, seq, k], &mut rng)
            };

            let mut plain = InferCtx::new();
            let xv = plain.leaf(x.clone());
            let want = composed_int8_linear(&mut plain, &ps, &q, xv, w, b);

            let mut ctx = InferCtx::new();
            ctx.set_weights(Arc::new(q));
            let xv = ctx.leaf(x);
            let got = ctx.linear(&ps, xv, w, b);
            cf_check::check_assert_eq!(ctx.value(got).shape(), plain.value(want).shape());
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            cf_check::check_assert_eq!(bits(ctx.value(got)), bits(plain.value(want)));
        }
    }

    /// An eligible weight takes the int8 kernel: the output is exactly the
    /// int8 product plus the bias, and differs from the f32 layer.
    #[test]
    fn quant_ctx_linear_stays_on_the_int8_kernel() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ps = ParamStore::new();
        let lin = Linear::new(&mut ps, "q", 16, 16, &mut rng);
        let b = lin.b;
        *ps.get_mut(b) = rand_tensor(&[16], &mut rng);
        let q = Arc::new(WeightTwin::int8(&ps));
        let x = rand_tensor(&[2, 3, 16], &mut rng);

        let Some(PackedWeight::Int8(qw)) = q.entry(lin.w.index()) else {
            panic!("a [16, 16] weight is eligible");
        };
        let mut want = qw.matmul_quantized(&x.reshape([6, 16]));
        crate::ops::elementwise::add_bias_rows(want.data_mut(), ps.get(b).data(), 6, 16);

        let mut qctx = InferCtx::new();
        qctx.set_weights(q);
        let xv = qctx.leaf(x.clone());
        let y = lin.forward(&mut qctx, &ps, xv);
        assert_eq!(qctx.value(y).shape().as_batch_matrix(), (2, 3, 16));
        assert_eq!(qctx.value(y).data(), want.data());

        let mut fctx = InferCtx::new();
        let xv = fctx.leaf(x);
        let y32 = lin.forward(&mut fctx, &ps, xv);
        assert_ne!(fctx.value(y32).data(), want.data(), "f32 path taken");
    }

    /// A warm int8 `Linear::forward` on a rank-3 input records its output
    /// and nothing else: no weight or bias copy, no reshape copies, no
    /// separate bias value (the composed path records six values).
    #[test]
    fn warm_int8_linear_adds_one_arena_value() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut ps = ParamStore::new();
        let lin = Linear::new(&mut ps, "q", 16, 24, &mut rng);
        let mut ctx = InferCtx::new();
        ctx.set_weights(Arc::new(WeightTwin::int8(&ps)));
        let xv = ctx.leaf(rand_tensor(&[2, 3, 16], &mut rng));
        lin.forward(&mut ctx, &ps, xv);
        let before = ctx.len();
        let y = lin.forward(&mut ctx, &ps, xv);
        assert_eq!(ctx.len(), before + 1);
        assert_eq!(ctx.value(y).shape().as_batch_matrix(), (2, 3, 24));
    }

    /// Padding keys out via the additive mask must not change the unpadded
    /// rows at all — the property the batched serving path relies on.
    #[test]
    fn attention_padding_is_bitwise_inert() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut ps = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut ps, "a", 8, 2, &mut rng);
        let x = rand_tensor(&[1, 3, 8], &mut rng);
        // Same rows padded out to T=5 with junk tokens.
        let mut padded = x.data().to_vec();
        padded.extend((0..16).map(|i| (i as f32) * 0.3 - 1.0));
        let padded = Tensor::new([1, 5, 8], padded);

        let mut c1 = InferCtx::new();
        let xv = c1.leaf(x);
        let y3 = mha.forward(&mut c1, &ps, xv, Some(&[3]));

        let mut c2 = InferCtx::new();
        let xv = c2.leaf(padded);
        let y5 = mha.forward(&mut c2, &ps, xv, Some(&[3]));

        let short = c1.value(y3).data();
        let long = &c2.value(y5).data()[..3 * 8];
        assert_eq!(short, long, "padded keys leaked into real rows");
    }
}
