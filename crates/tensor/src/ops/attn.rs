//! Fused multi-head scaled dot-product attention.
//!
//! [`Tape::fused_attention`] runs every head of `softmax(scale·QKᵀ + M)·V`
//! through two tape nodes operating on head-strided `[B·H, T, d_h]` views of
//! the packed `[B, T, d]` projections, instead of the compositional graph of
//! `heads × (slice, transpose, bmm, scale, mask, softmax, bmm) + concat`
//! nodes. No per-head tensor, transpose, or concat buffer is materialized in
//! forward or backward.
//!
//! Bitwise contract: every reduction below consumes its terms in the same
//! order as the compositional path (dot products ascending in the reduction
//! index, one accumulator per output element), `scale` and mask are applied
//! with the same grouping (`scale·dot + m`), and the rows go through the very
//! same [`softmax_row`] — so outputs and gradients are bit-identical to the
//! reference graph, which `MultiHeadAttention::forward_reference` keeps
//! available for the equivalence test.

use super::reduce::softmax_row;
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

impl Tape {
    /// Multi-head attention core over packed projections: `q`, `k`, `v` are
    /// `[B, T, d]` with `heads` head bands of width `d_h = d / heads` laid out
    /// along the last axis. Computes `softmax(scale·QKᵀ + M)·V` per head and
    /// returns the heads re-packed as `[B, T, d]` (what the output projection
    /// consumes). `add_mask`, when given, is a `[B, T, T]` additive logit mask
    /// shared by all heads.
    ///
    /// Records two nodes: the `[B·H, T, T]` attention probabilities (softmax
    /// fused with the scaled masked scores) and the merged context. Backward
    /// accumulates `dQ`, `dK`, `dV` straight into the gradient slots through
    /// head-strided kernels.
    pub fn fused_attention(
        &mut self,
        q: Var,
        k: Var,
        v: Var,
        heads: usize,
        scale: f32,
        add_mask: Option<&Tensor>,
    ) -> Var {
        let (probs, merged) = fused_attention_fwd(
            self.value(q),
            self.value(k),
            self.value(v),
            heads,
            scale,
            add_mask,
        );
        // Node 1: the probabilities.
        let pnode = self.push_value(probs);
        self.set_bwd(pnode, move |g, t, grads| {
            let qv = t.value(q);
            let kv = t.value(k);
            let (bsz, seq, d) = qv.shape().as_batch_matrix();
            let y = t.value(pnode);
            // Fold the softmax backward and the scale into the score
            // gradient: ds = scale·(y ⊙ (g − ⟨y, g⟩)) per row, the exact
            // composition of the softmax_last and mul_scalar rules.
            let rows = bsz * heads * seq;
            let mut ds = crate::pool::Scratch::<f32>::zeroed(rows * seq);
            attn_dscore_rows(y.data(), g.data(), &mut ds, rows, seq, scale);
            let q_shape = *qv.shape();
            grads.accumulate_with(q, &q_shape, |dst| {
                attn_dq(&ds, kv.data(), dst, bsz, seq, d, heads);
            });
            let k_shape = *kv.shape();
            grads.accumulate_with(k, &k_shape, |dst| {
                attn_dk(&ds, qv.data(), dst, bsz, seq, d, heads);
            });
        });

        // Node 2: the merged context.
        self.push_bwd(merged, move |g, t, grads| {
            let pv = t.value(pnode);
            let vv = t.value(v);
            let (bsz, seq, d) = vv.shape().as_batch_matrix();
            let p_shape = *pv.shape();
            grads.accumulate_with(pnode, &p_shape, |dst| {
                attn_dprobs(g.data(), vv.data(), dst, bsz, seq, d, heads);
            });
            let v_shape = *vv.shape();
            grads.accumulate_with(v, &v_shape, |dst| {
                attn_dv(pv.data(), g.data(), dst, bsz, seq, d, heads);
            });
        })
    }
}

// ---- parallel dispatch ---------------------------------------------------
//
// Every kernel below iterates `for bi { for h { … } }` over (batch, head)
// bands whose writes are element-disjoint. The dispatchers fan the *batch*
// dimension out across the thread pool: each batch owns one contiguous block
// of the output (`[H·T·T]` of probs, `[T·d]` of packed projections), so
// threads receive genuinely disjoint `&mut` slices — no aliasing, and every
// band's float-op sequence is unchanged, keeping results bitwise identical
// at any thread count (see `DESIGN.md` §12).

/// Work floor (multiply count) above which an attention kernel fans out.
/// Attention problems here are much smaller than GEMMs, so the floor sits
/// below `tensor::PAR_MIN_FLOPS`.
const PAR_MIN_FLOPS: usize = 64 * 1024;

/// Runs `f(lo, hi)` over `0..n` — one call on the caller when the work is
/// small, else one call per pool slice with a contiguous subrange.
fn par_ranges(n: usize, flops: usize, f: impl Fn(usize, usize) + Sync) {
    if flops >= PAR_MIN_FLOPS {
        crate::pool::parallel_for(n, |r| {
            if !r.is_empty() {
                f(r.start, r.end);
            }
        });
    } else {
        f(0, n);
    }
}

/// Forward values of [`Tape::fused_attention`]: the `[B·H, T, T]`
/// probabilities and the merged `[B, T, d]` context computed from them.
pub(crate) fn fused_attention_fwd(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
    scale: f32,
    add_mask: Option<&Tensor>,
) -> (Tensor, Tensor) {
    let (bsz, seq, d) = q.shape().as_batch_matrix();
    assert_eq!(k.shape(), q.shape(), "fused_attention q/k shape mismatch");
    assert_eq!(v.shape(), q.shape(), "fused_attention q/v shape mismatch");
    assert!(
        heads > 0 && d % heads == 0,
        "dim {d} not divisible by heads {heads}"
    );
    if let Some(m) = add_mask {
        assert_eq!(
            m.shape().as_batch_matrix(),
            (bsz, seq, seq),
            "fused_attention mask shape mismatch"
        );
    }
    // probs[(bi·H + h), i, j] = softmax_j(scale·⟨q_i, k_j⟩ + m_ij) over head
    // band h of rows i, j.
    let pblock = heads * seq * seq;
    let mut probs = crate::pool::take_zeroed(bsz * pblock);
    let shared = crate::pool::SharedMut::new(&mut probs);
    par_ranges(bsz, bsz * pblock * (d / heads), |b0, b1| {
        // SAFETY: batch blocks are contiguous and disjoint across slices.
        let out = unsafe { shared.get(b0 * pblock, (b1 - b0) * pblock) };
        attn_probs_range(
            q.data(),
            k.data(),
            add_mask,
            out,
            b0,
            b1,
            seq,
            d,
            heads,
            scale,
        );
    });
    // merged[bi, i, h·d_h + p] = Σ_t probs[(bi·H + h), i, t]·V[t] — the
    // per-head context vectors written straight into their packed `[B, T, d]`
    // bands (what concat_last assembled before).
    let mblock = seq * d;
    let mut merged = crate::pool::take_zeroed(bsz * mblock);
    let shared = crate::pool::SharedMut::new(&mut merged);
    par_ranges(bsz, bsz * seq * seq * d, |b0, b1| {
        // SAFETY: batch blocks are contiguous and disjoint across slices.
        let out = unsafe { shared.get(b0 * mblock, (b1 - b0) * mblock) };
        attn_merge_range(&probs, v.data(), out, b0, b1, seq, d, heads);
    });
    (
        Tensor::new([bsz * heads, seq, seq], probs),
        Tensor::new([bsz, seq, d], merged),
    )
}

/// Backward of the softmax-probability node folded with the `scale` factor:
/// `ds = scale·(y ⊙ (g − ⟨y, g⟩))` per row — the exact composition of the
/// softmax_last and mul_scalar rules (dot ascending in `j`). Rows are
/// independent, so they split across the pool by contiguous range.
pub(crate) fn attn_dscore_rows(
    yd: &[f32],
    gd: &[f32],
    ds: &mut [f32],
    rows: usize,
    seq: usize,
    scale: f32,
) {
    let shared = crate::pool::SharedMut::new(ds);
    par_ranges(rows, rows * seq * 2, |r0, r1| {
        // SAFETY: row ranges are contiguous and disjoint across slices.
        let out = unsafe { shared.get(r0 * seq, (r1 - r0) * seq) };
        attn_dscore_range(yd, gd, out, r0, r1, seq, scale);
    });
}

/// `dQ[i] += Σ_j ds[i][j]·K[j]` per head band (j ascending).
pub(crate) fn attn_dq(
    ds: &[f32],
    kd: &[f32],
    dst: &mut [f32],
    bsz: usize,
    seq: usize,
    d: usize,
    heads: usize,
) {
    let shared = crate::pool::SharedMut::new(dst);
    par_ranges(bsz, bsz * seq * seq * d, |b0, b1| {
        // SAFETY: batch blocks are contiguous and disjoint across slices.
        let out = unsafe { shared.get(b0 * seq * d, (b1 - b0) * seq * d) };
        attn_dq_range(ds, kd, out, b0, b1, seq, d, heads);
    });
}

/// `dK[j] += Σ_i Q[i]·ds[i][j]` per head band (i ascending).
pub(crate) fn attn_dk(
    ds: &[f32],
    qd: &[f32],
    dst: &mut [f32],
    bsz: usize,
    seq: usize,
    d: usize,
    heads: usize,
) {
    let shared = crate::pool::SharedMut::new(dst);
    par_ranges(bsz, bsz * seq * seq * d, |b0, b1| {
        // SAFETY: batch blocks are contiguous and disjoint across slices.
        let out = unsafe { shared.get(b0 * seq * d, (b1 - b0) * seq * d) };
        attn_dk_range(ds, qd, out, b0, b1, seq, d, heads);
    });
}

/// `dprobs[i][t] = ⟨g[i], V[t]⟩` per head band (p ascending).
pub(crate) fn attn_dprobs(
    gd: &[f32],
    vd: &[f32],
    dst: &mut [f32],
    bsz: usize,
    seq: usize,
    d: usize,
    heads: usize,
) {
    let block = heads * seq * seq;
    let shared = crate::pool::SharedMut::new(dst);
    par_ranges(bsz, bsz * seq * seq * d, |b0, b1| {
        // SAFETY: batch blocks are contiguous and disjoint across slices.
        let out = unsafe { shared.get(b0 * block, (b1 - b0) * block) };
        attn_dprobs_range(gd, vd, out, b0, b1, seq, d, heads);
    });
}

/// `dV[t] += Σ_i probs[i][t]·g[i]` per head band (i ascending).
pub(crate) fn attn_dv(
    pd: &[f32],
    gd: &[f32],
    dst: &mut [f32],
    bsz: usize,
    seq: usize,
    d: usize,
    heads: usize,
) {
    let shared = crate::pool::SharedMut::new(dst);
    par_ranges(bsz, bsz * seq * seq * d, |b0, b1| {
        // SAFETY: batch blocks are contiguous and disjoint across slices.
        let out = unsafe { shared.get(b0 * seq * d, (b1 - b0) * seq * d) };
        attn_dv_range(pd, gd, out, b0, b1, seq, d, heads);
    });
}

crate::simd_hot! {

/// The probabilities of [`fused_attention_fwd`] over batches `b0..b1`;
/// `probs` is that batch band's contiguous `[(b1-b0)·H, T, T]` block.
///
/// Each head band's keys are first transposed into pooled `[d_h, T]`
/// scratch, so one vector op advances several keys' scores by one term:
/// score `j` is still the serial chain `Σ_p q[p]·k_j[p]` in increasing `p`,
/// started from `+0` — the dot product one key at a time, bit for bit.
#[allow(clippy::too_many_arguments)]
fn attn_probs_range(
    qd: &[f32],
    kd: &[f32],
    add_mask: Option<&Tensor>,
    probs: &mut [f32],
    b0: usize,
    b1: usize,
    seq: usize,
    d: usize,
    heads: usize,
    scale: f32,
) {
    let dh = d / heads;
    let mut kt = crate::pool::Scratch::<f32>::zeroed(dh * seq);
    for bi in b0..b1 {
        for h in 0..heads {
            let off = h * dh;
            for j in 0..seq {
                let krow = &kd[(bi * seq + j) * d + off..][..dh];
                for (p, &v) in krow.iter().enumerate() {
                    kt[p * seq + j] = v;
                }
            }
            for i in 0..seq {
                let qrow = &qd[(bi * seq + i) * d + off..][..dh];
                let row = &mut probs[(((bi - b0) * heads + h) * seq + i) * seq..][..seq];
                row.fill(0.0);
                for (p, &qp) in qrow.iter().enumerate() {
                    let ktp = &kt[p * seq..(p + 1) * seq];
                    for j in 0..seq {
                        row[j] += qp * ktp[j];
                    }
                }
                match add_mask {
                    Some(m) => {
                        let mrow = &m.data()[(bi * seq + i) * seq..][..seq];
                        for j in 0..seq {
                            row[j] = scale * row[j] + mrow[j];
                        }
                    }
                    None => {
                        for s in row.iter_mut() {
                            *s *= scale;
                        }
                    }
                }
                softmax_row(row);
            }
        }
    }
}

/// The merged context of [`fused_attention_fwd`] over batches `b0..b1`;
/// `merged` is that band's contiguous `[(b1-b0), T, d]` block.
fn attn_merge_range(
    pd: &[f32],
    vd: &[f32],
    merged: &mut [f32],
    b0: usize,
    b1: usize,
    seq: usize,
    d: usize,
    heads: usize,
) {
    let dh = d / heads;
    for bi in b0..b1 {
        for h in 0..heads {
            let off = h * dh;
            for i in 0..seq {
                let prow = &pd[((bi * heads + h) * seq + i) * seq..][..seq];
                let orow = &mut merged[((bi - b0) * seq + i) * d + off..][..dh];
                for (t_, &pv) in prow.iter().enumerate() {
                    let vrow = &vd[(bi * seq + t_) * d + off..][..dh];
                    for p in 0..dh {
                        orow[p] += pv * vrow[p];
                    }
                }
            }
        }
    }
}

/// [`attn_dscore_rows`] over rows `r0..r1`; `ds` is that contiguous band.
fn attn_dscore_range(
    yd: &[f32],
    gd: &[f32],
    ds: &mut [f32],
    r0: usize,
    r1: usize,
    seq: usize,
    scale: f32,
) {
    for r in r0..r1 {
        let yr = &yd[r * seq..(r + 1) * seq];
        let gr = &gd[r * seq..(r + 1) * seq];
        let mut dot = 0.0f32;
        for j in 0..seq {
            dot += yr[j] * gr[j];
        }
        let dsr = &mut ds[(r - r0) * seq..(r - r0 + 1) * seq];
        for j in 0..seq {
            dsr[j] = scale * (yr[j] * (gr[j] - dot));
        }
    }
}

/// [`attn_dq`] over batches `b0..b1`; `dst` is that band's `[.., T, d]`.
fn attn_dq_range(
    ds: &[f32],
    kd: &[f32],
    dst: &mut [f32],
    b0: usize,
    b1: usize,
    seq: usize,
    d: usize,
    heads: usize,
) {
    let dh = d / heads;
    for bi in b0..b1 {
        for h in 0..heads {
            let off = h * dh;
            for i in 0..seq {
                let dsr = &ds[((bi * heads + h) * seq + i) * seq..][..seq];
                let drow = &mut dst[((bi - b0) * seq + i) * d + off..][..dh];
                for (j, &s) in dsr.iter().enumerate() {
                    let krow = &kd[(bi * seq + j) * d + off..][..dh];
                    for p in 0..dh {
                        drow[p] += s * krow[p];
                    }
                }
            }
        }
    }
}

/// [`attn_dk`] over batches `b0..b1`; `dst` is that band's `[.., T, d]`.
fn attn_dk_range(
    ds: &[f32],
    qd: &[f32],
    dst: &mut [f32],
    b0: usize,
    b1: usize,
    seq: usize,
    d: usize,
    heads: usize,
) {
    let dh = d / heads;
    for bi in b0..b1 {
        for h in 0..heads {
            let off = h * dh;
            for i in 0..seq {
                let dsr = &ds[((bi * heads + h) * seq + i) * seq..][..seq];
                let qrow = &qd[(bi * seq + i) * d + off..][..dh];
                for (j, &s) in dsr.iter().enumerate() {
                    let drow = &mut dst[((bi - b0) * seq + j) * d + off..][..dh];
                    for p in 0..dh {
                        drow[p] += qrow[p] * s;
                    }
                }
            }
        }
    }
}

/// [`attn_dprobs`] over batches `b0..b1`; `dst` is that band's
/// `[(b1-b0)·H, T, T]` block.
fn attn_dprobs_range(
    gd: &[f32],
    vd: &[f32],
    dst: &mut [f32],
    b0: usize,
    b1: usize,
    seq: usize,
    d: usize,
    heads: usize,
) {
    let dh = d / heads;
    for bi in b0..b1 {
        for h in 0..heads {
            let off = h * dh;
            for i in 0..seq {
                let gr = &gd[(bi * seq + i) * d + off..][..dh];
                let drow = &mut dst[(((bi - b0) * heads + h) * seq + i) * seq..][..seq];
                for (t_, slot) in drow.iter_mut().enumerate() {
                    let vrow = &vd[(bi * seq + t_) * d + off..][..dh];
                    let mut s = 0.0f32;
                    for p in 0..dh {
                        s += gr[p] * vrow[p];
                    }
                    *slot += s;
                }
            }
        }
    }
}

/// [`attn_dv`] over batches `b0..b1`; `dst` is that band's `[.., T, d]`.
fn attn_dv_range(
    pd: &[f32],
    gd: &[f32],
    dst: &mut [f32],
    b0: usize,
    b1: usize,
    seq: usize,
    d: usize,
    heads: usize,
) {
    let dh = d / heads;
    for bi in b0..b1 {
        for h in 0..heads {
            let off = h * dh;
            for i in 0..seq {
                let gr = &gd[(bi * seq + i) * d + off..][..dh];
                let prow = &pd[((bi * heads + h) * seq + i) * seq..][..seq];
                for (t_, &s) in prow.iter().enumerate() {
                    let drow = &mut dst[((bi - b0) * seq + t_) * d + off..][..dh];
                    for p in 0..dh {
                        drow[p] += s * gr[p];
                    }
                }
            }
        }
    }
}

}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(n: usize, scale: f32) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.31 - 1.1) * scale * if i % 3 == 0 { -0.8 } else { 1.0 })
            .collect()
    }

    /// The compositional graph the fused op replaces, head by head.
    fn reference(
        t: &mut Tape,
        q: Var,
        k: Var,
        v: Var,
        heads: usize,
        scale: f32,
        add_mask: Option<&Tensor>,
    ) -> Var {
        let d = t.value(q).shape().last_dim();
        let dh = d / heads;
        let mut outs = Vec::with_capacity(heads);
        for h in 0..heads {
            let qh = t.slice_last(q, h * dh, dh);
            let kh = t.slice_last(k, h * dh, dh);
            let vh = t.slice_last(v, h * dh, dh);
            let scores = t.bmm_bt(qh, kh);
            let mut scores = t.mul_scalar(scores, scale);
            if let Some(m) = add_mask {
                scores = t.add_const(scores, m);
            }
            let probs = t.softmax_last(scores);
            outs.push(t.bmm(probs, vh));
        }
        t.concat_last(&outs)
    }

    fn run(fused: bool, masked: bool) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
        let (b, seq, d, heads) = (2, 4, 6, 3);
        let mut t = Tape::new();
        let q = t.leaf(Tensor::new([b, seq, d], probe(b * seq * d, 0.9)));
        let k = t.leaf(Tensor::new([b, seq, d], probe(b * seq * d, 1.2)));
        let v = t.leaf(Tensor::new([b, seq, d], probe(b * seq * d, 0.6)));
        let mask = masked.then(|| {
            let mut m = vec![0.0f32; b * seq * seq];
            for i in 0..seq {
                m[(0 * seq + i) * seq + 3] = -1e9; // batch 0: key 3 padded
            }
            Tensor::new([b, seq, seq], m)
        });
        let scale = 1.0 / (2.0f32).sqrt();
        let y = if fused {
            t.fused_attention(q, k, v, heads, scale, mask.as_ref())
        } else {
            reference(&mut t, q, k, v, heads, scale, mask.as_ref())
        };
        let w = t.constant(Tensor::new([b, seq, d], probe(b * seq * d, 0.4)));
        let p = t.mul(y, w);
        let l = t.sum_all(p);
        let g = t.backward(l, 0);
        (
            t.value(y).data().to_vec(),
            g.grad(q).unwrap().data().to_vec(),
            g.grad(k).unwrap().data().to_vec(),
            g.grad(v).unwrap().data().to_vec(),
        )
    }

    #[test]
    fn fused_matches_compositional_path_bitwise() {
        assert_eq!(run(true, false), run(false, false));
    }

    #[test]
    fn fused_matches_compositional_path_bitwise_with_mask() {
        assert_eq!(run(true, true), run(false, true));
    }

    #[test]
    fn fused_attention_records_two_nodes() {
        let mut t = Tape::new();
        let q = t.leaf(Tensor::new([1, 3, 4], probe(12, 1.0)));
        let k = t.leaf(Tensor::new([1, 3, 4], probe(12, 0.7)));
        let v = t.leaf(Tensor::new([1, 3, 4], probe(12, 0.5)));
        let before = t.len();
        let _ = t.fused_attention(q, k, v, 2, 0.5, None);
        assert_eq!(t.len() - before, 2, "fused attention must add 2 nodes");
    }
}
