//! Shape-manipulating ops: reshape, slicing/concatenation along the last dim,
//! row gathering and stacking.

use crate::shape::Shape;
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

impl Tape {
    /// Metadata-only reshape (element count preserved).
    pub fn reshape(&mut self, a: Var, shape: impl Into<Shape>) -> Var {
        let old = *self.value(a).shape();
        let value = self.value(a).reshape(shape);
        self.push_bwd(value, move |g, _t, grads| {
            grads.accumulate_with(a, &old, |dst| dst.copy_from_slice(g.data()));
        })
    }

    /// Slices `len` columns starting at `start` from the last dimension.
    pub fn slice_last(&mut self, a: Var, start: usize, len: usize) -> Var {
        let out = slice_last_fwd(self.value(a), start, len);
        self.push_bwd(out, move |g, t, grads| {
            let av = t.value(a);
            let d = av.shape().last_dim();
            let rows = av.shape().leading();
            let a_shape = *av.shape();
            grads.accumulate_with(a, &a_shape, |dst| {
                for r in 0..rows {
                    dst[r * d + start..r * d + start + len]
                        .copy_from_slice(&g.data()[r * len..(r + 1) * len]);
                }
            });
        })
    }

    /// Concatenates tensors along the last dimension. All inputs must share
    /// their leading dims.
    pub fn concat_last(&mut self, parts: &[Var]) -> Var {
        let out = concat_last_fwd(parts, |p| self.value(p));
        // `Var` is a plain index, so the capture is a pooled index buffer
        // (recycled when the closure is dropped on tape reset).
        let parts = crate::pool::Scratch::collect(parts.iter().map(|p| p.0));
        self.push_bwd(out, move |g, t, grads| {
            let rows = t.value(Var(parts[0])).shape().leading();
            let mut widths = crate::pool::Scratch::<usize>::with_capacity(parts.len());
            for &p in parts.iter() {
                widths.push(t.value(Var(p)).shape().last_dim());
            }
            let total: usize = widths.iter().sum();
            for (pi, &p) in parts.iter().enumerate() {
                let w = widths[pi];
                let offset: usize = widths[..pi].iter().sum();
                let p_shape = *t.value(Var(p)).shape();
                grads.accumulate_with(Var(p), &p_shape, |dst| {
                    for r in 0..rows {
                        dst[r * w..(r + 1) * w]
                            .copy_from_slice(&g.data()[r * total + offset..r * total + offset + w]);
                    }
                });
            }
        })
    }

    /// Gathers rows of `a` (viewed as `[L, d]`) by index, producing
    /// `[indices.len(), d]`. Serves embedding lookup (`a` = table) and
    /// per-sequence token selection (`a` = `[B,T,d]` viewed as `[B*T, d]`).
    /// The backward pass scatter-adds, so repeated indices are safe.
    pub fn select_rows(&mut self, a: Var, indices: &[usize]) -> Var {
        let out = select_rows_fwd(self.value(a), indices);
        let indices = crate::pool::Scratch::collect(indices.iter().copied());
        self.push_bwd(out, move |g, t, grads| {
            let av = t.value(a);
            let d = av.shape().last_dim();
            let a_shape = *av.shape();
            grads.accumulate_with(a, &a_shape, |dst| {
                for (o, &i) in indices.iter().enumerate() {
                    for j in 0..d {
                        dst[i * d + j] += g.data()[o * d + j];
                    }
                }
            });
        })
    }

    /// Stacks rank-1 vectors of equal length into a `[k, d]` matrix.
    pub fn stack_rows(&mut self, rows: &[Var]) -> Var {
        let out = stack_rows_fwd(rows, |r| self.value(r));
        let rows = crate::pool::Scratch::collect(rows.iter().map(|r| r.0));
        self.push_bwd(out, move |g, t, grads| {
            for (i, &r) in rows.iter().enumerate() {
                let shape = *t.value(Var(r)).shape();
                grads.accumulate_with(Var(r), &shape, |dst| dst.copy_from_slice(g.row(i)));
            }
        })
    }

    /// Extracts row `i` of `a` (viewed as `[L, d]`) as a rank-1 vector.
    pub fn row(&mut self, a: Var, i: usize) -> Var {
        let value = row_fwd(self.value(a), i);
        self.push_bwd(value, move |g, t, grads| {
            let av = t.value(a);
            let d = av.shape().last_dim();
            let a_shape = *av.shape();
            grads.accumulate_with(a, &a_shape, |dst| {
                dst[i * d..(i + 1) * d].copy_from_slice(g.data());
            });
        })
    }
}

/// Forward value of [`Tape::slice_last`]: columns `start..start + len` of
/// every row.
pub(crate) fn slice_last_fwd(a: &Tensor, start: usize, len: usize) -> Tensor {
    let d = a.shape().last_dim();
    assert!(
        start + len <= d,
        "slice_last [{start},{}) out of last dim {d}",
        start + len
    );
    let rows = a.shape().leading();
    let mut out = crate::pool::take(rows * len);
    for r in 0..rows {
        out.extend_from_slice(&a.data()[r * d + start..r * d + start + len]);
    }
    Tensor::new(a.shape().with_last(len), out)
}

/// Forward value of [`Tape::concat_last`]: row `r` is the parts' rows `r`
/// side by side. `value` looks a part up in its context.
pub(crate) fn concat_last_fwd<'a>(parts: &[Var], value: impl Fn(Var) -> &'a Tensor) -> Tensor {
    assert!(!parts.is_empty(), "concat_last of zero tensors");
    let rows = value(parts[0]).shape().leading();
    let mut widths = crate::pool::Scratch::<usize>::with_capacity(parts.len());
    for &p in parts {
        widths.push(value(p).shape().last_dim());
        assert_eq!(
            value(p).shape().leading(),
            rows,
            "concat_last leading-dim mismatch"
        );
    }
    let total: usize = widths.iter().sum();
    let mut out = crate::pool::take(rows * total);
    for r in 0..rows {
        for (&p, &w) in parts.iter().zip(widths.iter()) {
            out.extend_from_slice(&value(p).data()[r * w..(r + 1) * w]);
        }
    }
    Tensor::new(value(parts[0]).shape().with_last(total), out)
}

/// Forward value of [`Tape::select_rows`]: rows `indices` of `a` (viewed as
/// `[L, d]`), as `[indices.len(), d]`.
pub(crate) fn select_rows_fwd(a: &Tensor, indices: &[usize]) -> Tensor {
    let d = a.shape().last_dim();
    let rows = a.shape().leading();
    let mut out = crate::pool::take(indices.len() * d);
    for &i in indices {
        assert!(i < rows, "select_rows index {i} out of {rows} rows");
        out.extend_from_slice(&a.data()[i * d..(i + 1) * d]);
    }
    Tensor::new([indices.len(), d], out)
}

/// Forward value of [`Tape::stack_rows`]: the vectors `rows` as the rows of a
/// `[k, d]` matrix. `value` looks a vector up in its context.
pub(crate) fn stack_rows_fwd<'a>(rows: &[Var], value: impl Fn(Var) -> &'a Tensor) -> Tensor {
    assert!(!rows.is_empty(), "stack_rows of zero vectors");
    let d = value(rows[0]).numel();
    let mut out = crate::pool::take(rows.len() * d);
    for &r in rows {
        let v = value(r);
        assert_eq!(v.numel(), d, "stack_rows length mismatch");
        out.extend_from_slice(v.data());
    }
    Tensor::new([rows.len(), d], out)
}

/// Forward value of [`Tape::row`]: row `i` of `a` (viewed as `[L, d]`) as a
/// rank-1 vector.
pub(crate) fn row_fwd(a: &Tensor, i: usize) -> Tensor {
    let d = a.shape().last_dim();
    let mut data = crate::pool::take(d);
    data.extend_from_slice(a.row(i));
    Tensor::new([d], data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reshape_round_trips_grad() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::new([2, 3], (0..6).map(|x| x as f32).collect()));
        let r = t.reshape(a, [3, 2]);
        let s = t.sum_all(r);
        let g = t.backward(s, 0);
        assert_eq!(g.grad(a).unwrap().shape().as_matrix(), (2, 3));
    }

    #[test]
    fn slice_then_concat_is_identity() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::new([2, 4], (0..8).map(|x| x as f32).collect()));
        let left = t.slice_last(a, 0, 2);
        let right = t.slice_last(a, 2, 2);
        let back = t.concat_last(&[left, right]);
        assert_eq!(t.value(back).data(), t.value(a).data());
        let s = t.sum_all(back);
        let g = t.backward(s, 0);
        assert!(g.grad(a).unwrap().data().iter().all(|&x| x == 1.0));
    }

    #[test]
    fn select_rows_gathers_and_scatters() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::matrix(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]));
        let sel = t.select_rows(a, &[2, 0, 2]);
        assert_eq!(t.value(sel).data(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        let s = t.sum_all(sel);
        let g = t.backward(s, 0);
        // row 2 selected twice -> grad 2, row 0 once -> 1, row 1 never -> 0.
        assert_eq!(g.grad(a).unwrap().data(), &[1.0, 1.0, 0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn select_rows_on_rank3_view() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::new([2, 2, 2], (0..8).map(|x| x as f32).collect()));
        // [B*T, d] view; pick token 1 of batch 0 and token 0 of batch 1.
        let sel = t.select_rows(a, &[1, 2]);
        assert_eq!(t.value(sel).data(), &[2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn stack_rows_builds_matrix_and_routes_grads() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::vector(&[1.0, 2.0]));
        let b = t.leaf(Tensor::vector(&[3.0, 4.0]));
        let m = t.stack_rows(&[a, b]);
        assert_eq!(t.value(m).shape().as_matrix(), (2, 2));
        let r1 = t.row(m, 1);
        let s = t.sum_all(r1);
        let g = t.backward(s, 0);
        assert!(g.grad(a).is_none() || g.grad(a).unwrap().data().iter().all(|&x| x == 0.0));
        assert_eq!(g.grad(b).unwrap().data(), &[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of last dim")]
    fn slice_last_bounds_checked() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::zeros([2, 3]));
        t.slice_last(a, 2, 2);
    }
}
