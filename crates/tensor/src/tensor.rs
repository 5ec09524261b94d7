//! The dense `f32` tensor container and its non-differentiable kernels.
//!
//! These kernels are shared by the autodiff layer (forward evaluation and the
//! hand-written backward rules in [`crate::ops`]) and by non-learned code such
//! as the baselines.
//!
//! All tensor data buffers come from the thread-local [`crate::pool`]; a
//! tensor's `Drop` returns its buffer to the pool, so arena-lifetime tensors
//! (tape nodes, gradient slots, `InferCtx` values) recycle instead of hitting
//! the global allocator every step.

use crate::pool;
use crate::shape::Shape;

/// A dense, row-major, contiguous `f32` tensor.
#[derive(Debug)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        let mut data = pool::take(self.data.len());
        data.extend_from_slice(&self.data);
        Tensor {
            shape: self.shape,
            data,
        }
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        pool::recycle(std::mem::take(&mut self.data));
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data == other.data
    }
}

impl Tensor {
    /// Creates a tensor from raw data; panics if `data.len()` disagrees with `shape`.
    pub fn new(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            data.len(),
            "shape {shape} wants {} elements, got {}",
            shape.numel(),
            data.len()
        );
        Tensor { shape, data }
    }

    /// A tensor of zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: pool::take_zeroed(n),
        }
    }

    /// A tensor of ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: pool::take_filled(n, value),
        }
    }

    /// A rank-0 scalar.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: pool::take_filled(1, value),
        }
    }

    /// A rank-1 tensor from a slice.
    pub fn vector(values: &[f32]) -> Self {
        let mut data = pool::take(values.len());
        data.extend_from_slice(values);
        Tensor::new([values.len()], data)
    }

    /// A rank-2 tensor from rows; panics on ragged input.
    pub fn matrix(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = pool::take(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged matrix rows");
            data.extend_from_slice(row);
        }
        Tensor::new([r, c], data)
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The single value of a rank-0/1-element tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.data.len(),
            1,
            "item() on tensor with {} elements",
            self.data.len()
        );
        self.data[0]
    }

    /// Row `i` when viewed as `[leading, last_dim]`.
    pub fn row(&self, i: usize) -> &[f32] {
        let d = self.shape.last_dim();
        let rows = self.shape.leading();
        assert!(i < rows, "row {i} out of range ({rows} rows)");
        &self.data[i * d..(i + 1) * d]
    }

    /// Metadata-only reshape; panics if the element count changes.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            self.numel(),
            "reshape {} -> {shape} changes element count",
            self.shape
        );
        let mut data = pool::take(self.data.len());
        data.extend_from_slice(&self.data);
        Tensor { shape, data }
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut data = pool::take(self.data.len());
        data.extend(self.data.iter().map(|&x| f(x)));
        Tensor {
            shape: self.shape,
            data,
        }
    }

    /// Elementwise combination of two same-shape tensors.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "zip shape mismatch {} vs {}",
            self.shape, other.shape
        );
        let mut data = pool::take(self.data.len());
        data.extend(self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)));
        Tensor {
            shape: self.shape,
            data,
        }
    }

    /// In-place `self += other` (same shape).
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        crate::simd::add_assign_slice(&mut self.data, &other.data);
    }

    /// Scales every element in place.
    pub fn scale_in_place(&mut self, alpha: f32) {
        crate::simd::scale_slice(&mut self.data, alpha);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// L2 norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Maximum element; `f32::NEG_INFINITY` if empty.
    pub fn max(&self) -> f32 {
        self.data.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x))
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    // ---- matrix kernels -------------------------------------------------

    /// Rank-2 matrix product `[m,k] x [k,n] -> [m,n]`.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        let (m, k) = self.shape.as_matrix();
        let (k2, n) = rhs.shape.as_matrix();
        assert_eq!(
            k, k2,
            "matmul inner-dim mismatch {} vs {}",
            self.shape, rhs.shape
        );
        let mut out = pool::take_zeroed(m * n);
        matmul_into(&self.data, &rhs.data, &mut out, m, k, n);
        Tensor::new([m, n], out)
    }

    /// Batched matrix product `[b,m,k] x [b,k,n] -> [b,m,n]`.
    pub fn bmm(&self, rhs: &Tensor) -> Tensor {
        let (b, m, k) = self.shape.as_batch_matrix();
        let (b2, k2, n) = rhs.shape.as_batch_matrix();
        assert_eq!(b, b2, "bmm batch mismatch {} vs {}", self.shape, rhs.shape);
        assert_eq!(
            k, k2,
            "bmm inner-dim mismatch {} vs {}",
            self.shape, rhs.shape
        );
        let mut out = pool::take_zeroed(b * m * n);
        {
            let shared = pool::SharedMut::new(&mut out);
            par_batches(b, b * m * k * n, |i| {
                // SAFETY: each batch writes only its own contiguous block.
                let o = unsafe { shared.get(i * m * n, m * n) };
                matmul_into(
                    &self.data[i * m * k..(i + 1) * m * k],
                    &rhs.data[i * k * n..(i + 1) * k * n],
                    o,
                    m,
                    k,
                    n,
                );
            });
        }
        Tensor::new([b, m, n], out)
    }

    /// Rank-2 transpose (materialized).
    pub fn transpose(&self) -> Tensor {
        let (m, n) = self.shape.as_matrix();
        let mut out = pool::take_zeroed(m * n);
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::new([n, m], out)
    }
}

// ---- raw GEMM kernels ---------------------------------------------------
//
// Three transpose-fused variants (`A·B`, `Aᵀ·B`, `A·Bᵀ`) shared by the
// forward kernels above and the backward rules in `crate::ops::linalg` —
// together they close matmul under differentiation without ever
// materializing a transpose. All three obey one determinism contract:
// every output element is produced by a single accumulator chain that
// starts from the element's prior `out` value and consumes the k products
// in strictly increasing reduction-index order. Tiling and packing only
// ever split the *independent* dimensions (i, j), never the reduction, so
// results are bitwise-stable across kernel rewrites — the bitwise
// loss-trajectory test depends on it.
//
// Shapes above `BLOCKED_MIN_FLOPS` take the register-tiled path: A and B
// are packed into pooled MR-row / NR-column panels and a 4×8 micro-kernel
// keeps the output tile in registers for the entire reduction, so each
// loaded panel value feeds 8 (resp. 4) multiplies instead of 1. The
// reduction is deliberately *not* split into Kc chunks spilled through
// memory: with `+=`-into-out semantics that would re-associate the
// per-element chain (`(out + s1) + s2 ≠ out + (s1 + s2)` in f32). The
// panels are small enough at these problem sizes (k ≤ a few hundred) that
// an MR×k strip lives comfortably in L1 anyway; cache blocking falls out
// of the panel traversal order rather than an explicit Kc loop.

/// Register tile height: rows of `out` carried per micro-kernel.
const MR: usize = 4;
/// Register tile width: columns of `out` carried per micro-kernel.
const NR: usize = 8;
/// Problem-volume floor (`m·k·n`) below which the scalar kernels win
/// (packing overhead dominates tiny GEMMs like per-head attention bmm).
const BLOCKED_MIN_FLOPS: usize = 8 * 1024;
/// Problem-volume floor above which blocked GEMM fans its row panels out
/// across the global thread pool. Below it a pool round-trip (~µs of
/// park/unpark latency) rivals the kernel itself.
pub(crate) const PAR_MIN_FLOPS: usize = 512 * 1024;

/// Deterministic dispatcher shared by all three kernel variants.
fn use_blocked(m: usize, k: usize, n: usize) -> bool {
    m >= MR && n >= NR && k >= 2 && m * k * n >= BLOCKED_MIN_FLOPS
}

/// Packs `a` (either `[m,k]` or, when `AT`, `[k,m]`) into MR-row panels:
/// `ap[ip*MR*k + p*MR + r] = A[i0+r, p]`. Rows past `m` stay zero.
#[inline(always)]
fn pack_a<const AT: bool>(a: &[f32], ap: &mut [f32], m: usize, k: usize) {
    let mp = m.div_ceil(MR);
    for ip in 0..mp {
        let i0 = ip * MR;
        let rows = MR.min(m - i0);
        let panel = &mut ap[ip * MR * k..(ip + 1) * MR * k];
        for r in 0..rows {
            let i = i0 + r;
            if AT {
                for p in 0..k {
                    panel[p * MR + r] = a[p * m + i];
                }
            } else {
                let a_row = &a[i * k..(i + 1) * k];
                for (p, &v) in a_row.iter().enumerate() {
                    panel[p * MR + r] = v;
                }
            }
        }
    }
}

/// Packs `b` (either `[k,n]` or, when `BT`, `[n,k]`) into NR-column panels:
/// `bp[jp*NR*k + p*NR + c] = B[p, j0+c]`. Columns past `n` stay zero.
#[inline(always)]
fn pack_b<const BT: bool>(b: &[f32], bp: &mut [f32], k: usize, n: usize) {
    let np = n.div_ceil(NR);
    for jp in 0..np {
        let j0 = jp * NR;
        let cols = NR.min(n - j0);
        let panel = &mut bp[jp * NR * k..(jp + 1) * NR * k];
        if BT {
            for c in 0..cols {
                let b_row = &b[(j0 + c) * k..(j0 + c + 1) * k];
                for (p, &v) in b_row.iter().enumerate() {
                    panel[p * NR + c] = v;
                }
            }
        } else {
            for p in 0..k {
                let b_row = &b[p * n + j0..p * n + j0 + cols];
                for (c, &v) in b_row.iter().enumerate() {
                    panel[p * NR + c] = v;
                }
            }
        }
    }
}

/// MR×NR micro-kernel for a *full* output tile: constant-size loads and
/// stores only, so LLVM promotes the whole accumulator tile to vector
/// registers (SROA fails the moment `acc` is borrowed at a runtime-length
/// slice, which is why edge tiles take the generic kernel below).
#[inline(always)]
fn micro_full(a_panel: &[f32], b_panel: &[f32], out: &mut [f32], i0: usize, j0: usize, n: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    for r in 0..MR {
        let o = (i0 + r) * n + j0;
        acc[r].copy_from_slice(&out[o..o + NR]);
    }
    for (av, bv) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)) {
        let bn: &[f32; NR] = bv.try_into().unwrap();
        for r in 0..MR {
            let ar = av[r];
            for c in 0..NR {
                acc[r][c] += ar * bn[c];
            }
        }
    }
    for r in 0..MR {
        let o = (i0 + r) * n + j0;
        out[o..o + NR].copy_from_slice(&acc[r]);
    }
}

/// Generic micro-kernel for edge tiles (`rows < MR` or `cols < NR`): same
/// accumulation chain, but load/store only the valid rectangle. `acc` spills
/// to the stack here, which is fine — edge tiles are at most one strip per
/// dimension.
#[inline(never)]
fn micro_edge(
    a_panel: &[f32],
    b_panel: &[f32],
    out: &mut [f32],
    i0: usize,
    j0: usize,
    n: usize,
    rows: usize,
    cols: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, acc_row) in acc.iter_mut().enumerate().take(rows) {
        let o = (i0 + r) * n + j0;
        acc_row[..cols].copy_from_slice(&out[o..o + cols]);
    }
    for (av, bv) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)) {
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let ar = av[r];
            for c in 0..NR {
                acc_row[c] += ar * bv[c];
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate().take(rows) {
        let o = (i0 + r) * n + j0;
        out[o..o + cols].copy_from_slice(&acc_row[..cols]);
    }
}

/// Register-tiled `out += A·B` over pooled packed panels.
///
/// Each MR×NR output tile is loaded once, accumulated in registers across
/// the **whole** reduction (increasing p, one add per product — bitwise
/// identical to the scalar kernels), and stored once. Panel entries beyond
/// the valid edge are zero-padded; their accumulator lanes are discarded,
/// never stored.
///
/// Packing runs once on the caller; large problems then split their *row
/// panels* across the thread pool. Every output element's accumulation chain
/// is confined to one tile computed by one thread, so the split cannot
/// change bits — the serial path runs the exact same tiles in a different
/// interleaving (see `DESIGN.md` §12).
fn gemm_blocked<const AT: bool, const BT: bool>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let mp = m.div_ceil(MR);
    let np = n.div_ceil(NR);
    let mut ap = pool::Scratch::<f32>::zeroed(mp * MR * k);
    let mut bp = pool::Scratch::<f32>::zeroed(np * NR * k);
    pack_a::<AT>(a, &mut ap, m, k);
    pack_b::<BT>(b, &mut bp, k, n);
    if m * k * n >= PAR_MIN_FLOPS {
        let shared = pool::SharedMut::new(out);
        pool::parallel_for(mp, |r| {
            if r.is_empty() {
                return;
            }
            let row0 = r.start * MR;
            let row1 = (r.end * MR).min(m);
            // SAFETY: panel ranges from the static partition map to disjoint
            // row bands of `out`, and the borrow outlives the scoped run.
            let band = unsafe { shared.get(row0 * n, (row1 - row0) * n) };
            gemm_tiles(&ap, &bp, band, m, k, n, r.start, r.end);
        });
    } else {
        gemm_tiles(&ap, &bp, out, m, k, n, 0, mp);
    }
}

/// Runs `f(i)` for every batch index `0..batches`, fanning the indices out
/// across the thread pool when the total problem volume is large enough to
/// amortize one pool round-trip. Batch items must be independent (disjoint
/// outputs), which also makes the fan-out bitwise invariant.
pub(crate) fn par_batches(batches: usize, flops: usize, f: impl Fn(usize) + Sync) {
    if flops >= PAR_MIN_FLOPS {
        pool::parallel_for(batches, |r| {
            for i in r {
                f(i);
            }
        });
    } else {
        for i in 0..batches {
            f(i);
        }
    }
}

crate::simd_hot! {

/// Register-tiled micro-kernel sweep over row panels `ip0..ip1`, writing
/// output rows `ip0*MR .. min(ip1*MR, m)`. `out_rows` is exactly that row
/// band (callers slice it out of the full matrix, so concurrent bands never
/// alias); indices are band-relative while panel lookups stay absolute.
fn gemm_tiles(
    ap: &[f32],
    bp: &[f32],
    out_rows: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ip0: usize,
    ip1: usize,
) {
    let np = n.div_ceil(NR);
    let row0 = ip0 * MR;
    for jp in 0..np {
        let j0 = jp * NR;
        let cols = NR.min(n - j0);
        let b_panel = &bp[jp * NR * k..(jp + 1) * NR * k];
        for ip in ip0..ip1 {
            let i0 = ip * MR;
            let rows = MR.min(m - i0);
            let a_panel = &ap[ip * MR * k..(ip + 1) * MR * k];
            if rows == MR && cols == NR {
                micro_full(a_panel, b_panel, out_rows, i0 - row0, j0, n);
            } else {
                micro_edge(a_panel, b_panel, out_rows, i0 - row0, j0, n, rows, cols);
            }
        }
    }
}

/// Small-shape `out += a[m,k] * b[k,n]`: an ikj loop that keeps the
/// innermost accesses sequential in both `b` and `out`, with the reduction
/// blocked by 4 so each pass touches four `b` rows per load/store sweep of
/// the `out` row. Bitwise identical to the blocked path (per-element
/// summation order is the same serial chain).
fn matmul_into_small(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        let mut p = 0;
        while p + 4 <= k {
            let (a0, a1, a2, a3) = (a_row[p], a_row[p + 1], a_row[p + 2], a_row[p + 3]);
            let b0 = &b[p * n..(p + 1) * n];
            let b1 = &b[(p + 1) * n..(p + 2) * n];
            let b2 = &b[(p + 2) * n..(p + 3) * n];
            let b3 = &b[(p + 3) * n..(p + 4) * n];
            for j in 0..n {
                // Separate adds, not a reassociated sum: keeps increasing-p
                // summation order per element.
                let mut acc = out_row[j];
                acc += a0 * b0[j];
                acc += a1 * b1[j];
                acc += a2 * b2[j];
                acc += a3 * b3[j];
                out_row[j] = acc;
            }
            p += 4;
        }
        for p in p..k {
            let a_ip = a_row[p];
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &b_pj) in out_row.iter_mut().zip(b_row) {
                *o += a_ip * b_pj;
            }
        }
    }
}

/// Small-shape `out[m,n] += aᵀ * b` with `a` stored `[k,m]`: streams `b`
/// and `out` rows with the reduction blocked by 4.
fn matmul_into_at_small(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let mut p = 0;
    while p + 4 <= k {
        let b0 = &b[p * n..(p + 1) * n];
        let b1 = &b[(p + 1) * n..(p + 2) * n];
        let b2 = &b[(p + 2) * n..(p + 3) * n];
        let b3 = &b[(p + 3) * n..(p + 4) * n];
        for i in 0..m {
            let (a0, a1, a2, a3) = (
                a[p * m + i],
                a[(p + 1) * m + i],
                a[(p + 2) * m + i],
                a[(p + 3) * m + i],
            );
            let out_row = &mut out[i * n..(i + 1) * n];
            for j in 0..n {
                let mut acc = out_row[j];
                acc += a0 * b0[j];
                acc += a1 * b1[j];
                acc += a2 * b2[j];
                acc += a3 * b3[j];
                out_row[j] = acc;
            }
        }
        p += 4;
    }
    for p in p..k {
        let b_row = &b[p * n..(p + 1) * n];
        for i in 0..m {
            let a_pi = a[p * m + i];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (o, &b_pj) in out_row.iter_mut().zip(b_row) {
                *o += a_pi * b_pj;
            }
        }
    }
}

}

/// `out += a[m,k] * b[k,n]`.
///
/// Large shapes take the register-tiled packed path (row panels fan out
/// across the thread pool — see [`gemm_blocked`]); small shapes use the
/// scalar ikj loop. Both paths produce identical bits: every output
/// element is one serial accumulator chain in increasing reduction order,
/// regardless of tiling, SIMD tier, or thread count.
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if use_blocked(m, k, n) {
        gemm_blocked::<false, false>(a, b, out, m, k, n);
    } else {
        matmul_into_small(a, b, out, m, k, n);
    }
}

/// `out[m,n] += aᵀ[m,k] * b[k,n]` with `a` stored untransposed as `[k,m]`.
///
/// The reduction index is the *leading* dimension of both inputs; the packed
/// path gathers `a` columns into row panels during packing, the small path
/// streams `b` and `out` rows with the reduction blocked by 4.
pub fn matmul_into_at(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if use_blocked(m, k, n) {
        gemm_blocked::<true, false>(a, b, out, m, k, n);
    } else {
        matmul_into_at_small(a, b, out, m, k, n);
    }
}

/// `out[m,n] += a[m,k] * bᵀ[k,n]` with `b` stored untransposed as `[n,k]`.
///
/// The packed path reads `b` rows directly as column panels (the transpose
/// is free in the packing gather). The small path packs `b` into a pooled
/// transposed `[k,n]` scratch tile — bounded and reusable via the pool,
/// unlike the unbounded thread-local it replaces — and runs the blocked
/// small loop of [`matmul_into`]. Either way the pack is kernel-internal:
/// callers (in particular the backward closures) never see or allocate a
/// transposed tensor, and the per-element summation order is identical to
/// composing a materialized transpose with [`matmul_into`].
pub fn matmul_into_bt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    if use_blocked(m, k, n) {
        return gemm_blocked::<false, true>(a, b, out, m, k, n);
    }
    let mut bt = pool::Scratch::<f32>::zeroed(k * n);
    for (j, b_row) in b.chunks_exact(k).enumerate() {
        for (p, &v) in b_row.iter().enumerate() {
            bt[p * n + j] = v;
        }
    }
    matmul_into_small(a, &bt, out, m, k, n);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let z = Tensor::zeros([2, 3]);
        assert_eq!(z.numel(), 6);
        assert!(z.data().iter().all(|&x| x == 0.0));
        assert_eq!(Tensor::scalar(4.0).item(), 4.0);
        assert_eq!(Tensor::vector(&[1.0, 2.0]).shape().rank(), 1);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn new_rejects_bad_length() {
        Tensor::new([2, 2], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::matrix(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::matrix(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::matrix(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i = Tensor::matrix(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn bmm_matches_per_batch_matmul() {
        let a = Tensor::new([2, 2, 3], (0..12).map(|x| x as f32).collect());
        let b = Tensor::new([2, 3, 2], (0..12).map(|x| (x as f32) * 0.5).collect());
        let c = a.bmm(&b);
        for i in 0..2 {
            let ai = Tensor::new([2, 3], a.data()[i * 6..(i + 1) * 6].to_vec());
            let bi = Tensor::new([3, 2], b.data()[i * 6..(i + 1) * 6].to_vec());
            let ci = ai.matmul(&bi);
            assert_eq!(&c.data()[i * 4..(i + 1) * 4], ci.data());
        }
    }

    /// Reference single-order GEMM: the determinism contract all tiled
    /// kernels must match bitwise.
    fn matmul_ref(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    out[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        out
    }

    fn seq(n: usize, scale: f32) -> Vec<f32> {
        (0..n)
            .map(|x| (x as f32 * 0.37 - 1.3) * scale * if x % 3 == 0 { -1.0 } else { 1.0 })
            .collect()
    }

    #[test]
    fn tiled_matmul_matches_reference_bitwise() {
        // Cover remainder lanes: k and n both at, below and above multiples
        // of the 4-wide tiles.
        for &(m, k, n) in &[
            (1, 1, 1),
            (2, 3, 5),
            (3, 4, 4),
            (5, 7, 6),
            (4, 8, 9),
            (6, 5, 3),
        ] {
            let a = seq(m * k, 0.7);
            let b = seq(k * n, 0.9);
            let mut out = vec![0.0f32; m * n];
            matmul_into(&a, &b, &mut out, m, k, n);
            assert_eq!(out, matmul_ref(&a, &b, m, k, n), "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn blocked_gemm_matches_reference_bitwise_on_odd_sizes() {
        // Drive the register-tiled path directly (below the dispatch
        // threshold) on degenerate and odd shapes: 1×1×1, 3×5×7, and every
        // combination straddling the MR/NR tile boundaries by ±1.
        let mut shapes = vec![(1usize, 1usize, 1usize), (3, 5, 7)];
        for m in [MR - 1, MR, MR + 1, 2 * MR + 1] {
            for n in [NR - 1, NR, NR + 1, 2 * NR + 1] {
                for k in [1, 3, 4, 5] {
                    shapes.push((m, k, n));
                }
            }
        }
        for &(m, k, n) in &shapes {
            let a = seq(m * k, 0.7);
            let b = seq(k * n, 0.9);
            let mut out = vec![0.0f32; m * n];
            gemm_blocked::<false, false>(&a, &b, &mut out, m, k, n);
            assert_eq!(out, matmul_ref(&a, &b, m, k, n), "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn blocked_dispatch_matches_scalar_kernels_bitwise() {
        // Shapes above the dispatch threshold, including tile-boundary ±1
        // edges, must produce the same bits as the scalar small-path kernels
        // (and hence the pre-blocking kernels).
        for &(m, k, n) in &[
            (16, 32, 16),
            (15, 31, 23),
            (17, 33, 25),
            (32, 17, 24),
            (33, 16, 23),
            (48, 48, 48),
        ] {
            assert!(use_blocked(m, k, n), "shape {m}x{k}x{n} not blocked");
            let a = seq(m * k, 0.7);
            let b = seq(k * n, 0.9);
            let mut out = vec![0.1f32; m * n];
            matmul_into(&a, &b, &mut out, m, k, n);
            // Scalar reference seeded from the same nonzero out.
            let mut expect = vec![0.1f32; m * n];
            for i in 0..m {
                for j in 0..n {
                    for p in 0..k {
                        expect[i * n + j] += a[i * k + p] * b[p * n + j];
                    }
                }
            }
            assert_eq!(out, expect, "shape {m}x{k}x{n}");

            // Aᵀ·B variant on the same shape.
            let at = Tensor::new([m, k], a.clone()).transpose();
            let mut out_at = vec![0.1f32; m * n];
            matmul_into_at(at.data(), &b, &mut out_at, m, k, n);
            assert_eq!(out_at, expect, "at shape {m}x{k}x{n}");

            // A·Bᵀ variant on the same shape.
            let bt = Tensor::new([k, n], b.clone()).transpose();
            let mut out_bt = vec![0.1f32; m * n];
            matmul_into_bt(&a, bt.data(), &mut out_bt, m, k, n);
            assert_eq!(out_bt, expect, "bt shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn matmul_at_matches_materialized_transpose_bitwise() {
        for &(m, k, n) in &[(1, 1, 2), (3, 5, 4), (4, 4, 4), (2, 7, 3), (5, 8, 6)] {
            // a stored as [k, m]; Aᵀ·B must equal transpose-then-matmul.
            let a = Tensor::new([k, m], seq(k * m, 0.6));
            let b = Tensor::new([k, n], seq(k * n, 1.1));
            let expect = a.transpose().matmul(&b);
            let mut out = vec![0.0f32; m * n];
            matmul_into_at(a.data(), b.data(), &mut out, m, k, n);
            assert_eq!(out, expect.data(), "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn matmul_bt_matches_materialized_transpose_bitwise() {
        for &(m, k, n) in &[(2, 1, 1), (3, 5, 4), (4, 4, 4), (2, 7, 3), (5, 8, 6)] {
            // b stored as [n, k]; A·Bᵀ must equal transpose-then-matmul.
            let a = Tensor::new([m, k], seq(m * k, 0.8));
            let b = Tensor::new([n, k], seq(n * k, 1.2));
            let expect = a.matmul(&b.transpose());
            let mut out = vec![0.0f32; m * n];
            matmul_into_bt(a.data(), b.data(), &mut out, m, k, n);
            assert_eq!(out, expect.data(), "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn fused_kernels_accumulate_into_nonzero_out() {
        // All three kernels have `+=` semantics so backward rules can
        // accumulate straight into an existing gradient buffer.
        let a = seq(6, 1.0);
        let b = seq(6, 0.5);
        let mut out = vec![1.0f32; 4];
        matmul_into(&a, &b, &mut out, 2, 3, 2);
        // Same accumulation order seeded from the same pre-existing values.
        let mut expect = vec![1.0f32; 4];
        for i in 0..2 {
            for p in 0..3 {
                for j in 0..2 {
                    expect[i * 2 + j] += a[i * 3 + p] * b[p * 2 + j];
                }
            }
        }
        assert_eq!(out, expect);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::new([2, 3], (0..6).map(|x| x as f32).collect());
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape().as_matrix(), (3, 2));
    }

    #[test]
    fn reductions() {
        let a = Tensor::vector(&[1.0, 2.0, 3.0]);
        assert_eq!(a.sum(), 6.0);
        assert_eq!(a.mean(), 2.0);
        assert_eq!(a.max(), 3.0);
        assert!((a.norm() - 14.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn row_access() {
        let a = Tensor::new([2, 2, 2], (0..8).map(|x| x as f32).collect());
        assert_eq!(a.row(3), &[6.0, 7.0]);
    }

    #[test]
    fn add_assign_and_scale() {
        let mut a = Tensor::vector(&[1.0, 2.0]);
        let b = Tensor::vector(&[10.0, 20.0]);
        a.add_assign(&b);
        assert_eq!(a.data(), &[11.0, 22.0]);
        a.scale_in_place(2.0);
        assert_eq!(a.data(), &[22.0, 44.0]);
    }
}
