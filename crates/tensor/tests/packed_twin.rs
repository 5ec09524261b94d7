//! Bitwise pins for the packed weight twins (`WeightTwin`): a weight packed
//! once and a weight packed per call run the same panels through the same
//! micro-kernel, so `InferCtx::linear` with the f32 twin attached must equal
//! the taped `linear` and `matmul_into` + bias bit for bit, and
//! `InferCtx::linear_tiles` must hand out `linear`'s own columns, with no
//! twin, the f32 twin and the int8 twin alike.
//!
//! Shapes straddle every tile edge: row counts `1..=9` (two 4-row panels
//! and one more) and a few past the parallel floor, column counts around
//! multiples of the 16-column panel, reductions `1..=100`. Every case runs
//! at every SIMD tier the host has (`simd::pin`) and at 1 and 4 pool
//! threads; both are process-wide, so this file holds one test.

use cf_check::prelude::*;
use cf_rand::rngs::StdRng;
use cf_rand::{Rng, SeedableRng};
use cf_tensor::pool::set_threads;
use cf_tensor::simd;
use cf_tensor::{matmul_into, Forward, InferCtx, ParamStore, Tape, Tensor, WeightTwin};
use std::sync::Arc;

fn bits(data: &[f32]) -> Vec<u32> {
    data.iter().map(|x| x.to_bits()).collect()
}

/// `linear`'s output handed out by `linear_tiles`, reassembled.
fn tiled(
    ctx: &InferCtx,
    ps: &ParamStore,
    x: cf_tensor::Var,
    lin: (cf_tensor::ParamId, cf_tensor::ParamId),
    cols: usize,
) -> Vec<f32> {
    let (rows, n) = (
        ctx.value(x).shape().leading(),
        ps.get(lin.0).shape().last_dim(),
    );
    let mut out = vec![f32::NAN; rows * n];
    let mut next = 0;
    ctx.linear_tiles(ps, x, lin.0, lin.1, cols, |c0, tile| {
        assert_eq!(c0, next, "tiles out of order");
        let w = cols.min(n - c0);
        assert_eq!(tile.len(), rows * w, "tile size at column {c0}");
        for (r, row) in tile.chunks_exact(w).enumerate() {
            out[r * n + c0..r * n + c0 + w].copy_from_slice(row);
        }
        next = c0 + w;
    });
    assert_eq!(next, n, "tiles cover every column");
    out
}

property! {
    #![config(cases = 48)]

    #[test]
    fn twin_linear_matches_taped_linear_and_matmul_into(
        m in 1usize..=9,
        big in 0usize..6,
        k in 1usize..=100,
        n_panels in 0usize..5,
        n_edge in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        // One case in six is past the parallel floor (m·k·n ≥ 512k), so
        // the row-panel split runs at 4 threads.
        let m = if big == 0 { 96 + m } else { m };
        let n = (16 * n_panels + [0, 1, 15][n_edge]).max(1);
        let n = if big == 0 { n.max(64) * 8 } else { n };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rand = |len: usize| -> Vec<f32> {
            (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
        };
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::new([k, n], rand(k * n)));
        let b = ps.add("b", Tensor::new([n], rand(n)));
        let x = Tensor::new([m, k], rand(m * k));
        let f32_twin = Arc::new(WeightTwin::f32(&ps));
        let int8_twin = Arc::new(WeightTwin::int8(&ps));
        check_assert_eq!(f32_twin.num_packed(), usize::from(n >= 16));

        // The references: the taped composed graph, and matmul_into + bias.
        let mut tape = Tape::new();
        let xv = Forward::leaf(&mut tape, x.clone());
        let y = Forward::linear(&mut tape, &ps, xv, w, b);
        let want = bits(Forward::value(&tape, y).data());
        let mut direct = vec![0.0f32; m * n];
        matmul_into(x.data(), ps.get(w).data(), &mut direct, m, k, n);
        for row in direct.chunks_exact_mut(n) {
            for (o, &bj) in row.iter_mut().zip(ps.get(b).data()) {
                *o += bj;
            }
        }
        check_assert_eq!(bits(&direct), want.clone());

        simd::pin(None);
        let probed = simd::tiers();
        for vector in simd::BASELINE..=probed.vector {
            simd::pin(Some(simd::Tiers { vector, ..probed }));
            for threads in [1, 4] {
                set_threads(threads);
                let at = format!("{m}x{k}x{n}, tier {vector}, {threads} thread(s)");
                // No twin and the f32 twin: the reference bits, whole and
                // in tiles of one and of three panels.
                for twin in [None, Some(Arc::clone(&f32_twin))] {
                    let mut ctx = InferCtx::new();
                    ctx.set_weights(twin);
                    let xv = ctx.leaf(x.clone());
                    let y = ctx.linear(&ps, xv, w, b);
                    check_assert!(bits(ctx.value(y).data()) == want, "linear at {at}");
                    for cols in [16, 48] {
                        let got = tiled(&ctx, &ps, xv, (w, b), cols);
                        check_assert!(bits(&got) == want, "tiles of {cols} at {at}");
                    }
                }
                // The int8 twin: tiles hand out the int8 linear's columns.
                if n >= 8 {
                    let mut ctx = InferCtx::new();
                    ctx.set_weights(Arc::clone(&int8_twin));
                    let xv = ctx.leaf(x.clone());
                    let y = ctx.linear(&ps, xv, w, b);
                    let int8 = bits(ctx.value(y).data());
                    for cols in [16, 48] {
                        let got = tiled(&ctx, &ps, xv, (w, b), cols);
                        check_assert!(bits(&got) == int8, "int8 tiles of {cols} at {at}");
                    }
                }
            }
        }
        simd::pin(None);
        set_threads(1);
    }
}
