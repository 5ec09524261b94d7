//! Dense-kernel micro-benchmarks at the paper's model shapes: GEMM variants,
//! multi-head attention, and one full train step of the Chain-Encoder-sized
//! Transformer. This is the perf gate for the training hot path.
//!
//! Unlike the `criterion_group!`-style benches, this binary drives the
//! harness by hand so it can persist its numbers: set `CF_BENCH_JSON=1` to
//! write `results/BENCH_tensor.json` (the repo's kernel perf trajectory).
//!
//! The binary runs under [`CountingAlloc`], so next to the timings it
//! records `allocs_per_step`/`frees_per_step` — steady-state allocator calls
//! per iteration, measured after a warm-up. The pooled substrate (PR 4) must
//! hold these at 0 for every arm that runs with the pool enabled. The
//! affine-transfer arms also record `peak_scratch_bytes`: the most heap one
//! call holds at once with the pool disabled, its working memory.

use cf_chains::ChainVocab;
use cf_rand::rngs::StdRng;
use cf_rand::{Rng, SeedableRng};
use cf_tensor::nn::{Linear, TransformerEncoder};
use cf_tensor::{Forward, InferCtx, PackedMatrix, ParamStore, Tape, Tensor};
use chainsformer::encoder::ChainEncoder;
use chainsformer::ChainsFormerConfig;
use chainsformer_bench::alloc::{measure, peak_bytes, AllocCounts, CountingAlloc};
use chainsformer_bench::micro::Criterion;
use chainsformer_bench::report::{write_json_merged, Table};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Steady-state allocator calls per iteration of `f`: warm up, then average
/// over `iters` runs. Registered per bench arm and joined into the JSON.
fn steady_state_allocs(allocs: &mut HashMap<String, AllocCounts>, name: &str, mut f: impl FnMut()) {
    for _ in 0..3 {
        f(); // warm-up: pools fill, optimizer state materializes
    }
    let iters = 10u64;
    let (_, delta) = measure(|| {
        for _ in 0..iters {
            f();
        }
    });
    allocs.insert(
        name.to_string(),
        AllocCounts {
            allocs: delta.allocs / iters,
            frees: delta.frees / iters,
            bytes: delta.bytes / iters,
        },
    );
}

fn rand_tensor(shape: &[usize], rng: &mut StdRng) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::new(
        shape.to_vec(),
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    )
}

/// The pre-overhaul GEMM inner loop (naive `ikj` with the `a_ip == 0.0`
/// skip branch), kept here as the in-binary before/after baseline for the
/// tiled kernel.
fn matmul_into_naive(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let out_row = &mut out[i * n..(i + 1) * n];
        for p in 0..k {
            let a_ip = a[i * k + p];
            if a_ip == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for j in 0..n {
                out_row[j] += a_ip * b_row[j];
            }
        }
    }
}

/// `[m,k] x [k,n]` products: the naive pre-overhaul kernel, the
/// register-tiled/cache-blocked kernel, and the transpose-fused variants
/// (which the backward pass runs instead of materializing Aᵀ/Bᵀ). The two
/// larger shapes (256³ and 128×384×128) spill L1/L2 and exist to make the
/// cache blocking visible; the two small ones are the PR-2 gate shapes.
fn bench_gemm(c: &mut Criterion, allocs: &mut HashMap<String, AllocCounts>) {
    let mut rng = StdRng::seed_from_u64(0);
    for &(m, k, n) in &[
        (64usize, 64usize, 64usize),
        (128, 32, 128),
        (256, 256, 256),
        (128, 384, 128),
    ] {
        let a = rand_tensor(&[m, k], &mut rng);
        let b = rand_tensor(&[k, n], &mut rng);
        c.bench_function(format!("gemm_naive/{m}x{k}x{n}"), |bch| {
            let mut out = vec![0.0f32; m * n];
            bch.iter(|| {
                out.fill(0.0);
                matmul_into_naive(a.data(), b.data(), &mut out, m, k, n);
                black_box(out[0])
            });
        });
        c.bench_function(format!("gemm/{m}x{k}x{n}"), |bch| {
            bch.iter(|| black_box(a.matmul(&b)));
        });
        steady_state_allocs(allocs, &format!("gemm/{m}x{k}x{n}"), || {
            black_box(a.matmul(&b));
        });
        // Aᵀ·B with A stored [k,m]: the dB kernel of backward.
        let at = rand_tensor(&[k, m], &mut rng);
        c.bench_function(format!("gemm_at/{m}x{k}x{n}"), |bch| {
            let mut out = vec![0.0f32; m * n];
            bch.iter(|| {
                out.fill(0.0);
                cf_tensor::matmul_into_at(at.data(), b.data(), &mut out, m, k, n);
                black_box(out[0])
            });
        });
        // A·Bᵀ with B stored [n,k]: the dA kernel of backward and QKᵀ.
        let bt = rand_tensor(&[n, k], &mut rng);
        c.bench_function(format!("gemm_bt/{m}x{k}x{n}"), |bch| {
            let mut out = vec![0.0f32; m * n];
            bch.iter(|| {
                out.fill(0.0);
                cf_tensor::matmul_into_bt(a.data(), bt.data(), &mut out, m, k, n);
                black_box(out[0])
            });
        });
    }
}

/// Int8 GEMM arms next to their f32 counterparts (same shapes as
/// `bench_gemm`'s cache-spilling pair). Two flavors:
///
/// - `gemm_i8/…` — the raw kernel `matmul_q8_into` on pre-quantized
///   operands (pack + int8×int8→i32 tiles), the apples-to-apples rival of
///   `gemm/…` which also packs per call;
/// - `gemm_i8_dyn/…` — the serving path `QuantizedTensor::matmul_quantized`:
///   dynamic per-batch activation quantization, packed int8 GEMM, and f32
///   dequantize — what `--quantize int8` actually pays per linear layer.
fn bench_gemm_i8(c: &mut Criterion, allocs: &mut HashMap<String, AllocCounts>) {
    let mut rng = StdRng::seed_from_u64(0);
    for &(m, k, n) in &[
        (64usize, 64usize, 64usize),
        (256, 256, 256),
        (128, 384, 128),
    ] {
        let a = rand_tensor(&[m, k], &mut rng);
        let b = rand_tensor(&[k, n], &mut rng);
        let qa = {
            let recip = 1.0 / cf_tensor::quant::quantize_scale(a.data());
            let mut out = Vec::new();
            cf_tensor::quant::quantize_slice_into(a.data(), recip, &mut out);
            out
        };
        let qb = {
            let recip = 1.0 / cf_tensor::quant::quantize_scale(b.data());
            let mut out = Vec::new();
            cf_tensor::quant::quantize_slice_into(b.data(), recip, &mut out);
            out
        };
        c.bench_function(format!("gemm_i8/{m}x{k}x{n}"), |bch| {
            let mut out = vec![0i32; m * n];
            bch.iter(|| {
                cf_tensor::quant::matmul_q8_into(&qa, &qb, &mut out, m, k, n);
                black_box(out[0])
            });
        });
        let qt = cf_tensor::QuantizedTensor::from_tensor(&b).expect("eligible weight");
        c.bench_function(format!("gemm_i8_dyn/{m}x{k}x{n}"), |bch| {
            bch.iter(|| black_box(qt.matmul_quantized(&a)));
        });
        steady_state_allocs(allocs, &format!("gemm_i8_dyn/{m}x{k}x{n}"), || {
            black_box(qt.matmul_quantized(&a));
        });
    }
}

/// The f32 GEMM with `B` packed on every call (`matmul_into`: training,
/// fresh contexts, an engine before the f32 twin) against `B` packed once
/// (`PackedMatrix`, the f32 serving twin), at the served model's
/// `encoder.alpha` output layer (`[32,48]×[48,2304]`), its square layers
/// (`[32,48]×[48,48]`) and the paper shape's `encoder.alpha` output layer
/// (`[128,256]×[256,65536]`). Both arms write the same bits; the bench
/// asserts it once per shape.
fn bench_gemm_packed_once(c: &mut Criterion, allocs: &mut HashMap<String, AllocCounts>) {
    let mut rng = StdRng::seed_from_u64(5);
    for &(m, k, n) in &[
        (32usize, 48usize, 2304usize),
        (32, 48, 48),
        (128, 256, 65536),
    ] {
        let a = rand_tensor(&[m, k], &mut rng);
        let b = rand_tensor(&[k, n], &mut rng);
        let packed = PackedMatrix::from_tensor(&b);
        let mut want = vec![0.0f32; m * n];
        cf_tensor::matmul_into(a.data(), b.data(), &mut want, m, k, n);
        let mut got = vec![0.0f32; m * n];
        packed.matmul_rows_into(a.data(), m, &mut got);
        assert!(
            want.iter()
                .zip(&got)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "packed-once GEMM differs at {m}x{k}x{n}"
        );
        let mut out = vec![0.0f32; m * n];
        let name = format!("gemm_per_call/{m}x{k}x{n}");
        c.bench_function(name.clone(), |bch| {
            bch.iter(|| {
                out.fill(0.0);
                cf_tensor::matmul_into(a.data(), b.data(), &mut out, m, k, n);
                black_box(out[0])
            });
        });
        steady_state_allocs(allocs, &name, || {
            cf_tensor::matmul_into(a.data(), b.data(), &mut out, m, k, n);
        });
        let name = format!("gemm_packed_once/{m}x{k}x{n}");
        c.bench_function(name.clone(), |bch| {
            bch.iter(|| {
                out.fill(0.0);
                packed.matmul_rows_into(a.data(), m, &mut out);
                black_box(out[0])
            });
        });
        steady_state_allocs(allocs, &name, || {
            packed.matmul_rows_into(a.data(), m, &mut out);
        });
    }
}

/// The Numerical-Aware Affine Transfer (Eq. 14–16) of `k` chain rows on the
/// tape-free path, with the f32 twin attached: materialized (the composed
/// graph, `[k, d²]` `E_α` then `bmm`) against contracted tile by tile
/// (`affine_transfer_distinct`), at the served `d = 48, k = 32` and the
/// paper's `d = 256, k = 128`. Every chain has its own value, so the
/// contracted arm gains nothing from deduplication; `_dup` arms give a
/// third of the chains a value another chain has. Records the peak working
/// memory of one call next to its time.
fn bench_affine(
    c: &mut Criterion,
    allocs: &mut HashMap<String, AllocCounts>,
    peaks: &mut HashMap<String, u64>,
) {
    let mut rng = StdRng::seed_from_u64(6);
    for &(d, k) in &[(48usize, 32usize), (256, 128)] {
        let cfg = ChainsFormerConfig {
            dim: d,
            ..ChainsFormerConfig::default()
        };
        let mut ps = ParamStore::new();
        let enc = ChainEncoder::new(&mut ps, &cfg, ChainVocab::new(2, 2), None, &mut rng);
        let twin = std::sync::Arc::new(cf_tensor::WeightTwin::f32(&ps));
        let e_c = rand_tensor(&[k, d], &mut rng);
        let distinct: Vec<f64> = (0..k).map(|i| i as f64 * 1.7 - 3.0).collect();
        let dup: Vec<f64> = (0..k).map(|i| (i - i / 3) as f64 * 1.7 - 3.0).collect();
        let mut ctx = InferCtx::new();
        ctx.set_weights(twin);
        type Arm<'a> = (&'a str, &'a [f64], bool);
        let arms: [Arm; 3] = [
            ("affine_materialized", &distinct, false),
            ("affine_contracted", &distinct, true),
            ("affine_contracted_dup", &dup, true),
        ];
        let mut outputs = Vec::new();
        for (arm, values, contracted) in arms {
            let run = |ctx: &mut InferCtx| {
                ctx.clear();
                let e = ctx.constant(e_c.clone());
                let v = values.iter().copied();
                let y = if contracted {
                    enc.affine_transfer_distinct(ctx, &ps, e, v)
                } else {
                    enc.affine_transfer(ctx, &ps, e, v)
                };
                black_box(ctx.value(y).data()[0]);
                y
            };
            let name = format!("{arm}/d{d}_k{k}");
            c.bench_function(name.clone(), |bch| bch.iter(|| run(&mut ctx)));
            steady_state_allocs(allocs, &name, || {
                run(&mut ctx);
            });
            let prev = cf_tensor::pool::set_enabled(false);
            ctx.clear();
            let (_, peak) = peak_bytes(|| {
                run(&mut ctx);
            });
            peaks.insert(name, peak);
            cf_tensor::pool::set_enabled(prev);
            let y = run(&mut ctx);
            outputs.push(
                ctx.value(y)
                    .data()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(
            outputs[0], outputs[1],
            "contracted transfer differs at d={d}"
        );
        ctx.clear();
    }
}

/// Forward and forward+backward of a matmul through the tape: measures the
/// backward kernels (dA = G·Bᵀ, dB = Aᵀ·G) on top of the forward.
fn bench_gemm_tape(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let a = rand_tensor(&[64, 64], &mut rng);
    let b = rand_tensor(&[64, 64], &mut rng);
    c.bench_function("gemm_tape/64_fwd_bwd", |bch| {
        bch.iter(|| {
            let mut t = Tape::new();
            let av = t.leaf(a.clone());
            let bv = t.leaf(b.clone());
            let p = t.matmul(av, bv);
            let l = t.mean_all(p);
            black_box(t.backward(l, 0))
        })
    });
}

/// Multi-head attention at the paper shape B=8, T=16, d=64, h=4.
fn bench_attention(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut ps = ParamStore::new();
    let mha = cf_tensor::nn::MultiHeadAttention::new(&mut ps, "a", 64, 4, &mut rng);
    let x = rand_tensor(&[8, 16, 64], &mut rng);
    c.bench_function("attention/fwd_8x16x64h4", |b| {
        b.iter(|| {
            let mut t = Tape::new();
            let xv = t.leaf(x.clone());
            black_box(mha.forward(&mut t, &ps, xv, None))
        })
    });
    c.bench_function("attention/fwd_bwd_8x16x64h4", |b| {
        b.iter(|| {
            let mut t = Tape::new();
            let xv = t.leaf(x.clone());
            let y = mha.forward(&mut t, &ps, xv, None);
            let l = t.mean_all(y);
            black_box(t.backward(l, ps.len()))
        })
    });
}

/// One full train step (forward, loss, backward, Adam update) of the
/// Chain-Encoder-sized Transformer: [B=32 chains, T=6 tokens, d=48], 2
/// layers, 4 heads — the training hot path end to end.
///
/// Three arms share the identical step closure and differ only in buffer
/// policy: `train_step` is the default substrate (pool on — the number the
/// acceptance gate tracks), `train_step_pooled` pins the pool on explicitly,
/// and `train_step_unpooled` disables it, reproducing the pre-PR-4 fresh
/// `Vec` per buffer behaviour as the before/after baseline.
fn bench_train_step(c: &mut Criterion, allocs: &mut HashMap<String, AllocCounts>) {
    let mut rng = StdRng::seed_from_u64(3);
    let mut ps = ParamStore::new();
    let enc = TransformerEncoder::new(&mut ps, "enc", 48, 4, 2, 96, &mut rng);
    let head = Linear::new(&mut ps, "head", 48, 1, &mut rng);
    let x = rand_tensor(&[32, 6, 48], &mut rng);
    let target = rand_tensor(&[32 * 6, 1], &mut rng);
    let mut opt = cf_tensor::optim::Adam::new(1e-3);
    let step = |ps: &mut ParamStore, opt: &mut cf_tensor::optim::Adam| {
        let mut t = Tape::new();
        let xv = t.leaf(x.clone());
        let h = enc.forward(&mut t, ps, xv, None);
        let flat = t.reshape(h, [32 * 6, 48]);
        let pred = head.forward(&mut t, ps, flat);
        let loss = t.mse_loss(pred, &target);
        let grads = t.backward(loss, ps.len());
        opt.step(ps, &grads);
        black_box(t.value(loss).item())
    };
    for (name, pooled) in [
        ("train_step/enc_32x6x48", true),
        ("train_step_pooled/enc_32x6x48", true),
        ("train_step_unpooled/enc_32x6x48", false),
    ] {
        let prev = cf_tensor::pool::set_enabled(pooled);
        c.bench_function(name, |b| b.iter(|| step(&mut ps, &mut opt)));
        steady_state_allocs(allocs, name, || {
            step(&mut ps, &mut opt);
        });
        cf_tensor::pool::set_enabled(prev);
    }
}

/// Thread-scaling arms: the 256³ GEMM and the full train step at pool
/// widths 1/2/4/8. The outputs are bitwise identical at every width (pinned
/// by the `thread_invariance` suites); these rows track what the width buys
/// in wall clock on the host the bench ran on. On a single-core host the
/// widths time-slice one core, so the >1-thread rows measure pool overhead,
/// not speedup — read the ratios together with the host's core count.
fn bench_mt(c: &mut Criterion, allocs: &mut HashMap<String, AllocCounts>) {
    let mut rng = StdRng::seed_from_u64(4);
    let (m, k, n) = (256usize, 256usize, 256usize);
    let a = rand_tensor(&[m, k], &mut rng);
    let b = rand_tensor(&[k, n], &mut rng);

    let mut ps = ParamStore::new();
    let enc = TransformerEncoder::new(&mut ps, "enc", 48, 4, 2, 96, &mut rng);
    let head = Linear::new(&mut ps, "head", 48, 1, &mut rng);
    let x = rand_tensor(&[32, 6, 48], &mut rng);
    let target = rand_tensor(&[32 * 6, 1], &mut rng);
    let mut opt = cf_tensor::optim::Adam::new(1e-3);
    let step = |ps: &mut ParamStore, opt: &mut cf_tensor::optim::Adam| {
        let mut t = Tape::new();
        let xv = t.leaf(x.clone());
        let h = enc.forward(&mut t, ps, xv, None);
        let flat = t.reshape(h, [32 * 6, 48]);
        let pred = head.forward(&mut t, ps, flat);
        let loss = t.mse_loss(pred, &target);
        let grads = t.backward(loss, ps.len());
        opt.step(ps, &grads);
        black_box(t.value(loss).item())
    };

    for threads in [1usize, 2, 4, 8] {
        cf_tensor::pool::set_threads(threads);
        let gemm_name = format!("gemm_mt/{m}x{k}x{n}/t{threads}");
        c.bench_function(gemm_name.clone(), |bch| {
            bch.iter(|| black_box(a.matmul(&b)));
        });
        steady_state_allocs(allocs, &gemm_name, || {
            black_box(a.matmul(&b));
        });
        let step_name = format!("train_step_mt/enc_32x6x48/t{threads}");
        c.bench_function(step_name.clone(), |bch| {
            bch.iter(|| step(&mut ps, &mut opt))
        });
        steady_state_allocs(allocs, &step_name, || {
            step(&mut ps, &mut opt);
        });
    }
    cf_tensor::pool::set_threads(1);
}

/// Pool width a bench arm ran at: the `/tN` suffix of the `_mt` arms, else 1
/// (`main` pins the default arms to a single thread).
fn threads_of(name: &str) -> String {
    name.rsplit_once("/t")
        .and_then(|(_, t)| t.parse::<usize>().ok())
        .unwrap_or(1)
        .to_string()
}

fn main() {
    // Pin the non-_mt arms to one thread so their trajectory stays
    // comparable across hosts regardless of CF_THREADS or core count.
    cf_tensor::pool::set_threads(1);
    let mut c = Criterion::default().sample_size(20);
    let mut allocs: HashMap<String, AllocCounts> = HashMap::new();
    bench_gemm(&mut c, &mut allocs);
    bench_gemm_i8(&mut c, &mut allocs);
    bench_gemm_packed_once(&mut c, &mut allocs);
    let mut peaks: HashMap<String, u64> = HashMap::new();
    bench_affine(&mut c, &mut allocs, &mut peaks);
    bench_gemm_tape(&mut c);
    bench_attention(&mut c);
    bench_train_step(&mut c, &mut allocs);
    bench_mt(&mut c, &mut allocs);

    for (name, a) in {
        let mut rows: Vec<_> = allocs.iter().collect();
        rows.sort_by(|x, y| x.0.cmp(y.0));
        rows
    } {
        println!(
            "{name}: {} allocs / {} frees per step at steady state",
            a.allocs, a.frees
        );
    }

    if std::env::var("CF_BENCH_JSON").is_ok() {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let mut table = Table::new(
            format!(
                "tensor kernel micro-benchmarks (ns per call; host cores: {cores} \
                 — _mt arms time-slice one core when threads exceed cores, so \
                 their ratios measure pool overhead there, not speedup)"
            ),
            &[
                "bench",
                "threads",
                "median_ns",
                "mean_ns",
                "min_ns",
                "samples",
                "allocs_per_step",
                "frees_per_step",
                "peak_scratch_bytes",
            ],
        );
        for s in c.results() {
            let (allocs_col, frees_col) = match allocs.get(&s.name) {
                Some(a) => (a.allocs.to_string(), a.frees.to_string()),
                None => ("-".to_string(), "-".to_string()),
            };
            table.row(vec![
                s.name.clone(),
                threads_of(&s.name),
                format!("{:.0}", s.median_ns),
                format!("{:.0}", s.mean_ns),
                format!("{:.0}", s.min_ns),
                s.samples.to_string(),
                allocs_col,
                frees_col,
                peaks
                    .get(&s.name)
                    .map_or("-".to_string(), |p| p.to_string()),
            ]);
        }
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let path =
            write_json_merged(&table, &dir, "BENCH_tensor", 2).expect("write BENCH_tensor.json");
        println!("wrote {}", path.display());
    }
}
