//! Zero-allocation smoke gate (wired into `ci.sh`).
//!
//! Proves the PR-4 buffer pool holds its contract on the *real model*, not
//! just the kernel microbenches: after warm-up, the numeric substrate does
//! zero heap allocations
//!
//! 1. per **train step** — tape forward + loss + backward + clip + Adam over
//!    a pre-gathered batch of chains (the Algorithm-1 inner loop minus
//!    retrieval, which builds fresh `ChainInstance`s by design and is
//!    outside the pooled substrate);
//! 2. per **served predict** — the tape-free [`InferCtx`] model forward over
//!    pre-resolved chains, exactly what a warm `cf-serve` worker runs per
//!    batch (result materialization into `PredictionDetail`s clones chains
//!    for the explanation payload and is likewise out of scope);
//! 3. per **quantized served predict** — the same forward on an
//!    [`InferCtx`] with an int8 [`QuantizedParamStore`] attached, the
//!    `--quantize int8` serving path (DESIGN.md §15). Quantizing the store
//!    itself allocates once at load/reload time and is outside the loop.
//!
//! Retrieval is not zero-allocation — its output is fresh chains — but it
//! has a budget of its own:
//!
//! 4. per **walk retrieval** — a single [`retrieve`] call at
//!    [`RetrievalConfig::paper`] may allocate at most once per retrieved
//!    chain plus four times for its buffers (DESIGN.md §9.3).
//!
//! Model construction pre-trains the Hyperbolic Filter, and its epochs have
//! a fixed budget whatever the pair count:
//!
//! 5. per **filter pre-training epoch** — one
//!    [`PoincareEmbeddings::train_epoch`] call at the filter's table size
//!    may allocate at most 8 times (DESIGN.md §6.2, §10.2).
//!
//! A warm `cf-serve` worker answers through its pattern cache, so its path
//! gets a gate of its own:
//!
//! 6. per **cached served predict** — [`ChainsFormer::forward_batch`] over
//!    the same batch with every pattern already in the worker's
//!    [`PatternCache`], f32 and int8: the engine's predict path minus the
//!    explanation payload. It may allocate no more than Gate 2's forward.
//!
//! Runs a 2-epoch toy training first so the gate also covers "training still
//! converges end to end with the pool on". Exits non-zero on any violation.

use cf_chains::{retrieve, ChainVocab, Query, RetrievalConfig};
use cf_hyperbolic::PoincareEmbeddings;
use cf_kg::synth::{yago15k_sim, SynthScale};
use cf_kg::Split;
use cf_rand::rngs::StdRng;
use cf_rand::{Rng, SeedableRng};
use cf_tensor::optim::{clip_global_norm, Adam};
use cf_tensor::{Forward, InferCtx, QuantizedParamStore, Tape, Tensor};
use chainsformer::{ChainsFormer, ChainsFormerConfig, PatternCache, ResolvedQuery, Trainer};
use chainsformer_bench::alloc::{measure, CountingAlloc};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let g = yago15k_sim(SynthScale::small(), &mut rng);
    let split = Split::paper_811(&g, &mut rng);
    let visible = split.visible_graph(&g);
    let cfg = ChainsFormerConfig {
        epochs: 2,
        ..ChainsFormerConfig::tiny()
    };
    let mut model = ChainsFormer::new(&visible, &split.train, cfg.clone(), &mut rng);

    // 2-epoch toy run: warms every pool class the model uses and checks
    // training still converges with recycled buffers.
    let result = Trainer::new(&mut model, &visible).train(&split, &mut rng);
    let last = result.epochs.last().expect("epochs ran");
    assert!(
        last.train_loss.is_finite(),
        "toy training diverged: {}",
        last.train_loss
    );

    // Pre-gather one batch of evidence chains (retrieval is outside the
    // measured region — it constructs fresh chains by design).
    let mut batch = Vec::new();
    for t in split.train.iter() {
        let query = Query {
            entity: t.entity,
            attr: t.attr,
        };
        let (toc, _) = model.gather_chains(&visible, query, &mut rng);
        if !toc.is_empty() {
            batch.push((query, toc, t.value));
        }
        if batch.len() >= 8 {
            break;
        }
    }
    assert!(
        batch.len() >= 2,
        "toy graph yielded too few evidence batches"
    );

    // --- Gate 1: steady-state allocations per train step ------------------
    let mut opt = Adam::new(cfg.lr);
    let mut losses = Vec::with_capacity(batch.len());
    let mut train_step = |model: &mut ChainsFormer, opt: &mut Adam| {
        let mut tape = Tape::new();
        losses.clear();
        for (query, toc, value) in &batch {
            let out = model.forward(&mut tape, &toc.chains, *query);
            let pred_norm = model.normalize_on_tape(&mut tape, out.prediction, *query);
            let target = Tensor::scalar(model.normalizer().normalize(query.attr, *value) as f32);
            let loss = tape.l1_loss(pred_norm, &target);
            losses.push(loss);
        }
        let stacked = tape.stack_rows(&losses);
        let batch_loss = tape.mean_all(stacked);
        let mut grads = tape.backward(batch_loss, model.params.len());
        clip_global_norm(&mut grads, cfg.grad_clip);
        opt.step(&mut model.params, &grads);
    };
    for _ in 0..3 {
        train_step(&mut model, &mut opt); // warm-up: pool classes + Adam state
    }
    let steps = 5u64;
    let (_, train_delta) = measure(|| {
        for _ in 0..steps {
            train_step(&mut model, &mut opt);
        }
    });
    let train_allocs = train_delta.allocs / steps;
    println!("train step: {train_allocs} allocs/step at steady state ({steps} steps measured)");

    // --- Gate 2: steady-state allocations per served predict --------------
    let jobs: Vec<(Query, &[cf_chains::ChainInstance])> = batch
        .iter()
        .map(|(q, toc, _)| (*q, toc.chains.as_slice()))
        .collect();
    let mut ctx = InferCtx::new();
    let serve_forward = |ctx: &mut InferCtx| {
        ctx.clear();
        for &(query, chains) in &jobs {
            let out = model.forward(ctx, chains, query);
            std::hint::black_box(ctx.value(out.prediction).item());
        }
    };
    for _ in 0..3 {
        serve_forward(&mut ctx);
    }
    let rounds = 5u64;
    let (_, serve_delta) = measure(|| {
        for _ in 0..rounds {
            serve_forward(&mut ctx);
        }
    });
    let serve_allocs = serve_delta.allocs / rounds;
    println!(
        "served predict: {serve_allocs} allocs/batch at steady state ({rounds} batches of {} jobs)",
        jobs.len()
    );

    // --- Gate 3: steady-state allocations per quantized served predict ----
    let quant = Arc::new(QuantizedParamStore::from_store(&model.params));
    let mut qctx = InferCtx::new();
    qctx.set_weights(Arc::clone(&quant));
    let quant_forward = |qctx: &mut InferCtx| {
        qctx.clear();
        for &(query, chains) in &jobs {
            let out = model.forward(qctx, chains, query);
            std::hint::black_box(qctx.value(out.prediction).item());
        }
    };
    for _ in 0..3 {
        quant_forward(&mut qctx);
    }
    let (_, quant_delta) = measure(|| {
        for _ in 0..rounds {
            quant_forward(&mut qctx);
        }
    });
    let quant_allocs = quant_delta.allocs / rounds;
    println!(
        "quantized served predict: {quant_allocs} allocs/batch at steady state ({rounds} batches of {} jobs)",
        jobs.len()
    );

    // --- Gate 4: allocations per walk retrieval -----------------------------
    // One `rels` vector per kept multi-hop chain, plus the output vector,
    // the dedup table, the path and the relation scratch.
    const RETRIEVE_BUFFERS: u64 = 4;
    const RETRIEVE_CALLS: usize = 32;
    let paper = RetrievalConfig::paper();
    let (mut total_allocs, mut total_retrieved, mut worst_excess) = (0u64, 0u64, 0u64);
    for t in split.train.iter().take(RETRIEVE_CALLS) {
        let query = Query {
            entity: t.entity,
            attr: t.attr,
        };
        let (toc, delta) = measure(|| retrieve(&visible, query, &paper, &mut rng));
        total_allocs += delta.allocs;
        total_retrieved += toc.len() as u64;
        worst_excess = worst_excess.max(delta.allocs.saturating_sub(toc.len() as u64));
    }
    println!(
        "walk retrieval: {total_allocs} allocs for {total_retrieved} retrieved chains over \
         {RETRIEVE_CALLS} calls at num_walks {}; worst call: retrieved + {worst_excess}",
        paper.num_walks
    );

    // --- Gate 5: allocations per filter pre-training epoch -----------------
    // The candidate, sum, softmax and two gradient buffers, allocated once
    // per call; the budget leaves room for three more.
    const EPOCH_ALLOCS: u64 = 8;
    let vocab = ChainVocab::for_graph(&visible);
    let tokens = vocab.num_rel_tokens() + vocab.num_attributes();
    let mut emb = PoincareEmbeddings::new(tokens, cfg.filter_dim, &mut rng);
    let mut epoch_allocs = Vec::new();
    for num_pairs in [1, 64, 4096] {
        let pairs: Vec<(usize, usize)> = (0..num_pairs)
            .map(|_| (rng.gen_range(0..tokens), rng.gen_range(0..tokens)))
            .collect();
        // `ChainFilter::fit`'s negatives and learning rate.
        let (_, delta) = measure(|| emb.train_epoch(&pairs, 5, 0.05, &mut rng));
        epoch_allocs.push((num_pairs, delta.allocs));
    }
    let worst_epoch = epoch_allocs.iter().map(|&(_, a)| a).max().unwrap_or(0);
    println!(
        "filter pre-training: allocs per epoch over {tokens} tokens, by pair count: {}",
        epoch_allocs
            .iter()
            .map(|(p, a)| format!("{p} pairs {a}"))
            .collect::<Vec<_>>()
            .join(", ")
    );

    // --- Gate 6: allocations per served predict through a warm pattern cache
    let resolved: Vec<ResolvedQuery<'_>> = batch
        .iter()
        .map(|(q, toc, _)| (*q, toc.chains.as_slice(), toc.len()))
        .collect();
    let mut cached_allocs = 0;
    for weights in [None, Some(Arc::clone(&quant))] {
        let mut ctx = InferCtx::new();
        ctx.set_weights(weights);
        let mut cache = PatternCache::new();
        let mut cached_forward = || {
            model.forward_batch(&resolved, &mut ctx, &mut cache, |_, ctx, out| {
                std::hint::black_box(ctx.value(out.prediction).item());
            });
        };
        for _ in 0..3 {
            cached_forward(); // the first call fills the cache
        }
        let (_, delta) = measure(|| {
            for _ in 0..rounds {
                cached_forward();
            }
        });
        cached_allocs = cached_allocs.max(delta.allocs / rounds);
    }
    println!(
        "cached served predict: {cached_allocs} allocs/batch at steady state, f32 and int8 \
         ({rounds} batches of {} jobs, every pattern cached)",
        resolved.len()
    );

    let mut failed = false;
    if cached_allocs > serve_allocs {
        eprintln!(
            "FAIL: cached served predict allocated {cached_allocs}/batch, more than the \
             uncached forward's {serve_allocs}"
        );
        failed = true;
    }
    if worst_epoch > EPOCH_ALLOCS {
        eprintln!(
            "FAIL: a filter pre-training epoch allocated {worst_epoch} times \
             (want at most {EPOCH_ALLOCS})"
        );
        failed = true;
    }
    if worst_excess > RETRIEVE_BUFFERS {
        eprintln!(
            "FAIL: a walk retrieval allocated retrieved + {worst_excess} times \
             (want at most retrieved + {RETRIEVE_BUFFERS})"
        );
        failed = true;
    }
    if train_allocs != 0 {
        eprintln!("FAIL: train step allocated at steady state ({train_allocs}/step, want 0)");
        failed = true;
    }
    if serve_allocs != 0 {
        eprintln!("FAIL: served predict allocated at steady state ({serve_allocs}/batch, want 0)");
        failed = true;
    }
    if quant_allocs != 0 {
        eprintln!(
            "FAIL: quantized served predict allocated at steady state ({quant_allocs}/batch, want 0)"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "alloc gate: PASS (0 steady-state allocations per train step and per served predict, \
         f32 and int8, with and without a warm pattern cache; walk retrieval within \
         retrieved + {RETRIEVE_BUFFERS}; filter epochs within {EPOCH_ALLOCS})"
    );
}
