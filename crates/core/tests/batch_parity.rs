//! Bitwise parity pins for the tape-free serving path:
//!
//! 1. the tape-free forward ([`cf_tensor::InferCtx`]) is bit-equal to the
//!    taped forward at the full model shape;
//! 2. a batch of `B` queries, gathered with `gather_chains` and predicted in
//!    one `predict_batch_with_chains` call (the path serving and cfbench's
//!    oracle run), is bit-identical to `B` sequential `predict`s.
//!
//! These are the contracts the serving engine relies on: batching and tape
//! elimination are pure performance moves, never accuracy moves.

use cf_chains::Query;
use cf_kg::synth::{yago15k_sim, SynthScale};
use cf_kg::Split;
use cf_rand::rngs::StdRng;
use cf_rand::SeedableRng;
use cf_tensor::{Forward, InferCtx, Tape};
use chainsformer::{ChainsFormer, ChainsFormerConfig};

fn setup() -> (cf_kg::KnowledgeGraph, Split, ChainsFormer) {
    let mut rng = StdRng::seed_from_u64(17);
    let g = yago15k_sim(SynthScale::small(), &mut rng);
    let split = Split::paper_811(&g, &mut rng);
    let visible = split.visible_graph(&g);
    let model = ChainsFormer::new(&visible, &split.train, ChainsFormerConfig::tiny(), &mut rng);
    (visible, split, model)
}

#[test]
fn tape_free_forward_is_bitwise_equal_to_taped() {
    let (visible, split, model) = setup();
    let mut checked = 0;
    for t in split.test.iter().take(8) {
        let q = Query {
            entity: t.entity,
            attr: t.attr,
        };
        // Same rng state for both gathers so both paths see the same chains.
        let mut rng_a = StdRng::seed_from_u64(170);
        let mut rng_b = StdRng::seed_from_u64(170);
        let (toc_a, _) = model.gather_chains(&visible, q, &mut rng_a);
        let (toc_b, _) = model.gather_chains(&visible, q, &mut rng_b);
        if toc_a.is_empty() {
            continue;
        }
        let mut tape = Tape::new();
        let taped = model.forward(&mut tape, &toc_a.chains, q);
        let mut ctx = InferCtx::new();
        let free = model.forward(&mut ctx, &toc_b.chains, q);
        assert_eq!(
            tape.value(taped.prediction).item().to_bits(),
            ctx.value(free.prediction).item().to_bits(),
            "prediction bits diverged for {q:?}"
        );
        assert_eq!(
            tape.value(taped.weights)
                .data()
                .iter()
                .map(|w| w.to_bits())
                .collect::<Vec<_>>(),
            ctx.value(free.weights)
                .data()
                .iter()
                .map(|w| w.to_bits())
                .collect::<Vec<_>>(),
            "weights diverged for {q:?}"
        );
        assert_eq!(
            tape.value(taped.chain_predictions)
                .data()
                .iter()
                .map(|p| p.to_bits())
                .collect::<Vec<_>>(),
            ctx.value(free.chain_predictions)
                .data()
                .iter()
                .map(|p| p.to_bits())
                .collect::<Vec<_>>(),
            "chain predictions diverged for {q:?}"
        );
        checked += 1;
    }
    assert!(
        checked >= 3,
        "only {checked} non-fallback queries exercised"
    );
}

#[test]
fn predict_batch_bitwise_matches_sequential_predicts() {
    let (visible, split, model) = setup();
    let queries: Vec<Query> = split
        .test
        .iter()
        .take(6)
        .map(|t| Query {
            entity: t.entity,
            attr: t.attr,
        })
        .collect();

    let mut rng_seq = StdRng::seed_from_u64(1717);
    let sequential: Vec<_> = queries
        .iter()
        .map(|&q| model.predict(&visible, q, &mut rng_seq))
        .collect();

    // Retrieval runs first, query by query, consuming the rng exactly as
    // the sequential predicts did; the encoder then runs once over every
    // query's chains.
    let mut rng_batch = StdRng::seed_from_u64(1717);
    let gathered: Vec<_> = queries
        .iter()
        .map(|&q| model.gather_chains(&visible, q, &mut rng_batch))
        .collect();
    let jobs: Vec<_> = queries
        .iter()
        .zip(&gathered)
        .map(|(&q, (toc, retrieved))| (q, toc.chains.as_slice(), *retrieved))
        .collect();
    let batched = model.predict_batch_with_chains(&jobs);

    assert_eq!(batched.len(), sequential.len());
    let mut evidenced = 0;
    for (s, b) in sequential.iter().zip(&batched) {
        assert_eq!(s.query, b.query);
        assert_eq!(s.used_fallback, b.used_fallback);
        assert_eq!(s.retrieved, b.retrieved);
        assert_eq!(
            s.value.to_bits(),
            b.value.to_bits(),
            "value bits diverged for {:?}",
            s.query
        );
        assert_eq!(s.chains.len(), b.chains.len());
        for (cs, cb) in s.chains.iter().zip(&b.chains) {
            assert_eq!(cs.weight.to_bits(), cb.weight.to_bits());
            assert_eq!(cs.prediction.to_bits(), cb.prediction.to_bits());
            assert_eq!(cs.known_value.to_bits(), cb.known_value.to_bits());
            assert_eq!(cs.source, cb.source);
        }
        if !s.used_fallback {
            evidenced += 1;
        }
    }
    assert!(
        evidenced >= 2,
        "only {evidenced} evidence-backed predictions"
    );
}
