//! Bitwise parity pins for the tape-free serving path:
//!
//! 1. the tape-free forward ([`cf_tensor::InferCtx`]) is bit-equal to the
//!    taped forward at the full model shape;
//! 2. a batch of `B` queries, gathered with `gather_chains` and predicted in
//!    one `predict_batch_with_chains` call (the path serving and cfbench's
//!    oracle run), is bit-identical to `B` sequential `predict`s;
//! 3. a batch predicted through a [`PatternCache`] — empty, warmed by other
//!    queries, warmed by the same ones, or just emptied at its budget — is
//!    bit-identical to each query's uncached `forward` on a fresh context,
//!    with no weight twin, with the f32 twin (against a fresh context
//!    without one) and with the int8 twin, including batches whose chains
//!    repeat values across patterns and queries (the affine transfer runs
//!    once per distinct value).
//!
//! These are the contracts the serving engine relies on: batching, tape
//! elimination and pattern caching are pure performance moves, never
//! accuracy moves.

use cf_chains::{ChainInstance, Query, RaChain};
use cf_check::prelude::*;
use cf_kg::synth::{yago15k_sim, SynthScale};
use cf_kg::{AttributeId, Dir, DirRel, EntityId, RelationId, Split};
use cf_rand::rngs::StdRng;
use cf_rand::SeedableRng;
use cf_tensor::{Forward, InferCtx, Tape, WeightTwin};
use chainsformer::{ChainsFormer, ChainsFormerConfig, PatternCache, ResolvedQuery};
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

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

/// The served configuration's model (d = 48, two layers) and its f32 and
/// int8 twins, built once for every case.
type Served = (ChainsFormer, Arc<WeightTwin>, Arc<WeightTwin>);

fn served_model() -> &'static Served {
    static MODEL: OnceLock<Served> = OnceLock::new();
    MODEL.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(29);
        let g = yago15k_sim(SynthScale::small(), &mut rng);
        let split = Split::paper_811(&g, &mut rng);
        let visible = split.visible_graph(&g);
        let model = ChainsFormer::new(
            &visible,
            &split.train,
            ChainsFormerConfig::default(),
            &mut rng,
        );
        let f32_twin = Arc::new(WeightTwin::f32(&model.params));
        let int8_twin = Arc::new(WeightTwin::int8(&model.params));
        (model, f32_twin, int8_twin)
    })
}

/// A pattern of the model's vocabulary from drawn numbers: up to
/// `max_hops` steps, each relation and direction taken from a byte of
/// `steps`.
fn pattern(model: &ChainsFormer, (hops, steps, attrs): (usize, u32, u32)) -> RaChain {
    let v = model.vocab();
    let (nr, na) = (v.num_relations() as u32, v.num_attributes() as u32);
    RaChain {
        known_attr: AttributeId(attrs % na),
        rels: (0..hops % (model.cfg.setting.max_hops + 1))
            .map(|h| {
                let b = steps >> (8 * h);
                DirRel {
                    rel: RelationId((b >> 1) % nr),
                    dir: if b & 1 == 0 {
                        Dir::Forward
                    } else {
                        Dir::Inverse
                    },
                }
            })
            .collect(),
        query_attr: AttributeId((attrs / na) % na),
    }
}

/// Chains picking patterns from `pool` (index modulo its length), cut into
/// queries of `cuts` chains each in turn, after one query with no chains
/// when `empty_first`.
fn jobs_of(
    pool: &[RaChain],
    picks: &[(usize, f64)],
    cuts: &[usize],
    empty_first: bool,
) -> Vec<(Query, Vec<ChainInstance>)> {
    let query = |i: usize| Query {
        entity: EntityId(i as u32),
        attr: AttributeId(0),
    };
    let mut jobs = Vec::new();
    if empty_first {
        jobs.push((query(0), Vec::new()));
    }
    let mut rest = picks;
    while !rest.is_empty() {
        let take = cuts[jobs.len() % cuts.len()].min(rest.len());
        let chains = rest[..take]
            .iter()
            .map(|&(p, value)| ChainInstance {
                chain: pool[p % pool.len()].clone(),
                source: EntityId(p as u32),
                value,
            })
            .collect();
        jobs.push((query(jobs.len()), chains));
        rest = &rest[take..];
    }
    jobs
}

fn patterns_of(jobs: &[(Query, Vec<ChainInstance>)]) -> HashSet<RaChain> {
    jobs.iter()
        .flat_map(|(_, c)| c.iter().map(|c| c.chain.clone()))
        .collect()
}

/// Predicts `jobs` through `cache` and requires every query's value,
/// chain weights and chain predictions to carry the bits of its uncached
/// `forward` on a fresh context with `reference` attached: the same int8
/// twin as `ctx`, or none when `ctx` carries the f32 twin or none.
fn check_cached(
    jobs: &[(Query, Vec<ChainInstance>)],
    reference: Option<&Arc<WeightTwin>>,
    ctx: &mut InferCtx,
    cache: &mut PatternCache,
) -> CaseResult {
    let model = &served_model().0;
    let view: Vec<ResolvedQuery<'_>> = jobs
        .iter()
        .map(|(q, chains)| (*q, chains.as_slice(), chains.len()))
        .collect();
    let got = model.predict_batch_cached(&view, ctx, cache);
    check_assert_eq!(got.len(), jobs.len());
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for ((q, chains), d) in jobs.iter().zip(&got) {
        check_assert_eq!(d.used_fallback, chains.is_empty());
        if chains.is_empty() {
            continue;
        }
        let mut fresh = InferCtx::new();
        fresh.set_weights(reference.cloned());
        let out = model.forward(&mut fresh, chains, *q);
        let want = fresh.value(out.prediction).item() as f64;
        check_assert!(d.value.to_bits() == want.to_bits(), "value of {q:?}");
        let weights: Vec<f32> = d.chains.iter().map(|c| c.weight).collect();
        let preds: Vec<f32> = d.chains.iter().map(|c| c.prediction).collect();
        check_assert_eq!(bits(&weights), bits(fresh.value(out.weights).data()));
        check_assert_eq!(
            bits(&preds),
            bits(fresh.value(out.chain_predictions).data())
        );
    }
    Ok(())
}

property! {
    #![config(cases = 24)]

    /// Cached predict equals uncached predict bit for bit, at every cache
    /// state, with no twin, the f32 twin and the int8 twin; and the cache
    /// encodes exactly the batch's distinct patterns it lacks, counting
    /// every other chain row as cached. In half the cases the chains' values
    /// come from a pool of a few, so they repeat across patterns and
    /// queries.
    #[test]
    fn cached_predict_equals_uncached_forward(
        pool in vec((0usize..4, 0u32..u32::MAX, 0u32..4096), 1..12),
        other in vec((0usize..4, 0u32..u32::MAX, 0u32..4096), 1..12),
        picks in vec((0usize..64, -1e6f64..1e6), 1..=64),
        warm_picks in vec((0usize..64, -1e6f64..1e6), 1..=32),
        cuts in vec(1usize..20, 1..6),
        flags in (0usize..3, 0usize..2, vec(-1e6f64..1e6, 1..5)),
    ) {
        let (empty_first, shared_values, values) = flags;
        let (model, f32_twin, int8_twin) = served_model();
        let share = |picks: Vec<(usize, f64)>| -> Vec<(usize, f64)> {
            if shared_values == 0 {
                return picks;
            }
            picks
                .into_iter()
                .enumerate()
                .map(|(i, (p, _))| (p, values[(i * 7 + p) % values.len()]))
                .collect()
        };
        let (picks, warm_picks) = (share(picks), share(warm_picks));
        let pool: Vec<RaChain> = pool.into_iter().map(|p| pattern(model, p)).collect();
        let other: Vec<RaChain> = other.into_iter().map(|p| pattern(model, p)).collect();
        let jobs = jobs_of(&pool, &picks, &cuts, empty_first == 0);
        // Other queries: patterns of this batch's pool and of another.
        let mixed: Vec<RaChain> = pool.iter().chain(&other).cloned().collect();
        let warm = jobs_of(&mixed, &warm_picks, &cuts, false);
        let (want, warm_set) = (patterns_of(&jobs), patterns_of(&warm));
        let rows = picks.len() as u64;
        let distinct = want.len() as u64;
        let lacking = want.difference(&warm_set).count() as u64;
        let row_bytes = model.cfg.dim * std::mem::size_of::<f32>();
        for (twin, reference) in [
            (None, None),
            (Some(f32_twin), None),
            (Some(int8_twin), Some(int8_twin)),
        ] {
            let mut ctx = InferCtx::new();
            ctx.set_weights(twin.cloned());

            // Empty.
            let mut cache = PatternCache::new();
            check_cached(&jobs, reference, &mut ctx, &mut cache)?;
            check_assert_eq!(cache.take_counts(), (rows - distinct, distinct));
            // Warmed by the same queries.
            check_cached(&jobs, reference, &mut ctx, &mut cache)?;
            check_assert_eq!(cache.take_counts(), (rows, 0));

            // Warmed by other queries.
            let mut cache = PatternCache::new();
            check_cached(&warm, reference, &mut ctx, &mut cache)?;
            cache.take_counts();
            check_cached(&jobs, reference, &mut ctx, &mut cache)?;
            check_assert_eq!(cache.take_counts(), (rows - lacking, lacking));

            // A budget the warm batch fills: the first pattern it lacks
            // empties the cache, which then holds this batch alone.
            let mut cache = PatternCache::with_budget(warm_set.len() * row_bytes);
            check_cached(&warm, reference, &mut ctx, &mut cache)?;
            check_assert_eq!(cache.len(), warm_set.len());
            cache.take_counts();
            check_cached(&jobs, reference, &mut ctx, &mut cache)?;
            let (held, encoded) = if lacking > 0 {
                (want.len(), distinct)
            } else {
                (warm_set.len(), 0)
            };
            check_assert_eq!(cache.take_counts(), (rows - encoded, encoded));
            check_assert_eq!(cache.len(), held);
        }
    }
}
