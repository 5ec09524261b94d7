//! Property-based invariants of the chain machinery.

use cf_chains::{
    exact_chain_count, retrieve, ChainInstance, ChainVocab, Query, RaChain, RetrievalConfig,
    TreeOfChains,
};
use cf_check::prelude::*;
use cf_kg::{AttributeId, DirRel, EntityId, GraphView, KnowledgeGraph, RelationId};
use cf_rand::rngs::StdRng;
use cf_rand::seq::SliceRandom;
use cf_rand::{Rng, SeedableRng, SnapshotRng};

fn build(n: usize, edges: &[(usize, usize)], facts: &[usize]) -> KnowledgeGraph {
    let facts: Vec<(usize, usize)> = facts.iter().map(|&e| (e, 0)).collect();
    build_with(n, 1, 1, edges, &facts)
}

/// `n` entities; edge `i` uses relation `i % rels`; fact `(e, a)` puts
/// attribute `a % attrs` on entity `e % n`. With one relation and one
/// attribute this is [`build`].
fn build_with(
    n: usize,
    rels: usize,
    attrs: usize,
    edges: &[(usize, usize)],
    facts: &[(usize, usize)],
) -> KnowledgeGraph {
    let mut g = KnowledgeGraph::new();
    for i in 0..n {
        g.add_entity(format!("e{i}"));
    }
    let rs: Vec<RelationId> = (0..rels)
        .map(|i| g.add_relation_type(format!("r{i}")))
        .collect();
    let attr_ids: Vec<AttributeId> = (0..attrs)
        .map(|i| g.add_attribute_type(format!("a{i}")))
        .collect();
    for (i, &(h, t)) in edges.iter().enumerate() {
        let (h, t) = (h % n, t % n);
        if h != t {
            g.add_triple(EntityId(h as u32), rs[i % rels], EntityId(t as u32));
        }
    }
    for &(e, a) in facts {
        let (e, a) = (e % n, a % attrs);
        g.add_numeric(EntityId(e as u32), attr_ids[a], e as f64 + a as f64 / 4.0);
    }
    g.build_index();
    g
}

/// Retrieval as first written: a fresh `rels` per attempt and a
/// `HashSet` of cloned `(chain, source)` keys. [`retrieve`] must return the
/// same chains in the same order and leave the RNG in the same state.
fn retrieve_reference(
    graph: &impl GraphView,
    query: Query,
    cfg: &RetrievalConfig,
    rng: &mut impl Rng,
) -> TreeOfChains {
    let mut chains = Vec::with_capacity(cfg.num_walks);
    let mut seen = std::collections::HashSet::new();
    let max_attempts = cfg.num_walks * cfg.max_attempts_factor;
    let mut attempts = 0;

    if cfg.allow_zero_hop {
        for f in graph.numerics_of(query.entity) {
            if f.attr == query.attr {
                continue;
            }
            let chain = RaChain {
                known_attr: f.attr,
                rels: Vec::new(),
                query_attr: query.attr,
            };
            if seen.insert((chain.clone(), query.entity)) {
                chains.push(ChainInstance {
                    chain,
                    source: query.entity,
                    value: f.value,
                });
            }
        }
    }

    let mut path: Vec<EntityId> = Vec::with_capacity(cfg.max_hops + 1);
    while chains.len() < cfg.num_walks && attempts < max_attempts {
        attempts += 1;
        path.clear();
        path.push(query.entity);
        let mut rels = Vec::with_capacity(cfg.max_hops);
        let mut current = query.entity;
        let target_hops = rng.gen_range(1..=cfg.max_hops);
        for _ in 0..target_hops {
            let edges = graph.neighbors(current);
            if edges.is_empty() {
                break;
            }
            let mut next = None;
            for _ in 0..4 {
                let e = edges.choose(rng).expect("non-empty");
                if !path.contains(&e.to) {
                    next = Some(*e);
                    break;
                }
            }
            let Some(edge) = next else { break };
            rels.push(edge.dr);
            current = edge.to;
            path.push(current);

            let facts = graph.numerics_of(current);
            if facts.is_empty() {
                continue;
            }
            let f = *facts.choose(rng).expect("non-empty");
            if current == query.entity && f.attr == query.attr {
                continue;
            }
            let chain = RaChain {
                known_attr: f.attr,
                rels: rels.clone(),
                query_attr: query.attr,
            };
            if seen.insert((chain.clone(), current)) {
                chains.push(ChainInstance {
                    chain,
                    source: current,
                    value: f.value,
                });
                if chains.len() >= cfg.num_walks {
                    break;
                }
            }
        }
    }
    TreeOfChains { query, chains }
}

/// Runs [`retrieve`] and [`retrieve_reference`] from the same seed and
/// requires bitwise-equal trees and RNG states.
fn same_as_reference(
    g: &KnowledgeGraph,
    query: Query,
    cfg: &RetrievalConfig,
    seed: u64,
) -> CaseResult {
    let mut a = StdRng::seed_from_u64(seed);
    let mut b = StdRng::seed_from_u64(seed);
    let got = retrieve(g, query, cfg, &mut a);
    let want = retrieve_reference(g, query, cfg, &mut b);
    check_assert_eq!(got.query, want.query);
    check_assert_eq!(got.len(), want.len());
    for (i, (x, y)) in got.chains.iter().zip(&want.chains).enumerate() {
        check_assert!(
            x.chain == y.chain && x.source == y.source && x.value.to_bits() == y.value.to_bits(),
            "chain {i} differs: {x:?} vs {y:?}"
        );
    }
    check_assert_eq!(a.state_words(), b.state_words());
    Ok(())
}

property! {
    #![config(cases = 48)]

    /// Chain counting is monotone in the hop budget.
    #[test]
    fn chain_count_monotone_in_hops(
        edges in vec((0usize..10, 0usize..10), 1..30),
        facts in vec(0usize..10, 1..10),
    ) {
        let g = build(10, &edges, &facts);
        let mut last = 0;
        for h in 1..=4 {
            let c = exact_chain_count(&g, EntityId(0), h, 1_000_000);
            check_assert!(c >= last, "count dropped from {last} to {c} at {h} hops");
            last = c;
        }
    }

    /// Retrieval returns a subset of what exact counting says exists:
    /// if the exact count is zero, retrieval must be empty too (modulo
    /// 0-hop chains, disabled here).
    #[test]
    fn retrieval_agrees_with_counting(
        edges in vec((0usize..8, 0usize..8), 0..20),
        facts in vec(0usize..8, 1..8),
        seed in 0u64..100,
    ) {
        let g = build(8, &edges, &facts);
        let exact = exact_chain_count(&g, EntityId(0), 3, 1_000_000);
        let mut rng = cf_rand::rngs::StdRng::seed_from_u64(seed);
        let cfg = RetrievalConfig { num_walks: 64, max_hops: 3, allow_zero_hop: false, ..Default::default() };
        let toc = retrieve(&g, Query { entity: EntityId(0), attr: AttributeId(0) }, &cfg, &mut rng);
        if exact == 0 {
            // Only the query's own other-attribute facts could exist, and
            // zero-hop is off — with a single attribute there are none.
            check_assert!(toc.is_empty(), "retrieved {} chains where none exist", toc.len());
        }
        check_assert!((toc.len() as u64) <= exact.max(64), "retrieved more than exists");
    }

    /// `retrieve` is the reference walk, chain for chain and draw for draw,
    /// at every hop budget, walk count and attempt factor, with and
    /// without 0-hop chains.
    #[test]
    fn retrieve_matches_reference(
        edges in vec((0usize..12, 0usize..12), 0..40),
        facts in vec((0usize..12, 0usize..3), 1..30),
        max_hops in 1usize..=5,
        walks in (1usize..=300, 1usize..=4),
        zero_hop in 0u8..2,
        seed in 0u64..1000,
    ) {
        let g = build_with(12, 2, 3, &edges, &facts);
        let (num_walks, max_attempts_factor) = walks;
        let cfg = RetrievalConfig {
            num_walks,
            max_hops,
            allow_zero_hop: zero_hop == 1,
            max_attempts_factor,
        };
        for entity in [0, 1] {
            let query = Query { entity: EntityId(entity), attr: AttributeId(0) };
            same_as_reference(&g, query, &cfg, seed)?;
        }
    }

    /// An entity with more usable numeric facts than `num_walks` overfills
    /// the dedup table in the 0-hop pass, so it has to grow; the result is
    /// still the reference walk. Repeated facts exercise 0-hop dedup.
    #[test]
    fn retrieve_matches_reference_past_table_capacity(
        attrs in 20usize..80,
        repeats in vec(0usize..80, 0..20),
        edges in vec((0usize..6, 0usize..6), 0..12),
        num_walks in 1usize..=8,
        seed in 0u64..1000,
    ) {
        let mut facts: Vec<(usize, usize)> = (0..attrs).map(|a| (0, a)).collect();
        facts.extend(repeats.iter().map(|&a| (0, a)));
        facts.extend((1..6).map(|e| (e, e)));
        let g = build_with(6, 2, attrs, &edges, &facts);
        let cfg = RetrievalConfig { num_walks, ..RetrievalConfig::default() };
        let query = Query { entity: EntityId(0), attr: AttributeId(0) };
        same_as_reference(&g, query, &cfg, seed)?;
        // At least 19 0-hop chains: past the 8 that the first 16 slots hold.
        let len = retrieve(&g, query, &cfg, &mut StdRng::seed_from_u64(seed)).len();
        check_assert_eq!(len, attrs - 1);
    }

    /// Vocabulary tokens are dense and reversible for any (R, A) size.
    #[test]
    fn vocab_tokens_dense(rels in 1usize..20, attrs in 1usize..20) {
        let v = ChainVocab::new(rels, attrs);
        let mut seen = std::collections::HashSet::new();
        for r in 0..rels as u32 {
            seen.insert(v.rel_token(DirRel::forward(RelationId(r))));
            seen.insert(v.rel_token(DirRel::inverse(RelationId(r))));
        }
        for a in 0..attrs as u32 {
            seen.insert(v.attr_token(AttributeId(a)));
        }
        seen.insert(v.end_token());
        seen.insert(v.pad_token());
        check_assert_eq!(seen.len(), v.size());
        check_assert_eq!(seen.iter().max().copied().unwrap(), v.size() - 1);
    }

    /// Tokens of a chain always frame with [attr, …, attr, end] and every
    /// interior token is a relation token.
    #[test]
    fn chain_token_framing(hops in 0usize..5, rels in 1usize..4, attrs in 1usize..4) {
        let v = ChainVocab::new(rels, attrs);
        let chain = cf_chains::RaChain {
            known_attr: AttributeId(0),
            rels: (0..hops).map(|i| DirRel::forward(RelationId((i % rels) as u32))).collect(),
            query_attr: AttributeId((attrs - 1) as u32),
        };
        let mut toks = vec![0; chain.token_len()];
        chain.tokens_into_slice(&v, &mut toks);
        check_assert_eq!(toks.len(), hops + 3);
        check_assert!(toks[0] >= 2 * rels && toks[0] < 2 * rels + attrs, "first token not an attr");
        check_assert_eq!(toks[toks.len() - 1], v.end_token());
        for &t in &toks[1..toks.len() - 2] {
            check_assert!(t < 2 * rels, "interior token {t} not a relation");
        }
    }
}
