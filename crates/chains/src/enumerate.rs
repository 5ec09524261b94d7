//! Exhaustive chain enumeration: every logic chain the retrieval *could*
//! sample, for exact analyses on small graphs and as ground truth in tests
//! (`retrieve ⊆ enumerate`).

use crate::chain::{ChainInstance, Query, RaChain};
use crate::retrieval::Emitted;
use cf_kg::{for_each_simple_path, GraphView};
use std::ops::ControlFlow;

/// Enumerates every chain instance of at most `max_hops` relation steps for
/// a query: all simple paths from the query entity crossed with every
/// numeric fact at each path's endpoint (plus 0-hop chains over the query
/// entity's own other attributes when `zero_hop` is set). The query's own
/// fact is excluded, mirroring retrieval.
///
/// Multi-hop instances are deduplicated on `(pattern, source)` exactly like
/// retrieval, through the same table: two distinct paths that abstract to
/// the same RA-Chain and end at the same fact are one instance. The raw
/// path×fact count of [`crate::count::exact_chain_count`] is therefore an
/// upper bound on the result size (equal on graphs without parallel path
/// patterns); `cap` bounds memory on dense graphs.
pub fn enumerate_chains(
    graph: &impl GraphView,
    query: Query,
    max_hops: usize,
    zero_hop: bool,
    cap: usize,
) -> Vec<ChainInstance> {
    let mut out = Vec::new();
    if zero_hop {
        for f in graph.numerics_of(query.entity) {
            if f.attr != query.attr {
                out.push(ChainInstance {
                    chain: RaChain {
                        known_attr: f.attr,
                        rels: Vec::new(),
                        query_attr: query.attr,
                    },
                    source: query.entity,
                    value: f.value,
                });
            }
        }
    }
    // Sized for the 0-hop chains already in `out`, which it re-inserts
    // when it grows; no multi-hop chain can equal one of them.
    let mut seen = Emitted::with_capacity(out.len());
    for_each_simple_path(graph, query.entity, max_hops, usize::MAX, |rels, to| {
        for f in graph.numerics_of(to) {
            if out.len() >= cap {
                break;
            }
            seen.push_new(&mut out, query, f.attr, rels, to, f.value);
        }
        if out.len() >= cap {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::exact_chain_count;
    use crate::count::tests::exact_chain_count_reference;
    use crate::retrieval::{retrieve, RetrievalConfig};
    use cf_check::prelude::*;
    use cf_kg::synth::{yago15k_sim, SynthScale};
    use cf_kg::{AttributeId, DirRel, EntityId, KnowledgeGraph, RelationId};
    use cf_rand::rngs::StdRng;
    use cf_rand::SeedableRng;
    use std::collections::HashSet;

    /// [`enumerate_chains`] as first written, with a depth-first search of
    /// its own: `visited` marks the nodes on the current path and a chain is
    /// new unless an equal `(chain, source)` is already in `out`.
    fn enumerate_chains_reference(
        graph: &impl GraphView,
        query: Query,
        max_hops: usize,
        zero_hop: bool,
        cap: usize,
    ) -> Vec<ChainInstance> {
        let mut out = Vec::new();
        if zero_hop {
            for f in graph.numerics_of(query.entity) {
                if f.attr != query.attr {
                    out.push(ChainInstance {
                        chain: RaChain {
                            known_attr: f.attr,
                            rels: Vec::new(),
                            query_attr: query.attr,
                        },
                        source: query.entity,
                        value: f.value,
                    });
                }
            }
        }
        let mut visited = HashSet::from([query.entity]);
        let mut rels = Vec::with_capacity(max_hops);
        descend(
            graph,
            query,
            query.entity,
            max_hops,
            &mut visited,
            &mut rels,
            &mut out,
            cap,
        );
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn descend(
        graph: &impl GraphView,
        query: Query,
        at: EntityId,
        remaining: usize,
        visited: &mut HashSet<EntityId>,
        rels: &mut Vec<DirRel>,
        out: &mut Vec<ChainInstance>,
        cap: usize,
    ) {
        if remaining == 0 || out.len() >= cap {
            return;
        }
        for edge in graph.neighbors(at) {
            if out.len() >= cap {
                return;
            }
            let next = edge.to;
            if visited.contains(&next) {
                continue;
            }
            rels.push(edge.dr);
            for f in graph.numerics_of(next) {
                if next == query.entity && f.attr == query.attr {
                    continue;
                }
                if out.len() >= cap {
                    break;
                }
                let chain = RaChain {
                    known_attr: f.attr,
                    rels: rels.clone(),
                    query_attr: query.attr,
                };
                if !out.iter().any(|c| c.source == next && c.chain == chain) {
                    out.push(ChainInstance {
                        chain,
                        source: next,
                        value: f.value,
                    });
                }
            }
            visited.insert(next);
            descend(graph, query, next, remaining - 1, visited, rels, out, cap);
            visited.remove(&next);
            rels.pop();
        }
    }

    /// A multigraph over `n` entities: edge `(h, t, r)` is the triple
    /// `(h, r, t)` — self-loops and parallel edges included — and entity `i`
    /// carries the `(attribute, value)` facts `facts[i]`, attributes
    /// possibly repeated.
    fn multigraph(
        n: usize,
        edges: &[(usize, usize, usize)],
        facts: &[Vec<(usize, u8)>],
    ) -> KnowledgeGraph {
        let mut g = KnowledgeGraph::new();
        for i in 0..n {
            g.add_entity(format!("e{i}"));
        }
        for r in 0..2 {
            g.add_relation_type(format!("r{r}"));
        }
        for a in 0..3 {
            g.add_attribute_type(format!("a{a}"));
        }
        for &(h, t, r) in edges {
            g.add_triple(EntityId(h as u32), RelationId(r as u32), EntityId(t as u32));
        }
        for (i, fs) in facts.iter().enumerate() {
            for &(a, v) in fs {
                g.add_numeric(
                    EntityId(i as u32),
                    AttributeId(a as u32),
                    f64::from(v) / 2.0,
                );
            }
        }
        g.build_index();
        g
    }

    /// The same chains in the same order, values compared bit for bit.
    fn same_chains(x: &[ChainInstance], y: &[ChainInstance]) -> bool {
        x.len() == y.len()
            && x.iter().zip(y).all(|(a, b)| {
                a.chain == b.chain && a.source == b.source && a.value.to_bits() == b.value.to_bits()
            })
    }

    /// More 0-hop chains than a fresh dedup table has slots: the table is
    /// sized for them and grows past them, and the result is still the
    /// reference enumeration.
    #[test]
    fn many_zero_hop_chains_match_reference() {
        let own = (0..60).map(|i| (1 + i % 2, i as u8)).collect();
        let facts = [own, vec![(0, 1), (1, 2)], vec![(2, 3)]];
        let g = multigraph(3, &[(0, 1, 0), (1, 2, 1), (0, 2, 0)], &facts);
        let q = Query {
            entity: EntityId(0),
            attr: AttributeId(0),
        };
        let got = enumerate_chains(&g, q, 2, true, usize::MAX);
        let want = enumerate_chains_reference(&g, q, 2, true, usize::MAX);
        assert_eq!(got.iter().filter(|c| c.chain.hops() == 0).count(), 60);
        assert!(same_chains(&got, &want), "{got:?}\nvs\n{want:?}");
    }

    /// `exact_chain_count` and `enumerate_chains` on the shared walk are
    /// the depth-first searches they replaced — the same count, and the
    /// same chains in the same order with the same value bits — on random
    /// multigraphs at every hop budget from 0 to 4, with and without 0-hop
    /// chains, uncapped and under caps of 0, 1 and values that bind.
    #[test]
    fn count_and_enumeration_match_reference() {
        const N: usize = 8;
        let early_stops = std::cell::Cell::new(0u32);
        let strategy = (
            vec((0..N, 0..N, 0usize..2), 0..24),
            vec(vec((0usize..3, 0u8..4), 0..=5), N),
            (0..N, 0u32..3, 0usize..=4, 0u8..2),
        );
        cf_check::runner::run(
            concat!(module_path!(), "::count_and_enumeration_match_reference"),
            Config::with_cases(128),
            strategy,
            |(edges, facts, (entity, attr, max_hops, zero_hop))| {
                let g = multigraph(N, &edges, &facts);
                let entity = EntityId(entity as u32);
                let full = exact_chain_count_reference(&g, entity, max_hops, u64::MAX);
                for cap in [0, 1, full / 2, full.saturating_sub(1), full, u64::MAX] {
                    let want = exact_chain_count_reference(&g, entity, max_hops, cap);
                    check_assert_eq!(exact_chain_count(&g, entity, max_hops, cap), want);
                    if want < full {
                        early_stops.set(early_stops.get() + 1);
                    }
                }

                let query = Query {
                    entity,
                    attr: AttributeId(attr),
                };
                let zero_hop = zero_hop == 1;
                let all = enumerate_chains_reference(&g, query, max_hops, zero_hop, usize::MAX);
                let n = all.len();
                for cap in [0, 1, n / 2, n.saturating_sub(1), n, usize::MAX] {
                    let got = enumerate_chains(&g, query, max_hops, zero_hop, cap);
                    let want = enumerate_chains_reference(&g, query, max_hops, zero_hop, cap);
                    check_assert!(
                        same_chains(&got, &want),
                        "enumeration differs at cap {cap}:\n got {got:?}\nwant {want:?}"
                    );
                    if want.len() < n {
                        early_stops.set(early_stops.get() + 1);
                    }
                }
                Ok(())
            },
        );
        assert!(early_stops.get() > 0, "no cap ever stopped a walk early");
    }

    fn path_graph() -> (KnowledgeGraph, Vec<EntityId>, AttributeId) {
        let mut g = KnowledgeGraph::new();
        let es: Vec<_> = (0..4).map(|i| g.add_entity(format!("e{i}"))).collect();
        let r = g.add_relation_type("r");
        let a = g.add_attribute_type("a");
        for w in es.windows(2) {
            g.add_triple(w[0], r, w[1]);
        }
        for (i, &e) in es.iter().enumerate() {
            g.add_numeric(e, a, i as f64);
        }
        g.build_index();
        (g, es, a)
    }

    #[test]
    fn enumeration_matches_exact_count() {
        let (g, es, a) = path_graph();
        let q = Query {
            entity: es[0],
            attr: a,
        };
        for hops in 1..=3 {
            let chains = enumerate_chains(&g, q, hops, false, usize::MAX);
            let count = exact_chain_count(&g, es[0], hops, u64::MAX);
            // On a simple path graph every path pattern is unique, so the
            // deduplicated enumeration equals the raw path×fact count.
            assert_eq!(chains.len() as u64, count, "mismatch at {hops} hops");
        }
    }

    #[test]
    fn enumeration_is_duplicate_free() {
        let mut rng = StdRng::seed_from_u64(0);
        let g = yago15k_sim(SynthScale::small(), &mut rng);
        let fact = g
            .numerics()
            .iter()
            .find(|t| g.degree(t.entity) > 1)
            .unwrap();
        let q = Query {
            entity: fact.entity,
            attr: fact.attr,
        };
        let chains = enumerate_chains(&g, q, 2, true, 100_000);
        let mut keys: Vec<String> = chains
            .iter()
            .map(|c| format!("{:?}|{:?}", c.chain, c.source))
            .collect();
        let n = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), n, "duplicate chains enumerated");
    }

    #[test]
    fn retrieval_is_a_subset_of_enumeration() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = yago15k_sim(SynthScale::small(), &mut rng);
        let fact = g
            .numerics()
            .iter()
            .find(|t| g.degree(t.entity) > 1)
            .unwrap();
        let q = Query {
            entity: fact.entity,
            attr: fact.attr,
        };
        let all = enumerate_chains(&g, q, 3, true, usize::MAX);
        let keys: std::collections::HashSet<String> = all
            .iter()
            .map(|c| format!("{:?}|{:?}", c.chain, c.source))
            .collect();
        let toc = retrieve(
            &g,
            q,
            &RetrievalConfig {
                num_walks: 64,
                ..Default::default()
            },
            &mut rng,
        );
        for c in &toc.chains {
            let key = format!("{:?}|{:?}", c.chain, c.source);
            assert!(
                keys.contains(&key),
                "retrieved chain not in exhaustive set: {key}"
            );
        }
    }

    #[test]
    fn cap_bounds_output() {
        let (g, es, a) = path_graph();
        let q = Query {
            entity: es[0],
            attr: a,
        };
        assert_eq!(enumerate_chains(&g, q, 3, false, 2).len(), 2);
    }

    #[test]
    fn excludes_query_fact() {
        let (g, es, a) = path_graph();
        let q = Query {
            entity: es[0],
            attr: a,
        };
        for c in enumerate_chains(&g, q, 3, true, usize::MAX) {
            assert!(!(c.source == q.entity && c.chain.known_attr == q.attr));
        }
    }
}
