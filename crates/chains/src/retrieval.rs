//! Query-guided retrieval: random walks building the Tree of Chains
//! (§IV-B, Eq. 6).

use crate::chain::{ChainInstance, Query, RaChain};
use cf_kg::{AttributeId, ChainIndexView, DirRel, EntityId, GraphView};
use cf_rand::seq::SliceRandom;
use cf_rand::Rng;

/// Retrieval hyperparameters.
#[derive(Copy, Clone, Debug)]
pub struct RetrievalConfig {
    /// Number of random walks `N_s` (the paper uses 2048).
    pub num_walks: usize,
    /// Maximum walk length `l` (the paper uses 3).
    pub max_hops: usize,
    /// Whether 0-hop chains (other attributes of the query entity itself)
    /// may be emitted.
    pub allow_zero_hop: bool,
    /// Hard cap on retrieval attempts per query, to bound work on
    /// disconnected entities.
    pub max_attempts_factor: usize,
}

impl Default for RetrievalConfig {
    fn default() -> Self {
        RetrievalConfig {
            num_walks: 256,
            max_hops: 3,
            allow_zero_hop: true,
            max_attempts_factor: 4,
        }
    }
}

impl RetrievalConfig {
    /// The paper's full-scale setting (substitution S5 scales this down by
    /// default).
    pub fn paper() -> Self {
        RetrievalConfig {
            num_walks: 2048,
            max_hops: 3,
            allow_zero_hop: true,
            max_attempts_factor: 4,
        }
    }
}

/// The Tree of Chains for one query: retrieved chain instances plus the
/// query itself (Eq. 6).
#[derive(Clone, Debug)]
pub struct TreeOfChains {
    /// The query this tree was retrieved for.
    pub query: Query,
    /// Retrieved chain instances (Eq. 6's union).
    pub chains: Vec<ChainInstance>,
}

impl TreeOfChains {
    /// Number of retrieved chains.
    pub fn len(&self) -> usize {
        self.chains.len()
    }

    /// True when no chains were retrievable.
    pub fn is_empty(&self) -> bool {
        self.chains.is_empty()
    }
}

/// Performs query-guided retrieval: `cfg.num_walks` random walks from the
/// query entity over the *visible* graph, emitting one chain per visited
/// node that carries numeric facts. Walks never revisit a node (cycle
/// removal) and the query's own `(entity, attr)` fact is never used as
/// evidence.
///
/// The walk buffers are reused across attempts and the emitted chains are
/// their own dedup set, so a call allocates once per kept multi-hop chain
/// plus four buffers (DESIGN.md §9.3).
pub fn retrieve(
    graph: &impl GraphView,
    query: Query,
    cfg: &RetrievalConfig,
    rng: &mut impl Rng,
) -> TreeOfChains {
    let mut chains = Vec::with_capacity(cfg.num_walks);
    let mut seen = Emitted::with_capacity(cfg.num_walks);
    let max_attempts = cfg.num_walks * cfg.max_attempts_factor;
    let mut attempts = 0;

    // 0-hop chains: the query entity's other attributes.
    if cfg.allow_zero_hop {
        for f in graph.numerics_of(query.entity) {
            if f.attr == query.attr {
                continue;
            }
            seen.push_new(&mut chains, query, f.attr, &[], query.entity, f.value);
        }
    }

    let mut path: Vec<EntityId> = Vec::with_capacity(cfg.max_hops + 1);
    let mut rels: Vec<DirRel> = Vec::with_capacity(cfg.max_hops);
    while chains.len() < cfg.num_walks && attempts < max_attempts {
        attempts += 1;
        path.clear();
        path.push(query.entity);
        rels.clear();
        let mut current = query.entity;
        let target_hops = rng.gen_range(1..=cfg.max_hops);
        for _ in 0..target_hops {
            let edges = graph.neighbors(current);
            if edges.is_empty() {
                break;
            }
            // Choose an edge that does not close a cycle; give up after a
            // few tries (dense cycles are rare at these path lengths).
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

            // Emit a chain from the current node if it has usable facts.
            let facts = graph.numerics_of(current);
            if facts.is_empty() {
                continue;
            }
            let f = *facts.choose(rng).expect("non-empty");
            if seen.push_new(&mut chains, query, f.attr, &rels, current, f.value)
                && chains.len() >= cfg.num_walks
            {
                break;
            }
        }
    }
    TreeOfChains { query, chains }
}

/// The set of `(chain, source)` pairs a call of [`retrieve`] or
/// [`crate::enumerate_chains`] has emitted, kept as an open-addressing table
/// of indices into the emitted chains themselves: a probe hashes the
/// candidate and compares it with `chains[i]` in place, so nothing is cloned
/// to test membership and the check is exact. Every chain of one call
/// shares `query_attr`, so `(known_attr, rels, source)` is the whole key.
pub(crate) struct Emitted {
    /// Power-of-two many slots, each [`Emitted::EMPTY`] or an index into
    /// the chains; at most half are filled.
    slots: Vec<u32>,
}

impl Emitted {
    const EMPTY: u32 = u32::MAX;

    /// A table that holds `expected` chains without growing.
    pub(crate) fn with_capacity(expected: usize) -> Self {
        Emitted {
            slots: vec![Self::EMPTY; (2 * expected).max(16).next_power_of_two()],
        }
    }

    /// Appends the chain `(known_attr, rels, query.attr)` grounded at
    /// `source` to `chains` unless that pair is already there. Returns
    /// whether it was appended; only then is `rels` copied.
    pub(crate) fn push_new(
        &mut self,
        chains: &mut Vec<ChainInstance>,
        query: Query,
        known_attr: AttributeId,
        rels: &[DirRel],
        source: EntityId,
        value: f64,
    ) -> bool {
        let mask = self.slots.len() - 1;
        let mut slot = key_hash(known_attr, rels, source) as usize & mask;
        while self.slots[slot] != Self::EMPTY {
            let c = &chains[self.slots[slot] as usize];
            if c.source == source && c.chain.known_attr == known_attr && c.chain.rels == rels {
                return false;
            }
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = u32::try_from(chains.len())
            .ok()
            .filter(|&i| i != Self::EMPTY)
            .expect("fewer than 2^32 - 1 chains");
        chains.push(ChainInstance {
            chain: RaChain {
                known_attr,
                rels: rels.to_vec(),
                query_attr: query.attr,
            },
            source,
            value,
        });
        if 2 * chains.len() > self.slots.len() {
            self.grow(chains);
        }
        true
    }

    /// Doubles the table and re-inserts every chain.
    fn grow(&mut self, chains: &[ChainInstance]) {
        self.slots = vec![Self::EMPTY; 2 * self.slots.len()];
        let mask = self.slots.len() - 1;
        for (i, c) in chains.iter().enumerate() {
            let mut slot = key_hash(c.chain.known_attr, &c.chain.rels, c.source) as usize & mask;
            while self.slots[slot] != Self::EMPTY {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = i as u32;
        }
    }
}

/// Multiply-xorshift hash of a `(known_attr, rels, source)` key. Fixed, so
/// the probe sequence (and with it the cost of a call) does not vary from
/// process to process; it never affects which chains are emitted.
fn key_hash(known_attr: AttributeId, rels: &[DirRel], source: EntityId) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = (u64::from(source.0) << 32) | u64::from(known_attr.0);
    for dr in rels {
        h = (h ^ (h >> 29)).wrapping_mul(K) ^ dr.token() as u64;
    }
    h = (h ^ (h >> 32)).wrapping_mul(K);
    h ^ (h >> 29)
}

/// Index-backed retrieval: builds the Tree of Chains from the precomputed
/// per-entity chain index (`cf_kg::index`) instead of walking the graph.
///
/// Every index entry is a (pattern, source, value) triple the random walks
/// of [`retrieve`] could have sampled, already deduplicated and in canonical
/// order, so this reduces to filtering plus weighted sampling:
///
/// - entries beyond `cfg.max_hops` are skipped (the index may have been
///   built deeper than the query wants);
/// - 0-hop entries are all emitted first when `cfg.allow_zero_hop` is set,
///   mirroring [`retrieve`]'s zero-hop pass;
/// - if more deep candidates remain than the `cfg.num_walks` budget, a
///   weighted sample without replacement keeps each with weight
///   `2^-(hops-1)` — the same geometric bias toward short chains the
///   uniform-hop-count random walks exhibit — otherwise all are kept.
///
/// The result is a deterministic function of the index bytes and the RNG
/// stream, so heap-built and mmapped indexes yield bitwise-identical trees
/// for the same seed. It is [`retrieve_row`] over the entity's stored row.
pub fn retrieve_indexed(
    index: &impl ChainIndexView,
    query: Query,
    cfg: &RetrievalConfig,
    rng: &mut impl Rng,
) -> TreeOfChains {
    retrieve_row(index.entries_of(query.entity), query, cfg, rng)
}

/// [`retrieve_indexed`] over one index row of `query.entity`, wherever the
/// row came from: a stored index or `cf_kg::collect_entity` run against a
/// live graph. Equal rows and RNG streams give equal trees.
pub fn retrieve_row(
    entries: &[cf_kg::ChainEntry],
    query: Query,
    cfg: &RetrievalConfig,
    rng: &mut impl Rng,
) -> TreeOfChains {
    let mut chains = Vec::new();

    // Zero-hop pass: identical candidate set to `retrieve`'s first loop.
    if cfg.allow_zero_hop {
        for e in entries.iter().filter(|e| e.hops == 0) {
            if e.attr == query.attr {
                continue;
            }
            chains.push(instance_of(e, query));
            if chains.len() >= cfg.num_walks {
                return TreeOfChains { query, chains };
            }
        }
    }

    let budget = cfg.num_walks - chains.len();
    let deep: Vec<&cf_kg::ChainEntry> = entries
        .iter()
        .filter(|e| e.hops >= 1 && e.hops as usize <= cfg.max_hops)
        .filter(|e| !(e.source == query.entity && e.attr == query.attr))
        .collect();

    if deep.len() <= budget {
        chains.extend(deep.into_iter().map(|e| instance_of(e, query)));
        return TreeOfChains { query, chains };
    }

    // Weighted sampling without replacement via exponential keys: candidate
    // i survives with probability proportional to w_i = 2^-(hops-1). Keys
    // are `Exp(w)` draws; the `budget` smallest win. Ties (never expected
    // from a real RNG, but possible with a constant one) break by position
    // so the outcome stays deterministic.
    let mut keyed: Vec<(f64, usize)> = deep
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let w = 1.0f64 / (1u64 << (e.hops - 1)) as f64;
            let u: f64 = rng.gen();
            (-(1.0 - u).ln() / w, i)
        })
        .collect();
    keyed.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    let mut picked: Vec<usize> = keyed[..budget].iter().map(|&(_, i)| i).collect();
    // Emit in canonical index order, not selection order, so the tree is
    // independent of the sort's internals.
    picked.sort_unstable();
    chains.extend(picked.into_iter().map(|i| instance_of(deep[i], query)));
    TreeOfChains { query, chains }
}

fn instance_of(e: &cf_kg::ChainEntry, query: Query) -> ChainInstance {
    ChainInstance {
        chain: RaChain {
            known_attr: e.attr,
            rels: e.rels().collect::<Vec<DirRel>>(),
            query_attr: query.attr,
        },
        source: e.source,
        value: e.value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_kg::synth::{yago15k_sim, SynthScale};
    use cf_kg::KnowledgeGraph;
    use cf_rand::rngs::StdRng;
    use cf_rand::SeedableRng;

    fn sample_query(g: &KnowledgeGraph, rng: &mut impl Rng) -> Query {
        // Pick an entity with a numeric fact and decent connectivity.
        let triples = g.numerics();
        loop {
            let t = triples[rng.gen_range(0..triples.len())];
            if g.degree(t.entity) > 0 {
                return Query {
                    entity: t.entity,
                    attr: t.attr,
                };
            }
        }
    }

    #[test]
    fn retrieval_respects_hop_budget() {
        let mut rng = StdRng::seed_from_u64(0);
        let g = yago15k_sim(SynthScale::small(), &mut rng);
        let q = sample_query(&g, &mut rng);
        let cfg = RetrievalConfig {
            num_walks: 64,
            max_hops: 2,
            ..Default::default()
        };
        let toc = retrieve(&g, q, &cfg, &mut rng);
        assert!(!toc.is_empty());
        for c in &toc.chains {
            assert!(
                c.chain.hops() <= 2,
                "chain exceeded hop budget: {:?}",
                c.chain
            );
            assert_eq!(c.chain.query_attr, q.attr);
        }
    }

    #[test]
    fn never_uses_query_fact_as_evidence() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = yago15k_sim(SynthScale::small(), &mut rng);
        for _ in 0..10 {
            let q = sample_query(&g, &mut rng);
            let toc = retrieve(&g, q, &RetrievalConfig::default(), &mut rng);
            for c in &toc.chains {
                assert!(
                    !(c.source == q.entity && c.chain.known_attr == q.attr),
                    "query answer leaked into its own evidence"
                );
            }
        }
    }

    #[test]
    fn chains_are_deduplicated() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = yago15k_sim(SynthScale::small(), &mut rng);
        let q = sample_query(&g, &mut rng);
        let cfg = RetrievalConfig {
            num_walks: 128,
            ..Default::default()
        };
        let toc = retrieve(&g, q, &cfg, &mut rng);
        let mut keys: Vec<_> = toc
            .chains
            .iter()
            .map(|c| (c.chain.clone(), c.source))
            .collect();
        let before = keys.len();
        keys.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        keys.dedup();
        assert_eq!(keys.len(), before, "duplicate (chain, source) emitted");
    }

    #[test]
    fn zero_hop_can_be_disabled() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = yago15k_sim(SynthScale::small(), &mut rng);
        let q = sample_query(&g, &mut rng);
        let cfg = RetrievalConfig {
            allow_zero_hop: false,
            ..Default::default()
        };
        let toc = retrieve(&g, q, &cfg, &mut rng);
        assert!(toc.chains.iter().all(|c| c.chain.hops() >= 1));
    }

    #[test]
    fn disconnected_entity_terminates() {
        let mut g = KnowledgeGraph::new();
        let e = g.add_entity("lonely");
        let a = g.add_attribute_type("x");
        g.add_numeric(e, a, 1.0);
        g.build_index();
        let mut rng = StdRng::seed_from_u64(4);
        let toc = retrieve(
            &g,
            Query { entity: e, attr: a },
            &RetrievalConfig::default(),
            &mut rng,
        );
        assert!(
            toc.is_empty(),
            "no evidence should exist for an isolated entity"
        );
    }

    #[test]
    fn walks_do_not_revisit_nodes() {
        // On a triangle graph every 3-hop simple path is impossible; chains
        // of length 3 would require a revisit, so max observed hops is 2.
        let mut g = KnowledgeGraph::new();
        let a = g.add_entity("a");
        let b = g.add_entity("b");
        let c = g.add_entity("c");
        let r = g.add_relation_type("r");
        let attr = g.add_attribute_type("v");
        g.add_triple(a, r, b);
        g.add_triple(b, r, c);
        g.add_triple(c, r, a);
        for (e, v) in [(a, 1.0), (b, 2.0), (c, 3.0)] {
            g.add_numeric(e, attr, v);
        }
        g.build_index();
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = RetrievalConfig {
            num_walks: 200,
            max_hops: 3,
            ..Default::default()
        };
        let toc = retrieve(&g, Query { entity: a, attr }, &cfg, &mut rng);
        assert!(
            toc.chains.iter().all(|ci| ci.chain.hops() <= 2),
            "cycle was not removed"
        );
    }
}
