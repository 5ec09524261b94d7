//! Retrieval must not care where the graph bytes come from: an in-memory
//! graph and its CFKG1 store reloaded with `read_store`, and the heap-built
//! and mmapped views of one CFCI1 index, must produce bitwise-identical
//! Trees of Chains for the same per-query RNG seed. These tests pin that
//! equivalence end to end through `cf_chains::retrieve` /
//! `retrieve_indexed`.

use cf_chains::{
    enumerate_chains, retrieve, retrieve_indexed, Query, RetrievalConfig, TreeOfChains,
};
use cf_check::TempDir;
use cf_kg::synth::{yago15k_sim, SynthScale};
use cf_kg::{
    build_chain_index, read_store, write_index, write_store, ChainIndexView, IndexParams,
    KnowledgeGraph, MappedChainIndex,
};
use cf_rand::rngs::StdRng;
use cf_rand::SeedableRng;

/// A fresh directory (removed on drop) and a file path inside it.
fn tmp(name: &str) -> (TempDir, std::path::PathBuf) {
    let dir = TempDir::new("chains_eq");
    let p = dir.join(name);
    (dir, p)
}

fn sample_graph() -> KnowledgeGraph {
    let mut rng = StdRng::seed_from_u64(7);
    yago15k_sim(SynthScale::small(), &mut rng)
}

/// Some queries with evidence: entities that carry a fact and have edges.
fn sample_queries(g: &KnowledgeGraph, n: usize) -> Vec<Query> {
    g.numerics()
        .iter()
        .filter(|t| g.degree(t.entity) > 0)
        .step_by(97)
        .take(n)
        .map(|t| Query {
            entity: t.entity,
            attr: t.attr,
        })
        .collect()
}

/// Bitwise comparison of two trees: same chains, same sources, same value
/// *bits* — `assert_eq!` on f64 would accept -0.0 == 0.0.
fn assert_trees_identical(a: &TreeOfChains, b: &TreeOfChains, what: &str) {
    assert_eq!(a.query, b.query, "{what}: query differs");
    assert_eq!(a.len(), b.len(), "{what}: chain count differs");
    for (ca, cb) in a.chains.iter().zip(&b.chains) {
        assert_eq!(ca.chain, cb.chain, "{what}: chain pattern differs");
        assert_eq!(ca.source, cb.source, "{what}: source differs");
        assert_eq!(
            ca.value.to_bits(),
            cb.value.to_bits(),
            "{what}: value bits differ"
        );
    }
}

#[test]
fn retrieve_is_bitwise_identical_over_original_and_reloaded_store() {
    let g = sample_graph();
    let (_dir, path) = tmp("reloaded.cfkg");
    write_store(&g, &path).unwrap();
    let reloaded = read_store(&path).unwrap();
    let cfg = RetrievalConfig::default();
    for (i, q) in sample_queries(&g, 12).into_iter().enumerate() {
        // One fixed seed per query, consumed identically by both arms —
        // the serve engine's query_rng_seed discipline.
        let seed = 0x5EED_0000 + i as u64;
        let toc_orig = retrieve(&g, q, &cfg, &mut StdRng::seed_from_u64(seed));
        let toc_reloaded = retrieve(&reloaded, q, &cfg, &mut StdRng::seed_from_u64(seed));
        assert!(!toc_orig.is_empty(), "query {i} retrieved nothing");
        assert_trees_identical(&toc_orig, &toc_reloaded, "original vs reloaded");
    }
}

#[test]
fn retrieve_indexed_is_bitwise_identical_over_built_and_mmapped_index() {
    let g = sample_graph();
    let ix = build_chain_index(&g, IndexParams::default());
    let (_dir, path) = tmp("index_eq.cfci");
    write_index(&ix, &path).unwrap();
    let mapped = MappedChainIndex::open(&path).unwrap();
    mapped.check_matches(&g).unwrap();
    let cfg = RetrievalConfig::default();
    for (i, q) in sample_queries(&g, 12).into_iter().enumerate() {
        let seed = 0xA11CE + i as u64;
        let t_built = retrieve_indexed(&ix, q, &cfg, &mut StdRng::seed_from_u64(seed));
        let t_mapped = retrieve_indexed(&mapped, q, &cfg, &mut StdRng::seed_from_u64(seed));
        assert_trees_identical(&t_built, &t_mapped, "built vs mmapped index");
    }
}

#[test]
fn indexed_retrieval_is_a_subset_of_enumeration() {
    let g = sample_graph();
    let ix = build_chain_index(&g, IndexParams::default());
    let cfg = RetrievalConfig {
        num_walks: 64,
        ..Default::default()
    };
    let mut checked = 0usize;
    for (i, q) in sample_queries(&g, 6).into_iter().enumerate() {
        let toc = retrieve_indexed(&ix, q, &cfg, &mut StdRng::seed_from_u64(i as u64));
        let all = enumerate_chains(&g, q, 3, true, usize::MAX);
        let keys: std::collections::HashSet<String> = all
            .iter()
            .map(|c| format!("{:?}|{:?}", c.chain, c.source))
            .collect();
        for c in &toc.chains {
            let key = format!("{:?}|{:?}", c.chain, c.source);
            assert!(
                keys.contains(&key),
                "indexed chain not in exhaustive set: {key}"
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "no indexed chains were produced at all");
}

#[test]
fn indexed_retrieval_respects_budget_and_hop_limit() {
    let g = sample_graph();
    let ix = build_chain_index(&g, IndexParams::default());
    let cfg = RetrievalConfig {
        num_walks: 16,
        max_hops: 2,
        ..Default::default()
    };
    for (i, q) in sample_queries(&g, 6).into_iter().enumerate() {
        let toc = retrieve_indexed(&ix, q, &cfg, &mut StdRng::seed_from_u64(i as u64));
        assert!(toc.len() <= 16, "budget exceeded: {}", toc.len());
        for c in &toc.chains {
            assert!(c.chain.hops() <= 2, "hop limit exceeded");
            assert!(
                !(c.source == q.entity && c.chain.known_attr == q.attr),
                "query answer leaked into its own evidence"
            );
        }
    }
}
