//! Chain counting for Figure 2: the number of logic chains connected to a
//! query explodes with reasoning depth.

use cf_kg::{for_each_simple_path, EntityId, GraphView, KnowledgeGraph};
use cf_rand::Rng;
use std::ops::ControlFlow;

/// Exact number of logic chains of 1 to `hops` relation steps rooted at
/// `entity`: simple paths (no node revisits) whose endpoint carries at least
/// one numeric fact, counted once per (path, fact) pair — the same
/// definition the retrieval samples from.
///
/// The walk's cost grows exponentially; `cap` bounds the count (returns
/// `min(count, cap)`), letting callers fall back to sampling estimates.
pub fn exact_chain_count(g: &impl GraphView, entity: EntityId, hops: usize, cap: u64) -> u64 {
    if cap == 0 {
        return 0;
    }
    let mut count = 0u64;
    for_each_simple_path(g, entity, hops, usize::MAX, |_, to| {
        count = count
            .saturating_add(g.numerics_of(to).len() as u64)
            .min(cap);
        if count == cap {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    count
}

/// Chains of *up to* `hops` steps (what Figure 2 plots per hop count).
pub fn chain_count_by_hops(
    g: &impl GraphView,
    entity: EntityId,
    max_hops: usize,
    cap: u64,
) -> Vec<u64> {
    (1..=max_hops)
        .map(|h| exact_chain_count(g, entity, h, cap))
        .collect()
}

/// Mean chain count over a sample of query entities (Figure 2 reports the
/// average per query).
pub fn mean_chain_count(
    g: &KnowledgeGraph,
    max_hops: usize,
    sample: usize,
    cap: u64,
    rng: &mut impl Rng,
) -> Vec<f64> {
    let numerics = g.numerics();
    assert!(!numerics.is_empty(), "graph has no numeric facts to query");
    let mut sums = vec![0.0f64; max_hops];
    let n = sample.min(numerics.len());
    for _ in 0..n {
        let q = numerics[rng.gen_range(0..numerics.len())].entity;
        for (h, c) in chain_count_by_hops(g, q, max_hops, cap)
            .into_iter()
            .enumerate()
        {
            sums[h] += c as f64;
        }
    }
    sums.iter().map(|s| s / n as f64).collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cf_kg::synth::{yago15k_sim, SynthScale};
    use cf_rand::rngs::StdRng;
    use cf_rand::SeedableRng;
    use std::collections::HashSet;

    /// [`exact_chain_count`] as first written, with a depth-first search
    /// of its own that marks the nodes on the current path in `visited`.
    pub(crate) fn exact_chain_count_reference(
        g: &impl GraphView,
        entity: EntityId,
        hops: usize,
        cap: u64,
    ) -> u64 {
        let mut visited = HashSet::from([entity]);
        let mut count = 0u64;
        descend(g, entity, hops, &mut visited, &mut count, cap);
        count
    }

    fn descend(
        g: &impl GraphView,
        at: EntityId,
        remaining: usize,
        visited: &mut HashSet<EntityId>,
        count: &mut u64,
        cap: u64,
    ) {
        if *count >= cap {
            return;
        }
        if remaining == 0 {
            return;
        }
        for edge in g.neighbors(at) {
            let next = edge.to;
            if visited.contains(&next) {
                continue;
            }
            *count = (*count + g.numerics_of(next).len() as u64).min(cap);
            if *count >= cap {
                return;
            }
            visited.insert(next);
            descend(g, next, remaining - 1, visited, count, cap);
            visited.remove(&next);
        }
    }

    /// Path graph a-b-c with facts everywhere: from a, 1 hop reaches b
    /// (1 fact), 2 hops adds c (1 fact).
    #[test]
    fn exact_count_on_path_graph() {
        let mut g = KnowledgeGraph::new();
        let a = g.add_entity("a");
        let b = g.add_entity("b");
        let c = g.add_entity("c");
        let r = g.add_relation_type("r");
        let attr = g.add_attribute_type("v");
        g.add_triple(a, r, b);
        g.add_triple(b, r, c);
        for (e, v) in [(a, 1.0), (b, 2.0), (c, 3.0)] {
            g.add_numeric(e, attr, v);
        }
        g.build_index();
        assert_eq!(exact_chain_count(&g, a, 1, u64::MAX), 1);
        assert_eq!(exact_chain_count(&g, a, 2, u64::MAX), 2);
        // No simple path of length 3 exists.
        assert_eq!(exact_chain_count(&g, a, 3, u64::MAX), 2);
    }

    #[test]
    fn count_respects_cap() {
        let mut rng = StdRng::seed_from_u64(0);
        let g = yago15k_sim(SynthScale::small(), &mut rng);
        let e = g.numerics()[0].entity;
        let capped = exact_chain_count(&g, e, 3, 10);
        assert!(capped <= 10);
    }

    #[test]
    fn counts_grow_with_hops() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = yago15k_sim(SynthScale::default_scale(), &mut rng);
        let means = mean_chain_count(&g, 3, 20, 1_000_000, &mut rng);
        assert!(means[0] < means[1], "{means:?}");
        assert!(means[1] < means[2], "{means:?}");
        // The Figure-2 point: 3-hop chains are orders of magnitude more
        // numerous than 1-hop ones.
        assert!(means[2] > 10.0 * means[0], "no chain explosion: {means:?}");
    }

    #[test]
    fn multiple_facts_per_endpoint_count_separately() {
        let mut g = KnowledgeGraph::new();
        let a = g.add_entity("a");
        let b = g.add_entity("b");
        let r = g.add_relation_type("r");
        let x = g.add_attribute_type("x");
        let y = g.add_attribute_type("y");
        g.add_triple(a, r, b);
        g.add_numeric(b, x, 1.0);
        g.add_numeric(b, y, 2.0);
        g.build_index();
        assert_eq!(exact_chain_count(&g, a, 1, u64::MAX), 2);
    }
}
