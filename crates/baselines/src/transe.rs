//! TransE (Bordes et al., 2013): the embedding substrate behind NAP++ and
//! KGA. Margin-based ranking with negative sampling over relational triples,
//! plain SGD on `Vec<f64>` tables (no autodiff needed for this shape).

use cf_kg::{EntityId, KnowledgeGraph, RelationId};
use cf_rand::Rng;

/// Configuration for TransE training.
#[derive(Copy, Clone, Debug)]
pub struct TransEConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Training epochs over all triples.
    pub epochs: usize,
    /// SGD learning rate.
    pub lr: f64,
    /// Ranking margin between positive and corrupted triples.
    pub margin: f64,
}

impl Default for TransEConfig {
    fn default() -> Self {
        TransEConfig {
            dim: 24,
            epochs: 30,
            lr: 0.02,
            margin: 1.0,
        }
    }
}

/// Trained TransE embeddings: `h + r ≈ t` under L2 distance.
#[derive(Clone, Debug)]
pub struct TransE {
    /// Embedding dimension.
    pub dim: usize,
    entities: Vec<Vec<f64>>,
    relations: Vec<Vec<f64>>,
}

impl TransE {
    /// Trains on the graph's relational triples. Supports an optional list
    /// of *extra* triples over an extended entity space (KGA's bin
    /// entities): `extra_entities` widens the table.
    pub fn fit_with_extra(
        graph: &KnowledgeGraph,
        cfg: TransEConfig,
        extra_entities: usize,
        extra_relations: usize,
        extra_triples: &[(usize, usize, usize)],
        rng: &mut impl Rng,
    ) -> Self {
        let ne = graph.num_entities() + extra_entities;
        let nr = graph.num_relations() + extra_relations;
        let bound = 6.0 / (cfg.dim as f64).sqrt();
        let mut entities: Vec<Vec<f64>> = (0..ne)
            .map(|_| (0..cfg.dim).map(|_| rng.gen_range(-bound..bound)).collect())
            .collect();
        let mut relations: Vec<Vec<f64>> = (0..nr)
            .map(|_| (0..cfg.dim).map(|_| rng.gen_range(-bound..bound)).collect())
            .collect();
        for r in &mut relations {
            normalize(r);
        }

        let mut triples: Vec<(usize, usize, usize)> = graph
            .triples()
            .iter()
            .map(|t| (t.head.0 as usize, t.rel.0 as usize, t.tail.0 as usize))
            .collect();
        triples.extend_from_slice(extra_triples);
        if triples.is_empty() {
            return TransE {
                dim: cfg.dim,
                entities,
                relations,
            };
        }

        for _ in 0..cfg.epochs {
            for &(h, r, t) in &triples {
                // Corrupt head or tail uniformly.
                let corrupt_head = rng.gen_bool(0.5);
                let neg = rng.gen_range(0..ne);
                let (nh, nt) = if corrupt_head { (neg, t) } else { (h, neg) };
                let d_pos = score_raw(&entities[h], &relations[r], &entities[t]);
                let d_neg = score_raw(&entities[nh], &relations[r], &entities[nt]);
                if d_pos + cfg.margin <= d_neg {
                    continue; // margin satisfied
                }
                // Gradient of ||h + r - t||^2 wrt h is 2(h + r - t); descend
                // positive triple distance, ascend negative.
                for i in 0..cfg.dim {
                    let gp = 2.0 * (entities[h][i] + relations[r][i] - entities[t][i]);
                    entities[h][i] -= cfg.lr * gp;
                    relations[r][i] -= cfg.lr * gp;
                    entities[t][i] += cfg.lr * gp;
                    let gn = 2.0 * (entities[nh][i] + relations[r][i] - entities[nt][i]);
                    entities[nh][i] += cfg.lr * gn;
                    relations[r][i] += cfg.lr * gn;
                    entities[nt][i] -= cfg.lr * gn;
                }
                normalize(&mut entities[h]);
                normalize(&mut entities[t]);
                normalize(&mut entities[nh]);
                normalize(&mut entities[nt]);
            }
        }
        TransE {
            dim: cfg.dim,
            entities,
            relations,
        }
    }

    /// Trains on the graph's relational triples only.
    pub fn fit(graph: &KnowledgeGraph, cfg: TransEConfig, rng: &mut impl Rng) -> Self {
        Self::fit_with_extra(graph, cfg, 0, 0, &[], rng)
    }

    /// Embedding of a graph entity.
    pub fn entity(&self, e: EntityId) -> &[f64] {
        &self.entities[e.0 as usize]
    }

    /// Raw-index access (covers extra/bin entities).
    pub fn entity_raw(&self, i: usize) -> &[f64] {
        &self.entities[i]
    }

    /// Embedding of a graph relation.
    pub fn relation(&self, r: RelationId) -> &[f64] {
        &self.relations[r.0 as usize]
    }

    /// Total entities in the table (graph + extras).
    pub fn num_entities(&self) -> usize {
        self.entities.len()
    }

    /// Squared translation error `||h + r − t||²` (lower = more plausible).
    pub fn triple_score(&self, h: usize, r: usize, t: usize) -> f64 {
        score_raw(&self.entities[h], &self.relations[r], &self.entities[t])
    }

    /// Euclidean distance between entity embeddings.
    pub fn entity_distance(&self, a: EntityId, b: EntityId) -> f64 {
        self.entities[a.0 as usize]
            .iter()
            .zip(&self.entities[b.0 as usize])
            .map(|(&x, &y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }

    /// The `k` nearest entities to `e` (by embedding distance), excluding
    /// `e` itself.
    pub fn nearest(&self, e: EntityId, k: usize) -> Vec<(EntityId, f64)> {
        let mut dists: Vec<(EntityId, f64)> = (0..self.entities.len() as u32)
            .filter(|&i| i != e.0)
            .map(|i| (EntityId(i), self.entity_distance(e, EntityId(i))))
            .collect();
        dists.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
        dists.truncate(k);
        dists
    }
}

fn score_raw(h: &[f64], r: &[f64], t: &[f64]) -> f64 {
    h.iter()
        .zip(r)
        .zip(t)
        .map(|((&hi, &ri), &ti)| (hi + ri - ti).powi(2))
        .sum()
}

fn normalize(v: &mut [f64]) {
    let n = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if n > 1.0 {
        for x in v.iter_mut() {
            *x /= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_rand::rngs::StdRng;
    use cf_rand::SeedableRng;

    /// Two clusters connected internally: cluster members should embed
    /// closer to each other than across clusters.
    fn cluster_graph() -> KnowledgeGraph {
        let mut g = KnowledgeGraph::new();
        let es: Vec<EntityId> = (0..8).map(|i| g.add_entity(format!("e{i}"))).collect();
        let r = g.add_relation_type("r");
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    g.add_triple(es[i], r, es[j]);
                    g.add_triple(es[i + 4], r, es[j + 4]);
                }
            }
        }
        g.build_index();
        g
    }

    #[test]
    fn embeds_clusters_apart() {
        let g = cluster_graph();
        let mut rng = StdRng::seed_from_u64(0);
        let te = TransE::fit(
            &g,
            TransEConfig {
                epochs: 60,
                ..Default::default()
            },
            &mut rng,
        );
        let intra = te.entity_distance(EntityId(0), EntityId(1))
            + te.entity_distance(EntityId(4), EntityId(5));
        let inter = te.entity_distance(EntityId(0), EntityId(4))
            + te.entity_distance(EntityId(1), EntityId(5));
        assert!(
            inter > intra,
            "clusters not separated: intra {intra:.3} inter {inter:.3}"
        );
    }

    #[test]
    fn positive_triples_score_better_than_random() {
        let g = cluster_graph();
        let mut rng = StdRng::seed_from_u64(1);
        let te = TransE::fit(&g, TransEConfig::default(), &mut rng);
        let pos = te.triple_score(0, 0, 1);
        let neg = te.triple_score(0, 0, 7);
        assert!(pos < neg, "positive {pos:.3} vs negative {neg:.3}");
    }

    #[test]
    fn nearest_returns_sorted_k() {
        let g = cluster_graph();
        let mut rng = StdRng::seed_from_u64(2);
        let te = TransE::fit(&g, TransEConfig::default(), &mut rng);
        let nn = te.nearest(EntityId(0), 3);
        assert_eq!(nn.len(), 3);
        assert!(nn.windows(2).all(|w| w[0].1 <= w[1].1));
        assert!(nn.iter().all(|&(e, _)| e != EntityId(0)));
    }

    #[test]
    fn extra_entities_extend_the_table() {
        let g = cluster_graph();
        let mut rng = StdRng::seed_from_u64(3);
        let te = TransE::fit_with_extra(
            &g,
            TransEConfig::default(),
            5,
            1,
            &[(0, 1, 8)], // entity 0 links to extra entity 8 via extra rel 1
            &mut rng,
        );
        assert_eq!(te.num_entities(), 13);
        assert_eq!(te.entity_raw(12).len(), te.dim);
    }

    #[test]
    fn embeddings_stay_bounded() {
        let g = cluster_graph();
        let mut rng = StdRng::seed_from_u64(4);
        let te = TransE::fit(
            &g,
            TransEConfig {
                epochs: 100,
                lr: 0.1,
                ..Default::default()
            },
            &mut rng,
        );
        for i in 0..te.num_entities() {
            let n: f64 = te.entity_raw(i).iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!(n <= 1.0 + 1e-9, "entity {i} escaped the unit ball: {n}");
        }
    }
}
