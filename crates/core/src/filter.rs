//! The Hyperbolic Filter (§IV-C): hyperbolic chain embedding via Möbius
//! translation (Eq. 7), inter/intra affinity scoring (Eq. 8–9) and top-k
//! selection into the Enhanced ToC (Eq. 10).
//!
//! Implementation note (DESIGN.md §6.2): the top-k selection is
//! non-differentiable and the paper leaves the gradient path unspecified, so
//! the filter's relation/attribute embeddings are *pre-trained* on
//! (relation → attribute) and (attribute → attribute) co-occurrence pairs
//! sampled from the visible graph — Poincaré-embedding style with Riemannian
//! SGD — and frozen during model training. Eq. 10 as printed keeps the k
//! *largest* scores even though the score is built from distances; we read
//! this as a typo and keep the k *smallest* (closest, most relevant).

use crate::config::FilterSpace;
use cf_chains::{ChainInstance, ChainVocab, Query, TreeOfChains};
use cf_hyperbolic::{euclidean_distance, PoincareEmbeddings};
use cf_kg::KnowledgeGraph;
use cf_rand::seq::SliceRandom;
use cf_rand::Rng;

/// Scores RA-Chains for relevance to a query and keeps the best `k`.
#[derive(Clone, Debug)]
pub struct ChainFilter {
    space: FilterSpace,
    vocab: ChainVocab,
    lambda: f64,
    /// Poincaré table over `[directed relations ‖ attributes]` tokens.
    hyper: Option<PoincareEmbeddings>,
    /// Euclidean table with the same layout (Figure 7 comparison arm).
    eucl: Option<Vec<Vec<f64>>>,
    dim: usize,
}

/// Supervision pairs for filter pre-training.
fn cooccurrence_pairs(
    graph: &KnowledgeGraph,
    vocab: &ChainVocab,
    walks: usize,
    max_hops: usize,
    rng: &mut impl Rng,
) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    // 1-hop (relation, attribute) co-occurrence, count-capped.
    for ((dr, attr), count) in graph.relation_attribute_cooccurrence() {
        let reps = count.min(8);
        for _ in 0..reps {
            pairs.push((vocab.rel_token(dr), vocab.attr_token(attr)));
        }
    }
    // Same-entity (attribute, attribute) pairs: supervises the intra-score.
    for e in graph.entities() {
        let facts = graph.numerics_of(e);
        for (i, fa) in facts.iter().enumerate() {
            for fb in &facts[i + 1..] {
                pairs.push((vocab.attr_token(fa.attr), vocab.attr_token(fb.attr)));
            }
        }
    }
    // Multi-hop: random walks pair every traversed relation with the
    // endpoint attribute, teaching compositions to point at the right
    // attributes.
    let entities: Vec<_> = graph.numerics().iter().map(|t| t.entity).collect();
    if !entities.is_empty() {
        for _ in 0..walks {
            let mut at = *entities.choose(rng).expect("non-empty");
            let mut rels = Vec::new();
            for _ in 0..rng.gen_range(1..=max_hops) {
                let edges = graph.neighbors(at);
                if edges.is_empty() {
                    break;
                }
                let e = edges.choose(rng).expect("non-empty");
                rels.push(e.dr);
                at = e.to;
            }
            if rels.is_empty() {
                continue;
            }
            if let Some(f) = graph.numerics_of(at).first() {
                for dr in rels {
                    pairs.push((vocab.rel_token(dr), vocab.attr_token(f.attr)));
                }
            }
        }
    }
    // HashMap iteration order is randomized per process; sort before the
    // seeded shuffle so the whole pipeline stays deterministic per seed.
    pairs.sort_unstable();
    pairs.shuffle(rng);
    pairs
}

impl ChainFilter {
    /// Pre-trains a filter for `graph` in the requested space.
    /// `FilterSpace::Random` trains nothing.
    pub fn fit(
        graph: &KnowledgeGraph,
        space: FilterSpace,
        dim: usize,
        lambda: f64,
        epochs: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let vocab = ChainVocab::for_graph(graph);
        let table_size = vocab.num_rel_tokens() + vocab.num_attributes();
        match space {
            FilterSpace::Random => ChainFilter {
                space,
                vocab,
                lambda,
                hyper: None,
                eucl: None,
                dim,
            },
            FilterSpace::Hyperbolic => {
                let pairs = cooccurrence_pairs(graph, &vocab, 512, 3, rng);
                let mut emb = PoincareEmbeddings::new(table_size, dim, rng);
                if !pairs.is_empty() {
                    emb.train(&pairs, epochs, 5, 0.05, rng);
                }
                ChainFilter {
                    space,
                    vocab,
                    lambda,
                    hyper: Some(emb),
                    eucl: None,
                    dim,
                }
            }
            FilterSpace::Euclidean => {
                let pairs = cooccurrence_pairs(graph, &vocab, 512, 3, rng);
                let mut table: Vec<Vec<f64>> = (0..table_size)
                    .map(|_| (0..dim).map(|_| rng.gen_range(-0.01..0.01)).collect())
                    .collect();
                train_euclidean(&mut table, &pairs, epochs, 5, 0.05, rng);
                ChainFilter {
                    space,
                    vocab,
                    lambda,
                    hyper: None,
                    eucl: Some(table),
                    dim,
                }
            }
        }
    }

    /// The geometry this filter scores in.
    pub fn space(&self) -> FilterSpace {
        self.space
    }

    /// Filter embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The chain token vocabulary.
    pub fn vocab(&self) -> &ChainVocab {
        &self.vocab
    }

    /// λ of Eq. 9.
    pub(crate) fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The fitted table, one row per `[directed relations ‖ attributes]`
    /// token; empty for `Random`.
    pub(crate) fn rows(&self) -> Vec<&[f64]> {
        match (&self.hyper, &self.eucl) {
            (Some(h), _) => (0..h.len()).map(|i| h.point(i)).collect(),
            (None, Some(t)) => t.iter().map(Vec::as_slice).collect(),
            (None, None) => Vec::new(),
        }
    }

    /// A filter over an already fitted table: the inverse of [`Self::rows`].
    pub(crate) fn from_rows(
        space: FilterSpace,
        vocab: ChainVocab,
        dim: usize,
        lambda: f64,
        rows: Vec<Vec<f64>>,
    ) -> Self {
        let (hyper, eucl) = match space {
            FilterSpace::Hyperbolic => (Some(PoincareEmbeddings::from_points(dim, rows)), None),
            FilterSpace::Euclidean => (None, Some(rows)),
            FilterSpace::Random => (None, None),
        };
        ChainFilter {
            space,
            vocab,
            lambda,
            hyper,
            eucl,
            dim,
        }
    }

    /// True when `other` has the same space, vocabulary, dimension, λ and
    /// table, bit for bit, so it keeps exactly the chains this filter keeps.
    pub fn same_bits(&self, other: &ChainFilter) -> bool {
        let (a, b) = (self.rows(), other.rows());
        self.space == other.space
            && self.vocab == other.vocab
            && self.dim == other.dim
            && self.lambda.to_bits() == other.lambda.to_bits()
            && a.len() == b.len()
            && a.iter().zip(&b).all(|(x, y)| {
                x.len() == y.len() && x.iter().zip(*y).all(|(p, q)| p.to_bits() == q.to_bits())
            })
    }

    /// The hyperbolic affinity score `s_c^H` (Eq. 9); *lower is more
    /// relevant*. Returns 0 for `Random` (scores unused there).
    pub fn score(&self, chain: &ChainInstance, query: Query) -> f64 {
        let aq = self.vocab.attr_token(query.attr);
        let ap = self.vocab.attr_token(chain.chain.known_attr);
        match self.space {
            FilterSpace::Random => 0.0,
            FilterSpace::Hyperbolic => {
                let emb = self.hyper.as_ref().expect("hyperbolic table");
                let ball = *emb.ball();
                let points: Vec<&[f64]> = chain
                    .chain
                    .rels
                    .iter()
                    .map(|dr| emb.point(self.vocab.rel_token(*dr)))
                    .collect();
                let h_c = ball.mobius_chain(&points, self.dim);
                let inter = ball.distance_arcosh(&h_c, emb.point(aq));
                let intra = ball.distance_arcosh(emb.point(ap), emb.point(aq));
                self.lambda * intra + (1.0 - self.lambda) * inter
            }
            FilterSpace::Euclidean => {
                let table = self.eucl.as_ref().expect("euclidean table");
                let mut h_c = vec![0.0; self.dim];
                for dr in &chain.chain.rels {
                    for (acc, v) in h_c.iter_mut().zip(&table[self.vocab.rel_token(*dr)]) {
                        *acc += v;
                    }
                }
                let inter = euclidean_distance(&h_c, &table[aq]);
                let intra = euclidean_distance(&table[ap], &table[aq]);
                self.lambda * intra + (1.0 - self.lambda) * inter
            }
        }
    }

    /// Builds the Enhanced ToC `T_q^k`: the `k` most relevant chains
    /// (Eq. 10), best first, ties in retrieval order. For `Random`, a
    /// uniform sample of size `k`. Only the kept chains are cloned.
    pub fn select_top_k(&self, toc: &TreeOfChains, k: usize, rng: &mut impl Rng) -> TreeOfChains {
        let kept = |i: usize| toc.chains[i].clone();
        let chains = match self.space {
            FilterSpace::Random => {
                let mut order: Vec<usize> = (0..toc.chains.len()).collect();
                order.shuffle(rng);
                order.into_iter().take(k).map(kept).collect()
            }
            _ => {
                let mut scored: Vec<(f64, usize)> = toc
                    .chains
                    .iter()
                    .enumerate()
                    .map(|(i, c)| (self.score(c, toc.query), i))
                    .collect();
                // Score, then retrieval index: a total order, so the unstable
                // selection and sort give exactly a stable sort by score.
                let by_score = |a: &(f64, usize), b: &(f64, usize)| {
                    a.0.partial_cmp(&b.0)
                        .expect("finite scores")
                        .then(a.1.cmp(&b.1))
                };
                if k < scored.len() {
                    scored.select_nth_unstable_by(k, by_score);
                    scored.truncate(k);
                }
                scored.sort_unstable_by(by_score);
                scored.into_iter().map(|(_, i)| kept(i)).collect()
            }
        };
        TreeOfChains {
            query: toc.query,
            chains,
        }
    }

    /// Log-map of the hyperbolic point for a token, used to initialise the
    /// Chain Encoder's Euclidean token table (Eq. 12). Zeroes for spaces
    /// without a table.
    pub fn log0_token(&self, token: usize, out_dim: usize) -> Vec<f32> {
        let mut v = match (&self.hyper, &self.eucl) {
            (Some(h), _) if token < h.len() => h.log0_f32(token),
            (None, Some(t)) if token < t.len() => t[token].iter().map(|&x| x as f32).collect(),
            _ => vec![0.0; self.dim],
        };
        v.resize(out_dim, 0.0);
        v
    }
}

/// Euclidean analogue of the Poincaré pair training (negative-sampling
/// softmax over distances, plain SGD). Buffers are allocated once per call.
fn train_euclidean(
    table: &mut [Vec<f64>],
    pairs: &[(usize, usize)],
    epochs: usize,
    negatives: usize,
    lr: f64,
    rng: &mut impl Rng,
) {
    if table.is_empty() || pairs.is_empty() {
        return;
    }
    let n = table.len();
    let mut cands = Vec::with_capacity(negatives + 1);
    let mut dists = Vec::with_capacity(negatives + 1);
    let mut exps = Vec::with_capacity(negatives + 1);
    for _ in 0..epochs {
        for &(u, v) in pairs {
            cands.clear();
            cands.push(v);
            for _ in 0..negatives {
                let mut c = rng.gen_range(0..n);
                if c == v {
                    c = (c + 1) % n;
                }
                cands.push(c);
            }
            dists.clear();
            dists.extend(
                cands
                    .iter()
                    .map(|&c| euclidean_distance(&table[u], &table[c])),
            );
            let dmin = dists.iter().cloned().fold(f64::INFINITY, f64::min);
            exps.clear();
            exps.extend(dists.iter().map(|&d| (-(d - dmin)).exp()));
            let z: f64 = exps.iter().sum();
            for (j, &c) in cands.iter().enumerate() {
                let p = exps[j] / z;
                let coef = if j == 0 { 1.0 - p } else { -p };
                let d = dists[j].max(1e-9);
                // ∂d/∂u = (u−c)/d ; symmetric for c.
                for i in 0..table[u].len() {
                    let dir = (table[u][i] - table[c][i]) / d;
                    let g = coef * dir;
                    table[u][i] -= lr * g;
                    table[c][i] += lr * g;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_chains::{retrieve, RetrievalConfig};
    use cf_kg::synth::{yago15k_sim, SynthScale};
    use cf_rand::rngs::StdRng;
    use cf_rand::SeedableRng;

    fn setup(space: FilterSpace) -> (KnowledgeGraph, ChainFilter, StdRng) {
        let mut rng = StdRng::seed_from_u64(11);
        let g = yago15k_sim(SynthScale::small(), &mut rng);
        let f = ChainFilter::fit(&g, space, 8, 0.5, 10, &mut rng);
        (g, f, rng)
    }

    fn toc_for_first_query(g: &KnowledgeGraph, rng: &mut StdRng) -> TreeOfChains {
        let fact = g
            .numerics()
            .iter()
            .find(|t| g.degree(t.entity) > 0)
            .copied()
            .expect("connected fact");
        retrieve(
            g,
            Query {
                entity: fact.entity,
                attr: fact.attr,
            },
            &RetrievalConfig {
                num_walks: 64,
                ..Default::default()
            },
            rng,
        )
    }

    #[test]
    fn top_k_truncates_and_keeps_best() {
        let (g, f, mut rng) = setup(FilterSpace::Hyperbolic);
        let toc = toc_for_first_query(&g, &mut rng);
        let k = 4.min(toc.len());
        let selected = f.select_top_k(&toc, k, &mut rng);
        assert_eq!(selected.len(), k.min(toc.len()));
        // Every selected score must be <= every rejected score.
        let kept_max = selected
            .chains
            .iter()
            .map(|c| f.score(c, toc.query))
            .fold(f64::NEG_INFINITY, f64::max);
        for c in &toc.chains {
            if !selected.chains.contains(c) {
                assert!(f.score(c, toc.query) >= kept_max - 1e-12);
            }
        }
    }

    #[test]
    fn same_attribute_chains_score_better_on_average() {
        // The intra-score should prefer chains whose known attribute equals
        // the queried one (Figure 6's observation).
        let (g, f, mut rng) = setup(FilterSpace::Hyperbolic);
        let mut same = Vec::new();
        let mut diff = Vec::new();
        for _ in 0..10 {
            let toc = toc_for_first_query(&g, &mut rng);
            for c in &toc.chains {
                let s = f.score(c, toc.query);
                if c.chain.known_attr == toc.query.attr {
                    same.push(s);
                } else {
                    diff.push(s);
                }
            }
        }
        if same.is_empty() || diff.is_empty() {
            return; // tiny graph edge case — nothing to compare
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&same) < mean(&diff),
            "same-attr chains should score lower (better): {} vs {}",
            mean(&same),
            mean(&diff)
        );
    }

    #[test]
    fn random_space_selects_k_without_scores() {
        let (g, f, mut rng) = setup(FilterSpace::Random);
        let toc = toc_for_first_query(&g, &mut rng);
        let selected = f.select_top_k(&toc, 3, &mut rng);
        assert!(selected.len() <= 3);
        assert_eq!(f.score(&toc.chains[0], toc.query), 0.0);
    }

    #[test]
    fn euclidean_space_scores_are_finite() {
        let (g, f, mut rng) = setup(FilterSpace::Euclidean);
        let toc = toc_for_first_query(&g, &mut rng);
        for c in &toc.chains {
            assert!(f.score(c, toc.query).is_finite());
        }
    }

    #[test]
    fn log0_token_resizes_to_out_dim() {
        let (_, f, _) = setup(FilterSpace::Hyperbolic);
        let v = f.log0_token(0, 20);
        assert_eq!(v.len(), 20);
        assert!(v[8..].iter().all(|&x| x == 0.0));
    }

    /// The selection as first written: clone every chain, stable-sort by
    /// score, truncate. `select_top_k` must match it chain for chain.
    fn select_top_k_reference(
        f: &ChainFilter,
        toc: &TreeOfChains,
        k: usize,
        rng: &mut impl Rng,
    ) -> TreeOfChains {
        let mut chains = toc.chains.clone();
        match f.space {
            FilterSpace::Random => {
                chains.shuffle(rng);
                chains.truncate(k);
            }
            _ => {
                let mut scored: Vec<(f64, ChainInstance)> = chains
                    .into_iter()
                    .map(|c| (f.score(&c, toc.query), c))
                    .collect();
                scored.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite scores"));
                scored.truncate(k);
                chains = scored.into_iter().map(|(_, c)| c).collect();
            }
        }
        TreeOfChains {
            query: toc.query,
            chains,
        }
    }

    #[test]
    fn top_k_matches_reference_selection_in_every_space() {
        use cf_rand::SnapshotRng;
        for space in [
            FilterSpace::Hyperbolic,
            FilterSpace::Euclidean,
            FilterSpace::Random,
        ] {
            let (g, f, mut rng) = setup(space);
            let mut ties = 0;
            for (qi, fact) in g.numerics().iter().step_by(97).take(12).enumerate() {
                let query = Query {
                    entity: fact.entity,
                    attr: fact.attr,
                };
                let cfg = RetrievalConfig {
                    num_walks: 96,
                    ..Default::default()
                };
                let toc = retrieve(&g, query, &cfg, &mut rng);
                let n = toc.len();
                let scores: Vec<f64> = toc.chains.iter().map(|c| f.score(c, query)).collect();
                ties += (0..n)
                    .filter(|&i| scores[i + 1..].contains(&scores[i]))
                    .count();
                for k in [0, 1, 3, n / 2, n.saturating_sub(1), n, n + 5] {
                    let seed = (qi * 1000 + k) as u64;
                    let mut a = StdRng::seed_from_u64(seed);
                    let mut b = StdRng::seed_from_u64(seed);
                    let got = f.select_top_k(&toc, k, &mut a);
                    let want = select_top_k_reference(&f, &toc, k, &mut b);
                    assert_eq!(got.query, want.query);
                    assert_eq!(got.chains.len(), want.chains.len(), "{space:?} k={k}");
                    for (x, y) in got.chains.iter().zip(&want.chains) {
                        assert_eq!(x.chain, y.chain, "{space:?} k={k}");
                        assert_eq!(x.source, y.source, "{space:?} k={k}");
                        assert_eq!(x.value.to_bits(), y.value.to_bits(), "{space:?} k={k}");
                    }
                    assert_eq!(a.state_words(), b.state_words(), "{space:?} k={k}");
                }
            }
            if space != FilterSpace::Random {
                assert!(ties > 0, "{space:?}: no tied scores exercised");
            }
        }
    }

    /// `train_euclidean` as first written: fresh candidate, distance and
    /// exponential vectors per pair step.
    fn train_euclidean_reference(
        table: &mut [Vec<f64>],
        pairs: &[(usize, usize)],
        epochs: usize,
        negatives: usize,
        lr: f64,
        rng: &mut impl Rng,
    ) {
        if table.is_empty() || pairs.is_empty() {
            return;
        }
        let n = table.len();
        for _ in 0..epochs {
            for &(u, v) in pairs {
                let mut cands = Vec::with_capacity(negatives + 1);
                cands.push(v);
                for _ in 0..negatives {
                    let mut c = rng.gen_range(0..n);
                    if c == v {
                        c = (c + 1) % n;
                    }
                    cands.push(c);
                }
                let dists: Vec<f64> = cands
                    .iter()
                    .map(|&c| euclidean_distance(&table[u], &table[c]))
                    .collect();
                let dmin = dists.iter().cloned().fold(f64::INFINITY, f64::min);
                let exps: Vec<f64> = dists.iter().map(|&d| (-(d - dmin)).exp()).collect();
                let z: f64 = exps.iter().sum();
                for (j, &c) in cands.iter().enumerate() {
                    let p = exps[j] / z;
                    let coef = if j == 0 { 1.0 - p } else { -p };
                    let d = dists[j].max(1e-9);
                    for i in 0..table[u].len() {
                        let dir = (table[u][i] - table[c][i]) / d;
                        let g = coef * dir;
                        table[u][i] -= lr * g;
                        table[c][i] += lr * g;
                    }
                }
            }
        }
    }

    /// `PoincareEmbeddings::train` as first written, over a plain table: the
    /// burn-in schedule and the epoch body, through the public distance,
    /// gradient and step functions (pinned to their first-written formulas
    /// in cf-hyperbolic).
    fn train_poincare_reference(
        table: &mut [Vec<f64>],
        pairs: &[(usize, usize)],
        epochs: usize,
        negatives: usize,
        lr: f64,
        rng: &mut impl Rng,
    ) {
        use cf_hyperbolic::{distance_grad_x, rsgd_step, PoincareBall};
        let ball = PoincareBall::default();
        let burn_in = (epochs / 10).max(1);
        for epoch in 0..epochs {
            let lr = if epoch < burn_in { lr / 10.0 } else { lr };
            for &(u, v) in pairs {
                let mut cands = Vec::with_capacity(negatives + 1);
                cands.push(v);
                for _ in 0..negatives {
                    let mut n = rng.gen_range(0..table.len());
                    if n == v {
                        n = (n + 1) % table.len();
                    }
                    cands.push(n);
                }
                let dists: Vec<f64> = cands
                    .iter()
                    .map(|&c| ball.distance_arcosh(&table[u], &table[c]))
                    .collect();
                let smax = dists.iter().cloned().fold(f64::INFINITY, f64::min);
                let exps: Vec<f64> = dists.iter().map(|&d| (-(d - smax)).exp()).collect();
                let z: f64 = exps.iter().sum();
                let probs: Vec<f64> = exps.iter().map(|&e| e / z).collect();
                let mut grad_u = vec![0.0; table[u].len()];
                for (j, &cand) in cands.iter().enumerate() {
                    let coef = if j == 0 { 1.0 - probs[j] } else { -probs[j] };
                    if coef.abs() < 1e-12 {
                        continue;
                    }
                    let gu = distance_grad_x(&table[u], &table[cand]);
                    for (acc, g) in grad_u.iter_mut().zip(&gu) {
                        *acc += coef * g;
                    }
                    let gv = distance_grad_x(&table[cand], &table[u]);
                    let scaled: Vec<f64> = gv.iter().map(|&g| coef * g).collect();
                    rsgd_step(&ball, &mut table[cand], &scaled, lr);
                }
                rsgd_step(&ball, &mut table[u], &grad_u, lr);
            }
        }
    }

    #[test]
    fn fit_matches_reference_training_in_both_trained_spaces() {
        use cf_rand::SnapshotRng;
        let (dim, epochs) = (16, 12);
        for space in [FilterSpace::Hyperbolic, FilterSpace::Euclidean] {
            let mut rng = StdRng::seed_from_u64(11);
            let g = yago15k_sim(SynthScale::small(), &mut rng);
            let mut ref_rng = rng.clone();
            let f = ChainFilter::fit(&g, space, dim, 0.5, epochs, &mut rng);

            let vocab = ChainVocab::for_graph(&g);
            let size = vocab.num_rel_tokens() + vocab.num_attributes();
            let pairs = cooccurrence_pairs(&g, &vocab, 512, 3, &mut ref_rng);
            let (got, want): (Vec<&[f64]>, Vec<Vec<f64>>) = match space {
                FilterSpace::Hyperbolic => {
                    let init = PoincareEmbeddings::new(size, dim, &mut ref_rng);
                    let mut table: Vec<Vec<f64>> =
                        (0..size).map(|i| init.point(i).to_vec()).collect();
                    train_poincare_reference(&mut table, &pairs, epochs, 5, 0.05, &mut ref_rng);
                    let emb = f.hyper.as_ref().expect("hyperbolic table");
                    ((0..size).map(|i| emb.point(i)).collect(), table)
                }
                _ => {
                    let mut table: Vec<Vec<f64>> = (0..size)
                        .map(|_| (0..dim).map(|_| ref_rng.gen_range(-0.01..0.01)).collect())
                        .collect();
                    train_euclidean_reference(&mut table, &pairs, epochs, 5, 0.05, &mut ref_rng);
                    let eucl = f.eucl.as_ref().expect("euclidean table");
                    (eucl.iter().map(Vec::as_slice).collect(), table)
                }
            };
            assert!(pairs.len() > 100, "{space:?}: only {} pairs", pairs.len());
            assert_eq!(got.len(), want.len(), "{space:?}");
            for (i, (x, y)) in got.iter().zip(&want).enumerate() {
                let xb: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
                let yb: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
                assert_eq!(xb, yb, "{space:?}: token {i} differs");
            }
            assert_eq!(rng.state_words(), ref_rng.state_words(), "{space:?}");
        }
    }

    #[test]
    fn selection_is_stable_for_k_larger_than_toc() {
        let (g, f, mut rng) = setup(FilterSpace::Hyperbolic);
        let toc = toc_for_first_query(&g, &mut rng);
        let selected = f.select_top_k(&toc, 10_000, &mut rng);
        assert_eq!(selected.len(), toc.len());
    }
}
