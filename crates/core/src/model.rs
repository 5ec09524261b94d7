//! The assembled ChainsFormer model: Query Retrieval → Hyperbolic Filter →
//! Chain Encoder → Numerical Reasoner (Figure 3).

use crate::config::ChainsFormerConfig;
use crate::encoder::{ChainEncoder, PatternCache};
use crate::filter::ChainFilter;
use crate::fitted::Fitted;
use crate::quality::ChainQualityTracker;
use crate::reasoner::{NumericalReasoner, ReasonerOutput};
use cf_chains::{retrieve, retrieve_row, ChainInstance, ChainVocab, Query, RaChain, TreeOfChains};
use cf_kg::{ChainEntry, ChainIndexView, GraphView, KnowledgeGraph, MinMaxNormalizer, NumTriple};
use cf_rand::rngs::StdRng;
use cf_rand::{Rng, SeedableRng};
use cf_tensor::{Forward, InferCtx, ParamStore, Tape, Var};

/// One explained evidence chain in a prediction.
#[derive(Clone, Debug)]
pub struct ExplainedChain {
    /// The chain pattern.
    pub chain: RaChain,
    /// Entity carrying the known value (`v_p`).
    pub source: cf_kg::EntityId,
    /// The known value `n_p`.
    pub known_value: f64,
    /// Importance score `ω` from the Treeformer.
    pub weight: f32,
    /// This chain's own prediction `n̂_{p_i}`.
    pub prediction: f32,
}

/// A prediction with its reasoning trace (for Table V / Figure 5 analyses).
#[derive(Clone, Debug)]
pub struct PredictionDetail {
    /// The answered query.
    pub query: Query,
    /// The predicted value `n̂_q` (raw units).
    pub value: f64,
    /// True when no chains were retrievable and the train-mean fallback was
    /// used.
    pub used_fallback: bool,
    /// ToC size before filtering.
    pub retrieved: usize,
    /// Evidence chains with weights and per-chain predictions.
    pub chains: Vec<ExplainedChain>,
}

/// The ChainsFormer model. Construction pre-trains (and freezes) the filter
/// embeddings; the encoder/reasoner parameters live in [`Self::params`] and
/// are trained by [`crate::train::Trainer`]. A checkpoint holds both halves,
/// so [`Self::load`] rebuilds the trained model without fitting anything.
///
/// `Clone` copies the whole model, parameters included; a `cf-serve`
/// engine holds one model for all its shards and never clones it.
#[derive(Clone)]
pub struct ChainsFormer {
    /// The configuration the model was built with.
    pub cfg: ChainsFormerConfig,
    /// Learnable parameters (encoder + reasoner).
    pub params: ParamStore,
    encoder: ChainEncoder,
    reasoner: NumericalReasoner,
    /// Vocabulary, filter, normalizer and fallback means: what the model
    /// derives from its graph, stored in the checkpoint's `model` section.
    fitted: Fitted,
    /// Chain-quality prior (populated by the trainer when
    /// `cfg.chain_quality` is on; see [`crate::quality`]).
    pub quality: Option<ChainQualityTracker>,
}

impl ChainsFormer {
    /// Builds the model against a *visible* graph (evaluation answers
    /// already hidden) and the training triples (for normalization ranges
    /// and fallback means).
    pub fn new(
        visible: &KnowledgeGraph,
        train: &[NumTriple],
        cfg: ChainsFormerConfig,
        rng: &mut impl Rng,
    ) -> Self {
        cfg.validate().expect("invalid configuration");
        let vocab = ChainVocab::for_graph(visible);
        let filter = ChainFilter::fit(
            visible,
            cfg.filter_space,
            cfg.filter_dim,
            cfg.lambda,
            cfg.filter_epochs,
            rng,
        );
        let mut params = ParamStore::new();
        let encoder = ChainEncoder::new(&mut params, &cfg, vocab, Some(&filter), rng);
        let reasoner = NumericalReasoner::new(&mut params, &cfg, rng);
        let norm = MinMaxNormalizer::fit(visible.num_attributes(), train);
        let mut sums = vec![(0.0f64, 0usize); visible.num_attributes()];
        for t in train {
            let s = &mut sums[t.attr.0 as usize];
            s.0 += t.value;
            s.1 += 1;
        }
        let fallback = sums
            .iter()
            .map(|&(s, n)| if n > 0 { s / n as f64 } else { 0.0 })
            .collect();
        ChainsFormer {
            cfg,
            params,
            encoder,
            reasoner,
            fitted: Fitted {
                vocab,
                filter,
                norm,
                fallback,
            },
            quality: None,
        }
    }

    /// Loads the whole model a checkpoint holds — its parameters and its
    /// `model` section — for serving over `graph`, with no filter fit and
    /// no pass over training facts. The architecture comes from `cfg` and
    /// the graph's vocabulary; the section must agree with both, and the
    /// parameters must match the architecture's names and shapes. A
    /// checkpoint without the section is [`CheckpointError::Missing`]; one
    /// that disagrees is [`CheckpointError::Mismatch`].
    ///
    /// [`CheckpointError::Missing`]: cf_tensor::CheckpointError::Missing
    /// [`CheckpointError::Mismatch`]: cf_tensor::CheckpointError::Mismatch
    pub fn load(
        path: impl AsRef<std::path::Path>,
        cfg: ChainsFormerConfig,
        graph: &impl GraphView,
    ) -> Result<Self, cf_tensor::CheckpointError> {
        cfg.validate().expect("invalid configuration");
        let vocab = ChainVocab::for_graph(graph);
        let (fitted, ck) = read_model(path.as_ref(), &cfg, vocab)?;
        // The layout the file's parameters must fit. Its initial values are
        // all replaced by the file's.
        let mut layout = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let encoder = ChainEncoder::new(&mut layout, &cfg, vocab, None, &mut rng);
        let reasoner = NumericalReasoner::new(&mut layout, &cfg, &mut rng);
        let (params, _) = ck.decode(layout)?;
        Ok(ChainsFormer {
            cfg,
            params,
            encoder,
            reasoner,
            fitted,
            quality: None,
        })
    }

    /// This model's architecture with the whole model a checkpoint holds
    /// (parameters and `model` section), validated against this model's
    /// configuration and vocabulary. `self` is untouched; hot reload swaps
    /// the result in.
    pub fn reloaded(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<Self, cf_tensor::CheckpointError> {
        self.read_file(path.as_ref()).map(|(model, _)| model)
    }

    /// [`Self::reloaded`] plus the file's training state, if it has one.
    pub(crate) fn read_file(
        &self,
        path: &std::path::Path,
    ) -> Result<(Self, Option<cf_tensor::TrainState>), cf_tensor::CheckpointError> {
        let (fitted, ck) = read_model(path, &self.cfg, self.fitted.vocab)?;
        let (params, state) = ck.decode(self.params.clone())?;
        let model = ChainsFormer {
            cfg: self.cfg.clone(),
            params,
            encoder: self.encoder.clone(),
            reasoner: self.reasoner.clone(),
            fitted,
            quality: self.quality.clone(),
        };
        Ok((model, state))
    }

    /// The CFT2 `model` section body for this model.
    pub(crate) fn model_section(&self) -> Vec<u8> {
        self.fitted.encode(self.cfg.seed)
    }

    /// The chain token vocabulary.
    pub fn vocab(&self) -> &ChainVocab {
        &self.fitted.vocab
    }

    /// Min-max normalizer fitted on the training triples.
    pub fn normalizer(&self) -> &MinMaxNormalizer {
        &self.fitted.norm
    }

    /// The (frozen) chain filter.
    pub fn filter(&self) -> &ChainFilter {
        &self.fitted.filter
    }

    /// Retrieval + setting restriction + filter: produces the Enhanced ToC
    /// `T_q^k` for a query.
    pub fn gather_chains(
        &self,
        graph: &impl GraphView,
        query: Query,
        rng: &mut impl Rng,
    ) -> (TreeOfChains, usize) {
        let toc = retrieve(graph, query, &self.cfg.retrieval(), rng);
        self.select_chains(toc, query, rng)
    }

    /// [`Self::gather_chains`] over a precomputed chain index instead of
    /// graph walks (`cf_chains::retrieve_indexed`): same setting
    /// restriction, filter and quality pruning, but the candidate chains
    /// come from an index lookup rather than `num_walks` random walks.
    pub fn gather_chains_indexed(
        &self,
        index: &impl ChainIndexView,
        query: Query,
        rng: &mut impl Rng,
    ) -> (TreeOfChains, usize) {
        self.gather_chains_row(index.entries_of(query.entity), query, rng)
    }

    /// [`Self::gather_chains_indexed`] over one index row of
    /// `query.entity` (`cf_chains::retrieve_row`): a stored row, or one
    /// `cf_kg::collect_entity` computed against a live graph.
    pub fn gather_chains_row(
        &self,
        row: &[ChainEntry],
        query: Query,
        rng: &mut impl Rng,
    ) -> (TreeOfChains, usize) {
        let toc = retrieve_row(row, query, &self.cfg.retrieval(), rng);
        self.select_chains(toc, query, rng)
    }

    /// The step after retrieval: the setting restriction, the filter's
    /// top-k and quality pruning. Returns the kept chains and how many were
    /// retrieved.
    fn select_chains(
        &self,
        mut toc: TreeOfChains,
        query: Query,
        rng: &mut impl Rng,
    ) -> (TreeOfChains, usize) {
        let retrieved = toc.len();
        if !self.cfg.setting.multi_attribute {
            toc.chains.retain(|c| c.chain.known_attr == query.attr);
        }
        let mut selected = self.fitted.filter.select_top_k(&toc, self.cfg.top_k, rng);
        if self.cfg.chain_quality {
            if let Some(q) = &self.quality {
                selected.chains = q.prune(selected.chains, self.cfg.quality_prune_factor);
            }
        }
        (selected, retrieved)
    }

    /// Runs the forward pass for one query's chains on any evaluation
    /// context — a [`Tape`] when gradients are needed, an [`InferCtx`] for
    /// the tape-free serving path. The prediction var is in raw attribute
    /// units.
    pub fn forward<F: Forward>(
        &self,
        ctx: &mut F,
        chains: &[ChainInstance],
        query: Query,
    ) -> ReasonerOutput {
        let e_tilde = self.encoder.forward(ctx, &self.params, chains);
        self.reasoner.forward(
            ctx,
            &self.params,
            e_tilde,
            chains,
            &self.fitted.norm,
            query.attr,
        )
    }

    /// Normalizes a raw-unit prediction var to the query attribute's [0, 1]
    /// training scale (Eq. 23) on the tape.
    pub fn normalize_on_tape(&self, tape: &mut Tape, pred: Var, query: Query) -> Var {
        let min = self.fitted.norm.min(query.attr) as f32;
        let range = self.fitted.norm.range(query.attr) as f32;
        let shifted = tape.add_scalar(pred, -min);
        tape.mul_scalar(shifted, 1.0 / range)
    }

    /// The train-mean fallback for a query attribute.
    pub fn fallback_value(&self, query: Query) -> f64 {
        self.fitted.fallback[query.attr.0 as usize]
    }

    /// Saves the whole model to `path` as a CRC-protected CFT2 checkpoint:
    /// the trained parameters and the `model` section (filter table,
    /// normalizer, fallback means, vocabulary sizes). Written atomically
    /// and durably (tmp + fsync + rename; see [`cf_tensor::serialize`]) — a
    /// crash mid-save leaves the previous file intact, never a torn one.
    /// [`Self::load`] rebuilds the model from it.
    pub fn save_params_to(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        cf_tensor::save_checkpoint_atomic(&self.params, Some(&self.model_section()), None, path)
    }

    /// Installs the whole model a checkpoint written by
    /// [`Self::save_params_to`] or by training holds: its parameters and
    /// its `model` section together. Any training state in the file is
    /// validated and discarded. Fails (without changing the model) on any
    /// corruption, on a missing `model` section, and on a name/shape or
    /// section mismatch.
    pub fn load_params_from(
        &mut self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), cf_tensor::CheckpointError> {
        *self = self.reloaded(path)?;
        Ok(())
    }

    /// Full inference for one query, with the reasoning trace: a one-job
    /// [`Self::predict_batch_with_chains`] on the tape-free path.
    pub fn predict(
        &self,
        graph: &impl GraphView,
        query: Query,
        rng: &mut impl Rng,
    ) -> PredictionDetail {
        let (toc, retrieved) = self.gather_chains(graph, query, rng);
        self.predict_batch_with_chains(&[(query, &toc.chains, retrieved)])
            .pop()
            .expect("one job, one prediction")
    }

    /// Batched tape-free inference over queries whose chains are already
    /// resolved (the serving engine resolves them through its chain cache).
    ///
    /// Convenience wrapper around [`Self::predict_batch_with_chains_in`]
    /// with a throwaway context; long-lived callers (serve workers, benches)
    /// should hold one [`InferCtx`] and reuse it so the numeric substrate
    /// stops allocating after the first batch.
    pub fn predict_batch_with_chains(&self, jobs: &[ResolvedQuery<'_>]) -> Vec<PredictionDetail> {
        let mut ctx = InferCtx::new();
        self.predict_batch_with_chains_in(jobs, &mut ctx)
    }

    /// [`Self::predict_batch_with_chains`] running on a caller-owned
    /// [`InferCtx`]: f32, or int8 when the context has this model's
    /// quantized weights attached ([`InferCtx::set_weights`]). The context
    /// is cleared on entry; its value arena (and, through the tensor buffer
    /// pool, every op's scratch) is reused across calls, so a warm worker
    /// serves predictions without touching the heap in the model forward.
    ///
    /// Runs [`Self::predict_batch_cached`] on a throwaway [`PatternCache`],
    /// so a pattern is encoded once per call.
    pub fn predict_batch_with_chains_in(
        &self,
        jobs: &[ResolvedQuery<'_>],
        ctx: &mut InferCtx,
    ) -> Vec<PredictionDetail> {
        self.predict_batch_cached(jobs, ctx, &mut PatternCache::new())
    }

    /// [`Self::predict_batch_with_chains_in`] with the Chain Encoder's rows
    /// kept in `cache` across calls: only the patterns it lacks are
    /// encoded. The answers are bit for bit those of
    /// [`Self::forward`] on a fresh context. `cache` must have been filled
    /// by this model with the weights `ctx` carries now (see
    /// [`PatternCache`]).
    pub fn predict_batch_cached(
        &self,
        jobs: &[ResolvedQuery<'_>],
        ctx: &mut InferCtx,
        cache: &mut PatternCache,
    ) -> Vec<PredictionDetail> {
        let mut details: Vec<PredictionDetail> = jobs
            .iter()
            .map(|&(query, _, retrieved)| PredictionDetail {
                query,
                value: self.fallback_value(query),
                used_fallback: true,
                retrieved,
                chains: Vec::new(),
            })
            .collect();
        self.forward_batch(jobs, ctx, cache, |i, ctx, out| {
            let weights = ctx.value(out.weights).data();
            let chain_preds = ctx.value(out.chain_predictions).data();
            let detail = &mut details[i];
            detail.value = ctx.value(out.prediction).item() as f64;
            detail.used_fallback = false;
            detail.chains = jobs[i]
                .1
                .iter()
                .zip(weights.iter().zip(chain_preds))
                .map(|(ci, (&weight, &prediction))| ExplainedChain {
                    chain: ci.chain.clone(),
                    source: ci.source,
                    known_value: ci.value,
                    weight,
                    prediction,
                })
                .collect();
        });
        details
    }

    /// The tape-free forward behind [`Self::predict_batch_cached`], without
    /// the explanation payload: the `e_c` rows of every chain of every job
    /// through `cache` ([`ChainEncoder::encode_cached`]), the affine
    /// transfer over all of them at once, then the reasoner per job. Hands
    /// each job that has chains to `each` as (job index, context, output);
    /// a job without chains is skipped. Clears `ctx` on entry.
    pub fn forward_batch(
        &self,
        jobs: &[ResolvedQuery<'_>],
        ctx: &mut InferCtx,
        cache: &mut PatternCache,
        mut each: impl FnMut(usize, &InferCtx, &ReasonerOutput),
    ) {
        ctx.clear();
        let batch = || jobs.iter().flat_map(|job| job.1);
        let n = batch().count();
        if n == 0 {
            return;
        }
        let e_c =
            self.encoder
                .encode_cached(ctx, &self.params, cache, n, batch().map(|c| &c.chain));
        let e_all = self
            .encoder
            .affine_transfer(ctx, &self.params, e_c, batch().map(|c| c.value));
        let mut start = 0;
        for (i, &(query, chains, _)) in jobs.iter().enumerate() {
            if chains.is_empty() {
                continue;
            }
            let mut idx = cf_tensor::pool::Scratch::<usize>::with_capacity(chains.len());
            idx.extend(start..start + chains.len());
            start += chains.len();
            let e_q = ctx.select_rows(e_all, &idx);
            let out = self.reasoner.forward(
                ctx,
                &self.params,
                e_q,
                chains,
                &self.fitted.norm,
                query.attr,
            );
            each(i, ctx, &out);
        }
    }
}

/// Reads a checkpoint's framing and its `model` section, checked against
/// `cfg` and `vocab`; the parameters are left for the caller to decode
/// against its layout.
fn read_model(
    path: &std::path::Path,
    cfg: &ChainsFormerConfig,
    vocab: ChainVocab,
) -> Result<(Fitted, cf_tensor::Checkpoint), cf_tensor::CheckpointError> {
    let f = std::fs::File::open(path)?;
    let ck = cf_tensor::Checkpoint::read(std::io::BufReader::new(f))?;
    let body = ck
        .model()
        .ok_or(cf_tensor::CheckpointError::Missing { section: "model" })?;
    Ok((Fitted::decode(body, cfg, vocab)?, ck))
}

/// One query's resolved evidence for
/// [`ChainsFormer::predict_batch_with_chains`]: the query, its filtered
/// chains (possibly empty), and the pre-filter retrieval count.
pub type ResolvedQuery<'a> = (Query, &'a [ChainInstance], usize);

#[cfg(test)]
mod tests {
    use super::*;
    use cf_kg::synth::{yago15k_sim, SynthScale};
    use cf_kg::Split;
    use cf_rand::rngs::StdRng;
    use cf_rand::SeedableRng;

    fn setup() -> (KnowledgeGraph, Split, ChainsFormer, StdRng) {
        let mut rng = StdRng::seed_from_u64(0);
        let g = yago15k_sim(SynthScale::small(), &mut rng);
        let split = Split::paper_811(&g, &mut rng);
        let visible = split.visible_graph(&g);
        let model = ChainsFormer::new(&visible, &split.train, ChainsFormerConfig::tiny(), &mut rng);
        (visible, split, model, rng)
    }

    #[test]
    fn predict_returns_finite_value_with_trace() {
        let (visible, split, model, mut rng) = setup();
        let q = Query {
            entity: split.test[0].entity,
            attr: split.test[0].attr,
        };
        let detail = model.predict(&visible, q, &mut rng);
        assert!(detail.value.is_finite());
        if !detail.used_fallback {
            let wsum: f32 = detail.chains.iter().map(|c| c.weight).sum();
            assert!((wsum - 1.0).abs() < 1e-4, "weights sum to {wsum}");
        }
    }

    #[test]
    fn fallback_used_for_isolated_entity() {
        let (_, split, model, mut rng) = setup();
        // Build a graph with an isolated entity carrying the same vocab.
        let mut g2 = KnowledgeGraph::new();
        for _ in 0..1 {
            g2.add_entity("iso");
        }
        // Vocabulary must match the model's graph; reuse attribute count by
        // adding the same number of attribute types.
        for i in 0..7 {
            g2.add_attribute_type(format!("a{i}"));
        }
        g2.build_index();
        let q = Query {
            entity: cf_kg::EntityId(0),
            attr: split.test[0].attr,
        };
        let detail = model.predict(&g2, q, &mut rng);
        assert!(detail.used_fallback);
        assert_eq!(detail.value, model.fallback_value(q));
    }

    #[test]
    fn gather_respects_top_k() {
        let (visible, split, model, mut rng) = setup();
        let q = Query {
            entity: split.train[0].entity,
            attr: split.train[0].attr,
        };
        let (toc, _) = model.gather_chains(&visible, q, &mut rng);
        assert!(toc.len() <= model.cfg.top_k);
    }

    #[test]
    fn single_attribute_setting_filters_chains() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = yago15k_sim(SynthScale::small(), &mut rng);
        let split = Split::paper_811(&g, &mut rng);
        let visible = split.visible_graph(&g);
        let cfg = ChainsFormerConfig {
            setting: crate::config::ReasoningSetting {
                max_hops: 3,
                multi_attribute: false,
            },
            ..ChainsFormerConfig::tiny()
        };
        let model = ChainsFormer::new(&visible, &split.train, cfg, &mut rng);
        for t in split.train.iter().take(10) {
            let q = Query {
                entity: t.entity,
                attr: t.attr,
            };
            let (toc, _) = model.gather_chains(&visible, q, &mut rng);
            for c in &toc.chains {
                assert_eq!(c.chain.known_attr, q.attr);
            }
        }
    }

    #[test]
    fn normalize_on_tape_matches_normalizer() {
        let (_, split, model, _) = setup();
        let q = Query {
            entity: split.train[0].entity,
            attr: split.train[0].attr,
        };
        let mut tape = Tape::new();
        let raw = tape.constant(cf_tensor::Tensor::scalar(1234.5));
        let normed = model.normalize_on_tape(&mut tape, raw, q);
        let expect = model.normalizer().normalize(q.attr, 1234.5);
        assert!((tape.value(normed).item() as f64 - expect).abs() < 1e-3);
    }
}
