//! Training loop (Algorithm 1), evaluation, and crash-safe resume.

use crate::config::Loss;
use crate::model::ChainsFormer;
use cf_chains::{Query, TreeOfChains};
use cf_kg::{KnowledgeGraph, NumTriple, Prediction, RegressionReport, Split};
use cf_rand::seq::SliceRandom;
use cf_rand::{Rng, SnapshotRng};
use cf_tensor::optim::{clip_global_norm, Adam};
use cf_tensor::{pool, CheckpointError, GradStore, ParamId, Shape, Tape, Tensor, TrainState};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Number of gradient shards each batch is split into. Deliberately a
/// constant — never derived from the live thread count — so the per-shard
/// forward/backward graphs and the fixed-order shard merge are the same at
/// `CF_THREADS=1` and `CF_THREADS=64`, making the trained bits a pure
/// function of the data and seed.
const GRAD_SHARDS: usize = 8;

/// One query's pre-gathered evidence, produced by the serial retrieval
/// phase (which owns the data-order RNG) and consumed by a shard worker.
struct GatheredQuery {
    query: Query,
    /// Ground-truth attribute value of the training triple.
    value: f64,
    toc: TreeOfChains,
}

/// Per-query results written by a shard worker and applied serially, in
/// query order, after the parallel phase joins.
#[derive(Default)]
struct QueryOut {
    loss: f64,
    /// Per-chain predictions, captured only when chain-quality tracking is
    /// on (the tracker must observe chains in visit order, on one thread).
    preds: Vec<f32>,
}

/// One shard's gradient contribution: a flat image of every parameter
/// gradient plus per-parameter touch flags. Pre-sized once per run and
/// reused every batch, so steady-state training stays allocation-free.
struct ShardGrad {
    flat: Vec<f32>,
    touched: Vec<bool>,
}

/// Per-epoch training telemetry.
#[derive(Clone, Debug)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over counted queries.
    pub train_loss: f64,
    /// Normalized validation MAE, when a validation pass ran this epoch.
    pub valid_mae: Option<f64>,
    /// Queries skipped because no evidence chains were retrievable.
    pub skipped: usize,
}

/// Result of a full training run.
#[derive(Clone, Debug)]
pub struct TrainResult {
    /// Per-epoch telemetry, in order. After a resume this holds only the
    /// epochs run by *this* invocation; `EpochStats::epoch` carries the
    /// absolute index, so concatenating invocations reconstructs the full
    /// trajectory.
    pub epochs: Vec<EpochStats>,
    /// Epoch index with the best validation MAE (if validation was used).
    pub best_epoch: Option<usize>,
    /// True when the run stopped early on an interrupt signal (or a
    /// `stop_after_epochs` fault-injection bound) rather than finishing.
    pub interrupted: bool,
}

/// Errors from checkpointed training ([`Trainer::train_opts`]).
#[derive(Debug)]
pub enum TrainError {
    /// Reading or writing the checkpoint file failed (an I/O error names
    /// the file), or the checkpoint is rejected (corrupt, CRC failure, or
    /// shape/name mismatch against the freshly built model).
    Checkpoint(CheckpointError),
    /// The checkpoint was written under a different configuration; resuming
    /// it would produce a trajectory matching neither run.
    ConfigMismatch {
        /// Fingerprint of the live configuration.
        expected: u64,
        /// Fingerprint stored in the checkpoint.
        found: u64,
    },
    /// `resume` was requested but the checkpoint carries no training state
    /// (a finished params-only artifact).
    NotResumable,
    /// `resume` was requested with `chain_quality` on. No checkpoint holds
    /// the chain-quality tracker, so a resumed run would restart it empty
    /// and diverge from the uninterrupted run.
    QualityNotResumable,
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Checkpoint(e @ CheckpointError::Io { .. }) => write!(f, "checkpoint {e}"),
            TrainError::Checkpoint(e) => write!(f, "checkpoint rejected: {e}"),
            TrainError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint was written under a different config \
                 (fingerprint {found:#018x}, expected {expected:#018x})"
            ),
            TrainError::NotResumable => write!(
                f,
                "checkpoint has no training state (a finished params-only artifact) — \
                 it can be served, not resumed"
            ),
            TrainError::QualityNotResumable => write!(
                f,
                "chain-quality training cannot resume: no checkpoint holds the \
                 chain-quality tracker, so a resumed run would restart it empty"
            ),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        TrainError::Checkpoint(e)
    }
}

/// Knobs for checkpointed training. `Default` disables everything, which
/// makes [`Trainer::train_opts`] behave exactly like [`Trainer::train`].
#[derive(Clone, Debug, Default)]
pub struct TrainOptions {
    /// When set, a full CFT2 checkpoint (params, model section, optimizer,
    /// RNG and cursor) is written atomically here at every epoch boundary,
    /// and a final checkpoint of the shipped (best-validation) model, its
    /// params and model section without training state, replaces it when
    /// the run finishes.
    pub checkpoint_path: Option<PathBuf>,
    /// Resume from `checkpoint_path` instead of starting at epoch 0. The
    /// checkpoint must carry training state and match the live config's
    /// fingerprint; the caller's RNG is rewound to the stored state, so the
    /// resumed trajectory is bit-identical to the uninterrupted one. A run
    /// with `chain_quality` on cannot resume
    /// ([`TrainError::QualityNotResumable`]).
    pub resume: bool,
    /// Cooperative interrupt flag (set from a SIGINT handler): checked at
    /// every batch boundary; when raised, training stops, the best params
    /// are restored, and the final checkpoint is still written durably.
    pub interrupt: Option<Arc<AtomicBool>>,
    /// Fault injection for tests: return (as `interrupted`) after this many
    /// epochs *of this invocation*, skipping the best-restore and final
    /// save — exactly what a `kill -9` after the epoch-boundary checkpoint
    /// looks like.
    pub stop_after_epochs: Option<usize>,
}

/// Trains a [`ChainsFormer`] on a split (Algorithm 1: per query retrieve →
/// filter → encode → reason → accumulate loss; per batch: backprop + Adam).
pub struct Trainer<'a> {
    /// The model being trained.
    pub model: &'a mut ChainsFormer,
    /// The graph visible to the model (eval answers hidden).
    pub visible: &'a KnowledgeGraph,
}

impl<'a> Trainer<'a> {
    /// A trainer borrowing the model and its visible graph.
    pub fn new(model: &'a mut ChainsFormer, visible: &'a KnowledgeGraph) -> Self {
        Trainer { model, visible }
    }

    /// Runs the configured number of epochs with early stopping on
    /// validation normalized MAE (patience from the config; 0 disables).
    pub fn train(&mut self, split: &Split, rng: &mut impl SnapshotRng) -> TrainResult {
        self.train_opts(split, rng, &TrainOptions::default())
            .expect("training without checkpointing cannot fail")
    }

    /// [`Self::train`] with crash safety: epoch-boundary CFT2 checkpoints,
    /// bitwise resume, and cooperative interrupts (see [`TrainOptions`]).
    ///
    /// Resume contract: `(train, crash, resume)` replays the uninterrupted
    /// run bit-for-bit — the checkpoint captures parameters, Adam moments
    /// and step count, the data-order RNG, and the early-stopping cursor at
    /// an epoch boundary, which together determine every subsequent update.
    pub fn train_opts(
        &mut self,
        split: &Split,
        rng: &mut impl SnapshotRng,
        opts: &TrainOptions,
    ) -> Result<TrainResult, TrainError> {
        let cfg = self.model.cfg.clone();
        if opts.resume && cfg.chain_quality {
            return Err(TrainError::QualityNotResumable);
        }
        if cfg.chain_quality && self.model.quality.is_none() {
            self.model.quality = Some(crate::quality::ChainQualityTracker::default());
        }
        let mut opt = Adam::new(cfg.lr);
        let mut order: Vec<usize> = (0..split.train.len()).collect();
        let mut epochs = Vec::new();
        let mut best: Option<(usize, f64)> = None;
        let mut best_params: Option<cf_tensor::ParamStore> = None;
        let mut bad_epochs = 0usize;
        let mut start_epoch = 0usize;
        let fingerprint = cfg.fingerprint();

        if opts.resume {
            let path = opts
                .checkpoint_path
                .as_deref()
                .expect("TrainOptions::resume requires checkpoint_path");
            let (model, state) = self.model.read_file(path)?;
            let state = state.ok_or(TrainError::NotResumable)?;
            if state.config_fingerprint != fingerprint {
                return Err(TrainError::ConfigMismatch {
                    expected: fingerprint,
                    found: state.config_fingerprint,
                });
            }
            *self.model = model;
            opt.restore(state.adam);
            rng.restore_state_words(state.rng);
            start_epoch = state.next_epoch as usize;
            bad_epochs = state.bad_epochs as usize;
            best = state
                .best_epoch
                .zip(state.best_val)
                .map(|(e, v)| (e as usize, v));
            best_params = state.best_params;
        }

        // The fitted half of the model is frozen: every checkpoint of the
        // run carries the same `model` section.
        let section = self.model.model_section();

        // Data-parallel scaffolding, hoisted across the whole run: the flat
        // parameter layout for per-shard gradient images, the shard buffers
        // themselves, and the gather/output staging vectors.
        let num_params = self.model.params.len();
        let mut param_meta: Vec<(ParamId, Shape, usize, usize)> = Vec::with_capacity(num_params);
        let mut total_elems = 0usize;
        for (pid, _, t) in self.model.params.iter() {
            param_meta.push((pid, *t.shape(), total_elems, t.numel()));
            total_elems += t.numel();
        }
        let mut shard_grads: Vec<ShardGrad> = (0..GRAD_SHARDS)
            .map(|_| ShardGrad {
                flat: vec![0.0f32; total_elems],
                touched: vec![false; num_params],
            })
            .collect();
        let mut gathered: Vec<GatheredQuery> = Vec::with_capacity(cfg.batch_size);
        let mut outs: Vec<QueryOut> = Vec::new();

        let mut interrupted = false;
        'epochs: for epoch in start_epoch..cfg.epochs {
            // Reset to identity before shuffling: the epoch's visit order is
            // then a pure function of the RNG state at the epoch boundary
            // (what the checkpoint stores), not of the accumulated in-place
            // permutation history a resumed process wouldn't have.
            order.clear();
            order.extend(0..split.train.len());
            order.shuffle(rng);
            let mut total_loss = 0.0f64;
            let mut counted = 0usize;
            let mut skipped = 0usize;

            for batch in order.chunks(cfg.batch_size) {
                if let Some(flag) = &opts.interrupt {
                    if flag.load(Ordering::Relaxed) {
                        // Stop at a batch boundary. The disk checkpoint
                        // still holds the last epoch boundary, so the
                        // partial epoch in memory never taints resumability.
                        interrupted = true;
                        break 'epochs;
                    }
                }

                // Phase 1 — serial gather. Retrieval consumes the data-order
                // RNG exactly as a single-threaded loop would, so the stored
                // RNG state keeps determining the trajectory (resume safety).
                gathered.clear();
                for &qi in batch {
                    let triple = split.train[qi];
                    let query = Query {
                        entity: triple.entity,
                        attr: triple.attr,
                    };
                    let (toc, _) = self.model.gather_chains(self.visible, query, rng);
                    if toc.is_empty() {
                        skipped += 1;
                        continue;
                    }
                    gathered.push(GatheredQuery {
                        query,
                        value: triple.value,
                        toc,
                    });
                }
                if gathered.is_empty() {
                    continue;
                }
                let n = gathered.len();
                // Upstream gradient per query loss. Each shard's objective
                // is `sum(shard losses) * inv_b`, so summed over shards the
                // batch objective is the batch mean — and the per-loss seed
                // is bitwise the `g / n` that `mean_all`'s backward emits.
                let inv_b = 1.0f32 / n as f32;
                let shards = GRAD_SHARDS.min(n);
                if outs.len() < n {
                    outs.resize_with(n, QueryOut::default);
                }

                // Phase 2 — parallel shards. Shard s owns the contiguous
                // query range `slice_range(n, shards, s)`; each worker runs
                // its shard's forward/backward on a private tape and writes
                // gradients into its own pre-sized flat buffer. Inner
                // kernels see the pool as busy and run serially, so the
                // per-shard float-op sequence never depends on scheduling.
                {
                    let model: &ChainsFormer = self.model;
                    let record_preds = cfg.chain_quality;
                    let loss_kind = cfg.loss;
                    let gathered = &gathered[..];
                    let param_meta = &param_meta[..];
                    let outs_sh = pool::SharedMut::new(&mut outs[..n]);
                    let grads_sh = pool::SharedMut::new(&mut shard_grads[..shards]);
                    pool::parallel_for(shards, |sr| {
                        for s in sr {
                            // SAFETY: each shard index is visited exactly
                            // once, so the per-shard borrow never aliases.
                            let sg = &mut unsafe { grads_sh.get(s, 1) }[0];
                            for t in sg.touched.iter_mut() {
                                *t = false;
                            }
                            let qr = pool::slice_range(n, shards, s);
                            if qr.is_empty() {
                                continue;
                            }
                            // SAFETY: shard query ranges are disjoint.
                            let shard_outs = unsafe { outs_sh.get(qr.start, qr.len()) };
                            let mut tape = Tape::new();
                            let mut losses = Vec::with_capacity(qr.len());
                            for (gq, o) in gathered[qr].iter().zip(shard_outs) {
                                let out = model.forward(&mut tape, &gq.toc.chains, gq.query);
                                if record_preds {
                                    o.preds.clear();
                                    o.preds.extend_from_slice(
                                        tape.value(out.chain_predictions).data(),
                                    );
                                }
                                let pred_norm =
                                    model.normalize_on_tape(&mut tape, out.prediction, gq.query);
                                let target = Tensor::scalar(
                                    model.normalizer().normalize(gq.query.attr, gq.value) as f32,
                                );
                                let loss = match loss_kind {
                                    Loss::L1 => tape.l1_loss(pred_norm, &target),
                                    Loss::Mse => tape.mse_loss(pred_norm, &target),
                                };
                                o.loss = tape.value(loss).item() as f64;
                                losses.push(loss);
                            }
                            let stacked = tape.stack_rows(&losses);
                            let summed = tape.sum_all(stacked);
                            let objective = tape.mul_scalar(summed, inv_b);
                            let grads = tape.backward(objective, num_params);
                            for (i, (pid, _, off, len)) in param_meta.iter().enumerate() {
                                if let Some(g) = grads.param_grad(*pid) {
                                    sg.flat[*off..*off + *len].copy_from_slice(g.data());
                                    sg.touched[i] = true;
                                }
                            }
                            // `grads` and `tape` drop here, on the worker
                            // that built them: each worker's tape and
                            // gradient stashes stay warm across batches.
                        }
                    });
                }

                // Phase 3 — fixed-order reduction tree: parameters outer
                // (ascending id), shards inner (ascending index), serial
                // adds. The float-op sequence is a pure function of the
                // batch content, not of how shards were scheduled.
                let mut grads = GradStore::for_params(num_params);
                for (i, (pid, shape, off, len)) in param_meta.iter().enumerate() {
                    for sg in &shard_grads[..shards] {
                        if sg.touched[i] {
                            grads.add_param_grad(*pid, shape, &sg.flat[*off..*off + *len]);
                        }
                    }
                }
                clip_global_norm(&mut grads, cfg.grad_clip);
                opt.step(&mut self.model.params, &grads);

                // Phase 4 — serial epilogue in query order: loss bookkeeping
                // and the chain-quality prior observe queries exactly as the
                // single-threaded loop visited them.
                for (gq, o) in gathered.iter().zip(&outs) {
                    total_loss += o.loss;
                    counted += 1;
                    if cfg.chain_quality {
                        let truth_norm = self.model.normalizer().normalize(gq.query.attr, gq.value);
                        let errs: Vec<(cf_chains::RaChain, f64)> = gq
                            .toc
                            .chains
                            .iter()
                            .zip(&o.preds)
                            .map(|(ci, &p)| {
                                let pn = self.model.normalizer().normalize(gq.query.attr, p as f64);
                                (ci.chain.clone(), (pn - truth_norm).abs())
                            })
                            .collect();
                        if let Some(q) = &mut self.model.quality {
                            for (chain, err) in errs {
                                q.record(&chain, err);
                            }
                        }
                    }
                }
            }

            let train_loss = total_loss / counted.max(1) as f64;
            let valid_mae = if split.valid.is_empty() {
                None
            } else {
                Some(self.evaluate(&split.valid, rng).norm_mae)
            };
            epochs.push(EpochStats {
                epoch,
                train_loss,
                valid_mae,
                skipped,
            });

            let mut out_of_patience = false;
            if let Some(v) = valid_mae {
                match best {
                    Some((_, b)) if v >= b => {
                        bad_epochs += 1;
                        out_of_patience = cfg.patience > 0 && bad_epochs >= cfg.patience;
                    }
                    _ => {
                        best = Some((epoch, v));
                        best_params = Some(self.model.params.clone());
                        bad_epochs = 0;
                    }
                }
            }

            // Epoch-boundary checkpoint: the RNG was last consumed by the
            // validation pass above, so the stored state words are exactly
            // what the uninterrupted run would carry into the next epoch.
            if let Some(path) = &opts.checkpoint_path {
                let state = TrainState {
                    adam: opt.snapshot(),
                    rng: rng.state_words(),
                    next_epoch: (epoch + 1) as u64,
                    bad_epochs: bad_epochs as u64,
                    best_epoch: best.map(|(e, _)| e as u64),
                    best_val: best.map(|(_, v)| v),
                    config_fingerprint: fingerprint,
                    best_params: best_params.clone(),
                };
                save(&self.model.params, &section, Some(&state), path)?;
            }

            if out_of_patience {
                break;
            }
            if let Some(n) = opts.stop_after_epochs {
                if epoch + 1 - start_epoch >= n {
                    // Simulated crash: the epoch-boundary checkpoint is on
                    // disk, but skip the best-restore and final save the
                    // process would never have reached.
                    return Ok(TrainResult {
                        epochs,
                        best_epoch: best.map(|(e, _)| e),
                        interrupted: true,
                    });
                }
            }
        }
        // Early-stopping semantics: ship the best-validation checkpoint, not
        // whatever the final (possibly overfit/noisy) epoch left behind.
        if let Some(bp) = best_params {
            self.model.params = bp;
        }
        // Replace the resumable epoch-boundary checkpoint with the finished
        // artifact: params and model section, durably written. Resuming a finished run is
        // rejected with `TrainError::NotResumable` rather than silently
        // retraining from a non-boundary state.
        if let Some(path) = &opts.checkpoint_path {
            save(&self.model.params, &section, None, path)?;
        }
        Ok(TrainResult {
            epochs,
            best_epoch: best.map(|(e, _)| e),
            interrupted,
        })
    }

    /// Evaluates on a set of numeric triples, producing the Table-III style
    /// report (per-attribute MAE/RMSE + normalized averages).
    pub fn evaluate(&self, triples: &[NumTriple], rng: &mut impl Rng) -> RegressionReport {
        evaluate_model(self.model, self.visible, triples, rng)
    }
}

/// Writes one CFT2 checkpoint of the run atomically to `path`; an I/O
/// failure names the file.
fn save(
    params: &cf_tensor::ParamStore,
    section: &[u8],
    state: Option<&TrainState>,
    path: &std::path::Path,
) -> Result<(), CheckpointError> {
    cf_tensor::save_checkpoint_atomic(params, Some(section), state, path)
        .map_err(|e| CheckpointError::from(e).on(path))
}

/// Evaluation without holding a mutable trainer borrow.
pub fn evaluate_model(
    model: &ChainsFormer,
    visible: &KnowledgeGraph,
    triples: &[NumTriple],
    rng: &mut impl Rng,
) -> RegressionReport {
    let preds: Vec<Prediction> = triples
        .iter()
        .map(|t| {
            let q = Query {
                entity: t.entity,
                attr: t.attr,
            };
            let detail = model.predict(visible, q, rng);
            Prediction {
                attr: t.attr,
                truth: t.value,
                pred: detail.value,
            }
        })
        .collect();
    RegressionReport::compute(&preds, model.normalizer())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChainsFormerConfig;
    use cf_kg::synth::{yago15k_sim, SynthScale};
    use cf_rand::rngs::StdRng;
    use cf_rand::SeedableRng;

    fn train_tiny(
        cfg: ChainsFormerConfig,
        seed: u64,
    ) -> (ChainsFormer, KnowledgeGraph, Split, TrainResult, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = yago15k_sim(SynthScale::small(), &mut rng);
        let split = Split::paper_811(&g, &mut rng);
        let visible = split.visible_graph(&g);
        let mut model = ChainsFormer::new(&visible, &split.train, cfg, &mut rng);
        let result = Trainer::new(&mut model, &visible).train(&split, &mut rng);
        (model, visible, split, result, rng)
    }

    #[test]
    fn loss_decreases_during_training() {
        let cfg = ChainsFormerConfig {
            epochs: 6,
            ..ChainsFormerConfig::tiny()
        };
        let (_, _, _, result, _) = train_tiny(cfg, 0);
        assert!(result.epochs.len() >= 2);
        let first = result.epochs.first().unwrap().train_loss;
        let last = result.epochs.last().unwrap().train_loss;
        assert!(
            last < first,
            "training did not reduce loss: {first} -> {last}"
        );
        for e in &result.epochs {
            assert!(e.train_loss.is_finite());
        }
    }

    /// Summed over seeds 1..=6, because one tiny run is too noisy to judge:
    /// a last-bit change in any kernel moves a single seed's normalized MAE
    /// by up to 0.05, and some seeds lose to the mean predictor outright.
    #[test]
    fn evaluation_beats_mean_predictor() {
        let (mut model_sum, mut mean_sum) = (0.0, 0.0);
        let mut per_seed = Vec::new();
        for seed in 1..=6 {
            let cfg = ChainsFormerConfig {
                epochs: 20,
                patience: 0,
                ..ChainsFormerConfig::tiny()
            };
            let (model, visible, split, _, mut rng) = train_tiny(cfg, seed);
            let report = evaluate_model(&model, &visible, &split.test, &mut rng);
            // Reference: predicting each attribute's training mean.
            let mut sums = vec![(0.0f64, 0usize); visible.num_attributes()];
            for t in &split.train {
                let s = &mut sums[t.attr.0 as usize];
                s.0 += t.value;
                s.1 += 1;
            }
            let preds: Vec<cf_kg::Prediction> = split
                .test
                .iter()
                .map(|t| {
                    let (s, n) = sums[t.attr.0 as usize];
                    cf_kg::Prediction {
                        attr: t.attr,
                        truth: t.value,
                        pred: s / n.max(1) as f64,
                    }
                })
                .collect();
            let mean_report = cf_kg::RegressionReport::compute(&preds, model.normalizer());
            model_sum += report.norm_mae;
            mean_sum += mean_report.norm_mae;
            per_seed.push((seed, report.norm_mae, mean_report.norm_mae));
        }
        assert!(
            model_sum < mean_sum,
            "model (sum {model_sum}) did not beat the mean predictor (sum {mean_sum}); \
             per seed (seed, model, mean): {per_seed:?}"
        );
    }

    #[test]
    fn params_stay_finite_after_training() {
        let cfg = ChainsFormerConfig {
            epochs: 3,
            ..ChainsFormerConfig::tiny()
        };
        let (model, _, _, _, _) = train_tiny(cfg, 2);
        assert!(model.params.all_finite());
    }

    #[test]
    fn early_stopping_respects_patience() {
        let cfg = ChainsFormerConfig {
            epochs: 50,
            patience: 2,
            ..ChainsFormerConfig::tiny()
        };
        let (_, _, _, result, _) = train_tiny(cfg, 3);
        // With patience 2, training cannot run all 50 epochs unless the
        // validation MAE improves almost monotonically (implausible on this
        // tiny graph).
        assert!(result.epochs.len() <= 50);
        assert!(result.best_epoch.is_some());
    }
}
