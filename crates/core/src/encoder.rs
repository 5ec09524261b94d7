//! The Chain Encoder (§IV-D): In-Context Chain Representation via an
//! encoder-only Transformer (Eq. 11–13) and the Numerical-Aware Affine
//! Transfer (Eq. 14–16). Also hosts the Table-VI encoder ablations (LSTM,
//! mean pooling).

use crate::config::{ChainsFormerConfig, EncoderKind, ValueEncoding};
use crate::filter::ChainFilter;
use crate::value_encoding::{float_bits_into, log_features_into, FLOAT_BITS, LOG_FEATURES};
use cf_chains::{ChainInstance, ChainVocab, RaChain};
use cf_rand::Rng;
use cf_tensor::nn::{Embedding, Lstm, Mlp, TransformerEncoder};
use cf_tensor::{pool, Forward, InferCtx, ParamStore, Tensor, Var};
use std::collections::HashMap;

/// Encodes a batch of RA-Chains into value-aware chain representations
/// `ẽ_c ∈ R^d` (one row per chain).
#[derive(Clone, Debug)]
pub struct ChainEncoder {
    dim: usize,
    max_len: usize,
    kind: EncoderKind,
    token_emb: Embedding,
    pos_emb: Option<Embedding>,
    transformer: Option<TransformerEncoder>,
    lstm: Option<Lstm>,
    value_encoding: ValueEncoding,
    mlp_alpha: Option<Mlp>,
    mlp_beta: Option<Mlp>,
    vocab: ChainVocab,
}

impl ChainEncoder {
    /// Builds the encoder; when `filter` carries a trained hyperbolic table,
    /// token embeddings are initialised from its log-map (Eq. 12) so the
    /// Euclidean table starts where the hyperbolic pre-training ended.
    pub fn new(
        ps: &mut ParamStore,
        cfg: &ChainsFormerConfig,
        vocab: ChainVocab,
        filter: Option<&ChainFilter>,
        rng: &mut impl Rng,
    ) -> Self {
        let dim = cfg.dim;
        let max_len = cfg.setting.max_hops + 3; // a_p + rels + a_q + end
        let token_emb = Embedding::new(ps, "encoder.tokens", vocab.size(), dim, rng);
        if let Some(f) = filter {
            // Seed the Euclidean table with log-mapped hyperbolic points
            // (pad/end rows keep their random init).
            let table = ps.get_mut(token_emb.table);
            let seedable = vocab.num_rel_tokens() + vocab.num_attributes();
            for tok in 0..seedable {
                let v = f.log0_token(tok, dim);
                let row = &mut table.data_mut()[tok * dim..(tok + 1) * dim];
                for (slot, (&seed, existing)) in v
                    .iter()
                    .zip(row.iter().copied().collect::<Vec<_>>())
                    .enumerate()
                {
                    // Blend: keep a little noise so identical hyperbolic rows
                    // don't collapse the table.
                    row[slot] = seed + 0.1 * existing;
                }
            }
        }
        let pos_emb = cfg
            .positional
            .then(|| Embedding::new(ps, "encoder.positions", max_len, dim, rng));
        let (transformer, lstm) = match cfg.encoder {
            EncoderKind::Transformer => (
                Some(TransformerEncoder::new(
                    ps,
                    "encoder.tf",
                    dim,
                    cfg.heads,
                    cfg.layers,
                    cfg.ff_dim,
                    rng,
                )),
                None,
            ),
            EncoderKind::Lstm => (None, Some(Lstm::new(ps, "encoder.lstm", dim, dim, rng))),
            EncoderKind::MeanPool => (None, None),
        };
        let feat = match cfg.value_encoding {
            ValueEncoding::FloatBits => FLOAT_BITS,
            ValueEncoding::Log => LOG_FEATURES,
            ValueEncoding::Disabled => 0,
        };
        let (mlp_alpha, mlp_beta) = if feat > 0 {
            (
                Some(Mlp::new(
                    ps,
                    "encoder.alpha",
                    &[feat, dim, dim * dim],
                    cf_tensor::nn::Activation::Tanh,
                    rng,
                )),
                Some(Mlp::new(
                    ps,
                    "encoder.beta",
                    &[feat, dim, dim],
                    cf_tensor::nn::Activation::Tanh,
                    rng,
                )),
            )
        } else {
            (None, None)
        };
        ChainEncoder {
            dim,
            max_len,
            kind: cfg.encoder,
            token_emb,
            pos_emb,
            transformer,
            lstm,
            value_encoding: cfg.value_encoding,
            mlp_alpha,
            mlp_beta,
            vocab,
        }
    }

    /// Hidden dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Maximum supported token length (hops + framing).
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Encodes `chains` into `[k, d]` value-aware representations `ẽ_c`:
    /// [`Self::encode_patterns`] over the chains' patterns, then
    /// [`Self::affine_transfer`] with their values.
    ///
    /// Generic over the evaluation context: a [`cf_tensor::Tape`] for
    /// training or an [`cf_tensor::InferCtx`] for the tape-free serving
    /// path. The batch may concatenate the chains of several queries —
    /// every row's encoding depends only on that chain's own tokens and
    /// value (padded keys are softmax-inert), so per-query rows can be
    /// `select_rows`'d back out bitwise-unchanged.
    ///
    /// Panics on an empty batch — the caller (the model) handles empty
    /// Enhanced ToCs with a fallback predictor.
    pub fn forward<F: Forward>(&self, t: &mut F, ps: &ParamStore, chains: &[ChainInstance]) -> Var {
        assert!(
            !chains.is_empty(),
            "ChainEncoder::forward on an empty batch"
        );
        let e_c = self.encode_patterns(t, ps, chains.len(), |i| &chains[i].chain);
        self.affine_transfer(t, ps, e_c, chains.iter().map(|c| c.value))
    }

    /// The In-Context Chain Representation (Eq. 11–13) of `k` patterns,
    /// `pattern(i)` for `i < k`, as `[k, d]` rows `e_c`: token and
    /// positional embeddings, the sequence encoder, and the `e_end` row.
    ///
    /// A row reads its own pattern's tokens and the weights, nothing else:
    /// no chain value, no other row. Every op is row-local or masks padded
    /// keys to an exact `+0` softmax weight, each GEMM output element has one
    /// reduction order whatever the row count, and int8 activation scales
    /// are per row; so a pattern's row has the same bits in any batch, which
    /// is what lets [`PatternCache`] keep it.
    pub fn encode_patterns<'c, F: Forward>(
        &self,
        t: &mut F,
        ps: &ParamStore,
        k: usize,
        pattern: impl Fn(usize) -> &'c RaChain + Sync,
    ) -> Var {
        assert!(k > 0, "ChainEncoder::encode_patterns on an empty batch");
        // Tokenize with padding, straight into pooled flat buffers — the
        // steady-state training loop re-enters here every step, so no
        // per-chain or per-row vectors.
        let mut lens = pool::Scratch::<usize>::with_capacity(k);
        lens.extend((0..k).map(|i| pattern(i).token_len()));
        let t_max = lens.iter().copied().max().expect("non-empty");
        assert!(
            t_max <= self.max_len,
            "chain of {t_max} tokens exceeds configured max_len {}",
            self.max_len
        );
        let pad = self.vocab.pad_token();
        let mut flat_ids = pool::Scratch::<usize>::with_capacity(k * t_max);
        flat_ids.resize(k * t_max, pad);
        {
            // Chains tokenize independently into disjoint pre-padded rows,
            // so they fan out across the thread pool (pure index writes —
            // trivially bitwise invariant).
            let shared = pool::SharedMut::new(&mut flat_ids[..]);
            pool::parallel_for(k, |r| {
                for i in r {
                    // SAFETY: row `i` belongs to this slice alone.
                    let row = unsafe { shared.get(i * t_max, t_max) };
                    let chain = pattern(i);
                    chain.tokens_into_slice(&self.vocab, &mut row[..chain.token_len()]);
                }
            });
        }

        // Token + positional embeddings -> [k, T, d].
        let tok = self.token_emb.forward(t, ps, &flat_ids);
        let mut x = t.reshape(tok, [k, t_max, self.dim].into());
        if let Some(pe) = &self.pos_emb {
            let mut pos_ids = pool::Scratch::<usize>::with_capacity(k * t_max);
            for _ in 0..k {
                pos_ids.extend(0..t_max);
            }
            let pos = pe.forward(t, ps, &pos_ids);
            let pos = t.reshape(pos, [k, t_max, self.dim].into());
            x = t.add(x, pos);
        }

        // Sequence encoding -> [k, d]. The padding mask is prefix-shaped by
        // construction, so `lens` itself is the mask.
        match self.kind {
            EncoderKind::Transformer => {
                let enc = self.transformer.as_ref().expect("transformer");
                let h = enc.forward(t, ps, x, Some(&lens[..]));
                // e_end lives at position len-1 of each chain (Eq. 11/13).
                let flat = t.reshape(h, [k * t_max, self.dim].into());
                let mut idx = pool::Scratch::<usize>::with_capacity(k);
                idx.extend(lens.iter().enumerate().map(|(i, &l)| i * t_max + l - 1));
                t.select_rows(flat, &idx)
            }
            EncoderKind::Lstm => {
                let lstm = self.lstm.as_ref().expect("lstm");
                lstm.forward_last(t, ps, x, &lens)
            }
            EncoderKind::MeanPool => {
                // Masked mean of token embeddings ("w/o Chain Encoder").
                let mut w = pool::take(k * t_max);
                for &l in lens.iter() {
                    w.extend((0..t_max).map(|j| if j < l { 1.0 } else { 0.0 }));
                }
                let wv = t.constant(Tensor::new([k * t_max], w));
                let masked = t.scale_rows(x, wv);
                let summed = t.sum_dim1(masked); // [k, d]
                let mut inv = pool::take(k);
                inv.extend(lens.iter().map(|&l| 1.0 / l as f32));
                let invv = t.constant(Tensor::new([k], inv));
                t.scale_rows(summed, invv)
            }
        }
    }

    /// [`Self::encode_patterns`] of `patterns` (`k` of them) through
    /// `cache`, on the tape-free path: the patterns the cache lacks are
    /// encoded once each, deduplicated, in one padded batch and kept; every
    /// row is then copied out of the cache into a `[k, d]` constant. The
    /// rows are bit for bit the ones `encode_patterns` gives (see there).
    pub fn encode_cached<'c>(
        &self,
        ctx: &mut InferCtx,
        ps: &ParamStore,
        cache: &mut PatternCache,
        k: usize,
        patterns: impl Iterator<Item = &'c RaChain> + Clone,
    ) -> Var {
        assert!(k > 0, "ChainEncoder::encode_cached on an empty batch");
        let d = self.dim;
        let mut slots = pool::Scratch::<usize>::with_capacity(k);
        let missing = cache.resolve(d, patterns, &mut slots);
        assert_eq!(slots.len(), k, "encode_cached: pattern count");
        if !missing.is_empty() {
            let fresh = self.encode_patterns(ctx, ps, missing.len(), |i| missing[i]);
            cache.rows.extend_from_slice(ctx.value(fresh).data());
        }
        let mut rows = pool::take(k * d);
        for &s in slots.iter() {
            rows.extend_from_slice(&cache.rows[s * d..(s + 1) * d]);
        }
        ctx.constant(Tensor::new([k, d], rows))
    }

    /// The Numerical-Aware Affine Transfer (Eq. 14–16) of `e_c: [k, d]`
    /// with the `k` chains' known values: `ẽ_c = E_α(n)ᵀ e_c + E_β(n) + e_c`.
    /// Row-local, so it may run over any batch of rows.
    pub fn affine_transfer<F: Forward>(
        &self,
        t: &mut F,
        ps: &ParamStore,
        e_c: Var,
        values: impl Iterator<Item = f64>,
    ) -> Var {
        let (Some(mlp_a), Some(mlp_b)) = (&self.mlp_alpha, &self.mlp_beta) else {
            return e_c; // ValueEncoding::Disabled
        };
        let k = t.value(e_c).shape().leading();
        let feat_dim = match self.value_encoding {
            ValueEncoding::FloatBits => FLOAT_BITS,
            ValueEncoding::Log => LOG_FEATURES,
            ValueEncoding::Disabled => unreachable!("guarded above"),
        };
        let mut feats = pool::take(k * feat_dim);
        for value in values {
            match self.value_encoding {
                ValueEncoding::FloatBits => float_bits_into(value, &mut feats),
                ValueEncoding::Log => log_features_into(value, &mut feats),
                ValueEncoding::Disabled => unreachable!("guarded above"),
            }
        }
        let fv = t.constant(Tensor::new([k, feat_dim], feats));
        let alpha = mlp_a.forward(t, ps, fv); // [k, d*d]
        let alpha = t.reshape(alpha, [k, self.dim, self.dim].into());
        let e3 = t.reshape(e_c, [k, 1, self.dim].into());
        // (E_α^T · e_c) computed as the row-vector product e_cᵀ E_α.
        let rotated = t.bmm(e3, alpha); // [k, 1, d]
        let rotated = t.reshape(rotated, [k, self.dim].into());
        let beta = mlp_b.forward(t, ps, fv); // [k, d]
        let affine = t.add(rotated, beta);
        // Residual keeps the un-transferred representation reachable, which
        // stabilises early training (the affine net starts near-random).
        t.add(affine, e_c)
    }
}

/// Bytes of encoder rows a [`PatternCache`] holds before it empties: 4 MiB,
/// 21,845 rows at `d = 48`.
pub const PATTERN_CACHE_BYTES: usize = 4 << 20;

/// The Chain Encoder's `e_c` rows ([`ChainEncoder::encode_patterns`]) kept by
/// chain pattern across tape-free batches: one row of a flat `[n, d]` buffer
/// per [`RaChain`] seen.
///
/// A row depends on the pattern's tokens and on the encoder weights the
/// context ran with — its own f32 parameters, or the int8 twin attached to
/// the context — and on nothing else: not the chain's value (that enters in
/// the affine transfer), not the graph, not the batch. So a cache stays
/// valid across graph mutations, and must be [`cleared`](Self::clear)
/// whenever the weights change (a reload, another model, another numeric
/// mode). Its rows are bounded by a byte budget: when an insert would pass
/// it, the cache is emptied first, and one batch's own patterns are always
/// kept.
#[derive(Debug)]
pub struct PatternCache {
    slot: HashMap<RaChain, usize>,
    /// `[slot.len(), dim]`, row `slot[p]` for pattern `p`.
    rows: Vec<f32>,
    dim: usize,
    budget: usize,
    cached: u64,
    encoded: u64,
}

impl Default for PatternCache {
    fn default() -> Self {
        Self::with_budget(PATTERN_CACHE_BYTES)
    }
}

impl PatternCache {
    /// An empty cache with the [`PATTERN_CACHE_BYTES`] budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache that holds at most `bytes` of rows (or one batch's
    /// rows, if more).
    pub fn with_budget(bytes: usize) -> Self {
        PatternCache {
            slot: HashMap::new(),
            rows: Vec::new(),
            dim: 0,
            budget: bytes,
            cached: 0,
            encoded: 0,
        }
    }

    /// Patterns held.
    pub fn len(&self) -> usize {
        self.slot.len()
    }

    /// True when no pattern is held.
    pub fn is_empty(&self) -> bool {
        self.slot.is_empty()
    }

    /// Drops every row; the counters keep counting.
    pub fn clear(&mut self) {
        self.slot.clear();
        self.rows.clear();
    }

    /// Chain rows answered from a held row, and pattern rows encoded, since
    /// the last call. Every chain row of a batch is one or the other.
    pub fn take_counts(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.cached),
            std::mem::take(&mut self.encoded),
        )
    }

    /// Pushes the row slot of every pattern onto `slots`, reserving a slot
    /// after the held rows for each pattern not held yet, and returns those
    /// patterns in slot order: the caller encodes them and appends their
    /// rows. When a reservation would pass the budget while rows from
    /// earlier batches are held, the cache is emptied and resolution starts
    /// over.
    fn resolve<'c>(
        &mut self,
        dim: usize,
        patterns: impl Iterator<Item = &'c RaChain> + Clone,
        slots: &mut Vec<usize>,
    ) -> Vec<&'c RaChain> {
        // A new width, or rows a panicking batch reserved but never filled.
        if dim != self.dim || self.rows.len() != self.slot.len() * dim {
            self.clear();
            self.dim = dim;
        }
        let row_bytes = dim * std::mem::size_of::<f32>();
        'attempt: loop {
            let held = self.slot.len();
            let mut missing = Vec::new();
            slots.clear();
            for p in patterns.clone() {
                let s = match self.slot.get(p) {
                    Some(&s) => s,
                    None => {
                        let s = self.slot.len();
                        if held > 0 && (s + 1) * row_bytes > self.budget {
                            self.clear();
                            continue 'attempt;
                        }
                        self.slot.insert(p.clone(), s);
                        missing.push(p);
                        s
                    }
                };
                slots.push(s);
            }
            self.encoded += missing.len() as u64;
            self.cached += (slots.len() - missing.len()) as u64;
            return missing;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_chains::RaChain;
    use cf_kg::{AttributeId, Dir, DirRel, EntityId, RelationId};
    use cf_rand::rngs::StdRng;
    use cf_rand::SeedableRng;
    use cf_tensor::Tape;

    fn chain_instance(hops: usize, value: f64) -> ChainInstance {
        ChainInstance {
            chain: RaChain {
                known_attr: AttributeId(0),
                rels: (0..hops)
                    .map(|i| DirRel {
                        rel: RelationId((i % 2) as u32),
                        dir: Dir::Forward,
                    })
                    .collect(),
                query_attr: AttributeId(1),
            },
            source: EntityId(0),
            value,
        }
    }

    fn build(cfg: &ChainsFormerConfig) -> (ChainEncoder, ParamStore) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let vocab = ChainVocab::new(2, 2);
        let enc = ChainEncoder::new(&mut ps, cfg, vocab, None, &mut rng);
        (enc, ps)
    }

    #[test]
    fn output_is_one_row_per_chain() {
        let cfg = ChainsFormerConfig::tiny();
        let (enc, ps) = build(&cfg);
        let chains = vec![
            chain_instance(0, 1.0),
            chain_instance(2, 5.0),
            chain_instance(3, -2.0),
        ];
        let mut t = Tape::new();
        let out = enc.forward(&mut t, &ps, &chains);
        assert_eq!(t.value(out).shape().as_matrix(), (3, cfg.dim));
        assert!(t.value(out).all_finite());
    }

    #[test]
    fn value_changes_representation_when_aware() {
        let cfg = ChainsFormerConfig::tiny();
        let (enc, ps) = build(&cfg);
        let mut t = Tape::new();
        let a = enc.forward(&mut t, &ps, &[chain_instance(1, 1.0)]);
        let b = enc.forward(&mut t, &ps, &[chain_instance(1, 1000.0)]);
        let diff: f32 = t
            .value(a)
            .data()
            .iter()
            .zip(t.value(b).data())
            .map(|(x, y)| (x - y).abs())
            .sum();
        assert!(diff > 1e-4, "numerical-aware transfer ignored the value");
    }

    #[test]
    fn value_ignored_when_disabled() {
        let cfg = ChainsFormerConfig {
            value_encoding: ValueEncoding::Disabled,
            ..ChainsFormerConfig::tiny()
        };
        let (enc, ps) = build(&cfg);
        let mut t = Tape::new();
        let a = enc.forward(&mut t, &ps, &[chain_instance(1, 1.0)]);
        let b = enc.forward(&mut t, &ps, &[chain_instance(1, 1000.0)]);
        assert_eq!(t.value(a).data(), t.value(b).data());
    }

    #[test]
    fn padding_does_not_leak_between_chains() {
        // Encoding a short chain alone or padded next to a longer one must
        // produce the same representation.
        let cfg = ChainsFormerConfig::tiny();
        let (enc, ps) = build(&cfg);
        let short = chain_instance(0, 2.0);
        let long = chain_instance(3, 7.0);
        let mut t1 = Tape::new();
        let alone = enc.forward(&mut t1, &ps, &[short.clone()]);
        let mut t2 = Tape::new();
        let together = enc.forward(&mut t2, &ps, &[short, long]);
        let a = t1.value(alone).row(0).to_vec();
        let b = t2.value(together).row(0).to_vec();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-4, "padding leaked: {x} vs {y}");
        }
    }

    #[test]
    fn all_encoder_kinds_run() {
        for kind in [
            EncoderKind::Transformer,
            EncoderKind::Lstm,
            EncoderKind::MeanPool,
        ] {
            let cfg = ChainsFormerConfig {
                encoder: kind,
                ..ChainsFormerConfig::tiny()
            };
            let (enc, ps) = build(&cfg);
            let mut t = Tape::new();
            let out = enc.forward(
                &mut t,
                &ps,
                &[chain_instance(1, 3.0), chain_instance(2, 4.0)],
            );
            assert_eq!(t.value(out).shape().as_matrix(), (2, cfg.dim));
            assert!(
                t.value(out).all_finite(),
                "{kind:?} produced non-finite output"
            );
        }
    }

    #[test]
    fn gradients_reach_token_embeddings() {
        let cfg = ChainsFormerConfig::tiny();
        let (enc, ps) = build(&cfg);
        let mut t = Tape::new();
        let out = enc.forward(&mut t, &ps, &[chain_instance(2, 3.0)]);
        let loss = t.mean_all(out);
        let grads = t.backward(loss, ps.len());
        assert!(grads.param_grad(enc.token_emb.table).is_some());
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        let cfg = ChainsFormerConfig::tiny();
        let (enc, ps) = build(&cfg);
        let mut t = Tape::new();
        enc.forward(&mut t, &ps, &[]);
    }
}
