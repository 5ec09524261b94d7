//! Model and training configuration, including every ablation switch of
//! Table VI and the experiment knobs of Figures 4, 7 and 8.

use cf_chains::RetrievalConfig;

/// Numerical projection method of the Numerical Reasoner (Eq. 17–19 and
/// Table VII).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Projection {
    /// Regress the (normalized) value directly from the chain embedding —
    /// the paper's weakest variant and its "w/o Numerical Projection"
    /// ablation.
    Direct,
    /// `n̂ = n_p + β` (Eq. 17). β is produced in normalized units and scaled
    /// by the query attribute's training range, otherwise magnitudes like
    /// population would be unreachable for an MLP output.
    Translation,
    /// `n̂ = α · n_p` (Eq. 18) — the paper's default.
    Scaling,
    /// `n̂ = α · (n_p + β)` (Eq. 19).
    Combined,
}

/// Which geometry the chain filter scores in (Figure 7).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FilterSpace {
    /// Poincaré-ball affinity scoring (the paper's Hyperbolic Filter).
    Hyperbolic,
    /// Same objective trained and scored in Euclidean space.
    Euclidean,
    /// Uniform random selection (the paper's "random sampling" arm and its
    /// "w/o Hyperbolic Filter" ablation).
    Random,
}

/// Sequence model encoding each RA-Chain (Table VI ablations).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EncoderKind {
    /// Encoder-only Transformer (the paper's In-Context Chain
    /// Representation).
    Transformer,
    /// LSTM ablation ("w LSTM as Chain Encoder").
    Lstm,
    /// Mean of token embeddings ("w/o Chain Encoder").
    MeanPool,
}

/// How the known value `n_p` is encoded before the affine-parameter MLPs
/// (Eq. 14 and the "w Numerical-Aware by Log" ablation).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ValueEncoding {
    /// Float64 0–1 bit-stream (the paper's default, Eq. 14).
    FloatBits,
    /// Sign + log-magnitude features.
    Log,
    /// Disable the Numerical-Aware Affine Transfer entirely
    /// ("w/o Numerical-Aware").
    Disabled,
}

/// Training loss. Eq. 24 defines MSE; §V-A's implementation details say
/// L1 — both are supported and the experiments default to L1.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Loss {
    /// Mean absolute error.
    L1,
    /// Mean squared error (Eq. 24).
    Mse,
}

/// Restrictions used by the Figure-4 reasoning-setting study.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ReasoningSetting {
    /// Upper bound on chain hops (1 = single-hop reasoning).
    pub max_hops: usize,
    /// When false, only chains whose known attribute equals the queried
    /// attribute are admitted (the "same-attr" setting).
    pub multi_attribute: bool,
}

impl ReasoningSetting {
    /// No restriction beyond the hop budget.
    pub fn unrestricted(max_hops: usize) -> Self {
        ReasoningSetting {
            max_hops,
            multi_attribute: true,
        }
    }
}

/// Full ChainsFormer configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct ChainsFormerConfig {
    // -- architecture ------------------------------------------------------
    /// Hidden dimension `d` of the Chain Encoder / Numerical Reasoner.
    pub dim: usize,
    /// Transformer layers `L_c` (both stacks).
    pub layers: usize,
    /// Attention heads.
    pub heads: usize,
    /// Feed-forward width (usually `2–4 × dim`).
    pub ff_dim: usize,
    /// Learned positional embeddings in the Chain Encoder. The Treeformer
    /// never uses positions (Eq. 20 replaces them with length encoding).
    pub positional: bool,
    /// Sequence model for RA-Chains.
    pub encoder: EncoderKind,
    /// Value encoding for the affine transfer.
    pub value_encoding: ValueEncoding,
    /// Numerical projection method (Eq. 17–19).
    pub projection: Projection,
    /// Softmax chain weighting (Eq. 21–22); false = uniform averaging
    /// ("w/o Chain Weighting").
    pub chain_weighting: bool,
    /// Extension (paper §VI future work): track per-pattern prediction
    /// quality during training and prune reliably bad RA-Chain patterns at
    /// inference.
    pub chain_quality: bool,
    /// Prune patterns whose EMA error exceeds `factor ×` the candidate-set
    /// median (only meaningful with `chain_quality`).
    pub quality_prune_factor: f64,

    // -- retrieval and filter ------------------------------------------------
    /// Random-walk retrieval (`N_s`, max hops).
    pub retrieval_walks: usize,
    /// Top-k chains kept by the filter (the paper's 256).
    pub top_k: usize,
    /// Geometry the filter scores in.
    pub filter_space: FilterSpace,
    /// Dimension of the (pre-trained) filter embedding space.
    pub filter_dim: usize,
    /// λ of Eq. 9, balancing intra vs inter affinity.
    pub lambda: f64,
    /// Filter pre-training epochs over co-occurrence pairs.
    pub filter_epochs: usize,
    /// Reasoning-setting restriction (Figure 4).
    pub setting: ReasoningSetting,

    // -- optimization --------------------------------------------------------
    /// Adam learning rate.
    pub lr: f32,
    /// Maximum training epochs.
    pub epochs: usize,
    /// Queries per optimizer step.
    pub batch_size: usize,
    /// Training loss.
    pub loss: Loss,
    /// Global-norm gradient clip.
    pub grad_clip: f32,
    /// Early-stopping patience in epochs on validation normalized MAE
    /// (0 = disabled).
    pub patience: usize,
    /// RNG seed recorded with the run.
    pub seed: u64,
}

impl Default for ChainsFormerConfig {
    /// CPU-scale defaults (substitution S5); `paper()` restores the paper's
    /// published hyperparameters.
    fn default() -> Self {
        ChainsFormerConfig {
            dim: 48,
            layers: 2,
            heads: 4,
            ff_dim: 96,
            positional: true,
            encoder: EncoderKind::Transformer,
            value_encoding: ValueEncoding::FloatBits,
            projection: Projection::Scaling,
            chain_weighting: true,
            chain_quality: false,
            quality_prune_factor: 2.5,
            retrieval_walks: 256,
            top_k: 32,
            filter_space: FilterSpace::Hyperbolic,
            filter_dim: 16,
            lambda: 0.5,
            filter_epochs: 30,
            setting: ReasoningSetting::unrestricted(3),
            lr: 1e-3,
            epochs: 25,
            batch_size: 8,
            loss: Loss::L1,
            grad_clip: 1.0,
            patience: 5,
            seed: 0,
        }
    }
}

impl ChainsFormerConfig {
    /// The paper's published setting (§V-A): d = 256/128, N_s = 2048,
    /// k = 256, 2 layers, 4 heads, lr 1e-4, 200 epochs.
    pub fn paper() -> Self {
        ChainsFormerConfig {
            dim: 256,
            layers: 2,
            heads: 4,
            ff_dim: 512,
            retrieval_walks: 2048,
            top_k: 256,
            filter_dim: 64,
            lr: 1e-4,
            epochs: 200,
            ..Default::default()
        }
    }

    /// A very small configuration for unit tests.
    pub fn tiny() -> Self {
        ChainsFormerConfig {
            dim: 16,
            layers: 1,
            heads: 2,
            ff_dim: 32,
            retrieval_walks: 48,
            top_k: 8,
            filter_dim: 8,
            filter_epochs: 8,
            epochs: 4,
            batch_size: 4,
            patience: 0,
            ..Default::default()
        }
    }

    /// Retrieval configuration derived from this config.
    pub fn retrieval(&self) -> RetrievalConfig {
        RetrievalConfig {
            num_walks: self.retrieval_walks,
            max_hops: self.setting.max_hops,
            allow_zero_hop: true,
            max_attempts_factor: 4,
        }
    }

    /// The canonical text [`fingerprint`](Self::fingerprint) hashes: one
    /// `key = value` line per field, in declaration order; the nested
    /// [`ReasoningSetting`] is flattened to dotted keys (`setting.max_hops`);
    /// enums are written as their variant names; floats use `{:?}` (the
    /// shortest representation that round-trips exactly). Its bytes are part
    /// of every CFT2 checkpoint's identity: changing them breaks `--resume`
    /// of checkpoints written before.
    fn to_toml(&self) -> String {
        let mut out = String::new();
        let mut kv = |k: &str, v: String| {
            out.push_str(k);
            out.push_str(" = ");
            out.push_str(&v);
            out.push('\n');
        };
        kv("dim", self.dim.to_string());
        kv("layers", self.layers.to_string());
        kv("heads", self.heads.to_string());
        kv("ff_dim", self.ff_dim.to_string());
        kv("positional", self.positional.to_string());
        kv("encoder", format!("{:?}", self.encoder));
        kv("value_encoding", format!("{:?}", self.value_encoding));
        kv("projection", format!("{:?}", self.projection));
        kv("chain_weighting", self.chain_weighting.to_string());
        kv("chain_quality", self.chain_quality.to_string());
        kv(
            "quality_prune_factor",
            format!("{:?}", self.quality_prune_factor),
        );
        kv("retrieval_walks", self.retrieval_walks.to_string());
        kv("top_k", self.top_k.to_string());
        kv("filter_space", format!("{:?}", self.filter_space));
        kv("filter_dim", self.filter_dim.to_string());
        kv("lambda", format!("{:?}", self.lambda));
        kv("filter_epochs", self.filter_epochs.to_string());
        kv("setting.max_hops", self.setting.max_hops.to_string());
        kv(
            "setting.multi_attribute",
            self.setting.multi_attribute.to_string(),
        );
        kv("lr", format!("{:?}", self.lr));
        kv("epochs", self.epochs.to_string());
        kv("batch_size", self.batch_size.to_string());
        kv("loss", format!("{:?}", self.loss));
        kv("grad_clip", format!("{:?}", self.grad_clip));
        kv("patience", self.patience.to_string());
        kv("seed", self.seed.to_string());
        out
    }

    /// A stable 64-bit fingerprint of this configuration (FNV-1a over the
    /// canonical `key = value` text of every field). Stored in CFT2
    /// checkpoints so `--resume` can refuse to continue a run under a
    /// different configuration — silently mixing hyperparameters would
    /// produce a trajectory that matches neither run.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in self.to_toml().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// Validates internal consistency; call before building a model.
    pub fn validate(&self) -> Result<(), String> {
        if self.dim == 0 {
            return Err("dim must be positive, got 0".into());
        }
        if self.heads == 0 {
            return Err("heads must be positive, got 0".into());
        }
        if self.dim % self.heads != 0 {
            return Err(format!(
                "dim {} not divisible by heads {}",
                self.dim, self.heads
            ));
        }
        if self.top_k == 0 {
            return Err("top_k must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.lambda) {
            return Err(format!("lambda {} outside [0,1]", self.lambda));
        }
        if self.setting.max_hops == 0 {
            return Err("max_hops must be at least 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `default()`'s and `paper()`'s fingerprints. Training checkpoints
    /// record the fingerprint and `--resume` compares it, so these must not
    /// move.
    const DEFAULT_FINGERPRINT: u64 = 0xb8ad_6dfc_5700_1982;
    const PAPER_FINGERPRINT: u64 = 0xd8e1_22e2_cf52_3a11;

    #[test]
    fn default_is_valid() {
        ChainsFormerConfig::default().validate().unwrap();
        ChainsFormerConfig::paper().validate().unwrap();
        ChainsFormerConfig::tiny().validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_heads() {
        let cfg = ChainsFormerConfig {
            dim: 10,
            heads: 4,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    /// A zero `dim` or `heads` is an error, not a division by zero here or a
    /// zero-width tensor later.
    #[test]
    fn validation_catches_zero_dim_and_heads() {
        for (dim, heads) in [(0, 4), (16, 0), (0, 0)] {
            let cfg = ChainsFormerConfig {
                dim,
                heads,
                ..Default::default()
            };
            assert!(cfg.validate().is_err(), "dim {dim}, heads {heads}");
        }
    }

    #[test]
    fn validation_catches_bad_lambda() {
        let cfg = ChainsFormerConfig {
            lambda: 1.5,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn retrieval_mirrors_setting() {
        let cfg = ChainsFormerConfig {
            setting: ReasoningSetting {
                max_hops: 2,
                multi_attribute: false,
            },
            retrieval_walks: 99,
            ..Default::default()
        };
        let r = cfg.retrieval();
        assert_eq!(r.max_hops, 2);
        assert_eq!(r.num_walks, 99);
    }

    /// Every field feeds the fingerprint: an edit to any one of them changes
    /// exactly its own line of the hashed text and moves the fingerprint, so
    /// `--resume` refuses a checkpoint written under any other config.
    #[test]
    fn fingerprint_moves_with_every_field() {
        type Edit = fn(&mut ChainsFormerConfig);
        let edits: [(&str, Edit); 26] = [
            ("dim", |c| c.dim += 1),
            ("layers", |c| c.layers += 1),
            ("heads", |c| c.heads += 1),
            ("ff_dim", |c| c.ff_dim += 1),
            ("positional", |c| c.positional = !c.positional),
            ("encoder", |c| c.encoder = EncoderKind::Lstm),
            ("value_encoding", |c| c.value_encoding = ValueEncoding::Log),
            ("projection", |c| c.projection = Projection::Combined),
            ("chain_weighting", |c| {
                c.chain_weighting = !c.chain_weighting
            }),
            ("chain_quality", |c| c.chain_quality = !c.chain_quality),
            ("quality_prune_factor", |c| c.quality_prune_factor += 0.125),
            ("retrieval_walks", |c| c.retrieval_walks += 1),
            ("top_k", |c| c.top_k += 1),
            ("filter_space", |c| c.filter_space = FilterSpace::Random),
            ("filter_dim", |c| c.filter_dim += 1),
            ("lambda", |c| c.lambda = 0.123456789),
            ("filter_epochs", |c| c.filter_epochs += 1),
            ("setting.max_hops", |c| c.setting.max_hops += 1),
            ("setting.multi_attribute", |c| {
                c.setting.multi_attribute = !c.setting.multi_attribute
            }),
            ("lr", |c| c.lr = 3.5e-4),
            ("epochs", |c| c.epochs += 1),
            ("batch_size", |c| c.batch_size += 1),
            ("loss", |c| c.loss = Loss::Mse),
            ("grad_clip", |c| c.grad_clip *= 2.0),
            ("patience", |c| c.patience += 1),
            ("seed", |c| c.seed = u64::MAX),
        ];
        let base = ChainsFormerConfig::default();
        let text = base.to_toml();
        assert_eq!(edits.len(), text.lines().count(), "a field has no edit");
        let mut seen = std::collections::HashSet::from([base.fingerprint()]);
        for (key, edit) in edits {
            let mut cfg = base.clone();
            edit(&mut cfg);
            let edited = cfg.to_toml();
            let changed: Vec<&str> = edited
                .lines()
                .zip(text.lines())
                .filter(|(a, b)| a != b)
                .map(|(a, _)| a)
                .collect();
            assert_eq!(changed.len(), 1, "{key}: {changed:?}");
            assert!(
                changed[0].starts_with(&format!("{key} = ")),
                "{key}: {changed:?}"
            );
            assert!(seen.insert(cfg.fingerprint()), "{key} left the fingerprint");
        }
        assert_eq!(base.fingerprint(), DEFAULT_FINGERPRINT);
        assert_eq!(ChainsFormerConfig::paper().fingerprint(), PAPER_FINGERPRINT);
    }

    #[test]
    fn config_debug_is_stable_enough_for_logs() {
        let cfg = ChainsFormerConfig::default();
        let dbg = format!("{cfg:?}");
        assert!(dbg.contains("Scaling"));
        assert!(dbg.contains("Hyperbolic"));
    }
}
