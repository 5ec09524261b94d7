#![warn(missing_docs)]

//! # chainsformer
//!
//! A from-scratch Rust reproduction of **ChainsFormer: Numerical Reasoning on
//! Knowledge Graphs from a Chain Perspective** (ICDE 2025): chain-based
//! numerical attribute prediction with query-guided retrieval, a hyperbolic
//! chain filter, a Transformer chain encoder with numerical-aware affine
//! transfer, and an attention-based numerical reasoner.
//!
//! Pipeline (Figure 3 of the paper):
//! 1. [`cf_chains::retrieve`] — random-walk Query Retrieval builds a Tree of
//!    Chains;
//! 2. [`filter::ChainFilter`] — hyperbolic affinity scoring keeps the top-k
//!    relevant RA-Chains;
//! 3. [`encoder::ChainEncoder`] — in-context Transformer encoding +
//!    Numerical-Aware Affine Transfer;
//! 4. [`reasoner::NumericalReasoner`] — per-chain numerical projection and
//!    Treeformer chain weighting.
//!
//! ```
//! use chainsformer::{ChainsFormer, ChainsFormerConfig, Trainer};
//! use cf_kg::synth::{yago15k_sim, SynthScale};
//! use cf_kg::Split;
//! use cf_rand::SeedableRng;
//!
//! let mut rng = cf_rand::rngs::StdRng::seed_from_u64(0);
//! let graph = yago15k_sim(SynthScale::small(), &mut rng);
//! let split = Split::paper_811(&graph, &mut rng);
//! let visible = split.visible_graph(&graph);
//! let mut cfg = ChainsFormerConfig::tiny();
//! cfg.epochs = 1;
//! let mut model = ChainsFormer::new(&visible, &split.train, cfg, &mut rng);
//! let result = Trainer::new(&mut model, &visible).train(&split, &mut rng);
//! assert!(result.epochs[0].train_loss.is_finite());
//! ```

pub mod ablation;
pub mod config;
pub mod encoder;
pub mod explain;
pub mod filter;
mod fitted;
pub mod model;
pub mod quality;
pub mod reasoner;
pub mod train;
pub mod value_encoding;

pub use ablation::Variant;
pub use config::{
    ChainsFormerConfig, EncoderKind, FilterSpace, Loss, Projection, ReasoningSetting, ValueEncoding,
};
pub use encoder::PatternCache;
pub use filter::ChainFilter;
pub use model::{ChainsFormer, ExplainedChain, PredictionDetail, ResolvedQuery};
pub use quality::ChainQualityTracker;
pub use train::{evaluate_model, EpochStats, TrainError, TrainOptions, TrainResult, Trainer};
