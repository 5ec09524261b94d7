#![warn(missing_docs)]

//! # cf-chains
//!
//! The chain machinery of ChainsFormer's §IV-A/§IV-B: Relation-Attribute
//! Chains (RA-Chains), query-guided random-walk retrieval building a Tree of
//! Chains (ToC), the chain token vocabulary, and the chain-count
//! measurements behind Figure 2.
//!
//! ```
//! use cf_chains::{retrieve, Query, RetrievalConfig};
//! use cf_kg::synth::{yago15k_sim, SynthScale};
//! use cf_rand::SeedableRng;
//!
//! let mut rng = cf_rand::rngs::StdRng::seed_from_u64(0);
//! let g = yago15k_sim(SynthScale::small(), &mut rng);
//! let fact = g.numerics()[0];
//! let toc = retrieve(
//!     &g,
//!     Query { entity: fact.entity, attr: fact.attr },
//!     &RetrievalConfig::default(),
//!     &mut rng,
//! );
//! for ci in &toc.chains {
//!     assert!(ci.chain.hops() <= 3);
//! }
//! ```

pub mod chain;
pub mod count;
pub mod enumerate;
pub mod retrieval;

pub use chain::{ChainInstance, ChainVocab, Query, RaChain};
pub use count::{chain_count_by_hops, exact_chain_count, mean_chain_count};
pub use enumerate::enumerate_chains;
pub use retrieval::{retrieve, retrieve_indexed, retrieve_row, RetrievalConfig, TreeOfChains};
