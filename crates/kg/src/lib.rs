#![warn(missing_docs)]

//! # cf-kg
//!
//! Multi-relational knowledge-graph substrate for the ChainsFormer
//! reproduction: the graph store (`G = (V, R, A, N)` of the paper's
//! Definition 1), dataset splitting, per-attribute min-max normalization,
//! regression metrics, MMKG-style TSV IO, Table I/II statistics and the
//! synthetic FB15K-237 / YAGO15K twins (see [`synth`] for the substitution
//! rationale).
//!
//! ```
//! use cf_kg::synth::{yago15k_sim, SynthScale};
//! use cf_kg::split::Split;
//! use cf_rand::SeedableRng;
//!
//! let mut rng = cf_rand::rngs::StdRng::seed_from_u64(0);
//! let graph = yago15k_sim(SynthScale::small(), &mut rng);
//! let split = Split::paper_811(&graph, &mut rng);
//! let visible = split.visible_graph(&graph);
//! // Evaluation answers are hidden from the visible graph:
//! let q = split.test[0];
//! assert_eq!(visible.value_of(q.entity, q.attr), None);
//! ```

pub mod categories;
pub mod graph;
pub mod ids;
pub mod index;
pub mod io;
pub mod journal;
pub mod metrics;
pub mod mmapio;
pub mod norm;
pub mod overlay;
mod paths;
pub mod split;
pub mod stats;
pub mod store;
pub mod synth;
pub mod view;

pub use categories::{categorize, categorize_name, category_mae, AttributeCategory};
pub use graph::{AttrFact, AttrOwner, Edge, KnowledgeGraph, NumTriple, Triple};
pub use ids::{AttributeId, Dir, DirRel, EntityId, RelationId};
pub use index::{
    build_chain_index, collect_entity, graph_fingerprint, write_index, ChainEntry, ChainIndex,
    ChainIndexStore, ChainIndexView, IndexParams, MappedChainIndex,
};
pub use journal::{recover_file, validate_mutation, JournalWriter, Mutation, Recovery};
pub use metrics::{Prediction, RegressionReport};
pub use norm::MinMaxNormalizer;
pub use overlay::{ApplyOutcome, OverlayGraph};
pub use paths::for_each_simple_path;
pub use split::Split;
pub use store::{read_store, write_store, StoreError};
pub use view::GraphView;
