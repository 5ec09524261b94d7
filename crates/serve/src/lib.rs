#![warn(missing_docs)]

//! # cf-serve
//!
//! Batched, tape-free inference serving for the ChainsFormer reproduction
//! (DESIGN.md §9):
//!
//! - [`engine::Engine`] — N shards over one model (entity-hash routed, so
//!   responses are bitwise identical at any shard count), each with a
//!   bounded micro-batching queue drained by its worker thread, latency-aware
//!   admission control ([`engine::admit`]), all-or-nothing hot-reload, live
//!   graph mutation ([`engine::Engine::mutate`]: CFJ1-journaled before
//!   visible, `max_hops`-BFS cache/index invalidation, periodic
//!   compaction), and per-query deterministic retrieval;
//! - [`cache::ChainCache`] — LRU cache of chain-retrieval results keyed by
//!   `(entity, attribute)`, invalidated by entity on mutation;
//! - [`protocol`] — the hand-rolled line-delimited JSON wire format;
//! - [`server`] — thread-per-connection TCP front-end with a
//!   `GET /metrics` command, `{"reload": "path"}` / `{"mutate": …}` admin
//!   requests (hot model swap, live-graph mutation) that never drop
//!   traffic, and graceful shutdown on SIGTERM or stdin close;
//! - [`metrics::Metrics`] — lock-free counters and p50/p95/p99 latency /
//!   batch-size histograms.
//!
//! Inference runs on [`cf_tensor::InferCtx`] (no tape nodes, no gradient
//! closures) through [`chainsformer::ChainsFormer::predict_batch_with_chains`],
//! which is pinned bitwise-identical to the taped single-query path — so
//! serving never changes a prediction, only its cost.

pub mod cache;
pub mod engine;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use cache::{CachedChains, ChainCache};
pub use engine::{
    admit, dirty_entities, projected_delay_us, query_rng_seed, shard_of, Admission, Engine,
    EngineConfig, GraphGuard, ModelGuard, MutationOutcome, QuantMode, Reply, ServeError,
    ServedPrediction,
};
pub use metrics::{Histogram, Metrics};
pub use server::{install_signals, run, shutdown_on_stdin_close, signalled, METRICS_COMMAND};
