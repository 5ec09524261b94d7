//! The inference engine: N worker shards, each with a bounded
//! micro-batching queue, one worker and a private LRU chain cache, all
//! reading one model (and, in int8 mode, its one int8 twin) — plus
//! entity-hash routing, latency-aware admission control, and hot reload.
//!
//! Requests enter through [`Engine::submit`] (or the synchronous
//! [`Engine::predict`]) and are routed to `shard_of(entity, shards)`: the
//! shard is a pure function of the entity, so a hot entity always lands on
//! the same shard's cache and — because retrieval already uses a per-query
//! deterministic RNG ([`query_rng_seed`]) — the served answer is bitwise
//! identical at *any* shard count. A shard's worker takes the jobs already
//! queued, up to `max_batch`, resolves each query's chains through the
//! shard cache, then answers the whole batch with one tape-free
//! [`ChainsFormer::predict_batch_cached`] call through the worker's own
//! pattern cache of Chain Encoder rows (bitwise identical to per-query taped
//! prediction, pinned in `crates/core/tests/batch_parity.rs`).
//!
//! Admission is latency-aware: beyond the hard per-shard `queue_cap`, a
//! request carrying a deadline is shed when its *projected queue delay*
//! (shard queue depth × EWMA per-request service time) already exceeds the
//! deadline — see [`admit`]. Shedding at the door beats queueing collapse:
//! under open-loop overload the client gets `overloaded` now instead of a
//! reply that was doomed to miss its deadline after an unbounded wait.

use crate::cache::{CachedChains, ChainCache};
use crate::metrics::Metrics;
use cf_chains::Query;
use cf_kg::{
    collect_entity, validate_mutation, ChainEntry, ChainIndexView, EntityId, GraphView,
    JournalWriter, KnowledgeGraph, MappedChainIndex, Mutation, OverlayGraph, StoreError,
};
use cf_rand::rngs::StdRng;
use cf_rand::SeedableRng;
use cf_tensor::{InferCtx, QuantizedParamStore};
use chainsformer::{ChainsFormer, PatternCache, PredictionDetail, ResolvedQuery};
use std::collections::{HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Numeric mode the shard workers run linear layers in.
///
/// `Int8` packs every eligible weight matrix to per-tensor symmetric int8
/// once per engine (at construction and again at each hot reload);
/// activations are quantized per batch and accumulation stays i32 → f32,
/// so attention softmax and the numeric heads keep full precision.
/// Accuracy drift vs `F32` is pinned by `crates/core/tests/quant_accuracy.rs`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QuantMode {
    /// Full-precision f32 inference (the default).
    #[default]
    F32,
    /// Int8 weights with f32 activations/accumulate on linear layers.
    Int8,
}

impl std::str::FromStr for QuantMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "f32" => Ok(QuantMode::F32),
            "int8" => Ok(QuantMode::Int8),
            other => Err(format!("unknown quantize mode `{other}` (f32|int8)")),
        }
    }
}

impl std::fmt::Display for QuantMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            QuantMode::F32 => "f32",
            QuantMode::Int8 => "int8",
        })
    }
}

/// Tunables for the serving engine.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Largest batch a shard worker executes in one forward pass. A worker
    /// never waits for a batch to fill: it takes the jobs already queued,
    /// up to this many.
    pub max_batch: usize,
    /// Per-shard queue bound; submissions beyond it are shed with
    /// [`ServeError::Overloaded`]. `0` sheds everything (useful in tests).
    pub queue_cap: usize,
    /// Number of shards, each a queue, a cache and one worker thread over
    /// the engine's one model. `0` means auto: the numeric thread pool's
    /// width (`cf_tensor::pool::threads()`), i.e. one worker per core under
    /// the default pool sizing.
    pub shards: usize,
    /// Per-shard chain-cache capacity in queries (`0` disables caching).
    /// Entity-hash routing means a query only ever visits one shard, so
    /// shard caches never duplicate entries.
    pub cache_cap: usize,
    /// Base seed for per-query retrieval RNGs (see [`query_rng_seed`]).
    pub seed: u64,
    /// Numeric inference mode (see [`QuantMode`]).
    pub quantize: QuantMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_batch: 8,
            queue_cap: 256,
            shards: 1,
            cache_cap: 4096,
            seed: 7,
            quantize: QuantMode::F32,
        }
    }
}

/// Why a request was not answered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The request was shed without being enqueued: the shard queue was
    /// full, or its projected queue delay already exceeded the deadline.
    Overloaded,
    /// The request's deadline expired — at submission time (nothing was
    /// enqueued) or before a worker reached it.
    DeadlineExceeded,
    /// The engine is shutting down and no longer accepts work.
    ShuttingDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "overloaded"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::ShuttingDown => write!(f, "shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A successful answer plus serving metadata.
#[derive(Debug)]
pub struct ServedPrediction {
    /// The prediction with its reasoning trace.
    pub detail: PredictionDetail,
    /// Queue + inference latency for this request, microseconds.
    pub micros: u64,
    /// Size of the batch this request was answered in.
    pub batch_size: usize,
    /// Whether the shard's chain cache answered retrieval.
    pub cache_hit: bool,
    /// The shard that answered.
    pub shard: usize,
}

/// The reply every submitted job eventually receives.
pub type Reply = Result<ServedPrediction, ServeError>;

struct Job {
    query: Query,
    deadline: Option<Instant>,
    enqueued: Instant,
    reply: mpsc::Sender<Reply>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// One shard: a queue, its worker's wake-up condvar, and a cache. The
/// model, graph and chain index are shared by every shard; everything a
/// request *mutates* is shard-private, so shards never contend.
struct Shard {
    queue: Mutex<QueueState>,
    cond: Condvar,
    cache: Mutex<ChainCache>,
}

/// The served model and its int8 twin (`None` in f32 mode), one pair per
/// engine. They sit behind one `RwLock`: workers hold the read lock for the
/// duration of a batch, and [`Engine::reload`] replaces both under the
/// write lock, so a batch always sees parameters and twin of the same
/// generation.
struct Served {
    model: ChainsFormer,
    quant: Option<Arc<QuantizedParamStore>>,
    /// Bumped by every reload. A worker whose pattern cache was filled
    /// under another generation empties it before its next batch.
    generation: u64,
}

/// The mutable serving graph: the immutable base store wrapped in a
/// mutation overlay, plus the set that tells an indexed engine which stored
/// index rows still describe it.
///
/// Guarded by one engine-wide `RwLock` — the same generation discipline the
/// model lock uses: workers hold the read lock across a batch's
/// chain resolution, [`Engine::mutate`] takes the write lock to apply, so
/// every shard observes each mutation atomically (no batch can see half a
/// mutation, and no stale chain set can be cached after the invalidation
/// pass ran).
struct LiveGraph {
    overlay: OverlayGraph,
    /// Entities whose stored index row may differ from their row over the
    /// live graph: every mutation's [`dirty_entities`] neighbourhood, kept
    /// only when the engine has an index. On a cache miss a worker looks
    /// up the stored row of an entity outside this set (and inside the
    /// index), and recomputes the row of any other entity against the
    /// overlay with [`collect_entity`]. Both sources give the same bytes,
    /// so the set decides what a miss costs, never what it answers.
    dirty: HashSet<u32>,
    /// Bumped once per applied mutation batch.
    generation: u64,
}

impl LiveGraph {
    /// Whether the stored index row of `e` still equals its row over the
    /// live graph.
    fn row_is_stored(&self, index: &MappedChainIndex, e: EntityId) -> bool {
        (e.0 as usize) < index.num_entities() && !self.dirty.contains(&e.0)
    }
}

/// Durability state behind [`Engine::mutate`]: the append-only CFJ1 writer
/// plus the optional compaction policy.
struct JournalState {
    writer: JournalWriter,
    compact: Option<CompactionPolicy>,
    /// Set when a commit fails. The file may end in a torn tail that only
    /// [`JournalWriter::open`]'s recovery can truncate safely, so further
    /// appends are refused until restart — they would extend garbage.
    failed: bool,
}

/// Rewrite the canonical CFKG1 store (atomic tmp → fsync → rename) and
/// truncate the journal whenever it accumulates `every` records.
struct CompactionPolicy {
    path: PathBuf,
    every: u64,
    /// Journaled records at which the next attempt runs: `every`, or after a
    /// failed attempt `every` more than the records it saw, so a target that
    /// keeps failing is retried at the policy's own pace, not per batch.
    due: u64,
}

struct Shared {
    served: RwLock<Served>,
    live: RwLock<LiveGraph>,
    journal: Mutex<Option<JournalState>>,
    index: Option<MappedChainIndex>,
    /// The invalidation radius: the served model's `max_hops`, or the
    /// index's when that is deeper. A cached chain set or an index row of
    /// an entity reads only the graph within this many hops of it.
    hops: usize,
    cfg: EngineConfig,
    shards: Vec<Shard>,
    metrics: Metrics,
}

/// The resident serving engine. Dropping it drains every shard queue
/// gracefully: already-enqueued jobs are still answered, then workers join.
pub struct Engine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

/// Read guard over the live serving graph, dereferencing to the
/// [`OverlayGraph`] (a [`GraphView`]) for name resolution and inspection.
/// While held, a concurrent [`Engine::mutate`] blocks — see the caveat on
/// [`Engine::graph`].
pub struct GraphGuard<'a> {
    guard: RwLockReadGuard<'a, LiveGraph>,
}

impl std::ops::Deref for GraphGuard<'_> {
    type Target = OverlayGraph;

    fn deref(&self) -> &OverlayGraph {
        &self.guard.overlay
    }
}

/// Read guard over the served model, dereferencing to the
/// [`ChainsFormer`]. While held, a concurrent [`Engine::reload`]'s swap
/// waits.
pub struct ModelGuard<'a> {
    guard: RwLockReadGuard<'a, Served>,
}

impl std::ops::Deref for ModelGuard<'_> {
    type Target = ChainsFormer;

    fn deref(&self) -> &ChainsFormer {
        &self.guard.model
    }
}

/// What one [`Engine::mutate`] batch did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MutationOutcome {
    /// Mutations in the batch (all validated, journaled, applied).
    pub applied: usize,
    /// How many actually changed the graph (the rest were idempotent
    /// re-applies).
    pub changed: usize,
    /// Entities in this batch's invalidation neighbourhood: the touched
    /// set expanded by [`dirty_entities`] to the invalidation radius. Their
    /// cached chain sets are dropped; an indexed engine answers them from
    /// then on with rows recomputed against the live graph.
    pub dirty: usize,
    /// Cached chain sets dropped across all shards.
    pub invalidated: usize,
    /// Live-graph generation after this batch.
    pub generation: u64,
    /// Whether this batch compacted the store and truncated the journal.
    pub compacted: bool,
    /// Why the compaction this batch triggered failed (`None` when none
    /// failed). The batch itself is applied and durable either way.
    pub compaction_error: Option<String>,
}

/// The invalidation neighborhood of a mutation: every entity within `hops`
/// edges of a touched entity, in either direction (adjacency rows hold the
/// forward and the inverse edge, so one BFS covers both).
///
/// Soundness: a walk or an index row (`cf_kg::collect_entity`) for source
/// `s` reads only the rows of entities reachable from `s` in ≤ `hops`
/// steps, where `hops` is at least the walk's and the index's depth. So a
/// cached chain set or a stored index row for `s` can only be affected by
/// a mutation touching that neighborhood — equivalently, `s` is within
/// `hops` of a touched entity, i.e. in this set. Edges are only ever added,
/// never removed, so running the BFS over the *post-mutation* adjacency can
/// only widen the set (it contains every path that existed pre-mutation).
pub fn dirty_entities(g: &OverlayGraph, touched: &[EntityId], hops: usize) -> HashSet<u32> {
    let mut dirty: HashSet<u32> = touched.iter().map(|e| e.0).collect();
    let mut frontier: Vec<u32> = dirty.iter().copied().collect();
    for _ in 0..hops {
        let mut next = Vec::new();
        for &e in &frontier {
            for edge in g.neighbors(EntityId(e)) {
                if dirty.insert(edge.to.0) {
                    next.push(edge.to.0);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    dirty
}

/// Rejects mutations naming a relation or attribute outside the serving
/// vocabulary. The model's token embedding tables are sized from the
/// training graph's relations and attributes; a chain through an unseen
/// token could not be encoded. Entities are fine — the model is inductive
/// over them.
fn check_vocab(g: &OverlayGraph, m: &Mutation) -> Result<(), String> {
    match m {
        Mutation::UpsertNumeric { attr, .. } => {
            if g.attribute_by_name(attr).is_none() {
                return Err(format!(
                    "attr: \"{attr}\" is not in the serving vocabulary \
                     (new attributes require retraining)"
                ));
            }
        }
        Mutation::AddEdge { rel, .. } => {
            if g.relation_by_name(rel).is_none() {
                return Err(format!(
                    "rel: \"{rel}\" is not in the serving vocabulary \
                     (new relations require retraining)"
                ));
            }
        }
        Mutation::AddEntity { .. } => {}
    }
    Ok(())
}

/// Deterministic retrieval seed for a query: mixes the engine seed with the
/// entity and attribute ids. Keeping the RNG a pure function of the query
/// makes retrieval reproducible regardless of request order, batch
/// composition, shard count, or whether the cache answered — a cache hit
/// returns exactly the chains a fresh retrieval would.
pub fn query_rng_seed(seed: u64, q: Query) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for v in [u64::from(q.entity.0), u64::from(q.attr.0)] {
        h = (h ^ v).wrapping_mul(0x0000_0100_0000_01B3);
        h ^= h >> 29;
    }
    h
}

/// The routing invariant: which shard serves `entity` at a given shard
/// count. A pure function of the entity id (splitmix64-style finalizer, so
/// consecutive ids spread instead of striping), which is what keeps a hot
/// entity on one cache and makes responses shard-count-independent.
pub fn shard_of(entity: EntityId, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let mut h = u64::from(entity.0).wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    (h % shards as u64) as usize
}

/// Outcome of latency-aware admission control for one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Enqueue the request.
    Accept,
    /// Shed with [`ServeError::Overloaded`]: queue full, or the projected
    /// queue delay already exceeds the deadline.
    ShedOverloaded,
    /// Shed with [`ServeError::DeadlineExceeded`]: the deadline had already
    /// expired at submission time.
    ShedExpired,
}

/// Projected queue delay for a request arriving at a shard whose queue
/// holds `depth` jobs: every queued job must be served first, at the
/// EWMA per-request service time. Saturating — a huge backlog times a huge
/// estimate must still shed, not wrap.
pub fn projected_delay_us(depth: usize, ewma_service_us: u64) -> u64 {
    (depth as u64).saturating_mul(ewma_service_us)
}

/// The admission decision, pure so the boundary cases are unit-pinnable:
///
/// - `depth >= queue_cap` always sheds (`ShedOverloaded`) — the hard bound
///   survives from the pre-sharded engine;
/// - a deadline with zero microseconds remaining sheds as `ShedExpired`
///   without enqueueing (the worker-side check still catches deadlines
///   that expire while queued);
/// - otherwise shed iff [`projected_delay_us`] *strictly* exceeds the
///   remaining deadline. An empty queue projects zero delay and always
///   admits; a stale/unwarmed EWMA (0 µs) also projects zero — admission
///   then degrades to the depth bound until the first batch re-warms it,
///   which errs toward serving, never toward spurious shedding;
/// - deadline-free requests are only subject to the depth bound.
pub fn admit(
    depth: usize,
    queue_cap: usize,
    ewma_service_us: u64,
    deadline_us: Option<u64>,
) -> Admission {
    if depth >= queue_cap {
        return Admission::ShedOverloaded;
    }
    let Some(deadline_us) = deadline_us else {
        return Admission::Accept;
    };
    if deadline_us == 0 {
        return Admission::ShedExpired;
    }
    if projected_delay_us(depth, ewma_service_us) > deadline_us {
        Admission::ShedOverloaded
    } else {
        Admission::Accept
    }
}

/// Folds one per-request service-time sample into the shard's EWMA cell
/// (α = 1/4). The first sample is adopted whole; samples are clamped to
/// ≥ 1 µs so a warmed estimate can never decay back to the "stale" zero.
fn update_ewma(cell: &AtomicU64, sample_us: u64) {
    let sample = sample_us.max(1);
    let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
        Some(if old == 0 {
            sample
        } else {
            (3 * old + sample) / 4
        })
    });
}

impl Engine {
    /// Takes ownership of the model and (visible) graph and spawns the
    /// shard workers. Every shard reads this one model; nothing is cloned.
    pub fn new(model: ChainsFormer, graph: KnowledgeGraph, cfg: EngineConfig) -> Self {
        Self::new_with_index(model, graph, None, cfg)
    }

    /// [`Self::new`], optionally serving retrieval from a precomputed chain
    /// index (`cfkg index`). When an index is given it must have been built
    /// from (a graph bitwise-equal to) `graph`; workers then answer cache
    /// misses from index rows instead of random walks, and never walk. The
    /// index is shared read-only across all shards. After mutations, an
    /// entity whose stored row may be out of date, or that was added after
    /// the build, is answered from its row recomputed against the live
    /// graph (`cf_kg::collect_entity` with the index's parameters), so every
    /// answer is the one a fresh engine over the current graph and a fresh
    /// index of it would give.
    pub fn new_with_index(
        model: ChainsFormer,
        graph: KnowledgeGraph,
        index: Option<MappedChainIndex>,
        cfg: EngineConfig,
    ) -> Self {
        if let Some(ix) = &index {
            ix.check_matches(&graph)
                .expect("chain index does not match the serving graph");
        }
        let chain_hops = model.cfg.setting.max_hops;
        let hops = index.as_ref().map_or(chain_hops, |ix| {
            chain_hops.max(ix.params().max_hops as usize)
        });
        let nshards = if cfg.shards == 0 {
            cf_tensor::pool::threads().max(1)
        } else {
            cfg.shards
        };
        let shards = (0..nshards)
            .map(|_| Shard {
                queue: Mutex::new(QueueState {
                    jobs: VecDeque::new(),
                    shutdown: false,
                }),
                cond: Condvar::new(),
                cache: Mutex::new(ChainCache::new(cfg.cache_cap)),
            })
            .collect();
        let quant = (cfg.quantize == QuantMode::Int8)
            .then(|| Arc::new(QuantizedParamStore::from_store(&model.params)));
        let cfg = EngineConfig {
            shards: nshards,
            ..cfg
        };
        let metrics = Metrics::with_shards(nshards);
        metrics.set_quantize_int8(cfg.quantize == QuantMode::Int8);
        let shared = Arc::new(Shared {
            served: RwLock::new(Served {
                model,
                quant,
                generation: 0,
            }),
            metrics,
            live: RwLock::new(LiveGraph {
                overlay: OverlayGraph::new(graph),
                dirty: HashSet::new(),
                generation: 0,
            }),
            journal: Mutex::new(None),
            index,
            hops,
            cfg,
            shards,
        });
        let workers = (0..nshards)
            .map(|s| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cf-serve-s{s}"))
                    .spawn(move || worker_loop(&shared, s))
                    .expect("spawn shard worker")
            })
            .collect();
        Engine { shared, workers }
    }

    /// The resolved shard count (after `shards: 0` auto-sizing).
    pub fn shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// Routes and enqueues a query; the reply arrives on the returned
    /// channel. Sheds immediately (without enqueueing) when the shard queue
    /// is at capacity, when the deadline has already expired, or when the
    /// shard's projected queue delay exceeds the deadline (see [`admit`]).
    pub fn submit(
        &self,
        query: Query,
        deadline: Option<Duration>,
    ) -> Result<mpsc::Receiver<Reply>, ServeError> {
        let m = &self.shared.metrics;
        m.requests.fetch_add(1, Ordering::Relaxed);
        let s = shard_of(query.entity, self.shared.shards.len());
        m.shard(s).requests.fetch_add(1, Ordering::Relaxed);
        let shard = &self.shared.shards[s];
        let (tx, rx) = mpsc::channel();
        let mut q = shard.queue.lock().expect("queue poisoned");
        if q.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        let ewma = m.shard(s).ewma_service_us.load(Ordering::Relaxed);
        let deadline_us = deadline.map(|d| d.as_micros().min(u128::from(u64::MAX)) as u64);
        match admit(q.jobs.len(), self.shared.cfg.queue_cap, ewma, deadline_us) {
            Admission::Accept => {}
            Admission::ShedOverloaded => {
                m.shed.fetch_add(1, Ordering::Relaxed);
                m.shard(s).shed.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded);
            }
            Admission::ShedExpired => {
                m.deadline_missed.fetch_add(1, Ordering::Relaxed);
                m.shard(s).shed.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::DeadlineExceeded);
            }
        }
        let now = Instant::now();
        q.jobs.push_back(Job {
            query,
            deadline: deadline.map(|d| now + d),
            enqueued: now,
            reply: tx,
        });
        drop(q);
        shard.cond.notify_one();
        Ok(rx)
    }

    /// Synchronous prediction: submit and wait for the answer.
    pub fn predict(&self, query: Query) -> Reply {
        let rx = self.submit(query, None)?;
        rx.recv().map_err(|_| ServeError::ShuttingDown)?
    }

    /// The live graph the engine serves against (base store + mutation
    /// overlay), behind a read guard.
    ///
    /// **Do not hold the guard across [`Self::submit`] / [`Self::predict`]
    /// and the reply wait**: a concurrent [`Self::mutate`] queued on the
    /// write lock can make the workers' own read acquisition wait behind
    /// it, and the workers are what answer the reply you are blocked on.
    /// Resolve names, drop the guard, then submit.
    pub fn graph(&self) -> GraphGuard<'_> {
        GraphGuard {
            guard: self.shared.live.read().expect("live graph poisoned"),
        }
    }

    /// Applies a batch of live-graph mutations: validate every mutation,
    /// append + fsync them to the journal (when one is attached) **before**
    /// they become visible, then apply to the overlay, mark the touched
    /// neighborhood ([`dirty_entities`]) dirty so an indexed engine
    /// recomputes those rows instead of reading its stored ones, and drop
    /// every cached chain set that could traverse a mutated entity — all
    /// under the live write lock, so every shard observes the mutation
    /// atomically.
    ///
    /// All-or-nothing: any validation or journal error leaves the live
    /// graph untouched. Mutations naming a relation or attribute absent
    /// from the serving vocabulary are rejected here (the model's embedding
    /// tables are sized at training time; retrieval through an unseen
    /// relation token could not be encoded). New *entities* are fine — the
    /// model is inductive over entities.
    ///
    /// Counted in `cf_serve_mutations_ok_total` /
    /// `cf_serve_mutations_rejected_total`.
    pub fn mutate(&self, muts: &[Mutation]) -> Result<MutationOutcome, String> {
        let result = self.mutate_inner(muts);
        let m = &self.shared.metrics;
        match &result {
            Ok(_) => m.mutations_ok.fetch_add(1, Ordering::Relaxed),
            Err(_) => m.mutations_rejected.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    fn mutate_inner(&self, muts: &[Mutation]) -> Result<MutationOutcome, String> {
        for (i, mu) in muts.iter().enumerate() {
            validate_mutation(mu).map_err(|e| format!("mutation {i}: {e}"))?;
        }
        {
            let live = self.shared.live.read().expect("live graph poisoned");
            for (i, mu) in muts.iter().enumerate() {
                check_vocab(&live.overlay, mu).map_err(|e| format!("mutation {i}: {e}"))?;
            }
        }
        // Durability before visibility: a mutation the journal has not
        // fsynced must not influence any answer (lock order: journal →
        // live.write → shard caches; workers take served.read → live.read →
        // shard cache; no path takes them in the opposite order).
        let mut journal = self.shared.journal.lock().expect("journal poisoned");
        if let Some(js) = journal.as_mut() {
            if js.failed {
                return Err(
                    "journal: an earlier commit failed; mutations are disabled until restart"
                        .into(),
                );
            }
            for mu in muts {
                js.writer.append(mu);
            }
            if let Err(e) = js.writer.commit() {
                js.failed = true;
                return Err(format!("journal: {e}"));
            }
        }
        let mut live = self.shared.live.write().expect("live graph poisoned");
        let mut changed = 0usize;
        let mut touched: Vec<EntityId> = Vec::new();
        let mut seen = HashSet::new();
        for mu in muts {
            let out = live.overlay.apply(mu);
            changed += usize::from(out.changed);
            for e in out.touched {
                if seen.insert(e.0) {
                    touched.push(e);
                }
            }
        }
        let (dirty, invalidated) = self.shared.invalidate(&mut live, &touched);
        live.generation += 1;
        let generation = live.generation;
        // Compaction under both locks: the canonical rewrite and the
        // journal truncation stay atomic with respect to other mutations.
        // A crash *between* the two is harmless — replaying the surviving
        // journal onto the compacted store is a no-op (idempotence). The
        // batch is durable and applied by now, so a failed compaction does
        // not fail it: the journal keeps its records, and the next attempt
        // waits for `every` more of them (each attempt copies the whole live
        // graph under the write lock).
        let mut compacted = false;
        let mut compaction_error = None;
        if let Some(js) = journal.as_mut() {
            if let Some(pol) = &mut js.compact {
                let records = js.writer.records();
                if pol.every > 0 && records >= pol.due {
                    let done = live
                        .overlay
                        .compact_to(&pol.path)
                        .and_then(|()| js.writer.truncate_all());
                    match done {
                        Ok(()) => {
                            compacted = true;
                            pol.due = pol.every;
                        }
                        Err(e) => {
                            pol.due = records + pol.every;
                            let m = &self.shared.metrics;
                            m.compactions_failed.fetch_add(1, Ordering::Relaxed);
                            compaction_error =
                                Some(format!("compaction to {}: {e}", pol.path.display()));
                        }
                    }
                }
            }
        }
        Ok(MutationOutcome {
            applied: muts.len(),
            changed,
            dirty,
            invalidated,
            generation,
            compacted,
            compaction_error,
        })
    }

    /// Attaches a CFJ1 mutation journal, replaying any mutations it already
    /// holds onto the live graph (with the same dirty-marking and cache
    /// invalidation a fresh [`Self::mutate`] performs — the chain index was
    /// built against the pristine base, so rows in replayed neighborhoods
    /// are recomputed against the live graph too). A torn tail left by a
    /// crash mid-append is truncated by [`JournalWriter::open`]; returns how
    /// many committed mutations were replayed.
    ///
    /// With `compaction = Some((path, every))`, every `every` journaled
    /// records the live graph is compacted to a canonical CFKG1 at `path`
    /// and the journal is truncated. A compaction that fails leaves its
    /// batch applied and acknowledged and the journal as it was; it counts
    /// in `cf_serve_compactions_failed_total`, its error is the batch's
    /// [`MutationOutcome::compaction_error`], and the next attempt waits
    /// until `every` more records are journaled.
    pub fn attach_journal(
        &self,
        path: impl AsRef<Path>,
        compaction: Option<(PathBuf, u64)>,
    ) -> Result<usize, StoreError> {
        let mut journal = self.shared.journal.lock().expect("journal poisoned");
        let (writer, recovery) = JournalWriter::open(path)?;
        let replayed = recovery.mutations.len();
        if replayed > 0 {
            let mut live = self.shared.live.write().expect("live graph poisoned");
            for (i, mu) in recovery.mutations.iter().enumerate() {
                check_vocab(&live.overlay, mu).map_err(|what| StoreError::Corrupt {
                    section: "journal",
                    what: format!("record {i}: {what}"),
                })?;
                let touched = live.overlay.apply(mu).touched;
                self.shared.invalidate(&mut live, &touched);
            }
            live.generation += 1;
        }
        *journal = Some(JournalState {
            writer,
            compact: compaction.map(|(path, every)| CompactionPolicy {
                path,
                every,
                due: every,
            }),
            failed: false,
        });
        Ok(replayed)
    }

    /// The served model (a read guard: drops cheaply, blocks a concurrent
    /// [`Self::reload`]'s swap while held).
    pub fn model(&self) -> ModelGuard<'_> {
        ModelGuard {
            guard: self.shared.served.read().expect("model poisoned"),
        }
    }

    /// Hot-swaps the served model for the whole model a checkpoint file
    /// holds, its parameters and its `model` section together, without
    /// restarting the engine or dropping queued work.
    ///
    /// The reload is **all-or-nothing**: the checkpoint's magic,
    /// per-section CRCs, every parameter name and shape, and the `model`
    /// section (present, and matching the served configuration and
    /// vocabulary) are validated off the request path into a staged model
    /// while workers keep answering under their read locks. In int8 mode the
    /// staged model's twin is packed before the lock too. Only then does the
    /// write lock swap model and twin in, between batches, never
    /// mid-forward. Every failure mode lives before the swap; on any error
    /// the staged model is dropped and the old one keeps serving.
    ///
    /// Cached chains are the filter's top-k, so every shard's cache is
    /// emptied under the same write lock when the new filter differs from
    /// the old one in any bit. A reload that keeps the filter (new weights
    /// from the same fit) keeps the chain caches: retrieval reads the filter
    /// and the per-query RNG, not the swapped parameters. Every reload
    /// empties each worker's pattern cache: its rows are encoder outputs of
    /// the old weights.
    ///
    /// Counted in `cf_serve_reloads_ok_total` / `cf_serve_reloads_rejected_total`.
    pub fn reload(&self, path: impl AsRef<Path>) -> Result<(), cf_tensor::CheckpointError> {
        let result = (|| {
            let model = self.model().reloaded(path)?;
            // Validation is complete: nothing below this line can fail.
            let quant = (self.shared.cfg.quantize == QuantMode::Int8)
                .then(|| Arc::new(QuantizedParamStore::from_store(&model.params)));
            let mut served = self.shared.served.write().expect("model poisoned");
            // Batches insert into the caches under the model read lock, so
            // none can cache the old filter's chains after this.
            if !served.model.filter().same_bits(model.filter()) {
                for shard in &self.shared.shards {
                    shard.cache.lock().expect("cache poisoned").clear();
                }
            }
            let generation = served.generation + 1;
            *served = Served {
                model,
                quant,
                generation,
            };
            Ok(())
        })();
        let m = &self.shared.metrics;
        match &result {
            Ok(()) => m.reloads_ok.fetch_add(1, Ordering::Relaxed),
            Err(_) => m.reloads_rejected.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    /// Live serving metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Renders the metrics text block (the `GET /metrics` payload).
    pub fn metrics_text(&self) -> String {
        self.shared.metrics.render()
    }

    /// Graceful shutdown: already-enqueued jobs are answered, new
    /// submissions are refused, workers join. (Equivalent to dropping the
    /// engine; provided for explicitness at call sites.)
    pub fn shutdown(self) {}
}

impl Drop for Engine {
    fn drop(&mut self) {
        for shard in &self.shared.shards {
            let mut q = shard.queue.lock().expect("queue poisoned");
            q.shutdown = true;
            drop(q);
            shard.cond.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Shared {
    /// Marks the invalidation neighbourhood of `touched` (see
    /// [`dirty_entities`]): an indexed engine adds it to the dirty set, and
    /// every shard drops its cached chain sets. Returns the neighbourhood's
    /// size and how many cached sets were dropped.
    fn invalidate(&self, live: &mut LiveGraph, touched: &[EntityId]) -> (usize, usize) {
        let dirty = dirty_entities(&live.overlay, touched, self.hops);
        if self.index.is_some() {
            live.dirty.extend(dirty.iter().copied());
        }
        let invalidated = self
            .shards
            .iter()
            .map(|shard| {
                shard
                    .cache
                    .lock()
                    .expect("cache poisoned")
                    .invalidate_entities(&dirty)
            })
            .sum();
        (dirty.len(), invalidated)
    }
}

/// What a shard worker keeps across batches, owned by its thread alone.
struct Worker {
    /// One inference context, reused across batches: after the first batch
    /// its value arena and the thread's tensor buffer pool are warm, so
    /// steady-state forwards never touch the global allocator.
    ctx: InferCtx,
    /// The Chain Encoder's rows by pattern, filled under the model
    /// generation `generation`. Graph mutations leave it valid: a pattern's
    /// row reads no graph fact.
    patterns: PatternCache,
    generation: u64,
    /// The one buffer for index rows recomputed against the live graph; it
    /// grows to at most 16 × `per_entity_cap` entries.
    row: Vec<ChainEntry>,
}

fn worker_loop(shared: &Shared, shard_ix: usize) {
    let mut worker = Worker {
        ctx: InferCtx::new(),
        patterns: PatternCache::new(),
        generation: 0,
        row: Vec::new(),
    };
    loop {
        let batch = collect_batch(shared, shard_ix);
        if batch.is_empty() {
            return; // shutdown requested and the shard queue is drained
        }
        process_batch(shared, shard_ix, batch, &mut worker);
    }
}

/// Blocks for work on one shard, then takes the jobs already queued, up to
/// `max_batch`. It waits for no straggler: a connection has at most one
/// request in the engine at a time, so after a lone request none comes,
/// and a backlog is already queued. Returns an empty batch only on drained
/// shutdown.
fn collect_batch(shared: &Shared, shard_ix: usize) -> Vec<Job> {
    let shard = &shared.shards[shard_ix];
    let mut q = shard.queue.lock().expect("queue poisoned");
    while q.jobs.is_empty() {
        if q.shutdown {
            return Vec::new();
        }
        q = shard.cond.wait(q).expect("queue poisoned");
    }
    let n = q.jobs.len().min(shared.cfg.max_batch.max(1));
    q.jobs.drain(..n).collect()
}

fn process_batch(shared: &Shared, shard_ix: usize, batch: Vec<Job>, worker: &mut Worker) {
    let m = &shared.metrics;
    let shard = &shared.shards[shard_ix];
    m.batch_size.record(batch.len() as u64);
    let now = Instant::now();
    let mut live = Vec::with_capacity(batch.len());
    for job in batch {
        if job.deadline.is_some_and(|d| now >= d) {
            m.deadline_missed.fetch_add(1, Ordering::Relaxed);
            let _ = job.reply.send(Err(ServeError::DeadlineExceeded));
        } else {
            live.push(job);
        }
    }
    if live.is_empty() {
        return;
    }

    // One read guard for the whole batch: every job in it is answered by
    // the same model generation, and a concurrent reload's write lock
    // lands between batches, never mid-forward.
    let served = shared.served.read().expect("model poisoned");
    let model = &served.model;
    let service_start = Instant::now();

    // The live-graph read guard spans the whole resolve phase (cache
    // lookup → retrieval → cache insert), so a concurrent mutate's write
    // lock — which applies the mutation *and* invalidates the caches —
    // cannot interleave with it: chains cached here are consistent with
    // the graph generation this batch retrieved against.
    let live_graph = shared.live.read().expect("live graph poisoned");

    // Resolve every job's chains through the shard cache. The cache lock is
    // only held for the lookup/insert, never across retrieval of *other*
    // queries' chains in the same batch.
    let resolved: Vec<(Arc<CachedChains>, bool)> = live
        .iter()
        .map(|job| {
            let hit = shard.cache.lock().expect("cache poisoned").get(job.query);
            match hit {
                Some(c) => {
                    m.cache_hits.fetch_add(1, Ordering::Relaxed);
                    m.shard(shard_ix).cache_hits.fetch_add(1, Ordering::Relaxed);
                    (c, true)
                }
                None => {
                    m.cache_misses.fetch_add(1, Ordering::Relaxed);
                    m.shard(shard_ix)
                        .cache_misses
                        .fetch_add(1, Ordering::Relaxed);
                    let q = job.query;
                    let mut rng = StdRng::seed_from_u64(query_rng_seed(shared.cfg.seed, q));
                    // An indexed engine samples the entity's index row: the
                    // stored one while no mutation can have changed it,
                    // else the row recomputed against the live graph. Both
                    // are the row a fresh index of the current graph holds,
                    // so answers are a pure function of that graph — and
                    // shard-count independent.
                    let (toc, retrieved) = match &shared.index {
                        Some(ix) if live_graph.row_is_stored(ix, q.entity) => {
                            model.gather_chains_indexed(ix, q, &mut rng)
                        }
                        Some(ix) => {
                            let row = &mut worker.row;
                            collect_entity(&live_graph.overlay, q.entity, &ix.params(), row);
                            m.index_rows_rebuilt.fetch_add(1, Ordering::Relaxed);
                            model.gather_chains_row(row, q, &mut rng)
                        }
                        None => model.gather_chains(&live_graph.overlay, q, &mut rng),
                    };
                    let entry = Arc::new(CachedChains {
                        chains: toc.chains,
                        retrieved,
                    });
                    shard
                        .cache
                        .lock()
                        .expect("cache poisoned")
                        .put(job.query, Arc::clone(&entry));
                    (entry, false)
                }
            }
        })
        .collect();
    drop(live_graph);

    let jobs_view: Vec<ResolvedQuery<'_>> = live
        .iter()
        .zip(&resolved)
        .map(|(job, (c, _))| (job.query, c.chains.as_slice(), c.retrieved))
        .collect();
    // The twin is attached for this batch only (an Arc clone, `None` in
    // f32 mode), read under the model read lock: a batch never pairs
    // parameters and twin of different generations, and an idle worker
    // keeps no twin alive past a reload. Pattern rows of another
    // generation are dropped first.
    if worker.generation != served.generation {
        worker.patterns.clear();
        worker.generation = served.generation;
    }
    let ctx = &mut worker.ctx;
    ctx.set_weights(served.quant.clone());
    let details = model.predict_batch_cached(&jobs_view, ctx, &mut worker.patterns);
    ctx.set_weights(None);
    drop(served);
    let (cached, encoded) = worker.patterns.take_counts();
    m.pattern_rows_cached.fetch_add(cached, Ordering::Relaxed);
    m.pattern_rows_encoded.fetch_add(encoded, Ordering::Relaxed);

    // Feed admission control: per-request service time (retrieval +
    // forward, amortized over the batch) folded into this shard's EWMA.
    let per_request_us = (service_start.elapsed().as_micros() as u64) / (live.len() as u64);
    update_ewma(&m.shard(shard_ix).ewma_service_us, per_request_us);

    let batch_size = live.len();
    for ((job, detail), (_, cache_hit)) in live.into_iter().zip(details).zip(&resolved) {
        if detail.used_fallback {
            m.fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        m.ok.fetch_add(1, Ordering::Relaxed);
        let micros = job.enqueued.elapsed().as_micros() as u64;
        m.latency_us.record(micros);
        let _ = job.reply.send(Ok(ServedPrediction {
            detail,
            micros,
            batch_size,
            cache_hit: *cache_hit,
            shard: shard_ix,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_check::TempDir;
    use cf_kg::synth::{yago15k_sim, SynthScale};
    use cf_kg::Split;
    use chainsformer::ChainsFormerConfig;

    /// Per query: the value's bits, the retrieved count and the chains.
    type Answer = (u64, usize, Vec<(cf_chains::RaChain, EntityId)>);

    fn answers(e: &Engine, queries: &[Query]) -> Vec<Answer> {
        queries
            .iter()
            .map(|&q| {
                let d = e.predict(q).expect("predict").detail;
                let chains = d
                    .chains
                    .iter()
                    .map(|c| (c.chain.clone(), c.source))
                    .collect();
                (d.value.to_bits(), d.retrieved, chains)
            })
            .collect()
    }

    /// The graph and model of [`engine`], with the model's chains at most
    /// `max_hops` long: the visible graph, the model and the first eight
    /// test queries.
    fn fixture(max_hops: usize) -> (cf_kg::KnowledgeGraph, ChainsFormer, Vec<Query>) {
        let mut rng = StdRng::seed_from_u64(17);
        let g = yago15k_sim(SynthScale::small(), &mut rng);
        let split = Split::paper_811(&g, &mut rng);
        let visible = split.visible_graph(&g);
        let mut cfg = ChainsFormerConfig::tiny();
        cfg.setting.max_hops = max_hops;
        let model = ChainsFormer::new(&visible, &split.train, cfg, &mut rng);
        let queries = split
            .test
            .iter()
            .take(8)
            .map(|t| Query {
                entity: t.entity,
                attr: t.attr,
            })
            .collect();
        (visible, model, queries)
    }

    /// An engine serving `graph` with a chain index of it built under
    /// `params`, written to a CFCI1 file and mapped as `cfkg serve` maps it.
    fn indexed_engine(
        model: ChainsFormer,
        graph: KnowledgeGraph,
        params: cf_kg::IndexParams,
        cfg: EngineConfig,
    ) -> Engine {
        let dir = TempDir::new("indexed_engine");
        let path = dir.join("g.cfci");
        cf_kg::write_index(&cf_kg::build_chain_index(&graph, params), &path).expect("write index");
        // The mapping outlives the file's name, which `dir` removes on return.
        let ix = MappedChainIndex::open(&path).expect("open index");
        Engine::new_with_index(model, graph, Some(ix), cfg)
    }

    fn rows_rebuilt(e: &Engine) -> u64 {
        e.metrics().index_rows_rebuilt.load(Ordering::Relaxed)
    }

    fn engine(cfg: EngineConfig) -> (Engine, Vec<Query>) {
        let mut rng = StdRng::seed_from_u64(17);
        let g = yago15k_sim(SynthScale::small(), &mut rng);
        let split = Split::paper_811(&g, &mut rng);
        let visible = split.visible_graph(&g);
        let model = ChainsFormer::new(&visible, &split.train, ChainsFormerConfig::tiny(), &mut rng);
        let queries = split
            .test
            .iter()
            .take(8)
            .map(|t| Query {
                entity: t.entity,
                attr: t.attr,
            })
            .collect();
        (Engine::new(model, visible, cfg), queries)
    }

    #[test]
    fn predict_answers_and_counts_metrics() {
        let (e, queries) = engine(EngineConfig::default());
        let served = e.predict(queries[0]).expect("prediction");
        assert!(served.detail.value.is_finite());
        assert!(served.batch_size >= 1);
        assert_eq!(e.metrics().requests.load(Ordering::Relaxed), 1);
        assert_eq!(e.metrics().ok.load(Ordering::Relaxed), 1);
        assert_eq!(e.metrics().latency_us.count(), 1);
        // The request is attributed to exactly one shard's counters.
        let shard_requests: u64 = (0..e.shards())
            .map(|s| e.metrics().shard(s).requests.load(Ordering::Relaxed))
            .sum();
        assert_eq!(shard_requests, 1);
        e.shutdown();
    }

    #[test]
    fn cache_hit_repeats_the_same_answer_bitwise() {
        let (e, queries) = engine(EngineConfig::default());
        let q = queries[0];
        let first = e.predict(q).expect("first");
        let second = e.predict(q).expect("second");
        assert!(!first.cache_hit);
        assert!(second.cache_hit);
        assert_eq!(first.shard, second.shard, "same entity must route stably");
        assert_eq!(first.detail.value.to_bits(), second.detail.value.to_bits());
        assert_eq!(e.metrics().cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(e.metrics().cache_misses.load(Ordering::Relaxed), 1);
        e.shutdown();
    }

    #[test]
    fn engine_matches_direct_model_prediction() {
        // The served answer must equal predicting directly with the same
        // per-query deterministic RNG — serving adds no numeric drift.
        let (e, queries) = engine(EngineConfig::default());
        for &q in queries.iter().take(4) {
            let served = e.predict(q).expect("served");
            let mut rng = StdRng::seed_from_u64(query_rng_seed(7, q));
            let direct = e.model().predict(&*e.graph(), q, &mut rng);
            assert_eq!(served.detail.value.to_bits(), direct.value.to_bits());
            assert_eq!(served.detail.used_fallback, direct.used_fallback);
            assert_eq!(served.detail.retrieved, direct.retrieved);
        }
        e.shutdown();
    }

    #[test]
    fn multi_shard_engine_answers_and_balances() {
        let (e, queries) = engine(EngineConfig {
            shards: 4,
            ..EngineConfig::default()
        });
        assert_eq!(e.shards(), 4);
        for &q in &queries {
            let served = e.predict(q).expect("prediction");
            assert_eq!(served.shard, shard_of(q.entity, 4));
        }
        let m = e.metrics();
        let total: u64 = (0..4)
            .map(|s| m.shard(s).requests.load(Ordering::Relaxed))
            .sum();
        assert_eq!(total, queries.len() as u64);
        e.shutdown();
    }

    #[test]
    fn zero_capacity_queue_sheds_everything() {
        let (e, queries) = engine(EngineConfig {
            queue_cap: 0,
            ..EngineConfig::default()
        });
        match e.submit(queries[0], None) {
            Err(ServeError::Overloaded) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(e.metrics().shed.load(Ordering::Relaxed), 1);
        let shard_shed: u64 = (0..e.shards())
            .map(|s| e.metrics().shard(s).shed.load(Ordering::Relaxed))
            .sum();
        assert_eq!(shard_shed, 1);
        e.shutdown();
    }

    #[test]
    fn expired_deadline_is_shed_at_the_door() {
        // A deadline with nothing left is refused at submit time — nothing
        // is enqueued, no worker wakes, the caller learns immediately.
        let (e, queries) = engine(EngineConfig::default());
        match e.submit(queries[0], Some(Duration::ZERO)) {
            Err(ServeError::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(e.metrics().deadline_missed.load(Ordering::Relaxed), 1);
        e.shutdown();
    }

    #[test]
    fn projected_delay_sheds_when_queue_implies_a_miss() {
        // Pre-warm the EWMA by serving once, then flood a shard with
        // deadline-free work and submit a deadlined request behind it: the
        // projected delay (depth × EWMA) must shed it at the door.
        let (e, queries) = engine(EngineConfig {
            max_batch: 1,
            cache_cap: 0,
            ..EngineConfig::default()
        });
        let q = queries[0];
        e.predict(q).expect("warm the EWMA");
        let s = shard_of(q.entity, e.shards());
        let ewma = e.metrics().shard(s).ewma_service_us.load(Ordering::Relaxed);
        assert!(ewma > 0, "EWMA must be warm after a served batch");
        // Enough queued work that depth × ewma far exceeds 1 µs.
        let receivers: Vec<_> = (0..64).filter_map(|_| e.submit(q, None).ok()).collect();
        assert!(!receivers.is_empty());
        let mut shed = false;
        for _ in 0..64 {
            match e.submit(q, Some(Duration::from_micros(1))) {
                Err(ServeError::Overloaded) => {
                    shed = true;
                    break;
                }
                Err(ServeError::DeadlineExceeded) => unreachable!("1 µs is not 0"),
                _ => {}
            }
        }
        assert!(shed, "projected queue delay never shed a doomed request");
        drop(receivers);
        e.shutdown();
    }

    #[test]
    fn shutdown_answers_already_enqueued_jobs() {
        let (e, queries) = engine(EngineConfig::default());
        let receivers: Vec<_> = queries
            .iter()
            .take(4)
            .map(|&q| e.submit(q, None).expect("submit"))
            .collect();
        e.shutdown();
        for rx in receivers {
            let reply = rx.recv().expect("reply channel closed without answer");
            assert!(reply.is_ok(), "enqueued job dropped: {reply:?}");
        }
    }

    #[test]
    fn reload_hot_swaps_all_shards_and_rolls_back_on_corruption() {
        fn param_bits(ps: &cf_tensor::ParamStore) -> Vec<u32> {
            ps.iter()
                .flat_map(|(_, _, t)| t.data().iter().map(|x| x.to_bits()))
                .collect()
        }
        let dir = TempDir::new("reload");

        let mut rng = StdRng::seed_from_u64(17);
        let g = yago15k_sim(SynthScale::small(), &mut rng);
        let split = Split::paper_811(&g, &mut rng);
        let visible = split.visible_graph(&g);
        let model_a =
            ChainsFormer::new(&visible, &split.train, ChainsFormerConfig::tiny(), &mut rng);
        // Same architecture (shapes come from the graph + config), fresh
        // weights: exactly what a retraining run hands to a live server.
        let mut rng_b = StdRng::seed_from_u64(9001);
        let model_b = ChainsFormer::new(
            &visible,
            &split.train,
            ChainsFormerConfig::tiny(),
            &mut rng_b,
        );
        let a_bits = param_bits(&model_a.params);
        let b_bits = param_bits(&model_b.params);
        assert_ne!(a_bits, b_bits, "seeds must give distinct weights");
        let a_ckpt = dir.join("a.ckpt");
        let b_ckpt = dir.join("b.ckpt");
        model_a.save_params_to(&a_ckpt).unwrap();
        model_b.save_params_to(&b_ckpt).unwrap();

        let queries: Vec<Query> = split
            .test
            .iter()
            .take(8)
            .map(|t| Query {
                entity: t.entity,
                attr: t.attr,
            })
            .collect();
        let e = Engine::new(
            model_a,
            visible,
            EngineConfig {
                shards: 2,
                ..EngineConfig::default()
            },
        );
        let baseline: Vec<u64> = queries
            .iter()
            .map(|&q| e.predict(q).expect("baseline").detail.value.to_bits())
            .collect();

        // A good reload swaps the one model every shard reads.
        e.reload(&b_ckpt).expect("valid checkpoint accepted");
        assert_eq!(param_bits(&e.model().params), b_bits, "missed the swap");

        // Damaged checkpoints are rejected and the engine stays on B, its
        // parameters and its filter. The damage: a truncated file, a
        // flipped byte in the model section's body, and a file with no
        // model section at all.
        let full = std::fs::read(&b_ckpt).unwrap();
        let truncated = full[..full.len() / 2].to_vec();
        let mut bad_section = full.clone();
        // magic(4) + params tag(1) + params len(8) + body + crc(4), then the
        // model section's tag(1) and len(8).
        let params_len = u64::from_le_bytes(full[5..13].try_into().unwrap()) as usize;
        bad_section[4 + 13 + params_len + 4 + 9 + 16] ^= 0xFF;
        let mut bare = Vec::new();
        cf_tensor::save_checkpoint(&model_b.params, None, None, &mut bare).unwrap();
        let b_filter = model_b.filter().clone();
        for (name, bytes, section) in [
            ("truncated", truncated, None),
            ("corrupt section", bad_section, Some("model")),
            ("no section", bare, Some("model")),
        ] {
            let bad_ckpt = dir.join("bad.ckpt");
            std::fs::write(&bad_ckpt, bytes).unwrap();
            let err = e.reload(&bad_ckpt).expect_err(name);
            if let Some(section) = section {
                assert!(err.to_string().contains(section), "{name}: {err}");
            }
            let model = e.model();
            assert_eq!(
                param_bits(&model.params),
                b_bits,
                "{name}: rejected reload tainted the model"
            );
            assert!(model.filter().same_bits(&b_filter), "{name}");
        }
        e.reload(dir.join("missing.ckpt"))
            .expect_err("missing file accepted");

        // Reloading A back restores the original served answers bitwise:
        // A's filter comes back with its weights.
        e.reload(&a_ckpt).expect("original checkpoint accepted");
        for (&q, &want) in queries.iter().zip(&baseline) {
            let served = e.predict(q).expect("post-reload predict");
            assert_eq!(served.detail.value.to_bits(), want);
        }

        assert_eq!(e.metrics().reloads_ok.load(Ordering::Relaxed), 2);
        assert_eq!(e.metrics().reloads_rejected.load(Ordering::Relaxed), 4);
        let text = e.metrics_text();
        assert!(text.contains("cf_serve_reloads_ok_total 2"), "{text}");
        assert!(text.contains("cf_serve_reloads_rejected_total 4"), "{text}");
        assert!(!text.contains("cf_serve_shard_reloads"), "{text}");
        e.shutdown();
    }

    #[test]
    fn reload_serves_what_a_fresh_engine_over_the_file_serves() {
        // B was fitted under another RNG seed, so its filter differs from
        // A's: cached chains (A's top-k) must not survive the reload.
        let dir = TempDir::new("reload_whole");
        let mut rng = StdRng::seed_from_u64(17);
        let g = yago15k_sim(SynthScale::small(), &mut rng);
        let split = Split::paper_811(&g, &mut rng);
        let visible = split.visible_graph(&g);
        let cfg = ChainsFormerConfig::tiny();
        let model_a = ChainsFormer::new(&visible, &split.train, cfg.clone(), &mut rng);
        let model_b = ChainsFormer::new(
            &visible,
            &split.train,
            cfg.clone(),
            &mut StdRng::seed_from_u64(9001),
        );
        assert!(!model_a.filter().same_bits(model_b.filter()));
        let b_ckpt = dir.join("b.ckpt");
        model_b.save_params_to(&b_ckpt).unwrap();
        let queries: Vec<Query> = split
            .test
            .iter()
            .chain(&split.train)
            .take(24)
            .map(|t| Query {
                entity: t.entity,
                attr: t.attr,
            })
            .collect();
        for (quantize, shards) in [QuantMode::F32, QuantMode::Int8]
            .into_iter()
            .flat_map(|q| [(q, 1usize), (q, 4)])
        {
            let engine_cfg = EngineConfig {
                shards,
                quantize,
                ..EngineConfig::default()
            };
            let e = Engine::new(model_a.clone(), visible.clone(), engine_cfg.clone());
            let before = answers(&e, &queries); // warms every shard's cache with A's chains
            e.reload(&b_ckpt).expect("reload B");
            let after = answers(&e, &queries);
            let fresh = Engine::new(
                ChainsFormer::load(&b_ckpt, cfg.clone(), &visible).expect("load B"),
                visible.clone(),
                engine_cfg,
            );
            let at = format!("{quantize}, {shards} shard(s)");
            assert_eq!(after, answers(&fresh, &queries), "{at}");
            assert_ne!(after, before, "{at}: reload changed nothing");
            e.shutdown();
            fresh.shutdown();
        }
    }

    /// A reload whose filter has the same bits keeps every chain cache, but
    /// its new encoder weights must reach the answers: no worker may keep
    /// the Chain Encoder rows of the old ones. B is A with the encoder
    /// Transformer's weights scaled, so a kept pattern cache would serve A's
    /// rows under B's affine transfer and reasoner.
    #[test]
    fn same_filter_reload_serves_the_new_encoder_weights() {
        let dir = TempDir::new("reload_same_filter");
        let (visible, model_a, queries) = fixture(3);
        let mut model_b = model_a.clone();
        let encoder: Vec<cf_tensor::ParamId> = model_b
            .params
            .iter()
            .filter(|(_, name, _)| name.starts_with("encoder.tf."))
            .map(|(id, _, _)| id)
            .collect();
        assert!(!encoder.is_empty());
        for id in encoder {
            for x in model_b.params.get_mut(id).data_mut() {
                *x *= 1.25;
            }
        }
        assert!(model_a.filter().same_bits(model_b.filter()));
        let b_ckpt = dir.join("b.ckpt");
        model_b.save_params_to(&b_ckpt).unwrap();
        for (quantize, shards) in [QuantMode::F32, QuantMode::Int8]
            .into_iter()
            .flat_map(|q| [(q, 1usize), (q, 4)])
        {
            let at = format!("{quantize}, {shards} shard(s)");
            let engine_cfg = EngineConfig {
                shards,
                quantize,
                ..EngineConfig::default()
            };
            let e = Engine::new(model_a.clone(), visible.clone(), engine_cfg.clone());
            let before = answers(&e, &queries); // warms chain and pattern caches
            e.reload(&b_ckpt).expect("reload B");
            let hits = e.metrics().cache_hits.load(Ordering::Relaxed);
            let after = answers(&e, &queries);
            assert_eq!(
                e.metrics().cache_hits.load(Ordering::Relaxed),
                hits + queries.len() as u64,
                "{at}: the reload dropped chain caches"
            );
            let fresh = Engine::new(
                ChainsFormer::load(&b_ckpt, model_a.cfg.clone(), &visible).expect("load B"),
                visible.clone(),
                engine_cfg,
            );
            assert_eq!(after, answers(&fresh, &queries), "{at}");
            assert_ne!(after, before, "{at}: reload changed nothing");
            e.shutdown();
            fresh.shutdown();
        }
    }

    #[test]
    fn quantized_engine_serves_and_reports_its_mode() {
        let (e, queries) = engine(EngineConfig {
            quantize: QuantMode::Int8,
            ..EngineConfig::default()
        });
        for &q in queries.iter().take(4) {
            let served = e.predict(q).expect("quantized prediction");
            assert!(served.detail.value.is_finite());
        }
        let text = e.metrics_text();
        assert!(
            text.contains("cf_serve_quantize_mode{mode=\"int8\"} 1"),
            "{text}"
        );
        e.shutdown();

        let (e, _) = engine(EngineConfig::default());
        assert!(
            e.metrics_text()
                .contains("cf_serve_quantize_mode{mode=\"f32\"} 1"),
            "f32 engine must report its mode too"
        );
        e.shutdown();
    }

    #[test]
    fn quantized_answers_are_shard_count_invariant() {
        // Every shard reads the engine's one int8 twin, and the int8 kernel
        // is row-local, so the quantized engine keeps the f32 engine's
        // shard-count invariance.
        let mut answers: Vec<Vec<u64>> = Vec::new();
        for shards in [1usize, 4] {
            let (e, queries) = engine(EngineConfig {
                shards,
                quantize: QuantMode::Int8,
                ..EngineConfig::default()
            });
            answers.push(
                queries
                    .iter()
                    .map(|&q| e.predict(q).expect("predict").detail.value.to_bits())
                    .collect(),
            );
            e.shutdown();
        }
        assert_eq!(answers[0], answers[1], "shard count changed int8 bits");
    }

    #[test]
    fn quantized_engine_diverges_from_f32_within_tolerance() {
        let (ef, queries) = engine(EngineConfig::default());
        let (eq, _) = engine(EngineConfig {
            quantize: QuantMode::Int8,
            ..EngineConfig::default()
        });
        let mut any_diff = false;
        let mut evidence_backed = 0;
        for &q in &queries {
            let f = ef.predict(q).expect("f32").detail;
            let i = eq.predict(q).expect("int8").detail;
            assert_eq!(f.used_fallback, i.used_fallback);
            if f.used_fallback {
                // No linear layer runs: the fallback must stay bit-equal.
                assert_eq!(f.value.to_bits(), i.value.to_bits());
                continue;
            }
            evidence_backed += 1;
            any_diff |= f.value.to_bits() != i.value.to_bits();
            // Bound the per-query deviation in the attribute's normalized
            // [0, 1] scale (raw units vary wildly across attributes).
            let range = ef.model().normalizer().range(q.attr).max(1e-9);
            assert!(
                ((f.value - i.value) / range).abs() < 0.05,
                "int8 answer drifted: f32 {} vs int8 {} (range {range})",
                f.value,
                i.value
            );
        }
        assert!(evidence_backed >= 3, "too few evidence-backed queries");
        assert!(any_diff, "int8 path produced f32-identical bits");
        ef.shutdown();
        eq.shutdown();
    }

    #[test]
    fn reload_requantizes_every_shard() {
        // After a hot reload the int8 twin must be rebuilt from the new
        // parameters: reloading the same checkpoint back must restore the
        // original quantized answers bitwise.
        let dir = TempDir::new("qreload");
        let (e, queries) = engine(EngineConfig {
            shards: 2,
            cache_cap: 0,
            quantize: QuantMode::Int8,
            ..EngineConfig::default()
        });
        let ckpt_a = dir.join("a.ckpt");
        e.model().save_params_to(&ckpt_a).unwrap();
        let baseline: Vec<u64> = queries
            .iter()
            .map(|&q| e.predict(q).expect("baseline").detail.value.to_bits())
            .collect();

        // Fresh weights (same architecture) must change quantized answers —
        // proof the workers re-adopt the swapped twin, not the stale one.
        let mut rng = StdRng::seed_from_u64(4242);
        let g = yago15k_sim(SynthScale::small(), &mut rng);
        let split = Split::paper_811(&g, &mut rng);
        let visible = split.visible_graph(&g);
        let fresh = ChainsFormer::new(&visible, &split.train, ChainsFormerConfig::tiny(), &mut rng);
        let ckpt_b = dir.join("b.ckpt");
        fresh.save_params_to(&ckpt_b).unwrap();
        e.reload(&ckpt_b).expect("reload fresh weights");
        let swapped: Vec<u64> = queries
            .iter()
            .map(|&q| e.predict(q).expect("post-swap").detail.value.to_bits())
            .collect();
        assert_ne!(baseline, swapped, "reload did not requantize");

        e.reload(&ckpt_a).expect("reload original weights");
        let restored: Vec<u64> = queries
            .iter()
            .map(|&q| e.predict(q).expect("restored").detail.value.to_bits())
            .collect();
        assert_eq!(baseline, restored, "requantization is not reproducible");
        e.shutdown();
    }

    /// A mutation batch exercising every op: a numeric upsert on a served
    /// entity, a new entity, and an edge linking it into the graph.
    fn mutation_batch(graph: &impl cf_kg::GraphView, q: Query) -> Vec<Mutation> {
        let entity = graph.entity_name(q.entity).to_string();
        let attr = graph.attribute_name(q.attr).to_string();
        let rel = graph.relation_name(cf_kg::RelationId(0)).to_string();
        vec![
            Mutation::UpsertNumeric {
                entity: entity.clone(),
                attr,
                value: 1234.5,
            },
            Mutation::AddEntity {
                name: "mutant_0".into(),
            },
            Mutation::AddEdge {
                head: "mutant_0".into(),
                rel,
                tail: entity,
            },
        ]
    }

    #[test]
    fn mutate_applies_invalidates_and_changes_answers() {
        let (e, queries) = engine(EngineConfig::default());
        let q = queries[0];
        let before = e.predict(q).expect("before");
        assert!(e.predict(q).expect("cached").cache_hit);

        let muts = mutation_batch(&*e.graph(), q);
        let out = e.mutate(&muts).expect("mutate");
        assert_eq!(out.applied, 3);
        assert_eq!(out.changed, 3);
        assert!(out.dirty >= 2, "touched entities must be marked stale");
        assert!(out.invalidated >= 1, "cached entry for q must be dropped");
        assert_eq!(out.generation, 1);

        // The cached entry was invalidated: the next predict re-retrieves
        // against the mutated graph, and the upsert of this very
        // (entity, attr) fact changes the answer.
        let after = e.predict(q).expect("after");
        assert!(!after.cache_hit, "stale chains served from cache");
        assert_ne!(
            before.detail.value.to_bits(),
            after.detail.value.to_bits(),
            "upserting the queried fact must change the prediction"
        );

        // Idempotence: re-applying the same batch changes nothing and the
        // answer (now cached again) is stable.
        let out = e.mutate(&muts).expect("re-mutate");
        assert_eq!(out.changed, 0);
        assert_eq!(out.dirty, 0);
        let again = e.predict(q).expect("again");
        assert_eq!(after.detail.value.to_bits(), again.detail.value.to_bits());

        assert_eq!(e.metrics().mutations_ok.load(Ordering::Relaxed), 2);
        e.shutdown();
    }

    #[test]
    fn invalid_mutations_are_rejected_without_applying() {
        let (e, queries) = engine(EngineConfig::default());
        let q = queries[0];
        let entity = e.graph().entity_name(q.entity).to_string();
        // Per-field validation error, batch position named.
        let err = e
            .mutate(&[
                Mutation::AddEntity { name: "ok".into() },
                Mutation::UpsertNumeric {
                    entity: entity.clone(),
                    attr: "birth".into(),
                    value: f64::NAN,
                },
            ])
            .expect_err("NaN accepted");
        assert!(err.contains("mutation 1"), "{err}");
        assert!(err.contains("value: not finite"), "{err}");
        // Out-of-vocabulary attribute / relation.
        let err = e
            .mutate(&[Mutation::UpsertNumeric {
                entity: entity.clone(),
                attr: "unheard_of".into(),
                value: 1.0,
            }])
            .expect_err("unknown attr accepted");
        assert!(err.contains("not in the serving vocabulary"), "{err}");
        let err = e
            .mutate(&[Mutation::AddEdge {
                head: entity.clone(),
                rel: "unheard_of".into(),
                tail: entity,
            }])
            .expect_err("unknown rel accepted");
        assert!(err.contains("not in the serving vocabulary"), "{err}");
        // Nothing was applied: vocabulary additions from rejected batches
        // (the "ok" entity) never landed, and the first batch that does
        // apply is generation 1.
        assert!(e.graph().entity_by_name("ok").is_none());
        assert_eq!(e.metrics().mutations_rejected.load(Ordering::Relaxed), 3);
        assert_eq!(e.metrics().mutations_ok.load(Ordering::Relaxed), 0);
        let out = e
            .mutate(&[Mutation::AddEntity { name: "ok".into() }])
            .expect("valid batch");
        assert_eq!(out.generation, 1);
        e.shutdown();
    }

    #[test]
    fn post_mutation_answers_are_shard_count_invariant() {
        // The acceptance bar: after the same mutation batch, every query —
        // including one for a freshly added entity — answers with the same
        // bits at shards 1 and 4, f32 and int8.
        for quantize in [QuantMode::F32, QuantMode::Int8] {
            let mut answers: Vec<Vec<u64>> = Vec::new();
            for shards in [1usize, 4] {
                let (e, queries) = engine(EngineConfig {
                    shards,
                    quantize,
                    ..EngineConfig::default()
                });
                // Warm caches pre-mutation so invalidation is exercised.
                for &q in &queries {
                    e.predict(q).expect("warm");
                }
                let muts = mutation_batch(&*e.graph(), queries[0]);
                e.mutate(&muts).expect("mutate");
                let new_entity = e.graph().entity_by_name("mutant_0").expect("added");
                let mut qs = queries.clone();
                qs.push(Query {
                    entity: new_entity,
                    attr: queries[0].attr,
                });
                answers.push(
                    qs.iter()
                        .map(|&q| e.predict(q).expect("predict").detail.value.to_bits())
                        .collect(),
                );
                e.shutdown();
            }
            assert_eq!(
                answers[0], answers[1],
                "shard count changed post-mutation bits ({quantize})"
            );
        }
    }

    #[test]
    fn journal_attach_replays_mutations_bitwise() {
        let dir = TempDir::new("engine_journal");
        let journal = dir.join("live.cfj");

        let (e, queries) = engine(EngineConfig::default());
        assert_eq!(e.attach_journal(&journal, None).expect("attach"), 0);
        let muts = mutation_batch(&*e.graph(), queries[0]);
        e.mutate(&muts).expect("mutate");
        let want: Vec<u64> = queries
            .iter()
            .map(|&q| e.predict(q).expect("predict").detail.value.to_bits())
            .collect();
        e.shutdown();

        // A fresh engine over the same base replays the journal on attach
        // and serves identical bits.
        let (e2, _) = engine(EngineConfig::default());
        let store = dir.join("compacted.cfkg");
        let replayed = e2
            .attach_journal(&journal, Some((store.clone(), 1)))
            .expect("attach");
        assert_eq!(replayed, muts.len());
        assert!(e2.graph().entity_by_name("mutant_0").is_some());
        let got: Vec<u64> = queries
            .iter()
            .map(|&q| e2.predict(q).expect("predict").detail.value.to_bits())
            .collect();
        assert_eq!(want, got, "journal replay changed served bits");

        // Online compaction (`cfkg serve --compact-every 1`): the next
        // batch, an idempotent re-apply, folds the overlay into a canonical
        // store and empties the journal; an engine over the compacted store
        // (no journal) serves the same bits again.
        assert!(e2.mutate(&muts).expect("re-mutate").compacted);
        assert_eq!(cf_kg::recover_file(&journal).unwrap().mutations.len(), 0);
        e2.shutdown();

        let mut rng = StdRng::seed_from_u64(17);
        let g = yago15k_sim(SynthScale::small(), &mut rng);
        let split = Split::paper_811(&g, &mut rng);
        let visible = split.visible_graph(&g);
        let model = ChainsFormer::new(&visible, &split.train, ChainsFormerConfig::tiny(), &mut rng);
        let compacted = cf_kg::read_store(&store).expect("read compacted");
        let e3 = Engine::new(model, compacted, EngineConfig::default());
        let got: Vec<u64> = queries
            .iter()
            .map(|&q| e3.predict(q).expect("predict").detail.value.to_bits())
            .collect();
        assert_eq!(want, got, "compacted store changed served bits");
        e3.shutdown();
    }

    /// A compaction that cannot write its store must not turn a durable,
    /// applied batch into an error reply: the batch is acked, its journal
    /// keeps the records for a restart to replay, and the failure counts.
    #[test]
    fn failed_compaction_still_acks_the_batch() {
        let dir = TempDir::new("engine_compact_fail");
        let journal = dir.join("live.cfj");
        let store = dir.join("missing").join("c.cfkg");
        let (e, queries) = engine(EngineConfig::default());
        e.attach_journal(&journal, Some((store.clone(), 1)))
            .expect("attach");
        let muts = mutation_batch(&*e.graph(), queries[0]);
        let out = e
            .mutate(&muts)
            .expect("batch rejected after it was applied");
        assert!(!out.compacted);
        let err = out.compaction_error.expect("the failure is reported");
        assert!(err.contains("c.cfkg"), "{err}");
        assert_eq!(out.applied, muts.len());
        let added = e.graph().entity_by_name("mutant_0").expect("added");
        e.predict(Query {
            entity: added,
            attr: queries[0].attr,
        })
        .expect("predict on the added entity");
        let m = e.metrics();
        assert_eq!(m.compactions_failed.load(Ordering::Relaxed), 1);
        assert_eq!(m.mutations_ok.load(Ordering::Relaxed), 1);
        assert_eq!(m.mutations_rejected.load(Ordering::Relaxed), 0);
        assert!(m.render().contains("cf_serve_compactions_failed_total 1"));
        assert!(!store.exists());
        e.shutdown();

        let (e2, _) = engine(EngineConfig::default());
        assert_eq!(
            e2.attach_journal(&journal, None).expect("replay"),
            muts.len()
        );
        assert!(e2.graph().entity_by_name("mutant_0").is_some());
        e2.shutdown();
    }

    /// A compaction target that keeps failing is retried once `every` more
    /// records are journaled, not on every later batch, and each failure's
    /// error comes out in its batch's outcome. Five one-mutation batches at
    /// `every = 2` attempt at records 2 and 4: two failures.
    #[test]
    fn failed_compaction_retries_after_every_more_records() {
        let dir = TempDir::new("engine_compact_retry");
        let store = dir.join("missing").join("c.cfkg");
        let (e, _) = engine(EngineConfig::default());
        e.attach_journal(dir.join("live.cfj"), Some((store.clone(), 2)))
            .expect("attach");
        let errors: Vec<Option<String>> = (0..5)
            .map(|i| {
                let out = e
                    .mutate(&[Mutation::AddEntity {
                        name: format!("retry_{i}"),
                    }])
                    .expect("batch rejected after it was applied");
                assert!(!out.compacted);
                out.compaction_error
            })
            .collect();
        let attempted: Vec<bool> = errors.iter().map(Option::is_some).collect();
        assert_eq!(attempted, [false, true, false, true, false]);
        for err in errors.iter().flatten() {
            assert!(err.starts_with("compaction to "), "{err}");
            assert!(err.contains("c.cfkg"), "{err}");
        }
        let m = e.metrics();
        assert_eq!(m.compactions_failed.load(Ordering::Relaxed), 2);
        assert_eq!(m.mutations_ok.load(Ordering::Relaxed), 5);
        assert!(!store.exists());
        e.shutdown();
    }

    /// Mutation batches over names of `g`: upserts on served entities, two
    /// entities added after any index build, edges linking them in and an
    /// edge between two served entities. Later batches build on earlier
    /// ones.
    fn mutation_batches(g: &impl cf_kg::GraphView, queries: &[Query]) -> Vec<Vec<Mutation>> {
        let entity = |i: usize| g.entity_name(queries[i].entity).to_string();
        let attr = |i: usize| g.attribute_name(queries[i].attr).to_string();
        let rel = |r: u32| g.relation_name(cf_kg::RelationId(r)).to_string();
        let upsert = |entity: String, attr: String, value: f64| Mutation::UpsertNumeric {
            entity,
            attr,
            value,
        };
        let edge = |head: String, r: u32, tail: String| Mutation::AddEdge {
            head,
            rel: rel(r),
            tail,
        };
        vec![
            vec![
                upsert(entity(0), attr(1), 77.25),
                Mutation::AddEntity {
                    name: "mutant_0".into(),
                },
                edge("mutant_0".into(), 0, entity(0)),
                upsert("mutant_0".into(), attr(0), 1234.5),
            ],
            vec![
                edge(entity(1), 1, entity(2)),
                upsert(entity(3), attr(3), -5.0),
            ],
            vec![
                edge("mutant_1".into(), 0, "mutant_0".into()),
                upsert("mutant_1".into(), attr(2), 42.0),
                edge(entity(4), 1, "mutant_1".into()),
            ],
        ]
    }

    /// The acceptance bar of an indexed engine: its answers are a function
    /// of the current graph. After mutation batches, every answer — for
    /// entities no mutation came near, for dirty ones and for ones added
    /// after the build — equals, bit for bit and chain for chain, the
    /// answer of a fresh engine over the materialized graph with a freshly
    /// built index, at shards 1 and 4, f32 and int8. The index is built one
    /// hop deeper than the model's chains.
    #[test]
    fn indexed_answers_equal_a_fresh_engine_over_the_current_graph() {
        let (visible, model, queries) = fixture(2);
        let params = cf_kg::IndexParams {
            max_hops: 3,
            fanout: 8,
            per_entity_cap: 64,
        };
        // The test queries plus a spread of entities across the graph.
        let n = visible.num_entities();
        let mut probes: Vec<Query> = queries.clone();
        probes.extend((0..n).step_by(n / 24).map(|i| Query {
            entity: EntityId(i as u32),
            attr: queries[i % queries.len()].attr,
        }));
        for (quantize, shards) in [QuantMode::F32, QuantMode::Int8]
            .into_iter()
            .flat_map(|q| [(q, 1usize), (q, 4)])
        {
            let at = format!("{quantize}, {shards} shard(s)");
            let cfg = EngineConfig {
                shards,
                quantize,
                ..EngineConfig::default()
            };
            let e = indexed_engine(model.clone(), visible.clone(), params, cfg.clone());
            answers(&e, &probes); // warm caches, so invalidation is exercised
            let batches = mutation_batches(&*e.graph(), &queries);
            for batch in &batches {
                e.mutate(batch).expect("mutate");
            }
            let mut qs = probes.clone();
            for name in ["mutant_0", "mutant_1"] {
                let entity = e.graph().entity_by_name(name).expect("added");
                qs.extend(queries.iter().take(3).map(|q| Query {
                    entity,
                    attr: q.attr,
                }));
            }
            let got = answers(&e, &qs);
            // Both row sources answer: some base entities from recomputed
            // rows (beyond the added entities' distinct queries), others
            // from stored rows.
            let added: HashSet<(EntityId, cf_kg::AttributeId)> = qs
                .iter()
                .filter(|q| q.entity.0 as usize >= n)
                .map(|q| (q.entity, q.attr))
                .collect();
            let rebuilt = rows_rebuilt(&e) as usize;
            assert!(
                rebuilt > added.len() && rebuilt < qs.len(),
                "{at}: {rebuilt} of {} answers from recomputed rows, {} for added entities",
                qs.len(),
                added.len()
            );
            let current = e.graph().materialize();
            e.shutdown();
            let fresh = indexed_engine(model.clone(), current, params, cfg);
            assert_eq!(got, answers(&fresh, &qs), "{at}");
            assert_eq!(rows_rebuilt(&fresh), 0, "{at}");
            fresh.shutdown();
        }
    }

    /// `cf_serve_index_rows_rebuilt_total` counts exactly the cache misses
    /// answered from a recomputed row: after one mutation, one per distinct
    /// query whose entity is in the mutation's dirty neighbourhood (the
    /// added entity included), and nothing for the repeats the cache
    /// answers. An engine without an index never counts.
    #[test]
    fn rebuilt_rows_are_counted_exactly() {
        let (visible, model, queries) = fixture(3);
        let indexed = indexed_engine(
            model.clone(),
            visible.clone(),
            cf_kg::IndexParams::default(),
            EngineConfig::default(),
        );
        let plain = Engine::new(model, visible, EngineConfig::default());
        for e in [&indexed, &plain] {
            answers(e, &queries);
            assert_eq!(rows_rebuilt(e), 0, "rows rebuilt before any mutation");
            let muts = mutation_batch(&*e.graph(), queries[0]);
            e.mutate(&muts).expect("mutate");
        }
        let added = indexed.graph().entity_by_name("mutant_0").expect("added");
        let mut qs = queries.clone();
        qs.push(Query {
            entity: added,
            attr: queries[0].attr,
        });
        let mut seen = HashSet::new();
        qs.retain(|q| seen.insert((q.entity, q.attr)));
        let dirty = dirty_entities(&indexed.graph(), &[queries[0].entity, added], 3);
        let want = qs.iter().filter(|q| dirty.contains(&q.entity.0)).count();
        assert!(
            want >= 2 && want < qs.len(),
            "{want} of {} queries dirty",
            qs.len()
        );
        for e in [&indexed, &plain] {
            answers(e, &qs);
            answers(e, &qs); // cache hits: counted nowhere
        }
        assert_eq!(rows_rebuilt(&indexed), want as u64);
        let text = indexed.metrics_text();
        assert!(
            text.contains(&format!("cf_serve_index_rows_rebuilt_total {want}\n")),
            "{text}"
        );
        assert_eq!(rows_rebuilt(&plain), 0);
        assert!(plain
            .metrics_text()
            .contains("cf_serve_index_rows_rebuilt_total 0\n"));
        indexed.shutdown();
        plain.shutdown();
    }

    /// Serves `queries` once; returns the chain rows served and how many of
    /// their patterns were new to `seen`, the patterns each shard has met.
    fn serve_patterns(
        e: &Engine,
        queries: &[Query],
        seen: &mut [HashSet<cf_chains::RaChain>],
    ) -> (u64, u64) {
        let (mut rows, mut new) = (0, 0);
        for &q in queries {
            let d = e.predict(q).expect("predict").detail;
            rows += d.chains.len() as u64;
            let shard = &mut seen[shard_of(q.entity, seen.len())];
            for c in d.chains {
                new += u64::from(shard.insert(c.chain));
            }
        }
        (rows, new)
    }

    /// `cf_serve_pattern_rows_encoded_total` counts one row per distinct
    /// pattern a shard's worker meets, and `cf_serve_pattern_rows_cached_total`
    /// every other chain row served: repeats hit, a mutation keeps the rows
    /// (only the new patterns it brings are encoded), and a reload drops
    /// them (each pattern is encoded again), at shards 1 and 4.
    #[test]
    fn pattern_rows_are_counted_exactly() {
        let dir = TempDir::new("pattern_rows");
        for shards in [1usize, 4] {
            let (e, queries) = engine(EngineConfig {
                shards,
                ..EngineConfig::default()
            });
            let mut seen = vec![HashSet::new(); shards];
            let (rows, encoded) = serve_patterns(&e, &queries, &mut seen);
            assert!(encoded > 0 && encoded < rows, "{encoded} of {rows} encoded");
            let mut total = (rows, encoded);
            let mut add = |(rows, new): (u64, u64)| {
                total.0 += rows;
                total.1 += new;
            };
            add(serve_patterns(&e, &queries, &mut seen)); // every pattern held
            let muts = mutation_batch(&*e.graph(), queries[0]);
            e.mutate(&muts).expect("mutate");
            add(serve_patterns(&e, &queries, &mut seen)); // rows kept across it
            let ckpt = dir.join(format!("m{shards}.ckpt"));
            e.model().save_params_to(&ckpt).unwrap();
            e.reload(&ckpt).expect("reload");
            seen.iter_mut().for_each(HashSet::clear);
            add(serve_patterns(&e, &queries, &mut seen)); // rows dropped by it
            let (rows, encoded) = total;
            let text = e.metrics_text();
            for (name, want) in [("cached", rows - encoded), ("encoded", encoded)] {
                let line = format!("cf_serve_pattern_rows_{name}_total {want}\n");
                assert!(text.contains(&line), "{shards} shard(s): want {line}{text}");
            }
            e.shutdown();
        }
    }

    /// A mutation that adds evidence moves an indexed answer: giving a
    /// fact that one of the query's evidence chains carries — on the query
    /// entity or a neighbour, for another attribute than the queried one —
    /// a new value changes the prediction, and the new answer comes from a
    /// recomputed row.
    #[test]
    fn mutation_adding_evidence_moves_the_indexed_answer() {
        let (visible, model, queries) = fixture(3);
        let e = indexed_engine(
            model,
            visible,
            cf_kg::IndexParams::default(),
            EngineConfig::default(),
        );
        let (q, before, fact) = queries
            .iter()
            .find_map(|&q| {
                let before = e.predict(q).expect("before").detail;
                let g = e.graph();
                // A chain whose fact the upsert below rewrites unambiguously:
                // not the queried fact, and the source's only fact of its
                // attribute.
                let c = before.chains.iter().find(|c| {
                    let (source, attr) = (c.source, c.chain.known_attr);
                    let facts = g.numerics_of(source).iter().filter(|f| f.attr == attr);
                    (source != q.entity || attr != q.attr) && facts.count() == 1
                })?;
                let fact = (c.source, c.chain.known_attr, c.known_value);
                Some((q, before, fact))
            })
            .expect("a query with evidence chains");
        let (source, attr, old) = fact;
        let norm = e.model().normalizer().clone();
        let value = if old == norm.max(attr) {
            norm.min(attr)
        } else {
            norm.max(attr)
        };
        let upsert = Mutation::UpsertNumeric {
            entity: e.graph().entity_name(source).to_string(),
            attr: e.graph().attribute_name(attr).to_string(),
            value,
        };
        e.mutate(&[upsert]).expect("mutate");
        let after = e.predict(q).expect("after");
        assert!(!after.cache_hit, "pre-mutation chains served from cache");
        assert_eq!(rows_rebuilt(&e), 1);
        assert_ne!(
            before.value.to_bits(),
            after.detail.value.to_bits(),
            "new evidence did not move the answer"
        );
        assert!(after
            .detail
            .chains
            .iter()
            .any(|c| c.source == source && c.chain.known_attr == attr && c.known_value == value));
        e.shutdown();
    }

    #[test]
    fn query_rng_seed_is_deterministic_and_query_sensitive() {
        let a = Query {
            entity: cf_kg::EntityId(1),
            attr: cf_kg::AttributeId(0),
        };
        let b = Query {
            entity: cf_kg::EntityId(0),
            attr: cf_kg::AttributeId(1),
        };
        assert_eq!(query_rng_seed(7, a), query_rng_seed(7, a));
        assert_ne!(query_rng_seed(7, a), query_rng_seed(7, b));
        assert_ne!(query_rng_seed(7, a), query_rng_seed(8, a));
    }

    #[test]
    fn shard_routing_is_stable_and_covers_all_shards() {
        // Pure function: same entity, same shard, every time.
        for id in 0..64u32 {
            let e = EntityId(id);
            assert_eq!(shard_of(e, 4), shard_of(e, 4));
            assert!(shard_of(e, 4) < 4);
            assert_eq!(shard_of(e, 1), 0);
        }
        // The finalizer spreads consecutive ids: all 4 shards get traffic
        // from the first 64 ids.
        let mut seen = [false; 4];
        for id in 0..64u32 {
            seen[shard_of(EntityId(id), 4)] = true;
        }
        assert!(seen.iter().all(|&s| s), "unbalanced routing: {seen:?}");
    }

    #[test]
    fn admission_boundary_cases_are_pinned() {
        use Admission::*;
        // Empty queue projects zero delay: always admit, even with a huge
        // EWMA and a 1 µs deadline.
        assert_eq!(admit(0, 256, u64::MAX, Some(1)), Accept);
        // Stale/unwarmed EWMA (0) projects zero delay: depth bound only.
        assert_eq!(admit(255, 256, 0, Some(1)), Accept);
        // Deadline already expired at the door: shed as expired, never
        // enqueued (regardless of EWMA state).
        assert_eq!(admit(0, 256, 0, Some(0)), ShedExpired);
        assert_eq!(admit(10, 256, 1000, Some(0)), ShedExpired);
        // Projected delay strictly exceeding the deadline sheds…
        assert_eq!(admit(10, 256, 1000, Some(9_999)), ShedOverloaded);
        // …but exactly meeting it admits (strict inequality).
        assert_eq!(admit(10, 256, 1000, Some(10_000)), Accept);
        // The hard depth bound survives and outranks everything.
        assert_eq!(admit(256, 256, 0, None), ShedOverloaded);
        assert_eq!(admit(0, 0, 0, None), ShedOverloaded);
        // Deadline-free requests only see the depth bound.
        assert_eq!(admit(255, 256, u64::MAX, None), Accept);
        // Saturating projection: a huge backlog must shed, not wrap.
        assert_eq!(
            admit(1 << 40, 1 << 60, u64::MAX, Some(u64::MAX - 1)),
            ShedOverloaded
        );
    }

    #[test]
    fn ewma_warms_then_tracks() {
        let cell = AtomicU64::new(0);
        update_ewma(&cell, 1000);
        assert_eq!(cell.load(Ordering::Relaxed), 1000, "first sample adopted");
        update_ewma(&cell, 2000);
        assert_eq!(cell.load(Ordering::Relaxed), 1250, "α = 1/4 blend");
        // Zero samples clamp to 1 µs: a warmed estimate never reads as
        // stale again.
        let cell = AtomicU64::new(0);
        update_ewma(&cell, 0);
        assert_eq!(cell.load(Ordering::Relaxed), 1);
    }
}
