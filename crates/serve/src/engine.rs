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
//! identical at *any* shard count. A shard's worker collects up to
//! `max_batch` queued jobs — waiting at most `max_wait_us` after the first —
//! resolves each query's chains through the shard cache, then answers the
//! whole batch with one tape-free
//! [`ChainsFormer::predict_batch_with_chains`] call (bitwise identical to
//! per-query taped prediction, pinned in `crates/core/tests/batch_parity.rs`).
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
    validate_mutation, ChainIndexStore, ChainIndexView, EntityId, GraphStore, GraphView,
    JournalWriter, Mutation, OverlayGraph, StoreError,
};
use cf_rand::rngs::StdRng;
use cf_rand::SeedableRng;
use cf_tensor::{InferCtx, QuantizedParamStore};
use chainsformer::{ChainsFormer, PredictionDetail, ResolvedQuery};
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
    /// Largest batch a shard worker executes in one forward pass.
    pub max_batch: usize,
    /// Cap on how long a worker accumulates a partial batch after the
    /// first job, microseconds. Accumulation stops earlier the moment
    /// arrivals go quiet (a ~100 µs slice with no new job).
    pub max_wait_us: u64,
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
            max_wait_us: 2000,
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
}

/// The mutable serving graph: the immutable base store wrapped in a
/// mutation overlay, plus the bookkeeping that keeps the precomputed chain
/// index honest after mutations.
///
/// Guarded by one engine-wide `RwLock` — the same generation discipline the
/// model lock uses: workers hold the read lock across a batch's
/// chain resolution, [`Engine::mutate`] takes the write lock to apply, so
/// every shard observes each mutation atomically (no batch can see half a
/// mutation, and no stale chain set can be cached after the invalidation
/// pass ran).
struct LiveGraph {
    overlay: OverlayGraph,
    /// Entities whose indexed chains may no longer match the live graph:
    /// the mutation's touched entities expanded by a `max_hops` BFS over
    /// the live adjacency (the CSR row holds both edge directions, so this
    /// covers entities whose chains *traverse* a touched entity). Workers
    /// bypass the chain index for these and walk the overlay instead.
    stale: HashSet<u32>,
    /// Bumped once per applied mutation batch.
    generation: u64,
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
}

struct Shared {
    served: RwLock<Served>,
    live: RwLock<LiveGraph>,
    journal: Mutex<Option<JournalState>>,
    index: Option<ChainIndexStore>,
    /// The served model's `max_hops` (chain-length bound): the BFS radius
    /// for cache/index invalidation.
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
    /// Entities marked stale for the chain index: the touched set expanded
    /// by the `max_hops` invalidation BFS.
    pub dirty: usize,
    /// Cached chain sets dropped across all shards.
    pub invalidated: usize,
    /// Live-graph generation after this batch.
    pub generation: u64,
    /// Whether this batch triggered a store compaction + journal truncate.
    pub compacted: bool,
}

/// The invalidation neighborhood of a mutation: every entity within `hops`
/// edges of a touched entity, in either direction (adjacency rows hold the
/// forward and the inverse edge, so one BFS covers both).
///
/// Soundness: a chain gathered for source `s` only visits entities
/// reachable from `s` in ≤ `hops` steps, so a cached or indexed chain set
/// for `s` can only be affected by a mutation touching that neighborhood —
/// equivalently, `s` is within `hops` of a touched entity, i.e. in this
/// set. Edges are only ever added, never removed, so running the BFS over
/// the *post-mutation* adjacency can only widen the set (it contains every
/// path that existed pre-mutation).
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
    pub fn new(model: ChainsFormer, graph: impl Into<GraphStore>, cfg: EngineConfig) -> Self {
        Self::new_with_index(model, graph, None, cfg)
    }

    /// [`Self::new`], optionally serving retrieval from a precomputed chain
    /// index (`cfkg index`). When an index is given it must have been built
    /// from (a graph bitwise-equal to) `graph`; workers then answer cache
    /// misses by index lookup instead of random walks. The index is shared
    /// read-only across all shards.
    pub fn new_with_index(
        model: ChainsFormer,
        graph: impl Into<GraphStore>,
        index: Option<ChainIndexStore>,
        cfg: EngineConfig,
    ) -> Self {
        let graph = graph.into();
        if let Some(ix) = &index {
            ix.check_matches(&graph)
                .expect("chain index does not match the serving graph");
        }
        let hops = model.cfg.setting.max_hops;
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
            served: RwLock::new(Served { model, quant }),
            metrics,
            live: RwLock::new(LiveGraph {
                overlay: OverlayGraph::new(graph),
                stale: HashSet::new(),
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

    /// Generation counter of the live graph (bumped per applied mutation
    /// batch; 0 until the first mutation).
    pub fn graph_generation(&self) -> u64 {
        self.shared
            .live
            .read()
            .expect("live graph poisoned")
            .generation
    }

    /// Applies a batch of live-graph mutations: validate every mutation,
    /// append + fsync them to the journal (when one is attached) **before**
    /// they become visible, then apply to the overlay, mark the touched
    /// `max_hops` neighborhood stale for the chain index, and drop every
    /// cached chain set that could traverse a mutated entity — all under
    /// the live write lock, so every shard observes the mutation
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
        let dirty = dirty_entities(&live.overlay, &touched, self.shared.hops);
        live.stale.extend(dirty.iter().copied());
        live.generation += 1;
        let generation = live.generation;
        let mut invalidated = 0usize;
        for shard in &self.shared.shards {
            invalidated += shard
                .cache
                .lock()
                .expect("cache poisoned")
                .invalidate_entities(&dirty);
        }
        // Compaction under both locks: the canonical rewrite and the
        // journal truncation stay atomic with respect to other mutations.
        // A crash *between* the two is harmless — replaying the surviving
        // journal onto the compacted store is a no-op (idempotence).
        let mut compacted = false;
        if let Some(js) = journal.as_mut() {
            if let Some(pol) = &js.compact {
                if pol.every > 0 && js.writer.records() >= pol.every {
                    live.overlay
                        .compact_to(&pol.path)
                        .map_err(|e| format!("compaction: {e}"))?;
                    js.writer
                        .truncate_all()
                        .map_err(|e| format!("journal truncate: {e}"))?;
                    compacted = true;
                }
            }
        }
        Ok(MutationOutcome {
            applied: muts.len(),
            changed,
            dirty: dirty.len(),
            invalidated,
            generation,
            compacted,
        })
    }

    /// Attaches a CFJ1 mutation journal, replaying any mutations it already
    /// holds onto the live graph (with the same stale-marking and cache
    /// invalidation a fresh [`Self::mutate`] performs — the chain index was
    /// built against the pristine base, so replayed neighborhoods must
    /// bypass it too). A torn tail left by a crash mid-append is truncated
    /// by [`JournalWriter::open`]; returns how many committed mutations
    /// were replayed.
    ///
    /// With `compaction = Some((path, every))`, every `every` journaled
    /// records the live graph is compacted to a canonical CFKG1 at `path`
    /// and the journal is truncated.
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
                let dirty = dirty_entities(&live.overlay, &touched, self.shared.hops);
                live.stale.extend(dirty.iter().copied());
                for shard in &self.shared.shards {
                    shard
                        .cache
                        .lock()
                        .expect("cache poisoned")
                        .invalidate_entities(&dirty);
                }
            }
            live.generation += 1;
        }
        *journal = Some(JournalState {
            writer,
            compact: compaction.map(|(path, every)| CompactionPolicy { path, every }),
            failed: false,
        });
        Ok(replayed)
    }

    /// Compacts the live graph (base + overlay) to a canonical CFKG1 file
    /// via the store's atomic tmp → fsync → rename path, then truncates the
    /// attached journal (if any) — its mutations are now in the base.
    pub fn compact_to(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        let mut journal = self.shared.journal.lock().expect("journal poisoned");
        let live = self.shared.live.read().expect("live graph poisoned");
        live.overlay.compact_to(path)?;
        if let Some(js) = journal.as_mut() {
            js.writer.truncate_all()?;
        }
        Ok(())
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
    /// from the same fit) keeps the caches: retrieval reads the filter and
    /// the per-query RNG, not the swapped parameters.
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
            *served = Served { model, quant };
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

fn worker_loop(shared: &Shared, shard_ix: usize) {
    // One inference context per worker, reused across batches: after the
    // first batch its value arena and the thread's tensor buffer pool are
    // warm, so steady-state forwards never touch the global allocator.
    let mut ctx = InferCtx::new();
    loop {
        let batch = collect_batch(shared, shard_ix);
        if batch.is_empty() {
            return; // shutdown requested and the shard queue is drained
        }
        process_batch(shared, shard_ix, batch, &mut ctx);
    }
}

/// Blocks for work on one shard, then micro-batches: grabs every queued job
/// up to `max_batch`, waiting at most `max_wait_us` after the first for
/// stragglers. Returns an empty batch only on drained shutdown.
fn collect_batch(shared: &Shared, shard_ix: usize) -> Vec<Job> {
    let cfg = &shared.cfg;
    let shard = &shared.shards[shard_ix];
    let mut q = shard.queue.lock().expect("queue poisoned");
    while q.jobs.is_empty() {
        if q.shutdown {
            return Vec::new();
        }
        q = shard.cond.wait(q).expect("queue poisoned");
    }
    let mut batch = Vec::with_capacity(cfg.max_batch.max(1));
    let first_at = Instant::now();
    let budget = Duration::from_micros(cfg.max_wait_us);
    // Straggler policy: `max_wait_us` caps how long a partial batch may
    // accumulate, but we stop as soon as arrivals go quiet — one short
    // slice with no new job means the remaining clients are busy or
    // absent, and waiting out the full window would only add latency
    // without growing the batch.
    let quiet = budget.min(Duration::from_micros(100));
    loop {
        while batch.len() < cfg.max_batch.max(1) {
            match q.jobs.pop_front() {
                Some(j) => batch.push(j),
                None => break,
            }
        }
        if batch.len() >= cfg.max_batch.max(1) || q.shutdown {
            break;
        }
        if first_at.elapsed() >= budget {
            break;
        }
        let (guard, _timeout) = shard.cond.wait_timeout(q, quiet).expect("queue poisoned");
        q = guard;
        if q.jobs.is_empty() && !q.shutdown {
            break;
        }
    }
    batch
}

fn process_batch(shared: &Shared, shard_ix: usize, batch: Vec<Job>, ctx: &mut InferCtx) {
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
                    let mut rng = StdRng::seed_from_u64(query_rng_seed(shared.cfg.seed, job.query));
                    // The precomputed chain index answers only entities it
                    // was built for whose `max_hops` neighborhood is still
                    // pristine; mutated neighborhoods (and entities added
                    // after the build) walk the live overlay instead. The
                    // bypass predicate is a pure function of the query and
                    // the mutation history — shard-count independent, so
                    // responses stay bitwise-identical at every shard count.
                    let ix = shared.index.as_ref().filter(|ix| {
                        (job.query.entity.0 as usize) < ix.num_entities()
                            && !live_graph.stale.contains(&job.query.entity.0)
                    });
                    let (toc, retrieved) = match ix {
                        Some(ix) => model.gather_chains_indexed(ix, job.query, &mut rng),
                        None => model.gather_chains(&live_graph.overlay, job.query, &mut rng),
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
    // keeps no twin alive past a reload.
    ctx.set_weights(served.quant.clone());
    let details = model.predict_batch_with_chains_in(&jobs_view, ctx);
    ctx.set_weights(None);
    drop(served);

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
            max_wait_us: 0,
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
        // Per query: the value's bits, the retrieved count and the chains.
        type Answer = (u64, usize, Vec<(cf_chains::RaChain, cf_kg::EntityId)>);
        let answers = |e: &Engine| -> Vec<Answer> {
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
        };
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
            let before = answers(&e); // warms every shard's cache with A's chains
            e.reload(&b_ckpt).expect("reload B");
            let after = answers(&e);
            let fresh = Engine::new(
                ChainsFormer::load(&b_ckpt, cfg.clone(), &visible).expect("load B"),
                visible.clone(),
                engine_cfg,
            );
            let at = format!("{quantize}, {shards} shard(s)");
            assert_eq!(after, answers(&fresh), "{at}");
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
        assert_eq!(e.graph_generation(), 1);

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
        // Nothing was applied: generation unchanged, vocabulary additions
        // from rejected batches (the "ok" entity) never landed.
        assert_eq!(e.graph_generation(), 0);
        assert!(e.graph().entity_by_name("ok").is_none());
        assert_eq!(e.metrics().mutations_rejected.load(Ordering::Relaxed), 3);
        assert_eq!(e.metrics().mutations_ok.load(Ordering::Relaxed), 0);
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
        let replayed = e2.attach_journal(&journal, None).expect("attach");
        assert_eq!(replayed, muts.len());
        assert!(e2.graph().entity_by_name("mutant_0").is_some());
        let got: Vec<u64> = queries
            .iter()
            .map(|&q| e2.predict(q).expect("predict").detail.value.to_bits())
            .collect();
        assert_eq!(want, got, "journal replay changed served bits");

        // Compaction folds the overlay into a canonical store and empties
        // the journal; an engine over the compacted store (no journal)
        // serves the same bits again.
        let store = dir.join("compacted.cfkg");
        e2.compact_to(&store).expect("compact");
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

    #[test]
    fn mutation_under_index_bypasses_stale_neighborhoods() {
        // Indexed engines must not serve pre-mutation chains out of the
        // frozen index: entities inside the dirty BFS neighborhood (and
        // entities past the index bound, i.e. freshly added ones) bypass
        // the index and walk the overlay instead — and the bypass
        // predicate is a pure function of the query and mutation history,
        // so the bits stay shard-count invariant.
        let mut answers: Vec<Vec<u64>> = Vec::new();
        for shards in [1usize, 4] {
            let mut rng = StdRng::seed_from_u64(17);
            let g = yago15k_sim(SynthScale::small(), &mut rng);
            let split = Split::paper_811(&g, &mut rng);
            let visible = split.visible_graph(&g);
            let model =
                ChainsFormer::new(&visible, &split.train, ChainsFormerConfig::tiny(), &mut rng);
            let queries: Vec<Query> = split
                .test
                .iter()
                .take(8)
                .map(|t| Query {
                    entity: t.entity,
                    attr: t.attr,
                })
                .collect();
            let params = cf_kg::IndexParams {
                max_hops: model.cfg.setting.max_hops as u32,
                ..cf_kg::IndexParams::default()
            };
            let ix = cf_kg::build_chain_index(&visible, params);
            let e = Engine::new_with_index(
                model,
                visible,
                Some(ChainIndexStore::Built(ix)),
                EngineConfig {
                    shards,
                    ..EngineConfig::default()
                },
            );
            let q = queries[0];
            let before = e.predict(q).expect("before").detail;
            let muts = mutation_batch(&*e.graph(), q);
            e.mutate(&muts).expect("mutate indexed engine");
            // The queried fact was upserted; if the frozen index were still
            // consulted for this (now stale) neighborhood the old chain
            // values would survive and the answer could not move.
            let after = e.predict(q).expect("after").detail;
            assert_ne!(
                before.value.to_bits(),
                after.value.to_bits(),
                "stale index still serving pre-mutation chains"
            );
            // A freshly added entity lies past the index bound and must be
            // answerable through the overlay walk path.
            let new_entity = e.graph().entity_by_name("mutant_0").expect("added");
            let mut qs = queries.clone();
            qs.push(Query {
                entity: new_entity,
                attr: q.attr,
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
            "index bypass broke shard-count invariance"
        );
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
