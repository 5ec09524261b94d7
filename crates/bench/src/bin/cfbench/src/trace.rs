//! The traced replay: the workload's seeded requests run in-process, with a
//! span around every call into a layer's public function, to split the
//! served time into its layers.
//!
//! Spans are recorded here, around the calls, not inside the program, so
//! the code under test is the code the server runs. Every workload replays
//! every layer on its own fixtures, so each run reports the same per-layer
//! metrics; README.md maps each to the end-to-end metric it should move.

use crate::fixtures::{Fixture, MODEL_SEED};
use crate::report::Metrics;
use crate::stats::{percentile, sorted, supported};
use cf_chains::{retrieve, retrieve_indexed, Query, TreeOfChains};
use cf_kg::{
    read_store, ChainIndexStore, ChainIndexView, GraphView, JournalWriter, KnowledgeGraph,
    MappedChainIndex, Mutation, OverlayGraph, Split,
};
use cf_rand::rngs::StdRng;
use cf_rand::seq::SliceRandom;
use cf_rand::SeedableRng;
use cf_serve::protocol::{ok_response, parse_command, Command};
use cf_serve::{dirty_entities, query_rng_seed, shard_of, CachedChains, ChainCache};
use cf_tensor::optim::{clip_global_norm, Adam};
use cf_tensor::{InferCtx, QuantInferCtx, QuantizedParamStore, Tape, Tensor};
use chainsformer::{ChainsFormer, ChainsFormerConfig, Loss};
use std::collections::{BTreeMap, HashSet};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Shards and per-shard cache capacity of the served engine
/// (`cfkg serve --shards 2`, default `--cache-cap`).
pub const SHARDS: usize = 2;
const CACHE_CAP: usize = 4096;
/// Queries re-run through the int8 forward (a sample: the f32 pass covers
/// every query).
const INT8_QUERIES: usize = 200;
/// Training steps replayed (20: the fewest whose median has ten samples
/// beyond it).
const TRAIN_BATCHES: usize = 20;
/// Queries in the tracing-overhead measurement, run untraced and traced.
const OVERHEAD_QUERIES: usize = 500;
/// Queries per alternation block of that measurement.
const OVERHEAD_BLOCK: usize = 10;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `retrieve.walk`.
    pub name: &'static str,
    /// Start, nanoseconds after the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds after the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request (or mutation, or training step) the span belongs to.
    pub req: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. When off, every call is a pass-through, which
/// is what the untraced half of the overhead measurement runs.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    /// Spans in open order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records (`on`) or passes through.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that stays open until [`Self::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Self::open`].
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    /// Durations of every span named `name`, microseconds, ascending.
    fn durations_us(&self, name: &str) -> Vec<f64> {
        sorted(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64 / 1e3)
                .collect(),
        )
    }

    /// Writes every span as a JSON array.
    fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover (overlapping children count once; parts of a child
/// outside the parent do not count).
pub fn self_time_ns<'a>(parent: &Span, children: impl Iterator<Item = &'a Span>) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    parent.dur_ns() - covered
}

/// One replayed event, in plan order.
pub enum ReplayEvent {
    /// A prediction request: request id and protocol line.
    Query(u64, String),
    /// A mutation the plan interleaves with the requests.
    Mutate(Mutation),
}

/// What the replay runs on.
pub struct ReplayInput<'a> {
    /// The workload's fixture; its chain index must have been built.
    pub fixture: &'a Fixture,
    /// Whether the served engine answers retrieval from the chain index.
    pub served_index: bool,
    /// The workload's requests, with its mutations where it has them.
    pub events: Vec<ReplayEvent>,
    /// Write-path probes for plans without mutations, replayed after the
    /// requests so they do not change what the requests see.
    pub probe_mutations: Vec<Mutation>,
    /// Seed for the training-step sample.
    pub seed: u64,
}

/// The served model and graph, each construction step in its own span.
struct Served {
    visible: KnowledgeGraph,
    split: Split,
    model: ChainsFormer,
    index: ChainIndexStore,
    quant: Arc<QuantizedParamStore>,
}

fn open_served(t: &mut Tracer, fx: &Fixture) -> Result<Served, String> {
    let graph = t
        .span("store.open", None, 0, || read_store(&fx.store))
        .map_err(|e| format!("store: {e}"))?;
    let (visible, split, mut model) = t.span("model.build", None, 0, || {
        let mut rng = StdRng::seed_from_u64(fx.cfg.seed);
        let split = Split::paper_811(&graph, &mut rng);
        let visible = split.visible_graph(&graph);
        let model = ChainsFormer::new(&visible, &split.train, fx.cfg.clone(), &mut rng);
        (visible, split, model)
    });
    t.span("ckpt.load", None, 0, || model.load_params_from(&fx.ckpt))
        .map_err(|e| format!("checkpoint: {e}"))?;
    let path = fx
        .index
        .as_ref()
        .ok_or("the replay needs the chain index")?;
    let index = t
        .span("index.open", None, 0, || {
            let ix = ChainIndexStore::from(MappedChainIndex::open(path)?);
            ix.check_matches(&visible).map(|()| ix)
        })
        .map_err(|e| format!("index: {e}"))?;
    let quant = t.span("quant.pack", None, 0, || {
        Arc::new(QuantizedParamStore::from_store(&model.params))
    });
    Ok(Served {
        visible,
        split,
        model,
        index,
        quant,
    })
}

/// One query as the engine resolved it.
struct Resolved {
    query: Query,
    chains: Arc<CachedChains>,
    hit: bool,
    /// Retrieval came from the chain index (else from walks).
    indexed: bool,
    root: Option<usize>,
}

/// The engine's state as the replay drives it: the live overlay, the
/// entities stale for the index, the shard caches, a warm forward arena
/// and, for writes, a journal.
struct Replayer<'a> {
    s: &'a Served,
    served_index: bool,
    live: OverlayGraph,
    stale: HashSet<u32>,
    caches: Vec<ChainCache>,
    ctx: InferCtx,
    journal: Option<JournalWriter>,
}

impl<'a> Replayer<'a> {
    fn new(s: &'a Served, served_index: bool, journal: Option<&Path>) -> Result<Self, String> {
        let journal = match journal {
            Some(path) => {
                let _ = std::fs::remove_file(path);
                Some(
                    JournalWriter::open(path)
                        .map_err(|e| format!("journal: {e}"))?
                        .0,
                )
            }
            None => None,
        };
        Ok(Replayer {
            s,
            served_index,
            live: OverlayGraph::new(s.visible.clone().into()),
            stale: HashSet::new(),
            caches: (0..SHARDS).map(|_| ChainCache::new(CACHE_CAP)).collect(),
            ctx: InferCtx::new(),
            journal,
        })
    }

    /// The engine's request path: parse, name resolution, shard cache,
    /// retrieval (the index unless the entity is stale, else walks over the
    /// live graph) and filter, f32 forward at batch 1, render. Retrieval
    /// and filter run on cache hits too, so every query times them; a hit
    /// still answers from the cache entry, as the engine would. With
    /// `verify`, the chains used must equal the model's own gather path for
    /// the same per-query seed (checked outside the spans).
    fn query(
        &mut self,
        t: &mut Tracer,
        req: u64,
        line: &str,
        verify: bool,
    ) -> Result<Resolved, String> {
        let Replayer {
            s,
            served_index,
            live,
            stale,
            caches,
            ctx,
            ..
        } = self;
        let cfg = &s.model.cfg;
        let rcfg = cfg.retrieval();
        let root = t.open("request", None, req);
        let Ok(Command::Predict(r)) = t.span("protocol.parse", root, req, || parse_command(line))
        else {
            return Err(format!("replayed line is not a prediction request: {line}"));
        };
        let (entity, attr) = t.span("protocol.resolve", root, req, || {
            (
                live.entity_by_name(&r.entity),
                live.attribute_by_name(&r.attr),
            )
        });
        let (Some(entity), Some(attr)) = (entity, attr) else {
            return Err(format!("replayed names do not resolve: {line}"));
        };
        let query = Query { entity, attr };
        let indexed = *served_index
            && (entity.0 as usize) < s.index.num_entities()
            && !stale.contains(&entity.0);
        let cache = &mut caches[shard_of(entity, SHARDS)];
        let hit = t.span("cache.get", root, req, || cache.get(query));
        let mut rng = StdRng::seed_from_u64(query_rng_seed(MODEL_SEED, query));
        let toc: TreeOfChains = if indexed {
            t.span("retrieve.indexed", root, req, || {
                retrieve_indexed(&s.index, query, &rcfg, &mut rng)
            })
        } else {
            t.span("retrieve.walk", root, req, || {
                retrieve(&*live, query, &rcfg, &mut rng)
            })
        };
        let retrieved = toc.len();
        let selected = t.span("filter.topk", root, req, || {
            let mut toc = toc;
            if !cfg.setting.multi_attribute {
                toc.chains.retain(|c| c.chain.known_attr == attr);
            }
            s.model.filter().select_top_k(&toc, cfg.top_k, &mut rng)
        });
        let chains = match &hit {
            Some(c) => Arc::clone(c),
            None => {
                let entry = Arc::new(CachedChains {
                    chains: selected.chains,
                    retrieved,
                });
                cache.put(query, Arc::clone(&entry));
                entry
            }
        };
        let details = t.span("forward.f32_b1", root, req, || {
            s.model
                .predict_batch_with_chains_in(&[(query, &chains.chains, chains.retrieved)], ctx)
        });
        let d = &details[0];
        let reply = t.span("protocol.render", root, req, || {
            ok_response(
                Some(req),
                d.value,
                d.used_fallback,
                d.retrieved,
                d.chains.len(),
                0,
            )
        });
        std::hint::black_box(reply);
        t.close(root);
        if verify {
            let mut rng = StdRng::seed_from_u64(query_rng_seed(MODEL_SEED, query));
            let (toc, retrieved) = if indexed {
                s.model.gather_chains_indexed(&s.index, query, &mut rng)
            } else {
                s.model.gather_chains(&*live, query, &mut rng)
            };
            if toc.chains != chains.chains || retrieved != chains.retrieved {
                return Err(format!(
                    "replayed retrieval for request {req} differs from gather_chains"
                ));
            }
        }
        Ok(Resolved {
            query,
            chains,
            hit: hit.is_some(),
            indexed,
            root,
        })
    }

    /// The write path in `Engine::mutate`'s order: journal commit, overlay
    /// apply, invalidation BFS, cache invalidation, stale marking. Returns
    /// the dirty-set size.
    fn mutate(&mut self, t: &mut Tracer, req: u64, m: &Mutation) -> Result<usize, String> {
        let jw = self
            .journal
            .as_mut()
            .ok_or("the write path needs a journal")?;
        let root = t.open("mutate", None, req);
        t.span("journal.commit", root, req, || {
            jw.append(m);
            jw.commit()
        })
        .map_err(|e| format!("journal: {e}"))?;
        let live = &mut self.live;
        let applied = t.span("overlay.apply", root, req, || live.apply(m));
        let hops = self.s.model.cfg.setting.max_hops;
        let dirty = t.span("invalidate.bfs", root, req, || {
            dirty_entities(live, &applied.touched, hops)
        });
        let caches = &mut self.caches;
        t.span("cache.invalidate", root, req, || {
            caches
                .iter_mut()
                .map(|c| c.invalidate_entities(&dirty))
                .sum::<usize>()
        });
        t.close(root);
        let n = dirty.len();
        self.stale.extend(dirty);
        Ok(n)
    }
}

/// Untraced-versus-traced cost of the request path: two engines fed the
/// same queries in alternating blocks (which one goes first alternates
/// too), so drift in the host's speed lands on both sides alike.
fn tracing_overhead(
    s: &Served,
    served_index: bool,
    queries: &[(u64, &str)],
) -> Result<f64, String> {
    let mut sides = [
        (
            Replayer::new(s, served_index, None)?,
            Tracer::new(false),
            0.0f64,
        ),
        (
            Replayer::new(s, served_index, None)?,
            Tracer::new(true),
            0.0f64,
        ),
    ];
    for (k, block) in queries.chunks(OVERHEAD_BLOCK).enumerate() {
        for i in [k % 2, 1 - k % 2] {
            let (eng, t, secs) = &mut sides[i];
            let t0 = Instant::now();
            for &(req, line) in block {
                eng.query(t, req, line, false)?;
            }
            *secs += t0.elapsed().as_secs_f64();
        }
    }
    Ok(sides[1].2 / sides[0].2 - 1.0)
}

/// Runs the replay, pushes every per-layer metric into `out`, writes the
/// spans to `trace_path`, and returns the replayed engine service time
/// per request (median, µs): cache lookup, retrieval and filter on a miss,
/// and the forward pass.
pub fn replay(inp: &ReplayInput, out: &mut Metrics, trace_path: &Path) -> Result<f64, String> {
    let mut t = Tracer::new(true);
    let mut s = open_served(&mut t, inp.fixture)?;
    let queries: Vec<(u64, &str)> = inp
        .events
        .iter()
        .filter_map(|e| match e {
            ReplayEvent::Query(req, line) => Some((*req, line.as_str())),
            ReplayEvent::Mutate(_) => None,
        })
        .collect();
    let overhead = tracing_overhead(
        &s,
        inp.served_index,
        &queries[..OVERHEAD_QUERIES.min(queries.len())],
    )?;

    // The workload itself: requests and interleaved writes in plan order,
    // then the write probes.
    let journal = trace_path.with_extension("cfj1");
    let mut eng = Replayer::new(&s, inp.served_index, Some(&journal))?;
    let mut resolved = Vec::with_capacity(queries.len());
    let mut dirty_n = Vec::new();
    let writes = inp.events.iter().filter_map(|e| match e {
        ReplayEvent::Mutate(m) => Some(m),
        ReplayEvent::Query(..) => None,
    });
    let interleaved = writes.clone().count();
    for e in &inp.events {
        match e {
            ReplayEvent::Query(req, line) => resolved.push(eng.query(&mut t, *req, line, true)?),
            ReplayEvent::Mutate(m) => {
                dirty_n.push(eng.mutate(&mut t, dirty_n.len() as u64, m)? as f64)
            }
        }
    }
    for m in &inp.probe_mutations {
        dirty_n.push(eng.mutate(&mut t, dirty_n.len() as u64, m)? as f64);
    }
    let req_of = |r: &Resolved| t.spans[r.root.expect("traced")].req;
    let reqs: Vec<u64> = resolved.iter().map(req_of).collect();

    // The retrieval variant each query did not use, on the final graph, so
    // both variants are timed on every query.
    let rcfg = s.model.cfg.retrieval();
    for (r, &req) in resolved.iter().zip(&reqs) {
        let mut rng = StdRng::seed_from_u64(query_rng_seed(MODEL_SEED, r.query));
        if r.indexed {
            t.span("retrieve.walk", None, req, || {
                retrieve(&eng.live, r.query, &rcfg, &mut rng)
            });
        } else {
            t.span("retrieve.indexed", None, req, || {
                retrieve_indexed(&s.index, r.query, &rcfg, &mut rng)
            });
        }
    }
    // Share of the requests whose neighborhood the writes dirtied: those
    // bypass the index (walk) once the write lands.
    let bypassed = resolved
        .iter()
        .filter(|r| eng.stale.contains(&r.query.entity.0))
        .count();
    drop(eng);
    let _ = std::fs::remove_file(&journal);

    // Forward variants: f32 at the server's largest batch, and int8.
    let mut ctx = InferCtx::new();
    for (group, reqs) in resolved.chunks_exact(8).zip(reqs.chunks_exact(8)) {
        let jobs: Vec<_> = group
            .iter()
            .map(|r| (r.query, r.chains.chains.as_slice(), r.chains.retrieved))
            .collect();
        t.span("forward.f32_b8", None, reqs[0], || {
            s.model.predict_batch_with_chains_in(&jobs, &mut ctx)
        });
    }
    let mut qctx = QuantInferCtx::new();
    qctx.set_weights(Arc::clone(&s.quant));
    for (r, &req) in resolved.iter().zip(&reqs).take(INT8_QUERIES) {
        t.span("forward.int8_b1", None, req, || {
            s.model.predict_batch_with_chains_in(
                &[(r.query, &r.chains.chains, r.chains.retrieved)],
                &mut qctx,
            )
        });
    }

    train_steps(&mut t, &mut s, inp.seed)?;

    // Per-request engine service, as the engine would have spent it.
    let mut children: BTreeMap<usize, Vec<&Span>> = BTreeMap::new();
    for sp in &t.spans {
        if let Some(p) = sp.parent {
            children.entry(p).or_default().push(sp);
        }
    }
    let mut service = Vec::with_capacity(resolved.len());
    let mut glue = Vec::with_capacity(resolved.len());
    for r in &resolved {
        let root = r.root.expect("traced");
        let kids = children.get(&root).map(Vec::as_slice).unwrap_or(&[]);
        let ns: u64 = kids
            .iter()
            .filter(|c| match c.name {
                "cache.get" | "forward.f32_b1" => true,
                "retrieve.walk" | "retrieve.indexed" | "filter.topk" => !r.hit,
                _ => false,
            })
            .map(|c| c.dur_ns())
            .sum();
        service.push(ns as f64 / 1e3);
        glue.push(self_time_ns(&t.spans[root], kids.iter().copied()) as f64 / 1e3);
    }
    let service = sorted(service);
    let glue = sorted(glue);

    println!(
        "  replay: {} queries ({} cache hits), {} writes ({} interleaved), {} training steps; spans → {}",
        resolved.len(),
        resolved.iter().filter(|r| r.hit).count(),
        dirty_n.len(),
        interleaved,
        t.spans.iter().filter(|s| s.name == "train.step").count(),
        trace_path.display()
    );
    for name in [
        "store.open",
        "index.open",
        "model.build",
        "ckpt.load",
        "quant.pack",
    ] {
        let ms = t.durations_us(name)[0] / 1e3;
        out.push(&format!("{name}_ms"), ms, None);
    }
    let pct = |out: &mut Metrics, metric: &str, v: &[f64], p: f64| -> Result<(), String> {
        let value = percentile(v, p).ok_or_else(|| format!("no samples for {metric}"))?;
        if !supported(v.len(), p) {
            println!("  ({metric}: only {} samples)", v.len());
        }
        out.push(metric, value, Some(v.len()));
        Ok(())
    };
    for (name, p99) in [
        ("protocol.parse", false),
        ("protocol.resolve", false),
        ("protocol.render", false),
        ("cache.get", false),
        ("retrieve.walk", true),
        ("retrieve.indexed", true),
        ("filter.topk", true),
        ("forward.f32_b1", true),
        ("forward.f32_b8", false),
        ("forward.int8_b1", false),
    ] {
        let v = t.durations_us(name);
        pct(out, &format!("{name}_us.p50"), &v, 0.5)?;
        if p99 {
            pct(out, &format!("{name}_us.p99"), &v, 0.99)?;
        }
    }
    pct(out, "engine.service_us.p50", &service, 0.5)?;
    for name in ["journal.commit", "overlay.apply", "invalidate.bfs"] {
        pct(out, &format!("{name}_us.p50"), &t.durations_us(name), 0.5)?;
    }
    pct(out, "invalidate.dirty_n.p50", &sorted(dirty_n), 0.5)?;
    pct(
        out,
        "cache.invalidate_us.p50",
        &t.durations_us("cache.invalidate"),
        0.5,
    )?;
    out.push(
        "index.bypass_frac",
        bypassed as f64 / resolved.len().max(1) as f64,
        Some(resolved.len()),
    );
    for name in ["train.gather", "train.fwd", "train.bwd", "train.adam"] {
        pct(out, &format!("{name}_us.p50"), &t.durations_us(name), 0.5)?;
    }
    out.push(
        "trace.overhead_frac",
        overhead,
        Some(OVERHEAD_QUERIES.min(queries.len())),
    );
    if let Some(g) = percentile(&glue, 0.5) {
        println!("  request self time (outside layer spans) p50 {g:.2} us");
    }
    t.write_json(trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    percentile(&service, 0.5).ok_or_else(|| "no replayed requests".into())
}

/// Replays training steps the way `Trainer::train_opts` runs one, but
/// serially: gather the batch's chains, taped forward and loss, backward,
/// gradient clip and Adam. Every step's loss must be finite.
fn train_steps(t: &mut Tracer, s: &mut Served, seed: u64) -> Result<(), String> {
    let cfg: ChainsFormerConfig = s.model.cfg.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..s.split.train.len()).collect();
    order.shuffle(&mut rng);
    let mut opt = Adam::new(cfg.lr);
    let num_params = s.model.params.len();
    for (b, batch) in order.chunks(cfg.batch_size).take(TRAIN_BATCHES).enumerate() {
        let req = b as u64;
        let root = t.open("train.step", None, req);
        let model = &s.model;
        let gathered: Vec<(Query, f64, TreeOfChains)> = t.span("train.gather", root, req, || {
            batch
                .iter()
                .filter_map(|&i| {
                    let tr = s.split.train[i];
                    let q = Query {
                        entity: tr.entity,
                        attr: tr.attr,
                    };
                    let (toc, _) = model.gather_chains(&s.visible, q, &mut rng);
                    (!toc.is_empty()).then_some((q, tr.value, toc))
                })
                .collect()
        });
        if gathered.is_empty() {
            t.close(root);
            continue;
        }
        let mut tape = Tape::new();
        let objective = t.span("train.fwd", root, req, || {
            let losses: Vec<_> = gathered
                .iter()
                .map(|(q, value, toc)| {
                    let out = model.forward(&mut tape, &toc.chains, *q);
                    let pred = model.normalize_on_tape(&mut tape, out.prediction, *q);
                    let target =
                        Tensor::scalar(model.normalizer().normalize(q.attr, *value) as f32);
                    match cfg.loss {
                        Loss::L1 => tape.l1_loss(pred, &target),
                        Loss::Mse => tape.mse_loss(pred, &target),
                    }
                })
                .collect();
            let stacked = tape.stack_rows(&losses);
            let summed = tape.sum_all(stacked);
            tape.mul_scalar(summed, 1.0 / losses.len() as f32)
        });
        let loss = tape.value(objective).item();
        if !loss.is_finite() {
            return Err(format!("replayed training step {b} has loss {loss}"));
        }
        let mut grads = t.span("train.bwd", root, req, || {
            tape.backward(objective, num_params)
        });
        let params = &mut s.model.params;
        t.span("train.adam", root, req, || {
            clip_global_norm(&mut grads, cfg.grad_clip);
            opt.step(params, &grads);
        });
        t.close(root);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "x",
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let parent = span(100, 200, None);
        // [110,150) and [140,160) overlap: together they cover 50 ns.
        // [190,230) sticks out of the parent: only 10 ns count.
        let kids = [
            span(110, 150, Some(0)),
            span(140, 160, Some(0)),
            span(190, 230, Some(0)),
        ];
        assert_eq!(self_time_ns(&parent, kids.iter()), 100 - 50 - 10);
        // A child nested inside another counts once.
        let nested = [span(120, 180, Some(0)), span(130, 140, Some(0))];
        assert_eq!(self_time_ns(&parent, nested.iter()), 100 - 60);
        assert_eq!(self_time_ns(&parent, [].iter()), 100);
        // Children wholly outside the parent cover nothing.
        assert_eq!(self_time_ns(&parent, [span(0, 100, Some(0))].iter()), 100);
    }

    #[test]
    fn tracer_records_nesting_only_when_on() {
        let mut t = Tracer::new(true);
        let root = t.open("request", None, 7);
        let v = t.span("inner", root, 7, || 41 + 1);
        t.close(root);
        assert_eq!(v, 42);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].req, 7);
        assert!(t.spans[0].start_ns <= t.spans[1].start_ns);
        assert!(t.spans[1].end_ns <= t.spans[0].end_ns);

        let mut off = Tracer::new(false);
        let root = off.open("request", None, 7);
        assert_eq!(off.span("inner", root, 7, || 5), 5);
        off.close(root);
        assert!(off.spans.is_empty());
    }
}
