//! Subcommand implementations for `cfkg`.

use crate::args::{ArgError, Args};
use cf_chains::Query;
use cf_kg::io::{write_numerics, write_triples, TsvLoader};
use cf_kg::stats::{attribute_stats, dataset_stats};
use cf_kg::synth::{fb15k_sim, large_sim, yago15k_sim, LargeScale, SynthScale};
use cf_kg::{
    build_chain_index, read_store, write_index, write_store, ChainIndexView, GraphView,
    IndexParams, KnowledgeGraph, MappedChainIndex, Split,
};
use cf_rand::rngs::StdRng;
use cf_rand::SeedableRng;
use cf_serve::{Engine, EngineConfig, QuantMode};
use chainsformer::{evaluate_model, ChainsFormer, ChainsFormerConfig, TrainOptions, Trainer};
use std::error::Error;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

pub type CmdResult = Result<(), Box<dyn Error>>;

/// Lists of flag names.
type FlagLists = &'static [&'static [&'static str]];

/// A subcommand: what runs it and the flags it reads, beyond
/// [`crate::args::GLOBAL_FLAGS`]. Any other flag is a usage error.
pub struct Command {
    pub run: fn(&Args) -> CmdResult,
    pub flags: FlagLists,
}

/// Flags of [`load_graph`].
const GRAPH: &[&str] = &["store", "triples", "numerics"];
/// Flags of [`config_from`] but `quality`, which only `train` reads: no
/// checkpoint holds the chain-quality tracker, so a loaded model never
/// prunes by it.
const MODEL: &[&str] = &["epochs", "dim", "layers", "walks", "top-k", "seed"];
// Flags only `index`, `predict`, `serve` and `loadtest` read.
const INDEX: &[&str] = &[
    "out",
    "max-hops",
    "fanout",
    "per-entity-cap",
    "seed",
    "full",
];
const PREDICT: &[&str] = &["ckpt", "entity", "attr", "quantize"];
const SERVE: &[&str] = &[
    "ckpt",
    "index",
    "port",
    "queue-cap",
    "shards",
    "quantize",
    "journal",
    "compact-to",
    "compact-every",
];
const LOADTEST: &[&str] = &[
    "addr",
    "rate",
    "requests",
    "warmup",
    "arrivals",
    "zipf",
    "conns",
    "deadline-ms",
    "seed",
    "reload",
    "reload-every",
    "mutate-every",
    "dump",
];

/// The subcommand called `name`.
pub fn lookup(name: &str) -> Option<Command> {
    let (run, flags): (fn(&Args) -> CmdResult, FlagLists) = match name {
        "generate" => (generate, &[&["dataset", "scale", "seed", "out"]]),
        "gen" => (gen, &[&["entities", "avg-degree", "seed", "out", "store"]]),
        "ingest" => (ingest, &[GRAPH, &["out"]]),
        "index" => (index, &[GRAPH, INDEX]),
        "stats" => (stats, &[GRAPH]),
        "train" => (train, &[GRAPH, MODEL, &["quality", "ckpt", "resume"]]),
        "eval" => (eval, &[GRAPH, MODEL, &["ckpt"]]),
        "predict" => (predict, &[GRAPH, MODEL, PREDICT]),
        "compact" => (compact, &[&["store", "journal", "out"]]),
        "serve" => (serve, &[GRAPH, MODEL, SERVE]),
        "loadtest" => (loadtest, &[GRAPH, LOADTEST]),
        _ => return None,
    };
    Some(Command { run, flags })
}

fn scale_from(args: &Args) -> Result<SynthScale, ArgError> {
    match args.get("scale").unwrap_or("default") {
        "small" => Ok(SynthScale::small()),
        "default" => Ok(SynthScale::default_scale()),
        "paper" => Ok(SynthScale::paper()),
        other => Err(ArgError::Invalid {
            flag: "scale".into(),
            value: other.into(),
            expected: "small|default|paper",
        }),
    }
}

/// `cfkg generate`: write a synthetic twin as TSV files.
pub fn generate(args: &Args) -> CmdResult {
    let seed: u64 = args.get_parse("seed", 7, "integer")?;
    let scale = scale_from(args)?;
    let out = Path::new(args.require("out")?);
    std::fs::create_dir_all(out)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let (name, graph) = match args.get("dataset").unwrap_or("yago") {
        "yago" => ("yago15k_sim", yago15k_sim(scale, &mut rng)),
        "fb" => ("fb15k237_sim", fb15k_sim(scale, &mut rng)),
        other => {
            return Err(Box::new(ArgError::Invalid {
                flag: "dataset".into(),
                value: other.into(),
                expected: "yago|fb",
            }))
        }
    };
    let triples_path = out.join(format!("{name}_triples.tsv"));
    let numerics_path = out.join(format!("{name}_numerics.tsv"));
    write_triples(&graph, std::fs::File::create(&triples_path)?)?;
    write_numerics(&graph, std::fs::File::create(&numerics_path)?)?;
    let s = dataset_stats(&graph);
    outln!(
        "generated {name}: {} entities, {} relations, {} attributes, {} triples, {} numeric facts",
        s.entities,
        s.relations,
        s.attributes,
        s.relational_triples,
        s.numeric_triples
    );
    outln!("  {}", triples_path.display());
    outln!("  {}", numerics_path.display());
    Ok(())
}

/// Loads the working graph: either a CFKG1 binary store (`--store`, one
/// mmap-validated read) or the MMKG TSV pair (`--triples`/`--numerics`).
/// A TSV that cannot be opened or parsed is an error naming its flag and
/// path.
fn load_graph(args: &Args) -> Result<KnowledgeGraph, Box<dyn Error>> {
    if let Some(store) = args.get("store") {
        return Ok(read_store(store)?);
    }
    let triples = args.require("triples")?;
    let numerics = args.require("numerics")?;
    let open = |flag: &str, path: &str| {
        std::fs::File::open(path)
            .map(BufReader::new)
            .map_err(|e| format!("--{flag} {path}: {e}"))
    };
    let mut loader = TsvLoader::new();
    loader
        .load_triples(open("triples", triples)?)
        .map_err(|e| format!("--triples {triples}: {e}"))?;
    loader
        .load_numerics(open("numerics", numerics)?)
        .map_err(|e| format!("--numerics {numerics}: {e}"))?;
    Ok(loader.finish())
}

/// `cfkg stats`: Table-I/II statistics for a TSV graph.
pub fn stats(args: &Args) -> CmdResult {
    let graph = load_graph(args)?;
    let s = dataset_stats(&graph);
    outln!(
        "entities {}  relations {}  attributes {}  triples {}  numeric facts {}",
        s.entities,
        s.relations,
        s.attributes,
        s.relational_triples,
        s.numeric_triples
    );
    outln!(
        "{:<20} {:>7} {:>14} {:>14} {:>14}",
        "attribute",
        "count",
        "min",
        "max",
        "mean"
    );
    for a in attribute_stats(&graph) {
        outln!(
            "{:<20} {:>7} {:>14.3} {:>14.3} {:>14.3}",
            a.name,
            a.count,
            a.min,
            a.max,
            a.mean
        );
    }
    Ok(())
}

fn config_from(args: &Args) -> Result<ChainsFormerConfig, Box<dyn Error>> {
    let mut cfg = ChainsFormerConfig::default();
    cfg.epochs = args.get_parse("epochs", cfg.epochs, "integer")?;
    cfg.dim = args.get_parse("dim", cfg.dim, "integer")?;
    cfg.ff_dim = 2 * cfg.dim;
    cfg.layers = args.get_parse("layers", cfg.layers, "integer")?;
    cfg.retrieval_walks = args.get_parse("walks", cfg.retrieval_walks, "integer")?;
    cfg.top_k = args.get_parse("top-k", cfg.top_k, "integer")?;
    cfg.chain_quality = args.switch("quality");
    cfg.seed = args.get_parse("seed", 7, "integer")?;
    cfg.validate().map_err(|e| -> Box<dyn Error> { e.into() })?;
    Ok(cfg)
}

/// The `--seed` 8:1:1 split of `graph`: its visible graph, the split, and
/// the RNG where the split leaves it. `train` fits and trains on it; `eval`,
/// `predict` and `serve` answer over it, so all of them see the same graph.
fn split_graph(graph: &KnowledgeGraph, seed: u64) -> (KnowledgeGraph, Split, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let split = Split::paper_811(graph, &mut rng);
    (split.visible_graph(graph), split, rng)
}

/// Builds graph/split/model deterministically from the shared flags and
/// fits a fresh model (`train`).
fn setup(args: &Args) -> Result<(KnowledgeGraph, Split, ChainsFormer, StdRng), Box<dyn Error>> {
    let cfg = config_from(args)?;
    let graph = load_graph(args)?;
    let (visible, split, mut rng) = split_graph(&graph, cfg.seed);
    let model = ChainsFormer::new(&visible, &split.train, cfg, &mut rng);
    Ok((visible, split, model, rng))
}

/// `cfkg train`: crash-safe training. A full CFT2 checkpoint (params +
/// optimizer + RNG + early-stopping cursor) is written atomically to
/// `--ckpt` at every epoch boundary; `--resume` continues a killed run
/// bit-for-bit from that file; SIGINT/SIGTERM stops at the next batch
/// boundary and still saves the best checkpoint durably.
pub fn train(args: &Args) -> CmdResult {
    let ckpt = args.require("ckpt")?.to_string();
    let resume = args.switch("resume");
    check_out_dir("ckpt", &ckpt)?;
    let (visible, split, mut model, mut rng) = setup(args)?;
    outln!(
        "{} on {} queries ({} validation) for up to {} epochs …",
        if resume { "resuming" } else { "training" },
        split.train.len(),
        split.valid.len(),
        model.cfg.epochs
    );
    cf_serve::install_signals();
    let interrupt = Arc::new(AtomicBool::new(false));
    {
        // Bridge the async-signal-safe static flag into the trainer's
        // cooperative interrupt: a watcher thread polls it so the handler
        // itself never does more than one atomic store.
        let interrupt = Arc::clone(&interrupt);
        std::thread::spawn(move || loop {
            if cf_serve::signalled() {
                interrupt.store(true, std::sync::atomic::Ordering::SeqCst);
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        });
    }
    let opts = TrainOptions {
        checkpoint_path: Some(ckpt.clone().into()),
        resume,
        interrupt: Some(interrupt),
        stop_after_epochs: None,
    };
    let result = Trainer::new(&mut model, &visible).train_opts(&split, &mut rng, &opts)?;
    for e in &result.epochs {
        match e.valid_mae {
            Some(v) => outln!(
                "epoch {:>3}  loss {:.4}  valid MAE {:.4}",
                e.epoch,
                e.train_loss,
                v
            ),
            None => outln!("epoch {:>3}  loss {:.4}", e.epoch, e.train_loss),
        }
    }
    if result.interrupted {
        outln!("interrupted — best checkpoint saved durably to {ckpt}");
        return Ok(());
    }
    let report = evaluate_model(&model, &visible, &split.test, &mut rng);
    outln!(
        "test normalized MAE {:.4}, RMSE {:.4}",
        report.norm_mae,
        report.norm_rmse
    );
    outln!("saved checkpoint to {ckpt}");
    Ok(())
}

/// What [`load_model`] built, and the milliseconds each phase took.
struct Loaded {
    visible: KnowledgeGraph,
    split: Split,
    model: ChainsFormer,
    /// The RNG where the split left it.
    rng: StdRng,
    store_ms: f64,
    split_ms: f64,
    model_ms: f64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Opens the graph, splits it under `--seed`, and loads the `--ckpt` model
/// (parameters and `model` section) for the flags' architecture, checked
/// against the flags and the visible graph's vocabulary. Nothing is
/// fitted: a checkpoint without the section, or one that disagrees, is a
/// typed error.
fn load_model(args: &Args) -> Result<Loaded, Box<dyn Error>> {
    let cfg = config_from(args)?;
    let ckpt = args.require("ckpt")?;
    let t = Instant::now();
    let graph = load_graph(args)?;
    let store_ms = ms_since(t);
    let t = Instant::now();
    let (visible, split, rng) = split_graph(&graph, cfg.seed);
    // Only the visible graph is served: free the full one before the model
    // file is read.
    drop(graph);
    let split_ms = ms_since(t);
    let t = Instant::now();
    let model = ChainsFormer::load(ckpt, cfg, &visible)?;
    Ok(Loaded {
        visible,
        split,
        model,
        rng,
        store_ms,
        split_ms,
        model_ms: ms_since(t),
    })
}

/// `cfkg eval`: evaluate a checkpoint on the test split.
pub fn eval(args: &Args) -> CmdResult {
    let Loaded {
        visible,
        split,
        model,
        mut rng,
        ..
    } = load_model(args)?;
    let report = evaluate_model(&model, &visible, &split.test, &mut rng);
    outln!(
        "{:<20} {:>10} {:>10} {:>7}",
        "attribute",
        "MAE",
        "RMSE",
        "n"
    );
    for (attr, e) in &report.per_attribute {
        outln!(
            "{:<20} {:>10.3} {:>10.3} {:>7}",
            visible.attribute_name(cf_kg::AttributeId(*attr)),
            e.mae,
            e.rmse,
            e.count
        );
    }
    outln!(
        "\nAverage* MAE {:.4}   RMSE {:.4}",
        report.norm_mae,
        report.norm_rmse
    );
    Ok(())
}

/// `cfkg predict`: answer one or more queries (comma-separated entities)
/// with their reasoning traces, through the resident serving engine — the
/// model loads once per process and repeated predictions share the chain
/// cache.
pub fn predict(args: &Args) -> CmdResult {
    let entity_arg = args.require("entity")?.to_string();
    let attr_name = args.require("attr")?.to_string();
    let seed: u64 = args.get_parse("seed", 7, "integer")?;
    let quantize: QuantMode = args.get_parse("quantize", QuantMode::F32, "f32|int8")?;
    let Loaded { visible, model, .. } = load_model(args)?;
    let engine = Engine::new(
        model,
        visible,
        EngineConfig {
            seed,
            quantize,
            ..EngineConfig::default()
        },
    );
    for entity_name in entity_arg.split(',') {
        // Resolve names in a scope of their own: holding the live-graph
        // read guard across `predict` (which waits on a worker that takes
        // the same lock) could deadlock behind a queued mutation writer.
        let (entity, attr) = {
            let graph = engine.graph();
            let entity = graph
                .entity_by_name(entity_name)
                .ok_or_else(|| format!("entity {entity_name:?} not found"))?;
            let attr = graph
                .attribute_by_name(&attr_name)
                .ok_or_else(|| format!("attribute {attr_name:?} not found"))?;
            (entity, attr)
        };
        let served = engine.predict(Query { entity, attr })?;
        let graph = engine.graph();
        let detail = served.detail;
        outln!("{attr_name} of {entity_name}: {:.4}", detail.value);
        if detail.used_fallback {
            outln!("(no evidence chains retrievable — training-mean fallback)");
            continue;
        }
        outln!(
            "retrieved {} chains, {} after filtering; top evidence:",
            detail.retrieved,
            detail.chains.len()
        );
        let mut chains = detail.chains;
        chains.sort_by(|a, b| b.weight.partial_cmp(&a.weight).expect("finite"));
        for c in chains.iter().take(8) {
            outln!(
                "  ω={:.3}  {}  via {}  (n_p={:.2}, n̂={:.2})",
                c.weight,
                c.chain.render(&*graph),
                graph.entity_name(c.source),
                c.known_value,
                c.prediction
            );
        }
    }
    engine.shutdown();
    Ok(())
}

/// `cfkg compact`: offline journal compaction. Reads a CFKG1 store and a
/// CFJ1 mutation journal, replays the journal over an overlay (recovery
/// drops a torn tail, replay is idempotent), and writes the merged graph
/// as a canonical store to `--out`. The journal file itself is left
/// untouched, so the command is safe to re-run and safe to point at a
/// live server's journal for a consistent offline snapshot.
pub fn compact(args: &Args) -> CmdResult {
    let store = args.require("store")?;
    let journal = args.require("journal")?;
    let out = args.require("out")?;
    let graph = read_store(store)?;
    let mut overlay = cf_kg::OverlayGraph::new(graph);
    let rec = cf_kg::recover_file(journal)?;
    if let Some(d) = &rec.dropped {
        outln!(
            "journal: dropped torn tail at record {} ({} bytes)",
            d.record,
            d.bytes
        );
    }
    let (changed, _) = overlay.apply_all(&rec.mutations);
    overlay.compact_to(out)?;
    outln!(
        "compacted {} journaled mutation(s) ({} effective) into {}",
        rec.mutations.len(),
        changed,
        out
    );
    outln!("  {} ({} bytes)", out, std::fs::metadata(out)?.len());
    Ok(())
}

/// `cfkg serve`: run the TCP inference server until SIGTERM/SIGINT or
/// stdin close, then drain and exit 0.
pub fn serve(args: &Args) -> CmdResult {
    let port: u16 = args.get_parse("port", 0, "integer")?;
    let cfg = EngineConfig {
        queue_cap: args.get_parse("queue-cap", 256, "integer")?,
        // 0 = auto: one shard (queue, cache, worker) per numeric-pool
        // thread. Responses are bitwise identical at every shard count
        // (entity-hash routing + per-query retrieval RNG), so this is
        // purely a throughput knob.
        shards: args.get_parse("shards", 0, "integer")?,
        seed: args.get_parse("seed", 7, "integer")?,
        quantize: args.get_parse("quantize", QuantMode::F32, "f32|int8")?,
        ..EngineConfig::default()
    };
    let loaded = load_model(args)?;
    let (visible, model) = (loaded.visible, loaded.model);
    let t = Instant::now();
    let index = match args.get("index") {
        Some(path) => {
            let ix = MappedChainIndex::open(path)?;
            // Check here (not in the engine) so a stale index is a clean
            // CLI error instead of a panic.
            ix.check_matches(&visible)?;
            Some(ix)
        }
        None => None,
    };
    let index_ms = ms_since(t);
    let quantize = cfg.quantize;
    let journal = args.get("journal").map(str::to_string);
    let compact_to = args.get("compact-to").map(PathBuf::from);
    let compact_every: u64 = args.get_parse("compact-every", 0u64, "integer")?;
    if journal.is_none() && (compact_to.is_some() || compact_every > 0) {
        return Err("--compact-to/--compact-every need --journal PATH".into());
    }
    if compact_to.is_some() != (compact_every > 0) {
        return Err("--compact-to FILE and --compact-every N (> 0) must be given together".into());
    }
    let t = Instant::now();
    let engine = Arc::new(Engine::new_with_index(model, visible, index, cfg));
    let engine_ms = ms_since(t);
    let t = Instant::now();
    if let Some(jpath) = journal {
        // Attached after the index check above: the index pairs with the
        // pristine base store; journaled mutations land in the overlay and
        // mark their neighborhoods dirty, whose rows the engine then
        // recomputes against the live graph instead of reading them.
        let replayed = engine.attach_journal(&jpath, compact_to.map(|p| (p, compact_every)))?;
        if replayed > 0 {
            outln!("journal {jpath}: replayed {replayed} mutation(s)");
        } else {
            outln!("journal {jpath}: clean");
        }
    }
    // One line per start, before `listening on`: where the start-up time
    // went, and that the model came from its checkpoint, not a fit.
    outln!(
        "start-up ms: store open {:.1}, split {:.1}, model load {:.1} (from {}, no fit), \
         index open {:.1}, engine start {:.1}, journal replay {:.1}",
        loaded.store_ms,
        loaded.split_ms,
        loaded.model_ms,
        args.require("ckpt")?,
        index_ms,
        engine_ms,
        ms_since(t)
    );
    outln!(
        "serving with {} shard(s), {} inference",
        engine.shards(),
        quantize
    );
    let listener = std::net::TcpListener::bind(("127.0.0.1", port))?;
    let addr = listener.local_addr()?;
    // Scripts parse this line to learn the ephemeral port (--port 0).
    outln!("listening on {addr}");
    let shutdown = Arc::new(AtomicBool::new(false));
    cf_serve::install_signals();
    cf_serve::shutdown_on_stdin_close(Arc::clone(&shutdown));
    cf_serve::run(Arc::clone(&engine), listener, shutdown)?;
    // Releasing the last engine reference drains already-enqueued jobs and
    // joins the workers (idle connections may keep theirs briefly; exit
    // proceeds regardless).
    drop(engine);
    outln!("shutdown complete");
    Ok(())
}

/// `cfkg loadtest`: open-loop load against a running `cfkg serve`.
///
/// The arrival schedule (Poisson or uniform), zipfian entity popularity,
/// and optional reload mix are all fixed up front from `--seed` and the
/// loaded graph — requests go out at their scheduled instants whether or
/// not earlier ones were answered, so overload shows up as shed requests
/// and honest tail latency instead of a silently throttled client. The
/// same plan replayed against servers at different `--shards` settings
/// produces byte-identical `--dump` files (CI diffs them).
pub fn loadtest(args: &Args) -> CmdResult {
    let addr = args.require("addr")?.to_string();
    let plan_cfg = cf_load::PlanConfig {
        arrivals: args.get("arrivals").unwrap_or("poisson").parse()?,
        rate_hz: args.get_parse("rate", 2000.0, "number")?,
        requests: args.get_parse("requests", 2000, "integer")?,
        warmup: args.get_parse("warmup", 200, "integer")?,
        zipf_s: args.get_parse("zipf", 1.0, "number")?,
        reload_every: args.get_parse("reload-every", 0, "integer")?,
        mutate_every: args.get_parse("mutate-every", 0, "integer")?,
        seed: args.get_parse("seed", 1, "integer")?,
    };
    cf_load::check_rate(plan_cfg.rate_hz)?;
    cf_load::check_exponent(plan_cfg.zipf_s)?;
    // Only names and counts are needed: the split hides facts, not
    // entities, so the raw graph names exactly what the server resolves.
    let graph = load_graph(args)?;
    let deadline_ms = match args.get("deadline-ms") {
        None => None,
        Some(_) => Some(args.get_parse("deadline-ms", 0u64, "integer")?),
    };
    let reload_path = args.get("reload");
    if plan_cfg.reload_every > 0 && reload_path.is_none() {
        return Err(
            "--reload-every needs --reload PATH (a checkpoint on the server's filesystem)".into(),
        );
    }
    let conns: usize = args.get_parse("conns", 8, "integer")?;
    let plan = cf_load::build_plan(
        GraphView::num_entities(&graph),
        GraphView::num_attributes(&graph),
        &plan_cfg,
    );
    let events = cf_load::render_events(&plan, &graph, deadline_ms, reload_path);
    outln!(
        "loadtest {addr}: {} events ({} warmup) at {:.0}/s {:?} over {} conns, zipf {}",
        events.len(),
        plan_cfg.warmup,
        plan_cfg.rate_hz,
        plan_cfg.arrivals,
        conns.clamp(1, events.len().max(1)),
        plan_cfg.zipf_s,
    );
    let outcome = cf_load::run_tcp(&addr, &events, conns)?;
    outln!("{}", outcome.report.render());
    if let Some(dump) = args.get("dump") {
        std::fs::write(dump, cf_load::canonical_dump(&outcome.responses))?;
        outln!("canonical responses → {dump}");
    }
    Ok(())
}

fn large_scale_from(args: &Args) -> Result<LargeScale, Box<dyn Error>> {
    let mut scale = LargeScale::million();
    scale.entities = args
        .get_parse("entities", scale.entities, "integer")?
        .max(2);
    scale.avg_degree = args.get_parse("avg-degree", scale.avg_degree, "integer")?;
    // Communities must stay well under the entity count or the planted
    // intra-community structure degenerates to uniform noise.
    scale.communities = scale.communities.min((scale.entities / 8).max(1));
    Ok(scale)
}

/// `cfkg gen`: the million-entity zipfian world (`synth::large_sim`),
/// written as TSV (`--out DIR`) and/or directly as a CFKG1 store
/// (`--store FILE`, skipping the TSV round trip).
pub fn gen(args: &Args) -> CmdResult {
    let seed: u64 = args.get_parse("seed", 7, "integer")?;
    let scale = large_scale_from(args)?;
    if args.get("out").is_none() && args.get("store").is_none() {
        return Err("gen needs --out DIR (TSV) and/or --store FILE (binary)".into());
    }
    let t0 = std::time::Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut graph = large_sim(scale, &mut rng);
    // Canonical id order makes the emitted store byte-comparable with a
    // store ingested from the emitted TSVs (CI cmp's the two).
    graph.canonicalize();
    let s = dataset_stats(&graph);
    outln!(
        "generated large_sim in {:.2}s: {} entities, {} relations, {} attributes, {} triples, {} numeric facts",
        t0.elapsed().as_secs_f64(),
        s.entities, s.relations, s.attributes, s.relational_triples, s.numeric_triples
    );
    if let Some(dir) = args.get("out") {
        let out = Path::new(dir);
        std::fs::create_dir_all(out)?;
        let triples_path = out.join("large_triples.tsv");
        let numerics_path = out.join("large_numerics.tsv");
        write_triples(
            &graph,
            std::io::BufWriter::new(std::fs::File::create(&triples_path)?),
        )?;
        write_numerics(
            &graph,
            std::io::BufWriter::new(std::fs::File::create(&numerics_path)?),
        )?;
        outln!("  {}", triples_path.display());
        outln!("  {}", numerics_path.display());
    }
    if let Some(store) = args.get("store") {
        let t = std::time::Instant::now();
        write_store(&graph, store)?;
        outln!(
            "  {} ({} bytes, {:.2}s)",
            store,
            std::fs::metadata(store)?.len(),
            t.elapsed().as_secs_f64()
        );
    }
    Ok(())
}

/// `cfkg ingest`: TSV → CFKG1 binary store. The graph is canonicalized
/// (name-sorted ids, sorted fact lists) before writing, so the output is a
/// pure function of the graph *content* — re-ingesting the same TSV, or any
/// row-permutation of it, is byte-identical. CI diffs a re-ingested store
/// and a `gen --store` twin against it.
pub fn ingest(args: &Args) -> CmdResult {
    let out = args.require("out")?;
    let t0 = std::time::Instant::now();
    let mut graph = load_graph(args)?;
    // Store bytes must be a function of graph content, not TSV row order:
    // renumber into canonical (name-sorted) order before writing.
    graph.canonicalize();
    let parse_s = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now();
    write_store(&graph, out)?;
    let s = dataset_stats(&graph);
    outln!(
        "ingested {} entities / {} triples / {} numeric facts (parse {:.2}s, write {:.2}s)",
        s.entities,
        s.relational_triples,
        s.numeric_triples,
        parse_s,
        t1.elapsed().as_secs_f64()
    );
    outln!("  {} ({} bytes)", out, std::fs::metadata(out)?.len());
    Ok(())
}

/// Fails, naming `--flag` and `path`, when the directory `path` would be
/// written in is missing, so a command refuses before a long build or
/// training run rather than at its first write.
fn check_out_dir(flag: &str, path: &str) -> CmdResult {
    let dir = match Path::new(path).parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    match std::fs::metadata(dir) {
        Ok(m) if m.is_dir() => Ok(()),
        Ok(_) => Err(format!("--{flag} {path}: {} is not a directory", dir.display()).into()),
        Err(e) => Err(format!("--{flag} {path}: {e}").into()),
    }
}

/// `cfkg index`: precompute the per-entity chain index (CFCI1).
///
/// By default the index covers the *visible* graph of the 8:1:1 split for
/// `--seed` — exactly the graph `serve --index` runs retrieval against. With
/// `--full` it covers the raw graph as loaded (the bench / determinism
/// path; such an index pairs with the store itself, not with a split).
pub fn index(args: &Args) -> CmdResult {
    let out = args.require("out")?;
    let params = IndexParams {
        max_hops: args.get_parse("max-hops", 3u32, "integer")?,
        fanout: args.get_parse("fanout", IndexParams::default().fanout, "integer")?,
        per_entity_cap: args.get_parse(
            "per-entity-cap",
            IndexParams::default().per_entity_cap,
            "integer",
        )?,
    };
    params.check()?;
    check_out_dir("out", out)?;
    let graph = load_graph(args)?;
    let graph = if args.switch("full") {
        graph
    } else {
        split_graph(&graph, args.get_parse("seed", 7, "integer")?).0
    };
    let t0 = std::time::Instant::now();
    let ix = build_chain_index(&graph, params);
    let build_s = t0.elapsed().as_secs_f64();
    write_index(&ix, out)?;
    outln!(
        "indexed {} entities: {} chain entries in {:.2}s ({} threads)",
        ix.num_entities(),
        ix.total_entries(),
        build_s,
        cf_tensor::pool::threads(),
    );
    outln!("  {} ({} bytes)", out, std::fs::metadata(out)?.len());
    Ok(())
}
