//! Serving throughput: closed-loop clients and open-loop load against the
//! `cf-serve` engine.
//!
//! Closed-loop arms (DESIGN.md §9.5):
//! - `per_request` — the status-quo serving strategy: every request is
//!   answered individually (`max_batch = 1`) with a fresh chain retrieval
//!   (cache disabled). This is what calling `predict` per request costs.
//! - `micro_batch` — the serving subsystem: micro-batching
//!   (`max_batch = 8`, 2 ms batching window) + the LRU chain cache.
//!
//! Each closed-loop arm runs with 1, 2 and 4 client threads cycling a
//! fixed pool of hot queries. Clients matter because a lone closed-loop
//! client never leaves more than one job in the queue: micro-batching only
//! forms real batches once several clients overlap.
//!
//! Open-loop arms (DESIGN.md §14):
//! - `open_loop` at shard counts 1, 2 and 4 — a full TCP server driven by
//!   cf-load's fixed Poisson arrival schedule (zipfian entity popularity)
//!   at an offered rate above single-shard capacity. qps here is goodput
//!   (answered predictions per second of the measurement window), and the
//!   latency quantiles are measured from each request's *scheduled* send
//!   instant, so queueing delay is charged honestly.
//! - the same open-loop setup with `--quantize int8` (DESIGN.md §15) at
//!   shard counts 1 and 4, so the quantized serving path has f32 rows to
//!   sit next to in `BENCH_serve.json` (`quantize` column).
//!
//! Host caveat: on a single-core host (CI) extra shards cannot add
//! parallel speedup — the open-loop arms then measure the sharding
//! machinery's overhead and the admission behavior, not scaling. The
//! table title records the host's core count for exactly this reason.
//!
//! Set `CF_BENCH_JSON=1` to write `results/BENCH_serve.json`;
//! `CF_BENCH_SAMPLES` scales the request count (CI smoke uses 1).

use cf_chains::Query;
use cf_kg::synth::{yago15k_sim, SynthScale};
use cf_kg::{GraphView, Split};
use cf_rand::rngs::StdRng;
use cf_rand::SeedableRng;
use cf_serve::{Engine, EngineConfig, QuantMode};
use chainsformer::{ChainsFormer, ChainsFormerConfig};
use chainsformer_bench::report::{write_json_merged, Table};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct ArmResult {
    arm: &'static str,
    clients: usize,
    shards: usize,
    quantize: QuantMode,
    requests: usize,
    elapsed_ms: f64,
    qps: f64,
    mean_batch: u64,
    cache_hit_rate: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
}

/// Tiny model dims (fast forward) with the retrieval load dialed toward
/// the paper's operating point (`N_s ≫ K`; the paper uses `N_s = 2048`
/// walks per query). This is the regime the chain cache exists for:
/// retrieval is the expensive per-request step.
fn bench_config() -> ChainsFormerConfig {
    let mut cfg = ChainsFormerConfig::tiny();
    cfg.retrieval_walks = 512;
    cfg
}

fn build_model() -> (cf_kg::KnowledgeGraph, Vec<Query>, ChainsFormer) {
    let mut rng = StdRng::seed_from_u64(17);
    let g = yago15k_sim(SynthScale::small(), &mut rng);
    let split = Split::paper_811(&g, &mut rng);
    let visible = split.visible_graph(&g);
    let model = ChainsFormer::new(&visible, &split.train, bench_config(), &mut rng);
    let pool: Vec<Query> = split
        .test
        .iter()
        .take(32)
        .map(|t| Query {
            entity: t.entity,
            attr: t.attr,
        })
        .collect();
    (visible, pool, model)
}

fn arm_config(arm: &str) -> EngineConfig {
    match arm {
        "per_request" => EngineConfig {
            max_batch: 1,
            max_wait_us: 0,
            cache_cap: 0,
            ..EngineConfig::default()
        },
        "micro_batch" => EngineConfig {
            max_batch: 8,
            max_wait_us: 2000,
            cache_cap: 4096,
            ..EngineConfig::default()
        },
        other => unreachable!("unknown arm {other}"),
    }
}

/// Runs one closed-loop arm at one client count; returns steady-state
/// throughput. A fresh engine per run keeps arms independent; one warmup
/// pass over the query pool precedes the timed window so the cached arm is
/// measured at its operating point, not while filling the cache.
fn run_closed_loop(
    arm: &'static str,
    clients: usize,
    per_client: usize,
    graph: &cf_kg::KnowledgeGraph,
    pool: &[Query],
    model: &ChainsFormer,
) -> ArmResult {
    let engine = Arc::new(Engine::new(model.clone(), graph.clone(), arm_config(arm)));
    for &q in pool {
        engine.predict(q).expect("warmup prediction");
    }
    // Measure a clean steady-state window: warmup (cache fill, single-query
    // batches) must not pollute the reported hit rate / batch histogram.
    engine.metrics().reset();

    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let engine = Arc::clone(&engine);
            let pool: Vec<Query> = pool.to_vec();
            std::thread::spawn(move || {
                for i in 0..per_client {
                    let q = pool[(c * 7 + i) % pool.len()];
                    engine.predict(q).expect("prediction");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let elapsed = start.elapsed();

    let m = engine.metrics();
    let requests = clients * per_client;
    ArmResult {
        arm,
        clients,
        shards: 1,
        quantize: QuantMode::F32,
        requests,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        qps: requests as f64 / elapsed.as_secs_f64(),
        mean_batch: m.batch_size.mean(),
        cache_hit_rate: m.cache_hit_rate(),
        p50_us: m.latency_us.quantile(0.50),
        p95_us: m.latency_us.quantile(0.95),
        p99_us: m.latency_us.quantile(0.99),
    }
}

/// Runs the open-loop arm at one shard count: a real TCP server, driven by
/// the same deterministic plan `cfkg loadtest` would send.
fn run_open_loop(
    shards: usize,
    quantize: QuantMode,
    conns: usize,
    requests: usize,
    warmup: usize,
    rate_hz: f64,
    graph: &cf_kg::KnowledgeGraph,
    model: &ChainsFormer,
) -> ArmResult {
    let engine = Arc::new(Engine::new(
        model.clone(),
        graph.clone(),
        EngineConfig {
            shards,
            quantize,
            ..EngineConfig::default()
        },
    ));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let server = {
        let engine = Arc::clone(&engine);
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || cf_serve::run(engine, listener, shutdown).expect("server"))
    };

    let plan = cf_load::build_plan(
        GraphView::num_entities(graph),
        GraphView::num_attributes(graph),
        &cf_load::PlanConfig {
            arrivals: cf_load::ArrivalProcess::Poisson,
            rate_hz,
            requests,
            warmup,
            zipf_s: 1.0,
            reload_every: 0,
            mutate_every: 0,
            seed: 29,
        },
    );
    let events = cf_load::render_events(&plan, graph, None, None);
    engine.metrics().reset();
    let outcome = cf_load::run_tcp(&addr, &events, conns).expect("loadtest run");
    let m = engine.metrics();
    let r = &outcome.report;
    let result = ArmResult {
        arm: "open_loop",
        clients: conns,
        shards,
        quantize,
        requests: r.sent as usize,
        elapsed_ms: r.elapsed_s * 1e3,
        qps: r.qps,
        mean_batch: m.batch_size.mean(),
        cache_hit_rate: m.cache_hit_rate(),
        p50_us: r.latency.quantile(0.50),
        p95_us: r.latency.quantile(0.95),
        p99_us: r.latency.quantile(0.99),
    };
    shutdown.store(true, Ordering::SeqCst);
    server.join().expect("server thread");
    result
}

fn main() {
    let samples: usize = std::env::var("CF_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let per_client = 12 * samples;
    let (graph, pool, model) = build_model();

    let mut results = Vec::new();
    for &clients in &[1usize, 2, 4] {
        for arm in ["per_request", "micro_batch"] {
            let r = run_closed_loop(arm, clients, per_client, &graph, &pool, &model);
            print_arm(&r);
            results.push(r);
        }
    }
    // Open loop: offered rate above a single shard's measured capacity, so
    // the run probes capacity (goodput) rather than echoing the offered
    // rate back. 1.8× the closed-loop micro-batch ceiling keeps the server
    // saturated without drowning a 1-core CI host.
    let capacity_hint = results
        .iter()
        .filter(|r| r.arm == "micro_batch")
        .map(|r| r.qps)
        .fold(0.0f64, f64::max);
    let rate_hz = (capacity_hint * 1.8).max(500.0);
    let open_requests = 150 * samples;
    let open_warmup = 25 * samples;
    for &shards in &[1usize, 2, 4] {
        let r = run_open_loop(
            shards,
            QuantMode::F32,
            16,
            open_requests,
            open_warmup,
            rate_hz,
            &graph,
            &model,
        );
        print_arm(&r);
        results.push(r);
    }
    // Quantized serving arms next to the f32 rows: same offered load, same
    // plan, engine built with `quantize: int8` (DESIGN.md §15).
    for &shards in &[1usize, 4] {
        let r = run_open_loop(
            shards,
            QuantMode::Int8,
            16,
            open_requests,
            open_warmup,
            rate_hz,
            &graph,
            &model,
        );
        print_arm(&r);
        results.push(r);
    }

    // Headline: micro-batched vs per-request at 4 client threads.
    let qps = |arm: &str, clients: usize| {
        results
            .iter()
            .find(|r| r.arm == arm && r.clients == clients)
            .map(|r| r.qps)
            .expect("arm present")
    };
    let speedup = qps("micro_batch", 4) / qps("per_request", 4);
    println!("micro_batch vs per_request at 4 clients: {speedup:.2}x");

    if std::env::var("CF_BENCH_JSON").is_ok() {
        let cores = cf_tensor::pool::threads();
        let mut table = Table::new(
            &format!(
                "serving throughput: closed-loop engine arms + open-loop TCP load vs shard count ({cores}-thread host; open-loop qps is goodput at {rate_hz:.0}/s offered, latency from scheduled send)"
            ),
            &[
                "arm",
                "clients",
                "shards",
                "quantize",
                "requests",
                "elapsed_ms",
                "qps",
                "mean_batch",
                "cache_hit_rate",
                "p50_us",
                "p95_us",
                "p99_us",
            ],
        );
        for r in &results {
            table.row(vec![
                r.arm.to_string(),
                r.clients.to_string(),
                r.shards.to_string(),
                r.quantize.to_string(),
                r.requests.to_string(),
                format!("{:.1}", r.elapsed_ms),
                format!("{:.1}", r.qps),
                r.mean_batch.to_string(),
                format!("{:.3}", r.cache_hit_rate),
                r.p50_us.to_string(),
                r.p95_us.to_string(),
                r.p99_us.to_string(),
            ]);
        }
        table.row(vec![
            "speedup_micro_vs_per_request_4_clients".into(),
            "4".into(),
            "1".into(),
            "f32".into(),
            String::new(),
            String::new(),
            format!("{speedup:.2}"),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        ]);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let path =
            write_json_merged(&table, &dir, "BENCH_serve", 4).expect("write BENCH_serve.json");
        println!("wrote {}", path.display());
    }
}

fn print_arm(r: &ArmResult) {
    println!(
        "{:<12} clients={} shards={} quantize={} requests={:>5} {:>8.1} ms  {:>7.1} q/s  batch≈{} hit={:.2} p50={}us p95={}us p99={}us",
        r.arm,
        r.clients,
        r.shards,
        r.quantize,
        r.requests,
        r.elapsed_ms,
        r.qps,
        r.mean_batch,
        r.cache_hit_rate,
        r.p50_us,
        r.p95_us,
        r.p99_us
    );
}
