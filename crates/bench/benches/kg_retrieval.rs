//! Million-entity graph store and chain index: load + retrieval latency.
//!
//! Pins the ISSUE-7 performance claims (DESIGN.md §13):
//! - loading a CFKG1 store (`read_store`: CRC-validate, copy the facts,
//!   `build_index`) versus re-parsing the TSV twins; the two sides of the
//!   headline ratio are each the median of three runs;
//! - chain-index build time at 1 and 4 pool threads, with the output bytes
//!   asserted identical (the fixed-shard determinism contract);
//! - chain-index open time (`index_open_s`, median of three) and what the
//!   open leaves resident of the index mapping (`index_open_rss_mb`, the
//!   mapping's `/proc/self/smaps` Rss right after open, Linux only);
//! - the same open with each CRC fold the host has pinned
//!   (`index_open_crc_{zmm,xmm,table}_s`, interleaved, median of three):
//!   the evidence that the wider folds earn their code;
//! - retrieval latency per query, walk-per-query (`retrieve`, Eq. 6's
//!   `N_s` random walks over adjacency) versus indexed
//!   (`retrieve_indexed`, one CSR slice + weighted sampling).
//!
//! The 15K-entity arm always runs. The 1M-entity arm needs a few GB of
//! temp space and minutes of CPU, so it is gated behind
//! `CF_BENCH_KG_LARGE=1`. Set `CF_BENCH_JSON=1` to write
//! `results/BENCH_kg.json`; partial runs *merge* into the existing file
//! (keyed on scale+metric), so a small-only run never erases the large
//! rows. `CF_BENCH_SAMPLES` scales the query count (CI smoke uses 1).

use cf_chains::{retrieve, retrieve_indexed, Query, RetrievalConfig};
use cf_kg::io::{write_numerics, write_triples, TsvLoader};
use cf_kg::mmapio::mapping_rss_kb;
use cf_kg::synth::{large_sim, LargeScale};
use cf_kg::{
    build_chain_index, read_store, write_index, write_store, ChainIndexView, EntityId, GraphView,
    IndexParams, MappedChainIndex,
};
use cf_rand::rngs::StdRng;
use cf_rand::SeedableRng;
use cf_tensor::simd;
use chainsformer_bench::report::{write_json_merged, Table};
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cf_bench_kg_{}_{}", std::process::id(), name));
    p
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median of three timed repetitions. The two headline load metrics feed a
/// ratio (store load vs TSV parse), and a single sample of either can catch
/// a scheduler stall on a shared host; the median keeps the ratio stable.
fn median3(mut run: impl FnMut() -> f64) -> f64 {
    let mut t = [run(), run(), run()];
    t.sort_by(|a, b| a.partial_cmp(b).unwrap());
    t[1]
}

/// Per-query latencies in microseconds, sorted; (p50, p99) picked by rank.
fn percentiles(mut lat_us: Vec<f64>) -> (f64, f64) {
    lat_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pick = |q: f64| lat_us[((lat_us.len() - 1) as f64 * q).round() as usize];
    (pick(0.50), pick(0.99))
}

/// Queries with evidence, spread across the entity range.
fn sample_queries(g: &impl GraphView, n: usize) -> Vec<Query> {
    let stride = (g.num_entities() / n.max(1)).max(1);
    let mut out = Vec::with_capacity(n);
    let mut e = 0usize;
    while out.len() < n && e < g.num_entities() {
        let ent = EntityId(e as u32);
        if let Some(f) = g.numerics_of(ent).first() {
            if g.degree(ent) > 0 {
                out.push(Query {
                    entity: ent,
                    attr: f.attr,
                });
            }
        }
        e += stride;
    }
    out
}

/// A row value at the precision its unit needs: counts and bytes whole,
/// seconds to the microsecond (the 15k store opens in well under 1 ms).
fn fmt_value(value: f64, unit: &str) -> String {
    match unit {
        "n" | "B" => format!("{value:.0}"),
        "s" => format!("{value:.6}"),
        _ => format!("{value:.3}"),
    }
}

struct ScaleResult {
    rows: Vec<(String, f64, &'static str)>,
}

fn run_scale(label: &str, scale: LargeScale, params: IndexParams, queries: usize) -> ScaleResult {
    let mut rows: Vec<(String, f64, &'static str)> = Vec::new();
    let mut push = |metric: &str, value: f64, unit: &'static str| {
        println!(
            "[{label}] {metric:<28} {:>16} {unit}",
            fmt_value(value, unit)
        );
        rows.push((metric.to_string(), value, unit));
    };

    // --- generate the world ---
    let t = Instant::now();
    let g = large_sim(scale, &mut StdRng::seed_from_u64(7));
    push("gen_s", secs(t), "s");
    push("entities", g.num_entities() as f64, "n");
    push("edges", g.triples().len() as f64, "n");

    // --- TSV parse arm (the status-quo load path) ---
    let triples_path = tmp(&format!("{label}_triples.tsv"));
    let numerics_path = tmp(&format!("{label}_numerics.tsv"));
    write_triples(
        &g,
        std::io::BufWriter::new(std::fs::File::create(&triples_path).unwrap()),
    )
    .unwrap();
    write_numerics(
        &g,
        std::io::BufWriter::new(std::fs::File::create(&numerics_path).unwrap()),
    )
    .unwrap();
    let mut parsed = None;
    let tsv_parse_s = median3(|| {
        let t = Instant::now();
        let mut loader = TsvLoader::new();
        loader
            .load_triples(BufReader::new(std::fs::File::open(&triples_path).unwrap()))
            .unwrap();
        loader
            .load_numerics(BufReader::new(std::fs::File::open(&numerics_path).unwrap()))
            .unwrap();
        parsed = Some(loader.finish());
        secs(t)
    });
    let parsed = parsed.unwrap();
    push("tsv_parse_s", tsv_parse_s, "s");
    // TSV is facts-only: an entity with no edges and no numeric facts
    // cannot round-trip through it (the binary store carries every
    // entity). At zipfian 1M a few dozen isolated entities drop out.
    assert!(parsed.num_entities() <= g.num_entities());
    push(
        "tsv_lost_entities",
        (g.num_entities() - parsed.num_entities()) as f64,
        "n",
    );
    drop(parsed);

    // --- store write + load ---
    let store_path = tmp(&format!("{label}.cfkg"));
    let t = Instant::now();
    write_store(&g, &store_path).unwrap();
    push("store_write_s", secs(t), "s");
    push(
        "store_bytes",
        std::fs::metadata(&store_path).unwrap().len() as f64,
        "B",
    );
    drop(g);
    let mut loaded = None;
    let store_load_s = median3(|| {
        drop(loaded.take());
        let t = Instant::now();
        loaded = Some(read_store(&store_path).unwrap());
        secs(t)
    });
    let g = loaded.unwrap();
    push("store_load_s", store_load_s, "s");
    push(
        "store_vs_tsv_parse_speedup",
        tsv_parse_s / store_load_s,
        "x",
    );

    // --- chain index build: 1 vs 4 threads, bytes must match ---
    push("index_fanout", params.fanout as f64, "n");
    push("index_per_entity_cap", params.per_entity_cap as f64, "n");
    let ix_path_1 = tmp(&format!("{label}_t1.cfci"));
    let ix_path_4 = tmp(&format!("{label}_t4.cfci"));
    cf_tensor::pool::set_threads(1);
    let t = Instant::now();
    let ix = build_chain_index(&g, params);
    push("index_build_t1_s", secs(t), "s");
    write_index(&ix, &ix_path_1).unwrap();
    drop(ix);
    cf_tensor::pool::set_threads(4);
    let t = Instant::now();
    let ix = build_chain_index(&g, params);
    push("index_build_t4_s", secs(t), "s");
    write_index(&ix, &ix_path_4).unwrap();
    drop(ix);
    assert_eq!(
        std::fs::read(&ix_path_1).unwrap(),
        std::fs::read(&ix_path_4).unwrap(),
        "index bytes differ between CF_THREADS=1 and CF_THREADS=4"
    );
    push(
        "index_bytes",
        std::fs::metadata(&ix_path_1).unwrap().len() as f64,
        "B",
    );
    let mut index = None;
    let index_open_s = median3(|| {
        let t = Instant::now();
        index = Some(MappedChainIndex::open(&ix_path_1).unwrap());
        secs(t)
    });
    let index = index.unwrap();
    push("index_open_s", index_open_s, "s");
    // What the open left resident of the index mapping (Linux only).
    let at = index.entries_of(EntityId(0)).as_ptr().cast();
    if let Some(kb) = mapping_rss_kb(at) {
        push("index_open_rss_mb", kb as f64 / 1024.0, "MB");
    }
    index.check_matches(&g).unwrap();
    let detected = simd::tiers();
    let folds: Vec<(u8, &str)> = [
        (simd::CRC_ZMM, "zmm"),
        (simd::CRC_XMM, "xmm"),
        (simd::CRC_TABLE, "table"),
    ]
    .into_iter()
    .filter(|&(crc, _)| crc <= detected.crc)
    .collect();
    let mut fold_s = vec![Vec::new(); folds.len()];
    for _ in 0..3 {
        for (&(crc, _), times) in folds.iter().zip(&mut fold_s) {
            simd::pin(Some(simd::Tiers { crc, ..detected }));
            let t = Instant::now();
            let opened = MappedChainIndex::open(&ix_path_1).unwrap();
            times.push(secs(t));
            drop(opened);
        }
    }
    simd::pin(None);
    for ((_, name), mut times) in folds.into_iter().zip(fold_s) {
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        push(&format!("index_open_crc_{name}_s"), times[1], "s");
    }

    // --- retrieval: walk-per-query vs indexed ---
    let cfg = RetrievalConfig::default();
    let qs = sample_queries(&g, queries);
    assert!(!qs.is_empty(), "no evidence-bearing queries sampled");
    let mut walk_us = Vec::with_capacity(qs.len());
    for (i, q) in qs.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(0xBE7C_0000 + i as u64);
        let t = Instant::now();
        let toc = retrieve(&g, *q, &cfg, &mut rng);
        walk_us.push(secs(t) * 1e6);
        std::hint::black_box(toc.len());
    }
    let (walk_p50, walk_p99) = percentiles(walk_us);
    push("walk_p50_us", walk_p50, "us");
    push("walk_p99_us", walk_p99, "us");
    let mut ix_us = Vec::with_capacity(qs.len());
    for (i, q) in qs.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(0xBE7C_0000 + i as u64);
        let t = Instant::now();
        let toc = retrieve_indexed(&index, *q, &cfg, &mut rng);
        ix_us.push(secs(t) * 1e6);
        std::hint::black_box(toc.len());
    }
    let (ix_p50, ix_p99) = percentiles(ix_us);
    push("indexed_p50_us", ix_p50, "us");
    push("indexed_p99_us", ix_p99, "us");
    push("indexed_vs_walk_p99_speedup", walk_p99 / ix_p99, "x");
    push("queries", qs.len() as f64, "n");

    for p in [
        &triples_path,
        &numerics_path,
        &store_path,
        &ix_path_1,
        &ix_path_4,
    ] {
        let _ = std::fs::remove_file(p);
    }
    ScaleResult { rows }
}

fn main() {
    let samples: usize = std::env::var("CF_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    // The small arm uses the default index params; the 1M arm uses the
    // density an operator would run at that scale (fanout 8, 64 entries
    // per entity ≈ 2 GB of index instead of 8 GB at cap 256).
    let mut arms: Vec<(&str, LargeScale, IndexParams, usize)> = vec![(
        "15k",
        LargeScale::smoke(),
        IndexParams::default(),
        8 * samples,
    )];
    if std::env::var("CF_BENCH_KG_LARGE").is_ok() {
        let large_params = IndexParams {
            fanout: 8,
            per_entity_cap: 64,
            ..IndexParams::default()
        };
        arms.push(("1m", LargeScale::million(), large_params, 8 * samples));
    } else {
        println!("CF_BENCH_KG_LARGE not set: skipping the 1M-entity arm");
    }

    // Shared with `kg_mutate` — both benches merge rows into
    // `BENCH_kg.json`, and the merge stamps the last writer's title, so the
    // title must describe the union.
    let mut table = Table::new(
        "graph store + chain index: load/retrieval latency and live-mutation cost \
         (store vs TSV, indexed vs walk, journal/overlay/invalidation)",
        &["scale", "metric", "value", "unit"],
    );
    for (label, scale, params, queries) in arms {
        let r = run_scale(label, scale, params, queries);
        for (metric, value, unit) in r.rows {
            table.row(vec![
                label.to_string(),
                metric,
                fmt_value(value, unit),
                unit.to_string(),
            ]);
        }
    }
    table.print();

    if std::env::var("CF_BENCH_JSON").is_ok() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let path = write_json_merged(&table, &dir, "BENCH_kg", 2).expect("write BENCH_kg.json");
        println!("wrote {}", path.display());
    }
}
