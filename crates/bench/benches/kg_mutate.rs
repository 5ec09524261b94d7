//! Live-graph mutation cost: journal commit, overlay apply, invalidation.
//!
//! Pins the ISSUE-10 serving-mutation claims (DESIGN.md §16): what a
//! `{"mutate": …}` costs per mutation, decomposed into its three phases —
//!
//! - **journal** — encode + append + `fdatasync` of one CFJ1 record
//!   (durability is paid *before* visibility, so this fsync bounds mutation
//!   admission latency);
//! - **apply** — the copy-on-write row merge into [`OverlayGraph`];
//! - **invalidate** — the `max_hops` BFS ([`cf_serve::dirty_entities`])
//!   that computes the stale set for the chain cache and index.
//!
//! Plus the two batch operations: **replay** (load the store, recover the
//! journal and apply every mutation to a fresh overlay — the restart path)
//! and **compact** (fold the overlay into a new CFKG1 store, atomic
//! tmp+rename). The overlay's base is the store loaded by `read_store`, as
//! `cfkg serve` loads it.
//!
//! The 15K-entity arm always runs; the 1M-entity arm is gated behind
//! `CF_BENCH_KG_LARGE=1` (same convention as `kg_retrieval`). Rows merge
//! into `results/BENCH_kg.json` keyed on scale+metric, so this bench and
//! `kg_retrieval` share the file without clobbering each other.

use cf_kg::journal::{recover_file, JournalWriter};
use cf_kg::synth::{large_sim, LargeScale};
use cf_kg::{read_store, write_store, EntityId, GraphView, Mutation, OverlayGraph, RelationId};
use cf_rand::rngs::StdRng;
use cf_rand::SeedableRng;
use cf_serve::dirty_entities;
use chainsformer_bench::report::{write_json_merged, Table};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Hops for the invalidation BFS — the paper's chain-length budget
/// (`max_hops = 3`), which is what a serving engine built from the default
/// reasoning setting uses.
const INVALIDATE_HOPS: usize = 3;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cf_bench_mut_{}_{}", std::process::id(), name));
    p
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Per-op latencies in microseconds, sorted; (p50, p99) picked by rank.
fn percentiles(mut lat_us: Vec<f64>) -> (f64, f64) {
    lat_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pick = |q: f64| lat_us[((lat_us.len() - 1) as f64 * q).round() as usize];
    (pick(0.50), pick(0.99))
}

/// One upsert per sampled evidence-bearing entity, spread across the id
/// range, plus an add-entity + add-edge pair every fourth slot (the mix a
/// live feed produces: mostly value updates, occasionally new nodes).
fn sample_mutations(g: &impl GraphView, n: usize) -> Vec<Mutation> {
    let stride = (g.num_entities() / n.max(1)).max(1);
    let rel0 = g.relation_name(RelationId(0)).to_string();
    let mut out = Vec::with_capacity(n + n / 4 * 2);
    let mut e = 0usize;
    while out.len() < n && e < g.num_entities() {
        let ent = EntityId(e as u32);
        if let Some(f) = g.numerics_of(ent).first() {
            let name = g.entity_name(ent).to_string();
            out.push(Mutation::UpsertNumeric {
                entity: name.clone(),
                attr: g.attribute_name(f.attr).to_string(),
                value: f.value + 1.0,
            });
            if out.len() % 4 == 0 {
                let fresh = format!("bench_mut_{e}");
                out.push(Mutation::AddEntity {
                    name: fresh.clone(),
                });
                out.push(Mutation::AddEdge {
                    head: fresh,
                    rel: rel0.clone(),
                    tail: name,
                });
            }
        }
        e += stride;
    }
    out
}

fn run_scale(label: &str, scale: LargeScale, samples: usize) -> Vec<(String, f64, &'static str)> {
    let mut rows: Vec<(String, f64, &'static str)> = Vec::new();
    let mut push = |metric: &str, value: f64, unit: &'static str| {
        println!("[{label}] {metric:<28} {value:>12.3} {unit}");
        rows.push((metric.to_string(), value, unit));
    };

    let g = large_sim(scale, &mut StdRng::seed_from_u64(7));
    let store_path = tmp(&format!("{label}.cfkg"));
    write_store(&g, &store_path).unwrap();
    drop(g);
    let base = read_store(&store_path).unwrap();
    push("entities", base.num_entities() as f64, "n");

    let muts = sample_mutations(&base, samples);
    assert!(!muts.is_empty(), "no evidence-bearing entities sampled");
    push("mutations", muts.len() as f64, "n");
    push("invalidate_hops", INVALIDATE_HOPS as f64, "n");

    // --- per-mutation: journal fsync, overlay apply, invalidation BFS ---
    let journal_path = tmp(&format!("{label}.cfj"));
    let _ = std::fs::remove_file(&journal_path);
    let (mut journal, _) = JournalWriter::open(&journal_path).unwrap();
    let mut overlay = OverlayGraph::new(base);
    let mut journal_us = Vec::with_capacity(muts.len());
    let mut apply_us = Vec::with_capacity(muts.len());
    let mut bfs_us = Vec::with_capacity(muts.len());
    let mut dirty_total = 0usize;
    for m in &muts {
        let t = Instant::now();
        journal.append(m);
        journal.commit().unwrap();
        journal_us.push(secs(t) * 1e6);

        let t = Instant::now();
        let outcome = overlay.apply(m);
        apply_us.push(secs(t) * 1e6);

        let t = Instant::now();
        let dirty = dirty_entities(&overlay, &outcome.touched, INVALIDATE_HOPS);
        bfs_us.push(secs(t) * 1e6);
        dirty_total += dirty.len();
        std::hint::black_box(dirty.len());
    }
    let (p50, p99) = percentiles(journal_us);
    push("journal_commit_p50_us", p50, "us");
    push("journal_commit_p99_us", p99, "us");
    let (p50, p99) = percentiles(apply_us);
    push("overlay_apply_p50_us", p50, "us");
    push("overlay_apply_p99_us", p99, "us");
    let (p50, p99) = percentiles(bfs_us);
    push("invalidate_bfs_p50_us", p50, "us");
    push("invalidate_bfs_p99_us", p99, "us");
    push("dirty_mean", dirty_total as f64 / muts.len() as f64, "n");

    // --- restart path: recover the journal, re-apply onto a fresh base ---
    let t = Instant::now();
    let recovery = recover_file(&journal_path).unwrap();
    let mut replayed = OverlayGraph::new(read_store(&store_path).unwrap());
    replayed.apply_all(&recovery.mutations);
    push("replay_s", secs(t), "s");
    assert_eq!(recovery.mutations.len(), muts.len());
    assert_eq!(replayed.mutations_applied(), overlay.mutations_applied());

    // --- compaction: fold the overlay into a new store, atomically ---
    let compact_path = tmp(&format!("{label}_compacted.cfkg"));
    let t = Instant::now();
    overlay.compact_to(&compact_path).unwrap();
    push("compact_s", secs(t), "s");
    push(
        "compact_bytes",
        std::fs::metadata(&compact_path).unwrap().len() as f64,
        "B",
    );

    for p in [&store_path, &journal_path, &compact_path] {
        let _ = std::fs::remove_file(p);
    }
    rows
}

fn main() {
    let samples: usize = std::env::var("CF_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    let mut arms: Vec<(&str, LargeScale, usize)> = vec![("15k", LargeScale::smoke(), 8 * samples)];
    if std::env::var("CF_BENCH_KG_LARGE").is_ok() {
        arms.push(("1m", LargeScale::million(), 8 * samples));
    } else {
        println!("CF_BENCH_KG_LARGE not set: skipping the 1M-entity arm");
    }

    // Shared with `kg_retrieval` — both benches merge rows into
    // `BENCH_kg.json`, and the merge stamps the last writer's title, so the
    // title must describe the union.
    let mut table = Table::new(
        "graph store + chain index: load/retrieval latency and live-mutation cost \
         (store vs TSV, indexed vs walk, journal/overlay/invalidation)",
        &["scale", "metric", "value", "unit"],
    );
    for (label, scale, samples) in arms {
        for (metric, value, unit) in run_scale(label, scale, samples) {
            table.row(vec![
                label.to_string(),
                metric,
                if unit == "n" || unit == "B" {
                    format!("{value:.0}")
                } else {
                    format!("{value:.3}")
                },
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
