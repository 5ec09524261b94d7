//! The routing invariant, end to end over TCP: a fixed query stream gets
//! byte-identical responses from servers running 1, 2, and 4 shards — and
//! stays identical across a mid-stream coordinated hot-reload, because
//! every shard swaps to the same checkpoint all-or-nothing. The reloaded
//! file was fitted under another seed, so the reload swaps the filter too,
//! and the servers then answer exactly as a fresh one over that file.
//!
//! Responses are compared through [`cf_load::canonical_dump`] (event-id
//! order, timing-dependent `micros` stripped): anything that differs —
//! a value bit, a fallback flag, a retrieved count — fails the diff.

use cf_check::TempDir;
use cf_kg::synth::{yago15k_sim, SynthScale};
use cf_kg::{GraphView, KnowledgeGraph, Split};
use cf_load::{build_plan, canonical_dump, render_events, run_tcp, PlanConfig};
use cf_rand::rngs::StdRng;
use cf_rand::SeedableRng;
use cf_serve::{Engine, EngineConfig};
use chainsformer::{ChainsFormer, ChainsFormerConfig};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Runs `run` against `engine` served over TCP on an ephemeral port, then
/// stops the server.
fn serve<T>(engine: &Arc<Engine>, run: impl FnOnce(&str) -> T) -> T {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let server = {
        let engine = Arc::clone(engine);
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || cf_serve::run(engine, listener, shutdown).unwrap())
    };
    let out = run(&addr);
    shutdown.store(true, Ordering::SeqCst);
    server.join().unwrap();
    out
}

fn fixture() -> (KnowledgeGraph, ChainsFormer, ChainsFormer) {
    let mut rng = StdRng::seed_from_u64(17);
    let g = yago15k_sim(SynthScale::small(), &mut rng);
    let split = Split::paper_811(&g, &mut rng);
    let visible = split.visible_graph(&g);
    let model_a = ChainsFormer::new(&visible, &split.train, ChainsFormerConfig::tiny(), &mut rng);
    // Same architecture, different weights: reloading B mid-stream must
    // visibly change answers, identically at every shard count.
    let mut rng_b = StdRng::seed_from_u64(9001);
    let model_b = ChainsFormer::new(
        &visible,
        &split.train,
        ChainsFormerConfig::tiny(),
        &mut rng_b,
    );
    (visible, model_a, model_b)
}

#[test]
fn responses_are_byte_identical_at_shard_counts_1_2_4_across_reload() {
    let (visible, model_a, model_b) = fixture();
    let dir = TempDir::new("shard_det");
    let b_ckpt = dir.join("b.ckpt");
    model_b.save_params_to(&b_ckpt).unwrap();

    let plan = build_plan(
        GraphView::num_entities(&visible),
        GraphView::num_attributes(&visible),
        &PlanConfig {
            rate_hz: 2000.0,
            requests: 120,
            warmup: 0,
            zipf_s: 1.0,
            seed: 23,
            ..PlanConfig::default()
        },
    );
    let events = render_events(&plan, &visible, None, None);

    let mut dumps = Vec::new();
    for shards in [1usize, 2, 4] {
        let engine = Arc::new(Engine::new(
            model_a.clone(),
            visible.clone(),
            EngineConfig {
                shards,
                ..EngineConfig::default()
            },
        ));
        assert_eq!(engine.shards(), shards);

        // Phase A on the original model, a coordinated reload to B (the
        // same admin path `{"reload": …}` reaches), then the *same* plan
        // again: identical ids make the two phases directly comparable.
        let (a, b) = serve(&engine, |addr| {
            let phase_a = run_tcp(addr, &events, 4).unwrap();
            assert_eq!(phase_a.report.ok, events.len() as u64, "phase A had errors");
            engine.reload(&b_ckpt).expect("coordinated reload");
            let phase_b = run_tcp(addr, &events, 4).unwrap();
            assert_eq!(phase_b.report.ok, events.len() as u64, "phase B had errors");
            (
                canonical_dump(&phase_a.responses),
                canonical_dump(&phase_b.responses),
            )
        });
        assert_ne!(a, b, "reload to fresh weights must change answers");
        dumps.push((shards, a, b));
    }

    let (_, a1, b1) = &dumps[0];
    for (shards, a, b) in &dumps[1..] {
        assert_eq!(a, a1, "pre-reload responses diverge at {shards} shards");
        assert_eq!(b, b1, "post-reload responses diverge at {shards} shards");
    }

    // A server started on B's file answers as the reloaded ones did.
    let fresh = Arc::new(Engine::new(
        ChainsFormer::load(&b_ckpt, ChainsFormerConfig::tiny(), &visible).unwrap(),
        visible.clone(),
        EngineConfig::default(),
    ));
    let b_fresh = serve(&fresh, |addr| {
        canonical_dump(&run_tcp(addr, &events, 4).unwrap().responses)
    });
    assert_eq!(
        &b_fresh, b1,
        "reloaded servers differ from a fresh one on B"
    );
}
