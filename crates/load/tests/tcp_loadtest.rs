//! Run-to-run determinism of the TCP harness itself: the same plan driven
//! twice against the same server yields identical canonical dumps and the
//! same outcome counts, including when the plan mixes in hot-reloads.
//! (Reload requests re-validate the same checkpoint; the swap is
//! idempotent, so answers never depend on how many reloads preceded them.)

use cf_check::TempDir;
use cf_kg::synth::{yago15k_sim, SynthScale};
use cf_kg::{GraphView, Split};
use cf_load::{build_plan, canonical_dump, render_events, run_tcp, PlanConfig};
use cf_rand::rngs::StdRng;
use cf_rand::SeedableRng;
use cf_serve::{Engine, EngineConfig};
use chainsformer::{ChainsFormer, ChainsFormerConfig};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[test]
fn identical_plans_give_identical_dumps_and_reports() {
    let mut rng = StdRng::seed_from_u64(17);
    let g = yago15k_sim(SynthScale::small(), &mut rng);
    let split = Split::paper_811(&g, &mut rng);
    let visible = split.visible_graph(&g);
    let model = ChainsFormer::new(&visible, &split.train, ChainsFormerConfig::tiny(), &mut rng);

    let dir = TempDir::new("tcp_load");
    let ckpt = dir.join("same.ckpt");
    model.save_params_to(&ckpt).unwrap();

    let num_entities = GraphView::num_entities(&visible);
    let num_attributes = GraphView::num_attributes(&visible);
    let engine = Arc::new(Engine::new(
        model,
        visible.clone(),
        EngineConfig {
            shards: 2,
            ..EngineConfig::default()
        },
    ));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let server = {
        let engine = Arc::clone(&engine);
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || cf_serve::run(engine, listener, shutdown).unwrap())
    };

    let plan = build_plan(
        num_entities,
        num_attributes,
        &PlanConfig {
            rate_hz: 2000.0,
            requests: 100,
            warmup: 20,
            zipf_s: 1.0,
            reload_every: 48,
            mutate_every: 0,
            seed: 5,
            ..PlanConfig::default()
        },
    );
    let events = render_events(&plan, &visible, None, ckpt.to_str());
    assert!(events.iter().any(|e| e.is_reload), "plan must mix reloads");

    let first = run_tcp(&addr, &events, 4).unwrap();
    let second = run_tcp(&addr, &events, 4).unwrap();

    for run in [&first, &second] {
        let r = &run.report;
        assert_eq!(r.sent, events.len() as u64);
        assert_eq!(r.errors, 0, "unexpected errors: {}", r.render());
        assert_eq!(r.shed + r.deadline_missed, 0, "light load must not shed");
        assert_eq!(r.reloads_rejected, 0);
        assert_eq!(r.ok + r.reloads_ok, r.sent);
        assert_eq!(r.measured, 100);
        assert_eq!(r.latency.count(), 100);
        assert!(r.qps > 0.0 && r.elapsed_s > 0.0);
    }
    assert_eq!(
        canonical_dump(&first.responses),
        canonical_dump(&second.responses),
        "same plan, same server — dumps must be byte-identical"
    );

    // The server's per-shard counters saw the traffic on both shards.
    let m = engine.metrics();
    let per_shard: Vec<u64> = (0..engine.shards())
        .map(|s| m.shard(s).requests.load(Ordering::Relaxed))
        .collect();
    assert!(
        per_shard.iter().all(|&c| c > 0),
        "zipfian stream left a shard idle: {per_shard:?}"
    );

    shutdown.store(true, Ordering::SeqCst);
    server.join().unwrap();
}
