//! Train once, save the model, load it into a fresh process-equivalent
//! model and keep serving predictions — plus the chain-quality pruning
//! extension in action.
//!
//! ```bash
//! cargo run --release --example checkpointing
//! ```

use cf_chains::Query;
use cf_kg::synth::{yago15k_sim, SynthScale};
use cf_kg::Split;
use cf_rand::SeedableRng;
use chainsformer::{evaluate_model, ChainsFormer, ChainsFormerConfig, Trainer};

fn main() {
    let cfg = ChainsFormerConfig {
        epochs: 10,
        chain_quality: true, // §VI future-work extension: prune bad patterns
        ..ChainsFormerConfig::tiny()
    };

    // Train.
    let mut rng = cf_rand::rngs::StdRng::seed_from_u64(21);
    let graph = yago15k_sim(SynthScale::small(), &mut rng);
    let split = Split::paper_811(&graph, &mut rng);
    let visible = split.visible_graph(&graph);
    let mut model = ChainsFormer::new(&visible, &split.train, cfg.clone(), &mut rng);
    Trainer::new(&mut model, &visible).train(&split, &mut rng);
    let report = evaluate_model(&model, &visible, &split.test, &mut rng);
    println!("trained model: test normalized MAE {:.4}", report.norm_mae);
    if let Some(q) = &model.quality {
        println!(
            "chain-quality tracker learned {} RA-Chain patterns",
            q.len()
        );
    }

    // Save.
    let path = std::env::temp_dir().join("chainsformer_demo.ckpt");
    model.save_params_to(&path).expect("save checkpoint");
    println!("saved checkpoint to {}", path.display());

    // Load as a fresh process would. The served graph is rebuilt from the
    // same graph and seed; the file brings the weights and what training
    // fitted (filter, normalizer, fallback means), so nothing is re-fitted.
    let mut rng2 = cf_rand::rngs::StdRng::seed_from_u64(21);
    let graph2 = yago15k_sim(SynthScale::small(), &mut rng2);
    let split2 = Split::paper_811(&graph2, &mut rng2);
    let visible2 = split2.visible_graph(&graph2);
    let served = ChainsFormer::load(&path, cfg, &visible2).expect("load checkpoint");
    std::fs::remove_file(&path).ok();

    // Same query, same RNG stream → same answer from the reloaded model.
    let t = split.test[0];
    let q = Query {
        entity: t.entity,
        attr: t.attr,
    };
    let mut ra = cf_rand::rngs::StdRng::seed_from_u64(77);
    let mut rb = cf_rand::rngs::StdRng::seed_from_u64(77);
    let a = model.predict(&visible, q, &mut ra);
    let b = served.predict(&visible2, q, &mut rb);
    println!("original model predicts {:.3}", a.value);
    println!("reloaded model predicts {:.3}", b.value);
    assert_eq!(a.value, b.value, "checkpoint round-trip must be exact");
    println!("round-trip exact ✓");
}
