//! Live-mutation equivalence at the model layer: predictions over an
//! [`OverlayGraph`] (base store + applied mutations) must be bitwise
//! identical to predictions over the *compacted* store holding the same
//! content — at every thread-pool width. This is what makes compaction a
//! pure storage operation: it can never change an answer.

use cf_chains::Query;
use cf_check::TempDir;
use cf_kg::synth::{yago15k_sim, SynthScale};
use cf_kg::{read_store, GraphView, Mutation, OverlayGraph, Split};
use cf_rand::rngs::StdRng;
use cf_rand::SeedableRng;
use cf_tensor::pool::set_threads;
use chainsformer::config::ChainsFormerConfig;
use chainsformer::model::ChainsFormer;

#[test]
fn overlay_and_compacted_store_predict_identically_at_every_width() {
    let mut rng = StdRng::seed_from_u64(17);
    let g = yago15k_sim(SynthScale::small(), &mut rng);
    let split = Split::paper_811(&g, &mut rng);
    let visible = split.visible_graph(&g);
    let model = ChainsFormer::new(&visible, &split.train, ChainsFormerConfig::tiny(), &mut rng);

    // Mutate: overwrite a served fact, add an entity, wire it in. The new
    // entity keeps the base vocabulary (inductive — no retraining needed).
    let q0 = split.test[0];
    let muts = vec![
        Mutation::UpsertNumeric {
            entity: visible.entity_name(q0.entity).to_string(),
            attr: visible.attribute_name(q0.attr).to_string(),
            value: 777.25,
        },
        Mutation::AddEntity {
            name: "overlay_probe".into(),
        },
        Mutation::AddEdge {
            head: "overlay_probe".into(),
            rel: visible.relation_name(cf_kg::RelationId(0)).to_string(),
            tail: visible.entity_name(q0.entity).to_string(),
        },
    ];
    let mut overlay = OverlayGraph::new(visible.clone());
    overlay.apply_all(&muts);

    let dir = TempDir::new("overlay_eq");
    let store_path = dir.join("compacted.cfkg");
    overlay.compact_to(&store_path).expect("compact");
    let compacted = read_store(&store_path).expect("read compacted");

    let probe = overlay.entity_by_name("overlay_probe").expect("added");
    let mut queries: Vec<Query> = split
        .test
        .iter()
        .take(10)
        .map(|t| Query {
            entity: t.entity,
            attr: t.attr,
        })
        .collect();
    queries.push(Query {
        entity: probe,
        attr: q0.attr,
    });

    // One fixed seed per query, consumed identically by both views — the
    // serve engine's RNG discipline.
    fn answer_bits(
        model: &ChainsFormer,
        g: &impl GraphView,
        queries: &[Query],
        label: &str,
    ) -> Vec<u64> {
        queries
            .iter()
            .enumerate()
            .map(|(i, &q)| {
                let mut qrng = StdRng::seed_from_u64(0x0DD5_EED0 + i as u64);
                let d = model.predict(g, q, &mut qrng);
                assert!(d.value.is_finite(), "{label}: query {i} not finite");
                d.value.to_bits()
            })
            .collect()
    }

    let mut answers: Vec<Vec<u64>> = Vec::new();
    for threads in [1usize, 4] {
        set_threads(threads);
        answers.push(answer_bits(&model, &overlay, &queries, "overlay"));
        answers.push(answer_bits(&model, &compacted, &queries, "compacted"));
    }
    set_threads(1);
    // overlay@1 == compacted@1 == overlay@4 == compacted@4, bit for bit.
    for (i, a) in answers.iter().enumerate().skip(1) {
        assert_eq!(
            &answers[0], a,
            "answer set {i} diverged (order: overlay@1, compacted@1, overlay@4, compacted@4)"
        );
    }
    // The upserted fact must actually be visible through both views.
    assert_eq!(overlay.value_of(q0.entity, q0.attr), Some(777.25));
    assert_eq!(compacted.value_of(q0.entity, q0.attr), Some(777.25));
}
