//! Accuracy gate for the int8 inference path (ISSUE 9).
//!
//! The bitstream value encoding makes the numeric heads precision-sensitive,
//! so quantized serving is only shippable if its accuracy cost is pinned, not
//! assumed. This gate trains a small model on the simulated twins, resolves
//! one shared set of evidence chains, runs the identical batch through the
//! f32 path (an [`InferCtx`]) and the quantized path (an `InferCtx` with the
//! int8 [`QuantizedParamStore`] attached), and
//! asserts the *per-attribute* MAE drift — measured in each attribute's
//! normalized [0, 1] training scale so attributes with wildly different units
//! are comparable — stays under a fixed threshold.
//!
//! Threshold rationale (DESIGN.md §15): per-tensor symmetric int8 bounds each
//! weight's relative error by ~1/254 of its max; through the encoder/reasoner
//! stack (attention, softmax and heads all f32) the observed end-to-end drift
//! on the twins is an order of magnitude under 0.01 normalized MAE. The gate
//! is set at 0.01 — loose enough to survive retuning, tight enough that a
//! broken scale or a saturating kernel (drift ≫ 0.1) can never pass.

use cf_chains::{ChainInstance, Query};
use cf_kg::synth::{yago15k_sim, SynthScale};
use cf_kg::Split;
use cf_rand::rngs::StdRng;
use cf_rand::SeedableRng;
use cf_tensor::{InferCtx, QuantizedParamStore};
use chainsformer::{ChainsFormer, ChainsFormerConfig, ResolvedQuery, Trainer};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Maximum allowed |MAE_int8 − MAE_f32| per attribute, in normalized units.
const MAE_DRIFT_GATE: f64 = 0.01;

fn trained_setup() -> (cf_kg::KnowledgeGraph, Split, ChainsFormer) {
    let mut rng = StdRng::seed_from_u64(23);
    let g = yago15k_sim(SynthScale::small(), &mut rng);
    let split = Split::paper_811(&g, &mut rng);
    let visible = split.visible_graph(&g);
    let cfg = ChainsFormerConfig {
        epochs: 4,
        ..ChainsFormerConfig::tiny()
    };
    let mut model = ChainsFormer::new(&visible, &split.train, cfg, &mut rng);
    Trainer::new(&mut model, &visible).train(&split, &mut rng);
    (visible, split, model)
}

/// Resolves chains once so both paths score the exact same evidence.
fn resolve_jobs<'a>(
    model: &ChainsFormer,
    visible: &cf_kg::KnowledgeGraph,
    split: &Split,
    storage: &'a mut Vec<(Query, Vec<ChainInstance>, usize, f64)>,
) -> Vec<(ResolvedQuery<'a>, f64)> {
    let mut rng = StdRng::seed_from_u64(2323);
    for t in split.test.iter().take(24) {
        let q = Query {
            entity: t.entity,
            attr: t.attr,
        };
        let (toc, retrieved) = model.gather_chains(visible, q, &mut rng);
        storage.push((q, toc.chains, retrieved, t.value));
    }
    storage
        .iter()
        .map(|(q, chains, retrieved, truth)| ((*q, chains.as_slice(), *retrieved), *truth))
        .collect()
}

/// Per-attribute MAE in normalized units over evidence-backed predictions.
fn per_attribute_mae(
    model: &ChainsFormer,
    details: &[chainsformer::PredictionDetail],
    truths: &[f64],
) -> BTreeMap<u32, (f64, usize)> {
    let mut acc: BTreeMap<u32, (f64, usize)> = BTreeMap::new();
    for (d, &truth) in details.iter().zip(truths) {
        if d.used_fallback {
            continue; // identical on both paths: no quantized op runs
        }
        let range = model.normalizer().range(d.query.attr).max(1e-9);
        let e = acc.entry(d.query.attr.0).or_insert((0.0, 0));
        e.0 += (d.value - truth).abs() / range;
        e.1 += 1;
    }
    acc
}

#[test]
fn quantized_per_attribute_mae_drift_is_under_gate() {
    let (visible, split, model) = trained_setup();
    let mut storage = Vec::new();
    let jobs_with_truth = resolve_jobs(&model, &visible, &split, &mut storage);
    let jobs: Vec<ResolvedQuery<'_>> = jobs_with_truth.iter().map(|(j, _)| *j).collect();
    let truths: Vec<f64> = jobs_with_truth.iter().map(|(_, t)| *t).collect();

    let mut fctx = InferCtx::new();
    let f32_details = model.predict_batch_with_chains_in(&jobs, &mut fctx);

    let q = Arc::new(QuantizedParamStore::from_store(&model.params));
    assert!(
        q.num_quantized() >= 4,
        "expected the encoder/reasoner weight matrices to quantize, got {}",
        q.num_quantized()
    );
    let mut qctx = InferCtx::new();
    qctx.set_weights(q);
    let q_details = model.predict_batch_with_chains_in(&jobs, &mut qctx);

    // The quantized path must genuinely diverge bitwise somewhere (otherwise
    // this gate is testing f32 against itself)...
    let any_diff = f32_details
        .iter()
        .zip(&q_details)
        .any(|(a, b)| a.value.to_bits() != b.value.to_bits());
    assert!(any_diff, "quantized path produced f32-identical bits");

    // ...while staying within the per-attribute accuracy budget.
    let f32_mae = per_attribute_mae(&model, &f32_details, &truths);
    let q_mae = per_attribute_mae(&model, &q_details, &truths);
    assert_eq!(
        f32_mae.keys().collect::<Vec<_>>(),
        q_mae.keys().collect::<Vec<_>>(),
        "paths disagreed on which queries are evidence-backed"
    );
    let mut checked = 0;
    for (attr, &(fsum, fcount)) in &f32_mae {
        let (qsum, qcount) = q_mae[attr];
        assert_eq!(fcount, qcount);
        let drift = (qsum / qcount as f64 - fsum / fcount as f64).abs();
        println!("attribute {attr}: normalized MAE drift {drift:?} over {qcount} queries");
        assert!(
            drift <= MAE_DRIFT_GATE,
            "attribute {attr}: normalized MAE drift {drift:.5} exceeds gate {MAE_DRIFT_GATE}"
        );
        checked += 1;
    }
    assert!(checked >= 2, "only {checked} attributes exercised");
}

#[test]
fn quantized_predictions_are_independent_of_batch_composition() {
    // Serving concatenates every batched query's chains into one encoder
    // forward, and micro-batch composition varies with shard count and
    // traffic — so a query's quantized bits must not depend on who shares
    // its batch. The per-row activation scales in the int8 GEMM are what
    // makes this hold (DESIGN.md §15.1).
    let (visible, split, model) = trained_setup();
    let mut storage = Vec::new();
    let jobs_with_truth = resolve_jobs(&model, &visible, &split, &mut storage);
    let jobs: Vec<ResolvedQuery<'_>> = jobs_with_truth.iter().map(|(j, _)| *j).collect();

    let q = Arc::new(QuantizedParamStore::from_store(&model.params));
    let mut ctx = InferCtx::new();
    ctx.set_weights(Arc::clone(&q));
    let together = model.predict_batch_with_chains_in(&jobs, &mut ctx);
    for (i, job) in jobs.iter().enumerate() {
        let solo = model.predict_batch_with_chains_in(&[*job], &mut ctx);
        assert_eq!(
            solo[0].value.to_bits(),
            together[i].value.to_bits(),
            "job {i}: prediction bits depend on batch composition"
        );
    }
}

#[test]
fn quantized_batch_is_bitwise_deterministic_run_to_run() {
    let (visible, split, model) = trained_setup();
    let mut storage = Vec::new();
    let jobs_with_truth = resolve_jobs(&model, &visible, &split, &mut storage);
    let jobs: Vec<ResolvedQuery<'_>> = jobs_with_truth.iter().map(|(j, _)| *j).collect();

    let q = Arc::new(QuantizedParamStore::from_store(&model.params));
    let mut runs: Vec<Vec<u64>> = Vec::new();
    for _ in 0..2 {
        // Fresh context each run: determinism must not depend on arena warmth.
        let mut ctx = InferCtx::new();
        ctx.set_weights(Arc::clone(&q));
        let details = model.predict_batch_with_chains_in(&jobs, &mut ctx);
        runs.push(details.iter().map(|d| d.value.to_bits()).collect());
    }
    assert_eq!(runs[0], runs[1], "quantized predictions varied run-to-run");

    // Rebuilding the quantized store from the same params is also bitwise
    // stable — the property reload rests on (a reload of the same file
    // packs a new twin).
    let q2 = Arc::new(QuantizedParamStore::from_store(&model.params));
    let mut ctx = InferCtx::new();
    ctx.set_weights(q2);
    let details = model.predict_batch_with_chains_in(&jobs, &mut ctx);
    let bits: Vec<u64> = details.iter().map(|d| d.value.to_bits()).collect();
    assert_eq!(runs[0], bits, "re-quantized store changed prediction bits");
}

/// The int8 twin of the default model packs exactly the weights a `linear`
/// reads with at least one register tile of columns: per Transformer layer
/// (two in the encoder, two in the Treeformer) the four attention
/// projections and both feed-forward weights, both layers of the affine
/// transfer's α and β nets, and the first layer of the projection and
/// weight heads — 30 of them. The three embedding tables (`encoder.tokens`,
/// `encoder.positions`, `reasoner.len`) only feed `select_rows` and get no
/// twin.
#[test]
fn default_model_packs_only_linear_weights() {
    let mut rng = StdRng::seed_from_u64(5);
    let g = yago15k_sim(SynthScale::small(), &mut rng);
    let split = Split::paper_811(&g, &mut rng);
    let visible = split.visible_graph(&g);
    let model = ChainsFormer::new(
        &visible,
        &split.train,
        ChainsFormerConfig::default(),
        &mut rng,
    );
    let q = QuantizedParamStore::from_store(&model.params);
    assert_eq!(q.num_quantized(), 30);
    for (id, name, _) in model.params.iter() {
        if q.entry(id.index()).is_some() {
            let linear = name.ends_with(".w") && !model.params.is_table(id);
            assert!(linear, "{name} is not a linear weight");
        }
    }
    for table in ["encoder.tokens", "encoder.positions", "reasoner.len"] {
        let (id, _, _) = model
            .params
            .iter()
            .find(|(_, name, _)| *name == table)
            .expect(table);
        assert!(
            model.params.is_table(id) && q.entry(id.index()).is_none(),
            "{table}"
        );
    }
}
