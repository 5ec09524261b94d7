//! The crash-safety contract, end to end: (train, crash, resume) must
//! reproduce the uninterrupted run's trajectory bit for bit.
//!
//! The "crash" is `TrainOptions::stop_after_epochs`, which returns right
//! after the epoch-boundary checkpoint lands on disk and skips the
//! best-restore/final-save a killed process would never have reached —
//! byte-for-byte what `kill -9` leaves behind (the ci.sh smoke test does
//! the real kill).

use cf_check::TempDir;
use cf_kg::synth::{yago15k_sim, SynthScale};
use cf_kg::Split;
use cf_rand::rngs::StdRng;
use cf_rand::SeedableRng;
use chainsformer::config::ChainsFormerConfig;
use chainsformer::model::ChainsFormer;
use chainsformer::train::{TrainError, TrainOptions, Trainer};

fn cfg(epochs: usize) -> ChainsFormerConfig {
    ChainsFormerConfig {
        epochs,
        ..ChainsFormerConfig::tiny()
    }
}

/// Deterministic world + freshly initialized model for a given seed.
fn setup(
    cfg: &ChainsFormerConfig,
    seed: u64,
) -> (cf_kg::KnowledgeGraph, Split, ChainsFormer, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = yago15k_sim(SynthScale::small(), &mut rng);
    let split = Split::paper_811(&g, &mut rng);
    let visible = split.visible_graph(&g);
    let model = ChainsFormer::new(&visible, &split.train, cfg.clone(), &mut rng);
    (visible, split, model, rng)
}

/// A fresh directory (removed on drop) and the checkpoint path inside it.
fn tmp_ckpt(tag: &str) -> (TempDir, std::path::PathBuf) {
    let dir = TempDir::new(&format!("resume_{tag}"));
    let ckpt = dir.join("train.ckpt");
    (dir, ckpt)
}

fn assert_params_bitwise_equal(a: &cf_tensor::ParamStore, b: &cf_tensor::ParamStore) {
    for ((_, name, ta), (_, _, tb)) in a.iter().zip(b.iter()) {
        assert_eq!(ta.shape(), tb.shape(), "{name}: shape diverged");
        for (i, (x, y)) in ta.data().iter().zip(tb.data()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{name}[{i}]: {x} vs {y} — resumed run diverged"
            );
        }
    }
}

#[test]
fn crash_and_resume_matches_uninterrupted_run_bitwise() {
    let cfg = cfg(5);
    let (_dir, ckpt) = tmp_ckpt("parity");

    // Control: 5 epochs straight through, no checkpointing at all (proves
    // checkpoint writes themselves don't perturb the trajectory).
    let (visible, split, mut control, mut rng) = setup(&cfg, 42);
    let control_result = Trainer::new(&mut control, &visible).train(&split, &mut rng);

    // Crashed run: same world, crash after epoch 2's checkpoint.
    let (visible2, split2, mut crashed, mut rng2) = setup(&cfg, 42);
    let first = Trainer::new(&mut crashed, &visible2)
        .train_opts(
            &split2,
            &mut rng2,
            &TrainOptions {
                checkpoint_path: Some(ckpt.clone()),
                stop_after_epochs: Some(2),
                ..TrainOptions::default()
            },
        )
        .unwrap();
    assert!(first.interrupted);
    assert_eq!(first.epochs.len(), 2);

    // Resume in a *fresh process image*: new model from the same seed, new
    // RNG whose position is irrelevant (resume rewinds it from the file).
    let (visible3, split3, mut resumed, _) = setup(&cfg, 42);
    let mut stale_rng = StdRng::seed_from_u64(999);
    let second = Trainer::new(&mut resumed, &visible3)
        .train_opts(
            &split3,
            &mut stale_rng,
            &TrainOptions {
                checkpoint_path: Some(ckpt.clone()),
                resume: true,
                ..TrainOptions::default()
            },
        )
        .unwrap();
    assert!(!second.interrupted);

    // Trajectory: epochs 3..5 of the resumed run must equal the control's,
    // to the last bit of the loss.
    assert_eq!(second.epochs.first().unwrap().epoch, 2);
    for (c, r) in control_result.epochs[2..].iter().zip(&second.epochs) {
        assert_eq!(c.epoch, r.epoch);
        assert_eq!(
            c.train_loss.to_bits(),
            r.train_loss.to_bits(),
            "epoch {}: control loss {} vs resumed {}",
            c.epoch,
            c.train_loss,
            r.train_loss
        );
        assert_eq!(
            c.valid_mae.map(f64::to_bits),
            r.valid_mae.map(f64::to_bits),
            "epoch {}: validation diverged",
            c.epoch
        );
        assert_eq!(c.skipped, r.skipped);
    }
    assert_eq!(control_result.best_epoch, second.best_epoch);
    assert_params_bitwise_equal(&control.params, &resumed.params);
}

#[test]
fn resume_refuses_config_mismatch_and_finished_runs() {
    let (_dir, ckpt) = tmp_ckpt("refuse");
    let cfg5 = cfg(3);
    let (visible, split, mut model, mut rng) = setup(&cfg5, 7);
    Trainer::new(&mut model, &visible)
        .train_opts(
            &split,
            &mut rng,
            &TrainOptions {
                checkpoint_path: Some(ckpt.clone()),
                stop_after_epochs: Some(1),
                ..TrainOptions::default()
            },
        )
        .unwrap();

    // Different config (lr changed) → fingerprint mismatch.
    let mut other_cfg = cfg5.clone();
    other_cfg.lr *= 2.0;
    let (visible2, split2, mut model2, mut rng2) = setup(&other_cfg, 7);
    let err = Trainer::new(&mut model2, &visible2)
        .train_opts(
            &split2,
            &mut rng2,
            &TrainOptions {
                checkpoint_path: Some(ckpt.clone()),
                resume: true,
                ..TrainOptions::default()
            },
        )
        .unwrap_err();
    assert!(matches!(err, TrainError::ConfigMismatch { .. }), "{err}");

    // Finish the run; the final artifact is params-only and not resumable.
    let (visible3, split3, mut model3, mut rng3) = setup(&cfg5, 7);
    Trainer::new(&mut model3, &visible3)
        .train_opts(
            &split3,
            &mut rng3,
            &TrainOptions {
                checkpoint_path: Some(ckpt.clone()),
                resume: true,
                ..TrainOptions::default()
            },
        )
        .unwrap();
    let (visible4, split4, mut model4, mut rng4) = setup(&cfg5, 7);
    let err = Trainer::new(&mut model4, &visible4)
        .train_opts(
            &split4,
            &mut rng4,
            &TrainOptions {
                checkpoint_path: Some(ckpt.clone()),
                resume: true,
                ..TrainOptions::default()
            },
        )
        .unwrap_err();
    assert!(matches!(err, TrainError::NotResumable), "{err}");
}

/// No checkpoint holds the chain-quality tracker, so a resumed
/// `chain_quality` run would restart it empty and leave the uninterrupted
/// trajectory: the trainer refuses to resume one, naming the tracker.
#[test]
fn resume_refuses_chain_quality_runs() {
    let (_dir, ckpt) = tmp_ckpt("quality");
    let cfg = ChainsFormerConfig {
        chain_quality: true,
        ..cfg(3)
    };
    let (visible, split, mut model, mut rng) = setup(&cfg, 11);
    Trainer::new(&mut model, &visible)
        .train_opts(
            &split,
            &mut rng,
            &TrainOptions {
                checkpoint_path: Some(ckpt.clone()),
                stop_after_epochs: Some(1),
                ..TrainOptions::default()
            },
        )
        .unwrap();

    let (visible2, split2, mut model2, mut rng2) = setup(&cfg, 11);
    let err = Trainer::new(&mut model2, &visible2)
        .train_opts(
            &split2,
            &mut rng2,
            &TrainOptions {
                checkpoint_path: Some(ckpt.clone()),
                resume: true,
                ..TrainOptions::default()
            },
        )
        .unwrap_err();
    assert!(matches!(err, TrainError::QualityNotResumable), "{err}");
    assert!(err.to_string().contains("chain-quality tracker"), "{err}");
}

#[test]
fn interrupt_flag_stops_training_and_ships_best_params() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let (_dir, ckpt) = tmp_ckpt("interrupt");
    let cfg = cfg(4);
    let (visible, split, mut model, mut rng) = setup(&cfg, 11);
    // Raised before training starts: the first batch check trips, so zero
    // epochs run — and the final save must still produce a loadable file.
    let flag = Arc::new(AtomicBool::new(true));
    let result = Trainer::new(&mut model, &visible)
        .train_opts(
            &split,
            &mut rng,
            &TrainOptions {
                checkpoint_path: Some(ckpt.clone()),
                interrupt: Some(flag.clone()),
                ..TrainOptions::default()
            },
        )
        .unwrap();
    assert!(result.interrupted);
    assert!(result.epochs.is_empty());
    flag.store(false, Ordering::Relaxed);

    let (_, _, mut fresh, _) = setup(&cfg, 11);
    fresh.load_params_from(&ckpt).unwrap();
    assert_params_bitwise_equal(&model.params, &fresh.params);
}
