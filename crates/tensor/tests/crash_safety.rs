//! Crash-safety properties of the checkpoint substrate, driven by the
//! cf-check fault-injection tools:
//!
//! 1. the save path survives a write fault at **every byte offset**
//!    (loud error or silent truncation) without panicking, and whatever
//!    landed on disk is rejected by the loader with a typed error;
//! 2. the atomic save protocol leaves **old-or-new, never garbage**: every
//!    on-disk state a crash can produce loads to exactly the old params or
//!    exactly the new ones;
//! 3. garbage and adversarial headers (fuzzed with cf-rand) produce typed
//!    errors with bounded allocation — never a panic, never an OOM abort.

use cf_check::fault::{crash_states, FaultMode, FaultyWriter};
use cf_check::TempDir;
use cf_rand::rngs::StdRng;
use cf_rand::{Rng, RngCore, SeedableRng};
use cf_tensor::{
    crc32, load_checkpoint, load_params, save_checkpoint, save_checkpoint_atomic, AdamSnapshot,
    CheckpointError, ParamStore, Tensor, TrainState,
};

fn store(fill: f32) -> ParamStore {
    let mut ps = ParamStore::new();
    ps.add(
        "enc.w",
        Tensor::new([3, 4], (0..12).map(|i| fill + i as f32 * 0.25).collect()),
    );
    ps.add("enc.b", Tensor::vector(&[fill, -fill, 0.5]));
    ps.add("head", Tensor::scalar(fill * 2.0));
    ps
}

fn state_for(ps: &ParamStore, tag: u64) -> TrainState {
    TrainState {
        adam: AdamSnapshot {
            step: tag,
            m: vec![Some(Tensor::new([3, 4], vec![0.01; 12])), None, None],
            v: vec![Some(Tensor::new([3, 4], vec![0.02; 12])), None, None],
        },
        rng: [tag, tag ^ 1, tag ^ 2, tag ^ 3],
        next_epoch: tag,
        bad_epochs: 0,
        best_epoch: Some(tag),
        best_val: Some(0.25),
        config_fingerprint: 0x5EED,
        best_params: Some(ps.clone()),
    }
}

fn encode(ps: &ParamStore, tag: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    save_checkpoint(ps, Some(&state_for(ps, tag)), &mut buf).unwrap();
    buf
}

/// A params-only CFT2 stream around a hand-built params `body`, sealed with
/// valid section and footer CRCs so the body reaches its parser's caps.
fn sealed_params(body: &[u8]) -> Vec<u8> {
    let crc = crc32(body).to_le_bytes();
    let mut b = b"CFT2".to_vec();
    b.push(0x01);
    b.extend_from_slice(&(body.len() as u64).to_le_bytes());
    b.extend_from_slice(body);
    b.extend_from_slice(&crc);
    b.push(0xFF);
    b.extend_from_slice(&crc32(&crc).to_le_bytes());
    b
}

fn params_bits(ps: &ParamStore) -> Vec<u32> {
    ps.iter()
        .flat_map(|(_, _, t)| t.data().iter().map(|x| x.to_bits()))
        .collect()
}

#[test]
fn save_survives_write_faults_at_every_offset() {
    let src = store(1.0);
    let full = encode(&src, 9);
    for cut in 0..full.len() {
        // Loud failure: the save must surface the io error, not panic.
        let mut w = FaultyWriter::new(Vec::new(), cut, FaultMode::Error);
        let err = save_checkpoint(&src, Some(&state_for(&src, 9)), &mut w)
            .expect_err("budgeted writer must fail the save");
        assert_eq!(err.kind(), std::io::ErrorKind::Other, "cut {cut}");

        // Silent truncation: save "succeeds", but what's on disk is a bare
        // prefix — the loader must reject it with a typed error.
        let mut w = FaultyWriter::new(Vec::new(), cut, FaultMode::Truncate);
        save_checkpoint(&src, Some(&state_for(&src, 9)), &mut w)
            .expect("truncate mode reports success");
        let survived = w.into_inner();
        assert_eq!(&survived[..], &full[..cut], "prefix property violated");
        let mut dst = store(0.0);
        let before = params_bits(&dst);
        let err = load_checkpoint(&mut dst, &survived[..])
            .expect_err(&format!("cut {cut}: truncated stream accepted"));
        assert!(
            matches!(
                err,
                CheckpointError::Io(_)
                    | CheckpointError::Corrupt(_)
                    | CheckpointError::BadCrc { .. }
                    | CheckpointError::BadMagic
            ),
            "cut {cut}: {err}"
        );
        assert_eq!(params_bits(&dst), before, "cut {cut}: store was tainted");
    }
}

#[test]
fn atomic_protocol_always_recovers_old_or_new() {
    let old_store = store(1.0);
    let new_store = store(-7.0);
    let old_bytes = encode(&old_store, 1);
    let new_bytes = encode(&new_store, 2);
    let old_bits = params_bits(&old_store);
    let new_bits = params_bits(&new_store);

    let dir = TempDir::new("crash_old_or_new");
    let path = dir.join("model.ckpt");
    let tmp = dir.join("model.ckpt.tmp");

    for cs in crash_states(Some(&old_bytes), &new_bytes) {
        // Materialize exactly the state the crash left behind.
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&tmp);
        if let Some(b) = &cs.path_bytes {
            std::fs::write(&path, b).unwrap();
        }
        if let Some(b) = &cs.tmp_bytes {
            std::fs::write(&tmp, b).unwrap();
        }

        // Recovery is just "open the final path": the protocol guarantees
        // it holds a complete checkpoint. The stale tmp is inert.
        let mut loaded = store(0.0);
        let f = std::fs::File::open(&path).unwrap();
        load_checkpoint(&mut loaded, std::io::BufReader::new(f))
            .unwrap_or_else(|e| panic!("{}: final path unreadable: {e}", cs.label));
        let bits = params_bits(&loaded);
        assert!(
            bits == old_bits || bits == new_bits,
            "{}: recovered params are neither old nor new",
            cs.label
        );

        // And the next save must clobber the stale tmp and land cleanly.
        save_checkpoint_atomic(&new_store, None, &path)
            .unwrap_or_else(|e| panic!("{}: post-crash save failed: {e}", cs.label));
        assert!(
            !tmp.exists(),
            "{}: stale tmp survived the next save",
            cs.label
        );
        let mut after = store(0.0);
        let f = std::fs::File::open(&path).unwrap();
        load_checkpoint(&mut after, std::io::BufReader::new(f)).unwrap();
        assert_eq!(params_bits(&after), new_bits, "{}", cs.label);
    }
}

#[test]
fn fuzzed_garbage_headers_never_panic_or_overallocate() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut rejected = 0usize;
    for case in 0..2000 {
        let len = rng.gen_range(0usize..512);
        let mut buf = vec![0u8; len];
        rng.fill_bytes(&mut buf);
        // Half the cases get a valid magic so parsing reaches the length
        // fields — the satellite's actual attack surface: u32/u64 counts
        // trusted before sanity checks used to drive Vec::with_capacity.
        if case % 4 < 2 && len >= 4 {
            buf[..4].copy_from_slice(b"CFT2");
        }
        let mut dst = store(3.0);
        if load_checkpoint(&mut dst, &buf[..]).is_err() {
            rejected += 1;
        }
    }
    // Random bytes forming a valid checkpoint for this exact store is
    // astronomically unlikely; every case must have been rejected.
    assert_eq!(rejected, 2000);
}

#[test]
fn adversarial_length_fields_fail_fast_not_oom() {
    // Hand-built hostile streams: plausible structure, absurd counts. Each
    // must return a typed error without attempting the implied allocation
    // (multi-GB) — run under a memory limit these would abort, not error.
    let mut dst = store(0.0);

    // A params body claiming u32::MAX params.
    let err = load_params(&mut dst, &sealed_params(&u32::MAX.to_le_bytes())[..]).unwrap_err();
    assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");

    // A params body with a 4 GiB name length.
    let mut body = 3u32.to_le_bytes().to_vec();
    body.extend_from_slice(&u32::MAX.to_le_bytes());
    let err = load_params(&mut dst, &sealed_params(&body)[..]).unwrap_err();
    assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");

    // CFT2 section announcing a body far beyond the section cap.
    let mut b = b"CFT2".to_vec();
    b.push(0x01);
    b.extend_from_slice(&u64::MAX.to_le_bytes());
    let err = load_checkpoint(&mut dst, &b[..]).unwrap_err();
    assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");

    // CFT2 section with a large-but-under-cap length and no data behind
    // it: the chunked reader must hit EOF, not pre-reserve the claim.
    let mut b = b"CFT2".to_vec();
    b.push(0x01);
    b.extend_from_slice(&(1u64 << 30).to_le_bytes());
    b.extend_from_slice(&[0u8; 64]);
    let err = load_checkpoint(&mut dst, &b[..]).unwrap_err();
    assert!(matches!(err, CheckpointError::Io(_)), "{err}");
}
