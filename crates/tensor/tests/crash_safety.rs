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
//!
//! The checkpoints carry every section kind, the opaque `model` section
//! included; the last three tests aim the matrices at that section.

use cf_check::fault::{crash_states, FaultMode, FaultyWriter};
use cf_check::TempDir;
use cf_rand::rngs::StdRng;
use cf_rand::{Rng, RngCore, SeedableRng};
use cf_tensor::{
    crc32, load_checkpoint, load_params, save_checkpoint, save_checkpoint_atomic, AdamSnapshot,
    Checkpoint, CheckpointError, ParamStore, Tensor, TrainState,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// [`System`] plus the largest single request made on each thread, so a
/// test can show that no length field drove an allocation.
struct LargestAlloc;

// SAFETY: defers every allocation verbatim to `System`; the bookkeeping is
// an allocation-free `Cell` update (`try_with`, so use during TLS setup or
// teardown is simply not recorded).
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|c| c.set(c.get().max(layout.size())));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = LARGEST.try_with(|c| c.set(c.get().max(new_size)));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// Runs `f` and returns the largest single allocation it made on this
/// thread.
fn largest_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|c| c.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

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

/// An opaque model-section body; cf-tensor never looks inside it.
fn model_body(tag: u64) -> Vec<u8> {
    (0..200u64).map(|i| (i * 31 + tag) as u8).collect()
}

fn encode(ps: &ParamStore, tag: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    save_checkpoint(
        ps,
        Some(&model_body(tag)),
        Some(&state_for(ps, tag)),
        &mut buf,
    )
    .unwrap();
    buf
}

/// Byte range of the model section in `encode(ps, _)`: from its tag byte
/// to the end of its CRC. It follows the magic and the params section.
fn model_range(ps: &ParamStore) -> std::ops::Range<usize> {
    let mut params_only = Vec::new();
    save_checkpoint(ps, None, None, &mut params_only).unwrap();
    let start = params_only.len() - 5; // end tag(1) + footer(4)
    start..start + 1 + 8 + model_body(0).len() + 4
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
        let err = save_checkpoint(
            &src,
            Some(&model_body(9)),
            Some(&state_for(&src, 9)),
            &mut w,
        )
        .expect_err("budgeted writer must fail the save");
        assert_eq!(err.kind(), std::io::ErrorKind::Other, "cut {cut}");

        // Silent truncation: save "succeeds", but what's on disk is a bare
        // prefix — the loader must reject it with a typed error.
        let mut w = FaultyWriter::new(Vec::new(), cut, FaultMode::Truncate);
        save_checkpoint(
            &src,
            Some(&model_body(9)),
            Some(&state_for(&src, 9)),
            &mut w,
        )
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
                CheckpointError::Io { .. }
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
        save_checkpoint_atomic(&new_store, Some(&model_body(2)), None, &path)
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
    assert!(matches!(err, CheckpointError::Io { .. }), "{err}");
}

/// The receiving store, the load's error, and that error's text.
fn load_into_fresh(buf: &[u8]) -> (Vec<u32>, CheckpointError) {
    let mut dst = store(0.0);
    let err = load_checkpoint(&mut dst, buf).expect_err("damaged stream accepted");
    (params_bits(&dst), err)
}

#[test]
fn model_section_round_trips_as_opaque_bytes() {
    let src = store(1.5);
    let ck = Checkpoint::read(&encode(&src, 4)[..]).unwrap();
    assert_eq!(ck.model(), Some(&model_body(4)[..]));
    let (params, state) = ck.decode(store(0.0)).unwrap();
    assert_eq!(params_bits(&params), params_bits(&src));
    assert_eq!(state.expect("state").next_epoch, 4);
}

#[test]
fn truncation_inside_the_model_section_names_it() {
    let src = store(1.0);
    let full = encode(&src, 5);
    let range = model_range(&src);
    let untouched = params_bits(&store(0.0));
    // Every cut from just past the section's tag byte to just past its CRC
    // ends the stream inside (or right after) the model section.
    for cut in range.start + 1..=range.end {
        let (bits, err) = load_into_fresh(&full[..cut]);
        assert!(
            matches!(err, CheckpointError::Io { .. }),
            "cut {cut}: {err}"
        );
        assert!(err.to_string().contains("\"model\""), "cut {cut}: {err}");
        assert_eq!(bits, untouched, "cut {cut}: store was tainted");
    }
}

#[test]
fn byte_flips_in_the_model_section_are_typed_errors_naming_it() {
    let src = store(1.0);
    let full = encode(&src, 6);
    let range = model_range(&src);
    let untouched = params_bits(&store(0.0));
    for pos in range.clone() {
        let mut bad = full.clone();
        bad[pos] ^= 0xFF;
        let (bits, err) = load_into_fresh(&bad);
        assert_eq!(bits, untouched, "flip at {pos}: store was tainted");
        if pos == range.start {
            // The tag byte itself: no longer a known section.
            assert!(
                err.to_string().contains("unknown section tag"),
                "flip at {pos}: {err}"
            );
        } else {
            // Length, body or CRC: an absurd length, a short read, or a CRC
            // failure — each naming the section.
            assert!(
                matches!(
                    err,
                    CheckpointError::Io { .. }
                        | CheckpointError::Corrupt(_)
                        | CheckpointError::BadCrc { section: "model" }
                ),
                "flip at {pos}: {err}"
            );
            assert!(
                err.to_string().contains("\"model\""),
                "flip at {pos}: {err}"
            );
        }
    }
}

#[test]
fn hostile_model_section_lengths_fail_fast() {
    let src = store(1.0);
    let full = encode(&src, 7);
    let start = model_range(&src).start;
    let untouched = params_bits(&store(0.0));
    let with_len = |len: u64, tail: &[u8]| {
        let mut b = full[..start].to_vec();
        b.push(0x07);
        b.extend_from_slice(&len.to_le_bytes());
        b.extend_from_slice(tail);
        b
    };
    // A length past the section cap, and an in-cap 1 GiB claim with 64
    // bytes behind it: neither may allocate what it claims.
    for (stream, absurd) in [
        (with_len(u64::MAX, &[]), true),
        (with_len(1 << 30, &[0u8; 64]), false),
    ] {
        let ((bits, err), largest) = largest_alloc(|| load_into_fresh(&stream));
        assert_eq!(bits, untouched, "store was tainted");
        assert!(err.to_string().contains("\"model\""), "{err}");
        if absurd {
            assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
        } else {
            assert!(matches!(err, CheckpointError::Io { .. }), "{err}");
        }
        assert!(largest < 1 << 20, "a {largest}-byte allocation for {err}");
    }
}
