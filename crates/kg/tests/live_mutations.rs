//! The ISSUE-10 durability contract for the CFJ1 mutation journal and the
//! overlay graph, proven exhaustively:
//!
//! * a crash at **every byte offset** of an append (enumerated by
//!   `cf_check::fault::append_crash_states` and reproduced live through
//!   `FaultyWriter` in both Error and Truncate modes) recovers to a store
//!   byte-identical to the pre-mutation or post-mutation store — never a
//!   panic, never a half-applied mutation;
//! * replay is idempotent: applying a journal twice equals applying it
//!   once, so a crash between compaction and journal truncation is safe;
//! * a flipped byte anywhere in a committed record is *detected* — recovery
//!   names the damaged record and never returns a mutation that was not
//!   written.

use cf_check::fault::{append_crash_states, crash_states, FaultMode, FaultyWriter};
use cf_check::TempDir;
use cf_kg::{
    graph_fingerprint, read_store, recover_file, write_store, GraphView, JournalWriter,
    KnowledgeGraph, Mutation, OverlayGraph, StoreError,
};
use std::io::Write;

/// A small canonical base graph: three entities, one relation, two
/// attributes, enough structure for every mutation kind to hit both the
/// "exists" and "new" paths.
fn base_graph() -> KnowledgeGraph {
    let mut g = KnowledgeGraph::new();
    let a = g.add_entity("alice");
    let b = g.add_entity("bob");
    let c = g.add_entity("carol");
    let knows = g.add_relation_type("knows");
    let age = g.add_attribute_type("age");
    let _height = g.add_attribute_type("height");
    g.add_triple(a, knows, b);
    g.add_triple(b, knows, c);
    g.add_numeric(a, age, 30.0);
    g.add_numeric(b, age, 40.0);
    g.canonicalize();
    g
}

/// A mutation batch exercising every op and both fresh and overwriting
/// paths. Order matters: later mutations build on earlier ones.
fn mutation_batch() -> Vec<Mutation> {
    vec![
        Mutation::UpsertNumeric {
            entity: "alice".into(),
            attr: "age".into(),
            value: 31.0,
        },
        Mutation::AddEntity {
            name: "dave".into(),
        },
        Mutation::AddEdge {
            head: "dave".into(),
            rel: "knows".into(),
            tail: "alice".into(),
        },
        Mutation::UpsertNumeric {
            entity: "dave".into(),
            attr: "height".into(),
            value: 1.8,
        },
        Mutation::AddEdge {
            head: "carol".into(),
            rel: "employs".into(),
            tail: "dave".into(),
        },
        Mutation::UpsertNumeric {
            entity: "bob".into(),
            attr: "age".into(),
            value: 40.0, // idempotent: same bits as the base fact
        },
    ]
}

/// Store bytes after applying `muts` to the base — the ground truth each
/// crash state must land on (for some prefix of the batch).
fn store_bytes_after(muts: &[Mutation]) -> Vec<u8> {
    let mut overlay = OverlayGraph::new(base_graph());
    overlay.apply_all(muts);
    let dir = TempDir::new("live_mut");
    let path = dir.join("truth.cfkg");
    overlay.compact_to(&path).expect("compact");
    std::fs::read(&path).expect("read store")
}

/// The full journal image for `muts`: magic + one framed record each.
fn journal_bytes(muts: &[Mutation]) -> Vec<u8> {
    let mut bytes = cf_kg::journal::JOURNAL_MAGIC.to_vec();
    for m in muts {
        bytes.extend_from_slice(&cf_kg::journal::encode_record(m));
    }
    bytes
}

#[test]
fn double_replay_is_idempotent_bitwise() {
    let muts = mutation_batch();
    let dir = TempDir::new("live_mut");
    let path = dir.join("idem.cfj");
    {
        let (mut w, rec) = JournalWriter::open(&path).expect("open fresh");
        assert!(rec.mutations.is_empty() && rec.dropped.is_none());
        for m in &muts {
            w.append(m);
        }
        w.commit().expect("commit");
        assert_eq!(w.records(), muts.len() as u64);
    }
    let rec = recover_file(&path).expect("recover");
    assert_eq!(rec.mutations, muts);

    let once = store_bytes_after(&muts);
    let twice = {
        let mut overlay = OverlayGraph::new(base_graph());
        overlay.apply_all(&rec.mutations);
        overlay.apply_all(&rec.mutations); // crashed between compact and truncate
        let p = dir.join("idem.cfkg");
        overlay.compact_to(&p).expect("compact");
        std::fs::read(&p).expect("read")
    };
    assert_eq!(once, twice, "replaying a journal twice changed the store");
}

#[test]
fn torn_tail_truncated_at_every_byte_offset() {
    let muts = mutation_batch();
    let full = journal_bytes(&muts);
    // Record boundaries: byte offset → number of complete records.
    let mut boundaries = vec![cf_kg::journal::JOURNAL_MAGIC.len()];
    for m in &muts {
        boundaries.push(boundaries.last().unwrap() + cf_kg::journal::encode_record(m).len());
    }
    let dir = TempDir::new("live_mut");
    let path = dir.join("torn.cfj");
    for cut in 0..=full.len() {
        std::fs::write(&path, &full[..cut]).expect("write cut");
        // Recovery by open: torn tail physically truncated, prefix kept.
        let (mut w, rec) = JournalWriter::open(&path)
            .unwrap_or_else(|e| panic!("cut {cut}: open failed with {e}"));
        let complete = boundaries
            .iter()
            .filter(|&&b| b <= cut)
            .count()
            .saturating_sub(1);
        assert_eq!(
            rec.mutations,
            muts[..complete],
            "cut {cut}: wrong surviving prefix"
        );
        let clean = cut == 0 || boundaries.contains(&cut);
        assert_eq!(
            rec.dropped.is_none(),
            clean,
            "cut {cut}: dropped-tail report wrong"
        );
        if let Some(d) = &rec.dropped {
            assert_eq!(d.record, complete, "cut {cut}: wrong dropped record index");
        }
        // The file is now a valid prefix: appending works and the appended
        // record survives the next recovery.
        w.append(&Mutation::AddEntity { name: "eve".into() });
        w.commit().expect("commit after truncation");
        drop(w);
        let after = recover_file(&path).expect("recover after append");
        assert_eq!(after.dropped, None);
        assert_eq!(after.mutations.len(), complete + 1);
        assert_eq!(
            after.mutations[complete],
            Mutation::AddEntity { name: "eve".into() }
        );
    }
}

#[test]
fn every_append_crash_state_recovers_old_or_new_store() {
    // Commit one record at a time (the acknowledge-per-commit discipline):
    // for every record k and every byte offset of its append, recovery must
    // produce a store byte-identical to "k mutations applied" or "k+1
    // mutations applied" — nothing in between, nothing else.
    let muts = mutation_batch();
    let truth: Vec<Vec<u8>> = (0..=muts.len())
        .map(|k| store_bytes_after(&muts[..k]))
        .collect();
    let dir = TempDir::new("live_mut");
    for k in 0..muts.len() {
        let committed = journal_bytes(&muts[..k]);
        let record = cf_kg::journal::encode_record(&muts[k]);
        for state in append_crash_states(&committed, &record) {
            let bytes = state.path_bytes.as_deref().expect("append keeps file");
            let rec = cf_kg::journal::recover_bytes(bytes)
                .unwrap_or_else(|e| panic!("record {k}, {}: {e}", state.label));
            let applied = rec.mutations.len();
            assert!(
                applied == k || applied == k + 1,
                "record {k}, {}: {applied} mutations survived",
                state.label
            );
            let mut overlay = OverlayGraph::new(base_graph());
            overlay.apply_all(&rec.mutations);
            let p = dir.join("oon.cfkg");
            overlay.compact_to(&p).expect("compact");
            let got = std::fs::read(&p).expect("read");
            assert_eq!(
                got, truth[applied],
                "record {k}, {}: store is neither old nor new",
                state.label
            );
        }
    }
}

#[test]
fn faulty_writer_sweep_matches_enumerated_crash_states() {
    // The live counterpart of the enumeration above: push the commit bytes
    // through FaultyWriter at every budget in both modes and check the
    // surviving file recovers to a clean prefix of the batch.
    let muts = mutation_batch();
    let committed = journal_bytes(&muts[..2]);
    let batch: Vec<u8> = muts[2..]
        .iter()
        .flat_map(|m| cf_kg::journal::encode_record(m))
        .collect();
    let record_count_at = |bytes: &[u8]| -> usize {
        cf_kg::journal::recover_bytes(bytes)
            .expect("recoverable")
            .mutations
            .len()
    };
    for mode in [FaultMode::Error, FaultMode::Truncate] {
        for budget in 0..=batch.len() {
            let mut w = FaultyWriter::new(committed.clone(), budget, mode);
            let res = w.write_all(&batch);
            match mode {
                FaultMode::Error if budget < batch.len() => {
                    assert!(res.is_err(), "budget {budget}: error mode must fail")
                }
                _ => assert!(res.is_ok(), "budget {budget}: unexpected failure"),
            }
            let survived = w.into_inner();
            let rec = cf_kg::journal::recover_bytes(&survived)
                .unwrap_or_else(|e| panic!("{mode:?} budget {budget}: {e}"));
            // Every recovered mutation is a clean prefix of the batch.
            let n = rec.mutations.len();
            assert!(n >= 2, "{mode:?} budget {budget}: committed prefix lost");
            assert_eq!(rec.mutations, muts[..n], "{mode:?} budget {budget}");
            assert_eq!(n, record_count_at(&survived));
        }
    }
}

#[test]
fn byte_flip_sweep_detects_or_isolates_damage() {
    let muts = mutation_batch();
    let full = journal_bytes(&muts);
    let mut boundaries = vec![cf_kg::journal::JOURNAL_MAGIC.len()];
    for m in &muts {
        boundaries.push(boundaries.last().unwrap() + cf_kg::journal::encode_record(m).len());
    }
    let record_of = |pos: usize| {
        boundaries
            .iter()
            .filter(|&&b| b <= pos)
            .count()
            .saturating_sub(1)
    };
    for pos in 0..full.len() {
        let mut bytes = full.clone();
        bytes[pos] ^= 0xFF;
        match cf_kg::journal::recover_bytes(&bytes) {
            Err(StoreError::BadMagic) => {
                assert!(pos < 8, "flip at {pos}: spurious BadMagic");
            }
            Err(StoreError::Corrupt { section, what }) => {
                assert_eq!(section, "journal");
                // The error names a record at or before the damaged one
                // (a length-field flip can misframe every later record,
                // but never an *earlier* one).
                let named: usize = what
                    .strip_prefix("record ")
                    .and_then(|s| s.split(':').next())
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("flip at {pos}: unnamed record in {what:?}"));
                assert!(
                    named <= record_of(pos),
                    "flip at {pos} (record {}): error names later record {named}: {what}",
                    record_of(pos)
                );
            }
            Err(e) => panic!("flip at {pos}: unexpected error kind {e}"),
            Ok(rec) => {
                // A flip may masquerade as a torn tail (length shrunk) —
                // allowed, but only records *before* the damaged one may
                // survive, and they must match what was written.
                assert!(pos >= 8, "flip at {pos}: magic flip accepted");
                let n = rec.mutations.len();
                assert!(
                    n <= record_of(pos),
                    "flip at {pos} (record {}): {n} mutations survived",
                    record_of(pos)
                );
                assert_eq!(rec.mutations, muts[..n], "flip at {pos}: wrong mutations");
            }
        }
    }
}

#[test]
fn overlay_view_matches_compacted_store_row_for_row() {
    let muts = mutation_batch();
    let mut overlay = OverlayGraph::new(base_graph());
    overlay.apply_all(&muts);
    let dir = TempDir::new("live_mut");
    let path = dir.join("rows.cfkg");
    overlay.compact_to(&path).expect("compact");
    let compacted = read_store(&path).expect("read back");

    assert_eq!(overlay.num_entities(), GraphView::num_entities(&compacted));
    assert_eq!(
        overlay.num_attributes(),
        GraphView::num_attributes(&compacted)
    );
    assert_eq!(
        overlay.num_relations(),
        GraphView::num_relations(&compacted)
    );
    for e in 0..overlay.num_entities() {
        let e = cf_kg::EntityId(e as u32);
        assert_eq!(overlay.entity_name(e), compacted.entity_name(e));
        assert_eq!(overlay.neighbors(e), compacted.neighbors(e), "{e:?}");
        let a = overlay.numerics_of(e);
        let b = compacted.numerics_of(e);
        assert_eq!(a.len(), b.len(), "{e:?}");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.attr, y.attr);
            assert_eq!(x.value.to_bits(), y.value.to_bits(), "{e:?}");
        }
    }
    for a in 0..overlay.num_attributes() {
        let a = cf_kg::AttributeId(a as u32);
        assert_eq!(overlay.attribute_name(a), compacted.attribute_name(a));
        let x = overlay.entities_with_attribute(a);
        let y = compacted.entities_with_attribute(a);
        assert_eq!(x.len(), y.len(), "{a:?}");
        for (o, p) in x.iter().zip(y) {
            assert_eq!(o.entity, p.entity);
            assert_eq!(o.value.to_bits(), p.value.to_bits(), "{a:?}");
        }
    }
    assert_eq!(
        graph_fingerprint(&overlay),
        graph_fingerprint(&compacted),
        "fingerprints must agree when every row agrees"
    );
}

#[test]
fn compaction_rename_crash_states_leave_old_or_new_store() {
    // Compaction reuses the store's atomic tmp → fsync → rename writer;
    // enumerate its crash states and check a reader always sees a valid
    // old or new store.
    let old_bytes = store_bytes_after(&[]);
    let new_bytes = store_bytes_after(&mutation_batch());
    assert_ne!(old_bytes, new_bytes);
    let dir = TempDir::new("live_mut");
    let path = dir.join("rename.cfkg");
    for state in crash_states(Some(&old_bytes), &new_bytes) {
        match &state.path_bytes {
            Some(bytes) => {
                std::fs::write(&path, bytes).expect("write state");
                let g = read_store(&path)
                    .unwrap_or_else(|e| panic!("{}: store unreadable: {e}", state.label));
                let round = dir.join("rename_rt.cfkg");
                write_store(&g, &round).expect("rewrite");
                let got = std::fs::read(&round).expect("read");
                assert!(
                    got == old_bytes || got == new_bytes,
                    "{}: neither old nor new",
                    state.label
                );
            }
            None => {} // file absent: the pre-first-save state
        }
    }
}
