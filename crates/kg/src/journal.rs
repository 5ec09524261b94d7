//! CFJ1: the crash-safe live-graph mutation journal.
//!
//! The CFKG1 store is immutable; live mutations (numeric upserts, new
//! entities, new edges) are appended here first and acknowledged only after
//! `fsync`, then applied to the in-memory [`crate::overlay::OverlayGraph`].
//! On restart the journal is replayed onto the base store; because every
//! mutation is an upsert / add-if-missing, replay is **idempotent** — so a
//! crash between "compact the store" and "truncate the journal" is harmless
//! (the survivors re-apply as no-ops).
//!
//! ## File format
//!
//! ```text
//! magic "CFJ1\0\0\0\0"
//! record*  where record = len:u32 LE | crc32(payload):u32 LE | payload[len]
//! ```
//!
//! Records are framed individually (unlike the sectioned CFKG1 container)
//! because the file grows by appends, not atomic rewrites. The recovery
//! contract, proven by exhaustive `FaultyWriter` sweeps in the tests:
//!
//! * a crash mid-append leaves a **torn tail** — fewer bytes than the
//!   record frame declares. Recovery truncates it and reports which record
//!   index was dropped; every fully-framed prefix record survives.
//! * a **corrupt** record (complete frame, CRC mismatch — bit rot, not a
//!   crash) is a hard error naming the record index. A crash can never
//!   produce this state: partial appends shorten the file, they do not
//!   rewrite committed bytes.
//!
//! Mutations address entities/attributes/relations **by name**, so a
//! journal stays valid across compactions even though compaction may grow
//! the id space of the base store.

use crate::store::StoreError;
use cf_tensor::crc32;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

/// File magic for the mutation journal.
pub const JOURNAL_MAGIC: [u8; 8] = *b"CFJ1\x00\x00\x00\x00";

/// Cap on one framed record (a mutation is a handful of names + a value).
pub const MAX_RECORD: u32 = 1 << 20;
/// Cap on one name inside a record.
pub const MAX_MUTATION_NAME: u32 = 1 << 16;

const OP_UPSERT: u8 = 1;
const OP_ADD_ENTITY: u8 = 2;
const OP_ADD_EDGE: u8 = 3;

/// One live-graph mutation. All variants are idempotent by construction:
/// applying the same mutation twice yields the same graph as applying it
/// once (upsert overwrites, adds skip existing content).
#[derive(Clone, Debug, PartialEq)]
pub enum Mutation {
    /// Set attribute `attr` of `entity` to `value`, inserting the fact if
    /// absent. Unknown entity/attribute names are created.
    UpsertNumeric {
        /// Entity name.
        entity: String,
        /// Attribute name.
        attr: String,
        /// New value (must be finite).
        value: f64,
    },
    /// Register an entity if it does not already exist.
    AddEntity {
        /// Entity name.
        name: String,
    },
    /// Add the relational edge `(head, rel, tail)` if not already present.
    /// Unknown entity/relation names are created.
    AddEdge {
        /// Head entity name.
        head: String,
        /// Relation name.
        rel: String,
        /// Tail entity name.
        tail: String,
    },
}

fn corrupt(record: usize, what: impl std::fmt::Display) -> StoreError {
    StoreError::Corrupt {
        section: "journal",
        what: format!("record {record}: {what}"),
    }
}

/// Validates the names and value of a mutation against the journal caps.
pub fn validate_mutation(m: &Mutation) -> Result<(), String> {
    let name_ok = |what: &str, s: &str| -> Result<(), String> {
        if s.is_empty() {
            return Err(format!("{what}: empty name"));
        }
        if s.len() as u64 > MAX_MUTATION_NAME as u64 {
            return Err(format!(
                "{what}: name longer than {MAX_MUTATION_NAME} bytes"
            ));
        }
        Ok(())
    };
    match m {
        Mutation::UpsertNumeric {
            entity,
            attr,
            value,
        } => {
            name_ok("entity", entity)?;
            name_ok("attr", attr)?;
            if !value.is_finite() {
                return Err("value: not finite".into());
            }
        }
        Mutation::AddEntity { name } => name_ok("entity", name)?,
        Mutation::AddEdge { head, rel, tail } => {
            name_ok("head", head)?;
            name_ok("rel", rel)?;
            name_ok("tail", tail)?;
        }
    }
    Ok(())
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Encodes one mutation as a complete framed journal record
/// (`len | crc | payload`). The bytes are a pure function of the mutation.
pub fn encode_record(m: &Mutation) -> Vec<u8> {
    debug_assert!(validate_mutation(m).is_ok(), "unvalidated mutation");
    let mut payload = Vec::new();
    match m {
        Mutation::UpsertNumeric {
            entity,
            attr,
            value,
        } => {
            payload.push(OP_UPSERT);
            put_str(&mut payload, entity);
            put_str(&mut payload, attr);
            payload.extend_from_slice(&value.to_bits().to_le_bytes());
        }
        Mutation::AddEntity { name } => {
            payload.push(OP_ADD_ENTITY);
            put_str(&mut payload, name);
        }
        Mutation::AddEdge { head, rel, tail } => {
            payload.push(OP_ADD_EDGE);
            put_str(&mut payload, head);
            put_str(&mut payload, rel);
            put_str(&mut payload, tail);
        }
    }
    assert!(payload.len() as u64 <= MAX_RECORD as u64, "record over cap");
    let mut rec = Vec::with_capacity(8 + payload.len());
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.extend_from_slice(&crc32(&payload).to_le_bytes());
    rec.extend_from_slice(&payload);
    rec
}

struct PayloadReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    record: usize,
}

impl<'a> PayloadReader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StoreError> {
        if self.bytes.len() - self.pos < n {
            return Err(corrupt(self.record, format!("{what}: payload too short")));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn get_str(&mut self, what: &str) -> Result<String, StoreError> {
        let len = u32::from_le_bytes(self.take(4, what)?.try_into().unwrap());
        if len > MAX_MUTATION_NAME {
            return Err(corrupt(self.record, format!("{what}: name over cap")));
        }
        let raw = self.take(len as usize, what)?;
        let s = std::str::from_utf8(raw)
            .map_err(|_| corrupt(self.record, format!("{what}: name is not valid UTF-8")))?;
        if s.is_empty() {
            return Err(corrupt(self.record, format!("{what}: empty name")));
        }
        Ok(s.to_string())
    }

    fn finish(self) -> Result<(), StoreError> {
        if self.pos != self.bytes.len() {
            return Err(corrupt(self.record, "trailing bytes in payload"));
        }
        Ok(())
    }
}

fn decode_payload(payload: &[u8], record: usize) -> Result<Mutation, StoreError> {
    let mut r = PayloadReader {
        bytes: payload,
        pos: 0,
        record,
    };
    let op = r.take(1, "op")?[0];
    let m = match op {
        OP_UPSERT => {
            let entity = r.get_str("entity")?;
            let attr = r.get_str("attr")?;
            let bits = u64::from_le_bytes(r.take(8, "value")?.try_into().unwrap());
            let value = f64::from_bits(bits);
            if !value.is_finite() {
                return Err(corrupt(record, "value: not finite"));
            }
            Mutation::UpsertNumeric {
                entity,
                attr,
                value,
            }
        }
        OP_ADD_ENTITY => Mutation::AddEntity {
            name: r.get_str("entity")?,
        },
        OP_ADD_EDGE => Mutation::AddEdge {
            head: r.get_str("head")?,
            rel: r.get_str("rel")?,
            tail: r.get_str("tail")?,
        },
        other => return Err(corrupt(record, format!("unknown op {other}"))),
    };
    r.finish()?;
    Ok(m)
}

/// The torn tail dropped by recovery: which record index the journal broke
/// at and how many trailing bytes were discarded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DroppedTail {
    /// Index of the first record that did not survive.
    pub record: usize,
    /// Bytes discarded from the end of the file.
    pub bytes: usize,
}

/// Result of recovering a journal: the committed mutations plus the torn
/// tail (if a crash cut the last append short).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Recovery {
    /// Fully committed mutations, journal order.
    pub mutations: Vec<Mutation>,
    /// Torn tail discarded by recovery, if any.
    pub dropped: Option<DroppedTail>,
}

impl Recovery {
    /// Byte length of the valid prefix (`magic` + committed records).
    /// Everything past this offset is the torn tail.
    pub fn valid_len(&self, file_len: usize) -> usize {
        file_len - self.dropped.as_ref().map_or(0, |d| d.bytes)
    }
}

/// Recovers a journal image: committed mutations old-or-new per record.
///
/// A torn tail (any strict prefix of an append, as a crash leaves behind)
/// is truncated and reported in [`Recovery::dropped`]; a complete record
/// whose CRC does not match its payload is a hard [`StoreError::Corrupt`]
/// naming the record index.
pub fn recover_bytes(bytes: &[u8]) -> Result<Recovery, StoreError> {
    if bytes.len() < JOURNAL_MAGIC.len() {
        // A crash while creating the file can leave any prefix of the
        // magic; anything else this short is not a journal.
        if JOURNAL_MAGIC.starts_with(bytes) {
            return Ok(Recovery {
                mutations: Vec::new(),
                dropped: (!bytes.is_empty()).then_some(DroppedTail {
                    record: 0,
                    bytes: bytes.len(),
                }),
            });
        }
        return Err(StoreError::BadMagic);
    }
    if bytes[..8] != JOURNAL_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let mut mutations = Vec::new();
    let mut pos = 8usize;
    let mut record = 0usize;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < 8 {
            // Torn frame header.
            return Ok(Recovery {
                mutations,
                dropped: Some(DroppedTail {
                    record,
                    bytes: remaining,
                }),
            });
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_RECORD {
            return Err(corrupt(record, format!("length {len} exceeds cap")));
        }
        if remaining - 8 < len as usize {
            // Torn payload.
            return Ok(Recovery {
                mutations,
                dropped: Some(DroppedTail {
                    record,
                    bytes: remaining,
                }),
            });
        }
        let payload = &bytes[pos + 8..pos + 8 + len as usize];
        if crc32(payload) != crc {
            return Err(corrupt(record, "crc mismatch"));
        }
        mutations.push(decode_payload(payload, record)?);
        pos += 8 + len as usize;
        record += 1;
    }
    Ok(Recovery {
        mutations,
        dropped: None,
    })
}

/// Recovers a journal file (see [`recover_bytes`]). A missing file is an
/// empty journal.
pub fn recover_file(path: impl AsRef<Path>) -> Result<Recovery, StoreError> {
    match std::fs::read(path) {
        Ok(bytes) => recover_bytes(&bytes),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Recovery::default()),
        Err(e) => Err(StoreError::Io(e)),
    }
}

/// Append-only journal writer with batched fsync.
///
/// [`JournalWriter::append`] only buffers; [`JournalWriter::commit`] writes
/// the batch and fsyncs once — the durability point. A mutation must not be
/// acknowledged to a client before the commit that covers it returns.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    pending: Vec<u8>,
    records: u64,
}

impl JournalWriter {
    /// Opens (or creates) a journal for appending, recovering the existing
    /// content first: a torn tail is physically truncated off the file so
    /// subsequent appends extend a valid prefix.
    pub fn open(path: impl AsRef<Path>) -> Result<(Self, Recovery), StoreError> {
        let path = path.as_ref();
        let file_len = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        let recovery = if file_len == 0 {
            Recovery::default()
        } else {
            recover_file(path)?
        };
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .open(path)?;
        let keep = if file_len == 0 {
            0
        } else {
            recovery.valid_len(file_len as usize) as u64
        };
        if keep < file_len {
            file.set_len(keep)?;
            file.sync_data()?;
        }
        let mut w = JournalWriter {
            file,
            pending: Vec::new(),
            records: recovery.mutations.len() as u64,
        };
        if keep == 0 {
            // Fresh (or fully torn) journal: lay down the magic.
            w.file.set_len(0)?;
            w.file.write_all(&JOURNAL_MAGIC)?;
            w.file.sync_data()?;
        } else {
            use std::io::Seek;
            w.file.seek(std::io::SeekFrom::End(0))?;
        }
        Ok((w, recovery))
    }

    /// Buffers one mutation for the next [`commit`](Self::commit).
    pub fn append(&mut self, m: &Mutation) {
        self.pending.extend_from_slice(&encode_record(m));
        self.records += 1;
    }

    /// Writes all buffered records and fsyncs — one durability barrier for
    /// the whole batch.
    pub fn commit(&mut self) -> Result<(), StoreError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.file.write_all(&self.pending)?;
        self.file.sync_data()?;
        self.pending.clear();
        Ok(())
    }

    /// Committed + pending record count.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Empties the journal (after its mutations were compacted into the
    /// base store). Keeps the magic so the file stays a valid journal.
    pub fn truncate_all(&mut self) -> Result<(), StoreError> {
        self.pending.clear();
        self.file.set_len(JOURNAL_MAGIC.len() as u64)?;
        self.file.sync_data()?;
        use std::io::Seek;
        self.file.seek(std::io::SeekFrom::End(0))?;
        self.records = 0;
        Ok(())
    }
}
