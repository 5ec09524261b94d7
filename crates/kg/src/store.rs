//! CFKG1: the binary knowledge-graph store.
//!
//! A CFKG1 file is a flat sequence of 8-byte-aligned little-endian sections,
//! each carrying a CRC32 of its body, closed by an end marker and a footer
//! CRC over all section CRCs (the CFT2 checkpoint discipline):
//!
//! ```text
//! magic "CFKG1\0\0\0"                                       8 bytes
//! section := tag:u32  0:u32  body_len:u64                  16-byte header
//!            body … zero-padded to 8                       body_len bytes
//!            crc32(body):u32  0:u32                         8-byte trailer
//! end     := tag=0xFFFF_FFFF  0:u32  body_len=0:u64
//! footer  := crc32(all section CRCs, LE, file order):u32  0:u32
//! ```
//!
//! A store holds only the facts (all counts come from COUNTS; every body
//! length is re-derived from the counts and must match exactly):
//!
//! | tag | section          | body                                          |
//! |-----|------------------|-----------------------------------------------|
//! | 1   | counts           | `u64 × 6`: n_e, n_r, n_a, n_t, n_n, flags     |
//! | 2   | entity_names     | `u64` offsets `[n_e+1]` + UTF-8 blob           |
//! | 3   | relation_names   | `u64` offsets `[n_r+1]` + UTF-8 blob           |
//! | 4   | attribute_names  | `u64` offsets `[n_a+1]` + UTF-8 blob           |
//! | 5   | triples          | heads `u32[n_t]`, rels `u32[n_t]`, tails …     |
//! | 6   | numerics         | entities `u32[n_n]`, attrs `u32[n_n]`, values `f64[n_n]` |
//!
//! Any other tag is CRC-checked and skipped. Stores written before the
//! format dropped its derived CSR sections carry three more (tags 7–9:
//! adjacency, numeric and attribute index); they load to the same graph,
//! since [`read_store`] rebuilds the indexes from the facts with
//! `build_index`.
//!
//! [`read_store`] checks every section CRC, then decodes the facts into an
//! owned [`KnowledgeGraph`], checking each name (offsets monotone and
//! bounded, UTF-8), id (in range) and value (finite) as it is added.
//! Corrupt files yield a typed [`StoreError`] naming the failing section;
//! they can never produce a panic or a garbage graph.

use crate::graph::KnowledgeGraph;
use crate::ids::{AttributeId, EntityId, RelationId};
use crate::mmapio::Mmap;
use cf_tensor::crc::{crc32, Crc};
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// File magic for the graph store.
pub const STORE_MAGIC: [u8; 8] = *b"CFKG1\x00\x00\x00";

const TAG_COUNTS: u32 = 1;
const TAG_ENTITY_NAMES: u32 = 2;
const TAG_REL_NAMES: u32 = 3;
const TAG_ATTR_NAMES: u32 = 4;
const TAG_TRIPLES: u32 = 5;
const TAG_NUMERICS: u32 = 6;
const TAG_END: u32 = 0xFFFF_FFFF;

/// Cap on entity/relation/attribute counts (ids are u32).
const MAX_VOCAB: u64 = 1 << 31;
/// Cap on triple/numeric counts.
const MAX_FACTS: u64 = 1 << 33;
/// Hard cap on any single section body (belt-and-braces on top of the
/// actual-file-length bound enforced by the walker).
const MAX_SECTION: u64 = 1 << 37;
/// Cap on a name-table byte blob.
const MAX_NAME_BYTES: u64 = 1 << 32;

fn section_name(tag: u32) -> &'static str {
    match tag {
        TAG_COUNTS => "counts",
        TAG_ENTITY_NAMES => "entity_names",
        TAG_REL_NAMES => "relation_names",
        TAG_ATTR_NAMES => "attribute_names",
        TAG_TRIPLES => "triples",
        TAG_NUMERICS => "numerics",
        TAG_END => "end",
        _ => "unknown",
    }
}

// ---------------------------------------------------------------------------
// errors
// ---------------------------------------------------------------------------

/// Errors raised while writing or loading a CFKG1 / CFCI1 file.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io {
        /// The file the failing call named; `None` only where the error
        /// has not yet reached the public function that knows it.
        path: Option<PathBuf>,
        /// What the operating system reported.
        source: std::io::Error,
    },
    /// The file does not start with the expected magic.
    BadMagic,
    /// The file ends in the middle of the named structure.
    Truncated {
        /// What was being read when bytes ran out.
        what: &'static str,
    },
    /// A section's body does not match its recorded CRC32.
    BadCrc {
        /// Name of the failing section.
        section: &'static str,
    },
    /// A section is structurally invalid.
    Corrupt {
        /// Name of the failing section.
        section: &'static str,
        /// What was wrong.
        what: String,
    },
    /// A required section is absent.
    Missing {
        /// Name of the absent section.
        section: &'static str,
    },
    /// A section appears more than once.
    Duplicate {
        /// Name of the repeated section.
        section: &'static str,
    },
    /// A declared length exceeds its cap.
    TooLarge {
        /// Name of the offending section.
        section: &'static str,
    },
    /// A sound chain index built for another graph: its recorded
    /// [`graph_fingerprint`](crate::graph_fingerprint) or entity count
    /// differs from the graph it was paired with. Nothing is corrupt; the
    /// fix is an index built for this graph.
    IndexMismatch {
        /// Fingerprint the index recorded at build time.
        index: u64,
        /// Entities the index covers.
        index_entities: usize,
        /// Fingerprint of the graph it was paired with.
        graph: u64,
        /// Entities of that graph.
        graph_entities: usize,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io {
                path: Some(path),
                source,
            } => write!(f, "io error on {}: {source}", path.display()),
            StoreError::Io { path: None, source } => write!(f, "io error: {source}"),
            StoreError::BadMagic => write!(f, "bad magic: not a CFKG1/CFCI1 file"),
            StoreError::Truncated { what } => write!(f, "truncated file while reading {what}"),
            StoreError::BadCrc { section } => {
                write!(f, "section {section:?} failed its CRC32 check")
            }
            StoreError::Corrupt { section, what } => {
                write!(f, "section {section:?} is corrupt: {what}")
            }
            StoreError::Missing { section } => write!(f, "section {section:?} is missing"),
            StoreError::Duplicate { section } => {
                write!(f, "section {section:?} appears more than once")
            }
            StoreError::TooLarge { section } => {
                write!(f, "section {section:?} exceeds its length cap")
            }
            StoreError::IndexMismatch {
                index,
                index_entities,
                graph,
                graph_entities,
            } => write!(
                f,
                "chain index was built for another graph: index fingerprint \
                 {index:016x} over {index_entities} entities, graph fingerprint \
                 {graph:016x} over {graph_entities} entities; rebuild it with \
                 `cfkg index` for this graph"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(source: std::io::Error) -> Self {
        StoreError::Io { path: None, source }
    }
}

impl StoreError {
    /// This error with `path` named as the file of an I/O failure that does
    /// not name one yet; every other error is returned unchanged.
    pub(crate) fn on(self, path: &Path) -> Self {
        match self {
            StoreError::Io { path: None, source } => StoreError::Io {
                path: Some(path.to_path_buf()),
                source,
            },
            other => other,
        }
    }
}

// ---------------------------------------------------------------------------
// section writer
// ---------------------------------------------------------------------------

/// Streams one section: buffers puts, folds them into the running CRC in
/// large chunks, and verifies the declared body length on close.
pub(crate) struct SectionWriter<'w, W: Write> {
    w: &'w mut W,
    buf: Vec<u8>,
    crc: Crc,
    written: u64,
    body_len: u64,
}

const WRITER_CHUNK: usize = 1 << 20;

impl<'w, W: Write> SectionWriter<'w, W> {
    /// Writes the section header and prepares to stream `body_len` bytes.
    pub(crate) fn begin(w: &'w mut W, tag: u32, body_len: u64) -> std::io::Result<Self> {
        w.write_all(&tag.to_le_bytes())?;
        w.write_all(&0u32.to_le_bytes())?;
        w.write_all(&body_len.to_le_bytes())?;
        Ok(SectionWriter {
            w,
            buf: Vec::with_capacity(WRITER_CHUNK.min(body_len as usize + 8)),
            crc: Crc::new(),
            written: 0,
            body_len,
        })
    }

    fn flush_buf(&mut self) -> std::io::Result<()> {
        if !self.buf.is_empty() {
            self.crc.update(&self.buf);
            self.w.write_all(&self.buf)?;
            self.written += self.buf.len() as u64;
            self.buf.clear();
        }
        Ok(())
    }

    fn put(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.buf.extend_from_slice(bytes);
        if self.buf.len() >= WRITER_CHUNK {
            self.flush_buf()?;
        }
        Ok(())
    }

    pub(crate) fn put_u32(&mut self, v: u32) -> std::io::Result<()> {
        self.put(&v.to_le_bytes())
    }

    pub(crate) fn put_u64(&mut self, v: u64) -> std::io::Result<()> {
        self.put(&v.to_le_bytes())
    }

    pub(crate) fn put_f64(&mut self, v: f64) -> std::io::Result<()> {
        self.put(&v.to_bits().to_le_bytes())
    }

    pub(crate) fn put_bytes(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.put(bytes)
    }

    /// Pads to 8, writes the CRC trailer, and returns the body CRC.
    pub(crate) fn finish(mut self) -> std::io::Result<u32> {
        self.flush_buf()?;
        assert_eq!(
            self.written, self.body_len,
            "section body length mismatch (writer bug)"
        );
        let crc = self.crc.finish();
        let pad = (8 - (self.body_len % 8) as usize) % 8;
        self.w.write_all(&[0u8; 7][..pad])?;
        self.w.write_all(&crc.to_le_bytes())?;
        self.w.write_all(&0u32.to_le_bytes())?;
        Ok(crc)
    }
}

/// Writes the end marker + footer CRC over the collected section CRCs.
pub(crate) fn write_end<W: Write>(w: &mut W, crcs: &[u32]) -> std::io::Result<()> {
    w.write_all(&TAG_END.to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())?;
    w.write_all(&0u64.to_le_bytes())?;
    let mut crc = Crc::new();
    for c in crcs {
        crc.update(&c.to_le_bytes());
    }
    w.write_all(&crc.finish().to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())?;
    Ok(())
}

// ---------------------------------------------------------------------------
// section walker (shared by CFKG1 and CFCI1)
// ---------------------------------------------------------------------------

/// One section located in a byte buffer.
pub(crate) struct RawSection {
    pub(crate) tag: u32,
    /// Byte range of the (unpadded) body within the file.
    pub(crate) body: Range<usize>,
    /// The stored body CRC. The caller must verify it before trusting the
    /// body.
    pub(crate) crc: u32,
}

/// Walks the section stream of `bytes` (after `magic`), verifying the
/// geometry, all padding, and the footer CRC. Returns the located sections
/// in file order. Unknown tags are returned too (forward compat); the
/// caller decides which tags it requires.
///
/// Section bodies are not read here: the caller CRC-checks each one,
/// unknown sections included (CFKG1 with [`verify_crc`]; the CFCI1 open
/// fuses the CRC of its two arrays with its structural scans).
///
/// Every padding byte (header pad word, body zero-padding, trailer pad
/// word, footer pad word) must be zero and trailing bytes after the footer
/// are rejected, so *any* single-byte corruption in the file is detected.
pub(crate) fn walk_sections(
    bytes: &[u8],
    magic: &[u8; 8],
    names: fn(u32) -> &'static str,
) -> Result<Vec<RawSection>, StoreError> {
    if bytes.len() < 8 || &bytes[..8] != magic {
        return Err(StoreError::BadMagic);
    }
    let mut cursor = 8usize;
    let mut sections = Vec::new();
    let mut crcs = Vec::new();
    loop {
        if bytes.len() - cursor < 16 {
            return Err(StoreError::Truncated {
                what: "section header",
            });
        }
        let tag = u32::from_le_bytes(bytes[cursor..cursor + 4].try_into().unwrap());
        let hpad = u32::from_le_bytes(bytes[cursor + 4..cursor + 8].try_into().unwrap());
        let body_len = u64::from_le_bytes(bytes[cursor + 8..cursor + 16].try_into().unwrap());
        if hpad != 0 {
            return Err(StoreError::Corrupt {
                section: names(tag),
                what: "nonzero header padding".into(),
            });
        }
        cursor += 16;
        if tag == TAG_END {
            if body_len != 0 {
                return Err(StoreError::Corrupt {
                    section: "end",
                    what: "end marker with nonzero body".into(),
                });
            }
            if bytes.len() - cursor < 8 {
                return Err(StoreError::Truncated { what: "footer" });
            }
            let stored = u32::from_le_bytes(bytes[cursor..cursor + 4].try_into().unwrap());
            let fpad = u32::from_le_bytes(bytes[cursor + 4..cursor + 8].try_into().unwrap());
            let mut crc = Crc::new();
            for c in &crcs {
                crc.update(&u32::to_le_bytes(*c));
            }
            if crc.finish() != stored {
                return Err(StoreError::BadCrc { section: "footer" });
            }
            if fpad != 0 {
                return Err(StoreError::Corrupt {
                    section: "footer",
                    what: "nonzero footer padding".into(),
                });
            }
            if cursor + 8 != bytes.len() {
                return Err(StoreError::Corrupt {
                    section: "footer",
                    what: "trailing bytes after footer".into(),
                });
            }
            return Ok(sections);
        }
        if body_len > MAX_SECTION {
            return Err(StoreError::TooLarge {
                section: names(tag),
            });
        }
        let padded = body_len
            .checked_add(7)
            .map(|v| v & !7)
            .ok_or(StoreError::TooLarge {
                section: names(tag),
            })? as usize;
        if bytes.len() - cursor < padded + 8 {
            return Err(StoreError::Truncated {
                what: "section body",
            });
        }
        let body = cursor..cursor + body_len as usize;
        if bytes[body.end..cursor + padded].iter().any(|&b| b != 0) {
            return Err(StoreError::Corrupt {
                section: names(tag),
                what: "nonzero body padding".into(),
            });
        }
        let stored = u32::from_le_bytes(
            bytes[cursor + padded..cursor + padded + 4]
                .try_into()
                .unwrap(),
        );
        let tpad = u32::from_le_bytes(
            bytes[cursor + padded + 4..cursor + padded + 8]
                .try_into()
                .unwrap(),
        );
        if tpad != 0 {
            return Err(StoreError::Corrupt {
                section: names(tag),
                what: "nonzero trailer padding".into(),
            });
        }
        crcs.push(stored);
        sections.push(RawSection {
            tag,
            body,
            crc: stored,
        });
        cursor += padded + 8;
    }
}

// ---------------------------------------------------------------------------
// writer
// ---------------------------------------------------------------------------

fn names_body_len(names: &[String]) -> u64 {
    8 * (names.len() as u64 + 1) + names.iter().map(|n| n.len() as u64).sum::<u64>()
}

fn write_names<W: Write>(w: &mut W, tag: u32, names: &[String]) -> Result<u32, StoreError> {
    let blob_len: u64 = names.iter().map(|n| n.len() as u64).sum();
    if blob_len > MAX_NAME_BYTES {
        return Err(StoreError::TooLarge {
            section: section_name(tag),
        });
    }
    let mut s = SectionWriter::begin(w, tag, names_body_len(names))?;
    let mut off = 0u64;
    s.put_u64(0)?;
    for n in names {
        off += n.len() as u64;
        s.put_u64(off)?;
    }
    for n in names {
        s.put_bytes(n.as_bytes())?;
    }
    Ok(s.finish()?)
}

/// Serializes a graph's facts to `path` as CFKG1, atomically.
///
/// The byte output is a pure function of the facts (names, triples and
/// numerics in insertion order), indexed or not — re-ingesting identical
/// TSV input yields a byte-identical store file.
pub fn write_store(g: &KnowledgeGraph, path: impl AsRef<Path>) -> Result<(), StoreError> {
    let path = path.as_ref();
    cf_tensor::write_atomic(path, |w| {
        w.write_all(&STORE_MAGIC)?;
        let mut crcs = Vec::with_capacity(6);

        let (n_e, n_r, n_a) = (
            g.entity_names.len() as u64,
            g.relation_names.len() as u64,
            g.attribute_names.len() as u64,
        );
        let (n_t, n_n) = (g.triples.len() as u64, g.numerics.len() as u64);
        if n_e > MAX_VOCAB || n_r > MAX_VOCAB || n_a > MAX_VOCAB {
            return Err(StoreError::TooLarge { section: "counts" });
        }
        if n_t > MAX_FACTS || n_n > MAX_FACTS {
            return Err(StoreError::TooLarge { section: "counts" });
        }

        let mut s = SectionWriter::begin(w, TAG_COUNTS, 48)?;
        for v in [n_e, n_r, n_a, n_t, n_n, 0] {
            s.put_u64(v)?;
        }
        crcs.push(s.finish()?);

        crcs.push(write_names(w, TAG_ENTITY_NAMES, &g.entity_names)?);
        crcs.push(write_names(w, TAG_REL_NAMES, &g.relation_names)?);
        crcs.push(write_names(w, TAG_ATTR_NAMES, &g.attribute_names)?);

        let mut s = SectionWriter::begin(w, TAG_TRIPLES, 12 * n_t)?;
        for t in &g.triples {
            s.put_u32(t.head.0)?;
        }
        for t in &g.triples {
            s.put_u32(t.rel.0)?;
        }
        for t in &g.triples {
            s.put_u32(t.tail.0)?;
        }
        crcs.push(s.finish()?);

        let mut s = SectionWriter::begin(w, TAG_NUMERICS, 16 * n_n)?;
        for t in &g.numerics {
            s.put_u32(t.entity.0)?;
        }
        for t in &g.numerics {
            s.put_u32(t.attr.0)?;
        }
        for t in &g.numerics {
            s.put_f64(t.value)?;
        }
        crcs.push(s.finish()?);

        write_end(w, &crcs)?;
        Ok(())
    })
    .map_err(|e: StoreError| e.on(path))
}

// ---------------------------------------------------------------------------
// reader
// ---------------------------------------------------------------------------

pub(crate) fn corrupt(section: &'static str, what: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        section,
        what: what.into(),
    }
}

/// Checks one section body against its stored CRC32.
pub(crate) fn verify_crc(
    bytes: &[u8],
    body: &Range<usize>,
    stored: u32,
    section: &'static str,
) -> Result<(), StoreError> {
    if crc32(&bytes[body.clone()]) != stored {
        return Err(StoreError::BadCrc { section });
    }
    Ok(())
}

fn u64_at(b: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(b[8 * i..8 * i + 8].try_into().unwrap())
}

/// The little-endian `u32` column `b`, in order.
fn u32s(b: &[u8]) -> impl Iterator<Item = u32> + '_ {
    b.chunks_exact(4)
        .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
}

/// The verdict naming the first of a fact's ids that is not below its
/// count. The per-fact loops test all of a fact's ids at once, without a
/// branch per id, and call this only when that test fails.
#[cold]
fn out_of_range(section: &'static str, ids: &[(u32, u64, &str)]) -> StoreError {
    let what = ids
        .iter()
        .find(|&&(id, count, _)| u64::from(id) >= count)
        .map_or("", |&(_, _, what)| what);
    corrupt(section, format!("{what} id out of range"))
}

/// Decodes a name table of `n` names: `u64` offsets `[n+1]`, then the
/// UTF-8 blob. The offsets must start at 0, never decrease and end at the
/// blob's length; each name must be UTF-8 on its own.
fn read_names(body: &[u8], n: usize, section: &'static str) -> Result<Vec<String>, StoreError> {
    if body.len() < 8 * (n + 1) {
        return Err(corrupt(section, "body shorter than offsets table"));
    }
    let (offsets, blob) = body.split_at(8 * (n + 1));
    if blob.len() as u64 > MAX_NAME_BYTES {
        return Err(StoreError::TooLarge { section });
    }
    let off = |i: usize| u64_at(offsets, i);
    if off(0) != 0 {
        return Err(corrupt(section, "offsets do not start at 0"));
    }
    if (0..n).any(|i| off(i) > off(i + 1)) {
        return Err(corrupt(section, "offsets are not monotone"));
    }
    if off(n) != blob.len() as u64 {
        return Err(corrupt(
            section,
            format!("offsets end at {} expected {}", off(n), blob.len()),
        ));
    }
    let mut names = Vec::with_capacity(n);
    for i in 0..n {
        let name = std::str::from_utf8(&blob[off(i) as usize..off(i + 1) as usize])
            .map_err(|_| corrupt(section, "name is not valid UTF-8"))?;
        names.push(name.to_owned());
    }
    Ok(names)
}

/// Loads a CFKG1 file into an owned [`KnowledgeGraph`]. Every section's
/// CRC is checked first, unknown tags included; then each known section is
/// decoded, and every name, id and value is checked as it is added to the
/// graph. `build_index` rebuilds the CSR indexes at the end, so a
/// loaded-then-rewritten store is byte-identical.
pub fn read_store(path: impl AsRef<Path>) -> Result<KnowledgeGraph, StoreError> {
    let path = path.as_ref();
    let mem = Mmap::open(path).map_err(|e| StoreError::from(e).on(path))?;
    let bytes = mem.bytes();
    let mut found: [Option<&[u8]>; 7] = [None; 7];
    for s in walk_sections(bytes, &STORE_MAGIC, section_name)? {
        verify_crc(bytes, &s.body, s.crc, section_name(s.tag))?;
        // Unknown tags (the CSR sections 7–9 of older stores among them)
        // are skipped once their CRC holds.
        if !(TAG_COUNTS..=TAG_NUMERICS).contains(&s.tag) {
            continue;
        }
        if found[s.tag as usize].replace(&bytes[s.body]).is_some() {
            return Err(StoreError::Duplicate {
                section: section_name(s.tag),
            });
        }
    }
    let take = |tag: u32| {
        found[tag as usize].ok_or(StoreError::Missing {
            section: section_name(tag),
        })
    };

    let counts = take(TAG_COUNTS)?;
    if counts.len() != 48 {
        return Err(corrupt("counts", "expected 48-byte body"));
    }
    let [n_e, n_r, n_a, n_t, n_n] = std::array::from_fn(|i| u64_at(counts, i));
    if n_e.max(n_r).max(n_a) > MAX_VOCAB || n_t.max(n_n) > MAX_FACTS {
        return Err(StoreError::TooLarge { section: "counts" });
    }

    let mut g = KnowledgeGraph::new();
    g.entity_names = read_names(take(TAG_ENTITY_NAMES)?, n_e as usize, "entity_names")?;
    g.relation_names = read_names(take(TAG_REL_NAMES)?, n_r as usize, "relation_names")?;
    g.attribute_names = read_names(take(TAG_ATTR_NAMES)?, n_a as usize, "attribute_names")?;

    // Three u32 columns: heads, relations, tails.
    let body = take(TAG_TRIPLES)?;
    if body.len() as u64 != 12 * n_t {
        return Err(corrupt("triples", "body length does not match counts"));
    }
    g.triples.reserve_exact(n_t as usize);
    let (heads, rest) = body.split_at(4 * n_t as usize);
    let (rels, tails) = rest.split_at(4 * n_t as usize);
    for ((head, rel), tail) in u32s(heads).zip(u32s(rels)).zip(u32s(tails)) {
        if !((u64::from(head) < n_e) & (u64::from(rel) < n_r) & (u64::from(tail) < n_e)) {
            let ids = [
                (head, n_e, "head"),
                (rel, n_r, "relation"),
                (tail, n_e, "tail"),
            ];
            return Err(out_of_range("triples", &ids));
        }
        g.add_triple(EntityId(head), RelationId(rel), EntityId(tail));
    }

    // Two u32 columns, entities and attributes, then the f64 values.
    let body = take(TAG_NUMERICS)?;
    if body.len() as u64 != 16 * n_n {
        return Err(corrupt("numerics", "body length does not match counts"));
    }
    g.numerics.reserve_exact(n_n as usize);
    let (entities, rest) = body.split_at(4 * n_n as usize);
    let (attrs, values) = rest.split_at(4 * n_n as usize);
    let values = values
        .chunks_exact(8)
        .map(|w| f64::from_le_bytes(w.try_into().unwrap()));
    for ((entity, attr), value) in u32s(entities).zip(u32s(attrs)).zip(values) {
        if !((u64::from(entity) < n_e) & (u64::from(attr) < n_a)) {
            let ids = [(entity, n_e, "entity"), (attr, n_a, "attribute")];
            return Err(out_of_range("numerics", &ids));
        }
        if !value.is_finite() {
            return Err(corrupt("numerics", "non-finite value"));
        }
        g.add_numeric(EntityId(entity), AttributeId(attr), value);
    }
    g.build_index();
    Ok(g)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ids::DirRel;
    use crate::synth::{yago15k_sim, SynthScale};
    use crate::view::GraphView;
    use cf_check::TempDir;
    use cf_rand::rngs::StdRng;
    use cf_rand::SeedableRng;

    /// A fresh directory (removed on drop) and a file path inside it.
    fn tmp(name: &str) -> (TempDir, std::path::PathBuf) {
        let dir = TempDir::new("kg_store");
        let p = dir.join(format!("{name}.cfkg"));
        (dir, p)
    }

    fn sample_graph() -> KnowledgeGraph {
        let mut rng = StdRng::seed_from_u64(7);
        yago15k_sim(SynthScale::small(), &mut rng)
    }

    #[test]
    fn round_trip_owned() {
        let g = sample_graph();
        let (_dir, p) = tmp("roundtrip");
        write_store(&g, &p).unwrap();
        let g2 = read_store(&p).unwrap();
        assert_eq!(g.num_entities(), g2.num_entities());
        assert_eq!(g.num_relations(), g2.num_relations());
        assert_eq!(g.num_attributes(), g2.num_attributes());
        assert_eq!(g.triples(), g2.triples());
        assert_eq!(g.numerics(), g2.numerics());
        for e in GraphView::entities(&g) {
            assert_eq!(g.neighbors(e), g2.neighbors(e));
            assert_eq!(g.numerics_of(e), g2.numerics_of(e));
            assert_eq!(g.entity_name(e), g2.entity_name(e));
        }
        for a in 0..g.num_attributes() as u32 {
            let a = AttributeId(a);
            assert_eq!(g.entities_with_attribute(a), g2.entities_with_attribute(a));
            assert_eq!(g.attribute_name(a), g2.attribute_name(a));
        }
        for r in 0..g.num_relations() as u32 {
            let r = RelationId(r);
            assert_eq!(g.relation_name(r), g2.relation_name(r));
            assert_eq!(
                g.dir_rel_name(DirRel::inverse(r)),
                g2.dir_rel_name(DirRel::inverse(r))
            );
        }
    }

    #[test]
    fn rewrite_is_byte_identical() {
        let g = sample_graph();
        let (_p1_dir, p1) = tmp("bytes1");
        let (_p2_dir, p2) = tmp("bytes2");
        write_store(&g, &p1).unwrap();
        let g2 = read_store(&p1).unwrap();
        write_store(&g2, &p2).unwrap();
        let b1 = std::fs::read(&p1).unwrap();
        let b2 = std::fs::read(&p2).unwrap();
        assert_eq!(b1, b2, "load→rewrite must be byte-identical");
    }

    /// A store holds only the facts, so whether the CSR indexes were built
    /// does not change a byte.
    #[test]
    fn unindexed_graph_writes_the_indexed_bytes() {
        let mut g = KnowledgeGraph::new();
        let x = g.add_entity("x");
        let y = g.add_entity("y");
        let r = g.add_relation_type("r");
        let a = g.add_attribute_type("a");
        g.add_triple(x, r, y);
        g.add_numeric(y, a, 2.5);
        let (_dir, before) = tmp("unindexed");
        write_store(&g, &before).unwrap();
        g.build_index();
        let after = before.with_file_name("indexed.cfkg");
        write_store(&g, &after).unwrap();
        assert_eq!(
            std::fs::read(&before).unwrap(),
            std::fs::read(&after).unwrap()
        );
    }

    /// Stores written while the format still carried its derived CSR
    /// sections (tags 7–9, just before the end marker) load to the same
    /// graph, and those sections stay under the whole-file CRC promise.
    #[test]
    fn legacy_index_sections_are_checked_and_skipped() {
        let g = sample_graph();
        let (_dir, p) = tmp("facts");
        write_store(&g, &p).unwrap();
        let clean = std::fs::read(&p).unwrap();
        // Re-seal: every fact section as written, then adjacency, numeric
        // index and attribute index in the old layout, then a new end
        // marker and footer over all nine CRCs.
        let mut crcs: Vec<u32> = walk_sections(&clean, &STORE_MAGIC, section_name)
            .unwrap()
            .iter()
            .map(|s| s.crc)
            .collect();
        let mut legacy = clean[..clean.len() - 24].to_vec();
        let (n_e, n_a) = (g.num_entities() as u64, g.num_attributes() as u64);
        let (n_t, n_n) = (g.triples().len() as u64, g.numerics().len() as u64);
        let mut s = SectionWriter::begin(&mut legacy, 7, 8 * (n_e + 1) + 24 * n_t).unwrap();
        let mut off = 0u64;
        s.put_u64(0).unwrap();
        for e in GraphView::entities(&g) {
            off += g.neighbors(e).len() as u64;
            s.put_u64(off).unwrap();
        }
        for e in GraphView::entities(&g) {
            for edge in g.neighbors(e) {
                s.put_u32(edge.dr.rel.0).unwrap();
                s.put_u32(u32::from(edge.dr.dir == crate::ids::Dir::Inverse))
                    .unwrap();
                s.put_u32(edge.to.0).unwrap();
            }
        }
        crcs.push(s.finish().unwrap());
        let mut s = SectionWriter::begin(&mut legacy, 8, 8 * (n_e + 1) + 16 * n_n).unwrap();
        let mut off = 0u64;
        s.put_u64(0).unwrap();
        for e in GraphView::entities(&g) {
            off += g.numerics_of(e).len() as u64;
            s.put_u64(off).unwrap();
        }
        for e in GraphView::entities(&g) {
            for f in g.numerics_of(e) {
                s.put_u64(u64::from(f.attr.0)).unwrap();
                s.put_f64(f.value).unwrap();
            }
        }
        crcs.push(s.finish().unwrap());
        let mut s = SectionWriter::begin(&mut legacy, 9, 8 * (n_a + 1) + 16 * n_n).unwrap();
        let mut off = 0u64;
        s.put_u64(0).unwrap();
        for a in 0..n_a as u32 {
            off += g.entities_with_attribute(AttributeId(a)).len() as u64;
            s.put_u64(off).unwrap();
        }
        for a in 0..n_a as u32 {
            for o in g.entities_with_attribute(AttributeId(a)) {
                s.put_u64(u64::from(o.entity.0)).unwrap();
                s.put_f64(o.value).unwrap();
            }
        }
        crcs.push(s.finish().unwrap());
        write_end(&mut legacy, &crcs).unwrap();
        std::fs::write(&p, &legacy).unwrap();

        let loaded = read_store(&p).unwrap();
        assert_eq!(loaded.triples(), g.triples());
        assert_eq!(loaded.numerics(), g.numerics());
        let (_dir2, rewritten) = tmp("rewritten");
        write_store(&loaded, &rewritten).unwrap();
        assert_eq!(std::fs::read(&rewritten).unwrap(), clean);

        let extra = walk_sections(&legacy, &STORE_MAGIC, section_name).unwrap();
        for s in extra.iter().filter(|s| s.tag >= 7) {
            let mut bad = legacy.clone();
            bad[s.body.start + s.body.len() / 2] ^= 0x5A;
            std::fs::write(&p, &bad).unwrap();
            match read_store(&p) {
                Err(StoreError::BadCrc { .. }) => {}
                other => panic!("tag {}: expected BadCrc, got {other:?}", s.tag),
            }
        }
    }

    #[test]
    fn every_section_corruption_is_a_typed_error() {
        let g = sample_graph();
        let (_dir, p) = tmp("corrupt");
        write_store(&g, &p).unwrap();
        let clean = std::fs::read(&p).unwrap();
        // Flip one byte at a spread of offsets covering every section; each
        // must yield Err, never a panic or an Ok garbage graph.
        let step = (clean.len() / 97).max(1);
        for off in (8..clean.len()).step_by(step) {
            let mut bad = clean.clone();
            bad[off] ^= 0xA5;
            std::fs::write(&p, &bad).unwrap();
            assert!(read_store(&p).is_err(), "corruption at {off} not detected");
        }
        // Truncations at every boundary class.
        for cut in [0, 4, 8, 15, clean.len() / 2, clean.len() - 1] {
            std::fs::write(&p, &clean[..cut]).unwrap();
            assert!(read_store(&p).is_err(), "truncation at {cut}");
        }
    }

    /// Rewrites every section CRC and the footer of a sectioned image
    /// (CFKG1 or CFCI1), so an edit inside a body passes every checksum and
    /// reaches the checks behind them.
    pub(crate) fn reseal(file: &mut [u8]) {
        let magic: [u8; 8] = file[..8].try_into().unwrap();
        let mut footer = Crc::new();
        for s in walk_sections(file, &magic, section_name).unwrap() {
            let crc = crc32(&file[s.body.clone()]).to_le_bytes();
            let at = s.body.start + s.body.len().next_multiple_of(8);
            file[at..at + 4].copy_from_slice(&crc);
            footer.update(&crc);
        }
        let at = file.len() - 8;
        file[at..at + 4].copy_from_slice(&footer.finish().to_le_bytes());
    }

    /// Every structural rule fails on its own, under good CRCs, with its
    /// own verdict naming its section: one broken field per case. A
    /// single flipped byte never gets this far (it fails a CRC or the
    /// section walk first), so only resealed edits reach these rules.
    #[test]
    fn structural_rules_are_checked_behind_the_crc() {
        let mut g = KnowledgeGraph::new();
        let x = g.add_entity("x");
        let e = g.add_entity("é"); // two UTF-8 bytes
        let y = g.add_entity("y");
        let r = g.add_relation_type("r");
        let a = g.add_attribute_type("a");
        g.add_triple(x, r, e);
        g.add_triple(e, r, y);
        g.add_numeric(e, a, 2.5);
        g.add_numeric(y, a, -1.0);
        let (_dir, p) = tmp("rules");
        write_store(&g, &p).unwrap();
        let clean = std::fs::read(&p).unwrap();
        let sections = walk_sections(&clean, &STORE_MAGIC, section_name).unwrap();
        let body = |tag: u32| sections.iter().find(|s| s.tag == tag).unwrap().body.start;
        let counts = body(TAG_COUNTS);
        // Offsets [0, 1, 3, 4], then the blob "xéy".
        let names = body(TAG_ENTITY_NAMES);
        let blob = names + 32;
        // Two triples: heads, relations, tails; two numerics: entities,
        // attributes, values.
        let (triples, numerics) = (body(TAG_TRIPLES), body(TAG_NUMERICS));
        let word = |v: u32| v.to_le_bytes().to_vec();
        let wide = |v: u64| v.to_le_bytes().to_vec();
        let corrupt = |s: &str, what: &str| format!("section {s:?} is corrupt: {what}");
        let too_large = "section \"counts\" exceeds its length cap".to_string();
        let cases = [
            (triples, word(3), corrupt("triples", "head id out of range")),
            (
                triples + 12,
                word(1),
                corrupt("triples", "relation id out of range"),
            ),
            (
                triples + 16,
                word(3),
                corrupt("triples", "tail id out of range"),
            ),
            (
                numerics + 4,
                word(3),
                corrupt("numerics", "entity id out of range"),
            ),
            (
                numerics + 8,
                word(1),
                corrupt("numerics", "attribute id out of range"),
            ),
            (
                numerics + 16,
                wide(f64::NAN.to_bits()),
                corrupt("numerics", "non-finite value"),
            ),
            (
                numerics + 24,
                wide(f64::INFINITY.to_bits()),
                corrupt("numerics", "non-finite value"),
            ),
            (
                names,
                wide(1),
                corrupt("entity_names", "offsets do not start at 0"),
            ),
            (
                names + 16,
                wide(0),
                corrupt("entity_names", "offsets are not monotone"),
            ),
            (
                names + 24,
                wide(5),
                corrupt("entity_names", "offsets end at 5 expected 4"),
            ),
            (
                blob,
                vec![0xFF],
                corrupt("entity_names", "name is not valid UTF-8"),
            ),
            (
                names + 16,
                wide(2),
                corrupt("entity_names", "name is not valid UTF-8"),
            ),
            (
                counts + 24,
                wide(3),
                corrupt("triples", "body length does not match counts"),
            ),
            (
                counts + 32,
                wide(3),
                corrupt("numerics", "body length does not match counts"),
            ),
            (counts, wide(MAX_VOCAB + 1), too_large.clone()),
            (counts + 32, wide(MAX_FACTS + 1), too_large),
        ];
        for (at, field, want) in cases {
            let mut bad = clean.clone();
            bad[at..at + field.len()].copy_from_slice(&field);
            reseal(&mut bad);
            std::fs::write(&p, &bad).unwrap();
            match read_store(&p) {
                Err(err) if err.to_string() == want => {}
                other => panic!("byte {at}: want {want:?}, got {other:?}"),
            }
        }
        let mut same = clean.clone();
        reseal(&mut same);
        assert_eq!(same, clean, "resealing a clean store changes nothing");
    }

    #[test]
    fn corruption_error_names_the_section() {
        let g = sample_graph();
        let (_dir, p) = tmp("named");
        write_store(&g, &p).unwrap();
        let mut bad = std::fs::read(&p).unwrap();
        // Offset 24 sits inside the counts body (first section starts at 8,
        // header is 16 bytes): corrupting it must fail the counts CRC.
        bad[24] ^= 0xFF;
        std::fs::write(&p, &bad).unwrap();
        match read_store(&p) {
            Err(StoreError::BadCrc { section }) => assert_eq!(section, "counts"),
            other => panic!("expected BadCrc(counts), got {other:?}"),
        }
    }

    #[test]
    fn empty_graph_round_trips() {
        let mut g = KnowledgeGraph::new();
        g.build_index();
        let (_dir, p) = tmp("empty");
        write_store(&g, &p).unwrap();
        let g2 = read_store(&p).unwrap();
        assert_eq!(g2.num_entities(), 0);
        assert_eq!(g2.triples().len(), 0);
    }
}
