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
//! Sections (all counts come from COUNTS; every body length is re-derived
//! from the counts and must match exactly):
//!
//! | tag | section          | body                                          |
//! |-----|------------------|-----------------------------------------------|
//! | 1   | counts           | `u64 × 6`: n_e, n_r, n_a, n_t, n_n, flags     |
//! | 2   | entity_names     | `u64` offsets `[n_e+1]` + UTF-8 blob           |
//! | 3   | relation_names   | `u64` offsets `[n_r+1]` + UTF-8 blob           |
//! | 4   | attribute_names  | `u64` offsets `[n_a+1]` + UTF-8 blob           |
//! | 5   | triples          | heads `u32[n_t]`, rels `u32[n_t]`, tails …     |
//! | 6   | numerics         | entities `u32[n_n]`, attrs `u32[n_n]`, values `f64[n_n]` |
//! | 7   | adjacency        | offsets `u64[n_e+1]` + `Edge[2·n_t]` (12 B)    |
//! | 8   | numeric_index    | offsets `u64[n_e+1]` + `AttrFact[n_n]` (16 B)  |
//! | 9   | attribute_index  | offsets `u64[n_a+1]` + `AttrOwner[n_n]` (16 B) |
//!
//! Two load paths:
//! - [`read_store`] copies into an owned [`KnowledgeGraph`] (for training,
//!   splitting, anything that mutates);
//! - [`MappedGraph::open`] validates once — every section CRC, every offset
//!   array monotone and bounded, every id in range, every direction ∈ {0,1},
//!   every value finite, every name UTF-8 — and then serves slices straight
//!   out of the mapping with zero copies. The unsafe casts below are sound
//!   *because* open refuses any file that fails those checks.
//!
//! Corrupt files yield a typed [`StoreError`] naming the failing section;
//! they can never produce a panic or a garbage graph.

use crate::graph::{AttrFact, AttrOwner, Edge, KnowledgeGraph};
use crate::ids::{AttributeId, EntityId, RelationId};
use crate::mmapio::Mmap;
use crate::view::GraphView;
use cf_tensor::crc::{crc32, Crc};
use std::io::Write;
use std::ops::Range;
use std::path::Path;

/// File magic for the graph store.
pub const STORE_MAGIC: [u8; 8] = *b"CFKG1\x00\x00\x00";

const TAG_COUNTS: u32 = 1;
const TAG_ENTITY_NAMES: u32 = 2;
const TAG_REL_NAMES: u32 = 3;
const TAG_ATTR_NAMES: u32 = 4;
const TAG_TRIPLES: u32 = 5;
const TAG_NUMERICS: u32 = 6;
const TAG_ADJ: u32 = 7;
const TAG_NUMIDX: u32 = 8;
const TAG_ATTRIDX: u32 = 9;
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
        TAG_ADJ => "adjacency",
        TAG_NUMIDX => "numeric_index",
        TAG_ATTRIDX => "attribute_index",
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
    Io(std::io::Error),
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
    /// [`write_store`] was called on a graph without built indexes.
    NotIndexed,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
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
            StoreError::NotIndexed => {
                write!(
                    f,
                    "graph must be indexed (build_index) before writing a store"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
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
    /// The stored body CRC. Verified by the walker when `verify_bodies`,
    /// otherwise the caller must verify it (possibly fused with its own
    /// scan) before trusting the body.
    pub(crate) crc: u32,
}

/// Walks the section stream of `bytes` (after `magic`), verifying the
/// geometry, all padding, and the footer CRC. Returns the located sections
/// in file order. Unknown tags are returned too (forward compat); the
/// caller decides which tags it requires.
///
/// With `verify_bodies` every section body is CRC-checked here; without it
/// the caller takes over body verification (the store open path fuses the
/// CRC with structural scans so the file is read once, not twice).
///
/// Every padding byte (header pad word, body zero-padding, trailer pad
/// word, footer pad word) must be zero and trailing bytes after the footer
/// are rejected, so *any* single-byte corruption in the file is detected.
pub(crate) fn walk_sections(
    bytes: &[u8],
    magic: &[u8; 8],
    names: fn(u32) -> &'static str,
    verify_bodies: bool,
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
        if verify_bodies && crc32(&bytes[body.clone()]) != stored {
            return Err(StoreError::BadCrc {
                section: names(tag),
            });
        }
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
// typed slice casts
// ---------------------------------------------------------------------------

// All casts below require: the byte range was structurally validated at open
// (length divisible by the element size, contents in range) and the buffer
// base is 8-byte aligned (guaranteed by Mmap). Alignment of the *range* is
// asserted — cheap O(1) checks that stay on in release builds.

pub(crate) fn cast_u64s(bytes: &[u8]) -> &[u64] {
    assert!(bytes.as_ptr() as usize % 8 == 0 && bytes.len() % 8 == 0);
    // SAFETY: alignment and length checked above; u64 has no invalid bits.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const u64, bytes.len() / 8) }
}

pub(crate) fn cast_u32s(bytes: &[u8]) -> &[u32] {
    assert!(bytes.as_ptr() as usize % 4 == 0 && bytes.len() % 4 == 0);
    // SAFETY: alignment and length checked above; u32 has no invalid bits.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const u32, bytes.len() / 4) }
}

fn cast_edges(bytes: &[u8]) -> &[Edge] {
    assert!(bytes.as_ptr() as usize % 4 == 0 && bytes.len() % 12 == 0);
    // SAFETY: Edge is repr(C) {u32, u32 (Dir), u32}, size 12, align 4. The
    // open-time validation accepted only dir values in {0,1}, so every
    // 12-byte group is a valid Edge.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const Edge, bytes.len() / 12) }
}

fn cast_attr_facts(bytes: &[u8]) -> &[AttrFact] {
    assert!(bytes.as_ptr() as usize % 8 == 0 && bytes.len() % 16 == 0);
    // SAFETY: AttrFact is repr(C) {u32, pad, f64}, size 16, align 8; all bit
    // patterns of the fields are inhabited (padding is never read).
    unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const AttrFact, bytes.len() / 16) }
}

fn cast_attr_owners(bytes: &[u8]) -> &[AttrOwner] {
    assert!(bytes.as_ptr() as usize % 8 == 0 && bytes.len() % 16 == 0);
    // SAFETY: as cast_attr_facts; AttrOwner has the same layout.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const AttrOwner, bytes.len() / 16) }
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

/// Serializes an indexed graph to `path` as CFKG1, atomically.
///
/// The byte output is a pure function of the graph (names, triples and
/// numerics in insertion order, CSR indexes as built by `build_index`) —
/// re-ingesting identical TSV input yields a byte-identical store file.
pub fn write_store(g: &KnowledgeGraph, path: impl AsRef<Path>) -> Result<(), StoreError> {
    let path = path.as_ref();
    if !g.indexed {
        return Err(StoreError::NotIndexed);
    }
    cf_tensor::write_atomic(path, |w| {
        w.write_all(&STORE_MAGIC)?;
        let mut crcs = Vec::with_capacity(9);

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

        let n_edges = g.adj_edges.len() as u64;
        let mut s = SectionWriter::begin(w, TAG_ADJ, 8 * (n_e + 1) + 12 * n_edges)?;
        for &o in &g.adj_offsets {
            s.put_u64(o as u64)?;
        }
        for e in &g.adj_edges {
            s.put_u32(e.dr.rel.0)?;
            s.put_u32(e.dr.dir as u32)?;
            s.put_u32(e.to.0)?;
        }
        crcs.push(s.finish()?);

        let mut s = SectionWriter::begin(w, TAG_NUMIDX, 8 * (n_e + 1) + 16 * n_n)?;
        for &o in &g.num_offsets {
            s.put_u64(o as u64)?;
        }
        for f in &g.num_facts {
            s.put_u32(f.attr.0)?;
            s.put_u32(0)?;
            s.put_f64(f.value)?;
        }
        crcs.push(s.finish()?);

        let mut s = SectionWriter::begin(w, TAG_ATTRIDX, 8 * (n_a + 1) + 16 * n_n)?;
        for &o in &g.attr_offsets {
            s.put_u64(o as u64)?;
        }
        for f in &g.attr_facts {
            s.put_u32(f.entity.0)?;
            s.put_u32(0)?;
            s.put_f64(f.value)?;
        }
        crcs.push(s.finish()?);

        write_end(w, &crcs)?;
        Ok(())
    })
}

// ---------------------------------------------------------------------------
// layout (validated section ranges)
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
struct Counts {
    n_e: usize,
    n_r: usize,
    n_a: usize,
    n_t: usize,
    n_n: usize,
}

#[derive(Clone, Debug)]
struct StrTable {
    offsets: Range<usize>,
    blob: Range<usize>,
}

#[derive(Clone, Debug)]
struct Layout {
    counts: Counts,
    ent_names: StrTable,
    rel_names: StrTable,
    attr_names: StrTable,
    heads: Range<usize>,
    rels: Range<usize>,
    tails: Range<usize>,
    num_entities_col: Range<usize>,
    num_attrs_col: Range<usize>,
    num_values_col: Range<usize>,
    adj_offsets: Range<usize>,
    adj_edges: Range<usize>,
    num_offsets: Range<usize>,
    num_facts: Range<usize>,
    attr_offsets: Range<usize>,
    attr_facts: Range<usize>,
}

fn corrupt(section: &'static str, what: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        section,
        what: what.into(),
    }
}

cf_tensor::simd_hot! {
    /// Branchless monotonicity fold: true if any adjacent pair decreases.
    /// No per-element early exit, so the loop vectorizes.
    fn non_monotone_u64(vals: &[u64]) -> bool {
        vals.windows(2).fold(false, |bad, w| bad | (w[0] > w[1]))
    }
}

/// Checks `offsets` is a valid CSR offsets array: starts at 0, monotone,
/// ends exactly at `total`.
fn check_offsets(offsets: &[u64], total: u64, section: &'static str) -> Result<(), StoreError> {
    if offsets.first() != Some(&0) {
        return Err(corrupt(section, "offsets do not start at 0"));
    }
    if non_monotone_u64(offsets) {
        return Err(corrupt(section, "offsets are not monotone"));
    }
    if offsets.last() != Some(&total) {
        return Err(corrupt(
            section,
            format!(
                "offsets end at {} expected {total}",
                offsets.last().unwrap()
            ),
        ));
    }
    Ok(())
}

cf_tensor::simd_hot! {
    /// Max over a u32 slice (no early exit needed — we compare once).
    fn max_u32(s: &[u32]) -> u32 {
        s.iter().fold(0, |m, &x| m.max(x))
    }
}

/// Verdict half of the old per-column id check: `max` was accumulated by a
/// fused scan, the bound comparison happens once here.
fn check_max_id(
    max: u32,
    nonempty: bool,
    bound: usize,
    section: &'static str,
    what: &str,
) -> Result<(), StoreError> {
    if nonempty && max as usize >= bound {
        return Err(corrupt(section, format!("{what} id out of range")));
    }
    Ok(())
}

cf_tensor::simd_hot! {
    /// All-ones-exponent fold over raw f64 bits (true = some non-finite value).
    fn fold_non_finite(bits: &[u64]) -> bool {
        bits.iter()
            .fold(false, |acc, &b| acc | ((b >> 52) & 0x7FF == 0x7FF))
    }
}

/// Tile size for fused CRC+scan passes: fits in L2 next to the CRC tables,
/// and is divisible by every record size in the format (4, 8, 12, 16), so
/// `chunks(FUSE_TILE)` keeps every tile record-aligned.
const FUSE_TILE: usize = 192 << 10;

/// Streams the subranges of one section body through the CRC while handing
/// each cache-hot tile to a structural fold — open validates a big section
/// in a single pass over memory instead of a CRC sweep plus a scan sweep.
///
/// Feed the subranges **in body order and covering the whole body**, or the
/// CRC will not match. The folds only accumulate (max/or reductions); their
/// verdicts are checked after [`FusedCrc::check`], so a body is never
/// trusted before its CRC is.
struct FusedCrc<'a> {
    bytes: &'a [u8],
    crc: Crc,
}

impl<'a> FusedCrc<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        FusedCrc {
            bytes,
            crc: Crc::new(),
        }
    }

    fn feed(&mut self, sub: &Range<usize>, fold: &mut dyn FnMut(&[u8])) {
        for tile in self.bytes[sub.clone()].chunks(FUSE_TILE) {
            self.crc.update(tile);
            fold(tile);
        }
    }

    fn check(self, stored: u32, section: &'static str) -> Result<(), StoreError> {
        if self.crc.finish() != stored {
            return Err(StoreError::BadCrc { section });
        }
        Ok(())
    }
}

/// Incremental CSR-offsets validation, fed tile by tile in order; same
/// verdicts and messages as [`check_offsets`].
struct MonoScan {
    first: Option<u64>,
    prev: u64,
    ok: bool,
}

impl MonoScan {
    fn new() -> Self {
        MonoScan {
            first: None,
            prev: 0,
            ok: true,
        }
    }

    fn feed(&mut self, vals: &[u64]) {
        let Some(&v0) = vals.first() else { return };
        if self.first.is_none() {
            self.first = Some(v0);
        } else {
            self.ok &= self.prev <= v0;
        }
        self.ok &= !non_monotone_u64(vals);
        self.prev = *vals.last().unwrap();
    }

    fn check(&self, total: u64, section: &'static str) -> Result<(), StoreError> {
        if self.first != Some(0) {
            return Err(corrupt(section, "offsets do not start at 0"));
        }
        if !self.ok {
            return Err(corrupt(section, "offsets are not monotone"));
        }
        if self.prev != total {
            return Err(corrupt(
                section,
                format!("offsets end at {} expected {total}", self.prev),
            ));
        }
        Ok(())
    }
}

/// One-shot CRC verification for small sections that are validated by
/// dedicated code (counts, name tables) rather than a fused scan.
fn verify_crc(
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

cf_tensor::simd_hot! {
/// Branchless scan of interleaved `[id u32 | pad][f64 bits]` pairs (the
/// AttrFact / AttrOwner wire layout): returns the max id and whether any
/// value word has an all-ones exponent. One pass, no per-element branches.
fn scan_id_value_pairs(raw: &[u64]) -> (u32, bool) {
    // Four independent accumulator lanes (8 words = 4 records per step) so
    // the reduction is not serialized through one max/or chain.
    let mut m = [0u32; 4];
    let mut nf = [false; 4];
    let mut oct = raw.chunks_exact(8);
    for c in &mut oct {
        m[0] = m[0].max(c[0] as u32);
        m[1] = m[1].max(c[2] as u32);
        m[2] = m[2].max(c[4] as u32);
        m[3] = m[3].max(c[6] as u32);
        nf[0] |= (c[1] >> 52) & 0x7FF == 0x7FF;
        nf[1] |= (c[3] >> 52) & 0x7FF == 0x7FF;
        nf[2] |= (c[5] >> 52) & 0x7FF == 0x7FF;
        nf[3] |= (c[7] >> 52) & 0x7FF == 0x7FF;
    }
    let mut max_id = m[0].max(m[1]).max(m[2]).max(m[3]);
    let mut non_finite = nf[0] | nf[1] | nf[2] | nf[3];
    for pair in oct.remainder().chunks_exact(2) {
        max_id = max_id.max(pair[0] as u32);
        non_finite |= (pair[1] >> 52) & 0x7FF == 0x7FF;
    }
    (max_id, non_finite)
}
}

cf_tensor::simd_hot! {
/// Branchless 3-lane max over raw edge words `[rel, dir, tail]*` — four
/// edges (12 words) per step so the stride-3 reductions are not serialized
/// on one accumulator per field. `raw.len()` must be a multiple of 3.
fn scan_edges(raw: &[u32]) -> (u32, u32, u32) {
    let (mut mr, mut md, mut mt) = (0u32, 0u32, 0u32);
    let mut quads = raw.chunks_exact(12);
    for c in &mut quads {
        mr = mr.max(c[0]).max(c[3]).max(c[6]).max(c[9]);
        md = md.max(c[1]).max(c[4]).max(c[7]).max(c[10]);
        mt = mt.max(c[2]).max(c[5]).max(c[8]).max(c[11]);
    }
    for c in quads.remainder().chunks_exact(3) {
        mr = mr.max(c[0]);
        md = md.max(c[1]);
        mt = mt.max(c[2]);
    }
    (mr, md, mt)
}
}

fn validate_str_table(
    bytes: &[u8],
    body: Range<usize>,
    n: usize,
    section: &'static str,
) -> Result<StrTable, StoreError> {
    let need = 8 * (n + 1);
    if body.len() < need {
        return Err(corrupt(section, "body shorter than offsets table"));
    }
    let offsets = body.start..body.start + need;
    let blob = body.start + need..body.end;
    if blob.len() as u64 > MAX_NAME_BYTES {
        return Err(StoreError::TooLarge { section });
    }
    let offs = cast_u64s(&bytes[offsets.clone()]);
    check_offsets(offs, blob.len() as u64, section)?;
    let blob_bytes = &bytes[blob.clone()];
    // Every name must be valid UTF-8 on its own. Equivalent formulation
    // that avoids a `from_utf8` call per name: the whole blob is valid and
    // every offset lands on a char boundary (no name starts or ends
    // mid-codepoint).
    let blob_str =
        std::str::from_utf8(blob_bytes).map_err(|_| corrupt(section, "name is not valid UTF-8"))?;
    let boundaries_ok = offs
        .iter()
        .fold(true, |ok, &o| ok & blob_str.is_char_boundary(o as usize));
    if !boundaries_ok {
        return Err(corrupt(section, "name is not valid UTF-8"));
    }
    Ok(StrTable { offsets, blob })
}

fn parse_store(bytes: &[u8]) -> Result<Layout, StoreError> {
    // Body CRCs are NOT verified by the walker here: each known section's
    // CRC is verified below, fused with its structural scan for the big
    // array sections, so open reads the file once instead of twice.
    let sections = walk_sections(bytes, &STORE_MAGIC, section_name, false)?;
    let mut found: [Option<(Range<usize>, u32)>; 10] = Default::default();
    for s in sections {
        if (1..=9).contains(&s.tag) {
            let slot = &mut found[s.tag as usize];
            if slot.is_some() {
                return Err(StoreError::Duplicate {
                    section: section_name(s.tag),
                });
            }
            *slot = Some((s.body, s.crc));
        } else {
            // Unknown tags are skipped, but still CRC-verified: forward
            // compat must not weaken the whole-file integrity promise.
            verify_crc(bytes, &s.body, s.crc, section_name(s.tag))?;
        }
    }
    let take = |tag: u32| -> Result<(Range<usize>, u32), StoreError> {
        found[tag as usize].clone().ok_or(StoreError::Missing {
            section: section_name(tag),
        })
    };

    // counts
    let (c, c_crc) = take(TAG_COUNTS)?;
    verify_crc(bytes, &c, c_crc, "counts")?;
    if c.len() != 48 {
        return Err(corrupt("counts", "expected 48-byte body"));
    }
    let vals = cast_u64s(&bytes[c]);
    let (n_e, n_r, n_a, n_t, n_n) = (vals[0], vals[1], vals[2], vals[3], vals[4]);
    if n_e > MAX_VOCAB || n_r > MAX_VOCAB || n_a > MAX_VOCAB {
        return Err(StoreError::TooLarge { section: "counts" });
    }
    if n_t > MAX_FACTS || n_n > MAX_FACTS {
        return Err(StoreError::TooLarge { section: "counts" });
    }
    let counts = Counts {
        n_e: n_e as usize,
        n_r: n_r as usize,
        n_a: n_a as usize,
        n_t: n_t as usize,
        n_n: n_n as usize,
    };

    // name tables (~5% of the file: plain CRC, then the dedicated
    // offsets+UTF-8 validation — fusing the UTF-8 walk isn't worth the
    // chunk-boundary carry logic)
    let (b, crc) = take(TAG_ENTITY_NAMES)?;
    verify_crc(bytes, &b, crc, "entity_names")?;
    let ent_names = validate_str_table(bytes, b, counts.n_e, "entity_names")?;
    let (b, crc) = take(TAG_REL_NAMES)?;
    verify_crc(bytes, &b, crc, "relation_names")?;
    let rel_names = validate_str_table(bytes, b, counts.n_r, "relation_names")?;
    let (b, crc) = take(TAG_ATTR_NAMES)?;
    verify_crc(bytes, &b, crc, "attribute_names")?;
    let attr_names = validate_str_table(bytes, b, counts.n_a, "attribute_names")?;

    // triples: fused CRC + per-column max-id scan
    let (t, t_crc) = take(TAG_TRIPLES)?;
    if t.len() != 12 * counts.n_t {
        return Err(corrupt("triples", "body length does not match counts"));
    }
    let col = 4 * counts.n_t;
    let heads = t.start..t.start + col;
    let rels = t.start + col..t.start + 2 * col;
    let tails = t.start + 2 * col..t.end;
    {
        let mut fused = FusedCrc::new(bytes);
        let (mut mh, mut mr, mut mt) = (0u32, 0u32, 0u32);
        fused.feed(&heads, &mut |t| mh = mh.max(max_u32(cast_u32s(t))));
        fused.feed(&rels, &mut |t| mr = mr.max(max_u32(cast_u32s(t))));
        fused.feed(&tails, &mut |t| mt = mt.max(max_u32(cast_u32s(t))));
        fused.check(t_crc, "triples")?;
        let nonempty = counts.n_t > 0;
        check_max_id(mh, nonempty, counts.n_e, "triples", "head")?;
        check_max_id(mr, nonempty, counts.n_r, "triples", "relation")?;
        check_max_id(mt, nonempty, counts.n_e, "triples", "tail")?;
    }

    // numerics: fused CRC + id columns + finite values
    let (nm, nm_crc) = take(TAG_NUMERICS)?;
    if nm.len() != 16 * counts.n_n {
        return Err(corrupt("numerics", "body length does not match counts"));
    }
    let col = 4 * counts.n_n;
    let num_entities_col = nm.start..nm.start + col;
    let num_attrs_col = nm.start + col..nm.start + 2 * col;
    let num_values_col = nm.start + 2 * col..nm.end;
    {
        let mut fused = FusedCrc::new(bytes);
        let (mut me, mut ma, mut nf) = (0u32, 0u32, false);
        fused.feed(&num_entities_col, &mut |t| {
            me = me.max(max_u32(cast_u32s(t)))
        });
        fused.feed(&num_attrs_col, &mut |t| ma = ma.max(max_u32(cast_u32s(t))));
        fused.feed(&num_values_col, &mut |t| {
            nf |= fold_non_finite(cast_u64s(t))
        });
        fused.check(nm_crc, "numerics")?;
        let nonempty = counts.n_n > 0;
        check_max_id(me, nonempty, counts.n_e, "numerics", "entity")?;
        check_max_id(ma, nonempty, counts.n_a, "numerics", "attribute")?;
        if nf {
            return Err(corrupt("numerics", "non-finite value"));
        }
    }

    // adjacency: fused CRC + offsets monotone + 3-lane edge max scan
    let (a, a_crc) = take(TAG_ADJ)?;
    let off_len = 8 * (counts.n_e + 1);
    let n_edges = 2 * counts.n_t;
    if a.len() != off_len + 12 * n_edges {
        return Err(corrupt("adjacency", "body length does not match counts"));
    }
    let adj_offsets = a.start..a.start + off_len;
    let adj_edges = a.start + off_len..a.end;
    {
        let mut fused = FusedCrc::new(bytes);
        let mut mono = MonoScan::new();
        let (mut mr, mut md, mut mt) = (0u32, 0u32, 0u32);
        fused.feed(&adj_offsets, &mut |t| mono.feed(cast_u64s(t)));
        fused.feed(&adj_edges, &mut |t| {
            let (r, d, e) = scan_edges(cast_u32s(t));
            mr = mr.max(r);
            md = md.max(d);
            mt = mt.max(e);
        });
        fused.check(a_crc, "adjacency")?;
        mono.check(n_edges as u64, "adjacency")?;
        if n_edges > 0 {
            if mr as usize >= counts.n_r {
                return Err(corrupt("adjacency", "relation id out of range"));
            }
            if md > 1 {
                return Err(corrupt("adjacency", "edge direction not in {0,1}"));
            }
            if mt as usize >= counts.n_e {
                return Err(corrupt("adjacency", "neighbor id out of range"));
            }
        }
    }

    // numeric index: fused CRC + offsets monotone + pair scan
    let (ni, ni_crc) = take(TAG_NUMIDX)?;
    if ni.len() != off_len + 16 * counts.n_n {
        return Err(corrupt(
            "numeric_index",
            "body length does not match counts",
        ));
    }
    let num_offsets = ni.start..ni.start + off_len;
    let num_facts = ni.start + off_len..ni.end;
    {
        let mut fused = FusedCrc::new(bytes);
        let mut mono = MonoScan::new();
        let (mut max_attr, mut non_finite) = (0u32, false);
        fused.feed(&num_offsets, &mut |t| mono.feed(cast_u64s(t)));
        // layout: [attr u32 | pad u32] [value f64] — even words hold the id
        // in their low half, odd words the value bits.
        fused.feed(&num_facts, &mut |t| {
            let (m, nf) = scan_id_value_pairs(cast_u64s(t));
            max_attr = max_attr.max(m);
            non_finite |= nf;
        });
        fused.check(ni_crc, "numeric_index")?;
        mono.check(counts.n_n as u64, "numeric_index")?;
        if counts.n_n > 0 && max_attr as usize >= counts.n_a {
            return Err(corrupt("numeric_index", "attribute id out of range"));
        }
        if non_finite {
            return Err(corrupt("numeric_index", "non-finite value"));
        }
    }

    // attribute index: fused CRC + offsets monotone + pair scan
    let (ai, ai_crc) = take(TAG_ATTRIDX)?;
    let aoff_len = 8 * (counts.n_a + 1);
    if ai.len() != aoff_len + 16 * counts.n_n {
        return Err(corrupt(
            "attribute_index",
            "body length does not match counts",
        ));
    }
    let attr_offsets = ai.start..ai.start + aoff_len;
    let attr_facts = ai.start + aoff_len..ai.end;
    {
        let mut fused = FusedCrc::new(bytes);
        let mut mono = MonoScan::new();
        let (mut max_ent, mut non_finite) = (0u32, false);
        fused.feed(&attr_offsets, &mut |t| mono.feed(cast_u64s(t)));
        fused.feed(&attr_facts, &mut |t| {
            let (m, nf) = scan_id_value_pairs(cast_u64s(t));
            max_ent = max_ent.max(m);
            non_finite |= nf;
        });
        fused.check(ai_crc, "attribute_index")?;
        mono.check(counts.n_n as u64, "attribute_index")?;
        if counts.n_n > 0 && max_ent as usize >= counts.n_e {
            return Err(corrupt("attribute_index", "entity id out of range"));
        }
        if non_finite {
            return Err(corrupt("attribute_index", "non-finite value"));
        }
    }

    Ok(Layout {
        counts,
        ent_names,
        rel_names,
        attr_names,
        heads,
        rels,
        tails,
        num_entities_col,
        num_attrs_col,
        num_values_col,
        adj_offsets,
        adj_edges,
        num_offsets,
        num_facts,
        attr_offsets,
        attr_facts,
    })
}

// ---------------------------------------------------------------------------
// owned load
// ---------------------------------------------------------------------------

/// Loads a CFKG1 file into an owned [`KnowledgeGraph`] (full validation,
/// then a copy). The CSR sections are revalidated by rebuilding them via
/// `build_index`, so a loaded-then-rewritten store is byte-identical.
pub fn read_store(path: impl AsRef<Path>) -> Result<KnowledgeGraph, StoreError> {
    let mem = Mmap::open(path)?;
    let bytes = mem.bytes();
    let layout = parse_store(bytes)?;
    let mut g = KnowledgeGraph::new();
    let name_at = |t: &StrTable, i: usize| -> &str {
        let offs = cast_u64s(&bytes[t.offsets.clone()]);
        let blob = &bytes[t.blob.clone()];
        let s = &blob[offs[i] as usize..offs[i + 1] as usize];
        std::str::from_utf8(s).expect("validated at open")
    };
    for i in 0..layout.counts.n_e {
        g.add_entity(name_at(&layout.ent_names, i));
    }
    for i in 0..layout.counts.n_r {
        g.add_relation_type(name_at(&layout.rel_names, i));
    }
    for i in 0..layout.counts.n_a {
        g.add_attribute_type(name_at(&layout.attr_names, i));
    }
    let heads = cast_u32s(&bytes[layout.heads.clone()]);
    let rels = cast_u32s(&bytes[layout.rels.clone()]);
    let tails = cast_u32s(&bytes[layout.tails.clone()]);
    for i in 0..layout.counts.n_t {
        g.add_triple(EntityId(heads[i]), RelationId(rels[i]), EntityId(tails[i]));
    }
    let nent = cast_u32s(&bytes[layout.num_entities_col.clone()]);
    let nattr = cast_u32s(&bytes[layout.num_attrs_col.clone()]);
    let nval = cast_u64s(&bytes[layout.num_values_col.clone()]);
    for i in 0..layout.counts.n_n {
        g.add_numeric(
            EntityId(nent[i]),
            AttributeId(nattr[i]),
            f64::from_bits(nval[i]),
        );
    }
    g.build_index();
    Ok(g)
}

// ---------------------------------------------------------------------------
// zero-copy view
// ---------------------------------------------------------------------------

/// Zero-copy graph view over an mmap'd CFKG1 file.
///
/// All validation happens once in [`MappedGraph::open`]; afterwards every
/// accessor is a bounds-computed slice into the mapping with no parsing, no
/// hashing and no allocation (except name formatting helpers).
#[derive(Debug)]
pub struct MappedGraph {
    mem: Mmap,
    layout: Layout,
}

impl MappedGraph {
    /// Opens and fully validates a CFKG1 file.
    pub fn open(path: impl AsRef<Path>) -> Result<MappedGraph, StoreError> {
        let mem = Mmap::open(path)?;
        let layout = parse_store(mem.bytes())?;
        Ok(MappedGraph { mem, layout })
    }

    /// Whether the kernel zero-copy mapping is in use (vs heap fallback).
    pub fn is_kernel_mapped(&self) -> bool {
        self.mem.is_kernel_mapped()
    }

    /// Total file size in bytes.
    pub fn file_len(&self) -> usize {
        self.mem.bytes().len()
    }

    fn str_at<'a>(&'a self, t: &StrTable, i: usize) -> &'a str {
        let offs = cast_u64s(&self.mem.bytes()[t.offsets.clone()]);
        let blob = &self.mem.bytes()[t.blob.clone()];
        let s = &blob[offs[i] as usize..offs[i + 1] as usize];
        std::str::from_utf8(s).expect("validated at open")
    }

    /// The triples section as its three id columns `(heads, rels, tails)`,
    /// file order — the same insertion order `read_store` would replay.
    pub(crate) fn triples_cols(&self) -> (&[u32], &[u32], &[u32]) {
        let b = self.mem.bytes();
        (
            cast_u32s(&b[self.layout.heads.clone()]),
            cast_u32s(&b[self.layout.rels.clone()]),
            cast_u32s(&b[self.layout.tails.clone()]),
        )
    }
}

impl GraphView for MappedGraph {
    fn num_entities(&self) -> usize {
        self.layout.counts.n_e
    }

    fn num_relations(&self) -> usize {
        self.layout.counts.n_r
    }

    fn num_attributes(&self) -> usize {
        self.layout.counts.n_a
    }

    fn neighbors(&self, e: EntityId) -> &[Edge] {
        let offs = cast_u64s(&self.mem.bytes()[self.layout.adj_offsets.clone()]);
        let i = e.0 as usize;
        let edges = cast_edges(&self.mem.bytes()[self.layout.adj_edges.clone()]);
        &edges[offs[i] as usize..offs[i + 1] as usize]
    }

    fn numerics_of(&self, e: EntityId) -> &[AttrFact] {
        let offs = cast_u64s(&self.mem.bytes()[self.layout.num_offsets.clone()]);
        let i = e.0 as usize;
        let facts = cast_attr_facts(&self.mem.bytes()[self.layout.num_facts.clone()]);
        &facts[offs[i] as usize..offs[i + 1] as usize]
    }

    fn entities_with_attribute(&self, a: AttributeId) -> &[AttrOwner] {
        let offs = cast_u64s(&self.mem.bytes()[self.layout.attr_offsets.clone()]);
        let i = a.0 as usize;
        let owners = cast_attr_owners(&self.mem.bytes()[self.layout.attr_facts.clone()]);
        &owners[offs[i] as usize..offs[i + 1] as usize]
    }

    fn entity_name(&self, e: EntityId) -> &str {
        self.str_at(&self.layout.ent_names, e.0 as usize)
    }

    fn relation_name(&self, r: RelationId) -> &str {
        self.str_at(&self.layout.rel_names, r.0 as usize)
    }

    fn attribute_name(&self, a: AttributeId) -> &str {
        self.str_at(&self.layout.attr_names, a.0 as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::DirRel;
    use crate::synth::{yago15k_sim, SynthScale};
    use cf_check::TempDir;
    use cf_rand::rngs::StdRng;
    use cf_rand::SeedableRng;
    use cf_tensor::simd;

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

    /// Every `simd_hot!` tier the host supports must agree with plain
    /// iterator reference implementations, at lengths around each fold's
    /// unroll width and with the extremum in every position class.
    #[test]
    fn wide_scans_match_reference() {
        let mut words = vec![0u64; 1536];
        let mut x = 0x0dd0_feed_4bad_c0deu64;
        for w in words.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // keep exponents non-all-ones so fold_non_finite defaults false
            *w = x & 0x7FEF_FFFF_FFFF_FFFF;
        }
        let u32s: Vec<u32> = words
            .iter()
            .flat_map(|w| [*w as u32, (*w >> 32) as u32])
            .collect();

        let detected = simd::tiers();
        for vector in simd::BASELINE..=detected.vector {
            simd::pin(Some(simd::Tiers { vector, ..detected }));
            for len in [0usize, 1, 2, 3, 7, 8, 9, 12, 24, 36, 95, 96, 97, 1024, 1536] {
                let w = &words[..len];
                let u = &u32s[..len.min(u32s.len())];
                assert_eq!(max_u32(u), u.iter().copied().max().unwrap_or(0), "{len}");
                assert_eq!(
                    non_monotone_u64(w),
                    w.windows(2).any(|p| p[0] > p[1]),
                    "{len}"
                );
                assert!(!fold_non_finite(w), "{len}");
                let pairs = &w[..len & !1];
                let want_max = pairs.chunks(2).map(|p| p[0] as u32).max().unwrap_or(0);
                assert_eq!(scan_id_value_pairs(pairs), (want_max, false), "{len}");
                let edges = &u[..u.len() - u.len() % 3];
                let want = (0..3)
                    .map(|f| edges.chunks(3).map(|e| e[f]).max().unwrap_or(0))
                    .collect::<Vec<_>>();
                assert_eq!(scan_edges(edges), (want[0], want[1], want[2]), "{len}");
            }
            // non-finite detection: NaN planted at each lane position
            for pos in 0..9 {
                let mut v = words[..16].to_vec();
                v[pos] = f64::NAN.to_bits();
                assert!(fold_non_finite(&v), "nan at {pos}");
                if pos % 2 == 1 {
                    let (_, nf) = scan_id_value_pairs(&v);
                    assert!(nf, "pair nan at {pos}");
                }
            }
            // a single inversion at each position must be caught
            for pos in 0..12 {
                let mut v: Vec<u64> = (0..13).collect();
                v[pos] += 2;
                assert!(non_monotone_u64(&v), "inversion at {pos}");
            }
        }
        simd::pin(None);
    }

    #[test]
    fn round_trip_owned() {
        let g = sample_graph();
        let (_dir, p) = tmp("roundtrip");
        write_store(&g, &p).unwrap();
        let g2 = read_store(&p).unwrap();
        assert_eq!(g.num_entities(), g2.num_entities());
        assert_eq!(g.triples(), g2.triples());
        assert_eq!(g.numerics(), g2.numerics());
        for e in GraphView::entities(&g) {
            assert_eq!(g.neighbors(e), g2.neighbors(e));
            assert_eq!(g.numerics_of(e), g2.numerics_of(e));
            assert_eq!(g.entity_name(e), g2.entity_name(e));
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

    #[test]
    fn mapped_view_matches_heap() {
        let g = sample_graph();
        let (_dir, p) = tmp("mapped");
        write_store(&g, &p).unwrap();
        let m = MappedGraph::open(&p).unwrap();
        assert_eq!(GraphView::num_entities(&g), m.num_entities());
        assert_eq!(GraphView::num_relations(&g), m.num_relations());
        assert_eq!(GraphView::num_attributes(&g), m.num_attributes());
        for e in GraphView::entities(&g) {
            assert_eq!(g.neighbors(e), m.neighbors(e));
            assert_eq!(g.numerics_of(e), m.numerics_of(e));
            assert_eq!(g.entity_name(e), m.entity_name(e));
        }
        for a in 0..g.num_attributes() as u32 {
            let a = AttributeId(a);
            assert_eq!(
                GraphView::entities_with_attribute(&g, a),
                m.entities_with_attribute(a)
            );
            assert_eq!(GraphView::attribute_name(&g, a), m.attribute_name(a));
        }
        for r in 0..g.num_relations() as u32 {
            let r = RelationId(r);
            assert_eq!(GraphView::relation_name(&g, r), m.relation_name(r));
            assert_eq!(
                g.dir_rel_name(DirRel::forward(r)),
                GraphView::dir_rel_name(&m, DirRel::forward(r))
            );
        }
    }

    #[test]
    fn unindexed_graph_is_rejected() {
        let mut g = KnowledgeGraph::new();
        g.add_entity("x");
        let (_dir, p) = tmp("unindexed");
        match write_store(&g, &p) {
            Err(StoreError::NotIndexed) => {}
            other => panic!("expected NotIndexed, got {other:?}"),
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
            let owned = read_store(&p);
            assert!(owned.is_err(), "corruption at {off} not detected (owned)");
            let mapped = MappedGraph::open(&p);
            assert!(mapped.is_err(), "corruption at {off} not detected (mapped)");
        }
        // Truncations at every boundary class.
        for cut in [0, 4, 8, 15, clean.len() / 2, clean.len() - 1] {
            std::fs::write(&p, &clean[..cut]).unwrap();
            assert!(MappedGraph::open(&p).is_err(), "truncation at {cut}");
        }
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
        match MappedGraph::open(&p) {
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
        let m = MappedGraph::open(&p).unwrap();
        assert_eq!(m.num_entities(), 0);
        let g2 = read_store(&p).unwrap();
        assert_eq!(g2.num_entities(), 0);
    }
}
