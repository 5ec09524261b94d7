//! CFCI1: the precomputed per-entity chain index.
//!
//! For every entity the index materializes the reachable RA-Chain prefixes —
//! `(rel-token path of ≤ 3 hops, source entity, attribute, value)` — as one
//! flat CSR array of 32-byte [`ChainEntry`] records, so query-time retrieval
//! becomes an index lookup plus weighted sampling instead of re-walking the
//! adjacency (see `cf_chains::retrieve_indexed`).
//!
//! ## Determinism
//!
//! The build shards entities into a *fixed* number of contiguous ranges
//! (a constant of the input size, never of the thread count), computes each
//! shard independently on the PR-6 thread pool, and concatenates shard
//! outputs in shard order. Per-entity entries are canonicalized by sort +
//! dedup before the fan-out cap is applied. The resulting bytes — and the
//! CFCI1 file — are therefore bitwise identical at every `CF_THREADS` width.
//!
//! ## File format
//!
//! Same sectioned container as CFKG1 (`crate::store`), magic `CFCI1`:
//!
//! | tag | section  | body                                                  |
//! |-----|----------|-------------------------------------------------------|
//! | 1   | params   | `u64 × 8`: n_e, n_attrs, n_rel_tokens, max_hops, fanout, cap, graph fingerprint, flags |
//! | 2   | offsets  | `u64[n_e + 1]`                                        |
//! | 3   | entries  | `ChainEntry[total]` (32 B each)                       |
//!
//! A loaded index refuses to pair with a graph whose [`graph_fingerprint`]
//! differs from the one recorded at build time.

use crate::ids::{AttributeId, DirRel, EntityId};
use crate::mmapio::Mmap;
use crate::paths::for_each_simple_path;
use crate::store::{corrupt, verify_crc, walk_sections, SectionWriter, StoreError};
use crate::view::GraphView;
use cf_tensor::crc::Crc;
use std::ops::{ControlFlow, Range};
use std::path::Path;

/// File magic for the chain index.
pub const INDEX_MAGIC: [u8; 8] = *b"CFCI1\x00\x00\x00";

const TAG_PARAMS: u32 = 1;
const TAG_OFFSETS: u32 = 2;
const TAG_ENTRIES: u32 = 3;

const MAX_ENTITIES: u64 = 1 << 31;
const MAX_ENTRIES: u64 = 1 << 35;

/// Sentinel for unused `rel_tokens` slots (hops < 3).
pub const NO_TOKEN: u32 = u32::MAX;

fn index_section_name(tag: u32) -> &'static str {
    match tag {
        TAG_PARAMS => "params",
        TAG_OFFSETS => "offsets",
        TAG_ENTRIES => "entries",
        0xFFFF_FFFF => "end",
        _ => "unknown",
    }
}

/// One precomputed chain instance reachable from an entity.
///
/// `repr(C)`, 32 bytes: `source u32, attr u32, hops u32, rel_tokens [u32;3],
/// value f64` — the on-disk CFCI1 record, mmap-castable after validation.
/// `rel_tokens[..hops]` are dense [`DirRel::token`] values in walk order
/// from the indexed entity; slots at `hops..` hold [`NO_TOKEN`].
#[derive(Copy, Clone, PartialEq, Debug)]
#[repr(C)]
pub struct ChainEntry {
    /// Entity carrying the known value (`v_p`).
    pub source: EntityId,
    /// The known attribute (`a_p`).
    pub attr: AttributeId,
    /// Number of relation hops (0 = fact on the indexed entity itself).
    pub hops: u32,
    /// Dense directed-relation tokens of the path, walk order.
    pub rel_tokens: [u32; 3],
    /// The known value (`n_p`).
    pub value: f64,
}

impl ChainEntry {
    /// The directed relations of the path, walk order from the entity.
    pub fn rels(&self) -> impl Iterator<Item = DirRel> + '_ {
        self.rel_tokens[..self.hops as usize]
            .iter()
            .map(|&t| DirRel::from_token(t as usize))
    }

    fn sort_key(&self) -> (u32, [u32; 3], u32, u32, u64) {
        (
            self.hops,
            self.rel_tokens,
            self.attr.0,
            self.source.0,
            self.value.to_bits(),
        )
    }
}

/// Build parameters of a chain index.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct IndexParams {
    /// Maximum path depth (≤ 3, the paper's walk length).
    pub max_hops: u32,
    /// Per-node branch cap during the walk: only the first `fanout`
    /// non-cycle edges (adjacency order) are expanded at each node.
    pub fanout: u32,
    /// Cap on entries kept per entity, applied after canonical sort (shorter
    /// chains survive first).
    pub per_entity_cap: u32,
}

impl Default for IndexParams {
    fn default() -> Self {
        IndexParams {
            max_hops: 3,
            fanout: 16,
            per_entity_cap: 256,
        }
    }
}

impl IndexParams {
    /// The ranges an index is built and read under: `max_hops` in 1..=3,
    /// `fanout` and `per_entity_cap` at least 1. The error names the field
    /// and its value.
    pub fn check(&self) -> Result<(), String> {
        if !(1..=3).contains(&self.max_hops) {
            return Err(format!("max_hops must be in 1..=3, got {}", self.max_hops));
        }
        if self.fanout == 0 {
            return Err("fanout must be at least 1, got 0".into());
        }
        if self.per_entity_cap == 0 {
            return Err("per_entity_cap must be at least 1, got 0".into());
        }
        Ok(())
    }
}

/// Stable fingerprint binding an index to the graph it was built from:
/// FNV-1a over the vocabulary/fact counts and every entity's degree and
/// fact count. O(n), no hashing of names or values — cheap enough to run at
/// every pairing, strong enough to catch any structural mismatch.
pub fn graph_fingerprint(g: &impl GraphView) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mix = |h: &mut u64, v: u64| {
        *h ^= v;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(&mut h, g.num_entities() as u64);
    mix(&mut h, g.num_relations() as u64);
    mix(&mut h, g.num_attributes() as u64);
    for e in g.entities() {
        mix(&mut h, g.degree(e) as u64);
        mix(&mut h, g.numerics_of(e).len() as u64);
    }
    h
}

/// Read access to a chain index (owned or mapped).
pub trait ChainIndexView {
    /// Number of indexed entities.
    fn num_entities(&self) -> usize;
    /// The build parameters.
    fn params(&self) -> IndexParams;
    /// Fingerprint of the graph this index was built from.
    fn fingerprint(&self) -> u64;
    /// All precomputed entries for `e`, canonical order.
    fn entries_of(&self, e: EntityId) -> &[ChainEntry];
    /// Total entry count across all entities.
    fn total_entries(&self) -> usize;

    /// Errors with [`StoreError::IndexMismatch`] unless the index was built
    /// for `g`: same entity count and same [`graph_fingerprint`].
    fn check_matches(&self, g: &impl GraphView) -> Result<(), StoreError>
    where
        Self: Sized,
    {
        let graph = graph_fingerprint(g);
        if self.num_entities() != g.num_entities() || self.fingerprint() != graph {
            return Err(StoreError::IndexMismatch {
                index: self.fingerprint(),
                index_entities: self.num_entities(),
                graph,
                graph_entities: g.num_entities(),
            });
        }
        Ok(())
    }
}

/// An owned, heap-built chain index.
#[derive(Clone, Debug)]
pub struct ChainIndex {
    params: IndexParams,
    fingerprint: u64,
    n_attrs: u32,
    n_rel_tokens: u32,
    offsets: Vec<u64>,
    entries: Vec<ChainEntry>,
}

impl ChainIndexView for ChainIndex {
    fn num_entities(&self) -> usize {
        self.offsets.len() - 1
    }
    fn params(&self) -> IndexParams {
        self.params
    }
    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
    fn entries_of(&self, e: EntityId) -> &[ChainEntry] {
        let i = e.0 as usize;
        &self.entries[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
    fn total_entries(&self) -> usize {
        self.entries.len()
    }
}

// ---------------------------------------------------------------------------
// build
// ---------------------------------------------------------------------------

/// The index row of `e`, written into `scratch` (cleared first): its own
/// numeric facts as 0-hop entries, then one entry per numeric fact at the
/// end of every simple path of [`for_each_simple_path`] under
/// `params.max_hops` and `params.fanout`; sorted, deduped and capped. A pure
/// function of graph, entity and parameters — determinism comes from fixed
/// adjacency order.
///
/// [`build_chain_index`] runs it for every entity. A serving engine runs it
/// over its live graph for an entity whose indexed row a mutation may have
/// changed, or that was added after the build: over a graph with the same
/// rows the result is the row a fresh build would store. `scratch` grows to
/// at most `16 × per_entity_cap` entries (1024 at least) and is meant to be
/// reused across calls.
pub fn collect_entity(
    g: &impl GraphView,
    e: EntityId,
    params: &IndexParams,
    scratch: &mut Vec<ChainEntry>,
) {
    scratch.clear();
    // Raw enumeration is bounded: once a hub's walk reaches this guard it
    // stops (canonical sort below then keeps the shortest chains).
    let scratch_cap = (params.per_entity_cap as usize)
        .saturating_mul(16)
        .max(1024);
    for f in g.numerics_of(e) {
        scratch.push(ChainEntry {
            source: e,
            attr: f.attr,
            hops: 0,
            rel_tokens: [NO_TOKEN; 3],
            value: f.value,
        });
    }
    if scratch.len() < scratch_cap {
        let (max_hops, fanout) = (params.max_hops as usize, params.fanout as usize);
        for_each_simple_path(g, e, max_hops, fanout, |rels, to| {
            let mut rel_tokens = [NO_TOKEN; 3];
            for (t, dr) in rel_tokens.iter_mut().zip(rels) {
                *t = dr.token() as u32;
            }
            for f in g.numerics_of(to) {
                scratch.push(ChainEntry {
                    source: to,
                    attr: f.attr,
                    hops: rels.len() as u32,
                    rel_tokens,
                    value: f.value,
                });
            }
            if scratch.len() >= scratch_cap {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
    }
    // Canonicalize: sort (hops first, so the cap keeps short chains), dedup
    // exact duplicates reached via different intermediate nodes, cap.
    scratch.sort_unstable_by_key(|c| c.sort_key());
    scratch.dedup_by(|a, b| a.sort_key() == b.sort_key());
    scratch.truncate(params.per_entity_cap as usize);
}

/// Builds the chain index for `g`, in parallel on the global thread pool.
///
/// Entities are split into a fixed shard count; each shard's entries are
/// computed independently and concatenated in shard order, so the result is
/// bitwise identical at every thread count. Panics if `params` fails
/// [`IndexParams::check`].
pub fn build_chain_index<G: GraphView + Sync>(g: &G, params: IndexParams) -> ChainIndex {
    if let Err(e) = params.check() {
        panic!("{e}");
    }
    let n = g.num_entities();
    // A constant of the input size only — never of the thread count.
    let shards = 256.min(n.max(1));

    #[derive(Default)]
    struct ShardOut {
        counts: Vec<u32>,
        entries: Vec<ChainEntry>,
    }

    let mut outs: Vec<ShardOut> = (0..shards).map(|_| ShardOut::default()).collect();
    {
        let shared = cf_tensor::pool::SharedMut::new(&mut outs);
        cf_tensor::pool::parallel_for(shards, |range: Range<usize>| {
            let mut scratch: Vec<ChainEntry> = Vec::new();
            for s in range {
                // SAFETY: each shard index is visited by exactly one slice,
                // so writes are disjoint; `outs` outlives the parallel_for.
                let out = &mut unsafe { shared.get(s, 1) }[0];
                let er = cf_tensor::pool::slice_range(n, shards, s);
                out.counts.reserve(er.len());
                for i in er {
                    collect_entity(g, EntityId(i as u32), &params, &mut scratch);
                    out.counts.push(scratch.len() as u32);
                    out.entries.extend_from_slice(&scratch);
                }
            }
        });
    }

    let total: usize = outs.iter().map(|o| o.entries.len()).sum();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut entries = Vec::with_capacity(total);
    offsets.push(0u64);
    let mut acc = 0u64;
    for o in &outs {
        for &c in &o.counts {
            acc += c as u64;
            offsets.push(acc);
        }
        entries.extend_from_slice(&o.entries);
    }
    debug_assert_eq!(offsets.len(), n + 1);
    debug_assert_eq!(entries.len(), total);

    ChainIndex {
        params,
        fingerprint: graph_fingerprint(g),
        n_attrs: g.num_attributes() as u32,
        n_rel_tokens: 2 * g.num_relations() as u32,
        offsets,
        entries,
    }
}

// ---------------------------------------------------------------------------
// serialization
// ---------------------------------------------------------------------------

/// Serializes a chain index to `path` as CFCI1, atomically. Byte output is
/// a pure function of the index.
pub fn write_index(ix: &ChainIndex, path: impl AsRef<Path>) -> Result<(), StoreError> {
    let path = path.as_ref();
    let n = ix.num_entities() as u64;
    let total = ix.entries.len() as u64;
    if n > MAX_ENTITIES || total > MAX_ENTRIES {
        return Err(StoreError::TooLarge { section: "params" });
    }
    cf_tensor::write_atomic(path, |w| {
        w.write_all(&INDEX_MAGIC)?;
        let mut crcs = Vec::with_capacity(3);

        let mut s = SectionWriter::begin(w, TAG_PARAMS, 64)?;
        for v in [
            n,
            ix.n_attrs as u64,
            ix.n_rel_tokens as u64,
            ix.params.max_hops as u64,
            ix.params.fanout as u64,
            ix.params.per_entity_cap as u64,
            ix.fingerprint,
            0,
        ] {
            s.put_u64(v)?;
        }
        crcs.push(s.finish()?);

        let mut s = SectionWriter::begin(w, TAG_OFFSETS, 8 * (n + 1))?;
        for &o in &ix.offsets {
            s.put_u64(o)?;
        }
        crcs.push(s.finish()?);

        let mut s = SectionWriter::begin(w, TAG_ENTRIES, 32 * total)?;
        for e in &ix.entries {
            s.put_u32(e.source.0)?;
            s.put_u32(e.attr.0)?;
            s.put_u32(e.hops)?;
            for t in e.rel_tokens {
                s.put_u32(t)?;
            }
            s.put_f64(e.value)?;
        }
        crcs.push(s.finish()?);

        crate::store::write_end(w, &crcs)?;
        Ok(())
    })
    .map_err(|e: StoreError| e.on(path))
}

use std::io::Write as _;

/// Zero-copy chain index view over an mmap'd CFCI1 file.
#[derive(Debug)]
pub struct MappedChainIndex {
    mem: Mmap,
    params: IndexParams,
    fingerprint: u64,
    n_entities: usize,
    offsets: Range<usize>,
    entries: Range<usize>,
}

// The casts below require a validated byte range (length a multiple of the
// record size, contents in range) and an 8-byte aligned buffer base (Mmap
// guarantees it). Alignment of the range itself is asserted: O(1) checks
// that stay on in release builds.

fn cast_u64s(bytes: &[u8]) -> &[u64] {
    assert!(bytes.as_ptr() as usize % 8 == 0 && bytes.len() % 8 == 0);
    // SAFETY: alignment and length checked above; u64 has no invalid bits.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const u64, bytes.len() / 8) }
}

fn cast_entries(bytes: &[u8]) -> &[ChainEntry] {
    assert!(bytes.as_ptr() as usize % 8 == 0 && bytes.len() % 32 == 0);
    // SAFETY: ChainEntry is repr(C), 32 bytes, align 8, every field
    // inhabited for all bit patterns; contents were validated at open.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const ChainEntry, bytes.len() / 32) }
}

/// Tile size of the fused CRC+scan passes: fits in L2 next to the CRC
/// tables, and is a multiple of both record sizes a scan reads (8-byte
/// offsets, 32-byte entries), so every tile is record-aligned.
const FUSE_TILE: usize = 192 << 10;

/// Streams the subranges of one section body through the CRC while handing
/// each cache-hot tile to a structural fold, so open validates a big
/// section in a single pass over memory instead of a CRC sweep plus a scan
/// sweep.
///
/// Feed the subranges **in body order and covering the whole body**, or the
/// CRC will not match. The folds only accumulate; their verdicts are read
/// after [`FusedCrc::check`], so a body is never trusted before its CRC is.
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

cf_tensor::simd_hot! {
    /// Branchless monotonicity fold: true if any adjacent pair decreases.
    /// No per-element early exit, so the loop vectorizes.
    fn non_monotone_u64(vals: &[u64]) -> bool {
        vals.windows(2).fold(false, |bad, w| bad | (w[0] > w[1]))
    }
}

/// Offsets validation, fed tile by tile in order: the offsets must start at
/// 0, never decrease and end at the entry count.
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

cf_tensor::simd_hot! {
/// Branch-free fold of the entry rules over raw CFCI1 records (four `u64`
/// words per 32-byte [`ChainEntry`]): bit `i` of the result is set when some
/// record breaks [`ENTRY_RULES`]`[i]`. No per-record early exit, so the
/// loop vectorizes.
fn scan_entries(
    raw: &[u64],
    n_entities: u32,
    n_attrs: u32,
    max_hops: u32,
    n_rel_tokens: u32,
) -> u32 {
    let (mut range, mut token, mut unused, mut non_finite) = (false, false, false, false);
    for rec in raw.chunks_exact(4) {
        let hops = rec[1] as u32;
        range |= (rec[0] as u32 >= n_entities)
            | ((rec[0] >> 32) as u32 >= n_attrs)
            | (hops > max_hops);
        let toks = [(rec[1] >> 32) as u32, rec[2] as u32, (rec[2] >> 32) as u32];
        for (slot, t) in (0u32..).zip(toks) {
            let used = slot < hops;
            token |= used & (t >= n_rel_tokens);
            unused |= !used & (t != NO_TOKEN);
        }
        non_finite |= (rec[3] >> 52) & 0x7FF == 0x7FF;
    }
    range as u32 | (token as u32) << 1 | (unused as u32) << 2 | (non_finite as u32) << 3
}
}

/// The entry rule behind each bit of [`scan_entries`], in the order one
/// record is checked: a file that breaks several is reported by the first.
const ENTRY_RULES: [&str; 4] = [
    "entry id or hop count out of range",
    "relation token out of range",
    "unused token slot not NO_TOKEN",
    "non-finite value",
];

impl MappedChainIndex {
    /// Opens and fully validates a CFCI1 file in one pass over its bytes:
    /// each array streams through [`FusedCrc`] in 192 KiB tiles, the
    /// offsets with their monotonicity scan and the entries with the
    /// [`scan_entries`] rule fold, and every verdict is read only after its
    /// section's CRC matches. So a flipped body byte is a `BadCrc` naming
    /// its section, and an entry that breaks a rule under a good CRC is
    /// `Corrupt { section: "entries" }`.
    ///
    /// Each entries tile leaves the resident set once folded
    /// ([`Mmap::release`]; each call also covers the tile before, so the
    /// page two tiles share goes too). An open index then keeps only its
    /// offsets resident, plus the rows [`ChainIndexView::entries_of`] has
    /// read since.
    pub fn open(path: impl AsRef<Path>) -> Result<MappedChainIndex, StoreError> {
        let path = path.as_ref();
        let mem = Mmap::open(path).map_err(|e| StoreError::from(e).on(path))?;
        let bytes = mem.bytes();
        let sections = walk_sections(bytes, &INDEX_MAGIC, index_section_name)?;
        let mut params_r = None;
        let mut offsets_r = None;
        let mut entries_r = None;
        for s in sections {
            let slot = match s.tag {
                TAG_PARAMS => &mut params_r,
                TAG_OFFSETS => &mut offsets_r,
                TAG_ENTRIES => &mut entries_r,
                // Unknown tags are skipped, but still CRC-verified.
                _ => {
                    verify_crc(bytes, &s.body, s.crc, index_section_name(s.tag))?;
                    continue;
                }
            };
            if slot.is_some() {
                return Err(StoreError::Duplicate {
                    section: index_section_name(s.tag),
                });
            }
            *slot = Some((s.body, s.crc));
        }
        let (params_b, params_crc) = params_r.ok_or(StoreError::Missing { section: "params" })?;
        let (offsets_b, offsets_crc) =
            offsets_r.ok_or(StoreError::Missing { section: "offsets" })?;
        let (entries_b, entries_crc) =
            entries_r.ok_or(StoreError::Missing { section: "entries" })?;

        verify_crc(bytes, &params_b, params_crc, "params")?;
        if params_b.len() != 64 {
            return Err(corrupt("params", "expected 64-byte body"));
        }
        let pv = cast_u64s(&bytes[params_b]);
        let n = pv[0];
        let n_attrs = pv[1];
        let n_rel_tokens = pv[2];
        let fingerprint = pv[6];
        if n > MAX_ENTITIES {
            return Err(StoreError::TooLarge { section: "params" });
        }
        // A word past `u32` reads as 0, which fails the check.
        let word = |i: usize| u32::try_from(pv[i]).unwrap_or(0);
        let params = IndexParams {
            max_hops: word(3),
            fanout: word(4),
            per_entity_cap: word(5),
        };
        if params.check().is_err() || n_attrs > MAX_ENTITIES || n_rel_tokens > MAX_ENTITIES {
            return Err(corrupt("params", "parameter out of range"));
        }
        let n = n as usize;

        if offsets_b.len() != 8 * (n + 1) {
            return Err(corrupt(
                "offsets",
                "body length does not match entity count",
            ));
        }
        if entries_b.len() % 32 != 0 {
            return Err(corrupt("entries", "body length not a multiple of 32"));
        }
        let total = (entries_b.len() / 32) as u64;
        if total > MAX_ENTRIES {
            return Err(StoreError::TooLarge { section: "entries" });
        }

        let mut fused = FusedCrc::new(bytes);
        let mut mono = MonoScan::new();
        fused.feed(&offsets_b, &mut |t| mono.feed(cast_u64s(t)));
        fused.check(offsets_crc, "offsets")?;
        mono.check(total, "offsets")?;

        // Every count is at most 2^31 (checked above), so each fits a u32.
        let (n32, attrs32, tokens32) = (n as u32, n_attrs as u32, n_rel_tokens as u32);
        let mut fused = FusedCrc::new(bytes);
        let mut broken = 0u32;
        let mut behind = entries_b.start;
        for start in entries_b.clone().step_by(FUSE_TILE) {
            let tile = start..(start + FUSE_TILE).min(entries_b.end);
            fused.feed(&tile, &mut |t| {
                broken |= scan_entries(cast_u64s(t), n32, attrs32, params.max_hops, tokens32)
            });
            mem.release(behind..tile.end);
            behind = start;
        }
        fused.check(entries_crc, "entries")?;
        if broken != 0 {
            return Err(corrupt(
                "entries",
                ENTRY_RULES[broken.trailing_zeros() as usize],
            ));
        }

        Ok(MappedChainIndex {
            mem,
            params,
            fingerprint,
            n_entities: n,
            offsets: offsets_b,
            entries: entries_b,
        })
    }
}

impl ChainIndexView for MappedChainIndex {
    fn num_entities(&self) -> usize {
        self.n_entities
    }
    fn params(&self) -> IndexParams {
        self.params
    }
    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
    fn entries_of(&self, e: EntityId) -> &[ChainEntry] {
        let offs = cast_u64s(&self.mem.bytes()[self.offsets.clone()]);
        let i = e.0 as usize;
        let entries = cast_entries(&self.mem.bytes()[self.entries.clone()]);
        &entries[offs[i] as usize..offs[i + 1] as usize]
    }
    fn total_entries(&self) -> usize {
        self.entries.len() / 32
    }
}

/// Former name of [`MappedChainIndex`], the one index type the serving
/// engine reads; kept only so existing callers compile. New code names
/// [`MappedChainIndex`].
#[doc(hidden)]
pub type ChainIndexStore = MappedChainIndex;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::KnowledgeGraph;
    use crate::ids::RelationId;
    use crate::store::tests::reseal;
    use crate::synth::{yago15k_sim, SynthScale};
    use cf_check::prelude::*;
    use cf_check::TempDir;
    use cf_rand::rngs::StdRng;
    use cf_rand::SeedableRng;
    use cf_tensor::simd;

    /// [`collect_entity`] as first written, with a depth-first search of
    /// its own. Returns whether the raw-enumeration guard was reached.
    fn collect_entity_reference(
        g: &impl GraphView,
        e: EntityId,
        params: &IndexParams,
        scratch: &mut Vec<ChainEntry>,
    ) -> bool {
        scratch.clear();
        let scratch_cap = (params.per_entity_cap as usize)
            .saturating_mul(16)
            .max(1024);
        for f in g.numerics_of(e) {
            scratch.push(ChainEntry {
                source: e,
                attr: f.attr,
                hops: 0,
                rel_tokens: [NO_TOKEN; 3],
                value: f.value,
            });
        }
        let mut path = [e; 4];
        let mut toks = [NO_TOKEN; 3];
        descend(g, e, 0, &mut path, &mut toks, params, scratch_cap, scratch);
        let guarded = scratch.len() >= scratch_cap;
        scratch.sort_unstable_by_key(|c| c.sort_key());
        scratch.dedup_by(|a, b| a.sort_key() == b.sort_key());
        scratch.truncate(params.per_entity_cap as usize);
        guarded
    }

    #[allow(clippy::too_many_arguments)]
    fn descend(
        g: &impl GraphView,
        at: EntityId,
        depth: u32,
        path: &mut [EntityId; 4],
        toks: &mut [u32; 3],
        params: &IndexParams,
        scratch_cap: usize,
        out: &mut Vec<ChainEntry>,
    ) {
        if depth >= params.max_hops || out.len() >= scratch_cap {
            return;
        }
        let d = depth as usize;
        let mut taken = 0u32;
        for edge in g.neighbors(at) {
            if taken >= params.fanout || out.len() >= scratch_cap {
                break;
            }
            if path[..=d].contains(&edge.to) {
                continue;
            }
            taken += 1;
            toks[d] = edge.dr.token() as u32;
            path[d + 1] = edge.to;
            let mut rt = [NO_TOKEN; 3];
            rt[..=d].copy_from_slice(&toks[..=d]);
            for f in g.numerics_of(edge.to) {
                out.push(ChainEntry {
                    source: edge.to,
                    attr: f.attr,
                    hops: depth + 1,
                    rel_tokens: rt,
                    value: f.value,
                });
            }
            descend(g, edge.to, depth + 1, path, toks, params, scratch_cap, out);
        }
    }

    /// A multigraph over `n` entities: edge `(h, t, r)` is the triple
    /// `(h, r, t)` — self-loops and parallel edges included — and entity `i`
    /// carries the `(attribute, value)` facts `facts[i]`, attributes
    /// possibly repeated.
    fn multigraph(
        n: usize,
        edges: &[(usize, usize, usize)],
        facts: &[Vec<(usize, u8)>],
    ) -> KnowledgeGraph {
        let mut g = KnowledgeGraph::new();
        for i in 0..n {
            g.add_entity(format!("e{i}"));
        }
        for r in 0..2 {
            g.add_relation_type(format!("r{r}"));
        }
        for a in 0..3 {
            g.add_attribute_type(format!("a{a}"));
        }
        for &(h, t, r) in edges {
            g.add_triple(EntityId(h as u32), RelationId(r as u32), EntityId(t as u32));
        }
        for (i, fs) in facts.iter().enumerate() {
            for &(a, v) in fs {
                g.add_numeric(
                    EntityId(i as u32),
                    AttributeId(a as u32),
                    f64::from(v) / 2.0,
                );
            }
        }
        g.build_index();
        g
    }

    /// An entity whose own facts already reach the raw-enumeration guard
    /// is not walked at all, as before.
    #[test]
    fn own_facts_at_the_guard_skip_the_walk() {
        let g = multigraph(2, &[(0, 1, 0)], &[vec![(0, 1); 1024], vec![(1, 2)]]);
        let params = IndexParams {
            max_hops: 1,
            fanout: 1,
            per_entity_cap: 64,
        };
        let (mut got, mut want) = (Vec::new(), Vec::new());
        collect_entity(&g, EntityId(0), &params, &mut got);
        assert!(collect_entity_reference(
            &g,
            EntityId(0),
            &params,
            &mut want
        ));
        assert_eq!(got, want);
        assert_eq!(got.len(), 1, "only the deduped own fact: {got:?}");
    }

    /// `collect_entity` on the shared walk is the depth-first search it
    /// replaced, entry for entry and bit for bit, for every entity of
    /// random multigraphs at every depth up to 3, fan-outs from 1 to
    /// unbounded and entry caps from 0 up — including rows whose walk the
    /// raw-enumeration guard stops early.
    #[test]
    fn collect_entity_matches_reference() {
        const N: usize = 10;
        let guard_stops = std::cell::Cell::new(0u32);
        let strategy = (
            vec((0..N, 0..N, 0usize..2), 0..150),
            vec(vec((0usize..3, 0u8..4), 0..=5), N),
        );
        cf_check::runner::run(
            concat!(module_path!(), "::collect_entity_matches_reference"),
            Config::with_cases(24),
            strategy,
            |(edges, facts)| {
                let g = multigraph(N, &edges, &facts);
                let (mut got, mut want) = (Vec::new(), Vec::new());
                for max_hops in 0..=3 {
                    for fanout in [1, 2, 3, 5, u32::MAX] {
                        for per_entity_cap in [0, 1, 8, 64, 4096] {
                            let params = IndexParams {
                                max_hops,
                                fanout,
                                per_entity_cap,
                            };
                            for e in GraphView::entities(&g) {
                                collect_entity(&g, e, &params, &mut got);
                                if collect_entity_reference(&g, e, &params, &mut want) {
                                    guard_stops.set(guard_stops.get() + 1);
                                }
                                let key = ChainEntry::sort_key;
                                check_assert!(
                                    got.iter().map(key).eq(want.iter().map(key)),
                                    "row of {e:?} differs under {params:?}"
                                );
                            }
                        }
                    }
                }
                Ok(())
            },
        );
        assert!(
            guard_stops.get() > 0,
            "the raw-enumeration guard never stopped a walk"
        );
    }

    /// A fresh directory (removed on drop) and a file path inside it.
    fn tmp(name: &str) -> (TempDir, std::path::PathBuf) {
        let dir = TempDir::new("kg_index");
        let p = dir.join(format!("{name}.cfi"));
        (dir, p)
    }

    fn sample_graph() -> KnowledgeGraph {
        let mut rng = StdRng::seed_from_u64(11);
        yago15k_sim(SynthScale::small(), &mut rng)
    }

    #[test]
    fn entries_respect_caps_and_bounds() {
        let g = sample_graph();
        let params = IndexParams {
            max_hops: 3,
            fanout: 8,
            per_entity_cap: 64,
        };
        let ix = build_chain_index(&g, params);
        assert_eq!(ix.num_entities(), g.num_entities());
        assert!(ix.total_entries() > 0);
        for e in GraphView::entities(&g) {
            let entries = ix.entries_of(e);
            assert!(entries.len() <= 64);
            for c in entries {
                assert!(c.hops <= 3);
                assert!((c.source.0 as usize) < g.num_entities());
                assert!((c.attr.0 as usize) < g.num_attributes());
                for (i, &t) in c.rel_tokens.iter().enumerate() {
                    if (i as u32) < c.hops {
                        assert!((t as usize) < 2 * g.num_relations());
                    } else {
                        assert_eq!(t, NO_TOKEN);
                    }
                }
                assert!(c.value.is_finite());
            }
        }
    }

    #[test]
    fn zero_hop_entries_are_own_facts() {
        let g = sample_graph();
        let ix = build_chain_index(&g, IndexParams::default());
        for e in GraphView::entities(&g).take(500) {
            let zero: Vec<_> = ix.entries_of(e).iter().filter(|c| c.hops == 0).collect();
            let mut own: Vec<_> = g
                .numerics_of(e)
                .iter()
                .map(|f| (f.attr, f.value.to_bits()))
                .collect();
            own.sort_unstable_by_key(|&(a, v)| (a.0, v));
            own.dedup();
            let got: Vec<_> = zero.iter().map(|c| (c.attr, c.value.to_bits())).collect();
            assert_eq!(got, own, "entity {e:?}");
        }
    }

    #[test]
    fn build_is_identical_across_thread_counts() {
        let g = sample_graph();
        let before = cf_tensor::pool::threads();
        cf_tensor::pool::set_threads(1);
        let ix1 = build_chain_index(&g, IndexParams::default());
        cf_tensor::pool::set_threads(4);
        let ix4 = build_chain_index(&g, IndexParams::default());
        cf_tensor::pool::set_threads(before);
        assert_eq!(ix1.offsets, ix4.offsets);
        assert_eq!(ix1.entries, ix4.entries);
        // And the serialized files are bitwise identical.
        let (_p1_dir, p1) = tmp("t1");
        let (_p4_dir, p4) = tmp("t4");
        write_index(&ix1, &p1).unwrap();
        write_index(&ix4, &p4).unwrap();
        assert_eq!(
            std::fs::read(&p1).unwrap(),
            std::fs::read(&p4).unwrap(),
            "index bytes differ across build widths"
        );
    }

    #[test]
    fn mapped_index_matches_built() {
        let g = sample_graph();
        let ix = build_chain_index(&g, IndexParams::default());
        let (_dir, p) = tmp("mapped");
        write_index(&ix, &p).unwrap();
        let m = MappedChainIndex::open(&p).unwrap();
        assert_eq!(m.num_entities(), ix.num_entities());
        assert_eq!(m.params(), ix.params());
        assert_eq!(m.fingerprint(), ix.fingerprint());
        assert_eq!(m.total_entries(), ix.total_entries());
        for e in GraphView::entities(&g) {
            assert_eq!(ix.entries_of(e), m.entries_of(e));
        }
        m.check_matches(&g).unwrap();
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let g = sample_graph();
        let ix = build_chain_index(&g, IndexParams::default());
        let (_dir, p) = tmp("fpr");
        write_index(&ix, &p).unwrap();
        let m = MappedChainIndex::open(&p).unwrap();
        let mut other = KnowledgeGraph::new();
        other.add_entity("x");
        other.build_index();
        let err = m.check_matches(&other).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::IndexMismatch { index, graph, .. }
                    if index == ix.fingerprint() && graph == graph_fingerprint(&other)
            ),
            "{err:?}"
        );
        let msg = err.to_string();
        for want in [
            format!("{:016x}", ix.fingerprint()),
            format!("{:016x}", graph_fingerprint(&other)),
            "rebuild it with `cfkg index`".to_string(),
        ] {
            assert!(msg.contains(&want), "{msg}");
        }
        assert!(!msg.contains("corrupt"), "{msg}");
    }

    #[test]
    fn index_corruption_is_detected() {
        let g = sample_graph();
        let ix = build_chain_index(&g, IndexParams::default());
        let (_dir, p) = tmp("corrupt");
        write_index(&ix, &p).unwrap();
        let clean = std::fs::read(&p).unwrap();
        let step = (clean.len() / 61).max(1);
        for off in (8..clean.len()).step_by(step) {
            let mut bad = clean.clone();
            bad[off] ^= 0x5A;
            std::fs::write(&p, &bad).unwrap();
            assert!(
                MappedChainIndex::open(&p).is_err(),
                "corruption at {off} not detected"
            );
        }
    }

    /// The monotonicity fold agrees with a plain iterator reference at
    /// every `simd_hot!` tier the host supports, at lengths around its
    /// unroll width and with one inversion in every position.
    #[test]
    fn monotone_scan_matches_reference() {
        let mut words = vec![0u64; 1536];
        let mut x = 0x0dd0_feed_4bad_c0deu64;
        for w in words.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *w = x;
        }
        let detected = simd::tiers();
        for vector in simd::BASELINE..=detected.vector {
            simd::pin(Some(simd::Tiers { vector, ..detected }));
            for len in [0usize, 1, 2, 3, 7, 8, 9, 12, 24, 36, 95, 96, 97, 1024, 1536] {
                let w = &words[..len];
                assert_eq!(
                    non_monotone_u64(w),
                    w.windows(2).any(|p| p[0] > p[1]),
                    "{len}"
                );
            }
            for pos in 0..12 {
                let mut v: Vec<u64> = (0..13).collect();
                v[pos] += 2;
                assert!(non_monotone_u64(&v), "inversion at {pos}");
            }
        }
        simd::pin(None);
    }

    /// Every entry rule fails open on its own, under good CRCs, with its
    /// own message: one broken field per case (source, attribute, hops, a
    /// used token, an unused slot, the value), in an entry of the first
    /// tile and one of the last, partial tile, at every vector tier the
    /// host has.
    #[test]
    fn entry_rules_are_checked_behind_the_crc() {
        let g = sample_graph();
        let ix = build_chain_index(&g, IndexParams::default());
        let (_dir, p) = tmp("rules");
        write_index(&ix, &p).unwrap();
        let clean = std::fs::read(&p).unwrap();
        let body = walk_sections(&clean, &INDEX_MAGIC, index_section_name)
            .unwrap()
            .into_iter()
            .find(|s| s.tag == TAG_ENTRIES)
            .unwrap()
            .body;
        assert!(
            body.len() > FUSE_TILE && body.len() % FUSE_TILE != 0,
            "{} entry bytes: no partial last tile",
            body.len()
        );
        // A 1- or 2-hop entry has both a used and an unused token slot.
        let two_slots = |k: &usize| (1..=2).contains(&ix.entries[*k].hops);
        let last_tile = (body.len() - 1) / FUSE_TILE * FUSE_TILE / 32;
        let picked = [
            (0..last_tile).find(two_slots).unwrap(),
            (last_tile..ix.entries.len()).rev().find(two_slots).unwrap(),
        ];
        let n = ix.num_entities() as u32;
        let cases = |k: usize| -> [(usize, Vec<u8>, &str); 6] {
            let hops = ix.entries[k].hops as usize;
            let id_or_hops = "entry id or hop count out of range";
            [
                (0, n.to_le_bytes().to_vec(), id_or_hops),
                (4, ix.n_attrs.to_le_bytes().to_vec(), id_or_hops),
                (
                    8,
                    (ix.params.max_hops + 1).to_le_bytes().to_vec(),
                    id_or_hops,
                ),
                (
                    12,
                    ix.n_rel_tokens.to_le_bytes().to_vec(),
                    "relation token out of range",
                ),
                (
                    12 + 4 * hops,
                    0u32.to_le_bytes().to_vec(),
                    "unused token slot not NO_TOKEN",
                ),
                (
                    24,
                    f64::INFINITY.to_bits().to_le_bytes().to_vec(),
                    "non-finite value",
                ),
            ]
        };
        let detected = simd::tiers();
        for vector in simd::BASELINE..=detected.vector {
            simd::pin(Some(simd::Tiers { vector, ..detected }));
            for k in picked {
                for (at, field, want) in cases(k) {
                    let mut bad = clean.clone();
                    let at = body.start + 32 * k + at;
                    bad[at..at + field.len()].copy_from_slice(&field);
                    reseal(&mut bad);
                    std::fs::write(&p, &bad).unwrap();
                    match MappedChainIndex::open(&p) {
                        Err(StoreError::Corrupt {
                            section: "entries",
                            what,
                        }) if what == want => {}
                        other => panic!(
                            "tier {vector}, entry {k}, byte {at}: want {want:?}, got {other:?}"
                        ),
                    }
                }
            }
            std::fs::write(&p, &clean).unwrap();
            MappedChainIndex::open(&p).unwrap();
        }
        simd::pin(None);
    }

    /// An open index keeps its offsets and less than one tile of entries
    /// resident, and reading one row faults in a few fault-around windows
    /// (the kernel's default is 64 KiB) at most.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn open_index_stays_out_of_the_resident_set() {
        const N: usize = 2048;
        const ROW: usize = 256;
        const FAULT_AROUND: u64 = 64 << 10;
        let entry = |e: usize, j: usize| ChainEntry {
            source: EntityId(((e + j) % N) as u32),
            attr: AttributeId((j % 4) as u32),
            hops: 0,
            rel_tokens: [NO_TOKEN; 3],
            value: j as f64,
        };
        let ix = ChainIndex {
            params: IndexParams::default(),
            fingerprint: 0,
            n_attrs: 4,
            n_rel_tokens: 2,
            offsets: (0..=N).map(|e| (e * ROW) as u64).collect(),
            entries: (0..N)
                .flat_map(|e| (0..ROW).map(move |j| entry(e, j)))
                .collect(),
        };
        let (_dir, p) = tmp("resident");
        write_index(&ix, &p).unwrap();
        let m = MappedChainIndex::open(&p).unwrap();
        assert!(m.mem.len() >= 16 << 20 && m.mem.is_kernel_mapped());
        let rss = || crate::mmapio::mapping_rss_kb(m.mem.as_ptr()).unwrap() << 10;
        let opened = rss();
        assert!(
            opened <= (m.offsets.len() + FUSE_TILE) as u64,
            "{opened} B of a {} B index resident after open",
            m.mem.len()
        );
        let e = EntityId(N as u32 / 2);
        assert_eq!(m.entries_of(e), ix.entries_of(e));
        let grown = rss().saturating_sub(opened);
        assert!(
            grown <= 4 * FAULT_AROUND,
            "reading one {} B row made {grown} B resident",
            ROW * 32
        );
    }

    /// Each atomic write stages in `<target>.tmp`: a store and an index
    /// sharing a stem never share a temporary, a user's `<stem>.tmp` is
    /// left alone, and a stale torn temporary is replaced.
    #[test]
    fn atomic_writes_stage_in_a_tmp_of_their_own() {
        let g = sample_graph();
        let dir = TempDir::new("kg_atomic");
        std::fs::write(dir.join("g.tmp"), b"user data").unwrap();
        std::fs::write(dir.join("g.cfkg.tmp"), b"torn").unwrap();
        crate::store::write_store(&g, dir.join("g.cfkg")).unwrap();
        let params = IndexParams {
            max_hops: 1,
            fanout: 4,
            per_entity_cap: 8,
        };
        write_index(&build_chain_index(&g, params), dir.join("g.cfci")).unwrap();
        assert_eq!(std::fs::read(dir.join("g.tmp")).unwrap(), b"user data");
        crate::store::read_store(dir.join("g.cfkg")).unwrap();
        MappedChainIndex::open(dir.join("g.cfci"))
            .unwrap()
            .check_matches(&g)
            .unwrap();
        let mut names: Vec<String> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, ["g.cfci", "g.cfkg", "g.tmp"], "a tmp file was left");
    }

    #[test]
    fn entries_are_sorted_and_deduped() {
        let g = sample_graph();
        let ix = build_chain_index(&g, IndexParams::default());
        for e in GraphView::entities(&g).take(500) {
            let entries = ix.entries_of(e);
            for w in entries.windows(2) {
                assert!(
                    w[0].sort_key() < w[1].sort_key(),
                    "entries not strictly sorted at {e:?}"
                );
            }
        }
    }
}
