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

use crate::graph::KnowledgeGraph;
use crate::ids::{AttributeId, DirRel, EntityId};
use crate::mmapio::Mmap;
use crate::store::{cast_u64s, walk_sections, SectionWriter, StoreError};
use crate::view::GraphView;
use std::ops::Range;
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
    /// Per-node branch cap during the DFS: only the first `fanout` non-cycle
    /// edges (adjacency order) are expanded at each node.
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

    /// Errors unless the index fingerprint matches `g`.
    fn check_matches(&self, g: &impl GraphView) -> Result<(), StoreError>
    where
        Self: Sized,
    {
        if self.num_entities() != g.num_entities() || self.fingerprint() != graph_fingerprint(g) {
            return Err(StoreError::Corrupt {
                section: "params",
                what: "index fingerprint does not match the graph".into(),
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

/// Depth-first enumeration of simple paths from `e`, bounded by
/// `params.max_hops` and `params.fanout`, pushing one entry per numeric fact
/// at every visited node. Purely sequential per entity — determinism comes
/// from fixed adjacency order.
fn collect_entity(
    g: &impl GraphView,
    e: EntityId,
    params: &IndexParams,
    scratch: &mut Vec<ChainEntry>,
) {
    scratch.clear();
    // Raw enumeration is bounded: if a hub's DFS overflows this guard we
    // stop expanding (canonical sort below then keeps the shortest chains).
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
    dfs(g, e, 0, &mut path, &mut toks, params, scratch_cap, scratch);
    // Canonicalize: sort (hops first, so the cap keeps short chains), dedup
    // exact duplicates reached via different intermediate nodes, cap.
    scratch.sort_unstable_by_key(|c| c.sort_key());
    scratch.dedup_by(|a, b| a.sort_key() == b.sort_key());
    scratch.truncate(params.per_entity_cap as usize);
}

#[allow(clippy::too_many_arguments)]
fn dfs(
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
        dfs(g, edge.to, depth + 1, path, toks, params, scratch_cap, out);
    }
}

/// Builds the chain index for `g`, in parallel on the global thread pool.
///
/// Entities are split into a fixed shard count; each shard's entries are
/// computed independently and concatenated in shard order, so the result is
/// bitwise identical at every thread count.
pub fn build_chain_index<G: GraphView + Sync>(g: &G, params: IndexParams) -> ChainIndex {
    assert!(
        (1..=3).contains(&params.max_hops),
        "max_hops must be in 1..=3"
    );
    assert!(params.fanout >= 1 && params.per_entity_cap >= 1);
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

fn cast_entries(bytes: &[u8]) -> &[ChainEntry] {
    assert!(bytes.as_ptr() as usize % 8 == 0 && bytes.len() % 32 == 0);
    // SAFETY: ChainEntry is repr(C), 32 bytes, align 8, every field
    // inhabited for all bit patterns; contents were validated at open.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const ChainEntry, bytes.len() / 32) }
}

impl MappedChainIndex {
    /// Opens and fully validates a CFCI1 file.
    pub fn open(path: impl AsRef<Path>) -> Result<MappedChainIndex, StoreError> {
        let mem = Mmap::open(path)?;
        let bytes = mem.bytes();
        let sections = walk_sections(bytes, &INDEX_MAGIC, index_section_name, true)?;
        let mut params_r = None;
        let mut offsets_r = None;
        let mut entries_r = None;
        for s in sections {
            let slot = match s.tag {
                TAG_PARAMS => &mut params_r,
                TAG_OFFSETS => &mut offsets_r,
                TAG_ENTRIES => &mut entries_r,
                _ => continue,
            };
            if slot.is_some() {
                return Err(StoreError::Duplicate {
                    section: index_section_name(s.tag),
                });
            }
            *slot = Some(s.body);
        }
        let params_b = params_r.ok_or(StoreError::Missing { section: "params" })?;
        let offsets_b = offsets_r.ok_or(StoreError::Missing { section: "offsets" })?;
        let entries_b = entries_r.ok_or(StoreError::Missing { section: "entries" })?;

        if params_b.len() != 64 {
            return Err(StoreError::Corrupt {
                section: "params",
                what: "expected 64-byte body".into(),
            });
        }
        let pv = cast_u64s(&bytes[params_b]);
        let n = pv[0];
        let n_attrs = pv[1];
        let n_rel_tokens = pv[2];
        let (max_hops, fanout, cap) = (pv[3], pv[4], pv[5]);
        let fingerprint = pv[6];
        if n > MAX_ENTITIES {
            return Err(StoreError::TooLarge { section: "params" });
        }
        if !(1..=3).contains(&max_hops)
            || fanout == 0
            || cap == 0
            || fanout > u32::MAX as u64
            || cap > u32::MAX as u64
            || n_attrs > MAX_ENTITIES
            || n_rel_tokens > MAX_ENTITIES
        {
            return Err(StoreError::Corrupt {
                section: "params",
                what: "parameter out of range".into(),
            });
        }
        let n = n as usize;

        if offsets_b.len() != 8 * (n + 1) {
            return Err(StoreError::Corrupt {
                section: "offsets",
                what: "body length does not match entity count".into(),
            });
        }
        if entries_b.len() % 32 != 0 {
            return Err(StoreError::Corrupt {
                section: "entries",
                what: "body length not a multiple of 32".into(),
            });
        }
        let total = (entries_b.len() / 32) as u64;
        if total > MAX_ENTRIES {
            return Err(StoreError::TooLarge { section: "entries" });
        }
        let offs = cast_u64s(&bytes[offsets_b.clone()]);
        if offs.first() != Some(&0)
            || offs.windows(2).any(|w| w[0] > w[1])
            || offs.last() != Some(&total)
        {
            return Err(StoreError::Corrupt {
                section: "offsets",
                what: "offsets not monotone from 0 to the entry count".into(),
            });
        }

        // Validate every entry: ids in range, hops ≤ max_hops, used tokens
        // dense, unused slots NO_TOKEN, value finite.
        {
            let raw = cast_u64s(&bytes[entries_b.clone()]);
            for rec in raw.chunks_exact(4) {
                let source = rec[0] as u32 as u64;
                let attr = rec[0] >> 32;
                let hops = rec[1] as u32;
                let toks = [(rec[1] >> 32) as u32, rec[2] as u32, (rec[2] >> 32) as u32];
                let vbits = rec[3];
                if source >= n as u64 || attr >= n_attrs || hops as u64 > max_hops {
                    return Err(StoreError::Corrupt {
                        section: "entries",
                        what: "entry id or hop count out of range".into(),
                    });
                }
                for (i, &t) in toks.iter().enumerate() {
                    let used = (i as u32) < hops;
                    if used && t as u64 >= n_rel_tokens {
                        return Err(StoreError::Corrupt {
                            section: "entries",
                            what: "relation token out of range".into(),
                        });
                    }
                    if !used && t != NO_TOKEN {
                        return Err(StoreError::Corrupt {
                            section: "entries",
                            what: "unused token slot not NO_TOKEN".into(),
                        });
                    }
                }
                if (vbits >> 52) & 0x7FF == 0x7FF {
                    return Err(StoreError::Corrupt {
                        section: "entries",
                        what: "non-finite value".into(),
                    });
                }
            }
        }

        Ok(MappedChainIndex {
            mem,
            params: IndexParams {
                max_hops: max_hops as u32,
                fanout: fanout as u32,
                per_entity_cap: cap as u32,
            },
            fingerprint,
            n_entities: n,
            offsets: offsets_b,
            entries: entries_b,
        })
    }

    /// Whether the kernel zero-copy mapping is in use.
    pub fn is_kernel_mapped(&self) -> bool {
        self.mem.is_kernel_mapped()
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

/// Either chain-index backend behind one concrete type.
#[derive(Debug)]
pub enum ChainIndexStore {
    /// Heap-built index.
    Built(ChainIndex),
    /// Zero-copy mmap view over a CFCI1 file.
    Mapped(MappedChainIndex),
}

impl From<ChainIndex> for ChainIndexStore {
    fn from(ix: ChainIndex) -> Self {
        ChainIndexStore::Built(ix)
    }
}

impl From<MappedChainIndex> for ChainIndexStore {
    fn from(ix: MappedChainIndex) -> Self {
        ChainIndexStore::Mapped(ix)
    }
}

impl ChainIndexView for ChainIndexStore {
    fn num_entities(&self) -> usize {
        match self {
            ChainIndexStore::Built(ix) => ix.num_entities(),
            ChainIndexStore::Mapped(ix) => ix.num_entities(),
        }
    }
    fn params(&self) -> IndexParams {
        match self {
            ChainIndexStore::Built(ix) => ix.params(),
            ChainIndexStore::Mapped(ix) => ix.params(),
        }
    }
    fn fingerprint(&self) -> u64 {
        match self {
            ChainIndexStore::Built(ix) => ix.fingerprint(),
            ChainIndexStore::Mapped(ix) => ix.fingerprint(),
        }
    }
    fn entries_of(&self, e: EntityId) -> &[ChainEntry] {
        match self {
            ChainIndexStore::Built(ix) => ix.entries_of(e),
            ChainIndexStore::Mapped(ix) => ix.entries_of(e),
        }
    }
    fn total_entries(&self) -> usize {
        match self {
            ChainIndexStore::Built(ix) => ix.total_entries(),
            ChainIndexStore::Mapped(ix) => ix.total_entries(),
        }
    }
}

/// Convenience: builds the index for a heap graph with default parameters.
pub fn build_default_index(g: &KnowledgeGraph) -> ChainIndex {
    build_chain_index(g, IndexParams::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{yago15k_sim, SynthScale};
    use cf_check::TempDir;
    use cf_rand::rngs::StdRng;
    use cf_rand::SeedableRng;

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
        let ix = build_default_index(&g);
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
        let ix1 = build_default_index(&g);
        cf_tensor::pool::set_threads(4);
        let ix4 = build_default_index(&g);
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
        let ix = build_default_index(&g);
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
        let ix = build_default_index(&g);
        let (_dir, p) = tmp("fpr");
        write_index(&ix, &p).unwrap();
        let m = MappedChainIndex::open(&p).unwrap();
        let mut other = KnowledgeGraph::new();
        other.add_entity("x");
        other.build_index();
        assert!(m.check_matches(&other).is_err());
    }

    #[test]
    fn index_corruption_is_detected() {
        let g = sample_graph();
        let ix = build_default_index(&g);
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
        let ix = build_default_index(&g);
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
