//! Delta-capable graph view: an immutable [`KnowledgeGraph`] base plus an
//! in-memory overlay of applied [`Mutation`]s, exposed through the same
//! [`GraphView`] trait the retrieval and model layers are generic over —
//! so chains gathered over a mutated graph run the exact same code (and
//! consume the exact same RNG stream) as over a plain store.
//!
//! ## Row semantics
//!
//! `GraphView` hands out *slices*, so the overlay cannot merge base and
//! delta lazily per call. Instead it keeps **copy-on-write rows**: the
//! first mutation touching an entity (or attribute) clones that one CSR
//! row out of the base; every untouched row is served from the base with
//! zero copies. Rows are maintained in exactly the order
//! [`KnowledgeGraph::build_index`] would produce for the equivalent
//! insertion sequence, which is what makes [`OverlayGraph::materialize`]
//! (and therefore compaction) *id-preserving and bitwise round-trippable*:
//! retrieval over the overlay equals retrieval over the compacted store,
//! bit for bit.
//!
//! The base is assumed canonical (`cfkg ingest`/`gen` stores are): its
//! numeric facts are sorted by `(entity, attr)`, so per-attribute owner
//! rows are entity-ordered and sorted insertion keeps them that way.
//!
//! ## Compaction
//!
//! [`OverlayGraph::compact_to`] materializes base + overlay into a heap
//! [`KnowledgeGraph`] — names in id order, base triples in file order plus
//! overlay edges in application order, numeric rows concatenated in entity
//! order — and writes it through the store's atomic tmp → fsync → rename
//! path. Entity/relation/attribute ids are preserved verbatim.

use crate::graph::{AttrFact, AttrOwner, Edge, KnowledgeGraph, Triple};
use crate::ids::{AttributeId, DirRel, EntityId, RelationId};
use crate::journal::Mutation;
use crate::store::StoreError;
use crate::view::GraphView;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::path::Path;
use std::sync::OnceLock;

/// What applying one mutation changed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// Entities whose rows (adjacency or numeric) changed. Empty for
    /// idempotent no-ops and pure vocabulary additions.
    pub touched: Vec<EntityId>,
    /// False when the mutation was already reflected in the graph.
    pub changed: bool,
}

/// An immutable base graph plus an in-memory mutation overlay.
#[derive(Debug)]
pub struct OverlayGraph {
    base: KnowledgeGraph,

    added_entities: Vec<String>,
    added_relations: Vec<String>,
    added_attributes: Vec<String>,
    added_triples: Vec<Triple>,

    // Copy-on-write merged CSR rows for touched ids.
    adj_over: HashMap<u32, Vec<Edge>>,
    num_over: HashMap<u32, Vec<AttrFact>>,
    attr_over: HashMap<u32, Vec<AttrOwner>>,

    // Name → id over base + added entities, built on the first lookup (a
    // request's name resolution or a mutation's) and kept current by
    // `ensure_entity`; the base store itself only scans.
    entity_ids: OnceLock<NameIndex>,

    mutations_applied: u64,
}

impl OverlayGraph {
    /// Wraps a base graph with an empty overlay.
    pub fn new(base: KnowledgeGraph) -> Self {
        OverlayGraph {
            base,
            added_entities: Vec::new(),
            added_relations: Vec::new(),
            added_attributes: Vec::new(),
            added_triples: Vec::new(),
            adj_over: HashMap::new(),
            num_over: HashMap::new(),
            attr_over: HashMap::new(),
            entity_ids: OnceLock::new(),
            mutations_applied: 0,
        }
    }

    /// Number of mutations applied that changed the graph.
    pub fn mutations_applied(&self) -> u64 {
        self.mutations_applied
    }

    fn ensure_entity(&mut self, name: &str) -> (EntityId, bool) {
        if let Some(e) = self.entity_by_name(name) {
            return (e, false);
        }
        let id = self.num_entities() as u32;
        self.added_entities.push(name.to_string());
        let (base, added) = (&self.base, &self.added_entities);
        self.entity_ids
            .get_mut()
            .expect("built by the lookup above")
            .insert(id, &|i| entity_name_in(base, added, i));
        (EntityId(id), true)
    }

    fn ensure_relation(&mut self, name: &str) -> RelationId {
        if let Some(r) = self.relation_by_name(name) {
            return r;
        }
        let id = self.num_relations() as u32;
        self.added_relations.push(name.to_string());
        RelationId(id)
    }

    fn ensure_attribute(&mut self, name: &str) -> AttributeId {
        if let Some(a) = self.attribute_by_name(name) {
            return a;
        }
        let id = self.num_attributes() as u32;
        self.added_attributes.push(name.to_string());
        AttributeId(id)
    }

    fn adj_row_mut(&mut self, e: EntityId) -> &mut Vec<Edge> {
        let base = &self.base;
        self.adj_over.entry(e.0).or_insert_with(|| {
            if (e.0 as usize) < base.num_entities() {
                base.neighbors(e).to_vec()
            } else {
                Vec::new()
            }
        })
    }

    fn num_row_mut(&mut self, e: EntityId) -> &mut Vec<AttrFact> {
        let base = &self.base;
        self.num_over.entry(e.0).or_insert_with(|| {
            if (e.0 as usize) < base.num_entities() {
                base.numerics_of(e).to_vec()
            } else {
                Vec::new()
            }
        })
    }

    fn attr_row_mut(&mut self, a: AttributeId) -> &mut Vec<AttrOwner> {
        let base = &self.base;
        self.attr_over.entry(a.0).or_insert_with(|| {
            if (a.0 as usize) < base.num_attributes() {
                base.entities_with_attribute(a).to_vec()
            } else {
                Vec::new()
            }
        })
    }

    /// Applies one mutation, returning which entity rows changed.
    /// Idempotent: re-applying an already-reflected mutation is a no-op.
    pub fn apply(&mut self, m: &Mutation) -> ApplyOutcome {
        let outcome = match m {
            Mutation::AddEntity { name } => {
                let (_, created) = self.ensure_entity(name);
                ApplyOutcome {
                    touched: Vec::new(),
                    changed: created,
                }
            }
            Mutation::UpsertNumeric {
                entity,
                attr,
                value,
            } => {
                let (e, _) = self.ensure_entity(entity);
                let a = self.ensure_attribute(attr);
                let row = self.num_row_mut(e);
                let changed = match row.iter_mut().find(|f| f.attr == a) {
                    Some(f) if f.value.to_bits() == value.to_bits() => false,
                    Some(f) => {
                        f.value = *value;
                        true
                    }
                    None => {
                        row.push(AttrFact {
                            attr: a,
                            value: *value,
                        });
                        true
                    }
                };
                if changed {
                    let owners = self.attr_row_mut(a);
                    match owners.iter_mut().find(|o| o.entity == e) {
                        Some(o) => o.value = *value,
                        None => {
                            // Owner rows are entity-ordered (canonical
                            // base); keep them that way so materialize
                            // round-trips bitwise.
                            let at = owners.partition_point(|o| o.entity.0 <= e.0);
                            owners.insert(
                                at,
                                AttrOwner {
                                    entity: e,
                                    value: *value,
                                },
                            );
                        }
                    }
                }
                ApplyOutcome {
                    touched: if changed { vec![e] } else { Vec::new() },
                    changed,
                }
            }
            Mutation::AddEdge { head, rel, tail } => {
                let (h, _) = self.ensure_entity(head);
                let (t, _) = self.ensure_entity(tail);
                let r = self.ensure_relation(rel);
                let fwd = Edge {
                    dr: DirRel::forward(r),
                    to: t,
                };
                let present = self.neighbors(h).contains(&fwd);
                if present {
                    ApplyOutcome {
                        touched: Vec::new(),
                        changed: false,
                    }
                } else {
                    // Same edge order build_index produces: the forward
                    // edge lands at the head before the inverse lands at
                    // the tail (also for self-loops, same row).
                    self.adj_row_mut(h).push(fwd);
                    self.adj_row_mut(t).push(Edge {
                        dr: DirRel::inverse(r),
                        to: h,
                    });
                    self.added_triples.push(Triple {
                        head: h,
                        rel: r,
                        tail: t,
                    });
                    ApplyOutcome {
                        touched: if h == t { vec![h] } else { vec![h, t] },
                        changed: true,
                    }
                }
            }
        };
        if outcome.changed {
            self.mutations_applied += 1;
        }
        outcome
    }

    /// Applies a batch in order: a served mutation batch, a journal replay
    /// or an offline compaction. Returns how many mutations changed the
    /// graph and the union of touched entities in first-touch order.
    pub fn apply_all(&mut self, muts: &[Mutation]) -> (usize, Vec<EntityId>) {
        let mut changed = 0;
        let mut touched = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for m in muts {
            let out = self.apply(m);
            changed += usize::from(out.changed);
            for e in out.touched {
                if seen.insert(e) {
                    touched.push(e);
                }
            }
        }
        (changed, touched)
    }

    /// Materializes base + overlay into an indexed heap graph with the
    /// **same ids** and the same CSR row contents as this view — retrieval
    /// over the result is bitwise identical to retrieval over the overlay.
    pub fn materialize(&self) -> KnowledgeGraph {
        let mut g = self.facts();
        g.build_index();
        g
    }

    /// The facts of base + overlay as an unindexed graph: what
    /// [`Self::materialize`] indexes, and all a store needs.
    fn facts(&self) -> KnowledgeGraph {
        let mut g = KnowledgeGraph::new();
        for e in 0..self.num_entities() {
            g.add_entity(self.entity_name(EntityId(e as u32)));
        }
        for r in 0..self.num_relations() {
            g.add_relation_type(self.relation_name(RelationId(r as u32)));
        }
        for a in 0..self.num_attributes() {
            g.add_attribute_type(self.attribute_name(AttributeId(a as u32)));
        }
        for t in self.base.triples().iter().chain(&self.added_triples) {
            g.add_triple(t.head, t.rel, t.tail);
        }
        for e in self.entities() {
            for f in self.numerics_of(e) {
                g.add_numeric(e, f.attr, f.value);
            }
        }
        g
    }

    /// Compacts base + overlay to a canonical CFKG1 file via the atomic
    /// tmp → fsync → rename path. The overlay itself is left untouched;
    /// after a restart the compacted store replays any surviving journal
    /// records as no-ops (idempotence).
    pub fn compact_to(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        crate::store::write_store(&self.facts(), path)
    }
}

impl GraphView for OverlayGraph {
    fn num_entities(&self) -> usize {
        self.base.num_entities() + self.added_entities.len()
    }

    fn num_relations(&self) -> usize {
        self.base.num_relations() + self.added_relations.len()
    }

    fn num_attributes(&self) -> usize {
        self.base.num_attributes() + self.added_attributes.len()
    }

    fn neighbors(&self, e: EntityId) -> &[Edge] {
        if let Some(row) = self.adj_over.get(&e.0) {
            return row;
        }
        if (e.0 as usize) < self.base.num_entities() {
            self.base.neighbors(e)
        } else {
            assert!((e.0 as usize) < self.num_entities(), "entity out of range");
            &[]
        }
    }

    fn numerics_of(&self, e: EntityId) -> &[AttrFact] {
        if let Some(row) = self.num_over.get(&e.0) {
            return row;
        }
        if (e.0 as usize) < self.base.num_entities() {
            self.base.numerics_of(e)
        } else {
            assert!((e.0 as usize) < self.num_entities(), "entity out of range");
            &[]
        }
    }

    fn entities_with_attribute(&self, a: AttributeId) -> &[AttrOwner] {
        if let Some(row) = self.attr_over.get(&a.0) {
            return row;
        }
        if (a.0 as usize) < self.base.num_attributes() {
            self.base.entities_with_attribute(a)
        } else {
            assert!(
                (a.0 as usize) < self.num_attributes(),
                "attribute out of range"
            );
            &[]
        }
    }

    fn entity_name(&self, e: EntityId) -> &str {
        entity_name_in(&self.base, &self.added_entities, e.0)
    }

    /// Through the name index: the first id with `name`, as the scan finds.
    fn entity_by_name(&self, name: &str) -> Option<EntityId> {
        let name_of = |i| entity_name_in(&self.base, &self.added_entities, i);
        self.entity_ids
            .get_or_init(|| NameIndex::build(self.num_entities(), &name_of))
            .get(name, &name_of)
            .map(EntityId)
    }

    fn relation_name(&self, r: RelationId) -> &str {
        let n = self.base.num_relations();
        if (r.0 as usize) < n {
            self.base.relation_name(r)
        } else {
            &self.added_relations[r.0 as usize - n]
        }
    }

    fn attribute_name(&self, a: AttributeId) -> &str {
        let n = self.base.num_attributes();
        if (a.0 as usize) < n {
            self.base.attribute_name(a)
        } else {
            &self.added_attributes[a.0 as usize - n]
        }
    }
}

/// The name of entity `id` among `base`'s entities followed by `added`.
fn entity_name_in<'a>(base: &'a KnowledgeGraph, added: &'a [String], id: u32) -> &'a str {
    let n = base.num_entities();
    if (id as usize) < n {
        base.entity_name(EntityId(id))
    } else {
        &added[id as usize - n]
    }
}

/// Name → entity id lookups without a copy of any name: a power-of-two
/// open-addressing table of ids, at most half full, whose probes compare
/// against the graph's own names (`name_of`). About 128 KB at 15k entities.
/// A repeated name keeps the first id's slot, so lookups agree with the
/// [`GraphView::entity_by_name`] scan. Names arrive from clients (requests
/// and mutations), so they are hashed with the standard library's randomly
/// keyed hasher, which no client can make collide on purpose; the hash
/// only orders probes and never decides which id a name finds.
#[derive(Debug)]
struct NameIndex {
    slots: Vec<u32>,
    len: usize,
    hasher: RandomState,
}

impl NameIndex {
    const EMPTY: u32 = u32::MAX;

    /// The index of ids `0..n`.
    fn build<'a>(n: usize, name_of: &dyn Fn(u32) -> &'a str) -> NameIndex {
        let mut index = NameIndex {
            slots: vec![Self::EMPTY; (2 * n).max(16).next_power_of_two()],
            len: 0,
            hasher: RandomState::new(),
        };
        for id in 0..n as u32 {
            index.insert(id, name_of);
        }
        index
    }

    fn get<'a>(&self, name: &str, name_of: &dyn Fn(u32) -> &'a str) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut slot = self.hasher.hash_one(name) as usize & mask;
        loop {
            match self.slots[slot] {
                Self::EMPTY => return None,
                id if name_of(id) == name => return Some(id),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Adds `id` under its name unless an earlier id holds that name.
    fn insert<'a>(&mut self, id: u32, name_of: &dyn Fn(u32) -> &'a str) {
        assert_ne!(id, Self::EMPTY, "fewer than 2^32 - 1 entities");
        let name = name_of(id);
        let mask = self.slots.len() - 1;
        let mut slot = self.hasher.hash_one(name) as usize & mask;
        loop {
            match self.slots[slot] {
                Self::EMPTY => break,
                held if name_of(held) == name => return,
                _ => slot = (slot + 1) & mask,
            }
        }
        self.slots[slot] = id;
        self.len += 1;
        if 2 * self.len > self.slots.len() {
            // Re-inserting in id order keeps each repeated name's first id.
            let mut ids: Vec<u32> = self
                .slots
                .iter()
                .copied()
                .filter(|&i| i != Self::EMPTY)
                .collect();
            ids.sort_unstable();
            self.slots = vec![Self::EMPTY; 2 * self.slots.len()];
            self.len = 0;
            for i in ids {
                self.insert(i, name_of);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A store may repeat an entity name. A request's name resolution and
    /// a mutation's must agree on the entity it names: the first id, as
    /// the scan finds it, whichever of the two builds the index.
    #[test]
    fn repeated_name_resolves_and_mutates_the_first_id() {
        let mut g = KnowledgeGraph::new();
        let x0 = g.add_entity("x");
        let x1 = g.add_entity("x");
        g.add_entity("y");
        let a = g.add_attribute_type("a");
        g.build_index();
        let upsert = |value| Mutation::UpsertNumeric {
            entity: "x".into(),
            attr: "a".into(),
            value,
        };

        // Looked up first.
        let mut o = OverlayGraph::new(g.clone());
        assert_eq!(o.entity_by_name("x"), Some(x0));
        assert_eq!(o.apply(&upsert(2.5)).touched, vec![x0]);
        assert_eq!(o.value_of(x0, a), Some(2.5));
        assert_eq!(o.value_of(x1, a), None);

        // Mutated first.
        let mut o = OverlayGraph::new(g);
        assert_eq!(o.apply(&upsert(4.0)).touched, vec![x0]);
        assert_eq!(o.entity_by_name("x"), Some(x0));
        assert_eq!(o.value_of(x1, a), None);

        // Added names resolve through every growth of the table, and a
        // re-added name is no new entity.
        for i in 0..100 {
            let name = format!("n{i}");
            let out = o.apply(&Mutation::AddEntity { name: name.clone() });
            assert!(out.changed);
            assert_eq!(o.entity_by_name(&name), Some(EntityId(3 + i)));
        }
        assert!(!o.apply(&Mutation::AddEntity { name: "x".into() }).changed);
        assert_eq!(o.entity_by_name("x"), Some(x0));
        assert_eq!(o.entity_by_name("y"), Some(EntityId(2)));
        assert_eq!(o.entity_by_name("absent"), None);
        assert_eq!(o.num_entities(), 103);
    }
}
