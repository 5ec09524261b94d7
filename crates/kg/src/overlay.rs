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
use std::collections::HashMap;
use std::path::Path;

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

    // Lazy name → id map covering base + added entities, built on the
    // first mutation so the apply path is O(1) in the entity count after
    // a one-time scan (the base store itself only supports linear lookup).
    entity_ids: Option<HashMap<String, u32>>,

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
            entity_ids: None,
            mutations_applied: 0,
        }
    }

    /// Number of mutations applied that changed the graph.
    pub fn mutations_applied(&self) -> u64 {
        self.mutations_applied
    }

    fn entity_map(&mut self) -> &mut HashMap<String, u32> {
        if self.entity_ids.is_none() {
            let n = self.base.num_entities();
            let mut map = HashMap::with_capacity(n + self.added_entities.len());
            for i in 0..n {
                map.insert(
                    self.base.entity_name(EntityId(i as u32)).to_string(),
                    i as u32,
                );
            }
            for (i, name) in self.added_entities.iter().enumerate() {
                map.insert(name.clone(), (n + i) as u32);
            }
            self.entity_ids = Some(map);
        }
        self.entity_ids.as_mut().unwrap()
    }

    fn ensure_entity(&mut self, name: &str) -> (EntityId, bool) {
        if let Some(&id) = self.entity_map().get(name) {
            return (EntityId(id), false);
        }
        let id = self.num_entities() as u32;
        self.added_entities.push(name.to_string());
        self.entity_map().insert(name.to_string(), id);
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
        let n = self.base.num_entities();
        if (e.0 as usize) < n {
            self.base.entity_name(e)
        } else {
            &self.added_entities[e.0 as usize - n]
        }
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
