//! The multi-relational knowledge graph store with numerical triples
//! (`G = (V, R, A, N)` of Definition 1).

use crate::ids::{AttributeId, Dir, DirRel, EntityId, RelationId};
use std::collections::HashMap;

/// A relational triple `(head, relation, tail)`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Triple {
    /// Head entity.
    pub head: EntityId,
    /// Relation type.
    pub rel: RelationId,
    /// Tail entity.
    pub tail: EntityId,
}

/// A numerical triple `(entity, attribute, value)`.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct NumTriple {
    /// Entity carrying the value.
    pub entity: EntityId,
    /// Attribute type.
    pub attr: AttributeId,
    /// The numerical value.
    pub value: f64,
}

/// One traversable edge in the adjacency index (relation + direction +
/// neighbor).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Edge {
    /// Relation type and traversal direction.
    pub dr: DirRel,
    /// Neighbor reached by following the edge.
    pub to: EntityId,
}

/// One numeric fact in the per-entity CSR index: `(attribute, value)`.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct AttrFact {
    /// Attribute type.
    pub attr: AttributeId,
    /// The numerical value.
    pub value: f64,
}

/// One owner in the per-attribute CSR index: `(entity, value)`.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct AttrOwner {
    /// Entity carrying the value.
    pub entity: EntityId,
    /// The numerical value.
    pub value: f64,
}

/// Multi-relational KG enriched with numerical attributes.
///
/// Construction is two-phase: register vocabularies and triples through the
/// `add_*` methods, then call [`KnowledgeGraph::build_index`] (or use
/// [`crate::split`], which does it for you) before traversal. The adjacency
/// index is CSR-style: one flat edge vec plus per-entity offsets.
#[derive(Clone, Debug, Default)]
pub struct KnowledgeGraph {
    // The facts are pub(crate) so `crate::store` can write and read them;
    // the CSR indexes below are derived from them and never leave this
    // file.
    pub(crate) entity_names: Vec<String>,
    pub(crate) relation_names: Vec<String>,
    pub(crate) attribute_names: Vec<String>,
    pub(crate) triples: Vec<Triple>,
    pub(crate) numerics: Vec<NumTriple>,

    // CSR adjacency (both directions), valid after build_index.
    adj_offsets: Vec<usize>,
    adj_edges: Vec<Edge>,
    // Per-entity numeric facts, valid after build_index.
    num_offsets: Vec<usize>,
    num_facts: Vec<AttrFact>,
    // Per-attribute owners as CSR (one flat vec + offsets), valid after
    // build_index.
    attr_offsets: Vec<usize>,
    attr_facts: Vec<AttrOwner>,
    indexed: bool,
}

impl KnowledgeGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    // ---- construction ---------------------------------------------------

    /// Registers an entity, returning its id.
    pub fn add_entity(&mut self, name: impl Into<String>) -> EntityId {
        self.indexed = false;
        self.entity_names.push(name.into());
        EntityId((self.entity_names.len() - 1) as u32)
    }

    /// Registers a relation type, returning its id.
    pub fn add_relation_type(&mut self, name: impl Into<String>) -> RelationId {
        self.indexed = false;
        self.relation_names.push(name.into());
        RelationId((self.relation_names.len() - 1) as u32)
    }

    /// Registers a numerical attribute type, returning its id.
    pub fn add_attribute_type(&mut self, name: impl Into<String>) -> AttributeId {
        self.indexed = false;
        self.attribute_names.push(name.into());
        AttributeId((self.attribute_names.len() - 1) as u32)
    }

    /// Adds a relational triple `(head, rel, tail)`.
    pub fn add_triple(&mut self, head: EntityId, rel: RelationId, tail: EntityId) {
        debug_assert!(
            (head.0 as usize) < self.entity_names.len(),
            "unknown head entity"
        );
        debug_assert!(
            (tail.0 as usize) < self.entity_names.len(),
            "unknown tail entity"
        );
        debug_assert!(
            (rel.0 as usize) < self.relation_names.len(),
            "unknown relation"
        );
        self.indexed = false;
        self.triples.push(Triple { head, rel, tail });
    }

    /// Adds a numerical triple `(entity, attr, value)`.
    pub fn add_numeric(&mut self, entity: EntityId, attr: AttributeId, value: f64) {
        debug_assert!(
            (entity.0 as usize) < self.entity_names.len(),
            "unknown entity"
        );
        debug_assert!(
            (attr.0 as usize) < self.attribute_names.len(),
            "unknown attribute"
        );
        debug_assert!(value.is_finite(), "non-finite attribute value");
        self.indexed = false;
        self.numerics.push(NumTriple {
            entity,
            attr,
            value,
        });
    }

    /// Builds the CSR adjacency and attribute indexes. Idempotent.
    pub fn build_index(&mut self) {
        if self.indexed {
            return;
        }
        let n = self.entity_names.len();
        // Adjacency: every triple contributes a forward edge at the head and
        // an inverse edge at the tail.
        let mut degree = vec![0usize; n];
        for t in &self.triples {
            degree[t.head.0 as usize] += 1;
            degree[t.tail.0 as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut edges = vec![
            Edge {
                dr: DirRel::forward(RelationId(0)),
                to: EntityId(0)
            };
            acc
        ];
        for t in &self.triples {
            let h = t.head.0 as usize;
            edges[cursor[h]] = Edge {
                dr: DirRel::forward(t.rel),
                to: t.tail,
            };
            cursor[h] += 1;
            let tl = t.tail.0 as usize;
            edges[cursor[tl]] = Edge {
                dr: DirRel::inverse(t.rel),
                to: t.head,
            };
            cursor[tl] += 1;
        }
        self.adj_offsets = offsets;
        self.adj_edges = edges;

        // Numeric facts per entity.
        let mut ndeg = vec![0usize; n];
        for f in &self.numerics {
            ndeg[f.entity.0 as usize] += 1;
        }
        let mut noff = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        noff.push(0);
        for d in &ndeg {
            acc += d;
            noff.push(acc);
        }
        let mut ncur = noff.clone();
        let mut nfacts = vec![
            AttrFact {
                attr: AttributeId(0),
                value: 0.0
            };
            acc
        ];
        for f in &self.numerics {
            let e = f.entity.0 as usize;
            nfacts[ncur[e]] = AttrFact {
                attr: f.attr,
                value: f.value,
            };
            ncur[e] += 1;
        }
        self.num_offsets = noff;
        self.num_facts = nfacts;

        // Per-attribute owners as CSR, mirroring the adjacency layout.
        let na = self.attribute_names.len();
        let mut adeg = vec![0usize; na];
        for f in &self.numerics {
            adeg[f.attr.0 as usize] += 1;
        }
        let mut aoff = Vec::with_capacity(na + 1);
        let mut acc = 0usize;
        aoff.push(0);
        for d in &adeg {
            acc += d;
            aoff.push(acc);
        }
        let mut acur = aoff.clone();
        let mut afacts = vec![
            AttrOwner {
                entity: EntityId(0),
                value: 0.0
            };
            acc
        ];
        for f in &self.numerics {
            let a = f.attr.0 as usize;
            afacts[acur[a]] = AttrOwner {
                entity: f.entity,
                value: f.value,
            };
            acur[a] += 1;
        }
        self.attr_offsets = aoff;
        self.attr_facts = afacts;
        self.indexed = true;
    }

    // ---- vocabulary queries ----------------------------------------------

    /// Number of entities.
    pub fn num_entities(&self) -> usize {
        self.entity_names.len()
    }

    /// Number of relation types.
    pub fn num_relations(&self) -> usize {
        self.relation_names.len()
    }

    /// Number of attribute types.
    pub fn num_attributes(&self) -> usize {
        self.attribute_names.len()
    }

    /// Name of an entity.
    pub fn entity_name(&self, e: EntityId) -> &str {
        &self.entity_names[e.0 as usize]
    }

    /// Name of a relation type.
    pub fn relation_name(&self, r: RelationId) -> &str {
        &self.relation_names[r.0 as usize]
    }

    /// Name of an attribute type.
    pub fn attribute_name(&self, a: AttributeId) -> &str {
        &self.attribute_names[a.0 as usize]
    }

    /// Human-readable name of a directed relation, `_inv`-suffixed for
    /// inverse traversal (Table V style).
    pub fn dir_rel_name(&self, dr: DirRel) -> String {
        match dr.dir {
            Dir::Forward => self.relation_name(dr.rel).to_string(),
            Dir::Inverse => format!("{}_inv", self.relation_name(dr.rel)),
        }
    }

    /// Looks up a relation id by name.
    pub fn relation_by_name(&self, name: &str) -> Option<RelationId> {
        self.relation_names
            .iter()
            .position(|n| n == name)
            .map(|i| RelationId(i as u32))
    }

    /// Looks up an attribute id by name.
    pub fn attribute_by_name(&self, name: &str) -> Option<AttributeId> {
        self.attribute_names
            .iter()
            .position(|n| n == name)
            .map(|i| AttributeId(i as u32))
    }

    /// Looks up an entity id by name (linear scan; for tests and loaders
    /// prefer keeping your own map).
    pub fn entity_by_name(&self, name: &str) -> Option<EntityId> {
        self.entity_names
            .iter()
            .position(|n| n == name)
            .map(|i| EntityId(i as u32))
    }

    // ---- data queries ----------------------------------------------------

    /// All relational triples, in insertion order.
    pub fn triples(&self) -> &[Triple] {
        &self.triples
    }

    /// All numerical triples, in insertion order.
    pub fn numerics(&self) -> &[NumTriple] {
        &self.numerics
    }

    fn assert_indexed(&self) {
        assert!(self.indexed, "call build_index() before traversal queries");
    }

    /// All traversable edges at `e` (forward and inverse).
    pub fn neighbors(&self, e: EntityId) -> &[Edge] {
        self.assert_indexed();
        let i = e.0 as usize;
        &self.adj_edges[self.adj_offsets[i]..self.adj_offsets[i + 1]]
    }

    /// Degree of `e` counting both directions.
    pub fn degree(&self, e: EntityId) -> usize {
        self.neighbors(e).len()
    }

    /// Numeric facts attached to `e`.
    pub fn numerics_of(&self, e: EntityId) -> &[AttrFact] {
        self.assert_indexed();
        let i = e.0 as usize;
        &self.num_facts[self.num_offsets[i]..self.num_offsets[i + 1]]
    }

    /// The value of attribute `a` at entity `e`, if present.
    pub fn value_of(&self, e: EntityId, a: AttributeId) -> Option<f64> {
        self.numerics_of(e)
            .iter()
            .find(|f| f.attr == a)
            .map(|f| f.value)
    }

    /// All `(entity, value)` owners of an attribute.
    pub fn entities_with_attribute(&self, a: AttributeId) -> &[AttrOwner] {
        self.assert_indexed();
        let i = a.0 as usize;
        &self.attr_facts[self.attr_offsets[i]..self.attr_offsets[i + 1]]
    }

    /// Iterates over all entity ids.
    pub fn entities(&self) -> impl Iterator<Item = EntityId> {
        (0..self.entity_names.len() as u32).map(EntityId)
    }

    /// Per-attribute co-occurrence counts of (directed relation, attribute)
    /// one-hop pairs — the supervision signal used to pre-train the
    /// Hyperbolic Filter embeddings.
    pub fn relation_attribute_cooccurrence(&self) -> HashMap<(DirRel, AttributeId), usize> {
        self.assert_indexed();
        let mut counts = HashMap::new();
        for t in &self.triples {
            // head --rel--> tail: tail's attributes co-occur with forward rel
            for f in self.numerics_of(t.tail) {
                *counts.entry((DirRel::forward(t.rel), f.attr)).or_insert(0) += 1;
            }
            for f in self.numerics_of(t.head) {
                *counts.entry((DirRel::inverse(t.rel), f.attr)).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Renumbers all three vocabularies into lexicographic name order and
    /// sorts the fact lists by the new ids, then rebuilds the indexes.
    ///
    /// Two graphs holding the same *content* — regardless of the order
    /// names were registered or facts were added (e.g. TSV row order vs
    /// generator order) — become identical structures, so
    /// [`crate::write_store`] serializes them to byte-identical CFKG1
    /// files. The CLI `gen --store` and `ingest` paths both canonicalize
    /// before writing, which is what lets CI `cmp` a generated store
    /// against a TSV-round-tripped one.
    pub fn canonicalize(&mut self) {
        /// Sorts `names` in place; returns `inv` with `inv[old_id] = new_id`.
        fn perm_by_name(names: &mut Vec<String>) -> Vec<u32> {
            let mut order: Vec<u32> = (0..names.len() as u32).collect();
            order.sort_by(|&a, &b| names[a as usize].cmp(&names[b as usize]));
            let mut inv = vec![0u32; names.len()];
            for (new, &old) in order.iter().enumerate() {
                inv[old as usize] = new as u32;
            }
            let mut sorted = Vec::with_capacity(names.len());
            for &old in &order {
                sorted.push(std::mem::take(&mut names[old as usize]));
            }
            *names = sorted;
            inv
        }
        let ent = perm_by_name(&mut self.entity_names);
        let rel = perm_by_name(&mut self.relation_names);
        let attr = perm_by_name(&mut self.attribute_names);
        for t in &mut self.triples {
            t.head = EntityId(ent[t.head.0 as usize]);
            t.rel = RelationId(rel[t.rel.0 as usize]);
            t.tail = EntityId(ent[t.tail.0 as usize]);
        }
        self.triples.sort_by_key(|t| (t.head.0, t.rel.0, t.tail.0));
        for n in &mut self.numerics {
            n.entity = EntityId(ent[n.entity.0 as usize]);
            n.attr = AttributeId(attr[n.attr.0 as usize]);
        }
        // value.to_bits() is not value order for negatives, but any fixed
        // total order canonicalizes; only determinism matters here.
        self.numerics
            .sort_by_key(|n| (n.entity.0, n.attr.0, n.value.to_bits()));
        self.indexed = false;
        self.build_index();
    }

    /// Removes the given numeric triples (used to hide validation/test
    /// answers from the visible graph). Rebuilds the index.
    pub fn without_numerics(&self, hidden: &[NumTriple]) -> KnowledgeGraph {
        use std::collections::HashSet;
        let hide: HashSet<(EntityId, AttributeId)> =
            hidden.iter().map(|t| (t.entity, t.attr)).collect();
        let mut g = self.clone();
        g.numerics.retain(|t| !hide.contains(&(t.entity, t.attr)));
        g.indexed = false;
        g.build_index();
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (KnowledgeGraph, Vec<EntityId>, RelationId, AttributeId) {
        let mut g = KnowledgeGraph::new();
        let e: Vec<EntityId> = (0..4).map(|i| g.add_entity(format!("e{i}"))).collect();
        let r = g.add_relation_type("knows");
        let a = g.add_attribute_type("age");
        g.add_triple(e[0], r, e[1]);
        g.add_triple(e[1], r, e[2]);
        g.add_numeric(e[1], a, 30.0);
        g.add_numeric(e[2], a, 40.0);
        g.build_index();
        (g, e, r, a)
    }

    #[test]
    fn adjacency_has_both_directions() {
        let (g, e, r, _) = tiny();
        let n0 = g.neighbors(e[0]);
        assert_eq!(n0.len(), 1);
        assert_eq!(n0[0].to, e[1]);
        assert_eq!(n0[0].dr, DirRel::forward(r));
        let n1 = g.neighbors(e[1]);
        assert_eq!(n1.len(), 2);
        assert!(n1
            .iter()
            .any(|ed| ed.to == e[0] && ed.dr == DirRel::inverse(r)));
        assert!(n1
            .iter()
            .any(|ed| ed.to == e[2] && ed.dr == DirRel::forward(r)));
        assert!(g.neighbors(e[3]).is_empty());
    }

    #[test]
    fn numeric_lookup() {
        let (g, e, _, a) = tiny();
        assert_eq!(g.value_of(e[1], a), Some(30.0));
        assert_eq!(g.value_of(e[0], a), None);
        assert_eq!(g.entities_with_attribute(a).len(), 2);
    }

    /// The same content registered in two different orders must
    /// canonicalize to identical structures and byte-identical stores.
    #[test]
    fn canonicalize_is_order_independent() {
        let build = |ent_order: &[&str], flip_facts: bool| {
            let mut g = KnowledgeGraph::new();
            let ids: std::collections::HashMap<&str, EntityId> = ent_order
                .iter()
                .map(|name| (*name, g.add_entity(*name)))
                .collect();
            let (r1, r2) = if flip_facts {
                (g.add_relation_type("r2"), g.add_relation_type("r1"))
            } else {
                (g.add_relation_type("r1"), g.add_relation_type("r2"))
            };
            let (r1, r2) = if flip_facts { (r2, r1) } else { (r1, r2) };
            let a = g.add_attribute_type("age");
            let mut facts = vec![
                (ids["alice"], r1, ids["bob"]),
                (ids["bob"], r2, ids["carol"]),
                (ids["carol"], r1, ids["alice"]),
            ];
            if flip_facts {
                facts.reverse();
            }
            for (h, r, t) in facts {
                g.add_triple(h, r, t);
            }
            let mut nums = vec![(ids["bob"], a, 30.0), (ids["alice"], a, 41.5)];
            if flip_facts {
                nums.reverse();
            }
            for (e, a, v) in nums {
                g.add_numeric(e, a, v);
            }
            g.canonicalize();
            g
        };
        let g1 = build(&["alice", "bob", "carol"], false);
        let g2 = build(&["carol", "alice", "bob"], true);
        assert_eq!(g1.entity_names, g2.entity_names);
        assert_eq!(g1.relation_names, g2.relation_names);
        assert_eq!(g1.triples, g2.triples);
        assert_eq!(g1.numerics, g2.numerics);
        let dir = cf_check::TempDir::new("kg_canon");
        let (p1, p2) = (dir.join("a"), dir.join("b"));
        crate::write_store(&g1, &p1).unwrap();
        crate::write_store(&g2, &p2).unwrap();
        let same = std::fs::read(&p1).unwrap() == std::fs::read(&p2).unwrap();
        assert!(same, "canonicalized stores differ");
    }

    #[test]
    fn dir_rel_names() {
        let (g, _, r, _) = tiny();
        assert_eq!(g.dir_rel_name(DirRel::forward(r)), "knows");
        assert_eq!(g.dir_rel_name(DirRel::inverse(r)), "knows_inv");
    }

    #[test]
    fn cooccurrence_counts_both_directions() {
        let (g, _, r, a) = tiny();
        let co = g.relation_attribute_cooccurrence();
        // e0 --knows--> e1(age): forward knows sees age once (from e0->e1),
        // and e1 --knows--> e2(age): forward knows sees age again.
        assert_eq!(co[&(DirRel::forward(r), a)], 2);
        // inverse: e1's age seen from e1->e2 tail side? inverse counts head
        // attrs: e1(age) head of e1->e2 -> 1.
        assert_eq!(co[&(DirRel::inverse(r), a)], 1);
    }

    #[test]
    fn without_numerics_hides_values() {
        let (g, e, _, a) = tiny();
        let hidden = vec![NumTriple {
            entity: e[1],
            attr: a,
            value: 30.0,
        }];
        let g2 = g.without_numerics(&hidden);
        assert_eq!(g2.value_of(e[1], a), None);
        assert_eq!(g2.value_of(e[2], a), Some(40.0));
        // Original untouched.
        assert_eq!(g.value_of(e[1], a), Some(30.0));
    }

    #[test]
    #[should_panic(expected = "build_index")]
    fn traversal_requires_index() {
        let mut g = KnowledgeGraph::new();
        let e = g.add_entity("x");
        g.neighbors(e);
    }

    #[test]
    fn lookup_by_name() {
        let (g, e, r, a) = tiny();
        assert_eq!(g.entity_by_name("e2"), Some(e[2]));
        assert_eq!(g.relation_by_name("knows"), Some(r));
        assert_eq!(g.attribute_by_name("age"), Some(a));
        assert_eq!(g.relation_by_name("nope"), None);
    }
}
