//! [`GraphView`]: the read-only graph-access trait implemented by the
//! [`KnowledgeGraph`] and by the live [`crate::OverlayGraph`] (a base graph
//! plus journaled mutations).
//!
//! Chain retrieval, enumeration and the model's gather path are generic over
//! this trait so the exact same code (and therefore the exact same RNG
//! consumption) runs against either — the bit-equality property "retrieve
//! over the overlay == retrieve over its compacted store" is structural, not
//! tested into existence.

use crate::graph::{AttrFact, AttrOwner, Edge, KnowledgeGraph};
use crate::ids::{AttributeId, Dir, DirRel, EntityId, RelationId};

/// Read-only access to an indexed knowledge graph.
///
/// Implemented by [`KnowledgeGraph`] and [`crate::OverlayGraph`]. All
/// slice-returning methods must present facts in the same canonical order
/// as [`KnowledgeGraph::build_index`] (triple insertion order within each
/// CSR row), which is what makes retrieval bitwise identical across the
/// two.
pub trait GraphView {
    /// Number of entities.
    fn num_entities(&self) -> usize;
    /// Number of relation types.
    fn num_relations(&self) -> usize;
    /// Number of attribute types.
    fn num_attributes(&self) -> usize;

    /// All traversable edges at `e` (forward and inverse).
    fn neighbors(&self, e: EntityId) -> &[Edge];
    /// Numeric facts attached to `e`.
    fn numerics_of(&self, e: EntityId) -> &[AttrFact];
    /// All `(entity, value)` owners of an attribute.
    fn entities_with_attribute(&self, a: AttributeId) -> &[AttrOwner];

    /// Name of an entity.
    fn entity_name(&self, e: EntityId) -> &str;
    /// Name of a relation type.
    fn relation_name(&self, r: RelationId) -> &str;
    /// Name of an attribute type.
    fn attribute_name(&self, a: AttributeId) -> &str;

    // ---- provided --------------------------------------------------------

    /// Degree of `e` counting both directions.
    fn degree(&self, e: EntityId) -> usize {
        self.neighbors(e).len()
    }

    /// The value of attribute `a` at entity `e`, if present.
    fn value_of(&self, e: EntityId, a: AttributeId) -> Option<f64> {
        self.numerics_of(e)
            .iter()
            .find(|f| f.attr == a)
            .map(|f| f.value)
    }

    /// Human-readable name of a directed relation, `_inv`-suffixed for
    /// inverse traversal (Table V style).
    fn dir_rel_name(&self, dr: DirRel) -> String {
        match dr.dir {
            Dir::Forward => self.relation_name(dr.rel).to_string(),
            Dir::Inverse => format!("{}_inv", self.relation_name(dr.rel)),
        }
    }

    /// Iterates over all entity ids.
    fn entities(&self) -> std::iter::Map<std::ops::Range<u32>, fn(u32) -> EntityId> {
        (0..self.num_entities() as u32).map(EntityId as fn(u32) -> EntityId)
    }

    /// Looks up an entity id by name (linear scan).
    fn entity_by_name(&self, name: &str) -> Option<EntityId> {
        (0..self.num_entities() as u32)
            .map(EntityId)
            .find(|&e| self.entity_name(e) == name)
    }

    /// Looks up a relation id by name (linear scan).
    fn relation_by_name(&self, name: &str) -> Option<RelationId> {
        (0..self.num_relations() as u32)
            .map(RelationId)
            .find(|&r| self.relation_name(r) == name)
    }

    /// Looks up an attribute id by name (linear scan).
    fn attribute_by_name(&self, name: &str) -> Option<AttributeId> {
        (0..self.num_attributes() as u32)
            .map(AttributeId)
            .find(|&a| self.attribute_name(a) == name)
    }
}

impl GraphView for KnowledgeGraph {
    fn num_entities(&self) -> usize {
        KnowledgeGraph::num_entities(self)
    }
    fn num_relations(&self) -> usize {
        KnowledgeGraph::num_relations(self)
    }
    fn num_attributes(&self) -> usize {
        KnowledgeGraph::num_attributes(self)
    }
    fn neighbors(&self, e: EntityId) -> &[Edge] {
        KnowledgeGraph::neighbors(self, e)
    }
    fn numerics_of(&self, e: EntityId) -> &[AttrFact] {
        KnowledgeGraph::numerics_of(self, e)
    }
    fn entities_with_attribute(&self, a: AttributeId) -> &[AttrOwner] {
        KnowledgeGraph::entities_with_attribute(self, a)
    }
    fn entity_name(&self, e: EntityId) -> &str {
        KnowledgeGraph::entity_name(self, e)
    }
    fn relation_name(&self, r: RelationId) -> &str {
        KnowledgeGraph::relation_name(self, r)
    }
    fn attribute_name(&self, a: AttributeId) -> &str {
        KnowledgeGraph::attribute_name(self, a)
    }
}
