//! Relation-Attribute Chains (§IV-A, Eq. 5).

use cf_kg::{AttributeId, DirRel, EntityId, GraphView};

/// A numerical-reasoning query `(v_q, a_q, ?)`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Query {
    /// The entity being queried (`v_q`).
    pub entity: EntityId,
    /// The attribute whose value is missing (`a_q`).
    pub attr: AttributeId,
}

/// An RA-Chain `c = (a_p, r_1, …, r_l, a_q)`: the tokenized reasoning
/// pattern of one logic chain, with entities abstracted away (Eq. 5).
///
/// `rels` is stored in *walk order from the query entity*: `rels[0]` is the
/// first step taken from `v_q`, so it corresponds to the paper's `r_l` and
/// the last element to `r_1`. This matches the Transformer input order of
/// Eq. 11 (`a_p ‖ r_l ‖ … ‖ r_1 ‖ a_q ‖ end`) when the sequence is read as
/// `[known_attr, rels reversed, query_attr, end]`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct RaChain {
    /// The known attribute `a_p` at the far end of the chain.
    pub known_attr: AttributeId,
    /// Directed relation steps from the query entity to the known entity.
    pub rels: Vec<DirRel>,
    /// The queried attribute `a_q`.
    pub query_attr: AttributeId,
}

impl RaChain {
    /// Number of relation hops `l` (0 = the known attribute sits on the
    /// query entity itself).
    pub fn hops(&self) -> usize {
        self.rels.len()
    }

    /// Number of tokens [`Self::tokens_into_slice`] writes: `hops + 3`
    /// framing.
    pub fn token_len(&self) -> usize {
        self.rels.len() + 3
    }

    /// Writes the token sequence per Eq. 11, `[a_p, r_l, …, r_1, a_q, end]`
    /// (`r_l` is the step adjacent to the query entity), into `out`, which
    /// must be exactly [`Self::token_len`] long. Padding is the encoder's:
    /// it hands each chain its own pre-padded row of a shared flat buffer
    /// and tokenizes chains in parallel.
    pub fn tokens_into_slice(&self, vocab: &ChainVocab, out: &mut [usize]) {
        assert_eq!(out.len(), self.token_len(), "tokens_into_slice length");
        out[0] = vocab.attr_token(self.known_attr);
        for (slot, dr) in out[1..=self.rels.len()].iter_mut().zip(&self.rels) {
            *slot = vocab.rel_token(*dr);
        }
        out[self.rels.len() + 1] = vocab.attr_token(self.query_attr);
        out[self.rels.len() + 2] = vocab.end_token();
    }

    /// Human-readable rendering in the paper's Table-V style, e.g.
    /// `(sibling, birth)` or `(team, team_inv, weight)`.
    pub fn render(&self, g: &impl GraphView) -> String {
        let mut parts: Vec<String> = self.rels.iter().map(|&dr| g.dir_rel_name(dr)).collect();
        parts.push(g.attribute_name(self.known_attr).to_string());
        format!("({})", parts.join(", "))
    }
}

/// One retrieved chain instance: the abstract RA-Chain plus the concrete
/// source fact that grounds it.
#[derive(Clone, PartialEq, Debug)]
pub struct ChainInstance {
    /// The abstract reasoning pattern.
    pub chain: RaChain,
    /// Entity carrying the known attribute (`v_p`), kept for explainability.
    pub source: EntityId,
    /// The known value `n_p`.
    pub value: f64,
}

/// Token vocabulary shared by every RA-Chain of a graph:
/// `2·|R|` directed-relation tokens, `|A|` attribute tokens, END and PAD.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ChainVocab {
    num_relations: usize,
    num_attributes: usize,
}

impl ChainVocab {
    /// Vocabulary sized for a graph's relation/attribute inventories.
    pub fn for_graph(g: &impl GraphView) -> Self {
        ChainVocab {
            num_relations: g.num_relations(),
            num_attributes: g.num_attributes(),
        }
    }

    /// Vocabulary for explicit inventory sizes.
    pub fn new(num_relations: usize, num_attributes: usize) -> Self {
        ChainVocab {
            num_relations,
            num_attributes,
        }
    }

    /// Total vocabulary size (including END and PAD).
    pub fn size(&self) -> usize {
        2 * self.num_relations + self.num_attributes + 2
    }

    /// Token of a directed relation.
    pub fn rel_token(&self, dr: DirRel) -> usize {
        let t = dr.token();
        assert!(t < 2 * self.num_relations, "relation out of vocabulary");
        t
    }

    /// Token of an attribute.
    pub fn attr_token(&self, a: AttributeId) -> usize {
        let i = a.0 as usize;
        assert!(i < self.num_attributes, "attribute out of vocabulary");
        2 * self.num_relations + i
    }

    /// The shared end-of-chain token (`e_end` of Eq. 11).
    pub fn end_token(&self) -> usize {
        2 * self.num_relations + self.num_attributes
    }

    /// The padding token used when batching chains of unequal length.
    pub fn pad_token(&self) -> usize {
        2 * self.num_relations + self.num_attributes + 1
    }

    /// Number of relation types in the vocabulary.
    pub fn num_relations(&self) -> usize {
        self.num_relations
    }

    /// Number of directed-relation tokens (the hyperbolic table covers
    /// these plus attributes).
    pub fn num_rel_tokens(&self) -> usize {
        2 * self.num_relations
    }

    /// Number of attribute types in the vocabulary.
    pub fn num_attributes(&self) -> usize {
        self.num_attributes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_kg::KnowledgeGraph;
    use cf_kg::{Dir, RelationId};

    fn vocab() -> ChainVocab {
        ChainVocab::new(3, 2)
    }

    fn chain(hops: usize) -> RaChain {
        RaChain {
            known_attr: AttributeId(0),
            rels: (0..hops)
                .map(|i| DirRel {
                    rel: RelationId(i as u32 % 3),
                    dir: Dir::Forward,
                })
                .collect(),
            query_attr: AttributeId(1),
        }
    }

    #[test]
    fn token_layout_is_disjoint() {
        let v = vocab();
        let mut seen = std::collections::HashSet::new();
        for r in 0..3u32 {
            for dir in [Dir::Forward, Dir::Inverse] {
                assert!(seen.insert(v.rel_token(DirRel {
                    rel: RelationId(r),
                    dir
                })));
            }
        }
        for a in 0..2u32 {
            assert!(seen.insert(v.attr_token(AttributeId(a))));
        }
        assert!(seen.insert(v.end_token()));
        assert!(seen.insert(v.pad_token()));
        assert_eq!(seen.len(), v.size());
        assert_eq!(
            *seen.iter().max().unwrap(),
            v.size() - 1,
            "tokens not dense"
        );
    }

    fn tokens(c: &RaChain, v: &ChainVocab) -> Vec<usize> {
        let mut toks = vec![0; c.token_len()];
        c.tokens_into_slice(v, &mut toks);
        toks
    }

    #[test]
    fn tokens_follow_eq11_order() {
        let v = vocab();
        let c = chain(2);
        let toks = tokens(&c, &v);
        assert_eq!(toks.len(), 5);
        assert_eq!(toks[0], v.attr_token(AttributeId(0)));
        assert_eq!(toks[3], v.attr_token(AttributeId(1)));
        assert_eq!(toks[4], v.end_token());
    }

    #[test]
    fn zero_hop_chain_has_three_tokens() {
        let v = vocab();
        let c = chain(0);
        assert_eq!(c.hops(), 0);
        assert_eq!(tokens(&c, &v).len(), 3);
    }

    #[test]
    fn render_matches_table5_style() {
        let mut g = KnowledgeGraph::new();
        let _r0 = g.add_relation_type("sibling");
        let _a0 = g.add_attribute_type("birth");
        let a1 = g.add_attribute_type("death");
        let c = RaChain {
            known_attr: AttributeId(0),
            rels: vec![DirRel {
                rel: RelationId(0),
                dir: Dir::Inverse,
            }],
            query_attr: a1,
        };
        assert_eq!(c.render(&g), "(sibling_inv, birth)");
    }
}
