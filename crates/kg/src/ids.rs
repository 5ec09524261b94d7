//! Strongly-typed identifiers for graph elements.
//!
//! Newtype wrappers keep entity/relation/attribute index spaces from being
//! mixed up at compile time; all are plain `u32` indices into the owning
//! [`crate::graph::KnowledgeGraph`]'s arenas.

/// An entity (node) id.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
#[repr(transparent)]
pub struct EntityId(pub u32);

/// A relation *type* id (direction-less; see [`Dir`]).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
#[repr(transparent)]
pub struct RelationId(pub u32);

/// A numerical attribute type id.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
#[repr(transparent)]
pub struct AttributeId(pub u32);

/// Traversal direction of a relation. The paper's chains freely use inverse
/// relations (rendered `_inv` in Table V), so every edge is walkable both
/// ways with the direction recorded.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Dir {
    /// Traverse head → tail.
    Forward,
    /// Traverse tail → head (rendered `_inv`).
    Inverse,
}

impl Dir {
    /// The opposite direction.
    pub fn flip(self) -> Dir {
        match self {
            Dir::Forward => Dir::Inverse,
            Dir::Inverse => Dir::Forward,
        }
    }
}

/// A relation type together with a traversal direction — one "step token"
/// of an RA-Chain.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct DirRel {
    /// The relation type.
    pub rel: RelationId,
    /// The traversal direction.
    pub dir: Dir,
}

impl DirRel {
    /// Forward traversal of `rel`.
    pub fn forward(rel: RelationId) -> Self {
        DirRel {
            rel,
            dir: Dir::Forward,
        }
    }

    /// Inverse traversal of `rel`.
    pub fn inverse(rel: RelationId) -> Self {
        DirRel {
            rel,
            dir: Dir::Inverse,
        }
    }

    /// Dense token index: forward relations occupy even slots, inverses odd.
    pub fn token(&self) -> usize {
        (self.rel.0 as usize) * 2
            + match self.dir {
                Dir::Forward => 0,
                Dir::Inverse => 1,
            }
    }

    /// Inverse of [`Self::token`].
    pub fn from_token(token: usize) -> Self {
        DirRel {
            rel: RelationId((token / 2) as u32),
            dir: if token % 2 == 0 {
                Dir::Forward
            } else {
                Dir::Inverse
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dir_flip_is_involution() {
        assert_eq!(Dir::Forward.flip(), Dir::Inverse);
        assert_eq!(Dir::Forward.flip().flip(), Dir::Forward);
    }

    #[test]
    fn token_round_trip() {
        for rel in 0..5u32 {
            for dir in [Dir::Forward, Dir::Inverse] {
                let dr = DirRel {
                    rel: RelationId(rel),
                    dir,
                };
                assert_eq!(DirRel::from_token(dr.token()), dr);
            }
        }
    }

    #[test]
    fn tokens_are_dense_and_distinct() {
        let toks: Vec<usize> = (0..4u32)
            .flat_map(|r| {
                [
                    DirRel::forward(RelationId(r)).token(),
                    DirRel::inverse(RelationId(r)).token(),
                ]
            })
            .collect();
        let mut sorted = toks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8);
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
    }
}
