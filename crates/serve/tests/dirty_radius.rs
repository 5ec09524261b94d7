//! The invalidation radius is sound for index rows: after any mutation
//! stream, an entity outside every batch's `dirty_entities` neighbourhood
//! still has the stored index row a fresh `collect_entity` over the mutated
//! graph computes. An indexed engine reads the stored row of exactly such
//! entities, so this is what makes its answers a function of the current
//! graph.

use cf_check::prelude::*;
use cf_kg::{
    build_chain_index, collect_entity, for_each_simple_path, AttributeId, ChainIndexView, EntityId,
    GraphView, IndexParams, KnowledgeGraph, Mutation, OverlayGraph, RelationId,
};
use cf_serve::dirty_entities;
use std::cell::Cell;
use std::collections::HashSet;
use std::ops::ControlFlow;

/// Base entities; mutations may add `ADDED` more.
const N: usize = 16;
const ADDED: usize = 3;
/// Facts on the heavy entity: two paths ending there fill the raw
/// enumeration guard (1024 entries at the caps below).
const HEAVY_FACTS: usize = 520;

/// A multigraph over `N` entities: edge `(h, t, r)` is the triple
/// `(h, r, t)`, self-loops and parallel edges included. Entity `i` carries
/// the facts `facts[i]`, and entity `heavy` [`HEAVY_FACTS`] more.
fn multigraph(
    edges: &[(usize, usize, usize)],
    facts: &[Vec<(usize, u8)>],
    heavy: usize,
) -> KnowledgeGraph {
    let mut g = KnowledgeGraph::new();
    for i in 0..N {
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
    for k in 0..HEAVY_FACTS {
        g.add_numeric(
            EntityId(heavy as u32),
            AttributeId((k % 3) as u32),
            k as f64,
        );
    }
    g.build_index();
    g
}

/// Entity `i` by name: a base entity below `N`, else one a mutation adds
/// (an upsert or an edge naming it adds it too).
fn name(i: usize) -> String {
    if i < N {
        format!("e{i}")
    } else {
        format!("n{}", i - N)
    }
}

/// `(kind, a, b, attr, rel, value)` as a mutation: an upsert of `attr` on
/// `a`, an added entity `a`, or an edge `a —rel→ b`.
fn mutation(&(kind, a, b, attr, rel, value): &(u8, usize, usize, usize, usize, u8)) -> Mutation {
    match kind {
        0 => Mutation::UpsertNumeric {
            entity: name(a),
            attr: format!("a{attr}"),
            value: f64::from(value) + 0.25,
        },
        1 => Mutation::AddEntity { name: name(a) },
        _ => Mutation::AddEdge {
            head: name(a),
            rel: format!("r{rel}"),
            tail: name(b),
        },
    }
}

/// Whether the raw enumeration of `e`'s row under `params` reaches the
/// guard at which `collect_entity` stops walking.
fn reaches_guard(g: &impl GraphView, e: EntityId, params: &IndexParams) -> bool {
    let guard = (params.per_entity_cap as usize * 16).max(1024);
    let mut raw = g.numerics_of(e).len();
    for_each_simple_path(
        g,
        e,
        params.max_hops as usize,
        params.fanout as usize,
        |_, to| {
            raw += g.numerics_of(to).len();
            ControlFlow::<()>::Continue(())
        },
    );
    raw >= guard
}

/// For random multigraphs and mutation streams, and every index depth,
/// fan-out and entry cap: an entity outside the union of each batch's
/// `dirty_entities(touched, radius)` keeps its stored row, where `radius`
/// is the larger of the model's chain depth (1 to 3) and the index's. The
/// cases include rows stopped by the raw-entry guard, and indexes built
/// deeper than the model's chains — where the model's depth alone would
/// leave changed rows outside the set, as the run also checks.
#[test]
fn rows_outside_the_dirty_set_equal_a_fresh_collect() {
    let checked = Cell::new(0u32);
    let guarded = Cell::new(0u32);
    let missed_by_model_depth = Cell::new(0u32);
    let op = (
        0u8..3,
        0..N + ADDED,
        0..N + ADDED,
        0usize..3,
        0usize..2,
        0u8..8,
    );
    let strategy = (
        vec((0..N, 0..N, 0usize..2), 4..28),
        vec(vec((0usize..3, 0u8..4), 0..=3), N),
        0..N,
        vec(vec(op, 1..4), 1..5),
    );
    cf_check::runner::run(
        concat!(
            module_path!(),
            "::rows_outside_the_dirty_set_equal_a_fresh_collect"
        ),
        Config::with_cases(24),
        strategy,
        |(edges, facts, heavy, batches)| {
            let base = multigraph(&edges, &facts, heavy);
            let mut row = Vec::new();
            for max_hops in 1..=3 {
                for fanout in [2, u32::MAX] {
                    for per_entity_cap in [8, 64] {
                        let params = IndexParams {
                            max_hops,
                            fanout,
                            per_entity_cap,
                        };
                        let ix = build_chain_index(&base, params);
                        let mut g = OverlayGraph::new(base.clone());
                        // Dirty sets at radius 1, 2 and 3, unioned over batches.
                        let mut dirty: [HashSet<u32>; 3] = Default::default();
                        for batch in &batches {
                            let mut touched = Vec::new();
                            for m in batch {
                                touched.extend(g.apply(&mutation(m)).touched);
                            }
                            for (r, set) in dirty.iter_mut().enumerate() {
                                set.extend(dirty_entities(&g, &touched, r + 1));
                            }
                            for e in GraphView::entities(&base) {
                                collect_entity(&g, e, &params, &mut row);
                                let same = row.as_slice() == ix.entries_of(e);
                                let outside =
                                    |radius: u32| !dirty[radius as usize - 1].contains(&e.0);
                                // A radius max(model, index) is at least the
                                // index depth, and a larger radius only grows
                                // the set: checking at the index depth covers
                                // every model depth.
                                if outside(max_hops) {
                                    check_assert!(
                                        same,
                                        "{e:?} outside the radius-{max_hops} dirty set \
                                         has a changed row under {params:?}"
                                    );
                                    checked.set(checked.get() + 1);
                                    if reaches_guard(&g, e, &params) {
                                        guarded.set(guarded.get() + 1);
                                    }
                                }
                                if (1..max_hops).any(outside) && !same {
                                    missed_by_model_depth.set(missed_by_model_depth.get() + 1);
                                }
                            }
                        }
                    }
                }
            }
            Ok(())
        },
    );
    assert!(checked.get() > 0, "no row outside a dirty set was checked");
    assert!(
        guarded.get() > 0,
        "no checked row reached the raw-entry guard"
    );
    assert!(
        missed_by_model_depth.get() > 0,
        "a radius below the index depth never missed a changed row"
    );
}
