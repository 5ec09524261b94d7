//! The one chain walk. A logic chain (§IV-A/B) is a simple path of at most
//! `l` hops from the query entity that ends at a numeric fact; the chain
//! index ([`crate::index`]), the Figure 2 counts and exhaustive enumeration
//! (`cf_chains`) all reach their chains through [`for_each_simple_path`].

use crate::ids::{DirRel, EntityId};
use crate::view::GraphView;
use std::ops::ControlFlow;

/// Calls `visit(rels, to)` once for every simple path of 1 to `max_hops`
/// edges that starts at `root`: `rels` are the path's directed relations in
/// walk order and `to` is its last node.
///
/// The walk is depth first in adjacency order and visits a path before it
/// extends it. An edge to a node already on the path is skipped and does not
/// count toward `fanout`; once `fanout` edges have been taken at a node, that
/// node's loop ends (`usize::MAX` means no limit). When `visit` returns
/// [`ControlFlow::Break`], the whole walk ends.
pub fn for_each_simple_path(
    g: &impl GraphView,
    root: EntityId,
    max_hops: usize,
    fanout: usize,
    mut visit: impl FnMut(&[DirRel], EntityId) -> ControlFlow<()>,
) {
    // A simple path has fewer edges than the graph has nodes.
    let hops = max_hops.min(g.num_entities());
    let mut path = Vec::with_capacity(hops + 1);
    path.push(root);
    let mut rels = Vec::with_capacity(hops);
    let _ = extend(g, max_hops, fanout, &mut path, &mut rels, &mut visit);
}

/// Visits and extends every simple path one edge longer than `path`.
fn extend(
    g: &impl GraphView,
    max_hops: usize,
    fanout: usize,
    path: &mut Vec<EntityId>,
    rels: &mut Vec<DirRel>,
    visit: &mut impl FnMut(&[DirRel], EntityId) -> ControlFlow<()>,
) -> ControlFlow<()> {
    if rels.len() >= max_hops {
        return ControlFlow::Continue(());
    }
    let mut taken = 0;
    for edge in g.neighbors(path[path.len() - 1]) {
        if taken == fanout {
            break;
        }
        if path.contains(&edge.to) {
            continue;
        }
        taken += 1;
        path.push(edge.to);
        rels.push(edge.dr);
        // A break leaves `path` and `rels` as they are: the walk is over.
        visit(rels, edge.to)?;
        extend(g, max_hops, fanout, path, rels, visit)?;
        path.pop();
        rels.pop();
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::KnowledgeGraph;

    /// Triangle a–b–c with a self-loop and a parallel edge at a: the walk
    /// skips the loop without spending fan-out on it, takes parallel edges
    /// as distinct paths, and stops on the first break.
    #[test]
    fn walk_order_fanout_and_break() {
        let mut g = KnowledgeGraph::new();
        let [a, b, c] = ["a", "b", "c"].map(|n| g.add_entity(n));
        let r = g.add_relation_type("r");
        g.add_triple(a, r, a);
        g.add_triple(a, r, b);
        g.add_triple(a, r, b);
        g.add_triple(b, r, c);
        g.add_triple(c, r, a);
        g.build_index();
        let walk = |hops, fanout, stop_after: usize| {
            let mut seen = Vec::new();
            for_each_simple_path(&g, a, hops, fanout, |rels, to| {
                seen.push((rels.len(), to));
                if seen.len() == stop_after {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
            seen
        };
        let all = walk(3, usize::MAX, 0);
        let expect = [(1, b), (2, c), (1, b), (2, c), (1, c), (2, b)];
        assert_eq!(all, expect);
        assert!(walk(0, usize::MAX, 0).is_empty());
        assert_eq!(walk(1, usize::MAX, 0), [(1, b), (1, b), (1, c)]);
        assert_eq!(walk(3, 1, 0), [(1, b), (2, c)]);
        assert_eq!(walk(3, usize::MAX, 3), expect[..3]);
    }
}
