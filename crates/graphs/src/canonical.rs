//! Canonical forms of *rooted* port-labeled graphs.
//!
//! A connected port-labeled graph with a distinguished root has a canonical
//! relabeling: breadth-first search from the root, scanning ports in
//! increasing order, numbering nodes by first discovery. Any two isomorphic
//! rooted port-labeled graphs produce byte-identical canonical forms, so
//! the "majority over maps" steps of the paper's §3 reduce to hashing
//! canonical forms — no general graph-isomorphism search is needed at
//! runtime (maps built by honest robot pairs share their root: the gathering
//! node).

use crate::portgraph::{NodeId, Port, PortGraph};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A canonical presentation of a rooted port-labeled graph: the adjacency of
/// the relabeled graph, root always node 0. Two rooted graphs are isomorphic
/// iff their `CanonicalForm`s are equal.
/// `Ord` is lexicographic over the adjacency — an arbitrary but total and
/// presentation-independent order, used to pick canonical minima (e.g. the
/// gathering target class).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CanonicalForm {
    /// Relabeled adjacency: `adj[v][p] = (u, q)`.
    pub adj: Vec<Vec<(NodeId, Port)>>,
}

impl CanonicalForm {
    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Reconstruct a [`PortGraph`] from the canonical adjacency.
    pub fn to_graph(&self) -> PortGraph {
        PortGraph::from_adjacency(self.adj.clone()).expect("canonical forms are valid port graphs")
    }
}

/// Compute the canonical form of `g` rooted at `root`, together with the
/// relabeling `label[v] = canonical id of v`.
///
/// Requires `g` connected (every node reachable from `root`); panics
/// otherwise, since a map with unreachable nodes is malformed by
/// construction.
pub(crate) fn canonical_form_with_labels(
    g: &PortGraph,
    root: NodeId,
) -> (CanonicalForm, Vec<NodeId>) {
    let n = g.n();
    let mut label = vec![usize::MAX; n];
    let mut order: Vec<NodeId> = Vec::with_capacity(n);
    let mut queue = VecDeque::new();
    label[root] = 0;
    order.push(root);
    queue.push_back(root);
    while let Some(v) = queue.pop_front() {
        for p in 0..g.degree(v) {
            let (u, _) = g.neighbor(v, p);
            if label[u] == usize::MAX {
                label[u] = order.len();
                order.push(u);
                queue.push_back(u);
            }
        }
    }
    assert_eq!(order.len(), n, "canonical_form requires a connected graph");
    let adj = order
        .iter()
        .map(|&v| {
            (0..g.degree(v))
                .map(|p| {
                    let (u, q) = g.neighbor(v, p);
                    (label[u], q)
                })
                .collect()
        })
        .collect();
    (CanonicalForm { adj }, label)
}

/// Canonical form of `g` rooted at `root`.
pub fn canonical_form(g: &PortGraph, root: NodeId) -> CanonicalForm {
    canonical_form_with_labels(g, root).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{erdos_renyi_connected, ring};
    use crate::scramble::relabel_nodes;

    #[test]
    fn canonical_form_root_is_zero_and_stable() {
        let g = ring(6).unwrap();
        let c = canonical_form(&g, 2);
        assert_eq!(c.n(), 6);
        assert_eq!(canonical_form(&c.to_graph(), 0), c, "idempotent");
    }

    #[test]
    fn relabeling_nodes_preserves_canonical_form() {
        for seed in 0..5 {
            let g = erdos_renyi_connected(10, 0.35, seed).unwrap();
            let perm: Vec<usize> = {
                // A fixed nontrivial permutation: rotate ids by 3.
                (0..10).map(|v| (v + 3) % 10).collect()
            };
            let h = relabel_nodes(&g, &perm);
            // Root r in g corresponds to perm[r] in h.
            for r in 0..10 {
                assert_eq!(
                    canonical_form(&g, r),
                    canonical_form(&h, perm[r]),
                    "seed {seed}, root {r}"
                );
            }
        }
    }

    #[test]
    fn different_roots_usually_differ() {
        let g = ring(6).unwrap(); // insertion-order ring is asymmetric
        let c0 = canonical_form(&g, 0);
        let c1 = canonical_form(&g, 1);
        assert_ne!(c0, c1);
    }

    #[test]
    fn canonical_graph_isomorphic_to_original() {
        let g = erdos_renyi_connected(12, 0.3, 9).unwrap();
        let c = canonical_form(&g, 0).to_graph();
        assert_eq!(c.n(), g.n());
        assert_eq!(c.m(), g.m());
        let mut d1: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
        let mut d2: Vec<usize> = c.nodes().map(|v| c.degree(v)).collect();
        d1.sort_unstable();
        d2.sort_unstable();
        assert_eq!(d1, d2);
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn disconnected_panics() {
        let g =
            PortGraph::from_adjacency(vec![vec![(1, 0)], vec![(0, 0)], vec![(3, 0)], vec![(2, 0)]])
                .unwrap();
        let _ = canonical_form(&g, 0);
    }
}
