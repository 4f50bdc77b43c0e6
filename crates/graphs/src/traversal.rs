//! Spanning trees and Euler tours expressed as port sequences.
//!
//! `Dispersion-Using-Map` (paper §2.2) has each robot traverse a DFS tree of
//! its map; the token-based map construction tours the identified territory.
//! Both need trees whose edges are remembered as *ports*, because ports are
//! all a robot can actually follow.

use crate::portgraph::{NodeId, Port, PortGraph};
use serde::{Deserialize, Serialize};

/// A rooted spanning tree with port annotations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanningTree {
    /// The root node.
    pub root: NodeId,
    /// `parent[v] = Some((u, p, q))`: `u` is the parent of `v`, reached from
    /// `u` through port `p`, with back-port `q` at `v`. `None` for the root.
    pub parent: Vec<Option<(NodeId, Port, Port)>>,
    /// Nodes in discovery order (root first).
    pub order: Vec<NodeId>,
    /// `children[v]` = child edges `(port_at_v, child)` in port order.
    pub children: Vec<Vec<(Port, NodeId)>>,
}

impl SpanningTree {
    /// Depth of `v` in the tree (root = 0).
    pub fn depth(&self, mut v: NodeId) -> usize {
        let mut d = 0;
        while let Some((u, _, _)) = self.parent[v] {
            v = u;
            d += 1;
        }
        d
    }
}

fn tree_from_parents(
    g: &PortGraph,
    root: NodeId,
    parent: Vec<Option<(NodeId, Port, Port)>>,
    order: Vec<NodeId>,
) -> SpanningTree {
    let mut children: Vec<Vec<(Port, NodeId)>> = vec![Vec::new(); g.n()];
    for &v in &order {
        if let Some((u, p, _)) = parent[v] {
            children[u].push((p, v));
        }
    }
    for ch in children.iter_mut() {
        ch.sort_unstable();
    }
    SpanningTree {
        root,
        parent,
        order,
        children,
    }
}

/// Breadth-first spanning tree from `root`, scanning ports in increasing
/// order. Panics if `g` is not connected.
pub fn bfs_tree(g: &PortGraph, root: NodeId) -> SpanningTree {
    let n = g.n();
    let mut parent: Vec<Option<(NodeId, Port, Port)>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = std::collections::VecDeque::new();
    seen[root] = true;
    order.push(root);
    queue.push_back(root);
    while let Some(v) = queue.pop_front() {
        for p in 0..g.degree(v) {
            let (u, q) = g.neighbor(v, p);
            if !seen[u] {
                seen[u] = true;
                parent[u] = Some((v, p, q));
                order.push(u);
                queue.push_back(u);
            }
        }
    }
    assert_eq!(order.len(), n, "bfs_tree requires a connected graph");
    tree_from_parents(g, root, parent, order)
}

/// Depth-first spanning tree from `root`, scanning ports in increasing
/// order. Panics if `g` is not connected.
pub fn dfs_tree(g: &PortGraph, root: NodeId) -> SpanningTree {
    let n = g.n();
    let mut parent: Vec<Option<(NodeId, Port, Port)>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    // Explicit stack of (node, next port to try).
    let mut stack: Vec<(NodeId, Port)> = vec![(root, 0)];
    seen[root] = true;
    order.push(root);
    while let Some(&mut (v, ref mut p)) = stack.last_mut() {
        if *p >= g.degree(v) {
            stack.pop();
            continue;
        }
        let port = *p;
        *p += 1;
        let (u, q) = g.neighbor(v, port);
        if !seen[u] {
            seen[u] = true;
            parent[u] = Some((v, port, q));
            order.push(u);
            stack.push((u, 0));
        }
    }
    assert_eq!(order.len(), n, "dfs_tree requires a connected graph");
    tree_from_parents(g, root, parent, order)
}

/// The Euler tour of a spanning tree as a port sequence starting and ending
/// at the root: each tree edge is crossed exactly twice (down then up), total
/// length `2 (n - 1)` — the `O(n)`-step traversal used by
/// `Dispersion-Using-Map`.
pub fn euler_tour_ports(tree: &SpanningTree) -> Vec<Port> {
    fn emit(tree: &SpanningTree, v: NodeId, tour: &mut Vec<Port>) {
        for &(p, c) in &tree.children[v] {
            tour.push(p);
            emit(tree, c, tour);
            let (_, _, q) = tree.parent[c].expect("child has parent");
            tour.push(q);
        }
    }
    let mut tour = Vec::new();
    emit(tree, tree.root, &mut tour);
    tour
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{erdos_renyi_connected, path, ring, star};

    #[test]
    fn bfs_tree_covers_all_nodes() {
        let g = erdos_renyi_connected(12, 0.3, 2).unwrap();
        let t = bfs_tree(&g, 0);
        assert_eq!(t.order.len(), 12);
        assert_eq!(t.parent.iter().filter(|p| p.is_none()).count(), 1);
    }

    #[test]
    fn dfs_tree_covers_all_nodes() {
        let g = erdos_renyi_connected(12, 0.3, 4).unwrap();
        let t = dfs_tree(&g, 5);
        assert_eq!(t.order.len(), 12);
        assert_eq!(t.root, 5);
    }

    #[test]
    fn euler_tour_returns_to_root_and_covers() {
        for (g, root) in [
            (path(6).unwrap(), 0),
            (ring(7).unwrap(), 3),
            (star(5).unwrap(), 2),
            (erdos_renyi_connected(11, 0.3, 8).unwrap(), 1),
        ] {
            let t = dfs_tree(&g, root);
            let tour = euler_tour_ports(&t);
            assert_eq!(tour.len(), 2 * (g.n() - 1));
            // Walk the tour, checking it visits every node and returns.
            let mut visited = vec![false; g.n()];
            let mut cur = root;
            visited[cur] = true;
            for &p in &tour {
                let (u, _) = g.neighbor(cur, p);
                cur = u;
                visited[cur] = true;
            }
            assert_eq!(cur, root, "tour must close");
            assert!(visited.iter().all(|&b| b), "tour must cover all nodes");
        }
    }

    #[test]
    fn depth_matches_path_length() {
        let g = path(6).unwrap();
        let t = bfs_tree(&g, 0);
        for v in g.nodes() {
            assert_eq!(t.depth(v), v, "path(6) numbers its nodes in order");
        }
    }
}
