//! The core anonymous port-labeled graph type.

use crate::error::GraphError;
use serde::{Deserialize, Serialize};

/// Index of a node. Nodes are *anonymous* from the robots' perspective — node
/// ids exist only inside the simulator and inside a robot's privately
/// constructed map, never on the graph itself.
pub type NodeId = usize;

/// A local port number at a node, in `0..degree(node)`.
///
/// The paper numbers ports `1..=δ`; we use the equivalent 0-based range.
pub type Port = usize;

/// An undirected graph with local port labels.
///
/// Representation: `adj[v][p] = (u, q)` means the edge leaving node `v`
/// through port `p` arrives at node `u`, which numbers the same edge with its
/// own port `q`. The symmetry invariant `adj[u][q] == (v, p)` always holds for
/// a validated graph. Self-loops and parallel edges are representable (they
/// occur in *quotient graphs*, §2.1 of the paper) but the standard generators
/// produce simple graphs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PortGraph {
    adj: Vec<Vec<(NodeId, Port)>>,
}

impl PortGraph {
    /// Create a graph directly from an adjacency structure.
    ///
    /// Returns an error unless the port structure is symmetric.
    pub fn from_adjacency(adj: Vec<Vec<(NodeId, Port)>>) -> Result<Self, GraphError> {
        let g = PortGraph { adj };
        g.validate()?;
        Ok(g)
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges (self-loops count once).
    pub fn m(&self) -> usize {
        let endpoints: usize = self.adj.iter().map(|a| a.len()).sum();
        // A self-loop attached to a single port contributes one endpoint;
        // detect those to count correctly.
        let single_port_loops = self
            .adj
            .iter()
            .enumerate()
            .flat_map(|(v, a)| a.iter().enumerate().map(move |(p, e)| (v, p, e)))
            .filter(|&(v, p, &(u, q))| u == v && q == p)
            .count();
        (endpoints + single_port_loops) / 2
    }

    /// Degree of node `v` (number of ports).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v].len()
    }

    /// Maximum degree over all nodes.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(|a| a.len()).max().unwrap_or(0)
    }

    /// The endpoint reached by leaving `v` through port `p`, together with the
    /// port number assigned to the edge on the far side.
    #[inline]
    pub fn neighbor(&self, v: NodeId, p: Port) -> (NodeId, Port) {
        self.adj[v][p]
    }

    /// Iterate over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.n()
    }

    /// Iterate over all `(node, port, neighbor, back_port)` directed edge slots.
    pub(crate) fn port_entries(&self) -> impl Iterator<Item = (NodeId, Port, NodeId, Port)> + '_ {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(v, a)| a.iter().enumerate().map(move |(p, &(u, q))| (v, p, u, q)))
    }

    /// Iterate over undirected edges as `(u, p, v, q)` with `(u, p) <= (v, q)`
    /// lexicographically, each edge once.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, Port, NodeId, Port)> + '_ {
        self.port_entries().filter(|&(v, p, u, q)| (v, p) <= (u, q))
    }

    /// Validate the symmetry invariant and port-range correctness.
    pub fn validate(&self) -> Result<(), GraphError> {
        for (v, ports) in self.adj.iter().enumerate() {
            for (p, &(u, q)) in ports.iter().enumerate() {
                if u >= self.n() {
                    return Err(GraphError::NodeOutOfRange {
                        node: u,
                        n: self.n(),
                    });
                }
                if q >= self.adj[u].len() {
                    return Err(GraphError::PortOutOfRange {
                        node: u,
                        port: q,
                        degree: self.adj[u].len(),
                    });
                }
                if self.adj[u][q] != (v, p) {
                    return Err(GraphError::AsymmetricPorts { node: v, port: p });
                }
            }
        }
        Ok(())
    }

    /// Whether the graph is connected. The empty graph is considered
    /// connected; isolated nodes make a multi-node graph disconnected.
    pub fn is_connected(&self) -> bool {
        if self.n() == 0 {
            return true;
        }
        let mut seen = vec![false; self.n()];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &(u, _) in &self.adj[v] {
                if !seen[u] {
                    seen[u] = true;
                    count += 1;
                    stack.push(u);
                }
            }
        }
        count == self.n()
    }

    /// Validate connectivity as well as port symmetry.
    pub fn validate_connected(&self) -> Result<(), GraphError> {
        self.validate()?;
        if !self.is_connected() {
            return Err(GraphError::Disconnected);
        }
        Ok(())
    }

    /// True if the graph has no self-loops and no parallel edges.
    pub fn is_simple(&self) -> bool {
        use std::collections::HashSet;
        let mut seen: HashSet<(NodeId, NodeId)> = HashSet::new();
        for (v, p, u, q) in self.port_entries() {
            if v == u {
                return false;
            }
            // Count each undirected edge once.
            if (v, p) <= (u, q) && !seen.insert((v.min(u), v.max(u))) {
                return false;
            }
        }
        true
    }

    /// Raw access to the adjacency lists (read-only).
    pub fn adjacency(&self) -> &[Vec<(NodeId, Port)>] {
        &self.adj
    }

    /// A copy of this graph with the `u`–`v` edge removed (an **edge
    /// failure**). The vacated port at each endpoint closes the gap: every
    /// higher-numbered port shifts down by one, and all far-side references
    /// to those ports are re-pointed, so the result satisfies the symmetry
    /// invariant. If parallel `u`–`v` edges exist the one with the lowest
    /// port at `u` fails.
    ///
    /// Connectivity is *not* checked here — a failure may legitimately
    /// split the graph, and it is the caller's job to decide whether a
    /// disconnected world is acceptable (the dynamic scheduler rejects
    /// it at validation time).
    pub fn without_edge(&self, u: NodeId, v: NodeId) -> Result<PortGraph, GraphError> {
        let n = self.n();
        for node in [u, v] {
            if node >= n {
                return Err(GraphError::NodeOutOfRange { node, n });
            }
        }
        if u == v {
            return Err(GraphError::InvalidParameters(
                "cannot fail a self-loop".into(),
            ));
        }
        let p = self.adj[u]
            .iter()
            .position(|&(x, _)| x == v)
            .ok_or_else(|| GraphError::InvalidParameters(format!("no edge {u}-{v} to fail")))?;
        let q = self.adj[u][p].1;
        let mut adj = self.adj.clone();
        adj[u].remove(p);
        adj[v].remove(q);
        for ports in adj.iter_mut() {
            for entry in ports.iter_mut() {
                if entry.0 == u && entry.1 > p {
                    entry.1 -= 1;
                }
                if entry.0 == v && entry.1 > q {
                    entry.1 -= 1;
                }
            }
        }
        PortGraph::from_adjacency(adj)
    }

    /// A copy of this graph with a fresh `u`–`v` edge (an **edge heal**).
    /// The new edge takes the next free port at each endpoint — healing a
    /// failed edge restores the topology, though not necessarily the
    /// original port numbering (anonymous robots never observe global port
    /// labels, and the dynamic layer replans per epoch, so only topology
    /// matters). Refuses self-loops and already-adjacent pairs: the
    /// mutable-world layer deals in simple graphs.
    pub fn with_edge(&self, u: NodeId, v: NodeId) -> Result<PortGraph, GraphError> {
        let n = self.n();
        for node in [u, v] {
            if node >= n {
                return Err(GraphError::NodeOutOfRange { node, n });
            }
        }
        if u == v {
            return Err(GraphError::InvalidParameters(
                "cannot heal a self-loop".into(),
            ));
        }
        if self.adj[u].iter().any(|&(x, _)| x == v) {
            return Err(GraphError::InvalidParameters(format!(
                "edge {u}-{v} already present"
            )));
        }
        let mut adj = self.adj.clone();
        let p = adj[u].len();
        let q = adj[v].len();
        adj[u].push((v, q));
        adj[v].push((u, p));
        PortGraph::from_adjacency(adj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> PortGraph {
        // Triangle where every node uses port 0 for its clockwise neighbor.
        PortGraph::from_adjacency(vec![
            vec![(1, 1), (2, 0)],
            vec![(2, 1), (0, 0)],
            vec![(0, 1), (1, 0)],
        ])
        .unwrap()
    }

    #[test]
    fn triangle_counts() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.max_degree(), 2);
        assert!(g.is_connected());
        assert!(g.is_simple());
    }

    #[test]
    fn neighbor_roundtrip() {
        let g = triangle();
        for v in g.nodes() {
            for p in 0..g.degree(v) {
                let (u, q) = g.neighbor(v, p);
                assert_eq!(g.neighbor(u, q), (v, p), "symmetry at ({v},{p})");
            }
        }
    }

    #[test]
    fn asymmetric_ports_rejected() {
        let bad = PortGraph::from_adjacency(vec![vec![(1, 5)], vec![(0, 0)]]);
        assert!(matches!(bad, Err(GraphError::PortOutOfRange { .. })));
        let bad2 = PortGraph::from_adjacency(vec![vec![(1, 0), (1, 1)], vec![(0, 1), (0, 0)]]);
        assert!(matches!(bad2, Err(GraphError::AsymmetricPorts { .. })));
    }

    #[test]
    fn self_loop_counted_once() {
        // One node with a self-loop occupying two ports.
        let g = PortGraph::from_adjacency(vec![vec![(0, 1), (0, 0)]]).unwrap();
        assert_eq!(g.m(), 1);
        assert!(!g.is_simple());
        // Self-loop on a single port (possible in quotient graphs).
        let g2 = PortGraph::from_adjacency(vec![vec![(0, 0)]]).unwrap();
        assert_eq!(g2.m(), 1);
    }

    #[test]
    fn disconnected_detected() {
        let g =
            PortGraph::from_adjacency(vec![vec![(1, 0)], vec![(0, 0)], vec![(3, 0)], vec![(2, 0)]])
                .unwrap();
        assert!(!g.is_connected());
        assert!(matches!(
            g.validate_connected(),
            Err(GraphError::Disconnected)
        ));
    }

    #[test]
    fn edge_failure_keeps_symmetry_and_shifts_ports() {
        // Square 0-1-2-3-0 plus the 0-2 diagonal: failing the diagonal
        // leaves a 4-cycle with coherent ports everywhere.
        let g = PortGraph::from_adjacency(vec![
            vec![(1, 0), (3, 1), (2, 2)],
            vec![(0, 0), (2, 0)],
            vec![(1, 1), (3, 0), (0, 2)],
            vec![(2, 1), (0, 1)],
        ])
        .unwrap();
        let cut = g.without_edge(0, 2).unwrap();
        assert_eq!(cut.m(), 4);
        assert_eq!(cut.degree(0), 2);
        assert_eq!(cut.degree(2), 2);
        cut.validate().unwrap();
        assert!(cut.is_connected());
        // Failing a cycle edge next disconnects nothing; failing a bridge
        // yields a valid but disconnected graph (the caller must decide).
        let chopped = cut.without_edge(0, 1).unwrap();
        chopped.validate().unwrap();
        assert!(chopped.is_connected());
        let split = chopped.without_edge(2, 3).unwrap();
        split.validate().unwrap();
        assert!(!split.is_connected());
    }

    #[test]
    fn edge_heal_restores_topology() {
        let g = triangle();
        let cut = g.without_edge(0, 1).unwrap();
        assert_eq!(cut.m(), 2);
        let healed = cut.with_edge(0, 1).unwrap();
        healed.validate().unwrap();
        assert_eq!(healed.m(), 3);
        assert!(healed.is_simple());
        // Topology matches the original triangle even if port labels moved.
        for v in healed.nodes() {
            let mut a: Vec<NodeId> = healed.adjacency()[v].iter().map(|e| e.0).collect();
            let mut b: Vec<NodeId> = g.adjacency()[v].iter().map(|e| e.0).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "neighborhood of {v}");
        }
    }

    #[test]
    fn edge_mutations_reject_nonsense() {
        let g = triangle();
        assert!(matches!(
            g.without_edge(0, 0),
            Err(GraphError::InvalidParameters(_))
        ));
        assert!(matches!(
            g.with_edge(0, 1),
            Err(GraphError::InvalidParameters(_))
        ));
        assert!(matches!(
            g.with_edge(0, 9),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        let cut = g.without_edge(1, 2).unwrap();
        assert!(matches!(
            cut.without_edge(1, 2),
            Err(GraphError::InvalidParameters(_))
        ));
    }

    #[test]
    fn serde_roundtrip() {
        let g = triangle();
        let json = serde_json::to_string(&g).unwrap();
        let g2: PortGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(g, g2);
    }
}
