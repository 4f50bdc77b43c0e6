//! Map construction by an agent with a movable token (after
//! Dieudonné–Pelc–Peleg \[24\], the "robot and token paradigm" used by every
//! map-finding phase in the paper's §3–§4).
//!
//! ## Algorithm
//!
//! The agent maintains a partial map of *identified* nodes (connected by a
//! spanning tree of resolved edges) and repeatedly resolves the smallest
//! unresolved `(node u, port p)` slot:
//!
//! 1. walk together with the token to `u`, cross port `p` to the unknown
//!    endpoint `v`, learning the back-port `q` and `deg(v)`;
//! 2. park the token at `v`, step back to `u` alone;
//! 3. tour every identified node (an Euler tour of the spanning tree,
//!    `O(n)` moves); if the token is sighted at identified node `w`, then
//!    `v = w` — resolve the edge and carry on from `w`;
//! 4. if the tour ends with no sighting, `v` is a *new* node: add it to the
//!    map, cross `p` again to rejoin the token, and carry on from `v`.
//!
//! Each unresolved edge costs `O(n)` moves, so the whole map costs
//! `O(n * m) ⊆ O(n³)` moves — the paper's `T₂` bound for one map-finding
//! run.
//!
//! ## Shape
//!
//! [`TokenMapExplorer`] is a pure, engine-agnostic state machine: feed it a
//! [`Percept`] (degree, token visibility, entry port), get back the next
//! [`AgentCmd`]. Drivers translate commands into engine moves — a solo pair
//! of robots in Theorem 2/3, whole voting *groups* acting as agent/token in
//! Theorems 4–6. A Byzantine token can feed the machine lies; the machine
//! then returns a wrong map or a [`MapError`], never loops forever — callers
//! majority-vote across runs exactly as the paper prescribes.

use bd_graphs::{NodeId, Port, PortGraph};
use std::collections::VecDeque;

/// What the agent senses between commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Percept {
    /// Degree of the agent's current node.
    pub degree: usize,
    /// Whether the token is visible at the agent's current node.
    pub token_here: bool,
    /// The far-side port learned by the move just performed (`None` on the
    /// very first call).
    pub entry_port: Option<Port>,
}

/// The next physical action the agent should take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentCmd {
    /// Agent moves alone through the port (the token holds position).
    Move(Port),
    /// Agent and token move together through the port.
    MoveWithToken(Port),
    /// The map is complete; [`TokenMapExplorer::into_map`] may be called.
    Done,
}

/// Failures caused by inconsistent percepts — with an honest token these
/// never occur; with a Byzantine token the run is abandoned and the caller
/// records a garbage map (majority voting absorbs it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// More distinct nodes identified than the known graph size `n`.
    TooManyNodes { limit: usize },
    /// The token was not where protocol requires, or an edge resolved twice.
    Inconsistent(&'static str),
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::TooManyNodes { limit } => {
                write!(f, "identified more than {limit} nodes")
            }
            MapError::Inconsistent(msg) => write!(f, "inconsistent percepts: {msg}"),
        }
    }
}

impl std::error::Error for MapError {}

#[derive(Debug, Clone)]
enum Phase {
    /// Choose the next unresolved slot (or finish). Agent and token are
    /// co-located at `cur`.
    PlanNext,
    /// Walking together towards the node owning the next unresolved slot.
    CoWalk {
        queue: VecDeque<Port>,
        then_cross: Port,
    },
    /// Issued `MoveWithToken(p)` across the unresolved edge; awaiting the
    /// arrival percept at the unknown endpoint.
    Crossing { u: usize, p: Port },
    /// Issued `Move(q)` back to `u`; awaiting arrival, then tour planning.
    ReturningToU {
        u: usize,
        p: Port,
        q: Port,
        v_degree: usize,
    },
    /// Touring identified nodes looking for the parked token.
    Touring {
        u: usize,
        p: Port,
        q: Port,
        v_degree: usize,
        tour_ports: VecDeque<Port>,
        tour_nodes: VecDeque<usize>,
    },
    /// Tour found nothing: issued `Move(p)` to rejoin the token at the new
    /// node.
    RejoiningToken { new_node: usize },
    /// Finished.
    Done,
}

/// The agent-side state machine. See the module docs.
#[derive(Debug, Clone)]
pub struct TokenMapExplorer {
    /// Partial adjacency: `adj[v][p] = Some((u, q))` once resolved.
    adj: Vec<Vec<Option<(usize, Port)>>>,
    /// Spanning-tree parent: `(parent, port_at_parent, port_at_child)`.
    parent: Vec<Option<(usize, Port, Port)>>,
    /// Agent's current identified node (undefined mid-identification).
    cur: usize,
    /// Known upper bound on the number of nodes (`n` is known, §1.1).
    n_limit: usize,
    phase: Phase,
    err: Option<MapError>,
}

impl TokenMapExplorer {
    /// Start exploring from the origin, whose degree the agent can see.
    /// `n_limit` is the known number of nodes in the graph.
    pub fn new(origin_degree: usize, n_limit: usize) -> Self {
        TokenMapExplorer {
            adj: vec![vec![None; origin_degree]],
            parent: vec![None],
            cur: 0,
            n_limit,
            phase: Phase::PlanNext,
            err: None,
        }
    }

    /// The error that aborted exploration, if any.
    pub fn error(&self) -> Option<&MapError> {
        self.err.as_ref()
    }

    /// Port path from the agent's current node back to the origin along the
    /// spanning tree (what the paper's robots use to "return to the node
    /// where they were gathered").
    pub fn path_to_origin(&self) -> Vec<Port> {
        self.tree_path(self.cur, 0)
    }

    /// Extract the completed map. Node 0 is the origin. Errors if the
    /// machine is not `Done` or the map is malformed (possible only under
    /// Byzantine interference).
    pub fn into_map(self) -> Result<(PortGraph, NodeId), MapError> {
        if !matches!(self.phase, Phase::Done) {
            return Err(self.err.unwrap_or(MapError::Inconsistent("not finished")));
        }
        let adj: Option<Vec<Vec<(usize, Port)>>> = self
            .adj
            .into_iter()
            .map(|ports| ports.into_iter().collect::<Option<Vec<_>>>())
            .collect();
        let adj = adj.ok_or(MapError::Inconsistent("unresolved ports at Done"))?;
        let g =
            PortGraph::from_adjacency(adj).map_err(|_| MapError::Inconsistent("asymmetric map"))?;
        Ok((g, 0))
    }

    /// Feed the next percept; receive the next command.
    ///
    /// After any error the machine reports `Done` (drivers should check
    /// [`TokenMapExplorer::error`]).
    pub fn next(&mut self, percept: Percept) -> AgentCmd {
        if self.err.is_some() {
            return AgentCmd::Done;
        }
        match self.step(percept) {
            Ok(cmd) => cmd,
            Err(e) => {
                self.err = Some(e);
                self.phase = Phase::Done;
                AgentCmd::Done
            }
        }
    }

    fn step(&mut self, percept: Percept) -> Result<AgentCmd, MapError> {
        loop {
            match std::mem::replace(&mut self.phase, Phase::Done) {
                Phase::PlanNext => {
                    let Some((u, p)) = self.first_unresolved() else {
                        self.phase = Phase::Done;
                        return Ok(AgentCmd::Done);
                    };
                    let queue: VecDeque<Port> = self.tree_path(self.cur, u).into();
                    self.cur = u;
                    self.phase = Phase::CoWalk {
                        queue,
                        then_cross: p,
                    };
                    // fall through to CoWalk on the next loop iteration
                    continue;
                }
                Phase::CoWalk {
                    mut queue,
                    then_cross,
                } => {
                    if let Some(port) = queue.pop_front() {
                        self.phase = Phase::CoWalk { queue, then_cross };
                        return Ok(AgentCmd::MoveWithToken(port));
                    }
                    // Arrived at u; cross the unresolved edge together.
                    self.phase = Phase::Crossing {
                        u: self.cur,
                        p: then_cross,
                    };
                    return Ok(AgentCmd::MoveWithToken(then_cross));
                }
                Phase::Crossing { u, p } => {
                    // Percept describes the unknown endpoint v.
                    let q = percept
                        .entry_port
                        .ok_or(MapError::Inconsistent("no entry port after crossing"))?;
                    if !percept.token_here {
                        return Err(MapError::Inconsistent("token lost while crossing"));
                    }
                    // Park token at v; step back to u alone.
                    self.phase = Phase::ReturningToU {
                        u,
                        p,
                        q,
                        v_degree: percept.degree,
                    };
                    return Ok(AgentCmd::Move(q));
                }
                Phase::ReturningToU { u, p, q, v_degree } => {
                    // Back at u. Self-loop check: if the token is visible
                    // here, v == u.
                    if percept.token_here {
                        self.resolve(u, p, u, q)?;
                        self.cur = u;
                        self.phase = Phase::PlanNext;
                        continue;
                    }
                    let (tour_ports, tour_nodes) = self.euler_tour_from(u);
                    self.phase = Phase::Touring {
                        u,
                        p,
                        q,
                        v_degree,
                        tour_ports: tour_ports.into(),
                        tour_nodes: tour_nodes.into(),
                    };
                    continue;
                }
                Phase::Touring {
                    u,
                    p,
                    q,
                    v_degree,
                    mut tour_ports,
                    mut tour_nodes,
                } => {
                    // Have we just arrived at an identified node with the
                    // token in sight? (The tour's first command has not yet
                    // been issued when tour_nodes.len() == tour_ports.len().)
                    let mid_tour = tour_nodes.len() < tour_ports.len() + 1;
                    if mid_tour && percept.token_here {
                        // We are at the node the previous tour move reached.
                        let w = self.cur;
                        self.resolve(u, p, w, q)?;
                        self.phase = Phase::PlanNext;
                        continue;
                    }
                    match tour_ports.pop_front() {
                        Some(port) => {
                            let next_node =
                                tour_nodes.pop_front().expect("tour nodes track tour ports");
                            self.cur = next_node;
                            self.phase = Phase::Touring {
                                u,
                                p,
                                q,
                                v_degree,
                                tour_ports,
                                tour_nodes,
                            };
                            return Ok(AgentCmd::Move(port));
                        }
                        None => {
                            // Tour finished with no sighting: v is new.
                            debug_assert_eq!(self.cur, u, "Euler tour closes at u");
                            let new_node = self.adj.len();
                            if new_node >= self.n_limit {
                                return Err(MapError::TooManyNodes {
                                    limit: self.n_limit,
                                });
                            }
                            self.adj.push(vec![None; v_degree]);
                            self.parent.push(Some((u, p, q)));
                            self.resolve(u, p, new_node, q)?;
                            self.phase = Phase::RejoiningToken { new_node };
                            return Ok(AgentCmd::Move(p));
                        }
                    }
                }
                Phase::RejoiningToken { new_node } => {
                    if !percept.token_here {
                        return Err(MapError::Inconsistent("token missing at new node"));
                    }
                    if percept.degree != self.adj[new_node].len() {
                        return Err(MapError::Inconsistent("degree changed at new node"));
                    }
                    self.cur = new_node;
                    self.phase = Phase::PlanNext;
                    continue;
                }
                Phase::Done => {
                    self.phase = Phase::Done;
                    return Ok(AgentCmd::Done);
                }
            }
        }
    }

    /// Smallest unresolved `(node, port)` slot.
    fn first_unresolved(&self) -> Option<(usize, Port)> {
        for (v, ports) in self.adj.iter().enumerate() {
            for (p, slot) in ports.iter().enumerate() {
                if slot.is_none() {
                    return Some((v, p));
                }
            }
        }
        None
    }

    /// Record edge `(a, pa) <-> (b, pb)`, both directions.
    fn resolve(&mut self, a: usize, pa: Port, b: usize, pb: Port) -> Result<(), MapError> {
        if pb >= self.adj[b].len() {
            return Err(MapError::Inconsistent("far port out of range"));
        }
        if a == b && pa == pb {
            // Self-loop on a single port.
            if self.adj[a][pa].is_some() {
                return Err(MapError::Inconsistent("edge resolved twice"));
            }
            self.adj[a][pa] = Some((a, pa));
            return Ok(());
        }
        if self.adj[a][pa].is_some() || self.adj[b][pb].is_some() {
            return Err(MapError::Inconsistent("edge resolved twice"));
        }
        self.adj[a][pa] = Some((b, pb));
        self.adj[b][pb] = Some((a, pa));
        Ok(())
    }

    /// Port path between two identified nodes along the spanning tree.
    fn tree_path(&self, from: usize, to: usize) -> Vec<Port> {
        if from == to {
            return Vec::new();
        }
        // Ancestor chains to the root.
        let chain = |mut v: usize| {
            let mut c = vec![v];
            while let Some((par, _, _)) = self.parent[v] {
                c.push(par);
                v = par;
            }
            c
        };
        let ca = chain(from);
        let cb = chain(to);
        // Find lowest common ancestor: deepest node present in both chains.
        let in_cb: std::collections::HashSet<usize> = cb.iter().copied().collect();
        let lca = *ca
            .iter()
            .find(|v| in_cb.contains(v))
            .expect("tree is connected");
        let mut path = Vec::new();
        // Up from `from` to LCA.
        let mut v = from;
        while v != lca {
            let (par, _, up) = self.parent[v].expect("non-root has parent");
            path.push(up);
            v = par;
        }
        // Down from LCA to `to`: collect the downward ports in reverse.
        let mut down = Vec::new();
        let mut w = to;
        while w != lca {
            let (par, down_port, _) = self.parent[w].expect("non-root has parent");
            down.push(down_port);
            w = par;
        }
        down.reverse();
        path.extend(down);
        path
    }

    /// Closed Euler tour of the spanning tree starting and ending at `start`,
    /// as `(ports, nodes-arrived-at)`; visits every identified node.
    fn euler_tour_from(&self, start: usize) -> (Vec<Port>, Vec<usize>) {
        // Tree adjacency: for each node, (port, neighbor) both directions.
        let mut nbrs: Vec<Vec<(Port, usize)>> = vec![Vec::new(); self.adj.len()];
        for (v, par) in self.parent.iter().enumerate() {
            if let Some((u, down, up)) = *par {
                nbrs[u].push((down, v));
                nbrs[v].push((up, u));
            }
        }
        for list in nbrs.iter_mut() {
            list.sort_unstable();
        }
        let mut ports = Vec::new();
        let mut nodes = Vec::new();
        let mut visited = vec![false; self.adj.len()];
        fn dfs(
            v: usize,
            nbrs: &[Vec<(Port, usize)>],
            visited: &mut [bool],
            back: Option<Port>,
            ports: &mut Vec<Port>,
            nodes: &mut Vec<usize>,
            parent_node: Option<usize>,
        ) {
            visited[v] = true;
            for &(p, u) in &nbrs[v] {
                if !visited[u] {
                    ports.push(p);
                    nodes.push(u);
                    // Find the port at u leading back to v.
                    let up = nbrs[u]
                        .iter()
                        .find(|&&(_, w)| w == v)
                        .map(|&(q, _)| q)
                        .expect("tree edge has both directions");
                    dfs(u, nbrs, visited, Some(up), ports, nodes, Some(v));
                }
            }
            if let (Some(q), Some(pv)) = (back, parent_node) {
                ports.push(q);
                nodes.push(pv);
            }
        }
        dfs(
            start,
            &nbrs,
            &mut visited,
            None,
            &mut ports,
            &mut nodes,
            None,
        );
        (ports, nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Offline driving of the machine lives in `crate::sim`; these tests
    // cover machine-local invariants.

    #[test]
    fn starts_planning_from_origin() {
        let mut x = TokenMapExplorer::new(2, 5);
        // First percept: at origin, token co-located, no arrival info.
        let cmd = x.next(Percept {
            degree: 2,
            token_here: true,
            entry_port: None,
        });
        // Must cross the first unresolved port (0) together.
        assert_eq!(cmd, AgentCmd::MoveWithToken(0));
    }

    #[test]
    fn single_edge_graph_completes() {
        // Two nodes joined by one edge, ports 0/0: cross, return, tour is
        // trivial (only origin identified), new node, rejoin, then resolve
        // the far side (which is the same edge -> immediately resolved).
        let mut x = TokenMapExplorer::new(1, 2);
        let cmd = x.next(Percept {
            degree: 1,
            token_here: true,
            entry_port: None,
        });
        assert_eq!(cmd, AgentCmd::MoveWithToken(0));
        // Arrive at v: degree 1, entry port 0, token here.
        let cmd = x.next(Percept {
            degree: 1,
            token_here: true,
            entry_port: Some(0),
        });
        assert_eq!(cmd, AgentCmd::Move(0)); // back to u
                                            // At u, token absent, tour empty -> new node; rejoin via port 0.
        let cmd = x.next(Percept {
            degree: 1,
            token_here: false,
            entry_port: Some(0),
        });
        assert_eq!(cmd, AgentCmd::Move(0));
        // At v with token: both slots resolved -> Done.
        let cmd = x.next(Percept {
            degree: 1,
            token_here: true,
            entry_port: Some(0),
        });
        assert_eq!(cmd, AgentCmd::Done);
        let (map, origin) = x.into_map().unwrap();
        assert_eq!(map.n(), 2);
        assert_eq!(map.m(), 1);
        assert_eq!(origin, 0);
    }

    #[test]
    fn token_lost_is_an_error_not_a_hang() {
        let mut x = TokenMapExplorer::new(1, 2);
        let _ = x.next(Percept {
            degree: 1,
            token_here: true,
            entry_port: None,
        });
        // Token vanished mid-crossing (Byzantine partner).
        let cmd = x.next(Percept {
            degree: 1,
            token_here: false,
            entry_port: Some(0),
        });
        assert_eq!(cmd, AgentCmd::Done);
        assert!(matches!(x.error(), Some(MapError::Inconsistent(_))));
        assert!(x.into_map().is_err());
    }

    #[test]
    fn node_limit_enforced() {
        // Claim the graph has 1 node; discovering a second must error.
        let mut x = TokenMapExplorer::new(1, 1);
        let _ = x.next(Percept {
            degree: 1,
            token_here: true,
            entry_port: None,
        });
        let _ = x.next(Percept {
            degree: 1,
            token_here: true,
            entry_port: Some(0),
        });
        let cmd = x.next(Percept {
            degree: 1,
            token_here: false,
            entry_port: Some(0),
        });
        assert_eq!(cmd, AgentCmd::Done);
        assert!(matches!(
            x.error(),
            Some(MapError::TooManyNodes { limit: 1 })
        ));
    }
}
