//! Physical state of the simulation: who is where on the graph.

use crate::ids::{Flavor, RobotId};
use bd_graphs::{NodeId, PortGraph};
use std::sync::Arc;

/// One robot's physical record.
#[derive(Debug, Clone)]
pub struct RobotSlot {
    /// True identity (never faked at this layer).
    pub id: RobotId,
    /// Fault flavor, fixed at setup.
    pub flavor: Flavor,
    /// Current node.
    pub position: NodeId,
    /// Number of edge traversals so far.
    pub moves: u64,
}

/// The graph plus robot placements. The engine owns a `World` and mutates it
/// between rounds; controllers never touch it.
#[derive(Debug, Clone)]
pub struct World {
    /// Shared, immutable graph: cloning the world (or re-registering
    /// robots) never pays O(V + E) again.
    graph: Arc<PortGraph>,
    robots: Vec<RobotSlot>,
}

impl World {
    /// Create a world with the given robot placements. Accepts either an
    /// owned graph or an already shared `Arc` handle.
    ///
    /// Panics if a start node is out of range — scenario construction bugs
    /// should fail loudly.
    pub fn new(
        graph: impl Into<Arc<PortGraph>>,
        placements: Vec<(RobotId, Flavor, NodeId)>,
    ) -> Self {
        let graph = graph.into();
        for &(id, _, node) in &placements {
            assert!(
                node < graph.n(),
                "robot {id} placed on nonexistent node {node}"
            );
        }
        let robots = placements
            .into_iter()
            .map(|(id, flavor, position)| RobotSlot {
                id,
                flavor,
                position,
                moves: 0,
            })
            .collect();
        World { graph, robots }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &PortGraph {
        &self.graph
    }

    /// Number of robots.
    pub fn num_robots(&self) -> usize {
        self.robots.len()
    }

    /// All robot slots, in setup order.
    pub fn robots(&self) -> &[RobotSlot] {
        &self.robots
    }

    /// Slot of robot `i` (setup index).
    pub fn robot(&self, i: usize) -> &RobotSlot {
        &self.robots[i]
    }

    /// Put robot `i` on `node` at the end of a walk of `moves` edge
    /// traversals that the engine applied in bulk.
    pub(crate) fn relocate(&mut self, i: usize, node: NodeId, moves: u64) {
        self.robots[i].position = node;
        self.robots[i].moves += moves;
    }

    /// Register one more robot. Panics on an out-of-range node, matching
    /// [`World::new`]'s contract.
    pub fn add_robot(&mut self, id: RobotId, flavor: Flavor, node: NodeId) {
        assert!(
            node < self.graph.n(),
            "robot {id} placed on nonexistent node {node}"
        );
        self.robots.push(RobotSlot {
            id,
            flavor,
            position: node,
            moves: 0,
        });
    }

    /// Remove every robot (a new epoch reseats the whole cast).
    pub(crate) fn clear_robots(&mut self) {
        self.robots.clear();
    }

    /// Swap in a new graph (an **edge fail/heal** epoch). The engine has
    /// already checked that every robot still stands on a valid node.
    pub(crate) fn set_graph(&mut self, graph: Arc<PortGraph>) {
        self.graph = graph;
    }

    /// Positions of all robots indexed by setup order.
    pub fn positions(&self) -> Vec<NodeId> {
        self.robots.iter().map(|r| r.position).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_graphs::generators::ring;

    #[test]
    fn placement_and_moves() {
        let g = ring(5).unwrap();
        let mut w = World::new(
            g,
            vec![
                (RobotId(1), Flavor::Honest, 0),
                (RobotId(2), Flavor::WeakByzantine, 2),
            ],
        );
        assert_eq!(w.positions(), vec![0, 2]);
        w.relocate(0, 3, 2);
        assert_eq!((w.robot(0).position, w.robot(0).moves), (3, 2));
        assert_eq!(w.positions(), vec![3, 2]);
    }

    #[test]
    #[should_panic(expected = "nonexistent node")]
    fn bad_placement_panics() {
        let g = ring(4).unwrap();
        let _ = World::new(g, vec![(RobotId(1), Flavor::Honest, 9)]);
    }
}
