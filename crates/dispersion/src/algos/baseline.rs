//! Non-Byzantine baseline: map-equipped DFS dispersion with per-node
//! capacity.
//!
//! All robots start gathered and hold a map of the graph (oracle-equipped —
//! this baseline plays the role of "any deterministic algorithm `A`" in the
//! Theorem 8 construction and the fault-free comparison row in benchmarks).
//! At round 0 each robot reads the co-located roster; rank `i` (0-based in
//! sorted ID order) walks to the `⌊i / capacity⌋`-th node in DFS preorder
//! and settles there. Deterministic, communication-free after the snapshot,
//! `O(n)` rounds.

use crate::msg::Msg;
use crate::registry::{Plan, StartColumn, StartRequirement, TableRow};
use crate::timeline::Timeline;
use bd_graphs::navigate::shortest_path_ports;
use bd_graphs::traversal::dfs_tree;
use bd_graphs::{NodeId, PortGraph};
use bd_runtime::{Controller, Intent, MoveChoice, Observation, RobotId};
use std::collections::VecDeque;
use std::sync::Arc;

/// Controller for the baseline (one per robot).
pub struct BaselineController {
    id: RobotId,
    /// Shared oracle map: spawning k robots costs k `Arc` clones, not k
    /// graph copies.
    map: Arc<PortGraph>,
    start: NodeId,
    capacity: usize,
    /// Remaining port script to the assigned node (computed at round 0).
    path: Option<VecDeque<usize>>,
    /// Phase budget: all robots terminate together at this round.
    budget: u64,
}

impl BaselineController {
    /// `map` is the graph; `start` the gathered node (map coordinates equal
    /// world coordinates for this oracle baseline); `capacity` the allowed
    /// robots per node (`⌈k/n⌉` in Theorem 8 scenarios, 1 otherwise).
    pub fn new(
        id: RobotId,
        map: impl Into<Arc<PortGraph>>,
        start: NodeId,
        capacity: usize,
    ) -> Self {
        let map = map.into();
        let budget = map.n() as u64 + 2;
        BaselineController {
            id,
            map,
            start,
            capacity: capacity.max(1),
            path: None,
            budget,
        }
    }
}

impl Controller<Msg> for BaselineController {
    fn id(&self) -> RobotId {
        self.id
    }

    fn act(&mut self, obs: &Observation<'_, Msg>) -> Option<Msg> {
        if obs.round == 0 && obs.subround == 0 && self.path.is_none() {
            // Snapshot: rank among co-located claimed IDs.
            let ids = crate::algos::common::snapshot_ids(obs.roster);
            let rank = ids.iter().position(|&r| r == self.id).unwrap_or(0);
            let order = dfs_tree(&self.map, self.start).order;
            let target = order[(rank / self.capacity).min(order.len() - 1)];
            let ports =
                shortest_path_ports(&self.map, self.start, target).expect("map is connected");
            self.path = Some(ports.into());
        }
        None
    }

    fn decide_move(&mut self, _obs: &Observation<'_, Msg>) -> MoveChoice {
        match self.path.as_mut().and_then(|p| p.pop_front()) {
            Some(port) => MoveChoice::Move(port),
            None => MoveChoice::Stay,
        }
    }

    /// Acting until the walk is exhausted, then idle until the budget,
    /// where every robot is done: the measured rounds equal the budget.
    fn intent(&self, round: u64) -> Intent {
        if !self.path.as_ref().is_some_and(|p| p.is_empty()) {
            Intent::Act
        } else if round >= self.budget {
            Intent::Done
        } else {
            Intent::Idle(self.budget)
        }
    }
}

/// Comparison row: the non-Byzantine oracle baseline (Theorem 8's
/// algorithm `A`).
pub struct BaselineRow;

impl TableRow for BaselineRow {
    fn name(&self) -> &'static str {
        "Baseline"
    }

    fn theorem(&self) -> &'static str {
        "§1.4"
    }

    fn paper_time(&self) -> &'static str {
        "O(n)"
    }

    fn paper_tolerance(&self) -> &'static str {
        "0"
    }

    /// Fault-free by definition.
    fn tolerance(&self, _n: usize, _k: usize) -> usize {
        0
    }

    fn start_requirement(&self) -> StartRequirement {
        StartRequirement::Any
    }

    /// Benchmarks evaluate the baseline gathered (co-located ranks make
    /// the DFS-preorder assignment collision-free).
    fn start_column(&self) -> StartColumn {
        StartColumn::Gathered
    }

    fn phase_schedule(&self, plan: &Plan) -> Timeline {
        // The whole run is one Dispersion-Using-Map pass on the known map.
        let mut t = Timeline::default();
        t.push("settle", plan.n as u64 + 2);
        t
    }

    fn build_controller(&self, plan: &Plan, i: usize) -> Box<dyn Controller<Msg>> {
        Box::new(BaselineController::new(
            plan.ids[i],
            Arc::clone(&plan.graph),
            plan.starts[i],
            plan.k.div_ceil(plan.n),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_graphs::generators::{erdos_renyi_connected, ring};
    use bd_runtime::{Engine, EngineConfig, Flavor};

    fn run_baseline(g: &PortGraph, k: usize, capacity: usize) -> Vec<NodeId> {
        let mut e: Engine<Msg> = Engine::new(g.clone(), EngineConfig::default());
        for i in 0..k {
            e.add_robot(
                Flavor::Honest,
                0,
                Box::new(BaselineController::new(
                    RobotId(10 + i as u64),
                    g.clone(),
                    0,
                    capacity,
                )),
            );
        }
        e.run_epoch(u64::MAX).unwrap().final_positions
    }

    #[test]
    fn intent_idles_to_the_budget_once_the_walk_is_done() {
        // On a 5-ring the budget is 7 rounds; the lowest ID settles at the
        // start, so its walk is empty once the round-0 snapshot is taken.
        let mut c = BaselineController::new(RobotId(1), ring(5).unwrap(), 0, 1);
        assert_eq!(c.intent(0), Intent::Act, "no walk before the snapshot");
        let roster = [RobotId(1), RobotId(2)];
        let obs = |round| Observation::<Msg> {
            round,
            subround: 0,
            subrounds: 1,
            degree: 2,
            roster: &roster,
            bulletin: &[],
            arrival: None,
        };
        c.act(&obs(0));
        assert_eq!(c.intent(1), Intent::Idle(7));
        assert_eq!(c.intent(6), Intent::Idle(7));
        assert_eq!(c.intent(7), Intent::Done);
    }

    #[test]
    fn n_robots_disperse_one_per_node() {
        let g = ring(7).unwrap();
        let pos = run_baseline(&g, 7, 1);
        let set: std::collections::HashSet<_> = pos.iter().collect();
        assert_eq!(set.len(), 7, "positions {pos:?}");
    }

    #[test]
    fn respects_capacity_for_k_greater_than_n() {
        let g = ring(5).unwrap();
        let pos = run_baseline(&g, 12, 3); // ceil(12/5) = 3
        let mut counts = vec![0usize; 5];
        for &p in &pos {
            counts[p] += 1;
        }
        assert!(counts.iter().all(|&c| c <= 3), "counts {counts:?}");
    }

    #[test]
    fn fewer_robots_than_nodes() {
        let g = erdos_renyi_connected(9, 0.35, 2).unwrap();
        let pos = run_baseline(&g, 4, 1);
        let set: std::collections::HashSet<_> = pos.iter().collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn terminates_in_linear_rounds() {
        let g = ring(10).unwrap();
        let mut e: Engine<Msg> = Engine::new(g.clone(), EngineConfig::default());
        for i in 0..10 {
            e.add_robot(
                Flavor::Honest,
                0,
                Box::new(BaselineController::new(RobotId(1 + i), g.clone(), 0, 1)),
            );
        }
        let out = e.run_epoch(u64::MAX).unwrap();
        assert!(out.metrics.rounds <= 2 * 10 + 4);
    }
}
