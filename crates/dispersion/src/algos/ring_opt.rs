//! The ring-optimal predecessor: `Time-Opt-Ring-Dispersion` of Molla,
//! Mondal and Moses Jr. (ALGOSENSORS'20 / TCS'21, refs \[34, 36\]) — the
//! algorithm whose generalization is this paper's §2.2.
//!
//! On a ring a robot needs no quotient-graph machinery to get a map: it
//! walks forward (always leaving through the port it did *not* enter by)
//! for exactly `n` steps, recording the port pairs, and is back where it
//! started holding a complete port-labeled map of the ring. No information
//! from other robots is used, so — exactly as in Theorem 1 — up to `n − 1`
//! weak Byzantine robots are tolerated. Map phase `n` rounds, then
//! `Dispersion-Using-Map`: `O(n)` total, the time-optimality of \[34, 36\].
//!
//! Kept as a first-class algorithm because it is the natural baseline row
//! for the paper's claims: on rings it beats Theorem 1's polynomial
//! `Find-Map` by orders of magnitude, which is precisely the gap the
//! paper's general-graph machinery pays for generality.

use crate::dum::DumMachine;
use crate::error::DispersionError;
use crate::msg::Msg;
use crate::registry::{Plan, StartRequirement, TableRow};
use crate::timeline::{dum_budget, Timeline};
use bd_graphs::{NodeId, Port, PortGraph};
use bd_runtime::{Controller, Intent, MoveChoice, Observation, RobotId};

enum Phase {
    /// Walking around the ring, recording `(exit_port, entry_port)` pairs.
    Mapping {
        steps_done: usize,
        first_exit: Port,
        pairs: Vec<(Port, Port)>,
    },
    /// Running DUM on the learned ring map.
    Dum(Box<DumMachine>),
}

/// Controller for the ring-optimal algorithm.
pub struct RingOptController {
    id: RobotId,
    n: usize,
    phase: Phase,
    dum_start: u64,
    dum_end: u64,
}

impl RingOptController {
    /// Robots know `n` (§1.1) and that the graph is a ring.
    pub fn new(id: RobotId, n: usize) -> Self {
        let dum_start = n as u64;
        RingOptController {
            id,
            n,
            phase: Phase::Mapping {
                steps_done: 0,
                first_exit: 0,
                pairs: Vec::with_capacity(n),
            },
            dum_start,
            dum_end: dum_start + dum_budget(n),
        }
    }

    fn in_dum(&self, round: u64) -> bool {
        round >= self.dum_start && round < self.dum_end
    }

    /// Assemble the ring map from the recorded walk. Node `i` is the node
    /// reached after `i` forward steps; `pairs[i]` is the edge from node
    /// `i` to node `i + 1` as `(port at i, port at i+1)`.
    fn build_map(n: usize, pairs: &[(Port, Port)]) -> PortGraph {
        let mut adj: Vec<Vec<(NodeId, Port)>> = vec![vec![(0, 0); 2]; n];
        for (i, &(exit, entry)) in pairs.iter().enumerate() {
            let j = (i + 1) % n;
            adj[i][exit] = (j, entry);
            adj[j][entry] = (i, exit);
        }
        PortGraph::from_adjacency(adj).expect("ring walk yields a valid ring map")
    }
}

impl Controller<Msg> for RingOptController {
    fn id(&self) -> RobotId {
        self.id
    }

    fn subrounds_wanted(&self, round: u64) -> usize {
        if self.in_dum(round) {
            DumMachine::subrounds_needed(self.n)
        } else {
            1
        }
    }

    fn act(&mut self, obs: &Observation<'_, Msg>) -> Option<Msg> {
        // Record the entry port of the previous step.
        if let Phase::Mapping {
            steps_done,
            first_exit,
            pairs,
        } = &mut self.phase
        {
            if let Some(a) = obs.arrival {
                pairs.push((a.exit_port, a.entry_port));
                if pairs.len() == 1 {
                    *first_exit = a.exit_port;
                }
            }
            if *steps_done == self.n && pairs.len() == self.n {
                // Back at the start with a complete map; start DUM there.
                let map = Self::build_map(self.n, pairs);
                self.phase = Phase::Dum(Box::new(DumMachine::new(self.id, map, 0)));
            }
        }
        if self.in_dum(obs.round) {
            if let Phase::Dum(dum) = &mut self.phase {
                return dum.act(obs);
            }
        }
        None
    }

    fn decide_move(&mut self, obs: &Observation<'_, Msg>) -> MoveChoice {
        let dum_active = self.in_dum(obs.round);
        match &mut self.phase {
            Phase::Mapping {
                steps_done, pairs, ..
            } => {
                if *steps_done >= self.n {
                    return MoveChoice::Stay;
                }
                // Forward = the port we did not enter through; step 0 takes
                // port 0 by convention (all robots agree).
                let port = match pairs.last() {
                    None => 0,
                    Some(&(_, entry)) => 1 - entry,
                };
                *steps_done += 1;
                MoveChoice::Move(port)
            }
            Phase::Dum(dum) => {
                if dum_active {
                    dum.decide_move()
                } else {
                    MoveChoice::Stay
                }
            }
        }
    }

    fn intent(&self, round: u64) -> Intent {
        if round >= self.dum_end {
            Intent::Done
        } else {
            Intent::Act
        }
    }
}

/// Comparison row: the ring-optimal predecessor algorithm of \[34, 36\].
pub struct RingOptRow;

impl TableRow for RingOptRow {
    fn name(&self) -> &'static str {
        "RingOptimal"
    }

    fn theorem(&self) -> &'static str {
        "[34,36]"
    }

    fn paper_time(&self) -> &'static str {
        "O(n)"
    }

    fn paper_tolerance(&self) -> &'static str {
        "n - 1"
    }

    /// `n − 1`, exactly as Theorem 1: the walk uses no information from
    /// other robots.
    fn tolerance(&self, n: usize, _k: usize) -> usize {
        n.saturating_sub(1)
    }

    fn start_requirement(&self) -> StartRequirement {
        StartRequirement::Any
    }

    /// Rings only: every node of degree 2, connected.
    fn precondition(&self, graph: &PortGraph) -> Result<(), DispersionError> {
        if !(graph.nodes().all(|v| graph.degree(v) == 2) && graph.is_connected()) {
            return Err(DispersionError::BadScenario(
                "RingOptimal requires a ring".into(),
            ));
        }
        Ok(())
    }

    /// Adversaries activate once the non-interactive ring walk ends.
    fn interaction_start(&self, plan: &Plan) -> u64 {
        plan.n as u64
    }

    fn phase_schedule(&self, plan: &Plan) -> Timeline {
        let mut t = Timeline::default();
        t.push("walk", plan.n as u64);
        t.push("settle", dum_budget(plan.n));
        t
    }

    fn build_controller(&self, plan: &Plan, i: usize) -> Box<dyn Controller<Msg>> {
        Box::new(RingOptController::new(plan.ids[i], plan.n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_graphs::generators::{oriented_ring, ring};
    use bd_graphs::iso::are_isomorphic;
    use bd_graphs::scramble::scramble_ports;
    use bd_runtime::{Engine, EngineConfig, Flavor};

    fn run_ring(g: &PortGraph, k: usize) -> Vec<NodeId> {
        let mut e: Engine<Msg> = Engine::new(g.clone(), EngineConfig::default());
        for i in 0..k {
            e.add_robot(
                Flavor::Honest,
                i % g.n(),
                Box::new(RingOptController::new(RobotId(10 + i as u64), g.n())),
            );
        }
        e.run_epoch(u64::MAX).unwrap().final_positions
    }

    #[test]
    fn disperses_on_every_ring_presentation() {
        for g in [
            ring(7).unwrap(),
            oriented_ring(7).unwrap(),
            scramble_ports(&ring(9).unwrap(), 5),
        ] {
            let pos = run_ring(&g, g.n());
            let distinct: std::collections::HashSet<_> = pos.iter().collect();
            assert_eq!(distinct.len(), g.n(), "positions {pos:?}");
        }
    }

    #[test]
    fn map_built_from_walk_is_the_ring() {
        let g = scramble_ports(&ring(8).unwrap(), 3);
        // Simulate the walk directly.
        let mut pairs = Vec::new();
        let mut cur = 2usize;
        let mut entry = None;
        for _ in 0..8 {
            let exit = match entry {
                None => 0,
                Some(e) => 1 - e,
            };
            let (next, q) = g.neighbor(cur, exit);
            pairs.push((exit, q));
            entry = Some(q);
            cur = next;
        }
        assert_eq!(cur, 2, "walk closes");
        let map = RingOptController::build_map(8, &pairs);
        assert!(are_isomorphic(&map, &g));
    }

    #[test]
    fn linear_round_count() {
        let g = ring(12).unwrap();
        let mut e: Engine<Msg> = Engine::new(g.clone(), EngineConfig::default());
        for i in 0..12 {
            e.add_robot(
                Flavor::Honest,
                0,
                Box::new(RingOptController::new(RobotId(1 + i), 12)),
            );
        }
        let out = e.run_epoch(u64::MAX).unwrap();
        assert!(out.metrics.rounds <= 12 + dum_budget(12) + 2);
    }
}
