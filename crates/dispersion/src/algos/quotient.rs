//! Theorem 1: Byzantine dispersion tolerating up to `n − 1` weak Byzantine
//! robots on graphs whose quotient graph is isomorphic to the graph (§2).
//!
//! Phase 1 — `Find-Map`: each robot independently learns the quotient graph.
//! Our substrate (DESIGN.md, substitution 1): the robot performs the real
//! shared-seed exploration walk, then receives the exact quotient graph —
//! the same object \[16\]'s polynomial-time procedure produces. No
//! information flows between robots, so Byzantine robots are powerless
//! here.
//!
//! Phase 2 — `Dispersion-Using-Map` from wherever the walk ended.

use crate::dum::DumMachine;
use crate::error::DispersionError;
use crate::msg::Msg;
use crate::registry::{Plan, StartRequirement, TableRow};
use crate::script::PortScript;
use crate::timeline::{dum_budget, Timeline};
use bd_exploration::walks::{cover_walk_length, SharedWalk};
use bd_graphs::quotient::quotient_graph;
use bd_graphs::{NodeId, Port, PortGraph};
use bd_runtime::{Controller, MoveChoice, Observation, RobotId};
use std::any::Any;
use std::sync::Arc;

/// Protocol tag for the Theorem 1 `Find-Map` walk.
const FIND_MAP_TAG: u64 = 0x6d61_7000; // "map"

/// Per-robot inputs (deterministic, per-robot walk), built with the
/// robot's controller.
#[derive(Debug, Clone)]
pub struct QuotientSetup {
    /// The robot's exploration walk script (`Find-Map`'s round charge).
    pub walk: Vec<Port>,
    /// The map (the quotient graph, isomorphic to the graph by the
    /// Theorem 1 precondition); shared across the n robots the runner
    /// spawns, so setup stays O(1) per robot in the graph size.
    pub map: Arc<PortGraph>,
    /// The robot's map position after the walk.
    pub pos_after_walk: NodeId,
}

/// The shared part of Theorem 1's setup, computed once per run: the map
/// and each node's class in it.
struct QuotientPrep {
    map: Arc<PortGraph>,
    class_of: Vec<NodeId>,
}

/// Controller for Theorem 1.
pub struct QuotientController {
    id: RobotId,
    walk: PortScript,
    walk_len: u64,
    dum_start: u64,
    dum_end: u64,
    dum: Option<DumMachine>,
    setup_map: Option<(Arc<PortGraph>, NodeId)>,
    n: usize,
    round_seen: u64,
}

impl QuotientController {
    /// Build the controller; `n` is the graph size.
    pub fn new(id: RobotId, n: usize, setup: QuotientSetup) -> Self {
        let walk_len = setup.walk.len() as u64;
        QuotientController {
            id,
            walk: PortScript::new(setup.walk),
            walk_len,
            dum_start: walk_len,
            dum_end: walk_len + dum_budget(n),
            dum: Some(DumMachine::new(id, setup.map.clone(), setup.pos_after_walk)),
            setup_map: Some((setup.map, setup.pos_after_walk)),
            n,
            round_seen: 0,
        }
    }

    fn in_dum(&self, round: u64) -> bool {
        round >= self.dum_start && round < self.dum_end
    }
}

impl Controller<Msg> for QuotientController {
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
        self.round_seen = obs.round;
        if self.in_dum(obs.round) {
            let _ = self.setup_map.take();
            return self.dum.as_mut().expect("dum machine").act(obs);
        }
        None
    }

    fn decide_move(&mut self, obs: &Observation<'_, Msg>) -> MoveChoice {
        self.round_seen = obs.round;
        if obs.round < self.walk_len {
            return self.walk.pop().map_or(MoveChoice::Stay, MoveChoice::Move);
        }
        if self.in_dum(obs.round) {
            return self.dum.as_mut().expect("dum machine").decide_move();
        }
        MoveChoice::Stay
    }

    fn terminated(&self) -> bool {
        self.round_seen + 1 >= self.dum_end
    }

    /// The rest of the `Find-Map` walk: no information flows during it.
    fn scripted(&self, round: u64) -> &[Port] {
        self.walk.rest(self.walk_len.saturating_sub(round))
    }

    fn advance_script(&mut self, round: u64, rounds: u64) {
        self.walk.advance(rounds);
        self.round_seen = round + rounds - 1;
    }
}

/// Table 1 row: Theorem 1.
pub struct QuotientRow;

impl TableRow for QuotientRow {
    fn name(&self) -> &'static str {
        "QuotientTh1"
    }

    fn theorem(&self) -> &'static str {
        "Thm 1"
    }

    fn paper_time(&self) -> &'static str {
        "polynomial(n)"
    }

    fn paper_tolerance(&self) -> &'static str {
        "n - 1"
    }

    /// `n − 1`: no information flows between robots, so every other robot
    /// may be Byzantine (the scenario's own `f < k` floor still applies).
    fn tolerance(&self, n: usize, _k: usize) -> usize {
        n.saturating_sub(1)
    }

    fn start_requirement(&self) -> StartRequirement {
        StartRequirement::Any
    }

    /// Shared setup: the quotient map and each node's class in it.
    /// Theorem 1's precondition (quotient isomorphic to the graph) is
    /// enforced here rather than in `precondition`, so the quotient
    /// refinement — the row's most expensive setup step — is computed
    /// exactly once per run. Each robot's `Find-Map` walk is built with its
    /// controller, so seats that never walk it (adversaries) cost nothing.
    fn prepare(&self, plan: &Plan) -> Result<Option<Box<dyn Any + Send + Sync>>, DispersionError> {
        let q = quotient_graph(plan.graph.as_ref());
        if !q.is_isomorphic_to_original() {
            return Err(DispersionError::QuotientNotIsomorphic {
                classes: q.num_classes(),
                n: plan.graph.n(),
            });
        }
        Ok(Some(Box::new(QuotientPrep {
            map: Arc::new(q.graph),
            class_of: q.class_of,
        })))
    }

    /// Adversaries activate once the non-interactive `Find-Map` walk ends.
    fn interaction_start(&self, plan: &Plan) -> u64 {
        cover_walk_length(plan.n)
    }

    fn phase_schedule(&self, plan: &Plan) -> Timeline {
        let mut t = Timeline::default();
        t.push("cover_walk", cover_walk_length(plan.n));
        t.push("settle", dum_budget(plan.n));
        t
    }

    fn build_controller(&self, plan: &Plan, i: usize) -> Box<dyn Controller<Msg>> {
        let prep: &QuotientPrep = plan.prep().expect("prepared by QuotientRow::prepare");
        let graph = plan.graph.as_ref();
        let len = cover_walk_length(plan.n);
        let mut walk = SharedWalk::for_size(plan.n, FIND_MAP_TAG);
        let mut ports: Vec<Port> = Vec::with_capacity(len as usize);
        let mut cur = plan.starts[i];
        for _ in 0..len {
            let p = walk.next_port(graph.degree(cur));
            ports.push(p);
            cur = graph.neighbor(cur, p).0;
        }
        Box::new(QuotientController::new(
            plan.ids[i],
            plan.n,
            QuotientSetup {
                walk: ports,
                map: Arc::clone(&prep.map),
                pos_after_walk: prep.class_of[cur],
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subround_request_tracks_phase() {
        let map = bd_graphs::generators::ring(5).unwrap();
        let c = QuotientController::new(
            RobotId(3),
            5,
            QuotientSetup {
                walk: vec![0, 0],
                map: map.into(),
                pos_after_walk: 2,
            },
        );
        // Rounds before `dum_start` are the walking phase: one sub-round.
        assert_eq!(c.subrounds_wanted(0), 1);
        assert_eq!(c.subrounds_wanted(2), DumMachine::subrounds_needed(5));
        assert!(!c.terminated());
    }
}
