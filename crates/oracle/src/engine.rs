//! The reference engine: the round semantics of `bd_runtime::Engine`
//! restated in deliberately naive code.
//!
//! Everything the fast engine does *incrementally* — occupancy tracked
//! through dirty lists, rosters re-sorted only when stale, bulletins
//! cleared through a touched list, whole idle stretches fast-forwarded —
//! this engine does **from scratch, every round**: occupancy and rosters
//! are rebuilt into fresh `BTreeMap`s each round, bulletins are a fresh
//! map each round, and every single round is stepped. There are no scratch
//! arenas, no dirty lists, and no skip logic to share bugs with the hot
//! path. The only thing the two engines have in common is the *model*
//! (§1.1: sub-round communication, simultaneous movement, weak/strong ID
//! stamping) plus the prelude rule (`Controller::prelude`: in epoch-local
//! rounds `0..len` the engine moves the robot through its prelude and calls
//! none of its round methods), restated here round by round, so the fast
//! engine's bulk application of preludes is checked too — which is exactly
//! what makes disagreement between them meaningful.

use bd_graphs::{NodeId, Port, PortGraph};
use bd_runtime::{
    ArrivalInfo, Controller, EngineConfig, EpochOutcome, Event, Flavor, Intent, MoveChoice,
    Observation, Prelude, Publication, RobotId, RunError, RunMetrics, Trace,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One robot as the oracle tracks it: identity, flavor, position, odometer.
struct Seat<M> {
    id: RobotId,
    flavor: Flavor,
    position: NodeId,
    moves: u64,
    /// The ports the engine walks the robot through in epoch-local rounds
    /// `0..len`, read when the robot was seated.
    prelude: Prelude,
    controller: Box<dyn Controller<M>>,
}

impl<M> Seat<M> {
    /// The prelude's port for epoch-local `round`, if the robot is still
    /// inside its prelude.
    fn prelude_port(&self, round: u64) -> Option<Port> {
        self.prelude.port(round)
    }

    /// Whether the robot is past its prelude and done at epoch-local
    /// `round`; the oracle asks its controller nothing else.
    fn done(&self, round: u64) -> bool {
        self.prelude_port(round).is_none() && self.controller.intent(round) == Intent::Done
    }
}

/// The naive reference engine. Mirrors the `bd_runtime::Engine` public
/// surface (`new` / `add_robot` / `begin_epoch` / `set_graph` / `run_epoch` /
/// `into_trace`) and its observable semantics, and nothing about its
/// implementation.
pub struct OracleEngine<M> {
    graph: Arc<PortGraph>,
    config: EngineConfig,
    round: u64,
    /// Round at which the current epoch began; epoch metrics measure from
    /// here (mirrors the fast engine's epoch clock).
    epoch_base: u64,
    seats: Vec<Seat<M>>,
    arrivals: Vec<Option<ArrivalInfo>>,
    terminated_logged: Vec<bool>,
    metrics: RunMetrics,
    trace: Trace,
}

impl<M: Clone> OracleEngine<M> {
    /// An engine over `graph` with no robots yet. `config.ff_overshoot`
    /// is ignored: the oracle steps every round by construction.
    pub fn new(graph: impl Into<Arc<PortGraph>>, config: EngineConfig) -> Self {
        OracleEngine {
            graph: graph.into(),
            config,
            round: 0,
            epoch_base: 0,
            seats: Vec::new(),
            arrivals: Vec::new(),
            terminated_logged: Vec::new(),
            metrics: RunMetrics::default(),
            trace: Trace::default(),
        }
    }

    /// Register a robot; its true ID is taken from the controller.
    pub fn add_robot(&mut self, flavor: Flavor, start: NodeId, controller: Box<dyn Controller<M>>) {
        self.seats.push(Seat {
            id: controller.id(),
            flavor,
            position: start,
            moves: 0,
            prelude: controller.prelude(),
            controller,
        });
        self.arrivals.push(None);
        self.terminated_logged.push(false);
    }

    /// Whether every honest robot has terminated; a robot inside its
    /// prelude has not.
    fn all_honest_terminated(&self) -> bool {
        let local_round = self.round - self.epoch_base;
        self.seats
            .iter()
            .all(|s| s.flavor != Flavor::Honest || s.done(local_round))
    }

    /// Rounds elapsed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Reseat the whole cast for a new epoch and snapshot-and-clear the
    /// metrics, mirroring `bd_runtime::Engine::begin_epoch` (a seat off
    /// the graph is a scenario error).
    pub fn begin_epoch<I>(&mut self, seats: I) -> Result<(), RunError>
    where
        I: IntoIterator<Item = (Flavor, NodeId, Box<dyn Controller<M>>)>,
    {
        self.seats.clear();
        self.arrivals.clear();
        self.terminated_logged.clear();
        for (flavor, node, controller) in seats {
            if node >= self.graph.n() {
                return Err(RunError::BadScenario(format!(
                    "seat on nonexistent node {node} (graph has {} nodes)",
                    self.graph.n()
                )));
            }
            self.add_robot(flavor, node, controller);
        }
        self.metrics = RunMetrics::default();
        self.epoch_base = self.round;
        Ok(())
    }

    /// Swap the graph between epochs, mirroring
    /// `bd_runtime::Engine::set_graph`: a graph that would strand a robot
    /// is refused, and arrival port pairs are forgotten.
    pub fn set_graph(&mut self, graph: Arc<PortGraph>) -> Result<(), RunError> {
        if let Some(s) = self.seats.iter().find(|s| s.position >= graph.n()) {
            return Err(RunError::BadScenario(format!(
                "robot {} on node {} would be stranded outside the {}-node \
                 replacement graph",
                s.id,
                s.position,
                graph.n()
            )));
        }
        self.graph = graph;
        self.arrivals.fill(None);
        Ok(())
    }

    /// Drive rounds — every one of them, no fast-forwarding — until every
    /// honest robot terminates or the clock reaches `stop_at`.
    pub fn run_epoch(&mut self, stop_at: u64) -> Result<EpochOutcome, RunError> {
        if self.seats.is_empty() {
            return Err(RunError::BadScenario("no robots registered".into()));
        }
        let terminated = loop {
            if self.all_honest_terminated() {
                break true;
            }
            if self.round >= stop_at {
                break false;
            }
            if self.round >= self.config.max_rounds {
                return Err(RunError::RoundLimit {
                    limit: self.config.max_rounds,
                });
            }
            self.step()?;
        };
        self.metrics.rounds = self.round - self.epoch_base;
        self.metrics.total_moves = self.seats.iter().map(|s| s.moves).sum();
        self.metrics.max_moves_per_robot = self.seats.iter().map(|s| s.moves).max().unwrap_or(0);
        let metrics = std::mem::take(&mut self.metrics);
        Ok(EpochOutcome {
            metrics,
            final_positions: self.seats.iter().map(|s| s.position).collect(),
            terminated,
        })
    }

    /// Jump the round clock across inter-epoch quiescence — a pure
    /// relabeling, identical in both engines by definition, so it can
    /// never be a source of divergence.
    pub fn advance_to(&mut self, round: u64) -> Result<(), RunError> {
        if round < self.round {
            return Err(RunError::BadScenario(format!(
                "cannot rewind the round clock from {} to {round}",
                self.round
            )));
        }
        self.round = round;
        Ok(())
    }

    /// Consume the engine, returning the cumulative trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// The claimed ID the engine stamps for seat `i`: strong Byzantine
    /// robots choose freely, everyone else is stamped truthfully.
    fn stamped_id(seat: &Seat<M>) -> RobotId {
        if seat.flavor.can_fake_id() {
            seat.controller.claimed_id()
        } else {
            seat.id
        }
    }

    /// One round: rebuild all per-round state from scratch, run the
    /// sub-round communication, then apply the simultaneous move step.
    fn step(&mut self) -> Result<(), RunError> {
        let k = self.seats.len();
        let round_now = self.round;
        // Controllers live in epoch-local time (see the fast engine's
        // `step`): observations count from the epoch base, the trace keeps
        // the absolute clock. The frames coincide outside dynamic runs.
        let local_round = round_now - self.epoch_base;

        // The prelude ports of robots inside their prelude: the engine
        // moves them and calls nothing of theirs this round.
        let walking: Vec<Option<Port>> = self
            .seats
            .iter()
            .map(|s| s.prelude_port(local_round))
            .collect();
        // Active = past the prelude and not terminated. Terminated and
        // walking robots remain physically present (they appear in
        // rosters).
        let active: Vec<bool> = self
            .seats
            .iter()
            .zip(&walking)
            .map(|(s, w)| w.is_none() && s.controller.intent(local_round) != Intent::Done)
            .collect();

        // Occupancy and sorted claimed-ID rosters, rebuilt wholesale.
        let mut at_node: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
        for (i, seat) in self.seats.iter().enumerate() {
            at_node.entry(seat.position).or_default().push(i);
        }
        let mut roster: BTreeMap<NodeId, Vec<RobotId>> = BTreeMap::new();
        for (&node, occupants) in &at_node {
            let mut ids: Vec<RobotId> = occupants
                .iter()
                .map(|&i| Self::stamped_id(&self.seats[i]))
                .collect();
            ids.sort_unstable();
            roster.insert(node, ids);
        }
        let empty_roster: Vec<RobotId> = Vec::new();
        let empty_bulletin: Vec<Publication<M>> = Vec::new();

        // Sub-round communication: as many sub-rounds as any active robot
        // requests, at least one.
        let subrounds = self
            .seats
            .iter()
            .zip(&active)
            .filter(|&(_, &a)| a)
            .map(|(s, _)| s.controller.subrounds_wanted(local_round))
            .max()
            .unwrap_or(1)
            .max(1);
        let mut bulletins: BTreeMap<NodeId, Vec<Publication<M>>> = BTreeMap::new();
        for sub in 0..subrounds {
            let mut pending: Vec<(NodeId, Publication<M>)> = Vec::new();
            for i in 0..k {
                if !active[i] {
                    continue;
                }
                let node = self.seats[i].position;
                let obs = Observation {
                    round: local_round,
                    subround: sub,
                    subrounds,
                    degree: self.graph.degree(node),
                    roster: roster.get(&node).unwrap_or(&empty_roster),
                    bulletin: bulletins.get(&node).unwrap_or(&empty_bulletin),
                    arrival: if sub == 0 { self.arrivals[i] } else { None },
                };
                if let Some(body) = self.seats[i].controller.act(&obs) {
                    let sender = Self::stamped_id(&self.seats[i]);
                    pending.push((
                        node,
                        Publication {
                            sender,
                            subround: sub,
                            body,
                        },
                    ));
                }
            }
            self.metrics.messages += pending.len() as u64;
            self.metrics.subrounds_executed += 1;
            // Messages published in sub-round `s` become visible in
            // sub-round `s + 1`, never within `s`.
            for (node, publication) in pending {
                bulletins.entry(node).or_default().push(publication);
            }
        }

        // Movement decisions (all collected before any move applies)...
        let mut choices: Vec<MoveChoice> = Vec::with_capacity(k);
        for i in 0..k {
            if let Some(port) = walking[i] {
                choices.push(MoveChoice::Move(port));
                continue;
            }
            if !active[i] {
                choices.push(MoveChoice::Stay);
                continue;
            }
            let node = self.seats[i].position;
            let obs = Observation {
                round: local_round,
                subround: subrounds.saturating_sub(1),
                subrounds,
                degree: self.graph.degree(node),
                roster: roster.get(&node).unwrap_or(&empty_roster),
                bulletin: bulletins.get(&node).unwrap_or(&empty_bulletin),
                arrival: None,
            };
            choices.push(self.seats[i].controller.decide_move(&obs));
        }

        // ...then the simultaneous move step.
        for i in 0..k {
            let node = self.seats[i].position;
            let degree = self.graph.degree(node);
            match choices[i] {
                MoveChoice::Stay => {
                    self.arrivals[i] = None;
                    if self.config.record_trace && active[i] {
                        self.trace.events.push(Event::Stayed {
                            round: round_now,
                            robot: self.seats[i].id,
                            at: node,
                        });
                    }
                }
                MoveChoice::Move(port) => {
                    if port >= degree {
                        if self.seats[i].flavor == Flavor::Honest {
                            return Err(RunError::InvalidMove {
                                robot: self.seats[i].id,
                                node,
                                port,
                                degree,
                            });
                        }
                        // Byzantine robots cannot teleport; clamp to Stay
                        // (silently — no trace event, matching the model).
                        self.arrivals[i] = None;
                        continue;
                    }
                    let (to, entry_port) = self.graph.neighbor(node, port);
                    self.seats[i].position = to;
                    self.seats[i].moves += 1;
                    self.arrivals[i] = Some(ArrivalInfo {
                        exit_port: port,
                        entry_port,
                    });
                    if self.config.record_trace {
                        self.trace.events.push(Event::Moved {
                            round: round_now,
                            robot: self.seats[i].id,
                            from: node,
                            port,
                            to,
                        });
                    }
                }
            }
        }

        // Log first terminations, at the post-move position; a robot whose
        // prelude runs on into the next round is not asked.
        for i in 0..k {
            if !self.terminated_logged[i] && self.seats[i].done(local_round + 1) {
                self.terminated_logged[i] = true;
                if self.config.record_trace {
                    self.trace.events.push(Event::Terminated {
                        round: round_now,
                        robot: self.seats[i].id,
                        at: self.seats[i].position,
                    });
                }
            }
        }

        self.round += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_graphs::generators::{oriented_ring, ring};
    use bd_graphs::Port;

    struct Walker {
        id: RobotId,
        script: Vec<Port>,
        step: usize,
    }

    impl Controller<String> for Walker {
        fn id(&self) -> RobotId {
            self.id
        }
        fn act(&mut self, _obs: &Observation<'_, String>) -> Option<String> {
            None
        }
        fn decide_move(&mut self, _obs: &Observation<'_, String>) -> MoveChoice {
            if self.step < self.script.len() {
                let p = self.script[self.step];
                self.step += 1;
                MoveChoice::Move(p)
            } else {
                MoveChoice::Stay
            }
        }
        fn intent(&self, _round: u64) -> Intent {
            if self.step >= self.script.len() {
                Intent::Done
            } else {
                Intent::Act
            }
        }
    }

    #[test]
    fn walker_reaches_destination() {
        let g = oriented_ring(6).unwrap();
        let mut e: OracleEngine<String> = OracleEngine::new(g, EngineConfig::default());
        e.add_robot(
            Flavor::Honest,
            0,
            Box::new(Walker {
                id: RobotId(1),
                script: vec![0, 0, 0],
                step: 0,
            }),
        );
        let out = e.run_epoch(u64::MAX).unwrap();
        assert_eq!(out.final_positions, vec![3]);
        assert_eq!(out.metrics.rounds, 3);
        assert_eq!(out.metrics.total_moves, 3);
    }

    #[test]
    fn honest_invalid_move_is_an_error_byzantine_clamped() {
        let g = ring(4).unwrap();
        let mut e: OracleEngine<String> = OracleEngine::new(g.clone(), EngineConfig::default());
        e.add_robot(
            Flavor::Honest,
            0,
            Box::new(Walker {
                id: RobotId(1),
                script: vec![7],
                step: 0,
            }),
        );
        assert!(matches!(
            e.run_epoch(u64::MAX),
            Err(RunError::InvalidMove { .. })
        ));

        let mut e: OracleEngine<String> = OracleEngine::new(g, EngineConfig::default());
        e.add_robot(
            Flavor::Honest,
            0,
            Box::new(Walker {
                id: RobotId(1),
                script: vec![0],
                step: 0,
            }),
        );
        e.add_robot(
            Flavor::WeakByzantine,
            1,
            Box::new(Walker {
                id: RobotId(2),
                script: vec![9, 9],
                step: 0,
            }),
        );
        let out = e.run_epoch(u64::MAX).unwrap();
        assert_eq!(out.final_positions[1], 1, "byzantine teleport clamped");
    }

    #[test]
    fn round_limit_enforced() {
        struct Forever(RobotId);
        impl Controller<String> for Forever {
            fn id(&self) -> RobotId {
                self.0
            }
            fn act(&mut self, _o: &Observation<'_, String>) -> Option<String> {
                None
            }
            fn decide_move(&mut self, _o: &Observation<'_, String>) -> MoveChoice {
                MoveChoice::Stay
            }
        }
        let g = ring(4).unwrap();
        let mut e: OracleEngine<String> = OracleEngine::new(g, EngineConfig::with_max_rounds(10));
        e.add_robot(Flavor::Honest, 0, Box::new(Forever(RobotId(1))));
        assert!(matches!(
            e.run_epoch(u64::MAX),
            Err(RunError::RoundLimit { limit: 10 })
        ));
    }

    #[test]
    fn empty_scenario_rejected() {
        let g = ring(4).unwrap();
        let mut e: OracleEngine<String> = OracleEngine::new(g, EngineConfig::default());
        assert!(matches!(
            e.run_epoch(u64::MAX),
            Err(RunError::BadScenario(_))
        ));
    }
}
