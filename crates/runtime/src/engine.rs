//! The synchronous round engine.
//!
//! # Hot-path architecture
//!
//! `Engine::step` executes millions of times per Table 1 cell, so its
//! per-round state lives in engine-owned **scratch arenas** (`Scratch`)
//! instead of per-round maps:
//!
//! * robots-per-node and per-node rosters are flat `Vec`s indexed by the
//!   dense [`NodeId`], maintained *incrementally* — a round that moves no
//!   robot re-sorts no roster. Movement marks the source and destination
//!   nodes dirty; only dirty rosters (plus nodes hosting ID-faking strong
//!   Byzantine robots, whose claimed IDs may change every round) are
//!   rebuilt and re-sorted;
//! * publication bulletins are per-node reusable buffers cleared through a
//!   touched-node list, and the per-sub-round pending queue is drained, not
//!   reallocated.
//!
//! In steady state (no movement, no publications) a round performs **zero
//! heap allocation**; protocol-level message bodies are the only remaining
//! allocations and belong to the controllers.
//!
//! Rounds that need no stepping bypass `Engine::step`: the engine keeps
//! each robot's [`Intent`] in the scratch and, once per loop iteration,
//! asks again only the robots whose answer no longer holds (an `Act`, a
//! horizon that has arrived, or a prelude that has just ended; `Done`
//! holds for good). From the answers it skips or applies stretches in
//! bulk (`Engine::apply_segment`) as the [`Intent`] contract describes.
//! A stepped round lists the robots it calls once, those that act or
//! publish, and visits only them and the prelude walkers: an idle or
//! done robot is silent, so it gets no observation and only its arrival
//! is cleared, while a beacon is called like an acting robot and makes
//! the engine step rather than run a segment beside it. Every move,
//! stepped or in bulk, goes through one routine, [`SoloWalk::take`]: a
//! stepped robot's or a lone prelude walker's one move
//! (`Engine::apply_choice`), a solo robot's rounds inside
//! [`Controller::solo`], and a cohort's bulk walk. `Engine::land` writes
//! where each walk ended, and `Engine::reindex` keeps occupancy and the
//! dirty list current after every stepped move and at every segment's
//! end, so switching between segments and stepped rounds rebuilds
//! nothing.
//!
//! # Dynamic worlds: epochs
//!
//! A long-lived run is a sequence of **epochs**. Between two of them the
//! engine changes in exactly two ways: [`Engine::begin_epoch`] reseats the
//! whole cast, and [`Engine::set_graph`] swaps the graph for an edge
//! failure or heal. Every epoch ([`Engine::run_epoch`]) rebuilds the
//! scratch arenas from the world before its first round, so neither
//! change needs arena bookkeeping. A static run is one epoch stopped at
//! `u64::MAX`. The round clock, the cumulative trace, and the telemetry
//! recorder persist across epochs; `bd-dynamic` schedules the changes.

use crate::config::EngineConfig;
use crate::controller::{Controller, Intent, MoveChoice, Prelude, SoloWalk, WalkEnd};
use crate::error::RunError;
use crate::ids::{Flavor, RobotId};
use crate::metrics::RunMetrics;
use crate::observation::{ArrivalInfo, Observation, Publication};
use crate::trace::{Event, Trace};
use crate::world::World;
use bd_graphs::{NodeId, Port, PortGraph};
use bd_telemetry::EngineTelemetry;
use std::ops::Range;
use std::sync::Arc;

/// Scratch arenas owned by the engine and reused across rounds. All
/// node-indexed vectors have one slot per graph node; robot-indexed
/// vectors one slot per robot. Rebuilt from the world when an epoch
/// starts, then kept current by every move.
struct Scratch<M> {
    /// Robot indices at each node (order arbitrary; rosters sort).
    at_node: Vec<Vec<usize>>,
    /// Sorted claimed-ID roster per node; rebuilt only for dirty nodes.
    roster: Vec<Vec<RobotId>>,
    /// Per-node roster-stale flag, deduplicating `dirty_nodes`.
    dirty: Vec<bool>,
    /// Queue of nodes whose roster must be rebuilt next stepped round.
    dirty_nodes: Vec<NodeId>,
    /// Robots whose flavor may fake IDs: their nodes re-sort every round.
    faking: Vec<usize>,
    /// Reusable per-node publication buffers.
    bulletins: Vec<Vec<Publication<M>>>,
    /// Nodes with a non-empty bulletin this round (for O(touched) clearing).
    touched: Vec<NodeId>,
    /// Per-sub-round publication queue (flushed after each sub-round so
    /// messages become visible in the *next* sub-round only).
    pending: Vec<(NodeId, Publication<M>)>,
    /// Each robot's last [`Controller::intent`] answer, which holds until
    /// its horizon (`Done` for good); `Act` for a robot inside its
    /// prelude, which is not asked.
    intents: Vec<Intent>,
    /// Each robot's real asks, which the debug-build promise check does
    /// not add to.
    #[cfg(test)]
    asked: Vec<u64>,
    /// The robots a stepped round calls: past their prelude, not done and
    /// not idle, in index order.
    called: Vec<usize>,
    /// The robots a segment or a stepped round moves, with the nodes they
    /// started it on: in a segment the prelude and solo ones, in a stepped
    /// round the called ones and the prelude walkers, in index order.
    movers: Vec<(usize, NodeId)>,
    /// Whether every honest robot is done, read off `intents`.
    all_done: bool,
    /// What the engine may do from the current round, read off `intents`
    /// and the preludes.
    horizon: Horizon,
}

impl<M: Clone> Scratch<M> {
    /// Empty arenas for `n` nodes and `k` robots.
    fn new(n: usize, k: usize) -> Self {
        Scratch {
            at_node: vec![Vec::new(); n],
            roster: vec![Vec::new(); n],
            dirty: vec![false; n],
            dirty_nodes: Vec::new(),
            faking: Vec::new(),
            bulletins: vec![Vec::new(); n],
            touched: Vec::new(),
            pending: Vec::new(),
            intents: vec![Intent::Act; k],
            #[cfg(test)]
            asked: vec![0; k],
            called: Vec::with_capacity(k),
            movers: Vec::with_capacity(k),
            all_done: false,
            horizon: Horizon::Step,
        }
    }

    /// Mark `node`'s roster stale (idempotent within a round).
    fn mark_dirty(&mut self, node: NodeId) {
        if !self.dirty[node] {
            self.dirty[node] = true;
            self.dirty_nodes.push(node);
        }
    }
}

/// What the engine may do from the current round without stepping it
/// (see [`Engine::drive`]). Rounds are absolute.
#[derive(Clone, Copy)]
enum Horizon {
    /// Some robot acts this round: step it.
    Step,
    /// Every robot is done, idle or a beacon until at least this absolute
    /// round.
    Idle(u64),
    /// Every robot is done, idle (until at least `idle`), inside its
    /// prelude or solo, and at least one is not idle; none is a beacon.
    /// `busy` is the absolute round where the shortest remaining prelude or
    /// the earliest solo horizon ends.
    Segment { idle: u64, busy: u64 },
}

/// The result of driving one epoch ([`Engine::run_epoch`]), read off a
/// still-running engine with metrics snapshot-and-cleared so the next
/// epoch starts counting from zero. A static run is one epoch stopped at
/// `u64::MAX`.
#[derive(Debug)]
pub struct EpochOutcome {
    /// Measurements for this epoch alone (`rounds` is epoch-local).
    pub metrics: RunMetrics,
    /// Robot positions in current seating order when the epoch ended.
    pub final_positions: Vec<NodeId>,
    /// Whether every honest robot terminated before the scheduled stop.
    pub terminated: bool,
}

/// Drives one simulation: owns the [`World`], the controllers, and the
/// bookkeeping. Generic over the protocol message type `M`.
pub struct Engine<M> {
    world: World,
    controllers: Vec<Box<dyn Controller<M>>>,
    /// Each robot's prelude, read once when it was seated.
    preludes: Vec<Prelude>,
    /// The longest prelude in the current cast: from this epoch-local
    /// round on no robot is inside its prelude.
    longest_prelude: u64,
    config: EngineConfig,
    round: u64,
    /// Round at which the current epoch began (0 for single-epoch runs);
    /// epoch-local metrics measure from here.
    epoch_base: u64,
    arrivals: Vec<Option<ArrivalInfo>>,
    terminated_logged: Vec<bool>,
    metrics: RunMetrics,
    trace: Trace,
    scratch: Scratch<M>,
    /// Observability recorder; `None` unless `bd_telemetry::counters_enabled()`
    /// held when the engine was constructed (or phase marks were set). The
    /// disabled hot path is a branch on this `Option` — nothing else.
    telemetry: Option<Box<EngineTelemetry>>,
}

impl<M: Clone> Engine<M> {
    /// Create an engine over `graph` with no robots yet. Accepts either an
    /// owned graph or a shared `Arc` handle; sweeps that reuse one graph
    /// across many runs should pass the `Arc` so spawning stays O(1) in
    /// the graph size.
    pub fn new(graph: impl Into<Arc<PortGraph>>, config: EngineConfig) -> Self {
        Engine {
            world: World::new(graph, Vec::new()),
            controllers: Vec::new(),
            preludes: Vec::new(),
            longest_prelude: 0,
            config,
            round: 0,
            epoch_base: 0,
            arrivals: Vec::new(),
            terminated_logged: Vec::new(),
            metrics: RunMetrics::default(),
            trace: Trace::default(),
            scratch: Scratch::new(0, 0),
            telemetry: bd_telemetry::counters_enabled().then(|| EngineTelemetry::new(Vec::new())),
        }
    }

    /// Declare the run's controller phase schedule — `(name, exclusive end
    /// round)` pairs in ascending order — so the telemetry recorder can
    /// attribute counters, wall-clock, and allocations per phase. A no-op
    /// unless counter recording is enabled (`bd_telemetry::enable_counters`);
    /// sessions call this right after building the engine.
    pub fn set_phase_marks(&mut self, marks: Vec<(String, u64)>) {
        if bd_telemetry::counters_enabled() {
            self.telemetry = Some(EngineTelemetry::new(marks));
        }
    }

    /// Register a robot. Its true ID is taken from the controller.
    pub fn add_robot(&mut self, flavor: Flavor, start: NodeId, controller: Box<dyn Controller<M>>) {
        self.world.add_robot(controller.id(), flavor, start);
        let prelude = controller.prelude();
        self.longest_prelude = self.longest_prelude.max(prelude.len() as u64);
        self.preludes.push(prelude);
        self.controllers.push(controller);
        self.arrivals.push(None);
        self.terminated_logged.push(false);
    }

    /// Reseat the whole cast for a new epoch: every current robot leaves,
    /// the given seats join in order, and the metrics are
    /// snapshot-and-cleared so per-epoch measurements never accumulate
    /// across topology changes. A seat on a node outside the graph is a
    /// scenario error. The round clock, the graph, the cumulative trace,
    /// and the telemetry recorder persist.
    pub fn begin_epoch<I>(&mut self, seats: I) -> Result<(), RunError>
    where
        I: IntoIterator<Item = (Flavor, NodeId, Box<dyn Controller<M>>)>,
    {
        self.world.clear_robots();
        self.controllers.clear();
        self.preludes.clear();
        self.longest_prelude = 0;
        self.arrivals.clear();
        self.terminated_logged.clear();
        for (flavor, node, controller) in seats {
            let n = self.world.graph().n();
            if node >= n {
                return Err(RunError::BadScenario(format!(
                    "seat on nonexistent node {node} (graph has {n} nodes)"
                )));
            }
            self.add_robot(flavor, node, controller);
        }
        self.metrics = RunMetrics::default();
        self.epoch_base = self.round;
        Ok(())
    }

    /// Swap the graph between epochs (an edge failed or healed). Refuses a
    /// graph that would strand a seated robot outside it; arrival port
    /// pairs are cleared because they referred to the old labeling.
    pub fn set_graph(&mut self, graph: Arc<PortGraph>) -> Result<(), RunError> {
        if let Some(r) = self.world.robots().iter().find(|r| r.position >= graph.n()) {
            return Err(RunError::BadScenario(format!(
                "robot {} on node {} would be stranded outside the {}-node \
                 replacement graph",
                r.id,
                r.position,
                graph.n()
            )));
        }
        self.world.set_graph(graph);
        self.arrivals.fill(None);
        Ok(())
    }

    /// Drive rounds until every honest robot terminates or the clock
    /// reaches `stop_at`, whichever is first. Returns this epoch's
    /// measurements (metrics are epoch-local and cleared for the next
    /// epoch); `terminated: false` means the stop round cut the epoch
    /// short. Per-epoch move totals assume [`Engine::begin_epoch`] seated
    /// the cast (odometers start at zero on join).
    pub fn run_epoch(&mut self, stop_at: u64) -> Result<EpochOutcome, RunError> {
        if self.world.num_robots() == 0 {
            return Err(RunError::BadScenario("no robots registered".into()));
        }
        let terminated = self.drive(stop_at)?;
        let per_robot: Vec<u64> = self.world.robots().iter().map(|r| r.moves).collect();
        self.metrics.rounds = self.round - self.epoch_base;
        self.metrics.record_moves(&per_robot);
        let metrics = std::mem::take(&mut self.metrics);
        Ok(EpochOutcome {
            metrics,
            final_positions: self.world.positions(),
            terminated,
        })
    }

    /// Jump the round clock forward to `round` without stepping: between
    /// an epoch's honest termination and the next scheduled event the
    /// world is quiescent by definition (the same argument that licenses
    /// idle fast-forwarding), so the jump is a pure relabeling. Errors on
    /// an attempt to rewind.
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

    /// Consume the engine at the end of a run: publishes the telemetry
    /// report (when recording) and returns the cumulative trace spanning
    /// every epoch.
    pub fn into_trace(mut self) -> Trace {
        if let Some(t) = self.telemetry.take() {
            bd_telemetry::publish_engine_report(t.finish(self.round));
        }
        self.trace
    }

    /// Build the scratch arenas from the current world and ask every robot
    /// its intent. O(n + k); runs once per epoch, never per round.
    fn rebuild_scratch(&mut self) {
        let mut s = Scratch::new(self.world.graph().n(), self.world.num_robots());
        for (i, robot) in self.world.robots().iter().enumerate() {
            s.at_node[robot.position].push(i);
            // Every occupied node needs an initial roster.
            s.mark_dirty(robot.position);
            if robot.flavor.can_fake_id() {
                s.faking.push(i);
            }
        }
        self.scratch = s;
        self.ask(None);
    }

    /// Read-only world access (for verifiers and tests).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Rounds elapsed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Ask every robot past its prelude whose last answer no longer holds
    /// (see [`holds`]) its [`Intent`] at the current round (the one place
    /// the engine asks), and read off the answers whether every honest
    /// robot is done and what the engine may do next. `ended` is the last
    /// round run or skipped, if any: it is recorded as the termination
    /// round of every robot done for the first time. Debug builds re-ask
    /// every held promise too and assert that it still holds at least as
    /// long ([`outlasts`]).
    fn ask(&mut self, ended: Option<u64>) {
        // Preludes and intents are epoch-local (controllers never see the
        // absolute clock); horizons are shifted by the epoch base.
        let base = self.epoch_base;
        let local = self.round - base;
        let (mut idle, mut busy, mut step, mut beacon, mut all_done) =
            (u64::MAX, None, false, false, true);
        let mut asks = 0;
        for i in 0..self.controllers.len() {
            let walks = self.walks(i, local);
            let held = self.scratch.intents[i];
            let intent = if walks {
                Intent::Act
            } else if holds(held, local) {
                debug_assert!(
                    outlasts(self.controllers[i].intent(local), held),
                    "robot {} answered {held:?} but at round {local} answers {:?}",
                    self.world.robot(i).id,
                    self.controllers[i].intent(local),
                );
                held
            } else {
                asks += 1;
                #[cfg(test)]
                {
                    self.scratch.asked[i] += 1;
                }
                self.controllers[i].intent(local)
            };
            self.scratch.intents[i] = intent;
            all_done &= intent == Intent::Done || self.world.robot(i).flavor != Flavor::Honest;
            // The round a walking or solo robot stops being either. A
            // segment never crosses a head's end, so inside one every
            // prelude robot walks its head or its tail.
            let until = match intent {
                _ if walks => {
                    let p = &self.preludes[i];
                    let head = p.head_len() as u64;
                    if local < head {
                        head
                    } else {
                        p.len() as u64
                    }
                }
                Intent::Solo(r) if r > local => r,
                Intent::Idle(r) => {
                    idle = idle.min(r);
                    continue;
                }
                // A beacon is skipped like an idle robot but never joins a
                // segment, where its messages would go uncounted.
                Intent::Beacon(r) if r > local => {
                    idle = idle.min(r);
                    beacon = true;
                    continue;
                }
                Intent::Done => {
                    if let Some(round) = ended {
                        self.log_termination(i, round);
                    }
                    continue;
                }
                _ => {
                    step = true;
                    continue;
                }
            };
            busy = Some(busy.map_or(until, |b: u64| b.min(until)));
        }
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.counters.intent_asks += asks;
        }
        let idle = idle.saturating_add(base);
        self.scratch.all_done = all_done;
        self.scratch.horizon = match busy {
            _ if step || (beacon && busy.is_some()) => Horizon::Step,
            None => Horizon::Idle(idle),
            Some(busy) => Horizon::Segment {
                idle,
                busy: busy.saturating_add(base),
            },
        };
    }

    /// Whether robot `i` is inside its prelude in epoch-local `round`; one
    /// compare once the longest prelude has ended.
    fn walks(&self, i: usize, round: u64) -> bool {
        round < self.longest_prelude && round < self.preludes[i].len() as u64
    }

    /// The sub-round count of epoch-local `round`: the most any robot past
    /// its prelude and not done requests, idle or not, at least one.
    fn subrounds_at(&self, round: u64) -> usize {
        (0..self.controllers.len())
            .filter(|&i| !self.walks(i, round) && self.scratch.intents[i] != Intent::Done)
            .map(|i| self.controllers[i].subrounds_wanted(round))
            .max()
            .unwrap_or(1)
            .max(1)
    }

    /// The round loop behind [`Engine::run_epoch`]. Returns whether every
    /// honest robot terminated; `false` means the clock reached `stop_at`
    /// first.
    fn drive(&mut self, stop_at: u64) -> Result<bool, RunError> {
        // `ff_overshoot` is deliberately-injected breakage (0 in every real
        // config): it pushes a jump or segment past the round the earliest
        // idle robot acts in, which the oracle-differential harness must
        // catch.
        let (limit, overshoot) = (self.config.max_rounds, self.config.ff_overshoot);
        self.rebuild_scratch();
        loop {
            if self.scratch.all_done {
                return Ok(true);
            }
            if self.round >= stop_at {
                return Ok(false);
            }
            if self.round >= limit {
                return Err(RunError::RoundLimit { limit });
            }
            match self.scratch.horizon {
                Horizon::Step => {}
                Horizon::Idle(target) => {
                    // Never jump past a scheduled stop: the world mutates
                    // there, which idle promises ignore.
                    let target = target.saturating_add(overshoot).min(stop_at);
                    if target > self.round + 1 {
                        if target >= limit {
                            // No robot acts again before the cap: error now,
                            // with the clock at the true executed round
                            // rather than teleported to the cap.
                            return Err(RunError::RoundLimit { limit });
                        }
                        if let Some(t) = self.telemetry.as_deref_mut() {
                            t.counters.ff_jumps += 1;
                            t.counters.rounds_skipped += target - self.round;
                        }
                        self.metrics.rounds_skipped += target - self.round;
                        // Every robot stays through a skip; a stay clears its arrival.
                        self.arrivals.fill(None);
                        self.round = target;
                        self.ask(Some(target - 1));
                        continue;
                    }
                }
                // A segment stops where a stepped run could first differ
                // (see `Intent`); at the cap the loop head then raises
                // `RoundLimit` exactly as stepping would.
                Horizon::Segment { idle, busy } => {
                    let mut end = busy
                        .min(idle.saturating_add(overshoot))
                        .min(stop_at)
                        .min(limit);
                    if let Some(t) = self.telemetry.as_deref_mut() {
                        if self.round >= t.next_mark {
                            t.on_round(self.round);
                        }
                        end = end.min(t.next_mark);
                    }
                    if end > self.round {
                        self.apply_segment(end)?;
                        continue;
                    }
                }
            }
            self.step()?;
        }
    }

    /// Put robot `i` where a walk ended (its node, edges crossed and last
    /// arrival): the one place a robot's position, odometer and arrival
    /// change. The occupancy index follows in [`Engine::reindex`].
    fn land(&mut self, i: usize, end: &WalkEnd) {
        self.world.relocate(i, end.node, end.moves);
        self.arrivals[i] = end.arrival;
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.counters.moves += end.moves;
        }
    }

    /// Move robot `i`, which stood on `from`, to its current node in the
    /// occupancy index: only those two rosters go stale. A stepped round
    /// reindexes every robot it moves; a segment, which reads no roster,
    /// reindexes each robot it moved once, at its end.
    fn reindex(&mut self, i: usize, from: NodeId) {
        let to = self.world.robot(i).position;
        if from == to {
            return;
        }
        let s = &mut self.scratch;
        let at = s.at_node[from].iter().position(|&r| r == i);
        s.at_node[from].swap_remove(at.expect("robot indexed at its node"));
        s.at_node[to].push(i);
        s.mark_dirty(from);
        s.mark_dirty(to);
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.counters.dirty_marks += 2;
        }
    }

    /// Apply robot `i`'s move of absolute `round`, stepped or in a
    /// segment: one [`SoloWalk::take`], landed by [`Engine::land_walk`].
    fn apply_choice(&mut self, i: usize, choice: MoveChoice, round: u64) -> Result<(), RunError> {
        let from = self.world.robot(i).position;
        let mut walk = SoloWalk::new(self.world.graph(), from, None);
        walk.take(choice);
        self.land_walk(i, from, walk.end(), round)
    }

    /// Land robot `i`, which stood on `from`, where its walk from absolute
    /// `round` on ended. A move through an invalid port was taken as a
    /// stay, which is all a Byzantine robot gets (it cannot teleport); for
    /// an honest robot it is an error instead, and the robot stays where
    /// it was with the clock left at `round`. A traced walk covers one
    /// round, and its move is traced.
    fn land_walk(
        &mut self,
        i: usize,
        from: NodeId,
        end: WalkEnd,
        round: u64,
    ) -> Result<(), RunError> {
        let slot = self.world.robot(i);
        if let (Flavor::Honest, Some((node, port))) = (slot.flavor, end.invalid) {
            self.round = round;
            return Err(RunError::InvalidMove {
                robot: slot.id,
                node,
                port,
                degree: self.world.graph().degree(node),
            });
        }
        if self.config.record_trace && end.moves > 0 {
            let port = end.arrival.expect("a move leaves an arrival").exit_port;
            let moved = Event::Moved {
                round,
                robot: slot.id,
                from,
                port,
                to: end.node,
            };
            self.trace.events.push(moved);
        }
        self.land(i, &end);
        Ok(())
    }

    /// Apply the segment `[self.round, end)` in bulk: every robot is done,
    /// idle, inside its prelude or solo (see [`Horizon::Segment`]). Prelude
    /// robots take their ports; solo robots run through
    /// [`Controller::solo`]; done and idle robots stay put uncalled.
    /// Positions, odometers, arrivals, occupancy, the trace, termination
    /// records and the run metrics end up exactly as stepping the segment
    /// would leave them; no roster or bulletin is built.
    fn apply_segment(&mut self, end: u64) -> Result<(), RunError> {
        let start = self.round;
        let rounds = end - start;
        let local = start - self.epoch_base;
        // The segment ends at the shortest remaining prelude, so the same
        // robots request sub-rounds in every one of its rounds.
        let subrounds = self.subrounds_at(local);
        #[cfg(debug_assertions)]
        for r in local..local + rounds {
            debug_assert_eq!(
                self.subrounds_at(r),
                subrounds,
                "the sub-round count changes inside a segment at round {r}"
            );
        }
        // The robots that move, prelude and solo ones, with their nodes.
        self.scratch.movers.clear();
        let (mut walkers, mut solo, mut honest_solo) = (0u64, false, false);
        for i in 0..self.controllers.len() {
            // A robot that stays keeps no arrival; prelude robots
            // overwrite theirs every round, and solo robots see the
            // arrival their last stepped move left.
            let slot = self.world.robot(i);
            if self.walks(i, local) {
                walkers += 1;
            } else if matches!(self.scratch.intents[i], Intent::Solo(_)) {
                solo = true;
                honest_solo |= slot.flavor == Flavor::Honest;
            } else {
                self.arrivals[i] = None;
                continue;
            }
            self.scratch.movers.push((i, slot.position));
        }
        // Without an honest solo robot or a trace to keep in order, the
        // prelude robots walk as cohorts and each solo robot runs the
        // whole stretch in one call. Otherwise (and when an honest
        // robot's port is invalid) the stretch runs round-major, robot
        // order within a round, so the trace records events and the error
        // names the robot and round exactly as stepping would.
        let bulk = !honest_solo && !self.config.record_trace;
        let cohorts = bulk
            .then(|| self.walk_cohorts(local as usize, rounds))
            .flatten();
        let (mut messages, mut calls) = (0u64, 0u64);
        let len = if cohorts.is_some() { rounds } else { 1 };
        for t in (0..rounds).step_by(len as usize) {
            for m in 0..self.scratch.movers.len() {
                let i = self.scratch.movers[m].0;
                match self.preludes[i].port(local + t) {
                    Some(_) if cohorts.is_some() => {}
                    Some(port) => self.apply_choice(i, MoveChoice::Move(port), start + t)?,
                    None => {
                        messages += self.run_solo(i, local + t..local + t + len, subrounds)?;
                        calls += 1;
                    }
                }
            }
        }
        for m in 0..self.scratch.movers.len() {
            let (i, from) = self.scratch.movers[m];
            self.reindex(i, from);
        }
        self.metrics.messages += messages;
        self.metrics.subrounds_executed += rounds * subrounds as u64;
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.counters.ff_jumps += 1;
            if solo {
                t.counters.rounds_solo += rounds;
            } else {
                t.counters.rounds_scripted += rounds;
            }
            t.counters.solo_calls += calls;
            t.counters.subrounds += rounds * subrounds as u64;
            t.counters.prelude_walked += cohorts.unwrap_or(walkers * rounds);
        }
        self.round = end;
        self.ask(Some(end - 1));
        Ok(())
    }

    /// Run solo robot `i` through epoch-local `rounds` of a segment in one
    /// [`Controller::solo`] call and land it where its walk ends (see
    /// [`Engine::land_walk`]); returns the messages it published. An
    /// honest or traced robot must be handed one round per call, so that
    /// an error or a traced move names its round.
    fn run_solo(
        &mut self,
        i: usize,
        rounds: Range<u64>,
        subrounds: usize,
    ) -> Result<u64, RunError> {
        let round = rounds.start + self.epoch_base;
        let slot = self.world.robot(i);
        debug_assert!(
            rounds.end - rounds.start == 1
                || !(self.config.record_trace || slot.flavor == Flavor::Honest),
            "a traced or honest solo robot runs one round per call"
        );
        let from = slot.position;
        let mut walk = SoloWalk::new(self.world.graph(), from, self.arrivals[i]);
        let messages = self.controllers[i].solo(rounds, subrounds, &mut walk);
        self.land_walk(i, from, walk.end(), round)?;
        Ok(messages)
    }

    /// Walk the segment's prelude robots through epoch-local rounds
    /// `local..local + rounds` in bulk: robots past their head that hold
    /// one tail `Arc` and stand on one node form a cohort, which is walked
    /// once and whose members then all land on its end node with its
    /// moves and last arrival. A robot still in its head walks alone (the
    /// segment ends where its head does). A Byzantine robot's invalid port
    /// is clamped to a stay, as stepping would; an honest robot's makes
    /// this return `None` with nothing changed, so the caller steps the
    /// stretch per robot and raises the error at the exact robot and
    /// round. Otherwise returns the prelude ports looked up (one per
    /// cohort per round).
    fn walk_cohorts(&mut self, local: usize, rounds: u64) -> Option<u64> {
        /// One cohort: its ports, its node, whether it holds an honest robot,
        /// and the tail it shares (`None` for a robot in its head).
        struct Cohort<'a> {
            ports: &'a [Port],
            node: NodeId,
            honest: bool,
            tail: Option<*const Port>,
        }
        let mut cohorts: Vec<Cohort<'_>> = Vec::new();
        let mut members: Vec<(usize, usize)> = Vec::new();
        for (i, prelude) in self.preludes.iter().enumerate() {
            if !self.walks(i, local as u64) {
                continue;
            }
            let slot = self.world.robot(i);
            let honest = slot.flavor == Flavor::Honest;
            // The tail is indexed by the round, so two robots in one tail
            // are at one offset in it.
            let tail = (local >= prelude.head_len()).then(|| Arc::as_ptr(prelude.tail()).cast());
            let joined = tail.and_then(|tail| {
                cohorts
                    .iter()
                    .position(|c| c.tail == Some(tail) && c.node == slot.position)
            });
            let c = match joined {
                Some(c) => {
                    cohorts[c].honest |= honest;
                    c
                }
                None => {
                    cohorts.push(Cohort {
                        ports: prelude.stretch(local, rounds as usize),
                        node: slot.position,
                        honest,
                        tail,
                    });
                    cohorts.len() - 1
                }
            };
            members.push((i, c));
        }
        let mut ends = Vec::with_capacity(cohorts.len());
        for c in &cohorts {
            let mut walk = SoloWalk::new(self.world.graph(), c.node, None);
            for &port in c.ports {
                walk.take(MoveChoice::Move(port));
            }
            let end = walk.end();
            if c.honest && end.invalid.is_some() {
                return None;
            }
            ends.push(end);
        }
        for (i, c) in members {
            self.land(i, &ends[c]);
        }
        Some(ends.len() as u64 * rounds)
    }

    /// Record absolute `round` (the last one run or skipped) as the
    /// termination round of robot `i`, done, unless it is recorded
    /// already.
    fn log_termination(&mut self, i: usize, round: u64) {
        if self.terminated_logged[i] {
            return;
        }
        self.terminated_logged[i] = true;
        if self.config.record_trace {
            let slot = self.world.robot(i);
            self.trace.events.push(Event::Terminated {
                round,
                robot: slot.id,
                at: slot.position,
            });
        }
    }

    /// Execute a single round: sub-round communication, then simultaneous
    /// movement. Runs entirely on the scratch arenas — the steady state
    /// allocates nothing.
    fn step(&mut self) -> Result<(), RunError> {
        let round = self.round;
        // Controllers live in *epoch-local* time: a cast seated by
        // `begin_epoch` at absolute round `r` sees rounds `0, 1, …` like a
        // fresh run. The trace and telemetry keep the absolute clock.
        let local = round - self.epoch_base;
        // Called this round: past its prelude, not done and not idle. Done
        // and idle robots stay put silently and prelude robots walk their
        // ports uncalled, but all are *physically* present (they appear in
        // rosters). The sub-round count does not depend on who is called.
        // A prelude walker's intent is `Act`, so it moves but is not called.
        self.scratch.called.clear();
        self.scratch.movers.clear();
        for i in 0..self.controllers.len() {
            let silent = match self.scratch.intents[i] {
                Intent::Done => true,
                Intent::Idle(r) => r > local,
                _ => false,
            };
            if silent {
                continue;
            }
            self.scratch.movers.push((i, self.world.robot(i).position));
            if !self.walks(i, local) {
                self.scratch.called.push(i);
            }
        }
        let subrounds = self.subrounds_at(local);
        // Observability: `None` when disabled — every instrumentation site
        // below is a branch on this `Option` and nothing more. Close any
        // phase boundary reached (fast-forward jumps close several at once).
        let mut telem = self.telemetry.as_deref_mut();
        if let Some(t) = telem.as_mut() {
            if round >= t.next_mark {
                t.on_round(round);
            }
        }
        let walking = local < self.longest_prelude;
        let (world, controllers, s) = (&self.world, &mut self.controllers, &mut self.scratch);

        // Rosters: nodes whose occupancy changed since the last stepped
        // round are already in the dirty queue; nodes hosting ID-faking
        // robots re-sort every round because their claimed IDs may have
        // changed.
        for f in 0..s.faking.len() {
            s.mark_dirty(world.robot(s.faking[f]).position);
        }
        for &node in &s.dirty_nodes {
            let r = &mut s.roster[node];
            r.clear();
            r.extend(
                s.at_node[node]
                    .iter()
                    .map(|&i| shown_id(world, controllers, i)),
            );
            r.sort_unstable();
            s.dirty[node] = false;
            if let Some(t) = telem.as_mut() {
                t.counters.roster_resorts += 1;
                t.counters.roster_entries += r.len() as u64;
                t.counters.roster_hwm = t.counters.roster_hwm.max(r.len() as u64);
            }
        }
        s.dirty_nodes.clear();

        // Sub-round communication (walking phases request 1 sub-round, so
        // this stays cheap).
        for sub in 0..subrounds {
            for &i in &s.called {
                let node = world.robot(i).position;
                let obs = Observation {
                    round: local,
                    subround: sub,
                    subrounds,
                    degree: world.graph().degree(node),
                    roster: &s.roster[node],
                    bulletin: &s.bulletins[node],
                    arrival: if sub == 0 { self.arrivals[i] } else { None },
                };
                if let Some(body) = controllers[i].act(&obs) {
                    let sender = shown_id(world, controllers, i);
                    s.pending.push((
                        node,
                        Publication {
                            sender,
                            subround: sub,
                            body,
                        },
                    ));
                }
            }
            let held = s.pending.len() as u64;
            self.metrics.messages += held;
            self.metrics.subrounds_executed += 1;
            if let Some(t) = telem.as_mut() {
                t.counters.subrounds += 1;
                t.counters.bulletin_writes += held;
                t.counters.bulletin_reads += s.called.len() as u64;
                t.counters.bulletin_hwm = t.counters.bulletin_hwm.max(held);
            }
            // Flush after the loop: messages published in sub-round `s`
            // become visible in sub-round `s + 1`, never within `s`.
            for (node, publication) in s.pending.drain(..) {
                if s.bulletins[node].is_empty() {
                    s.touched.push(node);
                }
                s.bulletins[node].push(publication);
            }
        }

        // Movement: every robot decides on the rosters and bulletins the
        // round started with (a move changes neither), so deciding and
        // moving robot by robot is simultaneous movement. A silent robot
        // stays, which only clears its arrival; every mover's move writes
        // its own.
        self.arrivals.fill(None);
        for m in 0..self.scratch.movers.len() {
            let (i, from) = self.scratch.movers[m];
            let prelude = if walking {
                self.preludes[i].port(local)
            } else {
                None
            };
            let choice = match prelude {
                Some(port) => MoveChoice::Move(port),
                None => {
                    let slot = self.world.robot(i);
                    let s = &self.scratch;
                    let obs = Observation {
                        round: local,
                        subround: subrounds.saturating_sub(1),
                        subrounds,
                        degree: self.world.graph().degree(slot.position),
                        roster: &s.roster[slot.position],
                        bulletin: &s.bulletins[slot.position],
                        arrival: None,
                    };
                    let choice = self.controllers[i].decide_move(&obs);
                    if choice == MoveChoice::Stay && self.config.record_trace {
                        let (robot, at) = (slot.id, slot.position);
                        self.trace.events.push(Event::Stayed { round, robot, at });
                    }
                    choice
                }
            };
            self.apply_choice(i, choice, round)?;
            self.reindex(i, from);
        }
        // Reset the bulletins through the touched list (O(publishing
        // nodes), not O(n)) so the next round starts clean.
        let s = &mut self.scratch;
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.counters.bulletin_clears += s.touched.len() as u64;
            t.counters.rounds_stepped += 1;
            t.counters.dirty_hwm = t.counters.dirty_hwm.max(s.dirty_nodes.len() as u64);
        }
        for node in s.touched.drain(..) {
            s.bulletins[node].clear();
        }
        self.round += 1;
        self.ask(Some(round));
        Ok(())
    }
}

/// Whether `intent`, answered earlier, still holds at epoch-local
/// `round`: `Done` for good, an idle, beacon or solo answer until its
/// horizon, `Act` never.
fn holds(intent: Intent, round: u64) -> bool {
    match intent {
        Intent::Done => true,
        Intent::Idle(r) | Intent::Beacon(r) | Intent::Solo(r) => r > round,
        Intent::Act => false,
    }
}

/// Whether a `fresh` answer promises at least what the `held` one did:
/// `Done` stays `Done`, and any other promise keeps its kind with a
/// horizon no earlier.
fn outlasts(fresh: Intent, held: Intent) -> bool {
    match (held, fresh) {
        (Intent::Done, Intent::Done) => true,
        (Intent::Idle(a), Intent::Idle(b))
        | (Intent::Beacon(a), Intent::Beacon(b))
        | (Intent::Solo(a), Intent::Solo(b)) => b >= a,
        _ => false,
    }
}

/// The ID robot `i` shows in rosters and on the bulletin: the one its
/// controller claims when its flavor may fake IDs, else its true one.
fn shown_id<M>(world: &World, controllers: &[Box<dyn Controller<M>>], i: usize) -> RobotId {
    let slot = world.robot(i);
    if slot.flavor.can_fake_id() {
        controllers[i].claimed_id()
    } else {
        slot.id
    }
}

#[cfg(test)]
mod tests {
    //! These tests pin what the engine does: counters, call logs and
    //! literal outcomes. Whether its skips, segments and cohorts match
    //! stepping is checked against the oracle engine, on the same casts,
    //! in `crates/oracle/tests/differential.rs`, which this crate cannot
    //! link.

    use super::*;
    use bd_graphs::generators::{lollipop, oriented_ring, ring};
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    /// Walks a fixed port script, then terminates. Unlike [`Preluded`] it
    /// decides every move itself.
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
            done_if(self.step >= self.script.len())
        }
    }

    /// `Done` if `done`, else `Act`.
    fn done_if(done: bool) -> Intent {
        if done {
            Intent::Done
        } else {
            Intent::Act
        }
    }

    /// Walks a fixed prelude ([`Controller::prelude`]), which every engine
    /// applies without calling it, then stays put for `rounds` rounds and
    /// terminates. Counts its `decide_move` calls and logs, at sub-round 0,
    /// the round and arrival of every `act` call.
    struct Preluded {
        id: RobotId,
        prelude: Prelude,
        rounds: u64,
        calls: Rc<Cell<u64>>,
        seen: Rc<RefCell<Vec<(u64, Option<ArrivalInfo>)>>>,
    }

    impl Preluded {
        fn new(id: u64, prelude: impl Into<Prelude>, rounds: u64) -> Self {
            Preluded {
                id: RobotId(id),
                prelude: prelude.into(),
                rounds,
                calls: Rc::default(),
                seen: Rc::default(),
            }
        }
    }

    impl Controller<String> for Preluded {
        fn id(&self) -> RobotId {
            self.id
        }
        fn act(&mut self, obs: &Observation<'_, String>) -> Option<String> {
            if obs.subround == 0 {
                self.seen.borrow_mut().push((obs.round, obs.arrival));
            }
            None
        }
        fn decide_move(&mut self, _obs: &Observation<'_, String>) -> MoveChoice {
            self.calls.set(self.calls.get() + 1);
            MoveChoice::Stay
        }
        fn intent(&self, _round: u64) -> Intent {
            done_if(self.calls.get() >= self.rounds)
        }
        fn prelude(&self) -> Prelude {
            self.prelude.clone()
        }
    }

    /// Idle until round `wake`; records the first round it is called in
    /// from then on, stays put, and terminates. Asks for `subrounds`
    /// sub-rounds every round.
    struct Sleeper {
        id: RobotId,
        wake: u64,
        woke: Rc<Cell<Option<u64>>>,
        subrounds: usize,
    }

    impl Sleeper {
        fn new(id: u64, wake: u64, subrounds: usize) -> Self {
            Sleeper {
                id: RobotId(id),
                wake,
                woke: Rc::default(),
                subrounds,
            }
        }
    }

    impl Controller<String> for Sleeper {
        fn id(&self) -> RobotId {
            self.id
        }
        fn subrounds_wanted(&self, _round: u64) -> usize {
            self.subrounds
        }
        fn act(&mut self, obs: &Observation<'_, String>) -> Option<String> {
            if obs.round >= self.wake && self.woke.get().is_none() {
                self.woke.set(Some(obs.round));
            }
            None
        }
        fn decide_move(&mut self, _obs: &Observation<'_, String>) -> MoveChoice {
            MoveChoice::Stay
        }
        fn intent(&self, _round: u64) -> Intent {
            match self.woke.get() {
                Some(_) => Intent::Done,
                None => Intent::Idle(self.wake),
            }
        }
    }

    /// Roams on its own senses: at every sub-round it logs the round, the
    /// sub-round and its arrival, and at sub-round 0 it publishes; then it
    /// leaves through a port derived from the round, its node's degree and
    /// the port it arrived by. Solo in rounds `solo.0 .. solo.1`;
    /// terminates after round `last`. Also logs the rounds it was handed
    /// an empty roster in, which only a segment does.
    struct Roamer {
        id: RobotId,
        solo: (u64, u64),
        last: u64,
        next: u64,
        entry: usize,
        seen: Rc<RefCell<Vec<(u64, usize, Option<ArrivalInfo>)>>>,
        unrostered: Rc<RefCell<Vec<u64>>>,
    }

    impl Roamer {
        fn new(id: u64, solo: (u64, u64), last: u64) -> Self {
            Roamer {
                id: RobotId(id),
                solo,
                last,
                next: 0,
                entry: 0,
                seen: Rc::default(),
                unrostered: Rc::default(),
            }
        }
    }

    impl Controller<String> for Roamer {
        fn id(&self) -> RobotId {
            self.id
        }
        fn act(&mut self, obs: &Observation<'_, String>) -> Option<String> {
            self.seen
                .borrow_mut()
                .push((obs.round, obs.subround, obs.arrival));
            if obs.subround != 0 {
                return None;
            }
            if obs.roster.is_empty() {
                self.unrostered.borrow_mut().push(obs.round);
            }
            self.entry = obs.arrival.map_or(0, |a| a.entry_port);
            Some(format!("at {}", obs.round))
        }
        fn decide_move(&mut self, obs: &Observation<'_, String>) -> MoveChoice {
            self.next = obs.round + 1;
            MoveChoice::Move((obs.round as usize + self.entry) % obs.degree)
        }
        fn intent(&self, round: u64) -> Intent {
            if self.next > self.last {
                Intent::Done
            } else if (self.solo.0..self.solo.1).contains(&round) {
                Intent::Solo(self.solo.1)
            } else {
                Intent::Act
            }
        }
    }

    /// Publishes its observation of the roster; used to test ID stamping.
    struct Gossip {
        id: RobotId,
        fake: RobotId,
        seen: std::rc::Rc<std::cell::RefCell<Vec<RobotId>>>,
        rounds: u64,
    }

    impl Controller<String> for Gossip {
        fn id(&self) -> RobotId {
            self.id
        }
        fn claimed_id(&self) -> RobotId {
            self.fake
        }
        fn act(&mut self, obs: &Observation<'_, String>) -> Option<String> {
            if obs.subround == 0 {
                self.seen.borrow_mut().extend(obs.roster.iter().copied());
                Some("hello".into())
            } else {
                None
            }
        }
        fn decide_move(&mut self, _obs: &Observation<'_, String>) -> MoveChoice {
            self.rounds += 1;
            MoveChoice::Stay
        }
        fn intent(&self, _round: u64) -> Intent {
            done_if(self.rounds >= 1)
        }
    }

    #[test]
    fn walker_reaches_destination_and_run_ends() {
        // Oriented ring: port 0 is always the clockwise neighbor.
        let g = oriented_ring(6).unwrap();
        let mut e: Engine<String> = Engine::new(g, EngineConfig::default());
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
    fn weak_byzantine_cannot_fake_id() {
        let g = ring(4).unwrap();
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut e: Engine<String> = Engine::new(g, EngineConfig::default());
        e.add_robot(
            Flavor::Honest,
            0,
            Box::new(Gossip {
                id: RobotId(1),
                fake: RobotId(1),
                seen: seen.clone(),
                rounds: 0,
            }),
        );
        // Weak Byzantine claims 99 but the roster must show its true ID 2.
        e.add_robot(
            Flavor::WeakByzantine,
            0,
            Box::new(Gossip {
                id: RobotId(2),
                fake: RobotId(99),
                seen: seen.clone(),
                rounds: 0,
            }),
        );
        let _ = e.run_epoch(u64::MAX).unwrap();
        let roster = seen.borrow();
        assert!(roster.contains(&RobotId(2)));
        assert!(!roster.contains(&RobotId(99)));
    }

    #[test]
    fn strong_byzantine_can_fake_id() {
        let g = ring(4).unwrap();
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut e: Engine<String> = Engine::new(g, EngineConfig::default());
        e.add_robot(
            Flavor::Honest,
            0,
            Box::new(Gossip {
                id: RobotId(1),
                fake: RobotId(1),
                seen: seen.clone(),
                rounds: 0,
            }),
        );
        e.add_robot(
            Flavor::StrongByzantine,
            0,
            Box::new(Gossip {
                id: RobotId(2),
                fake: RobotId(1), // impersonates the honest robot
                seen: seen.clone(),
                rounds: 0,
            }),
        );
        let _ = e.run_epoch(u64::MAX).unwrap();
        let roster = seen.borrow();
        // Both entities claim ID 1: the roster shows a duplicate.
        let ones = roster.iter().filter(|&&r| r == RobotId(1)).count();
        assert!(ones >= 2, "expected duplicated claimed ID, got {roster:?}");
    }

    #[test]
    fn honest_invalid_move_is_an_error() {
        let g = ring(4).unwrap();
        let mut e: Engine<String> = Engine::new(g, EngineConfig::default());
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
    }

    #[test]
    fn byzantine_invalid_move_is_clamped() {
        let g = ring(4).unwrap();
        let mut e: Engine<String> = Engine::new(g, EngineConfig::default());
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
        // Byzantine stayed at node 1 (clamped), honest moved to 1.
        assert_eq!(out.final_positions[1], 1);
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
        let mut e: Engine<String> = Engine::new(g, EngineConfig::with_max_rounds(10));
        e.add_robot(Flavor::Honest, 0, Box::new(Forever(RobotId(1))));
        assert!(matches!(
            e.run_epoch(u64::MAX),
            Err(RunError::RoundLimit { limit: 10 })
        ));
    }

    #[test]
    fn empty_scenario_rejected() {
        let g = ring(4).unwrap();
        let mut e: Engine<String> = Engine::new(g, EngineConfig::default());
        assert!(matches!(
            e.run_epoch(u64::MAX),
            Err(RunError::BadScenario(_))
        ));
    }

    #[test]
    fn trace_records_moves_and_termination() {
        let g = ring(5).unwrap();
        let mut e: Engine<String> = Engine::new(g, EngineConfig::default().traced());
        e.add_robot(
            Flavor::Honest,
            0,
            Box::new(Walker {
                id: RobotId(4),
                script: vec![0, 0],
                step: 0,
            }),
        );
        e.run_epoch(u64::MAX).unwrap();
        let trace = e.into_trace();
        let script = trace.move_script(RobotId(4));
        assert_eq!(script, vec![Some(0), Some(0)]);
        assert!(trace.events.iter().any(|ev| matches!(
            ev,
            Event::Terminated {
                robot: RobotId(4),
                ..
            }
        )));
    }

    #[test]
    fn world_events_keep_arenas_coherent_mid_run() {
        // Step a cast, swap the graph and reseat a new cast where the old
        // one stood, step again: the arenas rebuilt at the epoch start
        // must agree with the changed world.
        let g = oriented_ring(6).unwrap();
        let mut e: Engine<String> = Engine::new(g, EngineConfig::default().traced());
        let walker = |id, script: Vec<Port>| -> Box<dyn Controller<String>> {
            Box::new(Walker {
                id: RobotId(id),
                script,
                step: 0,
            })
        };
        e.begin_epoch([
            (Flavor::Honest, 0, walker(1, vec![0; 4])),
            (Flavor::Honest, 3, walker(2, vec![0])),
        ])
        .unwrap();
        assert!(!e.run_epoch(2).unwrap().terminated);
        assert_eq!(e.world().positions(), vec![2, 4]);
        // The graph is swapped for an identical copy (labels coherent),
        // then a cast of two replaces the old one: one robot where robot
        // 1 stood, one on node 5.
        e.set_graph(Arc::new(oriented_ring(6).unwrap())).unwrap();
        e.begin_epoch([
            (Flavor::Honest, 2, walker(3, vec![0, 0])),
            (Flavor::Honest, 5, walker(4, vec![0])),
        ])
        .unwrap();
        assert!(e.run_epoch(u64::MAX).unwrap().terminated);
        assert_eq!(e.world().positions(), vec![4, 0]);
        assert_eq!(e.world().robot(0).id, RobotId(3));
        assert_eq!(e.world().robot(1).id, RobotId(4));
        assert_eq!(e.round(), 4);
        // A seat outside the graph is a scenario error.
        assert!(matches!(
            e.begin_epoch([(Flavor::Honest, 99, walker(9, vec![]))]),
            Err(RunError::BadScenario(_))
        ));
    }

    #[test]
    fn graph_swap_refuses_to_strand_robots() {
        let g = ring(6).unwrap();
        let mut e: Engine<String> = Engine::new(g, EngineConfig::default());
        let walker: Box<dyn Controller<String>> = Box::new(Walker {
            id: RobotId(1),
            script: vec![],
            step: 0,
        });
        e.begin_epoch([(Flavor::Honest, 5, walker)]).unwrap();
        assert!(matches!(
            e.set_graph(Arc::new(ring(4).unwrap())),
            Err(RunError::BadScenario(_))
        ));
        assert_eq!(
            e.world().graph().n(),
            6,
            "the refused graph is not installed"
        );
    }

    #[test]
    fn an_idle_skip_records_the_terminations_it_reaches() {
        /// Idle until round `wake`, done from it on: it never acts.
        struct Napper(u64);
        impl Controller<String> for Napper {
            fn id(&self) -> RobotId {
                RobotId(1)
            }
            fn act(&mut self, _obs: &Observation<'_, String>) -> Option<String> {
                None
            }
            fn decide_move(&mut self, _obs: &Observation<'_, String>) -> MoveChoice {
                MoveChoice::Stay
            }
            fn intent(&self, round: u64) -> Intent {
                if round >= self.0 {
                    Intent::Done
                } else {
                    Intent::Idle(self.0)
                }
            }
        }
        let mut e: Engine<String> = Engine::new(ring(4).unwrap(), EngineConfig::default().traced());
        e.add_robot(Flavor::Honest, 2, Box::new(Napper(7)));
        let out = e.run_epoch(u64::MAX).unwrap();
        let ends: Vec<Event> = e
            .into_trace()
            .events
            .into_iter()
            .filter(|ev| matches!(ev, Event::Terminated { .. }))
            .collect();
        let ended = Event::Terminated {
            round: 6,
            robot: RobotId(1),
            at: 2,
        };
        assert_eq!((out.metrics.rounds, ends), (7, vec![ended]));
    }

    #[test]
    fn epoch_metrics_are_snapshot_and_cleared() {
        // Two epochs on one engine: the second epoch's metrics must count
        // only its own rounds, moves, and annotations — nothing from the
        // first may accumulate (the rounds_by_phase reset pin).
        let g = oriented_ring(8).unwrap();
        let mut e: Engine<String> = Engine::new(g, EngineConfig::default().traced());
        e.begin_epoch(vec![(
            Flavor::Honest,
            0,
            Box::new(Walker {
                id: RobotId(1),
                script: vec![0, 0, 0],
                step: 0,
            }) as Box<dyn Controller<String>>,
        )])
        .unwrap();
        let first = e.run_epoch(1000).unwrap();
        assert!(first.terminated);
        assert_eq!(first.metrics.rounds, 3);
        assert_eq!(first.metrics.total_moves, 3);

        // Quiescent gap, then a fresh cast.
        e.advance_to(10).unwrap();
        e.begin_epoch(vec![(
            Flavor::Honest,
            4,
            Box::new(Walker {
                id: RobotId(2),
                script: vec![0],
                step: 0,
            }) as Box<dyn Controller<String>>,
        )])
        .unwrap();
        let second = e.run_epoch(1000).unwrap();
        assert!(second.terminated);
        assert_eq!(second.metrics.rounds, 1, "epoch-local, not cumulative");
        assert_eq!(second.metrics.total_moves, 1);
        assert_eq!(second.metrics.max_moves_per_robot, 1);
        assert!(second.metrics.rounds_by_phase.is_empty());
        assert_eq!(e.round(), 11);
        // Rewinding the clock is refused.
        assert!(e.advance_to(3).is_err());
        // The cumulative trace spans both epochs.
        let trace = e.into_trace();
        assert_eq!(trace.move_script(RobotId(1)).len(), 3);
        assert_eq!(trace.move_script(RobotId(2)).len(), 1);
    }

    /// The telemetry tests toggle the process-global counters flag;
    /// serialize them.
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn telemetry_records_counters_and_phases_when_enabled() {
        let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
        bd_telemetry::enable_counters(true);
        bd_telemetry::drain_engine_reports();
        let g = oriented_ring(6).unwrap();
        let mut e: Engine<String> = Engine::new(g, EngineConfig::default());
        e.add_robot(
            Flavor::Honest,
            0,
            Box::new(Walker {
                id: RobotId(7),
                script: vec![0, 0, 0],
                step: 0,
            }),
        );
        e.set_phase_marks(vec![("walk".into(), 2), ("tail".into(), 3)]);
        let out = e.run_epoch(u64::MAX).unwrap();
        e.into_trace();
        bd_telemetry::enable_counters(false);
        assert_eq!(out.metrics.total_moves, 3);
        let reports = bd_telemetry::drain_engine_reports();
        // Other tests may race publications; find this run by its shape.
        let report = reports
            .iter()
            .find(|r| r.phases.first().is_some_and(|p| p.name == "walk"))
            .expect("instrumented run published a report");
        assert_eq!(report.total.dirty_marks, 6, "two marks per move");
        assert_eq!(report.total.rounds_stepped, 3);
        assert!(report.total.roster_resorts >= 3);
        let names: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["walk", "tail"]);
        assert_eq!(report.phases[0].counters.moves, 2);
        assert_eq!(report.phases[1].counters.moves, 1);
    }

    #[test]
    fn telemetry_disabled_records_nothing() {
        let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
        bd_telemetry::enable_counters(false);
        let g = oriented_ring(6).unwrap();
        let mut e: Engine<String> = Engine::new(g, EngineConfig::default());
        e.add_robot(
            Flavor::Honest,
            0,
            Box::new(Walker {
                id: RobotId(8),
                script: vec![0],
                step: 0,
            }),
        );
        e.set_phase_marks(vec![("walk".into(), 1)]);
        assert!(e.telemetry.is_none(), "disabled engines carry no recorder");
        e.run_epoch(u64::MAX).unwrap();
    }

    #[test]
    fn bulletin_visible_next_subround_only() {
        /// Robot A publishes in sub-round 0; robot B records what it saw in
        /// sub-rounds 0 and 1.
        struct Observer {
            id: RobotId,
            saw: std::rc::Rc<std::cell::RefCell<Vec<(usize, usize)>>>,
            done: bool,
        }
        impl Controller<String> for Observer {
            fn id(&self) -> RobotId {
                self.id
            }
            fn subrounds_wanted(&self, _round: u64) -> usize {
                2
            }
            fn act(&mut self, obs: &Observation<'_, String>) -> Option<String> {
                self.saw
                    .borrow_mut()
                    .push((obs.subround, obs.bulletin.len()));
                if obs.subround == 0 {
                    Some("x".into())
                } else {
                    None
                }
            }
            fn decide_move(&mut self, _o: &Observation<'_, String>) -> MoveChoice {
                self.done = true;
                MoveChoice::Stay
            }
            fn intent(&self, _round: u64) -> Intent {
                done_if(self.done)
            }
        }
        let g = ring(4).unwrap();
        let saw = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut e: Engine<String> = Engine::new(g, EngineConfig::default());
        e.add_robot(
            Flavor::Honest,
            0,
            Box::new(Observer {
                id: RobotId(1),
                saw: saw.clone(),
                done: false,
            }),
        );
        e.add_robot(
            Flavor::Honest,
            0,
            Box::new(Observer {
                id: RobotId(2),
                saw: saw.clone(),
                done: false,
            }),
        );
        let _ = e.run_epoch(u64::MAX).unwrap();
        let log = saw.borrow();
        // Sub-round 0: bulletin empty for both; sub-round 1: both messages
        // visible (published in sub-round 0).
        assert!(log.contains(&(0, 0)));
        assert!(log.contains(&(1, 2)));
    }

    /// Attach a telemetry recorder to `e` without touching the
    /// process-global counters flag.
    fn record(e: &mut Engine<String>) {
        e.telemetry = Some(EngineTelemetry::new(Vec::new()));
    }

    /// The rounds `e` applied as segments with no solo robot, taking the
    /// recorder [`record`] attached (so nothing is published).
    fn rounds_scripted(e: &mut Engine<String>) -> u64 {
        e.telemetry
            .take()
            .expect("recorder")
            .counters
            .rounds_scripted
    }

    /// What a run of the prelude cast leaves behind.
    struct PreludeRun {
        positions: Vec<NodeId>,
        odometers: Vec<u64>,
        /// The movement-relevant trace events (`Stayed` filtered out).
        events: Vec<Event>,
        /// Robot 1's `(round, arrival)` per `act` call.
        seen: Vec<(u64, Option<ArrivalInfo>)>,
        /// `decide_move` calls of robots 1 and 2.
        calls: (u64, u64),
        woke: Option<u64>,
        rounds_scripted: u64,
    }

    fn run_scripted_cast() -> PreludeRun {
        // Robot 1 walks a five-port prelude, then looks around for one
        // round; robot 2 walks three and looks around for one round; robot
        // 3 sleeps until round 7. Preludes differ in length, so the engine
        // applies the segments [0, 3) and [4, 5) and steps round 3 (robot
        // 2 is called while robot 1 still walks) and round 5.
        let g = ring(7).unwrap();
        let mut e: Engine<String> = Engine::new(g, EngineConfig::default().traced());
        record(&mut e);
        let long = Preluded::new(1, vec![0, 1, 0, 0, 1], 1);
        let (calls, seen) = (long.calls.clone(), long.seen.clone());
        e.add_robot(Flavor::Honest, 0, Box::new(long));
        let short = Preluded::new(2, vec![1, 1, 0], 1);
        let short_calls = short.calls.clone();
        e.add_robot(Flavor::Honest, 3, Box::new(short));
        let sleeper = Sleeper::new(3, 7, 1);
        let woke = sleeper.woke.clone();
        e.add_robot(Flavor::Honest, 5, Box::new(sleeper));
        let out = e.run_epoch(u64::MAX).unwrap();
        let rounds_scripted = rounds_scripted(&mut e);
        let odometers = e.world().robots().iter().map(|r| r.moves).collect();
        let events = e
            .into_trace()
            .events
            .into_iter()
            .filter(|ev| !matches!(ev, Event::Stayed { .. }))
            .collect();
        let seen = seen.borrow().clone();
        PreludeRun {
            positions: out.final_positions,
            odometers,
            events,
            seen,
            calls: (calls.get(), short_calls.get()),
            woke: woke.get(),
            rounds_scripted,
        }
    }

    #[test]
    fn scripted_segments_match_stepping() {
        let fast = run_scripted_cast();
        assert_eq!(fast.woke, Some(7));
        assert_eq!(fast.odometers, vec![5, 3, 0]);
        // Robot 1 is first called in round 5 and observes the arrival of
        // its round-4 prelude move.
        assert_eq!(fast.seen.len(), 1);
        assert_eq!(fast.seen[0].0, 5);
        assert!(fast.seen[0].1.is_some(), "the last prelude move's arrival");
        // A controller cannot terminate inside its prelude: robot 2 is
        // called in round 3 and terminates there.
        assert!(fast.events.contains(&Event::Terminated {
            round: 3,
            robot: RobotId(2),
            at: fast.positions[1],
        }));
        // No robot is called inside its prelude, and the preludes are
        // applied as segments.
        assert_eq!(fast.calls, (1, 1));
        assert_eq!(fast.rounds_scripted, 4);
    }

    /// Idle until round `wake`; then logs the roster it is handed and
    /// terminates.
    struct Watcher {
        wake: u64,
        roster: Rc<RefCell<Option<Vec<RobotId>>>>,
    }

    impl Controller<String> for Watcher {
        fn id(&self) -> RobotId {
            RobotId(9)
        }
        fn act(&mut self, obs: &Observation<'_, String>) -> Option<String> {
            if obs.round >= self.wake {
                self.roster.replace(Some(obs.roster.to_vec()));
            }
            None
        }
        fn decide_move(&mut self, _obs: &Observation<'_, String>) -> MoveChoice {
            MoveChoice::Stay
        }
        fn intent(&self, _round: u64) -> Intent {
            match *self.roster.borrow() {
                Some(_) => Intent::Done,
                None => Intent::Idle(self.wake),
            }
        }
    }

    #[test]
    fn segments_keep_occupancy_current() {
        // On node 3 of an oriented ring, a watcher idle until round 3 sees
        // the roster of the first stepped round: robot 1 walked in by a
        // three-port prelude and robot 2 walked out by a one-port prelude
        // (then terminated), both in segments.
        let mut e: Engine<String> = Engine::new(oriented_ring(7).unwrap(), EngineConfig::default());
        record(&mut e);
        e.add_robot(Flavor::Honest, 0, Box::new(Preluded::new(1, vec![0; 3], 1)));
        e.add_robot(Flavor::Honest, 3, Box::new(Preluded::new(2, vec![0], 0)));
        let roster = Rc::default();
        let watcher = Watcher {
            wake: 3,
            roster: Rc::clone(&roster),
        };
        e.add_robot(Flavor::Honest, 3, Box::new(watcher));
        e.run_epoch(u64::MAX).unwrap();
        let seen = (roster.take(), rounds_scripted(&mut e));
        assert_eq!(seen, (Some(vec![RobotId(1), RobotId(9)]), 3));
    }

    #[test]
    fn scripted_segment_clamps_at_stop_and_cap() {
        let walker = || Box::new(Preluded::new(1, vec![0; 10], 0));
        // A scheduled stop cuts the segment; the next epoch resumes the
        // prelude where it stopped.
        let mut e: Engine<String> =
            Engine::new(oriented_ring(16).unwrap(), EngineConfig::default());
        record(&mut e);
        e.add_robot(Flavor::Honest, 0, walker());
        let cut = e.run_epoch(4).unwrap();
        assert!(!cut.terminated);
        assert_eq!((e.round(), cut.final_positions), (4, vec![4]));
        let rest = e.run_epoch(u64::MAX).unwrap();
        assert_eq!((e.round(), rest.final_positions), (10, vec![10]));
        assert_eq!(rounds_scripted(&mut e), 10);

        // The cap cuts it too, with the error and clock of stepping.
        let mut e: Engine<String> =
            Engine::new(oriented_ring(16).unwrap(), EngineConfig::with_max_rounds(4));
        record(&mut e);
        e.add_robot(Flavor::Honest, 0, walker());
        assert!(matches!(
            e.run_epoch(u64::MAX),
            Err(RunError::RoundLimit { limit: 4 })
        ));
        assert_eq!((e.round(), e.world().positions()), (4, vec![4]));
        assert_eq!(rounds_scripted(&mut e), 4);
    }

    #[test]
    fn overshoot_runs_a_segment_past_an_idle_horizon() {
        let woke_at = |config: EngineConfig| {
            let mut e: Engine<String> = Engine::new(oriented_ring(16).unwrap(), config);
            e.add_robot(
                Flavor::Honest,
                0,
                Box::new(Preluded::new(1, vec![0; 10], 0)),
            );
            let sleeper = Sleeper::new(2, 3, 1);
            let woke = sleeper.woke.clone();
            e.add_robot(Flavor::Honest, 8, Box::new(sleeper));
            e.run_epoch(u64::MAX).unwrap();
            woke.get()
        };
        assert_eq!(woke_at(EngineConfig::default()), Some(3));
        // The sabotaged clamp lets the segment swallow round 3.
        assert_eq!(
            woke_at(EngineConfig::default().with_ff_overshoot(1)),
            Some(4)
        );
    }

    /// What a run of a [`Roamer`] beside an honest [`Sleeper`] leaves
    /// behind.
    struct SoloRun {
        /// `(messages, subrounds_executed, terminated)`, or the error.
        out: Result<(u64, u64, bool), RunError>,
        round: u64,
        odometers: Vec<u64>,
        moved: Vec<Event>,
        /// The roamer's `(round, subround, arrival)` per `act` call.
        seen: Vec<(u64, usize, Option<ArrivalInfo>)>,
        /// The rounds the roamer was handed an empty roster in.
        unrostered: Vec<u64>,
        woke: Option<u64>,
    }

    fn run_solo_cast(config: EngineConfig, roamer: Roamer, wake: u64, stop_at: u64) -> SoloRun {
        let mut e: Engine<String> = Engine::new(lollipop(4, 3).unwrap(), config.traced());
        let (seen, unrostered) = (roamer.seen.clone(), roamer.unrostered.clone());
        e.add_robot(Flavor::WeakByzantine, 6, Box::new(roamer));
        let sleeper = Sleeper::new(2, wake, 2);
        let woke = sleeper.woke.clone();
        e.add_robot(Flavor::Honest, 0, Box::new(sleeper));
        let out = e.run_epoch(stop_at).map(|o| {
            let m = o.metrics;
            (m.messages, m.subrounds_executed, o.terminated)
        });
        let round = e.round();
        let odometers = e.world().robots().iter().map(|r| r.moves).collect();
        let moved = e
            .into_trace()
            .events
            .into_iter()
            .filter(|ev| matches!(ev, Event::Moved { .. }))
            .collect();
        let seen = seen.borrow().clone();
        let unrostered = unrostered.borrow().clone();
        SoloRun {
            out,
            round,
            odometers,
            moved,
            seen,
            unrostered,
            woke: woke.get(),
        }
    }

    #[test]
    fn solo_segments_match_stepping() {
        // The roamer steps rounds 0-2 (not solo), is solo in 3-8 beside a
        // sleeper idle until 12 that asks for two sub-rounds, and steps
        // 9-11 again; the sleeper wakes at 12 and ends the run.
        let fast = run_solo_cast(
            EngineConfig::default(),
            Roamer::new(1, (3, 9), 11),
            12,
            u64::MAX,
        );
        assert_eq!(fast.out, Ok((12, 26, true)), "one message a round, 2 × 13");
        assert_eq!((fast.round, fast.woke), (13, Some(12)));
        assert_eq!(fast.odometers, vec![12, 0]);
        assert_eq!(fast.moved.len(), 12, "one Moved event a round");
        // The first segment round sees the arrival of round 2's move, at
        // sub-round 0 only.
        let first: Vec<_> = fast.seen.iter().filter(|s| s.0 == 3).collect();
        assert_eq!(first.len(), 2, "two sub-rounds");
        assert!(
            first[0].2.is_some(),
            "arrival left by the last stepped move"
        );
        assert_eq!(first[1].2, None);
        // Only the solo rounds ran as a segment.
        assert_eq!(fast.unrostered, (3..9).collect::<Vec<_>>());
    }

    #[test]
    fn solo_segment_clamps_at_horizon_stop_and_cap() {
        // The segment ends at the solo horizon: round 6 is stepped.
        let config = EngineConfig::default();
        let run = run_solo_cast(config.clone(), Roamer::new(1, (2, 6), 8), 9, u64::MAX);
        assert_eq!(run.unrostered, vec![2, 3, 4, 5]);

        // A scheduled stop cuts it.
        let run = run_solo_cast(config, Roamer::new(1, (0, 10), 12), 20, 4);
        assert_eq!((run.out, run.round), (Ok((4, 8, false)), 4));
        assert_eq!(run.unrostered, vec![0, 1, 2, 3]);

        // The cap cuts it too, with the error and clock of stepping.
        let capped = EngineConfig::with_max_rounds(4);
        let run = run_solo_cast(capped, Roamer::new(1, (0, 10), 12), 20, u64::MAX);
        assert!(matches!(run.out, Err(RunError::RoundLimit { limit: 4 })));
        assert_eq!((run.round, run.odometers), (4, vec![4, 0]));
    }

    #[test]
    fn a_solo_robot_runs_a_segment_in_one_call_unless_traced_or_honest() {
        // A roamer solo in rounds 3-8 beside a sleeper idle until 12: the
        // segment [3, 9) is one call in bulk, six when it must keep
        // stepping's order.
        let counted = |flavor, config: EngineConfig| {
            let mut e: Engine<String> = Engine::new(lollipop(4, 3).unwrap(), config);
            record(&mut e);
            e.add_robot(flavor, 6, Box::new(Roamer::new(1, (3, 9), 11)));
            e.add_robot(Flavor::Honest, 0, Box::new(Sleeper::new(2, 12, 2)));
            e.run_epoch(u64::MAX).unwrap();
            let c = e.telemetry.take().expect("recorder").counters;
            (c.rounds_solo, c.solo_calls)
        };
        let (byzantine, default) = (Flavor::WeakByzantine, EngineConfig::default);
        assert_eq!(counted(byzantine, default()), (6, 1));
        assert_eq!(counted(byzantine, default().traced()), (6, 6));
        assert_eq!(counted(Flavor::Honest, default()), (6, 6));
    }

    #[test]
    fn overshoot_runs_a_solo_segment_past_an_idle_horizon() {
        let woke_at = |config| run_solo_cast(config, Roamer::new(1, (0, 10), 12), 3, u64::MAX).woke;
        assert_eq!(woke_at(EngineConfig::default()), Some(3));
        // The sabotaged clamp lets the solo segment swallow round 3.
        assert_eq!(
            woke_at(EngineConfig::default().with_ff_overshoot(1)),
            Some(4)
        );
    }

    /// Logs the round of each `act` and `decide_move` call of the
    /// controller it wraps.
    struct Counted {
        inner: Box<dyn Controller<String>>,
        called: Rc<RefCell<Vec<u64>>>,
    }

    impl Counted {
        fn new(inner: impl Controller<String> + 'static) -> Self {
            Counted {
                inner: Box::new(inner),
                called: Rc::default(),
            }
        }
    }

    impl Controller<String> for Counted {
        fn id(&self) -> RobotId {
            self.inner.id()
        }
        fn subrounds_wanted(&self, round: u64) -> usize {
            self.inner.subrounds_wanted(round)
        }
        fn act(&mut self, obs: &Observation<'_, String>) -> Option<String> {
            self.called.borrow_mut().push(obs.round);
            self.inner.act(obs)
        }
        fn decide_move(&mut self, obs: &Observation<'_, String>) -> MoveChoice {
            self.called.borrow_mut().push(obs.round);
            self.inner.decide_move(obs)
        }
        fn intent(&self, round: u64) -> Intent {
            self.inner.intent(round)
        }
        fn prelude(&self) -> Prelude {
            self.inner.prelude()
        }
    }

    #[test]
    fn a_robot_is_asked_again_only_when_its_answer_no_longer_holds() {
        // An actor walking two ports, a robot walking a five-port prelude,
        // a roamer solo in rounds 3-8 and a sleeper idle until 14: the
        // engine steps rounds 0-2, 5 and 9-11, applies the segments [3, 5)
        // and [6, 9), skips [12, 14) and steps round 14.
        let g = ring(7).unwrap();
        let mut e: Engine<String> = Engine::new(g, EngineConfig::default());
        record(&mut e);
        let actor = Walker {
            id: RobotId(1),
            script: vec![0, 1],
            step: 0,
        };
        e.add_robot(Flavor::Honest, 0, Box::new(actor));
        e.add_robot(Flavor::Honest, 2, Box::new(Preluded::new(2, vec![0; 5], 1)));
        e.add_robot(
            Flavor::WeakByzantine,
            4,
            Box::new(Roamer::new(3, (3, 9), 11)),
        );
        e.add_robot(Flavor::Honest, 6, Box::new(Sleeper::new(4, 14, 1)));
        let out = e.run_epoch(u64::MAX).unwrap();
        assert_eq!(out.metrics.rounds, 15);
        let c = e.telemetry.take().expect("recorder").counters;
        assert_eq!(
            (
                c.rounds_stepped,
                c.rounds_solo,
                c.rounds_skipped,
                c.ff_jumps
            ),
            (8, 5, 2, 3)
        );
        // The loop asks when the epoch starts and after each of its 11
        // steps, segments and skips, but only the robots whose answer no
        // longer holds. The actor acts, so it is asked every iteration
        // until it answers `Done` (rounds 0, 1 and 2), which holds for
        // good. The prelude walker is not asked inside its prelude: it is
        // asked at round 5, acts, and answers `Done` at round 6. The
        // roamer is asked while it acts (rounds 0-2 and 9-11), at round 3,
        // where it answers `Solo(9)`, and not again until that horizon;
        // at round 12 it answers `Done`. The sleeper answers `Idle(14)` at
        // the start and is asked again only at round 14, where it is
        // called, and at round 15, where it answers `Done`.
        assert_eq!(e.scratch.asked, [3, 2, 8, 3]);
        assert_eq!(c.intent_asks, 3 + 2 + 8 + 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "but at round 1 answers Act")]
    fn debug_builds_catch_a_broken_promise() {
        /// Promises to idle until round 4 at round 0, then acts from round
        /// 1 on: a promise it breaks.
        struct Fickle;
        impl Controller<String> for Fickle {
            fn id(&self) -> RobotId {
                RobotId(2)
            }
            fn act(&mut self, _obs: &Observation<'_, String>) -> Option<String> {
                None
            }
            fn decide_move(&mut self, _obs: &Observation<'_, String>) -> MoveChoice {
                MoveChoice::Stay
            }
            fn intent(&self, round: u64) -> Intent {
                if round == 0 {
                    Intent::Idle(4)
                } else {
                    Intent::Act
                }
            }
        }
        let mut e: Engine<String> = Engine::new(ring(4).unwrap(), EngineConfig::default());
        let actor = Walker {
            id: RobotId(1),
            script: vec![0, 0, 0],
            step: 0,
        };
        e.add_robot(Flavor::Honest, 0, Box::new(actor));
        e.add_robot(Flavor::WeakByzantine, 2, Box::new(Fickle));
        let _ = e.run_epoch(u64::MAX);
    }

    /// Publishes its round at sub-round 0 of every round it is called in
    /// and never moves: a beacon for good.
    struct Beacon(RobotId);

    impl Controller<String> for Beacon {
        fn id(&self) -> RobotId {
            self.0
        }
        fn act(&mut self, obs: &Observation<'_, String>) -> Option<String> {
            (obs.subround == 0).then(|| format!("at {}", obs.round))
        }
        fn decide_move(&mut self, _obs: &Observation<'_, String>) -> MoveChoice {
            MoveChoice::Stay
        }
        fn intent(&self, _round: u64) -> Intent {
            Intent::Beacon(u64::MAX)
        }
    }

    /// What a run of a counted cast leaves behind: `(messages,
    /// subrounds_executed)`, positions, the rounds each robot was called
    /// in, and `(rounds_stepped, rounds_solo, bulletin_reads)`.
    type CountedRun = ((u64, u64), Vec<NodeId>, Vec<Vec<u64>>, (u64, u64, u64));

    /// Run `cast` (flavor, start node, controller) on a 7-node ring with a
    /// recorder attached.
    fn run_counted(cast: Vec<(Flavor, NodeId, Counted)>) -> CountedRun {
        let mut e: Engine<String> = Engine::new(ring(7).unwrap(), EngineConfig::default());
        record(&mut e);
        let mut called = Vec::new();
        for (flavor, node, counted) in cast {
            called.push(Rc::clone(&counted.called));
            e.add_robot(flavor, node, Box::new(counted));
        }
        let out = e.run_epoch(u64::MAX).unwrap();
        let c = e.telemetry.take().expect("recorder").counters;
        (
            (out.metrics.messages, out.metrics.subrounds_executed),
            out.final_positions,
            called.iter().map(|c| c.take()).collect(),
            (c.rounds_stepped, c.rounds_solo, c.bulletin_reads),
        )
    }

    #[test]
    fn idle_robots_are_not_called_in_stepped_rounds() {
        // An actor walks six ports (rounds 0-5, every one stepped) beside
        // a sleeper idle until round 4 that asks for two sub-rounds.
        let actor = Walker {
            id: RobotId(1),
            script: vec![0, 1, 1, 0, 0, 1],
            step: 0,
        };
        let (metrics, _, called, counters) = run_counted(vec![
            (Flavor::Honest, 0, Counted::new(actor)),
            (Flavor::Honest, 3, Counted::new(Sleeper::new(2, 4, 2))),
        ]);
        // The sleeper is first called at its horizon; it wakes, stays and
        // terminates there.
        assert_eq!(called[1], [4, 4, 4]);
        // Its two-sub-round request counts while it is idle all the same:
        // rounds 0-4 run two sub-rounds, round 5 (after it is done) one.
        assert_eq!(metrics, (0, 5 * 2 + 1));
        // Only the actor is served before round 4, then both robots in
        // round 4 and the actor alone in round 5.
        assert_eq!(counters, (6, 0, 4 * 2 + 2 * 2 + 1));
    }

    #[test]
    fn beacons_are_called_in_every_stepped_round() {
        // An actor walks five ports (rounds 0-4) beside a beacon: every
        // round is stepped and the beacon publishes in each.
        let actor = Walker {
            id: RobotId(1),
            script: vec![0, 1, 0, 1, 0],
            step: 0,
        };
        let (metrics, positions, called, counters) = run_counted(vec![
            (Flavor::Honest, 0, Counted::new(actor)),
            (Flavor::WeakByzantine, 3, Counted::new(Beacon(RobotId(2)))),
        ]);
        assert_eq!(positions[1], 3);
        assert_eq!(called[1], [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]);
        assert_eq!(metrics, (5, 5), "one beacon message a round");
        assert_eq!(counters, (5, 0, 10));
    }

    #[test]
    fn a_beacon_beside_a_solo_roamer_makes_the_engine_step() {
        // A roamer solo in rounds 0-9 and acting in 10-12, a beacon, and a
        // sleeper idle until 14 that keeps the run going: beside the
        // beacon no segment runs, so every round is stepped and every
        // beacon message is counted.
        let (metrics, _, called, counters) = run_counted(vec![
            (
                Flavor::WeakByzantine,
                6,
                Counted::new(Roamer::new(1, (0, 10), 12)),
            ),
            (Flavor::WeakByzantine, 2, Counted::new(Beacon(RobotId(2)))),
            (Flavor::Honest, 0, Counted::new(Sleeper::new(3, 14, 1))),
        ]);
        assert_eq!(called[1].len(), 2 * 15, "the beacon, called every round");
        assert_eq!(metrics, (13 + 15, 15), "13 roamer and 15 beacon messages");
        assert_eq!((counters.0, counters.1), (15, 0), "stepped, not solo");
    }

    /// `len` ports that lead from `from` to `to` on `g`, found by trying
    /// every port sequence.
    fn ports_between(g: &PortGraph, from: NodeId, to: NodeId, len: usize) -> Vec<Port> {
        let mut ports = vec![0; len];
        loop {
            let mut cur = from;
            let valid = ports.iter().all(|&p| {
                let ok = p < g.degree(cur);
                if ok {
                    cur = g.neighbor(cur, p).0;
                }
                ok
            });
            if valid && cur == to {
                return ports;
            }
            // Next sequence, as a counter in base 3 (ring degrees are 2).
            let digit = ports.iter().position(|&p| p < 2).expect("a path exists");
            ports[digit] += 1;
            ports[..digit].fill(0);
        }
    }

    /// What a run of the cohort cast leaves behind.
    #[derive(Debug, PartialEq)]
    struct CohortRun {
        positions: Vec<NodeId>,
        odometers: Vec<u64>,
        /// Each walker's `(round, arrival)` when first called.
        seen: Vec<Vec<(u64, Option<ArrivalInfo>)>>,
        metrics: (u64, u64),
    }

    /// Run the cohort cast on an 8-node ring: robot 1 walks a 12-port tail
    /// from node 0 with no head; robots 2 and 3 walk 3- and 5-port heads
    /// from nodes 2 and 6 that bring them to robot 1 when their heads end,
    /// then the same tail; robot 4 walks the same tail from node 1 (an odd
    /// node, so it never meets the others); two Byzantine robots on node 4
    /// share a tail whose third port is invalid, clamped to a stay. A
    /// sleeper keeps the run going. Returns the run and the prelude ports
    /// the engine looked up.
    fn run_cohort_cast(config: EngineConfig) -> (CohortRun, u64) {
        let g = ring(8).unwrap();
        let tail: Arc<[Port]> = vec![0, 1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 1].into();
        let at = |round: usize| {
            let mut cur = 0;
            for &p in &tail[..round] {
                cur = g.neighbor(cur, p).0;
            }
            cur
        };
        let head = |from, len| ports_between(&g, from, at(len), len);
        let preludes = [
            (1, 0, Prelude::from(Arc::clone(&tail))),
            (2, 2, Prelude::new(head(2, 3), Arc::clone(&tail))),
            (3, 6, Prelude::new(head(6, 5), Arc::clone(&tail))),
            (4, 1, Prelude::from(Arc::clone(&tail))),
        ];
        let mut e: Engine<String> = Engine::new(g.clone(), config);
        record(&mut e);
        let mut logs = Vec::new();
        for (id, start, prelude) in preludes {
            let walker = Preluded::new(id, prelude, 1);
            logs.push(walker.seen.clone());
            e.add_robot(Flavor::Honest, start, Box::new(walker));
        }
        let clamped: Arc<[Port]> = vec![0, 0, 7, 1, 1, 0].into();
        for id in [5, 6] {
            let walker = Preluded::new(id, Arc::clone(&clamped), 1);
            logs.push(walker.seen.clone());
            e.add_robot(Flavor::WeakByzantine, 4, Box::new(walker));
        }
        e.add_robot(Flavor::Honest, 5, Box::new(Sleeper::new(7, 14, 1)));
        let out = e.run_epoch(u64::MAX).unwrap();
        let walked = e
            .telemetry
            .take()
            .expect("recorder")
            .counters
            .prelude_walked;
        let run = CohortRun {
            positions: out.final_positions,
            odometers: e.world().robots().iter().map(|r| r.moves).collect(),
            seen: logs.iter().map(|l| l.borrow().clone()).collect(),
            metrics: (out.metrics.messages, out.metrics.subrounds_executed),
        };
        (run, walked)
    }

    #[test]
    fn cohorts_walk_merged_tails_once_and_match_stepping() {
        let (bulk, walked) = run_cohort_cast(EngineConfig::default());
        let (traced, walked_alone) = run_cohort_cast(EngineConfig::default().traced());
        assert_eq!(bulk, traced, "cohorts against robots walking alone");
        assert_eq!(bulk.odometers, vec![12, 12, 12, 12, 5, 5, 0]);
        assert_eq!(bulk.positions[..3], [bulk.positions[0]; 3]);
        assert!(bulk
            .seen
            .iter()
            .take(6)
            .all(|s| s.len() == 1 && s[0].1.is_some()));
        // Rounds 0-2: robots 1 and 4 on distinct nodes, 2 and 3 in their
        // heads, the Byzantine pair together (5 walks); rounds 3-4: robot
        // 2 has joined robot 1 (4 walks); round 5: so has robot 3 (3
        // walks); round 6 is stepped, as the Byzantine pair's preludes
        // have ended; rounds 7-11: robots 1-3 and robot 4 (2 walks).
        assert_eq!(walked, 3 * 5 + 2 * 4 + 3 + 5 * 2);
        assert_eq!(
            walked_alone,
            4 * 11 + 2 * 6,
            "a trace walks every robot alone"
        );
    }

    #[test]
    fn honest_invalid_tail_port_fails_at_its_round() {
        let mut e: Engine<String> = Engine::new(ring(8).unwrap(), EngineConfig::default());
        let tail: Arc<[Port]> = vec![0, 1, 0, 1, 0, 0, 5, 0].into();
        for id in [1, 2] {
            let walker = Preluded::new(id, Arc::clone(&tail), 1);
            e.add_robot(Flavor::Honest, 3, Box::new(walker));
        }
        let err = e.run_epoch(u64::MAX).unwrap_err();
        let (round, positions) = (e.round(), e.world().positions());
        assert_eq!(round, 6);
        assert_eq!(positions[0], positions[1], "both walked six ports");
        assert_eq!(
            err,
            RunError::InvalidMove {
                robot: RobotId(1),
                node: positions[0],
                port: 5,
                degree: 2,
            }
        );
    }
}
