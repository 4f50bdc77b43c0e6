//! The synchronous round engine.
//!
//! # Hot-path architecture
//!
//! [`Engine::step`] executes millions of times per Table 1 cell, so its
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
//! Rounds that need no stepping bypass [`Engine::step`] altogether: an
//! all-idle stretch is skipped, and a stretch where every active robot is
//! idle or scripted ([`Controller::scripted`]) is applied in bulk by
//! `Engine::apply_segment`, which moves robots straight through the
//! [`World`] and leaves the arenas stale for the next stepped round to
//! rebuild.
//!
//! # Dynamic worlds: events and epochs
//!
//! A long-lived run is a sequence of **epochs** separated by
//! [`WorldEvent`]s — robots joining or leaving, the graph being swapped
//! for an edge failure or heal. [`Engine::apply_world_event`] is the
//! single mutation primitive: it edits the [`World`] and the engine's
//! parallel per-robot arrays, then invalidates the scratch arenas
//! (`scratch.ready = false`), so the next stepped round lazily rebuilds
//! occupancy, rosters, and the faking list from scratch —
//! invalidate-and-rebuild *is* the coherence strategy, reusing the exact
//! O(n + k) path `add_robot` has always used. [`Engine::begin_epoch`]
//! reseats the whole cast through that primitive and snapshots-and-clears
//! the metrics; [`Engine::run_epoch`] drives rounds to honest termination
//! or a scheduled stop (a static run is one epoch stopped at `u64::MAX`,
//! with `epoch_base` 0); [`Engine::into_trace`] ends the run and publishes
//! the telemetry report; [`Engine::advance_to`] jumps the round clock
//! across inter-epoch quiescence (after honest termination nothing
//! observable happens until the next event, by the same argument that
//! licenses idle fast-forwarding). The round clock, the cumulative trace,
//! and the telemetry recorder persist across epochs; see `bd-dynamic` for
//! the scheduling layer.

use crate::config::EngineConfig;
use crate::controller::{Controller, MoveChoice};
use crate::error::RunError;
use crate::ids::{Flavor, RobotId};
use crate::metrics::RunMetrics;
use crate::observation::{ArrivalInfo, Observation, Publication};
use crate::trace::{Event, Trace};
use crate::world::World;
use bd_graphs::{NodeId, Port, PortGraph};
use bd_telemetry::EngineTelemetry;
use std::sync::Arc;

/// Per-round scratch arenas owned by the engine and reused across rounds.
/// All node-indexed vectors have one slot per graph node; robot-indexed
/// vectors one slot per robot. Invalidated (and lazily rebuilt) when the
/// robot set changes.
struct Scratch<M> {
    /// Whether the arenas reflect the current robot set.
    ready: bool,
    /// Robot indices at each node (order arbitrary; rosters sort).
    at_node: Vec<Vec<usize>>,
    /// Sorted claimed-ID roster per node; rebuilt only for dirty nodes.
    roster: Vec<Vec<RobotId>>,
    /// Per-node roster-stale flag, deduplicating `dirty_nodes`.
    dirty: Vec<bool>,
    /// Queue of nodes whose roster must be rebuilt this round.
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
    /// Per-robot activity mask for the round.
    active: Vec<bool>,
    /// Per-robot move decisions for the round.
    choices: Vec<MoveChoice>,
}

impl<M> Default for Scratch<M> {
    fn default() -> Self {
        Scratch {
            ready: false,
            at_node: Vec::new(),
            roster: Vec::new(),
            dirty: Vec::new(),
            dirty_nodes: Vec::new(),
            faking: Vec::new(),
            bulletins: Vec::new(),
            touched: Vec::new(),
            pending: Vec::new(),
            active: Vec::new(),
            choices: Vec::new(),
        }
    }
}

impl<M> Scratch<M> {
    /// Mark `node`'s roster stale (idempotent within a round).
    fn mark_dirty(dirty: &mut [bool], dirty_nodes: &mut Vec<NodeId>, node: NodeId) {
        if !dirty[node] {
            dirty[node] = true;
            dirty_nodes.push(node);
        }
    }
}

/// What the engine may do from the current round without stepping it
/// (see [`Engine::drive`]).
enum Horizon {
    /// Some active robot acts this round: step it.
    Step,
    /// Every active robot is idle until at least this absolute round.
    Idle(u64),
    /// Every active robot is idle (until at least `idle`) or scripted (for
    /// at least `script` rounds).
    Scripted { idle: u64, script: u64 },
}

/// A mid-run mutation of the simulated world, applied between rounds via
/// [`Engine::apply_world_event`]. Each variant keeps the engine's
/// per-robot arrays and scratch arenas coherent; the `bd-dynamic` crate
/// schedules these at exact round numbers.
pub enum WorldEvent<M> {
    /// A robot materializes at `node` and starts acting next round.
    Join {
        /// Fault flavor of the newcomer.
        flavor: Flavor,
        /// Node it appears on.
        node: NodeId,
        /// Its controller (the true ID is taken from it).
        controller: Box<dyn Controller<M>>,
    },
    /// The robot with true identity `id` vanishes from the world.
    Leave {
        /// True ID of the leaver (claimed IDs cannot be targeted).
        id: RobotId,
    },
    /// The graph is replaced — an edge failed or healed. Every robot must
    /// still stand on a valid node; arrival port memory is cleared because
    /// it referred to the old labeling.
    Graph {
        /// The replacement graph.
        graph: Arc<PortGraph>,
    },
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
            config,
            round: 0,
            epoch_base: 0,
            arrivals: Vec::new(),
            terminated_logged: Vec::new(),
            metrics: RunMetrics::default(),
            trace: Trace::default(),
            scratch: Scratch::default(),
            telemetry: if bd_telemetry::counters_enabled() {
                Some(EngineTelemetry::new(Vec::new()))
            } else {
                None
            },
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
        let id = controller.id();
        self.world.add_robot(id, flavor, start);
        self.controllers.push(controller);
        self.arrivals.push(None);
        self.terminated_logged.push(false);
        // Robot set changed: rebuild the arenas lazily at the next step.
        self.scratch.ready = false;
    }

    /// Apply one [`WorldEvent`] between rounds. The single mutation
    /// primitive for dynamic worlds: every variant edits the world and the
    /// engine's parallel per-robot arrays in lockstep, then invalidates the
    /// scratch arenas so the next stepped round rebuilds occupancy,
    /// rosters, and the ID-faking list coherently.
    pub fn apply_world_event(&mut self, event: WorldEvent<M>) -> Result<(), RunError> {
        match event {
            WorldEvent::Join {
                flavor,
                node,
                controller,
            } => {
                if node >= self.world.graph().n() {
                    return Err(RunError::BadScenario(format!(
                        "join targets nonexistent node {node} (graph has {} nodes)",
                        self.world.graph().n()
                    )));
                }
                self.world.add_robot(controller.id(), flavor, node);
                self.controllers.push(controller);
                self.arrivals.push(None);
                self.terminated_logged.push(false);
            }
            WorldEvent::Leave { id } => {
                let i = self
                    .world
                    .robots()
                    .iter()
                    .position(|r| r.id == id)
                    .ok_or_else(|| {
                        RunError::BadScenario(format!("no robot with true ID {id} to remove"))
                    })?;
                self.world.remove_robot(i);
                self.controllers.remove(i);
                self.arrivals.remove(i);
                self.terminated_logged.remove(i);
            }
            WorldEvent::Graph { graph } => {
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
                // Arrival port pairs referred to the old graph's labeling.
                for a in self.arrivals.iter_mut() {
                    *a = None;
                }
            }
        }
        self.scratch.ready = false;
        Ok(())
    }

    /// Reseat the whole cast for a new epoch: every current robot leaves,
    /// the given seats join (all through [`Engine::apply_world_event`]),
    /// and the metrics are snapshot-and-cleared so per-epoch measurements
    /// never accumulate across topology changes. The round clock, the
    /// cumulative trace, and the telemetry recorder persist.
    pub fn begin_epoch<I>(&mut self, seats: I) -> Result<(), RunError>
    where
        I: IntoIterator<Item = (Flavor, NodeId, Box<dyn Controller<M>>)>,
    {
        while let Some(last) = self.world.robots().last() {
            let id = last.id;
            self.apply_world_event(WorldEvent::Leave { id })?;
        }
        for (flavor, node, controller) in seats {
            self.apply_world_event(WorldEvent::Join {
                flavor,
                node,
                controller,
            })?;
        }
        self.metrics = RunMetrics::default();
        self.epoch_base = self.round;
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

    /// (Re)build the scratch arenas from the current world. O(n + k); runs
    /// once per run (and after every `add_robot`), never per round.
    fn rebuild_scratch(&mut self) {
        let n = self.world.graph().n();
        let k = self.world.num_robots();
        let s = &mut self.scratch;
        s.at_node.resize_with(n, Vec::new);
        s.roster.resize_with(n, Vec::new);
        s.bulletins.resize_with(n, Vec::new);
        s.dirty.clear();
        s.dirty.resize(n, false);
        s.dirty_nodes.clear();
        s.touched.clear();
        s.pending.clear();
        for list in &mut s.at_node {
            list.clear();
        }
        for roster in &mut s.roster {
            roster.clear();
        }
        for bulletin in &mut s.bulletins {
            bulletin.clear();
        }
        s.faking.clear();
        for i in 0..k {
            let robot = self.world.robot(i);
            s.at_node[robot.position].push(i);
            if robot.flavor.can_fake_id() {
                s.faking.push(i);
            }
        }
        // Every occupied node needs an initial roster.
        for node in 0..n {
            if !s.at_node[node].is_empty() {
                Scratch::<M>::mark_dirty(&mut s.dirty, &mut s.dirty_nodes, node);
            }
        }
        s.ready = true;
    }

    /// Read-only world access (for verifiers and tests).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Rounds elapsed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Whether every honest robot has terminated.
    fn all_honest_terminated(&self) -> bool {
        self.world
            .robots()
            .iter()
            .zip(&self.controllers)
            .all(|(slot, c)| slot.flavor != Flavor::Honest || c.terminated())
    }

    /// What the active robots let the engine do from the current round:
    /// step it, skip to the earliest idle horizon (every robot idle), or
    /// apply a scripted segment (every robot idle or scripted). Horizons
    /// are absolute; `script` is the shortest script's length.
    fn horizon(&self) -> Horizon {
        // Idle promises and scripts are epoch-local (controllers never see
        // the absolute clock); shift horizons by the epoch base before
        // comparing with `self.round`.
        let epoch_base = self.epoch_base;
        let local = self.round - epoch_base;
        let mut idle = u64::MAX;
        let mut script: Option<u64> = None;
        for c in self.controllers.iter().filter(|c| !c.terminated()) {
            match c.idle_until() {
                Some(r) => idle = idle.min(r.saturating_add(epoch_base)),
                None => match c.scripted(local).len() as u64 {
                    0 => return Horizon::Step,
                    len => script = Some(script.map_or(len, |s| s.min(len))),
                },
            }
        }
        match script {
            None => Horizon::Idle(idle),
            Some(script) => Horizon::Scripted { idle, script },
        }
    }

    /// The round loop behind [`Engine::run_epoch`]. Returns whether every
    /// honest robot terminated; `false` means the clock reached `stop_at`
    /// first.
    fn drive(&mut self, stop_at: u64) -> Result<bool, RunError> {
        loop {
            if self.all_honest_terminated() {
                return Ok(true);
            }
            if self.round >= stop_at {
                return Ok(false);
            }
            if self.round >= self.config.max_rounds {
                return Err(RunError::RoundLimit {
                    limit: self.config.max_rounds,
                });
            }
            if self.config.fast_forward {
                // `ff_overshoot` is deliberately-injected breakage (0 in
                // every real config): it pushes a jump or segment past the
                // round the earliest idle robot acts in, losing that
                // action — the bug class the oracle-differential harness
                // must catch.
                let overshoot = self.config.ff_overshoot;
                match self.horizon() {
                    Horizon::Step => {}
                    // Skipped rounds are rounds in which *no* robot acts,
                    // so no bulletin is ever read — which is exactly what
                    // licenses controllers to declare idleness (see
                    // `Controller::idle_until`).
                    Horizon::Idle(target) => {
                        // Never jump past a scheduled stop: the world
                        // mutates there, which idle promises know nothing
                        // about.
                        let target = target.saturating_add(overshoot).min(stop_at);
                        if target > self.round + 1 {
                            if target >= self.config.max_rounds {
                                // The earliest round any robot acts again
                                // is already past the cap: the run cannot
                                // finish. Error *now*, leaving `self.round`
                                // at the true executed round instead of
                                // silently teleporting it to the cap and
                                // failing one iteration later.
                                return Err(RunError::RoundLimit {
                                    limit: self.config.max_rounds,
                                });
                            }
                            if let Some(t) = self.telemetry.as_deref_mut() {
                                t.counters.ff_jumps += 1;
                                t.counters.rounds_skipped += target - self.round;
                            }
                            self.metrics.rounds_skipped += target - self.round;
                            self.round = target;
                            continue;
                        }
                    }
                    // Scripted rounds read nothing and publish nothing, so
                    // they are applied without rosters or bulletins (see
                    // `Controller::scripted`). The segment stops where a
                    // stepped run could first differ: an idle robot's
                    // horizon, the stop round, the cap (the loop head then
                    // raises `RoundLimit` exactly as stepping would), and
                    // the next telemetry phase mark.
                    Horizon::Scripted { idle, script } => {
                        let mut end = (self.round + script)
                            .min(idle.saturating_add(overshoot))
                            .min(stop_at)
                            .min(self.config.max_rounds);
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
            }
            self.step()?;
        }
    }

    /// Apply the scripted segment `[self.round, end)` in bulk: every
    /// robot without an idle horizon is scripted (see
    /// [`Engine::horizon`]), every other one stays put. Positions,
    /// odometers, arrivals, the trace, termination records and the run
    /// metrics end up exactly as stepping the segment would leave them;
    /// rosters and bulletins are not touched, so the arenas are marked
    /// stale for the next stepped round to rebuild.
    fn apply_segment(&mut self, end: u64) -> Result<(), RunError> {
        let start = self.round;
        let rounds = end - start;
        let local = start - self.epoch_base;
        let Engine {
            world,
            controllers,
            config,
            round,
            arrivals,
            metrics,
            trace,
            scratch,
            telemetry,
            ..
        } = self;
        #[cfg(debug_assertions)]
        for c in controllers.iter().filter(|c| !c.terminated()) {
            for r in local..local + rounds {
                debug_assert_eq!(
                    c.subrounds_wanted(r),
                    1,
                    "robot {} wants sub-rounds inside a scripted segment",
                    c.id()
                );
            }
        }
        let scripts: Vec<(usize, &[Port])> = controllers
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.terminated() && c.idle_until().is_none())
            .map(|(i, c)| (i, c.scripted(local)))
            .collect();
        // A robot that stays keeps no arrival; scripted robots overwrite
        // theirs every round below.
        for a in arrivals.iter_mut() {
            *a = None;
        }
        let mut moved = 0u64;
        // Round-major, robot order within a round: the trace records
        // events exactly as stepping would.
        for t in 0..rounds as usize {
            let round_now = start + t as u64;
            for &(i, script) in &scripts {
                let port = script[t];
                let node = world.robot(i).position;
                let degree = world.graph().degree(node);
                if port >= degree {
                    if world.robot(i).flavor == Flavor::Honest {
                        *round = round_now;
                        return Err(RunError::InvalidMove {
                            robot: world.robot(i).id,
                            node,
                            port,
                            degree,
                        });
                    }
                    // Byzantine robots cannot teleport; clamp to Stay.
                    arrivals[i] = None;
                    continue;
                }
                let (exit_port, entry_port) = world.apply_move(i, port);
                arrivals[i] = Some(ArrivalInfo {
                    exit_port,
                    entry_port,
                });
                moved += 1;
                if config.record_trace {
                    trace.events.push(Event::Moved {
                        round: round_now,
                        robot: world.robot(i).id,
                        from: node,
                        port,
                        to: world.robot(i).position,
                    });
                }
            }
        }
        let scripted: Vec<usize> = scripts.into_iter().map(|(i, _)| i).collect();
        for &i in &scripted {
            controllers[i].advance_script(local, rounds);
        }
        metrics.subrounds_executed += rounds;
        if let Some(t) = telemetry.as_deref_mut() {
            t.counters.ff_jumps += 1;
            t.counters.rounds_scripted += rounds;
            t.counters.subrounds += rounds;
            t.counters.moves += moved;
        }
        scratch.ready = false;
        *round = end;
        self.log_terminations(end - 1);
        Ok(())
    }

    /// Record `round` as the termination round of every robot reporting
    /// terminated for the first time.
    fn log_terminations(&mut self, round: u64) {
        for i in 0..self.world.num_robots() {
            if !self.terminated_logged[i] && self.controllers[i].terminated() {
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
        }
    }

    /// Execute a single round: sub-round communication, then simultaneous
    /// movement. Runs entirely on the scratch arenas — the steady state
    /// allocates nothing.
    pub fn step(&mut self) -> Result<(), RunError> {
        if !self.scratch.ready {
            self.rebuild_scratch();
        }
        let nrobots = self.world.num_robots();
        // Split borrows: every loop below borrows disjoint fields.
        let Engine {
            world,
            controllers,
            config,
            round,
            epoch_base,
            arrivals,
            metrics,
            trace,
            scratch,
            telemetry,
            ..
        } = self;
        let Scratch {
            at_node,
            roster,
            dirty,
            dirty_nodes,
            faking,
            bulletins,
            touched,
            pending,
            active,
            choices,
            ..
        } = scratch;
        let round_now = *round;
        // Controllers live in *epoch-local* time: a cast seated by
        // `begin_epoch` at absolute round `r` sees rounds `0, 1, …` like a
        // fresh run, so registry timelines and idle promises need no
        // epoch awareness. The trace and telemetry keep the absolute
        // clock. (`epoch_base` is 0 outside dynamic runs — the frames
        // coincide.)
        let local_round = round_now - *epoch_base;
        // Observability: `None` when disabled — every instrumentation site
        // below is a branch on this local `Option` and nothing more. Close
        // any phase boundary reached (single compare; crossings are rare,
        // and fast-forward jumps close several at once).
        let mut telem = telemetry.as_deref_mut();
        if let Some(t) = telem.as_mut() {
            if round_now >= t.next_mark {
                t.on_round(round_now);
            }
        }

        // Active = not terminated. Terminated robots stay put silently but
        // are *physically* present (they appear in rosters).
        active.clear();
        active.extend(controllers.iter().map(|c| !c.terminated()));

        // Rosters: nodes whose occupancy changed last round are already in
        // the dirty queue; nodes hosting ID-faking robots re-sort every
        // round because their claimed IDs may have changed.
        for &i in faking.iter() {
            Scratch::<M>::mark_dirty(dirty, dirty_nodes, world.robot(i).position);
        }
        for &node in dirty_nodes.iter() {
            let r = &mut roster[node];
            r.clear();
            for &i in &at_node[node] {
                let slot = world.robot(i);
                r.push(if slot.flavor.can_fake_id() {
                    controllers[i].claimed_id()
                } else {
                    slot.id
                });
            }
            r.sort_unstable();
            dirty[node] = false;
        }
        if let Some(t) = telem.as_mut() {
            t.counters.roster_resorts += dirty_nodes.len() as u64;
            for &node in dirty_nodes.iter() {
                let len = roster[node].len() as u64;
                t.counters.roster_entries += len;
                if len > t.counters.roster_hwm {
                    t.counters.roster_hwm = len;
                }
            }
        }
        dirty_nodes.clear();

        // Sub-round communication. Run as many sub-rounds as any active
        // robot requests (walking phases request 1, so this stays cheap).
        let subrounds = controllers
            .iter()
            .zip(active.iter())
            .filter(|&(_, &a)| a)
            .map(|(c, _)| c.subrounds_wanted(local_round))
            .max()
            .unwrap_or(1)
            .max(1);
        for sub in 0..subrounds {
            pending.clear();
            for i in 0..nrobots {
                if !active[i] {
                    continue;
                }
                let node = world.robot(i).position;
                let obs = Observation {
                    round: local_round,
                    subround: sub,
                    subrounds,
                    degree: world.graph().degree(node),
                    roster: &roster[node],
                    bulletin: &bulletins[node],
                    arrival: if sub == 0 { arrivals[i] } else { None },
                };
                if let Some(body) = controllers[i].act(&obs) {
                    let slot = world.robot(i);
                    let sender = if slot.flavor.can_fake_id() {
                        controllers[i].claimed_id()
                    } else {
                        slot.id
                    };
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
            metrics.messages += pending.len() as u64;
            metrics.subrounds_executed += 1;
            if let Some(t) = telem.as_mut() {
                t.counters.subrounds += 1;
                t.counters.bulletin_writes += pending.len() as u64;
                t.counters.bulletin_reads += active.iter().filter(|&&a| a).count() as u64;
                let held = pending.len() as u64;
                if held > t.counters.bulletin_hwm {
                    t.counters.bulletin_hwm = held;
                }
            }
            // Flush after the loop: messages published in sub-round `s`
            // become visible in sub-round `s + 1`, never within `s`.
            for (node, publication) in pending.drain(..) {
                if bulletins[node].is_empty() {
                    touched.push(node);
                }
                bulletins[node].push(publication);
            }
            // Skip remaining sub-rounds if the round has gone silent and no
            // robot asked for more than one sub-round anyway.
            if subrounds == 1 {
                break;
            }
        }

        // Movement decisions, then simultaneous application.
        choices.clear();
        for i in 0..nrobots {
            if !active[i] {
                choices.push(MoveChoice::Stay);
                continue;
            }
            let node = world.robot(i).position;
            let obs = Observation {
                round: local_round,
                subround: subrounds.saturating_sub(1),
                subrounds,
                degree: world.graph().degree(node),
                roster: &roster[node],
                bulletin: &bulletins[node],
                arrival: None,
            };
            choices.push(controllers[i].decide_move(&obs));
        }

        for i in 0..nrobots {
            let node = world.robot(i).position;
            let degree = world.graph().degree(node);
            match choices[i] {
                MoveChoice::Stay => {
                    arrivals[i] = None;
                    if config.record_trace && active[i] {
                        trace.events.push(Event::Stayed {
                            round: round_now,
                            robot: world.robot(i).id,
                            at: node,
                        });
                    }
                }
                MoveChoice::Move(port) => {
                    if port >= degree {
                        if world.robot(i).flavor == Flavor::Honest {
                            return Err(RunError::InvalidMove {
                                robot: world.robot(i).id,
                                node,
                                port,
                                degree,
                            });
                        }
                        // Byzantine robots cannot teleport; clamp to Stay.
                        arrivals[i] = None;
                        continue;
                    }
                    let (exit_port, entry_port) = world.apply_move(i, port);
                    arrivals[i] = Some(ArrivalInfo {
                        exit_port,
                        entry_port,
                    });
                    let to = world.robot(i).position;
                    // Incremental occupancy update: only the two endpoint
                    // rosters go stale.
                    let from_list = &mut at_node[node];
                    let pos = from_list
                        .iter()
                        .position(|&r| r == i)
                        .expect("robot indexed at its node");
                    from_list.swap_remove(pos);
                    at_node[to].push(i);
                    Scratch::<M>::mark_dirty(dirty, dirty_nodes, node);
                    Scratch::<M>::mark_dirty(dirty, dirty_nodes, to);
                    if let Some(t) = telem.as_mut() {
                        t.counters.moves += 1;
                        t.counters.dirty_marks += 2;
                    }
                    if config.record_trace {
                        trace.events.push(Event::Moved {
                            round: round_now,
                            robot: world.robot(i).id,
                            from: node,
                            port,
                            to,
                        });
                    }
                }
            }
        }

        // Reset the bulletins through the touched list (O(publishing
        // nodes), not O(n)) so the next round starts clean.
        if let Some(t) = telem.as_mut() {
            t.counters.bulletin_clears += touched.len() as u64;
            t.counters.rounds_stepped += 1;
            let depth = dirty_nodes.len() as u64;
            if depth > t.counters.dirty_hwm {
                t.counters.dirty_hwm = depth;
            }
        }
        for node in touched.drain(..) {
            bulletins[node].clear();
        }

        *round += 1;
        self.log_terminations(round_now);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_graphs::generators::{oriented_ring, ring};
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    /// Walks a fixed port script, then terminates.
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
        fn terminated(&self) -> bool {
            self.step >= self.script.len()
        }
    }

    /// A [`Walker`] that also promises its remaining script
    /// ([`Controller::scripted`]), so fast-forwarding engines apply it in
    /// bulk. Logs every `decide_move` call and, at sub-round 0 of every
    /// stepped round after its script, the round and arrival it observed.
    struct Scripted {
        walker: Walker,
        calls: Rc<Cell<u64>>,
        seen: Rc<RefCell<Vec<(u64, Option<ArrivalInfo>)>>>,
        stop_after: usize,
    }

    impl Scripted {
        /// Walks `script`, then looks around for `stop_after` rounds.
        fn new(id: u64, script: Vec<Port>, stop_after: usize) -> Self {
            Scripted {
                walker: Walker {
                    id: RobotId(id),
                    script,
                    step: 0,
                },
                calls: Rc::default(),
                seen: Rc::default(),
                stop_after,
            }
        }
    }

    impl Controller<String> for Scripted {
        fn id(&self) -> RobotId {
            self.walker.id
        }
        fn act(&mut self, obs: &Observation<'_, String>) -> Option<String> {
            if self.walker.terminated() && obs.subround == 0 {
                self.seen.borrow_mut().push((obs.round, obs.arrival));
            }
            None
        }
        fn decide_move(&mut self, obs: &Observation<'_, String>) -> MoveChoice {
            self.calls.set(self.calls.get() + 1);
            self.walker.decide_move(obs)
        }
        fn terminated(&self) -> bool {
            self.walker.terminated() && self.seen.borrow().len() >= self.stop_after
        }
        fn scripted(&self, _round: u64) -> &[Port] {
            &self.walker.script[self.walker.step..]
        }
        fn advance_script(&mut self, _round: u64, rounds: u64) {
            self.walker.step += rounds as usize;
        }
    }

    /// Idle until round `wake`; records the first round it is called in
    /// from then on, stays put, and terminates.
    struct Sleeper {
        id: RobotId,
        wake: u64,
        woke: Rc<Cell<Option<u64>>>,
    }

    impl Controller<String> for Sleeper {
        fn id(&self) -> RobotId {
            self.id
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
        fn terminated(&self) -> bool {
            self.woke.get().is_some()
        }
        fn idle_until(&self) -> Option<u64> {
            self.woke.get().is_none().then_some(self.wake)
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
        fn terminated(&self) -> bool {
            self.rounds >= 1
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
        // Step a cast, churn it with every event class, step again: the
        // lazily rebuilt arenas must agree with the mutated world.
        let g = oriented_ring(6).unwrap();
        let mut e: Engine<String> = Engine::new(g, EngineConfig::default().traced());
        e.add_robot(
            Flavor::Honest,
            0,
            Box::new(Walker {
                id: RobotId(1),
                script: vec![0, 0, 0, 0],
                step: 0,
            }),
        );
        e.add_robot(
            Flavor::Honest,
            3,
            Box::new(Walker {
                id: RobotId(2),
                script: vec![0],
                step: 0,
            }),
        );
        e.step().unwrap();
        e.step().unwrap();
        // Robot 2 leaves; a newcomer joins on node 5.
        e.apply_world_event(WorldEvent::Leave { id: RobotId(2) })
            .unwrap();
        e.apply_world_event(WorldEvent::Join {
            flavor: Flavor::Honest,
            node: 5,
            controller: Box::new(Walker {
                id: RobotId(3),
                script: vec![0],
                step: 0,
            }),
        })
        .unwrap();
        // The graph is swapped for an identical copy (labels coherent).
        let swap = std::sync::Arc::new(oriented_ring(6).unwrap());
        e.apply_world_event(WorldEvent::Graph { graph: swap })
            .unwrap();
        e.step().unwrap();
        e.step().unwrap();
        // Seating order after the churn: robot 1 (walked 4 steps from 0),
        // robot 3 (walked 1 step from 5).
        assert_eq!(e.world().positions(), vec![4, 0]);
        assert_eq!(e.world().robot(0).id, RobotId(1));
        assert_eq!(e.world().robot(1).id, RobotId(3));
        assert_eq!(e.round(), 4);
        // Unknown leaver and out-of-range join are scenario errors.
        assert!(e
            .apply_world_event(WorldEvent::Leave { id: RobotId(77) })
            .is_err());
        let g2: Engine<String> = Engine::new(ring(4).unwrap(), EngineConfig::default());
        drop(g2);
        assert!(e
            .apply_world_event(WorldEvent::Join {
                flavor: Flavor::Honest,
                node: 99,
                controller: Box::new(Walker {
                    id: RobotId(9),
                    script: vec![],
                    step: 0,
                }),
            })
            .is_err());
    }

    #[test]
    fn graph_swap_refuses_to_strand_robots() {
        let g = ring(6).unwrap();
        let mut e: Engine<String> = Engine::new(g, EngineConfig::default());
        e.add_robot(
            Flavor::Honest,
            5,
            Box::new(Walker {
                id: RobotId(1),
                script: vec![],
                step: 0,
            }),
        );
        let smaller = std::sync::Arc::new(ring(4).unwrap());
        assert!(matches!(
            e.apply_world_event(WorldEvent::Graph { graph: smaller }),
            Err(RunError::BadScenario(_))
        ));
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
            fn terminated(&self) -> bool {
                self.done
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

    /// What a run of the scripted cast leaves behind, for comparing
    /// engines: positions, odometers, the movement-relevant trace events,
    /// the scripted walker's post-script observations and its
    /// `decide_move` call count, and the sleeper's wake round.
    fn run_scripted_cast(
        config: EngineConfig,
    ) -> (
        Vec<NodeId>,
        Vec<u64>,
        Vec<Event>,
        Vec<(u64, Option<ArrivalInfo>)>,
        u64,
        Option<u64>,
    ) {
        // Robot 1 walks five ports then looks for one round; robot 2 walks
        // three and terminates; robot 3 sleeps until round 7. Scripts
        // differ in length, so a fast-forwarding engine applies two
        // segments ([0, 3) and [3, 5)) and steps round 5.
        let g = ring(7).unwrap();
        let mut e: Engine<String> = Engine::new(g, config.traced());
        let long = Scripted::new(1, vec![0, 1, 0, 0, 1], 1);
        let (calls, seen) = (long.calls.clone(), long.seen.clone());
        e.add_robot(Flavor::Honest, 0, Box::new(long));
        e.add_robot(
            Flavor::Honest,
            3,
            Box::new(Scripted::new(2, vec![1, 1, 0], 0)),
        );
        let woke = Rc::new(Cell::new(None));
        e.add_robot(
            Flavor::Honest,
            5,
            Box::new(Sleeper {
                id: RobotId(3),
                wake: 7,
                woke: woke.clone(),
            }),
        );
        let out = e.run_epoch(u64::MAX).unwrap();
        let odometers = e.world().robots().iter().map(|r| r.moves).collect();
        let events = e
            .into_trace()
            .events
            .into_iter()
            .filter(|ev| !matches!(ev, Event::Stayed { .. }))
            .collect();
        let seen = seen.borrow().clone();
        (
            out.final_positions,
            odometers,
            events,
            seen,
            calls.get(),
            woke.get(),
        )
    }

    #[test]
    fn scripted_segments_match_stepping() {
        let (pos, odo, events, seen, calls, woke) = run_scripted_cast(EngineConfig::default());
        let stepped = run_scripted_cast(EngineConfig::default().without_fast_forward());
        assert_eq!(pos, stepped.0, "positions");
        assert_eq!(odo, stepped.1, "odometers");
        assert_eq!(events, stepped.2, "Moved order and Terminated rounds");
        assert_eq!(seen, stepped.3, "arrival on the first stepped round");
        assert_eq!(woke, stepped.5);
        assert_eq!(odo, vec![5, 3, 0]);
        // Robot 1 observes round 5 and the arrival of its round-4 move.
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].0, 5);
        assert!(seen[0].1.is_some(), "the last scripted move's arrival");
        assert!(events.contains(&Event::Terminated {
            round: 2,
            robot: RobotId(2),
            at: pos[1],
        }));
        // The walk itself was applied in bulk: only round 5 was stepped
        // for robot 1, against six stepped rounds without fast-forward.
        assert_eq!((calls, stepped.4), (1, 6));
    }

    #[test]
    fn scripted_segment_clamps_at_stop_and_cap() {
        let walker = || Box::new(Scripted::new(1, vec![0; 10], 0));
        for config in [
            EngineConfig::default(),
            EngineConfig::default().without_fast_forward(),
        ] {
            // A scheduled stop cuts the segment; the next epoch resumes
            // the script where it stopped.
            let mut e: Engine<String> = Engine::new(oriented_ring(16).unwrap(), config.clone());
            e.add_robot(Flavor::Honest, 0, walker());
            let cut = e.run_epoch(4).unwrap();
            assert!(!cut.terminated);
            assert_eq!((e.round(), cut.final_positions), (4, vec![4]));
            let rest = e.run_epoch(u64::MAX).unwrap();
            assert_eq!((e.round(), rest.final_positions), (10, vec![10]));

            // The cap cuts it too, with the error and clock of stepping.
            let capped = EngineConfig {
                max_rounds: 4,
                ..config
            };
            let mut e: Engine<String> = Engine::new(oriented_ring(16).unwrap(), capped);
            e.add_robot(Flavor::Honest, 0, walker());
            assert!(matches!(
                e.run_epoch(u64::MAX),
                Err(RunError::RoundLimit { limit: 4 })
            ));
            assert_eq!((e.round(), e.world().positions()), (4, vec![4]));
        }
    }

    #[test]
    fn overshoot_runs_a_segment_past_an_idle_horizon() {
        let woke_at = |config: EngineConfig| {
            let mut e: Engine<String> = Engine::new(oriented_ring(16).unwrap(), config);
            e.add_robot(
                Flavor::Honest,
                0,
                Box::new(Scripted::new(1, vec![0; 10], 0)),
            );
            let woke = Rc::new(Cell::new(None));
            e.add_robot(
                Flavor::Honest,
                8,
                Box::new(Sleeper {
                    id: RobotId(2),
                    wake: 3,
                    woke: woke.clone(),
                }),
            );
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
}
