//! Epoch-structured execution of event schedules.
//!
//! A [`DynamicSession`] runs a [`DynamicSpec`] as a sequence of
//! **epochs**. Epoch 0 is the base scenario verbatim. Every scheduled
//! event round ends the running epoch exactly there; the batch of events
//! at that round applies in list order to the quiescent world, here in
//! [`DynamicSession::run_with`] and not through an engine hook: joins
//! and leaves edit the session's inhabitant bookkeeping, and edge
//! failures and heals swap the graph through [`EpochBackend::set_graph`].
//! The next epoch is then planned afresh from the registry — fresh round
//! budget, fresh phase schedule, fresh controllers — on whatever topology
//! and cast the batch left behind, and `begin_epoch` reseats the whole
//! cast. Each epoch is independently verified and reported as an
//! [`EpochReport`].
//!
//! Each epoch runs through `bd-dispersion`'s one per-epoch pipeline,
//! [`run_epoch`], on any [`EpochBackend`] — the fast arena engine or the
//! naive reference engine in `bd-oracle` — so dynamic cells are
//! differential-testable exactly like static ones, and a static cell is
//! simply the one-epoch case.

use crate::error::DynamicError;
use crate::events::{EventKind, EventSchedule};
use bd_dispersion::registry::StartRequirement;
use bd_dispersion::runner::{ByzPlacement, StartConfig};
use bd_dispersion::verify::verify_with_capacity;
use bd_dispersion::{run_epoch, EpochBackend, Msg, Outcome, ScenarioSpec, Session};
use bd_graphs::{NodeId, PortGraph};
use bd_runtime::{Engine, EngineConfig, Trace};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Mixing constant for per-epoch seed derivation (golden-ratio odd
/// multiplier); epoch 0 uses the base seed verbatim.
const EPOCH_SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// A dynamic scenario: a base cell plus a timeline of world events.
/// Fully serde-able — this is what the `bdtr1` replay format pins and
/// what the fuzzer samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynamicSpec {
    /// The epoch-0 scenario (graph-independent half; the graph comes from
    /// the [`DynamicSession`]).
    pub base: ScenarioSpec,
    /// The event timeline.
    pub schedule: EventSchedule,
}

/// One epoch's verified result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochReport {
    /// Epoch index (0 = the base scenario).
    pub epoch: usize,
    /// Absolute round the epoch's cast was seated at.
    pub start_round: u64,
    /// Absolute round the epoch ended at (event round for interior
    /// epochs; termination or budget overrun for the last).
    pub end_round: u64,
    /// Whether every honest robot terminated within the epoch. Interior
    /// epochs cut short by an event report `false` without it being a
    /// failure; a `false` on the **final** epoch is a budget overrun.
    pub terminated: bool,
    /// The epoch's outcome, verified exactly like a static cell (rounds
    /// and phase annotations are epoch-local).
    pub outcome: Outcome,
}

/// What a full dynamic run produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynamicOutcome {
    /// One report per epoch, in order.
    pub epochs: Vec<EpochReport>,
    /// The absolute round clock at the end (sum of epoch spans plus the
    /// gaps jumped over by early-terminating interior epochs).
    pub total_rounds: u64,
    /// The cumulative cross-epoch trace (always recorded; replay equality
    /// rides on it).
    pub trace: Trace,
}

impl DynamicOutcome {
    /// Whether every epoch both terminated and verified dispersed.
    pub fn all_dispersed(&self) -> bool {
        self.epochs
            .iter()
            .all(|e| e.terminated && e.outcome.dispersed)
    }
}

/// A robot's whole-run identity, stable across epochs. `Leave` events
/// name inhabitants by index in join order (base cast `0..k`, later
/// joins append); per-epoch robot IDs are a planner detail underneath.
struct Inhabitant {
    honest: bool,
    position: NodeId,
    alive: bool,
}

/// A handle on one graph that dynamic scenarios run against.
#[derive(Clone)]
pub struct DynamicSession {
    graph: Arc<PortGraph>,
}

impl DynamicSession {
    /// A session over `graph` (epoch-0 topology; events mutate copies).
    pub fn new(graph: impl Into<Arc<PortGraph>>) -> Self {
        DynamicSession {
            graph: graph.into(),
        }
    }

    /// The epoch-0 graph.
    pub fn graph(&self) -> &Arc<PortGraph> {
        &self.graph
    }

    /// Validate `spec` against this session's graph without running it.
    ///
    /// Checks, in order: the row supports explicit restarts (rows with
    /// [`StartRequirement::Gathered`] cannot re-seed from scattered
    /// positions); the base scenario plans; events are listed in
    /// non-decreasing round order with every round ≥ 1; each event is
    /// individually well-formed (join node exists at that point in the
    /// timeline, leave targets a live inhabitant, capacity ≥ 1, a
    /// strong-flavored adversary only switches in under a strong row);
    /// and after every batch the population still has at least one robot
    /// with Byzantine strictly in the minority (`f < k`) and the mutated
    /// graph is still connected (edges may fail and heal *within* one
    /// batch, only the settled batch result must be connected).
    pub fn validate(&self, spec: &DynamicSpec) -> Result<(), DynamicError> {
        let row = spec.base.algo.row();
        if row.start_requirement() == StartRequirement::Gathered {
            return Err(DynamicError::Validation(format!(
                "{} requires a gathered start; epochs restart from explicit \
                 positions, so pick a row with an Any/GathersFirst requirement",
                row.name()
            )));
        }
        let plan0 = Session::new(Arc::clone(&self.graph)).plan(&spec.base)?;

        let mut honest: Vec<bool> = plan0.honest.clone();
        let mut alive: Vec<bool> = vec![true; honest.len()];
        let mut graph: PortGraph = (*self.graph).clone();
        let mut last_at = 0u64;
        for ev in &spec.schedule.events {
            if ev.at < 1 {
                return Err(DynamicError::Validation(
                    "events fire at rounds >= 1 (round 0 is the base start)".into(),
                ));
            }
            if ev.at < last_at {
                return Err(DynamicError::Validation(
                    "events out of order; build schedules with EventSchedule::new".into(),
                ));
            }
            last_at = ev.at;
        }
        for (at, batch) in spec.schedule.batches() {
            for kind in batch {
                match *kind {
                    EventKind::Join { node, honest: h } => {
                        if node >= graph.n() {
                            return Err(DynamicError::Validation(format!(
                                "join at round {at}: node {node} does not exist (n = {})",
                                graph.n()
                            )));
                        }
                        honest.push(h);
                        alive.push(true);
                    }
                    EventKind::Leave { robot } => {
                        if robot >= alive.len() || !alive[robot] {
                            return Err(DynamicError::Validation(format!(
                                "leave at round {at}: inhabitant {robot} is unknown or already gone"
                            )));
                        }
                        alive[robot] = false;
                    }
                    EventKind::EdgeFail { u, v } => {
                        graph = graph.without_edge(u, v)?;
                    }
                    EventKind::EdgeHeal { u, v } => {
                        graph = graph.with_edge(u, v)?;
                    }
                    EventKind::AdversarySwitch { adversary } => {
                        if adversary.needs_strong() && !row.strong() {
                            return Err(DynamicError::Validation(format!(
                                "adversary switch at round {at}: {adversary:?} needs the strong \
                                 flavor, which {} does not face",
                                row.name()
                            )));
                        }
                    }
                    EventKind::CapacityChange { capacity } => {
                        if capacity == 0 {
                            return Err(DynamicError::Validation(format!(
                                "capacity change at round {at}: capacity must be >= 1"
                            )));
                        }
                    }
                }
            }
            let k = alive.iter().filter(|&&a| a).count();
            let f = alive
                .iter()
                .zip(&honest)
                .filter(|&(&a, &h)| a && !h)
                .count();
            if k == 0 {
                return Err(DynamicError::Validation(format!(
                    "after the batch at round {at} no robots remain"
                )));
            }
            if f >= k {
                return Err(DynamicError::Validation(format!(
                    "after the batch at round {at} Byzantine robots are not a \
                     strict minority ({f} of {k})"
                )));
            }
            if !graph.is_connected() {
                return Err(DynamicError::Validation(format!(
                    "the batch at round {at} leaves the graph disconnected"
                )));
            }
        }
        Ok(())
    }

    /// Run `spec` on the fast arena engine with the default config and
    /// trace recording on (replay equality needs it).
    pub fn run(&self, spec: &DynamicSpec) -> Result<DynamicOutcome, DynamicError> {
        self.run_with(spec, |g, c| Engine::<Msg>::new(g, c.traced()))
    }

    /// Run `spec` on the [`EpochBackend`] `make` builds from the epoch-0
    /// graph and the default config, which records no trace. This is the
    /// full epoch loop; callers tune through `make`, e.g.
    /// `|g, c| Engine::new(g, c.traced())` to record the trace,
    /// `|g, c| Engine::new(g, c.with_ff_overshoot(1))` for a sabotaged
    /// engine, or `|g, c| OracleEngine::new(g, c.traced())` to run the
    /// reference engine.
    pub fn run_with<B: EpochBackend>(
        &self,
        spec: &DynamicSpec,
        make: impl FnOnce(Arc<PortGraph>, EngineConfig) -> B,
    ) -> Result<DynamicOutcome, DynamicError> {
        self.validate(spec)?;
        let row = spec.base.algo.row();
        let mut backend = make(Arc::clone(&self.graph), EngineConfig::default());

        // Whole-run world state, mutated between epochs.
        let plan0 = Session::new(Arc::clone(&self.graph)).plan(&spec.base)?;
        let mut inhabitants: Vec<Inhabitant> = plan0
            .honest
            .iter()
            .zip(&plan0.starts)
            .map(|(&h, &p)| Inhabitant {
                honest: h,
                position: p,
                alive: true,
            })
            .collect();
        let mut current_graph = Arc::clone(&self.graph);
        let mut adversary = spec.base.adversary;
        let mut capacity_override: Option<usize> = None;

        let batches = spec.schedule.batches();
        let mut batch_iter = batches.into_iter().peekable();
        let mut epochs: Vec<EpochReport> = Vec::new();
        let mut epoch = 0usize;

        loop {
            // Seat this epoch's cast. Epoch 0 is the base spec verbatim
            // (so a dynamic run with an empty schedule is exactly the
            // static cell); later epochs restart the survivors from their
            // current positions under fresh IDs — a protocol re-bootstrap,
            // Byzantine-first so `ByzPlacement::LowIds` matches the mask.
            let (spec_e, order): (ScenarioSpec, Vec<usize>) = if epoch == 0 {
                (spec.base.clone(), (0..inhabitants.len()).collect())
            } else {
                let byz: Vec<usize> = (0..inhabitants.len())
                    .filter(|&i| inhabitants[i].alive && !inhabitants[i].honest)
                    .collect();
                let hon: Vec<usize> = (0..inhabitants.len())
                    .filter(|&i| inhabitants[i].alive && inhabitants[i].honest)
                    .collect();
                let f = byz.len();
                let order: Vec<usize> = byz.into_iter().chain(hon).collect();
                let k = order.len();
                let starts: Vec<NodeId> = order.iter().map(|&i| inhabitants[i].position).collect();
                let mut s = spec.base.clone();
                s.num_robots = k;
                s.num_byzantine = f;
                s.adversary = adversary;
                s.placement = ByzPlacement::LowIds;
                s.starts = StartConfig::Explicit(starts);
                s.seed = spec.base.seed ^ (epoch as u64).wrapping_mul(EPOCH_SEED_MIX);
                // Churn may push f past the row's tolerance; the epoch
                // still runs (and verification reports the violation).
                s.allow_overload =
                    spec.base.allow_overload || f > row.tolerance(current_graph.n(), k);
                (s, order)
            };

            let plan = Session::new(Arc::clone(&current_graph)).plan(&spec_e)?;
            let start_round = backend.round();
            let stop_at = match batch_iter.peek() {
                Some(&(at, _)) => at,
                None => start_round + row.round_budget(&plan) + 64,
            };
            let (mut outcome, terminated) = run_epoch(&mut backend, &spec_e, &plan, stop_at)?;
            if let Some(capacity) = capacity_override {
                // CapacityChange overrides the default ⌈(k−f)/n⌉ check.
                outcome.report = verify_with_capacity(
                    &outcome.final_positions,
                    &plan.honest,
                    &plan.ids,
                    capacity,
                );
                outcome.dispersed = outcome.report.ok;
            }
            // Write final positions back to the whole-run inhabitants.
            for (seat, &i) in order.iter().enumerate() {
                inhabitants[i].position = outcome.final_positions[seat];
            }
            epochs.push(EpochReport {
                epoch,
                start_round,
                end_round: backend.round(),
                terminated,
                outcome,
            });

            let Some((at, batch)) = batch_iter.next() else {
                break;
            };
            backend.advance_to(at)?;
            for kind in batch {
                match *kind {
                    EventKind::Join { node, honest } => inhabitants.push(Inhabitant {
                        honest,
                        position: node,
                        alive: true,
                    }),
                    EventKind::Leave { robot } => inhabitants[robot].alive = false,
                    EventKind::EdgeFail { u, v } => {
                        current_graph = Arc::new(current_graph.without_edge(u, v)?);
                        backend.set_graph(Arc::clone(&current_graph))?;
                    }
                    EventKind::EdgeHeal { u, v } => {
                        current_graph = Arc::new(current_graph.with_edge(u, v)?);
                        backend.set_graph(Arc::clone(&current_graph))?;
                    }
                    EventKind::AdversarySwitch { adversary: a } => adversary = a,
                    EventKind::CapacityChange { capacity } => capacity_override = Some(capacity),
                }
            }
            epoch += 1;
        }

        let total_rounds = backend.round();
        let trace = backend.into_trace();
        Ok(DynamicOutcome {
            epochs,
            total_rounds,
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::ScheduledEvent;
    use bd_dispersion::adversaries::AdversaryKind;
    use bd_dispersion::runner::Algorithm;
    use bd_graphs::generators::{erdos_renyi_connected, path, ring};

    #[test]
    fn empty_schedule_degenerates_to_the_static_cell() {
        let g = erdos_renyi_connected(9, 0.4, 3).unwrap();
        let base = ScenarioSpec::arbitrary(Algorithm::ArbitrarySqrtTh5, &g)
            .with_byzantine(1, AdversaryKind::Wanderer)
            .with_seed(11);
        let spec = DynamicSpec {
            base: base.clone(),
            schedule: EventSchedule::default(),
        };
        let dyn_out = DynamicSession::new(g.clone()).run(&spec).unwrap();
        let static_out = Session::new(g).run(&base).unwrap();
        assert_eq!(dyn_out.epochs.len(), 1);
        assert_eq!(dyn_out.epochs[0].outcome, static_out);
        assert!(dyn_out.epochs[0].terminated);
        assert_eq!(dyn_out.epochs[0].start_round, 0);
        assert_eq!(dyn_out.total_rounds, static_out.rounds);
    }

    #[test]
    fn churn_cell_runs_to_per_epoch_verified_dispersion() {
        // Ring of 8, six fault-free robots; one edge fails mid-run, a
        // robot joins and another leaves in one batch, the edge heals.
        let g = ring(8).unwrap();
        let base = ScenarioSpec::arbitrary(Algorithm::Baseline, &g)
            .with_robots(6)
            .with_seed(7);
        let spec = DynamicSpec {
            base,
            schedule: EventSchedule::new(vec![
                ScheduledEvent {
                    at: 3,
                    kind: EventKind::EdgeFail { u: 0, v: 1 },
                },
                ScheduledEvent {
                    at: 6,
                    kind: EventKind::Join {
                        node: 4,
                        honest: true,
                    },
                },
                ScheduledEvent {
                    at: 6,
                    kind: EventKind::Leave { robot: 0 },
                },
                ScheduledEvent {
                    at: 9,
                    kind: EventKind::EdgeHeal { u: 0, v: 1 },
                },
            ]),
        };
        let out = DynamicSession::new(g).run(&spec).unwrap();
        assert_eq!(out.epochs.len(), 4);
        // Interior epochs end exactly at their event rounds.
        assert_eq!(out.epochs[0].end_round, 3);
        assert_eq!(out.epochs[1].end_round, 6);
        assert_eq!(out.epochs[2].end_round, 9);
        // The final epoch runs to honest termination and verifies.
        assert!(out.epochs[3].terminated);
        assert!(out.epochs[3].outcome.dispersed);
        // Join + leave kept the cast at six robots.
        assert_eq!(out.epochs[3].outcome.final_positions.len(), 6);
        // Runs are reproducible event for event.
        let again = DynamicSession::new(ring(8).unwrap()).run(&spec).unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn capacity_override_changes_the_verdict() {
        let g = ring(6).unwrap();
        let base = ScenarioSpec::arbitrary(Algorithm::Baseline, &g)
            .with_robots(4)
            .with_seed(5);
        let spec = DynamicSpec {
            base,
            schedule: EventSchedule::default().with(4, EventKind::CapacityChange { capacity: 3 }),
        };
        let out = DynamicSession::new(g).run(&spec).unwrap();
        assert_eq!(out.epochs.len(), 2);
        // Capacity 3 on a 6-ring with 4 honest robots is trivially met.
        assert_eq!(out.epochs[1].outcome.report.capacity, 3);
        assert!(out.epochs[1].outcome.dispersed);
    }

    #[test]
    fn validation_rejects_inconsistent_schedules() {
        let g = ring(6).unwrap();
        let session = DynamicSession::new(g.clone());
        let base = ScenarioSpec::arbitrary(Algorithm::Baseline, &g).with_robots(3);
        let reject = |schedule: EventSchedule| {
            let spec = DynamicSpec {
                base: base.clone(),
                schedule,
            };
            match session.validate(&spec) {
                Err(DynamicError::Validation(_)) | Err(DynamicError::Graph(_)) => {}
                other => panic!("expected validation failure, got {other:?}"),
            }
        };
        // Gathered-start rows cannot restart from scattered positions.
        let gathered = DynamicSpec {
            base: ScenarioSpec::evaluation(Algorithm::GatheredHalfTh3, &g),
            schedule: EventSchedule::default(),
        };
        assert!(matches!(
            session.validate(&gathered),
            Err(DynamicError::Validation(_))
        ));
        // Round 0 is not an event round.
        reject(EventSchedule::default().with(0, EventKind::Leave { robot: 0 }));
        // Unknown inhabitant.
        reject(EventSchedule::default().with(2, EventKind::Leave { robot: 9 }));
        // Double leave.
        reject(
            EventSchedule::default()
                .with(2, EventKind::Leave { robot: 1 })
                .with(3, EventKind::Leave { robot: 1 }),
        );
        // Everyone gone.
        reject(
            EventSchedule::default()
                .with(2, EventKind::Leave { robot: 0 })
                .with(2, EventKind::Leave { robot: 1 })
                .with(2, EventKind::Leave { robot: 2 }),
        );
        // No honest robot left: all three leave, a hostile join keeps the
        // population nonzero but violates `f < k`.
        reject(
            EventSchedule::default()
                .with(
                    2,
                    EventKind::Join {
                        node: 0,
                        honest: false,
                    },
                )
                .with(2, EventKind::Leave { robot: 0 })
                .with(2, EventKind::Leave { robot: 1 })
                .with(2, EventKind::Leave { robot: 2 }),
        );
        // Nonexistent join node.
        reject(EventSchedule::default().with(
            2,
            EventKind::Join {
                node: 99,
                honest: true,
            },
        ));
        // Removing a ring edge is fine; removing a path edge disconnects.
        let path_session = DynamicSession::new(path(5).unwrap());
        let path_spec = DynamicSpec {
            base: ScenarioSpec::arbitrary(Algorithm::Baseline, path_session.graph()).with_robots(3),
            schedule: EventSchedule::default().with(2, EventKind::EdgeFail { u: 1, v: 2 }),
        };
        assert!(matches!(
            path_session.validate(&path_spec),
            Err(DynamicError::Validation(_))
        ));
        // ...unless the same batch heals the cut elsewhere first.
        let rerouted = DynamicSpec {
            base: ScenarioSpec::arbitrary(Algorithm::Baseline, path_session.graph()).with_robots(3),
            schedule: EventSchedule::default()
                .with(2, EventKind::EdgeHeal { u: 0, v: 4 })
                .with(2, EventKind::EdgeFail { u: 1, v: 2 }),
        };
        path_session.validate(&rerouted).unwrap();
        // Zero capacity.
        reject(EventSchedule::default().with(2, EventKind::CapacityChange { capacity: 0 }));
        // Strong-flavored adversary under a weak row.
        reject(EventSchedule::default().with(
            2,
            EventKind::AdversarySwitch {
                adversary: AdversaryKind::StrongSpoofer,
            },
        ));
        // Unsorted hand-built schedules are rejected, not silently fixed.
        let unsorted = DynamicSpec {
            base: base.clone(),
            schedule: EventSchedule {
                events: vec![
                    ScheduledEvent {
                        at: 5,
                        kind: EventKind::Leave { robot: 0 },
                    },
                    ScheduledEvent {
                        at: 2,
                        kind: EventKind::Leave { robot: 1 },
                    },
                ],
            },
        };
        assert!(matches!(
            session.validate(&unsorted),
            Err(DynamicError::Validation(_))
        ));
    }

    #[test]
    fn adversary_switch_applies_from_the_next_epoch() {
        // Sqrt row tolerates one Byzantine robot on 9 nodes; switch its
        // strategy mid-run and make sure the run still verifies.
        let g = erdos_renyi_connected(9, 0.4, 3).unwrap();
        let base = ScenarioSpec::arbitrary(Algorithm::ArbitrarySqrtTh5, &g)
            .with_byzantine(1, AdversaryKind::Silent)
            .with_seed(13);
        let spec = DynamicSpec {
            base,
            schedule: EventSchedule::default().with(
                10,
                EventKind::AdversarySwitch {
                    adversary: AdversaryKind::Wanderer,
                },
            ),
        };
        let out = DynamicSession::new(g).run(&spec).unwrap();
        assert_eq!(out.epochs.len(), 2);
        assert!(out.epochs[1].terminated);
        assert!(out.epochs[1].outcome.dispersed);
    }
}
