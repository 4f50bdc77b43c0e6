//! The differential harness, tested against itself.
//!
//! Three layers:
//!
//! 1. **Spot agreement** — hand-picked adversarial cells (the ones with the
//!    hairiest phase timelines) agree between the fast engine and the
//!    oracle. The full conformance matrix lives in
//!    `crates/dispersion/tests/determinism.rs`; this is the oracle crate's
//!    own quick gate.
//! 2. **Sensitivity** — the harness must have teeth: with the engine's
//!    fault-injection knob (`ff_overshoot`, which makes fast-forward
//!    deliberately skip one round too many) the fuzzer is REQUIRED to find
//!    and minimize a divergence. A harness that cannot catch a known-broken
//!    engine proves nothing when it reports a clean run.
//! 3. **Fuzz smoke** — a small random batch stays clean. The deep batch
//!    (500+ cases) runs in CI's non-blocking fuzz job and via
//!    `cargo run --release -p bd-bench --bin fuzz`.
//!
//! Plus the pin behind the one run pipeline: a static cell is exactly a
//! one-epoch dynamic cell, on both engines; and hand-built casts (engine-
//! walked preludes and cohorts, solo segments, idle skips, beacons, stops
//! and the round cap) that the fast engine, traced and untraced, must run
//! exactly as the oracle steps them. The oracle is the only stepped
//! reference: the engine's own unit tests, which cannot link this crate,
//! pin the fast engine's counters and call logs, and these casts check its
//! trajectories.

use bd_dispersion::adversaries::{AdversaryKind, CrashWrapper};
use bd_dispersion::runner::{Algorithm, ByzPlacement, ScenarioSpec};
use bd_dispersion::{DumState, EpochBackend, Msg, RosterEntry, Session};
use bd_dynamic::{DynamicSession, DynamicSpec, EventSchedule};
use bd_graphs::generators::{erdos_renyi_connected, lollipop, oriented_ring, ring};
use bd_graphs::{NodeId, Port, PortGraph};
use bd_oracle::{check_cell, run_fuzz, CellVerdict, FuzzConfig, OracleEngine};
use bd_runtime::{
    ArrivalInfo, Controller, Engine, EngineConfig, Event, Flavor, Intent, MoveChoice, Observation,
    Prelude, RobotId, RunError, Trace,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// The hand-minimized regression from the bug this harness caught during
/// bring-up: GatheredHalfTh3 on a lollipop, where a fast-forward jump
/// crossing the pairing→settle boundary made controllers derive their
/// sub-round request from a stale round. Kept as a named cell so the exact
/// trajectory stays pinned.
#[test]
fn pairing_settle_boundary_jump_regression() {
    let graph = lollipop(3, 2).unwrap();
    let session = Session::new(graph);
    let spec = ScenarioSpec::evaluation(Algorithm::GatheredHalfTh3, session.graph())
        .with_byzantine(1, AdversaryKind::MapLiar)
        .with_placement(ByzPlacement::Random)
        .with_seed(15969449143089021078);
    match check_cell(&session, &spec, |c| c) {
        CellVerdict::Match { .. } => {}
        v => panic!("regression cell no longer agrees: {v:?}"),
    }
}

#[test]
fn spot_cells_agree() {
    let cells = [
        (Algorithm::RingOptimal, AdversaryKind::FakeSettler),
        (Algorithm::StrongGatheredTh6, AdversaryKind::StrongSpoofer),
        (Algorithm::GatheredThirdTh4, AdversaryKind::CrashMidway),
    ];
    let session = Session::new(ring(6).unwrap());
    for (algo, kind) in cells {
        let f = algo.tolerance(6);
        let spec = ScenarioSpec::evaluation(algo, session.graph())
            .with_byzantine(f.min(2), kind)
            .with_placement(ByzPlacement::Random)
            .with_seed(17);
        let verdict = check_cell(&session, &spec, |c| c);
        assert!(verdict.agreed(), "{algo:?}/{kind:?}: {verdict:?}");
    }
}

/// Tuning must apply to the fast side only — here it is the identity, so
/// the check matches the untuned fast run round for round.
#[test]
fn tuned_identity_matches_untuned() {
    let session = Session::new(ring(5).unwrap());
    let spec = ScenarioSpec::evaluation(Algorithm::RingOptimal, session.graph()).with_seed(3);
    let untuned = session.run(&spec).unwrap();
    let verdict = check_cell(&session, &spec, std::convert::identity);
    assert_eq!(
        verdict,
        CellVerdict::Match {
            rounds: untuned.rounds
        }
    );
}

/// The teeth test: a deliberately broken fast engine (fast-forward
/// overshoots its idle horizon by one round) must be caught, and the
/// failure must come back minimized with the round of first mismatch.
#[test]
fn fuzzer_catches_overshooting_fast_forward() {
    let config = FuzzConfig {
        cases: 60,
        seed: 0xB12A,
        max_n: 8,
        time_budget: None,
    };
    let report = run_fuzz(&config, |c| c.with_ff_overshoot(1));
    let failure = report
        .failure
        .expect("a fast-forward overshoot of one full round must diverge");
    assert!(
        failure.minimized.n <= failure.original.n,
        "minimizer grew the case: {failure}"
    );
    assert!(
        failure.divergence.round().is_some(),
        "divergence must locate a round: {failure}"
    );
}

/// A small clean batch — the smoke version of the acceptance fuzz run.
#[test]
fn fuzz_smoke_batch_is_clean() {
    let config = FuzzConfig {
        cases: 25,
        seed: 0xD1FF,
        max_n: 8,
        time_budget: None,
    };
    let report = run_fuzz(&config, |c| c);
    assert_eq!(report.cases_run, 25);
    assert!(
        report.clean(),
        "differential fuzz found a divergence:\n{}",
        report.failure.unwrap()
    );
    assert!(report.matched > 0, "batch never exercised a full run");
}

/// A static cell is one epoch: on both engines, a static run's outcome
/// and trace equal epoch 0 and the cumulative trace of the same cell run
/// as a dynamic spec with an empty schedule.
#[test]
fn static_cell_is_one_epoch_on_both_engines() {
    let graph = erdos_renyi_connected(8, 0.4, 3).unwrap();
    let session = Session::new(graph.clone());
    let dynamic = DynamicSession::new(graph);
    let rows = [
        Algorithm::ArbitraryHalfTh2,
        Algorithm::ArbitrarySqrtTh5,
        Algorithm::StrongArbitraryTh7,
        Algorithm::Baseline,
    ];
    for algo in rows {
        for adversary in [AdversaryKind::Wanderer, AdversaryKind::Squatter] {
            let base = ScenarioSpec::arbitrary(algo, session.graph())
                .with_byzantine(algo.tolerance(8).min(1), adversary)
                .with_seed(11);
            let spec = DynamicSpec {
                base: base.clone(),
                schedule: EventSchedule::default(),
            };
            let runs = [
                (
                    session.run_with(&base, |g, c| Engine::new(g, c.traced())),
                    dynamic.run(&spec),
                ),
                (
                    session.run_with(&base, |g, c| OracleEngine::new(g, c.traced())),
                    dynamic.run_with(&spec, |g, c| OracleEngine::new(g, c.traced())),
                ),
            ];
            for (static_run, dynamic_run) in runs {
                let ((outcome, trace), epochs) = (static_run.unwrap(), dynamic_run.unwrap());
                assert_eq!(epochs.epochs.len(), 1, "{algo:?}/{adversary:?}");
                assert_eq!(epochs.epochs[0].outcome, outcome, "{algo:?}/{adversary:?}");
                assert_eq!(epochs.trace.events, trace.events, "{algo:?}/{adversary:?}");
                assert_eq!(
                    epochs.total_rounds, outcome.rounds,
                    "{algo:?}/{adversary:?}"
                );
            }
        }
    }
}

/// The rounds a controller was called in (`act` and `decide_move`).
type Calls = Rc<RefCell<Vec<u64>>>;

/// One `act` call as a robot logged it: the round, the sub-round, the
/// arrival and, unless the robot was solo, the roster.
type Call = (u64, usize, Option<ArrivalInfo>, Option<Vec<RobotId>>);

/// A robot's log of its `act` calls.
type Seen = Rc<RefCell<Vec<Call>>>;

/// Walks `prelude`, then stays put for `rounds` rounds and terminates.
/// Logs the rounds it is called in, and every `act` call.
struct Walk {
    id: RobotId,
    prelude: Prelude,
    rounds: usize,
    calls: Calls,
    seen: Seen,
}

impl Walk {
    fn new(id: u64, prelude: impl Into<Prelude>, rounds: usize, seen: Seen) -> Self {
        Walk {
            id: RobotId(id),
            prelude: prelude.into(),
            rounds,
            calls: Calls::default(),
            seen,
        }
    }
}

impl Controller<Msg> for Walk {
    fn id(&self) -> RobotId {
        self.id
    }
    fn act(&mut self, obs: &Observation<'_, Msg>) -> Option<Msg> {
        self.calls.borrow_mut().push(obs.round);
        let call = (
            obs.round,
            obs.subround,
            obs.arrival,
            Some(obs.roster.to_vec()),
        );
        self.seen.borrow_mut().push(call);
        None
    }
    fn decide_move(&mut self, obs: &Observation<'_, Msg>) -> MoveChoice {
        self.calls.borrow_mut().push(obs.round);
        MoveChoice::Stay
    }
    fn intent(&self, _round: u64) -> Intent {
        if self.calls.borrow().len() >= 2 * self.rounds {
            Intent::Done
        } else {
            Intent::Act
        }
    }
    fn prelude(&self) -> Prelude {
        self.prelude.clone()
    }
}

/// Follows a fixed plan: from each listed round on, the listed intent,
/// answered from the asked round alone. In a round it acts or is solo in
/// it publishes at sub-round 0 and leaves through a port derived from the
/// round, its node's degree and the port it last arrived by, or through a
/// port its node does not have in a round listed in `invalid`; as a
/// beacon it publishes and stays. It logs every `act` call of a round it is not
/// idle in (the oracle calls it in idle rounds too, where it does
/// nothing), and the rounds it was handed an empty roster in, which only
/// a segment does.
struct Scripted {
    id: RobotId,
    plan: Vec<(u64, Intent)>,
    subrounds: usize,
    invalid: Vec<u64>,
    entry: usize,
    seen: Seen,
    unrostered: Calls,
}

impl Scripted {
    fn new(id: u64, plan: &[(u64, Intent)], seen: Seen) -> Self {
        Scripted {
            id: RobotId(id),
            plan: plan.to_vec(),
            subrounds: 1,
            invalid: Vec::new(),
            entry: 0,
            seen,
            unrostered: Calls::default(),
        }
    }

    /// The plan's intent at `round`: its last entry from `round` or
    /// earlier.
    fn at(&self, round: u64) -> Intent {
        let next = self.plan.partition_point(|&(from, _)| from <= round);
        self.plan[next - 1].1
    }
}

/// The plan of a robot idle until `wake`, acting then, and done after.
fn sleeper(wake: u64) -> [(u64, Intent); 3] {
    [
        (0, Intent::Idle(wake)),
        (wake, Intent::Act),
        (wake + 1, Intent::Done),
    ]
}

impl Controller<Msg> for Scripted {
    fn id(&self) -> RobotId {
        self.id
    }
    fn subrounds_wanted(&self, _round: u64) -> usize {
        self.subrounds
    }
    fn act(&mut self, obs: &Observation<'_, Msg>) -> Option<Msg> {
        let solo = match self.at(obs.round) {
            Intent::Idle(_) => return None,
            intent => matches!(intent, Intent::Solo(_)),
        };
        let roster = (!solo).then(|| obs.roster.to_vec());
        let call = (obs.round, obs.subround, obs.arrival, roster);
        self.seen.borrow_mut().push(call);
        if obs.subround != 0 {
            return None;
        }
        if obs.roster.is_empty() {
            self.unrostered.borrow_mut().push(obs.round);
        }
        self.entry = obs.arrival.map_or(0, |a| a.entry_port);
        Some(Msg::State {
            state: DumState::ToBeSettled,
            flag: false,
        })
    }
    fn decide_move(&mut self, obs: &Observation<'_, Msg>) -> MoveChoice {
        match self.at(obs.round) {
            Intent::Act | Intent::Solo(_) if self.invalid.contains(&obs.round) => {
                MoveChoice::Move(obs.degree)
            }
            Intent::Act | Intent::Solo(_) => {
                MoveChoice::Move((obs.round as usize + self.entry) % obs.degree)
            }
            _ => MoveChoice::Stay,
        }
    }
    fn intent(&self, round: u64) -> Intent {
        self.at(round)
    }
}

/// Idle until round 15, when it wakes and terminates.
struct Sleeper {
    woke: bool,
}

impl Controller<Msg> for Sleeper {
    fn id(&self) -> RobotId {
        RobotId(5)
    }
    fn act(&mut self, obs: &Observation<'_, Msg>) -> Option<Msg> {
        self.woke |= obs.round >= 15;
        None
    }
    fn decide_move(&mut self, _obs: &Observation<'_, Msg>) -> MoveChoice {
        MoveChoice::Stay
    }
    fn intent(&self, _round: u64) -> Intent {
        if self.woke {
            Intent::Done
        } else {
            Intent::Idle(15)
        }
    }
}

/// What one engine made of the prelude cast.
#[derive(Debug, PartialEq)]
struct PreludeCastRun {
    positions: Vec<NodeId>,
    odometers: Vec<usize>,
    trace: Trace,
    messages: u64,
    subrounds_executed: u64,
    rounds_skipped: u64,
    /// The rounds each walker's controller was called in, in seating order
    /// (the crashing robot's entry logs its inner controller).
    calls: Vec<Vec<u64>>,
    /// The rounds the roamer was handed an empty roster in.
    unrostered: Vec<u64>,
}

/// Each walker's prelude length in the prelude cast, in seating order
/// (the crashing robot's is clipped from 10 ports to its crash round).
const PRELUDES: [usize; 3] = [6, 3, 4];

/// Run the prelude cast on a 9-node ring: two honest walkers with
/// preludes of 6 and 3 ports (the second terminates as its prelude ends,
/// never called), a weak Byzantine robot whose 10-port
/// prelude is clipped at its crash in round 4, a roamer solo in the
/// bursts `[0, 3)` and `[12, 15)` and idle between and after them, and an
/// idle honest sleeper. Some robot is busy in every round, so no engine
/// skips any and even the work counters must agree.
fn run_prelude_cast(
    run: impl FnOnce(
        Vec<(Flavor, NodeId, Box<dyn Controller<Msg>>)>,
    ) -> (bd_runtime::EpochOutcome, Trace),
) -> PreludeCastRun {
    let logs: Vec<Calls> = (0..3).map(|_| Calls::default()).collect();
    let walk = |id, prelude: Vec<Port>, rounds, calls: &Calls| Walk {
        calls: Rc::clone(calls),
        ..Walk::new(id, prelude, rounds, Seen::default())
    };
    let crashing = walk(3, vec![0; 10], 100, &logs[2]);
    let bursts = [
        (0, Intent::Solo(3)),
        (3, Intent::Idle(12)),
        (12, Intent::Solo(15)),
        (15, Intent::Idle(u64::MAX)),
    ];
    let roamer = Scripted::new(4, &bursts, Seen::default());
    let unrostered = Rc::clone(&roamer.unrostered);
    let seats: Vec<(Flavor, NodeId, Box<dyn Controller<Msg>>)> = vec![
        (
            Flavor::Honest,
            0,
            Box::new(walk(1, vec![0, 1, 1, 0, 0, 1], 6, &logs[0])),
        ),
        (
            Flavor::Honest,
            3,
            Box::new(walk(2, vec![1, 1, 0], 0, &logs[1])),
        ),
        (
            Flavor::WeakByzantine,
            5,
            Box::new(CrashWrapper::new(Box::new(crashing), 4)),
        ),
        (Flavor::WeakByzantine, 7, Box::new(roamer)),
        (Flavor::Honest, 8, Box::new(Sleeper { woke: false })),
    ];
    let (out, trace) = run(seats);
    let odometers = (1..=5)
        .map(|id| {
            trace
                .events
                .iter()
                .filter(|e| matches!(e, Event::Moved { robot, .. } if *robot == RobotId(id)))
                .count()
        })
        .collect();
    let calls = logs.iter().map(|l| l.borrow().clone()).collect();
    let unrostered = unrostered.borrow().clone();
    PreludeCastRun {
        positions: out.final_positions,
        odometers,
        trace,
        messages: out.metrics.messages,
        subrounds_executed: out.metrics.subrounds_executed,
        rounds_skipped: out.metrics.rounds_skipped,
        calls,
        unrostered,
    }
}

/// Preludes are engine-owned on both engines: the fast engine, which
/// applies them in segments beside a solo roamer, and the oracle, which
/// restates the rule naively, agree on positions, odometers,
/// `Moved`/`Terminated` events, `messages` and `subrounds_executed`, and
/// neither calls a controller inside its prelude.
#[test]
fn engine_walked_preludes_agree_on_all_engines() {
    let fast = run_prelude_cast(|seats| {
        let mut e: Engine<Msg> = Engine::new(ring(9).unwrap(), EngineConfig::default().traced());
        e.begin_epoch(seats).unwrap();
        let out = e.run_epoch(u64::MAX).unwrap();
        (out, e.into_trace())
    });
    let oracle = run_prelude_cast(|seats| {
        let mut e: OracleEngine<Msg> =
            OracleEngine::new(ring(9).unwrap(), EngineConfig::default().traced());
        e.begin_epoch(seats).unwrap();
        let out = e.run_epoch(u64::MAX).unwrap();
        (out, e.into_trace())
    });
    assert_eq!(fast.positions, oracle.positions, "positions");
    assert_eq!(fast.odometers, oracle.odometers, "odometers");
    assert_eq!(
        fast.trace.first_divergence(&oracle.trace),
        None,
        "Moved/Terminated events"
    );
    assert_eq!(fast.messages, oracle.messages, "messages");
    assert_eq!(
        fast.subrounds_executed, oracle.subrounds_executed,
        "sub-rounds"
    );
    // The walks and the crash clip happened: 6 and 3 prelude moves, 4 of
    // the crashing robot's 10, and one roamer move per burst round.
    assert_eq!(oracle.odometers, vec![6, 3, 4, 6, 0]);
    assert_eq!(oracle.messages, 6);
    for run in [&fast, &oracle] {
        assert_eq!(run.rounds_skipped, 0);
        assert_eq!(
            run.subrounds_executed, 16,
            "rounds 0..=15, one sub-round each"
        );
        for (robot, (calls, len)) in run.calls.iter().zip(PRELUDES).enumerate() {
            assert!(
                calls.iter().all(|&r| r >= len as u64),
                "robot {robot} called inside its {len}-round prelude: {calls:?}"
            );
        }
        assert!(
            run.calls[2].is_empty(),
            "the crashed robot's inner controller is never called"
        );
    }
    // Robot 2 is asked whether it terminated once its last prelude move is
    // applied, and never called.
    assert!(oracle.trace.events.contains(&Event::Terminated {
        round: 2,
        robot: RobotId(2),
        at: oracle.positions[1],
    }));
    assert!(oracle.calls[1].is_empty());
    // Only the fast engine ran segments: its roamer was handed no roster
    // in its two solo bursts.
    assert_eq!(fast.unrostered, vec![0, 1, 2, 12, 13, 14]);
    assert!(oracle.unrostered.is_empty());
}

/// A hand-built cast for [`run_cast`]: its seats in seating order, the
/// log each seated robot writes, and the round a scheduled stop cuts its
/// epoch at (`u64::MAX` for none).
struct Cast {
    seats: Vec<RosterEntry>,
    logs: Vec<Seen>,
    stop: u64,
}

impl Cast {
    /// An empty cast whose epoch a scheduled stop cuts at round `stop`.
    fn until(stop: u64) -> Self {
        Cast {
            seats: Vec::new(),
            logs: Vec::new(),
            stop,
        }
    }

    /// Seat on `start` the robot `make` builds around a fresh log.
    fn seat<C: Controller<Msg> + 'static>(
        mut self,
        flavor: Flavor,
        start: NodeId,
        make: impl FnOnce(Seen) -> C,
    ) -> Self {
        let seen = Seen::default();
        let controller = Box::new(make(Rc::clone(&seen)));
        self.seats.push(RosterEntry {
            flavor,
            start,
            controller,
        });
        self.logs.push(seen);
        self
    }
}

/// What one engine made of a [`Cast`].
#[derive(Debug, PartialEq)]
struct CastRun {
    /// Per epoch run (to the stop, then on to the end): the final
    /// positions, `messages`, `subrounds_executed` and whether every
    /// honest robot terminated, or the error that ended the run.
    epochs: Vec<Result<(Vec<NodeId>, u64, u64, bool), RunError>>,
    /// The round clock at the end.
    round: u64,
    /// Each robot's moves, in seating order.
    odometers: Vec<u64>,
    /// Each robot's log, in seating order.
    seen: Vec<Vec<Call>>,
    /// The trace, when one was recorded.
    trace: Option<Trace>,
}

/// Seat `cast` on `backend` and run it to its stop, then on to the end or
/// to the first error. `odometers` reads each robot's moves off the
/// backend; `None` counts them from the trace.
fn run_cast<B: EpochBackend>(
    mut backend: B,
    cast: Cast,
    odometers: impl FnOnce(&B) -> Option<Vec<u64>>,
) -> CastRun {
    let ids: Vec<RobotId> = cast.seats.iter().map(|s| s.controller.id()).collect();
    backend.begin_epoch(cast.seats).unwrap();
    let mut epochs = Vec::new();
    for stop in [cast.stop, u64::MAX] {
        let out = backend.run_epoch(stop).map(|o| {
            let m = o.metrics;
            (
                o.final_positions,
                m.messages,
                m.subrounds_executed,
                o.terminated,
            )
        });
        let cut = matches!(out, Ok((.., false)));
        epochs.push(out);
        if !cut {
            break;
        }
    }
    let (read, round) = (odometers(&backend), backend.round());
    let trace = backend.into_trace();
    let odometers = read.unwrap_or_else(|| {
        let moves = |id| {
            let moved = |e: &&Event| matches!(e, Event::Moved { robot, .. } if *robot == id);
            trace.events.iter().filter(moved).count() as u64
        };
        ids.iter().map(|&id| moves(id)).collect()
    });
    CastRun {
        epochs,
        round,
        odometers,
        seen: cast.logs.iter().map(|l| l.borrow().clone()).collect(),
        trace: (!trace.events.is_empty()).then_some(trace),
    }
}

/// Run `cast` on the fast engine over `graph` under `config`.
fn run_fast(graph: &Arc<PortGraph>, config: EngineConfig, cast: Cast) -> CastRun {
    run_cast(Engine::<Msg>::new(Arc::clone(graph), config), cast, |e| {
        Some(e.world().robots().iter().map(|r| r.moves).collect())
    })
}

/// Run `cast` on the oracle over `graph` under `config`, traced.
fn run_oracle(graph: &Arc<PortGraph>, config: EngineConfig, cast: Cast) -> CastRun {
    let oracle = OracleEngine::<Msg>::new(Arc::clone(graph), config.traced());
    run_cast(oracle, cast, |_| None)
}

/// Run the cast `cast` builds on the oracle and twice on the fast engine,
/// all over `graph` from `config`: untraced, where the fast engine walks
/// merged preludes as cohorts, and traced, where it walks every robot
/// alone. Both fast runs must agree with the oracle on every epoch's
/// positions, `messages`, `subrounds_executed` and termination, the
/// clock, the odometers and every log, and the traced one on the
/// `Moved`/`Terminated` events too. A skip executes no sub-rounds, so the
/// cast must keep some robot busy in every round. Returns the oracle's
/// run.
fn agree(graph: PortGraph, config: EngineConfig, cast: impl Fn() -> Cast) -> CastRun {
    let graph = Arc::new(graph);
    let cohorts = run_fast(&graph, config.clone(), cast());
    let alone = run_fast(&graph, config.clone().traced(), cast());
    let mut oracle = run_oracle(&graph, config, cast());
    assert_eq!(alone, oracle, "robots walking alone against the oracle");
    let trace = oracle.trace.take();
    assert_eq!(cohorts, oracle, "cohorts against the oracle");
    oracle.trace = trace;
    oracle
}

/// `len` ports that lead from `from` to `to` on `g`, found by trying
/// every port sequence over ports 0 and 1.
fn ports_between(g: &PortGraph, from: NodeId, to: NodeId, len: usize) -> Vec<Port> {
    (0..1u32 << len)
        .map(|bits| {
            (0..len)
                .map(|i| (bits >> i & 1) as Port)
                .collect::<Vec<_>>()
        })
        .find(|ports| bd_graphs::navigate::follow_ports(g, from, ports) == Ok(to))
        .expect("a path of that length exists")
}

/// The cohort cast on an 8-node ring, cut by a scheduled stop at round 9
/// (inside the shared tail). Honest walkers 1, 2 and 3 share one 12-port
/// tail: robot 1 from node 0 with no head, robots 2 and 3 after 3- and
/// 5-port heads from nodes 2 and 6 that bring them to robot 1. Robot 4
/// walks the same tail from node 1, an odd node, so it never meets them.
/// Robot 6 is a crash-fault copy of robot 2 whose prelude the crash at
/// round 8 clips inside the tail. Robot 7 is Byzantine and walks a tail
/// whose third port is invalid, clamped to a stay. Each walker then looks
/// around for three rounds, and an idle honest sleeper (robot 5) wakes at
/// round 15, so no engine skips a round and even the work counters must
/// agree.
fn cohort_cast() -> Cast {
    let g = ring(8).unwrap();
    let tail: Arc<[Port]> = vec![0, 1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 1].into();
    let at = |round: usize| bd_graphs::navigate::follow_ports(&g, 0, &tail[..round]).unwrap();
    let head = |from, len| ports_between(&g, from, at(len), len);
    let shared = |head: Vec<Port>| Prelude::new(head, Arc::clone(&tail));
    let clamped: Prelude = vec![0, 0, 7, 1, 1, 0].into();
    Cast::until(9)
        .seat(Flavor::Honest, 0, |s| Walk::new(1, shared(vec![]), 3, s))
        .seat(Flavor::Honest, 2, |s| {
            Walk::new(2, shared(head(2, 3)), 3, s)
        })
        .seat(Flavor::Honest, 6, |s| {
            Walk::new(3, shared(head(6, 5)), 3, s)
        })
        .seat(Flavor::Honest, 1, |s| Walk::new(4, shared(vec![]), 3, s))
        .seat(Flavor::Honest, 3, |_| Sleeper { woke: false })
        .seat(Flavor::WeakByzantine, 2, |s| {
            CrashWrapper::new(Box::new(Walk::new(6, shared(head(2, 3)), 3, s)), 8)
        })
        .seat(Flavor::WeakByzantine, 4, |s| Walk::new(7, clamped, 3, s))
}

/// Cohorts of merged preludes on both engines: the fast engine walking
/// cohorts (no trace) and walking every robot alone (with a trace) agree
/// with the oracle at a mid-tail stop and at the end.
#[test]
fn cohort_preludes_agree_on_all_engines() {
    let oracle = agree(ring(8).unwrap(), EngineConfig::default(), cohort_cast);
    assert_eq!(oracle.epochs.len(), 2, "the stop cuts the tail");
    // The merged walkers end together, the stranger elsewhere; the crash
    // clipped robot 6 at 8 moves and robot 7 stayed once.
    let positions = &oracle.epochs[1].as_ref().unwrap().0;
    assert_eq!(positions[..3], [positions[0]; 3]);
    assert_ne!(positions[3], positions[0]);
    assert_eq!(oracle.odometers, vec![12, 12, 12, 12, 0, 8, 5]);
    // Every walker looks around for three rounds, handed the arrival of
    // its last prelude move first; the crashed robot is never called.
    for i in [0, 1, 2, 3, 6] {
        let seen = &oracle.seen[i];
        assert!(
            seen.len() == 3 && seen[0].2.is_some(),
            "robot {i}: {seen:?}"
        );
    }
    assert!(oracle.seen[5].is_empty());
}

/// Segments of engine-walked preludes on both engines: preludes of
/// different lengths with a stepped round between their segments, a
/// watcher that wakes on the node one walker left and another entered, a
/// walk cut by a scheduled stop and by the round cap, and two honest
/// walkers sharing a tail whose seventh port is invalid, which fails at
/// its round.
#[test]
fn prelude_segments_agree_with_the_oracle() {
    // Segments [0, 3) and [4, 5), with robot 2 called in round 3 while
    // robot 1 still walks; robot 1 is first called in round 5 and handed
    // the arrival of its last prelude move.
    let run = agree(ring(7).unwrap(), EngineConfig::default(), || {
        Cast::until(u64::MAX)
            .seat(Flavor::Honest, 0, |s| {
                Walk::new(1, vec![0, 1, 0, 0, 1], 1, s)
            })
            .seat(Flavor::Honest, 3, |s| Walk::new(2, vec![1, 1, 0], 1, s))
            .seat(Flavor::Honest, 5, |s| Scripted::new(3, &sleeper(7), s))
    });
    let first = &run.seen[0][0];
    assert_eq!((run.seen[0].len(), first.0), (1, 5));
    assert!(first.2.is_some(), "the last prelude move's arrival");

    // Robot 1 walks onto node 3 and robot 2 off it in segments.
    let run = agree(oriented_ring(7).unwrap(), EngineConfig::default(), || {
        Cast::until(u64::MAX)
            .seat(Flavor::Honest, 0, |s| Walk::new(1, vec![0; 3], 1, s))
            .seat(Flavor::Honest, 3, |s| Walk::new(2, vec![0], 0, s))
            .seat(Flavor::Honest, 3, |s| Scripted::new(9, &sleeper(3), s))
    });
    assert_eq!(run.seen[2][0].3, Some(vec![RobotId(1), RobotId(9)]));

    for (stop, config) in [
        (4, EngineConfig::default()),
        (u64::MAX, EngineConfig::with_max_rounds(4)),
    ] {
        let run = agree(oriented_ring(16).unwrap(), config, || {
            Cast::until(stop).seat(Flavor::Honest, 0, |s| Walk::new(1, vec![0; 10], 0, s))
        });
        assert_eq!(run.odometers, [if stop == 4 { 10 } else { 4 }]);
    }

    let tail: Arc<[Port]> = vec![0, 1, 0, 1, 0, 0, 5, 0].into();
    let run = agree(ring(8).unwrap(), EngineConfig::default(), || {
        Cast::until(u64::MAX)
            .seat(Flavor::Honest, 3, |s| Walk::new(1, Arc::clone(&tail), 1, s))
            .seat(Flavor::Honest, 3, |s| Walk::new(2, Arc::clone(&tail), 1, s))
    });
    assert_eq!(run.round, 6);
    assert!(matches!(
        run.epochs[..],
        [Err(RunError::InvalidMove {
            robot: RobotId(1),
            port: 5,
            ..
        })]
    ));
}

/// Solo segments on both engines: a Byzantine roamer stepped before and
/// after its solo window, beside an honest sleeper that asks for two
/// sub-rounds while idle, so a segment hands the roamer its arrival at
/// sub-round 0 only. The segment ends at the solo horizon, at a
/// scheduled stop, and at the round cap, which ends the run with the
/// clock of stepping.
#[test]
fn solo_segments_agree_with_the_oracle() {
    for (solo, last, wake, stop, config) in [
        ((3, 9), 11, 12, u64::MAX, EngineConfig::default()),
        ((2, 6), 8, 9, u64::MAX, EngineConfig::default()),
        ((0, 10), 12, 13, 4, EngineConfig::default()),
        ((0, 10), 12, 13, u64::MAX, EngineConfig::with_max_rounds(4)),
    ] {
        let roamer = [
            (0, Intent::Act),
            (solo.0, Intent::Solo(solo.1)),
            (solo.1, Intent::Act),
            (last + 1, Intent::Done),
        ];
        agree(lollipop(4, 3).unwrap(), config, || {
            Cast::until(stop)
                .seat(Flavor::WeakByzantine, 6, |s| Scripted::new(1, &roamer, s))
                .seat(Flavor::Honest, 0, |s| Scripted {
                    subrounds: 2,
                    ..Scripted::new(2, &sleeper(wake), s)
                })
        });
    }
}

/// Solo robots that run whole segments in one call, on both engines: two
/// Byzantine roamers with different solo horizons, so each segment ends
/// at the earlier one; a roamer whose ports in two solo rounds are
/// invalid, taken as stays; a roamer beside honest walkers that share a
/// tail, so cohorts and solo calls run in one segment; and an honest solo
/// robot, which makes the fast engine call every solo robot one round at
/// a time, once with an invalid port, which fails at its round.
#[test]
fn solo_calls_agree_with_the_oracle() {
    let napper = |wake| {
        move |s| Scripted {
            subrounds: 2,
            ..Scripted::new(9, &sleeper(wake), s)
        }
    };
    // Segments [0, 4), [6, 7) and [8, 9); rounds 4, 5 and 7 are stepped.
    let early = [
        (0, Intent::Solo(4)),
        (4, Intent::Act),
        (6, Intent::Solo(9)),
        (9, Intent::Done),
    ];
    let late = [(0, Intent::Solo(7)), (7, Intent::Act), (8, Intent::Done)];
    let run = agree(lollipop(4, 3).unwrap(), EngineConfig::default(), || {
        Cast::until(u64::MAX)
            .seat(Flavor::WeakByzantine, 6, |s| Scripted::new(1, &early, s))
            .seat(Flavor::WeakByzantine, 2, |s| Scripted::new(2, &late, s))
            .seat(Flavor::Honest, 0, napper(9))
    });
    assert_eq!(run.odometers, [9, 8, 1]);

    let roamer = [(0, Intent::Solo(6)), (6, Intent::Act), (8, Intent::Done)];
    let run = agree(lollipop(4, 3).unwrap(), EngineConfig::default(), || {
        Cast::until(u64::MAX)
            .seat(Flavor::WeakByzantine, 6, |s| Scripted {
                invalid: vec![1, 4],
                ..Scripted::new(1, &roamer, s)
            })
            .seat(Flavor::Honest, 0, napper(8))
    });
    assert_eq!(run.odometers, [6, 1], "two of eight moves clamped");

    let g = ring(8).unwrap();
    let tail: Arc<[Port]> = vec![0, 1, 1, 0, 0, 1].into();
    let run = agree(g.clone(), EngineConfig::default(), || {
        Cast::until(u64::MAX)
            .seat(Flavor::Honest, 0, |s| Walk::new(1, Arc::clone(&tail), 2, s))
            .seat(Flavor::Honest, 0, |s| Walk::new(2, Arc::clone(&tail), 2, s))
            .seat(Flavor::WeakByzantine, 4, |s| Scripted::new(3, &roamer, s))
    });
    assert_eq!(run.odometers, [6, 6, 8]);

    let honest = [(0, Intent::Solo(6)), (6, Intent::Done)];
    for invalid in [vec![], vec![3]] {
        let run = agree(lollipop(4, 3).unwrap(), EngineConfig::default(), || {
            Cast::until(u64::MAX)
                .seat(Flavor::WeakByzantine, 6, |s| Scripted::new(1, &roamer, s))
                .seat(Flavor::Honest, 2, |s| Scripted {
                    invalid: invalid.clone(),
                    ..Scripted::new(2, &honest, s)
                })
                .seat(Flavor::Honest, 0, napper(7))
        });
        if invalid.is_empty() {
            assert_eq!(run.odometers, [8, 6, 1]);
        } else {
            assert_eq!(run.round, 3);
            assert!(matches!(
                run.epochs[..],
                [Err(RunError::InvalidMove {
                    robot: RobotId(2),
                    ..
                })]
            ));
        }
    }
}

/// Idle robots and beacons on both engines, none skipped: an actor beside
/// a sleeper that asks for two sub-rounds while idle, which the fast
/// engine does not call before it wakes; an actor beside a robot that
/// moves and then idles through stepped rounds, which are its stays and
/// clear its arrival; an actor beside a beacon, called in every round;
/// a solo roamer beside a beacon and a sleeper, where the fast
/// engine steps every round instead of running segments; and a solo
/// roamer beside a sleeper and an honest robot whose `Idle(1)` promises
/// nothing from round 1 on, so the segment the others allow cannot
/// advance and the fast engine steps instead.
#[test]
fn idle_robots_and_beacons_agree_with_the_oracle() {
    let beacon = [(0, Intent::Beacon(u64::MAX))];
    agree(ring(7).unwrap(), EngineConfig::default(), || {
        Cast::until(u64::MAX)
            .seat(Flavor::Honest, 0, |s| {
                Scripted::new(1, &[(0, Intent::Act), (6, Intent::Done)], s)
            })
            .seat(Flavor::Honest, 3, |s| Scripted {
                subrounds: 2,
                ..Scripted::new(2, &sleeper(4), s)
            })
    });
    let mover = [
        (0, Intent::Act),
        (1, Intent::Idle(4)),
        (4, Intent::Act),
        (5, Intent::Done),
    ];
    let run = agree(ring(7).unwrap(), EngineConfig::default(), || {
        Cast::until(u64::MAX)
            .seat(Flavor::Honest, 0, |s| {
                Scripted::new(1, &[(0, Intent::Act), (6, Intent::Done)], s)
            })
            .seat(Flavor::Honest, 3, |s| Scripted::new(2, &mover, s))
    });
    let arrivals: Vec<_> = run.seen[1].iter().map(|c| (c.0, c.2)).collect();
    assert_eq!(arrivals, [(0, None), (4, None)]);
    agree(ring(7).unwrap(), EngineConfig::default(), || {
        Cast::until(u64::MAX)
            .seat(Flavor::Honest, 0, |s| {
                Scripted::new(1, &[(0, Intent::Act), (5, Intent::Done)], s)
            })
            .seat(Flavor::WeakByzantine, 3, |s| Scripted::new(2, &beacon, s))
    });
    let roamer = [(0, Intent::Solo(10)), (10, Intent::Act), (13, Intent::Done)];
    agree(ring(7).unwrap(), EngineConfig::default(), || {
        Cast::until(u64::MAX)
            .seat(Flavor::WeakByzantine, 6, |s| Scripted::new(1, &roamer, s))
            .seat(Flavor::WeakByzantine, 2, |s| Scripted::new(2, &beacon, s))
            .seat(Flavor::Honest, 0, |s| Scripted::new(3, &sleeper(14), s))
    });
    let stale = [(0, Intent::Idle(1)), (5, Intent::Act), (7, Intent::Done)];
    let roamer = [(0, Intent::Solo(6)), (6, Intent::Act), (9, Intent::Done)];
    agree(ring(7).unwrap(), EngineConfig::default(), || {
        Cast::until(u64::MAX)
            .seat(Flavor::WeakByzantine, 6, |s| Scripted::new(1, &roamer, s))
            .seat(Flavor::Honest, 2, |s| Scripted::new(2, &stale, s))
            .seat(Flavor::Honest, 0, |s| Scripted::new(3, &sleeper(10), s))
    });
}

/// An idle skip leaves the world as stepping does. A robot that moves in
/// round 0 and is idle until round 5 is handed no arrival when it is
/// called again: stepping clears it with the stay of round 1. A robot
/// idle until round 9 and done from then on is never called, and
/// terminates in round 8, at the end of the second skip. Skipped rounds
/// execute no sub-rounds, so the work counters are not compared.
#[test]
fn an_idle_skip_clears_arrivals_and_logs_terminations_as_stepping_does() {
    let mover = [
        (0, Intent::Act),
        (1, Intent::Idle(5)),
        (5, Intent::Act),
        (6, Intent::Done),
    ];
    let napper = [(0, Intent::Idle(9)), (9, Intent::Done)];
    let cast = || {
        Cast::until(u64::MAX)
            .seat(Flavor::Honest, 0, |s| Scripted::new(1, &mover, s))
            .seat(Flavor::Honest, 2, |s| Scripted::new(2, &napper, s))
    };
    let graph = Arc::new(ring(4).unwrap());
    let fast = run_fast(&graph, EngineConfig::default().traced(), cast());
    let oracle = run_oracle(&graph, EngineConfig::default(), cast());
    assert_eq!(fast.seen, oracle.seen, "what the robots were handed");
    assert_eq!(fast.trace, oracle.trace, "Moved/Terminated events");
    assert_eq!(
        (fast.round, &fast.odometers),
        (oracle.round, &oracle.odometers)
    );
    let arrivals: Vec<_> = oracle.seen[0].iter().map(|c| (c.0, c.2)).collect();
    assert_eq!(arrivals, [(0, None), (5, None)]);
    let ended = Event::Terminated {
        round: 8,
        robot: RobotId(2),
        at: 2,
    };
    assert!(oracle.trace.unwrap().events.contains(&ended));
}
