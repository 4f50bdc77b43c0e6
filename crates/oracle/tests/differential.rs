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
//! one-epoch dynamic cell, on both engines; and a hand-built cast that
//! puts engine-walked preludes beside solo, crashing and idle robots, run
//! on all three engine modes.

use bd_dispersion::adversaries::{AdversaryKind, CrashWrapper};
use bd_dispersion::runner::{Algorithm, ByzPlacement, ScenarioSpec};
use bd_dispersion::{DumState, EpochBackend, Msg, RosterEntry, Session};
use bd_dynamic::{DynamicSession, DynamicSpec, EventSchedule};
use bd_graphs::generators::{erdos_renyi_connected, lollipop, ring};
use bd_graphs::{NodeId, Port};
use bd_oracle::{check_cell, run_fuzz, CellVerdict, FuzzConfig, OracleEngine};
use bd_runtime::{
    ArrivalInfo, Controller, Engine, EngineConfig, Event, Flavor, Intent, MoveChoice, Observation,
    Prelude, RobotId, Trace,
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
                    dynamic.run_with(&spec, OracleEngine::new),
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

/// The arrival a controller was handed in each round it was called in.
type Arrivals = Rc<RefCell<Vec<(u64, Option<ArrivalInfo>)>>>;

/// Walks `prelude`, then stays put for `rounds` rounds and terminates.
/// Logs the rounds it is called in, and at sub-round 0 its arrival.
struct Walk {
    id: RobotId,
    prelude: Prelude,
    rounds: usize,
    calls: Calls,
    arrivals: Arrivals,
}

impl Controller<Msg> for Walk {
    fn id(&self) -> RobotId {
        self.id
    }
    fn act(&mut self, obs: &Observation<'_, Msg>) -> Option<Msg> {
        self.calls.borrow_mut().push(obs.round);
        if obs.subround == 0 {
            self.arrivals.borrow_mut().push((obs.round, obs.arrival));
        }
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

/// Roams in the bursts `[0, 3)` and `[12, 15)`: publishes and moves on its
/// own senses, solo until the burst ends, idle between and after bursts.
/// Answers `intent` from the asked round alone. Logs the rounds it was
/// handed an empty roster in, which only a segment does.
struct Roamer {
    calls: Calls,
    unrostered: Calls,
}

impl Roamer {
    fn burst_end(round: u64) -> Option<u64> {
        [3, 15]
            .into_iter()
            .find(|&end| (end - 3..end).contains(&round))
    }
}

impl Controller<Msg> for Roamer {
    fn id(&self) -> RobotId {
        RobotId(4)
    }
    fn act(&mut self, obs: &Observation<'_, Msg>) -> Option<Msg> {
        self.calls.borrow_mut().push(obs.round);
        if obs.roster.is_empty() {
            self.unrostered.borrow_mut().push(obs.round);
        }
        Roamer::burst_end(obs.round).map(|_| Msg::State {
            state: DumState::ToBeSettled,
            flag: false,
        })
    }
    fn decide_move(&mut self, obs: &Observation<'_, Msg>) -> MoveChoice {
        match Roamer::burst_end(obs.round) {
            Some(_) => MoveChoice::Move(obs.round as usize % obs.degree),
            None => MoveChoice::Stay,
        }
    }
    fn intent(&self, round: u64) -> Intent {
        match Roamer::burst_end(round) {
            Some(end) => Intent::Solo(end),
            None if round < 12 => Intent::Idle(12),
            None => Intent::Idle(u64::MAX),
        }
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
    /// The rounds each robot's controller was called in, in seating order
    /// (the crashing robot's entry logs its inner controller).
    calls: Vec<Vec<u64>>,
    /// The rounds the roamer was handed an empty roster in.
    unrostered: Vec<u64>,
}

/// Each robot's prelude length in the prelude cast, in seating order (the
/// crashing robot's is clipped from 10 ports to its crash round).
const PRELUDES: [usize; 5] = [6, 3, 4, 0, 0];

/// Run the prelude cast on a 9-node ring: two honest walkers with
/// preludes of 6 and 3 ports (the second terminates as its prelude ends,
/// never called), a weak Byzantine robot whose 10-port
/// prelude is clipped at its crash in round 4, a solo roamer and an idle
/// honest sleeper. Some robot is busy in every round, so no engine skips
/// any and even the work counters must agree.
fn run_prelude_cast(
    run: impl FnOnce(
        Vec<(Flavor, NodeId, Box<dyn Controller<Msg>>)>,
    ) -> (bd_runtime::EpochOutcome, Trace),
) -> PreludeCastRun {
    let logs: Vec<Calls> = (0..5).map(|_| Calls::default()).collect();
    let unrostered = Calls::default();
    let walk = |id, prelude: Vec<Port>, rounds, calls: &Calls| Walk {
        id: RobotId(id),
        prelude: prelude.into(),
        rounds,
        calls: Rc::clone(calls),
        arrivals: Arrivals::default(),
    };
    let crashing = walk(3, vec![0; 10], 100, &logs[2]);
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
        (
            Flavor::WeakByzantine,
            7,
            Box::new(Roamer {
                calls: Rc::clone(&logs[3]),
                unrostered: Rc::clone(&unrostered),
            }),
        ),
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

/// Preludes are engine-owned on every engine: the fast engine with
/// fast-forward (which applies them in segments beside a solo roamer), the
/// fast engine stepping every round, and the oracle, which restates the
/// rule naively, agree on positions, odometers, `Moved`/`Terminated`
/// events, `messages` and `subrounds_executed`, and none of them calls a
/// controller inside its prelude.
#[test]
fn engine_walked_preludes_agree_on_all_engines() {
    let fast = |config: EngineConfig| {
        run_prelude_cast(|seats| {
            let mut e: Engine<Msg> = Engine::new(ring(9).unwrap(), config.traced());
            e.begin_epoch(seats).unwrap();
            let out = e.run_epoch(u64::MAX).unwrap();
            (out, e.into_trace())
        })
    };
    let oracle = run_prelude_cast(|seats| {
        let mut e: OracleEngine<Msg> =
            OracleEngine::new(ring(9).unwrap(), EngineConfig::default().traced());
        e.begin_epoch(seats).unwrap();
        let out = e.run_epoch(u64::MAX).unwrap();
        (out, e.into_trace())
    });
    let bulk = fast(EngineConfig::default());
    let stepped = fast(EngineConfig::default().without_fast_forward());
    for (name, run) in [("fast-forward", &bulk), ("stepped", &stepped)] {
        assert_eq!(run.positions, oracle.positions, "{name}: positions");
        assert_eq!(run.odometers, oracle.odometers, "{name}: odometers");
        assert_eq!(
            run.trace.first_divergence(&oracle.trace),
            None,
            "{name}: Moved/Terminated events"
        );
        assert_eq!(run.messages, oracle.messages, "{name}: messages");
        assert_eq!(
            run.subrounds_executed, oracle.subrounds_executed,
            "{name}: sub-rounds"
        );
    }
    // The walks and the crash clip happened: 6 and 3 prelude moves, 4 of
    // the crashing robot's 10, and one roamer move per burst round.
    assert_eq!(oracle.odometers, vec![6, 3, 4, 6, 0]);
    assert_eq!(oracle.messages, 6);
    for run in [&bulk, &stepped, &oracle] {
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
    // Only the fast-forwarding engine ran segments: its roamer was handed
    // no roster in its two solo bursts.
    assert_eq!(bulk.unrostered, vec![0, 1, 2, 12, 13, 14]);
    assert!(stepped.unrostered.is_empty() && oracle.unrostered.is_empty());
}

/// What one engine made of the cohort cast: positions at the stop round
/// and at the end, per-robot odometers, the arrivals the walkers were
/// handed, `messages`, `subrounds_executed` and, when traced, the trace.
#[derive(Debug, PartialEq)]
struct CohortCastRun {
    at_stop: Vec<NodeId>,
    positions: Vec<NodeId>,
    odometers: Vec<u64>,
    arrivals: Vec<Vec<(u64, Option<ArrivalInfo>)>>,
    metrics: Vec<(u64, u64)>,
    trace: Option<Trace>,
}

/// `len` ports that lead from `from` to `to` on `g`, found by trying
/// every port sequence over ports 0 and 1.
fn ports_between(g: &bd_graphs::PortGraph, from: NodeId, to: NodeId, len: usize) -> Vec<Port> {
    (0..1u32 << len)
        .map(|bits| {
            (0..len)
                .map(|i| (bits >> i & 1) as Port)
                .collect::<Vec<_>>()
        })
        .find(|ports| bd_graphs::navigate::follow_ports(g, from, ports) == Ok(to))
        .expect("a path of that length exists")
}

/// Run the cohort cast on an 8-node ring, cut by a scheduled stop at
/// round 9 (inside the shared tail) and then run to the end. Honest
/// walkers 1, 2 and 3 share one 12-port tail: robot 1 from node 0 with no
/// head, robots 2 and 3 after 3- and 5-port heads from nodes 2 and 6 that
/// bring them to robot 1. Robot 4 walks the same tail from node 1, an odd
/// node, so it never meets them. Robot 6 is a crash-fault copy of robot 2
/// whose prelude the crash at round 8 clips inside the tail. Robot 7 is
/// Byzantine and walks a tail whose third port is invalid, clamped to a
/// stay. Each walker then looks around for three rounds, and an idle
/// honest sleeper (robot 5) wakes at round 15, so no engine skips a round
/// and even the work counters must agree.
fn run_cohort_cast<B: EpochBackend>(
    mut backend: B,
    odometers: impl Fn(&B) -> Vec<u64>,
) -> CohortCastRun {
    let g = ring(8).unwrap();
    let tail: Arc<[Port]> = vec![0, 1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 1].into();
    let at = |round: usize| bd_graphs::navigate::follow_ports(&g, 0, &tail[..round]).unwrap();
    let head = |from, len| ports_between(&g, from, at(len), len);
    let logs: Vec<Arrivals> = (0..5).map(|_| Arrivals::default()).collect();
    let walk = |id, prelude: Prelude, log: &Arrivals| Walk {
        id: RobotId(id),
        prelude,
        rounds: 3,
        calls: Calls::default(),
        arrivals: Rc::clone(log),
    };
    let shared = |head: Vec<Port>| Prelude::new(head, Arc::clone(&tail));
    let crashing = walk(6, shared(head(2, 3)), &Arrivals::default());
    let clamped: Prelude = vec![0, 0, 7, 1, 1, 0].into();
    let seat = |flavor, start, controller: Box<dyn Controller<Msg>>| RosterEntry {
        flavor,
        start,
        controller,
    };
    backend
        .begin_epoch(vec![
            seat(
                Flavor::Honest,
                0,
                Box::new(walk(1, shared(vec![]), &logs[0])),
            ),
            seat(
                Flavor::Honest,
                2,
                Box::new(walk(2, shared(head(2, 3)), &logs[1])),
            ),
            seat(
                Flavor::Honest,
                6,
                Box::new(walk(3, shared(head(6, 5)), &logs[2])),
            ),
            seat(
                Flavor::Honest,
                1,
                Box::new(walk(4, shared(vec![]), &logs[3])),
            ),
            seat(Flavor::Honest, 3, Box::new(Sleeper { woke: false })),
            seat(
                Flavor::WeakByzantine,
                2,
                Box::new(CrashWrapper::new(Box::new(crashing), 8)),
            ),
            seat(
                Flavor::WeakByzantine,
                4,
                Box::new(walk(7, clamped, &logs[4])),
            ),
        ])
        .unwrap();
    let cut = backend.run_epoch(9).unwrap();
    assert!(!cut.terminated, "the stop cuts the tail");
    let end = backend.run_epoch(u64::MAX).unwrap();
    let odometers = odometers(&backend);
    let trace = backend.into_trace();
    CohortCastRun {
        at_stop: cut.final_positions,
        positions: end.final_positions,
        odometers,
        arrivals: logs.iter().map(|l| l.borrow().clone()).collect(),
        metrics: [cut.metrics, end.metrics]
            .iter()
            .map(|m| (m.messages, m.subrounds_executed))
            .collect(),
        trace: (!trace.events.is_empty()).then_some(trace),
    }
}

/// Each robot's moves, counted from a trace.
fn moves_in(trace: &Trace, robots: u64) -> Vec<u64> {
    (1..=robots)
        .map(|id| {
            let moved =
                |e: &&Event| matches!(e, Event::Moved { robot, .. } if *robot == RobotId(id));
            trace.events.iter().filter(moved).count() as u64
        })
        .collect()
}

/// Cohorts of merged preludes on every engine: the fast engine walking
/// cohorts (fast-forward, no trace), walking every robot alone
/// (fast-forward with a trace), stepping, and the oracle agree on
/// positions at a mid-tail stop and at the end, odometers, arrivals,
/// `messages`, `subrounds_executed` and the `Moved`/`Terminated` events.
#[test]
fn cohort_preludes_agree_on_all_engines() {
    let fast = |config: EngineConfig| {
        run_cohort_cast(Engine::<Msg>::new(ring(8).unwrap(), config), |e| {
            e.world().robots().iter().map(|r| r.moves).collect()
        })
    };
    let cohorts = fast(EngineConfig::default());
    let alone = fast(EngineConfig::default().traced());
    let stepped = fast(EngineConfig::default().without_fast_forward().traced());
    let oracle = run_cohort_cast(
        OracleEngine::<Msg>::new(ring(8).unwrap(), EngineConfig::default().traced()),
        |_| Vec::new(),
    );
    let oracle_trace = oracle.trace.as_ref().expect("traced");
    // Robots are seated in ID order.
    let oracle_moves = moves_in(oracle_trace, 7);
    for (name, run) in [
        ("cohorts", &cohorts),
        ("alone", &alone),
        ("stepped", &stepped),
    ] {
        assert_eq!(run.at_stop, oracle.at_stop, "{name}: positions at the stop");
        assert_eq!(run.positions, oracle.positions, "{name}: positions");
        assert_eq!(run.odometers, oracle_moves, "{name}: odometers");
        assert_eq!(run.arrivals, oracle.arrivals, "{name}: arrivals");
        assert_eq!(
            run.metrics, oracle.metrics,
            "{name}: messages and sub-rounds"
        );
    }
    for (name, run) in [("alone", &alone), ("stepped", &stepped)] {
        let trace = run.trace.as_ref().expect("traced");
        assert_eq!(trace.first_divergence(oracle_trace), None, "{name}: events");
    }
    // The merged walkers end together, the stranger elsewhere; the crash
    // clipped robot 6 at 8 moves and robot 7 stayed once.
    assert_eq!(oracle.positions[..3], [oracle.positions[0]; 3]);
    assert_ne!(oracle.positions[3], oracle.positions[0]);
    assert_eq!(oracle_moves, vec![12, 12, 12, 12, 0, 8, 5]);
    assert!(oracle
        .arrivals
        .iter()
        .all(|a| a.len() == 3 && a[0].1.is_some()));
}
