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
use bd_dispersion::{DumState, Msg, Session};
use bd_dynamic::{DynamicSession, DynamicSpec, EventSchedule};
use bd_graphs::generators::{erdos_renyi_connected, lollipop, ring};
use bd_graphs::{NodeId, Port};
use bd_oracle::{check_cell, run_fuzz, CellVerdict, FuzzConfig, OracleEngine};
use bd_runtime::{
    Controller, Engine, EngineConfig, Event, Flavor, MoveChoice, Observation, RobotId, Trace,
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

/// Walks `prelude`, then stays put for `rounds` rounds and terminates.
struct Walk {
    id: RobotId,
    prelude: Arc<[Port]>,
    rounds: usize,
    calls: Calls,
}

impl Controller<Msg> for Walk {
    fn id(&self) -> RobotId {
        self.id
    }
    fn act(&mut self, obs: &Observation<'_, Msg>) -> Option<Msg> {
        self.calls.borrow_mut().push(obs.round);
        None
    }
    fn decide_move(&mut self, obs: &Observation<'_, Msg>) -> MoveChoice {
        self.calls.borrow_mut().push(obs.round);
        MoveChoice::Stay
    }
    fn terminated(&self) -> bool {
        self.calls.borrow().len() >= 2 * self.rounds
    }
    fn prelude(&self) -> Arc<[Port]> {
        Arc::clone(&self.prelude)
    }
}

/// Roams in the bursts `[0, 3)` and `[12, 15)`: publishes and moves on its
/// own senses, solo until the burst ends, idle between and after bursts.
/// Logs the rounds it was handed an empty roster in, which only a segment
/// does.
struct Roamer {
    next: u64,
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
        self.next = obs.round + 1;
        match Roamer::burst_end(obs.round) {
            Some(_) => MoveChoice::Move(obs.round as usize % obs.degree),
            None => MoveChoice::Stay,
        }
    }
    fn idle_until(&self) -> Option<u64> {
        match Roamer::burst_end(self.next) {
            Some(_) => None,
            None if self.next < 12 => Some(12),
            None => Some(u64::MAX),
        }
    }
    fn solo_until(&self) -> Option<u64> {
        Roamer::burst_end(self.next)
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
    fn terminated(&self) -> bool {
        self.woke
    }
    fn idle_until(&self) -> Option<u64> {
        (!self.woke).then_some(15)
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
                next: 0,
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
