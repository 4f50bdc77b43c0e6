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
//! one-epoch dynamic cell, on both engines.

use bd_dispersion::adversaries::AdversaryKind;
use bd_dispersion::runner::{Algorithm, ByzPlacement, ScenarioSpec};
use bd_dispersion::Session;
use bd_dynamic::{DynamicSession, DynamicSpec, EventSchedule};
use bd_graphs::generators::{erdos_renyi_connected, lollipop, ring};
use bd_oracle::{check_cell, run_fuzz, CellVerdict, FuzzConfig, OracleEngine};
use bd_runtime::Engine;

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
