//! Extension coverage: the ring-optimal predecessor algorithm, crash
//! faults, and beyond-tolerance behavior.

use bd_dispersion::adversaries::AdversaryKind;
use bd_dispersion::runner::{Algorithm, ByzPlacement, ScenarioSpec};
use bd_dispersion::Session;
use bd_graphs::generators::{erdos_renyi_connected, oriented_ring, ring};
use bd_graphs::scramble::scramble_ports;

#[test]
fn ring_optimal_disperses_on_any_ring_presentation() {
    for g in [
        ring(9).unwrap(),
        oriented_ring(8).unwrap(),
        scramble_ports(&ring(11).unwrap(), 3),
    ] {
        let spec = ScenarioSpec::arbitrary(Algorithm::RingOptimal, &g).with_seed(5);
        let out = Session::new(g).run(&spec).unwrap();
        assert!(out.dispersed, "{:?}", out.report.violations);
    }
}

#[test]
fn ring_optimal_tolerates_n_minus_1_byzantine() {
    let g = ring(8).unwrap();
    for kind in [
        AdversaryKind::Squatter,
        AdversaryKind::FakeSettler,
        AdversaryKind::Silent,
        AdversaryKind::Crowd,
    ] {
        let spec = ScenarioSpec::arbitrary(Algorithm::RingOptimal, &g)
            .with_byzantine(7, kind)
            .with_seed(9);
        let out = Session::new(g.clone()).run(&spec).unwrap();
        assert!(out.dispersed, "{kind:?}: {:?}", out.report.violations);
    }
}

#[test]
fn ring_optimal_is_linear_and_beats_theorem1_on_rings() {
    let g = ring(10).unwrap();
    let session = Session::new(g);
    let spec = ScenarioSpec::arbitrary(Algorithm::RingOptimal, session.graph()).with_seed(2);
    let fast = session.run(&spec).unwrap();
    let slow = session
        .run(&spec.clone().with_algorithm(Algorithm::QuotientTh1))
        .unwrap();
    assert!(fast.dispersed && slow.dispersed);
    assert!(
        fast.rounds <= 10 + 4 * 10 + 16 + 2,
        "O(n): got {}",
        fast.rounds
    );
    assert!(
        fast.rounds * 50 < slow.rounds,
        "ring-optimal ({}) must beat Find-Map ({}) decisively",
        fast.rounds,
        slow.rounds
    );
}

#[test]
fn ring_optimal_rejects_non_rings() {
    let g = erdos_renyi_connected(8, 0.5, 1).unwrap();
    let spec = ScenarioSpec::arbitrary(Algorithm::RingOptimal, &g).with_seed(1);
    assert!(Session::new(g).run(&spec).is_err());
}

#[test]
fn crash_faults_absorbed_by_every_gathered_algorithm() {
    // Crash faults are strictly weaker than Byzantine behavior: a faithful
    // follower that halts midway must never break dispersion within the
    // tolerance (Pattanayak–Sharma–Mandal's regime).
    let g = erdos_renyi_connected(12, 0.35, 13).unwrap();
    let session = Session::new(g);
    for algo in [
        Algorithm::GatheredHalfTh3,
        Algorithm::GatheredThirdTh4,
        Algorithm::StrongGatheredTh6,
    ] {
        let f = algo.tolerance(12);
        let spec = ScenarioSpec::gathered(algo, session.graph(), 0)
            .with_byzantine(f, AdversaryKind::CrashMidway)
            .with_seed(21);
        let out = session
            .run(&spec)
            .unwrap_or_else(|e| panic!("{algo:?}: {e}"));
        assert!(out.dispersed, "{algo:?}: {:?}", out.report.violations);
    }
}

#[test]
fn crash_faults_on_theorem1() {
    let g = erdos_renyi_connected(10, 0.4, 17).unwrap();
    let spec = ScenarioSpec::arbitrary(Algorithm::QuotientTh1, &g)
        .with_byzantine(9, AdversaryKind::CrashMidway)
        .with_seed(23);
    let out = Session::new(g.clone())
        .run(&spec.clone().with_algorithm(Algorithm::QuotientTh1))
        .unwrap();
    assert!(out.dispersed);
}

#[test]
fn beyond_tolerance_strong_protocol_can_break() {
    // Push f past floor(n/4)-1 with worst-case low-ID placement: the
    // spoofers can now forge the floor(n/4) quorum. The session must allow
    // the probe (overloaded) and the outcome may violate — we assert only
    // that the harness reports rather than panics, and that at least one
    // seed shows the quorum genuinely breaking.
    let g = erdos_renyi_connected(12, 0.4, 31).unwrap();
    let session = Session::new(g);
    let f = 12 / 4 + 1; // one past the threshold count
    let mut any_failure = false;
    for seed in 0..12 {
        let spec = ScenarioSpec::gathered(Algorithm::StrongGatheredTh6, session.graph(), 0)
            .with_byzantine(f, AdversaryKind::StrongSpoofer)
            .with_placement(ByzPlacement::LowIds)
            .with_seed(seed)
            .overloaded();
        let out = session.run(&spec).unwrap();
        any_failure |= !out.dispersed;
    }
    assert!(
        any_failure,
        "f = floor(n/4)+1 spoofers with low IDs should break at least one run"
    );
}

#[test]
fn baseline_rejects_byzantine() {
    let g = ring(6).unwrap();
    let spec = ScenarioSpec::gathered(Algorithm::Baseline, &g, 0)
        .with_byzantine(1, AdversaryKind::Squatter);
    assert!(Session::new(g).run(&spec).is_err());
}
