//! Registry-conformance suite: every [`Algorithm`]'s `TableRow` descriptor
//! must (a) publish a `tolerance(n, k)` that agrees with the paper's
//! Table 1 formulas at `k = n` (no behavior drift from the trait-based
//! redesign), and (b) publish a `round_budget` that exactly matches the
//! observed honest-termination round of a real run — the budgets are phase
//! timelines, not estimates.

use bd_dispersion::adversaries::AdversaryKind;
use bd_dispersion::algos::sqrt::sqrt_f_bound;
use bd_dispersion::runner::{Algorithm, ScenarioSpec};
use bd_dispersion::{Session, StartRequirement};
use bd_graphs::generators::{erdos_renyi_connected, ring};
use bd_graphs::PortGraph;

fn all_algorithms() -> impl Iterator<Item = Algorithm> {
    Algorithm::table1()
        .into_iter()
        .chain([Algorithm::Baseline, Algorithm::RingOptimal])
}

/// A graph satisfying `algo`'s structural precondition at size `n`.
fn conforming_graph(algo: Algorithm, n: usize) -> PortGraph {
    match algo {
        Algorithm::RingOptimal => ring(n).unwrap(),
        _ => (0..64)
            .map(|attempt| erdos_renyi_connected(n, 0.4, 90 + attempt).unwrap())
            .find(|g| {
                bd_graphs::quotient::quotient_graph(g).is_isomorphic_to_original()
                    && bd_gathering::gathering_target(g).is_ok()
            })
            .expect("no asymmetric G(n, 0.4) near seed 90"),
    }
}

// ------------------------------------------------------------- tolerances

/// The Table 1 tolerance column, transcribed independently of the
/// descriptors: at `k = n` the registry must reproduce it exactly.
fn table1_tolerance(algo: Algorithm, n: usize) -> usize {
    match algo {
        Algorithm::QuotientTh1 | Algorithm::RingOptimal => n.saturating_sub(1),
        Algorithm::ArbitraryHalfTh2 | Algorithm::GatheredHalfTh3 => (n / 2).saturating_sub(1),
        Algorithm::GatheredThirdTh4 => (n / 3).saturating_sub(1),
        Algorithm::ArbitrarySqrtTh5 => sqrt_f_bound(n),
        Algorithm::StrongGatheredTh6 | Algorithm::StrongArbitraryTh7 => (n / 4).saturating_sub(1),
        Algorithm::Baseline => 0,
    }
}

#[test]
fn tolerance_at_k_equals_n_matches_table1_for_every_row() {
    for algo in all_algorithms() {
        for n in 3..=40 {
            assert_eq!(
                algo.row().tolerance(n, n),
                table1_tolerance(algo, n),
                "{algo:?} at n = {n}"
            );
            // The `Algorithm::tolerance` shorthand is the same value.
            assert_eq!(algo.tolerance(n), table1_tolerance(algo, n), "{algo:?}");
        }
    }
}

#[test]
fn tolerance_never_grows_when_k_shrinks() {
    // k-awareness is a clamp: fewer robots can never tolerate more faults
    // than the k = n column claims.
    for algo in all_algorithms() {
        for n in [8usize, 12, 16, 24] {
            for k in 1..=2 * n {
                assert!(
                    algo.row().tolerance(n, k) <= algo.row().tolerance(n, n.max(k)),
                    "{algo:?} n={n} k={k}"
                );
            }
        }
    }
}

#[test]
fn sqrt_tolerance_clamps_to_roster_support() {
    let row = Algorithm::ArbitrarySqrtTh5.row();
    // 5 robots cannot sustain any 2f+1 helper-group construction.
    assert_eq!(row.tolerance(16, 5), 0);
    // 15 robots sustain f = 2 ((2·2+1)·3 = 15 ≤ 15).
    assert_eq!(row.tolerance(25, 15), 2);
}

// ---------------------------------------------------------- round budgets

/// Fault-free run of every row: the observed honest-termination round must
/// equal the descriptor's `round_budget` exactly — every controller
/// self-times to its phase end, and the budget is that end.
#[test]
fn round_budget_matches_observed_honest_termination_round() {
    for algo in all_algorithms() {
        let n = 9;
        let session = Session::new(conforming_graph(algo, n));
        // Evaluate each row in its Table 1 starting configuration (the
        // baseline's collision-free assignment needs co-located ranks).
        let spec = ScenarioSpec::evaluation(algo, session.graph()).with_seed(6);
        let plan = session.plan(&spec).unwrap();
        let budget = algo.row().round_budget(&plan);
        let out = session
            .run(&spec)
            .unwrap_or_else(|e| panic!("{algo:?}: {e}"));
        assert!(out.dispersed, "{algo:?}: {:?}", out.report.violations);
        assert_eq!(
            out.rounds, budget,
            "{algo:?}: observed rounds != round_budget"
        );
    }
}

/// Same exactness under an active adversary at maximum tolerance: honest
/// controllers never terminate early or late because of Byzantine noise.
#[test]
fn round_budget_exact_under_adversaries_at_max_tolerance() {
    for (algo, kind) in [
        (Algorithm::GatheredThirdTh4, AdversaryKind::TokenHijacker),
        (Algorithm::GatheredHalfTh3, AdversaryKind::Wanderer),
        (Algorithm::StrongGatheredTh6, AdversaryKind::StrongSpoofer),
    ] {
        let n = 9;
        let session = Session::new(conforming_graph(algo, n));
        let spec = ScenarioSpec::gathered(algo, session.graph(), 0)
            .with_byzantine(algo.tolerance(n), kind)
            .with_seed(2);
        let plan = session.plan(&spec).unwrap();
        let budget = algo.row().round_budget(&plan);
        let out = session.run(&spec).unwrap();
        assert!(out.dispersed, "{algo:?}");
        assert_eq!(out.rounds, budget, "{algo:?}");
    }
}

/// The phase schedule is the round budget, decomposed: for every row, the
/// timeline's phases must tile `[0, round_budget)` — consecutive,
/// non-overlapping, ending exactly at the budget. The telemetry layer
/// (engine phase attribution, `RunMetrics::rounds_by_phase`) leans on this
/// contract.
#[test]
fn phase_schedule_tiles_the_round_budget_for_every_row() {
    for algo in all_algorithms() {
        for n in [7usize, 9, 12] {
            let session = Session::new(conforming_graph(algo, n));
            let spec = ScenarioSpec::evaluation(algo, session.graph()).with_seed(6);
            let plan = session.plan(&spec).unwrap();
            let row = algo.row();
            let schedule = row.phase_schedule(&plan);
            assert_eq!(
                schedule.end(),
                row.round_budget(&plan),
                "{algo:?} n={n}: schedule must end exactly at the budget"
            );
            assert!(
                !schedule.phases().is_empty(),
                "{algo:?} n={n}: at least one phase"
            );
            let mut cursor = 0u64;
            for (name, start, end) in schedule.phases() {
                assert_eq!(*start, cursor, "{algo:?} n={n}: gap before {name}");
                assert!(*end > *start, "{algo:?} n={n}: empty phase {name}");
                assert!(!name.is_empty(), "{algo:?} n={n}: unnamed phase");
                cursor = *end;
            }
        }
    }
}

/// The run's measured `rounds_by_phase` annotation reproduces the schedule
/// (fault-free runs terminate exactly at the budget, so no clipping).
#[test]
fn run_metrics_phase_annotation_matches_schedule() {
    let algo = Algorithm::GatheredThirdTh4;
    let session = Session::new(conforming_graph(algo, 9));
    let spec = ScenarioSpec::evaluation(algo, session.graph()).with_seed(6);
    let plan = session.plan(&spec).unwrap();
    let schedule = algo.row().phase_schedule(&plan);
    let out = session.run(&spec).unwrap();
    let want: Vec<(String, u64)> = schedule
        .phases()
        .iter()
        .map(|(name, start, end)| (name.clone(), end - start))
        .collect();
    assert_eq!(out.metrics.rounds_by_phase, want);
    let total: u64 = out.metrics.rounds_by_phase.iter().map(|(_, r)| r).sum();
    assert_eq!(total, out.rounds, "phase rounds sum to the run's rounds");
}

// ------------------------------------------------------------- descriptors

#[test]
fn descriptor_metadata_is_consistent() {
    let mut names = std::collections::BTreeSet::new();
    for algo in all_algorithms() {
        let row = algo.row();
        assert_eq!(row.name(), format!("{algo:?}"), "registry name drift");
        assert!(
            names.insert(row.name()),
            "duplicate row name {}",
            row.name()
        );
        assert!(!row.theorem().is_empty());
        assert!(!row.paper_time().is_empty());
        assert!(!row.paper_tolerance().is_empty());
        // Strong rows and only strong rows face the strong flavor.
        assert_eq!(
            row.strong(),
            matches!(
                algo,
                Algorithm::StrongGatheredTh6 | Algorithm::StrongArbitraryTh7
            )
        );
        // The gathers() shorthand mirrors the start requirement.
        assert_eq!(
            algo.gathers(),
            row.start_requirement() == StartRequirement::GathersFirst
        );
    }
}

#[test]
fn gathered_rows_refuse_arbitrary_starts_via_requirement() {
    let session = Session::new(conforming_graph(Algorithm::GatheredThirdTh4, 9));
    for algo in all_algorithms() {
        if algo.row().start_requirement() != StartRequirement::Gathered {
            continue;
        }
        let spec = ScenarioSpec::arbitrary(algo, session.graph());
        let err = session.run(&spec).unwrap_err();
        assert!(
            format!("{err}").contains("gathered start"),
            "{algo:?}: {err}"
        );
    }
}
