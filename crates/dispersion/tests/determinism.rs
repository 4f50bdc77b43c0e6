//! Determinism and oracle conformance for the arena-backed engine.
//!
//! Four properties across a matrix of {algorithm × adversary × graph
//! family}:
//!
//! 1. **Determinism** — the same spec run twice produces identical
//!    outcomes (positions, rounds, full metrics): the incremental
//!    roster/bulletin arenas hold no state that leaks between runs.
//! 2. **Budget exactness** — measured rounds equal the registry's round
//!    budget (the no-drift invariant BASELINES.md is pinned to; rounds are
//!    derived from phase timelines, never from adversary behavior).
//! 3. **Oracle equivalence** — the naive reference engine in `bd-oracle`,
//!    which steps every round, reproduces every cell of the matrix
//!    trajectory-for-trajectory (see `crates/oracle` and VERIFICATION.md
//!    for what is compared), and fault-free cells too. Adversarial runs
//!    must actually skip rounds (the `rounds_skipped` metric) on every row
//!    with idle phases — the regression gate for the adversary
//!    idle-horizon contract.
//! 4. **Pool equivalence** — a [`BatchPlanner`] batch run on the thread
//!    pool returns, in `add` order, exactly what each cell returns when
//!    run alone.
//!
//! Engine counters are process-global while switched on, so every test
//! here serializes on one gate: a report drain then sees only its own
//! test's engines.

use bd_dispersion::adversaries::AdversaryKind;
use bd_dispersion::runner::{Algorithm, ByzPlacement, ScenarioSpec};
use bd_dispersion::{BatchPlanner, DispersionError, Session};
use bd_graphs::generators::{erdos_renyi_connected, lollipop, random_tree};
use bd_graphs::PortGraph;
use std::sync::{Arc, Mutex};

/// Serializes the tests of this file (see the module docs).
static GATE: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Graph families every Table 1 precondition holds on (view-asymmetric;
/// also used by the cross-crate integration suite).
fn families() -> Vec<(&'static str, PortGraph)> {
    vec![
        ("gnp", erdos_renyi_connected(11, 0.35, 6).unwrap()),
        ("tree", random_tree(10, 4).unwrap()),
        ("lollipop", lollipop(5, 4).unwrap()),
    ]
}

/// The evaluation cell of `algo` on `graph` under `kind` at max tolerance.
fn cell(algo: Algorithm, graph: &PortGraph, kind: AdversaryKind, seed: u64) -> ScenarioSpec {
    let f = algo.tolerance(graph.n());
    ScenarioSpec::evaluation(algo, graph)
        .with_byzantine(f, kind)
        .with_placement(ByzPlacement::Random)
        .with_seed(seed)
}

/// Rows × adversaries of the conformance matrix. The bool is whether the
/// row has idle phases, i.e. whether adversarial runs are *required* to
/// fast-forward (Theorem 1's walk + DUM pipeline is never idle, so it is
/// exempt — every other row must skip).
fn matrix() -> Vec<(Algorithm, AdversaryKind, bool)> {
    vec![
        (Algorithm::QuotientTh1, AdversaryKind::FakeSettler, false),
        (Algorithm::ArbitraryHalfTh2, AdversaryKind::Wanderer, true),
        (Algorithm::GatheredHalfTh3, AdversaryKind::Wanderer, true),
        (Algorithm::GatheredHalfTh3, AdversaryKind::Silent, true),
        (
            Algorithm::GatheredThirdTh4,
            AdversaryKind::TokenHijacker,
            true,
        ),
        (Algorithm::GatheredThirdTh4, AdversaryKind::MapLiar, true),
        (
            Algorithm::GatheredThirdTh4,
            AdversaryKind::CrashMidway,
            true,
        ),
        (
            Algorithm::ArbitrarySqrtTh5,
            AdversaryKind::TokenHijacker,
            true,
        ),
        (
            Algorithm::StrongGatheredTh6,
            AdversaryKind::StrongSpoofer,
            true,
        ),
        (Algorithm::StrongGatheredTh6, AdversaryKind::Crowd, true),
        (
            Algorithm::StrongArbitraryTh7,
            AdversaryKind::StrongSpoofer,
            true,
        ),
    ]
}

#[test]
fn identical_outcomes_across_reruns() {
    let _gate = locked();
    for (family, graph) in families() {
        let session = Session::new(graph);
        for (algo, kind, _) in matrix() {
            let spec = cell(algo, session.graph(), kind, 5);
            let label = format!("{algo:?}/{kind:?}/{family}");
            let a = session
                .run(&spec)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            let b = session.run(&spec).unwrap();
            assert!(a.dispersed, "{label}: {:?}", a.report.violations);
            assert_eq!(a.final_positions, b.final_positions, "{label}");
            assert_eq!(a.rounds, b.rounds, "{label}");
            assert_eq!(a.metrics, b.metrics, "{label}");
        }
    }
}

#[test]
fn rounds_equal_registry_budget() {
    let _gate = locked();
    for (family, graph) in families() {
        let session = Session::new(graph);
        for (algo, kind, _) in matrix() {
            let spec = cell(algo, session.graph(), kind, 7);
            let label = format!("{algo:?}/{kind:?}/{family}");
            let budget = algo.row().round_budget(&session.plan(&spec).unwrap());
            let out = session.run(&spec).unwrap();
            assert_eq!(out.rounds, budget, "{label}: drift against the timeline");
        }
    }
}

/// Fails the test unless the reference engine in `bd-oracle`, which steps
/// every round, reproduces `spec`'s cell: full per-round trajectory,
/// outcome, and movement metrics.
fn assert_oracle_agrees(session: &Session, spec: &ScenarioSpec, label: &str) {
    use bd_oracle::CellVerdict;
    match bd_oracle::check_cell(session, spec, |c| c) {
        CellVerdict::Match { .. } => {}
        CellVerdict::MatchErr(e) => {
            panic!("{label}: cell unexpectedly errored on both engines: {e}")
        }
        CellVerdict::Diverged(d) => panic!("{label}: {d}"),
    }
}

/// The heart of the conformance gate: skipping idle stretches must
/// reproduce the trajectory of the oracle, which steps every round, and
/// the skipping run must genuinely skip on every row with idle phases.
#[test]
fn fast_forward_changes_nothing_but_wall_clock() {
    let _gate = locked();
    let session = Session::new(erdos_renyi_connected(11, 0.35, 6).unwrap());
    for (algo, kind, must_skip) in matrix() {
        let spec = cell(algo, session.graph(), kind, 3);
        let label = format!("{algo:?}/{kind:?}");
        assert_oracle_agrees(&session, &spec, &label);
        let fast = session.run(&spec).unwrap();
        let skipped = fast.metrics.rounds_skipped;
        if must_skip {
            assert!(skipped > 0, "{label}: adversarial run failed to skip");
        }
        assert!(skipped < fast.rounds, "{label}: skip accounting");
        // Skipped rounds execute no sub-rounds; stepped rounds execute at
        // least one.
        assert!(
            fast.metrics.subrounds_executed >= fast.rounds - skipped,
            "{label}: sub-round accounting"
        );
    }
}

/// The differential gate: every cell of the conformance matrix, on every
/// graph family, must be reproduced by the deliberately naive reference
/// engine in `bd-oracle` — full per-round trajectory, outcome, and
/// movement metrics, not just the endpoint. Any engine optimization that
/// changes what happens (rather than how fast it happens) fails here.
#[test]
fn oracle_reproduces_the_conformance_matrix() {
    let _gate = locked();
    for (family, graph) in families() {
        let session = Session::new(graph);
        for (algo, kind, _) in matrix() {
            let spec = cell(algo, session.graph(), kind, 11);
            assert_oracle_agrees(&session, &spec, &format!("{algo:?}/{kind:?}/{family}"));
        }
    }
}

/// Fault-free runs skip too, and their trajectories must equal the
/// oracle's, which steps every round.
#[test]
fn fault_free_fast_forward_still_exact() {
    let _gate = locked();
    let session = Session::new(erdos_renyi_connected(11, 0.35, 6).unwrap());
    for algo in Algorithm::table1() {
        let spec = ScenarioSpec::evaluation(algo, session.graph()).with_seed(9);
        assert_oracle_agrees(&session, &spec, &format!("{algo:?}"));
    }
}

/// The batch pool changes nothing but wall-clock. A batch over three
/// graphs and three rows, with more cells than workers and one cell that
/// cannot plan, returns in `add` order exactly what each cell's own
/// `Session::run` returns (`Outcome` equality ignores `elapsed_micros`),
/// the planning error at its index, and one engine report per runnable
/// cell.
#[test]
fn pooled_batch_equals_each_cell_run_alone() {
    let _gate = locked();
    let rows = [
        (Algorithm::GatheredThirdTh4, AdversaryKind::TokenHijacker),
        (Algorithm::ArbitraryHalfTh2, AdversaryKind::Wanderer),
        (Algorithm::StrongGatheredTh6, AdversaryKind::StrongSpoofer),
    ];
    let mut cells: Vec<(Arc<PortGraph>, ScenarioSpec)> = Vec::new();
    for (_, graph) in families() {
        let graph = Arc::new(graph);
        for (algo, kind) in rows {
            for seed in 0..2 {
                cells.push((Arc::clone(&graph), cell(algo, &graph, kind, seed)));
            }
        }
    }
    let bad_at = 4;
    let (graph, spec) = cells[0].clone();
    cells.insert(bad_at, (graph, spec.with_robots(0)));

    let expected: Vec<_> = cells
        .iter()
        .map(|(graph, spec)| Session::new(Arc::clone(graph)).run(spec))
        .collect();
    let mut planner = BatchPlanner::new();
    for (graph, spec) in &cells {
        planner.add(graph, spec.clone());
    }
    assert_eq!(planner.num_sessions(), 3);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert!(
        cells.len() > workers,
        "{} cells do not outnumber {workers} workers",
        cells.len()
    );

    let _ = bd_telemetry::drain_engine_reports();
    bd_telemetry::enable_counters(true);
    let results = planner.run();
    bd_telemetry::enable_counters(false);
    let reports = bd_telemetry::drain_engine_reports();

    assert_eq!(results.len(), cells.len());
    assert!(
        matches!(results[bad_at], Err(DispersionError::BadScenario(_))),
        "cell {bad_at}: {:?}",
        results[bad_at]
    );
    for (idx, (got, want)) in results.iter().zip(&expected).enumerate() {
        assert_eq!(got, want, "cell {idx}: {:?}", cells[idx].1.algo);
    }
    assert_eq!(
        reports.len(),
        cells.len() - 1,
        "one engine report per runnable cell"
    );
}
