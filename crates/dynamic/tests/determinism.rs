//! Determinism and fast-forward conformance for event-scheduled worlds.
//!
//! The static engine's conformance gates (see
//! `crates/dispersion/tests/determinism.rs`) extend to dynamic sessions
//! over a matrix of {event class × algorithm × adversary}:
//!
//! 1. **Determinism** — the same dynamic spec run twice produces identical
//!    outcomes: every epoch's rounds, positions, metrics, and the
//!    cumulative trace. Epoch transitions (seat rebuilds, graph swaps,
//!    arena resets) hold no state that leaks between runs.
//! 2. **Fast-forward conformance** — stepping every round reproduces the
//!    fast-forwarded trajectory epoch for epoch. Fast-forward promises are
//!    made in *epoch-local* time and translated by the engine; this suite
//!    is the gate on that translation.
//! 3. **Replay fidelity** — a `bdtr1` document exported from a live run
//!    re-executes to the byte-identical outcome (the property CI's replay
//!    smoke drives end to end).
//!
//! Every new event class added to `bd-dynamic` must appear in this matrix
//! *and* in the event-aware oracle (DYNAMICS.md states the rule).

use bd_dispersion::adversaries::AdversaryKind;
use bd_dispersion::runner::{Algorithm, ScenarioSpec};
use bd_dynamic::{replay, DynamicSession, DynamicSpec, EventKind, EventSchedule, ReplayVerdict};
use bd_graphs::generators::{erdos_renyi_connected, random_tree};
use bd_graphs::PortGraph;
use bd_runtime::Engine;

/// The first edge whose removal keeps `graph` connected — the edge the
/// topology event class fails and heals.
fn removable_edge(graph: &PortGraph) -> (usize, usize) {
    for u in 0..graph.n() {
        for p in 0..graph.degree(u) {
            let (v, _) = graph.neighbor(u, p);
            if u < v && graph.without_edge(u, v).unwrap().is_connected() {
                return (u, v);
            }
        }
    }
    panic!("no removable edge in the test graph");
}

/// One matrix row: a named event class on a named cell.
struct Row {
    label: &'static str,
    graph: PortGraph,
    spec: DynamicSpec,
    /// Whether the final epoch is guaranteed to verify. The arbitrary-start
    /// baseline rows are not: the baseline's DFS-preorder assignment is
    /// only collision-free from a gathered start (which is why Table 1
    /// evaluates it gathered), so those rows pin determinism and
    /// conformance but not the verdict.
    must_disperse: bool,
}

/// The {event class × algorithm × adversary} conformance matrix. Event
/// classes: churn (join + leave), topology (edge fail + heal), adversary
/// switch, capacity change, and the combined gauntlet. Only rows whose
/// start requirement survives mid-run reseating qualify (gathered-start
/// rows are rejected by validation).
fn matrix() -> Vec<Row> {
    let gnp = erdos_renyi_connected(11, 0.35, 6).unwrap();
    let tree = random_tree(10, 4).unwrap();
    let (eu, ev) = removable_edge(&gnp);
    let mut rows = Vec::new();

    // Churn on the fault-free baseline and on the sqrt row at tolerance.
    for (label, algo, f, kind) in [
        ("churn/Baseline/none", Algorithm::Baseline, 0, None),
        (
            "churn/ArbitrarySqrtTh5/Wanderer",
            Algorithm::ArbitrarySqrtTh5,
            1,
            Some(AdversaryKind::Wanderer),
        ),
    ] {
        let mut base = ScenarioSpec::arbitrary(algo, &gnp)
            .with_robots(8)
            .with_seed(13);
        if let Some(kind) = kind {
            base = base.with_byzantine(f, kind);
        }
        rows.push(Row {
            label,
            graph: gnp.clone(),
            spec: DynamicSpec {
                base,
                schedule: EventSchedule::default()
                    .with(
                        4,
                        EventKind::Join {
                            node: 1,
                            honest: true,
                        },
                    )
                    .with(4, EventKind::Leave { robot: 0 }),
            },
            must_disperse: algo != Algorithm::Baseline,
        });
    }

    // Topology: the removable edge fails, then heals.
    for (label, algo, f, kind) in [
        ("topology/Baseline/none", Algorithm::Baseline, 0, None),
        (
            "topology/ArbitrarySqrtTh5/Silent",
            Algorithm::ArbitrarySqrtTh5,
            1,
            Some(AdversaryKind::Silent),
        ),
    ] {
        let mut base = ScenarioSpec::arbitrary(algo, &gnp)
            .with_robots(8)
            .with_seed(17);
        if let Some(kind) = kind {
            base = base.with_byzantine(f, kind);
        }
        rows.push(Row {
            label,
            graph: gnp.clone(),
            spec: DynamicSpec {
                base,
                schedule: EventSchedule::default()
                    .with(3, EventKind::EdgeFail { u: eu, v: ev })
                    .with(9, EventKind::EdgeHeal { u: eu, v: ev }),
            },
            must_disperse: algo != Algorithm::Baseline,
        });
    }

    // Adversary switch mid-run: the sqrt row on the gnp graph, and the
    // quotient row at almost-all-Byzantine tolerance on the (asymmetric)
    // tree — churn and switches only there, since severing any tree edge
    // disconnects it.
    rows.push(Row {
        label: "switch/ArbitrarySqrtTh5/Silent->Wanderer",
        graph: gnp.clone(),
        spec: DynamicSpec {
            base: ScenarioSpec::arbitrary(Algorithm::ArbitrarySqrtTh5, &gnp)
                .with_robots(8)
                .with_byzantine(1, AdversaryKind::Silent)
                .with_seed(19),
            schedule: EventSchedule::default().with(
                6,
                EventKind::AdversarySwitch {
                    adversary: AdversaryKind::Wanderer,
                },
            ),
        },
        must_disperse: true,
    });
    rows.push(Row {
        label: "switch+churn/QuotientTh1/FakeSettler->Silent",
        graph: tree.clone(),
        spec: DynamicSpec {
            base: ScenarioSpec::arbitrary(Algorithm::QuotientTh1, &tree)
                .with_byzantine(
                    Algorithm::QuotientTh1.tolerance(tree.n()),
                    AdversaryKind::FakeSettler,
                )
                .with_seed(7),
            schedule: EventSchedule::default()
                .with(5, EventKind::Leave { robot: 0 })
                .with(
                    5,
                    EventKind::Join {
                        node: 2,
                        honest: false,
                    },
                )
                .with(
                    10,
                    EventKind::AdversarySwitch {
                        adversary: AdversaryKind::Silent,
                    },
                ),
        },
        must_disperse: true,
    });

    // Capacity change: the verification contract flips mid-run.
    rows.push(Row {
        label: "capacity/Baseline/none",
        graph: gnp.clone(),
        spec: DynamicSpec {
            base: ScenarioSpec::arbitrary(Algorithm::Baseline, &gnp)
                .with_robots(8)
                .with_seed(23),
            schedule: EventSchedule::default().with(4, EventKind::CapacityChange { capacity: 2 }),
        },
        // Capacity 2 makes room for baseline collisions as well.
        must_disperse: true,
    });

    // The combined gauntlet: every event class in one schedule.
    rows.push(Row {
        label: "gauntlet/ArbitrarySqrtTh5/Silent",
        graph: gnp.clone(),
        spec: DynamicSpec {
            base: ScenarioSpec::arbitrary(Algorithm::ArbitrarySqrtTh5, &gnp)
                .with_robots(8)
                .with_byzantine(1, AdversaryKind::Silent)
                .with_seed(29),
            schedule: EventSchedule::default()
                .with(3, EventKind::EdgeFail { u: eu, v: ev })
                .with(
                    6,
                    EventKind::Join {
                        node: 0,
                        honest: true,
                    },
                )
                .with(6, EventKind::Leave { robot: 1 })
                .with(9, EventKind::EdgeHeal { u: eu, v: ev })
                .with(
                    9,
                    EventKind::AdversarySwitch {
                        adversary: AdversaryKind::Wanderer,
                    },
                ),
        },
        must_disperse: true,
    });

    rows
}

/// Property 1: two runs of the same dynamic spec are indistinguishable —
/// full outcome equality, epoch for epoch, including the cumulative trace.
#[test]
fn double_runs_are_identical() {
    for row in matrix() {
        let session = DynamicSession::new(row.graph.clone());
        let label = row.label;
        let a = session
            .run(&row.spec)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let b = session.run(&row.spec).unwrap();
        assert_eq!(a, b, "{label}: reruns diverged");
        let last = a.epochs.last().unwrap();
        assert!(last.terminated, "{label}: final epoch hit its budget");
        if row.must_disperse {
            assert!(
                last.outcome.dispersed,
                "{label}: {:?}",
                last.outcome.report.violations
            );
        }
    }
}

/// Property 2: disabling fast-forward (every round stepped) reproduces
/// the fast-forwarded trajectory epoch for epoch. Work measures
/// (`rounds_skipped`, `subrounds_executed`) are the only legal difference.
#[test]
fn fast_forward_changes_no_trajectory() {
    for row in matrix() {
        let session = DynamicSession::new(row.graph.clone());
        let label = row.label;
        let fast = session.run(&row.spec).unwrap();
        let slow = session
            .run_with(&row.spec, |g, c| Engine::new(g, c.without_fast_forward()))
            .unwrap();
        assert_eq!(fast.epochs.len(), slow.epochs.len(), "{label}: epochs");
        if let Some(d) = fast.trace.first_divergence(&slow.trace) {
            panic!("{label}: fast-forward altered the trajectory: {d}");
        }
        for (f, s) in fast.epochs.iter().zip(&slow.epochs) {
            let e = f.epoch;
            assert_eq!(f.start_round, s.start_round, "{label}/epoch{e}");
            assert_eq!(f.end_round, s.end_round, "{label}/epoch{e}");
            assert_eq!(f.terminated, s.terminated, "{label}/epoch{e}");
            assert_eq!(f.outcome.rounds, s.outcome.rounds, "{label}/epoch{e}");
            assert_eq!(
                f.outcome.final_positions, s.outcome.final_positions,
                "{label}/epoch{e}: positions"
            );
            assert_eq!(
                f.outcome.metrics.total_moves, s.outcome.metrics.total_moves,
                "{label}/epoch{e}: move totals"
            );
            assert_eq!(
                f.outcome.metrics.max_moves_per_robot, s.outcome.metrics.max_moves_per_robot,
                "{label}/epoch{e}: per-robot move totals"
            );
            assert_eq!(
                s.outcome.metrics.rounds_skipped, 0,
                "{label}/epoch{e}: slow path skipped"
            );
        }
        assert_eq!(fast.total_rounds, slow.total_rounds, "{label}: total");
    }
}

/// Property 3: a `bdtr1` document exported from a live run replays to the
/// byte-identical outcome, and parsing round-trips the recorded one.
#[test]
fn replay_equals_live() {
    for row in matrix() {
        let session = DynamicSession::new(row.graph.clone());
        let label = row.label;
        let outcome = session.run(&row.spec).unwrap();
        let doc = replay::export(&row.graph, &row.spec, &outcome);
        let (graph, spec, recorded) = replay::parse(&doc).unwrap();
        assert_eq!(graph, row.graph, "{label}: graph round-trip");
        assert_eq!(spec, row.spec, "{label}: spec round-trip");
        assert_eq!(recorded, outcome, "{label}: outcome round-trip");
        match replay::replay(&doc).unwrap() {
            ReplayVerdict::Identical => {}
            ReplayVerdict::Diverged { at_byte, detail } => {
                panic!("{label}: replay diverged at byte {at_byte}: {detail}")
            }
        }
    }
}
