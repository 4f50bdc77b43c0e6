//! Trace-export conformance: the span stream the engine and session emit
//! must be *deterministic modulo timestamps* — two runs of the same cell
//! produce the same events in the same order, differing only in `ts`,
//! `dur`, and the global sequence numbers — and structurally well formed
//! (every open span closes, LIFO order). Reuses the determinism suite's
//! conformance matrix so the trace contract is pinned on the same cells
//! the trajectory contract is.
//!
//! Span recording is process-global, so every test here serializes on one
//! gate and drains the buffer before and after itself. The pool
//! equivalence test lives here for the same reason: it drains the
//! process-global engine reports.

use bd_dispersion::adversaries::AdversaryKind;
use bd_dispersion::runner::{Algorithm, ByzPlacement, ScenarioSpec};
use bd_dispersion::{BatchPlanner, DispersionError, Session};
use bd_graphs::generators::{erdos_renyi_connected, lollipop, random_tree};
use bd_graphs::PortGraph;
use bd_telemetry::{spans, SpanEvent};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Serializes span-recording tests: the recorder is process-global.
static GATE: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// The determinism suite's graph families (every Table 1 precondition
/// holds on them).
fn families() -> Vec<(&'static str, PortGraph)> {
    vec![
        ("gnp", erdos_renyi_connected(11, 0.35, 6).unwrap()),
        ("tree", random_tree(10, 4).unwrap()),
        ("lollipop", lollipop(5, 4).unwrap()),
    ]
}

/// The evaluation cell of `algo` on `graph` under `kind` at max tolerance
/// (same construction as the determinism suite).
fn cell(algo: Algorithm, graph: &PortGraph, kind: AdversaryKind, seed: u64) -> ScenarioSpec {
    let f = algo.tolerance(graph.n());
    ScenarioSpec::evaluation(algo, graph)
        .with_byzantine(f, kind)
        .with_placement(ByzPlacement::Random)
        .with_seed(seed)
}

/// The determinism suite's rows × adversaries conformance matrix.
fn matrix() -> Vec<(Algorithm, AdversaryKind)> {
    vec![
        (Algorithm::QuotientTh1, AdversaryKind::FakeSettler),
        (Algorithm::ArbitraryHalfTh2, AdversaryKind::Wanderer),
        (Algorithm::GatheredHalfTh3, AdversaryKind::Wanderer),
        (Algorithm::GatheredThirdTh4, AdversaryKind::TokenHijacker),
        (Algorithm::ArbitrarySqrtTh5, AdversaryKind::TokenHijacker),
        (Algorithm::StrongGatheredTh6, AdversaryKind::StrongSpoofer),
        (Algorithm::StrongArbitraryTh7, AdversaryKind::StrongSpoofer),
    ]
}

/// Everything about an event except wall-clock and global sequencing —
/// the part two identical runs must agree on byte for byte.
fn shape(events: &[SpanEvent]) -> Vec<(char, &'static str, String, Vec<(&'static str, String)>)> {
    events
        .iter()
        .map(|e| (e.ph, e.cat, e.name.clone(), e.args.clone()))
        .collect()
}

/// Structural well-formedness: 'B'/'E' pair off in LIFO order (matching
/// category and name), nothing stays open, and timestamps never go
/// backwards within the stream ('X' completes carry their own bounds).
fn assert_well_formed(events: &[SpanEvent]) {
    let mut stack: Vec<(&'static str, &str)> = Vec::new();
    let mut last_ts = 0u64;
    for e in events {
        assert!(e.ts >= last_ts, "timestamps regressed at {:?}", e.name);
        last_ts = e.ts;
        match e.ph {
            'B' => stack.push((e.cat, &e.name)),
            'E' => {
                let (cat, name) = stack
                    .pop()
                    .unwrap_or_else(|| panic!("close of {}/{} with no open span", e.cat, e.name));
                assert_eq!((cat, name), (e.cat, e.name.as_str()), "non-LIFO close");
            }
            'X' => assert!(
                !stack.is_empty(),
                "complete event {}/{} outside any open span",
                e.cat,
                e.name
            ),
            other => panic!("unknown phase {other:?}"),
        }
    }
    assert!(stack.is_empty(), "spans left open: {stack:?}");
}

/// One traced run of `spec`, returning the drained events.
fn traced_run(session: &Session, spec: &ScenarioSpec) -> Vec<SpanEvent> {
    spans::drain();
    let _ = bd_telemetry::drain_engine_reports();
    session.run(spec).expect("matrix cell runs");
    let _ = bd_telemetry::drain_engine_reports();
    spans::drain()
}

/// Two runs of every conformance-matrix cell produce identical event
/// streams modulo timestamps: same spans, same order, same args — the
/// trace a `--trace-out` file records is a function of the cell, not of
/// the wall clock it ran under.
#[test]
fn trace_stream_is_deterministic_modulo_timestamps() {
    let _gate = locked();
    bd_telemetry::enable_spans(true);
    bd_telemetry::enable_counters(true);
    let session = Session::new(erdos_renyi_connected(11, 0.35, 6).unwrap());
    for (algo, kind) in matrix() {
        let spec = cell(algo, session.graph(), kind, 5);
        let label = format!("{algo:?}/{kind:?}");
        let first = traced_run(&session, &spec);
        let second = traced_run(&session, &spec);
        assert!(
            !first.is_empty(),
            "{label}: traced run emitted no span events"
        );
        assert_well_formed(&first);
        assert_well_formed(&second);
        assert_eq!(shape(&first), shape(&second), "{label}: trace diverged");
        // The tree has the documented levels: one cell span wrapping
        // engine phase completes, and the phase rounds sum to the cell's
        // round budget (the schedule tiles it — registry conformance).
        assert_eq!(first[0].ph, 'B', "{label}: stream starts with the cell");
        assert_eq!(first[0].cat, "cell", "{label}");
        let phase_rounds: u64 = first
            .iter()
            .filter(|e| e.ph == 'X' && e.cat == "phase")
            .map(|e| {
                let rounds = e
                    .args
                    .iter()
                    .find(|(k, _)| *k == "rounds")
                    .expect("phase spans carry rounds");
                rounds.1.parse::<u64>().expect("numeric rounds")
            })
            .sum();
        let budget = algo.row().round_budget(&session.plan(&spec).unwrap());
        assert_eq!(phase_rounds, budget, "{label}: phase rounds vs budget");
    }
    bd_telemetry::enable_spans(false);
    bd_telemetry::enable_counters(false);
    spans::drain();
}

/// A tagged batch across several graphs runs on the thread pool, and
/// its trace still reads as one tree per thread: each thread's spans
/// balance on their own, and every cell span sits directly under a batch
/// span carrying the batch's args and tag — so a request id reaches every
/// cell, whichever worker ran it.
#[test]
fn pooled_batch_nests_every_cell_under_a_tagged_batch_span() {
    let _gate = locked();
    let mut planner = BatchPlanner::new();
    for (n, graph_seed) in [(9, 6), (11, 6), (12, 3)] {
        let graph = Arc::new(erdos_renyi_connected(n, 0.35, graph_seed).unwrap());
        for (algo, kind) in matrix().into_iter().skip(2).take(3) {
            planner.add(&graph, cell(algo, &graph, kind, 5));
        }
    }
    planner.tag("req", "00c0ffee00c0ffee".to_string());
    bd_telemetry::enable_spans(true);
    spans::drain();
    let results = planner.run();
    bd_telemetry::enable_spans(false);
    let events = spans::drain();
    assert!(results.iter().all(|r| r.is_ok()), "{results:?}");

    let mut threads: BTreeMap<u64, Vec<SpanEvent>> = BTreeMap::new();
    for e in events {
        threads.entry(e.tid).or_default().push(e);
    }
    let want_args = [
        ("cells", "9".to_string()),
        ("graphs", "3".to_string()),
        ("req", "00c0ffee00c0ffee".to_string()),
    ];
    let mut cells = 0;
    for (tid, events) in &threads {
        assert_well_formed(events);
        let mut open: Vec<&SpanEvent> = Vec::new();
        for e in events {
            match e.ph {
                'B' => {
                    if e.cat == "cell" {
                        let parent = open
                            .last()
                            .unwrap_or_else(|| panic!("tid {tid}: cell {} outside a span", e.name));
                        assert_eq!(parent.cat, "batch", "tid {tid}: cell {} parent", e.name);
                        assert_eq!(parent.args, want_args, "tid {tid}: batch span args");
                        cells += 1;
                    }
                    open.push(e);
                }
                'E' => {
                    open.pop();
                }
                _ => {}
            }
        }
    }
    assert_eq!(cells, 9, "every cell traced exactly once");
}

/// With recording disabled, a run emits nothing — the disabled path is a
/// single flag check, not a suppressed buffer.
#[test]
fn disabled_recording_emits_no_events() {
    let _gate = locked();
    bd_telemetry::enable_spans(false);
    bd_telemetry::enable_counters(false);
    spans::drain();
    let session = Session::new(erdos_renyi_connected(11, 0.35, 6).unwrap());
    let spec = cell(
        Algorithm::GatheredThirdTh4,
        session.graph(),
        AdversaryKind::TokenHijacker,
        5,
    );
    session.run(&spec).unwrap();
    assert!(spans::drain().is_empty(), "disabled run leaked span events");
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

proptest! {
    /// Arbitrary open/close nesting through the guard API always drains
    /// to a balanced, LIFO-ordered stream: guards close in drop order no
    /// matter how the caller shapes the tree. The tree is a seeded random
    /// depth walk (the vendored proptest strategies are scalar).
    #[test]
    fn arbitrary_nesting_drains_balanced(seed in 0u64..10_000, steps in 1usize..24) {
        let _gate = locked();
        bd_telemetry::enable_spans(true);
        spans::drain();
        // Interpret each drawn value as a target depth: climbing opens
        // spans, descending drops guards — a random walk over tree shapes.
        let names = ["a", "b", "c", "d"];
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut guards: Vec<bd_telemetry::SpanGuard> = Vec::new();
        for _ in 0..steps {
            // xorshift64: deterministic per sampled seed.
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let depth = (rng % 4) as usize;
            while guards.len() > depth {
                guards.pop();
            }
            while guards.len() <= depth {
                let name = names[guards.len() % names.len()];
                guards.push(spans::span("prop", name).expect("spans enabled"));
            }
        }
        // Unwind deepest-first: a Vec drops front-to-back, which would
        // close the outermost span first and break nesting.
        while guards.pop().is_some() {}
        let events = spans::drain();
        bd_telemetry::enable_spans(false);
        assert_well_formed(&events);
        let opens = events.iter().filter(|e| e.ph == 'B').count();
        let closes = events.iter().filter(|e| e.ph == 'E').count();
        prop_assert_eq!(opens, closes);
        prop_assert!(opens >= 1);
    }
}
