//! Cross-crate integration: substrates composed end-to-end through the
//! facade, exactly as a downstream user would drive them.

use byzantine_dispersion::dispersion::runner::ByzPlacement;
use byzantine_dispersion::exploration::sim::build_map_offline;
use byzantine_dispersion::gathering::gathering_target;
use byzantine_dispersion::gathering::route::gather_route;
use byzantine_dispersion::graphs::iso::are_isomorphic_rooted;
use byzantine_dispersion::graphs::navigate::follow_ports;
use byzantine_dispersion::graphs::quotient::quotient_graph;
use byzantine_dispersion::prelude::*;

/// The full Theorem 1 pipeline on every graph family that satisfies its
/// precondition.
#[test]
fn theorem1_pipeline_across_families() {
    let graphs = vec![
        ("ring", generators::ring(9).unwrap()),
        ("star", generators::star(8).unwrap()),
        ("tree", generators::random_tree(10, 4).unwrap()),
        (
            "gnp",
            generators::erdos_renyi_connected(11, 0.35, 6).unwrap(),
        ),
        ("lollipop", generators::lollipop(5, 4).unwrap()),
    ];
    for (label, g) in graphs {
        let q = quotient_graph(&g);
        assert!(
            q.is_isomorphic_to_original(),
            "{label}: fixture must be asymmetric"
        );
        let spec = ScenarioSpec::arbitrary(Algorithm::QuotientTh1, &g)
            .with_byzantine(g.n() - 2, AdversaryKind::Wanderer)
            .with_seed(3);
        let out = Session::new(g.clone())
            .run(&spec.clone().with_algorithm(Algorithm::QuotientTh1))
            .unwrap();
        assert!(out.dispersed, "{label}: {:?}", out.report.violations);
    }
}

/// Gathering + token map construction agree: the map built from the
/// gathering node is rooted-isomorphic to the graph at that node.
#[test]
fn gathering_then_map_construction_consistent() {
    let g = generators::erdos_renyi_connected(12, 0.3, 9).unwrap();
    let route = gather_route(&g, 5).unwrap();
    let end = follow_ports(&g, 5, &route.to_vec()).unwrap();
    assert_eq!(end, gathering_target(&g).unwrap().target_node);
    let map = build_map_offline(&g, end).unwrap();
    assert!(are_isomorphic_rooted(&map.map, 0, &g, end));
}

/// The symmetric-graph failure mode surfaces as typed errors, not wrong
/// answers.
#[test]
fn symmetric_graphs_fail_loudly() {
    let g = generators::oriented_ring(8).unwrap();
    // Theorem 1: quotient collapses -> precondition error.
    let spec = ScenarioSpec::arbitrary(Algorithm::QuotientTh1, &g).with_seed(1);
    let err = Session::new(g.clone())
        .run(&spec.clone().with_algorithm(Algorithm::QuotientTh1))
        .unwrap_err();
    assert!(format!("{err}").contains("quotient"));
    // Theorem 2: gathering infeasible.
    let err = Session::new(g.clone())
        .run(&spec.clone().with_algorithm(Algorithm::ArbitraryHalfTh2))
        .unwrap_err();
    assert!(format!("{err}").contains("gathering"));
}

/// Gathered-start algorithms on a gathered spec work from any start node.
#[test]
fn gathered_algorithms_from_every_start_node() {
    let g = generators::erdos_renyi_connected(9, 0.4, 12).unwrap();
    for start in 0..g.n() {
        let spec =
            ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, &g, start).with_seed(start as u64);
        let out = Session::new(g.clone())
            .run(&spec.clone().with_algorithm(Algorithm::GatheredThirdTh4))
            .unwrap();
        assert!(out.dispersed, "start {start}");
    }
}

/// Rounds scale sensibly: Theorem 6 (O(n^3)) beats Theorem 3 (O(n^4)) on
/// the same instances, as Table 1's ordering implies.
#[test]
fn table1_round_ordering_holds() {
    let mut th3 = Vec::new();
    let mut th6 = Vec::new();
    for n in [8usize, 12] {
        let g = generators::erdos_renyi_connected(n, 0.35, n as u64).unwrap();
        let spec = ScenarioSpec::gathered(Algorithm::GatheredHalfTh3, &g, 0).with_seed(2);
        th3.push(
            Session::new(g.clone())
                .run(&spec.clone().with_algorithm(Algorithm::GatheredHalfTh3))
                .unwrap()
                .rounds,
        );
        th6.push(
            Session::new(g.clone())
                .run(&spec.clone().with_algorithm(Algorithm::StrongGatheredTh6))
                .unwrap()
                .rounds,
        );
    }
    for (a, b) in th3.iter().zip(&th6) {
        assert!(b < a, "Thm 6 ({b}) must be cheaper than Thm 3 ({a})");
    }
}

/// Byzantine placement stress: concentrating all Byzantine IDs into the
/// lowest-ID (agent) group must not break Theorem 4 within tolerance.
#[test]
fn group_infiltration_within_tolerance() {
    let g = generators::erdos_renyi_connected(12, 0.35, 20).unwrap();
    let f = Algorithm::GatheredThirdTh4.tolerance(12);
    for kind in [AdversaryKind::TokenHijacker, AdversaryKind::MapLiar] {
        let spec = ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, &g, 0)
            .with_byzantine(f, kind)
            .with_placement(ByzPlacement::LowIds)
            .with_seed(8);
        let out = Session::new(g.clone())
            .run(&spec.clone().with_algorithm(Algorithm::GatheredThirdTh4))
            .unwrap();
        assert!(out.dispersed, "{kind:?}: {:?}", out.report.violations);
    }
}

/// Fewer robots than nodes (k < n) still disperse (the k <= n regime of
/// the baseline and the paper's Definition 1).
#[test]
fn fewer_robots_than_nodes() {
    let g = generators::erdos_renyi_connected(10, 0.35, 30).unwrap();
    let spec = ScenarioSpec::gathered(Algorithm::Baseline, &g, 0)
        .with_seed(4)
        .with_robots(6);
    let out = Session::new(g.clone())
        .run(&spec.clone().with_algorithm(Algorithm::Baseline))
        .unwrap();
    assert!(out.dispersed);
    let distinct: std::collections::HashSet<_> = out.final_positions.iter().collect();
    assert_eq!(distinct.len(), 6);
}

/// Metrics are internally consistent.
#[test]
fn metrics_consistency() {
    let g = generators::erdos_renyi_connected(9, 0.4, 40).unwrap();
    let spec = ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, &g, 0)
        .with_byzantine(2, AdversaryKind::Squatter)
        .with_seed(11);
    let out = Session::new(g.clone())
        .run(&spec.clone().with_algorithm(Algorithm::GatheredThirdTh4))
        .unwrap();
    assert!(out.metrics.max_moves_per_robot <= out.metrics.total_moves);
    assert!(out.metrics.total_moves as u64 >= 1);
    // Every stepped (non-fast-forwarded) round executes at least one
    // sub-round; skipped rounds execute none.
    let stepped = out.rounds - out.metrics.rounds_skipped;
    assert!(out.metrics.subrounds_executed >= stepped);
    // A Squatter-adversary run has idle phases: fast-forwarding must fire.
    assert!(out.metrics.rounds_skipped > 0);
    assert_eq!(out.rounds, out.metrics.rounds);
}
