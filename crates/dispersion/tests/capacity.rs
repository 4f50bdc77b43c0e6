//! §5 capacity-regime coverage for the half/third rows: `DumMachine`'s
//! `⌈k/n⌉` settling, previously exercised only by the sqrt and baseline
//! paths (`tests/sqrt.rs`), now pinned for `GatheredHalfTh3` and
//! `GatheredThirdTh4` in both directions — `k > n` (robots share nodes up
//! to the capacity) and `k < n` (standard capacity 1 with a partial
//! roster). The strong rank walk is pinned at `k = n/2` and `k = 2n`.

use bd_dispersion::adversaries::AdversaryKind;
use bd_dispersion::runner::{Algorithm, ByzPlacement, ScenarioSpec};
use bd_dispersion::Session;
use bd_graphs::generators::erdos_renyi_connected;
use bd_graphs::PortGraph;

fn asymmetric_graph(n: usize, seed: u64) -> PortGraph {
    erdos_renyi_connected(n, 0.4, seed).unwrap()
}

/// Run `algo` gathered with `k` robots and `f` Byzantine; assert dispersal
/// against the expected capacity.
fn assert_capacity_dispersal(
    algo: Algorithm,
    g: &PortGraph,
    k: usize,
    f: usize,
    kind: AdversaryKind,
    label: &str,
) {
    let n = g.n();
    let session = Session::new(g.clone());
    let spec = ScenarioSpec::gathered(algo, session.graph(), 0)
        .with_robots(k)
        .with_byzantine(f, kind)
        .with_seed(9);
    let out = session
        .run(&spec)
        .unwrap_or_else(|e| panic!("{label}: run failed: {e}"));
    let capacity = (k - f).div_ceil(n);
    assert_eq!(out.report.capacity, capacity, "{label}: verifier capacity");
    assert!(
        out.dispersed,
        "{label}: not dispersed; violations {:?}",
        out.report.violations
    );
    assert!(out.report.max_honest_per_node <= capacity, "{label}");
    assert_eq!(out.final_positions.len(), k, "{label}");
}

// ------------------------------------------------------------------- k > n

/// Twice as many robots as nodes on the Theorem 3 pipeline: the all-pairs
/// schedule runs over the 2n-robot roster and the settle phase packs
/// `⌈k/n⌉ = 2` honest robots per node.
#[test]
fn half_th3_capacity_regime_k_twice_n() {
    let n = 6;
    let g = asymmetric_graph(n, 5);
    assert_capacity_dispersal(
        Algorithm::GatheredHalfTh3,
        &g,
        2 * n,
        0,
        AdversaryKind::Squatter,
        "th3 k=2n fault-free",
    );
}

/// The same regime under Byzantine pressure within tolerance.
#[test]
fn half_th3_capacity_regime_with_byzantine() {
    let n = 6;
    let g = asymmetric_graph(n, 7);
    let f = 2; // tolerance(6, 12) = 2
    assert_capacity_dispersal(
        Algorithm::GatheredHalfTh3,
        &g,
        2 * n,
        f,
        AdversaryKind::Wanderer,
        "th3 k=2n wanderers",
    );
}

/// Theorem 4 with a 2n roster: three ID-ordered thirds of 2n robots,
/// thresholds sized on the roster, capacity-2 settle.
#[test]
fn third_th4_capacity_regime_k_twice_n() {
    let n = 8;
    let g = asymmetric_graph(n, 11);
    assert_capacity_dispersal(
        Algorithm::GatheredThirdTh4,
        &g,
        2 * n,
        0,
        AdversaryKind::Squatter,
        "th4 k=2n fault-free",
    );
}

#[test]
fn third_th4_capacity_regime_with_byzantine() {
    let n = 8;
    let g = asymmetric_graph(n, 13);
    let f = 1; // within tolerance(8, 16) = 1
    assert_capacity_dispersal(
        Algorithm::GatheredThirdTh4,
        &g,
        2 * n,
        f,
        AdversaryKind::TokenHijacker,
        "th4 k=2n hijacker",
    );
}

// ------------------------------------------------------------------- k < n

/// Fewer robots than nodes on Theorem 3: capacity stays 1 and the partial
/// roster still pairs and settles.
#[test]
fn half_th3_with_fewer_robots_than_nodes() {
    let n = 10;
    let g = asymmetric_graph(n, 17);
    let f = 1; // tolerance(10, 6) = min(10, 6)/2 - 1 = 2; run below it
    assert_capacity_dispersal(
        Algorithm::GatheredHalfTh3,
        &g,
        6,
        f,
        AdversaryKind::Wanderer,
        "th3 k<n",
    );
}

#[test]
fn third_th4_with_fewer_robots_than_nodes() {
    let n = 12;
    let g = asymmetric_graph(n, 19);
    let f = 1; // tolerance(12, 9) = min(12, 9)/3 - 1 = 2; run below it
    assert_capacity_dispersal(
        Algorithm::GatheredThirdTh4,
        &g,
        9,
        f,
        AdversaryKind::TokenHijacker,
        "th4 k<n",
    );
}

// ------------------------------------------------------- strong rows, k ≠ n

/// Theorem 6 away from `k = n`, at the row's own tolerance, against
/// several adversaries from both ends of the ID order. With `k = 2n` the
/// robot of rank `i` walks to map node `i mod n`, so every node takes two
/// honest robots; with `k = n/2` the tolerance keeps each ID-ordered half
/// at the `⌊n/4⌋` quorum.
#[test]
fn strong_th6_disperses_at_half_and_double_n() {
    let algo = Algorithm::StrongGatheredTh6;
    for (n, k) in [(16, 8), (20, 10), (8, 16), (12, 24)] {
        let g = asymmetric_graph(n, 5);
        let session = Session::new(g);
        let f = algo.row().tolerance(n, k);
        for kind in [
            AdversaryKind::StrongSpoofer,
            AdversaryKind::TokenHijacker,
            AdversaryKind::MapLiar,
            AdversaryKind::Squatter,
        ] {
            for placement in [ByzPlacement::LowIds, ByzPlacement::HighIds] {
                let label = format!("n={n} k={k} f={f} {kind:?} {placement:?}");
                let spec = ScenarioSpec::gathered(algo, session.graph(), 0)
                    .with_robots(k)
                    .with_byzantine(f, kind)
                    .with_placement(placement)
                    .with_seed(1);
                let out = session
                    .run(&spec)
                    .unwrap_or_else(|e| panic!("{label}: run failed: {e}"));
                assert!(
                    out.dispersed,
                    "{label}: not dispersed; violations {:?}",
                    out.report.violations
                );
                assert_eq!(out.report.capacity, (k - f).div_ceil(n), "{label}");
            }
        }
    }
}

// --------------------------------------------------------- tolerance clamps

/// The k-aware tolerance clamps: a roster smaller than n lowers the
/// admissible f, and the session refuses beyond it.
#[test]
fn small_roster_lowers_the_tolerance() {
    let n = 12;
    let g = asymmetric_graph(n, 23);
    let session = Session::new(g);
    // k = 6 on Theorem 3: tolerance is min(12, 6)/2 - 1 = 2, not 5.
    let spec = ScenarioSpec::gathered(Algorithm::GatheredHalfTh3, session.graph(), 0)
        .with_robots(6)
        .with_byzantine(3, AdversaryKind::Wanderer);
    let err = session.run(&spec).unwrap_err();
    assert!(
        matches!(
            err,
            bd_dispersion::DispersionError::ToleranceExceeded { max: 2, .. }
        ),
        "{err}"
    );
}

/// Deterministic replay holds in the capacity regime too.
#[test]
fn capacity_runs_are_deterministic() {
    let n = 6;
    let g = asymmetric_graph(n, 29);
    let session = Session::new(g);
    let spec = ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, session.graph(), 0)
        .with_robots(2 * n)
        .with_byzantine(1, AdversaryKind::Wanderer)
        .with_placement(ByzPlacement::LowIds)
        .with_seed(31);
    let a = session.run(&spec).unwrap();
    let b = session.run(&spec).unwrap();
    assert_eq!(a.final_positions, b.final_positions);
    assert_eq!(a.rounds, b.rounds);
}
