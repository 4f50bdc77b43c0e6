//! Property-based tests over the full pipeline: random instances, random
//! adversaries, always within tolerance -> always dispersed.

use byzantine_dispersion::dispersion::impossibility::replay_experiment;
use byzantine_dispersion::dispersion::runner::ByzPlacement;
use byzantine_dispersion::exploration::sim::build_map_offline;
use byzantine_dispersion::graphs::iso::are_isomorphic_rooted;
use byzantine_dispersion::prelude::*;
use proptest::prelude::*;

fn weak_adversaries() -> impl Strategy<Value = AdversaryKind> {
    prop::sample::select(vec![
        AdversaryKind::Squatter,
        AdversaryKind::FakeSettler,
        AdversaryKind::Silent,
        AdversaryKind::Wanderer,
        AdversaryKind::LiarFlags,
        AdversaryKind::TokenHijacker,
        AdversaryKind::MapLiar,
        AdversaryKind::Crowd,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Theorem 4 pipeline: any weak adversary, any f within tolerance, any
    /// seed -> dispersion holds.
    #[test]
    fn th4_always_disperses_within_tolerance(
        n in 9usize..14,
        seed in 0u64..100,
        kind in weak_adversaries(),
        f_frac in 0.0f64..=1.0,
    ) {
        let g = generators::erdos_renyi_connected(n, 0.4, seed).unwrap();
        let tol = Algorithm::GatheredThirdTh4.tolerance(n);
        let f = ((tol as f64) * f_frac).round() as usize;
        let spec = ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, &g, 0)
            .with_byzantine(f, kind)
            .with_seed(seed);
        let out = Session::new(g.clone()).run(&spec.clone().with_algorithm(Algorithm::GatheredThirdTh4)).unwrap();
        prop_assert!(out.dispersed, "n={n} f={f} {kind:?}: {:?}", out.report.violations);
    }

    /// Theorem 1: extreme Byzantine counts on asymmetric instances.
    #[test]
    fn th1_survives_extreme_byzantine(
        n in 6usize..12,
        seed in 0u64..100,
        kind in weak_adversaries(),
    ) {
        let g = generators::erdos_renyi_connected(n, 0.45, seed).unwrap();
        if !byzantine_dispersion::graphs::quotient::quotient_graph(&g)
            .is_isomorphic_to_original()
        {
            return Ok(()); // symmetric draw: precondition void
        }
        let spec = ScenarioSpec::arbitrary(Algorithm::QuotientTh1, &g)
            .with_byzantine(n - 1, kind)
            .with_seed(seed);
        let out = Session::new(g.clone()).run(&spec.clone().with_algorithm(Algorithm::QuotientTh1)).unwrap();
        prop_assert!(out.dispersed);
    }

    /// Strong protocol under spoofing at random placements.
    #[test]
    fn th6_survives_spoofers(
        n in 8usize..14,
        seed in 0u64..50,
        low in proptest::bool::ANY,
    ) {
        let g = generators::erdos_renyi_connected(n, 0.4, seed).unwrap();
        let f = Algorithm::StrongGatheredTh6.tolerance(n);
        let placement = if low { ByzPlacement::LowIds } else { ByzPlacement::HighIds };
        let spec = ScenarioSpec::gathered(Algorithm::StrongGatheredTh6, &g, 0)
            .with_byzantine(f, AdversaryKind::StrongSpoofer)
            .with_placement(placement)
            .with_seed(seed);
        let out = Session::new(g.clone()).run(&spec.clone().with_algorithm(Algorithm::StrongGatheredTh6)).unwrap();
        prop_assert!(out.dispersed, "n={n} f={f} {placement:?}");
    }

    /// Token map construction from random origins is always exact.
    #[test]
    fn token_maps_always_exact(n in 4usize..20, seed in 0u64..300, origin in 0usize..20) {
        let g = generators::erdos_renyi_connected(n, 0.3, seed).unwrap();
        let origin = origin % n;
        let out = build_map_offline(&g, origin).unwrap();
        prop_assert!(are_isomorphic_rooted(&out.map, 0, &g, origin));
        // T2 bound: moves <= 8 * n * m + 64.
        prop_assert!(out.agent_moves <= 8 * (n as u64) * (g.m() as u64) + 64);
    }

    /// Theorem 8: the replay experiment matches the theorem on random cells.
    #[test]
    fn thm8_experiment_matches_theory(
        n in 4usize..8,
        k_mult in 1usize..4,
        f in 0usize..8,
        seed in 0u64..50,
    ) {
        let g = generators::erdos_renyi_connected(n, 0.5, seed).unwrap();
        let k = n * k_mult;
        if let Some(r) = replay_experiment(&g, k, f, seed) {
            prop_assert_eq!(r.violated, r.theorem_predicts,
                "k={} f={} n={}", k, f, n);
        }
    }
}
