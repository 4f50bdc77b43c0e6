//! Scenario vocabulary.
//!
//! The types here describe *what* to run: the [`Algorithm`] selector, the
//! fully serde-able [`ScenarioSpec`] (robots, faults, starts, seed), and
//! the [`Outcome`] a run produces. *How* a run executes lives in
//! [`crate::session`] (the generic plan → engine → verify pipeline) and in
//! the per-row [`crate::registry::TableRow`] descriptors; this module
//! contains no per-algorithm dispatch.

use crate::adversaries::AdversaryKind;
use crate::verify::VerifyReport;
use bd_graphs::{NodeId, PortGraph};
pub use bd_runtime::RunMetrics;
use serde::{Deserialize, Serialize};

/// Table 1 algorithms (plus the non-Byzantine baseline). Each variant maps
/// to a [`crate::registry::TableRow`] descriptor via [`Algorithm::row`];
/// the methods below are shorthands over that registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// Theorem 1 — quotient-graph `Find-Map` + DUM; `f ≤ n−1` weak;
    /// quotient-isomorphic graphs only.
    QuotientTh1,
    /// Theorem 2 — gather, all-pairs map finding, DUM; `f ≤ ⌊n/2−1⌋` weak.
    ArbitraryHalfTh2,
    /// Theorem 3 — Theorem 2 without the gathering phase (gathered start).
    GatheredHalfTh3,
    /// Theorem 4 — 3-group map finding, DUM; gathered; `f ≤ ⌊n/3−1⌋` weak.
    GatheredThirdTh4,
    /// Theorem 5 — gather, 2-group map finding, DUM; `f = O(√n)` weak.
    ArbitrarySqrtTh5,
    /// Theorem 6 — 2-group with `⌊n/4⌋` thresholds + rank walk; gathered;
    /// `f ≤ ⌊n/4−1⌋` strong.
    StrongGatheredTh6,
    /// Theorem 7 — Theorem 6 with a gathering phase (arbitrary start).
    StrongArbitraryTh7,
    /// Non-Byzantine map-DFS baseline (§1.4 comparison row; Theorem 8's
    /// algorithm `A`).
    Baseline,
    /// `Time-Opt-Ring-Dispersion` of \[34, 36\] — the ring-optimal
    /// predecessor this paper generalizes. Rings only; `f ≤ n−1` weak;
    /// `O(n)` rounds.
    RingOptimal,
}

impl Algorithm {
    /// Table 1 tolerance for `n` robots on an `n`-node graph — the
    /// registry's `tolerance(n, k)` at `k = n`.
    pub fn tolerance(self, n: usize) -> usize {
        self.row().tolerance(n, n)
    }

    /// Whether the algorithm prepends a gathering phase.
    pub fn gathers(self) -> bool {
        self.row().start_requirement() == crate::registry::StartRequirement::GathersFirst
    }

    /// Whether Byzantine robots run under the strong flavor.
    pub fn strong(self) -> bool {
        self.row().strong()
    }

    /// All Table 1 algorithms.
    pub fn table1() -> [Algorithm; 7] {
        [
            Algorithm::QuotientTh1,
            Algorithm::ArbitraryHalfTh2,
            Algorithm::GatheredHalfTh3,
            Algorithm::GatheredThirdTh4,
            Algorithm::ArbitrarySqrtTh5,
            Algorithm::StrongGatheredTh6,
            Algorithm::StrongArbitraryTh7,
        ]
    }
}

/// Where the Byzantine IDs sit in the sorted ID order — group-based
/// algorithms are most stressed when the adversary concentrates in one
/// group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ByzPlacement {
    /// Uniformly random among the k robots (seeded).
    #[default]
    Random,
    /// The lowest IDs (concentrates in group `A`).
    LowIds,
    /// The highest IDs.
    HighIds,
}

/// Scenario description: the algorithm plus everything that varies between
/// runs. Fully serde-able, so sweeps can be stored, shipped, and replayed
/// as data (`Session::run_batch` consumes slices of these).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Which Table 1 row to run.
    pub algo: Algorithm,
    /// Robots; defaults to `n`.
    pub num_robots: usize,
    /// Byzantine robots among them.
    pub num_byzantine: usize,
    /// Adversary strategy for all Byzantine robots.
    pub adversary: AdversaryKind,
    /// Where Byzantine IDs sit in the ID order.
    pub placement: ByzPlacement,
    /// Gathered at a node, or arbitrary (seeded) starts.
    pub starts: StartConfig,
    /// Seed for IDs, starts, and adversary randomness.
    pub seed: u64,
    /// Allow `num_byzantine` above the algorithm's tolerance (for
    /// beyond-tolerance probes); otherwise the session refuses.
    pub allow_overload: bool,
}

/// Initial placement.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum StartConfig {
    /// Everyone on one node.
    Gathered(NodeId),
    /// Seeded random nodes.
    RandomArbitrary,
    /// Explicit per-robot nodes.
    Explicit(Vec<NodeId>),
}

impl ScenarioSpec {
    /// All robots gathered at `node`, no Byzantine robots.
    pub fn gathered(algo: Algorithm, g: &PortGraph, node: NodeId) -> Self {
        ScenarioSpec {
            algo,
            num_robots: g.n(),
            num_byzantine: 0,
            adversary: AdversaryKind::Squatter,
            placement: ByzPlacement::Random,
            starts: StartConfig::Gathered(node),
            seed: 0,
            allow_overload: false,
        }
    }

    /// Seeded arbitrary starts, no Byzantine robots.
    pub fn arbitrary(algo: Algorithm, g: &PortGraph) -> Self {
        ScenarioSpec {
            starts: StartConfig::RandomArbitrary,
            ..ScenarioSpec::gathered(algo, g, 0)
        }
    }

    /// The start configuration `algo` is *evaluated* in — its Table 1
    /// "Starting Configuration" column from the registry (gathered at
    /// node 0, or seeded arbitrary starts). The one authoritative bridge
    /// from [`crate::registry::TableRow::start_column`] to a spec, used by
    /// benches and conformance suites.
    pub fn evaluation(algo: Algorithm, g: &PortGraph) -> Self {
        match algo.row().start_column() {
            crate::registry::StartColumn::Arbitrary => ScenarioSpec::arbitrary(algo, g),
            crate::registry::StartColumn::Gathered => ScenarioSpec::gathered(algo, g, 0),
        }
    }

    /// Select a different Table 1 row.
    pub fn with_algorithm(mut self, algo: Algorithm) -> Self {
        self.algo = algo;
        self
    }

    /// Set the robot count (`k ≠ n` opens the §5 capacity regime).
    pub fn with_robots(mut self, k: usize) -> Self {
        self.num_robots = k;
        self
    }

    /// Set the Byzantine contingent.
    pub fn with_byzantine(mut self, f: usize, kind: AdversaryKind) -> Self {
        self.num_byzantine = f;
        self.adversary = kind;
        self
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set Byzantine ID placement.
    pub fn with_placement(mut self, placement: ByzPlacement) -> Self {
        self.placement = placement;
        self
    }

    /// Permit `f` beyond the algorithm tolerance.
    pub fn overloaded(mut self) -> Self {
        self.allow_overload = true;
        self
    }
}

/// What came out of a run. Fully serde-able, so the serving layer
/// (`bd-service`) can persist outcomes content-addressed by
/// [`crate::canon::SpecDigest`] and replay them byte-identically.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Outcome {
    /// Whether Definition 1 holds in the final configuration.
    pub dispersed: bool,
    /// Rounds to honest termination — the Table 1 measure.
    pub rounds: u64,
    /// Full engine metrics.
    pub metrics: RunMetrics,
    /// Verifier details.
    pub report: VerifyReport,
    /// Final positions in robot order.
    pub final_positions: Vec<NodeId>,
    /// Honest mask in robot order.
    pub honest: Vec<bool>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DispersionError;
    use crate::session::Session;
    use bd_graphs::generators::erdos_renyi_connected;

    #[test]
    fn tolerance_table() {
        assert_eq!(Algorithm::QuotientTh1.tolerance(16), 15);
        assert_eq!(Algorithm::GatheredHalfTh3.tolerance(16), 7);
        assert_eq!(Algorithm::GatheredThirdTh4.tolerance(16), 4);
        assert_eq!(Algorithm::StrongGatheredTh6.tolerance(16), 3);
        assert_eq!(Algorithm::ArbitrarySqrtTh5.tolerance(16), 2);
        assert_eq!(Algorithm::ArbitrarySqrtTh5.tolerance(9), 1);
        // Below n = 6 the 2f+1 helper-group construction does not fit:
        // only the fault-free regime is sound.
        assert_eq!(Algorithm::ArbitrarySqrtTh5.tolerance(5), 0);
        assert_eq!(Algorithm::ArbitrarySqrtTh5.tolerance(4), 0);
    }

    #[test]
    fn sqrt_rejects_f_beyond_what_k_supports() {
        // tolerance(16) = 2, but 5 gathered robots cannot sustain the
        // 2f+1 = 5 groups of 3: the session must refuse rather than run an
        // unreachable-quorum plan.
        let g = erdos_renyi_connected(16, 0.4, 2).unwrap();
        let spec = ScenarioSpec::arbitrary(Algorithm::ArbitrarySqrtTh5, &g)
            .with_byzantine(2, AdversaryKind::TokenHijacker)
            .with_robots(5);
        let err = Session::new(g).run(&spec).unwrap_err();
        assert!(matches!(
            err,
            DispersionError::ToleranceExceeded { max: 0, .. }
        ));
    }

    #[test]
    fn overload_rejected_without_flag() {
        let g = erdos_renyi_connected(9, 0.4, 1).unwrap();
        let spec = ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, &g, 0)
            .with_byzantine(5, AdversaryKind::Squatter);
        let err = Session::new(g.clone())
            .run(&spec.clone().with_algorithm(Algorithm::GatheredThirdTh4))
            .unwrap_err();
        assert!(matches!(err, DispersionError::ToleranceExceeded { .. }));
    }

    #[test]
    fn bad_scenarios_rejected() {
        let g = erdos_renyi_connected(9, 0.4, 1).unwrap();
        let spec = ScenarioSpec::gathered(Algorithm::Baseline, &g, 0).with_robots(0);
        assert!(matches!(
            Session::new(g.clone()).run(&spec.clone().with_algorithm(Algorithm::Baseline)),
            Err(DispersionError::BadScenario(_))
        ));
        let spec = ScenarioSpec::gathered(Algorithm::Baseline, &g, 42);
        assert!(matches!(
            Session::new(g.clone()).run(&spec.clone().with_algorithm(Algorithm::Baseline)),
            Err(DispersionError::BadScenario(_))
        ));
    }
}
