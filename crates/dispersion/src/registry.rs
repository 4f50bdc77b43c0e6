//! The Table 1 registry: one [`TableRow`] descriptor object per algorithm
//! row, replacing the per-algorithm `match` arms that used to be spread
//! across the runner.
//!
//! Every fact the paper's Table 1 states about a row — its Byzantine
//! tolerance, its starting-configuration requirement, its graph
//! precondition, its round budget — lives on the row's [`TableRow`]
//! implementation, next to the controller it builds. The generic pipeline
//! in [`crate::session`] consults the descriptor and never matches on
//! [`Algorithm`] itself; [`Algorithm::row`] is the single place the enum is
//! mapped to its descriptor.
//!
//! Adding a Table 1 row is now: implement `TableRow` in the row's module,
//! add the enum variant, and register it in [`Algorithm::row`].

use crate::algos::baseline::BaselineRow;
use crate::algos::half::{HALF_TH2, HALF_TH3};
use crate::algos::quotient::QuotientRow;
use crate::algos::ring_opt::RingOptRow;
use crate::algos::sqrt::SqrtRow;
use crate::algos::strong::{STRONG_TH6, STRONG_TH7};
use crate::algos::third::ThirdRow;
use crate::error::DispersionError;
use crate::msg::Msg;
use crate::runner::Algorithm;
use crate::timeline::Timeline;
use bd_graphs::{NodeId, Port, PortGraph};
use bd_runtime::{Controller, RobotId};
use std::any::Any;
use std::sync::Arc;

/// The Table 1 "Starting Configuration" column: which start a row is
/// *evaluated* in (benchmarks, conformance runs) and prints in the table.
/// Distinct from [`StartRequirement`], which is what the pipeline
/// *enforces* — e.g. the baseline accepts any start but is evaluated
/// gathered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartColumn {
    /// Evaluated from seeded arbitrary starts.
    Arbitrary,
    /// Evaluated gathered at one node.
    Gathered,
}

impl std::fmt::Display for StartColumn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StartColumn::Arbitrary => "Arbitrary",
            StartColumn::Gathered => "Gathered",
        })
    }
}

/// A row's relationship to the starting configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartRequirement {
    /// The algorithm assumes all robots share one node at round 0 and the
    /// pipeline must refuse anything else (Theorems 3, 4, 6).
    Gathered,
    /// The algorithm handles arbitrary starts by prepending the gathering
    /// substrate; the pipeline precomputes per-robot gathering routes
    /// (Theorems 2, 5, 7).
    GathersFirst,
    /// No constraint: each robot acquires its map without coordinating
    /// from a common node (Theorem 1, the baseline, ring-optimal).
    Any,
}

/// Everything the generic pipeline precomputes for one run; handed to the
/// row descriptor for budgets and controller construction.
pub struct Plan {
    /// The shared graph every layer of the run borrows.
    pub graph: Arc<PortGraph>,
    /// Graph size.
    pub n: usize,
    /// Robots in the scenario (`k`, which may differ from `n` in the §5
    /// capacity regime).
    pub k: usize,
    /// Byzantine robots among them.
    pub f: usize,
    /// Sorted distinct robot IDs in robot order.
    pub ids: Vec<RobotId>,
    /// Honest mask in robot order.
    pub honest: Vec<bool>,
    /// Start node per robot.
    pub starts: Vec<NodeId>,
    /// Per-robot gathering routes (rows with
    /// [`StartRequirement::GathersFirst`] only); robots that start on one
    /// node share one route.
    pub gather_routes: Option<Vec<Arc<[Port]>>>,
    /// Shared gathering-phase budget (0 when no gathering runs).
    pub gather_budget: u64,
    /// Scenario seed.
    pub seed: u64,
    /// Row-specific precomputation stashed by [`TableRow::prepare`].
    pub(crate) prep: Option<Box<dyn Any + Send + Sync>>,
}

impl Plan {
    /// Robot `i`'s gathering script (empty when the row does not gather):
    /// a shared handle, not a copy.
    pub fn gather_script(&self, i: usize) -> Arc<[Port]> {
        self.gather_routes
            .as_ref()
            .map_or_else(|| Arc::from([]), |r| Arc::clone(&r[i]))
    }

    /// The row-specific preparation downcast to its concrete type.
    pub fn prep<T: 'static>(&self) -> Option<&T> {
        self.prep.as_ref().and_then(|p| p.downcast_ref())
    }
}

/// One row of the paper's Table 1 (or a comparison row), as an object: the
/// row's published facts plus the controller factory. Implemented once per
/// row in the row's own module; the pipeline in [`crate::session`] is
/// generic over `dyn TableRow` and contains no per-algorithm branches.
pub trait TableRow: Sync {
    /// Stable row name (matches the [`Algorithm`] variant's debug name).
    fn name(&self) -> &'static str;

    /// The theorem label Table 1 prints for this row.
    fn theorem(&self) -> &'static str;

    /// The paper's running-time column, verbatim.
    fn paper_time(&self) -> &'static str;

    /// The paper's Byzantine-tolerance column, verbatim.
    fn paper_tolerance(&self) -> &'static str;

    /// Byzantine tolerance for `k` robots on an `n`-node graph. At `k = n`
    /// this is exactly the Table 1 bound; descriptors additionally clamp
    /// it to what `k` robots can actually sustain (quorum arithmetic,
    /// helper-group sizes) in the `k ≠ n` regimes.
    fn tolerance(&self, n: usize, k: usize) -> usize;

    /// What the row demands of the starting configuration.
    fn start_requirement(&self) -> StartRequirement;

    /// The Table 1 "Starting Configuration" column — the configuration the
    /// row is evaluated in by the bench layer. Derived from the
    /// requirement; rows with [`StartRequirement::Any`] override it when
    /// their evaluation start differs (the baseline evaluates gathered).
    fn start_column(&self) -> StartColumn {
        match self.start_requirement() {
            StartRequirement::Gathered => StartColumn::Gathered,
            StartRequirement::GathersFirst | StartRequirement::Any => StartColumn::Arbitrary,
        }
    }

    /// Whether Byzantine robots face this row under the strong (ID-faking)
    /// flavor.
    fn strong(&self) -> bool {
        false
    }

    /// Structural graph precondition (Theorem 1's quotient isomorphism,
    /// ring-optimal's ring shape). Checked before anything is built.
    fn precondition(&self, graph: &PortGraph) -> Result<(), DispersionError> {
        let _ = graph;
        Ok(())
    }

    /// Row-specific shared precomputation (e.g. Theorem 1's per-robot
    /// `Find-Map` walk scripts). The result is stored on the plan and
    /// served back to [`TableRow::build_controller`] via [`Plan::prep`].
    fn prepare(&self, plan: &Plan) -> Result<Option<Box<dyn Any + Send + Sync>>, DispersionError> {
        let _ = plan;
        Ok(None)
    }

    /// First round of the run's communicative portion — when adversaries
    /// activate. Defaults to the gathering budget (0 for gathered rows);
    /// map-phase rows override it with their walk length.
    fn interaction_start(&self, plan: &Plan) -> u64 {
        plan.gather_budget
    }

    /// The run decomposed into the controller's named consecutive phases:
    /// the one schedule the row states. The session layer hands it to the
    /// telemetry recorder (per-phase counters/wall-clock) and folds it into
    /// `RunMetrics::rounds_by_phase`; its end is the round budget.
    fn phase_schedule(&self, plan: &Plan) -> Timeline;

    /// The exact honest-termination round: the end of
    /// [`TableRow::phase_schedule`]. The engine's round cap adds a safety
    /// margin on top; the registry-conformance suite asserts observed
    /// rounds equal this.
    fn round_budget(&self, plan: &Plan) -> u64 {
        self.phase_schedule(plan).end()
    }

    /// Build the honest controller for robot `i` of the plan.
    fn build_controller(&self, plan: &Plan, i: usize) -> Box<dyn Controller<Msg>>;
}

impl Algorithm {
    /// The registry: this row's [`TableRow`] descriptor. The only place
    /// the enum is mapped to per-row behavior.
    pub fn row(self) -> &'static dyn TableRow {
        match self {
            Algorithm::QuotientTh1 => &QuotientRow,
            Algorithm::ArbitraryHalfTh2 => &HALF_TH2,
            Algorithm::GatheredHalfTh3 => &HALF_TH3,
            Algorithm::GatheredThirdTh4 => &ThirdRow,
            Algorithm::ArbitrarySqrtTh5 => &SqrtRow,
            Algorithm::StrongGatheredTh6 => &STRONG_TH6,
            Algorithm::StrongArbitraryTh7 => &STRONG_TH7,
            Algorithm::Baseline => &BaselineRow,
            Algorithm::RingOptimal => &RingOptRow,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_match_variants() {
        for algo in Algorithm::table1()
            .into_iter()
            .chain([Algorithm::Baseline, Algorithm::RingOptimal])
        {
            assert_eq!(algo.row().name(), format!("{algo:?}"));
        }
    }

    #[test]
    fn start_columns_match_table1() {
        use StartColumn::{Arbitrary, Gathered};
        assert_eq!(Algorithm::QuotientTh1.row().start_column(), Arbitrary);
        assert_eq!(Algorithm::ArbitraryHalfTh2.row().start_column(), Arbitrary);
        assert_eq!(Algorithm::GatheredHalfTh3.row().start_column(), Gathered);
        assert_eq!(Algorithm::GatheredThirdTh4.row().start_column(), Gathered);
        assert_eq!(Algorithm::ArbitrarySqrtTh5.row().start_column(), Arbitrary);
        assert_eq!(Algorithm::StrongGatheredTh6.row().start_column(), Gathered);
        assert_eq!(
            Algorithm::StrongArbitraryTh7.row().start_column(),
            Arbitrary
        );
        // The baseline accepts any start but is *evaluated* gathered.
        assert_eq!(Algorithm::Baseline.row().start_column(), Gathered);
        assert_eq!(
            Algorithm::Baseline.row().start_column().to_string(),
            "Gathered"
        );
    }

    #[test]
    fn strong_flag_only_on_strong_rows() {
        for algo in Algorithm::table1() {
            assert_eq!(
                algo.row().strong(),
                matches!(
                    algo,
                    Algorithm::StrongGatheredTh6 | Algorithm::StrongArbitraryTh7
                ),
                "{algo:?}"
            );
        }
    }
}
