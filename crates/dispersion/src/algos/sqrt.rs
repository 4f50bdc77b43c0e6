//! Theorem 5 (§3.3): Byzantine dispersion from **arbitrary** starting
//! positions tolerating `f = O(√n)` weak Byzantine robots, as a dedicated
//! token-replication subsystem.
//!
//! The construction is a three-phase machine whose boundaries every honest
//! robot derives identically from `n`, the gathering budget, and the roster
//! snapshot ([`sqrt_timeline`]):
//!
//! 1. **Gather** — the view-based substrate routes every robot to the
//!    canonical singleton-class node within a shared budget.
//! 2. **Replicate** — the snapshot is split into `2f + 1` ID-ordered helper
//!    groups of roughly `√n` robots ([`tokens::ReplicationPlan`]). The
//!    groups take the agent seat one after another — one map-finding run
//!    per group — while the token role is replicated across the union of
//!    the remaining groups. Every threshold (instruction, presence, vote)
//!    is `f + 1` *distinct* IDs, which the Byzantine coalition can never
//!    reach alone. At most `f` groups contain a Byzantine robot, so at
//!    least `f + 1` runs are led by fully honest groups and reconstruct the
//!    true map; [`tokens::reconcile_maps`] accepts exactly the form with
//!    that level of support.
//! 3. **Settle** — `Dispersion-Using-Map` from the gathering node on the
//!    reconciled map, generalized to the §5 per-node capacity `⌈k/n⌉` so
//!    the same controller covers the `k > n` regime.
//!
//! The phase scaffold (gather → snapshot → sequential runs → settle) is the
//! shared [`GroupPhaseController`]; this module contributes the replication
//! layout ([`SqrtScheme`]) and the Byzantine-majority reconciliation.
//!
//! Round cost: gathering is `Õ(n²)`; the replicate phase is
//! `(2f + 1) · O(n³) = Õ(n³·⁵)` for `f = Θ(√n)`; settling is `O(n)` — all
//! comfortably inside the paper's `Õ(n⁵·⁵)` bound, which the bench layer
//! checks as a fitted-exponent band.

pub mod tokens;

use crate::algos::common::{
    GroupPhaseController, GroupRunSpec, GroupScheme, SettlePhase, VoteRule,
};
use crate::algos::sqrt::tokens::{
    helper_group_count, reconcile_maps, supported_f_bound, ReplicationPlan,
};
use crate::msg::Msg;
use crate::registry::{Plan, StartRequirement, TableRow};
use crate::timeline::{dum_budget, group_run_len, t2_work_budget, Timeline};
use bd_graphs::{CanonicalForm, Port};
use bd_runtime::{Controller, RobotId};
use std::sync::Arc;

/// Phase names used by [`sqrt_timeline`]; exposed so callers (sessions,
/// benches, tests) can anchor assertions to boundaries instead of
/// re-deriving arithmetic.
pub const PHASE_GATHER: &str = "gather";
pub const PHASE_SNAPSHOT: &str = "snapshot";
pub const PHASE_REPLICATE: &str = "replicate";
pub const PHASE_SETTLE: &str = "settle";

/// The absolute phase timeline of the §3.3 machine for `k` robots on an
/// `n`-node graph under fault bound `f_bound`, given the shared gathering
/// budget. Every honest robot computes this identically, which is what
/// keeps the sequential runs synchronized with zero communication. Its end
/// is the row's exact round budget: the phase machine is deterministic, so
/// the budget is too.
pub fn sqrt_timeline(n: usize, k: usize, f_bound: usize, gather_budget: u64) -> Timeline {
    let mut t = Timeline::default();
    t.push(PHASE_GATHER, gather_budget);
    t.push(PHASE_SNAPSHOT, 1);
    let runs = helper_group_count(k, f_bound) as u64;
    t.push(PHASE_REPLICATE, runs * group_run_len(n));
    t.push(PHASE_SETTLE, dum_budget(n));
    t
}

/// The Table 1 `O(√n)` fault bound for an `n`-node graph, additionally
/// clamped to the largest `f` whose `2f+1` helper groups of `f+1` members
/// fit in `n` robots — 0 below `n = 6`, where only the fault-free
/// construction is sound.
pub fn sqrt_f_bound(n: usize) -> usize {
    ((n as f64).sqrt() as usize / 2).min(supported_f_bound(n))
}

/// The Theorem 5 [`GroupScheme`]: replication layout from the roster
/// snapshot, Byzantine-majority reconciliation over the per-run maps.
pub struct SqrtScheme {
    /// The fault bound the quorums are sized against (`O(√n)`, supplied by
    /// the registry's tolerance so both sides agree).
    f_bound: usize,
    /// Built at the snapshot; its *effective* fault bound (clamped to what
    /// the roster supports) sets the reconciliation bar.
    plan: Option<ReplicationPlan>,
}

impl SqrtScheme {
    /// A scheme sized against `f_bound`.
    pub fn new(f_bound: usize) -> Self {
        SqrtScheme {
            f_bound,
            plan: None,
        }
    }

    /// The replication plan derived at the snapshot, if taken.
    pub fn plan(&self) -> Option<&ReplicationPlan> {
        self.plan.as_ref()
    }
}

impl GroupScheme for SqrtScheme {
    type Tail = SettlePhase;

    fn plan_runs(&mut self, ids: &[RobotId], n: usize, first_start: u64) -> Vec<GroupRunSpec> {
        let plan = ReplicationPlan::build(ids, self.f_bound);
        let quorum = plan.quorum();
        let run_len = group_run_len(n);
        let specs = (0..plan.num_runs())
            .map(|j| {
                let start = first_start + j as u64 * run_len;
                GroupRunSpec {
                    agents: plan.agents_of(j).iter().copied().collect(),
                    token: plan.token_of(j).into_iter().collect(),
                    instr_threshold: quorum,
                    presence_threshold: quorum,
                    vote: VoteRule::Quorum(quorum),
                    start,
                    work: t2_work_budget(n),
                    end: start + run_len,
                }
            })
            .collect();
        self.plan = Some(plan);
        specs
    }

    /// Reconcile against the plan's *effective* fault bound (clamped to
    /// what the snapshot size supports), so the bar is always reachable by
    /// the honest-led runs.
    fn choose_map(&self, votes: &[Option<CanonicalForm>]) -> Option<CanonicalForm> {
        let f_eff = self.plan.as_ref().map_or(self.f_bound, |p| p.f_bound());
        reconcile_maps(votes, f_eff)
    }
}

/// Controller for Theorem 5: the shared group-phase scaffold driven by
/// [`SqrtScheme`]. One instance per honest robot; Byzantine robots run
/// adversary controllers against it.
pub type SqrtController = GroupPhaseController<SqrtScheme>;

impl SqrtController {
    /// `gather_script` empty means a gathered start; otherwise the robot's
    /// gathering route with the shared `gather_budget`. `f_bound` is the
    /// Table 1 tolerance for `n` ([`sqrt_f_bound`]).
    pub fn new(
        id: RobotId,
        n: usize,
        f_bound: usize,
        gather_script: impl Into<Arc<[Port]>>,
        gather_budget: u64,
    ) -> Self {
        GroupPhaseController::with_scheme(
            id,
            n,
            SqrtScheme::new(f_bound),
            gather_script,
            gather_budget,
        )
    }
}

/// Table 1 row: Theorem 5.
pub struct SqrtRow;

impl TableRow for SqrtRow {
    fn name(&self) -> &'static str {
        "ArbitrarySqrtTh5"
    }

    fn theorem(&self) -> &'static str {
        "Thm 5"
    }

    fn paper_time(&self) -> &'static str {
        "O((f + |L|) X(n))"
    }

    fn paper_tolerance(&self) -> &'static str {
        "O(sqrt n)"
    }

    /// The `O(√n)` bound for `n`, additionally clamped to what `k` gathered
    /// robots can sustain: Theorem 5's helper groups are sized on the
    /// *gathered roster*, so `2f+1` groups of `f+1` distinct IDs must fit
    /// in `k` (relevant only when `k ≠ n`).
    fn tolerance(&self, n: usize, k: usize) -> usize {
        sqrt_f_bound(n).min(supported_f_bound(k))
    }

    fn start_requirement(&self) -> StartRequirement {
        StartRequirement::GathersFirst
    }

    fn phase_schedule(&self, plan: &Plan) -> Timeline {
        sqrt_timeline(plan.n, plan.k, sqrt_f_bound(plan.n), plan.gather_budget)
    }

    fn build_controller(&self, plan: &Plan, i: usize) -> Box<dyn Controller<Msg>> {
        Box::new(SqrtController::new(
            plan.ids[i],
            plan.n,
            sqrt_f_bound(plan.n),
            plan.gather_script(i),
            plan.gather_budget,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_unset_before_snapshot() {
        let c = SqrtController::new(RobotId(1), 16, 2, Vec::new(), 0);
        assert!(!c.terminated());
        assert!(c.scheme().plan().is_none());
        assert_eq!(
            c.subrounds_wanted(1),
            2,
            "rounds after the snapshot are communicative"
        );
        assert_eq!(
            c.subrounds_wanted(0),
            1,
            "the snapshot itself reads the roster only"
        );
    }

    #[test]
    fn timeline_matches_controller_boundaries() {
        // Simulate the snapshot directly: boundaries derived by the
        // controller must equal the published timeline.
        let n = 16;
        let f = 2;
        let gather_budget = 100;
        let mut c = SqrtController::new(RobotId(3), n, f, vec![0; 4], gather_budget);
        let ids: Vec<RobotId> = (1..=16).map(RobotId).collect();
        c.snapshot(&ids);
        let t = sqrt_timeline(n, 16, f, gather_budget);
        let (settle_start, settle_end) = t.phase(PHASE_SETTLE).unwrap();
        assert_eq!(c.tail().bounds(), (settle_start, settle_end));
        assert_eq!(t.end(), settle_end);
        let (rep_start, rep_end) = t.phase(PHASE_REPLICATE).unwrap();
        assert_eq!(rep_start, gather_budget + 1);
        assert_eq!(rep_end - rep_start, 5 * group_run_len(n));
    }

    #[test]
    fn five_runs_at_n16_tolerance() {
        let mut c = SqrtController::new(RobotId(5), 16, 2, Vec::new(), 0);
        let ids: Vec<RobotId> = (1..=16).map(RobotId).collect();
        c.snapshot(&ids);
        assert_eq!(c.runs().len(), 5);
        assert_eq!(c.scheme().plan().unwrap().quorum(), 3);
    }

    #[test]
    fn capacity_follows_k_over_n() {
        let mut c = SqrtController::new(RobotId(2), 8, 1, Vec::new(), 0);
        let ids: Vec<RobotId> = (1..=16).map(RobotId).collect(); // k = 2n
        c.snapshot(&ids);
        assert_eq!(c.tail().k_seen(), 16);
        assert_eq!(c.tail().capacity(), 2);
        assert!(!c.terminated());
    }

    #[test]
    fn row_tolerance_matches_f_bound_at_k_equals_n() {
        for n in [4usize, 9, 16, 25, 36] {
            assert_eq!(SqrtRow.tolerance(n, n), sqrt_f_bound(n), "n = {n}");
        }
        // k too small to sustain the n-derived bound.
        assert_eq!(SqrtRow.tolerance(16, 5), 0);
    }
}
