//! Theorem 4: faster group-based map finding (§3.2).
//!
//! Gathered start, `f ≤ ⌊n/3 − 1⌋`. The `k` gathered robots split into
//! ID-ordered thirds `A`, `B`, `C`; three map-finding runs follow, with
//! each group once in the agent seat (`A`/`B∪C`, `B`/`A∪C`, `C`/`B∪A`).
//! Trust thresholds: a token obeys instructions from `≥ ⌊k/6⌋+1` distinct
//! agent-group IDs; the agent senses the token via `≥ ⌊k/3⌋+1` distinct
//! token-group IDs. At most one group can be Byzantine-heavy, so at least
//! two runs produce the true map, and the per-run quorum votes let every
//! robot take the 2-of-3 majority. Total `O(n³)` rounds.
//!
//! The runs end with the capacity-aware `Dispersion-Using-Map` settle
//! from the gathering node, so `k ≠ n` rosters run first-class (§5's
//! `⌈k/n⌉` regime). The controller scaffold (gather → snapshot → runs →
//! settle) is the shared [`GroupPhaseController`]; this module only
//! contributes the run layout and the 2-of-3 majority.

use crate::algos::common::{
    partition3, GroupPhaseController, GroupRunSpec, GroupScheme, SettlePhase, VoteRule,
};
use crate::mapvote::majority_map;
use crate::msg::Msg;
use crate::registry::{Plan, StartRequirement, TableRow};
use crate::timeline::{dum_budget, group_run_len, t2_work_budget, Timeline};
use bd_graphs::CanonicalForm;
use bd_runtime::{Controller, RobotId};

/// The Theorem 4 [`GroupScheme`]: three runs over ID-ordered thirds,
/// 2-of-3 majority over their maps, then settle.
pub struct ThirdScheme;

impl GroupScheme for ThirdScheme {
    type Tail = SettlePhase;

    fn plan_runs(&mut self, ids: &[RobotId], n: usize, first_start: u64) -> Vec<GroupRunSpec> {
        let k = ids.len();
        let run_len = group_run_len(n);
        let (a, b, c) = partition3(ids);
        let instr = k / 6 + 1;
        let presence = k / 3 + 1;
        let seats: [(Vec<RobotId>, Vec<RobotId>); 3] = [
            (a.clone(), [b.clone(), c.clone()].concat()),
            (b.clone(), [a.clone(), c.clone()].concat()),
            (c, [b, a].concat()),
        ];
        seats
            .into_iter()
            .enumerate()
            .map(|(i, (agents, token))| {
                let start = first_start + i as u64 * run_len;
                GroupRunSpec {
                    agents: agents.into_iter().collect(),
                    token: token.into_iter().collect(),
                    instr_threshold: instr,
                    presence_threshold: presence,
                    vote: VoteRule::Quorum(instr),
                    start,
                    work: t2_work_budget(n),
                    end: start + run_len,
                }
            })
            .collect()
    }

    fn choose_map(&self, votes: &[Option<CanonicalForm>]) -> Option<CanonicalForm> {
        majority_map(votes, 1)
    }
}

/// Table 1 row: Theorem 4.
pub struct ThirdRow;

impl TableRow for ThirdRow {
    fn name(&self) -> &'static str {
        "GatheredThirdTh4"
    }

    fn theorem(&self) -> &'static str {
        "Thm 4"
    }

    fn paper_time(&self) -> &'static str {
        "O(n^3)"
    }

    fn paper_tolerance(&self) -> &'static str {
        "floor(n/3) - 1"
    }

    /// `⌊n/3⌋ − 1`, additionally clamped to what the roster supports when
    /// `k < n` (the 2-of-3 majority needs at most one Byzantine-heavy
    /// third of the *gathered* robots).
    fn tolerance(&self, n: usize, k: usize) -> usize {
        (n.min(k) / 3).saturating_sub(1)
    }

    fn start_requirement(&self) -> StartRequirement {
        StartRequirement::Gathered
    }

    fn phase_schedule(&self, plan: &Plan) -> Timeline {
        let mut t = Timeline::default();
        t.push("snapshot", 1);
        t.push("replicate", 3 * group_run_len(plan.n));
        t.push("settle", dum_budget(plan.n));
        t
    }

    fn build_controller(&self, plan: &Plan, i: usize) -> Box<dyn Controller<Msg>> {
        Box::new(GroupPhaseController::with_scheme(
            plan.ids[i],
            plan.n,
            ThirdScheme,
            plan.gather_script(i),
            plan.gather_budget,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_runtime::Intent;

    #[test]
    fn runs_unset_before_snapshot() {
        let c = GroupPhaseController::with_scheme(RobotId(1), 9, ThirdScheme, Vec::new(), 0);
        assert_ne!(c.intent(0), Intent::Done);
        assert!(c.runs().is_empty());
    }

    #[test]
    fn snapshot_schedules_three_runs_and_settle() {
        let mut c = GroupPhaseController::with_scheme(RobotId(1), 9, ThirdScheme, Vec::new(), 0);
        let ids: Vec<RobotId> = (1..=9).map(RobotId).collect();
        c.snapshot(&ids);
        assert_eq!(c.runs().len(), 3);
        let (start, end) = c.tail().bounds();
        assert_eq!(start, 1 + 3 * group_run_len(9));
        assert_eq!(end, start + dum_budget(9));
        assert_eq!(c.tail().capacity(), 1);
    }

    #[test]
    fn capacity_follows_roster_size() {
        // §5 regime: a 2n roster settles two honest robots per node.
        let mut c = GroupPhaseController::with_scheme(RobotId(1), 8, ThirdScheme, Vec::new(), 0);
        let ids: Vec<RobotId> = (1..=16).map(RobotId).collect();
        c.snapshot(&ids);
        assert_eq!(c.tail().k_seen(), 16);
        assert_eq!(c.tail().capacity(), 2);
    }
}
