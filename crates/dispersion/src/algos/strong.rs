//! Theorems 6 and 7: **strong** Byzantine robots, `f ≤ ⌊n/4 − 1⌋` (§4).
//!
//! Strong Byzantine robots fake IDs, so all trust is by *counting distinct
//! claimed IDs against the `⌊n/4⌋` threshold*: with `f ≤ ⌊n/4⌋ − 1`
//! Byzantine robots, no forged quorum can reach `⌊n/4⌋`, while each
//! ID-ordered half of the gathering retains at least `⌊n/4⌋` honest
//! members.
//!
//! * Phase 1 — one group map-finding run: lower half `A` agents, upper half
//!   `B` the token, all thresholds `⌊n/4⌋`.
//! * Phase 2 — **rank dispersion** (no DUM, no communication): the robots
//!   order the `k` snapshot IDs; the robot of rank `i` walks to node
//!   `v(i mod n)` of the agreed map's deterministic node ordering and
//!   settles, so a `k > n` roster places `⌈k/n⌉` robots per node (§5).
//!   `O(n³)` rounds total, dominated by phase 1.
//!
//! Theorem 7 (arbitrary start) prepends the gathering substrate, which is
//! immune to strong Byzantine robots by construction (DESIGN.md,
//! substitution 4 explains why this replaces the paper's exponential
//! black-box gathering).
//!
//! Both phases run on the shared [`GroupPhaseController`]: this module
//! contributes the run layout ([`StrongScheme`]) and the [`RankWalk`]
//! tail.

use crate::algos::common::{
    partition2, GroupPhaseController, GroupRunSpec, GroupScheme, GroupTail, VoteRule,
};
use crate::msg::Msg;
use crate::registry::{Plan, StartRequirement, TableRow};
use crate::timeline::{group_run_len, rank_walk_budget, t2_work_budget, Timeline};
use bd_graphs::navigate::shortest_path_ports;
use bd_graphs::{CanonicalForm, Port, PortGraph};
use bd_runtime::{Controller, MoveChoice, Observation, RobotId};
use std::collections::VecDeque;

/// The Theorem 6–7 [`GroupScheme`]: one run over the ID-ordered halves of
/// the snapshot of *claimed* IDs (duplicates collapse, so every honest
/// robot records the identical set), all thresholds `max(⌊n/4⌋, 1)`.
pub struct StrongScheme;

impl StrongScheme {
    /// The counting threshold for instructions, presence and votes.
    fn threshold(n: usize) -> usize {
        (n / 4).max(1)
    }
}

impl GroupScheme for StrongScheme {
    type Tail = RankWalk;

    fn plan_runs(&mut self, ids: &[RobotId], n: usize, first_start: u64) -> Vec<GroupRunSpec> {
        let (a, b) = partition2(ids);
        let t = Self::threshold(n);
        vec![GroupRunSpec {
            agents: a.into_iter().collect(),
            token: b.into_iter().collect(),
            instr_threshold: t,
            presence_threshold: t,
            vote: VoteRule::Quorum(t),
            start: first_start,
            work: t2_work_budget(n),
            end: first_start + group_run_len(n),
        }]
    }

    fn choose_map(&self, votes: &[Option<CanonicalForm>]) -> Option<CanonicalForm> {
        votes.first().cloned().flatten()
    }
}

/// Phase 2, rank dispersion: the robot of rank `i` in the snapshot walks
/// from the gathering node to node `v(i mod n)` of the agreed map's
/// canonical node ordering and stays there. No messages; 2 sub-rounds a
/// round, like the run before it.
pub struct RankWalk {
    id: RobotId,
    n: usize,
    /// This robot's position in the sorted snapshot (`None` if absent).
    rank: Option<usize>,
    start: u64,
    end: u64,
    /// The walk, computed when the phase starts.
    path: Option<VecDeque<Port>>,
}

impl GroupTail for RankWalk {
    fn pending(id: RobotId, n: usize) -> Self {
        RankWalk {
            id,
            n,
            rank: None,
            start: u64::MAX,
            end: u64::MAX,
            path: None,
        }
    }

    /// The walk runs `[start, start + rank_walk_budget(n))`.
    fn schedule(&mut self, start: u64, ids: &[RobotId]) {
        self.rank = ids.iter().position(|&r| r == self.id);
        self.start = start;
        self.end = start + rank_walk_budget(self.n);
    }

    fn end(&self) -> u64 {
        self.end
    }

    fn active(&self, round: u64) -> bool {
        round >= self.start && round < self.end
    }

    fn subrounds(&self) -> usize {
        2
    }

    fn running(&self) -> bool {
        self.path.is_some()
    }

    /// Rank `i` targets map node `i mod map.n()`, so a `k > n` roster
    /// spreads `⌈k/n⌉` robots per node instead of piling the surplus on
    /// the gathering node.
    fn begin(&mut self, map: PortGraph) {
        let path = self
            .rank
            .and_then(|rank| shortest_path_ports(&map, 0, rank % map.n()))
            .unwrap_or_default();
        self.path = Some(path.into());
    }

    fn act(&mut self, _obs: &Observation<'_, Msg>) -> Option<Msg> {
        None
    }

    fn decide_move(&mut self) -> MoveChoice {
        match self.path.as_mut().and_then(|p| p.pop_front()) {
            Some(p) => MoveChoice::Move(p),
            None => MoveChoice::Stay,
        }
    }

    /// Once the path is used up, idle to the phase's end, where the robot
    /// is `Intent::Done` (an idle skip records the termination as
    /// stepping would, so the round count equals the budget exactly).
    fn idle_until(&self, round: u64) -> Option<u64> {
        (round >= self.start && self.path.as_ref().is_some_and(|p| p.is_empty()))
            .then_some(self.end)
    }
}

/// Table 1 rows: Theorem 6 (gathered start) and Theorem 7 (arbitrary
/// start, gathers first) share one descriptor parameterized on the start.
pub struct StrongRow {
    gathers: bool,
}

/// Theorem 6's descriptor (gathered start).
pub static STRONG_TH6: StrongRow = StrongRow { gathers: false };
/// Theorem 7's descriptor (arbitrary start).
pub static STRONG_TH7: StrongRow = StrongRow { gathers: true };

impl TableRow for StrongRow {
    fn name(&self) -> &'static str {
        if self.gathers {
            "StrongArbitraryTh7"
        } else {
            "StrongGatheredTh6"
        }
    }

    fn theorem(&self) -> &'static str {
        if self.gathers {
            "Thm 7"
        } else {
            "Thm 6"
        }
    }

    fn paper_time(&self) -> &'static str {
        if self.gathers {
            "exponential(n)*"
        } else {
            "O(n^3)"
        }
    }

    fn paper_tolerance(&self) -> &'static str {
        "floor(n/4) - 1"
    }

    /// `⌊n/4⌋ − 1`, so no forged quorum reaches the `⌊n/4⌋` threshold,
    /// additionally clamped so the smaller ID-ordered half, `⌊k/2⌋`
    /// robots, keeps `⌊n/4⌋` honest members when `k < n`. Both bounds
    /// agree at `k = n`.
    fn tolerance(&self, n: usize, k: usize) -> usize {
        (n / 4).saturating_sub(1).min((k / 2).saturating_sub(n / 4))
    }

    fn start_requirement(&self) -> StartRequirement {
        if self.gathers {
            StartRequirement::GathersFirst
        } else {
            StartRequirement::Gathered
        }
    }

    fn strong(&self) -> bool {
        true
    }

    fn phase_schedule(&self, plan: &Plan) -> Timeline {
        let mut t = Timeline::default();
        if plan.gather_budget > 0 {
            t.push("gather", plan.gather_budget);
        }
        t.push("snapshot", 1);
        t.push("map_run", group_run_len(plan.n));
        t.push("rank_walk", rank_walk_budget(plan.n));
        t
    }

    fn build_controller(&self, plan: &Plan, i: usize) -> Box<dyn Controller<Msg>> {
        Box::new(GroupPhaseController::with_scheme(
            plan.ids[i],
            plan.n,
            StrongScheme,
            plan.gather_script(i),
            plan.gather_budget,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_is_quarter_n() {
        assert_eq!(StrongScheme::threshold(16), 4);
        assert_eq!(StrongScheme::threshold(3), 1);
    }

    #[test]
    fn tolerance_keeps_the_smaller_half_at_quorum() {
        // k = n: the Table 1 bound.
        assert_eq!(STRONG_TH6.tolerance(16, 16), 3);
        // k = n/2: halves of 4 leave no slack over the quorum of 4.
        assert_eq!(STRONG_TH6.tolerance(16, 8), 0);
        assert_eq!(STRONG_TH6.tolerance(16, 12), 2);
        // k > n: the quorum bound alone.
        assert_eq!(STRONG_TH6.tolerance(8, 16), 1);
        assert_eq!(STRONG_TH7.tolerance(16, 20), 3);
    }
}
