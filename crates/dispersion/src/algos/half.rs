//! Theorems 2 and 3: tolerating `⌊n/2 − 1⌋` weak Byzantine robots on any
//! graph (§3.1).
//!
//! * Phase 1 (arbitrary start only) — gather via the view-based substrate.
//! * Phase 2 — **all-pairs map finding**: the pairing schedule runs the
//!   token map-finding algorithm between every pair of gathered robots;
//!   each robot keeps the map built in each pairing where it acted as the
//!   agent and takes the **majority** over its collected maps. With
//!   `f ≤ ⌊n/2 − 1⌋`, good pairings outnumber bad ones for every honest
//!   robot.
//! * Phase 3 — the capacity-aware `Dispersion-Using-Map` settle
//!   ([`crate::algos::common::SettlePhase`]) from the gathering node, so
//!   `k ≠ n` rosters run first-class (§5's `⌈k/n⌉` regime).
//!
//! A pairing is §3.2's group run with groups of one: a lone agent, a lone
//! token, trust thresholds of 1, and the agent's own map as its vote
//! ([`VoteRule::OwnMap`]). So both rows run on the shared
//! [`GroupPhaseController`]; this module contributes the window layout
//! ([`PairScheme`]) and the majority.

use crate::algos::common::{
    GroupPhaseController, GroupRunSpec, GroupScheme, SettlePhase, VoteRule,
};
use crate::mapvote::majority_map;
use crate::msg::Msg;
use crate::pairing::pairing_schedule;
use crate::registry::{Plan, StartRequirement, TableRow};
use crate::timeline::{dum_budget, pair_window_len, t2_work_budget, Timeline};
use bd_graphs::CanonicalForm;
use bd_runtime::{Controller, RobotId};

/// The Theorem 2–3 [`GroupScheme`] for robot `me`. Pairing window `w`
/// spans `[ws, ws + 4W + 8)` with `W = t2_work_budget(n)`. With partner
/// `p` it is two runs: the smaller ID is the agent in `[ws, ws + 2W)`,
/// then the roles swap in `[ws + 2W, ws + 4W + 8)`, which absorbs the
/// window's slack. A dummy window is one run with empty groups, so the
/// robot idles it out as a bystander.
pub struct PairScheme {
    /// The robot whose windows the scheme lays out.
    pub me: RobotId,
}

impl GroupScheme for PairScheme {
    type Tail = SettlePhase;

    fn plan_runs(&mut self, ids: &[RobotId], n: usize, first_start: u64) -> Vec<GroupRunSpec> {
        let schedule = pairing_schedule(ids);
        let work = t2_work_budget(n);
        let window_len = pair_window_len(n);
        let run = |agents: &[RobotId], token: &[RobotId], start: u64, end: u64| GroupRunSpec {
            agents: agents.iter().copied().collect(),
            token: token.iter().copied().collect(),
            instr_threshold: 1,
            presence_threshold: 1,
            vote: VoteRule::OwnMap,
            start,
            work,
            end,
        };
        let mut specs = Vec::new();
        for w in 0..schedule.total_windows {
            let ws = first_start + w * window_len;
            let we = ws + window_len;
            match schedule.partner_in(self.me, w) {
                Some(p) => {
                    let (lo, hi) = (self.me.min(p), self.me.max(p));
                    specs.push(run(&[lo], &[hi], ws, ws + 2 * work));
                    specs.push(run(&[hi], &[lo], ws + 2 * work, we));
                }
                None => specs.push(run(&[], &[], ws, we)),
            }
        }
        specs
    }

    /// The plurality over the maps this robot built as agent; token and
    /// dummy runs yield `None`, which never wins.
    fn choose_map(&self, votes: &[Option<CanonicalForm>]) -> Option<CanonicalForm> {
        majority_map(votes, 1)
    }
}

/// Table 1 rows: Theorem 2 (arbitrary start, gathers first) and Theorem 3
/// (gathered start) share one descriptor parameterized on the start.
pub struct HalfRow {
    gathers: bool,
}

/// Theorem 2's descriptor (arbitrary start).
pub static HALF_TH2: HalfRow = HalfRow { gathers: true };
/// Theorem 3's descriptor (gathered start).
pub static HALF_TH3: HalfRow = HalfRow { gathers: false };

impl TableRow for HalfRow {
    fn name(&self) -> &'static str {
        if self.gathers {
            "ArbitraryHalfTh2"
        } else {
            "GatheredHalfTh3"
        }
    }

    fn theorem(&self) -> &'static str {
        if self.gathers {
            "Thm 2"
        } else {
            "Thm 3"
        }
    }

    fn paper_time(&self) -> &'static str {
        if self.gathers {
            "O(n^4 |L| X(n))"
        } else {
            "O(n^4)"
        }
    }

    fn paper_tolerance(&self) -> &'static str {
        "floor(n/2) - 1"
    }

    /// `⌊n/2⌋ − 1`, additionally clamped to what the roster supports when
    /// `k < n` (each robot's map majority is over its `k − 1` pairings).
    fn tolerance(&self, n: usize, k: usize) -> usize {
        (n.min(k) / 2).saturating_sub(1)
    }

    fn start_requirement(&self) -> StartRequirement {
        if self.gathers {
            StartRequirement::GathersFirst
        } else {
            StartRequirement::Gathered
        }
    }

    fn phase_schedule(&self, plan: &Plan) -> Timeline {
        let sched = pairing_schedule(&plan.ids);
        let mut t = Timeline::default();
        if plan.gather_budget > 0 {
            t.push("gather", plan.gather_budget);
        }
        t.push("snapshot", 1);
        t.push("pairing", sched.total_windows * pair_window_len(plan.n));
        t.push("settle", dum_budget(plan.n));
        t
    }

    fn build_controller(&self, plan: &Plan, i: usize) -> Box<dyn Controller<Msg>> {
        Box::new(GroupPhaseController::with_scheme(
            plan.ids[i],
            plan.n,
            PairScheme { me: plan.ids[i] },
            plan.gather_script(i),
            plan.gather_budget,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_runtime::Intent;

    use bd_graphs::canonical::canonical_form;
    use bd_graphs::generators::{path, ring};
    use std::sync::Arc;

    #[test]
    fn boundaries_unset_before_snapshot() {
        let c = GroupPhaseController::with_scheme(
            RobotId(1),
            8,
            PairScheme { me: RobotId(1) },
            Vec::new(),
            0,
        );
        assert_ne!(c.intent(0), Intent::Done);
        assert_eq!(c.subrounds_wanted(0), 1);
        assert!(c.runs().is_empty());
    }

    /// Every robot's runs tile the row's `pairing` phase exactly, and a
    /// partnered run is the same run in both robots' layouts.
    #[test]
    fn pair_runs_tile_the_pairing_phase() {
        let n = 8;
        for (row, gather_budget) in [(&HALF_TH3, 0), (&HALF_TH2, 100)] {
            for k in 1..=9u64 {
                let ids: Vec<RobotId> = (1..=k).map(|i| RobotId(10 * i)).collect();
                let plan = Plan {
                    graph: Arc::new(ring(n).unwrap()),
                    n,
                    k: ids.len(),
                    f: 0,
                    ids: ids.clone(),
                    honest: vec![true; ids.len()],
                    starts: vec![0; ids.len()],
                    gather_routes: None,
                    gather_budget,
                    seed: 0,
                    prep: None,
                };
                let (start, end) = row.phase_schedule(&plan).phase("pairing").unwrap();
                assert_eq!(start, gather_budget + 1);
                let layout = |me| PairScheme { me }.plan_runs(&ids, n, gather_budget + 1);
                for &me in &ids {
                    let runs = layout(me);
                    let mut at = start;
                    for run in &runs {
                        assert_eq!(run.start, at, "k={k} {me:?}: gap or overlap");
                        at = run.end;
                        if let Some(&agent) = run.agents.first() {
                            let token = *run.token.first().unwrap();
                            let other = if agent == me { token } else { agent };
                            let mirrored = layout(other).into_iter().find(|r| r.start == run.start);
                            let mirrored = mirrored.expect("partner has the run");
                            assert_eq!(
                                (mirrored.agents, mirrored.token),
                                (run.agents.clone(), run.token.clone())
                            );
                            assert_eq!(mirrored.end, run.end);
                        }
                    }
                    assert_eq!(at, end, "k={k} {me:?}: last run ends off the pairing end");
                }
            }
        }
    }

    #[test]
    fn choose_map_takes_the_majority_not_the_first_map() {
        let a = canonical_form(&ring(5).unwrap(), 0);
        let b = canonical_form(&path(5).unwrap(), 0);
        let votes = [Some(b), None, Some(a.clone()), Some(a.clone())];
        assert_eq!(PairScheme { me: RobotId(1) }.choose_map(&votes), Some(a));
    }

    #[test]
    fn row_names_and_starts() {
        assert_eq!(HALF_TH2.name(), "ArbitraryHalfTh2");
        assert_eq!(HALF_TH3.name(), "GatheredHalfTh3");
        assert_eq!(HALF_TH2.start_requirement(), StartRequirement::GathersFirst);
        assert_eq!(HALF_TH3.start_requirement(), StartRequirement::Gathered);
    }
}
