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

use crate::algos::common::{GroupTail, SettlePhase};
use crate::mapvote::majority_map;
use crate::msg::Msg;
use crate::pairing::{pairing_schedule, PairingSchedule};
use crate::registry::{Plan, StartRequirement, TableRow};
use crate::timeline::{dum_budget, pair_window_len, t2_work_budget, Timeline};
use crate::token_roles::{AgentDriver, InstructionSpec, TokenFollower, TokenSpec};
use bd_graphs::canonical::canonical_form;
use bd_graphs::{CanonicalForm, Port, PortGraph};
use bd_runtime::{Controller, MoveChoice, Observation, RobotId};
use std::collections::VecDeque;

enum WindowRole {
    Agent(AgentDriver),
    Token(TokenFollower),
    Idle,
}

/// Controller for Theorems 2 (with a gather script) and 3 (gathered start).
pub struct HalfController {
    id: RobotId,
    n: usize,
    /// Gathering walk (empty for Theorem 3).
    gather_script: VecDeque<Port>,
    /// Round at which gathering ends and the roster snapshot happens.
    snapshot_round: u64,
    /// Set at the snapshot round.
    schedule: Option<PairingSchedule>,
    pairing_start: u64,
    pairing_end: u64,
    window_len: u64,
    /// Window currently being executed.
    cur_window: u64,
    cur_partner: Option<RobotId>,
    role: WindowRole,
    run_index: u8,
    deadline_handled: bool,
    /// One vote per agent run.
    votes: Vec<Option<CanonicalForm>>,
    settle: SettlePhase,
    round_seen: u64,
}

impl HalfController {
    /// `gather_script` empty means a gathered start (Theorem 3); otherwise
    /// it is the robot's precomputed gathering route and `gather_budget`
    /// the shared phase budget (Theorem 2).
    pub fn new(id: RobotId, n: usize, gather_script: Vec<Port>, gather_budget: u64) -> Self {
        let snapshot_round = if gather_script.is_empty() {
            0
        } else {
            gather_budget
        };
        HalfController {
            id,
            n,
            gather_script: gather_script.into(),
            snapshot_round,
            schedule: None,
            pairing_start: snapshot_round + 1,
            pairing_end: u64::MAX,
            window_len: pair_window_len(n),
            cur_window: u64::MAX,
            cur_partner: None,
            role: WindowRole::Idle,
            run_index: 0,
            deadline_handled: false,
            votes: Vec::new(),
            settle: SettlePhase::pending(id, n),
            round_seen: 0,
        }
    }

    fn in_pairing(&self, round: u64) -> bool {
        self.schedule.is_some() && round >= self.pairing_start && round < self.pairing_end
    }

    /// Handle window transitions and intra-window sub-phases at sub-round 0.
    fn pairing_act(&mut self, obs: &Observation<'_, Msg>) -> Option<Msg> {
        let offset_total = obs.round - self.pairing_start;
        let window = offset_total / self.window_len;
        let offset = offset_total % self.window_len;
        let work = t2_work_budget(self.n);

        if window != self.cur_window && obs.subround == 0 {
            // Entering a new window: harvest the previous agent run, reset.
            self.harvest_agent_run();
            self.cur_window = window;
            self.cur_partner = self
                .schedule
                .as_ref()
                .expect("schedule set")
                .partner_in(self.id, window);
            self.role = WindowRole::Idle;
            self.run_index = 0;
            self.deadline_handled = false;
        }
        let Some(partner) = self.cur_partner else {
            return None; // dummy slot: idle out the window
        };

        // Sub-phase boundaries: run 1 [0, W), return [W, 2W), run 2
        // [2W, 3W), return [3W, 4W), slack afterwards.
        if offset == 0 && obs.subround == 0 && self.run_index == 0 {
            self.run_index = 1;
            self.deadline_handled = false;
            self.role = if self.id < partner {
                WindowRole::Agent(AgentDriver::new(
                    obs.degree,
                    self.n,
                    TokenSpec::Partner(partner),
                ))
            } else {
                WindowRole::Token(TokenFollower::with_timeout(
                    InstructionSpec::Partner(partner),
                    8 * self.n as u64 + 16,
                ))
            };
        }
        if offset == 2 * work && obs.subround == 0 && self.run_index == 1 {
            self.harvest_agent_run();
            self.run_index = 2;
            self.deadline_handled = false;
            // Roles swap for the second run.
            self.role = if self.id > partner {
                WindowRole::Agent(AgentDriver::new(
                    obs.degree,
                    self.n,
                    TokenSpec::Partner(partner),
                ))
            } else {
                WindowRole::Token(TokenFollower::with_timeout(
                    InstructionSpec::Partner(partner),
                    8 * self.n as u64 + 16,
                ))
            };
        }
        // Work deadlines at W (run 1) and 3W (run 2).
        let deadline = if self.run_index == 1 { work } else { 3 * work };
        if offset >= deadline && !self.deadline_handled && obs.subround == 0 {
            self.deadline_handled = true;
            match &mut self.role {
                WindowRole::Agent(a) => a.abort(),
                WindowRole::Token(t) => t.go_home(),
                WindowRole::Idle => {}
            }
        }
        // Drive the active role during its work segment.
        let working = (self.run_index == 1 && offset < work)
            || (self.run_index == 2 && (2 * work..3 * work).contains(&offset));
        match &mut self.role {
            WindowRole::Agent(a) if working && obs.subround == 0 => a.act(obs),
            WindowRole::Agent(a) if obs.subround == 0 => {
                // Return leg: keep logging arrivals for the reversal path.
                a.act(obs)
            }
            WindowRole::Token(t) => t.act(obs),
            _ => None,
        }
    }

    fn harvest_agent_run(&mut self) {
        if let WindowRole::Agent(a) = &mut self.role {
            let vote = a.take_result().map(|m| canonical_form(&m, 0));
            self.votes.push(vote);
            self.role = WindowRole::Idle;
        }
    }
}

impl Controller<Msg> for HalfController {
    fn id(&self) -> RobotId {
        self.id
    }

    fn subrounds_wanted(&self, round: u64) -> usize {
        if self.settle.active(round) {
            self.settle.subrounds()
        } else if self.in_pairing(round) {
            2
        } else {
            1
        }
    }

    fn act(&mut self, obs: &Observation<'_, Msg>) -> Option<Msg> {
        self.round_seen = obs.round;
        // Roster snapshot: derive the schedule and all later boundaries.
        if obs.round == self.snapshot_round && self.schedule.is_none() && obs.subround == 0 {
            let ids = crate::algos::common::snapshot_ids(obs.roster);
            let schedule = pairing_schedule(&ids);
            self.pairing_start = self.snapshot_round + 1;
            self.pairing_end = self.pairing_start + schedule.total_windows * self.window_len;
            self.settle.schedule(self.pairing_end, &ids);
            self.schedule = Some(schedule);
            return None;
        }
        if self.in_pairing(obs.round) {
            return self.pairing_act(obs);
        }
        if self.settle.active(obs.round) {
            if !self.settle.running() {
                self.harvest_agent_run();
                let map = majority_map(&self.votes)
                    .map(|form| form.to_graph())
                    .unwrap_or_else(|| {
                        // No majority (possible only beyond tolerance):
                        // degrade to a single-node map; the robot will sit
                        // at the gathering node and the verifier will
                        // report the failure.
                        PortGraph::from_adjacency(vec![vec![]]).expect("trivial map")
                    });
                self.settle.begin(map);
            }
            return self.settle.act(obs);
        }
        None
    }

    fn decide_move(&mut self, obs: &Observation<'_, Msg>) -> MoveChoice {
        self.round_seen = obs.round;
        if obs.round < self.snapshot_round {
            return match self.gather_script.pop_front() {
                Some(p) => MoveChoice::Move(p),
                None => MoveChoice::Stay,
            };
        }
        if self.in_pairing(obs.round) {
            return match &mut self.role {
                WindowRole::Agent(a) => a.decide_move(obs.degree),
                WindowRole::Token(t) => t.decide_move(),
                WindowRole::Idle => MoveChoice::Stay,
            };
        }
        if self.settle.active(obs.round) {
            return self.settle.decide_move();
        }
        MoveChoice::Stay
    }

    fn terminated(&self) -> bool {
        self.settle.scheduled() && self.round_seen + 1 >= self.settle.end()
    }

    fn idle_until(&self) -> Option<u64> {
        // Gathering done early: idle until the snapshot.
        if self.round_seen < self.snapshot_round && self.gather_script.is_empty() {
            return Some(self.snapshot_round);
        }
        // Inside a window: idle until the next sub-phase boundary when the
        // robot has nothing left to do in the current one.
        if self.in_pairing(self.round_seen) && self.cur_window != u64::MAX {
            let window_start = self.pairing_start + self.cur_window * self.window_len;
            let next_window = (window_start + self.window_len).min(self.pairing_end);
            if self.cur_partner.is_none() {
                return Some(next_window);
            }
            let work = t2_work_budget(self.n);
            let boundary = if self.run_index <= 1 {
                window_start + 2 * work
            } else {
                next_window
            };
            let finished = match &self.role {
                WindowRole::Agent(a) => a.finished(),
                WindowRole::Token(t) => t.finished(),
                WindowRole::Idle => true,
            };
            if finished && boundary > self.round_seen + 1 {
                return Some(boundary);
            }
        }
        None
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
        Box::new(HalfController::new(
            plan.ids[i],
            plan.n,
            plan.gather_script(i),
            plan.gather_budget,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_unset_before_snapshot() {
        let c = HalfController::new(RobotId(1), 8, Vec::new(), 0);
        assert!(!c.terminated());
        assert_eq!(c.subrounds_wanted(0), 1);
        assert!(!c.in_pairing(5));
    }

    #[test]
    fn row_names_and_starts() {
        assert_eq!(HALF_TH2.name(), "ArbitraryHalfTh2");
        assert_eq!(HALF_TH3.name(), "GatheredHalfTh3");
        assert_eq!(HALF_TH2.start_requirement(), StartRequirement::GathersFirst);
        assert_eq!(HALF_TH3.start_requirement(), StartRequirement::Gathered);
    }
}
