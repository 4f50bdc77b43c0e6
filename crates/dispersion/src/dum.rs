//! `Dispersion-Using-Map` — the paper's §2.2 procedure, the settling engine
//! every algorithm ends with.
//!
//! Preconditions: the robot holds a map isomorphic to the graph and knows
//! which map node it stands on. Each round is split into `n + 2` sub-rounds:
//!
//! * **sub-round 0** — every robot (settled or not) announces
//!   `State { state, flag }`; silence is a blacklisting offence (step 4);
//! * **sub-round rank(r)** — robot `r` (rank = position of its ID in the
//!   sorted co-located roster, 1-based) makes its decision, having seen
//!   everything smaller-ranked robots announced this round.
//!
//! Decision at `r`'s rank sub-round, following the paper's steps 1–4:
//!
//! 1. arrival bookkeeping (step 4): blacklist co-located robots recorded as
//!    settled *elsewhere*, and robots that skipped their sub-round-0
//!    announcement;
//! 2. if a trusted settled robot is present (step 3c): record it in
//!    `A_r[v]` and continue the Euler tour;
//! 3. if a smaller trusted robot announced `Settle` this round (steps
//!    2b/3b "observe"): record it and continue the tour;
//! 4. otherwise settle (steps 1, 2a, 2b, 3a, 3b all resolve to settling
//!    here under rank-ordered sub-rounds: every smaller non-blacklisted
//!    candidate had its chance this round and yielded — the paper's
//!    flag-and-wait dance collapses because "waits and observes the smaller
//!    ID robots" completes within the same round).
//!
//! A settled robot never moves and never changes state (Lemma 2's
//! prerequisite); it keeps announcing until the phase budget expires.

use crate::msg::{DumState, Msg};
use bd_graphs::traversal::{dfs_tree, euler_tour_ports};
use bd_graphs::{NodeId, Port, PortGraph};
use bd_runtime::{MoveChoice, Observation, RobotId};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The per-robot DUM state machine. Drive it from a controller: call
/// [`DumMachine::act`] every sub-round and [`DumMachine::decide_move`] at
/// the end of each round.
#[derive(Debug, Clone)]
pub struct DumMachine {
    id: RobotId,
    /// The robot's private map (isomorphic to the graph); shared, never
    /// mutated, so clones of the machine stay O(1) in the map size.
    map: Arc<PortGraph>,
    /// Current position in map coordinates.
    pos: NodeId,
    /// Euler tour of a DFS tree of the map rooted at the start position.
    tour: Vec<Port>,
    tour_idx: usize,
    state: DumState,
    flag: bool,
    /// `A_r`: settled robot IDs recorded per map node (paper §2.2).
    ar: Vec<BTreeSet<RobotId>>,
    /// `B_r`: blacklisted robots.
    br: BTreeSet<RobotId>,
    /// Allowed settled robots per node (§5's `⌈k/n⌉` generalization;
    /// 1 in the standard Definition 1 regime).
    capacity: usize,
    /// Move planned during this round's decision sub-round.
    planned: Option<Port>,
}

impl DumMachine {
    /// Create the machine for robot `id` holding `map`, standing on map
    /// node `start`, with the standard per-node capacity of 1.
    pub fn new(id: RobotId, map: impl Into<Arc<PortGraph>>, start: NodeId) -> Self {
        DumMachine::with_capacity(id, map, start, 1)
    }

    /// Create the machine with an explicit per-node capacity: a node counts
    /// as occupied only once `capacity` trusted settled robots announce
    /// from it — the §5 `k > n` regime where `⌈k/n⌉` robots share a node.
    pub fn with_capacity(
        id: RobotId,
        map: impl Into<Arc<PortGraph>>,
        start: NodeId,
        capacity: usize,
    ) -> Self {
        let map = map.into();
        let tour = if map.n() > 1 {
            euler_tour_ports(&dfs_tree(&map, start))
        } else {
            Vec::new()
        };
        let n = map.n();
        DumMachine {
            id,
            map,
            pos: start,
            tour,
            tour_idx: 0,
            state: DumState::ToBeSettled,
            flag: false,
            ar: vec![BTreeSet::new(); n],
            br: BTreeSet::new(),
            capacity: capacity.max(1),
            planned: None,
        }
    }

    /// Sub-rounds the phase needs for up to `k` co-located robots.
    pub fn subrounds_needed(k: usize) -> usize {
        k + 2
    }

    /// Whether the robot has settled.
    pub fn settled(&self) -> bool {
        self.state == DumState::Settled
    }

    /// The blacklist accumulated so far (for inspection/tests).
    pub fn blacklist(&self) -> &BTreeSet<RobotId> {
        &self.br
    }

    /// Sub-round handler. Returns the message to publish, if any.
    pub fn act(&mut self, obs: &Observation<'_, Msg>) -> Option<Msg> {
        if obs.subround == 0 {
            return Some(Msg::State {
                state: self.state,
                flag: self.flag,
            });
        }
        if self.state == DumState::Settled {
            return None;
        }
        let rank = self.rank(obs)?;
        if obs.subround != rank {
            return None;
        }
        self.decide(obs)
    }

    /// End-of-round move decision.
    pub fn decide_move(&mut self) -> MoveChoice {
        match self.planned.take() {
            Some(p) if self.state == DumState::ToBeSettled => {
                self.pos = self.map.neighbor(self.pos, p).0;
                self.flag = false;
                MoveChoice::Move(p)
            }
            _ => MoveChoice::Stay,
        }
    }

    /// 1-based rank of this robot among co-located claimed IDs.
    fn rank(&self, obs: &Observation<'_, Msg>) -> Option<usize> {
        let mut ids: Vec<RobotId> = obs.roster.to_vec();
        ids.dedup();
        ids.iter().position(|&r| r == self.id).map(|i| i + 1)
    }

    /// The paper's steps 1–4, resolved at this robot's rank sub-round.
    fn decide(&mut self, obs: &Observation<'_, Msg>) -> Option<Msg> {
        // Who announced state at sub-round 0, and what.
        let mut announced_settled: BTreeSet<RobotId> = BTreeSet::new();
        let mut announced_tbs: BTreeSet<RobotId> = BTreeSet::new();
        let mut announcers: BTreeSet<RobotId> = BTreeSet::new();
        let mut settles_this_round: BTreeSet<RobotId> = BTreeSet::new();
        for p in obs.bulletin {
            match &p.body {
                Msg::State { state, .. } if p.subround == 0 => {
                    announcers.insert(p.sender);
                    match state {
                        DumState::Settled => announced_settled.insert(p.sender),
                        DumState::ToBeSettled => announced_tbs.insert(p.sender),
                    };
                }
                Msg::Settle => {
                    settles_this_round.insert(p.sender);
                }
                _ => {}
            }
        }

        // Step 4a: silence at sub-round 0 is Byzantine.
        for &id in obs.roster {
            if id != self.id && !announcers.contains(&id) {
                self.br.insert(id);
            }
        }
        // Step 4b: a robot recorded settled at a *different* node is
        // Byzantine.
        for &id in obs.roster {
            if id == self.id {
                continue;
            }
            let elsewhere = self
                .ar
                .iter()
                .enumerate()
                .any(|(w, set)| w != self.pos && set.contains(&id));
            if elsewhere {
                self.br.insert(id);
            }
        }

        // Step 3c: enough trusted settled robots occupy this node (the §5
        // generalization counts them against the per-node capacity; the
        // standard regime is capacity 1, where one is enough).
        let trusted_settled: BTreeSet<RobotId> =
            announced_settled.difference(&self.br).copied().collect();
        let occupied = trusted_settled.len();
        self.ar[self.pos].extend(trusted_settled);
        if occupied >= self.capacity {
            self.planned = self.next_tour_port();
            return None;
        }

        // Steps 2b/3b "observe": smaller trusted candidates settled at
        // their own sub-rounds this round; together with the already
        // settled they may fill the node.
        let smaller_settles: BTreeSet<RobotId> = settles_this_round
            .iter()
            .copied()
            .filter(|&s| s < self.id && announced_tbs.contains(&s) && !self.br.contains(&s))
            .collect();
        let filled = occupied + smaller_settles.len();
        self.ar[self.pos].extend(smaller_settles);
        if filled >= self.capacity {
            self.planned = self.next_tour_port();
            return None;
        }

        // Steps 1 / 2a / 3a / residual 2b-3b: settle. (Any smaller
        // non-blacklisted tobeSettled robot already had its sub-round and
        // did not settle — the paper's "if no smaller ID robot changes its
        // state to Settled, then r settles at v".)
        self.flag = true;
        self.state = DumState::Settled;
        self.planned = None;
        Some(Msg::Settle)
    }

    /// Next Euler tour port; wraps around defensively (an honest robot
    /// settles within one tour — Lemma 4 — but a wrapped tour is harmless).
    /// `None` on a single-node map (nowhere to go).
    fn next_tour_port(&mut self) -> Option<Port> {
        if self.tour.is_empty() {
            return None;
        }
        let p = self.tour[self.tour_idx % self.tour.len()];
        self.tour_idx += 1;
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_graphs::generators::ring;
    use bd_runtime::observation::Publication;

    fn obs<'a>(
        subround: usize,
        roster: &'a [RobotId],
        bulletin: &'a [Publication<Msg>],
    ) -> Observation<'a, Msg> {
        Observation {
            round: 0,
            subround,
            subrounds: 8,
            degree: 2,
            roster,
            bulletin,
            arrival: None,
        }
    }

    fn state_msg(sender: RobotId, state: DumState) -> Publication<Msg> {
        Publication {
            sender,
            subround: 0,
            body: Msg::State { state, flag: false },
        }
    }

    #[test]
    fn lone_robot_settles_immediately() {
        // Observation 1 of the paper.
        let mut m = DumMachine::new(RobotId(5), ring(5).unwrap(), 0);
        let roster = [RobotId(5)];
        assert!(matches!(
            m.act(&obs(0, &roster, &[])),
            Some(Msg::State {
                state: DumState::ToBeSettled,
                ..
            })
        ));
        let bulletin = [state_msg(RobotId(5), DumState::ToBeSettled)];
        assert_eq!(m.act(&obs(1, &roster, &bulletin)), Some(Msg::Settle));
        assert!(m.settled());
        assert_eq!(m.decide_move(), MoveChoice::Stay);
    }

    #[test]
    fn larger_robot_yields_to_smaller_settle() {
        let mut m = DumMachine::new(RobotId(9), ring(5).unwrap(), 0);
        let roster = [RobotId(3), RobotId(9)];
        let bulletin = [
            state_msg(RobotId(3), DumState::ToBeSettled),
            state_msg(RobotId(9), DumState::ToBeSettled),
            Publication {
                sender: RobotId(3),
                subround: 1,
                body: Msg::Settle,
            },
        ];
        // Rank of 9 is 2.
        assert_eq!(m.act(&obs(2, &roster, &bulletin)), None);
        assert!(!m.settled());
        assert!(matches!(m.decide_move(), MoveChoice::Move(_)));
        assert!(m.ar[0].contains(&RobotId(3)));
    }

    #[test]
    fn trusted_settled_robot_blocks_node() {
        let mut m = DumMachine::new(RobotId(2), ring(5).unwrap(), 0);
        let roster = [RobotId(2), RobotId(7)];
        let bulletin = [
            state_msg(RobotId(7), DumState::Settled),
            state_msg(RobotId(2), DumState::ToBeSettled),
        ];
        assert_eq!(m.act(&obs(1, &roster, &bulletin)), None);
        assert!(!m.settled());
        assert!(matches!(m.decide_move(), MoveChoice::Move(_)));
        assert!(m.ar[0].contains(&RobotId(7)));
    }

    #[test]
    fn capacity_two_settles_beside_one_settled_robot() {
        // §5 regime: with capacity 2, one trusted settled robot does not
        // fill the node — the candidate settles next to it.
        let mut m = DumMachine::with_capacity(RobotId(2), ring(5).unwrap(), 0, 2);
        let roster = [RobotId(2), RobotId(7)];
        let bulletin = [
            state_msg(RobotId(7), DumState::Settled),
            state_msg(RobotId(2), DumState::ToBeSettled),
        ];
        assert_eq!(m.act(&obs(1, &roster, &bulletin)), Some(Msg::Settle));
        assert!(m.settled());
        assert!(m.ar[0].contains(&RobotId(7)));
    }

    #[test]
    fn capacity_two_full_node_still_blocks() {
        let mut m = DumMachine::with_capacity(RobotId(2), ring(5).unwrap(), 0, 2);
        let roster = [RobotId(2), RobotId(7), RobotId(8)];
        let bulletin = [
            state_msg(RobotId(7), DumState::Settled),
            state_msg(RobotId(8), DumState::Settled),
            state_msg(RobotId(2), DumState::ToBeSettled),
        ];
        assert_eq!(m.act(&obs(1, &roster, &bulletin)), None);
        assert!(!m.settled());
        assert!(matches!(m.decide_move(), MoveChoice::Move(_)));
    }

    #[test]
    fn capacity_counts_same_round_smaller_settles() {
        // A settled announcement plus a smaller same-round settle fill a
        // capacity-2 node together.
        let mut m = DumMachine::with_capacity(RobotId(9), ring(5).unwrap(), 0, 2);
        let roster = [RobotId(3), RobotId(7), RobotId(9)];
        let bulletin = [
            state_msg(RobotId(7), DumState::Settled),
            state_msg(RobotId(3), DumState::ToBeSettled),
            state_msg(RobotId(9), DumState::ToBeSettled),
            Publication {
                sender: RobotId(3),
                subround: 1,
                body: Msg::Settle,
            },
        ];
        assert_eq!(m.act(&obs(3, &roster, &bulletin)), None);
        assert!(!m.settled());
        assert!(m.ar[0].contains(&RobotId(7)));
        assert!(m.ar[0].contains(&RobotId(3)));
    }

    #[test]
    fn silent_robot_gets_blacklisted_and_ignored() {
        let mut m = DumMachine::new(RobotId(9), ring(5).unwrap(), 0);
        let roster = [RobotId(3), RobotId(9)];
        // Robot 3 never announced at sub-round 0.
        let bulletin = [state_msg(RobotId(9), DumState::ToBeSettled)];
        assert_eq!(m.act(&obs(2, &roster, &bulletin)), Some(Msg::Settle));
        assert!(m.settled());
        assert!(m.blacklist().contains(&RobotId(3)));
    }

    #[test]
    fn settled_elsewhere_triggers_blacklist() {
        let mut m = DumMachine::new(RobotId(9), ring(5).unwrap(), 0);
        // Pretend robot 4 was recorded settled at map node 3 earlier.
        m.ar[3].insert(RobotId(4));
        let roster = [RobotId(4), RobotId(9)];
        let bulletin = [
            state_msg(RobotId(4), DumState::Settled),
            state_msg(RobotId(9), DumState::ToBeSettled),
        ];
        // Robot 4 claims Settled here but was seen settled at node 3:
        // blacklisted, so its claim does not block the node.
        assert_eq!(m.act(&obs(2, &roster, &bulletin)), Some(Msg::Settle));
        assert!(m.settled());
        assert!(m.blacklist().contains(&RobotId(4)));
    }

    #[test]
    fn smaller_byzantine_that_stays_silent_at_rank_cannot_block() {
        // Byzantine robot 3 announces ToBeSettled but never settles: the
        // honest larger robot settles anyway at its own rank.
        let mut m = DumMachine::new(RobotId(9), ring(5).unwrap(), 0);
        let roster = [RobotId(3), RobotId(9)];
        let bulletin = [
            state_msg(RobotId(3), DumState::ToBeSettled),
            state_msg(RobotId(9), DumState::ToBeSettled),
        ];
        assert_eq!(m.act(&obs(2, &roster, &bulletin)), Some(Msg::Settle));
        assert!(m.settled());
    }

    #[test]
    fn settled_robot_keeps_announcing_and_never_moves() {
        let mut m = DumMachine::new(RobotId(5), ring(5).unwrap(), 0);
        let roster = [RobotId(5)];
        let bulletin = [state_msg(RobotId(5), DumState::ToBeSettled)];
        let _ = m.act(&obs(0, &roster, &[]));
        let _ = m.act(&obs(1, &roster, &bulletin));
        assert!(m.settled());
        // Next round: still announces Settled, still stays.
        assert!(matches!(
            m.act(&obs(0, &roster, &[])),
            Some(Msg::State {
                state: DumState::Settled,
                ..
            })
        ));
        assert_eq!(m.act(&obs(1, &roster, &[])), None);
        assert_eq!(m.decide_move(), MoveChoice::Stay);
        assert!(m.settled());
    }
}
