//! Agent and token roles for map-finding runs.
//!
//! A run pairs an **agent** group moving in lockstep with a **token**
//! group; §3.1's pairings are the groups of one with every threshold 1.
//! The agent drives a [`TokenMapExplorer`]; `MoveWithToken`
//! commands become `TokenGo` instructions published on the node bulletin;
//! the token obeys instructions that reach its support threshold.
//!
//! Quorum rules (paper §3.2, §4): a group token moves only on instructions
//! supported by enough *distinct* agent-group IDs; the agent senses the
//! token as present only when enough distinct token-group IDs are
//! co-located. Counting distinct claimed IDs is what defeats strong
//! Byzantine forgery (§4: "even if Byzantine robots duplicate IDs, still as
//! a group they cannot make it equal to ⌊n/4⌋").

use crate::msg::Msg;
use bd_exploration::token_map::{AgentCmd, Percept, TokenMapExplorer};
use bd_graphs::{Port, PortGraph};
use bd_runtime::{MoveChoice, Observation, RobotId};
use std::collections::VecDeque;

/// Whom the agent treats as "the token": it "is present" iff at least
/// `presence_threshold` distinct members are co-located (§3.2, §4). A
/// pairing (§3.1) is the one-member group with threshold 1.
#[derive(Debug, Clone)]
pub struct TokenSpec {
    /// The token group, sorted and without repeats.
    pub members: Vec<RobotId>,
    pub presence_threshold: usize,
}

impl TokenSpec {
    fn present(&self, roster: &[RobotId]) -> bool {
        // Roster and members are both sorted, so one merge walk counts the
        // members present, and repeated claims of one ID, adjacent in the
        // roster, count once.
        let (mut distinct, mut members) = (0, self.members.iter().peekable());
        for &r in roster {
            while members.next_if(|&&m| m < r).is_some() {}
            if members.next_if_eq(&&r).is_some() {
                distinct += 1;
            }
        }
        distinct >= self.presence_threshold
    }
}

/// Whose `TokenGo` instructions the token obeys: those supported by at
/// least `threshold` distinct members of the agent group (a pairing's
/// token obeys its one partner).
#[derive(Debug, Clone)]
pub struct InstructionSpec {
    /// The agent group, sorted and without repeats.
    pub members: Vec<RobotId>,
    pub threshold: usize,
}

/// The agent side of a run.
#[derive(Debug)]
pub struct AgentDriver {
    explorer: Option<TokenMapExplorer>,
    token: TokenSpec,
    /// Entry ports of every move, for the abort-return path.
    entry_log: Vec<Port>,
    /// Token-move counter (the `step` stamped on instructions).
    step: u32,
    /// Port to move through at the end of this round (+ whether the token
    /// was instructed to come).
    planned: Option<Port>,
    returning: Option<VecDeque<Port>>,
    /// The completed map (None: failed/aborted run).
    result: Option<PortGraph>,
    done_exploring: bool,
    /// Whether the first observation has been consumed: an arrival visible
    /// at the run's very first call describes a move made *before* the run
    /// and must not enter the entry log or the explorer's percepts.
    first_call_done: bool,
}

impl AgentDriver {
    /// Start a run from a node of the given degree on an `n`-node graph.
    pub fn new(origin_degree: usize, n: usize, token: TokenSpec) -> Self {
        AgentDriver {
            explorer: Some(TokenMapExplorer::new(origin_degree, n)),
            token,
            entry_log: Vec::new(),
            step: 0,
            planned: None,
            returning: None,
            result: None,
            done_exploring: false,
            first_call_done: false,
        }
    }

    /// Sub-round 0 handler: feed percepts, emit the instruction if the
    /// token must move this round.
    pub fn act(&mut self, obs: &Observation<'_, Msg>) -> Option<Msg> {
        let arrival = if self.first_call_done {
            obs.arrival
        } else {
            None
        };
        self.first_call_done = true;
        if let Some(info) = arrival {
            self.entry_log.push(info.entry_port);
        }
        if self.returning.is_some() || self.done_exploring {
            return None;
        }
        let explorer = self
            .explorer
            .as_mut()
            .expect("explorer present while exploring");
        let percept = Percept {
            degree: obs.degree,
            token_here: self.token.present(obs.roster),
            entry_port: arrival.map(|a| a.entry_port),
        };
        match explorer.next(percept) {
            // A Byzantine (or crashed) token can make the explorer's mental
            // map diverge from physical reality; a planned port beyond the
            // *actual* degree proves the run is corrupted — abandon it and
            // walk home (the vote becomes None, absorbed by majority).
            AgentCmd::Move(p) | AgentCmd::MoveWithToken(p) if p >= obs.degree => {
                self.abort();
                None
            }
            AgentCmd::Move(p) => {
                self.planned = Some(p);
                None
            }
            AgentCmd::MoveWithToken(p) => {
                self.planned = Some(p);
                let msg = Msg::TokenGo {
                    port: p,
                    step: self.step,
                };
                self.step += 1;
                Some(msg)
            }
            AgentCmd::Done => {
                self.done_exploring = true;
                let explorer = self.explorer.take().expect("explorer present");
                let failed = explorer.error().is_some();
                if failed {
                    self.result = None;
                    self.returning = Some(reverse_of(&self.entry_log));
                } else {
                    let home = explorer.path_to_origin();
                    match explorer.into_map() {
                        Ok((map, _)) => {
                            self.result = Some(map);
                            self.returning = Some(home.into());
                        }
                        Err(_) => {
                            self.result = None;
                            self.returning = Some(reverse_of(&self.entry_log));
                        }
                    }
                }
                // Release the token so it heads home instead of waiting out
                // the worst-case budget.
                Some(Msg::RunDone)
            }
        }
    }

    /// End-of-round movement. `degree` is the actual degree of the node
    /// the agent stands on: a planned or return-path port beyond it means
    /// the mental map diverged from reality (Byzantine token), so the agent
    /// falls back to physically retracing its entire walk — entry-log
    /// ports are always real.
    pub fn decide_move(&mut self, degree: usize) -> MoveChoice {
        if let Some(p) = self.planned.take() {
            if p < degree {
                return MoveChoice::Move(p);
            }
            self.abort();
        }
        if let Some(path) = self.returning.as_mut() {
            if let Some(p) = path.pop_front() {
                if p < degree {
                    return MoveChoice::Move(p);
                }
                // Corrupted tree path: retrace the full physical walk.
                self.result = None;
                self.returning = Some(reverse_of(&self.entry_log));
                if let Some(p) = self.returning.as_mut().and_then(|r| r.pop_front()) {
                    return MoveChoice::Move(p);
                }
            }
        }
        MoveChoice::Stay
    }

    /// Deadline reached: abandon exploration and head home.
    pub fn abort(&mut self) {
        if !self.done_exploring {
            self.done_exploring = true;
            self.explorer = None;
            self.result = None;
            self.planned = None;
            self.returning = Some(reverse_of(&self.entry_log));
        }
    }

    /// True once exploration ended (successfully or not) and the way home
    /// has been fully walked.
    pub fn finished(&self) -> bool {
        self.done_exploring
            && self.planned.is_none()
            && self.returning.as_ref().map_or(true, |r| r.is_empty())
    }

    /// The constructed map, if the run succeeded.
    pub fn result(&self) -> Option<&PortGraph> {
        self.result.as_ref()
    }

    /// Take the result out (for vote storage).
    pub fn take_result(&mut self) -> Option<PortGraph> {
        self.result.take()
    }
}

/// The token side of a run.
#[derive(Debug)]
pub struct TokenFollower {
    instructions: InstructionSpec,
    step: u32,
    entry_log: Vec<Port>,
    planned: Option<Port>,
    returning: Option<VecDeque<Port>>,
    /// Rounds since the last accepted instruction; beyond
    /// `instruction_timeout` the token gives up and heads home (an honest
    /// agent's instruction gaps are bounded by one territory tour).
    idle_gap: u64,
    instruction_timeout: u64,
    /// See `AgentDriver::first_call_done`.
    first_call_done: bool,
    /// The instruction round's support, `(port, member)` with `None` for
    /// a release: reused across rounds, so tallying allocates nothing once
    /// it has grown.
    tally: Vec<(Option<Port>, RobotId)>,
}

impl TokenFollower {
    /// Start following instructions. `instruction_timeout` bounds how many
    /// consecutive instruction-free rounds the token waits before walking
    /// home; pass `8n + 16` (an honest agent's longest gap is one Euler
    /// tour plus slack, well under that).
    pub fn new(instructions: InstructionSpec) -> Self {
        Self::with_timeout(instructions, u64::MAX)
    }

    /// See [`TokenFollower::new`].
    pub fn with_timeout(instructions: InstructionSpec, instruction_timeout: u64) -> Self {
        TokenFollower {
            instructions,
            step: 0,
            entry_log: Vec::new(),
            planned: None,
            returning: None,
            idle_gap: 0,
            instruction_timeout,
            first_call_done: false,
            tally: Vec::new(),
        }
    }

    /// Sub-round 1 handler (instructions were published at sub-round 0).
    pub fn act(&mut self, obs: &Observation<'_, Msg>) -> Option<Msg> {
        if obs.subround == 0 {
            if self.first_call_done {
                if let Some(info) = obs.arrival {
                    self.entry_log.push(info.entry_port);
                }
            }
            self.first_call_done = true;
            return None;
        }
        if obs.subround != 1 || self.returning.is_some() {
            return None;
        }
        // Tally the distinct agent-group members behind each proposed port
        // of the current step and behind a release; releases sort first,
        // then ports lowest first.
        let InstructionSpec { members, threshold } = &self.instructions;
        self.tally.clear();
        let member = |sender| members.binary_search(sender).is_ok();
        for p in obs.bulletin.iter().filter(|p| member(&p.sender)) {
            match p.body {
                Msg::TokenGo { port, step } if step == self.step && port < obs.degree => {
                    self.tally.push((Some(port), p.sender));
                }
                Msg::RunDone => self.tally.push((None, p.sender)),
                _ => {}
            }
        }
        self.tally.sort_unstable();
        self.tally.dedup();
        // Sorted, so a quorum behind one key fills a window of the tally.
        let quorum = (*threshold).max(1);
        let first = self
            .tally
            .windows(quorum)
            .find(|w| w[0].0 == w[quorum - 1].0)
            .map(|w| w[0].0);
        if first == Some(None) {
            self.go_home();
            return None;
        }
        if let Some(port) = first.flatten() {
            self.planned = Some(port);
            self.step += 1;
            self.idle_gap = 0;
        } else {
            self.idle_gap += 1;
            if self.idle_gap > self.instruction_timeout {
                self.go_home();
            }
        }
        None
    }

    /// End-of-round movement.
    pub fn decide_move(&mut self) -> MoveChoice {
        if let Some(p) = self.planned.take() {
            return MoveChoice::Move(p);
        }
        if let Some(path) = self.returning.as_mut() {
            if let Some(p) = path.pop_front() {
                return MoveChoice::Move(p);
            }
        }
        MoveChoice::Stay
    }

    /// Deadline reached (or run over): walk home by reversing every move.
    pub fn go_home(&mut self) {
        if self.returning.is_none() {
            self.planned = None;
            self.returning = Some(reverse_of(&self.entry_log));
        }
    }

    /// True once heading home and arrived.
    pub fn finished(&self) -> bool {
        self.returning.as_ref().is_some_and(|r| r.is_empty()) && self.planned.is_none()
    }
}

/// The reverse walk: entry ports, newest first.
fn reverse_of(entry_log: &[Port]) -> VecDeque<Port> {
    entry_log.iter().rev().copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(members: &[u64]) -> Vec<RobotId> {
        members.iter().map(|&i| RobotId(i)).collect()
    }

    #[test]
    fn token_spec_presence() {
        // A pairing's token: one partner, threshold 1.
        let partner = TokenSpec {
            members: group(&[4]),
            presence_threshold: 1,
        };
        assert!(partner.present(&[RobotId(1), RobotId(4)]));
        assert!(!partner.present(&[RobotId(1)]));

        let group = TokenSpec {
            members: group(&[1, 2, 3]),
            presence_threshold: 2,
        };
        assert!(group.present(&[RobotId(1), RobotId(3), RobotId(9)]));
        assert!(!group.present(&[RobotId(1), RobotId(9)]));
        // Duplicate claimed IDs count once.
        assert!(!group.present(&[RobotId(1), RobotId(1), RobotId(9)]));
    }

    #[test]
    fn follower_obeys_partner_only() {
        let mut t = TokenFollower::new(InstructionSpec {
            members: group(&[7]),
            threshold: 1,
        });
        let roster = [RobotId(7), RobotId(8)];
        let bulletin = [
            bd_runtime::observation::Publication {
                sender: RobotId(8),
                subround: 0,
                body: Msg::TokenGo { port: 1, step: 0 },
            },
            bd_runtime::observation::Publication {
                sender: RobotId(7),
                subround: 0,
                body: Msg::TokenGo { port: 0, step: 0 },
            },
        ];
        let obs = Observation {
            round: 0,
            subround: 1,
            subrounds: 2,
            degree: 2,
            roster: &roster,
            bulletin: &bulletin,
            arrival: None,
        };
        let _ = t.act(&obs);
        assert_eq!(t.decide_move(), MoveChoice::Move(0));
    }

    #[test]
    fn follower_ignores_stale_steps_and_bad_ports() {
        let mut t = TokenFollower::new(InstructionSpec {
            members: group(&[7]),
            threshold: 1,
        });
        let roster = [RobotId(7)];
        let bulletin = [
            bd_runtime::observation::Publication {
                sender: RobotId(7),
                subround: 0,
                body: Msg::TokenGo { port: 0, step: 5 }, // wrong step
            },
            bd_runtime::observation::Publication {
                sender: RobotId(7),
                subround: 0,
                body: Msg::TokenGo { port: 9, step: 0 }, // port out of range
            },
        ];
        let obs = Observation {
            round: 0,
            subround: 1,
            subrounds: 2,
            degree: 2,
            roster: &roster,
            bulletin: &bulletin,
            arrival: None,
        };
        let _ = t.act(&obs);
        assert_eq!(t.decide_move(), MoveChoice::Stay);
    }

    #[test]
    fn group_quorum_counts_distinct_members() {
        let mut t = TokenFollower::new(InstructionSpec {
            members: group(&[1, 2, 3]),
            threshold: 2,
        });
        let mk = |sender: u64, port: usize| bd_runtime::observation::Publication {
            sender: RobotId(sender),
            subround: 0,
            body: Msg::TokenGo { port, step: 0 },
        };
        // Only one member supports port 1; two support port 0.
        let bulletin = [mk(3, 1), mk(1, 0), mk(2, 0), mk(9, 1), mk(9, 1)];
        let roster = [RobotId(1), RobotId(2), RobotId(3), RobotId(9)];
        let obs = Observation {
            round: 0,
            subround: 1,
            subrounds: 2,
            degree: 2,
            roster: &roster,
            bulletin: &bulletin,
            arrival: None,
        };
        let _ = t.act(&obs);
        assert_eq!(t.decide_move(), MoveChoice::Move(0));
    }

    #[test]
    fn follower_takes_a_release_first_then_the_lowest_port() {
        let follower = || {
            TokenFollower::new(InstructionSpec {
                members: group(&[1, 2, 3]),
                threshold: 2,
            })
        };
        let mk = |sender: u64, body| bd_runtime::observation::Publication {
            sender: RobotId(sender),
            subround: 0,
            body,
        };
        let go = |port| Msg::TokenGo { port, step: 0 };
        let roster = [RobotId(1), RobotId(2), RobotId(3)];
        let act = |t: &mut TokenFollower, bulletin: &[_]| {
            t.act(&Observation {
                round: 0,
                subround: 1,
                subrounds: 2,
                degree: 3,
                roster: &roster,
                bulletin,
                arrival: None,
            })
        };
        // Ports 2 and 1 both reach quorum; port 1, the lowest, wins. A
        // repeated sender counts once, so port 0 does not.
        let mut t = follower();
        let bulletin = [
            mk(1, go(2)),
            mk(2, go(2)),
            mk(3, go(1)),
            mk(2, go(1)),
            mk(1, go(0)),
            mk(1, go(0)),
        ];
        act(&mut t, &bulletin);
        assert_eq!(t.decide_move(), MoveChoice::Move(1));
        // A release with quorum beats any instruction.
        let mut t = follower();
        let bulletin = [
            mk(1, go(0)),
            mk(2, go(0)),
            mk(3, Msg::RunDone),
            mk(1, Msg::RunDone),
        ];
        act(&mut t, &bulletin);
        assert_eq!(t.decide_move(), MoveChoice::Stay);
        assert!(t.finished(), "released before any move: home already");
    }

    #[test]
    fn abort_walks_home() {
        let token = TokenSpec {
            members: group(&[2]),
            presence_threshold: 1,
        };
        let mut a = AgentDriver::new(2, 5, token);
        // Simulate two recorded arrivals (entered via ports 1 then 0).
        a.entry_log = vec![1, 0];
        a.abort();
        assert_eq!(a.decide_move(2), MoveChoice::Move(0));
        assert_eq!(a.decide_move(2), MoveChoice::Move(1));
        assert_eq!(a.decide_move(2), MoveChoice::Stay);
        assert!(a.finished());
        assert!(a.result().is_none());
    }
}
