//! What a robot can see: local degree, co-located roster, the node bulletin,
//! and arrival port information. Nothing else — nodes are anonymous.

use crate::ids::RobotId;
use bd_graphs::Port;
use serde::{Deserialize, Serialize};

/// Port information learned by crossing an edge (paper §1.1: "it is aware of
/// both port numbers assigned to the edge through which it passed").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArrivalInfo {
    /// The port the robot left the previous node through.
    pub exit_port: Port,
    /// The port assigned to the same edge at the node just entered.
    pub entry_port: Port,
}

/// A message published onto the node bulletin during some sub-round, visible
/// to co-located robots in later sub-rounds of the same round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Publication<M> {
    /// The claimed sender ID. For honest and weak-Byzantine robots the
    /// engine stamps the true ID; strong Byzantine robots pick it freely.
    pub sender: RobotId,
    /// Sub-round in which the message was published.
    pub subround: usize,
    /// The message body.
    pub body: M,
}

/// Everything a robot observes when asked to act.
#[derive(Debug)]
pub struct Observation<'a, M> {
    /// Current round (0-based, **epoch-local**: a cast seated mid-run by
    /// a dynamic epoch counts from 0 like a fresh run; identical to the
    /// engine's absolute clock outside dynamic worlds).
    pub round: u64,
    /// Current sub-round within the round (0-based). Equal to
    /// `subrounds - 1` during the move decision.
    pub subround: usize,
    /// Number of sub-rounds in the current round.
    pub subrounds: usize,
    /// Degree of the node the robot currently occupies.
    pub degree: usize,
    /// Claimed IDs of all co-located robots (including this one), sorted
    /// ascending. Physical presence cannot be hidden; only the *claimed*
    /// identity of a strong Byzantine robot can lie.
    pub roster: &'a [RobotId],
    /// Messages published at this node in earlier sub-rounds of this round.
    pub bulletin: &'a [Publication<M>],
    /// Set on the first observation after a move.
    pub arrival: Option<ArrivalInfo>,
}

impl<'a, M> Observation<'a, M> {
    /// Publications made by a specific claimed sender this round.
    pub fn from_sender(&self, id: RobotId) -> impl Iterator<Item = &Publication<M>> + '_ {
        self.bulletin.iter().filter(move |p| p.sender == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_sender_filters() {
        let bulletin = vec![
            Publication {
                sender: RobotId(1),
                subround: 0,
                body: "a",
            },
            Publication {
                sender: RobotId(2),
                subround: 0,
                body: "b",
            },
            Publication {
                sender: RobotId(1),
                subround: 1,
                body: "c",
            },
        ];
        let roster = vec![RobotId(1), RobotId(2)];
        let obs = Observation {
            round: 0,
            subround: 2,
            subrounds: 4,
            degree: 3,
            roster: &roster,
            bulletin: &bulletin,
            arrival: None,
        };
        let bodies: Vec<_> = obs.from_sender(RobotId(1)).map(|p| p.body).collect();
        assert_eq!(bodies, vec!["a", "c"]);
    }
}
