//! Optional event traces, used by the Theorem 8 replay adversary and for
//! debugging protocol runs.

use crate::ids::RobotId;
use bd_graphs::{NodeId, Port};
use serde::{Deserialize, Serialize};

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Event {
    /// A robot moved along an edge.
    Moved {
        round: u64,
        robot: RobotId,
        from: NodeId,
        port: Port,
        to: NodeId,
    },
    /// A robot stayed put this round.
    Stayed {
        round: u64,
        robot: RobotId,
        at: NodeId,
    },
    /// A robot terminated (first round in which it reported terminated).
    Terminated {
        round: u64,
        robot: RobotId,
        at: NodeId,
    },
}

impl Event {
    /// The robot the event belongs to.
    pub fn robot(&self) -> RobotId {
        match *self {
            Event::Moved { robot, .. }
            | Event::Stayed { robot, .. }
            | Event::Terminated { robot, .. } => robot,
        }
    }

    /// The round the event happened in.
    pub fn round(&self) -> u64 {
        match *self {
            Event::Moved { round, .. }
            | Event::Stayed { round, .. }
            | Event::Terminated { round, .. } => round,
        }
    }
}

/// The first point at which two traces disagree, as reported by
/// [`Trace::first_divergence`]. Indices refer to the movement-normalized
/// event sequence (see the [`Trace`] equality note); `None` on a side means
/// that trace ended before the other.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceDivergence {
    /// Position in the movement-normalized event sequence.
    pub index: usize,
    /// Round of the earliest differing event.
    pub round: u64,
    /// `self`'s event at that position.
    pub left: Option<Event>,
    /// `other`'s event at that position.
    pub right: Option<Event>,
}

impl std::fmt::Display for TraceDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "traces diverge at event {} (round {}): {:?} vs {:?}",
            self.index, self.round, self.left, self.right
        )
    }
}

/// A full run trace.
///
/// Equality is **movement-normalized**: only [`Event::Moved`] and
/// [`Event::Terminated`] records participate, mirroring how
/// [`crate::RunMetrics`] equality excludes wall-clock time. `Stayed`
/// records are an artifact of *how* a round was executed, not of the
/// trajectory: a fast-forwarded engine emits no events for skipped all-idle
/// rounds, while an engine stepping every round logs a `Stayed` per active
/// robot — yet both runs visit the identical positions. Serialization keeps
/// every event (replay consumers want the full record).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    /// Events in chronological order (within a round: setup order).
    pub events: Vec<Event>,
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.significant().eq(other.significant())
    }
}

impl Eq for Trace {}

impl Trace {
    /// The movement-normalized event stream equality is defined over.
    fn significant(&self) -> impl Iterator<Item = &Event> + '_ {
        self.events
            .iter()
            .filter(|e| !matches!(e, Event::Stayed { .. }))
    }

    /// The first position at which `self` and `other` disagree under the
    /// movement-normalized equality, or `None` when the traces are equal.
    /// This is the differential harness's mismatch locator: the returned
    /// record carries the round and both sides' events.
    pub fn first_divergence(&self, other: &Trace) -> Option<TraceDivergence> {
        let mut left = self.significant();
        let mut right = other.significant();
        let mut index = 0usize;
        loop {
            match (left.next(), right.next()) {
                (None, None) => return None,
                (l, r) if l == r => index += 1,
                (l, r) => {
                    let round = match (l, r) {
                        (Some(a), Some(b)) => a.round().min(b.round()),
                        (Some(a), None) => a.round(),
                        (None, Some(b)) => b.round(),
                        (None, None) => unreachable!(),
                    };
                    return Some(TraceDivergence {
                        index,
                        round,
                        left: l.cloned(),
                        right: r.cloned(),
                    });
                }
            }
        }
    }
    /// The per-round move decisions of one robot: `Some(port)` when it
    /// moved, `None` when it stayed. Index 0 is the robot's first recorded
    /// round. Used by the replay adversary of Theorem 8.
    pub fn move_script(&self, id: RobotId) -> Vec<Option<Port>> {
        self.events
            .iter()
            .filter(|e| e.robot() == id)
            .filter_map(|e| match *e {
                Event::Moved { port, .. } => Some(Some(port)),
                Event::Stayed { .. } => Some(None),
                Event::Terminated { .. } => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn move_script_extraction() {
        let t = Trace {
            events: vec![
                Event::Moved {
                    round: 0,
                    robot: RobotId(1),
                    from: 0,
                    port: 2,
                    to: 1,
                },
                Event::Stayed {
                    round: 0,
                    robot: RobotId(2),
                    at: 5,
                },
                Event::Stayed {
                    round: 1,
                    robot: RobotId(1),
                    at: 1,
                },
                Event::Moved {
                    round: 1,
                    robot: RobotId(2),
                    from: 5,
                    port: 0,
                    to: 6,
                },
                Event::Terminated {
                    round: 2,
                    robot: RobotId(1),
                    at: 1,
                },
            ],
        };
        assert_eq!(t.move_script(RobotId(1)), vec![Some(2), None]);
        assert_eq!(t.move_script(RobotId(2)), vec![None, Some(0)]);
    }

    #[test]
    fn serde_roundtrip() {
        let t = Trace {
            events: vec![
                Event::Stayed {
                    round: 0,
                    robot: RobotId(3),
                    at: 2,
                },
                Event::Moved {
                    round: 1,
                    robot: RobotId(3),
                    from: 2,
                    port: 1,
                    to: 4,
                },
            ],
        };
        let s = serde_json::to_string(&t).unwrap();
        let t2: Trace = serde_json::from_str(&s).unwrap();
        assert_eq!(t, t2);
        assert_eq!(t2.events.len(), 2, "serialization keeps Stayed events");
    }

    fn moved(round: u64, robot: u64, from: usize, port: usize, to: usize) -> Event {
        Event::Moved {
            round,
            robot: RobotId(robot),
            from,
            port,
            to,
        }
    }

    #[test]
    fn equality_ignores_stayed_events() {
        // A stepped run logs Stayed fillers; a fast-forwarded run of the
        // same trajectory does not. The traces must still compare equal.
        let stepped = Trace {
            events: vec![
                moved(0, 1, 0, 0, 1),
                Event::Stayed {
                    round: 1,
                    robot: RobotId(1),
                    at: 1,
                },
                Event::Stayed {
                    round: 2,
                    robot: RobotId(1),
                    at: 1,
                },
                moved(3, 1, 1, 0, 2),
            ],
        };
        let skipped = Trace {
            events: vec![moved(0, 1, 0, 0, 1), moved(3, 1, 1, 0, 2)],
        };
        assert_eq!(stepped, skipped);
        assert_eq!(stepped.first_divergence(&skipped), None);
    }

    #[test]
    fn first_divergence_reports_round_and_both_sides() {
        let a = Trace {
            events: vec![moved(0, 1, 0, 0, 1), moved(5, 1, 1, 0, 2)],
        };
        let b = Trace {
            events: vec![moved(0, 1, 0, 0, 1), moved(5, 1, 1, 1, 3)],
        };
        let d = a.first_divergence(&b).expect("traces differ");
        assert_eq!(d.index, 1);
        assert_eq!(d.round, 5);
        assert_eq!(d.left, Some(moved(5, 1, 1, 0, 2)));
        assert_eq!(d.right, Some(moved(5, 1, 1, 1, 3)));
        assert_ne!(a, b);
        // A missing tail event is a divergence too, not a prefix match.
        let shorter = Trace {
            events: vec![moved(0, 1, 0, 0, 1)],
        };
        let d = a.first_divergence(&shorter).expect("length mismatch");
        assert_eq!(d.index, 1);
        assert_eq!(d.round, 5);
        assert_eq!(d.right, None);
    }
}
