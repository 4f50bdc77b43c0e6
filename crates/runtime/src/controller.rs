//! The controller interface implemented by every robot — honest or
//! Byzantine.

use crate::ids::RobotId;
use crate::observation::{ArrivalInfo, Observation};
use bd_graphs::{NodeId, Port, PortGraph};
use std::ops::Range;
use std::sync::Arc;

/// A robot's movement decision at the end of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveChoice {
    /// Remain at the current node.
    Stay,
    /// Leave through the given local port.
    Move(Port),
}

/// A robot's prelude (see [`Controller::prelude`]): the ports it leaves
/// through in epoch-local rounds `0..len`. Round `r` takes `head[r]` while
/// `r` is inside the robot's own head, then `tail[r]`: the shared tail is
/// indexed by the round itself, so robots whose walks merged hold one tail
/// `Arc` whatever the lengths of the heads that led into it, and the
/// engine walks those standing on one node once, as a cohort.
#[derive(Debug, Clone)]
pub struct Prelude {
    head: Box<[Port]>,
    tail: Arc<[Port]>,
    len: usize,
}

impl Prelude {
    /// `head`'s ports, then `tail`'s from index `head.len()` to its end.
    pub fn new(head: impl Into<Box<[Port]>>, tail: Arc<[Port]>) -> Self {
        let head = head.into();
        let len = head.len().max(tail.len());
        Prelude { head, tail, len }
    }

    /// Rounds the prelude lasts.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the prelude is empty (the robot opted out).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Rounds the robot spends in its own head.
    pub fn head_len(&self) -> usize {
        self.head.len().min(self.len)
    }

    /// The shared tail, indexed by the epoch-local round.
    pub fn tail(&self) -> &Arc<[Port]> {
        &self.tail
    }

    /// The port of epoch-local `round`, or `None` past the prelude.
    pub fn port(&self, round: u64) -> Option<Port> {
        let r = usize::try_from(round).ok().filter(|&r| r < self.len)?;
        Some(if r < self.head.len() {
            self.head[r]
        } else {
            self.tail[r]
        })
    }

    /// The ports of rounds `from..from + rounds`, which must lie wholly in
    /// the head or wholly in the tail.
    pub(crate) fn stretch(&self, from: usize, rounds: usize) -> &[Port] {
        assert!(from + rounds <= self.len, "stretch past the prelude");
        if from < self.head.len() {
            &self.head[from..from + rounds]
        } else {
            &self.tail[from..from + rounds]
        }
    }

    /// The first `len` rounds only (a walk cut short, such as by a
    /// crash); the tail stays shared.
    pub fn clipped(mut self, len: usize) -> Self {
        self.len = self.len.min(len);
        self
    }

    /// Every port in round order.
    pub fn to_vec(&self) -> Vec<Port> {
        (0..self.len as u64).filter_map(|r| self.port(r)).collect()
    }
}

impl Default for Prelude {
    /// The empty prelude.
    fn default() -> Self {
        Prelude::from(Arc::<[Port]>::from([]))
    }
}

impl From<Arc<[Port]>> for Prelude {
    /// A walk with no head: robots handed one `Arc` share the whole walk.
    fn from(tail: Arc<[Port]>) -> Self {
        Prelude::new([], tail)
    }
}

impl From<Vec<Port>> for Prelude {
    fn from(ports: Vec<Port>) -> Self {
        Prelude::from(Arc::<[Port]>::from(ports))
    }
}

/// A robot's behavior. The engine drives one controller per robot.
///
/// The same trait serves honest and Byzantine robots: Byzantine behavior is
/// just a controller that deviates. What a Byzantine robot *cannot* do —
/// fake its ID when weak — is enforced by the engine, not trusted to the
/// controller.
pub trait Controller<M> {
    /// The robot's true ID (assigned at setup, immutable).
    fn id(&self) -> RobotId;

    /// The ID this robot claims this round. The engine ignores the result
    /// unless the robot is registered [`crate::Flavor::StrongByzantine`].
    fn claimed_id(&self) -> RobotId {
        self.id()
    }

    /// How many communication sub-rounds this robot wants in `round` (the
    /// round the engine is about to step). The engine runs the maximum
    /// requested over all robots (the paper fixes `n` sub-rounds where
    /// needed; phases that only walk request 1 so simulation stays cheap).
    ///
    /// The round is a parameter — not inferred from the last `act` call —
    /// because fast-forwarding skips `act` calls: a controller that derived
    /// its phase from remembered state would request the *old* phase's
    /// sub-round count in the first round after a jump across a phase
    /// boundary (a bug class the oracle-differential harness caught for
    /// real; see `bd-oracle`).
    fn subrounds_wanted(&self, _round: u64) -> usize {
        1
    }

    /// Called once per sub-round. May publish one message onto the node's
    /// bulletin, visible to co-located robots in later sub-rounds.
    fn act(&mut self, obs: &Observation<'_, M>) -> Option<M>;

    /// Called after the final sub-round: choose where to move.
    fn decide_move(&mut self, obs: &Observation<'_, M>) -> MoveChoice;

    /// What the robot does from epoch-local `round` on, the round the
    /// engine is about to run (see [`Intent`]). The default,
    /// [`Intent::Act`], makes no promise.
    fn intent(&self, _round: u64) -> Intent {
        Intent::Act
    }

    /// The robot's *prelude*: the ports it leaves through in epoch-local
    /// rounds `0, 1, …, len − 1`, whatever it would observe — the paper's
    /// communication-free walks (Theorem 1's `Find-Map`, the gathering
    /// walk of Theorems 2, 5 and 7). The engine reads it once, when it
    /// seats the robot, and moves the robot itself through those rounds,
    /// stepped or not: before round `len` it calls none of the
    /// controller's round methods (`act`, `decide_move`,
    /// `subrounds_wanted`, `intent`). So inside its prelude the robot reads
    /// nothing, publishes nothing, requests no sub-rounds and cannot
    /// terminate, and its state when first called is the state it was
    /// built in. Only a strong Byzantine robot's
    /// [`Controller::claimed_id`] is still read, to stamp rosters. The
    /// default, an empty prelude, opts out.
    ///
    /// A [`Prelude`] is the robot's own head, then a tail indexed by the
    /// round. Walks that merge (the shared-seed walks from different
    /// starts, once two walkers meet) share one tail `Arc`, and an
    /// `Arc<[Port]>` converts into a prelude with no head, so robots handed
    /// one walk share it too. How the engine applies preludes in bulk is
    /// part of the [`Intent`] contract.
    fn prelude(&self) -> Prelude {
        Prelude::default()
    }

    /// Run epoch-local `rounds` of a segment in which the robot is solo
    /// ([`Intent::Solo`]), moving through `walk`, and return how many
    /// messages it published. Every round of the range lies before the
    /// horizon the robot answered, and each has `subrounds` sub-rounds.
    /// The engine calls this once per solo robot per segment, or once per
    /// round when it must keep stepping's order (a trace is recorded, or
    /// an honest robot is solo).
    ///
    /// The default runs each round as stepping would hand it to the
    /// robot: [`Controller::act`] once per sub-round, then
    /// [`Controller::decide_move`], on an observation with an empty roster
    /// and bulletin, the walk's degree and, at sub-round 0 only, the
    /// walk's arrival; the move goes to [`SoloWalk::take`]. An override
    /// must leave the robot, the walk and the count exactly as the default
    /// would.
    fn solo(&mut self, rounds: Range<u64>, subrounds: usize, walk: &mut SoloWalk<'_>) -> u64 {
        let mut messages = 0;
        for round in rounds {
            let mut obs = Observation {
                round,
                subround: 0,
                subrounds,
                degree: walk.degree(),
                roster: &[],
                bulletin: &[],
                arrival: walk.arrival(),
            };
            for sub in 0..subrounds {
                obs.subround = sub;
                messages += u64::from(self.act(&obs).is_some());
                obs.arrival = None;
            }
            walk.take(self.decide_move(&obs));
        }
        messages
    }
}

/// A solo robot's walk through a segment ([`Controller::solo`]): all it
/// senses of the world (its node's degree and the arrival of its last
/// move) and the one way it moves ([`SoloWalk::take`]). The engine starts
/// one on the robot's node and lands the robot where it ends; it applies
/// every other move, stepped or walked from a prelude, through a walk
/// too, so one rule decides what a port does.
#[derive(Debug)]
pub struct SoloWalk<'g> {
    graph: &'g PortGraph,
    end: WalkEnd,
}

/// Where a [`SoloWalk`] ended.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WalkEnd {
    /// The node the robot stands on.
    pub(crate) node: NodeId,
    /// The edges crossed.
    pub(crate) moves: u64,
    /// The arrival of the last round's move, `None` after a stay.
    pub(crate) arrival: Option<ArrivalInfo>,
    /// The node and port of the first move through an invalid port, which
    /// was taken as a stay; an error for an honest robot.
    pub(crate) invalid: Option<(NodeId, Port)>,
}

impl<'g> SoloWalk<'g> {
    /// A walk from `node` on `graph`, whose first round sees `arrival`.
    pub(crate) fn new(graph: &'g PortGraph, node: NodeId, arrival: Option<ArrivalInfo>) -> Self {
        let end = WalkEnd {
            node,
            moves: 0,
            arrival,
            invalid: None,
        };
        SoloWalk { graph, end }
    }

    /// The degree of the node the robot stands on.
    pub fn degree(&self) -> usize {
        self.graph.degree(self.end.node)
    }

    /// The arrival of the robot's last move, `None` after a stay.
    pub fn arrival(&self) -> Option<ArrivalInfo> {
        self.end.arrival
    }

    /// Take one round's move. A stay, or a move through a port the node
    /// does not have (a Byzantine robot cannot teleport), leaves the robot
    /// in place and clears its arrival; any other move crosses the edge.
    pub fn take(&mut self, choice: MoveChoice) {
        let end = &mut self.end;
        match choice {
            MoveChoice::Move(port) if port < self.graph.degree(end.node) => {
                let (to, entry_port) = self.graph.neighbor(end.node, port);
                end.arrival = Some(ArrivalInfo {
                    exit_port: port,
                    entry_port,
                });
                end.node = to;
                end.moves += 1;
            }
            MoveChoice::Move(port) => {
                end.invalid.get_or_insert((end.node, port));
                end.arrival = None;
            }
            MoveChoice::Stay => end.arrival = None,
        }
    }

    /// Where the walk ended.
    pub(crate) fn end(self) -> WalkEnd {
        self.end
    }
}

/// A robot's answer to the one question the engine asks it each time it
/// decides how to run the next stretch of rounds: what will you do from
/// epoch-local round `round` on ([`Controller::intent`])? In the paper's
/// synchronous model a robot in any round has terminated, waits out a
/// window, walks without communicating, or communicates and moves; the
/// first two and a walk that still decides are answers here, and a walk
/// fixed in advance is data ([`Controller::prelude`]).
///
/// # When the engine asks
///
/// At most once per drive-loop iteration (when an epoch starts, after
/// every round or segment the engine runs, and after every idle skip),
/// and only a robot past its prelude whose last answer no longer holds.
/// `round` is the round the engine is about to run, and the answer is
/// for that round. The engine owns the clock: a controller answers from
/// `round` and its protocol state and keeps no clock of its own, because
/// skips, segments and idle rounds call nothing, so the round a
/// controller was last called in says nothing about the round it is
/// asked about. Horizons are epoch-local, like every round a controller
/// sees; a horizon at or before `round` promises nothing.
///
/// An answer is a promise the engine holds the robot to without asking
/// again: [`Intent::Done`] holds for good, and [`Intent::Idle`],
/// [`Intent::Beacon`] and [`Intent::Solo`] hold until their horizon, even
/// though the engine calls a beacon in stepped rounds and a solo robot
/// through [`Controller::solo`] meanwhile. So the engine asks again only
/// a robot that answered [`Intent::Act`] (every iteration), one whose
/// horizon has arrived, and one whose prelude has just ended (a robot
/// inside its prelude is never asked; it counts as acting). Asked again
/// before the horizon (as every robot is when an epoch starts), a
/// controller must answer at least what it promised: the same variant
/// with a horizon no earlier, or `Done` again. Debug builds re-ask every
/// held promise after every iteration and assert exactly that.
///
/// # What the engine does with the answers
///
/// [`Intent::Done`] ends a robot: the run (or epoch) ends once every
/// honest robot is done, and a done robot's round methods are never
/// called again. The engine uses the other promises as follows:
///
/// * **Skip.** When no robot is inside its prelude and every robot is
///   done, idle or a beacon, the engine jumps the clock to the earliest
///   idle or beacon horizon, calling no one; `RunMetrics::rounds_skipped`
///   counts the jump. No robot acts in a skipped round, so no bulletin of
///   one has a reader, and a beacon's publications in it go uncounted.
/// * **Segment.** When every robot is done, idle, inside its prelude or
///   solo, and at least one is not idle, the engine applies the stretch in
///   bulk. It ends at the shortest remaining prelude or prelude head, the
///   earliest solo horizon, the earliest idle horizon, the epoch's stop
///   round, the round cap and (when recording telemetry) the next phase
///   mark. No roster or bulletin is built and idle robots are not called.
///   A beacon never joins a segment: beside one the engine steps instead,
///   so every publication outside a skip is counted. Prelude robots take
///   their ports; solo robots run through [`Controller::solo`]. The
///   segment runs the sub-round count that the robots past their prelude
///   and not done request at its first round, so every such request must
///   stay constant inside it (debug builds assert the maximum does).
///   Segment rounds count as executed, so `RunMetrics` equal a stepped
///   run's; `EngineCounters::rounds_scripted` counts segments without a
///   solo robot and `rounds_solo` those with one.
/// * **Cohorts and bursts.** In a segment with no honest solo robot and
///   no trace recorded, the robots past their prelude head that hold one
///   tail `Arc` and stand on one node form a *cohort*: the engine walks
///   the tail once and gives every member the end node, the moves and the
///   last arrival. A robot in its head walks alone. Then each solo robot
///   runs the whole segment in one [`Controller::solo`] call. With a
///   trace, beside an honest solo robot, or when an honest robot's port
///   is invalid, the segment runs round-major in robot order instead:
///   every prelude robot walks alone and each solo robot gets one
///   [`Controller::solo`] call per round, so events and errors come out
///   exactly as stepping's.
/// * **Silence.** Every other round is stepped: every robot past its
///   prelude and not done gets its roster and bulletin unless it is idle,
///   which is not called at all; the round visits only the robots it
///   calls and the prelude walkers. The round's sub-round count is still the
///   most that any robot past its prelude and not done requests, idle or
///   not, so `subrounds_executed` does not depend on who is called.
///
/// Declaring a promise while actually wanting to act is a controller bug;
/// the oracle engine (which steps every round, calls every robot past its
/// prelude and not done, and asks only whether a robot is done) catches it
/// by comparing trajectories, and debug builds of this engine catch a
/// later answer that breaks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intent {
    /// Terminated: the robot stays put and goes silent forever.
    Done,
    /// Idle until the given round: silent. Until then the robot neither
    /// moves, reads nor publishes, so the engine calls none of its
    /// [`Controller::act`] and [`Controller::decide_move`] before that
    /// round, stepped rounds included; only its
    /// [`Controller::subrounds_wanted`] still counts. Honest controllers
    /// derive the horizon from their phase timelines; Byzantine ones from
    /// their strategy (an adversary that only acts on a burst grid is idle
    /// until its next burst).
    Idle(u64),
    /// A beacon until the given round: the robot stays put and may
    /// publish, and a round it is not called in leaves its later behavior
    /// unchanged. So the engine may skip it together with every other
    /// robot, when no bulletin has a reader; but since its publications
    /// may have readers in any other round, it is called in every stepped
    /// round and never joins a segment: the engine steps instead. This
    /// reproduction's stationary spammers are beacons once active.
    Beacon(u64),
    /// Solo until the given round: until then the robot reads only its own
    /// senses (the observation's `round`, `subround`, `subrounds`, `degree`
    /// and `arrival`, never the roster or the bulletin), nothing it
    /// publishes needs a reader, its sub-round request stays constant, and
    /// it does not terminate. Inside a segment the engine hands it a
    /// [`SoloWalk`] and calls [`Controller::solo`] over a range of rounds
    /// that all lie before that horizon; the robot's publications count
    /// as messages. This reproduction's roaming adversaries are solo in
    /// mid-burst.
    Solo(u64),
    /// No promise: the robot communicates and moves this round.
    Act,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::Publication;

    struct Echo {
        id: RobotId,
    }

    impl Controller<u32> for Echo {
        fn id(&self) -> RobotId {
            self.id
        }
        fn act(&mut self, obs: &Observation<'_, u32>) -> Option<u32> {
            Some(obs.bulletin.len() as u32)
        }
        fn decide_move(&mut self, _obs: &Observation<'_, u32>) -> MoveChoice {
            MoveChoice::Stay
        }
    }

    #[test]
    fn default_trait_methods() {
        let e = Echo { id: RobotId(9) };
        assert_eq!(e.claimed_id(), RobotId(9));
        assert_eq!(e.subrounds_wanted(0), 1);
        assert_eq!(e.intent(0), Intent::Act, "controllers opt into promises");
        assert!(e.prelude().is_empty(), "controllers opt into preludes");
    }

    #[test]
    fn act_sees_bulletin() {
        let mut e = Echo { id: RobotId(1) };
        let bulletin = vec![Publication {
            sender: RobotId(2),
            subround: 0,
            body: 7u32,
        }];
        let roster = vec![RobotId(1), RobotId(2)];
        let obs = Observation {
            round: 3,
            subround: 1,
            subrounds: 2,
            degree: 2,
            roster: &roster,
            bulletin: &bulletin,
            arrival: None,
        };
        assert_eq!(e.act(&obs), Some(1));
    }
}
