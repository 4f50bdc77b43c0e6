//! The controller interface implemented by every robot — honest or
//! Byzantine.

use crate::ids::RobotId;
use crate::observation::Observation;
use bd_graphs::Port;

/// A robot's movement decision at the end of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveChoice {
    /// Remain at the current node.
    Stay,
    /// Leave through the given local port.
    Move(Port),
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

    /// Whether this robot has terminated (stays put and goes silent
    /// forever). The engine stops once every *honest* robot terminates.
    fn terminated(&self) -> bool {
        false
    }

    /// The idle-fast-forward contract. Returning `Some(r)` promises: *if
    /// the engine stops calling this controller until absolute round `r`,
    /// nothing observable changes* — the robot would neither move nor read,
    /// and anything it might have published would go unread (the engine
    /// only skips rounds in which **every** active robot is idle, so no
    /// bulletin of a skipped round has a reader). When all active robots
    /// report idleness the engine jumps the round counter to the earliest
    /// horizon and records the jump in `RunMetrics::rounds_skipped`.
    ///
    /// Honest controllers derive horizons from their phase timelines
    /// (e.g. "construction finished; next action at the vote round").
    /// Byzantine controllers may report any horizon consistent with their
    /// *strategy* (an adversary that only acts on a burst grid is idle
    /// until the next burst). Declaring idleness while actually wanting to
    /// act is a controller bug; the determinism suite catches it by running
    /// scenarios with fast-forward disabled and comparing trajectories.
    fn idle_until(&self) -> Option<u64> {
        None
    }

    /// The scripted-horizon contract, the moving counterpart of
    /// [`Controller::idle_until`]. Returning a non-empty slice promises
    /// that in rounds `round, round + 1, …` (epoch-local, `round` being the
    /// round the engine is about to step) this robot leaves through
    /// `script[0], script[1], …` whatever it would observe, and does
    /// nothing else: it reads nothing (roster, bulletin, arrival), publishes
    /// nothing, requests one sub-round per round, and does not terminate
    /// before the script's last round. The engine asks only controllers
    /// that report no idle horizon.
    ///
    /// When every active robot is idle past the current round or scripted,
    /// the engine applies the whole segment at once — up to the shortest
    /// script, the earliest idle horizon, the epoch's stop round, the round
    /// cap, and (when recording telemetry) the next phase mark — instead of
    /// stepping it, then reports the rounds it applied through
    /// [`Controller::advance_script`]. Idle robots are not called during a
    /// segment, so an idle robot overlapping one must also be silent and
    /// request one sub-round per round: the engine counts no messages for
    /// it and one sub-round per round (debug builds assert the latter).
    /// Unlike skipped rounds, a segment's rounds count as executed, so
    /// `RunMetrics` equal a stepped run's. The default, an empty slice, opts
    /// out.
    fn scripted(&self, round: u64) -> &[Port] {
        let _ = round;
        &[]
    }

    /// The engine applied the first `rounds` ports of
    /// [`Controller::scripted`]`(round)` in bulk, covering rounds
    /// `round .. round + rounds`. The controller must now be in the state
    /// stepping those rounds would have left it in (script cursor, last
    /// round seen). Called only after a non-empty script was returned.
    fn advance_script(&mut self, round: u64, rounds: u64) {
        let _ = (round, rounds);
    }
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
        assert!(!e.terminated());
        assert!(e.scripted(0).is_empty(), "controllers opt into scripts");
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
