//! Byzantine strategies.
//!
//! A Byzantine robot is just a controller that deviates; the engine's
//! identity stamping (weak vs strong) is the only physics-level difference.
//! Each strategy here targets a specific protocol joint:
//!
//! * [`AdversaryKind::Squatter`] — claims `Settled` forever at one node,
//!   trying to waste it (the paper's "Byzantine robots can occupy a node",
//!   §2.1);
//! * [`AdversaryKind::FakeSettler`] — claims `Settled` but keeps moving, the
//!   behavior blacklisting step 4 exists for;
//! * [`AdversaryKind::Silent`] — never announces (step 4's "does not
//!   transmit a message when it is supposed to");
//! * [`AdversaryKind::Wanderer`] — roams claiming `ToBeSettled`, never
//!   settles (tries to stall settle decisions);
//! * [`AdversaryKind::LiarFlags`] — permanently raised intent flag (§2.2
//!   step 2b's flag-wait);
//! * [`AdversaryKind::TokenHijacker`] — spams forged `TokenGo`/`RunDone`
//!   instructions at map-finding tokens;
//! * [`AdversaryKind::MapLiar`] — votes garbage maps at vote rounds and
//!   refuses token duty (the "bad pair" of §3.1);
//! * [`AdversaryKind::StrongSpoofer`] — rotates through *honest* claimed
//!   IDs while spamming every message class (meaningful under
//!   `Flavor::StrongByzantine`, §4);
//! * [`AdversaryKind::Crowd`] — sits at the gathering claiming
//!   `ToBeSettled` forever (inflates `S_tbs` everywhere).
//!
//! Adversaries accept an *activity span* from the scenario builder: before
//! it they idle (they still physically exist and appear in rosters). This
//! is an omniscient-adversary convenience — activating exactly when the
//! protocol is vulnerable — and keeps the simulation fast-forwardable.
//!
//! # Idle horizons (the adversary side of the fast-forward contract)
//!
//! Every strategy declares a *provable idle horizon* so adversarial sweeps
//! fast-forward dead rounds exactly like fault-free ones (the measured
//! quantity — rounds to honest termination — is derived from the phase
//! timelines and is invariant to adversary behavior, so skipping cannot
//! drift it):
//!
//! * **Stationary spammers** (Squatter, LiarFlags, Crowd, MapLiar,
//!   StrongSpoofer) never move and publish a deterministic message each
//!   round; their entire observable footprint is physical presence (which
//!   skipping never hides — rosters are built from positions) plus
//!   publications, which are unread in any skipped round (the engine skips
//!   only rounds in which *every* robot is idle). They report an unbounded
//!   horizon and their trajectories are bit-identical with or without
//!   fast-forwarding.
//! * **Roamers** (FakeSettler, Silent, Wanderer, TokenHijacker) act on a
//!   **burst grid**: active during the first `n` rounds of every `4n`-round
//!   block after activation, provably idle (stationary, silent, no RNG
//!   draws) between bursts, and therefore skippable until the next burst
//!   start. Burst rounds are never skipped (the controller reports no
//!   idleness inside one), so the RNG stream position at every burst is
//!   independent of how much was skipped elsewhere — roamer trajectories
//!   are also deterministic under fast-forwarding.
//!
//! Before activation, an adversary still walking its gather script is
//! *scripted* instead: it hands the engine the rest of the script up to
//! its activation round (`Controller::scripted`), so the gathering phase
//! is applied in bulk whether the walkers are honest or not.

use crate::msg::{DumState, Msg};
use crate::script::PortScript;
use bd_graphs::canonical::canonical_form;
use bd_graphs::{CanonicalForm, Port};
use bd_runtime::{Controller, MoveChoice, Observation, RobotId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

/// The adversary strategies available to scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AdversaryKind {
    /// Claim `Settled` forever at one spot.
    Squatter,
    /// Claim `Settled` while wandering.
    FakeSettler,
    /// Never publish anything; wander.
    Silent,
    /// Claim `ToBeSettled` while wandering; never settle.
    Wanderer,
    /// Permanent intent flag, never settles, never moves.
    LiarFlags,
    /// Forge token instructions during map finding.
    TokenHijacker,
    /// Vote garbage maps; refuse token duty.
    MapLiar,
    /// Strong-Byzantine kitchen sink: rotate honest claimed IDs, spam all
    /// message classes.
    StrongSpoofer,
    /// Sit at the gathering claiming `ToBeSettled` forever.
    Crowd,
    /// Run the honest protocol faithfully, then halt forever mid-run — the
    /// crash-fault regime of Pattanayak–Sharma–Mandal \[38\]. Strictly
    /// weaker than Byzantine, so every algorithm must absorb it within its
    /// tolerance.
    CrashMidway,
}

impl AdversaryKind {
    /// Whether the strategy needs the strong (ID-faking) flavor.
    pub fn needs_strong(self) -> bool {
        matches!(self, AdversaryKind::StrongSpoofer)
    }

    /// All kinds, for exhaustive robustness sweeps.
    pub fn all() -> [AdversaryKind; 10] {
        [
            AdversaryKind::Squatter,
            AdversaryKind::FakeSettler,
            AdversaryKind::Silent,
            AdversaryKind::Wanderer,
            AdversaryKind::LiarFlags,
            AdversaryKind::TokenHijacker,
            AdversaryKind::MapLiar,
            AdversaryKind::StrongSpoofer,
            AdversaryKind::Crowd,
            AdversaryKind::CrashMidway,
        ]
    }

    /// Whether the strategy moves between nodes once active. Roaming
    /// strategies run on the burst grid (see the module docs); stationary
    /// ones act every round and report an unbounded idle horizon.
    pub fn roams(self) -> bool {
        matches!(
            self,
            AdversaryKind::FakeSettler
                | AdversaryKind::Silent
                | AdversaryKind::Wanderer
                | AdversaryKind::TokenHijacker
        )
    }
}

/// A configurable Byzantine controller.
pub struct AdversaryController {
    id: RobotId,
    kind: AdversaryKind,
    /// Graph size; scales the roamers' burst grid.
    n: usize,
    rng: StdRng,
    /// Optional gathering script (so the adversary infiltrates the
    /// gathering in arbitrary-start scenarios).
    gather_script: PortScript,
    /// Rounds before this are spent idle (after the gather script).
    active_from: u64,
    /// Honest IDs to impersonate (StrongSpoofer).
    spoof_pool: Vec<RobotId>,
    /// This robot's position within the Byzantine coalition (spoofers
    /// coordinate offline to claim *distinct* honest IDs — the worst case
    /// §4's distinct-ID counting is sized against).
    coalition_index: usize,
    garbage: CanonicalForm,
    round_seen: u64,
    acted_rounds: u64,
}

impl AdversaryController {
    /// Build an adversary. `n` is the graph size (drives the roamers'
    /// burst grid); `active_from` is the round interaction starts (the
    /// scenario builder passes the phase where this strategy bites);
    /// `spoof_pool` is used by [`AdversaryKind::StrongSpoofer`].
    pub fn new(
        id: RobotId,
        kind: AdversaryKind,
        n: usize,
        seed: u64,
        gather_script: impl Into<Arc<[Port]>>,
        active_from: u64,
        spoof_pool: Vec<RobotId>,
        coalition_index: usize,
    ) -> Self {
        AdversaryController {
            id,
            kind,
            n: n.max(1),
            rng: StdRng::seed_from_u64(seed ^ id.0),
            gather_script: PortScript::new(gather_script),
            active_from,
            spoof_pool,
            coalition_index,
            // Lexicographically minimal nontrivial form: a garbage map that
            // wins any deterministic tie-break it manages to reach quorum in.
            garbage: canonical_form(&bd_graphs::generators::path(2).expect("edge"), 0),
            round_seen: 0,
            acted_rounds: 0,
        }
    }

    fn active(&self, round: u64) -> bool {
        round >= self.active_from
    }

    /// Burst grid for roaming strategies: active during the first `n`
    /// rounds of every `4n`-round block after activation. Stationary
    /// strategies are "in burst" every active round.
    fn in_burst(&self, round: u64) -> bool {
        if !self.kind.roams() {
            return true;
        }
        let block = 4 * self.n as u64;
        (round - self.active_from) % block < self.n as u64
    }

    /// First burst round at or after `round` (call with an active,
    /// out-of-burst round).
    fn next_burst_start(&self, round: u64) -> u64 {
        let block = 4 * self.n as u64;
        let offset = (round - self.active_from) % block;
        round + (block - offset)
    }
}

impl Controller<Msg> for AdversaryController {
    fn id(&self) -> RobotId {
        self.id
    }

    fn claimed_id(&self) -> RobotId {
        if self.kind == AdversaryKind::StrongSpoofer && !self.spoof_pool.is_empty() {
            // Each coalition member permanently impersonates a *distinct*
            // honest low-ID (agent-group) robot: the strongest forgery
            // configuration against §4's distinct-claimed-ID quorums.
            let half = (self.spoof_pool.len() / 2).max(1);
            self.spoof_pool[self.coalition_index % half]
        } else {
            self.id
        }
    }

    fn act(&mut self, obs: &Observation<'_, Msg>) -> Option<Msg> {
        self.round_seen = obs.round;
        if !self.active(obs.round) || obs.subround != 0 || !self.in_burst(obs.round) {
            return None;
        }
        self.acted_rounds += 1;
        match self.kind {
            AdversaryKind::Squatter | AdversaryKind::FakeSettler => Some(Msg::State {
                state: DumState::Settled,
                flag: false,
            }),
            AdversaryKind::Silent | AdversaryKind::CrashMidway => None,
            AdversaryKind::Wanderer => Some(Msg::State {
                state: DumState::ToBeSettled,
                flag: self.rng.gen_bool(0.5),
            }),
            AdversaryKind::LiarFlags | AdversaryKind::Crowd => Some(Msg::State {
                state: DumState::ToBeSettled,
                flag: true,
            }),
            AdversaryKind::TokenHijacker => Some(Msg::TokenGo {
                port: self.rng.gen_range(0..obs.degree.max(1)),
                step: self.rng.gen_range(0..4),
            }),
            AdversaryKind::MapLiar => Some(Msg::MapVote {
                form: self.garbage.clone(),
            }),
            // The coalition votes its identical garbage form every round:
            // forging the map quorum is the decisive attack on §4 (forged
            // TokenGo instructions are blocked by the same counting rule).
            AdversaryKind::StrongSpoofer => Some(Msg::MapVote {
                form: self.garbage.clone(),
            }),
        }
    }

    fn decide_move(&mut self, obs: &Observation<'_, Msg>) -> MoveChoice {
        self.round_seen = obs.round;
        if let Some(p) = self.gather_script.pop() {
            return MoveChoice::Move(p);
        }
        if !self.active(obs.round) || obs.degree == 0 || !self.in_burst(obs.round) {
            return MoveChoice::Stay;
        }
        let roam = match self.kind {
            AdversaryKind::Squatter
            | AdversaryKind::LiarFlags
            | AdversaryKind::Crowd
            | AdversaryKind::MapLiar => false,
            AdversaryKind::FakeSettler => self.round_seen % 3 == 0,
            AdversaryKind::Silent | AdversaryKind::Wanderer => true,
            AdversaryKind::CrashMidway => false,
            AdversaryKind::TokenHijacker => self.round_seen % 2 == 0,
            // The spoofing coalition camps at the gathering node: its votes
            // must land on the bulletin everyone reads.
            AdversaryKind::StrongSpoofer => false,
        };
        if roam {
            MoveChoice::Move(self.rng.gen_range(0..obs.degree))
        } else {
            MoveChoice::Stay
        }
    }

    fn idle_until(&self) -> Option<u64> {
        if !self.gather_script.done() {
            return None;
        }
        if self.round_seen < self.active_from {
            return Some(self.active_from);
        }
        if !self.kind.roams() {
            // Stationary spammer: its publications go unread in any skipped
            // round and it never moves — skippable for as long as everyone
            // else is idle.
            return Some(u64::MAX);
        }
        // Roamer: `round_seen` is the last stepped round, so the engine is
        // about to evaluate round `round_seen + 1`. Idle exactly up to the
        // next burst.
        let next = self.round_seen + 1;
        if self.in_burst(next) {
            None
        } else {
            Some(self.next_burst_start(next))
        }
    }

    /// The rest of the gather script, up to activation: before it the
    /// adversary reads, publishes and draws nothing.
    fn scripted(&self, round: u64) -> &[Port] {
        self.gather_script
            .rest(self.active_from.saturating_sub(round))
    }

    fn advance_script(&mut self, round: u64, rounds: u64) {
        self.gather_script.advance(rounds);
        self.round_seen = round + rounds - 1;
    }
}

/// Replays a recorded move script verbatim — the Theorem 8 adversary: a
/// Byzantine robot indistinguishable from an honest robot of a previous
/// execution.
pub struct ReplayController {
    id: RobotId,
    script: VecDeque<Option<Port>>,
}

impl ReplayController {
    /// `script` as extracted by [`bd_runtime::trace::Trace::move_script`].
    pub fn new(id: RobotId, script: Vec<Option<Port>>) -> Self {
        ReplayController {
            id,
            script: script.into(),
        }
    }
}

impl Controller<Msg> for ReplayController {
    fn id(&self) -> RobotId {
        self.id
    }

    fn act(&mut self, _obs: &Observation<'_, Msg>) -> Option<Msg> {
        None
    }

    fn decide_move(&mut self, _obs: &Observation<'_, Msg>) -> MoveChoice {
        match self.script.pop_front() {
            Some(Some(p)) => MoveChoice::Move(p),
            _ => MoveChoice::Stay,
        }
    }
}

/// Wraps an honest controller and halts it at a fixed round — the
/// crash-fault model of \[38\]: faithful protocol execution, then eternal
/// silence and immobility. The engine registers the robot as Byzantine so
/// honest termination never waits for it.
pub struct CrashWrapper {
    inner: Box<dyn Controller<Msg>>,
    crash_at: u64,
    round_seen: u64,
}

impl CrashWrapper {
    /// Crash `inner` at absolute round `crash_at`.
    pub fn new(inner: Box<dyn Controller<Msg>>, crash_at: u64) -> Self {
        CrashWrapper {
            inner,
            crash_at,
            round_seen: 0,
        }
    }

    fn crashed(&self) -> bool {
        self.round_seen >= self.crash_at
    }
}

impl Controller<Msg> for CrashWrapper {
    fn id(&self) -> RobotId {
        self.inner.id()
    }

    fn subrounds_wanted(&self, round: u64) -> usize {
        // `round > crash_at`, not `>=`: the crash lands *during* round
        // `crash_at` (the `act` call updates `round_seen` first), so that
        // round's sub-round request still comes from the inner controller.
        if round > self.crash_at {
            1
        } else {
            self.inner.subrounds_wanted(round)
        }
    }

    fn act(&mut self, obs: &Observation<'_, Msg>) -> Option<Msg> {
        self.round_seen = obs.round;
        if self.crashed() {
            return None;
        }
        self.inner.act(obs)
    }

    fn decide_move(&mut self, obs: &Observation<'_, Msg>) -> MoveChoice {
        self.round_seen = obs.round;
        if self.crashed() {
            return MoveChoice::Stay;
        }
        self.inner.decide_move(obs)
    }

    fn idle_until(&self) -> Option<u64> {
        if self.crashed() {
            Some(u64::MAX)
        } else {
            self.inner.idle_until()
        }
    }

    /// The inner script, clipped at the crash: the robot halts during
    /// round `crash_at`, so it never moves in bulk from there on.
    fn scripted(&self, round: u64) -> &[Port] {
        let script = self.inner.scripted(round);
        let before_crash = self.crash_at.saturating_sub(round) as usize;
        &script[..script.len().min(before_crash)]
    }

    fn advance_script(&mut self, round: u64, rounds: u64) {
        self.round_seen = round + rounds - 1;
        self.inner.advance_script(round, rounds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_enumerated_once() {
        let all = AdversaryKind::all();
        let set: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), all.len());
    }

    #[test]
    fn spoofer_coalition_claims_distinct_low_ids() {
        let pool = vec![RobotId(1), RobotId(2), RobotId(3), RobotId(4)];
        let mk = |idx| {
            AdversaryController::new(
                RobotId(90 + idx as u64),
                AdversaryKind::StrongSpoofer,
                8,
                7,
                Vec::new(),
                0,
                pool.clone(),
                idx,
            )
        };
        let (a, b) = (mk(0), mk(1));
        // Distinct coalition members impersonate distinct lower-half IDs,
        // stable across rounds.
        assert_eq!(a.claimed_id(), RobotId(1));
        assert_eq!(b.claimed_id(), RobotId(2));
    }

    #[test]
    fn non_spoofer_keeps_true_id() {
        let a = AdversaryController::new(
            RobotId(42),
            AdversaryKind::Squatter,
            8,
            7,
            Vec::new(),
            0,
            vec![RobotId(1)],
            0,
        );
        assert_eq!(a.claimed_id(), RobotId(42));
    }

    #[test]
    fn idles_before_activation() {
        let a = AdversaryController::new(
            RobotId(42),
            AdversaryKind::Wanderer,
            8,
            7,
            Vec::new(),
            500,
            Vec::new(),
            0,
        );
        assert_eq!(a.idle_until(), Some(500));
    }

    #[test]
    fn stationary_spammer_reports_unbounded_horizon() {
        let a = AdversaryController::new(
            RobotId(9),
            AdversaryKind::Squatter,
            8,
            7,
            Vec::new(),
            0,
            Vec::new(),
            0,
        );
        assert_eq!(a.idle_until(), Some(u64::MAX));
    }

    #[test]
    fn roamer_bursts_on_the_grid() {
        let n = 8usize;
        let mut a = AdversaryController::new(
            RobotId(9),
            AdversaryKind::Wanderer,
            n,
            7,
            Vec::new(),
            0,
            Vec::new(),
            0,
        );
        // Bursts cover [0, n) of every 4n-round block.
        assert!(a.in_burst(0) && a.in_burst(n as u64 - 1));
        assert!(!a.in_burst(n as u64) && !a.in_burst(4 * n as u64 - 1));
        assert!(a.in_burst(4 * n as u64));
        // Inside a burst: no idleness claim. Outside: idle to the next
        // burst start.
        a.round_seen = 2;
        assert_eq!(a.idle_until(), None);
        a.round_seen = n as u64; // next evaluated round is n + 1
        assert_eq!(a.idle_until(), Some(4 * n as u64));
    }

    #[test]
    fn roamer_is_inert_between_bursts() {
        let n = 8usize;
        let mut a = AdversaryController::new(
            RobotId(9),
            AdversaryKind::TokenHijacker,
            n,
            7,
            Vec::new(),
            0,
            Vec::new(),
            0,
        );
        let roster = [RobotId(9)];
        let obs = |round: u64| Observation::<Msg> {
            round,
            subround: 0,
            subrounds: 1,
            degree: 3,
            roster: &roster,
            bulletin: &[],
            arrival: None,
        };
        // Burst round: spams a forged instruction.
        assert!(a.act(&obs(0)).is_some());
        // Gap round: silent and stationary, as the idle horizon promises.
        let gap = n as u64 + 1;
        assert!(a.act(&obs(gap)).is_none());
        assert_eq!(a.decide_move(&obs(gap)), MoveChoice::Stay);
    }

    #[test]
    fn replay_follows_script_then_stays() {
        let mut r = ReplayController::new(RobotId(1), vec![Some(2), None, Some(0)]);
        let roster = [RobotId(1)];
        let obs = Observation::<Msg> {
            round: 0,
            subround: 0,
            subrounds: 1,
            degree: 3,
            roster: &roster,
            bulletin: &[],
            arrival: None,
        };
        assert_eq!(r.decide_move(&obs), MoveChoice::Move(2));
        assert_eq!(r.decide_move(&obs), MoveChoice::Stay);
        assert_eq!(r.decide_move(&obs), MoveChoice::Move(0));
        assert_eq!(r.decide_move(&obs), MoveChoice::Stay);
    }

    #[test]
    fn crash_wrapper_clips_the_inner_script_at_the_crash() {
        use bd_runtime::{Engine, EngineConfig, Flavor};
        // A faithful robot with ten gather ports ahead of it, crashing at
        // round 4.
        let walker = || {
            let inner = AdversaryController::new(
                RobotId(1),
                AdversaryKind::CrashMidway,
                16,
                7,
                vec![0; 10],
                100,
                Vec::new(),
                0,
            );
            CrashWrapper::new(Box::new(inner), 4)
        };
        let mut c = walker();
        assert_eq!(c.scripted(0), &[0; 4], "clipped at crash_at");
        assert_eq!(c.scripted(2).len(), 2);
        c.advance_script(0, 4);
        assert!(!c.crashed() && c.scripted(4).is_empty());

        // On an engine, bulk and stepped runs leave the crashed robot at
        // its fourth node; a silent honest bystander keeps the run going.
        let final_positions = |config: EngineConfig| {
            let mut e: Engine<Msg> =
                Engine::new(bd_graphs::generators::oriented_ring(16).unwrap(), config);
            e.add_robot(Flavor::WeakByzantine, 0, Box::new(walker()));
            let bystander = AdversaryController::new(
                RobotId(2),
                AdversaryKind::CrashMidway,
                16,
                7,
                Vec::new(),
                0,
                Vec::new(),
                0,
            );
            e.add_robot(Flavor::Honest, 8, Box::new(bystander));
            e.run_epoch(12).unwrap().final_positions
        };
        assert_eq!(final_positions(EngineConfig::default()), vec![4, 8]);
        assert_eq!(
            final_positions(EngineConfig::default().without_fast_forward()),
            vec![4, 8]
        );
    }
}
