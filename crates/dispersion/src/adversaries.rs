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
//!   only rounds in which no robot acts). Once active they are beacons
//!   for good (`Intent::Beacon(u64::MAX)`): skippable like idle robots,
//!   but not silent, so the engine calls them in every stepped round and
//!   steps instead of running a segment beside one, where their messages
//!   would go uncounted. Their trajectories are bit-identical with or
//!   without fast-forwarding.
//! * **Roamers** (FakeSettler, Silent, Wanderer, TokenHijacker) act on a
//!   **burst grid**: active during the first `n` rounds of every `4n`-round
//!   block after activation, provably idle (stationary, silent, no RNG
//!   draws) between bursts, and therefore skippable until the next burst
//!   start. Burst rounds are never skipped (the controller reports no
//!   idleness inside one), so the RNG stream position at every burst is
//!   independent of how much was skipped elsewhere — roamer trajectories
//!   are also deterministic under fast-forwarding. Inside a burst a roamer
//!   is *solo* until the burst ends (`Intent::Solo`): it reads
//!   only its own round, degree and RNG — never the roster or bulletin —
//!   so while every honest robot waits out a map-finding window the
//!   engine applies the burst as a segment, building no roster or
//!   bulletin, and hands the roamer the whole stretch in one
//!   `Controller::solo` call. The override checks the activity and burst
//!   gates once, then runs each round through the per-kind helpers that
//!   `act` and `decide_move` use too, so it draws from the RNG in the
//!   order they would.
//!
//! An adversary's gather script is its prelude (`Controller::prelude`):
//! the engine walks it without calling the controller, exactly as it
//! walks an honest robot's, so the gathering phase is applied in bulk
//! whether the walkers are honest or not. Activation never precedes the
//! script's end (the scenario builder activates at or after the
//! gathering budget).

use crate::msg::{DumState, Msg};
use bd_graphs::canonical::canonical_form;
use bd_graphs::{CanonicalForm, Port};
use bd_runtime::{Controller, Intent, MoveChoice, Observation, Prelude, RobotId, SoloWalk};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::ops::Range;

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
    /// ones publish every round and are beacons for good.
    pub(crate) fn roams(self) -> bool {
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
    /// Optional gathering script, walked as the prelude (so the adversary
    /// infiltrates the gathering in arbitrary-start scenarios).
    gather_script: Prelude,
    /// Rounds before this are spent idle (after the gather script, which
    /// must not run past it).
    active_from: u64,
    /// Honest IDs to impersonate (StrongSpoofer).
    spoof_pool: Vec<RobotId>,
    /// This robot's position within the Byzantine coalition (spoofers
    /// coordinate offline to claim *distinct* honest IDs — the worst case
    /// §4's distinct-ID counting is sized against).
    coalition_index: usize,
    garbage: CanonicalForm,
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
        gather_script: impl Into<Prelude>,
        active_from: u64,
        spoof_pool: Vec<RobotId>,
        coalition_index: usize,
    ) -> Self {
        AdversaryController {
            id,
            kind,
            n: n.max(1),
            rng: StdRng::seed_from_u64(seed ^ id.0),
            gather_script: gather_script.into(),
            active_from,
            spoof_pool,
            coalition_index,
            // Lexicographically minimal nontrivial form: a garbage map that
            // wins any deterministic tie-break it manages to reach quorum in.
            garbage: canonical_form(&bd_graphs::generators::path(2).expect("edge"), 0),
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

    /// What an active robot publishes in a round it acts in, at
    /// sub-round 0 on a node of `degree` (drawing from the RNG as its kind
    /// needs).
    fn publish(&mut self, degree: usize) -> Option<Msg> {
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
                port: self.rng.gen_range(0..degree.max(1)),
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

    /// Where an active robot moves in `round`, a round it acts in, from a
    /// node of `degree` (a roamer draws its port from the RNG).
    fn roam(&mut self, round: u64, degree: usize) -> MoveChoice {
        let roams = match self.kind {
            AdversaryKind::Squatter
            | AdversaryKind::LiarFlags
            | AdversaryKind::Crowd
            | AdversaryKind::MapLiar => false,
            AdversaryKind::FakeSettler => round % 3 == 0,
            AdversaryKind::Silent | AdversaryKind::Wanderer => true,
            AdversaryKind::CrashMidway => false,
            AdversaryKind::TokenHijacker => round % 2 == 0,
            // The spoofing coalition camps at the gathering node: its votes
            // must land on the bulletin everyone reads.
            AdversaryKind::StrongSpoofer => false,
        };
        if roams && degree > 0 {
            MoveChoice::Move(self.rng.gen_range(0..degree))
        } else {
            MoveChoice::Stay
        }
    }

    /// First burst round at or after `round` (call with an active,
    /// out-of-burst round).
    fn next_burst_start(&self, round: u64) -> u64 {
        let block = 4 * self.n as u64;
        let offset = (round - self.active_from) % block;
        round + (block - offset)
    }

    /// First round after the burst `round` lies in (call with an active,
    /// in-burst round of a roamer).
    fn burst_end(&self, round: u64) -> u64 {
        let block = 4 * self.n as u64;
        let offset = (round - self.active_from) % block;
        round + (self.n as u64 - offset)
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
        if !self.active(obs.round) || obs.subround != 0 || !self.in_burst(obs.round) {
            return None;
        }
        self.publish(obs.degree)
    }

    fn decide_move(&mut self, obs: &Observation<'_, Msg>) -> MoveChoice {
        if !self.active(obs.round) || !self.in_burst(obs.round) {
            return MoveChoice::Stay;
        }
        self.roam(obs.round, obs.degree)
    }

    /// A roamer's burst, or a stretch of one, in one call: every round
    /// lies inside the burst the robot answered [`Intent::Solo`] in, so
    /// the activity and burst gates hold throughout. Each round publishes
    /// and moves through the same helpers as `act` (at sub-round 0; the
    /// later sub-rounds publish nothing) and `decide_move`, drawing from
    /// the RNG in the same order.
    fn solo(&mut self, rounds: Range<u64>, _subrounds: usize, walk: &mut SoloWalk<'_>) -> u64 {
        debug_assert!(
            self.kind.roams() && self.active(rounds.start) && self.in_burst(rounds.start),
            "solo outside a burst at round {}",
            rounds.start
        );
        debug_assert!(
            rounds.end <= self.burst_end(rounds.start),
            "solo past the burst"
        );
        let mut messages = 0;
        for round in rounds {
            let degree = walk.degree();
            messages += u64::from(self.publish(degree).is_some());
            walk.take(self.roam(round, degree));
        }
        messages
    }

    /// Idle until activation. A stationary spammer is then a beacon for
    /// good: it never moves, and its publications go unread in any skipped
    /// round but are counted in every stepped one. A roamer is idle up to
    /// its next burst and solo inside one: it reads only its own round,
    /// degree and RNG, and nothing it publishes needs a reader while every
    /// honest robot waits. A bare `CrashMidway` controller, which neither
    /// moves nor publishes, is idle for good.
    fn intent(&self, round: u64) -> Intent {
        if !self.active(round) {
            Intent::Idle(self.active_from)
        } else if self.kind == AdversaryKind::CrashMidway {
            Intent::Idle(u64::MAX)
        } else if !self.kind.roams() {
            Intent::Beacon(u64::MAX)
        } else if self.in_burst(round) {
            Intent::Solo(self.burst_end(round))
        } else {
            Intent::Idle(self.next_burst_start(round))
        }
    }

    /// The gather script: before activation the adversary reads,
    /// publishes and draws nothing.
    fn prelude(&self) -> Prelude {
        self.gather_script.clone()
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
}

impl CrashWrapper {
    /// Crash `inner` at absolute round `crash_at`.
    pub fn new(inner: Box<dyn Controller<Msg>>, crash_at: u64) -> Self {
        CrashWrapper { inner, crash_at }
    }

    /// Whether the robot has halted by `round`.
    fn crashed(&self, round: u64) -> bool {
        round >= self.crash_at
    }
}

impl Controller<Msg> for CrashWrapper {
    fn id(&self) -> RobotId {
        self.inner.id()
    }

    fn subrounds_wanted(&self, round: u64) -> usize {
        // `round > crash_at`, not `>=`: the robot is silent and still in
        // round `crash_at`, but that round's sub-round request still comes
        // from the inner controller, as the crash lands inside the round.
        if round > self.crash_at {
            1
        } else {
            self.inner.subrounds_wanted(round)
        }
    }

    fn act(&mut self, obs: &Observation<'_, Msg>) -> Option<Msg> {
        if self.crashed(obs.round) {
            return None;
        }
        self.inner.act(obs)
    }

    fn decide_move(&mut self, obs: &Observation<'_, Msg>) -> MoveChoice {
        if self.crashed(obs.round) {
            return MoveChoice::Stay;
        }
        self.inner.decide_move(obs)
    }

    /// Idle for good once crashed; before that the inner controller's
    /// idle horizon, and no other promise: the robot is registered
    /// Byzantine, so it never needs to report itself done (a done inner
    /// controller, which sessions never reach before the crash, is idle
    /// for good too).
    fn intent(&self, round: u64) -> Intent {
        if self.crashed(round) {
            return Intent::Idle(u64::MAX);
        }
        match self.inner.intent(round) {
            Intent::Done => Intent::Idle(u64::MAX),
            idle @ Intent::Idle(_) => idle,
            _ => Intent::Act,
        }
    }

    /// The inner prelude, clipped at the crash: the robot halts during
    /// round `crash_at`, so it never walks from there on.
    fn prelude(&self) -> Prelude {
        let crash = usize::try_from(self.crash_at).unwrap_or(usize::MAX);
        self.inner.prelude().clipped(crash)
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
        assert_eq!(a.intent(0), Intent::Idle(500));
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
        assert_eq!(a.intent(0), Intent::Beacon(u64::MAX));
    }

    #[test]
    fn roamer_bursts_on_the_grid() {
        let n = 8usize;
        let a = AdversaryController::new(
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
        // Inside a burst: solo to its end. Outside: idle to the next burst
        // start.
        assert_eq!(a.intent(3), Intent::Solo(n as u64));
        assert_eq!(a.intent(n as u64 + 1), Intent::Idle(4 * n as u64));
    }

    #[test]
    fn roamer_is_solo_exactly_inside_bursts() {
        let n = 8u64;
        let mk = |kind, script: Vec<Port>, active_from| {
            AdversaryController::new(
                RobotId(9),
                kind,
                n as usize,
                7,
                script,
                active_from,
                Vec::new(),
                0,
            )
        };
        // The gather script is the prelude: the engine walks it and asks
        // nothing meanwhile.
        let a = mk(AdversaryKind::Wanderer, vec![0; 3], 100);
        assert_eq!(a.prelude().to_vec(), [0; 3]);
        // Before activation: idle until it.
        assert_eq!(a.intent(0), Intent::Idle(100));
        assert_eq!(a.intent(99), Intent::Idle(100));
        // The activation round opens the first burst, so it is solo too,
        // whatever the controller was last called in.
        assert_eq!(a.intent(100), Intent::Solo(100 + n));
        // Inside a burst: solo until the burst's end, whichever round of it
        // is asked about.
        for round in [101, 100 + n - 1, 100 + 4 * n, 100 + 9 * n - 1] {
            let end = 100 + (round - 100) / (4 * n) * 4 * n + n;
            assert_eq!(a.intent(round), Intent::Solo(end), "round {round}");
        }
        // Between bursts: idle until the next one, not solo.
        for round in [100 + n, 100 + 4 * n - 1, 100 + 5 * n] {
            let next = 100 + ((round - 100) / (4 * n) + 1) * 4 * n;
            assert_eq!(a.intent(round), Intent::Idle(next), "round {round}");
        }
        // Stationary kinds are never solo: once active the spammers publish
        // in place for good, and a bare crash-fault robot is silent.
        for kind in AdversaryKind::all().into_iter().filter(|k| !k.roams()) {
            let a = mk(kind, Vec::new(), 0);
            let expected = if kind == AdversaryKind::CrashMidway {
                Intent::Idle(u64::MAX)
            } else {
                Intent::Beacon(u64::MAX)
            };
            for round in [0, 1, n, 4 * n] {
                assert_eq!(a.intent(round), expected, "{kind:?}");
            }
        }
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
    fn solo_runs_a_burst_as_act_and_decide_move_would() {
        use bd_graphs::NodeId;
        use bd_runtime::{Engine, EngineConfig, Flavor};
        use rand::RngCore;
        use std::cell::RefCell;
        use std::rc::Rc;
        use std::sync::Arc;
        // A roamer the test can still read after seating it, asking for
        // two sub-rounds a round.
        struct Shared(Rc<RefCell<AdversaryController>>);
        impl Controller<Msg> for Shared {
            fn id(&self) -> RobotId {
                self.0.borrow().id()
            }
            fn subrounds_wanted(&self, _round: u64) -> usize {
                2
            }
            fn act(&mut self, obs: &Observation<'_, Msg>) -> Option<Msg> {
                self.0.borrow_mut().act(obs)
            }
            fn decide_move(&mut self, obs: &Observation<'_, Msg>) -> MoveChoice {
                self.0.borrow_mut().decide_move(obs)
            }
            fn intent(&self, round: u64) -> Intent {
                self.0.borrow().intent(round)
            }
            fn solo(
                &mut self,
                rounds: Range<u64>,
                subrounds: usize,
                walk: &mut SoloWalk<'_>,
            ) -> u64 {
                self.0.borrow_mut().solo(rounds, subrounds, walk)
            }
        }
        // The engine hands each stretch of a burst to `solo` in one call;
        // the oracle calls `act` and `decide_move` every round. The
        // honest bystander is idle until round 8, so the first burst
        // [5, 13) runs from its start and again from mid-burst; the run
        // ends inside the second burst [37, 45).
        let g = Arc::new(bd_graphs::generators::lollipop(4, 3).unwrap());
        let (n, active_from, stop) = (8, 5, 40);
        for kind in AdversaryKind::all().into_iter().filter(|k| k.roams()) {
            let cast = || {
                let roamer = Rc::new(RefCell::new(AdversaryController::new(
                    RobotId(9),
                    kind,
                    n,
                    7,
                    Vec::new(),
                    active_from,
                    Vec::new(),
                    0,
                )));
                let bystander = AdversaryController::new(
                    RobotId(2),
                    AdversaryKind::CrashMidway,
                    n,
                    7,
                    Vec::new(),
                    8,
                    Vec::new(),
                    0,
                );
                let seats: [(Flavor, NodeId, Box<dyn Controller<Msg>>); 2] = [
                    (
                        Flavor::WeakByzantine,
                        6,
                        Box::new(Shared(Rc::clone(&roamer))),
                    ),
                    (Flavor::Honest, 0, Box::new(bystander)),
                ];
                (roamer, seats)
            };
            let end = |roamer: Rc<RefCell<AdversaryController>>, out: bd_runtime::EpochOutcome| {
                let m = out.metrics;
                let next = roamer.borrow_mut().rng.next_u64();
                (out.final_positions, m.messages, m.total_moves, next)
            };
            let (roamer, seats) = cast();
            let mut e: Engine<Msg> = Engine::new(Arc::clone(&g), EngineConfig::default());
            for (flavor, node, c) in seats {
                e.add_robot(flavor, node, c);
            }
            let solo = end(roamer, e.run_epoch(stop).unwrap());
            let (roamer, seats) = cast();
            let mut e =
                bd_oracle::OracleEngine::<Msg>::new(Arc::clone(&g), EngineConfig::default());
            for (flavor, node, c) in seats {
                e.add_robot(flavor, node, c);
            }
            let stepped = end(roamer, e.run_epoch(stop).unwrap());
            assert_eq!(
                solo, stepped,
                "{kind:?}: positions, messages, moves and next RNG draw"
            );
        }
    }

    #[test]
    fn crash_wrapper_keeps_idle_promises_only_and_idles_for_good_after_the_crash() {
        let wanderer = AdversaryController::new(
            RobotId(9),
            AdversaryKind::Wanderer,
            8,
            7,
            Vec::new(),
            0,
            Vec::new(),
            0,
        );
        // Nothing is ever called but `intent`: each answer depends on the
        // asked round alone.
        let w = CrashWrapper::new(Box::new(wanderer), 50);
        // In a burst the wanderer is solo; the wrapper promises nothing.
        assert_eq!(w.intent(1), Intent::Act);
        assert_eq!(w.intent(33), Intent::Act);
        // Between bursts the wanderer's idle horizon passes through.
        assert_eq!(w.intent(10), Intent::Idle(32));
        assert_eq!(w.intent(49), Intent::Idle(64));
        // From the crash round on the robot is idle for good.
        for round in [50, 51, 64, 1000] {
            assert_eq!(w.intent(round), Intent::Idle(u64::MAX), "round {round}");
        }
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
        use std::sync::Arc;
        // A faithful robot with ten gather ports ahead of it, crashing at
        // round `crash_at`.
        let walker = |crash_at| {
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
            CrashWrapper::new(Box::new(inner), crash_at)
        };
        assert_eq!(walker(4).prelude().to_vec(), [0; 4], "clipped at crash_at");
        assert_eq!(
            walker(20).prelude().len(),
            10,
            "a later crash clips nothing"
        );

        // On the engine, which applies the clipped prelude in bulk, and on
        // the oracle, which steps every round, the crashed robot ends at its
        // fourth node; a silent honest bystander keeps the run going.
        let bystander = || {
            Box::new(AdversaryController::new(
                RobotId(2),
                AdversaryKind::CrashMidway,
                16,
                7,
                Vec::new(),
                0,
                Vec::new(),
                0,
            ))
        };
        let g = Arc::new(bd_graphs::generators::oriented_ring(16).unwrap());
        let mut e: Engine<Msg> = Engine::new(Arc::clone(&g), EngineConfig::default());
        e.add_robot(Flavor::WeakByzantine, 0, Box::new(walker(4)));
        e.add_robot(Flavor::Honest, 8, bystander());
        assert_eq!(e.run_epoch(12).unwrap().final_positions, vec![4, 8]);
        let mut e = bd_oracle::OracleEngine::<Msg>::new(g, EngineConfig::default());
        e.add_robot(Flavor::WeakByzantine, 0, Box::new(walker(4)));
        e.add_robot(Flavor::Honest, 8, bystander());
        assert_eq!(e.run_epoch(12).unwrap().final_positions, vec![4, 8]);
    }
}
