//! Shared pieces of the map-finding algorithms (§3.1–§4): roster
//! snapshots, group partitions, the [`GroupRun`] driver for one group
//! map-finding run with trust thresholds and a [`VoteRule`], the
//! capacity-aware [`SettlePhase`] DUM tail, and the
//! [`GroupPhaseController`] scaffold (gather → snapshot → sequential group
//! runs → tail) that the Theorem 2–7 controllers instantiate through a
//! [`GroupScheme`]. Theorems 4–7 vote by quorum near the end of each run;
//! §3.1's pairings (Theorems 2–3) are runs with groups of one, where each
//! agent keeps its own map. The scheme picks its [`GroupTail`]
//! statically: [`SettlePhase`] for Theorems 2–5, the rank walk for
//! Theorems 6–7.

use crate::dum::DumMachine;
use crate::mapvote::quorum_map;
use crate::msg::Msg;
use crate::timeline::dum_budget;
use crate::token_roles::{AgentDriver, InstructionSpec, TokenFollower, TokenSpec};
use bd_graphs::canonical::canonical_form;
use bd_graphs::{CanonicalForm, PortGraph};
use bd_runtime::{Controller, Intent, MoveChoice, Observation, Prelude, RobotId};
use std::collections::BTreeSet;

/// Sorted, deduplicated roster — the ID snapshot every robot takes of the
/// gathering ("each robot remembers the IDs of the remaining k − 1 gathered
/// robots", §3.2/§4). Duplicates collapse: two entities claiming one ID are
/// indistinguishable in the snapshot.
pub fn snapshot_ids(roster: &[RobotId]) -> Vec<RobotId> {
    let set: BTreeSet<RobotId> = roster.iter().copied().collect();
    set.into_iter().collect()
}

/// Split sorted ids into the paper's three groups `A`, `B`, `C` (§3.2):
/// `A` = smallest `⌊k/3⌋`, `B` = next `⌊k/3⌋`, `C` = the rest.
pub fn partition3(ids: &[RobotId]) -> (Vec<RobotId>, Vec<RobotId>, Vec<RobotId>) {
    let third = ids.len() / 3;
    (
        ids[..third].to_vec(),
        ids[third..2 * third].to_vec(),
        ids[2 * third..].to_vec(),
    )
}

/// Split sorted ids into two halves (§3.3, §4): `A` = smallest `⌊k/2⌋`.
pub fn partition2(ids: &[RobotId]) -> (Vec<RobotId>, Vec<RobotId>) {
    let half = ids.len() / 2;
    (ids[..half].to_vec(), ids[half..].to_vec())
}

/// How a run's agents settle on the map the run yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VoteRule {
    /// The run's second-to-last round is a vote round: agents publish
    /// their maps, and everyone accepts the map at least this many
    /// distinct agents voted for (§3.2, §4). The last round is slack.
    Quorum(usize),
    /// No vote round and no `MapVote`: an agent keeps the map it built
    /// (§3.1's pairings, where each robot votes over its own runs).
    OwnMap,
}

/// Parameters of one group map-finding run.
#[derive(Debug, Clone)]
pub struct GroupRunSpec {
    /// The agent group (runs the explorer in lockstep).
    pub agents: BTreeSet<RobotId>,
    /// The token group.
    pub token: BTreeSet<RobotId>,
    /// Distinct agent IDs required for the token to obey an instruction.
    pub instr_threshold: usize,
    /// Distinct token IDs required for the agent to sense the token.
    pub presence_threshold: usize,
    /// How the run's map is chosen.
    pub vote: VoteRule,
    /// Absolute round the run starts.
    pub start: u64,
    /// Work budget: construction stops at `start + work` and everyone
    /// heads home.
    pub work: u64,
    /// First round after the run.
    pub end: u64,
}

impl GroupRunSpec {
    /// Round at which construction must stop and everyone heads home.
    pub(crate) fn work_deadline(&self) -> u64 {
        self.start + self.work
    }

    /// First round after construction and the walk home: the vote round
    /// under [`VoteRule::Quorum`], the run's end under
    /// [`VoteRule::OwnMap`].
    pub(crate) fn walk_end(&self) -> u64 {
        match self.vote {
            VoteRule::Quorum(_) => self.end - 2,
            VoteRule::OwnMap => self.end,
        }
    }
}

enum RunRole {
    Agent(AgentDriver),
    Token(TokenFollower),
    /// Not a member of either group (possible only for robots outside the
    /// snapshot; honest robots are always members).
    Bystander,
}

/// Drives one robot through one group run. Construct lazily at the run's
/// first round (the agent needs to see its origin degree).
pub struct GroupRun {
    spec: GroupRunSpec,
    me: RobotId,
    n: usize,
    role: Option<RunRole>,
    deadline_handled: bool,
    /// The map this robot built (quorum-voting agents only).
    my_form: Option<CanonicalForm>,
    /// The map the run yields: accepted by quorum at the vote round, or,
    /// under [`VoteRule::OwnMap`], the agent's own once the run finished.
    accepted: Option<CanonicalForm>,
    vote_done: bool,
}

impl GroupRun {
    /// Prepare a run for robot `me` on an `n`-node graph.
    pub fn new(spec: GroupRunSpec, me: RobotId, n: usize) -> Self {
        GroupRun {
            spec,
            me,
            n,
            role: None,
            deadline_handled: false,
            my_form: None,
            accepted: None,
            vote_done: false,
        }
    }

    /// Whether `round` falls inside this run.
    pub fn active(&self, round: u64) -> bool {
        round >= self.spec.start && round < self.spec.end
    }

    /// Close the run after its last round: under [`VoteRule::OwnMap`] an
    /// agent's map becomes the run's result. The role and its walk logs
    /// are dropped.
    fn finish(&mut self) {
        if let (VoteRule::OwnMap, Some(RunRole::Agent(a))) = (self.spec.vote, &mut self.role) {
            self.accepted = a.take_result().map(|m| canonical_form(&m, 0));
        }
        self.role = None;
    }

    /// Sub-round handler; call for every sub-round of every active round.
    pub fn act(&mut self, obs: &Observation<'_, Msg>) -> Option<Msg> {
        if !self.active(obs.round) {
            return None;
        }
        // Lazy role construction at the first sub-round of the run.
        if self.role.is_none() {
            self.role = Some(if self.spec.agents.contains(&self.me) {
                RunRole::Agent(AgentDriver::new(
                    obs.degree,
                    self.n,
                    TokenSpec {
                        members: self.spec.token.iter().copied().collect(),
                        presence_threshold: self.spec.presence_threshold,
                    },
                ))
            } else if self.spec.token.contains(&self.me) {
                RunRole::Token(TokenFollower::with_timeout(
                    InstructionSpec {
                        members: self.spec.agents.iter().copied().collect(),
                        threshold: self.spec.instr_threshold,
                    },
                    8 * self.n as u64 + 16,
                ))
            } else {
                RunRole::Bystander
            });
        }
        // Deadline: stop constructing, walk home.
        if obs.round >= self.spec.work_deadline() && !self.deadline_handled {
            self.deadline_handled = true;
            match self.role.as_mut().expect("role set") {
                RunRole::Agent(a) => {
                    a.abort();
                }
                RunRole::Token(t) => t.go_home(),
                RunRole::Bystander => {}
            }
        }
        // Working / returning rounds.
        if obs.round < self.spec.walk_end() {
            match self.role.as_mut().expect("role set") {
                RunRole::Agent(a) => {
                    if obs.subround == 0 {
                        return a.act(obs);
                    }
                }
                RunRole::Token(t) => return t.act(obs),
                RunRole::Bystander => {}
            }
            return None;
        }
        // Vote round: agents publish at sub-round 0; everyone reads at 1.
        let VoteRule::Quorum(threshold) = self.spec.vote else {
            return None;
        };
        if obs.round == self.spec.walk_end() {
            if obs.subround == 0 {
                if let RunRole::Agent(a) = self.role.as_mut().expect("role set") {
                    if self.my_form.is_none() {
                        self.my_form = a.take_result().map(|m| canonical_form(&m, 0));
                    }
                    return self.my_form.clone().map(|form| Msg::MapVote { form });
                }
                return None;
            }
            if obs.subround == 1 && !self.vote_done {
                self.vote_done = true;
                let votes: Vec<(RobotId, CanonicalForm)> = obs
                    .bulletin
                    .iter()
                    .filter_map(|p| match &p.body {
                        Msg::MapVote { form } => Some((p.sender, form.clone())),
                        _ => None,
                    })
                    .collect();
                self.accepted = quorum_map(&votes, &self.spec.agents, threshold);
            }
        }
        None
    }

    /// Idleness hint: once this robot has nothing left to do in the run,
    /// it can sleep until the vote round (or the run's end after voting,
    /// or when there is no vote round).
    pub fn idle_until(&self, round: u64) -> Option<u64> {
        if !self.active(round) {
            return None;
        }
        if self.vote_done {
            return Some(self.spec.end);
        }
        let finished = match &self.role {
            Some(RunRole::Agent(a)) => a.finished(),
            Some(RunRole::Token(t)) => t.finished(),
            Some(RunRole::Bystander) => true,
            None => false,
        };
        if finished && self.spec.walk_end() > round {
            return Some(self.spec.walk_end());
        }
        None
    }

    /// End-of-round move for active rounds. `degree` is the physical degree
    /// of the robot's current node (for divergence detection).
    pub fn decide_move(&mut self, round: u64, degree: usize) -> MoveChoice {
        if !self.active(round) || round >= self.spec.walk_end() {
            return MoveChoice::Stay;
        }
        match self.role.as_mut() {
            Some(RunRole::Agent(a)) => a.decide_move(degree),
            Some(RunRole::Token(t)) => t.decide_move(),
            _ => MoveChoice::Stay,
        }
    }
}

/// The phase a group-based controller runs after its map-finding runs,
/// from the gathering node on the map the scheme chose. Every method is
/// called on the concrete tail type, so the per-round path has no dynamic
/// dispatch.
pub trait GroupTail: Send {
    /// A tail with no schedule yet (bounds land at the snapshot).
    fn pending(id: RobotId, n: usize) -> Self;

    /// Fix the bounds from the first round after the runs and the sorted
    /// roster snapshot.
    fn schedule(&mut self, start: u64, ids: &[RobotId]);

    /// First round after the tail; `u64::MAX` until scheduled.
    fn end(&self) -> u64;

    /// Whether [`GroupTail::schedule`] has run.
    fn scheduled(&self) -> bool {
        self.end() != u64::MAX
    }

    /// Whether `round` falls inside the tail.
    fn active(&self, round: u64) -> bool;

    /// Sub-rounds an active round needs.
    fn subrounds(&self) -> usize;

    /// Whether [`GroupTail::begin`] has run.
    fn running(&self) -> bool;

    /// Start from the gathering node (map node 0) on `map`.
    fn begin(&mut self, map: PortGraph);

    /// Sub-round handler (call only while [`GroupTail::active`]).
    fn act(&mut self, obs: &Observation<'_, Msg>) -> Option<Msg>;

    /// End-of-round move decision.
    fn decide_move(&mut self) -> MoveChoice;

    /// Idleness hint at `round` (none by default).
    fn idle_until(&self, round: u64) -> Option<u64> {
        let _ = round;
        None
    }
}

/// The capacity-aware `Dispersion-Using-Map` tail every DUM-based row ends
/// with: scheduling (absolute bounds derived at the roster snapshot), the
/// §5 per-node capacity `⌈k/n⌉` from the observed roster size, sub-round
/// sizing for `k > n` co-locations, and the lazy [`DumMachine`].
pub struct SettlePhase {
    id: RobotId,
    n: usize,
    /// Roster size observed at the snapshot (drives capacity and
    /// sub-round needs; `n` until scheduled).
    k_seen: usize,
    start: u64,
    end: u64,
    machine: Option<DumMachine>,
}

impl SettlePhase {
    /// `(start, end)` bounds (exclusive end); `u64::MAX` until scheduled.
    pub fn bounds(&self) -> (u64, u64) {
        (self.start, self.end)
    }

    /// The §5 per-node capacity the machine settles against: `⌈k/n⌉` from
    /// the observed roster (1 in the standard `k = n` regime).
    pub fn capacity(&self) -> usize {
        self.k_seen.div_ceil(self.n)
    }

    /// Roster size observed at the snapshot.
    pub fn k_seen(&self) -> usize {
        self.k_seen
    }

    /// The underlying machine, if started (inspection/tests).
    pub fn machine(&self) -> Option<&DumMachine> {
        self.machine.as_ref()
    }
}

impl GroupTail for SettlePhase {
    fn pending(id: RobotId, n: usize) -> Self {
        SettlePhase {
            id,
            n,
            k_seen: n,
            start: u64::MAX,
            end: u64::MAX,
            machine: None,
        }
    }

    /// The phase runs `[start, start + dum_budget(n))` for a roster of
    /// `ids.len()` robots.
    fn schedule(&mut self, start: u64, ids: &[RobotId]) {
        self.start = start;
        self.end = start + dum_budget(self.n);
        self.k_seen = ids.len().max(1);
    }

    fn end(&self) -> u64 {
        self.end
    }

    fn active(&self, round: u64) -> bool {
        round >= self.start && round < self.end
    }

    /// Rank sub-rounds for up to `k` co-located robots.
    fn subrounds(&self) -> usize {
        DumMachine::subrounds_needed(self.k_seen.max(self.n))
    }

    fn running(&self) -> bool {
        self.machine.is_some()
    }

    /// Start the machine with the phase's capacity.
    fn begin(&mut self, map: PortGraph) {
        self.machine = Some(DumMachine::with_capacity(self.id, map, 0, self.capacity()));
    }

    fn act(&mut self, obs: &Observation<'_, Msg>) -> Option<Msg> {
        self.machine.as_mut().and_then(|m| m.act(obs))
    }

    fn decide_move(&mut self) -> MoveChoice {
        self.machine
            .as_mut()
            .map_or(MoveChoice::Stay, |m| m.decide_move())
    }
}

/// How a map-finding row turns the roster snapshot into its run schedule,
/// the per-run maps into the map its tail starts on, and which tail runs.
/// Implemented by the Theorem 2–3 scheme (two one-robot runs per pairing
/// window, majority over the robot's own maps), the Theorem 4 scheme
/// (three ID-ordered thirds, 2-of-3 majority), the Theorem 5 scheme
/// (`2f+1` helper groups, Byzantine-majority reconciliation) and the
/// Theorem 6–7 scheme (one run over ID-ordered halves, rank walk);
/// [`GroupPhaseController`] supplies everything else.
pub trait GroupScheme: Send {
    /// The phase after the runs.
    type Tail: GroupTail;

    /// Build the sequential, non-overlapping run specs from the sorted
    /// snapshot `ids`, the graph size, and the absolute round the first
    /// run starts.
    fn plan_runs(&mut self, ids: &[RobotId], n: usize, first_start: u64) -> Vec<GroupRunSpec>;

    /// Pick the tail's map from the maps the runs yielded, in run order.
    /// `None` degrades to a trivial single-node map (possible only beyond
    /// tolerance; the verifier reports the failure).
    fn choose_map(&self, votes: &[Option<CanonicalForm>]) -> Option<CanonicalForm>;
}

/// The shared controller scaffold of the map-finding rows: hand the engine
/// the gather script (if any) as the prelude, wait out the gathering
/// budget, snapshot the roster, drive the scheme's sequential
/// [`GroupRun`]s, then run the scheme's tail.
pub struct GroupPhaseController<S: GroupScheme> {
    id: RobotId,
    n: usize,
    scheme: S,
    gather_script: Prelude,
    snapshot_round: u64,
    runs: Vec<GroupRun>,
    /// Index of the first run not yet over; rounds only move forward, so
    /// the active run is found without a search.
    cursor: usize,
    tail: S::Tail,
}

impl<S: GroupScheme> GroupPhaseController<S> {
    /// The robot walks its `gather_script` (its prelude, which the engine
    /// applies) in the shared gathering phase `[0, gather_budget)`, idles
    /// out the rest of it, and snapshots the roster at round
    /// `gather_budget` (round 0 for a gathered start: empty script, zero
    /// budget). Scripts of robots whose walks merged share one tail.
    pub fn with_scheme(
        id: RobotId,
        n: usize,
        scheme: S,
        gather_script: impl Into<Prelude>,
        gather_budget: u64,
    ) -> Self {
        GroupPhaseController {
            id,
            n,
            scheme,
            gather_script: gather_script.into(),
            snapshot_round: gather_budget,
            runs: Vec::new(),
            cursor: 0,
            tail: S::Tail::pending(id, n),
        }
    }

    /// Derive the run schedule and tail bounds from a roster snapshot.
    /// Called internally at the snapshot round; public so timeline tests
    /// can drive the schedule without an engine.
    pub fn snapshot(&mut self, ids: &[RobotId]) {
        let first_start = self.snapshot_round + 1;
        let specs = self.scheme.plan_runs(ids, self.n, first_start);
        let tail_start = specs.last().map_or(first_start, |s| s.end);
        self.tail.schedule(tail_start, ids);
        self.runs = specs
            .into_iter()
            .map(|spec| GroupRun::new(spec, self.id, self.n))
            .collect();
        self.cursor = 0;
    }

    /// The run active at `round`, after finishing every run that ended
    /// before it.
    fn run_at(&mut self, round: u64) -> Option<&mut GroupRun> {
        while let Some(run) = self
            .runs
            .get_mut(self.cursor)
            .filter(|r| r.spec.end <= round)
        {
            run.finish();
            self.cursor += 1;
        }
        self.runs.get_mut(self.cursor).filter(|r| r.active(round))
    }

    /// The scheme driving this controller.
    pub fn scheme(&self) -> &S {
        &self.scheme
    }

    /// The tail phase for inspection.
    pub fn tail(&self) -> &S::Tail {
        &self.tail
    }

    /// The scheduled group runs (empty before the snapshot).
    pub fn runs(&self) -> &[GroupRun] {
        &self.runs
    }
}

impl<S: GroupScheme> Controller<Msg> for GroupPhaseController<S> {
    fn id(&self) -> RobotId {
        self.id
    }

    fn subrounds_wanted(&self, round: u64) -> usize {
        if self.tail.active(round) {
            self.tail.subrounds()
        } else if round > self.snapshot_round {
            2
        } else {
            1
        }
    }

    fn act(&mut self, obs: &Observation<'_, Msg>) -> Option<Msg> {
        if obs.round == self.snapshot_round && !self.tail.scheduled() && obs.subround == 0 {
            let ids = snapshot_ids(obs.roster);
            self.snapshot(&ids);
            return None;
        }
        if let Some(run) = self.run_at(obs.round) {
            return run.act(obs);
        }
        if self.tail.active(obs.round) {
            if !self.tail.running() {
                let votes: Vec<_> = self.runs.iter_mut().map(|r| r.accepted.take()).collect();
                let map = self
                    .scheme
                    .choose_map(&votes)
                    .map(|form| form.to_graph())
                    .unwrap_or_else(|| {
                        // No quorum/majority (possible only beyond
                        // tolerance): degrade to a single-node map; the
                        // robot stays at the gathering node and the
                        // verifier reports the failure.
                        PortGraph::from_adjacency(vec![vec![]]).expect("trivial map")
                    });
                self.tail.begin(map);
            }
            return self.tail.act(obs);
        }
        None
    }

    fn decide_move(&mut self, obs: &Observation<'_, Msg>) -> MoveChoice {
        if let Some(run) = self.run_at(obs.round) {
            return run.decide_move(obs.round, obs.degree);
        }
        if self.tail.active(obs.round) {
            return self.tail.decide_move();
        }
        MoveChoice::Stay
    }

    fn intent(&self, round: u64) -> Intent {
        if self.tail.scheduled() && round >= self.tail.end() {
            return Intent::Done;
        }
        if round < self.snapshot_round {
            return Intent::Idle(self.snapshot_round);
        }
        match self.runs[self.cursor..].iter().find(|r| r.active(round)) {
            Some(run) => run.idle_until(round),
            None => self.tail.idle_until(round),
        }
        .map_or(Intent::Act, Intent::Idle)
    }

    /// The gather script: gathering reads and publishes nothing.
    fn prelude(&self) -> Prelude {
        self.gather_script.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u64]) -> Vec<RobotId> {
        v.iter().map(|&i| RobotId(i)).collect()
    }

    #[test]
    fn snapshot_sorts_and_dedups() {
        let roster = ids(&[5, 2, 9, 2, 5]);
        assert_eq!(snapshot_ids(&roster), ids(&[2, 5, 9]));
    }

    #[test]
    fn partition3_sizes() {
        let s = ids(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let (a, b, c) = partition3(&s);
        assert_eq!(a, ids(&[1, 2, 3]));
        assert_eq!(b, ids(&[4, 5, 6]));
        assert_eq!(c, ids(&[7, 8, 9, 10]));
    }

    #[test]
    fn partition2_sizes() {
        let s = ids(&[1, 2, 3, 4, 5]);
        let (a, b) = partition2(&s);
        assert_eq!(a, ids(&[1, 2]));
        assert_eq!(b, ids(&[3, 4, 5]));
    }

    #[test]
    fn run_spec_boundaries() {
        let spec = GroupRunSpec {
            agents: Default::default(),
            token: Default::default(),
            instr_threshold: 1,
            presence_threshold: 1,
            vote: VoteRule::Quorum(1),
            start: 100,
            work: 50,
            end: 202,
        };
        assert_eq!(spec.work_deadline(), 150);
        assert_eq!(spec.walk_end(), 200);
        let own = GroupRunSpec {
            vote: VoteRule::OwnMap,
            ..spec
        };
        assert_eq!(own.walk_end(), 202);
    }
}
