//! Token replication for the §3.3 construction: helper-group partition,
//! per-run replica specs, and Byzantine-majority reconciliation.
//!
//! With `f = O(√n)` the gathering is split into `2f + 1` ID-ordered helper
//! groups of (roughly) `√n` robots each. Every group takes the agent seat
//! for exactly one map-finding run while the token role is *replicated*
//! across the union of the remaining groups. Quorums on both sides are
//! `f + 1` distinct IDs, so:
//!
//! * the token moves only on instructions the Byzantine coalition (at most
//!   `f` distinct weak IDs) can never forge alone;
//! * the agent senses the token as present only where at least one honest
//!   replica actually stands;
//! * an accepted per-run map carries at least one honest agent vote.
//!
//! At most `f` of the `2f + 1` groups contain a Byzantine member, so at
//! least `f + 1` runs are led by fully honest groups and reconstruct the
//! true map. The scheme's vote ([`crate::mapvote::majority_map`] with a
//! minimum support of `f + 1`) therefore accepts exactly the form that at
//! least `f + 1` runs agree on.

use bd_runtime::RobotId;

/// The largest fault bound a `k`-robot gathering can actually support:
/// the construction needs `2f + 1` helper groups of at least `f + 1`
/// members each, so the biggest `f` with `(2f + 1)(f + 1) ≤ k` (0 on tiny
/// gatherings, where only the fault-free construction is sound).
pub fn supported_f_bound(k: usize) -> usize {
    let mut f = 0usize;
    while (2 * (f + 1) + 1) * (f + 2) <= k {
        f += 1;
    }
    f
}

/// Number of helper groups for `k` gathered robots under fault bound `f`.
///
/// The construction wants `2f + 1` groups (so a strict majority is fully
/// honest) after clamping `f` to what `k` supports
/// ([`supported_f_bound`]); at least two groups whenever `k ≥ 2`, so the
/// replicated token side is never empty.
pub fn helper_group_count(k: usize, f: usize) -> usize {
    let f_eff = f.min(supported_f_bound(k));
    (2 * f_eff + 1).max(2.min(k)).max(1)
}

/// The replication layout one robot derives from the roster snapshot.
/// Deterministic in the sorted ID list and `f`, so every honest robot
/// builds the identical plan with zero communication.
#[derive(Debug, Clone)]
pub struct ReplicationPlan {
    /// ID-ordered helper groups, contiguous in the sorted roster.
    groups: Vec<Vec<RobotId>>,
    /// The distinct-ID quorum (`f + 1`) used for instructions, presence,
    /// and votes in every run.
    quorum: usize,
    /// The fault bound the plan was sized against.
    f_bound: usize,
}

impl ReplicationPlan {
    /// Partition the sorted snapshot `ids` into helper groups under fault
    /// bound `f_bound`, clamped to what `k` supports (so quorums and the
    /// reconciliation bar stay reachable on small gatherings). Group sizes
    /// differ by at most one; the first `k mod g` groups take the extra
    /// member.
    pub fn build(ids: &[RobotId], f_bound: usize) -> Self {
        let k = ids.len();
        let f_bound = f_bound.min(supported_f_bound(k));
        let g = helper_group_count(k, f_bound);
        let base = k / g;
        let rem = k % g;
        let mut groups = Vec::with_capacity(g);
        let mut at = 0usize;
        for j in 0..g {
            let size = base + usize::from(j < rem);
            groups.push(ids[at..at + size].to_vec());
            at += size;
        }
        debug_assert_eq!(at, k);
        ReplicationPlan {
            groups,
            quorum: f_bound + 1,
            f_bound,
        }
    }

    /// Number of sequential replication runs (= number of groups).
    pub fn num_runs(&self) -> usize {
        self.groups.len()
    }

    /// The distinct-ID quorum shared by every threshold of every run.
    pub fn quorum(&self) -> usize {
        self.quorum
    }

    /// The fault bound this plan was built for.
    pub fn f_bound(&self) -> usize {
        self.f_bound
    }

    /// The agent group of run `j`.
    pub fn agents_of(&self, j: usize) -> &[RobotId] {
        &self.groups[j]
    }

    /// The replicated token of run `j`: every snapshot member outside the
    /// agent seat.
    pub fn token_of(&self, j: usize) -> Vec<RobotId> {
        self.groups
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != j)
            .flat_map(|(_, g)| g.iter().copied())
            .collect()
    }

    /// Index of the group holding `id`, if it is in the snapshot.
    pub fn group_of(&self, id: RobotId) -> Option<usize> {
        self.groups.iter().position(|g| g.contains(&id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapvote::majority_map;
    use bd_graphs::canonical::canonical_form;
    use bd_graphs::generators::{path, ring, star};
    use bd_graphs::CanonicalForm;

    fn ids(v: std::ops::Range<u64>) -> Vec<RobotId> {
        v.map(RobotId).collect()
    }

    fn form_true() -> CanonicalForm {
        canonical_form(&ring(6).unwrap(), 0)
    }
    fn form_garbage() -> CanonicalForm {
        canonical_form(&path(2).unwrap(), 0)
    }
    fn form_other() -> CanonicalForm {
        canonical_form(&star(6).unwrap(), 0)
    }

    /// The scheme's reconciliation: the plan's `f + 1` quorum as the
    /// minimum support of the per-run vote.
    fn reconcile(plan: &ReplicationPlan, votes: &[Option<CanonicalForm>]) -> Option<CanonicalForm> {
        majority_map(votes, plan.quorum())
    }

    #[test]
    fn group_count_prefers_2f_plus_1() {
        assert_eq!(helper_group_count(9, 1), 3);
        assert_eq!(helper_group_count(16, 2), 5);
        assert_eq!(helper_group_count(32, 2), 5);
    }

    #[test]
    fn supported_f_matches_group_arithmetic() {
        // (2f+1)(f+1) <= k boundaries.
        assert_eq!(supported_f_bound(5), 0);
        assert_eq!(supported_f_bound(6), 1);
        assert_eq!(supported_f_bound(14), 1);
        assert_eq!(supported_f_bound(15), 2);
        assert_eq!(supported_f_bound(27), 2);
        assert_eq!(supported_f_bound(28), 3);
    }

    #[test]
    fn group_count_clamps_on_small_gatherings() {
        // k too small for 2f+1 groups of f+1 members each: the effective
        // fault bound drops to 0, but two groups remain so the replicated
        // token side is never empty.
        assert_eq!(helper_group_count(4, 1), 2);
        assert_eq!(helper_group_count(3, 1), 2);
        // Never zero groups; a lone robot gets a degenerate single group.
        assert_eq!(helper_group_count(1, 3), 1);
    }

    #[test]
    fn plan_clamps_quorum_to_supported_f() {
        // k = 5 cannot support f = 2 (needs 15 robots) nor even f = 1
        // (needs 6): the plan degrades to the fault-free construction with
        // reachable quorums rather than an unreachable f+1 bar.
        let plan = ReplicationPlan::build(&ids(1..6), 2);
        assert_eq!(plan.f_bound(), 0);
        assert_eq!(plan.quorum(), 1);
        assert_eq!(plan.num_runs(), 2);
    }

    #[test]
    fn plan_partitions_contiguously_and_completely() {
        let roster = ids(1..17); // k = 16
        let plan = ReplicationPlan::build(&roster, 2);
        assert_eq!(plan.num_runs(), 5);
        assert_eq!(plan.quorum(), 3);
        // Every group holds at least quorum members.
        let mut reunited = Vec::new();
        for j in 0..plan.num_runs() {
            assert!(plan.agents_of(j).len() >= plan.quorum());
            reunited.extend_from_slice(plan.agents_of(j));
        }
        assert_eq!(reunited, roster, "groups are contiguous and cover k");
    }

    #[test]
    fn token_is_the_complement_of_the_agent_seat() {
        let roster = ids(1..10);
        let plan = ReplicationPlan::build(&roster, 1);
        for j in 0..plan.num_runs() {
            let token = plan.token_of(j);
            assert_eq!(token.len(), roster.len() - plan.agents_of(j).len());
            assert!(token.iter().all(|t| !plan.agents_of(j).contains(t)));
        }
    }

    #[test]
    fn group_of_finds_every_member() {
        let roster = ids(1..10);
        let plan = ReplicationPlan::build(&roster, 1);
        for &id in &roster {
            let j = plan.group_of(id).expect("member");
            assert!(plan.agents_of(j).contains(&id));
        }
        assert_eq!(plan.group_of(RobotId(99)), None);
    }

    #[test]
    fn reconcile_accepts_the_majority_form() {
        // f = 1: three runs, one hijacked.
        let plan = ReplicationPlan::build(&ids(1..10), 1);
        assert_eq!(plan.quorum(), 2);
        let votes = vec![Some(form_true()), Some(form_garbage()), Some(form_true())];
        assert_eq!(reconcile(&plan, &votes), Some(form_true()));
    }

    #[test]
    fn reconcile_fails_closed_when_nothing_reaches_quorum() {
        // Beyond tolerance: every run produced something different.
        let plan = ReplicationPlan::build(&ids(1..10), 1);
        let votes = vec![Some(form_garbage()), Some(form_true()), Some(form_other())];
        assert_eq!(reconcile(&plan, &votes), None);
        assert_eq!(reconcile(&plan, &[None, None, None]), None);
        let fault_free = ReplicationPlan::build(&ids(1..3), 0);
        assert_eq!(reconcile(&fault_free, &[]), None);
    }

    #[test]
    fn reconcile_tie_breaks_deterministically() {
        // Two qualifying forms (possible only with f = 0): the smaller
        // wins, independent of vote order.
        let plan = ReplicationPlan::build(&ids(1..3), 0);
        assert_eq!(plan.quorum(), 1);
        let a = vec![Some(form_true()), Some(form_garbage())];
        let b = vec![Some(form_garbage()), Some(form_true())];
        assert_eq!(reconcile(&plan, &a), reconcile(&plan, &b));
        assert_eq!(reconcile(&plan, &a), Some(form_garbage()));
    }
}
