//! Majority and quorum voting over rooted canonical maps.
//!
//! All honest map-finding runs that start from the same gathering node
//! produce maps with identical *rooted canonical forms*
//! ([`bd_graphs::canonical`]), so "the map constructed the majority of
//! times" (§3.1) reduces to counting equal canonical forms.

use bd_graphs::CanonicalForm;
use bd_runtime::RobotId;
use std::collections::{BTreeMap, BTreeSet};

/// Plurality over a robot's collected per-run maps among the forms that at
/// least `min_support` runs produced. `None` votes (failed runs) never
/// win. Ties are broken toward the smaller canonical form so all honest
/// robots resolve identically; `None` when no form has the support.
///
/// With `min_support = 1` this is §3.1's rule (each robot takes the map
/// formed by the majority of its pairings; Theorems 2–4). With `f + 1` it
/// is §3.3's Byzantine-majority reconciliation (Theorem 5): runs led by
/// groups containing Byzantine members number at most `f`, so no
/// coordinated wrong form can reach that bar while the true map always
/// does within tolerance — the bar filters before any tie-break applies.
pub fn majority_map(votes: &[Option<CanonicalForm>], min_support: usize) -> Option<CanonicalForm> {
    let mut counts: BTreeMap<&CanonicalForm, usize> = BTreeMap::new();
    for form in votes.iter().flatten() {
        *counts.entry(form).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .filter(|&(_, c)| c >= min_support)
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(a.0)))
        .map(|(form, _)| form.clone())
}

/// Quorum acceptance for group runs (§3.2, §4): accept the map voted for by
/// at least `threshold` *distinct eligible senders*. Duplicated claims from
/// one sender count once — the defense against strong Byzantine ID forgery.
/// Returns `None` when no form reaches the quorum; if several do (only
/// possible with `threshold` below half the eligible set), the smallest
/// canonical form wins deterministically.
pub fn quorum_map(
    votes: &[(RobotId, CanonicalForm)],
    eligible: &BTreeSet<RobotId>,
    threshold: usize,
) -> Option<CanonicalForm> {
    let mut supporters: BTreeMap<&CanonicalForm, BTreeSet<RobotId>> = BTreeMap::new();
    for (sender, form) in votes {
        if eligible.contains(sender) {
            supporters.entry(form).or_default().insert(*sender);
        }
    }
    supporters
        .into_iter()
        .filter(|(_, s)| s.len() >= threshold.max(1))
        .map(|(form, _)| form)
        .min()
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_graphs::canonical::canonical_form;
    use bd_graphs::generators::{path, ring, star};

    fn form_a() -> CanonicalForm {
        canonical_form(&ring(5).unwrap(), 0)
    }
    fn form_b() -> CanonicalForm {
        canonical_form(&path(5).unwrap(), 0)
    }
    fn form_c() -> CanonicalForm {
        canonical_form(&star(5).unwrap(), 0)
    }

    /// The smallest nontrivial form: it wins any tie-break it reaches.
    fn form_garbage() -> CanonicalForm {
        canonical_form(&path(2).unwrap(), 0)
    }

    #[test]
    fn majority_wins() {
        let votes = vec![Some(form_a()), Some(form_b()), Some(form_a()), None];
        assert_eq!(majority_map(&votes, 1), Some(form_a()));
    }

    #[test]
    fn support_bar_filters_before_the_tie_break() {
        // The garbage form is lexicographically smaller than the true map,
        // so a plain plurality tie-break would be dangerous; at f = 1 the
        // f + 1 bar filters it first.
        assert!(form_garbage() < form_a());
        let votes = vec![
            Some(form_garbage()),
            Some(form_a()),
            Some(form_a()),
            None,
            None,
        ];
        assert_eq!(majority_map(&votes, 2), Some(form_a()));
        let tied = vec![Some(form_garbage()), Some(form_a())];
        assert_eq!(majority_map(&tied, 1), Some(form_garbage()));
        assert_eq!(majority_map(&tied, 2), None);
    }

    #[test]
    fn all_failed_runs_yield_none() {
        for min_support in [1, 2] {
            assert_eq!(majority_map(&[None, None], min_support), None);
            assert_eq!(majority_map(&[None, None, None], min_support), None);
            assert_eq!(majority_map(&[], min_support), None);
        }
    }

    #[test]
    fn tie_breaks_deterministically() {
        let votes1 = vec![Some(form_a()), Some(form_b())];
        let votes2 = vec![Some(form_b()), Some(form_a())];
        assert_eq!(majority_map(&votes1, 1), majority_map(&votes2, 1));
    }

    #[test]
    fn quorum_counts_distinct_senders_only() {
        let eligible: BTreeSet<RobotId> = [RobotId(1), RobotId(2), RobotId(3)].into();
        // Sender 1 spams the same garbage vote three times.
        let votes = vec![
            (RobotId(1), form_b()),
            (RobotId(1), form_b()),
            (RobotId(1), form_b()),
            (RobotId(2), form_a()),
            (RobotId(3), form_a()),
        ];
        assert_eq!(quorum_map(&votes, &eligible, 2), Some(form_a()));
    }

    #[test]
    fn ineligible_senders_ignored() {
        let eligible: BTreeSet<RobotId> = [RobotId(1), RobotId(2)].into();
        let votes = vec![
            (RobotId(9), form_c()),
            (RobotId(8), form_c()),
            (RobotId(1), form_a()),
            (RobotId(2), form_a()),
        ];
        assert_eq!(quorum_map(&votes, &eligible, 2), Some(form_a()));
    }

    #[test]
    fn below_quorum_is_none() {
        let eligible: BTreeSet<RobotId> = [RobotId(1), RobotId(2), RobotId(3)].into();
        let votes = vec![(RobotId(1), form_a())];
        assert_eq!(quorum_map(&votes, &eligible, 2), None);
    }
}
