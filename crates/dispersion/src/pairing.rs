//! The all-pairs pairing schedule of §3.1.
//!
//! Gathered robots must each pair with every other robot to run the token
//! map-finding algorithm. The paper's schedule proceeds in `⌈log k⌉` stages
//! of recursive halving: a group splits into halves `G0`/`G1` (padding `G1`
//! with a dummy if odd), and in window `j` robot `G0[x]` pairs with
//! `G1[(x + j) mod h]`. Cross-pairs complete in `h` windows; the recursion
//! then pairs within each half. Total windows `O(k)`, total rounds
//! `O(k · T₂) = O(n⁴)`.
//!
//! Every robot computes the identical schedule from the sorted snapshot
//! roster — no coordination needed.

use bd_runtime::RobotId;

/// The full schedule as a direct lookup table: per robot (dense, in sorted
/// ID order), the partner of every window. The half rows' scheme
/// ([`crate::algos::half::PairScheme`]) queries [`PairingSchedule::partner_in`]
/// once per window of its robot when it lays out the runs at the roster
/// snapshot: a binary search over `ids` plus one indexed load.
#[derive(Debug, Clone)]
pub struct PairingSchedule {
    /// Sorted distinct robot IDs; row `r` of `table` belongs to `ids[r]`.
    ids: Vec<RobotId>,
    /// `table[r][w]` is robot `ids[r]`'s partner in window `w`; `None`
    /// means the robot idles that window out (not scheduled, or drew the
    /// dummy slot of an odd split).
    table: Vec<Vec<Option<RobotId>>>,
    /// Total number of windows across all stages.
    pub total_windows: u64,
}

impl PairingSchedule {
    /// The sorted snapshot IDs the schedule was built from.
    pub fn ids(&self) -> &[RobotId] {
        &self.ids
    }

    /// The robot's partner in a given window, if any. O(log k) for the ID
    /// lookup, O(1) in the window number.
    pub fn partner_in(&self, id: RobotId, window: u64) -> Option<RobotId> {
        let row = self.ids.binary_search(&id).ok()?;
        self.table[row].get(window as usize).copied().flatten()
    }
}

/// Compute the schedule for a sorted list of distinct robot IDs.
///
/// Panics if `ids` is unsorted or has duplicates — the roster snapshot
/// guarantees both.
pub fn pairing_schedule(ids: &[RobotId]) -> PairingSchedule {
    assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "ids must be sorted and distinct"
    );
    let index_of = |id: RobotId| ids.binary_search(&id).expect("id in snapshot");
    let mut table: Vec<Vec<Option<RobotId>>> = vec![Vec::new(); ids.len()];
    let set = |table: &mut Vec<Vec<Option<RobotId>>>, id: RobotId, w: u64, p: Option<RobotId>| {
        let row = &mut table[index_of(id)];
        if row.len() <= w as usize {
            row.resize(w as usize + 1, None);
        }
        row[w as usize] = p;
    };
    let mut next_window = 0u64;
    // Groups at the current recursion level.
    let mut level: Vec<Vec<RobotId>> = vec![ids.to_vec()];
    while level.iter().any(|g| g.len() > 1) {
        // Every group at this level splits; all halves pair concurrently in
        // this level's windows. The number of windows at the level is the
        // largest half size.
        let mut splits: Vec<(Vec<RobotId>, Vec<RobotId>)> = Vec::new();
        for g in &level {
            if g.len() <= 1 {
                splits.push((g.clone(), Vec::new()));
                continue;
            }
            let h = g.len().div_ceil(2);
            splits.push((g[..h].to_vec(), g[h..].to_vec()));
        }
        let level_windows = splits.iter().map(|(g0, _)| g0.len()).max().unwrap_or(0) as u64;
        for (g0, g1) in &splits {
            if g1.is_empty() {
                continue;
            }
            let h = g0.len();
            for j in 0..h as u64 {
                for (x, &a) in g0.iter().enumerate() {
                    let slot = (x + j as usize) % h;
                    // G1 padded with a dummy when smaller than G0.
                    let partner = g1.get(slot).copied();
                    set(&mut table, a, next_window + j, partner);
                    if let Some(b) = partner {
                        set(&mut table, b, next_window + j, Some(a));
                    }
                }
            }
        }
        next_window += level_windows;
        level = splits
            .into_iter()
            .flat_map(|(a, b)| [a, b])
            .filter(|g| !g.is_empty())
            .collect();
    }
    // Pad every row to the full window count so lookups are pure loads.
    for row in &mut table {
        row.resize(next_window as usize, None);
    }
    PairingSchedule {
        ids: ids.to_vec(),
        table,
        total_windows: next_window,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(k: usize) -> Vec<RobotId> {
        (1..=k as u64).map(|i| RobotId(i * 10)).collect()
    }

    /// Every unordered pair appears in at least one window.
    #[test]
    fn all_pairs_covered() {
        for k in 2..=17 {
            let ids = ids(k);
            let s = pairing_schedule(&ids);
            let mut covered = std::collections::HashSet::<(RobotId, RobotId)>::new();
            for &a in s.ids() {
                for w in 0..s.total_windows {
                    if let Some(b) = s.partner_in(a, w) {
                        covered.insert((a.min(b), a.max(b)));
                    }
                }
            }
            for i in 0..k {
                for j in i + 1..k {
                    assert!(
                        covered.contains(&(ids[i], ids[j])),
                        "k={k}: pair ({:?},{:?}) uncovered",
                        ids[i],
                        ids[j]
                    );
                }
            }
        }
    }

    /// A robot is never scheduled against itself, and unknown robots or
    /// out-of-range windows answer `None` (pure-lookup semantics).
    #[test]
    fn lookup_is_total_and_sane() {
        for k in 2..=17 {
            let s = pairing_schedule(&ids(k));
            for &a in s.ids() {
                for w in 0..s.total_windows {
                    assert_ne!(s.partner_in(a, w), Some(a), "self-pairing at {w}");
                }
                assert_eq!(s.partner_in(a, s.total_windows), None);
                assert_eq!(s.partner_in(a, u64::MAX), None);
            }
            assert_eq!(s.partner_in(RobotId(999_999), 0), None);
        }
    }

    /// Pairings are symmetric: if a is scheduled with b in window j, then b
    /// is scheduled with a in window j.
    #[test]
    fn symmetry() {
        let s = pairing_schedule(&ids(11));
        for &a in s.ids() {
            for w in 0..s.total_windows {
                if let Some(b) = s.partner_in(a, w) {
                    assert_eq!(s.partner_in(b, w), Some(a));
                }
            }
        }
    }

    /// Total window count is O(k): concretely <= 2k for all tested sizes.
    #[test]
    fn window_count_linear() {
        for k in 2..=40 {
            let s = pairing_schedule(&ids(k));
            assert!(
                s.total_windows <= 2 * k as u64,
                "k={k}: {} windows",
                s.total_windows
            );
        }
    }

    #[test]
    fn single_robot_trivial() {
        let s = pairing_schedule(&[RobotId(5)]);
        assert_eq!(s.total_windows, 0);
        assert_eq!(s.partner_in(RobotId(5), 0), None);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_rejected() {
        let _ = pairing_schedule(&[RobotId(2), RobotId(1)]);
    }
}
