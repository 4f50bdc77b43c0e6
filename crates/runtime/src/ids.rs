//! Robot identities and fault flavors.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A robot's unique identifier, drawn from `[1, n^c]` for a constant `c > 1`
/// (paper §1.1). IDs are comparable; many tie-breaks in the paper's
/// procedures are "minimum ID wins".
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct RobotId(pub u64);

impl RobotId {
    /// Length of the ID in bits — `|Λ|` in the paper's complexity bounds.
    pub fn bit_length(self) -> u32 {
        64 - self.0.leading_zeros()
    }
}

impl fmt::Display for RobotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// How the engine treats a robot's identity and honesty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Flavor {
    /// Follows its controller, identity stamped truthfully.
    Honest,
    /// May behave arbitrarily but its publications carry its true ID
    /// (it "cannot fake its ID", after Dieudonné–Pelc–Peleg \[24\]).
    WeakByzantine,
    /// May behave arbitrarily *and* claim any ID, including an honest
    /// robot's ID (§4).
    StrongByzantine,
}

impl Flavor {
    /// True if the engine lets this robot choose its claimed ID.
    pub fn can_fake_id(self) -> bool {
        matches!(self, Flavor::StrongByzantine)
    }
}

/// Generate `k` distinct robot IDs in `[1, n^c]`, deterministically from a
/// seed, matching the paper's ID-space assumption (`c = 3` by default so the
/// space is comfortably larger than `n`).
pub fn generate_ids(k: usize, n: usize, seed: u64) -> Vec<RobotId> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let space = (n as u64).saturating_pow(3).max(k as u64 + 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chosen = std::collections::BTreeSet::new();
    while chosen.len() < k {
        chosen.insert(rng.gen_range(1..=space));
    }
    chosen.into_iter().map(RobotId).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_distinct_and_in_range() {
        let ids = generate_ids(20, 10, 7);
        assert_eq!(ids.len(), 20);
        let max = 10u64.pow(3);
        assert!(ids.iter().all(|id| id.0 >= 1 && id.0 <= max));
        let set: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(set.len(), 20);
    }

    #[test]
    fn ids_deterministic_in_seed() {
        assert_eq!(generate_ids(8, 16, 3), generate_ids(8, 16, 3));
        assert_ne!(generate_ids(8, 16, 3), generate_ids(8, 16, 4));
    }

    #[test]
    fn bit_length_matches() {
        assert_eq!(RobotId(1).bit_length(), 1);
        assert_eq!(RobotId(255).bit_length(), 8);
        assert_eq!(RobotId(256).bit_length(), 9);
    }

    #[test]
    fn flavor_predicates() {
        assert!(!Flavor::WeakByzantine.can_fake_id());
        assert!(Flavor::StrongByzantine.can_fake_id());
    }

    #[test]
    fn small_id_space_still_yields_distinct_ids() {
        // k close to the space size must still terminate.
        let ids = generate_ids(5, 2, 1);
        assert_eq!(ids.len(), 5);
    }
}
