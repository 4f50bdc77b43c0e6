//! Theorem 8, executable: no deterministic algorithm solves Byzantine
//! dispersion of `k` robots when `⌈k/n⌉ > ⌈(k − f)/n⌉`.
//!
//! The proof is a replay construction. Run any deterministic algorithm `A`
//! fault-free; some node receives `⌈k/n⌉` robots. Re-run with `f` Byzantine
//! robots that *replay their recorded fault-free behavior* — the honest
//! robots cannot distinguish the executions, so the same `⌈k/n⌉` robots
//! land on one node. If all of them are honest in the second run, the node
//! exceeds the allowed `⌈(k − f)/n⌉`.
//!
//! [`replay_experiment`] performs both runs against our deterministic
//! baseline and reports whether the violation materialized — it must,
//! whenever the theorem's inequality holds and enough non-target robots
//! exist to host the Byzantine replicas.

use crate::adversaries::ReplayController;
use crate::algos::baseline::BaselineController;
use crate::msg::Msg;
use bd_graphs::PortGraph;
use bd_runtime::ids::generate_ids;
use bd_runtime::{Engine, EngineConfig, Flavor};
use serde::{Deserialize, Serialize};

/// Outcome of the two-run replay construction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ImpossibilityResult {
    /// Robots, Byzantine robots, nodes.
    pub k: usize,
    pub f: usize,
    pub n: usize,
    /// `⌈k/n⌉`: per-node load the fault-free run must reach somewhere.
    pub load_faultfree: usize,
    /// `⌈(k − f)/n⌉`: per-node honest load Byzantine dispersion allows.
    pub capacity_allowed: usize,
    /// Largest honest co-location produced by the replay run.
    pub max_honest_per_node: usize,
    /// Whether the dispersion condition was violated.
    pub violated: bool,
    /// Whether Theorem 8 predicts a violation (`⌈k/n⌉ > ⌈(k−f)/n⌉`).
    pub theorem_predicts: bool,
}

/// Run the Theorem 8 construction for `k` robots (`f` Byzantine) on `g`.
///
/// Requires `k - ceil(k/n) >= f` (enough robots outside the target node to
/// host the replicas) — otherwise returns `None`.
pub fn replay_experiment(
    g: &PortGraph,
    k: usize,
    f: usize,
    seed: u64,
) -> Option<ImpossibilityResult> {
    let n = g.n();
    if k == 0 || f >= k {
        return None;
    }
    let load = k.div_ceil(n);
    let capacity_allowed = (k - f).div_ceil(n);
    if k < load || k - load < f {
        return None;
    }
    let ids = generate_ids(k, n.max(2), seed);

    // Run 1: fault-free, traced.
    let mut e1: Engine<Msg> = Engine::new(
        g.clone(),
        EngineConfig::with_max_rounds(10_000 + 4 * n as u64).traced(),
    );
    for &id in &ids {
        e1.add_robot(
            Flavor::Honest,
            0,
            Box::new(BaselineController::new(id, g.clone(), 0, load)),
        );
    }
    let out1 = e1
        .run_epoch(u64::MAX)
        .expect("fault-free baseline completes");
    let trace1 = e1.into_trace();

    // Locate a node with the full load; its occupants stay honest.
    let mut per_node: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for (i, &p) in out1.final_positions.iter().enumerate() {
        per_node.entry(p).or_default().push(i);
    }
    let (_, target_members) = per_node
        .into_iter()
        .max_by_key(|(_, v)| v.len())
        .expect("robots exist");
    let protected: std::collections::BTreeSet<usize> = target_members.into_iter().collect();

    // Choose f replicas among the non-protected robots.
    let replicas: Vec<usize> = (0..k).filter(|i| !protected.contains(i)).take(f).collect();
    let replica_set: std::collections::BTreeSet<usize> = replicas.into_iter().collect();

    // Run 2: replicas replay their recorded scripts as weak Byzantine
    // robots; everyone else runs the algorithm unchanged.
    let mut e2: Engine<Msg> = Engine::new(
        g.clone(),
        EngineConfig::with_max_rounds(10_000 + 4 * n as u64),
    );
    let mut honest_mask = Vec::with_capacity(k);
    for (i, &id) in ids.iter().enumerate() {
        if replica_set.contains(&i) {
            let script = trace1.move_script(id);
            e2.add_robot(
                Flavor::WeakByzantine,
                0,
                Box::new(ReplayController::new(id, script)),
            );
            honest_mask.push(false);
        } else {
            e2.add_robot(
                Flavor::Honest,
                0,
                Box::new(BaselineController::new(id, g.clone(), 0, load)),
            );
            honest_mask.push(true);
        }
    }
    let out2 = e2.run_epoch(u64::MAX).expect("replay run completes");
    e2.into_trace();

    let report = crate::verify::verify_with_capacity(
        &out2.final_positions,
        &honest_mask,
        &ids,
        capacity_allowed,
    );
    Some(ImpossibilityResult {
        k,
        f,
        n,
        load_faultfree: load,
        capacity_allowed,
        max_honest_per_node: report.max_honest_per_node,
        violated: !report.ok,
        theorem_predicts: load > capacity_allowed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_graphs::generators::{erdos_renyi_connected, ring};

    #[test]
    fn violation_when_theorem_predicts() {
        // k = 2n, f = n: ceil(k/n) = 2 > ceil((k-f)/n) = 1.
        let g = ring(5).unwrap();
        let r = replay_experiment(&g, 10, 5, 3).unwrap();
        assert!(r.theorem_predicts);
        assert!(r.violated, "replay must force a violation: {r:?}");
        assert!(r.max_honest_per_node > r.capacity_allowed);
    }

    #[test]
    fn no_violation_when_f_small() {
        // f small enough that ceil(k/n) == ceil((k-f)/n): the attack is
        // harmless by definition.
        let g = ring(5).unwrap();
        let r = replay_experiment(&g, 10, 3, 3).unwrap();
        assert!(!r.theorem_predicts);
        assert!(!r.violated, "{r:?}");
    }

    #[test]
    fn boundary_grid() {
        let g = erdos_renyi_connected(6, 0.4, 1).unwrap();
        for k in [6usize, 9, 12, 18] {
            for f in 0..k.min(10) {
                let Some(r) = replay_experiment(&g, k, f, 7) else {
                    continue;
                };
                assert_eq!(
                    r.violated, r.theorem_predicts,
                    "k={k} f={f}: experiment must match the theorem: {r:?}"
                );
            }
        }
    }
}
