//! Per-robot gathering routes: the exact port script a robot follows.

use crate::error::GatherError;
use crate::plan::{gathering_target, GatherPlan};
use bd_exploration::walks::{cover_walk_length, SharedWalk};
use bd_graphs::navigate::shortest_path_ports;
use bd_graphs::{NodeId, Port, PortGraph};

/// Protocol tag for the gathering phase's shared walk (phases use distinct
/// tags so their pseudorandom walks are independent).
pub const GATHER_WALK_TAG: u64 = 0x6761_7468; // "gath"

/// A robot's precomputed gathering script.
#[derive(Debug, Clone)]
pub struct GatherRoute {
    /// Port sequence to execute, one port per round. After the script the
    /// robot idles in place until `budget_rounds` have elapsed.
    pub ports: Vec<Port>,
    /// Where the script ends (the gathering node).
    pub end: NodeId,
    /// Shared phase budget (same for all robots).
    pub budget_rounds: u64,
}

/// Compute the gathering route for a robot starting at `start`.
///
/// The route is: the shared exploration walk of `cover_walk_length(n)`
/// steps (the view-learning phase, charged as real movement), then the
/// quotient-path navigation to the canonical singleton class. Deterministic
/// and independent of other robots, hence Byzantine-immune.
pub fn gather_route(g: &PortGraph, start: NodeId) -> Result<GatherRoute, GatherError> {
    Ok(route_from(g, &gathering_target(g)?, start))
}

/// [`gather_route`] against an already chosen target: a caller routing
/// many robots on one graph computes [`gathering_target`] (a quotient
/// refinement plus canonical forms) once instead of once per robot.
pub fn route_from(g: &PortGraph, plan: &GatherPlan, start: NodeId) -> GatherRoute {
    let n = g.n();
    let mut ports = Vec::with_capacity(cover_walk_length(n) as usize + n);
    let mut walk = SharedWalk::for_size(n, GATHER_WALK_TAG);
    let mut cur = start;
    for _ in 0..cover_walk_length(n) {
        let p = walk.next_port(g.degree(cur));
        ports.push(p);
        cur = g.neighbor(cur, p).0;
    }
    // Navigate via the quotient graph: a path of classes projects onto a
    // real path; the target class is a singleton, so the endpoint is the
    // unique gathering node.
    let class_path = shortest_path_ports(
        &plan.quotient.graph,
        plan.quotient.class_of[cur],
        plan.target_class,
    )
    .expect("quotient graph of a connected graph is connected");
    for p in class_path {
        ports.push(p);
        cur = g.neighbor(cur, p).0;
    }
    debug_assert_eq!(cur, plan.target_node, "projection lands on the singleton");
    GatherRoute {
        ports,
        end: cur,
        budget_rounds: plan.budget_rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_graphs::generators::{erdos_renyi_connected, lollipop, ring, star};
    use bd_graphs::navigate::follow_ports;

    #[test]
    fn all_starts_converge_to_same_node() {
        for (g, label) in [
            (ring(9).unwrap(), "ring"),
            (star(7).unwrap(), "star"),
            (lollipop(4, 3).unwrap(), "lollipop"),
            (erdos_renyi_connected(12, 0.3, 8).unwrap(), "gnp"),
        ] {
            let mut ends = std::collections::HashSet::new();
            for start in 0..g.n() {
                let route = gather_route(&g, start).unwrap();
                // Verify the script really lands at the claimed end.
                assert_eq!(
                    follow_ports(&g, start, &route.ports).unwrap(),
                    route.end,
                    "{label}: script end mismatch"
                );
                ends.insert(route.end);
            }
            assert_eq!(ends.len(), 1, "{label}: all robots gather at one node");
        }
    }

    #[test]
    fn route_fits_budget() {
        let g = erdos_renyi_connected(10, 0.3, 4).unwrap();
        for start in 0..g.n() {
            let route = gather_route(&g, start).unwrap();
            assert!(route.ports.len() as u64 <= route.budget_rounds);
        }
    }

    #[test]
    fn routes_deterministic() {
        let g = ring(8).unwrap();
        let a = gather_route(&g, 3).unwrap();
        let b = gather_route(&g, 3).unwrap();
        assert_eq!(a.ports, b.ports);
        assert_eq!(a.end, b.end);
    }

    #[test]
    fn infeasible_graph_reports_error() {
        let g = bd_graphs::generators::oriented_ring(6).unwrap();
        assert!(gather_route(&g, 0).is_err());
    }
}
