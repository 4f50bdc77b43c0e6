//! Per-robot gathering routes: the exact ports a robot follows.

use crate::error::GatherError;
use crate::plan::{gathering_target, GatherPlan};
use bd_exploration::walks::{cover_walk_length, lockstep_walk, SharedWalk};
use bd_graphs::navigate::shortest_path_ports;
use bd_graphs::{NodeId, PortGraph};
use bd_runtime::Prelude;

/// Protocol tag for the gathering phase's shared walk (phases use distinct
/// tags so their pseudorandom walks are independent).
pub const GATHER_WALK_TAG: u64 = 0x6761_7468; // "gath"

/// Compute the gathering route for a robot starting at `start`.
///
/// The route is: the shared exploration walk of `cover_walk_length(n)`
/// steps (the view-learning phase, charged as real movement), then the
/// quotient-path navigation to the canonical singleton class. Deterministic
/// and independent of other robots, hence Byzantine-immune. The robot then
/// idles in place until the plan's `budget_rounds` have elapsed.
pub fn gather_route(g: &PortGraph, start: NodeId) -> Result<Prelude, GatherError> {
    Ok(gather_routes(g, &gathering_target(g)?, &[start]).remove(0))
}

/// [`gather_route`] for every start in `starts` (in order), against an
/// already chosen target, built in one lockstep pass of the shared walk
/// (see [`lockstep_walk`]): each route is its start's own short head, then
/// a tail shared by every start whose walk merged with it. The tail ends
/// with the quotient-path navigation, which depends only on where the walk
/// ended, so it is shared too.
pub fn gather_routes(g: &PortGraph, plan: &GatherPlan, starts: &[NodeId]) -> Vec<Prelude> {
    let n = g.n();
    let walk = SharedWalk::for_size(n, GATHER_WALK_TAG);
    lockstep_walk(g, walk, cover_walk_length(n), starts, |ports, mut cur| {
        // Navigate via the quotient graph: a path of classes projects onto
        // a real path; the target class is a singleton, so the endpoint is
        // the unique gathering node.
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
    })
    .into_iter()
    .map(|(route, _)| route)
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_graphs::generators::{asymmetric_gnp, erdos_renyi_connected, lollipop, ring, star};
    use bd_graphs::navigate::follow_ports;
    use bd_graphs::Port;
    use std::sync::Arc;

    /// The gathering route from `start`, walked one robot at a time: the
    /// shared walk's draws taken as `draw % degree`, then the quotient
    /// path to the target.
    fn reference_route(g: &PortGraph, plan: &GatherPlan, start: NodeId) -> Vec<Port> {
        let mut walk = SharedWalk::for_size(g.n(), GATHER_WALK_TAG);
        let mut ports = Vec::new();
        let mut cur = start;
        for _ in 0..cover_walk_length(g.n()) {
            let p = (walk.next_draw() % g.degree(cur) as u64) as Port;
            ports.push(p);
            cur = g.neighbor(cur, p).0;
        }
        let q = &plan.quotient;
        let path = shortest_path_ports(&q.graph, q.class_of[cur], plan.target_class).unwrap();
        ports.extend(path);
        ports
    }

    /// The distinct tails among `routes`.
    fn tails(routes: &[Prelude]) -> usize {
        let mut tails: Vec<&Arc<[Port]>> = Vec::new();
        for r in routes {
            if !tails.iter().any(|t| Arc::ptr_eq(t, r.tail())) {
                tails.push(r.tail());
            }
        }
        tails.len()
    }

    #[test]
    fn head_and_tail_routes_equal_per_start_walks() {
        for (g, label) in [
            (ring(9).unwrap(), "ring"),
            (star(7).unwrap(), "bipartite star"),
            (lollipop(4, 3).unwrap(), "lollipop"),
            (erdos_renyi_connected(12, 0.3, 8).unwrap(), "gnp"),
            (asymmetric_gnp(6, 1000).unwrap(), "bipartite bench graph"),
        ] {
            let plan = gathering_target(&g).unwrap();
            let n = g.n();
            // Every start once, a roster of k < n with a shared start, one
            // of k > n, and a gathered start.
            let rosters: [Vec<NodeId>; 4] = [
                (0..n).collect(),
                vec![n - 1, 0, n - 1],
                (0..2 * n).map(|i| (i * 5) % n).collect(),
                vec![2; 4],
            ];
            for starts in &rosters {
                let routes = gather_routes(&g, &plan, starts);
                assert_eq!(routes.len(), starts.len());
                for (&s, route) in starts.iter().zip(&routes) {
                    let ports = route.to_vec();
                    assert_eq!(ports, reference_route(&g, &plan, s), "{label} from {s}");
                    assert_eq!(follow_ports(&g, s, &ports).unwrap(), plan.target_node);
                    assert!(ports.len() as u64 <= plan.budget_rounds, "{label}");
                }
                // Robots on one start share its tail.
                for (i, j) in [(0, 1), (0, 2), (1, 2)] {
                    if starts.get(j).is_some_and(|&s| s == starts[i]) {
                        assert!(Arc::ptr_eq(routes[i].tail(), routes[j].tail()));
                    }
                }
            }
            // The walks from every start merge into one tail, except on
            // bipartite graphs, whose two colour classes never meet.
            let routes = gather_routes(&g, &plan, &(0..n).collect::<Vec<_>>());
            let expected = if label.starts_with("bipartite") { 2 } else { 1 };
            assert_eq!(tails(&routes), expected, "{label}");
            assert!(
                routes.iter().any(|r| r.head_len() == 0),
                "{label}: a survivor"
            );
        }
    }

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
                ends.insert(follow_ports(&g, start, &route.to_vec()).unwrap());
            }
            assert_eq!(ends.len(), 1, "{label}: all robots gather at one node");
        }
    }

    #[test]
    fn route_fits_budget() {
        let g = erdos_renyi_connected(10, 0.3, 4).unwrap();
        let plan = gathering_target(&g).unwrap();
        for route in gather_routes(&g, &plan, &(0..g.n()).collect::<Vec<_>>()) {
            assert!(route.len() as u64 <= plan.budget_rounds);
        }
    }

    #[test]
    fn routes_deterministic() {
        let g = ring(8).unwrap();
        let a = gather_route(&g, 3).unwrap();
        let b = gather_route(&g, 3).unwrap();
        assert_eq!(a.to_vec(), b.to_vec());
    }

    #[test]
    fn infeasible_graph_reports_error() {
        let g = bd_graphs::generators::oriented_ring(6).unwrap();
        assert!(gather_route(&g, 0).is_err());
    }
}
