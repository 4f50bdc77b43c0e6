//! Shared-seed pseudorandom exploration walks.
//!
//! Robots know `n`, so all of them can derive the *same* infinite sequence
//! of pseudorandom draws from a seed that depends only on `n` (and an
//! agreed-on protocol constant). Following `port = draw_i mod degree` yields
//! a random walk; by the Aleliunas et al. cover-time bound, a walk of length
//! `O(n³ log n)` covers every `n`-node graph from every start with high
//! probability. This is the substrate standing in for the deterministic
//! universal exploration sequences the paper cites for `X(n)` (DESIGN.md,
//! substitution 3).

use bd_graphs::{NodeId, Port, PortGraph};
use bd_runtime::Prelude;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Default multiplier in the cover-walk length `c * n^3 * ceil(log2 n)`.
///
/// Cover time of a random walk on any connected `n`-node graph is at most
/// `~ (4/27) n^3` in the worst case (lollipop); the logarithmic factor boosts
/// the success probability to `1 - n^{-Θ(c)}` for covering from every start.
pub const DEFAULT_COVER_MULTIPLIER: u64 = 4;

/// Length of the shared exploration walk used for an `n`-node graph.
pub fn cover_walk_length(n: usize) -> u64 {
    let n = n as u64;
    let log = (u64::BITS - n.leading_zeros()).max(1) as u64;
    DEFAULT_COVER_MULTIPLIER * n * n * n * log
}

/// An infinite pseudorandom draw sequence, identical for every robot that
/// constructs it with the same `n` and protocol tag. A robot at a node of
/// degree `d` leaves through port `draw % d`.
#[derive(Debug, Clone)]
pub struct SharedWalk {
    rng: StdRng,
}

impl SharedWalk {
    /// Derive the walk for graph size `n` and a protocol tag (different
    /// phases of an algorithm use different tags so their walks are
    /// independent).
    pub fn for_size(n: usize, tag: u64) -> Self {
        let seed = (n as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ tag;
        SharedWalk {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The next raw draw. Draws are consumed one per step regardless of
    /// degree, so robots in lockstep consume the sequence identically.
    pub fn next_draw(&mut self) -> u64 {
        self.rng.gen()
    }
}

/// A port for a node of `degree` from one draw.
fn port_of(draw: u64, degree: usize) -> Port {
    (draw % degree.max(1) as u64) as Port
}

/// Walk `len` steps of `walk` from every start in one lockstep pass, and
/// return each start's walk (in input order) with the node it ends on.
///
/// All walkers take their port from one draw per step, so walkers that
/// land on one node stay together from then on: they merge, and the
/// merged group is walked once. Each start's walk comes back as a
/// [`Prelude`] whose head is its own ports until it joined the walker
/// that survives its group, and whose tail is that survivor's walk,
/// shared by the whole group. `finish` extends each survivor's walk,
/// given the node it ends on, with any ports that depend only on that
/// node (such as a navigation leg), so the extension is shared too.
pub fn lockstep_walk(
    g: &PortGraph,
    mut walk: SharedWalk,
    len: u64,
    starts: &[NodeId],
    mut finish: impl FnMut(&mut Vec<Port>, NodeId),
) -> Vec<(Prelude, NodeId)> {
    /// One walker per distinct start. `merged` is the walker it joined
    /// and the step after which it did.
    struct Walker {
        node: NodeId,
        ports: Vec<Port>,
        merged: Option<(usize, usize)>,
    }
    let mut walker_at = vec![usize::MAX; g.n()];
    let mut walkers: Vec<Walker> = Vec::new();
    for &s in starts {
        if walker_at[s] == usize::MAX {
            walker_at[s] = walkers.len();
            walkers.push(Walker {
                node: s,
                ports: Vec::new(),
                merged: None,
            });
        }
    }
    let mut live: Vec<usize> = (0..walkers.len()).collect();
    // `seen[v]` is the last step after which a live walker stood on `v`,
    // and `first[v]` that walker.
    let mut seen = vec![usize::MAX; g.n()];
    let mut first = vec![0; g.n()];
    let len = len as usize;
    for step in 0..len {
        if let [w] = live[..] {
            // One walker left: the rest of the walk is a plain loop.
            let w = &mut walkers[w];
            w.ports.reserve(len - step);
            for _ in step..len {
                let p = port_of(walk.next_draw(), g.degree(w.node));
                w.ports.push(p);
                w.node = g.neighbor(w.node, p).0;
            }
            break;
        }
        let draw = walk.next_draw();
        for &w in &live {
            let w = &mut walkers[w];
            let p = port_of(draw, g.degree(w.node));
            w.ports.push(p);
            w.node = g.neighbor(w.node, p).0;
        }
        live.retain(|&w| {
            let node = walkers[w].node;
            if seen[node] == step {
                walkers[w].merged = Some((first[node], step + 1));
                false
            } else {
                seen[node] = step;
                first[node] = w;
                true
            }
        });
    }
    // Each survivor's walk becomes its group's shared tail.
    let mut tails: Vec<Option<(Arc<[Port]>, NodeId)>> = walkers.iter().map(|_| None).collect();
    for &w in &live {
        let node = walkers[w].node;
        let mut ports = std::mem::take(&mut walkers[w].ports);
        finish(&mut ports, node);
        tails[w] = Some((ports.into(), node));
    }
    starts
        .iter()
        .map(|&s| {
            // Follow the merges to the survivor, collecting the ports of
            // each walker the start rode with before the next merge.
            let (mut w, mut from, mut head) = (walker_at[s], 0, Vec::new());
            while let Some((into, at)) = walkers[w].merged {
                head.extend_from_slice(&walkers[w].ports[from..at]);
                (w, from) = (into, at);
            }
            let (tail, end) = tails[w].as_ref().expect("a survivor");
            (Prelude::new(head, Arc::clone(tail)), *end)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_graphs::generators::{erdos_renyi_connected, lollipop, ring};

    #[test]
    fn same_seed_same_walk() {
        let mut a = SharedWalk::for_size(16, 7);
        let mut b = SharedWalk::for_size(16, 7);
        for _ in 0..6 {
            assert_eq!(a.next_draw(), b.next_draw());
        }
    }

    #[test]
    fn different_tags_differ() {
        let mut a = SharedWalk::for_size(16, 1);
        let mut b = SharedWalk::for_size(16, 2);
        let draws_a: Vec<u64> = (0..32).map(|_| a.next_draw()).collect();
        let draws_b: Vec<u64> = (0..32).map(|_| b.next_draw()).collect();
        assert_ne!(draws_a, draws_b);
    }

    #[test]
    fn cover_length_monotone() {
        assert!(cover_walk_length(8) < cover_walk_length(16));
        assert!(cover_walk_length(16) < cover_walk_length(64));
    }

    #[test]
    fn walk_covers_small_graphs() {
        for (g, tag) in [
            (ring(10).unwrap(), 3u64),
            (lollipop(5, 4).unwrap(), 3),
            (erdos_renyi_connected(12, 0.25, 5).unwrap(), 3),
        ] {
            let starts: Vec<NodeId> = (0..g.n()).collect();
            let walks = lockstep_walk(
                &g,
                SharedWalk::for_size(g.n(), tag),
                cover_walk_length(g.n()),
                &starts,
                |_, _| {},
            );
            for (&start, (walk, end)) in starts.iter().zip(&walks) {
                let mut seen = vec![false; g.n()];
                let mut cur = start;
                seen[cur] = true;
                for p in walk.to_vec() {
                    cur = g.neighbor(cur, p).0;
                    seen[cur] = true;
                }
                assert_eq!(cur, *end, "the walk ends where reported");
                assert!(
                    seen.iter().all(|&b| b),
                    "walk from {start} failed to cover {}-node graph",
                    g.n()
                );
            }
        }
    }

    #[test]
    fn lockstep_walks_merge_into_shared_tails() {
        // Every start of a non-bipartite graph merges early: one tail,
        // short heads, and the survivor's own walk has no head.
        let g = lollipop(5, 4).unwrap();
        let starts: Vec<NodeId> = (0..g.n()).collect();
        let walks = lockstep_walk(&g, SharedWalk::for_size(g.n(), 1), 500, &starts, |_, _| {});
        let tail = walks[0].0.tail();
        assert!(walks.iter().all(|(w, _)| Arc::ptr_eq(w.tail(), tail)));
        assert!(walks
            .iter()
            .all(|(w, _)| w.head_len() < 100 && w.len() == 500));
        assert!(walks.iter().any(|(w, _)| w.head_len() == 0));
        // `finish` extends the shared tail once, from the common end.
        let walks = lockstep_walk(&g, SharedWalk::for_size(g.n(), 1), 500, &starts, |p, _| {
            p.push(0)
        });
        assert!(walks.iter().all(|(w, _)| w.len() == 501));
    }

    #[test]
    fn ports_always_in_range() {
        let mut w = SharedWalk::for_size(9, 0);
        for d in 1..20 {
            for _ in 0..50 {
                assert!(port_of(w.next_draw(), d) < d);
            }
        }
    }
}
