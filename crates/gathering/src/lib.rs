//! # bd-gathering
//!
//! The gathering substrate: bring all non-Byzantine robots to one node.
//!
//! The paper's Phase 1 (Theorems 2, 5, 7) calls the gathering algorithms of
//! Dieudonné–Pelc–Peleg \[24\] and Hirose et al. \[27\] as black boxes. We
//! substitute a **view-based gathering** (DESIGN.md, substitution 2):
//!
//! 1. every robot performs the shared-seed exploration walk (learning the
//!    graph, charged as real rounds of movement);
//! 2. every robot computes the quotient graph and picks the canonical
//!    minimum **singleton** view class — a node of the graph that every
//!    robot identifies identically and unambiguously;
//! 3. every robot navigates to that node by projecting a quotient-graph
//!    path onto the real graph.
//!
//! No step consults another robot, so **no number of Byzantine robots, weak
//! or strong, can interfere** — strictly stronger than the black boxes the
//! paper assumes, and with the same postcondition (all non-Byzantine robots
//! on one node, simultaneously aware the phase has ended because the round
//! budget is a function of `n` alone).
//!
//! Feasibility: a singleton view class must exist. On vertex-transitive
//! presentations (oriented rings, dimension-labeled hypercubes, …) there is
//! none, and *no* deterministic algorithm can gather from symmetric starting
//! positions either — the substrate surfaces [`GatherError::NoSingletonClass`].

pub mod error;
pub mod plan;
pub mod route;

pub use error::GatherError;
pub use plan::{gathering_target, GatherPlan};
pub use route::{gather_route, route_from, GatherRoute};
