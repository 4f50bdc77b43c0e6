//! # byzantine-dispersion
//!
//! A full Rust reproduction of *Byzantine Dispersion on Graphs*
//! (Molla–Mondal–Moses Jr., IPDPS 2021): `n` mobile robots, up to `f` of them
//! Byzantine, must spread over an anonymous `n`-node port-labeled graph so
//! that every node ends up with at most one non-Byzantine robot.
//!
//! This facade crate re-exports the workspace layers:
//!
//! * [`graphs`] — anonymous port-labeled graphs, generators, quotient graphs;
//! * [`runtime`] — the synchronous multi-robot simulator with sub-rounds and
//!   weak/strong Byzantine identity stamping;
//! * [`exploration`] — exploration walks, token-based map construction, and
//!   round-cost models;
//! * [`gathering`] — the Byzantine-immune view-based gathering substrate;
//! * [`dispersion`] — the paper's algorithms (Theorems 1–7), the adversary
//!   library, the Theorem 8 impossibility construction, and the high-level
//!   [`dispersion::runner`] API;
//! * [`dynamic`] — event-scheduled dynamic worlds: typed event timelines
//!   (robot churn, edge failure/heal, adversary switches), epoch-structured
//!   re-planning and re-verification, and the `bdtr1` deterministic
//!   trace-replay format (see `DYNAMICS.md`);
//! * [`service`] — the serving layer: content-addressed result store,
//!   cache-aware batch planner, and the `bd-serve` HTTP daemon.
//!
//! ## Quickstart
//!
//! ```
//! use byzantine_dispersion::prelude::*;
//!
//! // An asymmetric random graph on 12 nodes.
//! let g = bd_graphs::generators::erdos_renyi_connected(12, 0.3, 7).unwrap();
//! // A session shares one graph handle across any number of runs.
//! let session = Session::new(g);
//! // 12 robots gathered at node 0; 3 of them Byzantine squatters.
//! let spec = ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, session.graph(), 0)
//!     .with_byzantine(3, AdversaryKind::Squatter)
//!     .with_seed(42);
//! let outcome = session.run(&spec).unwrap();
//! assert!(outcome.dispersed);
//! ```

pub use bd_dispersion as dispersion;
pub use bd_dynamic as dynamic;
pub use bd_exploration as exploration;
pub use bd_gathering as gathering;
pub use bd_graphs as graphs;
pub use bd_runtime as runtime;
pub use bd_service as service;

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use bd_dispersion::adversaries::AdversaryKind;
    pub use bd_dispersion::registry::{StartRequirement, TableRow};
    pub use bd_dispersion::runner::{Algorithm, Outcome, ScenarioSpec};
    pub use bd_dispersion::session::Session;
    pub use bd_dispersion::verify::verify_dispersion;
    pub use bd_dynamic::{
        DynamicOutcome, DynamicSession, DynamicSpec, EventKind, EventSchedule, ScheduledEvent,
    };
    pub use bd_graphs::{self, generators, PortGraph};
    pub use bd_runtime::metrics::RunMetrics;
    pub use bd_service::{CachedPlanner, ResultStore};
}
