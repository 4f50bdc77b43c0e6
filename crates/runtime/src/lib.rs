//! # bd-runtime
//!
//! The synchronous multi-robot simulation engine for Byzantine dispersion
//! (paper §1.1).
//!
//! Each **round** consists of:
//!
//! 1. a configurable number of **sub-rounds** of local communication —
//!    co-located robots publish messages onto the node's bulletin and read
//!    what was published in earlier sub-rounds of the same round (the paper
//!    breaks rounds into `n` sub-rounds for `Dispersion-Using-Map`, §2.2);
//! 2. a simultaneous **move** step — each robot may leave through a port; a
//!    robot that crosses an edge learns the port numbers on both sides.
//!
//! Robots are [`controller::Controller`] implementations driven by the
//! [`engine::Engine`]. The engine enforces the **weak/strong Byzantine
//! distinction** at the identity layer: publications from honest and weak
//! Byzantine robots are stamped with their true ID (a weak Byzantine robot
//! "cannot fake its ID"), while strong Byzantine robots choose any claimed
//! ID each round (§4).
//!
//! Controllers never see the graph; they observe only the local degree, the
//! co-located roster, the bulletin, and arrival port pairs — exactly the
//! information the paper's model grants.
//!
//! ## The hot loop: scratch arenas
//!
//! Table 1 rows are Θ(n³)–O(n⁴)-round protocols, so the engine's `step`
//! is the hot path of every sweep. Its per-round state lives in
//! engine-owned, reusable **arenas** rather than per-round maps: occupancy
//! and rosters are flat vectors indexed by the dense [`bd_graphs::NodeId`],
//! maintained incrementally via a moved-robots dirty list (a round that
//! moves nothing re-sorts nothing; nodes hosting ID-faking robots re-sort
//! every round), and bulletins are reusable per-node buffers cleared
//! through a touched list. The steady-state round performs **zero heap
//! allocation**; see the `engine` module docs for the layout.
//!
//! ## Fast-forward: one question per robot
//!
//! Rounds that need no stepping are not stepped. The engine asks each
//! robot one question, [`controller::Controller::intent`]: done, idle
//! (silent) until a round, a beacon (stationary, publishing) until a
//! round, solo (deciding on its own senses only) until a round, or
//! acting. It holds a robot to its answer until the horizon (to `Done`
//! for good) and asks again only an acting robot or one whose answer has
//! run out, so a robot waiting out a window is asked once. The paper's communication-free walks (Theorem 1's
//! `Find-Map`, the gathering walk of Theorems 2, 5 and 7) are data
//! instead: [`controller::Controller::prelude`] hands the engine the ports
//! a robot leaves through in its first rounds, and the engine walks them
//! without calling the robot. From the answers and the preludes the
//! engine skips all-idle stretches, calls no idle robot in a stepped
//! round, and applies stretches of idle, walking and solo robots in bulk,
//! with no roster or bulletin (a solo robot runs its whole stretch in one
//! [`controller::Controller::solo`] call); trajectories and measured
//! rounds equal a stepped run's, and the differential suite of the
//! `bd-oracle` crate checks that against a naive engine that steps every
//! round. The contract is documented once, on [`controller::Intent`].
//!
//! ## Instrumentation
//!
//! When `bd_telemetry::counters_enabled()` is set at engine construction,
//! the engine carries a `bd-telemetry` recorder: per-phase
//! `EngineCounters` deltas keyed to marks installed via
//! [`engine::Engine::set_phase_marks`], and an `EngineReport` published by
//! [`engine::Engine::into_trace`] at run end. Disabled, the whole layer is
//! one relaxed atomic load at construction and a `None` check per round.
//! `OBSERVABILITY.md` at the repo root documents every counter.

pub mod config;
pub mod controller;
pub mod engine;
pub mod error;
pub mod ids;
pub mod metrics;
pub mod observation;
pub mod trace;
pub mod world;

pub use config::EngineConfig;
pub use controller::{Controller, Intent, MoveChoice, Prelude, SoloWalk};
pub use engine::{Engine, EpochOutcome};
pub use error::RunError;
pub use ids::{Flavor, RobotId};
pub use metrics::RunMetrics;
pub use observation::{ArrivalInfo, Observation, Publication};
pub use trace::{Event, Trace, TraceDivergence};
pub use world::World;
