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
//! ## The idle-fast-forward contract
//!
//! [`controller::Controller::idle_until`] lets a controller promise that
//! skipping its `act`/`decide_move` calls until a given round changes
//! nothing observable. When **every** active robot reports a horizon the
//! engine jumps straight to the earliest one ([`EngineConfig::fast_forward`]
//! gates this; [`metrics::RunMetrics::rounds_skipped`] records it). Because
//! only all-idle rounds are skipped, no skipped round has a bulletin
//! reader — which is what makes the promise checkable locally: a robot
//! need only guarantee it would neither move nor read. Honest controllers
//! derive horizons from their phase timelines; adversary controllers
//! declare horizons consistent with their strategy (see
//! `bd-dispersion`'s `adversaries` module for the burst-grid design).
//! Measured rounds are timeline-derived, so fast-forwarding never drifts
//! them — the determinism suite replays scenarios with the feature
//! disabled and asserts bit-identical trajectories.
//!
//! ## Preludes
//!
//! The paper's communication-free walks (Theorem 1's `Find-Map`, the
//! gathering walk of Theorems 2, 5 and 7) are data, not behaviour:
//! [`controller::Controller::prelude`] hands the engine the ports a robot
//! leaves through in epoch-local rounds `0..len`. The engine reads it once
//! when it seats the robot and from then on owns the walk: inside its
//! prelude the robot moves through those ports and its controller is not
//! called, so it reads nothing, publishes nothing and requests no
//! sub-rounds. Stepped rounds (and the oracle engine, which restates the
//! rule naively) take the prelude's port as the robot's move. When every
//! active robot is idle past the current round or inside its prelude, the
//! engine applies the stretch as a *segment*: positions, odometers,
//! arrivals and trace `Moved` events advance per move, with no roster,
//! bulletin or per-robot dispatch. A [`controller::Prelude`] is a short
//! head of the robot's own and then a tail indexed by the round, shared by
//! robots whose walks merged: robots past their head on one tail and one
//! node form a cohort, and the engine walks the tail once per cohort. Segment rounds count as executed
//! rounds in [`metrics::RunMetrics`] (with the segment's sub-round count,
//! not skipped), so metrics equal a stepped run's;
//! `EngineCounters::rounds_scripted` counts them. Like skipping, segments
//! run only under [`EngineConfig::fast_forward`] and honour
//! `ff_overshoot`.
//!
//! ## Solo robots
//!
//! The other promise, [`controller::Controller::solo_until`], covers a
//! robot that keeps deciding but reads only its own senses (round,
//! sub-round, degree, arrival — never the roster or the bulletin) and
//! whose publications need no reader: this reproduction's roaming
//! adversaries in mid-burst while every honest robot waits out a
//! map-finding window. A segment also runs when some active robots are
//! solo: the engine calls each solo robot's `act` once per sub-round and
//! then `decide_move`, on an observation with an empty roster and
//! bulletin, round-major in robot order, and still builds no roster or
//! bulletin and calls no idle robot. The segment ends at the earliest
//! solo horizon too; its messages count in `RunMetrics`, and
//! `EngineCounters::rounds_solo` counts its rounds.
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
pub use controller::{Controller, MoveChoice, Prelude};
pub use engine::{Engine, EpochOutcome, WorldEvent};
pub use error::RunError;
pub use ids::{Flavor, RobotId};
pub use metrics::RunMetrics;
pub use observation::{ArrivalInfo, Observation, Publication};
pub use trace::{Event, Trace, TraceDivergence};
pub use world::World;
