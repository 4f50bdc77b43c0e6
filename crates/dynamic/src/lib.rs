//! # bd-dynamic
//!
//! Event-scheduled dynamic worlds over the `Session`/`Engine` pipeline.
//!
//! Every scenario below this crate is a fixed `(graph, cast, adversary)`
//! cell run to termination. The paper's algorithms, though, are motivated
//! by long-lived swarms where robots and links churn; this crate is the
//! subsystem that drives the existing pipeline with mid-run change:
//!
//! * [`events::EventSchedule`] — a deterministic, serde-able timeline of
//!   typed [`events::EventKind`]s (robot join/leave, edge fail/heal,
//!   adversary switch, verification-capacity change), validated against
//!   the graph and the base scenario before anything runs;
//! * [`session::DynamicSession`] — runs plan → events → re-verify
//!   **epochs**: each scheduled event round ends an epoch, the world
//!   mutates through the engine's `apply_world_event` hook, the next
//!   epoch is re-planned from the registry (fresh round budget on the
//!   mutated topology) and independently verified, yielding one
//!   [`session::EpochReport`] per epoch;
//! * every epoch runs through `bd-dispersion`'s per-epoch pipeline
//!   (`run_epoch`) on any `EpochBackend` — the engine surface that crate's
//!   session module defines for the fast arena engine and `bd-oracle`
//!   implements for its naive reference engine — so the differential
//!   harness covers dynamic cells too, and a static cell is the
//!   one-epoch case;
//! * [`replay::export`] / [`replay::replay`] — the `bdtr1` trace format:
//!   one JSONL document capturing graph, dynamic spec, and full outcome,
//!   re-executable byte-identically (the engine never reads clocks, and
//!   the dynamic pipeline never stamps wall time).
//!
//! Epoch semantics, the event model, and the replay schema are documented
//! in `DYNAMICS.md` at the repo root, along with the rule that every new
//! event class must arrive with oracle and determinism coverage.

pub mod error;
pub mod events;
pub mod replay;
pub mod session;

pub use error::DynamicError;
pub use events::{EventKind, EventSchedule, ScheduledEvent};
pub use replay::{export, parse, replay, ReplayVerdict};
pub use session::{DynamicOutcome, DynamicSession, DynamicSpec, EpochReport};
