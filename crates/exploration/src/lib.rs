//! # bd-exploration
//!
//! Exploration primitives for anonymous port-labeled graphs:
//!
//! * [`walks`] — shared-seed pseudorandom exploration walks. All robots know
//!   `n` (paper §1.1), so they can derive a *common* walk sequence from a
//!   seed — a derandomization-by-shared-randomness stand-in for the
//!   universal exploration sequences of Aleliunas et al. \[2\] and
//!   Ta-Shma–Zwick \[45\] that the paper's `X(n)` bounds cite (see
//!   DESIGN.md, substitution 3);
//! * [`token_map`] — **map construction by an agent with a movable token**,
//!   the "robot and token paradigm" of Dieudonné–Pelc–Peleg \[24\] that every
//!   map-finding phase in the paper's §3–§4 runs. An agent parks the token at
//!   the far end of an unresolved edge, tours the territory it has already
//!   identified, and uses the token sighting (or its absence) to tell old
//!   nodes from new ones. `O(n · m) ⊆ O(n³)` moves — the paper's `T₂`;
//! * [`sim`] — an offline driver that runs the token explorer directly
//!   against a graph (tests, calibration);
//! * [`cost`] — the log-log growth-exponent fit the benchmarks use to
//!   compare measured rounds with the paper's running-time column.

pub mod cost;
pub mod sim;
pub mod token_map;
pub mod walks;

pub use token_map::{AgentCmd, MapError, Percept, TokenMapExplorer};
pub use walks::{cover_walk_length, SharedWalk};
