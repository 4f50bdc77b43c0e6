//! # bd-dispersion
//!
//! The paper's contribution: algorithms solving **Byzantine dispersion** —
//! `n` robots, up to `f` Byzantine, on an anonymous `n`-node port-labeled
//! graph must reach a configuration with at most one non-Byzantine robot
//! per node, then terminate (Definition 1).
//!
//! | Module | Paper | Result |
//! |--------|-------|--------|
//! | [`algos::quotient`] | §2, Thm 1 | `f ≤ n−1` weak, quotient-isomorphic graphs, poly(n) |
//! | [`algos::half`] | §3.1, Thms 2–3 | `f ≤ ⌊n/2−1⌋` weak, arbitrary/gathered, `Õ(n⁹)` / `O(n⁴)` |
//! | [`algos::third`] | §3.2, Thm 4 | `f ≤ ⌊n/3−1⌋` weak, gathered, `O(n³)` |
//! | [`algos::sqrt`] | §3.3, Thm 5 | `f = O(√n)` weak, arbitrary start, `Õ(n⁵·⁵)` — dedicated token-replication subsystem (design note below) |
//! | [`algos::strong`] | §4, Thms 6–7 | `f ≤ ⌊n/4−1⌋` **strong**, gathered/arbitrary — one group run, then a rank walk |
//! | [`algos::baseline`] | §1.4 | non-Byzantine map-DFS baseline (k-robot capacity) |
//! | [`algos::ring_opt`] | §2.2's predecessor \[34, 36\] | `Time-Opt-Ring-Dispersion`: `O(n)` on rings, `f ≤ n−1` weak |
//! | [`impossibility`] | §5, Thm 8 | replay-adversary construction |
//!
//! ## The `TableRow` / `Session` API
//!
//! The crate's entry point is built from three pieces:
//!
//! * **[`registry::TableRow`]** — one descriptor object per Table 1 row,
//!   implemented in the row's own `algos::*` module: its name and paper
//!   columns, `tolerance(n, k)` (the Table 1 bound at `k = n`, clamped to
//!   what a `k`-robot roster sustains otherwise), its
//!   [`registry::StartRequirement`], its graph `precondition`, its one
//!   `phase_schedule` (whose end is the exact `round_budget`), and the
//!   controller factory.
//!   [`Algorithm::row`] is the registry lookup — the single place the enum
//!   maps to behavior.
//! * **[`runner::ScenarioSpec`]** — a fully serde-able description of one
//!   run: algorithm, robot count (`k ≠ n` opens §5's capacity-`⌈k/n⌉`
//!   regime), Byzantine contingent and placement, adversary,
//!   [`runner::StartConfig`], seed. Sweeps are data: store them, ship
//!   them, replay them.
//! * **[`session::Session`]** — one shared `Arc<PortGraph>` plus the
//!   generic plan → engine → verify pipeline. [`Session::run`] executes one
//!   spec; [`Session::run_batch`] runs a slice of specs with zero per-run
//!   graph clones; [`Session::plan`] exposes the precomputed
//!   [`registry::Plan`] (and thereby the row's exact round budget) without
//!   running.
//! * **[`session::BatchPlanner`]** — the multi-graph batch layer above
//!   sessions: queue specs against heterogeneous graphs, share one session
//!   per distinct `Arc`, and execute **largest cost first** (cost =
//!   registry round budget × roster size) through the `rayon` API, which
//!   the vendored offline stand-in runs sequentially. The bench sweeps run
//!   on it.
//!
//! ```
//! use bd_dispersion::adversaries::AdversaryKind;
//! use bd_dispersion::{Algorithm, ScenarioSpec, Session};
//!
//! let g = bd_graphs::generators::erdos_renyi_connected(12, 0.3, 7).unwrap();
//! let session = Session::new(g);
//! let specs: Vec<ScenarioSpec> = (0..4)
//!     .map(|seed| {
//!         ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, session.graph(), 0)
//!             .with_byzantine(3, AdversaryKind::Squatter)
//!             .with_seed(seed)
//!     })
//!     .collect();
//! for outcome in session.run_batch(&specs) {
//!     assert!(outcome.unwrap().dispersed);
//! }
//! ```
//!
//! Every DUM-based row accepts `k ≠ n` rosters: the half/third
//! schemes settle through the shared capacity-aware
//! [`algos::common::SettlePhase`], as sqrt and the baseline do. At
//! `k = n` the registry-conformance suite pins tolerances and exact round
//! budgets.
//!
//! Shared building blocks: the [`dum`] state machine
//! (`Dispersion-Using-Map`, §2.2, capacity-generalized for §5's `⌈k/n⌉`
//! regime), the all-pairs [`pairing`] schedule (§3.1), agent/token drivers
//! with quorum thresholds ([`token_roles`], §3.2–§4), majority voting
//! over rooted canonical maps ([`mapvote`]), and the group-phase controller
//! scaffold ([`algos::common::GroupPhaseController`]) the Theorem 2–7 rows
//! instantiate: a pairing of Theorems 2–3 is two runs with groups of one,
//! where each agent keeps its own map instead of a quorum vote. Theorems
//! 2–5 end in the DUM settle, Theorems 6–7 in the rank walk. The [`adversaries`] module implements Byzantine
//! strategies; [`verify`] checks Definition 1.
//!
//! ## Design note: the §3.3 token-replication construction
//!
//! Theorem 5 trades tolerance for starting-position generality: from
//! *arbitrary* positions it tolerates `f = O(√n)` weak Byzantine robots.
//! The [`algos::sqrt`] subsystem realizes it as a deterministic phase
//! machine (`gather → replicate → settle`, [`algos::sqrt::sqrt_timeline`]):
//!
//! 1. **Gather** — every robot walks the Byzantine-immune view-based route
//!    to the canonical singleton-class node.
//! 2. **Replicate** — the roster snapshot splits into `2f + 1` ID-ordered
//!    helper groups of roughly `√n` robots
//!    ([`algos::sqrt::tokens::ReplicationPlan`]). Each group takes the
//!    agent seat for one sequential map-finding run while the token role
//!    is replicated across the union of the other groups; instruction,
//!    presence, and vote thresholds are all `f + 1` distinct IDs, beyond
//!    the coalition's reach. At most `f` groups contain a Byzantine
//!    member, so at least `f + 1` runs are led by fully honest groups and
//!    rebuild the true map; [`algos::sqrt::tokens::reconcile_maps`]
//!    accepts exactly the form with that support (Byzantine-majority
//!    reconciliation).
//! 3. **Settle** — `Dispersion-Using-Map` from the gathering node on the
//!    reconciled map, with per-node capacity `⌈k/n⌉` so `k > n` scenarios
//!    (§5) run first-class.
//!
//! Because every boundary is derived from `n`, the gathering budget, and
//! the snapshot, the row's round budget is the phase machine's exact end
//! (the end of [`algos::sqrt::sqrt_timeline`]) — no guessed slack — and the
//! bench layer checks the measured growth exponent against the paper's
//! `Õ(n⁵·⁵)` band.

pub mod adversaries;
pub mod algos;
pub mod canon;
pub mod dum;
pub mod error;
pub mod impossibility;
pub mod mapvote;
pub mod msg;
pub mod pairing;
pub mod registry;
pub mod runner;
pub mod script;
pub mod session;
pub mod timeline;
pub mod token_roles;
pub mod verify;

pub use canon::{graph_digest, scenario_digest, SpecDigest};
pub use error::DispersionError;
pub use msg::{DumState, Msg};
pub use registry::{Plan, StartColumn, StartRequirement, TableRow};
pub use runner::{Algorithm, Outcome, ScenarioSpec, StartConfig};
pub use session::{run_epoch, BatchPlanner, EpochBackend, RosterEntry, Session};
