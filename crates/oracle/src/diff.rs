//! The differential check: one scenario cell, two engines, full-trajectory
//! comparison.
//!
//! Both engines run the cell through the same pipeline,
//! [`Session::run_with`]: each side plans the spec (planning is
//! seed-deterministic, so the plans are equal), seats the cast
//! [`bd_dispersion::run_epoch`] builds from its plan, and gets the same
//! round cap — so the only degree of freedom between them is the
//! stepping machinery itself. Agreement is judged on everything
//! trajectory-observable:
//!
//! * the movement-normalized event [`Trace`] (every `Moved` and
//!   `Terminated` event, in order — `Stayed` events are excluded by
//!   [`Trace`]'s own equality, since a fast-forwarded engine legitimately
//!   never materializes idle rounds);
//! * the [`Outcome`]: dispersion verdict, verifier report, round count,
//!   final positions, honesty mask, and the move odometers.
//!
//! Deliberately *not* compared: `messages`, `subrounds_executed`,
//! `rounds_skipped`, and `elapsed_micros` — those measure how much work an
//! engine did, not what trajectory it produced, and the whole point of the
//! fast path is to do less work.
//!
//! Dynamic cells ([`crate::dynamic`]) are judged by the same function,
//! `judge`, with the outcome comparison applied per epoch.

use crate::engine::OracleEngine;
use bd_dispersion::runner::Outcome;
use bd_dispersion::{ScenarioSpec, Session};
use bd_runtime::{Engine, EngineConfig, Trace, TraceDivergence};
use std::fmt;

/// Where two engines came apart on one cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Divergence {
    /// One side errored, or both errored differently.
    ErrorMismatch {
        /// The fast engine's error, if it errored.
        fast: Option<String>,
        /// The oracle's error, if it errored.
        oracle: Option<String>,
    },
    /// Traces agree but an aggregate outcome field does not — points at
    /// the metrics/verify layer rather than the stepping itself.
    Outcome {
        /// The epoch whose report disagreed (`None` for a whole-run
        /// field of a dynamic cell, and for every field of a static one).
        epoch: Option<usize>,
        /// Which field disagreed.
        field: &'static str,
        /// The fast engine's value, debug-formatted.
        fast: String,
        /// The oracle's value, debug-formatted.
        oracle: String,
    },
    /// The event streams disagree; carries the first differing event.
    Trace(TraceDivergence),
}

impl Divergence {
    /// The round of the first mismatch, when the divergence localizes to
    /// one (trace divergences do; aggregate mismatches do not).
    pub fn round(&self) -> Option<u64> {
        match self {
            Divergence::Trace(td) => Some(td.round),
            _ => None,
        }
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::ErrorMismatch { fast, oracle } => write!(
                f,
                "error mismatch: fast = {}, oracle = {}",
                fast.as_deref().unwrap_or("ok"),
                oracle.as_deref().unwrap_or("ok"),
            ),
            Divergence::Outcome {
                epoch,
                field,
                fast,
                oracle,
            } => {
                write!(f, "outcome.")?;
                if let Some(epoch) = epoch {
                    write!(f, "epochs[{epoch}].")?;
                }
                write!(f, "{field}: fast = {fast}, oracle = {oracle}")
            }
            Divergence::Trace(td) => write!(f, "trace divergence: {td}"),
        }
    }
}

/// The verdict on one differentially-checked cell.
#[derive(Debug, Clone, PartialEq)]
pub enum CellVerdict {
    /// Both engines produced the identical trajectory and outcome.
    Match {
        /// Rounds the run took (same on both sides by definition).
        rounds: u64,
    },
    /// Both sides failed identically (plan rejection, round limit, …) —
    /// agreement, just not a completed run.
    MatchErr(String),
    /// The engines disagree. This is always an engine bug: the controllers
    /// are shared, so no protocol behavior can explain it.
    Diverged(Box<Divergence>),
}

impl CellVerdict {
    /// Whether the engines agreed (with or without a completed run).
    pub fn agreed(&self) -> bool {
        !matches!(self, CellVerdict::Diverged(_))
    }
}

/// A finished run as the differential check sees it: a static cell's
/// `(Outcome, Trace)` or a dynamic cell's `DynamicOutcome`.
pub(crate) trait Judged {
    /// The cumulative event trace.
    fn trace(&self) -> &Trace;
    /// The round count a match reports.
    fn rounds(&self) -> u64;
    /// The first trajectory-observable field that differs from `oracle`.
    fn field_divergence(&self, oracle: &Self) -> Option<Divergence>;
}

impl Judged for (Outcome, Trace) {
    fn trace(&self) -> &Trace {
        &self.1
    }

    fn rounds(&self) -> u64 {
        self.0.rounds
    }

    fn field_divergence(&self, oracle: &Self) -> Option<Divergence> {
        outcome_divergence(&self.0, &oracle.0)
    }
}

/// Judge a fast run against an oracle run of the same cell: the error
/// matrix first (both failing identically is agreement), then the trace
/// (it localizes the bug to a round and an event), then the outcome
/// fields. The one verdict function for static and dynamic cells.
pub(crate) fn judge<T: Judged, E: PartialEq + fmt::Display>(
    fast: Result<T, E>,
    oracle: Result<T, E>,
) -> CellVerdict {
    let divergence = match (fast, oracle) {
        (Err(fe), Err(oe)) if fe == oe => return CellVerdict::MatchErr(fe.to_string()),
        (Ok(fast), Ok(oracle)) => match fast.trace().first_divergence(oracle.trace()) {
            Some(td) => Divergence::Trace(td),
            None => match fast.field_divergence(&oracle) {
                Some(d) => d,
                None => {
                    return CellVerdict::Match {
                        rounds: fast.rounds(),
                    }
                }
            },
        },
        (fast, oracle) => Divergence::ErrorMismatch {
            fast: fast.err().map(|e| e.to_string()),
            oracle: oracle.err().map(|e| e.to_string()),
        },
    };
    CellVerdict::Diverged(Box::new(divergence))
}

/// Differentially check one cell: the fast engine under `tune` (pass
/// `|c| c` for the real fast path; the broken-engine demonstrations pass
/// `|c| c.with_ff_overshoot(1)` and expect `Diverged`) versus the oracle.
/// Both sides run through [`Session::run_with`] with tracing on.
pub fn check_cell(
    session: &Session,
    spec: &ScenarioSpec,
    tune: impl FnOnce(EngineConfig) -> EngineConfig,
) -> CellVerdict {
    judge(
        session.run_with(spec, |g, c| Engine::new(g, tune(c).traced())),
        session.run_with(spec, |g, c| OracleEngine::new(g, c.traced())),
    )
}

/// `fast` and `oracle` differ at `field`: the divergence naming it.
pub(crate) fn diff<T: fmt::Debug + PartialEq>(
    field: &'static str,
    fast: &T,
    oracle: &T,
) -> Option<Divergence> {
    (fast != oracle).then(|| Divergence::Outcome {
        epoch: None,
        field,
        fast: format!("{fast:?}"),
        oracle: format!("{oracle:?}"),
    })
}

/// First disagreeing trajectory-observable [`Outcome`] field, if any.
pub(crate) fn outcome_divergence(fast: &Outcome, oracle: &Outcome) -> Option<Divergence> {
    diff("rounds", &fast.rounds, &oracle.rounds)
        .or_else(|| diff("dispersed", &fast.dispersed, &oracle.dispersed))
        .or_else(|| {
            diff(
                "final_positions",
                &fast.final_positions,
                &oracle.final_positions,
            )
        })
        .or_else(|| diff("report", &fast.report, &oracle.report))
        .or_else(|| diff("honest", &fast.honest, &oracle.honest))
        .or_else(|| {
            diff(
                "metrics.total_moves",
                &fast.metrics.total_moves,
                &oracle.metrics.total_moves,
            )
        })
        .or_else(|| {
            diff(
                "metrics.max_moves_per_robot",
                &fast.metrics.max_moves_per_robot,
                &oracle.metrics.max_moves_per_robot,
            )
        })
}
