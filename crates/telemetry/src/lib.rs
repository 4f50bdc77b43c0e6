//! `bd-telemetry` — hand-rolled, zero-dependency structured observability
//! for the dispersion stack.
//!
//! Three layers, each usable independently (see `OBSERVABILITY.md` at the
//! repo root for the full metric/schema reference):
//!
//! * [`counters`] — plain-`u64` engine counters ([`EngineCounters`])
//!   accumulated into an engine-owned recorder ([`EngineTelemetry`]) that
//!   snapshots per-phase deltas. The recorder is owned by one engine on
//!   one thread — no locks,
//!   no allocation in the steady-state round — and finished reports are
//!   published to a global drain for profilers.
//! * [`spans`] — a batch → cell → phase span tree with monotonic
//!   microsecond timestamps, exportable as Chrome trace-event-format
//!   JSONL (open in `chrome://tracing` / Perfetto after wrapping the
//!   lines in a JSON array, e.g. `jq -s .`).
//! * [`prom`] — Prometheus text exposition format: counter/gauge
//!   rendering, a hand-rolled fixed-bucket [`prom::Histogram`], and a
//!   parser ([`prom::parse`]) for reading an exposition back.
//! * [`log`] — leveled structured JSONL events (request lifecycle on the
//!   serving path), off by default under the same one-relaxed-load
//!   disabled contract.
//!
//! # The zero-overhead contract
//!
//! Both recording layers are **off by default** and gated behind a
//! process-global `AtomicBool` each. The disabled fast path is a single
//! relaxed atomic load and branch ([`counters_enabled`] /
//! [`spans_enabled`]); inside the engine the per-round cost when disabled
//! is one branch on a local `Option` that was resolved from
//! [`counters_enabled`] once at engine construction. CI's overhead smoke
//! (`bd-bench --bin profile -- --overhead-check`) holds the enabled path
//! within 5% of disabled on the quick Table 1 sweep.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub mod counters;
pub mod log;
pub mod prom;
pub mod spans;

pub use counters::{
    drain_engine_reports, publish_engine_report, EngineCounters, EngineReport, EngineTelemetry,
    PhaseWindow,
};
pub use spans::{SpanEvent, SpanGuard};

static COUNTERS_ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS_ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn engine-counter recording on or off process-wide. Takes effect for
/// engines constructed *after* the call (each engine samples the flag
/// once, at construction).
pub fn enable_counters(on: bool) {
    COUNTERS_ENABLED.store(on, Ordering::SeqCst);
}

/// Is engine-counter recording enabled? Single relaxed load — this is the
/// whole disabled path.
#[inline(always)]
pub fn counters_enabled() -> bool {
    COUNTERS_ENABLED.load(Ordering::Relaxed)
}

/// Turn span recording on or off process-wide.
pub fn enable_spans(on: bool) {
    SPANS_ENABLED.store(on, Ordering::SeqCst);
}

/// Is span recording enabled? Single relaxed load.
#[inline(always)]
pub fn spans_enabled() -> bool {
    SPANS_ENABLED.load(Ordering::Relaxed)
}

/// Global allocation odometer. The stack's own builds never touch it;
/// `bd-bench --bin profile` installs a counting `GlobalAlloc` that calls
/// [`note_alloc`] on every allocation, and the engine recorder snapshots
/// [`allocs`] at phase boundaries — which is how the profile table can
/// print per-phase allocation counts (and demonstrate the steady-state
/// rounds are allocation-free).
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Count one allocation. Must stay allocation-free itself: it is called
/// from inside a `GlobalAlloc`.
#[inline(always)]
pub fn note_alloc() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
}

/// The current value of the global allocation odometer.
#[inline]
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_default_off_and_toggle() {
        // Tests share the process-global flags; restore state on exit.
        let (c0, s0) = (counters_enabled(), spans_enabled());
        enable_counters(true);
        assert!(counters_enabled());
        enable_counters(false);
        assert!(!counters_enabled());
        enable_spans(true);
        assert!(spans_enabled());
        enable_counters(c0);
        enable_spans(s0);
    }

    #[test]
    fn alloc_odometer_counts() {
        let before = allocs();
        note_alloc();
        note_alloc();
        assert!(allocs() >= before + 2);
    }
}
