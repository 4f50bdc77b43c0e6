//! Engine configuration.

use serde::{Deserialize, Serialize};

/// Knobs for a simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Hard cap on rounds; exceeded means [`crate::RunError::RoundLimit`].
    pub max_rounds: u64,
    /// Record a full event trace (costs memory; off for benchmarks).
    pub record_trace: bool,
    /// Skip and bulk-apply the rounds that need no stepping, and call no
    /// idle robot in a stepped round (see [`crate::Intent`]). On by
    /// default; conformance tests turn it off to prove fast-forwarding
    /// changes no trajectory.
    pub fast_forward: bool,
    /// **Fault injection, never a feature:** overshoot every fast-forward
    /// jump by this many rounds. `0` (the default, and the only value any
    /// production path uses) is the correct engine; any other value
    /// deliberately breaks the skip-target clamp so the differential oracle
    /// harness can prove it catches a broken fast path.
    pub ff_overshoot: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_rounds: 50_000_000,
            record_trace: false,
            fast_forward: true,
            ff_overshoot: 0,
        }
    }
}

impl EngineConfig {
    /// A config with a specific round cap.
    pub fn with_max_rounds(max_rounds: u64) -> Self {
        EngineConfig {
            max_rounds,
            ..Default::default()
        }
    }

    /// Enable trace recording.
    pub fn traced(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Disable round fast-forwarding: every round is stepped, and every
    /// robot past its prelude and not done is called, idle or not.
    /// Trajectories must not change — the determinism suite runs scenarios
    /// both ways and asserts identical outcomes.
    pub fn without_fast_forward(mut self) -> Self {
        self.fast_forward = false;
        self
    }

    /// Sabotage the fast-forward clamp by `rounds` (see
    /// [`EngineConfig::ff_overshoot`]). Exists so the oracle-differential
    /// harness can demonstrate that a broken fast path is caught; nothing
    /// else may call this.
    pub fn with_ff_overshoot(mut self, rounds: u64) -> Self {
        self.ff_overshoot = rounds;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods() {
        let c = EngineConfig::with_max_rounds(10).traced();
        assert_eq!(c.max_rounds, 10);
        assert!(c.record_trace);
    }
}
