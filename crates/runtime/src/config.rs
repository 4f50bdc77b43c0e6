//! Engine configuration.

/// Knobs for a simulation run.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Hard cap on rounds; exceeded means [`crate::RunError::RoundLimit`].
    pub max_rounds: u64,
    /// Record a full event trace (costs memory; off for benchmarks).
    pub record_trace: bool,
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
