//! Error type of the dynamic-world layer.

use bd_dispersion::DispersionError;
use bd_graphs::GraphError;
use bd_runtime::RunError;
use std::fmt;

/// Errors raised while validating or executing a dynamic scenario.
#[derive(Debug, PartialEq)]
pub enum DynamicError {
    /// The event schedule is inconsistent with the graph or the base
    /// scenario (checked before anything runs).
    Validation(String),
    /// An edge mutation was structurally impossible.
    Graph(GraphError),
    /// Planning an epoch failed (e.g. a row precondition no longer holds
    /// on the mutated topology).
    Plan(DispersionError),
    /// The engine rejected a round or an event mid-run.
    Run(RunError),
    /// A `bdtr1` document failed to parse or re-execute.
    Replay(String),
}

impl fmt::Display for DynamicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DynamicError::Validation(msg) => write!(f, "invalid event schedule: {msg}"),
            DynamicError::Graph(e) => write!(f, "edge mutation failed: {e}"),
            DynamicError::Plan(e) => write!(f, "epoch planning failed: {e}"),
            DynamicError::Run(e) => write!(f, "epoch execution failed: {e}"),
            DynamicError::Replay(msg) => write!(f, "bdtr1 replay failed: {msg}"),
        }
    }
}

impl std::error::Error for DynamicError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DynamicError::Graph(e) => Some(e),
            DynamicError::Plan(e) => Some(e),
            DynamicError::Run(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for DynamicError {
    fn from(e: GraphError) -> Self {
        DynamicError::Graph(e)
    }
}

impl From<DispersionError> for DynamicError {
    fn from(e: DispersionError) -> Self {
        DynamicError::Plan(e)
    }
}

impl From<RunError> for DynamicError {
    fn from(e: RunError) -> Self {
        DynamicError::Run(e)
    }
}
