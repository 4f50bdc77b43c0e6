//! Precomputed port scripts: the walks of the paper that need no
//! communication (Theorem 1's `Find-Map`, the gathering walk), held as a
//! shared slice plus a cursor. A controller steps through its script one
//! port per stepped round and hands the rest to the engine as its scripted
//! horizon (`bd_runtime::Controller::scripted`), which applies it in bulk.

use bd_graphs::Port;
use std::sync::Arc;

/// A port script and how much of it has been taken. Robots that start on
/// one node share one script.
#[derive(Debug, Clone)]
pub struct PortScript {
    ports: Arc<[Port]>,
    taken: usize,
}

impl PortScript {
    /// A script nothing has been taken from yet.
    pub fn new(ports: impl Into<Arc<[Port]>>) -> Self {
        PortScript {
            ports: ports.into(),
            taken: 0,
        }
    }

    /// Take the next port, or `None` once the script is walked.
    pub fn pop(&mut self) -> Option<Port> {
        let port = self.ports.get(self.taken).copied();
        self.taken += usize::from(port.is_some());
        port
    }

    /// Whether every port has been taken.
    pub fn done(&self) -> bool {
        self.taken == self.ports.len()
    }

    /// The ports not yet taken, at most `rounds` of them.
    pub fn rest(&self, rounds: u64) -> &[Port] {
        let rest = &self.ports[self.taken..];
        let len = usize::try_from(rounds).map_or(rest.len(), |r| r.min(rest.len()));
        &rest[..len]
    }

    /// Mark `rounds` more ports taken (the engine applied them in bulk).
    pub fn advance(&mut self, rounds: u64) {
        self.taken += rounds as usize;
        debug_assert!(self.taken <= self.ports.len(), "advanced past the script");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_clips_and_advances() {
        let mut s = PortScript::new(vec![3, 1, 4, 1, 5]);
        assert_eq!(s.pop(), Some(3));
        assert_eq!(s.rest(2), &[1, 4]);
        assert_eq!(s.rest(u64::MAX), &[1, 4, 1, 5]);
        s.advance(3);
        assert_eq!((s.pop(), s.done()), (Some(5), true));
        assert_eq!(s.pop(), None);
        assert!(s.rest(9).is_empty());
    }
}
