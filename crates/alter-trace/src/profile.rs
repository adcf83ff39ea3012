//! The wall-clock mirror of the phase ledger.
//!
//! The engine charges each round's phases in deterministic cost units to
//! `RunStats::phase_costs`, the one phase ledger. [`WallProfile`] is a
//! thread-safe accumulator the engine fills in seconds when one is
//! attached, so wall time never enters the event stream, the trace hash,
//! or any drift-checked artifact.

use crate::event::Phase;
use std::sync::Mutex;

/// Number of phases tracked (the length of [`Phase::ALL`]).
pub const PHASE_COUNT: usize = Phase::ALL.len();

/// Thread-safe wall-clock accumulator mirroring the phase ledger in
/// seconds.
///
/// The engine adds elapsed seconds per phase only when one of these is
/// attached (`ExecParams::wall_profile`), and the numbers stay outside the
/// event stream: wall time is nondeterministic by nature, so it is
/// excluded from trace hashes and every drift-checked artifact.
#[derive(Debug, Default)]
pub struct WallProfile {
    secs: Mutex<[f64; PHASE_COUNT]>,
}

impl WallProfile {
    /// A zeroed accumulator.
    pub fn new() -> Self {
        WallProfile::default()
    }

    /// Adds `seconds` to `phase`.
    pub fn add(&self, phase: Phase, seconds: f64) {
        self.secs.lock().expect("wall profile poisoned")[phase.index()] += seconds;
    }

    /// The accumulated seconds per phase, indexed like [`Phase::ALL`].
    pub fn seconds(&self) -> [f64; PHASE_COUNT] {
        *self.secs.lock().expect("wall profile poisoned")
    }

    /// Total accumulated seconds.
    pub fn total(&self) -> f64 {
        self.seconds().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_profile_accumulates() {
        let w = WallProfile::new();
        w.add(Phase::Snapshot, 0.25);
        w.add(Phase::Snapshot, 0.25);
        w.add(Phase::Commit, 1.0);
        assert_eq!(w.seconds()[Phase::Snapshot.index()], 0.5);
        assert!((w.total() - 1.5).abs() < 1e-12);
    }
}
