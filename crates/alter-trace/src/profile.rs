//! The deterministic phase profiler's aggregation layer.
//!
//! [`Profile`] folds the [`Event::PhaseProfile`] entries of a trace into
//! per-phase cost-unit totals and renders them two ways: a sorted hotspot
//! table (the `alter-cli trace --profile` / `alter-cli profile` report) and
//! folded-stack lines (`workload;phase cost`) that any flamegraph tool can
//! consume directly. Because phase costs are deterministic cost units, a
//! `Profile` is a pure function of the trace — byte-stable across reruns,
//! machines and drivers — which is what lets `VERDICTS.json` sit under
//! a CI drift check.
//!
//! Wall-clock mirroring is deliberately out-of-band: [`WallProfile`] is a
//! thread-safe accumulator the engine fills when one is attached, so
//! seconds never enter the event stream, the trace hash, or any
//! drift-checked artifact.

use crate::event::{Event, Phase};
use std::fmt::Write as _;
use std::sync::Mutex;

/// Number of phases tracked (the length of [`Phase::ALL`]).
pub const PHASE_COUNT: usize = Phase::ALL.len();

/// Per-phase cost-unit totals folded from a trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Profile {
    totals: [u64; PHASE_COUNT],
    /// `Snapshot` entries folded: the engine charges every round exactly
    /// one. (Round indices restart with each `run_loop`, so the highest
    /// index seen under-counts a multi-loop run.)
    rounds: u64,
    /// Highest probe index seen on an `InferProbe` entry, plus one.
    probes: u64,
}

impl Profile {
    /// An empty profile.
    pub fn new() -> Self {
        Profile::default()
    }

    /// Folds the `PhaseProfile` events of a trace; all other events are
    /// ignored.
    pub fn from_events(events: &[Event]) -> Self {
        let mut p = Profile::new();
        for ev in events {
            p.observe(ev);
        }
        p
    }

    /// Folds one event (no-op unless it is a `PhaseProfile`).
    pub fn observe(&mut self, ev: &Event) {
        if let Event::PhaseProfile { round, phase, cost } = ev {
            self.record(*round, *phase, *cost);
        }
    }

    /// Records one phase accounting entry directly.
    pub fn record(&mut self, round: u64, phase: Phase, cost: u64) {
        self.totals[phase.index()] += cost;
        match phase {
            Phase::InferProbe => self.probes = self.probes.max(round + 1),
            Phase::Snapshot => self.rounds += 1,
            _ => {}
        }
    }

    /// Merges another profile's totals into this one.
    pub fn merge(&mut self, other: &Profile) {
        for (t, o) in self.totals.iter_mut().zip(&other.totals) {
            *t += o;
        }
        self.rounds += other.rounds;
        self.probes = self.probes.max(other.probes);
    }

    /// Total cost units charged to `phase`.
    pub fn cost(&self, phase: Phase) -> u64 {
        self.totals[phase.index()]
    }

    /// Total cost units across all phases.
    pub fn total(&self) -> u64 {
        self.totals.iter().sum()
    }

    /// Rounds profiled, across every `run_loop` of the trace.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Inference probes covered by the `InferProbe` entries.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Fraction of the total cost charged to `phase` (0.0 when empty).
    pub fn share(&self, phase: Phase) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.cost(phase) as f64 / total as f64
        }
    }

    /// Phases with their totals and shares, most expensive first; ties
    /// break on pipeline order so the table is deterministic.
    pub fn hotspots(&self) -> Vec<(Phase, u64, f64)> {
        let mut rows: Vec<(Phase, u64, f64)> = Phase::ALL
            .into_iter()
            .map(|p| (p, self.cost(p), self.share(p)))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.index().cmp(&b.0.index())));
        rows
    }

    /// The sorted hotspot table, empty phases skipped.
    pub fn render(&self, label: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "phase profile: {label} ({} cost units, {} round(s), {} probe(s))",
            self.total(),
            self.rounds,
            self.probes
        );
        let _ = writeln!(out, "  {:<12} {:>14} {:>8}", "phase", "cost units", "share");
        for (phase, cost, share) in self.hotspots() {
            if cost == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<12} {:>14} {:>7.1}%",
                phase.as_str(),
                cost,
                share * 100.0
            );
        }
        out
    }

    /// Folded-stack lines (`label;phase cost`), one per non-empty phase in
    /// pipeline order — the input format of standard flamegraph tooling.
    pub fn folded(&self, label: &str) -> String {
        let mut out = String::new();
        for phase in Phase::ALL {
            let cost = self.cost(phase);
            if cost > 0 {
                let _ = writeln!(out, "{label};{} {cost}", phase.as_str());
            }
        }
        out
    }
}

/// Thread-safe wall-clock accumulator mirroring the cost-unit profiler in
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

    fn entry(round: u64, phase: Phase, cost: u64) -> Event {
        Event::PhaseProfile { round, phase, cost }
    }

    #[test]
    fn profile_folds_totals_rounds_and_probes() {
        let evs = vec![
            Event::RoundStart {
                round: 0,
                tasks: 1,
                snapshot_slots: 4,
            },
            entry(0, Phase::Snapshot, 4),
            entry(0, Phase::Execute, 100),
            entry(0, Phase::Validate, 10),
            entry(0, Phase::Commit, 6),
            entry(1, Phase::Snapshot, 4),
            entry(1, Phase::Execute, 50),
            // A second `run_loop`: round indices restart at 0.
            entry(0, Phase::Snapshot, 4),
            entry(0, Phase::InferProbe, 500),
        ];
        let p = Profile::from_events(&evs);
        assert_eq!(p.cost(Phase::Snapshot), 12);
        assert_eq!(p.cost(Phase::Execute), 150);
        assert_eq!(p.total(), 678);
        assert_eq!(p.rounds(), 3);
        assert_eq!(p.probes(), 1);
        assert!((p.share(Phase::InferProbe) - 500.0 / 678.0).abs() < 1e-12);
    }

    #[test]
    fn hotspots_sort_by_cost_then_pipeline_order() {
        let mut p = Profile::new();
        p.record(0, Phase::Commit, 10);
        p.record(0, Phase::Snapshot, 10);
        p.record(0, Phase::Execute, 99);
        let rows = p.hotspots();
        assert_eq!(rows[0].0, Phase::Execute);
        // Equal costs: snapshot precedes commit (pipeline order).
        assert_eq!(rows[1].0, Phase::Snapshot);
        assert_eq!(rows[2].0, Phase::Commit);
    }

    #[test]
    fn folded_stacks_skip_empty_phases() {
        let mut p = Profile::new();
        p.record(0, Phase::Execute, 7);
        p.record(0, Phase::Validate, 3);
        assert_eq!(p.folded("genome"), "genome;execute 7\ngenome;validate 3\n");
    }

    #[test]
    fn render_lists_only_charged_phases() {
        let mut p = Profile::new();
        p.record(0, Phase::Execute, 7);
        let table = p.render("w");
        assert!(table.contains("execute"));
        assert!(!table.contains("snapshot"));
    }

    #[test]
    fn merge_adds_totals() {
        let mut a = Profile::new();
        a.record(0, Phase::Snapshot, 1);
        a.record(0, Phase::Execute, 5);
        let mut b = Profile::new();
        b.record(0, Phase::Snapshot, 1);
        b.record(0, Phase::Execute, 6);
        b.record(0, Phase::InferProbe, 1);
        a.merge(&b);
        assert_eq!(a.cost(Phase::Execute), 11);
        assert_eq!(a.rounds(), 2, "round counts add; both profiles saw round 0");
        assert_eq!(a.probes(), 1);
    }

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
