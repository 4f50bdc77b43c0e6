//! Engine counters and the per-engine recorder.
//!
//! [`EngineCounters`] is a plain bag of `u64`s the engine increments
//! directly (no atomics, no closures — the recorder is owned by exactly
//! one engine on one thread). [`EngineTelemetry`] wraps the counters with
//! phase-boundary snapshotting: the engine performs a single
//! `round >= next_mark` compare per stepped round and calls
//! [`EngineTelemetry::on_round`] only when a phase boundary is crossed, so
//! the steady-state round stays branch-plus-increment cheap and allocates
//! nothing (the phase vector is pre-sized at construction).
//!
//! Finished runs fold into an [`EngineReport`] and can be published to a
//! process-global drain ([`publish_engine_report`] /
//! [`drain_engine_reports`]) for profilers like `bd-bench --bin profile`.

use std::sync::Mutex;
use std::time::Instant;

/// The engine's observability counters. All fields are cumulative totals
/// except the `*_hwm` high-water marks, which are running maxima.
///
/// Adding a field here requires a matching row in `OBSERVABILITY.md`
/// (the "new engine counter ⇒ new doc row" rule).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineCounters {
    /// Robot relocations committed (one per accepted `MoveChoice::Move`).
    pub moves: u64,
    /// Bulletin messages flushed from the pending buffer onto boards.
    pub bulletin_writes: u64,
    /// Observations served (each hands a robot its node's roster and
    /// bulletin board).
    pub bulletin_reads: u64,
    /// Per-node roster rebuilds (one per dirty node per communicative
    /// sub-round — the re-sort cost of ID-faking adversaries).
    pub roster_resorts: u64,
    /// Roster entries written across all rebuilds.
    pub roster_entries: u64,
    /// Dirty-list insertions (source + destination marks per move).
    pub dirty_marks: u64,
    /// Bulletin boards cleared at round end (touched-list drains).
    pub bulletin_clears: u64,
    /// Fast-forward jumps taken.
    pub ff_jumps: u64,
    /// Rounds skipped by fast-forward.
    pub rounds_skipped: u64,
    /// Rounds actually stepped (not skipped, not in a segment, scripted or
    /// solo).
    pub rounds_stepped: u64,
    /// Rounds applied in bulk as segments in which no robot is solo: every
    /// active robot idle or walking its prelude (see `Controller::prelude`
    /// in `bd-runtime`); each segment also counts one
    /// [`EngineCounters::ff_jumps`].
    pub rounds_scripted: u64,
    /// Rounds applied in bulk as segments in which at least one robot is
    /// solo (see `Intent::Solo` in `bd-runtime`); each segment
    /// also counts one [`EngineCounters::ff_jumps`].
    pub rounds_solo: u64,
    /// `Controller::solo` calls made inside segments (see `bd-runtime`):
    /// one per solo robot per segment run in bulk, one per solo robot per
    /// round of a segment run round-major.
    pub solo_calls: u64,
    /// Prelude ports the engine looked up inside segments: one per cohort
    /// per round (robots past their head that share a tail and a node walk
    /// as one cohort; see `Controller::prelude` in `bd-runtime`), plus
    /// each head port of a robot walking alone.
    pub prelude_walked: u64,
    /// Sub-rounds executed inside stepped rounds, plus the sub-rounds of
    /// every segment round (the segment's sub-round count per round).
    pub subrounds: u64,
    /// `Controller::intent` calls (see `Intent` in `bd-runtime`): one per
    /// robot past its prelude whose last answer no longer holds, at the
    /// epoch's start and after every stepped round, segment and skip.
    pub intent_asks: u64,
    /// High-water mark of the dirty-node list length at round end (how
    /// much roster work one round queued for the next).
    pub dirty_hwm: u64,
    /// High-water mark of a single rebuilt roster's size (the largest
    /// co-location any re-sort had to handle).
    pub roster_hwm: u64,
    /// High-water mark of publications buffered in one sub-round.
    pub bulletin_hwm: u64,
}

impl EngineCounters {
    /// The change since `mark`: cumulative fields subtract; high-water
    /// marks carry the *current* (cumulative) maximum, since a maximum
    /// has no meaningful delta.
    pub(crate) fn delta_since(&self, mark: &EngineCounters) -> EngineCounters {
        EngineCounters {
            moves: self.moves - mark.moves,
            bulletin_writes: self.bulletin_writes - mark.bulletin_writes,
            bulletin_reads: self.bulletin_reads - mark.bulletin_reads,
            roster_resorts: self.roster_resorts - mark.roster_resorts,
            roster_entries: self.roster_entries - mark.roster_entries,
            dirty_marks: self.dirty_marks - mark.dirty_marks,
            bulletin_clears: self.bulletin_clears - mark.bulletin_clears,
            ff_jumps: self.ff_jumps - mark.ff_jumps,
            rounds_skipped: self.rounds_skipped - mark.rounds_skipped,
            rounds_stepped: self.rounds_stepped - mark.rounds_stepped,
            rounds_scripted: self.rounds_scripted - mark.rounds_scripted,
            rounds_solo: self.rounds_solo - mark.rounds_solo,
            solo_calls: self.solo_calls - mark.solo_calls,
            prelude_walked: self.prelude_walked - mark.prelude_walked,
            subrounds: self.subrounds - mark.subrounds,
            intent_asks: self.intent_asks - mark.intent_asks,
            dirty_hwm: self.dirty_hwm,
            roster_hwm: self.roster_hwm,
            bulletin_hwm: self.bulletin_hwm,
        }
    }

    /// Fold `other` into `self`: cumulative fields add, high-water marks
    /// take the maximum. Used by profilers aggregating across runs.
    pub fn absorb(&mut self, other: &EngineCounters) {
        self.moves += other.moves;
        self.bulletin_writes += other.bulletin_writes;
        self.bulletin_reads += other.bulletin_reads;
        self.roster_resorts += other.roster_resorts;
        self.roster_entries += other.roster_entries;
        self.dirty_marks += other.dirty_marks;
        self.bulletin_clears += other.bulletin_clears;
        self.ff_jumps += other.ff_jumps;
        self.rounds_skipped += other.rounds_skipped;
        self.rounds_stepped += other.rounds_stepped;
        self.rounds_scripted += other.rounds_scripted;
        self.rounds_solo += other.rounds_solo;
        self.solo_calls += other.solo_calls;
        self.prelude_walked += other.prelude_walked;
        self.subrounds += other.subrounds;
        self.intent_asks += other.intent_asks;
        self.dirty_hwm = self.dirty_hwm.max(other.dirty_hwm);
        self.roster_hwm = self.roster_hwm.max(other.roster_hwm);
        self.bulletin_hwm = self.bulletin_hwm.max(other.bulletin_hwm);
    }
}

/// One closed phase of a run: the rounds it covered, the counter deltas
/// accrued inside it, its wall-clock time, and the allocations observed
/// by the global odometer while it ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseWindow {
    /// Phase name from the controller's schedule (e.g. `"gather"`).
    pub name: String,
    /// First round of the phase (inclusive).
    pub start_round: u64,
    /// End of the phase (exclusive).
    pub end_round: u64,
    /// Counter deltas accrued during the phase (`*_hwm` fields are the
    /// cumulative maxima as of the phase end).
    pub counters: EngineCounters,
    /// Wall-clock time spent stepping the phase, in microseconds.
    pub wall_micros: u64,
    /// Allocations recorded by [`crate::allocs`] during the phase (zero
    /// unless a counting allocator is installed).
    pub allocs: u64,
}

/// The engine-owned recorder: cumulative counters plus phase
/// snapshotting.
///
/// The engine holds this as `Option<Box<EngineTelemetry>>` (None when
/// recording is disabled) and, per stepped round, performs exactly one
/// compare against [`EngineTelemetry::next_mark`]; [`on_round`] runs only
/// at boundary crossings and handles fast-forward jumps that cross
/// several boundaries at once.
///
/// [`on_round`]: EngineTelemetry::on_round
#[derive(Debug)]
pub struct EngineTelemetry {
    /// Cumulative counters — the engine increments these directly.
    pub counters: EngineCounters,
    /// The next round at which [`EngineTelemetry::on_round`] must run: the
    /// end of the open phase.
    pub next_mark: u64,
    phases: Vec<(String, u64)>,
    next_phase: usize,
    phase_mark: EngineCounters,
    phase_start_round: u64,
    phase_started: Instant,
    phase_start_ts: u64,
    phase_start_allocs: u64,
    closed: Vec<PhaseWindow>,
    started: Instant,
}

impl EngineTelemetry {
    /// A recorder for a run whose controller phase schedule is
    /// `phase_marks`: `(name, exclusive end round)` pairs in ascending
    /// order. An empty schedule records a single `"run"` phase closed at
    /// [`finish`](EngineTelemetry::finish).
    pub fn new(phase_marks: Vec<(String, u64)>) -> Box<Self> {
        let now = Instant::now();
        let first_phase_end = phase_marks.first().map_or(u64::MAX, |&(_, end)| end);
        let closed = Vec::with_capacity(phase_marks.len() + 1);
        Box::new(EngineTelemetry {
            counters: EngineCounters::default(),
            next_mark: first_phase_end,
            phases: phase_marks,
            next_phase: 0,
            phase_mark: EngineCounters::default(),
            phase_start_round: 0,
            phase_started: now,
            phase_start_ts: crate::spans::now_micros(),
            phase_start_allocs: crate::allocs(),
            closed,
            started: now,
        })
    }

    /// Close every phase boundary at or before `round`, then
    /// recompute [`next_mark`](EngineTelemetry::next_mark). Call when
    /// `round >= next_mark` — including after fast-forward jumps, which
    /// may cross many boundaries in one step.
    pub fn on_round(&mut self, round: u64) {
        while self.next_phase < self.phases.len() && self.phases[self.next_phase].1 <= round {
            let (name, end) = self.phases[self.next_phase].clone();
            self.close_phase(name, end);
            self.next_phase += 1;
        }
        self.next_mark = self
            .phases
            .get(self.next_phase)
            .map_or(u64::MAX, |&(_, end)| end);
    }

    fn close_phase(&mut self, name: String, end_round: u64) {
        let now_allocs = crate::allocs();
        let window = PhaseWindow {
            name,
            start_round: self.phase_start_round,
            end_round,
            counters: self.counters.delta_since(&self.phase_mark),
            wall_micros: self.phase_started.elapsed().as_micros() as u64,
            allocs: now_allocs - self.phase_start_allocs,
        };
        // Phase level of the span tree (batch → cell → phase): a complete
        // event with the phase's real wall bounds, when spans are on.
        if crate::spans_enabled() {
            crate::spans::complete(
                "phase",
                &window.name,
                self.phase_start_ts,
                window.wall_micros,
                vec![(
                    "rounds",
                    (window.end_round - window.start_round).to_string(),
                )],
            );
        }
        self.phase_mark = self.counters;
        self.phase_start_round = end_round;
        self.phase_started = Instant::now();
        self.phase_start_ts = crate::spans::now_micros();
        self.phase_start_allocs = now_allocs;
        self.closed.push(window);
    }

    /// Seal the recorder at the run's final round, closing any open
    /// trailing phase (named `"run"` when no schedule was supplied).
    pub fn finish(mut self: Box<Self>, final_round: u64) -> EngineReport {
        self.on_round(final_round.saturating_sub(1).max(self.phase_start_round));
        if final_round > self.phase_start_round || self.closed.is_empty() {
            let name = if self.next_phase < self.phases.len() {
                self.phases[self.next_phase].0.clone()
            } else {
                "run".to_string()
            };
            self.close_phase(name, final_round);
        }
        EngineReport {
            rounds: final_round,
            wall_micros: self.started.elapsed().as_micros() as u64,
            total: self.counters,
            phases: self.closed,
        }
    }
}

/// The sealed output of one instrumented run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineReport {
    /// Final measured round count of the run.
    pub rounds: u64,
    /// Total wall-clock of the stepping loop, microseconds.
    pub wall_micros: u64,
    /// Cumulative counters over the whole run.
    pub total: EngineCounters,
    /// Closed phases, in schedule order.
    pub phases: Vec<PhaseWindow>,
}

static REPORTS: Mutex<Vec<EngineReport>> = Mutex::new(Vec::new());

/// Publish a sealed report to the process-global drain (a no-op when
/// counter recording is disabled, so un-instrumented runs never grow the
/// buffer).
pub fn publish_engine_report(report: EngineReport) {
    if !crate::counters_enabled() {
        return;
    }
    REPORTS.lock().unwrap().push(report);
}

/// Take every published report, oldest first.
pub fn drain_engine_reports() -> Vec<EngineReport> {
    std::mem::take(&mut *REPORTS.lock().unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bump(t: &mut EngineTelemetry, moves: u64) {
        t.counters.moves += moves;
        t.counters.rounds_stepped += 1;
    }

    #[test]
    fn phases_capture_deltas() {
        let mut t = EngineTelemetry::new(vec![("a".into(), 3), ("b".into(), 7)]);
        for round in 0..10u64 {
            if round >= t.next_mark {
                t.on_round(round);
            }
            bump(&mut t, 2);
        }
        let report = t.finish(10);
        assert_eq!(report.rounds, 10);
        let names: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "run"]);
        assert_eq!(report.phases[0].counters.moves, 6);
        assert_eq!(report.phases[1].counters.moves, 8);
        assert_eq!(report.phases[2].counters.moves, 6);
        assert_eq!(report.phases[0].start_round, 0);
        assert_eq!(report.phases[0].end_round, 3);
        assert_eq!(report.phases[2].end_round, 10);
        assert_eq!(report.total.moves, 20);
    }

    #[test]
    fn jump_crosses_many_boundaries_at_once() {
        let mut t = EngineTelemetry::new(vec![("a".into(), 5), ("b".into(), 100_000)]);
        bump(&mut t, 1);
        // Fast-forward straight past phase "a".
        let landing = 99_999u64;
        assert!(landing >= t.next_mark);
        t.on_round(landing);
        bump(&mut t, 1);
        let report = t.finish(100_000);
        assert_eq!(report.phases.len(), 2);
        assert_eq!(report.phases[0].counters.moves, 1);
        assert_eq!(report.phases[1].counters.moves, 1);
    }

    #[test]
    fn empty_schedule_records_single_run_phase() {
        let mut t = EngineTelemetry::new(Vec::new());
        bump(&mut t, 4);
        let report = t.finish(1);
        assert_eq!(report.phases.len(), 1);
        assert_eq!(report.phases[0].name, "run");
        assert_eq!(report.phases[0].counters.moves, 4);
    }

    #[test]
    fn delta_and_absorb_roundtrip() {
        let a = EngineCounters {
            moves: 10,
            dirty_hwm: 7,
            ..Default::default()
        };
        let mark = EngineCounters {
            moves: 4,
            dirty_hwm: 7,
            ..Default::default()
        };
        let d = a.delta_since(&mark);
        assert_eq!(d.moves, 6);
        assert_eq!(d.dirty_hwm, 7, "hwm carries the cumulative maximum");
        let mut agg = EngineCounters::default();
        agg.absorb(&a);
        agg.absorb(&d);
        assert_eq!(agg.moves, 16);
        assert_eq!(agg.dirty_hwm, 7);
    }
}
