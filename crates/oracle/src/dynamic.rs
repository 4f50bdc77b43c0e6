//! Dynamic-world differential checking: event-scheduled cells, two
//! engines, per-epoch comparison.
//!
//! `bd-dynamic`'s [`DynamicSession`] drives any [`EpochBackend`]; this
//! module reruns the **identical** [`DynamicSpec`] — same schedule, same
//! per-epoch plans, same controllers seated by [`bd_dispersion::run_epoch`]
//! — on the fast engine and on the naive [`OracleEngine`]. Agreement is
//! judged by the static checker's `judge` (same exemptions as
//! [`crate::diff`]): the movement-normalized cumulative trace, each
//! epoch's outcome, and the absolute round clock. The dynamic fuzz
//! harness samples event schedules on top of the static case space and
//! greedily minimizes a divergence by dropping whole event batches.

use crate::diff::{diff, judge, outcome_divergence, CellVerdict, Divergence, Judged};
use crate::engine::OracleEngine;
use crate::fuzz::{draw_case, fuzz, CaseSketch, FuzzConfig, FuzzReport, Sketch};
use bd_dispersion::adversaries::AdversaryKind;
use bd_dispersion::registry::StartRequirement;
use bd_dispersion::{EpochBackend, Msg, RosterEntry};
use bd_dynamic::{DynamicOutcome, DynamicSession, DynamicSpec, EventKind, EventSchedule};
use bd_graphs::PortGraph;
use bd_runtime::{Engine, EngineConfig, EpochOutcome, RunError, Trace, WorldEvent};
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt;
use std::sync::Arc;

impl EpochBackend for OracleEngine<Msg> {
    fn begin_epoch(&mut self, seats: Vec<RosterEntry>) -> Result<(), RunError> {
        OracleEngine::begin_epoch(
            self,
            seats.into_iter().map(|s| (s.flavor, s.start, s.controller)),
        )
    }

    fn run_epoch(&mut self, stop_at: u64) -> Result<EpochOutcome, RunError> {
        OracleEngine::run_epoch(self, stop_at)
    }

    fn advance_to(&mut self, round: u64) -> Result<(), RunError> {
        OracleEngine::advance_to(self, round)
    }

    fn set_graph(&mut self, graph: Arc<PortGraph>) -> Result<(), RunError> {
        self.apply_world_event(WorldEvent::Graph { graph })
    }

    fn round(&self) -> u64 {
        OracleEngine::round(self)
    }

    fn into_trace(self) -> Trace {
        OracleEngine::into_trace(self)
    }
}

/// Differentially check one dynamic cell: the fast engine under `tune`
/// (pass `|c| c` for the real fast path; the broken-engine
/// demonstrations pass `|c| c.with_ff_overshoot(1)` and expect
/// `Diverged`) versus the oracle, over the whole epoch sequence.
pub fn check_dynamic_cell(
    session: &DynamicSession,
    spec: &DynamicSpec,
    tune: impl FnOnce(EngineConfig) -> EngineConfig,
) -> CellVerdict {
    judge(
        session.run_with(spec, |g, c| Engine::new(g, tune(c).traced())),
        session.run_with(spec, OracleEngine::new),
    )
}

impl Judged for DynamicOutcome {
    fn trace(&self) -> &Trace {
        &self.trace
    }

    fn rounds(&self) -> u64 {
        self.total_rounds
    }

    /// The epoch count, then each epoch's clock, termination and outcome
    /// (named with the epoch index), then the final round clock.
    fn field_divergence(&self, oracle: &Self) -> Option<Divergence> {
        if let Some(d) = diff("epochs.len", &self.epochs.len(), &oracle.epochs.len()) {
            return Some(d);
        }
        for (i, (f, o)) in self.epochs.iter().zip(&oracle.epochs).enumerate() {
            let d = diff("start_round", &f.start_round, &o.start_round)
                .or_else(|| diff("end_round", &f.end_round, &o.end_round))
                .or_else(|| diff("terminated", &f.terminated, &o.terminated))
                .or_else(|| outcome_divergence(&f.outcome, &o.outcome));
            if let Some(mut d) = d {
                if let Divergence::Outcome { epoch, .. } = &mut d {
                    *epoch = Some(i);
                }
                return Some(d);
            }
        }
        diff("total_rounds", &self.total_rounds, &oracle.total_rounds)
    }
}

/// One dynamic fuzz case: a static sketch plus a sampled event schedule.
/// Regenerates deterministically from its seeds, like [`CaseSketch`].
#[derive(Debug, Clone)]
pub struct DynamicSketch {
    /// The static half (graph family, row, cast, adversary, seeds).
    pub base: CaseSketch,
    /// The sampled event timeline.
    pub schedule: EventSchedule,
}

impl fmt::Display for DynamicSketch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} + {} events", self.base, self.schedule.events.len())?;
        for (at, batch) in self.schedule.batches() {
            write!(f, " @{at}:{:?}", batch)?;
        }
        Ok(())
    }
}

impl DynamicSketch {
    /// Build the spec this sketch describes (against its own graph).
    pub fn spec(&self, graph: &PortGraph) -> DynamicSpec {
        DynamicSpec {
            base: self.base.spec(graph),
            schedule: self.schedule.clone(),
        }
    }
}

impl Sketch for DynamicSketch {
    const LABEL: &'static str = "DYNAMIC ";

    fn check(&self, tune: impl FnOnce(EngineConfig) -> EngineConfig) -> CellVerdict {
        let graph = self.base.graph();
        let spec = self.spec(&graph);
        check_dynamic_cell(&DynamicSession::new(graph), &spec, tune)
    }

    /// Drop one whole event batch, earliest first. The base cell is left
    /// alone — shrinking it would change every epoch boundary at once.
    fn shrink(&self) -> Vec<Self> {
        self.schedule
            .batches()
            .into_iter()
            .map(|(at, _)| {
                let mut candidate = self.clone();
                candidate.schedule.events.retain(|e| e.at != at);
                candidate
            })
            .collect()
    }
}

/// Sample an event schedule for `base` (validated; `None` when the drawn
/// events cannot be made consistent, e.g. the row demands gathered
/// starts).
fn draw_schedule(rng: &mut StdRng, base: &CaseSketch) -> Option<EventSchedule> {
    if base.algo.row().start_requirement() == StartRequirement::Gathered {
        return None;
    }
    let graph = base.graph();
    let n = graph.n();
    let session = DynamicSession::new(graph.clone());
    // A handful of attempts per base cell: schedules are drawn blind, so
    // some (disconnecting cuts, dead-robot leaves) will not validate.
    for _ in 0..8 {
        let batches = rng.gen_range(1..=3usize);
        let mut schedule = EventSchedule::default();
        // Event rounds land inside or just past the first epochs; spacing
        // by at least 2 keeps batches distinct and epochs non-trivial.
        let mut at = 0u64;
        let mut population = base.k;
        for _ in 0..batches {
            at += rng.gen_range(2..=(n as u64).max(3));
            for _ in 0..rng.gen_range(1..=2usize) {
                let kind = match rng.gen_range(0..6u8) {
                    0 => {
                        population += 1;
                        EventKind::Join {
                            node: rng.gen_range(0..n),
                            // Hostile joins allowed, but mostly honest so
                            // `f < k` usually survives validation.
                            honest: rng.gen_range(0..4u8) != 0,
                        }
                    }
                    1 => EventKind::Leave {
                        robot: rng.gen_range(0..population),
                    },
                    2 => {
                        let u = rng.gen_range(0..n);
                        let ports = graph.degree(u);
                        if ports == 0 {
                            continue;
                        }
                        let (v, _) = graph.neighbor(u, rng.gen_range(0..ports));
                        EventKind::EdgeFail { u, v }
                    }
                    3 => {
                        let u = rng.gen_range(0..n);
                        let v = rng.gen_range(0..n);
                        EventKind::EdgeHeal { u, v }
                    }
                    4 => {
                        let pool: Vec<AdversaryKind> = AdversaryKind::all()
                            .into_iter()
                            .filter(|a| !a.needs_strong() || base.algo.strong())
                            .collect();
                        EventKind::AdversarySwitch {
                            adversary: pool[rng.gen_range(0..pool.len())],
                        }
                    }
                    _ => EventKind::CapacityChange {
                        capacity: rng.gen_range(1..=3usize),
                    },
                };
                schedule = schedule.with(at, kind);
            }
        }
        if schedule.is_empty() {
            continue;
        }
        let spec = DynamicSpec {
            base: base.spec(&graph),
            schedule: schedule.clone(),
        };
        if session.validate(&spec).is_ok() {
            return Some(schedule);
        }
    }
    None
}

/// Fuzz event-scheduled cells with `tune` on the fast side (`|c| c`
/// for the real engine; broken-engine demonstrations pass
/// `|c| c.with_ff_overshoot(1)`). Each draw is a static base case plus a
/// sampled schedule; a base with no valid schedule is discarded.
pub fn run_dynamic_fuzz(
    config: &FuzzConfig,
    tune: impl Fn(EngineConfig) -> EngineConfig,
) -> FuzzReport<DynamicSketch> {
    // Offset the stream so the dynamic pass explores different base cells
    // than the static pass run from the same master seed.
    let draw = |rng: &mut StdRng| {
        let base = draw_case(rng, config.max_n);
        draw_schedule(rng, &base).map(|schedule| DynamicSketch { base, schedule })
    };
    fuzz(config, config.seed ^ 0xD11A_11C5, draw, tune)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_dispersion::runner::Algorithm;
    use bd_dispersion::ScenarioSpec;
    use bd_dynamic::ScheduledEvent;
    use bd_graphs::generators::ring;
    use std::time::Duration;

    #[test]
    fn fast_and_oracle_agree_on_a_churn_cell() {
        let g = ring(8).unwrap();
        let spec = DynamicSpec {
            base: ScenarioSpec::arbitrary(Algorithm::Baseline, &g)
                .with_robots(6)
                .with_seed(7),
            schedule: EventSchedule::new(vec![
                ScheduledEvent {
                    at: 3,
                    kind: EventKind::EdgeFail { u: 0, v: 1 },
                },
                ScheduledEvent {
                    at: 6,
                    kind: EventKind::Join {
                        node: 4,
                        honest: true,
                    },
                },
                ScheduledEvent {
                    at: 6,
                    kind: EventKind::Leave { robot: 0 },
                },
                ScheduledEvent {
                    at: 9,
                    kind: EventKind::EdgeHeal { u: 0, v: 1 },
                },
            ]),
        };
        let session = DynamicSession::new(g);
        let verdict = check_dynamic_cell(&session, &spec, |c| c);
        assert!(verdict.agreed(), "unexpected divergence: {verdict:?}");
        assert!(matches!(verdict, CellVerdict::Match { .. }));
    }

    #[test]
    fn per_epoch_mismatch_names_the_field_and_the_epoch() {
        let g = ring(8).unwrap();
        let spec = DynamicSpec {
            base: ScenarioSpec::arbitrary(Algorithm::Baseline, &g)
                .with_robots(6)
                .with_seed(7),
            schedule: EventSchedule::default().with(3, EventKind::EdgeFail { u: 0, v: 1 }),
        };
        let fast = DynamicSession::new(g).run(&spec).unwrap();
        let mut oracle = fast.clone();
        oracle.epochs[1].outcome.honest[0] ^= true;
        let verdict = judge::<_, bd_dynamic::DynamicError>(Ok(fast), Ok(oracle));
        let CellVerdict::Diverged(d) = verdict else {
            panic!("a flipped honesty flag must diverge: {verdict:?}");
        };
        assert!(matches!(
            *d,
            Divergence::Outcome {
                epoch: Some(1),
                field: "honest",
                ..
            }
        ));
        assert!(
            d.to_string().starts_with("outcome.epochs[1].honest: "),
            "{d}"
        );
    }

    #[test]
    fn broken_fast_forward_is_caught_on_dynamic_cells() {
        // Sqrt row has idle phases; overshooting the ff clamp by one round
        // must diverge from the oracle even mid-epoch-sequence.
        let g = ring(9).unwrap();
        let spec = DynamicSpec {
            base: ScenarioSpec::arbitrary(Algorithm::ArbitrarySqrtTh5, &g)
                .with_byzantine(1, AdversaryKind::Silent)
                .with_seed(3),
            schedule: EventSchedule::default().with(
                12,
                EventKind::AdversarySwitch {
                    adversary: AdversaryKind::Wanderer,
                },
            ),
        };
        let session = DynamicSession::new(g);
        assert!(check_dynamic_cell(&session, &spec, |c| c).agreed());
        let broken = check_dynamic_cell(&session, &spec, |c| c.with_ff_overshoot(1));
        assert!(
            !broken.agreed(),
            "sabotaged fast-forward not caught: {broken:?}"
        );
    }

    #[test]
    fn bounded_dynamic_fuzz_is_clean() {
        let config = FuzzConfig {
            cases: 25,
            seed: 0xD1,
            max_n: 9,
            time_budget: Some(Duration::from_secs(60)),
        };
        let report = run_dynamic_fuzz(&config, |c| c);
        assert!(
            report.clean(),
            "dynamic divergence: {}",
            report.failure.unwrap()
        );
        assert!(report.cases_run > 0, "every draw was discarded");
    }
}
