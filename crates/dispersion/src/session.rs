//! The scenario/session layer: the generic plan → engine → verify pipeline
//! over `dyn TableRow`, and the batch API that fans scenario cells out over
//! one shared graph.
//!
//! A [`Session`] wraps one `Arc<PortGraph>`. [`Session::run`] executes a
//! single [`ScenarioSpec`]; [`Session::run_batch`] executes a slice of them
//! on a scoped thread pool (one worker per available core), all sharing
//! the session's graph handle — the per-run graph clone the old monolithic
//! runner paid is gone.
//!
//! Every run, static or dynamic, on either engine, goes through the epoch
//! surface: an engine is an [`EpochBackend`], and [`run_epoch`] is the one
//! per-epoch pipeline (seat `build_roster` → run to termination or a
//! stop round → annotate phases → `assemble_outcome`). A static cell is
//! a single epoch stopped at `u64::MAX` ([`Session::run_with`]);
//! `bd-dynamic` chains epochs between scheduled events, and `bd-oracle`
//! plugs its naive engine into the same trait.
//!
//! The pipeline itself is algorithm-agnostic: every per-row fact (tolerance,
//! start requirement, precondition, round budget, controller construction)
//! is read off the row's [`crate::registry::TableRow`] descriptor.

use crate::adversaries::{AdversaryController, AdversaryKind, CrashWrapper};
use crate::error::DispersionError;
use crate::msg::Msg;
use crate::registry::{Plan, StartRequirement};
use crate::runner::{ByzPlacement, Outcome, ScenarioSpec, StartConfig};
use crate::verify::verify_with_capacity;
use bd_gathering::{gather_routes, gathering_target};
use bd_graphs::{NodeId, PortGraph};
use bd_runtime::ids::generate_ids;
use bd_runtime::{
    Controller, Engine, EngineConfig, EpochOutcome, Flavor, RobotId, RunError, RunMetrics, Trace,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One engine seat of a planned scenario: the fault flavor the engine
/// enforces, the start node, and the controller that drives the robot.
pub struct RosterEntry {
    /// Honest / weak-Byzantine / strong-Byzantine, as the engine sees it.
    pub flavor: Flavor,
    /// Start node.
    pub start: NodeId,
    /// The controller, boxed for the engine.
    pub controller: Box<dyn Controller<Msg>>,
}

/// Build the complete engine roster for `spec` from its `plan` — exactly
/// the seats [`run_epoch`] hands either engine, in robot order: honest
/// controllers from the row's factory, [`AdversaryController`]s for the
/// Byzantine contingent (strong flavor on strong rows), and
/// [`CrashWrapper`]-wrapped faithful controllers for `CrashMidway`.
///
/// Both engines field the cast this builds from equal plans: the
/// oracle-differential guarantee is meaningful only if the two engines
/// differ in nothing but the stepping machinery.
fn build_roster(spec: &ScenarioSpec, plan: &Plan) -> Vec<RosterEntry> {
    let row = spec.algo.row();
    let k = plan.k;
    let run_end = row.round_budget(plan);
    let interaction_start = row.interaction_start(plan);
    let honest_ids: Vec<RobotId> = (0..k)
        .filter(|&i| plan.honest[i])
        .map(|i| plan.ids[i])
        .collect();

    let mut roster = Vec::with_capacity(k);
    let mut coalition_index = 0usize;
    for i in 0..k {
        let start = plan.starts[i];
        if !plan.honest[i] && spec.adversary != AdversaryKind::CrashMidway {
            let flavor = if row.strong() {
                // Strong rows face the strong flavor so the engine lets
                // the adversary fake IDs if it chooses to.
                Flavor::StrongByzantine
            } else {
                Flavor::WeakByzantine
            };
            roster.push(RosterEntry {
                flavor,
                start,
                controller: Box::new(AdversaryController::new(
                    plan.ids[i],
                    spec.adversary,
                    plan.n,
                    spec.seed,
                    plan.gather_script(i),
                    interaction_start,
                    honest_ids.clone(),
                    coalition_index,
                )),
            });
            coalition_index += 1;
            continue;
        }
        let controller = row.build_controller(plan, i);
        if plan.honest[i] {
            roster.push(RosterEntry {
                flavor: Flavor::Honest,
                start,
                controller,
            });
        } else {
            // CrashMidway: a faithful protocol follower that halts
            // halfway through the interactive portion of the run.
            let crash_at = interaction_start + (run_end - interaction_start) / 2;
            roster.push(RosterEntry {
                flavor: Flavor::WeakByzantine,
                start,
                controller: Box::new(CrashWrapper::new(controller, crash_at)),
            });
        }
    }
    roster
}

/// Assemble the public [`Outcome`] of a finished epoch: §5's
/// capacity-generalized Definition 1 check over the final positions, plus
/// the measured metrics. Both engines produce verdicts through it, via
/// [`run_epoch`].
fn assemble_outcome(plan: &Plan, metrics: RunMetrics, final_positions: Vec<NodeId>) -> Outcome {
    // §5 capacity generalization: k robots must leave at most
    // ⌈(k−f)/n⌉ honest robots per node (the verifier module's
    // definition; at k ≤ n this is Definition 1's 1). Algorithms settle
    // at ⌈k/n⌉ — in every Theorem 8-possible regime the two coincide,
    // and where they differ the run is impossible and must be reported
    // as a violation.
    let capacity = (plan.k - plan.f).div_ceil(plan.n);
    let report = verify_with_capacity(&final_positions, &plan.honest, &plan.ids, capacity);
    Outcome {
        dispersed: report.ok,
        rounds: metrics.rounds,
        metrics,
        report,
        final_positions,
        honest: plan.honest.clone(),
    }
}

/// The narrow engine surface every run drives. Implemented by the fast
/// arena [`Engine`] here and by the naive `OracleEngine` in `bd-oracle`;
/// both must agree round-for-round on every cell, static or dynamic (the
/// differential harness holds them to it).
pub trait EpochBackend {
    /// Clear the current cast and seat a fresh one (new IDs: each epoch
    /// is a protocol re-bootstrap). Resets per-epoch metrics.
    fn begin_epoch(&mut self, seats: Vec<RosterEntry>) -> Result<(), RunError>;
    /// Run until honest termination or `stop_at` (absolute round),
    /// whichever first. Returns the epoch-local outcome.
    fn run_epoch(&mut self, stop_at: u64) -> Result<EpochOutcome, RunError>;
    /// Jump the round clock forward to `round` (no stepping; rewinds are
    /// errors). Identical in every backend, so never a divergence source.
    fn advance_to(&mut self, round: u64) -> Result<(), RunError>;
    /// Swap the world's graph (rejects configurations that would strand a
    /// seated robot).
    fn set_graph(&mut self, graph: Arc<PortGraph>) -> Result<(), RunError>;
    /// The absolute round clock (monotone across epochs).
    fn round(&self) -> u64;
    /// Consume the backend, returning the cumulative cross-epoch trace.
    fn into_trace(self) -> Trace
    where
        Self: Sized;
    /// Declare a static run's phase schedule for per-phase telemetry.
    /// Only the fast engine records phases; the default ignores them.
    fn set_phase_marks(&mut self, _marks: Vec<(String, u64)>) {}
}

impl EpochBackend for Engine<Msg> {
    fn begin_epoch(&mut self, seats: Vec<RosterEntry>) -> Result<(), RunError> {
        Engine::begin_epoch(
            self,
            seats.into_iter().map(|s| (s.flavor, s.start, s.controller)),
        )
    }

    fn run_epoch(&mut self, stop_at: u64) -> Result<EpochOutcome, RunError> {
        Engine::run_epoch(self, stop_at)
    }

    fn advance_to(&mut self, round: u64) -> Result<(), RunError> {
        Engine::advance_to(self, round)
    }

    fn set_graph(&mut self, graph: Arc<PortGraph>) -> Result<(), RunError> {
        Engine::set_graph(self, graph)
    }

    fn round(&self) -> u64 {
        Engine::round(self)
    }

    fn into_trace(self) -> Trace {
        Engine::into_trace(self)
    }

    fn set_phase_marks(&mut self, marks: Vec<(String, u64)>) {
        Engine::set_phase_marks(self, marks)
    }
}

/// Run one epoch of `spec` (planned as `plan`) on `backend`: seat the
/// `build_roster` cast, drive it to honest termination or `stop_at`,
/// annotate the epoch-local rounds with the row's phase schedule, and
/// verify. Returns the outcome and whether every honest robot terminated
/// before `stop_at`. Static cells and every dynamic epoch run through
/// here, on either engine.
pub fn run_epoch<B: EpochBackend>(
    backend: &mut B,
    spec: &ScenarioSpec,
    plan: &Plan,
    stop_at: u64,
) -> Result<(Outcome, bool), RunError> {
    backend.begin_epoch(build_roster(spec, plan))?;
    let mut epoch = backend.run_epoch(stop_at)?;
    // Annotate the measured rounds with the row's phase schedule, clipped
    // to the rounds actually run (fast termination or a stop can end an
    // epoch mid-phase; zero-round phases are dropped). Excluded from
    // metric equality, like the wall clock.
    let rounds = epoch.metrics.rounds;
    epoch.metrics.rounds_by_phase = spec
        .algo
        .row()
        .phase_schedule(plan)
        .phases()
        .iter()
        .map(|(name, start, end)| (name.clone(), end.min(&rounds) - start.min(&rounds)))
        .filter(|&(_, len)| len > 0)
        .collect();
    let outcome = assemble_outcome(plan, epoch.metrics, epoch.final_positions);
    Ok((outcome, epoch.terminated))
}

/// A handle on one graph that scenarios run against. Cheap to clone
/// (`Arc` inside); share it across sweeps instead of re-cloning the graph
/// per run.
#[derive(Clone)]
pub struct Session {
    graph: Arc<PortGraph>,
}

impl Session {
    /// Open a session on `graph`. Accepts an owned graph or an existing
    /// `Arc` handle.
    pub fn new(graph: impl Into<Arc<PortGraph>>) -> Self {
        Session {
            graph: graph.into(),
        }
    }

    /// The shared graph handle.
    pub fn graph(&self) -> &Arc<PortGraph> {
        &self.graph
    }

    /// Validate `spec` against this session's graph and precompute the
    /// run plan (IDs, honesty mask, starts, gathering routes, row-specific
    /// preparation). [`Session::run`] does this internally; it is public so
    /// callers can inspect budgets (`spec.algo.row().round_budget(&plan)`)
    /// without executing the run.
    pub fn plan(&self, spec: &ScenarioSpec) -> Result<Plan, DispersionError> {
        let graph = &self.graph;
        let n = graph.n();
        if n < 3 {
            return Err(DispersionError::BadScenario(format!(
                "graph too small: n = {n}"
            )));
        }
        let k = spec.num_robots;
        if k == 0 {
            return Err(DispersionError::BadScenario("no robots".into()));
        }
        let f = spec.num_byzantine;
        if f >= k {
            return Err(DispersionError::BadScenario(format!("f = {f} >= k = {k}")));
        }
        let row = spec.algo.row();
        let max_f = row.tolerance(n, k);
        if !spec.allow_overload && f > max_f {
            return Err(DispersionError::ToleranceExceeded { f, max: max_f });
        }

        let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xdead_beef);
        let ids = generate_ids(k, n, spec.seed);

        // Byzantine subset by placement policy.
        let byz_idx: std::collections::BTreeSet<usize> = match spec.placement {
            ByzPlacement::LowIds => (0..f).collect(),
            ByzPlacement::HighIds => (k - f..k).collect(),
            ByzPlacement::Random => {
                let mut set = std::collections::BTreeSet::new();
                while set.len() < f {
                    set.insert(rng.gen_range(0..k));
                }
                set
            }
        };
        let honest: Vec<bool> = (0..k).map(|i| !byz_idx.contains(&i)).collect();

        // Starting positions.
        let starts: Vec<NodeId> = match &spec.starts {
            StartConfig::Gathered(node) => {
                if *node >= n {
                    return Err(DispersionError::BadScenario(format!("start {node} >= n")));
                }
                vec![*node; k]
            }
            StartConfig::RandomArbitrary => (0..k).map(|_| rng.gen_range(0..n)).collect(),
            StartConfig::Explicit(v) => {
                if v.len() != k || v.iter().any(|&s| s >= n) {
                    return Err(DispersionError::BadScenario("bad explicit starts".into()));
                }
                v.clone()
            }
        };

        // Structural graph precondition (quotient isomorphism, ring shape).
        row.precondition(graph)?;

        // Gathering routes where the row needs them; gathered-start rows
        // must get a gathered start.
        let (gather_routes, gather_budget) = match row.start_requirement() {
            StartRequirement::GathersFirst => {
                // One target per plan and one lockstep walk from every
                // start: robots whose walks merged share their tail.
                let target =
                    gathering_target(graph).map_err(|_| DispersionError::GatheringInfeasible)?;
                let routes = gather_routes(graph, &target, &starts);
                (Some(routes), target.budget_rounds)
            }
            StartRequirement::Gathered => {
                if !matches!(spec.starts, StartConfig::Gathered(_)) {
                    return Err(DispersionError::BadScenario(format!(
                        "{} requires a gathered start",
                        row.name()
                    )));
                }
                (None, 0)
            }
            StartRequirement::Any => (None, 0),
        };

        let mut plan = Plan {
            graph: Arc::clone(graph),
            n,
            k,
            f,
            ids,
            honest,
            starts,
            gather_routes,
            gather_budget,
            seed: spec.seed,
            prep: None,
        };
        plan.prep = row.prepare(&plan)?;
        Ok(plan)
    }

    /// Run one scenario to honest termination on the fast engine and
    /// verify Definition 1 (capacity-generalized per §5).
    pub fn run(&self, spec: &ScenarioSpec) -> Result<Outcome, DispersionError> {
        self.run_with(spec, Engine::<Msg>::new)
            .map(|(outcome, _)| outcome)
    }

    /// Run one scenario as a single epoch on the backend `make` builds
    /// from the plan's graph and the pipeline's config (round cap set to
    /// the row's budget plus a margin). The returned [`Trace`] is empty
    /// unless the config `make` hands the engine records one. Callers
    /// tune through `make`: `|g, c| Engine::new(g, c.traced())` records
    /// the trace, `|g, c| OracleEngine::new(g, c.traced())` runs the
    /// reference engine.
    pub fn run_with<B: EpochBackend>(
        &self,
        spec: &ScenarioSpec,
        make: impl FnOnce(Arc<PortGraph>, EngineConfig) -> B,
    ) -> Result<(Outcome, Trace), DispersionError> {
        let plan = self.plan(spec)?;
        self.run_planned(spec, &plan, make)
    }

    /// [`Session::run_with`] for a spec whose [`Plan`] was already
    /// computed (so batch layers never plan twice). `plan` must come from
    /// [`Session::plan`] on the same spec.
    fn run_planned<B: EpochBackend>(
        &self,
        spec: &ScenarioSpec,
        plan: &Plan,
        make: impl FnOnce(Arc<PortGraph>, EngineConfig) -> B,
    ) -> Result<(Outcome, Trace), DispersionError> {
        let row = spec.algo.row();
        // Cell level of the span tree (batch → cell → phase); `None` and
        // free unless span recording was switched on.
        let _cell_span = bd_telemetry::spans::span_with(
            "cell",
            row.name(),
            vec![
                ("n", plan.n.to_string()),
                ("k", plan.k.to_string()),
                ("f", plan.f.to_string()),
                ("seed", spec.seed.to_string()),
            ],
        );
        // Wall-clock measurement covers engine construction + execution;
        // it lands in `RunMetrics::elapsed_micros` (excluded from metric
        // equality — trajectories stay deterministic, clocks do not).
        let wall_start = std::time::Instant::now();

        // Exact honest-termination round from the row's phase timeline;
        // the engine cap carries a small safety margin on top.
        let run_end = row.round_budget(plan);
        let mut backend = make(
            Arc::clone(&plan.graph),
            EngineConfig::with_max_rounds(run_end + 64),
        );
        if bd_telemetry::counters_enabled() {
            backend.set_phase_marks(
                row.phase_schedule(plan)
                    .phases()
                    .iter()
                    .map(|(name, _, end)| (name.clone(), *end))
                    .collect(),
            );
        }
        let (mut outcome, _) = run_epoch(&mut backend, spec, plan, u64::MAX)?;
        let trace = backend.into_trace();
        outcome.metrics.elapsed_micros = wall_start.elapsed().as_micros() as u64;
        Ok((outcome, trace))
    }

    /// Run a batch of scenarios against this session's graph through
    /// [`BatchPlanner`]. Every run shares one `Arc<PortGraph>`; results
    /// come back in spec order, each cell failing independently.
    ///
    /// Single-graph convenience over [`BatchPlanner`], which additionally
    /// interleaves cells across *different* graphs largest-first.
    pub fn run_batch(&self, specs: &[ScenarioSpec]) -> Vec<Result<Outcome, DispersionError>> {
        let mut planner = BatchPlanner::new();
        for spec in specs {
            planner.add(self.graph(), spec.clone());
        }
        planner.run()
    }
}

/// The multi-graph batch layer: queues heterogeneous [`ScenarioSpec`]s
/// across **different** graphs (and graph sizes), shares one [`Session`]
/// per distinct graph (keyed by content digest, with an `Arc`-identity
/// fast path), estimates each cell's cost from
/// the registry's round budget, and executes the cells **largest-first**
/// on a scoped thread pool of `min(available cores, cells)` workers, so
/// the most expensive cells never straggle at the end of a sweep. A
/// one-cell batch runs on the calling thread. Results come back in
/// insertion order.
///
/// ```
/// use bd_dispersion::adversaries::AdversaryKind;
/// use bd_dispersion::runner::{Algorithm, ScenarioSpec};
/// use bd_dispersion::BatchPlanner;
/// use bd_graphs::generators::erdos_renyi_connected;
/// use std::sync::Arc;
///
/// let mut planner = BatchPlanner::new();
/// for n in [8usize, 12] {
///     let graph = Arc::new(erdos_renyi_connected(n, 0.4, 11).unwrap());
///     for seed in 0..2 {
///         // Cells on the same `Arc` share one session; sizes interleave.
///         let spec = ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, &graph, 0)
///             .with_byzantine(1, AdversaryKind::Squatter)
///             .with_seed(seed);
///         planner.add(&graph, spec);
///     }
/// }
/// let results = planner.run(); // insertion order, cells fail independently
/// assert_eq!(results.len(), 4);
/// assert!(results.iter().all(|r| r.as_ref().unwrap().dispersed));
/// ```
#[derive(Default)]
pub struct BatchPlanner {
    sessions: Vec<Session>,
    /// Content digest of each session's graph, parallel to `sessions`.
    /// Sessions are keyed by *content*, not `Arc` identity: re-adding a
    /// clone of an already-queued graph under a fresh `Arc` lands in the
    /// same session (and the same cost-ordering pool) instead of silently
    /// forking a second one.
    graph_digests: Vec<u64>,
    /// Queued cells: (session index, spec), in insertion order.
    cells: Vec<(usize, ScenarioSpec)>,
    /// Extra args for the batch span, set by the caller via
    /// [`BatchPlanner::tag`] — how the daemon threads a request id into
    /// the span tree. Values must be run-derived (rule 3).
    tags: Vec<(&'static str, String)>,
}

impl BatchPlanner {
    /// An empty planner.
    pub fn new() -> Self {
        BatchPlanner::default()
    }

    /// The session handle for `graph`, deduplicated by graph **content**
    /// ([`crate::canon::graph_digest`]): cells queued against equal graphs
    /// share one [`Session`] even across distinct `Arc`s. The common case —
    /// the same `Arc` handle re-added — short-circuits on pointer identity
    /// before any digest is computed.
    fn session_index(&mut self, graph: &Arc<PortGraph>) -> usize {
        if let Some(i) = self
            .sessions
            .iter()
            .position(|s| Arc::ptr_eq(s.graph(), graph))
        {
            return i;
        }
        let digest = crate::canon::graph_digest(graph);
        if let Some(i) = self.graph_digests.iter().position(|&d| d == digest) {
            return i;
        }
        self.sessions.push(Session::new(Arc::clone(graph)));
        self.graph_digests.push(digest);
        self.sessions.len() - 1
    }

    /// Queue `spec` to run against `graph`. Returns the cell's index in
    /// [`BatchPlanner::run`]'s result vector.
    pub fn add(&mut self, graph: &Arc<PortGraph>, spec: ScenarioSpec) -> usize {
        let session = self.session_index(graph);
        self.cells.push((session, spec));
        self.cells.len() - 1
    }

    /// Queued cell count.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cell is queued.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Number of distinct graphs (= sessions) behind the queued cells.
    pub fn num_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Attach an extra `key: value` argument to the batch span the next
    /// [`BatchPlanner::run`] opens — e.g. the serving layer's request id,
    /// so per-request lifelines are separable in a Chrome trace of a busy
    /// daemon. Values must be derived from the run itself, never from
    /// wall-clock (OBSERVABILITY.md rule 3). Re-tagging a key replaces
    /// its value.
    pub fn tag(&mut self, key: &'static str, value: String) {
        if let Some(slot) = self.tags.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.tags.push((key, value));
        }
    }

    /// Estimated cost of one planned cell: the registry's exact round
    /// budget scaled by the roster size (each round steps `k` robots).
    fn cost(spec: &ScenarioSpec, plan: &Plan) -> u64 {
        spec.algo
            .row()
            .round_budget(plan)
            .saturating_mul(plan.k as u64)
    }

    /// Plan and execute every queued cell. Planning runs first so each
    /// cell's cost is known; execution then hands the cells out to the
    /// pool in descending cost order. Each cell fails independently; the
    /// result vector is in [`BatchPlanner::add`] order. A panic in any
    /// cell reaches the caller.
    pub fn run(&self) -> Vec<Result<Outcome, DispersionError>> {
        // Batch level of the span tree: one span over the whole fan-out on
        // the calling thread and one on every worker the run phase spawns,
        // each carrying any caller-attached tags (e.g. the request id).
        let mut batch_args = vec![
            ("cells", self.cells.len().to_string()),
            ("graphs", self.sessions.len().to_string()),
        ];
        batch_args.extend(self.tags.iter().map(|(k, v)| (*k, v.clone())));
        let batch_span = || bd_telemetry::spans::span_with("batch", "batch", batch_args.clone());
        let _batch_span = batch_span();
        // Phase 1: plan each cell (includes row `prepare`, reused by the
        // run below — nothing is planned twice).
        let planned = fan_out(
            &self.cells,
            || (),
            |(session, spec)| {
                self.sessions[*session].plan(spec).map(|plan| {
                    let cost = Self::cost(spec, &plan);
                    (plan, cost)
                })
            },
        );

        // Phase 2: order runnable cells by descending cost; ties keep
        // insertion order so the hand-out order is deterministic.
        let mut results: Vec<Option<Result<Outcome, DispersionError>>> =
            (0..self.cells.len()).map(|_| None).collect();
        let mut work: Vec<(usize, Plan, u64)> = Vec::new();
        for (idx, outcome) in planned.into_iter().enumerate() {
            match outcome {
                Ok((plan, cost)) => work.push((idx, plan, cost)),
                Err(e) => results[idx] = Some(Err(e)),
            }
        }
        work.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));

        // Phase 3: execute largest-first across the pool.
        let ran = fan_out(&work, batch_span, |(idx, plan, _cost)| {
            let (session, spec) = &self.cells[*idx];
            self.sessions[*session]
                .run_planned(spec, plan, Engine::<Msg>::new)
                .map(|(outcome, _)| outcome)
        });
        for ((idx, _, _), outcome) in work.iter().zip(ran) {
            results[*idx] = Some(outcome);
        }
        results
            .into_iter()
            .map(|r| r.expect("every cell planned or errored"))
            .collect()
    }
}

/// Map `f` over `items` on `min(available cores, items.len())` scoped
/// workers, the calling thread one of them, and return the results in
/// `items` order. Workers claim items through one shared cursor, so the
/// front of `items` starts first. Each spawned worker calls `enter` before
/// its first item and holds the returned guard until it stops; the calling
/// thread does not (it is already inside the caller's context). With one
/// item, or one core, everything runs inline and nothing is spawned. A
/// panic in `f` reaches the caller once every worker has stopped.
fn fan_out<T: Sync, R: Send, G>(
    items: &[T],
    enter: impl Fn() -> G + Sync,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let width = match items.len() {
        0 | 1 => 1,
        len => std::thread::available_parallelism().map_or(1, |n| n.get().min(len)),
    };
    if width == 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..width)
            .map(|_| {
                scope.spawn(|| {
                    let _guard = enter();
                    work()
                })
            })
            .collect();
        let mut done = work();
        for handle in spawned {
            done.extend(
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Algorithm;
    use bd_graphs::generators::erdos_renyi_connected;

    fn graph() -> PortGraph {
        erdos_renyi_connected(9, 0.4, 11).unwrap()
    }

    #[test]
    fn session_runs_single_spec() {
        let session = Session::new(graph());
        let spec = ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, session.graph(), 0)
            .with_byzantine(1, AdversaryKind::Squatter)
            .with_seed(3);
        let out = session.run(&spec).unwrap();
        assert!(out.dispersed);
    }

    #[test]
    fn batch_matches_individual_runs_and_preserves_order() {
        let session = Session::new(graph());
        let specs: Vec<ScenarioSpec> = (0..4)
            .map(|seed| {
                ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, session.graph(), 0)
                    .with_byzantine(1, AdversaryKind::Wanderer)
                    .with_seed(seed)
            })
            .collect();
        let batch = session.run_batch(&specs);
        assert_eq!(batch.len(), specs.len());
        for (spec, cell) in specs.iter().zip(&batch) {
            let single = session.run(spec).unwrap();
            let cell = cell.as_ref().unwrap();
            assert_eq!(cell.final_positions, single.final_positions);
            assert_eq!(cell.rounds, single.rounds);
        }
    }

    #[test]
    fn batch_cells_fail_independently() {
        let session = Session::new(graph());
        let good = ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, session.graph(), 0);
        let bad = good.clone().with_robots(0);
        let batch = session.run_batch(&[good, bad]);
        assert!(batch[0].is_ok());
        assert!(matches!(batch[1], Err(DispersionError::BadScenario(_))));
    }

    #[test]
    fn scenario_spec_serde_round_trips() {
        let g = graph();
        let spec = ScenarioSpec::arbitrary(Algorithm::ArbitrarySqrtTh5, &g)
            .with_byzantine(1, AdversaryKind::TokenHijacker)
            .with_placement(ByzPlacement::LowIds)
            .with_robots(12)
            .with_seed(77);
        let json = serde_json::to_string(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.algo, spec.algo);
        assert_eq!(back.num_robots, 12);
        assert_eq!(back.num_byzantine, 1);
        assert_eq!(back.starts, spec.starts);
        assert_eq!(back.seed, 77);
        // A replayed spec produces the identical outcome.
        let session = Session::new(g);
        let a = session.run(&spec).unwrap();
        let b = session.run(&back).unwrap();
        assert_eq!(a.final_positions, b.final_positions);
    }

    #[test]
    fn planner_interleaves_graph_sizes_and_preserves_order() {
        // Heterogeneous graph sizes in one batch: results must come back in
        // insertion order and match individual session runs exactly.
        let graphs: Vec<Arc<PortGraph>> = [9usize, 12]
            .iter()
            .map(|&n| Arc::new(erdos_renyi_connected(n, 0.4, 11).unwrap()))
            .collect();
        let mut planner = BatchPlanner::new();
        let mut expected = Vec::new();
        for graph in &graphs {
            for seed in 0..2 {
                let spec = ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, graph, 0)
                    .with_byzantine(1, AdversaryKind::TokenHijacker)
                    .with_seed(seed);
                planner.add(graph, spec.clone());
                expected.push(Session::new(Arc::clone(graph)).run(&spec).unwrap());
            }
        }
        assert_eq!(planner.num_sessions(), 2, "one session per distinct graph");
        let results = planner.run();
        assert_eq!(results.len(), expected.len());
        for (got, want) in results.iter().zip(&expected) {
            let got = got.as_ref().unwrap();
            assert_eq!(got.rounds, want.rounds);
            assert_eq!(got.final_positions, want.final_positions);
        }
    }

    #[test]
    fn planner_dedupes_sessions_by_graph_content() {
        let graph = Arc::new(graph());
        let mut planner = BatchPlanner::new();
        for seed in 0..3 {
            let spec = ScenarioSpec::gathered(Algorithm::Baseline, &graph, 0).with_seed(seed);
            planner.add(&graph, spec);
        }
        assert_eq!(planner.len(), 3);
        assert_eq!(planner.num_sessions(), 1);
        // Regression (PR 5): a clone of the graph — equal content under a
        // different `Arc` pointer — must land in the *same* session, not
        // silently fork a second one.
        let clone = Arc::new(graph.as_ref().clone());
        assert!(!Arc::ptr_eq(&graph, &clone));
        let idx = planner.add(
            &clone,
            ScenarioSpec::gathered(Algorithm::Baseline, &clone, 0).with_seed(9),
        );
        assert_eq!(
            planner.num_sessions(),
            1,
            "content-keyed, not pointer-keyed"
        );
        assert_eq!(idx, 3, "cell handles stay insertion-ordered");
        // A genuinely different graph still gets its own session.
        let other = Arc::new(erdos_renyi_connected(9, 0.4, 99).unwrap());
        planner.add(
            &other,
            ScenarioSpec::gathered(Algorithm::Baseline, &other, 0),
        );
        assert_eq!(planner.num_sessions(), 2);
        // And the batch still runs every cell correctly.
        let results = planner.run();
        assert_eq!(results.len(), 5);
        assert!(results.iter().all(|r| r.as_ref().unwrap().dispersed));
    }

    #[test]
    fn planner_cells_fail_independently_in_order() {
        let graph = Arc::new(graph());
        let good = ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, &graph, 0);
        let bad = good.clone().with_robots(0);
        let mut planner = BatchPlanner::new();
        planner.add(&graph, bad.clone());
        planner.add(&graph, good);
        planner.add(&graph, bad);
        let results = planner.run();
        assert!(matches!(results[0], Err(DispersionError::BadScenario(_))));
        assert!(results[1].as_ref().unwrap().dispersed);
        assert!(matches!(results[2], Err(DispersionError::BadScenario(_))));
    }

    #[test]
    fn fan_out_reraises_a_panic_from_a_spawned_worker() {
        let width = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
        if width < 2 {
            return; // one core: everything runs inline, nothing is spawned
        }
        // Every worker blocks in its first item until all have one, so
        // each worker holds exactly one item and every spawned one panics.
        let items: Vec<usize> = (0..width).collect();
        let all_started = std::sync::Barrier::new(width);
        let caller = std::thread::current().id();
        let caught = std::panic::catch_unwind(|| {
            fan_out(
                &items,
                || (),
                |&i| {
                    all_started.wait();
                    assert_eq!(std::thread::current().id(), caller, "item {i} on a worker");
                },
            )
        });
        let payload = caught.expect_err("the worker's panic reaches the caller");
        let message = payload.downcast_ref::<String>().expect("formatted message");
        assert!(message.contains("on a worker"), "{message}");
    }

    #[test]
    fn plan_exposes_budget_without_running() {
        let session = Session::new(graph());
        let spec = ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, session.graph(), 0);
        let plan = session.plan(&spec).unwrap();
        let budget = spec.algo.row().round_budget(&plan);
        let out = session.run(&spec).unwrap();
        assert_eq!(out.rounds, budget);
    }
}
