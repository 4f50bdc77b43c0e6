//! # bd-bench
//!
//! The benchmark harness that regenerates the paper's evaluation:
//!
//! * **Table 1** (the paper's only exhibit): the
//!   [`bin/table1`](../../src/bin/table1.rs) binary that prints
//!   measured-vs-paper columns (running time shape, starting configuration,
//!   Byzantine tolerance, strong handling) straight from the `TableRow`
//!   registry; its wall-clock cost is timed by the separate `perfbench`
//!   crate;
//! * **Theorem 8**: the impossibility boundary sweep;
//! * **series** (our additions a systems evaluation would include): rounds
//!   vs `n` per row with fitted exponents, success rate vs `f` around each
//!   tolerance bound, a per-adversary ablation, and `k ≠ n` capacity bins.
//!
//! All cells run on seeded Erdős–Rényi graphs (view-asymmetric w.h.p., so
//! every row's precondition holds) and are embarrassingly parallel; sweeps
//! batch through `BatchPlanner`, whose `rayon` fan-out the vendored offline
//! stand-in runs sequentially.

use bd_dispersion::adversaries::AdversaryKind;
use bd_dispersion::runner::{Algorithm, ByzPlacement, ScenarioSpec};
use bd_dispersion::Session;
use bd_graphs::PortGraph;
use bd_service::{CacheStats, CachedPlanner, ResultStore};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One measured cell of a sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cell {
    pub algo: String,
    pub n: usize,
    pub k: usize,
    pub f: usize,
    pub adversary: String,
    pub seed: u64,
    pub rounds: u64,
    /// Rounds the engine fast-forwarded over (part of `rounds`). Nonzero
    /// in adversarial sweeps since the adversary idle-horizon work; the
    /// measured `rounds` are timeline-derived and unaffected.
    pub rounds_skipped: u64,
    pub total_moves: u64,
    /// Measured wall-clock of the run, microseconds — the *real* per-cell
    /// cost next to the planner's `round_budget × k` estimate. For cells
    /// served from a result store this is the stored run's cost, not the
    /// (near-zero) lookup time.
    pub elapsed_micros: u64,
    pub dispersed: bool,
    /// The run's rounds attributed to the row's phase schedule (clipped to
    /// the rounds actually run) — `RunMetrics::rounds_by_phase` verbatim.
    pub rounds_by_phase: Vec<(String, u64)>,
}

/// Sweep shape of one Table 1 row: the `n` grid and the adversary the row
/// is evaluated against. Everything else (tolerance, start, budget) comes
/// from the row's registry descriptor. Shared by the `table1` printing bin,
/// the `profile` bin and `perfbench` so all three run the identical sweep.
pub struct Table1Sweep {
    /// The Table 1 row.
    pub algo: Algorithm,
    /// Full-mode `n` grid.
    pub ns: &'static [usize],
    /// `--quick` `n` grid.
    pub quick_ns: &'static [usize],
    /// Adversary at the row's maximum tolerance.
    pub adversary: AdversaryKind,
}

/// The Table 1 sweep shapes, in the paper's print order
/// (Thm 1, 2, 5, 3, 4, 7, 6).
pub fn table1_sweeps() -> &'static [Table1Sweep] {
    const SWEEPS: &[Table1Sweep] = &[
        Table1Sweep {
            algo: Algorithm::QuotientTh1,
            ns: &[8, 12, 16, 24, 32],
            quick_ns: &[8, 12, 16],
            adversary: AdversaryKind::FakeSettler,
        },
        Table1Sweep {
            algo: Algorithm::ArbitraryHalfTh2,
            ns: &[6, 8, 10, 12],
            quick_ns: &[6, 8],
            adversary: AdversaryKind::Wanderer,
        },
        Table1Sweep {
            algo: Algorithm::ArbitrarySqrtTh5,
            ns: &[9, 12, 16, 25],
            quick_ns: &[9, 16],
            adversary: AdversaryKind::TokenHijacker,
        },
        Table1Sweep {
            algo: Algorithm::GatheredHalfTh3,
            ns: &[6, 8, 12, 16, 20],
            quick_ns: &[6, 8, 12],
            adversary: AdversaryKind::Wanderer,
        },
        Table1Sweep {
            algo: Algorithm::GatheredThirdTh4,
            ns: &[9, 12, 16, 24, 32],
            quick_ns: &[9, 12, 16],
            adversary: AdversaryKind::TokenHijacker,
        },
        Table1Sweep {
            algo: Algorithm::StrongArbitraryTh7,
            ns: &[8, 12, 16, 24],
            quick_ns: &[8, 12],
            adversary: AdversaryKind::StrongSpoofer,
        },
        Table1Sweep {
            algo: Algorithm::StrongGatheredTh6,
            ns: &[8, 12, 16, 24, 32],
            quick_ns: &[8, 12, 16],
            adversary: AdversaryKind::StrongSpoofer,
        },
    ];
    SWEEPS
}

/// The benchmark graph family: seeded `G(n, p)` with `p` high enough for
/// view asymmetry at small `n` and bounded density at large `n`.
///
/// Delegates to [`bd_graphs::generators::asymmetric_gnp`] — the same pure
/// function the serving layer's `BenchEr` graph source materializes
/// through, so a sweep cell and a daemon submission of the same
/// coordinates share one content digest (and therefore one store entry).
pub fn bench_graph(n: usize, seed: u64) -> PortGraph {
    bd_graphs::generators::asymmetric_gnp(n, seed).expect("bench graph")
}

/// The start configuration each algorithm is evaluated in (Table 1 column
/// "Starting Configuration", read from the row registry).
pub fn starting_config(algo: Algorithm, g: &PortGraph) -> ScenarioSpec {
    ScenarioSpec::evaluation(algo, g)
}

/// Parse the bins' shared `--store DIR` flag out of `argv` and open the
/// store. Exits the process on a missing value or an unopenable store —
/// bin-level behavior, shared by `table1` and `series` so the flag cannot
/// drift between them.
pub fn store_from_args(bin: &str, args: &[String]) -> Option<ResultStore> {
    let i = args.iter().position(|a| a == "--store")?;
    let dir = args.get(i + 1).unwrap_or_else(|| {
        eprintln!("{bin}: --store needs a directory");
        std::process::exit(2);
    });
    Some(ResultStore::open(dir).unwrap_or_else(|e| {
        eprintln!("{bin}: cannot open store {dir}: {e}");
        std::process::exit(1);
    }))
}

/// The value after `flag` in `argv`, parsed; `None` when the flag is
/// absent. Exits 2 on a missing or unparsable value.
pub fn arg_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    let raw = args.get(i + 1).unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    });
    match raw.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("{flag}: cannot parse {raw:?}");
            std::process::exit(2);
        }
    }
}

/// Exit 2 unless every argument after the program name is one of
/// `switches` or one of `valued` followed by its value: a mistyped flag
/// (`--dynamic_only`) must fail loudly, not silently run the default.
pub fn reject_unknown_flags(bin: &str, args: &[String], switches: &[&str], valued: &[&str]) {
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        if valued.contains(&arg.as_str()) {
            rest.next();
        } else if !switches.contains(&arg.as_str()) {
            eprintln!("{bin}: unknown argument {arg:?}");
            std::process::exit(2);
        }
    }
}

/// Parse the bins' shared `--trace-out FILE` flag. When present, span
/// *and* engine-counter recording are switched on process-wide (the phase
/// level of the span tree is emitted by the engine recorder), and the
/// returned handle writes the collected Chrome trace-event JSONL to FILE —
/// call [`TraceOut::finish`] at the end of `main`. Exits the process on a
/// missing value, like [`store_from_args`].
pub fn trace_out_from_args(bin: &str, args: &[String]) -> Option<TraceOut> {
    let i = args.iter().position(|a| a == "--trace-out")?;
    let path = args.get(i + 1).unwrap_or_else(|| {
        eprintln!("{bin}: --trace-out needs a file path");
        std::process::exit(2);
    });
    bd_telemetry::enable_spans(true);
    bd_telemetry::enable_counters(true);
    Some(TraceOut { path: path.clone() })
}

/// A pending trace export (see [`trace_out_from_args`]).
pub struct TraceOut {
    path: String,
}

impl TraceOut {
    /// Drain every recorded span event and write the JSONL trace (one
    /// Chrome trace event object per line; wrap with `jq -s .` for trace
    /// viewers). Also drains the engine-report buffer the instrumented
    /// runs filled, so nothing accumulates across exports.
    pub fn finish(self) {
        use std::io::Write;
        let events = bd_telemetry::spans::drain();
        let _ = bd_telemetry::drain_engine_reports();
        let file = std::fs::File::create(&self.path).unwrap_or_else(|e| {
            eprintln!("--trace-out {}: {e}", self.path);
            std::process::exit(1);
        });
        let mut w = std::io::BufWriter::new(file);
        bd_telemetry::spans::write_chrome_trace(&mut w, &events)
            .and_then(|()| w.flush())
            .unwrap_or_else(|e| panic!("writing trace {}: {e}", self.path));
        eprintln!("wrote {} trace events to {}", events.len(), self.path);
    }
}

/// Memoizes [`bench_graph`] instances as shared `Arc` handles, so sweeps
/// that revisit a `(n, seed)` coordinate (e.g. success-vs-`f` series that
/// vary only `f`) reuse one graph — and therefore one planner session —
/// instead of regenerating and re-owning it per cell.
#[derive(Default)]
pub struct GraphCache(std::collections::BTreeMap<(usize, u64), Arc<PortGraph>>);

impl GraphCache {
    /// An empty cache.
    pub fn new() -> Self {
        GraphCache::default()
    }

    /// The shared graph for `(n, seed)`, generated on first use.
    pub fn get(&mut self, n: usize, seed: u64) -> Arc<PortGraph> {
        Arc::clone(
            self.0
                .entry((n, seed))
                .or_insert_with(|| Arc::new(bench_graph(n, seed))),
        )
    }
}

/// Queue one sweep cell on `planner`, on the cache's shared graph. Returns
/// the spec (for [`cell_of`] after the batch runs).
///
/// The spec is marked overloaded **only** when `f` exceeds the row's
/// tolerance: beyond-tolerance probe sweeps run, while in-budget sweeps
/// keep the session's tolerance guardrail, so a silently mis-sized `f`
/// panics instead of producing an undefined-behavior cell.
fn queue_cell(
    planner: &mut CachedPlanner<'_>,
    cache: &mut GraphCache,
    algo: Algorithm,
    n: usize,
    f: usize,
    adversary: AdversaryKind,
    placement: ByzPlacement,
    seed: u64,
) -> ScenarioSpec {
    let graph = cache.get(n, seed);
    let spec = starting_config(algo, &graph)
        .with_byzantine(f, adversary)
        .with_placement(placement)
        .with_seed(seed);
    let k = spec.num_robots;
    let spec = if f > algo.row().tolerance(n, k) {
        spec.overloaded()
    } else {
        spec
    };
    planner.add(&graph, spec.clone());
    spec
}

/// Fold one run result into a [`Cell`]. Graph-shape errors (symmetric
/// instance drawn) are skipped by resampling upstream; anything else is a
/// harness bug, so failures panic with the cell coordinates.
fn cell_of(
    spec: &ScenarioSpec,
    n: usize,
    result: Result<bd_dispersion::Outcome, bd_dispersion::DispersionError>,
) -> Cell {
    match result {
        Ok(out) => Cell {
            algo: format!("{:?}", spec.algo),
            n,
            k: spec.num_robots,
            f: spec.num_byzantine,
            adversary: format!("{:?}", spec.adversary),
            seed: spec.seed,
            rounds: out.rounds,
            rounds_skipped: out.metrics.rounds_skipped,
            total_moves: out.metrics.total_moves,
            elapsed_micros: out.metrics.elapsed_micros,
            dispersed: out.dispersed,
            rounds_by_phase: out.metrics.rounds_by_phase,
        },
        Err(e) => panic!(
            "cell ({:?}, n={n}, k={}, f={}, seed={}) failed: {e}",
            spec.algo, spec.num_robots, spec.num_byzantine, spec.seed
        ),
    }
}

/// Run one prepared spec in `session` and record it as a [`Cell`].
pub fn run_spec_cell(session: &Session, spec: &ScenarioSpec) -> Cell {
    cell_of(spec, session.graph().n(), session.run(spec))
}

/// Sweep `n` values with `reps` seeds each through the [`CachedPlanner`]:
/// every cell's graph is a shared handle, and the pool executes cells
/// largest-first (biggest `n` never straggles at the tail of the sweep).
///
/// With a [`ResultStore`], stored cells replay without simulating and
/// fresh cells write back; the second element is then the batch's
/// [`CacheStats`]. Without one it is `None`. Store I/O failures panic: a
/// half-written benchmark cache is a harness failure, not a measurement.
pub fn sweep_n(
    algo: Algorithm,
    ns: &[usize],
    f_of_n: impl Fn(usize) -> usize + Sync,
    adversary: AdversaryKind,
    reps: u64,
    store: Option<&ResultStore>,
) -> (Vec<Cell>, Option<CacheStats>) {
    let mut planner = CachedPlanner::new(store);
    let mut cache = GraphCache::new();
    let mut meta: Vec<(ScenarioSpec, usize)> = Vec::new();
    for &n in ns {
        for rep in 0..reps {
            let spec = queue_cell(
                &mut planner,
                &mut cache,
                algo,
                n,
                f_of_n(n),
                adversary,
                ByzPlacement::Random,
                1000 + rep,
            );
            meta.push((spec, n));
        }
    }
    let (results, stats) = planner.run().expect("result store I/O");
    let cells = results
        .into_iter()
        .zip(meta)
        .map(|(result, (spec, n))| cell_of(&spec, n, result))
        .collect();
    (cells, store.map(|_| stats))
}

/// The whole Table 1 sweep as **one** multi-graph batch: all rows' cells
/// queued on a single [`CachedPlanner`] (graphs of every size side by side)
/// and executed largest-cost-first. Returns per-sweep cell vectors in
/// [`table1_sweeps`] order.
///
/// The optional [`ResultStore`] is the opt-in `table1 --store DIR` path.
/// On a warm store the whole table replays with **zero rounds simulated**
/// (the stats say so); outcomes are the exact stored `Outcome`s, so
/// full-mode BASELINES stay byte-identical.
pub fn table1_batch(
    quick: bool,
    reps: u64,
    store: Option<&ResultStore>,
) -> (Vec<Vec<Cell>>, Option<CacheStats>) {
    let sweeps = table1_sweeps();
    let mut planner = CachedPlanner::new(store);
    let mut cache = GraphCache::new();
    let mut meta: Vec<(usize, ScenarioSpec, usize)> = Vec::new();
    for (serial, sweep) in sweeps.iter().enumerate() {
        let ns = if quick { sweep.quick_ns } else { sweep.ns };
        for &n in ns {
            for rep in 0..reps {
                let spec = queue_cell(
                    &mut planner,
                    &mut cache,
                    sweep.algo,
                    n,
                    sweep.algo.tolerance(n),
                    sweep.adversary,
                    ByzPlacement::Random,
                    1000 + rep,
                );
                meta.push((serial, spec, n));
            }
        }
    }
    let mut rows: Vec<Vec<Cell>> = sweeps.iter().map(|_| Vec::new()).collect();
    let (results, stats) = planner.run().expect("result store I/O");
    for (result, (serial, spec, n)) in results.into_iter().zip(meta) {
        rows[serial].push(cell_of(&spec, n, result));
    }
    (rows, store.map(|_| stats))
}

/// One sweep coordinate for [`run_series_cells`], as data, so
/// heterogeneous series can batch through one planner.
#[derive(Debug, Clone, Copy)]
pub struct SeriesCoord {
    /// The Table 1 row.
    pub algo: Algorithm,
    /// Graph size.
    pub n: usize,
    /// Byzantine contingent.
    pub f: usize,
    /// Adversary strategy.
    pub adversary: AdversaryKind,
    /// Byzantine ID placement.
    pub placement: ByzPlacement,
    /// Cell seed (also the graph seed).
    pub seed: u64,
}

/// Run an arbitrary list of sweep coordinates as one [`CachedPlanner`]
/// batch: graphs are shared per `(n, seed)` coordinate, cells execute
/// largest-cost-first, and results come back in `coords` order. The
/// optional [`ResultStore`] works as in [`sweep_n`].
pub fn run_series_cells(
    coords: &[SeriesCoord],
    store: Option<&ResultStore>,
) -> (Vec<Cell>, Option<CacheStats>) {
    let mut planner = CachedPlanner::new(store);
    let mut cache = GraphCache::new();
    let mut meta: Vec<(ScenarioSpec, usize)> = Vec::new();
    for c in coords {
        let spec = queue_cell(
            &mut planner,
            &mut cache,
            c.algo,
            c.n,
            c.f,
            c.adversary,
            c.placement,
            c.seed,
        );
        meta.push((spec, c.n));
    }
    let (results, stats) = planner.run().expect("result store I/O");
    let cells = results
        .into_iter()
        .zip(meta)
        .map(|(result, (spec, n))| cell_of(&spec, n, result))
        .collect();
    (cells, store.map(|_| stats))
}

/// Sweep robot-count bins on one shared graph: for each `k` in `ks`,
/// `reps` seeded cells of `algo` at the row's `(n, k)` tolerance, all
/// batched through one planner on one `Arc<PortGraph>`. The §5 capacity
/// regime (`k ≠ n`) made measurable. The optional [`ResultStore`] works
/// as in [`sweep_n`].
pub fn sweep_k(
    algo: Algorithm,
    n: usize,
    ks: &[usize],
    adversary: AdversaryKind,
    reps: u64,
    store: Option<&ResultStore>,
) -> (Vec<Cell>, Option<CacheStats>) {
    let graph = Arc::new(bench_graph(n, 1000));
    let mut planner = CachedPlanner::new(store);
    let specs: Vec<ScenarioSpec> = ks
        .iter()
        .flat_map(|&k| {
            let graph = &graph;
            (0..reps).map(move |rep| {
                let f = algo.row().tolerance(n, k);
                starting_config(algo, graph)
                    .with_robots(k)
                    .with_byzantine(f, adversary)
                    .with_seed(4000 + rep)
            })
        })
        .collect();
    for spec in &specs {
        planner.add(&graph, spec.clone());
    }
    let (results, stats) = planner.run().expect("result store I/O");
    let cells = results
        .into_iter()
        .zip(&specs)
        .map(|(res, spec)| cell_of(spec, n, res))
        .collect();
    (cells, store.map(|_| stats))
}

/// Mean of an arbitrary cell quantity grouped by an arbitrary cell key.
fn mean_by(
    cells: &[Cell],
    key: impl Fn(&Cell) -> usize,
    value: impl Fn(&Cell) -> f64,
) -> Vec<(usize, f64)> {
    let mut groups: std::collections::BTreeMap<usize, (f64, usize)> = Default::default();
    for c in cells {
        let e = groups.entry(key(c)).or_insert((0.0, 0));
        e.0 += value(c);
        e.1 += 1;
    }
    groups
        .into_iter()
        .map(|(g, (sum, count))| (g, sum / count as f64))
        .collect()
}

/// Mean rounds grouped by an arbitrary cell key.
pub fn mean_rounds_by(cells: &[Cell], key: impl Fn(&Cell) -> usize) -> Vec<(usize, f64)> {
    mean_by(cells, key, |c| c.rounds as f64)
}

/// Mean fast-forwarded rounds per `n` — the observable that adversarial
/// sweeps exercise the skip path (must be > 0 on every row with idle
/// phases, while `mean_rounds` stays pinned to the timelines).
pub fn mean_skipped_rounds(cells: &[Cell]) -> Vec<(usize, f64)> {
    mean_by(cells, |c| c.n, |c| c.rounds_skipped as f64)
}

/// Mean rounds per `n` from a sweep.
pub fn mean_rounds(cells: &[Cell]) -> Vec<(usize, f64)> {
    mean_rounds_by(cells, |c| c.n)
}

/// Mean measured wall-clock per cell, microseconds — the real per-cell
/// cost the satellite metrics report next to the planner's estimate.
pub fn mean_elapsed_micros(cells: &[Cell]) -> f64 {
    if cells.is_empty() {
        return 0.0;
    }
    cells.iter().map(|c| c.elapsed_micros as f64).sum::<f64>() / cells.len() as f64
}

/// Mean of the planner's per-cell cost estimate (`rounds × k` robot-steps;
/// the registry budget is exact, so measured rounds equal it on successful
/// cells). The table1 bin prints this next to the measured microseconds so
/// the cost model can be eyeballed against reality.
pub fn mean_cost_estimate(cells: &[Cell]) -> f64 {
    if cells.is_empty() {
        return 0.0;
    }
    cells
        .iter()
        .map(|c| (c.rounds * c.k as u64) as f64)
        .sum::<f64>()
        / cells.len() as f64
}

/// Mean rounds per `k` from a k-bin sweep.
pub fn mean_rounds_by_k(cells: &[Cell]) -> Vec<(usize, f64)> {
    mean_rounds_by(cells, |c| c.k)
}

/// Fraction of dispersed cells.
pub fn success_rate(cells: &[Cell]) -> f64 {
    if cells.is_empty() {
        return 0.0;
    }
    cells.iter().filter(|c| c.dispersed).count() as f64 / cells.len() as f64
}

/// Interleaved A/B overhead check shared by `profile --overhead-check` and
/// `chaos --overhead-check`: "an instrumentation point costs nothing when
/// it is off".
///
/// `run(on, iter)` times one pass in microseconds with the instrumentation
/// on or off. It is called once untimed as a warm-up (`iter == 0`; the
/// first pass of a process pays page faults and allocator warm-up that
/// would skew whichever side ran first), then 3 times per side,
/// alternating off/on, with `iter` counting 1 to 6 — the closure prints
/// its own per-iteration line. The best time per side is kept, and the
/// check passes when the best `on` time is within 5% of the best `off`
/// time plus `floor_micros`, a jitter floor so timer noise cannot fail
/// the check on fast machines. Prints the summary and the verdict
/// (`label` prefixes the failure message) and returns whether it passed.
pub fn overhead_check(
    label: &str,
    floor_micros: u64,
    mut run: impl FnMut(bool, usize) -> u64,
) -> bool {
    const ITERS: usize = 3;
    let _ = run(false, 0);
    let mut best = [u64::MAX; 2];
    for i in 1..=2 * ITERS {
        let on = i % 2 == 0;
        let micros = run(on, i);
        best[usize::from(on)] = best[usize::from(on)].min(micros);
    }
    let [off, on] = best;
    let budget = off + off / 20 + floor_micros;
    println!(
        "best off {off} us, best on {on} us, budget {budget} us (overhead {:+.2}%)",
        100.0 * (on as f64 - off as f64) / off.max(1) as f64
    );
    if on > budget {
        eprintln!("{label} overhead exceeds the 5% budget");
        return false;
    }
    println!("overhead within budget");
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_graph_is_connected_and_seeded() {
        let a = bench_graph(12, 3);
        let b = bench_graph(12, 3);
        assert_eq!(a, b);
        assert!(a.is_connected());
    }

    /// One coordinate as a one-cell batch.
    fn one_cell(
        algo: Algorithm,
        n: usize,
        f: usize,
        adversary: AdversaryKind,
        placement: ByzPlacement,
        seed: u64,
    ) -> Cell {
        let coord = SeriesCoord {
            algo,
            n,
            f,
            adversary,
            placement,
            seed,
        };
        let (mut cells, stats) = run_series_cells(&[coord], None);
        assert!(stats.is_none(), "no store, no cache stats");
        cells.remove(0)
    }

    #[test]
    fn run_cell_smoke() {
        let c = one_cell(
            Algorithm::Baseline,
            8,
            0,
            AdversaryKind::Squatter,
            ByzPlacement::Random,
            5,
        );
        assert!(c.dispersed);
        assert!(c.rounds > 0);
    }

    #[test]
    #[should_panic(expected = "exceeds the algorithm's tolerance")]
    fn in_budget_sweeps_keep_the_tolerance_guardrail() {
        // f beyond what k robots can possibly contain is a harness bug,
        // not a probe: the cell must panic through the session's typed
        // error rather than run it silently overloaded. (Beyond-tolerance
        // probes where f < k still run, now explicitly overloaded.)
        let n = 9;
        let session = Session::new(bench_graph(n, 7));
        let spec = starting_config(Algorithm::GatheredThirdTh4, session.graph()).with_byzantine(
            Algorithm::GatheredThirdTh4.tolerance(n) + 1,
            AdversaryKind::Wanderer,
        );
        // Strip the overload flag a sweep would have added.
        assert!(!spec.allow_overload);
        run_spec_cell(&session, &spec);
    }

    #[test]
    fn beyond_tolerance_probe_is_overloaded_and_runs() {
        let n = 9;
        let f = Algorithm::GatheredThirdTh4.tolerance(n) + 1;
        let c = one_cell(
            Algorithm::GatheredThirdTh4,
            n,
            f,
            AdversaryKind::Wanderer,
            ByzPlacement::LowIds,
            3,
        );
        assert_eq!(c.f, f, "probe cell records the overloaded f");
    }

    #[test]
    fn sweep_k_covers_all_bins_on_one_graph() {
        let (cells, stats) = sweep_k(
            Algorithm::Baseline,
            8,
            &[4, 8, 16],
            AdversaryKind::Squatter,
            2,
            None,
        );
        assert!(stats.is_none());
        assert_eq!(cells.len(), 6);
        for k in [4usize, 8, 16] {
            let bin: Vec<_> = cells.iter().filter(|c| c.k == k).collect();
            assert_eq!(bin.len(), 2, "k = {k}");
            assert!(bin.iter().all(|c| c.dispersed), "k = {k}");
        }
    }

    /// Runs [`overhead_check`] on fixed timings: `off` for every off pass,
    /// `on` for every on pass.
    fn fixed_overhead(off: u64, on: u64, floor: u64) -> bool {
        overhead_check("test", floor, |is_on, _| if is_on { on } else { off })
    }

    #[test]
    fn overhead_budget_is_five_percent_plus_floor() {
        let base = 10_000;
        for floor in [500, 2_000] {
            let edge = base + base / 20 + floor;
            assert!(fixed_overhead(base, edge, floor), "exactly at budget");
            assert!(!fixed_overhead(base, edge + 1, floor), "1 us over");
        }
    }

    #[test]
    fn overhead_check_warms_up_then_alternates_keeping_the_best() {
        let mut calls = Vec::new();
        // The warm-up is far over budget and the worst timed pass per side
        // too: only the best of the three timed passes per side counts.
        let passed = overhead_check("test", 0, |on, iter| {
            calls.push((on, iter));
            match (on, iter) {
                (_, 0) => 1_000_000,
                (false, _) => 1_000 + iter as u64,
                (true, 6) => 1_000_000,
                (true, _) => 1_050,
            }
        });
        assert!(passed);
        assert_eq!(
            calls,
            [
                (false, 0),
                (false, 1),
                (true, 2),
                (false, 3),
                (true, 4),
                (false, 5),
                (true, 6)
            ]
        );
    }

    #[test]
    fn aggregations() {
        let mk = |k: usize, rounds: u64, dispersed: bool, seed: u64| Cell {
            algo: "x".into(),
            n: 8,
            k,
            f: 0,
            adversary: "a".into(),
            seed,
            rounds,
            rounds_skipped: 0,
            total_moves: 5,
            elapsed_micros: 7,
            dispersed,
            rounds_by_phase: vec![("run".into(), rounds)],
        };
        let cells = vec![mk(8, 10, true, 0), mk(8, 20, false, 1)];
        assert_eq!(mean_rounds(&cells), vec![(8, 15.0)]);
        assert!((success_rate(&cells) - 0.5).abs() < 1e-9);
        let kcells = vec![mk(4, 10, true, 0), mk(16, 30, true, 1)];
        assert_eq!(mean_rounds_by_k(&kcells), vec![(4, 10.0), (16, 30.0)]);
    }
}
