//! The differential fuzz harness: random scenario cells across
//! {algorithm × adversary × graph family × n × k × f × seed}, each one
//! checked for full-trajectory agreement between the fast engine and the
//! oracle, with greedy minimization of the first divergence found.
//!
//! One loop and one minimizer serve both case kinds: a [`Sketch`] says
//! how a case is checked and shrunk, [`run_fuzz`] draws static
//! [`CaseSketch`]es, and [`crate::dynamic::run_dynamic_fuzz`] draws
//! event-scheduled ones.

use crate::diff::{check_cell, CellVerdict, Divergence};
use bd_dispersion::adversaries::AdversaryKind;
use bd_dispersion::registry::StartRequirement;
use bd_dispersion::runner::{Algorithm, ByzPlacement, ScenarioSpec, StartConfig};
use bd_dispersion::Session;
use bd_graphs::generators::{erdos_renyi_connected, lollipop, random_tree, ring};
use bd_graphs::PortGraph;
use bd_runtime::EngineConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::time::{Duration, Instant};

/// Graph families the harness samples from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphFamily {
    /// Connected Erdős–Rényi, p = 0.4.
    Gnp,
    /// Uniform random tree.
    Tree,
    /// Clique with a path tail (worst-case-ish diameter/degree mix).
    Lollipop,
    /// Cycle — the only family the ring-specialized rows accept.
    Ring,
}

impl GraphFamily {
    fn build(self, n: usize, seed: u64) -> PortGraph {
        match self {
            GraphFamily::Gnp => erdos_renyi_connected(n, 0.4, seed).expect("n >= 2"),
            GraphFamily::Tree => random_tree(n, seed).expect("n >= 1"),
            GraphFamily::Lollipop => {
                let clique = (n / 2).max(3);
                let tail = n.saturating_sub(clique).max(1);
                lollipop(clique, tail).expect("clique >= 3")
            }
            GraphFamily::Ring => ring(n).expect("n >= 3"),
        }
    }
}

/// Everything needed to regenerate one fuzz case deterministically. The
/// graph is rebuilt from `(family, n, graph_seed)`, the spec from the
/// rest — which is what lets minimization shrink `n` and re-run.
#[derive(Debug, Clone)]
pub struct CaseSketch {
    /// Graph family.
    pub family: GraphFamily,
    /// Graph size.
    pub n: usize,
    /// Table 1 row under test.
    pub algo: Algorithm,
    /// Adversary strategy.
    pub adversary: AdversaryKind,
    /// Robot count.
    pub k: usize,
    /// Byzantine count.
    pub f: usize,
    /// Where the Byzantine IDs sit.
    pub placement: ByzPlacement,
    /// Whether `f` may exceed the row's tolerance.
    pub overloaded: bool,
    /// Replace the row's evaluation start with an **explicit** per-robot
    /// start configuration derived from `spec_seed` (rows whose
    /// requirement is not `Gathered` only) — widens the sampled space
    /// past the two canned `StartConfig`s.
    pub explicit_starts: bool,
    /// Seed for the graph generator.
    pub graph_seed: u64,
    /// Seed for IDs, starts, and adversary randomness.
    pub spec_seed: u64,
}

impl fmt::Display for CaseSketch {
    fn fmt(&self, fm: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            fm,
            "{:?} on {:?}(n={}, seed={}) k={} f={}{}{} adversary={:?} placement={:?} seed={}",
            self.algo,
            self.family,
            self.n,
            self.graph_seed,
            self.k,
            self.f,
            if self.overloaded { " (overloaded)" } else { "" },
            if self.explicit_starts {
                " (explicit starts)"
            } else {
                ""
            },
            self.adversary,
            self.placement,
            self.spec_seed,
        )
    }
}

impl CaseSketch {
    /// Build the graph this sketch describes.
    pub fn graph(&self) -> PortGraph {
        self.family.build(self.n, self.graph_seed)
    }

    /// Build the spec this sketch describes (against `graph`).
    pub fn spec(&self, graph: &PortGraph) -> ScenarioSpec {
        let mut spec = ScenarioSpec::evaluation(self.algo, graph)
            .with_robots(self.k)
            .with_byzantine(self.f, self.adversary)
            .with_placement(self.placement)
            .with_seed(self.spec_seed);
        if self.overloaded {
            spec = spec.overloaded();
        }
        if self.explicit_starts {
            // Deterministic scatter from the spec seed: robot i starts at
            // a pseudo-random node. Independent of the engine's own
            // seeded placement paths, so it genuinely widens coverage.
            let mut srng = StdRng::seed_from_u64(self.spec_seed ^ 0x0057_A275);
            spec.starts =
                StartConfig::Explicit((0..self.k).map(|_| srng.gen_range(0..graph.n())).collect());
        }
        spec
    }
}

/// A fuzz case that regenerates deterministically from its fields: what
/// the shared loop and minimizer need to check and shrink it.
pub trait Sketch: Clone + fmt::Display {
    /// Prefix of a failure's `DIVERGENCE:` line, naming the case kind.
    const LABEL: &'static str;
    /// Differentially check this case under `tune` (fast side only).
    fn check(&self, tune: impl Fn(EngineConfig) -> EngineConfig) -> CellVerdict;
    /// Smaller candidate cases, in the order the minimizer tries them.
    fn shrink(&self) -> Vec<Self>;
}

impl Sketch for CaseSketch {
    const LABEL: &'static str = "";

    fn check(&self, tune: impl Fn(EngineConfig) -> EngineConfig) -> CellVerdict {
        let graph = self.graph();
        let spec = self.spec(&graph);
        check_cell(&Session::new(graph), &spec, tune)
    }

    /// Shrink `n` (keeping `k`/`f` feasible), then `f`, then `k` down
    /// toward `n`.
    fn shrink(&self) -> Vec<Self> {
        let mut candidates = Vec::new();
        if self.n > 5 {
            let mut c = self.clone();
            c.n -= 1;
            c.k = c.k.min(c.n + 3).max(2);
            c.f = c.f.min(c.k - 1);
            candidates.push(c);
        }
        if self.f > 0 {
            let mut c = self.clone();
            c.f -= 1;
            candidates.push(c);
        }
        if self.k > self.n && self.k > 2 {
            let mut c = self.clone();
            c.k -= 1;
            c.f = c.f.min(c.k - 1);
            candidates.push(c);
        }
        candidates
    }
}

/// Harness knobs.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Random cells to generate (the harness stops early on the first
    /// divergence, after minimizing it).
    pub cases: usize,
    /// Master seed; every case derives deterministically from it.
    pub seed: u64,
    /// Largest graph sampled. Round budgets are polynomial in `n` and the
    /// oracle steps every round, so this is the main cost dial.
    pub max_n: usize,
    /// Optional wall-clock budget: generation stops (cleanly, counted in
    /// the report) once exceeded.
    pub time_budget: Option<Duration>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            cases: 500,
            seed: 0xB12A,
            max_n: 12,
            time_budget: None,
        }
    }
}

/// One confirmed, minimized disagreement.
#[derive(Debug, Clone)]
pub struct FuzzFailure<S> {
    /// The case as originally drawn.
    pub original: S,
    /// The greedily minimized case: where repeated [`Sketch::shrink`]
    /// steps that kept the divergence ended.
    pub minimized: S,
    /// The divergence observed on the minimized case.
    pub divergence: Divergence,
}

impl<S: Sketch> fmt::Display for FuzzFailure<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}DIVERGENCE: {}", S::LABEL, self.divergence)?;
        if let Some(round) = self.divergence.round() {
            writeln!(f, "  first mismatch at round {round}")?;
        }
        writeln!(f, "  minimized case: {}", self.minimized)?;
        write!(f, "  original case:  {}", self.original)
    }
}

/// What a fuzz run did.
#[derive(Debug, Clone)]
pub struct FuzzReport<S> {
    /// Cells actually checked (≤ `cases` under a time budget or an early
    /// divergence stop).
    pub cases_run: usize,
    /// Cells where both engines completed with identical trajectories.
    pub matched: usize,
    /// Cells where both engines failed identically (plan rejection, round
    /// limit) — agreement, counted separately for visibility.
    pub match_err: usize,
    /// Draws discarded because no valid case came of them (counted for
    /// visibility — discards are not silent coverage loss; static draws
    /// never discard).
    pub discarded: usize,
    /// The first divergence found, minimized; `None` on a clean run.
    pub failure: Option<FuzzFailure<S>>,
}

impl<S> FuzzReport<S> {
    /// Whether every checked cell agreed.
    pub fn clean(&self) -> bool {
        self.failure.is_none()
    }
}

/// Draw one random case. Algorithm first, then a compatible graph family:
/// the ring-only rows (`RingOptimal`; `QuotientTh1` needs a
/// quotient-isomorphic graph and the cycle is the canonical one) always
/// get rings, everything else samples all four families.
pub(crate) fn draw_case(rng: &mut StdRng, max_n: usize) -> CaseSketch {
    const ALGOS: [Algorithm; 9] = [
        Algorithm::QuotientTh1,
        Algorithm::ArbitraryHalfTh2,
        Algorithm::GatheredHalfTh3,
        Algorithm::GatheredThirdTh4,
        Algorithm::ArbitrarySqrtTh5,
        Algorithm::StrongGatheredTh6,
        Algorithm::StrongArbitraryTh7,
        Algorithm::Baseline,
        Algorithm::RingOptimal,
    ];
    let algo = ALGOS[rng.gen_range(0..ALGOS.len())];
    let family = match algo {
        Algorithm::RingOptimal | Algorithm::QuotientTh1 => GraphFamily::Ring,
        _ => [
            GraphFamily::Gnp,
            GraphFamily::Tree,
            GraphFamily::Lollipop,
            GraphFamily::Ring,
        ][rng.gen_range(0..4usize)],
    };
    let n = rng.gen_range(5..=max_n.max(5));
    // k around n: below it, at it, and into §5's capacity-⌈k/n⌉ regime.
    let k = rng.gen_range(n.saturating_sub(2).max(2)..=n + 3);
    let tolerance = algo.row().tolerance(n, k).min(k.saturating_sub(1));
    // Mostly in-tolerance; ~1 in 10 cases probe past it (both engines must
    // still agree on the failed dispersion they produce).
    let overloaded = rng.gen_range(0..10) == 0;
    let f = if overloaded {
        (tolerance + 2).min(k - 1)
    } else {
        rng.gen_range(0..=tolerance)
    };
    let adversary = {
        let pool: Vec<AdversaryKind> = AdversaryKind::all()
            .into_iter()
            .filter(|a| !a.needs_strong() || algo.strong())
            .collect();
        pool[rng.gen_range(0..pool.len())]
    };
    let placement = [
        ByzPlacement::Random,
        ByzPlacement::LowIds,
        ByzPlacement::HighIds,
    ][rng.gen_range(0..3usize)];
    // Rows that do not demand a gathered start occasionally get an
    // explicit scattered start instead of the canned evaluation one.
    let explicit_starts =
        algo.row().start_requirement() != StartRequirement::Gathered && rng.gen_range(0..4) == 0;
    CaseSketch {
        family,
        n,
        algo,
        adversary,
        k,
        f,
        placement,
        overloaded,
        explicit_starts,
        graph_seed: rng.gen(),
        spec_seed: rng.gen(),
    }
}

/// Greedy minimization: try the current case's [`Sketch::shrink`]
/// candidates in order, keep the first that still diverges, and repeat
/// until none does.
fn minimize<S: Sketch>(start: &S, tune: &impl Fn(EngineConfig) -> EngineConfig) -> (S, Divergence) {
    let diverges = |s: &S| match s.check(tune) {
        CellVerdict::Diverged(d) => Some(*d),
        _ => None,
    };
    let mut best = start.clone();
    let mut best_div = diverges(&best).expect("minimize() called on a diverging case");
    'shrink: loop {
        for candidate in best.shrink() {
            if let Some(d) = diverges(&candidate) {
                best = candidate;
                best_div = d;
                continue 'shrink;
            }
        }
        return (best, best_div);
    }
}

/// The fuzz loop: `config.cases` draws from an RNG seeded with `seed`,
/// each checked under `tune` (fast side only); a discarded draw (`None`)
/// still counts toward `cases`. Stops at the first divergence, minimized.
pub(crate) fn fuzz<S: Sketch>(
    config: &FuzzConfig,
    seed: u64,
    mut draw: impl FnMut(&mut StdRng) -> Option<S>,
    tune: impl Fn(EngineConfig) -> EngineConfig,
) -> FuzzReport<S> {
    let started = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut report = FuzzReport {
        cases_run: 0,
        matched: 0,
        match_err: 0,
        discarded: 0,
        failure: None,
    };
    for _ in 0..config.cases {
        if let Some(budget) = config.time_budget {
            if started.elapsed() >= budget {
                break;
            }
        }
        let Some(sketch) = draw(&mut rng) else {
            report.discarded += 1;
            continue;
        };
        report.cases_run += 1;
        match sketch.check(&tune) {
            CellVerdict::Match { .. } => report.matched += 1,
            CellVerdict::MatchErr(_) => report.match_err += 1,
            CellVerdict::Diverged(_) => {
                let (minimized, divergence) = minimize(&sketch, &tune);
                report.failure = Some(FuzzFailure {
                    original: sketch,
                    minimized,
                    divergence,
                });
                break;
            }
        }
    }
    report
}

/// Fuzz static cells with `tune` on the fast side: `|c| c` checks the
/// real engine (a non-clean report is an engine bug, full stop); the
/// broken-engine demonstrations pass `|c| c.with_ff_overshoot(1)` and
/// assert the report is *not* clean.
pub fn run_fuzz(
    config: &FuzzConfig,
    tune: impl Fn(EngineConfig) -> EngineConfig,
) -> FuzzReport<CaseSketch> {
    fuzz(
        config,
        config.seed,
        |rng| Some(draw_case(rng, config.max_n)),
        tune,
    )
}
