//! The cache-aware batch layer: [`CachedPlanner`] partitions a submission
//! into stored and to-run cells, executes only the misses through
//! `bd_dispersion::BatchPlanner` (cost-ordered, multi-graph), writes the
//! fresh outcomes back, and returns everything in insertion order. Without
//! a store it runs every cell, exactly like a bare `BatchPlanner`.
//!
//! Digests are computed at the **default engine configuration** — the one
//! the planner actually executes under (the session derives the per-run
//! round cap from the spec itself, so it is not identity material).

use crate::error::ServiceError;
use crate::store::ResultStore;
use bd_dispersion::canon::{scenario_digest, SpecDigest};
use bd_dispersion::runner::{Outcome, ScenarioSpec};
use bd_dispersion::{BatchPlanner, DispersionError};
use bd_graphs::PortGraph;
use bd_runtime::EngineConfig;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// What one [`CachedPlanner::run`] (or one daemon batch) did, in numbers.
/// The acceptance observable for "a repeated submission is served entirely
/// from the store" is `misses == 0 && rounds_simulated == 0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Cells answered from the store.
    pub hits: u64,
    /// Cells that had to be simulated.
    pub misses: u64,
    /// Cells that errored (bad scenarios; never stored).
    pub errors: u64,
    /// Cells that duplicated an earlier cell of the *same batch* (by
    /// digest) and were aliased to its result instead of simulating twice.
    /// `hits + misses + errors + deduped` always equals the cell count.
    pub deduped: u64,
    /// Engine-stepped rounds across the simulated cells
    /// (`rounds − rounds_skipped`, the same accounting the fast-forward
    /// metrics use). Zero when everything came from the store.
    pub rounds_simulated: u64,
    /// Measured rounds the store answered without simulating — the
    /// `rounds_skipped`-style counter of the serving layer.
    pub rounds_saved: u64,
    /// Wall-clock spent simulating, microseconds (sum of per-run
    /// `RunMetrics::elapsed_micros`).
    pub elapsed_simulated_micros: u64,
    /// Wall-clock of the whole simulate stage, microseconds: one
    /// measurement around the inner `BatchPlanner::run` fan-out (unlike
    /// [`CacheStats::elapsed_simulated_micros`], which sums per-cell and
    /// can exceed wall time under a parallel pool). Feeds the daemon's
    /// `bd_request_duration_micros{stage="simulate"}` histogram.
    pub simulate_wall_micros: u64,
    /// Wall-clock spent writing fresh outcomes back to the store,
    /// microseconds. Feeds `bd_request_duration_micros{stage="store_write"}`.
    pub store_write_micros: u64,
}

impl CacheStats {
    /// Fold another report into this one (the daemon's global `/stats`).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.errors += other.errors;
        self.deduped += other.deduped;
        self.rounds_simulated += other.rounds_simulated;
        self.rounds_saved += other.rounds_saved;
        self.elapsed_simulated_micros += other.elapsed_simulated_micros;
        self.simulate_wall_micros += other.simulate_wall_micros;
        self.store_write_micros += other.store_write_micros;
    }
}

enum Slot {
    /// Served from the store at `add` time.
    Hit(Box<Outcome>),
    /// Queued on the inner planner at this index; with a store, written
    /// back after the run under this digest.
    Queued {
        planner_idx: usize,
        write_back: Option<(SpecDigest, ScenarioSpec)>,
    },
    /// Same digest as the earlier cell at this slot index: simulating it
    /// again would produce (and pay for) the identical outcome, so the
    /// cell aliases that result instead.
    Alias(usize),
}

/// A [`BatchPlanner`] wrapper that consults a [`ResultStore`] per cell.
/// Built with `None`, it is the bare planner: no digest, no lookup, no
/// dedup and no write, so every cell simulates and `run` cannot fail.
///
/// ```no_run
/// use bd_dispersion::runner::{Algorithm, ScenarioSpec};
/// use bd_service::{CachedPlanner, ResultStore};
/// use std::sync::Arc;
///
/// let store = ResultStore::open("/tmp/bd-store").unwrap();
/// let graph = Arc::new(bd_graphs::generators::asymmetric_gnp(9, 1000).unwrap());
/// let mut planner = CachedPlanner::new(Some(&store));
/// planner.add(&graph, ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, &graph, 0));
/// let (results, stats) = planner.run().unwrap();
/// assert_eq!(results.len(), 1);
/// assert_eq!(stats.hits + stats.misses, 1);
/// ```
pub struct CachedPlanner<'s> {
    store: Option<&'s ResultStore>,
    planner: BatchPlanner,
    slots: Vec<Slot>,
    /// Digest → slot index of the first cell queued under it, for
    /// in-flight dedup of identical cells within one batch.
    queued: std::collections::HashMap<SpecDigest, usize>,
    /// The last graph's precomputed canonical bytes, keyed by `Arc`
    /// pointer: serializing the adjacency is the dominant digest cost, so
    /// consecutive cells on one graph (the normal batch shape) pay it
    /// once. A different `Arc` to equal content just recomputes.
    graph_canon: Option<(usize, bd_dispersion::canon::GraphCanon)>,
}

/// Where one queued cell's result comes from (see
/// [`CachedPlanner::source`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellSource {
    /// Answered from the store at `add` time.
    Store,
    /// Will be simulated by [`CachedPlanner::run`].
    Simulation,
    /// Duplicates an earlier cell of this batch and aliases its result.
    Dedup,
}

impl std::fmt::Debug for CachedPlanner<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedPlanner")
            .field("cells", &self.slots.len())
            .field("queued", &self.planner.len())
            .finish()
    }
}

impl<'s> CachedPlanner<'s> {
    /// A planner writing through `store`, or a store-less one.
    pub fn new(store: Option<&'s ResultStore>) -> Self {
        CachedPlanner {
            store,
            planner: BatchPlanner::new(),
            slots: Vec::new(),
            queued: std::collections::HashMap::new(),
            graph_canon: None,
        }
    }

    /// The digest a cell is keyed under (graph + spec + the default engine
    /// knobs the planner executes with).
    pub fn digest(graph: &PortGraph, spec: &ScenarioSpec) -> SpecDigest {
        scenario_digest(graph, spec, &EngineConfig::default())
    }

    /// [`Self::digest`] through the memoized per-graph canonical bytes.
    fn digest_memoized(&mut self, graph: &Arc<PortGraph>, spec: &ScenarioSpec) -> SpecDigest {
        let key = Arc::as_ptr(graph) as usize;
        if self.graph_canon.as_ref().map(|(k, _)| *k) != Some(key) {
            self.graph_canon = Some((key, bd_dispersion::canon::GraphCanon::new(graph)));
        }
        let (_, canon) = self.graph_canon.as_ref().expect("memoized above");
        bd_dispersion::canon::scenario_digest_with(canon, spec, &EngineConfig::default())
    }

    /// Queue `spec` against `graph`; a stored outcome is claimed
    /// immediately, a digest already queued *in this batch* aliases that
    /// cell (in-flight dedup — identical retries cost one simulation, not
    /// two), and anything else goes to the inner [`BatchPlanner`]. Without
    /// a store every cell goes to the inner planner.
    /// Returns the cell's index in [`CachedPlanner::run`]'s result order.
    pub fn add(&mut self, graph: &Arc<PortGraph>, spec: ScenarioSpec) -> usize {
        let slot = match self.store {
            None => Slot::Queued {
                planner_idx: self.planner.add(graph, spec),
                write_back: None,
            },
            Some(store) => {
                let digest = self.digest_memoized(graph, &spec);
                if let Some(&first) = self.queued.get(&digest) {
                    Slot::Alias(first)
                } else if let Some(outcome) = store.get(&digest) {
                    Slot::Hit(Box::new(outcome))
                } else {
                    self.queued.insert(digest, self.slots.len());
                    Slot::Queued {
                        planner_idx: self.planner.add(graph, spec.clone()),
                        write_back: Some((digest, spec)),
                    }
                }
            }
        };
        self.slots.push(slot);
        self.slots.len() - 1
    }

    /// Queued cell count (hits + misses so far).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Cells that will actually simulate when [`CachedPlanner::run`] is
    /// called.
    pub fn pending_misses(&self) -> usize {
        self.planner.len()
    }

    /// Attach an extra argument to the inner planner's batch span — the
    /// daemon tags each run with the request id so span exports show
    /// per-request lifelines. See [`BatchPlanner::tag`].
    pub fn tag(&mut self, key: &'static str, value: String) {
        self.planner.tag(key, value);
    }

    /// Where cell `idx` (an index returned by [`CachedPlanner::add`]) gets
    /// its result from. The daemon reports this per cell.
    pub fn source(&self, idx: usize) -> CellSource {
        match self.slots[idx] {
            Slot::Hit(_) => CellSource::Store,
            Slot::Queued { .. } => CellSource::Simulation,
            Slot::Alias(_) => CellSource::Dedup,
        }
    }

    /// Execute the misses (cost-ordered over the pool, exactly like a bare
    /// [`BatchPlanner`]), persist their outcomes, and return every cell in
    /// insertion order together with the batch's [`CacheStats`].
    ///
    /// The only error surfaced at this level is a store-write failure, so
    /// a store-less planner always returns `Ok`; per-cell scenario errors
    /// stay inside the result vector, matching `BatchPlanner::run`.
    pub fn run(self) -> Result<(Vec<Result<Outcome, DispersionError>>, CacheStats), ServiceError> {
        let simulate_started = std::time::Instant::now();
        let mut executed: Vec<Option<Result<Outcome, DispersionError>>> =
            self.planner.run().into_iter().map(Some).collect();
        let mut stats = CacheStats {
            simulate_wall_micros: simulate_started.elapsed().as_micros() as u64,
            ..CacheStats::default()
        };
        // Aliases resolve after their targets, so fill slots in two passes.
        let mut results: Vec<Option<Result<Outcome, DispersionError>>> =
            (0..self.slots.len()).map(|_| None).collect();
        let mut aliases: Vec<(usize, usize)> = Vec::new();
        for (idx, slot) in self.slots.into_iter().enumerate() {
            match slot {
                Slot::Hit(outcome) => {
                    stats.hits += 1;
                    stats.rounds_saved += outcome.rounds;
                    results[idx] = Some(Ok(*outcome));
                }
                Slot::Queued {
                    planner_idx,
                    write_back,
                } => {
                    let result = executed[planner_idx]
                        .take()
                        .expect("one slot per planner cell");
                    match &result {
                        Ok(outcome) => {
                            stats.misses += 1;
                            stats.rounds_simulated +=
                                outcome.metrics.rounds - outcome.metrics.rounds_skipped;
                            stats.elapsed_simulated_micros += outcome.metrics.elapsed_micros;
                            if let (Some(store), Some((digest, spec))) = (self.store, write_back) {
                                let write_started = std::time::Instant::now();
                                store.put(digest, &spec, outcome)?;
                                stats.store_write_micros +=
                                    write_started.elapsed().as_micros() as u64;
                            }
                        }
                        Err(_) => stats.errors += 1,
                    }
                    results[idx] = Some(result);
                }
                Slot::Alias(first) => aliases.push((idx, first)),
            }
        }
        for (idx, first) in aliases {
            stats.deduped += 1;
            results[idx] = Some(
                results[first]
                    .as_ref()
                    .expect("alias target precedes alias")
                    .clone(),
            );
        }
        let results = results
            .into_iter()
            .map(|r| r.expect("every slot resolved"))
            .collect();
        Ok((results, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_dispersion::adversaries::AdversaryKind;
    use bd_dispersion::runner::Algorithm;
    use bd_graphs::generators::asymmetric_gnp;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bd-service-cached-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn second_batch_is_served_entirely_from_the_store() {
        let dir = tmpdir("roundtrip");
        let store = ResultStore::open(&dir).unwrap();
        let graph = Arc::new(asymmetric_gnp(9, 1000).unwrap());
        let specs: Vec<ScenarioSpec> = (0..3)
            .map(|seed| {
                ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, &graph, 0)
                    .with_byzantine(1, AdversaryKind::Squatter)
                    .with_seed(seed)
            })
            .collect();

        let mut cold = CachedPlanner::new(Some(&store));
        for spec in &specs {
            cold.add(&graph, spec.clone());
        }
        assert_eq!(cold.pending_misses(), 3);
        let (first, s1) = cold.run().unwrap();
        assert_eq!((s1.hits, s1.misses), (0, 3));
        assert!(s1.rounds_simulated > 0);

        let mut warm = CachedPlanner::new(Some(&store));
        for spec in &specs {
            warm.add(&graph, spec.clone());
        }
        assert_eq!(warm.pending_misses(), 0, "everything already stored");
        let (second, s2) = warm.run().unwrap();
        assert_eq!((s2.hits, s2.misses), (3, 0));
        assert_eq!(s2.rounds_simulated, 0, "zero rounds simulated on replay");
        assert!(s2.rounds_saved > 0);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap(), "exact replay");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn identical_cells_in_one_batch_simulate_once() {
        let dir = tmpdir("dedup");
        let store = ResultStore::open(&dir).unwrap();
        let graph = Arc::new(asymmetric_gnp(9, 1000).unwrap());
        let spec = ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, &graph, 0)
            .with_byzantine(1, AdversaryKind::Squatter)
            .with_seed(3);
        let mut planner = CachedPlanner::new(Some(&store));
        planner.add(&graph, spec.clone());
        planner.add(&graph, spec.clone());
        planner.add(&graph, spec.clone().with_seed(4)); // distinct cell
        planner.add(&graph, spec.clone());
        assert_eq!(
            planner.pending_misses(),
            2,
            "duplicates alias the first cell instead of queueing"
        );
        let (results, stats) = planner.run().unwrap();
        assert_eq!((stats.misses, stats.deduped), (2, 2));
        assert_eq!(stats.hits + stats.misses + stats.errors + stats.deduped, 4);
        assert_eq!(
            results[0].as_ref().unwrap(),
            results[1].as_ref().unwrap(),
            "aliased cell returns the identical outcome"
        );
        assert_eq!(results[0].as_ref().unwrap(), results[3].as_ref().unwrap());
        assert_ne!(
            results[0].as_ref().unwrap().final_positions,
            results[2].as_ref().unwrap().final_positions
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn storeless_planner_runs_every_cell_like_a_bare_planner() {
        let graph = Arc::new(asymmetric_gnp(9, 1000).unwrap());
        let spec = ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, &graph, 0).with_seed(3);
        let cells = [spec.clone(), spec.clone(), spec.with_robots(0)];
        let mut bare = BatchPlanner::new();
        let mut planner = CachedPlanner::new(None);
        for cell in &cells {
            bare.add(&graph, cell.clone());
            planner.add(&graph, cell.clone());
        }
        assert_eq!(planner.pending_misses(), 3, "no dedup without a store");
        assert!((0..3).all(|idx| planner.source(idx) == CellSource::Simulation));
        let expected = bare.run();
        let (results, stats) = planner.run().unwrap();
        for (a, b) in expected.iter().zip(&results) {
            match (a, b) {
                (Ok(a), Ok(b)) => assert_eq!(
                    (a.rounds, &a.final_positions),
                    (b.rounds, &b.final_positions)
                ),
                (a, b) => assert!(a.is_err() && b.is_err()),
            }
        }
        assert_eq!(
            (stats.hits, stats.misses, stats.deduped, stats.errors),
            (0, 2, 0, 1)
        );
        assert_eq!(stats.store_write_micros, 0);
    }

    #[test]
    fn errors_are_not_stored() {
        let dir = tmpdir("errors");
        let store = ResultStore::open(&dir).unwrap();
        let graph = Arc::new(asymmetric_gnp(9, 1000).unwrap());
        let bad = ScenarioSpec::gathered(Algorithm::Baseline, &graph, 0).with_robots(0);
        let mut planner = CachedPlanner::new(Some(&store));
        planner.add(&graph, bad.clone());
        let (results, stats) = planner.run().unwrap();
        assert!(results[0].is_err());
        assert_eq!(stats.errors, 1);
        assert!(store.is_empty(), "failed cells never enter the journal");
        // And they stay misses on resubmission.
        let mut again = CachedPlanner::new(Some(&store));
        again.add(&graph, bad);
        assert_eq!(again.pending_misses(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
