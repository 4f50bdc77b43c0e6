//! The result store end-to-end: simulate a batch once, then watch the
//! identical batch replay from the content-addressed journal — zero rounds
//! simulated, byte-identical outcomes, across what would normally be a
//! process restart.
//!
//! Run with: `cargo run --release --example store_roundtrip`

use byzantine_dispersion::prelude::*;
use std::sync::Arc;

fn main() {
    let dir = std::env::temp_dir().join(format!("bd-store-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // The bench graph family: the same (n, seed) coordinates the sweeps
    // and the daemon use, so cache entries are shared across all of them.
    let graph = Arc::new(generators::asymmetric_gnp(12, 1000).expect("bench graph"));
    let specs: Vec<ScenarioSpec> = (0..4)
        .map(|seed| {
            ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, &graph, 0)
                .with_byzantine(2, AdversaryKind::TokenHijacker)
                .with_seed(seed)
        })
        .collect();

    // Cold: everything simulates, outcomes land in the journal.
    let cold = {
        let store = ResultStore::open(&dir).expect("open store");
        let mut planner = CachedPlanner::new(Some(&store));
        for spec in &specs {
            planner.add(&graph, spec.clone());
        }
        let (results, stats) = planner.run().expect("store I/O");
        println!(
            "cold: {} hits, {} misses, {} rounds simulated ({} us wall-clock)",
            stats.hits, stats.misses, stats.rounds_simulated, stats.elapsed_simulated_micros
        );
        assert_eq!(stats.misses, specs.len() as u64);
        results
        // Store dropped here: the journal on disk is all that survives.
    };

    // Warm, in a "new process": reopen the store from disk and resubmit.
    let store = ResultStore::open(&dir).expect("reopen store");
    println!("reopened store holds {} outcomes", store.len());
    let mut planner = CachedPlanner::new(Some(&store));
    for spec in &specs {
        planner.add(&graph, spec.clone());
    }
    assert_eq!(planner.pending_misses(), 0, "nothing left to simulate");
    let (warm, stats) = planner.run().expect("store I/O");
    println!(
        "warm: {} hits, {} misses, {} rounds simulated, {} rounds served from the journal",
        stats.hits, stats.misses, stats.rounds_simulated, stats.rounds_saved
    );
    assert_eq!(stats.rounds_simulated, 0);

    for (i, (a, b)) in cold.iter().zip(&warm).enumerate() {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(a, b, "cell {i} replays byte-identically");
        println!(
            "cell {i}: dispersed={} rounds={} (replayed from store)",
            b.dispersed, b.rounds
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
