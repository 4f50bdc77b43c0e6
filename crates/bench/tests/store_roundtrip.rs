//! The acceptance observable for the serving layer on the bench side: a
//! second `table1 --quick --store DIR`-equivalent invocation is served
//! entirely from the store — zero rounds simulated — and produces the
//! identical table, because cached outcomes are the exact stored
//! `Outcome`s.

use bd_bench::{run_series_cells, table1_coords, SeriesCoord};
use bd_dispersion::adversaries::AdversaryKind;
use bd_dispersion::runner::Algorithm;
use bd_service::ResultStore;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bd-bench-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn second_quick_table1_run_simulates_zero_rounds() {
    let dir = tmpdir("table1");
    let store = ResultStore::open(&dir).unwrap();

    let coords = table1_coords(true, &[1000]);
    let (cold_cells, cold_stats) = run_series_cells(&coords, Some(&store));
    let cold_stats = cold_stats.expect("store path reports stats");
    let cells = cold_cells.len() as u64;
    assert_eq!(cold_stats.misses, cells, "cold store simulates everything");
    assert_eq!(cold_stats.hits, 0);
    assert!(cold_stats.rounds_simulated > 0);

    // Same invocation again — in the same process here; the daemon restart
    // suite proves the journal serves across processes too.
    let (warm_cells, warm_stats) = run_series_cells(&coords, Some(&store));
    let warm_stats = warm_stats.expect("store path reports stats");
    assert_eq!(warm_stats.hits, cells, "warm store serves every cell");
    assert_eq!(warm_stats.misses, 0);
    assert_eq!(
        warm_stats.rounds_simulated, 0,
        "zero rounds simulated on the second invocation"
    );
    assert_eq!(
        warm_stats.rounds_saved,
        cold_stats.rounds_simulated + {
            // Saved rounds count the *measured* rounds of stored cells, which
            // include fast-forwarded ones; recompute from the table.
            cold_cells
                .iter()
                .map(|c| c.metrics.rounds_skipped)
                .sum::<u64>()
        }
    );

    // The replayed table is the stored table, cell for cell (wall-clock
    // travels with the stored outcome, so even elapsed_micros matches).
    for (a, b) in cold_cells.iter().zip(&warm_cells) {
        assert_eq!(
            serde_json::to_string(a).unwrap(),
            serde_json::to_string(b).unwrap()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_k_round_trips_through_the_store() {
    let dir = tmpdir("sweepk");
    let store = ResultStore::open(&dir).unwrap();
    // Capacity bins on one graph, as the series bin's Series D runs them.
    let coords: Vec<SeriesCoord> = [4, 8, 16]
        .into_iter()
        .flat_map(|k| {
            (0..2).map(move |rep| SeriesCoord {
                k,
                graph_seed: 1000,
                ..SeriesCoord::new(Algorithm::Baseline, 8, AdversaryKind::Squatter, 4000 + rep)
            })
        })
        .collect();
    let (cold, s1) = run_series_cells(&coords, Some(&store));
    assert_eq!(s1.unwrap().misses, 6);
    let (warm, s2) = run_series_cells(&coords, Some(&store));
    let s2 = s2.unwrap();
    assert_eq!((s2.hits, s2.misses, s2.rounds_simulated), (6, 0, 0));
    for (a, b) in cold.iter().zip(&warm) {
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(
            a.metrics.elapsed_micros, b.metrics.elapsed_micros,
            "stored cost replays"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
