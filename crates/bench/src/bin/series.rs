//! Emit the scaling/ablation series (DESIGN.md Series A–D) as JSON lines.
//!
//! * **Series A** — mean rounds vs `n` for every Table 1 row (shape check);
//! * **Series B** — success rate vs `f` across each tolerance bound for the
//!   gathered rows (the crossover the tolerance column claims);
//! * **Series C** — adversary ablation: rounds and success per adversary
//!   kind for the Theorem 3 pipeline;
//! * **Series D** — the §5 capacity regime: rounds and success per robot
//!   bin `k ∈ {n/2, n, 2n}` for every DUM-based row, batched on one shared
//!   graph per row.
//!
//! With `--store DIR`, every batch reads/writes a content-addressed
//! [`bd_service::ResultStore`] and the run ends with one
//! `{"series":"store-stats",…}` line aggregating cache hits vs simulated
//! rounds across all four series.
//!
//! With `--trace-out FILE`, span recording is switched on and the sweeps
//! export a Chrome trace-event JSONL file (batch → cell → phase tree).
//!
//! Usage: `cargo run --release -p bd-bench --bin series [--quick] [--store DIR] [--trace-out FILE] > series.jsonl`
//! (an unknown argument exits 2)

use bd_bench::{
    mean_elapsed_micros, mean_rounds, mean_rounds_by_k, mean_skipped_rounds, reject_unknown_flags,
    run_series_cells, store_from_args, success_rate, trace_out_from_args, SeriesCoord,
};
use bd_dispersion::adversaries::AdversaryKind;
use bd_dispersion::runner::{Algorithm, ByzPlacement};
use bd_service::CacheStats;
use serde_json::json;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    reject_unknown_flags("series", &args, &["--quick"], &["--store", "--trace-out"]);
    let quick = args.iter().any(|a| a == "--quick");
    let store = store_from_args("series", &args);
    let store = store.as_ref();
    let trace = trace_out_from_args("series", &args);
    let mut totals = CacheStats::default();
    let mut fold = |stats: Option<CacheStats>| {
        if let Some(s) = stats {
            totals.merge(&s);
        }
    };
    let reps: u64 = if quick { 2 } else { 5 };

    // Series A: rounds vs n.
    let rows: &[(Algorithm, AdversaryKind, &[usize])] = &[
        (
            Algorithm::QuotientTh1,
            AdversaryKind::FakeSettler,
            &[8, 12, 16, 24],
        ),
        (
            Algorithm::ArbitraryHalfTh2,
            AdversaryKind::Wanderer,
            &[6, 8, 10],
        ),
        (
            Algorithm::ArbitrarySqrtTh5,
            AdversaryKind::TokenHijacker,
            &[9, 12, 16],
        ),
        (
            Algorithm::GatheredHalfTh3,
            AdversaryKind::Wanderer,
            &[6, 8, 12, 16],
        ),
        (
            Algorithm::GatheredThirdTh4,
            AdversaryKind::TokenHijacker,
            &[9, 12, 16, 24],
        ),
        (
            Algorithm::StrongArbitraryTh7,
            AdversaryKind::StrongSpoofer,
            &[8, 12, 16],
        ),
        (
            Algorithm::StrongGatheredTh6,
            AdversaryKind::StrongSpoofer,
            &[8, 12, 16, 24],
        ),
    ];
    for &(algo, kind, ns) in rows {
        let ns: Vec<usize> = if quick {
            ns.iter().take(2).copied().collect()
        } else {
            ns.to_vec()
        };
        let coords: Vec<SeriesCoord> = ns
            .iter()
            .flat_map(|&n| (0..reps).map(move |rep| SeriesCoord::new(algo, n, kind, 1000 + rep)))
            .collect();
        let (cells, stats) = run_series_cells(&coords, store);
        fold(stats);
        let skipped = mean_skipped_rounds(&cells);
        for (n, rounds) in mean_rounds(&cells) {
            let mean_skipped = skipped
                .iter()
                .find(|&&(sn, _)| sn == n)
                .map_or(0.0, |&(_, s)| s);
            let at_n: Vec<_> = cells.iter().filter(|c| c.n == n).cloned().collect();
            println!(
                "{}",
                json!({
                    "series": "A-rounds-vs-n",
                    "algo": format!("{algo:?}"),
                    "adversary": format!("{kind:?}"),
                    "n": n,
                    "f": algo.tolerance(n),
                    "mean_rounds": rounds,
                    // Fast-forward observability: adversarial sweeps skip
                    // dead rounds; measured rounds stay timeline-exact.
                    "mean_rounds_skipped": mean_skipped,
                    // Real per-cell cost next to the planner's estimate.
                    "mean_elapsed_micros": mean_elapsed_micros(&at_n),
                    "success": success_rate(&cells),
                    // The row's phase decomposition of the measured rounds:
                    // a representative cell's annotation (gather lengths
                    // vary with the seeded graph; the other phases depend
                    // only on n).
                    "rounds_by_phase": at_n.first().map(|c| c.metrics.rounds_by_phase.clone()),
                })
            );
        }
    }

    // Series B: success vs f around the tolerance bound. All (algo, f,
    // seed) coordinates run as one planner batch: each seed's graph is
    // shared across every f bin instead of being regenerated per cell.
    let n = if quick { 9 } else { 12 };
    let series_b: Vec<(Algorithm, Vec<usize>)> = [
        Algorithm::GatheredHalfTh3,
        Algorithm::GatheredThirdTh4,
        Algorithm::StrongGatheredTh6,
    ]
    .into_iter()
    .map(|algo| {
        let tol = algo.tolerance(n);
        (algo, (0..=(tol + 2).min(n - 1)).collect())
    })
    .collect();
    let coords: Vec<SeriesCoord> = series_b
        .iter()
        .flat_map(|&(algo, ref fs)| {
            fs.iter().flat_map(move |&f| {
                (0..reps).map(move |r| SeriesCoord {
                    f,
                    placement: ByzPlacement::LowIds,
                    ..SeriesCoord::new(algo, n, AdversaryKind::Wanderer, 2000 + r)
                })
            })
        })
        .collect();
    let (all_b, stats_b) = run_series_cells(&coords, store);
    fold(stats_b);
    // Results come back in coords order: `reps` contiguous cells per f bin,
    // f bins contiguous per algorithm.
    let mut offset = 0usize;
    for (algo, fs) in &series_b {
        let algo = *algo;
        let tol = algo.tolerance(n);
        for &f in fs {
            let at_f = &all_b[offset..offset + reps as usize];
            offset += reps as usize;
            println!(
                "{}",
                json!({
                    "series": "B-success-vs-f",
                    "algo": format!("{algo:?}"),
                    "n": n,
                    "f": f,
                    "tolerance": tol,
                    "within_tolerance": f <= tol,
                    "success": success_rate(at_f),
                })
            );
        }
    }

    // Series C: adversary ablation on the Theorem 3 pipeline — one planner
    // batch across all adversary kinds (one shared graph per seed).
    let n = 8;
    let f = Algorithm::GatheredHalfTh3.tolerance(n);
    let kinds: Vec<AdversaryKind> = AdversaryKind::all()
        .into_iter()
        .filter(|k| !k.needs_strong()) // Theorem 3 assumes weak Byzantine robots.
        .collect();
    let coords: Vec<SeriesCoord> = kinds
        .iter()
        .flat_map(|&kind| {
            (0..reps).map(move |r| SeriesCoord {
                f,
                ..SeriesCoord::new(Algorithm::GatheredHalfTh3, n, kind, 3000 + r)
            })
        })
        .collect();
    let (all_c, stats_c) = run_series_cells(&coords, store);
    fold(stats_c);
    // Results in coords order: `reps` contiguous cells per adversary kind.
    for (i, kind) in kinds.into_iter().enumerate() {
        let cells = &all_c[i * reps as usize..(i + 1) * reps as usize];
        println!(
            "{}",
            json!({
                "series": "C-adversary-ablation",
                "algo": "GatheredHalfTh3",
                "adversary": format!("{kind:?}"),
                "n": n,
                "f": f,
                "mean_rounds": mean_rounds(cells).first().map(|x| x.1),
                "mean_rounds_skipped": mean_skipped_rounds(cells).first().map(|x| x.1),
                "success": success_rate(cells),
            })
        );
    }

    // Series D: the §5 capacity regime — k ∈ {n/2, n, 2n} bins for every
    // DUM-based row, at the row's (n, k) tolerance, all on one graph.
    let n = if quick { 6 } else { 8 };
    let ks = [n / 2, n, 2 * n];
    for (algo, kind) in [
        (Algorithm::GatheredHalfTh3, AdversaryKind::Wanderer),
        (Algorithm::GatheredThirdTh4, AdversaryKind::TokenHijacker),
        (Algorithm::ArbitrarySqrtTh5, AdversaryKind::TokenHijacker),
        (Algorithm::Baseline, AdversaryKind::Squatter),
    ] {
        let coords: Vec<SeriesCoord> = ks
            .iter()
            .flat_map(|&k| {
                (0..reps).map(move |rep| SeriesCoord {
                    k,
                    f: algo.row().tolerance(n, k),
                    graph_seed: 1000,
                    ..SeriesCoord::new(algo, n, kind, 4000 + rep)
                })
            })
            .collect();
        let (cells, stats) = run_series_cells(&coords, store);
        fold(stats);
        for (k, rounds) in mean_rounds_by_k(&cells) {
            let bin = cells.iter().filter(|c| c.k == k);
            let (total, ok) = bin.fold((0usize, 0usize), |(t, s), c| {
                (t + 1, s + usize::from(c.dispersed))
            });
            println!(
                "{}",
                json!({
                    "series": "D-capacity-k-bins",
                    "algo": format!("{algo:?}"),
                    "adversary": format!("{kind:?}"),
                    "n": n,
                    "k": k,
                    "f": algo.row().tolerance(n, k),
                    "capacity": k.div_ceil(n),
                    "mean_rounds": rounds,
                    "success": ok as f64 / total.max(1) as f64,
                })
            );
        }
    }

    // Cache accounting across every series, when a store was in play: on a
    // warm store the whole emission replays with rounds_simulated == 0.
    if store.is_some() {
        println!(
            "{}",
            json!({
                "series": "store-stats",
                "hits": totals.hits,
                "misses": totals.misses,
                "rounds_simulated": totals.rounds_simulated,
                "rounds_saved": totals.rounds_saved,
                "elapsed_simulated_micros": totals.elapsed_simulated_micros,
            })
        );
    }

    if let Some(trace) = trace {
        trace.finish();
    }
}
