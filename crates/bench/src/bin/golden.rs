//! Print the round-exact outcome of every full Table 1 cell, one TSV line
//! per cell, for diffing against the committed `golden/outcomes.tsv`.
//!
//! The grid is the full `table1` sweep (every row's `n` grid at the row's
//! maximum tolerance, its adversary, random Byzantine placement) at seeds
//! 1000–1002 and 2000–2002. Each line holds the cell's row, `n`, seed,
//! measured rounds, whether it dispersed, every `RunMetrics` field except
//! the host-measured `elapsed_micros`, and an FNV-1a hash of the final
//! positions. A change meant to alter no simulated quantity must leave
//! the output byte-identical:
//!
//! ```text
//! cargo run -q --release -p bd-bench --bin golden > /tmp/g.tsv
//! diff golden/outcomes.tsv /tmp/g.tsv
//! ```
//!
//! A change that alters measured rounds on purpose re-records the file;
//! its diff then lists exactly which cells moved.
//!
//! Usage: `cargo run --release -p bd-bench --bin golden` (takes no
//! arguments; an unknown argument exits 2)

use bd_bench::{reject_unknown_flags, run_series_cells, table1_coords};
use bd_dispersion::canon::Fnv64;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    reject_unknown_flags("golden", &args, &[], &[]);
    let seeds = [1000, 1001, 1002, 2000, 2001, 2002];
    let coords = table1_coords(false, &seeds);
    let (cells, _) = run_series_cells(&coords, None);
    println!(
        "# row\tn\tseed\trounds\tdispersed\tmetrics.rounds\ttotal_moves\tmax_moves_per_robot\t\
         messages\tsubrounds_executed\trounds_skipped\trounds_by_phase\tpositions_fnv"
    );
    for c in &cells {
        let m = &c.metrics;
        let phases: Vec<String> = m
            .rounds_by_phase
            .iter()
            .map(|(name, rounds)| format!("{name}:{rounds}"))
            .collect();
        let mut positions = Fnv64::new();
        for &p in &c.final_positions {
            positions.write(&(p as u64).to_le_bytes());
        }
        println!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:016x}",
            c.algo,
            c.n,
            c.seed,
            c.rounds,
            c.dispersed,
            m.rounds,
            m.total_moves,
            m.max_moves_per_robot,
            m.messages,
            m.subrounds_executed,
            m.rounds_skipped,
            phases.join(","),
            positions.finish()
        );
    }
}
