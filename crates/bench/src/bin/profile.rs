//! Per-phase engine profile over the full Table 1 registry.
//!
//! Runs one instrumented cell per registry row (the seven Table 1 rows
//! plus the `Baseline` and `RingOptimal` references) with engine-counter
//! recording on and a counting global allocator feeding the
//! `bd-telemetry` allocation odometer, then prints a per-phase table:
//! rounds, wall time, share of the engine wall clock, allocations,
//! moves, and sub-rounds. This answers "where does `QuotientTh1`'s time
//! go" with named phases instead of one flat number.
//!
//! Flags:
//!
//! * `--quick` — profile the smaller quick-grid sizes;
//! * `--check` — additionally assert (exit 1 otherwise) that at least 90%
//!   of `QuotientTh1`'s engine wall time is attributed to named schedule
//!   phases, and that for every row the stepped, skipped, scripted and
//!   solo rounds add up to the row's rounds, at least 90% of every
//!   `cover_walk`/`gather` phase's rounds are scripted (applied in bulk),
//!   every `gather` phase moves robots at least twice per prelude port the
//!   engine looked up (`walked=`: merged gathering walks share a tail and
//!   are walked once per cohort), at least 60% of the rounds not
//!   skipped in every `pairing`/`replicate` phase are solo (roaming
//!   adversaries applied in bulk while every honest robot waits), and
//!   `GatheredHalfTh3` serves fewer than `k` observations
//!   (`bulletin_reads`) per stepped round (robots idle in a pairing
//!   window are not called) and makes fewer `Controller::solo` calls
//!   (`solo_calls`) than it has solo rounds (each roamer runs a whole
//!   segment in one call) and fewer `Controller::intent` asks (`asks=`)
//!   than `k` per drive-loop iteration (a robot whose answer still holds
//!   is not asked again);
//! * `--overhead-check` — run the quick Table 1 batch alternately with
//!   telemetry enabled and disabled (interleaved A/B, best-of-3 per
//!   side) and assert the enabled minimum stays within 5% (plus a 500us
//!   jitter floor) of the disabled minimum (exit 1 otherwise) — CI's
//!   zero-overhead smoke.
//!
//! Usage: `cargo run --release -p bd-bench --bin profile [--quick] [--check] [--overhead-check]`
//! (an unknown argument exits 2)

// The counting allocator is the one place in the workspace that needs
// `unsafe`: a `GlobalAlloc` impl forwarding to `System`.
#![allow(unsafe_code)]

use bd_bench::{
    bench_graph, reject_unknown_flags, run_series_cells, run_spec_cell, starting_config,
    table1_coords, table1_sweeps, Cell,
};
use bd_dispersion::runner::Algorithm;
use bd_dispersion::Session;
use bd_telemetry::{drain_engine_reports, EngineReport};
use std::alloc::{GlobalAlloc, Layout, System};

/// Forwards to the system allocator, counting every allocation on the
/// `bd-telemetry` odometer so the engine recorder can attribute
/// allocations to phases (and demonstrate steady-state rounds allocate
/// nothing).
struct CountingAlloc;

// SAFETY: pure pass-through to `System`; the odometer bump is an atomic
// increment and allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bd_telemetry::note_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bd_telemetry::note_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Share of `report`'s wall clock attributed to named schedule phases
/// (phases the recorder had to invent — the trailing `"run"` fallback —
/// do not count as attributed).
fn attribution(report: &EngineReport) -> f64 {
    if report.wall_micros == 0 {
        // Sub-microsecond engine runs: everything the recorder closed is
        // attributed by construction.
        return 1.0;
    }
    let named: u64 = report
        .phases
        .iter()
        .filter(|p| p.name != "run")
        .map(|p| p.wall_micros)
        .sum();
    named as f64 / report.wall_micros as f64
}

fn print_report(cell: &Cell, report: &EngineReport) {
    println!(
        "{} (n={}, k={}, f={}, adversary={}): rounds={} engine_wall={:.2}ms allocs={} \
         attribution={:.1}%",
        cell.algo,
        cell.n,
        cell.k,
        cell.f,
        cell.adversary,
        report.rounds,
        report.wall_micros as f64 / 1e3,
        report.phases.iter().map(|p| p.allocs).sum::<u64>(),
        attribution(report) * 100.0,
    );
    println!(
        "  {:<12} {:>10} {:>10} {:>6} {:>10} {:>10} {:>10} {:>8}",
        "phase", "rounds", "wall ms", "wall%", "allocs", "moves", "subrounds", "ff"
    );
    for p in &report.phases {
        println!(
            "  {:<12} {:>10} {:>10.2} {:>6.1} {:>10} {:>10} {:>10} {:>8}",
            p.name,
            p.end_round - p.start_round,
            p.wall_micros as f64 / 1e3,
            100.0 * p.wall_micros as f64 / (report.wall_micros as f64).max(1.0),
            p.allocs,
            p.counters.moves,
            p.counters.subrounds,
            p.counters.ff_jumps,
        );
    }
    println!(
        "  totals: stepped={} skipped={} scripted={} solo={} solo_calls={} walked={} asks={} \
         bulletin w/r={}/{} resorts={} dirty_hwm={} roster_hwm={} bulletin_hwm={}",
        report.total.rounds_stepped,
        report.total.rounds_skipped,
        report.total.rounds_scripted,
        report.total.rounds_solo,
        report.total.solo_calls,
        report.total.prelude_walked,
        report.total.intent_asks,
        report.total.bulletin_writes,
        report.total.bulletin_reads,
        report.total.roster_resorts,
        report.total.dirty_hwm,
        report.total.roster_hwm,
        report.total.bulletin_hwm,
    );
    println!();
}

/// One instrumented cell per registry row; returns `(cell, report)` per
/// row, in registry print order plus the two reference rows.
fn profile_rows(quick: bool) -> Vec<(Cell, EngineReport)> {
    let mut out = Vec::new();
    for sweep in table1_sweeps() {
        let ns = if quick { sweep.quick_ns } else { sweep.ns };
        let n = *ns.last().expect("non-empty grid");
        let session = Session::new(bench_graph(n, 1000));
        let spec = starting_config(sweep.algo, session.graph())
            .with_byzantine(sweep.algo.tolerance(n), sweep.adversary)
            .with_seed(1000);
        out.push(run_profiled(&session, &spec));
    }
    // Reference rows, fault-free: the baseline on the bench graph and the
    // ring-optimal row on its required ring topology.
    let n = if quick { 8 } else { 16 };
    let session = Session::new(bench_graph(n, 1000));
    let spec = starting_config(Algorithm::Baseline, session.graph()).with_seed(1000);
    out.push(run_profiled(&session, &spec));
    let session = Session::new(bd_graphs::generators::ring(n).expect("ring"));
    let spec = starting_config(Algorithm::RingOptimal, session.graph()).with_seed(1000);
    out.push(run_profiled(&session, &spec));
    out
}

fn run_profiled(
    session: &Session,
    spec: &bd_dispersion::runner::ScenarioSpec,
) -> (Cell, EngineReport) {
    let cell = run_spec_cell(session, spec);
    let mut reports = drain_engine_reports();
    assert_eq!(
        reports.len(),
        1,
        "one instrumented run must publish exactly one report"
    );
    (cell, reports.remove(0))
}

/// Interleaved A/B overhead smoke: quick Table 1 batch, telemetry
/// enabled vs disabled, through [`bd_bench::overhead_check`] on the summed
/// engine wall clock. Engine construction samples the flag, so toggling
/// between batches is race-free.
fn overhead_check() -> ! {
    // The 500us jitter floor keeps sub-millisecond timer noise from
    // failing the check on very fast machines.
    let passed = bd_bench::overhead_check("profile: telemetry", 500, |enabled, iter| {
        bd_telemetry::enable_counters(enabled);
        let (cells, _) = run_series_cells(&table1_coords(true, &[1000]), None);
        let _ = drain_engine_reports();
        let engine_micros: u64 = cells.iter().map(|c| c.metrics.elapsed_micros).sum();
        if iter > 0 {
            println!(
                "iter {iter:>2} telemetry={:<8} quick table1 engine time {engine_micros:>9} us",
                if enabled { "enabled" } else { "disabled" },
            );
        }
        engine_micros
    });
    bd_telemetry::enable_counters(false);
    std::process::exit(if passed { 0 } else { 1 });
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    reject_unknown_flags(
        "profile",
        &args,
        &["--quick", "--check", "--overhead-check"],
        &[],
    );
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    if args.iter().any(|a| a == "--overhead-check") {
        overhead_check();
    }

    bd_telemetry::enable_counters(true);
    let _ = drain_engine_reports();
    println!(
        "per-phase engine profile, one cell per registry row ({} grid)\n",
        if quick { "quick" } else { "full" }
    );
    let profiled = profile_rows(quick);
    for (cell, report) in &profiled {
        print_report(cell, report);
    }

    if check {
        let (cell, report) = profiled
            .iter()
            .find(|(c, _)| c.algo == "QuotientTh1")
            .expect("QuotientTh1 is a registry row");
        let share = attribution(report);
        println!(
            "check: {:.1}% of QuotientTh1's {}us engine wall attributed to named phases",
            share * 100.0,
            report.wall_micros
        );
        assert!(cell.dispersed, "profiled QuotientTh1 cell must disperse");
        let mut failures = Vec::new();
        if share < 0.90 {
            failures.push("phase attribution below 90%".to_string());
        }
        for (cell, report) in &profiled {
            failures.extend(round_accounting(cell, report));
        }
        for failure in &failures {
            eprintln!("profile: {failure}");
        }
        if !failures.is_empty() {
            std::process::exit(1);
        }
        println!("check passed");
    }
}

/// The `--check` round-accounting gate for one row: every round is
/// stepped, skipped, scripted or solo exactly once; the walks that need no
/// communication (`cover_walk`, `gather`) are at least 90% scripted; the
/// gathering walk makes at least two moves per prelude port looked up
/// (which fails if plans stop sharing tails among merged walks); the
/// map-finding windows (`pairing`, `replicate`) are at least 60% solo
/// among the rounds not skipped; and `GatheredHalfTh3`'s stepped rounds
/// serve fewer than `k` observations each on average, which fails if
/// robots waiting out a pairing window are called again, and its
/// `Controller::solo` calls stay below its solo rounds, which fails if
/// roamers are called once per round instead of once per segment, and
/// its intent asks stay below `k` per drive-loop iteration, which fails
/// if every robot is asked every iteration.
fn round_accounting(cell: &Cell, report: &EngineReport) -> Vec<String> {
    let (algo, t) = (&cell.algo, &report.total);
    let mut failures = Vec::new();
    if algo == "GatheredHalfTh3" {
        let reads = t.bulletin_reads as f64 / t.rounds_stepped.max(1) as f64;
        println!(
            "check: {algo} serves {reads:.1} observations per stepped round (k = {})",
            cell.k
        );
        if reads >= cell.k as f64 {
            failures.push(format!(
                "{algo}: {} bulletin reads over {} stepped rounds = {reads:.1} per round >= k = {}",
                t.bulletin_reads, t.rounds_stepped, cell.k
            ));
        }
        println!(
            "check: {algo} makes {} solo calls over {} solo rounds",
            t.solo_calls, t.rounds_solo
        );
        if t.solo_calls >= t.rounds_solo {
            failures.push(format!(
                "{algo}: {} solo calls >= {} solo rounds",
                t.solo_calls, t.rounds_solo
            ));
        }
        // The drive loop's iterations: the epoch's start, then every
        // stepped round, segment and skip.
        let iterations = 1 + t.rounds_stepped + t.ff_jumps;
        println!(
            "check: {algo} makes {} intent asks over {iterations} loop iterations (k = {})",
            t.intent_asks, cell.k
        );
        if t.intent_asks >= cell.k as u64 * iterations {
            failures.push(format!(
                "{algo}: {} intent asks >= k = {} x {iterations} loop iterations",
                t.intent_asks, cell.k
            ));
        }
    }
    let accounted = t.rounds_stepped + t.rounds_skipped + t.rounds_scripted + t.rounds_solo;
    if accounted != report.rounds {
        failures.push(format!(
            "{algo}: stepped {} + skipped {} + scripted {} + solo {} = {accounted} != {} rounds",
            t.rounds_stepped, t.rounds_skipped, t.rounds_scripted, t.rounds_solo, report.rounds
        ));
    }
    for p in &report.phases {
        let rounds = p.end_round - p.start_round;
        let c = &p.counters;
        match p.name.as_str() {
            "cover_walk" | "gather" => {
                if (c.rounds_scripted as f64) < 0.9 * rounds as f64 {
                    failures.push(format!(
                        "{algo}: {} of {rounds} {} rounds scripted (< 90%)",
                        c.rounds_scripted, p.name
                    ));
                }
                if p.name == "gather" && c.moves < 2 * c.prelude_walked {
                    failures.push(format!(
                        "{algo}: {} gather moves < 2 x {} prelude ports walked",
                        c.moves, c.prelude_walked
                    ));
                }
            }
            "pairing" | "replicate" => {
                let unskipped = rounds - c.rounds_skipped;
                if (c.rounds_solo as f64) < 0.6 * unskipped as f64 {
                    failures.push(format!(
                        "{algo}: {} of {unskipped} non-skipped {} rounds solo (< 60%)",
                        c.rounds_solo, p.name
                    ));
                }
            }
            _ => {}
        }
    }
    failures
}
