//! Differential oracle fuzzing from the command line.
//!
//! Draws random scenario cells — algorithm × adversary × graph family ×
//! sizes × seeds — and runs each on both the arena-backed fast engine and
//! the deliberately naive `bd-oracle` reference engine, asserting
//! full-trajectory equality. On a divergence the case is greedily
//! minimized and printed with the round of first mismatch; the process
//! exits 1 so CI can gate on it.
//!
//! `--broken` injects a known fault (fast-forward overshoots its idle
//! horizon by one round) into the fast engine — the way to demonstrate the
//! harness has teeth: a run with `--broken` is *expected* to exit 1.
//!
//! `--trace-out FILE` switches span recording on and exports the fuzzed
//! cells as a Chrome trace-event JSONL file (cell → phase tree).
//!
//! After the static pass, a **dynamic pass** samples event-scheduled
//! worlds (robot churn, edge failure/heal, adversary switches) on top of
//! the same case space and checks whole epoch sequences against the
//! event-aware oracle; `--static-only` / `--dynamic-only` select one pass
//! (both together exit 2, like an unknown flag).
//!
//! Usage:
//!   cargo run --release -p bd-bench --bin fuzz -- \
//!     [--cases N] [--seed S] [--max-n N] [--budget-secs T] [--broken] \
//!     [--trace-out FILE] [--static-only] [--dynamic-only]

use bd_bench::{arg_value, reject_unknown_flags, trace_out_from_args};
use bd_oracle::{run_dynamic_fuzz, run_fuzz, FuzzConfig};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    reject_unknown_flags(
        "fuzz",
        &args,
        &["--broken", "--static-only", "--dynamic-only"],
        &[
            "--cases",
            "--seed",
            "--max-n",
            "--budget-secs",
            "--trace-out",
        ],
    );
    let mut config = FuzzConfig::default();
    if let Some(cases) = arg_value(&args, "--cases") {
        config.cases = cases;
    }
    if let Some(seed) = arg_value(&args, "--seed") {
        config.seed = seed;
    }
    if let Some(max_n) = arg_value(&args, "--max-n") {
        config.max_n = max_n;
    }
    if let Some(secs) = arg_value::<u64>(&args, "--budget-secs") {
        config.time_budget = Some(Duration::from_secs(secs));
    }
    let broken = args.iter().any(|a| a == "--broken");
    // The injected fault; 0 is every real engine's setting.
    let overshoot = u64::from(broken);
    let static_pass = !args.iter().any(|a| a == "--dynamic-only");
    let dynamic_pass = !args.iter().any(|a| a == "--static-only");
    if !static_pass && !dynamic_pass {
        // Both passes off would check no cell and pass vacuously.
        eprintln!("fuzz: --static-only and --dynamic-only exclude each other");
        std::process::exit(2);
    }
    let trace = trace_out_from_args("fuzz", &args);

    println!(
        "differential fuzz: {} cases, seed {:#x}, n <= {}, budget {:?}{}",
        config.cases,
        config.seed,
        config.max_n,
        config.time_budget,
        if broken {
            " [BROKEN fast engine: ff overshoot +1]"
        } else {
            ""
        }
    );

    let mut failed = false;
    if static_pass {
        let report = run_fuzz(&config, |c| c.with_ff_overshoot(overshoot));
        println!(
            "static pass: checked {} cells: {} full-trajectory matches, {} identical-error \
             agreements",
            report.cases_run, report.matched, report.match_err
        );
        match report.failure {
            None => {
                println!("no divergence: the fast path is trajectory-equivalent to the oracle")
            }
            Some(failure) => {
                println!("{failure}");
                failed = true;
            }
        }
    }

    if dynamic_pass && !failed {
        // Dynamic cells run whole epoch sequences on both engines, so a
        // quarter of the static case count keeps the pass comparable in
        // wall-clock terms.
        let mut dyn_config = config.clone();
        dyn_config.cases = (config.cases / 4).max(5);
        let report = run_dynamic_fuzz(&dyn_config, |c| c.with_ff_overshoot(overshoot));
        println!(
            "dynamic pass: checked {} event-scheduled cells ({} draws discarded): {} matches, \
             {} identical-error agreements",
            report.cases_run, report.discarded, report.matched, report.match_err
        );
        match report.failure {
            None => {
                println!("no divergence: epoch sequences are trajectory-equivalent across engines")
            }
            Some(failure) => {
                println!("{failure}");
                failed = true;
            }
        }
    }

    if let Some(trace) = trace {
        trace.finish();
    }
    if failed {
        std::process::exit(1);
    }
}
