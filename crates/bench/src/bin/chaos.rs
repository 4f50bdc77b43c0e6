//! `bd-bench --bin chaos` — the crash-recovery and serving-path drill
//! (RESILIENCE.md).
//!
//! Phases, all seed-deterministic:
//!
//! 1. **Journal kill/restart cycles** (the core): per cycle, open a store
//!    under a `bd_chaos::FaultPlan` (torn appends, lost-page-cache
//!    windows, lost anchor rewrites; keyed and anchored stores included
//!    by rotation), append until a kill-class fault fires, then reopen
//!    the way a restarted `bd-serve` would and hold recovery to the exact
//!    contract: the surviving entries equal the ground-truth durable
//!    prefix, an anchor at most one entry behind is re-anchored, an
//!    anchor further behind is *named* (`AnchorMismatch`) and repaired,
//!    post-recovery appends succeed, and a final `verify_chain()` passes
//!    clean. Any undetected corruption or spurious alarm fails the drill.
//! 2. **Socket faults**: an adversarial client speaks
//!    [`bd_chaos::SocketFault`]s (mid-body disconnects, stalls, garbage,
//!    oversized claims, slow-loris drips) at a live daemon with tight
//!    deadlines; the daemon must never panic, stay undegraded, answer
//!    `/healthz` after every fault, and still serve real batches.
//! 3. **Worker panics**: a plan-armed daemon panics inside seed-chosen
//!    batches; those batches must fail *individually* while the workers
//!    and daemon survive.
//! 4. **Queue saturation**: a one-worker, depth-1 daemon under a burst
//!    must shed with `503` (never block, never die) and a retrying
//!    client must land its submission anyway.
//!
//! Flags: `--cycles N` (journal cycles, default 240), `--seed S`,
//! `--quick` (60 cycles, smaller socket drill — the CI merge-gate shape),
//! `--broken` (teeth mode: reopen stores with tail-truncation recovery
//! deliberately disabled; the drill MUST fail, proving it detects a
//! recovery path that stopped working), `--overhead-check` (interleaved
//! A/B: puts through a disabled chaos handle vs an armed-but-quiet one;
//! the injection points must cost nothing measurable when disabled). An
//! unknown argument, or a flag value that does not parse, exits 2.

use bd_bench::{arg_value, reject_unknown_flags};
use bd_chaos::{Chaos, FaultPlan, SocketFault};
use bd_dispersion::canon::SpecDigest;
use bd_dispersion::runner::{Algorithm, Outcome, ScenarioSpec};
use bd_dispersion::BatchPlanner;
use bd_service::protocol::BatchRequest;
use bd_service::{
    Client, ClientConfig, Daemon, GraphSource, ResultStore, ServeConfig, ServiceError, StoreKey,
    StoreOptions,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One cheap real `(spec, outcome)` pair, simulated once and reused for
/// every synthesized journal entry. The journal drill exercises
/// durability, not simulation — entries are keyed by synthetic digests so
/// a cycle of 40 appends costs microseconds, not simulations.
struct Seed {
    spec: ScenarioSpec,
    outcome: Outcome,
}

impl Seed {
    fn grow() -> Seed {
        let graph = Arc::new(bd_graphs::generators::asymmetric_gnp(8, 1000).expect("bench graph"));
        let spec = ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, &graph, 0).with_seed(1);
        let mut planner = BatchPlanner::new();
        planner.add(&graph, spec.clone());
        let outcome = planner
            .run()
            .remove(0)
            .expect("seed cell simulates cleanly");
        Seed { spec, outcome }
    }

    fn digest(&self, cycle: u64, i: u64) -> SpecDigest {
        SpecDigest::of_bytes(format!("bd-chaos-drill cycle {cycle} put {i}").as_bytes())
    }
}

struct Tally {
    cycles: u64,
    torn_deaths: u64,
    fsync_deaths: u64,
    survived: u64,
    tail_recoveries: u64,
    anchor_windows: u64,
    anchor_repairs: u64,
    keyed_cycles: u64,
    failures: Vec<String>,
}

/// Parse `prefix` and `len` out of the torn-kill error message the store
/// emits (`chaos: killed mid-append after P of L bytes`) — the drill's
/// ground truth for whether the dying append nonetheless reached disk in
/// full (P == L), in which case the reopened journal legitimately holds
/// one more entry than the acknowledged prefix.
fn torn_coordinates(msg: &str) -> Option<(usize, usize)> {
    let rest = msg.split("after ").nth(1)?;
    let mut nums = rest.split(|c: char| !c.is_ascii_digit()).filter_map(|s| {
        if s.is_empty() {
            None
        } else {
            s.parse::<usize>().ok()
        }
    });
    Some((nums.next()?, nums.next()?))
}

/// One journal kill → restart → verify cycle. Returns an error string on
/// any contract violation.
#[allow(clippy::too_many_lines)]
fn journal_cycle(
    base: &Path,
    seed: &Seed,
    plan_seed: u64,
    cycle: u64,
    broken: bool,
    tally: &mut Tally,
) -> Result<(), String> {
    let dir = base.join(format!("cycle-{cycle}"));
    let _ = std::fs::remove_dir_all(&dir);
    let anchored = cycle % 2 == 0;
    let keyed = cycle % 3 == 0;
    if keyed {
        tally.keyed_cycles += 1;
    }
    let anchor_path = dir.join("tip.anchor");
    let key = if keyed {
        StoreKey::new(format!("drill-key-{cycle}"))
    } else {
        None
    };
    let options = |chaos: Chaos, break_recovery: bool| {
        let mut o = StoreOptions::default()
            .with_key(key.clone())
            .with_chaos(chaos);
        if anchored {
            o = o.with_anchor(&anchor_path);
        }
        o.break_recovery = break_recovery;
        o
    };

    let plan = FaultPlan::journal_mix(plan_seed ^ cycle.wrapping_mul(0x9e37), 7);
    let chaos = Chaos::from_plan(plan);
    let store = ResultStore::open_with(&dir, options(chaos.clone(), false))
        .map_err(|e| format!("armed open failed on a fresh store: {e}"))?;

    // Append until a kill-class fault fires (or the cap). Ground truth:
    // the digests the store acknowledged, plus how far the anchor
    // trails them (tracked via per-put chaos counter deltas).
    let mut durable: Vec<SpecDigest> = Vec::new();
    let mut trailing_lost_anchors = 0u64;
    let mut death: Option<String> = None;
    for i in 0..40u64 {
        let digest = seed.digest(cycle, i);
        let anchor_losses_before = chaos.counters().anchor_losses;
        match store.put(digest, &seed.spec, &seed.outcome) {
            Ok(true) => {
                durable.push(digest);
                if anchored && chaos.counters().anchor_losses > anchor_losses_before {
                    trailing_lost_anchors += 1;
                } else {
                    trailing_lost_anchors = 0;
                }
            }
            Ok(false) => return Err(format!("fresh digest {digest} claimed already stored")),
            Err(e) => {
                death = Some(e.to_string());
                break;
            }
        }
    }
    drop(store);

    // How many entries can legitimately sit in the journal beyond the
    // acknowledged prefix: exactly one, iff the dying append's torn
    // prefix covered the complete record — with or without its trailing
    // newline (recovery re-terminates the latter).
    let extra = match &death {
        Some(msg) if msg.contains("mid-append") => match torn_coordinates(msg) {
            Some((prefix, len)) => usize::from(prefix + 1 >= len),
            None => return Err(format!("unparseable torn-kill message: {msg}")),
        },
        _ => 0,
    };
    match &death {
        Some(msg) if msg.contains("mid-append") => tally.torn_deaths += 1,
        Some(_) => tally.fsync_deaths += 1,
        None => tally.survived += 1,
    }
    let anchor_lag = trailing_lost_anchors as usize + extra;
    let expect_mismatch = anchored && anchor_lag >= 2;

    // "Restart": reopen the way a restarted daemon would — no chaos.
    // In teeth mode the tail-truncation step of recovery is disabled;
    // every downstream assertion must then catch what it lets through.
    let reopened = ResultStore::open_with(&dir, options(Chaos::off(), broken));
    let store = match reopened {
        Ok(store) => {
            if expect_mismatch {
                return Err(format!(
                    "anchor {anchor_lag} entries behind the journal was accepted silently \
                     (trailing lost anchors {trailing_lost_anchors}, extra {extra})"
                ));
            }
            if anchored && anchor_lag == 1 {
                tally.anchor_windows += 1;
            }
            store
        }
        Err(ServiceError::AnchorMismatch { .. }) if expect_mismatch => {
            // Named exactly when it should be. Operator repair: drop the
            // stale anchor and re-anchor from the journal.
            tally.anchor_repairs += 1;
            std::fs::remove_file(&anchor_path).map_err(|e| format!("anchor repair failed: {e}"))?;
            ResultStore::open_with(&dir, options(Chaos::off(), broken))
                .map_err(|e| format!("reopen after anchor repair failed: {e}"))?
        }
        Err(e) => {
            return Err(format!(
                "reopen after {} named the wrong fault: {e} (trailing lost anchors \
                 {trailing_lost_anchors}, extra {extra})",
                death.as_deref().unwrap_or("a clean run")
            ));
        }
    };
    tally.tail_recoveries += store.counters().recovered;

    // Recovered state must equal the ground-truth durable prefix.
    let expected = durable.len() + extra;
    if store.len() != expected {
        return Err(format!(
            "recovered {} entries, ground truth says {expected} ({} acknowledged + {extra} \
             complete-but-unacknowledged)",
            store.len(),
            durable.len()
        ));
    }
    for digest in &durable {
        match store.get(digest) {
            Some(outcome) if outcome == seed.outcome => {}
            Some(_) => return Err(format!("digest {digest} replayed a different outcome")),
            None => return Err(format!("durable digest {digest} lost in recovery")),
        }
    }

    // The recovered store must be fully serviceable: appends and a clean
    // audit. This is the assertion teeth mode trips — un-truncated torn
    // bytes get buried by the first post-recovery append and the audit
    // must refuse the journal.
    for i in 100..103u64 {
        store
            .put(seed.digest(cycle, i), &seed.spec, &seed.outcome)
            .map_err(|e| format!("post-recovery append failed: {e}"))?;
    }
    match store.verify_chain() {
        Ok(audit) if audit.entries == expected + 3 => {}
        Ok(audit) => {
            return Err(format!(
                "post-recovery audit counted {} entries, expected {}",
                audit.entries,
                expected + 3
            ));
        }
        Err(e) => return Err(format!("post-recovery audit failed: {e}")),
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn journal_drill(cycles: u64, plan_seed: u64, broken: bool) -> Tally {
    let base = std::env::temp_dir().join(format!("bd-chaos-drill-{}", std::process::id()));
    let seed = Seed::grow();
    let mut tally = Tally {
        cycles,
        torn_deaths: 0,
        fsync_deaths: 0,
        survived: 0,
        tail_recoveries: 0,
        anchor_windows: 0,
        anchor_repairs: 0,
        keyed_cycles: 0,
        failures: Vec::new(),
    };
    for cycle in 0..cycles {
        if let Err(msg) = journal_cycle(&base, &seed, plan_seed, cycle, broken, &mut tally) {
            tally.failures.push(format!("cycle {cycle}: {msg}"));
        }
    }
    let _ = std::fs::remove_dir_all(&base);
    println!(
        "journal drill: {} cycles ({} torn deaths, {} lost-cache deaths, {} fault-free), \
         {} tail recoveries, {} one-entry anchor windows, {} anchor repairs, {} keyed cycles, \
         {} failures",
        tally.cycles,
        tally.torn_deaths,
        tally.fsync_deaths,
        tally.survived,
        tally.tail_recoveries,
        tally.anchor_windows,
        tally.anchor_repairs,
        tally.keyed_cycles,
        tally.failures.len(),
    );
    tally
}

/// A quick real batch, used to prove the daemon still serves mid-drill.
fn quick_batch() -> BatchRequest {
    let graph = GraphSource::BenchEr { n: 8, seed: 1000 };
    let g = graph.materialize().expect("bench graph");
    BatchRequest::new(
        graph,
        vec![ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, &g, 0).with_seed(2)],
    )
}

fn perform_socket_fault(addr: std::net::SocketAddr, fault: SocketFault) {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return;
    };
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    match fault {
        SocketFault::DisconnectMidBody => {
            let _ = stream
                .write_all(b"POST /batches HTTP/1.1\r\ncontent-length: 4096\r\n\r\n{\"graph\"");
            // Drop: the daemon waits for 4096 body bytes that never come.
        }
        SocketFault::StalledRead => {
            let _ = stream.write_all(b"GET /hea");
            std::thread::sleep(Duration::from_millis(350));
        }
        SocketFault::Garbage => {
            // No \r\n\r\n terminator anywhere: the parser must wait,
            // then see the close.
            let _ = stream.write_all(b"\x00\xff\x13bd chaos says hello \x7f\x00");
        }
        SocketFault::Oversized => {
            let _ = stream.write_all(b"POST /batches HTTP/1.1\r\ncontent-length: 33554433\r\n\r\n");
            let mut reply = [0u8; 256];
            let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
            let _ = stream.read(&mut reply); // expect a 400, not a hang
        }
        SocketFault::SlowLoris => {
            for byte in b"GET /healthz HTTP/1.1\r\nhost: drill\r\n" {
                if stream.write_all(&[*byte]).is_err() {
                    break; // server enforced the total deadline — the point
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
}

fn socket_drill(cycles: u64, seed: u64) -> Vec<String> {
    let mut failures = Vec::new();
    let dir = std::env::temp_dir().join(format!("bd-chaos-socket-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = ServeConfig::ephemeral(&dir);
    config.deadlines = bd_service::Deadlines {
        read: Duration::from_millis(150),
        write: Duration::from_millis(150),
        total: Duration::from_millis(250),
    };
    let daemon = Daemon::start(config).expect("daemon start");
    let addr = daemon.local_addr();
    let client = Client::with_config(addr, ClientConfig::impatient(Duration::from_secs(2)));

    // Any panic anywhere in the daemon during this phase is a drill
    // failure; the hook counts instead of printing.
    static PANICS: AtomicU64 = AtomicU64::new(0);
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {
        PANICS.fetch_add(1, Ordering::SeqCst);
    }));

    for cycle in 0..cycles {
        let fault = SocketFault::draw(seed, cycle);
        perform_socket_fault(addr, fault);
        match client.healthz() {
            Ok(h) if h.ok && !h.degraded => {}
            Ok(h) => failures.push(format!(
                "cycle {cycle} ({fault:?}): daemon unhealthy after fault: {h:?}"
            )),
            Err(e) => failures.push(format!(
                "cycle {cycle} ({fault:?}): healthz failed after fault: {e}"
            )),
        }
        // Every tenth cycle, prove real service continues between abuses.
        if cycle % 10 == 9 {
            let outcome = client
                .submit(&quick_batch())
                .and_then(|a| client.wait(a.id, Duration::from_secs(30)));
            match outcome {
                Ok(reply) if reply.status == "done" => {}
                Ok(reply) => failures.push(format!(
                    "cycle {cycle}: interleaved batch ended {} ({:?})",
                    reply.status, reply.error
                )),
                Err(e) => failures.push(format!("cycle {cycle}: interleaved batch failed: {e}")),
            }
        }
    }

    let metrics = client.metrics().unwrap_or_default();
    let protocol_errors = metric_value(&metrics, "bd_http_protocol_errors_total");
    if protocol_errors == 0 {
        failures.push("no protocol errors counted — the faults never landed".into());
    }
    let _ = client.shutdown();
    daemon.join();
    std::panic::set_hook(default_hook);
    let panics = PANICS.load(Ordering::SeqCst);
    if panics > 0 {
        failures.push(format!(
            "daemon panicked {panics} time(s) under socket faults"
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "socket drill: {cycles} fault cycles, {protocol_errors} protocol errors counted, \
         {panics} panics, {} failures",
        failures.len()
    );
    failures
}

/// Read the value of a counter line out of a Prometheus text exposition.
fn metric_value(text: &str, family: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(family) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn worker_panic_drill(seed: u64) -> Vec<String> {
    let mut failures = Vec::new();
    let dir = std::env::temp_dir().join(format!("bd-chaos-worker-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = ServeConfig::ephemeral(&dir);
    config.chaos = Chaos::from_plan(FaultPlan {
        seed,
        worker_panic_one_in: 3,
        ..FaultPlan::default()
    });
    let daemon = Daemon::start(config).expect("daemon start");
    let client = Client::new(daemon.local_addr());

    // Injected panics are expected here; keep them off the console.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let mut done = 0u64;
    let mut panicked = 0u64;
    for i in 0..12u64 {
        let mut batch = quick_batch();
        batch.specs[0] = batch.specs[0].clone().with_seed(10 + i);
        match client
            .submit(&batch)
            .and_then(|a| client.wait(a.id, Duration::from_secs(30)))
        {
            Ok(reply) if reply.status == "done" => done += 1,
            Ok(reply)
                if reply
                    .error
                    .as_deref()
                    .is_some_and(|e| e.contains("panicked")) =>
            {
                panicked += 1;
            }
            Ok(reply) => failures.push(format!(
                "batch {i} ended {} with unexpected error {:?}",
                reply.status, reply.error
            )),
            Err(e) => failures.push(format!("batch {i} failed outright: {e}")),
        }
    }
    std::panic::set_hook(default_hook);

    match client.stats() {
        Ok(stats) => {
            if stats.worker_panics == 0 || panicked == 0 {
                failures.push(format!(
                    "panic plan armed 1-in-3 but {} batches panicked (daemon counted {})",
                    panicked, stats.worker_panics
                ));
            }
            if stats.degraded {
                failures.push("worker panics must not degrade the daemon".into());
            }
            if stats.batches_completed != 12 {
                failures.push(format!(
                    "submitted 12, daemon completed {} — a panicked batch leaked",
                    stats.batches_completed
                ));
            }
        }
        Err(e) => failures.push(format!("stats after panic drill failed: {e}")),
    }
    if done == 0 {
        failures.push("every batch panicked — the 1-in-3 plan should spare some".into());
    }
    let _ = client.shutdown();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "worker-panic drill: 12 batches, {done} done, {panicked} isolated panics, {} failures",
        failures.len()
    );
    failures
}

fn saturation_drill() -> Vec<String> {
    let mut failures = Vec::new();
    let dir = std::env::temp_dir().join(format!("bd-chaos-queue-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = ServeConfig::ephemeral(&dir);
    config.workers = 1;
    config.queue_depth = 1;
    let daemon = Daemon::start(config).expect("daemon start");
    let client = Client::new(daemon.local_addr());

    // One heavy batch to pin the single worker, one to fill the queue,
    // then a burst that must shed.
    let heavy_graph = GraphSource::BenchEr { n: 32, seed: 1000 };
    let hg = heavy_graph.materialize().expect("bench graph");
    let heavy = |s: u64| {
        BatchRequest::new(
            heavy_graph.clone(),
            vec![ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, &hg, 0).with_seed(s)],
        )
    };
    let mut accepted = Vec::new();
    for s in 0..2u64 {
        match client.submit(&heavy(s)) {
            Ok(a) => accepted.push(a.id),
            Err(e) => failures.push(format!("priming submit {s} failed: {e}")),
        }
    }
    let mut sheds = 0u64;
    for s in 2..14u64 {
        match client.submit(&heavy(s)) {
            Ok(a) => accepted.push(a.id),
            Err(ServiceError::Http { status: 503, .. }) => sheds += 1,
            Err(e) => failures.push(format!("burst submit {s}: unexpected error {e}")),
        }
    }
    if sheds == 0 {
        failures.push("a depth-1 queue absorbed a 12-deep burst without shedding".into());
    }
    // A retrying client must ride out the saturation.
    let retrying = Client::with_config(daemon.local_addr(), ClientConfig::with_retries(8));
    match retrying.submit(&heavy(99)) {
        Ok(a) => accepted.push(a.id),
        Err(e) => failures.push(format!("retrying submit never landed: {e}")),
    }
    for id in accepted {
        if let Err(e) = client.wait(id, Duration::from_secs(120)) {
            failures.push(format!("accepted batch {id} never finished: {e}"));
        }
    }
    match client.metrics() {
        Ok(m) if metric_value(&m, "bd_queue_shed_total") == 0 => {
            failures.push("sheds happened but bd_queue_shed_total is 0".into());
        }
        Ok(_) => {}
        Err(e) => failures.push(format!("metrics after saturation failed: {e}")),
    }
    let _ = client.shutdown();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "saturation drill: {sheds} sheds, retry landed, {} failures",
        failures.len()
    );
    failures
}

/// Interleaved A/B: N store appends through `Chaos::off()` vs an armed
/// handle whose plan never fires, through [`bd_bench::overhead_check`].
/// Pins "fault injection costs nothing when disabled" with the same
/// best-of-3 check as the telemetry overhead smoke; the jitter floor is
/// wider (2ms) because appends are flush-bound I/O, not pure compute.
fn overhead_check() -> ! {
    const PUTS: u64 = 400;
    let seed = Seed::grow();
    let base = std::env::temp_dir().join(format!("bd-chaos-overhead-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let passed = bd_bench::overhead_check("chaos: injection-point", 2000, |armed, iter| {
        let dir = base.join(format!("{armed}-{iter}"));
        let chaos = if armed {
            Chaos::from_plan(FaultPlan::quiet(1))
        } else {
            Chaos::off()
        };
        let store =
            ResultStore::open_with(&dir, StoreOptions::default().with_chaos(chaos)).expect("open");
        let t0 = Instant::now();
        for i in 0..PUTS {
            store
                .put(seed.digest(iter as u64, i), &seed.spec, &seed.outcome)
                .expect("quiet plan never kills");
        }
        let micros = t0.elapsed().as_micros() as u64;
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        if iter > 0 {
            println!(
                "iter {iter:>2} chaos={:<8} {PUTS} puts in {micros:>8} us",
                if armed { "armed" } else { "off" },
            );
        }
        micros
    });
    let _ = std::fs::remove_dir_all(&base);
    std::process::exit(if passed { 0 } else { 1 });
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    reject_unknown_flags(
        "chaos",
        &args,
        &["--quick", "--broken", "--overhead-check"],
        &["--cycles", "--seed"],
    );
    let quick = args.iter().any(|a| a == "--quick");
    let broken = args.iter().any(|a| a == "--broken");
    if args.iter().any(|a| a == "--overhead-check") {
        overhead_check();
    }
    let cycles = arg_value(&args, "--cycles").unwrap_or(if quick { 60 } else { 240 });
    let seed = arg_value(&args, "--seed").unwrap_or(0xb0d5);

    let mut failures: Vec<String> = Vec::new();
    let tally = journal_drill(cycles, seed, broken);
    failures.extend(tally.failures);

    if broken {
        // Teeth mode: recovery was sabotaged, so the drill demonstrating
        // its own teeth means FAILING here.
        if failures.is_empty() {
            eprintln!(
                "chaos --broken: recovery was deliberately disabled but every cycle passed — \
                 the drill has no teeth"
            );
            std::process::exit(3);
        }
        for f in failures.iter().take(5) {
            println!("  caught: {f}");
        }
        println!(
            "chaos --broken: {} cycle(s) caught the sabotaged recovery path — failing as designed",
            failures.len()
        );
        std::process::exit(1);
    }

    failures.extend(socket_drill(if quick { 25 } else { 75 }, seed));
    failures.extend(worker_panic_drill(seed));
    failures.extend(saturation_drill());

    if failures.is_empty() {
        println!("chaos drill: all phases clean ({cycles} journal cycles, seed {seed:#x})");
    } else {
        eprintln!("chaos drill: {} failure(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
