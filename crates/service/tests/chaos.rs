//! The robustness layer, tested adversarially (RESILIENCE.md).
//!
//! Three contracts ride here:
//!
//! * **Keyed MACs beat chain-consistent forgery.** The hash chain alone
//!   cannot distinguish an adversary who rewrites history *and*
//!   recomputes every chain digest from an honest writer — these tests
//!   mount exactly that splice and pin that an unkeyed store is blind to
//!   it while a keyed store ([`StoreKey`]) rejects it, whether the forged
//!   record drops its MAC or replays a stale one.
//! * **Degraded compute-only mode.** A daemon whose store fails
//!   verification at startup must come up anyway, say so on `/healthz`,
//!   `/stats`, and `/metrics`, serve simulations without persistence,
//!   and refuse `/audit` with `503`.
//! * **Deterministic fault injection.** The same `FaultPlan` seed must
//!   reproduce the same fault sequence byte-for-byte — the property the
//!   crash drill's "replay a failing cycle by seed" workflow rests on.

use bd_chaos::{Chaos, FaultPlan};
use bd_dispersion::canon::SpecDigest;
use bd_dispersion::runner::{Algorithm, Outcome, ScenarioSpec};
use bd_dispersion::BatchPlanner;
use bd_graphs::generators::asymmetric_gnp;
use bd_service::protocol::BatchRequest;
use bd_service::{
    Client, ClientConfig, Daemon, GraphSource, ResultStore, ServeConfig, ServiceError, StoreKey,
    StoreOptions,
};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bd-chaos-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One real `(spec, outcome)` cell, simulated once per process; the
/// journal tests key it under synthetic digests.
fn cell() -> &'static (ScenarioSpec, Outcome) {
    static CELL: OnceLock<(ScenarioSpec, Outcome)> = OnceLock::new();
    CELL.get_or_init(|| {
        let graph = Arc::new(asymmetric_gnp(8, 1000).unwrap());
        let spec = ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, &graph, 0).with_seed(1);
        let mut planner = BatchPlanner::new();
        planner.add(&graph, spec.clone());
        let outcome = planner.run().remove(0).unwrap();
        (spec, outcome)
    })
}

fn digest(i: u64) -> SpecDigest {
    SpecDigest::of_bytes(format!("chaos-test entry {i}").as_bytes())
}

fn fill(store: &ResultStore, count: u64) -> Vec<String> {
    let (spec, outcome) = cell();
    (0..count)
        .map(|i| {
            store.put(digest(i), spec, outcome).unwrap();
            store.tip()
        })
        .collect()
}

/// Recompute a journal line's chain digest the way the store does — the
/// capability every file-writing adversary has, key or no key.
fn forge_chain(body: &str) -> String {
    let mut bytes = Vec::with_capacity(5 + body.len());
    bytes.extend_from_slice(b"bdsc1");
    bytes.extend_from_slice(body.as_bytes());
    SpecDigest::of_bytes(&bytes).to_string()
}

/// Slice the body JSON out of a journal line (keyed or not), returning
/// `(body, mac)`.
fn dissect(line: &str) -> (&str, Option<&str>) {
    const HEAD: usize = 8; // {"body":
    if let Some(pos) = line.rfind("\",\"mac\":\"") {
        let body = &line[HEAD..pos - 10 - 32]; // ,"chain":"<32 hex>
        let mac = &line[line.len() - 34..line.len() - 2];
        (body, Some(mac))
    } else {
        (&line[HEAD..line.len() - 44], None)
    }
}

/// The attack the bare chain cannot see: replay an old record's body at
/// the journal tip with its `prev` rewritten and the chain digest
/// recomputed. Returns the forged line, optionally carrying `mac` (a
/// keyless adversary either drops the MAC or replays the stale one —
/// both are modeled).
fn forged_replay_line(donor_line: &str, new_prev: &str, mac: Option<&str>) -> String {
    let (body, donor_mac) = dissect(donor_line);
    let prev_pos = body
        .rfind("\"prev\":\"")
        .expect("prev is the last body field")
        + 8;
    let forged_body = format!("{}{new_prev}\"}}", &body[..prev_pos]);
    let chain = forge_chain(&forged_body);
    match mac.or(donor_mac).filter(|_| mac.is_some()) {
        Some(mac) => format!("{{\"body\":{forged_body},\"chain\":\"{chain}\",\"mac\":\"{mac}\"}}"),
        None => format!("{{\"body\":{forged_body},\"chain\":\"{chain}\"}}"),
    }
}

#[test]
fn chain_consistent_forgery_fools_the_chain_but_not_the_key() {
    let dir = tmpdir("forge");
    let key = StoreKey::new("test-signing-key");
    let store =
        ResultStore::open_with(&dir, StoreOptions::default().with_key(key.clone())).unwrap();
    assert!(store.keyed());
    let tips = fill(&store, 3);
    let path = store.path().to_path_buf();
    drop(store);

    // Forge a fourth record: entry 1's body replayed at the tip, chain
    // recomputed — everything a file-writing adversary without the key
    // can mint. Variant A drops the MAC entirely.
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let forged = forged_replay_line(lines[0], &tips[2], None);
    std::fs::write(&path, format!("{text}{forged}\n")).unwrap();

    // The chain-only reader is blind: every link verifies.
    let blind = ResultStore::open_with(&dir, StoreOptions::default()).unwrap();
    let audit = blind.verify_chain().unwrap();
    assert_eq!(audit.entries, 4, "the bare chain accepts the splice");
    drop(blind);

    // The keyed reader names it, at the forged record's index.
    match ResultStore::open_with(&dir, StoreOptions::default().with_key(key.clone())) {
        Err(ServiceError::Tampered { index, msg, .. }) => {
            assert_eq!(index, 4);
            assert!(msg.contains("no MAC"), "{msg}");
        }
        other => panic!("keyed open accepted a MAC-less forgery: {other:?}"),
    }

    // Variant B: the adversary replays the donor record's stale MAC —
    // it fails too, because the MAC commits to the exact body bytes
    // (including the rewritten `prev`).
    let (_, donor_mac) = dissect(lines[0]);
    let forged = forged_replay_line(lines[0], &tips[2], donor_mac);
    std::fs::write(&path, format!("{text}{forged}\n")).unwrap();
    match ResultStore::open_with(&dir, StoreOptions::default().with_key(key)) {
        Err(ServiceError::Tampered { index, msg, .. }) => {
            assert_eq!(index, 4);
            assert!(msg.contains("MAC does not verify"), "{msg}");
        }
        other => panic!("keyed open accepted a stale-MAC forgery: {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn key_lifecycle_round_trips_and_refusals() {
    let dir = tmpdir("keys");
    let key = StoreKey::new("alpha");
    let store =
        ResultStore::open_with(&dir, StoreOptions::default().with_key(key.clone())).unwrap();
    fill(&store, 2);
    drop(store);

    // Same key: clean reopen, clean audit.
    let reopened =
        ResultStore::open_with(&dir, StoreOptions::default().with_key(key.clone())).unwrap();
    assert_eq!(reopened.verify_chain().unwrap().entries, 2);
    drop(reopened);

    // Wrong key: refused at the first record.
    match ResultStore::open_with(
        &dir,
        StoreOptions::default().with_key(StoreKey::new("beta")),
    ) {
        Err(ServiceError::Tampered { index: 1, msg, .. }) => {
            assert!(msg.contains("MAC does not verify"), "{msg}");
        }
        other => panic!("wrong key was accepted: {other:?}"),
    }

    // No key: readable — MACs ride along ignored, the chain still binds.
    let unkeyed = ResultStore::open_with(&dir, StoreOptions::default()).unwrap();
    assert!(!unkeyed.keyed());
    assert_eq!(unkeyed.len(), 2);
    assert_eq!(unkeyed.get(&digest(0)).as_ref(), Some(&cell().1));
    drop(unkeyed);
    let _ = std::fs::remove_dir_all(&dir);

    // The reverse migration is refused by design: an unkeyed journal
    // opened with a key has no MACs to verify — keying starts fresh.
    let dir = tmpdir("keys-refuse");
    let store = ResultStore::open_with(&dir, StoreOptions::default()).unwrap();
    fill(&store, 1);
    drop(store);
    match ResultStore::open_with(
        &dir,
        StoreOptions::default().with_key(StoreKey::new("late")),
    ) {
        Err(ServiceError::Tampered { index: 1, msg, .. }) => {
            assert!(msg.contains("no MAC"), "{msg}");
        }
        other => panic!("unkeyed journal opened keyed: {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The anchor's documented crash window: an anchor exactly one entry
/// behind the journal is the signature of dying between append and
/// anchor rewrite — accepted and re-anchored. Two or more behind is not
/// a crash artifact and must refuse.
#[test]
fn anchor_crash_window_is_exactly_one_entry() {
    let dir = tmpdir("window");
    let anchor = dir.join("tip.anchor");
    let store = ResultStore::open_anchored(&dir, &anchor).unwrap();
    let tips = fill(&store, 3);
    drop(store);

    // One behind: the crash window. Reopen accepts and re-anchors.
    std::fs::write(&anchor, format!("{}\n", tips[1])).unwrap();
    let store = ResultStore::open_anchored(&dir, &anchor).unwrap();
    assert_eq!(store.verify_chain().unwrap().tip, tips[2]);
    assert_eq!(
        std::fs::read_to_string(&anchor).unwrap().trim(),
        tips[2],
        "the accepted window re-anchors to the journal tip"
    );
    drop(store);

    // Two behind: refused loudly.
    std::fs::write(&anchor, format!("{}\n", tips[0])).unwrap();
    match ResultStore::open_anchored(&dir, &anchor) {
        Err(ServiceError::AnchorMismatch { anchored_tip, .. }) => {
            assert_eq!(anchored_tip, tips[0]);
        }
        other => panic!("a two-entry anchor lag was accepted: {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Same plan, same seed → the same faults at the same appends, twice
/// over: the property that makes a failing drill cycle replayable.
#[test]
fn fault_plans_replay_deterministically() {
    let run = |tag: &str| {
        let dir = tmpdir(tag);
        let chaos = Chaos::from_plan(FaultPlan::journal_mix(0xfeed, 5));
        let store = ResultStore::open_with(&dir, StoreOptions::default().with_chaos(chaos.clone()))
            .unwrap();
        let (spec, outcome) = cell();
        let mut trace = Vec::new();
        for i in 0..30u64 {
            match store.put(digest(i), spec, outcome) {
                Ok(_) => trace.push("ok".to_string()),
                Err(e) => {
                    trace.push(e.to_string());
                    break;
                }
            }
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        (trace, chaos.counters())
    };
    let (trace_a, counters_a) = run("replay-a");
    let (trace_b, counters_b) = run("replay-b");
    assert_eq!(trace_a, trace_b, "same seed, same fault sequence");
    assert_eq!(counters_a, counters_b);
    assert!(
        trace_a.last().is_some_and(|t| t.contains("chaos")),
        "a 1-in-5 mix kills within 30 appends: {trace_a:?}"
    );
}

/// A daemon whose store refuses to open must start **degraded** — alive,
/// honest about it on every surface, serving simulations without
/// persistence, and refusing the audit — rather than not start at all.
#[test]
fn tampered_store_degrades_the_daemon_instead_of_killing_it() {
    let dir = tmpdir("degraded");
    // Build a journal, then flip one interior byte so reopening fails.
    let store = ResultStore::open_with(&dir, StoreOptions::default()).unwrap();
    fill(&store, 2);
    let path = store.path().to_path_buf();
    drop(store);
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, text.replace("\"prev\"", "\"perv\"")).unwrap();
    assert!(ResultStore::open_with(&dir, StoreOptions::default()).is_err());

    let daemon = Daemon::start(ServeConfig::ephemeral(&dir)).unwrap();
    assert!(daemon.is_degraded());
    let client = Client::new(daemon.local_addr());

    let health = client.healthz().unwrap();
    assert!(health.ok, "degraded is not dead");
    assert!(health.degraded);
    assert_eq!(health.store_entries, 0);

    // Simulations still flow — compute-only, nothing cached.
    let graph_src = GraphSource::BenchEr { n: 8, seed: 1000 };
    let graph = graph_src.materialize().unwrap();
    let request = BatchRequest::new(
        graph_src,
        vec![ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, &graph, 0).with_seed(7)],
    );
    let accepted = client.submit(&request).unwrap();
    let reply = client.wait(accepted.id, Duration::from_secs(120)).unwrap();
    assert_eq!(reply.status, "done", "error: {:?}", reply.error);
    assert!(!reply.cells[0].cached);
    assert!(reply.cells[0].outcome.is_some());

    // The audit has nothing trustworthy to audit.
    match client.audit() {
        Err(ServiceError::Http { status: 503, .. }) => {}
        other => panic!("audit on a degraded daemon: {other:?}"),
    }

    let stats = client.stats().unwrap();
    assert!(stats.degraded);
    assert_eq!(stats.store_entries, 0);

    let metrics = client.metrics().unwrap();
    assert!(metrics.contains("bd_degraded 1"), "{metrics}");
    assert!(metrics.contains("bd_store_available 0"), "{metrics}");

    client.shutdown().unwrap();
    daemon.join();

    // The tampered journal was never touched: the evidence survives.
    match ResultStore::open_with(&dir, StoreOptions::default()) {
        Err(ServiceError::Corrupt { .. } | ServiceError::Tampered { .. }) => {}
        other => panic!("degraded daemon disturbed the evidence: {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store write that fails mid-batch degrades the daemon and re-runs the
/// batch compute-only: no cell is cached, nothing is deduplicated, and
/// the per-cell error survives the re-run. Every later batch stays
/// compute-only.
#[test]
fn write_failure_degrades_and_reruns_the_batch_compute_only() {
    let dir = tmpdir("write-failure");
    let mut config = ServeConfig::ephemeral(&dir);
    config.chaos = Chaos::from_plan(FaultPlan {
        torn_write_one_in: 1,
        ..FaultPlan::quiet(0x5eed)
    });
    let daemon = Daemon::start(config).unwrap();
    assert!(!daemon.is_degraded());
    let client = Client::new(daemon.local_addr());

    // Two fresh cells, a duplicate of the first, and a cell with no robots.
    let graph_src = GraphSource::BenchEr { n: 8, seed: 1000 };
    let graph = graph_src.materialize().unwrap();
    let fresh =
        |seed| ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, &graph, 0).with_seed(seed);
    let request = BatchRequest::new(
        graph_src,
        vec![fresh(11), fresh(12), fresh(11), fresh(13).with_robots(0)],
    );
    let check = |reply: &bd_service::protocol::BatchReply| {
        assert_eq!(reply.status, "done", "error: {:?}", reply.error);
        assert!(reply.cells.iter().all(|c| !c.cached));
        assert!(reply.cells[..3].iter().all(|c| c.outcome.is_some()));
        assert!(reply.cells[3].error.is_some());
        let stats = reply.stats.unwrap();
        assert_eq!(
            (stats.hits, stats.misses, stats.deduped, stats.errors),
            (0, 3, 0, 1)
        );
    };

    let accepted = client.submit(&request).unwrap();
    check(&client.wait(accepted.id, Duration::from_secs(120)).unwrap());
    assert!(daemon.is_degraded());
    let failures = client
        .metrics_parsed()
        .unwrap()
        .value("bd_store_write_failures_total")
        .unwrap();
    assert!(failures >= 1.0, "write failures: {failures}");

    // The resubmission never reaches the store again.
    let accepted = client.submit(&request).unwrap();
    check(&client.wait(accepted.id, Duration::from_secs(120)).unwrap());

    client.shutdown().unwrap();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The client's deadlines are typed errors, not hangs: a server that
/// accepts and never answers surfaces [`ServiceError::Timeout`] within
/// the configured budget.
#[test]
fn stalled_server_surfaces_the_typed_timeout() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let hold = std::thread::spawn(move || {
        let held = listener.accept().ok();
        std::thread::sleep(Duration::from_millis(500));
        drop(held);
    });
    let client = Client::with_config(addr, ClientConfig::impatient(Duration::from_millis(100)));
    let t0 = std::time::Instant::now();
    match client.healthz() {
        Err(ServiceError::Timeout { what, after }) => {
            assert!(what == "read" || what == "request", "{what}");
            assert!(after <= Duration::from_millis(100));
        }
        other => panic!("expected the typed timeout, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "timed out in {:?}, not within the budget",
        t0.elapsed()
    );
    let _ = hold.join();
}
