//! In-process daemon integration: the full request lifecycle over real
//! sockets, and the acceptance observable — a second identical submission
//! is served entirely from the store, zero rounds simulated.

use bd_dispersion::adversaries::AdversaryKind;
use bd_dispersion::runner::{Algorithm, ScenarioSpec};
use bd_graphs::generators::asymmetric_gnp;
use bd_service::protocol::BatchRequest;
use bd_service::{Client, Daemon, GraphSource, ServeConfig, ServiceError};
use std::path::PathBuf;
use std::time::Duration;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bd-daemon-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const WAIT: Duration = Duration::from_secs(120);

fn quick_request() -> BatchRequest {
    let n = 9;
    let graph_src = GraphSource::BenchEr { n, seed: 1000 };
    let graph = graph_src.materialize().unwrap();
    BatchRequest::new(
        graph_src,
        (0..2)
            .map(|seed| {
                ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, &graph, 0)
                    .with_byzantine(1, AdversaryKind::TokenHijacker)
                    .with_seed(seed)
            })
            .collect(),
    )
}

#[test]
fn repeat_submission_is_served_from_the_store() {
    let dir = tmpdir("repeat");
    let daemon = Daemon::start(ServeConfig::ephemeral(&dir)).unwrap();
    let client = Client::new(daemon.local_addr());

    let health = client.healthz().unwrap();
    assert!(health.ok);
    assert_eq!(health.store_entries, 0);

    // Cold submission: everything simulates.
    let request = quick_request();
    let accepted = client.submit(&request).unwrap();
    assert_eq!(accepted.cells, 2);
    let first = client.wait(accepted.id, WAIT).unwrap();
    assert_eq!(first.status, "done", "error: {:?}", first.error);
    let s1 = first.stats.unwrap();
    assert_eq!((s1.hits, s1.misses), (0, 2));
    assert!(s1.rounds_simulated > 0);
    assert!(first.cells.iter().all(|c| !c.cached));
    assert!(first
        .cells
        .iter()
        .all(|c| c.outcome.as_ref().unwrap().dispersed));

    // Warm submission of the identical batch: zero rounds simulated.
    let accepted2 = client.submit(&request).unwrap();
    assert_ne!(accepted2.id, accepted.id);
    let second = client.wait(accepted2.id, WAIT).unwrap();
    assert_eq!(second.status, "done");
    let s2 = second.stats.unwrap();
    assert_eq!((s2.hits, s2.misses), (2, 0), "served entirely from store");
    assert_eq!(s2.rounds_simulated, 0, "zero rounds simulated");
    assert!(s2.rounds_saved > 0);
    assert!(second.cells.iter().all(|c| c.cached));
    // The replay is the exact stored outcome.
    for (a, b) in first.cells.iter().zip(&second.cells) {
        assert_eq!(
            serde_json::to_string(a.outcome.as_ref().unwrap()).unwrap(),
            serde_json::to_string(b.outcome.as_ref().unwrap()).unwrap(),
            "byte-identical replay"
        );
    }

    // /stats aggregates both batches.
    let stats = client.stats().unwrap();
    assert_eq!(stats.store_entries, 2);
    assert_eq!(stats.batches_submitted, 2);
    assert_eq!(stats.batches_completed, 2);
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.totals.hits, 2);
    assert_eq!(stats.totals.misses, 2);
    assert_eq!(stats.totals.rounds_simulated, s1.rounds_simulated);

    client.shutdown().unwrap();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The torn-read pin: `/stats` snapshots all batch-level counters in one
/// lock acquisition, so concurrent readers must never observe a state
/// where `completed` and `totals` (or `submitted` and `queue_depth`)
/// disagree. Before the single-lock fix, a reader could catch the gap
/// between the totals merge and the `completed` bump (separate atomics),
/// seeing totals from N batches next to `batches_completed == N ± 1`.
#[test]
fn concurrent_stats_readers_never_see_a_torn_snapshot() {
    let dir = tmpdir("torn");
    let daemon = Daemon::start(ServeConfig::ephemeral(&dir)).unwrap();
    let client = Client::new(daemon.local_addr());

    // Readers hammer /stats while batches flow, checking the invariants
    // every snapshot must satisfy: one cell per batch, all simulated
    // (distinct seeds), so completed batches and accounted cells agree
    // exactly — and the queue arithmetic is exact, not saturated.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut violations = Vec::new();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let s = match client.stats() {
                        Ok(s) => s,
                        Err(_) => continue,
                    };
                    let cells =
                        s.totals.hits + s.totals.misses + s.totals.errors + s.totals.deduped;
                    if cells != s.batches_completed {
                        violations.push(format!(
                            "totals account for {cells} cells but batches_completed is {}",
                            s.batches_completed
                        ));
                    }
                    if s.queue_depth != s.batches_submitted - s.batches_completed {
                        violations.push(format!(
                            "queue_depth {} != submitted {} - completed {}",
                            s.queue_depth, s.batches_submitted, s.batches_completed
                        ));
                    }
                }
                violations
            })
        })
        .collect();

    let n = 9;
    let graph_src = GraphSource::BenchEr { n, seed: 1000 };
    let graph = graph_src.materialize().unwrap();
    let batches = 12;
    let mut ids = Vec::new();
    for seed in 0..batches {
        let request = BatchRequest::new(
            graph_src.clone(),
            vec![
                ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, &graph, 0)
                    .with_byzantine(1, AdversaryKind::TokenHijacker)
                    .with_seed(seed),
            ],
        );
        ids.push(client.submit(&request).unwrap().id);
    }
    // Two workers drain out of order; wait on every id, not just the last.
    for id in ids {
        assert_eq!(client.wait(id, WAIT).unwrap().status, "done");
    }

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for reader in readers {
        let violations = reader.join().unwrap();
        assert!(violations.is_empty(), "torn snapshots: {violations:?}");
    }

    let final_stats = client.stats().unwrap();
    assert_eq!(final_stats.batches_completed, batches);
    assert_eq!(final_stats.totals.misses, batches);
    assert_eq!(final_stats.queue_depth, 0);

    client.shutdown().unwrap();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stalled_connection_does_not_block_the_daemon() {
    let dir = tmpdir("stall");
    let daemon = Daemon::start(ServeConfig::ephemeral(&dir)).unwrap();
    let client = Client::new(daemon.local_addr());

    // A client that connects and never sends a byte. Requests are handled
    // on per-connection threads, so this must not stall anyone else.
    let stalled = std::net::TcpStream::connect(daemon.local_addr()).unwrap();
    std::thread::sleep(Duration::from_millis(50)); // acceptor picks it up
    let t0 = std::time::Instant::now();
    assert!(client.healthz().unwrap().ok);
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "healthz answered behind a stalled connection in {:?}",
        t0.elapsed()
    );
    // Work still flows end-to-end.
    let accepted = client.submit(&quick_request()).unwrap();
    assert_eq!(client.wait(accepted.id, WAIT).unwrap().status, "done");

    drop(stalled);
    client.shutdown().unwrap();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_survives_daemon_restart() {
    let dir = tmpdir("restart");
    let request = quick_request();
    let cold_stats;
    {
        let daemon = Daemon::start(ServeConfig::ephemeral(&dir)).unwrap();
        let client = Client::new(daemon.local_addr());
        let accepted = client.submit(&request).unwrap();
        cold_stats = client.wait(accepted.id, WAIT).unwrap().stats.unwrap();
        client.shutdown().unwrap();
        daemon.join();
    }
    assert_eq!(cold_stats.misses, 2);

    // A fresh daemon on the same store dir serves the batch without
    // simulating a single round: the journal is the cache.
    let daemon = Daemon::start(ServeConfig::ephemeral(&dir)).unwrap();
    let client = Client::new(daemon.local_addr());
    assert_eq!(client.healthz().unwrap().store_entries, 2);
    let accepted = client.submit(&request).unwrap();
    let reply = client.wait(accepted.id, WAIT).unwrap();
    let stats = reply.stats.unwrap();
    assert_eq!((stats.hits, stats.misses), (2, 0));
    assert_eq!(stats.rounds_simulated, 0);
    client.shutdown().unwrap();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The shutdown drain race: a shutdown arriving while a slow batch is
/// still queued or mid-simulation must not drop its store write-backs.
/// `POST /shutdown` stops the acceptor, but the workers drain the queue
/// and flush every append before `join` returns — a restarted daemon
/// (or a cold open here) finds all cells journaled and chain-valid.
#[test]
fn shutdown_drains_in_flight_write_backs() {
    let dir = tmpdir("drain");
    let daemon = Daemon::start(ServeConfig::ephemeral(&dir)).unwrap();
    let client = Client::new(daemon.local_addr());

    // Slow cells: a larger graph, several seeds, all distinct digests.
    let request = slow_request();
    let cells = request.specs.len();
    client.submit(&request).unwrap();
    // Shutdown races the batch: it is queued or mid-simulation now.
    client.shutdown().unwrap();
    daemon.join();

    let store = bd_service::ResultStore::open(&dir).unwrap();
    assert_eq!(store.len(), cells, "shutdown dropped in-flight write-backs");
    assert_eq!(store.verify_chain().unwrap().entries, cells);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn per_cell_errors_and_bad_requests_are_reported() {
    let dir = tmpdir("errors");
    let daemon = Daemon::start(ServeConfig::ephemeral(&dir)).unwrap();
    let client = Client::new(daemon.local_addr());

    // A batch mixing a good cell and an impossible one: the batch is
    // "done", the bad cell carries its error, the good one its outcome.
    let mut request = quick_request();
    request.specs[1] = request.specs[1].clone().with_robots(0);
    let accepted = client.submit(&request).unwrap();
    let reply = client.wait(accepted.id, WAIT).unwrap();
    assert_eq!(reply.status, "done");
    assert!(reply.cells[0].outcome.is_some());
    let err = reply.cells[1].error.as_ref().unwrap();
    assert!(err.contains("no robots"), "{err}");
    assert_eq!(reply.stats.unwrap().errors, 1);

    // Unknown batch id → 404; malformed body → 400; bad route → 404.
    match client.batch(999) {
        Err(ServiceError::Http { status: 404, .. }) => {}
        other => panic!("expected 404, got {other:?}"),
    }
    match client.submit_raw("not json at all") {
        Err(ServiceError::Http { status: 400, .. }) => {}
        other => panic!("expected 400, got {other:?}"),
    }
    // Empty batches are rejected up front.
    let empty = BatchRequest::new(GraphSource::Ring { n: 6 }, Vec::new());
    match client.submit(&empty) {
        Err(ServiceError::Http { status: 400, .. }) => {}
        other => panic!("expected 400, got {other:?}"),
    }

    // A graph source that cannot materialize fails the whole batch.
    let graph = asymmetric_gnp(9, 1000).unwrap();
    let bad_graph = BatchRequest::new(
        GraphSource::Ring { n: 0 },
        vec![ScenarioSpec::gathered(Algorithm::RingOptimal, &graph, 0)],
    );
    let accepted = client.submit(&bad_graph).unwrap();
    let reply = client.wait(accepted.id, WAIT).unwrap();
    assert_eq!(reply.status, "failed");
    assert!(reply.error.is_some());

    client.shutdown().unwrap();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Three slow cells (a larger graph, distinct seeds and digests): the
/// batch is still running while a test acts on the daemon.
fn slow_request() -> BatchRequest {
    let graph_src = GraphSource::BenchEr { n: 32, seed: 1000 };
    let graph = graph_src.materialize().unwrap();
    BatchRequest::new(
        graph_src,
        (0..3)
            .map(|seed| {
                ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, &graph, 0).with_seed(seed)
            })
            .collect(),
    )
}

/// One raw `GET` with a read deadline longer than any long-poll.
fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let patient = Duration::from_secs(60);
    bd_service::http::call_with(addr, "GET", path, None, patient, patient).unwrap()
}

#[test]
fn long_poll_answers_a_cold_batch_in_one_call() {
    let dir = tmpdir("long-poll");
    let daemon = Daemon::start(ServeConfig::ephemeral(&dir)).unwrap();
    let addr = daemon.local_addr();
    let client = Client::new(addr);

    let id = client.submit(&quick_request()).unwrap().id;
    let (status, body) = get(addr, &format!("/batches/{id}?wait_ms=30000"));
    assert_eq!(status, 200);
    let reply: bd_service::protocol::BatchReply = serde_json::from_str(&body).unwrap();
    assert_eq!(reply.status, "done", "error: {:?}", reply.error);

    // `wait_ms=0` answers exactly like the plain GET.
    assert_eq!(
        get(addr, &format!("/batches/{id}?wait_ms=0")),
        get(addr, &format!("/batches/{id}"))
    );
    // A malformed wait is refused; an unknown id is refused without
    // waiting.
    assert_eq!(get(addr, &format!("/batches/{id}?wait_ms=abc")).0, 400);
    let t0 = std::time::Instant::now();
    assert_eq!(get(addr, "/batches/999?wait_ms=20000").0, 404);
    assert!(t0.elapsed() < Duration::from_secs(5), "{:?}", t0.elapsed());

    client.shutdown().unwrap();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Client::wait` gives up at its own timeout, not at the socket's: a
/// batch queued behind a slow one on a single worker reports "still
/// queued" after about the 100 ms asked for.
#[test]
fn client_wait_times_out_on_its_own_budget() {
    let dir = tmpdir("wait-budget");
    let mut config = ServeConfig::ephemeral(&dir);
    config.workers = 1;
    let daemon = Daemon::start(config).unwrap();
    let client = Client::new(daemon.local_addr());

    client.submit(&slow_request()).unwrap();
    let queued = client.submit(&quick_request()).unwrap().id;
    let t0 = std::time::Instant::now();
    match client.wait(queued, Duration::from_millis(100)) {
        Err(ServiceError::Protocol(msg)) => assert!(msg.contains("still queued"), "{msg}"),
        other => panic!("expected the still-queued error, got {other:?}"),
    }
    let took = t0.elapsed();
    assert!(
        took >= Duration::from_millis(100) && took < Duration::from_secs(2),
        "wait returned after {took:?}"
    );

    client.shutdown().unwrap();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `shutdown` stops the acceptor within a poll interval, so `join` on an
/// idle daemon returns at once — also when the daemon listens on the
/// unspecified address.
#[test]
fn shutdown_then_join_returns_promptly_when_idle() {
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let dir = tmpdir("idle-join");
        let mut config = ServeConfig::ephemeral(&dir);
        config.addr = addr.into();
        let daemon = Daemon::start(config).unwrap();
        daemon.shutdown();
        let (done, joined) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            daemon.join();
            let _ = done.send(());
        });
        joined
            .recv_timeout(Duration::from_secs(2))
            .unwrap_or_else(|_| panic!("join on {addr} did not return within 2 s"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A long-poll accepted before `POST /shutdown` is part of the drain: it
/// still gets its batch's `done` reply.
#[test]
fn long_poll_in_flight_at_shutdown_gets_its_reply() {
    use std::io::{Read, Write};
    let dir = tmpdir("poll-shutdown");
    let daemon = Daemon::start(ServeConfig::ephemeral(&dir)).unwrap();
    let addr = daemon.local_addr();
    let client = Client::new(addr);

    let id = client.submit(&slow_request()).unwrap().id;
    // Connected before the shutdown request, so accepted before it.
    let mut poll = std::net::TcpStream::connect(addr).unwrap();
    poll.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    write!(
        poll,
        "GET /batches/{id}?wait_ms=30000 HTTP/1.1\r\nhost: {addr}\r\ncontent-length: 0\r\n\r\n"
    )
    .unwrap();
    client.shutdown().unwrap();

    let mut reply = String::new();
    poll.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    assert!(reply.contains("\"status\":\"done\""), "{reply}");
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}
