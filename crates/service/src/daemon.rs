//! The scenario-serving daemon: a `std::net::TcpListener` front end, a
//! bounded job queue, and a worker pool that funnels every batch into the
//! shared store-backed [`CachedPlanner`] path.
//!
//! Life of a batch: `POST /batches` validates the JSON, allocates an id,
//! and `try_send`s the id into the bounded queue (`503` when full — the
//! daemon sheds load instead of buffering unboundedly). A worker pops the
//! id, materializes the graph (memoized by source, capped), runs a
//! [`CachedPlanner`] over the daemon's [`ResultStore`] (store-less once
//! degraded), parks results and [`CacheStats`] on the batch record, and
//! wakes the long-polls. `GET /batches/:id` serves the record at any point
//! in its lifecycle; with `?wait_ms=N` it first blocks on a condition
//! variable until the batch is done, failed or evicted, or `N` ms pass
//! (clamped to the total request deadline), so a client waits with one
//! call instead of a poll loop. `GET /stats` aggregates across batches;
//! `GET /metrics` serves the same accounting (plus worker busy-time and
//! per-row throughput histograms) as a Prometheus text exposition
//! (OBSERVABILITY.md documents every metric).
//!
//! All cross-batch accounting lives in one `ServeMetrics` behind one
//! mutex: a worker merges a batch's stats and bumps `completed` in a
//! single critical section, and `/stats` / `/metrics` snapshot in one
//! acquisition — a reader can never observe a torn view (say, a
//! `completed` bump without the totals that came with it).
//!
//! Each accepted connection is handled on its own scoped thread, bounded
//! by [`http::Deadlines`]: a per-read idle timeout *and* a whole-request
//! total deadline, so neither a stalled client nor a slow-loris trickle
//! can hold a thread hostage or block `/healthz` and `/shutdown`. Memory
//! is bounded: only the most recent [`COMPLETED_RETENTION`] finished
//! batch records are kept (older ones answer `404` after eviction) and at
//! most [`GRAPH_MEMO_CAP`] graphs stay memoized.
//!
//! **Graceful degradation** (RESILIENCE.md): the store is an
//! availability liability the compute path does not share, so it is never
//! allowed to take the daemon down. If the journal fails verification at
//! startup, or a write to it fails at runtime, the daemon flips to
//! **degraded compute-only mode**: batches still simulate (nothing is
//! cached or persisted, every cell reports `cached: false`), `/healthz`
//! and `/stats` carry `degraded: true`, and `/metrics` exposes
//! `bd_degraded` / `bd_store_available`. Degradation is one-way for the
//! process — a journal that failed once is evidence, and only an operator
//! (restart after repair) should clear it.
//!
//! **Worker panic isolation**: a panicking batch (a bug — or the chaos
//! drill) marks that batch `failed` and is counted in
//! `bd_worker_panics_total`; the worker thread survives and keeps
//! draining the queue. The daemon's locks recover from poisoning, at the
//! documented cost that a batch interrupted mid-accounting may leave its
//! counters partially merged — availability over perfectly-consistent
//! metrics, for metrics only.
//!
//! Shutdown (`POST /shutdown` or [`Daemon::shutdown`]) clears the running
//! flag; the acceptor, which polls a non-blocking listener every 5 ms,
//! sees it and leaves its thread scope, which ends only once every
//! in-flight connection has answered. Its queue sender then drops;
//! workers drain what was already accepted, see the channel disconnect,
//! and exit — no job is abandoned half-run.

use crate::cached::{CacheStats, CachedPlanner, CellSource};
use crate::error::ServiceError;
use crate::graphsrc::GraphSource;
use crate::http;
use crate::protocol::{
    AuditReply, BatchAccepted, BatchReply, BatchRequest, CellResult, ErrorReply, Health, StatsReply,
};
use crate::store::{ResultStore, StoreOptions};
use bd_chaos::{Chaos, WorkerFault};
use bd_dispersion::canon::Fnv64;
use bd_graphs::PortGraph;
use bd_telemetry::log as tlog;
use bd_telemetry::prom::{self, Histogram, PromText};
use bd_telemetry::spans;
use std::collections::{BTreeMap, HashMap};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks an ephemeral port (see
    /// [`Daemon::local_addr`]).
    pub addr: String,
    /// Result-store directory.
    pub store_dir: PathBuf,
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Bounded queue depth; submissions beyond it get `503`.
    pub queue_depth: usize,
    /// Out-of-band chain-tip anchor file (`--anchor`); when set, the store
    /// opens anchored so `/audit` also detects line-boundary tail
    /// truncation.
    pub anchor: Option<PathBuf>,
    /// Per-request I/O deadlines for every connection.
    pub deadlines: http::Deadlines,
    /// Fault-injection handle, threaded into both the store's write path
    /// and the worker loop ([`Chaos::off`] outside drills; `--chaos-plan`
    /// on the binary).
    pub chaos: Chaos,
}

impl ServeConfig {
    /// A config serving `store_dir` on an ephemeral localhost port with
    /// two workers and a queue of 64.
    pub fn ephemeral(store_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            store_dir: store_dir.into(),
            workers: 2,
            queue_depth: 64,
            anchor: None,
            deadlines: http::Deadlines::default(),
            chaos: Chaos::off(),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum BatchState {
    Queued,
    Running,
    Done,
    Failed(String),
}

struct BatchRecord {
    /// The pending request; taken (freed) when a worker starts the batch.
    request: Option<BatchRequest>,
    state: BatchState,
    cells: Vec<CellResult>,
    stats: Option<CacheStats>,
    /// The request's trace id: client-submitted, or derived from the raw
    /// body when the submission carried an empty one. Echoed on every
    /// reply and threaded through span args and log events.
    request_id: String,
    /// When the batch entered the queue; the worker's pop time minus this
    /// is the `queue_wait` stage.
    queued_at: Instant,
}

/// Completed (done/failed) batch records retained for `GET /batches/:id`;
/// older completed records are evicted so a long-lived daemon's memory
/// stays bounded. In-flight records are never evicted.
pub const COMPLETED_RETENTION: usize = 1024;

/// Distinct graphs memoized at once. Beyond this, a batch's graph is
/// materialized for the batch and dropped afterwards (correct, just not
/// shared) — an `Explicit` source can be megabytes, and the memo key is
/// its full JSON.
pub const GRAPH_MEMO_CAP: usize = 64;

/// Upper bounds of the per-row `bd_row_rounds_per_sec` histogram, in
/// simulated rounds per second (the `+Inf` bucket is implicit). Fixed at
/// compile time: hand-rolled exposition has no dynamic bucketing, and
/// fixed bounds keep scrapes comparable across daemon restarts.
const RPS_BUCKETS: &[u64] = &[
    1_000, 10_000, 50_000, 100_000, 250_000, 500_000, 1_000_000, 5_000_000,
];

/// Upper bounds of the `bd_request_duration_micros{stage=...}` stage
/// histograms, in microseconds. 100µs to 30s: the low buckets resolve the
/// socket/parse stages, the high ones the simulate stage of a large cold
/// batch.
const STAGE_BUCKETS: &[u64] = &[
    100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000, 5_000_000, 30_000_000,
];

/// The request lifecycle's five stage histograms, one series per stage of
/// `bd_request_duration_micros`. Always rendered — a scrape of an idle
/// daemon shows all five families' series at zero, so dashboards and the
/// doc-sync test never depend on traffic having happened.
struct StageHistograms {
    /// Reading and parsing one HTTP request off the socket.
    read_parse: Histogram,
    /// Accepted-to-popped time of a batch in the bounded queue.
    queue_wait: Histogram,
    /// Wall-clock of the batch's simulate fan-out (cold cells only).
    simulate: Histogram,
    /// Writing fresh outcomes back to the store.
    store_write: Histogram,
    /// Serializing and writing one response to the socket.
    respond: Histogram,
}

impl Default for StageHistograms {
    fn default() -> StageHistograms {
        StageHistograms {
            read_parse: Histogram::new(STAGE_BUCKETS),
            queue_wait: Histogram::new(STAGE_BUCKETS),
            simulate: Histogram::new(STAGE_BUCKETS),
            store_write: Histogram::new(STAGE_BUCKETS),
            respond: Histogram::new(STAGE_BUCKETS),
        }
    }
}

impl StageHistograms {
    /// Stage name → histogram, in the order the exposition renders.
    fn series(&self) -> [(&'static str, &Histogram); 5] {
        [
            ("read_parse", &self.read_parse),
            ("queue_wait", &self.queue_wait),
            ("simulate", &self.simulate),
            ("store_write", &self.store_write),
            ("respond", &self.respond),
        ]
    }
}

/// Lock acquisition that survives poisoning: a panicking worker (isolated
/// by `catch_unwind`) must not turn every later `/stats` or submission
/// into a second panic. The data under these locks is accounting and
/// batch records — worst case after a mid-section panic is one batch's
/// counters partially merged, which the module docs accept by name.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Every cross-batch counter the daemon accumulates, behind one mutex so
/// updates (merge totals + bump `completed`, one worker critical section)
/// and reads (`/stats`, `/metrics`) are atomic snapshots — the torn-read
/// fix: no reader can see `completed` without the totals merged with it.
#[derive(Default)]
struct ServeMetrics {
    /// Batches accepted (bumped before the job becomes poppable).
    submitted: u64,
    /// Batches finished, done or failed.
    completed: u64,
    /// Aggregated per-batch cache accounting.
    totals: CacheStats,
    /// Wall-clock workers spent inside batches, microseconds.
    busy_micros: u64,
    /// Batches whose worker panicked (batch failed, worker survived).
    worker_panics: u64,
    /// Requests whose read failed before routing: malformed HTTP, torn
    /// connections, and elapsed deadlines.
    protocol_errors: u64,
    /// Submissions bounced with `503` because the queue was full (or
    /// the daemon was draining).
    shed: u64,
    /// Simulated-cell throughput per Table 1 row, rounds per second.
    row_rps: BTreeMap<String, Histogram>,
    /// Per-stage request latency histograms
    /// (`bd_request_duration_micros{stage=...}`).
    stages: StageHistograms,
    /// Total microseconds batches spent queued
    /// (`bd_queue_wait_micros_total`).
    queue_wait_micros: u64,
}

impl ServeMetrics {
    fn queue_depth(&self) -> u64 {
        // Saturating as a defensive measure only: under the single lock
        // `completed` can never outrun `submitted`.
        self.submitted.saturating_sub(self.completed)
    }
}

struct State {
    /// `None` when the journal failed at startup — the daemon starts
    /// degraded instead of refusing to serve compute.
    store: Option<ResultStore>,
    /// `Some(reason)` once the daemon has entered degraded compute-only
    /// mode. One-way for the process lifetime.
    degraded: Mutex<Option<String>>,
    batches: Mutex<BTreeMap<u64, BatchRecord>>,
    /// Paired with `batches`: notified after every batch a worker
    /// finishes, for `GET /batches/:id?wait_ms=N` long-polls.
    batch_finished: Condvar,
    graphs: Mutex<HashMap<String, Arc<PortGraph>>>,
    next_id: AtomicU64,
    running: AtomicBool,
    workers: usize,
    deadlines: http::Deadlines,
    chaos: Chaos,
    metrics: Mutex<ServeMetrics>,
}

impl State {
    fn is_degraded(&self) -> bool {
        lock_recover(&self.degraded).is_some()
    }

    /// Enter degraded compute-only mode (first reason wins).
    fn degrade(&self, reason: String) {
        let mut d = lock_recover(&self.degraded);
        if d.is_none() {
            eprintln!("bd-serve: entering degraded compute-only mode: {reason}");
            tlog::error("degraded", &[("reason", &reason)]);
            *d = Some(reason);
        }
    }

    /// The store, but only while the daemon still trusts it.
    fn healthy_store(&self) -> Option<&ResultStore> {
        if self.is_degraded() {
            None
        } else {
            self.store.as_ref()
        }
    }

    /// Drop the oldest completed records beyond [`COMPLETED_RETENTION`]
    /// (BTreeMap iterates in id order, so the oldest go first).
    fn evict_completed(&self) {
        let mut batches = lock_recover(&self.batches);
        let completed: Vec<u64> = batches
            .iter()
            .filter(|(_, r)| matches!(r.state, BatchState::Done | BatchState::Failed(_)))
            .map(|(&id, _)| id)
            .collect();
        if completed.len() > COMPLETED_RETENTION {
            for id in &completed[..completed.len() - COMPLETED_RETENTION] {
                batches.remove(id);
            }
        }
    }
}

/// How often the acceptor polls its non-blocking listener, and so how
/// soon it sees a shutdown.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// A running daemon. Dropping the handle does **not** stop it; call
/// [`Daemon::shutdown`] (or send `POST /shutdown`) then [`Daemon::join`].
pub struct Daemon {
    local_addr: SocketAddr,
    state: Arc<State>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("addr", &self.local_addr)
            .finish()
    }
}

impl Daemon {
    /// Bind, open the store, and spawn the acceptor + worker threads.
    ///
    /// A store that fails to open — tampered journal, anchor mismatch,
    /// unreadable directory — does **not** fail the start: the daemon
    /// comes up in degraded compute-only mode with the failure as the
    /// reason, because a broken cache must not deny service the compute
    /// path can still provide. Only the socket bind can fail a start.
    pub fn start(config: ServeConfig) -> Result<Daemon, ServiceError> {
        let mut degraded = None;
        let options = StoreOptions::from_env().with_chaos(config.chaos.clone());
        let options = match &config.anchor {
            Some(anchor) => options.with_anchor(anchor.clone()),
            None => options,
        };
        let store = match ResultStore::open_with(&config.store_dir, options) {
            Ok(store) => Some(store),
            Err(e) => {
                degraded = Some(format!("store failed to open: {e}"));
                None
            }
        };
        let listener = TcpListener::bind(config.addr.as_str())?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let workers = config.workers.max(1);
        let state = Arc::new(State {
            store,
            degraded: Mutex::new(degraded.clone()),
            batches: Mutex::new(BTreeMap::new()),
            batch_finished: Condvar::new(),
            graphs: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            running: AtomicBool::new(true),
            workers,
            deadlines: config.deadlines,
            chaos: config.chaos,
            metrics: Mutex::new(ServeMetrics::default()),
        });
        if let Some(reason) = degraded {
            eprintln!("bd-serve: starting in degraded compute-only mode: {reason}");
        }

        let (tx, rx) = std::sync::mpsc::sync_channel::<u64>(config.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let worker_handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|i| {
                let state = Arc::clone(&state);
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("bd-serve-worker-{i}"))
                    .spawn(move || worker_loop(&state, &rx))
                    .expect("spawn worker")
            })
            .collect();

        let acceptor = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("bd-serve-acceptor".into())
                .spawn(move || accept_loop(listener, &state, tx))
                .expect("spawn acceptor")
        };

        Ok(Daemon {
            local_addr,
            state,
            acceptor: Some(acceptor),
            workers: worker_handles,
        })
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Whether the daemon is in degraded compute-only mode.
    pub fn is_degraded(&self) -> bool {
        self.state.is_degraded()
    }

    /// Ask the daemon to stop accepting; queued work still drains.
    pub fn shutdown(&self) {
        self.state.running.store(false, Ordering::SeqCst);
    }

    /// Wait until the daemon has stopped (after [`Daemon::shutdown`] or a
    /// `POST /shutdown`): the acceptor exits once every in-flight
    /// connection has finished (the `/shutdown` response itself rides
    /// one), then every worker drains.
    pub fn join(mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: TcpListener, state: &Arc<State>, tx: SyncSender<u64>) {
    // One scoped thread per connection: a slow or stalled client must
    // never block /healthz, /shutdown, or other submissions, and the scope
    // ends only when every connection has finished. Per-request deadlines
    // (state.deadlines) bound each thread's lifetime.
    std::thread::scope(move |scope| {
        while state.running.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let tx = tx.clone();
                    scope.spawn(move || handle_connection(stream, state, &tx));
                }
                // Nothing pending, or a real accept error (say, out of file
                // descriptors): wait a poll interval either way.
                Err(_) => std::thread::sleep(ACCEPT_POLL),
            }
        }
        // Refuse connections that arrive while the in-flight ones drain.
        // `tx` drops here too; workers exit once the last clone is gone.
        drop(listener);
    });
}

fn handle_connection(mut stream: TcpStream, state: &Arc<State>, tx: &SyncSender<u64>) {
    let read_started = Instant::now();
    let request = match http::read_request_with(&mut stream, state.deadlines) {
        Ok(r) => r,
        Err(e) => {
            // Garbage, torn connections, and deadline expiries all land
            // here: count them (the socket-fault drill's observable),
            // answer 400 best-effort, drop the connection. Nothing a peer
            // sends reaches a panic path.
            lock_recover(&state.metrics).protocol_errors += 1;
            tlog::warn("protocol_error", &[("error", &e.to_string())]);
            let _ = http::respond(&mut stream, 400, &error_body(&e.to_string()));
            return;
        }
    };
    let read_micros = read_started.elapsed().as_micros() as u64;
    // `/metrics` is the one non-JSON endpoint (Prometheus text
    // exposition), so it bypasses the JSON responder `route` feeds.
    let respond_started;
    if (request.method.as_str(), request.path.as_str()) == ("GET", "/metrics") {
        let body = render_metrics(state);
        respond_started = Instant::now();
        let _ = http::respond_with(&mut stream, 200, prom::CONTENT_TYPE, &body);
    } else {
        let (status, body) = route(&request, state, tx);
        respond_started = Instant::now();
        let _ = http::respond(&mut stream, status, &body);
    }
    let respond_micros = respond_started.elapsed().as_micros() as u64;
    // One acquisition for both connection-side stage observations.
    let mut m = lock_recover(&state.metrics);
    m.stages.read_parse.observe(read_micros);
    m.stages.respond.observe(respond_micros);
}

fn error_body(msg: &str) -> String {
    serde_json::to_string(&ErrorReply { error: msg.into() }).expect("error reply serializes")
}

fn route(req: &http::Request, state: &Arc<State>, tx: &SyncSender<u64>) -> (u16, String) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let health = Health {
                ok: true,
                degraded: state.is_degraded(),
                store_entries: state.store.as_ref().map_or(0, ResultStore::len),
            };
            (200, serde_json::to_string(&health).expect("health"))
        }
        ("GET", "/stats") => {
            let counters = state.store.as_ref().map(ResultStore::counters);
            // One acquisition for all batch-level counters: submitted,
            // completed, queue depth, and totals come from the same
            // instant, never a torn mix.
            let reply = {
                let m = lock_recover(&state.metrics);
                StatsReply {
                    store_entries: state.store.as_ref().map_or(0, ResultStore::len),
                    store_hits: counters.map_or(0, |c| c.hits),
                    store_misses: counters.map_or(0, |c| c.misses),
                    batches_submitted: m.submitted,
                    batches_completed: m.completed,
                    queue_depth: m.queue_depth(),
                    workers: state.workers,
                    degraded: state.is_degraded(),
                    worker_panics: m.worker_panics,
                    totals: m.totals,
                }
            };
            (200, serde_json::to_string(&reply).expect("stats"))
        }
        ("GET", "/audit") => audit(state),
        ("POST", "/batches") => submit_batch(&req.body, state, tx),
        ("GET", path) if path.starts_with("/batches/") => batch_status(path, &req.query, state),
        ("POST", "/shutdown") => {
            state.running.store(false, Ordering::SeqCst);
            (200, "{\"ok\":true}".to_string())
        }
        ("GET" | "POST", _) => (404, error_body(&format!("no route {}", req.path))),
        _ => (
            405,
            error_body(&format!("method {} not allowed", req.method)),
        ),
    }
}

/// `GET /audit`: chain-verify the journal as it sits on disk right now.
/// A verified chain is `200`; a broken one is `409 Conflict` with the same
/// body shape, carrying the failing index; anything else (I/O) is `500`.
/// A daemon without a store (degraded from startup) answers `503`.
fn audit(state: &Arc<State>) -> (u16, String) {
    let Some(store) = state.store.as_ref() else {
        return (
            503,
            error_body("store unavailable: daemon is degraded compute-only"),
        );
    };
    let reply = match store.verify_chain() {
        Ok(a) => AuditReply {
            ok: true,
            entries: a.entries,
            tip: a.tip,
            failing_index: None,
            error: None,
        },
        Err(ServiceError::Tampered { index, msg, .. }) => AuditReply {
            ok: false,
            entries: index - 1,
            tip: String::new(),
            failing_index: Some(index),
            error: Some(msg),
        },
        Err(e) => return (500, error_body(&e.to_string())),
    };
    let status = if reply.ok { 200 } else { 409 };
    (status, serde_json::to_string(&reply).expect("audit reply"))
}

/// The daemon-side fallback trace id for a submission whose `request_id`
/// field came in empty: a content hash of the raw body bytes — still
/// deterministic (the same body gets the same id on every submission, rule
/// 3), just not portable across equivalent JSON spellings the way the
/// client's digest-derived id is.
fn fallback_request_id(body: &str) -> String {
    let mut fold = Fnv64::new();
    fold.write(body.as_bytes());
    format!("{:016x}", fold.finish())
}

fn submit_batch(body: &str, state: &Arc<State>, tx: &SyncSender<u64>) -> (u16, String) {
    let request: BatchRequest = match serde_json::from_str(body) {
        Ok(r) => r,
        Err(e) => return (400, error_body(&format!("bad batch request: {e}"))),
    };
    if request.specs.is_empty() {
        return (400, error_body("batch has no specs"));
    }
    let cells = request.specs.len();
    let request_id = if request.request_id.is_empty() {
        fallback_request_id(body)
    } else {
        request.request_id.clone()
    };
    let id = state.next_id.fetch_add(1, Ordering::Relaxed);
    lock_recover(&state.batches).insert(
        id,
        BatchRecord {
            request: Some(request),
            state: BatchState::Queued,
            cells: Vec::new(),
            stats: None,
            request_id: request_id.clone(),
            queued_at: Instant::now(),
        },
    );
    // `submitted` is bumped *before* the job becomes poppable: a fast
    // worker must never increment `completed` past `submitted`.
    lock_recover(&state.metrics).submitted += 1;
    match tx.try_send(id) {
        Ok(()) => {
            if tlog::enabled(tlog::Level::Info) {
                tlog::info(
                    "batch_accepted",
                    &[
                        ("req", &request_id),
                        ("batch", &id.to_string()),
                        ("cells", &cells.to_string()),
                    ],
                );
            }
            let reply = BatchAccepted {
                id,
                cells,
                status: "queued".into(),
                request_id,
            };
            (202, serde_json::to_string(&reply).expect("accepted"))
        }
        Err(e) => {
            let mut m = lock_recover(&state.metrics);
            m.submitted -= 1;
            m.shed += 1;
            drop(m);
            lock_recover(&state.batches).remove(&id);
            let msg = match e {
                TrySendError::Full(_) => "job queue full, resubmit later",
                TrySendError::Disconnected(_) => "daemon is shutting down",
            };
            tlog::warn("queue_shed", &[("req", &request_id), ("reason", msg)]);
            (503, error_body(msg))
        }
    }
}

/// `GET /batches/:id[?wait_ms=N]`: the batch record now, or — with
/// `wait_ms` — once it has finished or been evicted, or after `N` ms
/// (clamped to the total request deadline), whichever comes first.
fn batch_status(path: &str, query: &str, state: &Arc<State>) -> (u16, String) {
    let id: u64 = match path["/batches/".len()..].parse() {
        Ok(id) => id,
        Err(_) => return (400, error_body(&format!("bad batch id in {path}"))),
    };
    let wait = query
        .split('&')
        .find_map(|pair| pair.strip_prefix("wait_ms="))
        .map(str::parse::<u64>);
    let wait = match wait {
        None => Duration::ZERO,
        Some(Ok(ms)) => Duration::from_millis(ms).min(state.deadlines.total),
        Some(Err(_)) => return (400, error_body(&format!("bad wait_ms in {query}"))),
    };
    let mut batches = lock_recover(&state.batches);
    if !wait.is_zero() {
        batches = state
            .batch_finished
            .wait_timeout_while(batches, wait, |batches| {
                let status = batches.get(&id).map(|r| &r.state);
                matches!(status, Some(BatchState::Queued | BatchState::Running))
            })
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .0;
    }
    let Some(record) = batches.get(&id) else {
        return (404, error_body(&format!("no batch {id}")));
    };
    let (status, error) = match &record.state {
        BatchState::Queued => ("queued", None),
        BatchState::Running => ("running", None),
        BatchState::Done => ("done", None),
        BatchState::Failed(msg) => ("failed", Some(msg.clone())),
    };
    let reply = BatchReply {
        id,
        status: status.into(),
        error,
        cells: record.cells.clone(),
        stats: record.stats,
        request_id: record.request_id.clone(),
    };
    (200, serde_json::to_string(&reply).expect("batch reply"))
}

/// One worker: block for the next queued batch id and run it. Idle
/// workers queue on the receiver's mutex behind the one blocked in
/// `recv`; the loop ends when shutdown drops the last sender.
fn worker_loop(state: &Arc<State>, rx: &Arc<Mutex<Receiver<u64>>>) {
    loop {
        let job = lock_recover(rx).recv();
        match job {
            Ok(id) => {
                let t0 = std::time::Instant::now();
                // Panic isolation: a batch that panics (a bug, or the
                // chaos drill's injected WorkerFault) fails *that batch*;
                // the worker thread survives and keeps draining.
                let done = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    process_batch(state, id)
                }));
                // One critical section for the whole completion: totals,
                // throughput and stage observations, busy time, and the
                // `completed` bump land together, so `/stats` and
                // `/metrics` readers always see them as a unit.
                match done {
                    Ok((queue_wait, done)) => {
                        let mut m = lock_recover(&state.metrics);
                        m.busy_micros += t0.elapsed().as_micros() as u64;
                        if let Some(wait) = queue_wait {
                            m.queue_wait_micros += wait;
                            m.stages.queue_wait.observe(wait);
                        }
                        if let Some((stats, observations)) = done {
                            m.stages.simulate.observe(stats.simulate_wall_micros);
                            m.stages.store_write.observe(stats.store_write_micros);
                            m.totals.merge(&stats);
                            for (row, rps) in observations {
                                m.row_rps
                                    .entry(row)
                                    .or_insert_with(|| Histogram::new(RPS_BUCKETS))
                                    .observe(rps);
                            }
                        }
                        m.completed += 1;
                    }
                    Err(_) => {
                        let mut batches = lock_recover(&state.batches);
                        let mut request_id = String::new();
                        if let Some(record) = batches.get_mut(&id) {
                            request_id = record.request_id.clone();
                            if !matches!(record.state, BatchState::Done | BatchState::Failed(_)) {
                                record.state = BatchState::Failed(
                                    "worker panicked while running this batch (daemon still \
                                     serving; see bd_worker_panics_total)"
                                        .into(),
                                );
                            }
                        }
                        drop(batches);
                        if tlog::enabled(tlog::Level::Error) {
                            tlog::error(
                                "worker_panic",
                                &[("req", &request_id), ("batch", &id.to_string())],
                            );
                        }
                        let mut m = lock_recover(&state.metrics);
                        m.busy_micros += t0.elapsed().as_micros() as u64;
                        m.worker_panics += 1;
                        m.completed += 1;
                    }
                }
                // Done, failed, or panicked: wake the long-polls.
                state.batch_finished.notify_all();
            }
            Err(_) => break,
        }
    }
}

/// The daemon's graph materialization, memoized by canonical source key so
/// repeated submissions share one `Arc` (and therefore one planner
/// session).
fn graph_for(state: &Arc<State>, source: &GraphSource) -> Result<Arc<PortGraph>, ServiceError> {
    let key = source.cache_key();
    if let Some(g) = lock_recover(&state.graphs).get(&key) {
        return Ok(Arc::clone(g));
    }
    // Materialize outside the lock: graph generation can be slow.
    let g = Arc::new(source.materialize()?);
    let mut graphs = lock_recover(&state.graphs);
    if graphs.len() >= GRAPH_MEMO_CAP && !graphs.contains_key(&key) {
        // Memo full: serve this batch unmemoized rather than grow without
        // bound (the memo is an optimization, not a correctness need).
        return Ok(g);
    }
    Ok(Arc::clone(graphs.entry(key).or_insert(g)))
}

/// Run one popped batch to completion. Returns the batch's queue wait
/// (known whenever its record was found) plus its stats and per-row
/// `(row name, rounds/sec)` throughput observations for its *simulated*
/// cells when the batch finished — the caller folds everything into
/// [`ServeMetrics`] in one critical section.
#[allow(clippy::type_complexity)]
fn process_batch(
    state: &Arc<State>,
    id: u64,
) -> (Option<u64>, Option<(CacheStats, Vec<(String, u64)>)>) {
    let (request, request_id, queue_wait) = {
        let mut batches = lock_recover(&state.batches);
        let Some(record) = batches.get_mut(&id) else {
            return (None, None);
        };
        record.state = BatchState::Running;
        let wait = record.queued_at.elapsed().as_micros() as u64;
        // Take, don't clone: nothing reads the request after this point,
        // and an `Explicit` graph source can be megabytes — retained
        // requests would defeat the record-retention memory bound.
        let Some(request) = record.request.take() else {
            return (None, None);
        };
        (request, record.request_id.clone(), wait)
    };
    if tlog::enabled(tlog::Level::Debug) {
        tlog::debug(
            "batch_start",
            &[("req", &request_id), ("batch", &id.to_string())],
        );
    }
    // Drill injection point: a seed-chosen batch simply panics here, and
    // the isolation in `worker_loop` has to contain it. No lock is held.
    if state.chaos.worker_batch() == WorkerFault::Panic {
        panic!("chaos: injected worker panic");
    }

    // The request level of the span tree: one span per batch carrying the
    // trace id, enclosing the planner's batch → cell → phase spans — a
    // Chrome trace of a busy daemon separates into per-request lifelines.
    let result = {
        let _request_span = spans::span_with(
            "request",
            "request",
            vec![("req", request_id.clone()), ("batch", id.to_string())],
        );
        run_request(state, &request, &request_id)
    };
    let done = {
        let mut batches = lock_recover(&state.batches);
        let Some(record) = batches.get_mut(&id) else {
            return (Some(queue_wait), None);
        };
        match result {
            Ok((cells, stats, observations)) => {
                record.cells = cells;
                record.stats = Some(stats);
                record.state = BatchState::Done;
                if tlog::enabled(tlog::Level::Info) {
                    tlog::info(
                        "batch_done",
                        &[
                            ("req", &request_id),
                            ("batch", &id.to_string()),
                            ("hits", &stats.hits.to_string()),
                            ("misses", &stats.misses.to_string()),
                            ("deduped", &stats.deduped.to_string()),
                            ("errors", &stats.errors.to_string()),
                        ],
                    );
                }
                Some((stats, observations))
            }
            Err(e) => {
                if tlog::enabled(tlog::Level::Error) {
                    tlog::error(
                        "batch_failed",
                        &[
                            ("req", &request_id),
                            ("batch", &id.to_string()),
                            ("error", &e.to_string()),
                        ],
                    );
                }
                record.state = BatchState::Failed(e.to_string());
                None
            }
        }
    };
    state.evict_completed();
    (Some(queue_wait), done)
}

fn run_request(
    state: &Arc<State>,
    request: &BatchRequest,
    request_id: &str,
) -> Result<(Vec<CellResult>, CacheStats, Vec<(String, u64)>), ServiceError> {
    let graph = graph_for(state, &request.graph)?;
    run_planned(state.healthy_store(), &graph, request, request_id).or_else(|e| {
        // The only error `CachedPlanner::run` surfaces is a store-write
        // failure: degrade and re-run store-less — the batch (and every
        // later one) is answered compute-only rather than failed.
        // Re-running the whole batch after a mid-batch write failure
        // re-simulates cells the store already answered; a one-time cost,
        // paid exactly once per process, for never returning a
        // half-persisted batch.
        state.degrade(format!("store write path failed: {e}"));
        run_planned(None, &graph, request, request_id)
    })
}

/// Run one batch through a [`CachedPlanner`]: with a store it consults,
/// simulates misses and writes back; without one (degraded) it simulates
/// everything and persists nothing, so it cannot fail.
fn run_planned(
    store: Option<&ResultStore>,
    graph: &Arc<PortGraph>,
    request: &BatchRequest,
    request_id: &str,
) -> Result<(Vec<CellResult>, CacheStats, Vec<(String, u64)>), ServiceError> {
    let mut planner = CachedPlanner::new(store);
    planner.tag("req", request_id.to_string());
    // Per-cell provenance comes straight from the planner: only a store
    // hit is `cached` (an in-batch duplicate aliases a simulation of this
    // very batch, which is not "answered by the store").
    let sources: Vec<CellSource> = request
        .specs
        .iter()
        .map(|spec| {
            let idx = planner.add(graph, spec.clone());
            planner.source(idx)
        })
        .collect();
    let (results, stats) = planner.run()?;
    // Throughput observations for `/metrics`: only cells this batch
    // actually simulated (hits and aliases replay stored work at store
    // speed, which would poison an engine-throughput histogram).
    let observations: Vec<(String, u64)> = request
        .specs
        .iter()
        .zip(&results)
        .zip(&sources)
        .filter(|&((_, result), source)| *source == CellSource::Simulation && result.is_ok())
        .map(|((spec, result), _)| {
            let metrics = &result.as_ref().expect("filtered Ok").metrics;
            let rps = metrics.rounds.saturating_mul(1_000_000) / metrics.elapsed_micros.max(1);
            (spec.algo.row().name().to_string(), rps)
        })
        .collect();
    let cells = results
        .into_iter()
        .zip(sources)
        .map(|(result, source)| match result {
            Ok(outcome) => CellResult {
                cached: source == CellSource::Store,
                outcome: Some(outcome),
                error: None,
            },
            Err(e) => CellResult {
                cached: false,
                outcome: None,
                error: Some(e.to_string()),
            },
        })
        .collect();
    Ok((cells, stats, observations))
}

/// Render the full Prometheus text exposition for `GET /metrics`. Every
/// family here has a row in OBSERVABILITY.md — keep the two in sync.
fn render_metrics(state: &Arc<State>) -> String {
    let store = state.store.as_ref().map(ResultStore::counters);
    let entries = state.store.as_ref().map_or(0, ResultStore::len);
    let mut text = PromText::new();
    text.gauge(
        "bd_store_entries",
        "Outcomes currently in the result store index.",
        entries as u64,
    )
    .gauge(
        "bd_store_available",
        "1 while the daemon trusts and uses its result store.",
        u64::from(state.healthy_store().is_some()),
    )
    .gauge(
        "bd_degraded",
        "1 once the daemon has entered degraded compute-only mode.",
        u64::from(state.is_degraded()),
    )
    .counter(
        "bd_store_hits_total",
        "Store lookups answered from the index.",
        store.map_or(0, |c| c.hits),
    )
    .counter(
        "bd_store_misses_total",
        "Store lookups that found nothing.",
        store.map_or(0, |c| c.misses),
    )
    .counter(
        "bd_store_appended_total",
        "Journal entries appended by this process.",
        store.map_or(0, |c| c.appended),
    )
    .counter(
        "bd_store_recovered_total",
        "Torn journal tails dropped at open.",
        store.map_or(0, |c| c.recovered),
    )
    .counter(
        "bd_store_write_failures_total",
        "Journal appends that failed (the daemon degrades on the first).",
        store.map_or(0, |c| c.write_failures),
    )
    .gauge(
        "bd_workers",
        "Worker threads draining the job queue.",
        state.workers as u64,
    );
    let m = lock_recover(&state.metrics);
    text.counter(
        "bd_batches_submitted_total",
        "Batches accepted onto the queue.",
        m.submitted,
    )
    .counter(
        "bd_batches_completed_total",
        "Batches finished (done or failed).",
        m.completed,
    )
    .gauge(
        "bd_queue_depth",
        "Batches accepted but not yet finished.",
        m.queue_depth(),
    )
    .counter(
        "bd_queue_shed_total",
        "Submissions bounced with 503 because the queue was full.",
        m.shed,
    )
    .counter(
        "bd_http_protocol_errors_total",
        "Requests dropped before routing: malformed, torn, or timed out.",
        m.protocol_errors,
    )
    .counter(
        "bd_worker_panics_total",
        "Batches whose worker panicked (batch failed, worker survived).",
        m.worker_panics,
    )
    .counter(
        "bd_worker_busy_micros_total",
        "Wall-clock microseconds workers spent inside batches.",
        m.busy_micros,
    )
    .counter(
        "bd_cells_hit_total",
        "Cells answered from the store.",
        m.totals.hits,
    )
    .counter(
        "bd_cells_miss_total",
        "Cells that had to be simulated.",
        m.totals.misses,
    )
    .counter(
        "bd_cells_error_total",
        "Cells that errored (never stored).",
        m.totals.errors,
    )
    .counter(
        "bd_cells_deduped_total",
        "Cells aliased to an identical cell of the same batch.",
        m.totals.deduped,
    )
    .counter(
        "bd_rounds_simulated_total",
        "Engine-stepped rounds across simulated cells.",
        m.totals.rounds_simulated,
    )
    .counter(
        "bd_rounds_saved_total",
        "Measured rounds the store answered without simulating.",
        m.totals.rounds_saved,
    )
    .counter(
        "bd_elapsed_simulated_micros_total",
        "Wall-clock microseconds spent simulating cells.",
        m.totals.elapsed_simulated_micros,
    )
    .counter(
        "bd_queue_wait_micros_total",
        "Total microseconds batches spent queued before a worker took them.",
        m.queue_wait_micros,
    );
    // The request lifecycle histograms render unconditionally (all five
    // stage series, even with zero observations): dashboards and the
    // doc-sync smoke must see the family on an idle daemon.
    text.header(
        "bd_request_duration_micros",
        "histogram",
        "Per-stage request latency: read_parse, queue_wait, simulate, store_write, respond.",
    );
    for (stage, hist) in m.stages.series() {
        text.histogram_series("bd_request_duration_micros", &[("stage", stage)], hist);
    }
    if !m.row_rps.is_empty() {
        text.header(
            "bd_row_rounds_per_sec",
            "histogram",
            "Simulated-cell throughput per Table 1 row, rounds per second.",
        );
        for (row, hist) in &m.row_rps {
            text.histogram_series("bd_row_rounds_per_sec", &[("row", row)], hist);
        }
    }
    if state.chaos.enabled() {
        let c = state.chaos.counters();
        text.counter(
            "bd_chaos_torn_writes_total",
            "Injected journal appends torn at a seed-chosen byte.",
            c.torn_writes,
        )
        .counter(
            "bd_chaos_fsync_losses_total",
            "Injected appends lost with the page cache.",
            c.fsync_losses,
        )
        .counter(
            "bd_chaos_anchor_losses_total",
            "Injected anchor rewrites that never happened.",
            c.anchor_losses,
        )
        .counter(
            "bd_chaos_worker_panics_total",
            "Injected worker panics.",
            c.worker_panics,
        )
        .counter(
            "bd_chaos_suppressed_writes_total",
            "Writes suppressed after an injected kill latched.",
            c.suppressed_writes,
        );
    }
    text.finish()
}
