//! # bd-service
//!
//! The serving layer: a **content-addressed, tamper-evident result
//! store**, a **cache-aware batch planner**, and a **scenario-serving HTTP
//! daemon** over `bd_dispersion::BatchPlanner`. Every consumer used to
//! re-simulate identical `(graph, spec)` cells from scratch and nothing
//! survived process exit; this crate makes repeated heavy traffic cheap —
//! a cell is simulated once, stored forever, and replayed
//! byte-identically, with a hash chain that makes silent edits to the
//! stored history detectable.
//!
//! Three layers, runtime below, contracts + service above:
//!
//! * [`store::ResultStore`] — append-only, hash-chained JSONL journal +
//!   in-memory index, keyed by `bd_dispersion::canon::SpecDigest`;
//! * [`cached::CachedPlanner`] — partitions a batch into stored vs to-run
//!   cells, simulates only the misses (cost-ordered, multi-graph), writes
//!   back, returns insertion-order results with [`cached::CacheStats`];
//! * [`daemon::Daemon`] + [`client::Client`] — a hand-rolled
//!   `std::net` HTTP/1.1 JSON API (`bd-serve` bin) with a bounded job
//!   queue and a worker pool.
//!
//! ## Store format
//!
//! A store directory holds one file, `results.jsonl`. Each line is a
//! complete JSON object:
//!
//! ```json
//! {"body": {"digest": "64f9c1…32 hex…", "spec": {…}, "outcome": {…},
//!           "env": {"code_version": "0.1.0", "engine": "bd-runtime", "format": "bdsc1"},
//!           "prev": "…chain digest of the previous line…"},
//!  "chain": "…digest of this body…"}
//! ```
//!
//! The inner digest is the content address of *what was run* — graph
//! adjacency, scenario spec, engine knobs — two independent FNV-1a-64
//! passes over the canonical `bdsd1` byte stream (see
//! `bd_dispersion::canon` for the exact layout). `chain` commits to the
//! body's exact bytes (domain tag `bdsc1`), and each body's `prev` names
//! the previous line's `chain`, so every entry transitively commits to the
//! whole journal before it — in-place edits, reorders, and
//! truncate-then-append splices all break a link and are reported with the
//! failing entry's index ([`store::ResultStore::verify_chain`], served as
//! `GET /audit`). Appends are flushed per entry; on reopen the journal is
//! replayed with truncated-tail recovery (a half-written final line is
//! dropped, interior damage refuses to open). Lookups never touch disk.
//! VERIFICATION.md spells out what the chain does and does not prove.
//!
//! ## HTTP API
//!
//! | Method & path      | Body                | Reply                                         |
//! |--------------------|---------------------|-----------------------------------------------|
//! | `POST /batches`    | [`protocol::BatchRequest`] | `202` [`protocol::BatchAccepted`], `503` queue full |
//! | `GET /batches/:id[?wait_ms=N]` | —       | [`protocol::BatchReply`] (status, cells, stats); with `wait_ms`, once the batch is done or failed or `N` ms (at most the total request deadline) pass; `400` on a non-numeric `N` |
//! | `GET /healthz`     | —                   | [`protocol::Health`]                          |
//! | `GET /stats`       | —                   | [`protocol::StatsReply`] (cache hits, rounds simulated/saved, queue depth) |
//! | `GET /metrics`     | —                   | Prometheus text exposition (`text/plain; version=0.0.4`): store/queue/worker counters, per-row throughput histograms, and per-stage request-latency histograms; see OBSERVABILITY.md |
//! | `GET /audit`       | —                   | [`protocol::AuditReply`]: `200` verified chain, `409` tampered (with failing index) |
//! | `POST /shutdown`   | —                   | `{"ok":true}`, then the daemon drains and exits |
//!
//! Example transcript against `bd-serve --addr 127.0.0.1:7171 --store /tmp/bd`:
//!
//! ```text
//! $ curl -s http://127.0.0.1:7171/healthz
//! {"ok":true,"degraded":false,"store_entries":0}
//!
//! $ curl -s -X POST http://127.0.0.1:7171/batches -d '{
//!     "graph": {"BenchEr": {"n": 9, "seed": 1000}},
//!     "specs": [{"algo":"GatheredThirdTh4","num_robots":9,"num_byzantine":1,
//!                "adversary":"TokenHijacker","placement":"Random",
//!                "starts":{"Gathered":0},"seed":1000,"allow_overload":false}],
//!     "request_id": ""}'
//! {"id":1,"cells":1,"status":"queued","request_id":"8b1f20c4d1e6a973"}
//!
//! $ curl -s 'http://127.0.0.1:7171/batches/1?wait_ms=5000'   # first run: simulated
//! {"id":1,"status":"done","error":null,"cells":[{"cached":false,"outcome":{…}}],
//!  "stats":{"hits":0,"misses":1,"errors":0,"rounds_simulated":812,…},
//!  "request_id":"8b1f20c4d1e6a973"}
//!
//! $ curl -s -X POST http://127.0.0.1:7171/batches -d '…same body…' \
//!     && curl -s 'http://127.0.0.1:7171/batches/2?wait_ms=5000'
//! {"id":2,"status":"done","error":null,"cells":[{"cached":true,"outcome":{…}}],
//!  "stats":{"hits":1,"misses":0,"errors":0,"rounds_simulated":0,"rounds_saved":2515,…},
//!  "request_id":"8b1f20c4d1e6a973"}
//!
//! $ curl -s http://127.0.0.1:7171/stats
//! {"store_entries":1,"store_hits":1,"store_misses":1,"batches_submitted":2,
//!  "batches_completed":2,"queue_depth":0,"workers":2,"totals":{…}}
//!
//! $ curl -s -X POST http://127.0.0.1:7171/shutdown
//! {"ok":true}
//! ```
//!
//! The same cells submitted through `bd-bench`'s `table1 --store DIR`
//! path share the store with the daemon: graph sources materialize through
//! the same `asymmetric_gnp(n, seed)` pure function the sweeps use, so the
//! digests coincide wherever the cell runs.
//!
//! ## Request tracing
//!
//! Every batch carries a `request_id`: [`client::Client::submit`] stamps
//! an empty one with the deterministic digest-derived id
//! ([`protocol::request_id_for`] — same content, same id, never
//! wall-clock), and the daemon derives a body-hash fallback for bare
//! submissions. The id is echoed on `202` and on every
//! `GET /batches/:id`, threaded into the span tree as the `request` span's
//! `req` argument (exported via `bd-serve --trace-out FILE`), attached to
//! every structured log event (`--log FILE|stderr`,
//! `bd_telemetry::log`), and the five request lifecycle stages land in
//! `bd_request_duration_micros{stage=...}` on `/metrics`. OBSERVABILITY.md
//! § "Request tracing and logs" is the full contract.
//!
//! ## Resilience (RESILIENCE.md)
//!
//! The serving path is hardened against the failure modes the chaos drill
//! (`bd-bench --bin chaos`) injects:
//!
//! * every request runs under [`http::Deadlines`] — a per-read idle
//!   timeout plus a whole-request total deadline (slow-loris bound), with
//!   stalls surfacing as the typed [`ServiceError::Timeout`];
//! * [`client::Client`] carries connect/read deadlines by default and can
//!   retry transport failures with capped exponential backoff
//!   ([`client::ClientConfig`]) — safe because every request is
//!   idempotent by `SpecDigest`;
//! * a store that fails verification or becomes unwritable flips the
//!   daemon into **degraded compute-only mode** instead of taking it
//!   down (`/healthz` and `/stats` carry `degraded`, `/metrics` exposes
//!   `bd_degraded`/`bd_store_available`);
//! * a panicking batch fails *that batch*; the worker and the daemon
//!   survive (`bd_worker_panics_total`);
//! * with `BD_STORE_KEY` set ([`store::StoreKey`]), every journal record
//!   carries a keyed MAC, closing the forged-but-chain-consistent splice
//!   the bare hash chain cannot see;
//! * `bd-chaos` fault-injection points in the store's write path compile
//!   to a single `Option` check when disabled, and the drill's kill →
//!   restart → verify loop pins crash recovery end to end.

pub mod cached;
pub mod client;
pub mod daemon;
pub mod error;
pub mod graphsrc;
pub mod http;
pub mod protocol;
pub mod store;

pub use cached::{CacheStats, CachedPlanner, CellSource};
pub use client::{Client, ClientConfig};
pub use daemon::{Daemon, ServeConfig};
pub use error::ServiceError;
pub use graphsrc::GraphSource;
pub use http::Deadlines;
pub use store::{
    ChainAudit, EnvContract, ResultStore, StoreKey, StoreOptions, GENESIS_TIP, STORE_KEY_ENV,
};
