//! A tiny blocking client for the daemon's JSON API — the test suites'
//! and examples' way of speaking to `bd-serve` without hand-writing HTTP.
//!
//! Every call carries connect and read/write deadlines
//! ([`ClientConfig`]; defaults even when retries are off), and stalls
//! surface as the typed [`ServiceError::Timeout`] rather than hanging or
//! blurring into generic I/O errors. With `retries > 0` the client
//! retries transport-level failures (connect/read timeouts, resets,
//! garbage, 5xx/429) under capped exponential backoff with deterministic
//! jitter. Retrying is safe for **every** request in this API because
//! results are content-addressed by `SpecDigest`: re-submitting a batch
//! the daemon already ran replays stored outcomes instead of redoing
//! work. Store verdicts and 4xx answers are never retried — they are
//! answers, not weather.

use crate::error::ServiceError;
use crate::http;
use crate::protocol::{AuditReply, BatchAccepted, BatchReply, BatchRequest, Health, StatsReply};
use serde::Deserialize;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Deadlines and retry policy for one [`Client`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Longest a TCP connect may take.
    pub connect_timeout: Duration,
    /// Read/write deadline for one request/response exchange.
    pub io_timeout: Duration,
    /// Retries *after* the first attempt (0 = single attempt, the
    /// default).
    pub retries: u32,
    /// First backoff delay; doubles per retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            io_timeout: http::IO_TIMEOUT,
            retries: 0,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
        }
    }
}

impl ClientConfig {
    /// The default policy with `retries` retries.
    pub fn with_retries(retries: u32) -> ClientConfig {
        ClientConfig {
            retries,
            ..ClientConfig::default()
        }
    }

    /// An impatient config for drills and tests: both deadlines set to
    /// `d`, no retries.
    pub fn impatient(d: Duration) -> ClientConfig {
        ClientConfig {
            connect_timeout: d,
            io_timeout: d,
            ..ClientConfig::default()
        }
    }

    /// Backoff before retry attempt `attempt` (1-based): capped
    /// exponential plus deterministic jitter in `[0, delay/2]`, so
    /// simultaneous clients desynchronize without the client owning an
    /// RNG.
    fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .backoff_base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.backoff_cap);
        let half = exp.as_millis().max(2) as u64 / 2;
        let mixed = (u64::from(attempt))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17);
        exp + Duration::from_millis(mixed % half)
    }
}

/// A handle on one daemon address. Connections are per-call
/// (`Connection: close`), so the client is freely cloneable and `Sync`.
#[derive(Debug, Clone, Copy)]
pub struct Client {
    addr: SocketAddr,
    config: ClientConfig,
}

impl Client {
    /// A client for the daemon at `addr` with the default deadlines and
    /// no retries.
    pub fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            config: ClientConfig::default(),
        }
    }

    /// A client with an explicit [`ClientConfig`].
    pub fn with_config(addr: SocketAddr, config: ClientConfig) -> Self {
        Client { addr, config }
    }

    /// The active config.
    pub fn config(&self) -> ClientConfig {
        self.config
    }

    /// One HTTP exchange under the configured deadlines and retry
    /// policy.
    fn call(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), ServiceError> {
        let mut attempt = 0u32;
        loop {
            let outcome = http::call_with(
                self.addr,
                method,
                path,
                body,
                self.config.connect_timeout,
                self.config.io_timeout,
            )
            .and_then(|(status, reply)| {
                if status >= 500 || status == 429 {
                    Err(ServiceError::Http { status, msg: reply })
                } else {
                    Ok((status, reply))
                }
            });
            match outcome {
                Ok(ok) => return Ok(ok),
                Err(e) if attempt < self.config.retries && e.is_retryable() => {
                    attempt += 1;
                    std::thread::sleep(self.config.backoff(attempt));
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn get<T: Deserialize>(&self, path: &str) -> Result<T, ServiceError> {
        let (status, body) = self.call("GET", path, None)?;
        decode(status, &body)
    }

    /// `GET /healthz`.
    pub fn healthz(&self) -> Result<Health, ServiceError> {
        self.get("/healthz")
    }

    /// `GET /stats`.
    pub fn stats(&self) -> Result<StatsReply, ServiceError> {
        self.get("/stats")
    }

    /// `GET /metrics`: the raw Prometheus text exposition body (the one
    /// endpoint that is not JSON).
    pub fn metrics(&self) -> Result<String, ServiceError> {
        let (status, body) = self.call("GET", "/metrics", None)?;
        if status == 200 {
            Ok(body)
        } else {
            Err(ServiceError::Http { status, msg: body })
        }
    }

    /// [`Client::metrics`] parsed into families and samples
    /// ([`bd_telemetry::prom::parse`]) — what perfbench's `serve-*`
    /// workloads and the smoke tests read instead of grepping exposition
    /// text.
    pub fn metrics_parsed(&self) -> Result<bd_telemetry::prom::Exposition, ServiceError> {
        let body = self.metrics()?;
        bd_telemetry::prom::parse(&body)
            .map_err(|e| ServiceError::Protocol(format!("parse /metrics exposition: {e}")))
    }

    /// `GET /audit`: chain-verify the daemon's journal. Both the verified
    /// (`200`) and the tampered (`409`) answer decode to an [`AuditReply`]
    /// — a broken chain is an *answer*, not a transport failure.
    pub fn audit(&self) -> Result<AuditReply, ServiceError> {
        let (status, body) = self.call("GET", "/audit", None)?;
        if status == 200 || status == 409 {
            serde_json::from_str(&body)
                .map_err(|e| ServiceError::Protocol(format!("decode audit reply {body:?}: {e}")))
        } else {
            Err(ServiceError::Http { status, msg: body })
        }
    }

    /// `POST /batches`: submit `request`, returning the accepted handle.
    /// Safe under retry: a duplicate submission re-plans against the
    /// store and replays by digest.
    ///
    /// A request whose `request_id` is empty is stamped with the
    /// deterministic content-derived id
    /// ([`BatchRequest::computed_request_id`]) before it goes on the wire,
    /// so every submission through this client is traceable end to end; an
    /// explicit caller-chosen id is passed through untouched.
    pub fn submit(&self, request: &BatchRequest) -> Result<BatchAccepted, ServiceError> {
        let stamped;
        let request = if request.request_id.is_empty() {
            match request.computed_request_id() {
                Some(id) => {
                    stamped = BatchRequest {
                        request_id: id,
                        ..request.clone()
                    };
                    &stamped
                }
                // An unmaterializable graph source: send as-is — the
                // daemon will fail the batch with the real error and
                // derive a body-hash id for the failure's trace.
                None => request,
            }
        } else {
            request
        };
        let body = serde_json::to_string(request)
            .map_err(|e| ServiceError::Protocol(format!("encode batch request: {e}")))?;
        let (status, reply) = self.call("POST", "/batches", Some(&body))?;
        decode(status, &reply)
    }

    /// `POST /batches` with an arbitrary raw body — the malformed-input
    /// path tests exercise.
    pub fn submit_raw(&self, body: &str) -> Result<BatchAccepted, ServiceError> {
        let (status, reply) = self.call("POST", "/batches", Some(body))?;
        decode(status, &reply)
    }

    /// `GET /batches/:id`.
    pub fn batch(&self, id: u64) -> Result<BatchReply, ServiceError> {
        self.get(&format!("/batches/{id}"))
    }

    /// Long-poll `GET /batches/:id?wait_ms=N` until the batch leaves the
    /// queue (done or failed), or `timeout` elapses. Each call waits at
    /// most half the I/O deadline, so the reply always beats the socket's
    /// read timeout.
    pub fn wait(&self, id: u64, timeout: Duration) -> Result<BatchReply, ServiceError> {
        let deadline = Instant::now() + timeout;
        loop {
            let wait = deadline
                .saturating_duration_since(Instant::now())
                .min(self.config.io_timeout / 2);
            let reply: BatchReply =
                self.get(&format!("/batches/{id}?wait_ms={}", wait.as_millis()))?;
            match reply.status.as_str() {
                "done" | "failed" => return Ok(reply),
                _ if Instant::now() >= deadline => {
                    return Err(ServiceError::Protocol(format!(
                        "batch {id} still {} after {timeout:?}",
                        reply.status
                    )))
                }
                _ => {}
            }
        }
    }

    /// `POST /shutdown`: ask the daemon to stop accepting and drain.
    /// Never retried — after a success whose response was lost, the
    /// daemon is gone and a retry would report a spurious failure.
    pub fn shutdown(&self) -> Result<(), ServiceError> {
        let (status, body) = http::call_with(
            self.addr,
            "POST",
            "/shutdown",
            Some(""),
            self.config.connect_timeout,
            self.config.io_timeout,
        )?;
        if status == 200 {
            Ok(())
        } else {
            Err(ServiceError::Http { status, msg: body })
        }
    }
}

fn decode<T: Deserialize>(status: u16, body: &str) -> Result<T, ServiceError> {
    if !(200..300).contains(&status) {
        return Err(ServiceError::Http {
            status,
            msg: body.to_string(),
        });
    }
    serde_json::from_str(body)
        .map_err(|e| ServiceError::Protocol(format!("decode response {body:?}: {e}")))
}
