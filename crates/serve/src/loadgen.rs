//! Closed- and open-loop load generation against a solve target.
//!
//! *Closed loop* (no `rps`): `concurrency` workers each keep exactly one
//! request in flight — offered load adapts to server speed, so the
//! report measures capacity. *Open loop* (`rps` set): requests launch on
//! a fixed schedule regardless of completions — offered load is
//! constant, so the report measures behaviour under pressure (queueing,
//! rejections) the way a real client population would.
//!
//! The target is abstracted behind [`SolveTarget`] so the same engine
//! drives a remote server over HTTP ([`HttpTarget`]) or an in-process
//! [`Client`](crate::Client) (zero-socket mode for tests and
//! single-command benchmarks).

use crate::http;
use crate::job::{SolveRequest, SolveResponse};
use crate::stats::{percentile, LatencySummary};
use crate::stream::{self, BandFrame};
use crate::Client;
use lddp_chaos::RetryPolicy;
use lddp_trace::json;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// A failed solve attempt, in the server's wire vocabulary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetError {
    /// Wire code (`queue_full`, `tenant_quota`, `brownout_shed`,
    /// `deadline_exceeded`…) plus the loadgen-local `transport` for
    /// connections that failed before an HTTP status came back.
    pub code: String,
    /// Human-readable detail.
    pub message: String,
    /// The server's `Retry-After` hint, seconds, when the rejection
    /// carried one (backpressure 429/503s do).
    pub retry_after_s: Option<u64>,
}

impl TargetError {
    /// An error with no retry hint.
    pub fn new(code: impl Into<String>, message: impl Into<String>) -> TargetError {
        TargetError {
            code: code.into(),
            message: message.into(),
            retry_after_s: None,
        }
    }
}

/// Something that answers one solve request at a time.
pub trait SolveTarget: Sync {
    /// Executes one request, blocking until the outcome.
    fn solve_once(&self, req: &SolveRequest) -> Result<SolveResponse, TargetError>;

    /// Executes one request in streaming mode, invoking `on_band` for
    /// each band frame as it arrives, then returning the final
    /// outcome. The default delegates to [`SolveTarget::solve_once`]
    /// with zero band frames, so targets without a streaming path
    /// still measure (their time-to-first-band is simply absent).
    fn solve_stream_once(
        &self,
        req: &SolveRequest,
        on_band: &mut dyn FnMut(&BandFrame),
    ) -> Result<SolveResponse, TargetError> {
        let _ = on_band;
        self.solve_once(req)
    }
}

/// A remote server reached over HTTP, with a pool of keep-alive
/// connections shared by the closed-loop workers: each request pops a
/// warm connection (dialing only when the pool is dry) and returns it
/// after the response, so steady-state load pays zero TCP handshakes.
pub struct HttpTarget {
    addr: String,
    timeout: Duration,
    pool: Mutex<Vec<http::HttpConnection>>,
}

impl HttpTarget {
    /// Creates a target for `addr` with the given per-request timeout.
    pub fn new(addr: impl Into<String>, timeout: Duration) -> HttpTarget {
        HttpTarget {
            addr: addr.into(),
            timeout,
            pool: Mutex::new(Vec::new()),
        }
    }

    fn interpret(
        status: u16,
        body: String,
        retry_after_s: Option<u64>,
    ) -> Result<SolveResponse, TargetError> {
        if status == 200 {
            SolveResponse::from_json(&body).map_err(|e| TargetError::new("transport", e))
        } else {
            let parsed = json::parse(&body).ok();
            let field = |name: &str| {
                parsed
                    .as_ref()
                    .and_then(|v| v.get(name))
                    .and_then(|v| v.as_str())
                    .map(str::to_string)
            };
            Err(TargetError {
                code: field("error").unwrap_or_else(|| format!("http_{status}")),
                message: field("message").unwrap_or(body),
                retry_after_s,
            })
        }
    }
}

impl SolveTarget for HttpTarget {
    fn solve_once(&self, req: &SolveRequest) -> Result<SolveResponse, TargetError> {
        let payload = req.to_json();
        // A pooled connection may be stale (server closed it); treat a
        // transport failure on it as a miss and redial fresh instead of
        // failing the request. The pop is bound first so the pool guard
        // is released before the request (and the push-back) run.
        let pooled = self.pool.lock().unwrap().pop();
        if let Some(mut conn) = pooled {
            if let Ok((status, body, retry)) = conn.request_ex("POST", "/solve", Some(&payload)) {
                self.pool.lock().unwrap().push(conn);
                return Self::interpret(status, body, retry);
            }
        }
        let mut conn = http::HttpConnection::connect(&self.addr, self.timeout)
            .map_err(|e| TargetError::new("transport", e))?;
        match conn.request_ex("POST", "/solve", Some(&payload)) {
            Ok((status, body, retry)) => {
                self.pool.lock().unwrap().push(conn);
                Self::interpret(status, body, retry)
            }
            Err(e) => Err(TargetError::new("transport", e)),
        }
    }

    fn solve_stream_once(
        &self,
        req: &SolveRequest,
        on_band: &mut dyn FnMut(&BandFrame),
    ) -> Result<SolveResponse, TargetError> {
        let payload = req.to_json();
        let mut delivered = 0usize;
        let mut done: Option<Result<SolveResponse, TargetError>> = None;
        // Drives one streamed exchange on `conn`, demultiplexing frames:
        // band frames to the callback, the terminal done/error frame
        // into `done`.
        let drive = |conn: &mut http::HttpConnection,
                     delivered: &mut usize,
                     done: &mut Option<Result<SolveResponse, TargetError>>,
                     on_band: &mut dyn FnMut(&BandFrame)| {
            conn.request_stream("POST", "/solve?stream=1", Some(&payload), &mut |chunk| {
                match stream::frame_kind(chunk).as_deref() {
                    Some("band") => {
                        if let Ok(frame) = BandFrame::from_json(chunk) {
                            *delivered += 1;
                            on_band(&frame);
                        }
                    }
                    Some("done") => {
                        *done = Some(
                            SolveResponse::from_json(chunk)
                                .map_err(|e| TargetError::new("transport", e)),
                        );
                    }
                    Some("error") => {
                        let parsed = json::parse(chunk).ok();
                        let field = |name: &str| {
                            parsed
                                .as_ref()
                                .and_then(|v| v.get(name))
                                .and_then(|v| v.as_str())
                                .map(str::to_string)
                        };
                        *done = Some(Err(TargetError::new(
                            field("error").unwrap_or_else(|| "backend_error".into()),
                            field("message").unwrap_or_else(|| chunk.to_string()),
                        )));
                    }
                    _ => {}
                }
            })
        };
        // Stale-pool handling mirrors solve_once, with one extra rule:
        // once any frame was delivered, a transport failure must NOT
        // silently restart the stream (the consumer already saw bands),
        // so only a cleanly-failed first attempt redials.
        let pooled = self.pool.lock().unwrap().pop();
        let outcome = if let Some(mut conn) = pooled {
            match drive(&mut conn, &mut delivered, &mut done, on_band) {
                Ok(o) => {
                    self.pool.lock().unwrap().push(conn);
                    Some(o)
                }
                Err(_) if delivered == 0 && done.is_none() => None,
                Err(e) => return Err(TargetError::new("transport", e)),
            }
        } else {
            None
        };
        let outcome = match outcome {
            Some(o) => o,
            None => {
                let mut conn = http::HttpConnection::connect(&self.addr, self.timeout)
                    .map_err(|e| TargetError::new("transport", e))?;
                match drive(&mut conn, &mut delivered, &mut done, on_band) {
                    Ok(o) => {
                        self.pool.lock().unwrap().push(conn);
                        o
                    }
                    Err(e) => return Err(TargetError::new("transport", e)),
                }
            }
        };
        // Rejections come back as ordinary non-chunked responses.
        if let Some(body) = outcome.plain_body {
            return Self::interpret(outcome.status, body, outcome.retry_after_s);
        }
        done.unwrap_or_else(|| {
            Err(TargetError::new(
                "transport",
                "stream ended without a done frame",
            ))
        })
    }
}

impl SolveTarget for Client<'_, '_> {
    fn solve_once(&self, req: &SolveRequest) -> Result<SolveResponse, TargetError> {
        self.solve(req.clone()).map_err(|e| TargetError {
            code: e.code().to_string(),
            message: e.message(),
            retry_after_s: e.retry_after_s(),
        })
    }

    fn solve_stream_once(
        &self,
        req: &SolveRequest,
        on_band: &mut dyn FnMut(&BandFrame),
    ) -> Result<SolveResponse, TargetError> {
        self.solve_stream(req.clone(), on_band)
            .map_err(|e| TargetError {
                code: e.code().to_string(),
                message: e.message(),
                retry_after_s: e.retry_after_s(),
            })
    }
}

/// What one load run should do.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Request template; every request in the run is a clone of it.
    pub request: SolveRequest,
    /// Requests to send (`0` = unlimited, bounded by `duration` only).
    pub total: usize,
    /// Open-loop arrival rate; `None` selects closed-loop mode.
    pub rps: Option<f64>,
    /// Wall-clock cap on the run.
    pub duration: Option<Duration>,
    /// Closed-loop workers (ignored in open loop, where arrivals pace
    /// themselves).
    pub concurrency: usize,
    /// Oracle answer: completed responses that disagree count as
    /// `mismatches` (the correctness signal of a run).
    pub expect_answer: Option<String>,
    /// Retry schedule for transient failures (torn connections,
    /// breaker rejections, panics, watchdog 504s…). The default is
    /// [`RetryPolicy::none`]; chaos campaigns use
    /// [`RetryPolicy::default_serving`].
    pub retry: RetryPolicy,
    /// Size mix for heterogeneous fleet runs: `(n, oracle)` pairs
    /// cycled round-robin by request sequence number, each overriding
    /// `request.n` and `expect_answer` for its turn. Empty (the
    /// default) means every request uses the template unchanged —
    /// mixed sizes are what exercise a fleet's dispatcher, since
    /// uniform requests all score identically.
    pub mix: Vec<(usize, Option<String>)>,
    /// Drive `POST /solve?stream=1` instead of plain solves: band
    /// frames are consumed as they arrive and the report adds
    /// time-to-first-band percentiles and the band count.
    pub stream: bool,
    /// Ceiling on an honored server `Retry-After` pause. Servers under
    /// brownout suggest seconds-scale waits; a load generator that
    /// slept a full server-suggested minute would stop generating
    /// load. Long hints are clamped to this, short ones honored
    /// exactly (`--retry-after-cap-ms`).
    pub retry_after_cap: Duration,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            request: SolveRequest::new("lcs", 256),
            total: 100,
            rps: None,
            duration: None,
            concurrency: 4,
            expect_answer: None,
            retry: RetryPolicy::none(),
            mix: Vec::new(),
            stream: false,
            retry_after_cap: DEFAULT_RETRY_AFTER_CAP,
        }
    }
}

#[derive(Debug, Default)]
struct Tally {
    completed: usize,
    mismatches: usize,
    retries: usize,
    recovered: usize,
    retry_after_honored: usize,
    by_code: Vec<(String, usize)>,
    total_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    solve_ms: Vec<f64>,
    ttfb_ms: Vec<f64>,
    bands: usize,
    placements: Vec<(String, usize)>,
    multiplan_splits: usize,
}

impl Tally {
    fn bump_code(&mut self, code: &str) {
        if let Some(entry) = self.by_code.iter_mut().find(|(c, _)| c == code) {
            entry.1 += 1;
        } else {
            self.by_code.push((code.to_string(), 1));
        }
    }

    fn bump_placement(&mut self, platform: &str) {
        if let Some(entry) = self.placements.iter_mut().find(|(p, _)| p == platform) {
            entry.1 += 1;
        } else {
            self.placements.push((platform.to_string(), 1));
        }
    }
}

/// Outcome of one load run — what `lddp-cli loadgen` prints as JSON.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests actually launched.
    pub sent: usize,
    /// Requests answered successfully.
    pub completed: usize,
    /// Admission/deadline rejections (`queue_full`, `shutting_down`,
    /// `deadline_exceeded`, `invalid`).
    pub rejected: usize,
    /// Backend/transport failures.
    pub errors: usize,
    /// Completed responses whose answer disagreed with the oracle.
    pub mismatches: usize,
    /// Retry attempts made across the whole run.
    pub retries: usize,
    /// Requests that completed only after at least one retry, with the
    /// final answer passing the oracle check (when one is configured) —
    /// the "recovered from a transient fault" population.
    pub recovered: usize,
    /// Retry pauses that followed a server `Retry-After` hint instead
    /// of the jittered backoff schedule.
    pub retry_after_honored: usize,
    /// Per-code breakdown of every non-completed outcome.
    pub by_code: Vec<(String, usize)>,
    /// Run wall clock, seconds.
    pub wall_s: f64,
    /// Completions per second of wall clock.
    pub throughput_rps: f64,
    /// `rejected / sent`.
    pub rejection_rate: f64,
    /// End-to-end client-observed latency.
    pub latency: LatencySummary,
    /// Server-reported queue wait of completed requests.
    pub queue: LatencySummary,
    /// Server-reported solve time of completed requests.
    pub solve: LatencySummary,
    /// Client-observed time to first streamed band (request start to
    /// first band frame). Zero-count unless the run streamed and bands
    /// arrived.
    pub ttfb: LatencySummary,
    /// Band frames received across the run (streamed runs only).
    pub stream_bands: usize,
    /// The effective `Retry-After` honor cap this run applied,
    /// milliseconds.
    pub retry_after_cap_ms: u64,
    /// Per-series `/metrics` movement across the run (`after - before`
    /// scrape values, series that did not move dropped). Empty when the
    /// driver did not scrape — in-process runs or a server without the
    /// endpoint.
    pub server_metrics_delta: Vec<(String, f64)>,
    /// Completions per fleet platform, from the `placed_on` response
    /// field. Empty against a non-fleet server (no placement reported).
    pub fleet_placements: Vec<(String, usize)>,
    /// Completions priced as a cross-device `MultiPlan` split
    /// (`devices > 1` in the response).
    pub multiplan_splits: usize,
}

/// Scrapes `GET /metrics` at `addr` and parses the Prometheus text
/// exposition into `(series, value)` pairs.
pub fn scrape_metrics(addr: &str, timeout: Duration) -> Result<Vec<(String, f64)>, String> {
    let (status, body) = http::request(addr, "GET", "/metrics", None, timeout)?;
    if status != 200 {
        return Err(format!("GET /metrics returned HTTP {status}"));
    }
    Ok(lddp_trace::live::parse_prometheus(&body))
}

/// Per-series `after - before` of two scrapes, dropping series that did
/// not move. Series first seen in `after` count from zero.
pub fn metrics_delta(before: &[(String, f64)], after: &[(String, f64)]) -> Vec<(String, f64)> {
    after
        .iter()
        .filter_map(|(series, v)| {
            let base = before
                .iter()
                .find(|(b, _)| b == series)
                .map_or(0.0, |(_, bv)| *bv);
            let delta = v - base;
            (delta != 0.0).then(|| (series.clone(), delta))
        })
        .collect()
}

const REJECT_CODES: [&str; 8] = [
    "queue_full",
    "shutting_down",
    "deadline_exceeded",
    "deadline_infeasible",
    "invalid",
    "breaker_open",
    "tenant_quota",
    "brownout_shed",
];

/// Outcomes worth retrying: transient by construction (a retry may see
/// a healed pool, a closed breaker, a refilled quota bucket, a
/// disengaged brownout, or an intact connection). `invalid`,
/// `deadline_exceeded`, and `deadline_infeasible` are deliberately
/// absent — they would fail again for the same reason.
const RETRYABLE_CODES: [&str; 8] = [
    "transport",
    "queue_full",
    "breaker_open",
    "tenant_quota",
    "brownout_shed",
    "backend_panic",
    "backend_error",
    "watchdog_timeout",
];

/// Default [`LoadgenConfig::retry_after_cap`]: 2 seconds, overridable
/// per run with `--retry-after-cap-ms`.
pub const DEFAULT_RETRY_AFTER_CAP: Duration = Duration::from_secs(2);

fn summarize(mut samples: Vec<f64>) -> LatencySummary {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    LatencySummary {
        count: samples.len() as u64,
        p50_ms: percentile(&samples, 0.50),
        p95_ms: percentile(&samples, 0.95),
        p99_ms: percentile(&samples, 0.99),
        max_ms: samples.last().copied().unwrap_or(0.0),
    }
}

impl LoadReport {
    fn from_tally(tally: Tally, sent: usize, wall_s: f64) -> LoadReport {
        let rejected = tally
            .by_code
            .iter()
            .filter(|(c, _)| REJECT_CODES.contains(&c.as_str()))
            .map(|(_, n)| n)
            .sum();
        let errors = tally
            .by_code
            .iter()
            .filter(|(c, _)| !REJECT_CODES.contains(&c.as_str()))
            .map(|(_, n)| n)
            .sum();
        LoadReport {
            sent,
            completed: tally.completed,
            rejected,
            errors,
            mismatches: tally.mismatches,
            retries: tally.retries,
            recovered: tally.recovered,
            retry_after_honored: tally.retry_after_honored,
            by_code: tally.by_code,
            wall_s,
            throughput_rps: if wall_s > 0.0 {
                tally.completed as f64 / wall_s
            } else {
                0.0
            },
            rejection_rate: if sent > 0 {
                rejected as f64 / sent as f64
            } else {
                0.0
            },
            latency: summarize(tally.total_ms),
            queue: summarize(tally.queue_ms),
            solve: summarize(tally.solve_ms),
            ttfb: summarize(tally.ttfb_ms),
            stream_bands: tally.bands,
            retry_after_cap_ms: 0,
            server_metrics_delta: Vec::new(),
            fleet_placements: tally.placements,
            multiplan_splits: tally.multiplan_splits,
        }
    }

    /// The report as a JSON object.
    pub fn to_json(&self) -> String {
        let lat = |l: &LatencySummary| {
            format!(
                "{{\"count\":{},\"p50_ms\":{},\"p95_ms\":{},\"p99_ms\":{},\"max_ms\":{}}}",
                l.count,
                json::num(l.p50_ms),
                json::num(l.p95_ms),
                json::num(l.p99_ms),
                json::num(l.max_ms)
            )
        };
        let codes = self
            .by_code
            .iter()
            .map(|(c, n)| format!("\"{}\":{}", json::escape(c), n))
            .collect::<Vec<_>>()
            .join(",");
        let deltas = self
            .server_metrics_delta
            .iter()
            .map(|(series, d)| format!("\"{}\":{}", json::escape(series), json::num(*d)))
            .collect::<Vec<_>>()
            .join(",");
        let placements = self
            .fleet_placements
            .iter()
            .map(|(p, n)| format!("\"{}\":{}", json::escape(p), n))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"sent\":{},\"completed\":{},\"rejected\":{},\"errors\":{},\"mismatches\":{},\
             \"retries\":{},\"recovered\":{},\"retry_after_honored\":{},\
             \"outcomes\":{{{}}},\"wall_s\":{},\"throughput_rps\":{},\"rejection_rate\":{},\
             \"retry_after_cap_ms\":{},\
             \"latency_ms\":{{\"total\":{},\"queue\":{},\"solve\":{},\"ttfb\":{}}},\
             \"stream\":{{\"bands\":{}}},\
             \"fleet\":{{\"placements\":{{{}}},\"multiplan_splits\":{}}},\
             \"server_metrics_delta\":{{{}}}}}",
            self.sent,
            self.completed,
            self.rejected,
            self.errors,
            self.mismatches,
            self.retries,
            self.recovered,
            self.retry_after_honored,
            codes,
            json::num(self.wall_s),
            json::num(self.throughput_rps),
            json::num(self.rejection_rate),
            self.retry_after_cap_ms,
            lat(&self.latency),
            lat(&self.queue),
            lat(&self.solve),
            lat(&self.ttfb),
            self.stream_bands,
            placements,
            self.multiplan_splits,
            deltas,
        )
    }
}

fn fire(target: &dyn SolveTarget, cfg: &LoadgenConfig, tally: &Mutex<Tally>, seq: usize) {
    // Each request gets its own jitter stream so concurrent retries
    // decorrelate instead of thundering back in lockstep.
    let policy = RetryPolicy {
        seed: cfg
            .retry
            .seed
            .wrapping_add((seq as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        ..cfg.retry
    };
    // Size mix: the sequence number (not arrival order) picks the slot,
    // so the request stream is deterministic under any concurrency.
    let (request, expect) = if cfg.mix.is_empty() {
        (cfg.request.clone(), cfg.expect_answer.clone())
    } else {
        let (n, oracle) = &cfg.mix[seq % cfg.mix.len()];
        let mut r = cfg.request.clone();
        r.n = *n;
        (r, oracle.clone())
    };
    let started = Instant::now();
    let mut attempt = 0u32;
    let mut retries_used = 0usize;
    let mut hints_honored = 0usize;
    let mut first_band_ms: Option<f64> = None;
    let mut bands = 0usize;
    let outcome = loop {
        let r = if cfg.stream {
            target.solve_stream_once(&request, &mut |_frame| {
                if first_band_ms.is_none() {
                    first_band_ms = Some(started.elapsed().as_secs_f64() * 1e3);
                }
                bands += 1;
            })
        } else {
            target.solve_once(&request)
        };
        match &r {
            Err(e) if policy.may_retry(attempt) && RETRYABLE_CODES.contains(&e.code.as_str()) => {
                // A server-provided Retry-After beats blind jittered
                // backoff: the server knows when the quota refills or
                // the brownout re-evaluates, the client is guessing.
                match e.retry_after_s {
                    Some(s) => {
                        hints_honored += 1;
                        thread::sleep(Duration::from_secs(s).min(cfg.retry_after_cap));
                    }
                    None => thread::sleep(policy.delay(attempt)),
                }
                attempt += 1;
                retries_used += 1;
            }
            _ => break r,
        }
    };
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut t = tally.lock().unwrap();
    t.total_ms.push(elapsed_ms);
    t.retries += retries_used;
    t.retry_after_honored += hints_honored;
    t.bands += bands;
    match outcome {
        Ok(resp) => {
            t.completed += 1;
            if let Some(ms) = first_band_ms {
                t.ttfb_ms.push(ms);
            }
            t.queue_ms.push(resp.queue_ms);
            t.solve_ms.push(resp.solve_ms);
            if !resp.placed_on.is_empty() {
                t.bump_placement(&resp.placed_on);
            }
            if resp.devices > 1 {
                t.multiplan_splits += 1;
            }
            let mismatch = expect.as_ref().is_some_and(|want| *want != resp.answer);
            if mismatch {
                t.mismatches += 1;
            } else if retries_used > 0 {
                // Oracle re-verification of a retried answer: only a
                // (still-)correct late answer counts as recovered.
                t.recovered += 1;
            }
        }
        Err(e) => t.bump_code(&e.code),
    }
}

/// Runs one load experiment to completion and reports.
pub fn run(target: &dyn SolveTarget, cfg: &LoadgenConfig) -> LoadReport {
    let tally = Mutex::new(Tally::default());
    let start = Instant::now();
    let deadline = cfg.duration.map(|d| start + d);
    let sent = match cfg.rps {
        None => run_closed(target, cfg, &tally, deadline),
        Some(rps) => run_open(target, cfg, &tally, deadline, rps),
    };
    let wall_s = start.elapsed().as_secs_f64();
    let mut report = LoadReport::from_tally(tally.into_inner().unwrap(), sent, wall_s);
    report.retry_after_cap_ms = cfg.retry_after_cap.as_millis() as u64;
    report
}

fn run_closed(
    target: &dyn SolveTarget,
    cfg: &LoadgenConfig,
    tally: &Mutex<Tally>,
    deadline: Option<Instant>,
) -> usize {
    let next = AtomicUsize::new(0);
    thread::scope(|s| {
        for _ in 0..cfg.concurrency.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if cfg.total > 0 && i >= cfg.total {
                    // Give the slot back so the sent count stays exact.
                    next.fetch_sub(1, Ordering::SeqCst);
                    return;
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    next.fetch_sub(1, Ordering::SeqCst);
                    return;
                }
                fire(target, cfg, tally, i);
            });
        }
    });
    next.load(Ordering::SeqCst)
}

fn run_open(
    target: &dyn SolveTarget,
    cfg: &LoadgenConfig,
    tally: &Mutex<Tally>,
    deadline: Option<Instant>,
    rps: f64,
) -> usize {
    let interval = Duration::from_secs_f64(1.0 / rps.max(1e-3));
    let start = Instant::now();
    let mut sent = 0usize;
    thread::scope(|s| loop {
        if cfg.total > 0 && sent >= cfg.total {
            break;
        }
        let tick = start + interval.mul_f64(sent as f64);
        if deadline.is_some_and(|d| tick >= d) {
            break;
        }
        let now = Instant::now();
        if tick > now {
            thread::sleep(tick - now);
        }
        let seq = sent;
        s.spawn(move || fire(target, cfg, tally, seq));
        sent += 1;
    });
    sent
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Canned {
        answer: String,
        fail_every: usize,
        hits: AtomicUsize,
    }

    impl SolveTarget for Canned {
        fn solve_once(&self, req: &SolveRequest) -> Result<SolveResponse, TargetError> {
            let i = self.hits.fetch_add(1, Ordering::SeqCst) + 1;
            if self.fail_every > 0 && i.is_multiple_of(self.fail_every) {
                return Err(TargetError::new("queue_full", "full"));
            }
            Ok(SolveResponse {
                id: i as u64,
                problem: req.problem.clone(),
                n: req.n,
                answer: self.answer.clone(),
                virtual_ms: 1.0,
                params: lddp_core::schedule::ScheduleParams::new(0, 0),
                tier: lddp_core::kernel::ExecTier::Bulk,
                memory_mode: lddp_core::kernel::MemoryMode::Full,
                table_bytes: 0,
                queue_ms: 0.5,
                solve_ms: 2.0,
                batch_ms: 0.1,
                tune_ms: 0.2,
                trace_id: format!("{i:016x}"),
                batch_size: 1,
                cache_hit: false,
                degraded: vec![],
                placed_on: if req.n >= 64 {
                    "hetero-high"
                } else {
                    "cpu-only"
                }
                .to_string(),
                devices: if req.n >= 512 { 3 } else { 1 },
                ttfb_ms: 0.0,
            })
        }

        fn solve_stream_once(
            &self,
            req: &SolveRequest,
            on_band: &mut dyn FnMut(&BandFrame),
        ) -> Result<SolveResponse, TargetError> {
            for band in 0..3 {
                on_band(&BandFrame {
                    band,
                    bands: 3,
                    wave_lo: band * 10,
                    wave_hi: band * 10 + 9,
                    rows_completed: 0,
                    rows: req.n,
                    cells_done: (band as u64 + 1) * 100,
                    cells_total: 300,
                    score: 1.0,
                    best: None,
                    elapsed_ms: 0.1,
                });
            }
            self.solve_once(req)
        }
    }

    #[test]
    fn streamed_run_reports_ttfb_and_band_count() {
        let target = Canned {
            answer: "42".into(),
            fail_every: 0,
            hits: AtomicUsize::new(0),
        };
        let cfg = LoadgenConfig {
            total: 8,
            concurrency: 2,
            stream: true,
            expect_answer: Some("42".into()),
            retry_after_cap: Duration::from_millis(750),
            ..LoadgenConfig::default()
        };
        let report = run(&target, &cfg);
        assert_eq!(report.completed, 8);
        assert_eq!(report.stream_bands, 8 * 3);
        assert_eq!(report.ttfb.count, 8);
        assert_eq!(report.retry_after_cap_ms, 750);
        let json = report.to_json();
        assert!(json.contains("\"ttfb\":{"), "{json}");
        assert!(json.contains("\"stream\":{\"bands\":24}"), "{json}");
        assert!(json.contains("\"retry_after_cap_ms\":750"), "{json}");
        // A non-streamed run leaves the streaming fields empty.
        let plain = run(
            &target,
            &LoadgenConfig {
                total: 4,
                concurrency: 2,
                expect_answer: Some("42".into()),
                ..LoadgenConfig::default()
            },
        );
        assert_eq!(plain.stream_bands, 0);
        assert_eq!(plain.ttfb.count, 0);
        assert_eq!(plain.retry_after_cap_ms, 2000);
    }

    #[test]
    fn closed_loop_sends_exactly_total() {
        let target = Canned {
            answer: "42".into(),
            fail_every: 0,
            hits: AtomicUsize::new(0),
        };
        let cfg = LoadgenConfig {
            total: 25,
            concurrency: 4,
            expect_answer: Some("42".into()),
            ..LoadgenConfig::default()
        };
        let report = run(&target, &cfg);
        assert_eq!(report.sent, 25);
        assert_eq!(report.completed, 25);
        assert_eq!(report.mismatches, 0);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.latency.count, 25);
        assert!(report.throughput_rps > 0.0);
    }

    #[test]
    fn rejections_and_mismatches_are_counted() {
        let target = Canned {
            answer: "wrong".into(),
            fail_every: 5,
            hits: AtomicUsize::new(0),
        };
        let cfg = LoadgenConfig {
            total: 20,
            concurrency: 2,
            expect_answer: Some("right".into()),
            ..LoadgenConfig::default()
        };
        let report = run(&target, &cfg);
        assert_eq!(report.sent, 20);
        assert_eq!(report.completed, 16);
        assert_eq!(report.rejected, 4);
        assert_eq!(report.mismatches, 16);
        assert!((report.rejection_rate - 0.2).abs() < 1e-12);
        assert_eq!(report.by_code, vec![("queue_full".to_string(), 4)]);
    }

    #[test]
    fn open_loop_paces_and_caps_by_total() {
        let target = Canned {
            answer: "x".into(),
            fail_every: 0,
            hits: AtomicUsize::new(0),
        };
        let cfg = LoadgenConfig {
            total: 10,
            rps: Some(500.0),
            concurrency: 1,
            ..LoadgenConfig::default()
        };
        let report = run(&target, &cfg);
        assert_eq!(report.sent, 10);
        assert_eq!(report.completed, 10);
        // 10 requests at 500 rps should take about 20 ms of pacing.
        assert!(report.wall_s >= 0.015, "wall_s = {}", report.wall_s);
    }

    /// Fails every first attempt with a retryable code; succeeds on the
    /// retry. Odd hit numbers are the failures under 2 attempts/request.
    struct FlakyOnce {
        answer: String,
        hits: AtomicUsize,
        failures: AtomicUsize,
    }

    impl SolveTarget for FlakyOnce {
        fn solve_once(&self, req: &SolveRequest) -> Result<SolveResponse, TargetError> {
            let i = self.hits.fetch_add(1, Ordering::SeqCst);
            if i.is_multiple_of(2) {
                self.failures.fetch_add(1, Ordering::SeqCst);
                return Err(TargetError::new("backend_panic", "injected"));
            }
            Ok(SolveResponse {
                id: i as u64,
                problem: req.problem.clone(),
                n: req.n,
                answer: self.answer.clone(),
                virtual_ms: 1.0,
                params: lddp_core::schedule::ScheduleParams::new(0, 0),
                tier: lddp_core::kernel::ExecTier::Bulk,
                memory_mode: lddp_core::kernel::MemoryMode::Full,
                table_bytes: 0,
                queue_ms: 0.1,
                solve_ms: 0.2,
                batch_ms: 0.0,
                tune_ms: 0.0,
                trace_id: format!("{i:016x}"),
                batch_size: 1,
                cache_hit: false,
                degraded: vec![],
                placed_on: String::new(),
                devices: 1,
                ttfb_ms: 0.0,
            })
        }
    }

    #[test]
    fn retries_recover_transient_failures_with_oracle_check() {
        let target = FlakyOnce {
            answer: "42".into(),
            hits: AtomicUsize::new(0),
            failures: AtomicUsize::new(0),
        };
        let cfg = LoadgenConfig {
            total: 10,
            concurrency: 1, // sequential so the fail/succeed cadence holds
            expect_answer: Some("42".into()),
            retry: RetryPolicy {
                max_attempts: 2,
                base_ms: 1,
                cap_ms: 2,
                seed: 9,
            },
            ..LoadgenConfig::default()
        };
        let report = run(&target, &cfg);
        assert_eq!(report.sent, 10);
        assert_eq!(report.completed, 10, "every request recovers on retry");
        assert_eq!(report.errors, 0);
        assert_eq!(report.retries, 10);
        assert_eq!(report.recovered, 10);
        assert_eq!(report.mismatches, 0);
        assert_eq!(target.failures.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn non_retryable_codes_fail_without_retry() {
        let target = Canned {
            answer: "x".into(),
            fail_every: 1, // every attempt rejects
            hits: AtomicUsize::new(0),
        };
        let mut cfg = LoadgenConfig {
            total: 5,
            concurrency: 1,
            retry: RetryPolicy {
                max_attempts: 3,
                base_ms: 1,
                cap_ms: 2,
                seed: 4,
            },
            ..LoadgenConfig::default()
        };
        // queue_full IS retryable: 5 requests * 3 attempts.
        let report = run(&target, &cfg);
        assert_eq!(report.rejected, 5);
        assert_eq!(report.retries, 10);
        assert_eq!(target.hits.load(Ordering::SeqCst), 15);

        // deadline_exceeded is not retried.
        struct AlwaysLate;
        impl SolveTarget for AlwaysLate {
            fn solve_once(&self, _req: &SolveRequest) -> Result<SolveResponse, TargetError> {
                Err(TargetError::new("deadline_exceeded", "too slow"))
            }
        }
        cfg.total = 4;
        let report = run(&AlwaysLate, &cfg);
        assert_eq!(report.rejected, 4);
        assert_eq!(report.retries, 0);

        // deadline_infeasible is a final verdict too: the cost model
        // will produce the same estimate on every attempt.
        struct NeverFeasible;
        impl SolveTarget for NeverFeasible {
            fn solve_once(&self, _req: &SolveRequest) -> Result<SolveResponse, TargetError> {
                Err(TargetError::new(
                    "deadline_infeasible",
                    "estimate 5s > 10ms",
                ))
            }
        }
        let report = run(&NeverFeasible, &cfg);
        assert_eq!(report.rejected, 4);
        assert_eq!(report.retries, 0);
    }

    #[test]
    fn retry_after_hints_preempt_jittered_backoff() {
        // Rejects twice with a Retry-After hint, then succeeds — the
        // pause schedule must come from the hint, not the policy.
        struct HintedFlaky {
            hits: AtomicUsize,
        }
        impl SolveTarget for HintedFlaky {
            fn solve_once(&self, req: &SolveRequest) -> Result<SolveResponse, TargetError> {
                let i = self.hits.fetch_add(1, Ordering::SeqCst);
                if i < 2 {
                    return Err(TargetError {
                        code: "tenant_quota".into(),
                        message: "over quota".into(),
                        retry_after_s: Some(0), // "now" — keeps the test fast
                    });
                }
                Canned {
                    answer: "42".into(),
                    fail_every: 0,
                    hits: AtomicUsize::new(i),
                }
                .solve_once(req)
            }
        }
        let target = HintedFlaky {
            hits: AtomicUsize::new(0),
        };
        let cfg = LoadgenConfig {
            total: 1,
            concurrency: 1,
            retry: RetryPolicy {
                max_attempts: 3,
                // A hint-ignoring implementation would sleep ~4s here
                // and trip the assertion below.
                base_ms: 2_000,
                cap_ms: 2_000,
                seed: 7,
            },
            ..LoadgenConfig::default()
        };
        let started = Instant::now();
        let report = run(&target, &cfg);
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "Retry-After 0 should preempt the 2s backoff schedule"
        );
        assert_eq!(report.completed, 1);
        assert_eq!(report.retries, 2);
        assert_eq!(report.retry_after_honored, 2);
        let v = json::parse(&report.to_json()).unwrap();
        assert_eq!(
            v.get("retry_after_honored").and_then(|j| j.as_f64()),
            Some(2.0)
        );
    }

    #[test]
    fn metrics_delta_subtracts_and_drops_unmoved_series() {
        let before = vec![
            ("lddp_serve_accepted_total".to_string(), 10.0),
            ("lddp_serve_queue_depth".to_string(), 3.0),
            ("lddp_serve_solves_total{tier=\"bulk\"}".to_string(), 4.0),
        ];
        let after = vec![
            ("lddp_serve_accepted_total".to_string(), 25.0),
            ("lddp_serve_queue_depth".to_string(), 3.0),
            ("lddp_serve_solves_total{tier=\"bulk\"}".to_string(), 9.0),
            ("lddp_serve_errors_total".to_string(), 2.0),
        ];
        let delta = metrics_delta(&before, &after);
        assert_eq!(
            delta,
            vec![
                ("lddp_serve_accepted_total".to_string(), 15.0),
                ("lddp_serve_solves_total{tier=\"bulk\"}".to_string(), 5.0),
                ("lddp_serve_errors_total".to_string(), 2.0),
            ]
        );
        // The delta serializes into the report JSON (labels escaped).
        let mut report = LoadReport::from_tally(Tally::default(), 0, 1.0);
        report.server_metrics_delta = delta;
        let v = json::parse(&report.to_json()).unwrap();
        assert_eq!(
            v.get("server_metrics_delta")
                .and_then(|j| j.get("lddp_serve_accepted_total"))
                .and_then(|j| j.as_f64()),
            Some(15.0)
        );
    }

    #[test]
    fn size_mix_cycles_and_fleet_placements_are_tallied() {
        let target = Canned {
            answer: "42".into(),
            fail_every: 0,
            hits: AtomicUsize::new(0),
        };
        let cfg = LoadgenConfig {
            total: 12,
            concurrency: 3,
            mix: vec![
                (48, Some("42".into())),
                (96, Some("42".into())),
                (1100, Some("42".into())),
            ],
            ..LoadgenConfig::default()
        };
        let report = run(&target, &cfg);
        assert_eq!(report.completed, 12);
        assert_eq!(report.mismatches, 0);
        // 12 requests over a 3-slot mix: 4× n=48 (placed on cpu-only by
        // the canned target), 8× n∈{96, 1100} (hetero-high), and the 4
        // n=1100 responses claim a 3-device split.
        let find = |p: &str| {
            report
                .fleet_placements
                .iter()
                .find(|(q, _)| q == p)
                .map_or(0, |(_, n)| *n)
        };
        assert_eq!(find("cpu-only"), 4);
        assert_eq!(find("hetero-high"), 8);
        assert_eq!(report.multiplan_splits, 4);
        let v = json::parse(&report.to_json()).unwrap();
        let fleet = v.get("fleet").expect("report has a fleet section");
        assert_eq!(
            fleet.get("multiplan_splits").and_then(|j| j.as_f64()),
            Some(4.0)
        );
        assert_eq!(
            fleet
                .get("placements")
                .and_then(|p| p.get("cpu-only"))
                .and_then(|j| j.as_f64()),
            Some(4.0)
        );
    }

    #[test]
    fn report_json_parses() {
        let target = Canned {
            answer: "x".into(),
            fail_every: 3,
            hits: AtomicUsize::new(0),
        };
        let cfg = LoadgenConfig {
            total: 9,
            concurrency: 3,
            ..LoadgenConfig::default()
        };
        let report = run(&target, &cfg);
        let v = json::parse(&report.to_json()).unwrap();
        assert_eq!(v.get("sent").and_then(|j| j.as_f64()), Some(9.0));
        assert_eq!(v.get("retries").and_then(|j| j.as_f64()), Some(0.0));
        assert_eq!(v.get("recovered").and_then(|j| j.as_f64()), Some(0.0));
        assert!(v.get("latency_ms").and_then(|j| j.get("total")).is_some());
        assert_eq!(
            v.get("outcomes")
                .and_then(|j| j.get("queue_full"))
                .and_then(|j| j.as_f64()),
            Some(3.0)
        );
    }
}
