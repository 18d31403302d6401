//! The serving engine: admission → bounded queue → batching worker
//! pool → backend solve, with per-request tracing and graceful drain.
//!
//! A [`Server`] is wired to a [`SolveBackend`] (the thing that actually
//! tunes and solves — `lddp::serve_backend::FrameworkBackend` in the
//! umbrella crate, a mock in tests) and records every event once into
//! its [`LiveRegistry`]: counts and latency sketches through
//! [`ServeStats`] (`GET /metrics`), spans and the queue-depth series
//! into the registry's flight ring (`GET /debug/trace`).
//! [`Server::run`] owns the thread topology: it spawns the worker pool
//! (and, given a listener, the HTTP front end) inside one
//! `std::thread::scope`, hands the caller an in-process [`Client`], and
//! on return of the caller's closure initiates shutdown and drains —
//! every admitted request is answered before `run` returns.
//!
//! ```
//! use lddp_serve::{BackendSolve, ServeConfig, Server, SolveBackend, SolveRequest};
//! use lddp_core::kernel::ExecTier;
//! use lddp_core::schedule::ScheduleParams;
//! use lddp_core::tuner_cache::TunedConfig;
//! use lddp_trace::{NullSink, TraceSink};
//!
//! struct Echo;
//! impl SolveBackend for Echo {
//!     fn tune(&self, _req: &SolveRequest, _sink: &dyn TraceSink)
//!         -> Result<(TunedConfig, bool), String> {
//!         Ok((TunedConfig::new(ScheduleParams::new(0, 0), ExecTier::Scalar), false))
//!     }
//!     fn solve(&self, req: &SolveRequest, config: TunedConfig, _sink: &dyn TraceSink)
//!         -> Result<BackendSolve, String> {
//!         Ok(BackendSolve {
//!             answer: format!("echo {}", req.n),
//!             virtual_ms: 0.1,
//!             params: config.params,
//!             tier: config.tier,
//!             memory_mode: config.memory_mode,
//!             table_bytes: 0,
//!             degraded: vec![],
//!             placed_on: None,
//!             devices: 1,
//!         })
//!     }
//! }
//!
//! let backend = Echo;
//! let server = Server::new(ServeConfig::default(), &backend, &NullSink);
//! let answer = server
//!     .run(None, |client| client.solve(SolveRequest::new("x", 7)).unwrap().answer);
//! assert_eq!(answer, "echo 7");
//! ```

use crate::brownout::{Brownout, BrownoutConfig};
use crate::door::{Admit, Conn, Door};
use crate::http::{self, ReadError, ResponseOptions};
use crate::job::{Priority, RejectReason, ServeError, SolveRequest, SolveResponse};
use crate::queue::{Job, JobQueue};
use crate::stats::{ServeStats, StatsSnapshot};
use crate::stream::BandFrame;
use lddp_chaos::{mix64, BreakerConfig, BreakerState, CircuitBreaker, FaultInjector};
use lddp_core::kernel::{avx512_available, simd_backend, ExecTier, MemoryMode};
use lddp_core::schedule::ScheduleParams;
use lddp_core::tuner_cache::TunedConfig;
use lddp_trace::live::LiveRegistry;
use lddp_trace::{catalog, chrome, tracks, Span, TraceSink};
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How long a connection may sit idle before a request (the first, or
/// the next one on a kept-alive connection) until the server closes it.
const IDLE_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a request may take to arrive whole, head and body, from its
/// first byte. It bounds a slow sender, whose every byte would reset a
/// per-read timeout.
const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

/// Per-call write timeout on a connection.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// How long the acceptor sleeps after a failed `accept` (out of file
/// descriptors, say) before it tries again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// Sizing knobs of one server.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing batches.
    pub workers: usize,
    /// Admission-queue capacity (requests beyond it are rejected).
    /// With `workers`, it also bounds the HTTP front end: at most
    /// `queue_capacity + workers` connections are served at once.
    pub queue_capacity: usize,
    /// Most jobs one batch may carry.
    pub max_batch: usize,
    /// Deadline applied to requests that don't carry their own,
    /// milliseconds (`None` = wait forever).
    pub default_deadline_ms: Option<u64>,
    /// Per-solve watchdog budget, milliseconds: a solve that takes
    /// longer gets its answer withheld and a 504, and charges the
    /// circuit breaker (`None` = no watchdog).
    pub watchdog_ms: Option<u64>,
    /// Consecutive backend failures (errors, panics, watchdog
    /// overruns) that trip the circuit breaker open.
    pub breaker_failure_threshold: usize,
    /// How long a tripped breaker stays open before probing again,
    /// milliseconds.
    pub breaker_open_ms: u64,
    /// Admission budget of the batch service class (`None` = half of
    /// `queue_capacity`, at least 1). The interactive class always gets
    /// the full `queue_capacity`.
    pub batch_queue_capacity: Option<usize>,
    /// Per-tenant admission quota, requests per second (`None` = no
    /// quotas). Enforced as a token bucket per distinct `tenant`
    /// value; over-quota requests get `429 tenant_quota`.
    pub tenant_quota_rps: Option<f64>,
    /// Token-bucket burst: how many back-to-back requests a tenant may
    /// land before the per-second rate applies.
    pub tenant_quota_burst: f64,
    /// Brownout-ladder watermarks and dwell counts.
    pub brownout: BrownoutConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            queue_capacity: 256,
            max_batch: 8,
            default_deadline_ms: None,
            watchdog_ms: None,
            breaker_failure_threshold: 5,
            breaker_open_ms: 2000,
            batch_queue_capacity: None,
            tenant_quota_rps: None,
            tenant_quota_burst: 8.0,
            brownout: BrownoutConfig::default(),
        }
    }
}

/// What a backend returns for one solved request.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendSolve {
    /// Headline answer text (the oracle-checkable payload).
    pub answer: String,
    /// Modelled solve time on the platform, milliseconds.
    pub virtual_ms: f64,
    /// The parameters actually executed (post-clamping).
    pub params: ScheduleParams,
    /// The execution tier the solve actually ran on (may be lower than
    /// the tuned tier if the host or kernel cannot support it).
    pub tier: ExecTier,
    /// Memory mode the solve ran in: `Full` materialized the table,
    /// `Rolling` kept only the live wave-band ring.
    pub memory_mode: MemoryMode,
    /// Peak DP working-set bytes of the solve (full table or band
    /// ring), echoed into the response's timings breakdown.
    pub table_bytes: usize,
    /// Degradation steps taken to produce this answer (stable codes
    /// such as `bulk_to_scalar`); empty for a full-configuration solve.
    pub degraded: Vec<String>,
    /// Fleet platform this solve actually ran on, when the backend is
    /// a fleet (`None` for single-platform backends; the server falls
    /// back to the batch plan's placement).
    pub placed_on: Option<String>,
    /// Simulated devices the request was priced on (1 = ordinary
    /// solve, >1 = priced as a cross-device `MultiPlan` band split).
    pub devices: usize,
}

/// The batch-level decision a backend makes before per-request solves:
/// the tuned configuration plus, for fleet backends, where the batch
/// was placed and what completion the dispatcher predicted.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPlan {
    /// Tuned schedule parameters and execution tier for the batch.
    pub config: TunedConfig,
    /// Whether `config` came from the tuner cache.
    pub cache_hit: bool,
    /// Fleet platform the dispatcher chose (`None` without a fleet).
    pub placement: Option<String>,
    /// The dispatcher's predicted completion time for one batch
    /// member, model seconds (`None` without a fleet).
    pub predicted_s: Option<f64>,
}

/// Depth of the bounded band-frame channel between a streamed solve
/// and its consumer. Small on purpose: once a slow reader is this many
/// bands behind, the solving pool stalls at its next wave barrier
/// instead of buffering further — bounded memory, real backpressure.
const STREAM_CHANNEL_DEPTH: usize = 4;

/// A submitted streaming solve: band frames arrive on `bands` while
/// the solve runs, then `done` yields the final outcome. Dropping the
/// handle mid-stream disables further emission (the solve still runs
/// to completion server-side).
#[derive(Debug)]
pub struct StreamHandle {
    /// The request's wire trace id (`{:016x}`), known at admission so
    /// streaming front ends can send it before the solve finishes.
    pub trace_id: String,
    /// Band frames, in band order, closed when the solve finishes.
    pub bands: mpsc::Receiver<BandFrame>,
    /// The final outcome; ready once `bands` has closed.
    pub done: mpsc::Receiver<Result<SolveResponse, ServeError>>,
}

/// Readiness of one backend worker pool, surfaced through `/healthz`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolHealth {
    /// Pool name ("hetero-high", …).
    pub platform: String,
    /// `true` when every worker of the pool is alive.
    pub ready: bool,
    /// Dead workers awaiting a heal.
    pub dead_workers: usize,
}

/// The pluggable solving side of the server.
///
/// `tune` runs **once per batch** with the batch leader as the probe —
/// implementations are expected to consult a
/// [`TunerCache`](lddp_core::tuner_cache::TunerCache) keyed by
/// `(pattern, dims bucket, platform)` and report whether they hit.
/// `solve` then runs once per request with the shared parameters.
pub trait SolveBackend: Sync {
    /// Admission-time validation; an `Err` rejects the request as
    /// [`RejectReason::Invalid`] without queueing it.
    fn validate(&self, _req: &SolveRequest) -> Result<(), String> {
        Ok(())
    }

    /// Produces the tuned schedule parameters and execution tier for
    /// the batch led by `probe`, returning `(config, cache_hit)`.
    fn tune(
        &self,
        probe: &SolveRequest,
        sink: &dyn TraceSink,
    ) -> Result<(TunedConfig, bool), String>;

    /// Solves one request with the batch's tuned configuration.
    fn solve(
        &self,
        req: &SolveRequest,
        config: TunedConfig,
        sink: &dyn TraceSink,
    ) -> Result<BackendSolve, String>;

    /// Produces the full batch plan: tuned configuration plus, for
    /// fleet backends, the dispatcher's placement and predicted
    /// completion. The default wraps [`SolveBackend::tune`] with no
    /// placement, so single-platform backends need not implement it.
    fn plan(&self, probe: &SolveRequest, sink: &dyn TraceSink) -> Result<BatchPlan, String> {
        let (config, cache_hit) = self.tune(probe, sink)?;
        Ok(BatchPlan {
            config,
            cache_hit,
            placement: None,
            predicted_s: None,
        })
    }

    /// Solves one request under a batch plan. The default ignores the
    /// placement half and delegates to [`SolveBackend::solve`]; fleet
    /// backends override it to execute on the placed pool (and to
    /// route large grids through cross-device `MultiPlan` splits).
    fn solve_placed(
        &self,
        req: &SolveRequest,
        plan: &BatchPlan,
        sink: &dyn TraceSink,
    ) -> Result<BackendSolve, String> {
        self.solve(req, plan.config, sink)
    }

    /// Solves one request under a batch plan while streaming completed
    /// wave-bands through `emit` (`POST /solve?stream=1`). `emit` is
    /// called once per sealed band, in band order, from inside the
    /// solve; it may block — that is the backpressure path — and
    /// returns `false` to tell the backend to stop emitting while the
    /// solve runs to completion. The final answer must be bit-identical
    /// to [`SolveBackend::solve_placed`] on the same request. The
    /// default delegates to `solve_placed` and emits nothing, so
    /// backends without a streaming path still answer (the client just
    /// sees zero band frames before the done frame).
    fn solve_streamed(
        &self,
        req: &SolveRequest,
        plan: &BatchPlan,
        sink: &dyn TraceSink,
        emit: &(dyn Fn(crate::stream::BandFrame) -> bool + Sync),
    ) -> Result<BackendSolve, String> {
        let _ = emit;
        self.solve_placed(req, plan, sink)
    }

    /// Cheap modelled solve-time estimate for `req`, milliseconds (the
    /// paper's §IV cost model). Admission uses it to reject requests
    /// whose deadline cannot possibly be met (`504
    /// deadline_infeasible`) without spending a solve slot. `None` (the
    /// default) disables feasibility checking.
    fn estimate_ms(&self, _req: &SolveRequest) -> Option<f64> {
        None
    }

    /// Whether `req`'s problem supports the rolling (wave-band) memory
    /// mode, for callers that route on it; the server does not consult
    /// it. `false` (the default) opts out.
    fn supports_rolling(&self, _req: &SolveRequest) -> bool {
        false
    }

    /// Per-pool readiness for `/healthz`. Empty (the default) means
    /// the backend has no distinguishable pools to report.
    fn pool_health(&self) -> Vec<PoolHealth> {
        Vec::new()
    }

    /// A JSON object describing fleet state, spliced into `/stats`
    /// under the `"fleet"` key. `None` (the default) omits the key.
    fn fleet_stats_json(&self) -> Option<String> {
        None
    }
}

/// The batching solve server. See the module docs for the lifecycle.
pub struct Server<'a> {
    config: ServeConfig,
    backend: &'a dyn SolveBackend,
    sink: &'a (dyn TraceSink + Sync),
    queue: JobQueue,
    stats: ServeStats,
    live: Arc<LiveRegistry>,
    trace_seed: u64,
    breaker: CircuitBreaker,
    injector: Option<&'a (dyn FaultInjector + 'a)>,
    epoch: Instant,
    next_id: AtomicU64,
    in_flight: AtomicUsize,
    /// Currently open streaming responses (`lddp_serve_stream_open`).
    stream_open: AtomicUsize,
    /// The brownout ladder's state machine, fed queue-fill
    /// observations at admission and dequeue.
    brownout: Mutex<Brownout>,
    /// The ladder's current level, published for lock-free reads on
    /// the admission and worker hot paths.
    brownout_level: AtomicU8,
    /// Per-tenant admission token buckets (lazily created).
    tenants: Mutex<HashMap<String, TenantBucket>>,
    /// The HTTP front end's bounded set of connection threads.
    door: Door,
    /// Where a connection wakes the acceptor out of its blocking
    /// `accept` at shutdown; set while [`Server::run`] has a listener.
    wake: Mutex<Option<SocketAddr>>,
    shutdown: Mutex<bool>,
    shutdown_cv: Condvar,
}

/// One tenant's admission token bucket.
#[derive(Debug)]
struct TenantBucket {
    tokens: f64,
    last: Instant,
}

impl<'a> Server<'a> {
    /// A server wired to `backend`. `sink` is handed on to every
    /// backend call and the server records nothing into it (pass
    /// [`NullSink`](lddp_trace::NullSink)); the server's own events go
    /// to its registry.
    pub fn new(
        config: ServeConfig,
        backend: &'a (dyn SolveBackend + 'a),
        sink: &'a (dyn TraceSink + Sync + 'a),
    ) -> Server<'a> {
        let batch_budget = config
            .batch_queue_capacity
            .unwrap_or((config.queue_capacity / 2).max(1));
        let queue = JobQueue::with_budgets(config.queue_capacity, batch_budget);
        let breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: config.breaker_failure_threshold as u32,
            open_for: Duration::from_millis(config.breaker_open_ms),
            half_open_probes: 1,
        });
        let live = Arc::new(LiveRegistry::new());
        let brownout = Brownout::new(config.brownout);
        let door = Door::new(config.queue_capacity.saturating_add(config.workers.max(1)));
        Server {
            config,
            backend,
            sink,
            queue,
            stats: ServeStats::with_registry(&live),
            live,
            trace_seed: 0x1dd9_7e1e_3e72_90aa,
            breaker,
            injector: None,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            in_flight: AtomicUsize::new(0),
            stream_open: AtomicUsize::new(0),
            brownout: Mutex::new(brownout),
            brownout_level: AtomicU8::new(0),
            tenants: Mutex::new(HashMap::new()),
            door,
            wake: Mutex::new(None),
            shutdown: Mutex::new(false),
            shutdown_cv: Condvar::new(),
        }
    }

    /// Replaces the server's private [`LiveRegistry`] with a shared one
    /// so other components (engine pool, tuner, chaos plan) publish
    /// into the same `/metrics` exposition. Call before [`Server::run`]:
    /// the serve metric families re-register on the new registry and
    /// counts recorded so far stay behind on the old one.
    pub fn attach_live(&mut self, live: Arc<LiveRegistry>) {
        self.stats = ServeStats::with_registry(&live);
        self.live = live;
    }

    /// The live registry this server publishes into (shared after
    /// [`Server::attach_live`]).
    pub fn live(&self) -> &Arc<LiveRegistry> {
        &self.live
    }

    /// Seeds per-request trace-id generation (ids are
    /// `mix64(seed + request_id)`), making wire-visible trace ids
    /// reproducible in tests and chaos campaigns.
    pub fn set_trace_seed(&mut self, seed: u64) {
        self.trace_seed = seed;
    }

    /// [`Server::new`] plus a fault injector for chaos campaigns: the
    /// server draws torn/slow connections at accept time and queue
    /// stalls at dequeue time from it. Production servers never attach
    /// one — the hooks cost nothing when absent.
    pub fn with_injector(
        config: ServeConfig,
        backend: &'a (dyn SolveBackend + 'a),
        sink: &'a (dyn TraceSink + Sync + 'a),
        injector: &'a (dyn FaultInjector + 'a),
    ) -> Server<'a> {
        let mut server = Server::new(config, backend, sink);
        server.injector = Some(injector);
        server
    }

    /// Runs the worker pool (and, with a listener, the HTTP front end),
    /// executes `body` with an in-process [`Client`], then shuts down
    /// gracefully: admission closes, queued jobs drain, every thread
    /// joins. `body`'s return value is passed through.
    pub fn run<R>(
        &self,
        listener: Option<TcpListener>,
        body: impl FnOnce(&Client<'_, 'a>) -> R,
    ) -> R {
        thread::scope(|s| {
            for idx in 0..self.config.workers.max(1) {
                s.spawn(move || self.worker_loop(idx));
            }
            if let Some(listener) = &listener {
                let mut addr = listener
                    .local_addr()
                    .expect("a bound listener has a local address");
                if addr.ip().is_unspecified() {
                    addr.set_ip(match addr.ip() {
                        IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                        IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                    });
                }
                *self.wake.lock().unwrap() = Some(addr);
                s.spawn(move || self.accept_loop(s, listener));
            }
            let client = Client { server: self };
            // A panicking body (a failed assertion in a test closure)
            // must still shut the server down, or the scope would join
            // workers that never see the signal and deadlock.
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&client)));
            self.initiate_shutdown();
            match out {
                Ok(out) => out,
                Err(payload) => std::panic::resume_unwind(payload),
            }
        })
    }

    /// Stops admission and wakes everything; idempotent. Connections
    /// waiting for a next request close; requests already read are
    /// still answered.
    pub fn initiate_shutdown(&self) {
        self.queue.close();
        *self.shutdown.lock().unwrap() = true;
        self.shutdown_cv.notify_all();
        self.door.drain();
        // The acceptor blocks in `accept`: one connection of our own
        // wakes it to see the flag.
        if let Some(addr) = self.wake.lock().unwrap().take() {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }
    }

    fn is_shutdown(&self) -> bool {
        *self.shutdown.lock().unwrap()
    }

    /// Seconds since the server epoch (span timestamps).
    fn since_epoch(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64()
    }

    /// Point-in-time stats.
    pub fn snapshot(&self) -> StatsSnapshot {
        self.stats.snapshot(
            self.queue.depth(),
            self.in_flight.load(Ordering::Relaxed),
            !self.queue.is_open(),
            self.brownout_level.load(Ordering::Relaxed),
        )
    }

    /// Current brownout-ladder level (0 = normal service).
    pub fn brownout_level(&self) -> u8 {
        self.brownout_level.load(Ordering::Relaxed)
    }

    /// Feeds the ladder one queue-fill observation, publishing the new
    /// level and recording any transition in the stats and the flight
    /// ring.
    fn observe_pressure(&self) {
        let fill = self.queue.fill();
        let transition = {
            let mut ladder = self.brownout.lock().unwrap();
            let t = ladder.observe(fill);
            if t.is_some() {
                self.brownout_level.store(ladder.level(), Ordering::Relaxed);
            }
            t
        };
        if let Some(t) = transition {
            if t.to > t.from {
                self.stats.brownout_engaged.inc();
            } else {
                self.stats.brownout_disengaged.inc();
            }
            self.live.span(
                Span::new(
                    catalog::SPAN_BROWNOUT,
                    tracks::SERVE_QUEUE,
                    self.since_epoch(Instant::now()),
                    0.0,
                )
                .with_arg("from", t.from as u64)
                .with_arg("to", t.to as u64),
            );
        }
    }

    /// Bumps the per-tenant outcome counter (skipped for unattributed
    /// requests so the family stays low-cardinality by default).
    fn tenant_outcome(&self, tenant: &str, outcome: &str) {
        if tenant.is_empty() {
            return;
        }
        self.live
            .counter(
                "lddp_serve_tenant_total",
                &[("tenant", tenant), ("outcome", outcome)],
                "Per-tenant request outcomes at admission.",
            )
            .inc();
    }

    /// Checks (and charges) the submitting tenant's token bucket.
    /// `Ok` when quotas are off, the request is unattributed (no
    /// `tenant` field — quotas meter named tenants only), or a token
    /// was available.
    fn check_tenant_quota(&self, tenant: &str) -> Result<(), u64> {
        let Some(rps) = self.config.tenant_quota_rps else {
            return Ok(());
        };
        if rps <= 0.0 || tenant.is_empty() {
            return Ok(());
        }
        let burst = self.config.tenant_quota_burst.max(1.0);
        let now = Instant::now();
        let mut tenants = self.tenants.lock().unwrap();
        let bucket = tenants
            .entry(tenant.to_string())
            .or_insert_with(|| TenantBucket {
                tokens: burst,
                last: now,
            });
        let dt = now.duration_since(bucket.last).as_secs_f64();
        bucket.tokens = (bucket.tokens + dt * rps).min(burst);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            Err(((1.0 - bucket.tokens) / rps).ceil().max(1.0) as u64)
        }
    }

    // ---- admission -------------------------------------------------

    fn submit(
        &self,
        req: SolveRequest,
    ) -> Result<mpsc::Receiver<Result<SolveResponse, ServeError>>, RejectReason> {
        self.submit_inner(req, None).map(|(_, rx)| rx)
    }

    /// Streaming admission: same validation, breaker, quota, QoS, and
    /// brownout gates as [`Server::submit`] — a stream is admitted (or
    /// shed) exactly like any other request — plus a bounded band
    /// channel wired into the job.
    fn submit_stream(&self, req: SolveRequest) -> Result<StreamHandle, RejectReason> {
        let (band_tx, band_rx) = mpsc::sync_channel(STREAM_CHANNEL_DEPTH);
        let (trace_id, done) = self.submit_inner(req, Some(band_tx))?;
        Ok(StreamHandle {
            trace_id,
            bands: band_rx,
            done,
        })
    }

    #[allow(clippy::type_complexity)]
    fn submit_inner(
        &self,
        req: SolveRequest,
        stream: Option<mpsc::SyncSender<BandFrame>>,
    ) -> Result<(String, mpsc::Receiver<Result<SolveResponse, ServeError>>), RejectReason> {
        if let Err(msg) = self.backend.validate(&req) {
            self.stats.rejected_invalid.inc();
            return Err(RejectReason::Invalid(msg));
        }
        if let Err(wait) = self.breaker.allow() {
            self.stats.rejected_breaker.inc();
            return Err(RejectReason::BreakerOpen {
                retry_after_s: wait.as_secs().max(1),
            });
        }
        // Injected admission storm: a seeded burst of synthetic
        // batch-class arrivals rides in on this (valid) request,
        // attributed to a reserved tenant. The clones take the normal
        // admission path — brownout shedding and class budgets apply —
        // with their receivers dropped, so answers evaporate without a
        // submitter. This is the overload the brownout ladder exists
        // to contain, made reproducible.
        if let Some(inj) = self.injector {
            if let Some(burst) = inj.admission_storm() {
                self.chaos_injected("admission_storm");
                for _ in 0..burst {
                    let mut clone = req.clone();
                    clone.priority = Priority::Batch;
                    clone.tenant = "chaos-storm".to_string();
                    let _ = self.admit(clone, None);
                }
            }
        }
        if let Err(retry_after_s) = self.check_tenant_quota(&req.tenant) {
            self.stats.rejected_tenant.inc();
            self.tenant_outcome(&req.tenant, "rejected");
            return Err(RejectReason::TenantQuota {
                tenant: req.tenant.clone(),
                retry_after_s,
            });
        }
        self.admit(req, stream)
    }

    /// Post-validation admission: deadline defaulting, §IV
    /// feasibility, brownout shedding, and the queue push — shared by
    /// real submissions and injected storm arrivals.
    #[allow(clippy::type_complexity)]
    fn admit(
        &self,
        mut req: SolveRequest,
        stream: Option<mpsc::SyncSender<BandFrame>>,
    ) -> Result<(String, mpsc::Receiver<Result<SolveResponse, ServeError>>), RejectReason> {
        let class = req.priority.index();
        if req.deadline_ms.is_none() {
            req.deadline_ms = self.config.default_deadline_ms;
        }
        // §IV feasibility: if the cost model says the solve alone
        // outruns the deadline, fail fast instead of letting the
        // request queue, solve, and time out anyway.
        if let Some(deadline_ms) = req.deadline_ms {
            if let Some(estimate) = self.backend.estimate_ms(&req) {
                if estimate.is_finite() && estimate > deadline_ms as f64 {
                    self.stats.rejected_infeasible.inc();
                    self.stats.class_shed[class].inc();
                    self.tenant_outcome(&req.tenant, "rejected");
                    return Err(RejectReason::DeadlineInfeasible {
                        estimate_ms: estimate.ceil() as u64,
                        deadline_ms,
                    });
                }
            }
        }
        // Brownout level ≥ 1: the batch class is shed at admission.
        // Interactive traffic is never shed by the ladder.
        let level = self.brownout_level();
        if level >= 1 && req.priority == Priority::Batch {
            self.stats.rejected_brownout.inc();
            self.stats.class_shed[class].inc();
            self.tenant_outcome(&req.tenant, "rejected");
            self.observe_pressure();
            return Err(RejectReason::BrownoutShed {
                level,
                retry_after_s: 1,
            });
        }
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let tenant = req.tenant.clone();
        let trace_id = mix64(self.trace_seed.wrapping_add(id));
        let job = Job {
            id,
            trace_id,
            deadline: req.deadline_ms.map(|ms| now + Duration::from_millis(ms)),
            req,
            enqueued: now,
            tx,
            stream,
        };
        let out = match self.queue.push(job) {
            Ok(depth) => {
                self.stats.accepted.inc();
                self.stats.class_accepted[class].inc();
                self.tenant_outcome(&tenant, "accepted");
                self.live.sample(
                    tracks::SERVE_QUEUE,
                    catalog::SMP_QUEUE_DEPTH,
                    self.since_epoch(now),
                    depth as f64,
                );
                Ok((format!("{trace_id:016x}"), rx))
            }
            Err((_job, reason)) => {
                let counter = match &reason {
                    RejectReason::QueueFull { .. } => {
                        self.stats.class_shed[class].inc();
                        &self.stats.rejected_full
                    }
                    _ => &self.stats.rejected_shutdown,
                };
                counter.inc();
                self.tenant_outcome(&tenant, "rejected");
                Err(reason)
            }
        };
        // Every admission attempt is a pressure observation — floods
        // climb the ladder even when nothing is being dequeued.
        self.observe_pressure();
        out
    }

    // ---- workers ---------------------------------------------------

    fn worker_loop(&self, idx: usize) {
        let busy = self.live.fcounter(
            "lddp_serve_worker_busy_seconds_total",
            &[("worker", &idx.to_string())],
            "Wall-clock seconds this serve worker spent processing batches.",
        );
        loop {
            // Brownout level ≥ 2 caps batch concurrency: only worker 0
            // still takes batch-class work, so interactive batches
            // always find a free worker while the backlog drains.
            let allow_batch = self.brownout_level() < 2 || idx == 0;
            let Some(popped) = self
                .queue
                .pop_batch_filtered(self.config.max_batch, allow_batch)
            else {
                return;
            };
            // Every dequeue is a pressure observation — this is what
            // walks the ladder back down as the flood drains, even
            // with no new admissions arriving.
            self.observe_pressure();
            // Injected queue stall: the worker sits on its batch, so
            // queued deadlines keep ticking — exactly the failure a
            // stalled dequeue path produces.
            if let Some(inj) = self.injector {
                if let Some(stall) = inj.queue_stall() {
                    self.chaos_injected("queue_stall");
                    thread::sleep(stall);
                }
            }
            self.in_flight
                .fetch_add(popped.batch.len() + popped.expired.len(), Ordering::SeqCst);
            // Jobs shed at pop time: answer 504 without a solve slot.
            for job in popped.expired {
                let waited = job.enqueued.elapsed();
                self.stats.rejected_deadline.inc();
                self.stats.class_shed[job.req.priority.index()].inc();
                let reason = RejectReason::DeadlineExceeded {
                    waited_ms: waited.as_millis() as u64,
                    deadline_ms: job.req.deadline_ms.unwrap_or(0),
                };
                self.finish_job(job, Err(ServeError::Rejected(reason)));
            }
            if !popped.batch.is_empty() {
                let picked_up = Instant::now();
                self.process_batch(idx, popped.batch);
                busy.add(picked_up.elapsed().as_secs_f64());
            }
        }
    }

    /// Bumps the per-site injected-fault counter (only called when a
    /// chaos fault actually fires, so production servers never pay the
    /// registry lookup).
    fn chaos_injected(&self, site: &str) {
        self.live
            .counter(
                "lddp_chaos_injected_total",
                &[("site", site)],
                "Faults injected by the attached chaos plan, by site.",
            )
            .inc();
    }

    /// Charges one backend failure to the circuit breaker, recording
    /// the trip when this one pushes it open.
    fn record_backend_failure(&self) {
        if self.breaker.record_failure() {
            self.stats.breaker_opens.inc();
        }
    }

    fn finish_job(&self, job: Job, result: Result<SolveResponse, ServeError>) {
        // The submitter may have hung up (load generator timeout);
        // a dead receiver is not a server error.
        let _ = job.tx.send(result);
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    fn process_batch(&self, worker_idx: usize, batch: Vec<Job>) {
        let sink = self.sink;
        let lane = tracks::serve_worker(worker_idx);
        let picked_up = Instant::now();

        // Queue-wait accounting + deadline enforcement.
        let mut live: Vec<(Job, Duration)> = Vec::with_capacity(batch.len());
        for job in batch {
            let waited = picked_up.duration_since(job.enqueued);
            let wait_span = Span::new(
                catalog::SPAN_QUEUE_WAIT,
                tracks::SERVE_QUEUE,
                self.since_epoch(job.enqueued),
                waited.as_secs_f64(),
            )
            .with_arg("id", job.id)
            .with_arg("trace_id", format!("{:016x}", job.trace_id))
            .with_arg("problem", job.req.problem.clone());
            self.live.span(wait_span);
            if job.deadline.is_some_and(|d| picked_up > d) {
                self.stats.rejected_deadline.inc();
                self.stats.class_shed[job.req.priority.index()].inc();
                let reason = RejectReason::DeadlineExceeded {
                    waited_ms: waited.as_millis() as u64,
                    deadline_ms: job.req.deadline_ms.unwrap_or(0),
                };
                self.finish_job(job, Err(ServeError::Rejected(reason)));
            } else {
                live.push((job, waited));
            }
        }
        if live.is_empty() {
            return;
        }

        let key = live[0].0.req.batch_key();
        let batch_size = live.len();
        self.stats.batches.inc();
        self.stats.batched_jobs.add(batch_size as u64);
        self.stats.batch_size.observe(batch_size as f64);

        // One tune per batch — the cached §V-A artifact. A panicking
        // tuner is isolated exactly like a panicking solve: the batch
        // gets clean 500s and the worker thread survives.
        let tune_start = Instant::now();
        // Assembly cost charged to every rider: queue pickup to tune
        // start (grouping, queue-wait accounting, deadline shedding).
        let batch_wait = tune_start.duration_since(picked_up);
        let tuned = catch_unwind(AssertUnwindSafe(|| self.backend.plan(&live[0].0.req, sink)));
        let tune_wait = tune_start.elapsed();
        let plan = match tuned {
            Ok(Ok(x)) => x,
            Ok(Err(msg)) => {
                self.record_backend_failure();
                self.stats.errors.add(batch_size as u64);
                for (job, _) in live {
                    self.finish_job(job, Err(ServeError::Backend(msg.clone())));
                }
                return;
            }
            Err(payload) => {
                let msg = panic_text(payload.as_ref());
                self.record_backend_failure();
                self.stats.panics.add(batch_size as u64);
                for (job, _) in live {
                    self.finish_job(job, Err(ServeError::Panicked(msg.clone())));
                }
                return;
            }
        };
        let cache_hit = plan.cache_hit;
        let tune_ctr = if cache_hit {
            &self.stats.tune_hits
        } else {
            &self.stats.tune_misses
        };
        tune_ctr.inc();
        let mut tune_span = Span::new(
            catalog::SPAN_TUNE,
            lane,
            self.since_epoch(tune_start),
            tune_wait.as_secs_f64(),
        )
        .with_arg("key", key.label())
        .with_arg("cache_hit", if cache_hit { "true" } else { "false" });
        if let Some(placement) = &plan.placement {
            tune_span = tune_span.with_arg("placed_on", placement.clone());
        }
        self.live.span(tune_span);

        for (mut job, waited) in live {
            let solve_start = Instant::now();
            // Streamed jobs carry a bounded band channel. The emit
            // closure runs on the solving thread: it stamps the frame's
            // wall clock, records first-band latency, and pushes into
            // the channel — trying first, then blocking when the
            // consumer is behind (the backpressure stall the metrics
            // count). A hung-up consumer disables further emission.
            let stream_tx = job.stream.take();
            let ttfb_ms = Mutex::new(None::<f64>);
            let enqueued = job.enqueued;
            let emit = |mut frame: BandFrame| -> bool {
                let Some(tx) = &stream_tx else { return false };
                frame.elapsed_ms = enqueued.elapsed().as_secs_f64() * 1e3;
                {
                    let mut first = ttfb_ms.lock().unwrap();
                    if first.is_none() {
                        *first = Some(frame.elapsed_ms);
                        self.stats.stream_ttfb_s.observe(frame.elapsed_ms / 1e3);
                    }
                }
                self.stats.stream_bands.inc();
                match tx.try_send(frame) {
                    Ok(()) => true,
                    Err(mpsc::TrySendError::Full(frame)) => {
                        self.stats.stream_stalls.inc();
                        tx.send(frame).is_ok()
                    }
                    Err(mpsc::TrySendError::Disconnected(_)) => false,
                }
            };
            let caught = catch_unwind(AssertUnwindSafe(|| {
                if stream_tx.is_some() {
                    self.backend.solve_streamed(&job.req, &plan, sink, &emit)
                } else {
                    self.backend.solve_placed(&job.req, &plan, sink)
                }
            }));
            let solve_end = Instant::now();
            let solve = solve_end.duration_since(solve_start);
            self.live.span(
                Span::new(
                    catalog::SPAN_SOLVE,
                    lane,
                    self.since_epoch(solve_start),
                    solve.as_secs_f64(),
                )
                .with_arg("id", job.id)
                .with_arg("trace_id", format!("{:016x}", job.trace_id))
                .with_arg("problem", job.req.problem.clone())
                .with_arg("n", job.req.n),
            );
            let elapsed_ms = solve.as_millis() as u64;
            let overran = self
                .config
                .watchdog_ms
                .is_some_and(|budget| elapsed_ms > budget);
            match caught {
                Ok(Ok(_)) | Ok(Err(_)) if overran => {
                    // The solve came back (either way) but blew the
                    // watchdog budget: withhold the answer, answer 504,
                    // and charge the breaker — a backend this slow is
                    // as unhealthy as a failing one.
                    self.record_backend_failure();
                    self.stats.watchdog_timeouts.inc();
                    let err = ServeError::WatchdogTimeout {
                        elapsed_ms,
                        watchdog_ms: self.config.watchdog_ms.unwrap_or(0),
                    };
                    self.finish_job(job, Err(err));
                }
                Ok(Ok(done)) => {
                    self.breaker.record_success();
                    let total = solve_end.duration_since(job.enqueued);
                    self.stats.completed.inc();
                    let class = job.req.priority.index();
                    self.stats.class_completed[class].inc();
                    self.stats.class_latency_s[class].observe(total.as_secs_f64());
                    if !done.degraded.is_empty() {
                        self.stats.degraded_solves.inc();
                    }
                    self.stats.record_latency(
                        total.as_secs_f64() * 1e3,
                        waited.as_secs_f64() * 1e3,
                        solve.as_secs_f64() * 1e3,
                    );
                    self.live
                        .counter(
                            "lddp_serve_problem_solves_total",
                            &[("problem", &job.req.problem)],
                            "Completed solves by problem.",
                        )
                        .inc();
                    self.live
                        .histogram(
                            "lddp_serve_problem_latency_seconds",
                            &[("problem", &job.req.problem)],
                            "End-to-end latency (admission to answer) by problem, seconds.",
                        )
                        .observe(total.as_secs_f64());
                    match done.tier {
                        ExecTier::Scalar => &self.stats.tier_scalar,
                        ExecTier::Bulk => &self.stats.tier_bulk,
                        ExecTier::Simd => &self.stats.tier_simd,
                        ExecTier::BitParallel => &self.stats.tier_bitparallel,
                    }
                    .inc();
                    let resp = SolveResponse {
                        id: job.id,
                        problem: job.req.problem.clone(),
                        n: job.req.n,
                        answer: done.answer,
                        virtual_ms: done.virtual_ms,
                        params: done.params,
                        tier: done.tier,
                        memory_mode: done.memory_mode,
                        table_bytes: done.table_bytes,
                        queue_ms: waited.as_secs_f64() * 1e3,
                        solve_ms: solve.as_secs_f64() * 1e3,
                        batch_ms: batch_wait.as_secs_f64() * 1e3,
                        tune_ms: tune_wait.as_secs_f64() * 1e3,
                        trace_id: format!("{:016x}", job.trace_id),
                        batch_size,
                        cache_hit,
                        degraded: done.degraded,
                        placed_on: done
                            .placed_on
                            .or_else(|| plan.placement.clone())
                            .unwrap_or_default(),
                        devices: done.devices.max(1),
                        ttfb_ms: ttfb_ms.lock().unwrap().unwrap_or(0.0),
                    };
                    self.finish_job(job, Ok(resp));
                }
                Ok(Err(msg)) => {
                    self.record_backend_failure();
                    self.stats.errors.inc();
                    self.finish_job(job, Err(ServeError::Backend(msg)));
                }
                Err(payload) => {
                    let msg = panic_text(payload.as_ref());
                    self.record_backend_failure();
                    self.stats.panics.inc();
                    self.finish_job(job, Err(ServeError::Panicked(msg)));
                }
            }
        }

        self.live.span(
            Span::new(
                catalog::SPAN_BATCH,
                lane,
                self.since_epoch(picked_up),
                picked_up.elapsed().as_secs_f64(),
            )
            .with_arg("batch", batch_size)
            .with_arg("key", key.label())
            .with_arg("cache_hit", if cache_hit { "true" } else { "false" }),
        );
    }

    // ---- HTTP front end --------------------------------------------

    /// The acceptor: a blocking `accept` that hands each connection to
    /// the door, starts a connection thread when the door asks for one,
    /// and refuses the rest. [`Server::initiate_shutdown`] wakes it.
    fn accept_loop<'scope>(
        &'scope self,
        scope: &'scope thread::Scope<'scope, '_>,
        listener: &TcpListener,
    ) {
        loop {
            let accepted = listener.accept();
            if self.is_shutdown() {
                return;
            }
            match accepted {
                Ok((stream, _peer)) => match self.door.admit(stream) {
                    Admit::Handed => {}
                    Admit::Spawn(conn) => {
                        scope.spawn(move || self.conn_thread(conn));
                    }
                    Admit::Refuse(stream) => self.refuse(stream),
                },
                Err(_) => thread::sleep(ACCEPT_BACKOFF),
            }
        }
    }

    /// Answers a connection past the door's bound with 503 and
    /// `Retry-After`, then closes it. It reads nothing and never waits
    /// on the client: the reply is written non-blocking, into the empty
    /// send buffer of a fresh socket.
    fn refuse(&self, mut stream: TcpStream) {
        self.stats.connections_refused.inc();
        let err = ServeError::Rejected(RejectReason::ConnectionsFull {
            limit: self.door.limit(),
        });
        let opts = ResponseOptions {
            retry_after_s: err.retry_after_s(),
            ..ResponseOptions::default()
        };
        if stream.set_nonblocking(true).is_ok() {
            let _ = http::write_response_opts(
                &mut stream,
                err.http_status(),
                &err.to_json(),
                false,
                &opts,
            );
        }
    }

    /// A connection thread: serves the connection it was started for,
    /// then each one the door hands it, until the door drains.
    fn conn_thread(&self, mut conn: Conn) {
        loop {
            self.handle_conn(&conn.stream);
            match self.door.next(conn) {
                Some(next) => conn = next,
                None => return,
            }
        }
    }

    fn handle_conn(&self, stream: &TcpStream) {
        stream.set_write_timeout(Some(WRITE_TIMEOUT)).ok();
        // Band frames are small and latency is the product: without
        // nodelay, Nagle holds each flushed frame for the client's
        // delayed ACK and a live stream degrades into ~40 ms beats.
        stream.set_nodelay(true).ok();
        let mut reader = http::RequestReader::new(stream);
        let mut out = stream;
        // Keep-alive loop: serve requests off this connection until the
        // client closes it, asks for `Connection: close`, idles past the
        // timeout, sends a malformed or late request, or the server
        // starts draining.
        loop {
            let req = match reader.read_request(IDLE_TIMEOUT, REQUEST_DEADLINE) {
                Ok(r) => r,
                Err(ReadError::Malformed(msg)) => {
                    let body = ServeError::Rejected(RejectReason::Invalid(msg)).to_json();
                    let _ = http::write_response(&mut out, 400, &body, false);
                    return;
                }
                Err(ReadError::Idle) => {
                    self.stats.connections_closed_idle.inc();
                    return;
                }
                Err(ReadError::Deadline) => {
                    self.stats.connections_closed_deadline.inc();
                    return;
                }
                Err(ReadError::Closed) => {
                    // A drain shuts the read side of every connection,
                    // which is what ends a wait for a next request.
                    if self.is_shutdown() {
                        self.stats.connections_closed_drain.inc();
                    }
                    return;
                }
            };
            // Injected connection faults, drawn per request: a torn
            // connection drops the socket after reading (the client
            // sees a reset mid-exchange and must retry); a slow one
            // stalls before answering.
            if let Some(inj) = self.injector {
                if inj.torn_connection() {
                    self.chaos_injected("torn_connection");
                    return;
                }
                if let Some(delay) = inj.slow_connection() {
                    self.chaos_injected("slow_connection");
                    thread::sleep(delay);
                }
            }
            // `POST /solve?stream=1` answers over chunked encoding with
            // one frame per band; everything else is a plain response.
            let kept = if req.method == "POST"
                && req.path == "/solve"
                && matches!(req.param("stream"), Some("1" | "true"))
            {
                self.stream_solve(&mut out, &req, req.keep_alive && !self.is_shutdown())
            } else {
                let (status, body, opts) = self.route(&req);
                // A draining server (`POST /shutdown` included) holds
                // no connection open past its answer.
                let keep = req.keep_alive && !self.is_shutdown();
                http::write_response_opts(&mut out, status, &body, keep, &opts).is_ok() && keep
            };
            if !kept {
                if req.keep_alive && self.is_shutdown() {
                    self.stats.connections_closed_drain.inc();
                }
                return;
            }
        }
    }

    /// Serves one `POST /solve?stream=1` exchange on `sock`. Parse and
    /// admission failures answer as ordinary (non-chunked) JSON — the
    /// same status, body, and `Retry-After` a non-streamed request
    /// would get. An accepted stream commits to a chunked 200 carrying
    /// the trace id header, one [`BandFrame`] chunk per band, and a
    /// terminal done/error frame. Returns whether the connection is
    /// still aligned and keepable.
    fn stream_solve(&self, sock: &mut &TcpStream, req: &http::HttpRequest, keep: bool) -> bool {
        let reject = |sock: &mut &TcpStream, e: ServeError| {
            let opts = ResponseOptions {
                retry_after_s: e.retry_after_s(),
                ..ResponseOptions::default()
            };
            let ok = http::write_response_opts(sock, e.http_status(), &e.to_json(), keep, &opts);
            ok.is_ok() && keep
        };
        let sreq = match SolveRequest::from_json(&req.body) {
            Err(msg) => {
                self.stats.rejected_invalid.inc();
                return reject(sock, ServeError::Rejected(RejectReason::Invalid(msg)));
            }
            Ok(r) => r,
        };
        let handle = match self.submit_stream(sreq) {
            Err(reason) => return reject(sock, ServeError::Rejected(reason)),
            Ok(h) => h,
        };
        self.stream_open.fetch_add(1, Ordering::Relaxed);
        let opts = ResponseOptions {
            extra_headers: vec![("X-LDDP-Trace-Id", handle.trace_id.clone())],
            ..ResponseOptions::default()
        };
        let mut healthy = http::write_chunked_head(sock, 200, keep, &opts).is_ok();
        if healthy {
            for frame in handle.bands.iter() {
                if http::write_chunk(sock, &frame.to_json()).is_err() {
                    healthy = false;
                    break;
                }
            }
        }
        if !healthy {
            // The peer went away mid-stream. Dropping the handle hangs
            // up the band channel, so the solve's next emit sees
            // Disconnected and stops; the solve itself finishes.
            self.stream_open.fetch_sub(1, Ordering::Relaxed);
            return false;
        }
        // The band channel closed, so the outcome is already (or is
        // about to be) in the done channel.
        let done = handle
            .done
            .recv()
            .unwrap_or_else(|_| Err(ServeError::Backend("worker dropped the request".into())));
        // The terminal frame rides in-stream: the 200 head is long
        // gone, so even failures arrive as a frame, not a status.
        let tail = match done {
            Ok(resp) => {
                let body = resp.to_json();
                format!("{{\"frame\":\"done\",{}", &body[1..])
            }
            Err(e) => {
                let body = e.to_json();
                format!("{{\"frame\":\"error\",{}", &body[1..])
            }
        };
        let ok = http::write_chunk(sock, &tail).is_ok() && http::finish_chunked(sock).is_ok();
        self.stream_open.fetch_sub(1, Ordering::Relaxed);
        ok && keep
    }

    /// Routes one parsed request to `(status, body, response options)`.
    fn route(&self, req: &http::HttpRequest) -> (u16, String, ResponseOptions) {
        let err = |e: ServeError| {
            let opts = ResponseOptions {
                retry_after_s: e.retry_after_s(),
                ..ResponseOptions::default()
            };
            (e.http_status(), e.to_json(), opts)
        };
        let ok = |body: String| (200, body, ResponseOptions::default());
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/solve") => match SolveRequest::from_json(&req.body) {
                Err(msg) => {
                    self.stats.rejected_invalid.inc();
                    err(ServeError::Rejected(RejectReason::Invalid(msg)))
                }
                Ok(sreq) => match self.submit(sreq) {
                    Err(reason) => err(ServeError::Rejected(reason)),
                    Ok(rx) => match rx.recv() {
                        Ok(Ok(resp)) => {
                            let opts = ResponseOptions {
                                extra_headers: vec![("X-LDDP-Trace-Id", resp.trace_id.clone())],
                                ..ResponseOptions::default()
                            };
                            (200, resp.to_json(), opts)
                        }
                        Ok(Err(e)) => err(e),
                        Err(_) => err(ServeError::Backend("worker dropped the request".into())),
                    },
                },
            },
            ("GET", "/healthz") => ok(self.healthz_json()),
            ("GET", "/stats") => ok(self.stats_json()),
            ("GET", "/metrics") => (
                200,
                self.metrics_text(),
                ResponseOptions {
                    content_type: Some("text/plain; version=0.0.4"),
                    ..ResponseOptions::default()
                },
            ),
            ("GET", "/debug/trace") => {
                let last_ms = req
                    .param("last_ms")
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(10_000);
                ok(self.debug_trace_json(last_ms))
            }
            ("POST", "/shutdown") => {
                self.initiate_shutdown();
                ok("{\"status\":\"draining\"}".to_string())
            }
            (_, "/solve" | "/healthz" | "/stats" | "/metrics" | "/debug/trace" | "/shutdown") => (
                405,
                "{\"error\":\"method_not_allowed\",\"message\":\"wrong method for this path\"}"
                    .to_string(),
                ResponseOptions::default(),
            ),
            _ => (
                404,
                "{\"error\":\"not_found\",\"message\":\"unknown path\"}".to_string(),
                ResponseOptions::default(),
            ),
        }
    }

    /// The `GET /metrics` body: sets the scrape-time gauges (queue
    /// depth, in-flight, open connections, drain and breaker state),
    /// then renders the whole registry as Prometheus text exposition.
    pub fn metrics_text(&self) -> String {
        self.live
            .gauge(
                "lddp_serve_queue_depth",
                &[],
                "Jobs currently waiting in the admission queue.",
            )
            .set(self.queue.depth() as f64);
        self.live
            .gauge(
                "lddp_serve_in_flight",
                &[],
                "Jobs popped from the queue and not yet answered.",
            )
            .set(self.in_flight.load(Ordering::Relaxed) as f64);
        self.live
            .gauge(
                "lddp_serve_connections_open",
                &[],
                "HTTP connections admitted and not yet closed.",
            )
            .set(self.door.open_count() as f64);
        self.live
            .gauge(
                "lddp_serve_draining",
                &[],
                "1 while the server is draining (admission closed), else 0.",
            )
            .set(if self.queue.is_open() { 0.0 } else { 1.0 });
        self.live
            .gauge(
                "lddp_serve_breaker_state",
                &[],
                "Circuit breaker state: 0 closed, 1 half-open, 2 open.",
            )
            .set(match self.breaker.state() {
                BreakerState::Closed => 0.0,
                BreakerState::HalfOpen => 1.0,
                BreakerState::Open => 2.0,
            });
        self.live
            .gauge(
                "lddp_serve_stream_open",
                &[],
                "Streaming solve responses currently open.",
            )
            .set(self.stream_open.load(Ordering::Relaxed) as f64);
        self.live
            .gauge(
                "lddp_serve_brownout_level",
                &[],
                "Brownout-ladder level: 0 normal, 1 shed batch, 2 cap batch concurrency.",
            )
            .set(self.brownout_level() as f64);
        for class in [Priority::Interactive, Priority::Batch] {
            self.live
                .gauge(
                    "lddp_serve_class_queue_depth",
                    &[("class", class.as_str())],
                    "Jobs currently waiting in the admission queue, by service class.",
                )
                .set(self.queue.class_depth(class) as f64);
        }
        self.live.to_prometheus()
    }

    /// The `GET /debug/trace` body: every flight-recorder event that
    /// ended within the last `last_ms` milliseconds, exported as Chrome
    /// trace JSON (load it in Perfetto / `chrome://tracing`).
    pub fn debug_trace_json(&self, last_ms: u64) -> String {
        let since = self.since_epoch(Instant::now()) - last_ms as f64 / 1e3;
        let data = self.live.flight().snapshot_since(since);
        chrome::to_chrome_json(&data)
    }

    /// The `GET /stats` body: the snapshot, plus the backend's fleet
    /// section under `"fleet"` when it reports one.
    pub fn stats_json(&self) -> String {
        let mut body = self.snapshot().to_json();
        if let Some(fleet) = self.backend.fleet_stats_json() {
            debug_assert!(body.ends_with('}'));
            body.truncate(body.len() - 1);
            body.push_str(&format!(",\"fleet\":{fleet}}}"));
        }
        body
    }

    fn healthz_json(&self) -> String {
        let draining = !self.queue.is_open();
        let breaker = self.breaker.state();
        let pools = self.backend.pool_health();
        let unhealed = pools.iter().any(|p| !p.ready);
        let status = if draining {
            "draining"
        } else if breaker != BreakerState::Closed || unhealed {
            "degraded"
        } else {
            "ok"
        };
        let mut body = format!(
            "{{\"status\":\"{}\",\"breaker\":\"{}\",\"queue_depth\":{},\"in_flight\":{},\"workers\":{},\"simd\":\"{}\",\"avx512\":{}",
            status,
            breaker.name(),
            self.queue.depth(),
            self.in_flight.load(Ordering::Relaxed),
            self.config.workers.max(1),
            simd_backend(),
            avx512_available(),
        );
        if !pools.is_empty() {
            let entries: Vec<String> = pools
                .iter()
                .map(|p| {
                    format!(
                        "{{\"platform\":\"{}\",\"ready\":{},\"dead_workers\":{}}}",
                        p.platform, p.ready, p.dead_workers
                    )
                })
                .collect();
            body.push_str(&format!(",\"fleet\":[{}]", entries.join(",")));
        }
        body.push('}');
        body
    }
}

/// Best-effort text of a caught panic payload (the common `&str` /
/// `String` cases; anything else gets a placeholder).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// In-process handle to a running [`Server`] — the no-sockets API used
/// by tests, the in-process load generator, and the CLI.
pub struct Client<'s, 'a> {
    server: &'s Server<'a>,
}

impl Client<'_, '_> {
    /// Submits a request; the returned receiver yields the eventual
    /// outcome. Admission rejections surface immediately as `Err`.
    pub fn submit(
        &self,
        req: SolveRequest,
    ) -> Result<mpsc::Receiver<Result<SolveResponse, ServeError>>, RejectReason> {
        self.server.submit(req)
    }

    /// Submits and blocks for the outcome.
    pub fn solve(&self, req: SolveRequest) -> Result<SolveResponse, ServeError> {
        let rx = self.submit(req).map_err(ServeError::Rejected)?;
        rx.recv()
            .unwrap_or_else(|_| Err(ServeError::Backend("worker dropped the request".into())))
    }

    /// Submits a streaming solve; band frames arrive on the handle
    /// while the solve runs. Admission rejections surface immediately.
    pub fn submit_stream(&self, req: SolveRequest) -> Result<StreamHandle, RejectReason> {
        self.server.submit_stream(req)
    }

    /// Submits a streaming solve and blocks for the outcome, invoking
    /// `on_band` for each band frame as it arrives. A slow `on_band`
    /// backpressures the solve exactly like a slow HTTP reader.
    pub fn solve_stream(
        &self,
        req: SolveRequest,
        on_band: &mut dyn FnMut(&BandFrame),
    ) -> Result<SolveResponse, ServeError> {
        let handle = self.submit_stream(req).map_err(ServeError::Rejected)?;
        for frame in handle.bands.iter() {
            on_band(&frame);
        }
        handle
            .done
            .recv()
            .unwrap_or_else(|_| Err(ServeError::Backend("worker dropped the request".into())))
    }

    /// Point-in-time stats.
    pub fn snapshot(&self) -> StatsSnapshot {
        self.server.snapshot()
    }

    /// The `GET /healthz` body.
    pub fn healthz_json(&self) -> String {
        self.server.healthz_json()
    }

    /// The `GET /stats` body (snapshot plus any fleet section).
    pub fn stats_json(&self) -> String {
        self.server.stats_json()
    }

    /// The `GET /metrics` body (Prometheus text exposition).
    pub fn metrics_text(&self) -> String {
        self.server.metrics_text()
    }

    /// The `GET /debug/trace` body for the last `last_ms` milliseconds
    /// (Chrome trace JSON from the flight recorder).
    pub fn debug_trace_json(&self, last_ms: u64) -> String {
        self.server.debug_trace_json(last_ms)
    }

    /// Initiates graceful shutdown (idempotent): admission closes,
    /// queued work drains, `Server::run` returns once workers join.
    pub fn shutdown(&self) {
        self.server.initiate_shutdown()
    }

    /// Blocks until shutdown is initiated (by this client, another
    /// thread, or `POST /shutdown`).
    pub fn wait_shutdown(&self) {
        let mut flag = self.server.shutdown.lock().unwrap();
        while !*flag {
            flag = self.server.shutdown_cv.wait(flag).unwrap();
        }
    }
}
