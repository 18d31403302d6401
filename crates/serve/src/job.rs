//! Request/response/rejection types of the solve service and their
//! JSON wire forms (hand-rolled, parsed with [`lddp_trace::json`]).

use lddp_core::kernel::{ExecTier, MemoryMode};
use lddp_core::schedule::ScheduleParams;
use lddp_trace::json::{self, escape, num, Json};

/// Request service class. Interactive traffic is latency-sensitive and
/// never shed while batch work remains sheddable; batch traffic is
/// throughput work that absorbs every overload response first (separate
/// queue budget, brownout shedding, concurrency caps, forced rolling
/// memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive foreground traffic (the default).
    #[default]
    Interactive,
    /// Throughput-oriented background traffic; first to be shed.
    Batch,
}

impl Priority {
    /// Stable wire/metric-label name.
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
        }
    }

    /// Parses a wire name.
    pub fn parse(text: &str) -> Option<Priority> {
        match text {
            "interactive" => Some(Priority::Interactive),
            "batch" => Some(Priority::Batch),
            _ => None,
        }
    }

    /// Dense index for per-class arrays (interactive first).
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Batch => 1,
        }
    }
}

/// One solve request, as admitted into the queue.
///
/// `problem`/`n`/`platform` identify the instance the same way
/// `lddp-cli solve` does; the batcher groups requests by
/// [`SolveRequest::batch_key`] so one tuner artifact serves the group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveRequest {
    /// Problem name (must be known to the backend).
    pub problem: String,
    /// Instance size (table side).
    pub n: usize,
    /// Platform preset name (`high` / `low`).
    pub platform: String,
    /// Explicit schedule parameters; `None` means "use the (cached)
    /// tuner".
    pub params: Option<ScheduleParams>,
    /// Per-request deadline: if the request is still queued this many
    /// milliseconds after admission, it is rejected instead of solved.
    pub deadline_ms: Option<u64>,
    /// Memory-mode pin: `Some(Rolling)` requests the score-only
    /// wave-band path, `Some(Full)` pins the materialized table,
    /// `None` takes the backend's default (the ring wherever it yields
    /// the answer).
    pub memory_mode: Option<MemoryMode>,
    /// Service class; defaults to [`Priority::Interactive`].
    pub priority: Priority,
    /// Submitting tenant, for quota accounting and weighted-fair batch
    /// formation. Empty means "unattributed" (still one fair-share
    /// bucket of its own).
    pub tenant: String,
}

impl SolveRequest {
    /// A request for `problem` at size `n` on the `high` platform with
    /// tuned parameters and no deadline.
    pub fn new(problem: impl Into<String>, n: usize) -> SolveRequest {
        SolveRequest {
            problem: problem.into(),
            n,
            platform: "high".to_string(),
            params: None,
            deadline_ms: None,
            memory_mode: None,
            priority: Priority::Interactive,
            tenant: String::new(),
        }
    }

    /// The batching key: requests with equal keys may share one batch
    /// (and one tuner-cache artifact). Sizes are bucketed to the next
    /// power of two; explicit parameters are part of the key so they
    /// never mix with tuned requests.
    pub fn batch_key(&self) -> BatchKey {
        BatchKey {
            problem: self.problem.clone(),
            n_bucket: self.n.next_power_of_two(),
            platform: self.platform.clone(),
            params: self.params.map(|p| (p.t_switch, p.t_share)),
            memory: self.memory_mode,
            priority: self.priority,
        }
    }

    /// The JSON body of a `POST /solve`.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"problem\":\"{}\",\"n\":{},\"platform\":\"{}\"",
            escape(&self.problem),
            self.n,
            escape(&self.platform)
        );
        if let Some(p) = self.params {
            s.push_str(&format!(
                ",\"t_switch\":{},\"t_share\":{}",
                p.t_switch, p.t_share
            ));
        }
        if let Some(d) = self.deadline_ms {
            s.push_str(&format!(",\"deadline_ms\":{d}"));
        }
        if let Some(m) = self.memory_mode {
            s.push_str(&format!(",\"memory_mode\":\"{}\"", m.as_str()));
        }
        if self.priority != Priority::Interactive {
            s.push_str(&format!(",\"priority\":\"{}\"", self.priority.as_str()));
        }
        if !self.tenant.is_empty() {
            s.push_str(&format!(",\"tenant\":\"{}\"", escape(&self.tenant)));
        }
        s.push('}');
        s
    }

    /// Parses a `POST /solve` body. `problem` is required; `n` defaults
    /// to 256, `platform` to `high`.
    pub fn from_json(text: &str) -> Result<SolveRequest, String> {
        let v = json::parse(text)?;
        let problem = v
            .get("problem")
            .and_then(Json::as_str)
            .ok_or("missing \"problem\"")?
            .to_string();
        let n = match v.get("n") {
            Some(j) => {
                let f = j.as_f64().ok_or("\"n\" must be a number")?;
                if f < 1.0 || f.fract() != 0.0 {
                    return Err("\"n\" must be a positive integer".into());
                }
                f as usize
            }
            None => 256,
        };
        let platform = v
            .get("platform")
            .map(|j| j.as_str().ok_or("\"platform\" must be a string"))
            .transpose()?
            .unwrap_or("high")
            .to_string();
        let int_field = |key: &str| -> Result<Option<usize>, String> {
            match v.get(key) {
                None => Ok(None),
                Some(j) => {
                    let f = j.as_f64().ok_or(format!("\"{key}\" must be a number"))?;
                    if f < 0.0 || f.fract() != 0.0 {
                        return Err(format!("\"{key}\" must be a non-negative integer"));
                    }
                    Ok(Some(f as usize))
                }
            }
        };
        let params = match (int_field("t_switch")?, int_field("t_share")?) {
            (None, None) => None,
            (sw, sh) => Some(ScheduleParams::new(sw.unwrap_or(0), sh.unwrap_or(0))),
        };
        let deadline_ms = int_field("deadline_ms")?.map(|d| d as u64);
        let memory_mode = match v.get("memory_mode") {
            None => None,
            Some(j) => {
                let text = j.as_str().ok_or("\"memory_mode\" must be a string")?;
                Some(
                    MemoryMode::parse(text)
                        .ok_or("\"memory_mode\" must be \"full\" or \"rolling\"")?,
                )
            }
        };
        let priority = match v.get("priority") {
            None => Priority::Interactive,
            Some(j) => {
                let text = j.as_str().ok_or("\"priority\" must be a string")?;
                Priority::parse(text).ok_or("\"priority\" must be \"interactive\" or \"batch\"")?
            }
        };
        let tenant = v
            .get("tenant")
            .map(|j| j.as_str().ok_or("\"tenant\" must be a string"))
            .transpose()?
            .unwrap_or("")
            .to_string();
        Ok(SolveRequest {
            problem,
            n,
            platform,
            params,
            deadline_ms,
            memory_mode,
            priority,
            tenant,
        })
    }
}

/// The batch/tuner-amortization key derived from a request.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BatchKey {
    /// Problem name.
    pub problem: String,
    /// Instance size bucketed to the next power of two.
    pub n_bucket: usize,
    /// Platform preset name.
    pub platform: String,
    /// Explicit parameters, when the request pins them.
    pub params: Option<(usize, usize)>,
    /// Memory-mode pin, when the request carries one — pinned-rolling
    /// requests never share a batch (and a tuner artifact) with
    /// full-table ones.
    pub memory: Option<MemoryMode>,
    /// Service class: interactive and batch traffic never share a
    /// batch, so a brownout action on a batch never delays an
    /// interactive rider. Tenants are deliberately *not* part of the
    /// key — fair gathering across tenants happens inside a batch.
    pub priority: Priority,
}

impl BatchKey {
    /// Compact display form, used as a trace-span argument.
    pub fn label(&self) -> String {
        let mut label = match self.params {
            Some((sw, sh)) => format!(
                "{}/{}/{}/{}+{}",
                self.problem, self.n_bucket, self.platform, sw, sh
            ),
            None => format!("{}/{}/{}", self.problem, self.n_bucket, self.platform),
        };
        if let Some(m) = self.memory {
            label.push('/');
            label.push_str(m.as_str());
        }
        if self.priority == Priority::Batch {
            label.push('/');
            label.push_str(self.priority.as_str());
        }
        label
    }
}

/// Why the admission controller (or the deadline check) refused a
/// request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded queue was at capacity — backpressure.
    QueueFull {
        /// The configured capacity the queue was at.
        capacity: usize,
    },
    /// The server is draining and admits nothing new.
    ShuttingDown,
    /// The request's deadline expired while it sat in the queue.
    DeadlineExceeded {
        /// How long the request waited, milliseconds.
        waited_ms: u64,
        /// The deadline it carried, milliseconds.
        deadline_ms: u64,
    },
    /// The request failed validation (unknown problem, bad size…).
    Invalid(String),
    /// The backend circuit breaker is open: recent solves failed and the
    /// server is refusing work until the cool-off elapses.
    BreakerOpen {
        /// Suggested client wait before retrying, seconds (also sent as
        /// the `Retry-After` header).
        retry_after_s: u64,
    },
    /// The §IV cost estimate says the solve cannot finish inside the
    /// request's own deadline, so admission refuses it up front instead
    /// of wasting a solve slot on a doomed request.
    DeadlineInfeasible {
        /// Modelled solve time for the instance, milliseconds.
        estimate_ms: u64,
        /// The deadline the request carried, milliseconds.
        deadline_ms: u64,
    },
    /// The tenant exhausted its admission quota (token bucket).
    TenantQuota {
        /// The over-quota tenant.
        tenant: String,
        /// Suggested wait until a token refills, seconds (also sent as
        /// the `Retry-After` header).
        retry_after_s: u64,
    },
    /// The brownout ladder is shedding this service class under
    /// sustained overload.
    BrownoutShed {
        /// Current brownout level (1..).
        level: u8,
        /// Suggested client wait, seconds (also the `Retry-After`
        /// header).
        retry_after_s: u64,
    },
    /// Every connection thread of the HTTP front end is busy; the
    /// connection is answered at accept, before its request is read.
    ConnectionsFull {
        /// The most connections the server serves at once.
        limit: usize,
    },
}

impl RejectReason {
    /// Stable machine-readable code (the `error` field on the wire).
    pub fn code(&self) -> &'static str {
        match self {
            RejectReason::QueueFull { .. } => "queue_full",
            RejectReason::ShuttingDown => "shutting_down",
            RejectReason::DeadlineExceeded { .. } => "deadline_exceeded",
            RejectReason::Invalid(_) => "invalid",
            RejectReason::BreakerOpen { .. } => "breaker_open",
            RejectReason::DeadlineInfeasible { .. } => "deadline_infeasible",
            RejectReason::TenantQuota { .. } => "tenant_quota",
            RejectReason::BrownoutShed { .. } => "brownout_shed",
            RejectReason::ConnectionsFull { .. } => "connections_full",
        }
    }

    /// Human-readable detail.
    pub fn message(&self) -> String {
        match self {
            RejectReason::QueueFull { capacity } => {
                format!("queue full ({capacity} requests); retry later")
            }
            RejectReason::ShuttingDown => "server is draining".to_string(),
            RejectReason::DeadlineExceeded {
                waited_ms,
                deadline_ms,
            } => format!("deadline {deadline_ms} ms exceeded after waiting {waited_ms} ms"),
            RejectReason::Invalid(msg) => msg.clone(),
            RejectReason::BreakerOpen { retry_after_s } => {
                format!("backend circuit breaker open; retry after {retry_after_s} s")
            }
            RejectReason::DeadlineInfeasible {
                estimate_ms,
                deadline_ms,
            } => format!(
                "estimated solve time {estimate_ms} ms cannot meet the {deadline_ms} ms deadline"
            ),
            RejectReason::TenantQuota {
                tenant,
                retry_after_s,
            } => format!("tenant \"{tenant}\" over admission quota; retry after {retry_after_s} s"),
            RejectReason::BrownoutShed {
                level,
                retry_after_s,
            } => format!(
                "brownout level {level}: batch-class admissions shed; retry after {retry_after_s} s"
            ),
            RejectReason::ConnectionsFull { limit } => {
                format!("all {limit} connection slots busy; retry later")
            }
        }
    }

    /// The HTTP status the wire API maps this rejection to.
    pub fn http_status(&self) -> u16 {
        match self {
            RejectReason::QueueFull { .. } => 429,
            RejectReason::ShuttingDown => 503,
            RejectReason::DeadlineExceeded { .. } => 504,
            RejectReason::Invalid(_) => 400,
            RejectReason::BreakerOpen { .. } => 503,
            RejectReason::DeadlineInfeasible { .. } => 504,
            RejectReason::TenantQuota { .. } => 429,
            RejectReason::BrownoutShed { .. } => 503,
            RejectReason::ConnectionsFull { .. } => 503,
        }
    }

    /// The `Retry-After` value (seconds) this rejection should carry,
    /// when it has one. Backpressure rejections (`queue_full`,
    /// `tenant_quota`, `brownout_shed`, `breaker_open`,
    /// `connections_full`) all carry one
    /// so well-behaved clients pace themselves instead of hammering.
    pub fn retry_after_s(&self) -> Option<u64> {
        match self {
            RejectReason::BreakerOpen { retry_after_s }
            | RejectReason::TenantQuota { retry_after_s, .. }
            | RejectReason::BrownoutShed { retry_after_s, .. } => Some(*retry_after_s),
            RejectReason::QueueFull { .. } | RejectReason::ConnectionsFull { .. } => Some(1),
            _ => None,
        }
    }
}

/// How a submitted request can fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Refused without solving (admission control or deadline).
    Rejected(RejectReason),
    /// The backend solve itself failed.
    Backend(String),
    /// The backend solve panicked; the panic was caught and isolated,
    /// the worker survived, and the client gets a clean 500 instead of
    /// a dropped connection.
    Panicked(String),
    /// The solve finished but blew past the server's watchdog budget;
    /// the answer is withheld and the breaker is charged.
    WatchdogTimeout {
        /// How long the solve actually took, milliseconds.
        elapsed_ms: u64,
        /// The configured watchdog budget, milliseconds.
        watchdog_ms: u64,
    },
}

impl ServeError {
    /// Stable machine-readable code.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::Rejected(r) => r.code(),
            ServeError::Backend(_) => "backend_error",
            ServeError::Panicked(_) => "backend_panic",
            ServeError::WatchdogTimeout { .. } => "watchdog_timeout",
        }
    }

    /// Human-readable detail.
    pub fn message(&self) -> String {
        match self {
            ServeError::Rejected(r) => r.message(),
            ServeError::Backend(msg) => msg.clone(),
            ServeError::Panicked(msg) => format!("backend panicked (isolated): {msg}"),
            ServeError::WatchdogTimeout {
                elapsed_ms,
                watchdog_ms,
            } => format!("solve took {elapsed_ms} ms, over the {watchdog_ms} ms watchdog budget"),
        }
    }

    /// HTTP status for the wire API (backend failures and panics are
    /// 500s; a watchdog overrun is a 504 like any other timeout).
    pub fn http_status(&self) -> u16 {
        match self {
            ServeError::Rejected(r) => r.http_status(),
            ServeError::Backend(_) => 500,
            ServeError::Panicked(_) => 500,
            ServeError::WatchdogTimeout { .. } => 504,
        }
    }

    /// The `Retry-After` value (seconds) to attach, when any.
    pub fn retry_after_s(&self) -> Option<u64> {
        match self {
            ServeError::Rejected(r) => r.retry_after_s(),
            _ => None,
        }
    }

    /// The JSON error body.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"error\":\"{}\",\"message\":\"{}\"}}",
            self.code(),
            escape(&self.message())
        )
    }
}

/// A completed solve, as returned to the submitter.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResponse {
    /// Server-assigned request id.
    pub id: u64,
    /// Echo of the requested problem.
    pub problem: String,
    /// Echo of the requested size.
    pub n: usize,
    /// The problem's headline answer (same text `lddp-cli solve`
    /// prints), used by the load generator's oracle check.
    pub answer: String,
    /// Modelled (virtual) solve time on the platform, milliseconds.
    pub virtual_ms: f64,
    /// The schedule parameters actually executed.
    pub params: ScheduleParams,
    /// The execution tier the solve ran on.
    pub tier: ExecTier,
    /// Memory mode the solve ran in (`full` table or `rolling`
    /// wave-bands).
    pub memory_mode: MemoryMode,
    /// Peak DP working-set bytes of the solve: the full table, or the
    /// rolling band ring.
    pub table_bytes: usize,
    /// Wall time spent queued, milliseconds.
    pub queue_ms: f64,
    /// Wall time spent solving, milliseconds.
    pub solve_ms: f64,
    /// Wall time the batcher spent assembling the batch this request
    /// rode in (drain + group), milliseconds.
    pub batch_ms: f64,
    /// Wall time spent resolving schedule parameters for the batch
    /// (tuner-cache lookup or sweep), milliseconds.
    pub tune_ms: f64,
    /// Per-request trace id, assigned at admission and threaded through
    /// queue → batch → tune → solve. Also sent as the `X-LDDP-Trace-Id`
    /// response header; correlates with `GET /debug/trace` spans.
    pub trace_id: String,
    /// Number of requests in the batch this one rode in.
    pub batch_size: usize,
    /// Whether the batch's parameters came from the tuner cache.
    pub cache_hit: bool,
    /// Degradation steps the backend took to produce this answer
    /// (stable codes such as `bulk_to_scalar`); empty when the solve
    /// ran at full configuration.
    pub degraded: Vec<String>,
    /// Fleet platform the dispatcher placed this solve on
    /// ("hetero-high", …); empty when the server runs a single
    /// backend without a fleet.
    pub placed_on: String,
    /// Simulated devices the request was priced on: 1 for ordinary
    /// solves, >1 when `virtual_ms` is the multi-device model's price
    /// of a cross-device `MultiPlan` band split.
    pub devices: usize,
    /// Time from admission to the first streamed band frame leaving
    /// the server, milliseconds. 0 for non-streamed solves (and for
    /// streams whose first band never made it out).
    pub ttfb_ms: f64,
}

impl SolveResponse {
    /// The JSON body of a successful `POST /solve`.
    pub fn to_json(&self) -> String {
        let degraded = self
            .degraded
            .iter()
            .map(|d| format!("\"{}\"", escape(d)))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"id\":{},\"trace_id\":\"{}\",\"problem\":\"{}\",\"n\":{},\
             \"answer\":\"{}\",\
             \"virtual_ms\":{},\"t_switch\":{},\"t_share\":{},\"tier\":\"{}\",\
             \"queue_ms\":{},\"solve_ms\":{},\"batch_size\":{},\"cache_hit\":{},\
             \"degraded\":[{}],\
             \"placed_on\":\"{}\",\"devices\":{},\
             \"timings\":{{\"queue_wait_ms\":{},\"batch_ms\":{},\
             \"tune_ms\":{},\"solve_ms\":{},\"ttfb_ms\":{},\"tier\":\"{}\",\
             \"memory_mode\":\"{}\",\"table_bytes\":{}}}}}",
            self.id,
            escape(&self.trace_id),
            escape(&self.problem),
            self.n,
            escape(&self.answer),
            num(self.virtual_ms),
            self.params.t_switch,
            self.params.t_share,
            self.tier.as_str(),
            num(self.queue_ms),
            num(self.solve_ms),
            self.batch_size,
            self.cache_hit,
            degraded,
            escape(&self.placed_on),
            self.devices,
            num(self.queue_ms),
            num(self.batch_ms),
            num(self.tune_ms),
            num(self.solve_ms),
            num(self.ttfb_ms),
            self.tier.as_str(),
            self.memory_mode.as_str(),
            self.table_bytes,
        )
    }

    /// Parses a successful `POST /solve` body.
    pub fn from_json(text: &str) -> Result<SolveResponse, String> {
        let v = json::parse(text)?;
        let f = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("missing number \"{key}\""))
        };
        let s = |key: &str| -> Result<String, String> {
            Ok(v.get(key)
                .and_then(Json::as_str)
                .ok_or(format!("missing string \"{key}\""))?
                .to_string())
        };
        Ok(SolveResponse {
            id: f("id")? as u64,
            problem: s("problem")?,
            n: f("n")? as usize,
            answer: s("answer")?,
            virtual_ms: f("virtual_ms")?,
            params: ScheduleParams::new(f("t_switch")? as usize, f("t_share")? as usize),
            // Absent on responses from servers predating tier
            // reporting — those always ran the scalar/bulk CPU path.
            tier: v
                .get("tier")
                .and_then(Json::as_str)
                .and_then(ExecTier::parse)
                .unwrap_or(ExecTier::Bulk),
            // Absent on responses from servers predating memory-mode
            // reporting — those always materialized the full table.
            memory_mode: v
                .get("timings")
                .and_then(|t| t.get("memory_mode"))
                .and_then(Json::as_str)
                .and_then(MemoryMode::parse)
                .unwrap_or(MemoryMode::Full),
            table_bytes: v
                .get("timings")
                .and_then(|t| t.get("table_bytes"))
                .and_then(Json::as_f64)
                .map_or(0, |b| b as usize),
            queue_ms: f("queue_ms")?,
            solve_ms: f("solve_ms")?,
            // The timings breakdown and trace id are absent on responses
            // from servers predating trace propagation.
            batch_ms: v
                .get("timings")
                .and_then(|t| t.get("batch_ms"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            tune_ms: v
                .get("timings")
                .and_then(|t| t.get("tune_ms"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            trace_id: v
                .get("trace_id")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            batch_size: f("batch_size")? as usize,
            cache_hit: v
                .get("cache_hit")
                .and_then(Json::as_bool)
                .ok_or("missing bool \"cache_hit\"")?,
            // Absent on responses from servers predating degradation
            // reporting — treat as "not degraded".
            degraded: v
                .get("degraded")
                .and_then(Json::as_arr)
                .map(|a| {
                    a.iter()
                        .filter_map(Json::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default(),
            // Absent on responses from servers predating fleet serving
            // — those solved on their single backend platform.
            placed_on: v
                .get("placed_on")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            devices: v
                .get("devices")
                .and_then(Json::as_f64)
                .map_or(1, |d| (d as usize).max(1)),
            // Absent on non-streamed responses and on servers predating
            // the streaming path.
            ttfb_ms: v
                .get("timings")
                .and_then(|t| t.get("ttfb_ms"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_json_round_trips() {
        let mut req = SolveRequest::new("lcs", 300);
        req.platform = "low".into();
        req.params = Some(ScheduleParams::new(4, 16));
        req.deadline_ms = Some(1500);
        let back = SolveRequest::from_json(&req.to_json()).unwrap();
        assert_eq!(req, back);

        // Defaults.
        let min = SolveRequest::from_json(r#"{"problem":"dtw"}"#).unwrap();
        assert_eq!(min.n, 256);
        assert_eq!(min.platform, "high");
        assert_eq!(min.params, None);
        assert_eq!(min.deadline_ms, None);
        assert_eq!(min.memory_mode, None);

        // The memory-mode pin rides the wire and the batch key.
        let mut rolling = SolveRequest::new("lcs", 4096);
        rolling.memory_mode = Some(MemoryMode::Rolling);
        let back = SolveRequest::from_json(&rolling.to_json()).unwrap();
        assert_eq!(back.memory_mode, Some(MemoryMode::Rolling));
        assert_ne!(
            rolling.batch_key(),
            SolveRequest::new("lcs", 4096).batch_key()
        );
        assert!(rolling.batch_key().label().ends_with("/rolling"));
        assert!(SolveRequest::from_json(r#"{"problem":"lcs","memory_mode":"sideways"}"#).is_err());

        // Priority and tenant ride the wire; defaults stay off it so old
        // servers keep parsing new clients' default-class requests.
        let mut qos = SolveRequest::new("lcs", 64);
        qos.priority = Priority::Batch;
        qos.tenant = "acme".into();
        let body = qos.to_json();
        assert!(body.contains("\"priority\":\"batch\""));
        assert!(body.contains("\"tenant\":\"acme\""));
        let back = SolveRequest::from_json(&body).unwrap();
        assert_eq!(back, qos);
        let plain = SolveRequest::new("lcs", 64).to_json();
        assert!(!plain.contains("priority"));
        assert!(!plain.contains("tenant"));
        assert!(SolveRequest::from_json(r#"{"problem":"lcs","priority":"urgent"}"#).is_err());
    }

    #[test]
    fn request_json_rejects_garbage() {
        assert!(SolveRequest::from_json("{}").is_err());
        assert!(SolveRequest::from_json(r#"{"problem":"lcs","n":-4}"#).is_err());
        assert!(SolveRequest::from_json(r#"{"problem":"lcs","n":1.5}"#).is_err());
        assert!(SolveRequest::from_json(r#"{"problem":"lcs","platform":7}"#).is_err());
        assert!(SolveRequest::from_json("not json").is_err());
    }

    #[test]
    fn batch_keys_bucket_and_separate_explicit_params() {
        let a = SolveRequest::new("lcs", 200).batch_key();
        let b = SolveRequest::new("lcs", 256).batch_key();
        assert_eq!(a, b);
        assert_eq!(a.n_bucket, 256);
        let mut c = SolveRequest::new("lcs", 200);
        c.params = Some(ScheduleParams::new(1, 2));
        assert_ne!(a, c.batch_key());
        assert!(c.batch_key().label().contains("1+2"));
        let mut d = SolveRequest::new("lcs", 200);
        d.platform = "low".into();
        assert_ne!(a, d.batch_key());
    }

    #[test]
    fn response_json_round_trips() {
        let resp = SolveResponse {
            id: 42,
            problem: "levenshtein".into(),
            n: 128,
            answer: "edit distance = 97".into(),
            virtual_ms: 1.5,
            params: ScheduleParams::new(8, 64),
            tier: ExecTier::Simd,
            memory_mode: MemoryMode::Rolling,
            table_bytes: 98316,
            queue_ms: 0.25,
            solve_ms: 3.75,
            batch_ms: 0.5,
            tune_ms: 1.25,
            trace_id: "00f1e2d3c4b5a697".into(),
            batch_size: 4,
            cache_hit: true,
            degraded: vec!["bulk_to_scalar".into()],
            placed_on: "hetero-low".into(),
            devices: 3,
            ttfb_ms: 0.875,
        };
        let json = resp.to_json();
        assert!(json.contains("\"timings\":{"));
        assert!(json.contains("\"queue_wait_ms\":0.25"));
        let back = SolveResponse::from_json(&json).unwrap();
        assert_eq!(resp, back);
    }

    #[test]
    fn degraded_field_is_optional_on_parse() {
        // A response from a server predating degradation reporting.
        let old = r#"{"id":1,"problem":"lcs","n":8,"answer":"x","virtual_ms":1,
                      "t_switch":0,"t_share":0,"queue_ms":0,"solve_ms":1,
                      "batch_size":1,"cache_hit":false}"#;
        let parsed = SolveResponse::from_json(old).unwrap();
        assert!(parsed.degraded.is_empty());
        // Same for the tier field: old servers ran the bulk CPU path.
        assert_eq!(parsed.tier, ExecTier::Bulk);
        // And the trace/timings fields, which predate trace propagation.
        assert!(parsed.trace_id.is_empty());
        assert_eq!(parsed.batch_ms, 0.0);
        assert_eq!(parsed.tune_ms, 0.0);
        // And the fleet fields, which predate fleet serving.
        assert!(parsed.placed_on.is_empty());
        assert_eq!(parsed.devices, 1);
        // And the memory fields, which predate the rolling tier.
        assert_eq!(parsed.memory_mode, MemoryMode::Full);
        assert_eq!(parsed.table_bytes, 0);
        // And the streaming TTFB, which predates the streaming path.
        assert_eq!(parsed.ttfb_ms, 0.0);
    }

    #[test]
    fn reject_reasons_map_to_codes_and_statuses() {
        let cases: Vec<(RejectReason, &str, u16)> = vec![
            (RejectReason::QueueFull { capacity: 8 }, "queue_full", 429),
            (RejectReason::ShuttingDown, "shutting_down", 503),
            (
                RejectReason::DeadlineExceeded {
                    waited_ms: 10,
                    deadline_ms: 5,
                },
                "deadline_exceeded",
                504,
            ),
            (RejectReason::Invalid("bad".into()), "invalid", 400),
            (
                RejectReason::BreakerOpen { retry_after_s: 2 },
                "breaker_open",
                503,
            ),
            (
                RejectReason::DeadlineInfeasible {
                    estimate_ms: 900,
                    deadline_ms: 100,
                },
                "deadline_infeasible",
                504,
            ),
            (
                RejectReason::TenantQuota {
                    tenant: "acme".into(),
                    retry_after_s: 2,
                },
                "tenant_quota",
                429,
            ),
            (
                RejectReason::BrownoutShed {
                    level: 1,
                    retry_after_s: 1,
                },
                "brownout_shed",
                503,
            ),
            (
                RejectReason::ConnectionsFull { limit: 6 },
                "connections_full",
                503,
            ),
        ];
        for (r, code, status) in cases {
            assert_eq!(r.code(), code);
            assert_eq!(r.http_status(), status);
            assert!(!r.message().is_empty());
            let e = ServeError::Rejected(r);
            assert!(e.to_json().contains(code));
        }
        let b = ServeError::Backend("boom".into());
        assert_eq!(b.http_status(), 500);
        assert_eq!(b.code(), "backend_error");
        assert_eq!(b.retry_after_s(), None);

        // Every backpressure rejection carries a Retry-After hint.
        assert_eq!(
            RejectReason::QueueFull { capacity: 8 }.retry_after_s(),
            Some(1)
        );
        assert_eq!(
            RejectReason::ConnectionsFull { limit: 6 }.retry_after_s(),
            Some(1)
        );
        assert_eq!(
            RejectReason::TenantQuota {
                tenant: "t".into(),
                retry_after_s: 3
            }
            .retry_after_s(),
            Some(3)
        );
        assert_eq!(
            RejectReason::BrownoutShed {
                level: 2,
                retry_after_s: 1
            }
            .retry_after_s(),
            Some(1)
        );
    }

    #[test]
    fn priority_classes_parse_and_separate_batch_keys() {
        assert_eq!(Priority::parse("interactive"), Some(Priority::Interactive));
        assert_eq!(Priority::parse("batch"), Some(Priority::Batch));
        assert_eq!(Priority::parse("bulk"), None);
        assert_eq!(Priority::default(), Priority::Interactive);
        assert_eq!(Priority::Interactive.index(), 0);
        assert_eq!(Priority::Batch.index(), 1);

        // Classes never share a batch (or a tuner artifact slot).
        let fg = SolveRequest::new("lcs", 64);
        let mut bg = SolveRequest::new("lcs", 64);
        bg.priority = Priority::Batch;
        assert_ne!(fg.batch_key(), bg.batch_key());
        assert!(bg.batch_key().label().ends_with("/batch"));
        // Tenants DO share a batch: fairness happens inside it.
        let mut other = bg.clone();
        other.tenant = "acme".into();
        assert_eq!(bg.batch_key(), other.batch_key());
    }

    #[test]
    fn panic_and_watchdog_errors_are_clean_5xx() {
        let p = ServeError::Panicked("kernel bug".into());
        assert_eq!(p.code(), "backend_panic");
        assert_eq!(p.http_status(), 500);
        assert!(p.message().contains("isolated"));

        let w = ServeError::WatchdogTimeout {
            elapsed_ms: 900,
            watchdog_ms: 500,
        };
        assert_eq!(w.code(), "watchdog_timeout");
        assert_eq!(w.http_status(), 504);
        assert!(w.message().contains("900"));

        let open = ServeError::Rejected(RejectReason::BreakerOpen { retry_after_s: 3 });
        assert_eq!(open.retry_after_s(), Some(3));
    }
}
