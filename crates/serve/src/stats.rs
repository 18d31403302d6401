//! Server-side counters and latency accounting behind `GET /stats`.
//!
//! Counters are sharded lock-free atomics and latency distributions are
//! log-linear [`HistogramSketch`]es — O(1) memory in request count, so
//! a long-lived server never grows. Every instrument is a
//! [`LiveRegistry`] series, so the same objects are the `/metrics`
//! exposition (one source of truth; `/stats` and `/metrics` can never
//! disagree).

use lddp_trace::json::num;
use lddp_trace::live::{Counter, HistogramSketch, LiveRegistry};
use std::sync::Arc;

/// Interpolated percentile of an ascending-sorted slice (`q` clamped
/// to 0..=1, `NaN` treated as 0). Returns 0 for an empty slice and the
/// element itself for a single-element slice — never indexes out of
/// bounds.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
    let pos = q * (sorted.len() - 1) as f64;
    let lo = (pos.floor() as usize).min(sorted.len() - 1);
    let hi = (pos.ceil() as usize).min(sorted.len() - 1);
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Live counters and latency sketches of one server: `Arc` handles on
/// registry series, so one increment feeds both `/stats` and the
/// Prometheus exposition.
#[derive(Debug)]
pub struct ServeStats {
    pub(crate) accepted: Arc<Counter>,
    pub(crate) completed: Arc<Counter>,
    pub(crate) errors: Arc<Counter>,
    pub(crate) rejected_full: Arc<Counter>,
    pub(crate) rejected_shutdown: Arc<Counter>,
    pub(crate) rejected_deadline: Arc<Counter>,
    pub(crate) rejected_invalid: Arc<Counter>,
    pub(crate) rejected_breaker: Arc<Counter>,
    pub(crate) rejected_infeasible: Arc<Counter>,
    pub(crate) rejected_tenant: Arc<Counter>,
    pub(crate) rejected_brownout: Arc<Counter>,
    pub(crate) panics: Arc<Counter>,
    pub(crate) watchdog_timeouts: Arc<Counter>,
    pub(crate) breaker_opens: Arc<Counter>,
    pub(crate) degraded_solves: Arc<Counter>,
    pub(crate) batches: Arc<Counter>,
    pub(crate) batched_jobs: Arc<Counter>,
    pub(crate) tune_hits: Arc<Counter>,
    pub(crate) tune_misses: Arc<Counter>,
    pub(crate) tier_scalar: Arc<Counter>,
    pub(crate) tier_bulk: Arc<Counter>,
    pub(crate) tier_simd: Arc<Counter>,
    pub(crate) tier_bitparallel: Arc<Counter>,
    /// Per-class accepted counters, indexed by
    /// [`Priority::index`](crate::job::Priority::index).
    pub(crate) class_accepted: [Arc<Counter>; 2],
    /// Per-class completed counters.
    pub(crate) class_completed: [Arc<Counter>; 2],
    /// Per-class shed counters (deadline sheds, brownout sheds, and
    /// class-budget queue-full rejections).
    pub(crate) class_shed: [Arc<Counter>; 2],
    /// Brownout ladder climbs (level went up).
    pub(crate) brownout_engaged: Arc<Counter>,
    /// Brownout ladder descents (level went down).
    pub(crate) brownout_disengaged: Arc<Counter>,
    /// Band frames emitted by streamed solves.
    pub(crate) stream_bands: Arc<Counter>,
    /// Times a streamed solve's band emission blocked because the
    /// consumer's bounded channel was full (backpressure engaged).
    pub(crate) stream_stalls: Arc<Counter>,
    /// Time to first streamed band, admission to emission, seconds.
    pub(crate) stream_ttfb_s: Arc<HistogramSketch>,
    /// Jobs per executed batch.
    pub(crate) batch_size: Arc<HistogramSketch>,
    /// End-to-end latency, seconds.
    total_s: Arc<HistogramSketch>,
    /// Queue-wait latency, seconds.
    queue_s: Arc<HistogramSketch>,
    /// Solve latency, seconds.
    solve_s: Arc<HistogramSketch>,
    /// Per-class end-to-end latency, seconds.
    pub(crate) class_latency_s: [Arc<HistogramSketch>; 2],
}

impl ServeStats {
    /// Stats whose instruments live in `registry` under their
    /// `/metrics` family names, so the Prometheus exposition and the
    /// `/stats` JSON report the same numbers.
    pub fn with_registry(registry: &LiveRegistry) -> ServeStats {
        let rej = |reason: &str| {
            registry.counter(
                "lddp_serve_rejected_total",
                &[("reason", reason)],
                "Requests rejected at admission or in queue, by reason.",
            )
        };
        let fault = |kind: &str| {
            registry.counter(
                "lddp_serve_faults_total",
                &[("kind", kind)],
                "Faults absorbed by the serving stack, by kind.",
            )
        };
        let tune = |result: &str| {
            registry.counter(
                "lddp_serve_tuner_cache_total",
                &[("result", result)],
                "Tuner-cache lookups per batch, by result.",
            )
        };
        let tier = |tier: &str| {
            registry.counter(
                "lddp_serve_solves_total",
                &[("tier", tier)],
                "Completed solves by execution tier.",
            )
        };
        let lat = |kind: &str| {
            registry.histogram(
                "lddp_serve_latency_seconds",
                &[("kind", kind)],
                "Per-request latency split, seconds.",
            )
        };
        let class = |class: &str, outcome: &str| {
            registry.counter(
                "lddp_serve_class_total",
                &[("class", class), ("outcome", outcome)],
                "Per-service-class request outcomes.",
            )
        };
        let class_lat = |class: &str| {
            registry.histogram(
                "lddp_serve_class_latency_seconds",
                &[("class", class)],
                "End-to-end latency by service class, seconds.",
            )
        };
        let brownout = |direction: &str| {
            registry.counter(
                "lddp_serve_brownout_transitions_total",
                &[("direction", direction)],
                "Brownout-ladder level transitions, by direction.",
            )
        };
        ServeStats {
            accepted: registry.counter(
                "lddp_serve_accepted_total",
                &[],
                "Requests admitted to the queue.",
            ),
            completed: registry.counter(
                "lddp_serve_completed_total",
                &[],
                "Requests completed successfully.",
            ),
            errors: registry.counter(
                "lddp_serve_errors_total",
                &[],
                "Requests that failed in the backend.",
            ),
            rejected_full: rej("queue_full"),
            rejected_shutdown: rej("shutting_down"),
            rejected_deadline: rej("deadline"),
            rejected_invalid: rej("invalid"),
            rejected_breaker: rej("breaker_open"),
            rejected_infeasible: rej("deadline_infeasible"),
            rejected_tenant: rej("tenant_quota"),
            rejected_brownout: rej("brownout_shed"),
            panics: fault("panic"),
            watchdog_timeouts: fault("watchdog_timeout"),
            breaker_opens: fault("breaker_open"),
            degraded_solves: fault("degraded"),
            batches: registry.counter("lddp_serve_batches_total", &[], "Batches executed."),
            batched_jobs: registry.counter(
                "lddp_serve_batched_jobs_total",
                &[],
                "Jobs that rode in executed batches.",
            ),
            tune_hits: tune("hit"),
            tune_misses: tune("miss"),
            tier_scalar: tier("scalar"),
            tier_bulk: tier("bulk"),
            tier_simd: tier("simd"),
            tier_bitparallel: tier("bitparallel"),
            class_accepted: [class("interactive", "accepted"), class("batch", "accepted")],
            class_completed: [
                class("interactive", "completed"),
                class("batch", "completed"),
            ],
            class_shed: [class("interactive", "shed"), class("batch", "shed")],
            brownout_engaged: brownout("engage"),
            brownout_disengaged: brownout("disengage"),
            stream_bands: registry.counter(
                "lddp_serve_stream_bands_total",
                &[],
                "Band frames emitted by streamed solves.",
            ),
            stream_stalls: registry.counter(
                "lddp_serve_stream_backpressure_stalls_total",
                &[],
                "Band emissions that blocked on a full stream channel \
                 (slow consumer backpressure).",
            ),
            stream_ttfb_s: registry.histogram(
                "lddp_serve_stream_ttfb_seconds",
                &[],
                "Time from admission to the first streamed band frame, seconds.",
            ),
            batch_size: registry.histogram(
                "lddp_serve_batch_size",
                &[],
                "Jobs per executed batch.",
            ),
            total_s: lat("total"),
            queue_s: lat("queue_wait"),
            solve_s: lat("solve"),
            class_latency_s: [class_lat("interactive"), class_lat("batch")],
        }
    }

    /// Records one completed request's latency split (milliseconds in,
    /// stored as seconds).
    pub(crate) fn record_latency(&self, total_ms: f64, queue_ms: f64, solve_ms: f64) {
        self.total_s.observe(total_ms * 1e-3);
        self.queue_s.observe(queue_ms * 1e-3);
        self.solve_s.observe(solve_ms * 1e-3);
    }

    /// Point-in-time copy of every counter and latency distribution.
    pub fn snapshot(
        &self,
        queue_depth: usize,
        in_flight: usize,
        draining: bool,
        brownout_level: u8,
    ) -> StatsSnapshot {
        StatsSnapshot {
            accepted: self.accepted.get(),
            completed: self.completed.get(),
            errors: self.errors.get(),
            rejected_full: self.rejected_full.get(),
            rejected_shutdown: self.rejected_shutdown.get(),
            rejected_deadline: self.rejected_deadline.get(),
            rejected_invalid: self.rejected_invalid.get(),
            rejected_breaker: self.rejected_breaker.get(),
            rejected_infeasible: self.rejected_infeasible.get(),
            rejected_tenant: self.rejected_tenant.get(),
            rejected_brownout: self.rejected_brownout.get(),
            panics: self.panics.get(),
            watchdog_timeouts: self.watchdog_timeouts.get(),
            breaker_opens: self.breaker_opens.get(),
            degraded_solves: self.degraded_solves.get(),
            batches: self.batches.get(),
            batched_jobs: self.batched_jobs.get(),
            tune_hits: self.tune_hits.get(),
            tune_misses: self.tune_misses.get(),
            tier_scalar: self.tier_scalar.get(),
            tier_bulk: self.tier_bulk.get(),
            tier_simd: self.tier_simd.get(),
            tier_bitparallel: self.tier_bitparallel.get(),
            queue_depth,
            in_flight,
            draining,
            brownout_level,
            class_accepted: [self.class_accepted[0].get(), self.class_accepted[1].get()],
            class_completed: [self.class_completed[0].get(), self.class_completed[1].get()],
            class_shed: [self.class_shed[0].get(), self.class_shed[1].get()],
            brownout_engaged: self.brownout_engaged.get(),
            brownout_disengaged: self.brownout_disengaged.get(),
            total: LatencySummary::from_sketch(&self.total_s),
            queue: LatencySummary::from_sketch(&self.queue_s),
            solve: LatencySummary::from_sketch(&self.solve_s),
            class_latency: [
                LatencySummary::from_sketch(&self.class_latency_s[0]),
                LatencySummary::from_sketch(&self.class_latency_s[1]),
            ],
        }
    }
}

/// Percentile summary of one latency kind, milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Median (sketch estimate, relative error ≤
    /// [`lddp_trace::live::SKETCH_RELATIVE_ERROR`]).
    pub p50_ms: f64,
    /// 95th percentile (sketch estimate).
    pub p95_ms: f64,
    /// 99th percentile (sketch estimate).
    pub p99_ms: f64,
    /// Exact largest sample.
    pub max_ms: f64,
}

impl LatencySummary {
    /// The summary of a seconds-valued sketch, reported in ms.
    pub(crate) fn from_sketch(sketch: &HistogramSketch) -> LatencySummary {
        LatencySummary {
            count: sketch.count(),
            p50_ms: sketch.quantile(0.50) * 1e3,
            p95_ms: sketch.quantile(0.95) * 1e3,
            p99_ms: sketch.quantile(0.99) * 1e3,
            max_ms: sketch.max() * 1e3,
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"p50_ms\":{},\"p95_ms\":{},\"p99_ms\":{},\"max_ms\":{}}}",
            self.count,
            num(self.p50_ms),
            num(self.p95_ms),
            num(self.p99_ms),
            num(self.max_ms)
        )
    }
}

/// What `GET /stats` serializes.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Requests admitted.
    pub accepted: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests that failed in the backend.
    pub errors: u64,
    /// Rejections: queue at capacity.
    pub rejected_full: u64,
    /// Rejections: draining.
    pub rejected_shutdown: u64,
    /// Rejections: deadline expired in queue.
    pub rejected_deadline: u64,
    /// Rejections: invalid request.
    pub rejected_invalid: u64,
    /// Rejections: circuit breaker open.
    pub rejected_breaker: u64,
    /// Rejections: §IV estimate says the deadline cannot be met.
    pub rejected_infeasible: u64,
    /// Rejections: tenant over admission quota.
    pub rejected_tenant: u64,
    /// Rejections: brownout ladder shedding batch-class admissions.
    pub rejected_brownout: u64,
    /// Backend panics caught and isolated (each answered with a 500).
    pub panics: u64,
    /// Solves withheld for blowing the watchdog budget.
    pub watchdog_timeouts: u64,
    /// Circuit-breaker trips (→ open).
    pub breaker_opens: u64,
    /// Solves that succeeded only after degradation.
    pub degraded_solves: u64,
    /// Batches executed.
    pub batches: u64,
    /// Jobs that rode in those batches.
    pub batched_jobs: u64,
    /// Tuner-cache hits (per batch).
    pub tune_hits: u64,
    /// Tuner-cache misses (per batch).
    pub tune_misses: u64,
    /// Solves that ran on the scalar cell-at-a-time tier.
    pub tier_scalar: u64,
    /// Solves that ran on the bulk run-at-a-time tier.
    pub tier_bulk: u64,
    /// Solves that ran on the SIMD lane tier.
    pub tier_simd: u64,
    /// Solves that ran on the bit-parallel tier.
    pub tier_bitparallel: u64,
    /// Jobs queued right now.
    pub queue_depth: usize,
    /// Jobs being solved right now.
    pub in_flight: usize,
    /// Whether the server is draining.
    pub draining: bool,
    /// Current brownout-ladder level (0 = normal service).
    pub brownout_level: u8,
    /// Requests admitted, by class (interactive, batch).
    pub class_accepted: [u64; 2],
    /// Requests completed, by class.
    pub class_completed: [u64; 2],
    /// Requests shed (deadline, brownout, class budget), by class.
    pub class_shed: [u64; 2],
    /// Brownout-ladder climbs recorded.
    pub brownout_engaged: u64,
    /// Brownout-ladder descents recorded.
    pub brownout_disengaged: u64,
    /// End-to-end latency (admission → reply).
    pub total: LatencySummary,
    /// Queue-wait latency.
    pub queue: LatencySummary,
    /// Solve latency.
    pub solve: LatencySummary,
    /// End-to-end latency by class (interactive, batch).
    pub class_latency: [LatencySummary; 2],
}

impl StatsSnapshot {
    /// Total rejections across reasons.
    pub fn rejected(&self) -> u64 {
        self.rejected_full
            + self.rejected_shutdown
            + self.rejected_deadline
            + self.rejected_invalid
            + self.rejected_breaker
            + self.rejected_infeasible
            + self.rejected_tenant
            + self.rejected_brownout
    }

    /// Mean jobs per executed batch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_jobs as f64 / self.batches as f64
        }
    }

    /// The `GET /stats` JSON body.
    pub fn to_json(&self) -> String {
        let class = |i: usize| {
            format!(
                "{{\"accepted\":{},\"completed\":{},\"shed\":{},\"latency_ms\":{}}}",
                self.class_accepted[i],
                self.class_completed[i],
                self.class_shed[i],
                self.class_latency[i].to_json()
            )
        };
        format!(
            "{{\"accepted\":{},\"completed\":{},\"errors\":{},\
             \"rejected\":{{\"queue_full\":{},\"shutting_down\":{},\"deadline\":{},\"invalid\":{},\"breaker_open\":{},\
             \"deadline_infeasible\":{},\"tenant_quota\":{},\"brownout_shed\":{}}},\
             \"faults\":{{\"panics\":{},\"watchdog_timeouts\":{},\"breaker_opens\":{},\"degraded_solves\":{}}},\
             \"qos\":{{\"brownout_level\":{},\"brownout_engaged\":{},\"brownout_disengaged\":{},\
             \"interactive\":{},\"batch\":{}}},\
             \"batches\":{},\"mean_batch_size\":{},\
             \"tuner_cache\":{{\"hits\":{},\"misses\":{}}},\
             \"tiers\":{{\"scalar\":{},\"bulk\":{},\"simd\":{},\"bitparallel\":{}}},\
             \"queue_depth\":{},\"in_flight\":{},\"draining\":{},\
             \"latency_ms\":{{\"total\":{},\"queue\":{},\"solve\":{}}}}}",
            self.accepted,
            self.completed,
            self.errors,
            self.rejected_full,
            self.rejected_shutdown,
            self.rejected_deadline,
            self.rejected_invalid,
            self.rejected_breaker,
            self.rejected_infeasible,
            self.rejected_tenant,
            self.rejected_brownout,
            self.panics,
            self.watchdog_timeouts,
            self.breaker_opens,
            self.degraded_solves,
            self.brownout_level,
            self.brownout_engaged,
            self.brownout_disengaged,
            class(0),
            class(1),
            self.batches,
            num(self.mean_batch_size()),
            self.tune_hits,
            self.tune_misses,
            self.tier_scalar,
            self.tier_bulk,
            self.tier_simd,
            self.tier_bitparallel,
            self.queue_depth,
            self.in_flight,
            self.draining,
            self.total.to_json(),
            self.queue.to_json(),
            self.solve.to_json(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert!((percentile(&v, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_edge_cases_never_index_out_of_bounds() {
        // Empty input → 0.0 at every q.
        assert_eq!(percentile(&[], 0.0), 0.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[], 1.0), 0.0);
        // Single element → the element, regardless of q.
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[7.0], 1.0), 7.0);
        // Out-of-range and non-finite q clamp instead of panicking.
        assert_eq!(percentile(&[1.0, 2.0], -3.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 17.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0], f64::NAN), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], f64::INFINITY), 2.0);
    }

    #[test]
    fn snapshot_serializes_parseable_json() {
        let stats = ServeStats::with_registry(&LiveRegistry::new());
        stats.accepted.add(3);
        stats.completed.add(2);
        stats.rejected_full.add(1);
        stats.batches.add(2);
        stats.batched_jobs.add(3);
        stats.tier_simd.add(2);
        stats.record_latency(10.0, 2.0, 8.0);
        stats.record_latency(20.0, 4.0, 16.0);
        stats.class_accepted[0].add(2);
        stats.class_shed[1].add(1);
        stats.rejected_tenant.add(1);
        let snap = stats.snapshot(1, 1, false, 2);
        assert_eq!(snap.rejected(), 2);
        assert!((snap.mean_batch_size() - 1.5).abs() < 1e-12);
        let v = lddp_trace::json::parse(&snap.to_json()).unwrap();
        assert_eq!(v.get("accepted").and_then(|j| j.as_f64()), Some(3.0));
        let lat = v.get("latency_ms").unwrap().get("total").unwrap();
        assert_eq!(lat.get("count").and_then(|j| j.as_f64()), Some(2.0));
        assert!(lat.get("p99_ms").and_then(|j| j.as_f64()).unwrap() >= 10.0);
        assert_eq!(
            v.get("rejected")
                .unwrap()
                .get("queue_full")
                .and_then(|j| j.as_f64()),
            Some(1.0)
        );
        let faults = v.get("faults").expect("faults object");
        for key in [
            "panics",
            "watchdog_timeouts",
            "breaker_opens",
            "degraded_solves",
        ] {
            assert!(faults.get(key).and_then(|j| j.as_f64()).is_some(), "{key}");
        }
        assert_eq!(
            v.get("rejected")
                .unwrap()
                .get("breaker_open")
                .and_then(|j| j.as_f64()),
            Some(0.0)
        );
        let tiers = v.get("tiers").expect("tiers object");
        assert_eq!(tiers.get("simd").and_then(|j| j.as_f64()), Some(2.0));
        for key in ["scalar", "bulk", "bitparallel"] {
            assert_eq!(tiers.get(key).and_then(|j| j.as_f64()), Some(0.0), "{key}");
        }
        // The QoS section: brownout level and per-class outcomes.
        let qos = v.get("qos").expect("qos object");
        assert_eq!(
            qos.get("brownout_level").and_then(|j| j.as_f64()),
            Some(2.0)
        );
        let fg = qos.get("interactive").expect("interactive class");
        assert_eq!(fg.get("accepted").and_then(|j| j.as_f64()), Some(2.0));
        let bg = qos.get("batch").expect("batch class");
        assert_eq!(bg.get("shed").and_then(|j| j.as_f64()), Some(1.0));
        assert_eq!(
            v.get("rejected")
                .unwrap()
                .get("tenant_quota")
                .and_then(|j| j.as_f64()),
            Some(1.0)
        );
    }

    /// The sketch replaces the old sample reservoir: memory stays fixed
    /// no matter how many samples arrive, the count is exact, and the
    /// percentiles stay within the sketch's documented relative error.
    #[test]
    fn latency_sketch_is_bounded_and_accurate() {
        use lddp_trace::live::SKETCH_RELATIVE_ERROR;
        let stats = ServeStats::with_registry(&LiveRegistry::new());
        let n = 200_000u64;
        for i in 1..=n {
            // 1 µs … 200 ms, uniform in index.
            let ms = i as f64 * 1e-3;
            stats.record_latency(ms, ms * 0.25, ms * 0.5);
        }
        let snap = stats.snapshot(0, 0, false, 0);
        assert_eq!(snap.total.count, n);
        let exact_p50 = (n / 2) as f64 * 1e-3;
        let rel = (snap.total.p50_ms - exact_p50).abs() / exact_p50;
        assert!(rel <= SKETCH_RELATIVE_ERROR + 1e-9, "rel={rel}");
        assert!((snap.total.max_ms - n as f64 * 1e-3).abs() < 1e-9);
        assert!(snap.total.p50_ms <= snap.total.p95_ms);
        assert!(snap.total.p95_ms <= snap.total.p99_ms);
        assert!(snap.total.p99_ms <= snap.total.max_ms + 1e-12);
    }

    /// Registry-backed stats are the same objects the exposition
    /// renders: incrementing through `ServeStats` shows up in
    /// `to_prometheus` with no copy step.
    #[test]
    fn registry_backed_stats_feed_the_exposition() {
        let registry = LiveRegistry::new();
        let stats = ServeStats::with_registry(&registry);
        stats.accepted.add(4);
        stats.rejected_breaker.add(1);
        stats.tier_bulk.add(2);
        stats.record_latency(12.0, 1.0, 10.0);
        stats.class_accepted[1].add(3);
        stats.class_latency_s[0].observe(0.012);
        stats.brownout_engaged.inc();
        let text = registry.to_prometheus();
        assert!(text.contains("lddp_serve_accepted_total 4\n"), "{text}");
        assert!(text.contains("lddp_serve_rejected_total{reason=\"breaker_open\"} 1\n"));
        assert!(text.contains("lddp_serve_solves_total{tier=\"bulk\"} 2\n"));
        assert!(text.contains("lddp_serve_latency_seconds_count{kind=\"total\"} 1\n"));
        assert!(
            text.contains("lddp_serve_class_total{class=\"batch\",outcome=\"accepted\"} 3\n"),
            "{text}"
        );
        assert!(text.contains("lddp_serve_class_latency_seconds_count{class=\"interactive\"} 1\n"));
        assert!(text.contains("lddp_serve_brownout_transitions_total{direction=\"engage\"} 1\n"));
    }
}
