//! # lddp-serve — a batching solve server for LDDP workloads
//!
//! This crate turns the one-shot `Framework::solve` path into a
//! long-running service with the properties a shared deployment needs:
//!
//! - **Admission control & backpressure** — a bounded [`JobQueue`];
//!   when it is full, requests are rejected immediately with
//!   [`RejectReason::QueueFull`] (HTTP 429) instead of queueing without
//!   bound. Requests may carry a deadline and are rejected with 504 if
//!   it expires while they wait.
//! - **Batching** — the dequeue side gathers queued requests sharing a
//!   [`BatchKey`] (problem, size bucket, platform, pinned params) so
//!   the expensive §V-A tuning step runs **once per batch** and its
//!   result is amortized — backed by
//!   [`lddp_core::tuner_cache::TunerCache`] across batches.
//! - **Per-request tracing** — every request emits `serve.queue_wait`,
//!   `serve.batch`, `serve.tune`, and `serve.solve` spans plus the
//!   counters in [`lddp_trace::catalog`], so a traced serve run opens
//!   in Perfetto with one lane per worker. Each request also gets a
//!   trace id at admission, returned in the response body and the
//!   `X-LDDP-Trace-Id` header.
//! - **Live telemetry** — counters, gauges, and latency sketches
//!   publish into a [`lddp_trace::live::LiveRegistry`] behind
//!   `GET /metrics` (Prometheus text exposition), and an always-on
//!   flight recorder keeps the last few thousand spans for
//!   `GET /debug/trace` (Chrome trace JSON) — no sink, flag, or
//!   restart required. See `docs/OBSERVABILITY.md`.
//! - **Quality of service** — two service classes
//!   (`interactive`/`batch`) with separate queue budgets, EDF ordering
//!   within each class, per-tenant admission quotas (`429
//!   tenant_quota`), §IV cost-model feasibility rejection of
//!   un-meetable deadlines (`504 deadline_infeasible`), and a
//!   [`brownout`] ladder that sheds batch work in graduated steps
//!   under sustained queue pressure. See `docs/SERVING.md`.
//! - **Streaming results** — `POST /solve?stream=1` answers over
//!   chunked HTTP/1.1 with one JSON [`BandFrame`] per completed
//!   wave-band of the rolling execution, so results flow while the
//!   pool is still solving; a slow reader throttles band emission
//!   through a bounded channel (the pool stalls at a wave barrier)
//!   instead of buffering unboundedly. See `docs/SERVING.md`.
//! - **Graceful shutdown** — `POST /shutdown` (or
//!   [`Client::shutdown`]) closes admission, drains the queue, answers
//!   everything in flight, then joins every thread.
//! - **Fault isolation & degradation** — backend panics are caught per
//!   solve (the request gets a clean 500, the worker survives), a
//!   per-solve watchdog turns runaway solves into 504s, and a circuit
//!   breaker refuses work with 503 + `Retry-After` after consecutive
//!   backend failures, flipping `/healthz` to `degraded` until a
//!   half-open probe succeeds. See `docs/ROBUSTNESS.md`.
//!
//! The crate is std-only and backend-agnostic: the actual tuning and
//! solving sit behind [`SolveBackend`], implemented by the umbrella
//! `lddp` crate (and by mocks in tests). Front ends: a hand-rolled
//! HTTP/1.1 endpoint (`POST /solve`, `GET /healthz`, `GET /stats`,
//! `GET /metrics`, `GET /debug/trace`, `POST /shutdown`) over
//! `std::net`, and the in-process [`Client`]. [`loadgen`] drives
//! either through the same engine.

pub mod brownout;
pub mod http;
pub mod job;
pub mod loadgen;
pub mod queue;
pub mod server;
pub mod stats;
pub mod stream;

pub use brownout::{Brownout, BrownoutConfig};
pub use job::{BatchKey, Priority, RejectReason, ServeError, SolveRequest, SolveResponse};
pub use queue::{Job, JobQueue, Popped};
pub use server::{
    BackendSolve, BatchPlan, Client, PoolHealth, ServeConfig, Server, SolveBackend, StreamHandle,
};
pub use stats::{LatencySummary, ServeStats, StatsSnapshot};
pub use stream::BandFrame;

#[cfg(test)]
mod tests {
    use super::*;
    use lddp_core::kernel::ExecTier;
    use lddp_core::schedule::ScheduleParams;
    use lddp_core::tuner_cache::TunedConfig;
    use lddp_trace::{NullSink, TraceSink};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// Deterministic fake backend: answers `"<problem>:<n>"`, counts
    /// tune calls, and can be slowed down, made to fail, made to
    /// panic, or made to report a degraded solve. For QoS tests it can
    /// also report a fixed §IV cost estimate.
    struct MockBackend {
        tunes: AtomicUsize,
        solves: AtomicUsize,
        solve_delay: Duration,
        fail_problem: Option<&'static str>,
        panic_problem: Option<&'static str>,
        degrade_problem: Option<&'static str>,
        estimate_ms: Option<f64>,
    }

    impl MockBackend {
        fn new() -> MockBackend {
            MockBackend {
                tunes: AtomicUsize::new(0),
                solves: AtomicUsize::new(0),
                solve_delay: Duration::ZERO,
                fail_problem: None,
                panic_problem: None,
                degrade_problem: None,
                estimate_ms: None,
            }
        }
    }

    impl SolveBackend for MockBackend {
        fn validate(&self, req: &SolveRequest) -> Result<(), String> {
            if req.problem == "unknown" {
                Err(format!("unknown problem \"{}\"", req.problem))
            } else {
                Ok(())
            }
        }

        fn tune(
            &self,
            _probe: &SolveRequest,
            _sink: &dyn TraceSink,
        ) -> Result<(TunedConfig, bool), String> {
            let prior = self.tunes.fetch_add(1, Ordering::SeqCst);
            let config = TunedConfig::new(ScheduleParams::new(2, 16), ExecTier::Simd);
            Ok((config, prior > 0))
        }

        fn estimate_ms(&self, _req: &SolveRequest) -> Option<f64> {
            self.estimate_ms
        }

        fn solve(
            &self,
            req: &SolveRequest,
            config: TunedConfig,
            _sink: &dyn TraceSink,
        ) -> Result<BackendSolve, String> {
            self.solves.fetch_add(1, Ordering::SeqCst);
            if !self.solve_delay.is_zero() {
                std::thread::sleep(self.solve_delay);
            }
            if self.fail_problem == Some(req.problem.as_str()) {
                return Err("kernel exploded".to_string());
            }
            if self.panic_problem == Some(req.problem.as_str()) {
                panic!("kernel bug in {}", req.problem);
            }
            let degraded = if self.degrade_problem == Some(req.problem.as_str()) {
                vec!["bulk_to_scalar".to_string()]
            } else {
                vec![]
            };
            Ok(BackendSolve {
                answer: format!("{}:{}", req.problem, req.n),
                virtual_ms: 0.5,
                params: config.params,
                tier: config.tier,
                memory_mode: config.memory_mode,
                table_bytes: 0,
                degraded,
                placed_on: None,
                devices: 1,
            })
        }
    }

    #[test]
    fn in_process_solve_round_trips() {
        let backend = MockBackend::new();
        let server = Server::new(ServeConfig::default(), &backend, &NullSink);
        let resp = server
            .run(None, |client| client.solve(SolveRequest::new("lcs", 128)))
            .unwrap();
        assert_eq!(resp.answer, "lcs:128");
        assert_eq!(resp.params, ScheduleParams::new(2, 16));
        assert_eq!(resp.tier, ExecTier::Simd);
        assert!(resp.batch_size >= 1);
    }

    #[test]
    fn invalid_requests_are_rejected_at_admission() {
        let backend = MockBackend::new();
        let server = Server::new(ServeConfig::default(), &backend, &NullSink);
        let err = server
            .run(None, |client| {
                client.solve(SolveRequest::new("unknown", 64))
            })
            .unwrap_err();
        assert_eq!(err.code(), "invalid");
        assert_eq!(backend.solves.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn backend_failures_surface_as_backend_errors() {
        let mut backend = MockBackend::new();
        backend.fail_problem = Some("bad");
        let server = Server::new(ServeConfig::default(), &backend, &NullSink);
        let err = server
            .run(None, |client| client.solve(SolveRequest::new("bad", 64)))
            .unwrap_err();
        assert_eq!(err.code(), "backend_error");
        let snap = server.snapshot();
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.completed, 0);
    }

    #[test]
    fn tune_runs_once_per_batch_and_amortizes() {
        let backend = MockBackend::new();
        let config = ServeConfig {
            workers: 1,
            max_batch: 32,
            ..ServeConfig::default()
        };
        let server = Server::new(config, &backend, &NullSink);
        server.run(None, |client| {
            // Pile up same-key requests, then wait for them together;
            // a single worker picks them up as (at most a few) batches.
            let rxs: Vec<_> = (0..16)
                .map(|_| client.submit(SolveRequest::new("lcs", 256)).unwrap())
                .collect();
            for rx in rxs {
                let resp = rx.recv().unwrap().unwrap();
                assert_eq!(resp.answer, "lcs:256");
            }
        });
        let solves = backend.solves.load(Ordering::SeqCst);
        let tunes = backend.tunes.load(Ordering::SeqCst);
        assert_eq!(solves, 16);
        assert!(
            tunes < solves,
            "tuning should be amortized: {tunes} tunes for {solves} solves"
        );
        let snap = server.snapshot();
        assert_eq!(snap.completed, 16);
        assert!(snap.mean_batch_size() > 1.0);
    }

    #[test]
    fn queue_full_rejects_with_backpressure() {
        let mut backend = MockBackend::new();
        backend.solve_delay = Duration::from_millis(20);
        let config = ServeConfig {
            workers: 1,
            queue_capacity: 2,
            max_batch: 1,
            ..ServeConfig::default()
        };
        let server = Server::new(config, &backend, &NullSink);
        server.run(None, |client| {
            let mut rejected = 0;
            let mut rxs = Vec::new();
            for _ in 0..12 {
                match client.submit(SolveRequest::new("lcs", 64)) {
                    Ok(rx) => rxs.push(rx),
                    Err(RejectReason::QueueFull { capacity }) => {
                        assert_eq!(capacity, 2);
                        rejected += 1;
                    }
                    Err(other) => panic!("unexpected rejection {other:?}"),
                }
            }
            assert!(rejected > 0, "tiny queue under burst must shed load");
            for rx in rxs {
                rx.recv().unwrap().unwrap();
            }
            assert!(client.snapshot().rejected_full > 0);
        });
    }

    #[test]
    fn expired_deadlines_reject_instead_of_solving() {
        let mut backend = MockBackend::new();
        backend.solve_delay = Duration::from_millis(30);
        let config = ServeConfig {
            workers: 1,
            max_batch: 1,
            ..ServeConfig::default()
        };
        let server = Server::new(config, &backend, &NullSink);
        server.run(None, |client| {
            // First request occupies the worker (the sleep lets it be
            // picked up — EDF would otherwise pop the deadline-carrying
            // job first); the second's 1 ms deadline then expires while
            // it queues behind the in-flight solve.
            let slow = client.submit(SolveRequest::new("lcs", 64)).unwrap();
            std::thread::sleep(Duration::from_millis(10));
            let mut hasty_req = SolveRequest::new("lcs", 64);
            hasty_req.deadline_ms = Some(1);
            let hasty = client.submit(hasty_req).unwrap();
            slow.recv().unwrap().unwrap();
            let err = hasty.recv().unwrap().unwrap_err();
            assert_eq!(err.code(), "deadline_exceeded");
        });
        let snap = server.snapshot();
        assert_eq!(snap.rejected_deadline, 1);
        assert_eq!(snap.completed, 1);
    }

    #[test]
    fn shutdown_drains_and_then_rejects() {
        let backend = MockBackend::new();
        let server = Server::new(ServeConfig::default(), &backend, &NullSink);
        server.run(None, |client| {
            let rx = client.submit(SolveRequest::new("lcs", 64)).unwrap();
            client.shutdown();
            // Admitted before shutdown → still answered.
            rx.recv().unwrap().unwrap();
            // Admitted after → shed.
            match client.submit(SolveRequest::new("lcs", 64)) {
                Err(RejectReason::ShuttingDown) => {}
                other => panic!("expected shutting_down, got {other:?}"),
            }
            client.wait_shutdown(); // returns immediately once draining
        });
    }

    #[test]
    fn traced_run_emits_queue_batch_solve_spans_and_counters() {
        let backend = MockBackend::new();
        let server = Server::new(ServeConfig::default(), &backend, &NullSink);
        server.run(None, |client| {
            for _ in 0..3 {
                client.solve(SolveRequest::new("dtw", 128)).unwrap();
            }
        });
        let data = server.live().flight().snapshot_since(f64::NEG_INFINITY);
        let span_names: Vec<&str> = data.spans.iter().map(|s| s.name.as_str()).collect();
        for expected in [
            lddp_trace::catalog::SPAN_QUEUE_WAIT,
            lddp_trace::catalog::SPAN_BATCH,
            lddp_trace::catalog::SPAN_SOLVE,
        ] {
            assert!(
                span_names.contains(&expected),
                "missing span {expected:?} in {span_names:?}"
            );
        }
        // One queue-depth sample per admission.
        let depths = data
            .samples
            .iter()
            .filter(|c| c.name == lddp_trace::catalog::SMP_QUEUE_DEPTH)
            .count();
        assert_eq!(depths, 3);
        let text = server.metrics_text();
        for expected in [
            "lddp_serve_accepted_total 3\n",
            "lddp_serve_completed_total 3\n",
            "lddp_serve_solves_total{tier=\"simd\"} 3\n",
        ] {
            assert!(text.contains(expected), "missing {expected:?} in {text}");
        }
        assert!(server.snapshot().batches > 0);
    }

    #[test]
    fn backend_panic_is_isolated_and_worker_survives() {
        let mut backend = MockBackend::new();
        backend.panic_problem = Some("boom");
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let server = Server::new(config, &backend, &NullSink);
        server.run(None, |client| {
            let err = client.solve(SolveRequest::new("boom", 64)).unwrap_err();
            assert_eq!(err.code(), "backend_panic");
            assert_eq!(err.http_status(), 500);
            assert!(err.message().contains("kernel bug"));
            // The single worker caught the panic and keeps serving.
            let ok = client.solve(SolveRequest::new("lcs", 64)).unwrap();
            assert_eq!(ok.answer, "lcs:64");
        });
        let snap = server.snapshot();
        assert_eq!(snap.panics, 1);
        assert_eq!(snap.completed, 1);
    }

    #[test]
    fn breaker_trips_after_consecutive_failures_and_rejects_503() {
        let mut backend = MockBackend::new();
        backend.fail_problem = Some("bad");
        let config = ServeConfig {
            workers: 1,
            max_batch: 1,
            breaker_failure_threshold: 2,
            breaker_open_ms: 60_000,
            ..ServeConfig::default()
        };
        let server = Server::new(config, &backend, &NullSink);
        server.run(None, |client| {
            for _ in 0..2 {
                let err = client.solve(SolveRequest::new("bad", 64)).unwrap_err();
                assert_eq!(err.code(), "backend_error");
            }
            // The breaker is now open: admission refuses with 503 and a
            // retry hint, and health reports degraded.
            let err = client.solve(SolveRequest::new("lcs", 64)).unwrap_err();
            assert_eq!(err.code(), "breaker_open");
            assert_eq!(err.http_status(), 503);
            assert!(err.retry_after_s().is_some());
            let health = client.healthz_json();
            assert!(health.contains("\"status\":\"degraded\""), "{health}");
            assert!(health.contains("\"breaker\":\"open\""), "{health}");
        });
        let snap = server.snapshot();
        assert_eq!(snap.breaker_opens, 1);
        assert!(snap.rejected_breaker >= 1);
    }

    #[test]
    fn breaker_recovers_through_half_open_probe() {
        let mut backend = MockBackend::new();
        backend.fail_problem = Some("bad");
        let config = ServeConfig {
            workers: 1,
            max_batch: 1,
            breaker_failure_threshold: 1,
            breaker_open_ms: 30,
            ..ServeConfig::default()
        };
        let server = Server::new(config, &backend, &NullSink);
        server.run(None, |client| {
            client.solve(SolveRequest::new("bad", 64)).unwrap_err();
            // Open: immediate refusal.
            let err = client.solve(SolveRequest::new("lcs", 64)).unwrap_err();
            assert_eq!(err.code(), "breaker_open");
            // After the cool-off the half-open probe goes through; its
            // success closes the breaker again.
            std::thread::sleep(Duration::from_millis(40));
            let ok = client.solve(SolveRequest::new("lcs", 64)).unwrap();
            assert_eq!(ok.answer, "lcs:64");
            let health = client.healthz_json();
            assert!(health.contains("\"breaker\":\"closed\""), "{health}");
        });
    }

    #[test]
    fn watchdog_withholds_slow_answers_as_504() {
        let mut backend = MockBackend::new();
        backend.solve_delay = Duration::from_millis(25);
        let config = ServeConfig {
            workers: 1,
            watchdog_ms: Some(5),
            ..ServeConfig::default()
        };
        let server = Server::new(config, &backend, &NullSink);
        server.run(None, |client| {
            let err = client.solve(SolveRequest::new("lcs", 64)).unwrap_err();
            assert_eq!(err.code(), "watchdog_timeout");
            assert_eq!(err.http_status(), 504);
        });
        let snap = server.snapshot();
        assert_eq!(snap.watchdog_timeouts, 1);
        assert_eq!(snap.completed, 0);
    }

    #[test]
    fn degraded_solves_are_reported_and_counted() {
        let mut backend = MockBackend::new();
        backend.degrade_problem = Some("wobbly");
        let server = Server::new(ServeConfig::default(), &backend, &NullSink);
        server.run(None, |client| {
            let resp = client.solve(SolveRequest::new("wobbly", 64)).unwrap();
            assert_eq!(resp.degraded, vec!["bulk_to_scalar".to_string()]);
            let clean = client.solve(SolveRequest::new("lcs", 64)).unwrap();
            assert!(clean.degraded.is_empty());
        });
        let snap = server.snapshot();
        assert_eq!(snap.degraded_solves, 1);
        assert_eq!(snap.completed, 2);
    }

    #[test]
    fn responses_carry_trace_ids_and_timings() {
        let backend = MockBackend::new();
        let mut server = Server::new(ServeConfig::default(), &backend, &NullSink);
        server.set_trace_seed(7);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let timeout = Duration::from_secs(10);
        server.run(Some(listener), |client| {
            // In-process path: the response itself carries the id.
            let resp = client.solve(SolveRequest::new("lcs", 64)).unwrap();
            assert_eq!(resp.trace_id.len(), 16);
            assert!(resp.trace_id.chars().all(|c| c.is_ascii_hexdigit()));
            assert!(resp.tune_ms >= 0.0 && resp.batch_ms >= 0.0);

            // HTTP path: body and X-LDDP-Trace-Id header agree.
            let (status, head, body) = http::request_with_head(
                &addr,
                "POST",
                "/solve",
                Some(r#"{"problem":"lcs","n":64}"#),
                timeout,
            )
            .unwrap();
            assert_eq!(status, 200, "{body}");
            let wire = SolveResponse::from_json(&body).unwrap();
            assert!(
                head.contains(&format!("X-LDDP-Trace-Id: {}", wire.trace_id)),
                "{head}"
            );
            assert_ne!(wire.trace_id, resp.trace_id, "ids are per-request");
            let v = lddp_trace::json::parse(&body).unwrap();
            let timings = v.get("timings").expect("timings object");
            for key in ["queue_wait_ms", "batch_ms", "tune_ms", "solve_ms"] {
                assert!(timings.get(key).and_then(|j| j.as_f64()).is_some(), "{key}");
            }
            assert_eq!(timings.get("tier").and_then(|j| j.as_str()), Some("simd"));
        });
    }

    #[test]
    fn http_front_end_serves_all_routes() {
        let backend = MockBackend::new();
        let server = Server::new(ServeConfig::default(), &backend, &NullSink);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let timeout = Duration::from_secs(10);
        server.run(Some(listener), |_client| {
            let (status, body) = http::request(
                &addr,
                "POST",
                "/solve",
                Some(r#"{"problem":"lcs","n":96}"#),
                timeout,
            )
            .unwrap();
            assert_eq!(status, 200, "{body}");
            let resp = SolveResponse::from_json(&body).unwrap();
            assert_eq!(resp.answer, "lcs:96");

            let (status, body) =
                http::request(&addr, "POST", "/solve", Some(r#"{"n":5}"#), timeout).unwrap();
            assert_eq!(status, 400, "{body}");

            let (status, body) = http::request(&addr, "GET", "/healthz", None, timeout).unwrap();
            assert_eq!(status, 200);
            assert!(body.contains("\"status\":\"ok\""), "{body}");

            let (status, body) = http::request(&addr, "GET", "/stats", None, timeout).unwrap();
            assert_eq!(status, 200);
            let v = lddp_trace::json::parse(&body).unwrap();
            assert_eq!(v.get("completed").and_then(|j| j.as_f64()), Some(1.0));

            let (status, head, body) =
                http::request_with_head(&addr, "GET", "/metrics", None, timeout).unwrap();
            assert_eq!(status, 200);
            assert!(
                head.contains("Content-Type: text/plain; version=0.0.4"),
                "{head}"
            );
            assert!(body.contains("lddp_serve_completed_total 1"), "{body}");
            assert!(body.contains("lddp_serve_queue_depth 0"), "{body}");

            let (status, body) =
                http::request(&addr, "GET", "/debug/trace?last_ms=60000", None, timeout).unwrap();
            assert_eq!(status, 200);
            assert!(body.contains("\"serve.solve\""), "{body}");

            let (status, _) = http::request(&addr, "GET", "/nope", None, timeout).unwrap();
            assert_eq!(status, 404);
            let (status, _) = http::request(&addr, "DELETE", "/stats", None, timeout).unwrap();
            assert_eq!(status, 405);
            let (status, _) = http::request(&addr, "POST", "/metrics", None, timeout).unwrap();
            assert_eq!(status, 405);

            let (status, body) = http::request(&addr, "POST", "/shutdown", None, timeout).unwrap();
            assert_eq!(status, 200);
            assert!(body.contains("draining"), "{body}");
        });
        // run() returning proves the drain joined every thread.
    }

    #[test]
    fn infeasible_deadlines_fail_fast_without_solving() {
        let mut backend = MockBackend::new();
        backend.estimate_ms = Some(5_000.0);
        let server = Server::new(ServeConfig::default(), &backend, &NullSink);
        server.run(None, |client| {
            // The §IV estimate (5 s) outruns the 50 ms deadline:
            // rejected at admission, no solve slot spent.
            let mut req = SolveRequest::new("lcs", 64);
            req.deadline_ms = Some(50);
            let err = client.solve(req).unwrap_err();
            assert_eq!(err.code(), "deadline_infeasible");
            assert_eq!(err.http_status(), 504);
            // Deadline-free requests skip the feasibility check.
            let ok = client.solve(SolveRequest::new("lcs", 64)).unwrap();
            assert_eq!(ok.answer, "lcs:64");
        });
        assert_eq!(backend.solves.load(Ordering::SeqCst), 1);
        let snap = server.snapshot();
        assert_eq!(snap.rejected_infeasible, 1);
        assert_eq!(snap.completed, 1);
    }

    #[test]
    fn tenant_quota_rejects_over_rate_submitters() {
        let backend = MockBackend::new();
        let config = ServeConfig {
            tenant_quota_rps: Some(0.1),
            tenant_quota_burst: 2.0,
            ..ServeConfig::default()
        };
        let server = Server::new(config, &backend, &NullSink);
        server.run(None, |client| {
            let tenant_req = || {
                let mut r = SolveRequest::new("lcs", 64);
                r.tenant = "acme".to_string();
                r
            };
            // Burst of 2 goes through; the third is over quota.
            client.solve(tenant_req()).unwrap();
            client.solve(tenant_req()).unwrap();
            let err = client.solve(tenant_req()).unwrap_err();
            assert_eq!(err.code(), "tenant_quota");
            assert_eq!(err.http_status(), 429);
            assert!(err.retry_after_s().unwrap_or(0) >= 1);
            // Unattributed requests are not quota'd.
            for _ in 0..5 {
                client.solve(SolveRequest::new("lcs", 64)).unwrap();
            }
        });
        let snap = server.snapshot();
        assert_eq!(snap.rejected_tenant, 1);
        assert_eq!(snap.completed, 7);
        let metrics = server.metrics_text();
        assert!(
            metrics.contains("lddp_serve_tenant_total{tenant=\"acme\",outcome=\"accepted\"} 2"),
            "{metrics}"
        );
        assert!(
            metrics.contains("lddp_serve_tenant_total{tenant=\"acme\",outcome=\"rejected\"} 1"),
            "{metrics}"
        );
    }

    #[test]
    fn brownout_ladder_sheds_batch_and_recovers() {
        let mut backend = MockBackend::new();
        backend.solve_delay = Duration::from_millis(20);
        let config = ServeConfig {
            workers: 1,
            max_batch: 1,
            queue_capacity: 8,
            batch_queue_capacity: Some(8),
            brownout: BrownoutConfig {
                high_watermark: 0.5,
                low_watermark: 0.25,
                engage_after: 3,
                disengage_after: 3,
                max_level: 1,
            },
            ..ServeConfig::default()
        };
        let server = Server::new(config, &backend, &NullSink);
        server.run(None, |client| {
            // Flood the interactive class: the pushes alone hold fill
            // above the high watermark long enough to engage level 1.
            let rxs: Vec<_> = (0..8)
                .map(|_| client.submit(SolveRequest::new("lcs", 64)).unwrap())
                .collect();
            // Batch admissions are now shed; interactive never is.
            let mut batch_req = SolveRequest::new("lcs", 64);
            batch_req.priority = Priority::Batch;
            match client.submit(batch_req) {
                Err(RejectReason::BrownoutShed {
                    level,
                    retry_after_s,
                }) => {
                    assert_eq!(level, 1);
                    assert!(retry_after_s >= 1);
                }
                other => panic!("expected brownout shed, got {other:?}"),
            }
            // Drain; dequeue-side observations walk the ladder back
            // down with hysteresis.
            for rx in rxs {
                rx.recv().unwrap().unwrap();
            }
            let mut batch_req = SolveRequest::new("lcs", 64);
            batch_req.priority = Priority::Batch;
            let ok = client.solve(batch_req).unwrap();
            assert_eq!(ok.answer, "lcs:64");
        });
        let snap = server.snapshot();
        assert_eq!(snap.brownout_level, 0, "ladder fully disengaged");
        assert!(snap.brownout_engaged >= 1);
        assert!(snap.brownout_disengaged >= 1);
        assert_eq!(snap.rejected_brownout, 1);
        assert_eq!(snap.class_accepted[0], 8);
        assert_eq!(snap.class_accepted[1], 1);
        assert_eq!(snap.class_shed[1], 1);
        assert_eq!(snap.class_shed[0], 0, "interactive is never brownout-shed");
    }

    #[test]
    fn admission_storm_floods_batch_class_without_touching_submitter() {
        struct StormOnce(AtomicUsize);
        impl lddp_chaos::FaultInjector for StormOnce {
            fn active(&self) -> bool {
                true
            }
            fn admission_storm(&self) -> Option<usize> {
                if self.0.fetch_add(1, Ordering::SeqCst) == 0 {
                    Some(3)
                } else {
                    None
                }
            }
        }
        let backend = MockBackend::new();
        let injector = StormOnce(AtomicUsize::new(0));
        let server = Server::with_injector(ServeConfig::default(), &backend, &NullSink, &injector);
        server.run(None, |client| {
            // The carrying request still succeeds; the storm rides in
            // as synthetic batch-class arrivals on a reserved tenant.
            let resp = client.solve(SolveRequest::new("lcs", 64)).unwrap();
            assert_eq!(resp.answer, "lcs:64");
        });
        let snap = server.snapshot();
        assert_eq!(snap.class_accepted[1], 3, "storm clones are batch class");
        assert_eq!(snap.class_accepted[0], 1);
        assert_eq!(snap.completed, 4, "drain answers the storm clones too");
        let metrics = server.metrics_text();
        assert!(
            metrics.contains("lddp_chaos_injected_total{site=\"admission_storm\"} 1"),
            "{metrics}"
        );
        assert!(
            metrics
                .contains("lddp_serve_tenant_total{tenant=\"chaos-storm\",outcome=\"accepted\"} 3"),
            "{metrics}"
        );
    }
}
