//! End-to-end acceptance tests for the serving stack: a real
//! [`FrameworkBackend`] behind [`lddp_serve::Server`], driven by the
//! load generator — in process and over the hand-rolled HTTP front
//! end — with answers checked against the sequential oracle and the
//! trace export checked for the per-request span catalog.

use lddp::serve_backend::FrameworkBackend;
use lddp_serve::loadgen::{self, HttpTarget, LoadgenConfig};
use lddp_serve::{ServeConfig, Server, SolveRequest};
use lddp_trace::{catalog, chrome, json, NullSink};
use std::net::TcpListener;
use std::time::Duration;

fn config(workers: usize, queue: usize, batch: usize) -> ServeConfig {
    ServeConfig {
        workers,
        queue_capacity: queue,
        max_batch: batch,
        ..ServeConfig::default()
    }
}

/// The acceptance-criteria run: ≥500 requests through the real solve
/// path with zero errors, zero rejections, and every answer equal to
/// the sequential oracle's.
#[test]
fn five_hundred_request_run_is_error_free_and_oracle_checked() {
    let oracle = lddp::cli::run_solve_seq("lcs", 64).unwrap();
    let backend = FrameworkBackend::new();
    let server = Server::new(config(4, 256, 8), &backend, &NullSink);
    let report = server.run(None, |client| {
        let cfg = LoadgenConfig {
            request: SolveRequest::new("lcs", 64),
            total: 500,
            concurrency: 8,
            expect_answer: Some(oracle.clone()),
            ..LoadgenConfig::default()
        };
        loadgen::run(client, &cfg)
    });

    assert_eq!(report.sent, 500);
    assert_eq!(report.completed, 500, "by_code: {:?}", report.by_code);
    assert_eq!(report.errors, 0);
    assert_eq!(report.rejected, 0);
    assert_eq!(
        report.mismatches, 0,
        "served answers diverged from the oracle"
    );
    assert_eq!(report.rejection_rate, 0.0);
    assert!(report.throughput_rps > 0.0);
    assert_eq!(report.latency.count, 500);
    assert!(report.latency.p50_ms <= report.latency.p95_ms);
    assert!(report.latency.p95_ms <= report.latency.p99_ms);
    assert!(report.latency.p99_ms <= report.latency.max_ms);
}

/// Batching amortizes tuning: one hot key, many requests, far fewer
/// tuner sweeps than solves.
#[test]
fn batches_amortize_tuning_across_the_run() {
    let backend = FrameworkBackend::new();
    // One worker makes the batch accounting deterministic: submissions
    // pile up while the first batch tunes, so exactly one cold sweep.
    let server = Server::new(config(1, 256, 16), &backend, &NullSink);
    let snapshot = server.run(None, |client| {
        let pending: Vec<_> = (0..64)
            .map(|_| client.submit(SolveRequest::new("lcs", 48)).unwrap())
            .collect();
        for rx in pending {
            rx.recv().unwrap().unwrap();
        }
        client.snapshot()
    });
    assert_eq!(snapshot.completed, 64);
    assert_eq!(
        snapshot.tune_misses, 1,
        "one cold sweep for the one hot key"
    );
    assert!(
        snapshot.batches < 64,
        "expected multi-job batches, got {} batches",
        snapshot.batches
    );
    assert!(snapshot.tune_hits + snapshot.tune_misses == snapshot.batches);
}

/// Mixed problems keep their own answers: interleaved submissions of
/// different kernels all match their own oracles.
#[test]
fn mixed_problem_streams_stay_correct() {
    let problems = ["lcs", "levenshtein", "weighted-edit", "dithering", "dtw"];
    let backend = FrameworkBackend::new();
    let server = Server::new(config(3, 256, 4), &backend, &NullSink);
    server.run(None, |client| {
        let pending: Vec<_> = (0..30)
            .map(|i| {
                let name = problems[i % problems.len()];
                (name, client.submit(SolveRequest::new(name, 40)).unwrap())
            })
            .collect();
        for (name, rx) in pending {
            let resp = rx.recv().unwrap().unwrap();
            let oracle = lddp::cli::run_solve_seq(name, 40).unwrap();
            assert_eq!(resp.answer, oracle, "{name}");
        }
    });
}

/// The HTTP front end serves a full loadgen run, and the server's
/// flight ring exports to Chrome/Perfetto JSON carrying the queue-wait,
/// batch, and solve spans for the served requests.
#[test]
fn http_run_exports_perfetto_timeline_with_serve_spans() {
    let oracle = lddp::cli::run_solve_seq("levenshtein", 48).unwrap();
    let backend = FrameworkBackend::new();
    let server = Server::new(config(2, 64, 4), &backend, &NullSink);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();

    let report = server.run(Some(listener), |client| {
        let target = HttpTarget::new(addr.clone(), Duration::from_secs(30));
        let cfg = LoadgenConfig {
            request: SolveRequest::new("levenshtein", 48),
            total: 40,
            concurrency: 4,
            expect_answer: Some(oracle.clone()),
            ..LoadgenConfig::default()
        };
        let report = loadgen::run(&target, &cfg);
        client.shutdown();
        report
    });

    assert_eq!(report.completed, 40, "by_code: {:?}", report.by_code);
    assert_eq!(report.errors, 0);
    assert_eq!(report.mismatches, 0);

    let data = server.live().flight().snapshot_since(f64::NEG_INFINITY);
    for span in [
        catalog::SPAN_QUEUE_WAIT,
        catalog::SPAN_BATCH,
        catalog::SPAN_SOLVE,
    ] {
        let count = data.spans.iter().filter(|s| s.name == span).count();
        assert!(count > 0, "no {span} spans recorded");
    }
    let waits = data
        .spans
        .iter()
        .filter(|s| s.name == catalog::SPAN_QUEUE_WAIT)
        .count();
    assert_eq!(waits, 40, "one queue-wait span per served request");
    let stats = server.snapshot();
    assert_eq!(stats.completed, 40);
    assert_eq!(stats.accepted, 40);

    // The export must be loadable: valid JSON in the Chrome trace shape
    // (object with a traceEvents array mentioning the serve spans).
    let exported = chrome::to_chrome_json(&data);
    let parsed = json::parse(&exported).expect("chrome export is valid JSON");
    let events = parsed.get("traceEvents").expect("traceEvents key present");
    assert!(matches!(events, json::Json::Arr(_)));
    assert!(exported.contains(catalog::SPAN_QUEUE_WAIT));
    assert!(exported.contains(catalog::SPAN_SOLVE));
}

/// The live-telemetry acceptance path over real HTTP: a mid-run
/// `/metrics` scrape agrees with `/stats`, every solve response carries
/// a trace id (header and body timings block), and `/debug/trace`
/// exports a just-completed request's spans.
#[test]
fn live_metrics_trace_ids_and_flight_recorder_over_http() {
    use lddp_serve::http;
    use lddp_trace::live::parse_prometheus;

    let oracle = lddp::cli::run_solve_seq("lcs", 48).unwrap();
    // One registry shared by server and backend, exactly as `lddp-cli
    // serve` wires it.
    let live = std::sync::Arc::new(lddp_trace::live::LiveRegistry::new());
    let backend = FrameworkBackend::new().with_live(std::sync::Arc::clone(&live));
    let mut server = Server::new(config(2, 64, 4), &backend, &NullSink);
    server.attach_live(live);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();

    server.run(Some(listener), |client| {
        let timeout = Duration::from_secs(30);
        let cfg = LoadgenConfig {
            request: SolveRequest::new("lcs", 48),
            total: 20,
            concurrency: 4,
            expect_answer: Some(oracle.clone()),
            ..LoadgenConfig::default()
        };
        let target = HttpTarget::new(addr.clone(), timeout);
        let report = loadgen::run(&target, &cfg);
        assert_eq!(report.completed, 20, "by_code: {:?}", report.by_code);

        // One more request by hand to inspect the raw response.
        let (status, head, body) = http::request_with_head(
            &addr,
            "POST",
            "/solve",
            Some(&SolveRequest::new("lcs", 48).to_json()),
            timeout,
        )
        .unwrap();
        assert_eq!(status, 200, "{body}");
        let trace_id = head
            .lines()
            .find_map(|l| l.strip_prefix("X-LDDP-Trace-Id: "))
            .expect("solve response carries the trace-id header")
            .trim()
            .to_string();
        assert_eq!(trace_id.len(), 16, "hex-rendered u64: {trace_id}");
        assert!(
            body.contains(&format!("\"trace_id\":\"{trace_id}\"")),
            "header and body trace ids must match: {head}\n{body}"
        );
        assert!(body.contains("\"timings\":{"), "{body}");
        assert!(body.contains("\"queue_wait_ms\":"), "{body}");

        // Mid-run scrape: the server is still live (not draining), and
        // with no requests in flight /metrics and /stats must agree.
        let (ms, metrics) = http::request(&addr, "GET", "/metrics", None, timeout).unwrap();
        let (ss, stats) = http::request(&addr, "GET", "/stats", None, timeout).unwrap();
        assert_eq!((ms, ss), (200, 200));
        let series = parse_prometheus(&metrics);
        let metric = |name: &str| {
            series
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("missing series {name} in:\n{metrics}"))
        };
        let stats = lddp_trace::json::parse(&stats).expect("/stats is valid JSON");
        for (series_name, stats_key) in [
            ("lddp_serve_accepted_total", "accepted"),
            ("lddp_serve_completed_total", "completed"),
            ("lddp_serve_queue_depth", "queue_depth"),
        ] {
            let from_stats = stats
                .get(stats_key)
                .and_then(lddp_trace::json::Json::as_f64)
                .unwrap_or_else(|| panic!("/stats missing {stats_key}"));
            assert_eq!(
                metric(series_name),
                from_stats,
                "{series_name} disagrees with /stats {stats_key}"
            );
        }
        assert_eq!(metric("lddp_serve_completed_total"), 21.0);
        // Backend families share the exposition: pool solves ran, and
        // the single hot tune key cost at most one sweep per worker
        // (two workers can race the same cache miss).
        assert!(metrics.contains("lddp_pool_solves_total"), "{metrics}");
        let sweeps = metric("lddp_tuner_sweeps_total");
        assert!(
            (1.0..=2.0).contains(&sweeps),
            "expected 1-2 tuner sweeps for one hot key, got {sweeps}"
        );

        // The flight recorder must still hold the hand-made request:
        // its solve span, findable by trace id, exports as Chrome JSON.
        let (ts, trace) =
            http::request(&addr, "GET", "/debug/trace?last_ms=60000", None, timeout).unwrap();
        assert_eq!(ts, 200);
        let parsed = json::parse(&trace).expect("/debug/trace is valid JSON");
        assert!(matches!(
            parsed.get("traceEvents"),
            Some(json::Json::Arr(_))
        ));
        assert!(trace.contains(catalog::SPAN_SOLVE), "{trace}");
        assert!(
            trace.contains(&trace_id),
            "just-completed request's spans missing from /debug/trace"
        );

        client.shutdown();
    });
}

/// Backpressure under overload: a tiny queue behind a slow worker pool
/// rejects with `queue_full` rather than stalling, and the loadgen
/// report classifies those as rejections, not errors.
#[test]
fn overload_rejects_cleanly_instead_of_erroring() {
    let backend = FrameworkBackend::new();
    let server = Server::new(config(1, 2, 1), &backend, &NullSink);
    let report = server.run(None, |client| {
        let cfg = LoadgenConfig {
            request: SolveRequest::new("lcs", 256),
            total: 60,
            concurrency: 16,
            ..LoadgenConfig::default()
        };
        loadgen::run(client, &cfg)
    });
    assert_eq!(report.sent, 60);
    assert_eq!(report.errors, 0, "overload must not surface as errors");
    assert_eq!(report.completed + report.rejected, 60);
    if report.rejected > 0 {
        assert!(report.rejection_rate > 0.0);
        assert!(report
            .by_code
            .iter()
            .any(|(code, _)| code == "queue_full" || code == "deadline_exceeded"));
    }
}
