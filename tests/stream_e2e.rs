//! End-to-end acceptance tests for streamed solves
//! (`POST /solve?stream=1`): band frames must arrive in order with
//! monotone progress, the final answer must be bit-identical to the
//! non-streamed path and the sequential oracle, a slow reader must
//! backpressure the solve rather than buffer unboundedly, rejections
//! must come back as plain (non-chunked) responses, and a fleet request
//! priced as a cross-device split must stream the engine's wave bands
//! like any other.

use lddp::fleet_backend::{FleetBackend, FLEET_SPLIT_DEVICES};
use lddp::serve_backend::FrameworkBackend;
use lddp_serve::http::HttpConnection;
use lddp_serve::loadgen::{self, HttpTarget, LoadgenConfig};
use lddp_serve::{BandFrame, ServeConfig, Server, SolveRequest};
use lddp_trace::NullSink;
use std::net::TcpListener;
use std::time::Duration;

fn config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        queue_capacity: 64,
        max_batch: 4,
        ..ServeConfig::default()
    }
}

/// Every frame sequence a streamed solve emits must be band-ordered
/// with monotone progress, ending on a sealed final band. (Grid rows
/// come from the frames themselves — sequence kernels carry a boundary
/// row, so the grid is one larger than the instance side.)
fn check_frames(problem: &str, frames: &[BandFrame]) {
    assert!(!frames.is_empty(), "{problem}: no band frames");
    let rows = frames[0].rows;
    let mut cells = 0u64;
    for (k, f) in frames.iter().enumerate() {
        assert_eq!(f.band, k, "{problem}: bands out of order");
        assert_eq!(f.bands, frames.len(), "{problem}: band count disagrees");
        assert!(f.cells_done > cells, "{problem}: progress not monotone");
        cells = f.cells_done;
        assert!(f.wave_lo <= f.wave_hi);
        assert_eq!(f.rows, rows, "{problem}: grid height changed mid-stream");
        assert!(f.rows_completed <= rows);
    }
    let last = frames.last().unwrap();
    assert_eq!(last.cells_done, last.cells_total, "{problem}: unsealed end");
    assert_eq!(
        last.rows_completed, rows,
        "{problem}: final band seals all rows"
    );
}

/// The tentpole's bit-identity criterion: for every wave problem, the
/// streamed solve's final answer equals both the non-streamed solve and
/// the sequential oracle, and the frames satisfy the band invariants.
#[test]
fn streamed_answers_are_bit_identical_across_all_wave_problems() {
    let n = 160;
    let backend = FrameworkBackend::new();
    let server = Server::new(config(2), &backend, &NullSink);
    server.run(None, |client| {
        for problem in [
            "lcs",
            "levenshtein",
            "dtw",
            "needleman-wunsch",
            "smith-waterman",
            "weighted-edit",
            "maxsquare",
        ] {
            let oracle = lddp::cli::run_solve_seq(problem, n).unwrap();
            let plain = client.solve(SolveRequest::new(problem, n)).unwrap();
            let mut frames: Vec<BandFrame> = Vec::new();
            let streamed = client
                .solve_stream(SolveRequest::new(problem, n), &mut |f| {
                    frames.push(f.clone())
                })
                .unwrap();
            assert_eq!(streamed.answer, oracle, "{problem}: streamed vs oracle");
            assert_eq!(
                streamed.answer, plain.answer,
                "{problem}: streamed vs plain"
            );
            assert!(streamed.ttfb_ms > 0.0, "{problem}: no first-band timestamp");
            check_frames(problem, &frames);
        }
    });
}

/// Every pattern streams off its ring: knight-move dithering and
/// horizontal checkerboard send their wave bands in order, with
/// strictly rising progress ending at the grid's cell count, and a done
/// frame whose answer is the sequential oracle's.
#[test]
fn every_pattern_streams_its_wave_bands() {
    let n = 48;
    let backend = FrameworkBackend::new();
    let server = Server::new(config(2), &backend, &NullSink);
    server.run(None, |client| {
        for problem in ["dithering", "checkerboard"] {
            let oracle = lddp::cli::run_solve_seq(problem, n).unwrap();
            let mut frames: Vec<BandFrame> = Vec::new();
            let resp = client
                .solve_stream(SolveRequest::new(problem, n), &mut |f| {
                    frames.push(f.clone())
                })
                .unwrap();
            assert_eq!(resp.answer, oracle, "{problem}");
            assert!(resp.ttfb_ms > 0.0, "{problem}: no first-band timestamp");
            check_frames(problem, &frames);
            let last = frames.last().unwrap();
            assert_eq!(last.rows, n, "{problem}");
            assert_eq!(last.cells_done, (n * n) as u64, "{problem}");
        }
    });
}

/// A reader that sleeps between frames must stall the emitter through
/// the bounded channel (counted as backpressure) without corrupting
/// the answer.
#[test]
fn slow_reader_backpressures_without_corrupting_the_answer() {
    let n = 256;
    let oracle = lddp::cli::run_solve_seq("lcs", n).unwrap();
    let backend = FrameworkBackend::new();
    let server = Server::new(config(2), &backend, &NullSink);
    server.run(None, |client| {
        let mut bands = 0usize;
        let resp = client
            .solve_stream(SolveRequest::new("lcs", n), &mut |_| {
                bands += 1;
                std::thread::sleep(Duration::from_millis(3));
            })
            .unwrap();
        assert_eq!(resp.answer, oracle);
        assert!(bands > 4, "expected many bands, got {bands}");
        let metrics = client.metrics_text();
        let stalls = metrics
            .lines()
            .find(|l| l.starts_with("lddp_serve_stream_backpressure_stalls_total"))
            .and_then(|l| l.split_whitespace().last())
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0);
        assert!(
            stalls > 0.0,
            "a 3 ms/frame reader against a depth-4 channel must stall: {metrics}"
        );
        assert!(metrics.contains("lddp_serve_stream_bands_total"));
        assert!(metrics.contains("lddp_serve_stream_ttfb_seconds"));
        assert!(metrics.contains("lddp_serve_stream_open 0"));
    });
}

/// Over real HTTP: the streamed run's time-to-first-band must beat the
/// total latency (the CI smoke asserts the strict ≤25% ratio at
/// n = 8192 on a release build; here the bound is lenient for debug),
/// and the answers must still pass the oracle.
#[test]
fn http_stream_first_band_beats_total_latency() {
    let n = 1024;
    let oracle = lddp::cli::run_solve_seq("lcs", n).unwrap();
    let backend = FrameworkBackend::new();
    let server = Server::new(config(2), &backend, &NullSink);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let report = server.run(Some(listener), |client| {
        let target = HttpTarget::new(addr.clone(), Duration::from_secs(60));
        let cfg = LoadgenConfig {
            request: SolveRequest::new("lcs", n),
            total: 4,
            concurrency: 1,
            expect_answer: Some(oracle.clone()),
            stream: true,
            ..LoadgenConfig::default()
        };
        let report = loadgen::run(&target, &cfg);
        client.shutdown();
        report
    });
    assert_eq!(report.completed, 4, "by_code: {:?}", report.by_code);
    assert_eq!(report.mismatches, 0, "streamed answers diverged");
    assert_eq!(report.ttfb.count, 4, "every request saw a first band");
    assert!(report.stream_bands >= 4, "bands: {}", report.stream_bands);
    assert!(
        report.ttfb.p50_ms < report.latency.p50_ms,
        "first band (p50 {} ms) must land before the full solve (p50 {} ms)",
        report.ttfb.p50_ms,
        report.latency.p50_ms
    );
}

/// A rejected stream request must come back as an ordinary non-chunked
/// error response, not a chunked stream.
#[test]
fn stream_rejections_are_plain_responses() {
    let backend = FrameworkBackend::new();
    let server = Server::new(config(1), &backend, &NullSink);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    server.run(Some(listener), |client| {
        let mut conn = HttpConnection::connect(&addr, Duration::from_secs(5)).unwrap();
        let mut chunks = 0usize;
        let outcome = conn
            .request_stream(
                "POST",
                "/solve?stream=1",
                Some("{\"problem\":\"nonsense\",\"n\":64}"),
                &mut |_| chunks += 1,
            )
            .unwrap();
        assert_eq!(outcome.status, 400);
        assert_eq!(chunks, 0, "a rejection must not open a chunked stream");
        let body = outcome.plain_body.expect("plain (non-chunked) error body");
        assert!(body.contains("unknown problem"), "{body}");
        // The connection stays aligned for keep-alive reuse: a valid
        // streamed solve succeeds on the same socket.
        let mut bands = 0usize;
        let ok = conn
            .request_stream(
                "POST",
                "/solve?stream=1",
                Some("{\"problem\":\"lcs\",\"n\":64}"),
                &mut |_| bands += 1,
            )
            .unwrap();
        assert_eq!(ok.status, 200);
        assert!(ok.plain_body.is_none(), "a stream has no plain body");
        assert!(bands >= 2, "band frames plus the done frame: {bands}");
        client.shutdown();
    });
}

/// A fleet request priced as a cross-device split is answered by the
/// placed pool's engine, so its stream carries the engine's live wave
/// bands off the rolling ring, like every other stream.
#[test]
fn fleet_split_streams_live_wave_bands() {
    let n = 512;
    let oracle = lddp::cli::run_solve_seq("lcs", n).unwrap();
    let backend = FleetBackend::new();
    let server = Server::new(config(2), &backend, &NullSink);
    server.run(None, |client| {
        let mut frames: Vec<BandFrame> = Vec::new();
        let resp = client
            .solve_stream(SolveRequest::new("lcs", n), &mut |f| frames.push(f.clone()))
            .unwrap();
        assert_eq!(resp.answer, oracle);
        assert_eq!(resp.devices, FLEET_SPLIT_DEVICES);
        assert!(
            frames.len() > FLEET_SPLIT_DEVICES,
            "wave bands, not one frame per device: {}",
            frames.len()
        );
        for pair in frames.windows(2) {
            assert!(pair[1].cells_done > pair[0].cells_done, "progress stalled");
        }
        let last = frames.last().unwrap();
        assert_eq!(last.cells_done, last.cells_total);
        assert_eq!(last.rows_completed, last.rows);
    });
}
