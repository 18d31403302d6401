//! The HTTP front end under abuse: a slow sender, a silent socket and
//! far more keep-alive connections than the server serves at once. The
//! process's thread count stays at the connection bound plus the
//! server's fixed threads, a client past the bound is told when to
//! retry, and `/healthz` answers again once a slot frees.
//!
//! This file holds one test, so the thread count it reads is this
//! server's and the harness's alone.

#![cfg(target_os = "linux")]

use lddp_core::kernel::ExecTier;
use lddp_core::schedule::ScheduleParams;
use lddp_core::tuner_cache::TunedConfig;
use lddp_serve::http::HttpConnection;
use lddp_serve::{BackendSolve, ServeConfig, Server, SolveBackend, SolveRequest};
use lddp_trace::{NullSink, TraceSink};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

struct Echo;

impl SolveBackend for Echo {
    fn tune(
        &self,
        _req: &SolveRequest,
        _sink: &dyn TraceSink,
    ) -> Result<(TunedConfig, bool), String> {
        Ok((
            TunedConfig::new(ScheduleParams::new(0, 0), ExecTier::Scalar),
            false,
        ))
    }

    fn solve(
        &self,
        req: &SolveRequest,
        config: TunedConfig,
        _sink: &dyn TraceSink,
    ) -> Result<BackendSolve, String> {
        Ok(BackendSolve {
            answer: format!("echo {}", req.n),
            virtual_ms: 0.0,
            params: config.params,
            tier: config.tier,
            memory_mode: config.memory_mode,
            table_bytes: 0,
            degraded: vec![],
            placed_on: None,
            devices: 1,
        })
    }
}

/// This process's thread count.
fn threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status is readable")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("a Threads: line")
}

/// The value of one exposition line, e.g. `lddp_serve_connections_open`.
fn series(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no series {name} in\n{metrics}"))
}

#[test]
fn abuse_keeps_threads_bounded_and_the_server_answering() {
    let (workers, queue_capacity) = (1, 3);
    let bound = workers + queue_capacity;
    let timeout = Duration::from_secs(30);
    let server = Server::new(
        ServeConfig {
            workers,
            queue_capacity,
            ..ServeConfig::default()
        },
        &Echo,
        &NullSink,
    );
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    // A slow sender: a request head that gains one byte every 200 ms,
    // each well inside the idle timeout, for up to 12 s or until the
    // server closes the connection.
    let mut slow = TcpStream::connect(addr).unwrap();
    slow.set_nodelay(true).unwrap();
    slow.write_all(b"POST /solve HTTP/1.1\r\nHost: x\r\nX-Pad: ")
        .unwrap();
    let trickle = std::thread::spawn(move || {
        let started = Instant::now();
        while started.elapsed() < Duration::from_secs(12) && slow.write_all(b"a").is_ok() {
            std::thread::sleep(Duration::from_millis(200));
        }
        started.elapsed()
    });
    // A silent socket: connected, never sends a byte.
    let _silent = TcpStream::connect(addr).unwrap();
    let harness = threads();

    server.run(Some(listener), |client| {
        // Kept-alive connections fill the remaining slots. The server
        // accepts in arrival order, so once these are answered, the
        // slow and the silent socket hold the first two slots.
        let mut kept: Vec<HttpConnection> = (0..bound - 2)
            .map(|_| {
                let mut c = HttpConnection::connect(&addr.to_string(), timeout).unwrap();
                let (status, _) = c.request("GET", "/healthz", None).unwrap();
                assert_eq!(status, 200);
                c
            })
            .collect();

        // Far more connections than the bound: each one, reading before
        // it writes, is told to retry and closed, at once.
        let mut refused = Vec::new();
        for _ in 0..200 {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(timeout)).unwrap();
            let mut reply = String::new();
            s.read_to_string(&mut reply).unwrap();
            assert!(reply.starts_with("HTTP/1.1 503 "), "{reply}");
            assert!(reply.contains("\r\nRetry-After: 1\r\n"), "{reply}");
            assert!(reply.contains("\"error\":\"connections_full\""), "{reply}");
            refused.push(s);
        }
        // Acceptor + workers + one thread per slot, nothing per socket.
        let now = threads();
        assert!(
            now <= harness + 1 + workers + bound,
            "{now} threads with {} sockets open (harness {harness}, bound {bound})",
            refused.len() + bound
        );
        let metrics = client.metrics_text();
        assert_eq!(
            series(&metrics, "lddp_serve_connections_open"),
            bound as f64
        );
        assert!(series(&metrics, "lddp_serve_connections_refused_total") >= 200.0);

        // A slot frees when a kept-alive client hangs up; the next
        // connection to arrive after that is served again.
        drop(kept.pop());
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match lddp_serve::http::request(&addr.to_string(), "GET", "/healthz", None, timeout) {
                Ok((200, body)) => {
                    assert!(body.contains("\"status\":\"ok\""), "{body}");
                    break;
                }
                other => assert!(Instant::now() < deadline, "no slot freed: {other:?}"),
            }
            std::thread::yield_now();
        }

        // The slow sender is cut at its request deadline, not held
        // for as long as it keeps trickling.
        let held = trickle.join().unwrap();
        assert!(held < Duration::from_secs(9), "slow sender held {held:?}");
        let metrics = client.metrics_text();
        assert_eq!(
            series(
                &metrics,
                "lddp_serve_connections_closed_total{reason=\"deadline\"}"
            ),
            1.0
        );
    });
}
