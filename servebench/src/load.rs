//! Workload definitions, one checked HTTP exchange, and the closed loop
//! that drives a server for a fixed window.

use crate::client::Conn;
use crate::json::{self, Json};
use crate::spans::Spans;
use std::net::SocketAddr;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// One traffic mix. Every workload is a closed loop: each client sends
/// its next request only once the previous reply has fully arrived.
pub struct Workload {
    pub name: &'static str,
    /// Problems cycled round-robin; this is also the warm-up order.
    pub problems: &'static [&'static str],
    pub n: usize,
    /// `POST /solve?stream=1` instead of a plain `POST /solve`.
    pub stream: bool,
    /// A new TCP connection (`Connection: close`) for every request.
    pub oneshot: bool,
    pub clients: usize,
    /// Run `lddp-cli serve --fleet` instead of the plain server.
    pub fleet: bool,
    /// Server starts per run; `setup_s` is their median. More where a
    /// start is short and noisy.
    pub setup_trials: usize,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "grid-2k",
        problems: &["levenshtein", "needleman-wunsch", "dtw"],
        n: 2048,
        stream: false,
        oneshot: false,
        clients: 2,
        fleet: false,
        setup_trials: 7,
    },
    Workload {
        name: "grid-4k",
        problems: &["levenshtein", "needleman-wunsch", "dtw"],
        n: 4096,
        stream: false,
        oneshot: false,
        clients: 2,
        fleet: false,
        setup_trials: 5,
    },
    Workload {
        name: "oneshot-256",
        problems: &["lcs"],
        n: 256,
        stream: false,
        oneshot: true,
        clients: 1,
        fleet: false,
        setup_trials: 15,
    },
    Workload {
        name: "stream-8k",
        problems: &["levenshtein"],
        n: 8192,
        stream: true,
        oneshot: false,
        clients: 1,
        fleet: false,
        setup_trials: 3,
    },
    Workload {
        name: "fleet-1k",
        problems: &["levenshtein", "needleman-wunsch", "dtw"],
        n: 1024,
        stream: false,
        oneshot: false,
        clients: 2,
        fleet: true,
        setup_trials: 5,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One distinct request of a workload with the answer it must get.
pub struct Request {
    pub problem: &'static str,
    pub n: usize,
    pub stream: bool,
    pub expected: String,
}

impl Request {
    pub fn body(&self) -> String {
        format!("{{\"problem\":\"{}\",\"n\":{}}}", self.problem, self.n)
    }

    pub fn path(&self) -> &'static str {
        if self.stream {
            "/solve?stream=1"
        } else {
            "/solve"
        }
    }
}

/// A completed, checked exchange.
#[derive(Debug, Clone)]
pub struct Reply {
    pub problem: &'static str,
    /// When the request started (the connect on one-shot requests).
    pub start: Instant,
    pub cells: u64,
    /// Request start (connect on one-shot requests) to the answer's last
    /// byte.
    pub latency: Duration,
    /// To the first band frame on a stream, to the full reply otherwise.
    pub first: Duration,
    pub tier: String,
    pub memory_mode: String,
    pub devices: usize,
    /// Response frames: band frames plus the done frame on a stream, 1
    /// for a plain reply.
    pub frames: usize,
}

/// Why an exchange failed.
#[derive(Debug, Clone)]
pub enum Failure {
    /// Connect, read or write error, or a malformed reply.
    Transport(String),
    /// A status other than 200.
    Status(u16, String),
    /// A reply that parsed but carried the wrong answer or broke the
    /// stream's frame order.
    Wrong(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Transport(m) => write!(f, "transport: {m}"),
            Failure::Status(s, m) => write!(f, "status {s}: {m}"),
            Failure::Wrong(m) => write!(f, "wrong answer: {m}"),
        }
    }
}

/// Sends `req` and checks the reply. On a kept-alive client `conn` is
/// reused (and opened when empty); a one-shot client opens a fresh
/// connection inside the timed interval and drops it afterwards.
pub fn exchange(
    conn: &mut Option<Conn>,
    addr: SocketAddr,
    req: &Request,
    oneshot: bool,
) -> Result<Reply, Failure> {
    let t0 = Instant::now();
    let result = exchange_inner(conn, addr, req, oneshot, t0);
    if oneshot || result.is_err() {
        *conn = None;
    }
    result
}

fn exchange_inner(
    conn: &mut Option<Conn>,
    addr: SocketAddr,
    req: &Request,
    oneshot: bool,
    t0: Instant,
) -> Result<Reply, Failure> {
    if conn.is_none() {
        *conn = Some(Conn::connect(addr).map_err(Failure::Transport)?);
    }
    let c = conn.as_mut().expect("connection opened above");
    c.send("POST", req.path(), &req.body(), oneshot)
        .map_err(Failure::Transport)?;
    let head = c.read_head().map_err(Failure::Transport)?;
    if head.status != 200 || !head.chunked {
        let body = c.read_body(&head).map_err(Failure::Transport)?;
        if head.status != 200 {
            return Err(Failure::Status(head.status, body));
        }
        if req.stream {
            return Err(Failure::Wrong(
                "stream answered without chunked framing".into(),
            ));
        }
        let latency = t0.elapsed();
        let v = json::parse(&body).map_err(Failure::Transport)?;
        return finish(req, &v, t0, latency, latency, 1);
    }
    if !req.stream {
        return Err(Failure::Wrong(
            "plain solve answered as a chunked stream".into(),
        ));
    }
    let cells_total = stream_cells_total(req);
    let mut first = None;
    let mut next_band = 0usize;
    let mut bands = None;
    let mut last_done = 0u64;
    loop {
        let chunk = c
            .read_chunk()
            .map_err(Failure::Transport)?
            .ok_or_else(|| Failure::Wrong("stream ended without a done frame".into()))?;
        let v = json::parse(&chunk).map_err(Failure::Transport)?;
        match v.str("frame") {
            Some("band") => {
                first.get_or_insert_with(|| t0.elapsed());
                let num = |k: &str| {
                    v.num(k)
                        .ok_or_else(|| Failure::Wrong(format!("band frame without {k}")))
                };
                let band = num("band")? as usize;
                let of = num("bands")? as usize;
                let done = num("cells_done")? as u64;
                let total = num("cells_total")? as u64;
                if band != next_band || *bands.get_or_insert(of) != of || band >= of {
                    return Err(Failure::Wrong(format!(
                        "band {band} of {of} out of order (expected {next_band})"
                    )));
                }
                if done <= last_done || total != cells_total || done > total {
                    return Err(Failure::Wrong(format!(
                        "cells_done {done} after {last_done} of {total} (grid has {cells_total})"
                    )));
                }
                next_band += 1;
                last_done = done;
            }
            Some("done") => {
                let latency = t0.elapsed();
                if next_band == 0 || Some(next_band) != bands || last_done != cells_total {
                    return Err(Failure::Wrong(format!(
                        "done after {next_band} of {bands:?} bands, cells_done {last_done} of {cells_total}"
                    )));
                }
                let reply = finish(
                    req,
                    &v,
                    t0,
                    latency,
                    first.unwrap_or(latency),
                    next_band + 1,
                )?;
                match c.read_chunk().map_err(Failure::Transport)? {
                    None => return Ok(reply),
                    Some(_) => return Err(Failure::Wrong("frames after the done frame".into())),
                }
            }
            Some("error") => return Err(Failure::Status(200, chunk)),
            _ => return Err(Failure::Transport(format!("unknown frame {chunk}"))),
        }
    }
}

/// Cells of the grid a streamed solve walks: the alignment problems
/// carry a boundary row and column, dtw does not.
fn stream_cells_total(req: &Request) -> u64 {
    let side = if req.problem == "dtw" {
        req.n
    } else {
        req.n + 1
    } as u64;
    side * side
}

fn finish(
    req: &Request,
    v: &Json,
    start: Instant,
    latency: Duration,
    first: Duration,
    frames: usize,
) -> Result<Reply, Failure> {
    let answer = v
        .str("answer")
        .ok_or_else(|| Failure::Transport("reply without answer".into()))?;
    if answer != req.expected {
        return Err(Failure::Wrong(format!(
            "{} n={}: got '{answer}', expected '{}'",
            req.problem, req.n, req.expected
        )));
    }
    if v.str("problem") != Some(req.problem) || v.num("n") != Some(req.n as f64) {
        return Err(Failure::Wrong(format!(
            "reply for another request: {:?}/{:?}",
            v.str("problem"),
            v.num("n")
        )));
    }
    let timings = v.get("timings");
    Ok(Reply {
        problem: req.problem,
        start,
        cells: (req.n as u64) * (req.n as u64),
        latency,
        first,
        tier: v.str("tier").unwrap_or("?").to_string(),
        memory_mode: timings
            .and_then(|t| t.str("memory_mode"))
            .unwrap_or("?")
            .to_string(),
        devices: v.num("devices").unwrap_or(1.0) as usize,
        frames,
    })
}

/// Sends every distinct request once, in workload order, on one
/// connection: the warm-up that ends set-up.
pub fn warm_up(addr: SocketAddr, reqs: &[Request], oneshot: bool) -> Result<Vec<Reply>, Failure> {
    let mut conn = None;
    reqs.iter()
        .map(|r| exchange(&mut conn, addr, r, oneshot))
        .collect()
}

/// What one closed-loop window produced.
pub struct Window {
    pub replies: Vec<Reply>,
    pub failures: Vec<Failure>,
    pub attempted: usize,
    /// The clients' common start.
    pub start: Instant,
    /// From the common start to the last client's last reply.
    pub elapsed: Duration,
}

/// SplitMix64, for the per-client request order.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs `w.clients` closed-loop clients for `seconds`. Each client
/// attempts whole rounds (every distinct request once, in an order drawn
/// from `seed`, the client index and the round) and starts no round
/// after the window closes. Exchanges are recorded as client spans when
/// `spans` is given.
pub fn closed_loop(
    addr: SocketAddr,
    w: &Workload,
    reqs: &[Request],
    seed: u64,
    seconds: f64,
    spans: Option<&Spans>,
) -> Window {
    let start_gate = Barrier::new(w.clients + 1);
    let out = Mutex::new(Window {
        replies: Vec::new(),
        failures: Vec::new(),
        attempted: 0,
        start: Instant::now(),
        elapsed: Duration::ZERO,
    });
    let mut start = Instant::now();
    std::thread::scope(|s| {
        for client in 0..w.clients {
            let (start_gate, out) = (&start_gate, &out);
            s.spawn(move || {
                let mut conn = None;
                if !w.oneshot {
                    // Kept-alive clients connect before the window opens.
                    conn = Conn::connect(addr).ok();
                }
                let mut replies = Vec::new();
                let mut failures = Vec::new();
                let mut attempted = 0;
                start_gate.wait();
                let t0 = Instant::now();
                let mut order: Vec<usize> = (0..reqs.len()).collect();
                let mut round = 0u64;
                while t0.elapsed().as_secs_f64() < seconds {
                    let mut state = mix64(seed ^ mix64((client as u64) << 32 | round));
                    for i in (1..order.len()).rev() {
                        state = mix64(state);
                        order.swap(i, (state % (i as u64 + 1)) as usize);
                    }
                    for &i in &order {
                        let req = &reqs[i];
                        let t = Instant::now();
                        let result = exchange(&mut conn, addr, req, w.oneshot);
                        attempted += 1;
                        if let Some(sp) = spans {
                            let name = if req.stream {
                                "client.stream"
                            } else {
                                "client.solve"
                            };
                            sp.record(
                                name,
                                "client",
                                t,
                                t.elapsed(),
                                vec![
                                    ("problem", req.problem.to_string()),
                                    ("n", req.n.to_string()),
                                    ("ok", result.is_ok().to_string()),
                                ],
                            );
                        }
                        match result {
                            Ok(r) => replies.push(r),
                            Err(f) => failures.push(f),
                        }
                    }
                    round += 1;
                }
                let mut o = out
                    .lock()
                    .expect("no client panics while holding the result lock");
                o.replies.extend(replies);
                o.failures.extend(failures);
                o.attempted += attempted;
            });
        }
        start = Instant::now();
        start_gate.wait();
    });
    let mut window = out.into_inner().expect("clients finished");
    window.start = start;
    window.elapsed = start.elapsed();
    window
}

/// Linear-interpolated quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}
