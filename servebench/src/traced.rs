//! The traced run: the same server hosted in-process behind a
//! benchmark-owned [`SolveBackend`] decorator that times every backend
//! call, then each lower layer probed on its own through its public
//! functions, on the workload's own instances.

use crate::client::Conn;
use crate::load::{self, Request, Window, Workload};
use crate::spans::Spans;
use lddp::cli;
use lddp::core::schedule::ScheduleParams;
use lddp::core::tuner_cache::TunedConfig;
use lddp::fleet_backend::FleetBackend;
use lddp::parallel::ParallelEngine;
use lddp::problems::{DtwKernel, LcsKernel, LevenshteinKernel, NeedlemanWunschKernel};
use lddp::serve_backend::FrameworkBackend;
use lddp::trace::live::LiveRegistry;
use lddp::trace::{NullSink, TraceSink};
use lddp::workloads::random_seq;
use lddp_serve::{
    BackendSolve, BandFrame, BatchPlan, PoolHealth, ServeConfig, Server, SolveBackend, SolveRequest,
};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Times every trait call into the wrapped backend as a `backend` span,
/// and each streamed solve's first `emit` as `backend.first_emit`.
pub struct Traced<'a> {
    inner: &'a dyn SolveBackend,
    spans: &'a Spans,
}

fn req_args(req: &SolveRequest) -> Vec<(&'static str, String)> {
    vec![("problem", req.problem.clone()), ("n", req.n.to_string())]
}

impl SolveBackend for Traced<'_> {
    fn validate(&self, req: &SolveRequest) -> Result<(), String> {
        self.inner.validate(req)
    }

    fn tune(
        &self,
        probe: &SolveRequest,
        sink: &dyn TraceSink,
    ) -> Result<(TunedConfig, bool), String> {
        self.spans
            .time("backend.tune", "backend", req_args(probe), || {
                self.inner.tune(probe, sink)
            })
            .0
    }

    fn solve(
        &self,
        req: &SolveRequest,
        config: TunedConfig,
        sink: &dyn TraceSink,
    ) -> Result<BackendSolve, String> {
        self.spans
            .time("backend.solve", "backend", req_args(req), || {
                self.inner.solve(req, config, sink)
            })
            .0
    }

    fn plan(&self, probe: &SolveRequest, sink: &dyn TraceSink) -> Result<BatchPlan, String> {
        let t = Instant::now();
        let plan = self.inner.plan(probe, sink);
        let cold = matches!(&plan, Ok(p) if !p.cache_hit);
        let name = if cold {
            "backend.plan_cold"
        } else {
            "backend.plan"
        };
        self.spans
            .record(name, "backend", t, t.elapsed(), req_args(probe));
        plan
    }

    fn solve_placed(
        &self,
        req: &SolveRequest,
        plan: &BatchPlan,
        sink: &dyn TraceSink,
    ) -> Result<BackendSolve, String> {
        self.spans
            .time("backend.solve_placed", "backend", req_args(req), || {
                self.inner.solve_placed(req, plan, sink)
            })
            .0
    }

    fn solve_streamed(
        &self,
        req: &SolveRequest,
        plan: &BatchPlan,
        sink: &dyn TraceSink,
        emit: &(dyn Fn(BandFrame) -> bool + Sync),
    ) -> Result<BackendSolve, String> {
        let t = Instant::now();
        let first = Mutex::new(None);
        let timed_emit = |frame: BandFrame| {
            first
                .lock()
                .expect("first-emit lock")
                .get_or_insert_with(|| t.elapsed());
            emit(frame)
        };
        let out = self.inner.solve_streamed(req, plan, sink, &timed_emit);
        self.spans.record(
            "backend.solve_streamed",
            "backend",
            t,
            t.elapsed(),
            req_args(req),
        );
        if let Some(d) = first.into_inner().expect("first-emit lock") {
            self.spans
                .record("backend.first_emit", "backend", t, d, req_args(req));
        }
        out
    }

    fn estimate_ms(&self, req: &SolveRequest) -> Option<f64> {
        self.spans
            .time("backend.estimate", "backend", req_args(req), || {
                self.inner.estimate_ms(req)
            })
            .0
    }

    fn supports_rolling(&self, req: &SolveRequest) -> bool {
        self.inner.supports_rolling(req)
    }

    fn pool_health(&self) -> Vec<PoolHealth> {
        self.inner.pool_health()
    }

    fn fleet_stats_json(&self) -> Option<String> {
        self.inner.fleet_stats_json()
    }
}

/// What the in-process traced server produced.
pub struct TracedServe {
    pub window: Window,
    pub window_start: Instant,
    pub window_end: Instant,
    pub connect_ms: Vec<f64>,
    pub keepalive_ms: Vec<f64>,
}

/// `GET /healthz` round trips per connection mode.
const HEALTHZ_PROBES: usize = 200;

/// Hosts the server as `lddp-cli serve [--fleet]` builds it — default
/// config, one live registry shared with the backend — behind
/// [`Traced`], warms it up, runs the closed loop, then times
/// `GET /healthz` on new and kept-alive connections.
pub fn serve_traced(
    w: &Workload,
    reqs: &[Request],
    seed: u64,
    seconds: f64,
    spans: &Spans,
) -> Result<TracedServe, String> {
    let live = Arc::new(LiveRegistry::new());
    if w.fleet {
        let backend = FleetBackend::new().with_live(Arc::clone(&live));
        host(&backend, live, w, reqs, seed, seconds, spans)
    } else {
        let backend = FrameworkBackend::new().with_live(Arc::clone(&live));
        host(&backend, live, w, reqs, seed, seconds, spans)
    }
}

fn host(
    inner: &dyn SolveBackend,
    live: Arc<LiveRegistry>,
    w: &Workload,
    reqs: &[Request],
    seed: u64,
    seconds: f64,
    spans: &Spans,
) -> Result<TracedServe, String> {
    let traced = Traced { inner, spans };
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let mut server = Server::new(ServeConfig::default(), &traced, &NullSink);
    server.attach_live(live);
    let out = server.run(Some(listener), |_client| -> Result<TracedServe, String> {
        load::warm_up(addr, reqs, w.oneshot).map_err(|f| format!("traced warm-up: {f}"))?;
        let window_start = Instant::now();
        let window = load::closed_loop(addr, w, reqs, seed, seconds, Some(spans));
        let window_end = Instant::now();
        let connect_ms = healthz_probe(addr, spans, true)?;
        let keepalive_ms = healthz_probe(addr, spans, false)?;
        Ok(TracedServe {
            window,
            window_start,
            window_end,
            connect_ms,
            keepalive_ms,
        })
    })?;
    // A workload without streams still gets its first-emit figure: the
    // streamed path of the same backend, on the workload's instances,
    // recorded as `backend.first_emit` spans after the window.
    if !w.stream {
        for r in reqs {
            let req = SolveRequest::new(r.problem, r.n);
            for _ in 0..3 {
                let plan = traced.plan(&req, &NullSink)?;
                traced.solve_streamed(&req, &plan, &NullSink, &|_frame| true)?;
            }
        }
    }
    Ok(out)
}

fn healthz_probe(addr: SocketAddr, spans: &Spans, fresh: bool) -> Result<Vec<f64>, String> {
    let name = if fresh {
        "client.healthz_new"
    } else {
        "client.healthz_keepalive"
    };
    let mut conn = if fresh {
        None
    } else {
        Some(Conn::connect(addr)?)
    };
    let mut out = Vec::with_capacity(HEALTHZ_PROBES);
    for _ in 0..HEALTHZ_PROBES {
        let t = Instant::now();
        let c = match conn.as_mut() {
            Some(c) => c,
            None => conn.insert(Conn::connect(addr)?),
        };
        let (status, _) = c.exchange("GET", "/healthz", "", fresh)?;
        let d = t.elapsed();
        if fresh {
            conn = None;
        }
        if status != 200 {
            return Err(format!("GET /healthz answered {status}"));
        }
        spans.record(name, "client", t, d, Vec::new());
        out.push(d.as_secs_f64() * 1e3);
    }
    Ok(out)
}

/// One instance of the program's registry, rebuilt from the same
/// generators so the engine and kernel layers can be probed directly.
enum Inst {
    Lev(LevenshteinKernel),
    Lcs(LcsKernel, Vec<u8>, Vec<u8>),
    Nw(NeedlemanWunschKernel),
    Dtw(DtwKernel),
}

macro_rules! on_kernel {
    ($inst:expr, $k:ident => $body:expr) => {
        match $inst {
            Inst::Lev($k) => $body,
            Inst::Lcs($k, ..) => $body,
            Inst::Nw($k) => $body,
            Inst::Dtw($k) => $body,
        }
    };
}

fn instance(problem: &str, n: usize) -> Result<Inst, String> {
    let seq = |seed| random_seq(n, 4, seed);
    Ok(match problem {
        "levenshtein" => Inst::Lev(LevenshteinKernel::new(seq(1), seq(2))),
        "lcs" => {
            let (a, b) = (seq(3), seq(4));
            Inst::Lcs(LcsKernel::new(a.clone(), b.clone()), a, b)
        }
        "needleman-wunsch" => Inst::Nw(NeedlemanWunschKernel::new(seq(9), seq(10))),
        "dtw" => Inst::Dtw(DtwKernel::random_walk(n, n, 5)),
        other => return Err(format!("no probe instance for '{other}'")),
    })
}

/// Repetitions per probe: many on small grids, at least five on large.
fn reps(n: usize) -> usize {
    ((64usize << 20) / (n * n)).clamp(5, 50)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-layer figures of the layers under the backend.
pub struct LayerProbes {
    pub estimate_ms: f64,
    pub sweep_ms: f64,
    pub full_ms: f64,
    pub full_1t_ms: f64,
    pub rolling_ms: f64,
    pub rolling_1t_ms: f64,
    pub live_overhead_pct: f64,
    pub kernel_gcells_per_s: f64,
    pub split_ms: f64,
    /// Instance the split probe ran on.
    pub split_at: String,
}

/// Probes cost model, tuner, engine, kernel and fleet split one at a
/// time, each call inside a `probe` span.
pub fn probe_layers(w: &Workload, spans: &Spans) -> Result<LayerProbes, String> {
    let n = w.n;
    let host = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    let engine = ParallelEngine::new(host);
    let engine_1t = ParallelEngine::new(1);
    let engine_live = ParallelEngine::new(host).with_live(Arc::new(LiveRegistry::new()));
    let insts = w
        .problems
        .iter()
        .map(|p| instance(p, n).map(|i| (*p, i)))
        .collect::<Result<Vec<_>, _>>()?;
    let arg = |p: &str| vec![("problem", p.to_string()), ("n", n.to_string())];

    // Tuner: one cold sweep per distinct tuner-cache key, as set-up
    // pays; problems sharing a key are served with its first sweep's
    // parameters, as the server's cache serves them.
    let mut swept: BTreeMap<String, ScheduleParams> = BTreeMap::new();
    let mut sweep_ms = 0.0;
    let mut params = Vec::new();
    for (p, _) in &insts {
        let key = format!("{:?}", cli::classify_problem(p, n)?);
        if !swept.contains_key(&key) {
            let (config, d) = spans.time("tuner.sweep", "probe", arg(p), || {
                cli::tune_config(p, n, "high", &engine)
            });
            swept.insert(key.clone(), config?.params);
            sweep_ms += ms(d);
        }
        params.push(swept[&key]);
    }

    // Cost model: the §IV estimate every served solve runs.
    let mut est = Vec::new();
    for ((p, _), params) in insts.iter().zip(&params) {
        for _ in 0..reps(n).max(20) {
            let (r, d) = spans.time("cost_model.estimate", "probe", arg(p), || {
                cli::estimate_virtual(p, n, "high", *params)
            });
            r?;
            est.push(ms(d));
        }
    }

    // Engine: full table and rolling ring at host threads and at one,
    // and the live registry's cost; kernel: run bodies on one thread.
    let per = |name: &'static str,
               f: &mut dyn FnMut(&Inst) -> Result<(), String>|
     -> Result<f64, String> {
        let mut means = Vec::new();
        for (p, inst) in &insts {
            f(inst)?; // first touch: pool start, page faults
            let mut v = Vec::new();
            for _ in 0..reps(n) {
                let (r, d) = spans.time(name, "probe", arg(p), || f(inst));
                r?;
                v.push(ms(d));
            }
            means.push(load::median(&v));
        }
        Ok(means.iter().sum::<f64>() / means.len() as f64)
    };
    let e = |r: lddp::core::Result<()>| r.map_err(|e| e.to_string());
    let full_ms = per(
        "engine.full",
        &mut |i| on_kernel!(i, k => e(engine.solve(k).map(drop))),
    )?;
    let live_ms = per(
        "engine.full_live",
        &mut |i| on_kernel!(i, k => e(engine_live.solve(k).map(drop))),
    )?;
    let full_1t_ms = per(
        "engine.full_1t",
        &mut |i| on_kernel!(i, k => e(engine_1t.solve(k).map(drop))),
    )?;
    let rolling_ms = per(
        "engine.rolling",
        &mut |i| on_kernel!(i, k => e(engine.solve_rolling(k, None).map(drop))),
    )?;
    let rolling_1t_ms = per(
        "engine.rolling_1t",
        &mut |i| on_kernel!(i, k => e(engine_1t.solve_rolling(k, None).map(drop))),
    )?;
    let kernel_ms = per("kernel.run", &mut |i| match i {
        Inst::Lcs(_, a, b) => {
            std::hint::black_box(lddp::problems::lcs::lcs_length_bitparallel(a, b));
            Ok(())
        }
        other => on_kernel!(other, k => e(lddp::core::rolling::solve_corner(k, None).map(|c| {
            std::hint::black_box(c.0);
        }))),
    })?;

    // Fleet: one 3-device split on its own. Only fleet-1k runs splits;
    // the other workloads report the fleet-1k instance so every traced
    // run carries the figure (a split at 4096² and up needs three full
    // tables).
    let (split_problems, split_n): (&[&str], usize) = if w.fleet {
        (w.problems, n)
    } else {
        (&["levenshtein"], 1024)
    };
    let mut split = Vec::new();
    for p in split_problems {
        let params = cli::tune_params(p, split_n, "high")?;
        for _ in 0..3 {
            let (r, d) = spans.time(
                "fleet.split",
                "probe",
                vec![("problem", p.to_string()), ("n", split_n.to_string())],
                || cli::run_solve_multi(p, split_n, params, 3),
            );
            r?;
            split.push(ms(d));
        }
    }

    let cells = (n * n) as f64;
    Ok(LayerProbes {
        estimate_ms: load::median(&est),
        sweep_ms,
        full_ms,
        full_1t_ms,
        rolling_ms,
        rolling_1t_ms,
        live_overhead_pct: (live_ms - full_ms) / full_ms * 100.0,
        kernel_gcells_per_s: cells / (kernel_ms / 1e3) / 1e9,
        split_ms: load::median(&split),
        split_at: format!("{} n={split_n}", split_problems.join("/")),
    })
}
