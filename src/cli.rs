//! Command-line interface logic for the `lddp-cli` binary.
//!
//! Hand-rolled argument parsing (no external dependencies) kept in a
//! library module so it is unit-testable. Commands:
//!
//! ```text
//! lddp-cli classify --set W,NW,N
//! lddp-cli solve   --problem levenshtein --n 1024 [--platform high|low]
//!                  [--t-switch X --t-share Y] [--json]
//! lddp-cli tune    --problem lcs --n 2048 [--refined]
//! lddp-cli compare --problem checkerboard --n 4096 [--json]
//! lddp-cli trace   --problem levenshtein --n 512 --out run.trace.json
//!                  [--metrics run.metrics.prom]
//! lddp-cli serve   --addr 127.0.0.1:8700 [--workers W] [--queue-cap Q]
//!                  [--max-batch B] [--deadline-ms D] [--trace serve.trace.json]
//!                  [--tune-cache cache.json]
//! lddp-cli loadgen --problem lcs --requests 500 [--addr HOST:PORT]
//!                  [--rps R] [--duration S] [--concurrency C] [--no-verify]
//!                  [--retries A]
//! lddp-cli chaos   [--seed S] [--campaign quick|heavy] [--out report.json]
//! ```
//!
//! `trace` writes a Chrome trace-event JSON timeline (loadable in
//! Perfetto / `chrome://tracing`, see docs/OBSERVABILITY.md); `--json`
//! switches `solve`/`compare` to machine-readable output. `serve` runs
//! the batching solve server (see docs/SERVING.md) and `loadgen` drives
//! it — over HTTP when `--addr` is given, against an in-process server
//! otherwise — checking every answer against the sequential oracle
//! unless `--no-verify` is passed. `chaos` runs a seeded fault-injection
//! campaign across the engine ladder, the hetero executor, and the
//! serving stack (see docs/ROBUSTNESS.md), failing loudly when any
//! recovered answer diverges from the oracle.

use crate::parallel::{ParallelEngine, SolveSpec, StreamHook};
use crate::platforms::{cpu_only, hetero_high, hetero_low, Platform};
use crate::{Framework, PhaseStat};
use hetero_sim::report::{utilization, Utilization};
use lddp_chaos::{FaultInjector, FaultPlan, FaultPlanConfig, RetryPolicy};
use lddp_core::cell::{ContributingSet, RepCell};
use lddp_core::grid::Grid;
use lddp_core::kernel::{ExecTier, Kernel, MemoryMode};
use lddp_core::pattern::classify;
use lddp_core::rolling::{self, BandEvent, Fold, Folded};
use lddp_core::schedule::{PhaseKind, ScheduleParams};
use lddp_core::tuner::TuneResult;
use lddp_core::tuner_cache::TunedConfig;
use lddp_core::wavefront::Dims;
use lddp_core::DegradeStep;
use lddp_problems as problems;
use lddp_serve::loadgen::{HttpTarget, LoadgenConfig};
use lddp_serve::{Priority, ServeConfig, Server, SolveBackend, SolveRequest};
use lddp_trace::json::{escape, num};
use lddp_trace::live::LiveRegistry;
use lddp_trace::{chrome, NullSink, TraceSink};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Classify a contributing set.
    Classify {
        /// The set to classify.
        set: ContributingSet,
    },
    /// Solve a named problem instance.
    Solve {
        /// Problem name.
        problem: String,
        /// Instance size (table side).
        n: usize,
        /// Platform preset name.
        platform: String,
        /// Optional explicit parameters (otherwise tuned).
        params: Option<ScheduleParams>,
        /// Emit a machine-readable JSON summary instead of text.
        json: bool,
        /// Memory-mode pin (`None` = the full-table heterogeneous run).
        memory: Option<MemoryMode>,
    },
    /// Tune a named problem instance.
    Tune {
        /// Problem name.
        problem: String,
        /// Instance size.
        n: usize,
        /// Platform preset name.
        platform: String,
        /// Use the ternary-search tuner.
        refined: bool,
    },
    /// Solve with one-pass dynamic load balancing.
    Balance {
        /// Problem name.
        problem: String,
        /// Instance size.
        n: usize,
        /// Platform preset name.
        platform: String,
        /// CPU-only ramp length for ramp-shaped patterns.
        t_switch: usize,
    },
    /// Print CPU/GPU/Framework times for a problem instance.
    Compare {
        /// Problem name.
        problem: String,
        /// Instance size.
        n: usize,
        /// Platform preset name.
        platform: String,
        /// Emit a machine-readable JSON summary instead of text.
        json: bool,
    },
    /// Solve while recording a Chrome trace-event timeline.
    Trace {
        /// Problem name.
        problem: String,
        /// Instance size.
        n: usize,
        /// Platform preset name.
        platform: String,
        /// Optional explicit parameters (otherwise tuned, with the
        /// sweep recorded into the trace).
        params: Option<ScheduleParams>,
        /// Output path for the Chrome trace JSON.
        out: String,
        /// Optional output path for the run's Prometheus exposition.
        metrics: Option<String>,
    },
    /// Run the batching solve server (see docs/SERVING.md).
    Serve {
        /// Listen address (`host:port`).
        addr: String,
        /// Server sizing: [`ServeConfig::default`] with the flags given.
        config: ServeConfig,
        /// Optional path for a Chrome trace of the whole serve run,
        /// written at shutdown.
        trace: Option<String>,
        /// Optional tuner-cache persistence file: loaded (if present)
        /// before serving, written back on graceful drain.
        tune_cache: Option<String>,
        /// Serve through the heterogeneous worker-pool fleet (cost-aware
        /// dispatcher over the platform presets, cross-device MultiPlan
        /// splits for large grids).
        fleet: bool,
    },
    /// Generate load against a solve server and report latency.
    Loadgen(LoadgenOpts),
    /// Run a seeded fault-injection campaign (see docs/ROBUSTNESS.md).
    Chaos {
        /// Seed for the deterministic fault plan.
        seed: u64,
        /// Campaign intensity: `quick` or `heavy`.
        campaign: String,
        /// Optional JSON report output path (also printed to stdout).
        out: Option<String>,
    },
    /// Print usage.
    Help,
}

/// Problems the CLI knows how to build: every kernel in
/// [`lddp_problems::NAMES`] plus the `fig9` synthetic benchmark.
pub const PROBLEMS: &[&str] = &[
    "levenshtein",
    "lcs",
    "dtw",
    "checkerboard",
    "dithering",
    "seam",
    "maxsquare",
    "needleman-wunsch",
    "smith-waterman",
    "weighted-edit",
    "fig9",
];

/// Parses an argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let cmd = match it.next().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => return Ok(Command::Help),
        Some(c) => c,
    };
    // An unknown command is named as such, whatever flags follow it.
    const COMMANDS: &[&str] = &[
        "classify", "solve", "balance", "tune", "compare", "trace", "serve", "loadgen", "chaos",
    ];
    if !COMMANDS.contains(&cmd) {
        return Err(format!("unknown command '{cmd}'; try help"));
    }
    let mut set = None;
    let mut problem = None;
    let mut n = None;
    let mut platform = "high".to_string();
    let mut t_switch = None;
    let mut t_share = None;
    let mut refined = false;
    let mut json = false;
    let mut out = None;
    let mut metrics = None;
    let mut addr = None;
    let mut config = ServeConfig::default();
    let mut deadline_ms = None;
    let mut requests = None;
    let mut rps = None;
    let mut duration_s = None;
    let mut concurrency = None;
    let mut no_verify = false;
    let mut trace_out = None;
    let mut retries = None;
    let mut seed = None;
    let mut campaign = None;
    let mut tune_cache = None;
    let mut fleet = false;
    let mut memory = None;
    let mut mix: Vec<usize> = Vec::new();
    let mut priority = None;
    let mut tenant = None;
    let mut stream = false;
    let mut retry_after_cap_ms = None;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--set" => {
                let v = it.next().ok_or("--set needs a value like W,NW,N")?;
                set = Some(parse_set(v)?);
            }
            "--problem" => {
                let v = it.next().ok_or("--problem needs a name")?;
                if !PROBLEMS.contains(&v.as_str()) {
                    return Err(format!(
                        "unknown problem '{v}'; expected one of {}",
                        PROBLEMS.join(", ")
                    ));
                }
                problem = Some(v.clone());
            }
            "--n" => {
                let v = it.next().ok_or("--n needs a number")?;
                n = Some(v.parse::<usize>().map_err(|e| format!("--n: {e}"))?);
            }
            "--platform" => {
                let v = it.next().ok_or("--platform needs high|low|cpu-only")?;
                if v != "high" && v != "low" && v != "cpu-only" {
                    return Err(format!(
                        "unknown platform '{v}'; expected high, low, or cpu-only"
                    ));
                }
                platform = v.clone();
            }
            "--t-switch" => {
                let v = it.next().ok_or("--t-switch needs a number")?;
                t_switch = Some(v.parse::<usize>().map_err(|e| format!("--t-switch: {e}"))?);
            }
            "--t-share" => {
                let v = it.next().ok_or("--t-share needs a number")?;
                t_share = Some(v.parse::<usize>().map_err(|e| format!("--t-share: {e}"))?);
            }
            "--refined" => refined = true,
            "--json" => json = true,
            "--out" => {
                let v = it.next().ok_or("--out needs a file path")?;
                out = Some(v.clone());
            }
            "--metrics" => {
                let v = it.next().ok_or("--metrics needs a file path")?;
                metrics = Some(v.clone());
            }
            "--addr" => {
                let v = it.next().ok_or("--addr needs host:port")?;
                addr = Some(v.clone());
            }
            "--workers" => {
                let v = it.next().ok_or("--workers needs a number")?;
                config.workers = v.parse::<usize>().map_err(|e| format!("--workers: {e}"))?;
            }
            "--queue-cap" => {
                let v = it.next().ok_or("--queue-cap needs a number")?;
                config.queue_capacity = v
                    .parse::<usize>()
                    .map_err(|e| format!("--queue-cap: {e}"))?;
            }
            "--max-batch" => {
                let v = it.next().ok_or("--max-batch needs a number")?;
                config.max_batch = v
                    .parse::<usize>()
                    .map_err(|e| format!("--max-batch: {e}"))?;
            }
            "--deadline-ms" => {
                let v = it.next().ok_or("--deadline-ms needs a number")?;
                deadline_ms = Some(
                    v.parse::<u64>()
                        .map_err(|e| format!("--deadline-ms: {e}"))?,
                );
            }
            "--requests" => {
                let v = it.next().ok_or("--requests needs a number")?;
                requests = Some(v.parse::<usize>().map_err(|e| format!("--requests: {e}"))?);
            }
            "--rps" => {
                let v = it.next().ok_or("--rps needs a number")?;
                let r = v.parse::<f64>().map_err(|e| format!("--rps: {e}"))?;
                if !r.is_finite() || r <= 0.0 {
                    return Err("--rps must be a positive number".into());
                }
                rps = Some(r);
            }
            "--duration" => {
                let v = it.next().ok_or("--duration needs seconds")?;
                let d = v.parse::<f64>().map_err(|e| format!("--duration: {e}"))?;
                if !d.is_finite() || d <= 0.0 {
                    return Err("--duration must be positive seconds".into());
                }
                duration_s = Some(d);
            }
            "--concurrency" => {
                let v = it.next().ok_or("--concurrency needs a number")?;
                concurrency = Some(
                    v.parse::<usize>()
                        .map_err(|e| format!("--concurrency: {e}"))?,
                );
            }
            "--no-verify" => no_verify = true,
            "--watchdog-ms" => {
                let v = it.next().ok_or("--watchdog-ms needs a number")?;
                config.watchdog_ms = Some(
                    v.parse::<u64>()
                        .map_err(|e| format!("--watchdog-ms: {e}"))?,
                );
            }
            "--retries" => {
                let v = it.next().ok_or("--retries needs a number")?;
                let r = v.parse::<u32>().map_err(|e| format!("--retries: {e}"))?;
                if r == 0 {
                    return Err("--retries counts attempts and must be at least 1".into());
                }
                retries = Some(r);
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a number")?;
                seed = Some(v.parse::<u64>().map_err(|e| format!("--seed: {e}"))?);
            }
            "--campaign" => {
                let v = it.next().ok_or("--campaign needs quick|heavy")?;
                if v != "quick" && v != "heavy" {
                    return Err(format!("unknown campaign '{v}'; expected quick or heavy"));
                }
                campaign = Some(v.clone());
            }
            "--trace" => {
                let v = it.next().ok_or("--trace needs a file path")?;
                trace_out = Some(v.clone());
            }
            "--tune-cache" => {
                let v = it.next().ok_or("--tune-cache needs a file path")?;
                tune_cache = Some(v.clone());
            }
            "--fleet" => fleet = true,
            "--memory" => {
                let v = it.next().ok_or("--memory needs full|rolling")?;
                memory = Some(MemoryMode::parse(v).ok_or_else(|| {
                    format!("unknown memory mode '{v}'; expected full or rolling")
                })?);
            }
            "--mix" => {
                let v = it.next().ok_or("--mix needs sizes like 48,96,1100")?;
                mix = v
                    .split(',')
                    .map(|s| s.trim().parse::<usize>().map_err(|e| format!("--mix: {e}")))
                    .collect::<Result<Vec<usize>, String>>()?;
                if mix.is_empty() || mix.iter().any(|&m| m < 2) {
                    return Err("--mix sizes must each be at least 2".into());
                }
            }
            "--batch-queue-cap" => {
                let v = it.next().ok_or("--batch-queue-cap needs a number")?;
                config.batch_queue_capacity = Some(
                    v.parse::<usize>()
                        .map_err(|e| format!("--batch-queue-cap: {e}"))?,
                );
            }
            "--tenant-rps" => {
                let v = it.next().ok_or("--tenant-rps needs a rate")?;
                let r = v.parse::<f64>().map_err(|e| format!("--tenant-rps: {e}"))?;
                if !r.is_finite() || r <= 0.0 {
                    return Err("--tenant-rps must be a positive rate".into());
                }
                config.tenant_quota_rps = Some(r);
            }
            "--tenant-burst" => {
                let v = it.next().ok_or("--tenant-burst needs a number")?;
                let b = v
                    .parse::<f64>()
                    .map_err(|e| format!("--tenant-burst: {e}"))?;
                if !b.is_finite() || b < 1.0 {
                    return Err("--tenant-burst must be at least 1".into());
                }
                config.tenant_quota_burst = b;
            }
            "--priority" => {
                let v = it.next().ok_or("--priority needs interactive|batch")?;
                priority = Some(Priority::parse(v).ok_or_else(|| {
                    format!("unknown priority '{v}'; expected interactive or batch")
                })?);
            }
            "--tenant" => {
                let v = it.next().ok_or("--tenant needs a name")?;
                tenant = Some(v.clone());
            }
            "--stream" => stream = true,
            "--retry-after-cap-ms" => {
                let v = it.next().ok_or("--retry-after-cap-ms needs milliseconds")?;
                retry_after_cap_ms = Some(
                    v.parse::<u64>()
                        .map_err(|e| format!("--retry-after-cap-ms: {e}"))?,
                );
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    match cmd {
        "classify" => Ok(Command::Classify {
            set: set.ok_or("classify requires --set")?,
        }),
        "solve" => {
            let params = match (t_switch, t_share) {
                (None, None) => None,
                (sw, sh) => Some(ScheduleParams::new(sw.unwrap_or(0), sh.unwrap_or(0))),
            };
            Ok(Command::Solve {
                problem: problem.ok_or("solve requires --problem")?,
                n: n.unwrap_or(1024),
                platform,
                params,
                json,
                memory,
            })
        }
        "balance" => Ok(Command::Balance {
            problem: problem.ok_or("balance requires --problem")?,
            n: n.unwrap_or(1024),
            platform,
            t_switch: t_switch.unwrap_or(0),
        }),
        "tune" => Ok(Command::Tune {
            problem: problem.ok_or("tune requires --problem")?,
            n: n.unwrap_or(1024),
            platform,
            refined,
        }),
        "compare" => Ok(Command::Compare {
            problem: problem.ok_or("compare requires --problem")?,
            n: n.unwrap_or(1024),
            platform,
            json,
        }),
        "trace" => {
            let params = match (t_switch, t_share) {
                (None, None) => None,
                (sw, sh) => Some(ScheduleParams::new(sw.unwrap_or(0), sh.unwrap_or(0))),
            };
            Ok(Command::Trace {
                problem: problem.ok_or("trace requires --problem")?,
                n: n.unwrap_or(512),
                platform,
                params,
                out: out.unwrap_or_else(|| "run.trace.json".to_string()),
                metrics,
            })
        }
        "serve" => Ok(Command::Serve {
            addr: addr.unwrap_or_else(|| "127.0.0.1:8700".to_string()),
            config: ServeConfig {
                default_deadline_ms: deadline_ms,
                ..config
            },
            trace: trace_out,
            tune_cache,
            fleet,
        }),
        "loadgen" => {
            let requests = requests.unwrap_or(100);
            if requests == 0 && duration_s.is_none() {
                return Err("loadgen needs --requests > 0 or --duration".into());
            }
            if fleet && addr.is_some() {
                return Err(
                    "loadgen --fleet drives the in-process server; point --addr at a \
                     `serve --fleet` instance instead"
                        .into(),
                );
            }
            Ok(Command::Loadgen(LoadgenOpts {
                addr,
                problem: problem.ok_or("loadgen requires --problem")?,
                n: n.unwrap_or(256),
                platform,
                requests,
                rps,
                duration_s,
                concurrency: concurrency.unwrap_or(4),
                deadline_ms,
                no_verify,
                retries: retries.unwrap_or(1),
                mix,
                priority: priority.unwrap_or_default(),
                tenant: tenant.unwrap_or_default(),
                fleet,
                stream,
                retry_after_cap_ms,
            }))
        }
        "chaos" => Ok(Command::Chaos {
            seed: seed.unwrap_or(42),
            campaign: campaign.unwrap_or_else(|| "quick".to_string()),
            out,
        }),
        other => unreachable!("'{other}' is not in COMMANDS"),
    }
}

/// Parses "W,NW,N" style contributing sets (case-insensitive).
pub fn parse_set(text: &str) -> Result<ContributingSet, String> {
    let mut set = ContributingSet::EMPTY;
    for part in text.split(',') {
        let cell = match part.trim().to_ascii_uppercase().as_str() {
            "W" => RepCell::W,
            "NW" => RepCell::Nw,
            "N" => RepCell::N,
            "NE" => RepCell::Ne,
            other => return Err(format!("unknown representative cell '{other}'")),
        };
        set = set.with(cell);
    }
    if set.is_empty() {
        return Err("contributing set must not be empty".into());
    }
    Ok(set)
}

/// The cost-model preset `name` selects: `low`, `cpu-only` (also
/// `cpu`), and `high` for any other name.
fn preset(name: &str) -> &'static str {
    match name {
        "low" => "low",
        "cpu" | "cpu-only" => "cpu-only",
        _ => "high",
    }
}

fn platform_by_name(name: &str) -> Platform {
    match preset(name) {
        "low" => hetero_low(),
        "cpu-only" => cpu_only(),
        _ => hetero_high(),
    }
}

/// Usage text.
pub fn usage() -> String {
    format!(
        "lddp-cli — heterogeneous LDDP framework driver\n\
         \n\
         USAGE:\n\
         \x20 lddp-cli classify --set W,NW,N\n\
         \x20 lddp-cli solve   --problem <name> [--n N] [--platform high|low]\n\
         \x20                  [--t-switch X] [--t-share Y] [--json]\n\
         \x20                  [--memory full|rolling]\n\
         \x20 lddp-cli tune    --problem <name> [--n N] [--platform high|low] [--refined]\n\
         \x20 lddp-cli balance --problem <name> [--n N] [--platform high|low] [--t-switch X]\n\
         \x20 lddp-cli compare --problem <name> [--n N] [--platform high|low] [--json]\n\
         \x20 lddp-cli trace   --problem <name> [--n N] [--platform high|low]\n\
         \x20                  [--t-switch X] [--t-share Y]\n\
         \x20                  [--out trace.json] [--metrics metrics.prom]\n\
         \x20 lddp-cli serve   [--addr host:port] [--workers W] [--queue-cap Q]\n\
         \x20                  [--batch-queue-cap Q] [--tenant-rps R] [--tenant-burst B]\n\
         \x20                  [--max-batch B] [--deadline-ms D] [--watchdog-ms W]\n\
         \x20                  [--trace serve.trace.json] [--tune-cache cache.json]\n\
         \x20                  [--fleet]\n\
         \x20 lddp-cli loadgen --problem <name> [--n N] [--platform high|low]\n\
         \x20                  [--addr host:port] [--requests R] [--rps RATE]\n\
         \x20                  [--duration S] [--concurrency C] [--deadline-ms D]\n\
         \x20                  [--no-verify] [--retries A] [--mix 48,96,1100]\n\
         \x20                  [--priority interactive|batch] [--tenant NAME] [--fleet]\n\
         \x20                  [--stream] [--retry-after-cap-ms MS]\n\
         \x20 lddp-cli chaos   [--seed S] [--campaign quick|heavy] [--out report.json]\n\
         \n\
         `trace` writes a Perfetto-loadable Chrome trace-event timeline\n\
         (see docs/OBSERVABILITY.md). `serve` runs the batching solve\n\
         server (`--tune-cache` persists tuned params + tier across\n\
         restarts; `--fleet` serves through the heterogeneous worker-pool\n\
         fleet with a cost-aware dispatcher and cross-device MultiPlan\n\
         splits, see docs/FLEET.md); `loadgen` drives it and prints a\n\
         JSON latency report, checking answers against the sequential\n\
         oracle (docs/SERVING.md); `--mix` cycles requests through a\n\
         size mix to exercise the fleet dispatcher; `--priority` and\n\
         `--tenant` stamp every request with a QoS class / tenant for\n\
         overload experiments (`serve --tenant-rps` meters named\n\
         tenants, `--batch-queue-cap` bounds the batch class);\n\
         `--stream` consumes `POST /solve?stream=1` band streams and\n\
         reports time-to-first-band percentiles, and\n\
         `--retry-after-cap-ms` caps how much of a 429/503 Retry-After\n\
         hint is honored (default 2000).\n\
         Set LDDP_FORCE_TIER=scalar|bulk|simd|bitparallel to cap the\n\
         execution tier of every engine in the process.\n\
         `solve --memory rolling` keeps only the live wavefronts\n\
         (O(n+m) bytes instead of the full table), as `serve` does for\n\
         every problem unless a request pins `memory_mode: full` (see\n\
         DESIGN.md, \"Memory tiers\"); without the flag `solve` prints\n\
         the full-table report.\n\
         `chaos` runs a seeded fault-injection campaign across the engine\n\
         ladder, the hetero executor, and the serving stack, verifying\n\
         every recovered answer against the oracle (docs/ROBUSTNESS.md).\n\
         \n\
         PROBLEMS: {}\n",
        PROBLEMS.join(", ")
    )
}

/// A uniform summary of one run, ready to print.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Problem name.
    pub problem: String,
    /// Instance description.
    pub instance: String,
    /// Classified / executed patterns.
    pub patterns: String,
    /// Parameters used.
    pub params: ScheduleParams,
    /// Execution tier the table was (or would be) computed on.
    pub tier: ExecTier,
    /// Memory mode the table was computed in.
    pub memory_mode: MemoryMode,
    /// Peak DP working-set bytes: the full table, or the rolling band
    /// ring (three wavefronts).
    pub table_bytes: usize,
    /// Virtual time, ms.
    pub hetero_ms: f64,
    /// Headline answer (problem-specific).
    pub answer: String,
}

impl RunSummary {
    /// Renders the summary block. Full-table runs keep the historic
    /// format; rolling runs add one `memory` line with the working-set
    /// compression.
    pub fn render(&self) -> String {
        let memory = if self.memory_mode == MemoryMode::Rolling {
            format!(
                "\nmemory    : rolling ({} peak working set)",
                fmt_bytes(self.table_bytes)
            )
        } else {
            String::new()
        };
        format!(
            "problem   : {}\ninstance  : {}\npattern   : {}\nparams    : t_switch={} t_share={}\n\
             tier      : {}{}\ntime      : {:.3} ms (virtual)\nanswer    : {}",
            self.problem,
            self.instance,
            self.patterns,
            self.params.t_switch,
            self.params.t_share,
            self.tier,
            memory,
            self.hetero_ms,
            self.answer
        )
    }
}

/// Human-readable byte count (binary units, one decimal).
fn fmt_bytes(bytes: usize) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit + 1 < UNITS.len() {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.1} {}", UNITS[unit])
    }
}

/// [`RunSummary`] plus the observability extras a traced solve yields.
#[derive(Debug, Clone)]
pub struct SolveOutput {
    /// The human-readable summary block.
    pub summary: RunSummary,
    /// Instance size.
    pub n: usize,
    /// Platform preset name as requested (`high`/`low`).
    pub platform: String,
    /// Engine utilization over the run.
    pub utilization: Utilization,
    /// Per-phase cost breakdown.
    pub phases: Vec<PhaseStat>,
}

/// Builds and solves the named problem, returning the summary.
pub fn run_solve(
    problem: &str,
    n: usize,
    platform_name: &str,
    params: Option<ScheduleParams>,
) -> Result<RunSummary, String> {
    run_solve_traced(problem, n, platform_name, params, &NullSink).map(|o| o.summary)
}

/// One problem of the registry: its seeded instance and how its answer
/// is read. Every driver — the heterogeneous solve, the served solve,
/// the sequential oracle, the tuner, `compare`, `balance` — builds the
/// same instance for the same `(problem, n)`, so equal answers mean
/// equal tables.
struct Problem<K: Kernel> {
    name: &'static str,
    /// The instance of side `n`.
    instance: fn(usize) -> K,
    /// `(to_gpu, from_gpu)` bytes of the framework's device setup.
    io_bytes: fn(usize) -> (usize, usize),
    /// The fold the answer is read off: an engine run folds its sealed
    /// waves, the oracle and the report their grids.
    fold: Fold<K::Cell>,
    /// The headline answer of the folded table.
    answer: fn(&Folded<K::Cell>) -> String,
    /// A cell's running score in a streamed band frame.
    band_score: fn(&K::Cell) -> f64,
    gridless: Option<Gridless<K>>,
}

/// The answer cell computed without a grid (bit-parallel LCS), and the
/// bytes that took.
type Gridless<K> = fn(&K) -> (<K as Kernel>::Cell, usize);

fn seq(n: usize, seed: u64) -> Vec<u8> {
    crate::workloads::random_seq(n, 4, seed)
}

/// The campaign's reference problem, also reached by name.
static LCS: Problem<problems::LcsKernel> = Problem {
    name: "lcs",
    instance: |n| problems::LcsKernel::new(seq(n, 3), seq(n, 4)),
    io_bytes: |n| (2 * n, 8),
    fold: Fold::Corner,
    answer: |f| format!("LCS length = {}", corner(f)),
    band_score: |c| f64::from(*c),
    gridless: Some(|k| (k.length_bitparallel(), k.bitparallel_bytes())),
};

/// The folded table's bottom-right cell.
fn corner<C: Copy + Default>(f: &Folded<C>) -> C {
    f.corner.unwrap_or_default()
}

/// The problem registry, in [`PROBLEMS`] order.
static REGISTRY: [&dyn Entry; 11] = [
    &Problem {
        name: "levenshtein",
        instance: |n| problems::LevenshteinKernel::new(seq(n, 1), seq(n, 2)),
        io_bytes: |n| (2 * n, 8),
        fold: Fold::Corner,
        answer: |f| format!("edit distance = {}", corner(f)),
        band_score: |c| f64::from(*c),
        gridless: None,
    },
    &LCS,
    &Problem {
        name: "dtw",
        instance: |n| problems::DtwKernel::random_walk(n, n, 5),
        io_bytes: |n| (8 * n, 8),
        fold: Fold::Corner,
        answer: |f| format!("DTW distance = {:.3}", corner(f)),
        band_score: |c| f64::from(*c),
        gridless: None,
    },
    &Problem {
        name: "checkerboard",
        instance: |n| problems::CheckerboardKernel::random(n, n, 9, 6),
        io_bytes: |n| (n * n, 0),
        fold: Fold::LastRowMin(|c| i64::from(*c)),
        answer: |f| format!("cheapest path cost = {}", f.value),
        band_score: |c| f64::from(*c),
        gridless: None,
    },
    &Problem {
        name: "dithering",
        instance: |n| problems::DitherKernel::noise(n, n, 7),
        io_bytes: |n| (n * n, n * n),
        fold: Fold::Count(|c: &problems::DitherCell| c.out == 255),
        answer: |f| format!("{} of {} pixels on", f.value, f.cells),
        band_score: |c| f64::from(c.out),
        gridless: None,
    },
    &Problem {
        name: "seam",
        instance: |n| {
            let energy = (0..n * n)
                .map(|x| ((x as u64).wrapping_mul(2654435761) >> 7) as u32 % 64)
                .collect();
            problems::SeamCarvingKernel::new(n, n, energy)
        },
        io_bytes: |n| (4 * n * n, 0),
        fold: Fold::LastRowMin(|c| *c as i64),
        answer: |f| format!("minimal seam energy = {}", f.value),
        band_score: |c| *c as f64,
        gridless: None,
    },
    &Problem {
        name: "maxsquare",
        instance: |n| problems::MaxSquareKernel::random(n, n, 0.8, 8),
        io_bytes: |n| (n * n / 8, 8),
        fold: Fold::Max(|c| i64::from(*c)),
        answer: |f| format!("largest all-ones square side = {}", f.value),
        band_score: |c| f64::from(*c),
        gridless: None,
    },
    &Problem {
        name: "needleman-wunsch",
        instance: |n| problems::NeedlemanWunschKernel::new(seq(n, 9), seq(n, 10)),
        io_bytes: |n| (2 * n, 8),
        fold: Fold::Corner,
        answer: |f| format!("global alignment score = {}", corner(f)),
        band_score: |c| f64::from(*c),
        gridless: None,
    },
    &Problem {
        name: "smith-waterman",
        instance: |n| problems::SmithWatermanKernel::new(seq(n, 11), seq(n, 12)),
        io_bytes: |n| (2 * n, 8),
        fold: Fold::Max(|c: &problems::SwCell| i64::from(c.best())),
        answer: |f| format!("best local alignment score = {}", f.value),
        band_score: |c| f64::from(c.best()),
        gridless: None,
    },
    &Problem {
        name: "weighted-edit",
        instance: |n| {
            let costs = problems::weighted_edit::EditCosts::default();
            problems::WeightedEditKernel::new(seq(n, 13), seq(n, 14), costs)
        },
        io_bytes: |n| (2 * n, 8),
        fold: Fold::Corner,
        answer: |f| format!("weighted edit distance = {}", corner(f)),
        band_score: |c| f64::from(*c),
        gridless: None,
    },
    &Problem {
        name: "fig9",
        instance: |n| problems::synthetic::fig9_kernel(Dims::new(n, n), 1),
        io_bytes: |_| (0, 0),
        fold: Fold::Corner,
        answer: |f| format!("corner value = {}", corner(f)),
        band_score: |c| f64::from(*c),
        gridless: None,
    },
];

/// The registry entry named `name`.
fn problem(name: &str) -> Result<&'static dyn Entry, String> {
    REGISTRY
        .iter()
        .copied()
        .find(|p| p.name() == name)
        .ok_or_else(|| format!("unknown problem '{name}'"))
}

/// Entries the price memo holds before it is cleared. Full, it is
/// 140–170 KiB of B-tree nodes; a fleet serving three problems at one
/// size prices twelve keys.
const PRICE_MEMO_CAP: usize = 1024;

/// What a cost-model price is a function of: the instance (a registry
/// problem and its side, which fix every table the model walks), the
/// platform preset, the caller's `(t_switch, t_share)` before
/// legalization, and the devices it is priced on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct PriceKey {
    problem: &'static str,
    n: usize,
    preset: &'static str,
    params: (usize, usize),
    devices: usize,
}

impl PriceKey {
    fn new(
        problem: &'static str,
        n: usize,
        platform: &str,
        params: ScheduleParams,
        devices: usize,
    ) -> PriceKey {
        PriceKey {
            problem,
            n,
            preset: preset(platform),
            params: (params.t_switch, params.t_share),
            devices,
        }
    }
}

/// A bounded memo of the cost model's prices: `(the parameters the
/// price carries, seconds)` per [`PriceKey`]. A price reads the table's
/// shape and the platform's constants, never a cell value, so a hit
/// returns exactly the bits a miss computes. Pricing runs outside the
/// lock; two concurrent misses of one key price it twice, to the same
/// bits. A full memo is cleared before the next insert, so distinct
/// keys cannot grow it past [`PRICE_MEMO_CAP`].
struct PriceMemo {
    map: Mutex<BTreeMap<PriceKey, (ScheduleParams, f64)>>,
}

impl PriceMemo {
    const fn new() -> PriceMemo {
        PriceMemo {
            map: Mutex::new(BTreeMap::new()),
        }
    }

    /// The price of `key`: the memo's, or `price`'s on a miss, which is
    /// kept unless it failed.
    fn get_or_price<E>(
        &self,
        key: PriceKey,
        price: impl FnOnce() -> Result<(ScheduleParams, f64), E>,
    ) -> Result<(ScheduleParams, f64), E> {
        if let Some(&hit) = self.map.lock().unwrap().get(&key) {
            return Ok(hit);
        }
        let priced = price()?;
        let mut map = self.map.lock().unwrap();
        if map.len() >= PRICE_MEMO_CAP {
            map.clear();
        }
        map.insert(key, priced);
        Ok(priced)
    }
}

/// Every price the served solve and [`estimate_virtual`] report, per
/// process.
static PRICES: PriceMemo = PriceMemo::new();

impl<K: Kernel> Problem<K> {
    /// The framework on `platform_name`, with this instance's device
    /// setup bytes.
    fn framework(&self, n: usize, platform_name: &str) -> Framework {
        let (to_gpu, from_gpu) = (self.io_bytes)(n);
        Framework::new(platform_by_name(platform_name)).with_io_bytes(to_gpu, from_gpu)
    }

    /// The headline answer of a finished grid.
    fn render(&self, grid: &Grid<K::Cell>) -> String {
        (self.answer)(&Folded::of_grid(self.fold, grid))
    }

    /// The cost model's price of this problem's instance `kernel` of
    /// side `n`, the value [`PRICES`] keeps: with 2 or more `devices`,
    /// the multi-device model's price of the [`split_plan`] split (the
    /// raw pattern must be canonical), else the framework's estimate on
    /// `platform_name` with `params` legalized for the instance. Returns
    /// the parameters the price carries and seconds.
    fn price(
        &self,
        kernel: &K,
        n: usize,
        platform_name: &str,
        params: ScheduleParams,
        devices: usize,
    ) -> lddp_core::Result<(ScheduleParams, f64)> {
        if devices >= 2 {
            let (plan, params) = split_plan(kernel, params, devices)?;
            let platform = fleet_multi_platform(devices);
            let run = hetero_sim::multi::run_multi(kernel, &plan, &platform, false)?;
            return Ok((params, run.total_s));
        }
        let fw = self.framework(n, platform_name);
        let class = fw.classify(kernel)?;
        let legal = params.clamped_for(class.exec_pattern, kernel.dims());
        Ok((legal, fw.estimate(kernel, legal)?))
    }

    /// The served solve of [`solve_served`], on this problem's instance,
    /// built once.
    fn serve(&self, a: &SolveArgs<'_>) -> Result<ServedSolve, String> {
        let kernel = (self.instance)(a.n);
        let emit = a.emit.filter(|_| a.injector.is_none());
        let fw = self.framework(a.n, a.platform);
        let class = fw.classify(&kernel).map_err(|e| e.to_string())?;
        // Legalize against the kernel's own table, the shape `Plan::new`
        // validates, as the estimate does: cached parameters may come
        // from another instance of their bucket.
        let params = a.params.clamped_for(class.exec_pattern, kernel.dims());
        let mut degraded = Vec::new();
        // One device-fault draw per injected request: the modelled
        // device dying costs the request its heterogeneous speedup, not
        // its answer. A split is a price on the multi-device model; the
        // engine below answers it like any other request. Every other
        // price is the memo's once its key has been priced.
        let (priced, devices) = match a.injector {
            Some(inj) if inj.active() && inj.device_fault(0) => {
                degraded.push(DegradeStep::HeteroToCpuOnly.code().to_string());
                (fw.cpu_baseline(&kernel).map(|s| (params, s)), 1)
            }
            _ => {
                let devices = if a.devices >= 2 && class.raw_pattern.is_canonical() {
                    a.devices
                } else {
                    1
                };
                let key = PriceKey::new(self.name, a.n, a.platform, a.params, devices);
                let priced = PRICES.get_or_price(key, || {
                    self.price(&kernel, a.n, a.platform, a.params, devices)
                });
                (priced, devices)
            }
        };
        let (params, hetero_s) = priced.map_err(|e| e.to_string())?;
        let gridless = self.gridless.filter(|_| {
            a.tier == Some(ExecTier::BitParallel) && a.injector.is_none() && emit.is_none()
        });
        let (answer, tier, memory_mode, table_bytes) = if let Some(gridless) = gridless {
            let (cell, bytes) = gridless(&kernel);
            let folded = Folded {
                corner: Some(cell),
                ..Folded::default()
            };
            // One bit-vector row, whatever the pin: no table is built.
            (
                (self.answer)(&folded),
                ExecTier::BitParallel,
                MemoryMode::Rolling,
                bytes,
            )
        } else {
            let tier = a
                .engine
                .select_tier(&kernel)
                .min(a.tier.unwrap_or(ExecTier::BitParallel));
            let d = kernel.dims();
            let widest = class.raw_pattern.canonical().widest_wave(d.rows, d.cols);
            // A stream rolls: a full-table solve only answers at the end.
            let memory = if emit.is_some() {
                MemoryMode::Rolling
            } else {
                a.memory
            };
            let hook = emit.map(|emit| StreamHook {
                bands: crate::serve_backend::STREAM_BANDS,
                score_of: self.band_score,
                emit,
            });
            let spec = SolveSpec {
                memory,
                fold: self.fold,
                threads: served_workers(tier, widest),
                tier: a.tier,
                injector: a.injector,
                stream: hook.as_ref(),
                ..SolveSpec::default()
            };
            let s = a.engine.run(&kernel, &spec).map_err(|e| e.to_string())?;
            degraded.extend(s.degraded.iter().map(|d| d.code().to_string()));
            ((self.answer)(&s.folded), s.tier, memory, s.peak_bytes)
        };
        Ok(ServedSolve {
            summary: RunSummary {
                problem: self.name.to_string(),
                instance: format!("{} x {} on {}", a.n, a.n, fw.platform().name),
                patterns: format!("{} → executed as {}", class.raw_pattern, class.exec_pattern),
                params,
                tier,
                memory_mode,
                table_bytes,
                hetero_ms: hetero_s * 1e3,
                answer,
            },
            degraded,
            devices,
        })
    }
}

/// A registry entry with its kernel type erased behind the operations
/// the drivers need, implemented once for every [`Problem`].
trait Entry: Sync {
    fn name(&self) -> &'static str;
    /// The sequential row-major oracle's answer.
    fn oracle(&self, n: usize) -> Result<String, String>;
    /// The traced heterogeneous solve of [`run_solve_traced`].
    fn hetero(
        &self,
        n: usize,
        platform_name: &str,
        params: Option<ScheduleParams>,
        sink: &dyn TraceSink,
    ) -> Result<SolveOutput, String>;
    fn serve(&self, args: &SolveArgs<'_>) -> Result<ServedSolve, String>;
    fn classify(&self, n: usize) -> Result<lddp_core::framework::Classification, String>;
    /// The §V-A sweep on the framework bound to `platform_name`; with
    /// `io`, the instance's device setup bytes are accounted for.
    fn tune(
        &self,
        n: usize,
        platform_name: &str,
        io: bool,
        refined: bool,
    ) -> Result<TuneResult, String>;
    /// The §IV estimate with `params` legalized for the instance, from
    /// the price memo once its key has been priced.
    fn estimate(
        &self,
        n: usize,
        platform_name: &str,
        params: ScheduleParams,
    ) -> Result<f64, String>;
    fn compare(&self, n: usize, platform_name: &str) -> Result<CompareOutput, String>;
    /// `(tuned static seconds, tuned params, balanced seconds, balanced
    /// params)` for `balance`.
    fn balance(
        &self,
        n: usize,
        platform_name: &str,
        t_switch: usize,
    ) -> Result<(f64, ScheduleParams, f64, ScheduleParams), String>;
    /// The tier a served solve of the instance runs on: bit-parallel
    /// where the problem has a gridless path, else `engine`'s SIMD,
    /// bulk, scalar order, as available.
    fn select_tier(&self, n: usize, engine: &ParallelEngine) -> ExecTier;
    /// `(full_table_bytes, rolling_bytes)`.
    fn footprint(&self, n: usize) -> (usize, usize);
    /// A full-table engine run, through the degradation ladder when
    /// `injector` is given: the answer and the rungs taken.
    fn on_engine(
        &self,
        n: usize,
        engine: &ParallelEngine,
        injector: Option<&dyn FaultInjector>,
    ) -> Result<(String, Vec<DegradeStep>), String>;
}

impl<K: Kernel> Entry for Problem<K> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn oracle(&self, n: usize) -> Result<String, String> {
        let kernel = (self.instance)(n);
        let grid = lddp_core::seq::solve_row_major(&kernel).map_err(|e| e.to_string())?;
        Ok(self.render(&grid))
    }

    fn hetero(
        &self,
        n: usize,
        platform_name: &str,
        params: Option<ScheduleParams>,
        sink: &dyn TraceSink,
    ) -> Result<SolveOutput, String> {
        let kernel = (self.instance)(n);
        let fw = self.framework(n, platform_name);
        let solution = fw
            .solve_traced(&kernel, params, sink)
            .map_err(|e| e.to_string())?;
        let class = &solution.classification;
        Ok(SolveOutput {
            summary: RunSummary {
                problem: self.name.to_string(),
                instance: format!("{n} x {n} on {}", fw.platform().name),
                patterns: format!("{} → executed as {}", class.raw_pattern, class.exec_pattern),
                params: solution.params,
                tier: solution.tier,
                memory_mode: MemoryMode::Full,
                table_bytes: rolling::full_table_bytes(&kernel),
                hetero_ms: solution.total_s * 1e3,
                answer: self.render(&solution.grid),
            },
            n,
            platform: platform_name.to_string(),
            utilization: utilization(&solution.breakdown, solution.total_s),
            phases: solution.phases.clone(),
        })
    }

    fn serve(&self, args: &SolveArgs<'_>) -> Result<ServedSolve, String> {
        Problem::serve(self, args)
    }

    fn classify(&self, n: usize) -> Result<lddp_core::framework::Classification, String> {
        lddp_core::framework::choose_execution((self.instance)(n).contributing_set())
            .map_err(|e| e.to_string())
    }

    fn tune(
        &self,
        n: usize,
        platform_name: &str,
        io: bool,
        refined: bool,
    ) -> Result<TuneResult, String> {
        let kernel = (self.instance)(n);
        let fw = if io {
            self.framework(n, platform_name)
        } else {
            Framework::new(platform_by_name(platform_name))
        };
        if refined {
            fw.tune_refined(&kernel)
        } else {
            fw.tune(&kernel)
        }
        .map_err(|e| e.to_string())
    }

    fn estimate(
        &self,
        n: usize,
        platform_name: &str,
        params: ScheduleParams,
    ) -> Result<f64, String> {
        // A hit builds no instance.
        let key = PriceKey::new(self.name, n, platform_name, params, 1);
        PRICES
            .get_or_price(key, || {
                self.price(&(self.instance)(n), n, platform_name, params, 1)
            })
            .map(|(_, s)| s)
            .map_err(|e| e.to_string())
    }

    fn compare(&self, n: usize, platform_name: &str) -> Result<CompareOutput, String> {
        let kernel = (self.instance)(n);
        let fw = self.framework(n, platform_name);
        let e = |e: lddp_core::Error| e.to_string();
        let tuned = fw.tune(&kernel).map_err(e)?;
        Ok(CompareOutput {
            platform_label: fw.platform().name.to_string(),
            cpu_s: fw.cpu_baseline(&kernel).map_err(e)?,
            gpu_s: fw.gpu_baseline(&kernel).map_err(e)?,
            framework_s: fw.estimate(&kernel, tuned.params).map_err(e)?,
            params: tuned.params,
        })
    }

    fn balance(
        &self,
        n: usize,
        platform_name: &str,
        t_switch: usize,
    ) -> Result<(f64, ScheduleParams, f64, ScheduleParams), String> {
        let kernel = (self.instance)(n);
        let fw = Framework::new(platform_by_name(platform_name));
        let e = |e: lddp_core::Error| e.to_string();
        let tuned = fw.tune(&kernel).map_err(e)?;
        let static_s = fw.estimate(&kernel, tuned.params).map_err(e)?;
        let balanced = fw.solve_balanced(&kernel, t_switch).map_err(e)?;
        Ok((static_s, tuned.params, balanced.total_s, balanced.params))
    }

    fn select_tier(&self, n: usize, engine: &ParallelEngine) -> ExecTier {
        match self.gridless {
            Some(_) => ExecTier::BitParallel,
            None => engine.select_tier(&(self.instance)(n)),
        }
    }

    fn footprint(&self, n: usize) -> (usize, usize) {
        let kernel = (self.instance)(n);
        (
            rolling::full_table_bytes(&kernel),
            rolling::rolling_bytes(&kernel),
        )
    }

    fn on_engine(
        &self,
        n: usize,
        engine: &ParallelEngine,
        injector: Option<&dyn FaultInjector>,
    ) -> Result<(String, Vec<DegradeStep>), String> {
        let kernel = (self.instance)(n);
        let spec = SolveSpec {
            fold: self.fold,
            injector,
            ..SolveSpec::default()
        };
        let s = engine.run(&kernel, &spec).map_err(|e| e.to_string())?;
        Ok(((self.answer)(&s.folded), s.degraded))
    }
}

/// Builds and solves the named problem with observability: tuner sweep
/// points and the run's phase/wave/transfer events go into `sink`, and
/// the output carries utilization + per-phase stats for rendering.
pub fn run_solve_traced(
    problem_name: &str,
    n: usize,
    platform_name: &str,
    params: Option<ScheduleParams>,
    sink: &dyn TraceSink,
) -> Result<SolveOutput, String> {
    problem(problem_name)?.hetero(n, platform_name, params, sink)
}

/// Solves the named problem on the sequential row-major reference
/// engine and returns the same headline answer string the solve paths
/// print. This is the oracle the serving load generator checks
/// responses against: instances are deterministic in `(problem, n)`, so
/// equal answers mean the heterogeneous execution computed the same
/// table.
pub fn run_solve_seq(problem_name: &str, n: usize) -> Result<String, String> {
    problem(problem_name)?.oracle(n)
}

/// One served solve: the request both serving backends hand
/// [`solve_served`].
pub struct SolveArgs<'a> {
    /// Problem name.
    pub problem: &'a str,
    /// Instance side.
    pub n: usize,
    /// Cost-model platform preset (`high`, `low`, `cpu-only`).
    pub platform: &'a str,
    /// Schedule parameters, re-legalized for this exact instance (a
    /// cached set may come from another instance of its bucket).
    pub params: ScheduleParams,
    /// Tier cap, a tuned or pinned decision. [`ExecTier::BitParallel`]
    /// takes the problem's gridless path where it has one and caps
    /// nothing otherwise.
    pub tier: Option<ExecTier>,
    /// Memory mode; a stream rolls whatever it says.
    pub memory: MemoryMode,
    /// The pool to solve on.
    pub engine: &'a ParallelEngine,
    /// Receives the sealed bands of a streamed solve, in order, from
    /// inside the solve; it may block (backpressure), and returning
    /// `false` stops emission while the solve completes.
    pub emit: Option<&'a (dyn Fn(BandEvent) -> bool + Sync)>,
    /// Consulted through the engine's degradation ladder, and once per
    /// request for a device fault that degrades the cost model to the
    /// CPU-only baseline. An injected request never streams.
    pub injector: Option<&'a dyn FaultInjector>,
    /// Devices to price the request on: with 2 or more, and a problem
    /// whose raw pattern allows a direct column split, the virtual time
    /// is the multi-device model's price of a `devices`-way `MultiPlan`
    /// split ([`split_plan`]); otherwise the request is priced whole.
    /// `engine` answers either way.
    pub devices: usize,
}

/// What [`solve_served`] produced.
#[derive(Debug, Clone)]
pub struct ServedSolve {
    /// The run's summary.
    pub summary: RunSummary,
    /// Wire codes of the degradation rungs taken, in order (e.g.
    /// `"bulk_to_scalar"`); empty when the configured path served it.
    pub degraded: Vec<String>,
    /// Devices the request was priced on.
    pub devices: usize,
}

/// The served solve — the one path every served request takes. It
/// builds the instance once and answers it with:
///
/// 1. the gridless bit-parallel kernel when the tier is
///    [`ExecTier::BitParallel`] and the problem has one (never under
///    injection or for streams);
/// 2. otherwise one [`ParallelEngine::run`] on `engine`: rolling when
///    the memory mode asks for it or a stream wants bands, full-table
///    otherwise, folding the problem's answer, walking the degradation
///    ladder when injected, on the workers [`served_workers`] gives it.
///
/// The reported virtual time is the cost model's price: the framework's
/// estimate for the legalized parameters, or, when `devices ≥ 2` and
/// the problem's pattern allows a direct column split, the multi-device
/// model's price of that split. Either is priced once per key
/// (problem, n, preset, params, devices) and read from a bounded memo
/// after that; an injected device fault's CPU-only price is drawn per
/// request. Answer strings are byte-identical across every path.
pub fn solve_served(args: &SolveArgs<'_>) -> Result<ServedSolve, String> {
    problem(args.problem)?.serve(args)
}

/// Cells of a SIMD-tier run's widest wave that pay for one engine
/// worker. Rolling levenshtein, needleman-wunsch and dtw on a 2-vCPU
/// AVX2 host, two workers' time over one: 3.05 at 1024², 2.07 at
/// 2048², 1.31 at 4096², 1.15 at 5120², 0.84 at 6144², 0.82 at 8192²
/// (a repeat read 3.06, 1.79, 1.45, 1.09, 1.05 and 0.91 at the same
/// sizes). Below the crossover, which host noise moves between widest
/// waves of 5120 and 8192 cells, the per-wave barrier costs more than
/// the second worker saves, so a second worker starts at 6144 cells:
/// 3072 per worker.
const SIMD_CELLS_PER_WORKER: usize = 3072;

/// Engine workers for a served run on `tier` whose widest wave holds
/// `widest` cells: one per [`SIMD_CELLS_PER_WORKER`] cells, at least
/// one, for the SIMD tier. Scalar cells carry enough work that a second
/// worker wins from 1024² up (at 2048², one worker against two:
/// dithering 256 against 193 ms, fig9 47 against 27 ms), so scalar
/// runs, and bulk runs with them, keep the engine's width (`None`). One
/// uninjected worker computes inline on the calling thread: no pool
/// hand-off, no run lock, no barrier per wave.
fn served_workers(tier: ExecTier, widest: usize) -> Option<usize> {
    (tier == ExecTier::Simd).then(|| (widest / SIMD_CELLS_PER_WORKER).max(1))
}

/// Solves one instance priced as a `devices`-way cross-device
/// `MultiPlan` column-band split, answered in the served memory mode on
/// a one-worker engine, which computes inline and starts no pool. A
/// problem whose raw pattern needs a kernel adapter has no direct band
/// split and is priced whole.
pub fn run_solve_multi(
    problem_name: &str,
    n: usize,
    params: ScheduleParams,
    devices: usize,
) -> Result<RunSummary, String> {
    solve_served(&SolveArgs {
        problem: problem_name,
        n,
        platform: "high",
        params,
        tier: None,
        memory: MemoryMode::Rolling,
        engine: &ParallelEngine::new(1),
        emit: None,
        injector: None,
        devices,
    })
    .map(|s| s.summary)
}

/// The served `devices`-way column-band split of `kernel`'s table
/// (§VII): even band boundaries, `params` legalized for the whole grid
/// under the raw pattern, and the strictest per-band `t_switch` (one
/// tuned on the whole grid can be illegal for a narrow band). Returns
/// the plan and the parameters it carries; the raw pattern must be
/// canonical.
pub fn split_plan<K: Kernel>(
    kernel: &K,
    params: ScheduleParams,
    devices: usize,
) -> lddp_core::Result<(lddp_core::multi::MultiPlan, ScheduleParams)> {
    let (set, dims) = (kernel.contributing_set(), kernel.dims());
    let raw = classify(set).ok_or(lddp_core::Error::EmptyContributingSet)?;
    let params = params.clamped_for(raw, dims);
    let boundaries = crate::fleet::split_bands(dims.cols, devices);
    let t_switch = crate::fleet::per_band_params(params, raw, dims.rows, &boundaries, dims.cols)
        .iter()
        .map(|p| p.t_switch)
        .chain(std::iter::once(params.t_switch))
        .min()
        .unwrap_or(0);
    let plan = lddp_core::multi::MultiPlan::new(raw, set, dims, t_switch, boundaries)?;
    Ok((plan, ScheduleParams::new(t_switch, params.t_share)))
}

/// The §IV cost model's virtual-time estimate for one instance on one
/// platform preset with the given parameters (legalized for the
/// instance) — the scoring input of the fleet dispatcher, which
/// compares this estimate across every pool before placing a batch.
/// Prices are memoized per process: a repeated key returns the first
/// call's bits without building the instance, and a one-device served
/// solve of the same request shares its entry.
pub fn estimate_virtual(
    problem_name: &str,
    n: usize,
    platform_name: &str,
    params: ScheduleParams,
) -> Result<f64, String> {
    problem(problem_name)?.estimate(n, platform_name, params)
}

/// The simulated device set cross-device splits run on: the Hetero-High
/// CPU as device 0, then the fleet's two GPUs (K20 and GT650M) cycled
/// until `devices` are filled.
fn fleet_multi_platform(devices: usize) -> hetero_sim::multi::MultiPlatform {
    let high = hetero_high();
    let low = hetero_low();
    let accels = (1..devices)
        .map(|d| {
            if d % 2 == 1 {
                hetero_sim::multi::Accelerator {
                    name: "K20".into(),
                    gpu: high.gpu.clone(),
                    link: high.link.clone(),
                }
            } else {
                hetero_sim::multi::Accelerator {
                    name: "GT650M".into(),
                    gpu: low.gpu.clone(),
                    link: low.link.clone(),
                }
            }
        })
        .collect();
    hetero_sim::multi::MultiPlatform {
        name: "fleet multi-device".into(),
        cpu: high.cpu,
        accels,
    }
}

/// The execution pattern the framework classifies the named problem to
/// — what its schedule parameters are legalized against.
pub fn classify_problem(
    problem_name: &str,
    n: usize,
) -> Result<lddp_core::pattern::Pattern, String> {
    problem(problem_name)?.classify(n).map(|c| c.exec_pattern)
}

/// Runs the §V-A two-stage sweep for the named instance and returns the
/// tuned parameters — the step the serving tuner cache amortizes
/// across batches.
pub fn tune_params(
    problem_name: &str,
    n: usize,
    platform_name: &str,
) -> Result<ScheduleParams, String> {
    Ok(problem(problem_name)?
        .tune(n, platform_name, true, false)?
        .params)
}

/// The execution tier a served solve of the named instance runs on,
/// with no measurement: bit-parallel for `lcs`, else the best tier
/// `engine` can reach for the kernel (SIMD, then bulk, then scalar, as
/// available). Tuned and pinned-parameter requests take the same rule.
pub fn select_tier(
    problem_name: &str,
    n: usize,
    engine: &ParallelEngine,
) -> Result<ExecTier, String> {
    Ok(problem(problem_name)?.select_tier(n, engine))
}

/// `(full_table_bytes, rolling_bytes)` of the named instance.
pub fn table_footprint(problem_name: &str, n: usize) -> Result<(usize, usize), String> {
    Ok(problem(problem_name)?.footprint(n))
}

/// The tuning step the serving cache amortizes: the §V-A parameter
/// sweep, the tier of [`select_tier`] and the served memory mode, the
/// ring. Nothing is solved on `engine`: the tier is the availability
/// order, which is what a wall-clock race finds without its noise. The
/// ring is the fast path as well as the small one — its `k` waves stay
/// in cache while a wave-major table streams through memory on every
/// wave — so the memory mode is not a tuned choice.
pub fn tune_config(
    problem_name: &str,
    n: usize,
    platform_name: &str,
    engine: &ParallelEngine,
) -> Result<TunedConfig, String> {
    let params = tune_params(problem_name, n, platform_name)?;
    let tier = select_tier(problem_name, n, engine)?;
    Ok(TunedConfig::new(params, tier).with_memory_mode(MemoryMode::Rolling))
}

/// Renders a [`SolveOutput`] as one machine-readable JSON object.
pub fn render_solve_json(out: &SolveOutput) -> String {
    let phases: Vec<String> = out
        .phases
        .iter()
        .map(|p| {
            let kind = match p.kind {
                PhaseKind::CpuOnly => "cpu_only",
                PhaseKind::Shared => "shared",
            };
            format!(
                "{{\"kind\":\"{}\",\"wave_lo\":{},\"wave_hi\":{},\"wall_ms\":{},\
                 \"cpu_busy_ms\":{},\"gpu_busy_ms\":{},\"copy_ms\":{}}}",
                kind,
                p.waves.start,
                p.waves.end,
                num(p.wall_s * 1e3),
                num(p.cpu_busy_s * 1e3),
                num(p.gpu_busy_s * 1e3),
                num(p.copy_s * 1e3),
            )
        })
        .collect();
    let u = &out.utilization;
    let extra = format!(
        ",\"utilization\":{{\"cpu\":{},\"gpu\":{},\"copy\":{}}},\"phases\":[{}]",
        num(u.cpu),
        num(u.gpu),
        num(u.copy),
        phases.join(",")
    );
    summary_json(&out.summary, out.n, &out.platform, &extra)
}

/// Renders a [`RunSummary`] as one machine-readable JSON object, with
/// `extra` (further fields, each with its leading comma) before the
/// answer. A rolling solve has none: no grid, so no utilization or
/// per-phase breakdown, and `table_bytes` is the band ring's.
fn summary_json(s: &RunSummary, n: usize, platform: &str, extra: &str) -> String {
    format!(
        "{{\"problem\":\"{}\",\"n\":{},\"platform\":\"{}\",\"pattern\":\"{}\",\
         \"t_switch\":{},\"t_share\":{},\"tier\":\"{}\",\"memory_mode\":\"{}\",\
         \"table_bytes\":{},\"total_ms\":{}{extra},\"answer\":\"{}\"}}",
        escape(&s.problem),
        n,
        escape(platform),
        escape(&s.patterns),
        s.params.t_switch,
        s.params.t_share,
        s.tier.as_str(),
        s.memory_mode.as_str(),
        s.table_bytes,
        num(s.hetero_ms),
        escape(&s.answer),
    )
}

/// Solves the named problem with a registry as the sink, its ring
/// unbounded so it keeps every event; writes the ring as Chrome
/// trace-event JSON to `out_path` (and, optionally, the registry's
/// Prometheus exposition to `metrics_path`), and returns a summary with
/// the p50/p95/p99 of every histogram.
pub fn run_trace(
    problem: &str,
    n: usize,
    platform_name: &str,
    params: Option<ScheduleParams>,
    out_path: &str,
    metrics_path: Option<&str>,
) -> Result<String, String> {
    let reg = LiveRegistry::with_flight_capacity(usize::MAX);
    let output = run_solve_traced(problem, n, platform_name, params, &reg)?;
    let data = reg.flight().snapshot_since(f64::NEG_INFINITY);
    std::fs::write(out_path, chrome::to_chrome_json(&data))
        .map_err(|e| format!("writing {out_path}: {e}"))?;
    let mut msg = format!(
        "{} spans, {} instants, {} counter samples -> {out_path}\n\
         load it at https://ui.perfetto.dev or chrome://tracing\n{}",
        data.spans.len(),
        data.instants.len(),
        data.samples.len(),
        output.summary.render(),
    );
    for (name, h) in reg.histograms() {
        msg.push_str(&format!(
            "\n{name}: p50 {:.3e} p95 {:.3e} p99 {:.3e} ({} samples)",
            h.quantile(0.50),
            h.quantile(0.95),
            h.quantile(0.99),
            h.count()
        ));
    }
    if let Some(mp) = metrics_path {
        std::fs::write(mp, reg.to_prometheus()).map_err(|e| format!("writing {mp}: {e}"))?;
        msg.push_str(&format!("\nmetrics   : {mp}"));
    }
    Ok(msg)
}

/// Runs `classify` and renders the result.
pub fn run_classify(set: ContributingSet) -> Result<String, String> {
    let raw = classify(set).ok_or("empty contributing set")?;
    let class = lddp_core::framework::choose_execution(set).map_err(|e| e.to_string())?;
    Ok(format!(
        "contributing set : {set}\npattern          : {raw}\nexecuted as      : {} \
         (adapter: {:?})\nlayout           : {:?}\ntransfers        : {:?}",
        class.exec_pattern, class.adapter, class.layout, class.transfer
    ))
}

/// Runs `tune` and renders both curves.
pub fn run_tune(
    problem_name: &str,
    n: usize,
    platform_name: &str,
    refined: bool,
) -> Result<String, String> {
    let result = problem(problem_name)?.tune(n, platform_name, false, refined)?;
    let mut out = format!(
        "tuned params: t_switch={} t_share={}\n\nt_switch sweep (t_share=0):\n",
        result.params.t_switch, result.params.t_share
    );
    for p in &result.t_switch_curve {
        out.push_str(&format!("  {:>8}  {:>10.3} ms\n", p.value, p.time * 1e3));
    }
    out.push_str("\nt_share sweep:\n");
    for p in &result.t_share_curve {
        out.push_str(&format!("  {:>8}  {:>10.3} ms\n", p.value, p.time * 1e3));
    }
    Ok(out)
}

/// Runs `balance`: dynamic load balancing vs the tuned static plan.
pub fn run_balance(
    problem_name: &str,
    n: usize,
    platform_name: &str,
    t_switch: usize,
) -> Result<String, String> {
    let (static_s, tuned, balanced_s, balanced) =
        problem(problem_name)?.balance(n, platform_name, t_switch)?;
    Ok(format!(
        "{problem_name} {n}x{n} on {}\n  tuned static : {:>10.3} ms (t_switch={} t_share={})\n  balanced     : {:>10.3} ms (t_switch={} avg band={})",
        platform_by_name(platform_name).name,
        static_s * 1e3,
        tuned.t_switch,
        tuned.t_share,
        balanced_s * 1e3,
        balanced.t_switch,
        balanced.t_share,
    ))
}

/// CPU/GPU/Framework virtual times for one instance.
#[derive(Debug, Clone)]
pub struct CompareOutput {
    /// Platform display name.
    pub platform_label: String,
    /// Pure multicore-CPU baseline, seconds.
    pub cpu_s: f64,
    /// Pure-GPU baseline, seconds.
    pub gpu_s: f64,
    /// Tuned heterogeneous framework, seconds.
    pub framework_s: f64,
    /// The tuned parameters the framework time used.
    pub params: ScheduleParams,
}

/// Computes the CPU/GPU/Framework triple for `compare`.
pub fn run_compare_data(
    problem_name: &str,
    n: usize,
    platform_name: &str,
) -> Result<CompareOutput, String> {
    problem(problem_name)?.compare(n, platform_name)
}

/// Runs `compare` and renders the CPU/GPU/Framework triple.
pub fn run_compare(problem: &str, n: usize, platform_name: &str) -> Result<String, String> {
    let c = run_compare_data(problem, n, platform_name)?;
    Ok(format!(
        "{problem} {n}x{n} on {}\n  CPU parallel : {:>10.3} ms\n  GPU          : {:>10.3} ms\n  Framework    : {:>10.3} ms  (t_switch={} t_share={})",
        c.platform_label,
        c.cpu_s * 1e3,
        c.gpu_s * 1e3,
        c.framework_s * 1e3,
        c.params.t_switch,
        c.params.t_share
    ))
}

/// Renders `compare` results as one machine-readable JSON object.
pub fn render_compare_json(
    problem: &str,
    n: usize,
    platform_name: &str,
    c: &CompareOutput,
) -> String {
    format!(
        "{{\"problem\":\"{}\",\"n\":{},\"platform\":\"{}\",\"cpu_ms\":{},\"gpu_ms\":{},\
         \"framework_ms\":{},\"t_switch\":{},\"t_share\":{}}}",
        escape(problem),
        n,
        escape(platform_name),
        num(c.cpu_s * 1e3),
        num(c.gpu_s * 1e3),
        num(c.framework_s * 1e3),
        c.params.t_switch,
        c.params.t_share
    )
}

/// Runs the batching solve server until `POST /shutdown` drains it,
/// then returns the final stats snapshot (and, when `trace_out` is
/// given, writes the registry's flight ring as Chrome trace JSON — the
/// window `GET /debug/trace` serves). `fleet` swaps the single
/// [`FrameworkBackend`](crate::serve_backend::FrameworkBackend) for
/// the heterogeneous worker-pool fleet
/// ([`FleetBackend`](crate::fleet_backend::FleetBackend)).
pub fn run_serve(
    addr: &str,
    config: ServeConfig,
    trace_out: Option<&str>,
    tune_cache: Option<&str>,
    fleet: bool,
) -> Result<String, String> {
    // One registry shared by the server and the backend, so serve-side
    // and pool/tuner/fleet-side series land in the same /metrics
    // exposition.
    let live = std::sync::Arc::new(lddp_trace::live::LiveRegistry::new());
    let (fleet_backend, single);
    let (backend, cache): (&dyn SolveBackend, _) = if fleet {
        fleet_backend =
            crate::fleet_backend::FleetBackend::new().with_live(std::sync::Arc::clone(&live));
        (&fleet_backend, fleet_backend.cache())
    } else {
        single =
            crate::serve_backend::FrameworkBackend::new().with_live(std::sync::Arc::clone(&live));
        (&single, single.cache())
    };
    serve_with(addr, config, trace_out, tune_cache, backend, cache, live)
}

#[allow(clippy::too_many_arguments)]
fn serve_with(
    addr: &str,
    config: ServeConfig,
    trace_out: Option<&str>,
    tune_cache: Option<&str>,
    backend: &dyn SolveBackend,
    cache: &lddp_core::tuner_cache::TunerCache,
    live: std::sync::Arc<lddp_trace::live::LiveRegistry>,
) -> Result<String, String> {
    let mut prewarmed = 0;
    if let Some(path) = tune_cache {
        // A missing file just means a first run — start cold and
        // create the file at drain.
        if std::path::Path::new(path).exists() {
            prewarmed = cache
                .load_from(path)
                .map_err(|e| format!("loading tuner cache {path}: {e}"))?;
        }
    }
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    let workers = config.workers;
    let queue_cap = config.queue_capacity;
    let max_batch = config.max_batch;
    let pools = backend.pool_health();
    let mut server = Server::new(config, backend, &NullSink);
    server.attach_live(std::sync::Arc::clone(&live));
    let snapshot = server.run(Some(listener), |client| {
        println!(
            "lddp-serve listening on http://{local} (workers={workers}, queue={queue_cap}, max-batch={max_batch})"
        );
        if !pools.is_empty() {
            println!(
                "fleet: {} pools ({})",
                pools.len(),
                pools
                    .iter()
                    .map(|p| p.platform.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
        if let Some(path) = tune_cache {
            println!("tune-cache: {path} ({prewarmed} entries pre-warmed)");
        }
        println!(
            "routes: POST /solve | POST /solve?stream=1 | GET /healthz | GET /stats | \
             GET /metrics | GET /debug/trace | POST /shutdown"
        );
        client.wait_shutdown();
        client.snapshot()
    });
    let mut msg = format!("drained; final stats:\n{}", snapshot.to_json());
    if let Some(path) = tune_cache {
        cache
            .save_to(path)
            .map_err(|e| format!("writing tuner cache {path}: {e}"))?;
        msg.push_str(&format!("\ntune-cache: {} entries -> {path}", cache.len()));
    }
    if let Some(path) = trace_out {
        let data = live.flight().snapshot_since(f64::NEG_INFINITY);
        std::fs::write(path, chrome::to_chrome_json(&data))
            .map_err(|e| format!("writing {path}: {e}"))?;
        msg.push_str(&format!(
            "\ntrace     : {} spans, {} counter samples -> {path}",
            data.spans.len(),
            data.samples.len()
        ));
    }
    Ok(msg)
}

/// Loadgen knobs as parsed from the command line.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenOpts {
    /// Target server; `None` = in-process.
    pub addr: Option<String>,
    /// Problem name.
    pub problem: String,
    /// Instance size.
    pub n: usize,
    /// Platform preset name.
    pub platform: String,
    /// Requests to send (0 = until duration elapses).
    pub requests: usize,
    /// Open-loop arrival rate.
    pub rps: Option<f64>,
    /// Wall-clock cap, seconds.
    pub duration_s: Option<f64>,
    /// Closed-loop workers.
    pub concurrency: usize,
    /// Per-request deadline, milliseconds.
    pub deadline_ms: Option<u64>,
    /// Skip the oracle answer check.
    pub no_verify: bool,
    /// Attempts per request (1 = no retries).
    pub retries: u32,
    /// Instance-size mix cycled round-robin (empty = uniform `n`).
    pub mix: Vec<usize>,
    /// Service class stamped on every request.
    pub priority: Priority,
    /// Tenant name stamped on every request (empty = unattributed).
    pub tenant: String,
    /// Drive the in-process server with the fleet backend.
    pub fleet: bool,
    /// Consume `POST /solve?stream=1` band streams and report
    /// time-to-first-band percentiles.
    pub stream: bool,
    /// Cap on how much of a 429/503 `Retry-After` hint is honored,
    /// milliseconds (`None` = the loadgen default).
    pub retry_after_cap_ms: Option<u64>,
}

/// Runs one load experiment (HTTP when `addr` is set, against an
/// in-process server otherwise) and returns the JSON report.
pub fn run_loadgen(opts: &LoadgenOpts) -> Result<String, String> {
    let mut request = SolveRequest::new(opts.problem.clone(), opts.n);
    request.platform = opts.platform.clone();
    request.deadline_ms = opts.deadline_ms;
    request.priority = opts.priority;
    request.tenant = opts.tenant.clone();
    let expect_answer = if opts.no_verify {
        None
    } else {
        Some(run_solve_seq(&opts.problem, opts.n)?)
    };
    // A size mix carries one oracle per size — each request is checked
    // against the answer for *its* instance, not the template's.
    let mut mix: Vec<(usize, Option<String>)> = Vec::with_capacity(opts.mix.len());
    for &size in &opts.mix {
        let oracle = if opts.no_verify {
            None
        } else {
            Some(run_solve_seq(&opts.problem, size)?)
        };
        mix.push((size, oracle));
    }
    let retry = if opts.retries > 1 {
        RetryPolicy {
            max_attempts: opts.retries,
            ..RetryPolicy::default_serving(opts.retries as u64)
        }
    } else {
        RetryPolicy::none()
    };
    let cfg = LoadgenConfig {
        request,
        total: opts.requests,
        rps: opts.rps,
        duration: opts.duration_s.map(Duration::from_secs_f64),
        concurrency: opts.concurrency,
        expect_answer,
        retry,
        mix,
        stream: opts.stream,
        retry_after_cap: opts
            .retry_after_cap_ms
            .map(Duration::from_millis)
            .unwrap_or(lddp_serve::loadgen::DEFAULT_RETRY_AFTER_CAP),
    };
    let report = match &opts.addr {
        Some(addr) => {
            // Bracket the run with /metrics scrapes so the report can
            // carry the server-side counter deltas this load caused. A
            // failed scrape (old server, transient error) degrades to a
            // report without the delta rather than failing the run.
            let scrape_timeout = Duration::from_secs(5);
            let target = HttpTarget::new(addr.clone(), Duration::from_secs(60));
            let before = lddp_serve::loadgen::scrape_metrics(addr, scrape_timeout).ok();
            let mut report = lddp_serve::loadgen::run(&target, &cfg);
            if let (Some(before), Ok(after)) = (
                before,
                lddp_serve::loadgen::scrape_metrics(addr, scrape_timeout),
            ) {
                report.server_metrics_delta = lddp_serve::loadgen::metrics_delta(&before, &after);
            }
            report
        }
        None => {
            let live = std::sync::Arc::new(lddp_trace::live::LiveRegistry::new());
            let (fleet, single);
            let backend: &dyn SolveBackend = if opts.fleet {
                fleet = crate::fleet_backend::FleetBackend::new()
                    .with_live(std::sync::Arc::clone(&live));
                &fleet
            } else {
                single = crate::serve_backend::FrameworkBackend::new()
                    .with_live(std::sync::Arc::clone(&live));
                &single
            };
            let mut server = Server::new(ServeConfig::default(), backend, &NullSink);
            server.attach_live(live);
            server.run(None, |client| {
                let before = lddp_trace::live::parse_prometheus(&client.metrics_text());
                let mut report = lddp_serve::loadgen::run(client, &cfg);
                let after = lddp_trace::live::parse_prometheus(&client.metrics_text());
                report.server_metrics_delta = lddp_serve::loadgen::metrics_delta(&before, &after);
                report
            })
        }
    };
    Ok(report.to_json())
}

/// Problems the chaos campaign drives through the engine's
/// degradation ladder: a mix of kernels with a bulk fast path (where
/// the `bulk_to_scalar` rung is reachable) and scalar-only kernels
/// (where recovery must come from `parallel_to_sequential`).
pub const CHAOS_PROBLEMS: &[&str] = &["lcs", "dtw", "seam", "dithering", "weighted-edit"];

/// Runs a seeded fault-injection campaign and returns its JSON report.
///
/// Three stages, all oracle-checked (any divergence is a hard `Err`,
/// which the binary turns into a nonzero exit):
///
/// 1. **Engine ladder** — repeated pooled solves under injected worker
///    and bulk panics; every answer must match the sequential oracle
///    regardless of which degradation rungs fired, and the shared pool
///    must still serve a clean solve afterwards.
/// 2. **Hetero executor** — solves under injected device faults; a
///    fault degrades the run to the modelled CPU-only baseline and the
///    answer must be unchanged.
/// 3. **Serving stack** — an HTTP loadgen run against a server whose
///    backend and front end both draw from seeded fault plans (worker
///    panics, device faults, torn/slow connections, queue stalls),
///    with retrying clients; completed answers must all pass the
///    oracle and every request must be accounted for.
pub fn run_chaos(seed: u64, campaign: &str, out_path: Option<&str>) -> Result<String, String> {
    // The campaign injects panics by design; the default hook would
    // spray hundreds of backtraces over the report. Silence it for the
    // run and restore it afterwards, on success or failure alike.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = run_chaos_inner(seed, campaign, out_path);
    let _ = std::panic::take_hook();
    std::panic::set_hook(prev_hook);
    result
}

fn run_chaos_inner(seed: u64, campaign: &str, out_path: Option<&str>) -> Result<String, String> {
    let cfg = match campaign {
        "quick" => FaultPlanConfig::quick(),
        "heavy" => FaultPlanConfig::heavy(),
        other => {
            return Err(format!(
                "unknown campaign '{other}'; expected quick or heavy"
            ))
        }
    };
    let (ladder_iters, hetero_iters, serve_total) = if campaign == "heavy" {
        (12usize, 16usize, 240usize)
    } else {
        (6, 8, 120)
    };
    let n = 48;

    // Stage 1: the engine's degradation ladder under worker/bulk
    // panics, every answer checked against the sequential oracle.
    // A fixed worker count (not host-sized): a pinned pool makes the
    // per-(worker, wave) draw sequence — and thus the campaign report —
    // identical on every machine.
    let engine = ParallelEngine::new(4);
    let ladder_plan = FaultPlan::new(seed, cfg);
    let mut ladder_solves = 0u64;
    let mut ladder_degraded = 0u64;
    let mut rung_bulk = 0u64;
    let mut rung_seq = 0u64;
    for name in CHAOS_PROBLEMS {
        let oracle = run_solve_seq(name, n)?;
        for _ in 0..ladder_iters {
            let (answer, steps) = problem(name)?.on_engine(n, &engine, Some(&ladder_plan))?;
            if answer != oracle {
                return Err(format!(
                    "chaos: degraded {name} answer diverged from the oracle \
                     (got \"{answer}\", want \"{oracle}\", rungs {steps:?})"
                ));
            }
            ladder_solves += 1;
            if !steps.is_empty() {
                ladder_degraded += 1;
            }
            for step in &steps {
                match step {
                    DegradeStep::BulkToScalar => rung_bulk += 1,
                    DegradeStep::ParallelToSequential => rung_seq += 1,
                    DegradeStep::HeteroToCpuOnly => {}
                }
            }
        }
    }
    // The pool must come out of the campaign healthy: one clean solve,
    // no injector, same oracle.
    let (clean, _) = LCS.on_engine(n, &engine, None)?;
    if clean != run_solve_seq("lcs", n)? {
        return Err("chaos: pool unhealthy after the ladder stage".into());
    }

    // Stage 2: device faults in the hetero executor degrade to the
    // CPU-only rung without changing the answer.
    let hetero_plan = FaultPlan::new(seed ^ 0x9e37_79b9_7f4a_7c15, cfg);
    let hetero_n = 64;
    let hetero_oracle = run_solve_seq("lcs", hetero_n)?;
    let kernel = (LCS.instance)(hetero_n);
    let fw = LCS.framework(hetero_n, "high");
    // Pinned rather than tuned: on instances this small the tuner often
    // picks a CPU-only schedule, which has no device-involved waves and
    // therefore nothing to fault. An early switch with a narrow CPU band
    // guarantees the device participates in most waves.
    let params = ScheduleParams::new(8, 32);
    let mut cpu_only_reruns = 0u64;
    for _ in 0..hetero_iters {
        let sol = fw
            .solve_chaos(&kernel, params, &hetero_plan)
            .map_err(|e| e.to_string())?;
        if !sol.degradation.is_empty() {
            cpu_only_reruns += 1;
        }
        let answer = LCS.render(&sol.grid);
        if answer != hetero_oracle {
            return Err(format!(
                "chaos: hetero answer diverged after a device fault \
                 (got \"{answer}\", want \"{hetero_oracle}\")"
            ));
        }
    }

    // Stage 3: the serving stack over real HTTP, faults on both sides
    // of the wire, retrying clients, oracle-checked answers.
    let serve_oracle = run_solve_seq("lcs", n)?;
    let backend_plan = std::sync::Arc::new(FaultPlan::new(seed ^ 0xd1b5_4a32_d192_ed03, cfg));
    let server_plan = FaultPlan::new(seed ^ 0x94d0_49bb_1331_11eb, cfg);
    let backend = crate::serve_backend::FrameworkBackend::with_injector(backend_plan.clone());
    let server = Server::with_injector(
        ServeConfig {
            workers: 2,
            queue_capacity: 128,
            max_batch: 4,
            ..ServeConfig::default()
        },
        &backend,
        &NullSink,
        &server_plan,
    );
    let listener =
        std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("binding loopback: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    let (report, snapshot) = server.run(Some(listener), |client| {
        let target = HttpTarget::new(local.to_string(), Duration::from_secs(30));
        let lg = LoadgenConfig {
            request: SolveRequest::new("lcs", n),
            total: serve_total,
            concurrency: 4,
            expect_answer: Some(serve_oracle.clone()),
            retry: RetryPolicy::default_serving(seed),
            ..LoadgenConfig::default()
        };
        let report = lddp_serve::loadgen::run(&target, &lg);
        client.shutdown();
        (report, client.snapshot())
    });
    if report.mismatches != 0 {
        return Err(format!(
            "chaos: {} served answers diverged from the oracle (report: {})",
            report.mismatches,
            report.to_json()
        ));
    }
    if report.completed + report.rejected + report.errors != report.sent {
        return Err(format!(
            "chaos: request accounting leaked ({} sent vs {} completed + {} rejected + {} errors)",
            report.sent, report.completed, report.rejected, report.errors
        ));
    }

    let json = format!(
        "{{\"chaos\":{{\"seed\":{seed},\"campaign\":\"{}\",\
         \"engine\":{{\"solves\":{ladder_solves},\"degraded\":{ladder_degraded},\
         \"rungs\":{{\"bulk_to_scalar\":{rung_bulk},\"parallel_to_sequential\":{rung_seq}}},\
         \"pool_healthy_after\":true}},\
         \"hetero\":{{\"solves\":{hetero_iters},\"cpu_only_reruns\":{cpu_only_reruns}}},\
         \"serving\":{{\"report\":{},\"stats\":{}}},\
         \"faults\":{{\"engine\":{},\"hetero\":{},\"backend\":{},\"server\":{}}},\
         \"verdict\":\"pass\"}}}}",
        escape(campaign),
        report.to_json(),
        snapshot.to_json(),
        ladder_plan.report().to_json(),
        hetero_plan.report().to_json(),
        backend_plan.report().to_json(),
        server_plan.report().to_json(),
    );
    if let Some(path) = out_path {
        std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(json)
}

/// Executes a parsed command, returning the output text.
pub fn execute(cmd: Command) -> Result<String, String> {
    match cmd {
        Command::Help => Ok(usage()),
        Command::Classify { set } => run_classify(set),
        Command::Solve {
            problem,
            n,
            platform,
            params,
            json,
            memory,
        } => {
            // `--memory rolling` answers on the served ring; otherwise
            // this is the paper's heterogeneous full-table run.
            if memory == Some(MemoryMode::Rolling) {
                let engine = ParallelEngine::host();
                let params = match params {
                    Some(p) => p,
                    None => tune_params(&problem, n, &platform)?,
                };
                let summary = solve_served(&SolveArgs {
                    problem: &problem,
                    n,
                    platform: &platform,
                    params,
                    tier: None,
                    memory: MemoryMode::Rolling,
                    engine: &engine,
                    emit: None,
                    injector: None,
                    devices: 1,
                })?
                .summary;
                if json {
                    Ok(summary_json(&summary, n, &platform, ""))
                } else {
                    Ok(summary.render())
                }
            } else if json {
                run_solve_traced(&problem, n, &platform, params, &NullSink)
                    .map(|o| render_solve_json(&o))
            } else {
                run_solve(&problem, n, &platform, params).map(|s| s.render())
            }
        }
        Command::Tune {
            problem,
            n,
            platform,
            refined,
        } => run_tune(&problem, n, &platform, refined),
        Command::Balance {
            problem,
            n,
            platform,
            t_switch,
        } => run_balance(&problem, n, &platform, t_switch),
        Command::Compare {
            problem,
            n,
            platform,
            json,
        } => {
            if json {
                run_compare_data(&problem, n, &platform)
                    .map(|c| render_compare_json(&problem, n, &platform, &c))
            } else {
                run_compare(&problem, n, &platform)
            }
        }
        Command::Trace {
            problem,
            n,
            platform,
            params,
            out,
            metrics,
        } => run_trace(&problem, n, &platform, params, &out, metrics.as_deref()),
        Command::Serve {
            addr,
            config,
            trace,
            tune_cache,
            fleet,
        } => run_serve(
            &addr,
            config,
            trace.as_deref(),
            tune_cache.as_deref(),
            fleet,
        ),
        Command::Loadgen(opts) => run_loadgen(&opts),
        Command::Chaos {
            seed,
            campaign,
            out,
        } => run_chaos(seed, &campaign, out.as_deref()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_classify() {
        let cmd = parse(&argv("classify --set W,NW,N")).unwrap();
        assert_eq!(
            cmd,
            Command::Classify {
                set: ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N])
            }
        );
    }

    #[test]
    fn parse_solve_with_params() {
        let cmd = parse(&argv(
            "solve --problem levenshtein --n 256 --platform low --t-switch 8 --t-share 16",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Solve {
                problem: "levenshtein".into(),
                n: 256,
                platform: "low".into(),
                params: Some(ScheduleParams::new(8, 16)),
                json: false,
                memory: None,
            }
        );
        let cmd = parse(&argv("solve --problem lcs --memory rolling")).unwrap();
        assert!(matches!(
            cmd,
            Command::Solve {
                memory: Some(MemoryMode::Rolling),
                ..
            }
        ));
        assert!(parse(&argv("solve --problem lcs --memory sideways")).is_err());
    }

    #[test]
    fn parse_trace_and_json_flags() {
        let cmd = parse(&argv(
            "trace --problem lcs --n 128 --out t.json --metrics m.prom",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Trace {
                problem: "lcs".into(),
                n: 128,
                platform: "high".into(),
                params: None,
                out: "t.json".into(),
                metrics: Some("m.prom".into()),
            }
        );
        let cmd = parse(&argv("trace --problem lcs --t-switch 8 --t-share 32")).unwrap();
        match cmd {
            Command::Trace { params, .. } => {
                assert_eq!(params, Some(ScheduleParams::new(8, 32)));
            }
            other => panic!("unexpected {other:?}"),
        }
        // --out defaults; --metrics stays off unless given.
        let cmd = parse(&argv("trace --problem lcs")).unwrap();
        assert_eq!(
            cmd,
            Command::Trace {
                problem: "lcs".into(),
                n: 512,
                platform: "high".into(),
                params: None,
                out: "run.trace.json".into(),
                metrics: None,
            }
        );
        let cmd = parse(&argv("solve --problem lcs --json")).unwrap();
        assert!(matches!(cmd, Command::Solve { json: true, .. }));
        let cmd = parse(&argv("compare --problem lcs --json")).unwrap();
        assert!(matches!(cmd, Command::Compare { json: true, .. }));
        assert!(parse(&argv("trace --problem lcs --out")).is_err());
        assert!(parse(&argv("trace")).is_err());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse(&argv("solve --problem nonsense")).is_err());
        assert!(parse(&argv("solve")).is_err());
        assert!(parse(&argv("classify")).is_err());
        assert!(parse(&argv("classify --set X")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("solve --problem lcs --platform mid")).is_err());
        assert!(parse(&argv("solve --problem lcs --n NaN")).is_err());
    }

    #[test]
    fn parse_help_variants() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn parse_set_variants() {
        assert_eq!(
            parse_set("w,ne").unwrap(),
            ContributingSet::new(&[RepCell::W, RepCell::Ne])
        );
        assert!(parse_set("").is_err());
        assert!(parse_set("Q").is_err());
    }

    #[test]
    fn classify_renders_all_fields() {
        let out = run_classify(ContributingSet::new(&[RepCell::Nw])).unwrap();
        assert!(out.contains("Inverted-L"));
        assert!(out.contains("executed as"));
        assert!(out.contains("Horizontal"));
    }

    #[test]
    fn solve_small_instances_of_every_problem() {
        for problem in PROBLEMS {
            let summary =
                run_solve(problem, 48, "high", None).unwrap_or_else(|e| panic!("{problem}: {e}"));
            assert!(summary.hetero_ms > 0.0, "{problem}");
            assert!(!summary.answer.is_empty(), "{problem}");
        }
    }

    #[test]
    fn compare_and_tune_render() {
        let out = run_compare("lcs", 64, "low").unwrap();
        assert!(out.contains("CPU parallel"));
        assert!(out.contains("Framework"));
        let out = run_tune("lcs", 64, "high", false).unwrap();
        assert!(out.contains("t_switch sweep"));
        let out = run_tune("lcs", 64, "high", true).unwrap();
        assert!(out.contains("tuned params"));
    }

    #[test]
    fn balance_command_parses_and_runs() {
        let cmd = parse(&argv("balance --problem lcs --n 64 --t-switch 4")).unwrap();
        assert_eq!(
            cmd,
            Command::Balance {
                problem: "lcs".into(),
                n: 64,
                platform: "high".into(),
                t_switch: 4,
            }
        );
        let out = run_balance("lcs", 64, "high", 4).unwrap();
        assert!(out.contains("balanced"));
        assert!(out.contains("tuned static"));
    }

    #[test]
    fn solve_json_is_parseable_and_has_phases() {
        let out = run_solve_traced("levenshtein", 64, "high", None, &NullSink).unwrap();
        let text = render_solve_json(&out);
        let v = lddp_trace::json::parse(&text).unwrap();
        assert_eq!(
            v.get("problem").and_then(|j| j.as_str()),
            Some("levenshtein")
        );
        assert_eq!(v.get("n").and_then(|j| j.as_f64()), Some(64.0));
        let tier = v.get("tier").and_then(|j| j.as_str()).expect("tier key");
        assert!(ExecTier::parse(tier).is_some(), "unknown tier {tier:?}");
        assert!(v.get("total_ms").and_then(|j| j.as_f64()).unwrap() > 0.0);
        let util = v.get("utilization").unwrap();
        assert!(util.get("cpu").and_then(|j| j.as_f64()).unwrap() > 0.0);
        let phases = v.get("phases").and_then(|j| j.as_arr()).unwrap();
        assert!(!phases.is_empty(), "traced solve must report phases");
        for p in phases {
            assert!(p.get("wall_ms").and_then(|j| j.as_f64()).unwrap() >= 0.0);
            let kind = p.get("kind").and_then(|j| j.as_str()).unwrap();
            assert!(kind == "cpu_only" || kind == "shared");
        }
        assert!(v.get("answer").and_then(|j| j.as_str()).is_some());
    }

    #[test]
    fn compare_json_is_parseable() {
        let c = run_compare_data("lcs", 64, "low").unwrap();
        let text = render_compare_json("lcs", 64, "low", &c);
        let v = lddp_trace::json::parse(&text).unwrap();
        assert!(v.get("cpu_ms").and_then(|j| j.as_f64()).unwrap() > 0.0);
        assert!(v.get("framework_ms").and_then(|j| j.as_f64()).unwrap() > 0.0);
        assert_eq!(v.get("platform").and_then(|j| j.as_str()), Some("low"));
    }

    #[test]
    fn trace_command_writes_loadable_chrome_json() {
        let dir = std::env::temp_dir();
        let out = dir.join("lddp_cli_test.trace.json");
        let metrics = dir.join("lddp_cli_test.metrics.prom");
        // Explicit parameters that force a shared phase, so the trace
        // contains Link transfer spans (the tuner picks a CPU-only
        // schedule for small Levenshtein instances).
        let msg = run_trace(
            "levenshtein",
            256,
            "high",
            Some(ScheduleParams::new(8, 64)),
            out.to_str().unwrap(),
            Some(metrics.to_str().unwrap()),
        )
        .unwrap();
        assert!(msg.contains("spans"));
        assert!(msg.contains("lddp_sim_wave_span_seconds: p50 "), "{msg}");
        let text = std::fs::read_to_string(&out).unwrap();
        let v = lddp_trace::json::parse(&text).unwrap();
        let events = v.get("traceEvents").and_then(|j| j.as_arr()).unwrap();
        // Phase spans, wave spans and transfer spans all present.
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(|j| j.as_str()))
            .collect();
        assert!(names.iter().any(|n| n.starts_with("phase.")));
        assert!(names.contains(&"wave"));
        assert!(names.contains(&"copy"));
        let m = std::fs::read_to_string(&metrics).unwrap();
        let series = lddp_trace::live::parse_prometheus(&m);
        assert!(series.contains(&("lddp_sim_waves_total".to_string(), 513.0)));
        assert!(m.contains("# TYPE lddp_sim_wave_span_seconds histogram\n"));

        // A tuned trace additionally records the sweep.
        let msg = run_trace("levenshtein", 64, "high", None, out.to_str().unwrap(), None).unwrap();
        assert!(msg.contains("spans"));
        let text = std::fs::read_to_string(&out).unwrap();
        let v = lddp_trace::json::parse(&text).unwrap();
        let events = v.get("traceEvents").and_then(|j| j.as_arr()).unwrap();
        assert!(events
            .iter()
            .filter_map(|e| e.get("name").and_then(|j| j.as_str()))
            .any(|n| n == "tuner.sweep"));
        let _ = std::fs::remove_file(&out);
        let _ = std::fs::remove_file(&metrics);
    }

    #[test]
    fn execute_dispatches() {
        let out = execute(Command::Help).unwrap();
        assert!(out.contains("USAGE"));
        let out = execute(parse(&argv("classify --set NE")).unwrap()).unwrap();
        assert!(out.contains("mInverted-L"));
    }

    #[test]
    fn parse_serve_defaults_and_flags() {
        assert_eq!(
            parse(&argv("serve")).unwrap(),
            Command::Serve {
                addr: "127.0.0.1:8700".into(),
                config: ServeConfig::default(),
                trace: None,
                tune_cache: None,
                fleet: false,
            }
        );
        let defaults = ServeConfig::default();
        assert_eq!(
            (
                defaults.workers,
                defaults.queue_capacity,
                defaults.max_batch
            ),
            (4, 256, 8)
        );
        assert_eq!(
            parse(&argv(
                "serve --addr 0.0.0.0:9000 --workers 2 --queue-cap 32 --max-batch 4 \
                 --batch-queue-cap 16 --tenant-rps 5 --tenant-burst 10 \
                 --deadline-ms 500 --watchdog-ms 250 --trace serve.trace.json \
                 --tune-cache tc.json --fleet"
            ))
            .unwrap(),
            Command::Serve {
                addr: "0.0.0.0:9000".into(),
                config: ServeConfig {
                    workers: 2,
                    queue_capacity: 32,
                    batch_queue_capacity: Some(16),
                    tenant_quota_rps: Some(5.0),
                    tenant_quota_burst: 10.0,
                    max_batch: 4,
                    default_deadline_ms: Some(500),
                    watchdog_ms: Some(250),
                    ..ServeConfig::default()
                },
                trace: Some("serve.trace.json".into()),
                tune_cache: Some("tc.json".into()),
                fleet: true,
            }
        );
        assert!(parse(&argv("serve --tune-cache")).is_err());
        assert!(parse(&argv("serve --workers")).is_err());
        assert!(parse(&argv("serve --queue-cap many")).is_err());
        assert!(parse(&argv("serve --watchdog-ms soon")).is_err());
        assert!(parse(&argv("serve --tenant-rps 0")).is_err());
        assert!(parse(&argv("serve --tenant-burst 0.5")).is_err());
    }

    #[test]
    fn parse_loadgen_defaults_and_flags() {
        assert_eq!(
            parse(&argv("loadgen --problem lcs")).unwrap(),
            Command::Loadgen(LoadgenOpts {
                addr: None,
                problem: "lcs".into(),
                n: 256,
                platform: "high".into(),
                requests: 100,
                rps: None,
                duration_s: None,
                concurrency: 4,
                deadline_ms: None,
                no_verify: false,
                retries: 1,
                mix: vec![],
                priority: Priority::Interactive,
                tenant: String::new(),
                fleet: false,
                stream: false,
                retry_after_cap_ms: None,
            })
        );
        let cmd = parse(&argv(
            "loadgen --addr 127.0.0.1:8700 --problem dtw --n 128 --requests 500 \
             --rps 50 --duration 10 --concurrency 8 --deadline-ms 2000 --no-verify \
             --retries 3 --mix 48,96,1100 --priority batch --tenant acme \
             --stream --retry-after-cap-ms 500",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Loadgen(LoadgenOpts {
                addr: Some("127.0.0.1:8700".into()),
                problem: "dtw".into(),
                n: 128,
                platform: "high".into(),
                requests: 500,
                rps: Some(50.0),
                duration_s: Some(10.0),
                concurrency: 8,
                deadline_ms: Some(2000),
                no_verify: true,
                retries: 3,
                mix: vec![48, 96, 1100],
                priority: Priority::Batch,
                tenant: "acme".into(),
                fleet: false,
                stream: true,
                retry_after_cap_ms: Some(500),
            })
        );
        assert!(parse(&argv("loadgen --problem lcs --priority urgent")).is_err());
        assert!(parse(&argv("loadgen --problem lcs --retry-after-cap-ms soon")).is_err());
        match parse(&argv("loadgen --problem lcs --fleet")).unwrap() {
            Command::Loadgen(opts) => {
                assert!(opts.fleet);
                assert!(opts.addr.is_none());
            }
            other => panic!("expected Loadgen, got {other:?}"),
        }
        assert!(
            parse(&argv("loadgen --addr 127.0.0.1:8700 --problem lcs --fleet")).is_err(),
            "--fleet is the in-process server's; a remote server chooses its own backend"
        );
        assert!(parse(&argv("loadgen --problem lcs --mix")).is_err());
        assert!(parse(&argv("loadgen --problem lcs --mix 48,banana")).is_err());
        assert!(parse(&argv("loadgen --problem lcs --mix 48,1")).is_err());
        assert!(parse(&argv("loadgen")).is_err(), "requires --problem");
        assert!(parse(&argv("loadgen --problem lcs --requests 0")).is_err());
        assert!(
            parse(&argv("loadgen --problem lcs --retries 0")).is_err(),
            "--retries counts attempts, so 0 is nonsense"
        );
        assert!(parse(&argv("loadgen --problem lcs --rps -3")).is_err());
        assert!(parse(&argv("loadgen --problem lcs --duration 0")).is_err());
        assert!(
            parse(&argv("loadgen --problem lcs --requests 0 --duration 2")).is_ok(),
            "duration-bounded unlimited runs are legal"
        );
    }

    #[test]
    fn parse_chaos_defaults_and_flags() {
        assert_eq!(
            parse(&argv("chaos")).unwrap(),
            Command::Chaos {
                seed: 42,
                campaign: "quick".into(),
                out: None,
            }
        );
        assert_eq!(
            parse(&argv("chaos --seed 7 --campaign heavy --out chaos.json")).unwrap(),
            Command::Chaos {
                seed: 7,
                campaign: "heavy".into(),
                out: Some("chaos.json".into()),
            }
        );
        assert!(parse(&argv("chaos --campaign catastrophic")).is_err());
        assert!(parse(&argv("chaos --seed many")).is_err());
    }

    /// The in-process form of the memory-capped
    /// `solve --problem P --n 8192 --memory rolling --json` CI step:
    /// every wave problem answers off its ring.
    #[test]
    fn rolling_solve_json_reports_a_ring_sized_table_and_the_oracle_answer() {
        for problem in [
            "lcs",
            "levenshtein",
            "needleman-wunsch",
            "smith-waterman",
            "dtw",
        ] {
            let cmd = format!("solve --problem {problem} --n 300 --memory rolling --json");
            let text = execute(parse(&argv(&cmd)).unwrap()).unwrap();
            let reply = lddp_trace::json::parse(&text).expect("solve JSON parses");
            let field = |key: &str| reply.get(key).and_then(|j| j.as_str());
            assert_eq!(field("memory_mode"), Some("rolling"), "{problem}");
            let bytes = match reply.get("table_bytes") {
                Some(lddp_trace::json::Json::Num(b)) => *b as usize,
                other => panic!("{problem}: table_bytes missing: {other:?}"),
            };
            let (full, ring) = table_footprint(problem, 300).unwrap();
            assert!(
                bytes <= ring && bytes * 4 < full,
                "{problem}: {bytes} B against a {ring} B ring and a {full} B table"
            );
            let oracle = run_solve_seq(problem, 300).unwrap();
            assert_eq!(field("answer"), Some(oracle.as_str()), "{problem}");
        }
        for flag in ["--quick", "--rolling"] {
            let err = parse(&argv(&format!("bench {flag}"))).unwrap_err();
            assert!(err.contains("unknown command 'bench'"), "{err}");
        }
    }

    fn served(problem: &str, tier: Option<ExecTier>, engine: &ParallelEngine) -> RunSummary {
        solve_served(&SolveArgs {
            problem,
            n: 64,
            platform: "high",
            params: ScheduleParams::new(4, 16),
            tier,
            memory: MemoryMode::Full,
            engine,
            emit: None,
            injector: None,
            devices: 1,
        })
        .unwrap()
        .summary
    }

    #[test]
    fn pooled_solve_honors_tier_pins_and_bitparallel_matches() {
        let engine = ParallelEngine::new(2);
        let auto = served("lcs", None, &engine);
        let scalar = served("lcs", Some(ExecTier::Scalar), &engine);
        assert_eq!(scalar.tier, ExecTier::Scalar);
        assert_eq!(scalar.answer, auto.answer);
        let bp = served("lcs", Some(ExecTier::BitParallel), &engine);
        assert_eq!(bp.tier, ExecTier::BitParallel);
        assert_eq!(bp.answer, auto.answer);
        // Only lcs has a bit-parallel kernel; everything else solves on
        // the best available grid tier.
        let lev = served("levenshtein", Some(ExecTier::BitParallel), &engine);
        assert_ne!(lev.tier, ExecTier::BitParallel);
        assert!(lev.answer.contains("edit distance"));
    }

    #[test]
    fn a_second_simd_worker_starts_at_a_6144_cell_wave() {
        assert_eq!(served_workers(ExecTier::Simd, 1), Some(1));
        assert_eq!(served_workers(ExecTier::Simd, 6143), Some(1));
        assert_eq!(served_workers(ExecTier::Simd, 6144), Some(2));
        assert_eq!(served_workers(ExecTier::Simd, 8193), Some(2));
        for tier in [ExecTier::Scalar, ExecTier::Bulk] {
            assert_eq!(served_workers(tier, 8193), None, "{tier:?}");
        }
    }

    /// A narrow SIMD solve computes inline on the caller; a scalar one
    /// takes the engine's width.
    #[test]
    fn served_solves_start_the_pool_only_for_wide_or_scalar_work() {
        let solve = |problem: &str, engine: &ParallelEngine| {
            let config = tune_config(problem, 512, "high", engine).unwrap();
            solve_served(&SolveArgs {
                problem,
                n: 512,
                platform: "high",
                params: config.params,
                tier: Some(config.tier),
                memory: config.memory_mode,
                engine,
                emit: None,
                injector: None,
                devices: 1,
            })
            .unwrap()
            .summary
        };
        let engine = ParallelEngine::new(2);
        if lddp_core::kernel::simd_available() {
            let lev = solve("levenshtein", &engine);
            assert_eq!(lev.tier, ExecTier::Simd);
            assert_eq!(lev.answer, run_solve_seq("levenshtein", 512).unwrap());
            assert!(!engine.pool_started(), "one SIMD worker computes inline");
        }
        let dith = solve("dithering", &engine);
        assert_eq!(dith.tier, ExecTier::Scalar);
        assert!(engine.pool_started(), "scalar runs keep the engine's width");
    }

    #[test]
    fn tune_config_takes_the_availability_order_without_solving() {
        let engine = ParallelEngine::new(2);
        for problem in PROBLEMS {
            let config = tune_config(problem, 48, "high", &engine).unwrap();
            assert_eq!(
                config.tier,
                select_tier(problem, 48, &engine).unwrap(),
                "{problem}"
            );
            // Only lcs has a gridless kernel; the rest land on a grid
            // tier the engine can execute.
            assert_eq!(
                config.tier == ExecTier::BitParallel,
                *problem == "lcs",
                "{problem}"
            );
        }
        assert!(
            !engine.pool_started(),
            "tuning must not solve on the engine"
        );
    }

    #[test]
    fn a_price_memo_hit_does_not_price() {
        let memo = PriceMemo::new();
        let params = ScheduleParams::new(2, 16);
        let key = PriceKey::new("lcs", 64, "high", params, 1);
        let stored = (params, 1.25e-3);
        assert_eq!(memo.get_or_price(key, || Ok::<_, ()>(stored)), Ok(stored));
        let hit = memo.get_or_price(key, || -> Result<_, ()> { panic!("a hit priced") });
        assert_eq!(hit, Ok(stored));
        // Preset names that select one platform share a key; a failed
        // price is not kept.
        assert_eq!(
            PriceKey::new("lcs", 64, "cpu", params, 1),
            PriceKey::new("lcs", 64, "cpu-only", params, 1)
        );
        let split = PriceKey::new("lcs", 64, "high", params, 3);
        assert_eq!(
            memo.get_or_price(split, || Err("no split")),
            Err("no split")
        );
        assert_eq!(
            memo.get_or_price(split, || Ok::<_, &str>(stored)),
            Ok(stored)
        );
    }

    #[test]
    fn a_full_price_memo_clears_and_stays_within_its_cap() {
        let memo = PriceMemo::new();
        let len = || memo.map.lock().unwrap().len();
        for n in 0..=PRICE_MEMO_CAP {
            let key = PriceKey::new("lcs", n, "high", ScheduleParams::default(), 1);
            memo.get_or_price(key, || Ok::<_, ()>((ScheduleParams::default(), n as f64)))
                .unwrap();
            assert!(len() <= PRICE_MEMO_CAP, "{} entries", len());
        }
        // The insert past the cap found the memo full and cleared it.
        assert_eq!(len(), 1);
    }

    #[test]
    fn distinct_pinned_params_keep_the_price_memo_within_its_cap() {
        let memo = PriceMemo::new();
        let kernel = (LCS.instance)(2);
        for t in 0..=PRICE_MEMO_CAP {
            let params = ScheduleParams::new(t, t);
            let key = PriceKey::new(LCS.name, 2, "high", params, 1);
            let (_, s) = memo
                .get_or_price(key, || LCS.price(&kernel, 2, "high", params, 1))
                .unwrap();
            assert!(s.is_finite() && s > 0.0, "{params:?}: {s}");
            assert!(memo.map.lock().unwrap().len() <= PRICE_MEMO_CAP);
        }
    }

    /// Every registry problem on both presets, priced whole and split: a
    /// key's second served solve reports its first one's bits, and a
    /// one-device solve reports what `estimate_virtual` returns.
    #[test]
    fn repeated_keys_keep_their_price_bits_across_the_registry() {
        let engine = ParallelEngine::new(1);
        let params = ScheduleParams::new(4, 16);
        for problem in PROBLEMS {
            for n in [2, 257, 1024] {
                for platform in ["high", "low"] {
                    for devices in [1, 3] {
                        let args = SolveArgs {
                            problem,
                            n,
                            platform,
                            params,
                            tier: None,
                            memory: MemoryMode::Rolling,
                            engine: &engine,
                            emit: None,
                            injector: None,
                            devices,
                        };
                        let first = solve_served(&args).unwrap().summary.hetero_ms;
                        let second = solve_served(&args).unwrap().summary.hetero_ms;
                        let at = format!("{problem} n={n} {platform} devices={devices}");
                        assert_eq!(first.to_bits(), second.to_bits(), "{at}");
                        if devices == 1 {
                            let estimate = estimate_virtual(problem, n, platform, params).unwrap();
                            assert_eq!(first.to_bits(), (estimate * 1e3).to_bits(), "{at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn the_registry_lists_every_problem_once_in_order() {
        let names: Vec<&str> = REGISTRY.iter().map(|p| p.name()).collect();
        assert_eq!(names, PROBLEMS);
        assert!(problem("nonsense").is_err());
    }

    #[test]
    fn loadgen_in_process_reports_clean_run() {
        let opts = LoadgenOpts {
            addr: None,
            problem: "lcs".into(),
            n: 48,
            platform: "high".into(),
            requests: 20,
            rps: None,
            duration_s: None,
            concurrency: 4,
            deadline_ms: None,
            no_verify: false,
            retries: 1,
            mix: vec![],
            priority: Priority::Interactive,
            tenant: String::new(),
            fleet: false,
            stream: false,
            retry_after_cap_ms: None,
        };
        let text = run_loadgen(&opts).unwrap();
        let v = lddp_trace::json::parse(&text).unwrap();
        assert_eq!(v.get("sent").and_then(|j| j.as_f64()), Some(20.0));
        assert_eq!(v.get("completed").and_then(|j| j.as_f64()), Some(20.0));
        assert_eq!(v.get("errors").and_then(|j| j.as_f64()), Some(0.0));
        assert_eq!(v.get("mismatches").and_then(|j| j.as_f64()), Some(0.0));
        let latency = v
            .get("latency_ms")
            .and_then(|l| l.get("total"))
            .expect("latency summary");
        assert!(latency.get("p50_ms").and_then(|j| j.as_f64()).is_some());
        assert!(latency.get("p99_ms").and_then(|j| j.as_f64()).is_some());
        assert!(v.get("rejection_rate").and_then(|j| j.as_f64()).is_some());
    }

    #[test]
    fn loadgen_in_process_stream_reports_bands_and_ttfb() {
        let opts = LoadgenOpts {
            addr: None,
            problem: "lcs".into(),
            n: 96,
            platform: "high".into(),
            requests: 6,
            rps: None,
            duration_s: None,
            concurrency: 2,
            deadline_ms: None,
            no_verify: false,
            retries: 1,
            mix: vec![],
            priority: Priority::Interactive,
            tenant: String::new(),
            fleet: false,
            stream: true,
            retry_after_cap_ms: Some(500),
        };
        let text = run_loadgen(&opts).unwrap();
        let v = lddp_trace::json::parse(&text).unwrap();
        assert_eq!(v.get("completed").and_then(|j| j.as_f64()), Some(6.0));
        assert_eq!(v.get("mismatches").and_then(|j| j.as_f64()), Some(0.0));
        assert_eq!(
            v.get("retry_after_cap_ms").and_then(|j| j.as_f64()),
            Some(500.0)
        );
        let bands = v
            .get("stream")
            .and_then(|s| s.get("bands"))
            .and_then(|j| j.as_f64())
            .expect("stream band count");
        assert!(bands >= 6.0, "every request delivers at least one band");
        let ttfb = v
            .get("latency_ms")
            .and_then(|l| l.get("ttfb"))
            .expect("ttfb summary");
        assert_eq!(ttfb.get("count").and_then(|j| j.as_f64()), Some(6.0));
    }
}
