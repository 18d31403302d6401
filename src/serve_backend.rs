//! The [`SolveBackend`] that wires `lddp-serve` to the [`Framework`]:
//! validation against the CLI problem registry, §V-A tuning amortized
//! through a [`TunerCache`], and traced heterogeneous solves.
//!
//! This is the dependency seam of the serving stack: `lddp-serve` only
//! knows `lddp-core` types, so the umbrella crate (which owns the
//! problem registry and the execution engines) supplies the backend.

use crate::cli;
use lddp_chaos::FaultInjector;
use lddp_core::kernel::MemoryMode;
use lddp_core::rolling::BandEvent;
use lddp_core::schedule::ScheduleParams;
use lddp_core::tuner_cache::{TuneKey, TunedConfig, TunerCache};
use lddp_core::wavefront::Dims;
use lddp_parallel::ParallelEngine;
use lddp_serve::{BackendSolve, BandFrame, BatchPlan, SolveBackend, SolveRequest};
use lddp_trace::live::LiveRegistry;
use lddp_trace::TraceSink;
use std::sync::Arc;

/// Largest instance side the server accepts. Solves are O(n²) cells on
/// a modelled platform; this cap keeps one request from monopolizing a
/// worker for minutes.
pub const MAX_SERVE_N: usize = 8192;

/// Bands a streamed solve (`POST /solve?stream=1`) is cut into: enough
/// granularity that the first frame lands a few percent into the
/// schedule (time-to-first-band ≪ total latency) without the per-band
/// barrier bookkeeping showing up in throughput.
pub const STREAM_BANDS: usize = 32;

/// Bridges an engine [`BandEvent`] to the serve-layer wire frame.
/// `elapsed_ms` is stamped by the server at emission (it owns the
/// request clock), so it is zero here.
fn band_frame_of(ev: BandEvent) -> BandFrame {
    BandFrame {
        band: ev.band,
        bands: ev.bands,
        wave_lo: ev.wave_lo,
        wave_hi: ev.wave_hi,
        rows_completed: ev.rows_completed,
        rows: ev.rows,
        cells_done: ev.cells_done,
        cells_total: ev.cells_total,
        score: ev.score,
        best: ev.best,
        elapsed_ms: 0.0,
    }
}

/// The served solve of `args`, with `emit` (serve-layer frames) bridged
/// to the engine's band events.
pub(crate) fn serve(
    args: cli::SolveArgs<'_>,
    emit: Option<&(dyn Fn(BandFrame) -> bool + Sync)>,
) -> Result<cli::ServedSolve, String> {
    let bridge = emit.map(|emit| move |ev: BandEvent| emit(band_frame_of(ev)));
    cli::solve_served(&cli::SolveArgs {
        emit: bridge
            .as_ref()
            .map(|b| b as &(dyn Fn(BandEvent) -> bool + Sync)),
        ..args
    })
}

/// Checks `req` against the problem registry, the serving size cap and
/// the cost-model `platforms` the backend accepts (`expected` names them
/// in the error).
pub(crate) fn validate_request(
    req: &SolveRequest,
    platforms: &[&str],
    expected: &str,
) -> Result<(), String> {
    if !cli::PROBLEMS.contains(&req.problem.as_str()) {
        return Err(format!(
            "unknown problem \"{}\"; expected one of {}",
            req.problem,
            cli::PROBLEMS.join(", ")
        ));
    }
    if req.n < 2 {
        return Err("\"n\" must be at least 2".to_string());
    }
    if req.n > MAX_SERVE_N {
        return Err(format!("\"n\" exceeds the serving cap of {MAX_SERVE_N}"));
    }
    if !platforms.contains(&req.platform.as_str()) {
        return Err(format!(
            "unknown platform \"{}\"; expected {expected}",
            req.platform
        ));
    }
    Ok(())
}

/// The configuration `probe` solves under on `engine`: tuned on the
/// `platform` cost model and cached per `(problem, dims bucket,
/// key_platform)`, with tuner-cache misses counted in `live`. Pinned
/// parameters skip tuning (never a cache hit) but take the same tier
/// rule as a tuned request — requests pin schedule parameters, not
/// execution machinery. The memory mode is the ring on every lookup,
/// whatever a cache entry restored from an older file says, unless the
/// request pins one (the batch key keeps pinned and unpinned requests
/// apart).
pub(crate) fn tuned(
    cache: &TunerCache,
    live: Option<&LiveRegistry>,
    probe: &SolveRequest,
    key_platform: &str,
    platform: &str,
    engine: &ParallelEngine,
) -> Result<(TunedConfig, bool), String> {
    let (problem, n) = (probe.problem.as_str(), probe.n);
    let (config, hit) = match probe.params {
        Some(params) => (
            TunedConfig::new(params, cli::select_tier(problem, n, engine)?),
            false,
        ),
        None => {
            let key = TuneKey::new(problem, Dims::new(n, n), key_platform);
            cache.get_or_tune(&key, || {
                if let Some(live) = live {
                    live.counter(
                        "lddp_tuner_sweeps_total",
                        &[],
                        "Full tuning sweeps executed on a tuner-cache miss.",
                    )
                    .inc();
                }
                cli::tune_config(problem, n, platform, engine)
            })?
        }
    };
    let memory = probe.memory_mode.unwrap_or(MemoryMode::Rolling);
    Ok((config.with_memory_mode(memory), hit))
}

/// The admission price of `req` on the `platform` cost model, in
/// virtual milliseconds, the clock `SolveResponse::virtual_ms` reports:
/// with pinned parameters, else the configuration `cache` holds for
/// `(problem, dims bucket, key_platform)`, else the nominal `(2, 16)`.
/// Never a tuning sweep, so admission stays cheap; a warm key is priced
/// with the parameters it is placed and solved with.
pub(crate) fn admission_ms(
    cache: &TunerCache,
    req: &SolveRequest,
    key_platform: &str,
    platform: &str,
) -> Option<f64> {
    let params = req
        .params
        .or_else(|| {
            let key = TuneKey::new(req.problem.as_str(), Dims::new(req.n, req.n), key_platform);
            cache.get(&key).map(|c| c.params)
        })
        .unwrap_or_else(|| ScheduleParams::new(2, 16));
    cli::estimate_virtual(&req.problem, req.n, platform, params)
        .ok()
        .map(|s| s * 1e3)
}

/// The reply half of a served solve.
pub(crate) fn backend_solve(served: cli::ServedSolve, placed_on: Option<String>) -> BackendSolve {
    let s = served.summary;
    BackendSolve {
        answer: s.answer,
        virtual_ms: s.hetero_ms,
        params: s.params,
        tier: s.tier,
        memory_mode: s.memory_mode,
        table_bytes: s.table_bytes,
        degraded: served.degraded,
        placed_on,
        devices: served.devices,
    }
}

/// [`SolveBackend`] over the real [`Framework`](crate::Framework)
/// solve path, with tuned parameters cached per
/// `(problem, dims bucket, platform)` and tables computed on one
/// persistent [`ParallelEngine`]: its worker pool spins up on the first
/// request and is reused by every batch for the lifetime of the server,
/// so steady-state serving pays no thread spawns.
pub struct FrameworkBackend {
    cache: TunerCache,
    engine: ParallelEngine,
    injector: Option<Arc<dyn FaultInjector>>,
    live: Option<Arc<LiveRegistry>>,
}

impl std::fmt::Debug for FrameworkBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameworkBackend")
            .field("cache", &self.cache)
            .field("engine", &self.engine)
            .field("injected", &self.injector.is_some())
            .finish()
    }
}

impl Default for FrameworkBackend {
    fn default() -> FrameworkBackend {
        FrameworkBackend::new()
    }
}

impl FrameworkBackend {
    /// A backend with an empty tuner cache and a host-sized engine.
    pub fn new() -> FrameworkBackend {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        FrameworkBackend {
            cache: TunerCache::new(),
            engine: ParallelEngine::new(threads),
            injector: None,
            live: None,
        }
    }

    /// Attaches a [`LiveRegistry`]: the pooled engine records its
    /// `lddp_pool_*` utilization families into it on every solve, and
    /// tuning sweeps executed on a cache miss count under
    /// `lddp_tuner_sweeps_total`. Pass the server's own registry
    /// (`Server::live`) so backend and server series land in the same
    /// `/metrics` exposition.
    pub fn with_live(mut self, live: Arc<LiveRegistry>) -> FrameworkBackend {
        self.engine = self.engine.with_live(Arc::clone(&live));
        self.live = Some(live);
        self
    }

    /// A backend whose solves consult `injector` — chaos campaigns
    /// attach a seeded [`lddp_chaos::FaultPlan`] here. Injected solves
    /// run the engine's graceful-degradation ladder and report the
    /// rungs taken in [`BackendSolve::degraded`], so the server can
    /// count and surface them per response.
    pub fn with_injector(injector: Arc<dyn FaultInjector>) -> FrameworkBackend {
        FrameworkBackend {
            injector: Some(injector),
            ..FrameworkBackend::new()
        }
    }

    /// The tuner cache (for stats and tests).
    pub fn cache(&self) -> &TunerCache {
        &self.cache
    }

    /// One served solve on the shared engine.
    fn serve(
        &self,
        req: &SolveRequest,
        config: TunedConfig,
        emit: Option<&(dyn Fn(BandFrame) -> bool + Sync)>,
    ) -> Result<BackendSolve, String> {
        let args = cli::SolveArgs {
            problem: &req.problem,
            n: req.n,
            platform: &req.platform,
            params: config.params,
            tier: Some(config.tier),
            memory: config.memory_mode,
            engine: &self.engine,
            emit: None,
            injector: self.injector.as_deref(),
            devices: 1,
        };
        serve(args, emit).map(|s| backend_solve(s, None))
    }
}

impl SolveBackend for FrameworkBackend {
    fn validate(&self, req: &SolveRequest) -> Result<(), String> {
        validate_request(req, &["high", "low"], "high or low")
    }

    fn tune(
        &self,
        probe: &SolveRequest,
        _sink: &dyn TraceSink,
    ) -> Result<(TunedConfig, bool), String> {
        let platform = probe.platform.as_str();
        let live = self.live.as_deref();
        tuned(&self.cache, live, probe, platform, platform, &self.engine)
    }

    fn estimate_ms(&self, req: &SolveRequest) -> Option<f64> {
        admission_ms(&self.cache, req, &req.platform, &req.platform)
    }

    fn solve(
        &self,
        req: &SolveRequest,
        config: TunedConfig,
        _sink: &dyn TraceSink,
    ) -> Result<BackendSolve, String> {
        self.serve(req, config, None)
    }

    fn solve_streamed(
        &self,
        req: &SolveRequest,
        plan: &BatchPlan,
        _sink: &dyn TraceSink,
        emit: &(dyn Fn(BandFrame) -> bool + Sync),
    ) -> Result<BackendSolve, String> {
        // Every problem streams bands off a rolling solve, whatever the
        // tuned memory mode: a full-table solve only produces its answer
        // at the very end. Injected solves send zero band frames, then
        // the done frame.
        self.serve(req, plan.config, Some(emit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lddp_core::kernel::ExecTier;
    use lddp_core::schedule::ScheduleParams;
    use lddp_trace::NullSink;

    #[test]
    fn validate_enforces_registry_and_bounds() {
        let b = FrameworkBackend::new();
        assert!(b.validate(&SolveRequest::new("lcs", 64)).is_ok());
        assert!(b.validate(&SolveRequest::new("nonsense", 64)).is_err());
        assert!(b.validate(&SolveRequest::new("lcs", 1)).is_err());
        assert!(b
            .validate(&SolveRequest::new("lcs", MAX_SERVE_N + 1))
            .is_err());
        let mut bad_platform = SolveRequest::new("lcs", 64);
        bad_platform.platform = "mid".into();
        assert!(b.validate(&bad_platform).is_err());
    }

    #[test]
    fn tune_caches_within_bucket_and_skips_pinned() {
        let b = FrameworkBackend::new();
        let (c1, hit1) = b.tune(&SolveRequest::new("lcs", 100), &NullSink).unwrap();
        assert!(!hit1);
        // 100 and 128 share the 128 bucket.
        let (c2, hit2) = b.tune(&SolveRequest::new("lcs", 128), &NullSink).unwrap();
        assert!(hit2);
        assert_eq!(c1, c2);
        assert_eq!(b.cache().len(), 1);

        let mut pinned = SolveRequest::new("lcs", 100);
        pinned.params = Some(ScheduleParams::new(3, 7));
        let (c3, hit3) = b.tune(&pinned, &NullSink).unwrap();
        assert!(!hit3);
        assert_eq!(c3.params, ScheduleParams::new(3, 7));
        assert_eq!(b.cache().len(), 1, "pinned params never enter the cache");
    }

    #[test]
    fn solve_clamps_cached_params_for_smaller_instances() {
        let b = FrameworkBackend::new();
        // Deliberately illegal for n=32: t_switch far beyond the wave
        // count. The backend must clamp instead of erroring — against
        // the kernel's 33 × 33 table: half of its 65 waves, 33 columns.
        let solved = b
            .solve(
                &SolveRequest::new("lcs", 32),
                TunedConfig::new(ScheduleParams::new(10_000, 10_000), ExecTier::Bulk),
                &NullSink,
            )
            .unwrap();
        assert_eq!(solved.params, ScheduleParams::new(32, 33));
        assert!(!solved.answer.is_empty());
    }

    /// Admission and placement estimate a request with the parameters
    /// it is solved and reported with: both legalize against the
    /// kernel's own table, (n + 1) × (n + 1) for lcs.
    #[test]
    fn estimate_and_solve_legalize_params_against_the_same_table() {
        let b = FrameworkBackend::new();
        let params = ScheduleParams::new(96, 97);
        let solved = b
            .solve(
                &SolveRequest::new("lcs", 96),
                TunedConfig::new(params, ExecTier::Bulk),
                &NullSink,
            )
            .unwrap();
        let pattern = crate::cli::classify_problem("lcs", 96).unwrap();
        assert_eq!(
            solved.params,
            params.clamped_for(pattern, Dims::new(97, 97))
        );
        assert_eq!(solved.params, params, "96/97 is legal on the 97 x 97 table");
        let estimate = crate::cli::estimate_virtual("lcs", 96, "high", params).unwrap();
        assert_eq!(solved.virtual_ms, estimate * 1e3);
    }

    #[test]
    fn solve_answer_matches_sequential_oracle() {
        let b = FrameworkBackend::new();
        for problem in ["lcs", "levenshtein", "weighted-edit", "dithering"] {
            let req = SolveRequest::new(problem, 48);
            let (config, _) = b.tune(&req, &NullSink).unwrap();
            let served = b.solve(&req, config, &NullSink).unwrap();
            let oracle = crate::cli::run_solve_seq(problem, 48).unwrap();
            assert_eq!(served.answer, oracle, "{problem}");
        }
    }

    #[test]
    fn live_registry_counts_tuner_sweeps_and_pool_solves() {
        let reg = Arc::new(LiveRegistry::new());
        let b = FrameworkBackend::new().with_live(Arc::clone(&reg));
        // A grid problem: lcs is served by the gridless bit-parallel
        // kernel, which never touches the pool.
        let req = SolveRequest::new("levenshtein", 100);
        let (config, hit) = b.tune(&req, &NullSink).unwrap();
        assert!(!hit);
        // Same bucket: served from the cache, no second sweep.
        let (_, hit2) = b
            .tune(&SolveRequest::new("levenshtein", 128), &NullSink)
            .unwrap();
        assert!(hit2);
        b.solve(&req, config, &NullSink).unwrap();
        let text = reg.to_prometheus();
        assert!(text.contains("lddp_tuner_sweeps_total 1"), "{text}");
        assert!(text.contains("lddp_pool_solves_total"), "{text}");
    }

    #[test]
    fn validate_accepts_either_memory_pin_for_every_problem() {
        let b = FrameworkBackend::new();
        for &problem in crate::cli::PROBLEMS {
            for mode in MemoryMode::ALL {
                let mut req = SolveRequest::new(problem, 64);
                req.memory_mode = Some(mode);
                assert!(b.validate(&req).is_ok(), "{problem} {mode}");
            }
        }
    }

    /// Pinned to rolling, and unpinned through the tuner: every problem
    /// is served off the ring.
    #[test]
    fn rolling_mode_serves_the_oracle_answer_with_band_sized_tables() {
        let b = FrameworkBackend::new();
        for &problem in crate::cli::PROBLEMS {
            let req = SolveRequest::new(problem, 48);
            let pinned = TunedConfig::new(ScheduleParams::new(4, 16), ExecTier::Bulk)
                .with_memory_mode(MemoryMode::Rolling);
            let (tuned, _) = b.tune(&req, &NullSink).unwrap();
            let oracle = crate::cli::run_solve_seq(problem, 48).unwrap();
            let (full, ring) = crate::cli::table_footprint(problem, 48).unwrap();
            for config in [pinned, tuned] {
                let served = b.solve(&req, config, &NullSink).unwrap();
                assert_eq!(served.memory_mode, MemoryMode::Rolling, "{problem}");
                // k wave slots of ≤ 49 cells each, not a 49×49 grid;
                // tuned lcs runs the gridless bit-parallel kernel, one
                // bit-vector row and its match table.
                let bound = if served.tier == ExecTier::BitParallel {
                    full / 4
                } else {
                    ring
                };
                assert!(
                    served.table_bytes <= bound,
                    "{problem}: {} bytes",
                    served.table_bytes
                );
                assert_eq!(served.answer, oracle, "{problem}");
            }
        }
    }

    /// A cache file written while the memory mode was a tuned result
    /// holds `"full"` for wave problems; a warm-started server still
    /// rolls them.
    #[test]
    fn restored_full_entries_still_serve_off_the_ring() {
        let b = FrameworkBackend::new();
        let doc = r#"{"version":2,"entries":[{"problem":"levenshtein","rows_bucket":128,
            "cols_bucket":128,"platform":"high","t_switch":4,"t_share":16,"tier":"simd",
            "memory_mode":"full"}]}"#;
        assert_eq!(b.cache().load_json(doc), Ok(1));
        let req = SolveRequest::new("levenshtein", 100);
        let (config, hit) = b.tune(&req, &NullSink).unwrap();
        assert!(hit, "the restored entry answers the lookup");
        let served = b.solve(&req, config, &NullSink).unwrap();
        assert_eq!(served.memory_mode, MemoryMode::Rolling);
        assert!(
            served.table_bytes <= 3 * 101 * 4,
            "{} bytes",
            served.table_bytes
        );
        assert_eq!(
            served.answer,
            crate::cli::run_solve_seq("levenshtein", 100).unwrap()
        );
    }

    #[test]
    fn estimate_is_finite_and_grows_with_instance_size() {
        let b = FrameworkBackend::new();
        let small = b.estimate_ms(&SolveRequest::new("lcs", 64)).unwrap();
        let large = b.estimate_ms(&SolveRequest::new("lcs", 2048)).unwrap();
        assert!(small.is_finite() && small > 0.0);
        assert!(
            large > small * 10.0,
            "O(n²) model: {large} ms for 2048 vs {small} ms for 64"
        );
        // Unknown problems yield no estimate (validation rejects them
        // earlier anyway).
        assert!(b.estimate_ms(&SolveRequest::new("nonsense", 64)).is_none());
    }

    #[test]
    fn rolling_support_tracks_the_problem_registry() {
        let b = FrameworkBackend::new();
        for &problem in crate::cli::PROBLEMS {
            assert!(b.supports_rolling(&SolveRequest::new(problem, 64)));
        }
    }

    #[test]
    fn bitparallel_config_serves_the_oracle_answer_for_lcs() {
        let b = FrameworkBackend::new();
        let served = b
            .solve(
                &SolveRequest::new("lcs", 80),
                TunedConfig::new(ScheduleParams::new(4, 16), ExecTier::BitParallel),
                &NullSink,
            )
            .unwrap();
        assert_eq!(served.tier, ExecTier::BitParallel);
        let oracle = crate::cli::run_solve_seq("lcs", 80).unwrap();
        assert_eq!(served.answer, oracle);
    }
}
