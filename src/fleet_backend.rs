//! The fleet [`SolveBackend`]: a heterogeneous worker-pool fleet behind
//! `lddp-serve`. Every admitted batch is scored with the §IV cost model
//! once per fleet platform (tuned parameters per platform, amortized
//! through the [`TunerCache`]; each price computed once per key, then
//! read from `cli`'s price memo) and placed by the
//! [`Dispatcher`](lddp_fleet::Dispatcher) on the pool with the earliest
//! predicted completion — backlog plus estimate, not raw speed. Large
//! grids are priced as a cross-device
//! [`MultiPlan`](lddp_core::multi::MultiPlan) column-band split on the
//! multi-device model, and answered, like every request, by the placed
//! pool's engine.
//!
//! Like [`FrameworkBackend`](crate::serve_backend::FrameworkBackend),
//! this lives in the umbrella crate because it needs both the problem
//! registry (`cli`) and the execution engines; `lddp-fleet` itself is
//! mechanism-only.

use crate::cli;
use crate::serve_backend::{admission_ms, backend_solve, serve, tuned, validate_request};
use lddp_chaos::FaultInjector;
use lddp_core::tuner_cache::{TunedConfig, TunerCache};
use lddp_fleet::{default_fleet, Fleet};
use lddp_serve::{BackendSolve, BandFrame, BatchPlan, PoolHealth, SolveBackend, SolveRequest};
use lddp_trace::live::LiveRegistry;
use lddp_trace::TraceSink;
use std::sync::Arc;
use std::time::Instant;

/// Grid side at or above which a fleet-placed solve is priced as a
/// cross-device MultiPlan band split instead of on the placed pool's
/// platform alone. Below this, the split's boundary copies cost more
/// than the bands save.
pub const FLEET_MULTI_N: usize = 512;

/// Devices a cross-device split is priced on: the CPU plus a K20- and a
/// GT650M-class accelerator (see `cli::fleet_multi_platform`).
pub const FLEET_SPLIT_DEVICES: usize = 3;

/// [`SolveBackend`] over a [`Fleet`] of per-platform worker pools and a
/// cost-aware dispatcher. Tuned configurations are cached per
/// `(problem, dims bucket, fleet platform)` so each platform's estimate
/// uses parameters tuned for *that* platform.
pub struct FleetBackend {
    cache: TunerCache,
    fleet: Fleet,
    injector: Option<Arc<dyn FaultInjector>>,
    live: Option<Arc<LiveRegistry>>,
}

impl std::fmt::Debug for FleetBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetBackend")
            .field("cache", &self.cache)
            .field("platforms", &self.fleet.metrics().names())
            .field("injected", &self.injector.is_some())
            .finish()
    }
}

impl Default for FleetBackend {
    fn default() -> FleetBackend {
        FleetBackend::new()
    }
}

/// The cost-model platform name behind a fleet member: the §IV model
/// knows "high", "low" and "cpu-only"; the fleet names its members
/// after the presets.
fn cost_platform(fleet_name: &str) -> &str {
    match fleet_name {
        "hetero-low" => "low",
        "cpu-only" => "cpu-only",
        _ => "high",
    }
}

impl FleetBackend {
    /// A backend over [`default_fleet`] with an empty tuner cache.
    pub fn new() -> FleetBackend {
        FleetBackend {
            cache: TunerCache::new(),
            fleet: Fleet::new(default_fleet()),
            injector: None,
            live: None,
        }
    }

    /// Attaches a [`LiveRegistry`]: every `lddp_fleet_*` family is
    /// registered eagerly and tuner-cache misses count under
    /// `lddp_tuner_sweeps_total`. Pass the server's own registry so
    /// fleet and serve series share one `/metrics` exposition.
    pub fn with_live(mut self, live: Arc<LiveRegistry>) -> FleetBackend {
        self.fleet = self.fleet.with_live(Arc::clone(&live));
        self.live = Some(live);
        self
    }

    /// A backend whose fleet-placed solves consult `injector` — chaos
    /// campaigns attach a seeded [`lddp_chaos::FaultPlan`] here, so the
    /// graceful-degradation ladder applies per placed platform.
    pub fn with_injector(injector: Arc<dyn FaultInjector>) -> FleetBackend {
        FleetBackend {
            injector: Some(injector),
            ..FleetBackend::new()
        }
    }

    /// The tuner cache (for persistence, stats and tests).
    pub fn cache(&self) -> &TunerCache {
        &self.cache
    }

    /// Publishes pool `idx`'s total and per-class backlog gauges after
    /// a begin/finish event touching `class`.
    fn publish_backlog(&self, idx: usize, class: usize) {
        let dispatcher = self.fleet.dispatcher();
        self.fleet
            .metrics()
            .set_backlog(idx, dispatcher.backlog(idx));
        let name = if class == 0 { "interactive" } else { "batch" };
        self.fleet
            .metrics()
            .set_class_backlog(idx, name, dispatcher.class_backlog(idx, class));
    }

    /// The fleet (for stats and tests).
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// Tuned configuration for `probe` on fleet member `idx`, cached
    /// per `(problem, dims bucket, fleet platform name)`. Pinned
    /// parameters skip tuning (never a cache hit) but take the same
    /// tier rule as a tuned request.
    fn tuned_for(&self, probe: &SolveRequest, idx: usize) -> Result<(TunedConfig, bool), String> {
        let pool = self.fleet.pool(idx);
        let live = self.live.as_deref();
        let platform = cost_platform(&pool.spec.name);
        tuned(
            &self.cache,
            live,
            probe,
            &pool.spec.name,
            platform,
            &pool.engine,
        )
    }

    /// Executes one request on its placed pool, bracketed by the pool's
    /// backlog. Large grids are priced as a cross-device split; the
    /// pool's engine answers every request, and a stream (`emit`) gets
    /// its rolling bands.
    fn solve_via(
        &self,
        req: &SolveRequest,
        plan: &BatchPlan,
        emit: Option<&(dyn Fn(BandFrame) -> bool + Sync)>,
    ) -> Result<BackendSolve, String> {
        let idx = plan
            .placement
            .as_deref()
            .and_then(|name| self.fleet.index_of(name))
            .unwrap_or(0);
        let predicted = plan.predicted_s.unwrap_or(0.0);
        let config = plan.config;
        let pool = self.fleet.pool(idx);
        let devices = if req.n >= FLEET_MULTI_N {
            FLEET_SPLIT_DEVICES
        } else {
            1
        };
        let args = cli::SolveArgs {
            problem: &req.problem,
            n: req.n,
            platform: cost_platform(&pool.spec.name),
            params: config.params,
            tier: Some(config.tier),
            memory: config.memory_mode,
            engine: &pool.engine,
            emit: None,
            injector: self.injector.as_deref(),
            devices,
        };
        // Backlog brackets the solve so concurrent placements see this
        // pool's in-flight work, attributed to the request's service
        // class; metrics record the outcome either way.
        let class = req.priority.index();
        self.fleet.dispatcher().begin_for(idx, predicted, class);
        self.publish_backlog(idx, class);
        let started = Instant::now();
        let result = serve(args, emit);
        let actual = started.elapsed().as_secs_f64();
        self.fleet.dispatcher().finish_for(idx, predicted, class);
        self.publish_backlog(idx, class);

        let served = result?;
        if served.devices > 1 {
            self.fleet.metrics().on_split(served.devices);
        }
        self.fleet
            .metrics()
            .on_finish(idx, predicted, actual, !served.degraded.is_empty());
        Ok(backend_solve(served, Some(pool.spec.name.clone())))
    }
}

impl SolveBackend for FleetBackend {
    fn validate(&self, req: &SolveRequest) -> Result<(), String> {
        // In fleet mode the request's platform is a cost-model hint the
        // dispatcher overrides; any fleet preset name is admissible.
        let platforms = ["high", "low", "cpu-only"];
        validate_request(req, &platforms, "high, low, or cpu-only")
    }

    fn tune(
        &self,
        probe: &SolveRequest,
        _sink: &dyn TraceSink,
    ) -> Result<(TunedConfig, bool), String> {
        // Without a placement decision the fleet's reference platform
        // is member 0 (hetero-high); `plan` is the real entry point.
        self.tuned_for(probe, 0)
    }

    fn plan(&self, probe: &SolveRequest, _sink: &dyn TraceSink) -> Result<BatchPlan, String> {
        // One tuned configuration and one §IV estimate per platform:
        // the dispatcher ranks completion times, not platforms.
        let mut configs = Vec::with_capacity(self.fleet.len());
        let mut estimates = Vec::with_capacity(self.fleet.len());
        for idx in 0..self.fleet.len() {
            let (config, hit) = self.tuned_for(probe, idx)?;
            let est = cli::estimate_virtual(
                &probe.problem,
                probe.n,
                cost_platform(&self.fleet.pool(idx).spec.name),
                config.params,
            )?;
            configs.push((config, hit));
            estimates.push(est);
        }
        let placement = self.fleet.dispatcher().place(&estimates);
        let (config, cache_hit) = configs[placement.platform];
        self.fleet
            .metrics()
            .on_place(placement.platform, placement.predicted_s);
        Ok(BatchPlan {
            config,
            cache_hit,
            placement: Some(self.fleet.pool(placement.platform).spec.name.clone()),
            predicted_s: Some(placement.predicted_s),
        })
    }

    fn estimate_ms(&self, req: &SolveRequest) -> Option<f64> {
        // Feasibility against the *best* fleet member: admission must
        // not reject work some pool could still finish in time. Each
        // member is priced with the parameters `plan` would place it on
        // (pinned, else cached tuned, else nominal), never a sweep.
        (0..self.fleet.len())
            .filter_map(|idx| {
                let name = &self.fleet.pool(idx).spec.name;
                admission_ms(&self.cache, req, name, cost_platform(name))
            })
            .min_by(|a, b| a.total_cmp(b))
    }

    fn solve(
        &self,
        req: &SolveRequest,
        config: TunedConfig,
        sink: &dyn TraceSink,
    ) -> Result<BackendSolve, String> {
        // Direct `solve` (no placement) still goes through the fleet:
        // synthesize a single-request plan so backlog accounting and
        // metrics stay consistent.
        let plan = self.plan(req, sink)?;
        let plan = BatchPlan { config, ..plan };
        self.solve_placed(req, &plan, sink)
    }

    fn solve_placed(
        &self,
        req: &SolveRequest,
        plan: &BatchPlan,
        _sink: &dyn TraceSink,
    ) -> Result<BackendSolve, String> {
        self.solve_via(req, plan, None)
    }

    fn solve_streamed(
        &self,
        req: &SolveRequest,
        plan: &BatchPlan,
        _sink: &dyn TraceSink,
        emit: &(dyn Fn(BandFrame) -> bool + Sync),
    ) -> Result<BackendSolve, String> {
        self.solve_via(req, plan, Some(emit))
    }

    fn pool_health(&self) -> Vec<PoolHealth> {
        self.fleet
            .health()
            .into_iter()
            .map(|s| PoolHealth {
                platform: s.platform,
                ready: s.ready,
                dead_workers: s.dead_workers,
            })
            .collect()
    }

    fn fleet_stats_json(&self) -> Option<String> {
        Some(self.fleet.stats_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lddp_chaos::{FaultPlan, FaultPlanConfig};
    use lddp_core::kernel::ExecTier;
    use lddp_trace::NullSink;

    #[test]
    fn validate_accepts_fleet_platform_hints() {
        let b = FleetBackend::new();
        assert!(b.validate(&SolveRequest::new("lcs", 64)).is_ok());
        let mut low = SolveRequest::new("lcs", 64);
        low.platform = "cpu-only".into();
        assert!(b.validate(&low).is_ok());
        let mut bad = SolveRequest::new("lcs", 64);
        bad.platform = "tpu".into();
        assert!(b.validate(&bad).is_err());
        assert!(b.validate(&SolveRequest::new("nonsense", 64)).is_err());
        assert!(b.validate(&SolveRequest::new("lcs", 1)).is_err());
    }

    #[test]
    fn plan_places_and_records_metrics() {
        let b = FleetBackend::new();
        let plan = b.plan(&SolveRequest::new("lcs", 64), &NullSink).unwrap();
        let name = plan.placement.expect("fleet plans always place");
        let idx = b.fleet().index_of(&name).unwrap();
        assert!(plan.predicted_s.unwrap().is_finite());
        assert_eq!(b.fleet().metrics().placements(idx), 1);
        // One tuned config per platform entered the cache.
        assert_eq!(b.cache().len(), b.fleet().len());
    }

    #[test]
    fn placement_is_deterministic_over_a_replayed_stream() {
        let sizes = [48usize, 96, 64, 200, 48, 150, 96, 300, 64, 48];
        let run = || {
            let b = FleetBackend::new();
            sizes
                .iter()
                .map(|&n| {
                    let req = SolveRequest::new("lcs", n);
                    let plan = b.plan(&req, &NullSink).unwrap();
                    b.solve_placed(&req, &plan, &NullSink).unwrap().placed_on
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn placed_solves_match_the_sequential_oracle() {
        let b = FleetBackend::new();
        for problem in ["lcs", "checkerboard", "dithering"] {
            let req = SolveRequest::new(problem, 48);
            let plan = b.plan(&req, &NullSink).unwrap();
            let served = b.solve_placed(&req, &plan, &NullSink).unwrap();
            let oracle = cli::run_solve_seq(problem, 48).unwrap();
            assert_eq!(served.answer, oracle, "{problem}");
            assert_eq!(served.devices, 1);
            assert!(served.placed_on.is_some());
        }
        // Backlog fully released after the batch drained.
        for i in 0..b.fleet().len() {
            assert_eq!(b.fleet().dispatcher().backlog(i), 0.0);
        }
    }

    #[test]
    fn large_grids_split_across_devices_and_reassemble() {
        let b = FleetBackend::new();
        let req = SolveRequest::new("lcs", FLEET_MULTI_N);
        let plan = b.plan(&req, &NullSink).unwrap();
        let served = b.solve_placed(&req, &plan, &NullSink).unwrap();
        assert_eq!(served.devices, FLEET_SPLIT_DEVICES);
        assert_eq!(b.fleet().metrics().splits(), 1);
        // The placed pool's engine answered: lcs runs bit-parallel.
        assert_eq!(served.tier, ExecTier::BitParallel);
        let oracle = cli::run_solve_seq("lcs", FLEET_MULTI_N).unwrap();
        assert_eq!(served.answer, oracle);
    }

    #[test]
    fn injected_backend_degrades_on_the_placed_pool() {
        let plan_cfg = FaultPlanConfig {
            device_fault_prob: 1.0,
            ..FaultPlanConfig::none()
        };
        let injector = Arc::new(FaultPlan::new(7, plan_cfg));
        let b = FleetBackend::with_injector(injector);
        let req = SolveRequest::new("lcs", 48);
        let plan = b.plan(&req, &NullSink).unwrap();
        let served = b.solve_placed(&req, &plan, &NullSink).unwrap();
        assert!(
            !served.degraded.is_empty(),
            "certain device fault must take a degradation rung"
        );
        let idx = b
            .fleet()
            .index_of(served.placed_on.as_deref().unwrap())
            .unwrap();
        assert_eq!(b.fleet().metrics().degraded(idx), 1);
        let oracle = cli::run_solve_seq("lcs", 48).unwrap();
        assert_eq!(served.answer, oracle, "degraded solve stays correct");
        // A large grid is priced as a split until its device fault
        // fires; then it is priced CPU-only, on one device.
        let req = SolveRequest::new("lcs", FLEET_MULTI_N);
        let plan = b.plan(&req, &NullSink).unwrap();
        let served = b.solve_placed(&req, &plan, &NullSink).unwrap();
        assert_eq!(served.devices, 1);
        assert_eq!(served.degraded, ["hetero_to_cpu_only"]);
        let oracle = cli::run_solve_seq("lcs", FLEET_MULTI_N).unwrap();
        assert_eq!(served.answer, oracle);
    }

    #[test]
    fn estimate_takes_the_cheapest_fleet_member() {
        let b = FleetBackend::new();
        let est = b.estimate_ms(&SolveRequest::new("lcs", 128)).unwrap();
        assert!(est.is_finite() && est > 0.0);
        // The minimum over members can never exceed any single member.
        for idx in 0..b.fleet().len() {
            let member = cli::estimate_virtual(
                "lcs",
                128,
                cost_platform(&b.fleet().pool(idx).spec.name),
                lddp_core::schedule::ScheduleParams::new(2, 16),
            )
            .unwrap()
                * 1e3;
            assert!(est <= member + 1e-9);
        }
    }

    /// Admission prices every member with the parameters placement
    /// uses: once `plan` has tuned the key, the estimate is the cheapest
    /// member's tuned price, and a deadline between that and the
    /// nominal `(2, 16)` price (3.76 against 4.52 ms on `high`) is
    /// admitted.
    #[test]
    fn admission_prices_members_with_their_tuned_parameters() {
        let b = FleetBackend::new();
        let req = SolveRequest::new("levenshtein", 1024);
        b.plan(&req, &NullSink).unwrap();
        let tuned = (0..b.fleet().len())
            .map(|idx| {
                let (config, hit) = b.tuned_for(&req, idx).unwrap();
                assert!(hit, "plan tuned member {idx}");
                let platform = cost_platform(&b.fleet().pool(idx).spec.name);
                cli::estimate_virtual("levenshtein", 1024, platform, config.params).unwrap() * 1e3
            })
            .fold(f64::INFINITY, f64::min);
        assert_eq!(b.estimate_ms(&req), Some(tuned));
        let mut tight = req;
        tight.deadline_ms = Some(4);
        let server = lddp_serve::Server::new(lddp_serve::ServeConfig::default(), &b, &NullSink);
        server.run(None, |client| {
            let admitted = client.submit(tight).expect("a 4 ms deadline is feasible");
            // Answered or timed out on the wall clock: either way it was
            // admitted, not refused as infeasible.
            let _ = admitted.recv();
        });
        assert_eq!(server.snapshot().rejected_infeasible, 0);
    }

    #[test]
    fn batch_class_backlog_is_attributed_and_released() {
        let b = FleetBackend::new();
        let mut req = SolveRequest::new("lcs", 48);
        req.priority = lddp_serve::Priority::Batch;
        let plan = b.plan(&req, &NullSink).unwrap();
        b.solve_placed(&req, &plan, &NullSink).unwrap();
        // Fully released after the solve, in both the class slice and
        // the total.
        for i in 0..b.fleet().len() {
            assert_eq!(b.fleet().dispatcher().class_backlog(i, 1), 0.0);
            assert_eq!(b.fleet().dispatcher().backlog(i), 0.0);
        }
    }

    #[test]
    fn health_and_stats_surface_every_platform() {
        let b = FleetBackend::new();
        let health = b.pool_health();
        assert_eq!(health.len(), 3);
        assert!(health.iter().all(|h| h.ready));
        let stats = b.fleet_stats_json().unwrap();
        for name in ["hetero-high", "hetero-low", "cpu-only"] {
            assert!(stats.contains(name), "{stats}");
        }
    }
}
