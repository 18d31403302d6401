//! # lddp
//!
//! Umbrella crate for the LDDP heterogeneous-framework reproduction
//! (Kumar & Kothapalli, *"A Novel Heterogeneous Framework for Local
//! Dependency Dynamic Programming Problems"*, 2015).
//!
//! The [`Framework`] type is the paper's §V-C contract: hand it a
//! [`Kernel`] (the function `f` plus initialization) and it classifies
//! the dependence pattern (Table I), picks a coalescing-friendly layout
//! (§IV-B), applies a symmetry adapter if needed, tunes `t_switch` /
//! `t_share` empirically (§V-A), and executes heterogeneously on a
//! modelled CPU+GPU platform with pipelined or pinned boundary transfers
//! (§IV-C, Table II).
//!
//! ```
//! use lddp::{Framework, platforms};
//! use lddp::problems::LevenshteinKernel;
//!
//! let kernel = LevenshteinKernel::new(*b"kitten", *b"sitting");
//! let fw = Framework::new(platforms::hetero_high());
//! let solution = fw.solve(&kernel).unwrap();
//! assert_eq!(solution.grid.get(6, 7), 3);
//! ```

#![warn(missing_docs)]

pub mod cli;
pub mod fleet_backend;
pub mod serve_backend;
pub mod workloads;

pub use hetero_sim;
pub use lddp_chaos as chaos;
pub use lddp_core as core;
pub use lddp_fleet as fleet;
pub use lddp_parallel as parallel;
pub use lddp_problems as problems;
pub use lddp_trace as trace;

/// Platform presets re-exported for convenience.
pub mod platforms {
    pub use hetero_sim::platform::{cpu_only, hetero_high, hetero_low, xeon_phi_like, Platform};
}

use hetero_sim::exec::{
    run_cpu_as, run_gpu_as, run_hetero, run_hetero_injected, Breakdown, ExecOptions, WaveRecord,
};
use hetero_sim::platform::Platform;
use lddp_chaos::FaultInjector;
use lddp_core::framework::{choose_execution, Adapter, Classification, TransposedKernel};
use lddp_core::grid::{Grid, LayoutKind};
use lddp_core::kernel::{ExecTier, Kernel};
use lddp_core::pattern::ProfileShape;
use lddp_core::schedule::{PhaseKind, PhaseSpan, Plan, ScheduleParams};
use lddp_core::tuner::{self, TuneResult};
use lddp_core::wavefront::Dims;
use lddp_core::DegradeStep;
use lddp_core::Result;
use lddp_trace::{NullSink, TraceSink};
use std::ops::Range;

/// Cost breakdown of one schedule phase of a heterogeneous run: how
/// much wall (model) time the phase covered and how busy each engine
/// was within it. Produced by [`Framework::solve_traced`].
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Phase kind (CPU-only ramp vs shared band).
    pub kind: PhaseKind,
    /// Wave indices covered by the phase.
    pub waves: Range<usize>,
    /// Model time the phase spans, seconds.
    pub wall_s: f64,
    /// CPU busy time within the phase.
    pub cpu_busy_s: f64,
    /// GPU busy time within the phase.
    pub gpu_busy_s: f64,
    /// Un-hidden copy time within the phase.
    pub copy_s: f64,
}

/// Per-phase stats from a recorded timeline (ranges clamped to it).
fn phase_stats(timeline: &[WaveRecord], phases: &[PhaseSpan]) -> Vec<PhaseStat> {
    phases
        .iter()
        .filter_map(|p| {
            let lo = p.waves.start.min(timeline.len());
            let hi = p.waves.end.min(timeline.len());
            if lo >= hi {
                return None;
            }
            let recs = &timeline[lo..hi];
            Some(PhaseStat {
                kind: p.kind,
                waves: p.waves.clone(),
                wall_s: recs.iter().map(|r| r.span_s).sum(),
                cpu_busy_s: recs.iter().map(|r| r.cpu_s).sum(),
                gpu_busy_s: recs.iter().map(|r| r.gpu_s).sum(),
                copy_s: recs.iter().map(|r| r.copy_s).sum(),
            })
        })
        .collect()
}

/// The execution tier the host's [`parallel::ParallelEngine`] selects
/// for `kernel` — what a wall-clock solve of the same instance runs on.
/// Pool-free and cheap: tier selection only inspects the kernel's
/// pattern and fast-path hooks plus host SIMD support.
fn host_tier<K: Kernel>(kernel: &K) -> ExecTier {
    lddp_parallel::ParallelEngine::new(1).select_tier(kernel)
}

/// Outcome of a heterogeneous solve: the filled table (in the caller's
/// orientation), the virtual-time cost, and the decisions taken.
#[derive(Debug, Clone)]
pub struct Solution<T> {
    /// The DP table, row-major, in the original kernel's coordinates.
    pub grid: Grid<T>,
    /// End-to-end virtual time on the platform, seconds.
    pub total_s: f64,
    /// Cost breakdown (busy times, traffic).
    pub breakdown: Breakdown,
    /// The framework's classification and execution choice.
    pub classification: Classification,
    /// The schedule parameters used.
    pub params: ScheduleParams,
    /// The execution tier the host's thread engine selects for this
    /// kernel (scalar / bulk / SIMD). The virtual-time simulation is
    /// tier-agnostic — this reports what a wall-clock solve of the same
    /// kernel uses, so CLI and serving output agree on one label.
    pub tier: ExecTier,
    /// Per-phase cost breakdown. Filled by
    /// [`Framework::solve_traced`]; empty for the untraced paths (they
    /// skip timeline recording).
    pub phases: Vec<PhaseStat>,
    /// Degradation rungs taken to produce this solution, in order.
    /// Empty for every non-chaos path and for chaos solves where the
    /// first attempt succeeded; see [`Framework::solve_chaos`].
    pub degradation: Vec<DegradeStep>,
}

/// High-level driver: classify → adapt → (tune) → execute.
#[derive(Debug, Clone)]
pub struct Framework {
    platform: Platform,
    /// Asynchronous-stream pipelining for one-way transfers (§IV-C).
    pub pipeline: bool,
    /// Bytes of problem input uploaded before GPU participation.
    pub setup_to_gpu_bytes: usize,
    /// Bytes of results downloaded afterwards.
    pub final_from_gpu_bytes: usize,
}

impl Framework {
    /// A framework bound to a platform model.
    pub fn new(platform: Platform) -> Self {
        Framework {
            platform,
            pipeline: true,
            setup_to_gpu_bytes: 0,
            final_from_gpu_bytes: 0,
        }
    }

    /// The bound platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Declares problem input/output volume for device setup accounting.
    #[must_use]
    pub fn with_io_bytes(mut self, to_gpu: usize, from_gpu: usize) -> Self {
        self.setup_to_gpu_bytes = to_gpu;
        self.final_from_gpu_bytes = from_gpu;
        self
    }

    /// Classifies a kernel (Table I + execution choice).
    pub fn classify<K: Kernel>(&self, kernel: &K) -> Result<Classification> {
        choose_execution(kernel.contributing_set())
    }

    fn exec_options(&self, functional: bool) -> ExecOptions {
        let mut opts = if functional {
            ExecOptions::functional()
        } else {
            ExecOptions::default()
        };
        opts.pipeline = self.pipeline;
        opts.setup_to_gpu_bytes = self.setup_to_gpu_bytes;
        opts.final_from_gpu_bytes = self.final_from_gpu_bytes;
        opts
    }

    /// Virtual time of a heterogeneous run with explicit parameters,
    /// without computing cell values. The tuner's evaluation function.
    pub fn estimate<K: Kernel>(&self, kernel: &K, params: ScheduleParams) -> Result<f64> {
        let class = self.classify(kernel)?;
        match class.adapter {
            Adapter::None => self.estimate_inner(kernel, &class, params),
            Adapter::Transpose => {
                let t = TransposedKernel::new(kernel)?;
                self.estimate_inner(&t, &class, params)
            }
            Adapter::Mirror => {
                let m = lddp_core::framework::MirroredKernel::new(kernel)?;
                self.estimate_inner(&m, &class, params)
            }
        }
    }

    fn estimate_inner<K: Kernel>(
        &self,
        kernel: &K,
        class: &Classification,
        params: ScheduleParams,
    ) -> Result<f64> {
        let plan = Plan::new(
            class.exec_pattern,
            kernel.contributing_set(),
            kernel.dims(),
            params,
        )?;
        Ok(run_hetero(kernel, &plan, &self.platform, &self.exec_options(false))?.total_s)
    }

    /// Runs the two-stage §V-A sweep and returns the tuned parameters
    /// with both curves.
    pub fn tune<K: Kernel>(&self, kernel: &K) -> Result<TuneResult> {
        self.tune_with_sink(kernel, &NullSink)
    }

    /// [`Framework::tune`] with every evaluated sweep point recorded
    /// into `sink` (see [`tuner::tune_with_sink`]).
    pub fn tune_with_sink<K: Kernel>(
        &self,
        kernel: &K,
        sink: &dyn TraceSink,
    ) -> Result<TuneResult> {
        let class = self.classify(kernel)?;
        let dims = self.exec_dims(kernel, &class);
        let waves = class.exec_pattern.num_waves(dims.rows, dims.cols);
        let switch_candidates = match class.exec_pattern.profile_shape() {
            ProfileShape::Constant => vec![0],
            _ => tuner::t_switch_candidates(waves),
        };
        let share_candidates = tuner::t_share_candidates(dims.cols);
        tuner::tune_with_sink(
            &switch_candidates,
            &share_candidates,
            |params| {
                self.estimate(kernel, params)
                    .expect("candidate parameters are in range")
            },
            sink,
        )
    }

    /// Like [`Framework::tune`], but exploits the concavity of the Fig 7
    /// curves with a ternary search over the full integer parameter
    /// ranges — finds finer-grained optima than the power-of-two ladder
    /// in a comparable number of evaluations.
    pub fn tune_refined<K: Kernel>(&self, kernel: &K) -> Result<TuneResult> {
        let class = self.classify(kernel)?;
        let dims = self.exec_dims(kernel, &class);
        let max_switch = lddp_core::schedule::max_t_switch(class.exec_pattern, dims);
        tuner::tune_concave((0, max_switch), (0, dims.cols), |params| {
            self.estimate(kernel, params)
                .expect("candidate parameters are in range")
        })
    }

    /// Dimensions after the adapter (transpose swaps them).
    fn exec_dims<K: Kernel>(&self, kernel: &K, class: &Classification) -> Dims {
        let d = kernel.dims();
        match class.adapter {
            Adapter::Transpose => Dims::new(d.cols, d.rows),
            _ => d,
        }
    }

    /// Tunes, then solves functionally. The one-call paper workflow.
    pub fn solve<K: Kernel>(&self, kernel: &K) -> Result<Solution<K::Cell>> {
        let params = self.tune(kernel)?.params;
        self.solve_with(kernel, params)
    }

    /// Solves functionally with explicit parameters.
    pub fn solve_with<K: Kernel>(
        &self,
        kernel: &K,
        params: ScheduleParams,
    ) -> Result<Solution<K::Cell>> {
        self.dispatch_solve(kernel, params, false, &NullSink, None)
    }

    /// Solves functionally with explicit parameters while consulting a
    /// [`FaultInjector`] on every wave in which the modelled device
    /// participates. An injected device fault aborts the heterogeneous
    /// run (device-side table state is considered lost) and triggers
    /// the framework's last degradation rung: the whole instance is
    /// re-executed on the modelled multicore CPU, and
    /// [`DegradeStep::HeteroToCpuOnly`] is recorded in
    /// [`Solution::degradation`]. Answers are identical either way —
    /// only the cost model (and the rung record) differ.
    pub fn solve_chaos<K: Kernel>(
        &self,
        kernel: &K,
        params: ScheduleParams,
        injector: &dyn FaultInjector,
    ) -> Result<Solution<K::Cell>> {
        self.dispatch_solve(kernel, params, false, &NullSink, Some(injector))
    }

    /// Tunes (when `params` is `None`) and solves with full
    /// observability: the run records its wave timeline, emits the
    /// standard event set (phase/wave/transfer spans, byte counters,
    /// tuner sweep points) into `sink`, and returns per-phase stats in
    /// [`Solution::phases`]. Pass a
    /// [`LiveRegistry`](lddp_trace::live::LiveRegistry) with an
    /// unbounded ring and export its snapshot with
    /// [`lddp_trace::chrome::to_chrome_json`] to get a
    /// Perfetto-loadable timeline.
    pub fn solve_traced<K: Kernel>(
        &self,
        kernel: &K,
        params: Option<ScheduleParams>,
        sink: &dyn TraceSink,
    ) -> Result<Solution<K::Cell>> {
        let params = match params {
            Some(p) => p,
            None => self.tune_with_sink(kernel, sink)?.params,
        };
        self.dispatch_solve(kernel, params, true, sink, None)
    }

    fn dispatch_solve<K: Kernel>(
        &self,
        kernel: &K,
        params: ScheduleParams,
        record: bool,
        sink: &dyn TraceSink,
        injector: Option<&dyn FaultInjector>,
    ) -> Result<Solution<K::Cell>> {
        let class = self.classify(kernel)?;
        match class.adapter {
            Adapter::None => self.solve_inner(
                kernel,
                kernel,
                class,
                params,
                |i, j| (i, j),
                record,
                sink,
                injector,
            ),
            Adapter::Transpose => {
                let t = TransposedKernel::new(kernel)?;
                self.solve_inner(
                    kernel,
                    &t,
                    class,
                    params,
                    |i, j| (j, i),
                    record,
                    sink,
                    injector,
                )
            }
            Adapter::Mirror => {
                let cols = kernel.dims().cols;
                let m = lddp_core::framework::MirroredKernel::new(kernel)?;
                self.solve_inner(
                    kernel,
                    &m,
                    class,
                    params,
                    move |i, j| (i, cols - 1 - j),
                    record,
                    sink,
                    injector,
                )
            }
        }
    }

    /// Runs `exec_kernel` heterogeneously and maps the grid back into
    /// `user_kernel`'s coordinates via `to_exec` — the one functional
    /// solve body. With `record`, the timeline goes into `sink` and
    /// per-phase stats into the solution; under an `injector`, a device
    /// fault reruns the instance on the modelled CPU alone.
    #[allow(clippy::too_many_arguments)]
    fn solve_inner<KU, KE>(
        &self,
        user_kernel: &KU,
        exec_kernel: &KE,
        class: Classification,
        params: ScheduleParams,
        to_exec: impl Fn(usize, usize) -> (usize, usize),
        record: bool,
        sink: &dyn TraceSink,
        injector: Option<&dyn FaultInjector>,
    ) -> Result<Solution<KU::Cell>>
    where
        KU: Kernel,
        KE: Kernel<Cell = KU::Cell>,
    {
        let plan = Plan::new(
            class.exec_pattern,
            exec_kernel.contributing_set(),
            exec_kernel.dims(),
            params,
        )?;
        let mut opts = self.exec_options(true);
        opts.record_timeline = record;
        let mut degradation = Vec::new();
        let report = match injector {
            Some(inj) => run_hetero_injected(exec_kernel, &plan, &self.platform, &opts, inj),
            None => run_hetero(exec_kernel, &plan, &self.platform, &opts),
        };
        let report = match report {
            Err(lddp_core::Error::DeviceFault { .. }) => {
                degradation.push(DegradeStep::HeteroToCpuOnly);
                run_cpu_as(exec_kernel, class.exec_pattern, &self.platform, &opts)?
            }
            r => r?,
        };
        let phases = if record {
            hetero_sim::trace::record_run(
                sink,
                &report.timeline,
                &plan.phases(),
                report.breakdown.setup_s,
            );
            phase_stats(&report.timeline, &plan.phases())
        } else {
            Vec::new()
        };
        let exec_grid = report.grid.expect("functional run returns the grid");
        let dims = user_kernel.dims();
        let mut grid = Grid::new(LayoutKind::RowMajor, dims);
        for i in 0..dims.rows {
            for j in 0..dims.cols {
                let (ei, ej) = to_exec(i, j);
                grid.set(i, j, exec_grid.get(ei, ej));
            }
        }
        Ok(Solution {
            grid,
            total_s: report.total_s,
            breakdown: report.breakdown,
            classification: class,
            params,
            tier: host_tier(user_kernel),
            phases,
            degradation,
        })
    }

    /// Solves with one-pass dynamic load balancing instead of offline
    /// tuning (the Cuenca-style heuristic — see
    /// [`hetero_sim::balance`]): the CPU band width drifts wave-by-wave
    /// toward the span-equalizing split. Needs no pilot runs; at scale
    /// it typically matches or beats the tuned static plan because the
    /// band tracks each wave's width.
    ///
    /// `t_switch` bounds the CPU-only ramps for ramp-shaped patterns
    /// (pass 0 to disable; a tuned value from [`Framework::tune`] works
    /// well). Not available for kernels needing a symmetry adapter —
    /// transpose/mirror them explicitly first.
    pub fn solve_balanced<K: Kernel>(
        &self,
        kernel: &K,
        t_switch: usize,
    ) -> Result<Solution<K::Cell>> {
        let class = self.classify(kernel)?;
        if class.adapter != Adapter::None {
            return Err(lddp_core::Error::InvalidSchedule {
                pattern: class.raw_pattern,
                reason: "solve_balanced requires an adapter-free kernel; wrap it in \
                         TransposedKernel/MirroredKernel first"
                    .into(),
            });
        }
        let config = hetero_sim::balance::BalanceConfig {
            t_switch,
            initial_band: 0,
            gain: 0.5,
        };
        let (plan, report) = hetero_sim::balance::run_balanced(
            kernel,
            class.exec_pattern,
            &self.platform,
            &self.exec_options(true),
            &config,
        )?;
        let exec_grid = report.grid.expect("functional run returns the grid");
        let dims = kernel.dims();
        let mut grid = Grid::new(LayoutKind::RowMajor, dims);
        for i in 0..dims.rows {
            for j in 0..dims.cols {
                grid.set(i, j, exec_grid.get(i, j));
            }
        }
        // Report the *average* band as the nominal t_share.
        let bands = plan.bands();
        let avg_band = if bands.is_empty() {
            0
        } else {
            bands.iter().sum::<usize>() / bands.len()
        };
        Ok(Solution {
            grid,
            total_s: report.total_s,
            breakdown: report.breakdown,
            classification: class,
            params: ScheduleParams::new(t_switch, avg_band),
            tier: host_tier(kernel),
            phases: Vec::new(),
            degradation: Vec::new(),
        })
    }

    /// Virtual time of the pure multicore-CPU baseline ("CPU parallel").
    pub fn cpu_baseline<K: Kernel>(&self, kernel: &K) -> Result<f64> {
        let class = self.classify(kernel)?;
        let opts = ExecOptions::default();
        match class.adapter {
            Adapter::None => {
                Ok(run_cpu_as(kernel, class.exec_pattern, &self.platform, &opts)?.total_s)
            }
            Adapter::Transpose => {
                let t = TransposedKernel::new(kernel)?;
                Ok(run_cpu_as(&t, class.exec_pattern, &self.platform, &opts)?.total_s)
            }
            Adapter::Mirror => {
                let m = lddp_core::framework::MirroredKernel::new(kernel)?;
                Ok(run_cpu_as(&m, class.exec_pattern, &self.platform, &opts)?.total_s)
            }
        }
    }

    /// Virtual time of the pure-GPU baseline.
    pub fn gpu_baseline<K: Kernel>(&self, kernel: &K) -> Result<f64> {
        let class = self.classify(kernel)?;
        let opts = self.exec_options(false);
        match class.adapter {
            Adapter::None => {
                Ok(run_gpu_as(kernel, class.exec_pattern, &self.platform, &opts)?.total_s)
            }
            Adapter::Transpose => {
                let t = TransposedKernel::new(kernel)?;
                Ok(run_gpu_as(&t, class.exec_pattern, &self.platform, &opts)?.total_s)
            }
            Adapter::Mirror => {
                let m = lddp_core::framework::MirroredKernel::new(kernel)?;
                Ok(run_gpu_as(&m, class.exec_pattern, &self.platform, &opts)?.total_s)
            }
        }
    }
}
