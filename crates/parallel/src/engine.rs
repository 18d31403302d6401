//! Real wavefront execution on host threads.
//!
//! This is the substitute for the paper's OpenMP 3.0 CPU path (§II-A,
//! §IV-A): a few heavy-weight worker threads, each responsible for a
//! contiguous chunk of every wave, synchronized by a barrier between
//! waves. Unlike `hetero-sim` this engine runs on the wall clock — it is
//! what the Criterion benchmarks measure.
//!
//! Every solve goes through one entry, [`ParallelEngine::run`], and one
//! wave loop. A [`SolveSpec`] says what the run varies: the pattern,
//! the memory mode (the full wave-major grid, or a ring of the last `k`
//! waves), the answer's fold, the worker count, a tier cap, a trace
//! sink, a band-stream hook and a fault injector.
//! [`ParallelEngine::solve`] and [`ParallelEngine::solve_rolling`] are
//! that call with the defaults.
//!
//! The perf-critical design points:
//!
//! * **Persistent workers.** The engine owns a lazily created
//!   [`WorkerPool`] (long-lived threads plus a reusable sense-reversing
//!   barrier) instead of re-spawning a `thread::scope` per solve. The
//!   pool is created on first use and shared by every subsequent solve
//!   and — through `Clone`, which shares the pool — every batch the
//!   serving path executes. A run with one worker and no injector
//!   computes inline on the calling thread instead.
//! * **Bulk interior runs.** When the kernel exposes a
//!   [`WaveKernel`] and the executed pattern equals the set's raw
//!   classification, each worker splits its chunk of a wave into the
//!   *interior* run (every dependency in bounds) and the border
//!   remainder. Interior runs are handed to [`WaveKernel::compute_run`]
//!   as plain slices — no per-cell `Option` checks, no bounds branches,
//!   and a shape LLVM can autovectorize. Border cells, and every cell of
//!   a kernel without a `WaveKernel`, go through the scalar
//!   [`Kernel::compute`] path.
//! * **SIMD interior runs.** Kernels that additionally expose a
//!   [`SimdWaveKernel`] get their interior runs routed through
//!   [`SimdWaveKernel::compute_run_simd`] whenever the host has a
//!   vector backend ([`simd_available`]), with worker chunk boundaries
//!   rounded down to lane multiples so at most one partial vector per
//!   (worker, wave) is peeled. Tier caps — `LDDP_FORCE_TIER` (read once
//!   per process), [`ParallelEngine::with_tier`] and
//!   [`SolveSpec::tier`] — compose by taking the lowest, downgrading
//!   gracefully when a tier is unavailable for a kernel.
//! * **One wave store.** The wave loop hands each worker's stretch of a
//!   wave to [`WaveStore::compute`], which reads every neighbour at a
//!   constant position shift along its own wave. The store is the
//!   wave-major table, kept whole or modulo `k = max_wave_delta + 1`
//!   waves; both memory modes run the same code on the same positions,
//!   so they agree bit for bit, and one-thread rolling walks
//!   (`lddp_core::rolling::solve_waves`) use it too.
//! * **One fold.** Worker 0 folds each sealed wave into the answer
//!   ([`Fold`]: the corner, the best score, the last row's minimum, a
//!   count) behind its barrier, in both memory modes, and emits the
//!   stream's bands there.
//!
//! With a trace sink, or a live registry on a pooled full-table run,
//! the loop times every wave. The sink receives the timeline: one span
//! per non-empty (worker, wave) chunk and each worker's busy time. The
//! registry receives the counts and a histogram of time spent waiting
//! at the inter-wave barrier — the otherwise invisible synchronization
//! cost of the heavy-thread design. The cost is two clock reads per
//! wave; every other run records whole-run aggregates only.
//!
//! # Safety architecture
//!
//! Workers share one backing array. Within a wave each worker writes a
//! *disjoint* chunk of that wave's contiguous range, and reads only
//! cells from strictly earlier waves still held by the store —
//! guaranteed by the pattern-compatibility check
//! (`schedule::compatible`) and, for rings, by `k` slots reaching one
//! wave further back than any dependency. The pool's
//! [`SenseBarrier`](crate::SenseBarrier) separates waves, carrying the
//! release/acquire edges that make earlier-wave writes visible. Each
//! worker borrows its output stretch mutably and its dependency waves
//! shared; the two never overlap, since a wave's slot differs from every
//! slot it reads. The few `unsafe` blocks below encapsulate exactly
//! this discipline.
//!
//! [`WaveKernel`]: lddp_core::kernel::WaveKernel
//! [`WaveKernel::compute_run`]: lddp_core::kernel::WaveKernel::compute_run
//! [`SimdWaveKernel`]: lddp_core::kernel::SimdWaveKernel
//! [`SimdWaveKernel::compute_run_simd`]: lddp_core::kernel::SimdWaveKernel::compute_run_simd
//! [`simd_available`]: lddp_core::kernel::simd_available
//! [`WaveStore::compute`]: lddp_core::rolling::WaveStore::compute

use crate::pool::{chunk_aligned, PoolError, WorkerPool};
use lddp_chaos::FaultInjector;
use lddp_core::grid::{Grid, LayoutKind};
use lddp_core::kernel::{ExecTier, Kernel, MemoryMode, RunBody};
use lddp_core::pattern::{classify, Pattern};
use lddp_core::rolling::{BandEvent, BandSchedule, Fold, Folded, WaveStore};
use lddp_core::schedule::compatible;
use lddp_core::{DegradeStep, Error, Result};
use lddp_trace::live::LiveRegistry;
use lddp_trace::{tracks, NullSink, Span, TraceSink};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Shared mutable cell store with externally enforced aliasing
/// discipline (see module docs).
struct SharedCells<T> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: all concurrent access goes through `slice`/`slice_mut` under
// the wave/barrier discipline documented on the module: writes within a
// wave target pairwise-disjoint ranges, reads target ranges finalized
// before the last barrier.
unsafe impl<T: Send> Sync for SharedCells<T> {}

impl<T: Copy> SharedCells<T> {
    fn new(slice: &mut [T]) -> Self {
        SharedCells {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    /// Borrows `base..base + len` as a slice of sealed cells.
    ///
    /// # Safety
    /// The range is in bounds and every cell in it belongs to a wave
    /// sealed by an earlier barrier (no concurrent writer).
    #[inline]
    unsafe fn slice(&self, base: usize, len: usize) -> &[T] {
        debug_assert!(base + len <= self.len);
        unsafe { std::slice::from_raw_parts(self.ptr.add(base), len) }
    }

    /// Borrows `base..base + len` mutably as the calling worker's
    /// exclusive output run of the current wave.
    ///
    /// # Safety
    /// The range is in bounds, lies entirely inside this worker's chunk
    /// of the current wave, and does not overlap any slice handed out
    /// for sealed waves (a wave's range and the ranges it reads are
    /// disjoint in both memory modes).
    #[inline]
    #[allow(clippy::mut_from_ref)] // the aliasing discipline is the caller contract
    unsafe fn slice_mut(&self, base: usize, len: usize) -> &mut [T] {
        debug_assert!(base + len <= self.len);
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(base), len) }
    }
}

/// The process-wide `LDDP_FORCE_TIER` debugging override, read once.
/// Unparseable values are treated as unset.
fn env_forced_tier() -> Option<ExecTier> {
    static FORCED: OnceLock<Option<ExecTier>> = OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var("LDDP_FORCE_TIER")
            .ok()
            .and_then(|s| ExecTier::parse(&s))
    })
}

/// What one worker measured about itself during an instrumented run.
#[derive(Debug, Default)]
struct WorkerTrace {
    /// Non-empty chunks: (wave, start_s, dur_s, cells).
    spans: Vec<(usize, f64, f64, usize)>,
    /// Total compute time across all waves.
    busy_s: f64,
    /// Time spent blocked at the inter-wave barrier, one entry per wave
    /// of a pooled run — kept only for a live registry's histogram.
    barrier_wait_s: Vec<f64>,
}

/// Everything one [`ParallelEngine::run`] can vary. The default is a
/// full-table solve under the kernel's classified pattern on every
/// worker, folding the corner, uncapped and uninstrumented.
#[derive(Clone, Copy, Default)]
pub struct SolveSpec<'a, C> {
    /// Execution pattern; `None` takes the set's canonical
    /// classification. An explicit pattern must be compatible with the
    /// set (e.g. a `{NW}` problem under Horizontal, §V-B).
    pub pattern: Option<Pattern>,
    /// The whole wave-major grid, or a ring of the last
    /// `max_wave_delta + 1` waves (`O(rows + cols)` bytes).
    pub memory: MemoryMode,
    /// What the run folds its sealed waves into ([`Solved::folded`]).
    pub fold: Fold<C>,
    /// Active workers, clamped to `1..=threads()`; `None` uses all.
    pub threads: Option<usize>,
    /// Tier cap for this run, composed with the engine's pin and
    /// `LDDP_FORCE_TIER` by taking the lowest.
    pub tier: Option<ExecTier>,
    /// Wall-clock instrumentation sink (see module docs).
    pub sink: Option<&'a dyn TraceSink>,
    /// Streams sealed wave bands while the run proceeds.
    pub stream: Option<&'a StreamHook<'a, C>>,
    /// Fault injector consulted per (worker, wave). An injected run
    /// walks the degradation ladder: the configured run, then (when a
    /// bulk tier was in play) the scalar tier, then a panic-isolated
    /// one-thread run no injector touches. It always stays on the
    /// pool, for panic isolation and a stable draw sequence.
    pub injector: Option<&'a dyn FaultInjector>,
}

impl<C: Default> SolveSpec<'_, C> {
    /// A rolling run folding its sealed waves with `fold`.
    pub fn rolling(fold: Fold<C>) -> Self {
        SolveSpec {
            memory: MemoryMode::Rolling,
            fold,
            ..SolveSpec::default()
        }
    }
}

/// Outcome of a [`ParallelEngine::run`].
#[derive(Debug, Clone)]
pub struct Solved<C> {
    /// The table, for full-memory runs; `None` for rolling runs — that
    /// is their point.
    pub grid: Option<Grid<C>>,
    /// The run's fold over its sealed waves: the corner (`None` only
    /// for empty tables) and what [`SolveSpec::fold`] asked for.
    pub folded: Folded<C>,
    /// Tier the interior runs executed on.
    pub tier: ExecTier,
    /// Waves walked.
    pub waves: usize,
    /// Peak working-set bytes: the grid, or the ring's slots. This is
    /// what the `lddp_engine_table_bytes{memory_mode}` gauge reports.
    pub peak_bytes: usize,
    /// Degradation rungs an injected run took, in order; empty when
    /// the configured run succeeded.
    pub degraded: Vec<DegradeStep>,
}

/// A chunk-per-thread wavefront solver backed by a persistent
/// [`WorkerPool`].
///
/// Cloning the engine shares the pool: a clone solves on the same
/// long-lived worker threads rather than spawning its own.
#[derive(Debug, Clone)]
pub struct ParallelEngine {
    threads: usize,
    tier: Option<ExecTier>,
    live: Option<Arc<LiveRegistry>>,
    pool: OnceLock<Arc<WorkerPool>>,
}

impl ParallelEngine {
    /// Creates an engine with the given worker count (min 1). Workers
    /// are not spawned until the first solve that needs them.
    pub fn new(threads: usize) -> Self {
        ParallelEngine {
            threads: threads.max(1),
            tier: None,
            live: None,
            pool: OnceLock::new(),
        }
    }

    /// Engine sized to the host's available parallelism.
    pub fn host() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ParallelEngine::new(threads)
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Caps the execution tier of every run (`None`, the default, caps
    /// nothing). A cap a kernel cannot reach downgrades gracefully
    /// (`Simd → Bulk → Scalar`); `Some(ExecTier::Scalar)` sends every
    /// cell through [`Kernel::compute`], and [`ExecTier::BitParallel`]
    /// caps nothing, because bit-parallel execution is an answer-only
    /// specialization the caller must route itself. Caps compose with
    /// `LDDP_FORCE_TIER` and [`SolveSpec::tier`] by taking the lowest.
    pub fn with_tier(mut self, tier: Option<ExecTier>) -> Self {
        self.tier = tier;
        self
    }

    /// The engine's tier cap, if any (`LDDP_FORCE_TIER` not
    /// considered).
    pub fn tier_override(&self) -> Option<ExecTier> {
        self.tier
    }

    /// Attaches a [`LiveRegistry`]: every run records pool utilization
    /// into it (`lddp_pool_*` families — per-worker busy seconds,
    /// barrier-wait histogram, solves by tier, waves, cells — and the
    /// `lddp_engine_table_bytes{memory_mode}` gauge) regardless of
    /// whether a [`TraceSink`] is attached. Injected faults additionally
    /// count under
    /// `lddp_chaos_injected_total{site=worker_panic|bulk_panic}`.
    ///
    /// Attaching a registry routes pooled full-table runs through the
    /// instrumented path (two clock reads per wave), so it is not free — though the
    /// cost is per *wave*, not per cell, and disappears into the noise
    /// for all but trivially small grids. Every family is registered
    /// here, at zero, so the exposition keeps its shape whatever tier
    /// and memory mode the solves take — or when none reaches the pool.
    pub fn with_live(mut self, live: Arc<LiveRegistry>) -> Self {
        for tier in [ExecTier::Scalar, ExecTier::Bulk, ExecTier::Simd] {
            record_live(&live, tier, 0, 0, 0, &[]);
        }
        for mode in ["full", "rolling"] {
            set_table_bytes(&live, mode, 0);
        }
        self.live = Some(live);
        self
    }

    /// Workers of the engine's shared pool that have died (panicked or
    /// otherwise terminated) and not yet been healed. Zero when the
    /// pool is healthy — including before the pool's lazy creation,
    /// since a pool that doesn't exist yet has nothing wrong with it.
    /// This is the readiness signal fleet `/healthz` reports per
    /// platform pool.
    pub fn pool_dead_workers(&self) -> usize {
        self.pool.get().map_or(0, |p| p.dead_workers())
    }

    /// True once a run has spun up the worker pool. Single-worker runs
    /// compute inline and must leave this false — the regression guard
    /// for the "pool handoff at one thread" overhead class.
    pub fn pool_started(&self) -> bool {
        self.pool.get().is_some()
    }

    /// The tier a [`solve`](ParallelEngine::solve) of `kernel` will
    /// execute on, honoring `LDDP_FORCE_TIER`, the engine's cap and the
    /// host's vector backend. Kernels whose contributing set does not
    /// classify run scalar. This is the tier order a tuned solve uses:
    /// SIMD, then bulk, then scalar, as available.
    pub fn select_tier<K: Kernel>(&self, kernel: &K) -> ExecTier {
        match classify(kernel.contributing_set()).map(Pattern::canonical) {
            Some(pattern) => self.resolve_exec(kernel, pattern, None).0,
            None => ExecTier::Scalar,
        }
    }

    /// Resolves the tier and bulk executor for running `kernel` under
    /// `pattern`: the fastest available tier, lowered to every cap in
    /// force (`LDDP_FORCE_TIER`, the engine's, the run's `cap`) and to
    /// what the kernel and host actually support under this pattern.
    fn resolve_exec<'k, K: Kernel + ?Sized>(
        &self,
        kernel: &'k K,
        pattern: Pattern,
        cap: Option<ExecTier>,
    ) -> (ExecTier, Option<RunBody<'k, K::Cell>>) {
        // The bulk and SIMD paths are only sound when the executed
        // pattern is the set's own classification: only then are all
        // of a run's dependencies in strictly earlier waves with the
        // contiguity property `Layout::interior_runs` relies on.
        if classify(kernel.contributing_set()) != Some(pattern) {
            return (ExecTier::Scalar, None);
        }
        let cap = [env_forced_tier(), self.tier, cap]
            .into_iter()
            .flatten()
            .filter(|t| *t != ExecTier::BitParallel)
            .min();
        RunBody::resolve(kernel, cap)
    }

    /// The engine's worker pool, created on first use.
    fn pool(&self) -> &Arc<WorkerPool> {
        self.pool
            .get_or_init(|| Arc::new(WorkerPool::new(self.threads)))
    }

    /// Solves the kernel into a full grid under its classified
    /// canonical pattern.
    ///
    /// ```
    /// use lddp_parallel::ParallelEngine;
    /// use lddp_core::kernel::{ClosureKernel, Neighbors};
    /// use lddp_core::cell::{ContributingSet, RepCell};
    /// use lddp_core::wavefront::Dims;
    ///
    /// // Pascal's triangle as an LDDP kernel: C(i,j) = NW + N.
    /// let k = ClosureKernel::new(
    ///     Dims::new(8, 8),
    ///     ContributingSet::new(&[RepCell::Nw, RepCell::N]),
    ///     |_i, j, n: &Neighbors<u64>| match (n.nw, n.n) {
    ///         (Some(a), Some(b)) => a + b,
    ///         _ => u64::from(j == 0), // first row/column
    ///     },
    /// );
    /// let grid = ParallelEngine::new(4).solve(&k).unwrap();
    /// // Row i holds the binomial coefficients C(i, j).
    /// assert_eq!(grid.get(4, 2), 6);
    /// assert_eq!(grid.get(7, 3), 35);
    /// ```
    pub fn solve<K: Kernel>(&self, kernel: &K) -> Result<Grid<K::Cell>> {
        self.run(kernel, &SolveSpec::default())
            .map(|s| s.grid.expect("a full-memory run returns its grid"))
    }

    /// Solves in rolling (wave-band) memory mode: no grid is
    /// materialized, only a ring of the last `k` waves plus the captured
    /// corner and, when `best_of` is given, the arg-best cell under that
    /// score (the Smith–Waterman endpoint). Sets without a canonical
    /// execution are rejected with [`Error::PlanMismatch`].
    pub fn solve_rolling<K: Kernel>(
        &self,
        kernel: &K,
        best_of: Option<fn(&K::Cell) -> i64>,
    ) -> Result<Solved<K::Cell>> {
        self.run(
            kernel,
            &SolveSpec::rolling(best_of.map_or(Fold::Corner, Fold::Max)),
        )
    }

    /// Runs `kernel` as `spec` says — the one entry every solve goes
    /// through. Without an injector this is one pass of the wave loop;
    /// with one, it is the degradation ladder (see
    /// [`SolveSpec::injector`]), and [`Solved::degraded`] lists the
    /// rungs taken. An injected panic that the ladder cannot absorb
    /// fails the run with [`Error::ExecutionPanicked`], never unwinding
    /// the caller, and a pool left with dead workers is healed first.
    pub fn run<K: Kernel>(
        &self,
        kernel: &K,
        spec: &SolveSpec<'_, K::Cell>,
    ) -> Result<Solved<K::Cell>> {
        if spec.injector.is_none() {
            return self.attempt(kernel, spec);
        }
        match self.attempt(kernel, spec) {
            Err(Error::ExecutionPanicked { .. }) => {}
            done => return done,
        }
        // Retries emit no bands: the consumer already saw the first
        // attempt's frames, and re-sending them would break band order.
        let mut spec = SolveSpec {
            stream: None,
            ..*spec
        };
        let mut degraded = Vec::new();
        let pattern = self.pattern_of(kernel, &spec)?;
        if self.resolve_exec(kernel, pattern, spec.tier).0 != ExecTier::Scalar {
            degraded.push(DegradeStep::BulkToScalar);
            spec.tier = Some(ExecTier::Scalar);
            match self.attempt(kernel, &spec) {
                Err(Error::ExecutionPanicked { .. }) => {}
                done => return done.map(|s| Solved { degraded, ..s }),
            }
        }
        degraded.push(DegradeStep::ParallelToSequential);
        let last = SolveSpec {
            threads: Some(1),
            injector: None,
            ..spec
        };
        match catch_unwind(AssertUnwindSafe(|| self.attempt(kernel, &last))) {
            Ok(done) => done.map(|s| Solved { degraded, ..s }),
            Err(_) => Err(Error::ExecutionPanicked {
                detail: "one-thread fallback panicked".into(),
            }),
        }
    }

    /// The pattern `spec` executes `kernel` under, or why it cannot.
    fn pattern_of<K: Kernel>(&self, kernel: &K, spec: &SolveSpec<'_, K::Cell>) -> Result<Pattern> {
        let set = kernel.contributing_set();
        if set.is_empty() {
            return Err(Error::EmptyContributingSet);
        }
        let pattern = match spec.pattern {
            Some(p) => p,
            None => classify(set)
                .map(Pattern::canonical)
                .ok_or(Error::EmptyContributingSet)?,
        };
        if !compatible(pattern, set) {
            return Err(Error::PlanMismatch {
                expected: format!("{pattern}"),
                found: format!("{set}"),
            });
        }
        Ok(pattern)
    }

    /// One pass of the wave loop: sets up the store, runs every wave on
    /// the pool (or inline, for one uninjected worker), then records.
    fn attempt<K: Kernel>(
        &self,
        kernel: &K,
        spec: &SolveSpec<'_, K::Cell>,
    ) -> Result<Solved<K::Cell>> {
        let pattern = self.pattern_of(kernel, spec)?;
        let (tier, exec) = self.resolve_exec(kernel, pattern, spec.tier);
        let dims = kernel.dims();
        let store = WaveStore::new(spec.memory, pattern, kernel.contributing_set(), dims);
        let full = spec.memory == MemoryMode::Full;
        let mut grid = full.then(|| Grid::new(LayoutKind::preferred_for(pattern), dims));
        let mut ring = vec![K::Cell::default(); if full { 0 } else { store.len() }];
        let mut solved = Solved {
            grid: None,
            folded: Folded::default(),
            tier,
            waves: store.num_waves(),
            peak_bytes: store.len() * std::mem::size_of::<K::Cell>(),
            degraded: Vec::new(),
        };
        if dims.is_empty() {
            solved.grid = grid;
            return Ok(solved);
        }
        if let Some(live) = self.live.as_deref() {
            set_table_bytes(live, spec.memory.as_str(), solved.peak_bytes);
        }
        let cells = SharedCells::new(match &mut grid {
            Some(g) => g.as_mut_slice(),
            None => &mut ring[..],
        });
        let waves = WaveRun {
            kernel,
            pattern,
            tier,
            exec,
            memory: spec.memory,
            fold: spec.fold,
            threads: spec.threads,
            injector: spec.injector,
            stream: spec.stream,
            store: &store,
            cells: &cells,
        };
        solved.folded = self.wave_loop(&waves, spec.sink.unwrap_or(&NullSink))?;
        solved.grid = grid;
        Ok(solved)
    }

    /// The wave loop — the only one. Each worker walks every wave:
    /// draw injected faults, compute its chunk through the store (border
    /// cells scalar, the interior run bulk), meet at the barrier; worker
    /// 0 then folds the sealed wave and emits the stream's bands.
    fn wave_loop<K: Kernel>(
        &self,
        run: &WaveRun<'_, K>,
        sink: &dyn TraceSink,
    ) -> Result<Folded<K::Cell>> {
        let (kernel, store, exec) = (run.kernel, run.store, run.exec);
        let dims = kernel.dims();
        let num_waves = store.num_waves();
        let threads = run
            .threads
            .unwrap_or(self.threads)
            .min(self.threads)
            .min(run.pattern.widest_wave(dims.rows, dims.cols))
            .max(1);
        // One worker cannot win on the pool: dispatching to it would
        // pay job hand-off, a spin barrier per wave and a context switch
        // for no parallelism. Injected runs stay on the pool so injected
        // panics keep their isolation and per-(worker, wave) draws.
        let pool = (threads > 1 || run.injector.is_some()).then(|| self.pool());
        let live = self.live.as_deref();
        let want_spans = sink.enabled();
        // Pooled full-table runs with a live registry time every wave
        // too: the registry's barrier histogram needs the per-wave
        // waits. Rolling runs — the served hot path — give the registry
        // their aggregates only: on a 2-vCPU host two clock reads per
        // wave cost a rolling run 10–25% at 1024²–2048².
        let timed =
            want_spans || (live.is_some() && pool.is_some() && run.memory == MemoryMode::Full);
        let lanes = exec.map_or(1, |e| e.lanes());
        let schedule = run
            .stream
            .map(|h| BandSchedule::new(run.pattern, dims.rows, dims.cols, h.bands));
        let chaos_injected = |site: &str| {
            if let Some(live) = live {
                live.counter(
                    "lddp_chaos_injected_total",
                    &[("site", site)],
                    "Faults injected by the attached chaos plan, by site.",
                )
                .inc();
            }
        };
        // Injected faults surface as worker panics; an inactive
        // injector costs one branch per (worker, wave).
        let inject = |t: usize, w: usize| {
            if let Some(inj) = run.injector {
                if exec.is_some() && inj.bulk_panic(w) {
                    chaos_injected("bulk_panic");
                    panic!("injected bulk fault at wave {w}");
                }
                if inj.worker_panic(t, w) {
                    chaos_injected("worker_panic");
                    panic!("injected worker panic: worker {t} wave {w}");
                }
            }
        };
        let epoch = Instant::now();
        let clock = || epoch.elapsed().as_secs_f64();
        let slots: Vec<Mutex<WorkerTrace>> = (0..threads)
            .map(|_| Mutex::new(WorkerTrace::default()))
            .collect();
        let captured: Mutex<Capture<K::Cell>> = Mutex::new(Capture::default());
        let body = |t: usize| {
            let mut tr = WorkerTrace::default();
            let mut cap = Capture::default();
            // Two clock reads per wave, not three: each wave starts at
            // the previous wave's barrier exit (the inter-wave setup it
            // absorbs into busy time is tens of nanoseconds).
            let mut t0 = if timed { clock() } else { 0.0 };
            for w in 0..num_waves {
                inject(t, w);
                let len = store.wave_len(w);
                let my = chunk_aligned(t, threads, len, lanes);
                let owned = my.len();
                if owned > 0 {
                    // SAFETY: chunks of a wave are disjoint across
                    // workers, and the store lends `sealed` only the
                    // ranges of earlier waves, which never overlap wave
                    // `w`'s; the barrier sealed those, and the store
                    // still holds them.
                    let out = unsafe { run.cells.slice_mut(store.base(w) + my.start, owned) };
                    let sealed = |r: Range<usize>| unsafe { run.cells.slice(r.start, r.len()) };
                    store.compute(kernel, exec, w, my, out, sealed);
                }
                if timed {
                    let t1 = clock();
                    if let Some(pool) = pool {
                        pool.barrier().wait();
                    }
                    let t2 = if pool.is_some() { clock() } else { t1 };
                    if want_spans && owned > 0 {
                        tr.spans.push((w, t0, t1 - t0, owned));
                    }
                    tr.busy_s += t1 - t0;
                    if pool.is_some() && live.is_some() {
                        tr.barrier_wait_s.push(t2 - t1);
                    }
                    t0 = t2;
                } else if let Some(pool) = pool {
                    pool.barrier().wait();
                }
                if t == 0 {
                    // SAFETY: wave `w` is sealed by the barrier above. A
                    // ring next writes its slot at wave `w + k` (k ≥ 2),
                    // which no worker reaches before worker 0 passes the
                    // `w + 1` barrier — i.e. after this fold completes.
                    let sealed = unsafe { run.cells.slice(store.base(w), len) };
                    cap.visit(run, schedule.as_ref(), w, sealed);
                }
            }
            if t == 0 {
                *captured.lock().unwrap_or_else(|e| e.into_inner()) = cap;
            }
            *slots[t].lock().unwrap_or_else(|e| e.into_inner()) = tr;
        };
        match pool {
            Some(pool) => Self::map_pool_result(pool, pool.try_run(threads, &body))?,
            None => body(0),
        }
        let total_s = clock();
        let mut traces: Vec<WorkerTrace> = slots
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
            .collect();
        if !timed {
            // An untimed inline run still owes the registry its busy
            // time: the whole run.
            traces[0].busy_s = total_s;
        }
        self.record(sink, run.tier, num_waves, dims.len(), &traces, total_s);
        let cap = captured.into_inner().unwrap_or_else(|e| e.into_inner());
        Ok(cap.folded)
    }

    /// Emits a finished run's timeline into the sink and its counts
    /// into the live registry.
    fn record(
        &self,
        sink: &dyn TraceSink,
        tier: ExecTier,
        waves: usize,
        cells: usize,
        traces: &[WorkerTrace],
        total_s: f64,
    ) {
        if sink.enabled() {
            for (t, tr) in traces.iter().enumerate() {
                for &(w, start_s, dur_s, owned) in &tr.spans {
                    sink.span(
                        Span::new("wave", tracks::worker(t), start_s, dur_s)
                            .with_arg("wave", w)
                            .with_arg("cells", owned)
                            .with_arg("tier", tier.as_str()),
                    );
                }
                sink.sample(tracks::worker(t), "worker.busy_s", total_s, tr.busy_s);
            }
        }
        if let Some(live) = self.live.as_deref() {
            record_live(live, tier, 1, waves, cells, traces);
        }
    }

    /// Maps a pool-run outcome to the engine's error taxonomy, healing
    /// the pool first if workers died so the next solve finds it usable.
    fn map_pool_result(pool: &WorkerPool, r: std::result::Result<(), PoolError>) -> Result<()> {
        match r {
            Ok(()) => Ok(()),
            Err(PoolError::JobPanicked) => Err(Error::ExecutionPanicked {
                detail: "a pool worker panicked mid-solve".into(),
            }),
            Err(PoolError::PoolUnusable { dead }) => {
                let respawned = pool.heal();
                Err(Error::ExecutionPanicked {
                    detail: format!("{dead} pool worker(s) died mid-solve; respawned {respawned}"),
                })
            }
        }
    }
}

impl Default for ParallelEngine {
    fn default() -> Self {
        ParallelEngine::host()
    }
}

/// Adds `solves` runs of `tier` — their waves, cells and per-worker
/// traces — to the engine's `lddp_pool_*` families.
fn record_live(
    live: &LiveRegistry,
    tier: ExecTier,
    solves: u64,
    waves: usize,
    cells: usize,
    traces: &[WorkerTrace],
) {
    // Registered even when no barrier ran (one inline worker), so the
    // exposition keeps its shape at any thread count.
    let waits = live.histogram(
        "lddp_pool_barrier_wait_seconds",
        &[],
        "Time pool workers spent blocked at the inter-wave barrier.",
    );
    for (t, tr) in traces.iter().enumerate() {
        live.fcounter(
            "lddp_pool_worker_busy_seconds_total",
            &[("worker", &t.to_string())],
            "Cumulative compute time per pool worker.",
        )
        .add(tr.busy_s);
        for &wait_s in &tr.barrier_wait_s {
            waits.observe(wait_s);
        }
    }
    live.counter(
        "lddp_pool_solves_total",
        &[("tier", tier.as_str())],
        "Pooled solves completed, by execution tier.",
    )
    .add(solves);
    live.counter("lddp_pool_waves_total", &[], "Waves executed by the pool.")
        .add(waves as u64);
    live.counter(
        "lddp_pool_cells_total",
        &[],
        "Grid cells computed by the pool.",
    )
    .add(cells as u64);
}

/// Sets the working-set gauge of `mode` (`full` or `rolling`).
fn set_table_bytes(live: &LiveRegistry, mode: &str, bytes: usize) {
    live.gauge(
        "lddp_engine_table_bytes",
        &[("memory_mode", mode)],
        "Peak DP working-set bytes of the most recent solve, by memory mode.",
    )
    .set(bytes as f64);
}

/// The fixed inputs of one pass of the wave loop.
struct WaveRun<'a, K: Kernel> {
    kernel: &'a K,
    pattern: Pattern,
    tier: ExecTier,
    exec: Option<RunBody<'a, K::Cell>>,
    memory: MemoryMode,
    fold: Fold<K::Cell>,
    threads: Option<usize>,
    injector: Option<&'a dyn FaultInjector>,
    stream: Option<&'a StreamHook<'a, K::Cell>>,
    store: &'a WaveStore,
    cells: &'a SharedCells<K::Cell>,
}

/// Worker 0's fold over the sealed waves, and its stream's progress.
struct Capture<C> {
    folded: Folded<C>,
    next_band: usize,
    /// The consumer declined a band: emit no more.
    declined: bool,
}

impl<C> Default for Capture<C> {
    fn default() -> Self {
        Capture {
            folded: Folded::default(),
            next_band: 0,
            declined: false,
        }
    }
}

impl<C: Copy> Capture<C> {
    /// Folds sealed wave `w` and emits its band when `w` closes one.
    /// Emission happens behind the sealing barrier but before worker 0
    /// starts wave `w + 1`: the other workers run ahead until the next
    /// barrier, so a blocking emit (full channel) throttles the whole
    /// pool — the slow-reader backpressure contract. An emit returning
    /// `false` stops further emission while the run completes.
    fn visit<K: Kernel<Cell = C>>(
        &mut self,
        run: &WaveRun<'_, K>,
        schedule: Option<&BandSchedule>,
        w: usize,
        sealed: &[C],
    ) {
        let dims = run.kernel.dims();
        self.folded.visit(run.fold, run.pattern, dims, w, sealed);
        if let (Some(hook), Some(sched)) = (run.stream, schedule) {
            if !self.declined && sched.ends().get(self.next_band) == Some(&w) {
                let score = sealed.last().map_or(0.0, |c| (hook.score_of)(c));
                let f = &self.folded;
                let best = f.best.map(|_| f.value as f64);
                let ev = sched.event(self.next_band, w, f.cells, score, best);
                self.next_band += 1;
                self.declined = !(hook.emit)(ev);
            }
        }
    }
}

/// How a streaming run emits its bands — [`SolveSpec::stream`]. The
/// schedule is cut into `bands` near-equal-cell slices
/// ([`lddp_core::rolling::BandSchedule`]) and worker 0 calls `emit`
/// behind each band's sealing barrier, so the solve of band `k + 1`
/// overlaps delivery of band `k` — the pipeline structure of the
/// Matsumae–Miyazaki GPU path. Emission is observation only: the answer
/// is bit-identical to an unstreamed run.
pub struct StreamHook<'a, C> {
    /// Requested band count; the schedule clamps it to the wave count,
    /// so tiny grids emit fewer (but at least one) bands.
    pub bands: usize,
    /// Projects a frontier cell to the frame's running score.
    pub score_of: fn(&C) -> f64,
    /// Called once per sealed band, in band order, from inside the
    /// solve. May block (that is the backpressure path); returns
    /// `false` to stop further emission while the solve completes.
    pub emit: &'a (dyn Fn(BandEvent) -> bool + Sync),
}

#[cfg(test)]
mod tests {
    use super::*;
    use lddp_core::cell::{ContributingSet, RepCell};
    use lddp_core::kernel::{simd_available, ClosureKernel, Neighbors, SimdWaveKernel, WaveKernel};
    use lddp_core::seq::solve_row_major;
    use lddp_core::wavefront::Dims;
    use lddp_trace::live::{parse_prometheus, LiveRegistry};
    use lddp_trace::TraceData;

    /// An engine whose registry is also its runs' sink: the timeline
    /// lands in the registry's unbounded ring, the counts in its
    /// `lddp_pool_*` families.
    fn live_engine(threads: usize) -> (ParallelEngine, Arc<LiveRegistry>) {
        let reg = Arc::new(LiveRegistry::with_flight_capacity(usize::MAX));
        (
            ParallelEngine::new(threads).with_live(Arc::clone(&reg)),
            reg,
        )
    }

    fn timeline(reg: &LiveRegistry) -> TraceData {
        reg.flight().snapshot_since(f64::NEG_INFINITY)
    }

    /// The value of one exposition series, `name{labels}`.
    fn series(reg: &LiveRegistry, name: &str) -> Option<f64> {
        parse_prometheus(&reg.to_prometheus())
            .into_iter()
            .find(|(s, _)| s == name)
            .map(|(_, v)| v)
    }

    /// A full-memory run of `spec`, unwrapped to its grid.
    fn grid_of<K: Kernel>(
        engine: &ParallelEngine,
        kernel: &K,
        spec: SolveSpec<'_, K::Cell>,
    ) -> Result<Grid<K::Cell>> {
        engine.run(kernel, &spec).map(|s| s.grid.unwrap())
    }

    fn pattern_spec<C: Default>(pattern: Pattern) -> SolveSpec<'static, C> {
        SolveSpec {
            pattern: Some(pattern),
            ..SolveSpec::default()
        }
    }

    fn traced_spec<C: Default>(sink: &dyn TraceSink) -> SolveSpec<'_, C> {
        SolveSpec {
            sink: Some(sink),
            ..SolveSpec::default()
        }
    }

    fn threads_spec<C: Default>(active: usize) -> SolveSpec<'static, C> {
        SolveSpec {
            threads: Some(active),
            ..SolveSpec::default()
        }
    }

    fn injected_spec<C: Default>(injector: &dyn FaultInjector) -> SolveSpec<'_, C> {
        SolveSpec {
            injector: Some(injector),
            ..SolveSpec::default()
        }
    }

    fn mix_kernel(
        dims: Dims,
        set: ContributingSet,
    ) -> ClosureKernel<u64, impl Fn(usize, usize, &Neighbors<u64>) -> u64 + Sync> {
        ClosureKernel::new(dims, set, move |i, j, n: &Neighbors<u64>| {
            let mut acc = (i as u64) << 20 | (j as u64 + 7);
            for c in RepCell::ALL {
                if let Some(v) = n.get(c) {
                    acc = acc.wrapping_mul(1099511628211).wrapping_add(*v);
                }
            }
            acc
        })
    }

    /// The same arithmetic as [`mix_kernel`], with a bulk path for
    /// anti-diagonal sets. Exercises scalar/bulk equivalence.
    struct BulkMix {
        dims: Dims,
        set: ContributingSet,
    }

    impl Kernel for BulkMix {
        type Cell = u64;

        fn dims(&self) -> Dims {
            self.dims
        }

        fn contributing_set(&self) -> ContributingSet {
            self.set
        }

        fn compute(&self, i: usize, j: usize, n: &Neighbors<u64>) -> u64 {
            let mut acc = (i as u64) << 20 | (j as u64 + 7);
            for c in RepCell::ALL {
                if let Some(v) = n.get(c) {
                    acc = acc.wrapping_mul(1099511628211).wrapping_add(*v);
                }
            }
            acc
        }

        fn wave_kernel(&self) -> Option<&dyn WaveKernel<Cell = u64>> {
            // The bulk body below walks anti-diagonal runs only.
            (classify(self.set) == Some(Pattern::AntiDiagonal)).then_some(self as _)
        }
    }

    impl WaveKernel for BulkMix {
        fn compute_run(
            &self,
            i: usize,
            j0: usize,
            out: &mut [u64],
            w: &[u64],
            nw: &[u64],
            n: &[u64],
            ne: &[u64],
        ) {
            for p in 0..out.len() {
                let (ci, cj) = (i - p, j0 + p);
                let mut acc = (ci as u64) << 20 | (cj as u64 + 7);
                // Same fold order as the scalar path: W, NW, N, NE.
                for sl in [w, nw, n, ne] {
                    if !sl.is_empty() {
                        acc = acc.wrapping_mul(1099511628211).wrapping_add(sl[p]);
                    }
                }
                out[p] = acc;
            }
        }
    }

    #[test]
    fn chunks_tile_the_range() {
        for n in 1..9 {
            for len in [0usize, 1, 5, 8, 9, 100] {
                let mut next = 0;
                for t in 0..n {
                    let c = chunk_aligned(t, n, len, 1);
                    assert_eq!(c.start, next);
                    next = c.end;
                }
                assert_eq!(next, len, "threads={n} len={len}");
                // Balanced within one cell.
                let sizes: Vec<usize> = (0..n).map(|t| chunk_aligned(t, n, len, 1).len()).collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    fn matches_oracle_for_all_sets_and_thread_counts() {
        for set in ContributingSet::table_one_rows() {
            let pattern = classify(set).unwrap();
            if !pattern.is_canonical() {
                continue;
            }
            let dims = Dims::new(13, 11);
            let kernel = mix_kernel(dims, set);
            let oracle = solve_row_major(&kernel).unwrap().to_row_major();
            for threads in [1, 2, 3, 8] {
                let engine = ParallelEngine::new(threads);
                let got = engine.solve(&kernel).unwrap();
                assert_eq!(got.to_row_major(), oracle, "{set} threads={threads}");
            }
        }
    }

    #[test]
    fn thin_tables_and_tiny_tables() {
        let set = ContributingSet::new(&[RepCell::W, RepCell::N]);
        for (r, c) in [(1, 1), (1, 64), (64, 1), (2, 2)] {
            let dims = Dims::new(r, c);
            let kernel = mix_kernel(dims, set);
            let oracle = solve_row_major(&kernel).unwrap().to_row_major();
            let got = ParallelEngine::new(4).solve(&kernel).unwrap();
            assert_eq!(got.to_row_major(), oracle, "{r}x{c}");
        }
    }

    #[test]
    fn empty_table_is_fine() {
        let set = ContributingSet::new(&[RepCell::N]);
        let kernel = mix_kernel(Dims::new(0, 8), set);
        let got = ParallelEngine::new(4).solve(&kernel).unwrap();
        assert_eq!(got.as_slice().len(), 0);
    }

    #[test]
    fn empty_set_is_rejected() {
        let kernel = mix_kernel(Dims::new(4, 4), ContributingSet::EMPTY);
        assert!(matches!(
            ParallelEngine::new(2).solve(&kernel),
            Err(Error::EmptyContributingSet)
        ));
    }

    #[test]
    fn incompatible_pattern_is_rejected() {
        let set = ContributingSet::new(&[RepCell::W, RepCell::N]);
        let kernel = mix_kernel(Dims::new(4, 4), set);
        assert!(grid_of(
            &ParallelEngine::new(2),
            &kernel,
            pattern_spec(Pattern::Horizontal)
        )
        .is_err());
    }

    #[test]
    fn nw_problem_under_horizontal_matches() {
        let set = ContributingSet::new(&[RepCell::Nw]);
        let dims = Dims::new(17, 9);
        let kernel = mix_kernel(dims, set);
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();
        let engine = ParallelEngine::new(4);
        let il = grid_of(&engine, &kernel, pattern_spec(Pattern::InvertedL)).unwrap();
        let h1 = grid_of(&engine, &kernel, pattern_spec(Pattern::Horizontal)).unwrap();
        assert_eq!(il.to_row_major(), oracle);
        assert_eq!(h1.to_row_major(), oracle);
    }

    #[test]
    fn deterministic_across_runs_and_threads() {
        let set = ContributingSet::FULL;
        let dims = Dims::new(37, 23);
        let kernel = mix_kernel(dims, set);
        let base = ParallelEngine::new(2)
            .solve(&kernel)
            .unwrap()
            .to_row_major();
        for threads in [3, 5, 16] {
            let got = ParallelEngine::new(threads).solve(&kernel).unwrap();
            assert_eq!(got.to_row_major(), base, "threads={threads}");
        }
    }

    #[test]
    fn more_threads_than_cells_is_clamped() {
        let set = ContributingSet::new(&[RepCell::N]);
        let dims = Dims::new(2, 2);
        let kernel = mix_kernel(dims, set);
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();
        let got = ParallelEngine::new(64).solve(&kernel).unwrap();
        assert_eq!(got.to_row_major(), oracle);
    }

    #[test]
    fn larger_stress_run() {
        let set = ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]);
        let dims = Dims::new(257, 193);
        let kernel = mix_kernel(dims, set);
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();
        let got = ParallelEngine::new(8).solve(&kernel).unwrap();
        assert_eq!(got.to_row_major(), oracle);
    }

    #[test]
    fn host_engine_reports_threads() {
        assert!(ParallelEngine::host().threads() >= 1);
        assert_eq!(ParallelEngine::new(0).threads(), 1);
    }

    #[test]
    fn traced_run_matches_untraced_and_records_everything() {
        let set = ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]);
        let dims = Dims::new(37, 29);
        let kernel = mix_kernel(dims, set);
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();
        let threads = 3;
        let (engine, reg) = live_engine(threads);
        let got = grid_of(&engine, &kernel, traced_spec(&*reg)).unwrap();
        assert_eq!(got.to_row_major(), oracle);

        let data = timeline(&reg);
        let waves = Pattern::AntiDiagonal.num_waves(dims.rows, dims.cols);
        assert_eq!(series(&reg, "lddp_pool_waves_total"), Some(waves as f64));
        assert_eq!(
            series(&reg, "lddp_pool_cells_total"),
            Some(dims.len() as f64)
        );
        let busy_series = parse_prometheus(&reg.to_prometheus())
            .into_iter()
            .filter(|(s, _)| s.starts_with("lddp_pool_worker_busy_seconds_total{"))
            .count();
        assert_eq!(busy_series, threads);

        // Every worker lane has spans, and they sum to the cell count.
        let mut cells = 0u64;
        for t in 0..threads {
            let lane: Vec<_> = data
                .spans
                .iter()
                .filter(|s| s.track == tracks::worker(t))
                .collect();
            assert!(!lane.is_empty(), "worker {t} has no spans");
            for s in &lane {
                assert_eq!(s.name, "wave");
                assert!(s.dur_s >= 0.0);
                let c = s
                    .args
                    .iter()
                    .find(|(k, _)| *k == "cells")
                    .map(|(_, v)| match v {
                        lddp_trace::ArgValue::U64(n) => *n,
                        _ => 0,
                    })
                    .unwrap();
                assert!(c > 0, "empty chunks must not produce spans");
                cells += c;
            }
            // Lane spans are time-ordered.
            for w in lane.windows(2) {
                assert!(w[0].start_s <= w[1].start_s);
            }
        }
        assert_eq!(cells, dims.len() as u64);

        // Barrier waits: one observation per (worker, wave).
        let h = reg.histogram("lddp_pool_barrier_wait_seconds", &[], "");
        assert_eq!(h.count(), (threads * waves) as u64);
        // Per-worker busy-time samples on the worker lanes.
        let busy: Vec<_> = data
            .samples
            .iter()
            .filter(|s| s.name == "worker.busy_s")
            .collect();
        assert_eq!(busy.len(), threads);
        assert!(busy.iter().all(|s| s.value >= 0.0));
    }

    #[test]
    fn traced_single_thread_still_records() {
        // threads == 1 normally short-circuits to the sequential solver;
        // with a live sink it must still go through the instrumented path.
        let set = ContributingSet::new(&[RepCell::N]);
        let dims = Dims::new(9, 5);
        let kernel = mix_kernel(dims, set);
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();
        let (engine, reg) = live_engine(1);
        let got = grid_of(&engine, &kernel, traced_spec(&*reg)).unwrap();
        assert_eq!(got.to_row_major(), oracle);
        let busy_series = parse_prometheus(&reg.to_prometheus())
            .into_iter()
            .filter(|(s, _)| s.starts_with("lddp_pool_worker_busy_seconds_total{"))
            .count();
        assert_eq!(busy_series, 1);
        assert!(series(&reg, "lddp_pool_worker_busy_seconds_total{worker=\"0\"}").is_some());
        assert!(!timeline(&reg).spans.is_empty());
    }

    #[test]
    fn null_sink_takes_the_untraced_path() {
        let set = ContributingSet::new(&[RepCell::W, RepCell::N]);
        let kernel = mix_kernel(Dims::new(16, 16), set);
        let a = ParallelEngine::new(4).solve(&kernel).unwrap();
        let b = grid_of(&ParallelEngine::new(4), &kernel, traced_spec(&NullSink)).unwrap();
        assert_eq!(a.to_row_major(), b.to_row_major());
    }

    #[test]
    fn bulk_path_matches_scalar_and_oracle() {
        let sets = [
            ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]),
            ContributingSet::FULL,
            ContributingSet::new(&[RepCell::W, RepCell::N]),
            ContributingSet::new(&[RepCell::Nw]), // bulk hook declines: scalar fallback
        ];
        for set in sets {
            for (r, c) in [(13, 11), (1, 9), (9, 1), (37, 23), (5, 64), (64, 5)] {
                let kernel = BulkMix {
                    dims: Dims::new(r, c),
                    set,
                };
                let oracle = solve_row_major(&kernel).unwrap().to_row_major();
                for threads in [1, 2, 5] {
                    let bulk = ParallelEngine::new(threads).solve(&kernel).unwrap();
                    let scalar = ParallelEngine::new(threads)
                        .with_tier(Some(ExecTier::Scalar))
                        .solve(&kernel)
                        .unwrap();
                    assert_eq!(bulk.to_row_major(), oracle, "{set} {r}x{c} t={threads}");
                    assert_eq!(scalar.to_row_major(), oracle, "{set} {r}x{c} t={threads}");
                }
            }
        }
    }

    #[test]
    fn bulk_is_skipped_under_a_non_classified_pattern() {
        // {W, NW, N} classifies AntiDiagonal; forcing another compatible
        // execution pattern must not take the bulk path (the kernel's
        // run body walks anti-diagonals). InvertedL is compatible with
        // the full set's subsets? Use the {NW} kernel under Horizontal:
        // classify({NW}) == InvertedL != Horizontal, so the gate closes
        // even though the hook would be consulted under InvertedL.
        let kernel = BulkMix {
            dims: Dims::new(17, 9),
            set: ContributingSet::new(&[RepCell::Nw]),
        };
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();
        let got = grid_of(
            &ParallelEngine::new(4),
            &kernel,
            pattern_spec(Pattern::Horizontal),
        )
        .unwrap();
        assert_eq!(got.to_row_major(), oracle);
    }

    #[test]
    fn traced_bulk_run_keeps_span_accounting() {
        let kernel = BulkMix {
            dims: Dims::new(37, 29),
            set: ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]),
        };
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();
        let rec = LiveRegistry::new();
        let got = grid_of(&ParallelEngine::new(3), &kernel, traced_spec(&rec)).unwrap();
        assert_eq!(got.to_row_major(), oracle);
        let data = timeline(&rec);
        let mut cells = 0u64;
        for s in &data.spans {
            for (k, v) in &s.args {
                if *k == "cells" {
                    if let lddp_trace::ArgValue::U64(n) = v {
                        cells += n;
                    }
                }
            }
        }
        assert_eq!(cells, kernel.dims.len() as u64, "bulk must not lose cells");
    }

    #[test]
    fn active_worker_counts_clamp_and_match() {
        let kernel = BulkMix {
            dims: Dims::new(29, 31),
            set: ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]),
        };
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();
        let engine = ParallelEngine::new(4);
        for active in [0, 1, 3, 4, 64] {
            let got = grid_of(&engine, &kernel, threads_spec(active)).unwrap();
            assert_eq!(got.to_row_major(), oracle, "active={active}");
        }
    }

    #[test]
    fn clones_share_the_worker_pool() {
        let engine = ParallelEngine::new(3);
        let kernel = mix_kernel(
            Dims::new(16, 16),
            ContributingSet::new(&[RepCell::W, RepCell::N]),
        );
        engine.solve(&kernel).unwrap(); // force pool creation
        let clone = engine.clone();
        clone.solve(&kernel).unwrap();
        assert!(Arc::ptr_eq(engine.pool(), clone.pool()));
    }

    #[test]
    fn tier_cap_roundtrip() {
        let engine = ParallelEngine::new(2);
        assert_eq!(engine.tier_override(), None);
        let capped = engine.clone().with_tier(Some(ExecTier::Scalar));
        assert_eq!(capped.tier_override(), Some(ExecTier::Scalar));
    }

    /// [`BulkMix`] plus a SIMD hook whose "vector" body is the bulk
    /// body — bit-identical by construction, so it can exercise tier
    /// dispatch, lane-aligned chunking and reporting on any host.
    struct SimdMix(BulkMix);

    impl Kernel for SimdMix {
        type Cell = u64;

        fn dims(&self) -> Dims {
            self.0.dims
        }

        fn contributing_set(&self) -> ContributingSet {
            self.0.set
        }

        fn compute(&self, i: usize, j: usize, n: &Neighbors<u64>) -> u64 {
            self.0.compute(i, j, n)
        }

        fn wave_kernel(&self) -> Option<&dyn WaveKernel<Cell = u64>> {
            self.0.wave_kernel().map(|_| self as _)
        }

        fn simd_kernel(&self) -> Option<&dyn SimdWaveKernel<Cell = u64>> {
            (classify(self.0.set) == Some(Pattern::AntiDiagonal)).then_some(self as _)
        }
    }

    impl WaveKernel for SimdMix {
        fn compute_run(
            &self,
            i: usize,
            j0: usize,
            out: &mut [u64],
            w: &[u64],
            nw: &[u64],
            n: &[u64],
            ne: &[u64],
        ) {
            self.0.compute_run(i, j0, out, w, nw, n, ne);
        }
    }

    impl SimdWaveKernel for SimdMix {
        fn lanes(&self) -> usize {
            4
        }

        fn compute_run_simd(
            &self,
            i: usize,
            j0: usize,
            out: &mut [u64],
            w: &[u64],
            nw: &[u64],
            n: &[u64],
            ne: &[u64],
        ) {
            self.compute_run(i, j0, out, w, nw, n, ne);
        }
    }

    fn anti_diag_set() -> ContributingSet {
        ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N])
    }

    #[test]
    fn tier_selection_pins_and_downgrades() {
        let simd_mix = SimdMix(BulkMix {
            dims: Dims::new(16, 16),
            set: anti_diag_set(),
        });
        let bulk_only = BulkMix {
            dims: Dims::new(16, 16),
            set: anti_diag_set(),
        };
        let scalar_only = mix_kernel(Dims::new(16, 16), anti_diag_set());
        let engine = ParallelEngine::new(2);

        let simd_auto = if simd_available() {
            ExecTier::Simd
        } else {
            ExecTier::Bulk
        };
        assert_eq!(engine.select_tier(&simd_mix), simd_auto);
        assert_eq!(engine.select_tier(&bulk_only), ExecTier::Bulk);
        assert_eq!(engine.select_tier(&scalar_only), ExecTier::Scalar);

        // Pins are honored where supported and downgrade where not.
        let pin = |t| ParallelEngine::new(2).with_tier(Some(t));
        assert_eq!(
            pin(ExecTier::Scalar).select_tier(&simd_mix),
            ExecTier::Scalar
        );
        assert_eq!(pin(ExecTier::Bulk).select_tier(&simd_mix), ExecTier::Bulk);
        assert_eq!(pin(ExecTier::Simd).select_tier(&bulk_only), ExecTier::Bulk);
        assert_eq!(
            pin(ExecTier::Simd).select_tier(&scalar_only),
            ExecTier::Scalar
        );
        // A bit-parallel pin is answer-level, not an engine tier: auto.
        assert_eq!(pin(ExecTier::BitParallel).select_tier(&simd_mix), simd_auto);
        // Caps compose by the lowest: a run's scalar cap beats the
        // engine's SIMD pin.
        let scalar_run = SolveSpec {
            tier: Some(ExecTier::Scalar),
            ..SolveSpec::default()
        };
        assert_eq!(
            pin(ExecTier::Simd)
                .run(&simd_mix, &scalar_run)
                .unwrap()
                .tier,
            ExecTier::Scalar
        );
        assert_eq!(engine.tier_override(), None);
        assert_eq!(
            engine
                .clone()
                .with_tier(Some(ExecTier::Simd))
                .tier_override(),
            Some(ExecTier::Simd)
        );
    }

    #[test]
    fn simd_tier_matches_oracle_across_shapes_and_threads() {
        for (r, c) in [(13, 11), (1, 9), (9, 1), (37, 23), (5, 64), (64, 5)] {
            let kernel = SimdMix(BulkMix {
                dims: Dims::new(r, c),
                set: anti_diag_set(),
            });
            let oracle = solve_row_major(&kernel).unwrap().to_row_major();
            for threads in [1, 2, 5] {
                for tier in [None, Some(ExecTier::Scalar), Some(ExecTier::Bulk)] {
                    let engine = ParallelEngine::new(threads).with_tier(tier);
                    let got = engine.solve(&kernel).unwrap();
                    assert_eq!(got.to_row_major(), oracle, "{r}x{c} t={threads} {tier:?}");
                }
            }
        }
    }

    #[test]
    fn traced_solve_records_the_tier() {
        let kernel = SimdMix(BulkMix {
            dims: Dims::new(33, 29),
            set: anti_diag_set(),
        });
        let (engine, reg) = live_engine(3);
        let tier = engine.select_tier(&kernel);
        grid_of(&engine, &kernel, traced_spec(&*reg)).unwrap();
        let data = timeline(&reg);
        let solves = format!("lddp_pool_solves_total{{tier=\"{tier}\"}}");
        assert_eq!(series(&reg, &solves), Some(1.0));
        let wave_spans: Vec<_> = data.spans.iter().filter(|s| s.name == "wave").collect();
        assert!(!wave_spans.is_empty());
        for s in wave_spans {
            let arg = s
                .args
                .iter()
                .find(|(k, _)| *k == "tier")
                .map(|(_, v)| v.clone());
            assert_eq!(
                arg,
                Some(lddp_trace::ArgValue::Str(tier.as_str().to_string())),
                "every wave span carries the resolved tier"
            );
        }
    }

    #[test]
    fn repeated_solves_reuse_the_engine() {
        let engine = ParallelEngine::new(3);
        let kernel = BulkMix {
            dims: Dims::new(33, 21),
            set: ContributingSet::FULL,
        };
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();
        for _ in 0..5 {
            assert_eq!(engine.solve(&kernel).unwrap().to_row_major(), oracle);
        }
    }

    /// Injector that panics a specific worker at a specific wave on the
    /// scalar/pooled path, or fails the bulk path, depending on flags.
    struct TestInjector {
        panic_worker: Option<(usize, usize)>,
        bulk_fail_wave: Option<usize>,
    }

    impl lddp_chaos::FaultInjector for TestInjector {
        fn active(&self) -> bool {
            true
        }

        fn worker_panic(&self, worker: usize, wave: usize) -> bool {
            self.panic_worker == Some((worker, wave))
        }

        fn bulk_panic(&self, wave: usize) -> bool {
            self.bulk_fail_wave == Some(wave)
        }
    }

    #[test]
    fn injected_worker_panic_is_absorbed_by_the_ladder_not_the_caller() {
        let set = ContributingSet::new(&[RepCell::W, RepCell::N]);
        let dims = Dims::new(24, 24);
        let kernel = mix_kernel(dims, set);
        let engine = ParallelEngine::new(3);
        let inj = TestInjector {
            panic_worker: Some((1, 5)),
            bulk_fail_wave: None,
        };
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();
        let s = engine.run(&kernel, &injected_spec(&inj)).unwrap();
        assert_eq!(s.grid.unwrap().to_row_major(), oracle);
        // A scalar-only kernel has no bulk rung to take.
        assert_eq!(s.degraded, vec![DegradeStep::ParallelToSequential]);
        // The same engine (and its pool) must serve the next solve.
        assert_eq!(engine.pool_dead_workers(), 0);
        assert_eq!(engine.solve(&kernel).unwrap().to_row_major(), oracle);
    }

    #[test]
    fn one_worker_injected_runs_stay_on_the_pool() {
        let kernel = BulkMix {
            dims: Dims::new(12, 12),
            set: anti_diag_set(),
        };
        let engine = ParallelEngine::new(1);
        let inj = TestInjector {
            panic_worker: None,
            bulk_fail_wave: Some(2),
        };
        let s = engine.run(&kernel, &injected_spec(&inj)).unwrap();
        assert_eq!(s.degraded, vec![DegradeStep::BulkToScalar]);
        assert!(engine.pool_started(), "an injected run must be isolated");
    }

    #[test]
    fn a_run_the_ladder_cannot_save_fails_without_unwinding() {
        let kernel = ClosureKernel::new(
            Dims::new(6, 6),
            ContributingSet::new(&[RepCell::W, RepCell::N]),
            |i, j, _n: &Neighbors<u64>| -> u64 {
                if i == 3 && j == 3 {
                    panic!("injected kernel fault");
                }
                0
            },
        );
        let engine = ParallelEngine::new(2);
        assert!(matches!(
            engine.run(&kernel, &injected_spec(&lddp_chaos::NoFaults)),
            Err(Error::ExecutionPanicked { .. })
        ));
        assert_eq!(engine.pool_dead_workers(), 0);
    }

    #[test]
    fn degradation_recovers_bulk_fault_via_scalar() {
        let kernel = BulkMix {
            dims: Dims::new(29, 23),
            set: ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]),
        };
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();
        let engine = ParallelEngine::new(3);
        let inj = TestInjector {
            panic_worker: None,
            bulk_fail_wave: Some(2),
        };
        let s = engine.run(&kernel, &injected_spec(&inj)).unwrap();
        assert_eq!(s.grid.unwrap().to_row_major(), oracle);
        // Bulk failed, scalar succeeded: exactly one rung taken.
        assert_eq!(s.degraded, vec![DegradeStep::BulkToScalar]);
    }

    #[test]
    fn degradation_falls_back_to_sequential_under_persistent_panics() {
        struct AlwaysPanic;
        impl lddp_chaos::FaultInjector for AlwaysPanic {
            fn active(&self) -> bool {
                true
            }
            fn worker_panic(&self, _worker: usize, wave: usize) -> bool {
                wave == 0
            }
        }
        let kernel = BulkMix {
            dims: Dims::new(21, 19),
            set: ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]),
        };
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();
        let engine = ParallelEngine::new(3);
        let s = engine.run(&kernel, &injected_spec(&AlwaysPanic)).unwrap();
        assert_eq!(s.grid.unwrap().to_row_major(), oracle);
        assert_eq!(
            s.degraded,
            vec![DegradeStep::BulkToScalar, DegradeStep::ParallelToSequential]
        );
        // And the engine still works normally afterwards.
        assert_eq!(engine.solve(&kernel).unwrap().to_row_major(), oracle);
    }

    #[test]
    fn live_registry_records_pool_families() {
        let set = ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]);
        let kernel = BulkMix {
            dims: Dims::new(29, 23),
            set,
        };
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();
        let reg = Arc::new(lddp_trace::live::LiveRegistry::new());
        let engine = ParallelEngine::new(3).with_live(Arc::clone(&reg));
        // The instrumented path a live registry forces must still be
        // correct, with a NullSink and with 1 active worker.
        assert_eq!(engine.solve(&kernel).unwrap().to_row_major(), oracle);
        assert_eq!(
            grid_of(&engine, &kernel, threads_spec(1))
                .unwrap()
                .to_row_major(),
            oracle
        );
        let text = reg.to_prometheus();
        let series = lddp_trace::live::parse_prometheus(&text);
        let get = |name: &str| {
            series
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("missing series {name} in:\n{text}"))
        };
        let waves = classify(kernel.contributing_set())
            .map(Pattern::canonical)
            .unwrap()
            .num_waves(29, 23) as f64;
        assert_eq!(get("lddp_pool_waves_total"), 2.0 * waves);
        assert_eq!(get("lddp_pool_cells_total"), (2 * 29 * 23) as f64);
        assert!(get("lddp_pool_worker_busy_seconds_total{worker=\"0\"}") >= 0.0);
        assert!(get("lddp_pool_barrier_wait_seconds_count") >= waves);
        // Two solves, whatever tier each resolved to.
        let solves: f64 = series
            .iter()
            .filter(|(n, _)| n.starts_with("lddp_pool_solves_total"))
            .map(|&(_, v)| v)
            .sum();
        assert_eq!(solves, 2.0);
    }

    /// At 1 thread the engine must not stand up the persistent worker
    /// pool even when a live registry or trace sink forces the
    /// instrumented path: the pool's job hand-off and per-wave spin
    /// barrier would make a one-worker solve slower than an inline one,
    /// while the families it records stay mandatory for serving.
    #[test]
    fn single_thread_instrumented_solve_skips_the_pool() {
        let set = ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]);
        let kernel = BulkMix {
            dims: Dims::new(24, 20),
            set,
        };
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();

        let reg = Arc::new(lddp_trace::live::LiveRegistry::new());
        let engine = ParallelEngine::new(1).with_live(Arc::clone(&reg));
        assert_eq!(engine.solve(&kernel).unwrap().to_row_major(), oracle);
        assert!(
            engine.pool.get().is_none(),
            "1-thread live solve created the worker pool"
        );
        let text = reg.to_prometheus();
        // Whole-solve aggregates still land…
        assert!(text.contains("lddp_pool_waves_total"), "{text}");
        assert!(text.contains("lddp_pool_cells_total"), "{text}");
        assert!(
            text.contains("lddp_pool_worker_busy_seconds_total{worker=\"0\"}"),
            "{text}"
        );
        // …and the barrier family keeps its exposition shape with zero
        // observations (no barrier ran).
        assert!(
            text.contains("lddp_pool_barrier_wait_seconds_count 0"),
            "{text}"
        );

        // Tracing at 1 thread records wave spans without the pool too.
        let rec = LiveRegistry::new();
        let engine = ParallelEngine::new(1);
        let got = grid_of(&engine, &kernel, traced_spec(&rec)).unwrap();
        assert_eq!(got.to_row_major(), oracle);
        assert!(engine.pool.get().is_none());
        assert!(!timeline(&rec).spans.is_empty());
        // A pool that was never created reports as healthy.
        assert_eq!(engine.pool_dead_workers(), 0);
    }

    #[test]
    fn live_registry_counts_injected_faults() {
        let set = ContributingSet::new(&[RepCell::W, RepCell::N]);
        let kernel = mix_kernel(Dims::new(24, 24), set);
        let reg = Arc::new(lddp_trace::live::LiveRegistry::new());
        let engine = ParallelEngine::new(3).with_live(Arc::clone(&reg));
        let inj = TestInjector {
            panic_worker: Some((1, 5)),
            bulk_fail_wave: None,
        };
        let s = engine.run(&kernel, &injected_spec(&inj)).unwrap();
        assert_eq!(s.degraded, vec![DegradeStep::ParallelToSequential]);
        let text = reg.to_prometheus();
        assert!(
            text.contains("lddp_chaos_injected_total{site=\"worker_panic\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn no_faults_injector_changes_nothing() {
        let set = ContributingSet::new(&[RepCell::W, RepCell::N]);
        let kernel = mix_kernel(Dims::new(16, 16), set);
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();
        let engine = ParallelEngine::new(3);
        let s = engine
            .run(&kernel, &injected_spec(&lddp_chaos::NoFaults))
            .unwrap();
        assert_eq!(s.grid.unwrap().to_row_major(), oracle);
        assert!(s.degraded.is_empty());
    }

    /// Score used by rolling arg-best tests (and analogous to the
    /// Smith–Waterman endpoint scan).
    fn cell_score(c: &u64) -> i64 {
        (*c % 100_003) as i64
    }

    #[test]
    fn rolling_matches_full_table_for_all_tiers_and_threads() {
        for (rows, cols) in [
            (1, 1),
            (1, 17),
            (17, 1),
            (2, 2),
            (13, 29),
            (29, 13),
            (31, 31),
        ] {
            let kernel = SimdMix(BulkMix {
                dims: Dims::new(rows, cols),
                set: anti_diag_set(),
            });
            let grid = solve_row_major(&kernel).unwrap();
            let want_corner = grid.get(rows - 1, cols - 1);
            let mut want_best = i64::MIN;
            for i in 0..rows {
                for j in 0..cols {
                    want_best = want_best.max(cell_score(&grid.get(i, j)));
                }
            }
            for threads in [1, 2, 3, 5] {
                for tier in [
                    None,
                    Some(ExecTier::Scalar),
                    Some(ExecTier::Bulk),
                    Some(ExecTier::Simd),
                ] {
                    let engine = ParallelEngine::new(threads).with_tier(tier);
                    let r = engine.solve_rolling(&kernel, Some(cell_score)).unwrap();
                    let label = format!("{rows}x{cols} threads={threads} tier={tier:?}");
                    assert_eq!(r.folded.corner, Some(want_corner), "corner {label}");
                    let (bi, bj, bc) = r.folded.best.expect("best captured");
                    assert_eq!(bc, grid.get(bi, bj), "best cell mismatch {label}");
                    assert_eq!(cell_score(&bc), want_best, "best score {label}");
                    assert_eq!(r.waves, rows + cols - 1, "{label}");
                    assert_eq!(r.peak_bytes, 3 * rows.min(cols) * 8, "{label}");
                }
            }
        }
    }

    #[test]
    fn rolling_stream_emits_ordered_bands_and_matches_plain_rolling() {
        for (rows, cols) in [(1, 1), (2, 2), (13, 29), (31, 31), (40, 9)] {
            let kernel = SimdMix(BulkMix {
                dims: Dims::new(rows, cols),
                set: anti_diag_set(),
            });
            for threads in [1, 2, 4] {
                for bands in [1, 4, 100] {
                    let engine = ParallelEngine::new(threads);
                    let want = engine.solve_rolling(&kernel, Some(cell_score)).unwrap();
                    let events = std::sync::Mutex::new(Vec::new());
                    let hook = StreamHook {
                        bands,
                        score_of: |c: &u64| *c as f64,
                        emit: &|ev| {
                            events.lock().unwrap().push(ev);
                            true
                        },
                    };
                    let spec = SolveSpec {
                        stream: Some(&hook),
                        ..SolveSpec::rolling(Fold::Max(cell_score))
                    };
                    let got = engine.run(&kernel, &spec).unwrap();
                    let label = format!("{rows}x{cols} threads={threads} bands={bands}");
                    assert_eq!(got.folded.corner, want.folded.corner, "{label}");
                    assert_eq!(got.folded.best, want.folded.best, "{label}");
                    let events = events.into_inner().unwrap();
                    let waves = rows + cols - 1;
                    assert!(!events.is_empty(), "{label}");
                    assert!(events.len() <= bands.min(waves), "{label}");
                    let mut cells = 0u64;
                    for (k, ev) in events.iter().enumerate() {
                        assert_eq!(ev.band, k, "band order {label}");
                        assert_eq!(ev.bands, events.len(), "schedule size {label}");
                        assert!(ev.cells_done > cells, "cells monotone {label}");
                        cells = ev.cells_done;
                        assert!(ev.rows_completed <= rows, "{label}");
                    }
                    let last = events.last().unwrap();
                    assert_eq!(last.cells_done, (rows * cols) as u64, "{label}");
                    assert_eq!(last.cells_total, (rows * cols) as u64, "{label}");
                    assert_eq!(last.rows_completed, rows, "{label}");
                    assert_eq!(last.wave_hi, waves - 1, "{label}");
                }
            }
        }
    }

    #[test]
    fn rolling_stream_halts_emission_when_hook_declines() {
        let kernel = SimdMix(BulkMix {
            dims: Dims::new(24, 24),
            set: anti_diag_set(),
        });
        let engine = ParallelEngine::new(3);
        let want = engine.solve_rolling(&kernel, Some(cell_score)).unwrap();
        let seen = std::sync::atomic::AtomicUsize::new(0);
        let hook = StreamHook {
            bands: 8,
            score_of: |c: &u64| *c as f64,
            emit: &|_| seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst) < 2,
        };
        // The solve still finishes exactly even after the consumer bails.
        let spec = SolveSpec {
            stream: Some(&hook),
            ..SolveSpec::rolling(Fold::Max(cell_score))
        };
        let got = engine.run(&kernel, &spec).unwrap();
        assert_eq!(got.folded.corner, want.folded.corner);
        assert_eq!(got.folded.best, want.folded.best);
        assert_eq!(seen.load(std::sync::atomic::Ordering::SeqCst), 3);
    }

    #[test]
    fn rolling_rejects_non_antidiagonal_sets() {
        let kernel = mix_kernel(Dims::new(8, 8), ContributingSet::new(&[RepCell::W]));
        let engine = ParallelEngine::new(2);
        assert!(matches!(
            engine.solve_rolling(&kernel, None),
            Err(Error::PlanMismatch { .. })
        ));
    }

    #[test]
    fn rolling_degrades_under_injection_and_stays_exact() {
        let kernel = SimdMix(BulkMix {
            dims: Dims::new(25, 21),
            set: anti_diag_set(),
        });
        let grid = solve_row_major(&kernel).unwrap();
        let want = grid.get(24, 20);

        // A bulk-path fault degrades to the scalar tier.
        let engine = ParallelEngine::new(3);
        let inj = TestInjector {
            panic_worker: None,
            bulk_fail_wave: Some(3),
        };
        let spec = SolveSpec {
            injector: Some(&inj),
            ..SolveSpec::rolling(Fold::Max(cell_score))
        };
        let r = engine.run(&kernel, &spec).unwrap();
        assert_eq!(r.folded.corner, Some(want));
        assert!(r.folded.best.is_some());
        assert_eq!(r.degraded, vec![DegradeStep::BulkToScalar]);

        // Persistent worker panics fall back to the sequential walk.
        struct AlwaysPanic;
        impl lddp_chaos::FaultInjector for AlwaysPanic {
            fn active(&self) -> bool {
                true
            }
            fn worker_panic(&self, _worker: usize, wave: usize) -> bool {
                wave == 0
            }
        }
        let spec = SolveSpec {
            injector: Some(&AlwaysPanic),
            ..SolveSpec::rolling(Fold::Corner)
        };
        let r = engine.run(&kernel, &spec).unwrap();
        assert_eq!(r.folded.corner, Some(want));
        assert_eq!(
            r.degraded,
            vec![DegradeStep::BulkToScalar, DegradeStep::ParallelToSequential]
        );
        // The ladder leaves the engine healthy.
        assert_eq!(engine.pool_dead_workers(), 0);
        assert_eq!(
            engine.solve_rolling(&kernel, None).unwrap().folded.corner,
            Some(want)
        );
    }

    #[test]
    fn single_worker_solves_never_start_the_pool() {
        let kernel = BulkMix {
            dims: Dims::new(24, 20),
            set: anti_diag_set(),
        };
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();
        // threads = 1 engine: grid and rolling solves both stay inline.
        let engine = ParallelEngine::new(1);
        assert_eq!(engine.solve(&kernel).unwrap().to_row_major(), oracle);
        engine.solve_rolling(&kernel, None).unwrap();
        assert!(!engine.pool_started(), "1-worker plan spun up the pool");
        // A wider engine clamped to one active worker also stays inline…
        let wide = ParallelEngine::new(4);
        grid_of(&wide, &kernel, threads_spec(1)).unwrap();
        assert!(!wide.pool_started(), "active=1 plan spun up the pool");
        // …and only a genuinely multi-worker plan pays for the pool.
        wide.solve(&kernel).unwrap();
        assert!(wide.pool_started());
    }

    #[test]
    fn live_registry_records_table_bytes_by_memory_mode() {
        let kernel = BulkMix {
            dims: Dims::new(40, 30),
            set: anti_diag_set(),
        };
        let reg = Arc::new(lddp_trace::live::LiveRegistry::new());
        let engine = ParallelEngine::new(2).with_live(Arc::clone(&reg));
        engine.solve(&kernel).unwrap();
        engine.solve_rolling(&kernel, None).unwrap();
        let text = reg.to_prometheus();
        let series = lddp_trace::live::parse_prometheus(&text);
        let get = |name: &str| {
            series
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("missing series {name} in:\n{text}"))
        };
        let full = get("lddp_engine_table_bytes{memory_mode=\"full\"}");
        let rolling_bytes = get("lddp_engine_table_bytes{memory_mode=\"rolling\"}");
        assert_eq!(full, (40 * 30 * 8) as f64);
        assert_eq!(rolling_bytes, (3 * 30 * 8) as f64);
        assert!(rolling_bytes < full);
    }
}
