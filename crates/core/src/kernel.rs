//! The user-facing kernel abstraction.
//!
//! §V-C of the paper: to use the framework a user provides (1) the
//! function `f` defining how `cell(i,j)` is computed from its
//! representative cells plus any per-problem resources, and (2) the
//! initialization of the table. Everything else — classification, layout,
//! scheduling, CPU/GPU division and data transfer — is the framework's
//! job.

use crate::cell::{ContributingSet, RepCell};
use crate::wavefront::Dims;
use std::fmt;

/// How the engine retires the cells of one solve — the execution tier.
///
/// Tiers form a ladder of increasingly specialized inner loops over the
/// same wavefront schedule. Every tier is required to produce results
/// bit-identical to [`Kernel::compute`] applied cell by cell; the only
/// difference is throughput.
///
/// | tier          | inner loop                                         |
/// |---------------|----------------------------------------------------|
/// | `Scalar`      | per-cell [`Kernel::compute`] with `Option` checks  |
/// | `Bulk`        | slice-based [`WaveKernel::compute_run`] over runs  |
/// | `Simd`        | [`SimdWaveKernel::compute_run_simd`] lane chunks   |
/// | `BitParallel` | word-parallel whole-problem algorithm (no grid)    |
///
/// `BitParallel` is special: it computes the *answer* without
/// materializing the DP table, so the grid-producing engine never
/// selects it — answer-level callers (the CLI, the serving backend) do,
/// for problems that provide one (LCS).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ExecTier {
    /// Per-cell scalar execution through [`Kernel::compute`].
    Scalar,
    /// Slice-based bulk runs through [`WaveKernel::compute_run`].
    Bulk,
    /// Runtime-dispatched vector lanes through
    /// [`SimdWaveKernel::compute_run_simd`].
    Simd,
    /// Word-parallel answer-only algorithm (bit-parallel LCS).
    BitParallel,
}

impl ExecTier {
    /// Every tier, slowest first.
    pub const ALL: [ExecTier; 4] = [
        ExecTier::Scalar,
        ExecTier::Bulk,
        ExecTier::Simd,
        ExecTier::BitParallel,
    ];

    /// Stable lowercase name (trace args, JSON, `LDDP_FORCE_TIER`).
    pub fn as_str(&self) -> &'static str {
        match self {
            ExecTier::Scalar => "scalar",
            ExecTier::Bulk => "bulk",
            ExecTier::Simd => "simd",
            ExecTier::BitParallel => "bitparallel",
        }
    }

    /// Parses [`ExecTier::as_str`] output (case-insensitive).
    pub fn parse(s: &str) -> Option<ExecTier> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Some(ExecTier::Scalar),
            "bulk" => Some(ExecTier::Bulk),
            "simd" => Some(ExecTier::Simd),
            "bitparallel" | "bit-parallel" => Some(ExecTier::BitParallel),
            _ => None,
        }
    }
}

impl fmt::Display for ExecTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How a solve materializes the DP table — the memory axis orthogonal
/// to [`ExecTier`].
///
/// | mode      | working set                | output                     |
/// |-----------|----------------------------|----------------------------|
/// | `Full`    | the whole `O(n·m)` table   | every cell (traceback-ready)|
/// | `Rolling` | the last `k` waves, `O(n+m)` | folds / captured bands |
///
/// `Rolling` is score-only at the engine level; tracebacks in rolling
/// mode go through the Hirschberg-style divide and conquer built on top
/// of it (`lddp-problems::hirschberg`). Served solves roll unless a
/// request pins `Full`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemoryMode {
    /// Materialize the full table (traceback available from the grid).
    #[default]
    Full,
    /// Keep only the last `k` waves; answers come from folds over the
    /// sealed waves (see `rolling`).
    Rolling,
}

impl MemoryMode {
    /// Every mode, largest working set first.
    pub const ALL: [MemoryMode; 2] = [MemoryMode::Full, MemoryMode::Rolling];

    /// Stable lowercase name (trace args, JSON, tuner cache).
    pub fn as_str(&self) -> &'static str {
        match self {
            MemoryMode::Full => "full",
            MemoryMode::Rolling => "rolling",
        }
    }

    /// Parses [`MemoryMode::as_str`] output (case-insensitive).
    pub fn parse(s: &str) -> Option<MemoryMode> {
        match s.to_ascii_lowercase().as_str() {
            "full" => Some(MemoryMode::Full),
            "rolling" => Some(MemoryMode::Rolling),
            _ => None,
        }
    }
}

impl fmt::Display for MemoryMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// True when the host has a vector unit the SIMD tier can dispatch to
/// (AVX2 on x86_64, NEON on aarch64). Checked at runtime, once per call
/// site — the binary stays portable across feature levels.
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(target_arch = "aarch64")]
    {
        true
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        false
    }
}

/// True when the host additionally exposes the AVX-512 foundation
/// subset (`avx512f`). Detection groundwork only: no kernel body
/// dispatches to 512-bit vectors yet, so [`simd_backend`] still names
/// the tier that actually runs (`avx2`) — but the server's `/healthz`
/// surfaces this bit so deployments can see the vector headroom an
/// AVX-512 tier would unlock.
pub fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Name of the vector backend [`simd_available`] would dispatch to:
/// `"avx2"`, `"neon"`, or `"scalar"` when no vector unit is usable.
/// AVX-512 hosts still report `"avx2"` here (that is what executes);
/// see [`avx512_available`] for the wider-unit probe.
pub fn simd_backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            "avx2"
        } else {
            "scalar"
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        "neon"
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        "scalar"
    }
}

/// The values of the four representative cells visible to `f` when
/// computing `cell(i, j)`.
///
/// A direction is `None` when the neighbour falls outside the table *or*
/// is not in the kernel's declared contributing set: the framework only
/// materializes (and only transfers between devices) the cells a kernel
/// declared it reads, so an undeclared read is surfaced as `None` rather
/// than silently returning stale data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbors<T> {
    /// `cell(i, j-1)`.
    pub w: Option<T>,
    /// `cell(i-1, j-1)`.
    pub nw: Option<T>,
    /// `cell(i-1, j)`.
    pub n: Option<T>,
    /// `cell(i-1, j+1)`.
    pub ne: Option<T>,
}

impl<T> Neighbors<T> {
    /// Neighbourhood with no visible cells (used at table corners).
    pub const fn empty() -> Self {
        Neighbors {
            w: None,
            nw: None,
            n: None,
            ne: None,
        }
    }

    /// The value in the given direction.
    pub fn get(&self, cell: RepCell) -> Option<&T> {
        match cell {
            RepCell::W => self.w.as_ref(),
            RepCell::Nw => self.nw.as_ref(),
            RepCell::N => self.n.as_ref(),
            RepCell::Ne => self.ne.as_ref(),
        }
    }

    /// Sets the value in the given direction.
    pub fn set(&mut self, cell: RepCell, value: T) {
        match cell {
            RepCell::W => self.w = Some(value),
            RepCell::Nw => self.nw = Some(value),
            RepCell::N => self.n = Some(value),
            RepCell::Ne => self.ne = Some(value),
        }
    }

    /// Number of visible neighbours.
    pub fn len(&self) -> usize {
        self.w.is_some() as usize
            + self.nw.is_some() as usize
            + self.n.is_some() as usize
            + self.ne.is_some() as usize
    }

    /// True when no neighbour is visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Default for Neighbors<T> {
    fn default() -> Self {
        Neighbors::empty()
    }
}

/// An LDDP-Plus problem instance: the function `f`, the declared
/// contributing set, and the table dimensions.
///
/// The cell type must be `Copy` — LDDP tables are dense arrays of small
/// plain values (costs, distances, error terms) and the framework moves
/// them between simulated devices by value.
pub trait Kernel: Sync {
    /// The table's cell type.
    type Cell: Copy + Send + Sync + PartialEq + fmt::Debug + Default;

    /// Table dimensions.
    fn dims(&self) -> Dims;

    /// The representative cells `f` reads — a row of Table I. Must be
    /// non-empty and must not change between calls.
    fn contributing_set(&self) -> ContributingSet;

    /// Computes the value of `cell(i, j)` from its visible neighbours.
    ///
    /// Called exactly once per cell, in an order where every declared
    /// in-bounds neighbour has already been computed (and is `Some`).
    /// Boundary and base-case logic lives here: when a declared neighbour
    /// is out of bounds, its entry is `None` and `f` must supply the base
    /// case (e.g. the `max(i,j) if min(i,j)=0` row of the Levenshtein
    /// recurrence).
    fn compute(&self, i: usize, j: usize, nbrs: &Neighbors<Self::Cell>) -> Self::Cell;

    /// Relative computational weight of one `f` evaluation, in abstract
    /// "operations" used by the device cost models. Defaults to 16 —
    /// roughly a handful of compares, adds and memory touches.
    fn cost_ops(&self) -> u32 {
        16
    }

    /// Human-readable problem name for traces and reports.
    fn name(&self) -> &str {
        "lddp-kernel"
    }

    /// The kernel's bulk execution path, if it has one.
    ///
    /// Returning `Some(self)` opts the kernel into
    /// [`WaveKernel::compute_run`] for the *interior* runs of each wave
    /// (every declared neighbour in bounds); boundary cells always go
    /// through [`Kernel::compute`]. The default (`None`) keeps the
    /// scalar path for every existing kernel.
    fn wave_kernel(&self) -> Option<&dyn WaveKernel<Cell = Self::Cell>> {
        None
    }

    /// The kernel's vectorized execution path, if it has one.
    ///
    /// Returning `Some(self)` opts the kernel into
    /// [`SimdWaveKernel::compute_run_simd`] for interior runs when the
    /// engine selects [`ExecTier::Simd`]. A kernel that opts in must
    /// also implement [`WaveKernel`] — the SIMD tier is a refinement of
    /// the bulk contract, and lane remainders fall back to it. The
    /// default (`None`) keeps existing kernels on the scalar/bulk
    /// ladder.
    fn simd_kernel(&self) -> Option<&dyn SimdWaveKernel<Cell = Self::Cell>> {
        None
    }
}

/// Bulk form of a [`Kernel`]: computes a contiguous interior run of one
/// wave in a single call, with the declared neighbours presented as
/// plain slices — no per-cell `Option` checks, no boundary branches, so
/// the loop body is a straight-line candidate for autovectorization.
///
/// A run is `out.len()` consecutive cells of one wave, in the pattern's
/// canonical within-wave order, starting at `(i, j0)`. The pattern is
/// the kernel's own classification (`classify(contributing_set())`),
/// which fixes how cell `p` of the run steps from the start:
///
/// | pattern       | cell `p`            |
/// |---------------|---------------------|
/// | Anti-diagonal | `(i - p, j0 + p)`   |
/// | Horizontal    | `(i, j0 + p)`       |
/// | Vertical      | `(i + p, j0)`       |
/// | Knight-move   | `(i - p, j0 + 2p)`  |
/// | Inverted-L    | column arm `(i + p, j0)`, row arm `(i, j0 + p)` |
/// | mInverted-L   | column arm `(i + p, j0)`, row arm `(i, j0 - p)` |
///
/// (An Inverted-L run never mixes arms — the engine splits at the
/// corner.) For each direction in the contributing set, the matching
/// slice holds the neighbour of cell `p` at index `p`; directions
/// outside the set are passed as empty slices. Every cell of the run is
/// interior: all declared neighbours exist, so implementations skip the
/// base-case logic entirely. Results must be bit-identical to calling
/// [`Kernel::compute`] cell by cell.
pub trait WaveKernel: Kernel {
    /// Computes the run of cells starting at `(i, j0)` into `out`.
    // One fixed slice per representative direction beats a packed
    // `&[&[T]; 4]` here: implementations index all four by `p` in the
    // hot loop, and separate parameters keep them borrow-checkable.
    #[allow(clippy::too_many_arguments)]
    fn compute_run(
        &self,
        i: usize,
        j0: usize,
        out: &mut [Self::Cell],
        w: &[Self::Cell],
        nw: &[Self::Cell],
        n: &[Self::Cell],
        ne: &[Self::Cell],
    );
}

/// Vectorized form of a [`WaveKernel`]: the same run contract as
/// [`WaveKernel::compute_run`] — same stepping table, same slice
/// layout, same bit-identity requirement — but the implementation
/// processes `lanes()`-wide chunks of the run in vector registers,
/// peeling the sub-lane tail back to scalar code.
///
/// Implementations own their runtime dispatch: `compute_run_simd`
/// checks the host feature set (`is_x86_feature_detected!("avx2")` on
/// x86_64, compile-time NEON on aarch64) and falls back to
/// [`WaveKernel::compute_run`] when no vector unit is usable, so
/// callers may invoke it unconditionally on any host.
pub trait SimdWaveKernel: WaveKernel {
    /// Lane width (cells per vector step) the host backend processes.
    /// Purely advisory — the engine rounds chunk boundaries to
    /// multiples of it so workers hand the vector body aligned
    /// sub-runs; any value is correct.
    fn lanes(&self) -> usize;

    /// Computes the run of cells starting at `(i, j0)` into `out`,
    /// vector lanes first, scalar tail last. Bit-identical to
    /// [`WaveKernel::compute_run`] (and therefore to per-cell
    /// [`Kernel::compute`]).
    #[allow(clippy::too_many_arguments)]
    fn compute_run_simd(
        &self,
        i: usize,
        j0: usize,
        out: &mut [Self::Cell],
        w: &[Self::Cell],
        nw: &[Self::Cell],
        n: &[Self::Cell],
        ne: &[Self::Cell],
    );
}

/// The bulk body a tier resolves to: the scalar-bulk [`WaveKernel`]
/// path or the vectorized [`SimdWaveKernel`] path. Both consume the
/// same interior-run slices, so executors dispatch with one match
/// instead of re-deriving tier logic per run.
pub enum RunBody<'a, T> {
    /// [`WaveKernel::compute_run`].
    Wave(&'a dyn WaveKernel<Cell = T>),
    /// [`SimdWaveKernel::compute_run_simd`].
    Simd(&'a dyn SimdWaveKernel<Cell = T>),
}

impl<T> Clone for RunBody<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for RunBody<'_, T> {}

impl<'a, T: Copy + Send + Sync + PartialEq + fmt::Debug + Default> RunBody<'a, T> {
    /// The tier `kernel` runs at under `cap` — the fastest its hooks and
    /// the host support, lowered to `cap` and past any rung the kernel
    /// lacks — and that tier's body (`None` at the scalar tier). A
    /// `BitParallel` cap caps nothing: bit-parallel execution is an
    /// answer-level path callers route themselves.
    pub fn resolve<K: Kernel<Cell = T> + ?Sized>(
        kernel: &'a K,
        cap: Option<ExecTier>,
    ) -> (ExecTier, Option<Self>) {
        let wave = kernel.wave_kernel();
        let simd = kernel.simd_kernel().filter(|_| simd_available());
        let auto = if simd.is_some() {
            ExecTier::Simd
        } else if wave.is_some() {
            ExecTier::Bulk
        } else {
            ExecTier::Scalar
        };
        let tier = cap
            .filter(|t| *t != ExecTier::BitParallel)
            .map_or(auto, |t| t.min(auto));
        // A kernel may expose a SIMD hook without a scalar-bulk one;
        // downgrade past any missing rung rather than mis-reporting.
        match tier {
            ExecTier::Simd if simd.is_some() => (ExecTier::Simd, simd.map(RunBody::Simd)),
            ExecTier::Simd | ExecTier::Bulk if wave.is_some() => {
                (ExecTier::Bulk, wave.map(RunBody::Wave))
            }
            _ => (ExecTier::Scalar, None),
        }
    }

    /// The lane width run boundaries should align to (1 for the scalar
    /// bulk path).
    pub fn lanes(&self) -> usize {
        match self {
            RunBody::Wave(_) => 1,
            RunBody::Simd(k) => k.lanes().max(1),
        }
    }

    /// Computes one interior run, as [`WaveKernel::compute_run`].
    #[allow(clippy::too_many_arguments)]
    pub fn compute_run(
        &self,
        i: usize,
        j0: usize,
        out: &mut [T],
        w: &[T],
        nw: &[T],
        n: &[T],
        ne: &[T],
    ) {
        match self {
            RunBody::Wave(k) => k.compute_run(i, j0, out, w, nw, n, ne),
            RunBody::Simd(k) => k.compute_run_simd(i, j0, out, w, nw, n, ne),
        }
    }
}

impl<K: Kernel + ?Sized> Kernel for &K {
    type Cell = K::Cell;

    fn dims(&self) -> Dims {
        (**self).dims()
    }

    fn contributing_set(&self) -> ContributingSet {
        (**self).contributing_set()
    }

    fn compute(&self, i: usize, j: usize, nbrs: &Neighbors<Self::Cell>) -> Self::Cell {
        (**self).compute(i, j, nbrs)
    }

    fn cost_ops(&self) -> u32 {
        (**self).cost_ops()
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn wave_kernel(&self) -> Option<&dyn WaveKernel<Cell = Self::Cell>> {
        (**self).wave_kernel()
    }

    fn simd_kernel(&self) -> Option<&dyn SimdWaveKernel<Cell = Self::Cell>> {
        (**self).simd_kernel()
    }
}

/// A [`Kernel`] built from a closure — the quickest way to hand the
/// framework a new problem.
///
/// ```
/// use lddp_core::kernel::{ClosureKernel, Neighbors};
/// use lddp_core::cell::{ContributingSet, RepCell};
/// use lddp_core::wavefront::Dims;
///
/// // f(i,j) = min(nw, n) + 1, the Fig 9 benchmark kernel.
/// let k = ClosureKernel::new(
///     Dims::new(64, 64),
///     ContributingSet::new(&[RepCell::Nw, RepCell::N]),
///     |_i, _j, nbrs: &Neighbors<u32>| {
///         match (nbrs.nw, nbrs.n) {
///             (Some(a), Some(b)) => a.min(b) + 1,
///             (Some(a), None) => a + 1,
///             (None, Some(b)) => b + 1,
///             (None, None) => 0,
///         }
///     },
/// );
/// # let _ = k;
/// ```
pub struct ClosureKernel<T, F> {
    dims: Dims,
    set: ContributingSet,
    f: F,
    cost_ops: u32,
    name: String,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T, F> ClosureKernel<T, F>
where
    T: Copy + Send + Sync + PartialEq + fmt::Debug + Default,
    F: Fn(usize, usize, &Neighbors<T>) -> T + Sync,
{
    /// Wraps `f` with the given dimensions and contributing set.
    pub fn new(dims: Dims, set: ContributingSet, f: F) -> Self {
        ClosureKernel {
            dims,
            set,
            f,
            cost_ops: 16,
            name: "closure-kernel".to_string(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Overrides the abstract per-cell cost used by the device models.
    #[must_use]
    pub fn with_cost_ops(mut self, ops: u32) -> Self {
        self.cost_ops = ops;
        self
    }

    /// Names the kernel for traces and reports.
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

impl<T, F> Kernel for ClosureKernel<T, F>
where
    T: Copy + Send + Sync + PartialEq + fmt::Debug + Default,
    F: Fn(usize, usize, &Neighbors<T>) -> T + Sync,
{
    type Cell = T;

    fn dims(&self) -> Dims {
        self.dims
    }

    fn contributing_set(&self) -> ContributingSet {
        self.set
    }

    fn compute(&self, i: usize, j: usize, nbrs: &Neighbors<T>) -> T {
        (self.f)(i, j, nbrs)
    }

    fn cost_ops(&self) -> u32 {
        self.cost_ops
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::RepCell::{Nw, N};

    #[test]
    fn neighbors_get_set() {
        let mut n: Neighbors<u32> = Neighbors::empty();
        assert!(n.is_empty());
        n.set(RepCell::W, 1);
        n.set(RepCell::Ne, 4);
        assert_eq!(n.get(RepCell::W), Some(&1));
        assert_eq!(n.get(RepCell::Nw), None);
        assert_eq!(n.get(RepCell::Ne), Some(&4));
        assert_eq!(n.len(), 2);
        assert!(!n.is_empty());
    }

    #[test]
    fn neighbors_default_is_empty() {
        let n: Neighbors<i64> = Neighbors::default();
        assert!(n.is_empty());
        for c in RepCell::ALL {
            assert_eq!(n.get(c), None);
        }
    }

    #[test]
    fn simd_probes_are_consistent() {
        // The backend name and the availability bit must agree, and the
        // AVX-512 probe is groundwork: it never changes what executes.
        let backend = simd_backend();
        assert_eq!(simd_available(), backend != "scalar");
        if avx512_available() {
            // avx512f implies the 256-bit subset the SIMD tier uses.
            assert_eq!(backend, "avx2");
        }
        assert!(["avx2", "neon", "scalar"].contains(&backend));
    }

    #[test]
    fn closure_kernel_carries_metadata() {
        let k = ClosureKernel::new(
            Dims::new(8, 9),
            ContributingSet::new(&[Nw, N]),
            |_i, _j, _n: &Neighbors<u32>| 0u32,
        )
        .with_cost_ops(42)
        .with_name("demo");
        assert_eq!(k.dims(), Dims::new(8, 9));
        assert_eq!(k.contributing_set(), ContributingSet::new(&[Nw, N]));
        assert_eq!(k.cost_ops(), 42);
        assert_eq!(k.name(), "demo");
    }

    #[test]
    fn closure_kernel_computes() {
        let k = ClosureKernel::new(
            Dims::new(2, 2),
            ContributingSet::new(&[N]),
            |i, j, n: &Neighbors<u32>| n.n.unwrap_or(0) + (i + j) as u32,
        );
        let mut nbrs = Neighbors::empty();
        assert_eq!(k.compute(0, 0, &nbrs), 0);
        nbrs.set(RepCell::N, 10);
        assert_eq!(k.compute(1, 1, &nbrs), 12);
    }

    #[test]
    fn wave_kernel_hook_defaults_to_none_and_forwards() {
        let k = ClosureKernel::new(
            Dims::new(2, 2),
            ContributingSet::new(&[N]),
            |_, _, _: &Neighbors<u8>| 0u8,
        );
        assert!(k.wave_kernel().is_none());
        let kr = &k;
        assert!(
            Kernel::wave_kernel(&kr).is_none(),
            "reference blanket forwards"
        );
    }

    #[test]
    fn wave_kernel_is_object_safe_and_reachable_through_the_hook() {
        struct Ramp;
        impl Kernel for Ramp {
            type Cell = u32;
            fn dims(&self) -> Dims {
                Dims::new(3, 3)
            }
            fn contributing_set(&self) -> ContributingSet {
                ContributingSet::new(&[RepCell::W, Nw, N])
            }
            fn compute(&self, i: usize, j: usize, _nbrs: &Neighbors<u32>) -> u32 {
                (i + j) as u32
            }
            fn wave_kernel(&self) -> Option<&dyn WaveKernel<Cell = u32>> {
                Some(self)
            }
        }
        impl WaveKernel for Ramp {
            fn compute_run(
                &self,
                i: usize,
                j0: usize,
                out: &mut [u32],
                _w: &[u32],
                _nw: &[u32],
                _n: &[u32],
                _ne: &[u32],
            ) {
                // Anti-diagonal stepping: cell p is (i - p, j0 + p).
                for (p, slot) in out.iter_mut().enumerate() {
                    *slot = ((i - p) + (j0 + p)) as u32;
                }
            }
        }
        let k = Ramp;
        let wk = k.wave_kernel().expect("opted in");
        let mut out = [0u32; 2];
        wk.compute_run(2, 1, &mut out, &[], &[], &[], &[]);
        assert_eq!(out, [3, 3]);
        let kr = &k;
        assert!(Kernel::wave_kernel(&kr).is_some());
    }

    #[test]
    fn exec_tier_names_round_trip() {
        for tier in ExecTier::ALL {
            assert_eq!(ExecTier::parse(tier.as_str()), Some(tier));
            assert_eq!(format!("{tier}"), tier.as_str());
        }
        assert_eq!(ExecTier::parse("SIMD"), Some(ExecTier::Simd));
        assert_eq!(ExecTier::parse("bit-parallel"), Some(ExecTier::BitParallel));
        assert_eq!(ExecTier::parse("turbo"), None);
    }

    #[test]
    fn simd_backend_matches_availability() {
        // Whatever the host, the two probes must agree.
        assert_eq!(simd_available(), simd_backend() != "scalar");
    }

    #[test]
    fn simd_kernel_hook_defaults_to_none_and_forwards() {
        let k = ClosureKernel::new(
            Dims::new(2, 2),
            ContributingSet::new(&[N]),
            |_, _, _: &Neighbors<u8>| 0u8,
        );
        assert!(k.simd_kernel().is_none());
        let kr = &k;
        assert!(
            Kernel::simd_kernel(&kr).is_none(),
            "reference blanket forwards"
        );
    }

    #[test]
    fn simd_kernel_is_object_safe_and_reachable_through_the_hook() {
        struct Ramp;
        impl Kernel for Ramp {
            type Cell = u32;
            fn dims(&self) -> Dims {
                Dims::new(3, 3)
            }
            fn contributing_set(&self) -> ContributingSet {
                ContributingSet::new(&[RepCell::W, Nw, N])
            }
            fn compute(&self, i: usize, j: usize, _nbrs: &Neighbors<u32>) -> u32 {
                (i + j) as u32
            }
            fn wave_kernel(&self) -> Option<&dyn WaveKernel<Cell = u32>> {
                Some(self)
            }
            fn simd_kernel(&self) -> Option<&dyn SimdWaveKernel<Cell = u32>> {
                Some(self)
            }
        }
        impl WaveKernel for Ramp {
            fn compute_run(
                &self,
                i: usize,
                j0: usize,
                out: &mut [u32],
                _w: &[u32],
                _nw: &[u32],
                _n: &[u32],
                _ne: &[u32],
            ) {
                for (p, slot) in out.iter_mut().enumerate() {
                    *slot = ((i - p) + (j0 + p)) as u32;
                }
            }
        }
        impl SimdWaveKernel for Ramp {
            fn lanes(&self) -> usize {
                4
            }
            fn compute_run_simd(
                &self,
                i: usize,
                j0: usize,
                out: &mut [u32],
                w: &[u32],
                nw: &[u32],
                n: &[u32],
                ne: &[u32],
            ) {
                self.compute_run(i, j0, out, w, nw, n, ne);
            }
        }
        let k = Ramp;
        let sk = k.simd_kernel().expect("opted in");
        assert_eq!(sk.lanes(), 4);
        let mut out = [0u32; 2];
        sk.compute_run_simd(2, 1, &mut out, &[], &[], &[], &[]);
        assert_eq!(out, [3, 3]);
        let kr = &k;
        assert!(Kernel::simd_kernel(&kr).is_some());
    }

    #[test]
    fn default_cost_ops() {
        let k = ClosureKernel::new(
            Dims::new(1, 1),
            ContributingSet::new(&[N]),
            |_, _, _: &Neighbors<u8>| 0u8,
        );
        assert_eq!(k.cost_ops(), 16);
        assert_eq!(k.name(), "closure-kernel");
    }
}
