//! Heterogeneous execution schedules — §III and Table II of the paper.
//!
//! A [`Plan`] carves the wavefronts of a pattern into *phases* and, within
//! shared phases, divides each wave between the CPU and the GPU:
//!
//! - **Anti-diagonal** (3 phases): the first `t_switch` waves are CPU-only
//!   (low work), the middle waves are shared, the last `t_switch` waves
//!   are CPU-only again.
//! - **Horizontal** (1 phase): every wave is shared; parallelism is
//!   constant so there is no low-work region.
//! - **Inverted-L** (2 phases): shared first, CPU-only for the last
//!   `t_switch` shrinking shells.
//! - **Knight-move** (3 phases): like anti-diagonal.
//!
//! Within a shared wave the CPU takes the *first `t_share` column
//! positions* — a contiguous band along the table's left edge (the blue
//! regions of Figs 3–6). With the canonical increasing-`j` within-wave
//! order this band is a prefix of every wave, which yields exactly the
//! transfer obligations of Table II: dependencies pointing left (`W`,
//! `NW`) cross the boundary CPU→GPU, dependencies pointing right (`NE`)
//! cross GPU→CPU, and `N` never crosses.

use crate::cell::{ContributingSet, RepCell};
use crate::error::{Error, Result};
use crate::pattern::{Pattern, ProfileShape};
use crate::wavefront::{self, Dims};
use std::ops::Range;

/// Which processor computes a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Device {
    /// The multicore host.
    Cpu,
    /// The many-core accelerator.
    Gpu,
}

impl Device {
    /// The other device.
    pub fn other(self) -> Device {
        match self {
            Device::Cpu => Device::Gpu,
            Device::Gpu => Device::Cpu,
        }
    }
}

/// Direction of a host↔device copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CopyDir {
    /// Host to device (CPU → GPU).
    ToGpu,
    /// Device to host (GPU → CPU).
    ToCpu,
}

/// Per-iteration data-transfer requirement of a pattern/contributing-set
/// combination — the paper's Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferNeed {
    /// No boundary cells cross between devices (horizontal with `{N}`).
    None,
    /// Boundary cells cross in one direction only; the copy can be
    /// pipelined behind compute with asynchronous streams (§IV-C case 1).
    OneWay(CopyDir),
    /// Boundary cells cross both ways every iteration; the copies sit on
    /// the critical path and use pinned memory (§IV-C case 2).
    TwoWay,
}

impl TransferNeed {
    /// Collapses to the paper's Table II column ("1 way" / "2 way").
    pub fn ways(self) -> usize {
        match self {
            TransferNeed::None => 0,
            TransferNeed::OneWay(_) => 1,
            TransferNeed::TwoWay => 2,
        }
    }
}

/// Computes the Table II entry for a pattern and contributing set.
///
/// Accepts the two non-canonical patterns by reducing them (transpose /
/// mirror) first. For the canonical patterns the rule falls out of the
/// column-band partition: `W`/`NW` members push boundary values CPU→GPU,
/// `NE` members push GPU→CPU.
pub fn transfer_need(pattern: Pattern, set: ContributingSet) -> Result<TransferNeed> {
    if set.is_empty() {
        return Err(Error::EmptyContributingSet);
    }
    if !compatible(pattern, set) {
        return Err(Error::InvalidSchedule {
            pattern,
            reason: format!("contributing set {set} is incompatible with this pattern"),
        });
    }
    let (pattern, set) = match pattern {
        Pattern::Vertical => (
            Pattern::Horizontal,
            set.transposed().expect("vertical sets never contain NE"),
        ),
        Pattern::MirroredInvertedL => (
            Pattern::InvertedL,
            set.mirrored().expect("mirrored-L sets never contain W"),
        ),
        p => (p, set),
    };
    let leftward = set.contains(RepCell::W) || set.contains(RepCell::Nw);
    let rightward = set.contains(RepCell::Ne);
    Ok(match pattern {
        // Anti-diagonal sets ⊆ {W, NW, N} and always contain W.
        Pattern::AntiDiagonal => TransferNeed::OneWay(CopyDir::ToGpu),
        // Knight-move sets always contain both W and NE.
        Pattern::KnightMove => TransferNeed::TwoWay,
        // Inverted-L is {NW} only.
        Pattern::InvertedL => TransferNeed::OneWay(CopyDir::ToGpu),
        Pattern::Horizontal => match (leftward, rightward) {
            (true, true) => TransferNeed::TwoWay,
            (true, false) => TransferNeed::OneWay(CopyDir::ToGpu),
            (false, true) => TransferNeed::OneWay(CopyDir::ToCpu),
            (false, false) => TransferNeed::None,
        },
        Pattern::Vertical | Pattern::MirroredInvertedL => unreachable!("reduced above"),
    })
}

/// Whether `set` may legally be executed under `pattern`: every member
/// must land in a strictly earlier wave.
///
/// Each pattern admits:
/// - anti-diagonal: `⊆ {W, NW, N}`;
/// - horizontal: `⊆ {NW, N, NE}`;
/// - inverted-L: `⊆ {NW}`; mirrored inverted-L: `⊆ {NE}`;
/// - vertical: `⊆ {W, NW}`; knight-move: any subset.
pub fn compatible(pattern: Pattern, set: ContributingSet) -> bool {
    let allowed = match pattern {
        Pattern::AntiDiagonal => ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]),
        Pattern::Horizontal => ContributingSet::new(&[RepCell::Nw, RepCell::N, RepCell::Ne]),
        Pattern::InvertedL => ContributingSet::new(&[RepCell::Nw]),
        Pattern::MirroredInvertedL => ContributingSet::new(&[RepCell::Ne]),
        Pattern::Vertical => ContributingSet::new(&[RepCell::W, RepCell::Nw]),
        Pattern::KnightMove => ContributingSet::FULL,
    };
    set.iter().all(|c| allowed.contains(c))
}

/// Wave-index gap between a cell and its `dep` neighbour under
/// `pattern`: the neighbour lives on wave `w - wave_delta` of a cell on
/// wave `w`.
pub fn wave_delta(pattern: Pattern, dep: RepCell) -> usize {
    let (di, dj) = dep.offset();
    match pattern {
        Pattern::AntiDiagonal => (-(di + dj)) as usize,
        Pattern::Horizontal => (-di) as usize,
        Pattern::Vertical => (-dj) as usize,
        Pattern::KnightMove => (-(2 * di + dj)) as usize,
        // L-shells advance by exactly one per diagonal step.
        Pattern::InvertedL | Pattern::MirroredInvertedL => 1,
    }
}

/// Largest wave-index gap between a cell and any member of `set` under
/// `pattern` — how far back the dependency frontier reaches.
pub fn max_wave_delta(pattern: Pattern, set: ContributingSet) -> usize {
    set.iter()
        .map(|c| wave_delta(pattern, c))
        .max()
        .unwrap_or(0)
}

/// Counts the cells of one horizontal-pattern wave whose dependencies
/// cross the device boundary under a *striped* (block-cyclic) column
/// partition with stripe width `stripe` — the obvious alternative to the
/// paper's contiguous band that load-balances better but transfers
/// catastrophically more.
///
/// A column `j` belongs to the CPU iff `(j / stripe)` is even. Every
/// stripe edge makes the adjacent columns exchange `NW`/`NE` values, so
/// the per-wave boundary traffic is `Θ(cols / stripe)` cells versus the
/// band partition's `O(1)`.
pub fn striped_crossings_per_wave(set: ContributingSet, cols: usize, stripe: usize) -> usize {
    assert!(stripe > 0, "stripe width must be positive");
    let nw = set.contains(RepCell::Nw);
    let ne = set.contains(RepCell::Ne);
    let owner = |j: usize| (j / stripe) % 2;
    let mut crossings = 0;
    for j in 0..cols {
        // Dependencies of a row-i cell at column j on row i-1.
        if nw && j > 0 && owner(j - 1) != owner(j) {
            crossings += 1;
        }
        if ne && j + 1 < cols && owner(j + 1) != owner(j) {
            crossings += 1;
        }
    }
    crossings
}

/// The tunable workload-division parameters of §III / §V-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScheduleParams {
    /// Number of low-parallelism waves at each ramp the CPU runs alone.
    pub t_switch: usize,
    /// Width (in columns) of the band each shared wave gives the CPU.
    pub t_share: usize,
}

impl ScheduleParams {
    /// Convenience constructor.
    pub const fn new(t_switch: usize, t_share: usize) -> Self {
        ScheduleParams { t_switch, t_share }
    }

    /// The nearest parameters legal for `pattern` on a `dims` table:
    /// `t_switch` capped at [`max_t_switch`], `t_share` at the column
    /// count. Lets parameters tuned on one instance (say, a cached
    /// tuner result keyed by a dims *bucket*) be applied safely to a
    /// nearby instance of different exact size.
    pub fn clamped_for(self, pattern: Pattern, dims: Dims) -> ScheduleParams {
        ScheduleParams::new(
            self.t_switch.min(max_t_switch(pattern, dims)),
            self.t_share.min(dims.cols),
        )
    }
}

/// Largest `t_switch` [`Plan::new`] accepts for `pattern` on a `dims`
/// table: half the waves for ramp-up-down profiles (both ramps), all of
/// them for decreasing profiles, zero for constant ones.
pub fn max_t_switch(pattern: Pattern, dims: Dims) -> usize {
    let num_waves = pattern.num_waves(dims.rows, dims.cols);
    match pattern.profile_shape() {
        ProfileShape::RampUpDown => num_waves / 2,
        ProfileShape::Decreasing => num_waves,
        ProfileShape::Constant => 0,
    }
}

/// Kind of a schedule phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// The CPU processes every cell of the wave (low-work region).
    CpuOnly,
    /// The wave is split between CPU (left band) and GPU (rest).
    Shared,
}

/// A contiguous run of waves with the same [`PhaseKind`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Phase kind.
    pub kind: PhaseKind,
    /// Wave indices covered.
    pub waves: Range<usize>,
}

/// Cells crossing the device boundary before a wave may be computed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WaveTransfers {
    /// CPU-computed cells the GPU must receive.
    pub to_gpu: Vec<(usize, usize)>,
    /// GPU-computed cells the CPU must receive.
    pub to_cpu: Vec<(usize, usize)>,
}

impl WaveTransfers {
    /// True when nothing crosses.
    pub fn is_empty(&self) -> bool {
        self.to_gpu.is_empty() && self.to_cpu.is_empty()
    }

    /// Total cells moved.
    pub fn len(&self) -> usize {
        self.to_gpu.len() + self.to_cpu.len()
    }
}

/// Work split of one wave: position ranges within the wave's canonical
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaveAssignment {
    /// Wave index.
    pub wave: usize,
    /// Phase this wave belongs to.
    pub phase: PhaseKind,
    /// Positions computed by the CPU (always a prefix).
    pub cpu: Range<usize>,
    /// Positions computed by the GPU (always a suffix).
    pub gpu: Range<usize>,
}

impl WaveAssignment {
    /// Number of CPU cells.
    pub fn cpu_len(&self) -> usize {
        self.cpu.len()
    }

    /// Number of GPU cells.
    pub fn gpu_len(&self) -> usize {
        self.gpu.len()
    }
}

/// Aggregate statistics of a plan, from walking every wave.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanAudit {
    /// Total cells computed by the CPU.
    pub cpu_cells: usize,
    /// Total cells computed by the GPU.
    pub gpu_cells: usize,
    /// Total cells copied CPU→GPU.
    pub cells_to_gpu: usize,
    /// Total cells copied GPU→CPU.
    pub cells_to_cpu: usize,
    /// Largest single-wave transfer (either direction).
    pub max_wave_transfer: usize,
    /// Number of waves with a non-empty transfer.
    pub waves_with_transfers: usize,
}

/// Common interface of two-device wave schedules — implemented by the
/// static [`Plan`] and by the per-wave-variable
/// [`VariablePlan`](crate::adaptive::VariablePlan). Executors are
/// generic over this, so static tuning and dynamic balancing share one
/// execution path.
pub trait WaveSchedule {
    /// The canonical execution pattern.
    fn pattern(&self) -> Pattern;
    /// The contributing set scheduled for.
    fn set(&self) -> ContributingSet;
    /// Table dimensions.
    fn dims(&self) -> Dims;
    /// Total number of waves.
    fn num_waves(&self) -> usize;
    /// Phase kind of wave `w`.
    fn phase_of(&self, w: usize) -> PhaseKind;
    /// Work split of wave `w`.
    fn assignment(&self, w: usize) -> WaveAssignment;
    /// Boundary transfers due before wave `w`.
    fn transfers(&self, w: usize) -> WaveTransfers;
    /// The Table II transfer requirement of the schedule.
    fn transfer_need(&self) -> TransferNeed;
}

/// Number of cells of wave `w` with column `< t_share` — the CPU band
/// length of a shared wave, in O(1).
pub fn band_len(pattern: Pattern, dims: Dims, w: usize, ts: usize) -> usize {
    let len = pattern.wave_len(dims.rows, dims.cols, w);
    if ts == 0 || len == 0 {
        return 0;
    }
    let Dims { rows, cols } = dims;
    match pattern {
        Pattern::Horizontal => ts.min(cols),
        Pattern::AntiDiagonal => {
            let jlo = w.saturating_sub(rows - 1);
            let jhi = w.min(cols - 1);
            if ts <= jlo {
                0
            } else {
                (ts - 1).min(jhi) - jlo + 1
            }
        }
        Pattern::KnightMove => {
            // Columns present: jlo, jlo+2, …, jhi (fixed parity).
            let bound = w.saturating_sub(2 * (rows - 1));
            let jlo = if bound % 2 == w % 2 { bound } else { bound + 1 };
            let jhi = w.min(cols - 1);
            let jhi = if jhi % 2 == w % 2 { jhi } else { jhi - 1 };
            if ts <= jlo {
                0
            } else {
                ((ts - 1).min(jhi) - jlo) / 2 + 1
            }
        }
        Pattern::InvertedL => {
            let k = w;
            if ts <= k {
                0
            } else {
                // Column arm (all at j = k) plus row-arm cells with
                // j < t_share.
                (rows - k) + ts.min(cols).saturating_sub(k + 1)
            }
        }
        _ => unreachable!("schedules only hold canonical patterns"),
    }
}

/// A complete heterogeneous execution schedule for one problem instance.
#[derive(Debug, Clone)]
pub struct Plan {
    pattern: Pattern,
    set: ContributingSet,
    dims: Dims,
    params: ScheduleParams,
    transfer: TransferNeed,
    num_waves: usize,
}

impl Plan {
    /// Builds and validates a plan.
    ///
    /// ```
    /// use lddp_core::schedule::{Plan, ScheduleParams, TransferNeed};
    /// use lddp_core::cell::{ContributingSet, RepCell};
    /// use lddp_core::pattern::Pattern;
    /// use lddp_core::wavefront::Dims;
    ///
    /// // Levenshtein-style dependencies on a 64×64 table: 3-phase
    /// // anti-diagonal schedule with an 8-wave CPU ramp and a 16-column
    /// // CPU band.
    /// let set = ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]);
    /// let plan = Plan::new(
    ///     Pattern::AntiDiagonal,
    ///     set,
    ///     Dims::new(64, 64),
    ///     ScheduleParams::new(8, 16),
    /// )
    /// .unwrap();
    /// assert_eq!(plan.num_waves(), 127);
    /// assert_eq!(plan.phases().len(), 3);
    /// assert_eq!(plan.transfer_need().ways(), 1); // Table II
    /// ```
    ///
    /// `pattern` must be one of the four canonical execution patterns
    /// (reduce Vertical / mirrored-Inverted-L problems with the framework
    /// adapters first), `set` must be compatible with it, `t_share` must
    /// not exceed the column count, and `t_switch` must leave at least
    /// zero shared waves (`2·t_switch ≤ waves` for ramp patterns,
    /// `t_switch ≤ waves` for inverted-L, `t_switch = 0` for horizontal).
    pub fn new(
        pattern: Pattern,
        set: ContributingSet,
        dims: Dims,
        params: ScheduleParams,
    ) -> Result<Plan> {
        if set.is_empty() {
            return Err(Error::EmptyContributingSet);
        }
        if !pattern.is_canonical() {
            return Err(Error::InvalidSchedule {
                pattern,
                reason: "not a canonical execution pattern; apply a symmetry adapter".into(),
            });
        }
        if !compatible(pattern, set) {
            return Err(Error::InvalidSchedule {
                pattern,
                reason: format!("contributing set {set} is incompatible with this pattern"),
            });
        }
        let num_waves = pattern.num_waves(dims.rows, dims.cols);
        match pattern.profile_shape() {
            ProfileShape::RampUpDown => {
                if 2 * params.t_switch > num_waves {
                    return Err(Error::InvalidSchedule {
                        pattern,
                        reason: format!(
                            "2·t_switch = {} exceeds the {} waves available",
                            2 * params.t_switch,
                            num_waves
                        ),
                    });
                }
            }
            ProfileShape::Decreasing => {
                if params.t_switch > num_waves {
                    return Err(Error::InvalidSchedule {
                        pattern,
                        reason: format!(
                            "t_switch = {} exceeds the {} waves available",
                            params.t_switch, num_waves
                        ),
                    });
                }
            }
            ProfileShape::Constant => {
                if params.t_switch != 0 {
                    return Err(Error::InvalidSchedule {
                        pattern,
                        reason: "the horizontal pattern has no low-work region; t_switch must be 0"
                            .into(),
                    });
                }
            }
        }
        if params.t_share > dims.cols {
            return Err(Error::InvalidSchedule {
                pattern,
                reason: format!(
                    "t_share = {} exceeds the {} columns available",
                    params.t_share, dims.cols
                ),
            });
        }
        let transfer = transfer_need(pattern, set)?;
        Ok(Plan {
            pattern,
            set,
            dims,
            params,
            transfer,
            num_waves,
        })
    }

    /// The canonical execution pattern.
    pub fn pattern(&self) -> Pattern {
        self.pattern
    }

    /// The contributing set the plan was built for.
    pub fn set(&self) -> ContributingSet {
        self.set
    }

    /// Table dimensions.
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// Tunable parameters.
    pub fn params(&self) -> ScheduleParams {
        self.params
    }

    /// The Table II transfer requirement.
    pub fn transfer_need(&self) -> TransferNeed {
        self.transfer
    }

    /// Total number of waves.
    pub fn num_waves(&self) -> usize {
        self.num_waves
    }

    /// The phase structure (Figs 3–6): contiguous spans of waves.
    pub fn phases(&self) -> Vec<PhaseSpan> {
        let t = self.params.t_switch;
        let n = self.num_waves;
        let mut spans = Vec::new();
        let mut push = |kind, waves: Range<usize>| {
            if !Range::is_empty(&waves) {
                spans.push(PhaseSpan { kind, waves });
            }
        };
        match self.pattern.profile_shape() {
            ProfileShape::RampUpDown => {
                push(PhaseKind::CpuOnly, 0..t);
                push(PhaseKind::Shared, t..n - t);
                push(PhaseKind::CpuOnly, n - t..n);
            }
            ProfileShape::Constant => push(PhaseKind::Shared, 0..n),
            ProfileShape::Decreasing => {
                push(PhaseKind::Shared, 0..n - t);
                push(PhaseKind::CpuOnly, n - t..n);
            }
        }
        spans
    }

    /// Phase kind of wave `w`.
    pub fn phase_of(&self, w: usize) -> PhaseKind {
        debug_assert!(w < self.num_waves);
        let t = self.params.t_switch;
        match self.pattern.profile_shape() {
            ProfileShape::RampUpDown => {
                if w < t || w >= self.num_waves - t {
                    PhaseKind::CpuOnly
                } else {
                    PhaseKind::Shared
                }
            }
            ProfileShape::Constant => PhaseKind::Shared,
            ProfileShape::Decreasing => {
                if w >= self.num_waves - t {
                    PhaseKind::CpuOnly
                } else {
                    PhaseKind::Shared
                }
            }
        }
    }

    /// Number of cells of wave `w` owned by the CPU: the whole wave in
    /// CPU-only phases, the cells with column `< t_share` otherwise.
    pub fn cpu_len(&self, w: usize) -> usize {
        if self.phase_of(w) == PhaseKind::CpuOnly {
            return self.pattern.wave_len(self.dims.rows, self.dims.cols, w);
        }
        band_len(self.pattern, self.dims, w, self.params.t_share)
    }

    /// The split of wave `w` as position ranges.
    pub fn assignment(&self, w: usize) -> WaveAssignment {
        let len = self.pattern.wave_len(self.dims.rows, self.dims.cols, w);
        let cpu = self.cpu_len(w);
        WaveAssignment {
            wave: w,
            phase: self.phase_of(w),
            cpu: 0..cpu,
            gpu: cpu..len,
        }
    }

    /// Iterates over all wave assignments.
    pub fn assignments(&self) -> impl Iterator<Item = WaveAssignment> + '_ {
        (0..self.num_waves).map(|w| self.assignment(w))
    }

    /// Device that computes cell `(i, j)`.
    pub fn owner(&self, i: usize, j: usize) -> Device {
        let w = wavefront::wave_of(self.pattern, self.dims, i, j);
        if self.phase_of(w) == PhaseKind::CpuOnly || j < self.params.t_share {
            // In shared waves the CPU band is exactly the columns left of
            // t_share (prefix positions under the canonical order).
            Device::Cpu
        } else {
            Device::Gpu
        }
    }

    /// The cells that must cross the device boundary before wave `w` can
    /// be computed: every dependency of a wave-`w` cell owned by the other
    /// device. Exact, deduplicated, in canonical order.
    pub fn transfers(&self, w: usize) -> WaveTransfers {
        let mut out = WaveTransfers::default();
        let assign = self.assignment(w);
        let delta = max_wave_delta(self.pattern, self.set);
        // Waves deep inside a phase only see imports at the band boundary;
        // waves whose dependency frontier reaches into a different phase
        // need a full scan (the bulk hand-off of Figs 3/5/6).
        let near_phase_edge =
            (w.saturating_sub(delta)..w).any(|p| self.phase_of(p) != assign.phase);

        if near_phase_edge {
            // Bulk hand-off: any cell of either side may import; scan the
            // whole wave. Phase-edge waves are O(t_switch-region) few.
            for pos in assign.cpu.clone() {
                let (i, j) = wavefront::cell_at(self.pattern, self.dims, w, pos);
                self.push_foreign_deps(i, j, Device::Cpu, &mut out);
            }
            for pos in assign.gpu.clone() {
                let (i, j) = wavefront::cell_at(self.pattern, self.dims, w, pos);
                self.push_foreign_deps(i, j, Device::Gpu, &mut out);
            }
        } else if assign.phase == PhaseKind::Shared {
            // Steady state: only cells hugging the column boundary can
            // import, because every dependency sits one column away at
            // most and ownership is decided by column. Under the
            // canonical order positions are non-decreasing in column, so
            // the candidates are a suffix of the CPU band (j ≥
            // t_share - 2) and a prefix of the GPU range (j ≤
            // t_share + 1) — O(1) cells per wave.
            for pos in assign.cpu.clone().rev() {
                let (i, j) = wavefront::cell_at(self.pattern, self.dims, w, pos);
                if j + 2 < self.params.t_share {
                    break;
                }
                self.push_foreign_deps(i, j, Device::Cpu, &mut out);
            }
            for pos in assign.gpu.clone() {
                let (i, j) = wavefront::cell_at(self.pattern, self.dims, w, pos);
                if j > self.params.t_share + 1 {
                    break;
                }
                self.push_foreign_deps(i, j, Device::Gpu, &mut out);
            }
        }
        // Steady CPU-only waves (deep inside a low-work phase) see only
        // CPU-owned dependencies: nothing to scan.
        out.to_gpu.sort_unstable();
        out.to_gpu.dedup();
        out.to_cpu.sort_unstable();
        out.to_cpu.dedup();
        out
    }

    /// Adds the dependencies of `(i, j)` owned by the other device to the
    /// matching transfer list.
    fn push_foreign_deps(&self, i: usize, j: usize, reader: Device, out: &mut WaveTransfers) {
        for dep in self.set.iter() {
            if let Some((si, sj)) = dep.source(i, j, self.dims.rows, self.dims.cols) {
                if self.owner(si, sj) != reader {
                    match reader {
                        Device::Cpu => out.to_cpu.push((si, sj)),
                        Device::Gpu => out.to_gpu.push((si, sj)),
                    }
                }
            }
        }
    }

    /// Walks every wave and tallies work and traffic.
    pub fn audit(&self) -> PlanAudit {
        let mut a = PlanAudit::default();
        for w in 0..self.num_waves {
            let assign = self.assignment(w);
            a.cpu_cells += assign.cpu_len();
            a.gpu_cells += assign.gpu_len();
            let t = self.transfers(w);
            a.cells_to_gpu += t.to_gpu.len();
            a.cells_to_cpu += t.to_cpu.len();
            a.max_wave_transfer = a.max_wave_transfer.max(t.len());
            if !t.is_empty() {
                a.waves_with_transfers += 1;
            }
        }
        a
    }
}

impl WaveSchedule for Plan {
    fn pattern(&self) -> Pattern {
        Plan::pattern(self)
    }

    fn set(&self) -> ContributingSet {
        Plan::set(self)
    }

    fn dims(&self) -> Dims {
        Plan::dims(self)
    }

    fn num_waves(&self) -> usize {
        Plan::num_waves(self)
    }

    fn phase_of(&self, w: usize) -> PhaseKind {
        Plan::phase_of(self, w)
    }

    fn assignment(&self, w: usize) -> WaveAssignment {
        Plan::assignment(self, w)
    }

    fn transfers(&self, w: usize) -> WaveTransfers {
        Plan::transfers(self, w)
    }

    fn transfer_need(&self) -> TransferNeed {
        Plan::transfer_need(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::RepCell::{Ne, Nw, N, W};
    use crate::pattern::classify;

    fn set(cells: &[RepCell]) -> ContributingSet {
        ContributingSet::new(cells)
    }

    fn plan(
        pattern: Pattern,
        s: &[RepCell],
        dims: (usize, usize),
        t_switch: usize,
        t_share: usize,
    ) -> Plan {
        Plan::new(
            pattern,
            set(s),
            Dims::new(dims.0, dims.1),
            ScheduleParams::new(t_switch, t_share),
        )
        .unwrap()
    }

    // ---- Table II -------------------------------------------------------

    /// Pins Table II of the paper.
    #[test]
    fn table_two_matches_paper() {
        // Anti-diagonal: 1 way.
        assert_eq!(
            transfer_need(Pattern::AntiDiagonal, set(&[W, Nw, N]))
                .unwrap()
                .ways(),
            1
        );
        assert_eq!(
            transfer_need(Pattern::AntiDiagonal, set(&[W, N]))
                .unwrap()
                .ways(),
            1
        );
        // Horizontal case 1: 1 way (or none for {N} alone).
        assert_eq!(
            transfer_need(Pattern::Horizontal, set(&[Nw, N])).unwrap(),
            TransferNeed::OneWay(CopyDir::ToGpu)
        );
        assert_eq!(
            transfer_need(Pattern::Horizontal, set(&[N, Ne])).unwrap(),
            TransferNeed::OneWay(CopyDir::ToCpu)
        );
        assert_eq!(
            transfer_need(Pattern::Horizontal, set(&[N])).unwrap(),
            TransferNeed::None
        );
        // Horizontal case 2: 2 way.
        assert_eq!(
            transfer_need(Pattern::Horizontal, set(&[Nw, N, Ne])).unwrap(),
            TransferNeed::TwoWay
        );
        assert_eq!(
            transfer_need(Pattern::Horizontal, set(&[Nw, Ne])).unwrap(),
            TransferNeed::TwoWay
        );
        // Inverted-L: 1 way.
        assert_eq!(
            transfer_need(Pattern::InvertedL, set(&[Nw])).unwrap(),
            TransferNeed::OneWay(CopyDir::ToGpu)
        );
        // Knight-move: 2 way, for every admissible classified set.
        for s in ContributingSet::table_one_rows() {
            if classify(s) == Some(Pattern::KnightMove) {
                assert_eq!(
                    transfer_need(Pattern::KnightMove, s).unwrap(),
                    TransferNeed::TwoWay
                );
            }
        }
    }

    /// Derives Table II from geometry: for every Table I row, collect the
    /// directions actually used by exact per-wave transfers and compare
    /// with the static classification.
    #[test]
    fn table_two_is_consistent_with_geometry() {
        for s in ContributingSet::table_one_rows() {
            let pattern = classify(s).unwrap();
            if !pattern.is_canonical() {
                continue; // adapters handle the symmetric two
            }
            let t_switch = if pattern.profile_shape() == ProfileShape::Constant {
                0
            } else {
                3
            };
            let p = Plan::new(
                pattern,
                s,
                Dims::new(12, 12),
                ScheduleParams::new(t_switch, 4),
            )
            .unwrap();
            let mut used_to_gpu = false;
            let mut used_to_cpu = false;
            for span in p.phases() {
                if span.kind != PhaseKind::Shared {
                    continue;
                }
                // Skip the bulk hand-off waves at phase edges: Table II
                // describes the steady-state per-iteration need.
                let delta = max_wave_delta(pattern, s);
                for w in span.waves.clone() {
                    if w < span.waves.start + delta {
                        continue;
                    }
                    let t = p.transfers(w);
                    used_to_gpu |= !t.to_gpu.is_empty();
                    used_to_cpu |= !t.to_cpu.is_empty();
                }
            }
            let expected = transfer_need(pattern, s).unwrap();
            let derived = match (used_to_gpu, used_to_cpu) {
                (false, false) => TransferNeed::None,
                (true, false) => TransferNeed::OneWay(CopyDir::ToGpu),
                (false, true) => TransferNeed::OneWay(CopyDir::ToCpu),
                (true, true) => TransferNeed::TwoWay,
            };
            assert_eq!(derived, expected, "{pattern} {s}");
        }
    }

    // ---- validation -----------------------------------------------------

    #[test]
    fn rejects_empty_set() {
        assert!(matches!(
            Plan::new(
                Pattern::Horizontal,
                ContributingSet::EMPTY,
                Dims::new(4, 4),
                ScheduleParams::default()
            ),
            Err(Error::EmptyContributingSet)
        ));
    }

    #[test]
    fn rejects_non_canonical_patterns() {
        for p in [Pattern::Vertical, Pattern::MirroredInvertedL] {
            let s = if p == Pattern::Vertical {
                set(&[W])
            } else {
                set(&[Ne])
            };
            assert!(matches!(
                Plan::new(p, s, Dims::new(4, 4), ScheduleParams::default()),
                Err(Error::InvalidSchedule { .. })
            ));
        }
    }

    #[test]
    fn rejects_incompatible_sets() {
        // NE cannot run under anti-diagonal.
        assert!(Plan::new(
            Pattern::AntiDiagonal,
            set(&[W, N, Ne]),
            Dims::new(4, 4),
            ScheduleParams::default()
        )
        .is_err());
        // W cannot run under horizontal.
        assert!(Plan::new(
            Pattern::Horizontal,
            set(&[W, N]),
            Dims::new(4, 4),
            ScheduleParams::default()
        )
        .is_err());
        // N cannot run under inverted-L.
        assert!(Plan::new(
            Pattern::InvertedL,
            set(&[Nw, N]),
            Dims::new(4, 4),
            ScheduleParams::default()
        )
        .is_err());
    }

    #[test]
    fn rejects_oversized_parameters() {
        // 2*t_switch beyond the wave count.
        assert!(Plan::new(
            Pattern::AntiDiagonal,
            set(&[W, N]),
            Dims::new(4, 4),
            ScheduleParams::new(4, 0)
        )
        .is_err());
        // t_switch on horizontal.
        assert!(Plan::new(
            Pattern::Horizontal,
            set(&[N]),
            Dims::new(4, 4),
            ScheduleParams::new(1, 0)
        )
        .is_err());
        // t_share beyond the columns.
        assert!(Plan::new(
            Pattern::Horizontal,
            set(&[N]),
            Dims::new(4, 4),
            ScheduleParams::new(0, 5)
        )
        .is_err());
    }

    #[test]
    fn knight_move_admits_every_set() {
        for s in ContributingSet::table_one_rows() {
            assert!(compatible(Pattern::KnightMove, s), "{s}");
        }
    }

    // ---- phases ----------------------------------------------------------

    #[test]
    fn anti_diagonal_three_phases() {
        let p = plan(Pattern::AntiDiagonal, &[W, Nw, N], (8, 8), 3, 2);
        assert_eq!(
            p.phases(),
            vec![
                PhaseSpan {
                    kind: PhaseKind::CpuOnly,
                    waves: 0..3
                },
                PhaseSpan {
                    kind: PhaseKind::Shared,
                    waves: 3..12
                },
                PhaseSpan {
                    kind: PhaseKind::CpuOnly,
                    waves: 12..15
                },
            ]
        );
    }

    #[test]
    fn horizontal_single_phase() {
        let p = plan(Pattern::Horizontal, &[Nw, N], (8, 8), 0, 2);
        assert_eq!(
            p.phases(),
            vec![PhaseSpan {
                kind: PhaseKind::Shared,
                waves: 0..8
            }]
        );
    }

    #[test]
    fn inverted_l_two_phases() {
        let p = plan(Pattern::InvertedL, &[Nw], (8, 8), 3, 2);
        assert_eq!(
            p.phases(),
            vec![
                PhaseSpan {
                    kind: PhaseKind::Shared,
                    waves: 0..5
                },
                PhaseSpan {
                    kind: PhaseKind::CpuOnly,
                    waves: 5..8
                },
            ]
        );
    }

    #[test]
    fn knight_move_three_phases() {
        let p = plan(Pattern::KnightMove, &[W, Ne], (6, 6), 4, 2);
        let spans = p.phases();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].kind, PhaseKind::CpuOnly);
        assert_eq!(spans[1].kind, PhaseKind::Shared);
        assert_eq!(spans[2].kind, PhaseKind::CpuOnly);
        assert_eq!(
            spans[0].waves.len() + spans[1].waves.len() + spans[2].waves.len(),
            16
        );
    }

    #[test]
    fn zero_t_switch_means_all_shared() {
        let p = plan(Pattern::AntiDiagonal, &[W, N], (6, 6), 0, 2);
        assert_eq!(p.phases().len(), 1);
        assert_eq!(p.phases()[0].kind, PhaseKind::Shared);
    }

    #[test]
    fn phases_partition_all_waves() {
        for (pattern, s, t_switch) in [
            (Pattern::AntiDiagonal, &[W, Nw, N][..], 2),
            (Pattern::Horizontal, &[Nw, N, Ne][..], 0),
            (Pattern::InvertedL, &[Nw][..], 2),
            (Pattern::KnightMove, &[W, Ne][..], 3),
        ] {
            let p = plan(pattern, s, (7, 9), t_switch, 3);
            let mut covered = 0;
            let mut next = 0;
            for span in p.phases() {
                assert_eq!(span.waves.start, next, "{pattern}: gap in phases");
                covered += span.waves.len();
                next = span.waves.end;
                for w in span.waves.clone() {
                    assert_eq!(p.phase_of(w), span.kind);
                }
            }
            assert_eq!(covered, p.num_waves(), "{pattern}");
        }
    }

    // ---- partition -------------------------------------------------------

    /// CPU + GPU ranges tile every wave; CPU band length matches a brute
    /// force count of cells with column < t_share.
    #[test]
    fn partition_is_exact() {
        for (pattern, s, t_switch) in [
            (Pattern::AntiDiagonal, &[W, Nw, N][..], 2),
            (Pattern::Horizontal, &[Nw, N, Ne][..], 0),
            (Pattern::InvertedL, &[Nw][..], 2),
            (Pattern::KnightMove, &[W, Nw, N, Ne][..], 3),
        ] {
            for (r, c) in [(5, 5), (3, 9), (9, 3), (8, 6)] {
                for t_share in [0, 1, 2, c / 2, c] {
                    let ts = if pattern == Pattern::Horizontal {
                        0
                    } else {
                        t_switch.min(pattern.num_waves(r, c) / 2)
                    };
                    let p = plan(pattern, s, (r, c), ts, t_share);
                    let dims = Dims::new(r, c);
                    for a in p.assignments() {
                        let len = pattern.wave_len(r, c, a.wave);
                        assert_eq!(a.cpu.start, 0);
                        assert_eq!(a.cpu.end, a.gpu.start);
                        assert_eq!(a.gpu.end, len);
                        if a.phase == PhaseKind::Shared {
                            let brute = wavefront::wave_cells(pattern, dims, a.wave)
                                .filter(|&(_, j)| j < t_share)
                                .count();
                            assert_eq!(
                                a.cpu_len(),
                                brute,
                                "{pattern} {r}x{c} t_share={t_share} wave {}",
                                a.wave
                            );
                        } else {
                            assert_eq!(a.cpu_len(), len);
                        }
                    }
                }
            }
        }
    }

    /// `owner` agrees with the assignment ranges everywhere.
    #[test]
    fn owner_matches_assignment() {
        let p = plan(Pattern::KnightMove, &[W, Ne], (6, 8), 3, 3);
        let dims = Dims::new(6, 8);
        for w in 0..p.num_waves() {
            let a = p.assignment(w);
            for (pos, (i, j)) in wavefront::wave_cells(Pattern::KnightMove, dims, w).enumerate() {
                let expect = if a.cpu.contains(&pos) {
                    Device::Cpu
                } else {
                    Device::Gpu
                };
                assert_eq!(p.owner(i, j), expect, "wave {w} pos {pos} ({i},{j})");
            }
        }
    }

    // ---- transfers -------------------------------------------------------

    /// THE correctness property: every dependency of every cell is either
    /// owned by the reader's device or listed in the reader's wave
    /// transfers.
    #[test]
    fn transfers_cover_all_foreign_dependencies() {
        for (pattern, s, t_switch) in [
            (Pattern::AntiDiagonal, &[W, Nw, N][..], 3),
            (Pattern::AntiDiagonal, &[W, N][..], 2),
            (Pattern::Horizontal, &[Nw, N][..], 0),
            (Pattern::Horizontal, &[N, Ne][..], 0),
            (Pattern::Horizontal, &[Nw, Ne][..], 0),
            (Pattern::Horizontal, &[N][..], 0),
            (Pattern::InvertedL, &[Nw][..], 3),
            (Pattern::KnightMove, &[W, Ne][..], 4),
            (Pattern::KnightMove, &[W, Nw, N, Ne][..], 4),
        ] {
            for (r, c) in [(6, 6), (4, 10), (10, 4)] {
                for t_share in [0, 2, c / 2] {
                    let num_waves = pattern.num_waves(r, c);
                    let ts = if pattern == Pattern::Horizontal {
                        0
                    } else {
                        t_switch.min(num_waves / 2)
                    };
                    let p = plan(pattern, s, (r, c), ts, t_share);
                    let dims = Dims::new(r, c);
                    for w in 0..num_waves {
                        let t = p.transfers(w);
                        for (i, j) in wavefront::wave_cells(pattern, dims, w) {
                            let reader = p.owner(i, j);
                            for dep in set(s).iter() {
                                if let Some(src) = dep.source(i, j, r, c) {
                                    if p.owner(src.0, src.1) != reader {
                                        let list = match reader {
                                            Device::Cpu => &t.to_cpu,
                                            Device::Gpu => &t.to_gpu,
                                        };
                                        assert!(
                                            list.contains(&src),
                                            "{pattern} {r}x{c} ts={t_share}: wave {w} cell \
                                             ({i},{j}) missing import {src:?}"
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Transfers never list cells the reader already owns, and never list
    /// cells from the current or later waves.
    #[test]
    fn transfers_are_minimal_and_causal() {
        let p = plan(Pattern::KnightMove, &[W, Nw, N, Ne], (8, 8), 4, 3);
        let dims = Dims::new(8, 8);
        for w in 0..p.num_waves() {
            let t = p.transfers(w);
            for &(i, j) in &t.to_gpu {
                assert_eq!(p.owner(i, j), Device::Cpu);
                assert!(wavefront::wave_of(Pattern::KnightMove, dims, i, j) < w);
            }
            for &(i, j) in &t.to_cpu {
                assert_eq!(p.owner(i, j), Device::Gpu);
                assert!(wavefront::wave_of(Pattern::KnightMove, dims, i, j) < w);
            }
        }
    }

    /// Steady-state shared waves move only O(1) cells (the paper's "only
    /// a few cells" claim justifying pinned-memory transfers).
    #[test]
    fn steady_state_transfers_are_constant_sized() {
        let p = plan(Pattern::AntiDiagonal, &[W, Nw, N], (32, 32), 6, 8);
        let delta = max_wave_delta(Pattern::AntiDiagonal, set(&[W, Nw, N]));
        for w in (6 + delta)..(32 + 32 - 1 - 6) {
            let t = p.transfers(w);
            assert!(t.len() <= 4, "wave {w} moved {} cells", t.len());
        }
        let p = plan(Pattern::Horizontal, &[Nw, N, Ne], (32, 32), 0, 8);
        for w in 1..32 {
            let t = p.transfers(w);
            assert!(
                t.to_gpu.len() <= 2 && t.to_cpu.len() <= 2,
                "wave {w}: {t:?}"
            );
        }
    }

    /// The first shared wave after a CPU-only phase pulls the whole
    /// dependency frontier across (the bulk hand-off).
    #[test]
    fn phase_edges_bulk_transfer() {
        let p = plan(Pattern::AntiDiagonal, &[W, Nw, N], (16, 16), 4, 0);
        // t_share = 0: the GPU owns every shared cell; at wave 4 it must
        // import from the CPU-only ramp.
        let t = p.transfers(4);
        assert!(t.to_gpu.len() > 2, "expected bulk import, got {t:?}");
        // And the first CPU-only wave of phase 3 imports back.
        let last_shared_end = 16 + 16 - 1 - 4;
        let t = p.transfers(last_shared_end);
        assert!(!t.to_cpu.is_empty());
    }

    #[test]
    fn horizontal_n_only_never_transfers() {
        let p = plan(Pattern::Horizontal, &[N], (16, 16), 0, 5);
        for w in 0..16 {
            assert!(p.transfers(w).is_empty(), "wave {w}");
        }
    }

    #[test]
    fn pure_cpu_plan_never_transfers() {
        // t_share = cols: the CPU owns everything; no boundary exists.
        let p = plan(Pattern::Horizontal, &[Nw, N, Ne], (8, 8), 0, 8);
        for w in 0..8 {
            assert!(p.transfers(w).is_empty());
        }
        assert_eq!(p.audit().gpu_cells, 0);
    }

    // ---- audit -----------------------------------------------------------

    #[test]
    fn audit_accounts_every_cell() {
        for (pattern, s, t_switch, t_share) in [
            (Pattern::AntiDiagonal, &[W, Nw, N][..], 3, 2),
            (Pattern::Horizontal, &[Nw, Ne][..], 0, 3),
            (Pattern::InvertedL, &[Nw][..], 2, 3),
            (Pattern::KnightMove, &[W, Ne][..], 4, 2),
        ] {
            let p = plan(pattern, s, (7, 8), t_switch, t_share);
            let a = p.audit();
            assert_eq!(a.cpu_cells + a.gpu_cells, 7 * 8, "{pattern}");
        }
    }

    #[test]
    fn larger_t_share_means_more_cpu_cells() {
        let mut last = 0;
        for t_share in [0, 2, 4, 6, 8] {
            let p = plan(Pattern::Horizontal, &[Nw, N], (8, 8), 0, t_share);
            let a = p.audit();
            assert!(a.cpu_cells >= last);
            last = a.cpu_cells;
        }
        assert_eq!(last, 64);
    }

    #[test]
    fn max_wave_delta_values() {
        assert_eq!(max_wave_delta(Pattern::AntiDiagonal, set(&[W, Nw, N])), 2);
        assert_eq!(max_wave_delta(Pattern::AntiDiagonal, set(&[W, N])), 1);
        assert_eq!(max_wave_delta(Pattern::Horizontal, set(&[Nw, N, Ne])), 1);
        assert_eq!(max_wave_delta(Pattern::KnightMove, set(&[W, Nw, N, Ne])), 3);
        assert_eq!(max_wave_delta(Pattern::KnightMove, set(&[W, Ne])), 1);
        assert_eq!(max_wave_delta(Pattern::InvertedL, set(&[Nw])), 1);
    }

    #[test]
    fn striped_partition_transfers_scale_with_stripe_count() {
        let set = ContributingSet::new(&[Nw, N, Ne]);
        let cols = 1024;
        // Band (one boundary) ~ O(1); stripes of width s → ~2·(cols/s)
        // crossing cells per direction pair.
        let wide = striped_crossings_per_wave(set, cols, 512);
        let narrow = striped_crossings_per_wave(set, cols, 8);
        assert!(narrow > wide * 32, "narrow {narrow} vs wide {wide}");
        // Exact count for one stripe edge: the NW read crosses at the
        // column right of the edge, the NE read at the column left of
        // it — two crossing cells per edge.
        assert_eq!(striped_crossings_per_wave(set, 16, 8), 2);
        // A set reading only N never crosses.
        assert_eq!(
            striped_crossings_per_wave(ContributingSet::new(&[N]), 1024, 8),
            0
        );
    }

    #[test]
    fn device_other() {
        assert_eq!(Device::Cpu.other(), Device::Gpu);
        assert_eq!(Device::Gpu.other(), Device::Cpu);
    }
}
