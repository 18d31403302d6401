//! The wave store: one wave-major table that serves both memory modes
//! of every canonical pattern, and the folds that read answers off it.
//!
//! §IV-B stores "all the cells marked with the same number … together":
//! wave `w` of the execution pattern occupies one contiguous stretch of
//! a backing array, in the pattern's canonical within-wave order. A
//! [`WaveStore`] keeps that table either whole (wave `w` at its
//! wave-major offset) or modulo `k = max_wave_delta(pattern, set) + 1`
//! waves (wave `w` in slot `w mod k` of `k` slots the widest wave's
//! length): the bounded window of previous waves every dependency
//! reaches. The ring holds three waves for `{W, NW, N}`, two for the
//! Horizontal sets and four for Knight-Move `{W, NW, N, NE}`, so every
//! problem solves in `O(rows + cols)` bytes.
//!
//! A wave is one straight segment of cells (two for an inverted-L
//! shell: its column arm and its row arm). The neighbours of a
//! segment's cells in one direction lie on a parallel stretch of an
//! earlier wave, at one constant position shift
//! ([`wavefront`](crate::wavefront)), so a stretch of a wave is computed
//! from one slice per dependency wave:
//!
//! * border cells go through [`Kernel::compute`], each neighbour read
//!   at position `p + shift` of its wave; a neighbour off the table
//!   falls outside its wave, so the slice bound is the table bound;
//! * interior runs (every neighbour on the table) go through the
//!   kernel's [`RunBody`], the dependency runs handed over as plain
//!   slices — the same bulk and SIMD bodies in both memory modes.
//!
//! The full table and the ring run the same code on the same positions,
//! so they agree bit for bit, which the property tests and the engine
//! matrix pin down. On top of the store:
//!
//! * [`solve_waves`] walks the ring on one thread and hands each sealed
//!   wave to a visitor; [`solve_corner`], [`solve_row`] and
//!   [`solve_best`] capture what answer-level callers need;
//! * a [`Fold`] reads a problem's answer off sealed waves as they seal —
//!   the corner, the best score, the last row's minimum, a count — so no
//!   answer needs the whole table;
//! * [`BandSchedule`] cuts a pattern's waves into equal-cell bands for
//!   streaming.
//!
//! A set whose classification is not canonical (the Vertical and
//! mirrored inverted-L rows of Table I) is rejected with
//! [`Error::PlanMismatch`]; the framework runs those through a kernel
//! adapter. The multi-threaded engine in `lddp-parallel` computes its
//! waves through the same store.

use crate::cell::{ContributingSet, RepCell};
use crate::error::{Error, Result};
use crate::grid::{Grid, LayoutKind};
use crate::kernel::{ExecTier, Kernel, MemoryMode, Neighbors, RunBody};
use crate::pattern::{classify, Pattern};
use crate::schedule::{max_wave_delta, wave_delta};
use crate::wavefront::{
    cell_at, dep_shift, position_in_wave, row_positions, wave_of, wave_segments, Dims,
};
use std::ops::Range;

/// What a rolling solve used and touched, for telemetry and tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RollingStats {
    /// Tier the interior runs executed on (never `BitParallel`).
    pub tier: ExecTier,
    /// Number of waves walked (0 for empty tables).
    pub waves: usize,
    /// Peak working-set bytes: the ring's slots. This is the number the
    /// `lddp_engine_table_bytes` gauge reports in rolling mode.
    pub peak_bytes: usize,
}

/// Bytes the full-table engine would allocate for `kernel`'s grid —
/// the other arm of the tuner's memory model.
pub fn full_table_bytes<K: Kernel + ?Sized>(kernel: &K) -> usize {
    kernel.dims().len() * std::mem::size_of::<K::Cell>()
}

/// Bytes the rolling ring will allocate for `kernel`'s grid: `k` slots
/// of the widest wave (0 when the set has no canonical execution).
pub fn rolling_bytes<K: Kernel + ?Sized>(kernel: &K) -> usize {
    let (set, dims) = (kernel.contributing_set(), kernel.dims());
    pattern_of(kernel).map_or(0, |p| {
        WaveStore::new(MemoryMode::Rolling, p, set, dims).len() * std::mem::size_of::<K::Cell>()
    })
}

/// The pattern a one-thread rolling solve executes `kernel` under: its
/// set's classification, which must be canonical.
fn pattern_of<K: Kernel + ?Sized>(kernel: &K) -> Result<Pattern> {
    let set = kernel.contributing_set();
    match classify(set) {
        None => Err(Error::EmptyContributingSet),
        Some(p) if p.is_canonical() => Ok(p),
        Some(p) => Err(Error::PlanMismatch {
            expected: "a canonical pattern (rolling wave-band mode)".into(),
            found: format!("{set} ({p})"),
        }),
    }
}

/// Where a run keeps the waves of its table, and how it computes a
/// stretch of one wave there. Wave `w` lives at [`WaveStore::base`]: its
/// wave-major offset in a full table, slot `w mod k` in a ring.
#[derive(Debug, Clone)]
pub struct WaveStore {
    pattern: Pattern,
    dims: Dims,
    /// The set's directions with the wave distance of their neighbours,
    /// nearest first: `dirs[..n_dirs]`.
    dirs: [(RepCell, usize); 4],
    n_dirs: usize,
    bases: Bases,
}

#[derive(Debug, Clone)]
enum Bases {
    /// The whole table: wave `w` starts at `offsets[w]`.
    Full(Vec<usize>),
    /// `slots` slots of `slot_len` cells: wave `w` in slot `w % slots`.
    Ring { slots: usize, slot_len: usize },
}

impl WaveStore {
    /// The store of a `dims` table executed under `pattern` with
    /// contributing set `set` (which `pattern` must admit), kept whole or
    /// as a ring.
    pub fn new(memory: MemoryMode, pattern: Pattern, set: ContributingSet, dims: Dims) -> Self {
        let mut dirs = [(RepCell::W, 0); 4];
        let mut n_dirs = 0;
        for dep in set.iter() {
            dirs[n_dirs] = (dep, wave_delta(pattern, dep));
            n_dirs += 1;
        }
        dirs[..n_dirs].sort_by_key(|&(_, delta)| delta);
        let Dims { rows, cols } = dims;
        let bases = match memory {
            MemoryMode::Full => Bases::Full(
                std::iter::once(0)
                    .chain((0..pattern.num_waves(rows, cols)).scan(0, |acc, w| {
                        *acc += pattern.wave_len(rows, cols, w);
                        Some(*acc)
                    }))
                    .collect(),
            ),
            MemoryMode::Rolling => Bases::Ring {
                slots: max_wave_delta(pattern, set) + 1,
                slot_len: pattern.widest_wave(rows, cols),
            },
        };
        WaveStore {
            pattern,
            dims,
            dirs,
            n_dirs,
            bases,
        }
    }

    /// Cells of the backing array: the table, or the ring's slots.
    pub fn len(&self) -> usize {
        match &self.bases {
            Bases::Full(_) => self.dims.len(),
            Bases::Ring { slots, slot_len } => slots * slot_len,
        }
    }

    /// True when the backing array holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Waves of the schedule.
    pub fn num_waves(&self) -> usize {
        self.pattern.num_waves(self.dims.rows, self.dims.cols)
    }

    /// Cells on wave `w`.
    #[inline]
    pub fn wave_len(&self, w: usize) -> usize {
        self.pattern.wave_len(self.dims.rows, self.dims.cols, w)
    }

    /// Backing index of wave `w`'s first cell; its cells follow it
    /// contiguously, in canonical order.
    #[inline]
    pub fn base(&self, w: usize) -> usize {
        match &self.bases {
            Bases::Full(offsets) => offsets[w],
            Bases::Ring { slots, slot_len } => ring_slot(w, *slots) * slot_len,
        }
    }

    /// Computes positions `range` of wave `w` into `out` (`out[k]` is
    /// position `range.start + k`). `sealed(r)` lends the cells at
    /// backing range `r`; the store asks only for the whole ranges of
    /// the earlier waves `w` reads, never for `w`'s own. With `body`,
    /// interior cells go through it as runs; every other cell goes
    /// through [`Kernel::compute`]. `body` must walk the pattern's
    /// waves: it is the kernel's, and the pattern the kernel's own.
    pub fn compute<'c, K: Kernel + ?Sized>(
        &self,
        kernel: &K,
        body: Option<RunBody<'_, K::Cell>>,
        w: usize,
        range: Range<usize>,
        out: &mut [K::Cell],
        sealed: impl Fn(Range<usize>) -> &'c [K::Cell],
    ) where
        K::Cell: 'c,
    {
        debug_assert_eq!(out.len(), range.len());
        // One dispatch per stretch: each arm inlines the wave geometry
        // with its pattern a constant.
        macro_rules! each_pattern {
            ($($p:ident),*) => {
                match self.pattern {
                    $(Pattern::$p => {
                        self.compute_as(Pattern::$p, kernel, body, w, range, out, sealed)
                    })*
                }
            };
        }
        each_pattern!(
            AntiDiagonal,
            Horizontal,
            InvertedL,
            KnightMove,
            Vertical,
            MirroredInvertedL
        )
    }

    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn compute_as<'c, K: Kernel + ?Sized>(
        &self,
        pattern: Pattern,
        kernel: &K,
        body: Option<RunBody<'_, K::Cell>>,
        w: usize,
        range: Range<usize>,
        out: &mut [K::Cell],
        sealed: impl Fn(Range<usize>) -> &'c [K::Cell],
    ) where
        K::Cell: 'c,
    {
        let Dims { rows, cols } = self.dims;
        let dirs = &self.dirs[..self.n_dirs];
        // Each direction's dependency wave, whole, fetched once per wave
        // distance. A ring's slots are found from wave `w`'s own: a
        // dependency `delta` waves back sits `delta` slots back.
        let slot = match self.bases {
            Bases::Ring { slots, .. } => ring_slot(w, slots),
            Bases::Full(_) => 0,
        };
        let mut deps: [&[K::Cell]; 4] = [&[]; 4];
        let mut fetched: (usize, &[K::Cell]) = (0, &[]);
        for &(dep, delta) in dirs.iter().filter(|&&(_, delta)| delta <= w) {
            if fetched.0 != delta {
                let base = match &self.bases {
                    Bases::Full(offsets) => offsets[w - delta],
                    Bases::Ring { slots, slot_len } => {
                        let back = if slot >= delta { slot } else { slot + slots };
                        (back - delta) * slot_len
                    }
                };
                fetched = (
                    delta,
                    sealed(base..base + pattern.wave_len(rows, cols, w - delta)),
                );
            }
            deps[dep as usize] = fetched.1;
        }
        let segs = wave_segments(pattern, self.dims, w);
        for seg in [segs[0], segs[1]] {
            let Some(seg) = seg else { continue };
            let (lo, hi) = (range.start.max(seg.pos0), range.end.min(seg.pos0 + seg.len));
            if lo >= hi {
                continue;
            }
            // The interior: positions whose every neighbour index falls
            // inside its dependency wave.
            let mut shift = [0isize; 4];
            let (mut in_lo, mut in_hi) = (lo as isize, hi as isize);
            for &(dep, delta) in dirs {
                let d = dep as usize;
                if delta <= w {
                    shift[d] = dep_shift(pattern, self.dims, w - delta, &seg, dep);
                }
                in_lo = in_lo.max(-shift[d]);
                in_hi = in_hi.min(deps[d].len() as isize - shift[d]);
            }
            let cell_of = |p: usize| {
                let q = (p - seg.pos0) as i64;
                (
                    (seg.i0 + seg.di * q) as usize,
                    (seg.j0 + seg.dj * q) as usize,
                )
            };
            let (in_lo, in_hi) = match body {
                Some(_) if in_lo < in_hi => (in_lo as usize, in_hi as usize),
                _ => (hi, hi),
            };
            for p in (lo..in_lo).chain(in_hi..hi) {
                let at = |d: usize| deps[d].get(p.wrapping_add_signed(shift[d])).copied();
                let nb = Neighbors {
                    w: at(0),
                    nw: at(1),
                    n: at(2),
                    ne: at(3),
                };
                let (i, j) = cell_of(p);
                out[p - range.start] = kernel.compute(i, j, &nb);
            }
            if let Some(body) = body.filter(|_| in_lo < in_hi) {
                // Directions outside the set have empty waves, so their
                // runs come out empty.
                let run = |d: usize| {
                    let start = in_lo.wrapping_add_signed(shift[d]);
                    deps[d]
                        .get(start..start + in_hi - in_lo)
                        .unwrap_or_default()
                };
                let (i, j) = cell_of(in_lo);
                let out = &mut out[in_lo - range.start..in_hi - range.start];
                body.compute_run(i, j, out, run(0), run(1), run(2), run(3));
            }
        }
    }
}

/// The ring slot of wave `w`: `w mod slots`. Rings hold 2 to 4 slots,
/// and constant divisors keep it a multiply or a mask, not a division.
#[inline]
fn ring_slot(w: usize, slots: usize) -> usize {
    match slots {
        2 => w % 2,
        3 => w % 3,
        4 => w % 4,
        s => w % s,
    }
}

/// Walks `kernel`'s wave schedule over the ring on one thread, calling
/// `visit(w, cells)` once per sealed wave; `cells[p]` is the cell at
/// canonical position `p` of wave `w` under the set's classification
/// ([`crate::wavefront::cell_at`]).
///
/// `requested` pins the execution tier as in the full-table engine
/// (downgrading past unavailable rungs); `None` auto-selects.
pub fn solve_waves<K, F>(
    kernel: &K,
    requested: Option<ExecTier>,
    mut visit: F,
) -> Result<RollingStats>
where
    K: Kernel + ?Sized,
    F: FnMut(usize, &[K::Cell]),
{
    let pattern = pattern_of(kernel)?;
    let (tier, body) = RunBody::resolve(kernel, requested);
    let store = WaveStore::new(
        MemoryMode::Rolling,
        pattern,
        kernel.contributing_set(),
        kernel.dims(),
    );
    let mut ring = vec![K::Cell::default(); store.len()];
    for w in 0..store.num_waves() {
        let (base, len) = (store.base(w), store.wave_len(w));
        // Every dependency wave sits in another slot than wave `w`.
        let (before, rest) = ring.split_at_mut(base);
        let (out, after) = rest.split_at_mut(len);
        let sealed = |r: Range<usize>| -> &[K::Cell] {
            if r.end <= base {
                &before[r]
            } else {
                &after[r.start - base - len..r.end - base - len]
            }
        };
        store.compute(kernel, body, w, 0..len, out, sealed);
        visit(w, out);
    }
    Ok(RollingStats {
        tier,
        waves: store.num_waves(),
        peak_bytes: store.len() * std::mem::size_of::<K::Cell>(),
    })
}

/// Solves in rolling mode and folds the sealed waves with `fold`.
pub fn solve_fold<K: Kernel + ?Sized>(
    kernel: &K,
    requested: Option<ExecTier>,
    fold: Fold<K::Cell>,
) -> Result<(Folded<K::Cell>, RollingStats)> {
    let pattern = pattern_of(kernel)?;
    let dims = kernel.dims();
    let mut folded = Folded::default();
    let stats = solve_waves(kernel, requested, |w, cells| {
        folded.visit(fold, pattern, dims, w, cells)
    })?;
    Ok((folded, stats))
}

/// Solves in rolling mode and returns the bottom-right cell — the
/// answer cell for LCS / Levenshtein / Needleman–Wunsch / DTW. `None`
/// only for empty tables.
pub fn solve_corner<K: Kernel + ?Sized>(
    kernel: &K,
    requested: Option<ExecTier>,
) -> Result<(Option<K::Cell>, RollingStats)> {
    solve_fold(kernel, requested, Fold::Corner).map(|(f, stats)| (f.corner, stats))
}

/// Solves in rolling mode and captures grid row `row` (all `cols`
/// cells) — the forward half of a Hirschberg midpoint split.
pub fn solve_row<K: Kernel + ?Sized>(
    kernel: &K,
    row: usize,
    requested: Option<ExecTier>,
) -> Result<(Vec<K::Cell>, RollingStats)> {
    let dims = kernel.dims();
    assert!(
        row < dims.rows,
        "solve_row: row {row} out of range for {} rows",
        dims.rows
    );
    let pattern = pattern_of(kernel)?;
    let mut out = vec![K::Cell::default(); dims.cols];
    let stats = solve_waves(kernel, requested, |w, cells| {
        for p in row_positions(pattern, dims, w, row) {
            out[cell_at(pattern, dims, w, p).1] = cells[p];
        }
    })?;
    Ok((out, stats))
}

/// Arg-best of a rolling solve: the winning `(row, col, cell)`, or
/// `None` for an empty grid.
pub type BestCell<C> = Option<(usize, usize, C)>;

/// Solves in rolling mode and returns the arg-best cell under `score`,
/// with ties resolved to the earliest cell in wave order — the
/// Smith–Waterman endpoint scan.
pub fn solve_best<K: Kernel + ?Sized>(
    kernel: &K,
    requested: Option<ExecTier>,
    score: fn(&K::Cell) -> i64,
) -> Result<(BestCell<K::Cell>, RollingStats)> {
    solve_fold(kernel, requested, Fold::Max(score)).map(|(f, stats)| (f.best, stats))
}

/// How a problem's answer is read off its table: one fold over its
/// cells. A run applies it to each wave as the wave's barrier seals it,
/// in either memory mode; a finished grid replays it wave by wave
/// ([`Folded::of_grid`]).
#[derive(Clone, Copy, Default)]
pub enum Fold<C> {
    /// The bottom-right cell, which every fold captures too.
    #[default]
    Corner,
    /// The highest score over every cell.
    Max(fn(&C) -> i64),
    /// The lowest score over the last row.
    LastRowMin(fn(&C) -> i64),
    /// How many cells the predicate holds for.
    Count(fn(&C) -> bool),
}

/// A fold over the waves sealed so far: its running state, and once
/// every wave has sealed, its result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Folded<C> {
    /// The bottom-right cell, once its wave has sealed.
    pub corner: Option<C>,
    /// `(i, j, cell)` a score fold settled on: the earliest cell in wave
    /// order holding the highest score (`Max`) or the last row's lowest
    /// (`LastRowMin`).
    pub best: Option<(usize, usize, C)>,
    /// The fold's number: the settled score, or the count; 0 before any
    /// cell scores and for `Corner`.
    pub value: i64,
    /// Cells folded so far.
    pub cells: u64,
}

impl<C> Default for Folded<C> {
    fn default() -> Self {
        Folded {
            corner: None,
            best: None,
            value: 0,
            cells: 0,
        }
    }
}

impl<C: Copy> Folded<C> {
    /// Folds wave `w` of `pattern` over a `dims` table, sealed with
    /// `cells[p]` at canonical position `p`.
    pub fn visit(&mut self, fold: Fold<C>, pattern: Pattern, dims: Dims, w: usize, cells: &[C]) {
        self.cells += cells.len() as u64;
        let (last_row, last_col) = (dims.rows - 1, dims.cols - 1);
        if w == wave_of(pattern, dims, last_row, last_col) {
            self.corner = Some(cells[position_in_wave(pattern, dims, last_row, last_col)]);
        }
        let mut settle = |p: usize, s: i64, better: fn(i64, i64) -> bool| {
            if self.best.is_none() || better(s, self.value) {
                let (i, j) = cell_at(pattern, dims, w, p);
                self.best = Some((i, j, cells[p]));
                self.value = s;
            }
        };
        match fold {
            Fold::Corner => {}
            Fold::Max(score) => {
                for (p, c) in cells.iter().enumerate() {
                    settle(p, score(c), |s, v| s > v);
                }
            }
            Fold::LastRowMin(score) => {
                for p in row_positions(pattern, dims, w, last_row) {
                    settle(p, score(&cells[p]), |s, v| s < v);
                }
            }
            Fold::Count(pred) => self.value += cells.iter().filter(|c| pred(c)).count() as i64,
        }
    }

    /// `fold` over a finished grid, replaying the waves its layout
    /// stores contiguously: rows for a row-major grid.
    pub fn of_grid(fold: Fold<C>, grid: &Grid<C>) -> Folded<C> {
        let pattern = match grid.layout().kind() {
            LayoutKind::RowMajor => Pattern::Horizontal,
            LayoutKind::WaveMajor(p) => p,
        };
        let dims = grid.dims();
        let mut folded = Folded::default();
        for w in 0..pattern.num_waves(dims.rows, dims.cols) {
            let range = grid.layout().wave_range(pattern, w).expect("a stored wave");
            folded.visit(fold, pattern, dims, w, &grid.as_slice()[range]);
        }
        folded
    }
}

/// One completed slice of the wave schedule, as emitted by a streaming
/// rolling solve (`lddp-parallel`'s `SolveSpec::stream`, the serve
/// crate's `POST /solve?stream=1`).
///
/// Bands are slices of the *wave* schedule, not literal row bands: on a
/// square anti-diagonal grid, row 0 only seals at wave `cols - 1` —
/// halfway through the schedule — so equal-row bands would hold the
/// first frame back for ~50% of the solve. Equal-cell wave bands instead
/// put the first frame `~cells_total / bands` cells in, and each event
/// reports the `rows_completed` watermark (grid rows fully sealed so
/// far) for callers that think in rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandEvent {
    /// 0-based index of this band.
    pub band: usize,
    /// Total bands in the schedule.
    pub bands: usize,
    /// First wave of the band.
    pub wave_lo: usize,
    /// Last wave of the band (inclusive); the band is sealed once this
    /// wave's barrier passes.
    pub wave_hi: usize,
    /// Grid rows fully computed after `wave_hi` (row `r` seals with its
    /// last wave, `r + cols - 1` on an anti-diagonal schedule).
    pub rows_completed: usize,
    /// Total grid rows.
    pub rows: usize,
    /// Cells computed so far, cumulative across bands.
    pub cells_done: u64,
    /// Total cells in the grid.
    pub cells_total: u64,
    /// Running frontier score: the value of the last cell of `wave_hi`
    /// (on an anti-diagonal schedule, the cell walking down the rightmost
    /// column toward the corner), projected to `f64` by the caller's
    /// score function.
    pub score: f64,
    /// The running score of the answer's fold, once it has settled on a
    /// cell (the best score of a `Max` fold, the last row's minimum of a
    /// `LastRowMin` fold); `None` otherwise.
    pub best: Option<f64>,
}

/// An equal-cell split of a pattern's wave schedule into at most
/// `bands` contiguous slices — the emission plan of a streaming solve.
/// Waves are never split across bands, so a band boundary is always a
/// sealed barrier the emitter can publish behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BandSchedule {
    /// Last wave (inclusive) of each band, strictly increasing; the
    /// final entry is the last wave of the schedule.
    ends: Vec<usize>,
    pattern: Pattern,
    dims: Dims,
    cells_total: u64,
}

impl BandSchedule {
    /// Splits the waves of a `rows × cols` grid under `pattern` into at
    /// most `bands` slices of near-equal cell count. Requests are
    /// clamped: at least one band, never more bands than waves. Empty
    /// grids get an empty schedule.
    pub fn new(pattern: Pattern, rows: usize, cols: usize, bands: usize) -> BandSchedule {
        let dims = Dims::new(rows, cols);
        let num_waves = pattern.num_waves(rows, cols);
        let cells_total = dims.len() as u64;
        let mut ends = Vec::with_capacity(bands.clamp(1, num_waves.max(1)));
        let bands = bands.clamp(1, num_waves.max(1)) as u64;
        let mut cum = 0u64;
        let mut k = 1u64;
        for w in 0..num_waves {
            cum += pattern.wave_len(rows, cols, w) as u64;
            // Close band k-1 at the first wave reaching its share of
            // the cell budget; a wave crossing several thresholds
            // closes one band and skips the rest.
            if cum * bands >= k * cells_total {
                ends.push(w);
                while k <= bands && cum * bands >= k * cells_total {
                    k += 1;
                }
            }
        }
        debug_assert_eq!(ends.last().copied(), num_waves.checked_sub(1));
        BandSchedule {
            ends,
            pattern,
            dims,
            cells_total,
        }
    }

    /// Number of bands actually scheduled (≤ the requested count).
    pub fn bands(&self) -> usize {
        self.ends.len()
    }

    /// Last wave (inclusive) of each band, strictly increasing.
    pub fn ends(&self) -> &[usize] {
        &self.ends
    }

    /// Total cells in the grid.
    pub fn cells_total(&self) -> u64 {
        self.cells_total
    }

    /// Cells on wave `w` of the schedule.
    pub fn wave_len(&self, w: usize) -> usize {
        self.pattern.wave_len(self.dims.rows, self.dims.cols, w)
    }

    /// Grid rows fully sealed once wave `w` has completed. Row `r` seals
    /// with the later wave of its two end cells (a row's waves never
    /// fall and rise again along it), and rows seal in order.
    pub fn rows_completed(&self, w: usize) -> usize {
        let (p, d) = (self.pattern, self.dims);
        let sealed = |r: usize| wave_of(p, d, r, 0).max(wave_of(p, d, r, d.cols - 1)) <= w;
        let (mut lo, mut hi) = (0, d.rows);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if sealed(mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Builds the [`BandEvent`] for band `band` sealing at wave `w`
    /// with `cells_done` cumulative cells; `score`/`best` come from the
    /// executor's captures.
    pub fn event(
        &self,
        band: usize,
        w: usize,
        cells_done: u64,
        score: f64,
        best: Option<f64>,
    ) -> BandEvent {
        let wave_lo = if band == 0 {
            0
        } else {
            self.ends[band - 1] + 1
        };
        BandEvent {
            band,
            bands: self.ends.len(),
            wave_lo,
            wave_hi: w,
            rows_completed: self.rows_completed(w),
            rows: self.dims.rows,
            cells_done,
            cells_total: self.cells_total,
            score,
            best,
        }
    }
}

/// Formats a `(mode, bytes)` pair the way the CLI and docs report
/// working sets, e.g. `rolling (96.0 KiB)`.
pub fn describe(mode: MemoryMode, bytes: usize) -> String {
    let human = if bytes >= 1 << 30 {
        format!("{:.1} GiB", bytes as f64 / (1u64 << 30) as f64)
    } else if bytes >= 1 << 20 {
        format!("{:.1} MiB", bytes as f64 / (1 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.1} KiB", bytes as f64 / (1 << 10) as f64)
    } else {
        format!("{bytes} B")
    };
    format!("{mode} ({human})")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ClosureKernel;
    use crate::seq::solve_row_major;

    /// LCS-shaped closure kernel over deterministic pseudo-sequences.
    fn lcs_like(
        rows: usize,
        cols: usize,
    ) -> ClosureKernel<u32, impl Fn(usize, usize, &Neighbors<u32>) -> u32 + Sync> {
        let a: Vec<u8> = (0..rows).map(|i| (i * 7 % 5) as u8).collect();
        let b: Vec<u8> = (0..cols).map(|j| (j * 3 % 5) as u8).collect();
        let set = ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]);
        ClosureKernel::new(
            Dims::new(rows, cols),
            set,
            move |i, j, nb: &Neighbors<u32>| {
                if i == 0 || j == 0 {
                    0
                } else if a[i - 1] == b[j - 1] {
                    nb.nw.unwrap() + 1
                } else {
                    nb.w.unwrap().max(nb.n.unwrap())
                }
            },
        )
    }

    #[test]
    fn corner_matches_full_table_oracle_across_shapes() {
        for (rows, cols) in [
            (1, 1),
            (1, 9),
            (9, 1),
            (2, 2),
            (7, 13),
            (13, 7),
            (33, 33),
            (64, 5),
        ] {
            let k = lcs_like(rows, cols);
            let grid = solve_row_major(&k).unwrap();
            let (corner, stats) = solve_corner(&k, None).unwrap();
            assert_eq!(corner, Some(grid.get(rows - 1, cols - 1)), "{rows}x{cols}");
            assert_eq!(stats.waves, rows + cols - 1);
            assert!(stats.peak_bytes <= 3 * rows.min(cols) * 4);
        }
    }

    /// A kernel mixing every declared neighbour into its cell, so a
    /// neighbour read from the wrong place changes the table.
    fn mix(
        rows: usize,
        cols: usize,
        set: ContributingSet,
    ) -> ClosureKernel<u64, impl Fn(usize, usize, &Neighbors<u64>) -> u64 + Sync> {
        ClosureKernel::new(Dims::new(rows, cols), set, |i, j, nb: &Neighbors<u64>| {
            let mut acc = (i as u64) << 20 | (j as u64 + 7);
            for c in RepCell::ALL {
                if let Some(v) = nb.get(c) {
                    acc = acc.wrapping_mul(1099511628211).wrapping_add(*v);
                }
            }
            acc
        })
    }

    #[test]
    fn every_wave_cell_matches_the_oracle_for_every_canonical_set() {
        for set in ContributingSet::table_one_rows() {
            let pattern = classify(set).unwrap();
            for (rows, cols) in [(1, 1), (1, 9), (9, 1), (11, 17), (17, 11), (6, 6)] {
                let k = mix(rows, cols, set);
                let grid = solve_row_major(&k).unwrap();
                let mut seen = 0;
                let got = solve_waves(&k, None, |w, cells| {
                    for (p, c) in cells.iter().enumerate() {
                        let (i, j) = cell_at(pattern, k.dims(), w, p);
                        assert_eq!(*c, grid.get(i, j), "{set} {rows}x{cols} ({i}, {j})");
                        seen += 1;
                    }
                });
                if !pattern.is_canonical() {
                    assert!(matches!(got, Err(Error::PlanMismatch { .. })), "{set}");
                    continue;
                }
                let stats = got.unwrap();
                assert_eq!(seen, rows * cols, "{set} {rows}x{cols}");
                assert_eq!(stats.waves, pattern.num_waves(rows, cols));
                let ring = WaveStore::new(MemoryMode::Rolling, pattern, set, k.dims());
                assert_eq!(stats.peak_bytes, ring.len() * 8);
            }
        }
    }

    /// The full table's bases are the wave-major layout's, so a grid
    /// built in the pattern's preferred layout is the full store.
    #[test]
    fn full_store_bases_are_the_preferred_layout() {
        for set in ContributingSet::table_one_rows() {
            let pattern = classify(set).unwrap();
            let dims = Dims::new(7, 5);
            let store = WaveStore::new(MemoryMode::Full, pattern, set, dims);
            let layout = crate::grid::Layout::new(LayoutKind::preferred_for(pattern), dims);
            assert_eq!(store.len(), dims.len());
            for w in 0..store.num_waves() {
                let range = layout.wave_range(pattern, w).unwrap();
                assert_eq!(store.base(w)..store.base(w) + store.wave_len(w), range);
            }
        }
    }

    #[test]
    fn folds_over_the_ring_match_folds_over_the_oracle() {
        let folds: [Fold<u64>; 4] = [
            Fold::Corner,
            Fold::Max(|c| (*c % 1000) as i64),
            Fold::LastRowMin(|c| (*c % 1000) as i64),
            Fold::Count(|c| c % 3 == 0),
        ];
        for set in ContributingSet::table_one_rows() {
            if !classify(set).unwrap().is_canonical() {
                continue;
            }
            for (rows, cols) in [(1, 1), (1, 9), (9, 1), (11, 17), (17, 11)] {
                let k = mix(rows, cols, set);
                let grid = solve_row_major(&k).unwrap();
                for fold in folds {
                    let (got, _) = solve_fold(&k, None, fold).unwrap();
                    let want = Folded::of_grid(fold, &grid);
                    let label = format!("{set} {rows}x{cols}");
                    assert_eq!(got.corner, Some(grid.get(rows - 1, cols - 1)), "{label}");
                    assert_eq!(got.value, want.value, "{label}");
                    assert_eq!(got.cells, (rows * cols) as u64, "{label}");
                    if let Some((i, j, c)) = got.best {
                        assert_eq!(c, grid.get(i, j), "{label}");
                    }
                }
                // The fold values, by brute force.
                let all: Vec<u64> = grid.to_row_major();
                let last = &all[(rows - 1) * cols..];
                let (max, _) = solve_fold(&k, None, folds[1]).unwrap();
                assert_eq!(
                    max.value,
                    all.iter().map(|c| (c % 1000) as i64).max().unwrap()
                );
                let (min, _) = solve_fold(&k, None, folds[2]).unwrap();
                assert_eq!(
                    min.value,
                    last.iter().map(|c| (c % 1000) as i64).min().unwrap()
                );
                assert_eq!(min.best.unwrap().0, rows - 1);
                let (count, _) = solve_fold(&k, None, folds[3]).unwrap();
                assert_eq!(
                    count.value,
                    all.iter().filter(|c| *c % 3 == 0).count() as i64
                );
            }
        }
    }

    #[test]
    fn captured_rows_match_the_oracle() {
        let k = lcs_like(10, 6);
        let grid = solve_row_major(&k).unwrap();
        for row in [0, 1, 5, 9] {
            let (cells, _) = solve_row(&k, row, None).unwrap();
            let want: Vec<u32> = (0..6).map(|j| grid.get(row, j)).collect();
            assert_eq!(cells, want, "row {row}");
        }
    }

    #[test]
    fn best_fold_finds_the_maximum_cell() {
        let k = lcs_like(12, 12);
        let grid = solve_row_major(&k).unwrap();
        let (best, _) = solve_best(&k, None, |c| *c as i64).unwrap();
        let (i, j, c) = best.unwrap();
        assert_eq!(c, grid.get(i, j));
        let max = (0..12)
            .flat_map(|i| (0..12).map(move |j| (i, j)))
            .map(|(i, j)| grid.get(i, j))
            .max()
            .unwrap();
        assert_eq!(c, max);
    }

    #[test]
    fn scalar_tier_request_matches_auto() {
        let k = lcs_like(19, 23);
        let (auto, s_auto) = solve_corner(&k, None).unwrap();
        let (scalar, s_scalar) = solve_corner(&k, Some(ExecTier::Scalar)).unwrap();
        assert_eq!(auto, scalar);
        assert_eq!(s_scalar.tier, ExecTier::Scalar);
        // ClosureKernel has no wave body, so auto is scalar too.
        assert_eq!(s_auto.tier, ExecTier::Scalar);
    }

    #[test]
    fn non_canonical_sets_are_rejected() {
        let set = ContributingSet::new(&[RepCell::W]);
        let k = ClosureKernel::new(Dims::new(4, 4), set, |_, _, nb: &Neighbors<u32>| {
            nb.w.unwrap_or(0) + 1
        });
        match solve_waves(&k, None, |_, _| {}) {
            Err(Error::PlanMismatch { .. }) => {}
            other => panic!("expected PlanMismatch, got {other:?}"),
        }
        assert_eq!(rolling_bytes(&k), 0);
    }

    #[test]
    fn band_schedule_partitions_waves_with_near_equal_cells() {
        for (rows, cols, bands) in [
            (8usize, 8usize, 4usize),
            (64, 64, 8),
            (64, 64, 32),
            (100, 7, 5),
            (7, 100, 5),
            (1, 9, 3),
            (9, 1, 3),
            (5, 5, 64), // more bands than waves: clamped
        ] {
            let s = BandSchedule::new(Pattern::AntiDiagonal, rows, cols, bands);
            let num_waves = rows + cols - 1;
            assert!(s.bands() >= 1 && s.bands() <= bands.min(num_waves));
            assert_eq!(*s.ends().last().unwrap(), num_waves - 1, "{rows}x{cols}");
            assert!(s.ends().windows(2).all(|p| p[0] < p[1]));
            // Bands partition every wave exactly once; cell totals add
            // up to the grid.
            let mut lo = 0usize;
            let mut total = 0u64;
            let max_wave = (0..num_waves).map(|w| s.wave_len(w)).max().unwrap() as u64;
            let fair = s.cells_total() / s.bands() as u64;
            for (b, &end) in s.ends().iter().enumerate() {
                let cells: u64 = (lo..=end).map(|w| s.wave_len(w) as u64).sum();
                assert!(
                    cells <= fair + max_wave,
                    "{rows}x{cols} band {b}: {cells} cells vs fair {fair} + wave {max_wave}"
                );
                total += cells;
                lo = end + 1;
            }
            assert_eq!(total, s.cells_total());
            assert_eq!(s.cells_total(), (rows * cols) as u64);
        }
    }

    #[test]
    fn band_schedule_first_band_is_an_early_fraction_of_the_grid() {
        // The streaming TTFB claim rests on this: the first band seals
        // after ~1/bands of the cells, far before the first full *row*
        // would (wave cols-1, i.e. ~half the schedule on squares).
        let s = BandSchedule::new(Pattern::AntiDiagonal, 512, 512, 32);
        let first_end = s.ends()[0];
        let first_cells: u64 = (0..=first_end).map(|w| s.wave_len(w) as u64).sum();
        assert!(
            first_cells <= s.cells_total() / 16,
            "first band holds {first_cells} of {} cells",
            s.cells_total()
        );
        assert_eq!(
            s.rows_completed(first_end),
            0,
            "wave bands seal long before any full row does"
        );
        assert_eq!(s.rows_completed(511 + 512 - 1), 512);
    }

    #[test]
    fn every_pattern_schedules_bands_and_seals_rows_as_brute_force_says() {
        for p in Pattern::ALL {
            for (rows, cols) in [(9usize, 6usize), (6, 9), (1, 5), (5, 1), (7, 7)] {
                let s = BandSchedule::new(p, rows, cols, 4);
                let dims = Dims::new(rows, cols);
                let waves = p.num_waves(rows, cols);
                assert_eq!(*s.ends().last().unwrap(), waves - 1, "{p} {rows}x{cols}");
                let cells: usize = (0..waves).map(|w| s.wave_len(w)).sum();
                assert_eq!(cells, rows * cols);
                for w in 0..waves {
                    let brute = (0..rows)
                        .filter(|&r| (0..cols).all(|j| wave_of(p, dims, r, j) <= w))
                        .count();
                    assert_eq!(s.rows_completed(w), brute, "{p} {rows}x{cols} wave {w}");
                }
            }
        }
    }

    #[test]
    fn band_events_carry_the_schedule_geometry() {
        let s = BandSchedule::new(Pattern::AntiDiagonal, 16, 16, 4);
        let mut cells = 0u64;
        let mut lo = 0usize;
        for (b, &end) in s.ends().to_vec().iter().enumerate() {
            cells += (lo..=end).map(|w| s.wave_len(w) as u64).sum::<u64>();
            let ev = s.event(b, end, cells, 1.5, Some(2.5));
            assert_eq!(ev.band, b);
            assert_eq!(ev.bands, s.bands());
            assert_eq!(ev.wave_lo, lo);
            assert_eq!(ev.wave_hi, end);
            assert_eq!(ev.rows, 16);
            assert_eq!(ev.cells_total, 256);
            assert_eq!(ev.cells_done, cells);
            assert_eq!(ev.score, 1.5);
            assert_eq!(ev.best, Some(2.5));
            lo = end + 1;
        }
        assert_eq!(cells, 256);
        // Empty grids: no bands, nothing to stream.
        assert_eq!(BandSchedule::new(Pattern::KnightMove, 0, 4, 3).bands(), 0);
    }

    #[test]
    fn memory_model_prefers_rolling_exactly_when_it_is_smaller() {
        let k = lcs_like(64, 64);
        assert_eq!(full_table_bytes(&k), 64 * 64 * 4);
        assert_eq!(rolling_bytes(&k), 3 * 64 * 4);
        assert!(rolling_bytes(&k) < full_table_bytes(&k));
        // k = max wave delta + 1 slots of the widest wave.
        let horizontal = ContributingSet::new(&[RepCell::Nw, RepCell::N, RepCell::Ne]);
        assert_eq!(rolling_bytes(&mix(64, 48, horizontal)), 2 * 48 * 8);
        assert_eq!(
            rolling_bytes(&mix(64, 48, ContributingSet::FULL)),
            4 * 24 * 8
        );
        let l_shell = ContributingSet::new(&[RepCell::Nw]);
        assert_eq!(rolling_bytes(&mix(64, 48, l_shell)), 2 * 111 * 8);
        assert_eq!(
            describe(MemoryMode::Rolling, 96 * 1024),
            "rolling (96.0 KiB)"
        );
    }
}
