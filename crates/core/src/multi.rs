//! Multi-accelerator schedules — the paper's §VII outlook ("how does a
//! heterogeneous approach impact the implementation if the system has
//! some other accelerators like Intel Xeon-Phi") made concrete.
//!
//! The two-device column-band partition of [`crate::schedule`]
//! generalizes cleanly: with `k` devices, device 0 (the CPU) owns the
//! leftmost band, each accelerator the next band, and the rightmost
//! device the remainder. Because every representative-cell dependency
//! reaches at most one column left or right, boundary traffic only ever
//! crosses between *adjacent* bands — the per-wave transfer volume stays
//! O(k), and low-work phases still collapse onto the CPU.

use crate::cell::ContributingSet;
use crate::error::{Error, Result};
use crate::pattern::{Pattern, ProfileShape};
use crate::schedule::{compatible, max_wave_delta, PhaseKind};
use crate::wavefront::{self, Dims};
use std::ops::Range;

/// Identifies one of the `k` devices: 0 is the CPU, 1.. are
/// accelerators ordered left to right across the table.
pub type DeviceId = usize;

/// A directed boundary copy between two devices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiTransfer {
    /// Producing device.
    pub from: DeviceId,
    /// Consuming device.
    pub to: DeviceId,
    /// Cells to move (deduplicated, canonical order).
    pub cells: Vec<(usize, usize)>,
}

/// A `k`-way heterogeneous schedule over column bands.
#[derive(Debug, Clone)]
pub struct MultiPlan {
    pattern: Pattern,
    set: ContributingSet,
    dims: Dims,
    t_switch: usize,
    /// Ascending column boundaries; device `d` owns columns
    /// `boundaries[d-1] .. boundaries[d]` (with implicit 0 and cols at
    /// the ends). `boundaries.len() + 1` devices.
    boundaries: Vec<usize>,
    num_waves: usize,
}

impl MultiPlan {
    /// Builds a plan giving device 0 the columns left of
    /// `boundaries[0]`, device 1 the next band, and so on; the last
    /// device owns the rest. `boundaries` must be non-decreasing and
    /// within the column count.
    pub fn new(
        pattern: Pattern,
        set: ContributingSet,
        dims: Dims,
        t_switch: usize,
        boundaries: Vec<usize>,
    ) -> Result<MultiPlan> {
        if set.is_empty() {
            return Err(Error::EmptyContributingSet);
        }
        if !pattern.is_canonical() {
            return Err(Error::InvalidSchedule {
                pattern,
                reason: "not a canonical execution pattern".into(),
            });
        }
        if !compatible(pattern, set) {
            return Err(Error::InvalidSchedule {
                pattern,
                reason: format!("contributing set {set} is incompatible with this pattern"),
            });
        }
        if boundaries.windows(2).any(|w| w[0] > w[1]) {
            return Err(Error::InvalidSchedule {
                pattern,
                reason: "band boundaries must be non-decreasing".into(),
            });
        }
        if boundaries.last().is_some_and(|&b| b > dims.cols) {
            return Err(Error::InvalidSchedule {
                pattern,
                reason: format!("band boundary beyond the {} columns", dims.cols),
            });
        }
        let num_waves = pattern.num_waves(dims.rows, dims.cols);
        let max_switch = crate::schedule::max_t_switch(pattern, dims);
        if t_switch > max_switch {
            return Err(Error::InvalidSchedule {
                pattern,
                reason: format!("t_switch = {t_switch} exceeds the legal maximum {max_switch}"),
            });
        }
        Ok(MultiPlan {
            pattern,
            set,
            dims,
            t_switch,
            boundaries,
            num_waves,
        })
    }

    /// Number of devices (CPU + accelerators).
    pub fn devices(&self) -> usize {
        self.boundaries.len() + 1
    }

    /// The executed pattern.
    pub fn pattern(&self) -> Pattern {
        self.pattern
    }

    /// The contributing set.
    pub fn set(&self) -> ContributingSet {
        self.set
    }

    /// Table dimensions.
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// Total waves.
    pub fn num_waves(&self) -> usize {
        self.num_waves
    }

    /// Phase of wave `w` (CPU-only at the low-work ramps, shared
    /// otherwise), mirroring the two-device schedule.
    pub fn phase_of(&self, w: usize) -> PhaseKind {
        debug_assert!(w < self.num_waves);
        match self.pattern.profile_shape() {
            ProfileShape::RampUpDown => {
                if w < self.t_switch || w >= self.num_waves - self.t_switch {
                    PhaseKind::CpuOnly
                } else {
                    PhaseKind::Shared
                }
            }
            ProfileShape::Constant => PhaseKind::Shared,
            ProfileShape::Decreasing => {
                if w >= self.num_waves - self.t_switch {
                    PhaseKind::CpuOnly
                } else {
                    PhaseKind::Shared
                }
            }
        }
    }

    /// Device owning cell `(i, j)`.
    pub fn owner(&self, i: usize, j: usize) -> DeviceId {
        let w = wavefront::wave_of(self.pattern, self.dims, i, j);
        if self.phase_of(w) == PhaseKind::CpuOnly {
            return 0;
        }
        self.band_of(j)
    }

    /// Device owning column `j` in shared waves.
    fn band_of(&self, j: usize) -> DeviceId {
        match self.boundaries.binary_search(&j) {
            // Boundaries are exclusive upper bounds: column == boundary
            // belongs to the next device (and ties on equal boundaries
            // skip empty bands).
            Ok(mut d) => {
                while d < self.boundaries.len() && self.boundaries[d] == j {
                    d += 1;
                }
                d
            }
            Err(d) => d,
        }
    }

    /// Per-device position ranges of wave `w` (contiguous prefixes of
    /// the canonical order, one per device, possibly empty).
    pub fn assignment(&self, w: usize) -> Vec<Range<usize>> {
        let len = self.pattern.wave_len(self.dims.rows, self.dims.cols, w);
        let k = self.devices();
        if self.phase_of(w) == PhaseKind::CpuOnly {
            // The CPU takes the whole wave; accelerators get empty
            // ranges anchored at the end so the ranges still tile.
            let mut v = vec![len..len; k];
            v[0] = 0..len;
            return v;
        }
        // Device `d` owns the columns in `boundaries[d-1]..boundaries[d]`,
        // and a canonical wave never steps left, so each band is the
        // positions between two partition points.
        let mut start = 0;
        let mut out = Vec::with_capacity(k);
        for &b in &self.boundaries {
            let end = self.first_position_at_column(w, len, b);
            out.push(start..end);
            start = end;
        }
        out.push(start..len);
        out
    }

    /// The first position of wave `w` (of `len` cells) whose column is
    /// at least `col`, or `len`: a binary search, since canonical
    /// order never decreases in the column.
    fn first_position_at_column(&self, w: usize, len: usize, col: usize) -> usize {
        let (mut lo, mut hi) = (0, len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if wavefront::cell_at(self.pattern, self.dims, w, mid).1 < col {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Boundary transfers required before computing wave `w`: every
    /// dependency of a wave-`w` cell owned by a different device,
    /// grouped by (producer, consumer) in the order the wave's cells
    /// first need them. Deduplicated.
    pub fn transfers(&self, w: usize) -> Vec<MultiTransfer> {
        let len = self.pattern.wave_len(self.dims.rows, self.dims.cols, w);
        let delta = max_wave_delta(self.pattern, self.set);
        let phase = self.phase_of(w);
        let near_edge = (w.saturating_sub(delta)..w).any(|p| self.phase_of(p) != phase);
        // Every dependency reaches at most one column, so away from a
        // phase edge only cells within one column of a boundary can
        // import, and a CPU-only wave reads only CPU-only waves: the CPU
        // produced everything it needs.
        let mut windows: Vec<Range<usize>> = Vec::new();
        if near_edge {
            windows.push(0..len);
        } else if phase == PhaseKind::CpuOnly {
            return Vec::new();
        } else {
            // Ascending boundaries give ascending windows; merging the
            // overlaps visits each position once, in canonical order.
            for &b in &self.boundaries {
                let lo = self.first_position_at_column(w, len, b.saturating_sub(1));
                let hi = self.first_position_at_column(w, len, b + 2);
                match windows.last_mut() {
                    Some(last) if lo <= last.end => last.end = last.end.max(hi),
                    _ => windows.push(lo..hi),
                }
            }
        }
        let mut out: Vec<MultiTransfer> = Vec::new();
        for pos in windows.into_iter().flatten() {
            let (i, j) = wavefront::cell_at(self.pattern, self.dims, w, pos);
            let to = self.owner(i, j);
            for dep in self.set.iter() {
                if let Some(src) = dep.source(i, j, self.dims.rows, self.dims.cols) {
                    let from = self.owner(src.0, src.1);
                    if from == to {
                        continue;
                    }
                    match out.iter_mut().find(|t| (t.from, t.to) == (from, to)) {
                        Some(t) => t.cells.push(src),
                        None => out.push(MultiTransfer {
                            from,
                            to,
                            cells: vec![src],
                        }),
                    }
                }
            }
        }
        for t in &mut out {
            t.cells.sort_unstable();
            t.cells.dedup();
        }
        out
    }

    /// Cells per device over the whole plan.
    pub fn cell_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.devices()];
        for w in 0..self.num_waves {
            for (d, r) in self.assignment(w).into_iter().enumerate() {
                counts[d] += r.len();
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::RepCell;
    use crate::cell::RepCell::{Ne, Nw, N, W};

    fn set(cells: &[RepCell]) -> ContributingSet {
        ContributingSet::new(cells)
    }

    fn plan3(
        pattern: Pattern,
        s: &[RepCell],
        dims: (usize, usize),
        t_switch: usize,
        boundaries: &[usize],
    ) -> MultiPlan {
        MultiPlan::new(
            pattern,
            set(s),
            Dims::new(dims.0, dims.1),
            t_switch,
            boundaries.to_vec(),
        )
        .unwrap()
    }

    #[test]
    fn two_boundaries_make_three_devices() {
        let p = plan3(Pattern::Horizontal, &[Nw, N], (8, 12), 0, &[3, 7]);
        assert_eq!(p.devices(), 3);
        assert_eq!(p.owner(1, 0), 0);
        assert_eq!(p.owner(1, 3), 1);
        assert_eq!(p.owner(1, 6), 1);
        assert_eq!(p.owner(1, 7), 2);
        assert_eq!(p.owner(1, 11), 2);
    }

    #[test]
    fn empty_boundaries_is_single_device() {
        let p = plan3(Pattern::Horizontal, &[N], (4, 4), 0, &[]);
        assert_eq!(p.devices(), 1);
        for w in 0..4 {
            let a = p.assignment(w);
            assert_eq!(a.len(), 1);
            assert_eq!(a[0], 0..4);
        }
        assert!(p.transfers(2).is_empty());
    }

    #[test]
    fn degenerate_two_device_plan_matches_schedule_plan() {
        // A MultiPlan with one boundary must split exactly like the
        // two-device Plan with t_share = boundary.
        use crate::schedule::{Plan, ScheduleParams};
        for (pattern, s, t_switch) in [
            (Pattern::AntiDiagonal, &[W, Nw, N][..], 3),
            (Pattern::Horizontal, &[Nw, N, Ne][..], 0),
            (Pattern::KnightMove, &[W, Ne][..], 4),
        ] {
            let dims = Dims::new(9, 11);
            let t_share = 4;
            let multi = MultiPlan::new(pattern, set(s), dims, t_switch, vec![t_share]).unwrap();
            let two = Plan::new(
                pattern,
                set(s),
                dims,
                ScheduleParams::new(t_switch, t_share),
            )
            .unwrap();
            for w in 0..two.num_waves() {
                let m = multi.assignment(w);
                let t = two.assignment(w);
                assert_eq!(m[0], t.cpu, "{pattern} wave {w}");
                assert_eq!(m[1], t.gpu, "{pattern} wave {w}");
                // Transfers agree modulo grouping.
                let mt = multi.transfers(w);
                let tt = two.transfers(w);
                let m_to_1: Vec<_> = mt
                    .iter()
                    .filter(|x| x.from == 0 && x.to == 1)
                    .flat_map(|x| x.cells.clone())
                    .collect();
                let m_to_0: Vec<_> = mt
                    .iter()
                    .filter(|x| x.from == 1 && x.to == 0)
                    .flat_map(|x| x.cells.clone())
                    .collect();
                assert_eq!(m_to_1, tt.to_gpu, "{pattern} wave {w}");
                assert_eq!(m_to_0, tt.to_cpu, "{pattern} wave {w}");
            }
        }
    }

    #[test]
    fn assignments_tile_every_wave() {
        for boundaries in [&[][..], &[2][..], &[2, 5][..], &[2, 5, 9][..], &[0, 12][..]] {
            let p = plan3(Pattern::AntiDiagonal, &[W, Nw, N], (10, 12), 3, boundaries);
            for w in 0..p.num_waves() {
                let a = p.assignment(w);
                let len = Pattern::AntiDiagonal.wave_len(10, 12, w);
                let mut next = 0;
                for r in &a {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, len, "boundaries {boundaries:?} wave {w}");
            }
            let counts = p.cell_counts();
            assert_eq!(counts.iter().sum::<usize>(), 120);
        }
    }

    /// THE correctness property, k-way: every cross-device dependency is
    /// listed in the consumer's wave transfers.
    #[test]
    fn transfers_cover_all_cross_device_dependencies() {
        for (pattern, s, t_switch) in [
            (Pattern::AntiDiagonal, &[W, Nw, N][..], 2),
            (Pattern::Horizontal, &[Nw, N, Ne][..], 0),
            (Pattern::Horizontal, &[Nw][..], 0),
            (Pattern::KnightMove, &[W, Nw, N, Ne][..], 3),
        ] {
            for boundaries in [&[3][..], &[2, 6][..], &[1, 4, 8][..]] {
                let dims = Dims::new(8, 10);
                let p =
                    MultiPlan::new(pattern, set(s), dims, t_switch, boundaries.to_vec()).unwrap();
                for w in 0..p.num_waves() {
                    let transfers = p.transfers(w);
                    for (i, j) in wavefront::wave_cells(pattern, dims, w) {
                        let reader = p.owner(i, j);
                        for dep in set(s).iter() {
                            if let Some(src) = dep.source(i, j, 8, 10) {
                                let producer = p.owner(src.0, src.1);
                                if producer != reader {
                                    let found = transfers.iter().any(|t| {
                                        t.from == producer
                                            && t.to == reader
                                            && t.cells.contains(&src)
                                    });
                                    assert!(
                                        found,
                                        "{pattern} {boundaries:?} wave {w}: ({i},{j}) \
                                         missing {src:?} from d{producer} to d{reader}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Boundary traffic only crosses adjacent bands in steady state.
    #[test]
    fn steady_state_transfers_are_adjacent_and_small() {
        let p = plan3(Pattern::Horizontal, &[Nw, N, Ne], (32, 32), 0, &[8, 16, 24]);
        for w in 2..32 {
            for t in p.transfers(w) {
                assert_eq!(
                    t.from.abs_diff(t.to),
                    1,
                    "wave {w}: non-adjacent transfer {t:?}"
                );
                assert!(t.cells.len() <= 2, "wave {w}: {t:?}");
            }
        }
    }

    #[test]
    fn validation_rejects_bad_inputs() {
        let dims = Dims::new(4, 4);
        assert!(MultiPlan::new(
            Pattern::Horizontal,
            ContributingSet::EMPTY,
            dims,
            0,
            vec![2]
        )
        .is_err());
        assert!(MultiPlan::new(Pattern::Vertical, set(&[W]), dims, 0, vec![2]).is_err());
        assert!(
            MultiPlan::new(Pattern::Horizontal, set(&[N]), dims, 0, vec![3, 2]).is_err(),
            "decreasing boundaries"
        );
        assert!(
            MultiPlan::new(Pattern::Horizontal, set(&[N]), dims, 0, vec![5]).is_err(),
            "boundary beyond cols"
        );
        assert!(
            MultiPlan::new(Pattern::Horizontal, set(&[N]), dims, 1, vec![2]).is_err(),
            "t_switch on constant profile"
        );
        assert!(
            MultiPlan::new(Pattern::AntiDiagonal, set(&[W, N]), dims, 4, vec![2]).is_err(),
            "t_switch too large"
        );
    }

    #[test]
    fn cpu_only_ramps_belong_to_device_zero() {
        let p = plan3(Pattern::AntiDiagonal, &[W, N], (8, 8), 3, &[2, 5]);
        for w in 0..3 {
            let a = p.assignment(w);
            assert_eq!(a[0].len(), Pattern::AntiDiagonal.wave_len(8, 8, w));
            assert!(a[1].is_empty() && a[2].is_empty());
        }
    }

    #[test]
    fn one_row_grid_splits_across_devices() {
        // The degenerate band case the serve path can hit with cached
        // parameters: a 1×n table where every wave holds one cell.
        // Assignments must still tile and every cell must have exactly
        // one owner.
        let p = plan3(Pattern::AntiDiagonal, &[W], (1, 12), 0, &[4, 8]);
        assert_eq!(p.num_waves(), 12);
        for w in 0..12 {
            let a = p.assignment(w);
            let total: usize = a.iter().map(|r| r.len()).sum();
            assert_eq!(total, 1, "wave {w} holds exactly one cell");
        }
        assert_eq!(p.cell_counts(), vec![4, 4, 4]);
        // Owners follow the bands left to right.
        assert_eq!(p.owner(0, 0), 0);
        assert_eq!(p.owner(0, 4), 1);
        assert_eq!(p.owner(0, 11), 2);
    }

    #[test]
    fn width_one_bands_stay_legal() {
        // Boundaries [1, 2]: devices 0 and 1 each own a single column.
        let p = plan3(Pattern::AntiDiagonal, &[W, Nw, N], (6, 8), 0, &[1, 2]);
        assert_eq!(p.devices(), 3);
        for i in 0..6 {
            assert_eq!(p.owner(i, 0), 0);
            assert_eq!(p.owner(i, 1), 1);
            for j in 2..8 {
                assert_eq!(p.owner(i, j), 2);
            }
        }
        // Every wave's ranges tile the wave and every transfer moves
        // between adjacent devices only.
        for w in 0..p.num_waves() {
            let a = p.assignment(w);
            let len = Pattern::AntiDiagonal.wave_len(6, 8, w);
            assert_eq!(a.iter().map(|r| r.len()).sum::<usize>(), len);
            for t in p.transfers(w) {
                assert!(t.from.abs_diff(t.to) == 1, "wave {w}: {t:?}");
            }
        }
    }

    #[test]
    fn equal_boundaries_make_an_empty_band() {
        // A zero-width band (equal boundaries) is legal: the middle
        // device simply never owns a cell, which is what the fleet's
        // even split produces when devices outnumber columns.
        let p = plan3(Pattern::Horizontal, &[Nw, N], (4, 2), 0, &[1, 1]);
        assert_eq!(p.devices(), 3);
        for i in 0..4 {
            assert_eq!(p.owner(i, 0), 0);
            assert_eq!(
                p.owner(i, 1),
                2,
                "column at the tied boundary skips the empty band"
            );
        }
        assert_eq!(p.cell_counts(), vec![4, 0, 4]);
    }
}
