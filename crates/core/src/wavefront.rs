//! Wavefront enumeration.
//!
//! For a given pattern, all cells marked with the same number in Fig 2 can
//! be processed in parallel; this module defines, for every pattern, the
//! wave a cell belongs to, the canonical order of cells *within* a wave,
//! and iterators over those cells. The within-wave order is also the order
//! cells are laid out in memory by the wave-major layouts (§IV-B), and the
//! order in which the scheduler counts off the "first `t_share` cells"
//! assigned to the CPU (§III).

use crate::cell::RepCell;
use crate::pattern::Pattern;

/// Table dimensions, in cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dims {
    /// Number of rows (`i` ranges over `0..rows`).
    pub rows: usize,
    /// Number of columns (`j` ranges over `0..cols`).
    pub cols: usize,
}

impl Dims {
    /// Convenience constructor.
    pub const fn new(rows: usize, cols: usize) -> Self {
        Dims { rows, cols }
    }

    /// Total number of cells.
    pub const fn len(self) -> usize {
        self.rows * self.cols
    }

    /// True when the table has no cells.
    pub const fn is_empty(self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Whether `(i, j)` lies inside the table.
    pub const fn contains(self, i: usize, j: usize) -> bool {
        i < self.rows && j < self.cols
    }
}

/// Index of the wave containing cell `(i, j)` under `pattern`.
#[inline]
pub fn wave_of(pattern: Pattern, dims: Dims, i: usize, j: usize) -> usize {
    debug_assert!(dims.contains(i, j));
    match pattern {
        Pattern::AntiDiagonal => i + j,
        Pattern::Horizontal => i,
        Pattern::Vertical => j,
        Pattern::KnightMove => 2 * i + j,
        Pattern::InvertedL => i.min(j),
        Pattern::MirroredInvertedL => i.min(dims.cols - 1 - j),
    }
}

/// Position of `(i, j)` within its wave's canonical order.
///
/// The canonical order is *increasing column index* `j` (breaking ties —
/// which only the inverted-L column arm has — by increasing `i`):
/// - anti-diagonal / knight-move waves: increasing `j` (decreasing `i`);
/// - horizontal waves: increasing `j`; vertical waves: increasing `i`;
/// - inverted-L shell `k`: the column arm `(k..rows, k)` top-to-bottom
///   (all at `j = k`), then the row arm `(k, k+1..cols)` left-to-right;
/// - mirrored inverted-L: the inverted-L order of the column-reflected
///   cell (so *decreasing* `j`).
///
/// Ordering by column makes the scheduler's "first `t_share` cells go to
/// the CPU" rule (§III) a contiguous *left column band*: the CPU owns the
/// cells nearest the table's left edge in every wave, matching the blue
/// regions of Figs 3–6 and producing exactly the Table II transfer
/// directions.
#[inline]
pub fn position_in_wave(pattern: Pattern, dims: Dims, i: usize, j: usize) -> usize {
    debug_assert!(dims.contains(i, j));
    let w = wave_of(pattern, dims, i, j);
    line_position(pattern, dims, w, i as isize, j as isize) as usize
}

/// Position of the point `(i, j)` along the line of wave `w`: for a
/// cell of wave `w` its [`position_in_wave`], extended linearly past the
/// table's edge. The cells of a wave fill one interval of positions on
/// their line, so a neighbour that lies on the line but off the table
/// lands outside `0..wave_len`: the position range is the bounds check.
#[inline]
fn line_position(pattern: Pattern, dims: Dims, w: usize, i: isize, j: isize) -> isize {
    let wi = w as isize;
    match pattern {
        Pattern::AntiDiagonal => j - w.saturating_sub(dims.rows - 1) as isize,
        Pattern::Horizontal => j,
        Pattern::Vertical => i,
        // j and the wave's first column share the wave's parity.
        Pattern::KnightMove => (j - jlo_knight(dims, w) as isize) / 2,
        // The column arm (rows - w cells at j = w), then the row arm.
        Pattern::InvertedL if j == wi => i - wi,
        Pattern::InvertedL => (dims.rows as isize - wi) + (j - wi - 1),
        Pattern::MirroredInvertedL => {
            line_position(Pattern::InvertedL, dims, w, i, dims.cols as isize - 1 - j)
        }
    }
}

/// Smallest column index present in knight-move wave `w`: the least
/// `j ≡ w (mod 2)` with `(w - j)/2 < rows`.
#[inline]
fn jlo_knight(dims: Dims, w: usize) -> usize {
    let bound = w.saturating_sub(2 * (dims.rows - 1));
    // Round up to the parity of w.
    if bound % 2 == w % 2 {
        bound
    } else {
        bound + 1
    }
}

/// The cell at `pos` within wave `w` — the inverse of
/// [`position_in_wave`]. Panics (in debug builds) when out of range.
#[inline]
pub fn cell_at(pattern: Pattern, dims: Dims, w: usize, pos: usize) -> (usize, usize) {
    debug_assert!(
        pos < pattern.wave_len(dims.rows, dims.cols, w),
        "pos {pos} out of wave {w}"
    );
    match pattern {
        Pattern::AntiDiagonal => {
            let jlo = w.saturating_sub(dims.rows - 1);
            let j = jlo + pos;
            (w - j, j)
        }
        Pattern::Horizontal => (w, pos),
        Pattern::Vertical => (pos, w),
        Pattern::KnightMove => {
            let j = jlo_knight(dims, w) + 2 * pos;
            ((w - j) / 2, j)
        }
        Pattern::InvertedL => {
            let col_arm = dims.rows - w;
            if pos < col_arm {
                (w + pos, w)
            } else {
                (w, w + 1 + (pos - col_arm))
            }
        }
        Pattern::MirroredInvertedL => {
            let (i, j) = cell_at(Pattern::InvertedL, dims, w, pos);
            (i, dims.cols - 1 - j)
        }
    }
}

/// One straight-line stretch of a wave: cell `p` (for `p` in
/// `0..len`) sits at `(i0 + di*p, j0 + dj*p)`, occupying canonical
/// positions `pos0..pos0 + len` of the wave. Every wave of every
/// pattern is one segment, except the inverted-L shells, which are a
/// column arm followed by a row arm.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WaveSegment {
    pub i0: i64,
    pub di: i64,
    pub j0: i64,
    pub dj: i64,
    pub len: usize,
    pub pos0: usize,
}

/// The ≤ 2 linear segments making up wave `w` (in canonical order).
/// Unused slots are `None`; empty segments are omitted.
#[inline(always)]
pub(crate) fn wave_segments(pattern: Pattern, dims: Dims, w: usize) -> [Option<WaveSegment>; 2] {
    let Dims { rows, cols } = dims;
    if dims.is_empty() || w >= pattern.num_waves(rows, cols) {
        return [None, None];
    }
    let seg = |i0: usize, di: i64, j0: usize, dj: i64, len: usize, pos0: usize| {
        (len > 0).then_some(WaveSegment {
            i0: i0 as i64,
            di,
            j0: j0 as i64,
            dj,
            len,
            pos0,
        })
    };
    match pattern {
        Pattern::AntiDiagonal => {
            let jlo = w.saturating_sub(rows - 1);
            let len = pattern.wave_len(rows, cols, w);
            [seg(w - jlo, -1, jlo, 1, len, 0), None]
        }
        Pattern::Horizontal => [seg(w, 0, 0, 1, cols, 0), None],
        Pattern::Vertical => [seg(0, 1, w, 0, rows, 0), None],
        Pattern::KnightMove => {
            let jlo = jlo_knight(dims, w);
            let len = pattern.wave_len(rows, cols, w);
            [seg((w - jlo) / 2, -1, jlo, 2, len, 0), None]
        }
        Pattern::InvertedL => [
            seg(w, 1, w, 0, rows - w, 0),
            seg(w, 0, w + 1, 1, cols - w - 1, rows - w),
        ],
        Pattern::MirroredInvertedL => [
            seg(w, 1, cols - 1 - w, 0, rows - w, 0),
            (cols - w - 1 > 0).then(|| WaveSegment {
                i0: w as i64,
                di: 0,
                j0: (cols - w - 2) as i64,
                dj: -1,
                len: cols - w - 1,
                pos0: rows - w,
            }),
        ],
    }
}

/// How far the `dep` neighbours of a segment's cells sit along their own
/// wave `w_dep` from the cells' positions in theirs: the neighbour of the
/// cell at position `p` is at position `p + shift` of wave `w_dep`. A
/// segment's neighbours in one direction lie on a parallel line with the
/// same step, so the shift is one constant per segment.
#[inline]
pub(crate) fn dep_shift(
    pattern: Pattern,
    dims: Dims,
    w_dep: usize,
    seg: &WaveSegment,
    dep: RepCell,
) -> isize {
    let (oi, oj) = dep.offset();
    let at = line_position(
        pattern,
        dims,
        w_dep,
        seg.i0 as isize + oi,
        seg.j0 as isize + oj,
    );
    at - seg.pos0 as isize
}

/// Positions of row `row`'s cells within wave `w`, in increasing order:
/// a whole segment lying along the row, or one cell of each segment
/// crossing it.
#[inline]
pub(crate) fn row_positions(
    pattern: Pattern,
    dims: Dims,
    w: usize,
    row: usize,
) -> impl Iterator<Item = usize> {
    wave_segments(pattern, dims, w)
        .into_iter()
        .flatten()
        .flat_map(move |s| {
            let d = row as i64 - s.i0;
            let q = match s.di {
                0 if d == 0 => 0..s.len,
                0 => 0..0,
                di if d % di == 0 && (0..s.len as i64).contains(&(d / di)) => {
                    let q = (d / di) as usize;
                    q..q + 1
                }
                _ => 0..0,
            };
            s.pos0 + q.start..s.pos0 + q.end
        })
}

/// Iterates the cells of wave `w` in canonical order.
pub fn wave_cells(pattern: Pattern, dims: Dims, w: usize) -> impl Iterator<Item = (usize, usize)> {
    let len = pattern.wave_len(dims.rows, dims.cols, w);
    (0..len).map(move |pos| cell_at(pattern, dims, w, pos))
}

/// Iterates every cell of the table in wave order — wave by wave, each in
/// canonical order. Every cell appears exactly once, and every cell's
/// representative-set dependencies appear before it.
pub fn all_cells(pattern: Pattern, dims: Dims) -> impl Iterator<Item = (usize, usize)> {
    (0..pattern.num_waves(dims.rows, dims.cols)).flat_map(move |w| wave_cells(pattern, dims, w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::ContributingSet;
    use crate::cell::RepCell;
    use crate::pattern::classify;

    const SHAPES: [(usize, usize); 7] = [(1, 1), (1, 6), (6, 1), (3, 5), (5, 3), (7, 7), (2, 9)];

    #[test]
    fn wave_of_matches_membership() {
        for p in Pattern::ALL {
            for (r, c) in SHAPES {
                let dims = Dims::new(r, c);
                for w in 0..p.num_waves(r, c) {
                    for (i, j) in wave_cells(p, dims, w) {
                        assert_eq!(wave_of(p, dims, i, j), w, "{p} {r}x{c} cell ({i},{j})");
                    }
                }
            }
        }
    }

    #[test]
    fn position_roundtrips_through_cell_at() {
        for p in Pattern::ALL {
            for (r, c) in SHAPES {
                let dims = Dims::new(r, c);
                for i in 0..r {
                    for j in 0..c {
                        let w = wave_of(p, dims, i, j);
                        let pos = position_in_wave(p, dims, i, j);
                        assert_eq!(
                            cell_at(p, dims, w, pos),
                            (i, j),
                            "{p} {r}x{c} ({i},{j}) w={w} pos={pos}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn all_cells_visits_each_cell_once() {
        for p in Pattern::ALL {
            for (r, c) in SHAPES {
                let dims = Dims::new(r, c);
                let mut seen = vec![false; r * c];
                let mut count = 0;
                for (i, j) in all_cells(p, dims) {
                    assert!(dims.contains(i, j));
                    assert!(!seen[i * c + j], "{p}: duplicate ({i},{j})");
                    seen[i * c + j] = true;
                    count += 1;
                }
                assert_eq!(count, r * c, "{p} on {r}x{c}");
            }
        }
    }

    /// The defining safety property: any representative cell in the
    /// pattern's admissible contributing sets lies in a *strictly earlier*
    /// wave.
    #[test]
    fn dependencies_precede_their_wave() {
        for set in ContributingSet::table_one_rows() {
            let p = classify(set).unwrap();
            for (r, c) in SHAPES {
                let dims = Dims::new(r, c);
                for i in 0..r {
                    for j in 0..c {
                        let w = wave_of(p, dims, i, j);
                        for dep in set.iter() {
                            if let Some((si, sj)) = dep.source(i, j, r, c) {
                                let sw = wave_of(p, dims, si, sj);
                                assert!(
                                    sw < w,
                                    "{p} {set}: ({i},{j}) wave {w} depends on ({si},{sj}) wave {sw}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn within_wave_cells_are_mutually_independent() {
        // No representative cell of a wave member may be another member of
        // the same wave (checked across all patterns and all sets mapping
        // to that pattern).
        for set in ContributingSet::table_one_rows() {
            let p = classify(set).unwrap();
            let dims = Dims::new(5, 7);
            for w in 0..p.num_waves(5, 7) {
                let members: Vec<_> = wave_cells(p, dims, w).collect();
                for &(i, j) in &members {
                    for dep in set.iter() {
                        if let Some(src) = dep.source(i, j, 5, 7) {
                            assert!(
                                !members.contains(&src),
                                "{p} {set}: wave {w} self-dependency {src:?} -> ({i},{j})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn anti_diagonal_order_is_increasing_j() {
        let dims = Dims::new(4, 4);
        let cells: Vec<_> = wave_cells(Pattern::AntiDiagonal, dims, 3).collect();
        assert_eq!(cells, vec![(3, 0), (2, 1), (1, 2), (0, 3)]);
        // In the lower triangle the wave no longer starts at column 0.
        let cells: Vec<_> = wave_cells(Pattern::AntiDiagonal, dims, 5).collect();
        assert_eq!(cells, vec![(3, 2), (2, 3)]);
    }

    #[test]
    fn inverted_l_order_column_arm_then_row_arm() {
        let dims = Dims::new(4, 5);
        let cells: Vec<_> = wave_cells(Pattern::InvertedL, dims, 1).collect();
        assert_eq!(cells, vec![(1, 1), (2, 1), (3, 1), (1, 2), (1, 3), (1, 4)]);
    }

    #[test]
    fn canonical_order_is_increasing_j() {
        // Except mirrored-inverted-L (decreasing j by construction) and
        // ties on the inverted-L column arm, positions sort by column.
        for p in [
            Pattern::AntiDiagonal,
            Pattern::Horizontal,
            Pattern::KnightMove,
            Pattern::InvertedL,
        ] {
            let dims = Dims::new(5, 7);
            for w in 0..p.num_waves(5, 7) {
                let cols: Vec<_> = wave_cells(p, dims, w).map(|(_, j)| j).collect();
                assert!(
                    cols.windows(2).all(|c| c[0] <= c[1]),
                    "{p} wave {w}: {cols:?}"
                );
            }
        }
    }

    #[test]
    fn mirrored_inverted_l_is_column_reflection() {
        let dims = Dims::new(4, 5);
        let mirror: Vec<_> = wave_cells(Pattern::MirroredInvertedL, dims, 1).collect();
        let plain: Vec<_> = wave_cells(Pattern::InvertedL, dims, 1)
            .map(|(i, j)| (i, dims.cols - 1 - j))
            .collect();
        assert_eq!(mirror, plain);
    }

    #[test]
    fn knight_move_first_waves() {
        let dims = Dims::new(3, 4);
        assert_eq!(
            wave_cells(Pattern::KnightMove, dims, 0).collect::<Vec<_>>(),
            vec![(0, 0)]
        );
        assert_eq!(
            wave_cells(Pattern::KnightMove, dims, 1).collect::<Vec<_>>(),
            vec![(0, 1)]
        );
        assert_eq!(
            wave_cells(Pattern::KnightMove, dims, 2).collect::<Vec<_>>(),
            vec![(1, 0), (0, 2)]
        );
        assert_eq!(
            wave_cells(Pattern::KnightMove, dims, 3).collect::<Vec<_>>(),
            vec![(1, 1), (0, 3)]
        );
    }

    #[test]
    fn horizontal_and_vertical_orders() {
        let dims = Dims::new(2, 3);
        assert_eq!(
            wave_cells(Pattern::Horizontal, dims, 1).collect::<Vec<_>>(),
            vec![(1, 0), (1, 1), (1, 2)]
        );
        assert_eq!(
            wave_cells(Pattern::Vertical, dims, 2).collect::<Vec<_>>(),
            vec![(0, 2), (1, 2)]
        );
    }

    #[test]
    fn wave_segments_reproduce_canonical_order() {
        for p in Pattern::ALL {
            for (r, c) in SHAPES {
                let dims = Dims::new(r, c);
                for w in 0..p.num_waves(r, c) {
                    let mut cells = Vec::new();
                    for seg in wave_segments(p, dims, w).into_iter().flatten() {
                        assert_eq!(seg.pos0, cells.len(), "{p} {r}x{c} wave {w}");
                        for pp in 0..seg.len as i64 {
                            cells.push((
                                (seg.i0 + seg.di * pp) as usize,
                                (seg.j0 + seg.dj * pp) as usize,
                            ));
                        }
                    }
                    let expected: Vec<_> = wave_cells(p, dims, w).collect();
                    assert_eq!(cells, expected, "{p} {r}x{c} wave {w}");
                }
            }
        }
    }

    /// The property the wave store computes through: within a segment,
    /// the neighbour of the cell at position `p` is the cell at position
    /// `p + shift` of its own wave, and it is on the table exactly when
    /// that position is inside the wave.
    #[test]
    fn dependency_shifts_find_every_neighbour_and_only_neighbours() {
        use crate::schedule::{compatible, wave_delta};
        for set in ContributingSet::table_one_rows() {
            for p in Pattern::ALL.into_iter().filter(|&p| compatible(p, set)) {
                for (r, c) in SHAPES {
                    let dims = Dims::new(r, c);
                    for w in 0..p.num_waves(r, c) {
                        for seg in wave_segments(p, dims, w).into_iter().flatten() {
                            for dep in set.iter() {
                                let delta = wave_delta(p, dep);
                                for q in 0..seg.len {
                                    let pos = seg.pos0 + q;
                                    let (i, j) = cell_at(p, dims, w, pos);
                                    let src = dep.source(i, j, r, c);
                                    let label = format!("{p} {set} {r}x{c} ({i},{j}) {dep}");
                                    if delta > w {
                                        assert_eq!(src, None, "{label}");
                                        continue;
                                    }
                                    let shift = dep_shift(p, dims, w - delta, &seg, dep);
                                    let at = pos as isize + shift;
                                    let len = p.wave_len(r, c, w - delta) as isize;
                                    let found = (0..len)
                                        .contains(&at)
                                        .then(|| cell_at(p, dims, w - delta, at as usize));
                                    assert_eq!(found, src, "{label}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn row_positions_are_the_rows_cells() {
        for p in Pattern::ALL {
            for (r, c) in SHAPES {
                let dims = Dims::new(r, c);
                for row in 0..r {
                    let mut seen = 0;
                    for w in 0..p.num_waves(r, c) {
                        let got: Vec<usize> = row_positions(p, dims, w, row).collect();
                        let want: Vec<usize> = wave_cells(p, dims, w)
                            .enumerate()
                            .filter(|&(_, (i, _))| i == row)
                            .map(|(pos, _)| pos)
                            .collect();
                        assert_eq!(got, want, "{p} {r}x{c} row {row} wave {w}");
                        seen += got.len();
                    }
                    assert_eq!(seen, c, "{p} {r}x{c} row {row}");
                }
            }
        }
    }

    #[test]
    fn dims_helpers() {
        let d = Dims::new(3, 4);
        assert_eq!(d.len(), 12);
        assert!(!d.is_empty());
        assert!(Dims::new(0, 4).is_empty());
        assert!(d.contains(2, 3));
        assert!(!d.contains(3, 0));
        assert!(!d.contains(0, 4));
    }

    /// `RepCell::source` agrees with manual arithmetic on random cells —
    /// a guard for the wavefront dependency tests above.
    #[test]
    fn rep_cell_sources_in_bounds_only() {
        let dims = Dims::new(6, 6);
        for i in 0..6 {
            for j in 0..6 {
                for dep in [RepCell::W, RepCell::Nw, RepCell::N, RepCell::Ne] {
                    let src = dep.source(i, j, dims.rows, dims.cols);
                    if let Some((si, sj)) = src {
                        assert!(dims.contains(si, sj));
                    }
                }
            }
        }
    }
}
