//! Pattern classification — the paper's Table I.
//!
//! The number and position of contributing cells determine which cells can
//! be processed in parallel in a given iteration (Fig 2). The fifteen
//! non-empty contributing sets map onto six patterns; appealing to symmetry
//! (Vertical ≅ Horizontal under transposition, mirrored-Inverted-L ≅
//! Inverted-L under column reflection) only four distinct heterogeneous
//! execution strategies remain.

use crate::cell::{ContributingSet, RepCell};
use std::fmt;

/// The six dependence patterns of Fig 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// Fig 2(a): wavefront `i + j = const`; parallelism ramps up to the
    /// main anti-diagonal then back down.
    AntiDiagonal,
    /// Fig 2(b): whole rows in parallel; constant parallelism.
    Horizontal,
    /// Fig 2(c): L-shaped shells shrinking from the top-left; parallelism
    /// decreases monotonically.
    InvertedL,
    /// Fig 2(d): wavefront `2i + j = const`; parallelism ramps up then
    /// down, like anti-diagonal but with twice as many iterations.
    KnightMove,
    /// Fig 2(e): whole columns in parallel; constant parallelism.
    Vertical,
    /// Fig 2(f): mirrored L-shells shrinking from the top-right.
    MirroredInvertedL,
}

impl Pattern {
    /// All six patterns in Fig 2 order.
    pub const ALL: [Pattern; 6] = [
        Pattern::AntiDiagonal,
        Pattern::Horizontal,
        Pattern::InvertedL,
        Pattern::KnightMove,
        Pattern::Vertical,
        Pattern::MirroredInvertedL,
    ];

    /// The four canonical patterns that survive symmetry reduction.
    pub const CANONICAL: [Pattern; 4] = [
        Pattern::AntiDiagonal,
        Pattern::Horizontal,
        Pattern::InvertedL,
        Pattern::KnightMove,
    ];

    /// The pattern this one reduces to by symmetry (identity for the four
    /// canonical patterns).
    pub fn canonical(self) -> Pattern {
        match self {
            Pattern::Vertical => Pattern::Horizontal,
            Pattern::MirroredInvertedL => Pattern::InvertedL,
            p => p,
        }
    }

    /// Whether this is one of the four canonical execution patterns.
    pub fn is_canonical(self) -> bool {
        self.canonical() == self
    }

    /// Number of wavefront iterations needed to fill an `rows × cols`
    /// table under this pattern.
    #[inline]
    pub fn num_waves(self, rows: usize, cols: usize) -> usize {
        if rows == 0 || cols == 0 {
            return 0;
        }
        match self {
            Pattern::AntiDiagonal => rows + cols - 1,
            Pattern::Horizontal => rows,
            Pattern::Vertical => cols,
            Pattern::InvertedL | Pattern::MirroredInvertedL => rows.min(cols),
            Pattern::KnightMove => 2 * rows + cols - 2,
        }
    }

    /// Number of cells processed in wave `w` (0-based) of an
    /// `rows × cols` table. Waves outside `0..num_waves` have zero cells.
    #[inline]
    pub fn wave_len(self, rows: usize, cols: usize, w: usize) -> usize {
        if rows == 0 || cols == 0 || w >= self.num_waves(rows, cols) {
            return 0;
        }
        match self {
            Pattern::AntiDiagonal => {
                // Cells (i, j) with i + j = w.
                let lo = w.saturating_sub(cols - 1);
                let hi = w.min(rows - 1);
                hi - lo + 1
            }
            Pattern::Horizontal => cols,
            Pattern::Vertical => rows,
            Pattern::InvertedL | Pattern::MirroredInvertedL => {
                // Shell k: the row segment (k, k..cols) plus the column
                // segment (k+1..rows, k) — `(cols-k) + (rows-k-1)` cells.
                (cols - w) + (rows - w - 1)
            }
            Pattern::KnightMove => {
                // Cells (i, j) with 2i + j = w: i ranges over values with
                // 0 <= w - 2i < cols.
                let i_min = (w.saturating_sub(cols - 1)).div_ceil(2);
                let i_max = (w / 2).min(rows - 1);
                if i_max < i_min {
                    0
                } else {
                    i_max - i_min + 1
                }
            }
        }
    }

    /// Cells in the widest wave of an `rows × cols` table: the most
    /// workers a wave can keep busy. Zero for an empty table.
    #[inline]
    pub fn widest_wave(self, rows: usize, cols: usize) -> usize {
        if rows == 0 || cols == 0 {
            return 0;
        }
        match self {
            Pattern::AntiDiagonal => rows.min(cols),
            Pattern::Horizontal => cols,
            Pattern::Vertical => rows,
            // Shell 0: the whole first row and first column.
            Pattern::InvertedL | Pattern::MirroredInvertedL => rows + cols - 1,
            // A wave's column steps by two, so it holds at most every
            // other column.
            Pattern::KnightMove => rows.min(cols.div_ceil(2)),
        }
    }

    /// The degree-of-parallelism profile: `wave_len` for every wave, in
    /// order. This is the "parallelism profile" the paper categorizes by.
    pub fn parallelism_profile(self, rows: usize, cols: usize) -> Vec<usize> {
        (0..self.num_waves(rows, cols))
            .map(|w| self.wave_len(rows, cols, w))
            .collect()
    }

    /// Broad shape of the parallelism profile, used to pick the
    /// heterogeneous strategy (§III).
    pub fn profile_shape(self) -> ProfileShape {
        match self.canonical() {
            Pattern::AntiDiagonal | Pattern::KnightMove => ProfileShape::RampUpDown,
            Pattern::Horizontal => ProfileShape::Constant,
            Pattern::InvertedL => ProfileShape::Decreasing,
            _ => unreachable!("canonical() only returns canonical patterns"),
        }
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Pattern::AntiDiagonal => "Anti-diagonal",
            Pattern::Horizontal => "Horizontal",
            Pattern::InvertedL => "Inverted-L",
            Pattern::KnightMove => "Knight-Move",
            Pattern::Vertical => "Vertical",
            Pattern::MirroredInvertedL => "mInverted-L",
        };
        f.write_str(s)
    }
}

/// Qualitative shape of a pattern's degree-of-parallelism-versus-time plot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileShape {
    /// Ramps up to a plateau/peak then back down (anti-diagonal,
    /// knight-move). Has low-work regions at both ends.
    RampUpDown,
    /// Constant parallelism every iteration (horizontal/vertical). No
    /// low-work region.
    Constant,
    /// Monotonically decreasing (inverted-L). Low-work region at the end
    /// only.
    Decreasing,
}

/// Classifies a contributing set into its pattern — the paper's Table I.
///
/// Returns `None` for the empty set, which does not describe an LDDP-Plus
/// problem (the update function must read at least one neighbour).
pub fn classify(set: ContributingSet) -> Option<Pattern> {
    if set.is_empty() {
        return None;
    }
    let w = set.contains(RepCell::W);
    let nw = set.contains(RepCell::Nw);
    let n = set.contains(RepCell::N);
    let ne = set.contains(RepCell::Ne);
    Some(match (w, nw, n, ne) {
        // Reading both W (same row, left) and NE (previous row, right)
        // forces the knight-move wavefront 2i + j.
        (true, _, _, true) => Pattern::KnightMove,
        // W together with N (but no NE) allows the anti-diagonal i + j.
        (true, _, true, false) => Pattern::AntiDiagonal,
        // W alone or with NW: whole columns are independent.
        (true, _, false, false) => Pattern::Vertical,
        // No W: the previous row fully determines this row...
        (false, true, _, _) | (false, false, true, _) => {
            if !n && nw && !ne {
                // ...except NW alone, which admits the L-shell order.
                Pattern::InvertedL
            } else if !n && !nw && ne {
                unreachable!("covered by the arm below")
            } else {
                Pattern::Horizontal
            }
        }
        // NE alone: mirrored L-shells.
        (false, false, false, true) => Pattern::MirroredInvertedL,
        (false, false, false, false) => unreachable!("empty set handled above"),
    })
}

/// One row of the paper's Table I: a contributing set together with its
/// pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableOneRow {
    /// The contributing set (`Y`/`N` columns of Table I).
    pub set: ContributingSet,
    /// The pattern column.
    pub pattern: Pattern,
}

/// The full Table I, in the paper's row order.
pub fn table_one() -> Vec<TableOneRow> {
    ContributingSet::table_one_rows()
        .map(|set| TableOneRow {
            set,
            pattern: classify(set).expect("table rows are non-empty"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::RepCell::{Ne, Nw, N, W};

    fn set(cells: &[RepCell]) -> ContributingSet {
        ContributingSet::new(cells)
    }

    /// Pins every row of the paper's Table I exactly.
    #[test]
    fn table_one_matches_paper() {
        let expected: [(&[RepCell], Pattern); 15] = [
            (&[Ne], Pattern::MirroredInvertedL),
            (&[N], Pattern::Horizontal),
            (&[N, Ne], Pattern::Horizontal),
            (&[Nw], Pattern::InvertedL),
            (&[Nw, Ne], Pattern::Horizontal),
            (&[Nw, N], Pattern::Horizontal),
            (&[Nw, N, Ne], Pattern::Horizontal),
            (&[W], Pattern::Vertical),
            (&[W, Ne], Pattern::KnightMove),
            (&[W, N], Pattern::AntiDiagonal),
            (&[W, N, Ne], Pattern::KnightMove),
            (&[W, Nw], Pattern::Vertical),
            (&[W, Nw, Ne], Pattern::KnightMove),
            (&[W, Nw, N], Pattern::AntiDiagonal),
            (&[W, Nw, N, Ne], Pattern::KnightMove),
        ];
        let table = table_one();
        assert_eq!(table.len(), 15);
        for (row, (cells, pattern)) in table.iter().zip(expected.iter()) {
            assert_eq!(row.set, set(cells), "row order mismatch");
            assert_eq!(row.pattern, *pattern, "pattern for {}", row.set);
        }
    }

    #[test]
    fn empty_set_is_unclassifiable() {
        assert_eq!(classify(ContributingSet::EMPTY), None);
    }

    #[test]
    fn fifteen_rows_cover_six_patterns() {
        let mut seen: Vec<Pattern> = table_one().iter().map(|r| r.pattern).collect();
        seen.sort_by_key(|p| format!("{p}"));
        seen.dedup();
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn symmetry_reduction_to_four_patterns() {
        let mut canon: Vec<Pattern> = table_one().iter().map(|r| r.pattern.canonical()).collect();
        canon.sort_by_key(|p| format!("{p}"));
        canon.dedup();
        assert_eq!(canon.len(), 4);
        for p in canon {
            assert!(p.is_canonical());
            assert!(Pattern::CANONICAL.contains(&p));
        }
    }

    #[test]
    fn vertical_reduces_to_horizontal_via_transpose() {
        // Classifying the transposed set must yield the canonical pattern.
        for cells in [&[W][..], &[W, Nw][..]] {
            let s = set(cells);
            assert_eq!(classify(s), Some(Pattern::Vertical));
            let t = s.transposed().unwrap();
            assert_eq!(classify(t), Some(Pattern::Horizontal));
        }
    }

    #[test]
    fn mirrored_inverted_l_reduces_via_mirror() {
        let s = set(&[Ne]);
        assert_eq!(classify(s), Some(Pattern::MirroredInvertedL));
        let m = s.mirrored().unwrap();
        assert_eq!(classify(m), Some(Pattern::InvertedL));
    }

    #[test]
    fn wave_counts() {
        assert_eq!(Pattern::AntiDiagonal.num_waves(4, 6), 9);
        assert_eq!(Pattern::Horizontal.num_waves(4, 6), 4);
        assert_eq!(Pattern::Vertical.num_waves(4, 6), 6);
        assert_eq!(Pattern::InvertedL.num_waves(4, 6), 4);
        assert_eq!(Pattern::MirroredInvertedL.num_waves(4, 6), 4);
        assert_eq!(Pattern::KnightMove.num_waves(4, 6), 12);
        for p in Pattern::ALL {
            assert_eq!(p.num_waves(0, 5), 0);
            assert_eq!(p.num_waves(5, 0), 0);
        }
    }

    #[test]
    fn widest_wave_is_the_profile_maximum() {
        for p in Pattern::ALL {
            for r in 0..12 {
                for c in 0..12 {
                    let scan = p.parallelism_profile(r, c).into_iter().max();
                    assert_eq!(p.widest_wave(r, c), scan.unwrap_or(0), "{p} on {r}x{c}");
                }
            }
        }
    }

    /// The union of all waves must tile the table exactly.
    #[test]
    fn wave_lengths_sum_to_table_size() {
        for p in Pattern::ALL {
            for (r, c) in [(1, 1), (1, 7), (7, 1), (3, 5), (5, 3), (8, 8), (2, 9)] {
                let total: usize = p.parallelism_profile(r, c).iter().sum();
                assert_eq!(total, r * c, "{p} on {r}x{c}");
            }
        }
    }

    /// Pins the numbering of Fig 2 on the 6-wide examples in the paper.
    #[test]
    fn fig2_wave_lengths() {
        // (a) Anti-diagonal on a 6x6 grid: 1,2,3,4,5,6,5,4,3,2,1.
        assert_eq!(
            Pattern::AntiDiagonal.parallelism_profile(6, 6),
            vec![1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1]
        );
        // (b) Horizontal on 3 rows of 6: 6,6,6.
        assert_eq!(Pattern::Horizontal.parallelism_profile(3, 6), vec![6, 6, 6]);
        // (e) Vertical on 5 rows x 3 cols: 5,5,5.
        assert_eq!(Pattern::Vertical.parallelism_profile(5, 3), vec![5, 5, 5]);
        // (c) Inverted-L on 4x6 (Fig 2c shows shells 1..3 on a 4-row grid
        // with trailing short rows): shell k has (6-k)+(4-k-1) cells.
        assert_eq!(
            Pattern::InvertedL.parallelism_profile(4, 6),
            vec![9, 7, 5, 3]
        );
        assert_eq!(
            Pattern::MirroredInvertedL.parallelism_profile(4, 6),
            vec![9, 7, 5, 3]
        );
        // (d) Knight-move on 6x6: the last cell (5,5) is in wave
        // 2*5+5 = 15 (1-based 16, matching "16" in Fig 2d).
        let prof = Pattern::KnightMove.parallelism_profile(6, 6);
        assert_eq!(prof.len(), 16);
        assert_eq!(prof[0], 1); // only (0,0)
        assert_eq!(prof[15], 1); // only (5,5)
        assert_eq!(prof.iter().sum::<usize>(), 36);
        // Peak parallelism of 2i+j on an n x n grid is ceil(n/2)... the
        // profile must be unimodal-ish with max 3 for 6x6.
        assert_eq!(*prof.iter().max().unwrap(), 3);
    }

    #[test]
    fn knight_move_wave_membership() {
        // Explicitly enumerate 2i+j membership for a 3x4 grid.
        let rows = 3;
        let cols = 4;
        for w in 0..Pattern::KnightMove.num_waves(rows, cols) {
            let brute = (0..rows)
                .flat_map(|i| (0..cols).map(move |j| (i, j)))
                .filter(|&(i, j)| 2 * i + j == w)
                .count();
            assert_eq!(
                Pattern::KnightMove.wave_len(rows, cols, w),
                brute,
                "wave {w}"
            );
        }
    }

    #[test]
    fn anti_diagonal_profile_is_unimodal() {
        for (r, c) in [(5, 9), (9, 5), (7, 7)] {
            let prof = Pattern::AntiDiagonal.parallelism_profile(r, c);
            let peak = prof.iter().position(|&x| x == *prof.iter().max().unwrap());
            let peak = peak.unwrap();
            assert!(prof[..peak].windows(2).all(|w| w[0] <= w[1]));
            assert!(prof[peak..].windows(2).all(|w| w[0] >= w[1]));
            assert_eq!(*prof.iter().max().unwrap(), r.min(c));
        }
    }

    #[test]
    fn inverted_l_profile_decreases() {
        let prof = Pattern::InvertedL.parallelism_profile(8, 10);
        assert!(prof.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn profile_shapes() {
        assert_eq!(
            Pattern::AntiDiagonal.profile_shape(),
            ProfileShape::RampUpDown
        );
        assert_eq!(
            Pattern::KnightMove.profile_shape(),
            ProfileShape::RampUpDown
        );
        assert_eq!(Pattern::Horizontal.profile_shape(), ProfileShape::Constant);
        assert_eq!(Pattern::Vertical.profile_shape(), ProfileShape::Constant);
        assert_eq!(Pattern::InvertedL.profile_shape(), ProfileShape::Decreasing);
        assert_eq!(
            Pattern::MirroredInvertedL.profile_shape(),
            ProfileShape::Decreasing
        );
    }

    #[test]
    fn out_of_range_waves_are_empty() {
        for p in Pattern::ALL {
            let n = p.num_waves(4, 4);
            assert_eq!(p.wave_len(4, 4, n), 0);
            assert_eq!(p.wave_len(4, 4, n + 10), 0);
        }
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(Pattern::AntiDiagonal.to_string(), "Anti-diagonal");
        assert_eq!(Pattern::MirroredInvertedL.to_string(), "mInverted-L");
        assert_eq!(Pattern::KnightMove.to_string(), "Knight-Move");
    }
}
