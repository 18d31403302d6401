//! DP-table storage and memory layouts.
//!
//! §IV-B of the paper: GPU global-memory accesses are coalesced when the
//! threads of a warp touch contiguous addresses. The framework therefore
//! stores "all the cells marked with the same number in Fig 2 together in
//! a one dimensional array, maintaining non-decreasing order" — i.e. a
//! *wave-major* layout keyed by the problem's pattern. A plain row-major
//! layout is also provided (it is already wave-major for the Horizontal
//! pattern, and is what a naive port would use for the others).

use crate::pattern::Pattern;
use crate::wavefront::{self, Dims};
use std::ops::Range;

/// How the 2-D table is linearized into the backing array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutKind {
    /// `index = i * cols + j`. Coalesced only for Horizontal waves.
    RowMajor,
    /// Cells stored wave-by-wave in the pattern's canonical within-wave
    /// order; each wave occupies a contiguous range. Coalesced for the
    /// given pattern's waves.
    WaveMajor(Pattern),
}

impl LayoutKind {
    /// Whether a warp sweeping one wave of `pattern` touches contiguous
    /// addresses under this layout.
    pub fn is_coalesced_for(self, pattern: Pattern) -> bool {
        match self {
            // Row-major is contiguous along rows, i.e. for horizontal
            // waves only.
            LayoutKind::RowMajor => pattern == Pattern::Horizontal,
            LayoutKind::WaveMajor(p) => p == pattern,
        }
    }

    /// The wave-major layout the framework picks for `pattern` (§IV-B).
    /// For Horizontal this is plain row-major (they coincide).
    pub fn preferred_for(pattern: Pattern) -> LayoutKind {
        match pattern {
            Pattern::Horizontal => LayoutKind::RowMajor,
            p => LayoutKind::WaveMajor(p),
        }
    }
}

/// A concrete linearization of an `rows × cols` table.
///
/// Provides the bijection between `(i, j)` coordinates and positions in
/// the backing array, plus contiguous per-wave ranges for wave-major
/// layouts.
#[derive(Debug, Clone)]
pub struct Layout {
    kind: LayoutKind,
    dims: Dims,
    /// Start offset of each wave in the backing array (wave-major only);
    /// has `num_waves + 1` entries so `offsets[w]..offsets[w+1]` is wave
    /// `w`'s range.
    offsets: Vec<usize>,
}

impl Layout {
    /// Builds a layout for the given dimensions.
    pub fn new(kind: LayoutKind, dims: Dims) -> Self {
        let offsets = match kind {
            LayoutKind::RowMajor => Vec::new(),
            LayoutKind::WaveMajor(p) => {
                let waves = p.num_waves(dims.rows, dims.cols);
                let mut offsets = Vec::with_capacity(waves + 1);
                let mut acc = 0;
                offsets.push(0);
                for w in 0..waves {
                    acc += p.wave_len(dims.rows, dims.cols, w);
                    offsets.push(acc);
                }
                offsets
            }
        };
        Layout {
            kind,
            dims,
            offsets,
        }
    }

    /// The linearization scheme.
    pub fn kind(&self) -> LayoutKind {
        self.kind
    }

    /// Table dimensions.
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// Backing-array length.
    pub fn len(&self) -> usize {
        self.dims.len()
    }

    /// True when the table has no cells.
    pub fn is_empty(&self) -> bool {
        self.dims.is_empty()
    }

    /// Backing-array index of cell `(i, j)`.
    #[inline]
    pub fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(self.dims.contains(i, j), "({i},{j}) out of {:?}", self.dims);
        match self.kind {
            LayoutKind::RowMajor => i * self.dims.cols + j,
            LayoutKind::WaveMajor(p) => {
                let w = wavefront::wave_of(p, self.dims, i, j);
                self.offsets[w] + wavefront::position_in_wave(p, self.dims, i, j)
            }
        }
    }

    /// Cell coordinates stored at backing-array position `idx` — the
    /// inverse of [`Layout::index`].
    pub fn coords(&self, idx: usize) -> (usize, usize) {
        debug_assert!(idx < self.len());
        match self.kind {
            LayoutKind::RowMajor => (idx / self.dims.cols, idx % self.dims.cols),
            LayoutKind::WaveMajor(p) => {
                // offsets is sorted; find the wave containing idx.
                let w = match self.offsets.binary_search(&idx) {
                    Ok(mut w) => {
                        // idx is the start of wave w; skip empty waves.
                        while self.offsets[w + 1] == idx {
                            w += 1;
                        }
                        w
                    }
                    Err(ins) => ins - 1,
                };
                wavefront::cell_at(p, self.dims, w, idx - self.offsets[w])
            }
        }
    }

    /// Contiguous backing range of wave `w`, when the layout stores that
    /// wave contiguously (wave-major of the same pattern, or row-major
    /// horizontal rows). `None` otherwise.
    pub fn wave_range(&self, pattern: Pattern, w: usize) -> Option<Range<usize>> {
        match self.kind {
            LayoutKind::RowMajor if pattern == Pattern::Horizontal => {
                if w < self.dims.rows {
                    Some(w * self.dims.cols..(w + 1) * self.dims.cols)
                } else {
                    None
                }
            }
            LayoutKind::WaveMajor(p) if p == pattern => {
                if w + 1 < self.offsets.len() {
                    Some(self.offsets[w]..self.offsets[w + 1])
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

/// The DP table: a typed backing array plus its [`Layout`].
#[derive(Debug, Clone)]
pub struct Grid<T> {
    data: Vec<T>,
    layout: Layout,
}

impl<T: Copy + Default> Grid<T> {
    /// Allocates a table filled with `T::default()`.
    pub fn new(kind: LayoutKind, dims: Dims) -> Self {
        let layout = Layout::new(kind, dims);
        Grid {
            data: vec![T::default(); layout.len()],
            layout,
        }
    }
}

impl<T: Copy> Grid<T> {
    /// Allocates a table filled with `fill`.
    pub fn filled(kind: LayoutKind, dims: Dims, fill: T) -> Self {
        let layout = Layout::new(kind, dims);
        Grid {
            data: vec![fill; layout.len()],
            layout,
        }
    }

    /// Value at `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        self.data[self.layout.index(i, j)]
    }

    /// Sets the value at `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        let idx = self.layout.index(i, j);
        self.data[idx] = v;
    }

    /// Copies the table into a plain row-major `Vec` (row `i` starting at
    /// `i * cols`) — convenient for comparisons and output extraction.
    pub fn to_row_major(&self) -> Vec<T> {
        match self.layout.kind {
            LayoutKind::RowMajor => self.data.clone(),
            _ => {
                let Dims { rows, cols } = self.layout.dims;
                let mut out = Vec::with_capacity(rows * cols);
                for i in 0..rows {
                    for j in 0..cols {
                        out.push(self.get(i, j));
                    }
                }
                out
            }
        }
    }
}

impl<T> Grid<T> {
    /// The table's layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Table dimensions.
    pub fn dims(&self) -> Dims {
        self.layout.dims
    }

    /// Raw backing array, in layout order.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw backing array, in layout order.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPES: [(usize, usize); 6] = [(1, 1), (1, 5), (5, 1), (3, 4), (4, 3), (6, 6)];

    fn all_layouts() -> Vec<LayoutKind> {
        let mut v = vec![LayoutKind::RowMajor];
        v.extend(Pattern::ALL.map(LayoutKind::WaveMajor));
        v
    }

    #[test]
    fn index_is_a_bijection() {
        for kind in all_layouts() {
            for (r, c) in SHAPES {
                let layout = Layout::new(kind, Dims::new(r, c));
                let mut seen = vec![false; r * c];
                for i in 0..r {
                    for j in 0..c {
                        let idx = layout.index(i, j);
                        assert!(idx < r * c, "{kind:?} {r}x{c} ({i},{j}) -> {idx}");
                        assert!(!seen[idx], "{kind:?} {r}x{c}: index {idx} reused");
                        seen[idx] = true;
                        assert_eq!(layout.coords(idx), (i, j), "{kind:?} {r}x{c}");
                    }
                }
                assert!(seen.iter().all(|&s| s));
            }
        }
    }

    #[test]
    fn wave_major_waves_are_contiguous_and_ordered() {
        for p in Pattern::ALL {
            for (r, c) in SHAPES {
                let dims = Dims::new(r, c);
                let layout = Layout::new(LayoutKind::WaveMajor(p), dims);
                let mut expected_start = 0;
                for w in 0..p.num_waves(r, c) {
                    let range = layout.wave_range(p, w).unwrap();
                    assert_eq!(range.start, expected_start);
                    assert_eq!(range.len(), p.wave_len(r, c, w));
                    expected_start = range.end;
                    // Cells inside the range appear in canonical order.
                    for (pos, (i, j)) in crate::wavefront::wave_cells(p, dims, w).enumerate() {
                        assert_eq!(layout.index(i, j), range.start + pos);
                    }
                }
                assert_eq!(expected_start, r * c);
            }
        }
    }

    #[test]
    fn row_major_serves_horizontal_waves() {
        let layout = Layout::new(LayoutKind::RowMajor, Dims::new(3, 4));
        assert_eq!(layout.wave_range(Pattern::Horizontal, 1), Some(4..8));
        assert_eq!(layout.wave_range(Pattern::Horizontal, 3), None);
        assert_eq!(layout.wave_range(Pattern::AntiDiagonal, 0), None);
    }

    #[test]
    fn wave_range_rejects_foreign_patterns() {
        let layout = Layout::new(
            LayoutKind::WaveMajor(Pattern::AntiDiagonal),
            Dims::new(3, 4),
        );
        assert!(layout.wave_range(Pattern::AntiDiagonal, 0).is_some());
        assert!(layout.wave_range(Pattern::Horizontal, 0).is_none());
        assert!(layout
            .wave_range(Pattern::AntiDiagonal, Pattern::AntiDiagonal.num_waves(3, 4))
            .is_none());
    }

    #[test]
    fn coalescing_predicate() {
        assert!(LayoutKind::RowMajor.is_coalesced_for(Pattern::Horizontal));
        assert!(!LayoutKind::RowMajor.is_coalesced_for(Pattern::AntiDiagonal));
        assert!(!LayoutKind::RowMajor.is_coalesced_for(Pattern::KnightMove));
        for p in Pattern::ALL {
            assert!(LayoutKind::WaveMajor(p).is_coalesced_for(p));
        }
        assert!(!LayoutKind::WaveMajor(Pattern::AntiDiagonal).is_coalesced_for(Pattern::KnightMove));
    }

    #[test]
    fn preferred_layout_is_coalesced() {
        for p in Pattern::ALL {
            assert!(LayoutKind::preferred_for(p).is_coalesced_for(p), "{p}");
        }
        assert_eq!(
            LayoutKind::preferred_for(Pattern::Horizontal),
            LayoutKind::RowMajor
        );
    }

    #[test]
    fn grid_get_set_roundtrip() {
        for kind in all_layouts() {
            let mut g: Grid<u32> = Grid::new(kind, Dims::new(4, 5));
            for i in 0..4 {
                for j in 0..5 {
                    g.set(i, j, (i * 10 + j) as u32);
                }
            }
            for i in 0..4 {
                for j in 0..5 {
                    assert_eq!(g.get(i, j), (i * 10 + j) as u32, "{kind:?}");
                }
            }
        }
    }

    #[test]
    fn to_row_major_normalizes_any_layout() {
        let mut expected = Vec::new();
        for i in 0..3 {
            for j in 0..4 {
                expected.push((i * 4 + j) as u64);
            }
        }
        for kind in all_layouts() {
            let mut g: Grid<u64> = Grid::new(kind, Dims::new(3, 4));
            for i in 0..3 {
                for j in 0..4 {
                    g.set(i, j, (i * 4 + j) as u64);
                }
            }
            assert_eq!(g.to_row_major(), expected, "{kind:?}");
        }
    }

    #[test]
    fn filled_initializes_every_cell() {
        let g: Grid<i32> = Grid::filled(LayoutKind::RowMajor, Dims::new(2, 3), -7);
        assert!(g.as_slice().iter().all(|&v| v == -7));
        assert_eq!(g.as_slice().len(), 6);
    }

    #[test]
    fn empty_grids_are_legal() {
        for kind in all_layouts() {
            let g: Grid<u8> = Grid::new(kind, Dims::new(0, 5));
            assert!(g.layout().is_empty());
            assert_eq!(g.as_slice().len(), 0);
        }
    }
}
