//! The engine's differential path matrix: every way `ParallelEngine`
//! can compute an answer, checked bit for bit against the sequential
//! row-major oracle.
//!
//! Rows are kernel × memory mode × tier cap × threads × variant, where
//! the variant is a plain solve, a solve injected through the
//! degradation ladder, or a streamed solve. Kernels cover every
//! contributing set the engine accepts (each under its canonical
//! pattern: anti-diagonal, horizontal, inverted-L, knight-move) and the
//! case-study kernels, whose sets and run bodies differ. Shapes cover
//! 0×N, 1×N, N×1, the SIMD lane boundaries and a non-square grid.
//!
//! * Full-table rows compare the whole grid and the fold.
//! * Rolling rows compare the fold: the corner and the arg-best cell.
//! * Streamed rows also check band order and strictly rising
//!   `cells_done`, ending at the grid's cell count.
//!
//! f32 cells are compared through `to_bits`, so a tier that turned a
//! NaN or a signed zero into something else would show.

use lddp::chaos::FaultInjector;
use lddp::core::cell::{ContributingSet, RepCell};
use lddp::core::grid::Grid;
use lddp::core::kernel::{ExecTier, Kernel, MemoryMode};
use lddp::core::pattern::{classify, Pattern};
use lddp::core::rolling::{BandEvent, Fold};
use lddp::core::seq::solve_row_major;
use lddp::core::wavefront::all_cells;
use lddp::core::{DegradeStep, Dims};
use lddp::parallel::{ParallelEngine, SolveSpec, Solved, StreamHook};
use lddp::problems::synthetic::{fig9_kernel, mix_kernel};
use lddp::problems::{
    CheckerboardKernel, DitherCell, DitherKernel, DtwKernel, LcsKernel, LevenshteinKernel,
    NeedlemanWunschKernel, SeamCarvingKernel, SmithWatermanKernel, SwCell,
};
use lddp::workloads::random_seq;
use std::sync::{Mutex, Once};

/// A cell's exact bit pattern.
trait Bits: Copy {
    fn bits(&self) -> Vec<u64>;
}

impl Bits for u32 {
    fn bits(&self) -> Vec<u64> {
        vec![u64::from(*self)]
    }
}

impl Bits for i32 {
    fn bits(&self) -> Vec<u64> {
        vec![*self as u32 as u64]
    }
}

impl Bits for u64 {
    fn bits(&self) -> Vec<u64> {
        vec![*self]
    }
}

impl Bits for f32 {
    fn bits(&self) -> Vec<u64> {
        vec![u64::from(self.to_bits())]
    }
}

impl Bits for DitherCell {
    fn bits(&self) -> Vec<u64> {
        vec![u64::from(self.out), u64::from(self.err.to_bits())]
    }
}

impl Bits for SwCell {
    fn bits(&self) -> Vec<u64> {
        [self.m, self.ix, self.iy]
            .iter()
            .map(|v| *v as u32 as u64)
            .collect()
    }
}

/// Table shapes: 0×N, 1×N, N×1, lane boundaries and a non-square grid.
const SHAPES: &[(usize, usize)] = &[
    (0, 12),
    (12, 0),
    (1, 20),
    (20, 1),
    (7, 7),
    (8, 8),
    (9, 9),
    (15, 15),
    (16, 16),
    (17, 17),
    (13, 29),
];

const TIER_CAPS: [Option<ExecTier>; 4] = [
    None,
    Some(ExecTier::Scalar),
    Some(ExecTier::Bulk),
    Some(ExecTier::Simd),
];

const THREADS: [usize; 3] = [1, 2, 3];

const BANDS: usize = 4;

/// Panics on every bulk run; the ladder's scalar rung recovers.
struct BulkFault;

impl FaultInjector for BulkFault {
    fn active(&self) -> bool {
        true
    }
    fn worker_panic(&self, _worker: usize, _wave: usize) -> bool {
        false
    }
    fn bulk_panic(&self, _wave: usize) -> bool {
        true
    }
}

/// Panics on one mid-solve wave of every pooled attempt; only the
/// ladder's one-thread rung recovers.
struct WaveFault(usize);

impl FaultInjector for WaveFault {
    fn active(&self) -> bool {
        true
    }
    fn worker_panic(&self, _worker: usize, wave: usize) -> bool {
        wave == self.0
    }
    fn bulk_panic(&self, _wave: usize) -> bool {
        false
    }
}

/// Keeps the expected panics of injected rows out of the test output.
fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.starts_with("injected") {
                default(info);
            }
        }));
    });
}

/// A corner and an arg-best `(i, j, cell)`, as bit patterns.
type CaptureBits = (Option<Vec<u64>>, Option<(usize, usize, Vec<u64>)>);

/// What a row folded: the corner and the arg-best cell.
fn captured<C: Bits>(s: &Solved<C>) -> CaptureBits {
    (
        s.folded.corner.map(|v| v.bits()),
        s.folded.best.map(|(i, j, v)| (i, j, v.bits())),
    )
}

/// One engine run of `kernel` in `memory`, folding the arg-best under
/// `score`, optionally injected or streamed.
fn run<'a, K: Kernel>(
    engine: &ParallelEngine,
    k: &K,
    memory: MemoryMode,
    score: fn(&K::Cell) -> i64,
    injector: Option<&'a dyn FaultInjector>,
    stream: Option<&'a StreamHook<'a, K::Cell>>,
) -> lddp::core::Result<Solved<K::Cell>> {
    engine.run(
        k,
        &SolveSpec {
            memory,
            fold: Fold::Max(score),
            injector,
            stream,
            ..SolveSpec::default()
        },
    )
}

/// The rungs the ladder must take for `inj` on a solve at `tier`.
fn expected_steps(tier: ExecTier, waves: usize, wave_fault: bool) -> Vec<DegradeStep> {
    if waves == 0 {
        return Vec::new();
    }
    let mut steps = Vec::new();
    if tier != ExecTier::Scalar {
        steps.push(DegradeStep::BulkToScalar);
    }
    if wave_fault {
        steps.push(DegradeStep::ParallelToSequential);
    }
    steps
}

/// The oracle's corner and arg-best (ties to the earliest cell in the
/// executed pattern's wave order).
fn oracle_captures<C: Bits>(
    grid: &Grid<C>,
    pattern: Pattern,
    dims: Dims,
    score: fn(&C) -> i64,
) -> CaptureBits {
    if dims.is_empty() {
        return (None, None);
    }
    let corner = Some(grid.get(dims.rows - 1, dims.cols - 1).bits());
    let mut best: Option<(i64, usize, usize, C)> = None;
    for (i, j) in all_cells(pattern, dims) {
        let c = grid.get(i, j);
        let s = score(&c);
        if best.is_none_or(|(bs, ..)| s > bs) {
            best = Some((s, i, j, c));
        }
    }
    (corner, best.map(|(_, i, j, c)| (i, j, c.bits())))
}

fn grid_bits<C: Bits>(grid: &Grid<C>, dims: Dims) -> Vec<Vec<u64>> {
    (0..dims.rows)
        .flat_map(|i| (0..dims.cols).map(move |j| (i, j)))
        .map(|(i, j)| grid.get(i, j).bits())
        .collect()
}

/// Checks one streamed row's frames: bands in order, strictly rising
/// `cells_done`, the last frame at the grid's cell count.
fn check_frames(frames: &[BandEvent], dims: Dims, waves: usize, label: &str) {
    if dims.is_empty() {
        assert!(frames.is_empty(), "{label}: empty grids stream nothing");
        return;
    }
    assert!(!frames.is_empty(), "{label}: no frames");
    for (b, f) in frames.iter().enumerate() {
        assert_eq!(f.band, b, "{label}: band order");
        assert_eq!(f.bands, frames.len(), "{label}: band count");
        if b > 0 {
            assert!(
                f.cells_done > frames[b - 1].cells_done,
                "{label}: cells_done must rise strictly"
            );
            assert_eq!(f.wave_lo, frames[b - 1].wave_hi + 1, "{label}: wave cover");
        }
    }
    let last = frames.last().unwrap();
    assert_eq!(last.cells_done, (dims.rows * dims.cols) as u64, "{label}");
    assert_eq!(last.cells_total, (dims.rows * dims.cols) as u64, "{label}");
    assert_eq!(last.wave_hi, waves - 1, "{label}");
    assert_eq!(last.rows_completed, dims.rows, "{label}");
}

/// Runs every row of the matrix for one kernel.
fn check_kernel<K>(
    name: &str,
    kernel: &K,
    score: fn(&K::Cell) -> i64,
    stream_score: fn(&K::Cell) -> f64,
) where
    K: Kernel,
    K::Cell: Bits,
{
    quiet_injected_panics();
    let dims = kernel.dims();
    let pattern = classify(kernel.contributing_set()).unwrap();
    assert!(
        pattern.is_canonical(),
        "{name}: the engine refuses {pattern}"
    );
    let oracle = solve_row_major(kernel).unwrap();
    let want_grid = grid_bits(&oracle, dims);
    let want_caps = oracle_captures(&oracle, pattern, dims, score);
    let waves = pattern.num_waves(dims.rows, dims.cols);
    let wave_fault = WaveFault(waves / 2);
    for cap in TIER_CAPS {
        for threads in THREADS {
            let engine = ParallelEngine::new(threads).with_tier(cap);
            let tier = engine.select_tier(kernel);
            let label = format!(
                "{name} {}x{} tier<={cap:?} ({tier}) threads={threads}",
                dims.rows, dims.cols
            );
            for memory in MemoryMode::ALL {
                let label = format!("{label} {memory}");
                let got = run(&engine, kernel, memory, score, None, None).unwrap();
                assert_eq!(captured(&got), want_caps, "{label}");
                assert_eq!(got.waves, waves, "{label}");
                if let Some(grid) = &got.grid {
                    assert_eq!(grid_bits(grid, dims), want_grid, "{label}");
                }
                // Through the ladder.
                for (inj, is_wave) in [
                    (&BulkFault as &dyn FaultInjector, false),
                    (&wave_fault as &dyn FaultInjector, true),
                ] {
                    let got = run(&engine, kernel, memory, score, Some(inj), None).unwrap();
                    assert_eq!(captured(&got), want_caps, "{label} injected");
                    if let Some(grid) = &got.grid {
                        assert_eq!(grid_bits(grid, dims), want_grid, "{label} injected");
                    }
                    assert_eq!(
                        got.degraded,
                        expected_steps(tier, waves, is_wave),
                        "{label} injected rungs"
                    );
                }
            }
            // Streamed off the ring.
            let frames: Mutex<Vec<BandEvent>> = Mutex::new(Vec::new());
            let emit = |ev: BandEvent| {
                frames.lock().unwrap().push(ev);
                true
            };
            let hook = StreamHook {
                bands: BANDS,
                score_of: stream_score,
                emit: &emit,
            };
            let got = run(
                &engine,
                kernel,
                MemoryMode::Rolling,
                score,
                None,
                Some(&hook),
            )
            .unwrap();
            assert_eq!(captured(&got), want_caps, "{label} streamed");
            check_frames(&frames.lock().unwrap(), dims, waves, &label);
        }
    }
}

/// Sequence lengths giving a `(rows, cols)` table for kernels whose
/// table has one more row and column than their inputs; `None` for
/// shapes such a kernel cannot have.
fn seq_lens(rows: usize, cols: usize) -> Option<(usize, usize)> {
    (rows > 0 && cols > 0).then(|| (rows - 1, cols - 1))
}

fn seqs(rows: usize, cols: usize) -> Option<(Vec<u8>, Vec<u8>)> {
    seq_lens(rows, cols).map(|(a, b)| (random_seq(a, 4, 11), random_seq(b, 4, 12)))
}

#[test]
fn levenshtein_rows() {
    for &(r, c) in SHAPES {
        if let Some((a, b)) = seqs(r, c) {
            let k = LevenshteinKernel::new(a, b);
            check_kernel("levenshtein", &k, |c| *c as i64, |c| *c as f64);
        }
    }
}

#[test]
fn lcs_rows() {
    for &(r, c) in SHAPES {
        if let Some((a, b)) = seqs(r, c) {
            let k = LcsKernel::new(a, b);
            check_kernel("lcs", &k, |c| *c as i64, |c| *c as f64);
        }
    }
}

#[test]
fn needleman_wunsch_rows() {
    for &(r, c) in SHAPES {
        if let Some((a, b)) = seqs(r, c) {
            let k = NeedlemanWunschKernel::new(a, b);
            check_kernel("needleman-wunsch", &k, |c| *c as i64, |c| *c as f64);
        }
    }
}

#[test]
fn smith_waterman_rows() {
    for &(r, c) in SHAPES {
        if let Some((a, b)) = seqs(r, c) {
            let k = SmithWatermanKernel::new(a, b);
            check_kernel(
                "smith-waterman",
                &k,
                |c| c.best() as i64,
                |c| c.best() as f64,
            );
        }
    }
}

#[test]
fn dtw_rows() {
    for &(r, c) in SHAPES {
        let k = DtwKernel::random_walk(r, c, 5);
        check_kernel("dtw", &k, |c| c.to_bits() as i64, |c| f64::from(*c));
    }
}

#[test]
fn scalar_only_kernel_rows() {
    let set = ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]);
    for &(r, c) in SHAPES {
        let k = mix_kernel(Dims::new(r, c), set);
        assert!(k.wave_kernel().is_none() && k.simd_kernel().is_none());
        check_kernel("mix{W,NW,N}", &k, |c| (*c >> 1) as i64, |c| *c as f64);
    }
}

/// `mix_kernel` over every contributing set the engine accepts: the
/// sets whose classification is canonical. The rest (the Vertical and
/// mirrored inverted-L rows) are refused in both memory modes.
#[test]
fn every_contributing_set_rows() {
    for set in ContributingSet::table_one_rows() {
        let pattern = classify(set).unwrap();
        if !pattern.is_canonical() {
            let k = mix_kernel(Dims::new(5, 7), set);
            for memory in MemoryMode::ALL {
                let spec = SolveSpec {
                    memory,
                    ..SolveSpec::default()
                };
                assert!(ParallelEngine::new(2).run(&k, &spec).is_err(), "{set}");
            }
            continue;
        }
        for &(r, c) in SHAPES {
            let k = mix_kernel(Dims::new(r, c), set);
            assert!(k.wave_kernel().is_none() && k.simd_kernel().is_none());
            check_kernel(
                &format!("mix{set}"),
                &k,
                |c| (*c >> 1) as i64,
                |c| *c as f64,
            );
        }
    }
}

#[test]
fn fig9_rows() {
    for &(r, c) in SHAPES {
        let k = fig9_kernel(Dims::new(r, c), 1);
        check_kernel("fig9", &k, |c| i64::from(*c), |c| f64::from(*c));
    }
}

#[test]
fn checkerboard_rows() {
    for &(r, c) in SHAPES {
        let k = CheckerboardKernel::random(r, c, 9, 6);
        check_kernel("checkerboard", &k, |c| -i64::from(*c), |c| f64::from(*c));
    }
}

#[test]
fn seam_rows() {
    for &(r, c) in SHAPES {
        let energy = (0..r * c)
            .map(|x| (x as u32).wrapping_mul(2654435761) % 64)
            .collect();
        let k = SeamCarvingKernel::new(r, c, energy);
        check_kernel("seam", &k, |c| -(*c as i64), |c| *c as f64);
    }
}

#[test]
fn dithering_rows() {
    for &(r, c) in SHAPES {
        let k = DitherKernel::noise(r, c, 7);
        check_kernel(
            "dithering",
            &k,
            |c| i64::from(c.err.to_bits()),
            |c| f64::from(c.out),
        );
    }
}
