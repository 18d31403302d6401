//! Cross-engine consistency: for every Table I contributing set, the
//! sequential oracle, the real thread engine, and the simulated
//! heterogeneous framework must produce identical tables.

use lddp::core::kernel::Kernel;
use lddp::core::pattern::classify;
use lddp::core::seq::solve_row_major;
use lddp::core::{ContributingSet, Dims, RepCell};
use lddp::parallel::ParallelEngine;
use lddp::platforms::{hetero_high, hetero_low};
use lddp::problems::synthetic::mix_kernel;
use lddp::Framework;

#[test]
fn all_fifteen_sets_agree_across_engines() {
    for set in ContributingSet::table_one_rows() {
        let dims = lddp::core::Dims::new(11, 14);
        let kernel = mix_kernel(dims, set);
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();

        // Real threads (canonical pattern of the raw classification).
        let raw = classify(set).unwrap();
        if raw.is_canonical() {
            let par = ParallelEngine::new(4).solve(&kernel).unwrap();
            assert_eq!(par.to_row_major(), oracle, "threads {set}");
        }

        // Simulated heterogeneous framework, both platforms, with the
        // tuner in the loop.
        for platform in [hetero_high(), hetero_low()] {
            let fw = Framework::new(platform);
            let solution = fw.solve(&kernel).unwrap();
            assert_eq!(solution.grid.to_row_major(), oracle, "framework {set}");
        }
    }
}

#[test]
fn rectangular_extremes_agree() {
    // Degenerate shapes: single row, single column, thin strips.
    for (r, c) in [(1, 37), (37, 1), (2, 19), (19, 2)] {
        for set in ContributingSet::table_one_rows() {
            let dims = lddp::core::Dims::new(r, c);
            let kernel = mix_kernel(dims, set);
            let oracle = solve_row_major(&kernel).unwrap().to_row_major();
            let fw = Framework::new(hetero_high());
            let solution = fw.solve(&kernel).unwrap();
            assert_eq!(solution.grid.to_row_major(), oracle, "{set} {r}x{c}");
        }
    }
}

#[test]
fn case_study_kernels_agree_between_thread_engine_and_framework() {
    let fw = Framework::new(hetero_high());
    let engine = ParallelEngine::new(4);

    let lev = lddp::problems::LevenshteinKernel::new(*b"parallelism", *b"pipelining");
    let a = engine.solve(&lev).unwrap().to_row_major();
    let b = fw.solve(&lev).unwrap().grid.to_row_major();
    assert_eq!(a, b);

    let dit = lddp::problems::DitherKernel::noise(20, 30, 77);
    let a = engine.solve(&dit).unwrap().to_row_major();
    let b = fw.solve(&dit).unwrap().grid.to_row_major();
    assert_eq!(a, b);

    let che = lddp::problems::CheckerboardKernel::random(18, 22, 9, 4);
    let a = engine.solve(&che).unwrap().to_row_major();
    let b = fw.solve(&che).unwrap().grid.to_row_major();
    assert_eq!(a, b);

    let sw = lddp::problems::SmithWatermanKernel::new(*b"GATTACA", *b"GCATGCU");
    let a = engine.solve(&sw).unwrap().to_row_major();
    let b = fw.solve(&sw).unwrap().grid.to_row_major();
    assert_eq!(a, b);
}

/// Solves `kernel` with the bulk path on and off across several thread
/// counts and requires both to equal the sequential oracle exactly.
fn assert_bulk_matches_scalar<K: lddp::core::kernel::Kernel>(kernel: &K, label: &str) {
    let oracle = solve_row_major(kernel).unwrap().to_row_major();
    for threads in [1, 2, 5] {
        let bulk = ParallelEngine::new(threads).solve(kernel).unwrap();
        let scalar = ParallelEngine::new(threads)
            .with_tier(Some(lddp::core::kernel::ExecTier::Scalar))
            .solve(kernel)
            .unwrap();
        assert_eq!(
            bulk.to_row_major(),
            oracle,
            "{label} bulk threads={threads}"
        );
        assert_eq!(
            scalar.to_row_major(),
            oracle,
            "{label} scalar threads={threads}"
        );
    }
}

/// Byte strings with adversarial lengths: empty vs long (degenerate 1×N
/// and N×1 tables) and coprime non-powers-of-two.
fn byte_pairs() -> Vec<(Vec<u8>, Vec<u8>)> {
    let s = |n: usize, mul: usize| -> Vec<u8> { (0..n).map(|i| (i * mul % 7) as u8).collect() };
    vec![
        (s(0, 3), s(40, 5)),
        (s(40, 3), s(0, 5)),
        (s(37, 3), s(53, 5)),
        (s(5, 1), s(5, 2)),
        // Lane-unaligned: one short of / one past the widest SIMD
        // width, so head/tail peeling covers every remainder.
        (s(33, 3), s(9, 5)),
        (s(63, 2), s(65, 3)),
    ]
}

/// Solves `kernel` at every pinned execution tier across several
/// thread counts and requires each result to equal the sequential
/// oracle exactly. A pin the host cannot honor (no vector unit, no
/// SIMD kernel) downgrades inside the engine, so every row runs on
/// every machine without conditional compilation.
fn assert_tiers_match_oracle<K: lddp::core::kernel::Kernel>(kernel: &K, label: &str) {
    use lddp::core::kernel::ExecTier;
    let oracle = solve_row_major(kernel).unwrap().to_row_major();
    for tier in [ExecTier::Scalar, ExecTier::Bulk, ExecTier::Simd] {
        for threads in [1, 2, 5] {
            let got = ParallelEngine::new(threads)
                .with_tier(Some(tier))
                .solve(kernel)
                .unwrap();
            assert_eq!(
                got.to_row_major(),
                oracle,
                "{label} tier={tier} threads={threads}"
            );
        }
    }
}

#[test]
fn simd_tier_is_bit_identical_for_sequence_problems() {
    for (a, b) in byte_pairs() {
        let label = format!("{}x{}", a.len(), b.len());
        assert_tiers_match_oracle(
            &lddp::problems::LcsKernel::new(a.clone(), b.clone()),
            &format!("lcs {label}"),
        );
        assert_tiers_match_oracle(
            &lddp::problems::LevenshteinKernel::new(a.clone(), b.clone()),
            &format!("levenshtein {label}"),
        );
        assert_tiers_match_oracle(
            &lddp::problems::NeedlemanWunschKernel::new(a.clone(), b.clone()),
            &format!("needleman-wunsch {label}"),
        );
        assert_tiers_match_oracle(
            &lddp::problems::SmithWatermanKernel::new(a, b),
            &format!("smith-waterman {label}"),
        );
    }
}

#[test]
fn simd_tier_is_bit_identical_for_dtw() {
    use lddp::core::kernel::ExecTier;
    let series = |n: usize, mul: usize| -> Vec<f32> {
        (0..n).map(|i| (i * mul % 19) as f32 * 0.5 - 3.0).collect()
    };
    let bits = |g: &lddp::core::grid::Grid<f32>| -> Vec<u32> {
        g.to_row_major().iter().map(|v| v.to_bits()).collect()
    };
    for (la, lb) in [(1, 43), (43, 1), (37, 54), (8, 8), (33, 65)] {
        for band in [None, Some(5)] {
            let mut kernel = lddp::problems::DtwKernel::new(series(la, 37), series(lb, 23));
            if let Some(r) = band {
                kernel = kernel.with_band(r);
            }
            let label = format!("dtw {la}x{lb} band={band:?}");
            assert_tiers_match_oracle(&kernel, &label);
            // f32 tables must agree bit for bit (including ∞ cells
            // outside the band), not merely by PartialEq.
            let reference = bits(
                &ParallelEngine::new(1)
                    .with_tier(Some(ExecTier::Scalar))
                    .solve(&kernel)
                    .unwrap(),
            );
            for tier in [ExecTier::Bulk, ExecTier::Simd] {
                for threads in [1, 5] {
                    let got = ParallelEngine::new(threads)
                        .with_tier(Some(tier))
                        .solve(&kernel)
                        .unwrap();
                    assert_eq!(
                        bits(&got),
                        reference,
                        "{label} tier={tier} threads={threads}"
                    );
                }
            }
        }
    }
}

#[test]
fn bitparallel_lcs_tier_matches_grid_engines() {
    use lddp::problems::lcs::{lcs_length, lcs_length_bitparallel};
    let check = |a: &[u8], b: &[u8]| {
        let kernel = lddp::problems::LcsKernel::new(a.to_vec(), b.to_vec());
        let grid = ParallelEngine::new(3).solve(&kernel).unwrap();
        let expected = kernel.length_from(&grid);
        let label = format!("{}x{}", a.len(), b.len());
        assert_eq!(
            lcs_length_bitparallel(a, b),
            expected,
            "bit-parallel {label}"
        );
        assert_eq!(lcs_length(a, b), expected, "row oracle {label}");
    };
    for (a, b) in byte_pairs() {
        check(&a, &b);
    }
    // Lengths past one u64 word so the multi-word carry chain of the
    // bit-parallel rows is exercised too.
    let s = |n: usize, mul: usize| -> Vec<u8> { (0..n).map(|i| (i * mul % 5) as u8).collect() };
    check(&s(131, 3), &s(257, 7));
    check(&s(64, 3), &s(65, 7));
}

#[test]
fn bulk_path_is_bit_identical_for_sequence_problems() {
    for (a, b) in byte_pairs() {
        let label = format!("{}x{}", a.len(), b.len());
        assert_bulk_matches_scalar(
            &lddp::problems::LcsKernel::new(a.clone(), b.clone()),
            &format!("lcs {label}"),
        );
        assert_bulk_matches_scalar(
            &lddp::problems::LevenshteinKernel::new(a.clone(), b.clone()),
            &format!("levenshtein {label}"),
        );
        assert_bulk_matches_scalar(
            &lddp::problems::NeedlemanWunschKernel::new(a.clone(), b.clone()),
            &format!("needleman-wunsch {label}"),
        );
        assert_bulk_matches_scalar(
            &lddp::problems::SmithWatermanKernel::new(a, b),
            &format!("smith-waterman {label}"),
        );
    }
}

#[test]
fn bulk_path_is_bit_identical_for_dtw() {
    let series = |n: usize, mul: usize| -> Vec<f32> {
        (0..n).map(|i| (i * mul % 19) as f32 * 0.5 - 3.0).collect()
    };
    for (la, lb) in [(1, 43), (43, 1), (37, 54), (8, 8)] {
        for band in [None, Some(5)] {
            let mut kernel = lddp::problems::DtwKernel::new(series(la, 37), series(lb, 23));
            if let Some(r) = band {
                kernel = kernel.with_band(r);
            }
            let label = format!("dtw {la}x{lb} band={band:?}");
            assert_bulk_matches_scalar(&kernel, &label);
            // f32 tables must agree bit for bit (including ∞ cells
            // outside the band), not merely by PartialEq.
            let bulk = ParallelEngine::new(5).solve(&kernel).unwrap();
            let scalar = ParallelEngine::new(5)
                .with_tier(Some(lddp::core::kernel::ExecTier::Scalar))
                .solve(&kernel)
                .unwrap();
            let bits = |g: &lddp::core::grid::Grid<f32>| -> Vec<u32> {
                g.to_row_major().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&bulk), bits(&scalar), "{label}");
        }
    }
}

/// A synthetic kernel with a bulk path for every canonical pattern the
/// engine executes, using the same order-sensitive FNV-style fold as
/// `mix_kernel` — any stepping or slicing error changes the result.
struct MixWave {
    dims: lddp::core::Dims,
    set: ContributingSet,
}

impl lddp::core::kernel::Kernel for MixWave {
    type Cell = u64;

    fn dims(&self) -> lddp::core::Dims {
        self.dims
    }

    fn contributing_set(&self) -> ContributingSet {
        self.set
    }

    fn compute(&self, i: usize, j: usize, n: &lddp::core::kernel::Neighbors<u64>) -> u64 {
        let mut acc = (i as u64) << 20 | (j as u64 + 7);
        for c in lddp::core::cell::RepCell::ALL {
            if let Some(v) = n.get(c) {
                acc = acc.wrapping_mul(1099511628211).wrapping_add(*v);
            }
        }
        acc
    }

    fn wave_kernel(&self) -> Option<&dyn lddp::core::kernel::WaveKernel<Cell = u64>> {
        Some(self)
    }
}

impl lddp::core::kernel::WaveKernel for MixWave {
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
        use lddp::core::pattern::Pattern;
        let pattern = classify(self.set).expect("non-empty set");
        for p in 0..out.len() {
            let (ci, cj) = match pattern {
                Pattern::AntiDiagonal => (i - p, j0 + p),
                Pattern::Horizontal => (i, j0 + p),
                Pattern::KnightMove => (i - p, j0 + 2 * p),
                // Runs never mix the two arms of an inverted L; the arm
                // is determined by the starting cell: (i, j0) with
                // j0 ≤ i starts on the column arm (j fixed), otherwise
                // on the row arm (i fixed).
                Pattern::InvertedL => {
                    if j0 <= i {
                        (i + p, j0)
                    } else {
                        (i, j0 + p)
                    }
                }
                other => panic!("bulk never executes under {other}"),
            };
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
fn bulk_path_is_bit_identical_for_all_canonical_patterns() {
    use lddp::core::cell::RepCell;
    // One set per canonical execution pattern.
    let sets = [
        ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]), // anti-diagonal
        ContributingSet::new(&[RepCell::Nw, RepCell::N, RepCell::Ne]), // horizontal
        ContributingSet::new(&[RepCell::Nw]),                         // inverted L
        ContributingSet::FULL,                                        // knight move
    ];
    for set in sets {
        for (r, c) in [(1, 19), (19, 1), (13, 17), (37, 23)] {
            let kernel = MixWave {
                dims: lddp::core::Dims::new(r, c),
                set,
            };
            assert_bulk_matches_scalar(&kernel, &format!("{set} {r}x{c}"));
        }
    }
}

/// Solves `kernel` in rolling (wave-band) memory mode at every pinned
/// execution tier across several thread counts and requires the
/// captured corner cell to equal the full-table oracle's corner
/// exactly — and the peak working set to stay band-sized.
fn assert_rolling_corner_matches_oracle<K>(kernel: &K, label: &str)
where
    K: lddp::core::kernel::Kernel,
    K::Cell: PartialEq + std::fmt::Debug,
{
    use lddp::core::kernel::ExecTier;
    let d = kernel.dims();
    let grid = solve_row_major(kernel).unwrap();
    let want = grid.get(d.rows - 1, d.cols - 1);
    let band_bytes = lddp::core::rolling::rolling_bytes(kernel);
    for tier in [
        None,
        Some(ExecTier::Scalar),
        Some(ExecTier::Bulk),
        Some(ExecTier::Simd),
    ] {
        for threads in [1, 2, 5] {
            let got = ParallelEngine::new(threads)
                .with_tier(tier)
                .solve_rolling(kernel, None)
                .unwrap();
            assert_eq!(
                got.folded.corner,
                Some(want),
                "{label} tier={tier:?} threads={threads}"
            );
            assert_eq!(got.waves, d.rows + d.cols - 1, "{label} waves");
            assert!(
                got.peak_bytes <= band_bytes,
                "{label} peak {} > band {}",
                got.peak_bytes,
                band_bytes
            );
        }
    }
}

#[test]
fn rolling_mode_corner_matches_full_table_for_sequence_problems() {
    for (a, b) in byte_pairs() {
        let label = format!("{}x{}", a.len(), b.len());
        assert_rolling_corner_matches_oracle(
            &lddp::problems::LcsKernel::new(a.clone(), b.clone()),
            &format!("lcs {label}"),
        );
        assert_rolling_corner_matches_oracle(
            &lddp::problems::LevenshteinKernel::new(a.clone(), b.clone()),
            &format!("levenshtein {label}"),
        );
        assert_rolling_corner_matches_oracle(
            &lddp::problems::NeedlemanWunschKernel::new(a, b),
            &format!("needleman-wunsch {label}"),
        );
    }
}

#[test]
fn rolling_mode_corner_matches_full_table_for_dtw() {
    let series = |n: usize, mul: usize| -> Vec<f32> {
        (0..n).map(|i| (i * mul % 19) as f32 * 0.5 - 3.0).collect()
    };
    for (la, lb) in [(1, 43), (43, 1), (37, 54), (8, 8), (33, 65)] {
        let kernel = lddp::problems::DtwKernel::new(series(la, 37), series(lb, 23));
        // f32 corners must agree bit for bit: RollingSolve's corner is
        // compared with `==`, so also check the payload bits.
        let d = kernel.dims();
        let want = solve_row_major(&kernel)
            .unwrap()
            .get(d.rows - 1, d.cols - 1);
        let got = ParallelEngine::new(3).solve_rolling(&kernel, None).unwrap();
        assert_eq!(
            got.folded.corner.unwrap().to_bits(),
            want.to_bits(),
            "{la}x{lb}"
        );
        assert_rolling_corner_matches_oracle(&kernel, &format!("dtw {la}x{lb}"));
    }
}

#[test]
fn rolling_mode_arg_best_matches_full_table_for_smith_waterman() {
    for (a, b) in byte_pairs() {
        let kernel = lddp::problems::SmithWatermanKernel::new(a.clone(), b.clone());
        let want = solve_row_major(&kernel)
            .unwrap()
            .to_row_major()
            .iter()
            .map(|c| c.best())
            .max()
            .unwrap_or(0);
        for threads in [1, 2, 5] {
            let got = ParallelEngine::new(threads)
                .solve_rolling(&kernel, Some(|c: &lddp::problems::SwCell| c.best() as i64))
                .unwrap();
            let best = got.folded.best.map(|(_, _, c)| c.best()).unwrap_or(0);
            assert_eq!(best, want, "sw {}x{}", a.len(), b.len());
        }
    }
}

#[test]
fn rolling_mode_rejects_non_wavefront_kernels() {
    // A Vertical set has no canonical wavefront of its own (the
    // framework runs it through the transpose adapter), so both memory
    // modes must refuse it rather than miscompute. Knight-move
    // dithering, by contrast, rolls on a ring of four waves.
    let set = ContributingSet::new(&[RepCell::W, RepCell::Nw]);
    let kernel = mix_kernel(Dims::new(9, 12), set);
    let engine = ParallelEngine::new(2);
    assert!(engine.solve_rolling(&kernel, None).is_err());
    assert!(engine.solve(&kernel).is_err());
    let dither = lddp::problems::DitherKernel::gradient(9, 12);
    let want = solve_row_major(&dither).unwrap().get(8, 11);
    let got = engine.solve_rolling(&dither, None).unwrap();
    assert_eq!(got.folded.corner, Some(want));
    assert_eq!(got.peak_bytes, lddp::core::rolling::rolling_bytes(&dither));
}

#[test]
fn rolling_mode_survives_chaos_with_oracle_answers() {
    use lddp::chaos::{FaultPlan, FaultPlanConfig};
    let s = |n: usize, mul: usize| -> Vec<u8> { (0..n).map(|i| (i * mul % 7) as u8).collect() };
    let kernel = lddp::problems::LcsKernel::new(s(61, 3), s(47, 5));
    let d = kernel.dims();
    let want = solve_row_major(&kernel)
        .unwrap()
        .get(d.rows - 1, d.cols - 1);
    let cfg = FaultPlanConfig {
        worker_panic_prob: 0.02,
        bulk_panic_prob: 0.1,
        ..FaultPlanConfig::none()
    };
    let mut degradations = 0usize;
    for seed in 0..24u64 {
        let plan = FaultPlan::new(seed, cfg);
        let spec = lddp::parallel::SolveSpec {
            injector: Some(&plan),
            ..lddp::parallel::SolveSpec::rolling(lddp::core::rolling::Fold::Corner)
        };
        let got = ParallelEngine::new(4).run(&kernel, &spec).unwrap();
        let steps = got.degraded;
        assert_eq!(got.folded.corner, Some(want), "seed {seed} steps {steps:?}");
        degradations += steps.len();
    }
    // With these rates the ladder must actually fire somewhere in the
    // campaign — otherwise the test silently stopped exercising it.
    assert!(degradations > 0, "no degradation rung ever fired");
}

#[test]
fn thread_counts_do_not_change_framework_inputs() {
    // The parallel engine's result feeds nothing back into scheduling,
    // but assert solver outputs are invariant across thread counts for a
    // knight-move kernel (the most complex wave geometry).
    let kernel = lddp::problems::DitherKernel::gradient(24, 24);
    let base = ParallelEngine::new(1)
        .solve(&kernel)
        .unwrap()
        .to_row_major();
    for threads in [2, 4, 7] {
        let got = ParallelEngine::new(threads).solve(&kernel).unwrap();
        assert_eq!(got.to_row_major(), base, "threads={threads}");
    }
}
