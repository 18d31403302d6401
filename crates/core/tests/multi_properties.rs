//! Property tests for the k-way multi-accelerator schedule
//! ([`lddp_core::multi::MultiPlan`]), written as deterministic
//! exhaustive sweeps (no external test dependencies) over patterns,
//! contributing sets, dimensions, ramp lengths, and band boundaries.
//!
//! The three invariants a band partition must uphold:
//!
//! 1. **Partition** — `assignment(w)` returns per-device ranges that
//!    are pairwise disjoint and tile the wavefront exactly;
//! 2. **Consistency** — the range a device receives contains exactly
//!    the wave positions whose cells it `owner()`s;
//! 3. **Locality** — `transfers(w)` lists only genuine cross-owner
//!    dependency edges (producer owns the source, consumer owns the
//!    reader, producer ≠ consumer), covers *all* such edges, and keeps
//!    each cell list deduplicated and sorted.

use lddp_core::cell::RepCell::{Ne, Nw, N, W};
use lddp_core::cell::{ContributingSet, RepCell};
use lddp_core::multi::{MultiPlan, MultiTransfer};
use lddp_core::pattern::Pattern;
use lddp_core::schedule::max_t_switch;
use lddp_core::wavefront::{self, Dims};

fn set(cells: &[RepCell]) -> ContributingSet {
    ContributingSet::new(cells)
}

/// Canonical pattern / compatible contributing set pairs to sweep.
fn cases() -> Vec<(Pattern, ContributingSet)> {
    vec![
        (Pattern::AntiDiagonal, set(&[W, Nw, N])),
        (Pattern::AntiDiagonal, set(&[W, N])),
        (Pattern::AntiDiagonal, set(&[Nw])),
        (Pattern::Horizontal, set(&[Nw, N, Ne])),
        (Pattern::Horizontal, set(&[N])),
        (Pattern::Horizontal, set(&[Nw, Ne])),
        (Pattern::KnightMove, set(&[W, Ne])),
        (Pattern::KnightMove, set(&[W, Nw, N, Ne])),
        (Pattern::InvertedL, set(&[Nw])),
    ]
}

/// Dimension / boundary configurations, including degenerate bands
/// (empty first band, empty last band, duplicate boundaries, single
/// device).
fn configs() -> Vec<(Dims, Vec<usize>)> {
    vec![
        (Dims::new(6, 7), vec![]),
        (Dims::new(6, 7), vec![3]),
        (Dims::new(8, 10), vec![2, 6]),
        (Dims::new(8, 10), vec![0, 5]),
        (Dims::new(8, 10), vec![4, 4]),
        (Dims::new(9, 11), vec![1, 4, 8]),
        (Dims::new(9, 11), vec![11]),
        (Dims::new(12, 5), vec![2, 3]),
        (Dims::new(5, 12), vec![3, 6, 9, 12]),
    ]
}

/// Legal ramp lengths to try for a pattern at the given dims.
fn switches(pattern: Pattern, dims: Dims) -> Vec<usize> {
    let max = max_t_switch(pattern, dims);
    let mut v = vec![0];
    if max > 0 {
        v.push(max / 2);
        v.push(max);
    }
    v.dedup();
    v
}

fn plans() -> impl Iterator<Item = (MultiPlan, Pattern, ContributingSet, Dims)> {
    cases().into_iter().flat_map(|(pattern, s)| {
        configs().into_iter().flat_map(move |(dims, boundaries)| {
            switches(pattern, dims).into_iter().map(move |t_switch| {
                let plan = MultiPlan::new(pattern, s, dims, t_switch, boundaries.clone())
                    .unwrap_or_else(|e| panic!("{pattern} {s} {dims:?} t_switch={t_switch}: {e}"));
                (plan, pattern, s, dims)
            })
        })
    })
}

#[test]
fn assignments_are_disjoint_and_tile_every_wave() {
    for (plan, pattern, _s, dims) in plans() {
        let mut total = 0usize;
        for w in 0..plan.num_waves() {
            let len = pattern.wave_len(dims.rows, dims.cols, w);
            let ranges = plan.assignment(w);
            assert_eq!(ranges.len(), plan.devices());
            // Contiguous ascending prefixes: disjoint by construction,
            // and together they tile 0..len exactly.
            let mut next = 0usize;
            for r in &ranges {
                assert!(r.start <= r.end, "{pattern} wave {w}: inverted range {r:?}");
                assert_eq!(
                    r.start, next,
                    "{pattern} wave {w}: gap or overlap at position {next}"
                );
                next = r.end;
            }
            assert_eq!(next, len, "{pattern} wave {w}: ranges do not tile the wave");
            total += len;
        }
        // Summed over all waves, the wavefront enumerates each cell once.
        assert_eq!(total, dims.rows * dims.cols, "{pattern} {dims:?}");
        assert_eq!(
            plan.cell_counts().iter().sum::<usize>(),
            dims.rows * dims.cols
        );
    }
}

#[test]
fn assignment_ranges_agree_with_cell_ownership() {
    for (plan, pattern, _s, dims) in plans() {
        for w in 0..plan.num_waves() {
            let ranges = plan.assignment(w);
            let cells: Vec<(usize, usize)> = wavefront::wave_cells(pattern, dims, w).collect();
            for (device, r) in ranges.iter().enumerate() {
                for pos in r.clone() {
                    let (i, j) = cells[pos];
                    assert_eq!(
                        plan.owner(i, j),
                        device,
                        "{pattern} wave {w}: position {pos} = ({i},{j}) assigned to \
                         device {device} but owned elsewhere"
                    );
                }
            }
        }
    }
}

#[test]
fn transfers_cross_owner_boundaries_exactly() {
    for (plan, pattern, s, dims) in plans() {
        for w in 0..plan.num_waves() {
            let transfers = plan.transfers(w);

            // Soundness: each listed transfer is a genuine cross-owner
            // dependency edge of this wave, and the producer really owns
            // every cell it ships.
            for t in &transfers {
                assert_ne!(t.from, t.to, "{pattern} wave {w}: self-transfer {t:?}");
                assert!(!t.cells.is_empty(), "{pattern} wave {w}: empty transfer");
                let mut sorted = t.cells.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted, t.cells, "{pattern} wave {w}: not canonical {t:?}");
                for &(si, sj) in &t.cells {
                    assert_eq!(
                        plan.owner(si, sj),
                        t.from,
                        "{pattern} wave {w}: shipped cell ({si},{sj}) not owned by d{}",
                        t.from
                    );
                    let feeds_consumer = wavefront::wave_cells(pattern, dims, w).any(|(i, j)| {
                        plan.owner(i, j) == t.to
                            && s.iter()
                                .any(|dep| dep.source(i, j, dims.rows, dims.cols) == Some((si, sj)))
                    });
                    assert!(
                        feeds_consumer,
                        "{pattern} wave {w}: ({si},{sj}) shipped to d{} feeds none of \
                         its cells",
                        t.to
                    );
                }
            }

            // Completeness: every cross-owner dependency of the wave is
            // listed.
            for (i, j) in wavefront::wave_cells(pattern, dims, w) {
                let reader = plan.owner(i, j);
                for dep in s.iter() {
                    if let Some(src) = dep.source(i, j, dims.rows, dims.cols) {
                        let producer = plan.owner(src.0, src.1);
                        if producer != reader {
                            assert!(
                                transfers.iter().any(|t| t.from == producer
                                    && t.to == reader
                                    && t.cells.contains(&src)),
                                "{pattern} wave {w}: dependency ({i},{j}) <- {src:?} \
                                 crosses d{producer}->d{reader} but is not transferred"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The cell walk `MultiPlan` used to price a wave with, kept as the
/// reference for its closed forms: every cell of the wave counted into
/// its owner's band.
fn walked_assignment(plan: &MultiPlan, w: usize) -> Vec<std::ops::Range<usize>> {
    let mut counts = vec![0usize; plan.devices()];
    for (i, j) in wavefront::wave_cells(plan.pattern(), plan.dims(), w) {
        counts[plan.owner(i, j)] += 1;
    }
    let mut start = 0;
    counts
        .into_iter()
        .map(|c| {
            start += c;
            start - c..start
        })
        .collect()
}

/// The reference transfers: every dependency of every cell of the wave,
/// in canonical order, grouped by (producer, consumer) as first met.
fn walked_transfers(plan: &MultiPlan, w: usize) -> Vec<MultiTransfer> {
    let dims = plan.dims();
    let mut out: Vec<MultiTransfer> = Vec::new();
    for (i, j) in wavefront::wave_cells(plan.pattern(), dims, w) {
        let to = plan.owner(i, j);
        for dep in plan.set().iter() {
            if let Some(src) = dep.source(i, j, dims.rows, dims.cols) {
                let from = plan.owner(src.0, src.1);
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

#[test]
fn closed_forms_match_the_cell_walk() {
    for (pattern, s) in cases() {
        for rows in 1..14 {
            for cols in 1..14 {
                let dims = Dims::new(rows, cols);
                let boundaries = [
                    vec![],
                    vec![0],
                    vec![cols],
                    vec![0, cols],
                    vec![cols / 2, cols / 2],
                    vec![1, cols - 1],
                    vec![cols / 3, 2 * cols / 3],
                    vec![1, 2, 3],
                ];
                for mut b in boundaries {
                    // Within the columns, non-decreasing: a legal split.
                    b.iter_mut().for_each(|x| *x = (*x).min(cols));
                    b.sort_unstable();
                    for t_switch in switches(pattern, dims) {
                        let plan = MultiPlan::new(pattern, s, dims, t_switch, b.clone())
                            .unwrap_or_else(|e| panic!("{pattern} {s} {dims:?} {b:?}: {e}"));
                        for w in 0..plan.num_waves() {
                            let label = format!(
                                "{pattern} {s} {dims:?} {b:?} t_switch={t_switch} wave {w}"
                            );
                            assert_eq!(plan.assignment(w), walked_assignment(&plan, w), "{label}");
                            assert_eq!(plan.transfers(w), walked_transfers(&plan, w), "{label}");
                        }
                    }
                }
            }
        }
    }
}
