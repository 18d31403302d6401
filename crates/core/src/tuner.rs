//! Empirical parameter tuning — §V-A of the paper.
//!
//! The values of `t_switch` and `t_share` are found empirically: first fix
//! `t_share = 0` and sweep `t_switch`; the running-time curve is concave
//! (Fig 7) and its minimum gives the optimal `t_switch`. Then fix that
//! value and sweep `t_share` the same way.
//!
//! The tuner is executor-agnostic: it takes a closure mapping
//! [`ScheduleParams`] to a measured (or modelled) running time, so the
//! same procedure drives the discrete-event simulator, the real thread
//! engine, or a unit-test stub.

use crate::error::{Error, Result};
use crate::schedule::ScheduleParams;
use lddp_trace::{tracks, InstantEvent, NullSink, TraceSink};

/// One sampled point of a tuning sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The candidate parameter value.
    pub value: usize,
    /// Measured running time (seconds, wall or virtual).
    pub time: f64,
}

/// Outcome of the two-stage sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneResult {
    /// The chosen parameters.
    pub params: ScheduleParams,
    /// The `t_switch` sweep (Fig 7): time for each candidate at
    /// `t_share = 0`.
    pub t_switch_curve: Vec<SweepPoint>,
    /// The `t_share` sweep at the chosen `t_switch`.
    pub t_share_curve: Vec<SweepPoint>,
}

/// Runs the paper's two-stage tuning procedure.
///
/// ```
/// use lddp_core::tuner::tune;
///
/// // A synthetic cost surface with its optimum at (6, 16).
/// let result = tune(&[0, 2, 4, 6, 8], &[0, 8, 16, 32], |p| {
///     let s = p.t_switch as f64 - 6.0;
///     let h = p.t_share as f64 - 16.0;
///     s * s + h * h / 8.0 + 1.0
/// })
/// .unwrap();
/// assert_eq!(result.params.t_switch, 6);
/// assert_eq!(result.params.t_share, 16);
/// ```
///
/// `eval` is called once per candidate; it should run (or model) the
/// heterogeneous algorithm with the given parameters and return its time.
/// Both candidate lists must be non-empty. Ties pick the smaller
/// parameter value (less CPU involvement).
pub fn tune(
    t_switch_candidates: &[usize],
    t_share_candidates: &[usize],
    eval: impl FnMut(ScheduleParams) -> f64,
) -> Result<TuneResult> {
    tune_with_sink(t_switch_candidates, t_share_candidates, eval, &NullSink)
}

/// [`tune`] with every evaluated [`SweepPoint`] recorded into `sink`:
/// one `tuner.sweep` instant event per evaluation (args: `stage`,
/// `value`, `time_s`) on the tuner track, a `tuner.time_s` counter
/// series over the evaluation sequence, and the
/// `lddp_tuner_evals_total` counter — enough to replay and plot the
/// Fig 7 curves from a trace.
pub fn tune_with_sink(
    t_switch_candidates: &[usize],
    t_share_candidates: &[usize],
    mut eval: impl FnMut(ScheduleParams) -> f64,
    sink: &dyn TraceSink,
) -> Result<TuneResult> {
    if t_switch_candidates.is_empty() || t_share_candidates.is_empty() {
        return Err(Error::EmptyTuningRange);
    }
    let mut seq = 0usize;
    let mut eval = |params: ScheduleParams, stage: &'static str, value: usize| -> f64 {
        let time = eval(params);
        record_sweep_point(sink, &mut seq, stage, value, time);
        time
    };
    let t_switch_curve: Vec<SweepPoint> = t_switch_candidates
        .iter()
        .map(|&value| SweepPoint {
            value,
            time: eval(ScheduleParams::new(value, 0), "t_switch", value),
        })
        .collect();
    let best_switch = argmin(&t_switch_curve);
    let t_share_curve: Vec<SweepPoint> = t_share_candidates
        .iter()
        .map(|&value| SweepPoint {
            value,
            time: eval(ScheduleParams::new(best_switch, value), "t_share", value),
        })
        .collect();
    let best_share = argmin(&t_share_curve);
    Ok(TuneResult {
        params: ScheduleParams::new(best_switch, best_share),
        t_switch_curve,
        t_share_curve,
    })
}

/// Emits one evaluated sweep point into `sink`. The "time axis" of the
/// tuner track is the evaluation sequence number (there is no shared
/// clock across candidate runs).
fn record_sweep_point(
    sink: &dyn TraceSink,
    seq: &mut usize,
    stage: &'static str,
    value: usize,
    time_s: f64,
) {
    if sink.enabled() {
        sink.instant(
            InstantEvent::new("tuner.sweep", tracks::TUNER, *seq as f64)
                .with_arg("stage", stage)
                .with_arg("value", value)
                .with_arg("time_s", time_s),
        );
        sink.sample(tracks::TUNER, "tuner.time_s", *seq as f64, time_s);
        sink.count("lddp_tuner_evals_total", 1);
    }
    *seq += 1;
}

/// Like [`tune`], but exploits the concavity of the Fig 7 curves:
/// instead of a fixed candidate ladder, each stage runs a ternary search
/// over an integer range, converging on the exact (unimodal) minimum in
/// `O(log range)` evaluations. Falls back gracefully on noisy/flat
/// curves — it still returns *a* sampled minimum, just not necessarily
/// the global one if the curve is not unimodal.
pub fn tune_concave(
    t_switch_range: (usize, usize),
    t_share_range: (usize, usize),
    eval: impl FnMut(ScheduleParams) -> f64,
) -> Result<TuneResult> {
    tune_concave_with_sink(t_switch_range, t_share_range, eval, &NullSink)
}

/// [`tune_concave`] with every evaluated [`SweepPoint`] recorded into
/// `sink` — see [`tune_with_sink`] for the event catalog.
pub fn tune_concave_with_sink(
    t_switch_range: (usize, usize),
    t_share_range: (usize, usize),
    mut eval: impl FnMut(ScheduleParams) -> f64,
    sink: &dyn TraceSink,
) -> Result<TuneResult> {
    if t_switch_range.0 > t_switch_range.1 || t_share_range.0 > t_share_range.1 {
        return Err(Error::EmptyTuningRange);
    }
    let mut seq = 0usize;
    let mut t_switch_curve = Vec::new();
    let best_switch = ternary_min(t_switch_range, |v| {
        let t = eval(ScheduleParams::new(v, 0));
        record_sweep_point(sink, &mut seq, "t_switch", v, t);
        t_switch_curve.push(SweepPoint { value: v, time: t });
        t
    });
    let mut t_share_curve = Vec::new();
    let best_share = ternary_min(t_share_range, |v| {
        let t = eval(ScheduleParams::new(best_switch, v));
        record_sweep_point(sink, &mut seq, "t_share", v, t);
        t_share_curve.push(SweepPoint { value: v, time: t });
        t
    });
    t_switch_curve.sort_by_key(|p| p.value);
    t_switch_curve.dedup_by_key(|p| p.value);
    t_share_curve.sort_by_key(|p| p.value);
    t_share_curve.dedup_by_key(|p| p.value);
    Ok(TuneResult {
        params: ScheduleParams::new(best_switch, best_share),
        t_switch_curve,
        t_share_curve,
    })
}

/// Integer ternary search for the minimum of a unimodal function on
/// `[lo, hi]`.
fn ternary_min(range: (usize, usize), mut f: impl FnMut(usize) -> f64) -> usize {
    let (mut lo, mut hi) = range;
    while hi - lo > 2 {
        let third = (hi - lo) / 3;
        let m1 = lo + third;
        let m2 = hi - third;
        if f(m1) <= f(m2) {
            hi = m2 - 1;
        } else {
            lo = m1 + 1;
        }
    }
    // Evaluate the final few points exactly.
    let mut best = lo;
    let mut best_t = f(lo);
    for v in lo + 1..=hi {
        let t = f(v);
        if t < best_t {
            best = v;
            best_t = t;
        }
    }
    best
}

/// Candidate value with the minimum time; ties prefer the smaller value.
fn argmin(points: &[SweepPoint]) -> usize {
    let mut best = &points[0];
    for p in &points[1..] {
        if p.time < best.time || (p.time == best.time && p.value < best.value) {
            best = p;
        }
    }
    best.value
}

/// A geometric ladder of `t_switch` candidates: 0, 1, 2, 4, … up to
/// `max_waves / 2` (the largest legal value for ramp patterns), always
/// including the endpoint.
pub fn t_switch_candidates(num_waves: usize) -> Vec<usize> {
    let cap = num_waves / 2;
    let mut v = vec![0];
    let mut x = 1;
    while x < cap {
        v.push(x);
        x *= 2;
    }
    if cap > 0 {
        v.push(cap);
    }
    v.dedup();
    v
}

/// A geometric ladder of `t_share` candidates: 0, 1, 2, 4, … up to
/// `cols`, always including the endpoint (pure-CPU).
pub fn t_share_candidates(cols: usize) -> Vec<usize> {
    let mut v = vec![0];
    let mut x = 1;
    while x < cols {
        v.push(x);
        x *= 2;
    }
    if cols > 0 {
        v.push(cols);
    }
    v.dedup();
    v
}

/// Checks that a sweep is *concave-up around its minimum* in the loose
/// empirical sense of Fig 7: times strictly left of the argmin are
/// non-increasing and times right of it are non-decreasing, up to a
/// relative tolerance `tol` (measurement noise).
pub fn is_concave_around_min(points: &[SweepPoint], tol: f64) -> bool {
    if points.len() < 2 {
        return true;
    }
    let min_idx = points
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.time.total_cmp(&b.1.time))
        .map(|(i, _)| i)
        .unwrap_or(0);
    let ok_left = points[..=min_idx]
        .windows(2)
        .all(|w| w[1].time <= w[0].time * (1.0 + tol));
    let ok_right = points[min_idx..]
        .windows(2)
        .all(|w| w[1].time >= w[0].time * (1.0 - tol));
    ok_left && ok_right
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_candidates_error() {
        assert_eq!(
            tune(&[], &[0], |_| 0.0).unwrap_err(),
            Error::EmptyTuningRange
        );
        assert_eq!(
            tune(&[0], &[], |_| 0.0).unwrap_err(),
            Error::EmptyTuningRange
        );
    }

    #[test]
    fn finds_the_minimum_of_a_concave_curve() {
        // time(t_switch) is a parabola with minimum at 6; t_share curve
        // has minimum at 16.
        let result = tune(&[0, 2, 4, 6, 8, 10], &[0, 8, 16, 32], |p| {
            let s = p.t_switch as f64;
            let base = (s - 6.0) * (s - 6.0) + 100.0;
            let sh = p.t_share as f64;
            base + (sh - 16.0) * (sh - 16.0) / 10.0
        })
        .unwrap();
        assert_eq!(result.params, ScheduleParams::new(6, 16));
        assert_eq!(result.t_switch_curve.len(), 6);
        assert_eq!(result.t_share_curve.len(), 4);
    }

    #[test]
    fn first_stage_runs_with_t_share_zero() {
        let mut seen = Vec::new();
        let _ = tune(&[0, 1, 2], &[0, 5], |p| {
            seen.push(p);
            p.t_switch as f64
        })
        .unwrap();
        // First three calls must all have t_share = 0.
        assert!(seen[..3].iter().all(|p| p.t_share == 0));
        // Remaining calls fix t_switch at the winner (0).
        assert!(seen[3..].iter().all(|p| p.t_switch == 0));
    }

    #[test]
    fn ties_prefer_smaller_values() {
        let result = tune(&[0, 4, 8], &[0, 2], |_| 1.0).unwrap();
        assert_eq!(result.params, ScheduleParams::new(0, 0));
    }

    #[test]
    fn eval_call_count_is_sum_of_sweeps() {
        let mut calls = 0;
        let _ = tune(&[0, 1, 2, 3], &[0, 1, 2], |_| {
            calls += 1;
            0.0
        })
        .unwrap();
        assert_eq!(calls, 4 + 3);
    }

    #[test]
    fn switch_ladder_covers_range() {
        let v = t_switch_candidates(100);
        assert_eq!(v.first(), Some(&0));
        assert_eq!(v.last(), Some(&50));
        assert!(v.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(t_switch_candidates(0), vec![0]);
        assert_eq!(t_switch_candidates(2), vec![0, 1]);
    }

    #[test]
    fn share_ladder_covers_range() {
        let v = t_share_candidates(4096);
        assert_eq!(v.first(), Some(&0));
        assert_eq!(v.last(), Some(&4096));
        assert!(v.contains(&1024));
        assert_eq!(t_share_candidates(0), vec![0]);
        assert_eq!(t_share_candidates(1), vec![0, 1]);
    }

    #[test]
    fn ternary_search_finds_exact_minimum() {
        // A strictly convex parabola over a wide range.
        let result = tune_concave((0, 5000), (0, 3000), |p| {
            let s = p.t_switch as f64;
            let sh = p.t_share as f64;
            (s - 1234.0) * (s - 1234.0) + (sh - 777.0) * (sh - 777.0) / 7.0 + 10.0
        })
        .unwrap();
        assert_eq!(result.params, ScheduleParams::new(1234, 777));
        // Logarithmically many samples, not thousands.
        assert!(result.t_switch_curve.len() < 60);
        assert!(result.t_share_curve.len() < 60);
    }

    #[test]
    fn ternary_search_handles_edge_minima() {
        // Monotone increasing → minimum at the left edge.
        let r = tune_concave((0, 100), (0, 100), |p| (p.t_switch + p.t_share) as f64).unwrap();
        assert_eq!(r.params, ScheduleParams::new(0, 0));
        // Monotone decreasing → right edge.
        let r = tune_concave((0, 100), (0, 100), |p| -((p.t_switch + p.t_share) as f64)).unwrap();
        assert_eq!(r.params, ScheduleParams::new(100, 100));
    }

    #[test]
    fn ternary_rejects_inverted_ranges() {
        assert_eq!(
            tune_concave((5, 4), (0, 1), |_| 0.0).unwrap_err(),
            Error::EmptyTuningRange
        );
        assert_eq!(
            tune_concave((0, 1), (7, 2), |_| 0.0).unwrap_err(),
            Error::EmptyTuningRange
        );
    }

    #[test]
    fn ternary_degenerate_single_point() {
        let r = tune_concave((3, 3), (5, 5), |_| 1.0).unwrap();
        assert_eq!(r.params, ScheduleParams::new(3, 5));
    }

    #[test]
    fn ternary_curves_are_sorted_unique() {
        let r = tune_concave((0, 500), (0, 500), |p| {
            ((p.t_switch as f64) - 200.0).abs() + ((p.t_share as f64) - 300.0).abs()
        })
        .unwrap();
        for curve in [&r.t_switch_curve, &r.t_share_curve] {
            assert!(curve.windows(2).all(|w| w[0].value < w[1].value));
        }
    }

    #[test]
    fn sink_records_every_sweep_point() {
        let rec = lddp_trace::live::LiveRegistry::new();
        let result = tune_with_sink(
            &[0, 2, 4],
            &[0, 8],
            |p| (p.t_switch + p.t_share) as f64,
            &rec,
        )
        .unwrap();
        let data = rec.flight().snapshot_since(f64::NEG_INFINITY);
        // One instant + one counter sample per evaluation.
        assert_eq!(data.instants.len(), 3 + 2);
        assert_eq!(data.samples.len(), 3 + 2);
        assert_eq!(rec.counter("lddp_tuner_evals_total", &[], "").get(), 5);
        // Sequence numbers are the instants' timestamps, in order.
        let ts: Vec<f64> = data.instants.iter().map(|e| e.t_s).collect();
        assert_eq!(ts, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        // Stages recorded match the two-phase procedure.
        let stage_of = |i: usize| match &data.instants[i].args[0].1 {
            lddp_trace::ArgValue::Str(s) => s.clone(),
            other => panic!("unexpected arg {other:?}"),
        };
        assert_eq!(stage_of(0), "t_switch");
        assert_eq!(stage_of(4), "t_share");
        // The traced variant agrees with the untraced one.
        let plain = tune(&[0, 2, 4], &[0, 8], |p| (p.t_switch + p.t_share) as f64).unwrap();
        assert_eq!(plain.params, result.params);
    }

    #[test]
    fn concave_sink_matches_curves() {
        let rec = lddp_trace::live::LiveRegistry::new();
        let r = tune_concave_with_sink(
            (0, 50),
            (0, 50),
            |p| ((p.t_switch as f64) - 20.0).powi(2) + ((p.t_share as f64) - 10.0).powi(2),
            &rec,
        )
        .unwrap();
        assert_eq!(r.params, ScheduleParams::new(20, 10));
        let data = rec.flight().snapshot_since(f64::NEG_INFINITY);
        // Every ternary-search probe was recorded (curves are deduped,
        // the sink stream is not — so it has at least as many points).
        assert!(data.instants.len() >= r.t_switch_curve.len() + r.t_share_curve.len());
        let evals = rec.counter("lddp_tuner_evals_total", &[], "").get();
        assert_eq!(evals as usize, data.instants.len());
    }

    #[test]
    fn concavity_check_accepts_fig7_shapes() {
        let pts = |ts: &[(usize, f64)]| -> Vec<SweepPoint> {
            ts.iter()
                .map(|&(value, time)| SweepPoint { value, time })
                .collect()
        };
        assert!(is_concave_around_min(
            &pts(&[(0, 9.0), (1, 5.0), (2, 3.0), (4, 4.0), (8, 8.0)]),
            0.0
        ));
        // A second dip breaks it.
        assert!(!is_concave_around_min(
            &pts(&[(0, 9.0), (1, 3.0), (2, 6.0), (4, 4.0), (8, 8.0)]),
            0.0
        ));
        // Noise within tolerance is accepted.
        assert!(is_concave_around_min(
            &pts(&[(0, 9.0), (1, 5.0), (2, 3.0), (4, 2.95), (8, 8.0)]),
            0.05
        ));
        assert!(is_concave_around_min(&pts(&[(0, 1.0)]), 0.0));
    }
}
