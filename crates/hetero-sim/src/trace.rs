//! Bridges executor output into `lddp-trace` events: one span per
//! phase, per-wave compute spans on the CPU/GPU tracks, transfer spans
//! and cumulative byte counters on the Link track — all on the *model*
//! clock, so a Perfetto view of a simulated run shows exactly the
//! three-phase structure of the paper's Figs 3–6 — plus the run's
//! `lddp_sim_*` totals and per-wave span histogram.
//!
//! The emitters consume the [`WaveRecord`](crate::exec::WaveRecord)
//! stream an executor produces with `record_timeline` on; they do not
//! change how execution is accounted. A disabled sink returns
//! immediately.

use crate::exec::WaveRecord;
use lddp_core::schedule::{PhaseKind, PhaseSpan};
use lddp_trace::{tracks, Span, TraceSink};

/// Emits the standard event set for one simulated run.
///
/// `timeline` must be in wave order (what `record_timeline` produces);
/// `phases` is the plan's phase structure (pass `&[]` for single-device
/// runs); `setup_s` is the up-front input-upload + result-download time
/// the executor charged before the first wave (rendered as an `io`
/// span on the Link track, with the wave clock starting after it).
pub fn record_run(
    sink: &dyn TraceSink,
    timeline: &[WaveRecord],
    phases: &[PhaseSpan],
    setup_s: f64,
) {
    if !sink.enabled() {
        return;
    }
    if setup_s > 0.0 {
        sink.span(Span::new("io.setup", tracks::LINK, 0.0, setup_s));
    }

    // Wave start times on the model clock: prefix sums of wave spans.
    let mut starts = Vec::with_capacity(timeline.len() + 1);
    let mut t = setup_s;
    for r in timeline {
        starts.push(t);
        t += r.span_s;
    }
    starts.push(t);
    let total_s = t;

    let mut bytes_to_gpu = 0u64;
    let mut bytes_to_cpu = 0u64;
    let mut cpu_cells = 0u64;
    let mut gpu_cells = 0u64;
    for (idx, r) in timeline.iter().enumerate() {
        let start = starts[idx];
        if r.cpu_s > 0.0 {
            sink.span(
                Span::new("wave", tracks::CPU, start, r.cpu_s)
                    .with_arg("wave", r.wave)
                    .with_arg("cells", r.cpu_cells),
            );
        }
        if r.gpu_s > 0.0 {
            sink.span(
                Span::new("wave", tracks::GPU, start, r.gpu_s)
                    .with_arg("wave", r.wave)
                    .with_arg("cells", r.gpu_cells),
            );
        }
        if r.copy_s > 0.0 || r.bytes_to_gpu + r.bytes_to_cpu > 0 {
            sink.span(
                Span::new("copy", tracks::LINK, start, r.copy_s)
                    .with_arg("wave", r.wave)
                    .with_arg("bytes_to_gpu", r.bytes_to_gpu)
                    .with_arg("bytes_to_cpu", r.bytes_to_cpu),
            );
            bytes_to_gpu += r.bytes_to_gpu as u64;
            bytes_to_cpu += r.bytes_to_cpu as u64;
            sink.sample(
                tracks::LINK,
                "bytes_to_gpu",
                starts[idx + 1],
                bytes_to_gpu as f64,
            );
            sink.sample(
                tracks::LINK,
                "bytes_to_cpu",
                starts[idx + 1],
                bytes_to_cpu as f64,
            );
        }
        cpu_cells += r.cpu_cells as u64;
        gpu_cells += r.gpu_cells as u64;
        sink.observe("lddp_sim_wave_span_seconds", r.span_s);
    }

    // Phase spans over the same clock. A phase's wave range indexes the
    // timeline directly for full runs; clamp defensively for partial
    // timelines.
    for phase in phases {
        let lo = phase.waves.start.min(timeline.len());
        let hi = phase.waves.end.min(timeline.len());
        if lo >= hi {
            continue;
        }
        let start = starts[lo];
        let end = if hi == timeline.len() {
            total_s
        } else {
            starts[hi]
        };
        let name = match phase.kind {
            PhaseKind::CpuOnly => "phase.cpu_only",
            PhaseKind::Shared => "phase.shared",
        };
        sink.span(
            Span::new(name, tracks::SCHEDULE, start, end - start)
                .with_arg("wave_lo", phase.waves.start)
                .with_arg("wave_hi", phase.waves.end),
        );
    }

    sink.count("lddp_sim_waves_total", timeline.len() as u64);
    sink.count("lddp_sim_cpu_cells_total", cpu_cells);
    sink.count("lddp_sim_gpu_cells_total", gpu_cells);
    sink.count("lddp_sim_bytes_to_gpu_total", bytes_to_gpu);
    sink.count("lddp_sim_bytes_to_cpu_total", bytes_to_cpu);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_hetero, ExecOptions};
    use crate::platform::hetero_high;
    use lddp_core::cell::{ContributingSet, RepCell};
    use lddp_core::kernel::{ClosureKernel, Neighbors};
    use lddp_core::pattern::Pattern;
    use lddp_core::schedule::{Plan, ScheduleParams};
    use lddp_core::wavefront::Dims;
    use lddp_trace::live::LiveRegistry;
    use lddp_trace::{NullSink, TraceData};

    /// The registry's timeline and one of its counters.
    fn collected(reg: &LiveRegistry, counter: &str) -> (TraceData, u64) {
        let data = reg.flight().snapshot_since(f64::NEG_INFINITY);
        (data, reg.counter(counter, &[], "").get())
    }

    fn traced_run(dims: Dims, params: ScheduleParams) -> (LiveRegistry, usize) {
        let set = ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]);
        let kernel =
            ClosureKernel::new(dims, set, |_i, _j, _n: &Neighbors<u32>| 0u32).with_cost_ops(8);
        let plan = Plan::new(Pattern::AntiDiagonal, set, dims, params).unwrap();
        let opts = ExecOptions {
            record_timeline: true,
            ..Default::default()
        };
        let report = run_hetero(&kernel, &plan, &hetero_high(), &opts).unwrap();
        let rec = LiveRegistry::with_flight_capacity(usize::MAX);
        record_run(
            &rec,
            &report.timeline,
            &plan.phases(),
            report.breakdown.setup_s,
        );
        (rec, report.timeline.len())
    }

    #[test]
    fn emits_one_span_per_schedule_phase() {
        let (rec, _) = traced_run(Dims::new(64, 64), ScheduleParams::new(8, 16));
        let data = rec.flight().snapshot_since(f64::NEG_INFINITY);
        // Ramp-up/down anti-diagonal: CpuOnly, Shared, CpuOnly.
        let phase_spans: Vec<_> = data
            .spans
            .iter()
            .filter(|s| s.track == tracks::SCHEDULE)
            .collect();
        assert_eq!(phase_spans.len(), 3);
        assert_eq!(phase_spans[0].name, "phase.cpu_only");
        assert_eq!(phase_spans[1].name, "phase.shared");
        assert_eq!(phase_spans[2].name, "phase.cpu_only");
        // Phases tile the post-setup run without overlap.
        assert!(phase_spans[0].start_s >= 0.0);
        for w in phase_spans.windows(2) {
            assert!((w[0].end_s() - w[1].start_s).abs() < 1e-12);
        }
    }

    #[test]
    fn wave_spans_land_on_engine_tracks_and_cover_all_waves() {
        let (rec, waves) = traced_run(Dims::new(32, 32), ScheduleParams::new(4, 8));
        let (data, sim_waves) = collected(&rec, "lddp_sim_waves_total");
        let cpu: Vec<_> = data
            .spans_named("wave")
            .filter(|s| s.track == tracks::CPU)
            .collect();
        let gpu: Vec<_> = data
            .spans_named("wave")
            .filter(|s| s.track == tracks::GPU)
            .collect();
        // The CPU-only ramps (t_switch = 4 on both ends) always have CPU
        // spans; late waves whose columns all fall right of the band may
        // not. Shared waves add GPU work.
        assert!(cpu.len() >= 8 && cpu.len() <= waves);
        assert!(!gpu.is_empty());
        assert!(gpu.len() < waves);
        // Spans are time-ordered and non-negative.
        for w in cpu.windows(2) {
            assert!(w[0].start_s <= w[1].start_s);
        }
        assert!(data.spans.iter().all(|s| s.dur_s >= 0.0));
        assert_eq!(sim_waves, waves as u64);
        let spans = rec.histogram("lddp_sim_wave_span_seconds", &[], "");
        assert_eq!(spans.count(), waves as u64);
    }

    #[test]
    fn transfers_show_up_on_the_link_track() {
        let (rec, _) = traced_run(Dims::new(64, 64), ScheduleParams::new(4, 8));
        let (data, bytes_to_gpu) = collected(&rec, "lddp_sim_bytes_to_gpu_total");
        let copies: Vec<_> = data
            .spans_named("copy")
            .filter(|s| s.track == tracks::LINK)
            .collect();
        assert!(!copies.is_empty(), "shared anti-diagonal waves must copy");
        // Cumulative byte counters are monotone.
        let mut last = 0.0;
        for s in data.samples.iter().filter(|s| s.name == "bytes_to_gpu") {
            assert!(s.value >= last);
            last = s.value;
        }
        assert!(bytes_to_gpu > 0);
        assert_eq!(last, bytes_to_gpu as f64, "the series ends at the total");
    }

    #[test]
    fn disabled_sink_emits_nothing_and_costs_nothing() {
        let set = ContributingSet::new(&[RepCell::N]);
        let kernel = ClosureKernel::new(Dims::new(8, 8), set, |_i, _j, _n: &Neighbors<u32>| 0u32);
        let plan = Plan::new(
            Pattern::Horizontal,
            set,
            Dims::new(8, 8),
            ScheduleParams::new(0, 4),
        )
        .unwrap();
        let opts = ExecOptions {
            record_timeline: true,
            ..Default::default()
        };
        let report = run_hetero(&kernel, &plan, &hetero_high(), &opts).unwrap();
        // Must not panic; NullSink::enabled() short-circuits.
        record_run(&NullSink, &report.timeline, &plan.phases(), 0.0);
    }

    #[test]
    fn busy_time_in_trace_matches_breakdown() {
        let dims = Dims::new(48, 48);
        let set = ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]);
        let kernel =
            ClosureKernel::new(dims, set, |_i, _j, _n: &Neighbors<u32>| 0u32).with_cost_ops(8);
        let plan = Plan::new(Pattern::AntiDiagonal, set, dims, ScheduleParams::new(4, 12)).unwrap();
        let opts = ExecOptions {
            record_timeline: true,
            ..Default::default()
        };
        let report = run_hetero(&kernel, &plan, &hetero_high(), &opts).unwrap();
        let rec = LiveRegistry::with_flight_capacity(usize::MAX);
        record_run(
            &rec,
            &report.timeline,
            &plan.phases(),
            report.breakdown.setup_s,
        );
        let data = rec.flight().snapshot_since(f64::NEG_INFINITY);
        assert!((data.track_busy_s(tracks::CPU) - report.breakdown.cpu_busy_s).abs() < 1e-12);
        assert!((data.track_busy_s(tracks::GPU) - report.breakdown.gpu_busy_s).abs() < 1e-12);
    }
}
