//! Acceptance tests for the observability stack: a traced framework
//! solve must export a Chrome trace-event JSON whose structure matches
//! the schedule (one span per phase, per-wave CPU/GPU spans, Link
//! transfer spans), and the export must survive a parse round-trip with
//! the event count and ordering intact. The registry is the one
//! collector: its ring keeps a whole offline run, and its exposition
//! carries only `/metrics` names.

use lddp::core::schedule::ScheduleParams;
use lddp::platforms::hetero_high;
use lddp::problems::LevenshteinKernel;
use lddp::trace::live::{parse_prometheus, LiveRegistry, DEFAULT_FLIGHT_CAPACITY};
use lddp::trace::{chrome, json, tracks, TraceData};
use lddp::workloads::random_seq;
use lddp::Framework;

/// A registry that keeps every event, the way offline runs collect.
fn collector() -> LiveRegistry {
    LiveRegistry::with_flight_capacity(usize::MAX)
}

fn timeline(reg: &LiveRegistry) -> TraceData {
    reg.flight().snapshot_since(f64::NEG_INFINITY)
}

fn traced_levenshtein(n: usize) -> (TraceData, lddp::Solution<u32>) {
    let kernel = LevenshteinKernel::new(random_seq(n, 4, 1), random_seq(n, 4, 2));
    let fw = Framework::new(hetero_high()).with_io_bytes(2 * n, 8);
    let reg = collector();
    let solution = fw
        .solve_traced(&kernel, Some(ScheduleParams::new(8, 24)), &reg)
        .unwrap();
    (timeline(&reg), solution)
}

#[test]
fn trace_structure_matches_the_schedule() {
    let (data, solution) = traced_levenshtein(96);

    // ≥ 1 span per schedule phase, on the schedule track, matching the
    // per-phase stats the solution reports.
    let phase_spans: Vec<_> = data
        .spans
        .iter()
        .filter(|s| s.track == tracks::SCHEDULE)
        .collect();
    assert!(!solution.phases.is_empty());
    assert_eq!(phase_spans.len(), solution.phases.len());
    for (span, stat) in phase_spans.iter().zip(&solution.phases) {
        assert!((span.dur_s - stat.wall_s).abs() < 1e-9);
    }

    // Per-wave compute spans on the CPU and GPU engine tracks.
    assert!(data.spans_named("wave").any(|s| s.track == tracks::CPU));
    assert!(data.spans_named("wave").any(|s| s.track == tracks::GPU));

    // Link transfer spans for the shared phase's boundary copies.
    assert!(data.spans_named("copy").any(|s| s.track == tracks::LINK));

    // Busy time on the trace equals the breakdown's accounting.
    assert!((data.track_busy_s(tracks::CPU) - solution.breakdown.cpu_busy_s).abs() < 1e-9);
    assert!((data.track_busy_s(tracks::GPU) - solution.breakdown.gpu_busy_s).abs() < 1e-9);
}

#[test]
fn chrome_export_round_trips_count_and_order() {
    let (data, _) = traced_levenshtein(64);
    let text = chrome::to_chrome_json(&data);
    let v = json::parse(&text).unwrap();
    let events = v.get("traceEvents").and_then(|j| j.as_arr()).unwrap();

    // Every span came back as an X event, in emission order.
    let xs: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|j| j.as_str()) == Some("X"))
        .collect();
    assert_eq!(xs.len(), data.spans.len());
    for (x, span) in xs.iter().zip(&data.spans) {
        assert_eq!(
            x.get("name").and_then(|j| j.as_str()),
            Some(span.name.as_str())
        );
        let ts = x.get("ts").and_then(|j| j.as_f64()).unwrap();
        assert!((ts - span.start_s * 1e6).abs() < 1e-6);
        let pid = x.get("pid").and_then(|j| j.as_f64()).unwrap();
        assert_eq!(pid as u32, span.track.pid);
    }

    // Instants and counter samples survive too.
    let is: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|j| j.as_str()) == Some("i"))
        .collect();
    assert_eq!(is.len(), data.instants.len());
    let cs: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|j| j.as_str()) == Some("C"))
        .collect();
    assert_eq!(cs.len(), data.samples.len());
}

#[test]
fn tuned_traced_solve_records_sweep_points() {
    let kernel = LevenshteinKernel::new(random_seq(48, 4, 5), random_seq(48, 4, 6));
    let fw = Framework::new(hetero_high());
    let reg = collector();
    let solution = fw.solve_traced(&kernel, None, &reg).unwrap();
    let data = timeline(&reg);
    // The tuner recorded every sweep evaluation before the run.
    assert!(reg.counter("lddp_tuner_evals_total", &[], "").get() >= 2);
    assert!(data
        .instants
        .iter()
        .any(|e| e.name == "tuner.sweep" && e.track == tracks::TUNER));
    // And the traced answer matches an untraced solve with the same
    // parameters.
    let check = fw.solve_with(&kernel, solution.params).unwrap();
    assert_eq!(solution.grid.to_row_major(), check.grid.to_row_major());
}

#[test]
fn parallel_engine_histogram_flows_through_the_same_sink() {
    use lddp::core::cell::{ContributingSet, RepCell};
    use lddp::core::kernel::{ClosureKernel, Neighbors};
    use lddp::core::Dims;
    use lddp::parallel::{ParallelEngine, SolveSpec};

    let set = ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]);
    let kernel = ClosureKernel::new(Dims::new(64, 64), set, |i, j, n: &Neighbors<u64>| {
        n.w.unwrap_or(1)
            .wrapping_add(n.n.unwrap_or(i as u64))
            .wrapping_add(n.nw.unwrap_or(j as u64))
    });
    // One registry is both the engine's and the run's sink: the
    // timeline goes to its ring, the barrier histogram and counts to
    // its `lddp_pool_*` families.
    let reg = std::sync::Arc::new(collector());
    let spec = SolveSpec {
        sink: Some(&*reg),
        ..SolveSpec::default()
    };
    ParallelEngine::new(2)
        .with_live(std::sync::Arc::clone(&reg))
        .run(&kernel, &spec)
        .unwrap();
    let data = timeline(&reg);
    let h = reg.histogram("lddp_pool_barrier_wait_seconds", &[], "");
    assert!(h.count() > 0, "barrier waits must be observed");
    assert!(!h.cumulative_buckets().is_empty());
    assert!(
        data.samples
            .iter()
            .filter(|s| s.name == "worker.busy_s")
            .count()
            == 2
    );
    assert!(reg.counter("lddp_pool_waves_total", &[], "").get() > 0);
}

/// A model-time trace larger than the ring's default capacity keeps
/// every event when the run's registry is unbounded.
#[test]
fn an_unbounded_ring_keeps_a_trace_past_the_default_capacity() {
    let reg = collector();
    let params = Some(ScheduleParams::new(64, 512));
    lddp::cli::run_solve_traced("levenshtein", 1024, "high", params, &reg).unwrap();
    let data = timeline(&reg);
    assert!(data.spans.len() + data.samples.len() > DEFAULT_FLIGHT_CAPACITY);
    assert_eq!(data.spans.len(), 4104);
    assert_eq!(data.samples.len(), 2054);
    assert_eq!(reg.counter("lddp_sim_waves_total", &[], "").get(), 2049);
}

/// Whether `name` matches the Prometheus grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn is_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// An offline run — tuner sweep, simulated run and engine run into one
/// registry — exposes only `/metrics` names: no dotted name leaks into
/// the catalog.
#[test]
fn offline_exposition_uses_only_metrics_names() {
    let kernel = LevenshteinKernel::new(random_seq(48, 4, 5), random_seq(48, 4, 6));
    let reg = std::sync::Arc::new(collector());
    Framework::new(hetero_high())
        .solve_traced(&kernel, None, &*reg)
        .unwrap();
    let spec = lddp::parallel::SolveSpec {
        sink: Some(&*reg),
        ..lddp::parallel::SolveSpec::default()
    };
    lddp::parallel::ParallelEngine::new(2)
        .with_live(std::sync::Arc::clone(&reg))
        .run(&kernel, &spec)
        .unwrap();
    let text = reg.to_prometheus();
    let series = parse_prometheus(&text);
    for family in [
        "lddp_tuner_evals_total",
        "lddp_sim_waves_total",
        "lddp_sim_wave_span_seconds_count",
        "lddp_pool_waves_total",
    ] {
        assert!(series.iter().any(|(s, _)| s == family), "missing {family}");
    }
    for (s, _) in &series {
        let name = s.split('{').next().unwrap();
        assert!(is_metric_name(name), "{name} is not a metric name");
    }
}
