//! # lddp-trace
//!
//! Zero-dependency structured tracing for the LDDP engines: spans,
//! instant events, counter samples, monotonic counters and histograms
//! recorded through a cheap [`TraceSink`] trait, collected by the
//! [`live::LiveRegistry`] and exported as Chrome trace-event JSON
//! ([`chrome`], loadable in Perfetto or `chrome://tracing`) and
//! Prometheus text ([`live::LiveRegistry::to_prometheus`]).
//!
//! The design constraint is that *disabled* tracing must cost nothing:
//! every instrumentation site checks [`TraceSink::enabled`] once and
//! takes the untraced path when it returns `false`, so the no-op
//! [`NullSink`] compiles down to a branch that never fires. The
//! registry is the one collector: timeline events go to its flight
//! ring, counts and observations to its named counter and sketch
//! families. An offline run gives the ring an unbounded capacity and
//! keeps every event.
//!
//! Timestamps are plain `f64` seconds on whatever clock the emitter
//! uses: the discrete-event simulator feeds *model* time, the thread
//! engine feeds wall time from a run-local epoch. Tracks give each
//! modelled engine its own "process" in the exported timeline (see
//! [`tracks`]).
//!
//! ```
//! use lddp_trace::live::LiveRegistry;
//! use lddp_trace::{Span, TraceSink, tracks};
//!
//! let reg = LiveRegistry::with_flight_capacity(usize::MAX);
//! reg.span(Span::new("wave", tracks::CPU, 0.0, 1e-3).with_arg("cells", 4096u64));
//! reg.count("lddp_example_waves_total", 1);
//! reg.observe("lddp_example_wave_span_seconds", 1e-3);
//! let json = lddp_trace::chrome::to_chrome_json(&reg.flight().snapshot_since(f64::NEG_INFINITY));
//! assert!(json.contains("\"ph\":\"X\""));
//! assert!(reg.to_prometheus().contains("lddp_example_waves_total 1\n"));
//! ```

#![warn(missing_docs)]

pub mod chrome;
pub mod json;
pub mod live;

/// Coordinates of a timeline lane: `pid` is the exported "process"
/// (one per modelled engine), `tid` the lane within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Track {
    /// Process id in the exported trace.
    pub pid: u32,
    /// Thread (lane) id within the process.
    pub tid: u32,
}

/// Well-known tracks. One process per modelled engine, so Perfetto
/// groups the lanes the way the paper's figures do.
pub mod tracks {
    use super::Track;

    /// The modelled multicore CPU (model-time spans).
    pub const CPU: Track = Track { pid: 1, tid: 1 };
    /// The modelled GPU.
    pub const GPU: Track = Track { pid: 2, tid: 1 };
    /// The PCIe link between them (boundary copies, setup/teardown).
    pub const LINK: Track = Track { pid: 3, tid: 1 };
    /// Schedule structure: one span per phase (CPU-only ramp, shared…).
    pub const SCHEDULE: Track = Track { pid: 4, tid: 1 };
    /// The parameter tuner (one lane of sweep evaluations).
    pub const TUNER: Track = Track { pid: 5, tid: 1 };

    /// Process id of the wall-clock worker threads of `lddp-parallel`.
    pub const WORKERS_PID: u32 = 6;

    /// Lane of wall-clock worker thread `idx`.
    pub fn worker(idx: usize) -> Track {
        Track {
            pid: WORKERS_PID,
            tid: idx as u32 + 1,
        }
    }

    /// Process id of the `lddp-serve` serving subsystem (wall clock).
    pub const SERVE_PID: u32 = 7;

    /// The serve queue lane: one `serve.queue_wait` span per request,
    /// from admission to the moment a worker picks it up.
    pub const SERVE_QUEUE: Track = Track {
        pid: SERVE_PID,
        tid: 1,
    };

    /// Lane of serve worker `idx` (batch + solve spans).
    pub fn serve_worker(idx: usize) -> Track {
        Track {
            pid: SERVE_PID,
            tid: idx as u32 + 2,
        }
    }

    /// Human name of a process id, used by the exporters' metadata.
    pub fn process_name(pid: u32) -> &'static str {
        match pid {
            1 => "CPU (model)",
            2 => "GPU (model)",
            3 => "Link (PCIe model)",
            4 => "Schedule",
            5 => "Tuner",
            6 => "Workers (wall clock)",
            7 => "Serve (wall clock)",
            _ => "Track",
        }
    }
}

/// The serve subsystem's timeline names: every span and sample series
/// `lddp-serve` records into the flight ring, as constants, so
/// dashboards and tests don't drift from the instrumentation sites.
/// Its counts and histograms are `/metrics` families (see
/// `docs/OBSERVABILITY.md`).
pub mod catalog {
    /// Span: request sat in the admission queue (queue lane; args:
    /// `id`, `problem`).
    pub const SPAN_QUEUE_WAIT: &str = "serve.queue_wait";
    /// Span: one batch execution on a worker lane (args: `batch`,
    /// `key`, `cache_hit`).
    pub const SPAN_BATCH: &str = "serve.batch";
    /// Span: one request's solve within a batch (args: `id`,
    /// `problem`, `n`).
    pub const SPAN_SOLVE: &str = "serve.solve";
    /// Span: the once-per-batch parameter resolution (tuner-cache
    /// lookup or sweep) on a worker lane (args: `key`, `cache_hit`).
    pub const SPAN_TUNE: &str = "serve.tune";
    /// Span (zero-duration marker): one brownout-ladder level
    /// transition on the queue lane (args: `from`, `to`).
    pub const SPAN_BROWNOUT: &str = "serve.brownout";
    /// Sample series: queue depth after each admission.
    pub const SMP_QUEUE_DEPTH: &str = "serve.queue_depth";
}

/// A typed span/instant argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer.
    U64(u64),
    /// Float.
    F64(f64),
    /// String.
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// A complete (begin+end) span on one track.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name (low-cardinality; details go in `args`).
    pub name: String,
    /// Track the span lives on.
    pub track: Track,
    /// Start time, seconds on the emitter's clock.
    pub start_s: f64,
    /// Duration, seconds.
    pub dur_s: f64,
    /// Structured arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl Span {
    /// A span with no arguments.
    pub fn new(name: impl Into<String>, track: Track, start_s: f64, dur_s: f64) -> Self {
        Span {
            name: name.into(),
            track,
            start_s,
            dur_s,
            args: Vec::new(),
        }
    }

    /// Attaches an argument.
    #[must_use]
    pub fn with_arg(mut self, key: &'static str, value: impl Into<ArgValue>) -> Self {
        self.args.push((key, value.into()));
        self
    }

    /// End time, seconds.
    pub fn end_s(&self) -> f64 {
        self.start_s + self.dur_s
    }
}

/// A zero-duration marker on one track.
#[derive(Debug, Clone, PartialEq)]
pub struct InstantEvent {
    /// Event name.
    pub name: String,
    /// Track it lives on.
    pub track: Track,
    /// Time, seconds.
    pub t_s: f64,
    /// Structured arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl InstantEvent {
    /// An instant with no arguments.
    pub fn new(name: impl Into<String>, track: Track, t_s: f64) -> Self {
        InstantEvent {
            name: name.into(),
            track,
            t_s,
            args: Vec::new(),
        }
    }

    /// Attaches an argument.
    #[must_use]
    pub fn with_arg(mut self, key: &'static str, value: impl Into<ArgValue>) -> Self {
        self.args.push((key, value.into()));
        self
    }
}

/// One timeline sample of a numeric series (a Chrome `C` event).
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Series name.
    pub name: String,
    /// Track (only `pid` matters for counters).
    pub track: Track,
    /// Time, seconds.
    pub t_s: f64,
    /// Sampled value.
    pub value: f64,
}

/// The cheap recording interface every engine emits through.
///
/// All methods take `&self` so one sink can be shared across call
/// sites; implementations provide their own interior mutability.
/// Instrumentation sites must check [`TraceSink::enabled`] before doing
/// any work (clock reads, allocation) purely for tracing — that is the
/// contract that makes [`NullSink`] free.
pub trait TraceSink {
    /// Whether events will be kept. Sites skip instrumentation work
    /// entirely when this is `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Records a complete span.
    fn span(&self, span: Span);

    /// Records an instant event.
    fn instant(&self, event: InstantEvent);

    /// Increments a monotonic counter.
    fn count(&self, name: &str, delta: u64);

    /// Records one timeline sample of a numeric series.
    fn sample(&self, track: Track, name: &str, t_s: f64, value: f64);

    /// Records a value into the named histogram (default bucket bounds
    /// unless the sink was configured otherwise).
    fn observe(&self, name: &str, value: f64);
}

/// The sink that keeps nothing. [`TraceSink::enabled`] returns `false`,
/// so instrumented code skips its tracing work entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }
    fn span(&self, _span: Span) {}
    fn instant(&self, _event: InstantEvent) {}
    fn count(&self, _name: &str, _delta: u64) {}
    fn sample(&self, _track: Track, _name: &str, _t_s: f64, _value: f64) {}
    fn observe(&self, _name: &str, _value: f64) {}
}

/// A window of timeline events, ready for an exporter: what
/// [`live::FlightRecorder::snapshot_since`] hands out.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceData {
    /// Spans in emission order.
    pub spans: Vec<Span>,
    /// Instant events in emission order.
    pub instants: Vec<InstantEvent>,
    /// Counter samples in emission order.
    pub samples: Vec<CounterSample>,
}

impl TraceData {
    /// Total busy seconds of spans on `track`.
    pub fn track_busy_s(&self, track: Track) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.track == track)
            .map(|s| s.dur_s)
            .sum()
    }

    /// Spans with the given name, in emission order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
        // All calls are no-ops (and must not panic).
        NullSink.span(Span::new("x", tracks::CPU, 0.0, 1.0));
        NullSink.count("c", 3);
        NullSink.observe("h", 0.5);
    }

    #[test]
    fn worker_tracks_are_distinct() {
        assert_ne!(tracks::worker(0), tracks::worker(1));
        assert_eq!(tracks::worker(0).pid, tracks::WORKERS_PID);
        assert_eq!(tracks::process_name(1), "CPU (model)");
    }
}
