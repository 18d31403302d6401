//! In-memory spans for the traced run, written once as a Chrome trace
//! (`chrome://tracing`, Perfetto) when the run ends.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    /// Layer: `client`, `backend` or `probe`; one Chrome process each.
    pub cat: &'static str,
    pub start: Instant,
    pub dur: Duration,
    pub tid: u64,
    pub args: Vec<(&'static str, String)>,
}

pub struct Spans {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

/// A small stable id for the calling thread.
fn tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn record(
        &self,
        name: &'static str,
        cat: &'static str,
        start: Instant,
        dur: Duration,
        args: Vec<(&'static str, String)>,
    ) {
        let span = Span {
            name,
            cat,
            start,
            dur,
            tid: tid(),
            args,
        };
        self.spans.lock().expect("span log lock").push(span);
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<R>(
        &self,
        name: &'static str,
        cat: &'static str,
        args: Vec<(&'static str, String)>,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let t = Instant::now();
        let r = f();
        let d = t.elapsed();
        self.record(name, cat, t, d, args);
        (r, d)
    }

    /// Durations in milliseconds of the spans named `name` that started
    /// in `from..to`.
    pub fn durations_ms(&self, name: &str, from: Instant, to: Instant) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span log lock")
            .iter()
            .filter(|s| s.name == name && s.start >= from && s.start < to)
            .map(|s| s.dur.as_secs_f64() * 1e3)
            .collect()
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span log lock").len()
    }

    /// The Chrome trace-event JSON of every span.
    pub fn to_chrome(&self) -> String {
        let spans = self.spans.lock().expect("span log lock");
        let pid = |cat: &str| match cat {
            "client" => 1,
            "backend" => 2,
            _ => 3,
        };
        let mut out = String::from("{\"traceEvents\":[");
        for (i, (cat, name)) in [(1, "client"), (2, "backend"), (3, "probe")]
            .iter()
            .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{cat},\"tid\":0,\"args\":{{\"name\":\"{name}\"}}}}"
            ));
        }
        for s in spans.iter() {
            let args = s
                .args
                .iter()
                .map(|(k, v)| {
                    format!(
                        "\"{k}\":\"{}\"",
                        v.replace('\\', "\\\\").replace('"', "\\\"")
                    )
                })
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(&format!(
                ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{{args}}}}}",
                s.name,
                s.cat,
                s.start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6,
                pid(s.cat),
                s.tid,
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}
