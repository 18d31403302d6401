//! Chrome trace-event JSON exporter.
//!
//! Produces the "JSON Array Format" subset of the Trace Event spec that
//! Perfetto and `chrome://tracing` load directly: complete (`X`) events
//! for spans, instant (`i`) events, counter (`C`) series, and metadata
//! (`M`) events naming each process/thread. Timestamps are microseconds
//! (`ts`/`dur` are doubles, so sub-microsecond model times survive).

use crate::json::{escape, num};
use crate::{ArgValue, InstantEvent, Span, TraceData, Track};
use std::collections::BTreeSet;
use std::fmt::Write as _;

fn write_args(out: &mut String, args: &[(&'static str, ArgValue)]) {
    out.push_str("\"args\":{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":", escape(k));
        match v {
            ArgValue::U64(n) => {
                let _ = write!(out, "{n}");
            }
            ArgValue::F64(f) => out.push_str(&num(*f)),
            ArgValue::Str(s) => {
                let _ = write!(out, "\"{}\"", escape(s));
            }
        }
    }
    out.push('}');
}

fn write_span(out: &mut String, s: &Span) {
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},",
        escape(&s.name),
        num(s.start_s * 1e6),
        num(s.dur_s * 1e6),
        s.track.pid,
        s.track.tid
    );
    write_args(out, &s.args);
    out.push('}');
}

fn write_instant(out: &mut String, e: &InstantEvent) {
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{},\"tid\":{},",
        escape(&e.name),
        num(e.t_s * 1e6),
        e.track.pid,
        e.track.tid
    );
    write_args(out, &e.args);
    out.push('}');
}

/// Serializes a [`TraceData`] snapshot as one Chrome trace-event JSON
/// document (`{"traceEvents":[...],"displayTimeUnit":"ms"}`).
///
/// Event order is deterministic: process/thread metadata first, then
/// spans, instants and counter samples in emission order.
pub fn to_chrome_json(data: &TraceData) -> String {
    let mut out = String::with_capacity(256 + data.spans.len() * 128);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push_str(",\n");
        }
    };

    // Metadata: name every process and thread that carries events.
    let mut tracks: BTreeSet<Track> = BTreeSet::new();
    for s in &data.spans {
        tracks.insert(s.track);
    }
    for e in &data.instants {
        tracks.insert(e.track);
    }
    for c in &data.samples {
        tracks.insert(c.track);
    }
    let pids: BTreeSet<u32> = tracks.iter().map(|t| t.pid).collect();
    for pid in &pids {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            pid,
            escape(crate::tracks::process_name(*pid))
        );
    }
    for t in &tracks {
        if t.pid == crate::tracks::WORKERS_PID {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\
                 \"args\":{{\"name\":\"worker {}\"}}}}",
                t.pid,
                t.tid,
                t.tid - 1
            );
        }
    }

    for s in &data.spans {
        sep(&mut out);
        write_span(&mut out, s);
    }
    for e in &data.instants {
        sep(&mut out);
        write_instant(&mut out, e);
    }
    for c in &data.samples {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{},\"pid\":{},\"tid\":{},\
             \"args\":{{\"value\":{}}}}}",
            escape(&c.name),
            num(c.t_s * 1e6),
            c.track.pid,
            c.track.tid,
            num(c.value)
        );
    }

    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use crate::live::LiveRegistry;
    use crate::{tracks, TraceSink};

    fn sample_data() -> TraceData {
        let rec = LiveRegistry::new();
        rec.span(Span::new("phase", tracks::SCHEDULE, 0.0, 3.0).with_arg("kind", "Shared"));
        rec.span(Span::new("wave", tracks::CPU, 0.0, 1.0).with_arg("cells", 128usize));
        rec.span(Span::new("wave", tracks::GPU, 1.0, 2.0));
        rec.span(Span::new("copy", tracks::LINK, 1.0, 0.5).with_arg("bytes", 4096u64));
        rec.instant(InstantEvent::new("tune", tracks::TUNER, 0.0).with_arg("t_switch", 8usize));
        rec.sample(tracks::LINK, "bytes_to_gpu", 1.5, 4096.0);
        rec.flight().snapshot_since(f64::NEG_INFINITY)
    }

    #[test]
    fn output_is_valid_json_with_expected_structure() {
        let data = sample_data();
        let text = to_chrome_json(&data);
        let doc = json::parse(&text).expect("exporter must emit valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 4 process metadata + 4 spans + 1 instant + 1 counter.
        let spans: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(spans.len(), 4);
        let counters: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .collect();
        assert_eq!(counters.len(), 1);
        // Metadata names the CPU process.
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(Json::as_str) == Some("M")
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    == Some("CPU (model)")
        }));
    }

    #[test]
    fn round_trip_preserves_span_count_order_and_times() {
        let data = sample_data();
        let doc = json::parse(&to_chrome_json(&data)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let spans: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(spans.len(), data.spans.len());
        for (parsed, original) in spans.iter().zip(&data.spans) {
            assert_eq!(
                parsed.get("name").and_then(Json::as_str),
                Some(original.name.as_str())
            );
            let ts = parsed.get("ts").unwrap().as_f64().unwrap();
            let dur = parsed.get("dur").unwrap().as_f64().unwrap();
            assert!((ts - original.start_s * 1e6).abs() < 1e-9);
            assert!((dur - original.dur_s * 1e6).abs() < 1e-9);
            assert_eq!(
                parsed.get("pid").unwrap().as_f64().unwrap() as u32,
                original.track.pid
            );
        }
    }

    #[test]
    fn empty_data_still_valid() {
        let text = to_chrome_json(&TraceData::default());
        let doc = json::parse(&text).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 0);
    }

    #[test]
    fn names_are_escaped() {
        let rec = LiveRegistry::new();
        rec.span(Span::new("a\"b\\c", tracks::CPU, 0.0, 1.0).with_arg("s", "x\ny"));
        let text = to_chrome_json(&rec.flight().snapshot_since(f64::NEG_INFINITY));
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .unwrap();
        assert_eq!(span.get("name").and_then(Json::as_str), Some("a\"b\\c"));
        assert_eq!(
            span.get("args").unwrap().get("s").and_then(Json::as_str),
            Some("x\ny")
        );
    }
}
