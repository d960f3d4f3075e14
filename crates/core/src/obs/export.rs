//! Chrome trace-event JSON export (Perfetto / `chrome://tracing`
//! compatible) and the matching parser, both built on the hand-rolled
//! [`crate::tune::json`] writer so the whole pipeline stays offline.
//!
//! Format: the *array form* of the trace-event spec.  Each span becomes
//! a complete event (`"ph":"X"`) with microsecond `ts`/`dur`; each
//! counter sample a counter event (`"ph":"C"`); each track a
//! `thread_name` metadata event (`"ph":"M"`) so Perfetto labels the
//! rows.  Span tracks map to tids 1..N in first-open order; counter
//! events are process-scoped (tid 0) and keyed by name, which is what
//! makes Perfetto render them as counter tracks.
//!
//! The parser inverts the exporter exactly — `parse_chrome(write_chrome(t))`
//! reconstructs `t` up to span ordering (spans come back in `seq`
//! order) — and doubles as a validator for the acceptance gate.

use super::trace::{AttrValue, CounterSample, SpanRecord, Trace};
use crate::tune::json::{self, Json};

/// The pid every event carries (one simulated process).
const PID: f64 = 1.0;

/// Reserved `args` keys the exporter uses for its own bookkeeping.
const ARG_DEPTH: &str = "depth";
const ARG_SEQ: &str = "seq";

fn attr_to_json(v: &AttrValue) -> Json {
    match v {
        AttrValue::Str(s) => Json::Str(s.clone()),
        AttrValue::Num(n) => Json::Num(*n),
        AttrValue::Bool(b) => Json::Bool(*b),
    }
}

fn attr_from_json(v: &Json) -> Option<AttrValue> {
    match v {
        Json::Str(s) => Some(AttrValue::Str(s.clone())),
        Json::Num(n) => Some(AttrValue::Num(*n)),
        Json::Bool(b) => Some(AttrValue::Bool(*b)),
        _ => None,
    }
}

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Build the trace-event array for a [`Trace`].
pub fn to_chrome_events(trace: &Trace) -> Json {
    let mut events = Vec::new();

    // Track metadata first: tid 1..N in first-open order.
    let tracks = trace.tracks();
    for (i, track) in tracks.iter().enumerate() {
        events.push(obj(vec![
            ("name", Json::Str("thread_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::Num(PID)),
            ("tid", Json::Num((i + 1) as f64)),
            ("args", obj(vec![("name", Json::Str((*track).to_string()))])),
        ]));
    }

    let tid_of = |track: &str| -> f64 {
        tracks
            .iter()
            .position(|t| *t == track)
            .map(|i| (i + 1) as f64)
            .unwrap_or(0.0)
    };

    for s in &trace.spans {
        let mut args: Vec<(String, Json)> = s
            .attrs
            .iter()
            .map(|(k, v)| (k.clone(), attr_to_json(v)))
            .collect();
        args.push((ARG_DEPTH.to_string(), Json::Num(s.depth as f64)));
        args.push((ARG_SEQ.to_string(), Json::Num(s.seq as f64)));
        events.push(obj(vec![
            ("name", Json::Str(s.name.clone())),
            ("cat", Json::Str("span".into())),
            ("ph", Json::Str("X".into())),
            ("ts", Json::Num(s.start_us)),
            ("dur", Json::Num(s.dur_us)),
            ("pid", Json::Num(PID)),
            ("tid", Json::Num(tid_of(&s.track))),
            ("args", Json::Obj(args)),
        ]));
    }

    for c in &trace.counters {
        events.push(obj(vec![
            ("name", Json::Str(c.track.clone())),
            ("ph", Json::Str("C".into())),
            ("ts", Json::Num(c.ts_us)),
            ("pid", Json::Num(PID)),
            ("tid", Json::Num(0.0)),
            ("args", obj(vec![("value", Json::Num(c.value))])),
        ]));
    }

    Json::Arr(events)
}

/// Serialize a [`Trace`] as Chrome trace-event JSON (array form).
pub fn write_chrome(trace: &Trace) -> String {
    to_chrome_events(trace).render()
}

/// Why a trace-event document failed to parse back.
#[derive(Clone, Debug)]
pub enum ChromeParseError {
    /// Not valid JSON at all.
    Json(json::JsonError),
    /// Valid JSON but not the shape the exporter writes.
    Shape(String),
}

impl std::fmt::Display for ChromeParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChromeParseError::Json(e) => write!(f, "invalid JSON: {e}"),
            ChromeParseError::Shape(s) => write!(f, "invalid trace shape: {s}"),
        }
    }
}

impl std::error::Error for ChromeParseError {}

fn shape_err<T>(msg: impl Into<String>) -> Result<T, ChromeParseError> {
    Err(ChromeParseError::Shape(msg.into()))
}

/// Parse a Chrome trace-event array back into a [`Trace`].
///
/// Spans come back sorted by open order (`seq`); counters in document
/// order.  Events this exporter does not emit (other phases) are
/// rejected, which is what makes this a useful validity gate.
pub fn parse_chrome(text: &str) -> Result<Trace, ChromeParseError> {
    let doc = json::parse(text).map_err(ChromeParseError::Json)?;
    let events = match doc.as_arr() {
        Some(a) => a,
        None => return shape_err("top level must be an array"),
    };

    let mut track_of_tid: Vec<(u64, String)> = Vec::new();
    let mut spans: Vec<SpanRecord> = Vec::new();
    let mut counters: Vec<CounterSample> = Vec::new();

    for (i, ev) in events.iter().enumerate() {
        let ph = match ev.get("ph").and_then(Json::as_str) {
            Some(p) => p,
            None => return shape_err(format!("event {i}: missing ph")),
        };
        let name = match ev.get("name").and_then(Json::as_str) {
            Some(n) => n.to_string(),
            None => return shape_err(format!("event {i}: missing name")),
        };
        match ph {
            "M" => {
                if name != "thread_name" {
                    return shape_err(format!("event {i}: unknown metadata {name}"));
                }
                let tid = ev
                    .get("tid")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| ChromeParseError::Shape(format!("event {i}: bad tid")))?;
                let track = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .ok_or_else(|| ChromeParseError::Shape(format!("event {i}: bad args.name")))?;
                track_of_tid.push((tid, track.to_string()));
            }
            "X" => {
                let ts = ev.get("ts").and_then(Json::as_f64);
                let dur = ev.get("dur").and_then(Json::as_f64);
                let tid = ev.get("tid").and_then(Json::as_u64);
                let (ts, dur, tid) = match (ts, dur, tid) {
                    (Some(ts), Some(dur), Some(tid)) => (ts, dur, tid),
                    _ => return shape_err(format!("event {i}: span missing ts/dur/tid")),
                };
                let track = track_of_tid
                    .iter()
                    .find(|(t, _)| *t == tid)
                    .map(|(_, name)| name.clone())
                    .ok_or_else(|| {
                        ChromeParseError::Shape(format!("event {i}: tid {tid} has no thread_name"))
                    })?;
                let args = match ev.get("args") {
                    Some(Json::Obj(pairs)) => pairs,
                    _ => return shape_err(format!("event {i}: span missing args")),
                };
                let mut depth: Option<u32> = None;
                let mut seq: Option<u64> = None;
                let mut attrs: Vec<(String, AttrValue)> = Vec::new();
                for (k, v) in args {
                    match k.as_str() {
                        ARG_DEPTH => depth = v.as_u64().map(|d| d as u32),
                        ARG_SEQ => seq = v.as_u64(),
                        _ => match attr_from_json(v) {
                            Some(a) => attrs.push((k.clone(), a)),
                            None => {
                                return shape_err(format!("event {i}: bad attr {k}"));
                            }
                        },
                    }
                }
                let (depth, seq) = match (depth, seq) {
                    (Some(d), Some(s)) => (d, s),
                    _ => return shape_err(format!("event {i}: span missing depth/seq")),
                };
                spans.push(SpanRecord {
                    name,
                    track,
                    start_us: ts,
                    dur_us: dur,
                    depth,
                    seq,
                    attrs,
                });
            }
            "C" => {
                let ts = ev
                    .get("ts")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| ChromeParseError::Shape(format!("event {i}: counter ts")))?;
                let value = ev
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| ChromeParseError::Shape(format!("event {i}: counter value")))?;
                counters.push(CounterSample {
                    track: name,
                    ts_us: ts,
                    value,
                });
            }
            other => return shape_err(format!("event {i}: unsupported phase {other:?}")),
        }
    }

    spans.sort_by_key(|s| s.seq);
    Ok(Trace { spans, counters })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Tracer;

    fn sample_trace() -> Trace {
        let t = Tracer::new();
        {
            let outer = t.span_on("3LP-1 k-major", "launch");
            outer.attr("duration_us", 929.5);
            outer.attr("config", "3LP-1 k-major");
            outer.attr("warm", true);
            let _inner = t.span_on("tune", "tune.sweep");
        }
        t.counter("SM throughput %", 33.4);
        t.counter("L1 miss %", 27.0);
        t.snapshot()
    }

    #[test]
    fn export_is_an_array_of_known_phases() {
        let text = write_chrome(&sample_trace());
        let doc = json::parse(&text).unwrap();
        let events = doc.as_arr().unwrap();
        // 2 thread_name + 2 spans + 2 counters.
        assert_eq!(events.len(), 6);
        for ev in events {
            let ph = ev.get("ph").and_then(Json::as_str).unwrap();
            assert!(matches!(ph, "M" | "X" | "C"));
            assert!(ev.get("pid").is_some());
        }
    }

    #[test]
    fn round_trips_exactly_in_open_order() {
        let trace = sample_trace();
        let parsed = parse_chrome(&write_chrome(&trace)).unwrap();
        let mut expected = trace.clone();
        expected.spans.sort_by_key(|s| s.seq);
        assert_eq!(parsed, expected);
    }

    #[test]
    fn tracks_map_to_distinct_tids() {
        let text = write_chrome(&sample_trace());
        let doc = json::parse(&text).unwrap();
        let mut tids = Vec::new();
        for ev in doc.as_arr().unwrap() {
            if ev.get("ph").and_then(Json::as_str) == Some("M") {
                tids.push(ev.get("tid").and_then(Json::as_u64).unwrap());
            }
        }
        tids.sort_unstable();
        assert_eq!(tids, vec![1, 2]);
    }

    #[test]
    fn counter_heavy_trace_round_trips() {
        let t = Tracer::new();
        {
            let _s = t.span_on("main", "launch");
        }
        for i in 0..32 {
            t.counter("SM throughput %", i as f64 * 1.5);
            t.counter("L2 miss %", 100.0 - i as f64);
            t.counter("atomic passes", (i * i) as f64);
        }
        let trace = t.snapshot();
        let parsed = parse_chrome(&write_chrome(&trace)).unwrap();
        assert_eq!(parsed.counters, trace.counters);
        assert_eq!(parsed.counter_tracks(), trace.counter_tracks());
        assert_eq!(parsed.counters.len(), 96);
    }

    #[test]
    fn rejects_garbage_and_foreign_phases() {
        assert!(matches!(
            parse_chrome("not json"),
            Err(ChromeParseError::Json(_))
        ));
        assert!(matches!(
            parse_chrome("{}"),
            Err(ChromeParseError::Shape(_))
        ));
        let foreign = r#"[{"name":"b","ph":"B","ts":0,"pid":1,"tid":1}]"#;
        assert!(matches!(
            parse_chrome(foreign),
            Err(ChromeParseError::Shape(_))
        ));
    }
}
