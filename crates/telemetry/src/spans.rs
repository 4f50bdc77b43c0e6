//! The span tree: begin/end events with monotonic microsecond timestamps,
//! collected process-wide and exportable as Chrome trace-event-format
//! JSONL.
//!
//! Spans are for *coarse* structure — batch → cell → phase — not per-round
//! work; recording takes a global mutex per event, which is fine at cell
//! granularity and deliberately kept out of the engine hot loop.
//!
//! The export format is one Chrome trace event object per line
//! (`{"name":…,"cat":…,"ph":"B"|"E"|"X","pid":1,"tid":…,"ts":…}`). Trace
//! viewers ingest the JSON-array form; wrap the lines with `jq -s .` (or
//! equivalently `[` + join(",") + `]`).

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Global emission sequence number (total order across threads).
    pub seq: u64,
    /// Recording thread's stable id (`tid` in the export).
    pub tid: u64,
    /// Chrome phase: `'B'` begin, `'E'` end, `'X'` complete.
    pub ph: char,
    /// Event category (`"batch"`, `"cell"`, `"phase"`, …).
    pub cat: &'static str,
    /// Event name.
    pub name: String,
    /// Monotonic timestamp, microseconds since the process trace epoch.
    pub ts: u64,
    /// Duration in microseconds; meaningful only for `'X'` events.
    pub dur: u64,
    /// Extra key/value arguments, exported under `args`.
    pub args: Vec<(&'static str, String)>,
}

static EVENTS: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());
static SEQ: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Microseconds since the process trace epoch (the first timestamp taken).
pub fn now_micros() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

fn record(
    ph: char,
    cat: &'static str,
    name: String,
    ts: u64,
    dur: u64,
    args: Vec<(&'static str, String)>,
) {
    let event = SpanEvent {
        seq: SEQ.fetch_add(1, Ordering::Relaxed),
        tid: TID.with(|t| *t),
        ph,
        cat,
        name,
        ts,
        dur,
        args,
    };
    EVENTS.lock().unwrap().push(event);
}

/// Open a span; the returned guard emits the matching end event on drop.
/// Returns `None` (and records nothing) when span recording is disabled —
/// the disabled path is one relaxed load.
#[inline]
pub fn span(cat: &'static str, name: &str) -> Option<SpanGuard> {
    span_with(cat, name, Vec::new())
}

/// As [`span`], with extra arguments attached to the begin event.
pub fn span_with(
    cat: &'static str,
    name: &str,
    args: Vec<(&'static str, String)>,
) -> Option<SpanGuard> {
    if !crate::spans_enabled() {
        return None;
    }
    record('B', cat, name.to_string(), now_micros(), 0, args);
    Some(SpanGuard {
        cat,
        name: name.to_string(),
    })
}

/// Record a complete (`'X'`) event with an explicit start and duration —
/// used for engine phases, whose bounds are known only after the run.
pub fn complete(
    cat: &'static str,
    name: &str,
    ts: u64,
    dur: u64,
    args: Vec<(&'static str, String)>,
) {
    if !crate::spans_enabled() {
        return;
    }
    record('X', cat, name.to_string(), ts, dur, args);
}

/// RAII guard for an open span; emits the end event when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    cat: &'static str,
    name: String,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        record(
            'E',
            self.cat,
            std::mem::take(&mut self.name),
            now_micros(),
            0,
            Vec::new(),
        );
    }
}

/// Take every recorded event, in emission order.
pub fn drain() -> Vec<SpanEvent> {
    let mut events = std::mem::take(&mut *EVENTS.lock().unwrap());
    events.sort_by_key(|e| e.seq);
    events
}

/// Minimal JSON string escaping for event names and argument values
/// (shared with the [`crate::log`] line renderer).
pub(crate) fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Render one event as a Chrome trace event JSON object (no trailing
/// newline).
pub(crate) fn to_json(event: &SpanEvent) -> String {
    let mut line = String::with_capacity(96);
    line.push_str("{\"name\":\"");
    escape_into(&mut line, &event.name);
    line.push_str("\",\"cat\":\"");
    escape_into(&mut line, event.cat);
    line.push_str("\",\"ph\":\"");
    line.push(event.ph);
    line.push_str("\",\"pid\":1,\"tid\":");
    line.push_str(&event.tid.to_string());
    line.push_str(",\"ts\":");
    line.push_str(&event.ts.to_string());
    if event.ph == 'X' {
        line.push_str(",\"dur\":");
        line.push_str(&event.dur.to_string());
    }
    if !event.args.is_empty() {
        line.push_str(",\"args\":{");
        for (i, (k, v)) in event.args.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push('"');
            escape_into(&mut line, k);
            line.push_str("\":\"");
            escape_into(&mut line, v);
            line.push('"');
        }
        line.push('}');
    }
    line.push('}');
    line
}

/// Write `events` as Chrome trace-event JSONL: one event object per line.
pub fn write_chrome_trace<W: Write>(w: &mut W, events: &[SpanEvent]) -> io::Result<()> {
    for event in events {
        writeln!(w, "{}", to_json(event))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The span tests toggle the process-global flag; serialize them.
    static GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_records_nothing() {
        let _gate = GATE.lock().unwrap();
        crate::enable_spans(false);
        drain();
        assert!(span("cell", "noop").is_none());
        complete("phase", "noop", 0, 1, Vec::new());
        assert!(drain().is_empty());
    }

    #[test]
    fn guard_emits_balanced_nested_events() {
        let _gate = GATE.lock().unwrap();
        crate::enable_spans(true);
        drain();
        {
            let _outer = span("batch", "outer");
            let _inner = span_with("cell", "inner", vec![("algo", "QuotientTh1".into())]);
        }
        crate::enable_spans(false);
        let events = drain();
        let shape: Vec<(char, &str)> = events.iter().map(|e| (e.ph, e.name.as_str())).collect();
        assert_eq!(
            shape,
            [
                ('B', "outer"),
                ('B', "inner"),
                ('E', "inner"),
                ('E', "outer")
            ]
        );
        assert!(events.windows(2).all(|w| w[0].ts <= w[1].ts));
        assert_eq!(events[1].args, vec![("algo", "QuotientTh1".to_string())]);
    }

    #[test]
    fn json_escapes_and_shapes() {
        let event = SpanEvent {
            seq: 0,
            tid: 3,
            ph: 'X',
            cat: "phase",
            name: "he said \"hi\"\n".to_string(),
            ts: 12,
            dur: 34,
            args: vec![("k", "v\\".to_string())],
        };
        let json = to_json(&event);
        assert_eq!(
            json,
            "{\"name\":\"he said \\\"hi\\\"\\n\",\"cat\":\"phase\",\"ph\":\"X\",\
             \"pid\":1,\"tid\":3,\"ts\":12,\"dur\":34,\"args\":{\"k\":\"v\\\\\"}}"
        );
        let mut out = Vec::new();
        write_chrome_trace(&mut out, &[event]).unwrap();
        assert!(out.ends_with(b"}\n"));
    }
}
