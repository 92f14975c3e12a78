//! A minimal hand-rolled JSON writer (std-only; the workspace builds
//! without crates.io access, so serde is not an option), and the
//! Chrome-trace observer that writes through it.
//!
//! Only what [`crate::SweepReport`] and [`ChromeTraceObserver`]
//! serialization need: objects, arrays, strings, integers, and finite
//! floats. Floats are written with Rust's shortest round-trip
//! formatting, so parsing the output recovers bit-identical values.

use std::fmt::Write;

use ruu_isa::FuClass;
use ruu_sim_core::{PipelineObserver, StallReason};

/// Escapes `s` as the *contents* of a JSON string literal.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// An incremental JSON value writer with explicit begin/end nesting.
///
/// The caller is responsible for well-formedness (matching `begin_*` /
/// `end_*` calls); commas between siblings are inserted automatically.
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    /// Whether the current nesting level already holds a value (and thus
    /// needs a comma before the next one).
    need_comma: Vec<bool>,
}

impl JsonWriter {
    /// A fresh writer.
    #[must_use]
    pub fn new() -> Self {
        JsonWriter::default()
    }

    fn pre_value(&mut self) {
        if let Some(last) = self.need_comma.last_mut() {
            if *last {
                self.buf.push(',');
            }
            *last = true;
        }
    }

    /// Writes an object key (inside an object).
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.pre_value();
        self.buf.push('"');
        escape_into(&mut self.buf, k);
        self.buf.push_str("\":");
        // The upcoming value belongs to this key: suppress its comma.
        if let Some(last) = self.need_comma.last_mut() {
            *last = false;
        }
        self
    }

    /// Opens an object value.
    pub fn begin_object(&mut self) -> &mut Self {
        self.pre_value();
        self.buf.push('{');
        self.need_comma.push(false);
        self
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.need_comma.pop();
        self.buf.push('}');
        if let Some(last) = self.need_comma.last_mut() {
            *last = true;
        }
        self
    }

    /// Opens an array value.
    pub fn begin_array(&mut self) -> &mut Self {
        self.pre_value();
        self.buf.push('[');
        self.need_comma.push(false);
        self
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.need_comma.pop();
        self.buf.push(']');
        if let Some(last) = self.need_comma.last_mut() {
            *last = true;
        }
        self
    }

    /// Writes a string value.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.pre_value();
        self.buf.push('"');
        escape_into(&mut self.buf, s);
        self.buf.push('"');
        self
    }

    /// Writes an unsigned integer value.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.pre_value();
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Writes a float value (`null` for non-finite inputs, which JSON
    /// cannot represent).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.pre_value();
        if v.is_finite() {
            let _ = write!(self.buf, "{v}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Consumes the writer, returning the JSON text.
    #[must_use]
    pub fn finish(self) -> String {
        self.buf
    }
}

/// One buffered Chrome `trace_event`. `ph` is `"X"` (a span of `value`
/// cycles on a functional-unit track), `"i"` (a commit, flush or stall
/// marker) or `"C"` (a sample of `value` window entries).
#[derive(Debug, Clone)]
struct TraceEvent {
    ph: &'static str,
    ts: u64,
    tid: u32,
    name: String,
    value: u64,
}

/// Observer that records a Chrome `trace_event` timeline: one track
/// ("thread") per functional-unit class carrying a span per dispatched
/// instruction, instant markers for commits/flushes/stalls, and a counter
/// track sampling window occupancy each cycle.
///
/// [`ChromeTraceObserver::to_json`] serializes the buffered events —
/// sorted by timestamp, one simulated cycle per microsecond — into a JSON
/// document that loads directly in `chrome://tracing` (or any Perfetto
/// viewer). `ruu-sim trace` drives it.
#[derive(Debug, Default, Clone)]
pub struct ChromeTraceObserver {
    events: Vec<TraceEvent>,
}

/// Track id for instant commit markers.
const TID_COMMIT: u32 = 90;
/// Track id for flush markers.
const TID_FLUSH: u32 = 91;
/// Track id for stall markers.
const TID_STALL: u32 = 92;

impl ChromeTraceObserver {
    /// Serializes the trace as Chrome `trace_event` JSON. Events are
    /// emitted in nondecreasing timestamp order; metadata (track names)
    /// precedes them.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut order: Vec<&TraceEvent> = self.events.iter().collect();
        order.sort_by_key(|e| e.ts);
        let fus = FuClass::ALL.map(|fu| (fu_tid(fu), format!("fu {fu}")));
        let marks = [TID_COMMIT, TID_FLUSH, TID_STALL].into_iter();
        let tracks = fus
            .into_iter()
            .chain(marks.zip(["commit", "flush", "stall"].map(String::from)));

        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("displayTimeUnit").string("ms");
        w.key("traceEvents").begin_array();
        for (tid, name) in tracks {
            w.begin_object();
            w.key("ph").string("M").key("name").string("thread_name");
            w.key("pid").u64(1).key("tid").u64(tid.into());
            w.key("args").begin_object().key("name").string(&name);
            w.end_object().end_object();
        }
        for ev in order {
            w.begin_object();
            w.key("ph").string(ev.ph).key("name").string(&ev.name);
            match ev.ph {
                "X" => w.key("cat").string("fu"),
                "i" => w.key("cat").string("pipe").key("s").string("t"),
                _ => &mut w,
            };
            w.key("pid").u64(1).key("tid").u64(ev.tid.into());
            w.key("ts").u64(ev.ts);
            match ev.ph {
                "X" => w.key("dur").u64(ev.value),
                "C" => w
                    .key("args")
                    .begin_object()
                    .key("entries")
                    .u64(ev.value)
                    .end_object(),
                _ => &mut w,
            };
            w.end_object();
        }
        w.end_array().end_object();
        w.finish()
    }

    fn push(&mut self, ph: &'static str, ts: u64, tid: u32, name: String, value: u64) {
        self.events.push(TraceEvent {
            ph,
            ts,
            tid,
            name,
            value,
        });
    }
}

fn fu_tid(fu: FuClass) -> u32 {
    fu.index() as u32 + 1
}

impl PipelineObserver for ChromeTraceObserver {
    fn dispatch(&mut self, cycle: u64, seq: u64, fu: FuClass, complete_at: u64) {
        let dur = complete_at.saturating_sub(cycle).max(1);
        self.push("X", cycle, fu_tid(fu), format!("#{seq} {fu}"), dur);
    }
    fn commit(&mut self, cycle: u64, seq: u64) {
        self.push("i", cycle, TID_COMMIT, format!("commit #{seq}"), 0);
    }
    fn flush(&mut self, cycle: u64, squashed: u64) {
        let name = format!("flush ({squashed} squashed)");
        self.push("i", cycle, TID_FLUSH, name, 0);
    }
    fn stall(&mut self, cycle: u64, reason: StallReason) {
        self.push("i", cycle, TID_STALL, reason.to_string(), 0);
    }
    fn cycle_end(&mut self, cycle: u64, occupancy: u32) {
        let name = "window occupancy".to_string();
        self.push("C", cycle, 0, name, occupancy.into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_structure_renders() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("name").string("a \"b\"\n");
        w.key("ctl").string("c\\d\u{1}");
        w.key("n").u64(3);
        w.key("xs").begin_array();
        w.u64(1).u64(2);
        w.begin_object().key("y").f64(1.5).end_object();
        w.end_array();
        w.key("bad").f64(f64::NAN);
        w.end_object();
        assert_eq!(
            w.finish(),
            r#"{"name":"a \"b\"\n","ctl":"c\\d\u0001","n":3,"xs":[1,2,{"y":1.5}],"bad":null}"#
        );
    }

    #[test]
    fn floats_round_trip_shortest() {
        let mut w = JsonWriter::new();
        w.f64(0.1 + 0.2);
        let s = w.finish();
        assert_eq!(s.parse::<f64>().unwrap(), 0.1 + 0.2);
    }

    #[test]
    fn chrome_trace_is_sorted_and_balanced() {
        let mut tr = ChromeTraceObserver::default();
        // Cycle 0 issues onto the scalar adder; cycle 1 stalls; the
        // result commits in cycle 2 while the machine drains.
        tr.dispatch(0, 0, FuClass::ScalarAdd, 3);
        tr.cycle_end(0, 1);
        tr.stall(1, StallReason::OperandsNotReady);
        tr.cycle_end(1, 1);
        tr.commit(2, 0);
        tr.stall(2, StallReason::Drained);
        tr.cycle_end(2, 0);
        let json = tr.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("window occupancy"));
        // Timestamps are emitted in nondecreasing order.
        let mut last = 0u64;
        for part in json.split("\"ts\":").skip(1) {
            let digits: String = part.chars().take_while(char::is_ascii_digit).collect();
            let ts: u64 = digits.parse().expect("ts is an integer");
            assert!(ts >= last, "timestamps must be sorted");
            last = ts;
        }
    }
}
