//! Structured telemetry for the FedSZ runtime: spans, counters and
//! gauges behind one cheap cloneable handle, with two sinks.
//!
//! - A **Chrome-trace-event JSONL writer** ([`Telemetry::with_trace`]):
//!   each span becomes one complete (`"ph":"X"`) event, each instant
//!   event one `"ph":"i"` line, timestamps in microseconds on a
//!   monotonic clock relative to handle creation. The first line is a
//!   metadata event declaring the stable [`TRACE_SCHEMA`]
//!   (`fedsz.trace.v1`); the file loads directly in `chrome://tracing`
//!   / Perfetto.
//! - A **Prometheus text-exposition snapshot**
//!   ([`Telemetry::render_prometheus`]): counters and gauges rendered
//!   in the text format, served over HTTP by
//!   `fedsz_net::MetricsServer`.
//!
//! The disabled handle ([`Telemetry::disabled`], also [`Default`]) is a
//! `None` behind the same API: every call returns immediately without
//! reading the clock or allocating, so instrumented hot paths (the
//! aggregation tree, the worker pool) pay one branch when telemetry is
//! off. The existing perf-smoke gate therefore doubles as the overhead
//! regression test.
//!
//! Thread safety follows the same no-`unsafe` discipline as
//! `fedsz_fl`'s worker pool: interior state lives behind [`Mutex`]es in
//! one [`Arc`]'d registry, and handles clone freely across threads.
//!
//! The crate also hosts the runtime's [`log`] facility (leveled stderr
//! lines gated by `FEDSZ_LOG`) and a dependency-free [`json`] parser
//! used by the golden trace tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod log;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Schema tag declared by the first line of every trace file.
///
/// The line is a Chrome metadata event (`"ph":"M"`, name
/// `trace.schema`) whose `args.schema` carries this tag; consumers
/// should reject files that do not lead with it.
pub const TRACE_SCHEMA: &str = "fedsz.trace.v1";

/// A borrowed key/value argument attached to spans and events.
///
/// Values are borrowed so that call sites build their `&[(key, value)]`
/// slices on the stack; nothing is rendered (or allocated) unless the
/// handle is enabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value<'a> {
    /// Unsigned integer (ids, counts, byte sizes).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (seconds, ratios). Non-finite values render as `null`.
    F64(f64),
    /// Boolean (decision outcomes).
    Bool(bool),
    /// Text (codec names, eviction reasons).
    Str(&'a str),
}

impl Value<'_> {
    fn render_into(&self, out: &mut String) {
        match *self {
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Value::F64(_) => out.push_str("null"),
            Value::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Str(v) => push_json_string(out, v),
        }
    }
}

/// Escapes `s` as a JSON string (with quotes) onto `out`.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Per-thread trace lane: stable small integers assigned in first-use
/// order, so one process's spans land on compact `tid` rows.
fn trace_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// The shared registry behind an enabled handle.
struct Inner {
    /// Monotonic origin; all trace timestamps are microseconds since.
    t0: Instant,
    /// JSONL sink, absent for a counters-only handle.
    trace: Option<Mutex<BufWriter<File>>>,
    /// Monotonically increasing series, rendered as Prometheus
    /// counters. Keys may carry one `{label="value"}` suffix.
    counters: Mutex<BTreeMap<String, f64>>,
    /// Last-write-wins series, rendered as Prometheus gauges.
    gauges: Mutex<BTreeMap<String, f64>>,
}

impl Inner {
    fn write_line(&self, line: &str) {
        if let Some(trace) = &self.trace {
            let mut w = trace.lock().expect("trace writer poisoned");
            let _ = w.write_all(line.as_bytes());
            let _ = w.write_all(b"\n");
        }
    }

    fn elapsed_micros(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        if let Some(trace) = &self.trace {
            if let Ok(mut w) = trace.lock() {
                let _ = w.flush();
            }
        }
    }
}

/// A cheap, cloneable telemetry handle.
///
/// Disabled (the default) it is a `None` — every operation is a single
/// branch, no clock reads, no allocation. Enabled it shares one
/// registry (and optionally one trace file) across all clones.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Telemetry(disabled)"),
            Some(inner) => f
                .debug_struct("Telemetry")
                .field("trace", &inner.trace.is_some())
                .finish_non_exhaustive(),
        }
    }
}

impl Telemetry {
    /// The no-op handle: nothing is recorded, nothing is allocated.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled handle with the counter/gauge registry but no trace
    /// file — for serving `/metrics` without writing a trace.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                t0: Instant::now(),
                trace: None,
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// An enabled handle that also streams Chrome trace events to
    /// `path` as JSONL, leading with the [`TRACE_SCHEMA`] metadata
    /// line.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if `path` cannot be created.
    pub fn with_trace(path: &Path) -> io::Result<Self> {
        let file = File::create(path)?;
        let telemetry = Self {
            inner: Some(Arc::new(Inner {
                t0: Instant::now(),
                trace: Some(Mutex::new(BufWriter::new(file))),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
            })),
        };
        // Schema declaration first, so consumers can reject foreign
        // files before parsing event lines.
        let mut line = String::with_capacity(96);
        line.push_str(r#"{"name":"trace.schema","cat":"meta","ph":"M","ts":0,"pid":1,"tid":0,"args":{"schema":"#);
        push_json_string(&mut line, TRACE_SCHEMA);
        line.push_str("}}");
        if let Some(inner) = &telemetry.inner {
            inner.write_line(&line);
        }
        Ok(telemetry)
    }

    /// Whether this handle records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Microseconds since the handle was created (`0` when disabled).
    ///
    /// This is the trace-relative clock: eviction events and other
    /// out-of-band records use it so their timestamps line up with the
    /// span stream.
    pub fn elapsed_micros(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.elapsed_micros(),
            None => 0,
        }
    }

    /// Opens a span: a named interval that closes (and writes one
    /// `"ph":"X"` trace line) when the returned guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.span_with(name, &[])
    }

    /// Opens a span with key/value arguments.
    ///
    /// `kv` is only read when the handle is enabled; a disabled handle
    /// returns an inert guard without rendering anything.
    pub fn span_with(&self, name: &'static str, kv: &[(&'static str, Value<'_>)]) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { active: None };
        };
        SpanGuard {
            active: Some(ActiveSpan {
                inner: Arc::clone(inner),
                name,
                args: render_args(kv),
                start_us: inner.elapsed_micros(),
            }),
        }
    }

    /// Writes an instant event (`"ph":"i"`) with key/value arguments.
    pub fn event(&self, name: &'static str, kv: &[(&'static str, Value<'_>)]) {
        let Some(inner) = &self.inner else {
            return;
        };
        let line = render_event(name, "i", inner.elapsed_micros(), None, &render_args(kv));
        inner.write_line(&line);
    }

    /// Adds `delta` to the counter `name`, creating it at zero first.
    ///
    /// Counters are monotonic by convention; rendered with
    /// `# TYPE ... counter`.
    pub fn add(&self, name: &'static str, delta: f64) {
        if let Some(inner) = &self.inner {
            let mut counters = inner.counters.lock().expect("counter registry poisoned");
            *counters.entry(name.to_string()).or_insert(0.0) += delta;
        }
    }

    /// Adds `delta` to the counter `name{label="value"}`.
    pub fn add_labeled(&self, name: &'static str, label: &'static str, value: &str, delta: f64) {
        if let Some(inner) = &self.inner {
            let mut key = String::with_capacity(name.len() + label.len() + value.len() + 6);
            key.push_str(name);
            key.push('{');
            key.push_str(label);
            key.push_str("=\"");
            key.push_str(value);
            key.push_str("\"}");
            let mut counters = inner.counters.lock().expect("counter registry poisoned");
            *counters.entry(key).or_insert(0.0) += delta;
        }
    }

    /// Ensures the counter `name` exists (at zero if new), so scrapes
    /// observe it deterministically before the first increment.
    pub fn declare_counter(&self, name: &'static str) {
        self.add(name, 0.0);
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn set_gauge(&self, name: &'static str, value: f64) {
        if let Some(inner) = &self.inner {
            let mut gauges = inner.gauges.lock().expect("gauge registry poisoned");
            gauges.insert(name.to_string(), value);
        }
    }

    /// Renders the counter/gauge registry in the Prometheus text
    /// exposition format (stable ordering: sorted by series name).
    pub fn render_prometheus(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let mut out = String::new();
        let counters = inner.counters.lock().expect("counter registry poisoned");
        let mut last_family = "";
        for (key, value) in counters.iter() {
            let family = key.split('{').next().unwrap_or(key);
            if family != last_family {
                let _ = writeln!(out, "# TYPE {family} counter");
                last_family = family;
            }
            let _ = writeln!(out, "{key} {}", format_metric(*value));
        }
        drop(counters);
        let gauges = inner.gauges.lock().expect("gauge registry poisoned");
        for (key, value) in gauges.iter() {
            let _ = writeln!(out, "# TYPE {key} gauge");
            let _ = writeln!(out, "{key} {}", format_metric(*value));
        }
        out
    }

    /// Flushes the trace sink (no-op without one).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            if let Some(trace) = &inner.trace {
                let _ = trace.lock().expect("trace writer poisoned").flush();
            }
        }
    }
}

/// Renders a metric value: integers without a fraction, floats as-is.
fn format_metric(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Renders a kv slice as a JSON object body (`{"k":v,...}`).
fn render_args(kv: &[(&'static str, Value<'_>)]) -> String {
    let mut out = String::with_capacity(16 + kv.len() * 16);
    out.push('{');
    for (i, (key, value)) in kv.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(&mut out, key);
        out.push(':');
        value.render_into(&mut out);
    }
    out.push('}');
    out
}

/// Renders one Chrome trace event line.
fn render_event(name: &str, ph: &str, ts: u64, dur: Option<u64>, args: &str) -> String {
    let cat = name.split('.').next().unwrap_or(name);
    let mut line = String::with_capacity(96 + name.len() + args.len());
    line.push_str(r#"{"name":"#);
    push_json_string(&mut line, name);
    line.push_str(r#","cat":"#);
    push_json_string(&mut line, cat);
    let _ = write!(line, r#","ph":"{ph}","ts":{ts}"#);
    if let Some(dur) = dur {
        let _ = write!(line, r#","dur":{dur}"#);
    }
    let _ = write!(line, r#","pid":1,"tid":{}"#, trace_tid());
    line.push_str(r#","args":"#);
    line.push_str(args);
    line.push('}');
    line
}

/// The live half of an enabled span guard.
struct ActiveSpan {
    inner: Arc<Inner>,
    name: &'static str,
    args: String,
    start_us: u64,
}

/// Closes its span on drop, writing one complete (`"ph":"X"`) trace
/// event with the measured duration. Inert when the handle that opened
/// it was disabled.
#[must_use = "a span measures the interval until the guard drops"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// Duration so far in nanoseconds-precision microseconds (`0` for
    /// an inert guard).
    pub fn elapsed_micros(&self) -> u64 {
        match &self.active {
            Some(span) => span.inner.elapsed_micros().saturating_sub(span.start_us),
            None => 0,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(span) = self.active.take() {
            let end = span.inner.elapsed_micros();
            let line = render_event(
                span.name,
                "X",
                span.start_us,
                Some(end.saturating_sub(span.start_us)),
                &span.args,
            );
            span.inner.write_line(&line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("fedsz-telemetry-{tag}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        let guard = t.span_with("x.y", &[("k", Value::U64(1))]);
        drop(guard);
        t.add("c", 1.0);
        t.set_gauge("g", 2.0);
        assert_eq!(t.elapsed_micros(), 0);
        assert_eq!(t.render_prometheus(), "");
    }

    #[test]
    fn trace_file_leads_with_schema_and_nests_spans() {
        let path = temp_path("schema");
        {
            let t = Telemetry::with_trace(&path).unwrap();
            let outer = t.span_with("engine.round", &[("round", Value::U64(0))]);
            {
                let _inner = t.span_with(
                    "merge.level",
                    &[("level", Value::U64(1)), ("codec", Value::Str("raw"))],
                );
            }
            t.event("serve.evict", &[("reason", Value::Str("silent \"child\""))]);
            drop(outer);
            t.flush();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        let header = json::parse(lines[0]).unwrap();
        assert_eq!(header.get("ph").and_then(json::Json::as_str), Some("M"));
        assert_eq!(
            header.get("args").and_then(|a| a.get("schema")).and_then(json::Json::as_str),
            Some(TRACE_SCHEMA)
        );
        // Every line parses; the inner span closed before the outer.
        let events: Vec<json::Json> = lines.iter().map(|l| json::parse(l).unwrap()).collect();
        let merge = &events[1];
        let evict = &events[2];
        let round = &events[3];
        assert_eq!(merge.get("name").and_then(json::Json::as_str), Some("merge.level"));
        assert_eq!(merge.get("cat").and_then(json::Json::as_str), Some("merge"));
        assert_eq!(evict.get("ph").and_then(json::Json::as_str), Some("i"));
        assert_eq!(round.get("name").and_then(json::Json::as_str), Some("engine.round"));
        let outer_ts = round.get("ts").and_then(json::Json::as_f64).unwrap();
        let outer_dur = round.get("dur").and_then(json::Json::as_f64).unwrap();
        let inner_ts = merge.get("ts").and_then(json::Json::as_f64).unwrap();
        let inner_dur = merge.get("dur").and_then(json::Json::as_f64).unwrap();
        assert!(inner_ts >= outer_ts);
        assert!(inner_ts + inner_dur <= outer_ts + outer_dur);
    }

    #[test]
    fn prometheus_snapshot_renders_counters_and_gauges() {
        let t = Telemetry::enabled();
        t.declare_counter("fedsz_net_evictions_total");
        t.add("fedsz_pool_tasks_total", 32.0);
        t.add("fedsz_pool_tasks_total", 32.0);
        t.add_labeled("fedsz_net_frame_bytes_total", "dir", "in", 100.0);
        t.add_labeled("fedsz_net_frame_bytes_total", "dir", "out", 250.0);
        t.set_gauge("fedsz_pool_width", 2.0);
        let text = t.render_prometheus();
        assert!(
            text.contains(
                "# TYPE fedsz_net_evictions_total counter\nfedsz_net_evictions_total 0\n"
            ),
            "{text}"
        );
        assert!(text.contains("fedsz_pool_tasks_total 64\n"), "{text}");
        assert!(text.contains("# TYPE fedsz_net_frame_bytes_total counter\n"), "{text}");
        assert!(text.contains("fedsz_net_frame_bytes_total{dir=\"in\"} 100\n"), "{text}");
        assert!(text.contains("fedsz_net_frame_bytes_total{dir=\"out\"} 250\n"), "{text}");
        assert!(text.contains("# TYPE fedsz_pool_width gauge\nfedsz_pool_width 2\n"), "{text}");
        // The TYPE header appears once per family, not once per series.
        assert_eq!(text.matches("# TYPE fedsz_net_frame_bytes_total").count(), 1);
    }

    #[test]
    fn handles_share_one_registry_across_threads() {
        let t = Telemetry::enabled();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let t = t.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        t.add("shared_total", 1.0);
                    }
                });
            }
        });
        assert!(t.render_prometheus().contains("shared_total 400\n"));
    }
}
