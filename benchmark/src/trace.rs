//! Spans recorded from the benchmark's own code, around each call into
//! a layer's public functions.
//!
//! The program under test is not edited: a [`Tracer`] lives in the
//! benchmark, keeps its spans in memory, and writes them out once at the
//! end of the run. A disabled tracer is one branch per call. The only
//! in-program spans used are the ones the workspace already emits as
//! `fedsz.trace.v1` through its public `with_telemetry`; [`read_jsonl`]
//! loads those into the same [`Span`] shape so one self-time routine
//! serves both.

use fedsz_telemetry::json::{self, Json};
use fedsz_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds on the benchmark's one clock, which starts at the first
/// call. Every span in a trace file is on it.
pub fn clock_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One closed interval of work attributed to a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.fedsz.compress`.
    pub name: String,
    /// Start, in [`clock_ns`] nanoseconds.
    pub start_ns: u64,
    /// End, in [`clock_ns`] nanoseconds.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The closed-loop op this span belongs to; spans of one op share it.
    pub op: u64,
}

impl Span {
    /// The span's length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span, returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// In-memory span recorder for the benchmark's driver thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer that records (`true`) or ignores (`false`) every span.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, spans: Vec::new(), stack: Vec::new(), op: 0 }
    }

    /// Starts the next op: spans entered from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = clock_ns();
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes a span opened by [`Tracer::enter`]. Spans close in the
    /// reverse of the order they opened in.
    pub fn exit(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        self.spans[index].end_ns = clock_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(index), "spans must close innermost first");
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Appends foreign spans (a parsed `fedsz.trace.v1` file whose clock
    /// started at `origin_ns` on ours), so one file holds the whole run.
    /// A foreign root hangs under the innermost own span that was open at
    /// its midpoint — the call that caused it — and the whole foreign tree
    /// takes that span's op id. A no-op when disabled.
    pub fn extend(&mut self, spans: Vec<Span>, origin_ns: u64) {
        if !self.enabled {
            return;
        }
        let base = self.spans.len();
        for foreign in spans {
            let (start_ns, end_ns) = (foreign.start_ns + origin_ns, foreign.end_ns + origin_ns);
            let parent = match foreign.parent {
                Some(p) => Some(p + base),
                None => {
                    // Own spans are stored in start order, and of those
                    // open at an instant the last started is innermost.
                    let mid = start_ns + (end_ns - start_ns) / 2;
                    let started = self.spans[..base].partition_point(|s| s.start_ns <= mid);
                    self.spans[..started].iter().rposition(|s| s.end_ns >= mid)
                }
            };
            let op = parent.map_or(foreign.op, |p| self.spans[p].op);
            self.spans.push(Span { start_ns, end_ns, parent, op, ..foreign });
        }
    }

    /// Writes the spans as one JSON document: name, start, end, parent
    /// and op id per span.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ =
            write!(out, "{{\"schema\":\"fedsz.benchmark.trace.v1\",\"workload\":\"{workload}\"");
        out.push_str(",\"unit\":\"ns\",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

/// The program's own `fedsz.trace.v1` stream for one traced workload
/// instance, obtained through the public `with_telemetry` hooks.
pub struct ProgramTrace {
    telemetry: Telemetry,
    path: PathBuf,
    /// When the stream's clock started, on [`clock_ns`].
    origin_ns: u64,
}

impl ProgramTrace {
    /// Starts a stream into `dir/file`.
    pub fn open(dir: &Path, file: &str) -> Self {
        let path = dir.join(file);
        let origin_ns = clock_ns();
        let telemetry = Telemetry::with_trace(&path)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        Self { telemetry, path, origin_ns }
    }

    /// The handle to pass to `with_telemetry`.
    pub fn telemetry(&self) -> Telemetry {
        self.telemetry.clone()
    }

    /// Flushes and parses the stream, copies its spans into `tracer` on
    /// the benchmark's clock, and returns them on the stream's own.
    pub fn collect(&self, tracer: &mut Tracer) -> Vec<Span> {
        self.telemetry.flush();
        let spans = read_jsonl(&self.path).unwrap_or_else(|e| panic!("bad program trace: {e}"));
        tracer.extend(spans.clone(), self.origin_ns);
        spans
    }
}

/// Self time per span: its duration minus the part of that interval its
/// direct children cover (overlapping children are not double-counted).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Loads the complete (`"ph":"X"`) events of a `fedsz.trace.v1` JSONL
/// file as spans. The format carries no parent ids, so a span's parent is
/// the innermost span on the same trace lane that contains it; `op` is
/// the event's `round` argument where it has one.
pub fn read_jsonl(path: &Path) -> Result<Vec<Span>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty trace file")?;
    let schema = json::parse(header)?
        .get("args")
        .and_then(|a| a.get("schema"))
        .and_then(Json::as_str)
        .map(str::to_owned);
    if schema.as_deref() != Some(fedsz_telemetry::TRACE_SCHEMA) {
        return Err(format!("not a {} file", fedsz_telemetry::TRACE_SCHEMA));
    }
    // (lane, span) so nesting is resolved per thread.
    let mut events: Vec<(u64, Span)> = Vec::new();
    for line in lines {
        let event = json::parse(line)?;
        if event.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let num = |key: &str| event.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let start_ns = (num("ts") * 1e3) as u64;
        let round = event.get("args").and_then(|a| a.get("round")).and_then(Json::as_f64);
        events.push((
            num("tid") as u64,
            Span {
                name: event.get("name").and_then(Json::as_str).unwrap_or("").to_owned(),
                start_ns,
                end_ns: start_ns + (num("dur") * 1e3) as u64,
                parent: None,
                op: round.map_or(0, |r| r as u64),
            },
        ));
    }
    // Outer spans first: by start, longest first on ties (the file is
    // written in closing order, and timestamps are whole microseconds).
    events.sort_by(|(_, a), (_, b)| a.start_ns.cmp(&b.start_ns).then(b.end_ns.cmp(&a.end_ns)));
    let mut open: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut spans: Vec<Span> = Vec::with_capacity(events.len());
    for (lane, mut span) in events {
        let stack = open.entry(lane).or_default();
        while stack.last().is_some_and(|&top| spans[top].end_ns < span.end_ns) {
            stack.pop();
        }
        span.parent = stack.last().copied();
        if span.op == 0 {
            span.op = span.parent.map_or(0, |p| spans[p].op);
        }
        stack.push(spans.len());
        spans.push(span);
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name: name.into(), start_ns: start, end_ns: end, parent, op: 1 }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // round [0,100) > train [10,60) > epoch [20,50); round > merge
        // [70,90); two overlapping children of merge cover [70,85).
        let spans = vec![
            span("round", 0, 100, None),
            span("train", 10, 60, Some(0)),
            span("epoch", 20, 50, Some(1)),
            span("merge", 70, 90, Some(0)),
            span("leaf", 70, 80, Some(3)),
            span("leaf", 75, 85, Some(3)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 30, 5, 10, 10]);
        // Self times of a tree sum to the root's duration when children
        // do not overlap each other.
        let tree = &spans[..4];
        assert_eq!(self_times_ns(tree).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_links_parents_and_ops() {
        let mut t = Tracer::new(true);
        t.next_op();
        let outer = t.enter("op");
        t.scope("core.fedsz.compress", || ());
        t.exit(outer);
        t.next_op();
        t.scope("op", || ());
        let spans = &t.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[0].op, spans[1].op, spans[2].op), (1, 1, 2));
        assert!(spans[0].end_ns >= spans[1].end_ns);

        let mut off = Tracer::new(false);
        off.scope("op", || ());
        assert!(off.spans.is_empty());
    }

    #[test]
    fn foreign_spans_hang_under_the_call_that_caused_them() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("op", 100, 200, None),
            span("fl.engine.run_round", 110, 190, Some(0)),
            span("op", 300, 400, None),
        ];
        t.spans[2].op = 2;
        // A stream whose clock started at 100 on ours: one round inside
        // the first call, with a child, and one inside the second op.
        let foreign = vec![
            span("engine.round", 12, 88, None),
            span("engine.train", 20, 60, Some(0)),
            span("engine.round", 210, 290, None),
        ];
        t.extend(foreign, 100);
        let s = &t.spans;
        assert_eq!((s[3].start_ns, s[3].end_ns), (112, 188));
        assert_eq!((s[3].parent, s[3].op), (Some(1), 1), "innermost open span wins");
        assert_eq!((s[4].parent, s[4].op), (Some(3), 1), "children keep their parent");
        assert_eq!((s[5].parent, s[5].op), (Some(2), 2));
    }

    #[test]
    fn jsonl_spans_nest_by_containment() {
        let dir =
            std::env::temp_dir().join(format!("fedsz-benchmark-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        {
            let telemetry = fedsz_telemetry::Telemetry::with_trace(&path).unwrap();
            let round =
                telemetry.span_with("engine.round", &[("round", fedsz_telemetry::Value::U64(7))]);
            drop(telemetry.span("engine.train"));
            drop(round);
            telemetry.flush();
        }
        let spans = read_jsonl(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "engine.round");
        assert_eq!(spans[1].name, "engine.train");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 7, "children inherit the round as their op id");
    }
}
