//! Outside-in spans: the benchmark times each call it makes into a layer
//! of the system and records it as a span (name, start, end, parent,
//! run id). Spans stay in memory and are written out when the run ends.
//! The system itself carries no instrumentation; a span covers exactly
//! one public call (or one benchmark-side step around such calls).
//!
//! A disabled tracer records nothing and only runs the closure, so the
//! untraced measurements pay for one branch per call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.scan`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the tracer's list, if any.
    pub parent: Option<usize>,
    /// The request (training run, delta, probe) the span belongs to.
    pub run: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// In-memory span recorder for one thread.
pub struct Tracer {
    enabled: Cell<bool>,
    origin: Instant,
    run: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records only while enabled.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled: Cell::new(enabled),
            origin: Instant::now(),
            run: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Turns recording on or off (for alternating traced and untraced
    /// samples within one process).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Starts a new request: later spans carry the returned run id.
    pub fn next_run(&self) -> u64 {
        self.run.set(self.run.get() + 1);
        self.run.get()
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled.get() {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                run: self.run.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[idx].start_ns = self.ns(start);
        spans[idx].end_ns = self.ns(end);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Per run: the summed duration (s) of the spans named `name`. Runs
/// without such a span are absent.
pub fn per_run_secs(spans: &[Span], name: &str) -> BTreeMap<u64, f64> {
    let mut out = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *out.entry(s.run).or_insert(0.0) += s.secs();
    }
    out
}

/// Per run: the summed duration (s) of its top-level spans (those with
/// no enclosing span) — what the layers account for of that request.
pub fn top_level_per_run(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut out = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        *out.entry(s.run).or_insert(0.0) += s.secs();
    }
    out
}

/// The spans as JSON lines.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
            s.name, s.start_ns, s.end_ns, s.run
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_the_run_id() {
        let t = Tracer::new(true);
        let run = t.next_run();
        t.span("train", || {
            t.span("a", || ());
            t.span("b", || t.span("c", || ()));
        });
        let spans = t.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["train", "a", "b", "c"]);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.run == run && s.end_ns >= s.start_ns));
        let top = top_level_per_run(&spans);
        assert_eq!(top.len(), 1);
        assert_eq!(top[&run], spans[0].secs());
        assert_eq!(per_run_secs(&spans, "c")[&run], spans[3].secs());
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.spans().is_empty());
    }
}
