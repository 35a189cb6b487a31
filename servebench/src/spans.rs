//! In-memory span recorder for the traced pass.
//!
//! A span is `(name, start, end, parent, op id)`. Spans are opened with
//! [`root`] (one per request, named after the request kind) and [`enter`]
//! (a child of whichever span is open on this thread), closed when their
//! guard drops, kept in memory, and handed back by [`finish`]. Recording
//! is off unless [`start`] armed it, so the same code path runs traced and
//! untraced; an unarmed guard costs one thread-local read.
//!
//! Spans live in a thread-local because the layers are called from the
//! benchmark's own thread — including the timing store decorator, which
//! `Engine::execute` calls back into, so store spans nest under the
//! `engine.execute` span that caused them.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds from [`start`].
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorded list.
    pub parent: Option<usize>,
    /// Index of the request (in `Workload::all_requests` order) the span
    /// belongs to.
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Arm recording on this thread, discarding anything recorded before.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() =
            Some(Recorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 });
    });
}

/// Disarm recording and return every span recorded since [`start`].
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map(|rec| rec.spans).unwrap_or_default())
}

/// Closes its span when dropped.
#[must_use = "a span ends when its guard drops"]
pub struct Guard(Option<usize>);

/// Open the root span of request `op`.
pub fn root(name: &'static str, op: usize) -> Guard {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.op = op as u32;
        }
    });
    enter(name)
}

/// Open a child of the innermost open span.
pub fn enter(name: &'static str) -> Guard {
    RECORDER.with(|r| {
        let mut slot = r.borrow_mut();
        let Some(rec) = slot.as_mut() else { return Guard(None) };
        let idx = rec.spans.len();
        let start_ns = rec.origin.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: rec.open.last().copied(),
            op: rec.op,
        });
        rec.open.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        RECORDER.with(|r| {
            // A guard that outlived a `start` or `finish` has no span left
            // to close.
            let mut slot = r.borrow_mut();
            let Some(rec) = slot.as_mut().filter(|rec| rec.open.last() == Some(&idx)) else {
                return;
            };
            rec.spans[idx].end_ns = rec.origin.elapsed().as_nanos() as u64;
            rec.open.pop();
        });
    }
}

/// Calls, total time and self time (total minus the time covered by
/// direct children) of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-name totals and self times.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(kids);
    }
    out
}

/// Totals of the spans named `name`, keyed by the name of their root span
/// (the request kind).
pub fn by_root(spans: &[Span], name: &str) -> BTreeMap<&'static str, Totals> {
    let root_of = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        spans[i].name
    };
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.name == name) {
        let t = out.entry(root_of(i)).or_default();
        t.calls += 1;
        t.total_ns += s.duration_ns();
    }
    out
}

/// Durations of every span named `name`, in recording order.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans.iter().filter(|s| s.name == name).map(Span::duration_ns).collect()
}

/// Tab-separated dump: `index name start_ns end_ns parent op`, parent `-`
/// for roots.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("index\tname\tstart_ns\tend_ns\tparent\top\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(out, "{i}\t{}\t{}\t{}\t{parent}\t{}", s.name, s.start_ns, s.end_ns, s.op);
    }
    out
}
