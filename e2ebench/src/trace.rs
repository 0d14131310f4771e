//! In-memory spans for the traced run.
//!
//! A span is `{name, start, end, parent, id}`. Spans are recorded by the
//! benchmark around its calls into each layer, kept in memory, and
//! written as JSON lines when the run ends. The spans of one day (or one
//! request) share an `id`: a root span sets it and its children inherit
//! it. A span's *self time* is its duration minus the part of its
//! interval covered by its children.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `stream.parse_file`.
    pub name: &'static str,
    /// Start, in ns since the tracer's epoch.
    pub start: u64,
    /// End, in ns since the tracer's epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The day or request this span belongs to.
    pub id: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

thread_local! {
    /// The open spans of this thread, innermost last.
    static OPEN: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

/// The span store.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    enabled: bool,
}

impl Tracer {
    fn with(enabled: bool) -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            enabled,
        })
    }

    /// A tracer whose epoch is now.
    pub fn new() -> Arc<Tracer> {
        Tracer::with(true)
    }

    /// A tracer that records nothing: [`Tracer::span`] just runs its
    /// closure. The untraced baseline of a replay runs with it.
    pub fn off() -> Arc<Tracer> {
        Tracer::with(false)
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // Every update is one push or one field store, so the spans are
        // whole even if a panicking thread held the lock.
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records an already-measured span; returns its index.
    pub fn record(&self, span: Span) -> usize {
        let mut spans = self.lock();
        spans.push(span);
        spans.len() - 1
    }

    /// Runs `f` inside a span named `name`. The parent is this thread's
    /// innermost open span; `id` defaults to the parent's.
    pub fn span<R>(&self, name: &'static str, id: Option<u64>, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let parent = OPEN.with(|o| o.borrow().last().copied());
        let id = id.or(parent.map(|(_, id)| id)).unwrap_or(0);
        let start = self.now();
        let idx = self.record(Span {
            name,
            start,
            end: start,
            parent: parent.map(|(idx, _)| idx),
            id,
        });
        OPEN.with(|o| o.borrow_mut().push((idx, id)));
        let out = f();
        OPEN.with(|o| o.borrow_mut().pop());
        let end = self.now();
        if let Some(s) = self.lock().get_mut(idx) {
            s.end = end;
        }
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| spans.get(p).map(|ps| (p, ps))) {
            let (pi, ps) = p;
            let (lo, hi) = (s.start.max(ps.start), s.end.min(ps.end));
            if lo < hi {
                children[pi].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for &(lo, hi) in kids.iter() {
                cur = match cur {
                    Some((clo, chi)) if lo <= chi => Some((clo, chi.max(hi))),
                    Some((clo, chi)) => {
                        covered += chi - clo;
                        Some((lo, hi))
                    }
                    None => Some((lo, hi)),
                };
            }
            if let Some((clo, chi)) = cur {
                covered += chi - clo;
            }
            s.dur().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals: span count, summed duration, summed self time (ns).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotal {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations.
    pub total: u64,
    /// Summed self times.
    pub self_ns: u64,
}

/// Totals by span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total += s.dur();
        t.self_ns += self_ns;
    }
    out
}

/// Wall time covered by root spans, and the self time of everything
/// below them (ns). Their difference is what no layer span explains.
pub fn coverage(spans: &[Span]) -> (u64, u64) {
    let selfs = self_times(spans);
    let wall = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur)
        .sum();
    let layers = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.parent.is_some())
        .map(|(_, &v)| v)
        .sum();
    (wall, layers)
}

/// The spans as JSON lines (with their self times).
pub fn to_json_lines(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"id\":{},\"self\":{}}}",
            s.name, s.start, s.end, parent, s.id, self_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 60, Some(0)),
            span("a.read", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 10, 8]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        // Two children overlap (20..40 ∪ 30..50 = 30 ns); a third starts
        // before the parent and only its inside part (90..100) counts.
        let spans = vec![
            span("root", 10, 100, None),
            span("c", 20, 40, Some(0)),
            span("c", 30, 50, Some(0)),
            span("c", 90, 120, Some(0)),
            span("late", 0, 15, Some(0)),
        ];
        let selfs = self_times(&spans);
        // covered: 10..15, 20..50, 90..100 = 5 + 30 + 10 = 45 of 90.
        assert_eq!(selfs[0], 45);
        let totals = by_name(&spans);
        assert_eq!(totals["c"].count, 3);
        assert_eq!(totals["c"].total, 20 + 20 + 30);
    }

    #[test]
    fn self_times_sum_to_root_wall() {
        let spans = vec![
            span("root", 0, 1000, None),
            span("x", 0, 400, Some(0)),
            span("y", 400, 900, Some(0)),
            span("y.io", 500, 700, Some(2)),
        ];
        let (wall, layers) = coverage(&spans);
        assert_eq!(wall, 1000);
        // Layer self times cover everything but the root's own 100 ns.
        assert_eq!(layers, 900);
        assert_eq!(self_times(&spans).iter().sum::<u64>(), wall);
    }

    #[test]
    fn nested_spans_link_parent_and_inherit_id() {
        let t = Tracer::new();
        t.span("day", Some(7), || {
            t.span("parse", None, || t.span("read", None, || ()));
            t.span("commit", None, || ());
        });
        t.span("other", None, || ());
        let s = t.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[3].parent, Some(0));
        assert_eq!(s[4].parent, None);
        assert!(s[..4].iter().all(|x| x.id == 7));
        assert_eq!(s[4].id, 0);
        assert!(s.iter().all(|x| x.end >= x.start));
        assert!(to_json_lines(&s).lines().count() == 5);
    }

    #[test]
    fn an_off_tracer_runs_the_closure_and_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.span("day", Some(1), || t.span("parse", None, || 42)), 42);
        assert!(t.spans().is_empty());
    }
}
