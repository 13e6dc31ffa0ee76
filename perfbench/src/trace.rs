//! Spans and counters recorded around calls into the workspace's public
//! API, held in memory and written out when the run ends.
//!
//! A disabled [`Tracer`] records nothing and costs one branch per call,
//! so the untraced run times the same code path as the traced one.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span (unique within one [`Tracer`]).
pub type SpanId = u64;

/// One recorded span: a named interval inside a request.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    /// Shared by every span of one scenario, step or batch.
    pub request: u64,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory recorder. Shared by reference across threads.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, f64>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: crate::clock::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id
    /// so that nested calls can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Some(id));
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            parent,
            name,
            request,
            start_ns,
            end_ns,
        });
        out
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Adds `value` to the counter `name`.
    pub fn count(&self, name: &'static str, value: f64) {
        if self.enabled {
            *self
                .counts
                .lock()
                .expect("counter map poisoned")
                .entry(name)
                .or_insert(0.0) += value;
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    pub fn counters(&self) -> BTreeMap<&'static str, f64> {
        self.counts.lock().expect("counter map poisoned").clone()
    }
}

/// Each span's self time: its duration minus the part of it covered by
/// its children. Children may nest further or overlap one another (a
/// parallel fan-out); the covered part is the union of their intervals,
/// clipped to the parent. Returned in the order of `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |kids| union_within(kids, s.start_ns, s.end_ns));
            s.duration_ns() - covered
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// Per span name: call count, total duration and total self time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub calls: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_ns += s.duration_ns();
        e.self_ns += self_ns;
    }
    out
}

/// Durations (ns) of every span named `name`, in recording order.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100) > child [10,60) > grandchild [20,30).
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 60),
            span(3, Some(2), 20, 30),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_as_their_union() {
        // Two parallel children [10,50) and [30,70), plus one sticking
        // out past the parent's end: [90,130) is clipped to [90,100).
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 50),
            span(3, Some(1), 30, 70),
            span(4, Some(1), 90, 130),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[0], 100 - 60 - 10);
        assert_eq!(&selfs[1..], &[40, 40, 40]);
    }

    #[test]
    fn self_time_handles_children_contained_in_siblings() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 80),
            span(3, Some(1), 20, 30),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn totals_group_by_name() {
        let mut spans = vec![span(1, None, 0, 100), span(2, Some(1), 10, 60)];
        spans[1].name = "y";
        let t = totals_by_name(&spans);
        assert_eq!(
            t["x"],
            NameTotals {
                calls: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(
            t["y"],
            NameTotals {
                calls: 1,
                total_ns: 50,
                self_ns: 50
            }
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("a", None, 0, |id| {
            assert!(id.is_none());
            7
        });
        t.count("c", 1.0);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        assert!(t.counters().is_empty());
    }

    #[test]
    fn enabled_tracer_links_parents() {
        let t = Tracer::new(true);
        t.span("outer", None, 9, |outer| {
            t.span("inner", outer, 9, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.request, 9);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
