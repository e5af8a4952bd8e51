//! In-memory span recording for the traced run, and the self-time
//! arithmetic behind the per-layer table.
//!
//! A span is one timed call at a layer boundary: a name, the request it
//! belongs to, the span that caused it, and its start and end. Spans stay
//! in memory while the workload runs and are written out once at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name (`module.function`), or an envelope such as `request`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one request.
    pub request: u64,
    /// Start, in nanoseconds since the tracer's origin.
    pub start: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans; the enclosing span of a new span is the innermost one
/// still open.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span { name, parent, request, start, end: start });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span and returns its result and the span's
    /// duration in nanoseconds.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.begin(name, request);
        let value = std::hint::black_box(f());
        self.end(id);
        (value, self.spans[id].duration())
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children. Overlapping children are counted once
/// (their union is subtracted) and a child reaching outside its parent is
/// clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let (start, end) = (span.start.max(parent.start), span.end.min(parent.end));
            if start < end {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| span.duration().saturating_sub(union_length(intervals)))
        .collect()
}

fn union_length(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                covered += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    covered + current.map_or(0, |(s, e)| e - s)
}

/// Per-name aggregate of span self times.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerStats {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Self times of those spans, in nanoseconds.
    pub self_ns: Vec<u64>,
}

impl LayerStats {
    /// Summed self time in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }

    /// Median self time in microseconds (0 for a layer never called).
    pub fn self_us_p50(&self) -> f64 {
        if self.self_ns.is_empty() {
            return 0.0;
        }
        let us: Vec<f64> = self.self_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        crate::stats::median(&us)
    }
}

/// Groups the spans' self times by name.
pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, LayerStats> {
    let mut table: BTreeMap<&'static str, LayerStats> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let entry = table.entry(span.name).or_default();
        entry.calls += 1;
        entry.self_ns.push(self_ns);
    }
    table
}

/// Renders spans as tab-separated lines (`id parent request name start_ns
/// end_ns self_ns`) for the trace file written at exit.
pub fn render_tsv(spans: &[Span]) -> String {
    let mut out = String::from("id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns\n");
    for (id, (span, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = span.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{id}\t{parent}\t{}\t{}\t{}\t{}\t{self_ns}",
            span.request, span.name, span.start, span.end
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span { name, parent, request: 0, start, end }
    }

    #[test]
    fn nested_children_subtract_only_from_their_direct_parent() {
        let spans = [
            span("root", None, 0, 100),
            span("child", Some(0), 10, 50),
            span("grandchild", Some(1), 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![60, 30, 10]);
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        let spans =
            [span("root", None, 0, 100), span("a", Some(0), 10, 50), span("b", Some(0), 40, 70)];
        assert_eq!(self_times(&spans)[0], 40, "the union [10, 70) covers 60");
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [
            span("root", None, 0, 100),
            span("late", Some(0), 90, 120),
            span("detached", Some(0), 150, 160),
        ];
        assert_eq!(self_times(&spans), vec![90, 30, 10]);
    }

    #[test]
    fn disjoint_and_contained_children_add_up() {
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 0, 10),
            span("b", Some(0), 20, 30),
            span("c", Some(0), 22, 28),
        ];
        assert_eq!(self_times(&spans)[0], 80);
    }

    #[test]
    fn tracer_links_parents_and_tables_group_by_name() {
        let mut tracer = Tracer::default();
        let root = tracer.begin("request", 7);
        tracer.time("leaf", 7, || ());
        tracer.time("leaf", 7, || ());
        tracer.end(root);
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans.iter().all(|s| s.request == 7 && s.end >= s.start));
        let table = layer_table(spans);
        assert_eq!(table["leaf"].calls, 2);
        assert_eq!(table["request"].calls, 1);
        let tsv = render_tsv(spans);
        assert_eq!(tsv.lines().count(), 4);
    }
}
