//! In-memory span recording for the traced run.
//!
//! Spans are recorded from the benchmark's side of each call into a layer:
//! name, start, end, parent span and request id (one circuit, one test set
//! or one job). They stay in memory while the workload runs and are written
//! out once at the end. A disabled tracer records nothing, so untraced runs
//! pay one branch per boundary.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; pass it back to [`Tracer::exit`].
#[must_use]
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open` (and anything left open inside it).
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Records an interval timed elsewhere (a service job's lifetime, say)
    /// as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: self.stack.last().copied(),
            request,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let self_ns = self_times(&self.spans);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                span.name, span.start_ns, span.end_ns, self_ns[id], span.request
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (clipped to the parent, overlaps merged).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let start = span.start_ns.clamp(parent.start_ns, parent.end_ns);
            let end = span.end_ns.clamp(parent.start_ns, parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per span name over the trees rooted at spans named
/// `root`, in nanoseconds. The sums add up to the roots' total duration.
pub fn self_time_by_name(spans: &[Span], root: &str) -> BTreeMap<&'static str, u64> {
    // A parent is always recorded before its children.
    let mut root_of = Vec::with_capacity(spans.len());
    for (id, span) in spans.iter().enumerate() {
        let top = span.parent.map_or(id, |p| root_of[p]);
        root_of.push(top);
    }
    let mut totals = BTreeMap::new();
    for ((span, own), top) in spans.iter().zip(self_times(spans)).zip(root_of) {
        if spans[top].name == root {
            *totals.entry(span.name).or_insert(0) += own;
        }
    }
    totals
}

/// Total (inclusive) duration per span name, in nanoseconds.
pub fn total_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut totals = BTreeMap::new();
    for span in spans {
        *totals.entry(span.name).or_insert(0) += span.duration_ns();
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn nested_self_times_partition_the_root() {
        let spans = [
            span("pass", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 20, 30, Some(1)),
            span("b", 50, 70, Some(0)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![50, 20, 10, 20]);
        assert_eq!(own.iter().sum::<u64>(), spans[0].duration_ns());
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = [
            span("job", 0, 100, None),
            span("x", 10, 60, Some(0)),
            span("y", 40, 80, Some(0)),
            span("late", 90, 150, Some(0)),
        ];
        // Covered: [10, 80) and [90, 100) = 80 ns.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = [
            span("pass", 0, 100, None),
            span("a", 0, 30, Some(0)),
            span("a", 30, 60, Some(0)),
        ];
        assert_eq!(self_time_by_name(&spans, "pass")["pass"], 40);
        assert_eq!(self_time_by_name(&spans, "pass")["a"], 60);
        // Trees under other roots are left out.
        let mut with_job = spans.to_vec();
        with_job.push(span("job", 0, 500, None));
        assert!(!self_time_by_name(&with_job, "pass").contains_key("job"));
        assert_eq!(total_time_by_name(&spans)["pass"], 100);
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.enter("outer", 1);
        let inner = tracer.enter("inner", 1);
        tracer.exit(inner);
        tracer.exit(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false);
        let open = off.enter("outer", 1);
        off.exit(open);
        assert!(off.spans().is_empty());
    }
}
