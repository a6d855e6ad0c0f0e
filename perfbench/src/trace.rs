//! In-memory spans recorded around the calls into each layer.
//!
//! A span has a name, a start and an end (seconds since the tracer's epoch),
//! an optional parent span and a trace id shared by every span of one
//! request (one campaign unit or one daemon job). Spans stay in memory until
//! [`Tracer::write`] dumps them as JSON lines at the end of a run. A layer's
//! self time is its span's duration minus the part of it that child spans
//! cover ([`self_times`]).

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id (unique within a tracer, starting at 1).
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Id shared by every span of one request.
    pub trace: u64,
    /// Layer-qualified name, e.g. `core.matrixfree.assemble`.
    pub name: &'static str,
    /// Start, seconds since the tracer epoch.
    pub start: f64,
    /// End, seconds since the tracer epoch.
    pub end: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Thread-safe in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        trace: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let mut spans = self.spans.lock().expect("span buffer lock poisoned");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            trace,
            name,
            start: start.saturating_duration_since(self.epoch).as_secs_f64(),
            end: end.saturating_duration_since(self.epoch).as_secs_f64(),
        });
        id
    }

    /// Reserves a span id for a span whose children finish before it does;
    /// [`Tracer::close`] fills it in.
    pub fn open(&self, name: &'static str, parent: Option<u64>, trace: u64) -> (u64, Instant) {
        let now = Instant::now();
        (self.record(name, parent, trace, now, now), now)
    }

    /// Sets the end of a span opened with [`Tracer::open`].
    pub fn close(&self, id: u64) {
        let end = self.epoch.elapsed().as_secs_f64();
        let mut spans = self.spans.lock().expect("span buffer lock poisoned");
        spans[id as usize - 1].end = end;
    }

    /// Runs `f` (given the span's id) inside a span and returns its result.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        trace: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let (id, _) = self.open(name, parent, trace);
        let out = f(id);
        self.close(id);
        out
    }

    /// A snapshot of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned")
            .clone()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"trace\":{},\"name\":\"{}\",\"start\":{:.9},\"end\":{:.9}}}",
                s.id, s.trace, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0.0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite span bounds"));
                let mut cursor = s.start;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(cursor), end.min(s.end));
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            (s.id, (s.duration() - covered).max(0.0))
        })
        .collect()
}

/// Sum of span durations per name.
pub fn total_by_name(spans: &[Span]) -> HashMap<&'static str, f64> {
    let mut totals = HashMap::new();
    for s in spans {
        *totals.entry(s.name).or_insert(0.0) += s.duration();
    }
    totals
}

/// Sum of self times per name.
pub fn self_by_name(spans: &[Span]) -> HashMap<&'static str, f64> {
    let own = self_times(spans);
    let mut totals = HashMap::new();
    for s in spans {
        *totals.entry(s.name).or_insert(0.0) += own[&s.id];
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name: "t",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, 0.0, 10.0),
            // Two overlapping children cover [1, 5]; a third covers [6, 7].
            span(2, Some(1), 1.0, 4.0),
            span(3, Some(1), 2.0, 5.0),
            span(4, Some(1), 6.0, 7.0),
            // A grandchild does not count against the root.
            span(5, Some(4), 6.0, 6.5),
        ];
        let own = self_times(&spans);
        assert!((own[&1] - 5.0).abs() < 1e-12);
        assert!((own[&2] - 3.0).abs() < 1e-12);
        assert!((own[&4] - 0.5).abs() < 1e-12);
        assert!((own[&5] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span(1, None, 2.0, 4.0), span(2, Some(1), 1.0, 3.0)];
        let own = self_times(&spans);
        assert!((own[&1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_records_nested_spans() {
        let tracer = Tracer::new();
        tracer.span("outer", None, 7, |outer| {
            tracer.span("inner", Some(outer), 7, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert!(self_by_name(&spans)["outer"] >= 0.0);
    }
}
