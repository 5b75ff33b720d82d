//! In-memory spans around calls into each layer, written out once at the end.
//!
//! This PR measures every layer *from outside*: the replay wraps each public
//! entry point it calls in a span. A parent span times an operator's
//! `process` call; the index and routing work done inside it cannot be
//! instrumented without touching the operator, so it is measured by repeating
//! the same calls on a twin structure right after the parent returns and
//! recording them as the parent's children. A span's **self time** is its
//! duration minus the durations of its direct children.

use crate::json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer entry point, e.g. `worker.process`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Input batch the call belongs to: all spans of one batch share it.
    pub batch: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans recorded under the name.
    pub spans: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Collects spans in memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Times `f` as a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        batch: u32,
        f: impl FnOnce() -> R,
    ) -> (SpanId, R) {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let result = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        (
            self.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                batch,
            }),
            result,
        )
    }

    /// Appends an already-timed span.
    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        SpanId((self.spans.len() - 1) as u32)
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus its direct children's
    /// durations (never below zero).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(SpanId(parent)) = span.parent {
                let slot = &mut self_ns[parent as usize];
                *slot = slot.saturating_sub(span.duration_ns());
            }
        }
        self_ns
    }

    /// Totals per span name, ordered by name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut totals: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let entry = totals.entry(span.name).or_default();
            entry.spans += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += self_ns;
        }
        totals
    }

    /// Writes the trace as JSON: `names` is the span-name table and every row
    /// of `spans` is `[name index, start_ns, end_ns, parent row or -1, batch]`.
    pub fn write_json(&self, path: &Path, header: &[(&str, String)]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut names: Vec<&'static str> = Vec::new();
        let mut rows = String::new();
        for (i, span) in self.spans.iter().enumerate() {
            let name = match names.iter().position(|n| *n == span.name) {
                Some(at) => at,
                None => {
                    names.push(span.name);
                    names.len() - 1
                }
            };
            let parent = span.parent.map_or(-1, |SpanId(p)| i64::from(p));
            if i > 0 {
                rows.push_str(",\n");
            }
            rows.push_str(&format!(
                "    [{name}, {}, {}, {parent}, {}]",
                span.start_ns, span.end_ns, span.batch
            ));
        }
        let mut fields: Vec<(&str, String)> = header.to_vec();
        let names: Vec<String> = names.iter().map(|n| json::string(n)).collect();
        fields.push((
            "columns",
            json::array(&["name", "start_ns", "end_ns", "parent", "batch"].map(json::string)),
        ));
        fields.push(("names", json::array(&names)));
        let head = json::object(&fields);
        // splice the span rows into the header object as its last member
        let head = head.strip_suffix('}').unwrap_or(&head);
        std::fs::write(path, format!("{head}, \"spans\": [\n{rows}\n  ]}}\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            batch: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        // worker 0..100 with two index children (30 + 20) measured right
        // after it; one of them has its own child of 5
        let worker = t.push(span("worker.process", 0, 100, None));
        let matching = t.push(span("index.match", 100, 130, Some(worker)));
        t.push(span("index.insert", 130, 150, Some(worker)));
        t.push(span("slab.settle", 150, 155, Some(matching)));
        assert_eq!(t.self_times_ns(), vec![50, 25, 20, 5]);
        let totals = t.totals();
        assert_eq!(
            totals["worker.process"],
            LayerTotals {
                spans: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(totals["index.match"].self_ns, 25);
        // self times partition the top-level time plus nothing else
        let self_sum: u64 = totals.values().map(|l| l.self_ns).sum();
        assert_eq!(self_sum, 100);
    }

    #[test]
    fn children_longer_than_the_parent_clamp_at_zero() {
        let mut t = Tracer::new();
        let parent = t.push(span("dispatcher.process", 0, 10, None));
        t.push(span("routing.route_object", 10, 25, Some(parent)));
        assert_eq!(t.self_times_ns(), vec![0, 15]);
    }

    #[test]
    fn span_times_the_closure_and_links_the_parent() {
        let mut t = Tracer::new();
        let (outer, value) = t.span("outer", None, 7, || 41 + 1);
        assert_eq!(value, 42);
        let (inner, ()) = t.span("inner", Some(outer), 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let spans = t.spans();
        assert_eq!(spans[inner.0 as usize].parent, Some(outer));
        assert_eq!(spans[inner.0 as usize].batch, 7);
        assert!(spans[inner.0 as usize].duration_ns() >= 2_000_000);
        assert!(spans[outer.0 as usize].end_ns <= spans[inner.0 as usize].start_ns);
    }

    #[test]
    fn json_output_is_indexed_by_name_table() {
        let mut t = Tracer::new();
        let a = t.push(span("a", 1, 5, None));
        t.push(span("b", 5, 9, Some(a)));
        t.push(span("a", 9, 12, None));
        let dir = crate::out_dir().join(format!("test-trace-{}", std::process::id()));
        let path = dir.join("trace-test.json");
        t.write_json(&path, &[("workload", json::string("toy"))])
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(text.starts_with(r#"{"workload": "toy", "columns": ["#));
        assert!(text.contains(r#""names": ["a", "b"]"#));
        assert!(text.contains("[0, 1, 5, -1, 0]"));
        assert!(text.contains("[1, 5, 9, 0, 0]"));
        assert!(text.contains("[0, 9, 12, -1, 0]"));
        assert!(text.trim_end().ends_with("]}"));
    }
}
