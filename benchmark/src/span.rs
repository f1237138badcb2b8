//! The harness's own spans, recorded around its calls into each layer.
//!
//! Spans live in memory during a pass and are written as one JSON line
//! each when the run ends. A span's self time is its duration minus the
//! part of it that its direct children cover, so the self times of one
//! op's tree add up to the op's root span.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// The transaction the span belongs to; spans of one op share it.
    pub op_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records well-nested spans on one thread.
pub struct SpanRecorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op_id: u64,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        SpanRecorder::new()
    }
}

impl SpanRecorder {
    pub fn new() -> SpanRecorder {
        SpanRecorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
        }
    }

    pub fn set_op(&mut self, op_id: u64) {
        self.op_id = op_id;
    }

    /// Open a span under the innermost open one; returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = self.origin.elapsed().as_nanos() as u64;
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(idx);
        idx
    }

    /// Close the innermost open span and return its duration.
    pub fn exit(&mut self) -> u64 {
        let idx = self.open.pop().expect("exit without an open span");
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans[idx].dur_ns()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_jsonl(&self, workload: &str) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let line = Json::obj(vec![
                ("workload", Json::str(workload)),
                ("span", Json::Num(i as f64)),
                ("name", Json::str(s.name)),
                ("op_id", Json::Num(s.op_id as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("self_ns", Json::Num(selfs[i] as f64)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

/// Self time per span: duration minus the durations of direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] = selfs[p].saturating_sub(s.dur_ns());
        }
    }
    selfs
}

/// Largest relative gap, over all root spans, between a root's duration
/// and the summed self times of its tree. Zero for a well-nested
/// recording; the run reports it so a broken recorder shows.
pub fn worst_self_time_gap(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let mut root_of: Vec<usize> = Vec::with_capacity(spans.len());
    let mut sum = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        let root = s.parent.map_or(i, |p| root_of[p]);
        root_of.push(root);
        sum[root] += selfs[i];
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none() && s.dur_ns() > 0)
        .map(|(i, s)| (sum[i] as f64 - s.dur_ns() as f64).abs() / s.dur_ns() as f64)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_with_nested_and_sibling_spans() {
        // txn [0,100] ▸ begin [0,10], stmt [10,80] ▸ fetch [12,70] ▸ ..,
        // verify [70,78]; commit [80,95]
        let spans = vec![
            span("txn", 0, 100, None),
            span("begin", 0, 10, Some(0)),
            span("stmt", 10, 80, Some(0)),
            span("fetch", 12, 70, Some(2)),
            span("verify", 70, 78, Some(2)),
            span("commit", 80, 95, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![5, 10, 4, 58, 8, 15]);
        assert_eq!(selfs.iter().sum::<u64>(), 100);
        assert_eq!(worst_self_time_gap(&spans), 0.0);
    }

    #[test]
    fn recorder_nests_and_tags_ops() {
        let mut r = SpanRecorder::new();
        r.set_op(7);
        r.enter("txn");
        r.enter("stmt");
        r.exit();
        r.enter("commit");
        r.exit();
        r.exit();
        r.set_op(8);
        r.enter("txn");
        r.exit();
        let s = r.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, None);
        assert_eq!((s[0].op_id, s[3].op_id), (7, 8));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert!(worst_self_time_gap(s) < 1e-9);
        assert_eq!(r.to_jsonl("w").lines().count(), 4);
    }
}
