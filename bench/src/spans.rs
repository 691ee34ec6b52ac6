//! Harness-side spans: recorded in memory around the calls into each
//! layer, written out as JSON lines when the run ends.
//!
//! Spans *inside* the program (and `NVC_TRACE`) are a later change; these
//! are taken from the benchmark's own files only.

use std::time::Instant;

/// One recorded interval. `parent` indexes the log the span lives in.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Identifier shared by all spans of one operation.
    pub op: u64,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// An append-only span log with a common time origin.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    pub fn with_capacity(n: usize) -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::with_capacity(n),
        }
    }

    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Records a finished span and returns its index (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start_us: f64,
        end_us: f64,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start_us,
            end_us,
        });
        self.spans.len() - 1
    }

    /// Times `f` as one span; returns its result and the span's index.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.now_us();
        let out = f();
        let end = self.now_us();
        (out, self.record(name, op as u64, parent, start, end))
    }

    /// Median duration of the spans called `name` (0 when there are none).
    pub fn median_of(&self, name: &str) -> f64 {
        crate::stats::median_of(&self.durations_of(name)).unwrap_or(0.0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`.
    pub fn durations_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_us)
            .collect()
    }

    /// Self times of every span called `name`.
    pub fn self_times_of(&self, name: &str) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_us, s.end_us));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .filter(|(s, _)| s.name == name)
            .map(|(s, kids)| self_time_us((s.start_us, s.end_us), kids))
            .collect()
    }

    /// Writes one JSON object per span; the caller owns buffering and
    /// the final flush.
    pub fn write_jsonl(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            write!(out, "{{\"span\":{i},\"name\":{:?},\"op\":{}", s.name, s.op)?;
            if let Some(p) = s.parent {
                write!(out, ",\"parent\":{p}")?;
            }
            writeln!(
                out,
                ",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.start_us, s.end_us
            )?;
        }
        Ok(())
    }
}

/// A span's duration minus the part of its interval its children cover.
/// Children may overlap each other and may stick out of the parent; only
/// the covered part *inside* the parent is subtracted, once.
pub fn self_time_us(span: (f64, f64), children: &mut [(f64, f64)]) -> f64 {
    children.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("span times are never NaN"));
    let mut covered = 0.0;
    let mut cursor = span.0;
    for &(start, end) in children.iter() {
        let start = start.max(cursor);
        let end = end.min(span.1);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    (span.1 - span.0) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time_us((0.0, 100.0), &mut []), 100.0);
        // Disjoint children.
        assert_eq!(
            self_time_us((0.0, 100.0), &mut [(10.0, 20.0), (50.0, 70.0)]),
            70.0
        );
        // Overlapping children count once; order does not matter.
        assert_eq!(
            self_time_us((0.0, 100.0), &mut [(40.0, 60.0), (10.0, 50.0)]),
            50.0
        );
        // A child sticking out of the parent is clipped to it.
        assert_eq!(
            self_time_us((10.0, 50.0), &mut [(0.0, 20.0), (45.0, 90.0)]),
            25.0
        );
        // A nested child inside another child adds nothing.
        assert_eq!(
            self_time_us((0.0, 10.0), &mut [(1.0, 9.0), (2.0, 3.0)]),
            2.0
        );
    }

    #[test]
    fn log_attributes_children_to_their_parent() {
        let mut log = SpanLog::default();
        let op = log.record("op", 1, None, 0.0, 100.0);
        log.record("client.write", 1, Some(op), 0.0, 10.0);
        log.record("client.wait", 1, Some(op), 10.0, 90.0);
        let op2 = log.record("op", 2, None, 100.0, 150.0);
        log.record("client.wait", 2, Some(op2), 110.0, 150.0);
        assert_eq!(log.self_times_of("op"), [10.0, 10.0]);
        assert_eq!(log.durations_of("client.wait"), [80.0, 40.0]);
        assert_eq!(log.self_times_of("client.wait"), [80.0, 40.0]);
    }

    #[test]
    fn jsonl_has_one_line_per_span_with_parent_links() {
        let mut log = SpanLog::default();
        let op = log.record("op", 7, None, 1.0, 2.5);
        log.record("client.wait", 7, Some(op), 1.5, 2.0);
        let mut out = Vec::new();
        log.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            r#"{"span":0,"name":"op","op":7,"start_us":1.000,"end_us":2.500}"#
        );
        assert!(lines[1].contains(r#""parent":0"#));
    }
}
