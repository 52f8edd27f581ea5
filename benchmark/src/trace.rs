//! Spans recorded from the benchmark's own files, around each call into a
//! layer's public functions (choosing-metrics §4). Spans stay in memory and
//! are written as JSON lines when the workload ends; spans inside the
//! program are a later issue.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// Index of a span in its buffer.
pub type SpanId = u32;

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the buffer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one request share this id.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct SpanBuffer {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanBuffer {
    pub fn with_capacity(capacity: usize) -> SpanBuffer {
        SpanBuffer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    #[inline]
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        id
    }

    /// Times `f` as one span.
    #[inline]
    pub fn record<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.push(name, start, Instant::now(), None, request);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in nanoseconds, of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<u32> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns().min(u64::from(u32::MAX)) as u32)
            .collect()
    }

    /// Writes the spans as JSON lines, at most `cap_per_name` of each name
    /// (a traced window of microsecond calls records hundreds of thousands;
    /// the metrics use them all, the file keeps a readable sample). `id`
    /// and `parent` are positions in the full buffer.
    pub fn write_jsonl(&self, path: &Path, cap_per_name: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut written: Vec<(&'static str, usize)> = Vec::new();
        for (id, s) in self.spans.iter().enumerate() {
            let count = match written.iter_mut().find(|(name, _)| *name == s.name) {
                Some((_, count)) => count,
                None => {
                    written.push((s.name, 0));
                    &mut written.last_mut().expect("just pushed").1
                }
            };
            *count += 1;
            if *count > cap_per_name {
                continue;
            }
            let line = Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                ("request", Json::Num(s.request as f64)),
            ]);
            writeln!(w, "{}", line.to_line())?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its child spans cover (overlapping children are not counted twice, and a
/// child is clipped to its parent's interval).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// The stack replay's subtraction: the replay measures each depth of the
/// request path on its own, outermost first, so a layer's self time is its
/// depth's median minus the next depth's. The innermost depth keeps its
/// whole median. A negative difference (an inner depth measured slower than
/// the one wrapping it) is reported as it is, so the caller can flag it.
pub fn depth_self_times(depth_p50: &[f64]) -> Vec<f64> {
    depth_p50
        .iter()
        .enumerate()
        .map(|(i, &p)| p - depth_p50.get(i + 1).copied().unwrap_or(0.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "x",
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let spans = [
            span(0, 100, None),     // 0: request
            span(10, 30, Some(0)),  // 1: child
            span(20, 50, Some(0)),  // 2: overlaps child 1 → union 10..50
            span(90, 120, Some(0)), // 3: clipped to 90..100
            span(12, 18, Some(1)),  // 4: grandchild, counts against 1 only
        ];
        assert_eq!(
            self_times_ns(&spans),
            vec![100 - 40 - 10, 20 - 6, 30, 30, 6]
        );
    }

    #[test]
    fn a_childless_span_keeps_its_duration() {
        assert_eq!(self_times_ns(&[span(5, 25, None)]), vec![20]);
        assert_eq!(self_times_ns(&[]), Vec::<u64>::new());
    }

    #[test]
    fn depth_subtraction_is_outer_minus_inner() {
        let selfs = depth_self_times(&[680.0, 150.0, 2.6, 2.5]);
        assert_eq!(selfs.len(), 4);
        assert_eq!(selfs[0], 530.0);
        assert_eq!(selfs[1], 147.4);
        assert!((selfs[2] - 0.1).abs() < 1e-9);
        assert_eq!(selfs[3], 2.5);
        // An inversion is not hidden.
        assert!(depth_self_times(&[1.0, 2.0])[0] < 0.0);
    }

    #[test]
    fn buffer_records_and_writes_spans() {
        let mut buf = SpanBuffer::with_capacity(4);
        let v = buf.record("layer.call", 7, || 41 + 1);
        assert_eq!(v, 42);
        let t = Instant::now();
        let parent = buf.push("outer", t, t, None, 8);
        buf.push("inner", t, t, Some(parent), 8);
        assert_eq!(buf.spans().len(), 3);
        assert_eq!(buf.durations_ns("layer.call").len(), 1);
        let path =
            std::env::temp_dir().join(format!("td-benchmark-spans-{}.jsonl", std::process::id()));
        buf.write_jsonl(&path, 2).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].get("name").unwrap().as_str(), Some("layer.call"));
        assert_eq!(lines[0].get("request").unwrap().as_f64(), Some(7.0));
        assert_eq!(lines[2].get("parent").unwrap().as_f64(), Some(1.0));
        assert_eq!(lines[1].get("parent"), Some(&Json::Null));
    }
}
