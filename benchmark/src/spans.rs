//! In-memory span recorder for the traced run.
//!
//! The harness records a span around every call it makes into a layer
//! — never inside the program — and writes them out when the run ends.
//! Spans of one lap share `request_id` (the lap index). A recorder that
//! is off costs one branch per call, so the untraced run and the traced
//! run execute the same loop.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Marks a span without a parent (the run's root).
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans against one origin instant; `open`/`close` nest.
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off; spans recorded so far are kept.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, request_id: u64) {
        if !self.on {
            return;
        }
        let id = self.spans.len() as u32;
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            request_id,
        });
        self.stack.push(id);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        if let Some(id) = self.stack.pop() {
            let now = self.ns(Instant::now());
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Records a finished call under the innermost open span, from the
    /// two instants the harness took for its own timing anyway.
    pub fn leaf(&mut self, name: &'static str, request_id: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            request_id,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children are clipped to the parent and
/// overlapping children are counted once, so the result never goes
/// below zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(parent) = spans.get(s.parent as usize) {
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[s.parent as usize].push((start, end));
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
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals `(name, count, total_ns, self_ns)`, ordered by first
/// appearance.
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.duration_ns();
                r.3 += self_ns;
            }
            None => rows.push((s.name, 1, s.duration_ns(), self_ns)),
        }
    }
    rows
}

/// Writes the spans as one JSON array.
pub fn write_json(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    w.write_all(b"[")?;
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            w.write_all(b",\n")?;
        }
        write!(
            w,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
            s.id, s.name, s.start_ns, s.end_ns
        )?;
        if s.parent == NO_PARENT {
            w.write_all(b"null")?;
        } else {
            write!(w, "{}", s.parent)?;
        }
        write!(w, ",\"request_id\":{}}}", s.request_id)?;
    }
    w.write_all(b"]\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            name: "t",
            start_ns,
            end_ns,
            parent,
            request_id: 0,
        }
    }

    #[test]
    fn nested_children_subtract_from_each_level() {
        // run [0,100] > pass [10,90] > call [20,50]
        let spans = [
            span(0, NO_PARENT, 0, 100),
            span(1, 0, 10, 90),
            span(2, 1, 20, 50),
        ];
        assert_eq!(self_times(&spans), vec![20, 50, 30]);
    }

    #[test]
    fn adjacent_children_cover_their_sum() {
        let spans = [
            span(0, NO_PARENT, 0, 100),
            span(1, 0, 10, 40),
            span(2, 0, 40, 70),
            span(3, 0, 80, 100),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 30 - 30 - 20);
    }

    #[test]
    fn overlapping_and_overhanging_children_saturate() {
        // Two children overlap on [30,40]; a third overhangs the parent
        // on both sides: covered time is clipped, never negative.
        let spans = [
            span(0, NO_PARENT, 10, 60),
            span(1, 0, 20, 40),
            span(2, 0, 30, 50),
            span(3, 0, 0, 200),
        ];
        assert_eq!(self_times(&spans)[0], 0);
        let spans = [
            span(0, NO_PARENT, 10, 60),
            span(1, 0, 20, 40),
            span(2, 0, 30, 50),
        ];
        assert_eq!(self_times(&spans)[0], 50 - 30);
        // A span that ends before it starts has no duration.
        assert_eq!(self_times(&[span(0, NO_PARENT, 9, 3)]), vec![0]);
    }

    #[test]
    fn recorder_builds_one_tree_and_off_records_nothing() {
        let mut rec = Recorder::new(true);
        rec.open("bench.run", 0);
        rec.open("bench.pass", 0);
        let t = Instant::now();
        rec.leaf("server.call.compress", 7, t, Instant::now());
        rec.close();
        rec.close();
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 1);
        assert_eq!(spans[2].request_id, 7);
        assert_eq!(spans.iter().filter(|s| s.parent == NO_PARENT).count(), 1);
        let rows = by_name(spans);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].0, "bench.run");

        let mut off = Recorder::new(false);
        off.open("bench.run", 0);
        off.leaf("x", 0, t, t);
        off.close();
        assert!(off.spans().is_empty());
    }
}
