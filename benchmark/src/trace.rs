//! Spans recorded by the benchmark's own code around its calls into each
//! layer: kept in memory, written out once when the run ends. Nothing inside
//! the program under test is traced yet, so the tree is
//! workload → phase (`setup`, `load`, `drain`, `verify`, each `restart`) →
//! layer call (the layer replay).

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    /// 0 for the root span.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The span sink of one process. A disabled tracer records nothing, so the
/// same harness code serves the untraced runs the end-to-end metrics come from.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last; a new span's parent is the innermost.
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off between repetitions (no span may be open).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "cannot toggle tracing inside a span");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.stack.pop().expect("exit without a matching enter");
        self.spans[id as usize - 1].end_ns = self.now_ns();
    }

    /// Record an already measured interval (a layer call timed by the
    /// replay) as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace as a JSON array of
    /// `{id, parent, name, start_ns, end_ns, workload}` objects.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"workload\":\"{}\"}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, workload
            );
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.enter("workload");
        t.enter("load");
        let a = Instant::now();
        t.record("layer", a, Instant::now());
        t.exit();
        t.exit();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[2].parent, spans[1].id);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(t.to_json("w").contains("\"name\":\"layer\""));

        let mut off = Tracer::new(false);
        off.enter("x");
        off.exit();
        assert!(off.spans().is_empty());
    }
}
