//! The benchmark's own span tracer: spans around each call the benchmark
//! makes into a layer, kept in memory and written out at the end.
//!
//! A span is (id, parent, name, start, end) in nanoseconds since the
//! tracer was made. A layer's self time is its spans' durations minus the
//! time their child spans cover. A tracer that is off records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans aggregated under one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &str) {
        if !self.on {
            return;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("exit matches an enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Close every span a panic left open.
    pub fn unwind(&mut self) {
        while !self.open.is_empty() {
            self.exit();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Count, total and self time per span name.
    pub fn layers(&self) -> BTreeMap<String, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, LayerTime> = BTreeMap::new();
        for s in &self.spans {
            let dur = s.end_ns - s.start_ns;
            let l = out.entry(s.name.clone()).or_default();
            l.count += 1;
            l.total_ns += dur;
            l.self_ns += dur.saturating_sub(child_ns[s.id]);
        }
        out
    }

    /// Summed self time of every span whose name starts with `prefix`.
    pub fn self_ns(&self, prefix: &str) -> u64 {
        self.layers()
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, l)| l.self_ns)
            .sum()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", || ());
        t.enter("parent");
        t.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit();
        let layers = t.layers();
        let parent = layers["parent"];
        let child = layers["child"];
        assert_eq!(parent.count, 1);
        assert!(child.total_ns >= 2_000_000);
        assert_eq!(parent.self_ns, parent.total_ns - child.total_ns);
        assert_eq!(t.spans[2].parent, Some(1));
        assert!(t.to_jsonl().lines().count() == 3);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        t.unwind();
        assert!(t.layers().is_empty());
    }
}
