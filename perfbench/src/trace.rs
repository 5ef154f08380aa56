//! Spans recorded around the benchmark's own calls into each layer:
//! name, start, end, parent and a run id. Spans stay in memory and are
//! written as JSON lines when the run ends. With tracing off every call
//! is a no-op, so untraced runs pay only the `Instant` reads they take
//! anyway for their timings.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

pub struct Tracer {
    on: bool,
    run_id: u64,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; `usize::MAX` when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

impl Tracer {
    pub fn new(on: bool, run_id: u64) -> Self {
        Tracer {
            on,
            run_id,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    pub fn end(&mut self, id: SpanId) {
        if id.0 == usize::MAX {
            return;
        }
        self.spans[id.0].end_ns = self.t0.elapsed().as_nanos() as u64;
        if let Some(pos) = self.open.iter().rposition(|&s| s == id.0) {
            self.open.truncate(pos);
        }
    }

    /// Run `f` inside a span named `name` and return its result and its
    /// wall time in seconds (measured whether or not tracing is on).
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.begin(name);
        let t = Instant::now();
        let r = f();
        let secs = t.elapsed().as_secs_f64();
        self.end(id);
        (r, secs)
    }

    /// Per span name: count, total time and self time (total minus the
    /// part covered by direct children), in seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur as f64 * 1e-9;
            e.2 += dur.saturating_sub(child_ns[i]) as f64 * 1e-9;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                f,
                "{{\"run\":{},\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                self.run_id, s.name, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_but_still_times() {
        let mut t = Tracer::new(false, 1);
        let (v, secs) = t.time("x", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn nesting_sets_parent_and_self_time() {
        let mut t = Tracer::new(true, 1);
        let outer = t.begin("outer");
        let _ = t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        assert_eq!(t.spans[1].parent, Some(0));
        let st = t.self_times();
        let (n, total, own) = st["outer"];
        assert_eq!(n, 1);
        assert!(own < total);
        assert!(st["inner"].1 >= 0.002);
    }
}
