//! The benchmark's own span recorder for the traced run.
//!
//! Spans are recorded around calls into the program's public functions,
//! kept in memory, and written out as JSON lines when the run ends. Spans
//! of one epoch or one scenario share a `group` id. Everything runs on the
//! benchmark's main thread, so a span's children never overlap each other.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call this span wraps, e.g. `lp.rwa.solve`.
    pub name: &'static str,
    /// Epoch or scenario the span belongs to.
    pub group: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created (equal to `start` while open).
    pub end: f64,
}

impl Span {
    /// Wall seconds the span covers.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    /// Runs `f` inside a span named `name` in `group`, nested under the
    /// innermost open span.
    pub fn span<R>(&mut self, name: &'static str, group: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, group);
        let out = f();
        self.exit(id);
        out
    }

    /// Opens a span; close it with [`Tracer::exit`]. Use this form when
    /// the body itself records child spans.
    pub fn enter(&mut self, name: &'static str, group: u64) -> usize {
        let now = self.origin.elapsed().as_secs_f64();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            group,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(id);
        id
    }

    /// Closes the span `id` (the innermost open one).
    pub fn exit(&mut self, id: usize) {
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
    }

    /// Total duration of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration).sum()
    }

    /// Durations of the spans named `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration).collect()
    }

    /// Self time of span `id`: its duration minus the part of it that its
    /// child spans cover.
    pub fn self_time(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        let mut children: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start.max(span.start), c.end.min(span.end)))
            .collect();
        children.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = span.start;
        for (s, e) in children {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        span.duration() - covered
    }

    /// Per span name: `(count, total seconds, self seconds)`.
    pub fn by_name(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.duration();
            e.2 += self.self_time(id);
        }
        out
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"group\": {}, \"name\": \"{}\", \
                 \"start\": {}, \"end\": {}, \"self\": {}}}",
                s.group,
                s.name,
                s.start,
                s.end,
                self.self_time(id)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::default();
        let root = tr.enter("root", 0);
        tr.span("child", 0, || std::thread::sleep(std::time::Duration::from_millis(20)));
        std::thread::sleep(std::time::Duration::from_millis(5));
        tr.exit(root);
        let child = tr.total("child");
        let own = tr.self_time(root);
        assert!(child >= 0.019);
        assert!((own + child - tr.total("root")).abs() < 1e-9);
        assert!(own >= 0.004 && own < child);
    }
}
