//! Benchmark-owned spans: a name, a start, an end and the span that
//! caused it, recorded around calls into each layer. Spans stay in
//! memory and are written out as JSON lines when the benchmark ends.

use std::time::{Duration, Instant};

use crate::json::Json;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            start_ns: now,
            end_ns: now,
        });
        id
    }

    /// Closes span `id` and returns its duration.
    pub fn close(&mut self, id: usize) -> Duration {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        Duration::from_nanos(now - span.start_ns)
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.open(name, parent);
        let out = f();
        (out, self.close(id))
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let line = Json::obj([
                ("id", Json::Num(s.id as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name", Json::Str(s.name.clone())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }
}
