//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; the program under test carries no
//! instrumentation.  Each span keeps its name, its start and end on both the
//! wall clock and the core clock (`stats::core_now`), in seconds since the
//! recorder was created, and the span that was open when it started.  Layer
//! times are read on the core clock, like the gated end-to-end timings.

use crate::stats::core_now;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub core_start_s: f64,
    pub core_end_s: f64,
    pub parent: Option<usize>,
}

impl Span {
    fn core_s(&self) -> f64 {
        self.core_end_s - self.core_start_s
    }
}

/// Records nested spans in the order they start.
pub struct Tracer {
    origin: Instant,
    core_origin: f64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            core_origin: core_now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> (f64, f64) {
        (
            self.origin.elapsed().as_secs_f64(),
            core_now() - self.core_origin,
        )
    }

    /// Run `f` inside a span named `name`; spans `f` opens become children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len();
        let (start_s, core_start_s) = self.now();
        self.spans.push(Span {
            name,
            start_s,
            end_s: start_s,
            core_start_s,
            core_end_s: core_start_s,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let (end_s, core_end_s) = self.now();
        self.spans[id].end_s = end_s;
        self.spans[id].core_end_s = core_end_s;
        out
    }

    /// Total core time of the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::core_s)
            .sum()
    }

    /// Summed core self time of the spans named `name`: each span's duration
    /// minus the part its direct children cover.  For a root span whose
    /// children are the layers, this is the residual no layer accounts for.
    pub fn self_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(id, s)| {
                let children: f64 = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(id))
                    .map(Span::core_s)
                    .sum();
                s.core_s() - children
            })
            .sum()
    }

    /// The spans as one JSON object, for writing out when the run ends.
    pub fn to_json(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\": {id}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \
                     \"core_start_s\": {}, \"core_end_s\": {}, \"parent\": {parent}}}",
                    s.name, s.start_s, s.end_s, s.core_start_s, s.core_end_s
                )
            })
            .collect();
        format!("{{\"spans\": [{}]}}", spans.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("root", |t| {
            t.span("a", |_| spin(20));
            spin(10);
        });
        let root = t.total_s("root");
        let a = t.total_s("a");
        assert!(a > 0.0 && root > a);
        assert!((t.self_s("root") - (root - a)).abs() < 1e-12);
        assert!(t.to_json().contains("\"parent\": 0"));
    }
}
