//! In-memory spans around the benchmark's own calls into each layer:
//! name, start, end and parent, written out once when the repetition
//! ends. Spans inside the program itself are a later issue.

use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: Option<usize>,
}

/// Reads the clock always (the repetition needs its wall time either
/// way) but keeps spans only when `enabled`.
pub struct Tracer {
    origin: Instant,
    pub enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// Span times count from `origin`.
    pub fn new(origin: Instant, enabled: bool) -> Tracer {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Records a finished span; returns its index (a parent for others).
    pub fn push(
        &mut self,
        name: &'static str,
        start_us: u64,
        end_us: u64,
        parent: Option<usize>,
    ) -> usize {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_us,
                end_us,
                parent,
            });
        }
        self.spans.len().saturating_sub(1)
    }

    /// Sets the end of a span recorded before its children ran.
    pub fn close(&mut self, index: usize) {
        let now = self.now_us();
        if let Some(span) = self.spans.get_mut(index) {
            span.end_us = now;
        }
    }

    pub fn durations_us<'a>(&'a self, name: &'a str) -> impl Iterator<Item = u64> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(|s| s.end_us - s.start_us)
    }

    pub fn to_json(&self, run_id: &str) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
                format!(
                    "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent}}}",
                    s.name, s.start_us, s.end_us
                )
            })
            .collect();
        format!(
            "{{\"run_id\":\"{run_id}\",\"spans\":[\n{}\n]}}\n",
            rows.join(",\n")
        )
    }
}
