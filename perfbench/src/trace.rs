//! In-memory spans around every call the benchmark makes into the
//! program, written out once the run ends. Disabled, every method is a
//! no-op, so untraced runs pay nothing for it.

use serde::Value;
use std::time::Instant;

/// One recorded interval.
struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    request: Option<usize>,
    /// Measured values attached to the span (CPU seconds, deltas, ...).
    fields: Vec<(String, f64)>,
}

/// A span recorder with one time origin.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new() }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn micros(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Opens a span now under `parent`.
    pub fn open(&mut self, name: &str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_us = self.micros(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: f64::NAN,
            parent,
            request: None,
            fields: Vec::new(),
        });
        Some(self.spans.len() - 1)
    }

    /// Closes an open span now.
    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_us = self.micros(Instant::now());
        }
    }

    /// Attaches a measured value to a span.
    pub fn field(&mut self, id: SpanId, name: &str, value: f64) {
        if let Some(i) = id {
            self.spans[i].fields.push((name.to_string(), value));
        }
    }

    /// Records a finished interval of one request.
    pub fn request(&mut self, name: &str, start: Instant, end: Instant, parent: SpanId, id: usize) {
        if !self.enabled {
            return;
        }
        let (start_us, end_us) = (self.micros(start), self.micros(end));
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us,
            parent,
            request: Some(id),
            fields: Vec::new(),
        });
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(&mut self, name: &str, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Per span name: how many spans, their total duration and their
    /// self time (duration minus the union of their children's
    /// intervals), both in µs, in order of first appearance.
    pub fn summary(&self) -> Vec<(String, usize, f64, f64)> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_us, s.end_us));
            }
        }
        let mut out: Vec<(String, usize, f64, f64)> = Vec::new();
        for (s, mut kids) in self.spans.iter().zip(children) {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (start, end) in kids {
                let (start, end) = (start.max(reach).max(s.start_us), end.min(s.end_us));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            let total = s.end_us - s.start_us;
            match out.iter_mut().find(|(n, ..)| *n == s.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += total;
                    row.3 += total - covered;
                }
                None => out.push((s.name.clone(), 1, total, total - covered)),
            }
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let num = |v: Option<usize>| v.map_or(Value::Null, |v| Value::Num(v as f64));
            let mut fields = vec![
                ("id".to_string(), Value::Num(i as f64)),
                ("name".to_string(), Value::Str(s.name.clone())),
                ("start_us".to_string(), Value::Num(s.start_us)),
                ("end_us".to_string(), Value::Num(s.end_us)),
                ("parent".to_string(), num(s.parent)),
                ("request".to_string(), num(s.request)),
            ];
            fields.extend(s.fields.iter().map(|(k, v)| (k.clone(), Value::Num(*v))));
            out.push_str(&serde_json::to_string(&Value::Object(fields)).expect("span serializes"));
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", None);
        assert_eq!(id, None);
        t.close(id);
        t.request("r", Instant::now(), Instant::now(), None, 1);
        assert!(t.summary().is_empty());
    }

    #[test]
    fn self_time_excludes_the_union_of_children() {
        let mut t = Tracer::new(true);
        let outer = t.open("outer", None);
        let inner = t.open("inner", outer);
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.close(inner);
        // Two overlapping requests inside `outer` count once.
        let now = Instant::now();
        t.request("req", now - std::time::Duration::from_millis(2), now, outer, 0);
        t.request("req", now - std::time::Duration::from_millis(1), now, outer, 1);
        t.close(outer);
        let rows = t.summary();
        let row = |name: &str| rows.iter().find(|r| r.0 == name).cloned().unwrap();
        let (_, n, total, own) = row("outer");
        let (_, _, inner_total, _) = row("inner");
        let (_, reqs, req_total, _) = row("req");
        assert_eq!((n, reqs), (1, 2));
        assert!(inner_total >= 5000.0 && (req_total - 3000.0).abs() < 1.0);
        // The requests end after `inner` started, so they overlap it too;
        // self time is bounded by what no child covers.
        assert!(own <= total - inner_total + 1e-6 && own >= 0.0);
    }
}
