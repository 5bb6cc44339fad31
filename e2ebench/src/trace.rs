//! In-memory spans and counts for the traced run (`--trace 1`).
//!
//! Spans are recorded by the benchmark around each call into a layer:
//! name, start, end, the epoch they serve, and their cause. A span
//! recorded with [`Tracer::span`] is caused by its epoch (its parent is
//! that epoch's `epoch` root span, resolved when the trace is
//! finished); one recorded with [`Tracer::request`] is caused by the
//! read schedule and has no parent. With tracing off every call is a
//! no-op, so the untraced run measures the end-to-end metrics alone.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::Mutex;
use std::time::Instant;

/// Name of the per-epoch root span.
pub const ROOT: &str = "epoch";

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub epoch: u64,
    /// Index of the causing span in [`Trace::spans`].
    pub parent: Option<usize>,
    rooted: bool,
}

impl Span {
    pub fn ms(&self) -> f64 {
        ms(self.end.saturating_duration_since(self.start))
    }
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub struct Tracer {
    enabled: bool,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, Vec<f64>>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    /// A span caused by epoch `epoch`.
    pub fn span(&self, name: &'static str, epoch: u64, start: Instant, end: Instant) {
        self.push(name, epoch, start, end, true);
    }

    /// A span caused by the read schedule; `epoch` is the epoch the
    /// response was stamped with.
    pub fn request(&self, name: &'static str, epoch: u64, start: Instant, end: Instant) {
        self.push(name, epoch, start, end, false);
    }

    fn push(&self, name: &'static str, epoch: u64, start: Instant, end: Instant, rooted: bool) {
        if self.enabled {
            lock(&self.spans).push(Span {
                name,
                start,
                end,
                epoch,
                parent: None,
                rooted,
            });
        }
    }

    /// One observation of a count recorded at a layer boundary.
    pub fn count(&self, name: &'static str, value: f64) {
        if self.enabled {
            lock(&self.counts).entry(name).or_default().push(value);
        }
    }

    /// Take what was recorded and resolve each span's parent.
    pub fn finish(&self) -> Trace {
        let mut spans = std::mem::take(&mut *lock(&self.spans));
        spans.sort_by_key(|s| s.start);
        let roots: BTreeMap<u64, usize> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == ROOT)
            .map(|(i, s)| (s.epoch, i))
            .collect();
        for span in &mut spans {
            if span.rooted && span.name != ROOT {
                span.parent = roots.get(&span.epoch).copied();
            }
        }
        Trace {
            spans,
            counts: std::mem::take(&mut *lock(&self.counts)),
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub struct Trace {
    pub spans: Vec<Span>,
    pub counts: BTreeMap<&'static str, Vec<f64>>,
}

impl Trace {
    /// Durations in ms of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    pub fn count(&self, name: &str) -> &[f64] {
        self.counts.get(name).map_or(&[], Vec::as_slice)
    }

    /// Total self time in ms per span name: each span's duration minus
    /// the part of it its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut children: BTreeMap<usize, Vec<(Instant, Instant)>> = BTreeMap::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children
                    .entry(parent)
                    .or_default()
                    .push((span.start, span.end));
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let covered = children
                .get(&i)
                .map_or(0.0, |c| covered_ms(c, span.start, span.end));
            *out.entry(span.name).or_default() += span.ms() - covered;
        }
        out
    }

    /// For each `[from, to]` window, the share of it covered by spans
    /// named in `names` (from any epoch).
    pub fn coverage(&self, windows: &[(Instant, Instant)], names: &[&str]) -> Vec<f64> {
        let stage: Vec<(Instant, Instant)> = self
            .spans
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(|s| (s.start, s.end))
            .collect();
        windows
            .iter()
            .filter(|(from, to)| to > from)
            .map(|&(from, to)| covered_ms(&stage, from, to) / ms(to - from))
            .collect()
    }

    /// Write spans (µs since the first span) and counts as JSON.
    pub fn write_json(&self, w: &mut dyn Write) -> io::Result<()> {
        let Some(origin) = self.spans.first().map(|s| s.start) else {
            return writeln!(w, "{{\"spans\":[],\"counts\":{{}}}}");
        };
        let us = |t: Instant| t.saturating_duration_since(origin).as_micros();
        write!(w, "{{\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                w,
                "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent},\"epoch\":{}}}",
                s.name,
                us(s.start),
                us(s.end),
                s.epoch,
            )?;
        }
        write!(w, "\n],\"counts\":{{")?;
        for (i, (name, values)) in self.counts.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let list: Vec<String> = values.iter().map(f64::to_string).collect();
            write!(w, "{sep}\n\"{name}\":[{}]", list.join(","))?;
        }
        writeln!(w, "\n}}}}")
    }
}

/// Length in ms of the union of `intervals` clipped to `[from, to]`.
fn covered_ms(intervals: &[(Instant, Instant)], from: Instant, to: Instant) -> f64 {
    let mut clipped: Vec<(Instant, Instant)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(from), e.min(to)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort();
    let mut total = 0.0;
    let mut current: Option<(Instant, Instant)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ms(ce - cs);
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ms(ce - cs);
    }
    total
}
