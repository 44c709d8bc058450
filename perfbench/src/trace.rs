//! Spans recorded by the benchmark around each call into a layer.
//!
//! Every load thread owns a [`Tracer`]; spans stay in its memory until
//! the run ends, when [`Trace`] merges them, computes each layer's self
//! time (a span's duration minus the part of it its children cover) and
//! writes them out as CSV. A disabled tracer records nothing, so the
//! untraced run pays one branch per span.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

/// Layers a span can belong to; each gets a `self.<layer>_s` metric.
pub const LAYERS: &[&str] = &["bench", "serve", "spatial", "traj", "embed", "core"];

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    pub layer: &'static str,
    pub name: &'static str,
    /// Request or stage id.
    pub req: u64,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// One thread's span buffer.
pub struct Tracer {
    on: bool,
    thread: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// `thread` keeps span ids unique across the run's tracers.
    pub fn new(on: bool, thread: u64) -> Self {
        Tracer {
            on,
            thread,
            next: 0,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// A fresh span id, for a span whose children are recorded before it.
    pub fn id(&mut self) -> u64 {
        self.next += 1;
        (self.thread << 40) | self.next
    }

    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        id: u64,
        parent: u64,
        layer: &'static str,
        name: &'static str,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        debug_assert!(LAYERS.contains(&layer), "unknown layer {layer}");
        if self.on {
            self.spans.push(Span {
                id,
                parent,
                layer,
                name,
                req,
                start,
                end,
            });
        }
    }

    /// Runs `f` inside a span; `f` gets the span id for its children.
    /// Returns `f`'s value and the span's duration in seconds.
    pub fn span<T>(
        &mut self,
        parent: u64,
        layer: &'static str,
        name: &'static str,
        req: u64,
        f: impl FnOnce(&mut Tracer, u64) -> T,
    ) -> (T, f64) {
        let id = self.id();
        let start = Instant::now();
        let out = f(self, id);
        let end = Instant::now();
        self.record(id, parent, layer, name, req, start, end);
        (out, (end - start).as_secs_f64())
    }
}

/// Every span of a run.
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn merge(tracers: impl IntoIterator<Item = Tracer>) -> Self {
        let mut spans: Vec<Span> = tracers.into_iter().flat_map(|t| t.spans).collect();
        spans.sort_by_key(|s| s.start);
        Trace { spans }
    }

    /// Seconds of each span's duration not covered by its children.
    pub fn self_secs(&self) -> Vec<f64> {
        let mut children: HashMap<u64, Vec<(Instant, Instant)>> = HashMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .map(|s| {
                let covered = children
                    .get_mut(&s.id)
                    .map_or(0.0, |kids| covered_secs(kids, s.start, s.end));
                (s.secs() - covered).max(0.0)
            })
            .collect()
    }

    /// Self time summed per layer.
    pub fn self_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
        for (s, secs) in self.spans.iter().zip(self.self_secs()) {
            *out.entry(s.layer).or_default() += secs;
        }
        out
    }

    /// One line per span name: count, total and self seconds.
    pub fn summary(&self) -> String {
        let mut rows: BTreeMap<(&str, &str), (u64, f64, f64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_secs()) {
            let row = rows.entry((s.layer, s.name)).or_default();
            row.0 += 1;
            row.1 += s.secs();
            row.2 += own;
        }
        let mut out = format!(
            "{:<8} {:<28} {:>9} {:>11} {:>11}\n",
            "layer", "span", "count", "total_s", "self_s"
        );
        for ((layer, name), (n, total, own)) in rows {
            let _ = writeln!(
                out,
                "{layer:<8} {name:<28} {n:>9} {total:>11.4} {own:>11.4}"
            );
        }
        out
    }

    /// `id,parent,layer,name,req,start_ns,end_ns`, times relative to the
    /// earliest span.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let Some(base) = self.spans.first().map(|s| s.start) else {
            return std::fs::write(path, "id,parent,layer,name,req,start_ns,end_ns\n");
        };
        let mut out = String::with_capacity(64 * self.spans.len() + 64);
        out.push_str("id,parent,layer,name,req,start_ns,end_ns\n");
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{}",
                s.id,
                s.parent,
                s.layer,
                s.name,
                s.req,
                (s.start - base).as_nanos(),
                (s.end - base).as_nanos()
            );
        }
        std::fs::write(path, out)
    }
}

/// Length of the union of `kids`, clipped to `[start, end]`.
fn covered_secs(kids: &mut [(Instant, Instant)], start: Instant, end: Instant) -> f64 {
    kids.sort_by_key(|k| k.0);
    let mut covered = 0.0;
    let mut cursor = start;
    for &(a, b) in kids.iter() {
        let a = a.max(cursor);
        let b = b.min(end);
        if b > a {
            covered += (b - a).as_secs_f64();
            cursor = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tr = Tracer::new(true, 1);
        let root = tr.id();
        let (a, b) = (tr.id(), tr.id());
        // Children overlap on [20, 30] and one sticks out past the parent.
        tr.record(a, root, "spatial", "a", 0, at(10), at(30));
        tr.record(b, root, "spatial", "b", 0, at(20), at(120));
        tr.record(root, 0, "bench", "root", 0, at(0), at(100));
        let trace = Trace::merge([tr]);
        let by_layer = trace.self_by_layer();
        assert!((by_layer["bench"] - 0.010).abs() < 1e-9);
        assert!((by_layer["spatial"] - 0.120).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false, 1);
        let ((), _) = tr.span(0, "core", "x", 0, |_, _| ());
        assert!(Trace::merge([tr]).spans.is_empty());
    }
}
