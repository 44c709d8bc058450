//! Per-layer numbers read from the program's own counters, and the
//! sequential engine pass every traced run makes over its own pairs.

use std::sync::Arc;

use pathrank_obs::{
    bucket_index, CounterSample, GaugeSample, HistogramSnapshot, MetricsSnapshot, BUCKETS,
};
use pathrank_spatial::algo::cch::Cch;
use pathrank_spatial::algo::ch::ContractionHierarchy;
use pathrank_spatial::algo::engine::QueryEngine;
use pathrank_spatial::graph::{CostModel, Graph, VertexId};

use crate::report::Outcome;
use crate::trace::Tracer;

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `pathrank_serve_*` figures over a registry window. `sent` is the
/// number of requests the benchmark sent in that window.
pub fn serve_counters(out: &mut Outcome, window: &MetricsSnapshot, sent: u64) {
    let served = window.counter_total("pathrank_serve_served_total", &[]);
    let batched = window.counter_total("pathrank_serve_served_total", &[("mode", "batched")]);
    out.set("serve.server.batched_share", ratio(batched, served));
    if let Some(h) = window.histogram("pathrank_serve_batch_size", &[]) {
        out.set("serve.server.batch_size_mean", h.mean());
    }
    let shed = window.counter_total("pathrank_serve_shed_total", &[]);
    out.set("serve.server.shed_share", ratio(shed, sent));
}

/// Server-side request latency percentiles over a registry window.
pub fn serve_latency(out: &mut Outcome, window: &MetricsSnapshot) -> f64 {
    let Some(h) = window.histogram("pathrank_serve_request_latency_ns", &[]) else {
        return 0.0;
    };
    let p50 = h.percentile(50.0) / 1e3;
    out.set("serve.server.latency_p50_us", p50);
    out.set("serve.server.latency_p99_us", h.percentile(99.0) / 1e3);
    p50
}

/// Sparse CCH customization figures over a registry window; returns the
/// customization p50 in microseconds.
pub fn cch_counters(out: &mut Outcome, window: &MetricsSnapshot) -> f64 {
    let mut p50 = 0.0;
    if let Some(h) = window.histogram("pathrank_cch_customize_ns", &[("kind", "sparse")]) {
        p50 = h.percentile(50.0) / 1e3;
        out.set("spatial.cch.delta_customize_p50_us", p50);
    }
    if let Some(h) = window.histogram("pathrank_cch_recomputed_arcs", &[]) {
        out.set("spatial.cch.recomputed_arcs_mean", h.mean());
    }
    if let Some(h) = window.histogram("pathrank_cch_delta_edges", &[]) {
        out.set("spatial.cch.delta_edges_mean", h.mean());
    }
    p50
}

/// `pathrank_engine_*` figures over a registry window.
pub fn engine_counters(out: &mut Outcome, window: &MetricsSnapshot) {
    let family = "pathrank_engine_queries_total";
    let queries = window.counter_total(family, &[]);
    for (backend, name) in [
        ("ch", "spatial.engine.share.ch"),
        ("cch", "spatial.engine.share.cch"),
        ("alt", "spatial.engine.share.alt"),
        ("plain", "spatial.engine.share.plain"),
    ] {
        out.set(
            name,
            ratio(
                window.counter_total(family, &[("backend", backend)]),
                queries,
            ),
        );
    }
    let settled = window.counter_total("pathrank_engine_settled_nodes_total", &[]);
    let pushes = window.counter_total("pathrank_engine_heap_pushes_total", &[]);
    out.set("spatial.engine.settled_per_query", ratio(settled, queries));
    out.set(
        "spatial.engine.heap_pushes_per_query",
        ratio(pushes, queries),
    );
    out.set(
        "spatial.engine.fallbacks",
        window.counter_total("pathrank_engine_fallback_total", &[]) as f64,
    );
}

/// Rebuilds a [`MetricsSnapshot`] from a `STATS` Prometheus scrape, so
/// a remote server's window is cut with the same `delta_since` as an
/// in-process one. (`STATS json` carries only cumulative percentiles,
/// not the buckets a window needs.)
pub fn snapshot_from_prometheus(text: &str) -> Result<MetricsSnapshot, String> {
    let mut kinds = std::collections::HashMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            if let (Some(name), Some(kind)) = (it.next(), it.next()) {
                kinds.insert(name.to_string(), kind.to_string());
            }
        }
    }
    let mut snap = MetricsSnapshot::default();
    for s in pathrank_obs::promtext::parse(text)? {
        let kind = |family: &str| kinds.get(family).map(String::as_str);
        if kind(&s.name) == Some("counter") {
            snap.counters.push(CounterSample {
                name: s.name,
                help: String::new(),
                labels: s.labels,
                value: s.value as u64,
            });
        } else if kind(&s.name) == Some("gauge") {
            snap.gauges.push(GaugeSample {
                name: s.name,
                help: String::new(),
                labels: s.labels,
                value: s.value as i64,
            });
        } else if let Some(family) = s.name.strip_suffix("_bucket") {
            let le = s
                .labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| v.clone());
            let labels: Vec<(String, String)> =
                s.labels.into_iter().filter(|(k, _)| k != "le").collect();
            let h = histogram_entry(&mut snap, family, labels);
            match le.as_deref() {
                Some("+Inf") => h.count = s.value as u64,
                Some(le) => {
                    let le: u64 = le.parse().map_err(|_| format!("bad le {le}"))?;
                    // Cumulative counts arrive in bucket order; keep the
                    // running total in `sum` until `_sum` overwrites it.
                    let idx = bucket_index(le.saturating_sub(1));
                    h.counts[idx] = (s.value as u64).saturating_sub(h.sum);
                    h.sum = s.value as u64;
                }
                None => return Err(format!("bucket without le in {family}")),
            }
        } else if let Some(family) = s.name.strip_suffix("_sum") {
            histogram_entry(&mut snap, family, s.labels).sum = s.value as u64;
        }
    }
    Ok(snap)
}

fn histogram_entry<'a>(
    snap: &'a mut MetricsSnapshot,
    family: &str,
    labels: Vec<(String, String)>,
) -> &'a mut HistogramSnapshot {
    let pos = snap
        .histograms
        .iter()
        .position(|h| h.name == family && h.labels == labels);
    let pos = pos.unwrap_or_else(|| {
        snap.histograms.push(HistogramSnapshot {
            name: family.to_string(),
            labels,
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
        });
        snap.histograms.len() - 1
    });
    &mut snap.histograms[pos]
}

/// The indexes a sequential engine pass runs on.
pub struct PassIndexes<'a> {
    pub ch: Arc<ContractionHierarchy>,
    pub cch: Arc<Cch>,
    /// The cost model `cch` was customized for.
    pub cch_cost: CostModel<'a>,
}

/// Times `QueryEngine::shortest_path_cost` per backend over the
/// workload's own pairs, one engine per backend, and records the mean
/// microseconds per query.
pub fn engine_pass(
    out: &mut Outcome,
    tr: &mut Tracer,
    parent: u64,
    g: &Graph,
    idx: &PassIndexes<'_>,
    pairs: &[(VertexId, VertexId)],
) {
    const CH_PAIRS: usize = 4000;
    const PLAIN_PAIRS: usize = 400;
    let run = |tr: &mut Tracer,
               name: &'static str,
               engine: &mut QueryEngine<'_>,
               cost: CostModel<'_>,
               n: usize| {
        let pairs = &pairs[..n.min(pairs.len())];
        let (_, secs) = tr.span(parent, "spatial", name, pairs.len() as u64, |_, _| {
            for &(s, t) in pairs {
                std::hint::black_box(engine.shortest_path_cost(s, t, cost));
            }
        });
        secs * 1e6 / pairs.len().max(1) as f64
    };
    let mut ch = QueryEngine::new(g).with_ch(Arc::clone(&idx.ch));
    let ch_us = run(tr, "engine.ch_pass", &mut ch, CostModel::Length, CH_PAIRS);
    let mut cch = QueryEngine::new(g).with_cch(Arc::clone(&idx.cch));
    let cch_us = run(tr, "engine.cch_pass", &mut cch, idx.cch_cost, CH_PAIRS);
    let mut plain = QueryEngine::new(g);
    let plain_us = run(
        tr,
        "engine.plain_pass",
        &mut plain,
        CostModel::Length,
        PLAIN_PAIRS,
    );
    out.set("spatial.engine.ch_query_us", ch_us);
    out.set("spatial.engine.cch_query_us", cch_us);
    out.set("spatial.engine.plain_query_us", plain_us);
}

/// `self.<layer>_s` metrics from a finished trace.
pub fn self_times(out: &mut Outcome, trace: &crate::trace::Trace) {
    for (layer, secs) in trace.self_by_layer() {
        let name = match layer {
            "bench" => "self.bench_s",
            "serve" => "self.serve_s",
            "spatial" => "self.spatial_s",
            "traj" => "self.traj_s",
            "embed" => "self.embed_s",
            "core" => "self.core_s",
            other => panic!("unknown layer {other}"),
        };
        out.set(name, secs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathrank_obs::Registry;

    #[test]
    fn prometheus_round_trip_keeps_windows() {
        let reg = Registry::new();
        let c = reg.counter("x_total", "x", &[("mode", "a")]);
        let h = reg.histogram("lat_ns", "lat", &[]);
        c.add(3);
        for v in [5, 100, 1000, 1000, 70_000] {
            h.record(v);
        }
        let before = reg.snapshot();
        c.add(4);
        h.record(2000);
        let after = reg.snapshot();
        let a = snapshot_from_prometheus(&before.to_prometheus_text()).unwrap();
        let b = snapshot_from_prometheus(&after.to_prometheus_text()).unwrap();
        assert_eq!(b.counter_total("x_total", &[("mode", "a")]), 7);
        let want = after.delta_since(&before);
        let got = b.delta_since(&a);
        assert_eq!(got.counter_total("x_total", &[]), 4);
        let (w, g) = (
            want.histogram("lat_ns", &[]).unwrap(),
            got.histogram("lat_ns", &[]).unwrap(),
        );
        assert_eq!(w.counts, g.counts);
        assert_eq!(w.count, g.count);
        assert_eq!(w.sum, g.sum);
        assert_eq!(
            after.histogram("lat_ns", &[]).unwrap().percentile(50.0),
            b.histogram("lat_ns", &[]).unwrap().percentile(50.0)
        );
    }
}
