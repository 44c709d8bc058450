//! `hub_burst`: an in-process `RouteServer` under hub-skewed length
//! routes, where batching does the work.
//!
//! * Set-up is what the `serve` binary does: the 48×48 integer city, a
//!   Length CH, landmarks, the CCH topology and a first live
//!   customization, on one shard with the default `ServeConfig`.
//! * Open loop: one thread submits bursts of [`BURST`] requests on a
//!   fixed schedule, another collects replies with `wait` in order.
//!   Latency runs from each burst's due time to its reply.
//! * Closed loop: one thread keeps [`OUTSTANDING`] requests in flight;
//!   completed requests per second is the saturation throughput.
//!
//! Every reply is compared bitwise with a reverse plain-Dijkstra sweep
//! from its hub, run sequentially on a `QueryEngine`.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pathrank_obs::MetricsSnapshot;
use pathrank_serve::fixture::{hub_pairs, integer_city, integer_live_weights};
use pathrank_serve::server::PendingRoute;
use pathrank_serve::{Metric, RouteRequest, RouteServer, ServeConfig, ServeError, ServerIndexes};
use pathrank_spatial::algo::cch::{CchConfig, CchTopology};
use pathrank_spatial::algo::ch::{ChConfig, ContractionHierarchy};
use pathrank_spatial::algo::engine::QueryEngine;
use pathrank_spatial::algo::landmarks::{LandmarkConfig, LandmarkMetric, LandmarkTable};
use pathrank_spatial::graph::{CostModel, Graph, VertexId};

use crate::layers::{self, PassIndexes};
use crate::report::{self, Outcome};
use crate::trace::{Trace, Tracer};
use crate::Opts;

/// Side of the fixture city: 2,304 vertices, close to the paper's 2,447.
pub const SIDE: usize = 48;
/// Seed of the live weights `serve` installs as generation 1.
pub const LIVE_SEED: u64 = 0xbeef;
const HUBS: usize = 8;
/// One shard: the in-process generator and collector need the second
/// core. With two shards, four busy threads share two cores and the
/// open-loop tail follows the scheduler more than the server.
const SHARDS: usize = 1;
const POOL: usize = 1 << 14;
/// Requests per open-loop burst, all due at the same instant.
const BURST: usize = 16;
/// Open-loop rate in requests per second.
const OPEN_RATE: f64 = 12_000.0;
const OUTSTANDING: usize = 64;
/// Traced runs record the spans of one request in this many, so a run's
/// trace stays a few MB. In the open loop the sampled slot rotates
/// through the burst: the first submit of a burst also wakes the shard.
const TRACE_EVERY: usize = 16;
/// A median generator lag above this (more than a burst period) means
/// the generator fell behind its schedule and the open-loop phase is
/// invalid. Single stalls of the machine show in the lag's p99 instead.
const LATE_LIMIT_US: f64 = 1_000.0;

/// The live server plus what its set-up cost, stage by stage.
struct Built {
    graph: Arc<Graph>,
    ch: Arc<ContractionHierarchy>,
    topology: Arc<CchTopology>,
    server: RouteServer,
    /// Seconds for graph, CH, landmarks, CCH topology, first customization.
    stages: [f64; 5],
    total: f64,
}

/// The `serve` binary's set-up, in process: graph, Length CH, landmarks,
/// CCH topology, server start and the first live customization.
fn build(tr: &mut Tracer, rep: u64) -> Built {
    let started = Instant::now();
    let ((graph, ch, topology, server, stages), _) = tr.span(0, "bench", "setup", rep, |tr, id| {
        let (graph, g_s) = tr.span(id, "serve", "setup.graph", rep, |_, _| {
            Arc::new(integer_city(SIDE))
        });
        let (ch, ch_s) = tr.span(id, "spatial", "setup.ch", rep, |_, _| {
            Arc::new(ContractionHierarchy::build(
                &graph,
                LandmarkMetric::Length,
                &ChConfig::default(),
            ))
        });
        let (landmarks, lm_s) = tr.span(id, "spatial", "setup.landmarks", rep, |_, _| {
            Arc::new(LandmarkTable::build(
                &graph,
                LandmarkMetric::Length,
                &LandmarkConfig::default(),
            ))
        });
        let (topology, topo_s) = tr.span(id, "spatial", "setup.cch_topology", rep, |_, _| {
            Arc::new(CchTopology::build(&graph, &CchConfig::default()))
        });
        let (server, _) = tr.span(id, "serve", "serve.start", rep, |_, _| {
            RouteServer::start(
                Arc::clone(&graph),
                ServerIndexes {
                    ch: Some(Arc::clone(&ch)),
                    landmarks: Some(landmarks),
                    cch_topology: Some(Arc::clone(&topology)),
                },
                ServeConfig {
                    shards: SHARDS,
                    ..ServeConfig::default()
                },
            )
        });
        let (generation, cust_s) = tr.span(id, "serve", "setup.customize", rep, |_, _| {
            server.update_live_weights(integer_live_weights(&graph, LIVE_SEED))
        });
        assert_eq!(generation, Ok(1), "first live install is generation 1");
        (
            graph,
            ch,
            topology,
            server,
            [g_s, ch_s, lm_s, topo_s, cust_s],
        )
    });
    Built {
        graph,
        ch,
        topology,
        server,
        stages,
        total: started.elapsed().as_secs_f64(),
    }
}

/// Builds the server `reps` times; returns the last build, the median
/// set-up seconds and the per-stage medians.
fn build_repeated(tr: &mut Tracer, reps: usize) -> (Built, f64, [f64; 5]) {
    let mut totals = Vec::with_capacity(reps);
    let mut stages: [Vec<f64>; 5] = Default::default();
    let mut last = None;
    for rep in 0..reps {
        drop(last.take());
        let b = build(tr, rep as u64);
        totals.push(b.total);
        for (acc, s) in stages.iter_mut().zip(b.stages) {
            acc.push(s);
        }
        last = Some(b);
    }
    let stage_medians = stages.map(|s| report::median(&s));
    (
        last.expect("reps >= 1"),
        report::median(&totals),
        stage_medians,
    )
}

fn request(pair: (VertexId, VertexId)) -> RouteRequest {
    RouteRequest {
        source: pair.0,
        target: pair.1,
        metric: Metric::Length,
        deadline: None,
    }
}

/// Counts of one phase. Replies are checked as they arrive, so the
/// phase keeps no per-reply buffers beyond its timings.
#[derive(Default)]
struct Phase {
    sent: u64,
    failed: u64,
    ok: u64,
    /// Replies whose cost differs from the sequential answer, and the
    /// first of them as `(pool index, cost bits)`.
    wrong: u64,
    first_wrong: Option<(usize, Option<u64>)>,
    /// `(seconds into the phase, µs)`: latency from due time to reply.
    latency_us: Vec<(f64, f64)>,
    /// `(seconds into the phase, µs)`: how late each submit left.
    late_us: Vec<(f64, f64)>,
    submit_us: Vec<f64>,
    queue_depth_max: i64,
    /// Completed requests per second, median over windows (closed loop).
    rps: f64,
}

impl Phase {
    fn answered(&mut self, pool: usize, cost: Option<f64>, expected: &[Option<u64>]) {
        self.ok += 1;
        let got = cost.map(f64::to_bits);
        if got != expected[pool] {
            self.wrong += 1;
            self.first_wrong.get_or_insert((pool, got));
        }
    }
}

struct Job {
    pool: usize,
    due: Instant,
    span: u64,
    pending: Result<PendingRoute, ServeError>,
}

/// Open loop: bursts of [`BURST`] submits on a fixed schedule from one
/// thread, in-order `wait`s on another.
fn open_phase(
    server: &RouteServer,
    pairs: &[(VertexId, VertexId)],
    expected: &[Option<u64>],
    secs: f64,
    tracers: (&mut Tracer, &mut Tracer),
) -> Phase {
    let (gen_tr, col_tr) = tracers;
    let bursts = ((secs * OPEN_RATE) as usize / BURST).max(1);
    let period = Duration::from_secs_f64(BURST as f64 / OPEN_RATE);
    let depth: Vec<_> = (0..server.shards())
        .map(|s| {
            server.registry().gauge(
                "pathrank_serve_queue_depth",
                "Jobs admitted to a shard queue and not yet picked up",
                &[("shard", &s.to_string())],
            )
        })
        .collect();
    let (tx, rx) = mpsc::channel::<Job>();
    let start = Instant::now() + Duration::from_millis(2);
    let at = move |t: Instant| (t - start).as_secs_f64();
    std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut ph = Phase::default();
            ph.late_us.reserve(bursts * BURST);
            if gen_tr.on() {
                ph.submit_us.reserve(bursts * BURST);
            }
            for b in 0..bursts {
                let due = start + period * b as u32;
                report::sleep_until(due);
                for k in 0..BURST {
                    let pool = (b * BURST + k) % pairs.len();
                    let sent = Instant::now();
                    ph.late_us.push((at(due), report::us(sent - due)));
                    let sampled = gen_tr.on() && (b + k).is_multiple_of(TRACE_EVERY);
                    let span = if sampled { gen_tr.id() } else { 0 };
                    let pending = server.submit(request(pairs[pool]));
                    if sampled {
                        let end = Instant::now();
                        ph.submit_us.push(report::us(end - sent));
                        let id = gen_tr.id();
                        gen_tr.record(id, span, "serve", "serve.submit", span, sent, end);
                    }
                    ph.sent += 1;
                    tx.send(Job {
                        pool,
                        due,
                        span,
                        pending,
                    })
                    .expect("collector outlives the generator");
                }
                if gen_tr.on() {
                    let depth = depth.iter().map(|g| g.value()).max().unwrap_or(0);
                    ph.queue_depth_max = ph.queue_depth_max.max(depth);
                }
            }
            ph
        });
        let collector = scope.spawn(move || {
            let mut ph = Phase::default();
            ph.latency_us.reserve(bursts * BURST);
            for job in rx {
                let pending = match job.pending {
                    Ok(p) => p,
                    Err(_) => {
                        ph.failed += 1;
                        continue;
                    }
                };
                let waited = Instant::now();
                let reply = pending.wait();
                let done = Instant::now();
                ph.latency_us
                    .push((at(job.due), report::us(done - job.due)));
                match reply {
                    Ok(r) => ph.answered(job.pool, r.cost, expected),
                    Err(_) => ph.failed += 1,
                }
                if job.span != 0 {
                    let id = col_tr.id();
                    col_tr.record(id, job.span, "serve", "serve.wait", job.span, waited, done);
                    col_tr.record(job.span, 0, "serve", "request", job.span, job.due, done);
                }
            }
            ph
        });
        let generated = generator.join().expect("generator thread");
        let mut ph = collector.join().expect("collector thread");
        ph.sent = generated.sent;
        ph.late_us = generated.late_us;
        ph.submit_us = generated.submit_us;
        ph.queue_depth_max = generated.queue_depth_max;
        ph
    })
}

/// Closed loop: one thread keeps [`OUTSTANDING`] requests in flight for
/// `secs`.
fn closed_phase(
    server: &RouteServer,
    pairs: &[(VertexId, VertexId)],
    expected: &[Option<u64>],
    secs: f64,
    tr: &mut Tracer,
) -> Phase {
    let mut ph = Phase::default();
    let mut inflight: VecDeque<(usize, Instant, u64, PendingRoute)> =
        VecDeque::with_capacity(OUTSTANDING);
    let started = Instant::now();
    let end = started + Duration::from_secs_f64(secs);
    let mut next = 0;
    let mut throughput = report::Throughput::new(secs);
    let mut submit =
        |ph: &mut Phase,
         tr: &mut Tracer,
         inflight: &mut VecDeque<(usize, Instant, u64, PendingRoute)>| {
            let pool = next % pairs.len();
            let sampled = tr.on() && next.is_multiple_of(TRACE_EVERY);
            next += 1;
            let sent = Instant::now();
            let span = if sampled { tr.id() } else { 0 };
            let pending = server.submit(request(pairs[pool]));
            if sampled {
                let id = tr.id();
                tr.record(
                    id,
                    span,
                    "serve",
                    "serve.submit",
                    span,
                    sent,
                    Instant::now(),
                );
            }
            ph.sent += 1;
            match pending {
                Ok(p) => inflight.push_back((pool, sent, span, p)),
                Err(_) => ph.failed += 1,
            }
        };
    for _ in 0..OUTSTANDING {
        submit(&mut ph, tr, &mut inflight);
    }
    while let Some((pool, sent, span, pending)) = inflight.pop_front() {
        let waited = Instant::now();
        let reply = pending.wait();
        let last_done = Instant::now();
        throughput.done((last_done - started).as_secs_f64());
        match reply {
            Ok(r) => ph.answered(pool, r.cost, expected),
            Err(_) => ph.failed += 1,
        }
        if span != 0 {
            let id = tr.id();
            tr.record(id, span, "serve", "serve.wait", span, waited, last_done);
            tr.record(span, 0, "serve", "request", span, sent, last_done);
        }
        if last_done < end {
            submit(&mut ph, tr, &mut inflight);
        }
    }
    ph.rps = throughput.rate();
    ph
}

/// Sequential answers: one reverse plain-Dijkstra sweep per hub.
fn expected_costs(g: &Graph, pairs: &[(VertexId, VertexId)]) -> Vec<Option<u64>> {
    let mut engine = QueryEngine::new(g);
    let mut by_hub: std::collections::HashMap<u32, Vec<f64>> = Default::default();
    pairs
        .iter()
        .map(|&(s, t)| {
            let dist = by_hub.entry(t.0).or_insert_with(|| {
                let tree = engine.one_to_all_rev(t, CostModel::Length);
                (0..g.vertex_count() as u32)
                    .map(|v| tree.dist(VertexId(v)))
                    .collect()
            });
            let d = dist[s.index()];
            d.is_finite().then_some(d.to_bits())
        })
        .collect()
}

fn verify(out: &mut Outcome, phase: &str, ph: &Phase, expected: &[Option<u64>]) {
    if let Some((pool, got)) = ph.first_wrong {
        out.error(format!(
            "hub_burst {phase}: {} of {} replies differ from the sequential engine; first: pool {pool} got {:?} want {:?}",
            ph.wrong,
            ph.ok,
            got.map(f64::from_bits),
            expected[pool].map(f64::from_bits)
        ));
    }
}

pub fn run(opts: &Opts) -> (Outcome, Option<Trace>) {
    let mut out = Outcome::default();
    let mut main_tr = Tracer::new(opts.trace, 1);
    let mut gen_tr = Tracer::new(opts.trace, 2);
    let mut col_tr = Tracer::new(opts.trace, 3);
    let reps = if opts.quick { 2 } else { 5 };
    let (built, setup_s, stages) = build_repeated(&mut main_tr, reps);
    let server = &built.server;
    let pairs = hub_pairs(&built.graph, POOL, HUBS, opts.seed);
    let mut expected = expected_costs(&built.graph, &pairs);
    if opts.inject_mismatch {
        expected[0] = expected[0].map(|bits| (f64::from_bits(bits) + 1.0).to_bits());
    }

    // Warm the shard and its engine before anything is timed.
    let mut off = Tracer::new(false, 0);
    let warm_s = 0.3_f64.min(opts.seconds / 4.0);
    let warm = closed_phase(server, &pairs, &expected, warm_s, &mut off);
    verify(&mut out, "warm-up", &warm, &expected);

    let open_s = opts.seconds * 0.6;
    let closed_s = opts.seconds - open_s;
    let mut untraced_closed = None;
    if opts.trace {
        // The tracing overhead: the same closed loop untraced, then traced.
        untraced_closed = Some(closed_phase(
            server,
            &pairs,
            &expected,
            closed_s / 2.0,
            &mut off,
        ));
    }
    let snap_a = server.metrics_snapshot();
    let open = open_phase(
        server,
        &pairs,
        &expected,
        open_s,
        (&mut gen_tr, &mut col_tr),
    );
    let snap_b = server.metrics_snapshot();
    let closed_secs = if opts.trace { closed_s / 2.0 } else { closed_s };
    let closed = closed_phase(server, &pairs, &expected, closed_secs, &mut main_tr);
    let snap_c = server.metrics_snapshot();

    verify(&mut out, "open loop", &open, &expected);
    verify(&mut out, "closed loop", &closed, &expected);
    if let Some(ph) = &untraced_closed {
        verify(&mut out, "untraced closed loop", ph, &expected);
    }
    let late_p50 = report::windowed_percentile(&open.late_us, 50.0);
    let late_p99 = report::windowed_percentile(&open.late_us, 99.0);
    if late_p50 > LATE_LIMIT_US {
        out.error(format!(
            "hub_burst open loop invalid: generator median lag {late_p50:.0} us exceeds {LATE_LIMIT_US} us"
        ));
    }
    out.attempted = open.sent + closed.sent;
    out.failed = open.failed + closed.failed;
    eprintln!(
        "hub_burst: open {} sent, {} ok, {} failed, p50 {:.1} us, p90 {:.1} us, lag p99 {:.1} us; closed {} sent, {:.0}/s",
        open.sent,
        open.ok,
        open.failed,
        report::windowed_percentile(&open.latency_us, 50.0),
        report::windowed_percentile(&open.latency_us, 90.0),
        late_p99,
        closed.sent,
        closed.rps
    );

    out.set("setup_s", setup_s);
    out.set(
        "peak_rss_mb",
        report::peak_rss_mb("self").expect("/proc/self/status has VmHWM"),
    );
    out.set(
        "latency_p50_us",
        report::windowed_percentile(&open.latency_us, 50.0),
    );
    out.set(
        "e2e.latency_p90_us",
        report::windowed_percentile(&open.latency_us, 90.0),
    );
    out.set("throughput_per_s", closed.rps);

    let trace = if opts.trace {
        per_layer(
            &mut out,
            &open,
            &closed,
            untraced_closed.as_ref(),
            [&snap_a, &snap_b, &snap_c],
            stages,
        );
        let live = integer_live_weights(&built.graph, LIVE_SEED);
        let idx = PassIndexes {
            ch: Arc::clone(&built.ch),
            cch: Arc::new(built.topology.customize_weights(&built.graph, &live)),
            cch_cost: CostModel::Custom(&live),
        };
        main_tr.span(0, "bench", "engine_pass", 0, |tr, id| {
            layers::engine_pass(&mut out, tr, id, &built.graph, &idx, &pairs)
        });
        let trace = Trace::merge([main_tr, gen_tr, col_tr]);
        layers::self_times(&mut out, &trace);
        Some(trace)
    } else {
        None
    };
    (out, trace)
}

fn per_layer(
    out: &mut Outcome,
    open: &Phase,
    closed: &Phase,
    untraced_closed: Option<&Phase>,
    snaps: [&MetricsSnapshot; 3],
    stages: [f64; 5],
) {
    let [a, b, c] = snaps;
    let open_window = b.delta_since(a);
    let timed_window = c.delta_since(a);
    layers::serve_latency(out, &open_window);
    layers::serve_counters(out, &timed_window, open.sent + closed.sent);
    layers::engine_counters(out, &timed_window);
    out.set(
        "serve.server.submit_p50_us",
        report::percentile(&open.submit_us, 50.0),
    );
    let latency: Vec<f64> = open.latency_us.iter().map(|l| l.1).collect();
    out.set("e2e.latency_p99_us", report::percentile(&latency, 99.0));
    out.set("serve.server.queue_depth_max", open.queue_depth_max as f64);
    let [_, ch, landmarks, topology, customize] = stages;
    out.set("setup.ch_s", ch);
    out.set("setup.landmarks_s", landmarks);
    out.set("setup.cch_topology_s", topology);
    out.set("setup.customize_s", customize);
    out.set("bench.open.sent", open.sent as f64);
    out.set("bench.open.ok", open.ok as f64);
    out.set("bench.open.failed", open.failed as f64);
    out.set("bench.closed.sent", closed.sent as f64);
    out.set("bench.closed.ok", closed.ok as f64);
    out.set("bench.closed.failed", closed.failed as f64);
    out.set(
        "bench.gen_late_p99_us",
        report::windowed_percentile(&open.late_us, 99.0),
    );
    if let Some(untraced) = untraced_closed {
        out.set("bench.trace_overhead", untraced.rps / closed.rps);
    }
}
