//! `tcp_live`: the real `serve` binary over loopback, with live-weight
//! updates beside reads.
//!
//! * Set-up: spawn `serve --side 48 --shards 2` and time it from spawn
//!   to its `serving on` line.
//! * The *caller* connection is a closed loop, one line at a time:
//!   mostly `live` ROUTEs (CCH rung), some `length` (CH) and `time`
//!   (plain rung) ROUTEs, and every [`UPDATE_EVERY`]th line an `UPDATE`
//!   with a sparse integer delta.
//! * The *fleet* connection is an open loop: every [`FLEET_PERIOD`] it
//!   writes [`FLEET_BURST`] `live` ROUTE lines at once, then reads the
//!   replies.
//!
//! Every reply is checked bitwise against a sequential plain-Dijkstra
//! `QueryEngine` answer; `live` replies against the weights of the
//! generation the reply names, which the benchmark rebuilds from the
//! updates it issued itself (generation 1 is the vector `serve`
//! installs at start-up).

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pathrank_obs::MetricsSnapshot;
use pathrank_serve::fixture::{integer_city, integer_live_weights};
use pathrank_spatial::algo::cch::{CchConfig, CchTopology};
use pathrank_spatial::algo::ch::{ChConfig, ContractionHierarchy};
use pathrank_spatial::algo::engine::QueryEngine;
use pathrank_spatial::algo::landmarks::{LandmarkConfig, LandmarkMetric, LandmarkTable};
use pathrank_spatial::graph::{CostModel, Graph, VertexId};

use crate::hub_burst::{LIVE_SEED, SIDE};
use crate::layers::{self, PassIndexes};
use crate::report::{self, Outcome, Rng};
use crate::trace::{Trace, Tracer};
use crate::Opts;

const UPDATE_EVERY: u64 = 32;
const DELTA_EDGES: u64 = 32;
const FLEET_PERIOD: Duration = Duration::from_millis(100);
const FLEET_BURST: usize = 4;
/// A median fleet lag above half a period means bursts queue behind each
/// other: the generator fell behind and the open-loop phase is invalid.
const LATE_LIMIT_US: f64 = 50_000.0;

/// The spawned `serve` process; killed and reaped on drop.
struct ServerProcess {
    child: Child,
    port: u16,
    _stderr: BufReader<ChildStderr>,
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn free_port() -> std::io::Result<u16> {
    Ok(TcpListener::bind(("127.0.0.1", 0))?.local_addr()?.port())
}

/// Spawns `serve` and waits for its `serving on` line; returns the
/// process and the seconds from spawn to ready.
fn spawn_server(bin: &Path) -> Result<(ServerProcess, f64), String> {
    let mut last_err = String::new();
    for _ in 0..5 {
        let port = free_port().map_err(|e| format!("no free port: {e}"))?;
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(["--side", &SIDE.to_string(), "--shards", "2"])
            .args(["--port", &port.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) if line.contains("serving on") => {
                    let secs = started.elapsed().as_secs_f64();
                    let process = ServerProcess {
                        child,
                        port,
                        _stderr: stderr,
                    };
                    return Ok((process, secs));
                }
                Ok(_) => last_err = line.trim().to_string(),
            }
        }
        let _ = child.kill();
        let _ = child.wait();
    }
    Err(format!("serve never came up: {last_err}"))
}

/// One client connection speaking the line protocol.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    fn open(port: u16) -> std::io::Result<Conn> {
        // A plain client: default socket options, one write per line.
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            line: String::new(),
        })
    }

    fn send(&mut self, text: &str) -> std::io::Result<()> {
        self.writer.write_all(text.as_bytes())
    }

    fn recv(&mut self) -> std::io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim_end())
    }

    /// A `STATS` scrape, rebuilt as a registry snapshot.
    fn stats(&mut self) -> Result<MetricsSnapshot, String> {
        self.send("STATS\n").map_err(|e| e.to_string())?;
        let mut text = String::new();
        loop {
            let line = self.recv().map_err(|e| e.to_string())?;
            if line == "." {
                break;
            }
            text.push_str(line);
            text.push('\n');
        }
        layers::snapshot_from_prometheus(&text)
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Length,
    Time,
    Live,
}

impl Kind {
    fn word(self) -> &'static str {
        match self {
            Kind::Length => "length",
            Kind::Time => "time",
            Kind::Live => "live",
        }
    }
}

/// One answered ROUTE.
struct Routed {
    kind: Kind,
    s: u32,
    t: u32,
    cost: Option<u64>,
    generation: u64,
}

/// `OK <cost|inf> <backend> <batched> <generation>` → cost bits and
/// generation; `None` for an error line.
fn parse_route_reply(line: &str) -> Result<Option<(Option<u64>, u64)>, String> {
    if line.starts_with("ERR") {
        return Ok(None);
    }
    let parts: Vec<&str> = line.split_ascii_whitespace().collect();
    let [ok, cost, _backend, _batched, generation] = parts[..] else {
        return Err(format!("malformed ROUTE reply {line:?}"));
    };
    if ok != "OK" {
        return Err(format!("malformed ROUTE reply {line:?}"));
    }
    let cost = match cost {
        "inf" => None,
        c => Some(
            c.parse::<f64>()
                .map_err(|_| format!("bad cost in {line:?}"))?
                .to_bits(),
        ),
    };
    let generation = generation
        .parse()
        .map_err(|_| format!("bad generation in {line:?}"))?;
    Ok(Some((cost, generation)))
}

/// What the caller connection saw.
#[derive(Default)]
struct Caller {
    routes: Vec<Routed>,
    /// `(generation, delta)` of every UPDATE, in order.
    updates: Vec<(u64, Vec<(u32, f64)>)>,
    /// Round trips in µs, split at the traced midpoint: `[untraced, traced]`.
    route_us: [Vec<f64>; 2],
    /// `(seconds into the phase, µs)` of every ROUTE round trip.
    route_at: Vec<(f64, f64)>,
    update_us: [Vec<f64>; 2],
    sent: u64,
    failed: u64,
    /// Completed lines per second, median over windows.
    lines_per_s: f64,
    errors: Vec<String>,
    /// `STATS` windows at the traced midpoint and the end.
    stats: Vec<MetricsSnapshot>,
}

fn pick_route(rng: &mut Rng, n: u64) -> (Kind, u32, u32) {
    let kind = match rng.below(20) {
        0..=15 => Kind::Live,
        16..=18 => Kind::Length,
        _ => Kind::Time,
    };
    let s = rng.below(n);
    let mut t = rng.below(n);
    if t == s {
        t = (s + 1) % n;
    }
    (kind, s as u32, t as u32)
}

/// Warms the server's engines with every ROUTE kind; nothing is timed.
fn warm_up(conn: &mut Conn, n: u64, rng: &mut Rng, secs: f64) -> std::io::Result<()> {
    let end = Instant::now() + Duration::from_secs_f64(secs);
    while Instant::now() < end {
        let (kind, s, t) = pick_route(rng, n);
        conn.send(&format!("ROUTE {s} {t} {}\n", kind.word()))?;
        conn.recv()?;
    }
    Ok(())
}

/// The caller's closed loop for `secs`; with `traced`, the second half
/// records spans and is bracketed by `STATS` scrapes.
fn caller_loop(
    conn: &mut Conn,
    g: &Graph,
    rng: &mut Rng,
    secs: f64,
    traced: bool,
    tr: &mut Tracer,
) -> Caller {
    let mut c = Caller::default();
    let n = g.vertex_count() as u64;
    let m = g.edge_count() as u64;
    let started = Instant::now();
    let mid = started + Duration::from_secs_f64(if traced { secs / 2.0 } else { secs });
    let end = started + Duration::from_secs_f64(secs);
    let mut generation = 1u64;
    let mut half = 0;
    let mut line_no = 0u64;
    let mut text = String::new();
    let mut throughput = report::Throughput::new(secs);
    let fail = |c: &mut Caller, e: String| {
        c.errors.push(e);
    };
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        if traced && half == 0 && now >= mid {
            half = 1;
            match conn.stats() {
                Ok(s) => c.stats.push(s),
                Err(e) => fail(&mut c, format!("STATS scrape failed: {e}")),
            }
        }
        line_no += 1;
        text.clear();
        let sent = Instant::now();
        if line_no.is_multiple_of(UPDATE_EVERY) {
            let delta: Vec<(u32, f64)> = (0..DELTA_EDGES)
                .map(|_| (rng.below(m) as u32, (60 + rng.below(940)) as f64))
                .collect();
            text.push_str("UPDATE ");
            let pairs: Vec<String> = delta.iter().map(|(e, w)| format!("{e}:{w}")).collect();
            text.push_str(&pairs.join(","));
            text.push('\n');
            let reply = conn
                .send(&text)
                .and_then(|()| conn.recv().map(str::to_string));
            let done = Instant::now();
            c.sent += 1;
            let reply = match reply {
                Ok(r) => r,
                Err(e) => {
                    fail(&mut c, format!("caller connection lost: {e}"));
                    break;
                }
            };
            match reply.strip_prefix("OK ").map(str::parse::<u64>) {
                Some(Ok(g)) if g == generation + 1 => {
                    generation = g;
                    c.updates.push((g, delta));
                    c.update_us[half].push(report::us(done - sent));
                }
                Some(_) => {
                    fail(
                        &mut c,
                        format!(
                            "UPDATE answered {reply:?}, want generation {}",
                            generation + 1
                        ),
                    );
                    break;
                }
                None => c.failed += 1,
            }
            if half == 1 {
                let id = tr.id();
                tr.record(id, 0, "serve", "tcp.update", line_no, sent, done);
            }
            throughput.done((done - started).as_secs_f64());
            continue;
        }
        let (kind, s, t) = pick_route(rng, n);
        text.push_str(&format!("ROUTE {s} {t} {}\n", kind.word()));
        let reply = conn
            .send(&text)
            .and_then(|()| conn.recv().map(str::to_string));
        let done = Instant::now();
        c.sent += 1;
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                fail(&mut c, format!("caller connection lost: {e}"));
                break;
            }
        };
        match parse_route_reply(&reply) {
            Ok(Some((cost, gen))) => {
                if kind == Kind::Live && gen != generation {
                    fail(
                        &mut c,
                        format!(
                            "live ROUTE answered at generation {gen}, caller is at {generation}"
                        ),
                    );
                }
                c.routes.push(Routed {
                    kind,
                    s,
                    t,
                    cost,
                    generation: gen,
                });
                c.route_us[half].push(report::us(done - sent));
                c.route_at
                    .push(((sent - started).as_secs_f64(), report::us(done - sent)));
            }
            Ok(None) => c.failed += 1,
            Err(e) => fail(&mut c, e),
        }
        if half == 1 {
            let id = tr.id();
            tr.record(id, 0, "serve", "tcp.route", line_no, sent, done);
        }
        throughput.done((done - started).as_secs_f64());
    }
    if traced {
        match conn.stats() {
            Ok(s) => c.stats.push(s),
            Err(e) => fail(&mut c, format!("STATS scrape failed: {e}")),
        }
    }
    c.lines_per_s = throughput.rate();
    c
}

/// What the fleet connection saw.
#[derive(Default)]
struct Fleet {
    routes: Vec<Routed>,
    burst_us: Vec<f64>,
    spread_us: Vec<f64>,
    late_us: Vec<f64>,
    sent: u64,
    failed: u64,
    errors: Vec<String>,
}

/// The fleet's open loop: a burst of live ROUTEs every [`FLEET_PERIOD`].
/// Bursts due after the traced midpoint record spans.
fn fleet_loop(
    conn: &mut Conn,
    n: u64,
    rng: &mut Rng,
    secs: f64,
    traced: bool,
    tr: &mut Tracer,
) -> Fleet {
    let mut f = Fleet::default();
    let start = Instant::now() + Duration::from_millis(5);
    let mid = start + Duration::from_secs_f64(if traced { secs / 2.0 } else { secs });
    let end = start + Duration::from_secs_f64(secs);
    for b in 0u32.. {
        let due = start + FLEET_PERIOD * b;
        if due >= end {
            break;
        }
        report::sleep_until(due);
        let asked: Vec<(u32, u32)> = (0..FLEET_BURST)
            .map(|_| {
                let (_, s, t) = pick_route(rng, n);
                (s, t)
            })
            .collect();
        let written = Instant::now();
        f.late_us.push(report::us(written - due));
        for &(s, t) in &asked {
            if let Err(e) = conn.send(&format!("ROUTE {s} {t} live\n")) {
                f.errors.push(format!("fleet connection lost: {e}"));
                return f;
            }
        }
        f.sent += FLEET_BURST as u64;
        let burst = tr.id();
        let mut first = None;
        for (k, &(s, t)) in asked.iter().enumerate() {
            let reply = match conn.recv() {
                Ok(r) => r.to_string(),
                Err(e) => {
                    f.errors.push(format!("fleet connection lost: {e}"));
                    return f;
                }
            };
            let at = Instant::now();
            first.get_or_insert(at);
            if due >= mid {
                let id = tr.id();
                tr.record(id, burst, "serve", "tcp.fleet_reply", k as u64, written, at);
            }
            match parse_route_reply(&reply) {
                Ok(Some((cost, generation))) => f.routes.push(Routed {
                    kind: Kind::Live,
                    s,
                    t,
                    cost,
                    generation,
                }),
                Ok(None) => f.failed += 1,
                Err(e) => f.errors.push(e),
            }
        }
        let last = Instant::now();
        f.burst_us.push(report::us(last - due));
        f.spread_us
            .push(report::us(last - first.expect("a burst has replies")));
        if due >= mid {
            tr.record(burst, 0, "bench", "fleet_burst", b as u64, due, last);
        }
    }
    f
}

/// Checks every reply against a sequential plain-Dijkstra answer; live
/// replies under the weights of the generation they name.
fn verify(
    g: &Graph,
    routes: &[&Routed],
    updates: &[(u64, Vec<(u32, f64)>)],
    inject_mismatch: bool,
) -> Vec<String> {
    let last_gen = updates.last().map_or(1, |u| u.0);
    let mut by_gen: Vec<Vec<usize>> = vec![Vec::new(); last_gen as usize + 1];
    let mut errors = Vec::new();
    let mut static_ids = Vec::new();
    for (i, r) in routes.iter().enumerate() {
        match r.kind {
            Kind::Live if (1..=last_gen).contains(&r.generation) => {
                by_gen[r.generation as usize].push(i)
            }
            Kind::Live => errors.push(format!(
                "live ROUTE {}->{} named generation {}, only 1..={last_gen} exist",
                r.s, r.t, r.generation
            )),
            _ => static_ids.push(i),
        }
    }
    let want_of = |engine: &mut QueryEngine<'_>, r: &Routed, cost: CostModel<'_>| {
        engine
            .shortest_path_cost(VertexId(r.s), VertexId(r.t), cost)
            .map(f64::to_bits)
    };
    let check = |errors: &mut Vec<String>, i: usize, want: Option<u64>| {
        let r = routes[i];
        let want = match (inject_mismatch && i == 0, want) {
            (true, Some(w)) => Some((f64::from_bits(w) + 1.0).to_bits()),
            (true, None) => Some(0),
            (false, w) => w,
        };
        if r.cost != want {
            errors.push(format!(
                "{} ROUTE {}->{} at generation {}: got {:?}, sequential engine says {:?}",
                r.kind.word(),
                r.s,
                r.t,
                r.generation,
                r.cost.map(f64::from_bits),
                want.map(f64::from_bits)
            ));
        }
    };
    let (static_errors, live_errors) = std::thread::scope(|scope| {
        let statics = scope.spawn(|| {
            let mut errors = Vec::new();
            let mut engine = QueryEngine::new(g);
            for &i in &static_ids {
                let cost = match routes[i].kind {
                    Kind::Length => CostModel::Length,
                    _ => CostModel::TravelTime,
                };
                let want = want_of(&mut engine, routes[i], cost);
                check(&mut errors, i, want);
            }
            errors
        });
        let mut errors = Vec::new();
        let mut engine = QueryEngine::new(g);
        let mut weights = integer_live_weights(g, LIVE_SEED);
        let mut pending = updates.iter();
        for (generation, ids) in by_gen.iter().enumerate().skip(1) {
            if generation > 1 {
                let (gen, delta) = pending.next().expect("one update per generation");
                assert_eq!(*gen as usize, generation, "updates are consecutive");
                for &(e, w) in delta {
                    weights[e as usize] = w;
                }
            }
            for &i in ids {
                let want = want_of(&mut engine, routes[i], CostModel::Custom(&weights));
                check(&mut errors, i, want);
            }
        }
        (statics.join().expect("verifier thread"), errors)
    });
    errors.extend(static_errors);
    errors.extend(live_errors);
    errors
}

pub fn run(opts: &Opts) -> (Outcome, Option<Trace>) {
    let mut out = Outcome::default();
    let reps = if opts.quick { 1 } else { 5 };
    let mut setups = Vec::with_capacity(reps);
    let mut server = None;
    for _ in 0..reps {
        drop(server.take());
        match spawn_server(&opts.serve_bin) {
            Ok((p, secs)) => {
                setups.push(secs);
                server = Some(p);
            }
            Err(e) => {
                out.error(e);
                return (out, None);
            }
        }
    }
    let server = server.expect("reps >= 1");
    let graph = integer_city(SIDE);
    let n = graph.vertex_count() as u64;
    let (mut caller_conn, mut fleet_conn) = match (Conn::open(server.port), Conn::open(server.port))
    {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            out.error(format!("cannot connect to serve: {e}"));
            return (out, None);
        }
    };
    let mut rng = Rng::new(opts.seed);
    if let Err(e) = warm_up(
        &mut caller_conn,
        n,
        &mut rng,
        0.3_f64.min(opts.seconds / 4.0),
    ) {
        out.error(format!("warm-up failed: {e}"));
        return (out, None);
    }
    let mut caller_rng = Rng::new(opts.seed.wrapping_add(1));
    let mut fleet_rng = Rng::new(opts.seed.wrapping_add(2));
    let mut caller_tr = Tracer::new(opts.trace, 1);
    let mut fleet_tr = Tracer::new(opts.trace, 2);
    let (caller, fleet) = std::thread::scope(|scope| {
        let graph = &graph;
        let fleet = scope.spawn(|| {
            fleet_loop(
                &mut fleet_conn,
                n,
                &mut fleet_rng,
                opts.seconds,
                opts.trace,
                &mut fleet_tr,
            )
        });
        let caller = caller_loop(
            &mut caller_conn,
            graph,
            &mut caller_rng,
            opts.seconds,
            opts.trace,
            &mut caller_tr,
        );
        (caller, fleet.join().expect("fleet thread"))
    });
    let rss = report::peak_rss_mb(&server.child.id().to_string());
    drop((caller_conn, fleet_conn, server));

    out.errors.extend(caller.errors.iter().cloned());
    out.errors.extend(fleet.errors.iter().cloned());
    let mut routes: Vec<&Routed> = caller.routes.iter().chain(&fleet.routes).collect();
    if let Some(first_live) = routes.iter().position(|r| r.kind == Kind::Live) {
        // Keep a live reply first so an injected mismatch hits that path.
        routes.swap(0, first_live);
    }
    out.errors.extend(verify(
        &graph,
        &routes,
        &caller.updates,
        opts.inject_mismatch,
    ));
    let late_p50 = report::percentile(&fleet.late_us, 50.0);
    let late_p99 = report::percentile(&fleet.late_us, 99.0);
    if late_p50 > LATE_LIMIT_US {
        out.error(format!(
            "tcp_live fleet loop invalid: generator median lag {late_p50:.0} us exceeds {LATE_LIMIT_US} us"
        ));
    }
    out.attempted = caller.sent + fleet.sent;
    out.failed = caller.failed + fleet.failed;
    let route_us: Vec<f64> = caller.route_us.concat();
    for kind in [Kind::Live, Kind::Length, Kind::Time] {
        let us: Vec<f64> = caller
            .routes
            .iter()
            .zip(&route_us)
            .filter(|(r, _)| r.kind == kind)
            .map(|(_, us)| *us)
            .collect();
        eprintln!(
            "  {}: {} routes, p50 {:.1} us",
            kind.word(),
            us.len(),
            report::percentile(&us, 50.0)
        );
    }
    eprintln!(
        "  update: p50 {:.1} us",
        report::percentile(&caller.update_us.concat(), 50.0)
    );
    eprintln!(
        "tcp_live: caller {} lines ({:.0}/s), {} updates, route p50 {:.1} us p90 {:.1} us; fleet {} bursts, burst p50 {:.0} us, lag p99 {:.0} us; {} failed",
        caller.sent,
        caller.lines_per_s,
        caller.updates.len(),
        report::windowed_percentile(&caller.route_at, 50.0),
        report::windowed_percentile(&caller.route_at, 90.0),
        fleet.burst_us.len(),
        report::percentile(&fleet.burst_us, 50.0),
        late_p99,
        out.failed
    );

    out.set("setup_s", report::median(&setups));
    match rss {
        Some(mb) => out.set("peak_rss_mb", mb),
        None => out.error("cannot read the server's VmHWM".to_string()),
    }
    out.set(
        "latency_p50_us",
        report::windowed_percentile(&caller.route_at, 50.0),
    );
    out.set(
        "e2e.latency_p90_us",
        report::windowed_percentile(&caller.route_at, 90.0),
    );
    out.set("throughput_per_s", caller.lines_per_s);
    if !opts.trace {
        return (out, None);
    }

    // Per-layer numbers come from the traced second half.
    let [untraced, traced] = &caller.route_us;
    let route_p50 = report::percentile(traced, 50.0);
    let update_p50 = report::percentile(&caller.update_us[1], 50.0);
    out.set("e2e.update_p50_us", update_p50);
    out.set("e2e.latency_p99_us", report::percentile(&route_us, 99.0));
    out.set(
        "e2e.burst_p50_us",
        report::percentile(&fleet.burst_us, 50.0),
    );
    out.set(
        "serve.tcp.burst_spread_p50_us",
        report::percentile(&fleet.spread_us, 50.0),
    );
    out.set(
        "bench.trace_overhead",
        report::median(traced) / report::median(untraced),
    );
    if let [before, after] = &caller.stats[..] {
        let window = after.delta_since(before);
        let server_p50 = layers::serve_latency(&mut out, &window);
        let traced_sent = (traced.len() + caller.update_us[1].len()) as u64;
        layers::serve_counters(&mut out, &window, traced_sent);
        layers::engine_counters(&mut out, &window);
        let customize_p50 = layers::cch_counters(&mut out, &window);
        let depth = [before, after]
            .iter()
            .flat_map(|s| s.gauges.iter())
            .filter(|g| g.name == "pathrank_serve_queue_depth")
            .map(|g| g.value)
            .max()
            .unwrap_or(0);
        out.set("serve.server.queue_depth_max", depth as f64);
        let tcp_overhead = route_p50 - server_p50;
        out.set("serve.tcp.overhead_p50_us", tcp_overhead);
        out.set(
            "serve.server.update_overhead_p50_us",
            update_p50 - customize_p50 - tcp_overhead,
        );
    }
    out.set("bench.open.sent", fleet.sent as f64);
    out.set("bench.open.ok", fleet.routes.len() as f64);
    out.set("bench.open.failed", fleet.failed as f64);
    out.set("bench.closed.sent", caller.sent as f64);
    out.set(
        "bench.closed.ok",
        (caller.routes.len() + caller.updates.len()) as f64,
    );
    out.set("bench.closed.failed", caller.failed as f64);
    out.set("bench.gen_late_p99_us", late_p99);

    // The same indexes the server builds, in process, for the set-up
    // split and the sequential engine pass over the caller's pairs.
    let mut main_tr = Tracer::new(true, 3);
    let g = &graph;
    let (ch, ch_s) = main_tr.span(0, "spatial", "setup.ch", 0, |_, _| {
        Arc::new(ContractionHierarchy::build(
            g,
            LandmarkMetric::Length,
            &ChConfig::default(),
        ))
    });
    let (_, lm_s) = main_tr.span(0, "spatial", "setup.landmarks", 0, |_, _| {
        LandmarkTable::build(g, LandmarkMetric::Length, &LandmarkConfig::default())
    });
    let (topology, topo_s) = main_tr.span(0, "spatial", "setup.cch_topology", 0, |_, _| {
        Arc::new(CchTopology::build(g, &CchConfig::default()))
    });
    let live = integer_live_weights(g, LIVE_SEED);
    let (cch, cust_s) = main_tr.span(0, "spatial", "setup.customize", 0, |_, _| {
        Arc::new(topology.customize_weights(g, &live))
    });
    out.set("setup.ch_s", ch_s);
    out.set("setup.landmarks_s", lm_s);
    out.set("setup.cch_topology_s", topo_s);
    out.set("setup.customize_s", cust_s);
    let pairs: Vec<(VertexId, VertexId)> = caller
        .routes
        .iter()
        .map(|r| (VertexId(r.s), VertexId(r.t)))
        .collect();
    let idx = PassIndexes {
        ch,
        cch,
        cch_cost: CostModel::Custom(&live),
    };
    main_tr.span(0, "bench", "engine_pass", 0, |tr, id| {
        layers::engine_pass(&mut out, tr, id, g, &idx, &pairs)
    });
    let trace = Trace::merge([caller_tr, fleet_tr, main_tr]);
    layers::self_times(&mut out, &trace);
    (out, Some(trace))
}
