//! A minimal TCP line protocol over [`RouteServer`].
//!
//! One line per request, one line per reply:
//!
//! ```text
//! -> ROUTE <source> <target> <metric> [deadline_ms]
//! <- OK <cost|inf> <backend> <batched:0|1> <generation>
//! -> UPDATE <edge>:<weight>[,<edge>:<weight>...]
//! <- OK <generation>
//! -> STATS [json]
//! <- (multi-line metrics dump, see below)
//! <- ERR <QueueFull|DeadlineExpired|NoBackend|InvalidWeights|Shutdown> n=<count>
//! <- ERR BadRequest
//! ```
//!
//! `<metric>` is `length`, `time` or `live`; `deadline_ms` is a relative
//! budget from the moment the server parses the line.
//!
//! Every `ERR` carrying a [`ServeError`] variant appends `n=<count>` —
//! the server's cumulative error count for that variant, so a client
//! seeing its first `QueueFull` can tell an isolated blip (`n=1`) from
//! systemic overload (`n=40000`) without a second round trip.
//! `BadRequest` is a parse failure on this connection, not a server
//! error: its reply carries no `n=`, but every one is counted under
//! `pathrank_serve_errors_total{variant="BadRequest"}`.
//!
//! A line may hold at most `4096 + 64 · E` bytes for a graph of `E`
//! edges — room for an `UPDATE` naming every edge once. A longer line
//! answers `ERR BadRequest` and the server closes the connection, so a
//! client that never sends `\n` cannot grow the server's buffer.
//!
//! `STATS` scrapes the server's metrics registry
//! ([`RouteServer::metrics_snapshot`]) and answers with a framed dump:
//! Prometheus text exposition by default (`# EOF` terminated, so a
//! scraper can splice it straight through), or a single JSON line after
//! `STATS json`. Both forms end with a `.` line as the protocol frame
//! terminator.
//!
//! `UPDATE` feeds a sparse live-weight delta
//! ([`RouteServer::update_live_weights_sparse`]): each `edge:weight`
//! pair sets one edge's live weight (duplicates last-wins), the rest of
//! the installed vector carries over, and only the shortcut arcs the
//! named edges support are re-relaxed before the new generation swaps
//! in — the reply carries that generation so a client can fence
//! subsequent `live` routes on it. A full vector must have been
//! installed first (the `serve` binary does this at startup); before
//! that, `UPDATE` answers `ERR NoBackend`. Malformed pairs answer `ERR
//! BadRequest`; unknown edges and non-finite / negative weights answer
//! `ERR InvalidWeights`.
//!
//! Lines may be pipelined: a client can send several before reading,
//! and the replies come back in order. Each accepted socket sets
//! `TCP_NODELAY`, so no reply waits on the client's delayed ACK of the
//! one before it.
//!
//! The protocol is a demo transport for the `serve` binary — the
//! benchmarks drive the server in-process so transport noise never
//! pollutes the latency numbers.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pathrank_spatial::graph::{EdgeId, VertexId};

use crate::server::{Metric, RouteRequest, RouteServer, ServeError};

/// Line budget independent of the graph: any `ROUTE` or `STATS` line.
const LINE_BASE_BYTES: usize = 4096;

/// Line budget per graph edge: one `<edge>:<weight>,` pair of an
/// `UPDATE` (a `u32` id, a weight in shortest round-trip form, and the
/// separators).
const LINE_BYTES_PER_EDGE: usize = 64;

/// Parses one `ROUTE` line into a request against `server`'s graph.
/// Returns `None` on any malformed input (answered as `ERR BadRequest`).
fn parse_line(server: &RouteServer, line: &str) -> Option<RouteRequest> {
    let mut parts = line.split_ascii_whitespace();
    if parts.next()? != "ROUTE" {
        return None;
    }
    let n = server.graph().vertex_count() as u64;
    let source: u64 = parts.next()?.parse().ok()?;
    let target: u64 = parts.next()?.parse().ok()?;
    if source >= n || target >= n {
        return None;
    }
    let metric = match parts.next()? {
        "length" => Metric::Length,
        "time" => Metric::TravelTime,
        "live" => Metric::Live,
        _ => return None,
    };
    let deadline = match parts.next() {
        Some(ms) => {
            let ms: u64 = ms.parse().ok()?;
            Some(Instant::now() + Duration::from_millis(ms))
        }
        None => None,
    };
    if parts.next().is_some() {
        return None;
    }
    Some(RouteRequest {
        source: VertexId(source as u32),
        target: VertexId(target as u32),
        metric,
        deadline,
    })
}

/// Parses the delta of an `UPDATE` line: comma-separated `edge:weight`
/// pairs (whitespace between groups also tolerated). Returns `None` on
/// any malformed pair; edge-bounds and weight-range checks stay with
/// [`RouteServer::update_live_weights_sparse`] so they answer
/// `ERR InvalidWeights` rather than `BadRequest`.
fn parse_update(line: &str) -> Option<Vec<(EdgeId, f64)>> {
    let rest = line.trim().strip_prefix("UPDATE")?;
    let mut updates = Vec::new();
    for pair in rest.split_ascii_whitespace().flat_map(|g| g.split(',')) {
        if pair.is_empty() {
            continue;
        }
        let (edge, weight) = pair.split_once(':')?;
        let edge: u32 = edge.parse().ok()?;
        let weight: f64 = weight.parse().ok()?;
        updates.push((EdgeId(edge), weight));
    }
    Some(updates)
}

fn error_tag(e: ServeError) -> &'static str {
    match e {
        ServeError::QueueFull => "QueueFull",
        ServeError::DeadlineExpired => "DeadlineExpired",
        ServeError::NoBackend => "NoBackend",
        ServeError::InvalidWeights => "InvalidWeights",
        ServeError::Shutdown => "Shutdown",
    }
}

/// `ERR <Variant> n=<count>`: the variant plus the server's cumulative
/// count for it (this reply included — the counter was incremented
/// before the error propagated here).
fn error_reply(server: &RouteServer, e: ServeError) -> String {
    format!("ERR {} n={}\n", error_tag(e), server.error_count(e))
}

/// Answers a `STATS [json]` line: the full registry scrape, framed with
/// a trailing `.` line.
fn stats_reply(server: &RouteServer, line: &str) -> String {
    let rest = line.trim().strip_prefix("STATS").unwrap_or("").trim();
    let snapshot = server.metrics_snapshot();
    if rest.eq_ignore_ascii_case("json") {
        let mut out = snapshot.to_json();
        out.push_str("\n.\n");
        out
    } else if rest.is_empty() {
        let mut out = snapshot.to_prometheus_text();
        out.push_str(".\n");
        out
    } else {
        "ERR BadRequest\n".to_string()
    }
}

/// The answer to one non-empty request line.
fn answer_line(server: &RouteServer, line: &str) -> String {
    if line.trim_start().starts_with("STATS") {
        return stats_reply(server, line);
    }
    if line.trim_start().starts_with("UPDATE") {
        return match parse_update(line) {
            None => "ERR BadRequest\n".to_string(),
            Some(updates) => match server.update_live_weights_sparse(&updates) {
                Ok(generation) => format!("OK {generation}\n"),
                Err(e) => error_reply(server, e),
            },
        };
    }
    match parse_line(server, line) {
        None => "ERR BadRequest\n".to_string(),
        Some(req) => match server.route(req) {
            Err(e) => error_reply(server, e),
            Ok(reply) => format!(
                "OK {} {:?} {} {}\n",
                reply.cost.map_or("inf".to_string(), |c| format!("{c}")),
                reply.backend,
                u8::from(reply.batched),
                reply.weights_generation
            ),
        },
    }
}

/// Serves one connection until EOF, a write error or an over-long line.
pub fn serve_connection(stream: TcpStream, server: &RouteServer) -> std::io::Result<()> {
    // Each reply is one small write. With Nagle on, a client that
    // pipelines lines gets the first reply at once and every later one
    // held until that reply is ACKed — and the client's delayed ACK
    // stalls about 40 ms per burst.
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let max_line = LINE_BASE_BYTES + LINE_BYTES_PER_EDGE * server.graph().edge_count();
    let mut buf: Vec<u8> = Vec::new();
    loop {
        buf.clear();
        // One byte past the budget tells an over-long line from one
        // that fits exactly.
        let n = (&mut reader)
            .take(max_line as u64 + 1)
            .read_until(b'\n', &mut buf)?;
        if n == 0 {
            return Ok(());
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
        } else if buf.len() > max_line {
            server.count_bad_request();
            writer.write_all(b"ERR BadRequest\n")?;
            return writer.shutdown(Shutdown::Write);
        }
        // Invalid UTF-8 becomes U+FFFD, which no command parses.
        let line = String::from_utf8_lossy(&buf);
        if line.trim().is_empty() {
            continue;
        }
        let answer = answer_line(server, &line);
        if answer.starts_with("ERR BadRequest") {
            server.count_bad_request();
        }
        writer.write_all(answer.as_bytes())?;
    }
}

/// Accept loop: one thread per connection, each sharing `server`.
/// Runs until the listener errors (i.e. effectively forever).
pub fn run_listener(listener: TcpListener, server: Arc<RouteServer>) -> std::io::Result<()> {
    loop {
        let (stream, _) = listener.accept()?;
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let _ = serve_connection(stream, &server);
        });
    }
}
