//! Metric names, the result line and the small statistics the workloads
//! share.
//!
//! The two name tables below are the contract with `BENCHMARK.json`:
//! an untraced run prints exactly [`END_TO_END`], a traced run exactly
//! [`PER_LAYER`]. `tests/gates.rs` checks both tables against the file.

use std::collections::BTreeMap;
use std::time::Duration;

/// `(name, unit)` of every end-to-end metric, reported by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_us", "us"),
    ("throughput_per_s", "1/s"),
];

/// `(name, unit)` of every per-layer metric. A workload that never
/// enters a layer reports `0` for it (see README.md).
pub const PER_LAYER: &[(&str, &str)] = &[
    // Workload-specific end-to-end figures that not every workload has.
    ("e2e.latency_p90_us", "us"),
    ("e2e.latency_p99_us", "us"),
    ("e2e.update_p50_us", "us"),
    ("e2e.burst_p50_us", "us"),
    ("e2e.pipeline_s", "s"),
    ("quality.tau", "ratio"),
    ("quality.mae", "ratio"),
    // serve::tcp
    ("serve.tcp.overhead_p50_us", "us"),
    ("serve.tcp.burst_spread_p50_us", "us"),
    // serve::server
    ("serve.server.submit_p50_us", "us"),
    ("serve.server.latency_p50_us", "us"),
    ("serve.server.latency_p99_us", "us"),
    ("serve.server.batched_share", "ratio"),
    ("serve.server.batch_size_mean", "count"),
    ("serve.server.queue_depth_max", "count"),
    ("serve.server.shed_share", "ratio"),
    ("serve.server.update_overhead_p50_us", "us"),
    // spatial::algo::engine
    ("spatial.engine.settled_per_query", "count"),
    ("spatial.engine.heap_pushes_per_query", "count"),
    ("spatial.engine.share.ch", "ratio"),
    ("spatial.engine.share.cch", "ratio"),
    ("spatial.engine.share.alt", "ratio"),
    ("spatial.engine.share.plain", "ratio"),
    ("spatial.engine.fallbacks", "count"),
    ("spatial.engine.ch_query_us", "us"),
    ("spatial.engine.cch_query_us", "us"),
    ("spatial.engine.plain_query_us", "us"),
    // spatial::algo::cch
    ("spatial.cch.delta_customize_p50_us", "us"),
    ("spatial.cch.recomputed_arcs_mean", "count"),
    ("spatial.cch.delta_edges_mean", "count"),
    // index set-up
    ("setup.ch_s", "s"),
    ("setup.landmarks_s", "s"),
    ("setup.cch_topology_s", "s"),
    ("setup.customize_s", "s"),
    // traj
    ("traj.simulate_s", "s"),
    ("traj.mapmatch_s", "s"),
    ("traj.mapmatch.cache_hit_share", "ratio"),
    // core::candidates
    ("core.candidates.s", "s"),
    ("core.candidates.ms_per_group", "ms"),
    ("core.rank.candidates_ms_p50", "ms"),
    // embed
    ("embed.walks_s", "s"),
    ("embed.skipgram_s", "s"),
    ("embed.skipgram_tokens_per_s", "1/s"),
    // core::trainer, core::eval, core::model
    ("core.trainer.prepare_s", "s"),
    ("core.trainer.epoch_s_mean", "s"),
    ("core.trainer.samples_per_s", "1/s"),
    ("core.eval.s", "s"),
    ("core.model.score_us_per_path", "us"),
    // self time per layer, from the span tree
    ("self.bench_s", "s"),
    ("self.serve_s", "s"),
    ("self.spatial_s", "s"),
    ("self.traj_s", "s"),
    ("self.embed_s", "s"),
    ("self.core_s", "s"),
    // benchmark validity
    ("bench.open.sent", "count"),
    ("bench.open.ok", "count"),
    ("bench.open.failed", "count"),
    ("bench.closed.sent", "count"),
    ("bench.closed.ok", "count"),
    ("bench.closed.failed", "count"),
    ("bench.gen_late_p99_us", "us"),
    ("bench.trace_overhead", "ratio"),
];

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Metric values by name; units come from the name tables.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Timed operations sent.
    pub attempted: u64,
    /// Timed operations answered with an error.
    pub failed: u64,
    /// Wrong answers and invalid phases. Any entry fails the run.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the name tables"
        );
        self.metrics.insert(name, value);
    }

    pub fn error(&mut self, msg: String) {
        self.errors.push(msg);
    }

    /// The result line: the end-to-end table untraced, the per-layer
    /// table traced. A per-layer metric the workload never measured is
    /// `0`. `None` when an end-to-end metric is missing, which happens
    /// only when the run failed before measuring it.
    pub fn result_line(&self, traced: bool) -> Option<String> {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut parts = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => return None,
            };
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            parts.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        Some(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        ))
    }
}

/// Shortest round-trip decimal form, always with a fractional part or
/// exponent so readers parse it as a float.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Nearest-rank percentile (`p` in `[0, 100]`) of unsorted samples;
/// `0` for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Window length for the windowed statistics below.
pub const WINDOW_S: f64 = 0.5;

/// `samples` are `(seconds into the phase, value)`. Splits them into
/// [`WINDOW_S`] windows and returns the median over windows of each
/// window's `p`-th percentile, so one stall of the machine moves one
/// window rather than the whole figure.
pub fn windowed_percentile(samples: &[(f64, f64)], p: f64) -> f64 {
    let mut windows: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(at, v) in samples {
        windows.entry((at / WINDOW_S) as u64).or_default().push(v);
    }
    let per_window: Vec<f64> = windows.values().map(|w| percentile(w, p)).collect();
    median(&per_window)
}

/// Completions counted per [`WINDOW_S`] window of a phase.
pub struct Throughput {
    counts: Vec<u64>,
    secs: f64,
}

impl Throughput {
    pub fn new(secs: f64) -> Self {
        Throughput {
            counts: vec![0; (secs / WINDOW_S).ceil() as usize + 1],
            secs,
        }
    }

    /// Counts one completion `at` seconds into the phase.
    pub fn done(&mut self, at: f64) {
        if let Some(c) = self.counts.get_mut((at / WINDOW_S) as usize) {
            *c += 1;
        }
    }

    /// Completions per second: the median over the phase's full windows.
    pub fn rate(&self) -> f64 {
        let full = ((self.secs / WINDOW_S).floor() as usize).clamp(1, self.counts.len());
        let rates: Vec<f64> = self.counts[..full]
            .iter()
            .map(|&c| c as f64 / WINDOW_S)
            .collect();
        median(&rates)
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Sleeps until `due`, spinning through the last stretch so open-loop
/// sends land on schedule without burning a core between them.
pub fn sleep_until(due: std::time::Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = std::time::Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// SplitMix64: the benchmark's own deterministic generator, so inputs
/// depend on `--seed` alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn windowed_statistics_ignore_one_bad_window() {
        let mut samples: Vec<(f64, f64)> = (0..300).map(|i| (i as f64 / 100.0, 10.0)).collect();
        samples.push((1.2, 1e6));
        assert_eq!(windowed_percentile(&samples, 99.0), 10.0);
        let mut t = Throughput::new(3.0);
        for i in 0..330 {
            t.done(i as f64 / 100.0);
        }
        assert_eq!(t.rate(), 100.0);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn result_line_fills_unmeasured_layers_with_zero() {
        let mut o = Outcome::default();
        o.set("bench.trace_overhead", 1.5);
        let line = o.result_line(true).unwrap();
        assert_eq!(o.result_line(false), None);
        assert!(line.contains("\"bench.trace_overhead\": {\"value\": 1.5, \"unit\": \"ratio\"}"));
        assert!(line.contains("\"setup.ch_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
    }
}
