//! `pathrank_pipeline`: the paper's own workload, with no server and no
//! TCP.
//!
//! * Set-up: the paper-scale region, a simulated GPS fleet, HMM map
//!   matching, and the ALT and CH indexes, all through `Workbench`.
//! * Offline pipeline: D-TkDI candidates, node2vec, sample preparation,
//!   GRU training for a fixed number of epochs and evaluation
//!   (`Workbench::run_with_model`), run twice at one seed; the two runs
//!   must agree bitwise on held-out τ and MAE.
//! * Online ranking: held-out OD pairs, in an order drawn from `--seed`,
//!   ranked one at a time — `diversified_top_k` on the Workbench engine,
//!   `score_paths`, sort.
//!
//! The traced run repeats the offline pipeline through the stage
//! functions `Workbench` wraps (`simulate_fleet`, map matching,
//! `generate_walks`, `train_skipgram`, ...), each in its own span, and
//! requires the same τ and MAE as the untraced `Workbench` run.

use std::sync::Arc;
use std::time::Instant;

use pathrank_core::candidates::{generate_groups_with_backends, CandidateConfig, Strategy};
use pathrank_core::eval::evaluate_model;
use pathrank_core::model::{ModelConfig, PathRankModel};
use pathrank_core::pipeline::{ExperimentConfig, Workbench};
use pathrank_core::trainer::{prepare_samples, train, TrainConfig};
use pathrank_embed::node2vec::Node2VecConfig;
use pathrank_embed::skipgram::{train_skipgram, SkipGramConfig};
use pathrank_embed::walks::{generate_walks, WalkConfig};
use pathrank_spatial::algo::ch::{ChConfig, ContractionHierarchy};
use pathrank_spatial::algo::diversified::DiversifiedConfig;
use pathrank_spatial::algo::engine::QueryEngine;
use pathrank_spatial::algo::landmarks::{LandmarkConfig, LandmarkMetric, LandmarkTable};
use pathrank_spatial::generators::region_network;
use pathrank_spatial::graph::{CostModel, Graph, VertexId};
use pathrank_spatial::similarity::EdgeWeight;
use pathrank_traj::dataset::TrajectoryDataset;
use pathrank_traj::mapmatch::MapMatchConfig;
use pathrank_traj::simulator::simulate_fleet;

use crate::layers::{self, PassIndexes};
use crate::report::{self, Outcome, Rng};
use crate::trace::{Trace, Tracer};
use crate::Opts;

/// The inputs are a fixture, like the serving graph: region, fleet,
/// split, model seeds and held-out pairs are fixed, so the offline
/// pipeline does the same work on every run and held-out τ and MAE
/// repeat exactly. A fleet drawn per seed spread pipeline throughput 20%
/// and peak memory 45% across seeds.
const EXPERIMENT_SEED: u64 = 2020;
const DIM: usize = 32;
/// Held-out OD pairs; every run ranks whole passes over them.
const RANK_POOL: usize = 200;

struct Sizes {
    vehicles: usize,
    epochs: usize,
    setup_reps: usize,
}

fn sizes(opts: &Opts) -> Sizes {
    if opts.quick {
        Sizes {
            vehicles: 8,
            epochs: 1,
            setup_reps: 2,
        }
    } else {
        Sizes {
            vehicles: 40,
            epochs: 4,
            setup_reps: 3,
        }
    }
}

fn experiment(opts: &Opts) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_scale();
    cfg.use_map_matching = true;
    cfg.seed = EXPERIMENT_SEED;
    cfg.sim.n_vehicles = sizes(opts).vehicles;
    cfg.n2v = Node2VecConfig {
        dim: DIM,
        walks_per_vertex: 4,
        walk_length: 20,
        epochs: 1,
        ..Node2VecConfig::default()
    };
    cfg
}

fn candidate_config() -> CandidateConfig {
    CandidateConfig::paper_default(Strategy::DTkDI)
}

fn train_config(opts: &Opts) -> TrainConfig {
    TrainConfig {
        epochs: sizes(opts).epochs,
        lr: 2e-3,
        ..TrainConfig::default()
    }
}

/// Region, fleet, map matching and the ALT/CH indexes.
fn set_up(cfg: &ExperimentConfig) -> Workbench {
    let wb = Workbench::with_graph(region_network(&cfg.region, cfg.seed), cfg.clone());
    wb.landmark_table();
    wb.ch_index();
    wb
}

/// One offline pipeline run on a fresh workbench.
struct Offline {
    secs: f64,
    tau: f64,
    mae: f64,
    trajectories: usize,
    model: PathRankModel,
}

fn offline(wb: &mut Workbench, opts: &Opts) -> Offline {
    let started = Instant::now();
    let (result, model) = wb.run_with_model(
        ModelConfig::paper_default(DIM),
        candidate_config(),
        train_config(opts),
    );
    Offline {
        secs: started.elapsed().as_secs_f64(),
        tau: result.eval.tau,
        mae: result.eval.mae,
        trajectories: wb.train_paths.len() + wb.test_paths.len(),
        model,
    }
}

/// Held-out OD pairs the plain engine can route, with their shortest
/// length: uniform endpoints whose straight-line distance lies in the
/// fleet's trip band, as `simulate_fleet` draws them.
///
/// Ranking time spans two orders of magnitude across such pairs, so a
/// pool drawn per seed moves the median by more than any useful bound.
/// The pool is therefore part of the fixture, drawn from the experiment
/// seed; `--seed` sets the order in which a run ranks it.
fn held_out_pairs(
    g: &Graph,
    cfg: &ExperimentConfig,
    count: usize,
    seed: u64,
) -> Vec<(VertexId, VertexId, f64)> {
    let mut rng = Rng::new(cfg.seed);
    let mut engine = QueryEngine::new(g);
    let n = g.vertex_count() as u64;
    let mut pairs = Vec::with_capacity(count);
    while pairs.len() < count {
        let (s, t) = (VertexId(rng.below(n) as u32), VertexId(rng.below(n) as u32));
        let d = g.euclidean(s, t);
        if s == t || d < cfg.sim.min_trip_euclid_m || d > cfg.sim.max_trip_euclid_m {
            continue;
        }
        if let Some(cost) = engine.shortest_path_cost(s, t, CostModel::Length) {
            pairs.push((s, t, cost));
        }
    }
    let mut order = Rng::new(seed);
    for i in (1..pairs.len()).rev() {
        pairs.swap(i, order.below(i as u64 + 1) as usize);
    }
    pairs
}

/// One ranked OD pair: time spent in candidates and scoring, and the
/// checks its answer must pass.
struct Ranked {
    total_us: f64,
    candidates_us: f64,
    score_us: f64,
    paths: usize,
}

/// Ranks the held-out pool one pair at a time, in whole passes, until
/// `--seconds` have passed, so every run ranks each pair equally often.
/// Every answer is checked against the oracle length.
fn rank_loop(
    engine: &mut QueryEngine<'_>,
    model: &PathRankModel,
    pairs: &[(VertexId, VertexId, f64)],
    opts: &Opts,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Vec<Ranked> {
    let dcfg = {
        let c = candidate_config();
        DiversifiedConfig {
            k: c.k,
            threshold: c.diversity_threshold,
            max_scan: c.max_scan,
            weight: EdgeWeight::Length,
        }
    };
    let mut ranked = Vec::new();
    let started = Instant::now();
    for (i, &(s, t, shortest)) in pairs.iter().cycle().enumerate() {
        if i > 0 && i % pairs.len() == 0 && started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
        let span = tr.id();
        let t0 = Instant::now();
        let candidates = engine.diversified_top_k(s, t, CostModel::Length, &dcfg);
        let t1 = Instant::now();
        let paths: Vec<Vec<u32>> = candidates
            .iter()
            .map(|(p, _)| p.vertices().iter().map(|v| v.0).collect())
            .collect();
        let scores = model.score_paths(&paths);
        let t2 = Instant::now();
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
        let t3 = Instant::now();
        if tr.on() {
            let (c, sc) = (tr.id(), tr.id());
            tr.record(c, span, "spatial", "rank.candidates", i as u64, t0, t1);
            tr.record(sc, span, "core", "rank.score", i as u64, t1, t2);
            tr.record(span, 0, "bench", "rank", i as u64, t0, t3);
        }
        let want = if opts.inject_mismatch && i == 0 {
            shortest + 1.0
        } else {
            shortest
        };
        let first = candidates
            .first()
            .map(|(p, c)| (p.source(), p.target(), *c));
        let ok = match first {
            Some((ps, pt, cost)) => {
                ps == s
                    && pt == t
                    && (cost - want).abs() <= 1e-9 * want.max(1.0)
                    && candidates
                        .iter()
                        .all(|(p, _)| p.source() == s && p.target() == t)
                    && order.windows(2).all(|w| scores[w[0]] >= scores[w[1]])
            }
            None => false,
        };
        if !ok && out.errors.len() < 5 {
            out.error(format!(
                "ranking {}->{}: first candidate {:?}, shortest length {want}",
                s.0,
                t.0,
                first.map(|f| f.2)
            ));
        }
        ranked.push(Ranked {
            total_us: report::us(t3 - t0),
            candidates_us: report::us(t1 - t0),
            score_us: report::us(t2 - t1),
            paths: paths.len(),
        });
    }
    ranked
}

pub fn run(opts: &Opts) -> (Outcome, Option<Trace>) {
    let mut out = Outcome::default();
    let cfg = experiment(opts);
    let sz = sizes(opts);
    // Untraced: every set-up is timed; the last two also run the offline
    // pipeline (traced: the last one, and the staged run repeats it).
    let pipeline_reps = if opts.trace { 1 } else { 2 };
    let mut setups = Vec::with_capacity(sz.setup_reps);
    let mut runs: Vec<Offline> = Vec::new();
    let mut wb = None;
    for rep in 0..sz.setup_reps {
        drop(wb.take());
        let started = Instant::now();
        let mut bench = set_up(&cfg);
        setups.push(started.elapsed().as_secs_f64());
        if rep + pipeline_reps >= sz.setup_reps {
            runs.push(offline(&mut bench, opts));
        }
        wb = Some(bench);
    }
    let wb = wb.expect("setup_reps >= 1");
    let quality_bits = |r: &Offline| (r.tau.to_bits(), r.mae.to_bits());
    if runs
        .iter()
        .any(|r| quality_bits(r) != quality_bits(&runs[0]))
    {
        let seen: Vec<(f64, f64)> = runs.iter().map(|r| (r.tau, r.mae)).collect();
        out.error(format!("tau/mae differ between runs at one seed: {seen:?}"));
    }
    let last = runs.last().expect("at least one pipeline run");
    eprintln!(
        "pathrank_pipeline: {} trajectories, pipeline {:?} s, tau {:.4}, mae {:.4}",
        last.trajectories,
        runs.iter().map(|r| r.secs).collect::<Vec<_>>(),
        last.tau,
        last.mae
    );

    // The offline pipeline's peak: what ranking adds depends on which
    // pairs a seed draws, so it is left out.
    let peak_rss = report::peak_rss_mb("self").expect("/proc/self/status has VmHWM");
    let pool = if opts.quick { 10 } else { RANK_POOL };
    let pairs = held_out_pairs(&wb.graph, &cfg, pool, opts.seed);
    let mut main_tr = Tracer::new(opts.trace, 1);
    let staged = opts
        .trace
        .then(|| staged_pipeline(opts, &cfg, &mut main_tr));
    if let Some(st) = &staged {
        if (st.tau.to_bits(), st.mae.to_bits()) != quality_bits(last) {
            out.error(format!(
                "staged pipeline tau/mae ({}, {}) differ from Workbench ({}, {})",
                st.tau, st.mae, last.tau, last.mae
            ));
        }
    }
    let model = staged.as_ref().map_or(&last.model, |st| &st.model);
    let mut engine = wb.ch_query_engine();
    let before = wb.metrics_snapshot();
    let ranked = rank_loop(&mut engine, model, &pairs, opts, &mut main_tr, &mut out);
    let ranking_window = wb.metrics_snapshot().delta_since(&before);
    let rank_us: Vec<f64> = ranked.iter().map(|r| r.total_us).collect();
    out.attempted = ranked.len() as u64 + runs.len() as u64;
    eprintln!(
        "pathrank_pipeline: ranked {} pairs, p50 {:.0} us, p90 {:.0} us",
        ranked.len(),
        report::percentile(&rank_us, 50.0),
        report::percentile(&rank_us, 90.0)
    );

    out.set("setup_s", report::median(&setups));
    out.set("peak_rss_mb", peak_rss);
    out.set("latency_p50_us", report::percentile(&rank_us, 50.0));
    out.set("e2e.latency_p90_us", report::percentile(&rank_us, 90.0));
    let rates: Vec<f64> = runs
        .iter()
        .map(|r| r.trajectories as f64 / r.secs)
        .collect();
    out.set("throughput_per_s", report::median(&rates));

    let Some(staged) = staged else {
        return (out, None);
    };
    layers::engine_counters(&mut out, &ranking_window);
    out.set("e2e.pipeline_s", staged.pipeline_s);
    out.set("quality.tau", staged.tau);
    out.set("quality.mae", staged.mae);
    out.set("bench.trace_overhead", staged.pipeline_s / last.secs);
    out.set("bench.closed.sent", ranked.len() as f64);
    out.set("bench.closed.ok", ranked.len() as f64);
    out.set("bench.closed.failed", 0.0);
    let cand_ms: Vec<f64> = ranked.iter().map(|r| r.candidates_us / 1e3).collect();
    out.set(
        "core.rank.candidates_ms_p50",
        report::percentile(&cand_ms, 50.0),
    );
    let score_us: f64 = ranked.iter().map(|r| r.score_us).sum();
    let scored: usize = ranked.iter().map(|r| r.paths).sum();
    out.set(
        "core.model.score_us_per_path",
        score_us / scored.max(1) as f64,
    );
    for (name, value) in &staged.stage_metrics {
        out.set(name, *value);
    }

    // Index set-up split and the sequential engine pass over the pairs.
    let (_, topo_s) = main_tr.span(0, "spatial", "setup.cch_topology", 0, |_, _| {
        wb.cch_topology();
    });
    let (cch, cust_s) = main_tr.span(0, "spatial", "setup.customize", 0, |_, _| {
        wb.cch_index(LandmarkMetric::Length)
    });
    out.set("setup.cch_topology_s", topo_s);
    out.set("setup.customize_s", cust_s);
    let idx = PassIndexes {
        ch: Arc::clone(wb.ch_index()),
        cch,
        cch_cost: CostModel::Length,
    };
    let od: Vec<(VertexId, VertexId)> = pairs.iter().map(|&(s, t, _)| (s, t)).collect();
    main_tr.span(0, "bench", "engine_pass", 0, |tr, id| {
        layers::engine_pass(&mut out, tr, id, &wb.graph, &idx, &od)
    });
    let trace = Trace::merge([main_tr]);
    layers::self_times(&mut out, &trace);
    (out, Some(trace))
}

/// The traced offline pipeline, stage by stage.
struct Staged {
    pipeline_s: f64,
    tau: f64,
    mae: f64,
    model: PathRankModel,
    stage_metrics: Vec<(&'static str, f64)>,
}

/// `Workbench::with_graph` + `run_with_model`, unrolled into the stage
/// functions they call, each in its own span.
fn staged_pipeline(opts: &Opts, cfg: &ExperimentConfig, tr: &mut Tracer) -> Staged {
    let threads = cfg.threads.max(1);
    let ((staged, metrics), _) = tr.span(0, "bench", "staged_pipeline", 0, |tr, root| {
        let mut m: Vec<(&'static str, f64)> = Vec::new();
        let (g, _) = tr.span(root, "spatial", "setup.region", 0, |_, _| {
            region_network(&cfg.region, cfg.seed)
        });
        let (trips, sim_s) = tr.span(root, "traj", "traj.simulate", 0, |_, _| {
            simulate_fleet(&g, &cfg.sim, cfg.seed.wrapping_add(1))
        });
        let ((dataset, stats), mm_s) = tr.span(root, "traj", "traj.mapmatch", 0, |_, _| {
            TrajectoryDataset::from_map_matching_with_stats(&g, &trips, &MapMatchConfig::default())
        });
        m.push(("traj.simulate_s", sim_s));
        m.push(("traj.mapmatch_s", mm_s));
        m.push(("traj.mapmatch.cache_hit_share", stats.hit_rate()));
        let mut dataset = dataset.filter_min_hops(cfg.min_hops);
        dataset.paths.retain(|p| p.len() <= cfg.max_hops);
        let (train_paths, test_paths) = dataset.split(cfg.train_frac, cfg.seed.wrapping_add(2));
        let (landmarks, lm_s) = tr.span(root, "spatial", "setup.landmarks", 0, |_, _| {
            Arc::new(LandmarkTable::build(
                &g,
                LandmarkMetric::Length,
                &LandmarkConfig {
                    threads,
                    ..LandmarkConfig::default()
                },
            ))
        });
        let (ch, ch_s) = tr.span(root, "spatial", "setup.ch", 0, |_, _| {
            Arc::new(ContractionHierarchy::build(
                &g,
                LandmarkMetric::Length,
                &ChConfig {
                    threads,
                    ..ChConfig::default()
                },
            ))
        });
        m.push(("setup.landmarks_s", lm_s));
        m.push(("setup.ch_s", ch_s));

        let (out, pipeline_s) = tr.span(root, "bench", "pipeline", 0, |tr, id| {
            let n2v = &cfg.n2v;
            let n2v_seed = cfg.seed.wrapping_add(3);
            let walk_cfg = WalkConfig {
                walks_per_vertex: n2v.walks_per_vertex,
                walk_length: n2v.walk_length,
                p: n2v.p,
                q: n2v.q,
            };
            let (walks, walks_s) = tr.span(id, "embed", "embed.walks", 0, |_, _| {
                generate_walks(&g, &walk_cfg, n2v_seed)
            });
            let sg_cfg = SkipGramConfig {
                dim: DIM,
                window: n2v.window,
                negative: n2v.negative,
                lr: n2v.lr,
                epochs: n2v.epochs,
            };
            let (embedding, sg_s) = tr.span(id, "embed", "embed.skipgram", 0, |_, _| {
                train_skipgram(
                    &walks,
                    g.vertex_count(),
                    &sg_cfg,
                    n2v_seed.wrapping_add(0x9E3779B97F4A7C15),
                )
            });
            let tokens: usize = walks.iter().map(Vec::len).sum();
            m.push(("embed.walks_s", walks_s));
            m.push(("embed.skipgram_s", sg_s));
            m.push((
                "embed.skipgram_tokens_per_s",
                (tokens * n2v.epochs) as f64 / sg_s,
            ));

            let ccfg = candidate_config();
            let groups = |tr: &mut Tracer, name, paths: &[_]| {
                tr.span(id, "core", name, paths.len() as u64, |_, _| {
                    generate_groups_with_backends(
                        &g,
                        paths,
                        &ccfg,
                        cfg.threads,
                        Some(Arc::clone(&landmarks)),
                        Some(Arc::clone(&ch)),
                    )
                })
            };
            let (train_groups, train_s) = groups(tr, "core.candidates.train", &train_paths);
            let (test_groups, test_s) = groups(tr, "core.candidates.test", &test_paths);
            let n_groups = train_groups.len() + test_groups.len();
            m.push(("core.candidates.s", train_s + test_s));
            m.push((
                "core.candidates.ms_per_group",
                (train_s + test_s) * 1e3 / n_groups.max(1) as f64,
            ));

            let mcfg = ModelConfig::paper_default(DIM);
            let multi_task = mcfg.multi_task_weight > 0.0;
            let (samples, prep_s) = tr.span(id, "core", "core.trainer.prepare", 0, |_, _| {
                prepare_samples(&g, &train_groups, multi_task)
            });
            let mut model = PathRankModel::new(g.vertex_count(), Some(embedding), mcfg);
            let tcfg = train_config(opts);
            let (_, train_secs) = tr.span(id, "core", "core.trainer.train", 0, |_, _| {
                train(&mut model, &samples, &tcfg)
            });
            let (eval, eval_s) = tr.span(id, "core", "core.eval", 0, |_, _| {
                evaluate_model(&model, &test_groups)
            });
            m.push(("core.trainer.prepare_s", prep_s));
            m.push(("core.trainer.epoch_s_mean", train_secs / tcfg.epochs as f64));
            m.push((
                "core.trainer.samples_per_s",
                (samples.len() * tcfg.epochs) as f64 / train_secs,
            ));
            m.push(("core.eval.s", eval_s));
            (eval, model)
        });
        let (eval, model) = out;
        (
            Staged {
                pipeline_s,
                tau: eval.tau,
                mae: eval.mae,
                model,
                stage_metrics: Vec::new(),
            },
            m,
        )
    });
    Staged {
        stage_metrics: metrics,
        ..staged
    }
}
