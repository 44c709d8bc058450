//! Property harness for the CCH elimination-tree query.
//!
//! `Cch::query_cost`, `query_edges` and `query_path` walk the ancestor
//! chains of source and target in the elimination tree instead of
//! running a priority queue. That is only sound on a symmetric chordal
//! topology, so the harness checks the structure itself as well as the
//! answers:
//!
//! - **structure**: every arc has its reverse, and every upper neighbour
//!   of a vertex is one of its elimination-tree ancestors (its parent
//!   being the lowest-ranked one);
//! - **answers**: for every ordered pair, the cost, the original-edge
//!   sequence and the vertex sequence are bit-identical to plain
//!   Dijkstra — on a fresh customization and after every step of chained
//!   `apply_delta` / `apply_weight_delta` batches.
//!
//! Bit-identity needs a unique optimum and exact sums, so every weight is
//! a distinct power of two: two different simple paths then never tie,
//! and sums stay exact in any association (shortcut weights included).
//! Edge `i` is `2^(2i+1)` metres long; speeds are 3.6 or 7.2 km/h, so
//! travel times are `2^(2i+1)` or `2^(2i)` seconds — still distinct
//! powers of two, whichever way a speed delta flips them. Custom vectors
//! draw distinct exponents and give every update a fresh one.
//!
//! The random graphs are directed with one-way and two-way streets,
//! parallel edges and at least two components. Self-loops are drawn too:
//! the graph builder refuses them, which the harness asserts, so no
//! topology ever sees one.

use std::collections::HashSet;
use std::sync::Arc;

use pathrank::spatial::algo::cch::{Cch, CchConfig, CchTopology};
use pathrank::spatial::algo::ch::ChSearch;
use pathrank::spatial::algo::dijkstra::shortest_path;
use pathrank::spatial::builder::GraphBuilder;
use pathrank::spatial::geometry::Point;
use pathrank::spatial::graph::{CostModel, EdgeAttrs, EdgeId, Graph, RoadCategory, VertexId};
use proptest::prelude::*;

/// Slowest and fastest test speed: `3.6 * 2^j` km/h is exactly `2^j` m/s.
const SLOW_KMH: f64 = 3.6;
const FAST_KMH: f64 = 7.2;

/// Raw edge material: `(from, to, two_way, in_first_block)`, the flags
/// drawn as `0` or `1`.
type RawEdge = (usize, usize, u8, u8);

/// Builds a random graph on `n` vertices split into the blocks
/// `0..split` and `split..n` (`split` is reduced into `1..n`); every
/// edge stays inside one block, so the graph has at least two
/// components. Two-way edges add both directions as separate edges,
/// and repeated draws add parallel edges.
fn build_graph(n: usize, split: usize, raw: &[RawEdge]) -> Graph {
    let split = 1 + split % (n - 1);
    let mut b = GraphBuilder::new();
    let vs: Vec<VertexId> = (0..n)
        .map(|i| b.add_vertex(Point::new((i * 37 % 11) as f64, (i * 53 % 7) as f64)))
        .collect();
    let mut next = 0u32;
    let mut add = |b: &mut GraphBuilder, f: usize, t: usize| {
        let attrs = EdgeAttrs {
            length_m: 2f64.powi(2 * next as i32 + 1),
            speed_kmh: SLOW_KMH,
            category: RoadCategory::Residential,
        };
        let added = b.add_edge(vs[f], vs[t], attrs);
        if f == t {
            assert!(added.is_err(), "the builder must refuse a self-loop");
        } else {
            added.expect("valid edge");
            next += 1;
        }
    };
    for &(f, t, two_way, first) in raw {
        let (lo, len) = if first == 1 {
            (0, split)
        } else {
            (split, n - split)
        };
        let (f, t) = (lo + f % len, lo + t % len);
        add(&mut b, f, t);
        if two_way == 1 {
            add(&mut b, t, f);
        }
    }
    b.build()
}

/// The topology is symmetric, and every upper neighbour of a vertex is
/// one of its elimination-tree ancestors, the lowest-ranked being the
/// parent itself.
fn assert_symmetric_chordal(topo: &CchTopology) {
    let arcs: HashSet<(VertexId, VertexId)> = topo.arc_endpoints().collect();
    assert_eq!(arcs.len(), topo.arc_count(), "one arc per directed pair");
    let rank = topo.ranks();
    for &(u, w) in &arcs {
        assert!(arcs.contains(&(w, u)), "arc {u:?} -> {w:?} has no reverse");
        let (lo, hi) = if rank[u.index()] < rank[w.index()] {
            (u, w)
        } else {
            (w, u)
        };
        let mut cur = topo.elimination_parent(lo);
        while let Some(a) = cur {
            if a == hi {
                break;
            }
            assert!(
                rank[a.index()] < rank[hi.index()],
                "{hi:?} is an upper neighbour of {lo:?} but not its ancestor"
            );
            cur = topo.elimination_parent(a);
        }
        assert_eq!(cur, Some(hi), "{hi:?} is not an ancestor of {lo:?}");
    }
    for v in 0..topo.vertex_count() {
        let v = VertexId(v as u32);
        let lowest_upper = arcs
            .iter()
            .filter(|&&(a, b)| a == v && rank[b.index()] > rank[v.index()])
            .map(|&(_, b)| b)
            .min_by_key(|b| rank[b.index()]);
        assert_eq!(topo.elimination_parent(v), lowest_upper, "parent of {v:?}");
    }
}

/// All-pairs bit-identity of the three query entry points against plain
/// Dijkstra under `cost`.
fn assert_matches_dijkstra(g: &Graph, cch: &Cch, cost: CostModel<'_>, what: &str) {
    let n = g.vertex_count() as u32;
    let mut search = ChSearch::new(g.vertex_count());
    for s in 0..n {
        for t in 0..n {
            let (s, t) = (VertexId(s), VertexId(t));
            let got = cch.query_cost(&mut search, s, t);
            if s == t {
                assert_eq!(got, Some(0.0), "{what}: {s:?} to itself");
                assert!(cch.query_path(&mut search, s, t).is_none());
                continue;
            }
            let plain = shortest_path(g, s, t, cost);
            assert_eq!(
                got.map(f64::to_bits),
                plain.as_ref().map(|p| p.cost(g, cost).to_bits()),
                "{what}: {s:?}->{t:?} cost ({got:?})"
            );
            assert_eq!(
                cch.query_edges(&mut search, s, t).map(<[_]>::to_vec),
                plain.as_ref().map(|p| p.edges().to_vec()),
                "{what}: {s:?}->{t:?} edges"
            );
            let path = cch
                .query_path(&mut search, s, t)
                .map(|(e, v)| (e.to_vec(), v.to_vec()));
            assert_eq!(
                path,
                plain.map(|p| (p.edges().to_vec(), p.vertices().to_vec())),
                "{what}: {s:?}->{t:?} path"
            );
        }
    }
}

const MAX_N: usize = 10;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The topology invariants the query relies on.
    #[test]
    fn cch_etree_topology_is_symmetric_and_chordal(
        n in 4usize..MAX_N + 1,
        split in 0usize..MAX_N,
        raw in proptest::collection::vec((0usize..MAX_N, 0usize..MAX_N, 0u8..2, 0u8..2), 1..13),
    ) {
        let g = build_graph(n, split, &raw);
        let topo = CchTopology::build(&g, &CchConfig::default());
        assert_symmetric_chordal(&topo);
    }

    /// Metric customizations, before and after chained speed deltas:
    /// TravelTime moves with every batch, Length only restamps.
    #[test]
    fn cch_etree_metric_queries_match_dijkstra_through_apply_delta(
        n in 4usize..MAX_N + 1,
        split in 0usize..MAX_N,
        raw in proptest::collection::vec((0usize..MAX_N, 0usize..MAX_N, 0u8..2, 0u8..2), 1..13),
        batches in proptest::collection::vec(
            proptest::collection::vec((0usize..64, 0u8..2), 0..6),
            1..5,
        ),
    ) {
        let mut g = build_graph(n, split, &raw);
        let m = g.edge_count();
        prop_assume!(m > 0);
        let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
        let mut tt = topo.customize(&g, &CostModel::TravelTime);
        let mut len = topo.customize(&g, &CostModel::Length);
        assert_matches_dijkstra(&g, &tt, CostModel::TravelTime, "TravelTime fresh");
        assert_matches_dijkstra(&g, &len, CostModel::Length, "Length fresh");
        for (i, batch) in batches.iter().enumerate() {
            let updates: Vec<(EdgeId, f64)> = batch
                .iter()
                .map(|&(e, fast)| (EdgeId((e % m) as u32), if fast == 1 { FAST_KMH } else { SLOW_KMH }))
                .collect();
            let delta = g.set_edge_speeds(&updates);
            tt.apply_delta(&g, &delta);
            len.apply_delta(&g, &delta);
            assert_matches_dijkstra(&g, &tt, CostModel::TravelTime, &format!("TravelTime epoch {i}"));
            assert_matches_dijkstra(&g, &len, CostModel::Length, &format!("Length epoch {i}"));
        }
    }

    /// Custom-vector customizations, before and after chained sparse
    /// weight deltas (duplicates inside a batch included: the last
    /// entry wins).
    #[test]
    fn cch_etree_custom_queries_match_dijkstra_through_apply_weight_delta(
        n in 4usize..MAX_N + 1,
        split in 0usize..MAX_N,
        raw in proptest::collection::vec((0usize..MAX_N, 0usize..MAX_N, 0u8..2, 0u8..2), 1..13),
        shuffle in 0u64..u64::MAX,
        batches in proptest::collection::vec(proptest::collection::vec(0usize..64, 0..6), 1..5),
    ) {
        let g = build_graph(n, split, &raw);
        let m = g.edge_count();
        prop_assume!(m > 0);
        // A seeded permutation of the exponents 0..m.
        let mut exps: Vec<i32> = (0..m as i32).collect();
        let mut state = shuffle | 1;
        for i in (1..m).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            exps.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let mut weights: Vec<f64> = exps.iter().map(|&k| 2f64.powi(k)).collect();
        let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
        let mut cch = topo.customize_weights(&g, &weights);
        assert_matches_dijkstra(&g, &cch, CostModel::Custom(&weights), "custom fresh");
        let mut fresh = m as i32;
        for (i, batch) in batches.iter().enumerate() {
            let updates: Vec<(EdgeId, f64)> = batch
                .iter()
                .map(|&e| {
                    fresh += 1;
                    (EdgeId((e % m) as u32), 2f64.powi(fresh))
                })
                .collect();
            for &(e, w) in &updates {
                weights[e.index()] = w;
            }
            cch.apply_weight_delta(&updates);
            assert!(cch.usable_for(&CostModel::Custom(&weights)));
            assert_matches_dijkstra(&g, &cch, CostModel::Custom(&weights), &format!("custom epoch {i}"));
        }
    }
}
