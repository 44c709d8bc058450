//! Customizable contraction hierarchies (CCH): a metric-independent
//! contraction phase plus a millisecond re-weighting pass.
//!
//! The plain hierarchy in [`crate::algo::ch`] bakes its metric into the
//! contraction: witness searches prune shortcuts that are not needed
//! *under the build weights*, so any weight change — live traffic, a
//! learned [`CostModel::Custom`] vector, a perturbation experiment —
//! invalidates the whole index and costs a full rebuild (~100 ms at paper
//! scale). The customizable variant splits the work instead
//! (Dibbelt, Strasser & Wagner, "Customizable Contraction Hierarchies"):
//!
//! 1. **Preprocessing** ([`CchTopology::build`]) fixes a contraction
//!    order using the same deterministic edge-difference + lazy-update
//!    ordering as `ch.rs`, but run on *topology only* (an arc between a
//!    pair of uncontracted neighbours exists or it does not — no witness
//!    searches, no weights). Every arc first gets its reverse (a one-way
//!    street's missing direction has no original edge). Contracting `v`
//!    then inserts an arc `u -> w` for every in/out neighbour pair and
//!    records the **lower triangle** `(u -> w, u -> v, v -> w)`; the
//!    full symmetric chordal topology and its supporting-arc links are
//!    materialised exactly once, along with the **elimination tree**
//!    (each vertex's parent is its lowest-ranked upper neighbour).
//! 2. **Customization** ([`CchTopology::customize`] /
//!    [`CchTopology::customize_weights`]) re-derives every arc weight for
//!    a concrete metric: initialise each arc from its cheapest parallel
//!    original edge, then relax all recorded triangles
//!    (`w(a) = min(w(a), w(b) + w(c))`) bottom-up over the fixed order.
//!    Arcs are processed level by level (the elimination-tree depth of
//!    their lower-ranked endpoint), which makes same-level arcs
//!    independent — the pass parallelises over the existing crossbeam
//!    worker pattern and is bit-identical for any thread count. At paper
//!    scale this runs in single-digit milliseconds, ≥10x faster than a
//!    metric-aware rebuild. When only a few edges moved — the live
//!    telemetry shape — [`Cch::apply_delta`] skips even that: it seeds
//!    the arcs owning the changed edges and chases the change upward
//!    through the triangle DAG, stopping wherever a recomputed weight
//!    lands on the same bits, sub-millisecond for percent-level deltas.
//! 3. **Queries** are elimination-tree queries: on a symmetric chordal
//!    topology every upper neighbour of a vertex is one of its
//!    elimination-tree ancestors, so the forward and backward searches
//!    just walk the ancestor chains of `source` and `target` in
//!    ascending rank, relaxing each visited vertex's upward (forward) or
//!    downward (backward) arcs, and check meets only at common
//!    ancestors. There is no priority queue and no stall-on-demand; a
//!    label at or past the best meet is not relaxed. A customized
//!    [`Cch`] embeds a `ContractionHierarchy` whose arc pool and CSR
//!    search graphs were re-weighted in place, so shortcut unpacking and
//!    the bucket-based many-to-many sweeps still run on the CH code
//!    paths. Reverse arcs nothing supports stay at `+inf` and never
//!    relax in either.
//!
//! The price of skipping witness searches is a denser search graph (every
//! chordal fill-in arc is kept, where CH would prune witnessed ones), so
//! per-query latency is somewhat higher than a metric-built CH. The
//! trade-off wins whenever weights move faster than queries amortise a
//! rebuild: live-traffic routing, per-driver custom cost vectors, and
//! perturbation sweeps.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crossbeam::thread;

use crate::algo::ch::{ChArc, ChArcKind, ChSearch, ChSide, ContractionHierarchy, SearchArc};
use crate::algo::landmarks::LandmarkMetric;
use crate::graph::{CostModel, EdgeId, Graph, VertexId};

/// Tuning knobs for CCH preprocessing and customization.
#[derive(Debug, Clone)]
pub struct CchConfig {
    /// Worker threads for the initial-priority sweep and for per-level
    /// triangle relaxation during customization.
    pub threads: usize,
}

impl Default for CchConfig {
    fn default() -> Self {
        CchConfig { threads: 4 }
    }
}

/// Minimum same-level arcs per customization worker: below this the
/// per-level crossbeam spawn costs more than the relaxation it splits.
const PAR_GRAIN: usize = 256;

/// One arc of the metric-independent topology in raw (pre-finalise)
/// form: endpoints, the parallel original edges it merges, and the lower
/// triangles supporting it. Shared between the builder and the io
/// deserialiser ([`CchTopology::from_raw`]).
pub(crate) struct RawArc {
    pub(crate) from: VertexId,
    pub(crate) to: VertexId,
    /// Original graph edges `from -> to` (ascending `EdgeId`); empty for
    /// pure fill-in arcs.
    pub(crate) originals: Vec<EdgeId>,
    /// Supporting lower triangles `(b, c)`: this arc is at most
    /// `w(b) + w(c)` where `b = from -> v` and `c = v -> to` for some
    /// intermediate `v` ranked below both endpoints.
    pub(crate) triangles: Vec<(u32, u32)>,
}

/// The metric-independent half of a customizable contraction hierarchy:
/// contraction order, merged chordal arc topology, supporting-triangle
/// links, and a pre-assembled per-rank up/down CSR skeleton.
///
/// Build (or load via [`crate::io::read_cch`]) once per graph topology,
/// wrap in an [`Arc`], then [`CchTopology::customize`] per metric or
/// live-weight epoch — the expensive ordering work is never repeated.
#[derive(Debug, Clone)]
pub struct CchTopology {
    /// Customization worker threads (from [`CchConfig`]).
    threads: usize,
    /// Arc -> merged original edges, CSR.
    orig_offsets: Vec<u32>,
    orig_edges: Vec<EdgeId>,
    /// Arc -> supporting lower triangles `(b, c)`, CSR.
    tri_offsets: Vec<u32>,
    tri_pairs: Vec<(u32, u32)>,
    /// Arc ids are renumbered level-contiguously: arcs whose lower
    /// endpoint has elimination level `l` occupy
    /// `level_offsets[l]..level_offsets[l + 1]`. Triangle relaxation
    /// sweeps levels in order; within a level all arcs are independent.
    level_offsets: Vec<u32>,
    /// Original edge -> the (unique) arc that merged it; `u32::MAX` for
    /// edges the topology dropped (self-loops). The entry point of a
    /// sparse delta: a changed edge cost seeds exactly this arc.
    edge_arc: Vec<u32>,
    /// Reverse triangle index, CSR over arcs: supporting arc `b` -> the
    /// arcs whose recorded triangles contain `b`. Every dependent lives
    /// on a strictly higher elimination level (triangles only reference
    /// strictly lower-level supports), so dependents always carry larger
    /// arc ids — what lets [`Cch::apply_delta`] pop a min-heap of arc
    /// ids and know every support is final before its dependents
    /// recompute.
    dep_offsets: Vec<u32>,
    dep_arcs: Vec<u32>,
    dep_pairs: Vec<(u32, u32)>,
    /// Arc id -> its slot in the skeleton's rank-space search segments
    /// (`seg_arcs`). The topology keeps exactly one arc per directed
    /// vertex pair, so assembly dedupes nothing and the map is a
    /// bijection; partial customization uses it to sync a changed arc's
    /// segment weight without the full-sweep `seg_arcs` pass.
    arc_to_seg: Vec<u32>,
    /// Elimination-tree parent of every vertex, in rank space: the
    /// lowest-ranked upper neighbour, `u32::MAX` at a root. The topology
    /// is symmetric and chordal, so every upper neighbour of a vertex is
    /// one of its ancestors — the query walks these chains instead of
    /// running a priority queue.
    parent: Vec<u32>,
    /// Pre-assembled search-graph skeleton: the final arc pool and
    /// per-rank CSR with placeholder weights. [`CchTopology::customize`]
    /// clones it and rewrites weights/expansion rules in place — arc ids
    /// and CSR layout are weight-independent because the topology keeps
    /// exactly one arc per directed vertex pair.
    skeleton: ContractionHierarchy,
}

/// Build-time working state: dynamic chordal adjacency among
/// uncontracted vertices. Mirrors `ch::Builder`, minus weights and
/// witness searches.
struct TopoBuilder {
    /// Arc endpoints, one entry per directed vertex pair ever connected.
    arcs: Vec<(VertexId, VertexId)>,
    /// Per-arc merged original edges (empty for fill-ins).
    originals: Vec<Vec<EdgeId>>,
    /// `(a, b, c)` triangles in creation order.
    triangles: Vec<(u32, u32, u32)>,
    out_adj: Vec<Vec<u32>>,
    in_adj: Vec<Vec<u32>>,
    /// `u32::MAX` while uncontracted, final rank afterwards.
    rank: Vec<u32>,
    deleted_neighbors: Vec<u32>,
    level: Vec<u32>,
}

/// Per-worker gather buffers for the ordering loop.
#[derive(Default)]
struct TopoScratch {
    /// Distinct uncontracted in-neighbours of the probed vertex, with
    /// the (unique) connecting arc.
    ins: Vec<(VertexId, u32)>,
    outs: Vec<(VertexId, u32)>,
}

impl TopoBuilder {
    fn new(g: &Graph) -> Self {
        let n = g.vertex_count();
        let mut arcs: Vec<(VertexId, VertexId)> = Vec::with_capacity(g.edge_count());
        let mut originals: Vec<Vec<EdgeId>> = Vec::with_capacity(g.edge_count());
        let mut out_adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut in_adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, e) in g.edges().enumerate() {
            let id = EdgeId(i as u32);
            // Self-loops can never lie on a shortest path (weights are
            // non-negative) and would break the chordal invariants; drop
            // them from the topology outright.
            if e.from == e.to {
                continue;
            }
            match out_adj[e.from.index()]
                .iter()
                .find(|&&a| arcs[a as usize].1 == e.to)
            {
                Some(&a) => originals[a as usize].push(id),
                None => {
                    let a = arcs.len() as u32;
                    arcs.push((e.from, e.to));
                    originals.push(vec![id]);
                    out_adj[e.from.index()].push(a);
                    in_adj[e.to.index()].push(a);
                }
            }
        }
        // Give every arc its reverse. A one-way street's missing
        // direction becomes an arc with no originals, which
        // customization leaves at +inf unless a triangle supports it.
        // With every arc reversed, each contraction's ins x outs closes
        // the undirected neighbourhood into a clique: the topology is
        // chordal, and every upper neighbour of a vertex is one of its
        // elimination-tree ancestors — what the query walks.
        for a in 0..arcs.len() {
            let (from, to) = arcs[a];
            if !out_adj[to.index()]
                .iter()
                .any(|&r| arcs[r as usize].1 == from)
            {
                let r = arcs.len() as u32;
                arcs.push((to, from));
                originals.push(Vec::new());
                out_adj[to.index()].push(r);
                in_adj[from.index()].push(r);
            }
        }
        TopoBuilder {
            arcs,
            originals,
            triangles: Vec::new(),
            out_adj,
            in_adj,
            rank: vec![u32::MAX; n],
            deleted_neighbors: vec![0; n],
            level: vec![0; n],
        }
    }

    #[inline]
    fn contracted(&self, v: VertexId) -> bool {
        self.rank[v.index()] != u32::MAX
    }

    /// Gathers `v`'s uncontracted in/out neighbours. Arcs are unique per
    /// directed pair, so no parallel-arc dedupe is needed.
    fn gather_neighbors(&self, v: VertexId, scratch: &mut TopoScratch) {
        scratch.ins.clear();
        scratch.outs.clear();
        for &a in &self.in_adj[v.index()] {
            let (from, _) = self.arcs[a as usize];
            if from != v && !self.contracted(from) {
                scratch.ins.push((from, a));
            }
        }
        for &a in &self.out_adj[v.index()] {
            let (_, to) = self.arcs[a as usize];
            if to != v && !self.contracted(to) {
                scratch.outs.push((to, a));
            }
        }
    }

    /// Whether a live arc `from -> to` already exists.
    fn has_arc(&self, from: VertexId, to: VertexId) -> bool {
        self.out_adj[from.index()]
            .iter()
            .any(|&a| self.arcs[a as usize].1 == to)
    }

    /// The lazy-update priority of `v`: same shape as the weighted
    /// builder's (twice the edge difference plus uniformity terms), with
    /// "shortcuts needed" counted by pure arc existence instead of
    /// witness searches. Pure, so the initial sweep runs it from many
    /// threads.
    fn priority(&self, v: VertexId, scratch: &mut TopoScratch) -> i64 {
        self.gather_neighbors(v, scratch);
        let removed = scratch.ins.len() + scratch.outs.len();
        let mut added = 0i64;
        for &(u, _) in &scratch.ins {
            for &(w, _) in &scratch.outs {
                if w != u && !self.has_arc(u, w) {
                    added += 1;
                }
            }
        }
        2 * (added - removed as i64)
            + self.deleted_neighbors[v.index()] as i64
            + 8 * self.level[v.index()] as i64
    }

    /// Contracts `v` at `rank`: completes the chordal clique among its
    /// uncontracted neighbours (inserting fill-in arcs where missing),
    /// records one lower triangle per `(in, out)` pair, then bumps and
    /// prunes the neighbourhood exactly like the weighted builder.
    fn contract(&mut self, v: VertexId, rank: u32, scratch: &mut TopoScratch) {
        self.gather_neighbors(v, scratch);
        self.rank[v.index()] = rank;
        let ins = std::mem::take(&mut scratch.ins);
        let outs = std::mem::take(&mut scratch.outs);
        for &(u, a_in) in &ins {
            for &(w, a_out) in &outs {
                if w == u {
                    continue;
                }
                let a = match self.out_adj[u.index()]
                    .iter()
                    .find(|&&a| self.arcs[a as usize].1 == w)
                {
                    Some(&a) => a,
                    None => {
                        let a = self.arcs.len() as u32;
                        self.arcs.push((u, w));
                        self.originals.push(Vec::new());
                        self.out_adj[u.index()].push(a);
                        self.in_adj[w.index()].push(a);
                        a
                    }
                };
                self.triangles.push((a, a_in, a_out));
            }
        }
        scratch.ins = ins;
        scratch.outs = outs;

        let mut neighbors: Vec<VertexId> = Vec::new();
        for &(nb, _) in scratch.ins.iter().chain(&scratch.outs) {
            if !neighbors.contains(&nb) {
                neighbors.push(nb);
            }
        }
        for nb in neighbors {
            self.deleted_neighbors[nb.index()] += 1;
            let bumped = self.level[v.index()] + 1;
            if self.level[nb.index()] < bumped {
                self.level[nb.index()] = bumped;
            }
            let arcs = &self.arcs;
            let rank = &self.rank;
            let live = |a: &u32| {
                let (from, to) = arcs[*a as usize];
                rank[from.index()] == u32::MAX && rank[to.index()] == u32::MAX
            };
            self.out_adj[nb.index()].retain(live);
            self.in_adj[nb.index()].retain(live);
        }
    }
}

impl CchTopology {
    /// Runs the metric-independent preprocessing: fixes the contraction
    /// order (edge-difference + lazy updates on topology only, initial
    /// priorities fanned out over `cfg.threads` workers) and materialises
    /// the full chordal shortcut topology with its supporting triangles.
    /// Deterministic and bit-identical for any thread count.
    pub fn build(g: &Graph, cfg: &CchConfig) -> Self {
        let n = g.vertex_count();
        let mut b = TopoBuilder::new(g);

        let threads = cfg.threads.max(1).min(n.max(1));
        let mut init_prio = vec![0i64; n];
        if n > 0 {
            let per = n.div_ceil(threads);
            let bref = &b;
            thread::scope(|scope| {
                for (ci, chunk) in init_prio.chunks_mut(per).enumerate() {
                    scope.spawn(move |_| {
                        let mut scratch = TopoScratch::default();
                        for (j, slot) in chunk.iter_mut().enumerate() {
                            let v = VertexId((ci * per + j) as u32);
                            *slot = bref.priority(v, &mut scratch);
                        }
                    });
                }
            })
            .expect("CCH priority worker panicked");
        }

        let mut queue: BinaryHeap<Reverse<(i64, u32)>> = init_prio
            .iter()
            .enumerate()
            .map(|(v, &p)| Reverse((p, v as u32)))
            .collect();

        let mut scratch = TopoScratch::default();
        let mut next_rank = 0u32;
        while let Some(Reverse((_stale_prio, v))) = queue.pop() {
            let v = VertexId(v);
            if b.contracted(v) {
                continue;
            }
            let prio = b.priority(v, &mut scratch);
            if let Some(&Reverse((top, _))) = queue.peek() {
                if prio > top {
                    queue.push(Reverse((prio, v.0)));
                    continue;
                }
            }
            b.contract(v, next_rank, &mut scratch);
            next_rank += 1;
        }
        debug_assert_eq!(next_rank as usize, n);

        // Regroup creation-ordered triangles per owning arc (stable, so
        // each arc keeps its triangles in creation order).
        let arc_count = b.arcs.len();
        let mut tris: Vec<Vec<(u32, u32)>> = vec![Vec::new(); arc_count];
        for &(a, lo, hi) in &b.triangles {
            tris[a as usize].push((lo, hi));
        }
        let raw: Vec<RawArc> = b
            .arcs
            .into_iter()
            .zip(b.originals)
            .zip(tris)
            .map(|(((from, to), originals), triangles)| RawArc {
                from,
                to,
                originals,
                triangles,
            })
            .collect();
        Self::from_raw(g.edge_count(), b.rank, raw, cfg.threads)
    }

    /// Finalises a topology from raw arcs: computes elimination levels,
    /// renumbers arcs level-contiguously and assembles the CSR skeleton.
    /// Shared by [`CchTopology::build`] (trusted input) and the io
    /// deserialiser (which validates structurally first).
    pub(crate) fn from_raw(m: usize, rank: Vec<u32>, raw: Vec<RawArc>, threads: usize) -> Self {
        let n = rank.len();
        let arc_count = raw.len();

        // Vertex elimination levels over the chordal graph: one more
        // than the deepest lower-ranked neighbour, scanned in rank order
        // so dependencies are always resolved.
        let mut lower_nbrs: Vec<Vec<u32>> = vec![Vec::new(); n];
        for arc in &raw {
            let (f, t) = (arc.from.index(), arc.to.index());
            if rank[f] < rank[t] {
                lower_nbrs[t].push(f as u32);
            } else {
                lower_nbrs[f].push(t as u32);
            }
        }
        let mut by_rank = vec![0u32; n];
        for (v, &r) in rank.iter().enumerate() {
            by_rank[r as usize] = v as u32;
        }
        let mut vlevel = vec![0u32; n];
        for &v in &by_rank {
            let lvl = lower_nbrs[v as usize]
                .iter()
                .map(|&u| vlevel[u as usize] + 1)
                .max()
                .unwrap_or(0);
            vlevel[v as usize] = lvl;
        }

        // Renumber arcs so each elimination level is contiguous
        // (stable: creation order preserved within a level).
        let arc_level = |a: &RawArc| {
            let (rf, rt) = (rank[a.from.index()], rank[a.to.index()]);
            let lower = if rf < rt { a.from } else { a.to };
            vlevel[lower.index()]
        };
        let mut perm: Vec<u32> = (0..arc_count as u32).collect();
        perm.sort_by_key(|&i| arc_level(&raw[i as usize]));
        let mut new_id = vec![0u32; arc_count];
        for (new, &old) in perm.iter().enumerate() {
            new_id[old as usize] = new as u32;
        }

        let levels = raw
            .iter()
            .map(arc_level)
            .max()
            .map_or(0, |l| l as usize + 1);
        let mut level_offsets = vec![0u32; levels + 1];
        let mut orig_offsets = Vec::with_capacity(arc_count + 1);
        let mut orig_edges = Vec::new();
        let mut tri_offsets = Vec::with_capacity(arc_count + 1);
        let mut tri_pairs = Vec::new();
        let mut skel_arcs: Vec<ChArc> = Vec::with_capacity(arc_count);
        orig_offsets.push(0u32);
        tri_offsets.push(0u32);
        for &old in &perm {
            let a = &raw[old as usize];
            level_offsets[arc_level(a) as usize + 1] += 1;
            orig_edges.extend_from_slice(&a.originals);
            orig_offsets.push(orig_edges.len() as u32);
            tri_pairs.extend(
                a.triangles
                    .iter()
                    .map(|&(b, c)| (new_id[b as usize], new_id[c as usize])),
            );
            tri_offsets.push(tri_pairs.len() as u32);
            // Placeholder weight/expansion; every customization pass
            // rewrites both. A fill-in arc always has at least one
            // supporting triangle (the pair recorded when it was
            // created). A bare reverse arc has neither originals nor
            // triangles: it stays at +inf under every metric, so it is
            // never relaxed and never unpacked.
            let kind = match (a.originals.first(), a.triangles.first()) {
                (Some(&e), _) => ChArcKind::Original(e),
                (None, Some(&(b, c))) => {
                    ChArcKind::Shortcut(new_id[b as usize], new_id[c as usize])
                }
                (None, None) => ChArcKind::Shortcut(u32::MAX, u32::MAX),
            };
            skel_arcs.push(ChArc {
                from: a.from,
                to: a.to,
                weight: f64::INFINITY,
                kind,
            });
        }
        for l in 0..levels {
            level_offsets[l + 1] += level_offsets[l];
        }

        let skeleton = ContractionHierarchy::assemble(LandmarkMetric::Length, m, rank, skel_arcs);
        let parent: Vec<u32> = (0..n as u32)
            .map(|r| {
                let up = skeleton.up_arcs(r).iter();
                up.map(|sa| sa.other).min().unwrap_or(u32::MAX)
            })
            .collect();

        // Reverse indexes for sparse partial customization and the
        // elimination-tree parents. All are pure functions of the CSRs
        // above, so the io layer's on-disk format stores none of them —
        // loaded topologies recompute them here just like built ones.
        let mut edge_arc = vec![u32::MAX; m];
        for a in 0..arc_count {
            let lo = orig_offsets[a] as usize;
            let hi = orig_offsets[a + 1] as usize;
            for &e in &orig_edges[lo..hi] {
                edge_arc[e.index()] = a as u32;
            }
        }
        let mut dep_offsets = vec![0u32; arc_count + 1];
        for &(b, c) in &tri_pairs {
            dep_offsets[b as usize + 1] += 1;
            dep_offsets[c as usize + 1] += 1;
        }
        for i in 0..arc_count {
            dep_offsets[i + 1] += dep_offsets[i];
        }
        let mut cursor: Vec<u32> = dep_offsets[..arc_count].to_vec();
        let mut dep_arcs = vec![0u32; tri_pairs.len() * 2];
        let mut dep_pairs = vec![(0u32, 0u32); tri_pairs.len() * 2];
        for a in 0..arc_count {
            let lo = tri_offsets[a] as usize;
            let hi = tri_offsets[a + 1] as usize;
            for &(b, c) in &tri_pairs[lo..hi] {
                dep_arcs[cursor[b as usize] as usize] = a as u32;
                dep_pairs[cursor[b as usize] as usize] = (b, c);
                cursor[b as usize] += 1;
                dep_arcs[cursor[c as usize] as usize] = a as u32;
                dep_pairs[cursor[c as usize] as usize] = (b, c);
                cursor[c as usize] += 1;
            }
        }
        let mut arc_to_seg = vec![u32::MAX; arc_count];
        for (i, sa) in skeleton.seg_arcs.iter().enumerate() {
            debug_assert_eq!(
                arc_to_seg[sa.arc as usize],
                u32::MAX,
                "CCH arcs are unique per directed pair, so each owns one segment slot"
            );
            arc_to_seg[sa.arc as usize] = i as u32;
        }

        CchTopology {
            threads: threads.max(1),
            orig_offsets,
            orig_edges,
            tri_offsets,
            tri_pairs,
            level_offsets,
            edge_arc,
            dep_offsets,
            dep_arcs,
            dep_pairs,
            arc_to_seg,
            parent,
            skeleton,
        }
    }

    /// Checks raw arcs from an untrusted source (the io reader) for the
    /// invariants the elimination-tree query relies on, beyond the
    /// per-arc checks the reader makes itself:
    ///
    /// - symmetry: every arc `u -> w` has its reverse `w -> u`;
    /// - an arc with neither originals nor triangles is only the bare
    ///   reverse of an arc that has originals (a one-way street);
    /// - chordality: the rank order is a perfect elimination order, i.e.
    ///   the upper neighbours of each vertex other than its lowest one
    ///   (its elimination-tree parent) are upper neighbours of that
    ///   parent too. By induction every upper neighbour of a vertex is
    ///   then one of its ancestors.
    ///
    /// Arc endpoints must already be in range and unique per pair.
    pub(crate) fn validate_raw(rank: &[u32], raw: &[RawArc]) -> Result<(), String> {
        let n = rank.len();
        let index: std::collections::HashMap<(VertexId, VertexId), usize> = raw
            .iter()
            .enumerate()
            .map(|(i, a)| ((a.from, a.to), i))
            .collect();
        let mut upper: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, a) in raw.iter().enumerate() {
            let Some(&rev) = index.get(&(a.to, a.from)) else {
                return Err(format!(
                    "arc {i} ({} -> {}) has no reverse arc",
                    a.from.0, a.to.0
                ));
            };
            if a.originals.is_empty() && a.triangles.is_empty() && raw[rev].originals.is_empty() {
                return Err(format!(
                    "arc {i} has no originals and no triangles, and its reverse has no originals"
                ));
            }
            if rank[a.from.index()] < rank[a.to.index()] {
                upper[rank[a.from.index()] as usize].push(rank[a.to.index()]);
            }
        }
        let mut mark = vec![u32::MAX; n];
        for (r, up) in upper.iter().enumerate() {
            let Some(&p) = up.iter().min() else {
                continue;
            };
            for &u in &upper[p as usize] {
                mark[u as usize] = r as u32;
            }
            if let Some(&u) = up.iter().find(|&&u| u != p && mark[u as usize] != r as u32) {
                return Err(format!(
                    "topology is not chordal: upper neighbours at ranks {p} and {u} of rank {r} are not adjacent"
                ));
            }
        }
        Ok(())
    }

    /// Vertex count of the graph the topology was built for.
    pub fn vertex_count(&self) -> usize {
        self.skeleton.vertex_count()
    }

    /// Edge count of the graph the topology was built for (attach-time
    /// fingerprint).
    pub fn edge_count(&self) -> usize {
        self.skeleton.edge_count()
    }

    /// Total arcs in the chordal topology (merged originals plus
    /// fill-ins).
    pub fn arc_count(&self) -> usize {
        self.orig_offsets.len() - 1
    }

    /// Arcs with no underlying original edge: chordal fill-ins plus the
    /// reverse of every one-way edge.
    pub fn fill_in_count(&self) -> usize {
        (0..self.arc_count())
            .filter(|&a| self.originals_of(a).is_empty())
            .count()
    }

    /// Recorded lower triangles (the customization work list).
    pub fn triangle_count(&self) -> usize {
        self.tri_pairs.len()
    }

    /// Number of elimination levels (the depth of the parallel
    /// customization sweep).
    pub fn level_count(&self) -> usize {
        self.level_offsets.len() - 1
    }

    /// Contraction rank of every vertex, indexed by vertex id.
    pub fn ranks(&self) -> &[u32] {
        self.skeleton.ranks()
    }

    /// Merged original edges of arc `a` (ascending `EdgeId`).
    pub(crate) fn originals_of(&self, a: usize) -> &[EdgeId] {
        let lo = self.orig_offsets[a] as usize;
        let hi = self.orig_offsets[a + 1] as usize;
        &self.orig_edges[lo..hi]
    }

    /// Supporting triangles of arc `a`.
    pub(crate) fn triangles_of(&self, a: usize) -> &[(u32, u32)] {
        let lo = self.tri_offsets[a] as usize;
        let hi = self.tri_offsets[a + 1] as usize;
        &self.tri_pairs[lo..hi]
    }

    /// The arc that merged original edge `e` (`None` when the topology
    /// dropped the edge, i.e. a self-loop).
    pub(crate) fn arc_of_edge(&self, e: EdgeId) -> Option<u32> {
        let a = self.edge_arc[e.index()];
        (a != u32::MAX).then_some(a)
    }

    /// Arcs whose supporting triangles contain arc `a` — all on strictly
    /// higher elimination levels, hence strictly larger arc ids. Each
    /// link carries the triangle's stored `(b, c)` support pair so the
    /// partial pass can classify the event (defining-support check on
    /// increases, candidate check on decreases) without re-scanning the
    /// dependent's full triangle list.
    pub(crate) fn dependents_of(&self, a: usize) -> impl Iterator<Item = (u32, (u32, u32))> + '_ {
        let lo = self.dep_offsets[a] as usize;
        let hi = self.dep_offsets[a + 1] as usize;
        self.dep_arcs[lo..hi]
            .iter()
            .copied()
            .zip(self.dep_pairs[lo..hi].iter().copied())
    }

    /// Arc endpoints in final (level-contiguous) order, one entry per
    /// directed vertex pair; the topology is symmetric, so `(u, w)` is
    /// listed exactly when `(w, u)` is.
    pub fn arc_endpoints(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.skeleton.arcs().iter().map(|a| (a.from, a.to))
    }

    /// Parent of `v` in the elimination tree: its lowest-ranked upper
    /// neighbour, `None` at a root (one per connected component). The
    /// tree is stored in rank space, so this inspection accessor maps
    /// the parent back to a vertex id with an `O(n)` scan.
    pub fn elimination_parent(&self, v: VertexId) -> Option<VertexId> {
        let rank = self.ranks();
        let p = self.parent[rank[v.index()] as usize];
        rank.iter()
            .position(|&r| r == p)
            .map(|u| VertexId(u as u32))
    }

    /// Customizes the topology for `cost`, deriving every arc weight
    /// from the current graph weights. `Custom` cost vectors are
    /// supported directly (this is what finally makes them fast); the
    /// resulting [`Cch`] records the graph's weights epoch so the query
    /// layer can refuse it after further mutations.
    pub fn customize(self: &Arc<Self>, g: &Graph, cost: &CostModel<'_>) -> Cch {
        if let CostModel::Custom(w) = cost {
            return self.customize_weights(g, w);
        }
        assert_eq!(
            (self.vertex_count(), self.edge_count()),
            (g.vertex_count(), g.edge_count()),
            "CCH topology was built for a different graph"
        );
        let metric = match cost {
            CostModel::Length => LandmarkMetric::Length,
            CostModel::TravelTime => LandmarkMetric::TravelTime,
            CostModel::Custom(_) => unreachable!(),
        };
        self.finish(Some(metric), None, g.weights_epoch(), |e| {
            cost.edge_cost(g, e)
        })
    }

    /// Customizes the topology for an explicit per-edge weight vector
    /// (indexed by `EdgeId`; every weight must be finite and
    /// non-negative). The resulting [`Cch`] serves
    /// [`CostModel::Custom`] queries whose vector is bitwise equal to
    /// `weights`.
    pub fn customize_weights(self: &Arc<Self>, g: &Graph, weights: &[f64]) -> Cch {
        assert_eq!(
            (self.vertex_count(), self.edge_count()),
            (g.vertex_count(), g.edge_count()),
            "CCH topology was built for a different graph"
        );
        assert_eq!(
            weights.len(),
            self.edge_count(),
            "custom weight vector length must match the edge count"
        );
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "custom weights must be finite and non-negative"
        );
        self.finish(None, Some(weights.to_vec()), g.weights_epoch(), |e| {
            weights[e.index()]
        })
    }

    fn finish(
        self: &Arc<Self>,
        metric: Option<LandmarkMetric>,
        custom: Option<Vec<f64>>,
        weights_epoch: u64,
        edge_cost: impl Fn(EdgeId) -> f64,
    ) -> Cch {
        let (weights, kinds) = self.derive(edge_cost);
        let mut inner = self.skeleton.clone();
        for (arc, (w, k)) in inner.arcs_mut().iter_mut().zip(weights.iter().zip(&kinds)) {
            arc.weight = *w;
            arc.kind = *k;
        }
        for sa in inner.seg_arcs.iter_mut() {
            sa.weight = weights[sa.arc as usize];
        }
        inner.set_weights_epoch(weights_epoch);
        Cch {
            topo: Arc::clone(self),
            metric,
            custom,
            weights_epoch,
            inner,
            scratch: CustomizeScratch::default(),
        }
    }

    /// The customization core: per-arc init from the cheapest parallel
    /// original (lowest `EdgeId` on ties), then bottom-up triangle
    /// relaxation level by level. Same-level arcs only read strictly
    /// lower-level weights, so each level parallelises over disjoint
    /// chunks — the result is bit-identical for any thread count.
    fn derive(&self, edge_cost: impl Fn(EdgeId) -> f64) -> (Vec<f64>, Vec<ChArcKind>) {
        let mut weights = Vec::new();
        let mut kinds = Vec::new();
        self.derive_into(edge_cost, &mut weights, &mut kinds);
        (weights, kinds)
    }

    /// [`CchTopology::derive`] into caller-owned buffers: steady-state
    /// re-customization ([`Cch::recustomize`]) hands the same two
    /// vectors back every epoch, so after the first pass the full
    /// customization allocates nothing.
    fn derive_into(
        &self,
        edge_cost: impl Fn(EdgeId) -> f64,
        weights: &mut Vec<f64>,
        kinds: &mut Vec<ChArcKind>,
    ) {
        let arc_count = self.arc_count();
        weights.clear();
        weights.resize(arc_count, f64::INFINITY);
        kinds.clear();
        kinds.resize(arc_count, ChArcKind::Shortcut(u32::MAX, u32::MAX));
        for a in 0..arc_count {
            for &e in self.originals_of(a) {
                let c = edge_cost(e);
                if c < weights[a] {
                    weights[a] = c;
                    kinds[a] = ChArcKind::Original(e);
                }
            }
        }
        for l in 1..self.level_count() {
            let lo = self.level_offsets[l] as usize;
            let hi = self.level_offsets[l + 1] as usize;
            let len = hi - lo;
            if len == 0 {
                continue;
            }
            let (done, rest_w) = weights.split_at_mut(lo);
            let cur_w = &mut rest_w[..len];
            let cur_k = &mut kinds[lo..hi];
            let done: &[f64] = done;
            let workers = self.threads.min(len.div_ceil(PAR_GRAIN)).max(1);
            if workers == 1 {
                for (j, (w, k)) in cur_w.iter_mut().zip(cur_k.iter_mut()).enumerate() {
                    relax_arc(self.triangles_of(lo + j), done, w, k);
                }
            } else {
                let per = len.div_ceil(workers);
                thread::scope(|scope| {
                    for (ci, (wc, kc)) in
                        cur_w.chunks_mut(per).zip(cur_k.chunks_mut(per)).enumerate()
                    {
                        scope.spawn(move |_| {
                            for (j, (w, k)) in wc.iter_mut().zip(kc.iter_mut()).enumerate() {
                                relax_arc(self.triangles_of(lo + ci * per + j), done, w, k);
                            }
                        });
                    }
                })
                .expect("CCH customization worker panicked");
            }
        }
    }
}

/// The sparse-delta customization core: sweeps a pending-arc bitset in
/// ascending id order (supports are final before dependents — see
/// `CchTopology::dep_offsets`), fully recomputes each pending arc
/// exactly like `CchTopology::derive` visits it (cheapest original in
/// ascending `EdgeId`, then every recorded triangle in stored order,
/// strict `<` in both phases), and classifies each dependent link when
/// an arc's weight *bits* changed rather than marking all of them:
///
/// - weight **increased**: only a dependent whose stored expansion rule
///   is exactly this triangle can be affected — every other candidate
///   of that dependent is bitwise-unchanged and its previous winner
///   (the earliest scan-order candidate reaching the minimum) still
///   wins, because a worsened non-winning candidate stays non-winning.
/// - weight **decreased**: the triangle's new candidate only matters
///   when it is `<=` the dependent's current weight — strictly below
///   moves the weight, equality can still flip the stored rule to an
///   earlier scan-order triangle, and anything above can never win. A
///   pending co-support re-offers the triangle when it is popped later
///   (it has a larger id than this arc but smaller than the dependent),
///   so a stale candidate here is never load-bearing.
///
/// Marked arcs always run the full derive-order recompute (weight and
/// expansion rule), so arcs never marked keep bitwise-unchanged inputs
/// and the fixed point is bit-identical to a full customization.
/// Returns how many arcs were recomputed.
fn partial_customize(
    topo: &CchTopology,
    inner: &mut ContractionHierarchy,
    scratch: &mut CustomizeScratch,
    seeds: impl IntoIterator<Item = u32>,
    edge_cost: impl Fn(EdgeId) -> f64,
) -> usize {
    let arc_count = topo.arc_count();
    // Lazily (re)build the packed per-arc weight shadow: dense f64
    // reads in the triangle loop instead of striding over `ChArc`s.
    // Every write path below (and `refinish`) keeps it bitwise in sync
    // with the hierarchy's arcs, so an existing full-length shadow is
    // always current.
    if scratch.weights.len() != arc_count {
        scratch.weights.clear();
        scratch
            .weights
            .extend(inner.arcs().iter().map(|a| a.weight));
    }
    let words = arc_count.div_ceil(64);
    scratch.pending.clear();
    scratch.pending.resize(words, 0u64);
    let mut lo = arc_count;
    for a in seeds {
        let ai = a as usize;
        scratch.pending[ai >> 6] |= 1u64 << (ai & 63);
        lo = lo.min(ai);
    }
    // Single ascending sweep over the pending bitset: a dependent's id
    // is always strictly larger than its support's, so bits set while
    // processing are never behind the cursor — popping the lowest set
    // bit per word visits arcs in exactly ascending order.
    let mut recomputed = 0usize;
    let mut wi = lo >> 6;
    while wi < words {
        let word = scratch.pending[wi];
        if word == 0 {
            wi += 1;
            continue;
        }
        let bit = word.trailing_zeros() as usize;
        scratch.pending[wi] &= !(1u64 << bit);
        let ai = (wi << 6) | bit;
        recomputed += 1;
        let mut w = f64::INFINITY;
        let mut k = ChArcKind::Shortcut(u32::MAX, u32::MAX);
        for &e in topo.originals_of(ai) {
            let c = edge_cost(e);
            if c < w {
                w = c;
                k = ChArcKind::Original(e);
            }
        }
        let shadow = &scratch.weights;
        for &(b, c) in topo.triangles_of(ai) {
            let cand = shadow[b as usize] + shadow[c as usize];
            if cand < w {
                w = cand;
                k = ChArcKind::Shortcut(b, c);
            }
        }
        let old_w = shadow[ai];
        let changed = old_w.to_bits() != w.to_bits();
        scratch.weights[ai] = w;
        let arcs = inner.arcs_mut();
        arcs[ai].weight = w;
        arcs[ai].kind = k;
        let seg = topo.arc_to_seg[ai];
        if seg != u32::MAX {
            inner.seg_arcs[seg as usize].weight = w;
        }
        if changed {
            // `-0.0` never bit-matches a stored weight here (costs are
            // sums of non-negative edge costs), so a bits-changed,
            // numerically-equal pair falls through to the conservative
            // decrease path.
            let increased = w > old_w;
            let arcs = inner.arcs();
            let shadow = &scratch.weights;
            for (d, (b, c)) in topo.dependents_of(ai) {
                let di = d as usize;
                let mask = 1u64 << (di & 63);
                if scratch.pending[di >> 6] & mask != 0 {
                    continue;
                }
                let hit = if increased {
                    arcs[di].kind == ChArcKind::Shortcut(b, c)
                } else {
                    shadow[b as usize] + shadow[c as usize] <= shadow[di]
                };
                if hit {
                    scratch.pending[di >> 6] |= mask;
                }
            }
        }
    }
    recomputed
}

/// Reusable buffers for in-place partial and full (re-)customization,
/// kept inside each [`Cch`] so steady-state traffic epochs allocate
/// nothing. Cloning a customized index (e.g. the serve layer's
/// double-buffered staging copy) deliberately resets the scratch instead
/// of copying it — the buffers are rebuilt lazily on the next pass.
#[derive(Debug, Default)]
struct CustomizeScratch {
    /// Pending-arc bitset for [`Cch::apply_delta`], one bit per arc,
    /// swept ascending (drains back to all-zero).
    pending: Vec<u64>,
    /// Packed per-arc weights, bitwise in sync with the hierarchy's
    /// arcs whenever full-length: the partial pass reads triangle
    /// supports from this dense shadow, and the full in-place pass
    /// ([`Cch::recustomize`]) derives straight into it.
    weights: Vec<f64>,
    /// Full-recustomization expansion-rule buffer.
    kinds: Vec<ChArcKind>,
}

impl Clone for CustomizeScratch {
    fn clone(&self) -> Self {
        CustomizeScratch::default()
    }
}

/// Relaxes every supporting triangle of one arc against the completed
/// lower levels.
#[inline]
fn relax_arc(triangles: &[(u32, u32)], done: &[f64], w: &mut f64, k: &mut ChArcKind) {
    for &(b, c) in triangles {
        let cand = done[b as usize] + done[c as usize];
        if cand < *w {
            *w = cand;
            *k = ChArcKind::Shortcut(b, c);
        }
    }
}

/// A customized contraction hierarchy: shared metric-independent
/// [`CchTopology`] plus concrete arc weights for one metric (or custom
/// weight vector) at one weights epoch.
///
/// `Sync` and immutable through `&Cch`; wrap in an [`Arc`] and hand a
/// clone to every worker's
/// [`crate::algo::engine::QueryEngine::with_cch`]. Queries walk the
/// elimination tree over the embedded re-weighted
/// [`ContractionHierarchy`]'s search graph and unpack through its arc
/// pool, so they are as exact as plain CH queries — just on weights that
/// may have changed milliseconds ago. A uniquely owned copy additionally
/// re-weights *in place*: [`Cch::apply_delta`] / [`Cch::apply_weight_delta`] chase a
/// sparse changed-edge delta through only the triangles it touches, and
/// [`Cch::recustomize`] re-runs the full pass allocation-free — both
/// bit-identical to a fresh customization, which is what lets a serving
/// layer double-buffer one mutable staging copy and atomically publish
/// immutable snapshots of it.
#[derive(Debug, Clone)]
pub struct Cch {
    topo: Arc<CchTopology>,
    /// The graph metric customized for, when derived from
    /// [`CostModel::Length`] / [`CostModel::TravelTime`].
    metric: Option<LandmarkMetric>,
    /// The exact custom weight vector customized for, when derived from
    /// [`CostModel::Custom`] (gating is bitwise).
    custom: Option<Vec<f64>>,
    /// Weights epoch of the graph at customization time.
    weights_epoch: u64,
    /// The re-weighted search hierarchy queries run on.
    inner: ContractionHierarchy,
    /// Reusable buffers for [`Cch::apply_delta`] / [`Cch::recustomize`];
    /// empty until the first in-place pass, reset (not copied) by
    /// `clone`.
    scratch: CustomizeScratch,
}

impl Cch {
    /// The shared metric-independent topology.
    pub fn topology(&self) -> &Arc<CchTopology> {
        &self.topo
    }

    /// The metric customized for (`None` when customized from an
    /// explicit weight vector).
    pub fn metric(&self) -> Option<LandmarkMetric> {
        self.metric
    }

    /// Weights epoch of the graph this customization was derived from
    /// (see [`Graph::weights_epoch`]).
    pub fn weights_epoch(&self) -> u64 {
        self.weights_epoch
    }

    /// Vertex count of the graph the index was built for.
    pub fn vertex_count(&self) -> usize {
        self.topo.vertex_count()
    }

    /// Edge count of the graph the index was built for.
    pub fn edge_count(&self) -> usize {
        self.topo.edge_count()
    }

    /// Whether queries under `cost` may use this customization:
    /// `Length`/`TravelTime` match the customized metric, `Custom`
    /// matches when the query's weight vector is bitwise identical to
    /// the customized one. (The query layer separately checks the
    /// weights epoch against the live graph.)
    pub fn usable_for(&self, cost: &CostModel<'_>) -> bool {
        if self.vertex_count() == 0 {
            return false;
        }
        match cost {
            CostModel::Length => self.metric == Some(LandmarkMetric::Length),
            CostModel::TravelTime => self.metric == Some(LandmarkMetric::TravelTime),
            // Same pointer and length is the serving path, which folds
            // over this index's own vector: O(1) instead of a scan.
            CostModel::Custom(w) => self.custom.as_deref().is_some_and(|c| {
                c.len() == w.len()
                    && (std::ptr::eq(c.as_ptr(), w.as_ptr())
                        || c.iter()
                            .zip(w.iter())
                            .all(|(a, b)| a.to_bits() == b.to_bits()))
            }),
        }
    }

    /// The custom weight vector this index was customized for (`None`
    /// for a metric customization). Serving
    /// [`CostModel::Custom`] over this very slice passes
    /// [`Cch::usable_for`] without a scan.
    pub fn custom_weights(&self) -> Option<&[f64]> {
        self.custom.as_deref()
    }

    /// The embedded re-weighted hierarchy — the engine's many-to-many
    /// entry points run their bucket sweeps directly on it. Its
    /// own metric tag is a placeholder; gating must go through
    /// [`Cch::usable_for`].
    pub(crate) fn hierarchy(&self) -> &ContractionHierarchy {
        &self.inner
    }

    /// Applies a sparse live-speed delta in place: `changed` lists the
    /// edges whose (post-clamp) speed moved since this index was last
    /// (re-)customized — exactly what
    /// [`Graph::set_edge_speeds`](crate::graph::Graph::set_edge_speeds)
    /// returns. The arcs owning those edges are seeded into a worklist
    /// that propagates upward through the triangle DAG in arc-id
    /// (elimination-level) order; an arc's lower triangles re-relax only
    /// when a support's weight actually changed, and propagation stops
    /// wherever a recomputed weight is bit-unchanged. The result is
    /// bit-identical to a full [`CchTopology::customize`] on the current
    /// graph — the `cch_partial_` property harness asserts this; the hot
    /// path never re-checks. Returns the number of arcs recomputed.
    ///
    /// `changed` must cover every edge whose speed changed since
    /// [`Cch::weights_epoch`]; later duplicates win, and entries whose
    /// cost did not actually move are harmless (they recompute to the
    /// same bits and stop immediately). Only metric customizations
    /// accept speed deltas — an index customized from an explicit weight
    /// vector moves through [`Cch::apply_weight_delta`] instead.
    pub fn apply_delta(&mut self, g: &Graph, changed: &[(EdgeId, f64)]) -> usize {
        assert_eq!(
            (self.vertex_count(), self.edge_count()),
            (g.vertex_count(), g.edge_count()),
            "CCH was customized for a different graph"
        );
        let metric = self.metric.expect(
            "apply_delta needs a metric customization; \
             use apply_weight_delta for custom weight vectors",
        );
        let epoch = g.weights_epoch();
        let recomputed = match metric {
            // Speed telemetry never moves length weights; the delta only
            // restamps the epoch so the gate re-admits us.
            LandmarkMetric::Length => 0,
            LandmarkMetric::TravelTime => {
                let topo = Arc::clone(&self.topo);
                let cost = CostModel::TravelTime;
                partial_customize(
                    &topo,
                    &mut self.inner,
                    &mut self.scratch,
                    changed.iter().filter_map(|&(e, _)| topo.arc_of_edge(e)),
                    |e| cost.edge_cost(g, e),
                )
            }
        };
        self.inner.set_weights_epoch(epoch);
        self.weights_epoch = epoch;
        recomputed
    }

    /// Sparse form of [`CchTopology::customize_weights`] against this
    /// index's current custom vector: applies `updates` (later
    /// duplicates win) to the stored vector in place and propagates the
    /// touched arcs exactly like [`Cch::apply_delta`]. The weights epoch
    /// is untouched — the graph itself did not change; afterwards
    /// [`Cch::usable_for`] gates on the updated vector. A bit-identical
    /// echo (an update equal to the stored weight) seeds nothing.
    /// Returns the number of arcs recomputed.
    pub fn apply_weight_delta(&mut self, updates: &[(EdgeId, f64)]) -> usize {
        let m = self.edge_count();
        assert!(
            updates
                .iter()
                .all(|&(e, w)| e.index() < m && w.is_finite() && w >= 0.0),
            "weight updates must name real edges with finite, non-negative weights"
        );
        let topo = Arc::clone(&self.topo);
        let custom = self.custom.as_mut().expect(
            "apply_weight_delta needs a custom-vector customization; \
             use apply_delta for metric customizations",
        );
        let mut seeds: Vec<u32> = Vec::with_capacity(updates.len());
        for &(e, w) in updates {
            let slot = &mut custom[e.index()];
            if slot.to_bits() != w.to_bits() {
                *slot = w;
                if let Some(a) = topo.arc_of_edge(e) {
                    seeds.push(a);
                }
            }
        }
        let custom: &[f64] = self.custom.as_deref().expect("checked above");
        partial_customize(&topo, &mut self.inner, &mut self.scratch, seeds, |e| {
            custom[e.index()]
        })
    }

    /// Re-derives every arc weight in place for `cost` at the graph's
    /// current weights epoch — the allocation-free steady-state form of
    /// [`CchTopology::customize`]: no skeleton clone, no fresh weight
    /// buffers; the scratch persists inside the index across epochs.
    /// Bit-identical to a fresh customization.
    pub fn recustomize(&mut self, g: &Graph, cost: &CostModel<'_>) {
        if let CostModel::Custom(w) = cost {
            return self.recustomize_weights(g, w);
        }
        assert_eq!(
            (self.vertex_count(), self.edge_count()),
            (g.vertex_count(), g.edge_count()),
            "CCH was customized for a different graph"
        );
        self.metric = Some(match cost {
            CostModel::Length => LandmarkMetric::Length,
            CostModel::TravelTime => LandmarkMetric::TravelTime,
            CostModel::Custom(_) => unreachable!(),
        });
        self.custom = None;
        self.refinish(g.weights_epoch(), |e| cost.edge_cost(g, e));
    }

    /// In-place form of [`CchTopology::customize_weights`] (see
    /// [`Cch::recustomize`]); the stored custom vector's allocation is
    /// reused when the length matches.
    pub fn recustomize_weights(&mut self, g: &Graph, weights: &[f64]) {
        assert_eq!(
            (self.vertex_count(), self.edge_count()),
            (g.vertex_count(), g.edge_count()),
            "CCH was customized for a different graph"
        );
        assert_eq!(
            weights.len(),
            self.edge_count(),
            "custom weight vector length must match the edge count"
        );
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "custom weights must be finite and non-negative"
        );
        match &mut self.custom {
            Some(c) if c.len() == weights.len() => c.copy_from_slice(weights),
            slot => *slot = Some(weights.to_vec()),
        }
        self.metric = None;
        self.refinish(g.weights_epoch(), |e| weights[e.index()]);
    }

    /// Shared tail of the in-place full paths: full derive into the
    /// persistent scratch buffers, then rewrite arc weights/expansions
    /// and segment weights.
    fn refinish(&mut self, epoch: u64, edge_cost: impl Fn(EdgeId) -> f64) {
        let topo = Arc::clone(&self.topo);
        let mut w = std::mem::take(&mut self.scratch.weights);
        let mut k = std::mem::take(&mut self.scratch.kinds);
        topo.derive_into(edge_cost, &mut w, &mut k);
        for (arc, (wv, kv)) in self.inner.arcs_mut().iter_mut().zip(w.iter().zip(&k)) {
            arc.weight = *wv;
            arc.kind = *kv;
        }
        for sa in self.inner.seg_arcs.iter_mut() {
            sa.weight = w[sa.arc as usize];
        }
        self.inner.set_weights_epoch(epoch);
        self.weights_epoch = epoch;
        self.scratch.weights = w;
        self.scratch.kinds = k;
    }

    /// The elimination-tree query: walks the ancestor chains of
    /// `source` and `target` in ascending rank, relaxing each visited
    /// vertex's upward arcs (forward) or downward arcs (backward). Every
    /// upper neighbour of a vertex is one of its ancestors, so a label is
    /// final by the time its chain reaches it, and the top vertex of a
    /// shortest up-down path is a common ancestor of both ends — meets
    /// are checked only there. A label at or past the best meet cannot
    /// improve it and is not relaxed. Returns the meeting vertex (as a
    /// *rank*) and the arc-weight distance; `None` when unreachable.
    fn run_query(
        &self,
        search: &mut ChSearch,
        source: VertexId,
        target: VertexId,
    ) -> Option<(VertexId, f64)> {
        let ch = &self.inner;
        debug_assert_eq!(
            search.capacity(),
            ch.vertex_count(),
            "search sized for another graph"
        );
        let parent = &self.topo.parent;
        let (fwd, bwd) = search.sides_mut();
        fwd.begin();
        bwd.begin();
        let mut x = ch.rank[source.index()];
        let mut y = ch.rank[target.index()];
        fwd.relax(VertexId(x), 0.0, u32::MAX);
        bwd.relax(VertexId(y), 0.0, u32::MAX);

        // Below the lowest common ancestor: advance the lower chain.
        // Until the chains merge no meet exists, so nothing prunes.
        while x != y {
            if x < y {
                relax_from(fwd, ch.up_arcs(x), x, f64::INFINITY);
                x = parent[x as usize];
            } else {
                relax_from(bwd, ch.down_arcs(y), y, f64::INFINITY);
                y = parent[y as usize];
            }
        }
        // The common ancestors, up to the root (none when the chains
        // ended in different trees).
        let mut best = f64::INFINITY;
        let mut meet = None;
        while x != u32::MAX {
            let v = VertexId(x);
            let total = fwd.dist(v) + bwd.dist(v);
            if total < best {
                best = total;
                meet = Some(v);
            }
            relax_from(fwd, ch.up_arcs(x), x, best);
            relax_from(bwd, ch.down_arcs(x), x, best);
            x = parent[x as usize];
        }
        meet.map(|m| (m, best))
    }

    /// Cheapest `source -> target` distance as the sum of arc weights
    /// (exact up to float association of shortcut sums; the engine
    /// re-folds costs over the unpacked edges).
    pub fn query_cost(
        &self,
        search: &mut ChSearch,
        source: VertexId,
        target: VertexId,
    ) -> Option<f64> {
        if source == target {
            return Some(0.0);
        }
        self.run_query(search, source, target).map(|(_, d)| d)
    }

    /// Cheapest `source -> target` path as the unpacked original-edge
    /// sequence (borrowed from the search's reusable buffer; valid until
    /// the next query). `None` when unreachable or `source == target`.
    pub fn query_edges<'s>(
        &self,
        search: &'s mut ChSearch,
        source: VertexId,
        target: VertexId,
    ) -> Option<&'s [EdgeId]> {
        self.query_path(search, source, target).map(|(e, _)| e)
    }

    /// Like [`Cch::query_edges`], also handing back the matching vertex
    /// sequence (`edges.len() + 1` entries, source first).
    pub fn query_path<'s>(
        &self,
        search: &'s mut ChSearch,
        source: VertexId,
        target: VertexId,
    ) -> Option<(&'s [EdgeId], &'s [VertexId])> {
        if source == target {
            return None;
        }
        let (meet, _) = self.run_query(search, source, target)?;
        Some(self.inner.unpack(search, source, target, meet))
    }
}

/// One elimination-tree step: counts `v` (a rank) as visited and, when
/// its label is below `best`, relaxes `arcs` out of it. `+inf` arcs (a
/// one-way street's unsupported reverse) never improve a label.
#[inline]
fn relax_from(side: &mut ChSide, arcs: &[SearchArc], v: u32, best: f64) {
    side.visit();
    let d = side.dist(VertexId(v));
    if d >= best {
        return;
    }
    for sa in arcs {
        let w = VertexId(sa.other);
        let nd = d + sa.weight;
        if nd < side.dist(w) {
            side.relax(w, nd, sa.arc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::dijkstra::shortest_path;
    use crate::generators::{grid_network, region_network, GridConfig, RegionConfig};
    use crate::graph::EdgeId;

    fn region() -> Graph {
        region_network(&RegionConfig::small_test(), 11)
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
    }

    #[test]
    fn cch_ranks_are_a_permutation() {
        let g = region();
        let topo = CchTopology::build(&g, &CchConfig::default());
        let mut ranks: Vec<u32> = topo.ranks().to_vec();
        ranks.sort_unstable();
        let expect: Vec<u32> = (0..g.vertex_count() as u32).collect();
        assert_eq!(ranks, expect, "ranks must be a permutation of 0..n");
        assert_eq!(topo.vertex_count(), g.vertex_count());
        assert_eq!(topo.edge_count(), g.edge_count());
        assert!(topo.arc_count() > 0);
        assert!(topo.triangle_count() > 0);
        assert!(topo.level_count() > 1);
    }

    #[test]
    fn cch_build_deterministic_across_thread_counts() {
        let g = region();
        let a = CchTopology::build(&g, &CchConfig { threads: 1 });
        let b = CchTopology::build(&g, &CchConfig { threads: 8 });
        assert_eq!(a.ranks(), b.ranks(), "ordering must not depend on threads");
        assert_eq!(a.arc_count(), b.arc_count());
        assert_eq!(a.tri_pairs, b.tri_pairs);
        assert_eq!(a.level_offsets, b.level_offsets);
    }

    #[test]
    fn cch_customize_parallel_bitwise_identical() {
        // A grid large enough that at least one level crosses PAR_GRAIN,
        // so the parallel relaxation path actually runs.
        let g = grid_network(
            &GridConfig {
                nx: 24,
                ny: 24,
                ..GridConfig::small_test()
            },
            5,
        );
        let seq = Arc::new(CchTopology::build(&g, &CchConfig { threads: 1 }));
        let par = Arc::new(CchTopology::build(&g, &CchConfig { threads: 8 }));
        for cost in [CostModel::Length, CostModel::TravelTime] {
            let a = seq.customize(&g, &cost);
            let b = par.customize(&g, &cost);
            let wa: Vec<u64> = a
                .hierarchy()
                .arcs()
                .iter()
                .map(|x| x.weight.to_bits())
                .collect();
            let wb: Vec<u64> = b
                .hierarchy()
                .arcs()
                .iter()
                .map(|x| x.weight.to_bits())
                .collect();
            assert_eq!(wa, wb, "customized weights must not depend on threads");
        }
    }

    #[test]
    fn cch_queries_match_dijkstra() {
        let g = region();
        let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
        let mut search = ChSearch::new(g.vertex_count());
        for cost in [CostModel::Length, CostModel::TravelTime] {
            let cch = topo.customize(&g, &cost);
            let n = g.vertex_count() as u32;
            for (s, t) in [(0, n - 1), (1, n / 2), (n / 3, 2 * n / 3), (n - 1, 0)] {
                let (s, t) = (VertexId(s), VertexId(t));
                let expect = shortest_path(&g, s, t, cost).map(|p| p.cost(&g, cost));
                let got = cch.query_cost(&mut search, s, t);
                match (expect, got) {
                    (None, None) => {}
                    (Some(e), Some(c)) => assert!(close(e, c), "{e} vs {c}"),
                    other => panic!("reachability mismatch: {other:?}"),
                }
                if let Some((edges, vertices)) = cch.query_path(&mut search, s, t) {
                    assert_eq!(vertices.len(), edges.len() + 1);
                    assert_eq!(vertices[0], s);
                    assert_eq!(*vertices.last().unwrap(), t);
                    for (i, &e) in edges.iter().enumerate() {
                        let rec = g.edge(e);
                        assert_eq!(rec.from, vertices[i]);
                        assert_eq!(rec.to, vertices[i + 1]);
                    }
                }
            }
        }
    }

    #[test]
    fn cch_recustomize_after_speed_perturbation() {
        let mut g = region();
        let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
        let mut search = ChSearch::new(g.vertex_count());
        for round in 0..3u64 {
            let updates: Vec<(EdgeId, f64)> = (0..g.edge_count())
                .step_by(3 + round as usize)
                .map(|i| {
                    let e = EdgeId(i as u32);
                    (e, g.edge(e).attrs.speed_kmh * 0.5)
                })
                .collect();
            g.set_edge_speeds(&updates);
            let cch = topo.customize(&g, &CostModel::TravelTime);
            assert_eq!(cch.weights_epoch(), g.weights_epoch());
            let n = g.vertex_count() as u32;
            for (s, t) in [(0, n - 1), (n / 4, 3 * n / 4)] {
                let (s, t) = (VertexId(s), VertexId(t));
                let expect = shortest_path(&g, s, t, CostModel::TravelTime)
                    .map(|p| p.cost(&g, CostModel::TravelTime));
                let got = cch.query_cost(&mut search, s, t);
                match (expect, got) {
                    (None, None) => {}
                    (Some(e), Some(c)) => assert!(close(e, c), "{e} vs {c}"),
                    other => panic!("reachability mismatch: {other:?}"),
                }
            }
        }
        assert_eq!(g.weights_epoch(), 3);
    }

    #[test]
    fn cch_zero_ish_speed_update_cannot_poison_customization() {
        // Regression: a zero/denormal speed used to reach the edge
        // records unclamped, turning TravelTime weights into `inf`,
        // which customization then propagated into every shortcut above
        // the poisoned edge. The mutation-boundary clamp must keep every
        // customized weight finite and every query answer exact.
        let mut g = region();
        let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
        // Denormal speeds: positive and finite, but `length / (speed/3.6)`
        // overflows to infinity without the clamp.
        let updates: Vec<(EdgeId, f64)> = (0..g.edge_count())
            .step_by(5)
            .map(|i| (EdgeId(i as u32), 1e-308))
            .collect();
        g.set_edge_speeds(&updates);
        for e in 0..g.edge_count() {
            let tt = g.edge(EdgeId(e as u32)).attrs.travel_time_s();
            assert!(tt.is_finite(), "edge {e} travel time must stay finite");
        }
        let cch = topo.customize(&g, &CostModel::TravelTime);
        let mut search = ChSearch::new(g.vertex_count());
        let n = g.vertex_count() as u32;
        for (s, t) in [(0, n - 1), (n / 3, 2 * n / 3), (n / 2, 1)] {
            let (s, t) = (VertexId(s), VertexId(t));
            let expect = shortest_path(&g, s, t, CostModel::TravelTime)
                .map(|p| p.cost(&g, CostModel::TravelTime));
            let got = cch.query_cost(&mut search, s, t);
            match (expect, got) {
                (None, None) => {}
                (Some(e), Some(c)) => {
                    assert!(e.is_finite() && c.is_finite(), "poisoned weights: {e} {c}");
                    assert!(close(e, c), "{e} vs {c}");
                }
                other => panic!("reachability mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn cch_custom_weights_gating_is_bitwise() {
        let g = region();
        let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
        let weights: Vec<f64> = (0..g.edge_count()).map(|i| 1.0 + (i % 7) as f64).collect();
        let cch = topo.customize_weights(&g, &weights);
        assert!(cch.usable_for(&CostModel::Custom(&weights)));
        assert!(!cch.usable_for(&CostModel::Length));
        assert!(!cch.usable_for(&CostModel::TravelTime));
        let mut other = weights.clone();
        other[0] += 1.0;
        assert!(!cch.usable_for(&CostModel::Custom(&other)));
        let mut search = ChSearch::new(g.vertex_count());
        let n = g.vertex_count() as u32;
        for (s, t) in [(0, n - 1), (n / 2, n / 5)] {
            let (s, t) = (VertexId(s), VertexId(t));
            let cost = CostModel::Custom(&weights);
            let expect = shortest_path(&g, s, t, cost).map(|p| p.cost(&g, cost));
            let got = cch.query_cost(&mut search, s, t);
            match (expect, got) {
                (None, None) => {}
                (Some(e), Some(c)) => assert!(close(e, c), "{e} vs {c}"),
                other => panic!("reachability mismatch: {other:?}"),
            }
        }
        let length = topo.customize(&g, &CostModel::Length);
        assert!(length.usable_for(&CostModel::Length));
        assert!(!length.usable_for(&CostModel::Custom(&weights)));
    }

    /// Full bitwise comparison of two customized indexes: arc weights,
    /// expansion rules and search-segment weights.
    fn assert_bit_identical(a: &Cch, b: &Cch, what: &str) {
        let aa = a.hierarchy().arcs();
        let bb = b.hierarchy().arcs();
        assert_eq!(aa.len(), bb.len(), "{what}: arc count");
        for (i, (x, y)) in aa.iter().zip(bb).enumerate() {
            assert_eq!(
                x.weight.to_bits(),
                y.weight.to_bits(),
                "{what}: arc {i} weight {} vs {}",
                x.weight,
                y.weight
            );
            assert_eq!(x.kind, y.kind, "{what}: arc {i} expansion rule");
        }
        for (i, (x, y)) in a
            .hierarchy()
            .seg_arcs
            .iter()
            .zip(&b.hierarchy().seg_arcs)
            .enumerate()
        {
            assert_eq!(
                x.weight.to_bits(),
                y.weight.to_bits(),
                "{what}: segment {i} weight"
            );
        }
    }

    #[test]
    fn cch_apply_delta_bit_identical_to_full_customize() {
        let mut g = region();
        let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
        let mut partial = topo.customize(&g, &CostModel::TravelTime);
        // Chained sparse epochs: the partial index must track the full
        // one bit for bit through every delta.
        for round in 0..4u32 {
            let updates: Vec<(EdgeId, f64)> = (0..g.edge_count())
                .skip(round as usize)
                .step_by(7)
                .map(|i| {
                    let e = EdgeId(i as u32);
                    (
                        e,
                        g.edge(e).attrs.speed_kmh * if round % 2 == 0 { 0.5 } else { 1.9 },
                    )
                })
                .collect();
            let delta = g.set_edge_speeds(&updates);
            assert!(!delta.is_empty());
            let recomputed = partial.apply_delta(&g, &delta);
            assert!(recomputed > 0, "round {round}: delta must touch arcs");
            assert!(
                recomputed < topo.arc_count(),
                "round {round}: a sparse delta must not recompute everything"
            );
            assert_eq!(partial.weights_epoch(), g.weights_epoch());
            let full = topo.customize(&g, &CostModel::TravelTime);
            assert_bit_identical(&partial, &full, &format!("round {round}"));
        }
    }

    #[test]
    fn cch_apply_delta_empty_and_echo_deltas_are_noops() {
        let g = region();
        let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
        let mut cch = topo.customize(&g, &CostModel::TravelTime);
        assert_eq!(cch.apply_delta(&g, &[]), 0);
        // An echo (unchanged speed) recomputes the owning arc but can
        // never propagate.
        let e = EdgeId(0);
        let speed = g.edge(e).attrs.speed_kmh;
        let recomputed = cch.apply_delta(&g, &[(e, speed)]);
        assert!(recomputed <= 1, "an echo must stop at the seeded arc");
        let full = topo.customize(&g, &CostModel::TravelTime);
        assert_bit_identical(&cch, &full, "echo delta");
    }

    #[test]
    fn cch_apply_delta_length_metric_restamps_only() {
        let mut g = region();
        let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
        let mut cch = topo.customize(&g, &CostModel::Length);
        let delta = g.set_edge_speeds(&[(EdgeId(1), 7.5)]);
        assert_eq!(cch.apply_delta(&g, &delta), 0);
        assert_eq!(cch.weights_epoch(), g.weights_epoch());
        let full = topo.customize(&g, &CostModel::Length);
        assert_bit_identical(&cch, &full, "length restamp");
    }

    #[test]
    fn cch_apply_weight_delta_bit_identical_and_regates() {
        let g = region();
        let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
        let mut weights: Vec<f64> = (0..g.edge_count()).map(|i| 1.0 + (i % 9) as f64).collect();
        let mut sparse = topo.customize_weights(&g, &weights);
        // Sparse updates, including a duplicate where the later entry
        // must win.
        let updates = vec![
            (EdgeId(2), 25.0),
            (EdgeId(5), 0.5),
            (EdgeId(2), 3.25),
            (EdgeId((g.edge_count() - 1) as u32), 11.0),
        ];
        for &(e, w) in &updates {
            weights[e.index()] = w;
        }
        let recomputed = sparse.apply_weight_delta(&updates);
        assert!(recomputed > 0);
        let full = topo.customize_weights(&g, &weights);
        assert_bit_identical(&sparse, &full, "weight delta");
        assert!(
            sparse.usable_for(&CostModel::Custom(&weights)),
            "gating must follow the updated vector"
        );
        let mut search = ChSearch::new(g.vertex_count());
        let n = g.vertex_count() as u32;
        for (s, t) in [(0, n - 1), (n / 2, n / 5)] {
            let (s, t) = (VertexId(s), VertexId(t));
            let cost = CostModel::Custom(&weights);
            let expect = shortest_path(&g, s, t, cost).map(|p| p.cost(&g, cost));
            let got = sparse.query_cost(&mut search, s, t);
            match (expect, got) {
                (None, None) => {}
                (Some(e), Some(c)) => assert!(close(e, c), "{e} vs {c}"),
                other => panic!("reachability mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn cch_recustomize_in_place_bit_identical() {
        let mut g = region();
        let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
        let mut live = topo.customize(&g, &CostModel::TravelTime);
        for round in 0..3u32 {
            let updates: Vec<(EdgeId, f64)> = (0..g.edge_count())
                .step_by(4 + round as usize)
                .map(|i| {
                    let e = EdgeId(i as u32);
                    (e, g.edge(e).attrs.speed_kmh * 0.75)
                })
                .collect();
            g.set_edge_speeds(&updates);
            live.recustomize(&g, &CostModel::TravelTime);
            let full = topo.customize(&g, &CostModel::TravelTime);
            assert_eq!(live.weights_epoch(), g.weights_epoch());
            assert_bit_identical(&live, &full, &format!("recustomize round {round}"));
        }
        // Metric switches in place, including to a custom vector and
        // back.
        let weights: Vec<f64> = (0..g.edge_count()).map(|i| 2.0 + (i % 5) as f64).collect();
        live.recustomize(&g, &CostModel::Custom(&weights));
        assert!(live.usable_for(&CostModel::Custom(&weights)));
        assert!(!live.usable_for(&CostModel::TravelTime));
        let full = topo.customize_weights(&g, &weights);
        assert_bit_identical(&live, &full, "recustomize to custom");
        live.recustomize(&g, &CostModel::Length);
        assert!(live.usable_for(&CostModel::Length));
        let full = topo.customize(&g, &CostModel::Length);
        assert_bit_identical(&live, &full, "recustomize to length");
    }

    #[test]
    fn cch_empty_graph() {
        let g = crate::builder::GraphBuilder::new().build();
        let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
        assert_eq!(topo.arc_count(), 0);
        let cch = topo.customize(&g, &CostModel::Length);
        assert!(!cch.usable_for(&CostModel::Length));
    }
}
