//! Shortest paths: BFS (hop metric), Dijkstra (arbitrary edge lengths), and
//! single-source trees reusable across many queries.
//!
//! The tree builders share one implementation generic over [`Adjacency`]
//! and are exported both over [`Graph`] directly ([`bfs_tree`],
//! [`dijkstra_tree`]) and over a flattened [`Csr`] view ([`bfs_tree_csr`],
//! [`dijkstra_tree_csr`]) — callers that sweep many sources over one graph
//! (all-pairs metrics, per-source BFS baselines, the offline-OPT
//! column-generation oracle) build the CSR once and amortize it. Both
//! variants traverse in the identical deterministic order.
//!
//! The Dijkstra core is additionally generic over an [`EdgeView`]
//! restricting which edges may be traversed: [`dijkstra_tree_csr`] is the
//! [`FullTopology`] instantiation, [`dijkstra_tree_csr_view`] accepts any
//! view (e.g. the mask a `SubTopology` exports) — one implementation, so
//! damaged-topology solves cannot drift from intact ones.
//!
//! Multi-source sweeps (all-pairs metrics, per-source baselines, the
//! batch oracle) should use the *batch* helpers — [`bfs_trees_csr_batch`],
//! [`dijkstra_trees_csr_batch`] and [`dijkstra_trees_csr_settle_batch`] —
//! which fan the per-source trees out over rayon workers and return them
//! in source-index order, so results are bit-identical to a serial sweep
//! at any thread count. Small batches stay serial (the cutoff moves
//! wall-clock only, never bits).
//!
//! # Settle sets
//!
//! A caller that needs a few targets per source, not the whole tree,
//! passes them as a *settle set* ([`dijkstra_trees_csr_settle_batch`]):
//! the one Dijkstra core returns as soon as the last target is popped
//! from the heap. The bits at the targets cannot change. A popped
//! vertex's distance is final and so is its parent chain, whose vertices
//! were all popped before it; and the pop sequence is fixed by the
//! `(dist, vertex)` total order, so the early-exit run is a prefix of the
//! full run. Unreachable targets are never popped: a settle set holding
//! one drains the heap and the target comes back at `f64::INFINITY`. The
//! offline-OPT oracle settles each source's demanded targets — one per
//! source for a permutation — instead of the whole graph.

use crate::csr::{Adjacency, Csr, EdgeView, FullTopology};
use crate::graph::{EdgeId, Graph, VertexId};
use crate::path::Path;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

/// Single-source shortest-path tree: for each vertex, the distance from the
/// source and the (parent vertex, edge) used to reach it.
///
/// Distances are hop counts for [`bfs_tree`] or length sums for
/// [`dijkstra_tree`]; unreachable vertices have `dist == f64::INFINITY`.
#[derive(Debug, Clone)]
pub struct SpTree {
    /// Source vertex of the tree.
    pub source: VertexId,
    /// Distance from source per vertex.
    pub dist: Vec<f64>,
    /// `(parent vertex, connecting edge)` per vertex; `None` at the source
    /// and at unreachable vertices.
    pub parent: Vec<Option<(VertexId, EdgeId)>>,
}

impl SpTree {
    /// Extracts the tree path from the source to `t`, or `None` if `t` is
    /// unreachable.
    pub fn path_to(&self, g: &Graph, t: VertexId) -> Option<Path> {
        if self.dist[t as usize].is_infinite() {
            return None;
        }
        let mut edges_rev: Vec<EdgeId> = Vec::new();
        let mut cur = t;
        while cur != self.source {
            let (p, e) = self.parent[cur as usize]?;
            edges_rev.push(e);
            cur = p;
        }
        edges_rev.reverse();
        Path::from_edges(g, self.source, &edges_rev)
    }

    /// Distance to `t` (`f64::INFINITY` if unreachable).
    pub fn dist_to(&self, t: VertexId) -> f64 {
        self.dist[t as usize]
    }
}

/// Generic BFS core, instantiated for [`Graph`] and [`Csr`] below.
///
/// Kept private and wrapped in concrete functions on purpose: the
/// monomorphic wrappers are compiled (and fully optimized) inside this
/// crate, which measures ~20% faster on the Dijkstra-heavy oracles than
/// letting downstream crates instantiate the generic from exported MIR.
fn bfs_tree_in<A: Adjacency + ?Sized>(g: &A, s: VertexId) -> SpTree {
    let n = g.n();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![None; n];
    let mut q = VecDeque::new();
    dist[s as usize] = 0.0;
    q.push_back(s);
    while let Some(v) = q.pop_front() {
        for a in g.arcs(v) {
            if dist[a.to as usize].is_infinite() {
                dist[a.to as usize] = dist[v as usize] + 1.0;
                parent[a.to as usize] = Some((v, a.edge));
                q.push_back(a.to);
            }
        }
    }
    SpTree {
        source: s,
        dist,
        parent,
    }
}

/// Breadth-first shortest-path tree from `s` (each edge has length 1).
/// Ties are broken toward lower edge ids, deterministically.
pub fn bfs_tree(g: &Graph, s: VertexId) -> SpTree {
    bfs_tree_in(g, s)
}

/// [`bfs_tree`] over a pre-built [`Csr`] view (identical traversal order);
/// build the CSR once when sweeping many sources.
pub fn bfs_tree_csr(g: &Csr, s: VertexId) -> SpTree {
    bfs_tree_in(g, s)
}

/// Shortest hop-path between `s` and `t`, or `None` if disconnected.
pub fn bfs_path(g: &Graph, s: VertexId, t: VertexId) -> Option<Path> {
    if s == t {
        return Some(Path::trivial(s));
    }
    bfs_tree(g, s).path_to(g, t)
}

/// Hop distance between `s` and `t` (`usize::MAX` if disconnected).
pub fn hop_distance(g: &Graph, s: VertexId, t: VertexId) -> usize {
    let d = bfs_tree(g, s).dist[t as usize];
    if d.is_infinite() {
        usize::MAX
    } else {
        d as usize
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    vertex: VertexId,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance; tie-break on vertex id for determinism.
        // `total_cmp`, not `partial_cmp().unwrap_or(Equal)`: treating a
        // NaN distance as equal to everything makes the heap order (and
        // thus the tree) depend on push order instead of on values.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.vertex.cmp(&self.vertex))
    }
}

/// The single Dijkstra-tree implementation of the workspace, generic over
/// the adjacency representation *and* an [`EdgeView`] restricting which
/// edges may be traversed (see [`bfs_tree_in`] for why it stays private
/// behind monomorphic wrappers).
///
/// Unusable edges are treated as infinitely long: a relaxation through
/// one can never improve a distance, so they are effectively absent while
/// edge ids, traversal order, and tie-breaking stay identical to the
/// unmasked sweep. Vertices cut off by the view end with
/// `dist == f64::INFINITY`, exactly like genuinely unreachable ones.
///
/// With a settle set (`settle == Some(targets)`) the sweep returns as
/// soon as the last target is popped; `None` settles every reachable
/// vertex. The module docs (*Settle sets*) give why the targets' bits
/// match the full sweep's.
fn dijkstra_tree_in<A: Adjacency + ?Sized, V: EdgeView + ?Sized>(
    g: &A,
    s: VertexId,
    len: &dyn Fn(EdgeId) -> f64,
    view: &V,
    settle: Option<&[VertexId]>,
) -> SpTree {
    let n = g.n();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![None; n];
    // `pending[v]`: `v` is a target not popped yet; `left` counts them.
    // Without a settle set `pending` stays empty and `left` never drops.
    let mut pending = Vec::new();
    let mut left = usize::MAX;
    if let Some(targets) = settle {
        pending = vec![false; n];
        left = 0;
        for &t in targets {
            if let Some(p) = pending.get_mut(t as usize).filter(|p| !**p) {
                *p = true;
                left += 1;
            }
        }
    }
    let mut heap = BinaryHeap::new();
    dist[s as usize] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        vertex: s,
    });
    while left > 0 {
        let Some(HeapEntry { dist: d, vertex: v }) = heap.pop() else {
            break;
        };
        if d > dist[v as usize] {
            continue;
        }
        if let Some(p) = pending.get_mut(v as usize).filter(|p| **p) {
            *p = false;
            left -= 1;
            if left == 0 {
                break;
            }
        }
        for a in g.arcs(v) {
            let w = if view.usable(a.edge) {
                len(a.edge)
            } else {
                f64::INFINITY
            };
            // Sentinel at the source: a negative length breaks Dijkstra's
            // invariant outright, and a NaN (`w >= 0.0` is false for NaN)
            // would otherwise make the edge silently unusable — fail here,
            // naming the edge, not three layers downstream.
            debug_assert!(w >= 0.0, "negative or NaN length {w} on edge {}", a.edge);
            let nd = d + w;
            if nd < dist[a.to as usize] {
                dist[a.to as usize] = nd;
                parent[a.to as usize] = Some((v, a.edge));
                heap.push(HeapEntry {
                    dist: nd,
                    vertex: a.to,
                });
            }
        }
    }
    SpTree {
        source: s,
        dist,
        parent,
    }
}

/// Dijkstra shortest-path tree from `s` under per-edge lengths `len`.
///
/// # Panics
///
/// Panics (in debug builds) if a negative length is encountered.
pub fn dijkstra_tree(g: &Graph, s: VertexId, len: &dyn Fn(EdgeId) -> f64) -> SpTree {
    dijkstra_tree_in(g, s, len, &FullTopology, None)
}

/// [`dijkstra_tree`] over a pre-built [`Csr`] view (identical traversal
/// order); build the CSR once when running many single-source solves —
/// the offline-OPT oracle runs one per source per Frank–Wolfe iteration.
pub fn dijkstra_tree_csr(g: &Csr, s: VertexId, len: &dyn Fn(EdgeId) -> f64) -> SpTree {
    dijkstra_tree_in(g, s, len, &FullTopology, None)
}

/// [`dijkstra_tree_csr`] restricted to the edges an [`EdgeView`] marks
/// usable — the traversal failure scenarios run against a
/// [`crate::SubTopology`] mask (`&sub.usable_edges()[..]`) without
/// rebuilding a graph. With [`FullTopology`] this is exactly
/// [`dijkstra_tree_csr`]; both wrap the one generic Dijkstra core, so
/// every view traverses in the identical deterministic order over
/// identical edge ids.
pub fn dijkstra_tree_csr_view(
    g: &Csr,
    s: VertexId,
    len: &dyn Fn(EdgeId) -> f64,
    view: &dyn EdgeView,
) -> SpTree {
    dijkstra_tree_in(g, s, len, view, None)
}

/// Below this many sources a batch tree sweep stays serial: a single
/// tree on the experiment-scale graphs costs a few microseconds, while
/// the vendored rayon shim spawns threads per call. The cutoff affects
/// wall-clock only — results are index-ordered either way.
const BATCH_PAR_MIN_SOURCES: usize = 4;

/// Maps `sources` through `tree` via [`crate::par_ordered_map`]: output
/// in source-index order, serial below the cutoff.
fn batch_trees(sources: &[VertexId], tree: impl Fn(VertexId) -> SpTree + Sync) -> Vec<SpTree> {
    crate::par_ordered_map(sources, BATCH_PAR_MIN_SOURCES, |&s| tree(s))
}

/// One [`bfs_tree_csr`] per source, fanned out over rayon workers and
/// returned in source-index order — bit-identical to a serial sweep at
/// any thread count. The per-source tree builders (`ShortestPathRouting`,
/// ECMP, hop-constrained landmarks) sweep through this.
pub fn bfs_trees_csr_batch(g: &Csr, sources: &[VertexId]) -> Vec<SpTree> {
    batch_trees(sources, |s| bfs_tree_in(g, s))
}

/// One [`dijkstra_tree_csr`] per source, fanned out over rayon workers
/// and returned in source-index order — bit-identical to a serial sweep
/// at any thread count. The all-pairs template metric and the solver's
/// batch oracle are built on this.
pub fn dijkstra_trees_csr_batch(
    g: &Csr,
    sources: &[VertexId],
    len: &(dyn Fn(EdgeId) -> f64 + Sync),
) -> Vec<SpTree> {
    batch_trees(sources, |s| {
        dijkstra_tree_in(g, s, len, &FullTopology, None)
    })
}

/// One Dijkstra per `(source, targets)` query, each stopped as soon as
/// its last target is settled, optionally restricted to the edges an
/// [`EdgeView`] marks usable; fanned out like [`dijkstra_trees_csr_batch`]
/// and returned in query order. The offline-OPT oracle runs this once per
/// Frank–Wolfe iteration with each source's demanded targets.
///
/// For every listed target, `dist` and the whole parent chain are bitwise
/// what the full tree ([`dijkstra_tree_csr`] / [`dijkstra_tree_csr_view`])
/// holds, and an unreachable target has `dist == f64::INFINITY` (see the
/// module docs on settle sets). Other vertices may hold tentative distances:
/// read a returned tree only at its targets. `view == None` is the
/// statically dispatched [`FullTopology`] sweep — no per-edge vtable
/// call on the solver's hottest loop.
pub fn dijkstra_trees_csr_settle_batch(
    g: &Csr,
    queries: &[(VertexId, Vec<VertexId>)],
    len: &(dyn Fn(EdgeId) -> f64 + Sync),
    view: Option<&(dyn EdgeView + Sync)>,
) -> Vec<SpTree> {
    crate::par_ordered_map(queries, BATCH_PAR_MIN_SOURCES, |(s, targets)| match view {
        None => dijkstra_tree_in(g, *s, len, &FullTopology, Some(targets)),
        Some(view) => dijkstra_tree_in(g, *s, len, view, Some(targets)),
    })
}

/// Shortest path between `s` and `t` under per-edge lengths.
pub fn dijkstra_path(
    g: &Graph,
    s: VertexId,
    t: VertexId,
    len: &dyn Fn(EdgeId) -> f64,
) -> Option<Path> {
    if s == t {
        return Some(Path::trivial(s));
    }
    dijkstra_tree(g, s, len).path_to(g, t)
}

/// Eccentricity-based diameter (exact, all-sources BFS). Intended for the
/// modest graph sizes of the experiments; `O(n * m)`.
pub fn diameter(g: &Graph) -> usize {
    let mut best = 0usize;
    for s in g.vertices() {
        let t = bfs_tree(g, s);
        for v in g.vertices() {
            let d = t.dist[v as usize];
            if d.is_finite() {
                best = best.max(d as usize);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_on_line() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let p = bfs_path(&g, 0, 3).unwrap();
        assert_eq!(p.hop(), 3);
        assert_eq!(hop_distance(&g, 0, 3), 3);
    }

    #[test]
    fn bfs_trivial_when_equal() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        assert_eq!(bfs_path(&g, 1, 1).unwrap().hop(), 0);
    }

    #[test]
    fn bfs_unreachable() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        assert!(bfs_path(&g, 0, 2).is_none());
        assert_eq!(hop_distance(&g, 0, 2), usize::MAX);
    }

    #[test]
    fn dijkstra_prefers_light_detour() {
        // 0-1 has length 10; 0-2-1 has total length 2.
        let g = Graph::from_edges(3, &[(0, 1), (0, 2), (2, 1)]);
        let lens = [10.0, 1.0, 1.0];
        let p = dijkstra_path(&g, 0, 1, &|e| lens[e as usize]).unwrap();
        assert_eq!(p.vertices(), &[0, 2, 1]);
    }

    #[test]
    fn dijkstra_matches_bfs_with_unit_lengths() {
        let g = generators::hypercube(4);
        for (s, t) in [(0u32, 15u32), (3, 12), (5, 10)] {
            let b = bfs_path(&g, s, t).unwrap();
            let d = dijkstra_path(&g, s, t, &|_| 1.0).unwrap();
            assert_eq!(b.hop(), d.hop());
        }
    }

    #[test]
    fn dijkstra_on_parallel_edges_picks_cheapest() {
        let mut g = Graph::new(2);
        let e0 = g.add_edge(0, 1);
        let e1 = g.add_edge(0, 1);
        let len = move |e: EdgeId| if e == e0 { 5.0 } else { 1.0 };
        let p = dijkstra_path(&g, 0, 1, &len).unwrap();
        assert_eq!(p.edges(), &[e1]);
    }

    #[test]
    fn hypercube_distance_is_hamming() {
        let g = generators::hypercube(5);
        for (s, t) in [(0u32, 31u32), (1, 2), (7, 24)] {
            assert_eq!(hop_distance(&g, s, t), (s ^ t).count_ones() as usize);
        }
    }

    #[test]
    fn diameter_of_families() {
        assert_eq!(diameter(&generators::hypercube(4)), 4);
        assert_eq!(diameter(&generators::ring(8)), 4);
        assert_eq!(diameter(&generators::complete(5)), 1);
        assert_eq!(diameter(&generators::grid(3, 3)), 4);
    }

    #[test]
    fn csr_trees_match_graph_trees_exactly() {
        let g = generators::grid(4, 5);
        let csr = g.csr();
        let lens: Vec<f64> = (0..g.m()).map(|e| 1.0 + (e % 3) as f64).collect();
        for s in g.vertices() {
            let (a, b) = (bfs_tree(&g, s), bfs_tree_csr(&csr, s));
            assert_eq!(a.dist, b.dist);
            assert_eq!(a.parent, b.parent);
            let (a, b) = (
                dijkstra_tree(&g, s, &|e| lens[e as usize]),
                dijkstra_tree_csr(&csr, s, &|e| lens[e as usize]),
            );
            assert_eq!(a.dist, b.dist);
            assert_eq!(a.parent, b.parent);
        }
    }

    #[test]
    fn full_view_matches_unmasked_exactly() {
        let g = generators::grid(4, 5);
        let csr = g.csr();
        let lens: Vec<f64> = (0..g.m()).map(|e| 1.0 + (e % 5) as f64 * 0.5).collect();
        let all = vec![true; g.m()];
        for s in g.vertices() {
            let a = dijkstra_tree_csr(&csr, s, &|e| lens[e as usize]);
            let b = dijkstra_tree_csr_view(&csr, s, &|e| lens[e as usize], &FullTopology);
            let c = dijkstra_tree_csr_view(&csr, s, &|e| lens[e as usize], &all);
            assert_eq!(a.dist, b.dist);
            assert_eq!(a.parent, b.parent);
            assert_eq!(a.dist, c.dist);
            assert_eq!(a.parent, c.parent);
        }
    }

    #[test]
    fn masked_view_matches_rebuilt_graph() {
        // Masking edges must yield the same distances as physically
        // removing them (on the surviving edge set).
        let g = generators::grid(4, 4);
        let csr = g.csr();
        let mut usable = vec![true; g.m()];
        for e in [1usize, 5, 10] {
            usable[e] = false;
        }
        let kept: Vec<(VertexId, VertexId)> = g
            .edges()
            .filter(|(e, _)| usable[*e as usize])
            .map(|(_, uv)| uv)
            .collect();
        let rebuilt = Graph::from_edges(g.n(), &kept);
        for s in g.vertices() {
            let masked = dijkstra_tree_csr_view(&csr, s, &|_| 1.0, &usable);
            let reference = dijkstra_tree(&rebuilt, s, &|_| 1.0);
            assert_eq!(masked.dist, reference.dist, "source {s}");
        }
    }

    #[test]
    fn masked_view_cuts_off_unreachable_vertices() {
        // Ring of 4 with two opposite edges dead: 0 and 2 are separated.
        let g = generators::ring(4);
        let csr = g.csr();
        let usable = vec![false, true, false, true];
        let t = dijkstra_tree_csr_view(&csr, 0, &|_| 1.0, &usable);
        assert!(t.dist[2].is_infinite());
        assert!(t.path_to(&g, 2).is_none());
        assert_eq!(t.dist[3], 1.0);
    }

    #[test]
    fn batch_trees_match_per_source_calls() {
        let g = generators::grid(4, 5);
        let csr = g.csr();
        let lens: Vec<f64> = (0..g.m()).map(|e| 1.0 + (e % 4) as f64 * 0.25).collect();
        let sources: Vec<VertexId> = g.vertices().collect();
        let bfs_batch = bfs_trees_csr_batch(&csr, &sources);
        let dij_batch = dijkstra_trees_csr_batch(&csr, &sources, &|e| lens[e as usize]);
        for (i, &s) in sources.iter().enumerate() {
            let b = bfs_tree_csr(&csr, s);
            assert_eq!(bfs_batch[i].dist, b.dist);
            assert_eq!(bfs_batch[i].parent, b.parent);
            let d = dijkstra_tree_csr(&csr, s, &|e| lens[e as usize]);
            assert_eq!(dij_batch[i].dist, d.dist);
            assert_eq!(dij_batch[i].parent, d.parent);
        }
    }

    /// The settle-set sweep must agree with the full tree at every
    /// target and along every target's parent chain, masked or not.
    fn assert_settled_like_full(full: &SpTree, settled: &SpTree, targets: &[VertexId]) {
        for &t in targets {
            assert_eq!(full.dist_to(t).to_bits(), settled.dist_to(t).to_bits());
            let mut cur = Some(t);
            while let Some(v) = cur {
                let link = full.parent.get(v as usize).copied().flatten();
                assert_eq!(settled.parent.get(v as usize).copied().flatten(), link);
                cur = link.map(|(p, _)| p);
            }
        }
    }

    #[test]
    fn settle_batch_matches_full_trees_at_targets() {
        let g = generators::grid(4, 4);
        let csr = g.csr();
        let len = |e: EdgeId| 1.0 + (e % 4) as f64 * 0.25;
        let usable: Vec<bool> = (0..g.m()).map(|e| ![0, 7, 13].contains(&e)).collect();
        let queries: Vec<(VertexId, Vec<VertexId>)> = g
            .vertices()
            .map(|s| (s, vec![(s + 5) % 16, (s * 7 + 3) % 16, s]))
            .collect();
        let open = dijkstra_trees_csr_settle_batch(&csr, &queries, &len, None);
        let masked = dijkstra_trees_csr_settle_batch(&csr, &queries, &len, Some(&usable));
        for ((s, targets), (o, m)) in queries.iter().zip(open.iter().zip(&masked)) {
            assert_settled_like_full(&dijkstra_tree_csr(&csr, *s, &len), o, targets);
            let full = dijkstra_tree_csr_view(&csr, *s, &len, &usable);
            assert_settled_like_full(&full, m, targets);
        }
    }

    #[test]
    fn settle_set_stops_early_and_drains_for_unreachable_targets() {
        // Line 0-1-2-3-4 plus an isolated vertex 5.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let csr = g.csr();
        let near = dijkstra_trees_csr_settle_batch(&csr, &[(0, vec![1])], &|_| 1.0, None);
        assert_eq!(near.first().map(|t| t.dist_to(1)), Some(1.0));
        assert!(
            near.first().is_some_and(|t| t.dist_to(3).is_infinite()),
            "stopped before 3"
        );
        let far = dijkstra_trees_csr_settle_batch(&csr, &[(0, vec![1, 5])], &|_| 1.0, None);
        assert!(far.first().is_some_and(|t| t.dist_to(5).is_infinite()));
        assert_eq!(
            far.first().map(|t| t.dist_to(4)),
            Some(4.0),
            "the heap drained"
        );
    }

    #[test]
    fn sp_tree_paths_are_valid_and_simple() {
        let g = generators::grid(4, 5);
        let t = bfs_tree(&g, 0);
        for v in g.vertices() {
            let p = t.path_to(&g, v).unwrap();
            assert!(p.is_valid(&g));
            assert!(p.is_simple());
            assert_eq!(p.hop() as f64, t.dist[v as usize]);
        }
    }
}
