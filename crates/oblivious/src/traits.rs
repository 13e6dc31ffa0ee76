//! The oblivious-routing abstraction (Section 4 of the paper).
//!
//! An oblivious routing `R = {R(s, t)}` fixes, independently of the demand,
//! a distribution over simple `(s, t)`-paths for every pair. The paper's
//! semi-oblivious construction (Definition 5.2) only ever *samples* from
//! `R(s, t)`, so that is the one required method; everything else
//! (materializing distributions, exact congestion) has default
//! implementations that concrete routings can specialize.

use rand::RngCore;
use ssor_flow::{Demand, Routing};
use ssor_graph::{EdgeId, EdgeLoads, Graph, Path, PathStore, VertexId};

/// An oblivious routing over a fixed graph.
///
/// Implementations must guarantee that [`sample_path`](Self::sample_path)
/// returns a *simple* path from `s` to `t`, and that
/// [`path_distribution`](Self::path_distribution) returns the exact (finite)
/// distribution that `sample_path` draws from.
pub trait ObliviousRouting {
    /// The graph this routing is defined over.
    fn graph(&self) -> &Graph;

    /// Draws one path from `R(s, t)`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `s == t` or vertices are out of range.
    fn sample_path(&self, s: VertexId, t: VertexId, rng: &mut dyn RngCore) -> Path;

    /// The full distribution `R(s, t)` as `(path, probability)` pairs with
    /// probabilities summing to 1. Identical paths must be merged.
    fn path_distribution(&self, s: VertexId, t: VertexId) -> Vec<(Path, f64)>;

    /// Marginal edge probabilities `P[e in R(s, t)]`, sparse.
    ///
    /// The default sort-merges the distribution's `(edge, weight)` pairs
    /// — `O(k log k)` in the support's total edge count `k`, with no
    /// hashing and no `O(m)` dense pass per pair — and returns them in
    /// edge-id order; routings with huge supports (e.g. ECMP) can
    /// override with closed-form marginals.
    fn edge_marginals(&self, s: VertexId, t: VertexId) -> Vec<(EdgeId, f64)> {
        let mut acc: Vec<(EdgeId, f64)> = Vec::new();
        for (p, w) in self.path_distribution(s, t) {
            acc.extend(p.edges().iter().map(|&e| (e, w)));
        }
        // Stable sort: entries sharing an edge keep path_distribution
        // order, so the per-edge f64 summation order (and with it the
        // last bit of every marginal) is pinned across toolchains.
        acc.sort_by_key(|&(e, _)| e);
        let mut out: Vec<(EdgeId, f64)> = Vec::new();
        for (e, w) in acc {
            match out.last_mut() {
                Some(last) if last.0 == e => last.1 += w,
                _ => out.push((e, w)),
            }
        }
        out
    }

    /// Materializes `R` on the support of `d` as a [`Routing`].
    fn routing_for(&self, d: &Demand) -> Routing {
        let mut r = Routing::new();
        for (s, t) in d.support() {
            r.set_distribution(s, t, self.path_distribution(s, t));
        }
        r
    }

    /// Exact `cong(R, d)` (Section 4), computed from edge marginals.
    fn congestion(&self, d: &Demand) -> f64 {
        let mut load = EdgeLoads::for_graph(self.graph());
        for ((s, t), w) in d.iter() {
            for (e, p) in self.edge_marginals(s, t) {
                load.add(e, w * p);
            }
        }
        load.max()
    }

    /// `dil(R, d)`: maximum hop length in the supports used by `d`.
    fn dilation(&self, d: &Demand) -> usize {
        let mut best = 0;
        for ((s, t), _) in d.iter() {
            for (p, w) in self.path_distribution(s, t) {
                if w > 0.0 {
                    best = best.max(p.hop());
                }
            }
        }
        best
    }
}

/// Accumulates weighted path draws into an exact, deduplicated
/// distribution — the one flow-accumulation loop shared by every template
/// whose `R(s, t)` is "enumerate deterministic sub-routings and merge
/// identical paths" (Räcke tree mixtures, Valiant intermediates,
/// hop-constrained landmarks).
///
/// Identical paths are collapsed through a [`PathStore`] arena: each
/// `add` interns once (hash + id compare) and accumulates into a dense
/// per-id weight table, replacing the former per-template
/// `HashMap<Vec<u32>, (Path, f64)>` accumulators. [`finish`] materializes
/// the merged support sorted by edge sequence, the canonical order
/// `path_distribution` implementations promise.
///
/// [`finish`]: DistributionBuilder::finish
///
/// # Examples
///
/// ```
/// use ssor_graph::{Graph, Path};
/// use ssor_oblivious::DistributionBuilder;
///
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
/// let direct = Path::from_vertices(&g, &[0, 2]).unwrap();
/// let detour = Path::from_vertices(&g, &[0, 1, 2]).unwrap();
/// let mut acc = DistributionBuilder::new();
/// acc.add(&direct, 0.25);
/// acc.add(&detour, 0.5);
/// acc.add(&direct, 0.25); // merges with the first draw
/// let dist = acc.finish();
/// assert_eq!(dist.len(), 2);
/// assert_eq!(dist.iter().map(|(_, w)| w).sum::<f64>(), 1.0);
/// ```
#[derive(Debug, Default)]
pub struct DistributionBuilder {
    store: PathStore,
    weights: Vec<f64>,
}

impl DistributionBuilder {
    /// An empty accumulator.
    pub fn new() -> Self {
        DistributionBuilder::default()
    }

    /// Adds one draw of `path` with probability mass `w` (merging with
    /// any previous draws of the same path).
    pub fn add(&mut self, path: &Path, w: f64) {
        let id = self.store.intern(path);
        if id.index() == self.weights.len() {
            self.weights.push(w);
        } else {
            self.weights[id.index()] += w;
        }
    }

    /// The merged `(path, probability)` support, sorted by edge sequence.
    pub fn finish(self) -> Vec<(Path, f64)> {
        let mut out: Vec<(Path, f64)> = self
            .store
            .ids()
            .zip(self.weights)
            .map(|(id, w)| (self.store.materialize(id), w))
            .collect();
        out.sort_by(|a, b| a.0.edges().cmp(b.0.edges()));
        out
    }
}

/// Checks the structural contract of an implementation on the given pairs:
/// simple valid paths with correct endpoints, probabilities summing to 1.
/// Intended for tests.
pub fn validate_oblivious_routing<O: ObliviousRouting + ?Sized>(
    routing: &O,
    pairs: &[(VertexId, VertexId)],
) -> Result<(), String> {
    let g = routing.graph();
    for &(s, t) in pairs {
        let dist = routing.path_distribution(s, t);
        if dist.is_empty() {
            return Err(format!("empty distribution for ({s}, {t})"));
        }
        let total: f64 = dist.iter().map(|(_, w)| w).sum();
        if (total - 1.0).abs() > 1e-6 {
            return Err(format!("({s}, {t}): probabilities sum to {total}"));
        }
        let mut seen = std::collections::HashSet::new();
        for (p, w) in &dist {
            if *w <= 0.0 {
                return Err(format!("({s}, {t}): nonpositive weight {w}"));
            }
            if p.source() != s || p.target() != t {
                return Err(format!("({s}, {t}): path endpoints {:?}", p));
            }
            if !p.is_valid(g) {
                return Err(format!("({s}, {t}): invalid path {:?}", p));
            }
            if !p.is_simple() {
                return Err(format!("({s}, {t}): non-simple path {:?}", p));
            }
            if !seen.insert(p.edges().to_vec()) {
                return Err(format!("({s}, {t}): duplicate path {:?}", p));
            }
        }
    }
    Ok(())
}
