//! Best-response path oracles for the min-congestion solver.
//!
//! The Frank–Wolfe loop in [`crate::solver`] is oracle-driven: each
//! iteration asks "cheapest usable path per demanded pair" under the
//! current edge weights. Restricting the oracle restricts the LP —
//! [`CandidateOracle`] over an explicit candidate set gives the
//! semi-oblivious Stage-4 problem (Definition 5.1), [`AllPathsOracle`]
//! over every simple path gives offline OPT (Section 4), and the same
//! all-paths oracle with an edge mask ([`AllPathsOracle::masked`]) gives
//! the offline optimum of a failure-damaged topology. The mask is
//! *configuration*, not a separate oracle type: both instantiations run
//! the one [`ssor_graph::EdgeView`]-generic Dijkstra, so damaged and
//! intact solves cannot drift.
//!
//! # Parallelism and determinism
//!
//! Oracle batches are embarrassingly parallel — the paper's pipeline
//! samples and routes pairs independently (Definition 5.2), and a
//! Dijkstra run per source is pure computation. [`AllPathsOracle`]
//! groups queries by source and fans the per-source runs out over rayon
//! workers; results are merged back **in source-index order** and
//! interned serially, so the returned ids, costs, and the arena's
//! interning order are bit-identical to a serial sweep at any worker
//! count — the same discipline as `ssor_core::sample::alpha_sample`.
//! Small batches skip the fan-out entirely (the shim spawns threads per
//! call, which only amortizes over enough Dijkstra work); the cutoff
//! affects wall-clock only, never results.
//!
//! # Settle-set exit
//!
//! A source's Dijkstra stops as soon as the last of its demanded targets
//! is popped (the *settle set* of
//! [`ssor_graph::shortest_path::dijkstra_trees_csr_settle_batch`]); a
//! permutation demand asks one target per source, so a run settles about
//! half the graph instead of all of it. The answers are the full tree's,
//! bit for bit: a popped target's distance and parent chain are final,
//! and the pop order is fixed by the `(dist, vertex)` total order, so the
//! truncated run is a prefix of the full one. The path is walked up the
//! parent chain into reused buffers and interned from the slices
//! (`PathStore::intern_parts`), never built as an owned `Path`.
//!
//! # Unreachable pairs
//!
//! `best_paths` reports pairs with no usable path as `None` instead of
//! panicking: a failure sweep with a large knockout can legitimately
//! disconnect a demanded pair mid-trial. Under nonnegative finite
//! weights reachability is weight-independent, so a pair is `None`
//! either on every call or on none — the solver drops such pairs once,
//! at initialization, and reports their demand mass as *stranded* (see
//! `MinCongSolution::stranded`).

use crate::candidates::Candidates;
use ssor_graph::shortest_path::dijkstra_trees_csr_settle_batch;
use ssor_graph::{par_ordered_map, Csr, EdgeId, EdgeView, Graph, PathId, PathStore, VertexId};
use std::collections::BTreeMap;

/// Oracle answering "cheapest usable path per pair" under edge weights.
pub trait PathOracle {
    /// For each pair `(s, t)`, interns the minimum-weight usable path
    /// into `store` and returns `(id, weight)` under `w` (indexed by
    /// edge id), or `None` when the pair has no usable path at all (no
    /// candidate, or unreachable through usable edges). The result is
    /// index-aligned with `pairs`; pairs are distinct.
    fn best_paths(
        &mut self,
        pairs: &[(VertexId, VertexId)],
        w: &[f64],
        store: &mut PathStore,
    ) -> Vec<Option<(PathId, f64)>>;
}

/// Oracle over an explicit candidate set per pair (the path system).
///
/// Pairs without candidates (or with an empty candidate list) come back
/// `None`; the solver treats their demand as stranded.
#[derive(Debug)]
pub struct CandidateOracle<'a> {
    candidates: Candidates<'a>,
}

/// Below this many pairs the candidate scan stays serial: each pair only
/// costs `α` interned-path weight sums, so small batches are cheaper than
/// a thread spawn.
const CANDIDATE_PAR_MIN_PAIRS: usize = 1024;

impl<'a> CandidateOracle<'a> {
    /// Creates the oracle over a candidate view.
    pub fn new(candidates: Candidates<'a>) -> Self {
        CandidateOracle { candidates }
    }
}

impl PathOracle for CandidateOracle<'_> {
    fn best_paths(
        &mut self,
        pairs: &[(VertexId, VertexId)],
        w: &[f64],
        store: &mut PathStore,
    ) -> Vec<Option<(PathId, f64)>> {
        let ext = self.candidates.store();
        // Parallel cost scan (pure, per-pair independent)...
        let best = par_ordered_map(pairs, CANDIDATE_PAR_MIN_PAIRS, |&(s, t)| {
            let cands = self.candidates.ids(s, t)?;
            let mut best: Option<(PathId, f64)> = None;
            for &id in cands {
                let cost = ext.weight(id, w);
                if best.is_none_or(|(_, bc)| cost < bc) {
                    best = Some((id, cost));
                }
            }
            best
        });
        // ...then a serial, index-ordered intern so the solve's arena ids
        // never depend on the thread count.
        best.into_iter()
            .map(|found| {
                found.map(|(id, cost)| (store.intern_parts(ext.vertices(id), ext.edges(id)), cost))
            })
            .collect()
    }
}

/// Oracle over all simple paths via Dijkstra (column generation), with an
/// optional edge-usability mask as configuration.
///
/// Queries are grouped by source so each distinct source costs one
/// Dijkstra run over a CSR adjacency built once for the whole solve,
/// stopped as soon as that source's last demanded target is settled; the
/// per-source runs fan out over rayon workers and merge back in
/// deterministic source order (see the module docs). With a mask
/// ([`AllPathsOracle::masked`]) dead edges get infinite length in the
/// same sweep — edge ids and traversal order stay identical to the
/// unmasked oracle, no graph is rebuilt, and no ids shift.
#[derive(Debug)]
pub struct AllPathsOracle {
    csr: Csr,
    usable: Option<Vec<bool>>,
    /// Parent-chain walk buffers, reused across pairs and calls.
    verts: Vec<VertexId>,
    edges: Vec<EdgeId>,
}

impl AllPathsOracle {
    /// Creates an oracle over the whole (intact) graph.
    pub fn new(graph: &Graph) -> Self {
        AllPathsOracle {
            csr: graph.csr(),
            usable: None,
            verts: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Creates an oracle restricted to the edges marked usable — the
    /// combined mask a `ssor_graph::SubTopology` exports. The graph
    /// itself is untouched, so loads and routings keep base-graph edge
    /// ids.
    ///
    /// # Panics
    ///
    /// Panics if `usable.len() != graph.m()`.
    pub fn masked(graph: &Graph, usable: &[bool]) -> Self {
        assert_eq!(usable.len(), graph.m(), "one mask bit per edge required");
        AllPathsOracle {
            usable: Some(usable.to_vec()),
            ..AllPathsOracle::new(graph)
        }
    }
}

impl PathOracle for AllPathsOracle {
    fn best_paths(
        &mut self,
        pairs: &[(VertexId, VertexId)],
        w: &[f64],
        store: &mut PathStore,
    ) -> Vec<Option<(PathId, f64)>> {
        let mut by_source: BTreeMap<VertexId, Vec<usize>> = BTreeMap::new();
        for (i, &(s, _)) in pairs.iter().enumerate() {
            by_source.entry(s).or_default().push(i);
        }
        // Each source settles only its demanded targets. The batch helper
        // returns the runs in query (= ascending source) order — that
        // ordered collect IS the deterministic merge. A mask rides along
        // as a `dyn EdgeView` only when one exists; both arms run the one
        // generic Dijkstra core, so damaged and intact sweeps cannot drift.
        let queries: Vec<(VertexId, Vec<VertexId>)> = by_source
            .iter()
            .map(|(&s, idxs)| (s, idxs.iter().map(|&i| pairs[i].1).collect()))
            .collect();
        let view = self.usable.as_ref().map(|m| m as &(dyn EdgeView + Sync));
        let trees = dijkstra_trees_csr_settle_batch(&self.csr, &queries, &|e| w[e as usize], view);
        // Serial interning in source order, pair-index order within each
        // source — the arena's id assignment matches a serial sweep
        // exactly. Each path is walked target-to-source up the parent
        // chain into the reused buffers and interned from the slices.
        let mut out: Vec<Option<(PathId, f64)>> = vec![None; pairs.len()];
        for ((idxs, (_, targets)), tree) in by_source.values().zip(&queries).zip(&trees) {
            for (&i, &t) in idxs.iter().zip(targets) {
                let cost = tree.dist_to(t);
                if cost.is_infinite() {
                    continue;
                }
                self.verts.clear();
                self.edges.clear();
                self.verts.push(t);
                let mut cur = t;
                while let Some((p, e)) = tree.parent[cur as usize] {
                    self.edges.push(e);
                    self.verts.push(p);
                    cur = p;
                }
                self.verts.reverse();
                self.edges.reverse();
                out[i] = Some((store.intern_parts(&self.verts, &self.edges), cost));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    // Bitwise equality of the parallel batch oracle against a serial
    // per-source reference lives in `tests/properties.rs`
    // (`parallel_batch_oracle_matches_serial_reference`), which covers
    // random weighted multigraphs, masked and unmasked, with one shared
    // reference implementation. The tests here pin the oracle's own
    // small contracts.
    use super::*;
    use crate::candidates::CandidateSet;
    use ssor_graph::{generators, Path};

    #[test]
    fn masked_oracle_reports_unreachable_as_none() {
        let g = generators::ring(4);
        let usable = [false, true, false, true];
        let mut oracle = AllPathsOracle::masked(&g, &usable);
        let mut store = PathStore::new();
        let got = oracle.best_paths(&[(0, 2), (0, 3)], &vec![1.0; g.m()], &mut store);
        assert!(got[0].is_none(), "0 and 2 are separated by the mask");
        let (id, cost) = got[1].expect("0 -> 3 survives");
        assert_eq!(cost, 1.0);
        assert_eq!(store.materialize(id).vertices(), &[0, 3]);
    }

    #[test]
    fn candidate_oracle_reports_missing_pairs_as_none() {
        let g = generators::ring(6);
        let mut set = CandidateSet::new();
        set.insert(&Path::from_vertices(&g, &[0, 1, 2, 3]).unwrap());
        let mut oracle = CandidateOracle::new(set.as_candidates());
        let mut store = PathStore::new();
        let got = oracle.best_paths(&[(0, 3), (1, 4)], &vec![1.0; g.m()], &mut store);
        assert!(got[0].is_some());
        assert!(got[1].is_none(), "no candidates for (1, 4)");
    }

    #[test]
    fn candidate_oracle_picks_cheapest_candidate() {
        let g = generators::ring(6);
        let mut set = CandidateSet::new();
        set.insert(&Path::from_vertices(&g, &[0, 1, 2, 3]).unwrap());
        set.insert(&Path::from_vertices(&g, &[0, 5, 4, 3]).unwrap());
        let mut oracle = CandidateOracle::new(set.as_candidates());
        let mut store = PathStore::new();
        // Make the clockwise side expensive.
        let mut w = vec![1.0; g.m()];
        w[0] = 10.0;
        let got = oracle.best_paths(&[(0, 3)], &w, &mut store);
        let (id, cost) = got[0].unwrap();
        assert_eq!(store.materialize(id).vertices(), &[0, 5, 4, 3]);
        assert_eq!(cost, 3.0);
    }

    #[test]
    fn masked_oracle_with_full_mask_matches_unmasked() {
        let g = generators::grid(3, 4);
        let full = vec![true; g.m()];
        let pairs: Vec<(VertexId, VertexId)> =
            vec![(0, 11), (4, 7), (2, 9), (11, 0), (7, 4), (3, 8)];
        let w: Vec<f64> = (0..g.m()).map(|e| 1.0 + (e % 3) as f64).collect();
        let mut open = AllPathsOracle::new(&g);
        let mut masked = AllPathsOracle::masked(&g, &full);
        let mut store_a = PathStore::new();
        let mut store_b = PathStore::new();
        assert_eq!(
            open.best_paths(&pairs, &w, &mut store_a),
            masked.best_paths(&pairs, &w, &mut store_b),
        );
    }
}
