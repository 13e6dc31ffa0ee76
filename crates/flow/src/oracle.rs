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
//! Dijkstra tree per source is pure computation. [`AllPathsOracle`]
//! groups queries by source and fans the per-source trees out over rayon
//! workers; results are merged back **in source-index order** and
//! interned serially, so the returned ids, costs, and the arena's
//! interning order are bit-identical to a serial sweep at any worker
//! count — the same discipline as `ssor_core::sample::alpha_sample`.
//! Small batches skip the fan-out entirely (the shim spawns threads per
//! call, which only amortizes over enough Dijkstra work); the cutoff
//! affects wall-clock only, never results.
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
use ssor_graph::shortest_path::{dijkstra_trees_csr_batch, dijkstra_trees_csr_view_batch, SpTree};
use ssor_graph::{par_ordered_map, Csr, Graph, PathId, PathStore, VertexId};
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
/// Dijkstra run over a CSR adjacency built once for the whole solve; the
/// per-source trees fan out over rayon workers and merge back in
/// deterministic source order (see the module docs). With a mask
/// ([`AllPathsOracle::masked`]) dead edges get infinite length in the
/// same sweep — edge ids and traversal order stay identical to the
/// unmasked oracle, no graph is rebuilt, and no ids shift.
#[derive(Debug)]
pub struct AllPathsOracle<'a> {
    graph: &'a Graph,
    csr: Csr,
    usable: Option<Vec<bool>>,
}

impl<'a> AllPathsOracle<'a> {
    /// Creates an oracle over the whole (intact) graph.
    pub fn new(graph: &'a Graph) -> Self {
        AllPathsOracle {
            graph,
            csr: graph.csr(),
            usable: None,
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
    pub fn masked(graph: &'a Graph, usable: &[bool]) -> Self {
        assert_eq!(usable.len(), graph.m(), "one mask bit per edge required");
        AllPathsOracle {
            graph,
            csr: graph.csr(),
            usable: Some(usable.to_vec()),
        }
    }
}

impl PathOracle for AllPathsOracle<'_> {
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
        let sources: Vec<(VertexId, Vec<usize>)> = by_source.into_iter().collect();
        // Fan the per-source trees out over the shared batch helpers in
        // `ssor_graph::shortest_path`, which return them in source-index
        // order — that ordered collect IS the deterministic merge. The
        // unmasked arm stays on the statically-dispatched batch
        // (monomorphized `FullTopology`, no per-edge vtable call on the
        // solver's hottest loop); a mask rides along as a `dyn EdgeView`
        // only when one actually exists. Both wrap the one generic tree
        // core, so damaged and intact sweeps cannot drift.
        let srcs: Vec<VertexId> = sources.iter().map(|&(s, _)| s).collect();
        let trees: Vec<SpTree> = match &self.usable {
            None => dijkstra_trees_csr_batch(&self.csr, &srcs, &|e| w[e as usize]),
            Some(mask) => dijkstra_trees_csr_view_batch(&self.csr, &srcs, &|e| w[e as usize], mask),
        };
        // Serial path extraction + interning in source order, pair-index
        // order within each source — the arena's id assignment matches a
        // serial sweep exactly.
        let mut out: Vec<Option<(PathId, f64)>> = vec![None; pairs.len()];
        for ((_, idxs), tree) in sources.iter().zip(trees.iter()) {
            for &i in idxs {
                let t = pairs[i].1;
                out[i] = tree
                    .path_to(self.graph, t)
                    .map(|p| (store.intern(&p), tree.dist_to(t)));
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
