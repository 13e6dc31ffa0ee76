//! Fence for the offline-OPT kernel: the all-paths oracle settles each
//! source's Dijkstra only as far as its last demanded target and interns
//! paths straight from the parent chain, and the Frank–Wolfe loop runs
//! its line search in place. Neither may move a bit.
//!
//! * The oracle is checked against a reference that builds the *full*
//!   shortest-path tree per source (`dijkstra_tree_csr` /
//!   `dijkstra_tree_csr_view`) and extracts paths with `SpTree::path_to`,
//!   on hypercube-6, grid 8×8 and Waxman-64 with seeded random weights,
//!   masked and unmasked, with one and with several targets per source.
//! * The unrestricted solver's certified numbers are pinned to the bits
//!   the full-tree kernel produced.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use ssor::flow::oracle::{AllPathsOracle, PathOracle};
use ssor::flow::solver::{min_congestion_unrestricted, SolveOptions};
use ssor::flow::Demand;
use ssor::graph::shortest_path::{dijkstra_tree_csr, dijkstra_tree_csr_view};
use ssor::graph::{generators, Graph, PathId, PathStore, VertexId};
use std::collections::BTreeMap;

fn hypercube6() -> Graph {
    generators::hypercube(6)
}

fn grid8() -> Graph {
    generators::grid(8, 8)
}

fn waxman64() -> Graph {
    generators::waxman_connected(64, 0.4, 0.2, 11, 32).0
}

fn random_weights(g: &Graph, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..g.m()).map(|_| 0.05 + rng.gen::<f64>() * 4.0).collect()
}

/// Every source gets `per_source` distinct targets (not itself), drawn
/// from a seeded shuffle; returned in ascending order.
fn pairs_with_targets(n: usize, per_source: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs = Vec::new();
    for s in 0..n as VertexId {
        let mut others: Vec<VertexId> = (0..n as VertexId).filter(|&t| t != s).collect();
        others.shuffle(&mut rng);
        pairs.extend(others[..per_source].iter().map(|&t| (s, t)));
    }
    pairs.sort_unstable();
    pairs
}

/// A mask that kills about a fifth of the edges plus every edge at
/// vertex 0, so vertex 0 is unreachable from everywhere else.
fn mask_isolating_zero(g: &Graph, seed: u64) -> Vec<bool> {
    let mut rng = StdRng::seed_from_u64(seed);
    g.edges()
        .map(|(_, (u, v))| u != 0 && v != 0 && rng.gen::<f64>() >= 0.2)
        .collect()
}

/// The full-tree reference: one complete Dijkstra tree per distinct
/// source (ascending), paths extracted with `path_to` and interned in
/// pair-index order within each source.
fn full_tree_reference(
    g: &Graph,
    usable: Option<&[bool]>,
    pairs: &[(VertexId, VertexId)],
    w: &[f64],
    store: &mut PathStore,
) -> Vec<Option<(PathId, f64)>> {
    let csr = g.csr();
    let mut by_source: BTreeMap<VertexId, Vec<usize>> = BTreeMap::new();
    for (i, &(s, _)) in pairs.iter().enumerate() {
        by_source.entry(s).or_default().push(i);
    }
    let mut out = vec![None; pairs.len()];
    for (s, idxs) in by_source {
        let tree = match usable {
            None => dijkstra_tree_csr(&csr, s, &|e| w[e as usize]),
            Some(mask) => dijkstra_tree_csr_view(&csr, s, &|e| w[e as usize], &mask.to_vec()),
        };
        for i in idxs {
            let t = pairs[i].1;
            out[i] = tree
                .path_to(g, t)
                .map(|p| (store.intern(&p), tree.dist_to(t)));
        }
    }
    out
}

/// Runs the oracle and the reference on the same query and asserts
/// identical ids, cost bits, materialized paths and arenas. Returns how
/// many pairs came back unreachable.
fn assert_oracle_matches_full_trees(
    g: &Graph,
    usable: Option<&[bool]>,
    pairs: &[(VertexId, VertexId)],
    w: &[f64],
) -> usize {
    let mut oracle = match usable {
        None => AllPathsOracle::new(g),
        Some(mask) => AllPathsOracle::masked(g, mask),
    };
    let mut got_store = PathStore::new();
    let mut want_store = PathStore::new();
    // Two rounds into the same arenas: the second must reuse the ids the
    // first interned, exactly like the reference.
    let mut unreachable = 0;
    for round in 0..2 {
        let got = oracle.best_paths(pairs, w, &mut got_store);
        let want = full_tree_reference(g, usable, pairs, w, &mut want_store);
        assert_eq!(got.len(), pairs.len());
        for (i, (a, b)) in got.iter().zip(want.iter()).enumerate() {
            match (a, b) {
                (Some((ida, ca)), Some((idb, cb))) => {
                    assert_eq!(ida, idb, "round {round}, pair {:?}: id", pairs[i]);
                    assert_eq!(
                        ca.to_bits(),
                        cb.to_bits(),
                        "round {round}, pair {:?}: cost {ca} vs {cb}",
                        pairs[i]
                    );
                    assert_eq!(
                        got_store.materialize(*ida),
                        want_store.materialize(*idb),
                        "round {round}, pair {:?}: path",
                        pairs[i]
                    );
                }
                (None, None) => unreachable += usize::from(round == 0),
                _ => panic!(
                    "round {round}, pair {:?}: reachability {a:?} vs {b:?}",
                    pairs[i]
                ),
            }
        }
        assert_eq!(
            got_store.len(),
            want_store.len(),
            "round {round}: arena size"
        );
    }
    unreachable
}

#[test]
fn oracle_matches_full_trees_with_one_target_per_source() {
    for (name, g) in [
        ("hypercube-6", hypercube6()),
        ("grid-8x8", grid8()),
        ("waxman-64", waxman64()),
    ] {
        let w = random_weights(&g, 3);
        let pairs = pairs_with_targets(g.n(), 1, 5);
        assert_eq!(
            assert_oracle_matches_full_trees(&g, None, &pairs, &w),
            0,
            "{name}: intact graph is connected"
        );
        let mask = mask_isolating_zero(&g, 9);
        let mut pairs = pairs;
        // Make sure the isolated vertex is some source's only target.
        let lone = pairs.iter().position(|&(s, _)| s == 1).unwrap();
        pairs[lone].1 = 0;
        let cut = assert_oracle_matches_full_trees(&g, Some(&mask), &pairs, &w);
        assert!(cut >= 1, "{name}: the mask must cut off a target");
    }
}

#[test]
fn oracle_matches_full_trees_with_several_targets_per_source() {
    for (name, g) in [
        ("hypercube-6", hypercube6()),
        ("grid-8x8", grid8()),
        ("waxman-64", waxman64()),
    ] {
        for per_source in [3, 5] {
            let w = random_weights(&g, 17 + per_source as u64);
            let pairs = pairs_with_targets(g.n(), per_source, 23);
            assert_eq!(
                assert_oracle_matches_full_trees(&g, None, &pairs, &w),
                0,
                "{name}: intact graph is connected"
            );
            // Every source also asks for the isolated vertex 0, so each
            // masked tree has an unreachable target beside live ones.
            let mut masked_pairs = pairs.clone();
            masked_pairs.extend((1..g.n() as VertexId).map(|s| (s, 0)));
            masked_pairs.sort_unstable();
            masked_pairs.dedup();
            let mask = mask_isolating_zero(&g, 29);
            let cut = assert_oracle_matches_full_trees(&g, Some(&mask), &masked_pairs, &w);
            assert!(cut >= g.n() - 1, "{name}: vertex 0 must be cut off");
        }
    }
}

#[test]
fn oracle_settles_a_target_that_is_its_own_source() {
    let g = grid8();
    let w = random_weights(&g, 31);
    let pairs = [(5, 5), (5, 40), (9, 9)];
    assert_oracle_matches_full_trees(&g, None, &pairs, &w);
}

/// `(congestion, lower_bound, iterations)` bits of the default OPT solve.
fn opt_bits(g: &Graph, d: &Demand) -> (u64, u64, usize) {
    let sol = min_congestion_unrestricted(g, d, &SolveOptions::default());
    (
        sol.congestion.to_bits(),
        sol.lower_bound.to_bits(),
        sol.iterations,
    )
}

#[test]
fn opt_on_hypercube6_bit_reversal_is_pinned() {
    let got = opt_bits(&hypercube6(), &Demand::hypercube_bit_reversal(6));
    // congestion 1.0628, bound 1.0000: the 600-iteration cap, not the
    // 1.05 gap target, ends this solve.
    assert_eq!(
        got,
        (4607465075525585656, 4607182418800017410, 600),
        "hypercube-6 bit-reversal OPT bits moved"
    );
}

#[test]
fn opt_on_grid8_random_permutation_is_pinned() {
    let mut rng = StdRng::seed_from_u64(8);
    let d = Demand::random_permutation(64, &mut rng);
    let got = opt_bits(&grid8(), &d);
    // congestion 4.8703, bound 4.6596.
    assert_eq!(
        got,
        (4617169461855080107, 4616932265905196828, 461),
        "grid-8x8 permutation OPT bits moved"
    );
}
