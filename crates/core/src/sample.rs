//! Sampling path systems from oblivious routings (Definition 5.2) — the
//! paper's entire construction.
//!
//! Definition 5.2 samples every pair's paths independently, so the module
//! has exactly one draw loop: pair `(s, t)` seeds its own `StdRng` from
//! [`pair_seed`]`(seed, α, s, t)` and draws its paths from `R(s, t)`.
//! Pairs fan out over [`par_ordered_map`] in fixed-length blocks whose
//! partials merge in block order, so a sample is a deterministic function
//! of `(routing, pairs, α, seed)` at any thread count, and a pair's draws
//! never depend on which other pairs are sampled alongside it. The
//! samplers differ only in how many draws a pair makes and what keeps
//! them:
//!
//! * [`alpha_sample`] — `α` draws per pair into a set (Theorem 2.5 /
//!   Corollary 6.2 setting);
//! * [`alpha_cut_sample`] — `α + cut_G(s, t)` draws per pair on the same
//!   `α`-keyed stream, so its first `α` draws are [`alpha_sample`]'s
//!   (Theorem 5.3 setting, needed for arbitrary fractional demands: the
//!   two-cliques example of Section 2.1 shows `cut` many paths are
//!   necessary);
//! * [`crate::weak::sample_multiset`] — `α` draws per pair with
//!   duplicates kept.

use crate::path_system::PathSystem;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ssor_graph::generators::mix_seed;
use ssor_graph::maxflow::min_cut_value;
use ssor_graph::{par_ordered_map, Graph, Path, VertexId};
use ssor_oblivious::ObliviousRouting;
use std::collections::BTreeMap;

/// Pairs per fan-out block. A constant, never derived from the worker
/// count, so the block partials and their merge order are the same on 1
/// thread or 64. Blocks this large keep the partial arenas few: on a
/// 2-vCPU host, 64-pair blocks raised the α-sweep benchmark's peak RSS
/// by about 15%.
const BLOCK: usize = 512;

/// The RNG seed pair `(s, t)` draws from under run seed `seed` at
/// sparsity `alpha` — public so callers can reproduce a single pair's
/// draw in isolation.
///
/// `alpha` enters the seed so that sweep points are *independent*
/// samples: without it, the `α` draws of one run would be a prefix of
/// the `α + 1` draws of the next, and any monotonicity-in-`α`
/// measurement would hold by construction instead of by experiment.
///
/// # Examples
///
/// ```
/// use ssor_core::sample::pair_seed;
/// assert_eq!(pair_seed(7, 4, 0, 1), pair_seed(7, 4, 0, 1));
/// assert_ne!(pair_seed(7, 4, 0, 1), pair_seed(7, 4, 1, 0));
/// assert_ne!(pair_seed(7, 4, 0, 1), pair_seed(8, 4, 0, 1));
/// assert_ne!(pair_seed(7, 4, 0, 1), pair_seed(7, 5, 0, 1));
/// ```
pub fn pair_seed(seed: u64, alpha: usize, s: VertexId, t: VertexId) -> u64 {
    mix_seed(seed ^ mix_seed(alpha as u64) ^ mix_seed(((s as u64) << 32) | t as u64))
}

/// Checks the sampler preconditions on the calling thread, so their
/// panic messages survive the fan-out.
fn check_pairs(pairs: &[(VertexId, VertexId)], alpha: usize) {
    assert!(alpha >= 1, "alpha must be positive");
    for &(s, t) in pairs {
        assert_ne!(s, t, "pairs must have distinct endpoints");
    }
}

/// The Definition 5.2 draw loop: pair `(s, t)` draws `draws(s, t)` paths
/// from its [`pair_seed`] stream and hands them, in draw order, to
/// `keep` on its block's partial. Returns the partials in block order.
pub(crate) fn draw<O, B>(
    routing: &O,
    pairs: &[(VertexId, VertexId)],
    alpha: usize,
    seed: u64,
    draws: impl Fn(VertexId, VertexId) -> usize + Sync,
    keep: impl Fn(&mut B, (VertexId, VertexId), Vec<Path>) + Sync,
) -> Vec<B>
where
    O: ObliviousRouting + Sync + ?Sized,
    B: Default + Send,
{
    check_pairs(pairs, alpha);
    let blocks: Vec<&[(VertexId, VertexId)]> = pairs.chunks(BLOCK).collect();
    par_ordered_map(&blocks, 2, |block| {
        let mut partial = B::default();
        for &(s, t) in *block {
            let mut rng = StdRng::seed_from_u64(pair_seed(seed, alpha, s, t));
            let paths = (0..draws(s, t))
                .map(|_| routing.sample_path(s, t, &mut rng))
                .collect();
            keep(&mut partial, (s, t), paths);
        }
        partial
    })
}

/// [`draw`] into deduplicating [`PathSystem`] partials, absorbed in
/// block order.
fn draw_set<O: ObliviousRouting + Sync + ?Sized>(
    routing: &O,
    pairs: &[(VertexId, VertexId)],
    alpha: usize,
    seed: u64,
    draws: impl Fn(VertexId, VertexId) -> usize + Sync,
) -> PathSystem {
    draw(
        routing,
        pairs,
        alpha,
        seed,
        draws,
        |ps: &mut PathSystem, _, paths| {
            for p in paths {
                ps.insert(p);
            }
        },
    )
    .into_iter()
    .reduce(|mut out, partial| {
        out.absorb(&partial);
        out
    })
    .unwrap_or_default()
}

/// An `α`-sample of the oblivious routing on the given pairs
/// (Definition 5.2): for each pair, `α` paths sampled with replacement
/// from `R(s, t)` on the pair's own [`pair_seed`] stream (duplicates
/// collapse, so `|P(s, t)| <= α`). The result does not depend on the
/// thread count or on the order of `pairs`.
///
/// # Panics
///
/// Panics if `alpha == 0` or some pair has `s == t`.
///
/// # Examples
///
/// ```
/// use ssor_core::sample::{all_pairs, alpha_sample};
/// use ssor_oblivious::ValiantRouting;
///
/// let r = ValiantRouting::new(3);
/// let ps = alpha_sample(&r, &all_pairs(8), 4, 42);
/// assert_eq!(ps.len(), 56);
/// assert!(ps.sparsity() <= 4);
/// // Deterministic per seed:
/// assert_eq!(ps, alpha_sample(&r, &all_pairs(8), 4, 42));
/// ```
pub fn alpha_sample<O: ObliviousRouting + Sync + ?Sized>(
    routing: &O,
    pairs: &[(VertexId, VertexId)],
    alpha: usize,
    seed: u64,
) -> PathSystem {
    draw_set(routing, pairs, alpha, seed, |_, _| alpha)
}

/// An `(α + cut_G)`-sample (Definition 5.2): `α + cut_G(s, t)` draws per
/// pair, where `cut_G(s, t)` is the unit-capacity minimum cut computed by
/// Dinic once per unordered pair. The draws continue the pair's
/// `α`-keyed stream, so every pair's [`alpha_sample`] paths at the same
/// seed are among its paths here.
///
/// # Panics
///
/// Panics if `alpha == 0`, some pair has `s == t`, or the graph is
/// disconnected between a pair.
pub fn alpha_cut_sample<O: ObliviousRouting + Sync + ?Sized>(
    routing: &O,
    graph: &Graph,
    pairs: &[(VertexId, VertexId)],
    alpha: usize,
    seed: u64,
) -> PathSystem {
    check_pairs(pairs, alpha);
    let unordered = |s: VertexId, t: VertexId| (s.min(t), s.max(t));
    let mut cuts: BTreeMap<(VertexId, VertexId), usize> =
        pairs.iter().map(|&(s, t)| (unordered(s, t), 0)).collect();
    let keys: Vec<(VertexId, VertexId)> = cuts.keys().copied().collect();
    let values = par_ordered_map(&keys, 2, |&(s, t)| min_cut_value(graph, s, t) as usize);
    for ((&(s, t), cut), value) in cuts.iter_mut().zip(values) {
        assert!(value >= 1, "graph disconnected between {s} and {t}");
        *cut = value;
    }
    draw_set(routing, pairs, alpha, seed, |s, t| {
        alpha + cuts.get(&unordered(s, t)).expect("a cut per listed pair")
    })
}

/// All ordered pairs `(s, t)`, `s != t`, of an `n`-vertex graph — the full
/// domain a semi-oblivious routing must pre-install paths for.
pub fn all_pairs(n: usize) -> Vec<(VertexId, VertexId)> {
    let mut v = Vec::with_capacity(n * (n - 1));
    for s in 0..n as VertexId {
        for t in 0..n as VertexId {
            if s != t {
                v.push((s, t));
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssor_graph::generators;
    use ssor_oblivious::{KspRouting, ValiantRouting};

    #[test]
    fn alpha_sample_sparsity_bound() {
        let r = ValiantRouting::new(4);
        let pairs = all_pairs(16);
        let ps = alpha_sample(&r, &pairs, 3, 1);
        assert!(ps.sparsity() <= 3);
        assert_eq!(ps.len(), pairs.len());
        assert!(ps.is_valid(r.graph()));
    }

    #[test]
    fn alpha_sample_paths_come_from_support() {
        let r = ValiantRouting::new(3);
        let ps = alpha_sample(&r, &[(0, 7)], 5, 2);
        let support: Vec<Vec<u32>> = r
            .path_distribution(0, 7)
            .into_iter()
            .map(|(p, _)| p.edges().to_vec())
            .collect();
        for p in ps.paths(0, 7).unwrap() {
            assert!(support.contains(&p.edges().to_vec()));
        }
    }

    #[test]
    fn cut_sample_counts_include_cut() {
        // Two-cliques bridge: cut between opposite-side vertices is the
        // bridge count; sampling must request alpha + cut paths.
        let g = generators::two_cliques_bridge(5, 3);
        let r = KspRouting::new(&g, 8);
        let pairs = vec![(4u32, 9u32)]; // no bridge touches vertex 4 or 9
        let ps = alpha_cut_sample(&r, &g, &pairs, 2, 3);
        // 2 + cut(=3) = 5 draws; dedup may reduce, but the KSP support has
        // 8 distinct paths so we expect close to 5 distinct ones.
        let got = ps.paths(4, 9).unwrap().len();
        assert!((2..=5).contains(&got), "got {got}");
        assert!(ps.is_cut_sparse(2, |s, t| min_cut_value(&g, s, t) as usize));
    }

    #[test]
    fn larger_alpha_never_reduces_coverage() {
        let r = ValiantRouting::new(3);
        let pairs = all_pairs(8);
        let small = alpha_sample(&r, &pairs, 1, 4);
        let large = alpha_sample(&r, &pairs, 6, 4);
        assert!(large.total_paths() >= small.total_paths());
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn rejects_zero_alpha() {
        let r = ValiantRouting::new(3);
        let _ = alpha_sample(&r, &[(0, 1)], 0, 5);
    }

    #[test]
    #[should_panic(expected = "distinct endpoints")]
    fn rejects_a_loop_pair_in_a_list_long_enough_to_fan_out() {
        let r = ValiantRouting::new(6);
        let mut pairs = all_pairs(64);
        assert!(pairs.len() > 2 * BLOCK);
        pairs.push((3, 3));
        let _ = alpha_sample(&r, &pairs, 2, 6);
    }

    #[test]
    fn all_pairs_count() {
        assert_eq!(all_pairs(5).len(), 20);
        assert!(all_pairs(3).iter().all(|&(s, t)| s != t));
    }

    #[test]
    fn deterministic_per_seed_and_sensitive_to_it() {
        let r = ValiantRouting::new(4);
        let pairs = all_pairs(16);
        let a = alpha_sample(&r, &pairs, 2, 9);
        assert_eq!(a, alpha_sample(&r, &pairs, 2, 9));
        assert_ne!(a, alpha_sample(&r, &pairs, 2, 10));
    }

    #[test]
    fn independent_of_pair_order() {
        // Per-pair streams mean reordering the pair list (and with it the
        // block boundaries) cannot change any pair's draw.
        let r = ValiantRouting::new(6);
        let mut pairs = all_pairs(64);
        let a = alpha_sample(&r, &pairs, 2, 9);
        pairs.reverse();
        assert_eq!(a, alpha_sample(&r, &pairs, 2, 9));
    }

    #[test]
    fn alpha_sweep_points_are_independent_samples() {
        // The alpha=2 sample must NOT be a prefix/subset of the alpha=3
        // sample at the same seed; otherwise sweep monotonicity would be
        // tautological.
        let r = ValiantRouting::new(4);
        let pairs = all_pairs(16);
        let a2 = alpha_sample(&r, &pairs, 2, 11);
        let a3 = alpha_sample(&r, &pairs, 3, 11);
        let nested = pairs.iter().all(|&(s, t)| {
            let big = a3.paths(s, t);
            a2.paths(s, t)
                .iter()
                .flatten()
                .all(|p| big.iter().flatten().any(|q| q == p))
        });
        assert!(!nested, "samples across alpha should not be nested");
    }
}
