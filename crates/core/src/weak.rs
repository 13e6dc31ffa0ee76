//! The weak-routing dynamic process of Section 5.3, as an executable
//! algorithm.
//!
//! The proof of the Main Lemma (Lemma 5.6) *constructs* a routing: start
//! with every sampled path carrying its share of the demand, sweep the
//! edges in a fixed order, and whenever an edge's current congestion
//! exceeds the allowance `γ`, zero out every path crossing it. Lemma 5.10
//! shows the surviving weights route a subdemand `d'` with `cong <= γ`,
//! and the probabilistic argument shows `siz(d') >= siz(d)/2` w.h.p.
//!
//! Running this process for real (experiment E9) lets us *measure* the
//! failure probability and the deletion patterns the proof reasons about.

use crate::sample::draw;
use ssor_flow::{Demand, Routing};
use ssor_graph::{Graph, Path, VertexId};
use ssor_oblivious::ObliviousRouting;
use std::collections::BTreeMap;

/// A sampled path multiset: unlike [`crate::PathSystem`], duplicates are
/// kept, because the process weights paths by their sample multiplicity
/// (the `X(s,t)_{i,p}` variables of Section 5.3).
pub type SampleMultiset = BTreeMap<(VertexId, VertexId), Vec<Path>>;

/// Draws `alpha` paths per pair, *keeping* duplicates: the same
/// per-pair streams as [`crate::sample::alpha_sample`] at the same seed,
/// which is this multiset with duplicates collapsed.
///
/// # Panics
///
/// Panics if `alpha == 0` or some pair has `s == t`.
pub fn sample_multiset<O: ObliviousRouting + Sync + ?Sized>(
    routing: &O,
    pairs: &[(VertexId, VertexId)],
    alpha: usize,
    seed: u64,
) -> SampleMultiset {
    let mut out = SampleMultiset::new();
    for mut partial in draw(
        routing,
        pairs,
        alpha,
        seed,
        |_, _| alpha,
        |m: &mut SampleMultiset, pair, paths| {
            m.insert(pair, paths);
        },
    ) {
        out.append(&mut partial);
    }
    out
}

/// Outcome of the Section 5.3 process.
#[derive(Debug, Clone)]
pub struct WeakRouteResult {
    /// The surviving subdemand `d'`.
    pub routed: Demand,
    /// The routing `R'` carrying `d'` with congestion at most `gamma`.
    pub routing: Routing,
    /// `Δ_k`: total weight deleted while processing edge `k`.
    pub deltas: Vec<f64>,
    /// The congestion allowance used.
    pub gamma: f64,
    /// `siz(d') / siz(d)` — the process *succeeds* (in the sense of
    /// Definition 5.4) when this is at least 1/2.
    pub routed_fraction: f64,
}

impl WeakRouteResult {
    /// Whether at least half the demand survived (the weak-competitiveness
    /// success criterion).
    pub fn succeeded(&self) -> bool {
        self.routed_fraction >= 0.5
    }

    /// Number of edges whose processing deleted positive weight
    /// (the "overcongested" edges of the bad-pattern analysis).
    pub fn overcongested_edges(&self) -> usize {
        self.deltas.iter().filter(|&&d| d > 0.0).count()
    }
}

/// Runs the dynamic process: initial weight `d(s,t) / |samples(s,t)|` per
/// sampled path (so a pair's samples share its demand equally — for
/// special demands this is weight 1 per sample, exactly the paper), then
/// the fixed-order edge sweep with allowance `gamma`.
///
/// # Panics
///
/// Panics if some pair in `d`'s support has no samples.
pub fn weak_route(g: &Graph, samples: &SampleMultiset, d: &Demand, gamma: f64) -> WeakRouteResult {
    // Flatten to (pair index, path, weight), preserving multiplicity.
    struct Item {
        pair: (VertexId, VertexId),
        path: Path,
        weight: f64,
        alive: bool,
    }
    let mut items: Vec<Item> = Vec::new();
    for ((s, t), dem) in d.iter() {
        let paths = samples
            .get(&(s, t))
            .unwrap_or_else(|| panic!("no samples for pair ({s}, {t})"));
        assert!(!paths.is_empty());
        let w = dem / paths.len() as f64;
        for p in paths {
            items.push(Item {
                pair: (s, t),
                path: p.clone(),
                weight: w,
                alive: true,
            });
        }
    }

    // Index: edge -> item indices crossing it.
    let mut through: Vec<Vec<usize>> = vec![Vec::new(); g.m()];
    for (i, it) in items.iter().enumerate() {
        for &e in it.path.edges() {
            through[e as usize].push(i);
        }
    }

    // Fixed-order sweep.
    let mut deltas = vec![0.0f64; g.m()];
    for e in 0..g.m() {
        let cong: f64 = through[e]
            .iter()
            .filter(|&&i| items[i].alive)
            .map(|&i| items[i].weight)
            .sum();
        if cong > gamma {
            let mut deleted = 0.0;
            for &i in &through[e] {
                if items[i].alive {
                    items[i].alive = false;
                    deleted += items[i].weight;
                }
            }
            deltas[e] = deleted;
        }
    }

    // Assemble d' and R' from the survivors.
    let mut per_pair: BTreeMap<(VertexId, VertexId), Vec<(Path, f64)>> = BTreeMap::new();
    for it in &items {
        if it.alive {
            per_pair
                .entry(it.pair)
                .or_default()
                .push((it.path.clone(), it.weight));
        }
    }
    let mut routed = Demand::new();
    let mut routing = Routing::new();
    for (&(s, t), paths) in &per_pair {
        let total: f64 = paths.iter().map(|(_, w)| w).sum();
        if total > 0.0 {
            routed.set(s, t, total);
            routing.set_distribution(s, t, paths.clone());
        }
    }
    let size = d.size();
    let routed_fraction = if size > 0.0 {
        routed.size() / size
    } else {
        1.0
    };
    WeakRouteResult {
        routed,
        routing,
        deltas,
        gamma,
        routed_fraction,
    }
}

/// Checks the three bullets of Lemma 5.10 on a process outcome:
/// `d' <= d`, `cong(R', d') <= γ`, and `siz(d') = siz(d) - Σ_k Δ_k`.
pub fn verify_lemma_5_10(g: &Graph, d: &Demand, out: &WeakRouteResult) -> Result<(), String> {
    for ((s, t), w) in out.routed.iter() {
        if w > d.get(s, t) + 1e-9 {
            return Err(format!("d'({s},{t}) = {w} exceeds d = {}", d.get(s, t)));
        }
    }
    let cong = out.routing.congestion(g, &out.routed);
    if cong > out.gamma + 1e-9 {
        return Err(format!("cong {} exceeds gamma {}", cong, out.gamma));
    }
    let delta_sum: f64 = out.deltas.iter().sum();
    let lhs = out.routed.size();
    let rhs = d.size() - delta_sum;
    if (lhs - rhs).abs() > 1e-6 * d.size().max(1.0) {
        return Err(format!("siz(d') = {lhs} but D - ΣΔ = {rhs}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssor_oblivious::ValiantRouting;

    fn complement_setup(
        dim: u32,
        alpha: usize,
        seed: u64,
    ) -> (ValiantRouting, SampleMultiset, Demand) {
        let r = ValiantRouting::new(dim);
        let d = Demand::hypercube_complement(dim);
        let pairs = d.support();
        let samples = sample_multiset(&r, &pairs, alpha, seed);
        (r, samples, d)
    }

    #[test]
    fn generous_gamma_routes_everything() {
        let (r, samples, d) = complement_setup(4, 4, 1);
        let out = weak_route(r.graph(), &samples, &d, 1e9);
        assert!(out.succeeded());
        assert!((out.routed_fraction - 1.0).abs() < 1e-9);
        assert_eq!(out.overcongested_edges(), 0);
        verify_lemma_5_10(r.graph(), &d, &out).unwrap();
    }

    #[test]
    fn zero_gamma_deletes_everything() {
        let (r, samples, d) = complement_setup(3, 2, 2);
        let out = weak_route(r.graph(), &samples, &d, 0.0);
        assert!(!out.succeeded());
        assert_eq!(out.routed.size(), 0.0);
        verify_lemma_5_10(r.graph(), &d, &out).unwrap();
    }

    #[test]
    fn moderate_gamma_satisfies_lemma_5_10() {
        for seed in 0..5 {
            let (r, samples, d) = complement_setup(4, 6, seed);
            for gamma in [1.0, 2.0, 4.0, 8.0] {
                let out = weak_route(r.graph(), &samples, &d, gamma);
                verify_lemma_5_10(r.graph(), &d, &out).unwrap();
            }
        }
    }

    #[test]
    fn weak_routing_succeeds_at_polylog_gamma_whp() {
        // The heart of Lemma 5.6: with alpha = Θ(log n) samples from
        // Valiant and gamma polylog, the process routes at least half the
        // demand. dim 5: n = 32, alpha = 5, gamma = 12 is comfortable.
        let mut successes = 0;
        for seed in 0..10 {
            let (r, samples, d) = complement_setup(5, 5, seed);
            let out = weak_route(r.graph(), &samples, &d, 12.0);
            if out.succeeded() {
                successes += 1;
            }
        }
        assert!(
            successes >= 9,
            "only {successes}/10 runs routed half the demand"
        );
    }

    #[test]
    fn deltas_are_recorded_per_edge() {
        let (r, samples, d) = complement_setup(3, 8, 3);
        // Tiny gamma: every loaded edge overcongests.
        let out = weak_route(r.graph(), &samples, &d, 0.2);
        assert!(out.overcongested_edges() > 0);
        let delta_sum: f64 = out.deltas.iter().sum();
        assert!(delta_sum > 0.0);
        assert!((delta_sum + out.routed.size() - d.size()).abs() < 1e-6);
    }

    #[test]
    fn sample_multiset_keeps_duplicates() {
        let r = ValiantRouting::new(2);
        // 20 samples over a support of at most ~4 distinct paths must
        // contain duplicates.
        let ms = sample_multiset(&r, &[(0, 3)], 20, 4);
        assert_eq!(ms[&(0, 3)].len(), 20);
    }
}
