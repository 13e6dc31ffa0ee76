//! The semi-oblivious router: Stage 4 and Stage 5 of the pipeline in
//! Section 2.1.
//!
//! Stage 2 built the path system (see [`crate::sample`]); once the demand
//! is revealed (Stage 3), [`SemiObliviousRouter`] adapts the sending rates
//! optimally within the candidate paths (Stage 4, a packing LP) and
//! reports competitive ratios against the offline optimum and against the
//! base oblivious routing (Stage 5).

use crate::path_system::PathSystem;
use rand::Rng;
use ssor_flow::rounding::{round_routing, RoundingOutcome};
use ssor_flow::solver::{
    min_congestion_restricted, min_congestion_unrestricted, MinCongSolution, SolveOptions,
};
use ssor_flow::Demand;
use ssor_graph::Graph;

/// A semi-oblivious routing ready to serve demands: a graph plus a path
/// system (Definition 5.1).
///
/// # Examples
///
/// ```
/// use ssor_core::{sample::alpha_sample, sample::all_pairs, SemiObliviousRouter};
/// use ssor_flow::Demand;
/// use ssor_oblivious::{ObliviousRouting, ValiantRouting};
///
/// let r = ValiantRouting::new(3);
/// let ps = alpha_sample(&r, &all_pairs(8), 4, 7);
/// let router = SemiObliviousRouter::new(r.graph().clone(), ps);
/// let d = Demand::hypercube_complement(3);
/// let sol = router.route_fractional(&d, &Default::default());
/// assert!(sol.congestion > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SemiObliviousRouter {
    graph: Graph,
    paths: PathSystem,
}

/// A competitive-ratio report (Stage 5).
#[derive(Debug, Clone)]
pub struct CompetitiveReport {
    /// Congestion achieved by the semi-oblivious routing (`cong_R(P, d)`,
    /// up to the solver's certified gap).
    pub semi_oblivious: f64,
    /// Certified *lower bound* on the offline fractional optimum.
    pub opt_lower_bound: f64,
    /// Offline optimum primal value (upper bound on OPT).
    pub opt_upper_bound: f64,
    /// `semi_oblivious / opt_lower_bound` — an upper bound on the true
    /// competitive ratio.
    pub ratio: f64,
}

impl SemiObliviousRouter {
    /// Wraps a graph and a path system.
    ///
    /// # Panics
    ///
    /// Panics if the path system contains a path invalid for `graph`.
    pub fn new(graph: Graph, paths: PathSystem) -> Self {
        assert!(paths.is_valid(&graph), "path system invalid for graph");
        SemiObliviousRouter { graph, paths }
    }

    /// The graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The path system.
    pub fn paths(&self) -> &PathSystem {
        &self.paths
    }

    /// Whether every pair of `d`'s support has at least one candidate.
    pub fn covers(&self, d: &Demand) -> bool {
        d.support()
            .iter()
            .all(|&(s, t)| self.paths.covers_pair(s, t))
    }

    /// Stage 4 (fractional): the demand-dependent optimal rates on the
    /// candidate paths — `cong_R(P, d)` of Definition 5.1.
    ///
    /// # Panics
    ///
    /// Panics if the path system does not cover the demand's support: a
    /// partially-routed solution would be compared against the OPT of
    /// the *full* demand downstream, silently inflating every
    /// competitive ratio. Callers that expect missing coverage (failure
    /// drills) restrict the demand first and use the solver's stranded
    /// reporting instead.
    pub fn route_fractional(&self, d: &Demand, opts: &SolveOptions) -> MinCongSolution {
        let sol = min_congestion_restricted(&self.graph, d, self.paths.candidates(), opts);
        assert!(
            sol.stranded == 0.0,
            "path system does not cover the demand: {} mass stranded on pairs {:?}",
            sol.stranded,
            sol.dropped_pairs
        );
        sol
    }

    /// Stage 4 (integral): route, then round with Lemma 6.3 plus local
    /// search — `cong_Z(P, d)` of Definition 6.1 (up to rounding loss).
    ///
    /// # Panics
    ///
    /// Panics if `d` is not integral or is not covered.
    pub fn route_integral<R: Rng + ?Sized>(
        &self,
        d: &Demand,
        opts: &SolveOptions,
        rng: &mut R,
    ) -> RoundingOutcome {
        let frac = self.route_fractional(d, opts);
        round_routing(&self.graph, &frac.routing, d, 32, rng)
    }

    /// Stage 5: competitive ratio against the offline fractional optimum.
    /// The reported `ratio` uses the *dual lower bound* on OPT, so it is an
    /// upper bound on the true ratio (conservative).
    pub fn competitive_report(&self, d: &Demand, opts: &SolveOptions) -> CompetitiveReport {
        let semi = self.route_fractional(d, opts);
        let opt = min_congestion_unrestricted(&self.graph, d, opts);
        let lb = opt.lower_bound.max(f64::MIN_POSITIVE);
        CompetitiveReport {
            semi_oblivious: semi.congestion,
            opt_lower_bound: opt.lower_bound,
            opt_upper_bound: opt.congestion,
            ratio: if d.is_empty() {
                1.0
            } else {
                semi.congestion / lb
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::{all_pairs, alpha_sample};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssor_graph::{generators, Path};
    use ssor_oblivious::{ObliviousRouting, ValiantRouting};

    #[test]
    fn full_path_system_is_one_competitive() {
        // If P contains every simple path, the routing is 1-competitive
        // (the Definition 5.1 remark).
        let g = generators::ring(6);
        let mut ps = PathSystem::new();
        for s in g.vertices() {
            for t in g.vertices() {
                if s != t {
                    for p in ssor_graph::ksp::all_simple_paths(&g, s, t, 6) {
                        ps.insert(p);
                    }
                }
            }
        }
        let router = SemiObliviousRouter::new(g, ps);
        let d = Demand::from_pairs(&[(0, 3), (1, 4), (2, 5)]);
        let rep = router.competitive_report(&d, &SolveOptions::with_eps(0.02));
        assert!(
            rep.semi_oblivious <= rep.opt_upper_bound * 1.05 + 1e-9,
            "semi {} vs opt {}",
            rep.semi_oblivious,
            rep.opt_upper_bound
        );
    }

    #[test]
    fn sparse_sample_covers_and_routes() {
        let r = ValiantRouting::new(4);
        let ps = alpha_sample(&r, &all_pairs(16), 4, 5);
        let router = SemiObliviousRouter::new(r.graph().clone(), ps);
        let d = Demand::hypercube_bit_reversal(4);
        assert!(router.covers(&d));
        let sol = router.route_fractional(&d, &SolveOptions::default());
        assert!(sol.routing.covers(&d));
        // Semi-oblivious congestion is at least the offline optimum.
        let rep = router.competitive_report(&d, &SolveOptions::default());
        assert!(
            rep.ratio >= 0.9,
            "ratio {} below 1 is impossible",
            rep.ratio
        );
    }

    #[test]
    fn integral_route_is_integral_and_bounded() {
        let r = ValiantRouting::new(3);
        let mut rng = StdRng::seed_from_u64(6);
        let ps = alpha_sample(&r, &all_pairs(8), 4, 6);
        let router = SemiObliviousRouter::new(r.graph().clone(), ps);
        let d = Demand::hypercube_complement(3);
        let out = router.route_integral(&d, &SolveOptions::default(), &mut rng);
        assert!(out.routing.routes(&d));
        assert!(out.within_lemma_bound(router.graph().m()));
    }

    #[test]
    fn missing_coverage_detected() {
        let g = generators::ring(5);
        let mut ps = PathSystem::new();
        ps.insert(Path::from_vertices(&g, &[0, 1]).unwrap());
        let router = SemiObliviousRouter::new(g, ps);
        assert!(router.covers(&Demand::from_pairs(&[(0, 1)])));
        assert!(!router.covers(&Demand::from_pairs(&[(1, 3)])));
    }

    #[test]
    fn empty_demand_ratio_is_one() {
        let g = generators::ring(5);
        let router = SemiObliviousRouter::new(g, PathSystem::new());
        let rep = router.competitive_report(&Demand::new(), &SolveOptions::default());
        assert_eq!(rep.ratio, 1.0);
    }
}
