//! End-to-end integration tests spanning every crate: the full paper
//! pipeline at small scale.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ssor::core::{sample, SemiObliviousRouter};
use ssor::flow::solver::{min_congestion_restricted, min_congestion_unrestricted};
use ssor::flow::{Demand, SolveOptions};
use ssor::graph::generators;
use ssor::oblivious::{ObliviousRouting, RaeckeRouting, ValiantRouting};

/// The headline pipeline: sample α paths from Valiant, route an
/// adversarial permutation, stay within a small factor of OPT.
#[test]
fn hypercube_sample_is_competitive_on_adversarial_permutation() {
    let dim = 5;
    let valiant = ValiantRouting::new(dim);
    let d = Demand::hypercube_bit_reversal(dim);
    let ps = sample::alpha_sample(&valiant, &d.support(), 5, 1);
    assert!(ps.sparsity() <= 5);

    let router = SemiObliviousRouter::new(valiant.graph().clone(), ps);
    let rep = router.competitive_report(&d, &SolveOptions::with_eps(0.05));
    assert!(
        rep.ratio <= 6.0,
        "5 sampled paths should be close to OPT, ratio {}",
        rep.ratio
    );
    // Sanity: the ratio cannot dip below ~1 (semi-oblivious >= OPT).
    assert!(rep.semi_oblivious >= rep.opt_lower_bound - 1e-6);
}

/// Sparsity buys competitiveness monotonically (in expectation; we use
/// a fixed seed and allow small non-monotonic noise at adjacent alphas by
/// comparing the endpoints).
#[test]
fn more_paths_help() {
    let dim = 5;
    let valiant = ValiantRouting::new(dim);
    let d = Demand::hypercube_complement(dim);
    let opts = SolveOptions::with_eps(0.05);

    let ps1 = sample::alpha_sample(&valiant, &d.support(), 1, 5);
    let ps8 = sample::alpha_sample(&valiant, &d.support(), 8, 5);
    let r1 = SemiObliviousRouter::new(valiant.graph().clone(), ps1)
        .route_fractional(&d, &opts)
        .congestion;
    let r8 = SemiObliviousRouter::new(valiant.graph().clone(), ps8)
        .route_fractional(&d, &opts)
        .congestion;
    assert!(
        r8 < r1,
        "alpha = 8 ({r8}) should beat alpha = 1 ({r1}) on the complement demand"
    );
}

/// Full generality: Räcke sampling on a non-hypercube graph, integral
/// routing via Lemma 6.3, everything verified.
#[test]
fn raecke_pipeline_on_grid_with_integral_rounding() {
    let g = generators::grid(5, 5);
    let mut rng = StdRng::seed_from_u64(9);
    let raecke = RaeckeRouting::build(&g, &Default::default(), &mut rng);
    let d = Demand::random_permutation(25, &mut rng);
    let ps = sample::alpha_cut_sample(&raecke, &g, &d.support(), 3, 9);
    let router = SemiObliviousRouter::new(g.clone(), ps);
    assert!(router.covers(&d));

    let out = router.route_integral(&d, &SolveOptions::with_eps(0.08), &mut rng);
    assert!(out.routing.routes(&d));
    assert!(out.within_lemma_bound(g.m()), "Lemma 6.3 bound violated");

    // Integral congestion is within the rounding bound of fractional OPT.
    let opt = min_congestion_unrestricted(&g, &d, &SolveOptions::with_eps(0.08));
    assert!(
        (out.congestion as f64) <= 12.0 * opt.congestion.max(1.0) + 3.0 * (g.m() as f64).ln(),
        "integral congestion {} wildly above OPT {}",
        out.congestion,
        opt.congestion
    );
}

/// Restricting the solver to the sampled paths can never beat the
/// unrestricted optimum — and materially equals it when the sample holds
/// the whole support of an optimal routing.
#[test]
fn restricted_never_beats_unrestricted() {
    let g = generators::torus(4, 4);
    let mut rng = StdRng::seed_from_u64(13);
    let raecke = RaeckeRouting::build(&g, &Default::default(), &mut rng);
    let d = Demand::random_permutation(16, &mut rng);
    let ps = sample::alpha_sample(&raecke, &d.support(), 4, 13);
    let opts = SolveOptions::with_eps(0.05);
    let restricted = min_congestion_restricted(&g, &d, ps.candidates(), &opts);
    let unrestricted = min_congestion_unrestricted(&g, &d, &opts);
    assert!(restricted.congestion + 1e-9 >= unrestricted.lower_bound);
}

/// The demand-sum lemma (Lemma 5.15) holds across the real pipeline:
/// routing d1 + d2 with the merged routing costs at most the sum.
#[test]
fn demand_sum_composition() {
    let g = generators::hypercube(4);
    let mut rng = StdRng::seed_from_u64(17);
    let valiant = ValiantRouting::new(4);
    let d1 = Demand::random_permutation(16, &mut rng);
    let d2 = Demand::random_permutation(16, &mut rng);
    let opts = SolveOptions::with_eps(0.05);
    let mut pairs = d1.support();
    pairs.extend(d2.support());
    let ps = sample::alpha_sample(&valiant, &pairs, 4, 17);

    let r1 = min_congestion_restricted(&g, &d1, ps.candidates(), &opts);
    let r2 = min_congestion_restricted(&g, &d2, ps.candidates(), &opts);
    let merged = ssor::flow::Routing::demand_weighted_merge(&r1.routing, &d1, &r2.routing, &d2);
    let sum = d1.plus(&d2);
    let cong = merged.congestion(&g, &sum);
    assert!(
        cong <= r1.congestion + r2.congestion + 1e-9,
        "Lemma 5.15 violated: {} > {} + {}",
        cong,
        r1.congestion,
        r2.congestion
    );
}

/// Bounded-congestion lemma (Lemma 5.16) on solver outputs.
#[test]
fn bounded_congestion_lemma_holds_for_solver_routings() {
    let g = generators::ring(10);
    let mut rng = StdRng::seed_from_u64(21);
    let d = Demand::random_permutation(10, &mut rng);
    let sol = min_congestion_unrestricted(&g, &d, &SolveOptions::with_eps(0.05));
    let cong = sol.routing.congestion(&g, &d);
    assert!(cong >= d.size() / g.m() as f64 - 1e-9);
    assert!(cong <= d.size() + 1e-9);
}
