//! A1 — template bake-off: which base oblivious routing should one
//! sample from, and what does building it cost?
//!
//! Theorem 5.3 is black-box in the oblivious routing `R`: the sample
//! inherits `R`'s competitiveness. This bake-off quantifies the choice
//! across the workspace's three serving topologies (Waxman WAN, Clos
//! leaf–spine, hypercube) for the five general-purpose templates:
//! Räcke-MWU trees, a plain FRT ensemble (no reweighting), electrical
//! flows (per-source preconditioned Laplacian solves), random walks
//! (Schapira–Shahaf), and generic Valiant load balancing — plus the
//! deterministic single-shortest-path strawman as the floor. Each cell
//! reports the sampled competitive ratio *and* the template build wall,
//! because the schemes trade exactly those two off.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use ssor_bench::{banner, fx, geomean, Table};
use ssor_core::{sample, SemiObliviousRouter};
use ssor_flow::solver::min_congestion_unrestricted;
use ssor_flow::{Demand, SolveOptions};
use ssor_graph::{generators, Graph};
use ssor_oblivious::{
    ElectricalRouting, ObliviousRouting, RaeckeOptions, RaeckeRouting, RandomWalkRouting,
    ShortestPathRouting, VlbRouting,
};
use std::time::Instant;

#[derive(Serialize)]
struct Row {
    topology: String,
    base_routing: String,
    mean_ratio: f64,
    build_wall_ms: f64,
}

fn mean_ratio<O: ObliviousRouting + Sync + ?Sized>(
    base: &O,
    g: &Graph,
    demands: &[Demand],
    alpha: usize,
    opts: &SolveOptions,
    seed: u64,
) -> f64 {
    let ratios: Vec<f64> = demands
        .iter()
        .map(|d| {
            let ps = sample::alpha_sample(base, &d.support(), alpha, seed);
            let router = SemiObliviousRouter::new(g.clone(), ps);
            let semi = router.route_fractional(d, opts).congestion;
            let opt = min_congestion_unrestricted(g, d, opts);
            semi / opt.lower_bound.max(f64::MIN_POSITIVE)
        })
        .collect();
    geomean(&ratios)
}

/// Builds each of the six templates on `g`, timing construction.
fn build_schemes(g: &Graph) -> Vec<(&'static str, Box<dyn ObliviousRouting + Sync>, f64)> {
    let mut out: Vec<(&'static str, Box<dyn ObliviousRouting + Sync>, f64)> = Vec::new();
    let timed =
        |name: &'static str,
         build: &mut dyn FnMut() -> Box<dyn ObliviousRouting + Sync>,
         out: &mut Vec<(&'static str, Box<dyn ObliviousRouting + Sync>, f64)>| {
            let t0 = Instant::now();
            let routing = build();
            out.push((name, routing, t0.elapsed().as_secs_f64() * 1e3));
        };
    timed(
        "Räcke MWU (12 trees)",
        &mut || {
            Box::new(RaeckeRouting::build(
                g,
                &RaeckeOptions {
                    iterations: 12,
                    epsilon: 0.5,
                },
                &mut StdRng::seed_from_u64(5),
            ))
        },
        &mut out,
    );
    timed(
        "FRT ensemble (12 trees, no MWU)",
        &mut || Box::new(RaeckeRouting::frt_ensemble(g, 12, 7)),
        &mut out,
    );
    timed(
        "electrical (per-source PCG)",
        &mut || Box::new(ElectricalRouting::new(g).precomputed()),
        &mut out,
    );
    timed(
        "random walks (32 × len 4n)",
        &mut || Box::new(RandomWalkRouting::new(g, 32, 4 * g.n(), 13)),
        &mut out,
    );
    timed(
        "VLB (uniform intermediate)",
        &mut || Box::new(VlbRouting::new(g)),
        &mut out,
    );
    timed(
        "single shortest path",
        &mut || Box::new(ShortestPathRouting::new(g)),
        &mut out,
    );
    out
}

fn main() {
    banner(
        "A1",
        "template bake-off over the base oblivious routing (Theorem 5.3 is black-box in R)",
        "sampling inherits the base routing's competitiveness; build cost varies by orders of magnitude across schemes",
    );
    let alpha = 4usize;
    let opts = SolveOptions::with_eps(0.07);

    let topologies: Vec<(&str, Graph)> = vec![
        (
            "WAN (Waxman, n=48)",
            generators::waxman_connected(48, 0.4, 0.25, 3, 16).0,
        ),
        (
            "Clos (4 spines × 8 leaves × 2 hosts)",
            generators::leaf_spine(4, 8, 2, 1),
        ),
        ("hypercube (d=5)", generators::hypercube(5)),
    ];
    println!("α = {alpha}; 3 random permutation demands per topology\n");

    let mut table = Table::new(&[
        "topology",
        "base oblivious routing",
        "mean ratio(≤)",
        "build wall (ms)",
    ]);
    let mut rows: Vec<Row> = Vec::new();

    for (topo_name, g) in &topologies {
        let mut rng = StdRng::seed_from_u64(4);
        let demands: Vec<Demand> = (0..3)
            .map(|_| Demand::random_permutation(g.n(), &mut rng))
            .collect();
        for (i, (scheme, routing, build_ms)) in build_schemes(g).into_iter().enumerate() {
            let r = mean_ratio(routing.as_ref(), g, &demands, alpha, &opts, 20 + i as u64);
            table.row(&[
                topo_name.to_string(),
                scheme.to_string(),
                fx(r),
                format!("{build_ms:.2}"),
            ]);
            rows.push(Row {
                topology: topo_name.to_string(),
                base_routing: scheme.to_string(),
                mean_ratio: r,
                build_wall_ms: build_ms,
            });
        }
    }

    table.print();
    println!("\nshape check: every diverse randomized support beats the deterministic single");
    println!("             path; trees pay their build cost for worst-case guarantees, while");
    println!("             electrical flows are strong on expanders and random walks are the");
    println!("             cheap build that degrades on low-conductance topologies.");
    if let Some(p) = ssor_bench::save_json("a1_oblivious_ablation", &rows) {
        println!("\nresults -> {}", p.display());
    }
}
