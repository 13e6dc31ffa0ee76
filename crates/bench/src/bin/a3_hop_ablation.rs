//! A3 — ablation: the simulated hop-constrained routing's two knobs
//! (landmark count, hop-stretch β) and their effect on the Section 7
//! completion-time pipeline.
//!
//! The GHZ21 interface promises dilation ≤ β·h with competitive
//! congestion; our landmark-Valiant stand-in enforces the dilation bound
//! structurally, so the knobs trade congestion against path diversity.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use ssor_bench::{banner, f3, Table};
use ssor_core::completion::{CompletionOptions, CompletionTimeRouter, ScaleGrowth};
use ssor_flow::{Demand, SolveOptions};
use ssor_graph::generators;
use ssor_oblivious::HopOptions;

#[derive(Serialize)]
struct Row {
    landmarks: usize,
    hop_stretch: f64,
    congestion: f64,
    dilation: usize,
    objective: f64,
    union_sparsity: usize,
}

fn main() {
    banner(
        "A3",
        "ablation: hop-constrained routing knobs (landmarks, hop-stretch) in the §7 pipeline",
        "dilation is capped structurally at β·h; more landmarks buy congestion through diversity",
    );
    let g = generators::torus(6, 6);
    let mut seed_rng = StdRng::seed_from_u64(13);
    let d = Demand::random_permutation(36, &mut seed_rng);
    let opts = SolveOptions::with_eps(0.06);
    println!("graph: torus 6x6 (n = 36); demand: random permutation; α = 4 per scale\n");

    let mut table = Table::new(&[
        "landmarks",
        "β",
        "congestion",
        "dilation",
        "cong+dil",
        "union sparsity",
    ]);
    let mut rows = Vec::new();
    for landmarks in [2usize, 8, 24] {
        for stretch in [1.5f64, 3.0, 6.0] {
            let router = CompletionTimeRouter::build(
                &g,
                &d.support(),
                &CompletionOptions {
                    alpha: 4,
                    growth: ScaleGrowth::Log,
                    hop: HopOptions {
                        landmarks,
                        hop_stretch: stretch,
                    },
                },
                14,
            );
            let route = router.route(&d, &opts);
            table.row(&[
                landmarks.to_string(),
                f3(stretch),
                f3(route.congestion),
                route.dilation.to_string(),
                f3(route.objective()),
                router.path_system().sparsity().to_string(),
            ]);
            rows.push(Row {
                landmarks,
                hop_stretch: stretch,
                congestion: route.congestion,
                dilation: route.dilation,
                objective: route.objective(),
                union_sparsity: router.path_system().sparsity(),
            });
        }
    }
    table.print();
    println!("\nshape check: congestion improves with landmark count (more diverse detours)");
    println!("             while dilation stays capped; β trades the two exactly as the");
    println!("             GHZ21 hop-stretch knob should.");
    if let Some(p) = ssor_bench::save_json("a3_hop_ablation", &rows) {
        println!("\nresults -> {}", p.display());
    }
}
