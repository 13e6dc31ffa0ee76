//! E9 — the Section 5.3 machinery, measured: Monte-Carlo success rates of
//! the weak-routing process and the concentration the proof relies on.
//!
//! For fixed demands on a hypercube, runs the edge-deletion process over
//! many independent samples and reports the empirical failure rate of
//! "route at least half the demand at allowance γ" as α and γ vary —
//! the quantity Lemma 5.6 bounds by `m^{-(h+3)|supp(d)|}`. Also runs the
//! full Lemma 5.8 weak→strong pipeline end to end.

use serde::Serialize;
use ssor_bench::{banner, f3, Table};
use ssor_core::special::{process_weak_router, weak_to_strong};
use ssor_core::weak::{sample_multiset, verify_lemma_5_10, weak_route};
use ssor_core::PathSystem;
use ssor_flow::Demand;
use ssor_oblivious::{ObliviousRouting, ValiantRouting};

#[derive(Serialize)]
struct Row {
    alpha: usize,
    gamma: f64,
    trials: usize,
    success_rate: f64,
    mean_routed_fraction: f64,
    mean_overcongested_edges: f64,
}

fn main() {
    banner(
        "E9",
        "Section 5.3 dynamic process + Lemma 5.8 pipeline",
        "the sampled process routes >= half of a fixed demand except with probability exponentially small in siz(d)",
    );
    let dim = 5u32;
    let n = 1usize << dim;
    let valiant = ValiantRouting::new(dim);
    let d = Demand::hypercube_complement(dim);
    println!(
        "graph: hypercube n = {n}; demand: complement permutation (siz = {})\n",
        d.size()
    );

    let trials = 60usize;
    let mut table = Table::new(&[
        "α",
        "γ",
        "trials",
        "success",
        "mean routed",
        "mean overcong edges",
    ]);
    let mut rows = Vec::new();
    for alpha in [2usize, 4, 6] {
        for gamma in [2.0f64, 4.0, 8.0, 16.0] {
            let mut succ = 0usize;
            let mut frac_sum = 0.0;
            let mut over_sum = 0usize;
            for seed in 0..trials {
                let ms = sample_multiset(
                    &valiant,
                    &d.support(),
                    alpha,
                    1000 + seed as u64 * 17 + alpha as u64,
                );
                let out = weak_route(valiant.graph(), &ms, &d, gamma);
                verify_lemma_5_10(valiant.graph(), &d, &out).expect("Lemma 5.10 invariants");
                if out.succeeded() {
                    succ += 1;
                }
                frac_sum += out.routed_fraction;
                over_sum += out.overcongested_edges();
            }
            let rate = succ as f64 / trials as f64;
            table.row(&[
                alpha.to_string(),
                f3(gamma),
                trials.to_string(),
                f3(rate),
                f3(frac_sum / trials as f64),
                f3(over_sum as f64 / trials as f64),
            ]);
            rows.push(Row {
                alpha,
                gamma,
                trials,
                success_rate: rate,
                mean_routed_fraction: frac_sum / trials as f64,
                mean_overcongested_edges: over_sum as f64 / trials as f64,
            });
        }
    }
    table.print();
    println!("\nshape check: success jumps to 1 once γ clears a small multiple of the oblivious");
    println!("             congestion, faster for larger α — the Lemma 5.6 concentration.\n");

    // End-to-end Lemma 5.8 weak -> strong run.
    println!("-- Lemma 5.8 weak-to-strong pipeline (α = 5, γ = 10) --");
    let ms = sample_multiset(&valiant, &d.support(), 5, 4242);
    let mut ps = PathSystem::new();
    for paths in ms.values() {
        for p in paths {
            ps.insert(p.clone());
        }
    }
    let mut weak = process_weak_router(valiant.graph(), &ms, 10.0);
    let out = weak_to_strong(valiant.graph(), &d, &ps, &mut weak);
    println!(
        "covered {:.1}% of the demand in {} rounds with congestion {:.3} (γ·O(log m) budget: {:.1})",
        100.0 * out.covered.size() / d.size(),
        out.rounds,
        out.congestion,
        4.0 * 10.0 * (valiant.graph().m() as f64).ln()
    );
    if let Some(p) = ssor_bench::save_json("e9_tail_bounds", &rows) {
        println!("\nresults -> {}", p.display());
    }
}
