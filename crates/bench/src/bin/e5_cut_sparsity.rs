//! E5 — Theorem 5.3 and the two-cliques example of Section 2.1:
//! `(α + cut)`-sparsity is necessary and sufficient for fractional
//! demands.
//!
//! A single unit of demand between the cliques can be spread over `cut`
//! bridges by the optimum (congestion `1/cut`), so any `β`-competitive
//! system needs `≥ cut/β` candidate paths: plain `α`-samples are doomed,
//! `(α + cut)`-samples are fine. Also exercises the special-demand
//! bucketing of Lemma 5.9 on the same instance.

use serde::Serialize;
use ssor_bench::{banner, f3, fx, Table};
use ssor_core::sample::{alpha_cut_sample, alpha_sample};
use ssor_core::special::{bucket_decompose, is_special};
use ssor_core::SemiObliviousRouter;
use ssor_flow::{Demand, SolveOptions};
use ssor_graph::generators;
use ssor_oblivious::KspRouting;

#[derive(Serialize)]
struct Row {
    clique: usize,
    bridges: usize,
    alpha: usize,
    ratio_alpha_sample: f64,
    ratio_alpha_cut_sample: f64,
}

fn main() {
    banner(
        "E5",
        "Theorem 5.3 + Section 2.1 two-cliques example",
        "alpha-sparse systems cannot be competitive for fractional demands (need cut/β paths); (alpha + cut)-samples are",
    );
    let opts = SolveOptions::with_eps(0.03);
    let alpha = 2usize;
    let mut table = Table::new(&[
        "clique",
        "bridges(=cut)",
        "α",
        "α-sample ratio",
        "(α+cut)-sample ratio",
    ]);
    let mut rows = Vec::new();

    for bridges in [2usize, 4, 6, 8] {
        let size = 10;
        let g = generators::two_cliques_bridge(size, bridges);
        // Demand: one unit from a bridgeless vertex of clique A to one of
        // clique B — OPT spreads it over all bridges.
        let s = (size - 1) as u32;
        let t = (2 * size - 1) as u32;
        let d = Demand::from_pairs(&[(s, t)]);
        let ksp = KspRouting::new(&g, bridges + alpha + 2);

        let plain = alpha_sample(&ksp, &[(s, t)], alpha, 600 + bridges as u64);
        let cutful = alpha_cut_sample(&ksp, &g, &[(s, t)], alpha, 600 + bridges as u64);

        let r1 = SemiObliviousRouter::new(g.clone(), plain).competitive_report(&d, &opts);
        let r2 = SemiObliviousRouter::new(g.clone(), cutful).competitive_report(&d, &opts);
        table.row(&[
            size.to_string(),
            bridges.to_string(),
            alpha.to_string(),
            fx(r1.ratio),
            fx(r2.ratio),
        ]);
        rows.push(Row {
            clique: size,
            bridges,
            alpha,
            ratio_alpha_sample: r1.ratio,
            ratio_alpha_cut_sample: r2.ratio,
        });
    }
    table.print();
    println!("\nshape check: the α-sample ratio grows like cut/α; the (α+cut)-sample stays O(1).");

    // Lemma 5.9 bucketing demo on a mixed-magnitude demand.
    println!("\n-- Lemma 5.9 special-demand bucketing --");
    let g = generators::two_cliques_bridge(6, 3);
    let mut d = Demand::new();
    d.set(0, 7, 0.5);
    d.set(1, 8, 4.0);
    d.set(2, 9, 40.0);
    let buckets = bucket_decompose(&g, &d, alpha);
    let mut bt = Table::new(&["bucket", "pairs", "scale", "special?"]);
    for (i, b) in buckets.iter().enumerate() {
        bt.row(&[
            i.to_string(),
            b.part.support_len().to_string(),
            f3(b.scale),
            is_special(&g, &b.special, alpha).to_string(),
        ]);
    }
    bt.print();
    println!(
        "\n{} buckets cover the demand exactly (O(log m) predicted by Lemma 5.9).",
        buckets.len()
    );
    if let Some(p) = ssor_bench::save_json("e5_cut_sparsity", &rows) {
        println!("\nresults -> {}", p.display());
    }
}
