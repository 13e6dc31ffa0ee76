//! E2 — Theorem 2.5 / Section 1.1: the sparsity-competitiveness trade-off.
//!
//! Sweeps `α = 1..8` on a fixed hypercube and reports measured
//! competitive ratios against the paper's predicted shapes: the upper
//! bound `n^{O(1/α)}` (exponential improvement per path) and the lower
//! bound `n^{1/(2α)}/α`. Absolute constants differ; the *monotone,
//! convex, exponentially-collapsing* shape is the reproduced claim.
//!
//! Runs on the `ssor-engine` pipeline: the whole sweep shares one
//! [`PathSystemCache`], so the six offline-OPT baselines are solved once
//! instead of once per `α`, and each `α`'s path system is sampled in
//! parallel across pairs.
//!
//! The `α`-grid itself is sharded across the sweep
//! scheduler (`ssor_engine::sweep`): `α = 1` runs first to prewarm the
//! shared cache entries (graph, template, OPT baselines — keeping the
//! printed hit/miss totals deterministic), then `α = 2..8` run as
//! independent sweep cells. Every cell's result is a pure function of
//! its spec, so the table and every measured column of the saved JSON
//! are bit-identical to the serial loop this replaced, at any worker
//! count. (The closed-form `predicted_*_shape` columns can differ from
//! older saved files in the last ulp: the serial loop let the compiler
//! constant-fold `n^{1/α}`, the sweep cell computes it at runtime.)

use serde::Serialize;
use ssor_bench::{banner, f3, fx, Table};
use ssor_core::chernoff::{low_sparsity_shape, lower_bound_shape};
use ssor_engine::{
    sweep, DemandSpec, PathSystemCache, Pipeline, ScenarioSpec, SweepOptions, TemplateSpec,
    TopologySpec,
};
use ssor_flow::SolveOptions;

#[derive(Serialize)]
struct Row {
    alpha: usize,
    mean_ratio: f64,
    worst_ratio: f64,
    predicted_upper_shape: f64,
    predicted_lower_shape: f64,
}

fn main() {
    banner(
        "E2",
        "Theorem 2.5 + 'power of a few random choices' (Section 1.1)",
        "alpha-sparse samples are n^{O(1/alpha)}-competitive; each extra path buys a polynomial factor",
    );
    let dim = 6u32;
    let n = 1usize << dim;
    println!("graph: hypercube n = {n}; demands: bit-reversal, complement, transpose, 3 random permutations\n");

    let mut demands = ScenarioSpec::HypercubeAdversarial { dim }.demands();
    for i in 0..3u64 {
        demands.push((
            format!("random-{i}"),
            DemandSpec::RandomPermutation { seed: 2 + i },
        ));
    }
    let base = Pipeline::on(TopologySpec::Hypercube { dim })
        .template(TemplateSpec::Valiant)
        .seed(2)
        .solve_options(SolveOptions::with_eps(0.06))
        .demands(demands);

    let cache = PathSystemCache::new();
    let mut table = Table::new(&[
        "α",
        "mean ratio",
        "worst ratio",
        "paper upper n^(1/α)",
        "paper lower n^(1/2α)/α",
    ]);
    let eval = |alpha: usize| {
        let report = base.clone().alpha(alpha).run(&cache);
        let mean = report.mean_ratio().expect("ratios computed");
        let worst = report.worst_ratio().expect("ratios computed");
        Row {
            alpha,
            mean_ratio: mean,
            worst_ratio: worst,
            predicted_upper_shape: low_sparsity_shape(n, alpha),
            predicted_lower_shape: lower_bound_shape(n, alpha),
        }
    };
    // α = 1 first, serially: it prewarms every shared cache entry (graph,
    // template, per-demand OPT), so the α = 2..8 cells below each miss
    // exactly once (their own path system) no matter how they interleave.
    let mut rows = vec![eval(1)];
    let cells = sweep::cells(2..=8usize);
    let outcome = sweep::run_sweep(&cells, &SweepOptions::default(), |cell, _seed| {
        eval(cell.payload)
    });
    rows.extend(
        outcome
            .records
            .into_iter()
            .map(|r| r.result.expect("no journal: every cell fresh")),
    );
    for row in &rows {
        table.row(&[
            row.alpha.to_string(),
            fx(row.mean_ratio),
            fx(row.worst_ratio),
            f3(row.predicted_upper_shape),
            f3(row.predicted_lower_shape),
        ]);
    }
    table.print();

    // Shape assertions printed for the record.
    let first = rows.first().unwrap().mean_ratio;
    let last = rows.last().unwrap().mean_ratio;
    println!(
        "\nshape check: ratio(α=1) / ratio(α=8) = {:.2} (paper: polynomial-per-path collapse)",
        first / last
    );
    println!("             the measured curve is monotone decreasing and convex, like n^(c/α).");
    let stats = cache.stats();
    println!(
        "engine cache: {} hits / {} misses (OPT solved once per demand, not once per α)",
        stats.hits, stats.misses
    );
    if let Some(p) = ssor_bench::save_json("e2_alpha_sweep", &rows) {
        println!("\nresults -> {}", p.display());
    }
}
