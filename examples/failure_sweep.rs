//! Failure sweep + demand stream: the dynamic-scenario subsystem end to
//! end.
//!
//! Part 1 runs a random-link-failure sweep on a leaf–spine Clos fabric:
//! per trial, two links die (`SubTopology` mask — no graph rebuild),
//! candidate paths crossing them are dropped, and the demand re-routes
//! on the survivors with a warm-started solve, compared against the
//! certified optimum of the *damaged* topology.
//!
//! Part 2 streams a diurnal gravity demand over a Waxman WAN through the
//! same sampled path system, warm-starting every step, and reports the
//! per-step quality ratio against a cold-solve oracle plus the iteration
//! savings.
//!
//! Run with: `cargo run --release --example failure_sweep`

use ssor::engine::{
    DemandSpec, PathSystemCache, Pipeline, StreamModel, TemplateSpec, TopologySpec,
};
use ssor::flow::SolveOptions;

fn main() {
    let cache = PathSystemCache::new();

    println!("== part 1: failure sweep on a leaf-spine Clos fabric ==\n");
    let fabric = TopologySpec::LeafSpine {
        spines: 4,
        leaves: 6,
        hosts_per_leaf: 2,
        uplink_mult: 2,
    };
    let pipeline = Pipeline::on(fabric)
        .template(TemplateSpec::Ksp { k: 6 })
        .alpha(4)
        .seed(7)
        .solve_options(SolveOptions::with_eps(0.1))
        .demand(
            "host-permutation",
            DemandSpec::RandomPermutation { seed: 3 },
        );

    let sweep = pipeline.failure_sweep(&cache, 2, 6);
    println!("trial  failed-links  retries  coverage  congestion  vs-cold   ratio-vs-damaged-OPT");
    for rec in &sweep.trials {
        println!(
            "{:>5}  {:>12}  {:>7}  {:>7.0}%  {:>10.4}  {:>7.4}  {:>12.3}",
            rec.trial,
            format!("{:?}", rec.failed_edges),
            rec.attempts,
            rec.coverage * 100.0,
            rec.congestion.unwrap_or(0.0),
            rec.congestion.unwrap_or(0.0) / rec.cold_congestion.unwrap_or(1.0).max(1e-300),
            rec.ratio.unwrap_or(f64::NAN),
        );
    }
    println!(
        "\nmean coverage {:.0}%, stranded mass {:.4}, worst ratio vs damaged OPT {:.3}\n",
        sweep.mean_coverage() * 100.0,
        sweep.total_stranded(),
        sweep.worst_ratio().unwrap_or(f64::NAN),
    );

    println!("== part 2: diurnal demand stream on a Waxman WAN ==\n");
    let wan = Pipeline::on(TopologySpec::Waxman {
        n: 24,
        a: 0.4.into(),
        b: 0.25.into(),
        seed: 5,
    })
    .alpha(4)
    .seed(5)
    .solve_options(SolveOptions::with_eps(0.1));
    let model = StreamModel::DiurnalGravity {
        total: 30.0.into(),
        period: 8,
        seed: 9,
    };

    let warm = wan.stream(&cache, 16, &model);
    println!("step  siz(d)   congestion  iters  cold-iters  warm/cold");
    for s in &warm.steps {
        println!(
            "{:>4}  {:>6.2}  {:>10.4}  {:>5}  {:>10}  {:>9.4}",
            s.step,
            s.size,
            s.congestion,
            s.iterations,
            s.cold_iterations.unwrap_or(0),
            s.vs_cold.unwrap_or(f64::NAN),
        );
    }
    println!(
        "\nwarm iterations {} vs cold {} ({:.1}x fewer), worst quality ratio {:.4}",
        warm.total_iterations(),
        warm.cold_total_iterations().unwrap_or(0),
        warm.cold_total_iterations().unwrap_or(0) as f64 / warm.total_iterations().max(1) as f64,
        warm.worst_vs_cold().unwrap_or(f64::NAN),
    );

    // The acceptance gate the CI smoke job checks: warm starts must keep
    // certified quality while doing less solver work.
    assert!(
        warm.worst_vs_cold().unwrap_or(f64::INFINITY) < 1.2,
        "warm quality drifted from the cold oracle"
    );
    assert!(
        warm.total_iterations() <= warm.cold_total_iterations().unwrap_or(0),
        "warm starts did more work than cold solves"
    );
    assert!(sweep.mean_coverage() > 0.5, "fabric lost too much coverage");
    println!("\nOK: warm-started dynamic scenarios are certified and cheaper.");
}
