//! SMORE-style traffic engineering (Section 1.1 consequence): a Waxman
//! WAN, gravity demands drifting over a simulated day, and a fixed
//! `α = 4` Räcke-sampled candidate set whose *rates* re-optimize every
//! snapshot.
//!
//! Run with: `cargo run --release --example traffic_engineering`

use rand::SeedableRng;
use ssor::core::sample::alpha_sample;
use ssor::flow::SolveOptions;
use ssor::oblivious::{RaeckeOptions, RaeckeRouting};
use ssor::te::{evaluate_snapshots, fail_link, GravityModel, Wan};

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(18);
    let wan = Wan::random(20, &mut rng);
    println!(
        "== SMORE on a Waxman WAN: {} routers, {} links (capacities as parallel edges: m = {}) ==\n",
        wan.n(),
        wan.link_count(),
        wan.graph.m()
    );

    // A day of gravity-model traffic, one snapshot per "hour".
    let model = GravityModel::sample(wan.n(), 60.0, &mut rng);
    let snapshots: Vec<_> = (0..8)
        .map(|t| model.snapshot(t * 3, 24, &mut rng))
        .collect();

    // Fixed candidate paths: α = 4 samples from Räcke's oblivious routing
    // (exactly SMORE's path selection).
    let raecke = RaeckeRouting::build(&wan.graph, &RaeckeOptions::default(), &mut rng);
    let pairs = snapshots[0].support();
    let paths = alpha_sample(&raecke, &pairs, 4, 18);
    println!(
        "installed candidate paths: sparsity {} over {} pairs\n",
        paths.sparsity(),
        pairs.len()
    );

    let opts = SolveOptions::with_eps(0.08);
    println!(
        "{:>9} {:>12} {:>10} {:>9}",
        "snapshot", "max-util", "opt(lb)", "ratio(≤)"
    );
    let reports = evaluate_snapshots(&wan, &paths, &snapshots, &opts);
    for r in &reports {
        println!(
            "{:>9} {:>12.3} {:>10.3} {:>8.2}x",
            r.snapshot, r.congestion, r.opt_lower_bound, r.ratio
        );
    }

    // Robustness drill: fail the first link whose loss keeps the WAN
    // connected.
    println!("\n-- link failure drill --");
    for link in 0..wan.link_count() {
        let kept: Vec<(u32, u32)> = wan
            .graph
            .edges()
            .filter(|(e, _)| !wan.replicas[link].contains(e))
            .map(|(_, uv)| uv)
            .collect();
        if !ssor::graph::Graph::from_edges(wan.graph.n(), &kept).is_connected() {
            continue;
        }
        let rep = fail_link(&wan, &paths, &snapshots[0], link, &opts);
        println!(
            "failed link {}: {:.1}% of pairs still covered; surviving congestion {:?} (opt lb {:.3})",
            rep.link,
            rep.coverage * 100.0,
            rep.congestion.map(|c| (c * 1000.0).round() / 1000.0),
            rep.opt_lower_bound
        );
        break;
    }
    println!("\n=> rate re-optimization on a fixed sparse path set tracks the moving optimum,");
    println!("   and the diversity of sampled paths gives failure robustness for free.");
}
