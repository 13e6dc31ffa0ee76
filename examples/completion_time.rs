//! Completion time (Section 7): hop-scale ladders, the congestion +
//! dilation objective, and an actual packet-level schedule to back the
//! objective up.
//!
//! On a barbell graph, pure congestion minimization happily sends clique
//! traffic around the long handle; the completion-time router must not.
//!
//! Run with: `cargo run --release --example completion_time`

use rand::SeedableRng;
use ssor::core::completion::{CompletionOptions, CompletionTimeRouter};
use ssor::flow::rounding::round_routing;
use ssor::flow::{Demand, SolveOptions};
use ssor::graph::generators;
use ssor::sim::{simulate_routing, Scheduler, SimConfig};

fn main() {
    let g = generators::barbell(8, 10);
    println!(
        "== completion time on a barbell: two 8-cliques, 10-hop handle (n = {}, m = {}) ==\n",
        g.n(),
        g.m()
    );

    // Demand: heavy intra-clique chatter plus one cross-handle pair.
    let mut d = Demand::new();
    for i in 0..7u32 {
        d.set(i, i + 1, 1.0);
        d.set(8 + i, 8 + i + 1, 1.0);
    }
    d.set(0, 8, 1.0); // must cross the handle
    println!("demand: {} pairs, siz(d) = {}", d.support_len(), d.size());

    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let router = CompletionTimeRouter::build(&g, &d.support(), &CompletionOptions::default(), 31);
    println!(
        "hop-scale ladder: {:?}; union sparsity {}",
        router.scales(),
        router.path_system().sparsity()
    );

    let route = router.route(&d, &SolveOptions::with_eps(0.05));
    println!(
        "\nchosen scale h = {} -> congestion {:.2}, dilation {}, objective {:.2}",
        router.scales()[route.scale_index],
        route.congestion,
        route.dilation,
        route.objective()
    );

    // Schedule the rounded routing with random ranks and measure makespan.
    let rounded = round_routing(&g, &route.routing, &d, 16, &mut rng);
    for sched in [
        Scheduler::Fifo,
        Scheduler::FarthestToGo,
        Scheduler::RandomRank,
    ] {
        let out = simulate_routing(
            &g,
            &rounded.routing,
            &SimConfig {
                scheduler: sched,
                seed: 5,
            },
        );
        println!(
            "schedule [{sched:?}]: makespan {} vs C + D = {} + {} (overhead {:.2}x)",
            out.makespan,
            out.congestion,
            out.dilation,
            out.overhead()
        );
    }
    println!("\n=> minimizing congestion + dilation over the hop-laddered samples keeps the");
    println!("   actual packet completion time within a small constant of the objective.");
}
