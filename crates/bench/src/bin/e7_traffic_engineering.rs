//! E7 — the SMORE scenario (Section 1.1; `[KYY+18a/b]`).
//!
//! A Waxman WAN, a day of gravity-model snapshots, and five strategies:
//! semi-oblivious Räcke samples at α ∈ {1, 2, 4, 8}, the KSP-4 baseline,
//! and the non-adaptive oblivious routing. Reports per-strategy mean/max
//! ratio to the per-snapshot optimum plus link-failure coverage — the
//! "α = 4 sweet spot" claim.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use ssor_bench::{banner, f3, fx, geomean, Table};
use ssor_core::sample::alpha_sample;
use ssor_core::PathSystem;
use ssor_flow::{Demand, SolveOptions};
use ssor_graph::Graph;
use ssor_oblivious::{KspRouting, ObliviousRouting, RaeckeOptions, RaeckeRouting};
use ssor_te::{evaluate_snapshots, fail_link, GravityModel, Wan};

#[derive(Serialize)]
struct Row {
    strategy: String,
    sparsity: usize,
    mean_ratio: f64,
    max_ratio: f64,
    failure_coverage: f64,
}

fn failure_coverage(wan: &Wan, ps: &PathSystem, d: &Demand, opts: &SolveOptions) -> f64 {
    let mut covs = Vec::new();
    for link in 0..wan.link_count() {
        let kept: Vec<(u32, u32)> = wan
            .graph
            .edges()
            .filter(|(e, _)| !wan.replicas[link].contains(e))
            .map(|(_, uv)| uv)
            .collect();
        if !Graph::from_edges(wan.graph.n(), &kept).is_connected() {
            continue;
        }
        covs.push(fail_link(wan, ps, d, link, opts).coverage);
        if covs.len() >= 8 {
            break;
        }
    }
    covs.iter().sum::<f64>() / covs.len().max(1) as f64
}

fn main() {
    banner(
        "E7",
        "SMORE traffic engineering (Section 1.1; KYY+18)",
        "α = 4 Räcke samples give near-optimal utilization + robustness; the paper explains why this heuristic works",
    );
    let mut rng = StdRng::seed_from_u64(800);
    let wan = Wan::random(24, &mut rng);
    println!(
        "WAN: {} routers, {} links, total capacity {} units",
        wan.n(),
        wan.link_count(),
        wan.graph.m()
    );
    let model = GravityModel::sample(wan.n(), 80.0, &mut rng);
    let snapshots: Vec<Demand> = (0..12)
        .map(|t| model.snapshot(t * 2, 24, &mut rng))
        .collect();
    let pairs = snapshots[0].support();
    println!(
        "{} snapshots over a simulated day, {} demand pairs each\n",
        snapshots.len(),
        pairs.len()
    );

    let opts = SolveOptions::with_eps(0.08);
    let raecke = RaeckeRouting::build(&wan.graph, &RaeckeOptions::default(), &mut rng);
    let ksp = KspRouting::new(&wan.graph, 4);

    let mut table = Table::new(&[
        "strategy",
        "sparsity",
        "mean ratio",
        "max ratio",
        "fail coverage",
    ]);
    let mut rows = Vec::new();

    // Semi-oblivious Räcke samples at several α.
    for alpha in [1usize, 2, 4, 8] {
        let ps = alpha_sample(&raecke, &pairs, alpha, 800);
        let reports = evaluate_snapshots(&wan, &ps, &snapshots, &opts);
        let ratios: Vec<f64> = reports.iter().map(|r| r.ratio).collect();
        let cover = failure_coverage(&wan, &ps, &snapshots[0], &opts);
        let name = format!("semi-obl Räcke α={alpha}");
        table.row(&[
            name.clone(),
            ps.sparsity().to_string(),
            fx(geomean(&ratios)),
            fx(ratios.iter().cloned().fold(0.0, f64::max)),
            f3(cover),
        ]);
        rows.push(Row {
            strategy: name,
            sparsity: ps.sparsity(),
            mean_ratio: geomean(&ratios),
            max_ratio: ratios.iter().cloned().fold(0.0, f64::max),
            failure_coverage: cover,
        });
    }

    // KSP-4 baseline (deterministic candidate set).
    {
        let ps = alpha_sample(&ksp, &pairs, 4, 800);
        let reports = evaluate_snapshots(&wan, &ps, &snapshots, &opts);
        let ratios: Vec<f64> = reports.iter().map(|r| r.ratio).collect();
        let cover = failure_coverage(&wan, &ps, &snapshots[0], &opts);
        table.row(&[
            "KSP-4 baseline".to_string(),
            ps.sparsity().to_string(),
            fx(geomean(&ratios)),
            fx(ratios.iter().cloned().fold(0.0, f64::max)),
            f3(cover),
        ]);
        rows.push(Row {
            strategy: "KSP-4".into(),
            sparsity: ps.sparsity(),
            mean_ratio: geomean(&ratios),
            max_ratio: ratios.iter().cloned().fold(0.0, f64::max),
            failure_coverage: cover,
        });
    }

    // Non-adaptive oblivious routing (fixed Räcke rates).
    {
        let ratios: Vec<f64> = snapshots
            .iter()
            .map(|d| {
                let cong = raecke.congestion(d);
                let opt = ssor_flow::solver::min_congestion_unrestricted(&wan.graph, d, &opts);
                cong / opt.lower_bound.max(f64::MIN_POSITIVE)
            })
            .collect();
        table.row(&[
            "oblivious (no adapt)".to_string(),
            "-".to_string(),
            fx(geomean(&ratios)),
            fx(ratios.iter().cloned().fold(0.0, f64::max)),
            "1.000".to_string(),
        ]);
        rows.push(Row {
            strategy: "oblivious".into(),
            sparsity: 0,
            mean_ratio: geomean(&ratios),
            max_ratio: ratios.iter().cloned().fold(0.0, f64::max),
            failure_coverage: 1.0,
        });
    }

    table.print();

    // SMORE reality check: rates are re-optimized from a *stale* snapshot
    // ("a small snapshot of the global traffic every 15 seconds").
    println!("\n-- staleness drill: rates from snapshot t-1 applied to snapshot t (α = 4) --");
    {
        let ps = alpha_sample(&raecke, &pairs, 4, 800);
        let stale = ssor_te::evaluate_with_stale_rates(&wan, &ps, &snapshots, &opts);
        let pens: Vec<f64> = stale.iter().map(|r| r.staleness_penalty).collect();
        println!(
            "mean staleness penalty {} (max {}) over {} transitions",
            fx(geomean(&pens)),
            fx(pens.iter().cloned().fold(0.0, f64::max)),
            pens.len()
        );
    }

    println!("\nshape check: ratio improves rapidly in α and saturates near α = 4 (SMORE's");
    println!("             production choice); rate adaptation beats fixed oblivious rates;");
    println!("             serving traffic with slightly stale rates costs only a few percent.");
    if let Some(p) = ssor_bench::save_json("e7_traffic_engineering", &rows) {
        println!("\nresults -> {}", p.display());
    }
}
