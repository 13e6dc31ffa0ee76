//! Micro-benchmarks for every stage of the reproduction pipeline, on a
//! tiny self-contained harness (the build container cannot fetch
//! criterion; `harness = false` keeps `cargo bench` working offline).
//! One group per subsystem; the experiment *tables* live in the
//! `e1_*`..`e9_*` binaries, these benches track the cost of the machinery
//! that regenerates them.
//!
//! Run with: `cargo bench -p ssor-bench`

use rand::rngs::StdRng;
use rand::SeedableRng;
use ssor_core::sample::{all_pairs, alpha_sample};
use ssor_core::weak::{sample_multiset, weak_route};
use ssor_engine::{DemandSpec, PathSystemCache, Pipeline, StreamModel, TemplateSpec, TopologySpec};
use ssor_flow::rounding::round_routing;
use ssor_flow::solver::{min_congestion_restricted, min_congestion_unrestricted, SolveOptions};
use ssor_flow::Demand;
use ssor_graph::maxflow::min_cut_value;
use ssor_graph::{generators, Path};
use ssor_lowerbound::{c_graph, find_adversarial_demand};
use ssor_oblivious::frt::{FrtTree, Metric};
use ssor_oblivious::{ObliviousRouting, RaeckeOptions, RaeckeRouting, ValiantRouting};
use ssor_sim::{simulate, Scheduler, SimConfig};
use std::time::Instant;

/// Times `f` over `iters` runs (after one warmup) and prints min/mean.
fn bench<T>(group: &str, name: &str, iters: usize, mut f: impl FnMut() -> T) {
    let _warmup = f();
    let mut times = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        let out = f();
        times.push(t0.elapsed());
        drop(out);
    }
    let min = times.iter().min().expect("nonempty");
    let mean = times.iter().sum::<std::time::Duration>() / iters as u32;
    println!(
        "{group:>16} / {name:<40} min {:>10.1?}  mean {:>10.1?}  ({iters} iters)",
        min, mean
    );
}

fn bench_graph_substrate() {
    let q6 = generators::hypercube(6);
    bench("graph", "dinic_min_cut_hypercube6", 20, || {
        min_cut_value(&q6, 0, 63)
    });
    bench("graph", "hypercube_generate_d8", 20, || {
        generators::hypercube(8)
    });
    let grid = generators::grid(8, 8);
    bench("graph", "ksp_yen_k4_grid8x8", 20, || {
        ssor_graph::ksp::k_shortest_paths(&grid, 0, 63, 4, &|_| 1.0)
    });
}

fn bench_embeddings() {
    let grid = generators::grid(8, 8);
    let metric = Metric::hops(&grid);
    let mut draw = 0u64;
    bench("embeddings", "frt_sample_grid8x8", 10, || {
        draw += 1;
        FrtTree::sample_seeded(&metric, grid.n(), draw)
    });
    let small = generators::grid(5, 5);
    let mut rng2 = StdRng::seed_from_u64(2);
    bench("embeddings", "raecke_build_grid5x5_8trees", 10, || {
        RaeckeRouting::build(
            &small,
            &RaeckeOptions {
                iterations: 8,
                epsilon: 0.5,
            },
            &mut rng2,
        )
    });
}

fn bench_edge_loads() {
    // The representation layer: dense per-edge accumulation and the
    // deterministic parallel reduction, at the n (edge count) scales the
    // issue tracks.
    use ssor_graph::EdgeLoads;
    for m in [256usize, 1024] {
        // Synthetic "paths": fixed pseudo-random edge lists of length 8.
        let paths: Vec<Vec<u32>> = (0..512)
            .map(|i| (0..8).map(|j| ((i * 31 + j * 17) % m) as u32).collect())
            .collect();
        bench(
            "edge_loads",
            &format!("accumulate_512paths_m{m}"),
            50,
            || {
                let mut l = EdgeLoads::zeros(m);
                for (i, p) in paths.iter().enumerate() {
                    l.add_edges(p, 0.5 + (i % 7) as f64 * 0.25);
                }
                l.max()
            },
        );
        let parts: Vec<EdgeLoads> = (0..32)
            .map(|k| {
                EdgeLoads::from_vec(
                    (0..m)
                        .map(|i| ((i * 13 + k * 7) % 51) as f64 * 0.125)
                        .collect(),
                )
            })
            .collect();
        bench("edge_loads", &format!("merge_32parts_m{m}"), 50, || {
            let mut acc = EdgeLoads::zeros(m);
            for p in &parts {
                acc.merge(p);
            }
            acc
        });
        bench("edge_loads", &format!("par_merge_32parts_m{m}"), 50, || {
            EdgeLoads::par_merge(&parts)
        });
    }
}

fn bench_sampling() {
    let valiant = ValiantRouting::new(6);
    let pairs = all_pairs(64);
    bench("sampling", "alpha4_hypercube6", 20, || {
        alpha_sample(&valiant, &pairs, 4, 3)
    });
}

fn bench_engine() {
    // Cold vs warm pipeline run: the warm run answers sampling, template,
    // and OPT from the cache and only repeats the restricted solve.
    let mk = || {
        Pipeline::on(TopologySpec::Hypercube { dim: 6 })
            .template(TemplateSpec::Valiant)
            .alpha(4)
            .seed(9)
            .solve_options(SolveOptions::with_eps(0.1))
            .demand("bit-reversal", DemandSpec::BitReversal)
    };
    bench("engine", "pipeline_run_cold_hypercube6", 5, || {
        mk().run(&PathSystemCache::new())
    });
    let warm_cache = PathSystemCache::new();
    mk().run(&warm_cache);
    bench("engine", "pipeline_run_warm_hypercube6", 5, || {
        mk().run(&warm_cache)
    });
}

fn bench_stream() {
    // A 20-step diurnal gravity stream over a Waxman WAN, solved twice:
    // warm-started incremental re-solves (each step restarts from the
    // previous flow) vs the cold-solve baseline (every step from
    // scratch). Both share one prepared path system via the cache, so
    // the timings isolate the solver work the warm start saves. The
    // per-step cold quality oracle is disabled (`without_opt`) to keep
    // the comparison apples-to-apples.
    let pipeline = Pipeline::on(TopologySpec::Waxman {
        n: 24,
        a: 0.4.into(),
        b: 0.25.into(),
        seed: 5,
    })
    .alpha(4)
    .seed(5)
    .solve_options(SolveOptions::with_eps(0.1))
    .without_opt();
    let model = StreamModel::DiurnalGravity {
        total: 30.0.into(),
        period: 8,
        seed: 9,
    };
    let cache = PathSystemCache::new();
    pipeline.prepare(&cache); // sampling outside the timed region
    bench("stream", "warm_20step_diurnal_wan24_alpha4", 5, || {
        pipeline.stream(&cache, 20, &model)
    });
    bench("stream", "cold_20step_diurnal_wan24_alpha4", 5, || {
        pipeline.stream_cold(&cache, 20, &model)
    });
    let warm = pipeline.stream(&cache, 20, &model);
    let cold = pipeline.stream_cold(&cache, 20, &model);
    println!(
        "{:>16} / iterations: warm {} vs cold {} ({:.2}x fewer), all converged: {}",
        "stream",
        warm.total_iterations(),
        cold.total_iterations(),
        cold.total_iterations() as f64 / warm.total_iterations().max(1) as f64,
        warm.all_converged() && cold.all_converged(),
    );
}

fn bench_solvers() {
    let valiant = ValiantRouting::new(6);
    let d = Demand::hypercube_bit_reversal(6);
    let mut rng = StdRng::seed_from_u64(4);
    let ps = alpha_sample(&valiant, &d.support(), 4, 4);
    let opts = SolveOptions::with_eps(0.1);
    bench("solvers", "restricted_mwu_hypercube6_alpha4", 10, || {
        min_congestion_restricted(valiant.graph(), &d, ps.candidates(), &opts)
    });
    let grid = generators::grid(5, 5);
    let dperm = Demand::random_permutation(25, &mut rng);
    bench("solvers", "offline_opt_grid5x5_perm", 10, || {
        min_congestion_unrestricted(&grid, &dperm, &opts)
    });
    // The parallel-oracle showcase: a 64-source permutation on a Q6, so
    // every Frank–Wolfe iteration fans 64 Dijkstra trees out over the
    // rayon workers (the restricted/grid cases above are too small to
    // leave the serial cutoff). Multi-thread runs should beat 1-thread
    // here while producing bit-identical numbers.
    let q6 = generators::hypercube(6);
    let dbig = Demand::random_permutation(64, &mut rng);
    bench("solvers", "offline_opt_hypercube6_perm64", 5, || {
        min_congestion_unrestricted(&q6, &dbig, &opts)
    });
    let mut sub = q6.sub_topology();
    for e in [3u32, 31, 77, 120] {
        sub.fail_edge(e);
    }
    let usable = sub.usable_edges();
    bench("solvers", "masked_opt_hypercube6_perm64_k4", 5, || {
        ssor_flow::solver::min_congestion_masked(&q6, &dbig, &usable, &opts)
    });
    // Oracle share of the solver's wall-clock (bounds the parallel
    // speedup): report once so regressions are visible in bench logs.
    let sol = min_congestion_unrestricted(&q6, &dbig, &opts);
    println!(
        "{:>16} / oracle share: {:.0}% of {:?} ({} oracle calls, {} iters, converged: {})",
        "solvers",
        sol.stats.oracle_share() * 100.0,
        sol.stats.total_wall,
        sol.stats.oracle_calls,
        sol.iterations,
        sol.converged,
    );
}

fn bench_rounding_and_sim() {
    let q5 = generators::hypercube(5);
    let d = Demand::hypercube_complement(5);
    let valiant = ValiantRouting::new(5);
    let mut rng = StdRng::seed_from_u64(5);
    let ps = alpha_sample(&valiant, &d.support(), 4, 5);
    let sol = min_congestion_restricted(&q5, &d, ps.candidates(), &SolveOptions::with_eps(0.1));
    bench("rounding_sim", "round_lemma63_hypercube5", 20, || {
        round_routing(&q5, &sol.routing, &d, 8, &mut rng)
    });
    let paths: Vec<Path> = d
        .support()
        .iter()
        .map(|&(s, t)| ssor_graph::shortest_path::bfs_path(&q5, s, t).unwrap())
        .collect();
    bench(
        "rounding_sim",
        "simulate_random_rank_hypercube5",
        20,
        || {
            simulate(
                &q5,
                &paths,
                &SimConfig {
                    scheduler: Scheduler::RandomRank,
                    seed: 7,
                },
            )
        },
    );
}

fn bench_paper_machinery() {
    // Weak-routing dynamic process (Section 5.3).
    let valiant = ValiantRouting::new(5);
    let d = Demand::hypercube_complement(5);
    let mut rng = StdRng::seed_from_u64(6);
    let ms = sample_multiset(&valiant, &d.support(), 4, 6);
    bench("paper", "weak_route_hypercube5_alpha4", 10, || {
        weak_route(valiant.graph(), &ms, &d, 8.0)
    });
    // Lemma 8.1 adversary on C(64, 8).
    let (cg, meta) = c_graph(64, 8);
    let mut ps = ssor_core::PathSystem::new();
    use rand::seq::SliceRandom;
    for &s in &meta.left_leaves {
        for &t in &meta.right_leaves {
            let mid = *meta.middle.choose(&mut rng).unwrap();
            ps.insert(
                Path::from_vertices(&cg, &[s, meta.left_center, mid, meta.right_center, t])
                    .unwrap(),
            );
        }
    }
    bench("paper", "lemma81_adversary_c64_8", 10, || {
        find_adversarial_demand(&meta, &ps, 1)
    });
}

fn main() {
    println!("ssor pipeline micro-benchmarks (offline harness)\n");
    bench_graph_substrate();
    bench_edge_loads();
    bench_embeddings();
    bench_sampling();
    bench_engine();
    bench_stream();
    bench_solvers();
    bench_rounding_and_sim();
    bench_paper_machinery();
}
