//! The standing perf harness: pinned benchmark groups whose wall-time
//! medians are written to `BENCH_pipeline.json`, `BENCH_solver.json`,
//! `BENCH_templates.json`, `BENCH_serve.json`, and `BENCH_lint.json`
//! **at the repo root** each PR, so the perf trajectory between PRs is
//! a recorded number instead of a guess.
//!
//! Contract (see README "Perf trajectory"):
//!
//! * specs and seeds are **pinned** — a changed median means the *code*
//!   changed speed, not the workload;
//! * rounds are **interleaved** (round-robin across the group per
//!   round), so ambient machine noise spreads evenly across benches
//!   instead of biasing whichever ran last;
//! * the recorded statistic is the **median** of an odd number of
//!   rounds, with min/max kept for spread.
//!
//! `--smoke` swaps in tiny specs (seconds, for CI liveness + JSON-shape
//! checking); the committed records always come from a full run:
//! `cargo run --release -p ssor-bench --bin bench_trajectory`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use ssor_bench::{save_json_at_root, Table};
use ssor_core::sample::alpha_sample;
use ssor_engine::{DemandSpec, PathSystemCache, Pipeline, TemplateSpec, TopologySpec};
use ssor_flow::solver::{
    min_congestion_masked, min_congestion_restricted, min_congestion_unrestricted,
};
use ssor_flow::{Demand, SolveOptions};
use ssor_graph::generators;
use ssor_oblivious::frt::{FrtTree, Metric};
use ssor_oblivious::{
    ElectricalRouting, ObliviousRouting, RaeckeOptions, RaeckeRouting, RandomWalkRouting,
    ValiantRouting,
};
use ssor_serve::{
    answer_batch_on, churned_source, ChurnModel, EpochCell, QueryPlane, Rebuilder, Request,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct BenchRow {
    name: String,
    median_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

#[derive(Serialize)]
struct BenchGroup {
    group: String,
    mode: String,
    rounds: usize,
    benches: Vec<BenchRow>,
}

type Bench<'a> = (String, Box<dyn FnMut() + 'a>);

/// Runs `benches` for `rounds` interleaved rounds (after one untimed
/// warmup round) and writes `BENCH_<group>.json` at the repo root.
fn run_group(group: &str, mode: &str, rounds: usize, mut benches: Vec<Bench<'_>>) {
    assert!(rounds % 2 == 1, "odd round count keeps the median a sample");
    for (_, f) in benches.iter_mut() {
        f();
    }
    let mut times: Vec<Vec<u64>> = vec![Vec::with_capacity(rounds); benches.len()];
    for _ in 0..rounds {
        for (i, (_, f)) in benches.iter_mut().enumerate() {
            let t0 = Instant::now();
            f();
            times[i].push(t0.elapsed().as_nanos() as u64);
        }
    }
    let rows: Vec<BenchRow> = benches
        .iter()
        .zip(times.iter_mut())
        .map(|((name, _), ts)| {
            ts.sort_unstable();
            BenchRow {
                name: name.clone(),
                median_ns: ts[ts.len() / 2],
                min_ns: ts[0],
                max_ns: ts[ts.len() - 1],
            }
        })
        .collect();

    let mut table = Table::new(&["bench", "median", "min", "max"]);
    for r in &rows {
        table.row(&[
            r.name.clone(),
            format!("{:.1?}", std::time::Duration::from_nanos(r.median_ns)),
            format!("{:.1?}", std::time::Duration::from_nanos(r.min_ns)),
            format!("{:.1?}", std::time::Duration::from_nanos(r.max_ns)),
        ]);
    }
    println!("\n== {group} ({mode}, {rounds} interleaved rounds) ==");
    table.print();
    let record = BenchGroup {
        group: group.to_string(),
        mode: mode.to_string(),
        rounds,
        benches: rows,
    };
    match save_json_at_root(&format!("BENCH_{group}"), &record) {
        Some(p) => println!("-> {}", p.display()),
        None => eprintln!("warning: could not write BENCH_{group}.json"),
    }
}

fn pipeline_group(smoke: bool) -> Vec<Bench<'static>> {
    let (dim, sweep_dim) = if smoke { (4, 3) } else { (6, 5) };
    let mk = move || {
        Pipeline::on(TopologySpec::Hypercube { dim })
            .template(TemplateSpec::Valiant)
            .alpha(4)
            .seed(9)
            .solve_options(SolveOptions::with_eps(0.1))
            .demand("bit-reversal", DemandSpec::BitReversal)
    };
    let warm_cache = PathSystemCache::new();
    mk().run(&warm_cache);
    let sweep = Pipeline::on(TopologySpec::Hypercube { dim: sweep_dim })
        .template(TemplateSpec::Valiant)
        .alpha(3)
        .seed(5)
        .solve_options(SolveOptions::with_eps(0.1))
        .without_opt()
        .demand("complement", DemandSpec::Complement);
    let sweep_cache = PathSystemCache::new();
    sweep.prepare(&sweep_cache);
    let trials = if smoke { 2 } else { 4 };
    vec![
        (
            format!("pipeline_cold_hypercube{dim}_alpha4"),
            Box::new(move || {
                mk().run(&PathSystemCache::new());
            }),
        ),
        (
            format!("pipeline_warm_hypercube{dim}_alpha4"),
            Box::new(move || {
                mk().run(&warm_cache);
            }),
        ),
        (
            format!("failure_sweep_hypercube{sweep_dim}_k2_t{trials}"),
            Box::new(move || {
                sweep.failure_sweep(&sweep_cache, 2, trials);
            }),
        ),
    ]
}

fn solver_group(smoke: bool) -> Vec<Bench<'static>> {
    let dim = if smoke { 4u32 } else { 6 };
    let perm = if smoke { 16usize } else { 64 };
    let valiant = ValiantRouting::new(dim);
    let d = Demand::hypercube_bit_reversal(dim);
    let mut rng = StdRng::seed_from_u64(4);
    let ps = alpha_sample(&valiant, &d.support(), 4, 4);
    let opts = SolveOptions::with_eps(0.1);
    let q = generators::hypercube(dim);
    let dbig = Demand::random_permutation(perm, &mut rng);
    let mut sub = q.sub_topology();
    for e in [3u32, 31, 77, 120] {
        if (e as usize) < q.m() {
            sub.fail_edge(e);
        }
    }
    let usable = sub.usable_edges();
    vec![
        (
            format!("restricted_mwu_hypercube{dim}_alpha4"),
            Box::new({
                let (valiant, d, ps, opts) = (valiant, d, ps, opts.clone());
                move || {
                    min_congestion_restricted(valiant.graph(), &d, ps.candidates(), &opts);
                }
            }),
        ),
        (
            format!("offline_opt_hypercube{dim}_perm{perm}"),
            Box::new({
                let (q, dbig, opts) = (q.clone(), dbig.clone(), opts.clone());
                move || {
                    min_congestion_unrestricted(&q, &dbig, &opts);
                }
            }),
        ),
        (
            format!("masked_opt_hypercube{dim}_perm{perm}_k4"),
            Box::new(move || {
                min_congestion_masked(&q, &dbig, &usable, &opts);
            }),
        ),
    ]
}

fn templates_group(smoke: bool) -> Vec<Bench<'static>> {
    let (r_rows, f_rows, iters) = if smoke { (3, 4, 4) } else { (5, 8, 8) };
    // The scale row the electrical rewrite exists for: a >=10k-node
    // Waxman WAN, per-source PCG solves batched over a pinned source
    // subset (a full n-source precompute would also hold an n x n
    // potentials cache — the per-source cost is the tracked number).
    let (wax_n, wax_a, wax_b, wax_sources) = if smoke {
        (200usize, 0.3, 0.15, 4usize)
    } else {
        (10_000, 0.1, 0.04, 16)
    };
    let small = generators::grid(r_rows, r_rows);
    let big = generators::grid(f_rows, f_rows);
    let metric = Metric::hops(&big);
    let n = big.n();
    let grid_el = big.clone();
    let grid_rw = big.clone();
    let (wan, _, _) = generators::waxman_connected(wax_n, wax_a, wax_b, 1, 4);
    let sources: Vec<u32> = (0..wax_sources as u32).collect();
    vec![
        (
            format!("raecke_build_grid{r_rows}x{r_rows}_{iters}trees"),
            Box::new(move || {
                RaeckeRouting::build(
                    &small,
                    &RaeckeOptions {
                        iterations: iters,
                        epsilon: 0.5,
                    },
                    &mut StdRng::seed_from_u64(2),
                );
            }),
        ),
        (
            format!("frt_sample_grid{f_rows}x{f_rows}"),
            Box::new(move || {
                FrtTree::sample_seeded(&metric, n, 1);
            }),
        ),
        (
            format!("electrical_build_grid{f_rows}x{f_rows}_allsrc"),
            Box::new(move || {
                ElectricalRouting::new(&grid_el).precomputed();
            }),
        ),
        (
            format!("electrical_build_waxman{wax_n}_{wax_sources}src"),
            Box::new(move || {
                ElectricalRouting::new(&wan).precompute_sources(&sources);
            }),
        ),
        (
            format!("random_walk_build_grid{f_rows}x{f_rows}_32walks"),
            Box::new(move || {
                let rw = RandomWalkRouting::new(&grid_rw, 32, 4 * grid_rw.n(), 11);
                for s in 0..8u32 {
                    for t in 8..16u32 {
                        rw.path_distribution(s, t);
                    }
                }
            }),
        ),
    ]
}

#[derive(Serialize)]
struct ServeRow {
    name: String,
    median_ns: u64,
    min_ns: u64,
    max_ns: u64,
    lookups_per_sec: f64,
}

#[derive(Serialize)]
struct ServeGroup {
    group: String,
    mode: String,
    rounds: usize,
    cores: usize,
    queries_per_batch: usize,
    alpha: usize,
    benches: Vec<ServeRow>,
    isolated_shard_rate_sum_8: f64,
}

/// The serving-plane group gets its own runner: the `under_swaps`
/// configurations need a live background [`Rebuilder`] scoped to exactly
/// their own timed rounds, so configurations run sequentially (each with
/// a warmup batch) instead of interleaved.
///
/// All timings are honest wall numbers on whatever `cores` reports — on
/// a 1-core box the shards time-slice, so the per-shard-count rows mostly
/// measure sharding overhead. `isolated_shard_rate_sum_8` is the labeled
/// multi-core headroom estimate: each of the 8 round-robin shard slices
/// timed by itself on the same snapshot, and the implied rates summed
/// (what 8 genuinely parallel cores would sustain, shard independence
/// being exact — shards share nothing but the immutable snapshot).
fn run_serve_group(smoke: bool) {
    let (side, trees, path_alpha, q) = if smoke {
        (3usize, 2usize, 2usize, 256u64)
    } else {
        (6, 4, 3, 4096)
    };
    let (mode, rounds) = if smoke { ("smoke", 3) } else { ("full", 7) };
    const ALPHA: usize = 4;
    let churn = ChurnModel::TemplateSeedDrift { master_seed: 2023 };
    let base = move || {
        Pipeline::on(TopologySpec::Grid {
            rows: side,
            cols: side,
        })
        .template(TemplateSpec::FrtEnsemble { trees })
        .alpha(path_alpha)
    };
    let n = (side * side) as u64;
    let reqs: Vec<Request> = (0..q)
        .map(|i| {
            let s = (i % n) as u32;
            let mut t = ((i * 31 + 1) % n) as u32;
            if t == s {
                t = (t + 1) % n as u32;
            }
            Request { id: i, s, t }
        })
        .collect();

    let mut rows: Vec<ServeRow> = Vec::new();
    for swaps in [false, true] {
        for shards in [1usize, 2, 8] {
            let cache = Arc::new(PathSystemCache::bounded(8));
            let mut source = churned_source(cache, base(), churn.clone());
            let cell = Arc::new(EpochCell::new(Arc::new(source(0))));
            let plane = QueryPlane::new(Arc::clone(&cell), ALPHA, shards);
            let rebuilder = swaps.then(|| Rebuilder::spawn(Arc::clone(&cell), source, None));
            plane.answer_batch(&reqs); // warmup
            let mut ts: Vec<u64> = (0..rounds)
                .map(|_| {
                    let t0 = Instant::now();
                    plane.answer_batch(&reqs);
                    t0.elapsed().as_nanos() as u64
                })
                .collect();
            if let Some(rb) = rebuilder {
                rb.stop();
            }
            ts.sort_unstable();
            let median_ns = ts[ts.len() / 2];
            rows.push(ServeRow {
                name: format!(
                    "lookups_grid{side}x{side}_{shards}shards{}",
                    if swaps { "_under_swaps" } else { "" }
                ),
                median_ns,
                min_ns: ts[0],
                max_ns: ts[ts.len() - 1],
                lookups_per_sec: q as f64 * 1e9 / median_ns as f64,
            });
        }
    }

    // Headroom: each 8-way round-robin shard slice timed in isolation on
    // one static snapshot; the summed rates are what independent cores
    // would sustain concurrently.
    let table = churned_source(Arc::new(PathSystemCache::new()), base(), churn)(0);
    let isolated_shard_rate_sum_8: f64 = (0..8usize)
        .map(|k| {
            let slice: Vec<Request> = reqs.iter().copied().skip(k).step_by(8).collect();
            answer_batch_on(&table, ALPHA, 1, &slice); // warmup
            let mut ts: Vec<u64> = (0..rounds)
                .map(|_| {
                    let t0 = Instant::now();
                    answer_batch_on(&table, ALPHA, 1, &slice);
                    t0.elapsed().as_nanos() as u64
                })
                .collect();
            ts.sort_unstable();
            slice.len() as f64 * 1e9 / ts[ts.len() / 2] as f64
        })
        .sum();

    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut table_out = Table::new(&["bench", "median", "lookups/s"]);
    for r in &rows {
        table_out.row(&[
            r.name.clone(),
            format!("{:.1?}", std::time::Duration::from_nanos(r.median_ns)),
            format!("{:.0}", r.lookups_per_sec),
        ]);
    }
    println!("\n== serve ({mode}, {rounds} rounds, {cores} core(s), {q} queries/batch) ==");
    table_out.print();
    println!("   isolated 8-shard rate sum (multi-core headroom): {isolated_shard_rate_sum_8:.0} lookups/s");
    let record = ServeGroup {
        group: "serve".to_string(),
        mode: mode.to_string(),
        rounds,
        cores,
        queries_per_batch: q as usize,
        alpha: ALPHA,
        benches: rows,
        isolated_shard_rate_sum_8,
    };
    match save_json_at_root("BENCH_serve", &record) {
        Some(p) => println!("-> {}", p.display()),
        None => eprintln!("warning: could not write BENCH_serve.json"),
    }
}

/// The static-analysis group: one full-workspace `ssor-lint --check`
/// (scan + parse + call graph + contracts + ratchet) run in-process.
/// The workload is the committed tree itself, so the row tracks how
/// much wall time the lint gate costs CI as both the checker and the
/// workspace grow. Smoke and full modes share the workload — the tree
/// is the spec.
fn lint_group() -> Vec<Bench<'static>> {
    let root = ssor_lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("bench binaries run from inside the workspace");
    let budget = root.join("lint_budget.json");
    vec![(
        "workspace_check".to_string(),
        Box::new(move || {
            let outcome = ssor_lint::run(&root, &budget, ssor_lint::Mode::Check)
                .expect("the lint walk reads the committed tree");
            assert!(outcome.files_scanned > 0, "the walk visited sources");
        }),
    )]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (mode, rounds) = if smoke { ("smoke", 3) } else { ("full", 7) };
    println!("ssor perf trajectory ({mode} mode): pinned specs, interleaved medians");
    run_group("pipeline", mode, rounds, pipeline_group(smoke));
    run_group("solver", mode, rounds, solver_group(smoke));
    run_group("templates", mode, rounds, templates_group(smoke));
    run_serve_group(smoke);
    run_group("lint", mode, rounds, lint_group());
    println!("\ntrajectory records written; commit the BENCH_*.json from a full release run.");
}
