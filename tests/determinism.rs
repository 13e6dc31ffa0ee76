//! Thread-count invariance of the engine pipeline.
//!
//! The parallel stages — the α-sampler's fixed pair blocks and the
//! fixed-block `EdgeLoads::par_merge` load reduction — promise results
//! that are a deterministic function of the pipeline spec alone,
//! *identical at any rayon worker count*. This test pins that guarantee:
//! the same scenarios run at 1, 2, and 8 threads (via the
//! `RAYON_NUM_THREADS` override the vendored rayon shim honors, same as
//! real rayon) must produce bit-identical congestion numbers and
//! logically identical sampled path systems.
//!
//! CI runs the whole suite a second time under `RAYON_NUM_THREADS=2`
//! (see `.github/workflows/ci.yml`), so the guarantee is exercised both
//! ways: this test sweeps thread counts in-process, and the CI variant
//! re-runs every other test off the single-thread default.

use proptest::prelude::*;
use rand::SeedableRng;
use ssor::core::sample::{all_pairs, alpha_sample};
use ssor::core::PathSystem;
use ssor::engine::{DynamicReport, PathSystemCache, Pipeline, ScenarioSpec, StreamModel};
use ssor::flow::solver::{min_congestion_masked, min_congestion_unrestricted, DemandDelta, Solver};
use ssor::flow::{AllPathsOracle, Demand, SolveOptions};
use ssor::graph::generators;
use ssor::graph::Graph;
use ssor::oblivious::{
    frt::sample_tree_routings_seeded, ElectricalRouting, Metric, ObliviousRouting, RaeckeOptions,
    RaeckeRouting, RandomWalkRouting, ValiantRouting,
};
use std::sync::{Mutex, MutexGuard};

/// `RAYON_NUM_THREADS` is process-global and the vendored shim reads it
/// on every call, so the tests in this binary — which libtest runs on
/// parallel threads — must not sweep thread counts concurrently: one
/// test's `set_var` would trip another's override-honored guard. Every
/// test takes this lock for its whole body.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn env_lock() -> MutexGuard<'static, ()> {
    // A poisoned lock just means another test failed; every sweep sets
    // the variable before each run, so continuing is sound.
    ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One full pipeline execution at a pinned thread count: sampled path
/// system plus the per-demand records, reduced to comparable bits.
fn run_at(threads: usize, pipeline: &Pipeline) -> (PathSystem, Vec<(String, u64, usize)>) {
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    // Guard against a pool that ignores mid-process overrides (real
    // rayon pins its global pool on first use): if this stops holding,
    // the sweep below would compare three identical runs and the test
    // would pass vacuously.
    assert_eq!(
        rayon::current_num_threads(),
        threads,
        "worker-count override not honored; thread sweep would be vacuous"
    );
    let cache = PathSystemCache::new();
    let prepared = pipeline.prepare(&cache);
    let paths = prepared.paths().clone();
    let report = pipeline.run(&cache);
    let records = report
        .records
        .iter()
        .map(|r| (r.name.clone(), r.congestion.to_bits(), r.dilation))
        .collect();
    std::env::remove_var("RAYON_NUM_THREADS");
    (paths, records)
}

fn assert_invariant(pipeline: &Pipeline, label: &str) {
    let (paths1, recs1) = run_at(1, pipeline);
    for threads in [2usize, 8] {
        let (paths_n, recs_n) = run_at(threads, pipeline);
        assert_eq!(
            paths1, paths_n,
            "{label}: sampled path system differs at {threads} threads"
        );
        assert_eq!(
            recs1, recs_n,
            "{label}: congestion/dilation records differ at {threads} threads"
        );
    }
}

#[test]
fn engine_results_are_thread_count_invariant() {
    let _guard = env_lock();
    // Hypercube adversary: exercises the α-sampler over all 240
    // ordered pairs of Q4 plus the restricted + unrestricted solves.
    let hypercube = ScenarioSpec::HypercubeAdversarial { dim: 4 }
        .pipeline()
        .alpha(3)
        .seed(11)
        .solve_options(SolveOptions::with_eps(0.1));
    assert_invariant(&hypercube, "hypercube-adversary");

    // Gravity WAN: a dense fractional demand whose support (n(n-1) pairs
    // for n = 20) crosses Routing::edge_loads' parallel-accumulation
    // threshold, so the fixed-block par_merge path actually runs.
    let gravity = ScenarioSpec::GravityWan {
        n: 20,
        total: 25.0.into(),
        seed: 7,
    }
    .pipeline()
    .alpha(2)
    .seed(5)
    .solve_options(SolveOptions::with_eps(0.15))
    .without_opt();
    assert_invariant(&gravity, "gravity-wan");
}

#[test]
fn alpha_sampler_is_thread_count_invariant() {
    let _guard = env_lock();
    // All ordered pairs of Q6 span eight fixed pair blocks, so the
    // sampler's fan-out runs at 2 and 8 threads.
    let valiant = ValiantRouting::new(6);
    let pairs = all_pairs(64);
    let at = |threads: usize| {
        std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
        assert_eq!(rayon::current_num_threads(), threads);
        let ps = alpha_sample(&valiant, &pairs, 3, 11);
        std::env::remove_var("RAYON_NUM_THREADS");
        ps
    };
    let one = at(1);
    for threads in [2usize, 8] {
        assert_eq!(one, at(threads), "α-sample differs at {threads} threads");
    }
}

/// A dynamic scenario reduced to comparable bits: per-record congestion
/// bit patterns plus the structural fields that must not drift.
fn run_dynamic_at(threads: usize, scenario: &ScenarioSpec) -> Vec<(u64, usize, Vec<u32>)> {
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    assert_eq!(
        rayon::current_num_threads(),
        threads,
        "worker-count override not honored; thread sweep would be vacuous"
    );
    let cache = PathSystemCache::new();
    let report = scenario
        .run_dynamic(&cache)
        .expect("dynamic scenario expected");
    std::env::remove_var("RAYON_NUM_THREADS");
    match report {
        DynamicReport::Stream(r) => r
            .steps
            .iter()
            .map(|s| (s.congestion.to_bits(), s.iterations, Vec::new()))
            .collect(),
        DynamicReport::Failures(r) => r
            .trials
            .iter()
            .map(|t| {
                (
                    t.congestion.unwrap_or(0.0).to_bits(),
                    t.iterations,
                    t.failed_edges.clone(),
                )
            })
            .collect(),
    }
}

/// The solver's parallel batch oracle fans per-source Dijkstra trees out
/// over the rayon workers with an index-ordered merge; solves through
/// the unified entry points — unrestricted, failure-masked, and a warm
/// `Solver` chain — must be bit-identical at any worker count.
#[test]
fn solver_entry_points_are_thread_count_invariant() {
    let _guard = env_lock();
    // 28 distinct sources on Q5 — far above the oracle's serial cutoff
    // and above the 8-thread fan-in, so the parallel merge actually runs
    // at every swept width.
    let g = generators::hypercube(5);
    let d = Demand::random_permutation(32, &mut rand::rngs::StdRng::seed_from_u64(3));
    let mut sub = g.sub_topology();
    for e in [2u32, 17, 40, 63] {
        sub.fail_edge(e);
    }
    let usable = sub.usable_edges();
    let opts = SolveOptions::with_eps(0.1);

    let solve_all = |threads: usize| -> Vec<u64> {
        std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
        assert_eq!(
            rayon::current_num_threads(),
            threads,
            "worker-count override not honored; thread sweep would be vacuous"
        );
        let open = min_congestion_unrestricted(&g, &d, &opts);
        let masked = min_congestion_masked(&g, &d, &usable, &opts);
        // A warm chain: cold solve, then a drifted re-solve.
        let mut oracle = AllPathsOracle::new(&g);
        let mut warm = Solver::solve(&g, &d, &mut oracle, &opts);
        let drifted = warm.resolve(&g, DemandDelta::Scale(1.25), &mut oracle, &opts);
        std::env::remove_var("RAYON_NUM_THREADS");
        vec![
            open.congestion.to_bits(),
            open.lower_bound.to_bits(),
            open.iterations as u64,
            masked.congestion.to_bits(),
            masked.lower_bound.to_bits(),
            masked.stranded.to_bits(),
            drifted.congestion.to_bits(),
            drifted.lower_bound.to_bits(),
            drifted.iterations as u64,
        ]
    };

    let base = solve_all(1);
    for threads in [2usize, 8] {
        assert_eq!(
            base,
            solve_all(threads),
            "solver results differ at {threads} threads"
        );
    }
}

/// One full template-layer construction at a pinned thread count,
/// reduced to comparable bits: the all-pairs metric (every pairwise
/// distance's bit pattern), a seeded FRT ensemble (every routed path),
/// and a full Räcke build (relative loads + the mixture's distribution
/// weights and supports).
fn template_fingerprint(threads: usize, g: &Graph) -> (Vec<u64>, Vec<Vec<u32>>, Vec<u64>) {
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    assert_eq!(
        rayon::current_num_threads(),
        threads,
        "worker-count override not honored; thread sweep would be vacuous"
    );
    let lens: Vec<f64> = (0..g.m()).map(|e| 1.0 + (e % 5) as f64 * 0.25).collect();
    let metric = Metric::build(g, &|e| lens[e as usize]);
    let mut dist_bits = Vec::new();
    for s in g.vertices() {
        for t in g.vertices() {
            dist_bits.push(metric.dist(s, t).to_bits());
        }
    }

    let pairs: Vec<(u32, u32)> = vec![(0, g.n() as u32 - 1), (1, g.n() as u32 / 2), (2, 7)];
    let trees = sample_tree_routings_seeded(g, 8, 21);
    let mut ensemble_paths = Vec::new();
    for tr in &trees {
        for &(s, t) in &pairs {
            ensemble_paths.push(tr.path(g, s, t).edges().to_vec());
        }
    }

    let raecke = RaeckeRouting::build(
        g,
        &RaeckeOptions {
            iterations: 8,
            epsilon: 0.5,
        },
        &mut rand::rngs::StdRng::seed_from_u64(5),
    );
    let mut raecke_bits: Vec<u64> = raecke
        .relative_loads()
        .iter()
        .map(|r| r.to_bits())
        .collect();
    for &(s, t) in &pairs {
        for (p, w) in raecke.path_distribution(s, t) {
            raecke_bits.push(w.to_bits());
            raecke_bits.extend(p.edges().iter().map(|&e| e as u64));
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");
    (dist_bits, ensemble_paths, raecke_bits)
}

/// Template construction — the parallel all-pairs metric, seeded FRT
/// ensembles, and the full Räcke multiplicative-weights build — must be
/// bit-identical at any rayon worker count (index-ordered Dijkstra
/// fan-out, per-tree derived seed streams, fixed-block canonical-load
/// merges).
#[test]
fn template_construction_is_thread_count_invariant() {
    let _guard = env_lock();
    // A Waxman WAN: irregular degrees and real-valued metric lengths,
    // large enough that every parallel cutoff in the template layer is
    // crossed (n Dijkstra sources, 8 trees, m/64 > 1 load blocks).
    let (g, _, _) = generators::waxman_connected(40, 0.4, 0.25, 9, 16);
    let base = template_fingerprint(1, &g);
    for threads in [2usize, 8] {
        let got = template_fingerprint(threads, &g);
        assert_eq!(
            base.0, got.0,
            "all-pairs metric differs at {threads} threads"
        );
        assert_eq!(
            base.1, got.1,
            "FRT ensemble paths differ at {threads} threads"
        );
        assert_eq!(base.2, got.2, "Raecke build differs at {threads} threads");
    }
}

/// The electrical template's batched per-source PCG solves fan out over
/// `par_ordered_map`, and the random-walk template derives one RNG
/// stream per (s, t) pair — both reduced to comparable bits: every
/// precomputed potential's bit pattern, plus each scheme's path
/// distributions (weights and edge sequences) over a pinned pair set.
fn flow_template_fingerprint(threads: usize, g: &Graph) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    assert_eq!(
        rayon::current_num_threads(),
        threads,
        "worker-count override not honored; thread sweep would be vacuous"
    );
    let pairs: Vec<(u32, u32)> = vec![(0, g.n() as u32 - 1), (1, g.n() as u32 / 2), (2, 7)];

    let electrical = ElectricalRouting::new(g).precomputed();
    let mut potential_bits = Vec::new();
    for s in g.vertices() {
        potential_bits.extend(electrical.potential(s).iter().map(|p| p.to_bits()));
    }
    let mut electrical_bits = Vec::new();
    for &(s, t) in &pairs {
        for (p, w) in electrical.path_distribution(s, t) {
            electrical_bits.push(w.to_bits());
            electrical_bits.extend(p.edges().iter().map(|&e| e as u64));
        }
    }

    let walks = RandomWalkRouting::new(g, 16, 4 * g.n(), 23);
    let mut walk_bits = Vec::new();
    for &(s, t) in &pairs {
        for (p, w) in walks.path_distribution(s, t) {
            walk_bits.push(w.to_bits());
            walk_bits.extend(p.edges().iter().map(|&e| e as u64));
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");
    (potential_bits, electrical_bits, walk_bits)
}

/// The electrical build (batched Laplacian solves over the ordered
/// parallel map, serial left-to-right PCG reductions) and the
/// random-walk build (per-pair derived seed streams over BFS-tree
/// fallbacks) must be bit-identical at any rayon worker count.
#[test]
fn flow_template_construction_is_thread_count_invariant() {
    let _guard = env_lock();
    let (g, _, _) = generators::waxman_connected(40, 0.4, 0.25, 9, 16);
    let base = flow_template_fingerprint(1, &g);
    for threads in [2usize, 8] {
        let got = flow_template_fingerprint(threads, &g);
        assert_eq!(
            base.0, got.0,
            "electrical potentials differ at {threads} threads"
        );
        assert_eq!(
            base.1, got.1,
            "electrical path distributions differ at {threads} threads"
        );
        assert_eq!(
            base.2, got.2,
            "random-walk distributions differ at {threads} threads"
        );
    }
}

proptest! {
    /// The rayon-parallel `Metric::build` must agree bitwise with a
    /// serial per-source Dijkstra reference on random weighted
    /// multigraphs (whatever the ambient worker count happens to be —
    /// determinism means the comparison holds under every scheduler).
    #[test]
    fn parallel_metric_matches_serial_reference(
        n in 2usize..14,
        p in 0.1f64..0.9,
        extra in 0usize..8,
        seed in any::<u64>(),
    ) {
        use rand::Rng;
        // Held per case: the parallel build below reads
        // RAYON_NUM_THREADS through the shim, which must not race the
        // thread-sweep tests' set_var/remove_var windows.
        let _guard = env_lock();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut g = generators::erdos_renyi(n, p, &mut rng);
        let m0 = g.m();
        for _ in 0..extra.min(m0) {
            let (u, v) = g.endpoints(rng.gen_range(0..m0) as u32);
            g.add_edge(u, v);
        }
        let lens: Vec<f64> = (0..g.m()).map(|_| 0.5 + rng.gen::<f64>() * 3.0).collect();
        let metric = Metric::build(&g, &|e| lens[e as usize]);
        let csr = g.csr();
        for s in g.vertices() {
            let reference = ssor::graph::shortest_path::dijkstra_tree_csr(
                &csr, s, &|e| lens[e as usize],
            );
            for t in g.vertices() {
                prop_assert_eq!(
                    metric.dist(s, t).to_bits(),
                    reference.dist_to(t).to_bits(),
                    "({}, {})", s, t
                );
            }
        }
    }
}

/// The warm-started stream and the failure sweep are sequential chains
/// of solves, but every solve inside them crosses the rayon-parallel
/// load accumulation — their outputs must still be bit-identical at any
/// worker count.
#[test]
fn dynamic_scenarios_are_thread_count_invariant() {
    let _guard = env_lock();
    let sweep = ScenarioSpec::FailureSweep {
        base: Box::new(ScenarioSpec::HypercubeAdversarial { dim: 4 }),
        k_failures: 3,
        trials: 3,
    };
    let stream = ScenarioSpec::DemandStream {
        base: Box::new(ScenarioSpec::GravityWan {
            n: 20,
            total: 25.0.into(),
            seed: 7,
        }),
        steps: 6,
        model: StreamModel::DiurnalGravity {
            total: 25.0.into(),
            period: 6,
            seed: 4,
        },
    };
    for (scenario, label) in [(sweep, "failure-sweep"), (stream, "demand-stream")] {
        let base = run_dynamic_at(1, &scenario);
        assert!(!base.is_empty(), "{label}: empty report");
        for threads in [2usize, 8] {
            let got = run_dynamic_at(threads, &scenario);
            assert_eq!(base, got, "{label}: records differ at {threads} threads");
        }
    }
}
