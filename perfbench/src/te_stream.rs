//! `te_stream`: the TE controller's rate re-adaptation. One prepared
//! path system on the Waxman WAN; day after day of diurnal gravity
//! traffic re-solved snapshot by snapshot with a warm `Solver::resolve`,
//! as a closed loop.
//!
//! The gravity structure (which routers are big, their phases) is a
//! fixed property of the network, like the topology; the workload seed
//! draws each day's hour-by-hour noise. The same days are replayed by
//! fresh controllers, and each step's time is its fastest replay. Step cost depends strongly on
//! the structure, so drawing a new one per seed would make a run's
//! figures a property of its draw rather than of the code.

use crate::certify::waxman64;
use crate::metrics::Outcome;
use crate::stages::{self, Config};
use crate::stats::{best_of_rounds, mean, median, percentile, repeated_setup};
use crate::trace::Tracer;
use crate::Args;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ssor_core::PathSystem;
use ssor_engine::{PathSystemCache, StreamModel, TemplateSpec};
use ssor_flow::oracle::CandidateOracle;
use ssor_flow::solver::{DemandDelta, Solver};
use ssor_flow::{Demand, SolveOptions};
use ssor_graph::{derive_seed, Graph};
use ssor_te::GravityModel;
use std::time::Duration;

/// Snapshots per day (the diurnal period).
const PERIOD: usize = 24;
/// Total traffic of the gravity model.
const TOTAL: f64 = 100.0;
/// Seed of the network's gravity structure: part of the system.
const TRAFFIC_SEED: u64 = 2023;
/// Days one controller runs (120 snapshots).
const DAYS: usize = 5;
/// Fewest untraced controllers replaying those days.
const MIN_REPLAYS: usize = 2;

fn config() -> Config {
    Config {
        topology: waxman64(),
        template: TemplateSpec::FrtEnsemble { trees: 8 },
        alpha: 4,
        seed: 2023,
        demands: Vec::new(),
        simulate: false,
        opt: false,
    }
}

/// Day `day`'s snapshots, hour 0 to 23.
fn day(traffic: &GravityModel, seed: u64, day: u64) -> Vec<Demand> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, day));
    (0..PERIOD)
        .map(|t| traffic.snapshot(t, PERIOD, &mut rng))
        .collect()
}

/// One step's result: congestion and lower bound, bit for bit.
type Step = (u64, u64);

/// Re-solves `demands` in order on `solver`; returns the step latencies
/// (s) and results.
fn steps(
    tracer: &Tracer,
    solver: &mut Solver,
    g: &Graph,
    paths: &PathSystem,
    demands: &[Demand],
    first_req: u64,
) -> (Vec<f64>, Vec<Step>) {
    let opts = SolveOptions::default();
    let mut lat = Vec::with_capacity(demands.len());
    let mut out = Vec::with_capacity(demands.len());
    for (i, d) in demands.iter().enumerate() {
        let delta = DemandDelta::Replace(d.clone());
        let req = first_req + i as u64;
        let t0 = crate::clock::now();
        let sol = tracer.span("te.step", None, req, |span| {
            let mut oracle = tracer.span("flow.oracle.build", span, req, |_| {
                CandidateOracle::new(paths.candidates())
            });
            tracer.span("flow.warm.resolve", span, req, |_| {
                solver.resolve(g, delta, &mut oracle, &opts)
            })
        });
        lat.push(t0.elapsed().as_secs_f64());
        tracer.count("warm.solves", 1.0);
        tracer.count("warm.iterations", sol.iterations as f64);
        tracer.count("warm.oracle_calls", sol.stats.oracle_calls as f64);
        out.push((sol.congestion.to_bits(), sol.lower_bound.to_bits()));
    }
    (lat, out)
}

/// Fresh controllers, each running days `0..DAYS` day after day, until
/// `budget` is spent and at least `min_replays` ran. Returns step
/// latencies and results in order, replay after replay.
fn controller(
    tracer: &Tracer,
    g: &Graph,
    paths: &PathSystem,
    traffic: &GravityModel,
    seed: u64,
    budget: Duration,
    min_replays: usize,
) -> (Vec<f64>, Vec<Step>) {
    let days: Vec<Vec<Demand>> = (0..DAYS as u64).map(|d| day(traffic, seed, d)).collect();
    let (mut lat, mut results) = (Vec::new(), Vec::new());
    let start = crate::clock::now();
    while lat.len() < min_replays * DAYS * PERIOD || start.elapsed() < budget {
        let mut solver = Solver::new(g);
        for (d, demands) in days.iter().enumerate() {
            let (l, r) = steps(tracer, &mut solver, g, paths, demands, (d * PERIOD) as u64);
            lat.extend(l);
            results.extend(r);
        }
    }
    (lat, results)
}

/// Counts the steps that fail to certify or differ from `expected`.
fn check(
    got: &[Step],
    expected: Option<&[Step]>,
    what: &str,
    notes: &mut Vec<String>,
) -> (u64, u64) {
    let mut failed = 0;
    for (i, &(cong, lb)) in got.iter().enumerate() {
        let same = expected.is_none_or(|e| e.get(i) == Some(&(cong, lb)));
        if !(same && f64::from_bits(lb) <= f64::from_bits(cong)) {
            failed += 1;
            notes.push(format!(
                "FAILED {what} step {i}: congestion {} lower bound {} (matches: {same})",
                f64::from_bits(cong),
                f64::from_bits(lb)
            ));
        }
    }
    (got.len() as u64, failed)
}

pub fn run(args: &Args, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let cfg = config();
    let pipeline = cfg.pipeline();
    let (setup_s, (cache, prepared)) = repeated_setup(|| {
        let cache = PathSystemCache::new();
        let t0 = crate::clock::now();
        let prepared = pipeline.prepare(&cache);
        (t0.elapsed().as_secs_f64(), (cache, prepared))
    });
    let g = prepared.graph();
    let traffic = GravityModel::sample(g.n(), TOTAL, &mut StdRng::seed_from_u64(TRAFFIC_SEED));
    let untraced = Tracer::new(false);

    // The controller loop agrees with the engine's own stream: one day of
    // a seeded `DiurnalGravity` model, bit for bit, from a fresh solver.
    let model = StreamModel::DiurnalGravity {
        total: TOTAL.into(),
        period: PERIOD,
        seed: derive_seed(args.seed, u64::MAX),
    };
    let engine: Vec<Step> = pipeline
        .stream(&cache, PERIOD, &model)
        .steps
        .iter()
        .map(|s| (s.congestion.to_bits(), s.lower_bound.to_bits()))
        .collect();
    let (_, ours) = steps(
        &untraced,
        &mut Solver::new(g),
        g,
        prepared.paths(),
        &model.sequence(g.n(), PERIOD),
        0,
    );
    let (mut attempted, mut failed) =
        check(&ours, Some(&engine), "Pipeline::stream", &mut out.notes);

    let untraced_budget = if args.trace {
        args.budget / 2
    } else {
        args.budget
    };
    let (lat, results) = controller(
        &untraced,
        g,
        prepared.paths(),
        &traffic,
        args.seed,
        untraced_budget,
        MIN_REPLAYS,
    );
    // Every replay re-solves the first one's days from a fresh solver,
    // so it must match it bit for bit.
    let first = &results[..DAYS * PERIOD];
    let (a, f) = check(first, None, "stream", &mut out.notes);
    attempted += a;
    failed += f;
    for replay in results.chunks(DAYS * PERIOD).skip(1) {
        let (a, f) = check(replay, Some(first), "replay", &mut out.notes);
        attempted += a;
        failed += f;
    }
    if args.trace {
        // The traced half re-prepares through the mirror on a fresh
        // cache, so the set-up stages are traced too, and replays the
        // untraced days bit for bit.
        let cache = PathSystemCache::new();
        let traced_prep = stages::prepare(tracer, &cache, &cfg, None, 0);
        let (traced_lat, traced) = controller(
            tracer,
            &traced_prep.graph.0,
            &traced_prep.paths,
            &traffic,
            args.seed,
            Duration::ZERO,
            1,
        );
        let (a, f) = check(&traced, Some(first), "traced", &mut out.notes);
        attempted += a;
        failed += f;
        out.layers.insert(
            "trace.overhead_share",
            median(&traced_lat) / median(&lat) - 1.0,
        );
    }

    // Quality is the certified gap, congestion over the solver's lower
    // bound: what a solver change that stops early would worsen.
    let gaps: Vec<f64> = first
        .iter()
        .map(|&(c, l)| f64::from_bits(c) / f64::from_bits(l))
        .collect();
    let congestion: Vec<f64> = first.iter().map(|&(c, _)| f64::from_bits(c)).collect();
    // A step's time is its fastest replay: replays run seconds apart, so
    // a slow spell of the host rarely covers every replay of a step.
    let mut best = best_of_rounds(&lat, DAYS * PERIOD);
    let p50 = percentile(&mut best, 50.0).expect("DAYS give enough steps");
    let p90 = percentile(&mut best, 90.0).expect("DAYS give enough steps");
    out.end_to_end.insert("setup_s", setup_s);
    out.end_to_end.insert("p50_ms", p50 * 1e3);
    out.end_to_end.insert("tail_ms", p90 * 1e3);
    out.end_to_end.insert("quality", mean(&gaps));
    out.notes.push(format!(
        "te_stream: {} untraced replays of {DAYS} days; per step, fastest replay: p50 {:.2} ms, p90 {:.2} ms; \
         median step per replay (ms) {:?}; mean congestion {:.4}, mean gap {:.4}",
        lat.len() / (DAYS * PERIOD),
        p50 * 1e3,
        p90 * 1e3,
        lat.chunks(DAYS * PERIOD)
            .map(|r| (median(r) * 1e4).round() / 10.0)
            .collect::<Vec<_>>(),
        mean(&congestion),
        mean(&gaps)
    ));
    out.attempted = attempted;
    out.failed = failed;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_changes_the_traffic_noise_only() {
        let traffic = GravityModel::sample(8, TOTAL, &mut StdRng::seed_from_u64(TRAFFIC_SEED));
        let a = day(&traffic, 1, 0);
        assert_eq!(a.len(), PERIOD);
        assert_eq!(a, day(&traffic, 1, 0), "same seed, same day");
        assert_ne!(a, day(&traffic, 2, 0), "another seed, another day");
        assert_ne!(a, day(&traffic, 1, 1), "the next day differs");
        assert_eq!(
            a[0].support(),
            day(&traffic, 2, 0)[0].support(),
            "same pairs, other volumes"
        );
    }
}
