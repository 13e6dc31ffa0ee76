//! `certify`: the paper's sparsity–competitiveness experiment as a
//! closed loop. One pass runs three scenarios, each on a fresh cache,
//! through an α-sweep with OPT certificates and packet simulation on.

use crate::metrics::Outcome;
use crate::stages::{self, canonical, Config};
use crate::stats::{best_of_rounds, mean, median, repeated_setup};
use crate::trace::Tracer;
use crate::Args;
use ssor_engine::{DemandSpec, EvalRecord, PathSystemCache, TemplateSpec, TopologySpec};
use ssor_graph::derive_seed;
use std::time::Duration;

const ALPHAS: [usize; 4] = [1, 2, 4, 8];
/// The sampling seed: part of the system under test, not of its input.
const PIPELINE_SEED: u64 = 2023;
/// Demand draws per round: pass `k` of a run certifies draw
/// `k % DRAWS`. `p50_ms`, `tail_ms` and `quality` are read over them.
const DRAWS: usize = 5;
/// Fewest untraced rounds over the draws.
const MIN_ROUNDS: usize = 2;

/// The three scenarios of draw `pass`. Only the demands depend on the
/// workload seed, and each draw is a new one, so that a run's figures
/// average over several demands instead of resting on one.
pub fn scenarios(seed: u64, pass: u64) -> Vec<Config> {
    let seed = derive_seed(seed, pass);
    let cfg = |topology, template, demands| Config {
        topology,
        template,
        alpha: 1,
        seed: PIPELINE_SEED,
        demands,
        simulate: true,
        opt: true,
    };
    vec![
        cfg(
            TopologySpec::Hypercube { dim: 6 },
            TemplateSpec::Valiant,
            vec![
                ("bit-reversal".to_string(), DemandSpec::BitReversal),
                (
                    "random-perm".to_string(),
                    DemandSpec::RandomPermutation {
                        seed: derive_seed(seed, 1),
                    },
                ),
            ],
        ),
        cfg(
            TopologySpec::Grid { rows: 8, cols: 8 },
            TemplateSpec::FrtEnsemble { trees: 8 },
            vec![(
                "random-perm".to_string(),
                DemandSpec::RandomPermutation {
                    seed: derive_seed(seed, 2),
                },
            )],
        ),
        cfg(
            waxman64(),
            TemplateSpec::raecke(),
            vec![(
                "random-pairs".to_string(),
                DemandSpec::RandomPairs {
                    pairs: 128,
                    seed: derive_seed(seed, 3),
                },
            )],
        ),
    ]
}

/// The Waxman WAN shared by `certify` and `te_stream` (a fixed network;
/// the workloads vary the traffic on it).
pub fn waxman64() -> TopologySpec {
    TopologySpec::Waxman {
        n: 64,
        a: 0.4.into(),
        b: 0.25.into(),
        seed: 7,
    }
}

/// One pass: per scenario a fresh cache shared across the α-sweep.
/// Returns the records in order and the slowest `Pipeline::run` call.
fn pass(tracer: &Tracer, seed: u64, pass_no: u64) -> (Vec<EvalRecord>, f64) {
    let mut records = Vec::new();
    let mut worst_call = 0.0_f64;
    for (i, sc) in scenarios(seed, pass_no).into_iter().enumerate() {
        let cache = PathSystemCache::new();
        for (j, alpha) in ALPHAS.into_iter().enumerate() {
            let cfg = Config {
                alpha,
                ..sc.clone()
            };
            // One request id per (pass, scenario, α) call.
            let req = (pass_no * 3 + i as u64) * ALPHAS.len() as u64 + j as u64;
            let t0 = crate::clock::now();
            let recs = if tracer.enabled() {
                tracer.span("certify.run", None, req, |span| {
                    stages::run(tracer, &cache, &cfg, span, req)
                })
            } else {
                cfg.pipeline().run(&cache).records
            };
            worst_call = worst_call.max(t0.elapsed().as_secs_f64());
            records.extend(recs);
        }
    }
    (records, worst_call)
}

/// Cold `prepare` summed over the scenarios (what a sweep pays before
/// its first demand is routed).
fn setup_once(seed: u64) -> f64 {
    scenarios(seed, 0)
        .iter()
        .map(|sc| {
            let cache = PathSystemCache::new();
            let t0 = crate::clock::now();
            std::hint::black_box(sc.pipeline().prepare(&cache));
            t0.elapsed().as_secs_f64()
        })
        .sum()
}

/// Whole rounds of passes over draws `0..DRAWS`, until `budget` is
/// spent and at least `min_rounds` ran; per pass, in order.
struct Measured {
    pass_s: Vec<f64>,
    worst_call_s: Vec<f64>,
    records: Vec<Vec<EvalRecord>>,
}

fn measure(tracer: &Tracer, seed: u64, budget: Duration, min_rounds: usize) -> Measured {
    let mut m = Measured {
        pass_s: Vec::new(),
        worst_call_s: Vec::new(),
        records: Vec::new(),
    };
    let start = crate::clock::now();
    while m.pass_s.len() < min_rounds * DRAWS || start.elapsed() < budget {
        for draw in 0..DRAWS as u64 {
            let t0 = crate::clock::now();
            let (recs, worst_call) = pass(tracer, seed, draw);
            m.pass_s.push(t0.elapsed().as_secs_f64());
            m.worst_call_s.push(worst_call);
            m.records.push(recs);
        }
    }
    m
}

/// Counts the records that break a certificate or, where a reference
/// run of the same pass exists, differ from it.
fn check(
    passes: &[Vec<EvalRecord>],
    reference: Option<&[Vec<EvalRecord>]>,
    notes: &mut Vec<String>,
) -> (u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    for (k, recs) in passes.iter().enumerate() {
        let expected = reference.map(|r| {
            r.get(k)
                .map(|pass| pass.iter().map(canonical).collect::<Vec<_>>())
        });
        for (i, r) in recs.iter().enumerate() {
            attempted += 1;
            let (lb, ub) = (
                r.opt_lower_bound.unwrap_or(f64::NAN),
                r.opt_upper_bound.unwrap_or(f64::NAN),
            );
            let certified = lb <= ub && lb <= r.congestion;
            let same = match &expected {
                None => true,
                Some(Some(pass)) => pass.len() == recs.len() && pass[i] == canonical(r),
                Some(None) => false,
            };
            if !(certified && same) {
                failed += 1;
                notes.push(format!(
                    "FAILED record {i} ({} α={}): lb {lb} ub {ub} congestion {} certified {certified} matches reference {same}",
                    r.name, r.alpha, r.congestion
                ));
            }
        }
    }
    (attempted, failed)
}

pub fn run(args: &Args, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, ()) = repeated_setup(|| (setup_once(args.seed), ()));
    // A traced run splits its budget: untraced passes first (the
    // reference records and the overhead baseline), then traced ones.
    let untraced_budget = if args.trace {
        args.budget / 2
    } else {
        args.budget
    };
    let untraced = Tracer::new(false);
    let plain = measure(&untraced, args.seed, untraced_budget, MIN_ROUNDS);
    let first = &plain.records[..DRAWS];
    // Every later round repeats the first round's draws, so its records
    // must match them byte for byte.
    let (mut attempted, mut failed) = check(first, None, &mut out.notes);
    for round in plain.records.chunks(DRAWS).skip(1) {
        let (a, f) = check(round, Some(first), &mut out.notes);
        attempted += a;
        failed += f;
    }
    if args.trace {
        // One traced round replays the draws too.
        let traced = measure(tracer, args.seed, Duration::ZERO, 1);
        let (a, f) = check(&traced.records, Some(first), &mut out.notes);
        attempted += a;
        failed += f;
        out.layers.insert(
            "trace.overhead_share",
            median(&traced.pass_s) / median(&plain.pass_s) - 1.0,
        );
    }
    // A draw's time is its fastest round (rounds run seconds apart, so a
    // slow spell of the host rarely covers every round of a draw);
    // figures are medians over the draws.
    let best_pass = best_of_rounds(&plain.pass_s, DRAWS);
    let pass_p50 = median(&best_pass);
    // The tail is a pass's slowest call (a cold α = 1 call, where OPT is
    // solved): a pass has too few calls for a percentile with ten beyond
    // it, and the call p90 fell between the scenarios' cold calls, so it
    // swung with the draw.
    let worst_call = median(&best_of_rounds(&plain.worst_call_s, DRAWS));
    // Quality over the draws, which are fixed in number, so it does not
    // move with how many rounds the budget allowed.
    let ratios: Vec<f64> = first.iter().flatten().filter_map(|r| r.ratio).collect();
    out.end_to_end.insert("setup_s", setup_s);
    out.end_to_end.insert("p50_ms", pass_p50 * 1e3);
    out.end_to_end.insert("tail_ms", worst_call * 1e3);
    out.end_to_end.insert("quality", mean(&ratios));
    let ms = |v: &[f64]| v.iter().map(|s| (s * 1e3).round()).collect::<Vec<_>>();
    out.notes.push(format!(
        "certify: {} untraced rounds of {DRAWS} draws x {} records; pass times per round (ms) {:?}; \
         best per draw {:?}; slowest call per draw (median of the best) {:.0} ms; mean ratio {:.4}",
        plain.pass_s.len() / DRAWS,
        first[0].len(),
        plain.pass_s.chunks(DRAWS).map(ms).collect::<Vec<_>>(),
        ms(&best_pass),
        worst_call * 1e3,
        mean(&ratios)
    ));
    out.attempted = attempted;
    out.failed = failed;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_changes_the_demands_and_nothing_else() {
        let (a, b) = (scenarios(1, 0), scenarios(2, 0));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (&x.topology, &x.template, x.seed),
                (&y.topology, &y.template, y.seed)
            );
            assert_eq!(x.demands.len(), y.demands.len());
        }
        // Bit-reversal is fixed; every random demand differs.
        let random = |s: &[Config]| -> Vec<DemandSpec> {
            s.iter()
                .flat_map(|c| c.demands.iter().map(|d| d.1.clone()))
                .filter(|d| *d != DemandSpec::BitReversal)
                .collect()
        };
        for (x, y) in random(&a).iter().zip(&random(&b)) {
            assert_ne!(x, y);
        }
        // Same seed, same inputs; another pass, other demands.
        assert_eq!(random(&scenarios(1, 0)), random(&a));
        assert_ne!(random(&scenarios(1, 1)), random(&a));
    }
}
