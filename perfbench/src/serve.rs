//! `serve_churn`: open-loop path lookups against the query plane, with
//! independent flows arriving at fixed offered rates, on a grid-10 table
//! where a hot set takes ~90% of requests, while a live `Rebuilder`
//! publishes new generations beside the one-shard reader.

use crate::metrics::Outcome;
use crate::openloop::{run_hold, Hold, HoldOutcome};
use crate::stages::{self, Config};
use crate::stats::{mean, median, percentile, repeated_setup};
use crate::trace::Tracer;
use crate::Args;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssor_engine::{PathSystemCache, TemplateSpec, TopologySpec};
use ssor_graph::shortest_path::bfs_tree;
use ssor_graph::{derive_seed, RouteTable, VertexId};
use ssor_serve::{
    answer_on, churned_source, ChurnModel, EpochCell, QueryPlane, Rebuilder, Reply, Request,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Paths per request (also the tables' sampling α), FRT trees per
/// template, query-plane shards, and the grid's side (a ≈0.6 MB table).
const ALPHA: usize = 4;
const TREES: usize = 4;
const SHARDS: usize = 1;
const SIDE: usize = 10;
/// The fixed offered rates (lookups per second).
pub const LOW_RATE: f64 = 0.5e6;
pub const HIGH_RATE: f64 = 1.0e6;
/// The p99 limit the highest sustainable rate must meet.
pub const P99_LIMIT_NS: f64 = 10e6;
/// Most requests in one batch.
const MAX_BATCH: usize = 4096;
/// Pre-generated request pairs, cycled through with fresh ids.
const POOL: usize = 1 << 17;
/// Every `SAMPLE_EVERY`-th request's reply is kept for replay.
const SAMPLE_EVERY: usize = 1009;
/// Hot pairs, and their share of requests.
const HOT_PAIRS: usize = 256;
const HOT_SHARE: f64 = 0.9;
/// Requests whose served paths the quality figure averages over.
const QUALITY_REQUESTS: usize = 20_000;
/// Table master seed (`TemplateSeedDrift`): part of the system.
const MASTER_SEED: u64 = 2023;
/// The max-rate search: hold length, holds per candidate rate, and
/// the ramp's step factor.
const SEARCH_HOLD: Duration = Duration::from_millis(250);
const RATE_HOLDS: usize = 3;
const RAMP: f64 = 1.25;
/// Holds per fixed-rate measurement.
const SUBHOLDS: usize = 20;
/// Capacity: offered rate, probe requests, then holds of about
/// `CAPACITY_HOLD` each.
const SATURATED_RATE: f64 = 1e9;
const CAPACITY_PROBE: usize = 200_000;
const CAPACITY_HOLD: Duration = Duration::from_millis(400);
const CAPACITY_HOLDS: usize = 10;
/// Most requests in one hold (bounds the latency buffer).
const MAX_HOLD_REQUESTS: usize = 2_500_000;

fn base() -> Config {
    Config {
        topology: TopologySpec::Grid {
            rows: SIDE,
            cols: SIDE,
        },
        template: TemplateSpec::FrtEnsemble { trees: TREES },
        alpha: ALPHA,
        seed: 0,
        demands: Vec::new(),
        simulate: false,
        opt: false,
    }
}

fn churn() -> ChurnModel {
    ChurnModel::TemplateSeedDrift {
        master_seed: MASTER_SEED,
    }
}

/// Bounded, so that memory stays flat while generations churn.
fn new_cache() -> Arc<PathSystemCache> {
    Arc::new(PathSystemCache::bounded(4))
}

/// The request pairs, drawn from the workload seed.
fn request_pool(n: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 5));
    let pair = |rng: &mut StdRng| {
        let s = rng.gen_range(0..n);
        let t = (s + rng.gen_range(1..n)) % n;
        (s as VertexId, t as VertexId)
    };
    let hot: Vec<_> = (0..HOT_PAIRS).map(|_| pair(&mut rng)).collect();
    (0..POOL)
        .map(|_| {
            if rng.gen_bool(HOT_SHARE) {
                hot[rng.gen_range(0..HOT_PAIRS)]
            } else {
                pair(&mut rng)
            }
        })
        .collect()
}

/// The serving side under test plus what the generator feeds it.
struct Bench<'a> {
    tracer: &'a Tracer,
    cell: Arc<EpochCell<RouteTable>>,
    plane: QueryPlane,
    pool: Vec<(VertexId, VertexId)>,
    /// Next request id (ids are unique across the run).
    next_id: u64,
    sample: Vec<(Request, Reply)>,
    unroutable: u64,
    answered: u64,
}

impl Bench<'_> {
    /// One open-loop hold at `rate` for `duration`.
    fn hold(&mut self, rate: f64, duration: Duration, traced: bool) -> HoldOutcome {
        let count = ((rate * duration.as_secs_f64()) as usize).clamp(1, MAX_HOLD_REQUESTS);
        self.hold_count(rate, count, traced)
    }

    /// Requests in one capacity hold: a short probe, offered far above
    /// capacity, sizes it to about `CAPACITY_HOLD`.
    fn capacity_hold_size(&mut self) -> usize {
        let probe = self
            .hold_count(SATURATED_RATE, CAPACITY_PROBE, false)
            .achieved_rate();
        ((probe * CAPACITY_HOLD.as_secs_f64()) as usize).clamp(CAPACITY_PROBE, MAX_HOLD_REQUESTS)
    }

    fn hold_count(&mut self, rate: f64, count: usize, traced: bool) -> HoldOutcome {
        let base = self.next_id;
        let mut buf: Vec<Request> = Vec::with_capacity(MAX_BATCH);
        let tracer = self.tracer;
        let out = run_hold(
            Hold {
                rate,
                count,
                max_batch: MAX_BATCH,
            },
            |range| {
                buf.clear();
                buf.extend(range.clone().map(|i| {
                    let id = base + i as u64;
                    let (s, t) = self.pool[id as usize % POOL];
                    Request { id, s, t }
                }));
                let req = base + range.start as u64;
                let outcome = if traced {
                    tracer.span("serve.batch", None, req, |span| {
                        let table =
                            tracer.span("serve.epoch.load", span, req, |_| self.cell.load());
                        tracer.span("serve.query.batch", span, req, |_| {
                            ssor_serve::answer_batch_on(&table, ALPHA, self.plane.shards(), &buf)
                        })
                    })
                } else {
                    self.plane.answer_batch(&buf)
                };
                self.unroutable += outcome.unroutable as u64;
                self.answered += outcome.replies.len() as u64;
                let first = buf[0].id as usize;
                let mut j = (SAMPLE_EVERY - first % SAMPLE_EVERY) % SAMPLE_EVERY;
                while j < buf.len() {
                    self.sample.push((buf[j], outcome.replies[j].clone()));
                    j += SAMPLE_EVERY;
                }
            },
        );
        self.next_id += count as u64;
        if traced {
            let t = self.tracer;
            t.count("query.requests", count as f64);
            t.count("query.batches", out.batch_sizes.len() as f64);
            t.count("query.busy_ns", out.busy_ns as f64);
            t.count("hold.wall_ns", out.wall_ns as f64);
            t.count(
                "generator.lag_us_sum",
                out.lag_ns.iter().sum::<u64>() as f64 * 1e-3,
            );
            t.count("generator.wakeups", out.lag_ns.len() as f64);
        }
        out
    }
}

fn hold_pct_ns(h: &HoldOutcome, q: f64) -> f64 {
    let mut v: Vec<f64> = h.latency_ns.iter().map(|&x| x as f64).collect();
    percentile(&mut v, q).expect("holds are long enough for their percentiles")
}

/// The highest offered rate meeting the limit. Each candidate rate runs
/// `RATE_HOLDS` short holds and meets the limit when the median hold
/// does. The rate ramps up by `RAMP` from the low rate until a rate
/// fails, then bisects twice between the last pass and the failure.
/// Returns the median achieved rate of the best passing candidate.
fn max_rate(bench: &mut Bench, budget: Duration) -> f64 {
    let start = crate::clock::now();
    let try_rate = |bench: &mut Bench, rate: f64| -> Option<f64> {
        let holds: Vec<HoldOutcome> = (0..RATE_HOLDS)
            .map(|_| bench.hold(rate, SEARCH_HOLD, false))
            .collect();
        let p99 = median(
            &holds
                .iter()
                .map(|h| hold_pct_ns(h, 99.0))
                .collect::<Vec<_>>(),
        );
        let backlog = median(
            &holds
                .iter()
                .map(HoldOutcome::final_tenth_mean_ns)
                .collect::<Vec<_>>(),
        );
        // No growing backlog: the last tenth of a hold is within the limit too.
        (p99 <= P99_LIMIT_NS && backlog <= P99_LIMIT_NS).then(|| {
            median(
                &holds
                    .iter()
                    .map(HoldOutcome::achieved_rate)
                    .collect::<Vec<_>>(),
            )
        })
    };
    let fits = |start: Instant| start.elapsed() + SEARCH_HOLD * RATE_HOLDS as u32 <= budget;
    let (mut best, mut achieved, mut fail) = (0.0, 0.0, None);
    let mut rate = LOW_RATE;
    while fail.is_none() && fits(start) {
        match try_rate(bench, rate) {
            Some(a) => (best, achieved, rate) = (rate, a, rate * RAMP),
            None => fail = Some(rate),
        }
    }
    for _ in 0..2 {
        let Some(f) = fail else { break };
        if best == 0.0 || !fits(start) {
            break;
        }
        let mid = (best * f).sqrt();
        match try_rate(bench, mid) {
            Some(a) => (best, achieved) = (mid, a),
            None => fail = Some(mid),
        }
    }
    achieved
}

/// The holds of one offered rate.
struct Fixed(Vec<HoldOutcome>);

impl Fixed {
    /// The median over the holds of each hold's `q`-th percentile, so a
    /// single stall moves one hold's figure and not the run's.
    fn pct_ns(&self, q: f64) -> f64 {
        median(&self.per_hold_ns(q))
    }

    fn per_hold_ns(&self, q: f64) -> Vec<f64> {
        self.0.iter().map(|h| hold_pct_ns(h, q)).collect()
    }
}

/// `SUBHOLDS` holds at each fixed rate and, when `capacity` is set,
/// `CAPACITY_HOLDS` capacity holds, interleaved across the run: a slow
/// spell of the host then moves a few holds of each kind rather than
/// every hold of one. Capacity holds offer far above what the plane can
/// answer, so a full batch is always waiting; the capacity is their
/// combined achieved rate, which averages over the rebuilds they
/// overlap (a single hold's rate depends on how much of it a rebuild
/// took).
struct Mix {
    low: Fixed,
    high: Fixed,
    capacity: Option<f64>,
}

fn mix(
    bench: &mut Bench,
    low_total: Duration,
    high_total: Duration,
    traced: bool,
    capacity: bool,
) -> Mix {
    let count = capacity.then(|| bench.capacity_hold_size());
    let (mut low, mut high) = (Vec::new(), Vec::new());
    let (mut answered, mut wall_ns) = (0, 0);
    for i in 0..SUBHOLDS {
        low.push(bench.hold(LOW_RATE, low_total / SUBHOLDS as u32, traced));
        high.push(bench.hold(HIGH_RATE, high_total / SUBHOLDS as u32, traced));
        if let Some(count) = count.filter(|_| i % (SUBHOLDS / CAPACITY_HOLDS) == 0) {
            let h = bench.hold_count(SATURATED_RATE, count, false);
            answered += h.latency_ns.len();
            wall_ns += h.wall_ns;
        }
    }
    Mix {
        low: Fixed(low),
        high: Fixed(high),
        capacity: count.map(|_| answered as f64 * 1e9 / wall_ns as f64),
    }
}

/// Replays the sampled replies against rebuilt generations; returns the
/// number of mismatched or unroutable replies and the generations
/// checked (generation 0 always, for [`stretch`]), and generation 0.
fn replay(sample: &[(Request, Reply)]) -> (u64, Vec<u64>, RouteTable) {
    let mut failed = sample.iter().filter(|(_, r)| r.is_unroutable()).count() as u64;
    let mut by_gen: BTreeMap<u64, Vec<&(Request, Reply)>> = BTreeMap::new();
    for item in sample {
        by_gen.entry(item.1.generation).or_default().push(item);
    }
    let gens: Vec<u64> = by_gen.keys().copied().collect();
    // Deterministic choice: generation 0 and the first, middle and last
    // generation seen.
    let mut chosen = vec![0];
    if let (Some(&first), Some(&last)) = (gens.first(), gens.last()) {
        chosen.extend([first, gens[gens.len() / 2], last]);
    }
    chosen.sort_unstable();
    chosen.dedup();
    let pipeline = base().pipeline();
    let mut gen0 = None;
    for &g in &chosen {
        let table = churned_source(new_cache(), pipeline.clone(), churn())(g);
        for (req, reply) in by_gen.get(&g).into_iter().flatten() {
            if answer_on(&table, ALPHA, req).as_ref() != Some(reply) {
                failed += 1;
            }
        }
        if g == 0 {
            gen0 = Some(table);
        }
    }
    (
        failed,
        chosen,
        gen0.expect("generation 0 is always rebuilt"),
    )
}

/// Mean stretch (hops over shortest hops) of the paths generation 0
/// serves to the first `QUALITY_REQUESTS` requests: the quality of the
/// served routes for this seed's request mix, independent of timing.
fn stretch(table: &RouteTable, pool: &[(VertexId, VertexId)]) -> f64 {
    let graph = base().topology.build_graph();
    let trees: Vec<_> = (0..graph.n() as VertexId)
        .map(|v| bfs_tree(&graph, v))
        .collect();
    let mut stretch = Vec::with_capacity(QUALITY_REQUESTS * ALPHA);
    for (i, &(src, dst)) in pool.iter().take(QUALITY_REQUESTS).enumerate() {
        let req = Request {
            id: i as u64,
            s: src,
            t: dst,
        };
        let reply = answer_on(table, ALPHA, &req).expect("every pair is in the table");
        let shortest = trees[src as usize].dist_to(dst);
        stretch.extend(
            reply
                .paths
                .iter()
                .map(|&id| table.store().materialize(id).hop() as f64 / shortest),
        );
    }
    mean(&stretch)
}

pub fn run(args: &Args, tracer: &Arc<Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let pipeline = base().pipeline();

    // Set-up: generation 0's table and the plane over it.
    let (setup_s, (source, cell, plane)) = repeated_setup(|| {
        let t0 = crate::clock::now();
        let mut source = churned_source(new_cache(), pipeline.clone(), churn());
        let cell = Arc::new(EpochCell::new(Arc::new(source(0))));
        let plane = QueryPlane::new(Arc::clone(&cell), ALPHA, SHARDS);
        (t0.elapsed().as_secs_f64(), (source, cell, plane))
    });
    let table0 = cell.load();
    out.table_bytes = table0.flat_bytes();
    let pool = request_pool(table0.n(), args.seed);
    let mut bench = Bench {
        tracer,
        cell: Arc::clone(&cell),
        plane,
        pool,
        next_id: 0,
        sample: Vec::new(),
        unroutable: 0,
        answered: 0,
    };

    let rebuild_start = crate::clock::now();
    let rebuilder = Rebuilder::spawn(Arc::clone(&cell), source, None);
    // A traced run measures its untraced baseline on a quarter of the
    // budget per rate, then the same holds traced.
    let (low_share, high_share) = if args.trace {
        (0.25, 0.25)
    } else {
        (0.55, 0.45)
    };
    let Mix {
        low,
        high,
        capacity,
    } = mix(
        &mut bench,
        args.budget.mul_f64(low_share),
        args.budget.mul_f64(high_share),
        false,
        args.trace,
    );
    // Capacity and the highest rate meeting the p99 limit swing with the
    // host's load on small shared machines, so they are traced-run
    // figures only.
    let capacity = capacity.unwrap_or(0.0);
    let max = if args.trace {
        max_rate(&mut bench, args.budget / 2)
    } else {
        0.0
    };
    let built_gens = rebuilder.stop();
    let gens_per_s = built_gens as f64 / rebuild_start.elapsed().as_secs_f64();

    let mut failed = 0;
    if args.trace {
        // Generation 0 once more through the traced mirror: its set-up
        // stages are traced, and it must answer exactly as the table the
        // engine built.
        let gen0 = Config {
            seed: derive_seed(MASTER_SEED, 0),
            ..base()
        };
        let mirror = stages::rebuild(tracer, &new_cache(), &gen0, 0);
        failed += bench.pool[..MAX_BATCH]
            .iter()
            .enumerate()
            .filter(|&(i, &(s, t))| {
                let req = Request { id: i as u64, s, t };
                answer_on(&mirror, ALPHA, &req) != answer_on(&table0, ALPHA, &req)
            })
            .count() as u64;
        let source = {
            let tracer = Arc::clone(tracer);
            let cache = new_cache();
            move |g| {
                let cfg = Config {
                    seed: derive_seed(MASTER_SEED, g),
                    ..base()
                };
                stages::rebuild(&tracer, &cache, &cfg, g)
            }
        };
        let rebuilder = Rebuilder::spawn(Arc::clone(&cell), source, None);
        let traced = mix(&mut bench, args.budget / 4, args.budget / 4, true, false);
        let traced_gens = rebuilder.stop();
        let mut waits: Vec<f64> = (traced.low.0.iter().chain(&traced.high.0))
            .flat_map(|h| h.wait_ns.iter().map(|&w| w as f64 * 1e-3))
            .collect();
        let layers = &mut out.layers;
        layers.insert("serve.rebuild.generations", traced_gens as f64);
        layers.insert(
            "trace.overhead_share",
            traced.low.pct_ns(50.0) / low.pct_ns(50.0) - 1.0,
        );
        layers.insert(
            "serve.queue.wait_p50_us",
            percentile(&mut waits, 50.0).unwrap_or(0.0),
        );
        layers.insert(
            "serve.queue.wait_p99_us",
            percentile(&mut waits, 99.0).unwrap_or(0.0),
        );
        layers.insert("serve.p99_high_ms", high.pct_ns(99.0) * 1e-6);
        layers.insert("serve.max_rate_mlps", max * 1e-6);
        layers.insert("serve.query.capacity_mlps", capacity * 1e-6);
        layers.insert("serve.rebuild.generations_per_s", gens_per_s);
        layers.insert(
            "graph.route_table.flat_mb",
            table0.flat_bytes() as f64 / 1e6,
        );
        layers.insert(
            "graph.route_table.path_refs",
            table0.total_path_refs() as f64,
        );
        // A serial pass of answer_on: seed, CDF draw and reply per lookup.
        let table = cell.load();
        let reqs: Vec<Request> = (0..POOL)
            .map(|i| Request {
                id: bench.next_id + i as u64,
                s: bench.pool[i].0,
                t: bench.pool[i].1,
            })
            .collect();
        let serial = tracer.span("serve.lookup.serial", None, 0, |_| {
            let t = crate::clock::now();
            for r in &reqs {
                std::hint::black_box(answer_on(&table, ALPHA, r));
            }
            t.elapsed()
        });
        tracer.count("lookup.serial_ns", serial.as_nanos() as f64);
        tracer.count("lookup.serial_count", reqs.len() as f64);
    }

    let (replay_failed, checked, gen0) = replay(&bench.sample);
    let stretch = stretch(&gen0, &bench.pool);
    out.attempted = bench.answered;
    out.failed = failed + replay_failed + bench.unroutable;
    out.end_to_end.insert("setup_s", setup_s);
    out.end_to_end.insert("p50_ms", low.pct_ns(50.0) * 1e-6);
    out.end_to_end.insert("tail_ms", low.pct_ns(99.0) * 1e-6);
    out.end_to_end.insert("quality", stretch);
    out.notes.push(format!(
        "churn: grid {0}x{0}, table {1} bytes, {2} shard(s); low {LOW_RATE}/s p50 {3:.1} us p99 {4:.1} us; \
         high {HIGH_RATE}/s p99 {5:.1} us; capacity {6:.0}/s and max rate under the p99 limit {12:.0}/s (traced runs); \
         {7} generations ({8:.2}/s); \
         replayed {9} sampled replies against generations {10:?}; mean stretch {11:.4}",
        SIDE,
        out.table_bytes,
        SHARDS,
        low.pct_ns(50.0) * 1e-3,
        low.pct_ns(99.0) * 1e-3,
        high.pct_ns(99.0) * 1e-3,
        capacity,
        built_gens,
        gens_per_s,
        bench.sample.len(),
        checked,
        stretch,
        max
    ));
    let ms = |v: Vec<f64>| {
        v.iter()
            .map(|x| format!("{:.2}", x * 1e-6))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.notes.push(format!(
        "churn: p90 per low-rate hold (ms): {}",
        ms(low.per_hold_ns(90.0))
    ));
    out.notes.push(format!(
        "churn: p99 per low-rate hold (ms): {}",
        ms(low.per_hold_ns(99.0))
    ));
    out.notes.push(format!(
        "churn: p50 per low-rate hold (ms): {}",
        ms(low.per_hold_ns(50.0))
    ));
    out.notes.push(format!(
        "churn: p99 per high-rate hold (ms): {}",
        ms(high.per_hold_ns(99.0))
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_changes_the_requests() {
        let a = request_pool(100, 1);
        assert_eq!(a.len(), POOL);
        assert!(a.iter().all(|&(s, t)| s != t && s < 100 && t < 100));
        assert_eq!(a, request_pool(100, 1));
        assert_ne!(a, request_pool(100, 2));
    }

    #[test]
    fn requests_are_skewed_towards_a_hot_set() {
        let pool = request_pool(100, 3);
        let mut counts: BTreeMap<(VertexId, VertexId), usize> = BTreeMap::new();
        for &p in &pool {
            *counts.entry(p).or_default() += 1;
        }
        let mut top: Vec<usize> = counts.into_values().collect();
        top.sort_unstable_by(|a, b| b.cmp(a));
        let hot: usize = top.iter().take(HOT_PAIRS).sum();
        let share = hot as f64 / pool.len() as f64;
        assert!((0.88..0.93).contains(&share), "hot share {share}");
    }
}
