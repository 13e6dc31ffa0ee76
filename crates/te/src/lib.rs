//! # ssor-te
//!
//! The traffic-engineering scenario that motivated semi-oblivious routing
//! in practice (SMORE, `[KYY+18a/b]`; Section 1.1 of the paper).
//!
//! SMORE installs a *small fixed set of candidate paths* per router pair
//! (sampled from Räcke's oblivious routing, `α = 4` in production) because
//! updating forwarding tables is slow, then re-optimizes *sending rates*
//! every few seconds as traffic shifts — exactly the semi-oblivious model.
//! This crate builds the synthetic WAN environment to rerun that story:
//!
//! * [`Wan`] — Waxman random WAN topologies with integer link capacities
//!   (expressed as parallel edges, the paper's convention);
//! * [`GravityModel`] — gravity demand matrices with diurnal drift and
//!   noise, producing a sequence of demand snapshots;
//! * [`evaluate_snapshots`] — the TE loop: per snapshot, re-optimize rates
//!   on the fixed candidate paths and compare max-link-utilization against
//!   the per-snapshot offline optimum;
//! * [`fail_link`] — link-failure robustness: drop a link, discard the
//!   candidate paths crossing it, measure surviving coverage and
//!   congestion.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rand::Rng;
use ssor_core::PathSystem;
use ssor_flow::solver::{
    min_congestion_masked, min_congestion_restricted, min_congestion_unrestricted, SolveOptions,
};
use ssor_flow::Demand;
use ssor_graph::{generators, EdgeId, Graph, VertexId};

/// A synthetic wide-area network: logical links with integer capacities,
/// expanded into a unit-capacity multigraph for the routing machinery.
#[derive(Debug, Clone)]
pub struct Wan {
    /// The expanded multigraph (one parallel edge per unit of capacity).
    pub graph: Graph,
    /// Logical link endpoints, indexed by logical link id.
    pub links: Vec<(VertexId, VertexId)>,
    /// Capacity per logical link.
    pub capacity: Vec<u32>,
    /// Physical (expanded) edge ids per logical link.
    pub replicas: Vec<Vec<EdgeId>>,
    /// Vertex positions in the unit square (for latency weighting).
    pub positions: Vec<(f64, f64)>,
}

impl Wan {
    /// Samples a connected Waxman WAN with `n` routers. Link capacities
    /// are assigned by endpoint degree (core links get capacity 4, medium
    /// 2, edge links 1) — a crude but standard tiering.
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Wan {
        let (base, positions) = generators::waxman(n, 0.6, 0.25, rng);
        let links: Vec<(VertexId, VertexId)> = base.edges().map(|(_, uv)| uv).collect();
        let capacity: Vec<u32> = links
            .iter()
            .map(|&(u, v)| {
                let d = base.degree(u).min(base.degree(v));
                if d >= 6 {
                    4
                } else if d >= 3 {
                    2
                } else {
                    1
                }
            })
            .collect();
        let (graph, replicas) = base.with_capacities(&capacity);
        Wan {
            graph,
            links,
            capacity,
            replicas,
            positions,
        }
    }

    /// Number of routers.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Number of logical links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }
}

/// Gravity-model demand generator with diurnal drift.
///
/// Router weights are heavy-tailed (Pareto-like, via `u^{-1/a}`);
/// `d(s, t) ∝ w_s * w_t`, modulated per snapshot by a sinusoidal diurnal
/// factor with per-source phase plus multiplicative noise.
#[derive(Debug, Clone)]
pub struct GravityModel {
    weights: Vec<f64>,
    phases: Vec<f64>,
    /// Total demand volume per snapshot (before modulation).
    pub total: f64,
    /// Relative amplitude of the diurnal swing (0..1).
    pub amplitude: f64,
    /// Log-normal noise sigma.
    pub noise: f64,
}

impl GravityModel {
    /// Samples router weights and phases for an `n`-router network.
    pub fn sample<R: Rng + ?Sized>(n: usize, total: f64, rng: &mut R) -> Self {
        let weights: Vec<f64> = (0..n)
            .map(|_| {
                let u: f64 = rng.gen_range(0.01..1.0);
                u.powf(-1.0 / 1.5) // Pareto(1.5) tail
            })
            .collect();
        let phases: Vec<f64> = (0..n)
            .map(|_| rng.gen_range(0.0..(2.0 * std::f64::consts::PI)))
            .collect();
        GravityModel {
            weights,
            phases,
            total,
            amplitude: 0.4,
            noise: 0.2,
        }
    }

    /// The demand snapshot at time `t` of `period` (e.g. hour `t` of 24).
    pub fn snapshot<R: Rng + ?Sized>(&self, t: usize, period: usize, rng: &mut R) -> Demand {
        let n = self.weights.len();
        let wsum: f64 = self.weights.iter().sum();
        let mut d = Demand::new();
        let angle = 2.0 * std::f64::consts::PI * (t as f64) / (period as f64);
        for s in 0..n {
            let diurnal = 1.0 + self.amplitude * (angle + self.phases[s]).sin();
            for tt in 0..n {
                if s == tt {
                    continue;
                }
                let base = self.total * self.weights[s] * self.weights[tt] / (wsum * wsum);
                // Log-normal noise.
                let z: f64 = {
                    // Box-Muller from two uniforms.
                    let u1: f64 = rng.gen_range(1e-12..1.0);
                    let u2: f64 = rng.gen::<f64>();
                    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
                };
                let noise = (self.noise * z).exp();
                let v = base * diurnal * noise;
                if v > 1e-9 {
                    d.set(s as VertexId, tt as VertexId, v);
                }
            }
        }
        d
    }
}

/// One snapshot's evaluation of a fixed candidate-path strategy.
#[derive(Debug, Clone)]
pub struct SnapshotReport {
    /// Snapshot index.
    pub snapshot: usize,
    /// Max link utilization achieved on the fixed candidate paths.
    pub congestion: f64,
    /// Certified lower bound on the per-snapshot optimum.
    pub opt_lower_bound: f64,
    /// `congestion / opt_lower_bound` (upper bound on the true gap).
    pub ratio: f64,
}

/// Runs the TE loop: for each snapshot re-optimize rates on the *fixed*
/// path system (the semi-oblivious model) and compare to the offline
/// optimum of that snapshot.
///
/// # Panics
///
/// Panics if `paths` misses coverage for some snapshot pair.
pub fn evaluate_snapshots(
    wan: &Wan,
    paths: &PathSystem,
    snapshots: &[Demand],
    opts: &SolveOptions,
) -> Vec<SnapshotReport> {
    snapshots
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let semi = min_congestion_restricted(&wan.graph, d, paths.candidates(), opts);
            let opt = min_congestion_unrestricted(&wan.graph, d, opts);
            let lb = opt.lower_bound.max(f64::MIN_POSITIVE);
            SnapshotReport {
                snapshot: i,
                congestion: semi.congestion,
                opt_lower_bound: opt.lower_bound,
                ratio: semi.congestion / lb,
            }
        })
        .collect()
}

/// One snapshot's evaluation under *stale* rates: the rates were
/// optimized for the previous snapshot (SMORE re-optimizes every few
/// seconds from a slightly old traffic snapshot, [KYY+18b]).
#[derive(Debug, Clone)]
pub struct StaleReport {
    /// Snapshot index the stale rates were applied to.
    pub snapshot: usize,
    /// Congestion of the stale rates on the current demand.
    pub stale_congestion: f64,
    /// Congestion of freshly re-optimized rates on the same demand.
    pub fresh_congestion: f64,
    /// `stale / fresh` — the staleness penalty.
    pub staleness_penalty: f64,
}

/// Runs the TE loop with one-snapshot-old rates: solve on snapshot
/// `t - 1`, apply the resulting per-pair splits to snapshot `t`'s demand.
/// The first snapshot is skipped (no previous rates exist).
///
/// Pairs present at `t` but absent at `t - 1` fall back to the first
/// candidate path (rates must exist for every pair in practice; gravity
/// demands have stable support so this is rare).
///
/// # Panics
///
/// Panics if `paths` misses coverage for some snapshot pair.
pub fn evaluate_with_stale_rates(
    wan: &Wan,
    paths: &PathSystem,
    snapshots: &[Demand],
    opts: &SolveOptions,
) -> Vec<StaleReport> {
    let mut out = Vec::new();
    for t in 1..snapshots.len() {
        let prev = &snapshots[t - 1];
        let cur = &snapshots[t];
        let stale = min_congestion_restricted(&wan.graph, prev, paths.candidates(), opts);
        // Apply the stale per-pair distributions to the current demand.
        let mut applied = stale.routing.clone();
        for (s, tt) in cur.support() {
            if applied.distribution(s, tt).is_none() {
                let cand = paths
                    .first_path(s, tt)
                    .unwrap_or_else(|| panic!("no candidates for ({s}, {tt})"));
                applied.set_distribution(s, tt, vec![(cand, 1.0)]);
            }
        }
        let stale_congestion = applied.congestion(&wan.graph, cur);
        let fresh = min_congestion_restricted(&wan.graph, cur, paths.candidates(), opts);
        out.push(StaleReport {
            snapshot: t,
            stale_congestion,
            fresh_congestion: fresh.congestion,
            staleness_penalty: stale_congestion / fresh.congestion.max(f64::MIN_POSITIVE),
        });
    }
    out
}

/// Outcome of a link-failure drill.
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// The failed logical link.
    pub link: usize,
    /// Fraction of demand pairs that still have at least one surviving
    /// candidate path.
    pub coverage: f64,
    /// Demand mass the damaged network physically cannot carry (pairs
    /// the failure disconnected, dropped by the masked optimum solve;
    /// 0.0 while the WAN stays connected).
    pub stranded: f64,
    /// Congestion of re-optimized rates on the surviving paths (only the
    /// covered sub-demand), or `None` if nothing survived.
    pub congestion: Option<f64>,
    /// Certified lower bound on the optimum on the damaged network.
    pub opt_lower_bound: f64,
}

/// Fails logical link `link`: removes its physical edges from the routing
/// universe, drops candidate paths crossing them, and re-optimizes the
/// covered part of `d` on the survivors. The optimum is recomputed on the
/// damaged network for comparison — through the solver's edge mask, so
/// no graph is rebuilt and edge ids stay stable; pairs the failure
/// disconnects are reported as `stranded` instead of panicking.
///
/// # Panics
///
/// Panics if `link` is out of range.
pub fn fail_link(
    wan: &Wan,
    paths: &PathSystem,
    d: &Demand,
    link: usize,
    opts: &SolveOptions,
) -> FailureReport {
    let dead = &wan.replicas[link];
    // Surviving candidate paths.
    let mut survivors = paths.clone();
    for &e in dead {
        survivors.remove_paths_through(e);
    }
    let covered = d.filtered(|s, t, _| survivors.covers_pair(s, t));
    let coverage = if d.support_len() == 0 {
        1.0
    } else {
        covered.support_len() as f64 / d.support_len() as f64
    };

    // Damaged-network optimum through the solver's edge mask (same
    // graph, same edge ids, dead replicas unusable).
    let mut usable = vec![true; wan.graph.m()];
    for &e in dead {
        usable[e as usize] = false;
    }
    let opt = min_congestion_masked(&wan.graph, d, &usable, opts);

    // Congestion on survivors (original edge ids still valid: we only
    // removed *paths*, and the survivors never cross dead edges).
    let congestion = if covered.is_empty() {
        None
    } else {
        Some(
            min_congestion_restricted(&wan.graph, &covered, survivors.candidates(), opts)
                .congestion,
        )
    };

    FailureReport {
        link,
        coverage,
        stranded: opt.stranded,
        congestion,
        opt_lower_bound: opt.lower_bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssor_core::sample::alpha_sample;
    use ssor_oblivious::{KspRouting, RaeckeRouting};

    fn small_wan(seed: u64) -> Wan {
        let mut rng = StdRng::seed_from_u64(seed);
        Wan::random(12, &mut rng)
    }

    #[test]
    fn wan_is_connected_with_capacities() {
        let wan = small_wan(1);
        assert!(wan.graph.is_connected());
        assert_eq!(wan.links.len(), wan.capacity.len());
        assert_eq!(
            wan.graph.m(),
            wan.capacity.iter().map(|&c| c as usize).sum::<usize>()
        );
        assert!(wan.capacity.iter().all(|&c| [1, 2, 4].contains(&c)));
    }

    #[test]
    fn gravity_snapshots_vary_but_keep_support() {
        let wan = small_wan(2);
        let mut rng = StdRng::seed_from_u64(3);
        let model = GravityModel::sample(wan.n(), 50.0, &mut rng);
        let a = model.snapshot(0, 24, &mut rng);
        let b = model.snapshot(12, 24, &mut rng);
        assert_eq!(
            a.support_len(),
            b.support_len(),
            "gravity support is dense and stable"
        );
        // Diurnal + noise means the values differ.
        let (pair, _) = a.iter().next().unwrap();
        assert_ne!(a.get(pair.0, pair.1), b.get(pair.0, pair.1));
    }

    #[test]
    fn te_loop_reports_reasonable_ratios() {
        let wan = small_wan(4);
        let mut rng = StdRng::seed_from_u64(5);
        let model = GravityModel::sample(wan.n(), 30.0, &mut rng);
        let snaps: Vec<Demand> = (0..3).map(|t| model.snapshot(t, 24, &mut rng)).collect();
        let raecke = RaeckeRouting::build(&wan.graph, &Default::default(), &mut rng);
        let pairs = snaps[0].support();
        let ps = alpha_sample(&raecke, &pairs, 4, 5);
        let reports = evaluate_snapshots(&wan, &ps, &snaps, &SolveOptions::with_eps(0.1));
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert!(r.ratio >= 0.99, "ratio below 1 impossible, got {}", r.ratio);
            assert!(
                r.ratio < 30.0,
                "alpha=4 SMORE sampling should be competitive, got {}",
                r.ratio
            );
        }
    }

    #[test]
    fn stale_rates_cost_little_on_smooth_traffic() {
        let wan = small_wan(8);
        let mut rng = StdRng::seed_from_u64(9);
        let model = GravityModel::sample(wan.n(), 25.0, &mut rng);
        let snaps: Vec<Demand> = (0..4).map(|t| model.snapshot(t, 24, &mut rng)).collect();
        let raecke = RaeckeRouting::build(&wan.graph, &Default::default(), &mut rng);
        let ps = alpha_sample(&raecke, &snaps[0].support(), 4, 9);
        let reports = evaluate_with_stale_rates(&wan, &ps, &snaps, &SolveOptions::with_eps(0.1));
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert!(
                r.staleness_penalty >= 0.95,
                "stale cannot beat fresh by much: {}",
                r.staleness_penalty
            );
            assert!(
                r.staleness_penalty < 2.5,
                "hour-adjacent gravity snapshots should be cheap to serve with stale rates, got {}",
                r.staleness_penalty
            );
        }
    }

    #[test]
    fn link_failure_keeps_most_coverage_with_alpha_4() {
        let wan = small_wan(6);
        let mut rng = StdRng::seed_from_u64(7);
        let ksp = KspRouting::new(&wan.graph, 6);
        let model = GravityModel::sample(wan.n(), 20.0, &mut rng);
        let d = model.snapshot(0, 24, &mut rng);
        let ps = alpha_sample(&ksp, &d.support(), 4, 7);
        // Every link can be drilled: the reported stranded mass must be
        // exactly the demand on pairs the damaged graph disconnects
        // (0.0 while the WAN stays whole) — no panics either way.
        let mut tested = 0;
        for link in 0..wan.link_count() {
            let kept: Vec<(u32, u32)> = wan
                .graph
                .edges()
                .filter(|(e, _)| !wan.replicas[link].contains(e))
                .map(|(_, uv)| uv)
                .collect();
            let damaged = Graph::from_edges(wan.graph.n(), &kept);
            let cut_mass: f64 = d
                .iter()
                .filter(|&((s, t), _)| {
                    ssor_graph::shortest_path::bfs_path(&damaged, s, t).is_none()
                })
                .map(|(_, w)| w)
                .sum();
            let rep = fail_link(&wan, &ps, &d, link, &SolveOptions::with_eps(0.15));
            assert!(rep.coverage >= 0.0 && rep.coverage <= 1.0);
            assert!(
                (rep.stranded - cut_mass).abs() < 1e-9 * (1.0 + cut_mass),
                "link {link}: stranded {} vs disconnected mass {}",
                rep.stranded,
                cut_mass
            );
            tested += 1;
            if tested >= 3 {
                break;
            }
        }
        assert!(tested > 0);
    }
}
