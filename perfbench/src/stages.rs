//! The traced mirror of `Pipeline::prepare` and `Pipeline::run`: the
//! same public calls, in the same order, each wrapped in a span.
//!
//! Untraced runs call `Pipeline` itself; traced runs call these, and the
//! workloads check that both produce the same records, streams and
//! tables, so a divergence between this mirror and the engine fails the
//! run instead of skewing its spans.

use crate::trace::{SpanId, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ssor_core::sample::all_pairs;
use ssor_core::{PathSystem, SemiObliviousRouter};
use ssor_engine::sampling::par_alpha_sample;
use ssor_engine::{
    DemandSpec, EvalRecord, OptBounds, PathSystemCache, Pipeline, ResolveCtx, SharedTemplate,
    TemplateBuilder, TemplateSpec, TopologySpec,
};
use ssor_flow::rounding::round_routing;
use ssor_flow::solver::min_congestion_unrestricted;
use ssor_flow::SolveOptions;
use ssor_graph::{par_ordered_map, Graph, RouteTable};
use ssor_lowerbound::graphs::CGraphMeta;
use ssor_sim::{simulate_routing, SimConfig};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The engine's rounding/simulation stream tag (`pipeline.rs`), needed
/// to replay stage 5 outside the engine. The record comparison against
/// `Pipeline::run` fails loudly if the engine ever changes it.
const SIM_STREAM_TAG: u64 = 0x51D3_4D31_7261_C0DE;

/// One pipeline configuration, kept in the open so that both the
/// `Pipeline` builder and the traced mirror can be made from it.
#[derive(Debug, Clone)]
pub struct Config {
    pub topology: TopologySpec,
    pub template: TemplateSpec,
    pub alpha: usize,
    pub seed: u64,
    pub demands: Vec<(String, DemandSpec)>,
    pub simulate: bool,
    pub opt: bool,
}

impl Config {
    pub fn pipeline(&self) -> Pipeline {
        let p = Pipeline::on(self.topology.clone())
            .template(self.template.clone())
            .alpha(self.alpha)
            .seed(self.seed)
            .demands(self.demands.clone());
        let p = if self.simulate {
            p.simulate(SimConfig::default())
        } else {
            p
        };
        if self.opt {
            p
        } else {
            p.without_opt()
        }
    }
}

/// Stages 1–3, executed by the mirror.
pub struct Prepared {
    pub graph: Arc<(Graph, Option<CGraphMeta>)>,
    pub template: SharedTemplate,
    pub paths: Arc<PathSystem>,
    pub router: SemiObliviousRouter,
}

/// `Pipeline::prepare` (congestion objective), span by span. Counts the
/// pairs sampled and how many of them the demand batch uses.
pub fn prepare(
    tracer: &Tracer,
    cache: &PathSystemCache,
    cfg: &Config,
    parent: Option<SpanId>,
    req: u64,
) -> Prepared {
    let before = cache.stats();
    let out = tracer.span("engine.prepare", parent, req, |span| {
        let graph = tracer.span("engine.cache.graph", span, req, |_| {
            cache.graph(&cfg.topology)
        });
        let (template, _) = tracer.span("oblivious.template_build", span, req, |_| {
            TemplateBuilder::new(cache).build(&cfg.topology, &cfg.template, cfg.seed)
        });
        let paths = tracer.span("engine.cache.paths", span, req, |paths_span| {
            cache.paths(&cfg.topology, &cfg.template, cfg.alpha, cfg.seed, || {
                let n = graph.0.n();
                let sampled = tracer.span("engine.sampling.sample", paths_span, req, |_| {
                    par_alpha_sample(template.as_ref(), &all_pairs(n), cfg.alpha, cfg.seed)
                });
                tracer.count("sampling.calls", 1.0);
                tracer.count("sampling.pairs", (n * (n - 1)) as f64);
                tracer.count("sampling.useful_pairs", support_pairs(cfg, &graph.0) as f64);
                Arc::new(sampled)
            })
        });
        let router = tracer.span("core.router.new", span, req, |_| {
            SemiObliviousRouter::new(graph.0.clone(), (*paths).clone())
        });
        Prepared {
            graph,
            template,
            paths,
            router,
        }
    });
    count_cache(tracer, cache, before);
    tracer.count("cache.prepares", 1.0);
    out
}

/// Distinct pairs in the support of the configuration's demand batch
/// (all pairs when the batch is empty: a stream routes every pair).
fn support_pairs(cfg: &Config, g: &Graph) -> usize {
    if cfg.demands.is_empty() {
        return g.n() * (g.n() - 1);
    }
    let ctx = ResolveCtx::new(&cfg.topology, g);
    let pairs: BTreeSet<_> = cfg
        .demands
        .iter()
        .flat_map(|(_, spec)| spec.resolve(&ctx).support())
        .collect();
    pairs.len()
}

fn count_cache(tracer: &Tracer, cache: &PathSystemCache, before: ssor_engine::CacheStats) {
    let after = cache.stats();
    let hits = (after.hits - before.hits) as f64;
    let misses = (after.misses - before.misses) as f64;
    tracer.count("cache.hits", hits);
    tracer.count("cache.lookups", hits + misses);
    tracer.count(
        "cache.evictions",
        (after.evictions - before.evictions) as f64,
    );
}

/// `Pipeline::run` (congestion objective): prepare, then evaluate the
/// demand batch in parallel across demands, as the engine does.
pub fn run(
    tracer: &Tracer,
    cache: &PathSystemCache,
    cfg: &Config,
    parent: Option<SpanId>,
    req: u64,
) -> Vec<EvalRecord> {
    let prepared = prepare(tracer, cache, cfg, parent, req);
    let before = cache.stats();
    let opts = SolveOptions::default();
    let records = par_ordered_map(&cfg.demands, 2, |(name, spec)| {
        evaluate(
            tracer, cache, cfg, &prepared, &opts, name, spec, parent, req,
        )
    });
    count_cache(tracer, cache, before);
    records
}

/// `PreparedPipeline::evaluate` for the congestion objective.
#[allow(clippy::too_many_arguments)]
fn evaluate(
    tracer: &Tracer,
    cache: &PathSystemCache,
    cfg: &Config,
    prepared: &Prepared,
    opts: &SolveOptions,
    name: &str,
    spec: &DemandSpec,
    parent: Option<SpanId>,
    req: u64,
) -> EvalRecord {
    let g = &prepared.graph.0;
    let d = spec.resolve(&ResolveCtx::new(&cfg.topology, g));
    let sol = tracer.span("flow.restricted.solve", parent, req, |_| {
        prepared.router.route_fractional(&d, opts)
    });
    tracer.count("restricted.solves", 1.0);
    tracer.count("restricted.iterations", sol.iterations as f64);
    let dilation = sol.routing.dilation(&d);
    let opt = (cfg.opt && !d.is_empty()).then(|| {
        cache.opt_bounds(&cfg.topology, spec, opts, || {
            let opt = tracer.span("flow.opt.solve", parent, req, |_| {
                min_congestion_unrestricted(g, &d, opts)
            });
            tracer.count("opt.solves", 1.0);
            tracer.count("opt.iterations", opt.iterations as f64);
            tracer.count("opt.oracle_calls", opt.stats.oracle_calls as f64);
            tracer.count("opt.gap_sum", opt.gap());
            OptBounds {
                congestion: opt.congestion,
                lower_bound: opt.lower_bound,
            }
        })
    });
    let makespan = (cfg.simulate && !d.is_empty() && d.is_integral()).then(|| {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ SIM_STREAM_TAG);
        let rounded = tracer.span("flow.rounding", parent, req, |_| {
            round_routing(g, &sol.routing, &d, 16, &mut rng)
        });
        tracer.span("sim.simulate", parent, req, |_| {
            simulate_routing(g, &rounded.routing, &SimConfig::default()).makespan
        })
    });
    EvalRecord {
        name: name.to_string(),
        alpha: cfg.alpha,
        congestion: sol.congestion,
        dilation,
        opt_lower_bound: opt.map(|o| o.lower_bound),
        opt_upper_bound: opt.map(|o| o.congestion),
        ratio: opt.map(|o| sol.congestion / o.lower_bound.max(f64::MIN_POSITIVE)),
        makespan,
        converged: Some(sol.converged),
        stats: Some(sol.stats),
    }
}

/// The deterministic part of a record, byte for byte (solver wall
/// times are left out; iteration and oracle counts are kept).
pub fn canonical(r: &EvalRecord) -> String {
    let bits = |x: Option<f64>| x.map(f64::to_bits);
    let stats = r.stats.as_ref().map(|s| {
        (
            s.iterations,
            s.oracle_calls,
            s.stages
                .iter()
                .map(|st| (st.eps.to_bits(), st.iterations))
                .collect::<Vec<_>>(),
        )
    });
    format!(
        "{}|{}|{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        r.name,
        r.alpha,
        r.congestion.to_bits(),
        r.dilation,
        bits(r.opt_lower_bound),
        bits(r.opt_upper_bound),
        bits(r.ratio),
        r.makespan,
        r.converged,
        stats
    )
}

/// The churned rebuild source (`ssor_serve::churned_source` under
/// `TemplateSeedDrift`), split into prepare and snapshot spans.
pub fn rebuild(
    tracer: &Tracer,
    cache: &PathSystemCache,
    cfg: &Config,
    generation: u64,
) -> RouteTable {
    tracer.span("serve.rebuild.source", None, generation, |span| {
        cache.advance_generation();
        let prepared = prepare(tracer, cache, cfg, span, generation);
        let n = prepared.graph.0.n();
        tracer.span("engine.snapshot.route_table", span, generation, |_| {
            ssor_engine::route_table_from_template(
                prepared.template.as_ref(),
                &all_pairs(n),
                generation,
            )
        })
    })
}
