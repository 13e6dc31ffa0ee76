//! Template sharing through the `PathSystemCache`: a pipeline re-run
//! reuses its stage-2 template instead of rebuilding it, and a failure
//! sweep builds its intact-topology template once for all of its trials.
//! Asserted through the cache's miss counter (every miss is one
//! construction) and the `Arc` identity of the prepared template.

use ssor::engine::{
    DemandSpec, PathSystemCache, Pipeline, TemplateBuilder, TemplateSpec, TopologySpec,
};
use ssor::flow::SolveOptions;

fn grid_pipeline() -> Pipeline {
    Pipeline::on(TopologySpec::Grid { rows: 3, cols: 3 })
        .alpha(2)
        .solve_options(SolveOptions::with_eps(0.1))
        .without_opt()
        .demand("d", DemandSpec::Pairs(vec![(0, 8)]))
}

#[test]
fn pipeline_rerun_shares_its_template() {
    let cache = PathSystemCache::new();
    let p = grid_pipeline();
    let first = p.run(&cache);
    let built = cache.stats();
    assert!(built.misses > 0, "a fresh cache constructs");
    let second = p.run(&cache);
    let after = cache.stats();
    assert_eq!(after.misses, built.misses, "the re-run constructs nothing");
    assert!(
        after.hits > built.hits,
        "the re-run is answered by the cache"
    );
    assert_eq!(first.records[0].congestion, second.records[0].congestion);

    // Same cache: the very same template object; fresh cache: a new one.
    let a = p.prepare(&cache);
    let b = p.prepare(&cache);
    let fresh = p.prepare(&PathSystemCache::new());
    let (ta, tb, tf) = (
        a.template()
            .expect("congestion objective builds a template"),
        b.template()
            .expect("congestion objective builds a template"),
        fresh
            .template()
            .expect("congestion objective builds a template"),
    );
    assert!(std::ptr::addr_eq(ta, tb), "re-prepare shares the template");
    assert!(!std::ptr::addr_eq(ta, tf), "a fresh cache builds its own");
}

#[test]
fn failure_sweep_builds_its_intact_template_once_for_all_trials() {
    let topo = TopologySpec::Hypercube { dim: 3 };
    let p = Pipeline::on(topo.clone())
        .template(TemplateSpec::Valiant)
        .alpha(2)
        .seed(11)
        .solve_options(SolveOptions::with_eps(0.1))
        .without_opt()
        .demand("complement", DemandSpec::Complement);

    // One prepare's worth of constructions: graph, template, path system.
    let prepared = PathSystemCache::new();
    p.prepare(&prepared);
    let one_prepare = prepared.stats().misses;

    // A five-trial sweep on a fresh cache constructs exactly that much —
    // no trial builds a template of its own.
    let cache = PathSystemCache::new();
    let sweep = p.failure_sweep(&cache, 1, 5);
    assert_eq!(sweep.trials.len(), 5);
    assert_eq!(cache.stats().misses, one_prepare);

    // The intact template is the cached one, and a second sweep over the
    // same cache shares everything outright.
    let (_, cached) = TemplateBuilder::new(&cache).build(&topo, &TemplateSpec::Valiant, 11);
    assert!(cached, "the sweep's template is in the cache");
    p.failure_sweep(&cache, 1, 2);
    assert_eq!(cache.stats().misses, one_prepare);
}
