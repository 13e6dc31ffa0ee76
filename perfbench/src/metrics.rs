//! Metric names, how each per-layer metric is read from the trace, and
//! the result line.

use crate::stats::percentile;
use crate::trace::{durations_ns, totals_by_name, Span, Tracer};
use crate::Args;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit, better)`. Every workload reports
/// every one of them; README.md gives each its meaning per workload.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("p50_ms", "ms", "lower"),
    ("tail_ms", "ms", "lower"),
    ("quality", "ratio", "lower"),
];

/// Where a per-layer metric comes from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// Mean duration of the named span, in seconds.
    MeanS(&'static str),
    /// Mean duration of the named span, in microseconds.
    MeanUs(&'static str),
    /// A percentile of the named span's durations, scaled from ns.
    Pct(&'static str, f64, f64),
    /// One counter divided by another (0 when the divisor is 0).
    Per(&'static str, &'static str),
    /// Set by the workload itself.
    Workload,
}

use Source::{MeanS, MeanUs, Pct, Per, Workload};

/// Per-layer metrics: `(name, unit, source)`. A metric whose layer a
/// workload does not exercise reads 0 there.
#[rustfmt::skip]
pub const PER_LAYER: &[(&str, &str, Source)] = &[
    ("engine.cache.graph_s", "s", MeanS("engine.cache.graph")),
    ("oblivious.template_build_s", "s", MeanS("oblivious.template_build")),
    ("engine.sampling.sample_s", "s", MeanS("engine.sampling.sample")),
    ("engine.sampling.pairs_sampled", "count", Per("sampling.pairs", "sampling.calls")),
    ("engine.sampling.useful_share", "ratio", Per("sampling.useful_pairs", "sampling.pairs")),
    ("core.router.new_s", "s", MeanS("core.router.new")),
    ("flow.opt.solve_s", "s", MeanS("flow.opt.solve")),
    ("flow.opt.iterations", "count", Per("opt.iterations", "opt.solves")),
    ("flow.opt.oracle_calls", "count", Per("opt.oracle_calls", "opt.solves")),
    ("flow.opt.gap", "ratio", Per("opt.gap_sum", "opt.solves")),
    ("flow.restricted.solve_s", "s", MeanS("flow.restricted.solve")),
    ("flow.restricted.iterations", "count", Per("restricted.iterations", "restricted.solves")),
    ("flow.warm.resolve_p50_ms", "ms", Pct("flow.warm.resolve", 50.0, 1e-6)),
    ("flow.warm.resolve_p90_ms", "ms", Pct("flow.warm.resolve", 90.0, 1e-6)),
    ("flow.warm.iterations", "count", Per("warm.iterations", "warm.solves")),
    ("flow.warm.oracle_calls", "count", Per("warm.oracle_calls", "warm.solves")),
    ("flow.oracle.build_s", "s", MeanS("flow.oracle.build")),
    ("engine.cache.hit_share", "ratio", Per("cache.hits", "cache.lookups")),
    ("engine.cache.evictions", "count", Per("cache.evictions", "cache.prepares")),
    ("flow.rounding_s", "s", MeanS("flow.rounding")),
    ("sim.simulate_s", "s", MeanS("sim.simulate")),
    ("serve.epoch.load_us", "us", MeanUs("serve.epoch.load")),
    ("serve.query.batch_p50_us", "us", Pct("serve.query.batch", 50.0, 1e-3)),
    ("serve.query.batch_p99_us", "us", Pct("serve.query.batch", 99.0, 1e-3)),
    ("serve.query.batch_size", "count", Per("query.requests", "query.batches")),
    ("serve.query.busy_share", "ratio", Per("query.busy_ns", "hold.wall_ns")),
    ("serve.queue.wait_p50_us", "us", Workload),
    ("serve.queue.wait_p99_us", "us", Workload),
    ("serve.generator.lag_us", "us", Per("generator.lag_us_sum", "generator.wakeups")),
    ("serve.query.per_lookup_ns", "ns", Per("lookup.serial_ns", "lookup.serial_count")),
    ("serve.p99_high_ms", "ms", Workload),
    ("serve.max_rate_mlps", "M/s", Workload),
    ("serve.query.capacity_mlps", "M/s", Workload),
    ("graph.route_table.flat_mb", "MB", Workload),
    ("graph.route_table.path_refs", "count", Workload),
    ("serve.rebuild.source_s", "s", MeanS("serve.rebuild.source")),
    ("engine.prepare_s", "s", MeanS("engine.prepare")),
    ("engine.snapshot.route_table_s", "s", MeanS("engine.snapshot.route_table")),
    ("serve.rebuild.generations", "count", Workload),
    ("serve.rebuild.generations_per_s", "1/s", Workload),
    ("trace.overhead_share", "ratio", Workload),
];

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every [`END_TO_END`] metric, from the untraced measurement.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// The [`Source::Workload`] per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Bytes of the served table (0 where nothing is served).
    pub table_bytes: usize,
    /// Human-readable lines printed ahead of the result.
    pub notes: Vec<String>,
}

/// Reads the span- and counter-derived per-layer metrics.
pub fn layer_metrics(tracer: &Tracer, outcome: &Outcome) -> Vec<(&'static str, &'static str, f64)> {
    let spans = tracer.spans();
    let counters = tracer.counters();
    let count = |k: &str| counters.get(k).copied().unwrap_or(0.0);
    PER_LAYER
        .iter()
        .map(|&(name, unit, source)| {
            let value = match source {
                MeanS(span) => mean_ns(&spans, span) * 1e-9,
                MeanUs(span) => mean_ns(&spans, span) * 1e-3,
                Pct(span, p, scale) => {
                    let mut v: Vec<f64> = durations_ns(&spans, span)
                        .into_iter()
                        .map(|d| d as f64)
                        .collect();
                    percentile(&mut v, p).map_or(0.0, |x| x * scale)
                }
                Per(num, den) => {
                    let d = count(den);
                    if d > 0.0 {
                        count(num) / d
                    } else {
                        0.0
                    }
                }
                Workload => outcome.layers.get(name).copied().unwrap_or(0.0),
            };
            (name, unit, value)
        })
        .collect()
}

fn mean_ns(spans: &[Span], name: &str) -> f64 {
    let d = durations_ns(spans, name);
    if d.is_empty() {
        0.0
    } else {
        d.iter().sum::<u64>() as f64 / d.len() as f64
    }
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine facts stamped on every result record.
fn facts(args: &Args, table_bytes: usize) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let rayon = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(cores);
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"cores\": {cores}, \"rayon_threads\": {rayon}, \
         \"commit\": \"{}\", \"table_bytes\": {table_bytes}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        commit()
    )
}

/// The checked-out commit when the tree is a git checkout, else
/// "unknown" (read from the files, without running git).
fn commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .unwrap_or_default()
            .trim()
            .to_string(),
        None => head.to_string(),
    };
    if id.len() == 40 && id.bytes().all(|b| b.is_ascii_hexdigit()) {
        id
    } else {
        "unknown".to_string()
    }
}

fn json_number(x: f64) -> String {
    assert!(x.is_finite(), "metric value {x} is not finite");
    format!("{x:?}")
}

/// Prints the human-readable report, writes the trace file of a traced
/// run, and prints the result line last.
pub fn report(args: &Args, tracer: &Tracer, mut outcome: Outcome) {
    outcome.end_to_end.insert("peak_rss_mb", peak_rss_mb());
    let facts = facts(args, outcome.table_bytes);
    println!("facts {facts}");
    for line in &outcome.notes {
        println!("{line}");
    }
    let mut printed: Vec<(&str, &str, f64)> = Vec::with_capacity(END_TO_END.len());
    for &(name, unit, better) in END_TO_END {
        let v = *outcome
            .end_to_end
            .get(name)
            .unwrap_or_else(|| panic!("workload did not measure {name}"));
        println!("end_to_end {name:<18} {v:>14.6} {unit:<6} ({better} is better)");
        printed.push((name, unit, v));
    }
    if args.trace {
        let layers = layer_metrics(tracer, &outcome);
        for (name, unit, v) in &layers {
            println!("per_layer  {name:<34} {v:>14.6} {unit}");
        }
        match write_trace(args, tracer, &facts, &layers) {
            Ok(path) => println!("trace written to {path}"),
            Err(e) => eprintln!("perfbench: could not write the trace: {e}"),
        }
        printed = layers;
    }
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, (name, unit, v)) in printed.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*v)
        );
    }
    line.push_str("}}");
    println!("{line}");
}

/// Most spans written to a trace file; the per-name totals always cover
/// every span recorded.
const MAX_WRITTEN_SPANS: usize = 100_000;

fn write_trace(
    args: &Args,
    tracer: &Tracer,
    facts: &str,
    layers: &[(&str, &str, f64)],
) -> std::io::Result<String> {
    let spans = tracer.spans();
    let mut s = String::new();
    let _ = write!(s, "{{\n\"facts\": {facts},\n\"metrics\": {{");
    for (i, (name, unit, v)) in layers.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*v)
        );
    }
    s.push_str("},\n\"counters\": {");
    for (i, (name, v)) in tracer.counters().iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{name}\": {}", json_number(*v));
    }
    s.push_str("},\n\"span_totals\": {");
    for (i, (name, t)) in totals_by_name(&spans).iter().enumerate() {
        let sep = if i == 0 { "" } else { ",\n  " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"calls\": {}, \"total_s\": {}, \"self_s\": {}}}",
            t.calls,
            json_number(t.total_ns as f64 * 1e-9),
            json_number(t.self_ns as f64 * 1e-9)
        );
    }
    let _ = write!(
        s,
        "}},\n\"spans_recorded\": {},\n\"span_fields\": [\"id\", \"parent\", \"name\", \"request\", \"start_ns\", \"end_ns\"],\n\"spans\": [",
        spans.len()
    );
    for (i, sp) in spans.iter().take(MAX_WRITTEN_SPANS).enumerate() {
        let sep = if i == 0 { "\n  " } else { ",\n  " };
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "{sep}[{}, {parent}, \"{}\", {}, {}, {}]",
            sp.id, sp.name, sp.request, sp.start_ns, sp.end_ns
        );
    }
    s.push_str("\n]\n}\n");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    std::fs::write(&path, s)?;
    Ok(path.display().to_string())
}
