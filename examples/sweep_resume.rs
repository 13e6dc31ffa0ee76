//! Acceptance harness for the sweep layer: a **1000-cell failure
//! sweep** must produce bit-identical JSON at 1, 2, and 8 workers
//! (pinned through `RAYON_NUM_THREADS`), again after a mid-run kill +
//! resume, and again on a second resume that finds every cell journaled
//! — with the atomic run counter proving no cell ever ran twice.
//!
//! ```text
//! cargo run --release --example sweep_resume
//! ```
//!
//! Each cell is a one-trial failure sweep under its own derived seed
//! (`derive_seed(master, cell.id)`), so the grid is embarrassingly wide
//! and every cell's bytes are a pure function of its identity. The
//! "kill" is simulated the way a real crash lands on the journal: the
//! file is cut mid-line, leaving 400 complete records plus a torn tail
//! that the resume must cut off and re-run.

use ssor::engine::sweep::{cells, run_sweep, SweepOptions};
use ssor::engine::{DemandSpec, PathSystemCache, Pipeline, TemplateSpec, TopologySpec};
use ssor::flow::SolveOptions;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Pins the sweep's worker count: the scheduler follows the ambient
/// rayon width, and this single-threaded harness owns its environment.
fn pin_workers(threads: usize) {
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    assert_eq!(rayon::current_num_threads(), threads);
}

const CELLS: usize = 1000;
const KEEP_LINES: usize = 400;

fn main() {
    let base = Pipeline::on(TopologySpec::Hypercube { dim: 4 })
        .template(TemplateSpec::Valiant)
        .alpha(2)
        .solve_options(SolveOptions::with_eps(0.2))
        .without_opt()
        .demand("bit-reversal", DemandSpec::BitReversal);
    let cache = PathSystemCache::new();
    let ran = AtomicUsize::new(0);
    let eval = |_cell: &ssor::engine::sweep::SweepCell<u64>, cell_seed: u64| {
        ran.fetch_add(1, Ordering::Relaxed);
        base.clone().seed(cell_seed).failure_sweep(&cache, 2, 1)
    };
    let grid = cells((0..CELLS as u64).collect::<Vec<_>>());
    let opts = SweepOptions::default().seed(0xACCE97);

    println!("sweep_resume: {CELLS}-cell failure sweep, bit-identical across workers + resume");
    pin_workers(1);
    let baseline = run_sweep(&grid, &opts, eval);
    let baseline_json = baseline.to_json_string();
    assert_eq!(ran.swap(0, Ordering::Relaxed), CELLS);
    println!(
        "  [1 worker]  {} cells, {} report bytes",
        baseline.executed,
        baseline_json.len()
    );

    for threads in [2usize, 8] {
        pin_workers(threads);
        let got = run_sweep(&grid, &opts, eval);
        assert_eq!(ran.swap(0, Ordering::Relaxed), CELLS);
        assert_eq!(
            got.to_json_string(),
            baseline_json,
            "report bytes differ at {threads} workers"
        );
        println!("  [{threads} workers] bit-identical to the 1-worker report");
    }

    // Kill + resume: full journaled run, then cut the journal mid-line
    // after KEEP_LINES complete records.
    let journal =
        std::env::temp_dir().join(format!("ssor_sweep_resume_{}.journal", std::process::id()));
    std::fs::remove_file(&journal).ok();
    let opts = opts.journal(&journal);
    pin_workers(8);
    run_sweep(&grid, &opts, eval);
    assert_eq!(ran.swap(0, Ordering::Relaxed), CELLS);
    let bytes = std::fs::read(&journal).unwrap();
    let mut cut = 0;
    let mut lines = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            lines += 1;
            if lines == KEEP_LINES {
                cut = i + 1;
                break;
            }
        }
    }
    // Leave half of the next line — a torn write the resume must discard.
    let torn = cut + bytes[cut..].iter().position(|&b| b == b'\n').unwrap() / 2;
    std::fs::write(&journal, &bytes[..torn]).unwrap();
    println!(
        "  [kill]      journal cut to {KEEP_LINES} complete lines + a torn tail ({} of {} bytes)",
        torn,
        bytes.len()
    );

    let resumed = run_sweep(&grid, &opts, eval);
    assert_eq!(
        (resumed.executed, resumed.resumed),
        (CELLS - KEEP_LINES, KEEP_LINES),
        "resume must skip exactly the journaled cells"
    );
    assert_eq!(
        ran.swap(0, Ordering::Relaxed),
        CELLS - KEEP_LINES,
        "a journaled cell was evaluated twice"
    );
    assert_eq!(
        resumed.to_json_string(),
        baseline_json,
        "resumed report bytes differ from the uninterrupted run"
    );
    println!(
        "  [resume]    {} re-ran, {} resumed, bytes identical; no cell ran twice",
        resumed.executed, resumed.resumed
    );

    // A second resume must find every cell journaled exactly once: the
    // first resume cut the torn tail before appending its re-runs.
    let again = run_sweep(&grid, &opts, eval);
    assert_eq!(
        (again.executed, again.resumed),
        (0, CELLS),
        "second resume must find every cell journaled"
    );
    assert_eq!(
        ran.swap(0, Ordering::Relaxed),
        0,
        "second resume evaluated a cell"
    );
    assert_eq!(
        again.to_json_string(),
        baseline_json,
        "second resume's report bytes differ from the uninterrupted run"
    );
    std::fs::remove_file(&journal).ok();
    println!("  [resume 2]  0 re-ran, {CELLS} resumed, bytes identical");
    println!("OK");
}
