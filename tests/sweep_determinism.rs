//! Completion-order invariance of the sweep scheduler.
//!
//! `ssor_engine::sweep` promises that the assembled report is a pure
//! function of `(cells, master_seed)` — bit-identical at every worker
//! count, in every completion order and input order, and across any
//! kill/resume split of the journal. These tests pin that promise on its
//! two real consumers (the failure sweep and an α-grid), on the journal
//! itself (whole lines under concurrent appends, torn tails cut before
//! the next append), plus a property test over random
//! subset/shuffle/resume schedules.
//!
//! The scheduler has one sizing knob, the ambient `RAYON_NUM_THREADS`
//! (the path CI's 2- and 8-thread jobs exercise), so every thread sweep
//! here pins it under [`env_lock`].

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use ssor::engine::sweep::{cells, grid, run_sweep, SweepCell, SweepOptions};
use ssor::engine::{
    DemandSpec, PathSystemCache, Pipeline, ScenarioSpec, TemplateSpec, TopologySpec,
};
use ssor::flow::SolveOptions;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// `RAYON_NUM_THREADS` is process-global and the vendored shim reads it
/// on every call, so tests that sweep thread counts via the environment
/// must serialize (same idiom as `tests/determinism.rs`).
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn env_lock() -> MutexGuard<'static, ()> {
    ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with the ambient rayon width pinned to `threads`; callers
/// hold [`env_lock`].
fn at_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    // If the override stopped being honored, a thread sweep would
    // compare identical runs and pass vacuously.
    assert_eq!(
        rayon::current_num_threads(),
        threads,
        "worker-count override not honored; thread sweep would be vacuous"
    );
    let out = f();
    std::env::remove_var("RAYON_NUM_THREADS");
    out
}

fn tmp_journal(name: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "ssor_sweep_det_{}_{}_{name}.journal",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The failure-sweep pipeline the issue names: same spec at every thread
/// count must serialize to the same bytes.
fn failure_pipeline() -> Pipeline {
    Pipeline::on(TopologySpec::Hypercube { dim: 4 })
        .template(TemplateSpec::Valiant)
        .alpha(2)
        .seed(11)
        .solve_options(SolveOptions::with_eps(0.15))
        .without_opt()
        .demand("complement", DemandSpec::Complement)
}

#[test]
fn failure_sweep_is_invariant_under_the_ambient_thread_count() {
    let _guard = env_lock();
    let p = failure_pipeline();
    let reports: Vec<String> = [1usize, 2, 8]
        .into_iter()
        .map(|threads| {
            at_threads(threads, || {
                let cache = PathSystemCache::new();
                serde_json::to_string(&p.failure_sweep(&cache, 2, 4)).unwrap()
            })
        })
        .collect();
    assert_eq!(reports[0], reports[1], "1 vs 2 threads");
    assert_eq!(reports[0], reports[2], "1 vs 8 threads");
}

#[test]
fn alpha_grid_sweep_is_invariant_across_thread_counts() {
    let _guard = env_lock();
    let scenarios = [ScenarioSpec::HypercubeAdversarial { dim: 3 }];
    let run_grid = |threads: usize| -> String {
        let grid_cells = grid(&scenarios, &[1, 2, 3], 2);
        let cache = PathSystemCache::new();
        let outcome = at_threads(threads, || {
            run_sweep(
                &grid_cells,
                &SweepOptions::default().seed(5),
                |cell, cell_seed| {
                    cell.payload
                        .scenario
                        .pipeline()
                        .alpha(cell.payload.alpha)
                        .seed(cell_seed)
                        .solve_options(SolveOptions::with_eps(0.15))
                        .run(&cache)
                },
            )
        });
        assert_eq!(outcome.executed, 6);
        outcome.to_json_string()
    };
    let base = run_grid(1);
    assert_eq!(base, run_grid(2), "alpha grid differs at 2 workers");
    assert_eq!(base, run_grid(8), "alpha grid differs at 8 workers");
}

#[test]
fn resume_after_journal_truncation_never_reruns_a_cell() {
    let _guard = env_lock();
    // Each cell is a one-trial failure sweep under its own derived seed —
    // the example in `examples/sweep_resume.rs` at acceptance scale, kept
    // small here so the property is pinned in the test suite too.
    let p = Pipeline::on(TopologySpec::Hypercube { dim: 3 })
        .template(TemplateSpec::Valiant)
        .alpha(2)
        .solve_options(SolveOptions::with_eps(0.2))
        .without_opt()
        .demand("pair", DemandSpec::Pairs(vec![(0, 7)]));
    let cache = PathSystemCache::new();
    let ran = AtomicUsize::new(0);
    let eval = |cell: &SweepCell<u64>, cell_seed: u64| {
        ran.fetch_add(1, Ordering::Relaxed);
        let _ = cell;
        p.clone().seed(cell_seed).failure_sweep(&cache, 1, 1)
    };
    let grid_cells = cells((0..24u64).collect::<Vec<_>>());
    let sweep = |opts: &SweepOptions| at_threads(2, || run_sweep(&grid_cells, opts, eval));
    let opts = SweepOptions::default().seed(9);

    let uninterrupted = sweep(&opts);
    assert_eq!(ran.swap(0, Ordering::Relaxed), 24);

    // Full journaled run, then "kill" it mid-write: keep the first 10
    // complete lines plus a torn prefix of line 11.
    let path = tmp_journal("truncate");
    let opts = opts.journal(&path);
    sweep(&opts);
    assert_eq!(ran.swap(0, Ordering::Relaxed), 24);
    let bytes = std::fs::read(&path).unwrap();
    let mut keep = 0;
    let mut newlines = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            newlines += 1;
            if newlines == 10 {
                keep = i + 1;
                break;
            }
        }
    }
    // Torn tail: half of line 11, no newline — must be ignored on resume.
    let torn_end = (keep + (bytes[keep..].iter().position(|&b| b == b'\n').unwrap())) - 3;
    std::fs::write(&path, &bytes[..torn_end]).unwrap();

    let resumed = sweep(&opts);
    assert_eq!((resumed.executed, resumed.resumed), (14, 10));
    // The atomic run counter proves no journaled cell was evaluated twice.
    assert_eq!(ran.swap(0, Ordering::Relaxed), 14);
    assert_eq!(
        resumed.to_json_string(),
        uninterrupted.to_json_string(),
        "resume after truncation must reassemble the uninterrupted bytes"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn torn_tail_survives_a_second_resume() {
    // A kill that tears the journal's last line, then two resumes: the
    // first re-runs the torn cell, the second must find every cell
    // journaled exactly once and reassemble the clean bytes. Appending
    // the re-run cell onto the torn fragment instead would leave a
    // corrupt line for the second resume to splice into the report.
    let grid_cells = cells((0..6u64).collect::<Vec<_>>());
    let clean = run_sweep(&grid_cells, &SweepOptions::default().seed(3), probe);
    let path = tmp_journal("double_resume");
    let opts = SweepOptions::default().seed(3).journal(&path);
    run_sweep(&grid_cells, &opts, probe);
    let mut bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes.pop(), Some(b'\n'));
    std::fs::write(&path, &bytes).unwrap();

    let first = run_sweep(&grid_cells, &opts, probe);
    assert_eq!((first.executed, first.resumed), (1, 5));
    let second = run_sweep(&grid_cells, &opts, probe);
    std::fs::remove_file(&path).ok();
    assert_eq!((second.executed, second.resumed), (0, 6));
    assert_eq!(second.to_json_string(), clean.to_json_string());
}

#[test]
fn concurrent_appends_keep_one_whole_journal_line_per_cell() {
    let _guard = env_lock();
    let grid_cells = cells((0..200u64).collect::<Vec<_>>());
    let path = tmp_journal("concurrent");
    let opts = SweepOptions::default().seed(21).journal(&path);
    let (fresh, resumed) = at_threads(8, || {
        let fresh = run_sweep(&grid_cells, &opts, probe);
        (fresh, run_sweep(&grid_cells, &opts, probe))
    });
    let journal = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();

    assert!(journal.ends_with('\n'), "journal ends in a torn line");
    let mut ids: Vec<u64> = journal
        .lines()
        .map(|line| {
            let (id, json) = line.split_once('\t').expect("line without a tab");
            let id: u64 = id.parse().unwrap();
            assert_eq!(json, fresh.records[id as usize].json, "line {line:?}");
            id
        })
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..200).collect::<Vec<u64>>(), "one line per cell");
    assert_eq!((resumed.executed, resumed.resumed), (0, 200));
    assert_eq!(resumed.to_json_string(), fresh.to_json_string());
}

/// Pure, cheap evaluator for the schedule property test: any dependence
/// on completion order or resume split would show up as differing bytes.
#[derive(Serialize)]
struct ProbeOut {
    payload: u64,
    seed_lane: u64,
}

fn probe(cell: &SweepCell<u64>, cell_seed: u64) -> ProbeOut {
    ProbeOut {
        payload: cell.payload.wrapping_mul(0x9E37_79B9),
        seed_lane: cell_seed % 1000,
    }
}

proptest! {
    /// Random subsets of cells, run in shuffled order and merged through
    /// the journal, assemble to the same report as the full in-order run.
    #[test]
    fn shuffled_subsets_merge_to_the_in_order_report(
        perm_seed in any::<u64>(),
        split in 0usize..=24,
        threads in 1usize..5,
    ) {
        let _guard = env_lock();
        let grid_cells = cells((0..24u64).map(|x| x * 5 + 1).collect::<Vec<_>>());
        let opts = SweepOptions::default().seed(perm_seed);
        let full = at_threads(1, || run_sweep(&grid_cells, &opts, probe));

        let mut shuffled = grid_cells.clone();
        let mut rng = StdRng::seed_from_u64(perm_seed);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..i + 1));
        }
        let path = tmp_journal("prop");
        let opts = opts.journal(&path);
        let (first, merged) = at_threads(threads, || {
            let first = run_sweep(&shuffled[..split], &opts, probe);
            (first, run_sweep(&shuffled, &opts, probe))
        });
        std::fs::remove_file(&path).ok();

        prop_assert_eq!(first.executed, split);
        prop_assert_eq!(merged.resumed, split);
        prop_assert_eq!(merged.executed, 24 - split);
        prop_assert_eq!(merged.to_json_string(), full.to_json_string());
    }
}
