//! Runs every experiment regenerator (E1–E9, A1–A3) through the sweep
//! scheduler.
//!
//! `cargo run --release -p ssor-bench --bin run_all`
//!
//! Each binary is one sweep cell: outputs are captured and printed in
//! the fixed E1..A3 order afterwards (so the transcript is deterministic
//! even when bins finish out of order), a `[run_all] <bin> done` line
//! goes to stderr as each bin completes, and completions are journaled to
//! `results/run_all.journal` — a crashed or killed run picks up where it
//! left off, re-running only the bins that had not finished. The journal
//! is removed after a fully successful run, so the next invocation
//! starts fresh.
//!
//! The sweep runs as many bins at once as the ambient rayon width allows,
//! each child pinned to an equal share of the workers via `RAYON_NUM_THREADS`
//! (every bin's numbers are thread-count invariant, so sharding changes
//! wall-clock only).

use serde::Serialize;
use ssor_engine::sweep::{cells, run_sweep, SweepOptions};
use std::path::PathBuf;
use std::process::Command;

#[derive(Serialize)]
struct BinRun {
    bin: String,
    code: i64,
    stdout: String,
    stderr: String,
}

fn results_dir() -> PathBuf {
    let root = std::env::var("CARGO_MANIFEST_DIR")
        .map(|p| format!("{p}/../.."))
        .unwrap_or_else(|_| ".".into());
    PathBuf::from(root).join("results")
}

fn main() {
    let bins = [
        "e1_log_sparsity",
        "e2_alpha_sweep",
        "e3_lower_bound",
        "e4_deterministic",
        "e5_cut_sparsity",
        "e6_completion_time",
        "e7_traffic_engineering",
        "e8_rounding",
        "e9_tail_bounds",
        "a1_oblivious_ablation",
        "a2_solver_ablation",
        "a3_hop_ablation",
    ];
    let exe = std::env::current_exe().expect("current exe path");
    let dir = exe.parent().expect("bin dir").to_path_buf();

    let workers = rayon::current_num_threads().min(bins.len()).max(1);
    // Don't oversubscribe: the bins are internally parallel, so each
    // child gets an equal share of the ambient worker budget.
    let child_threads = (rayon::current_num_threads() / workers).max(1);

    std::fs::create_dir_all(results_dir()).ok();
    let journal = results_dir().join("run_all.journal");
    let opts = SweepOptions::default().journal(&journal);

    let grid = cells(bins.iter().map(|b| b.to_string()).collect::<Vec<_>>());
    let outcome = run_sweep(&grid, &opts, |cell, _seed| {
        let out = Command::new(dir.join(&cell.payload))
            .env("RAYON_NUM_THREADS", child_threads.to_string())
            .output()
            .unwrap_or_else(|e| panic!("failed to launch {}: {e}", cell.payload));
        let code = out.status.code().unwrap_or(-1) as i64;
        let run = BinRun {
            bin: cell.payload.clone(),
            code,
            stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
            stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        };
        // A failed bin must not reach the journal (it would be skipped
        // as "completed" on resume): surface its output and panic. Bins
        // already finished stay journaled, so the rerun only repeats
        // this one.
        if code != 0 {
            eprintln!("\n##### {} FAILED (code {code}) #####\n", run.bin);
            eprint!("{}{}", run.stdout, run.stderr);
            panic!("{} exited with code {code}", run.bin);
        }
        eprintln!("[run_all] {} done", run.bin);
        run
    });

    for rec in &outcome.records {
        let bin = bins[rec.id as usize];
        println!("\n##### {bin} #####\n");
        match &rec.result {
            Some(run) => {
                print!("{}", run.stdout);
                if !run.stderr.is_empty() {
                    eprint!("{}", run.stderr);
                }
            }
            // Resumed from the journal of an interrupted earlier run:
            // the bin already completed and wrote its results/ record.
            None => println!("(completed in a previous interrupted run; see results/)"),
        }
    }
    std::fs::remove_file(&journal).ok();
    println!(
        "\nall experiments completed ({} run now, {} resumed); JSON records in results/",
        outcome.executed, outcome.resumed
    );
}
