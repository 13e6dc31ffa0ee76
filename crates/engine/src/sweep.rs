//! The sweep scheduler: fans an arbitrary grid of independent cells out
//! through `ssor_graph::par_ordered_map` with per-cell derived seeds,
//! journals each finished cell the moment it completes, and assembles a
//! final JSON report that is **bit-identical** at every thread count,
//! in every completion order, and across crash/resume.
//!
//! The paper's experiments (and the dynamic scenarios layered on them)
//! are embarrassingly wide: thousands of independent
//! `(scenario × trial × α)` cells. Three properties make a sweep over
//! them trustworthy:
//!
//! 1. **Seed-by-identity, not by schedule.** Every cell's RNG stream is
//!    `ssor_graph::derive_seed(master_seed, cell.id)` — a pure function
//!    of the cell's identity. Which worker runs the cell, and when, can
//!    never change its result.
//! 2. **Order-free assembly.** Cells fan out through the workspace's one
//!    fan-out primitive, so the worker count follows `RAYON_NUM_THREADS`
//!    like every other parallel stage; the final report sorts by cell
//!    id, so completion order leaves no trace in the output bytes.
//! 3. **Crash-resumable journal.** Each finished cell is appended to the
//!    journal as one `<id>\t<compact-json>\n` line and flushed by the
//!    worker that ran it, under a lock, so concurrent appends never
//!    interleave. A rerun reads the journal, skips every completed cell
//!    (keeping its journaled bytes verbatim), and computes only the
//!    remainder — the final JSON is byte-identical to an uninterrupted
//!    run. A line without a trailing newline (a mid-write kill) is cut
//!    off the file before the first append and its cell simply re-runs.
//!
//! The journal's *line order* reflects completion order and is therefore
//! not stable across runs; only the assembled report is. Since the
//! vendored `serde_json` shim is encode-only, resumed cells are carried
//! as raw journaled JSON strings — they are spliced into the report
//! byte-for-byte, never re-parsed.
//!
//! # Examples
//!
//! ```
//! use ssor_engine::sweep::{cells, run_sweep, SweepOptions};
//!
//! // 10 cells; each result is a pure function of (payload, cell seed).
//! let grid = cells((0..10u64).collect::<Vec<_>>());
//! let opts = SweepOptions::default().seed(42);
//! let first = run_sweep(&grid, &opts, |c, s| (c.payload, s % 97));
//! let again = run_sweep(&grid, &opts, |c, s| (c.payload, s % 97));
//! assert_eq!(first.to_json_string(), again.to_json_string());
//! assert_eq!(first.executed, 10);
//! ```

use serde::Serialize;
use ssor_graph::{derive_seed, par_ordered_map};
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// One unit of sweep work: a stable identity plus an arbitrary payload
/// (a scenario, a trial index, an `α` value, a whole spec — whatever the
/// evaluator consumes).
///
/// The `id` is the cell's *identity*: it keys the derived seed, the
/// journal line, and the position in the final report. Ids must be
/// unique within a sweep but need not be dense or sorted — a resumed or
/// subsetted sweep passes whatever cells remain.
#[derive(Debug, Clone)]
pub struct SweepCell<C> {
    /// Stable identity of this cell (seed key + journal key + report
    /// sort key).
    pub id: u64,
    /// The work description the evaluator consumes.
    pub payload: C,
}

/// Wraps payloads into [`SweepCell`]s with dense ids `0..n` in input
/// order — the common case where the grid is materialized once.
///
/// # Examples
///
/// ```
/// use ssor_engine::sweep::cells;
/// let g = cells(vec!["a", "b"]);
/// assert_eq!((g[0].id, g[1].id), (0, 1));
/// ```
pub fn cells<C>(payloads: impl IntoIterator<Item = C>) -> Vec<SweepCell<C>> {
    payloads
        .into_iter()
        .enumerate()
        .map(|(i, payload)| SweepCell {
            id: i as u64,
            payload,
        })
        .collect()
}

/// One point of the canonical `(scenario × α × trial)` experiment grid.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// The scenario this cell evaluates.
    pub scenario: crate::ScenarioSpec,
    /// The sparsity budget for this cell.
    pub alpha: usize,
    /// Trial index within `(scenario, alpha)`.
    pub trial: usize,
}

/// Materializes the full `(scenario × α × trial)` grid with dense ids,
/// scenarios outermost and trials innermost (the order every serial
/// experiment loop in `crates/bench` historically used).
///
/// # Examples
///
/// ```
/// use ssor_engine::sweep::grid;
/// use ssor_engine::ScenarioSpec;
///
/// let cells = grid(&[ScenarioSpec::HypercubeAdversarial { dim: 3 }], &[1, 2], 3);
/// assert_eq!(cells.len(), 6);
/// assert_eq!((cells[5].payload.alpha, cells[5].payload.trial), (2, 2));
/// ```
pub fn grid(
    scenarios: &[crate::ScenarioSpec],
    alphas: &[usize],
    trials: usize,
) -> Vec<SweepCell<GridCell>> {
    let mut out = Vec::with_capacity(scenarios.len() * alphas.len() * trials);
    for scenario in scenarios {
        for &alpha in alphas {
            for trial in 0..trials {
                out.push(SweepCell {
                    id: out.len() as u64,
                    payload: GridCell {
                        scenario: scenario.clone(),
                        alpha,
                        trial,
                    },
                });
            }
        }
    }
    out
}

/// Scheduler configuration for [`run_sweep`]. The worker count is not
/// a setting: like every other parallel stage it follows the ambient
/// rayon width (`RAYON_NUM_THREADS` / available parallelism).
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Master seed: cell `i` evaluates under
    /// `ssor_graph::derive_seed(master_seed, i)`.
    pub master_seed: u64,
    /// Journal path for crash-resume. `None` disables journaling
    /// (results are only kept in memory).
    pub journal: Option<PathBuf>,
}

impl SweepOptions {
    /// Sets the master seed.
    pub fn seed(mut self, master_seed: u64) -> Self {
        self.master_seed = master_seed;
        self
    }

    /// Enables journaling to `path`.
    pub fn journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(path.into());
        self
    }
}

/// One cell's slot in a [`SweepOutcome`].
#[derive(Debug, Clone)]
pub struct CellRecord<R> {
    /// The cell's id.
    pub id: u64,
    /// The result as compact JSON — serialized now for fresh cells,
    /// journal bytes verbatim for resumed ones.
    pub json: String,
    /// The in-memory result; `None` iff the cell was resumed from the
    /// journal (the encode-only JSON shim cannot reconstruct it).
    pub result: Option<R>,
}

/// The result of [`run_sweep`]: every cell's record in **ascending id
/// order** (independent of input order and completion order), plus how the
/// work split between fresh execution and journal resume.
#[derive(Debug, Clone)]
pub struct SweepOutcome<R> {
    /// Per-cell records, ascending by id.
    pub records: Vec<CellRecord<R>>,
    /// Cells evaluated by this run.
    pub executed: usize,
    /// Cells answered verbatim from the journal.
    pub resumed: usize,
}

impl<R> SweepOutcome<R> {
    /// The assembled report: a JSON array of the per-cell results in
    /// ascending id order, one element per line. Byte-identical across
    /// thread counts, completion orders, input orders, and resume splits.
    pub fn to_json_string(&self) -> String {
        let mut out = String::from("[");
        for (i, rec) in self.records.iter().enumerate() {
            out.push_str(if i == 0 { "\n  " } else { ",\n  " });
            out.push_str(&rec.json);
        }
        if !self.records.is_empty() {
            out.push('\n');
        }
        out.push_str("]\n");
        out
    }

    /// Writes [`SweepOutcome::to_json_string`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_json(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json_string())
    }
}

/// Reads a journal back as `id → compact JSON`. Missing file means an
/// empty journal; a final line without its trailing newline (a mid-write
/// kill) is dropped, so its cell re-runs on resume, and its start offset
/// is returned so [`open_journal`] can cut it off the file.
fn read_journal(path: &Path) -> (HashMap<u64, String>, Option<u64>) {
    let mut done = HashMap::new();
    let Ok(bytes) = std::fs::read(path) else {
        return (done, None);
    };
    let complete = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    for line in String::from_utf8_lossy(&bytes[..complete]).split_terminator('\n') {
        let Some((id, json)) = line.split_once('\t') else {
            continue;
        };
        let (Ok(id), false) = (id.parse::<u64>(), json.is_empty()) else {
            continue;
        };
        done.insert(id, json.to_string());
    }
    let torn = (complete < bytes.len()).then_some(complete as u64);
    (done, torn)
}

/// Opens the journal for appending, first truncating it to `torn` (the
/// end of its last complete line) if it ends in a torn line — otherwise
/// the next append would land on the end of the torn fragment and
/// corrupt both lines.
fn open_journal(path: &Path, torn: Option<u64>) -> File {
    OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|f| match torn {
            Some(len) => f.set_len(len).map(|()| f),
            None => Ok(f),
        })
        .unwrap_or_else(|e| panic!("cannot open sweep journal {}: {e}", path.display()))
}

/// Appends one completed cell to the journal and flushes, so a kill
/// after this call never loses the cell.
fn append_journal(file: &mut File, id: u64, json: &str) {
    file.write_all(format!("{id}\t{json}\n").as_bytes())
        .expect("sweep journal write failed");
    file.flush().expect("sweep journal flush failed");
}

/// Evaluates one cell under its derived seed and encodes the result —
/// the per-cell body every worker runs, and the entry point of the
/// hot-path contract in `lint_contracts.json`. Journal I/O stays with
/// the caller.
fn eval_cell<C, R, F>(cell: &SweepCell<C>, master_seed: u64, eval: &F) -> (u64, String, R)
where
    R: Serialize,
    F: Fn(&SweepCell<C>, u64) -> R,
{
    let id = cell.id;
    let result = eval(cell, derive_seed(master_seed, id));
    // An unserializable result (NaN/infinite float) is a bug in the
    // eval function, not a per-cell condition — the sweep must abort
    // loudly rather than journal garbage.
    let json = serde_json::to_string(&result)
        // lint: allow(hot_panic) unserializable results must abort the sweep
        .unwrap_or_else(|e| panic!("sweep cell {id} produced an unserializable result: {e}"));
    (id, json, result)
}

/// Runs `eval` over every cell not already journaled, fanned out through
/// `ssor_graph::par_ordered_map` at the ambient rayon width, and returns
/// the merged outcome (fresh results + resumed journal entries) in
/// ascending id order.
///
/// `eval` receives the cell and its derived seed
/// `derive_seed(opts.master_seed, cell.id)`; as long as it is a pure
/// function of those two, the outcome is bit-identical at every worker
/// count and across any kill/resume split.
///
/// # Panics
///
/// Panics if cell ids collide, if `eval` panics, or if a result fails
/// to serialize (the vendored shim rejects NaN/infinite floats).
pub fn run_sweep<C, R, F>(cells: &[SweepCell<C>], opts: &SweepOptions, eval: F) -> SweepOutcome<R>
where
    C: Sync,
    R: Send + Serialize,
    F: Fn(&SweepCell<C>, u64) -> R + Sync,
{
    let mut seen = HashSet::with_capacity(cells.len());
    for cell in cells {
        assert!(seen.insert(cell.id), "duplicate sweep cell id {}", cell.id);
    }
    let (done, torn) = opts
        .journal
        .as_deref()
        .map(read_journal)
        .unwrap_or_default();
    let journal = opts
        .journal
        .as_deref()
        .map(|p| Mutex::new(open_journal(p, torn)));

    let pending: Vec<&SweepCell<C>> = cells.iter().filter(|c| !done.contains_key(&c.id)).collect();
    let fresh = par_ordered_map(&pending, 2, |cell| {
        let (id, json, result) = eval_cell(cell, opts.master_seed, &eval);
        // A poisoned lock means another append failed part-way and the
        // sweep is already going down: skip, so no line lands after the
        // torn fragment and this cell simply re-runs on resume.
        if let Some(Ok(mut file)) = journal.as_ref().map(Mutex::lock) {
            append_journal(&mut file, id, &json);
        }
        CellRecord {
            id,
            json,
            result: Some(result),
        }
    });

    let mut records = fresh;
    let executed = records.len();
    let mut resumed = 0;
    for cell in cells {
        if let Some(json) = done.get(&cell.id) {
            resumed += 1;
            records.push(CellRecord {
                id: cell.id,
                json: json.clone(),
                result: None,
            });
        }
    }
    records.sort_by_key(|r| r.id);
    SweepOutcome {
        records,
        executed,
        resumed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::MutexGuard;

    #[derive(Serialize)]
    struct Out {
        id: u64,
        seed: u64,
    }

    fn probe(c: &SweepCell<u64>, s: u64) -> Out {
        Out {
            id: c.id ^ c.payload,
            seed: s,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "ssor_sweep_{}_{}_{name}.journal",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// `RAYON_NUM_THREADS` is process-global, so the tests that pin it
    /// serialize on this lock.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    fn env_lock() -> MutexGuard<'static, ()> {
        ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs `f` with the ambient rayon width pinned to `threads`.
    fn at_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
        std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
        assert_eq!(rayon::current_num_threads(), threads);
        let out = f();
        std::env::remove_var("RAYON_NUM_THREADS");
        out
    }

    #[test]
    fn thread_count_leaves_no_trace_in_the_report() {
        let _guard = env_lock();
        let grid = cells((0..64u64).map(|x| x * 3).collect::<Vec<_>>());
        let opts = SweepOptions::default().seed(7);
        let base = at_threads(1, || run_sweep(&grid, &opts, probe));
        for threads in [2, 4, 8] {
            let got = at_threads(threads, || run_sweep(&grid, &opts, probe));
            assert_eq!(base.to_json_string(), got.to_json_string());
            assert_eq!(got.executed, 64);
            assert_eq!(got.resumed, 0);
        }
    }

    #[test]
    fn input_order_leaves_no_trace_in_the_report() {
        let _guard = env_lock();
        let grid = cells((0..16u64).collect::<Vec<_>>());
        let mut reversed = grid.clone();
        reversed.reverse();
        let (a, b) = at_threads(2, || {
            let opts = SweepOptions::default();
            (
                run_sweep(&grid, &opts, probe),
                run_sweep(&reversed, &opts, probe),
            )
        });
        assert_eq!(a.to_json_string(), b.to_json_string());
    }

    #[test]
    fn resume_skips_journaled_cells_and_matches_uninterrupted_bytes() {
        let grid = cells((0..20u64).collect::<Vec<_>>());
        let uninterrupted = run_sweep(&grid, &SweepOptions::default(), probe);

        let path = tmp("resume");
        // "Crash" after the first 8 cells: run only a prefix.
        let first = run_sweep(&grid[..8], &SweepOptions::default().journal(&path), probe);
        assert_eq!((first.executed, first.resumed), (8, 0));
        let second = run_sweep(&grid, &SweepOptions::default().journal(&path), probe);
        assert_eq!((second.executed, second.resumed), (12, 8));
        assert_eq!(second.to_json_string(), uninterrupted.to_json_string());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_line_is_cut_and_reruns() {
        let grid = cells((0..6u64).collect::<Vec<_>>());
        let path = tmp("torn");
        let opts = SweepOptions::default().journal(&path);
        let clean = run_sweep(&grid, &opts, probe);
        // Tear the last line's newline off: that cell must re-run, and
        // its fresh line must replace the fragment, not extend it.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 1);
        std::fs::write(&path, &bytes).unwrap();
        let resumed = run_sweep(&grid, &opts, probe);
        assert_eq!((resumed.executed, resumed.resumed), (1, 5));
        assert_eq!(resumed.to_json_string(), clean.to_json_string());
        let journal = std::fs::read(&path).unwrap_or_default();
        assert_eq!(journal.iter().filter(|&&b| b == b'\n').count(), 6);
        assert_eq!(journal.last(), Some(&b'\n'));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_grid_produces_the_empty_report() {
        let grid: Vec<SweepCell<u64>> = Vec::new();
        let out = run_sweep(&grid, &SweepOptions::default(), probe);
        assert_eq!(out.to_json_string(), "[]\n");
        assert_eq!((out.executed, out.resumed), (0, 0));
    }

    #[test]
    #[should_panic(expected = "duplicate sweep cell id")]
    fn duplicate_ids_are_rejected() {
        let grid = vec![
            SweepCell {
                id: 3,
                payload: 0u64,
            },
            SweepCell {
                id: 3,
                payload: 1u64,
            },
        ];
        run_sweep(&grid, &SweepOptions::default(), probe);
    }
}
