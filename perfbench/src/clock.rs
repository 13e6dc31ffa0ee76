//! The benchmark's one clock read. Timing is what the benchmark is for;
//! the workspace lint admits wall-clock reads at annotated sites, and
//! this is the only one.

use std::time::Instant;

/// The current instant.
pub fn now() -> Instant {
    Instant::now() // lint: allow(wall_clock) — benchmark timings, printed, never in report bytes
}
