//! The open-loop request generator.
//!
//! Request `i` of a hold is due `i / rate` seconds after the hold
//! starts, whether or not earlier requests have been answered. The
//! calling thread is the generator: each batch takes every request that
//! is due, up to `max_batch`, and hands its index range to `serve`. While
//! nothing is due the generator sleeps rather than spins, so it leaves
//! the core to other threads (a background rebuilder).
//!
//! A request's latency runs from its due time to the end of the batch
//! that answered it, so a stall is charged to every request queued
//! behind it, not only to the one being served when it happened.

use std::ops::Range;
use std::time::{Duration, Instant};

/// Fixed offered load for one hold.
#[derive(Debug, Clone, Copy)]
pub struct Hold {
    /// Offered requests per second.
    pub rate: f64,
    /// Requests in the hold.
    pub count: usize,
    /// Most requests answered in one batch.
    pub max_batch: usize,
}

/// What one hold measured.
#[derive(Debug, Clone, Default)]
pub struct HoldOutcome {
    /// Per request, due time to answer, in request order (ns).
    pub latency_ns: Vec<u64>,
    /// Per batch, due time of its oldest request to batch start (ns).
    pub wait_ns: Vec<u64>,
    /// Per wake-up, how far past its target the generator woke (ns).
    pub lag_ns: Vec<u64>,
    /// Requests per batch.
    pub batch_sizes: Vec<usize>,
    /// Time spent inside `serve` (ns).
    pub busy_ns: u64,
    /// Hold start to last answer (ns).
    pub wall_ns: u64,
}

impl HoldOutcome {
    /// Answered requests per second over the hold.
    pub fn achieved_rate(&self) -> f64 {
        self.latency_ns.len() as f64 * 1e9 / self.wall_ns.max(1) as f64
    }

    /// Mean latency of the last tenth of the hold (ns): a backlog that
    /// grows through the hold shows here even when the percentile over
    /// the whole hold still looks healthy.
    pub fn final_tenth_mean_ns(&self) -> f64 {
        let n = self.latency_ns.len();
        let tail = &self.latency_ns[n - n.div_ceil(10)..];
        tail.iter().sum::<u64>() as f64 / tail.len() as f64
    }
}

/// Runs one hold; `serve(range)` answers requests `range` of the hold.
pub fn run_hold(hold: Hold, mut serve: impl FnMut(Range<usize>)) -> HoldOutcome {
    assert!(hold.rate > 0.0 && hold.count > 0 && hold.max_batch > 0);
    let period_ns = 1e9 / hold.rate;
    let due_ns = |i: usize| (i as f64 * period_ns) as u64;
    let mut out = HoldOutcome {
        latency_ns: Vec::with_capacity(hold.count),
        ..HoldOutcome::default()
    };
    let start = crate::clock::now();
    let since = |t: Instant| t.duration_since(start).as_nanos() as u64;
    let mut next = 0usize;
    while next < hold.count {
        let now = crate::clock::now();
        let now_ns = since(now);
        // Requests 0..=floor(now / period) are due.
        let due_upto = ((now_ns as f64 / period_ns) as usize + 1).min(hold.count);
        if due_upto <= next {
            let target = due_ns(next);
            std::thread::sleep(Duration::from_nanos(target.saturating_sub(now_ns)));
            out.lag_ns
                .push(since(crate::clock::now()).saturating_sub(target));
            continue;
        }
        let end = due_upto.min(next + hold.max_batch);
        out.wait_ns.push(now_ns.saturating_sub(due_ns(next)));
        serve(next..end);
        let done_ns = since(crate::clock::now());
        out.busy_ns += done_ns - now_ns;
        out.batch_sizes.push(end - next);
        out.latency_ns
            .extend((next..end).map(|i| done_ns.saturating_sub(due_ns(i))));
        next = end;
    }
    out.wall_ns = since(crate::clock::now());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_request_is_answered_once_in_order() {
        let mut seen = Vec::new();
        let out = run_hold(
            Hold {
                rate: 200_000.0,
                count: 2_000,
                max_batch: 64,
            },
            |r| seen.extend(r),
        );
        assert_eq!(seen, (0..2_000).collect::<Vec<_>>());
        assert_eq!(out.latency_ns.len(), 2_000);
        assert!(out.batch_sizes.iter().all(|&b| (1..=64).contains(&b)));
        assert_eq!(out.batch_sizes.iter().sum::<usize>(), 2_000);
    }

    #[test]
    fn requests_queued_behind_a_stall_report_the_wait() {
        // 100k/s: one request every 10us. The batch holding request 100
        // (due at 1ms) stalls for 5ms; everything due during the stall
        // queues behind it.
        const STALL: Duration = Duration::from_millis(5);
        let out = run_hold(
            Hold {
                rate: 100_000.0,
                count: 1_500,
                max_batch: 4096,
            },
            |r| {
                if r.contains(&100) {
                    std::thread::sleep(STALL);
                }
            },
        );
        let stall_ns = STALL.as_nanos() as u64;
        // The stalled request itself waited the whole stall.
        assert!(out.latency_ns[100] >= stall_ns, "{}", out.latency_ns[100]);
        // A request due 2ms into the stall (due at 3ms) still waited
        // for the rest of it: at least 3ms, measured from its due time.
        assert!(
            out.latency_ns[300] >= stall_ns - 2_000_000,
            "{}",
            out.latency_ns[300]
        );
        // Had latency been measured from the send (batch start), the
        // queued request would read as nearly free; it must not.
        let queued_wait = out.wait_ns.iter().copied().max().unwrap();
        assert!(queued_wait >= stall_ns - 100_000, "max wait {queued_wait}");
        // Requests well after the stall drain back to small latencies.
        assert!(
            out.latency_ns[1_499] < stall_ns,
            "{}",
            out.latency_ns[1_499]
        );
    }

    #[test]
    fn a_growing_backlog_shows_in_the_final_tenth() {
        // Each batch costs far more than the offered spacing allows.
        let out = run_hold(
            Hold {
                rate: 1_000_000.0,
                count: 20_000,
                max_batch: 16,
            },
            |_| std::thread::sleep(Duration::from_micros(200)),
        );
        let first_tenth: f64 = out.latency_ns[..2_000].iter().sum::<u64>() as f64 / 2_000.0;
        assert!(out.final_tenth_mean_ns() > 10.0 * first_tenth);
    }
}
