//! The workspace's shared deterministic parallel-map helper.
//!
//! Most parallel stages in the workspace have the same shape: map
//! independent items, collect **in input order** (so results are
//! bit-identical at any worker count), and skip the fan-out for small
//! batches (the vendored rayon shim spawns threads per call, which only
//! amortizes over enough work). [`par_ordered_map`] is that shape,
//! written once — the batch tree sweeps, the solver oracles, the FRT
//! ensemble samplers, the Räcke load blocks, the α-sampler's fixed pair
//! blocks, `EdgeLoads::par_merge`'s fixed edge ranges, the engine's
//! template ensembles, the sweep scheduler's cells and the failure
//! sweep's trials all dispatch through it — it is the workspace's one
//! fan-out primitive outside the serve plane's per-batch shards.

use crate::generators::mix_seed;
use rayon::prelude::*;

/// Derives an independent RNG seed for item `index` of a family keyed by
/// `master`: `mix_seed(mix_seed(master) ^ index)`.
///
/// This is the workspace's one way of turning *(master seed, item
/// index)* into a per-item stream — sweep cells, failure-trial retries,
/// per-step simulation draws all route through it, so the derivation
/// cannot drift between call sites. The nesting matters:
/// `mix_seed(a) ^ mix_seed(b)` is symmetric in `a` and `b` and collides
/// whenever the two swap or coincide, while the nested form keeps
/// distinct `(master, index)` pairs on distinct streams. Deriving from
/// an already-derived seed (`derive_seed(derive_seed(m, i), j)`) is the
/// supported way to split a stream again.
///
/// Because the result depends only on `(master, index)` — never on which
/// worker ran the item or in what order — any scheduler that hands item
/// `i` the seed `derive_seed(master, i)` produces bit-identical results
/// at every thread count.
///
/// # Examples
///
/// ```
/// use ssor_graph::derive_seed;
///
/// let a = derive_seed(42, 0);
/// let b = derive_seed(42, 1);
/// assert_ne!(a, b, "distinct items get distinct streams");
/// assert_ne!(derive_seed(0, 1), derive_seed(1, 0), "asymmetric in (master, index)");
/// ```
pub fn derive_seed(master: u64, index: u64) -> u64 {
    mix_seed(mix_seed(master) ^ index)
}

/// Maps `items` through `f` in parallel when the batch is at least
/// `min_par` items (and more than one worker is available), serially
/// otherwise. Results come back in input order either way — the cutoff
/// moves wall-clock, never bits.
///
/// # Examples
///
/// ```
/// use ssor_graph::par_ordered_map;
///
/// let squares = par_ordered_map(&[1u64, 2, 3, 4], 2, |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_ordered_map<T: Sync, U: Send>(
    items: &[T],
    min_par: usize,
    f: impl Fn(&T) -> U + Sync,
) -> Vec<U> {
    if items.len() >= min_par && rayon::current_num_threads() > 1 {
        items.par_iter().map(f).collect()
    } else {
        items.iter().map(f).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_and_matches_serial() {
        let items: Vec<usize> = (0..1000).collect();
        let par = par_ordered_map(&items, 1, |&i| i * 31 % 97);
        let seq: Vec<usize> = items.iter().map(|&i| i * 31 % 97).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn derive_seed_matches_documented_formula() {
        for (m, i) in [(0u64, 0u64), (42, 7), (u64::MAX, 1), (1, u64::MAX)] {
            assert_eq!(derive_seed(m, i), mix_seed(mix_seed(m) ^ i));
        }
    }

    #[test]
    fn derive_seed_separates_a_small_grid() {
        // No collisions over a (master, index) grid — in particular not
        // on the swapped/diagonal pairs an XOR combination would merge.
        let mut seen = std::collections::HashSet::new();
        for m in 0..32u64 {
            for i in 0..32u64 {
                assert!(seen.insert(derive_seed(m, i)), "collision at ({m}, {i})");
            }
        }
    }

    #[test]
    fn small_batches_stay_below_the_cutoff() {
        // Below min_par the serial path runs; results are identical by
        // construction, so only the shape is worth asserting.
        assert_eq!(par_ordered_map(&[7usize], 4, |&x| x + 1), vec![8]);
        assert!(par_ordered_map::<usize, usize>(&[], 4, |&x| x).is_empty());
    }
}
