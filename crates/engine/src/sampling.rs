//! Stage 3: `α`-sampling across pairs (Definition 5.2) — the one
//! pair-seeded sampler `ssor-core` owns, under the name the engine has
//! always exported it as.

pub use ssor_core::sample::{alpha_sample as par_alpha_sample, pair_seed};
