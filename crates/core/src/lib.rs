//! # ssor-core
//!
//! The primary contribution of *Sparse Semi-Oblivious Routing: Few Random
//! Paths Suffice* (Zuzic ⓡ Haeupler ⓡ Roeyskoe, PODC 2023), as a library.
//!
//! A **semi-oblivious routing** is a sparse path system chosen before
//! demands are known (Definition 2.1/5.1); once the demand arrives, only
//! the sending *rates* over those paths adapt. The paper proves that the
//! embarrassingly simple construction — *sample `α` paths per pair from
//! any competitive oblivious routing* (Definition 5.2) — is
//! `polylog`-competitive at `α = Θ(log n / log log n)` and improves
//! exponentially with every extra path.
//!
//! Crate layout, mapped to the paper:
//!
//! * [`PathSystem`] — Definition 2.1;
//! * [`sample`] — Definition 5.2: [`sample::alpha_sample`] and
//!   [`sample::alpha_cut_sample`];
//! * [`SemiObliviousRouter`] — Stages 4–5 (rate adaptation via the
//!   restricted LP; competitive reports with certified optimality gaps);
//! * [`weak`] — the Section 5.3 edge-deletion process and its Lemma 5.10
//!   invariants, executable;
//! * [`special`] — Definition 5.5 special demands, the Lemma 5.9
//!   bucketing, and the Lemma 5.8 weak-to-strong loop;
//! * [`chernoff`] — Appendix B tail bounds and the paper's parameter
//!   arithmetic (log-space);
//! * [`completion`] — the Section 7 union-over-hop-scales construction
//!   for the congestion + dilation objective.
//!
//! # Examples
//!
//! ```
//! use ssor_core::{sample, SemiObliviousRouter};
//! use ssor_flow::Demand;
//! use ssor_oblivious::{ObliviousRouting, ValiantRouting};
//!
//! // Stage 1-2: graph + sparse path system (4 Valiant samples per pair).
//! let oblivious = ValiantRouting::new(4);
//! let paths = sample::alpha_sample(&oblivious, &sample::all_pairs(16), 4, 42);
//! let router = SemiObliviousRouter::new(oblivious.graph().clone(), paths);
//!
//! // Stage 3-5: demand revealed, rates adapt, congestion compared to OPT.
//! let demand = Demand::hypercube_bit_reversal(4);
//! let report = router.competitive_report(&demand, &Default::default());
//! assert!(report.ratio < 8.0, "four random paths already do well");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chernoff;
pub mod completion;
pub mod derandomize;
mod path_system;
pub mod reduction;
mod router;
pub mod sample;
pub mod special;
pub mod weak;

pub use path_system::PathSystem;
pub use router::{CompetitiveReport, SemiObliviousRouter};
