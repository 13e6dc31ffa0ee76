//! # ssor — Sparse Semi-Oblivious Routing
//!
//! A full Rust reproduction of *Sparse Semi-Oblivious Routing: Few Random
//! Paths Suffice* (Zuzic ⓡ Haeupler ⓡ Roeyskoe, PODC 2023,
//! [arXiv:2301.06647](https://arxiv.org/abs/2301.06647)).
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`graph`] — multigraphs, generators, flows, matchings (`ssor-graph`);
//! * [`flow`] — demands, routings, congestion, LP solvers (`ssor-flow`);
//! * [`oblivious`] — Valiant, bit-fixing, FRT/Räcke, hop-constrained and
//!   baseline routings (`ssor-oblivious`);
//! * [`core`] — the paper's contribution: path systems, `α`-samples, the
//!   semi-oblivious router, the weak-routing process, completion time
//!   (`ssor-core`);
//! * [`lowerbound`] — the Section 8 constructions and the Lemma 8.1
//!   adversary (`ssor-lowerbound`);
//! * [`sim`] — the store-and-forward packet scheduler (`ssor-sim`);
//! * [`te`] — the SMORE traffic-engineering scenario (`ssor-te`);
//! * [`engine`] — the batched, rayon-parallel five-stage pipeline with
//!   memoized path systems (`ssor-engine`);
//! * [`serve`] — routing-as-a-service: the sharded query plane answering
//!   per-pair path samples from epoch-swapped `RouteTable` snapshots,
//!   with a background rebuilder for churn (`ssor-serve`).
//!
//! # Quickstart
//!
//! The [`engine`] pipeline chains all five stages declaratively:
//!
//! ```
//! use ssor::engine::{DemandSpec, PathSystemCache, Pipeline, TemplateSpec, TopologySpec};
//!
//! let cache = PathSystemCache::new();
//! let report = Pipeline::on(TopologySpec::Hypercube { dim: 4 })
//!     .template(TemplateSpec::Valiant)   // 2. oblivious routing
//!     .alpha(4)                          // 3. α paths per pair (Def. 5.2)
//!     .demand("hard", DemandSpec::BitReversal) // 4. demand arrives
//!     .run(&cache);                      // 5. rates adapt; report vs OPT
//! assert!(report.records[0].ratio.unwrap() < 8.0);
//! ```
//!
//! The same construction, driven by hand through the layer APIs:
//!
//! ```
//! use ssor::core::{sample, SemiObliviousRouter};
//! use ssor::flow::Demand;
//! use ssor::oblivious::{ObliviousRouting, ValiantRouting};
//!
//! // 1. An oblivious routing on the 4-dimensional hypercube.
//! let oblivious = ValiantRouting::new(4);
//!
//! // 2. Sample α = 4 candidate paths per pair (the SMORE sweet spot).
//! let paths = sample::alpha_sample(&oblivious, &sample::all_pairs(16), 4, 0);
//!
//! // 3. Demand arrives; rates adapt optimally within the candidates.
//! let router = SemiObliviousRouter::new(oblivious.graph().clone(), paths);
//! let report = router.competitive_report(&Demand::hypercube_bit_reversal(4), &Default::default());
//! assert!(report.ratio < 8.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use ssor_core as core;
pub use ssor_engine as engine;
pub use ssor_flow as flow;
pub use ssor_graph as graph;
pub use ssor_lowerbound as lowerbound;
pub use ssor_oblivious as oblivious;
pub use ssor_serve as serve;
pub use ssor_sim as sim;
pub use ssor_te as te;
