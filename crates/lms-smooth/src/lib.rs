//! # lms-smooth — Laplacian Mesh Smoothing engines
//!
//! Implements Algorithm 1 of the paper and its variants, each written once
//! for every mesh dimension:
//!
//! * [`SmoothEngineOn::smooth`] — serial sweeps on the incremental
//!   kernel, Gauss–Seidel (in place, Mesquite-like) or Jacobi
//!   (double-buffered), in the visit order the parameters ask for (2D:
//!   storage order or the §4.2 greedy quality-driven policy);
//! * [`SmoothEngineOn::smooth_traced`] — the reference sweep while
//!   streaming every vertex-record access to an [`AccessSink`], feeding
//!   the reuse-distance and cache analyses of `lms-cache`;
//! * [`ResidentEngineOn::smooth`] — domain-decomposed in-place
//!   Gauss–Seidel over an `lms-part` decomposition: every part's block
//!   stays resident for the whole run, part interiors sweep fully in
//!   parallel, interface vertices step through the global color classes
//!   with moved-only halo deltas in between; bitwise-deterministic and
//!   exactly serial Gauss–Seidel under the part-major visit order
//!   (`lms-dist` drives the same loop over forked rank processes).
//!
//! Jacobi runs on the serial engine only; every parallel run is in-place
//! Gauss–Seidel on the resident engine.
//!
//! A dimension is one [`SmoothMesh`] impl: the mesh type supplies its
//! point, adjacency, boundary and parameter types and a
//! [`domain::SmoothDomain`] view (const-generic in the element corner
//! count, with the [`dcache::DomainQualityCache`] carrying the
//! incremental quality protocol). `TriMesh` implements it here —
//! [`SmoothEngine`] and [`ResidentEngine`] are its aliases — and
//! `lms-mesh3d` implements it for `TetMesh`, whose `SmoothEngine3` and
//! `ResidentEngine3` are aliases of the *same* two structs.
//!
//! ```
//! use lms_smooth::{SmoothEngine, SmoothParams};
//! let mut mesh = lms_mesh::generators::perturbed_grid(20, 20, 0.35, 1);
//! let report = SmoothEngine::new(&mesh, SmoothParams::paper()).smooth(&mut mesh);
//! assert!(report.final_quality > report.initial_quality);
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

#[doc(hidden)]
pub mod checks;
pub mod config;
pub mod dcache;
pub mod domain;
pub mod engine;
pub mod greedy;
pub mod kernel;
pub mod partitioned;
mod pool;
pub mod resident;
pub mod soa;
pub mod stats;
pub mod trace;
pub mod transport;

pub use config::{IterationPolicy, SmoothParams, UpdateScheme, Weighting};
pub use dcache::DomainQualityCache;
pub use domain::{
    domain_quality, weighted_candidate_on, DomainConfig, DomainPoint, ScoringDomain, SmoothDomain,
    TriDomain, TriScoring,
};
pub use engine::{SmoothEngine, SmoothEngineOn, SmoothMesh};
pub use greedy::greedy_visit_order;
pub use resident::{PairBatch, ResidentEngine, ResidentEngineOn, ResidentRank};
pub use soa::{scratch_grow_count, SoaScores, LANES};
pub use stats::{ExchangeVolume, IterationStats, SmoothReport};
pub use trace::{AccessSink, CountSink, NullSink, VecSink};
pub use transport::{
    drive_resident_ft, drive_resident_ft_with, FtPolicy, FtResidentTransport, FtStats,
    InProcessTransport,
};

/// The `K`-generic CSR row builder behind [`lms_mesh::Adjacency`],
/// re-exported for `lms-mesh3d`: it depends on this crate, not on
/// `lms-mesh`, and builds its `Adjacency3` with the same code at `K = 4`.
pub use lms_mesh::adjacency::{vertex_rows, VertexRows};
/// The byte count of every `heap_bytes` ledger, re-exported for
/// `lms-mesh3d` for the same reason.
pub use lms_mesh::vec_bytes;
