//! # lms-mesh3d — the tetrahedral extension
//!
//! The paper's §6 conjectures that RDR "outperforms extensions of Laplacian
//! mesh smoothing as well". This crate builds the most direct extension —
//! volumetric (tetrahedral) Laplacian smoothing — and re-runs the paper's
//! pipeline on it:
//!
//! * [`Point3`] and tetrahedron [`geometry`] predicates;
//! * the [`TetMesh`] container, its CSR [`Adjacency3`] (which implements
//!   [`lms_order::Graph`]), and [`Boundary3`] face-based boundary
//!   detection;
//! * [`quality`] — edge-length ratio (the paper's metric in 3D), radius
//!   ratio and mean ratio;
//! * [`generators`] — Kuhn-subdivision box grids, graded jitter, and the
//!   three-mesh 3D evaluation suite;
//! * [`SmoothEngine3`] — Algorithm 1 in 3D: `lms-smooth`'s one serial
//!   engine over [`TetMesh`] (this crate's [`lms_smooth::SmoothMesh`]
//!   impl), so Gauss–Seidel/Jacobi sweeps on the incremental kernel, the
//!   5e-6 convergence criterion, smart commits and access tracing through
//!   the same [`lms_smooth::trace::AccessSink`] protocol are the 2D
//!   engine's code; [`ResidentEngine3`], the resident engine over the
//!   same impl, is the parallel one;
//! * the [`lms_order::OrderMesh`] impl of [`TetMesh`], with the 3D
//!   Hilbert and Morton keys of [`sfc`]: every ordering of `lms-order`
//!   (`lms_order::compute_ordering`, `Permutation::apply_to_mesh`) and
//!   every partitioner of `lms-part` (`lms_part::partition_mesh`, here
//!   also under the name [`partition_tet_mesh`]) runs its one generic
//!   body on tetrahedral meshes.
//!
//! ```
//! use lms_mesh3d::{generators, SmoothEngine3, SmoothParams3};
//! use lms_order::{compute_ordering, OrderingKind};
//!
//! let mesh = generators::perturbed_tet_grid(8, 8, 8, 0.35, 42);
//! let mut reordered = compute_ordering(&mesh, OrderingKind::Rdr).apply_to_mesh(&mesh);
//! let report = SmoothEngine3::new(&reordered, SmoothParams3::paper()).smooth(&mut reordered);
//! assert!(report.final_quality > report.initial_quality);
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod adjacency;
pub mod boundary;
pub mod domain;
pub mod generators;
pub mod geometry;
pub mod io;
pub mod mesh;
mod order;
pub mod part3;
pub mod quality;
pub mod refine;
pub mod sfc;
pub mod smooth;

pub use adjacency::Adjacency3;
pub use boundary::Boundary3;
pub use domain::{TetDomain, TetScoring};
pub use geometry::Point3;
/// `lms_part::partition_mesh` under its tetrahedral name: one body
/// partitions both dimensions.
pub use lms_part::partition_mesh as partition_tet_mesh;
pub use mesh::{corner_tet, Mesh3Error, TetMesh};
pub use part3::ResidentEngine3;
pub use quality::TetQualityMetric;
pub use refine::{refine_levels3, refine_midpoint3};
pub use smooth::{SmoothEngine3, SmoothParams3, UpdateScheme3};
