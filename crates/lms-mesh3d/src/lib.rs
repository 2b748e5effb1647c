//! # lms-mesh3d — the tetrahedral extension
//!
//! The paper's §6 conjectures that RDR "outperforms extensions of Laplacian
//! mesh smoothing as well". This crate builds the most direct extension —
//! volumetric (tetrahedral) Laplacian smoothing — and re-runs the paper's
//! pipeline on it:
//!
//! * [`Point3`] and tetrahedron [`geometry`] predicates;
//! * the [`TetMesh`] container, its CSR [`Adjacency3`] (which implements
//!   [`lms_order::Graph`], so every graph-generic ordering runs on it), and
//!   [`Boundary3`] face-based boundary detection;
//! * [`quality`] — edge-length ratio (the paper's metric in 3D), radius
//!   ratio and mean ratio;
//! * [`generators`] — Kuhn-subdivision box grids, graded jitter, and the
//!   three-mesh 3D evaluation suite;
//! * [`SmoothEngine3`] — Algorithm 1 in 3D: `lms-smooth`'s one serial
//!   engine over [`TetMesh`] (this crate's [`lms_smooth::SmoothMesh`]
//!   impl), so Gauss–Seidel/Jacobi sweeps on the incremental kernel, the
//!   5e-6 convergence criterion, smart commits, access tracing through
//!   the same [`lms_smooth::trace::AccessSink`] protocol, and the
//!   deterministic parallel variants are the 2D engine's code;
//!   [`ResidentEngine3`] is the resident engine over the same impl;
//! * [`order`] — ORI/RANDOM/BFS/DFS/RCM/RDR on tetrahedral meshes;
//! * [`sfc`] — 3D Hilbert and Morton space-filling-curve orderings.
//!
//! ```
//! use lms_mesh3d::{generators, order, SmoothEngine3, SmoothParams3};
//!
//! let mut mesh = generators::perturbed_tet_grid(8, 8, 8, 0.35, 42);
//! let perm = order::compute_ordering3(&mesh, order::OrderingKind3::Rdr);
//! let mut reordered = order::apply_permutation3(&perm, &mesh);
//! let report = SmoothEngine3::new(&reordered, SmoothParams3::paper()).smooth(&mut reordered);
//! assert!(report.final_quality > report.initial_quality);
//! ```

pub mod adjacency;
pub mod boundary;
pub mod domain;
pub mod generators;
pub mod geometry;
pub mod io;
pub mod mesh;
pub mod order;
pub mod part3;
pub mod quality;
pub mod refine;
pub mod sfc;
pub mod smooth;

pub use adjacency::Adjacency3;
pub use boundary::Boundary3;
pub use domain::{partition_coords3, partition_tet_mesh, vertex_volume_weights, TetDomain};
pub use geometry::Point3;
pub use mesh::{corner_tet, Mesh3Error, TetMesh};
pub use order::{apply_permutation3, compute_ordering3, rdr_ordering3, OrderingKind3};
pub use part3::ResidentEngine3;
pub use quality::TetQualityMetric;
pub use refine::{refine_levels3, refine_midpoint3};
pub use sfc::{hilbert3_ordering, morton3_ordering};
pub use smooth::{SmoothEngine3, SmoothParams3, UpdateScheme3};
