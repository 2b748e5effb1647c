//! # Locality-Aware Laplacian Mesh Smoothing
//!
//! Facade crate for the reproduction of *Locality-Aware Laplacian Mesh
//! Smoothing* (Aupy, Park, Raghavan — ICPP 2016, arXiv:1606.00803).
//!
//! The workspace is organised as nine library crates, all re-exported here:
//!
//! * [`mesh`] — 2D triangle-mesh substrate: containers, CSR adjacency,
//!   boundary detection, quality metrics, generators and I/O.
//! * [`order`] — vertex reorderings: the paper's **RDR** contribution plus
//!   the ORI/RANDOM/BFS/DFS/RCM/Hilbert baselines, greedy graph coloring,
//!   and permutation machinery (applying a permutation moves the element
//!   order along with the vertex order).
//! * [`part`] — geometric domain decomposition: balanced k-way RCB and
//!   SFC-chunk partitions with interface/halo/ghost-vertex structures and
//!   decomposition-quality metrics.
//! * [`smooth`] — the Laplacian Mesh Smoothing engines (serial Gauss–Seidel
//!   on the incremental-quality hot path, Jacobi, greedy quality-driven,
//!   and the parallel, domain-decomposed resident halo-exchange
//!   [`smooth::ResidentEngine`]), with optional memory-access tracing.
//! * [`cache`] — the memory-behaviour substrate: exact reuse-distance
//!   analysis, an inclusive multi-level LRU cache simulator (Westmere-EX
//!   preset), the stack-distance miss model, the Eq. (2) cycle-cost model,
//!   the multicore simulation of the scaling figures and Belady's
//!   offline-optimal replacement.
//! * [`apps`] — the one smoothing entry, `apps::smooth(mesh, params,
//!   backend)`, which runs any engine above on either mesh type, and
//!   mesh-improvement applications beyond smoothing (the §6 future-work
//!   conjecture): untangling, constrained smoothing, edge swapping,
//!   optimization-based smoothing, and composable pipelines.
//! * [`dist`] — the distributed-memory backend: MPI-style rank processes
//!   (forked workers over Unix pipes) running the resident halo-exchange
//!   protocol through `part`'s versioned wire format — bit-identical to
//!   the in-process [`smooth::ResidentEngine`] in 2D and 3D.
//! * [`mesh3d`] — the tetrahedral extension (§6): volumetric Laplacian
//!   smoothing with the full ordering pipeline re-run in 3D — a thin
//!   wrapper over the **dimension-generic smoothing domain**
//!   (`smooth::domain`), including the 3D resident halo-exchange engine
//!   (`mesh3d::ResidentEngine3`, an alias of the same generic body as
//!   the 2D one) over `partition_tet_mesh` decompositions.
//!
//! ## Quickstart
//!
//! ```
//! use lms::prelude::*;
//!
//! // Generate a small unstructured mesh, reorder it with RDR, smooth it.
//! let mesh = lms::mesh::generators::perturbed_grid(40, 40, 0.35, 7);
//! let perm = lms::order::rdr_ordering(&mesh);
//! // renumbers the vertices and moves the triangles into the order a sweep
//! // over the new numbering first touches them
//! let mesh = perm.apply_to_mesh(&mesh);
//! let report = smooth(&mut mesh.clone(), SmoothParams::paper(), Backend::Serial);
//! assert!(report.final_quality >= report.initial_quality);
//! ```

pub use lms_apps as apps;
pub use lms_cache as cache;
pub use lms_dist as dist;
pub use lms_mesh as mesh;
pub use lms_mesh3d as mesh3d;
pub use lms_order as order;
pub use lms_part as part;
pub use lms_smooth as smooth;
pub use lms_viz as viz;

/// Commonly used items, re-exported for `use lms::prelude::*`.
pub mod prelude {
    pub use lms_apps::{smooth, Backend, Pipeline, Pipeline3, Stage, Stage3};
    pub use lms_cache::{
        hierarchy::CacheHierarchy, model::StackDistanceModel, reuse::ReuseDistanceAnalyzer,
    };
    pub use lms_mesh::{quality::QualityMetric, Point2, TriMesh};
    pub use lms_mesh3d::{ResidentEngine3, SmoothParams3, TetMesh};
    pub use lms_order::{OrderingKind, Permutation};
    pub use lms_part::{ExchangeSchedule, Partition, PartitionMethod, PartitionStats};
    pub use lms_smooth::{
        IterationPolicy, ResidentEngine, SmoothEngine, SmoothParams, SmoothReport, Weighting,
    };
}
