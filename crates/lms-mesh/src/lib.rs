//! # lms-mesh — the triangle-mesh substrate
//!
//! Everything the Laplacian-Mesh-Smoothing reproduction needs from a mesh
//! library:
//!
//! * [`Point2`] and planar [`geometry`] predicates;
//! * the [`TriMesh`] container and its CSR [`Adjacency`];
//! * [`Boundary`] detection (smoothing moves interior vertices only);
//! * [`quality`] metrics — the paper's edge-length ratio plus two others;
//! * [`generators`] — carved perturbed grids and a Bowyer–Watson Delaunay
//!   triangulator, replacing the non-redistributable *Triangle* meshes;
//! * the nine-mesh evaluation [`suite`] (Table 1);
//! * [`io`] for Triangle `.node`/`.ele` and OFF files.
//!
//! ```
//! use lms_mesh::{generators, Adjacency, Boundary, quality, quality::QualityMetric};
//!
//! let mesh = generators::perturbed_grid(16, 16, 0.3, 42);
//! let adj = Adjacency::build(&mesh);
//! let boundary = Boundary::detect(&mesh);
//! let q = quality::mesh_quality(&mesh, &adj, QualityMetric::EdgeLengthRatio);
//! assert!(q > 0.0 && q <= 1.0);
//! assert!(boundary.num_interior() == 14 * 14);
//! ```

#![forbid(unsafe_code)]

pub mod adjacency;
pub mod boundary;
pub mod generators;
pub mod geometry;
pub mod io;
pub mod mesh;
pub mod quality;
pub mod refine;
pub mod suite;

pub use adjacency::Adjacency;
pub use boundary::Boundary;
pub use geometry::Point2;
pub use mesh::{figure5_mesh, vec_bytes, MeshError, TriMesh};
pub use refine::{refine_levels, refine_midpoint};
