//! # lms-apps — mesh-improvement applications beyond Laplacian smoothing
//!
//! The paper's conclusion (§6) conjectures that the RDR ordering "could
//! improve other mesh application performances such as mesh untangling
//! \[6\], constraint mesh smoothing \[13\], and mesh swapping \[5\]". This crate
//! implements those applications so the conjecture can be tested (see the
//! `apps` experiment in `lms-bench`):
//!
//! * [`edges`] — the edge → triangle topology and the diagonal-flip
//!   primitive;
//! * [`swap`] — edge swapping to the Delaunay or a quality criterion
//!   (Freitag & Ollivier \[5\]);
//! * [`untangle`](mod@untangle) — local min-area-maximising untangling
//!   (Freitag & Plassmann \[6\]);
//! * [`constrained`] — constrained smoothing with boundary vertices
//!   sliding along the boundary (Parthasarathy & Kodiyalam \[13\]);
//! * [`optsmooth`] — optimization-based max-min quality smoothing
//!   (FeasNewt/Mesquite-style, Munson & Hovland \[19\]);
//! * [`backend`] — the one smoothing entry, [`smooth`]`(mesh, params,
//!   backend)`, over every [`Backend`] (serial, resident, multi-process)
//!   in both dimensions;
//! * [`pipeline`] — composable improvement pipelines with per-stage
//!   quality bookkeeping;
//! * [`pipeline3`] — the tetrahedral pipeline twin;
//! * [`dynamic`] — the static-vs-dynamic reordering study of
//!   Shontz & Knupp \[17\] (§2), re-run on this substrate.
//!
//! Every sweep-based application visits vertices (or edges) in an order
//! derived from the mesh numbering, so the paper's ORI/BFS/RDR comparison
//! extends to each of them.
//!
//! ```
//! use lms_apps::{Backend, Pipeline};
//! use lms_order::OrderingKind;
//!
//! let mut mesh = lms_mesh::generators::perturbed_grid(16, 16, 0.35, 1);
//! let report = Pipeline::standard(OrderingKind::Rdr, Backend::Serial).run(&mut mesh);
//! assert!(report.final_quality >= report.initial_quality);
//! ```

#![forbid(unsafe_code)]

pub mod backend;
pub mod constrained;
pub mod dynamic;
pub mod edges;
pub mod optsmooth;
pub mod pipeline;
pub mod pipeline3;
pub mod swap;
pub mod untangle;

pub use backend::{smooth, Backend};
pub use constrained::{constrained_smooth, ConstrainedOptions};
pub use dynamic::{smooth_with_strategy, DynamicReport, ReorderStrategy, RoundStats};
pub use edges::{EdgeTopology, FlipError, TopologyError};
pub use optsmooth::{opt_smooth, worst_vertex_quality, OptSmoothOptions};
pub use pipeline::{Pipeline, PipelineReport, Stage, StageOutcome};
pub use pipeline3::{Pipeline3, Stage3};
pub use swap::{is_delaunay, swap_until_stable, SwapCriterion, SwapOptions, SwapReport};
pub use untangle::{count_inverted, tangle_vertices, untangle, UntangleOptions, UntangleReport};
