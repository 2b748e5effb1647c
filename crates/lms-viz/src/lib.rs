//! # lms-viz — SVG visualisation for the LMS reproduction
//!
//! The paper's evaluation is half pictures: mesh renders (Figures 3
//! and 7), reuse-distance profiles (Figures 1 and 6), miss-rate bars
//! (Figure 9) and speedup curves (Figures 10 and 12). This crate
//! regenerates those *as images*, complementing the text/CSV output of
//! `lms-bench`:
//!
//! * [`svg`] — a dependency-free SVG document builder with the quality
//!   colour ramp;
//! * [`mesh`] — quality-coloured mesh renders and mesh galleries;
//! * [`partition`] — domain-decomposition overlays: triangles colored by
//!   owning part, cut edges emphasised (debug/figure aid for `lms-part`);
//! * [`plot`] — line charts (linear/log axes) and grouped bar charts.
//!
//! See `examples/render_figures.rs` for the figure-regeneration driver.
//!
//! ```
//! use lms_viz::mesh::{render_mesh, MeshStyle};
//!
//! let m = lms_mesh::generators::perturbed_grid(12, 12, 0.3, 1);
//! let svg = render_mesh(&m, &MeshStyle::default());
//! assert!(svg.render().contains("<polygon"));
//! ```

#![forbid(unsafe_code)]

pub mod mesh;
pub mod mesh3d;
pub mod partition;
pub mod plot;
pub mod svg;

pub use mesh::{render_gallery, render_mesh, MeshStyle};
pub use mesh3d::{render_tet_surface, Mesh3Style};
pub use partition::{part_color, render_partition, triangle_owner, PartitionStyle};
pub use plot::{BarChart, Chart, Scale, Series};
pub use svg::{quality_color, Color, Svg};
