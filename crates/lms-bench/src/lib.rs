//! # lms-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§5), and
//! the extension studies around them, from the `lms-mesh` / `lms-order` /
//! `lms-smooth` / `lms-cache` stack. Paper artefacts live here; the cost
//! of the engines themselves is measured by the `benchmark/` harness.
//!
//! The `lms-exp` binary is the entry point:
//!
//! ```text
//! lms-exp all --scale 0.02
//! lms-exp fig8 --scale 0.1
//! lms-exp table2 --mesh ocean --csv-dir results/
//! ```

#![forbid(unsafe_code)]

pub mod common;
pub mod experiments;
pub mod table;

pub use common::ExpConfig;
pub use experiments::{run, run_all, ALL};
