//! Mesh-improvement pipelines: compose reordering, untangling, swapping
//! and smoothing into one run with per-stage quality bookkeeping.
//!
//! This is the "downstream user" view of the reproduction: a practitioner
//! does not run Laplacian smoothing in isolation — they reorder once
//! (paper §5.4: the reordering pays for itself after ~4 iterations), then
//! untangle if needed, swap to fix connectivity, and smooth. The pipeline
//! makes that sequence a value.

use crate::backend::{smooth, Backend};
use crate::constrained::{constrained_smooth, ConstrainedOptions};
use crate::optsmooth::{opt_smooth, OptSmoothOptions};
use crate::swap::{swap_until_stable, SwapOptions};
use crate::untangle::{untangle, UntangleOptions};
use lms_mesh::quality::{mesh_quality, QualityMetric};
use lms_mesh::{Adjacency, TriMesh};
use lms_order::{compute_ordering, OrderingKind};
use lms_smooth::SmoothParams;

/// One step of an improvement pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Stage {
    /// Renumber the mesh with the given ordering (changes layout and
    /// visit order of every following stage).
    Reorder(OrderingKind),
    /// Remove inverted elements.
    Untangle(UntangleOptions),
    /// Laplacian smoothing (interior vertices) on a [`Backend`].
    Smooth(SmoothParams, Backend),
    /// Constrained smoothing (boundary slides along the boundary).
    ConstrainedSmooth(SmoothParams, ConstrainedOptions),
    /// Edge swapping.
    Swap(SwapOptions),
    /// Optimization-based (max-min quality) smoothing.
    OptSmooth(OptSmoothOptions),
}

impl Stage {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Reorder(_) => "reorder",
            Stage::Untangle(_) => "untangle",
            Stage::Smooth(..) => "smooth",
            Stage::ConstrainedSmooth(..) => "constrained",
            Stage::Swap(_) => "swap",
            Stage::OptSmooth(_) => "optsmooth",
        }
    }
}

/// Quality before/after one executed stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageOutcome {
    /// [`Stage::name`] of the stage.
    pub stage: &'static str,
    /// Mean mesh quality entering the stage.
    pub quality_before: f64,
    /// Mean mesh quality leaving the stage.
    pub quality_after: f64,
    /// Stage-specific headline number: flips for swap, moves for
    /// untangle, sweeps for the smoothers, 0 for reorder.
    pub work: usize,
}

/// Outcome of a full pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Per-stage outcomes, in execution order.
    pub stages: Vec<StageOutcome>,
    /// Mesh quality before the first stage.
    pub initial_quality: f64,
    /// Mesh quality after the last stage.
    pub final_quality: f64,
}

impl PipelineReport {
    /// Total quality gained across the pipeline.
    pub fn total_improvement(&self) -> f64 {
        self.final_quality - self.initial_quality
    }
}

/// A reusable sequence of improvement stages.
#[derive(Debug, Clone, PartialEq)]
pub struct Pipeline {
    /// Stages, executed in order.
    pub stages: Vec<Stage>,
    /// Metric used for the between-stage quality bookkeeping.
    pub metric: QualityMetric,
}

impl Pipeline {
    /// Empty pipeline with the paper's metric.
    pub fn new() -> Self {
        Pipeline { stages: Vec::new(), metric: QualityMetric::EdgeLengthRatio }
    }

    /// Builder-style stage append.
    pub fn then(mut self, stage: Stage) -> Self {
        self.stages.push(stage);
        self
    }

    /// The standard improvement recipe: reorder (once, up front — §5.4),
    /// untangle, Delaunay-swap, then smart Laplacian smoothing on
    /// `backend`.
    pub fn standard(ordering: OrderingKind, backend: Backend) -> Self {
        Pipeline::new()
            .then(Stage::Reorder(ordering))
            .then(Stage::Untangle(UntangleOptions::default()))
            .then(Stage::Swap(SwapOptions::default()))
            .then(Stage::Smooth(SmoothParams::paper().with_smart(true), backend))
    }

    /// Run the pipeline on `mesh` in place.
    pub fn run(&self, mesh: &mut TriMesh) -> PipelineReport {
        let q = |mesh: &TriMesh| {
            let adj = Adjacency::build(mesh);
            mesh_quality(mesh, &adj, self.metric)
        };
        let initial_quality = q(mesh);
        let mut stages = Vec::with_capacity(self.stages.len());
        let mut before = initial_quality;
        for stage in &self.stages {
            let work = match stage {
                Stage::Reorder(kind) => {
                    let perm = compute_ordering(mesh, *kind);
                    *mesh = perm.apply_to_mesh(mesh);
                    0
                }
                Stage::Untangle(opts) => untangle(mesh, None, *opts).moves,
                Stage::Smooth(params, backend) => {
                    smooth(mesh, params.clone(), *backend).num_iterations()
                }
                Stage::ConstrainedSmooth(params, opts) => {
                    constrained_smooth(mesh, params, opts).num_iterations()
                }
                Stage::Swap(opts) => swap_until_stable(mesh, *opts, None).total_flips(),
                Stage::OptSmooth(opts) => opt_smooth(mesh, opts).num_iterations(),
            };
            let after = q(mesh);
            stages.push(StageOutcome {
                stage: stage.name(),
                quality_before: before,
                quality_after: after,
                work,
            });
            before = after;
        }
        PipelineReport { stages, initial_quality, final_quality: before }
    }
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::untangle::{count_inverted, tangle_vertices};
    use lms_mesh::generators;

    #[test]
    fn standard_pipeline_repairs_and_improves_a_tangled_mesh() {
        let mut m = generators::perturbed_grid(16, 16, 0.35, 1);
        m.orient_ccw();
        tangle_vertices(&mut m, 30);
        assert!(count_inverted(&m) > 0);

        let report = Pipeline::standard(OrderingKind::Rdr, Backend::Serial).run(&mut m);
        assert_eq!(count_inverted(&m), 0);
        assert!(report.final_quality > report.initial_quality);
        assert_eq!(report.stages.len(), 4);
        assert_eq!(report.stages[0].stage, "reorder");
        assert!(report.stages[1].work > 0, "untangle should move vertices");
    }

    #[test]
    fn stage_bookkeeping_chains_quality_values() {
        let mut m = generators::perturbed_grid(12, 12, 0.3, 4);
        let report = Pipeline::standard(OrderingKind::Bfs, Backend::Serial).run(&mut m);
        assert_eq!(report.stages[0].quality_before, report.initial_quality);
        for w in report.stages.windows(2) {
            assert_eq!(w[0].quality_after, w[1].quality_before);
        }
        assert_eq!(report.stages.last().unwrap().quality_after, report.final_quality);
    }

    #[test]
    fn reorder_stage_alone_preserves_quality() {
        let mut m = generators::perturbed_grid(12, 12, 0.3, 6);
        let report = Pipeline::new().then(Stage::Reorder(OrderingKind::Rdr)).run(&mut m);
        // renumbering must not change geometry, hence not quality
        assert!((report.total_improvement()).abs() < 1e-12);
    }

    #[test]
    fn empty_pipeline_is_a_noop() {
        let mut m = generators::perturbed_grid(8, 8, 0.3, 2);
        let before = m.clone();
        let report = Pipeline::new().run(&mut m);
        assert_eq!(report.stages.len(), 0);
        assert_eq!(report.initial_quality, report.final_quality);
        assert_eq!(before.coords(), m.coords());
    }

    #[test]
    fn full_stage_zoo_executes() {
        let mut m = generators::perturbed_grid(12, 12, 0.35, 8);
        let report = Pipeline::new()
            .then(Stage::Reorder(OrderingKind::Rdr))
            .then(Stage::Untangle(UntangleOptions::default()))
            .then(Stage::Swap(SwapOptions::default()))
            .then(Stage::Smooth(SmoothParams::paper().with_max_iters(10), Backend::Serial))
            .then(Stage::ConstrainedSmooth(
                SmoothParams::paper().with_max_iters(10),
                ConstrainedOptions::default(),
            ))
            .then(Stage::OptSmooth(OptSmoothOptions::default()))
            .run(&mut m);
        assert_eq!(report.stages.len(), 6);
        assert!(report.final_quality >= report.initial_quality);
    }
}
