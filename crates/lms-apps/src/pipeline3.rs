//! Tetrahedral improvement pipelines — the 3D face of [`crate::pipeline`].
//!
//! The 2D [`Pipeline`](crate::pipeline::Pipeline) composes reordering and
//! smoothing stages over a `TriMesh`; this module is its `TetMesh` twin.
//! Smoothing goes through the same [`smooth`] entry, so every
//! [`Backend`] — serial, resident and multi-process — runs 3D stages too,
//! deterministic for any thread count.

use crate::backend::{smooth, Backend};
use crate::pipeline::{PipelineReport, StageOutcome};
use lms_mesh3d::quality::{mesh_quality, TetQualityMetric};
use lms_mesh3d::{Adjacency3, SmoothParams3, TetMesh};
use lms_order::{compute_ordering, OrderingKind};

/// One step of a tetrahedral improvement pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Stage3 {
    /// Renumber the mesh with the given ordering (changes layout and
    /// visit order of every following stage).
    Reorder3(OrderingKind),
    /// Laplacian smoothing (interior vertices) on a [`Backend`].
    Smooth3(SmoothParams3, Backend),
}

impl Stage3 {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Stage3::Reorder3(_) => "reorder3",
            Stage3::Smooth3(..) => "smooth3",
        }
    }
}

/// A reusable sequence of tetrahedral improvement stages.
#[derive(Debug, Clone, PartialEq)]
pub struct Pipeline3 {
    /// Stages, executed in order.
    pub stages: Vec<Stage3>,
    /// Metric used for the between-stage quality bookkeeping.
    pub metric: TetQualityMetric,
}

impl Pipeline3 {
    /// Empty pipeline with the paper's metric (edge-length ratio in 3D).
    pub fn new() -> Self {
        Pipeline3 { stages: Vec::new(), metric: TetQualityMetric::EdgeLengthRatio }
    }

    /// Builder-style stage append.
    pub fn then(mut self, stage: Stage3) -> Self {
        self.stages.push(stage);
        self
    }

    /// The standard 3D recipe: reorder once up front (§5.4's
    /// pay-once argument carries to 3D), then smart smoothing on
    /// `backend`.
    pub fn standard3(ordering: OrderingKind, backend: Backend) -> Self {
        Pipeline3::new()
            .then(Stage3::Reorder3(ordering))
            .then(Stage3::Smooth3(SmoothParams3::paper().with_smart(true), backend))
    }

    /// Run the pipeline on `mesh` in place.
    pub fn run(&self, mesh: &mut TetMesh) -> PipelineReport {
        let q = |mesh: &TetMesh| {
            let adj = Adjacency3::build(mesh);
            mesh_quality(mesh, &adj, self.metric)
        };
        let initial_quality = q(mesh);
        let mut stages = Vec::with_capacity(self.stages.len());
        let mut before = initial_quality;
        for stage in &self.stages {
            let work = match stage {
                Stage3::Reorder3(kind) => {
                    *mesh = compute_ordering(mesh, *kind).apply_to_mesh(mesh);
                    0
                }
                Stage3::Smooth3(params, backend) => {
                    smooth(mesh, params.clone(), *backend).num_iterations()
                }
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

impl Default for Pipeline3 {
    fn default() -> Self {
        Pipeline3::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_mesh3d::generators::perturbed_tet_grid;
    use lms_part::PartitionMethod;

    #[test]
    fn standard3_on_a_resident_backend_improves_quality() {
        let mut m = perturbed_tet_grid(8, 8, 8, 0.4, 3);
        let backend = Backend::Resident { parts: 4, method: PartitionMethod::Rcb, threads: 2 };
        let report = Pipeline3::standard3(OrderingKind::Rdr, backend).run(&mut m);
        assert_eq!(report.stages.len(), 2);
        assert_eq!(report.stages[0].stage, "reorder3");
        assert_eq!(report.stages[1].stage, "smooth3");
        assert!(report.final_quality > report.initial_quality);
    }

    #[test]
    fn stage_bookkeeping_chains_quality_values() {
        let mut m = perturbed_tet_grid(6, 6, 6, 0.3, 4);
        let resident = Backend::Resident { parts: 4, method: PartitionMethod::Rcb, threads: 2 };
        let report = Pipeline3::new()
            .then(Stage3::Reorder3(OrderingKind::Bfs))
            .then(Stage3::Smooth3(SmoothParams3::paper().with_max_iters(5), Backend::Serial))
            .then(Stage3::Smooth3(
                SmoothParams3::paper().with_smart(true).with_max_iters(5),
                resident,
            ))
            .run(&mut m);
        assert_eq!(report.stages[0].quality_before, report.initial_quality);
        for w in report.stages.windows(2) {
            assert_eq!(w[0].quality_after, w[1].quality_before);
        }
        assert_eq!(report.stages.last().unwrap().quality_after, report.final_quality);
    }

    #[test]
    fn empty_pipeline3_is_a_noop() {
        let mut m = perturbed_tet_grid(5, 5, 5, 0.3, 2);
        let before = m.clone();
        let report = Pipeline3::new().run(&mut m);
        assert_eq!(report.stages.len(), 0);
        assert_eq!(report.initial_quality, report.final_quality);
        assert_eq!(before.coords(), m.coords());
    }
}
