//! Tetrahedral improvement pipelines — the 3D face of [`crate::pipeline`],
//! riding the dimension-generic smoothing domain.
//!
//! The 2D [`Pipeline`](crate::pipeline::Pipeline) composes reordering and
//! smoothing stages over a `TriMesh`; this module is its `TetMesh` twin.
//! The decomposed engines are one generic code path for both dimensions,
//! so the 3D pipeline offers the full engine menu: serial, colored/Jacobi
//! parallel, resident halo-exchange ([`Stage3::ResidentSmooth3`]) and
//! multi-process ([`Stage3::DistributedSmooth3`]) smoothing — all
//! deterministic for any thread count, the decomposed ones configured
//! through the same [`PartitionSpec`](crate::pipeline::PartitionSpec) as
//! the 2D stages.

use crate::pipeline::{PartitionSpec, PipelineReport, StageOutcome};
use lms_mesh3d::order::{apply_permutation3, compute_ordering3, OrderingKind3};
use lms_mesh3d::quality::{mesh_quality, TetQualityMetric};
use lms_mesh3d::{
    Adjacency3, ResidentEngine3, SmoothEngine3, SmoothParams3, TetMesh, UpdateScheme3,
};

/// One step of a tetrahedral improvement pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Stage3 {
    /// Renumber the mesh with the given 3D ordering (changes layout and
    /// visit order of every following stage).
    Reorder3(OrderingKind3),
    /// Laplacian smoothing (interior vertices) on the serial engine.
    Smooth3(SmoothParams3),
    /// Deterministic parallel smoothing with the given thread count:
    /// colored Gauss–Seidel for in-place params, static-chunk parallel
    /// Jacobi when `params.update` is [`UpdateScheme3::Jacobi`].
    ParallelSmooth3(SmoothParams3, usize),
    /// Laplacian smoothing on the resident halo-exchange engine
    /// ([`ResidentEngine3`]): blocks stay resident for the whole stage,
    /// moved halo deltas exchanged between color steps, one disjoint
    /// scatter at the end. Gauss–Seidel parameters only.
    ResidentSmooth3(SmoothParams3, PartitionSpec),
    /// Laplacian smoothing on the multi-process distributed resident
    /// engine ([`lms_dist::DistResidentEngine3`]): one forked rank
    /// process per part, halo deltas as wire frames over the substrate
    /// named by `spec.transport` (pipes, Unix or TCP stream sockets, or
    /// the Auto degradation ladder). `spec.threads` is ignored —
    /// parallelism is one OS process per part. Gauss–Seidel parameters
    /// only; bit-identical to [`Stage3::ResidentSmooth3`] over the same
    /// decomposition on every substrate.
    DistributedSmooth3(SmoothParams3, PartitionSpec),
}

impl Stage3 {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Stage3::Reorder3(_) => "reorder3",
            Stage3::Smooth3(_) => "smooth3",
            Stage3::ParallelSmooth3(..) => "parsmooth3",
            Stage3::ResidentSmooth3(..) => "ressmooth3",
            Stage3::DistributedSmooth3(..) => "distsmooth3",
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
    /// pay-once argument carries to 3D), then smart smoothing on the
    /// serial engine.
    pub fn standard3(ordering: OrderingKind3) -> Self {
        Pipeline3::new()
            .then(Stage3::Reorder3(ordering))
            .then(Stage3::Smooth3(SmoothParams3::paper().with_smart(true)))
    }

    /// [`standard3`](Self::standard3) with the smoothing stage on the
    /// resident halo-exchange engine.
    pub fn standard_resident3(ordering: OrderingKind3, spec: PartitionSpec) -> Self {
        Pipeline3::new()
            .then(Stage3::Reorder3(ordering))
            .then(Stage3::ResidentSmooth3(SmoothParams3::paper().with_smart(true), spec))
    }

    /// [`standard3`](Self::standard3) with the smoothing stage on the
    /// multi-process distributed resident engine.
    pub fn standard_distributed3(ordering: OrderingKind3, spec: PartitionSpec) -> Self {
        Pipeline3::new()
            .then(Stage3::Reorder3(ordering))
            .then(Stage3::DistributedSmooth3(SmoothParams3::paper().with_smart(true), spec))
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
                    let perm = compute_ordering3(mesh, *kind);
                    *mesh = apply_permutation3(&perm, mesh);
                    0
                }
                Stage3::Smooth3(params) => params.smooth(mesh).num_iterations(),
                Stage3::ParallelSmooth3(params, threads) => {
                    let engine = SmoothEngine3::new(mesh, params.clone());
                    let report = match params.update {
                        UpdateScheme3::GaussSeidel => {
                            engine.smooth_parallel_colored(mesh, *threads)
                        }
                        UpdateScheme3::Jacobi => engine.smooth_parallel(mesh, *threads),
                    };
                    report.num_iterations()
                }
                Stage3::ResidentSmooth3(params, spec) => {
                    let engine =
                        ResidentEngine3::by_method(mesh, params.clone(), spec.parts, spec.method);
                    engine.smooth(mesh, spec.threads).num_iterations()
                }
                Stage3::DistributedSmooth3(params, spec) => {
                    let engine = lms_dist::DistResidentEngine3::by_method(
                        mesh,
                        params.clone(),
                        spec.parts,
                        spec.method,
                    );
                    let opts = lms_dist::FtOptions {
                        mode: spec.transport,
                        ..lms_dist::FtOptions::default()
                    };
                    engine.smooth_with(mesh, &opts).num_iterations()
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

    #[test]
    fn standard_resident3_improves_quality() {
        let mut m = perturbed_tet_grid(8, 8, 8, 0.4, 3);
        let spec = PartitionSpec {
            parts: 4,
            method: lms_part::PartitionMethod::Rcb,
            threads: 2,
            ..PartitionSpec::default()
        };
        let report = Pipeline3::standard_resident3(OrderingKind3::Rdr, spec).run(&mut m);
        assert_eq!(report.stages.len(), 2);
        assert_eq!(report.stages[0].stage, "reorder3");
        assert_eq!(report.stages[1].stage, "ressmooth3");
        assert!(report.final_quality > report.initial_quality);
    }

    #[test]
    fn resident3_stage_is_thread_count_invariant() {
        let base = perturbed_tet_grid(7, 7, 6, 0.35, 5);
        let spec = PartitionSpec {
            parts: 4,
            method: lms_part::PartitionMethod::Rcb,
            threads: 2,
            ..PartitionSpec::default()
        };
        let mut res = base.clone();
        let rr = Pipeline3::standard_resident3(OrderingKind3::Hilbert, spec).run(&mut res);
        let mut res8 = base.clone();
        let rr8 = Pipeline3::standard_resident3(
            OrderingKind3::Hilbert,
            PartitionSpec { threads: 8, ..spec },
        )
        .run(&mut res8);
        assert_eq!(res.coords(), res8.coords());
        assert_eq!(rr, rr8);
    }

    #[test]
    fn distributed3_stage_matches_resident3_bitwise() {
        let base = perturbed_tet_grid(6, 6, 6, 0.35, 8);
        let spec = PartitionSpec {
            parts: 3,
            method: lms_part::PartitionMethod::Rcb,
            threads: 2,
            ..PartitionSpec::default()
        };
        let mut dist = base.clone();
        let rd = Pipeline3::standard_distributed3(OrderingKind3::Rdr, spec).run(&mut dist);
        assert_eq!(rd.stages.last().unwrap().stage, "distsmooth3");
        assert!(rd.final_quality > rd.initial_quality);
        let mut res = base.clone();
        let rr = Pipeline3::standard_resident3(OrderingKind3::Rdr, spec).run(&mut res);
        assert_eq!(dist.coords(), res.coords());
        assert_eq!(rd.final_quality, rr.final_quality);
    }

    #[test]
    fn stage_bookkeeping_chains_quality_values() {
        let mut m = perturbed_tet_grid(6, 6, 6, 0.3, 4);
        let spec = PartitionSpec::default();
        let report = Pipeline3::new()
            .then(Stage3::Reorder3(OrderingKind3::Bfs))
            .then(Stage3::ParallelSmooth3(SmoothParams3::paper().with_max_iters(5), 2))
            .then(Stage3::ResidentSmooth3(
                SmoothParams3::paper().with_smart(true).with_max_iters(5),
                spec,
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
