//! Mesh-improvement pipelines: compose reordering, untangling, swapping
//! and smoothing into one run with per-stage quality bookkeeping.
//!
//! This is the "downstream user" view of the reproduction: a practitioner
//! does not run Laplacian smoothing in isolation — they reorder once
//! (paper §5.4: the reordering pays for itself after ~4 iterations), then
//! untangle if needed, swap to fix connectivity, and smooth. The pipeline
//! makes that sequence a value.

use crate::constrained::{constrained_smooth, ConstrainedOptions};
use crate::optsmooth::{opt_smooth, OptSmoothOptions};
use crate::swap::{swap_until_stable, SwapOptions};
use crate::untangle::{untangle, UntangleOptions};
use lms_mesh::quality::{mesh_quality, QualityMetric};
use lms_mesh::{Adjacency, TriMesh};
use lms_order::{compute_ordering, OrderingKind};
use lms_part::PartitionMethod;
use lms_smooth::{ResidentEngine, SmoothEngine, SmoothParams};

/// One step of an improvement pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Stage {
    /// Renumber the mesh with the given ordering (changes layout and
    /// visit order of every following stage).
    Reorder(OrderingKind),
    /// Remove inverted elements.
    Untangle(UntangleOptions),
    /// Laplacian smoothing (interior vertices) on the serial
    /// incremental-quality hot path.
    Smooth(SmoothParams),
    /// Laplacian smoothing on a deterministic parallel engine with the
    /// given thread count (bitwise-identical results for any thread
    /// count): colored Gauss–Seidel for in-place params, static-chunk
    /// parallel Jacobi when `params.update` is
    /// [`lms_smooth::UpdateScheme::Jacobi`].
    ParallelSmooth(SmoothParams, usize),
    /// Laplacian smoothing on the resident halo-exchange engine
    /// ([`lms_smooth::ResidentEngine`]): blocks stay resident for the
    /// whole stage, interface vertices are smoothed inside their owning
    /// part with halo deltas exchanged between color steps, one disjoint
    /// scatter at the end. Gauss–Seidel parameters only.
    ResidentSmooth(SmoothParams, PartitionSpec),
    /// Laplacian smoothing on the multi-process distributed resident
    /// engine ([`lms_dist::DistResidentEngine`]): one forked rank
    /// process per part, halo deltas as wire frames over the substrate
    /// named by `spec.transport` (pipes, Unix or TCP stream sockets).
    /// `spec.threads` is ignored — parallelism is one OS process per
    /// part. Gauss–Seidel parameters only; bit-identical to
    /// [`Stage::ResidentSmooth`] over the same decomposition on every
    /// substrate.
    DistributedSmooth(SmoothParams, PartitionSpec),
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
            Stage::Smooth(_) => "smooth",
            Stage::ParallelSmooth(..) => "parsmooth",
            Stage::ResidentSmooth(..) => "ressmooth",
            Stage::DistributedSmooth(..) => "distsmooth",
            Stage::ConstrainedSmooth(..) => "constrained",
            Stage::Swap(_) => "swap",
            Stage::OptSmooth(_) => "optsmooth",
        }
    }
}

/// Configuration of a domain-decomposed smoothing stage
/// ([`Stage::ResidentSmooth`], [`Stage::DistributedSmooth`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Number of parts to decompose into.
    pub parts: usize,
    /// Geometric partitioner.
    pub method: PartitionMethod,
    /// Worker threads (the result is identical for any count).
    pub threads: usize,
    /// Rank substrate for [`Stage::DistributedSmooth`]: pipes, Unix or
    /// TCP sockets. Ignored by the in-process stages. The smoothed coords
    /// are identical on every substrate.
    pub transport: lms_dist::TransportMode,
}

impl Default for PartitionSpec {
    fn default() -> Self {
        PartitionSpec {
            parts: 4,
            method: PartitionMethod::Rcb,
            threads: 2,
            transport: lms_dist::TransportMode::Pipes,
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
    /// untangle, Delaunay-swap, then smart Laplacian smoothing.
    pub fn standard(ordering: OrderingKind) -> Self {
        Pipeline::new()
            .then(Stage::Reorder(ordering))
            .then(Stage::Untangle(UntangleOptions::default()))
            .then(Stage::Swap(SwapOptions::default()))
            .then(Stage::Smooth(SmoothParams::paper().with_smart(true)))
    }

    /// [`standard`](Self::standard) with the smoothing stage on the
    /// colored deterministic parallel Gauss–Seidel engine.
    pub fn standard_parallel(ordering: OrderingKind, threads: usize) -> Self {
        Pipeline::new()
            .then(Stage::Reorder(ordering))
            .then(Stage::Untangle(UntangleOptions::default()))
            .then(Stage::Swap(SwapOptions::default()))
            .then(Stage::ParallelSmooth(SmoothParams::paper().with_smart(true), threads))
    }

    /// [`standard`](Self::standard) with the smoothing stage on the
    /// resident halo-exchange engine.
    pub fn standard_resident(ordering: OrderingKind, spec: PartitionSpec) -> Self {
        Pipeline::new()
            .then(Stage::Reorder(ordering))
            .then(Stage::Untangle(UntangleOptions::default()))
            .then(Stage::Swap(SwapOptions::default()))
            .then(Stage::ResidentSmooth(SmoothParams::paper().with_smart(true), spec))
    }

    /// [`standard`](Self::standard) with the smoothing stage on the
    /// multi-process distributed resident engine.
    pub fn standard_distributed(ordering: OrderingKind, spec: PartitionSpec) -> Self {
        Pipeline::new()
            .then(Stage::Reorder(ordering))
            .then(Stage::Untangle(UntangleOptions::default()))
            .then(Stage::Swap(SwapOptions::default()))
            .then(Stage::DistributedSmooth(SmoothParams::paper().with_smart(true), spec))
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
                Stage::Smooth(params) => params.smooth(mesh).num_iterations(),
                Stage::ParallelSmooth(params, threads) => {
                    let engine = SmoothEngine::new(mesh, params.clone());
                    let report = match params.update {
                        lms_smooth::UpdateScheme::GaussSeidel => {
                            engine.smooth_parallel_colored(mesh, *threads)
                        }
                        lms_smooth::UpdateScheme::Jacobi => engine.smooth_parallel(mesh, *threads),
                    };
                    report.num_iterations()
                }
                Stage::ResidentSmooth(params, spec) => {
                    let engine =
                        ResidentEngine::by_method(mesh, params.clone(), spec.parts, spec.method);
                    engine.smooth(mesh, spec.threads).num_iterations()
                }
                Stage::DistributedSmooth(params, spec) => {
                    let engine = lms_dist::DistResidentEngine::by_method(
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

        let report = Pipeline::standard(OrderingKind::Rdr).run(&mut m);
        assert_eq!(count_inverted(&m), 0);
        assert!(report.final_quality > report.initial_quality);
        assert_eq!(report.stages.len(), 4);
        assert_eq!(report.stages[0].stage, "reorder");
        assert!(report.stages[1].work > 0, "untangle should move vertices");
    }

    #[test]
    fn stage_bookkeeping_chains_quality_values() {
        let mut m = generators::perturbed_grid(12, 12, 0.3, 4);
        let report = Pipeline::standard(OrderingKind::Bfs).run(&mut m);
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
    fn parallel_smooth_stage_matches_standard_quality() {
        let base = {
            let mut m = generators::perturbed_grid(16, 16, 0.35, 3);
            m.orient_ccw();
            m
        };
        let mut serial = base.clone();
        let rs = Pipeline::standard(OrderingKind::Rdr).run(&mut serial);
        let mut par = base.clone();
        let rp = Pipeline::standard_parallel(OrderingKind::Rdr, 3).run(&mut par);
        assert_eq!(rp.stages.last().unwrap().stage, "parsmooth");
        assert!(rp.final_quality > rp.initial_quality);
        // different Gauss-Seidel visit orders, same fixed point family
        assert!((rs.final_quality - rp.final_quality).abs() < 0.02);
        // and the parallel stage itself is thread-count invariant
        let mut par8 = base.clone();
        let rp8 = Pipeline::standard_parallel(OrderingKind::Rdr, 8).run(&mut par8);
        assert_eq!(par.coords(), par8.coords());
        assert_eq!(rp, rp8);
    }

    #[test]
    fn resident_smooth_stage_matches_standard_quality() {
        let base = {
            let mut m = generators::perturbed_grid(16, 16, 0.35, 7);
            m.orient_ccw();
            m
        };
        let mut serial = base.clone();
        let rs = Pipeline::standard(OrderingKind::Rdr).run(&mut serial);
        let spec = PartitionSpec {
            parts: 4,
            method: lms_part::PartitionMethod::Rcb,
            threads: 2,
            ..PartitionSpec::default()
        };
        let mut res = base.clone();
        let rr = Pipeline::standard_resident(OrderingKind::Rdr, spec).run(&mut res);
        assert_eq!(rr.stages.last().unwrap().stage, "ressmooth");
        assert!(rr.final_quality > rr.initial_quality);
        // same fixed-point family as the serial Gauss-Seidel pipeline
        assert!((rs.final_quality - rr.final_quality).abs() < 0.02);
        // and thread-count invariant
        let mut res8 = base.clone();
        let rr8 =
            Pipeline::standard_resident(OrderingKind::Rdr, PartitionSpec { threads: 8, ..spec })
                .run(&mut res8);
        assert_eq!(res.coords(), res8.coords());
        assert_eq!(rr, rr8);
    }

    #[test]
    fn distributed_smooth_stage_matches_resident_bitwise() {
        let base = {
            let mut m = generators::perturbed_grid(14, 14, 0.35, 9);
            m.orient_ccw();
            m
        };
        let spec = PartitionSpec {
            parts: 3,
            method: lms_part::PartitionMethod::Rcb,
            threads: 2,
            ..PartitionSpec::default()
        };
        let mut dist = base.clone();
        let rd = Pipeline::standard_distributed(OrderingKind::Rdr, spec).run(&mut dist);
        assert_eq!(rd.stages.last().unwrap().stage, "distsmooth");
        assert!(rd.final_quality > rd.initial_quality);
        // the distributed stage is the resident stage over a process
        // transport — same decomposition, bit-identical coordinates
        let mut res = base.clone();
        let rr = Pipeline::standard_resident(OrderingKind::Rdr, spec).run(&mut res);
        assert_eq!(dist.coords(), res.coords());
        assert_eq!(rd.final_quality, rr.final_quality);
        // and substrate-invariant: the same stage over stream sockets
        // lands on the same bits as over pipes
        for transport in [lms_dist::TransportMode::UnixSocket, lms_dist::TransportMode::TcpLoopback]
        {
            let mut sock = base.clone();
            let rs = Pipeline::standard_distributed(
                OrderingKind::Rdr,
                PartitionSpec { transport, ..spec },
            )
            .run(&mut sock);
            assert_eq!(dist.coords(), sock.coords(), "substrate {transport:?} diverged");
            assert_eq!(rd.final_quality, rs.final_quality);
        }
    }

    #[test]
    fn parallel_smooth_stage_accepts_jacobi_params() {
        use lms_smooth::UpdateScheme;
        let mut m = generators::perturbed_grid(10, 10, 0.3, 5);
        let report = Pipeline::new()
            .then(Stage::ParallelSmooth(
                SmoothParams::paper().with_update(UpdateScheme::Jacobi).with_max_iters(5),
                3,
            ))
            .run(&mut m);
        assert_eq!(report.stages[0].stage, "parsmooth");
        assert!(report.final_quality > report.initial_quality);
    }

    #[test]
    fn full_stage_zoo_executes() {
        let mut m = generators::perturbed_grid(12, 12, 0.35, 8);
        let report = Pipeline::new()
            .then(Stage::Reorder(OrderingKind::Rdr))
            .then(Stage::Untangle(UntangleOptions::default()))
            .then(Stage::Swap(SwapOptions::default()))
            .then(Stage::Smooth(SmoothParams::paper().with_max_iters(10)))
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
