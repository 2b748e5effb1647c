//! Smoothing parameters (Algorithm 1 knobs).

use lms_mesh::quality::QualityMetric;

/// In which order the sweep visits the interior vertices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IterationPolicy {
    /// Iterate the vertex array in storage order — the literal reading of
    /// Algorithm 1 line 11 and what the paper's static OpenMP schedule does.
    /// Reorderings change iteration *and* layout together.
    #[default]
    StorageOrder,
    /// Mesquite-style greedy traversal (§4.2): start at the worst-quality
    /// vertex, then repeatedly visit the worst-quality unvisited neighbour.
    /// The visit order is fixed by the *initial* qualities, so it is
    /// identical whatever the storage order — reorderings then change only
    /// the memory layout, which is the paper's framing for RDR.
    GreedyQuality,
}

/// Neighbour weighting of the Laplacian update.
///
/// Equation (1) of the paper is the uniform average; weighted variants are
/// the standard extensions ("extensions of Laplacian mesh smoothing" the
/// paper's §6 expects RDR to carry over to) — they change the arithmetic
/// per gathered neighbour but not the *access pattern*, which is why the
/// ordering results transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Weighting {
    /// Plain average of the neighbour positions — Equation (1).
    #[default]
    Uniform,
    /// Weights `1/|p_i − p_v|`: nearby neighbours dominate, which damps
    /// the update and resists shrinking through tight clusters.
    InverseEdgeLength,
    /// Weights `|p_i − p_v|`: far neighbours dominate, which equalises
    /// edge lengths aggressively (length-weighted Laplacian).
    EdgeLength,
}

impl Weighting {
    /// Short lowercase name for reports and CLIs.
    pub fn name(self) -> &'static str {
        match self {
            Weighting::Uniform => "uniform",
            Weighting::InverseEdgeLength => "invlen",
            Weighting::EdgeLength => "len",
        }
    }
}

/// How a sweep commits its position updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdateScheme {
    /// In-place updates: later vertices see earlier vertices' new positions
    /// within the same sweep (what Mesquite's serial smoother does).
    #[default]
    GaussSeidel,
    /// Double-buffered updates: every vertex reads only previous-sweep
    /// positions. Deterministic under any parallel schedule.
    Jacobi,
}

/// Full parameter set for a smoothing run.
#[derive(Debug, Clone, PartialEq)]
pub struct SmoothParams {
    /// Quality metric for convergence tracking (paper: edge-length ratio).
    pub metric: QualityMetric,
    /// Stop when the global quality improves by less than this between
    /// sweeps (paper: `5e-6`, §5.1).
    pub tol: f64,
    /// Hard iteration cap (Algorithm 1 notes a maximum is always set).
    pub max_iters: usize,
    /// Sweep visit order.
    pub policy: IterationPolicy,
    /// Update commit scheme.
    pub update: UpdateScheme,
    /// "Smart" Laplacian smoothing (Freitag): a vertex move is committed
    /// only if it does not decrease the mean quality of the vertex's
    /// incident triangles. Guards against the inversions plain Laplacian
    /// smoothing can produce; one of the extensions the paper's §6 expects
    /// RDR to combine with.
    pub smart: bool,
    /// Neighbour weighting of the position update (paper: uniform).
    pub weighting: Weighting,
    /// Score every candidate star one element at a time, in every engine,
    /// on the sweep copy compiled without AVX, instead of through the
    /// lane-batched kernel. Bit-identical to the default — the toggle
    /// exists purely as the before/after baseline of the batched-kernel
    /// benches and the equivalence property suites.
    pub scalar_scoring: bool,
}

impl SmoothParams {
    /// The exact configuration of the paper's evaluation (§5.1):
    /// edge-length ratio, tolerance `5e-6`, storage-order Gauss–Seidel.
    pub fn paper() -> Self {
        SmoothParams {
            metric: QualityMetric::EdgeLengthRatio,
            tol: 5e-6,
            max_iters: 200,
            policy: IterationPolicy::StorageOrder,
            update: UpdateScheme::GaussSeidel,
            smart: false,
            weighting: Weighting::Uniform,
            scalar_scoring: false,
        }
    }

    /// Builder-style metric override.
    pub fn with_metric(mut self, metric: QualityMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Builder-style tolerance override.
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Builder-style iteration-cap override.
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// Builder-style policy override.
    pub fn with_policy(mut self, policy: IterationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Builder-style update-scheme override.
    pub fn with_update(mut self, update: UpdateScheme) -> Self {
        self.update = update;
        self
    }

    /// Builder-style smart-smoothing override.
    pub fn with_smart(mut self, smart: bool) -> Self {
        self.smart = smart;
        self
    }

    /// Builder-style weighting override.
    pub fn with_weighting(mut self, weighting: Weighting) -> Self {
        self.weighting = weighting;
        self
    }

    /// Builder-style scalar-scoring override (bench/oracle baseline).
    pub fn with_scalar_scoring(mut self, scalar_scoring: bool) -> Self {
        self.scalar_scoring = scalar_scoring;
        self
    }
}

impl Default for SmoothParams {
    fn default() -> Self {
        SmoothParams::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters_match_section_5_1() {
        let p = SmoothParams::paper();
        assert_eq!(p.metric, QualityMetric::EdgeLengthRatio);
        assert_eq!(p.tol, 5e-6);
        assert_eq!(p.policy, IterationPolicy::StorageOrder);
        assert_eq!(p.update, UpdateScheme::GaussSeidel);
        assert_eq!(p, SmoothParams::default());
    }

    #[test]
    fn builders_override_fields() {
        let p = SmoothParams::paper()
            .with_tol(1e-3)
            .with_max_iters(5)
            .with_metric(QualityMetric::MinAngle)
            .with_policy(IterationPolicy::GreedyQuality)
            .with_update(UpdateScheme::Jacobi);
        assert_eq!(p.tol, 1e-3);
        assert_eq!(p.max_iters, 5);
        assert_eq!(p.metric, QualityMetric::MinAngle);
        assert_eq!(p.policy, IterationPolicy::GreedyQuality);
        assert_eq!(p.update, UpdateScheme::Jacobi);
    }
}
