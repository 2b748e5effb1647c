//! Automatic measured repartitioning between runs — the closed
//! observability loop of PR 7's profiling stack.
//!
//! A decomposition that balances vertex counts (or areas) can still be
//! badly *time*-imbalanced: cache behaviour, valence distribution and
//! grading all skew per-part sweep cost away from per-part size. PR 7
//! made that skew measurable (each rank clocks its sweep phases;
//! [`PhaseBreakdown::per_part_sweep_ns`] surfaces the totals) and
//! `lms_part::repartition_measured` turns measured cost into a re-split.
//! This module automates the loop: every [`smooth_adaptive`] run is
//! profiled, and at the run boundary — the natural checkpoint boundary,
//! where no halo state is in flight and the whole mesh is authoritative
//! on the caller's side — the engine re-splits itself whenever the
//! measured spread exceeds the policy threshold.
//!
//! Rebalancing changes *which part owns which vertex*, and Gauss–Seidel
//! results depend on visit order — so a rebalanced run is **not**
//! bit-identical to one on the old decomposition, by design. What is
//! preserved: each individual run stays bitwise-deterministic for any
//! thread count (and bit-identical to serial part-major Gauss–Seidel
//! over its own decomposition), and the rebalance decision itself is
//! deterministic given the same measured timings.
//!
//! [`PhaseBreakdown::per_part_sweep_ns`]: lms_trace::PhaseBreakdown::per_part_sweep_ns
//! [`smooth_adaptive`]: AutoRebalanceEngine::smooth_adaptive

use crate::resident::ResidentEngine;
use crate::stats::SmoothReport;
use lms_mesh::TriMesh;
use lms_part::repartition_measured;

/// When a measured sweep-time imbalance is worth a re-split.
#[derive(Debug, Clone)]
pub struct RebalancePolicy {
    /// Trigger threshold on the per-part sweep spread, measured as
    /// `max / mean` of the parts' sweep nanos (1.0 = perfectly even).
    /// A profiled run whose spread exceeds this re-splits the mesh at
    /// measured-cost medians before the next run.
    pub spread_threshold: f64,
}

impl Default for RebalancePolicy {
    fn default() -> Self {
        // below ~1.25 the repartition's own disturbance (new halo
        // surfaces, cold blocks) tends to cost more than the skew
        RebalancePolicy { spread_threshold: 1.25 }
    }
}

/// The measured per-part sweep spread: `max / mean` over parts that did
/// any work. Degenerate profiles (no parts, all-zero timings) read as
/// perfectly balanced.
pub fn sweep_spread(per_part_sweep_ns: &[u64]) -> f64 {
    let total: u64 = per_part_sweep_ns.iter().sum();
    if per_part_sweep_ns.is_empty() || total == 0 {
        return 1.0;
    }
    let mean = total as f64 / per_part_sweep_ns.len() as f64;
    *per_part_sweep_ns.iter().max().unwrap() as f64 / mean
}

/// A [`ResidentEngine`] that re-splits itself by measured cost.
///
/// Each [`smooth_adaptive`](Self::smooth_adaptive) call runs the current
/// decomposition profiled; if the measured per-part sweep spread exceeds
/// the policy threshold, the engine rebuilds itself between runs from
/// `lms_part::repartition_measured` over those timings — so a standing
/// imbalance is corrected after one run's evidence, and a balanced
/// decomposition is left untouched.
#[derive(Debug)]
pub struct AutoRebalanceEngine {
    engine: ResidentEngine,
    policy: RebalancePolicy,
    rebalances: usize,
    last_spread: Option<f64>,
}

impl AutoRebalanceEngine {
    /// Wrap an existing engine (any construction: explicit partition or
    /// [`ResidentEngine::by_method`]) under `policy`.
    pub fn new(engine: ResidentEngine, policy: RebalancePolicy) -> Self {
        AutoRebalanceEngine { engine, policy, rebalances: 0, last_spread: None }
    }

    /// The current engine — its [`partition`](ResidentEngine::partition)
    /// reflects every rebalance taken so far.
    pub fn engine(&self) -> &ResidentEngine {
        &self.engine
    }

    /// How many runs ended in a measured re-split.
    pub fn rebalances(&self) -> usize {
        self.rebalances
    }

    /// The spread the most recent run measured (1.0 = perfectly even).
    pub fn last_spread(&self) -> Option<f64> {
        self.last_spread
    }

    /// One profiled smoothing run plus the boundary decision. Returns the
    /// run's report (with `phase_breakdown` attached); query
    /// [`rebalances`](Self::rebalances) /
    /// [`last_spread`](Self::last_spread) for what the boundary did.
    pub fn smooth_adaptive(&mut self, mesh: &mut TriMesh, num_threads: usize) -> SmoothReport {
        let (report, _) = self.engine.smooth_profiled(mesh, num_threads);
        let per_part = report.phase_breakdown.as_ref().expect("profiled run").per_part_sweep_ns();
        let spread = sweep_spread(&per_part);
        self.last_spread = Some(spread);
        if spread > self.policy.spread_threshold {
            // run boundary = checkpoint boundary: the scatter has made
            // the caller's mesh authoritative, so re-splitting here
            // invalidates no in-flight halo state. The topology has not
            // changed either: the new engine gets a copy of the outgoing
            // one's adjacency instead of deriving it again.
            let params = self.engine.engine().params().clone();
            let adj = self.engine.engine().adjacency().clone();
            let partition = repartition_measured(mesh, &adj, self.engine.partition(), &per_part);
            self.engine = ResidentEngine::with_adjacency(mesh, adj, params, partition);
            self.rebalances += 1;
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SmoothParams;
    use lms_mesh::{Adjacency, Point2, TriMesh};
    use lms_part::{partition_mesh, PartitionMethod};

    /// An x³-graded grid: vertex density varies by orders of magnitude
    /// across the x axis, so an *area*-balanced decomposition is
    /// strongly count- and sweep-time-imbalanced.
    fn graded_mesh(side: usize) -> TriMesh {
        let m = lms_mesh::generators::perturbed_grid(side, side, 0.0, 0);
        let (coords, tris) = m.into_parts();
        let graded: Vec<Point2> =
            coords.into_iter().map(|p| Point2::new(p.x * p.x * p.x, p.y)).collect();
        TriMesh::new(graded, tris).unwrap()
    }

    fn part_counts(assignment: &[u32], k: usize) -> Vec<usize> {
        let mut counts = vec![0usize; k];
        for &p in assignment {
            counts[p as usize] += 1;
        }
        counts
    }

    fn count_imbalance(counts: &[usize]) -> f64 {
        let max = *counts.iter().max().unwrap() as f64;
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        max / mean
    }

    #[test]
    fn spread_of_even_and_degenerate_profiles_is_one() {
        assert_eq!(sweep_spread(&[]), 1.0);
        assert_eq!(sweep_spread(&[0, 0, 0]), 1.0);
        assert_eq!(sweep_spread(&[7, 7, 7, 7]), 1.0);
        assert!(sweep_spread(&[1, 1, 1, 9]) > 2.5);
    }

    #[test]
    fn graded_workload_triggers_a_rebalance_that_narrows_the_split() {
        let mesh = graded_mesh(48);
        let adj = Adjacency::build(&mesh);
        let k = 8usize;
        // the skewed baseline: equal *area* per part ⇒ wildly unequal
        // vertex counts (hence sweep times) under the x³ grading
        let skewed = partition_mesh(&mesh, &adj, k, PartitionMethod::RcbWeighted);
        let before_counts = part_counts(skewed.assignment(), k);
        let params = SmoothParams::paper().with_smart(true).with_max_iters(3).with_tol(-1.0);
        let engine = ResidentEngine::new(&mesh, params, skewed);

        let mut auto = AutoRebalanceEngine::new(engine, RebalancePolicy::default());
        let mut work = mesh.clone();
        let report = auto.smooth_adaptive(&mut work, 2);
        assert!(report.final_quality > report.initial_quality);
        assert_eq!(auto.rebalances(), 1, "spread {:?} must trip the threshold", auto.last_spread());
        assert!(auto.last_spread().unwrap() > 1.25);

        // the structural claim (robust, unlike wall-clock): measured
        // re-splitting must strictly narrow the vertex-count imbalance
        // the grading induced
        let after_counts = part_counts(auto.engine().partition().assignment(), k);
        assert!(
            count_imbalance(&after_counts) < count_imbalance(&before_counts),
            "imbalance must narrow: {before_counts:?} -> {after_counts:?}"
        );

        // and the rebuilt engine must run (deterministically) on the
        // rebalanced decomposition
        let mut again = work.clone();
        let report2 = auto.engine().smooth(&mut again, 2);
        assert!(report2.final_quality >= report2.initial_quality);
    }

    #[test]
    fn balanced_workload_is_left_alone() {
        let mesh = lms_mesh::generators::perturbed_grid(24, 24, 0.3, 5);
        let params = SmoothParams::paper().with_smart(true).with_max_iters(2).with_tol(-1.0);
        let engine = ResidentEngine::by_method(&mesh, params, 4, PartitionMethod::Rcb);
        let before = engine.partition().assignment().to_vec();
        // a generous threshold a uniform grid's noise cannot cross
        let mut auto = AutoRebalanceEngine::new(engine, RebalancePolicy { spread_threshold: 50.0 });
        let mut work = mesh.clone();
        auto.smooth_adaptive(&mut work, 2);
        assert_eq!(auto.rebalances(), 0);
        assert_eq!(auto.engine().partition().assignment(), &before[..], "partition untouched");
    }
}
