//! Static vs dynamic reordering (Shontz & Knupp \[17\]).
//!
//! The paper's §2 recounts Shontz & Knupp's finding that *static* vertex
//! reordering (once, up front) beats *dynamic* reordering (every few
//! iterations) "because of the overhead of the additional reorderings",
//! and bases its own a-priori design on it. This module implements both
//! strategies so the `dynamic` experiment can re-test that finding on our
//! substrate:
//!
//! * the **static** strategy reorders once and smooths to convergence;
//! * the **dynamic** strategy re-reorders every `reorder_every` sweeps
//!   (vertex qualities change as the mesh smooths, so the RDR walk changes
//!   too), paying one reordering per round.
//!
//! Work is accounted in *sweep equivalents*: §5.4 prices one reordering at
//! ≈ 1 ORI smoothing iteration, so a strategy's total cost is
//! `sweeps + reorders × cost_per_reorder`.

use lms_mesh::quality::mesh_quality;
use lms_mesh::{Adjacency, TriMesh};
use lms_order::{compute_ordering, OrderingKind, Permutation};
use lms_smooth::{SmoothEngine, SmoothParams};

/// Strategy for when to (re)order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReorderStrategy {
    /// Never reorder (the ORI baseline).
    Never,
    /// Reorder once before the first sweep (the paper's strategy).
    Static,
    /// Reorder before the first sweep and again after every
    /// `reorder_every` sweeps (Shontz & Knupp's dynamic scheme).
    Dynamic {
        /// Number of smoothing sweeps between reorderings (≥ 1).
        reorder_every: usize,
    },
}

impl ReorderStrategy {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ReorderStrategy::Never => "never",
            ReorderStrategy::Static => "static",
            ReorderStrategy::Dynamic { .. } => "dynamic",
        }
    }
}

/// One reorder-then-smooth round of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundStats {
    /// Round number, starting at 1.
    pub round: usize,
    /// Whether this round began with a reordering.
    pub reordered: bool,
    /// Sweeps executed this round.
    pub sweeps: usize,
    /// Global quality at the end of the round.
    pub quality_after: f64,
}

/// Outcome of a [`smooth_with_strategy`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicReport {
    /// Strategy name.
    pub strategy: &'static str,
    /// Quality before anything ran.
    pub initial_quality: f64,
    /// Quality after the last sweep.
    pub final_quality: f64,
    /// Per-round statistics.
    pub rounds: Vec<RoundStats>,
    /// Total number of reorderings performed.
    pub reorders: usize,
    /// Total number of smoothing sweeps performed.
    pub sweeps: usize,
    /// True when the run stopped on the convergence criterion rather than
    /// the sweep cap.
    pub converged: bool,
}

impl DynamicReport {
    /// Total cost in sweep equivalents, pricing each reordering at
    /// `cost_per_reorder` sweeps (the paper's §5.4 estimate is 1.0).
    pub fn sweep_equivalents(&self, cost_per_reorder: f64) -> f64 {
        self.sweeps as f64 + self.reorders as f64 * cost_per_reorder
    }
}

/// Smooth `mesh` under `params`, (re)ordering with `ordering` according to
/// `strategy`. The mesh is renumbered in place (its final vertex order is
/// the last reordering applied).
///
/// Convergence matches Algorithm 1: stop when one sweep improves global
/// quality by less than `params.tol`, or when `params.max_iters` total
/// sweeps have run.
pub fn smooth_with_strategy(
    mesh: &mut TriMesh,
    params: &SmoothParams,
    ordering: OrderingKind,
    strategy: ReorderStrategy,
) -> DynamicReport {
    let initial_quality = {
        let adj = Adjacency::build(mesh);
        mesh_quality(mesh, &adj, params.metric)
    };
    let mut report = DynamicReport {
        strategy: strategy.name(),
        initial_quality,
        final_quality: initial_quality,
        rounds: Vec::new(),
        reorders: 0,
        sweeps: 0,
        converged: false,
    };

    let (reorder_first, round_sweeps) = match strategy {
        ReorderStrategy::Never => (false, params.max_iters),
        ReorderStrategy::Static => (true, params.max_iters),
        ReorderStrategy::Dynamic { reorder_every } => {
            assert!(reorder_every >= 1, "reorder_every must be at least 1");
            (true, reorder_every)
        }
    };

    let mut round = 0usize;
    let mut quality = initial_quality;
    while report.sweeps < params.max_iters && !report.converged {
        round += 1;
        let reorder_now = if round == 1 {
            reorder_first
        } else {
            matches!(strategy, ReorderStrategy::Dynamic { .. })
        };
        if reorder_now {
            let perm: Permutation = compute_ordering(mesh, ordering);
            *mesh = perm.apply_to_mesh(mesh);
            report.reorders += 1;
        }

        let budget = round_sweeps.min(params.max_iters - report.sweeps);
        let round_params = params.clone().with_max_iters(budget);
        let engine = SmoothEngine::new(mesh, round_params);
        let sub = engine.smooth(mesh);
        report.sweeps += sub.num_iterations();

        // Convergence: the sub-run converged before exhausting its budget,
        // i.e. its last sweep's improvement fell below tol.
        let new_quality = sub.final_quality;
        if sub.converged {
            report.converged = true;
        }
        quality = new_quality;
        report.rounds.push(RoundStats {
            round,
            reordered: reorder_now,
            sweeps: sub.num_iterations(),
            quality_after: new_quality,
        });
        if sub.num_iterations() == 0 {
            break; // nothing smoothable
        }
    }
    report.final_quality = quality;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{smooth, Backend};
    use lms_mesh::generators;

    fn mesh() -> TriMesh {
        generators::perturbed_grid(20, 20, 0.38, 11)
    }

    fn params() -> SmoothParams {
        SmoothParams::paper().with_max_iters(60)
    }

    #[test]
    fn static_reorders_exactly_once() {
        let mut m = mesh();
        let r = smooth_with_strategy(&mut m, &params(), OrderingKind::Rdr, ReorderStrategy::Static);
        assert_eq!(r.reorders, 1);
        assert!(r.converged);
        assert!(r.final_quality > r.initial_quality);
    }

    #[test]
    fn never_matches_plain_smoothing() {
        let base = mesh();
        let mut a = base.clone();
        let r = smooth_with_strategy(&mut a, &params(), OrderingKind::Rdr, ReorderStrategy::Never);
        assert_eq!(r.reorders, 0);
        let mut b = base.clone();
        let plain = smooth(&mut b, params(), Backend::Serial);
        assert_eq!(a.coords(), b.coords());
        assert_eq!(r.sweeps, plain.num_iterations());
    }

    #[test]
    fn dynamic_reorders_every_k_sweeps() {
        let mut m = mesh();
        let r = smooth_with_strategy(
            &mut m,
            &params(),
            OrderingKind::Rdr,
            ReorderStrategy::Dynamic { reorder_every: 3 },
        );
        assert!(r.reorders >= 2, "expected several reorders, got {}", r.reorders);
        // every round except possibly the last runs exactly 3 sweeps
        for w in &r.rounds[..r.rounds.len() - 1] {
            assert_eq!(w.sweeps, 3);
            assert!(w.reordered);
        }
        assert!(r.converged);
    }

    #[test]
    fn strategies_reach_similar_quality() {
        let base = mesh();
        let run = |s| {
            let mut m = base.clone();
            smooth_with_strategy(&mut m, &params(), OrderingKind::Rdr, s)
        };
        let st = run(ReorderStrategy::Static);
        let dy = run(ReorderStrategy::Dynamic { reorder_every: 4 });
        assert!((st.final_quality - dy.final_quality).abs() < 0.02);
    }

    #[test]
    fn dynamic_costs_more_sweep_equivalents() {
        // the Shontz–Knupp finding on our substrate: same quality, more
        // total work for the dynamic strategy once reorders are priced in
        let base = mesh();
        let run = |s| {
            let mut m = base.clone();
            smooth_with_strategy(&mut m, &params(), OrderingKind::Rdr, s)
        };
        let st = run(ReorderStrategy::Static);
        let dy = run(ReorderStrategy::Dynamic { reorder_every: 2 });
        assert!(
            dy.sweep_equivalents(1.0) > st.sweep_equivalents(1.0),
            "dynamic {} vs static {}",
            dy.sweep_equivalents(1.0),
            st.sweep_equivalents(1.0)
        );
    }

    #[test]
    fn sweep_cap_is_respected() {
        let mut m = mesh();
        let tight = SmoothParams::paper().with_max_iters(5).with_tol(-1.0);
        let r = smooth_with_strategy(
            &mut m,
            &tight,
            OrderingKind::Bfs,
            ReorderStrategy::Dynamic { reorder_every: 2 },
        );
        assert_eq!(r.sweeps, 5);
        assert!(!r.converged);
    }

    #[test]
    fn report_bookkeeping_is_consistent() {
        let mut m = mesh();
        let r = smooth_with_strategy(
            &mut m,
            &params(),
            OrderingKind::Rdr,
            ReorderStrategy::Dynamic { reorder_every: 3 },
        );
        assert_eq!(r.sweeps, r.rounds.iter().map(|x| x.sweeps).sum::<usize>());
        assert_eq!(r.reorders, r.rounds.iter().filter(|x| x.reordered).count());
        assert_eq!(r.final_quality, r.rounds.last().unwrap().quality_after);
        assert!(r.sweep_equivalents(1.0) >= r.sweeps as f64);
    }
}
