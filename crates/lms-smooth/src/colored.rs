//! Colored deterministic parallel Gauss–Seidel smoothing, generic over
//! the smoothing domain.
//!
//! The paper's OpenMP loop runs in-place sweeps with a static schedule and
//! simply races on neighbour reads ([`SmoothEngine::smooth_parallel_chaotic`]
//! reproduces that); the deterministic alternative it compares against is
//! double-buffered Jacobi ([`SmoothEngineOn::smooth_parallel`]), which
//! gives up the Gauss–Seidel convergence rate. This module provides the classic
//! third option: **graph-colored Gauss–Seidel**.
//!
//! The vertex–vertex graph is greedily colored
//! ([`lms_order::coloring::greedy_coloring_on`]); a sweep processes one
//! color class at a time, evaluating the class's candidates in parallel
//! from the current coordinates and then committing them. Within a class
//! no two vertices are adjacent — and in a simplicial mesh, no two
//! same-class vertices even share an element (an element's corners are
//! mutually adjacent) — so:
//!
//! * candidate evaluation reads nothing a same-class commit writes →
//!   **race-free in-place semantics**, and the result is independent of
//!   how the class is split across threads → **bitwise-deterministic for
//!   any thread count**;
//! * the smart guard's cached "before" qualities stay coherent for the
//!   whole class (incident elements of distinct same-class vertices are
//!   disjoint), so the incremental [`DomainQualityCache`] protocol of the
//!   serial hot path carries over unchanged.
//!
//! The sweep is *exactly* serial Gauss–Seidel under the class-major visit
//! order ([`SmoothEngineOn::colored_visit_order`]) — property-tested
//! bit-for-bit in `tests/colored.rs` — and converges to the same fixed
//! point as any other Gauss–Seidel order.
//! [`SmoothEngineOn::smooth_parallel_colored`] is the one body, in every
//! dimension (a tet's four corners are mutually adjacent, so the class
//! argument holds verbatim in 3D).

use crate::config::UpdateScheme;
use crate::dcache::DomainQualityCache;
use crate::domain::SmoothDomain;
#[cfg(doc)]
use crate::engine::SmoothEngine;
use crate::engine::{SmoothEngineOn, SmoothMesh};
use crate::kernel::candidate_for;
use crate::stats::{IterationStats, SmoothReport};
use lms_order::coloring::greedy_coloring_on;
use rayon::prelude::*;

/// Outcome of one parallel candidate evaluation.
///
/// Deliberately minimal: carrying the guard's per-element scores from
/// the parallel phase into the commit pass (to avoid re-scoring committed
/// stars) was measured and rejected — the inline score array inflates the
/// per-class result buffers enough that the engine runs ~2× slower on a
/// 512² grid than simply re-scoring the committed stars serially.
#[derive(Clone, Copy)]
struct ClassMove<P> {
    v: u32,
    candidate: P,
}

/// One plain color-class step: candidates in parallel from the pre-class
/// coordinates, then a serial commit pass (class vertices are mutually
/// non-adjacent, so the snapshot equals what serial Gauss–Seidel would
/// read).
fn colored_class_plain_on<const C: usize, D: SmoothDomain<C>>(
    dom: &D,
    weighting: crate::config::Weighting,
    class: &[u32],
    coords: &mut [D::Point],
    moved: &mut Vec<u32>,
    pool: &rayon::ThreadPool,
) {
    let results: Vec<Option<ClassMove<D::Point>>> = {
        let shared: &[D::Point] = coords;
        pool.install(|| {
            class
                .par_iter()
                .map(|&v| {
                    let ns = dom.neighbors(v);
                    if ns.is_empty() {
                        return None;
                    }
                    let pv = shared[v as usize];
                    candidate_for(weighting, pv, ns, shared)
                        .map(|candidate| ClassMove { v, candidate })
                })
                .collect()
        })
    };
    for mv in results.into_iter().flatten() {
        coords[mv.v as usize] = mv.candidate;
        moved.push(mv.v);
    }
}

/// One smart color-class step: candidate evaluation *and* the
/// quality-guard decision in parallel (reads only pre-class state), then
/// a serial commit pass that re-scores each committed star once to keep
/// the cache coherent for the next class (see [`ClassMove`] for why the
/// guard's scores are not carried over).
fn colored_class_smart_on<const C: usize, D: SmoothDomain<C>>(
    dom: &D,
    weighting: crate::config::Weighting,
    class: &[u32],
    coords: &mut [D::Point],
    cache: &mut DomainQualityCache,
    pool: &rayon::ThreadPool,
) {
    let accepted: Vec<Option<ClassMove<D::Point>>> = {
        let shared: &[D::Point] = coords;
        let cache_ref: &DomainQualityCache = cache;
        pool.install(|| {
            class
                .par_iter()
                .map(|&v| {
                    let ns = dom.neighbors(v);
                    if ns.is_empty() {
                        return None;
                    }
                    let pv = shared[v as usize];
                    let candidate = candidate_for(weighting, pv, ns, shared)?;
                    let ts = dom.elements_of(v);
                    if ts.is_empty() {
                        return Some(ClassMove { v, candidate });
                    }
                    let mut after_sum = 0.0;
                    let mut after_all_pos = true;
                    let mut before_sum = 0.0;
                    for &t in ts {
                        before_sum += cache_ref.guarded_quality(t);
                        let (q, pos) =
                            dom.score_with(shared, dom.elements()[t as usize], v, candidate);
                        if pos {
                            after_sum += q;
                        } else {
                            after_all_pos = false;
                        }
                    }
                    let len = ts.len() as f64;
                    let quality_ok = after_sum >= before_sum || after_sum / len >= before_sum / len;
                    let commit = quality_ok
                        && (after_all_pos || ts.iter().any(|&t| !cache_ref.elem_is_positive(t)));
                    commit.then_some(ClassMove { v, candidate })
                })
                .collect()
        })
    };

    // serial commit in class order: write coordinates, then re-score
    // the committed stars (disjoint within a class) into the cache
    let mut committed: Vec<u32> = Vec::with_capacity(class.len());
    for mv in accepted.into_iter().flatten() {
        coords[mv.v as usize] = mv.candidate;
        committed.push(mv.v);
    }
    let mut scores: Vec<(f64, bool)> = Vec::new();
    for &v in &committed {
        let ts = dom.elements_of(v);
        scores.clear();
        scores.extend(ts.iter().map(|&t| dom.score(coords, dom.elements()[t as usize])));
        cache.set_star(ts, &scores);
    }
}

impl<const C: usize, M: SmoothMesh<C>> SmoothEngineOn<C, M> {
    /// Greedy coloring of the engine's vertex–vertex adjacency, with each
    /// color class restricted to interior vertices (ascending within a
    /// class) — the schedule [`smooth_parallel_colored`] sweeps. Computed
    /// once per engine (topology-only) and cached.
    ///
    /// [`smooth_parallel_colored`]: Self::smooth_parallel_colored
    pub fn interior_color_classes(&self) -> &[Vec<u32>] {
        self.colored_classes.get_or_init(|| {
            let dom = self.domain();
            greedy_coloring_on(&self.adj)
                .classes()
                .map(|class| class.iter().copied().filter(|&v| dom.is_interior(v)).collect())
                .collect()
        })
    }

    /// The class-major visit order: interior vertices grouped by color,
    /// ascending within each class. Feeding this to
    /// [`with_visit_order`](Self::with_visit_order) makes the serial
    /// engine execute the exact sequence the colored parallel engine
    /// commits — they produce bit-identical coordinates.
    pub fn colored_visit_order(&self) -> Vec<u32> {
        self.interior_color_classes().iter().flatten().copied().collect()
    }

    /// In-place Gauss–Seidel smoothing, parallelised by color class:
    /// race-free, bitwise-deterministic for any `num_threads`, and with
    /// true in-place convergence behaviour (unlike the Jacobi engine).
    /// Honours the engine's `smart` flag through the same incremental
    /// quality-cache protocol as the serial hot path; the `Jacobi` update
    /// scheme is rejected (use [`smooth_parallel`](Self::smooth_parallel),
    /// which is already deterministic).
    pub fn smooth_parallel_colored(&self, mesh: &mut M, num_threads: usize) -> SmoothReport {
        // one persistent pool per engine: the spawn cost of the shim's
        // parked workers is paid on the first run at this thread count
        let pool = self.pool.get(num_threads);
        let classes = self.interior_color_classes();
        let (dom, cfg) = (self.domain(), self.domain_config());
        let coords = mesh.coords_mut();
        assert_eq!(coords.len(), dom.num_vertices(), "engine was built for a different mesh");
        assert_eq!(
            cfg.update,
            UpdateScheme::GaussSeidel,
            "colored smoothing is an in-place (Gauss-Seidel) schedule; \
             use smooth_parallel for deterministic Jacobi"
        );
        let mut cache = DomainQualityCache::build(&dom, coords);
        let initial_quality = cache.quality_exact(&dom);
        let mut report = SmoothReport::starting(initial_quality);
        let mut quality = initial_quality;
        let mut moved: Vec<u32> = Vec::new();

        for iter in 1..=cfg.max_iters {
            moved.clear();
            for class in classes {
                if class.is_empty() {
                    continue;
                }
                if cfg.smart {
                    colored_class_smart_on(&dom, cfg.weighting, class, coords, &mut cache, &pool);
                } else {
                    colored_class_plain_on(&dom, cfg.weighting, class, coords, &mut moved, &pool);
                }
            }
            if !moved.is_empty() {
                cache.apply_moves(&dom, &moved, coords);
            }

            let new_quality = cache.quality_running();
            let improvement = new_quality - quality;
            report.iterations.push(IterationStats { iter, quality: new_quality, improvement });
            quality = new_quality;
            if improvement < cfg.tol {
                report.converged = true;
                break;
            }
        }

        let exact =
            if report.iterations.is_empty() { initial_quality } else { cache.quality_exact(&dom) };
        if let Some(last) = report.iterations.last_mut() {
            last.quality = exact;
        }
        report.final_quality = exact;
        report
    }
}
