//! Parallel smoothing engines (the paper's 32-core OpenMP loop, in rayon).
//!
//! The paper pins one thread per core with a *static* schedule "evenly
//! dividing the vertices" (§5.1). Two faithful variants are provided:
//!
//! * [`SmoothEngineOn::smooth_parallel`] — double-buffered **Jacobi**
//!   sweeps, in every dimension: each thread owns a contiguous chunk of
//!   the vertex array, reads the previous sweep's positions, writes its
//!   own chunk. Fully deterministic and race-free; identical results for
//!   any thread count.
//! * [`SmoothEngine::smooth_parallel_chaotic`] — in-place **chaotic
//!   Gauss–Seidel** on triangle meshes: positions live in atomics
//!   ([`AtomicU64`] bit-cast `f64`s, `Relaxed` ordering) and threads
//!   update their chunks in place while racing reads observe a mix of old
//!   and new neighbour positions — the semantics of the paper's OpenMP
//!   loop. Still data-race-free in the Rust memory model, merely
//!   non-deterministic in its floating-point outcome.

use crate::domain::{weighted_candidate_on, SmoothDomain};
use crate::engine::{SmoothEngine, SmoothEngineOn, SmoothMesh};
use crate::kernel::candidate_for;
use crate::stats::{IterationStats, SmoothReport};
use lms_mesh::geometry::Point2;
use lms_mesh::TriMesh;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Global domain quality computed with rayon: element qualities in
/// parallel, then the per-vertex means summed in fixed groups (bitwise
/// identical for any thread count). Call inside a pool `install` to bound
/// the thread count.
fn parallel_domain_quality<const C: usize, D: SmoothDomain<C>>(
    dom: &D,
    coords: &[D::Point],
) -> f64 {
    let n = dom.num_vertices();
    if n == 0 {
        return 0.0;
    }
    let elems = dom.elements();
    let elem_q: Vec<f64> =
        (0..elems.len()).into_par_iter().map(|t| dom.score(coords, elems[t]).0).collect();
    let sum: f64 = (0..n as u32)
        .into_par_iter()
        .map(|v| {
            let ts = dom.elements_of(v);
            if ts.is_empty() {
                0.0
            } else {
                ts.iter().map(|&t| elem_q[t as usize]).sum::<f64>() / ts.len() as f64
            }
        })
        .sum();
    sum / n as f64
}

/// An atomically updatable position (x and y as `f64` bit patterns).
struct AtomicPoint {
    x: AtomicU64,
    y: AtomicU64,
}

impl AtomicPoint {
    fn new(p: Point2) -> Self {
        AtomicPoint { x: AtomicU64::new(p.x.to_bits()), y: AtomicU64::new(p.y.to_bits()) }
    }

    #[inline]
    fn load(&self) -> Point2 {
        Point2::new(
            f64::from_bits(self.x.load(Ordering::Relaxed)),
            f64::from_bits(self.y.load(Ordering::Relaxed)),
        )
    }

    #[inline]
    fn store(&self, p: Point2) {
        self.x.store(p.x.to_bits(), Ordering::Relaxed);
        self.y.store(p.y.to_bits(), Ordering::Relaxed);
    }
}

impl<const C: usize, M: SmoothMesh<C>> SmoothEngineOn<C, M> {
    /// Deterministic parallel smoothing: static contiguous vertex chunks,
    /// Jacobi (double-buffered) updates. Results are bit-identical for any
    /// `num_threads`. Workers come from the engine-cached persistent pool
    /// (spawned once per engine lifetime).
    ///
    /// # Panics
    /// When the params ask for smart commits: this sweep has no quality
    /// guard, so smart Jacobi runs on the serial engine
    /// ([`smooth`](Self::smooth)).
    pub fn smooth_parallel(&self, mesh: &mut M, num_threads: usize) -> SmoothReport {
        let dom = self.domain();
        let cfg = self.domain_config();
        let n = dom.num_vertices();
        assert_eq!(mesh.coords().len(), n, "engine was built for a different mesh");
        assert!(
            !cfg.smart,
            "parallel Jacobi has no smart-commit guard; \
             run smart Jacobi on the serial engine (Backend::Serial)"
        );
        let pool = self.pool.get(num_threads);

        let initial_quality = pool.install(|| parallel_domain_quality(&dom, mesh.coords()));
        let mut report = SmoothReport::starting(initial_quality);
        let mut quality = initial_quality;

        let mut prev: Vec<M::Point> = mesh.coords().to_vec();
        let mut next: Vec<M::Point> = prev.clone();
        let chunk = n.div_ceil(num_threads).max(1);

        for iter in 1..=cfg.max_iters {
            pool.install(|| {
                let prev_ref: &[M::Point] = &prev;
                next.par_chunks_mut(chunk).enumerate().for_each(|(ci, out)| {
                    let base = ci * chunk;
                    for (off, slot) in out.iter_mut().enumerate() {
                        let v = (base + off) as u32;
                        if !dom.is_interior(v) {
                            continue; // keeps the copied boundary position
                        }
                        let pv = prev_ref[v as usize];
                        if let Some(c) =
                            candidate_for(cfg.weighting, pv, dom.neighbors(v), prev_ref)
                        {
                            *slot = c;
                        }
                    }
                });
            });
            std::mem::swap(&mut prev, &mut next);

            let new_quality = pool.install(|| parallel_domain_quality(&dom, &prev));
            let improvement = new_quality - quality;
            report.iterations.push(IterationStats { iter, quality: new_quality, improvement });
            quality = new_quality;
            if improvement < cfg.tol {
                report.converged = true;
                break;
            }
        }
        mesh.coords_mut().copy_from_slice(&prev);
        report.final_quality = quality;
        report
    }
}

impl SmoothEngine {
    /// Chaotic (asynchronous) Gauss–Seidel parallel smoothing — the closest
    /// analogue of the paper's in-place OpenMP loop. Positions are stored in
    /// relaxed atomics; each thread updates its static chunk in place while
    /// neighbour reads may observe either old or new positions.
    ///
    /// Non-deterministic across runs/thread counts in the last bits, but
    /// race-free and convergent in practice (asynchronous relaxation).
    pub fn smooth_parallel_chaotic(&self, mesh: &mut TriMesh, num_threads: usize) -> SmoothReport {
        let dom = self.domain();
        let params = self.params();
        let n = mesh.num_vertices();
        assert_eq!(n, dom.num_vertices(), "engine was built for a different mesh");
        let pool = self.pool.get(num_threads);

        let initial_quality = pool.install(|| parallel_domain_quality(&dom, mesh.coords()));
        let mut report = SmoothReport::starting(initial_quality);
        let mut quality = initial_quality;

        let atoms: Vec<AtomicPoint> = mesh.coords().iter().map(|&p| AtomicPoint::new(p)).collect();
        let chunk = n.div_ceil(num_threads).max(1);

        for iter in 1..=params.max_iters {
            pool.install(|| {
                atoms.par_chunks(chunk).enumerate().for_each(|(ci, my)| {
                    let base = ci * chunk;
                    for (off, slot) in my.iter().enumerate() {
                        let v = (base + off) as u32;
                        if !dom.is_interior(v) {
                            continue;
                        }
                        let pv = slot.load();
                        let gathered = dom.neighbors(v).iter().map(|&w| atoms[w as usize].load());
                        if let Some(c) = weighted_candidate_on(params.weighting, pv, gathered) {
                            slot.store(c);
                        }
                    }
                });
            });

            for (slot, atom) in mesh.coords_mut().iter_mut().zip(&atoms) {
                *slot = atom.load();
            }
            let new_quality = pool.install(|| parallel_domain_quality(&dom, mesh.coords()));
            let improvement = new_quality - quality;
            report.iterations.push(IterationStats { iter, quality: new_quality, improvement });
            quality = new_quality;
            if improvement < params.tol {
                report.converged = true;
                break;
            }
        }
        report.final_quality = quality;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks;
    use crate::config::{SmoothParams, UpdateScheme};
    use lms_mesh::generators;

    #[test]
    fn parallel_jacobi_matches_serial_jacobi_exactly() {
        let m0 = generators::perturbed_grid(18, 18, 0.35, 11);
        let params = SmoothParams::paper().with_update(UpdateScheme::Jacobi).with_max_iters(6);
        checks::parallel_jacobi_matches_serial_jacobi_exactly(&m0, params);
    }

    #[test]
    fn parallel_is_deterministic_across_thread_counts() {
        let m0 = generators::perturbed_grid(15, 15, 0.3, 2);
        checks::parallel_is_deterministic_across_thread_counts(
            &m0,
            SmoothParams::paper().with_max_iters(4),
        );
    }

    #[test]
    fn parallel_engines_spawn_threads_once_per_engine() {
        let m = generators::perturbed_grid(12, 12, 0.3, 3);
        let engine = SmoothEngine::new(&m, SmoothParams::paper().with_max_iters(2).with_tol(-1.0));
        checks::spawns_threads_once(|| {
            engine.smooth_parallel(&mut m.clone(), 3);
            engine.smooth_parallel_colored(&mut m.clone(), 3);
        });
    }

    #[test]
    #[should_panic(expected = "Backend::Serial")]
    fn parallel_jacobi_rejects_smart_params() {
        let m0 = generators::perturbed_grid(8, 8, 0.3, 1);
        let params = SmoothParams::paper().with_update(UpdateScheme::Jacobi).with_smart(true);
        SmoothEngine::new(&m0, params).smooth_parallel(&mut m0.clone(), 2);
    }

    #[test]
    fn chaotic_improves_quality_and_pins_boundary() {
        let m0 = generators::perturbed_grid(16, 16, 0.35, 5);
        let mut m = m0.clone();
        let engine = SmoothEngine::new(&m0, SmoothParams::paper());
        let report = engine.smooth_parallel_chaotic(&mut m, 3);
        assert!(report.total_improvement() > 0.0);
        for v in engine.boundary().boundary_vertices() {
            assert_eq!(m.coords()[v as usize], m0.coords()[v as usize]);
        }
    }

    #[test]
    fn parallel_quality_matches_serial_quality() {
        let m = generators::perturbed_grid(12, 12, 0.3, 8);
        let engine = SmoothEngine::new(&m, SmoothParams::paper());
        let serial =
            lms_mesh::quality::mesh_quality(&m, engine.adjacency(), SmoothParams::paper().metric);
        let par = parallel_domain_quality(&engine.domain(), m.coords());
        assert!((serial - par).abs() < 1e-12);
    }

    #[test]
    fn single_thread_parallel_equals_more_threads() {
        let m0 = generators::perturbed_grid(10, 10, 0.3, 3);
        let mut one = m0.clone();
        let r1 = SmoothEngine::new(&m0, SmoothParams::paper()).smooth_parallel(&mut one, 1);
        assert!(r1.total_improvement() > 0.0);
    }
}
