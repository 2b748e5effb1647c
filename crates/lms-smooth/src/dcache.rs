//! The dimension-generic incremental element-quality cache — the
//! smoothing hot path's answer to "what did this move do to the mesh
//! quality?".
//!
//! Walking every element and every vertex once per sweep (as a naive
//! Algorithm 1 does for its convergence test) makes the *bookkeeping*
//! cost O(T) per iteration even when only a handful of vertices moved.
//! But a vertex move can only change the quality of its incident
//! elements, and the global quality is a fixed linear functional of the
//! per-element qualities:
//!
//! ```text
//! mesh_quality = (1/V) · Σ_v (Σ_{t ∋ v} q_t) / deg_t(v)
//!              = (1/V) · Σ_t q_t · w_t      with w_t = Σ_{v ∈ t} 1/deg_t(v)
//! ```
//!
//! [`DomainQualityCache`] stores each element's current quality twice —
//! the raw value `q` (what the global statistic sums) and the
//! orientation-guarded value `g` (`0` when the element is inverted; what
//! the smart-smoothing commit test averages) — plus the constant weights
//! `w_t` and the running weighted sum with Neumaier compensation. Every
//! supported metric scores a positively oriented element strictly
//! positive, so `g` is zero **iff** the element is degenerate or inverted
//! and orientation needs no separate storage.
//!
//! Engines update it three ways:
//!
//! * **immediately** ([`set_star`](DomainQualityCache::set_star)) when the
//!   new element values are already in hand — the smart Gauss–Seidel
//!   sweep computes them for its commit test anyway;
//! * **by moved-vertex list**
//!   ([`apply_moves`](DomainQualityCache::apply_moves)) when moves commit
//!   without evaluation (plain sweeps, Jacobi sweeps where an element can
//!   have several moved corners): a sparse move set re-scores the
//!   incident elements once each, a dense one falls back to a sequential
//!   full re-score ([`rescore_all`](DomainQualityCache::rescore_all));
//! * **lazily** ([`mark_dirty`](DomainQualityCache::mark_dirty) +
//!   [`flush_dirty`](DomainQualityCache::flush_dirty)) for callers that
//!   know exactly which elements changed.
//!
//! Two quality read-outs with different contracts:
//! [`quality_running`](DomainQualityCache::quality_running) is O(1) and
//! within a few ulps of the truth (compensated summation) — right for
//! per-iteration convergence tests;
//! [`quality_exact`](DomainQualityCache::quality_exact) re-reduces the
//! cached per-element values in the canonical order of the domain's
//! `mesh_quality` and is **bit-identical** to a from-scratch recompute —
//! right for reported final qualities and for tests.

use crate::domain::SmoothDomain;
use crate::soa::score_elements_batched;

/// Cached per-element qualities with an incrementally-maintained global
/// quality, generic over the smoothing domain. Scoring runs through the
/// domain ([`SmoothDomain::score`]); the cache itself stores only `f64`
/// state and is dimension-blind.
#[derive(Debug, Clone)]
pub struct DomainQualityCache {
    /// Current quality of each element.
    elem_q: Vec<f64>,
    /// Orientation-guarded quality: `elem_q[t]` when positively oriented,
    /// `0.0` otherwise.
    elem_g: Vec<f64>,
    /// Constant weight `w_t` of each element in the global quality.
    elem_w: Vec<f64>,
    num_vertices: usize,
    /// Neumaier-compensated running `Σ_t elem_q[t] · elem_w[t]`.
    sum: f64,
    comp: f64,
    /// Epoch-stamped dirty set (no clearing between flushes).
    dirty_stamp: Vec<u32>,
    dirty: Vec<u32>,
    epoch: u32,
}

impl DomainQualityCache {
    /// Build the cache for a domain (scores every element once).
    pub fn build<const C: usize, D: SmoothDomain<C>>(dom: &D, coords: &[D::Point]) -> Self {
        let nt = dom.num_elements();
        let n = dom.num_vertices();
        assert_eq!(n, coords.len(), "coordinate array does not match the domain");

        let mut elem_w = Vec::with_capacity(nt);
        for e in dom.elements() {
            let w: f64 = e.iter().map(|&v| 1.0 / dom.elements_of(v).len() as f64).sum();
            elem_w.push(w);
        }

        let mut cache = DomainQualityCache {
            elem_q: vec![0.0; nt],
            elem_g: vec![0.0; nt],
            elem_w,
            num_vertices: n,
            sum: 0.0,
            comp: 0.0,
            dirty_stamp: vec![0; nt],
            dirty: Vec::new(),
            epoch: 1,
        };
        cache.rescore_all(dom, coords);
        cache
    }

    /// Neumaier-compensated accumulate.
    #[inline]
    fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.comp += (self.sum - t) + x;
        } else {
            self.comp += (x - t) + self.sum;
        }
        self.sum = t;
    }

    /// Number of cached elements.
    #[inline]
    pub fn num_elements(&self) -> usize {
        self.elem_q.len()
    }

    /// Current cached quality of element `t`.
    #[inline]
    pub fn elem_quality(&self, t: u32) -> f64 {
        self.elem_q[t as usize]
    }

    /// Whether element `t` is currently positively oriented (via the
    /// guarded-value invariant: positive orientation ⇒ positive quality).
    #[inline]
    pub fn elem_is_positive(&self, t: u32) -> bool {
        self.elem_g[t as usize] > 0.0
    }

    /// Orientation-guarded quality of element `t`: 0 when inverted — the
    /// value the smart-smoothing guard averages over a vertex star.
    #[inline]
    pub fn guarded_quality(&self, t: u32) -> f64 {
        self.elem_g[t as usize]
    }

    /// Batch update for one vertex star: `scores[k]` is the fresh
    /// `(quality, positively_oriented)` of element `ts[k]`. Deltas are
    /// accumulated plainly and folded into the running sum with a single
    /// compensated add.
    #[inline]
    pub fn set_star(&mut self, ts: &[u32], scores: &[(f64, bool)]) {
        debug_assert_eq!(ts.len(), scores.len());
        let mut delta = 0.0;
        for (&t, &(q, pos)) in ts.iter().zip(scores) {
            debug_assert!(
                q > 0.0 || !pos,
                "metric invariant violated: positive orientation with zero quality"
            );
            let i = t as usize;
            let w = self.elem_w[i];
            delta += q * w - self.elem_q[i] * w;
            self.elem_q[i] = q;
            self.elem_g[i] = if pos { q } else { 0.0 };
        }
        if delta != 0.0 {
            self.add(delta);
        }
    }

    /// Re-score **every** element and rebuild the running sum from
    /// scratch (same accumulation order as [`build`](Self::build)).
    /// Scoring runs through the lane-batched SoA kernel
    /// ([`score_elements_batched`]); the fold over the results keeps the
    /// sequential element order, so the rebuilt sum is bit-identical to
    /// the scalar loop it replaces.
    pub fn rescore_all<const C: usize, D: SmoothDomain<C>>(
        &mut self,
        dom: &D,
        coords: &[D::Point],
    ) {
        assert_eq!(dom.num_elements(), self.elem_q.len(), "element count changed");
        self.sum = 0.0;
        self.comp = 0.0;
        let mut i = 0;
        score_elements_batched(dom, coords, dom.elements().iter().copied(), |(q, pos)| {
            self.elem_q[i] = q;
            self.elem_g[i] = if pos { q } else { 0.0 };
            self.add(q * self.elem_w[i]);
            i += 1;
        });
    }

    /// Fold a sweep's committed moves into the cache: sparse move sets
    /// re-score each incident element once, dense ones (≥ ~¼ of the
    /// vertices) fall back to the cheaper streaming rescore.
    pub fn apply_moves<const C: usize, D: SmoothDomain<C>>(
        &mut self,
        dom: &D,
        moved: &[u32],
        coords: &[D::Point],
    ) {
        if moved.len() * 4 >= self.num_vertices {
            self.rescore_all(dom, coords);
            return;
        }
        for &v in moved {
            for &t in dom.elements_of(v) {
                self.mark_dirty(t);
            }
        }
        self.flush_dirty(dom, coords);
    }

    /// Queue element `t` for the next flush (deduplicated; O(1)).
    #[inline]
    pub fn mark_dirty(&mut self, t: u32) {
        if self.dirty_stamp[t as usize] != self.epoch {
            self.dirty_stamp[t as usize] = self.epoch;
            self.dirty.push(t);
        }
    }

    /// Whether any element awaits re-scoring.
    #[inline]
    pub fn has_dirty(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Re-score every queued element once, in ascending element order
    /// (through the lane-batched SoA kernel; the delta fold keeps the
    /// ascending order, so the running sum stays bit-identical to the
    /// scalar flush), folding the deltas into the running sum.
    pub fn flush_dirty<const C: usize, D: SmoothDomain<C>>(
        &mut self,
        dom: &D,
        coords: &[D::Point],
    ) {
        self.dirty.sort_unstable();
        let mut dirty = std::mem::take(&mut self.dirty);
        let elems = dirty.iter().map(|&t| dom.elements()[t as usize]);
        let mut k = 0;
        score_elements_batched(dom, coords, elems, |(q, pos)| {
            debug_assert!(
                q > 0.0 || !pos,
                "metric invariant violated: positive orientation with zero quality"
            );
            let i = dirty[k] as usize;
            k += 1;
            let w = self.elem_w[i];
            let delta = q * w - self.elem_q[i] * w;
            if delta != 0.0 {
                self.add(delta);
            }
            self.elem_q[i] = q;
            self.elem_g[i] = if pos { q } else { 0.0 };
        });
        dirty.clear();
        self.dirty = dirty;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // wrapped: stamps from 2^32 flushes ago could collide — reset
            self.dirty_stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// O(1) global quality from the compensated running sum. Within a few
    /// ulps of [`quality_exact`](Self::quality_exact); use for convergence
    /// tests, not for reported results.
    #[inline]
    pub fn quality_running(&self) -> f64 {
        if self.num_vertices == 0 {
            return 0.0;
        }
        (self.sum + self.comp) / self.num_vertices as f64
    }

    /// Global quality re-reduced from the cached per-element values in the
    /// canonical order of the domain's `mesh_quality` — bit-identical to a
    /// from-scratch recompute on the current coordinates (provided the
    /// cache is coherent with no pending dirty elements).
    pub fn quality_exact<const C: usize, D: SmoothDomain<C>>(&self, dom: &D) -> f64 {
        debug_assert!(!self.has_dirty(), "flush_dirty before reading exact quality");
        let n = self.num_vertices;
        if n == 0 {
            return 0.0;
        }
        let mut total = 0.0;
        for v in 0..n as u32 {
            let ts = dom.elements_of(v);
            total += if ts.is_empty() {
                0.0
            } else {
                ts.iter().map(|&t| self.elem_q[t as usize]).sum::<f64>() / ts.len() as f64
            };
        }
        total / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::TriDomain;
    use lms_mesh::quality::{mesh_quality, QualityMetric};
    use lms_mesh::{generators, Adjacency, Boundary, Point2};

    /// Build a cache, move the first `take` interior vertices, fold the
    /// moves in with `apply_moves`: the exact quality must equal a
    /// from-scratch `mesh_quality` before and after, bit for bit.
    fn moves_match_scratch(take: usize) {
        let mut m = generators::perturbed_grid(14, 14, 0.35, 7);
        let adj = Adjacency::build(&m);
        let b = Boundary::detect(&m);
        let metric = QualityMetric::EdgeLengthRatio;
        let tris: Vec<[u32; 3]> = m.triangles().to_vec();
        let dom = TriDomain::new(&adj, &b, &tris, metric);
        let mut cache = DomainQualityCache::build(&dom, m.coords());
        assert_eq!(cache.quality_exact(&dom).to_bits(), mesh_quality(&m, &adj, metric).to_bits());
        let movers: Vec<u32> =
            (0..m.num_vertices() as u32).filter(|&v| b.is_interior(v)).take(take).collect();
        for &v in &movers {
            let p = m.coords()[v as usize];
            m.coords_mut()[v as usize] = Point2::new(p.x + 0.011, p.y + 0.007);
        }
        cache.apply_moves(&dom, &movers, m.coords());
        assert_eq!(cache.quality_exact(&dom).to_bits(), mesh_quality(&m, &adj, metric).to_bits());
        assert!((cache.quality_running() - cache.quality_exact(&dom)).abs() < 1e-12);
    }

    #[test]
    fn dense_moves_stream_rescore() {
        moves_match_scratch(usize::MAX);
    }

    #[test]
    fn sparse_moves_rescore_incident_elements() {
        moves_match_scratch(25);
    }
}
