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
//! [`DomainQualityCache`] stores each element's current quality `q` once
//! (what the global statistic sums) beside one orientation bit, one
//! inverse star size `1/deg_t(v)` per vertex, and the running weighted
//! sum with Neumaier compensation. The constant weight `w_t` is not
//! stored: every use forms it from the inverse degrees of the element's
//! corners, summed in corner order (`element_weight`), so it has the
//! same bits wherever it is formed. The orientation-guarded value the
//! smart-smoothing commit test averages — `q` when the element is
//! positively oriented, `0` otherwise — is a select on that bit
//! ([`guarded_quality`](DomainQualityCache::guarded_quality)), not a
//! second stored copy. The smart guard reads validity from the
//! orientation bit alone, as the reference path and the resident ranks
//! do: a positively oriented sliver can score exactly 0 when its short
//! edge underflows, so "guarded value is zero" does not mean "invalid".
//! What the code relies on is weaker: no supported metric scores a
//! positively oriented element below 0, so an inverted element's
//! guarded 0 never outscores a valid one.
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
use lms_mesh::vec_bytes;

/// Cached per-element qualities with an incrementally-maintained global
/// quality, generic over the smoothing domain. Scoring runs through the
/// domain ([`ScoringDomain::score`](crate::domain::ScoringDomain::score)); the cache itself stores only `f64`
/// state and is dimension-blind.
#[derive(Debug, Clone)]
pub struct DomainQualityCache {
    /// Current quality of each element.
    elem_q: Vec<f64>,
    /// Orientation of each element as its last scoring reported it, one
    /// bit per element (bit `t % 64` of word `t / 64`).
    elem_pos: Vec<u64>,
    /// Inverse star size `1/deg_t(v)` of each vertex — what every weight
    /// `w_t` is formed from (`element_weight`).
    inv_deg: Vec<f64>,
    /// Neumaier-compensated running `Σ_t elem_q[t] · w_t`.
    sum: Neumaier,
    /// Epoch-stamped dirty set (no clearing between flushes). The stamps
    /// are allocated by the first [`mark_dirty`](Self::mark_dirty), so a
    /// run that never queues an element (smart Gauss–Seidel) never holds
    /// them.
    dirty_stamp: Vec<u32>,
    dirty: Vec<u32>,
    epoch: u32,
}

/// Neumaier-compensated accumulator: the quality cache's running sum and
/// the resident drive loop's, so the drive loop's initial fold is bit-equal
/// to a freshly built cache's.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Neumaier {
    sum: f64,
    comp: f64,
}

impl Neumaier {
    #[inline]
    pub(crate) fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.comp += (self.sum - t) + x;
        } else {
            self.comp += (x - t) + self.sum;
        }
        self.sum = t;
    }

    #[inline]
    pub(crate) fn value(&self) -> f64 {
        self.sum + self.comp
    }
}

/// One inverse star size `1/deg_t(v)` per vertex — the table every
/// element weight is formed from.
pub(crate) fn inverse_degrees<const C: usize, D: SmoothDomain<C>>(dom: &D) -> Vec<f64> {
    (0..dom.num_vertices() as u32).map(|v| 1.0 / dom.elements_of(v).len() as f64).collect()
}

/// The constant weight `w_t = Σ_{v ∈ t} 1/deg_t(v)` of element `corners`
/// in the quality functional, summed in corner order — the one
/// expression every weight is formed with, so a weight has the same bits
/// wherever it is formed.
#[inline]
pub(crate) fn element_weight<const C: usize>(inv_deg: &[f64], corners: &[u32; C]) -> f64 {
    corners.iter().map(|&v| inv_deg[v as usize]).sum()
}

impl DomainQualityCache {
    /// Build the cache for a domain (scores every element once).
    pub fn build<const C: usize, D: SmoothDomain<C>>(dom: &D, coords: &[D::Point]) -> Self {
        let nt = dom.num_elements();
        assert_eq!(dom.num_vertices(), coords.len(), "coordinate array does not match the domain");

        let mut cache = DomainQualityCache {
            elem_q: vec![0.0; nt],
            elem_pos: vec![0; nt.div_ceil(64)],
            inv_deg: inverse_degrees(dom),
            sum: Neumaier::default(),
            dirty_stamp: Vec::new(),
            dirty: Vec::new(),
            epoch: 1,
        };
        cache.rescore_all(dom, coords);
        cache
    }

    /// Store element `i`'s fresh score.
    #[inline]
    fn store(&mut self, i: usize, q: f64, pos: bool) {
        self.elem_q[i] = q;
        let word = &mut self.elem_pos[i / 64];
        *word = (*word & !(1 << (i % 64))) | (u64::from(pos) << (i % 64));
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

    /// Whether element `t` is currently positively oriented: its stored
    /// orientation bit, the smart guard's validity test. An underflowed
    /// sliver is oriented and scores 0, and counts as positive here.
    #[inline]
    pub fn elem_is_positive(&self, t: u32) -> bool {
        (self.elem_pos[t as usize / 64] >> (t % 64)) & 1 == 1
    }

    /// Orientation-guarded quality of element `t`: its quality when
    /// positively oriented, 0 otherwise — the value the smart-smoothing
    /// guard averages over a vertex star.
    #[inline]
    pub fn guarded_quality(&self, t: u32) -> f64 {
        if self.elem_is_positive(t) {
            self.elem_q[t as usize]
        } else {
            0.0
        }
    }

    /// Element `t` as the smart guard reads it:
    /// ([`guarded_quality`](Self::guarded_quality), its orientation bit).
    /// Validity is the orientation alone, the same test as the reference
    /// path's and a resident rank's, so an underflowed sliver (positive
    /// orientation, quality 0) counts as valid in every engine.
    #[inline]
    pub(crate) fn guard_view(&self, t: u32) -> (f64, bool) {
        (self.guarded_quality(t), self.elem_is_positive(t))
    }

    /// Bytes the cache owns on the heap: one quality and one orientation
    /// bit per element, one inverse degree per vertex, and the dirty set
    /// once something was queued.
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.elem_q)
            + vec_bytes(&self.elem_pos)
            + vec_bytes(&self.inv_deg)
            + vec_bytes(&self.dirty_stamp)
            + vec_bytes(&self.dirty)
    }

    /// Batch update for one vertex star: `scores[k]` is the fresh
    /// `(quality, positively_oriented)` of element `ts[k]` of `dom`.
    /// Deltas are accumulated plainly and folded into the running sum
    /// with a single compensated add.
    #[inline]
    pub fn set_star<const C: usize, D: SmoothDomain<C>>(
        &mut self,
        dom: &D,
        ts: &[u32],
        scores: &[(f64, bool)],
    ) {
        debug_assert_eq!(ts.len(), scores.len());
        let elems = dom.elements();
        let mut delta = 0.0;
        for (&t, &(q, pos)) in ts.iter().zip(scores) {
            debug_assert!(
                !(pos && q < 0.0),
                "metric invariant violated: positive orientation with negative quality"
            );
            let i = t as usize;
            let w = element_weight(&self.inv_deg, &elems[i]);
            delta += q * w - self.elem_q[i] * w;
            self.store(i, q, pos);
        }
        if delta != 0.0 {
            self.sum.add(delta);
        }
    }

    /// Re-score **every** element and rebuild the running sum from
    /// scratch (same accumulation order as [`build`](Self::build)).
    /// Scoring runs through the lane-batched kernel
    /// ([`score_corners_batched`](crate::soa::score_corners_batched) on
    /// the domain's own table); the fold over the results keeps the
    /// sequential element order, so the rebuilt sum is bit-identical to
    /// the scalar loop it replaces.
    pub fn rescore_all<const C: usize, D: SmoothDomain<C>>(
        &mut self,
        dom: &D,
        coords: &[D::Point],
    ) {
        assert_eq!(dom.num_elements(), self.elem_q.len(), "element count changed");
        self.sum = Neumaier::default();
        let elems = dom.elements();
        let mut i = 0;
        score_elements_batched(dom, coords, 0..elems.len() as u32, |(q, pos)| {
            self.store(i, q, pos);
            self.sum.add(q * element_weight(&self.inv_deg, &elems[i]));
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
        if moved.len() * 4 >= self.inv_deg.len() {
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
        if self.dirty_stamp.is_empty() {
            self.dirty_stamp = vec![0; self.elem_q.len()];
        }
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
    /// (through the lane-batched kernel; the delta fold keeps the
    /// ascending order, so the running sum stays bit-identical to the
    /// scalar flush), folding the deltas into the running sum.
    pub fn flush_dirty<const C: usize, D: SmoothDomain<C>>(
        &mut self,
        dom: &D,
        coords: &[D::Point],
    ) {
        self.dirty.sort_unstable();
        let mut dirty = std::mem::take(&mut self.dirty);
        let elems = dom.elements();
        let mut k = 0;
        score_elements_batched(dom, coords, dirty.iter().copied(), |(q, pos)| {
            debug_assert!(
                !(pos && q < 0.0),
                "metric invariant violated: positive orientation with negative quality"
            );
            let i = dirty[k] as usize;
            k += 1;
            let w = element_weight(&self.inv_deg, &elems[i]);
            let delta = q * w - self.elem_q[i] * w;
            if delta != 0.0 {
                self.sum.add(delta);
            }
            self.store(i, q, pos);
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
        if self.inv_deg.is_empty() {
            return 0.0;
        }
        self.sum.value() / self.inv_deg.len() as f64
    }

    /// Global quality re-reduced from the cached per-element values in the
    /// canonical order of the domain's `mesh_quality` — bit-identical to a
    /// from-scratch recompute on the current coordinates (provided the
    /// cache is coherent with no pending dirty elements).
    pub fn quality_exact<const C: usize, D: SmoothDomain<C>>(&self, dom: &D) -> f64 {
        debug_assert!(!self.has_dirty(), "flush_dirty before reading exact quality");
        let n = self.inv_deg.len();
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
    use lms_mesh::{generators, Adjacency, Boundary, Point2, TriMesh};

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

    /// The layout the cache had before the orientation bit: the quality,
    /// the orientation-guarded quality and the weight each stored as one
    /// `f64` per element, the weight summed from per-corner divisions —
    /// plus the orientation each element was fed, one `bool` apiece.
    struct ThreeArrays {
        q: Vec<f64>,
        g: Vec<f64>,
        w: Vec<f64>,
        pos: Vec<bool>,
    }

    impl ThreeArrays {
        fn new<D: SmoothDomain<3>>(dom: &D) -> Self {
            let nt = dom.num_elements();
            let w = dom
                .elements()
                .iter()
                .map(|e| e.iter().map(|&v| 1.0 / dom.elements_of(v).len() as f64).sum())
                .collect();
            ThreeArrays { q: vec![0.0; nt], g: vec![0.0; nt], w, pos: vec![false; nt] }
        }

        fn store(&mut self, i: usize, (q, pos): (f64, bool)) {
            self.q[i] = q;
            self.g[i] = if pos { q } else { 0.0 };
            self.pos[i] = pos;
        }

        /// Every accessor agrees with the cache bit for bit, NaN payloads
        /// included, and so does the weight the cache forms for each of
        /// `elems`.
        fn assert_same(&self, cache: &DomainQualityCache, elems: &[[u32; 3]]) {
            for t in 0..self.q.len() {
                let (i, u) = (t, t as u32);
                assert_eq!(cache.elem_quality(u).to_bits(), self.q[i].to_bits(), "q of {t}");
                assert_eq!(cache.guarded_quality(u).to_bits(), self.g[i].to_bits(), "g of {t}");
                assert_eq!(cache.elem_is_positive(u), self.pos[i], "orientation of {t}");
                let w = element_weight(&cache.inv_deg, &elems[i]);
                assert_eq!(w.to_bits(), self.w[i].to_bits(), "w of {t}");
            }
        }
    }

    /// The lane kernels' special-value corpus as a triangle soup: every
    /// pair of NaN, ±inf, ±0, subnormals, `±1e200` and plain numbers is a
    /// vertex; triangles are random triples, the same triples reversed
    /// (inverted) and triples from one row of the pair grid (degenerate
    /// when finite).
    /// Built from there, re-scored in full and fed stars of special scores
    /// with chosen NaN payloads, the cache reads back exactly what the
    /// three-array layout held.
    #[test]
    fn accessors_equal_the_three_array_layout_on_special_values() {
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            f64::from_bits(1),
            -f64::MIN_POSITIVE / 2.0,
            1e200,
            -1e200,
            1e-200,
            1.0,
            -2.5,
            0.3,
        ];
        let k = specials.len();
        let coords: Vec<Point2> =
            (0..k * k).map(|i| Point2::new(specials[i / k], specials[i % k])).collect();
        let mut rng = proptest::test_runner::TestRng::for_test("dcache_special_values");
        let mut tris: Vec<[u32; 3]> = Vec::new();
        while tris.len() < 3000 {
            let [a, b, c] = std::array::from_fn(|_| rng.index(k * k) as u32);
            let row = rng.index(k) * k;
            let [d, e, f] = std::array::from_fn(|j| (row + (rng.index(k) + j) % k) as u32);
            for tri in [[a, b, c], [a, c, b], [d, e, f]] {
                if tri[0] != tri[1] && tri[1] != tri[2] && tri[0] != tri[2] {
                    tris.push(tri);
                }
            }
        }
        let m = TriMesh::new(coords, tris).unwrap();
        let adj = Adjacency::build(&m);
        let b = Boundary::from_adjacency(&adj);
        let dom = TriDomain::new(&adj, &b, m.triangles(), QualityMetric::EdgeLengthRatio);

        let mut scored = Vec::new();
        score_elements_batched(&dom, m.coords(), 0..m.num_triangles() as u32, |s| scored.push(s));
        let mut oracle = ThreeArrays::new(&dom);
        for (i, &s) in scored.iter().enumerate() {
            oracle.store(i, s);
        }
        let mut cache = DomainQualityCache::build(&dom, m.coords());
        oracle.assert_same(&cache, m.triangles());
        // the corpus reaches every case the bit has to get right
        assert!(scored.iter().any(|&(q, pos)| pos && q.is_nan()), "no positive NaN score");
        assert!(scored.iter().any(|&(q, pos)| !pos && q.is_nan()), "no inverted NaN score");
        assert!(scored.iter().any(|&(q, pos)| pos && q > 0.0), "no valid element");
        assert!(scored.iter().any(|&(q, pos)| !pos && q > 0.0), "no inverted element");
        assert!(scored.iter().any(|&(q, _)| q == 0.0), "no zero-quality element");

        cache.rescore_all(&dom, m.coords());
        oracle.assert_same(&cache, m.triangles());

        let scores = [
            f64::from_bits(0x7ff8_dead_beef_0001),
            f64::from_bits(0xfff0_0000_0000_0002),
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            f64::from_bits(1),
            -1.0,
            0.75,
        ];
        for _ in 0..2000 {
            let len = 1 + rng.index(8);
            let ts: Vec<u32> = (0..len).map(|_| rng.index(scored.len()) as u32).collect();
            let star: Vec<(f64, bool)> = (0..len)
                .map(|_| {
                    let q = scores[rng.index(scores.len())];
                    // `set_star` asserts in debug builds that no oriented
                    // element scores below 0; 0 and NaN may be oriented
                    (q, (q >= 0.0 || q.is_nan()) && rng.index(2) == 0)
                })
                .collect();
            cache.set_star(&dom, &ts, &star);
            for (&e, &s) in ts.iter().zip(&star) {
                oracle.store(e as usize, s);
            }
        }
        oracle.assert_same(&cache, m.triangles());
    }
}
