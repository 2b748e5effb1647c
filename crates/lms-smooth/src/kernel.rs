//! The incremental-quality sweep kernel — the serial hot path, generic
//! over the smoothing domain.
//!
//! The reference sweep (behind
//! [`SmoothEngineOn::smooth_full_recompute`]) spends most of its time on
//! *bookkeeping* rather than smoothing:
//!
//! * every iteration ends with a full-mesh quality recompute (O(T) element
//!   scorings plus the per-vertex means) just to evaluate the convergence
//!   test;
//! * every smart-commit test scores the vertex star twice — once for the
//!   "before" quality and once for the candidate — through a per-corner
//!   closure, so a sweep over a mesh with mean degree ~6 performs ~12
//!   element scorings per vertex.
//!
//! This module rewrites both around a [`DomainQualityCache`]:
//!
//! * the **"before"** star quality is a cache lookup (the incident
//!   elements' current qualities are already known);
//! * the **candidate** star is scored once and the scores are *reused* to
//!   update the cache at commit time. The default path stages the
//!   candidate in the point slice the sweep works on — the mesh's own
//!   coordinates for Gauss–Seidel, the sweep's `prev` copy for Jacobi;
//!   there is no second coordinate layout — scores the whole star in
//!   place through one lane-batched [`ScoringDomain::score_star`](crate::domain::ScoringDomain::score_star) call on
//!   the element ids, and puts the old position back on reject. The
//!   `scalar_scoring` baseline gathers a ring buffer through the CSR
//!   neighbour slice into (usually) stack scratch instead and scores one
//!   element at a time through the precomputed star layout;
//! * per-iteration statistics read the cache's compensated running sum —
//!   O(1) — with elements touched by unevaluated moves (plain sweeps,
//!   Jacobi) re-scored exactly once per sweep via the dirty set;
//! * the reported `final_quality` is re-reduced in canonical order
//!   ([`DomainQualityCache::quality_exact`]), bit-identical to a
//!   from-scratch `mesh_quality` on the output mesh.
//!
//! The sweeps are **dimension-generic** ([`SmoothDomain`]): one body runs
//! every serial [`SmoothEngineOn::smooth`], triangles and tetrahedra
//! alike. The arithmetic of every committed move is identical to the
//! reference path expression by expression, so coordinates stay
//! **bit-identical** over any fixed number of sweeps — property-tested in
//! both dimensions (`tests/incremental.rs` here, `tests/props.rs` in
//! `lms-mesh3d`). One caveat: the per-iteration convergence test reads
//! the compensated running sum, which tracks the exact quality to a few
//! ulps; an improvement landing exactly on `tol` could therefore stop the
//! incremental and reference paths one sweep apart. Disable the tolerance
//! (`tol < 0`) when exact sweep-count parity matters.
//!
//! [`SmoothEngineOn::smooth`]: crate::SmoothEngineOn::smooth
//! [`SmoothEngineOn::smooth_full_recompute`]: crate::SmoothEngineOn::smooth_full_recompute

use crate::config::{UpdateScheme, Weighting};
use crate::dcache::DomainQualityCache;
use crate::domain::{weighted_candidate_on, DomainConfig, DomainPoint, SmoothDomain, SELF_CORNER};
use crate::soa::resize_tracked;
use crate::stats::{IterationStats, SmoothReport};

/// Scratch for one vertex's candidate evaluation, aligned with the
/// vertex's incident-element slice: candidate quality + orientation.
type ElemScore = (f64, bool);

/// Stars/rings up to this size use stack scratch; larger ones fall back
/// to heap scratch (mean degree of a triangulation is ~6).
const STACK_STAR: usize = 16;

/// Reusable per-sweep scratch for the smart sweeps. Every per-vertex
/// temporary of the hot loop lives here, so a warm sweep performs
/// **zero** allocations — pinned by the scratch audits
/// (`tests/scratch_audit.rs` here, `tests/scratch_audit3.rs` in
/// `lms-mesh3d`) via [`crate::soa::scratch_grow_count`].
struct SmartScratch<const C: usize, D: SmoothDomain<C>> {
    ring_stack: [D::Point; STACK_STAR],
    ring_spill: Vec<D::Point>,
    score_stack: [ElemScore; STACK_STAR],
    /// Score slots of stars above [`STACK_STAR`] (every interior tet
    /// star): grow-only, never refilled — the scoring pass writes each
    /// slot before the fold reads it.
    score_spill: Vec<ElemScore>,
}

impl<const C: usize, D: SmoothDomain<C>> SmartScratch<C, D> {
    fn new() -> Self {
        SmartScratch {
            ring_stack: [D::Point::ZERO; STACK_STAR],
            ring_spill: Vec::new(),
            score_stack: [(0.0, false); STACK_STAR],
            score_spill: Vec::new(),
        }
    }
}

/// The `k` score slots of one star: stack scratch up to [`STACK_STAR`],
/// the grow-only spill above it (audited growth, no per-visit fill).
#[inline(always)]
fn star_slots<'s>(
    stack: &'s mut [ElemScore; STACK_STAR],
    spill: &'s mut Vec<ElemScore>,
    k: usize,
) -> &'s mut [ElemScore] {
    if k <= STACK_STAR {
        &mut stack[..k]
    } else {
        if spill.len() < k {
            resize_tracked(spill, k);
        }
        &mut spill[..k]
    }
}

/// [`candidate_for`] reading an already-gathered ring buffer
/// (`ring[k] == coords[ns[k]]`), so the arithmetic — accumulation order
/// included — is identical.
#[inline]
fn candidate_from_ring<P: DomainPoint>(weighting: Weighting, pv: P, ring: &[P]) -> Option<P> {
    match weighting {
        Weighting::Uniform => {
            let mut sum = P::ZERO;
            for &p in ring {
                sum = sum.padd(p);
            }
            (!ring.is_empty()).then(|| sum.pdiv(ring.len() as f64))
        }
        _ => weighted_candidate_on(weighting, pv, ring.iter().copied()),
    }
}

/// Score vertex `v`'s candidate star. Corners come from the gathered
/// `ring` + `candidate` via the star layout when available (L1-resident,
/// no scattered loads), falling back to direct coordinate indexing.
/// Scores land in `out[..ts_len]`; returns the fused star evaluation.
///
/// Both paths evaluate the domain's scoring on corner values bit-equal to
/// the source coordinates, so the outcome is identical to the reference
/// engine's closure-based evaluation.
#[inline]
#[allow(clippy::too_many_arguments)]
fn score_candidate_star<const C: usize, D: SmoothDomain<C>, R: Fn(u8) -> D::Point>(
    dom: &D,
    cache: &DomainQualityCache,
    star: Option<&[[u8; C]]>,
    star_base: usize,
    ts: &[u32],
    source: &[D::Point],
    ring_at: R,
    v: u32,
    candidate: D::Point,
    out: &mut [ElemScore],
) -> StarEval {
    let mut after_sum = 0.0;
    let mut before_sum = 0.0;
    let mut all_pos = true;
    match star {
        Some(layout) => {
            let lay = &layout[star_base..star_base + ts.len()];
            for ((&t, codes), slot) in ts.iter().zip(lay).zip(out.iter_mut()) {
                before_sum += cache.guarded_quality(t);
                let pts: [D::Point; C] =
                    codes.map(|c| if c == SELF_CORNER { candidate } else { ring_at(c) });
                let (q, pos) = dom.score_points(pts);
                *slot = (q, pos);
                if pos {
                    after_sum += q;
                } else {
                    all_pos = false;
                }
            }
        }
        None => {
            for (&t, slot) in ts.iter().zip(out.iter_mut()) {
                before_sum += cache.guarded_quality(t);
                let (q, pos) = dom.score_with(source, dom.elements()[t as usize], v, candidate);
                *slot = (q, pos);
                if pos {
                    after_sum += q;
                } else {
                    all_pos = false;
                }
            }
        }
    }
    StarEval { after_sum, before_sum, after_all_pos: all_pos }
}

/// Result of one fused star evaluation.
struct StarEval {
    after_sum: f64,
    before_sum: f64,
    after_all_pos: bool,
}

/// Fold the batched scores of vertex star `ts` (in `out[..ts.len()]`)
/// together with the cached "before" qualities into a [`StarEval`] —
/// the same per-element accumulation order as the closure-based scalar
/// path, so the commit decision is bit-identical.
#[inline(always)]
fn fold_star_scores(cache: &DomainQualityCache, ts: &[u32], out: &[ElemScore]) -> StarEval {
    let mut after_sum = 0.0;
    let mut before_sum = 0.0;
    let mut all_pos = true;
    for (&t, &(q, pos)) in ts.iter().zip(out.iter()) {
        before_sum += cache.guarded_quality(t);
        if pos {
            after_sum += q;
        } else {
            all_pos = false;
        }
    }
    StarEval { after_sum, before_sum, after_all_pos: all_pos }
}

/// The Laplacian candidate gathered through a CSR neighbour slice.
///
/// The uniform (paper) weighting is specialised — one fused
/// gather-and-accumulate loop, no per-vertex dispatch — with arithmetic
/// identical to [`weighted_candidate_on`]'s uniform arm (same accumulation
/// order, same `sum / n` expression), so results stay bit-equal across
/// every engine and dimension.
#[inline]
pub(crate) fn candidate_for<P: DomainPoint>(
    weighting: Weighting,
    pv: P,
    ns: &[u32],
    coords: &[P],
) -> Option<P> {
    match weighting {
        Weighting::Uniform => {
            let mut sum = P::ZERO;
            for &w in ns {
                sum = sum.padd(coords[w as usize]);
            }
            (!ns.is_empty()).then(|| sum.pdiv(ns.len() as f64))
        }
        _ => weighted_candidate_on(weighting, pv, ns.iter().map(|&w| coords[w as usize])),
    }
}

/// The serial incremental sweeps bound to one domain view: the generic
/// body behind [`crate::SmoothEngineOn::smooth`]. Construction is free —
/// all state is borrowed.
pub struct SerialKernel<'a, const C: usize, D: SmoothDomain<C>> {
    /// The smoothing domain.
    pub dom: &'a D,
    /// The dimension-free parameter slice.
    pub cfg: DomainConfig,
    /// Interior vertices in sweep order.
    pub visit: &'a [u32],
    /// Optional precomputed star layout (see [`crate::domain`]) — read by
    /// the scalar-scoring sweeps only.
    pub star: Option<&'a [[u8; C]]>,
    /// Force the per-element scalar scoring path. The default (`false`)
    /// routes smart star evaluation through the lane-batched
    /// [`ScoringDomain::score_star`](crate::domain::ScoringDomain::score_star); both paths are bit-identical, so
    /// this toggle exists purely as the before/after baseline of the
    /// `kernel_soa` benches and the property suites.
    pub scalar_scoring: bool,
}

impl<const C: usize, D: SmoothDomain<C>> SerialKernel<'_, C, D> {
    /// Run the incremental-quality sweeps on `coords` until convergence
    /// or the sweep cap.
    pub fn run(&self, coords: &mut [D::Point]) -> SmoothReport {
        self.run_keeping_cache(coords).0
    }

    /// [`run`](Self::run), handing back the quality cache the run ended
    /// with (its ledger is what the tests read).
    pub(crate) fn run_keeping_cache(
        &self,
        coords: &mut [D::Point],
    ) -> (SmoothReport, DomainQualityCache) {
        assert_eq!(coords.len(), self.dom.num_vertices(), "engine was built for a different mesh");
        let cfg = &self.cfg;
        let mut cache = DomainQualityCache::build(self.dom, coords);
        let initial_quality = cache.quality_exact(self.dom);
        let mut report = SmoothReport::starting(initial_quality);
        let mut quality = initial_quality;
        let mut prev: Vec<D::Point> = Vec::new();
        let mut scratch = SmartScratch::new();
        let mut moved: Vec<u32> = Vec::new();

        for iter in 1..=cfg.max_iters {
            moved.clear();
            match (cfg.update, cfg.smart) {
                (UpdateScheme::GaussSeidel, false) => self.sweep_gs_plain(coords, &mut moved),
                (UpdateScheme::GaussSeidel, true) => {
                    self.sweep_gs_smart(coords, &mut cache, &mut scratch)
                }
                (UpdateScheme::Jacobi, false) => {
                    prev.clear();
                    prev.extend_from_slice(coords);
                    self.sweep_jacobi_plain(&prev, coords, &mut moved);
                }
                (UpdateScheme::Jacobi, true) => {
                    prev.clear();
                    prev.extend_from_slice(coords);
                    self.sweep_jacobi_smart(&mut prev, coords, &cache, &mut moved, &mut scratch);
                }
            }
            if !moved.is_empty() {
                cache.apply_moves(self.dom, &moved, coords);
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

        // Report the exact value (canonical reduction order), so
        // `final_quality` matches a from-scratch recompute bit for bit.
        let exact = if report.iterations.is_empty() {
            initial_quality
        } else {
            cache.quality_exact(self.dom)
        };
        if let Some(last) = report.iterations.last_mut() {
            last.quality = exact;
        }
        report.final_quality = exact;
        (report, cache)
    }

    /// Plain in-place sweep: every candidate commits; movers are recorded
    /// for the post-sweep cache update (no quality evaluation inside the
    /// sweep at all).
    fn sweep_gs_plain(&self, coords: &mut [D::Point], moved: &mut Vec<u32>) {
        for &v in self.visit {
            let ns = self.dom.neighbors(v);
            if ns.is_empty() {
                continue;
            }
            let pv = coords[v as usize];
            let Some(candidate) = candidate_for(self.cfg.weighting, pv, ns, coords) else {
                continue;
            };
            coords[v as usize] = candidate;
            moved.push(v);
        }
    }

    /// Smart in-place sweep: "before" from the cache, candidate scored
    /// once from the gathered ring, scores reused as the cache update on
    /// commit.
    fn sweep_gs_smart(
        &self,
        coords: &mut [D::Point],
        cache: &mut DomainQualityCache,
        scratch: &mut SmartScratch<C, D>,
    ) {
        // Function multiversioning (see `resident::sweep_range_smart`):
        // one AVX-enabled copy of the sweep body so the lane-batched
        // scoring chain inlines with no per-vertex call / `vzeroupper`
        // cost; the scalar-scoring baseline keeps the plain copy — it
        // stands in for the per-element kernel in before/after benches.
        #[cfg(target_arch = "x86_64")]
        if !self.scalar_scoring && std::arch::is_x86_feature_detected!("avx") {
            // SAFETY: AVX support verified above (cached runtime check).
            unsafe { self.sweep_gs_smart_avx(coords, cache, scratch) };
            return;
        }
        self.sweep_gs_smart_body(coords, cache, scratch);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    unsafe fn sweep_gs_smart_avx(
        &self,
        coords: &mut [D::Point],
        cache: &mut DomainQualityCache,
        scratch: &mut SmartScratch<C, D>,
    ) {
        self.sweep_gs_smart_body(coords, cache, scratch);
    }

    /// The batched loop: the candidate *staged* into `coords` itself
    /// (slot `v`), the whole star scored in place through one
    /// [`ScoringDomain::score_star`](crate::domain::ScoringDomain::score_star) on the element ids the fold walks
    /// anyway, and `pv` put back if the guard rejects. Every corner read
    /// carries the exact source bits and the fold keeps the per-element
    /// order, so the outcome is bit-identical to the scalar loop —
    /// property-tested in `tests/soa.rs`.
    #[inline(always)]
    fn sweep_gs_smart_batched(
        &self,
        coords: &mut [D::Point],
        cache: &mut DomainQualityCache,
        scratch: &mut SmartScratch<C, D>,
    ) {
        let weighting = self.cfg.weighting;
        let SmartScratch { score_stack, score_spill, .. } = scratch;
        let elems = self.dom.elements();
        for &v in self.visit {
            let ns = self.dom.neighbors(v);
            if ns.is_empty() {
                continue;
            }
            let pv = coords[v as usize];
            let Some(candidate) = candidate_for(weighting, pv, ns, coords) else {
                continue;
            };

            // staged; a star-less vertex keeps it (both local qualities
            // are 0 and the validity rule is vacuous — the reference path
            // commits)
            coords[v as usize] = candidate;
            let ts = self.dom.elements_of(v);
            if ts.is_empty() {
                continue;
            }

            let out = star_slots(score_stack, score_spill, ts.len());
            self.dom.score_star(coords, elems, ts, out);
            let StarEval { after_sum, before_sum, after_all_pos } =
                fold_star_scores(cache, ts, out);

            let len = ts.len() as f64;
            let quality_ok = after_sum >= before_sum || after_sum / len >= before_sum / len;
            let commit =
                quality_ok && (after_all_pos || ts.iter().any(|&t| !cache.elem_is_positive(t)));
            if commit {
                cache.set_star(self.dom, ts, out);
            } else {
                coords[v as usize] = pv;
            }
        }
    }

    #[inline(always)]
    fn sweep_gs_smart_body(
        &self,
        coords: &mut [D::Point],
        cache: &mut DomainQualityCache,
        scratch: &mut SmartScratch<C, D>,
    ) {
        if !self.scalar_scoring {
            self.sweep_gs_smart_batched(coords, cache, scratch);
            return;
        }
        let weighting = self.cfg.weighting;
        let star = self.star;
        let SmartScratch { ring_stack, ring_spill, score_stack, score_spill, .. } = scratch;
        for &v in self.visit {
            let ns = self.dom.neighbors(v);
            if ns.is_empty() {
                continue;
            }
            let pv = coords[v as usize];

            // gather the ring once; candidate and scoring both read it
            let on_stack = ns.len() <= STACK_STAR;
            let ring: &[D::Point] = if on_stack {
                for (slot, &w) in ring_stack.iter_mut().zip(ns) {
                    *slot = coords[w as usize];
                }
                &ring_stack[..ns.len()]
            } else {
                ring_spill.clear();
                ring_spill.extend(ns.iter().map(|&w| coords[w as usize]));
                ring_spill
            };
            let Some(candidate) = candidate_from_ring(weighting, pv, ring) else {
                continue;
            };

            let ts = self.dom.elements_of(v);
            if ts.is_empty() {
                // star-less vertex: both local qualities are 0 and the
                // validity rule is vacuous — the reference path commits
                coords[v as usize] = candidate;
                continue;
            }

            let out = star_slots(score_stack, score_spill, ts.len());
            // one fused star pass: branchless guarded "before" from cache
            // lookups, candidate scored alongside. The stack-ring accessor
            // masks the index (codes are < STACK_STAR by construction), so
            // the fixed-size array read needs no bounds check.
            let base = self.dom.elements_offset(v);
            let StarEval { after_sum, before_sum, after_all_pos } = if on_stack {
                let arr: &[D::Point; STACK_STAR] = ring_stack;
                score_candidate_star(
                    self.dom,
                    cache,
                    star,
                    base,
                    ts,
                    coords,
                    |c| arr[(c as usize) & (STACK_STAR - 1)],
                    v,
                    candidate,
                    out,
                )
            } else {
                let rs: &[D::Point] = ring_spill;
                score_candidate_star(
                    self.dom,
                    cache,
                    star,
                    base,
                    ts,
                    coords,
                    |c| rs[c as usize],
                    v,
                    candidate,
                    out,
                )
            };

            // Same decision as the reference path's mean-vs-mean test:
            // IEEE division by a positive constant is monotone, so a sum
            // win implies a mean win and the divisions only run on the
            // boundary where rounding could collapse a strict sum loss
            // into mean equality. The "before was already invalid" escape
            // hatch is only consulted when the candidate star is invalid.
            let len = ts.len() as f64;
            let quality_ok = after_sum >= before_sum || after_sum / len >= before_sum / len;
            let commit =
                quality_ok && (after_all_pos || ts.iter().any(|&t| !cache.elem_is_positive(t)));
            if commit {
                coords[v as usize] = candidate;
                cache.set_star(self.dom, ts, out);
            }
        }
    }

    /// Plain double-buffered sweep: reads `prev`, writes `next`, records
    /// movers (an element can gain several moved corners, so scoring waits
    /// for the post-sweep cache update).
    fn sweep_jacobi_plain(&self, prev: &[D::Point], next: &mut [D::Point], moved: &mut Vec<u32>) {
        for &v in self.visit {
            let ns = self.dom.neighbors(v);
            if ns.is_empty() {
                continue;
            }
            let pv = prev[v as usize];
            let Some(candidate) = candidate_for(self.cfg.weighting, pv, ns, prev) else {
                continue;
            };
            next[v as usize] = candidate;
            moved.push(v);
        }
    }

    /// Smart double-buffered sweep: the cache still reflects `prev` (it is
    /// only updated between sweeps), so "before" lookups are the previous
    /// sweep's values — exactly the reference path's semantics.
    fn sweep_jacobi_smart(
        &self,
        prev: &mut [D::Point],
        next: &mut [D::Point],
        cache: &DomainQualityCache,
        moved: &mut Vec<u32>,
        scratch: &mut SmartScratch<C, D>,
    ) {
        // multiversioned like `sweep_gs_smart` — same reasoning
        #[cfg(target_arch = "x86_64")]
        if !self.scalar_scoring && std::arch::is_x86_feature_detected!("avx") {
            // SAFETY: AVX support verified above (cached runtime check).
            unsafe { self.sweep_jacobi_smart_avx(prev, next, cache, moved, scratch) };
            return;
        }
        self.sweep_jacobi_smart_body(prev, next, cache, moved, scratch);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    unsafe fn sweep_jacobi_smart_avx(
        &self,
        prev: &mut [D::Point],
        next: &mut [D::Point],
        cache: &DomainQualityCache,
        moved: &mut Vec<u32>,
        scratch: &mut SmartScratch<C, D>,
    ) {
        self.sweep_jacobi_smart_body(prev, next, cache, moved, scratch);
    }

    /// The batched double-buffered loop: like
    /// [`sweep_gs_smart_batched`](Self::sweep_gs_smart_batched), except
    /// the candidate is staged in the sweep's `prev` copy and *always*
    /// reverted after scoring (later vertices must read the previous
    /// sweep's positions); commits land in `next` only.
    #[inline(always)]
    fn sweep_jacobi_smart_batched(
        &self,
        prev: &mut [D::Point],
        next: &mut [D::Point],
        cache: &DomainQualityCache,
        moved: &mut Vec<u32>,
        scratch: &mut SmartScratch<C, D>,
    ) {
        let weighting = self.cfg.weighting;
        let SmartScratch { score_stack, score_spill, .. } = scratch;
        let elems = self.dom.elements();
        for &v in self.visit {
            let ns = self.dom.neighbors(v);
            if ns.is_empty() {
                continue;
            }
            let pv = prev[v as usize];
            let Some(candidate) = candidate_for(weighting, pv, ns, prev) else {
                continue;
            };

            let ts = self.dom.elements_of(v);
            if ts.is_empty() {
                next[v as usize] = candidate;
                continue;
            }

            // scores are provisional (an element can gain several moved
            // corners this sweep — the post-sweep update re-scores), so
            // the scratch output is discarded after the commit test
            let out = star_slots(score_stack, score_spill, ts.len());
            prev[v as usize] = candidate;
            self.dom.score_star(prev, elems, ts, out);
            prev[v as usize] = pv;
            let StarEval { after_sum, before_sum, after_all_pos } =
                fold_star_scores(cache, ts, out);

            let len = ts.len() as f64;
            let quality_ok = after_sum >= before_sum || after_sum / len >= before_sum / len;
            let commit =
                quality_ok && (after_all_pos || ts.iter().any(|&t| !cache.elem_is_positive(t)));
            if commit {
                next[v as usize] = candidate;
                moved.push(v);
            }
        }
    }

    #[inline(always)]
    fn sweep_jacobi_smart_body(
        &self,
        prev: &mut [D::Point],
        next: &mut [D::Point],
        cache: &DomainQualityCache,
        moved: &mut Vec<u32>,
        scratch: &mut SmartScratch<C, D>,
    ) {
        if !self.scalar_scoring {
            self.sweep_jacobi_smart_batched(prev, next, cache, moved, scratch);
            return;
        }
        let prev: &[D::Point] = prev;
        let weighting = self.cfg.weighting;
        let star = self.star;
        let SmartScratch { ring_stack, ring_spill, score_stack, score_spill, .. } = scratch;
        for &v in self.visit {
            let ns = self.dom.neighbors(v);
            if ns.is_empty() {
                continue;
            }
            let pv = prev[v as usize];
            let on_stack = ns.len() <= STACK_STAR;
            let ring: &[D::Point] = if on_stack {
                for (slot, &w) in ring_stack.iter_mut().zip(ns) {
                    *slot = prev[w as usize];
                }
                &ring_stack[..ns.len()]
            } else {
                ring_spill.clear();
                ring_spill.extend(ns.iter().map(|&w| prev[w as usize]));
                ring_spill
            };
            let Some(candidate) = candidate_from_ring(weighting, pv, ring) else {
                continue;
            };

            let ts = self.dom.elements_of(v);
            if ts.is_empty() {
                next[v as usize] = candidate;
                continue;
            }

            // scores are provisional (an element can gain several moved
            // corners this sweep — the post-sweep update re-scores), so
            // the scratch output is discarded after the commit test
            let out = star_slots(score_stack, score_spill, ts.len());
            let base = self.dom.elements_offset(v);
            let StarEval { after_sum, before_sum, after_all_pos } = if on_stack {
                let arr: &[D::Point; STACK_STAR] = ring_stack;
                score_candidate_star(
                    self.dom,
                    cache,
                    star,
                    base,
                    ts,
                    prev,
                    |c| arr[(c as usize) & (STACK_STAR - 1)],
                    v,
                    candidate,
                    out,
                )
            } else {
                let rs: &[D::Point] = ring_spill;
                score_candidate_star(
                    self.dom,
                    cache,
                    star,
                    base,
                    ts,
                    prev,
                    |c| rs[c as usize],
                    v,
                    candidate,
                    out,
                )
            };

            let len = ts.len() as f64;
            let quality_ok = after_sum >= before_sum || after_sum / len >= before_sum / len;
            let commit =
                quality_ok && (after_all_pos || ts.iter().any(|&t| !cache.elem_is_positive(t)));
            if commit {
                next[v as usize] = candidate;
                moved.push(v);
            }
        }
    }
}
