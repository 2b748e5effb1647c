//! The incremental-quality sweep kernel — the serial hot path, generic
//! over the smoothing domain — and the one sweep step every serial and
//! resident sweep runs.
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
//!   update the cache at commit time. The candidate is staged in the point
//!   slice the sweep works on — the mesh's own coordinates for
//!   Gauss–Seidel, the sweep's `prev` copy for Jacobi; there is no second
//!   coordinate layout — the whole star is scored in place on the element
//!   ids, and the old position is put back on reject (for Jacobi, always).
//!   Scoring is one lane-batched [`ScoringDomain::score_star`] call, or,
//!   under `scalar_scoring`, one [`ScoringDomain::score`] per element
//!   ([`score_star_per_id`]);
//! * per-iteration statistics read the cache's compensated running sum —
//!   O(1) — with elements touched by unevaluated moves (plain sweeps,
//!   Jacobi) re-scored exactly once per sweep via the dirty set;
//! * the reported `final_quality` is re-reduced in canonical order
//!   ([`DomainQualityCache::quality_exact`]), bit-identical to a
//!   from-scratch `mesh_quality` on the output mesh.
//!
//! The step itself — candidate, stage, score, guard, commit or restore —
//! is written once (`sweep`), generic over a `StarLedger`: the rows
//! of a sweep entry, the "before" view of an element, and what a commit
//! updates. The serial Gauss–Seidel and Jacobi sweeps here and every
//! resident rank ([`crate::resident::ResidentRank`]) instantiate it.
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
use crate::domain::{
    score_star_per_id, weighted_candidate_on, DomainConfig, DomainPoint, ScoringDomain,
    SmoothDomain,
};
use crate::soa::{resize_tracked, score_corners_batched};
use crate::stats::{IterationStats, SmoothReport};
use std::ops::Range;

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

/// What one sweep reads and writes besides its point slice — the places
/// the serial sweeps and a resident rank differ.
pub(crate) trait StarLedger<'r, P> {
    /// Whether a smart commit keeps the staged candidate in the point
    /// slice (Gauss–Seidel). A double-buffered (Jacobi) sweep puts every
    /// staged candidate back — later vertices read the previous sweep's
    /// positions — and writes its moves elsewhere.
    const IN_PLACE: bool;

    /// Vertex (an index into the point slice), neighbour row and
    /// incident-element row of sweep entry `i`.
    fn row(&self, i: usize) -> (u32, &'r [u32], &'r [u32]);

    /// Element `t` before the move, as the smart guard reads it: its
    /// orientation-guarded quality, and whether it is valid.
    fn before(&self, t: u32) -> (f64, bool);

    /// The guard accepted moving `v` to `candidate`; `scores` are the
    /// fresh scores of its star `ts`.
    fn commit(&mut self, v: u32, candidate: P, ts: &[u32], scores: &[(f64, bool)]);

    /// A plain sweep moved `v` to `candidate`; its star `ts` is unscored.
    fn moved(&mut self, v: u32, candidate: P, ts: &[u32]);
}

/// The smart guard of Algorithm 1 on the vertex star `ts`: accept when
/// the candidate's summed guarded quality (`after`, the candidate star's
/// scores in star order) does not fall below the current one (`before`),
/// and the candidate inverts no element — unless the current star already
/// holds an invalid one.
///
/// The same decision as the reference path's mean-vs-mean test: IEEE
/// division by a positive constant is monotone, so a sum win implies a
/// mean win and the divisions only run on the boundary where rounding
/// could collapse a strict sum loss into mean equality. The "before was
/// already invalid" escape hatch is only consulted when the candidate
/// star is invalid.
#[inline(always)]
pub(crate) fn star_accepts(
    ts: &[u32],
    after: impl IntoIterator<Item = (f64, bool)>,
    before: impl Fn(u32) -> (f64, bool),
) -> bool {
    let mut after_sum = 0.0;
    let mut before_sum = 0.0;
    let mut after_all_pos = true;
    for (&t, (q, pos)) in ts.iter().zip(after) {
        before_sum += before(t).0;
        if pos {
            after_sum += q;
        } else {
            after_all_pos = false;
        }
    }
    let len = ts.len() as f64;
    let quality_ok = after_sum >= before_sum || after_sum / len >= before_sum / len;
    quality_ok && (after_all_pos || ts.iter().any(|&t| !before(t).1))
}

/// Score the elements `ids` (rows of `corners`) on `pts` into the first
/// `ids.len()` slots of the grow-only `scratch` — the lane-batched
/// [`ScoringDomain::score_star`], or [`score_star_per_id`] when `scalar`;
/// the bits are the same either way.
#[inline(always)]
pub(crate) fn score_ids_into<'s, const C: usize, D: ScoringDomain<C>>(
    dom: &D,
    pts: &[D::Point],
    corners: &[[u32; C]],
    ids: &[u32],
    scalar: bool,
    scratch: &'s mut Vec<(f64, bool)>,
) -> &'s [(f64, bool)] {
    if scratch.len() < ids.len() {
        resize_tracked(scratch, ids.len());
    }
    let out = &mut scratch[..ids.len()];
    if scalar {
        score_star_per_id(dom, pts, corners, ids, out);
    } else {
        dom.score_star(pts, corners, ids, out);
    }
    out
}

/// [`score_ids_into`]'s choice over every row of `corners`, handing the
/// `(quality, oriented)` pairs to `sink` in row order: the lane-batched
/// [`score_corners_batched`], or one [`ScoringDomain::score`] per row
/// when `scalar`; the bits are the same either way. The initial pass of
/// a resident run and of each of its ranks.
pub(crate) fn score_all_rows<const C: usize, D: ScoringDomain<C>>(
    dom: &D,
    pts: &[D::Point],
    corners: &[[u32; C]],
    scalar: bool,
    mut sink: impl FnMut((f64, bool)),
) {
    if scalar {
        corners.iter().for_each(|&e| sink(dom.score(pts, e)));
    } else {
        score_corners_batched(dom, pts, corners, 0..corners.len() as u32, sink);
    }
}

/// One sweep over the entries `range` of `ledger`, on the point slice
/// `pts` (stars are rows of `corners`). Returns the number of elements
/// scored.
///
/// A plain sweep commits every candidate unevaluated. A smart sweep
/// stages the candidate in `pts`, scores its star in place
/// ([`score_ids_into`]), runs the [`star_accepts`] guard, then commits
/// through the ledger or puts the old position back. Every corner read
/// carries the exact source bits and the guard folds in star order, so
/// commit decisions are bit-identical to the reference path's
/// closure-based evaluation.
///
/// Function multiversioning: the smart body is compiled a second time
/// with AVX enabled and dispatched once per sweep. Inside that copy the
/// per-vertex `score_star` → `tri_elr_star_avx` chain inlines (a
/// `#[target_feature]` function can inline into a caller that already has
/// the feature) and the code around it is VEX-encoded too, so the loop
/// pays no SSE↔AVX transition per vertex. VEX encoding changes no IEEE
/// semantics, and LLVM does not reassociate float math without fast-math
/// flags, so the two copies are bit-identical. `scalar_scoring` runs on
/// the plain copy: it stands in for the per-element kernel in
/// before/after benches, so it keeps the compilation environment that
/// kernel had.
pub(crate) fn sweep<'r, const C: usize, D: ScoringDomain<C>, L: StarLedger<'r, D::Point>>(
    dom: &D,
    corners: &[[u32; C]],
    cfg: &DomainConfig,
    range: Range<usize>,
    pts: &mut [D::Point],
    ledger: &mut L,
    scratch: &mut Vec<(f64, bool)>,
) -> u64 {
    if !cfg.smart {
        sweep_plain(cfg.weighting, range, pts, ledger);
        return 0;
    }
    #[cfg(target_arch = "x86_64")]
    if !cfg.scalar_scoring && std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: AVX support verified above (cached runtime check).
        return unsafe { sweep_smart_avx(dom, corners, cfg, range, pts, ledger, scratch) };
    }
    sweep_smart(dom, corners, cfg, range, pts, ledger, scratch)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn sweep_smart_avx<'r, const C: usize, D: ScoringDomain<C>, L: StarLedger<'r, D::Point>>(
    dom: &D,
    corners: &[[u32; C]],
    cfg: &DomainConfig,
    range: Range<usize>,
    pts: &mut [D::Point],
    ledger: &mut L,
    scratch: &mut Vec<(f64, bool)>,
) -> u64 {
    sweep_smart(dom, corners, cfg, range, pts, ledger, scratch)
}

#[inline(always)]
fn sweep_smart<'r, const C: usize, D: ScoringDomain<C>, L: StarLedger<'r, D::Point>>(
    dom: &D,
    corners: &[[u32; C]],
    cfg: &DomainConfig,
    range: Range<usize>,
    pts: &mut [D::Point],
    ledger: &mut L,
    scratch: &mut Vec<(f64, bool)>,
) -> u64 {
    let mut scored = 0;
    for i in range {
        let (v, ns, ts) = ledger.row(i);
        let pv = pts[v as usize];
        let Some(candidate) = candidate_for(cfg.weighting, pv, ns, pts) else {
            continue;
        };
        pts[v as usize] = candidate;
        let scores = score_ids_into(dom, pts, corners, ts, cfg.scalar_scoring, scratch);
        scored += ts.len() as u64;
        let accept = star_accepts(ts, scores.iter().copied(), |t| ledger.before(t));
        if accept {
            ledger.commit(v, candidate, ts, scores);
        }
        if !(accept && L::IN_PLACE) {
            pts[v as usize] = pv;
        }
    }
    scored
}

fn sweep_plain<'r, P: DomainPoint, L: StarLedger<'r, P>>(
    weighting: Weighting,
    range: Range<usize>,
    pts: &mut [P],
    ledger: &mut L,
) {
    for i in range {
        let (v, ns, ts) = ledger.row(i);
        let Some(candidate) = candidate_for(weighting, pts[v as usize], ns, pts) else {
            continue;
        };
        if L::IN_PLACE {
            pts[v as usize] = candidate;
        }
        ledger.moved(v, candidate, ts);
    }
}

/// The serial sweeps' ledger: rows from the global domain, "before" from
/// the quality cache. Gauss–Seidel (`GAUSS_SEIDEL`) folds a smart commit
/// into the cache at once. Jacobi writes every move to `next` and leaves
/// the cache to the post-sweep update (an element can gain several moved
/// corners in one sweep), as every plain sweep does.
struct SerialLedger<'r, 'c, const C: usize, D: SmoothDomain<C>, const GAUSS_SEIDEL: bool> {
    dom: &'r D,
    visit: &'r [u32],
    cache: &'c mut DomainQualityCache,
    /// Moves awaiting the post-sweep cache update.
    moved: &'c mut Vec<u32>,
    /// Jacobi's output coordinates (empty for Gauss–Seidel).
    next: &'c mut [D::Point],
}

impl<'r, const C: usize, D: SmoothDomain<C>, const GAUSS_SEIDEL: bool> StarLedger<'r, D::Point>
    for SerialLedger<'r, '_, C, D, GAUSS_SEIDEL>
{
    const IN_PLACE: bool = GAUSS_SEIDEL;

    #[inline(always)]
    fn row(&self, i: usize) -> (u32, &'r [u32], &'r [u32]) {
        let (dom, v) = (self.dom, self.visit[i]);
        (v, dom.neighbors(v), dom.elements_of(v))
    }

    #[inline(always)]
    fn before(&self, t: u32) -> (f64, bool) {
        self.cache.guard_view(t)
    }

    #[inline(always)]
    fn commit(&mut self, v: u32, candidate: D::Point, ts: &[u32], scores: &[(f64, bool)]) {
        if GAUSS_SEIDEL {
            self.cache.set_star(self.dom, ts, scores);
        } else {
            self.moved(v, candidate, ts);
        }
    }

    #[inline(always)]
    fn moved(&mut self, v: u32, candidate: D::Point, _ts: &[u32]) {
        if !GAUSS_SEIDEL {
            self.next[v as usize] = candidate;
        }
        self.moved.push(v);
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
        let (dom, cfg, visit) = (self.dom, &self.cfg, self.visit);
        let mut cache = DomainQualityCache::build(dom, coords);
        let initial_quality = cache.quality_exact(dom);
        let mut report = SmoothReport::starting(initial_quality);
        let mut quality = initial_quality;
        let mut prev: Vec<D::Point> = Vec::new();
        let mut scratch = Vec::new();
        let mut moved: Vec<u32> = Vec::new();

        for iter in 1..=cfg.max_iters {
            moved.clear();
            let range = 0..visit.len();
            match cfg.update {
                UpdateScheme::GaussSeidel => {
                    let (cache, moved) = (&mut cache, &mut moved);
                    let mut ledger =
                        SerialLedger::<C, D, true> { dom, visit, cache, moved, next: &mut [] };
                    sweep(dom, dom.elements(), cfg, range, coords, &mut ledger, &mut scratch);
                }
                UpdateScheme::Jacobi => {
                    prev.clear();
                    prev.extend_from_slice(coords);
                    let (cache, moved) = (&mut cache, &mut moved);
                    let mut ledger =
                        SerialLedger::<C, D, false> { dom, visit, cache, moved, next: coords };
                    sweep(dom, dom.elements(), cfg, range, &mut prev, &mut ledger, &mut scratch);
                }
            }
            if !moved.is_empty() {
                cache.apply_moves(dom, &moved, coords);
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
        let exact =
            if report.iterations.is_empty() { initial_quality } else { cache.quality_exact(dom) };
        if let Some(last) = report.iterations.last_mut() {
            last.quality = exact;
        }
        report.final_quality = exact;
        (report, cache)
    }
}
