//! Lane-batched scoring support and the sweep scratch audit.
//!
//! Every engine from [`crate::kernel::SerialKernel`] to the distributed
//! rank workers spends its time in the same loop: gather a vertex ring,
//! score the incident elements, decide a commit. The scoring half runs
//! through [`ScoringDomain::score_star`], which reads each element's
//! corners straight from the point slice (`&[D::Point]`, the only
//! coordinate store of every sweep) through the element's id and scores
//! fixed-width [`LANES`]-wide blocks in which **every lane executes the
//! identical scalar operation sequence** on its own element. Lanewise
//! IEEE arithmetic has no cross-lane interaction, so the batched results
//! are bit-identical to the per-element scalar path by construction.
//!
//! This module holds what the kernels share:
//!
//! * [`for_lane_blocks!`](crate::for_lane_blocks) — the block loop over
//!   an id list; a list that ends on a short block has its last id
//!   repeated and only the real slots kept, so the last elements of a
//!   star take the same packed path as the rest;
//! * [`sqrt_div_lanes`] — the packed square-root/divide phase of the
//!   edge-length-ratio metric;
//! * [`score_corners_batched`] and its domain-table form
//!   `score_elements_batched` — whole-table or id-list scoring in fixed
//!   chunks, behind the quality-cache build and re-scores, the
//!   resident initial scoring pass and [`crate::domain::domain_quality`];
//! * [`SoaScores`] — the resident ranks' element scores as a quality
//!   column beside an orientation column;
//! * the scratch-reallocation counter behind the sweep allocation audit:
//!   reusable hot-loop buffers route growth through `resize_tracked`,
//!   and tests pin that steady-state sweeps perform zero reallocations
//!   ([`scratch_grow_count`]).

use crate::domain::ScoringDomain;
use std::sync::atomic::{AtomicU64, Ordering};

/// Fixed lane width of the batched scoring kernels: 4 × f64 (one AVX2
/// register, two NEON registers). The kernels walk their id list in
/// whole blocks of `LANES` ([`crate::for_lane_blocks!`]), so the width is
/// a structural constant, not a performance knob — results are
/// lane-count-invariant.
pub const LANES: usize = 4;

/// The block loop of a lane-batched scoring kernel:
/// `for_lane_blocks!((ids, out) => |block, slots| { .. })` runs the body
/// once per [`LANES`]-wide block of the id list `ids: &[u32]`, with
/// `block: &[u32; LANES]` the block's ids and `slots: &mut [(f64, bool)]`
/// its output slots in `out`. A list that ends on a short block gets its
/// last id repeated up to a whole block — so every lane scores an element
/// the caller named — and `slots` is then shorter than the block: the
/// body scores all `LANES` lanes and writes `slots.len()` of them, so the
/// last elements of a star take the same packed path as the rest.
///
/// A macro, not a function taking a closure: the body holds
/// `#[target_feature]` intrinsics, which must expand *inside* the AVX
/// function to inline — a closure handed to a generic helper is compiled
/// as a call per block. For the same reason the expansion calls no
/// closure-taking helper itself.
#[macro_export]
macro_rules! for_lane_blocks {
    (($ids:expr, $out:expr) => |$block:ident, $slots:ident| $body:block) => {{
        let (ids, out): (&[u32], &mut [(f64, bool)]) = ($ids, $out);
        debug_assert_eq!(ids.len(), out.len());
        let (blocks, ids_tail) = ids.as_chunks::<{ $crate::soa::LANES }>();
        let (out_main, out_tail) = out.split_at_mut(ids.len() - ids_tail.len());
        for ($block, $slots) in blocks.iter().zip(out_main.chunks_exact_mut($crate::soa::LANES)) {
            $body
        }
        if !ids_tail.is_empty() {
            let mut padded = [0u32; $crate::soa::LANES];
            for (l, id) in padded.iter_mut().enumerate() {
                *id = ids_tail[l.min(ids_tail.len() - 1)];
            }
            let ($block, $slots) = (&padded, out_tail);
            $body
        }
    }};
}

/// Process-global count of hot-loop scratch reallocations (see
/// [`scratch_grow_count`]).
static SCRATCH_GROWS: AtomicU64 = AtomicU64::new(0);

/// Number of times a reusable sweep scratch buffer had to reallocate
/// since process start. Warm sweeps are expected to add **zero**: every
/// per-vertex temporary lives in a kernel-owned buffer that only grows on
/// first use. The counter is the observable face of the scratch-reuse
/// audit — tests snapshot it around a warm sweep and assert no growth.
pub fn scratch_grow_count() -> u64 {
    SCRATCH_GROWS.load(Ordering::Relaxed)
}

/// Record one scratch reallocation (relaxed; growth is rare by design).
#[inline]
fn note_scratch_grow() {
    SCRATCH_GROWS.fetch_add(1, Ordering::Relaxed);
}

/// Grow `v` to `len` elements, counting a real reallocation in the
/// scratch audit. The capacity check happens *before* the resize so only
/// genuine growth is counted — shrinking or refilling is free.
#[inline]
pub(crate) fn resize_tracked<T: Clone + Default>(v: &mut Vec<T>, len: usize) {
    if len > v.capacity() {
        note_scratch_grow();
    }
    v.resize(len, T::default());
}

/// Structure-of-arrays element scores: the `(quality, positively
/// oriented)` pairs of the sweep caches split into a contiguous `f64`
/// column (what the quality sums stream) and a `bool` column.
#[derive(Debug, Clone, Default)]
pub struct SoaScores {
    q: Vec<f64>,
    pos: Vec<bool>,
}

impl SoaScores {
    /// An empty table.
    pub fn new() -> Self {
        SoaScores::default()
    }

    /// A table of `n` slots, zero-quality / non-oriented.
    pub fn with_len(n: usize) -> Self {
        let mut s = Self::new();
        s.resize(n);
        s
    }

    /// Number of scored slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True when no slots are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Resize to `n` slots (audited growth).
    pub fn resize(&mut self, n: usize) {
        if n > self.q.capacity() {
            note_scratch_grow();
        }
        self.q.resize(n, 0.0);
        if n > self.pos.capacity() {
            note_scratch_grow();
        }
        self.pos.resize(n, false);
    }

    /// Quality of slot `i`.
    #[inline]
    pub fn q(&self, i: usize) -> f64 {
        self.q[i]
    }

    /// Orientation flag of slot `i`.
    #[inline]
    pub fn pos(&self, i: usize) -> bool {
        self.pos[i]
    }

    /// Slot `i` as the classic `(quality, oriented)` pair.
    #[inline]
    pub fn get(&self, i: usize) -> (f64, bool) {
        (self.q[i], self.pos[i])
    }

    /// Overwrite slot `i`.
    #[inline]
    pub fn set(&mut self, i: usize, s: (f64, bool)) {
        self.q[i] = s.0;
        self.pos[i] = s.1;
    }

    /// The contiguous quality column.
    #[inline]
    pub fn qualities(&self) -> &[f64] {
        &self.q
    }
}

/// Lanewise correctly-rounded `sqrt(num[l]) / sqrt(den[l])` over one
/// [`LANES`]-wide block — the expensive phase of the edge-length-ratio
/// metric, spelled out in explicit SIMD on x86-64.
///
/// IEEE 754 requires square root and division to be **correctly
/// rounded**, and the packed instructions (`sqrtpd`/`divpd`,
/// `vsqrtpd`/`vdivpd`) implement exactly the same rounding as their
/// scalar forms — so this helper is bit-identical to the portable
/// `num.sqrt() / den.sqrt()` loop on every input, NaN and subnormal
/// included. It exists because LLVM's cost model declines to
/// auto-vectorize `sqrt` on the SSE2 baseline (the divisions vectorize,
/// the square roots stay `sqrtsd` — measured at scalar parity), so the
/// packed form has to be requested by hand. AVX (4 lanes per op) is
/// picked by cached runtime detection; the SSE2 pair-of-halves form is
/// the x86-64 baseline; every other architecture keeps the portable
/// loop, which is still the identical value sequence.
#[inline(always)]
pub fn sqrt_div_lanes(num: &[f64; LANES], den: &[f64; LANES], out: &mut [f64; LANES]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx") {
            // SAFETY: AVX support was just verified at runtime.
            unsafe { sqrt_div_lanes_avx(num, den, out) }
        } else {
            // SAFETY: SSE2 is part of the x86-64 baseline.
            unsafe { sqrt_div_lanes_sse2(num, den, out) }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    for l in 0..LANES {
        out[l] = num[l].sqrt() / den[l].sqrt();
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn sqrt_div_lanes_avx(num: &[f64; LANES], den: &[f64; LANES], out: &mut [f64; LANES]) {
    use core::arch::x86_64::*;
    const { assert!(LANES == 4, "one 256-bit register holds exactly one block") };
    let n = _mm256_loadu_pd(num.as_ptr());
    let d = _mm256_loadu_pd(den.as_ptr());
    _mm256_storeu_pd(out.as_mut_ptr(), _mm256_div_pd(_mm256_sqrt_pd(n), _mm256_sqrt_pd(d)));
}

#[cfg(target_arch = "x86_64")]
unsafe fn sqrt_div_lanes_sse2(num: &[f64; LANES], den: &[f64; LANES], out: &mut [f64; LANES]) {
    use core::arch::x86_64::*;
    const { assert!(LANES.is_multiple_of(2), "blocks split into 128-bit halves") };
    for h in (0..LANES).step_by(2) {
        let n = _mm_loadu_pd(num.as_ptr().add(h));
        let d = _mm_loadu_pd(den.as_ptr().add(h));
        _mm_storeu_pd(out.as_mut_ptr().add(h), _mm_div_pd(_mm_sqrt_pd(n), _mm_sqrt_pd(d)));
    }
}

/// Score the elements `ids` names (ids into the domain's element
/// table) on the point slice `coords`, handing the `(quality, oriented)`
/// pairs to `sink` in iteration order — [`score_corners_batched`] on the
/// domain's own corner table.
pub(crate) fn score_elements_batched<const C: usize, D: ScoringDomain<C>>(
    dom: &D,
    coords: &[D::Point],
    ids: impl IntoIterator<Item = u32>,
    sink: impl FnMut((f64, bool)),
) {
    score_corners_batched(dom, coords, dom.elements(), ids, sink);
}

/// Score the rows of `elems` that `ids` names (a domain's own table, or
/// a resident block's part-local one) on the point slice `coords`,
/// handing the `(quality, oriented)` pairs to `sink` in iteration order.
/// The ids are taken in fixed-size chunks, each scored in place through
/// one [`ScoringDomain::score_star`] call, so the per-element arithmetic
/// and the order are those of the scalar loop — bit-identical results.
pub fn score_corners_batched<const C: usize, D: ScoringDomain<C>>(
    dom: &D,
    coords: &[D::Point],
    elems: &[[u32; C]],
    ids: impl IntoIterator<Item = u32>,
    mut sink: impl FnMut((f64, bool)),
) {
    const CHUNK: usize = 256;
    let mut chunk = [0u32; CHUNK];
    let mut scored = [(0.0f64, false); CHUNK];
    let mut ids = ids.into_iter();
    loop {
        let mut n = 0;
        for (slot, t) in chunk.iter_mut().zip(ids.by_ref()) {
            *slot = t;
            n += 1;
        }
        if n == 0 {
            break;
        }
        dom.score_star(coords, elems, &chunk[..n], &mut scored[..n]);
        scored[..n].iter().copied().for_each(&mut sink);
    }
}
