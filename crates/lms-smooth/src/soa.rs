//! Structure-of-arrays coordinate and score storage for the sweep hot
//! path.
//!
//! Every engine from [`crate::kernel::SerialKernel`] to the distributed
//! rank workers ultimately spends its time in the same loop: gather a
//! vertex ring, score the incident elements, decide a commit. The
//! array-of-points layout those loops historically ran on interleaves
//! x/y(/z) in memory, so the quality metrics — pure per-axis arithmetic —
//! never see the contiguous per-axis streams an auto-vectorizer wants.
//! [`SoaCoords`] is the per-axis layout; [`SmoothDomain::score_star`]
//! consumes it in fixed-width [`LANES`]-wide blocks where **every lane
//! executes the identical scalar operation sequence** on its own element.
//! Lanewise IEEE arithmetic has no cross-lane interaction, so the batched
//! results are bit-identical to the scalar path by construction — the
//! PR 1–8 bit-identity suites stay the gate, unmodified.
//!
//! Elements are named by **id**: a sweep hands `score_star` the corner
//! table it already owns plus the incident-element slice it walks for the
//! commit fold, and the kernel reads each corner row where it lives,
//! through the id. A list that ends on a short block has its last id
//! repeated and only the real slots kept ([`crate::for_lane_blocks!`]),
//! so the last elements of a star take the same packed path as the rest.
//!
//! Conversion to and from point slices happens only at transport
//! boundaries ([`SoaLike::gather_from`] / [`SoaLike::scatter_to`]): wire
//! frames, `load_global`, and the final scatter keep their existing
//! point-slice shapes, so `lms-dist` and the wire format are untouched.
//!
//! The module also hosts the scratch-reallocation counter backing the
//! sweep allocation audit: reusable hot-loop buffers route growth through
//! [`resize_tracked`], and tests pin that steady-state sweeps perform
//! zero reallocations.

use crate::domain::{DomainPoint, SmoothDomain};
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

/// Upper bound on coordinate dimension for stack staging buffers.
const MAX_DIM: usize = 8;

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

/// Per-axis (structure-of-arrays) coordinate storage: `D` parallel
/// `Vec<f64>` columns, slot-addressed exactly like the point vectors it
/// replaces inside `ResidentRank`.
///
/// Gather/scatter against `&[P]` preserve bit patterns verbatim (they
/// move `f64` components, never reinterpret them), so NaN payloads and
/// `-0.0` survive a round trip — pinned by the `soa` test suite.
#[derive(Debug, Clone)]
pub struct SoaCoords<const D: usize> {
    len: usize,
    axes: [Vec<f64>; D],
}

impl<const D: usize> SoaCoords<D> {
    /// An empty store.
    pub fn new() -> Self {
        SoaCoords { len: 0, axes: std::array::from_fn(|_| Vec::new()) }
    }

    /// A zero-filled store of `n` slots.
    pub fn with_len(n: usize) -> Self {
        let mut s = Self::new();
        s.resize(n);
        s
    }

    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no slots are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resize to `n` slots (new slots zero-filled). Growth past capacity
    /// is counted in the scratch audit.
    pub fn resize(&mut self, n: usize) {
        for ax in &mut self.axes {
            if n > ax.capacity() {
                note_scratch_grow();
            }
            ax.resize(n, 0.0);
        }
        self.len = n;
    }

    /// The contiguous component column of axis `d` — what the lane
    /// kernels stream.
    #[inline]
    pub fn axis(&self, d: usize) -> &[f64] {
        &self.axes[d]
    }

    /// Mutable component column of axis `d`.
    #[inline]
    pub fn axis_mut(&mut self, d: usize) -> &mut [f64] {
        &mut self.axes[d]
    }

    /// Read slot `i` as a typed point (exact bit copy per component).
    #[inline]
    pub fn get<P: DomainPoint>(&self, i: usize) -> P {
        debug_assert_eq!(P::DIM, D);
        let mut comps = [0.0f64; MAX_DIM];
        for (slot, axis) in comps.iter_mut().zip(&self.axes) {
            *slot = axis[i];
        }
        P::from_components(&comps[..D])
    }

    /// Write slot `i` from a typed point (exact bit copy per component).
    #[inline]
    pub fn set<P: DomainPoint>(&mut self, i: usize, p: P) {
        debug_assert_eq!(P::DIM, D);
        for d in 0..D {
            self.axes[d][i] = p.component(d);
        }
    }
}

impl<const D: usize> Default for SoaCoords<D> {
    fn default() -> Self {
        Self::new()
    }
}

/// The capability the generic engines need from a coordinate store: a
/// slot-addressed SoA convertible to/from point slices at the transport
/// boundary. [`SmoothDomain::Soa`] names the concrete store per domain
/// (a [`SoaCoords`] of the right dimension), keeping the engine bodies
/// free of const-generic dimension plumbing on stable Rust.
pub trait SoaLike<P: DomainPoint>: Clone + std::fmt::Debug + Send + Sync + 'static {
    /// A zero-filled store of `n` slots.
    fn with_len(n: usize) -> Self;

    /// Number of slots.
    fn len(&self) -> usize;

    /// True when no slots are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resize to `n` slots (audited growth).
    fn resize(&mut self, n: usize);

    /// Read slot `i` as a typed point.
    fn get(&self, i: usize) -> P;

    /// Write slot `i` from a typed point.
    fn set(&mut self, i: usize, p: P);

    /// Replace the whole store with the components of `pts`
    /// (bit-preserving; resizes to `pts.len()`).
    fn gather_from(&mut self, pts: &[P]);

    /// Write the first `out.len()` slots back as points (bit-preserving).
    fn scatter_to(&self, out: &mut [P]);
}

impl<P: DomainPoint, const D: usize> SoaLike<P> for SoaCoords<D> {
    fn with_len(n: usize) -> Self {
        debug_assert_eq!(P::DIM, D);
        SoaCoords::with_len(n)
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    fn resize(&mut self, n: usize) {
        SoaCoords::resize(self, n);
    }

    #[inline]
    fn get(&self, i: usize) -> P {
        SoaCoords::get(self, i)
    }

    #[inline]
    fn set(&mut self, i: usize, p: P) {
        SoaCoords::set(self, i, p);
    }

    fn gather_from(&mut self, pts: &[P]) {
        SoaCoords::resize(self, pts.len());
        for (i, &p) in pts.iter().enumerate() {
            SoaCoords::set(self, i, p);
        }
    }

    fn scatter_to(&self, out: &mut [P]) {
        debug_assert!(out.len() <= self.len);
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = SoaCoords::get(self, i);
        }
    }
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

    /// Replace the whole table from a pair slice (transport boundary).
    pub fn gather_from(&mut self, scores: &[(f64, bool)]) {
        self.resize(scores.len());
        for (i, &s) in scores.iter().enumerate() {
            self.q[i] = s.0;
            self.pos[i] = s.1;
        }
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

/// Score `elems` (corner ids into the point slice `coords`) through the
/// batched SoA kernel: gather each fixed-size chunk's corner coordinates
/// into a reusable SoA scratch, run [`SmoothDomain::score_star`] over the
/// chunk, and hand the `(quality, oriented)` pairs to `sink` in iteration
/// order. Bit-identical to the per-element scalar loop it replaces (same
/// per-element arithmetic, same order) — this is the batched form behind
/// the quality-cache build/rescore, the resident initial scoring pass and
/// [`crate::domain::domain_quality`].
pub fn score_elements_batched<const C: usize, D: SmoothDomain<C>>(
    dom: &D,
    coords: &[D::Point],
    elems: impl IntoIterator<Item = [u32; C]>,
    mut sink: impl FnMut((f64, bool)),
) {
    const CHUNK: usize = 256;
    // chunk element `i` keeps its corners in scratch slots `i*C..(i+1)*C`,
    // so the corner table and the id list are the same for every chunk
    let mut scratch = D::Soa::with_len(CHUNK * C);
    let rows: [[u32; C]; CHUNK] =
        std::array::from_fn(|i| std::array::from_fn(|k| (i * C + k) as u32));
    let ids: [u32; CHUNK] = std::array::from_fn(|i| i as u32);
    let mut scored = [(0.0f64, false); CHUNK];
    let mut elems = elems.into_iter();
    loop {
        let mut n = 0;
        for e in elems.by_ref().take(CHUNK) {
            for (k, &c) in e.iter().enumerate() {
                scratch.set(n * C + k, coords[c as usize]);
            }
            n += 1;
        }
        if n == 0 {
            break;
        }
        dom.score_star(&scratch, &rows, &ids[..n], &mut scored[..n]);
        scored[..n].iter().copied().for_each(&mut sink);
    }
}
