//! Resident-block domain-decomposed smoothing with halo-delta exchange —
//! the distributed-memory-shaped engine.
//!
//! The mesh is decomposed with [`lms_part`] and every part's block stays
//! **resident for the whole run**, so no per-sweep full-mesh traffic
//! exists — exactly what a distributed-memory implementation needs:
//!
//! * each part gathers its owned + halo coordinates and its local element
//!   scores **once** (the single full gather);
//! * part interiors (vertices whose whole 1-ring the part owns) sweep
//!   serially ascending inside the part, fully parallel across parts;
//! * interface vertices are smoothed **inside their owning part**, in
//!   global color order: within a color class no two vertices are adjacent
//!   or share an element (even across parts), so each part commits its
//!   class members locally and the only cross-part dependency is the halo
//!   refresh between color steps;
//! * between color steps only the **moved vertices'** coordinates travel,
//!   coalesced into one message per (source part → destination part) pair
//!   along the [`ExchangeSchedule`]'s [`lms_part::MessagePlan`];
//!   receiving parts re-score just the local elements the delivered halo
//!   vertices touch;
//! * the global mesh is written back in **one parallel disjoint scatter**
//!   at the end (parts own disjoint vertex sets).
//!
//! The *protocol* lives in two layers. The per-part compute — local
//! sweeps, delta application, per-pair outbox batching, the
//! `Σ w_t·Δq_t` stat accumulation — is [`ResidentRank`], and the data
//! movement between ranks is a [`crate::transport::FtResidentTransport`]
//! driven by the one [`crate::transport::drive_resident_ft`] loop.
//! [`ResidentEngineOn::smooth`] (in both dimensions) runs the
//! [`InProcessTransport`]; the
//! `lms-dist` crate runs the identical ranks as forked worker processes
//! over Unix pipes, exchanging the same batches as
//! [`lms_part::wire`] frames — property-tested bit-identical, coordinates
//! *and* reports.
//!
//! Between the first gather and the final scatter the engine performs zero
//! full-mesh gather/refresh/write-back passes — the
//! [`ExchangeVolume`](crate::ExchangeVolume) counters in the report pin
//! this (`full_gathers == 1 && full_scatters == 1`), property-tested in
//! `tests/resident.rs`.
//!
//! The per-iteration quality statistic is maintained incrementally too:
//! the global quality is the linear functional `Σ_t q_t·w_t / V` (see
//! [`crate::dcache::DomainQualityCache`]), each changed element is
//! *stat-owned* by exactly one part (the part owning its smallest movable
//! corner), and every part accumulates `w_t·Δq_t` over its own commits and
//! halo re-scores. Part deltas fold into a Neumaier-compensated running
//! sum in part order, so reports are bitwise-deterministic for any thread
//! count; it tracks the exact quality to a few ulps, so disable the
//! tolerance (`tol < 0`) when exact sweep-count parity with another
//! engine matters.
//!
//! Determinism and equivalence (property-tested in `tests/resident.rs`):
//! coordinates are **bitwise-deterministic for any thread count** and
//! **bit-identical** to serial Gauss–Seidel under the part-major visit
//! order ([`ResidentEngineOn::part_major_visit_order`]).
//!
//! The engine is written once, generic over the mesh dimension
//! ([`SmoothMesh`]) and built around that dimension's serial
//! [`SmoothEngineOn`]: [`ResidentEngine`] is the triangle-mesh alias,
//! `lms_mesh3d::ResidentEngine3` the tetrahedral one.

use crate::config::{UpdateScheme, Weighting};
use crate::domain::{score_star_per_id, DomainConfig, SmoothDomain};
use crate::engine::{SmoothEngineOn, SmoothMesh};
use crate::kernel::candidate_for_soa;
use crate::soa::{resize_tracked, SoaLike, SoaScores};
use crate::stats::SmoothReport;
use crate::transport::{drive_resident_ft, drive_resident_ft_with, FtPolicy, InProcessTransport};
use lms_part::{ExchangeSchedule, MessagePlan, Partition, PartitionMethod};
use lms_trace::{now_ns, PhaseBreakdown, RankPhaseNanos, Recorder};

/// Domain-decomposed Gauss–Seidel smoothing over blocks that stay
/// resident for the whole run, with halo-delta exchange between interface
/// color steps — one body for every mesh dimension, generic over the mesh
/// type `M` whose serial engine hosts the topology. See the module docs
/// for the protocol; use the [`ResidentEngine`] /
/// `lms_mesh3d::ResidentEngine3` aliases.
#[derive(Debug, Clone)]
pub struct ResidentEngineOn<const C: usize, M: SmoothMesh<C>> {
    engine: SmoothEngineOn<C, M>,
    partition: Partition,
    schedule: ExchangeSchedule,
    /// Interface vertices (mesh-interior) grouped by global color class —
    /// the engine's interior color classes restricted to the interface,
    /// empty classes dropped.
    interface_classes: Vec<Vec<u32>>,
    blocks: Vec<ResidentBlock<C>>,
    /// Constant global element weights `w_t` of the quality functional —
    /// computed once at construction, shared with every run's statistic.
    elem_w: Vec<f64>,
}

/// Resident halo-exchange smoothing of triangle meshes.
pub type ResidentEngine = ResidentEngineOn<3, lms_mesh::TriMesh>;

/// Restrict interior color classes to partition-interface vertices
/// (ascending within a class preserved, empty classes dropped) — the
/// coordination schedule of the interface phase.
pub fn interface_classes(classes: &[Vec<u32>], partition: &Partition) -> Vec<Vec<u32>> {
    classes
        .iter()
        .map(|class| {
            class.iter().copied().filter(|&v| partition.is_interface(v)).collect::<Vec<u32>>()
        })
        .filter(|class| !class.is_empty())
        .collect()
}

/// Immutable per-part topology of a resident block, generic in the
/// element corner count `C`. Local vertex ids follow the
/// [`Partition::local_of`] convention — owned ascending, then halo
/// ascending — so exchange-schedule destinations index straight into the
/// block's coordinate buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidentBlock<const C: usize> {
    /// Owned vertices, global ids ascending (the final scatter map).
    owned: Vec<u32>,
    /// Halo (ghost) vertices, global ids ascending.
    halo: Vec<u32>,
    num_owned: u32,
    /// Part-interior ∩ mesh-interior sweep vertices (owned locals,
    /// ascending) with their local CSR neighbour / incident-element rows.
    int_locals: Vec<u32>,
    int_nbr_offsets: Vec<u32>,
    int_nbrs: Vec<u32>,
    int_vt_offsets: Vec<u32>,
    int_vt: Vec<u32>,
    /// Owned interface ∩ mesh-interior sweep vertices, grouped color-major
    /// (`ifc_color_offsets[c]..[c+1]` indexes the per-color run), ascending
    /// within a color; CSR rows aligned with `ifc_locals`.
    ifc_color_offsets: Vec<u32>,
    ifc_locals: Vec<u32>,
    ifc_nbr_offsets: Vec<u32>,
    ifc_nbrs: Vec<u32>,
    ifc_vt_offsets: Vec<u32>,
    ifc_vt: Vec<u32>,
    /// Local element set — every element incident to a sweep vertex.
    /// Global ids ascending; corners as local ids.
    elem_globals: Vec<u32>,
    elem_corners: Vec<[u32; C]>,
    /// Per local element: the global weight `w_t` when this part
    /// stat-owns the element (it owns the smallest movable corner),
    /// `0.0` otherwise — multiplying score deltas by this folds each
    /// element's quality change into exactly one part's accumulator.
    elem_weight: Vec<f64>,
    /// Per halo local (index − `num_owned`): incident local elements —
    /// what a delivered halo coordinate forces us to re-score.
    halo_vt_offsets: Vec<u32>,
    halo_vt: Vec<u32>,
}

impl<const C: usize> ResidentBlock<C> {
    /// The block's interior sweep vertices as global ids, ascending — its
    /// slice of the part-major visit order.
    pub fn interior_globals(&self) -> impl Iterator<Item = u32> + '_ {
        self.int_locals.iter().map(|&lv| self.owned[lv as usize])
    }

    /// Owned vertices, global ids ascending — the gather/scatter map a
    /// coordinator slices global arrays with.
    pub fn owned(&self) -> &[u32] {
        &self.owned
    }

    /// Halo (ghost) vertices, global ids ascending.
    pub fn halo(&self) -> &[u32] {
        &self.halo
    }

    /// Number of owned vertices (halo locals start here).
    pub fn num_owned(&self) -> usize {
        self.num_owned as usize
    }

    /// Local element set as global element ids, ascending — the score
    /// gather map.
    pub fn elem_globals(&self) -> &[u32] {
        &self.elem_globals
    }
}

/// The serial visit order a resident sweep over `blocks` is exactly equal
/// to: each part's interior vertices ascending, parts in order, then the
/// interface color classes class-major.
pub fn resident_part_major_order<const C: usize>(
    blocks: &[ResidentBlock<C>],
    interface_classes: &[Vec<u32>],
) -> Vec<u32> {
    let mut order: Vec<u32> = blocks.iter().flat_map(|b| b.interior_globals()).collect();
    order.extend(interface_classes.iter().flatten().copied());
    order
}

/// One coalesced (source part → destination part) delta batch: the
/// destination-local slots and new coordinates of every moved source
/// vertex the destination ghosts — the in-memory form of one
/// `lms_part::wire::Frame::HaloDelta`.
#[derive(Debug, Clone)]
pub struct PairBatch<P> {
    /// Destination part.
    pub dst: u32,
    /// Destination-local halo slot per entry.
    pub slots: Vec<u32>,
    /// New coordinate per entry, aligned with `slots`.
    pub coords: Vec<P>,
}

impl<P> PairBatch<P> {
    /// Empty the batch, keeping its capacity (buffers are round-reused).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.coords.clear();
    }
}

/// One part's resident compute kernel: the block's mutable run state
/// (local coordinates, local element scores, the `Σ w_t·Δq_t` stat
/// accumulator) plus every local operation of the resident protocol —
/// interior/color sweeps, pending-delta application, per-pair outbox
/// batching. Transports differ only in how they move the batches:
/// [`crate::transport::InProcessTransport`] holds all ranks in one
/// process, `lms-dist` runs one `ResidentRank` per forked worker process.
///
/// The sweep arithmetic is identical, expression by expression, to the
/// serial hot path ([`crate::kernel`]), so commit decisions (hence
/// coordinates) stay bit-identical.
pub struct ResidentRank<'a, const C: usize, D: SmoothDomain<C>> {
    dom: &'a D,
    smart: bool,
    weighting: Weighting,
    part: u32,
    block: &'a ResidentBlock<C>,
    schedule: &'a ExchangeSchedule,
    /// Dense destination-part → outbox-batch index map (`u32::MAX` for
    /// non-neighbours), built from the [`MessagePlan`].
    batch_of: Vec<u32>,
    /// Local coordinates: owned then halo, in the per-axis SoA layout the
    /// lane-batched scoring kernels stream. Points cross this boundary
    /// only through [`SoaLike::get`]/[`SoaLike::set`] (exact bit copies).
    coords: D::Soa,
    /// Local `(quality, positively_oriented)` per local element, split
    /// into SoA columns.
    scores: SoaScores,
    /// This iteration's `Σ w_t·Δq_t` over stat-owned elements.
    delta: f64,
    /// Owned locals committed in the current interface color round — the
    /// moved-restriction of the exchange.
    round_moved: Vec<u32>,
    /// Plain runs: local elements awaiting the end-of-iteration re-score.
    iter_dirty: Vec<u32>,
    dirty_mark: Vec<bool>,
    /// Candidate-star / re-score output scratch, reused across vertices.
    star: Vec<(f64, bool)>,
    /// Bench/oracle baseline: force per-element scalar scoring
    /// ([`DomainConfig::scalar_scoring`]); bit-identical either way.
    scalar_scoring: bool,
    /// Elements scored by this rank's sweeps and re-scores (throughput
    /// counter; drained by [`take_scored`](Self::take_scored)).
    scored: u64,
    /// Pending halo deliveries `(dst local, coordinate)`.
    inbox: Vec<(u32, D::Point)>,
    /// Smart runs: elements to re-score right after an inbox application.
    apply_dirty: Vec<u32>,
    /// This round's published delta batches, one per plan neighbour.
    outbox: Vec<PairBatch<D::Point>>,
    /// Profiling switch ([`set_timing`](Self::set_timing)): when on, the
    /// sweep entry points clock themselves into `phases` and
    /// [`pull_from`](Self::pull_from) clocks per-source routing into
    /// `route_ns`. Strictly observation-only — the sweep arithmetic is
    /// untouched either way, so coordinates stay bit-identical.
    timing: bool,
    /// Accumulated phase timings + moved-vertex count while `timing`.
    phases: RankPhaseNanos,
    /// Per-source-part routing (pull + stash) nanos while `timing`,
    /// lazily sized to the published part count.
    route_ns: Vec<u64>,
}

impl<'a, const C: usize, D: SmoothDomain<C>> ResidentRank<'a, C, D> {
    /// Build the rank for `part` over its resident block, exchange
    /// schedule and message plan.
    pub fn new(
        dom: &'a D,
        cfg: &DomainConfig,
        part: u32,
        block: &'a ResidentBlock<C>,
        schedule: &'a ExchangeSchedule,
        plan: &MessagePlan,
    ) -> Self {
        let mut batch_of = vec![u32::MAX; plan.num_parts()];
        let outbox: Vec<PairBatch<D::Point>> = plan
            .neighbors(part)
            .iter()
            .zip(plan.pair_entry_counts(part))
            .enumerate()
            .map(|(i, (&q, &cap))| {
                batch_of[q as usize] = i as u32;
                PairBatch {
                    dst: q,
                    slots: Vec::with_capacity(cap as usize),
                    coords: Vec::with_capacity(cap as usize),
                }
            })
            .collect();
        ResidentRank {
            dom,
            smart: cfg.smart,
            weighting: cfg.weighting,
            part,
            block,
            schedule,
            batch_of,
            coords: D::Soa::with_len(block.owned.len() + block.halo.len()),
            scores: SoaScores::with_len(block.elem_globals.len()),
            delta: 0.0,
            round_moved: Vec::new(),
            iter_dirty: Vec::new(),
            dirty_mark: vec![false; block.elem_globals.len()],
            star: Vec::new(),
            scalar_scoring: cfg.scalar_scoring,
            scored: 0,
            inbox: Vec::new(),
            apply_dirty: Vec::new(),
            outbox,
            timing: false,
            phases: RankPhaseNanos::default(),
            route_ns: Vec::new(),
        }
    }

    /// The part this rank computes.
    pub fn part(&self) -> u32 {
        self.part
    }

    /// Switch per-phase self-timing on or off (off by default — an
    /// untimed rank performs zero clock reads).
    pub fn set_timing(&mut self, on: bool) {
        self.timing = on;
    }

    /// Drain the accumulated phase timings + moved count (the counters
    /// restart at zero — callers ship *deltas*, which keeps distributed
    /// accounting correct across rank respawns).
    pub fn take_phases(&mut self) -> RankPhaseNanos {
        std::mem::take(&mut self.phases)
    }

    /// Drain the per-source routing nanos accumulated by
    /// [`pull_from`](Self::pull_from), indexed by source part.
    pub fn take_route_ns(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.route_ns)
    }

    /// The one full gather from the global arrays: all owned + halo
    /// coordinates and every local element's initial score.
    pub fn load_global(&mut self, coords: &[D::Point], scores: &[(f64, bool)]) {
        self.reset_transient();
        for (i, &v) in self.block.owned.iter().chain(&self.block.halo).enumerate() {
            self.coords.set(i, coords[v as usize]);
        }
        for (i, &t) in self.block.elem_globals.iter().enumerate() {
            self.scores.set(i, scores[t as usize]);
        }
    }

    /// The one full gather from an already-sliced block payload (a wire
    /// [`lms_part::wire::Frame::Gather`]): coordinates owned-then-halo in
    /// block-local order, scores in local element order.
    ///
    /// Loading fully defines the rank's run state: at an iteration
    /// boundary a rank is exactly `(coords, scores)` plus empty transient
    /// buffers, so a mid-iteration survivor re-loaded from a recovery
    /// checkpoint returns bit-identically to that boundary.
    pub fn load_block(&mut self, coords: &[D::Point], scores: &[(f64, bool)]) {
        assert_eq!(coords.len(), self.coords.len(), "gather payload has wrong coordinate count");
        assert_eq!(scores.len(), self.scores.len(), "gather payload has wrong score count");
        self.reset_transient();
        self.coords.gather_from(coords);
        self.scores.gather_from(scores);
    }

    /// Drop every in-flight buffer (pending deliveries, dirty queues, the
    /// stat accumulator, unpulled outbox batches) so a load puts the rank
    /// into a pristine iteration-boundary state — a no-op on the normal
    /// path, where loads only ever happen before the first iteration.
    fn reset_transient(&mut self) {
        self.delta = 0.0;
        self.round_moved.clear();
        self.inbox.clear();
        for &lt in self.iter_dirty.iter().chain(&self.apply_dirty) {
            self.dirty_mark[lt as usize] = false;
        }
        self.iter_dirty.clear();
        self.apply_dirty.clear();
        for batch in &mut self.outbox {
            batch.clear();
        }
    }

    /// Sweep the part-interior ∩ mesh-interior vertices (fully local:
    /// an interior vertex is in no other part's halo).
    pub fn sweep_interior(&mut self) {
        let t0 = if self.timing { now_ns() } else { 0 };
        let range = 0..self.block.int_locals.len();
        if self.smart {
            self.sweep_range_smart(SweepSpan::Interior, range, false);
        } else {
            self.sweep_range_plain(SweepSpan::Interior, range, false);
        }
        if self.timing {
            self.phases.interior_ns += now_ns() - t0;
        }
    }

    /// Sweep this part's slice of interface color class `c`, recording
    /// the committed vertices for the round's exchange.
    pub fn sweep_color(&mut self, c: usize) {
        let t0 = if self.timing { now_ns() } else { 0 };
        let range =
            self.block.ifc_color_offsets[c] as usize..self.block.ifc_color_offsets[c + 1] as usize;
        if self.smart {
            self.sweep_range_smart(SweepSpan::Interface, range, true);
        } else {
            self.sweep_range_plain(SweepSpan::Interface, range, true);
        }
        if self.timing {
            self.phases.color_ns += now_ns() - t0;
        }
    }

    /// Queue delivered halo coordinates (one incoming batch) without
    /// applying them — application is deferred to [`apply_pending`]
    /// so a round's deliveries act as one batch whatever transport
    /// carried them.
    ///
    /// [`apply_pending`]: Self::apply_pending
    pub fn stash_deltas(&mut self, slots: &[u32], coords: &[D::Point]) {
        debug_assert_eq!(slots.len(), coords.len());
        self.inbox.extend(slots.iter().copied().zip(coords.iter().copied()));
    }

    /// [`stash_deltas`](Self::stash_deltas) from every published outbox
    /// addressed to this part, in ascending source-part order — the
    /// in-process pull side of the exchange.
    pub fn pull_from(&mut self, published: &[Vec<PairBatch<D::Point>>]) {
        if self.timing && self.route_ns.len() < published.len() {
            self.route_ns.resize(published.len(), 0);
        }
        for (s, src) in published.iter().enumerate() {
            let t0 = if self.timing { now_ns() } else { 0 };
            let mut stashed = false;
            for batch in src {
                if batch.dst == self.part && !batch.slots.is_empty() {
                    self.stash_deltas(&batch.slots, &batch.coords);
                    stashed = true;
                }
            }
            if self.timing && stashed {
                self.route_ns[s] += now_ns() - t0;
            }
        }
    }

    /// Apply every pending halo delivery. Smart runs re-score the touched
    /// elements immediately (the next color step's guard reads them);
    /// plain runs only queue them for the iteration-end re-score.
    pub fn apply_pending(&mut self) {
        if self.inbox.is_empty() {
            return;
        }
        for idx in 0..self.inbox.len() {
            let (dst, pos) = self.inbox[idx];
            self.coords.set(dst as usize, pos);
            let h = (dst - self.block.num_owned) as usize;
            let row = &self.block.halo_vt[self.block.halo_vt_offsets[h] as usize
                ..self.block.halo_vt_offsets[h + 1] as usize];
            let queue = if self.smart { &mut self.apply_dirty } else { &mut self.iter_dirty };
            for &lt in row {
                if !self.dirty_mark[lt as usize] {
                    self.dirty_mark[lt as usize] = true;
                    queue.push(lt);
                }
            }
        }
        self.inbox.clear();
        if self.smart {
            let mut queue = std::mem::take(&mut self.apply_dirty);
            queue.sort_unstable();
            self.rescore_elements(&queue);
            queue.clear();
            self.apply_dirty = queue;
        }
    }

    /// Score the local elements `ids` on the current coordinates into
    /// `star[..ids.len()]` (grown on first need, never refilled): the
    /// lane-batched [`SmoothDomain::score_star`] reading the block's own
    /// corner table through the ids, or one `score_soa` per id under the
    /// scalar baseline. Counts the elements scored.
    #[inline(always)]
    fn score_ids(&mut self, ids: &[u32]) {
        let k = ids.len();
        if self.star.len() < k {
            resize_tracked(&mut self.star, k);
        }
        let (corners, out) = (&self.block.elem_corners, &mut self.star[..k]);
        if self.scalar_scoring {
            score_star_per_id(self.dom, &self.coords, corners, ids, out);
        } else {
            self.dom.score_star(&self.coords, corners, ids, out);
        }
        self.scored += k as u64;
    }

    /// Re-score the local elements in `queue` (ascending), folding the
    /// weighted quality deltas into the stat accumulator in queue order
    /// and clearing the dirty marks — the shared tail of the smart
    /// post-delivery re-score and the plain end-of-iteration re-score.
    /// Scoring goes through the lane-batched [`SmoothDomain::score_star`]
    /// unless the scalar baseline is forced; both paths are bit-identical
    /// per element and the delta fold order is unchanged.
    fn rescore_elements(&mut self, queue: &[u32]) {
        if queue.is_empty() {
            return;
        }
        let block = self.block;
        self.score_ids(queue);
        for (&lt, &(q, pos)) in queue.iter().zip(&self.star) {
            let i = lt as usize;
            self.delta += block.elem_weight[i] * (q - self.scores.q(i));
            self.scores.set(i, (q, pos));
            self.dirty_mark[i] = false;
        }
    }

    /// Coalesce the round's moved vertices into the per-destination
    /// outbox batches (one prospective message per neighbouring part),
    /// clearing the moved list.
    pub fn route_moved(&mut self) {
        for batch in &mut self.outbox {
            batch.clear();
        }
        for idx in 0..self.round_moved.len() {
            let lv = self.round_moved[idx];
            for &(q, dst) in self.schedule.outgoing(self.part, lv) {
                let batch = &mut self.outbox[self.batch_of[q as usize] as usize];
                batch.slots.push(dst);
                batch.coords.push(self.coords.get(lv as usize));
            }
        }
        if self.timing {
            self.phases.moved += self.round_moved.len() as u64;
        }
        self.round_moved.clear();
    }

    /// The round's published batches, aligned with the plan neighbours
    /// (possibly empty — transports skip empty batches).
    pub fn outbox(&self) -> &[PairBatch<D::Point>] {
        &self.outbox
    }

    /// Swap the outbox buffer set with `other` (the double-buffer flip:
    /// the freshly routed batches become the published set, the consumed
    /// set becomes next round's scratch). `other` must be a buffer set
    /// created by [`outbox_template`](Self::outbox_template).
    pub fn swap_outbox(&mut self, other: &mut Vec<PairBatch<D::Point>>) {
        debug_assert_eq!(self.outbox.len(), other.len());
        std::mem::swap(&mut self.outbox, other);
    }

    /// A fresh buffer set shaped like this rank's outbox — the second
    /// buffer of the double-buffered exchange. Batches are allocated at
    /// the plan's pair-entry capacity up front, so steady-state rounds
    /// recycle both buffer sets without reallocating.
    pub fn outbox_template(&self) -> Vec<PairBatch<D::Point>> {
        self.outbox
            .iter()
            .map(|b| PairBatch {
                dst: b.dst,
                slots: Vec::with_capacity(b.slots.capacity()),
                coords: Vec::with_capacity(b.coords.capacity()),
            })
            .collect()
    }

    /// Iteration end: plain runs re-score every element a commit or a
    /// halo delivery touched, in ascending local order, folding the score
    /// changes into the stat delta. (Smart runs re-score incrementally,
    /// so this is a no-op for them.) Call after the final
    /// [`apply_pending`](Self::apply_pending) of the iteration.
    pub fn finalize_iteration(&mut self) {
        let t0 = if self.timing { now_ns() } else { 0 };
        self.finalize_iteration_inner();
        if self.timing {
            self.phases.finish_ns += now_ns() - t0;
        }
    }

    fn finalize_iteration_inner(&mut self) {
        self.apply_pending();
        if self.smart {
            return;
        }
        let mut queue = std::mem::take(&mut self.iter_dirty);
        queue.sort_unstable();
        self.rescore_elements(&queue);
        queue.clear();
        self.iter_dirty = queue;
    }

    /// Drain the iteration's `Σ w_t·Δq_t` stat delta.
    pub fn take_delta(&mut self) -> f64 {
        std::mem::take(&mut self.delta)
    }

    /// Drain the count of elements this rank scored (sweep stars plus
    /// dirty re-scores) — the scored-elements throughput counter.
    pub fn take_scored(&mut self) -> u64 {
        std::mem::take(&mut self.scored)
    }

    /// One owned vertex's current coordinate (slot `j < num_owned`) —
    /// the per-vertex scatter read (the SoA store has no point slice to
    /// borrow).
    #[inline]
    pub fn owned_coord(&self, j: usize) -> D::Point {
        debug_assert!(j < self.block.num_owned as usize);
        self.coords.get(j)
    }

    /// Copy the owned coordinates into `out` — the bulk scatter payload
    /// at the transport boundary.
    pub fn owned_coords_into(&self, out: &mut Vec<D::Point>) {
        out.clear();
        out.reserve(self.block.num_owned as usize);
        for j in 0..self.block.num_owned as usize {
            out.push(self.coords.get(j));
        }
    }

    /// One smart local span sweep — arithmetic identical, expression by
    /// expression, to the serial hot path ([`crate::kernel`]), so commit
    /// decisions (hence coordinates) stay bit-identical. Score updates
    /// fold `w_t·Δq` into the part's stat delta as they land.
    ///
    /// The candidate star is scored **in place**: the candidate is staged
    /// into the SoA store, the incident elements run through the
    /// lane-batched [`SmoothDomain::score_star`] — their corner rows read
    /// where they live, through the ids of the vertex's incidence row —
    /// and the old position is restored if the guard rejects. Every
    /// element sees exactly the values the old substituting `score_with`
    /// fed it, so the guard sums — hence commits — are bit-identical.
    fn sweep_range_smart(
        &mut self,
        span: SweepSpan,
        range: std::ops::Range<usize>,
        record_moved: bool,
    ) {
        // Function multiversioning: compile the whole sweep body a second
        // time with AVX enabled and dispatch once per span sweep. Inside
        // the AVX copy the per-vertex `score_star` → `tri_elr_star_avx`
        // chain is free to inline (a `#[target_feature]` function can
        // inline into a caller that already has the feature) and the code
        // around it is VEX-encoded too, so the hot loop pays no SSE↔AVX
        // transition per vertex. The body is `#[inline(always)]` and identical in both
        // copies — VEX encoding changes no IEEE semantics, and LLVM does
        // not reassociate float math without fast-math flags, so the two
        // versions are bit-identical. The scalar-scoring baseline stays
        // on the plain copy on purpose: it stands in for the pre-SoA
        // kernel in before/after benches, so it keeps the compilation
        // environment that kernel had.
        #[cfg(target_arch = "x86_64")]
        if !self.scalar_scoring && std::arch::is_x86_feature_detected!("avx") {
            // SAFETY: AVX support verified above (cached runtime check).
            unsafe { self.sweep_range_smart_avx(span, range, record_moved) };
            return;
        }
        self.sweep_range_smart_body(span, range, record_moved);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    unsafe fn sweep_range_smart_avx(
        &mut self,
        span: SweepSpan,
        range: std::ops::Range<usize>,
        record_moved: bool,
    ) {
        self.sweep_range_smart_body(span, range, record_moved);
    }

    #[inline(always)]
    fn sweep_range_smart_body(
        &mut self,
        span: SweepSpan,
        range: std::ops::Range<usize>,
        record_moved: bool,
    ) {
        let block = self.block;
        let (locals, nbr_offsets, nbrs, vt_offsets, vt) = span.arrays(block);
        let weighting = self.weighting;
        for si in range {
            let lv = locals[si];
            let ns = &nbrs[nbr_offsets[si] as usize..nbr_offsets[si + 1] as usize];
            if ns.is_empty() {
                continue;
            }
            let pv: D::Point = self.coords.get(lv as usize);
            let Some(candidate) = candidate_for_soa(weighting, pv, ns, &self.coords) else {
                continue;
            };
            let ts = &vt[vt_offsets[si] as usize..vt_offsets[si + 1] as usize];
            if ts.is_empty() {
                self.coords.set(lv as usize, candidate);
                if record_moved {
                    self.round_moved.push(lv);
                }
                continue;
            }

            // stage the candidate; rolled back below if the guard rejects
            self.coords.set(lv as usize, candidate);
            self.score_ids(ts);

            let mut after_sum = 0.0;
            let mut before_sum = 0.0;
            let mut all_pos = true;
            for (&lt, &(q, pos)) in ts.iter().zip(&self.star) {
                let (q0, pos0) = self.scores.get(lt as usize);
                before_sum += if pos0 { q0 } else { 0.0 };
                if pos {
                    after_sum += q;
                } else {
                    all_pos = false;
                }
            }
            let len = ts.len() as f64;
            let quality_ok = after_sum >= before_sum || after_sum / len >= before_sum / len;
            let commit =
                quality_ok && (all_pos || ts.iter().any(|&lt| !self.scores.pos(lt as usize)));
            if commit {
                for (&lt, &(q_new, pos_new)) in ts.iter().zip(&self.star) {
                    let i = lt as usize;
                    self.delta += block.elem_weight[i] * (q_new - self.scores.q(i));
                    self.scores.set(i, (q_new, pos_new));
                }
                if record_moved {
                    self.round_moved.push(lv);
                }
            } else {
                self.coords.set(lv as usize, pv);
            }
        }
    }

    /// One plain local span sweep: every candidate commits; touched
    /// elements are queued for the end-of-iteration re-score (plain
    /// sweeps never evaluate scores inline).
    fn sweep_range_plain(
        &mut self,
        span: SweepSpan,
        range: std::ops::Range<usize>,
        record_moved: bool,
    ) {
        let block = self.block;
        let (locals, nbr_offsets, nbrs, vt_offsets, vt) = span.arrays(block);
        let weighting = self.weighting;
        for si in range {
            let lv = locals[si];
            let ns = &nbrs[nbr_offsets[si] as usize..nbr_offsets[si + 1] as usize];
            if ns.is_empty() {
                continue;
            }
            let pv: D::Point = self.coords.get(lv as usize);
            let Some(candidate) = candidate_for_soa(weighting, pv, ns, &self.coords) else {
                continue;
            };
            self.coords.set(lv as usize, candidate);
            for &lt in &vt[vt_offsets[si] as usize..vt_offsets[si + 1] as usize] {
                if !self.dirty_mark[lt as usize] {
                    self.dirty_mark[lt as usize] = true;
                    self.iter_dirty.push(lt);
                }
            }
            if record_moved {
                self.round_moved.push(lv);
            }
        }
    }
}

/// Neumaier-compensated accumulator mirroring the quality cache's running
/// sum (same per-add expressions, so the initial fold is bit-equal to a
/// freshly built cache's).
#[derive(Default, Clone, Copy)]
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

/// Build every part's resident topology for a domain + decomposition +
/// interface color classes. Also returns the constant global element
/// weights `w_t` (the same table the per-block stat weights are sliced
/// from), which [`ResidentEngineOn::smooth`] folds the initial running
/// sum with — computed here once instead of once per run.
///
/// Cost `O(C·T + Σ block size)`, no sort: one pass over the elements in
/// index order deals each to the part of every mesh-interior corner, so
/// every block's element list is ascending by construction.
pub fn build_resident_blocks<const C: usize, D: SmoothDomain<C>>(
    dom: &D,
    partition: &Partition,
    interface_classes: &[Vec<u32>],
) -> (Vec<ResidentBlock<C>>, Vec<f64>) {
    let n = dom.num_vertices();
    let elements = dom.elements();
    // constant global element weights `w_t = Σ_{v ∈ t} 1/deg_t(v)` of the
    // quality functional
    let inv_deg: Vec<f64> = (0..n as u32).map(|v| 1.0 / dom.elements_of(v).len() as f64).collect();
    let elem_w: Vec<f64> =
        elements.iter().map(|e| e.iter().map(|&v| inv_deg[v as usize]).sum()).collect();

    // One pass over the elements in index order finds each one's stat
    // owner — the part owning its smallest mesh-interior (movable) corner;
    // unchangeable elements have none — and deals it to the local element
    // set of every part that sweeps one of its corners. A block sweeps
    // exactly its owned mesh-interior vertices, and an element's pushes are
    // consecutive, so comparing with a list's last entry is all the
    // deduplication there is.
    let mut stat_owner = Vec::with_capacity(elements.len());
    let mut part_elems: Vec<Vec<u32>> = vec![Vec::new(); partition.num_parts() as usize];
    for (t, element) in elements.iter().enumerate() {
        let mut smallest = None;
        for &c in element {
            if dom.is_interior(c) {
                smallest = Some(smallest.map_or(c, |s: u32| s.min(c)));
                let list = &mut part_elems[partition.part_of(c) as usize];
                if list.last() != Some(&(t as u32)) {
                    list.push(t as u32);
                }
            }
        }
        stat_owner.push(smallest.map_or(u32::MAX, |v| partition.part_of(v)));
    }

    let mut g2l = vec![u32::MAX; n];
    let mut elem_l = vec![u32::MAX; elements.len()];
    let blocks = (0..partition.num_parts())
        .zip(part_elems)
        .map(|(p, elem_globals)| {
            build_resident_block(
                dom,
                partition,
                interface_classes,
                &elem_w,
                &stat_owner,
                p,
                elem_globals,
                &mut g2l,
                &mut elem_l,
            )
        })
        .collect();
    (blocks, elem_w)
}

impl<const C: usize, M: SmoothMesh<C>> ResidentEngineOn<C, M> {
    /// Build a resident engine for `mesh` under `params` and an
    /// existing decomposition (Gauss–Seidel parameters only): builds the
    /// adjacency and hands it to [`with_adjacency`](Self::with_adjacency).
    pub fn new(mesh: &M, params: M::Params, partition: Partition) -> Self {
        Self::with_adjacency(mesh, mesh.build_adjacency(), params, partition)
    }

    /// Build a resident engine around an adjacency the caller
    /// already holds (typically the one the partition was computed from)
    /// — *the* constructor; [`by_method`](Self::by_method) and
    /// [`new`](Self::new) both end here.
    ///
    /// # Panics
    /// When `adj` or `partition` was built for a different number of
    /// vertices, or `params` asks for Jacobi updates.
    pub fn with_adjacency(
        mesh: &M,
        adj: M::Adjacency,
        params: M::Params,
        partition: Partition,
    ) -> Self {
        let engine = SmoothEngineOn::with_adjacency(mesh, adj, params);
        assert_eq!(
            partition.len(),
            engine.domain().num_vertices(),
            "partition was built for a different mesh"
        );
        assert_eq!(
            engine.domain_config().update,
            UpdateScheme::GaussSeidel,
            "resident smoothing is an in-place (Gauss-Seidel) schedule; \
             use smooth_parallel for deterministic Jacobi"
        );
        let interface_classes = interface_classes(engine.interior_color_classes(), &partition);
        let schedule = ExchangeSchedule::build(&partition);
        let (blocks, elem_w) =
            build_resident_blocks(&engine.domain(), &partition, &interface_classes);
        ResidentEngineOn { engine, partition, schedule, interface_classes, blocks, elem_w }
    }

    /// Convenience: decompose `mesh` into `num_parts` with `method`, then
    /// build the engine.
    pub fn by_method(
        mesh: &M,
        params: M::Params,
        num_parts: usize,
        method: PartitionMethod,
    ) -> Self {
        let adj = mesh.build_adjacency();
        let partition = mesh.partition(&adj, num_parts, method);
        Self::with_adjacency(mesh, adj, params, partition)
    }

    /// The underlying serial engine (adjacency, boundary, parameters).
    pub fn engine(&self) -> &SmoothEngineOn<C, M> {
        &self.engine
    }

    /// The decomposition the engine runs on.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The static halo-exchange pattern the runs route moved deltas along.
    pub fn exchange_schedule(&self) -> &ExchangeSchedule {
        &self.schedule
    }

    /// The global interface color classes the interface phase steps through.
    pub fn interface_classes(&self) -> &[Vec<u32>] {
        &self.interface_classes
    }

    /// The per-part resident topologies — one block per part, the
    /// per-rank state of a distributed backend.
    pub fn blocks(&self) -> &[ResidentBlock<C>] {
        &self.blocks
    }

    /// The constant global element weights `w_t` of the quality
    /// functional.
    pub fn elem_weights(&self) -> &[f64] {
        &self.elem_w
    }

    /// The serial visit order this engine's sweep is exactly equal to:
    /// each part's interior vertices ascending, parts in order, then the
    /// interface color classes class-major (feed it to the serial
    /// engine's `with_visit_order`).
    pub fn part_major_visit_order(&self) -> Vec<u32> {
        resident_part_major_order(&self.blocks, &self.interface_classes)
    }

    /// Resident in-place Gauss–Seidel smoothing: one full gather, local
    /// sweeps with halo-delta exchange between interface color steps, one
    /// parallel disjoint scatter. Race-free, bitwise-deterministic for any
    /// `num_threads`, and exactly serial Gauss–Seidel under
    /// [`part_major_visit_order`](Self::part_major_visit_order); the
    /// report carries the [`crate::ExchangeVolume`] counters. (This is
    /// [`drive_resident_ft`] over an [`InProcessTransport`]; `lms-dist`
    /// drives the same loop over forked rank processes.)
    pub fn smooth(&self, mesh: &mut M, num_threads: usize) -> SmoothReport {
        assert!(num_threads >= 1, "need at least one thread");
        let pool = self.engine.pool.get(num_threads);
        let (dom, cfg) = (self.engine.domain(), self.engine.domain_config());
        let mut transport =
            InProcessTransport::new(&dom, &cfg, &self.blocks, &self.schedule, &pool);
        let colors = self.interface_classes.len();
        let coords = self.checked_coords(mesh);
        drive_resident_ft(
            &dom,
            &cfg,
            &self.elem_w,
            colors,
            &mut transport,
            coords,
            &FtPolicy::default(),
        )
        .unwrap_or_else(|never| match never {})
        .0
    }

    /// [`smooth`](Self::smooth) with tracing + profiling: the driver
    /// records its phase spans into a [`Recorder`] (tid 0), the ranks
    /// clock their sweeps, and the report comes back with
    /// `phase_breakdown` populated (per-phase driver nanos, per-part sweep
    /// nanos + moved counts); the raw span [`Recorder`] is returned for
    /// chrome-trace export. Coordinates and every other report field are
    /// bit-identical to an unprofiled run (property-tested in
    /// `lms-dist/tests/traced.rs`).
    pub fn smooth_profiled(&self, mesh: &mut M, num_threads: usize) -> (SmoothReport, Recorder) {
        assert!(num_threads >= 1, "need at least one thread");
        let pool = self.engine.pool.get(num_threads);
        let (dom, cfg) = (self.engine.domain(), self.engine.domain_config());
        let mut transport =
            InProcessTransport::new(&dom, &cfg, &self.blocks, &self.schedule, &pool);
        transport.set_profiling(true);
        let mut recorder = Recorder::new(0);
        let colors = self.interface_classes.len();
        let coords = self.checked_coords(mesh);
        let (mut report, _) = drive_resident_ft_with(
            &dom,
            &cfg,
            &self.elem_w,
            colors,
            &mut transport,
            coords,
            &FtPolicy::default(),
            &mut recorder,
        )
        .unwrap_or_else(|never| match never {});
        let mut breakdown = PhaseBreakdown::default();
        breakdown.apply_span_totals(&recorder.span_totals());
        breakdown.transport = transport.take_profile();
        report.phase_breakdown = Some(breakdown);
        (report, recorder)
    }

    /// `mesh`'s coordinate array, after checking it has the vertex count
    /// the engine was built for.
    pub fn checked_coords<'m>(&self, mesh: &'m mut M) -> &'m mut [M::Point] {
        let coords = mesh.coords_mut();
        assert_eq!(coords.len(), self.partition.len(), "engine was built for a different mesh");
        coords
    }
}

/// Which sweep-list a span sweep walks.
#[derive(Clone, Copy)]
enum SweepSpan {
    Interior,
    Interface,
}

impl SweepSpan {
    #[allow(clippy::type_complexity)]
    fn arrays<const C: usize>(
        self,
        block: &ResidentBlock<C>,
    ) -> (&[u32], &[u32], &[u32], &[u32], &[u32]) {
        match self {
            SweepSpan::Interior => (
                &block.int_locals,
                &block.int_nbr_offsets,
                &block.int_nbrs,
                &block.int_vt_offsets,
                &block.int_vt,
            ),
            SweepSpan::Interface => (
                &block.ifc_locals,
                &block.ifc_nbr_offsets,
                &block.ifc_nbrs,
                &block.ifc_vt_offsets,
                &block.ifc_vt,
            ),
        }
    }
}

/// Build one part's resident topology around its local element set
/// `elem_globals` (every element incident to one of the part's sweep
/// vertices, ascending). `g2l` and `elem_l` are `u32::MAX`-filled scratch
/// maps of global→local ids, restored before returning.
#[allow(clippy::too_many_arguments)]
fn build_resident_block<const C: usize, D: SmoothDomain<C>>(
    dom: &D,
    partition: &Partition,
    interface_classes: &[Vec<u32>],
    elem_w: &[f64],
    stat_owner: &[u32],
    p: u32,
    elem_globals: Vec<u32>,
    g2l: &mut [u32],
    elem_l: &mut [u32],
) -> ResidentBlock<C> {
    let elements = dom.elements();
    let owned: Vec<u32> = partition.part(p).to_vec();
    let halo: Vec<u32> = partition.halo(p).to_vec();
    let num_owned = owned.len() as u32;
    for (i, &v) in owned.iter().enumerate() {
        g2l[v as usize] = i as u32;
    }
    for (j, &u) in halo.iter().enumerate() {
        g2l[u as usize] = num_owned + j as u32;
    }

    // sweep lists: interiors ascending, interfaces color-major
    let mut int_locals = Vec::new();
    let mut int_globals = Vec::new();
    for (i, &v) in owned.iter().enumerate() {
        if !partition.is_interface(v) && dom.is_interior(v) {
            int_locals.push(i as u32);
            int_globals.push(v);
        }
    }
    let mut ifc_color_offsets = Vec::with_capacity(interface_classes.len() + 1);
    ifc_color_offsets.push(0u32);
    let mut ifc_locals = Vec::new();
    let mut ifc_globals = Vec::new();
    for class in interface_classes {
        for &v in class {
            if partition.part_of(v) == p {
                ifc_locals.push(g2l[v as usize]);
                ifc_globals.push(v);
            }
        }
        ifc_color_offsets.push(ifc_locals.len() as u32);
    }

    // all corners of a local element land in owned ∪ halo (a corner is
    // adjacent to the owned star centre)
    for (i, &t) in elem_globals.iter().enumerate() {
        elem_l[t as usize] = i as u32;
    }
    let elem_corners: Vec<[u32; C]> = elem_globals
        .iter()
        .map(|&t| {
            elements[t as usize].map(|c| {
                debug_assert_ne!(g2l[c as usize], u32::MAX, "sweep-star corner outside the block");
                g2l[c as usize]
            })
        })
        .collect();
    let elem_weight: Vec<f64> = elem_globals
        .iter()
        .map(|&t| if stat_owner[t as usize] == p { elem_w[t as usize] } else { 0.0 })
        .collect();

    // CSR rows for both sweep lists, in the global ascending neighbour /
    // incident-element order the serial engine uses
    let build_csr = |globals: &[u32]| {
        let mut nbr_offsets = Vec::with_capacity(globals.len() + 1);
        nbr_offsets.push(0u32);
        let mut nbrs = Vec::new();
        let mut vt_offsets = Vec::with_capacity(globals.len() + 1);
        vt_offsets.push(0u32);
        let mut vt = Vec::new();
        for &v in globals {
            nbrs.extend(dom.neighbors(v).iter().map(|&w| g2l[w as usize]));
            nbr_offsets.push(nbrs.len() as u32);
            vt.extend(dom.elements_of(v).iter().map(|&t| elem_l[t as usize]));
            vt_offsets.push(vt.len() as u32);
        }
        (nbr_offsets, nbrs, vt_offsets, vt)
    };
    let (int_nbr_offsets, int_nbrs, int_vt_offsets, int_vt) = build_csr(&int_globals);
    let (ifc_nbr_offsets, ifc_nbrs, ifc_vt_offsets, ifc_vt) = build_csr(&ifc_globals);

    // halo incidence: which local elements a delivered halo coordinate
    // forces us to re-score
    let mut halo_counts = vec![0u32; halo.len()];
    for corners in &elem_corners {
        for &c in corners {
            if c >= num_owned {
                halo_counts[(c - num_owned) as usize] += 1;
            }
        }
    }
    let mut halo_vt_offsets = Vec::with_capacity(halo.len() + 1);
    halo_vt_offsets.push(0u32);
    for &count in &halo_counts {
        halo_vt_offsets.push(halo_vt_offsets.last().unwrap() + count);
    }
    let mut cursor: Vec<u32> = halo_vt_offsets[..halo.len()].to_vec();
    let mut halo_vt = vec![0u32; *halo_vt_offsets.last().unwrap() as usize];
    for (lt, corners) in elem_corners.iter().enumerate() {
        for &c in corners {
            if c >= num_owned {
                let h = (c - num_owned) as usize;
                halo_vt[cursor[h] as usize] = lt as u32;
                cursor[h] += 1;
            }
        }
    }

    for &t in &elem_globals {
        elem_l[t as usize] = u32::MAX;
    }
    for &v in owned.iter().chain(&halo) {
        g2l[v as usize] = u32::MAX;
    }
    ResidentBlock {
        owned,
        halo,
        num_owned,
        int_locals,
        int_nbr_offsets,
        int_nbrs,
        int_vt_offsets,
        int_vt,
        ifc_color_offsets,
        ifc_locals,
        ifc_nbr_offsets,
        ifc_nbrs,
        ifc_vt_offsets,
        ifc_vt,
        elem_globals,
        elem_corners,
        elem_weight,
        halo_vt_offsets,
        halo_vt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks;
    use crate::config::SmoothParams;
    use lms_mesh::generators;

    #[test]
    fn improves_quality_and_pins_boundary() {
        let m = generators::perturbed_grid(20, 20, 0.4, 1);
        checks::resident_improves_quality_and_pins_boundary(&m, SmoothParams::paper(), 4);
    }

    #[test]
    fn single_part_equals_serial_storage_order() {
        let m = generators::perturbed_grid(14, 14, 0.35, 3);
        let params = SmoothParams::paper().with_smart(true).with_max_iters(6).with_tol(-1.0);
        checks::resident_single_part_equals_serial_storage_order(&m, params);
    }

    #[test]
    fn exchange_volume_counts_one_gather_one_scatter() {
        let m = generators::perturbed_grid(16, 16, 0.35, 5);
        let params = SmoothParams::paper().with_smart(true).with_max_iters(8).with_tol(-1.0);
        let engine = ResidentEngine::by_method(&m, params, 4, PartitionMethod::Rcb);
        let mut work = m.clone();
        let report = engine.smooth(&mut work, 2);
        let volume = report.exchange.unwrap();
        assert_eq!(report.num_iterations(), 8);
        assert_eq!(volume.full_gathers, 1, "resident blocks gather once, not per sweep");
        assert_eq!(volume.full_scatters, 1, "one disjoint write-back at the end");
        assert_eq!(
            volume.exchange_rounds,
            8 * engine.interface_classes().len(),
            "one exchange round per color step per iteration"
        );
        assert!(volume.halo_entries_sent > 0, "multi-part smoothing must exchange halos");
    }

    #[test]
    fn coalesced_messages_respect_plan_and_entry_counts() {
        let m = generators::perturbed_grid(18, 15, 0.35, 7);
        let params = SmoothParams::paper().with_smart(true).with_max_iters(6).with_tol(-1.0);
        let engine = ResidentEngine::by_method(&m, params, 6, PartitionMethod::Hilbert);
        let plan = MessagePlan::build(engine.exchange_schedule());
        let report = engine.smooth(&mut m.clone(), 2);
        let volume = report.exchange.unwrap();
        // a message carries ≥ 1 entry, and one round sends at most one
        // message per directed neighbour pair
        assert!(volume.halo_messages_sent >= 1);
        assert!(volume.halo_messages_sent <= volume.halo_entries_sent);
        assert!(
            volume.halo_messages_sent <= volume.exchange_rounds * plan.num_pairs(),
            "coalescing bound violated: {} messages over {} rounds x {} pairs",
            volume.halo_messages_sent,
            volume.exchange_rounds,
            plan.num_pairs()
        );
        // byte accounting follows the wire formula: per message one frame
        // header, per entry one slot id + one 2D coordinate
        let overhead = lms_part::wire::halo_frame_wire_len(2, 0);
        assert_eq!(
            volume.halo_bytes_sent,
            volume.halo_messages_sent * overhead + volume.halo_entries_sent * (4 + 16),
        );
    }

    #[test]
    fn zero_iterations_touch_nothing() {
        let m = generators::perturbed_grid(10, 10, 0.3, 2);
        let params = SmoothParams::paper().with_max_iters(0);
        let engine = ResidentEngine::by_method(&m, params, 3, PartitionMethod::Hilbert);
        let mut work = m.clone();
        let report = engine.smooth(&mut work, 2);
        assert_eq!(work.coords(), m.coords());
        let volume = report.exchange.unwrap();
        assert_eq!(volume.full_gathers, 0);
        assert_eq!(volume.full_scatters, 0);
    }

    #[test]
    fn rejects_jacobi_params() {
        let m = generators::perturbed_grid(8, 8, 0.2, 1);
        let params = SmoothParams::paper().with_update(UpdateScheme::Jacobi);
        checks::resident_rejects_jacobi_params(&m, params);
    }

    #[test]
    fn part_major_order_covers_interior_once() {
        let m = generators::perturbed_grid(13, 17, 0.3, 9);
        checks::part_major_order_covers_interior_once(&m, SmoothParams::paper(), 5);
    }
}
