//! Resident-block domain-decomposed smoothing with halo-delta exchange —
//! the distributed-memory-shaped engine.
//!
//! The mesh is decomposed with [`lms_part`] and every part's block stays
//! **resident for the whole run**, so no per-sweep full-mesh traffic
//! exists — exactly what a distributed-memory implementation needs:
//!
//! * each part gathers its owned + halo coordinates **once** (the single
//!   full gather) and scores its local elements on them — the
//!   coordinates into a part-local point array, the only coordinate store
//!   its sweeps read:
//!   a smart sweep stages each candidate there, scores the star in place
//!   and puts the old position back on reject;
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
//! halo re-scores. The engine keeps one inverse star size per vertex, not
//! one weight per element, and a block keeps one stat-ownership bit per
//! local element and one inverse star size per local vertex: a rank's
//! stat weights and the drive loop's initial running sum form each `w_t`
//! from its corners' inverse degrees in corner order, the expression the
//! quality cache uses, so every weight has the same bits wherever it is
//! formed. Part deltas fold into
//! a Neumaier-compensated running sum in part order, so reports are
//! bitwise-deterministic for any thread count; it tracks the exact
//! quality to a few ulps, so disable the tolerance (`tol < 0`) when exact
//! sweep-count parity with another engine matters.
//!
//! Determinism and equivalence (property-tested in `tests/resident.rs`):
//! coordinates are **bitwise-deterministic for any thread count** and
//! **bit-identical** to serial Gauss–Seidel under the part-major visit
//! order ([`ResidentEngineOn::part_major_visit_order`]).
//!
//! The engine is written once, generic over the mesh dimension
//! ([`SmoothMesh`]): [`ResidentEngine`] is the triangle-mesh alias,
//! `lms_mesh3d::ResidentEngine3` the tetrahedral one. Construction builds
//! no serial engine and no visit order: it classifies the boundary of
//! the handed adjacency, colours the interface
//! ([`crate::engine::interior_color_classes`]) and builds the blocks in
//! two stages around the adjacency's lifetime. The first stage reads the
//! topology — it deals the elements to the parts and copies each block's
//! sweep lists and CSR rows; then the adjacency and the boundary are
//! dropped, and the second stage fills each block's corner table, stat
//! ownership, inverse degrees and halo incidence from the element table
//! alone. So the adjacency and the finished blocks are never live
//! together, and a built engine keeps only what its runs read — the
//! blocks, the partition, the exchange schedule, the interface classes,
//! the inverse degrees, the mesh's shared element table and the
//! parameters. Runs score through the topology-free
//! [`SmoothMesh::Scoring`] view; no global adjacency, boundary or visit
//! order outlives setup, and no run holds a table with one entry per
//! element (each rank scores its own block at the gather, and the drive
//! loop streams the global quality through a per-vertex scatter).

use crate::config::UpdateScheme;
use crate::dcache::{element_weight, inverse_degrees};
use crate::domain::{DomainConfig, DomainPoint, ScoringDomain, SmoothDomain};
use crate::engine::{assert_adjacency_fits, interior_color_classes, SmoothMesh};
use crate::kernel::{score_all_rows, score_ids_into, sweep, StarLedger};
use crate::pool::PoolCache;
use crate::soa::SoaScores;
use crate::stats::SmoothReport;
use crate::transport::{drive_resident_ft, drive_resident_ft_with, FtPolicy, InProcessTransport};
use lms_mesh::vec_bytes;
use lms_part::wire::{write_block_frame, Frame, WireError};
use lms_part::{ExchangeSchedule, MessagePlan, Partition, PartitionMethod};
use lms_trace::{now_ns, PhaseBreakdown, RankPhaseNanos, Recorder};
use std::sync::Arc;

/// Domain-decomposed Gauss–Seidel smoothing over blocks that stay
/// resident for the whole run, with halo-delta exchange between interface
/// color steps — one body for every mesh dimension, generic over the mesh
/// type `M`. See the module docs for the protocol; use the
/// [`ResidentEngine`] / `lms_mesh3d::ResidentEngine3` aliases.
#[derive(Debug, Clone)]
pub struct ResidentEngineOn<const C: usize, const D: usize, M: SmoothMesh<C, D>> {
    params: M::Params,
    /// The mesh's element table, shared with it (see
    /// [`SmoothMesh::shared_elements`]) — what the runs' global scoring
    /// passes read.
    elements: Arc<Vec<[u32; C]>>,
    /// The decomposition; its length is the engine's vertex count.
    partition: Partition,
    schedule: ExchangeSchedule,
    /// Interface vertices (mesh-interior) grouped by global color class —
    /// the engine's interior color classes restricted to the interface,
    /// empty classes dropped.
    interface_classes: Vec<Vec<u32>>,
    blocks: Vec<ResidentBlock<C>>,
    /// Inverse star size `1/deg_t(v)` per vertex — what every run forms
    /// the global element weights `w_t` of its initial running sum from;
    /// computed once at construction.
    inv_deg: Vec<f64>,
    /// Cached persistent worker pool (spawned once per engine lifetime).
    pool: PoolCache,
}

/// Resident halo-exchange smoothing of triangle meshes.
pub type ResidentEngine = ResidentEngineOn<3, 2, lms_mesh::TriMesh>;

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

/// `u32` sections of a block frame: the block's 16 index arrays in
/// [`ResidentBlock::u32_vecs`] order, its corner table flattened, then
/// its part's exchange-schedule row (offsets, flattened entries).
const BLOCK_SECTIONS: usize = 19;

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
    /// One bit per local element, 64 to a word: set when this part
    /// stat-owns the element (it owns the element's smallest movable
    /// corner); see [`StatWeights::get`].
    stat_owned: Vec<u64>,
    /// Inverse star size `1/deg_t(v)` per local vertex, owned then halo —
    /// what the stat weights are formed from.
    inv_deg: Vec<f64>,
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

    /// What the block's stat weights are formed from.
    pub(crate) fn stat_weights(&self) -> StatWeights<'_, C> {
        StatWeights { owned: &self.stat_owned, inv_deg: &self.inv_deg, corners: &self.elem_corners }
    }

    /// Bytes the block owns on the heap.
    pub fn heap_bytes(&self) -> usize {
        self.u32_vecs().into_iter().map(|(_, v)| vec_bytes(v)).sum::<usize>()
            + vec_bytes(&self.elem_corners)
            + vec_bytes(&self.stat_owned)
            + vec_bytes(&self.inv_deg)
    }

    /// Every `u32` vector of the block, by field name.
    fn u32_vecs(&self) -> [(&'static str, &Vec<u32>); 16] {
        [
            ("owned", &self.owned),
            ("halo", &self.halo),
            ("int_locals", &self.int_locals),
            ("int_nbr_offsets", &self.int_nbr_offsets),
            ("int_nbrs", &self.int_nbrs),
            ("int_vt_offsets", &self.int_vt_offsets),
            ("int_vt", &self.int_vt),
            ("ifc_color_offsets", &self.ifc_color_offsets),
            ("ifc_locals", &self.ifc_locals),
            ("ifc_nbr_offsets", &self.ifc_nbr_offsets),
            ("ifc_nbrs", &self.ifc_nbrs),
            ("ifc_vt_offsets", &self.ifc_vt_offsets),
            ("ifc_vt", &self.ifc_vt),
            ("elem_globals", &self.elem_globals),
            ("halo_vt_offsets", &self.halo_vt_offsets),
            ("halo_vt", &self.halo_vt),
        ]
    }

    /// `(field, len, capacity)` of every vector of the block — what the
    /// exact-size property reads.
    pub(crate) fn vec_shapes(&self) -> Vec<(&'static str, usize, usize)> {
        let mut shapes: Vec<_> =
            self.u32_vecs().into_iter().map(|(name, v)| (name, v.len(), v.capacity())).collect();
        shapes.push(("elem_corners", self.elem_corners.len(), self.elem_corners.capacity()));
        shapes.push(("stat_owned", self.stat_owned.len(), self.stat_owned.capacity()));
        shapes.push(("inv_deg", self.inv_deg.len(), self.inv_deg.capacity()));
        shapes
    }

    /// Write this block, as part `part` of `schedule`'s decomposition, and
    /// that part's schedule row as one `Frame::Block`: everything a rank
    /// needs to build its [`ResidentRank`]. Encoded from the block's own
    /// vectors, so the encoded payload is the only copy made.
    pub fn write_frame<W: std::io::Write>(
        &self,
        w: &mut W,
        part: u32,
        schedule: &ExchangeSchedule,
    ) -> std::io::Result<()> {
        let (offsets, targets) = schedule.row(part);
        let targets: Vec<u32> = targets.iter().flat_map(|&(q, slot)| [q, slot]).collect();
        let mut sections: Vec<&[u32]> = self.u32_vecs().iter().map(|(_, v)| v.as_slice()).collect();
        sections.extend([self.elem_corners.as_flattened(), offsets, &targets]);
        let num_parts = schedule.num_parts() as u32;
        write_block_frame(w, part, num_parts, C as u8, &sections, &self.stat_owned, &self.inv_deg)
    }

    /// Decode the block and schedule row [`write_frame`](Self::write_frame)
    /// wrote for part `part`, checking every section against the others
    /// and against a mesh of `num_vertices` vertices and `num_elements`
    /// elements, so that the decoded block is one a rank can sweep: it
    /// equals the block that was written, and the schedule row equals
    /// that part's row of the written schedule.
    ///
    /// # Errors
    /// [`WireError::BadBlock`] naming the first violated check: a frame
    /// that is not a block, or is for another part or corner count; a
    /// section count or length that disagrees with the others; an id out
    /// of range; an unsorted id list.
    pub fn from_frame(
        frame: Frame,
        part: u32,
        num_vertices: usize,
        num_elements: usize,
    ) -> Result<(Self, ExchangeSchedule), WireError> {
        let bad = |what| Err(WireError::BadBlock(what));
        let Frame::Block { part: got, num_parts, corners, sections, bits, values } = frame else {
            return bad("expected a block frame");
        };
        if got != part || part >= num_parts {
            return bad("block frame is for another part");
        }
        if corners as usize != C {
            return bad("element corner count differs");
        }
        let Ok(sections): Result<[Vec<u32>; BLOCK_SECTIONS], _> = sections.try_into() else {
            return bad("section count differs");
        };
        let [owned, halo, int_locals, int_nbr_offsets, int_nbrs, int_vt_offsets, int_vt, ifc_color_offsets, ifc_locals, ifc_nbr_offsets, ifc_nbrs, ifc_vt_offsets, ifc_vt, elem_globals, halo_vt_offsets, halo_vt, corners, send_offsets, send_targets] =
            sections;

        let ascending_below = |ids: &[u32], bound: usize| {
            ids.windows(2).all(|w| w[0] < w[1]) && ids.last().is_none_or(|&v| (v as usize) < bound)
        };
        if !ascending_below(&owned, num_vertices) || !ascending_below(&halo, num_vertices) {
            return bad("owned or halo ids unsorted or out of range");
        }
        if !ascending_below(&elem_globals, num_elements) {
            return bad("element ids unsorted or out of range");
        }
        let (num_owned, num_local, num_elem) =
            (owned.len(), owned.len() + halo.len(), elem_globals.len());
        if u32::try_from(num_local).is_err() {
            return bad("block too large for u32 local ids");
        }
        let below = |ids: &[u32], bound: usize| ids.iter().all(|&i| (i as usize) < bound);
        let offsets_ok = |offsets: &[u32], rows: usize, len: usize| {
            offsets.len() == rows + 1
                && offsets[0] == 0
                && offsets.windows(2).all(|w| w[0] <= w[1])
                && offsets[rows] as usize == len
        };
        let rows_ok =
            |locals: &[u32], nbr_offsets: &[u32], nbrs: &[u32], vt_offsets: &[u32], vt: &[u32]| {
                below(locals, num_owned)
                    && offsets_ok(nbr_offsets, locals.len(), nbrs.len())
                    && below(nbrs, num_local)
                    && offsets_ok(vt_offsets, locals.len(), vt.len())
                    && below(vt, num_elem)
            };
        if !rows_ok(&int_locals, &int_nbr_offsets, &int_nbrs, &int_vt_offsets, &int_vt) {
            return bad("interior sweep rows out of range");
        }
        if ifc_color_offsets.is_empty()
            || !offsets_ok(&ifc_color_offsets, ifc_color_offsets.len() - 1, ifc_locals.len())
        {
            return bad("interface color offsets are not a CSR over the interface list");
        }
        if !rows_ok(&ifc_locals, &ifc_nbr_offsets, &ifc_nbrs, &ifc_vt_offsets, &ifc_vt) {
            return bad("interface sweep rows out of range");
        }
        if corners.len() != num_elem * C || !below(&corners, num_local) {
            return bad("corner table length or ids out of range");
        }
        if bits.len() != num_elem.div_ceil(64)
            || (num_elem % 64 != 0 && bits.last().is_some_and(|&w| w >> (num_elem % 64) != 0))
        {
            return bad("stat-ownership bits do not match the element count");
        }
        if values.len() != num_local {
            return bad("inverse degrees do not match the local vertex count");
        }
        if !offsets_ok(&halo_vt_offsets, halo.len(), halo_vt.len()) || !below(&halo_vt, num_elem) {
            return bad("halo incidence rows out of range");
        }
        if send_targets.len() % 2 != 0 || send_offsets.len() != num_owned + 1 {
            return bad("schedule row does not match the owned vertices");
        }
        let targets = send_targets.chunks_exact(2).map(|e| (e[0], e[1])).collect();
        let schedule = ExchangeSchedule::from_row(num_parts as usize, part, send_offsets, targets)?;
        let block = ResidentBlock {
            num_owned: num_owned as u32,
            owned,
            halo,
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
            elem_corners: corners.chunks_exact(C).map(|c| c.try_into().expect("C ids")).collect(),
            stat_owned: bits,
            inv_deg: values,
            halo_vt_offsets,
            halo_vt,
        };
        Ok((block, schedule))
    }
}

/// A block's stat-ownership bits, local inverse degrees and corner
/// table, borrowed as slices so that a sweep's ledger holds them itself:
/// a ledger that reached them through the block re-read the vectors'
/// headers at every commit, and its resident sweeps ran ~30 % slower.
#[derive(Clone, Copy)]
pub(crate) struct StatWeights<'b, const C: usize> {
    owned: &'b [u64],
    inv_deg: &'b [f64],
    corners: &'b [[u32; C]],
}

impl<const C: usize> StatWeights<'_, C> {
    /// Whether the part stat-owns local element `i`.
    #[inline(always)]
    pub(crate) fn owns(&self, i: usize) -> bool {
        self.owned[i / 64] >> (i % 64) & 1 != 0
    }

    /// The stat weight of local element `i`: its weight `w_t`, formed from
    /// the block's inverse degrees in corner order, when the part
    /// stat-owns it, `0.0` otherwise — multiplying score deltas by this
    /// folds each element's quality change into exactly one part's
    /// accumulator.
    #[inline(always)]
    pub(crate) fn get(&self, i: usize) -> f64 {
        if self.owns(i) {
            element_weight(self.inv_deg, &self.corners[i])
        } else {
            0.0
        }
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
/// The sweeps run the serial hot path's one step ([`crate::kernel`]), so
/// commit decisions (hence coordinates) stay bit-identical.
pub struct ResidentRank<'a, const C: usize, D: ScoringDomain<C>> {
    dom: &'a D,
    cfg: DomainConfig,
    part: u32,
    block: &'a ResidentBlock<C>,
    schedule: &'a ExchangeSchedule,
    /// Dense destination-part → outbox-batch index map (`u32::MAX` for
    /// non-neighbours), built from the [`MessagePlan`].
    batch_of: Vec<u32>,
    /// Local coordinates: owned then halo — the point slice the sweeps
    /// stage candidates in and the lane-batched kernels gather from.
    coords: Vec<D::Point>,
    /// Local `(quality, positively_oriented)` per local element, split
    /// into a quality column and an orientation column.
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
    /// Accumulated phase timings + interface-commit count while `timing`
    /// (what [`route_moved`](Self::route_moved) publishes).
    phases: RankPhaseNanos,
    /// Per-source-part routing (pull + stash) nanos while `timing`,
    /// lazily sized to the published part count.
    route_ns: Vec<u64>,
}

impl<'a, const C: usize, D: ScoringDomain<C>> ResidentRank<'a, C, D> {
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
            cfg: *cfg,
            part,
            block,
            schedule,
            batch_of,
            coords: vec![D::Point::ZERO; block.owned.len() + block.halo.len()],
            scores: SoaScores::with_len(block.elem_globals.len()),
            delta: 0.0,
            round_moved: Vec::new(),
            iter_dirty: Vec::new(),
            dirty_mark: vec![false; block.elem_globals.len()],
            star: Vec::new(),
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

    /// The one full gather from the global coordinate array: all owned +
    /// halo coordinates, then every local element scored on them — the
    /// same corner points as on the global array, so the same bits as a
    /// global scoring pass, with no global score table.
    pub fn load_global(&mut self, coords: &[D::Point]) {
        self.reset_transient();
        for (slot, &v) in
            self.coords.iter_mut().zip(self.block.owned.iter().chain(&self.block.halo))
        {
            *slot = coords[v as usize];
        }
        self.score_all_elements();
    }

    /// Score every local element on the current coordinates into the
    /// score columns, in ascending local order ([`score_all_rows`]). Not
    /// counted as sweep scoring.
    fn score_all_elements(&mut self) {
        let (scores, corners) = (&mut self.scores, &self.block.elem_corners);
        let mut i = 0;
        score_all_rows(self.dom, &self.coords, corners, self.cfg.scalar_scoring, |s| {
            scores.set(i, s);
            i += 1;
        });
    }

    /// The one full gather from a wire payload
    /// ([`lms_part::wire::Frame::Gather`]): `fill` writes the owned then
    /// halo coordinates, in block-local order, into the rank's own
    /// coordinate array, then every local element is scored on them, as
    /// in [`load_global`](Self::load_global) — no score crosses the wire.
    ///
    /// Loading fully defines the rank's run state: at an iteration
    /// boundary a rank is exactly its coordinates plus the scores they
    /// give, plus empty transient buffers, so a mid-iteration survivor
    /// re-loaded from a recovery checkpoint returns bit-identically to
    /// that boundary. If `fill` fails, its error is returned and the rank
    /// holds no defined state until its next load.
    pub fn load_with<E>(
        &mut self,
        fill: impl FnOnce(&mut [D::Point]) -> Result<(), E>,
    ) -> Result<(), E> {
        self.reset_transient();
        fill(&mut self.coords)?;
        self.score_all_elements();
        Ok(())
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
        self.sweep_span(SweepSpan::Interior, 0..self.block.int_locals.len(), false);
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
        self.sweep_span(SweepSpan::Interface, range, true);
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
            self.coords[dst as usize] = pos;
            let h = (dst - self.block.num_owned) as usize;
            let row = &self.block.halo_vt[self.block.halo_vt_offsets[h] as usize
                ..self.block.halo_vt_offsets[h + 1] as usize];
            let queue = if self.cfg.smart { &mut self.apply_dirty } else { &mut self.iter_dirty };
            for &lt in row {
                if !self.dirty_mark[lt as usize] {
                    self.dirty_mark[lt as usize] = true;
                    queue.push(lt);
                }
            }
        }
        self.inbox.clear();
        if self.cfg.smart {
            let mut queue = std::mem::take(&mut self.apply_dirty);
            queue.sort_unstable();
            self.rescore_elements(&queue);
            queue.clear();
            self.apply_dirty = queue;
        }
    }

    /// Re-score the local elements in `queue` (ascending), folding the
    /// weighted quality deltas into the stat accumulator in queue order
    /// and clearing the dirty marks — the shared tail of the smart
    /// post-delivery re-score and the plain end-of-iteration re-score.
    fn rescore_elements(&mut self, queue: &[u32]) {
        if queue.is_empty() {
            return;
        }
        let (block, scalar) = (self.block, self.cfg.scalar_scoring);
        let (pts, corners) = (&self.coords, &block.elem_corners);
        let fresh = score_ids_into(self.dom, pts, corners, queue, scalar, &mut self.star);
        self.scored += queue.len() as u64;
        let weights = block.stat_weights();
        for (&lt, &(q, pos)) in queue.iter().zip(fresh) {
            let i = lt as usize;
            self.delta += weights.get(i) * (q - self.scores.q(i));
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
                batch.coords.push(self.coords[lv as usize]);
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
        if self.cfg.smart {
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

    /// The owned vertices' current coordinates, in block-local order —
    /// the scatter payload at the transport boundary.
    #[inline]
    pub fn owned_coords(&self) -> &[D::Point] {
        &self.coords[..self.block.num_owned as usize]
    }

    /// Sweep the entries `range` of one span through the shared step
    /// ([`crate::kernel::sweep`]) on the local point slice, recording the
    /// moved vertices when `record_moved`.
    fn sweep_span(&mut self, span: SweepSpan, range: std::ops::Range<usize>, record_moved: bool) {
        let block = self.block;
        let mut ledger = RankLedger {
            rows: span.arrays(block),
            weights: block.stat_weights(),
            scores: &mut self.scores,
            delta: &mut self.delta,
            dirty_mark: &mut self.dirty_mark,
            iter_dirty: &mut self.iter_dirty,
            round_moved: record_moved.then_some(&mut self.round_moved),
        };
        let (corners, pts) = (&block.elem_corners, &mut self.coords[..]);
        let scored = sweep(self.dom, corners, &self.cfg, range, pts, &mut ledger, &mut self.star);
        self.scored += scored;
    }
}

/// A rank's ledger for one span sweep: rows from the block's CSR,
/// "before" from the block scores. A smart commit folds `w_t·Δq` into the
/// part's stat delta and stores the star's scores; a plain move queues
/// the star for the iteration-end re-score. Interface spans record every
/// move for the round's exchange.
struct RankLedger<'r, 's, const C: usize> {
    rows: SpanRows<'r>,
    weights: StatWeights<'r, C>,
    scores: &'s mut SoaScores,
    delta: &'s mut f64,
    dirty_mark: &'s mut [bool],
    iter_dirty: &'s mut Vec<u32>,
    round_moved: Option<&'s mut Vec<u32>>,
}

impl<'r, P, const C: usize> StarLedger<'r, P> for RankLedger<'r, '_, C> {
    const IN_PLACE: bool = true;

    #[inline(always)]
    fn row(&self, si: usize) -> (u32, &'r [u32], &'r [u32]) {
        let (locals, nbr_offsets, nbrs, vt_offsets, vt) = self.rows;
        (
            locals[si],
            &nbrs[nbr_offsets[si] as usize..nbr_offsets[si + 1] as usize],
            &vt[vt_offsets[si] as usize..vt_offsets[si + 1] as usize],
        )
    }

    #[inline(always)]
    fn before(&self, lt: u32) -> (f64, bool) {
        let (q, pos) = self.scores.get(lt as usize);
        (if pos { q } else { 0.0 }, pos)
    }

    #[inline(always)]
    fn commit(&mut self, lv: u32, _candidate: P, ts: &[u32], scores: &[(f64, bool)]) {
        for (&lt, &(q_new, pos_new)) in ts.iter().zip(scores) {
            let i = lt as usize;
            *self.delta += self.weights.get(i) * (q_new - self.scores.q(i));
            self.scores.set(i, (q_new, pos_new));
        }
        if let Some(moved) = &mut self.round_moved {
            moved.push(lv);
        }
    }

    #[inline(always)]
    fn moved(&mut self, lv: u32, _candidate: P, ts: &[u32]) {
        for &lt in ts {
            if !self.dirty_mark[lt as usize] {
                self.dirty_mark[lt as usize] = true;
                self.iter_dirty.push(lt);
            }
        }
        if let Some(moved) = &mut self.round_moved {
            moved.push(lv);
        }
    }
}

/// Build every part's resident topology for a domain + decomposition +
/// interface color classes. Also returns the inverse star size
/// `1/deg_t(v)` of every vertex, which [`ResidentEngineOn::smooth`] forms
/// the initial running sum's element weights from — computed here once
/// instead of once per run.
///
/// The same two stages as [`ResidentEngineOn::with_adjacency`]: the
/// first reads `dom`'s topology, the second only its element table (the
/// engine drops its adjacency between them; here `dom` simply outlives
/// both).
///
/// Cost `O(C·T + Σ block size)`, no sort: one pass over the elements in
/// index order deals each to the part of every mesh-interior corner, so
/// every block's element list is ascending by construction. Every block
/// vector is allocated at its final length (counts are taken before the
/// fill), so a block holds no growth slack for the whole run.
pub fn build_resident_blocks<const C: usize, D: SmoothDomain<C>>(
    dom: &D,
    partition: &Partition,
    interface_classes: &[Vec<u32>],
) -> (Vec<ResidentBlock<C>>, Vec<f64>) {
    deal_blocks(dom, partition, interface_classes).finish(dom.elements())
}

/// What the first stage of the block build leaves for the second: every
/// block with its sweep lists, CSR rows and element list filled and its
/// element-table fields (corners, stat ownership, inverse degrees, halo
/// incidence) still empty, plus each element's stat owner and every
/// vertex's inverse degree. It borrows nothing, so the topology the first
/// stage read can be dropped before the second runs.
struct DealtBlocks<const C: usize> {
    blocks: Vec<ResidentBlock<C>>,
    /// Per element: the part owning its smallest mesh-interior (movable)
    /// corner, `u32::MAX` for an element with none.
    stat_owner: Vec<u32>,
    inv_deg: Vec<f64>,
}

/// Stage 1, while the topology is live: find every element's stat
/// owner, deal the elements to the parts and copy each block's sweep
/// lists and CSR rows.
fn deal_blocks<const C: usize, D: SmoothDomain<C>>(
    dom: &D,
    partition: &Partition,
    interface_classes: &[Vec<u32>],
) -> DealtBlocks<C> {
    let n = dom.num_vertices();
    let elements = dom.elements();
    let inv_deg = inverse_degrees(dom);

    // One pass over the elements in index order finds each one's stat
    // owner — the part owning its smallest mesh-interior (movable)
    // corner; unchangeable elements have none — and counts the local
    // element set of every part that sweeps one of its corners; a
    // second pass deals the elements into lists reserved at those
    // counts. A block sweeps exactly its owned mesh-interior vertices,
    // and an element's visits to a part are consecutive, so comparing
    // with the part's last element is all the deduplication there is.
    let num_parts = partition.num_parts() as usize;
    let mut stat_owner = Vec::with_capacity(elements.len());
    let mut counts = vec![0usize; num_parts];
    let mut last = vec![u32::MAX; num_parts];
    for (t, element) in elements.iter().enumerate() {
        let mut smallest = None;
        for &c in element {
            if dom.is_interior(c) {
                smallest = Some(smallest.map_or(c, |s: u32| s.min(c)));
                let p = partition.part_of(c) as usize;
                if last[p] != t as u32 {
                    last[p] = t as u32;
                    counts[p] += 1;
                }
            }
        }
        stat_owner.push(smallest.map_or(u32::MAX, |v| partition.part_of(v)));
    }
    let mut part_elems: Vec<Vec<u32>> = counts.into_iter().map(Vec::with_capacity).collect();
    for (t, element) in elements.iter().enumerate() {
        for &c in element {
            if dom.is_interior(c) {
                let list = &mut part_elems[partition.part_of(c) as usize];
                if list.last() != Some(&(t as u32)) {
                    list.push(t as u32);
                }
            }
        }
    }

    let mut g2l = vec![u32::MAX; n];
    let mut elem_l = vec![u32::MAX; elements.len()];
    let blocks = (0..partition.num_parts())
        .zip(part_elems)
        .map(|(p, elem_globals)| {
            deal_block(dom, partition, interface_classes, p, elem_globals, &mut g2l, &mut elem_l)
        })
        .collect();
    DealtBlocks { blocks, stat_owner, inv_deg }
}

impl<const C: usize> DealtBlocks<C> {
    /// Stage 2, from the element table alone: fill every block's corner
    /// table, stat-ownership bits, local inverse degrees and halo
    /// incidence. Returns the finished blocks and the per-vertex inverse
    /// degrees.
    fn finish(self, elements: &[[u32; C]]) -> (Vec<ResidentBlock<C>>, Vec<f64>) {
        let DealtBlocks { mut blocks, stat_owner, inv_deg } = self;
        let mut g2l = vec![u32::MAX; inv_deg.len()];
        for (p, block) in blocks.iter_mut().enumerate() {
            finish_block(block, p as u32, elements, &stat_owner, &inv_deg, &mut g2l);
        }
        (blocks, inv_deg)
    }
}

impl<const C: usize, const D: usize, M: SmoothMesh<C, D>> ResidentEngineOn<C, D, M> {
    /// Build a resident engine for `mesh` under `params` and an
    /// existing decomposition (Gauss–Seidel parameters only): builds the
    /// adjacency and hands it to [`with_adjacency`](Self::with_adjacency).
    pub fn new(mesh: &M, params: M::Params, partition: Partition) -> Self {
        Self::with_adjacency(mesh, mesh.build_adjacency(), params, partition)
    }

    /// Build a resident engine around an adjacency the caller
    /// already holds (typically the one the partition was computed from)
    /// — *the* constructor; [`by_method`](Self::by_method) and
    /// [`new`](Self::new) both end here. The boundary of `adj`, its
    /// interior color classes and the topology half of the blocks come
    /// from `adj`; it is dropped, boundary included, before the blocks'
    /// element tables are built, so the two are never live together.
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
        assert_adjacency_fits(mesh, &adj);
        assert_eq!(
            partition.len(),
            mesh.coords().len(),
            "partition was built for a different mesh"
        );
        assert_eq!(
            M::domain_config(&params).update,
            UpdateScheme::GaussSeidel,
            "resident smoothing is an in-place (Gauss-Seidel) schedule; \
             run Jacobi on the serial engine (Backend::Serial)"
        );
        let elements = Arc::clone(mesh.shared_elements());
        let boundary = mesh.boundary(&adj);
        let (interface_classes, dealt) = {
            let dom = M::domain(&adj, &boundary, &elements, &params);
            let mut classes = interface_classes(&interior_color_classes(&adj, &dom), &partition);
            classes.shrink_to_fit();
            let dealt = deal_blocks(&dom, &partition, &classes);
            (classes, dealt)
        };
        // no run reads the topology: it goes before the second stage
        // allocates the blocks' element tables
        drop((adj, boundary));
        let schedule = ExchangeSchedule::build(&partition);
        let (blocks, inv_deg) = dealt.finish(&elements);
        ResidentEngineOn {
            params,
            elements,
            partition,
            schedule,
            interface_classes,
            blocks,
            inv_deg,
            pool: PoolCache::new(),
        }
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
        let partition = lms_part::partition_mesh(mesh, &adj, num_parts, method);
        Self::with_adjacency(mesh, adj, params, partition)
    }

    /// The engine's parameters.
    pub fn params(&self) -> &M::Params {
        &self.params
    }

    /// The dimension-free slice of the engine's parameters.
    pub fn domain_config(&self) -> DomainConfig {
        M::domain_config(&self.params)
    }

    /// The topology-free scoring view (vertex count, the mesh's shared
    /// element table, metric) the runs score through.
    pub fn scoring(&self) -> M::Scoring<'_> {
        M::scoring(self.partition.len(), &self.elements, &self.params)
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

    /// The inverse star size `1/deg_t(v)` of every vertex — what the
    /// drive loop forms the element weights `w_t` of the quality
    /// functional from.
    pub fn inv_degrees(&self) -> &[f64] {
        &self.inv_deg
    }

    /// Bytes the engine owns on the heap: the partition, the exchange
    /// schedule, the interface classes, every block and the inverse
    /// degrees. The element table is the mesh's, shared rather than
    /// copied, and a ledger counts it once, with the mesh.
    pub fn heap_bytes(&self) -> usize {
        self.partition.heap_bytes()
            + self.schedule.heap_bytes()
            + vec_bytes(&self.interface_classes)
            + self.interface_classes.iter().map(vec_bytes).sum::<usize>()
            + vec_bytes(&self.blocks)
            + self.blocks.iter().map(ResidentBlock::heap_bytes).sum::<usize>()
            + vec_bytes(&self.inv_deg)
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
        let pool = self.pool.get(num_threads);
        let (dom, cfg) = (self.scoring(), self.domain_config());
        let mut transport =
            InProcessTransport::new(&dom, &cfg, &self.blocks, &self.schedule, &pool);
        let colors = self.interface_classes.len();
        let coords = self.checked_coords(mesh);
        drive_resident_ft(
            &dom,
            &cfg,
            &self.inv_deg,
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
        let pool = self.pool.get(num_threads);
        let (dom, cfg) = (self.scoring(), self.domain_config());
        let mut transport =
            InProcessTransport::new(&dom, &cfg, &self.blocks, &self.schedule, &pool);
        transport.set_profiling(true);
        let mut recorder = Recorder::new(0);
        let colors = self.interface_classes.len();
        let coords = self.checked_coords(mesh);
        let (mut report, _) = drive_resident_ft_with(
            &dom,
            &cfg,
            &self.inv_deg,
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

/// One span's sweep list and CSR rows: locals, neighbour offsets and
/// ids, incident-element offsets and ids.
type SpanRows<'r> = (&'r [u32], &'r [u32], &'r [u32], &'r [u32], &'r [u32]);

impl SweepSpan {
    fn arrays<const C: usize>(self, block: &ResidentBlock<C>) -> SpanRows<'_> {
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

/// Stage 1 of one part's resident topology around its local element set
/// `elem_globals` (every element incident to one of the part's sweep
/// vertices, ascending): the sweep lists and their CSR rows, in the
/// global ascending neighbour / incident-element order the serial engine
/// uses. The element-table fields stay empty for [`finish_block`]. `g2l`
/// and `elem_l` are `u32::MAX`-filled scratch maps of global→local ids,
/// restored before returning.
fn deal_block<const C: usize, D: SmoothDomain<C>>(
    dom: &D,
    partition: &Partition,
    interface_classes: &[Vec<u32>],
    p: u32,
    elem_globals: Vec<u32>,
    g2l: &mut [u32],
    elem_l: &mut [u32],
) -> ResidentBlock<C> {
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
    let sweeps_interior = |v: u32| !partition.is_interface(v) && dom.is_interior(v);
    let num_int = owned.iter().filter(|&&v| sweeps_interior(v)).count();
    let mut int_locals = Vec::with_capacity(num_int);
    let mut int_globals = Vec::with_capacity(num_int);
    for (i, &v) in owned.iter().enumerate() {
        if sweeps_interior(v) {
            int_locals.push(i as u32);
            int_globals.push(v);
        }
    }
    let mut ifc_color_offsets = Vec::with_capacity(interface_classes.len() + 1);
    ifc_color_offsets.push(0u32);
    let num_ifc =
        interface_classes.iter().flatten().filter(|&&v| partition.part_of(v) == p).count();
    let mut ifc_locals = Vec::with_capacity(num_ifc);
    let mut ifc_globals = Vec::with_capacity(num_ifc);
    for class in interface_classes {
        for &v in class {
            if partition.part_of(v) == p {
                ifc_locals.push(g2l[v as usize]);
                ifc_globals.push(v);
            }
        }
        ifc_color_offsets.push(ifc_locals.len() as u32);
    }

    for (i, &t) in elem_globals.iter().enumerate() {
        elem_l[t as usize] = i as u32;
    }
    let build_csr = |globals: &[u32]| {
        let mut nbr_offsets = Vec::with_capacity(globals.len() + 1);
        nbr_offsets.push(0u32);
        let mut nbrs = Vec::with_capacity(globals.iter().map(|&v| dom.neighbors(v).len()).sum());
        let mut vt_offsets = Vec::with_capacity(globals.len() + 1);
        vt_offsets.push(0u32);
        let mut vt = Vec::with_capacity(globals.iter().map(|&v| dom.elements_of(v).len()).sum());
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
        elem_corners: Vec::new(),
        stat_owned: Vec::new(),
        inv_deg: Vec::new(),
        halo_vt_offsets: Vec::new(),
        halo_vt: Vec::new(),
    }
}

/// Stage 2 of part `p`'s resident topology, from the element table, the
/// per-element stat owners and the per-vertex inverse degrees alone: the
/// local corner table, the stat-ownership bits, the local inverse degrees
/// and the halo incidence. `g2l` is a `u32::MAX`-filled scratch map of
/// global→local vertex ids, restored before returning.
fn finish_block<const C: usize>(
    block: &mut ResidentBlock<C>,
    p: u32,
    elements: &[[u32; C]],
    stat_owner: &[u32],
    inv_deg: &[f64],
    g2l: &mut [u32],
) {
    let (num_owned, num_halo) = (block.num_owned, block.halo.len());
    for (i, &v) in block.owned.iter().chain(&block.halo).enumerate() {
        g2l[v as usize] = i as u32;
    }
    // all corners of a local element land in owned ∪ halo (a corner is
    // adjacent to the owned star centre)
    block.elem_corners = block
        .elem_globals
        .iter()
        .map(|&t| {
            elements[t as usize].map(|c| {
                debug_assert_ne!(g2l[c as usize], u32::MAX, "sweep-star corner outside the block");
                g2l[c as usize]
            })
        })
        .collect();
    let mut stat_owned = vec![0u64; block.elem_globals.len().div_ceil(64)];
    for (i, &t) in block.elem_globals.iter().enumerate() {
        if stat_owner[t as usize] == p {
            stat_owned[i / 64] |= 1 << (i % 64);
        }
    }
    block.stat_owned = stat_owned;
    block.inv_deg = block.owned.iter().chain(&block.halo).map(|&v| inv_deg[v as usize]).collect();

    // halo incidence: which local elements a delivered halo coordinate
    // forces us to re-score
    let mut halo_vt_offsets = vec![0u32; num_halo + 1];
    for corners in &block.elem_corners {
        for &c in corners {
            if c >= num_owned {
                halo_vt_offsets[(c - num_owned) as usize + 1] += 1;
            }
        }
    }
    for h in 0..num_halo {
        halo_vt_offsets[h + 1] += halo_vt_offsets[h];
    }
    let mut cursor: Vec<u32> = halo_vt_offsets[..num_halo].to_vec();
    let mut halo_vt = vec![0u32; halo_vt_offsets[num_halo] as usize];
    for (lt, corners) in block.elem_corners.iter().enumerate() {
        for &c in corners {
            if c >= num_owned {
                let h = (c - num_owned) as usize;
                halo_vt[cursor[h] as usize] = lt as u32;
                cursor[h] += 1;
            }
        }
    }
    block.halo_vt_offsets = halo_vt_offsets;
    block.halo_vt = halo_vt;

    for &v in block.owned.iter().chain(&block.halo) {
        g2l[v as usize] = u32::MAX;
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
