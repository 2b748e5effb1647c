//! The halo-exchange schedule: the precomputed communication pattern of a
//! resident (distributed-memory-shaped) smoothing run.
//!
//! A part that keeps its block resident across sweeps no longer re-gathers
//! the whole mesh between iterations — it only needs the *current*
//! positions of its **halo** (ghost) vertices, each of which is owned — and
//! updated — by exactly one neighbouring part. The schedule materialises
//! that dependency once, from the ghost-vertex `local_of` maps of the
//! [`Partition`]: for every owned vertex that appears in some other part's
//! halo, the list of `(destination part, destination local index)` slots
//! its new coordinate must be delivered to.
//!
//! The schedule is the *superset* of what any one exchange round moves: at
//! run time the engine routes only the entries of vertices that **actually
//! moved** in the round (smart smoothing rejects many candidates, and a
//! color step only touches one color class), so per-round traffic is a
//! moved-restricted slice of this static pattern — the shared-memory form
//! of an MPI neighbour-alltoallv send list, and the piece a future
//! multi-process backend would serialise onto the wire.
//!
//! Local indices follow the [`Partition::local_of`] convention: a part's
//! owned vertices first (ascending global id), then its halo (ascending),
//! so destination indices point straight into a resident block's
//! `owned+halo` coordinate buffer.

use crate::partition::Partition;
use crate::wire::WireError;
use lms_mesh::vec_bytes;

/// Per-part-pair halo-exchange schedule built from a [`Partition`]'s ghost
/// maps. See the module docs for the contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeSchedule {
    /// Per sender part: CSR offsets over the sender's owned locals
    /// (`offsets[p][i]..offsets[p][i+1]` indexes `targets[p]`).
    offsets: Vec<Vec<u32>>,
    /// Per sender part: `(destination part, destination local index)`
    /// entries, grouped by source local ascending, destinations ascending
    /// within a source.
    targets: Vec<Vec<(u32, u32)>>,
    total_entries: usize,
}

impl ExchangeSchedule {
    /// Build the schedule for `partition`. Every halo slot of every part
    /// receives exactly one entry, so the schedule covers exactly the
    /// halo = out-of-part 1-ring closure of the interfaces
    /// (property-tested in `tests/props.rs`).
    pub fn build(partition: &Partition) -> Self {
        let k = partition.num_parts() as usize;
        // collect (src_local, dst_part, dst_local) per sender by walking
        // every receiver's halo list (ascending, so entries arrive sorted
        // by destination within a sender)
        let mut raw: Vec<Vec<(u32, u32, u32)>> = vec![Vec::new(); k];
        for q in 0..partition.num_parts() {
            let owned_len = partition.part(q).len();
            for (h, &u) in partition.halo(q).iter().enumerate() {
                let src = partition.part_of(u);
                // the canonical ghost-map lookup: for an owned vertex this
                // is its owned-local index
                let src_local =
                    partition.local_of(src, u).expect("halo vertex must be owned by its part");
                raw[src as usize].push((src_local as u32, q, (owned_len + h) as u32));
            }
        }

        let mut offsets = Vec::with_capacity(k);
        let mut targets = Vec::with_capacity(k);
        let mut total_entries = 0usize;
        for (p, mut entries) in raw.into_iter().enumerate() {
            entries.sort_unstable();
            total_entries += entries.len();
            let owned_len = partition.part(p as u32).len();
            let mut offs = Vec::with_capacity(owned_len + 1);
            offs.push(0u32);
            let mut tgts = Vec::with_capacity(entries.len());
            let mut cursor = 0usize;
            for i in 0..owned_len as u32 {
                while cursor < entries.len() && entries[cursor].0 == i {
                    tgts.push((entries[cursor].1, entries[cursor].2));
                    cursor += 1;
                }
                offs.push(tgts.len() as u32);
            }
            debug_assert_eq!(cursor, entries.len());
            offsets.push(offs);
            targets.push(tgts);
        }
        ExchangeSchedule { offsets, targets, total_entries }
    }

    /// Number of parts the schedule was built for.
    #[inline]
    pub fn num_parts(&self) -> usize {
        self.offsets.len()
    }

    /// Part `p`'s row: CSR offsets over its owned locals and the
    /// `(destination part, destination local index)` entries they index —
    /// all of the schedule a rank reads.
    pub fn row(&self, p: u32) -> (&[u32], &[(u32, u32)]) {
        (&self.offsets[p as usize], &self.targets[p as usize])
    }

    /// A schedule of `num_parts` parts holding only part `p`'s row, as
    /// [`row`](Self::row) exported it; every other part's row is empty.
    /// What a rank rebuilds from its block frame: [`outgoing`] for `p` and
    /// [`MessagePlan::build`]'s row for `p` equal the full schedule's.
    ///
    /// # Errors
    /// [`WireError::BadBlock`] when `p` is not a part, the offsets are not
    /// a CSR over `targets`, or an entry names no part, or `p` itself.
    ///
    /// [`outgoing`]: Self::outgoing
    pub fn from_row(
        num_parts: usize,
        p: u32,
        offsets: Vec<u32>,
        targets: Vec<(u32, u32)>,
    ) -> Result<Self, WireError> {
        if p as usize >= num_parts {
            return Err(WireError::BadBlock("part id out of range"));
        }
        let csr = offsets.first() == Some(&0)
            && offsets.windows(2).all(|w| w[0] <= w[1])
            && offsets.last().map(|&l| l as usize) == Some(targets.len());
        if !csr {
            return Err(WireError::BadBlock("schedule offsets are not a CSR over its entries"));
        }
        if targets.iter().any(|&(q, _)| q as usize >= num_parts || q == p) {
            return Err(WireError::BadBlock("schedule entry names no other part"));
        }
        let total_entries = targets.len();
        let mut all_offsets = vec![vec![0u32]; num_parts];
        let mut all_targets = vec![Vec::new(); num_parts];
        all_offsets[p as usize] = offsets;
        all_targets[p as usize] = targets;
        Ok(ExchangeSchedule { offsets: all_offsets, targets: all_targets, total_entries })
    }

    /// Delivery slots of part `p`'s owned local `src_local`:
    /// `(destination part, destination local index)`, destinations
    /// ascending. Empty for vertices no other part ghosts (all interiors,
    /// and interface vertices of parts with no geometric neighbour —
    /// impossible by construction, but harmless).
    #[inline]
    pub fn outgoing(&self, p: u32, src_local: u32) -> &[(u32, u32)] {
        let offs = &self.offsets[p as usize];
        &self.targets[p as usize]
            [offs[src_local as usize] as usize..offs[src_local as usize + 1] as usize]
    }

    /// Whether part `p`'s owned local `src_local` is ghosted anywhere.
    #[inline]
    pub fn has_outgoing(&self, p: u32, src_local: u32) -> bool {
        let offs = &self.offsets[p as usize];
        offs[src_local as usize] != offs[src_local as usize + 1]
    }

    /// Total `(vertex, receiver)` delivery slots — one per halo entry of
    /// the partition.
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.total_entries
    }

    /// Bytes the schedule owns on the heap.
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.offsets)
            + vec_bytes(&self.targets)
            + self.offsets.iter().map(vec_bytes).sum::<usize>()
            + self.targets.iter().map(vec_bytes).sum::<usize>()
    }
}

/// The rank-addressed view of an [`ExchangeSchedule`]: for every sender
/// part, the destination parts it actually delivers to (ascending, pairs
/// with zero deliveries dropped) and the delivery-slot count of each
/// (src → dst) pair.
///
/// This is the *message* pattern of a distributed run, where the
/// schedule is the *entry* pattern: a transport coalesces all moved
/// deltas of one pair within a color step into a single frame, so the
/// plan bounds per-round message counts (`Σ_p neighbors(p).len()`) and
/// sizes (`pair_entry_counts`) — the in-process engine batches its
/// outboxes along the same plan, which keeps the
/// `ExchangeVolume` message/byte accounting identical across transports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessagePlan {
    /// CSR offsets over parts into `nbrs` / `pair_entries`.
    nbr_offsets: Vec<u32>,
    /// Destination parts per sender, ascending, non-empty pairs only.
    nbrs: Vec<u32>,
    /// Delivery-slot count per (sender, destination) pair, aligned with
    /// `nbrs` — the static upper bound of one coalesced frame.
    pair_entries: Vec<u32>,
}

impl MessagePlan {
    /// Extract the rank-addressed pair structure of `schedule`.
    pub fn build(schedule: &ExchangeSchedule) -> Self {
        let k = schedule.num_parts();
        let mut nbr_offsets = Vec::with_capacity(k + 1);
        nbr_offsets.push(0u32);
        let mut nbrs = Vec::new();
        let mut pair_entries = Vec::new();
        let mut counts = vec![0u32; k];
        for p in 0..k {
            for &(q, _) in &schedule.targets[p] {
                counts[q as usize] += 1;
            }
            for (q, count) in counts.iter_mut().enumerate() {
                if *count > 0 {
                    nbrs.push(q as u32);
                    pair_entries.push(*count);
                    *count = 0;
                }
            }
            nbr_offsets.push(nbrs.len() as u32);
        }
        MessagePlan { nbr_offsets, nbrs, pair_entries }
    }

    /// Number of parts the plan was built for.
    #[inline]
    pub fn num_parts(&self) -> usize {
        self.nbr_offsets.len() - 1
    }

    /// Destination parts sender `p` delivers to, ascending.
    #[inline]
    pub fn neighbors(&self, p: u32) -> &[u32] {
        &self.nbrs[self.nbr_offsets[p as usize] as usize..self.nbr_offsets[p as usize + 1] as usize]
    }

    /// Delivery-slot counts aligned with [`neighbors`](Self::neighbors):
    /// how many halo slots of that destination sender `p` owns — the
    /// maximum entries one coalesced frame of the pair can carry.
    #[inline]
    pub fn pair_entry_counts(&self, p: u32) -> &[u32] {
        &self.pair_entries
            [self.nbr_offsets[p as usize] as usize..self.nbr_offsets[p as usize + 1] as usize]
    }

    /// Total directed (sender, destination) pairs with at least one
    /// delivery slot — the per-round message-count ceiling.
    #[inline]
    pub fn num_pairs(&self) -> usize {
        self.nbrs.len()
    }

    /// Total delivery slots across all pairs — equals
    /// [`ExchangeSchedule::num_entries`].
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.pair_entries.iter().map(|&c| c as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{partition_mesh, PartitionMethod};
    use lms_mesh::{generators, Adjacency};

    fn setup(k: usize, method: PartitionMethod) -> (Partition, ExchangeSchedule) {
        let m = generators::perturbed_grid(15, 13, 0.3, 8);
        let adj = Adjacency::build(&m);
        let p = partition_mesh(&m, &adj, k, method);
        let s = ExchangeSchedule::build(&p);
        (p, s)
    }

    #[test]
    fn entries_equal_total_halo() {
        for k in [1usize, 2, 4, 7] {
            let (p, s) = setup(k, PartitionMethod::Rcb);
            assert_eq!(s.num_entries(), p.total_halo(), "k={k}");
            assert_eq!(s.num_parts(), k);
        }
    }

    #[test]
    fn every_halo_slot_receives_exactly_once() {
        let (p, s) = setup(5, PartitionMethod::Hilbert);
        // deliveries per (receiver, dst_local)
        let mut seen: Vec<Vec<u32>> =
            (0..p.num_parts()).map(|q| vec![0u32; p.part(q).len() + p.halo(q).len()]).collect();
        for src in 0..p.num_parts() {
            for (i, &v) in p.part(src).iter().enumerate() {
                for &(q, dst) in s.outgoing(src, i as u32) {
                    // the slot must resolve back to the same global vertex
                    assert_eq!(p.local_of(q, v), Some(dst as usize));
                    seen[q as usize][dst as usize] += 1;
                }
            }
        }
        for q in 0..p.num_parts() {
            let owned = p.part(q).len();
            for (slot, &count) in seen[q as usize].iter().enumerate() {
                let expected = if slot < owned { 0 } else { 1 };
                assert_eq!(count, expected, "part {q} slot {slot}");
            }
        }
    }

    #[test]
    fn only_interface_vertices_send() {
        let (p, s) = setup(4, PartitionMethod::Rcb);
        for src in 0..p.num_parts() {
            for (i, &v) in p.part(src).iter().enumerate() {
                if s.has_outgoing(src, i as u32) {
                    assert!(p.is_interface(v), "non-interface vertex {v} has outgoing entries");
                }
            }
        }
    }

    #[test]
    fn a_row_rebuilds_its_part_of_the_schedule_and_plan() {
        let (p, s) = setup(5, PartitionMethod::Hilbert);
        let full = MessagePlan::build(&s);
        for part in 0..p.num_parts() {
            let (offsets, targets) = s.row(part);
            let one = ExchangeSchedule::from_row(5, part, offsets.to_vec(), targets.to_vec())
                .expect("an exported row is valid");
            for i in 0..p.part(part).len() as u32 {
                assert_eq!(one.outgoing(part, i), s.outgoing(part, i));
            }
            let plan = MessagePlan::build(&one);
            assert_eq!(plan.num_parts(), 5);
            assert_eq!(plan.neighbors(part), full.neighbors(part));
            assert_eq!(plan.pair_entry_counts(part), full.pair_entry_counts(part));
        }
        // malformed rows are typed errors, not panics
        let (offsets, targets) = s.row(1);
        let bad = |k: usize, part: u32, o: Vec<u32>, t: Vec<(u32, u32)>| {
            matches!(ExchangeSchedule::from_row(k, part, o, t), Err(WireError::BadBlock(_)))
        };
        assert!(bad(5, 5, offsets.to_vec(), targets.to_vec()));
        assert!(bad(5, 1, vec![], vec![]));
        assert!(bad(5, 1, offsets[..offsets.len() - 1].to_vec(), targets.to_vec()));
        assert!(bad(5, 1, vec![0, 2, 1, 2], vec![(0, 0), (2, 0)]));
        assert!(bad(5, 1, vec![0, 1], vec![(1, 0)]));
        assert!(bad(5, 1, vec![0, 1], vec![(5, 0)]));
    }

    #[test]
    fn single_part_schedule_is_empty() {
        let (_, s) = setup(1, PartitionMethod::Morton);
        assert_eq!(s.num_entries(), 0);
        assert_eq!(MessagePlan::build(&s).num_pairs(), 0);
    }

    #[test]
    fn message_plan_matches_schedule_pairs() {
        for (k, method) in
            [(2, PartitionMethod::Rcb), (5, PartitionMethod::Hilbert), (8, PartitionMethod::Morton)]
        {
            let (p, s) = setup(k, method);
            let plan = MessagePlan::build(&s);
            assert_eq!(plan.num_parts(), k);
            assert_eq!(plan.num_entries(), s.num_entries(), "k={k}");
            // oracle: recount every (src, dst) pair straight from the
            // per-vertex delivery lists
            for src in 0..p.num_parts() {
                let mut counts = vec![0u32; k];
                for i in 0..p.part(src).len() {
                    for &(q, _) in s.outgoing(src, i as u32) {
                        counts[q as usize] += 1;
                    }
                }
                let expect: Vec<(u32, u32)> = counts
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(q, &c)| (q as u32, c))
                    .collect();
                let got: Vec<(u32, u32)> = plan
                    .neighbors(src)
                    .iter()
                    .copied()
                    .zip(plan.pair_entry_counts(src).iter().copied())
                    .collect();
                assert_eq!(got, expect, "part {src}");
                assert!(plan.neighbors(src).windows(2).all(|w| w[0] < w[1]));
                assert!(!plan.neighbors(src).contains(&src), "no self-sends");
            }
        }
    }
}
