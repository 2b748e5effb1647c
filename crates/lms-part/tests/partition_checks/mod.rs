//! The partition properties, each written once over `OrderMesh`, and
//! [`partition_properties!`], which runs all of them on one mesh
//! strategy: `props.rs` on triangle meshes, `part_props3.rs` on
//! tetrahedral meshes. Each check partitions `mesh` with
//! `PartitionMethod::ALL[method_ix]` into `k` parts and fails on the first
//! violation.

use lms_order::{Graph, OrderMesh};
use lms_part::{partition_mesh, ExchangeSchedule, MessagePlan, Partition, PartitionMethod};
use proptest::prelude::*;

fn build<const D: usize, M: OrderMesh<D>>(
    mesh: &M,
    k: usize,
    method_ix: usize,
) -> (M::Adjacency, Partition) {
    let adj = mesh.build_adjacency();
    let p = partition_mesh(mesh, &adj, k, PartitionMethod::ALL[method_ix]);
    (adj, p)
}

pub fn cover_and_balance<const D: usize, M: OrderMesh<D>>(mesh: &M, k: usize, method_ix: usize) {
    let (_, p) = build(mesh, k, method_ix);
    let mut seen = vec![false; mesh.num_vertices()];
    let mut sizes = Vec::new();
    for q in 0..p.num_parts() {
        sizes.push(p.part(q).len());
        for &v in p.part(q) {
            prop_assert!(!seen[v as usize], "vertex {} owned twice", v);
            seen[v as usize] = true;
            prop_assert_eq!(p.part_of(v), q);
        }
    }
    prop_assert!(seen.iter().all(|&s| s), "some vertex unowned");
    // the weighted splitter balances area or volume shares, not counts —
    // its balance is tested on graded meshes in lms-part and lms-mesh3d
    if PartitionMethod::ALL[method_ix] != PartitionMethod::RcbWeighted {
        let (lo, hi) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
        prop_assert!(hi - lo <= 1, "unbalanced: {:?}", sizes);
    }
}

/// The exchange schedule covers exactly the halo — every halo slot of
/// every part receives exactly one delivery, every delivery resolves to
/// the right ghost-map local, and only interface vertices send.
pub fn schedule_covers_halo<const D: usize, M: OrderMesh<D>>(mesh: &M, k: usize, method_ix: usize) {
    let (_, p) = build(mesh, k, method_ix);
    let s = ExchangeSchedule::build(&p);
    prop_assert_eq!(s.num_entries(), p.total_halo());
    let mut deliveries: Vec<Vec<u32>> =
        (0..p.num_parts()).map(|q| vec![0u32; p.part(q).len() + p.halo(q).len()]).collect();
    for src in 0..p.num_parts() {
        for (i, &v) in p.part(src).iter().enumerate() {
            let out = s.outgoing(src, i as u32);
            if !out.is_empty() {
                prop_assert!(p.is_interface(v), "non-interface {} sends", v);
            }
            for &(q, dst) in out {
                prop_assert_eq!(p.local_of(q, v), Some(dst as usize));
                deliveries[q as usize][dst as usize] += 1;
            }
        }
    }
    for q in 0..p.num_parts() {
        let owned = p.part(q).len();
        for (slot, &count) in deliveries[q as usize].iter().enumerate() {
            prop_assert_eq!(count, u32::from(slot >= owned), "part {} slot {}", q, slot);
        }
    }
}

pub fn halo_closure<const D: usize, M: OrderMesh<D>>(mesh: &M, k: usize, method_ix: usize) {
    let (adj, p) = build(mesh, k, method_ix);
    for q in 0..p.num_parts() {
        // 1-ring of the interface, outside the part
        let mut expect: Vec<u32> = p
            .interface(q)
            .iter()
            .flat_map(|&v| adj.neighbors(v).iter().copied())
            .filter(|&u| p.part_of(u) != q)
            .collect();
        expect.sort_unstable();
        expect.dedup();
        prop_assert_eq!(p.halo(q), &expect[..], "part {}", q);
    }
}

pub fn interface_flags<const D: usize, M: OrderMesh<D>>(mesh: &M, k: usize, method_ix: usize) {
    let (adj, p) = build(mesh, k, method_ix);
    for v in 0..mesh.num_vertices() as u32 {
        let crosses = adj.neighbors(v).iter().any(|&w| p.part_of(w) != p.part_of(v));
        prop_assert_eq!(p.is_interface(v), crosses);
    }
}

/// Interior + interface = owned, part by part.
pub fn interior_plus_interface<const D: usize, M: OrderMesh<D>>(
    mesh: &M,
    k: usize,
    method_ix: usize,
) {
    let (_, p) = build(mesh, k, method_ix);
    for q in 0..p.num_parts() {
        let mut merged: Vec<u32> = p.interior(q).to_vec();
        merged.extend_from_slice(p.interface(q));
        merged.sort_unstable();
        prop_assert_eq!(&merged[..], p.part(q));
    }
}

pub fn ghost_map<const D: usize, M: OrderMesh<D>>(mesh: &M, k: usize, method_ix: usize) {
    let (_, p) = build(mesh, k, method_ix);
    for q in 0..p.num_parts() {
        let owned = p.part(q);
        for (i, &v) in owned.iter().enumerate() {
            prop_assert_eq!(p.local_of(q, v), Some(i));
        }
        for (i, &u) in p.halo(q).iter().enumerate() {
            prop_assert_eq!(p.local_of(q, u), Some(owned.len() + i));
        }
    }
}

/// The edge cut equals a recount over `edges`, the mesh's element-derived
/// edge list — independent of the adjacency the partition was built on.
pub fn edge_cut<const D: usize, M: OrderMesh<D>>(
    mesh: &M,
    edges: &[(u32, u32)],
    k: usize,
    method_ix: usize,
) {
    let (_, p) = build(mesh, k, method_ix);
    let direct = edges.iter().filter(|&&(a, b)| p.part_of(a) != p.part_of(b)).count();
    prop_assert_eq!(p.edge_cut(), direct);
}

/// The message plan is exactly the per-pair regrouping of the schedule:
/// union of pair entry counts = schedule entries, every neighbour pair
/// non-empty, destinations ascending without self-sends.
pub fn message_plan<const D: usize, M: OrderMesh<D>>(mesh: &M, k: usize, method_ix: usize) {
    let (_, p) = build(mesh, k, method_ix);
    let s = ExchangeSchedule::build(&p);
    let plan = MessagePlan::build(&s);
    prop_assert_eq!(plan.num_parts() as u32, p.num_parts());
    prop_assert_eq!(plan.num_entries(), s.num_entries());
    let mut total = 0usize;
    for src in 0..p.num_parts() {
        let nbrs = plan.neighbors(src);
        let counts = plan.pair_entry_counts(src);
        prop_assert_eq!(nbrs.len(), counts.len());
        prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(!nbrs.contains(&src), "self-send in plan");
        prop_assert!(counts.iter().all(|&c| c > 0), "empty pair kept");
        total += counts.iter().map(|&c| c as usize).sum::<usize>();
        // oracle per pair: recount from the delivery lists
        for (&q, &count) in nbrs.iter().zip(counts) {
            let direct: usize = (0..p.part(src).len())
                .map(|i| s.outgoing(src, i as u32).iter().filter(|&&(d, _)| d == q).count())
                .sum();
            prop_assert_eq!(direct, count as usize, "pair {}->{}", src, q);
        }
    }
    prop_assert_eq!(total, s.num_entries());
}

/// One property test per check, each drawing its meshes from `$strategy`
/// (`$cases` cases); the edge-cut recount reads `mesh.edges()`.
macro_rules! partition_properties {
    ($strategy:expr, $cases:expr) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases($cases))]

            #[test]
            fn parts_disjoint_cover_and_balanced(
                mesh in $strategy, k in 1usize..9, method_ix in 0usize..4,
            ) {
                cover_and_balance(&mesh, k, method_ix);
            }

            #[test]
            fn exchange_schedule_covers_exactly_the_halo(
                mesh in $strategy, k in 1usize..9, method_ix in 0usize..4,
            ) {
                schedule_covers_halo(&mesh, k, method_ix);
            }

            #[test]
            fn halo_is_one_ring_closure_of_interface(
                mesh in $strategy, k in 2usize..9, method_ix in 0usize..4,
            ) {
                halo_closure(&mesh, k, method_ix);
            }

            #[test]
            fn interface_flag_matches_topology(
                mesh in $strategy, k in 1usize..9, method_ix in 0usize..4,
            ) {
                interface_flags(&mesh, k, method_ix);
            }

            #[test]
            fn interior_plus_interface_is_owned(
                mesh in $strategy, k in 1usize..9, method_ix in 0usize..4,
            ) {
                interior_plus_interface(&mesh, k, method_ix);
            }

            #[test]
            fn ghost_map_is_owned_then_halo(
                mesh in $strategy, k in 2usize..7, method_ix in 0usize..4,
            ) {
                ghost_map(&mesh, k, method_ix);
            }

            #[test]
            fn edge_cut_matches_direct_count(
                mesh in $strategy, k in 1usize..9, method_ix in 0usize..4,
            ) {
                edge_cut(&mesh, &mesh.edges(), k, method_ix);
            }

            #[test]
            fn message_plan_regroups_the_schedule(
                mesh in $strategy, k in 1usize..9, method_ix in 0usize..4,
            ) {
                message_plan(&mesh, k, method_ix);
            }
        }
    };
}
pub(crate) use partition_properties;
