//! Every ordering and every partition assignment pinned by hash, in both
//! dimensions: a change to any ordering, to the space-filling-curve
//! quantisation, to RCB or to the partition front end that moves a single
//! vertex fails here.
//!
//! Each pin is FNV-1a (64-bit) over the little-endian bytes of the ids: the
//! new-to-old map of a permutation, the part of every vertex of an
//! assignment (the hash `tet_grid_rdr_order_is_pinned` uses).

use lms::mesh::generators::perturbed_grid;
use lms::mesh::{Adjacency, TriMesh};
use lms::mesh3d::generators::{block_scramble, perturbed_tet_grid};
use lms::mesh3d::{partition_tet_mesh, Adjacency3, TetMesh};
use lms::order::{compute_ordering, random_ordering, OrderingKind};
use lms::part::{partition_mesh, Partition, PartitionMethod};

/// FNV-1a (64-bit) over the little-endian bytes of `ids`.
fn fnv1a(ids: &[u32]) -> u64 {
    ids.iter()
        .flat_map(|v| v.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// A jittered 24×24 grid under a random numbering.
fn shuffled_grid() -> TriMesh {
    let m = perturbed_grid(24, 24, 0.35, 1);
    random_ordering(m.num_vertices(), 1).apply_to_mesh(&m)
}

/// A jittered 8×8×8 Kuhn grid with its numbering scrambled in blocks.
fn scrambled_tet_grid() -> TetMesh {
    block_scramble(perturbed_tet_grid(8, 8, 8, 0.35, 3), 64, 3)
}

/// Compare `hash_of(label)` with the pin of every label, reporting all
/// mismatches at once.
fn assert_pinned(pins: &[(&str, u64)], hash_of: impl Fn(&str) -> u64) {
    let wrong: Vec<String> = pins
        .iter()
        .filter_map(|&(label, pin)| {
            let h = hash_of(label);
            (h != pin).then(|| format!("{label}: {h:#018x} (pinned {pin:#018x})"))
        })
        .collect();
    assert!(wrong.is_empty(), "moved:\n{}", wrong.join("\n"));
}

/// The assignment a `"<method> k=<parts>"` label names, hashed.
fn assignment_hash(label: &str, partition: impl Fn(usize, PartitionMethod) -> Partition) -> u64 {
    let (method, k) = label.split_once(" k=").unwrap();
    fnv1a(partition(k.parse().unwrap(), PartitionMethod::parse(method).unwrap()).assignment())
}

#[test]
fn every_2d_ordering_is_pinned() {
    let m = shuffled_grid();
    let pins = [
        ("ori", 0x4884_fdcf_338c_88a5),
        ("random", 0xce0b_b5c0_5de4_9acd),
        ("bfs", 0xe632_0ebb_3770_0b4d),
        ("bfsrev", 0x4a13_aa09_ff4f_203d),
        ("dfs", 0x66e9_93c5_eb0e_b265),
        ("rcm", 0x44d9_24a5_b58a_ebbd),
        ("sloan", 0x53fd_81b4_1570_9939),
        ("hilbert", 0xf5ec_7259_b64e_ec19),
        ("morton", 0x9103_f7e4_a09b_07ad),
        ("rcb", 0xd58a_8acc_e692_e2a5),
        ("spectral", 0x0f16_d73b_791d_9665),
        ("qsort", 0x8252_a582_61ef_43c1),
        ("degsort", 0x162a_7230_5014_4335),
        ("rdr", 0x87f6_7e4d_ec47_f621),
    ];
    assert_eq!(pins.map(|(name, _)| name), OrderingKind::ALL.map(OrderingKind::name));
    assert_pinned(&pins, |name| {
        fnv1a(compute_ordering(&m, OrderingKind::parse(name).unwrap()).new_to_old())
    });
}

/// The nine orderings the tetrahedral front end offered first, by name.
#[test]
fn every_3d_ordering_is_pinned() {
    let m = scrambled_tet_grid();
    let pins = [
        ("ori", 0x2d0e_f388_33f6_ee5f),
        ("random", 0xde8d_a4e4_dbad_9757),
        ("bfs", 0x5259_3a06_b030_5213),
        ("bfsrev", 0x4ed9_85c5_0f39_70db),
        ("dfs", 0xc615_b500_b4b1_f2f7),
        ("rcm", 0xce34_7f50_5984_123f),
        ("hilbert", 0x106e_3f26_1da6_6707),
        ("morton", 0x3864_9d53_3807_4577),
        ("rdr", 0xb983_7439_4dae_b54b),
    ];
    assert_pinned(&pins, |name| {
        fnv1a(compute_ordering(&m, OrderingKind::parse(name).unwrap()).new_to_old())
    });
}

/// Every method at k ∈ {2, 4, 7}, triangles then tetrahedra.
#[test]
fn every_partition_assignment_is_pinned() {
    let tri = shuffled_grid();
    let tri_adj = Adjacency::build(&tri);
    let pins2 = [
        ("rcb k=2", 0xea75_ae9b_1585_dc05),
        ("rcb k=4", 0x15c2_07e5_3b97_fb25),
        ("rcb k=7", 0x17d4_5fee_a9b7_11d7),
        ("rcbw k=2", 0xea75_ae9b_1585_dc05),
        ("rcbw k=4", 0x620f_596d_7fe1_3c25),
        ("rcbw k=7", 0x0caa_7aac_fab2_9427),
        ("hilbert k=2", 0xea75_ae9b_1585_dc05),
        ("hilbert k=4", 0x5b28_7b1d_f2fc_6e65),
        ("hilbert k=7", 0x033a_6871_2393_3036),
        ("morton k=2", 0x42bd_8cea_24b3_04e5),
        ("morton k=4", 0x0cea_6cf8_0e10_8085),
        ("morton k=7", 0xeeb7_c82f_3ca0_ca06),
    ];
    assert_pinned(&pins2, |label| {
        assignment_hash(label, |k, method| partition_mesh(&tri, &tri_adj, k, method))
    });
    let tet = scrambled_tet_grid();
    let tet_adj = Adjacency3::build(&tet);
    let pins3 = [
        ("rcb k=2", 0x558c_910c_33ad_6f24),
        ("rcb k=4", 0x4747_0b07_6d34_bb96),
        ("rcb k=7", 0xae1b_5e80_3eb2_f5b3),
        ("rcbw k=2", 0x8033_f144_a557_e924),
        ("rcbw k=4", 0xb9e5_02cd_f588_9ef6),
        ("rcbw k=7", 0x16e0_d31b_42d6_a6c1),
        ("hilbert k=2", 0xb8fe_e4db_4425_aeb5),
        ("hilbert k=4", 0x770b_70ce_6d88_8d05),
        ("hilbert k=7", 0x525b_6db0_636e_dc45),
        ("morton k=2", 0xf858_e38e_bec8_8da5),
        ("morton k=4", 0x737c_5c59_6183_f8b5),
        ("morton k=7", 0x1942_f345_007c_0775),
    ];
    assert_pinned(&pins3, |label| {
        assignment_hash(label, |k, method| partition_tet_mesh(&tet, &tet_adj, k, method))
    });
}
