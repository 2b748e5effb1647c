//! The 3D resident halo-exchange pipeline end to end: decompose a
//! perturbed tet grid with each geometric method, report per-part stats,
//! run the resident engine (one gather, moved-only halo deltas per color
//! step, one scatter) and verify it bit-identical against serial
//! part-major 3D Gauss–Seidel. Everything here runs the same
//! dimension-generic `lms-smooth` sweep bodies as the 2D
//! `partitioned_smoothing` example.
//!
//! ```text
//! cargo run --release --example partitioned_smoothing3d [side] [parts]
//! ```

use lms::mesh3d::{partition_tet_mesh, Adjacency3, ResidentEngine3, SmoothEngine3, SmoothParams3};
use lms::part::PartitionMethod;

fn main() {
    let side: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(20);
    let parts: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(6);
    let mesh = lms::mesh3d::generators::perturbed_tet_grid(side, side, side, 0.35, 42);
    let adj = Adjacency3::build(&mesh);
    println!(
        "perturbed tet grid {side}^3: {} vertices, {} tets, {parts} parts\n",
        mesh.num_vertices(),
        mesh.num_tets()
    );

    // --- decomposition quality per method ---------------------------------
    println!(
        "{:<8} {:>8} {:>10} {:>10} {:>10} {:>9}",
        "method", "cut", "interface", "halo", "imbalance", "interior"
    );
    for method in PartitionMethod::ALL {
        let p = partition_tet_mesh(&mesh, &adj, parts, method);
        let s = p.stats();
        println!(
            "{:<8} {:>8} {:>10} {:>10} {:>10.3} {:>8.1}%",
            method.name(),
            s.edge_cut,
            s.interface_vertices,
            s.halo_vertices,
            s.imbalance,
            100.0 * s.interior_fraction,
        );
    }

    // --- resident engine: per-part stats + serial equivalence -------------
    let params = SmoothParams3::paper().with_smart(true).with_max_iters(8).with_tol(-1.0);
    let engine = ResidentEngine3::by_method(&mesh, params.clone(), parts, PartitionMethod::Rcb);
    let partition = engine.partition();
    println!("\nresident blocks (rcb):");
    println!("{:<6} {:>8} {:>10} {:>10} {:>8}", "part", "owned", "interior", "interface", "halo");
    for p in 0..partition.num_parts() {
        println!(
            "{:<6} {:>8} {:>10} {:>10} {:>8}",
            p,
            partition.part(p).len(),
            partition.interior(p).len(),
            partition.interface(p).len(),
            partition.halo(p).len(),
        );
    }
    println!(
        "static exchange schedule: {} delivery slots across {} parts",
        engine.exchange_schedule().num_entries(),
        partition.num_parts()
    );

    let mut res = mesh.clone();
    let report = engine.smooth(&mut res, 2);

    let oracle =
        SmoothEngine3::new(&mesh, params).with_visit_order(engine.part_major_visit_order());
    let mut ser = mesh.clone();
    oracle.smooth(&mut ser);

    println!(
        "\nresident (rcb, {parts} parts, 2 threads): quality {:.6} -> {:.6} in {} sweeps",
        report.initial_quality,
        report.final_quality,
        report.num_iterations()
    );
    println!(
        "bit-identical to serial part-major 3D Gauss-Seidel: {}",
        res.coords() == ser.coords()
    );
    let volume = report.exchange.expect("resident runs report exchange accounting");
    println!(
        "exchange volume: {} full gather(s), {} full scatter(s), {} rounds, {} halo deliveries",
        volume.full_gathers, volume.full_scatters, volume.exchange_rounds, volume.halo_entries_sent
    );
}
