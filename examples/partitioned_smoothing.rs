//! Domain-decomposed deterministic smoothing end to end: partition a
//! perturbed grid with each geometric method, report the decomposition
//! metrics, render the partition overlay, and run the resident engine
//! against serial Gauss–Seidel (bit-identical under the part-major
//! order).
//!
//! ```text
//! cargo run --release --example partitioned_smoothing [side] [parts]
//! ```
//!
//! Writes `target/partition_<method>.svg` overlays.

use lms::part::{partition_mesh, PartitionMethod};
use lms::smooth::{ResidentEngine, SmoothEngine, SmoothParams};
use lms::viz::partition::{render_partition, PartitionStyle};

fn main() {
    let side: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(96);
    let parts: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(6);
    let mesh = lms::mesh::generators::perturbed_grid(side, side, 0.35, 42);
    let adj = lms::mesh::Adjacency::build(&mesh);
    println!(
        "perturbed grid {side}x{side}: {} vertices, {} triangles, {parts} parts\n",
        mesh.num_vertices(),
        mesh.num_triangles()
    );

    // --- decomposition quality per method + SVG overlays ------------------
    println!(
        "{:<8} {:>8} {:>10} {:>10} {:>10} {:>9}",
        "method", "cut", "interface", "halo", "imbalance", "interior"
    );
    for method in PartitionMethod::ALL {
        let p = partition_mesh(&mesh, &adj, parts, method);
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
        let svg =
            render_partition(&mesh, p.assignment(), p.num_parts(), &PartitionStyle::default());
        let path = format!("target/partition_{}.svg", method.name());
        svg.write_to(std::path::Path::new(&path)).expect("write svg");
    }
    println!("\noverlays written to target/partition_<method>.svg");

    // --- resident engine: determinism + serial equivalence ----------------
    let params = SmoothParams::paper().with_smart(true).with_max_iters(10).with_tol(-1.0);
    let engine = ResidentEngine::by_method(&mesh, params.clone(), parts, PartitionMethod::Rcb);

    let mut par = mesh.clone();
    let report = engine.smooth(&mut par, 2);

    let serial = SmoothEngine::new(&mesh, params).with_visit_order(engine.part_major_visit_order());
    let mut ser = mesh.clone();
    serial.smooth(&mut ser);
    println!(
        "\nresident (rcb, {} parts, 2 threads): quality {:.6} -> {:.6} in {} sweeps",
        parts,
        report.initial_quality,
        report.final_quality,
        report.num_iterations()
    );
    println!(
        "bit-identical to serial Gauss-Seidel under the part-major order: {}",
        par.coords() == ser.coords()
    );
}
