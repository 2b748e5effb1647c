//! An end-to-end "downstream user" pipeline: triangulate a point cloud with
//! the built-in Bowyer–Watson generator, decide from the §5.4 cost model
//! whether reordering pays off, smooth in parallel, and export the result
//! as Triangle `.node`/`.ele` files.
//!
//! ```text
//! cargo run --release --example adaptive_pipeline [n_points] [out_prefix]
//! ```

use lms::apps::{smooth, Backend};
use lms::mesh::{generators, io, Adjacency};
use lms::order::rdr_ordering;
use lms::smooth::{SmoothEngine, SmoothParams};
use std::time::Instant;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(5_000);
    let prefix = std::env::args().nth(2).unwrap_or_else(|| {
        std::env::temp_dir().join("lms_pipeline_out").to_string_lossy().into_owned()
    });

    // 1. Unstructured Delaunay mesh from random points (insertion-order
    //    numbering — poor locality, like a freshly digitised point cloud).
    let mesh = generators::random_delaunay(n, 2024);
    println!("delaunay mesh: {} vertices, {} triangles", mesh.num_vertices(), mesh.num_triangles());

    // 2. §5.4 decision: reorder only if the expected iteration count
    //    amortises the reordering cost (paper: worth it beyond ~4 sweeps).
    let probe = SmoothParams::paper().with_max_iters(3);
    let expected_iters = {
        let mut probe_mesh = mesh.clone();
        let r = smooth(&mut probe_mesh, probe, Backend::Serial);
        if r.converged {
            r.num_iterations()
        } else {
            // still improving after 3 sweeps: expect a long run
            16
        }
    };
    println!("probe says ~{expected_iters} iterations expected");

    let mesh = if expected_iters > 4 {
        let start = Instant::now();
        let perm = rdr_ordering(&mesh);
        println!(
            "reordering with RDR ({} ms) — expected to pay for itself",
            start.elapsed().as_millis()
        );
        perm.apply_to_mesh(&mesh)
    } else {
        println!("skipping reordering (too few iterations to amortise it)");
        mesh
    };

    // 3. Parallel smoothing on every core this host has.
    let threads = std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1);
    let engine = SmoothEngine::new(&mesh, SmoothParams::paper());
    let mut smoothed = mesh.clone();
    let start = Instant::now();
    let report = engine.smooth_parallel(&mut smoothed, threads);
    println!(
        "smoothed on {threads} threads in {} ms: quality {:.4} -> {:.4} ({} iters)",
        start.elapsed().as_millis(),
        report.initial_quality,
        report.final_quality,
        report.num_iterations()
    );

    // 4. Export for downstream tools (Triangle-compatible).
    io::save_triangle(&smoothed, &prefix).expect("write .node/.ele");
    println!("wrote {prefix}.node and {prefix}.ele");

    let adj = Adjacency::build(&smoothed);
    println!("final mean degree: {:.2}", adj.mean_degree());
}
