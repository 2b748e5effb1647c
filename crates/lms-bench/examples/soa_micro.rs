//! Bulk scoring microbench: every element of a 512x512 perturbed grid
//! scored through one lane-batched `score_star` call vs one per-element
//! `score` call, interleaved min-of-50 on the mesh's own point slice.
//! A standalone binary for quick hand runs while tuning the kernel.

use lms_mesh::quality::QualityMetric;
use lms_mesh::{generators, Adjacency, Boundary};
use lms_smooth::domain::{ScoringDomain, TriDomain};
use std::time::Instant;

fn main() {
    let m = generators::perturbed_grid(512, 512, 0.35, 42);
    let adj = Adjacency::build(&m);
    let boundary = Boundary::detect(&m);
    let dom = TriDomain::new(&adj, &boundary, m.triangles(), QualityMetric::EdgeLengthRatio);
    let coords = m.coords();
    let rows = dom.elements();
    let ids: Vec<u32> = (0..rows.len() as u32).collect();
    let mut out = vec![(0.0, false); rows.len()];
    let reps = 50;

    let mut best_b = u128::MAX;
    let mut best_s = u128::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        dom.score_star(coords, rows, &ids, &mut out);
        best_b = best_b.min(t.elapsed().as_nanos());
        std::hint::black_box(&out);
        let t = Instant::now();
        for (slot, &row) in out.iter_mut().zip(rows) {
            *slot = dom.score(coords, row);
        }
        best_s = best_s.min(t.elapsed().as_nanos());
        std::hint::black_box(&out);
    }
    let n = rows.len() as f64;
    println!("elements: {}", rows.len());
    println!(
        "batched: {:.2} ns/elem   scalar(score): {:.2} ns/elem   speedup {:.3}",
        best_b as f64 / n,
        best_s as f64 / n,
        best_s as f64 / best_b as f64
    );
}
