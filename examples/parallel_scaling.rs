//! The §5.3 scaling study: the socket-aware cache simulation of the
//! paper's static schedule on 1 to 32 cores, fed with each ordering's real
//! sweep traces. Engine wall clock is timed by the `benchmark/` harness.
//!
//! ```text
//! cargo run --release --example parallel_scaling [scale]
//! ```

use lms::cache::{multicore, Affinity, MachineConfig, NodeLayout};
use lms::mesh::suite;
use lms::order::{compute_ordering, OrderingKind};
use lms::smooth::{trace::chunked_sweep_traces, SmoothEngine, SmoothParams};

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0.02);
    let base = suite::generate(suite::find_spec("carabiner").unwrap(), scale);
    println!("carabiner @ scale {scale}: {} vertices\n", base.num_vertices());

    // --- Simulated 1–32 cores (the paper's machine) -----------------------
    let shrink = if scale >= 1.0 { 1 } else { (1.0 / scale).round() as usize };
    let machine = if shrink <= 1 {
        MachineConfig::westmere_ex(NodeLayout::paper_66())
    } else {
        MachineConfig::westmere_scaled(NodeLayout::paper_66(), shrink)
    };
    println!("simulated Westmere-EX (4 sockets x 8 cores, compact affinity):");
    println!("{:>6} {:>10} {:>10} {:>10}", "cores", "ORI", "BFS", "RDR");

    let mut base_cycles = 0u64;
    for p in [1usize, 2, 4, 8, 16, 24, 32] {
        print!("{p:>6}");
        for kind in OrderingKind::PAPER_TRIO {
            let mesh = compute_ordering(&base, kind).apply_to_mesh(&base);
            let engine = SmoothEngine::new(&mesh, SmoothParams::paper());
            let traces = chunked_sweep_traces(engine.adjacency(), engine.boundary(), p);
            let result = multicore::simulate(&machine, &traces);
            let wall = result.wall_cycles();
            if p == 1 && kind == OrderingKind::Original {
                base_cycles = wall;
            }
            print!(" {:>9.2}x", base_cycles as f64 / wall as f64);
        }
        println!();
    }
    let _ = Affinity::Scatter; // see lms-cache::multicore for the scatter ablation
    println!("\npaper: mean RDR speedup exceeds 75x at 32 cores (Figure 12).");
}
