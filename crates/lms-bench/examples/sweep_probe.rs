//! Ad-hoc probe: where does a resident smart sweep spend its time?
//! Prints totals (sweep ns, interface commits `ifc_moved` — part-interior
//! commits are not counted — and scored elements) for the batched and
//! scalar-scoring resident engines, plus an interleaved serial-engine
//! A/B, so the scoring fraction of the sweep and the lane-batching win
//! can be estimated on the current host.
//!
//! Env knobs: `PROBE_SIDE` (grid side, default 120) and `PROBE_PARTS`
//! (resident decomposition, default 4). Built for quick hand runs while
//! tuning — the tracked numbers are `benchmark/`'s; the CI gate is
//! `lms-tool bench-smoke`.

use lms_part::PartitionMethod;
use lms_smooth::{ResidentEngine, SmoothEngine, SmoothParams};

fn main() {
    let side: usize = std::env::var("PROBE_SIDE").ok().and_then(|s| s.parse().ok()).unwrap_or(120);
    let sweeps = 6;
    let mesh = lms_mesh::generators::perturbed_grid(side, side, 0.3, 7);
    let params = SmoothParams::paper().with_smart(true).with_max_iters(sweeps).with_tol(-1.0);
    for (name, p) in
        [("batched", params.clone()), ("scalar ", params.clone().with_scalar_scoring(true))]
    {
        let engine = ResidentEngine::by_method(
            &mesh,
            p,
            std::env::var("PROBE_PARTS").ok().and_then(|s| s.parse().ok()).unwrap_or(4),
            PartitionMethod::Rcb,
        );
        let mut best = u64::MAX;
        let mut last = None;
        for _ in 0..5 {
            let mut work = mesh.clone();
            let (report, _) = engine.smooth_profiled(&mut work, 1);
            let bd = report.phase_breakdown.clone().expect("phase breakdown");
            let ns: u64 = bd.per_part_sweep_ns().iter().sum();
            if ns < best {
                best = ns;
                last = Some((report, bd));
            }
        }
        let (report, bd) = last.unwrap();
        let moved: u64 = bd.transport.rank_phases.iter().map(|r| r.moved).sum();
        let scored = bd.transport.scored_elements;
        println!(
            "{name}: sweep {:>9} ns  ifc_moved {:>6}  scored {:>7}  iters {}  ns/scored {:.1}",
            best,
            moved,
            scored,
            report.iterations.len(),
            best as f64 / scored.max(1) as f64,
        );
    }
    // serial engine end-to-end, interleaved min-of-4
    let batched = SmoothEngine::new(&mesh, params.clone());
    let scalar = SmoothEngine::new(&mesh, params.with_scalar_scoring(true));
    let mut best_b = u64::MAX;
    let mut best_s = u64::MAX;
    for _ in 0..4 {
        for (engine, best) in [(&batched, &mut best_b), (&scalar, &mut best_s)] {
            let mut work = mesh.clone();
            let t0 = std::time::Instant::now();
            engine.smooth(&mut work);
            *best = (*best).min(t0.elapsed().as_nanos() as u64);
        }
    }
    println!(
        "serial: batched {best_b} ns  scalar {best_s} ns  ratio {:.3}",
        best_s as f64 / best_b as f64
    );
}
