//! The paper's qualitative claims, asserted as tests. Each test pins the
//! *shape* of a published result (who wins, direction of effects) on
//! laptop-scale versions of the evaluation, so regressions in any crate
//! that would silently break the reproduction fail loudly here.

use lms::cache::{
    quantile, CostModel, NodeLayout, ReuseDistanceAnalyzer, ReuseStats, StackDistanceModel,
};
use lms::mesh::suite;
use lms::order::{compute_ordering, OrderingKind};
use lms::prelude::*;
use lms::smooth::VecSink;

const SCALE: f64 = 0.01;

fn first_sweep_distances(base: &lms::mesh::TriMesh, kind: OrderingKind) -> Vec<u64> {
    let mesh = compute_ordering(base, kind).apply_to_mesh(base);
    let engine = SmoothEngine::new(&mesh, SmoothParams::paper().with_max_iters(1));
    let mut sink = VecSink::new();
    engine.smooth_traced(&mut mesh.clone(), &mut sink);
    ReuseDistanceAnalyzer::analyze(&sink.accesses, mesh.num_vertices())
}

fn scaled_hierarchy(layout: NodeLayout) -> CacheHierarchy {
    use lms::cache::{CacheConfig, MemoryConfig};
    let shrink = (1.0 / SCALE) as usize;
    let sz = |b: usize, line: usize, assoc: usize| ((b / shrink) / line).max(assoc) * line;
    CacheHierarchy::new(
        vec![
            CacheConfig {
                name: "L1",
                size_bytes: sz(32 << 10, 64, 8),
                line_bytes: 64,
                associativity: 8,
                latency_cycles: 4,
            },
            CacheConfig {
                name: "L2",
                size_bytes: sz(256 << 10, 64, 8),
                line_bytes: 64,
                associativity: 8,
                latency_cycles: 10,
            },
            CacheConfig {
                name: "L3",
                size_bytes: sz(24 << 20, 64, 24),
                line_bytes: 64,
                associativity: 24,
                latency_cycles: 100,
            },
        ],
        MemoryConfig { latency_cycles: 230 },
        layout,
    )
}

/// Figure 1's ranking: the mean reuse distance of the first iteration is
/// far worse under RANDOM than under any structured ordering.
#[test]
fn figure1_random_is_far_worse_than_structured_orderings() {
    let base = suite::generate(suite::find_spec("ocean").unwrap(), SCALE);
    let mean = |kind| ReuseStats::from_distances(&first_sweep_distances(&base, kind)).mean;
    let random = mean(OrderingKind::Random { seed: 0 });
    let ori = mean(OrderingKind::Original);
    let bfs = mean(OrderingKind::Bfs);
    let rdr = mean(OrderingKind::Rdr);
    assert!(random > 5.0 * ori, "random {random} vs ori {ori}");
    assert!(random > 5.0 * bfs && random > 5.0 * rdr);
    // BFS improves on the generator's numbering (Strout & Hovland's result)
    assert!(bfs < ori, "bfs {bfs} vs ori {ori}");
}

/// The paper's pipeline starts from a mesh with no locality to inherit. On
/// a shuffled grid RDR must still produce one compact layout — its chains
/// make the growing front several layers thick, so its mean neighbour span
/// sits at 3–4× BFS's, where restarting chains from the global quality list
/// gave 10× — and one sweep over it must reuse vertices nearly as soon as a
/// sweep over the row-major mesh does (global restarts: 6× later).
#[test]
fn rdr_restores_locality_on_a_shuffled_mesh() {
    use lms::mesh::{generators, Adjacency};
    use lms::order::{layout_stats, random_ordering};
    let row_major = generators::perturbed_grid(96, 96, 0.35, 11);
    let shuffled = random_ordering(row_major.num_vertices(), 12).apply_to_mesh(&row_major);
    let span = |kind| {
        let mesh = compute_ordering(&shuffled, kind).apply_to_mesh(&shuffled);
        layout_stats(&mesh, &Adjacency::build(&mesh)).mean_span
    };
    let (rdr, bfs) = (span(OrderingKind::Rdr), span(OrderingKind::Bfs));
    assert!(rdr <= 5.0 * bfs, "mean span: rdr {rdr} vs bfs {bfs}");

    let q90 = |base, kind| quantile(&first_sweep_distances(base, kind), 0.9).unwrap();
    let rdr = q90(&shuffled, OrderingKind::Rdr);
    let ori = q90(&row_major, OrderingKind::Original);
    assert!(rdr <= 4 * ori, "reuse-distance q90: rdr {rdr} vs row-major {ori}");
}

/// Table 2's head: RDR's low quantiles collapse well below BFS's — the
/// chains put each vertex's neighbourhood at adjacent positions.
#[test]
fn table2_rdr_quantiles_beat_bfs_at_the_head() {
    let base = suite::generate(suite::find_spec("carabiner").unwrap(), SCALE);
    let bfs = first_sweep_distances(&base, OrderingKind::Bfs);
    let rdr = first_sweep_distances(&base, OrderingKind::Rdr);
    let q75_bfs = quantile(&bfs, 0.75).unwrap();
    let q75_rdr = quantile(&rdr, 0.75).unwrap();
    assert!(q75_rdr < q75_bfs, "75% quantile: rdr {q75_rdr} must be below bfs {q75_bfs}");
    // and the medians of both sit in the single-digit regime the paper shows
    assert!(quantile(&rdr, 0.5).unwrap() <= 16);
    assert!(quantile(&bfs, 0.5).unwrap() <= 16);
}

/// Figure 9's direction: simulated L1 and L2 misses drop from ORI to BFS to
/// RDR on the full-application stream.
#[test]
fn figure9_miss_counts_rank_rdr_best() {
    let base = suite::generate(suite::find_spec("dialog").unwrap(), SCALE);
    let mut misses = Vec::new();
    for kind in OrderingKind::PAPER_TRIO {
        let mesh = compute_ordering(&base, kind).apply_to_mesh(&base);
        let engine = SmoothEngine::new(&mesh, SmoothParams::paper().with_max_iters(4));
        let mut sink = VecSink::new();
        engine.smooth_traced_with_quality(&mut mesh.clone(), &mut sink);
        let layout = NodeLayout::paper_66().with_aux(mesh.num_vertices() as u32, 12);
        let mut h = scaled_hierarchy(layout);
        h.run_trace(&sink.accesses);
        misses.push((h.stats_of("L1").unwrap().misses, h.stats_of("L2").unwrap().misses));
    }
    let (ori, bfs, rdr) = (misses[0], misses[1], misses[2]);
    assert!(rdr.0 < bfs.0 && bfs.0 < ori.0, "L1 misses must rank rdr<bfs<ori: {misses:?}");
    assert!(rdr.1 < bfs.1 && bfs.1 < ori.1, "L2 misses must rank rdr<bfs<ori: {misses:?}");
}

/// §5.2.3's quasi-optimality: under the stack-distance model, RDR's L3
/// misses (beyond compulsory) are zero at paper capacity ratios.
#[test]
fn table3_rdr_has_no_modelled_l3_misses() {
    let base = suite::generate(suite::find_spec("wrench").unwrap(), SCALE);
    let rdr = first_sweep_distances(&base, OrderingKind::Rdr);
    // capacities scaled like the Westmere (496/3971/381300 at full size)
    let model = StackDistanceModel::new(vec![
        (496.0 * SCALE).ceil() as u64,
        (3971.0 * SCALE * 10.0).ceil() as u64, // keep levels ordered at tiny scale
        (381_300.0 * SCALE) as u64,
    ]);
    let out = model.apply(&rdr, false);
    assert_eq!(
        out.misses[2], 0,
        "RDR reuse distances must all fit the scaled L3 ({} elements)",
        model.capacities[2]
    );
}

/// Figure 12's shape: simulated multicore speedup grows with cores and RDR
/// dominates BFS dominates ORI at every core count.
#[test]
fn figure12_simulated_speedup_ranking() {
    use lms::cache::{multicore, MachineConfig};
    let base = suite::generate(suite::find_spec("lake").unwrap(), SCALE);
    let shrink = (1.0 / SCALE) as usize;

    let wall = |kind, p: usize| {
        let mesh = compute_ordering(&base, kind).apply_to_mesh(&base);
        let engine = SmoothEngine::new(&mesh, SmoothParams::paper());
        let traces = lms::smooth::trace::chunked_sweep_traces_opts(
            engine.adjacency(),
            engine.boundary(),
            p,
            true,
        );
        let layout = NodeLayout::paper_66().with_aux(mesh.num_vertices() as u32, 12);
        let machine = MachineConfig::westmere_scaled(layout, shrink);
        multicore::simulate(&machine, &traces).wall_cycles()
    };

    let base_cycles = wall(OrderingKind::Original, 1) as f64;
    for p in [4usize, 16, 32] {
        let ori = base_cycles / wall(OrderingKind::Original, p) as f64;
        let bfs = base_cycles / wall(OrderingKind::Bfs, p) as f64;
        let rdr = base_cycles / wall(OrderingKind::Rdr, p) as f64;
        assert!(rdr > bfs && bfs > ori, "p={p}: rdr {rdr:.1} bfs {bfs:.1} ori {ori:.1}");
        assert!(rdr > 0.8 * p as f64, "p={p}: rdr speedup {rdr:.1} too low");
    }
}

/// §5.4: the RDR reordering costs no more than a few smoothing sweeps.
#[test]
fn section54_reordering_cost_is_a_few_sweeps() {
    let base = suite::generate(suite::find_spec("riverflow").unwrap(), SCALE);
    let t0 = std::time::Instant::now();
    let _perm = lms::order::rdr_ordering(&base);
    let reorder = t0.elapsed();

    let one = SmoothParams::paper().with_max_iters(1);
    let t1 = std::time::Instant::now();
    smooth(&mut base.clone(), one, Backend::Serial);
    let sweep = t1.elapsed();

    // The paper reports ≈1 sweep; allow generous slack for tiny meshes
    // where constant factors dominate. (Note SmoothParams::smooth also
    // rebuilds adjacency, as does rdr_ordering, so the comparison is fair.)
    assert!(reorder < sweep * 12, "reordering {reorder:?} should cost about one sweep ({sweep:?})");
}

/// Equation (2): the modelled extra cycles rank rdr < bfs on the carabiner
/// (the paper's worked example gives 927k / 528k / 210k for ORI/BFS/RDR).
#[test]
fn equation2_extra_cycles_rank() {
    let base = suite::generate(suite::find_spec("carabiner").unwrap(), SCALE);
    let model = StackDistanceModel::new(vec![5, 40, 3813]);
    let costs = CostModel::westmere_ex();
    let cycles = |kind| {
        let d = first_sweep_distances(&base, kind);
        let out = model.apply(&d, false);
        costs.extra_cycles_from_misses(out.misses[0], out.misses[1], out.misses[2])
    };
    let ori = cycles(OrderingKind::Original);
    let rdr = cycles(OrderingKind::Rdr);
    assert!(rdr < ori, "rdr extra cycles {rdr} must undercut ori {ori}");
}

/// The paper's §5.1 note: orderings do not change the number of iterations
/// needed to converge (within ±1 for Gauss–Seidel sweep-order effects).
#[test]
fn iteration_counts_are_ordering_insensitive() {
    let base = suite::generate(suite::find_spec("crake").unwrap(), 0.004);
    let mut iters = Vec::new();
    for kind in OrderingKind::PAPER_TRIO {
        let mesh = compute_ordering(&base, kind).apply_to_mesh(&base);
        let report = smooth(&mut mesh.clone(), SmoothParams::paper(), Backend::Serial);
        assert!(report.converged);
        iters.push(report.num_iterations() as i64);
    }
    let max = iters.iter().max().unwrap();
    let min = iters.iter().min().unwrap();
    assert!(max - min <= 2, "iteration counts {iters:?} diverge across orderings");
}
