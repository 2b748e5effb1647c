//! The metric names the harness emits — the same names, units and
//! directions `BENCHMARK.json` declares (`selfcheck` compares the two).

/// One declared metric. `exact` marks the `#` counts that must repeat
/// bit for bit between two runs of one commit on one seed.
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub exact: bool,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (0: no bound).
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str) -> Decl {
    Decl { name, unit, higher_is_better: false, exact: false, bound: 0.0 }
}

const fn time(name: &'static str) -> Decl {
    lower(name, "s")
}

const fn higher(name: &'static str, unit: &'static str) -> Decl {
    Decl { higher_is_better: true, ..lower(name, unit) }
}

const fn count(name: &'static str, unit: &'static str) -> Decl {
    Decl { exact: true, ..lower(name, unit) }
}

const fn bounded(decl: Decl, bound: f64) -> Decl {
    Decl { bound, ..decl }
}

/// What a user of the stack sees: medians over the timed fresh reps of
/// an untraced run (`peak_rss_mb`: one reading, after the first rep). The
/// time bounds follow the widest spread (distance between the quartiles of
/// ten runs' values, as a share of their median) seen on the 2-vCPU VM this
/// was written on — 12 % for `e2e_s`, 17 % for `smooth_s`, both on the
/// single-threaded serial workload while a neighbour was busy. The host,
/// not the harness, sets those; 25 % is the most the driver's contract
/// allows, and `setup_s` is to carry the widest.
pub const END_TO_END: &[Decl] = &[
    bounded(time("e2e_s"), 0.20),
    bounded(time("setup_s"), 0.25),
    bounded(time("smooth_s"), 0.25),
    bounded(lower("peak_rss_mb", "MB"), 0.05),
];

/// One layer (= crate) at a time, from the traced run. A metric reads 0
/// on a workload that does not exercise it.
pub const PER_LAYER: &[Decl] = &[
    // lms-mesh
    time("mesh.adjacency_s"),
    time("mesh.boundary_s"),
    // lms-order
    time("order.rdr_s"),
    time("order.permute_s"),
    time("order.coloring_s"),
    count("order.neighbor_span", "vertices"),
    higher("order.rdr_speedup", "ratio"),
    // lms-cache
    count("cache.l2_miss_ratio", "ratio"),
    count("cache.l3_miss_ratio", "ratio"),
    count("cache.reuse_q90", "vertices"),
    // lms-part
    time("part.partition_s"),
    time("part.schedule_s"),
    count("part.edge_cut", "edges"),
    count("part.halo_ratio", "ratio"),
    count("part.imbalance", "ratio"),
    lower("part.wire_roundtrip_ns_per_byte", "ns/B"),
    // lms-smooth
    time("smooth.engine_new_s"),
    time("smooth.blocks_s"),
    time("smooth.resident_new_s"),
    lower("smooth.serial_ns_per_vertex_sweep", "ns"),
    time("smooth.resident_steady_1t_s"),
    time("smooth.resident_steady_2t_s"),
    higher("smooth.thread_speedup_2t", "ratio"),
    lower("smooth.fresh_over_steady_2t", "ratio"),
    time("smooth.gather_s"),
    time("smooth.interior_s"),
    time("smooth.color_step_s"),
    time("smooth.finish_s"),
    time("smooth.scatter_s"),
    time("smooth.part_sweep_max_s"),
    time("smooth.part_sweep_sum_s"),
    lower("smooth.ns_per_scored_element", "ns"),
    count("smooth.scored_elements", "count"),
    count("smooth.moved_vertices", "count"),
    count("smooth.halo_bytes", "B"),
    count("smooth.halo_messages", "count"),
    count("smooth.exchange_rounds", "count"),
    // lms-dist
    time("dist.tax_s"),
    time("dist.frame_encode_s"),
    time("dist.frame_decode_s"),
    time("dist.poll_wait_s"),
    time("dist.hidden_wait_s"),
    time("dist.checkpoint_s"),
    time("dist.rank_sweep_max_s"),
    time("dist.rank_sweep_sum_s"),
    count("dist.checkpoints", "count"),
    count("dist.recoveries", "count"),
    // lms-mesh3d
    time("mesh3d.adjacency_s"),
    time("mesh3d.boundary_s"),
    time("mesh3d.engine_new_s"),
    time("mesh3d.partition_s"),
    time("mesh3d.resident_new_s"),
    lower("mesh3d.ns_per_vertex_sweep", "ns"),
    lower("mesh3d.ns_per_scored_element", "ns"),
    // lms-trace
    lower("trace.overhead_ratio", "ratio"),
    time("trace.unattributed_s"),
];

pub fn find(name: &str) -> Option<&'static Decl> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}
