//! The three triangle-mesh workloads: the paper's serial RDR pipeline,
//! RDR crossed with the resident engine, and the forked-rank engine on the
//! generator's own numbering.

use crate::case::{
    push_partition_stats, push_profile, smooth_phase_rows, timed, Case, Phase, Rep, Row, JITTER,
    PARTS,
};
use crate::stats::Samples;
use crate::tracer::Tracer;
use lms::cache::{quantile, CacheHierarchy, NodeLayout, ReuseDistanceAnalyzer};
use lms::dist::{DistResidentEngine, FtOptions};
use lms::mesh::generators::perturbed_grid;
use lms::mesh::{Adjacency, Boundary, Point2, TriMesh};
use lms::order::{compute_ordering_with, layout_stats, random_ordering, OrderingKind};
use lms::part::wire::Frame;
use lms::part::{partition_mesh, ExchangeSchedule, MessagePlan, Partition, PartitionMethod};
use lms::smooth::partitioned::interface_classes;
use lms::smooth::resident::build_resident_blocks;
use lms::smooth::{AccessSink, ResidentEngine, SmoothEngine, SmoothParams};

/// Sweeps of every 2D workload (the tolerance is disabled, so every
/// engine does exactly this many).
const SWEEPS: usize = 10;
/// Threads of the resident workload's timed `smooth` call. One, not the
/// two the issue asked for: on this 2-vCPU VM a fresh engine's second
/// thread shares the caller's vCPU for whole runs at a time (the other
/// vCPU idles), so two sets of ten runs put the 2-thread `smooth_s` median
/// at 0.69 s and at 0.43 s — no bound below 25 % survives that. The thread
/// dimension is measured in the traced run instead, where nothing is bounded.
const RESIDENT_THREADS: usize = 1;
/// Threads of the traced run's thread-scaling probes.
const PROBE_THREADS: usize = 2;

/// Smart Gauss–Seidel with a fixed sweep count: identical work in every engine.
fn params() -> SmoothParams {
    SmoothParams::paper().with_smart(true).with_tol(-1.0).with_max_iters(SWEEPS)
}

fn bits(coords: &[Point2]) -> Vec<u64> {
    coords.iter().flat_map(|p| [p.x.to_bits(), p.y.to_bits()]).collect()
}

/// The generator's row-major `n × n` mesh.
fn row_major_input(n: usize, seed: u64) -> TriMesh {
    perturbed_grid(n, n, JITTER, seed)
}

/// The same mesh under a random numbering: the no-locality input an
/// insertion-order generator hands over.
fn shuffled_input(n: usize, seed: u64) -> TriMesh {
    let mesh = row_major_input(n, seed);
    random_ordering(mesh.num_vertices(), seed + 1).apply_to_mesh(&mesh)
}

fn describe(mesh: &TriMesh, numbering: &str, execution: &str) -> Vec<(String, String)> {
    let coords_bytes = mesh.num_vertices() * std::mem::size_of::<Point2>();
    let mesh_bytes = coords_bytes + mesh.num_triangles() * std::mem::size_of::<[u32; 3]>();
    vec![
        ("vertices".into(), mesh.num_vertices().to_string()),
        ("triangles".into(), mesh.num_triangles().to_string()),
        ("coords_bytes".into(), coords_bytes.to_string()),
        ("mesh_bytes".into(), mesh_bytes.to_string()),
        ("numbering".into(), numbering.into()),
        ("sweeps".into(), SWEEPS.to_string()),
        ("execution".into(), execution.into()),
    ]
}

/// The RDR step as a user writes it: adjacency, ordering, renumbered mesh.
fn rdr_reorder(input: &TriMesh) -> TriMesh {
    let adj = Adjacency::build(input);
    let perm = compute_ordering_with(input, &adj, OrderingKind::Rdr);
    perm.apply_to_mesh(input)
}

fn rdr_reorder_staged(t: &mut Tracer, input: &TriMesh) -> TriMesh {
    let adj = t.span("mesh.adjacency", |_| Adjacency::build(input));
    let perm = t.span("order.rdr", |_| compute_ordering_with(input, &adj, OrderingKind::Rdr));
    t.span("order.permute", |_| perm.apply_to_mesh(input))
}

fn rcb_partition(mesh: &TriMesh) -> Partition {
    let adj = Adjacency::build(mesh);
    partition_mesh(mesh, &adj, PARTS, PartitionMethod::Rcb)
}

fn rcb_partition_staged(t: &mut Tracer, mesh: &TriMesh) -> Partition {
    let adj = t.span("mesh.adjacency", |_| Adjacency::build(mesh));
    t.span("part.partition", |_| partition_mesh(mesh, &adj, PARTS, PartitionMethod::Rcb))
}

/// Standalone timings of what `SmoothEngine::new` does inside.
fn probe_engine_parts(t: &mut Tracer, mesh: &TriMesh) {
    t.span("probe.adjacency", |_| Adjacency::build(mesh));
    t.span("probe.boundary", |_| Boundary::detect(mesh));
}

/// Standalone timings of what `ResidentEngine::new` does inside, each
/// through the public function the constructor itself calls.
fn probe_resident_parts(t: &mut Tracer, mesh: &TriMesh, partition: &Partition) {
    t.span("probe", |t| {
        probe_engine_parts(t, mesh);
        let engine = t.span("probe.engine_new", |_| SmoothEngine::new(mesh, params()));
        let classes = t.span("probe.coloring", |_| {
            interface_classes(engine.interior_color_classes(), partition)
        });
        t.span("probe.schedule", |_| ExchangeSchedule::build(partition));
        t.span("probe.blocks", |_| build_resident_blocks(&engine.domain(), partition, &classes));
    });
}

/// Seconds of one serial `smooth` of `mesh` as numbered (engine built outside the clock).
fn serial_smooth_seconds(mesh: &TriMesh) -> f64 {
    let engine = SmoothEngine::new(mesh, params());
    let mut work = mesh.clone();
    timed(|| engine.smooth(&mut work)).1
}

/// Feeds one sweep's vertex accesses to the paper's cache model.
struct ModelSink {
    hierarchy: CacheHierarchy,
    reuse: ReuseDistanceAnalyzer,
    distances: Vec<u64>,
}

impl AccessSink for ModelSink {
    fn access(&mut self, idx: u32) {
        self.hierarchy.access_element(idx);
        self.distances.push(self.reuse.access(idx));
    }
}

/// The paper's claim on the numbering the engine actually sweeps: one
/// traced sweep through the Westmere-EX hierarchy and the reuse-distance
/// analyser. A simulation, so the three numbers repeat exactly.
fn push_cache_model(samples: &mut Samples, mesh: &TriMesh) {
    let n = mesh.num_vertices();
    let mut sink = ModelSink {
        hierarchy: CacheHierarchy::westmere_ex(NodeLayout::paper_66()),
        reuse: ReuseDistanceAnalyzer::new(n, 8 * n),
        distances: Vec::with_capacity(8 * n),
    };
    SmoothEngine::new(mesh, params().with_max_iters(1)).smooth_traced(&mut mesh.clone(), &mut sink);
    // misses of a level per line access the sweep issued (not per lookup
    // that reached the level: L1 filters those down to nearly all misses)
    let issued = sink.hierarchy.stats_of("L1").map_or(0, |s| s.accesses).max(1);
    let miss_ratio =
        |level| sink.hierarchy.stats_of(level).map_or(0.0, |s| s.misses as f64 / issued as f64);
    samples.set("cache.l2_miss_ratio", miss_ratio("L2"));
    samples.set("cache.l3_miss_ratio", miss_ratio("L3"));
    samples.set("cache.reuse_q90", quantile(&sink.distances, 0.9).unwrap_or(0) as f64);
}

fn push_neighbor_span(samples: &mut Samples, mesh: &TriMesh) {
    let adj = Adjacency::build(mesh);
    samples.set("order.neighbor_span", layout_stats(mesh, &adj).mean_span);
}

fn setup_row(layer: &'static str, name: &'static str, secs: f64) -> Row {
    Row { layer, name, phase: Phase::Setup, secs }
}

/// `SmoothEngine::new` (which took `engine_new` seconds) split into the
/// adjacency and boundary builds nested in it and the rest, as metrics
/// and rows; `adjacency` is what the direct `Adjacency::build` calls took.
fn engine_new_layers(s: &mut Samples, adjacency: f64, engine_new: f64, rows: &mut Vec<Row>) {
    let adjacency_nested = s.med("probe.adjacency");
    let boundary = s.med("probe.boundary");
    s.set("mesh.adjacency_s", adjacency + adjacency_nested);
    s.set("mesh.boundary_s", boundary);
    s.set("smooth.engine_new_s", engine_new);
    rows.extend([
        setup_row("lms-mesh", "Adjacency::build (in SmoothEngine::new)", adjacency_nested),
        setup_row("lms-mesh", "Boundary::detect (in SmoothEngine::new)", boundary),
        setup_row(
            "lms-smooth",
            "SmoothEngine::new (rest)",
            engine_new - adjacency_nested - boundary,
        ),
    ]);
}

/// Metrics and setup rows every workload that builds a `ResidentEngine`
/// shares (the caller adds its own ordering rows and the smooth rows).
fn resident_setup_layers(s: &mut Samples, rows: &mut Vec<Row>) {
    let adjacency = s.med("mesh.adjacency");
    s.set("order.coloring_s", s.med("probe.coloring"));
    s.set("part.partition_s", s.med("part.partition"));
    s.set("part.schedule_s", s.med("probe.schedule"));
    s.set("smooth.blocks_s", s.med("probe.blocks"));
    s.set("smooth.resident_new_s", s.med("smooth.resident_new"));
    rows.extend([
        setup_row("lms-mesh", "Adjacency::build (direct calls)", adjacency),
        setup_row("lms-part", "partition_mesh", s.med("part.partition")),
    ]);
    engine_new_layers(s, adjacency, s.med("probe.engine_new"), rows);
    rows.extend([
        setup_row("lms-order", "coloring + interface classes", s.med("probe.coloring")),
        setup_row("lms-part", "ExchangeSchedule::build", s.med("probe.schedule")),
        setup_row("lms-smooth", "build_resident_blocks", s.med("probe.blocks")),
    ]);
}

fn rdr_rows(s: &mut Samples, rows: &mut Vec<Row>) {
    s.set("order.rdr_s", s.med("order.rdr"));
    s.set("order.permute_s", s.med("order.permute"));
    rows.extend([
        setup_row("lms-order", "compute_ordering_with(Rdr)", s.med("order.rdr")),
        setup_row("lms-order", "Permutation::apply_to_mesh", s.med("order.permute")),
    ]);
}

/// `tri2d-rdr-serial`: shuffled mesh → RDR → serial engine.
pub struct RdrSerial {
    input: TriMesh,
    ordered: Option<TriMesh>,
}

impl RdrSerial {
    pub fn new(n: usize, seed: u64) -> Self {
        RdrSerial { input: shuffled_input(n, seed), ordered: None }
    }
}

impl Case for RdrSerial {
    fn describe(&self) -> Vec<(String, String)> {
        describe(&self.input, "shuffled, then RDR", "serial, 1 thread")
    }

    fn fresh(&mut self, _extra: Option<&mut Samples>) -> Result<Rep, String> {
        let ((mut mesh, engine), setup_s) = timed(|| {
            let mesh = rdr_reorder(&self.input);
            let engine = SmoothEngine::new(&mesh, params());
            (mesh, engine)
        });
        let (report, smooth_s) = timed(|| engine.smooth(&mut mesh));
        Ok(Rep { setup_s, smooth_s, coords: bits(mesh.coords()), report, recoveries: 0 })
    }

    fn staged(&mut self, t: &mut Tracer) -> Result<Rep, String> {
        let input = &self.input;
        let (mesh, report) = t.span("rep", |t| {
            let (mut mesh, engine) = t.span("setup", |t| {
                let mesh = rdr_reorder_staged(t, input);
                let engine = t.span("smooth.engine_new", |_| SmoothEngine::new(&mesh, params()));
                (mesh, engine)
            });
            let report = t.span("smooth", |_| engine.smooth(&mut mesh));
            (mesh, report)
        });
        let (setup_s, smooth_s) = (t.rep_seconds("setup"), t.rep_seconds("smooth"));
        t.span("probe", |t| probe_engine_parts(t, &mesh));
        t.end_rep();
        Ok(Rep { setup_s, smooth_s, coords: bits(mesh.coords()), report, recoveries: 0 })
    }

    fn oracle(&mut self) -> Vec<u64> {
        let ordered = rdr_reorder(&self.input);
        let mut out = ordered.clone();
        SmoothEngine::new(&ordered, params()).smooth_full_recompute(&mut out);
        self.ordered = Some(ordered);
        bits(out.coords())
    }

    fn probes(&mut self, samples: &mut Samples) {
        let ordered = self.ordered.as_ref().expect("the oracle runs before the probes");
        samples.set("probe.shuffled_smooth_s", serial_smooth_seconds(&self.input));
        push_cache_model(samples, ordered);
        push_neighbor_span(samples, ordered);
    }

    fn layers(&self, s: &mut Samples) -> Vec<Row> {
        let adjacency = s.med("mesh.adjacency");
        let mut rows = vec![setup_row("lms-mesh", "Adjacency::build (input)", adjacency)];
        rdr_rows(s, &mut rows);
        engine_new_layers(s, adjacency, s.med("smooth.engine_new"), &mut rows);
        rows.push(Row {
            layer: "lms-smooth",
            name: "SmoothEngine::smooth",
            phase: Phase::Smooth,
            secs: s.med("traced.smooth_s"),
        });
        let smooth = s.med("smooth_s");
        s.set("order.rdr_speedup", s.med("probe.shuffled_smooth_s") / smooth);
        let vertex_sweeps = (self.input.num_vertices() * SWEEPS) as f64;
        s.set("smooth.serial_ns_per_vertex_sweep", smooth * 1e9 / vertex_sweeps);
        rows
    }

    fn expected_quality(&self) -> f64 {
        EXPECTED_QUALITY_RDR
    }
}

/// `tri2d-rdr-resident`: shuffled mesh → RDR → RCB → resident engine, 2 threads.
pub struct RdrResident {
    input: TriMesh,
    ordered: Option<(TriMesh, ResidentEngine)>,
}

impl RdrResident {
    pub fn new(n: usize, seed: u64) -> Self {
        RdrResident { input: shuffled_input(n, seed), ordered: None }
    }
}

impl Case for RdrResident {
    fn describe(&self) -> Vec<(String, String)> {
        describe(
            &self.input,
            "shuffled, then RDR",
            &format!("resident, {PARTS} RCB parts, {RESIDENT_THREADS} thread"),
        )
    }

    fn fresh(&mut self, extra: Option<&mut Samples>) -> Result<Rep, String> {
        let ((mut mesh, engine), setup_s) = timed(|| {
            let mesh = rdr_reorder(&self.input);
            let partition = rcb_partition(&mesh);
            let engine = ResidentEngine::new(&mesh, params(), partition);
            (mesh, engine)
        });
        let unsmoothed = extra.is_some().then(|| mesh.clone());
        let (report, smooth_s) = timed(|| engine.smooth(&mut mesh, RESIDENT_THREADS));
        if let (Some(samples), Some(mut again)) = (extra, unsmoothed) {
            // first multi-threaded smooth of a new engine: its pool starts here
            let secs = timed(|| engine.smooth(&mut again, PROBE_THREADS)).1;
            samples.push("probe.fresh_2t_s", secs);
        }
        Ok(Rep { setup_s, smooth_s, coords: bits(mesh.coords()), report, recoveries: 0 })
    }

    fn staged(&mut self, t: &mut Tracer) -> Result<Rep, String> {
        let input = &self.input;
        let (mesh, engine, report, recorder) = t.span("rep", |t| {
            let (mut mesh, engine) = t.span("setup", |t| {
                let mesh = rdr_reorder_staged(t, input);
                let partition = rcb_partition_staged(t, &mesh);
                let engine = t.span("smooth.resident_new", |_| {
                    ResidentEngine::new(&mesh, params(), partition)
                });
                (mesh, engine)
            });
            let (report, recorder) =
                t.span("smooth", |_| engine.smooth_profiled(&mut mesh, RESIDENT_THREADS));
            (mesh, engine, report, recorder)
        });
        let (setup_s, smooth_s) = (t.rep_seconds("setup"), t.rep_seconds("smooth"));
        t.absorb(&recorder);
        push_profile(&mut t.samples, &report);
        probe_resident_parts(t, &mesh, engine.partition());
        t.end_rep();
        Ok(Rep { setup_s, smooth_s, coords: bits(mesh.coords()), report, recoveries: 0 })
    }

    fn oracle(&mut self) -> Vec<u64> {
        let ordered = rdr_reorder(&self.input);
        let engine = ResidentEngine::new(&ordered, params(), rcb_partition(&ordered));
        let mut out = ordered.clone();
        SmoothEngine::new(&ordered, params())
            .with_visit_order(engine.part_major_visit_order())
            .smooth(&mut out);
        self.ordered = Some((ordered, engine));
        bits(out.coords())
    }

    fn probes(&mut self, samples: &mut Samples) {
        let (ordered, engine) = self.ordered.as_ref().expect("the oracle runs before the probes");
        samples.set("probe.shuffled_smooth_s", serial_smooth_seconds(&self.input));
        samples.set("probe.ordered_smooth_s", serial_smooth_seconds(ordered));
        push_cache_model(samples, ordered);
        push_neighbor_span(samples, ordered);
        push_partition_stats(samples, engine.partition());
        // One engine, reused: 2 threads first (its pool needs about three
        // runs before both vCPUs are in use), then 1 thread.
        for (threads, warm_ups, name) in [
            (PROBE_THREADS, 3, "smooth.resident_steady_2t_s"),
            (1, 1, "smooth.resident_steady_1t_s"),
        ] {
            for run in 0..warm_ups + 3 {
                let mut work = ordered.clone();
                let secs = timed(|| engine.smooth(&mut work, threads)).1;
                if run >= warm_ups {
                    samples.push(name, secs);
                }
            }
        }
    }

    fn layers(&self, s: &mut Samples) -> Vec<Row> {
        let mut rows = Vec::new();
        rdr_rows(s, &mut rows);
        resident_setup_layers(s, &mut rows);
        smooth_phase_rows(s, "lms-smooth", "lms-smooth", "smooth call outside phases", &mut rows);
        s.set(
            "order.rdr_speedup",
            s.med("probe.shuffled_smooth_s") / s.med("probe.ordered_smooth_s"),
        );
        let steady_2t = s.med("smooth.resident_steady_2t_s");
        s.set("smooth.thread_speedup_2t", s.med("smooth.resident_steady_1t_s") / steady_2t);
        s.set("smooth.fresh_over_steady_2t", s.med("probe.fresh_2t_s") / steady_2t);
        rows
    }

    fn expected_quality(&self) -> f64 {
        EXPECTED_QUALITY_RDR
    }
}

/// `tri2d-ori-dist`: generator-order mesh → forked-rank engine, no reordering.
pub struct OriDist {
    input: TriMesh,
    engine: Option<DistResidentEngine>,
}

impl OriDist {
    pub fn new(n: usize, seed: u64) -> Self {
        OriDist { input: row_major_input(n, seed), engine: None }
    }
}

impl Case for OriDist {
    fn describe(&self) -> Vec<(String, String)> {
        describe(
            &self.input,
            "generator order (row-major)",
            &format!("{PARTS} forked ranks over pipes, checkpoint every sweep, overlap on"),
        )
    }

    fn fresh(&mut self, extra: Option<&mut Samples>) -> Result<Rep, String> {
        let mut mesh = self.input.clone();
        let (engine, setup_s) =
            timed(|| DistResidentEngine::by_method(&mesh, params(), PARTS, PartitionMethod::Rcb));
        // `smooth_ft`, never `smooth`: a fall-back to the in-process
        // engine must fail the rep, not pass as a fast distributed run.
        let (result, smooth_s) = timed(|| engine.smooth_ft(&mut mesh, &FtOptions::default()));
        let (report, stats) = result.map_err(|e| format!("smooth_ft: {e}"))?;
        if let Some(samples) = extra {
            let mut again = self.input.clone();
            samples.push("probe.inprocess_1t_s", timed(|| engine.inner().smooth(&mut again, 1)).1);
        }
        Ok(Rep {
            setup_s,
            smooth_s,
            coords: bits(mesh.coords()),
            report,
            recoveries: stats.recoveries.len(),
        })
    }

    fn staged(&mut self, t: &mut Tracer) -> Result<Rep, String> {
        let mut mesh = self.input.clone();
        let (engine, result) = t.span("rep", |t| {
            let engine = t.span("setup", |t| {
                let partition = rcb_partition_staged(t, &mesh);
                t.span("smooth.resident_new", |_| {
                    DistResidentEngine::new(&mesh, params(), partition)
                })
            });
            let result =
                t.span("smooth", |_| engine.smooth_profiled(&mut mesh, &FtOptions::default()));
            (engine, result)
        });
        let (setup_s, smooth_s) = (t.rep_seconds("setup"), t.rep_seconds("smooth"));
        let (report, stats, recorder) = result.map_err(|e| {
            t.discard_rep();
            format!("smooth_profiled: {e}")
        })?;
        t.absorb(&recorder);
        push_profile(&mut t.samples, &report);
        if let Some(b) = &report.phase_breakdown {
            let secs = |ns: u64| ns as f64 * 1e-9;
            for (name, ns) in [
                ("dist.frame_encode_s", b.transport.encode_ns),
                ("dist.frame_decode_s", b.transport.decode_ns),
                ("dist.poll_wait_s", b.transport.poll_wait_ns),
                ("dist.hidden_wait_s", b.transport.hidden_wait_ns),
                ("dist.checkpoint_s", b.checkpoint_ns),
            ] {
                t.samples.push(name, secs(ns));
            }
        }
        t.samples.push("dist.checkpoints", stats.checkpoints as f64);
        t.samples.push("dist.recoveries", stats.recoveries.len() as f64);
        probe_resident_parts(t, &mesh, engine.inner().partition());
        t.end_rep();
        Ok(Rep {
            setup_s,
            smooth_s,
            coords: bits(mesh.coords()),
            report,
            recoveries: stats.recoveries.len(),
        })
    }

    fn oracle(&mut self) -> Vec<u64> {
        let engine =
            DistResidentEngine::by_method(&self.input, params(), PARTS, PartitionMethod::Rcb);
        let mut out = self.input.clone();
        SmoothEngine::new(&self.input, params())
            .with_visit_order(engine.inner().part_major_visit_order())
            .smooth(&mut out);
        self.engine = Some(engine);
        bits(out.coords())
    }

    fn probes(&mut self, samples: &mut Samples) {
        let engine = self.engine.as_ref().expect("the oracle runs before the probes");
        push_cache_model(samples, &self.input);
        push_neighbor_span(samples, &self.input);
        push_partition_stats(samples, engine.inner().partition());
        // A halo-delta frame as large as the busiest (source → destination)
        // pair can send, through the encoder and decoder the ranks use.
        let plan = MessagePlan::build(engine.inner().exchange_schedule());
        let entries = (0..PARTS as u32)
            .flat_map(|p| plan.pair_entry_counts(p).iter().copied())
            .max()
            .unwrap_or(1);
        let frame = Frame::HaloDelta {
            part: 1,
            slots: (0..entries).collect(),
            coords: bits(&self.input.coords()[..entries as usize])
                .into_iter()
                .map(f64::from_bits)
                .collect(),
        };
        let bytes = frame.encode().len();
        let rounds = (4 << 20) / bytes + 1;
        let ((), secs) = timed(|| {
            for _ in 0..rounds {
                let decoded = Frame::decode(std::hint::black_box(&frame).encode().as_slice());
                assert!(std::hint::black_box(decoded).is_ok(), "frame round trip failed");
            }
        });
        samples.set("part.wire_roundtrip_ns_per_byte", secs * 1e9 / (rounds * bytes) as f64);
    }

    fn layers(&self, s: &mut Samples) -> Vec<Row> {
        let mut rows = Vec::new();
        resident_setup_layers(s, &mut rows);
        smooth_phase_rows(
            s,
            "lms-dist + ranks",
            "lms-dist",
            "fork, handshake, shutdown, reap",
            &mut rows,
        );
        s.set("dist.tax_s", s.med("smooth_s") - s.med("probe.inprocess_1t_s"));
        // a rank is a part: the same profiled sweep times under the dist name
        s.set("dist.rank_sweep_max_s", s.med("smooth.part_sweep_max_s"));
        s.set("dist.rank_sweep_sum_s", s.med("smooth.part_sweep_sum_s"));
        rows
    }

    fn expected_quality(&self) -> f64 {
        EXPECTED_QUALITY_ORI
    }
}

/// `final_quality` after 10 smart sweeps of `perturbed_grid(768, 768,
/// 0.35, seed)`, at the centre of what seven seeds reach (each within
/// 4e-4 of it, against the gate's 1e-3). The visit order matters in the
/// fourth decimal: RDR numbering (serial or part-major) lands on one
/// value, row-major part-major on another.
const EXPECTED_QUALITY_RDR: f64 = 0.7985;
const EXPECTED_QUALITY_ORI: f64 = 0.7989;
