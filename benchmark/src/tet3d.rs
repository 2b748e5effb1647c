//! The tetrahedral workload: the same generic resident engine with
//! 4-corner elements and larger stars, on `lms-mesh3d`'s setup path.

use crate::case::{
    push_partition_stats, push_profile, smooth_phase_rows, timed, Case, Phase, Rep, Row, JITTER,
    PARTS,
};
use crate::stats::Samples;
use crate::tracer::Tracer;
use lms::mesh3d::generators::perturbed_tet_grid;
use lms::mesh3d::{
    partition_tet_mesh, Adjacency3, Boundary3, Point3, ResidentEngine3, SmoothEngine3,
    SmoothParams3, TetMesh,
};
use lms::part::{ExchangeSchedule, Partition, PartitionMethod};
use lms::smooth::partitioned::interface_classes;
use lms::smooth::resident::build_resident_blocks;

const SWEEPS: usize = 5;
const THREADS: usize = 1;

fn params() -> SmoothParams3 {
    SmoothParams3::paper().with_smart(true).with_tol(-1.0).with_max_iters(SWEEPS)
}

fn bits(coords: &[Point3]) -> Vec<u64> {
    coords.iter().flat_map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]).collect()
}

/// Standalone timings of what `ResidentEngine3::new` does inside.
fn probe_resident_parts(t: &mut Tracer, mesh: &TetMesh, partition: &Partition) {
    t.span("probe", |t| {
        t.span("probe.adjacency", |_| Adjacency3::build(mesh));
        t.span("probe.boundary", |_| Boundary3::detect(mesh));
        let engine = t.span("probe.engine_new", |_| SmoothEngine3::new(mesh, params()));
        let classes = t.span("probe.coloring", |_| {
            interface_classes(engine.interior_color_classes(), partition)
        });
        t.span("probe.schedule", |_| ExchangeSchedule::build(partition));
        t.span("probe.blocks", |_| build_resident_blocks(&engine.domain(), partition, &classes));
    });
}

/// `tet3d-ori-resident`: generator-order tet mesh → RCB → resident engine, 1 thread.
pub struct OriResident3 {
    input: TetMesh,
}

impl OriResident3 {
    pub fn new(cells: usize, seed: u64) -> Self {
        OriResident3 { input: perturbed_tet_grid(cells, cells, cells, JITTER, seed) }
    }
}

impl Case for OriResident3 {
    fn describe(&self) -> Vec<(String, String)> {
        let mesh = &self.input;
        let coords_bytes = mesh.num_vertices() * std::mem::size_of::<Point3>();
        let mesh_bytes = coords_bytes + mesh.num_tets() * std::mem::size_of::<[u32; 4]>();
        vec![
            ("vertices".into(), mesh.num_vertices().to_string()),
            ("tets".into(), mesh.num_tets().to_string()),
            ("coords_bytes".into(), coords_bytes.to_string()),
            ("mesh_bytes".into(), mesh_bytes.to_string()),
            ("numbering".into(), "generator order".into()),
            ("sweeps".into(), SWEEPS.to_string()),
            ("execution".into(), format!("resident, {PARTS} RCB parts, {THREADS} thread")),
        ]
    }

    fn fresh(&mut self, _extra: Option<&mut Samples>) -> Result<Rep, String> {
        let mut mesh = self.input.clone();
        let (engine, setup_s) =
            timed(|| ResidentEngine3::by_method(&mesh, params(), PARTS, PartitionMethod::Rcb));
        let (report, smooth_s) = timed(|| engine.smooth(&mut mesh, THREADS));
        Ok(Rep { setup_s, smooth_s, coords: bits(mesh.coords()), report, recoveries: 0 })
    }

    fn staged(&mut self, t: &mut Tracer) -> Result<Rep, String> {
        let mut mesh = self.input.clone();
        let (engine, report, recorder) = t.span("rep", |t| {
            let engine = t.span("setup", |t| {
                let adj = t.span("mesh3d.adjacency", |_| Adjacency3::build(&mesh));
                let partition = t.span("mesh3d.partition", |_| {
                    partition_tet_mesh(&mesh, &adj, PARTS, PartitionMethod::Rcb)
                });
                t.span("mesh3d.resident_new", |_| ResidentEngine3::new(&mesh, params(), partition))
            });
            let (report, recorder) =
                t.span("smooth", |_| engine.smooth_profiled(&mut mesh, THREADS));
            (engine, report, recorder)
        });
        let (setup_s, smooth_s) = (t.rep_seconds("setup"), t.rep_seconds("smooth"));
        t.absorb(&recorder);
        push_profile(&mut t.samples, &report);
        probe_resident_parts(t, &mesh, engine.partition());
        t.end_rep();
        Ok(Rep { setup_s, smooth_s, coords: bits(mesh.coords()), report, recoveries: 0 })
    }

    fn oracle(&mut self) -> Vec<u64> {
        let engine = ResidentEngine3::by_method(&self.input, params(), PARTS, PartitionMethod::Rcb);
        let mut out = self.input.clone();
        SmoothEngine3::new(&self.input, params())
            .with_visit_order(engine.part_major_visit_order())
            .smooth(&mut out);
        bits(out.coords())
    }

    fn probes(&mut self, samples: &mut Samples) {
        let adj = Adjacency3::build(&self.input);
        let partition = partition_tet_mesh(&self.input, &adj, PARTS, PartitionMethod::Rcb);
        push_partition_stats(samples, &partition);
    }

    fn layers(&self, s: &mut Samples) -> Vec<Row> {
        let adjacency = s.med("mesh3d.adjacency");
        let adjacency_nested = s.med("probe.adjacency");
        let boundary = s.med("probe.boundary");
        let engine_new = s.med("probe.engine_new");
        s.set("mesh3d.adjacency_s", adjacency + adjacency_nested);
        s.set("mesh3d.boundary_s", boundary);
        s.set("mesh3d.engine_new_s", engine_new);
        s.set("mesh3d.partition_s", s.med("mesh3d.partition"));
        s.set("mesh3d.resident_new_s", s.med("mesh3d.resident_new"));
        s.set("order.coloring_s", s.med("probe.coloring"));
        s.set("part.schedule_s", s.med("probe.schedule"));
        s.set("smooth.blocks_s", s.med("probe.blocks"));
        let vertex_sweeps = (self.input.num_vertices() * SWEEPS) as f64;
        s.set("mesh3d.ns_per_vertex_sweep", s.med("smooth_s") * 1e9 / vertex_sweeps);
        s.set("mesh3d.ns_per_scored_element", s.med("smooth.ns_per_scored_element"));
        let setup = |layer, name, secs| Row { layer, name, phase: Phase::Setup, secs };
        let mut rows = vec![
            setup("lms-mesh3d", "Adjacency3::build (direct)", adjacency),
            setup("lms-mesh3d", "partition_tet_mesh", s.med("mesh3d.partition")),
            setup("lms-mesh3d", "Adjacency3::build (in SmoothEngine3::new)", adjacency_nested),
            setup("lms-mesh3d", "Boundary3::detect (in SmoothEngine3::new)", boundary),
            setup(
                "lms-mesh3d",
                "SmoothEngine3::new (rest)",
                engine_new - adjacency_nested - boundary,
            ),
            setup("lms-order", "coloring + interface classes", s.med("probe.coloring")),
            setup("lms-part", "ExchangeSchedule::build", s.med("probe.schedule")),
            setup("lms-smooth", "build_resident_blocks", s.med("probe.blocks")),
        ];
        smooth_phase_rows(s, "lms-smooth", "lms-smooth", "smooth call outside phases", &mut rows);
        rows
    }

    fn expected_quality(&self) -> f64 {
        EXPECTED_QUALITY
    }
}

/// `final_quality` after 5 smart sweeps of `perturbed_tet_grid(48, 48,
/// 48, 0.35, seed)`; seven seeds stay within 2e-4 of it.
const EXPECTED_QUALITY: f64 = 0.5760;
