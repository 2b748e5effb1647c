//! Shared experiment plumbing: configuration, mesh preparation, tracing and
//! timing helpers.

use lms_cache::NodeLayout;
use lms_mesh::suite::{self, NamedMesh};
use lms_mesh::TriMesh;
use lms_mesh3d::SmoothParams3;
use lms_order::{compute_ordering, OrderingKind};
use lms_smooth::{SmoothEngine, SmoothEngineOn, SmoothMesh, SmoothParams, VecSink};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Configuration shared by every experiment runner.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Suite scale: 1.0 = the paper's 300–400k-vertex meshes.
    pub scale: f64,
    /// Restrict to one suite mesh (label or name), `None` = all nine.
    pub mesh: Option<String>,
    /// Sweep cap for traced runs.
    pub max_iters: usize,
    /// Thread counts for the scaling experiments.
    pub threads: Vec<usize>,
    /// Where to drop CSVs (`None` = don't write files).
    pub csv_dir: Option<PathBuf>,
    /// Record layout for cache simulations.
    pub layout: NodeLayout,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            // 2% of paper scale ≈ 6–8k vertices per mesh: every experiment
            // finishes in seconds on a laptop while preserving the shape of
            // the results. Use --scale 1.0 for paper-scale runs.
            scale: 0.02,
            mesh: None,
            max_iters: 50,
            threads: vec![1, 2, 4, 8, 16, 24, 32],
            csv_dir: None,
            layout: NodeLayout::paper_66(),
        }
    }
}

impl ExpConfig {
    /// The meshes selected by this config.
    pub fn meshes(&self) -> Vec<NamedMesh> {
        match &self.mesh {
            None => suite::suite(self.scale),
            Some(key) => {
                let spec =
                    suite::find_spec(key).unwrap_or_else(|| panic!("unknown suite mesh {key:?}"));
                vec![NamedMesh { spec, mesh: suite::generate(spec, self.scale) }]
            }
        }
    }

    /// A cache hierarchy scaled to the mesh scale: at paper scale the real
    /// Westmere-EX sizes; below, capacities shrink proportionally so the
    /// working-set-to-cache ratios (and therefore the miss-rate *shape*)
    /// match the paper's.
    pub fn hierarchy(&self) -> lms_cache::CacheHierarchy {
        scaled_westmere(self.scale, self.layout)
    }

    /// Machine config for the multicore simulation, same scaling rule.
    pub fn machine(&self) -> lms_cache::MachineConfig {
        let shrink = shrink_factor(self.scale);
        if shrink <= 1 {
            lms_cache::MachineConfig::westmere_ex(self.layout)
        } else {
            lms_cache::MachineConfig::westmere_scaled(self.layout, shrink)
        }
    }

    /// [`ExpConfig::hierarchy`] with the triangle region of `mesh`: the
    /// layout of a full-application trace, vertex records plus the
    /// triangle-connectivity region (12-byte records at ids
    /// `num_vertices + t`).
    pub fn hierarchy_for(&self, mesh: &TriMesh) -> lms_cache::CacheHierarchy {
        scaled_westmere(self.scale, self.layout.with_aux(mesh.num_vertices() as u32, 12))
    }

    /// [`ExpConfig::machine`] with the triangle region of `mesh`.
    pub fn machine_for(&self, mesh: &TriMesh) -> lms_cache::MachineConfig {
        let layout = self.layout.with_aux(mesh.num_vertices() as u32, 12);
        let shrink = shrink_factor(self.scale);
        if shrink <= 1 {
            lms_cache::MachineConfig::westmere_ex(layout)
        } else {
            lms_cache::MachineConfig::westmere_scaled(layout, shrink)
        }
    }
}

/// Cache shrink factor for a given mesh scale (1 at paper scale).
pub fn shrink_factor(scale: f64) -> usize {
    if scale >= 1.0 {
        1
    } else {
        (1.0 / scale).round().max(1.0) as usize
    }
}

/// A Westmere-EX hierarchy with capacities divided by [`shrink_factor`].
pub fn scaled_westmere(scale: f64, layout: NodeLayout) -> lms_cache::CacheHierarchy {
    use lms_cache::{CacheConfig, CacheHierarchy, MemoryConfig};
    let shrink = shrink_factor(scale);
    // keep sizes line-aligned and able to hold at least one full set
    let scale_bytes = |b: usize, line: usize, assoc: usize| ((b / shrink) / line).max(assoc) * line;
    CacheHierarchy::new(
        vec![
            CacheConfig {
                name: "L1",
                size_bytes: scale_bytes(32 * 1024, 64, 8),
                line_bytes: 64,
                associativity: 8,
                latency_cycles: 4,
            },
            CacheConfig {
                name: "L2",
                size_bytes: scale_bytes(256 * 1024, 64, 8),
                line_bytes: 64,
                associativity: 8,
                latency_cycles: 10,
            },
            CacheConfig {
                name: "L3",
                size_bytes: scale_bytes(24 * 1024 * 1024, 64, 24),
                line_bytes: 64,
                associativity: 24,
                latency_cycles: 100,
            },
        ],
        MemoryConfig { latency_cycles: 230 },
        layout,
    )
}

/// Apply `kind`'s permutation to `mesh`, returning the renumbered mesh.
pub fn ordered_mesh(mesh: &TriMesh, kind: OrderingKind) -> TriMesh {
    compute_ordering(mesh, kind).apply_to_mesh(mesh)
}

/// The paper's smoothing parameters capped at one sweep, per dimension:
/// what [`first_sweep_trace`] runs.
pub trait OneSweep {
    /// `paper()` with `max_iters = 1`.
    fn one_sweep() -> Self;
}

impl OneSweep for SmoothParams {
    fn one_sweep() -> Self {
        SmoothParams::paper().with_max_iters(1)
    }
}

impl OneSweep for SmoothParams3 {
    fn one_sweep() -> Self {
        SmoothParams3::paper().with_max_iters(1)
    }
}

/// Access trace of the *first* smoothing sweep of `mesh`, vertex records
/// only (paper Table 2 / Figure 1 analyse the node-array accesses), in
/// either dimension: the serial engine's own traced stream, each interior
/// vertex in storage order, then its neighbours.
pub fn first_sweep_trace<const C: usize, const D: usize, M>(mesh: &M) -> Vec<u32>
where
    M: SmoothMesh<C, D, Params: OneSweep> + Clone,
{
    let engine = SmoothEngineOn::new(mesh, M::Params::one_sweep());
    let mut sink = VecSink::new();
    engine.smooth_traced(&mut mesh.clone(), &mut sink);
    sink.accesses
}

/// Access trace of a full smoothing run (up to `max_iters` sweeps), vertex
/// records only, with iteration boundaries.
pub fn full_trace(mesh: &TriMesh, max_iters: usize) -> VecSink {
    let engine = SmoothEngine::new(mesh, SmoothParams::paper().with_max_iters(max_iters));
    let mut sink = VecSink::new();
    engine.smooth_traced(&mut mesh.clone(), &mut sink);
    sink
}

/// Full-application trace of a smoothing run: vertex records *plus* the
/// quality update's triangle records (element ids `num_vertices + t`).
/// This is the stream the cache simulations run, mirroring the shared-L3
/// pressure of the paper's full application.
pub fn full_trace_with_quality(mesh: &TriMesh, max_iters: usize) -> VecSink {
    let engine = SmoothEngine::new(mesh, SmoothParams::paper().with_max_iters(max_iters));
    let mut sink = VecSink::new();
    engine.smooth_traced_with_quality(&mut mesh.clone(), &mut sink);
    sink
}

/// One-sweep access traces for `p` static chunks of `mesh` (the parallel
/// schedule's per-thread traces), including quality-update triangle
/// accesses — the full-application stream for the multicore simulation.
pub fn parallel_sweep_traces_full(mesh: &TriMesh, p: usize) -> Vec<Vec<u32>> {
    let engine = SmoothEngine::new(mesh, SmoothParams::paper());
    lms_smooth::trace::chunked_sweep_traces_opts(engine.adjacency(), engine.boundary(), p, true)
}

/// Run `f`, returning its result and the wall-clock duration.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Duration in milliseconds as `f64`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_smooth::trace::chunked_sweep_traces;

    fn cfg() -> ExpConfig {
        ExpConfig { scale: 0.003, mesh: Some("carabiner".into()), ..Default::default() }
    }

    #[test]
    fn config_selects_single_mesh() {
        let meshes = cfg().meshes();
        assert_eq!(meshes.len(), 1);
        assert_eq!(meshes[0].spec.label, "M1");
    }

    #[test]
    fn shrink_factor_scales_inversely() {
        assert_eq!(shrink_factor(1.0), 1);
        assert_eq!(shrink_factor(2.0), 1);
        assert_eq!(shrink_factor(0.1), 10);
        assert_eq!(shrink_factor(0.02), 50);
    }

    #[test]
    fn scaled_hierarchy_keeps_level_ordering() {
        let h = scaled_westmere(0.01, NodeLayout::paper_66());
        let caps = h.capacities_in_elements();
        assert!(caps[0] < caps[1] && caps[1] < caps[2]);
    }

    #[test]
    fn first_sweep_trace_is_nonempty_and_in_range() {
        let meshes = cfg().meshes();
        let trace = first_sweep_trace(&meshes[0].mesh);
        assert!(!trace.is_empty());
        let n = meshes[0].mesh.num_vertices() as u32;
        assert!(trace.iter().all(|&v| v < n));
    }

    #[test]
    fn parallel_traces_cover_serial_trace() {
        let meshes = cfg().meshes();
        let serial = first_sweep_trace(&meshes[0].mesh);
        let engine = SmoothEngine::new(&meshes[0].mesh, SmoothParams::paper());
        let chunks = chunked_sweep_traces(engine.adjacency(), engine.boundary(), 4);
        assert_eq!(chunks.concat(), serial);
    }

    #[test]
    fn ordered_mesh_preserves_size() {
        let meshes = cfg().meshes();
        let m = &meshes[0].mesh;
        let rm = ordered_mesh(m, OrderingKind::Rdr);
        assert_eq!(rm.num_vertices(), m.num_vertices());
        assert_eq!(rm.num_triangles(), m.num_triangles());
    }

    #[test]
    fn time_it_measures() {
        let (v, d) = time_it(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(ms(d) >= 0.0);
    }
}
