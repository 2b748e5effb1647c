//! One smoothing entry over a [`Backend`]: where Algorithm 1 runs is a
//! parameter of the run, not a separate algorithm.
//!
//! [`smooth`] is the only code that picks a smoothing engine by name. It
//! works for every mesh dimension: the corner count `C` is inferred from
//! the mesh type's [`SmoothMesh`] impl (`TriMesh` → 3, `TetMesh` → 4), and
//! the parameter type is the mesh's own (`SmoothParams` or
//! `SmoothParams3`).
//!
//! ```
//! use lms_apps::{smooth, Backend};
//! use lms_part::PartitionMethod;
//! use lms_smooth::SmoothParams;
//!
//! let mesh = lms_mesh::generators::perturbed_grid(16, 16, 0.35, 1);
//! let params = SmoothParams::paper().with_max_iters(5);
//! let mut serial = mesh.clone();
//! smooth(&mut serial, params.clone(), Backend::Serial);
//! // the resident engine is deterministic for any thread count
//! let resident = |threads| Backend::Resident { parts: 4, method: PartitionMethod::Rcb, threads };
//! let (mut one, mut three) = (mesh.clone(), mesh);
//! let r1 = smooth(&mut one, params.clone(), resident(1));
//! let r3 = smooth(&mut three, params, resident(3));
//! assert_eq!((one.coords(), r1), (three.coords(), r3));
//! ```

use lms_dist::{DistResidentEngineOn, FtOptions, TransportMode};
use lms_part::PartitionMethod;
use lms_smooth::{ResidentEngineOn, SmoothEngineOn, SmoothMesh, SmoothReport};

/// Where a smoothing run executes. [`Backend::Serial`] runs Algorithm 1
/// under either update scheme; the decomposed backends run it in place,
/// bit-identical to serial Gauss–Seidel in their part-major visit order
/// and deterministic for any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The serial engine on the incremental-quality kernel: Gauss–Seidel
    /// or Jacobi, as `params` ask.
    Serial,
    /// The resident halo-exchange engine: `parts` blocks from `method`,
    /// swept by `threads` pool workers.
    Resident {
        /// Number of parts to decompose into.
        parts: usize,
        /// Geometric partitioner.
        method: PartitionMethod,
        /// Worker threads.
        threads: usize,
    },
    /// The multi-process resident engine: one forked rank per part,
    /// halo deltas as wire frames over `substrate`. Bit-identical to
    /// [`Backend::Resident`] over the same decomposition on every
    /// substrate, and run in-process when no rank group can be
    /// established.
    Dist {
        /// Number of parts, one rank process each.
        parts: usize,
        /// Geometric partitioner.
        method: PartitionMethod,
        /// Byte-stream substrate the ranks talk over.
        substrate: TransportMode,
    },
}

/// Smooth `mesh` in place under `params` on `backend`.
///
/// # Panics
/// When `params` ask for Jacobi updates on [`Backend::Resident`] or
/// [`Backend::Dist`] (both are in-place schedules; Jacobi runs on
/// [`Backend::Serial`]), or when a distributed run fails beyond recovery.
pub fn smooth<const C: usize, const D: usize, M: SmoothMesh<C, D>>(
    mesh: &mut M,
    params: M::Params,
    backend: Backend,
) -> SmoothReport {
    match backend {
        Backend::Serial => SmoothEngineOn::new(mesh, params).smooth(mesh),
        Backend::Resident { parts, method, threads } => {
            ResidentEngineOn::by_method(mesh, params, parts, method).smooth(mesh, threads)
        }
        Backend::Dist { parts, method, substrate } => {
            let options = FtOptions { mode: substrate, ..FtOptions::default() };
            DistResidentEngineOn::by_method(mesh, params, parts, method).smooth_with(mesh, &options)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_mesh::generators::perturbed_grid;
    use lms_mesh3d::generators::perturbed_tet_grid;
    use lms_mesh3d::SmoothParams3;
    use lms_smooth::{SmoothParams, UpdateScheme};

    const PARTS: usize = 3;
    const RCB: PartitionMethod = PartitionMethod::Rcb;

    /// Every backend through [`smooth`] against the engine call it stands
    /// for, bit for bit — coordinates and report. Then what the rows
    /// share: the resident rows are thread-count invariant, and `Dist`
    /// over pipes and every substrate in `sockets` lands on the resident
    /// row.
    fn backend_table<const C: usize, const D: usize, M: SmoothMesh<C, D> + Clone>(
        mesh: &M,
        gs: M::Params,
        jacobi: M::Params,
        sockets: &[TransportMode],
    ) {
        let run = |params: &M::Params, call: &dyn Fn(&mut M, M::Params) -> SmoothReport| {
            let mut m = mesh.clone();
            let report = call(&mut m, params.clone());
            (m.coords().to_vec(), report)
        };
        let engine = |m: &M, p| SmoothEngineOn::<C, D, M>::new(m, p);
        let resident = |m: &M, p| ResidentEngineOn::<C, D, M>::by_method(m, p, PARTS, RCB);
        let rows = [
            (Backend::Serial, &gs, run(&gs, &|m, p| engine(m, p).smooth(m))),
            (Backend::Serial, &jacobi, run(&jacobi, &|m, p| engine(m, p).smooth(m))),
            (
                Backend::Resident { parts: PARTS, method: RCB, threads: 1 },
                &gs,
                run(&gs, &|m, p| resident(m, p).smooth(m, 1)),
            ),
            (
                Backend::Resident { parts: PARTS, method: RCB, threads: 2 },
                &gs,
                run(&gs, &|m, p| resident(m, p).smooth(m, 2)),
            ),
        ];
        for (backend, params, direct) in &rows {
            assert_eq!(run(params, &|m, p| smooth(m, p, *backend)), *direct, "{backend:?}");
        }
        assert_eq!(rows[2].2, rows[3].2, "resident: 1 vs 2 threads");
        for &substrate in [TransportMode::Pipes].iter().chain(sockets) {
            let dist = Backend::Dist { parts: PARTS, method: RCB, substrate };
            assert_eq!(run(&gs, &|m, p| smooth(m, p, dist)), rows[2].2, "{dist:?}");
        }
    }

    #[test]
    fn every_backend_is_its_engine_call_2d() {
        let mut mesh = perturbed_grid(14, 14, 0.35, 9);
        mesh.orient_ccw();
        let gs = SmoothParams::paper().with_smart(true).with_tol(-1.0).with_max_iters(4);
        let jacobi = SmoothParams::paper()
            .with_update(UpdateScheme::Jacobi)
            .with_tol(-1.0)
            .with_max_iters(4);
        backend_table(&mesh, gs, jacobi, &[TransportMode::UnixSocket]);
    }

    #[test]
    fn every_backend_is_its_engine_call_3d() {
        let mesh = perturbed_tet_grid(6, 6, 6, 0.35, 8);
        let gs = SmoothParams3::paper().with_smart(true).with_tol(-1.0).with_max_iters(3);
        let jacobi = SmoothParams3::paper()
            .with_update(UpdateScheme::Jacobi)
            .with_tol(-1.0)
            .with_max_iters(3);
        backend_table(&mesh, gs, jacobi, &[]);
    }
}
