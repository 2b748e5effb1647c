//! # lms-dist — distributed-memory resident smoothing
//!
//! The multi-process backend of the resident halo-exchange protocol:
//! MPI-style **ranks as worker processes** over pipes, Unix-domain or
//! TCP sockets, each rank holding one part's
//! [`lms_smooth::resident::ResidentBlock`] as its resident per-rank
//! state, a coordinator driving the color-step schedule through the
//! versioned [`lms_part::wire`] frame format.
//!
//! The layering is what makes this crate small:
//!
//! * `lms-part` owns the *communication pattern* — the
//!   [`lms_part::ExchangeSchedule`] delivery lists, their rank-addressed
//!   [`lms_part::MessagePlan`] coalescing, and the wire frames;
//! * `lms-smooth` owns the *computation* — the per-rank
//!   [`lms_smooth::ResidentRank`] kernel and the one
//!   [`lms_smooth::drive_resident_ft`] loop over a
//!   [`lms_smooth::FtResidentTransport`];
//! * this crate only *moves bytes*: [`ProcessTransport`] implements the
//!   transport operations as frames over one of three substrates
//!   ([`TransportMode`]), and the [`DistResidentEngine`] /
//!   [`DistResidentEngine3`] aliases of the one [`DistResidentEngineOn`]
//!   body reuse the in-process engine's construction wholesale.
//!
//! A rank really holds one block. Each engine forks a lean **spawner**
//! process at the top of its constructor, before the adjacency, the
//! partition or any block exists ([`Spawner`]); every rank is forked from
//! it — as the coordinator's own child, so reaping and accounting see it —
//! and starts from that pre-construction image, not the coordinator's.
//! It then gets its [`lms_smooth::resident::ResidentBlock`] and its row of
//! the exchange schedule in a checksummed `Block` frame (wire v5), which
//! it decodes with validation. Forked ranks, recovery replacements and
//! external [`serve_standalone`] workers all get their block that one way.
//!
//! Because both transports run the same ranks, route the same coalesced
//! per-pair batches in the same order and charge the same wire-length
//! accounting, a multi-process run is **bit-identical** to the
//! in-process resident engine — coordinates *and* reports — and hence to
//! serial part-major Gauss–Seidel. The cross-transport oracle in
//! `tests/oracle.rs` pins this across {2, 4, 8} parts × smart/plain ×
//! 2D/3D.
//!
//! Runs are **fault tolerant** (PR 6): every coordinator read is bounded
//! by a `poll(2)` timeout, every frame carries a CRC32c (wire v2), dead
//! ranks are reaped via `waitpid` — and a detected failure is recovered
//! by respawning the rank from the last iteration-boundary checkpoint
//! and replaying, with final coordinates and reports still bit-identical
//! to a failure-free run. The deterministic fault-injection harness
//! ([`FaultPlan`]) and the chaos suite (`tests/chaos.rs`) pin the whole
//! failure model; when forking is impossible, [`DistResidentEngine`]
//! degrades gracefully to the in-process engine.
//!
//! ```
//! use lms_part::PartitionMethod;
//! use lms_smooth::SmoothParams;
//! let mut mesh = lms_mesh::generators::perturbed_grid(16, 16, 0.35, 1);
//! let params = SmoothParams::paper().with_max_iters(4);
//! let engine = lms_dist::DistResidentEngine::by_method(&mesh, params, 2, PartitionMethod::Rcb);
//! let report = engine.smooth_with(&mut mesh, &lms_dist::FtOptions::default());
//! assert!(report.final_quality > report.initial_quality);
//! let volume = report.exchange.unwrap();
//! assert_eq!((volume.full_gathers, volume.full_scatters), (1, 1));
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod engines;
pub mod error;
pub mod fault;
pub mod socket;
pub mod spawner;
pub mod sys;
pub mod transport;
pub(crate) mod worker;

pub use engines::{
    DistResidentEngine, DistResidentEngine3, DistResidentEngineOn, FtOptions, TransportMode,
};
pub use error::DistError;
pub use fault::{FaultPlan, FaultPoint, WorkerFault, INJECTED_KILL_EXIT, REFUSED_CONNECT_EXIT};
pub use socket::{serve_standalone, Listener, SocketSpec, Supervisor};
pub use spawner::Spawner;
pub use transport::ProcessTransport;

pub(crate) mod codec {
    //! Flat `f64` ↔ point conversions of the wire coordinate payloads.
    use lms_smooth::domain::DomainPoint;

    pub(crate) fn points_to_flat<P: DomainPoint>(points: &[P]) -> Vec<f64> {
        let mut flat = Vec::with_capacity(points.len() * P::DIM);
        for &p in points {
            p.push_components(&mut flat);
        }
        flat
    }

    pub(crate) fn flat_to_points<P: DomainPoint>(flat: &[f64]) -> Vec<P> {
        assert_eq!(flat.len() % P::DIM, 0, "flat coordinate payload length");
        flat.chunks_exact(P::DIM).map(P::from_components).collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::FtOptions;
    use lms_part::PartitionMethod;
    use lms_smooth::SmoothParams;

    /// The crate smoke test CI runs by name: a real multi-process run,
    /// gated on the in-process engine bit for bit.
    #[test]
    fn smoke_two_rank_run_matches_in_process() {
        let mesh = lms_mesh::generators::perturbed_grid(12, 12, 0.35, 5);
        let params = SmoothParams::paper().with_smart(true).with_max_iters(4).with_tol(-1.0);
        let engine = super::DistResidentEngine::by_method(&mesh, params, 2, PartitionMethod::Rcb);
        assert_eq!(engine.num_ranks(), 2);
        let mut dist = mesh.clone();
        let dist_report = engine.smooth_with(&mut dist, &FtOptions::default());
        let mut local = mesh.clone();
        let local_report = engine.inner().smooth(&mut local, 2);
        assert_eq!(dist.coords(), local.coords());
        assert_eq!(dist_report, local_report);
        let volume = dist_report.exchange.unwrap();
        assert_eq!(volume.full_gathers, 1);
        assert_eq!(volume.full_scatters, 1);
        assert!(volume.halo_entries_sent > 0);
    }
}
