//! The distributed resident engine: the drop-in twin of
//! [`lms_smooth::ResidentEngineOn`] that runs every part as a forked
//! rank process instead of a pool worker — one generic body,
//! [`DistResidentEngine`] (triangles) and [`DistResidentEngine3`]
//! (tetrahedra) being its two aliases.
//!
//! Construction is *shared with* the in-process engine — a
//! [`DistResidentEngineOn`] wraps a [`ResidentEngineOn`] and reuses its
//! blocks, schedule, color classes and stat weights verbatim — so the
//! only difference between `engine.inner().smooth(mesh, t)` and
//! `engine.smooth_with(mesh, &options)` is the transport. That is exactly
//! what the cross-transport oracle (`tests/oracle.rs`) pins: bit-identical
//! coordinates *and* bit-identical reports, exchange accounting included.
//!
//! The one thing construction adds is the rank [`Spawner`]: the first
//! thing both constructors do, before the adjacency, the partition or any
//! block exists, is fork it. Every rank of every run is forked from it,
//! so a rank starts with the image the process had before construction,
//! not the coordinator's, and receives its one block over its channel.
//! Clones of the engine share the spawner; the last one to drop kills
//! and reaps it.
//!
//! Runs are **fault tolerant**: [`smooth_ft`] drives the process
//! transport through `lms_smooth::drive_resident_ft`, so a rank that
//! dies, stalls past the read timeout, or corrupts its stream is
//! detected, respawned from the last iteration-boundary checkpoint, and
//! the lost work replayed — with a final state bit-identical to a
//! failure-free run (`tests/chaos.rs` pins this). When rank processes
//! cannot be forked at all, [`smooth_with`] degrades gracefully to the
//! in-process resident engine, which computes the same answer.
//!
//! Rank processes are forked per run and reaped before [`smooth_with`]
//! returns (`full_gathers == 1 && full_scatters == 1` still holds: the
//! block is gathered once, resident in its rank for the whole run, and
//! scattered once).
//!
//! [`smooth_with`]: DistResidentEngineOn::smooth_with
//! [`smooth_ft`]: DistResidentEngineOn::smooth_ft

use crate::error::DistError;
use crate::fault::FaultPlan;
use crate::socket::{Listener, SocketSpec, Supervisor};
use crate::spawner::Spawner;
use crate::transport::ProcessTransport;
use lms_part::{ExchangeSchedule, Partition, PartitionMethod};
use lms_smooth::domain::{DomainConfig, ScoringDomain};
use lms_smooth::resident::ResidentBlock;
use lms_smooth::transport::drive_resident_ft_with;
use lms_smooth::{FtPolicy, FtStats, ResidentEngineOn, SmoothMesh, SmoothReport};
use lms_trace::{NullTrace, PhaseBreakdown, Recorder, TraceSink, TransportProfile};
use std::sync::Arc;

/// Which byte-stream substrate the forked rank workers of a distributed
/// run talk over. The coordinator above it is the same either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportMode {
    /// Forked workers over anonymous pipes.
    Pipes,
    /// Forked workers dialling back over a Unix-domain socket under the
    /// temp dir.
    UnixSocket,
    /// Forked workers dialling back over TCP loopback — the single-host
    /// stand-in for the multi-node deployment shape.
    TcpLoopback,
}

/// Knobs of a fault-tolerant distributed run.
#[derive(Debug, Clone)]
pub struct FtOptions {
    /// Checkpoint cadence and recovery budget of the drive loop.
    pub policy: FtPolicy,
    /// `poll(2)` bound on every coordinator read, in milliseconds: a rank
    /// producing nothing for this long is diagnosed as stalled, killed
    /// and respawned from the checkpoint. Negative disables the bound.
    pub read_timeout_ms: i32,
    /// Scripted fault injection — [`FaultPlan::none`] outside the chaos
    /// suite.
    pub faults: FaultPlan,
    /// Phase profiling: ranks time their sweep phases and report them in
    /// every `Report` frame; the coordinator times its routing work.
    /// Observation only — coordinates and reports (minus the breakdown)
    /// are bit-identical either way. Off by default.
    pub profile: bool,
    /// Byte-stream substrate of the run. Defaults to
    /// [`TransportMode::Pipes`].
    pub mode: TransportMode,
    /// Connection supervision knobs of the socket substrates
    /// (retry/backoff and accept bounds); ignored over pipes.
    pub supervisor: Supervisor,
}

impl Default for FtOptions {
    fn default() -> Self {
        FtOptions {
            policy: FtPolicy::default(),
            // generous: a false stall positive costs a full recovery
            read_timeout_ms: 30_000,
            faults: FaultPlan::none(),
            profile: false,
            mode: TransportMode::Pipes,
            supervisor: Supervisor::default(),
        }
    }
}

/// Fork the rank group from `spawner` over `options.mode`'s substrate.
fn spawn_transport<'a, const C: usize, D: ScoringDomain<C>>(
    spawner: &'a Spawner,
    dom: &'a D,
    blocks: &'a [ResidentBlock<C>],
    schedule: &'a ExchangeSchedule,
    options: &FtOptions,
) -> Result<ProcessTransport<'a, C, D>, DistError> {
    let (timeout, faults, profile) =
        (options.read_timeout_ms, options.faults.clone(), options.profile);
    let spec = match options.mode {
        TransportMode::Pipes => {
            return ProcessTransport::spawn(
                spawner, dom, blocks, schedule, timeout, faults, profile,
            )
        }
        TransportMode::UnixSocket => SocketSpec::temp_unix(),
        TransportMode::TcpLoopback => SocketSpec::tcp_loopback(),
    };
    let supervisor = &options.supervisor;
    ProcessTransport::spawn_forked(
        &spec, spawner, dom, blocks, schedule, timeout, faults, profile, supervisor,
    )
}

/// Multi-process resident smoothing: one rank process per part, wire
/// frames over pipes or sockets, coordinates and reports bit-identical to
/// [`ResidentEngineOn`] over the same mesh type `M` (hence to serial
/// part-major Gauss–Seidel) — including runs that detect and recover rank
/// failures. One wire serialisation covers every dimension: only the
/// handshake's coordinate dimension differs.
#[derive(Debug, Clone)]
pub struct DistResidentEngineOn<const C: usize, const D: usize, M: SmoothMesh<C, D>> {
    inner: ResidentEngineOn<C, D, M>,
    /// What every rank is forked from; `None` when it could not be
    /// forked, and then every run degrades to the in-process engine.
    spawner: Option<Arc<Spawner>>,
}

/// Multi-process resident smoothing of triangle meshes.
pub type DistResidentEngine = DistResidentEngineOn<3, 2, lms_mesh::TriMesh>;

/// Multi-process resident smoothing of tetrahedral meshes.
pub type DistResidentEngine3 = DistResidentEngineOn<4, 3, lms_mesh3d::TetMesh>;

impl<const C: usize, const D: usize, M: SmoothMesh<C, D>> DistResidentEngineOn<C, D, M> {
    /// Build the engine for `mesh` under `params` and an existing
    /// decomposition (Gauss–Seidel parameters only). The rank spawner is
    /// forked first, before anything is built.
    pub fn new(mesh: &M, params: M::Params, partition: Partition) -> Self {
        let spawner = start_spawner(mesh, &params);
        DistResidentEngineOn { inner: ResidentEngineOn::new(mesh, params, partition), spawner }
    }

    /// Convenience: decompose `mesh` into `num_parts` with `method`, then
    /// build the engine. The rank spawner is forked first, before the
    /// adjacency or the partition exists.
    pub fn by_method(
        mesh: &M,
        params: M::Params,
        num_parts: usize,
        method: PartitionMethod,
    ) -> Self {
        let spawner = start_spawner(mesh, &params);
        let inner = ResidentEngineOn::by_method(mesh, params, num_parts, method);
        DistResidentEngineOn { inner, spawner }
    }

    /// The wrapped in-process engine (shared blocks, schedule, classes) —
    /// the bit-identity oracle to compare runs against.
    pub fn inner(&self) -> &ResidentEngineOn<C, D, M> {
        &self.inner
    }

    /// Number of rank processes a run forks (= number of parts).
    pub fn num_ranks(&self) -> usize {
        self.inner.blocks().len()
    }

    /// The process every rank is forked from, shared by the engine's
    /// clones; `None` when it could not be forked.
    pub fn spawner(&self) -> Option<&Spawner> {
        self.spawner.as_deref()
    }

    /// Fault-tolerant distributed run with explicit options: fork one
    /// rank per part, drive the checkpoint/recovery loop over the process
    /// transport, reap the ranks. On success the result is bit-identical
    /// to [`ResidentEngineOn::smooth`] — whether or not ranks failed along
    /// the way — and [`FtStats`] says what fault tolerance did. Errors
    /// are typed: [`DistError::Spawn`] means no rank group could be
    /// created (degrade to the in-process engine); anything else means
    /// the recovery budget ran out.
    pub fn smooth_ft(
        &self,
        mesh: &mut M,
        options: &FtOptions,
    ) -> Result<(SmoothReport, FtStats), DistError> {
        let (report, stats, _) = self.smooth_ft_with(mesh, options, &mut NullTrace)?;
        Ok((report, stats))
    }

    /// [`smooth_ft`](Self::smooth_ft) with an explicit driver-side
    /// [`TraceSink`], additionally returning the coordinator's
    /// [`TransportProfile`] (all-zero unless `options.profile` is set).
    /// The building block of [`smooth_profiled`](Self::smooth_profiled).
    fn smooth_ft_with<S: TraceSink>(
        &self,
        mesh: &mut M,
        options: &FtOptions,
        sink: &mut S,
    ) -> Result<(SmoothReport, FtStats, TransportProfile), DistError> {
        let coords = self.inner.checked_coords(mesh);
        let (dom, cfg) = (self.inner.scoring(), self.inner.domain_config());
        let spawner = self.spawner().ok_or_else(|| {
            DistError::Spawn(std::io::Error::other("no rank spawner could be forked"))
        })?;
        let transport = spawn_transport(
            spawner,
            &dom,
            self.inner.blocks(),
            self.inner.exchange_schedule(),
            options,
        )?;
        self.drive(&dom, &cfg, transport, coords, options, sink)
    }

    /// Drive the fault-tolerant loop over an established `transport`,
    /// then shut it down — the shared tail of the forked and the
    /// external-worker runs.
    fn drive<'t, 'e, S: TraceSink>(
        &'e self,
        dom: &'t M::Scoring<'e>,
        cfg: &DomainConfig,
        mut transport: ProcessTransport<'t, C, M::Scoring<'e>>,
        coords: &mut [M::Point],
        options: &FtOptions,
        sink: &mut S,
    ) -> Result<(SmoothReport, FtStats, TransportProfile), DistError> {
        let result = drive_resident_ft_with(
            dom,
            cfg,
            self.inner.inv_degrees(),
            self.inner.interface_classes().len(),
            &mut transport,
            coords,
            &options.policy,
            sink,
        );
        match result {
            Ok((report, stats)) => {
                let profile = transport.take_profile();
                transport.shutdown()?;
                Ok((report, stats, profile))
            }
            Err(e) => {
                // teardown diagnostics must not shadow the run's failure
                let _ = transport.shutdown();
                Err(e)
            }
        }
    }

    /// Profiled fault-tolerant run: forces `options.profile`, records
    /// every driver span into a [`Recorder`] and attaches the composed
    /// [`PhaseBreakdown`] (driver spans + rank sweep phases + routing
    /// matrix) to the report. The coordinates and every other report
    /// field stay bit-identical to an unprofiled [`smooth_ft`] run; the
    /// recorder is returned for chrome-trace export.
    ///
    /// [`smooth_ft`]: Self::smooth_ft
    pub fn smooth_profiled(
        &self,
        mesh: &mut M,
        options: &FtOptions,
    ) -> Result<(SmoothReport, FtStats, Recorder), DistError> {
        let mut opts = options.clone();
        opts.profile = true;
        let mut recorder = Recorder::new(0);
        let (mut report, stats, profile) = self.smooth_ft_with(mesh, &opts, &mut recorder)?;
        record_overlap_span(&mut recorder, &profile);
        let mut breakdown = PhaseBreakdown::default();
        breakdown.apply_span_totals(&recorder.span_totals());
        breakdown.transport = profile;
        report.phase_breakdown = Some(breakdown);
        Ok((report, stats, recorder))
    }

    /// Distributed resident Gauss–Seidel smoothing under `options`. When
    /// no rank group can be established (fork/pipe refused, or no worker
    /// dials back), degrades gracefully to the in-process resident engine
    /// — same answer, shared address space. Any other failure (recovery
    /// budget exhausted, abnormal teardown) panics with the typed
    /// diagnosis.
    pub fn smooth_with(&self, mesh: &mut M, options: &FtOptions) -> SmoothReport {
        match self.smooth_ft(mesh, options) {
            Ok((report, _)) => report,
            Err(e @ (DistError::Spawn(_) | DistError::ConnRefused { .. })) => {
                eprintln!(
                    "lms-dist: cannot establish a rank group ({e}); \
                     degrading to the in-process resident engine"
                );
                self.inner.smooth(mesh, self.num_ranks().max(1))
            }
            Err(e) => panic!("distributed smoothing failed beyond recovery: {e}"),
        }
    }

    /// Serve a run over **external standalone workers**: accept one
    /// connection per part on `listener` (each worker identifies itself
    /// by rank — launch them with `lms-tool dist-worker --connect <addr>
    /// --rank <p>` anywhere the address is reachable), then drive the
    /// same fault-tolerant loop as [`smooth_ft`](Self::smooth_ft).
    /// Workers build their scoring view from the shared problem
    /// parameters and receive their block in the `Block` frame, like a
    /// forked rank.
    pub fn smooth_ft_external(
        &self,
        mesh: &mut M,
        listener: Listener,
        options: &FtOptions,
    ) -> Result<(SmoothReport, FtStats), DistError> {
        let coords = self.inner.checked_coords(mesh);
        let (dom, cfg) = (self.inner.scoring(), self.inner.domain_config());
        let transport = ProcessTransport::listen(
            listener,
            &dom,
            self.inner.blocks(),
            self.inner.exchange_schedule(),
            options.read_timeout_ms,
            options.profile,
            &options.supervisor,
        )?;
        let (report, stats, _) =
            self.drive(&dom, &cfg, transport, coords, options, &mut NullTrace)?;
        Ok((report, stats))
    }
}

/// Fork the rank spawner for `mesh` under `params`; `None` (runs degrade
/// to the in-process engine) when the host refuses.
fn start_spawner<const C: usize, const D: usize, M: SmoothMesh<C, D>>(
    mesh: &M,
    params: &M::Params,
) -> Option<Arc<Spawner>> {
    Spawner::start(mesh, params).map(Arc::new).ok()
}

/// Materialise the coordinator's accumulated hidden-wait total as one
/// `"overlap"` chrome-trace span, anchored so it *ends* at export time.
/// The overlap multiplexer can only account hidden wait as a counter
/// (the hidden windows interleave with forwarding work inside one
/// drain call), so the timeline gets a single span whose duration is
/// the honest total rather than per-window marks.
fn record_overlap_span(recorder: &mut Recorder, profile: &TransportProfile) {
    if profile.hidden_wait_ns > 0 {
        let t1 = lms_trace::now_ns();
        recorder.record_span("overlap", 0, 0, t1.saturating_sub(profile.hidden_wait_ns), t1);
    }
}
