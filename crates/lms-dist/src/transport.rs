//! The multi-process transport: MPI-style ranks as worker processes
//! over pipes or stream sockets, driven by the coordinator through the
//! `lms_part::wire` frame protocol — with failure detection and
//! checkpoint/restart recovery built in.
//!
//! [`ProcessTransport::spawn`] has the engine's [`Spawner`] fork one
//! process per part over pipes, [`ProcessTransport::spawn_forked`] does
//! the same over a Unix-domain or TCP socket the workers dial back on,
//! and [`ProcessTransport::listen`] serves external standalone workers.
//! A forked rank starts from the spawner's image — forked before the
//! engine built anything, it holds the parameters and the mesh's element
//! table, from which the rank builds its scoring view — and closes every
//! descriptor but its own channel ([`sys::close_all_but`]). Every rank,
//! forked or external, then gets the same two frames first: the `Hello`
//! handshake and a `Block` frame holding its [`ResidentBlock`] and its
//! row of the [`ExchangeSchedule`], which it decodes with validation
//! before building its `ResidentRank`. After that only *run state*
//! crosses the wire: one gather of block coordinates, per-color-step
//! coalesced halo-delta batches, per-iteration stat reports and sparse
//! checkpoint replies.
//!
//! # The coordinator loop
//!
//! Delta routing is coordinator-mediated and event-driven: one `poll(2)`
//! over every rank fd at once (read *and* write interest), per-rank
//! [`Reassembly`] buffers decoding frames out of whatever byte prefixes
//! arrived, and **eager** routing — a halo batch goes onto its
//! destination's non-blocking out-queue the moment it decodes, and a
//! rank receives its next `ColorStep` the moment its last in-neighbour
//! finishes the current round, so it sweeps color `k+1` while slower
//! ranks are still being drained for color `k`. Three invariants keep
//! this bit-identical to the in-process transport, which pulls each
//! round's batches in ascending source-part order:
//!
//! * **Slot disjointness** — each halo slot is written by exactly one
//!   source part, so per-destination arrival-order forwarding equals
//!   ascending-source forwarding.
//! * **FIFO round framing** — a round-`k` delta enters a destination's
//!   stream after its `ColorStep{k}` and before its `ColorStep{k+1}`
//!   (frames for a not-yet-released destination are stashed), so the
//!   worker's stash-then-apply-at-control-frame discipline sees exactly
//!   one round's deliveries per control frame.
//! * **Flush-deferred bookkeeping** — a control frame makes its rank
//!   owe a reply only when its bytes fully leave the out-queue, so
//!   recovery resync drains precisely what workers could have received,
//!   even with frames in flight at failure time.
//!
//! The traffic counters are charged with the in-process transport's
//! `halo_frame_wire_len` formula, which is why the cross-transport
//! oracle can demand *report* equality, not just coordinate equality.
//! Writes during a drain never block (out-queues + `POLLOUT`), which
//! breaks the coordinator-blocked-on-full-pipe / worker-blocked-on-
//! outbox deadlock cycle eager forwarding would otherwise risk. Every
//! forwarded halo batch is first checked against the [`MessagePlan`]
//! and its destination's halo range, so a malformed batch is blamed on
//! the rank that sent it instead of crashing the rank it was meant for.
//!
//! # Fault tolerance
//!
//! The transport implements [`FtResidentTransport`], the fallible,
//! recoverable transport contract `drive_resident_ft` drives:
//!
//! * **Detection** — every coordinator wait is bounded by a `poll(2)`
//!   timeout; a failed read or write is diagnosed against the rank's
//!   `waitpid` state into a typed [`DistError`] (rank exited / rank
//!   stalled / connection lost / corrupt stream — the latter caught by
//!   the wire per-frame CRC32c). The coordinator can therefore never
//!   hang on a dead or wedged rank.
//! * **Checkpoint** — at iteration boundaries the coordinator asks every
//!   rank for the owned coordinates that changed since its last reply (a
//!   sparse `ScatterDeltaRequest` round). The replies — the moved set —
//!   are kept as they arrive inside the next iteration's drains, and the
//!   round commits at the following boundary by writing them into the
//!   one dense global snapshot in place. That snapshot is
//!   a *complete* rank state: at a boundary a rank is exactly its
//!   coordinates plus element scores, and the scores are
//!   bit-reproducible as `dom.score` of those coordinates (the invariant
//!   `resident::ResidentRank` maintains), so checkpoints carry no score
//!   traffic. Checkpoint traffic is deliberately not charged to any
//!   [`ExchangeVolume`] — recovered and failure-free runs must report
//!   identical exchange accounting.
//! * **Recovery** — [`recover`](FtResidentTransport::recover) puts the
//!   group back at the last committed checkpoint: kill + reap the failed
//!   rank, drain every survivor to protocol quiescence (discarding its
//!   in-flight round), fork a replacement (with a disarmed fault plan),
//!   and reload **all** ranks from the snapshot with fresh `Gather`
//!   frames. The driver then replays the lost iterations; replay is
//!   deterministic from the checkpoint, so recovered runs are
//!   bit-identical to failure-free ones (pinned by `tests/chaos.rs`).

use crate::error::DistError;
use crate::fault::{FaultPlan, WorkerFaults};
use crate::socket::{Listener, SocketSpec, Supervisor};
use crate::spawner::{Launch, Spawner};
use crate::sys::{self, Fd, TimeoutReader, WaitStatus};
use lms_part::wire::{halo_frame_wire_len, Frame, Reassembly, WireError, WIRE_VERSION};
use lms_part::{ExchangeSchedule, MessagePlan};
use lms_smooth::domain::{DomainPoint, ScoringDomain};
use lms_smooth::resident::ResidentBlock;
use lms_smooth::score_elements_batched;
use lms_smooth::{ExchangeVolume, FtResidentTransport};
use lms_trace::{now_ns, RankPhaseNanos, TransportProfile};
use std::io::{self, BufWriter, Write};

/// The byte-stream substrate a rank group runs over. The coordinator
/// core above it (framing, detection, checkpoints, recovery) is
/// identical either way — only connection establishment differs.
enum Link {
    /// Forked children over two anonymous pipes each (the PR 5/6
    /// backend).
    Pipes,
    /// Stream sockets: workers dial the listener and identify themselves
    /// by rank with their first `Hello` frame.
    Socket {
        listener: Listener,
        supervisor: Supervisor,
        /// Workers are external standalone processes (possibly on other
        /// hosts) launched by the caller — never forked, never reaped.
        external: bool,
        /// Connections accepted while waiting for a different rank,
        /// keyed by the rank id their identifying `Hello` carried.
        parked: Vec<(u32, (Fd, Fd))>,
    },
}

/// The reply the coordinator is owed on a rank's stream, if any —
/// tracked per rank so recovery can drain a survivor to protocol
/// quiescence before reloading it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    None,
    /// One `Report`.
    Report,
}

/// One rank's sparse checkpoint reply: the rank, its owned-local slots
/// whose coordinates changed, and those coordinates (flat).
type CkptReply = (usize, Vec<u32>, Vec<f64>);

/// An outstanding deferred checkpoint round: the sparse `ScatterDelta`
/// replies that arrive interleaved with the next iteration's frames,
/// kept as they came. They are **not** in the live checkpoint until a
/// commit point (the next `take_checkpoint` or the final scatter) writes
/// them into it — an `Ok` return is the commit, so the transport's
/// recovery state and the driver's fold snapshot always advance
/// together.
struct CkptPending {
    /// Every reply stashed so far; complete when `missing == 0`.
    replies: Vec<CkptReply>,
    /// Ranks whose reply has not arrived yet (indexed by rank).
    awaiting: Vec<bool>,
    /// Count of `true` entries in `awaiting`.
    missing: usize,
    /// A sweep ran after the round was requested: the assembled state
    /// is a *past* boundary, not the ranks' live coordinates.
    swept: bool,
}

/// A finished deferred checkpoint round, ready for the caller to
/// commit: its replies plus the `swept` flag (see [`CkptPending`]);
/// `None` when no round was outstanding.
type FinishedCkpt = Option<(Vec<CkptReply>, bool)>;

/// Control frames whose protocol effect is deferred until their bytes
/// fully leave an [`OutQueue`]: a `ColorStep` makes the rank owe a
/// `RoundDone`, a `FinishIteration` makes it owe a `Report` — but only
/// once the rank could actually have received the frame, so recovery
/// resync never waits for a reply to a control frame that was still
/// sitting (whole or torn) in the coordinator's out-queue at failure
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ctrl {
    Round,
    Finish,
}

/// What a drain call releases ranks into once their inbound dependence
/// is satisfied: the next color round, or the iteration finish.
#[derive(Debug, Clone, Copy)]
enum Release {
    Color(u32),
    Finish,
}

/// A per-rank non-blocking byte out-queue: encoded frames append to
/// `buf`, `poll(2)` `POLLOUT` readiness drains `buf[sent..]` via
/// `write_ready`, and the one control frame a drain call may queue is
/// tracked by its end offset so its bookkeeping fires exactly when the
/// last of its bytes is accepted by the kernel. Queueing instead of
/// blocking is what makes eager forwarding deadlock-free: the
/// coordinator never blocks writing to a mid-sweep rank whose pipe is
/// full while that rank blocks writing its own outbox.
#[derive(Debug, Default)]
struct OutQueue {
    buf: Vec<u8>,
    sent: usize,
    /// `(end_offset, kind)` of the queued control frame, if any.
    ctrl: Option<(usize, Ctrl)>,
}

impl OutQueue {
    fn is_empty(&self) -> bool {
        self.sent == self.buf.len()
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.sent = 0;
        self.ctrl = None;
    }
}

/// The multiplexer's coordinator-side state: every read goes through
/// `reasm`, and every drain-phase write goes through `outq`.
struct Overlap {
    /// Per-rank incremental frame decoder over the non-blocking stream.
    reasm: Vec<Reassembly>,
    /// `RoundDone`s decoded per rank this iteration: rank `p` has
    /// completed color rounds `0..done_rounds[p]`.
    done_rounds: Vec<u32>,
    /// `ColorStep`s issued this iteration (reset by the interior phase).
    rounds_issued: u32,
    /// Per-destination byte out-queues.
    outq: Vec<OutQueue>,
    /// Frames for a destination not yet released into the round that
    /// must precede them in its pipe — flushed into the out-queue right
    /// behind the destination's control frame when it is released.
    stash: Vec<Vec<Frame>>,
    /// Inverted [`MessagePlan`]: `in_srcs[q]` = ranks that send to `q`,
    /// the set whose round completion gates `q`'s release.
    in_srcs: Vec<Vec<u32>>,
    /// Read scratch for `read_ready`.
    scratch: Vec<u8>,
    // poll_duplex argument/result scratch
    read_fds: Vec<i32>,
    write_fds: Vec<i32>,
    ready_r: Vec<bool>,
    ready_w: Vec<bool>,
}

impl Overlap {
    fn new(plan: &MessagePlan, k: usize) -> Self {
        let mut in_srcs: Vec<Vec<u32>> = vec![Vec::new(); k];
        for s in 0..k {
            for &d in plan.neighbors(s as u32) {
                in_srcs[d as usize].push(s as u32);
            }
        }
        Overlap {
            reasm: (0..k).map(|_| Reassembly::new()).collect(),
            done_rounds: vec![0; k],
            rounds_issued: 0,
            outq: (0..k).map(|_| OutQueue::default()).collect(),
            stash: vec![Vec::new(); k],
            in_srcs,
            scratch: vec![0u8; 64 * 1024],
            read_fds: Vec::new(),
            write_fds: Vec::new(),
            ready_r: Vec::new(),
            ready_w: Vec::new(),
        }
    }
}

/// One rank's coordinator-side endpoints.
struct RankChannel {
    /// The worker's process id — `None` for an external standalone
    /// worker the coordinator never forked (nothing to signal or reap;
    /// its only failure evidence is the stream itself).
    pid: Option<i32>,
    to_rank: BufWriter<Fd>,
    /// The read end; owns the descriptor and keeps the per-rank
    /// poll-wait totals the stall diagnosis reports.
    from_rank: TimeoutReader,
    /// Raw descriptor numbers of the two parent-side stream ends (what
    /// the multiplexer polls).
    to_fd: i32,
    from_fd: i32,
    pending: Pending,
    /// `RoundDone`s this rank still owes the coordinator — incremented
    /// when a `ColorStep` reaches it (at flush, see [`Ctrl`]),
    /// decremented per decoded `RoundDone`, so recovery resync knows how
    /// many abandoned rounds to drain.
    owed_rounds: u32,
    /// The child was already `waitpid`-reaped (its wait status consumed
    /// during failure diagnosis) — don't reap twice, and never signal a
    /// pid that may have been recycled.
    reaped: bool,
    /// Last protocol phase this rank completed, `(name, iteration)` —
    /// the coordinator's answer to "where did it wedge?" when the rank
    /// stalls. Reset by a recovery respawn along with the channel.
    last_phase: (&'static str, u32),
}

/// The multi-process implementation of
/// [`lms_smooth::FtResidentTransport`]: one OS process per part, wire
/// frames over a pipe pair or a socket per rank, coordinator-mediated
/// delta forwarding, timeout-bounded waits and checkpoint/respawn
/// recovery. See the module docs for the routing and recovery
/// arguments.
pub struct ProcessTransport<'a, const C: usize, D: ScoringDomain<C>> {
    /// What forks the ranks; `None` for external standalone workers.
    spawner: Option<&'a Spawner>,
    dom: &'a D,
    blocks: &'a [ResidentBlock<C>],
    schedule: &'a ExchangeSchedule,
    plan: MessagePlan,
    link: Link,
    ranks: Vec<RankChannel>,
    /// The recovery checkpoint: the full global coordinate array as of
    /// the last *committed* iteration boundary (primed by `try_gather`) —
    /// the coordinator's one dense copy of the run state.
    ckpt: Vec<D::Point>,
    /// The deferred sparse checkpoint round still collecting, if any
    /// (see [`CkptPending`]).
    ckpt_pending: Option<CkptPending>,
    faults: FaultPlan,
    read_timeout_ms: i32,
    shut_down: bool,
    /// Profiling enabled: the handshake tells ranks to time their sweep
    /// phases, and the coordinator times its own encode/decode/forward
    /// work. Off by default — the unprofiled wire traffic is
    /// byte-identical either way except for the Hello flag, and the
    /// sweep arithmetic is untouched in both modes.
    profile: bool,
    /// Per-rank sweep-phase totals accumulated from `Report` frames
    /// (survive recovery respawns: workers ship deltas).
    phases: Vec<RankPhaseNanos>,
    /// Coordinator time forwarding halo frames, `[src * parts + dst]`.
    route_pair_ns: Vec<u64>,
    /// Coordinator time serialising frames into rank pipes (includes
    /// the forwarding charged to `route_pair_ns`).
    encode_ns: u64,
    /// Coordinator time reading + decoding frames, poll-wait excluded.
    decode_ns: u64,
    /// Coordinator time blocked in `poll(2)` waiting on rank streams
    /// with no released compute to hide behind (genuinely idle).
    poll_wait_ns: u64,
    /// Coordinator poll-wait that overlapped released rank compute —
    /// hidden behind sweeps already running ahead of the drain, or
    /// behind a checkpoint round the ranks are still answering.
    hidden_wait_ns: u64,
    /// Coordinator-side iteration counter (interior phases driven), the
    /// iteration coordinate of `RankChannel::last_phase`.
    cur_iter: u32,
    /// Multiplexer state: reassembly buffers, out-queues, round
    /// bookkeeping.
    ov: Overlap,
    /// The checkpoint still equals every rank's live resident state (no
    /// sweep ran since it was taken), so a scatter is served straight
    /// from `ckpt` with zero wire traffic.
    ckpt_fresh: bool,
}

impl<'a, const C: usize, D: ScoringDomain<C>> ProcessTransport<'a, C, D> {
    /// Have `spawner` fork one rank worker per part, then send each its
    /// `Hello` and `Block` frames.
    ///
    /// `spawner` must have been started for the mesh `dom` scores (the
    /// ranks build their scoring view from its copy of the parameters and
    /// element table). The blocks and schedule are what the ranks are
    /// sent, and are kept for recovery respawns. `read_timeout_ms` bounds
    /// every coordinator read (negative disables the bound); `faults` is
    /// the test-injection script (use [`FaultPlan::none`] for
    /// production). On failure every already-forked child is killed and
    /// reaped before the error returns. `profile` turns on phase timing
    /// on both sides of the wire (rank sweeps and coordinator routing) —
    /// observation only, the computed coordinates are bit-identical
    /// either way.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn(
        spawner: &'a Spawner,
        dom: &'a D,
        blocks: &'a [ResidentBlock<C>],
        schedule: &'a ExchangeSchedule,
        read_timeout_ms: i32,
        faults: FaultPlan,
        profile: bool,
    ) -> Result<Self, DistError> {
        let link = Link::Pipes;
        let spawner = Some(spawner);
        Self::spawn_linked(spawner, dom, blocks, schedule, read_timeout_ms, faults, profile, link)
    }

    /// [`spawn`](Self::spawn) over a socket: bind `spec`, fork one
    /// worker per part, and have each dial back with supervised
    /// retry/backoff and identify itself by rank. A worker that never
    /// dials surfaces as [`DistError::ConnRefused`].
    #[allow(clippy::too_many_arguments)]
    pub fn spawn_forked(
        spec: &SocketSpec,
        spawner: &'a Spawner,
        dom: &'a D,
        blocks: &'a [ResidentBlock<C>],
        schedule: &'a ExchangeSchedule,
        read_timeout_ms: i32,
        faults: FaultPlan,
        profile: bool,
        supervisor: &Supervisor,
    ) -> Result<Self, DistError> {
        let listener = Listener::bind(spec).map_err(DistError::Spawn)?;
        let link = Link::Socket {
            listener,
            supervisor: supervisor.clone(),
            external: false,
            parked: Vec::new(),
        };
        let spawner = Some(spawner);
        Self::spawn_linked(spawner, dom, blocks, schedule, read_timeout_ms, faults, profile, link)
    }

    /// Serve a rank group of **external** standalone workers: accept one
    /// connection per part on the pre-bound `listener` (in any order —
    /// each worker identifies itself by rank). The caller launches the
    /// workers, e.g. `lms-tool dist-worker --connect <addr> --rank <p>`
    /// per part, on any reachable host.
    #[allow(clippy::too_many_arguments)]
    pub fn listen(
        listener: Listener,
        dom: &'a D,
        blocks: &'a [ResidentBlock<C>],
        schedule: &'a ExchangeSchedule,
        read_timeout_ms: i32,
        profile: bool,
        supervisor: &Supervisor,
    ) -> Result<Self, DistError> {
        let link = Link::Socket {
            listener,
            supervisor: supervisor.clone(),
            external: true,
            parked: Vec::new(),
        };
        let faults = FaultPlan::none();
        Self::spawn_linked(None, dom, blocks, schedule, read_timeout_ms, faults, profile, link)
    }

    /// The constructor behind [`spawn`](Self::spawn),
    /// [`spawn_forked`](Self::spawn_forked) and [`listen`](Self::listen):
    /// establish every rank's channel over `link`.
    #[allow(clippy::too_many_arguments)]
    fn spawn_linked(
        spawner: Option<&'a Spawner>,
        dom: &'a D,
        blocks: &'a [ResidentBlock<C>],
        schedule: &'a ExchangeSchedule,
        read_timeout_ms: i32,
        faults: FaultPlan,
        profile: bool,
        link: Link,
    ) -> Result<Self, DistError> {
        if faults.fail_spawn {
            return Err(DistError::Spawn(io::Error::other("injected spawn failure")));
        }
        if spawner.is_some_and(|s| !s.serves(D::Point::DIM, C)) {
            return Err(DistError::Spawn(io::Error::other(
                "spawner forks ranks of another mesh type",
            )));
        }
        let k = blocks.len();
        let plan = MessagePlan::build(schedule);
        let ov = Overlap::new(&plan, k);
        let mut transport = ProcessTransport {
            spawner,
            dom,
            blocks,
            schedule,
            plan,
            link,
            ranks: Vec::with_capacity(k),
            ckpt: Vec::new(),
            ckpt_pending: None,
            faults,
            read_timeout_ms,
            shut_down: false,
            profile,
            phases: vec![RankPhaseNanos::default(); k],
            route_pair_ns: vec![0; k * k],
            encode_ns: 0,
            decode_ns: 0,
            poll_wait_ns: 0,
            hidden_wait_ns: 0,
            cur_iter: 0,
            ov,
            ckpt_fresh: false,
        };
        let mut established = Ok(());
        for p in 0..k {
            match transport.spawn_rank(p as u32, true) {
                Ok(channel) => transport.ranks.push(channel),
                Err(e) => {
                    established = Err(e);
                    break;
                }
            }
        }
        // every rank is up before any block is sent, so all of them decode
        // while the others are still being sent theirs
        let all: Vec<usize> = (0..transport.ranks.len()).collect();
        match established.and_then(|()| transport.send_blocks(&all)) {
            Ok(()) => {}
            Err(e) => {
                // reap the siblings forked so far before the error
                // reaches the caller
                for channel in &transport.ranks {
                    if let Some(pid) = channel.pid {
                        let _ = sys::kill_pid(pid);
                    }
                }
                let pids: Vec<i32> = transport.ranks.iter().filter_map(|c| c.pid).collect();
                transport.ranks.clear();
                for pid in pids {
                    let _ = sys::wait_pid(pid);
                }
                transport.shut_down = true;
                return Err(e);
            }
        }
        Ok(transport)
    }

    /// Number of rank processes.
    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Establish one rank worker's channel. `armed` selects whether the
    /// transport's fault script applies — initial spawns are armed,
    /// recovery respawns are not (an injected fault fires at most once).
    fn spawn_rank(&mut self, p: u32, armed: bool) -> Result<RankChannel, DistError> {
        let worker_faults =
            if armed { self.faults.worker_faults(p) } else { WorkerFaults::default() };
        match &self.link {
            Link::Pipes => self.spawn_rank_pipes(p, worker_faults),
            Link::Socket { external: false, .. } => self.spawn_rank_socket(p, worker_faults),
            Link::Socket { external: true, .. } => {
                let (from_rank, to_rank) = self.accept_rank(p)?;
                self.finish_channel(None, from_rank, to_rank, p)
            }
        }
    }

    /// The spawner behind a forked link.
    fn spawner(&self) -> &'a Spawner {
        self.spawner.expect("a forked rank group has a spawner")
    }

    /// Have the spawner fork rank `p` over a fresh pipe pair, then
    /// handshake it.
    fn spawn_rank_pipes(
        &mut self,
        p: u32,
        worker_faults: WorkerFaults,
    ) -> Result<RankChannel, DistError> {
        let (child_in, to_rank) = sys::pipe().map_err(DistError::Spawn)?;
        let (from_rank, child_out) = sys::pipe().map_err(DistError::Spawn)?;
        let how = Launch::Pipes { input: &child_in, output: &child_out };
        let pid = self.spawner().launch(p, how, &worker_faults).map_err(DistError::Spawn)?;
        // the rank holds its own ends now; ours would keep its streams
        // from reaching EOF when it dies
        drop(child_in);
        drop(child_out);
        self.finish_channel(Some(pid), from_rank, to_rank, p)
    }

    /// Have the spawner fork rank `p` to dial the listener back
    /// (supervised retry/backoff), then accept and bind its stream by
    /// rank id.
    fn spawn_rank_socket(
        &mut self,
        p: u32,
        worker_faults: WorkerFaults,
    ) -> Result<RankChannel, DistError> {
        let (target, policy) = match &self.link {
            Link::Socket { listener, supervisor, .. } => {
                (listener.target().clone(), supervisor.retry_policy(p))
            }
            Link::Pipes => unreachable!("socket spawn on a pipe link"),
        };
        let how = Launch::Dial { target: &target, policy };
        let pid = self.spawner().launch(p, how, &worker_faults).map_err(DistError::Spawn)?;
        match self.accept_rank(p) {
            Ok((from_rank, to_rank)) => self.finish_channel(Some(pid), from_rank, to_rank, p),
            Err(e) => {
                // the forked worker may still be dialling or parked in
                // its backoff loop: put it into a definite state
                let _ = sys::kill_pid(pid);
                let _ = sys::wait_pid(pid);
                Err(e)
            }
        }
    }

    /// Accept connections until rank `want`'s stream turns up, parking
    /// any other rank's connection for its own `spawn_rank` call. Every
    /// wait is bounded by the supervisor's accept timeout; expiry means
    /// the rank never dialled — [`DistError::ConnRefused`].
    fn accept_rank(&mut self, want: u32) -> Result<(Fd, Fd), DistError> {
        let Link::Socket { listener, supervisor, parked, .. } = &mut self.link else {
            unreachable!("accept on a pipe link")
        };
        if let Some(i) = parked.iter().position(|&(r, _)| r == want) {
            return Ok(parked.swap_remove(i).1);
        }
        let accept_ms = supervisor.accept_timeout_ms;
        loop {
            let (rfd, wfd) = match listener.accept_stream(accept_ms) {
                Ok(fds) => fds,
                Err(e) => {
                    return Err(DistError::ConnRefused {
                        addr: listener.target().to_string(),
                        attempts: supervisor.connect_attempts,
                        detail: e.to_string(),
                    })
                }
            };
            // the identifying Hello is read under the accept timeout on
            // the *raw* stream: buffered reading could overshoot the
            // frame and lose bytes when the reader is unwrapped below
            let mut reader = TimeoutReader::new(rfd, accept_ms.min(i32::MAX as u64) as i32);
            match Frame::read_from(&mut reader) {
                Ok(Frame::Hello { version, dim, rank: id, .. }) => {
                    if version != WIRE_VERSION || dim as usize != <D::Point as DomainPoint>::DIM {
                        return Err(DistError::Spawn(io::Error::other(format!(
                            "worker handshake mismatch: wire v{version}, dim {dim}"
                        ))));
                    }
                    if id == want {
                        return Ok((reader.into_inner(), wfd));
                    }
                    parked.push((id, (reader.into_inner(), wfd)));
                }
                Ok(f) => {
                    return Err(DistError::Spawn(io::Error::other(format!(
                        "expected identifying Hello, got {f:?}"
                    ))))
                }
                Err(e) => {
                    return Err(DistError::ConnRefused {
                        addr: listener.target().to_string(),
                        attempts: supervisor.connect_attempts,
                        detail: format!("worker connected but did not identify: {e}"),
                    })
                }
            }
        }
    }

    /// Wrap an established stream pair into a [`RankChannel`] and send
    /// the coordinator's handshake `Hello` — the tail shared by all three
    /// link flavours. The rank's `Block` frame follows from
    /// [`send_blocks`](Self::send_blocks).
    fn finish_channel(
        &mut self,
        pid: Option<i32>,
        from_rank: Fd,
        to_rank: Fd,
        p: u32,
    ) -> Result<RankChannel, DistError> {
        let to_fd = to_rank.raw();
        let from_fd = from_rank.raw();
        let mut to_rank = BufWriter::new(to_rank);
        Frame::Hello {
            version: WIRE_VERSION,
            dim: <D::Point as DomainPoint>::DIM as u8,
            rank: p,
            profile: self.profile,
        }
        .write_to(&mut to_rank)
        .map_err(DistError::Spawn)?;
        to_rank.flush().map_err(DistError::Spawn)?;
        // the multiplexer needs both directions non-blocking: reads go
        // through `read_ready` + reassembly, drain-phase writes through
        // the out-queues. The blocking broadcast phases keep working
        // unchanged — `Fd`'s stream impls park in `poll(2)` on EAGAIN.
        sys::set_nonblocking(from_fd, true).map_err(DistError::Spawn)?;
        sys::set_nonblocking(to_fd, true).map_err(DistError::Spawn)?;
        Ok(RankChannel {
            pid,
            to_rank,
            from_rank: TimeoutReader::new(from_rank, self.read_timeout_ms),
            to_fd,
            from_fd,
            pending: Pending::None,
            owed_rounds: 0,
            reaped: false,
            last_phase: ("spawn", 0),
        })
    }

    /// Send each rank in `which` its `Block` frame — its resident block and
    /// its row of the exchange schedule, encoded straight from the
    /// coordinator's own — each from its own scoped thread: a rank decodes
    /// as fast as it is sent, so one rank at a time would leave the
    /// others idle, while concurrent sends let every rank decode at once.
    fn send_blocks(&mut self, which: &[usize]) -> Result<(), DistError> {
        let (blocks, schedule) = (self.blocks, self.schedule);
        let send = |p: usize, channel: &mut RankChannel| {
            blocks[p].write_frame(&mut channel.to_rank, p as u32, schedule)?;
            channel.to_rank.flush()
        };
        let mut chosen: Vec<(usize, &mut RankChannel)> =
            self.ranks.iter_mut().enumerate().filter(|(p, _)| which.contains(p)).collect();
        let sent: Vec<io::Result<()>> = match chosen.as_mut_slice() {
            [(p, channel)] => vec![send(*p, channel)],
            _ => std::thread::scope(|scope| {
                // a writer the host refuses to start fails the spawn like
                // a refused fork, and the run degrades
                let writers: Vec<io::Result<_>> = chosen
                    .into_iter()
                    .map(|(p, channel)| {
                        std::thread::Builder::new().spawn_scoped(scope, move || send(p, channel))
                    })
                    .collect();
                writers.into_iter().map(|w| w?.join().expect("block writer panicked")).collect()
            }),
        };
        sent.into_iter().collect::<io::Result<()>>().map_err(DistError::Spawn)
    }

    /// Bounded reap of rank `p` after its stream reported EOF/EPIPE: a
    /// worker that died is reapable within the grace loop (it is
    /// mid-`_exit`, merely not yet zombie when the stream event raced
    /// ahead of the reapable state). `None` means the process is *not*
    /// exiting — it closed its stream while alive (a dropped connection),
    /// or it is an external worker with no pid at all — which is exactly
    /// the [`DistError::ConnLost`] regime; never block `waitpid` on it.
    fn reap_dying(&mut self, p: usize) -> Option<WaitStatus> {
        let pid = self.ranks[p].pid?;
        for _ in 0..250 {
            match sys::try_wait_pid(pid) {
                Ok(Some(status)) => {
                    self.ranks[p].reaped = true;
                    return Some(WaitStatus(status));
                }
                Ok(None) => std::thread::sleep(std::time::Duration::from_millis(2)),
                Err(_) => return None,
            }
        }
        None
    }

    /// One non-blocking reap attempt (`None` when the process is still
    /// running, already reaped, or external).
    fn try_reap(&mut self, p: usize) -> Option<WaitStatus> {
        let pid = self.ranks[p].pid?;
        match sys::try_wait_pid(pid) {
            Ok(Some(status)) => {
                self.ranks[p].reaped = true;
                Some(WaitStatus(status))
            }
            _ => None,
        }
    }

    /// The [`DistError::ConnLost`] detail string: says whether the
    /// stream's peer is a forked child `waitpid` still reports alive (a
    /// dropped connection / network partition) or an external worker the
    /// coordinator has no pid for.
    fn conn_lost_detail(&self, p: usize, io_err: &io::Error) -> String {
        match self.ranks[p].pid {
            Some(_) => format!("peer closed the stream ({io_err}; process still alive)"),
            None => format!("external worker stream closed ({io_err}; no pid to reap)"),
        }
    }

    /// Classify a failed read on rank `p`'s stream: a checksum or decode
    /// failure is silent corruption; an i/o failure is disambiguated by
    /// the child's `waitpid` state into "rank died" vs "connection lost"
    /// vs "rank stalled".
    fn diagnose_read(&mut self, p: usize, e: WireError) -> DistError {
        let rank = p as u32;
        match e {
            WireError::Io(io_err) => {
                let disconnected = matches!(
                    io_err.kind(),
                    io::ErrorKind::UnexpectedEof
                        | io::ErrorKind::ConnectionReset
                        | io::ErrorKind::BrokenPipe
                );
                if disconnected {
                    if let Some(status) = self.reap_dying(p) {
                        return DistError::RankExited { rank, status };
                    }
                    // the stream is gone but the process is not: a socket
                    // closed mid-protocol (or an external worker hung up)
                    return DistError::ConnLost { rank, detail: self.conn_lost_detail(p, &io_err) };
                }
                match self.try_reap(p) {
                    Some(status) => DistError::RankExited { rank, status },
                    None if io_err.kind() == io::ErrorKind::TimedOut => {
                        let (phase, iter) = self.ranks[p].last_phase;
                        DistError::RankStalled {
                            rank,
                            timeout_ms: self.read_timeout_ms,
                            // idle + hidden: a stalled rank is stalled
                            // regardless of what the coordinator
                            // overlapped meanwhile
                            waited_ms: self.ranks[p].from_rank.total_waited_ns() / 1_000_000,
                            last_phase: format!("{phase}#{iter}"),
                        }
                    }
                    None => DistError::Wire { rank, error: WireError::Io(io_err) },
                }
            }
            error => DistError::Wire { rank, error },
        }
    }

    /// Classify a failed write to rank `p` (EPIPE / ECONNRESET — a dead
    /// child or a dropped connection).
    fn diagnose_write(&mut self, p: usize, e: io::Error) -> DistError {
        let rank = p as u32;
        if matches!(e.kind(), io::ErrorKind::BrokenPipe | io::ErrorKind::ConnectionReset) {
            if let Some(status) = self.reap_dying(p) {
                return DistError::RankExited { rank, status };
            }
            return DistError::ConnLost { rank, detail: self.conn_lost_detail(p, &e) };
        }
        match self.try_reap(p) {
            Some(status) => DistError::RankExited { rank, status },
            None => DistError::Wire { rank, error: WireError::Io(e) },
        }
    }

    fn protocol_error(&self, p: usize, f: &Frame) -> DistError {
        let mut frame = format!("{f:?}");
        frame.truncate(96);
        DistError::Protocol { rank: p as u32, frame }
    }

    /// Record that rank `p` completed protocol phase `name` at the
    /// current iteration — plain field writes, no clock, kept current
    /// even unprofiled so a stall diagnosis can always say where.
    fn mark(&mut self, p: usize, name: &'static str) {
        self.ranks[p].last_phase = (name, self.cur_iter);
    }

    fn send(&mut self, p: usize, frame: &Frame) -> Result<(), DistError> {
        let t0 = if self.profile { now_ns() } else { 0 };
        let result = frame.write_to(&mut self.ranks[p].to_rank);
        if self.profile {
            self.encode_ns += now_ns().saturating_sub(t0);
        }
        match result {
            Ok(()) => Ok(()),
            Err(e) => Err(self.diagnose_write(p, e)),
        }
    }

    fn flush(&mut self, p: usize) -> Result<(), DistError> {
        match self.ranks[p].to_rank.flush() {
            Ok(()) => Ok(()),
            Err(e) => Err(self.diagnose_write(p, e)),
        }
    }

    /// Drain the coordinator-side transport profile: per-rank sweep
    /// phases (as reported over the wire), the forwarding time matrix
    /// and the encode/decode/poll-wait totals. All fields reset to zero;
    /// meaningful only after a run spawned with `profile = true`.
    pub fn take_profile(&mut self) -> TransportProfile {
        TransportProfile {
            rank_phases: std::mem::replace(
                &mut self.phases,
                vec![RankPhaseNanos::default(); self.ranks.len()],
            ),
            route_pair_ns: std::mem::replace(
                &mut self.route_pair_ns,
                vec![0; self.ranks.len() * self.ranks.len()],
            ),
            encode_ns: std::mem::take(&mut self.encode_ns),
            decode_ns: std::mem::take(&mut self.decode_ns),
            poll_wait_ns: std::mem::take(&mut self.poll_wait_ns),
            hidden_wait_ns: std::mem::take(&mut self.hidden_wait_ns),
            // remote ranks do not ship the scored-elements counter over
            // the wire (RankPhaseNanos is frozen at wire v3)
            scored_elements: 0,
        }
    }

    /// Send every rank the block slice of the global coordinate state
    /// `coords`, with its local element scores formed from them block by
    /// block (no global score table) — the gather and the recovery reload
    /// are the same wire traffic.
    fn load_ranks(&mut self, coords: &[D::Point]) -> Result<(), DistError> {
        for p in 0..self.ranks.len() {
            let block = &self.blocks[p];
            let mut flat =
                Vec::with_capacity((block.owned().len() + block.halo().len()) * D::Point::DIM);
            for &v in block.owned().iter().chain(block.halo()) {
                coords[v as usize].push_components(&mut flat);
            }
            let ids = block.elem_globals();
            let mut block_scores = Vec::with_capacity(ids.len());
            score_elements_batched(self.dom, coords, ids.iter().copied(), |s| block_scores.push(s));
            self.send(p, &Frame::Gather { coords: flat, scores: block_scores })?;
            self.flush(p)?;
            self.mark(p, "gather");
        }
        Ok(())
    }

    /// Drain rank `p` to protocol quiescence: consume every `RoundDone`
    /// it still owes (discarding the abandoned rounds' halo data), then
    /// the `Report` if one is pending, so its stream is frame-aligned
    /// again. `owed_rounds` can be up to 2 when a drain failed mid-call
    /// with a rank already released ahead.
    fn resync(&mut self, p: usize) -> Result<(), DistError> {
        // A survivor's stream may hold three kinds of in-flight frames:
        // the abandoned iteration's halo deltas and round markers, and —
        // ahead of them in the rank's FIFO stream — the sparse reply of
        // a deferred checkpoint round. All must leave the stream before
        // reload, or a stale reply would poison the next deferred round.
        while self.ranks[p].owed_rounds > 0 || self.ckpt_awaiting(p) {
            match self.ov_recv(p)? {
                Frame::HaloDelta { .. } => continue,
                Frame::ScatterDelta { .. } if self.ckpt_awaiting(p) => {
                    // drained and discarded: recovery abandons the
                    // whole outstanding round
                    let pc = self.ckpt_pending.as_mut().expect("awaiting implies pending");
                    pc.awaiting[p] = false;
                    pc.missing -= 1;
                }
                Frame::RoundDone if self.ranks[p].owed_rounds > 0 => self.ranks[p].owed_rounds -= 1,
                f => return Err(self.protocol_error(p, &f)),
            }
        }
        if self.ranks[p].pending == Pending::Report {
            match self.ov_recv(p)? {
                Frame::Report { .. } => self.ranks[p].pending = Pending::None,
                f => return Err(self.protocol_error(p, &f)),
            }
        }
        Ok(())
    }

    /// Blocking-bounded single-rank receive at quiescent protocol points
    /// (checkpoint completion, resync): decode from the reassembly buffer
    /// (which may already hold bytes pulled off the stream by a drain),
    /// pulling more bytes off the non-blocking fd under the read timeout
    /// as needed.
    fn ov_recv(&mut self, p: usize) -> Result<Frame, DistError> {
        loop {
            let t0 = if self.profile { now_ns() } else { 0 };
            let decoded = self.ov.reasm[p].next_frame();
            if self.profile {
                self.decode_ns += now_ns().saturating_sub(t0);
            }
            match decoded {
                Ok(Some(frame)) => return Ok(frame),
                Ok(None) => {}
                Err(e) => return Err(self.diagnose_read(p, e)),
            }
            let fd = self.ranks[p].from_fd;
            let w0 = now_ns();
            let readable = sys::wait_readable(fd, self.read_timeout_ms);
            let waited = now_ns().saturating_sub(w0);
            self.ranks[p].from_rank.charge_wait_ns(waited, false);
            if self.profile {
                self.poll_wait_ns += waited;
            }
            match readable {
                Ok(true) => {}
                Ok(false) => {
                    let e = io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("pipe not readable within {}ms", self.read_timeout_ms),
                    );
                    return Err(self.diagnose_read(p, WireError::Io(e)));
                }
                Err(e) => return Err(self.diagnose_read(p, WireError::Io(e))),
            }
            self.ov_fill(p)?;
        }
    }

    /// Pull whatever bytes rank `p`'s stream holds into its reassembly
    /// buffer (one non-blocking read). EOF surfaces through the stream
    /// diagnosis; a stale readiness (`WouldBlock`) is a no-op.
    fn ov_fill(&mut self, p: usize) -> Result<(), DistError> {
        let fd = self.ranks[p].from_fd;
        let mut scratch = std::mem::take(&mut self.ov.scratch);
        let result = sys::read_ready(fd, &mut scratch);
        let outcome = match result {
            Ok(Some(0)) => {
                let e = io::Error::new(io::ErrorKind::UnexpectedEof, "rank stream closed");
                Err(self.diagnose_read(p, WireError::Io(e)))
            }
            Ok(Some(n)) => {
                let t0 = if self.profile { now_ns() } else { 0 };
                self.ov.reasm[p].extend(&scratch[..n]);
                if self.profile {
                    self.decode_ns += now_ns().saturating_sub(t0);
                }
                Ok(())
            }
            Ok(None) => Ok(()),
            Err(e) => Err(self.diagnose_read(p, WireError::Io(e))),
        };
        self.ov.scratch = scratch;
        outcome
    }

    /// Encode `frame` onto rank `q`'s out-queue (drain-phase writes never
    /// touch the blocking `BufWriter`). When `src` is given the encode
    /// time is also charged to the `(src, q)` routing cell.
    fn ov_queue(&mut self, q: usize, frame: &Frame, src: Option<usize>) {
        let parts = self.ranks.len();
        let t0 = if self.profile { now_ns() } else { 0 };
        frame.write_to(&mut self.ov.outq[q].buf).expect("Vec<u8> writes are infallible");
        if self.profile {
            let dt = now_ns().saturating_sub(t0);
            self.encode_ns += dt;
            if let Some(s) = src {
                self.route_pair_ns[s * parts + q] += dt;
            }
        }
    }

    /// Queue a control frame on rank `q`'s out-queue, recording its end
    /// offset so [`ov_flush`](Self::ov_flush) can fire its bookkeeping
    /// when the bytes fully leave, then move `q`'s stashed next-round
    /// frames in right behind it (FIFO order in the byte queue is what
    /// keeps the worker applying each round's deltas at the right
    /// control frame).
    fn ov_queue_ctrl(&mut self, q: usize, frame: &Frame, kind: Ctrl) {
        debug_assert!(self.ov.outq[q].ctrl.is_none(), "one control frame per drain call");
        self.ov_queue(q, frame, None);
        self.ov.outq[q].ctrl = Some((self.ov.outq[q].buf.len(), kind));
        let stashed = std::mem::take(&mut self.ov.stash[q]);
        for f in &stashed {
            let src = match f {
                Frame::HaloDelta { part, .. } => Some(*part as usize),
                _ => None,
            };
            self.ov_queue(q, f, src);
        }
    }

    /// Push rank `q`'s queued bytes (non-blocking) as far as the kernel
    /// accepts, firing the control frame's deferred bookkeeping when its
    /// offset is crossed. Returns whether the queue drained fully.
    fn ov_flush(&mut self, q: usize) -> Result<bool, DistError> {
        loop {
            let (sent, len) = (self.ov.outq[q].sent, self.ov.outq[q].buf.len());
            if sent == len {
                if len > 0 {
                    self.ov.outq[q].buf.clear();
                    self.ov.outq[q].sent = 0;
                }
                debug_assert!(self.ov.outq[q].ctrl.is_none());
                return Ok(true);
            }
            let fd = self.ranks[q].to_fd;
            let n = match sys::write_ready(fd, &self.ov.outq[q].buf[sent..]) {
                Ok(n) => n,
                Err(e) => return Err(self.diagnose_write(q, e)),
            };
            if n == 0 {
                return Ok(false); // kernel buffer full: re-arm POLLOUT
            }
            self.ov.outq[q].sent += n;
            if let Some((end, kind)) = self.ov.outq[q].ctrl {
                if self.ov.outq[q].sent >= end {
                    self.ov.outq[q].ctrl = None;
                    match kind {
                        Ctrl::Round => self.ranks[q].owed_rounds += 1,
                        Ctrl::Finish => self.ranks[q].pending = Pending::Report,
                    }
                }
            }
        }
    }

    /// Release rank `q` into the next protocol step — its inbound
    /// dependence (every in-neighbour done with the round being drained)
    /// is satisfied, so the control frame can be queued and an immediate
    /// flush attempted. From here `q`'s pipe delivers: remaining drained
    /// round deltas were queued before the control frame, next-round
    /// deltas (stash + eager appends) after it.
    fn ov_release(&mut self, q: usize, release: Release) -> Result<(), DistError> {
        match release {
            Release::Color(color) => {
                self.ov_queue_ctrl(q, &Frame::ColorStep { color }, Ctrl::Round)
            }
            Release::Finish => self.ov_queue_ctrl(q, &Frame::FinishIteration, Ctrl::Finish),
        }
        self.ov_flush(q)?;
        Ok(())
    }

    /// The event-driven drain at the heart of the coordinator:
    /// wait (one `poll(2)` over every active rank fd, read *and* write
    /// interest at once) until every rank has completed the round being
    /// drained (`target = rounds_issued`: all `done_rounds` reach it),
    /// every rank has been released into `release`, every out-queue has
    /// drained, and — for a finish drain — every rank's `Report` is in.
    ///
    /// Eagerness lives here: a `HaloDelta` is routed to its destination
    /// out-queue the moment it decodes; a rank is released the moment
    /// its last in-neighbour finishes the drained round, so it sweeps
    /// the next round while slower ranks are still being drained. The
    /// per-destination disjointness of halo slots (each slot written by
    /// exactly one source part) is what makes arrival-order forwarding
    /// bit-identical to ascending-source order.
    fn ov_drain(
        &mut self,
        release: Release,
        volume: &mut ExchangeVolume,
        mut reports: Option<&mut Vec<Option<f64>>>,
    ) -> Result<(), DistError> {
        let k = self.ranks.len();
        let target = self.ov.rounds_issued;
        let dim = D::Point::DIM;
        // inbound dependence: how many of q's in-neighbours still owe
        // the drained round
        let mut need: Vec<u32> = (0..k)
            .map(|q| {
                self.ov.in_srcs[q]
                    .iter()
                    .filter(|&&s| self.ov.done_rounds[s as usize] < target)
                    .count() as u32
            })
            .collect();
        let mut released = vec![false; k];
        for q in 0..k {
            if need[q] == 0 {
                released[q] = true;
                self.ov_release(q, release)?;
            }
        }
        loop {
            // exit: drained round complete everywhere, everyone
            // released, all queued bytes on the wire, reports (finish
            // drain) all in
            let drained = (0..k).all(|p| self.ov.done_rounds[p] >= target);
            let flushed = (0..k).all(|q| self.ov.outq[q].is_empty());
            let reported = match &reports {
                Some(r) => r.iter().all(|d| d.is_some()),
                None => true,
            };
            if drained && flushed && reported && released.iter().all(|&r| r) {
                return Ok(());
            }
            // poll: read interest on every rank still owing frames,
            // write interest on every non-empty out-queue
            self.ov.read_fds.clear();
            self.ov.write_fds.clear();
            for p in 0..k {
                let owes_round = self.ov.done_rounds[p] < target || self.ranks[p].owed_rounds > 0;
                let owes_report = matches!(&reports, Some(r) if r[p].is_none());
                self.ov.read_fds.push(if owes_round || owes_report {
                    self.ranks[p].from_fd
                } else {
                    -1
                });
                self.ov.write_fds.push(if self.ov.outq[p].is_empty() {
                    -1
                } else {
                    self.ranks[p].to_fd
                });
            }
            let mut ready_r = std::mem::take(&mut self.ov.ready_r);
            let mut ready_w = std::mem::take(&mut self.ov.ready_w);
            let t0 = now_ns();
            let polled = sys::poll_duplex(
                &self.ov.read_fds,
                &self.ov.write_fds,
                self.read_timeout_ms,
                &mut ready_r,
                &mut ready_w,
            );
            let waited = now_ns().saturating_sub(t0);
            // hidden iff some released work is in flight while a rank
            // still owes the drain — that wait overlaps live rank work.
            // Released work is either a color round issued ahead of the
            // drain target or a deferred checkpoint round whose sparse
            // replies are still outstanding (the ranks diff-scan and
            // reply under the very waits being charged)
            let owing_any = (0..k).any(|p| self.ov.done_rounds[p] < target);
            let ckpt_outstanding = self.ckpt_pending.as_ref().is_some_and(|pc| pc.missing > 0);
            let hidden = (released.iter().any(|&r| r) || ckpt_outstanding) && owing_any;
            for p in 0..k {
                if self.ov.read_fds[p] >= 0 {
                    self.ranks[p].from_rank.charge_wait_ns(waited, hidden);
                }
            }
            if self.profile {
                if hidden {
                    self.hidden_wait_ns += waited;
                } else {
                    self.poll_wait_ns += waited;
                }
            }
            self.ov.ready_r = ready_r;
            self.ov.ready_w = ready_w;
            let polled = match polled {
                Ok(n) => n,
                Err(e) => return Err(DistError::Spawn(e)),
            };
            if polled == 0 {
                // full timeout with zero readiness anywhere: implicate
                // the lowest-index rank still owing the drained round
                let stalled = (0..k)
                    .find(|&p| {
                        self.ov.done_rounds[p] < target
                            || matches!(&reports, Some(r) if r[p].is_none())
                    })
                    .unwrap_or(0);
                let e = io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("no rank readable within {}ms", self.read_timeout_ms),
                );
                return Err(self.diagnose_read(stalled, WireError::Io(e)));
            }
            // reads first (their bytes predate our queued writes), then
            // decode every complete frame each stream yielded
            for p in 0..k {
                if !self.ov.ready_r[p] || self.ov.read_fds[p] < 0 {
                    continue;
                }
                self.ov_fill(p)?;
                loop {
                    let t0 = if self.profile { now_ns() } else { 0 };
                    let decoded = self.ov.reasm[p].next_frame();
                    if self.profile {
                        self.decode_ns += now_ns().saturating_sub(t0);
                    }
                    let frame = match decoded {
                        Ok(Some(f)) => f,
                        Ok(None) => break,
                        Err(e) => return Err(self.diagnose_read(p, e)),
                    };
                    match frame {
                        Frame::HaloDelta { part: dst, slots, coords } => {
                            if !halo_batch_ok(&self.plan, self.blocks, dim, p, dst, &slots, &coords)
                            {
                                let f = Frame::HaloDelta { part: dst, slots, coords };
                                return Err(self.protocol_error(p, &f));
                            }
                            volume.halo_messages_sent += 1;
                            volume.halo_entries_sent += slots.len();
                            volume.halo_bytes_sent += halo_frame_wire_len(dim, slots.len());
                            let fwd = Frame::HaloDelta { part: p as u32, slots, coords };
                            let dst = dst as usize;
                            if self.ov.done_rounds[p] >= target && !released[dst] {
                                // a next-round delta for a rank whose
                                // release control frame is not yet
                                // queued: hold it back so FIFO order
                                // stays control-frame-first
                                self.ov.stash[dst].push(fwd);
                            } else {
                                self.ov_queue(dst, &fwd, Some(p));
                            }
                        }
                        Frame::RoundDone => {
                            if self.ranks[p].owed_rounds == 0 {
                                return Err(self.protocol_error(p, &Frame::RoundDone));
                            }
                            self.ranks[p].owed_rounds -= 1;
                            self.ov.done_rounds[p] += 1;
                            self.mark(p, "color_step");
                            if self.ov.done_rounds[p] == target {
                                // p's round completion may satisfy its
                                // out-neighbours' inbound dependence
                                for i in 0..self.plan.neighbors(p as u32).len() {
                                    let q = self.plan.neighbors(p as u32)[i] as usize;
                                    need[q] -= 1;
                                    if need[q] == 0 && !released[q] {
                                        released[q] = true;
                                        self.ov_release(q, release)?;
                                    }
                                }
                            }
                        }
                        Frame::Report { delta, phases } => {
                            let Some(r) = reports.as_deref_mut() else {
                                return Err(
                                    self.protocol_error(p, &Frame::Report { delta, phases })
                                );
                            };
                            if self.ranks[p].pending != Pending::Report || r[p].is_some() {
                                return Err(
                                    self.protocol_error(p, &Frame::Report { delta, phases })
                                );
                            }
                            self.ranks[p].pending = Pending::None;
                            if self.profile {
                                self.phases[p].accumulate(phases);
                            }
                            r[p] = Some(delta);
                            self.mark(p, "finish");
                        }
                        Frame::ScatterDelta { slots, coords } => {
                            // a deferred checkpoint reply riding ahead
                            // of the iteration's frames (rank FIFO puts
                            // it first): stash it now, commit later
                            self.ov_stash_ckpt_delta(p, slots, coords)?;
                        }
                        f => return Err(self.protocol_error(p, &f)),
                    }
                }
            }
            // writes: drain whichever out-queues the kernel will take
            for q in 0..k {
                if self.ov.ready_w[q] && self.ov.write_fds[q] >= 0 {
                    self.ov_flush(q)?;
                }
            }
        }
    }

    /// Whether rank `p` still owes the deferred checkpoint round its
    /// `ScatterDelta` reply.
    fn ckpt_awaiting(&self, p: usize) -> bool {
        self.ckpt_pending.as_ref().is_some_and(|pc| pc.awaiting[p])
    }

    /// Keep one `ScatterDelta` reply for the outstanding deferred
    /// checkpoint round. Rank owned sets are disjoint and each rank
    /// answers once per round, so arrival order is invisible in the
    /// committed state.
    fn ov_stash_ckpt_delta(
        &mut self,
        p: usize,
        slots: Vec<u32>,
        coords: Vec<f64>,
    ) -> Result<(), DistError> {
        let blocks = self.blocks;
        let owned = blocks[p].owned();
        let shape_ok = coords.len() == slots.len() * D::Point::DIM
            && slots.iter().all(|&s| (s as usize) < owned.len());
        if !shape_ok || !self.ckpt_awaiting(p) {
            let f = Frame::ScatterDelta { slots, coords };
            return Err(self.protocol_error(p, &f));
        }
        let pc = self.ckpt_pending.as_mut().expect("awaiting implies a pending round");
        pc.replies.push((p, slots, coords));
        pc.awaiting[p] = false;
        pc.missing -= 1;
        self.mark(p, "checkpoint");
        Ok(())
    }

    /// Finish the outstanding deferred checkpoint round, if any: drain
    /// whatever `ScatterDelta` replies have not been stashed yet. Rank
    /// FIFO order puts each reply *before* the following iteration's
    /// frames, so by the next boundary the replies were normally
    /// consumed inside the iteration's drains and this returns without
    /// polling. Returns the round's replies plus whether a sweep ran
    /// since the round was requested; the **caller** commits them into
    /// `ckpt` — at an `Ok`-return point only, keeping the committed
    /// checkpoint paired with the driver's fold snapshot.
    fn ov_complete_ckpt(&mut self) -> Result<FinishedCkpt, DistError> {
        if self.ckpt_pending.is_none() {
            return Ok(None);
        }
        for p in 0..self.ranks.len() {
            if !self.ckpt_awaiting(p) {
                continue;
            }
            match self.ov_recv(p)? {
                Frame::ScatterDelta { slots, coords } => {
                    self.ov_stash_ckpt_delta(p, slots, coords)?
                }
                f => return Err(self.protocol_error(p, &f)),
            }
        }
        let pc = self.ckpt_pending.take().expect("checked above");
        Ok(Some((pc.replies, pc.swept)))
    }

    /// Commit a finished round: write its replies into the checkpoint in
    /// place (each reply holds only what moved since the rank's previous
    /// one, which the checkpoint already holds), fresh when no sweep ran
    /// since the round was requested.
    fn apply_ckpt(&mut self, (replies, swept): (Vec<CkptReply>, bool)) {
        for (p, slots, coords) in replies {
            let owned = self.blocks[p].owned();
            for (&s, point) in slots.iter().zip(coords.chunks_exact(D::Point::DIM)) {
                self.ckpt[owned[s as usize] as usize] = D::Point::from_components(point);
            }
        }
        self.ckpt_fresh = !swept;
    }

    /// Finish the outstanding checkpoint round, if any, and commit it as
    /// the recovery checkpoint.
    fn commit_ckpt(&mut self) -> Result<(), DistError> {
        if let Some(finished) = self.ov_complete_ckpt()? {
            self.apply_ckpt(finished);
        }
        Ok(())
    }

    /// Kill and reap rank `p`'s process (no-ops if diagnosis already
    /// consumed its wait status, or for an external worker with no pid —
    /// its only teardown is the channel drop closing the stream).
    fn reap(&mut self, p: usize) {
        if self.ranks[p].reaped {
            return;
        }
        if let Some(pid) = self.ranks[p].pid {
            let _ = sys::kill_pid(pid);
            let _ = sys::wait_pid(pid);
        }
        self.ranks[p].reaped = true;
    }

    /// Reload every rank from the checkpoint: each block's scores are
    /// recomputed from the snapshot coordinates (bit-identical to what
    /// the ranks held at the boundary — see the module docs), then
    /// shipped as fresh `Gather` frames.
    fn reload_all(&mut self) -> Result<(), DistError> {
        let coords = std::mem::take(&mut self.ckpt);
        let result = self.load_ranks(&coords);
        self.ckpt = coords;
        result
    }

    /// Orderly teardown: ask every rank to exit, close every pipe end,
    /// then reap each child — surfacing any nonzero exit status or
    /// signal death as a [`DistError::Shutdown`]. Called (result
    /// discarded) by `Drop` too, so a coordinator panic still reaps its
    /// children. The reap cannot hang: closing the pipes gives blocked
    /// ranks `EPIPE`/EOF, and a rank that still refuses to exit within
    /// the grace window is `SIGKILL`ed.
    pub fn shutdown(&mut self) -> Result<(), DistError> {
        if self.shut_down {
            return Ok(());
        }
        self.shut_down = true;
        for p in 0..self.ranks.len() {
            // best effort: a rank that already died must not abort the
            // teardown of its siblings
            let _ = Frame::Shutdown.write_to(&mut self.ranks[p].to_rank);
            let _ = self.ranks[p].to_rank.flush();
        }
        let channels: Vec<RankChannel> = self.ranks.drain(..).collect();
        let mut failures: Vec<(u32, WaitStatus)> = Vec::new();
        for (p, channel) in channels.into_iter().enumerate() {
            let pid = channel.pid;
            let reaped = channel.reaped;
            drop(channel); // closes both stream ends: EOF/EPIPE unblocks the child
                           // external workers have no pid: the stream close (after the
                           // Shutdown frame above) is their whole teardown
            let Some(pid) = pid else { continue };
            if reaped {
                continue;
            }
            let mut status = None;
            for _ in 0..500 {
                match sys::try_wait_pid(pid) {
                    Ok(Some(s)) => {
                        status = Some(s);
                        break;
                    }
                    Ok(None) => std::thread::sleep(std::time::Duration::from_millis(2)),
                    Err(_) => break,
                }
            }
            let status = match status {
                Some(s) => s,
                None => {
                    let _ = sys::kill_pid(pid);
                    match sys::wait_pid(pid) {
                        Ok(s) => s,
                        Err(_) => continue,
                    }
                }
            };
            let status = WaitStatus(status);
            if !status.clean() {
                failures.push((p as u32, status));
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(DistError::Shutdown { failures })
        }
    }
}

impl<const C: usize, D: ScoringDomain<C>> Drop for ProcessTransport<'_, C, D> {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

impl<const C: usize, D: ScoringDomain<C>> FtResidentTransport<D::Point>
    for ProcessTransport<'_, C, D>
{
    type Error = DistError;

    fn try_gather(&mut self, coords: &[D::Point]) -> Result<(), DistError> {
        // prime the checkpoint before any wire traffic, so a failure in
        // iteration 1 (or in this very gather) recovers to the initial
        // state
        self.ckpt = coords.to_vec();
        self.ckpt_fresh = true;
        self.load_ranks(coords)
    }

    fn try_interior_phase(&mut self) -> Result<(), DistError> {
        self.cur_iter += 1;
        self.ckpt_fresh = false;
        if let Some(pc) = self.ckpt_pending.as_mut() {
            // the outstanding round's data is now a *past* boundary
            pc.swept = true;
        }
        // per-iteration round bookkeeping restarts here; the previous
        // iteration left everything quiesced (finish drain exits with
        // all queues empty and all reports in)
        self.ov.rounds_issued = 0;
        self.ov.done_rounds.iter_mut().for_each(|r| *r = 0);
        for p in 0..self.ranks.len() {
            self.send(p, &Frame::Interior)?;
            self.flush(p)?;
            self.mark(p, "interior");
        }
        Ok(())
    }

    fn try_color_step(
        &mut self,
        color: usize,
        volume: &mut ExchangeVolume,
    ) -> Result<(), DistError> {
        if self.ov.rounds_issued == 0 {
            // the iteration's first round: everyone is quiesced in its
            // read loop, so a plain blocking broadcast releases the whole
            // group at once — the drain of this round happens inside the
            // *next* color step (or the finish), overlapped with the
            // sweeps it releases
            for p in 0..self.ranks.len() {
                self.send(p, &Frame::ColorStep { color: color as u32 })?;
                self.flush(p)?;
                self.ranks[p].owed_rounds += 1;
            }
        } else {
            self.ov_drain(Release::Color(color as u32), volume, None)?;
        }
        self.ov.rounds_issued += 1;
        Ok(())
    }

    fn try_finish_iteration(
        &mut self,
        deltas: &mut Vec<f64>,
        volume: &mut ExchangeVolume,
    ) -> Result<(), DistError> {
        // drain the last color round (if any) and release each rank into
        // its finish the moment its in-neighbours are done; the drain
        // also collects the reports as they arrive, but the deltas are
        // appended in rank order below — the driver folds them in order,
        // and float folds are order-sensitive
        let mut got: Vec<Option<f64>> = vec![None; self.ranks.len()];
        self.ov_drain(Release::Finish, volume, Some(&mut got))?;
        for d in got {
            deltas.push(d.expect("finish drain exits only with every report in"));
        }
        Ok(())
    }

    fn try_scatter(&mut self, coords: &mut [D::Point]) -> Result<(), DistError> {
        // the round the driver requested at the `done` boundary right
        // before this scatter: no sweep has run since, so the assembled
        // state *is* every rank's live owned state
        self.commit_ckpt()?;
        if !self.ckpt_fresh {
            // a caller that scatters without checkpointing the last
            // boundary: run one more sparse round and collect it now
            self.take_checkpoint()?;
            self.commit_ckpt()?;
        }
        // owned sets partition the vertices and unsmoothed slots never
        // left their gathered values: the committed checkpoint answers
        // the scatter with zero wire traffic
        coords.copy_from_slice(&self.ckpt);
        Ok(())
    }

    /// Issue this boundary's checkpoint round and commit the previous
    /// one. Each rank diffs its owned block against the state the
    /// coordinator last saw (its Gather load or previous ScatterDelta
    /// reply) and ships only the changed slots — between boundaries
    /// that is the moved set, a few percent of the block — and the
    /// replies are consumed inside the *next* iteration's drains instead
    /// of at a synchronous barrier here. Three steps: (1) finish the
    /// previous boundary's round (rank FIFO means its replies normally
    /// arrived long ago — zero wait), (2) broadcast this boundary's
    /// request, (3) commit the finished round. The commit rides the `Ok`
    /// return, so `ckpt` and the driver's fold snapshot advance in
    /// lock-step; any failure leaves `ckpt` at the state the driver's
    /// snapshot describes. The price — recovery can replay up to one
    /// extra checkpoint interval — buys hiding the collection wait.
    fn take_checkpoint(&mut self) -> Result<(), DistError> {
        let ready = self.ov_complete_ckpt()?;
        let k = self.ranks.len();
        let replies = Vec::with_capacity(k);
        self.ckpt_pending =
            Some(CkptPending { replies, awaiting: vec![false; k], missing: 0, swept: false });
        for p in 0..k {
            self.send(p, &Frame::ScatterDeltaRequest)?;
            self.flush(p)?;
            // marked awaiting only once the request is actually out: a
            // broadcast that dies midway leaves resync draining exactly
            // the ranks that owe a reply
            let pc = self.ckpt_pending.as_mut().expect("set above");
            pc.awaiting[p] = true;
            pc.missing += 1;
        }
        if let Some(finished) = ready {
            self.apply_ckpt(finished);
        }
        Ok(())
    }

    /// Put the group back at the last checkpoint after `failure`: kill +
    /// reap the implicated rank, drain every survivor to quiescence
    /// (survivors failing here join the failed set), respawn the failed
    /// ranks with disarmed fault plans, drop every in-flight artefact of
    /// the abandoned iteration, and reload everyone from the snapshot.
    /// May itself fail (another rank dying mid-recovery, or fork
    /// refusing) — the driver retries against its recovery budget, and
    /// repeated reload failures re-enter here with the newly implicated
    /// rank.
    fn recover(&mut self, failure: &DistError) -> Result<(), DistError> {
        assert!(!self.ckpt.is_empty(), "recover called before the initial gather");
        let mut failed: Vec<u32> = match failure {
            DistError::RankExited { rank, .. }
            | DistError::RankStalled { rank, .. }
            | DistError::Wire { rank, .. }
            | DistError::ConnLost { rank, .. }
            | DistError::Protocol { rank, .. } => vec![*rank],
            // a respawn that never (re)connected names no rank — but its
            // stale dead channel fails resync below and re-implicates
            // itself, so repeated recovery attempts converge
            DistError::Spawn(_) | DistError::ConnRefused { .. } | DistError::Shutdown { .. } => {
                Vec::new()
            }
        };
        // push each survivor's queued bytes out (bounded) before draining
        // it: an out-queue abandoned mid-frame would leave a torn frame on
        // the stream, and the survivor would die on the CRC at its next
        // read. A rank that will not take its bytes within the grace
        // window is left to fail resync and join the failed set.
        for q in 0..self.ranks.len() {
            if failed.contains(&(q as u32)) || self.ov.outq[q].is_empty() {
                continue;
            }
            for _ in 0..50 {
                match self.ov_flush(q) {
                    Ok(true) => break,
                    Ok(false) => {
                        let _ = sys::wait_writable(self.ranks[q].to_fd, 10);
                    }
                    Err(_) => break,
                }
            }
        }
        for p in 0..self.ranks.len() {
            if failed.contains(&(p as u32)) {
                continue;
            }
            if self.resync(p).is_err() {
                failed.push(p as u32);
            }
        }
        // the outstanding deferred round dies with the iteration it was
        // hiding behind: survivors' replies were drained by resync,
        // failed ranks' replies died with their connections, and the
        // reload below resets every rank's sparse baseline via Gather
        self.ckpt_pending = None;
        for &p in &failed {
            self.reap(p as usize);
            let replacement = self.spawn_rank(p, false)?;
            self.ranks[p as usize] = replacement;
            self.ov.reasm[p as usize].clear();
        }
        let respawned: Vec<usize> = failed.iter().map(|&p| p as usize).collect();
        self.send_blocks(&respawned)?;
        // drop every in-flight artefact of the abandoned iteration: the
        // driver replays from the checkpoint through a fresh interior
        // phase, which restarts the round bookkeeping
        for q in 0..self.ranks.len() {
            self.ov.outq[q].clear();
            self.ov.stash[q].clear();
        }
        self.ov.rounds_issued = 0;
        self.ov.done_rounds.iter_mut().for_each(|r| *r = 0);
        for channel in &mut self.ranks {
            channel.pending = Pending::None;
            channel.owed_rounds = 0;
        }
        self.reload_all()?;
        // the reload *is* the checkpoint state on every rank
        self.ckpt_fresh = true;
        Ok(())
    }
}

/// Whether a `HaloDelta` batch rank `src` addressed to `dst` is one its
/// destination can apply: `dst` is one of `src`'s [`MessagePlan`]
/// neighbours, the payload carries `dim` components per slot, the batch
/// is no larger than the pair's scheduled entry count, and every slot
/// lies in `dst`'s halo range (`num_owned ≤ slot < num_owned +
/// num_halo`). Forwarded unchecked, a malformed batch would panic the
/// *destination* worker and recovery would respawn the wrong rank.
fn halo_batch_ok<const C: usize>(
    plan: &MessagePlan,
    blocks: &[ResidentBlock<C>],
    dim: usize,
    src: usize,
    dst: u32,
    slots: &[u32],
    coords: &[f64],
) -> bool {
    let src = src as u32;
    let Some(pair) = plan.neighbors(src).iter().position(|&q| q == dst) else {
        return false;
    };
    let block = &blocks[dst as usize];
    let halo = block.owned().len() as u32..(block.owned().len() + block.halo().len()) as u32;
    coords.len() == slots.len() * dim
        && slots.len() <= plan.pair_entry_counts(src)[pair] as usize
        && slots.iter().all(|s| halo.contains(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_part::PartitionMethod;
    use lms_smooth::{ResidentEngine, SmoothParams};

    /// Neither the spawner nor a rank holds a descriptor of the image it
    /// was forked from but its own channel: a pipe opened before the
    /// spawner was forked reads EOF as soon as the parent drops its write
    /// end, while the spawner and the ranks live on.
    #[test]
    fn ranks_do_not_hold_a_pipe_opened_before_their_spawn() {
        let mesh = lms_mesh::generators::perturbed_grid(8, 8, 0.35, 5);
        let (r, w) = sys::pipe().unwrap();
        let spawner = Spawner::start(&mesh, &SmoothParams::paper()).expect("spawner");
        let engine =
            ResidentEngine::by_method(&mesh, SmoothParams::paper(), 2, PartitionMethod::Rcb);
        let dom = engine.scoring();
        let (blocks, schedule) = (engine.blocks(), engine.exchange_schedule());
        let transport = ProcessTransport::spawn(
            &spawner,
            &dom,
            blocks,
            schedule,
            5_000,
            FaultPlan::none(),
            false,
        )
        .expect("spawn");
        drop(w);
        let mut reader = TimeoutReader::new(r, 2_000);
        let read = io::Read::read(&mut reader, &mut [0u8; 1]).map_err(|e| e.kind());
        assert_eq!(read, Ok(0), "the spawner or a rank holds the write end");
        assert_eq!(transport.num_ranks(), 2);
    }

    #[test]
    fn malformed_halo_batches_are_rejected_and_well_formed_ones_pass() {
        let mesh = lms_mesh::generators::perturbed_grid(12, 12, 0.35, 5);
        let engine =
            ResidentEngine::by_method(&mesh, SmoothParams::paper(), 4, PartitionMethod::Rcb);
        let blocks = engine.blocks();
        let plan = MessagePlan::build(engine.exchange_schedule());
        let ok = |dst: u32, slots: &[u32], coords: &[f64]| {
            halo_batch_ok(&plan, blocks, 2, 0, dst, slots, coords)
        };
        let dst = plan.neighbors(0)[0];
        let count = plan.pair_entry_counts(0)[0] as usize;
        let lo = blocks[dst as usize].owned().len() as u32;
        let hi = lo + blocks[dst as usize].halo().len() as u32;
        let slots: Vec<u32> = (lo..lo + count as u32).collect();
        let coords = vec![0.5; 2 * count];

        // well-formed: a full pair batch, and an empty one
        assert!(ok(dst, &slots, &coords));
        assert!(ok(dst, &[], &[]));
        // destination outside the plan: the sender itself, a part
        // index past the group
        assert!(!ok(0, &slots, &coords));
        assert!(!ok(blocks.len() as u32, &slots, &coords));
        // payload length not DIM per slot
        assert!(!ok(dst, &slots, &coords[1..]));
        assert!(!ok(dst, &slots, &[coords.as_slice(), &[0.5]].concat()));
        // more entries than the pair is scheduled to carry
        assert!(!ok(dst, &vec![lo; count + 1], &vec![0.5; 2 * (count + 1)]));
        // a slot outside the destination's halo range, on either side
        assert!(!ok(dst, &[lo - 1], &[0.5, 0.5]));
        assert!(!ok(dst, &[hi], &[0.5, 0.5]));
    }
}
