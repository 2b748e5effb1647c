//! The transport abstraction of resident smoothing: one drive loop,
//! pluggable data movement.
//!
//! The resident engine's control flow (iterate, fold part deltas, test
//! convergence, checkpoint, recover) is [`drive_resident_ft`], and
//! everything that moves bytes sits behind [`FtResidentTransport`] —
//! five operations that are exactly the message kinds of the
//! `lms_part::wire` protocol (gather / interior / color-step / finish /
//! scatter), plus checkpoint and recover.
//!
//! Two transports implement it:
//!
//! * [`InProcessTransport`] (here) — the shared-address-space engine:
//!   every part is a [`ResidentRank`] in one process, phases run on the
//!   persistent worker pool, and "routing" is a pull over the senders'
//!   outboxes. It cannot fail, so its error type is
//!   [`Infallible`](std::convert::Infallible).
//! * `lms_dist::ProcessTransport` — every rank is an OS process holding
//!   its block; the same operations become wire frames over pipes or
//!   stream sockets (Unix-domain or TCP), with the coordinator
//!   forwarding the coalesced per-pair delta batches between ranks.
//!   Socket ranks may live outside the coordinator's process tree
//!   entirely (`lms-tool dist-worker`), the single-host stand-in for a
//!   true multi-node deployment.
//!
//! Both transports route moved deltas **coalesced per (source part →
//! destination part) pair** along the [`lms_part::MessagePlan`] — one
//! message per pair per color step instead of one per delivery slot —
//! and charge [`ExchangeVolume`]'s message/entry/byte counters with the
//! same `lms_part::wire::halo_frame_wire_len` formula, so the in-process
//! and multi-process backends report identical exchange accounting (the
//! cross-transport oracle in `lms-dist` asserts report equality).
//!
//! The in-process transport **double-buffers** its outboxes: each rank
//! publishes color step `k`'s deltas into one buffer set while the
//! receivers of step `k+1` still pull from the other, so the per-entry
//! routing copies run inside the parallel phase (receiver-side pulls)
//! and the serial seam between color steps shrinks to `O(parts)` buffer
//! swaps — PR 3 routed every entry serially between steps.

use crate::config::UpdateScheme;
use crate::domain::{
    domain_quality, domain_quality_scored, DomainConfig, DomainPoint, SmoothDomain,
};
use crate::resident::{Neumaier, PairBatch, ResidentBlock, ResidentRank};
use crate::stats::{ExchangeVolume, IterationStats, SmoothReport};
use lms_part::wire::halo_frame_wire_len;
use lms_part::{ExchangeSchedule, MessagePlan};
use lms_trace::{NullTrace, TraceSink, TransportProfile};
use rayon::prelude::*;

/// Recovery policy of [`drive_resident_ft`]: how often the transport is
/// asked to checkpoint and how many recoveries a run may consume before
/// giving up with the underlying error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FtPolicy {
    /// Checkpoint every `n` iteration boundaries (values below 1 are
    /// treated as 1). A checkpoint is always taken at the final boundary
    /// so a scatter failure never replays smoothing work.
    pub checkpoint_every: usize,
    /// Recovery budget: the run fails with the last transport error once
    /// more than this many recoveries would be needed.
    pub max_recoveries: usize,
}

impl Default for FtPolicy {
    fn default() -> Self {
        FtPolicy { checkpoint_every: 1, max_recoveries: 8 }
    }
}

/// What fault tolerance did during a [`drive_resident_ft`] run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FtStats {
    /// One human-readable entry per recovery, in order: which phase
    /// failed and the transport's diagnosis of the failure.
    pub recoveries: Vec<String>,
    /// Checkpoints taken (iteration boundaries, per
    /// [`FtPolicy::checkpoint_every`], plus the final boundary).
    pub checkpoints: usize,
}

/// The data-movement backend of a resident smoothing run: five data
/// movements, each allowed to fail with a typed error, plus the two
/// resilience operations [`drive_resident_ft`] needs — checkpoint and
/// recover. Operations are invoked in a fixed order: one
/// [`try_gather`](Self::try_gather), then per iteration one
/// [`try_interior_phase`](Self::try_interior_phase), `num_colors`
/// [`try_color_step`](Self::try_color_step)s and one
/// [`try_finish_iteration`](Self::try_finish_iteration), with a
/// [`take_checkpoint`](Self::take_checkpoint) at the boundaries the
/// policy selects, then one [`try_scatter`](Self::try_scatter).
///
/// Contract for bit-identity across transports (property-tested by the
/// `lms-dist` cross-transport oracle): every operation must act exactly
/// like the corresponding [`ResidentRank`] calls on every part, deltas
/// must be delivered batched per (source, destination) pair as if in
/// ascending source-part order, and `try_finish_iteration` must report
/// the per-part stat deltas in part order. For recovery:
///
/// * after a successful `try_gather` the transport holds a checkpoint
///   equivalent to the gathered state (so a failure in iteration 1 is
///   recoverable without a separate checkpoint call);
/// * `take_checkpoint` is called only at iteration boundaries and
///   commits one boundary late: an `Ok` return means this boundary's
///   round was *issued* and the **previous** boundary's round committed,
///   so a failure leaves the last committed checkpoint valid. The driver
///   mirrors this with a one-slot pending snapshot queue, keeping its
///   fold snapshot paired with whatever the transport would reload;
/// * after a successful [`recover`](Self::recover) every rank holds
///   exactly the state of the last committed checkpoint, bit for bit,
///   and the transport is ready to re-run the iteration sequence from
///   that boundary; recovery traffic must not be charged to any
///   [`ExchangeVolume`] (recovered runs report byte counts identical to
///   failure-free runs).
pub trait FtResidentTransport<P: DomainPoint> {
    /// The transport's failure diagnosis (dead rank, stalled rank,
    /// corrupt frame, …).
    type Error: std::fmt::Debug + std::fmt::Display;

    /// The one full gather: load every rank's owned+halo coordinates and
    /// local element scores from the global arrays; primes the
    /// checkpoint.
    fn try_gather(&mut self, coords: &[P], scores: &[(f64, bool)]) -> Result<(), Self::Error>;

    /// Sweep every rank's part-interior vertices (nothing to exchange:
    /// interior vertices are in no other part's halo).
    fn try_interior_phase(&mut self) -> Result<(), Self::Error>;

    /// One interface color step on every rank: deliver the previous
    /// round's halo deltas, sweep color `color`, publish this round's
    /// moved deltas. Adds the round's message/entry/byte traffic to
    /// `volume`.
    fn try_color_step(
        &mut self,
        color: usize,
        volume: &mut ExchangeVolume,
    ) -> Result<(), Self::Error>;

    /// Iteration end: deliver the last round's deltas, run the plain
    /// re-score where needed, and push every rank's `Σ w_t·Δq_t` stat
    /// delta into `deltas` **in part order**. A transport that overlaps
    /// color steps may still be draining the last round's halo traffic
    /// here — `volume` lets it charge that traffic in the phase where it
    /// actually lands, so totals agree across transports at every
    /// iteration boundary.
    fn try_finish_iteration(
        &mut self,
        deltas: &mut Vec<f64>,
        volume: &mut ExchangeVolume,
    ) -> Result<(), Self::Error>;

    /// The one full scatter: write every rank's owned coordinates back
    /// into the global array (parts own disjoint vertex sets).
    fn try_scatter(&mut self, coords: &mut [P]) -> Result<(), Self::Error>;

    /// Issue this iteration boundary's checkpoint and commit the
    /// previous one (see the trait docs).
    fn take_checkpoint(&mut self) -> Result<(), Self::Error>;

    /// Put every rank back into the last committed checkpoint's state
    /// after `failure` — reap/replace dead ranks, resynchronise
    /// survivors, reload state. May itself fail (e.g. another rank died
    /// during recovery); the driver retries against its recovery budget.
    fn recover(&mut self, failure: &Self::Error) -> Result<(), Self::Error>;
}

/// The resident drive loop over any [`FtResidentTransport`]: one full
/// gather, per iteration an interior phase plus one color step per
/// interface color with halo-delta exchange in between, the part-ordered
/// Neumaier fold of the quality statistic, one full scatter — plus
/// checkpoint/replay recovery around it. The transport moves the bytes;
/// this function owns iteration control, convergence and the
/// [`ExchangeVolume`] phase counters, which is why `full_gathers == 1 &&
/// full_scatters == 1` holds for every backend.
///
/// At every checkpoint boundary the driver snapshots its own fold state
/// (running quality sum, iteration list, exchange counters) next to the
/// transport's rank checkpoint; when a transport operation fails it runs
/// [`FtResidentTransport::recover`], rolls its fold state back to the
/// snapshot, and replays the lost iterations. Replayed work is
/// deterministic from the checkpoint state, so a recovered run's final
/// coords and report are bit-identical to a failure-free run's. The
/// failure-free path is arithmetic-free beyond the fold: over the
/// infallible in-process transport this is the whole resident engine.
pub fn drive_resident_ft<const C: usize, D: SmoothDomain<C>, T: FtResidentTransport<D::Point>>(
    dom: &D,
    cfg: &DomainConfig,
    elem_w: &[f64],
    num_colors: usize,
    transport: &mut T,
    coords: &mut [D::Point],
    policy: &FtPolicy,
) -> Result<(SmoothReport, FtStats), T::Error> {
    drive_resident_ft_with(dom, cfg, elem_w, num_colors, transport, coords, policy, &mut NullTrace)
}

/// [`drive_resident_ft`] with an explicit [`TraceSink`]. The sink is a
/// compile-time switch: with [`NullTrace`] every `if S::ENABLED` guard
/// is dead code and the monomorphisation is exactly the untraced driver
/// (zero clock reads — guarded by a `lms_trace::clock_reads` test).
/// Spans emitted: `gather`, then per iteration `interior`, one
/// `color_step` per color (args: iteration, color) and `finish`, the
/// `checkpoint` and `recover` spans, then `scatter`. Tracing is
/// observation-only: the traced run's coords and report are
/// bit-identical to the untraced run's. Spans stay balanced through
/// failures: every fallible operation's span is closed *after*
/// capturing its `Result` and before acting on it, so a kill/recovery
/// cycle never leaves a dangling begin.
#[allow(clippy::too_many_arguments)]
pub fn drive_resident_ft_with<
    const C: usize,
    D: SmoothDomain<C>,
    T: FtResidentTransport<D::Point>,
    S: TraceSink,
>(
    dom: &D,
    cfg: &DomainConfig,
    elem_w: &[f64],
    num_colors: usize,
    transport: &mut T,
    coords: &mut [D::Point],
    policy: &FtPolicy,
    sink: &mut S,
) -> Result<(SmoothReport, FtStats), T::Error> {
    assert_eq!(coords.len(), dom.num_vertices(), "engine was built for a different mesh");
    assert_eq!(
        cfg.update,
        UpdateScheme::GaussSeidel,
        "resident smoothing is an in-place (Gauss-Seidel) schedule"
    );

    let init_scores = initial_scores(dom, cfg, coords);
    let mut qsum = Neumaier::default();
    for (t, &(q, _)) in init_scores.iter().enumerate() {
        qsum.add(q * elem_w[t]);
    }
    let initial_quality = domain_quality_scored(dom, &init_scores);
    let mut report = SmoothReport::starting(initial_quality);
    let mut volume = ExchangeVolume::default();
    let mut quality = initial_quality;
    let mut stats = FtStats::default();

    if cfg.max_iters == 0 {
        report.exchange = Some(volume);
        return Ok((report, stats));
    }

    let mut recoveries_left = policy.max_recoveries;
    // On failure: recover (retrying recovery itself against the budget),
    // recording one diagnosis line per attempt. Falls through once the
    // transport is back at the last checkpoint.
    macro_rules! recover_from {
        ($err:expr, $phase:expr) => {{
            let mut err = $err;
            loop {
                if recoveries_left == 0 {
                    return Err(err);
                }
                recoveries_left -= 1;
                stats.recoveries.push(format!("{}: {}", $phase, err));
                if S::ENABLED {
                    sink.begin("recover", 0, 0);
                }
                let recovered = transport.recover(&err);
                if S::ENABLED {
                    sink.end("recover");
                }
                match recovered {
                    Ok(()) => break,
                    Err(next) => err = next,
                }
            }
        }};
    }

    // The one full gather. A failure here is recovered like any other:
    // `try_gather` primes the transport's checkpoint before moving data,
    // so `recover` reloads every rank with exactly the gathered state.
    if S::ENABLED {
        sink.begin("gather", 0, 0);
    }
    let gathered = transport.try_gather(coords, &init_scores);
    if S::ENABLED {
        sink.end("gather");
    }
    if let Err(e) = gathered {
        recover_from!(e, "gather");
    }
    volume.full_gathers += 1;

    // the coordinator-side half of a checkpoint: everything the fold
    // needs to replay from the matching rank checkpoint
    struct Snap {
        qsum: Neumaier,
        quality: f64,
        iters_kept: usize,
        volume: ExchangeVolume,
        next_iter: usize,
        converged: bool,
        done: bool,
    }
    let mut snap =
        Snap { qsum, quality, iters_kept: 0, volume, next_iter: 1, converged: false, done: false };
    // A transport commits each checkpoint round one boundary late (see
    // `FtResidentTransport`): its `Ok` promotes the *previous*
    // boundary's snapshot into `snap` and parks this boundary's in the
    // one-slot queue.
    let mut pending_snap: Option<Snap> = None;

    fn attempt_iteration<P: DomainPoint, T: FtResidentTransport<P>, S: TraceSink>(
        transport: &mut T,
        num_colors: usize,
        iter: u32,
        volume: &mut ExchangeVolume,
        deltas: &mut Vec<f64>,
        sink: &mut S,
    ) -> Result<(), T::Error> {
        if S::ENABLED {
            sink.begin("interior", iter, 0);
        }
        let interior = transport.try_interior_phase();
        if S::ENABLED {
            sink.end("interior");
        }
        interior?;
        for c in 0..num_colors {
            volume.exchange_rounds += 1;
            if S::ENABLED {
                sink.begin("color_step", iter, c as u32);
            }
            let stepped = transport.try_color_step(c, volume);
            if S::ENABLED {
                sink.end("color_step");
            }
            stepped?;
        }
        deltas.clear();
        if S::ENABLED {
            sink.begin("finish", iter, 0);
        }
        let finished = transport.try_finish_iteration(deltas, volume);
        if S::ENABLED {
            sink.end("finish");
        }
        finished?;
        Ok(())
    }

    let ckpt_every = policy.checkpoint_every.max(1);
    let n = dom.num_vertices() as f64;
    let mut deltas: Vec<f64> = Vec::new();
    let mut iter = 1usize;
    let mut converged = false;
    let mut done = false;
    loop {
        if done {
            // the one full scatter; on failure, recover and fall into
            // the rewind below — the restored checkpoint may predate the
            // `done` boundary, so the lost iterations replay before the
            // scatter is retried
            if S::ENABLED {
                sink.begin("scatter", 0, 0);
            }
            let scattered = transport.try_scatter(coords);
            if S::ENABLED {
                sink.end("scatter");
            }
            match scattered {
                Ok(()) => break,
                Err(e) => recover_from!(e, "scatter"),
            }
        } else {
            match attempt_iteration(
                transport,
                num_colors,
                iter as u32,
                &mut volume,
                &mut deltas,
                sink,
            ) {
                Ok(()) => {
                    for &d in &deltas {
                        if d != 0.0 {
                            qsum.add(d);
                        }
                    }
                    let new_quality = qsum.value() / n;
                    let improvement = new_quality - quality;
                    report.iterations.push(IterationStats {
                        iter,
                        quality: new_quality,
                        improvement,
                    });
                    quality = new_quality;
                    converged = improvement < cfg.tol;
                    done = converged || iter == cfg.max_iters;
                    let boundary_due = done || iter.is_multiple_of(ckpt_every);
                    iter += 1;
                    if boundary_due {
                        if S::ENABLED {
                            sink.begin("checkpoint", iter as u32, 0);
                        }
                        let checkpointed = transport.take_checkpoint();
                        if S::ENABLED {
                            sink.end("checkpoint");
                        }
                        match checkpointed {
                            Ok(()) => {
                                stats.checkpoints += 1;
                                let new_snap = Snap {
                                    qsum,
                                    quality,
                                    iters_kept: report.iterations.len(),
                                    volume,
                                    next_iter: iter,
                                    converged,
                                    done,
                                };
                                if let Some(committed) = pending_snap.replace(new_snap) {
                                    snap = committed;
                                }
                                continue;
                            }
                            Err(e) => recover_from!(e, "checkpoint"),
                        }
                    } else {
                        continue;
                    }
                }
                Err(e) => recover_from!(e, format!("iteration {iter}")),
            }
        }
        // recovered: rewind the fold to the snapshot matching the rank
        // checkpoint the transport just restored, then replay. A round
        // still pending at the failure was abandoned with it — its
        // snapshot must never be promoted.
        pending_snap = None;
        qsum = snap.qsum;
        quality = snap.quality;
        report.iterations.truncate(snap.iters_kept);
        volume = snap.volume;
        iter = snap.next_iter;
        converged = snap.converged;
        done = snap.done;
    }

    volume.full_scatters += 1;
    let exact = domain_quality(dom, coords);
    if let Some(last) = report.iterations.last_mut() {
        last.quality = exact;
    }
    report.final_quality = exact;
    report.converged = converged;
    report.exchange = Some(volume);
    Ok((report, stats))
}

/// The drivers' initial full scoring pass: every element scored on the
/// global coordinates, in element order. Runs the lane-batched SoA
/// kernel unless the scalar baseline is forced — both produce identical
/// bits per element, so either way the table matches a fresh quality
/// cache exactly.
fn initial_scores<const C: usize, D: SmoothDomain<C>>(
    dom: &D,
    cfg: &DomainConfig,
    coords: &[D::Point],
) -> Vec<(f64, bool)> {
    if cfg.scalar_scoring {
        dom.elements().iter().map(|&e| dom.score(coords, e)).collect()
    } else {
        let mut out = Vec::with_capacity(dom.num_elements());
        let elems = dom.elements().iter().copied();
        crate::soa::score_elements_batched(dom, coords, elems, |s| out.push(s));
        out
    }
}

/// Raw coordinate base pointer for the final disjoint scatter. Soundness:
/// parts own disjoint global vertex sets (a partition invariant,
/// property-tested in `lms-part`), so no slot is written by two parts.
struct ScatterPtr<P>(*mut P);
unsafe impl<P> Sync for ScatterPtr<P> {}
unsafe impl<P> Send for ScatterPtr<P> {}

/// The shared-address-space transport: every part is a [`ResidentRank`]
/// in this process, phases run on the persistent worker pool, and delta
/// routing is a receiver-side pull over double-buffered sender outboxes
/// (see the module docs). This is the PR-3 resident engine's behaviour,
/// bit for bit — the unmodified PR 1–4 property suites pin it.
pub struct InProcessTransport<'a, const C: usize, D: SmoothDomain<C>> {
    ranks: Vec<ResidentRank<'a, C, D>>,
    /// The published buffer set: `prev_out[p]` holds part `p`'s outbox
    /// of the *previous* exchange round (the one receivers pull), while
    /// each rank fills its in-rank buffer — swapped every round.
    prev_out: Vec<Vec<PairBatch<D::Point>>>,
    blocks: &'a [ResidentBlock<C>],
    pool: &'a rayon::ThreadPool,
}

impl<'a, const C: usize, D: SmoothDomain<C>> InProcessTransport<'a, C, D> {
    /// Build the transport: one rank per part plus the double-buffered
    /// outboxes shaped by the schedule's [`MessagePlan`].
    pub fn new(
        dom: &'a D,
        cfg: &DomainConfig,
        blocks: &'a [ResidentBlock<C>],
        schedule: &'a ExchangeSchedule,
        pool: &'a rayon::ThreadPool,
    ) -> Self {
        let plan = MessagePlan::build(schedule);
        let ranks: Vec<ResidentRank<'a, C, D>> = blocks
            .iter()
            .enumerate()
            .map(|(p, block)| ResidentRank::new(dom, cfg, p as u32, block, schedule, &plan))
            .collect();
        let prev_out = ranks.iter().map(|r| r.outbox_template()).collect();
        InProcessTransport { ranks, prev_out, blocks, pool }
    }
}

/// The in-process transport cannot fail: ranks share the coordinator's
/// address space, so there is no process to die, no pipe to stall and no
/// wire to corrupt. Checkpointing is a no-op (state is never lost) and
/// `recover` is statically unreachable, which is what makes this
/// transport the graceful-degradation fallback when rank processes
/// cannot be spawned at all.
impl<const C: usize, D: SmoothDomain<C>> FtResidentTransport<D::Point>
    for InProcessTransport<'_, C, D>
{
    type Error = std::convert::Infallible;

    fn try_gather(
        &mut self,
        coords: &[D::Point],
        scores: &[(f64, bool)],
    ) -> Result<(), Self::Error> {
        let ranks = &mut self.ranks;
        self.pool.install(|| {
            ranks.par_iter_mut().for_each(|rank| rank.load_global(coords, scores));
        });
        Ok(())
    }

    fn try_interior_phase(&mut self) -> Result<(), Self::Error> {
        let ranks = &mut self.ranks;
        self.pool.install(|| {
            ranks.par_iter_mut().for_each(|rank| rank.sweep_interior());
        });
        Ok(())
    }

    fn try_color_step(
        &mut self,
        color: usize,
        volume: &mut ExchangeVolume,
    ) -> Result<(), Self::Error> {
        let ranks = &mut self.ranks;
        let published: &[Vec<PairBatch<D::Point>>] = &self.prev_out;
        // pull, apply, sweep and publish fully in parallel: the routing
        // copies run receiver-side against the buffers published last
        // round, overlapping with this round's sweeps across parts
        self.pool.install(|| {
            ranks.par_iter_mut().for_each(|rank| {
                rank.pull_from(published);
                rank.apply_pending();
                rank.sweep_color(color);
                rank.route_moved();
            });
        });
        // serial seam: O(parts) buffer swaps + the deterministic traffic
        // accounting (charged with the wire formula, so in-process and
        // multi-process reports agree byte for byte)
        for (p, rank) in self.ranks.iter_mut().enumerate() {
            for batch in rank.outbox() {
                if !batch.slots.is_empty() {
                    volume.halo_messages_sent += 1;
                    volume.halo_entries_sent += batch.slots.len();
                    volume.halo_bytes_sent += halo_frame_wire_len(D::Point::DIM, batch.slots.len());
                }
            }
            rank.swap_outbox(&mut self.prev_out[p]);
        }
        Ok(())
    }

    // the in-process transport charges every round's traffic at publish
    // time inside `try_color_step`, so nothing is left to charge here
    fn try_finish_iteration(
        &mut self,
        deltas: &mut Vec<f64>,
        _volume: &mut ExchangeVolume,
    ) -> Result<(), Self::Error> {
        let ranks = &mut self.ranks;
        let published: &[Vec<PairBatch<D::Point>>] = &self.prev_out;
        self.pool.install(|| {
            ranks.par_iter_mut().for_each(|rank| {
                rank.pull_from(published);
                rank.finalize_iteration();
            });
        });
        for (p, rank) in self.ranks.iter_mut().enumerate() {
            deltas.push(rank.take_delta());
            // the published buffers were consumed by this pull; drain
            // them so the next iteration's first color step starts clean
            for batch in &mut self.prev_out[p] {
                batch.clear();
            }
        }
        Ok(())
    }

    fn try_scatter(&mut self, coords: &mut [D::Point]) -> Result<(), Self::Error> {
        let scatter = ScatterPtr(coords.as_mut_ptr());
        let scatter = &scatter;
        let ranks: &[ResidentRank<'_, C, D>] = &self.ranks;
        let blocks = self.blocks;
        self.pool.install(|| {
            (0..ranks.len()).into_par_iter().for_each(|i| {
                for (j, &v) in blocks[i].owned().iter().enumerate() {
                    // SAFETY: `v` is owned by part `i` alone; parts
                    // partition the vertex set, so no two workers
                    // write the same slot.
                    unsafe { *scatter.0.add(v as usize) = ranks[i].owned_coord(j) };
                }
            });
        });
        Ok(())
    }

    fn take_checkpoint(&mut self) -> Result<(), Self::Error> {
        Ok(())
    }

    fn recover(&mut self, failure: &Self::Error) -> Result<(), Self::Error> {
        match *failure {}
    }
}

impl<const C: usize, D: SmoothDomain<C>> InProcessTransport<'_, C, D> {
    /// Switch per-rank phase self-timing on or off (off by default).
    /// Observation-only: timing changes no sweep arithmetic, no exchange
    /// contents and no fold order, so a profiled run's coordinates and
    /// report (minus `phase_breakdown`) are bit-identical.
    pub fn set_profiling(&mut self, on: bool) {
        for rank in &mut self.ranks {
            rank.set_timing(on);
        }
    }

    /// Drain the accumulated profile: per-rank phase timings plus the
    /// receiver-side per-(src,dst) routing matrix. The in-process
    /// transport has no frames and never waits, so its encode/decode/
    /// poll-wait totals are zero by definition.
    pub fn take_profile(&mut self) -> TransportProfile {
        let parts = self.ranks.len();
        let mut profile = TransportProfile {
            route_pair_ns: vec![0u64; parts * parts],
            ..TransportProfile::default()
        };
        for (p, rank) in self.ranks.iter_mut().enumerate() {
            profile.rank_phases.push(rank.take_phases());
            profile.scored_elements += rank.take_scored();
            for (s, ns) in rank.take_route_ns().into_iter().enumerate() {
                profile.route_pair_ns[s * parts + p] += ns;
            }
        }
        profile
    }
}
