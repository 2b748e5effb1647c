//! The rank worker: the frame-driven loop a rank process runs for its
//! whole life.
//!
//! A worker owns exactly one [`ResidentRank`] over its part's resident
//! block. Every worker gets that block the same way, whether the
//! spawner forked it or it runs standalone over a socket: the
//! coordinator's `Hello` is followed by a `Block` frame, which the
//! worker decodes with validation ([`ResidentBlock::from_frame`]) into
//! the block and its row of the exchange schedule. All the worker brings
//! itself is the topology-free scoring view, on which it scores its own
//! elements whenever a `Gather` loads its coordinates: the gather carries
//! coordinates only, and streams straight into the rank's coordinate
//! array, as the scatter replies stream straight out of it. A gather or
//! halo delta that does not fit the block — a gather of the wrong size, a
//! halo slot outside the halo range — ends the worker with a typed
//! [`WireError::BadFrame`] before any sweep can trip over it. It serves
//! the coordinator's frames in stream order: the FIFO byte stream (pipe
//! or socket) is the synchronisation, so a `ColorStep` can never overtake
//! the previous round's forwarded `HaloDelta` frames. Every frame handler is one
//! [`ResidentRank`] call; the sweep arithmetic is therefore the
//! in-process engine's, expression for expression, which is what makes
//! the cross-transport oracle hold bit for bit.
//!
//! The worker also hosts the test side of the fault-injection harness: a
//! [`WorkerFaults`] script (usually empty) can kill or stall the process
//! right before a chosen protocol step, corrupt a byte of an outgoing
//! frame, drop the connection while staying alive, fragment every write
//! down to single bytes, or delay each outgoing frame — simulating
//! fail-stop deaths, livelocks, silent wire corruption, and the network
//! partitions only a socket transport can see.

use crate::fault::{FaultPoint, WorkerFaults};
use lms_part::wire::{write_streamed, Frame, FrameHead, Streamed, WireError, WIRE_VERSION};
use lms_part::MessagePlan;
use lms_smooth::domain::{DomainConfig, DomainPoint, ScoringDomain};
use lms_smooth::resident::{ResidentBlock, ResidentRank};
use std::io::{Read, Write};

/// How a serve loop ended short of a stream error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ServeOutcome {
    /// The coordinator sent `Shutdown`: exit cleanly.
    Shutdown,
    /// A scripted [`WorkerFault::DropConnBefore`] fired: the caller must
    /// close both stream ends and **stay alive**, so the coordinator
    /// diagnoses `ConnLost` rather than `RankExited`.
    ///
    /// [`WorkerFault::DropConnBefore`]: crate::fault::WorkerFault::DropConnBefore
    DropConn,
}

/// Serve the coordinator as rank `part` until `Shutdown` (or a dead
/// stream), then leave the process via `_exit` — never by returning into
/// the forked parent image. Exit codes: 0 clean shutdown, 101 panic,
/// 102 stream error (a block frame that fails validation included),
/// [`crate::fault::INJECTED_KILL_EXIT`] injected kill. A scripted
/// connection drop closes the streams and idles the process instead of
/// exiting — the coordinator's recovery kills it.
pub(crate) fn run_worker<const C: usize, D, R, W>(
    dom: &D,
    cfg: &DomainConfig,
    part: u32,
    input: R,
    output: W,
    faults: WorkerFaults,
) -> !
where
    D: ScoringDomain<C>,
    R: Read,
    W: Write,
{
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        serve(dom, cfg, part, input, output, &faults)
    }));
    match outcome {
        Ok(Ok(ServeOutcome::Shutdown)) => crate::sys::exit_now(0),
        Ok(Ok(ServeOutcome::DropConn)) => {
            // streams dropped when serve returned; park until recovery
            // reaps us, so waitpid keeps reporting this process alive
            std::thread::sleep(std::time::Duration::from_secs(120));
            crate::sys::exit_now(0);
        }
        Ok(Err(e)) => {
            eprintln!("lms-dist rank worker: stream error: {e}");
            crate::sys::exit_now(102);
        }
        Err(_) => {
            eprintln!("lms-dist rank worker: panicked");
            crate::sys::exit_now(101);
        }
    }
}

/// The worker's frame writer: counts outgoing frames and applies the
/// scripted wire-level faults. Single-byte corruption serialises the
/// victim frame to a scratch buffer, flips the byte, and writes the
/// damaged image raw — the stream carries exactly what a torn wire
/// would. Short-write mode pushes every frame one byte per flush — the
/// maximally fragmented stream — and slow-peer mode sleeps before each
/// frame.
struct FrameWriter<'f, W: Write> {
    inner: W,
    faults: &'f WorkerFaults,
    sent: u64,
}

impl<W: Write> FrameWriter<'_, W> {
    fn put(&mut self, frame: &Frame) -> std::io::Result<()> {
        self.put_with(|w| frame.write_to(w))
    }

    /// Send the one frame `write` writes — a [`Frame`], or a frame
    /// streamed from the rank's own state.
    fn put_with(
        &mut self,
        write: impl FnOnce(&mut dyn Write) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        if self.faults.slow_frame_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(self.faults.slow_frame_ms));
        }
        let idx = self.sent;
        self.sent += 1;
        if let Some(byte) = self.faults.corrupt_byte(idx) {
            let mut bytes = Vec::new();
            write(&mut bytes)?;
            // target the checksum+payload region (offset ≥ 4): keeping
            // the length prefix intact keeps the stream re-framable, so
            // the coordinator diagnoses BadChecksum deterministically
            // instead of a timeout
            let i = 4 + byte % (bytes.len() - 4);
            bytes[i] ^= 0x5a;
            self.write_bytes(&bytes)
        } else if self.faults.short_write {
            let mut bytes = Vec::new();
            write(&mut bytes)?;
            self.write_bytes(&bytes)
        } else {
            write(&mut self.inner)
        }
    }

    fn write_bytes(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        if self.faults.short_write {
            // one byte per syscall: flush between bytes so any buffering
            // below cannot coalesce them back together
            for b in bytes {
                self.inner.write_all(std::slice::from_ref(b))?;
                self.inner.flush()?;
            }
            Ok(())
        } else {
            self.inner.write_all(bytes)
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Serve rank `part` over `input`/`output`: the coordinator's `Hello`,
/// then its `Block` frame, then the frame loop.
pub(crate) fn serve<const C: usize, D, R, W>(
    dom: &D,
    cfg: &DomainConfig,
    part: u32,
    input: R,
    output: W,
    faults: &WorkerFaults,
) -> Result<ServeOutcome, WireError>
where
    D: ScoringDomain<C>,
    R: Read,
    W: Write,
{
    let mut rd = std::io::BufReader::new(input);
    let mut wr = FrameWriter { inner: std::io::BufWriter::new(output), faults, sent: 0 };

    let profile = match Frame::read_from(&mut rd)? {
        Frame::Hello { version, dim, rank: id, profile } => {
            assert_eq!(version, WIRE_VERSION, "wire version mismatch");
            assert_eq!(dim as usize, <D::Point as DomainPoint>::DIM, "dimension mismatch");
            assert_eq!(id, part, "rank id mismatch");
            profile
        }
        f => panic!("expected Hello handshake, got {f:?}"),
    };
    // the frame's payload is freed as soon as it is decoded; the decoded
    // sections become the block's vectors
    let frame = Frame::read_from(&mut rd)?;
    let (block, schedule) =
        ResidentBlock::<C>::from_frame(frame, part, dom.num_vertices(), dom.num_elements())?;
    let plan = MessagePlan::build(&schedule);
    let mut rank = ResidentRank::new(dom, cfg, part, &block, &schedule, &plan);
    // profiled runs time every sweep phase rank-side and ship the totals
    // back as deltas in each Report frame
    rank.set_timing(profile);
    let rank = &mut rank;
    let dim = <D::Point as DomainPoint>::DIM;
    let num_owned = block.num_owned();
    let halo = num_owned as u32..(num_owned + block.halo().len()) as u32;

    // worker-local iteration counter: the number of Interior frames
    // served so far — the `iter` coordinate of fault points
    let mut iter: u32 = 0;
    // sparse-checkpoint baseline: the owned coordinates as the
    // coordinator last saw them — reset by every Gather load, advanced
    // by every ScatterDelta reply. Kept as flat bits so the diff is the
    // same bitwise comparison the cross-transport oracle demands.
    let mut ckpt_base: Vec<f64> = Vec::new();
    // reused scratch: one bit per owned slot, set when a sparse reply
    // ships it; an incoming halo batch's points; one point's components
    let mut changed: Vec<u64> = vec![0; num_owned.div_ceil(64)];
    let mut delivered: Vec<D::Point> = Vec::new();
    let mut comps: Vec<f64> = Vec::with_capacity(dim);
    let outcome = loop {
        let head = FrameHead::read(&mut rd)?;
        if head.is_gather() {
            // the coordinates stream into the rank's own array, and the
            // owned ones into the baseline beside it
            ckpt_base.clear();
            ckpt_base.reserve_exact(num_owned * dim);
            rank.load_with(|pts| {
                head.read_gather(&mut rd, dim, pts.len(), |run, values| {
                    let owned = run.start.min(num_owned)..run.end.min(num_owned);
                    ckpt_base.extend_from_slice(&values[..owned.len() * dim]);
                    for (p, c) in pts[run].iter_mut().zip(values.chunks_exact(dim)) {
                        *p = D::Point::from_components(c);
                    }
                })
            })?;
            continue;
        }
        match head.read_rest(&mut rd)? {
            Frame::Interior => {
                iter += 1;
                if faults.hit_drop(FaultPoint::Interior { iter }) {
                    break ServeOutcome::DropConn;
                }
                faults.hit(FaultPoint::Interior { iter });
                rank.sweep_interior();
            }
            Frame::ColorStep { color } => {
                if faults.hit_drop(FaultPoint::Color { iter, color }) {
                    break ServeOutcome::DropConn;
                }
                faults.hit(FaultPoint::Color { iter, color });
                rank.apply_pending();
                rank.sweep_color(color as usize);
                rank.route_moved();
                for batch in rank.outbox() {
                    if batch.slots.is_empty() {
                        continue;
                    }
                    let frame = Streamed::HaloDelta { part: batch.dst, slots: &batch.slots };
                    wr.put_with(|w| {
                        write_streamed(w, frame, dim, |run, _, out| {
                            batch.coords[run].iter().for_each(|p| p.push_components(out))
                        })
                    })?;
                }
                wr.put(&Frame::RoundDone)?;
                wr.flush()?;
            }
            Frame::HaloDelta { slots, coords, .. } => {
                // what the coordinator's `halo_batch_ok` checks before it
                // forwards, checked again where the batch is applied
                if coords.len() != slots.len() * dim {
                    return Err(WireError::BadFrame("halo delta is not dim coordinates per slot"));
                }
                if !slots.iter().all(|s| halo.contains(s)) {
                    return Err(WireError::BadFrame("halo delta slot outside the halo range"));
                }
                delivered.clear();
                delivered.extend(coords.chunks_exact(dim).map(D::Point::from_components));
                rank.stash_deltas(&slots, &delivered);
            }
            Frame::FinishIteration => {
                if faults.hit_drop(FaultPoint::Finish { iter }) {
                    break ServeOutcome::DropConn;
                }
                faults.hit(FaultPoint::Finish { iter });
                rank.finalize_iteration();
                // phase timings ride as *deltas* (take_phases drains), so
                // a respawned rank's report never double-counts and the
                // coordinator can simply accumulate; all-zero when the
                // handshake did not request profiling
                wr.put(&Frame::Report { delta: rank.take_delta(), phases: rank.take_phases() })?;
                wr.flush()?;
            }
            Frame::ScatterRequest => {
                let owned = rank.owned_coords();
                let frame = Streamed::Scatter { points: owned.len() };
                wr.put_with(|w| {
                    write_streamed(w, frame, dim, |run, _, out| {
                        owned[run].iter().for_each(|p| p.push_components(out))
                    })
                })?;
                wr.flush()?;
            }
            Frame::ScatterDeltaRequest => {
                if ckpt_base.len() != num_owned * dim {
                    return Err(WireError::BadFrame("sparse scatter before any gather"));
                }
                let owned = rank.owned_coords();
                changed.fill(0);
                for (s, (p, base)) in owned.iter().zip(ckpt_base.chunks_exact_mut(dim)).enumerate()
                {
                    comps.clear();
                    p.push_components(&mut comps);
                    if comps.iter().zip(base.iter()).any(|(a, b)| a.to_bits() != b.to_bits()) {
                        changed[s / 64] |= 1 << (s % 64);
                        base.copy_from_slice(&comps);
                    }
                }
                let frame = Streamed::ScatterDelta { changed: &changed };
                wr.put_with(|w| {
                    write_streamed(w, frame, dim, |_, slots, out| {
                        slots.iter().for_each(|&s| owned[s as usize].push_components(out))
                    })
                })?;
                wr.flush()?;
            }
            Frame::Shutdown => break ServeOutcome::Shutdown,
            f => panic!("coordinator sent unexpected frame {f:?}"),
        }
    };
    // rd/wr drop here, closing both stream ends before the caller parks
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_part::PartitionMethod;
    use lms_smooth::{ResidentEngine, SmoothParams};

    /// Serve rank 1 of a 3-part engine over an in-memory stream: the
    /// handshake and the block frame, then `frames`. Returns the outcome
    /// and the frames the rank wrote back.
    fn serve_frames(frames: &[Frame]) -> (Result<ServeOutcome, WireError>, Vec<Frame>) {
        let mesh = lms_mesh::generators::perturbed_grid(10, 10, 0.35, 3);
        let engine =
            ResidentEngine::by_method(&mesh, SmoothParams::paper(), 3, PartitionMethod::Rcb);
        let (dom, cfg) = (engine.scoring(), engine.domain_config());
        let mut input = Vec::new();
        Frame::Hello { version: WIRE_VERSION, dim: 2, rank: 1, profile: false }
            .write_to(&mut input)
            .unwrap();
        engine.blocks()[1].write_frame(&mut input, 1, engine.exchange_schedule()).unwrap();
        for frame in frames {
            frame.write_to(&mut input).unwrap();
        }
        let mut output = Vec::new();
        let outcome = serve(&dom, &cfg, 1, input.as_slice(), &mut output, &Default::default());
        let mut replies = Vec::new();
        let mut rest = output.as_slice();
        while !rest.is_empty() {
            replies.push(Frame::read_from(&mut rest).expect("the rank writes whole frames"));
        }
        (outcome, replies)
    }

    /// Rank 1's owned and halo counts in [`serve_frames`]' engine.
    fn counts() -> (usize, usize) {
        let mesh = lms_mesh::generators::perturbed_grid(10, 10, 0.35, 3);
        let engine =
            ResidentEngine::by_method(&mesh, SmoothParams::paper(), 3, PartitionMethod::Rcb);
        let block = &engine.blocks()[1];
        (block.owned().len(), block.halo().len())
    }

    fn gather(points: usize) -> Frame {
        Frame::Gather { coords: (0..2 * points).map(|i| i as f64 * 0.125).collect() }
    }

    #[test]
    fn a_gathered_rank_replies_with_its_owned_coordinates() {
        let (owned, halo) = counts();
        let frames = [
            gather(owned + halo),
            Frame::ScatterDeltaRequest,
            Frame::ScatterRequest,
            Frame::Shutdown,
        ];
        let (outcome, replies) = serve_frames(&frames);
        assert_eq!(outcome.expect("a well-formed stream"), ServeOutcome::Shutdown);
        let Frame::Gather { coords } = &frames[0] else { unreachable!() };
        let expect_scatter = Frame::Scatter { coords: coords[..2 * owned].to_vec() };
        // nothing moved since the gather set the baseline
        let expect_delta = Frame::ScatterDelta { slots: vec![], coords: vec![] };
        assert_eq!(replies, [expect_delta, expect_scatter]);
    }

    #[test]
    fn frames_that_do_not_fit_the_block_are_typed_errors() {
        let (owned, halo) = counts();
        let (lo, hi) = (owned as u32, (owned + halo) as u32);
        let delta =
            |slots: Vec<u32>, n: usize| Frame::HaloDelta { part: 0, slots, coords: vec![0.5; n] };
        let cases = [
            (vec![gather(owned + halo - 1)], "short gather"),
            (vec![gather(owned + halo + 1)], "long gather"),
            (vec![gather(owned + halo), delta(vec![lo - 1], 2)], "owned slot"),
            (vec![gather(owned + halo), delta(vec![hi], 2)], "slot past the halo"),
            (vec![gather(owned + halo), delta(vec![lo, hi - 1], 3)], "short coordinates"),
            (vec![gather(owned + halo), delta(vec![lo], 4)], "long coordinates"),
            (vec![Frame::ScatterDeltaRequest], "sparse scatter before any gather"),
        ];
        for (mut frames, what) in cases {
            frames.push(Frame::Shutdown);
            match serve_frames(&frames).0 {
                Err(WireError::BadFrame(_)) => {}
                other => panic!("{what}: expected a BadFrame error, got {other:?}"),
            }
        }
        // the well-formed batch the hostile ones are cut from is applied
        let frames = [gather(owned + halo), delta(vec![lo, hi - 1], 4), Frame::Shutdown];
        assert_eq!(serve_frames(&frames).0.expect("in range"), ServeOutcome::Shutdown);
    }
}
