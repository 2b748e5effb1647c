//! The rank worker: the frame-driven loop a rank process runs for its
//! whole life.
//!
//! A worker owns exactly one [`ResidentRank`] — its part's resident block
//! state, inherited copy-on-write from the coordinator image at fork
//! time, or rebuilt deterministically from the shared problem parameters
//! when running standalone over a socket. It serves the coordinator's
//! frames in stream order: the FIFO byte stream (pipe or socket) is the
//! synchronisation, so a `ColorStep` can never overtake the previous
//! round's forwarded `HaloDelta` frames. Every frame handler is one
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

use crate::codec::{flat_to_points, points_to_flat};
use crate::fault::{FaultPoint, WorkerFaults};
use lms_part::wire::{Frame, WireError, WIRE_VERSION};
use lms_smooth::domain::{DomainPoint, ScoringDomain};
use lms_smooth::resident::ResidentRank;
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

/// Serve the coordinator until `Shutdown` (or a dead stream), then leave
/// the process via `_exit` — never by returning into the forked parent
/// image. Exit codes: 0 clean shutdown, 101 panic, 102 stream error,
/// [`crate::fault::INJECTED_KILL_EXIT`] injected kill. A scripted
/// connection drop closes the streams and idles the process instead of
/// exiting — the coordinator's recovery kills it.
pub(crate) fn run_worker<const C: usize, D, R, W>(
    mut rank: ResidentRank<'_, C, D>,
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
        serve(&mut rank, input, output, &faults)
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
        if self.faults.slow_frame_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(self.faults.slow_frame_ms));
        }
        let idx = self.sent;
        self.sent += 1;
        if let Some(byte) = self.faults.corrupt_byte(idx) {
            let mut bytes = Vec::new();
            frame.write_to(&mut bytes)?;
            // target the checksum+payload region (offset ≥ 4): keeping
            // the length prefix intact keeps the stream re-framable, so
            // the coordinator diagnoses BadChecksum deterministically
            // instead of a timeout
            let i = 4 + byte % (bytes.len() - 4);
            bytes[i] ^= 0x5a;
            self.write_bytes(&bytes)
        } else if self.faults.short_write {
            let mut bytes = Vec::new();
            frame.write_to(&mut bytes)?;
            self.write_bytes(&bytes)
        } else {
            frame.write_to(&mut self.inner)
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

pub(crate) fn serve<const C: usize, D, R, W>(
    rank: &mut ResidentRank<'_, C, D>,
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

    match Frame::read_from(&mut rd)? {
        Frame::Hello { version, dim, rank: id, profile } => {
            assert_eq!(version, WIRE_VERSION, "wire version mismatch");
            assert_eq!(dim as usize, <D::Point as DomainPoint>::DIM, "dimension mismatch");
            assert_eq!(id, rank.part(), "rank id mismatch");
            // profiled runs time every sweep phase rank-side and ship the
            // totals back as deltas in each Report frame
            rank.set_timing(profile);
        }
        f => panic!("expected Hello handshake, got {f:?}"),
    }

    // worker-local iteration counter: the number of Interior frames
    // served so far — the `iter` coordinate of fault points
    let mut iter: u32 = 0;
    // sparse-checkpoint baseline: the owned coordinates as the
    // coordinator last saw them — reset by every Gather load, advanced
    // by every ScatterDelta reply. Kept as flat bits so the diff is the
    // same bitwise comparison the cross-transport oracle demands.
    let mut ckpt_base: Vec<f64> = Vec::new();
    let outcome = loop {
        match Frame::read_from(&mut rd)? {
            Frame::Gather { coords, scores } => {
                let points = flat_to_points::<D::Point>(&coords);
                rank.load_block(&points, &scores);
                ckpt_base = points_to_flat(rank.owned_coords());
            }
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
                for i in 0..rank.outbox().len() {
                    let batch = &rank.outbox()[i];
                    if batch.slots.is_empty() {
                        continue;
                    }
                    wr.put(&Frame::HaloDelta {
                        part: batch.dst,
                        slots: batch.slots.clone(),
                        coords: points_to_flat(&batch.coords),
                    })?;
                }
                wr.put(&Frame::RoundDone)?;
                wr.flush()?;
            }
            Frame::HaloDelta { slots, coords, .. } => {
                let points = flat_to_points::<D::Point>(&coords);
                rank.stash_deltas(&slots, &points);
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
                wr.put(&Frame::Scatter { coords: points_to_flat(rank.owned_coords()) })?;
                wr.flush()?;
            }
            Frame::ScatterDeltaRequest => {
                let flat = points_to_flat(rank.owned_coords());
                let dim = <D::Point as DomainPoint>::DIM;
                assert_eq!(flat.len(), ckpt_base.len(), "sparse scatter before any gather");
                let mut slots: Vec<u32> = Vec::new();
                let mut coords: Vec<f64> = Vec::new();
                for s in 0..flat.len() / dim {
                    let cur = &flat[s * dim..(s + 1) * dim];
                    let base = &mut ckpt_base[s * dim..(s + 1) * dim];
                    if cur.iter().zip(base.iter()).any(|(a, b)| a.to_bits() != b.to_bits()) {
                        slots.push(s as u32);
                        coords.extend_from_slice(cur);
                        base.copy_from_slice(cur);
                    }
                }
                wr.put(&Frame::ScatterDelta { slots, coords })?;
                wr.flush()?;
            }
            Frame::Shutdown => break ServeOutcome::Shutdown,
            f => panic!("coordinator sent unexpected frame {f:?}"),
        }
    };
    // rd/wr drop here, closing both stream ends before the caller parks
    Ok(outcome)
}
