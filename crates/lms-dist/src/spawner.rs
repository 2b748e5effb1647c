//! The rank spawner: the lean process every rank is forked from.
//!
//! A forked child starts with every page its parent has resident. Forked
//! from the coordinator after construction, a rank would start with the
//! coordinator's adjacency leftovers, partition, schedule and *all* the
//! blocks, though it runs one. So a [`DistResidentEngineOn`] forks one
//! spawner process at the very top of its constructor, before any of
//! that exists, and every rank of every run — recovery replacements
//! included — is forked from the spawner instead. The spawner keeps the
//! parameters and the mesh's element table (a rank builds its scoring
//! view from them); a rank gets its block over its channel, in a
//! `Block` frame (see `lms_smooth::resident::ResidentBlock::write_frame`).
//!
//! The spawner serves one request at a time on a `SOCK_SEQPACKET` control
//! socket: "fork rank `p`", with either the rank's two pipe ends attached
//! (`SCM_RIGHTS`) or the address it should dial, plus its fault script.
//! It forks the rank with `clone(CLONE_PARENT | SIGCHLD)`
//! ([`sys::clone_parent`]), so the rank is the **coordinator's** child:
//! the coordinator's `waitpid` diagnosis, `kill`, reaping and
//! `RUSAGE_CHILDREN` accounting see ranks exactly as before. It closes
//! its copies of the passed descriptors, answers with the rank's pid,
//! and waits for the next request.
//!
//! Lifetime: the spawner closes every inherited descriptor but its
//! control socket, and exits when that socket reaches end of stream (the
//! coordinator is gone). It sits behind an `Arc` in the engine; when the
//! last engine clone drops, [`Spawner`]'s `Drop` kills and reaps it
//! before returning. A spawner that cannot be forked leaves the engine
//! without one, and its runs degrade to the in-process engine, as a
//! failed rank fork does.
//!
//! [`DistResidentEngineOn`]: crate::DistResidentEngineOn

use crate::fault::WorkerFaults;
use crate::socket::{connect_with_retry, RetryPolicy, SocketSpec};
use crate::sys::{self, Fd};
use crate::worker;
use lms_part::wire::{Frame, WIRE_VERSION};
use lms_smooth::domain::DomainPoint;
use lms_smooth::SmoothMesh;
use std::io;
use std::sync::Mutex;

/// Largest request the spawner reads (a fault script and a socket path
/// fit many times over).
const REQUEST_MAX: usize = 4096;

/// How long the coordinator waits for the spawner's answer to one
/// request; past it the spawner is killed and the launch fails.
const REPLY_TIMEOUT_MS: i32 = 30_000;

/// The coordinator's handle on a running spawner process: its pid and
/// the coordinator end of its control socket. Dropping it kills and
/// reaps the spawner.
#[derive(Debug)]
pub struct Spawner {
    pid: i32,
    /// One request and its answer at a time, whichever engine clone asks.
    ctrl: Mutex<Fd>,
    /// Coordinate dimension and element corner count of the mesh the
    /// spawner was forked for.
    dim: usize,
    corners: usize,
}

/// How a launched rank reaches its coordinator.
pub(crate) enum Launch<'a> {
    /// Over two pipes: the ends the rank reads and writes.
    Pipes { input: &'a Fd, output: &'a Fd },
    /// By dialling `target` under `policy`.
    Dial { target: &'a SocketSpec, policy: RetryPolicy },
}

/// A decoded request, as the spawner holds it.
enum Request {
    Pipes { input: Fd, output: Fd },
    Dial { target: SocketSpec, policy: RetryPolicy },
}

impl Spawner {
    /// Fork the spawner for runs over `mesh` under `params`. Call it
    /// before building anything the ranks do not need: the spawner, and
    /// every rank forked from it, starts with the pages resident now.
    pub fn start<const C: usize, const D: usize, M: SmoothMesh<C, D>>(
        mesh: &M,
        params: &M::Params,
    ) -> io::Result<Spawner> {
        let (pid, ctrl) = fork_spawner::<C, D, M>(mesh, params)?;
        Ok(Spawner { pid, ctrl: Mutex::new(ctrl), dim: M::Point::DIM, corners: C })
    }

    /// The spawner's process id.
    pub fn pid(&self) -> i32 {
        self.pid
    }

    /// Whether the spawner forks ranks for meshes of coordinate dimension
    /// `dim` with `corners`-corner elements.
    pub(crate) fn serves(&self, dim: usize, corners: usize) -> bool {
        (self.dim, self.corners) == (dim, corners)
    }

    /// Have the spawner fork rank `rank`, reaching the coordinator as
    /// `how` says, under `faults`; returns the rank's pid. The rank is the
    /// calling process's child.
    pub(crate) fn launch(
        &self,
        rank: u32,
        how: Launch<'_>,
        faults: &WorkerFaults,
    ) -> io::Result<i32> {
        let mut request = rank.to_le_bytes().to_vec();
        let fds = match &how {
            Launch::Pipes { input, output } => {
                request.push(0);
                faults.encode(&mut request);
                vec![input.raw(), output.raw()]
            }
            Launch::Dial { target, policy } => {
                request.push(1);
                faults.encode(&mut request);
                request.extend_from_slice(&policy.attempts.to_le_bytes());
                for word in [policy.base_ms, policy.max_ms, policy.seed] {
                    request.extend_from_slice(&word.to_le_bytes());
                }
                request.extend_from_slice(target.to_string().as_bytes());
                Vec::new()
            }
        };
        if request.len() > REQUEST_MAX {
            return Err(io::Error::other("spawner request too large"));
        }
        // a launch that panicked mid-request may have left its answer
        // unread, which would answer this request: do not reuse the socket
        let ctrl = self.ctrl.lock().expect("an earlier launch panicked mid-request");
        sys::send_with_fds(&ctrl, &request, &fds)?;
        if !sys::wait_readable(ctrl.raw(), REPLY_TIMEOUT_MS)? {
            // a late answer would be taken for the next request's: put the
            // spawner into a definite state instead
            let _ = sys::kill_pid(self.pid);
            return Err(io::Error::new(io::ErrorKind::TimedOut, "spawner did not answer"));
        }
        let mut reply = [0u8; 8];
        match sys::recv_with_fds(&ctrl, &mut reply)? {
            Some((8, fds)) if fds.is_empty() => {}
            _ => return Err(io::Error::new(io::ErrorKind::BrokenPipe, "spawner closed")),
        }
        match i64::from_le_bytes(reply) {
            pid if pid > 0 => Ok(pid as i32),
            errno => Err(io::Error::from_raw_os_error(-errno as i32)),
        }
    }
}

impl Drop for Spawner {
    fn drop(&mut self) {
        let _ = sys::kill_pid(self.pid);
        let _ = sys::wait_pid(self.pid);
    }
}

/// Fork the spawner process; returns its pid and the coordinator end of
/// its control socket. The child never returns.
fn fork_spawner<const C: usize, const D: usize, M: SmoothMesh<C, D>>(
    mesh: &M,
    params: &M::Params,
) -> io::Result<(i32, Fd)> {
    let (ours, theirs) = sys::seqpacket_pair()?;
    // SAFETY: the child takes no lock of the parent image: it closes
    // inherited descriptors, then only reads requests and forks ranks,
    // single-threaded, and leaves via `_exit` (see `sys`'s module docs).
    let pid = unsafe { sys::fork() }?;
    if pid == 0 {
        // the coordinator's channels, listeners, other engines' pipes and
        // this socket's other end: none of it is the spawner's
        if sys::close_all_but(&mut [theirs.raw()]).is_err() {
            sys::exit_now(102);
        }
        // the coordinator's freed heap is about to be reused by the
        // construction: unshare it now, so those writes copy nothing and
        // no rank inherits it
        sys::release_free_heap();
        // `mesh` and `params` stay valid here: this frame is never left
        serve_requests::<C, D, M>(&theirs, mesh.coords().len(), mesh.elements(), params);
    }
    Ok((pid, ours))
}

/// The spawner's loop: one request, one rank, one answer, until the
/// control socket reaches end of stream.
fn serve_requests<const C: usize, const D: usize, M: SmoothMesh<C, D>>(
    ctrl: &Fd,
    num_vertices: usize,
    elements: &[[u32; C]],
    params: &M::Params,
) -> ! {
    let mut buf = vec![0u8; REQUEST_MAX];
    loop {
        let (n, fds) = match sys::recv_with_fds(ctrl, &mut buf) {
            Ok(Some(message)) => message,
            Ok(None) => sys::exit_now(0),
            Err(_) => sys::exit_now(102),
        };
        let reply: i64 = match parse_request(&buf[..n], fds) {
            // SAFETY: the spawner is single-threaded (forked from the
            // coordinator and never spawning a thread); the rank leaves
            // via `_exit` inside `run_rank`.
            Some((rank, faults, link)) => match unsafe { sys::clone_parent() } {
                Ok(0) => run_rank::<C, D, M>(rank, faults, link, num_vertices, elements, params),
                Ok(pid) => i64::from(pid),
                Err(e) => -i64::from(e.raw_os_error().unwrap_or(5)),
            },
            None => -22, // EINVAL
        };
        // the request's pipe ends were dropped with it: the spawner keeps
        // no rank's channel open
        if sys::send_with_fds(ctrl, &reply.to_le_bytes(), &[]).is_err() {
            sys::exit_now(102);
        }
    }
}

/// Decode one request; `None` when it is malformed.
fn parse_request(bytes: &[u8], fds: Vec<Fd>) -> Option<(u32, WorkerFaults, Request)> {
    let rank = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?);
    let kind = *bytes.get(4)?;
    let (faults, rest) = WorkerFaults::decode(bytes.get(5..)?)?;
    let link = match kind {
        0 => {
            let [input, output]: [Fd; 2] = fds.try_into().ok()?;
            Request::Pipes { input, output }
        }
        1 if fds.is_empty() => {
            let word = |at: usize| Some(u64::from_le_bytes(rest.get(at..at + 8)?.try_into().ok()?));
            let attempts = u32::from_le_bytes(rest.get(..4)?.try_into().ok()?);
            let policy =
                RetryPolicy { attempts, base_ms: word(4)?, max_ms: word(12)?, seed: word(20)? };
            let target = SocketSpec::parse(std::str::from_utf8(rest.get(28..)?).ok()?).ok()?;
            Request::Dial { target, policy }
        }
        _ => return None,
    };
    Some((rank, faults, link))
}

/// A freshly forked rank: shed every descriptor but its own channel,
/// build the scoring view, reach the coordinator and serve it.
fn run_rank<const C: usize, const D: usize, M: SmoothMesh<C, D>>(
    rank: u32,
    faults: WorkerFaults,
    link: Request,
    num_vertices: usize,
    elements: &[[u32; C]],
    params: &M::Params,
) -> ! {
    let mut keep = match &link {
        Request::Pipes { input, output } => vec![input.raw(), output.raw()],
        Request::Dial { .. } => Vec::new(),
    };
    // the spawner's control socket and anything else it held
    if let Err(e) = sys::close_all_but(&mut keep) {
        eprintln!("lms-dist rank worker: cannot close inherited descriptors: {e}");
        sys::exit_now(102);
    }
    let dom = M::scoring(num_vertices, elements, params);
    let cfg = M::domain_config(params);
    match link {
        Request::Pipes { input, output } => {
            worker::run_worker(&dom, &cfg, rank, input, output, faults)
        }
        Request::Dial { target, policy } => {
            if faults.refuse_connect {
                // the refused-connect regime: leave before ever dialling,
                // so the coordinator's accept times out into ConnRefused
                sys::exit_now(crate::fault::REFUSED_CONNECT_EXIT);
            }
            let (input, mut output) = match connect_with_retry(&target, &policy) {
                Ok(fds) => fds,
                Err(e) => {
                    eprintln!("lms-dist rank worker: cannot dial coordinator at {target}: {e}");
                    sys::exit_now(102);
                }
            };
            // identifying Hello: binds this stream to rank `rank` whatever
            // order the workers get accepted in
            let dim = M::Point::DIM as u8;
            let hello = Frame::Hello { version: WIRE_VERSION, dim, rank, profile: false };
            if hello.write_to(&mut output).is_err() {
                sys::exit_now(102);
            }
            worker::run_worker(&dom, &cfg, rank, input, output, faults)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DistResidentEngine;
    use lms_part::PartitionMethod;
    use lms_smooth::SmoothParams;

    /// No spawner outlives its engine: clones share it, and the drop of the
    /// last one has reaped it by the time it returns.
    #[test]
    fn the_last_engine_clone_to_drop_kills_and_reaps_the_spawner() {
        let mesh = lms_mesh::generators::perturbed_grid(8, 8, 0.3, 2);
        let params = SmoothParams::paper().with_max_iters(2);
        let engine = DistResidentEngine::by_method(&mesh, params, 2, PartitionMethod::Rcb);
        let pid = engine.spawner().expect("spawner forked").pid();
        let clone = engine.clone();
        assert_eq!(clone.spawner().map(Spawner::pid), Some(pid), "clones share one spawner");
        drop(engine);
        assert!(sys::pid_exists(pid), "a live clone keeps the spawner");
        let mut work = mesh.clone();
        clone.smooth_ft(&mut work, &crate::FtOptions::default()).expect("run after the drop");
        drop(clone);
        assert!(!sys::pid_exists(pid), "the spawner outlived its last engine");
    }

    /// A spawner whose control socket reaches end of stream exits on its
    /// own, cleanly — what ends it when its coordinator dies.
    #[test]
    fn a_spawner_whose_control_socket_closes_exits() {
        let mesh = lms_mesh::generators::perturbed_grid(6, 6, 0.3, 1);
        let (pid, ctrl) = fork_spawner(&mesh, &SmoothParams::paper()).expect("fork");
        drop(ctrl);
        let mut status = None;
        for _ in 0..1000 {
            status = sys::try_wait_pid(pid).expect("the spawner is our child");
            if status.is_some() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let status = sys::WaitStatus(status.expect("spawner still running after EOF"));
        assert!(status.clean(), "spawner left with {status}");
    }

    /// A malformed request is refused with an error, and the spawner
    /// keeps serving.
    #[test]
    fn malformed_requests_are_refused() {
        let mesh = lms_mesh::generators::perturbed_grid(6, 6, 0.3, 1);
        let spawner = Spawner::start(&mesh, &SmoothParams::paper()).expect("spawner");
        {
            let ctrl = spawner.ctrl.lock().unwrap();
            // a pipe request without its two descriptors
            let mut request = 0u32.to_le_bytes().to_vec();
            request.push(0);
            WorkerFaults::default().encode(&mut request);
            sys::send_with_fds(&ctrl, &request, &[]).unwrap();
            let mut reply = [0u8; 8];
            let (n, _) = sys::recv_with_fds(&ctrl, &mut reply).unwrap().expect("an answer");
            assert_eq!((n, i64::from_le_bytes(reply)), (8, -22), "EINVAL");
        }
        let (child_in, _to_rank) = sys::pipe().unwrap();
        let (_from_rank, child_out) = sys::pipe().unwrap();
        let how = Launch::Pipes { input: &child_in, output: &child_out };
        let pid = spawner.launch(0, how, &WorkerFaults::default()).expect("still serving");
        // the rank is this process's child: it reaps it here (it dies on
        // the stream error once its channel's other ends close)
        drop((child_in, child_out, _to_rank, _from_rank));
        assert!(sys::wait_pid(pid).is_ok(), "a rank is its coordinator's child");
    }
}
