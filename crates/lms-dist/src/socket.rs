//! The socket layer: rank workers served over Unix-domain and TCP
//! stream sockets — the multi-node shape of [`ProcessTransport`].
//!
//! Everything above the byte stream is shared with the pipe substrate:
//! the same `lms_part::wire` frames (length-prefixed + CRC32c, exact
//! f64-bit payloads), the same event-driven coordinator loop, the same
//! `poll(2)` bounds and checkpoint/restart recovery. This module owns
//! only what a socket adds on top:
//!
//! * **Addressing** — [`SocketSpec`] parses/prints the two address forms
//!   (`tcp:host:port`, `unix:/path`), with helpers for an ephemeral TCP
//!   loopback port and a per-process temp Unix path.
//! * **Supervised connection establishment** — [`connect_with_retry`]
//!   dials with bounded retry and exponential backoff plus deterministic
//!   jitter ([`RetryPolicy`]); [`Listener`] accepts under a `poll(2)`
//!   deadline without ever blocking on an aborted connection. Both ends
//!   of the handshake surface as typed failures
//!   ([`DistError::ConnRefused`]) instead of hangs.
//! * **Rank identification** — a connecting worker's first frame is an
//!   identifying `Hello` carrying its rank id, so accept order never
//!   matters: the coordinator parks out-of-order connections and binds
//!   each stream to its rank.
//! * **Standalone workers** — [`serve_standalone`] serves one rank from
//!   the scoring view the worker built from the shared problem
//!   parameters (MPI input-deck style: the same mesh generation gives the
//!   same vertex count and element table): it connects, receives its
//!   block in the coordinator's `Block` frame like a forked rank, and
//!   serves — the `lms-tool dist-worker` entry point, so ranks can live
//!   on other hosts.
//!
//! Streams are converted to [`crate::sys::Fd`] descriptors once
//! established, so the entire coordinator stack (frame reassembly,
//! poll-bounded waits, EINTR/EAGAIN retry loops) is byte-for-byte the
//! pipe code path — which is what lets the cross-transport oracle demand
//! bit-identical coordinates *and* reports across {pipes, unix,
//! tcp-loopback}.
//!
//! [`ProcessTransport`]: crate::ProcessTransport
//! [`DistError::ConnRefused`]: crate::DistError::ConnRefused

use crate::sys::{self, Fd};
use lms_part::wire::{Frame, WireError, WIRE_VERSION};
use lms_smooth::domain::{DomainConfig, DomainPoint, ScoringDomain};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, IntoRawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A socket address a rank group listens on or dials: `tcp:host:port` or
/// `unix:/path`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SocketSpec {
    /// A TCP endpoint, `host:port` (port 0 binds ephemeral; the bound
    /// [`Listener::target`] reports the resolved port).
    Tcp(String),
    /// A Unix-domain socket path (unlinked when the listener drops).
    Unix(PathBuf),
}

impl SocketSpec {
    /// Parse an address string: `tcp:host:port`, `unix:/path`, or a bare
    /// `host:port` (treated as TCP).
    pub fn parse(s: &str) -> Result<SocketSpec, String> {
        if let Some(addr) = s.strip_prefix("tcp:") {
            if addr.rsplit_once(':').is_none() {
                return Err(format!("tcp address needs host:port, got {addr:?}"));
            }
            Ok(SocketSpec::Tcp(addr.to_string()))
        } else if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("unix address needs a path".to_string());
            }
            Ok(SocketSpec::Unix(PathBuf::from(path)))
        } else if s.rsplit_once(':').is_some() && !s.contains('/') {
            Ok(SocketSpec::Tcp(s.to_string()))
        } else {
            Err(format!("unrecognised address {s:?} (want tcp:host:port or unix:/path)"))
        }
    }

    /// An ephemeral TCP loopback endpoint (`127.0.0.1:0`): bind resolves
    /// the port.
    pub fn tcp_loopback() -> SocketSpec {
        SocketSpec::Tcp("127.0.0.1:0".to_string())
    }

    /// A fresh Unix socket path under the temp dir, unique per process
    /// and call (coordinator pid + counter).
    pub fn temp_unix() -> SocketSpec {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let mut path = std::env::temp_dir();
        path.push(format!("lms-dist-{}-{}.sock", sys::getpid(), n));
        SocketSpec::Unix(path)
    }
}

impl std::fmt::Display for SocketSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SocketSpec::Tcp(addr) => write!(f, "tcp:{addr}"),
            SocketSpec::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// Supervision knobs of the socket transport's connection layer.
#[derive(Debug, Clone)]
pub struct Supervisor {
    /// Bounded connect retries a dialling worker makes before giving up.
    pub connect_attempts: u32,
    /// Backoff base delay: retry `n` waits about `base << n` ms…
    pub connect_base_ms: u64,
    /// …capped here (with deterministic jitter in `[cap/2, cap]`).
    pub connect_max_ms: u64,
    /// Coordinator-side bound on waiting for a rank to connect and
    /// identify itself; expiry surfaces as
    /// [`DistError::ConnRefused`](crate::DistError::ConnRefused).
    pub accept_timeout_ms: u64,
}

impl Default for Supervisor {
    fn default() -> Self {
        Supervisor {
            connect_attempts: 12,
            connect_base_ms: 2,
            connect_max_ms: 250,
            accept_timeout_ms: 5_000,
        }
    }
}

impl Supervisor {
    /// The dial-side retry policy for `rank` (jitter seeded by the rank
    /// id so a simultaneous connect storm from k spawned workers
    /// de-synchronises deterministically).
    pub fn retry_policy(&self, rank: u32) -> RetryPolicy {
        RetryPolicy {
            attempts: self.connect_attempts,
            base_ms: self.connect_base_ms,
            max_ms: self.connect_max_ms,
            seed: 0x6c6d_735f_6469_7374 ^ u64::from(rank),
        }
    }
}

/// Bounded exponential backoff with deterministic jitter, used by
/// [`connect_with_retry`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total connect attempts (≥ 1).
    pub attempts: u32,
    /// Delay cap doubling base, in ms.
    pub base_ms: u64,
    /// Delay cap ceiling, in ms.
    pub max_ms: u64,
    /// Jitter seed — same seed, same delays (reproducible chaos runs).
    pub seed: u64,
}

impl RetryPolicy {
    /// The backoff delay after failed attempt number `attempt` (0-based):
    /// jittered into `[cap/2, cap]` where `cap = min(base << attempt,
    /// max)`. Deterministic in `(seed, attempt)`.
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        let cap = self.base_ms.saturating_mul(1u64 << attempt.min(16)).clamp(1, self.max_ms.max(1));
        let mut s = (self.seed ^ u64::from(attempt + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1;
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let lo = cap / 2;
        lo + s % (cap - lo + 1)
    }
}

fn split_tcp(stream: TcpStream) -> io::Result<(Fd, Fd)> {
    // small control frames dominate the protocol: never Nagle-delay them
    stream.set_nodelay(true)?;
    let writer = stream.try_clone()?;
    Ok((Fd::from_raw(stream.into_raw_fd()), Fd::from_raw(writer.into_raw_fd())))
}

fn split_unix(stream: UnixStream) -> io::Result<(Fd, Fd)> {
    let writer = stream.try_clone()?;
    Ok((Fd::from_raw(stream.into_raw_fd()), Fd::from_raw(writer.into_raw_fd())))
}

fn connect_once(spec: &SocketSpec) -> io::Result<(Fd, Fd)> {
    match spec {
        SocketSpec::Tcp(addr) => split_tcp(TcpStream::connect(addr.as_str())?),
        SocketSpec::Unix(path) => split_unix(UnixStream::connect(path)?),
    }
}

/// Dial `spec` under `policy`: bounded attempts with exponential-backoff
/// jittered sleeps between them, returning the stream as `(read end,
/// write end)` descriptors. The final error is the last connect failure.
pub fn connect_with_retry(spec: &SocketSpec, policy: &RetryPolicy) -> io::Result<(Fd, Fd)> {
    let mut last: Option<io::Error> = None;
    for attempt in 0..policy.attempts.max(1) {
        if attempt > 0 {
            std::thread::sleep(std::time::Duration::from_millis(policy.delay_ms(attempt - 1)));
        }
        match connect_once(spec) {
            Ok(fds) => return Ok(fds),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| io::Error::other("connect attempted zero times")))
}

enum ListenerKind {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

/// A bound, non-blocking rank listener. Accepts are `poll(2)`-bounded —
/// a connection aborted between poll and accept, or a worker that never
/// dials, can only cost the deadline, never a hang. Dropping a Unix
/// listener unlinks its socket path.
pub struct Listener {
    kind: ListenerKind,
    target: SocketSpec,
}

impl Listener {
    /// Bind `spec`. TCP port 0 resolves to an ephemeral port (see
    /// [`target`](Self::target)); a stale Unix socket file is replaced.
    pub fn bind(spec: &SocketSpec) -> io::Result<Listener> {
        match spec {
            SocketSpec::Tcp(addr) => {
                let listener = TcpListener::bind(addr.as_str())?;
                listener.set_nonblocking(true)?;
                let target = SocketSpec::Tcp(listener.local_addr()?.to_string());
                Ok(Listener { kind: ListenerKind::Tcp(listener), target })
            }
            SocketSpec::Unix(path) => {
                // a stale socket file from a crashed coordinator would
                // make bind fail with AddrInUse; replace it
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                Ok(Listener {
                    kind: ListenerKind::Unix(listener, path.clone()),
                    target: SocketSpec::Unix(path.clone()),
                })
            }
        }
    }

    /// The resolved address workers should dial (ephemeral TCP ports
    /// filled in).
    pub fn target(&self) -> &SocketSpec {
        &self.target
    }

    /// The raw listening descriptor (what the accept loop polls).
    pub(crate) fn raw_fd(&self) -> i32 {
        match &self.kind {
            ListenerKind::Tcp(l) => l.as_raw_fd(),
            ListenerKind::Unix(l, _) => l.as_raw_fd(),
        }
    }

    /// Accept one connection within `timeout_ms`, returning `(read end,
    /// write end)`. Never blocks past the deadline: the listener stays
    /// non-blocking and the wait happens in `poll(2)`.
    pub(crate) fn accept_stream(&self, timeout_ms: u64) -> io::Result<(Fd, Fd)> {
        let deadline = lms_trace::now_ns().saturating_add(timeout_ms.saturating_mul(1_000_000));
        loop {
            let accepted = match &self.kind {
                ListenerKind::Tcp(l) => l.accept().map(|(s, _)| split_tcp(s)),
                ListenerKind::Unix(l, _) => l.accept().map(|(s, _)| split_unix(s)),
            };
            match accepted {
                Ok(fds) => return fds,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::Interrupted
                            | io::ErrorKind::ConnectionAborted
                    ) =>
                {
                    let now = lms_trace::now_ns();
                    if now >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("no worker connected within {timeout_ms}ms"),
                        ));
                    }
                    let wait_ms = (((deadline - now) / 1_000_000) + 1).min(50) as i32;
                    sys::wait_readable(self.raw_fd(), wait_ms)?;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let ListenerKind::Unix(_, path) = &self.kind {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Connect to a coordinator at `spec` and serve rank `rank` until it
/// sends `Shutdown`. `dom` and `cfg` are the scoring view and domain
/// configuration of the coordinator's mesh and parameters, which a
/// standalone worker rebuilds from the shared problem parameters (MPI
/// input-deck style); the rank's block arrives over the connection, in
/// the `Block` frame every rank gets, so the worker builds no engine.
pub fn serve_standalone<const C: usize, D: ScoringDomain<C>>(
    dom: &D,
    cfg: &DomainConfig,
    rank: u32,
    spec: &SocketSpec,
    supervisor: &Supervisor,
) -> io::Result<()> {
    let (input, mut output) = connect_with_retry(spec, &supervisor.retry_policy(rank))?;
    // identifying Hello first: binds this stream to its rank id on the
    // coordinator side, whatever order the workers dialled in
    Frame::Hello { version: WIRE_VERSION, dim: D::Point::DIM as u8, rank, profile: false }
        .write_to(&mut output)?;
    match crate::worker::serve(dom, cfg, rank, input, output, &Default::default()) {
        Ok(_) => Ok(()),
        Err(WireError::Io(e)) => Err(e),
        Err(e) => Err(io::Error::other(e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn spec_parsing_roundtrips_and_rejects_garbage() {
        let tcp = SocketSpec::parse("tcp:127.0.0.1:7000").unwrap();
        assert_eq!(tcp, SocketSpec::Tcp("127.0.0.1:7000".into()));
        assert_eq!(tcp.to_string(), "tcp:127.0.0.1:7000");
        let bare = SocketSpec::parse("10.0.0.2:9001").unwrap();
        assert_eq!(bare, SocketSpec::Tcp("10.0.0.2:9001".into()));
        let unix = SocketSpec::parse("unix:/tmp/lms.sock").unwrap();
        assert_eq!(unix, SocketSpec::Unix(PathBuf::from("/tmp/lms.sock")));
        assert_eq!(unix.to_string(), "unix:/tmp/lms.sock");
        assert_eq!(SocketSpec::parse(unix.to_string().as_str()).unwrap(), unix);
        assert!(SocketSpec::parse("tcp:noport").is_err());
        assert!(SocketSpec::parse("unix:").is_err());
        assert!(SocketSpec::parse("/just/a/path").is_err());
        assert!(SocketSpec::parse("gibberish").is_err());
    }

    #[test]
    fn temp_unix_paths_are_unique() {
        let a = SocketSpec::temp_unix();
        let b = SocketSpec::temp_unix();
        assert_ne!(a, b);
    }

    #[test]
    fn backoff_delays_are_deterministic_jittered_and_capped() {
        let policy = RetryPolicy { attempts: 12, base_ms: 2, max_ms: 200, seed: 99 };
        for attempt in 0..12 {
            let d = policy.delay_ms(attempt);
            assert_eq!(d, policy.delay_ms(attempt), "deterministic per (seed, attempt)");
            let cap = (2u64 << attempt.min(16)).min(200);
            assert!(
                d >= cap / 2 && d <= cap,
                "attempt {attempt}: {d} outside [{}, {cap}]",
                cap / 2
            );
        }
        // the cap actually grows then saturates
        assert!(policy.delay_ms(0) <= 2);
        assert!(policy.delay_ms(11) >= 100);
        // different seeds jitter differently somewhere in the window
        let other = RetryPolicy { seed: 7, ..policy };
        assert!(
            (0..12).any(|a| policy.delay_ms(a) != other.delay_ms(a)),
            "jitter should depend on the seed"
        );
    }

    #[test]
    fn connect_with_retry_reaches_a_late_listener() {
        // bind ephemeral, extract the target, then drop the listener and
        // rebind it only after a delay: the first attempts get refused
        // and the backoff retries must land once it exists
        let first = Listener::bind(&SocketSpec::tcp_loopback()).unwrap();
        let spec = first.target().clone();
        drop(first);
        let spec_for_server = spec.clone();
        let server = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(60));
            let listener = Listener::bind(&spec_for_server).unwrap();
            let (mut r, _w) = listener.accept_stream(2_000).unwrap();
            let mut buf = [0u8; 2];
            std::io::Read::read_exact(&mut r, &mut buf).unwrap();
            buf
        });
        let policy = RetryPolicy { attempts: 40, base_ms: 5, max_ms: 40, seed: 3 };
        let (_r, mut w) = connect_with_retry(&spec, &policy).unwrap();
        w.write_all(b"ok").unwrap();
        assert_eq!(&server.join().unwrap(), b"ok");
    }

    #[test]
    fn connect_with_retry_gives_up_after_bounded_attempts() {
        // an ephemeral port bound then released: nothing listens there
        let gone = Listener::bind(&SocketSpec::tcp_loopback()).unwrap();
        let spec = gone.target().clone();
        drop(gone);
        let policy = RetryPolicy { attempts: 3, base_ms: 1, max_ms: 2, seed: 1 };
        let err = connect_with_retry(&spec, &policy).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn accept_times_out_instead_of_blocking() {
        let listener = Listener::bind(&SocketSpec::temp_unix()).unwrap();
        let t0 = std::time::Instant::now();
        let err = listener.accept_stream(60).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(t0.elapsed().as_millis() >= 55, "must actually wait the deadline");
    }

    #[test]
    fn unix_listener_unlinks_its_path_on_drop() {
        let spec = SocketSpec::temp_unix();
        let SocketSpec::Unix(path) = spec.clone() else { unreachable!() };
        let listener = Listener::bind(&spec).unwrap();
        assert!(path.exists());
        drop(listener);
        assert!(!path.exists());
    }

    #[test]
    fn socket_streams_carry_wire_frames_exactly() {
        for spec in [SocketSpec::tcp_loopback(), SocketSpec::temp_unix()] {
            let listener = Listener::bind(&spec).unwrap();
            let target = listener.target().clone();
            let client = std::thread::spawn(move || {
                let policy = RetryPolicy { attempts: 10, base_ms: 2, max_ms: 20, seed: 5 };
                let (mut r, mut w) = connect_with_retry(&target, &policy).unwrap();
                Frame::RoundDone.write_to(&mut w).unwrap();
                Frame::read_from(&mut r).unwrap()
            });
            let (mut r, mut w) = listener.accept_stream(2_000).unwrap();
            assert!(matches!(Frame::read_from(&mut r).unwrap(), Frame::RoundDone));
            let coords = vec![0.25f64, -1.5, f64::MIN_POSITIVE];
            Frame::HaloDelta { part: 3, slots: vec![7, 9], coords: coords.clone() }
                .write_to(&mut w)
                .unwrap();
            match client.join().unwrap() {
                Frame::HaloDelta { part, slots, coords: got } => {
                    assert_eq!(part, 3);
                    assert_eq!(slots, vec![7, 9]);
                    assert_eq!(got, coords, "f64 payloads must cross the socket exactly");
                }
                f => panic!("unexpected frame {f:?}"),
            }
        }
    }
}
