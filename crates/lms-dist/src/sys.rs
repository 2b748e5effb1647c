//! Minimal POSIX process/pipe/stream layer — just enough libc surface to
//! fork rank worker processes, stream wire frames between them (over
//! pipes or sockets), and detect failed ranks (`poll(2)` read timeouts,
//! `kill(2)`, non-blocking `waitpid`), declared directly against the C
//! library `std` already links (the build container has no crates
//! registry, so the `libc` crate is out of reach; these eleven symbols
//! are stable POSIX).
//!
//! Everything here is Linux-safe under a multithreaded parent: glibc
//! registers `pthread_atfork` handlers that make `malloc` usable in the
//! child, the child only ever runs the single-threaded rank worker loop
//! (no locks shared with parent threads are touched), and it leaves via
//! [`exit_now`] (`_exit(2)`), never by unwinding into the parent's
//! runtime.

use std::io::{self, Read, Write};

mod ffi {
    use core::ffi::c_void;

    /// `struct pollfd` from `poll(2)`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        pub fn fork() -> i32;
        pub fn pipe(fds: *mut i32) -> i32;
        pub fn read(fd: i32, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: i32) -> i32;
        pub fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
        pub fn kill(pid: i32, sig: i32) -> i32;
        // nfds_t is c_ulong on every Linux ABI this builds for
        pub fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
        pub fn _exit(code: i32) -> !;
        pub fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
        pub fn getpid() -> i32;
    }
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const WNOHANG: i32 = 1;
const SIGKILL: i32 = 9;
const F_GETFL: i32 = 3;
const F_SETFL: i32 = 4;
const O_NONBLOCK: i32 = 0o4000;

/// An owned file descriptor: closed on drop, readable and writable
/// through `std::io` traits (with EINTR retries), so `BufReader` /
/// `BufWriter` stack straight on top.
#[derive(Debug)]
pub struct Fd(i32);

impl Fd {
    /// The raw descriptor number.
    pub fn raw(&self) -> i32 {
        self.0
    }

    /// Adopt a raw descriptor (the caller transfers ownership — used by
    /// a forked child re-owning its pipe ends, whose original [`Fd`]
    /// values in the inherited image are never dropped because the child
    /// leaves via [`exit_now`]).
    pub fn from_raw(fd: i32) -> Self {
        Fd(fd)
    }
}

impl Drop for Fd {
    fn drop(&mut self) {
        // SAFETY: `close(2)` takes a plain integer; `self` owns the
        // descriptor, and drop runs once, so nothing else closes it.
        unsafe { ffi::close(self.0) };
    }
}

impl Read for Fd {
    /// `read(2)` with the stream retry loop: `EINTR` retries
    /// immediately, `EAGAIN`/`EWOULDBLOCK` (a descriptor someone left in
    /// non-blocking mode — sockets from a polled `accept`) parks in
    /// `poll(2)` until readable and retries. Short reads are surfaced as
    /// usual (`read_exact`/`BufReader` above this layer reassemble
    /// fragmented frames).
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            // SAFETY: `buf` is a live, writable slice, and `read(2)`
            // writes at most `buf.len()` bytes into it.
            let n = unsafe { ffi::read(self.0, buf.as_mut_ptr().cast(), buf.len()) };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            match err.kind() {
                io::ErrorKind::Interrupted => {}
                io::ErrorKind::WouldBlock => {
                    wait_readable(self.0, 100)?;
                }
                _ => return Err(err),
            }
        }
    }
}

impl Write for Fd {
    /// `write(2)` with the same retry loop as [`Read`]: `EINTR` retries,
    /// `EAGAIN` parks in `poll(2)` until writable. Partial writes are
    /// returned as-is — `write_all` (used by every frame serialiser)
    /// loops over them, which is what makes the framing layer
    /// short-write-safe on sockets.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        loop {
            // SAFETY: `buf` is a live slice, and `write(2)` reads at most
            // `buf.len()` bytes from it.
            let n = unsafe { ffi::write(self.0, buf.as_ptr().cast(), buf.len()) };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            match err.kind() {
                io::ErrorKind::Interrupted => {}
                io::ErrorKind::WouldBlock => {
                    wait_writable(self.0, 100)?;
                }
                _ => return Err(err),
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A unidirectional pipe: `(read end, write end)`.
pub fn pipe() -> io::Result<(Fd, Fd)> {
    let mut fds = [0i32; 2];
    // SAFETY: `fds` is a writable array of the two `int`s `pipe(2)` fills.
    if unsafe { ffi::pipe(fds.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((Fd(fds[0]), Fd(fds[1])))
}

/// Close a raw descriptor number directly — for a forked child shedding
/// copies of descriptors still *owned* (as [`Fd`] values) by the parent's
/// address-space image.
pub fn close_raw(fd: i32) {
    // SAFETY: `close(2)` takes a plain integer and touches no memory of
    // this process; a stale or unknown `fd` only makes it fail.
    unsafe { ffi::close(fd) };
}

/// `fork(2)`: `Ok(0)` in the child, `Ok(pid)` in the parent.
///
/// # Safety
/// The child must not touch locks or threads of the parent image and must
/// terminate via [`exit_now`]; see the module docs.
pub unsafe fn fork() -> io::Result<i32> {
    let pid = ffi::fork();
    if pid < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(pid)
    }
}

/// Block until `pid` exits; returns the raw wait status (0 on a clean
/// `_exit(0)`).
pub fn wait_pid(pid: i32) -> io::Result<i32> {
    let mut status = 0i32;
    loop {
        // SAFETY: `status` is a live, writable `int` for `waitpid(2)`.
        let r = unsafe { ffi::waitpid(pid, &mut status, 0) };
        if r == pid {
            return Ok(status);
        }
        if r < 0 {
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

/// Non-blocking reap (`waitpid` + `WNOHANG`): `Some(status)` if `pid`
/// has exited, `None` if it is still running.
pub fn try_wait_pid(pid: i32) -> io::Result<Option<i32>> {
    let mut status = 0i32;
    loop {
        // SAFETY: `status` is a live, writable `int` for `waitpid(2)`.
        let r = unsafe { ffi::waitpid(pid, &mut status, WNOHANG) };
        if r == pid {
            return Ok(Some(status));
        }
        if r == 0 {
            return Ok(None);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// `SIGKILL` a process — the coordinator's way of putting a stalled or
/// half-dead rank into a definite fail-stop state before respawning it.
pub fn kill_pid(pid: i32) -> io::Result<()> {
    // SAFETY: `kill(2)` takes two integers and touches no memory of this
    // process.
    if unsafe { ffi::kill(pid, SIGKILL) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Wait up to `timeout_ms` for `fd` to become readable (`poll(2)`).
/// Returns `true` when a read will not block (data, EOF, or error — the
/// follow-up `read` disambiguates), `false` on timeout. A negative
/// timeout blocks indefinitely (and then always returns `true`).
pub fn wait_readable(fd: i32, timeout_ms: i32) -> io::Result<bool> {
    let mut pfd = ffi::PollFd { fd, events: POLLIN, revents: 0 };
    loop {
        // SAFETY: `pfd` is one live, writable `struct pollfd`, and
        // `nfds` is 1.
        let r = unsafe { ffi::poll(&mut pfd, 1, timeout_ms) };
        if r > 0 {
            return Ok(true);
        }
        if r == 0 {
            return Ok(false);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Wait up to `timeout_ms` for `fd` to accept a write (`poll(2)` with
/// `POLLOUT`). Returns `true` when a write will not block, `false` on
/// timeout; negative timeout blocks indefinitely.
pub fn wait_writable(fd: i32, timeout_ms: i32) -> io::Result<bool> {
    let mut pfd = ffi::PollFd { fd, events: POLLOUT, revents: 0 };
    loop {
        // SAFETY: `pfd` is one live, writable `struct pollfd`, and
        // `nfds` is 1.
        let r = unsafe { ffi::poll(&mut pfd, 1, timeout_ms) };
        if r > 0 {
            return Ok(true);
        }
        if r == 0 {
            return Ok(false);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// One `poll(2)` over many descriptors at once — the multiplexer under
/// the overlap coordinator: instead of draining ranks one at a time
/// through per-rank bounded reads, the coordinator parks in a single
/// poll over *every* undrained rank fd and services whichever became
/// readable. Fills `ready[i] = true` when `fds[i]` will not block on
/// read (data, EOF, or error — the follow-up read disambiguates) and
/// returns how many are ready (`0` = timed out). Entries with a negative
/// fd are skipped (`poll(2)` ignores them natively), which is how
/// already-drained ranks drop out of the wait without reshuffling the
/// array. `EINTR` retries; a negative timeout blocks indefinitely.
pub fn poll_readables(fds: &[i32], timeout_ms: i32, ready: &mut Vec<bool>) -> io::Result<usize> {
    ready.clear();
    ready.resize(fds.len(), false);
    let mut pfds: Vec<ffi::PollFd> =
        fds.iter().map(|&fd| ffi::PollFd { fd, events: POLLIN, revents: 0 }).collect();
    loop {
        // SAFETY: `pfds` is a live, writable array of `pfds.len()`
        // `struct pollfd`s, the count `poll(2)` is given.
        let r = unsafe { ffi::poll(pfds.as_mut_ptr(), pfds.len() as u64, timeout_ms) };
        if r >= 0 {
            let mut n = 0;
            for (slot, pfd) in ready.iter_mut().zip(&pfds) {
                if pfd.revents != 0 {
                    *slot = true;
                    n += 1;
                }
            }
            return Ok(n);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// One `poll(2)` over read *and* write interest at once — the overlap
/// coordinator's full event loop: it parks over every rank fd it still
/// expects frames from (`reads`) and every rank out-queue with bytes
/// left to push (`writes`) in a single syscall, so an eager forward to a
/// slow destination never blocks draining a fast source. Fills
/// `ready_read[i]` / `ready_write[j]` and returns the total number of
/// ready entries (`0` = timed out). Negative fds are skipped natively by
/// `poll(2)`; `EINTR` retries; a negative timeout blocks indefinitely.
pub fn poll_duplex(
    reads: &[i32],
    writes: &[i32],
    timeout_ms: i32,
    ready_read: &mut Vec<bool>,
    ready_write: &mut Vec<bool>,
) -> io::Result<usize> {
    ready_read.clear();
    ready_read.resize(reads.len(), false);
    ready_write.clear();
    ready_write.resize(writes.len(), false);
    let mut pfds: Vec<ffi::PollFd> = reads
        .iter()
        .map(|&fd| ffi::PollFd { fd, events: POLLIN, revents: 0 })
        .chain(writes.iter().map(|&fd| ffi::PollFd { fd, events: POLLOUT, revents: 0 }))
        .collect();
    loop {
        // SAFETY: `pfds` is a live, writable array of `pfds.len()`
        // `struct pollfd`s, the count `poll(2)` is given.
        let r = unsafe { ffi::poll(pfds.as_mut_ptr(), pfds.len() as u64, timeout_ms) };
        if r >= 0 {
            let mut n = 0;
            for (i, pfd) in pfds.iter().enumerate() {
                if pfd.revents != 0 {
                    if i < reads.len() {
                        ready_read[i] = true;
                    } else {
                        ready_write[i - reads.len()] = true;
                    }
                    n += 1;
                }
            }
            return Ok(n);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// One non-blocking `read(2)` attempt on a readiness-polled descriptor:
/// `Ok(None)` when the read would block (readiness was stale — another
/// poll round will retry), `Ok(Some(0))` at EOF, `Ok(Some(n))` for
/// bytes. `EINTR` retries; every other error surfaces for the stream
/// diagnosis. The descriptor must be in `O_NONBLOCK` mode for the
/// `None` arm to ever fire — on a blocking fd this is just `read(2)`.
pub fn read_ready(fd: i32, buf: &mut [u8]) -> io::Result<Option<usize>> {
    loop {
        // SAFETY: `buf` is a live, writable slice, and `read(2)` writes
        // at most `buf.len()` bytes into it.
        let n = unsafe { ffi::read(fd, buf.as_mut_ptr().cast(), buf.len()) };
        if n >= 0 {
            return Ok(Some(n as usize));
        }
        let err = io::Error::last_os_error();
        match err.kind() {
            io::ErrorKind::Interrupted => {}
            io::ErrorKind::WouldBlock => return Ok(None),
            _ => return Err(err),
        }
    }
}

/// One non-blocking `write(2)` attempt: `Ok(0)` when the descriptor's
/// buffer is full (`EAGAIN` — the caller re-arms `POLLOUT` and retries
/// next poll round), otherwise the bytes accepted. `EINTR` retries.
pub fn write_ready(fd: i32, buf: &[u8]) -> io::Result<usize> {
    loop {
        // SAFETY: `buf` is a live slice, and `write(2)` reads at most
        // `buf.len()` bytes from it.
        let n = unsafe { ffi::write(fd, buf.as_ptr().cast(), buf.len()) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        match err.kind() {
            io::ErrorKind::Interrupted => {}
            io::ErrorKind::WouldBlock => return Ok(0),
            _ => return Err(err),
        }
    }
}

/// Switch `O_NONBLOCK` on a raw descriptor. The supervisor keeps
/// listeners non-blocking (a connection aborted between `poll` and
/// `accept` must not wedge the coordinator), and the stream retry loops
/// in [`Fd`] make accepted descriptors safe either way.
pub fn set_nonblocking(fd: i32, on: bool) -> io::Result<()> {
    // SAFETY: `F_GETFL` takes an integer argument and touches no memory
    // of this process.
    let flags = unsafe { ffi::fcntl(fd, F_GETFL, 0) };
    if flags < 0 {
        return Err(io::Error::last_os_error());
    }
    let flags = if on { flags | O_NONBLOCK } else { flags & !O_NONBLOCK };
    // SAFETY: `F_SETFL` takes an integer argument and touches no memory
    // of this process.
    if unsafe { ffi::fcntl(fd, F_SETFL, flags) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// The calling process id (names Unix socket paths uniquely per
/// coordinator).
pub fn getpid() -> i32 {
    // SAFETY: `getpid(2)` takes no arguments and cannot fail.
    unsafe { ffi::getpid() }
}

/// Decoded `waitpid` status — `WIFEXITED`/`WEXITSTATUS`/`WTERMSIG`
/// without libc macros.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitStatus(pub i32);

impl WaitStatus {
    /// The process left via `_exit`/`exit` (as opposed to a signal).
    pub fn exited(&self) -> bool {
        self.0 & 0x7f == 0
    }

    /// The exit code, when [`exited`](Self::exited).
    pub fn exit_code(&self) -> i32 {
        (self.0 >> 8) & 0xff
    }

    /// The terminating signal, when the process was killed by one.
    pub fn signal(&self) -> Option<i32> {
        if self.exited() {
            None
        } else {
            Some(self.0 & 0x7f)
        }
    }

    /// A clean `_exit(0)`.
    pub fn clean(&self) -> bool {
        self.exited() && self.exit_code() == 0
    }
}

impl std::fmt::Display for WaitStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.signal() {
            Some(sig) => write!(f, "killed by signal {sig}"),
            None => write!(f, "exit code {}", self.exit_code()),
        }
    }
}

/// A pipe read end whose every `read` is bounded by a `poll(2)` timeout:
/// the descriptor not becoming readable within `timeout_ms` surfaces as
/// [`io::ErrorKind::TimedOut`] instead of blocking the coordinator
/// forever on a stalled rank. A negative timeout disables the bound.
///
/// The reader also keeps a running total of the wall time spent inside
/// `poll(2)` — the coordinator's *poll-wait* on this rank — which the
/// profiling layer drains via [`take_waited_ns`](Self::take_waited_ns)
/// and the stall diagnosis reads via [`waited_ns`](Self::waited_ns).
/// The accounting is a plain field bump around a syscall that already
/// dominates it; it stays on even when profiling is off.
///
/// Waits are split into two classes: **idle** — the run is blocked at a
/// dependence with no useful work anywhere — and **hidden** — at least
/// one rank has already been released into work ahead of the round being
/// drained, so the wait overlaps live compute. A blocking `read` only
/// ever charges the idle class; the coordinator's multiplexer classifies
/// each poll and charges via [`charge_wait_ns`](Self::charge_wait_ns). The
/// stall diagnosis reads the combined total — a stalled rank is stalled
/// regardless of what the coordinator overlapped meanwhile.
#[derive(Debug)]
pub struct TimeoutReader {
    fd: Fd,
    timeout_ms: i32,
    waited_ns: u64,
    hidden_waited_ns: u64,
}

impl TimeoutReader {
    pub fn new(fd: Fd, timeout_ms: i32) -> Self {
        TimeoutReader { fd, timeout_ms, waited_ns: 0, hidden_waited_ns: 0 }
    }

    /// The raw descriptor number (for a forked child shedding inherited
    /// copies via [`close_raw`]).
    pub fn raw(&self) -> i32 {
        self.fd.raw()
    }

    /// Cumulative nanoseconds spent **idle** in `poll(2)` on this rank —
    /// timed-out waits included, overlap-hidden waits excluded.
    pub fn waited_ns(&self) -> u64 {
        self.waited_ns
    }

    /// Cumulative nanoseconds of poll-wait on this rank that overlapped
    /// released compute (the multiplexer's hidden class).
    pub fn hidden_waited_ns(&self) -> u64 {
        self.hidden_waited_ns
    }

    /// Idle + hidden wait — what a stall diagnosis reports: the full
    /// wall time the coordinator spent waiting on this rank.
    pub fn total_waited_ns(&self) -> u64 {
        self.waited_ns + self.hidden_waited_ns
    }

    /// Drain the idle poll-wait total (returns it and resets to zero), so
    /// the profiler can attribute waits per protocol phase as deltas.
    pub fn take_waited_ns(&mut self) -> u64 {
        std::mem::take(&mut self.waited_ns)
    }

    /// Drain the hidden poll-wait total.
    pub fn take_hidden_waited_ns(&mut self) -> u64 {
        std::mem::take(&mut self.hidden_waited_ns)
    }

    /// Charge an externally-timed wait (the coordinator's multiplexer polls
    /// many fds in one syscall and attributes the elapsed time to every
    /// rank it was still waiting on, classified idle or hidden).
    pub fn charge_wait_ns(&mut self, ns: u64, hidden: bool) {
        if hidden {
            self.hidden_waited_ns += ns;
        } else {
            self.waited_ns += ns;
        }
    }

    /// Unwrap the descriptor (the supervisor reads a handshake frame
    /// under an accept timeout, then re-wraps the stream under the run's
    /// read timeout).
    pub fn into_inner(self) -> Fd {
        self.fd
    }
}

impl Read for TimeoutReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.timeout_ms >= 0 {
            let t0 = lms_trace::now_ns();
            let readable = wait_readable(self.fd.raw(), self.timeout_ms);
            self.waited_ns += lms_trace::now_ns().saturating_sub(t0);
            if !readable? {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("pipe not readable within {}ms", self.timeout_ms),
                ));
            }
        }
        self.fd.read(buf)
    }
}

/// `_exit(2)`: terminate immediately — no unwinding, no `atexit`
/// handlers, no flushing of inherited parent state. The only way a rank
/// worker leaves.
pub fn exit_now(code: i32) -> ! {
    // SAFETY: `_exit(2)` takes an integer and never returns, so no Rust
    // state is observed after it.
    unsafe { ffi::_exit(code) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_roundtrips_bytes() {
        let (mut r, mut w) = pipe().unwrap();
        w.write_all(b"lms").unwrap();
        let mut buf = [0u8; 3];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"lms");
    }

    #[test]
    fn fork_wait_roundtrip() {
        let (mut r, mut w) = pipe().unwrap();
        // SAFETY: the child only writes one byte to its pipe end and
        // leaves via `exit_now`; it takes no lock of the parent image.
        let pid = unsafe { fork() }.unwrap();
        if pid == 0 {
            // child: prove we run post-fork code, then leave without
            // touching the test harness
            let _ = w.write_all(&[42]);
            exit_now(7);
        }
        drop(w);
        let mut buf = [0u8; 1];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(buf[0], 42);
        let status = wait_pid(pid).unwrap();
        // WIFEXITED + WEXITSTATUS without libc macros
        assert_eq!(status & 0x7f, 0, "child must exit, not be signalled");
        assert_eq!((status >> 8) & 0xff, 7);
        let decoded = WaitStatus(status);
        assert!(decoded.exited() && !decoded.clean());
        assert_eq!(decoded.exit_code(), 7);
        assert_eq!(decoded.to_string(), "exit code 7");
    }

    #[test]
    fn timeout_reader_bounds_reads_and_passes_data() {
        let (r, mut w) = pipe().unwrap();
        let mut r = TimeoutReader::new(r, 30);
        // nothing written: the read must time out, not block
        let mut buf = [0u8; 1];
        let err = r.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        // the timed-out poll is charged to the poll-wait total
        assert!(r.waited_ns() >= 30_000_000, "waited {}ns", r.waited_ns());
        assert!(r.take_waited_ns() > 0);
        assert_eq!(r.waited_ns(), 0);
        // written data still flows through
        w.write_all(&[9]).unwrap();
        r.read_exact(&mut buf).unwrap();
        assert_eq!(buf[0], 9);
        // EOF (writer dropped) counts as readable, not a timeout
        drop(w);
        assert_eq!(r.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn nonblocking_read_parks_and_retries_instead_of_failing() {
        let (r, mut w) = pipe().unwrap();
        set_nonblocking(r.raw(), true).unwrap();
        let mut r = r;
        let writer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            w.write_all(b"eagain").unwrap();
        });
        // an empty non-blocking pipe raises EAGAIN; the Fd retry loop
        // must park in poll(2) and deliver the late bytes
        let mut buf = [0u8; 6];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"eagain");
        writer.join().unwrap();
    }

    #[test]
    fn nonblocking_write_parks_and_retries_until_drained() {
        let (mut r, w) = pipe().unwrap();
        set_nonblocking(w.raw(), true).unwrap();
        let mut w = w;
        let payload = vec![0x5au8; 1 << 20]; // far beyond the pipe buffer
        let reader = std::thread::spawn(move || {
            let mut got = Vec::new();
            r.read_to_end(&mut got).unwrap();
            got
        });
        // write_all over the non-blocking end hits EAGAIN once the pipe
        // buffer fills; the retry loop must wait for the reader and push
        // every byte through
        w.write_all(&payload).unwrap();
        drop(w);
        let got = reader.join().unwrap();
        assert_eq!(got.len(), payload.len());
        assert!(got.iter().all(|&b| b == 0x5a));
    }

    #[test]
    fn poll_readables_reports_only_ready_fds_and_skips_negative() {
        let (r1, mut w1) = pipe().unwrap();
        let (r2, _w2) = pipe().unwrap();
        w1.write_all(&[1]).unwrap();
        let mut ready = Vec::new();
        // r1 has data, r2 is empty, -1 is a skipped slot
        let n = poll_readables(&[r1.raw(), r2.raw(), -1], 50, &mut ready).unwrap();
        assert_eq!(n, 1);
        assert_eq!(ready, vec![true, false, false]);
        // nothing readable anywhere: timeout, zero ready
        let mut drain = [0u8; 1];
        let mut r1 = r1;
        r1.read_exact(&mut drain).unwrap();
        let n = poll_readables(&[r1.raw(), r2.raw()], 20, &mut ready).unwrap();
        assert_eq!(n, 0);
        assert!(ready.iter().all(|&b| !b));
        // EOF counts as readable (the follow-up read disambiguates)
        drop(w1);
        let n = poll_readables(&[r1.raw()], 50, &mut ready).unwrap();
        assert_eq!((n, ready[0]), (1, true));
    }

    #[test]
    fn poll_duplex_reports_read_and_write_interest() {
        let (r1, mut w1) = pipe().unwrap();
        let (r2, w2) = pipe().unwrap();
        w1.write_all(&[7]).unwrap();
        let (mut rr, mut rw) = (Vec::new(), Vec::new());
        // r1 has data; w2's pipe buffer is empty so it accepts writes;
        // r2 is empty; a negative read slot is skipped
        let n = poll_duplex(&[r1.raw(), r2.raw(), -1], &[w2.raw()], 50, &mut rr, &mut rw).unwrap();
        assert_eq!(n, 2);
        assert_eq!(rr, vec![true, false, false]);
        assert_eq!(rw, vec![true]);
        // fill w2's pipe buffer: POLLOUT must drop away and the poll
        // falls through to a pure timeout once r1 is drained
        set_nonblocking(w2.raw(), true).unwrap();
        let chunk = [0u8; 4096];
        while write_ready(w2.raw(), &chunk).unwrap() > 0 {}
        let mut drain = [0u8; 1];
        let mut r1 = r1;
        r1.read_exact(&mut drain).unwrap();
        let n = poll_duplex(&[r1.raw()], &[w2.raw()], 20, &mut rr, &mut rw).unwrap();
        assert_eq!(n, 0);
        assert!(!rr[0] && !rw[0]);
        drop(r2); // unread full pipe: w2 now raises POLLERR = ready
        let n = poll_duplex(&[], &[w2.raw()], 50, &mut rr, &mut rw).unwrap();
        assert_eq!((n, rw[0]), (1, true));
    }

    #[test]
    fn read_ready_and_write_ready_surface_wouldblock_as_values() {
        let (r, w) = pipe().unwrap();
        set_nonblocking(r.raw(), true).unwrap();
        set_nonblocking(w.raw(), true).unwrap();
        let mut buf = [0u8; 8];
        // empty pipe: a non-blocking read yields None, not an error
        assert_eq!(read_ready(r.raw(), &mut buf).unwrap(), None);
        assert_eq!(write_ready(w.raw(), b"abc").unwrap(), 3);
        assert_eq!(read_ready(r.raw(), &mut buf).unwrap(), Some(3));
        assert_eq!(&buf[..3], b"abc");
        // full pipe: write_ready returns 0 instead of blocking
        let chunk = [0u8; 4096];
        while write_ready(w.raw(), &chunk).unwrap() > 0 {}
        assert_eq!(write_ready(w.raw(), &chunk).unwrap(), 0);
        // EOF after the writer drops reads as Some(0)
        drop(w);
        while read_ready(r.raw(), &mut buf).unwrap().unwrap_or(1) > 0 {}
    }

    #[test]
    fn timeout_reader_splits_idle_from_hidden_wait() {
        let (r, _w) = pipe().unwrap();
        let mut r = TimeoutReader::new(r, 10);
        let mut buf = [0u8; 1];
        // a plain bounded read charges the idle class
        assert_eq!(r.read(&mut buf).unwrap_err().kind(), io::ErrorKind::TimedOut);
        assert!(r.waited_ns() > 0);
        assert_eq!(r.hidden_waited_ns(), 0);
        // externally-charged waits land in the chosen class
        r.charge_wait_ns(500, true);
        r.charge_wait_ns(300, false);
        assert_eq!(r.hidden_waited_ns(), 500);
        assert_eq!(r.total_waited_ns(), r.waited_ns() + 500);
        assert_eq!(r.take_hidden_waited_ns(), 500);
        assert_eq!(r.hidden_waited_ns(), 0);
        assert!(r.take_waited_ns() >= 300);
        assert_eq!(r.total_waited_ns(), 0);
    }

    #[test]
    fn kill_and_try_wait_reap_a_looping_child() {
        // SAFETY: the child only sleeps in a loop until the parent kills
        // it; it takes no lock of the parent image.
        let pid = unsafe { fork() }.unwrap();
        if pid == 0 {
            loop {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        }
        assert_eq!(try_wait_pid(pid).unwrap(), None, "child still running");
        kill_pid(pid).unwrap();
        let status = WaitStatus(wait_pid(pid).unwrap());
        assert_eq!(status.signal(), Some(9));
        assert!(status.to_string().contains("signal 9"));
    }
}
