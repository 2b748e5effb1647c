//! Minimal POSIX process/pipe/stream layer — just enough libc surface to
//! fork the rank spawner and its rank worker processes, hand descriptors
//! between processes (`SCM_RIGHTS`), stream wire frames (over pipes or
//! sockets), and detect failed ranks (`poll(2)` read timeouts,
//! `kill(2)`, non-blocking `waitpid`), declared directly against the C
//! library `std` already links (the build container has no crates
//! registry, so the `libc` crate is out of reach; these symbols are
//! stable POSIX, plus Linux's `close_range(2)`, which glibc wraps since
//! 2.34, and the raw `clone(2)` system call).
//!
//! Two kinds of child are made here, and each leaves only via
//! [`exit_now`] (`_exit(2)`), never by unwinding into the parent's
//! runtime:
//!
//! * the **spawner**, by [`fork`] from a possibly multithreaded
//!   coordinator. glibc's `fork` runs the `pthread_atfork` handlers that
//!   make `malloc` usable in the child, and the spawner is
//!   single-threaded from then on: it only reads requests on its control
//!   socket and forks ranks.
//! * **ranks**, by [`clone_parent`] from the single-threaded spawner. A
//!   raw `clone` skips glibc's fork handlers, which is sound only because
//!   no other thread exists in the spawner to hold a lock the rank would
//!   inherit taken.

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

    /// `struct iovec` from `readv(2)`.
    #[repr(C)]
    pub struct IoVec {
        pub base: *mut c_void,
        pub len: usize,
    }

    /// `struct msghdr` from `sendmsg(2)` on 64-bit Linux (the padding
    /// after `namelen` and after `flags` comes from `#[repr(C)]`).
    #[repr(C)]
    pub struct MsgHdr {
        pub name: *mut c_void,
        pub namelen: u32,
        pub iov: *mut IoVec,
        pub iovlen: usize,
        pub control: *mut c_void,
        pub controllen: usize,
        pub flags: i32,
    }

    extern "C" {
        pub fn fork() -> i32;
        pub fn syscall(number: i64, ...) -> i64;
        pub fn socketpair(domain: i32, kind: i32, protocol: i32, fds: *mut i32) -> i32;
        pub fn sendmsg(fd: i32, msg: *const MsgHdr, flags: i32) -> isize;
        pub fn recvmsg(fd: i32, msg: *mut MsgHdr, flags: i32) -> isize;
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
        pub fn close_range(first: u32, last: u32, flags: i32) -> i32;
        pub fn malloc_trim(pad: usize) -> i32;
    }
}

const AF_UNIX: i32 = 1;
const SOCK_SEQPACKET: i32 = 5;
const SOCK_CLOEXEC: i32 = 0o2000000;
const SOL_SOCKET: i32 = 1;
const SCM_RIGHTS: i32 = 1;
const MSG_CTRUNC: i32 = 0x8;
const MSG_TRUNC: i32 = 0x20;
const MSG_NOSIGNAL: i32 = 0x4000;
const CLONE_PARENT: i64 = 0x8000;
const SIGCHLD: i64 = 17;
#[cfg(target_arch = "x86_64")]
const SYS_CLONE: Option<i64> = Some(56);
#[cfg(target_arch = "aarch64")]
const SYS_CLONE: Option<i64> = Some(220);
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
const SYS_CLONE: Option<i64> = None;
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

    /// Adopt a raw descriptor (the caller transfers ownership — used for
    /// the streams taken over from `std`'s socket types).
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

/// Close every descriptor from 3 up except those in `keep` — what a
/// forked rank runs first, so that it holds no descriptor of the image
/// it was forked from but its own. Not the coordinator's channels to
/// other ranks, and not a pipe another engine or thread of the parent
/// opened: a rank holding that pipe's write end would delay its EOF for
/// as long as the rank lives (ranks never `exec`, so `O_CLOEXEC` does not
/// help). One `close_range(2)` per gap around the kept descriptors
/// (Linux 5.9 and later); sorts `keep` in place and allocates nothing.
pub fn close_all_but(keep: &mut [i32]) -> io::Result<()> {
    keep.sort_unstable();
    let mut first = 3u32;
    let close = |first: u32, last: u32| {
        // SAFETY: `close_range(2)` takes plain integers and touches no
        // memory of this process; it closes descriptors, nothing else.
        if unsafe { ffi::close_range(first, last, 0) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    };
    for &fd in keep.iter() {
        // stdio, negative slots and repeats are already past
        let Ok(fd) = u32::try_from(fd) else { continue };
        if fd < first {
            continue;
        }
        if fd > first {
            close(first, fd - 1)?;
        }
        first = fd + 1;
    }
    close(first, u32::MAX)
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

/// `clone(CLONE_PARENT | SIGCHLD)` as a raw system call: like
/// [`fork`], `Ok(0)` in the child and `Ok(pid)` in the caller, but the
/// child's parent is the **caller's parent**, which therefore reaps it,
/// receives its `SIGCHLD` and counts it in `RUSAGE_CHILDREN`. Not
/// `clone3`: container seccomp profiles commonly answer that with
/// `ENOSYS`. Fails with `ENOSYS` on an architecture this layer has no
/// system call number for.
///
/// # Safety
/// As [`fork`], and stricter: the raw call runs none of glibc's fork
/// handlers, so the caller must be single-threaded (no other thread can
/// hold a lock the child inherits) and the child must leave via
/// [`exit_now`].
pub unsafe fn clone_parent() -> io::Result<i32> {
    let Some(number) = SYS_CLONE else {
        return Err(io::Error::from_raw_os_error(38)); // ENOSYS
    };
    // every argument after the flags is zero (no new stack, no tid or
    // tls pointers), which makes the x86-64 and aarch64 argument orders
    // agree; with no new stack the child returns on a copy of this one
    let pid = ffi::syscall(number, CLONE_PARENT | SIGCHLD, 0i64, 0i64, 0i64, 0i64);
    if pid < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(pid as i32)
    }
}

/// A connected pair of Unix-domain `SOCK_SEQPACKET` sockets: reliable,
/// ordered, and each [`send_with_fds`] arrives as one message. Both ends
/// are close-on-exec: a program this process `exec`s holds neither, so
/// the peer still sees end of stream when this process is gone.
pub fn seqpacket_pair() -> io::Result<(Fd, Fd)> {
    let mut fds = [0i32; 2];
    let kind = SOCK_SEQPACKET | SOCK_CLOEXEC;
    // SAFETY: `fds` is a writable array of the two `int`s
    // `socketpair(2)` fills.
    if unsafe { ffi::socketpair(AF_UNIX, kind, 0, fds.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((Fd(fds[0]), Fd(fds[1])))
}

/// Most descriptors one message carries.
pub const MAX_PASSED_FDS: usize = 4;

/// Room for one `SCM_RIGHTS` header and [`MAX_PASSED_FDS`] descriptors
/// (`CMSG_SPACE(4 · 4)` = 16 + 16), aligned for the `size_t` header.
type CmsgBuf = [u64; 4];

/// Send one message on a seqpacket socket, with `fds` attached as
/// `SCM_RIGHTS` ancillary data (the receiver gets its own duplicates;
/// the sender's stay open). `MSG_NOSIGNAL`: a closed peer is `EPIPE`,
/// not a signal.
pub fn send_with_fds(sock: &Fd, bytes: &[u8], fds: &[i32]) -> io::Result<()> {
    assert!(fds.len() <= MAX_PASSED_FDS, "too many descriptors for one message");
    let mut control: CmsgBuf = [0; 4];
    let mut iov = ffi::IoVec { base: bytes.as_ptr() as *mut _, len: bytes.len() };
    let controllen = if fds.is_empty() { 0 } else { 16 + 4 * fds.len() };
    if !fds.is_empty() {
        // struct cmsghdr { size_t len; int level; int type; } + the fds
        control[0] = controllen as u64;
        control[1] = (SOL_SOCKET as u32 as u64) | ((SCM_RIGHTS as u32 as u64) << 32);
        for (i, &fd) in fds.iter().enumerate() {
            let word = &mut control[2 + i / 2];
            *word |= (fd as u32 as u64) << (32 * (i % 2));
        }
    }
    let msg = ffi::MsgHdr {
        name: std::ptr::null_mut(),
        namelen: 0,
        iov: &mut iov,
        iovlen: 1,
        control: if fds.is_empty() { std::ptr::null_mut() } else { control.as_mut_ptr().cast() },
        controllen,
        flags: 0,
    };
    loop {
        // SAFETY: `msg` points at one live iovec over `bytes` (which
        // `sendmsg(2)` only reads) and, when descriptors are attached, at
        // `controllen` initialised bytes of `control`; all of it outlives
        // the call.
        let n = unsafe { ffi::sendmsg(sock.0, &msg, MSG_NOSIGNAL) };
        if n >= 0 {
            return if n as usize == bytes.len() {
                Ok(())
            } else {
                Err(io::Error::other("short seqpacket send"))
            };
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Receive one message from a seqpacket socket into `buf`, adopting any
/// `SCM_RIGHTS` descriptors it carries. `Ok(None)` at end of stream (the
/// peer closed); a message longer than `buf` or carrying more than
/// [`MAX_PASSED_FDS`] descriptors is an error (its descriptors are
/// closed, not leaked).
pub fn recv_with_fds(sock: &Fd, buf: &mut [u8]) -> io::Result<Option<(usize, Vec<Fd>)>> {
    let mut control: CmsgBuf = [0; 4];
    let mut iov = ffi::IoVec { base: buf.as_mut_ptr().cast(), len: buf.len() };
    let mut msg = ffi::MsgHdr {
        name: std::ptr::null_mut(),
        namelen: 0,
        iov: &mut iov,
        iovlen: 1,
        control: control.as_mut_ptr().cast(),
        controllen: std::mem::size_of::<CmsgBuf>(),
        flags: 0,
    };
    let n = loop {
        // SAFETY: `msg` points at one live iovec over `buf` and at the
        // `controllen` writable bytes of `control`; `recvmsg(2)` writes
        // only inside them and into `msg` itself.
        let n = unsafe { ffi::recvmsg(sock.0, &mut msg, 0) };
        if n >= 0 {
            break n as usize;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    };
    let mut fds = Vec::new();
    if msg.controllen >= 16 {
        let len = control[0] as usize;
        let (level, kind) = (control[1] as u32 as i32, (control[1] >> 32) as u32 as i32);
        if level == SOL_SOCKET && kind == SCM_RIGHTS && (16..=32).contains(&len) {
            for i in 0..(len - 16) / 4 {
                fds.push(Fd((control[2 + i / 2] >> (32 * (i % 2))) as u32 as i32));
            }
        }
    }
    if msg.flags & (MSG_CTRUNC | MSG_TRUNC) != 0 {
        return Err(io::Error::other("seqpacket message or its descriptors truncated"));
    }
    if n == 0 && fds.is_empty() {
        return Ok(None);
    }
    Ok(Some((n, fds)))
}

/// Hand every wholly free page of the C heap back to the kernel
/// (glibc's `malloc_trim(0)`). In a freshly forked child this unshares
/// those pages: the child stops holding the parent's freed memory, so the
/// parent's next writes there take no copy-on-write copy, and the child's
/// resident set — and every process forked from it — shrinks to the
/// memory still in use.
pub fn release_free_heap() {
    // SAFETY: `malloc_trim(3)` takes an integer and only walks the
    // allocator's own free lists; callers are single-threaded, so no
    // other thread is inside the allocator meanwhile.
    unsafe { ffi::malloc_trim(0) };
}

/// Whether a process `pid` exists (`kill(pid, 0)`; `ESRCH` means none —
/// a reaped child is gone, a zombie still exists).
pub fn pid_exists(pid: i32) -> bool {
    // SAFETY: `kill(2)` with signal 0 sends nothing; it takes two
    // integers and touches no memory of this process.
    let alive = unsafe { ffi::kill(pid, 0) } == 0;
    alive || io::Error::last_os_error().raw_os_error() != Some(3)
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

    /// The raw descriptor number.
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
    fn close_all_but_keeps_stdio_and_the_kept_descriptors() {
        let (mut r, mut w) = pipe().unwrap();
        let (kept_r, mut kept_w) = pipe().unwrap();
        let (_other_r, mut other_w) = pipe().unwrap();
        // SAFETY: the child writes to its own pipe ends and leaves via
        // `exit_now`; it takes no lock of the parent image.
        let pid = unsafe { fork() }.unwrap();
        if pid == 0 {
            let mut keep = [kept_w.raw(), w.raw(), -1, w.raw()];
            let code = match close_all_but(&mut keep) {
                // the kept ends still write; another pipe's end is gone
                Ok(()) => {
                    let wrote = w.write_all(b"w").is_ok() && kept_w.write_all(b"k").is_ok();
                    let gone = other_w.write(b"x").is_err();
                    i32::from(!(wrote && gone))
                }
                Err(_) => 2,
            };
            exit_now(code);
        }
        drop((w, kept_w, other_w));
        let status = WaitStatus(wait_pid(pid).unwrap());
        assert!(status.clean(), "child: {status}");
        let mut buf = Vec::new();
        r.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"w");
        let mut kept_r = kept_r;
        buf.clear();
        kept_r.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"k");
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
