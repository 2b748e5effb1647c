//! Monotonic clock, read straight through `clock_gettime(2)`.
//!
//! `std::time::Instant` would work too, but going through the raw FFI
//! (the same style `lms-dist`'s `sys` module uses for fork/pipe/poll)
//! keeps the returned value an integer nanosecond count we can ship over
//! the wire and subtract across processes on the same machine without
//! any opaque-type ceremony.
//!
//! Every sample additionally bumps a relaxed atomic counter,
//! [`clock_reads`]. That counter exists for exactly one consumer: the
//! bench guard proving that an *untraced* run performs **zero** clock
//! reads — i.e. that the disabled path of the tracing layer really is
//! compile-time free, not merely cheap.

use std::sync::atomic::{AtomicU64, Ordering};

mod ffi {
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    /// `CLOCK_MONOTONIC` on Linux.
    pub const CLOCK_MONOTONIC: i32 = 1;

    extern "C" {
        pub fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
}

static CLOCK_READS: AtomicU64 = AtomicU64::new(0);

/// Current monotonic time in nanoseconds since an arbitrary epoch.
///
/// Comparable across threads and across forked processes on the same
/// host (the kernel clock is per-machine, not per-process).
pub fn now_ns() -> u64 {
    CLOCK_READS.fetch_add(1, Ordering::Relaxed);
    let mut ts = ffi::Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `Timespec` laid out as the C
    // `struct timespec` (two 64-bit fields, `#[repr(C)]`), and
    // `clock_gettime` writes only through that pointer; the clock id is a
    // constant the kernel always accepts.
    let rc = unsafe { ffi::clock_gettime(ffi::CLOCK_MONOTONIC, &mut ts) };
    debug_assert_eq!(rc, 0, "clock_gettime(CLOCK_MONOTONIC) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Process-wide count of [`now_ns`] samples taken so far.
///
/// The hook for the zero-cost guard: run an untraced smoothing pass and
/// assert this number did not move.
pub fn clock_reads() -> u64 {
    CLOCK_READS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic_and_counts_reads() {
        let before = clock_reads();
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a, "monotonic clock went backwards: {a} -> {b}");
        assert!(a > 0);
        assert_eq!(clock_reads(), before + 2);
    }

    #[test]
    fn clock_advances_across_a_sleep() {
        let a = now_ns();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = now_ns();
        assert!(b - a >= 1_000_000, "slept 2ms but clock moved only {}ns", b - a);
    }
}
