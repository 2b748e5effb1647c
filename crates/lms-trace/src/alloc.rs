//! A counting global allocator: the process's live heap bytes and their
//! high-water mark, for the tests and examples that pin what a
//! construction holds at its peak.
//!
//! Install it in a binary with `#[global_allocator]`. It counts every
//! allocation of the process, from every thread, so a test binary that
//! measures with it holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The [`System`] allocator, counting the bytes it hands out: what is
/// live now and the most that was live at once since the last
/// [`reset_peak`](Self::reset_peak). A reallocation counts as its size
/// change.
#[derive(Debug, Default)]
pub struct CountingAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAlloc {
    /// A counter at zero, for a `static`.
    pub const fn new() -> Self {
        CountingAlloc { live: AtomicUsize::new(0), peak: AtomicUsize::new(0) }
    }

    /// Bytes allocated and not yet freed.
    pub fn live(&self) -> usize {
        self.live.load(Relaxed)
    }

    /// The most bytes live at once since the last
    /// [`reset_peak`](Self::reset_peak).
    pub fn peak(&self) -> usize {
        self.peak.load(Relaxed)
    }

    /// Restart the high-water mark at the bytes live now, and return them.
    pub fn reset_peak(&self) -> usize {
        let live = self.live();
        self.peak.store(live, Relaxed);
        live
    }

    /// Run `f`, returning its value and the most bytes live at once
    /// during it over the bytes live when it started.
    pub fn peak_over<T>(&self, f: impl FnOnce() -> T) -> (T, usize) {
        let before = self.reset_peak();
        let value = f();
        (value, self.peak().saturating_sub(before))
    }

    fn grow(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Relaxed) + bytes;
        self.peak.fetch_max(live, Relaxed);
    }

    fn shrink(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Relaxed);
    }
}

// SAFETY: every method hands its arguments to `System` unchanged and
// returns what `System` returns, so `System`'s guarantees are this
// allocator's; the counters only read sizes and never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract, which is `System`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            self.grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            self.grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller hands back a block this allocator, hence
        // `System`, allocated with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        self.shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller hands back a block `System` allocated with
        // `layout`, and `new_size` meets `realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                self.grow(new_size - layout.size());
            } else {
                self.shrink(layout.size() - new_size);
            }
        }
        new
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The counter run directly (not installed): what it reports follows
    /// the calls made through it, and the peak outlives a free.
    #[test]
    fn counts_live_bytes_and_their_peak() {
        let counter = CountingAlloc::new();
        let layout = Layout::from_size_align(1000, 8).unwrap();
        let ((), peak) = counter.peak_over(|| {
            // SAFETY: `layout` has a non-zero size; each block is freed
            // once, with the layout and size it was last given.
            unsafe {
                let a = counter.alloc(layout);
                let b = counter.alloc_zeroed(layout);
                assert_eq!(counter.live(), 2000);
                let b = counter.realloc(b, layout, 3000);
                assert_eq!(counter.live(), 4000);
                counter.dealloc(a, layout);
                let grown = Layout::from_size_align(3000, 8).unwrap();
                let b = counter.realloc(b, grown, 500);
                assert_eq!(counter.live(), 500);
                counter.dealloc(b, Layout::from_size_align(500, 8).unwrap());
            }
        });
        assert_eq!(counter.live(), 0);
        assert_eq!((peak, counter.peak()), (4000, 4000));
        assert_eq!(counter.reset_peak(), 0);
        assert_eq!(counter.peak(), 0);
    }
}
