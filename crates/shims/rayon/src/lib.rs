//! Offline shim for the `rayon` crate.
//!
//! Provides the adapter surface this workspace uses — `par_iter`,
//! `par_iter_mut`, `into_par_iter` on ranges, `map`, `enumerate`,
//! `for_each`, `collect`, plus [`ThreadPoolBuilder`] /
//! [`ThreadPool::install`].
//!
//! One property the workspace's determinism tests rely on:
//!
//! * **Order-preserving collect**: `map(..).collect()` returns results in
//!   input order, whatever the worker interleaving. Work is split into a
//!   fixed group grid that depends on the item count only, never on the
//!   worker count.
//!
//! And one performance property the phase-heavy engines rely on:
//!
//! * **Persistent workers**: a [`ThreadPool`] spawns its OS threads once at
//!   construction and parks them between jobs. Every par-adapter call made
//!   inside [`ThreadPool::install`] dispatches to those parked workers
//!   through a condvar'd job slot instead of spawning a fresh
//!   `std::thread::scope` — a resident sweep with several parallel phases
//!   per color step pays `num_threads − 1` thread spawns per pool
//!   *lifetime*, not per phase. [`spawned_thread_count`] exposes the
//!   per-caller spawn counter the regression tests pin this with. Adapter
//!   calls made outside any `install` fall back to scoped one-shot workers
//!   (the pre-pool behaviour).

use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

thread_local! {
    static CURRENT_THREADS: Cell<usize> = const { Cell::new(0) };
    /// Stack of installed pools (innermost last); par-adapters dispatch to
    /// the top entry.
    static POOL_STACK: RefCell<Vec<Arc<PoolShared>>> = const { RefCell::new(Vec::new()) };
    /// OS threads this thread has had the shim spawn: the workers of every
    /// pool it built and the fallback scoped workers of its adapter calls.
    static SPAWNED_THREADS: Cell<usize> = const { Cell::new(0) };
}

fn count_spawn() {
    SPAWNED_THREADS.with(|c| c.set(c.get() + 1));
}

/// OS threads the shim has spawned on behalf of the **calling thread**
/// (pool workers and fallback scoped workers alike). Pool reuse is
/// regression-tested by pinning the delta of this counter across repeated
/// `install`/par-adapter calls; being per caller, the delta is exact
/// whatever other threads — sibling tests, say — spawn meanwhile.
pub fn spawned_thread_count() -> usize {
    SPAWNED_THREADS.with(|c| c.get())
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Number of worker threads par-adapters on this thread currently use.
pub fn current_num_threads() -> usize {
    let t = CURRENT_THREADS.with(|c| c.get());
    if t == 0 {
        default_threads()
    } else {
        t
    }
}

/// Error from [`ThreadPoolBuilder::build`]; this shim never produces one.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Target worker count; 0 means "host parallelism".
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 { default_threads() } else { self.num_threads };
        Ok(ThreadPool::spawn(n))
    }
}

/// A dispatched job: a type-erased reference to the caller's task closure.
/// The `'static` lifetime is a lie the completion protocol makes sound —
/// the dispatching thread blocks in [`PoolShared::run`] until every worker
/// has finished executing the job, so the referent outlives every use.
#[derive(Clone, Copy)]
struct Job {
    task: &'static (dyn Fn() + Sync),
}

struct PoolState {
    job: Option<Job>,
    /// Bumped once per dispatched job; workers run each epoch exactly once.
    epoch: u64,
    /// Workers still executing the current job.
    active: usize,
    /// First panic payload a worker caught during the current job — the
    /// dispatcher re-raises it after the job completes, mirroring the
    /// panic propagation of `std::thread::scope`.
    panic: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

/// State shared between a pool's owner and its parked workers.
struct PoolShared {
    /// Persistent worker count (`num_threads − 1`; the caller participates).
    workers: usize,
    state: Mutex<PoolState>,
    /// Workers wait here for a new epoch.
    work_cv: Condvar,
    /// The dispatcher waits here for `active == 0`.
    done_cv: Condvar,
    /// Serialises concurrent `run` calls on one pool (the job slot holds a
    /// single job).
    dispatch: Mutex<()>,
}

/// Poison-tolerant lock: a panicking job poisons the pool's mutexes when
/// its guards unwind, but every per-job invariant (`job`, `epoch`,
/// `active`, `panic`) is re-established at the next dispatch, so the
/// poisoned state is safe to keep using — exactly the panic story of the
/// old `std::thread::scope` path.
fn relock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// [`relock`] for condvar waits.
fn rewait<'a, T>(
    cv: &Condvar,
    guard: std::sync::MutexGuard<'a, T>,
) -> std::sync::MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl PoolShared {
    /// Execute `task` on every worker plus the calling thread, returning
    /// once all of them have finished. `task` is expected to partition its
    /// own work (e.g. through an atomic cursor) — extra workers simply find
    /// nothing to do.
    fn run(&self, task: &(dyn Fn() + Sync)) {
        if self.workers == 0 {
            task();
            return;
        }
        let _serialise = relock(&self.dispatch);
        // SAFETY: the job reference escapes only to the pool's workers, and
        // this function does not return until `active` drops back to zero,
        // i.e. until no worker holds the reference any more.
        let job = Job {
            task: unsafe {
                std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(task)
            },
        };
        {
            let mut st = relock(&self.state);
            st.job = Some(job);
            st.epoch += 1;
            st.active = self.workers;
            self.work_cv.notify_all();
        }
        // run the caller's share behind catch_unwind too: unwinding out of
        // this frame while workers still execute the job would dangle the
        // transmuted reference — the wait below must happen on every path
        let caller = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
        let worker_panic = {
            let mut st = relock(&self.state);
            while st.active > 0 {
                st = rewait(&self.done_cv, st);
            }
            st.job = None;
            st.panic.take()
        };
        if let Err(payload) = caller {
            std::panic::resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            std::panic::resume_unwind(payload);
        }
    }
}

fn worker_loop(shared: Arc<PoolShared>) {
    // A worker never exposes its pool's parallelism to nested adapters:
    // par-calls made from inside a job run inline on the worker.
    CURRENT_THREADS.with(|c| c.set(1));
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = relock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    break st.job.expect("epoch bumped with a job in the slot");
                }
                st = rewait(&shared.work_cv, st);
            }
        };
        // a panicking job must not kill the worker (active would never
        // drop to zero and every later dispatch would deadlock): catch it,
        // hand the payload to the dispatcher, keep serving
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (job.task)()));
        let mut st = relock(&shared.state);
        if let Err(payload) = result {
            st.panic.get_or_insert(payload);
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// A pool of persistent parked workers: par-adapters called inside
/// [`install`](Self::install) split work across this many threads
/// (`num_threads − 1` parked workers plus the calling thread), spawned
/// **once** at construction.
pub struct ThreadPool {
    num_threads: usize,
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadPool").field("num_threads", &self.num_threads).finish()
    }
}

impl ThreadPool {
    fn spawn(num_threads: usize) -> Self {
        let workers = num_threads.saturating_sub(1);
        let shared = Arc::new(PoolShared {
            workers,
            state: Mutex::new(PoolState {
                job: None,
                epoch: 0,
                active: 0,
                panic: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            dispatch: Mutex::new(()),
        });
        let handles = (0..workers)
            .map(|_| {
                count_spawn();
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared))
            })
            .collect();
        ThreadPool { num_threads, shared, handles }
    }

    /// Run `f` with this pool's workers active for every par-adapter call
    /// made on the calling thread. Panic-safe: the pool-stack entry and
    /// the thread-count override are unwound with the panic, so a caught
    /// panic (tests, proptest shrinking) cannot leave a stale pool
    /// installed on the thread.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct InstallGuard {
            prev_threads: usize,
        }
        impl Drop for InstallGuard {
            fn drop(&mut self) {
                POOL_STACK.with(|s| {
                    s.borrow_mut().pop();
                });
                CURRENT_THREADS.with(|c| c.set(self.prev_threads));
            }
        }
        let prev_threads = CURRENT_THREADS.with(|c| c.get());
        CURRENT_THREADS.with(|c| c.set(self.num_threads));
        POOL_STACK.with(|s| s.borrow_mut().push(Arc::clone(&self.shared)));
        let _guard = InstallGuard { prev_threads };
        f()
    }

    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = relock(&self.shared.state);
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The pool the innermost enclosing `install` put on this thread, if any.
fn current_pool() -> Option<Arc<PoolShared>> {
    POOL_STACK.with(|s| s.borrow().last().cloned())
}

/// Fixed group grid: split `len` items into at most 64 contiguous groups.
/// The grid depends only on `len`, never on the worker count.
fn group_bounds(len: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return Vec::new();
    }
    let groups = len.min(64);
    (0..groups)
        .map(|g| (g * len / groups, (g + 1) * len / groups))
        .filter(|&(lo, hi)| lo < hi)
        .collect()
}

/// Run `work(group_index, lo, hi)` over the group grid on the active worker
/// count, returning per-group outputs in group order. Dispatches to the
/// installed pool's persistent workers when one is active, falling back to
/// one-shot scoped workers otherwise.
fn run_groups<O: Send>(len: usize, work: &(impl Fn(usize, usize, usize) -> O + Sync)) -> Vec<O> {
    let bounds = group_bounds(len);
    let threads = current_num_threads().min(bounds.len()).max(1);
    if threads <= 1 {
        return bounds.iter().enumerate().map(|(g, &(lo, hi))| work(g, lo, hi)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<O>> = Vec::new();
    slots.resize_with(bounds.len(), || None);
    {
        let slots = Mutex::new(&mut slots);
        let task = || loop {
            let g = cursor.fetch_add(1, Ordering::Relaxed);
            if g >= bounds.len() {
                break;
            }
            let (lo, hi) = bounds[g];
            let out = work(g, lo, hi);
            slots.lock().unwrap()[g] = Some(out);
        };
        match current_pool() {
            Some(pool) => pool.run(&task),
            None => {
                std::thread::scope(|scope| {
                    for _ in 0..threads {
                        count_spawn();
                        scope.spawn(task);
                    }
                });
            }
        }
    }
    slots.iter_mut().map(|s| s.take().unwrap()).collect()
}

/// A raw base pointer the disjoint-range adapters share across workers.
/// Soundness rests on `run_groups` handing out non-overlapping index
/// ranges, so no element is reachable from two workers.
struct SyncPtr<T>(*mut T);
unsafe impl<T> Sync for SyncPtr<T> {}
unsafe impl<T> Send for SyncPtr<T> {}

// ---------------------------------------------------------------------------
// Index-driven parallel iterators (ranges, slices)
// ---------------------------------------------------------------------------

/// A parallel iterator over `0..len` materialising items through `get`.
pub struct ParIndexed<F> {
    len: usize,
    get: F,
}

impl<T: Send, F: Fn(usize) -> T + Sync> ParIndexed<F> {
    pub fn map<R, M>(self, m: M) -> ParIndexed<impl Fn(usize) -> R + Sync>
    where
        R: Send,
        M: Fn(T) -> R + Sync,
    {
        let get = self.get;
        ParIndexed { len: self.len, get: move |i| m(get(i)) }
    }

    pub fn for_each(self, f: impl Fn(T) + Sync) {
        let get = &self.get;
        run_groups(self.len, &|_, lo, hi| {
            for i in lo..hi {
                f(get(i));
            }
        });
    }

    /// Order-preserving collect.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        let get = &self.get;
        let parts: Vec<Vec<T>> = run_groups(self.len, &|_, lo, hi| (lo..hi).map(get).collect());
        parts.into_iter().flatten().collect()
    }
}

/// `into_par_iter()` for ranges.
pub trait IntoParallelIterator {
    type Item: Send;
    type Iter;
    fn into_par_iter(self) -> Self::Iter;
}

macro_rules! impl_range_par_iter {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for std::ops::Range<$t> {
            type Item = $t;
            type Iter = ParIndexed<Box<dyn Fn(usize) -> $t + Sync>>;
            fn into_par_iter(self) -> Self::Iter {
                let start = self.start;
                let len = if self.end > self.start { (self.end - self.start) as usize } else { 0 };
                ParIndexed { len, get: Box::new(move |i| start + i as $t) }
            }
        }
    )*};
}
impl_range_par_iter!(u32, u64, usize);

// ---------------------------------------------------------------------------
// Slice adapters
// ---------------------------------------------------------------------------

/// `par_iter()` on shared slices.
pub trait ParallelSlice<T: Sync> {
    fn as_par_slice(&self) -> &[T];

    fn par_iter<'a>(&'a self) -> ParIndexed<impl Fn(usize) -> &'a T + Sync + 'a>
    where
        T: 'a,
    {
        let s = self.as_par_slice();
        ParIndexed { len: s.len(), get: move |i| &s[i] }
    }
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn as_par_slice(&self) -> &[T] {
        self
    }
}

impl<T: Sync> ParallelSlice<T> for Vec<T> {
    fn as_par_slice(&self) -> &[T] {
        self
    }
}

/// `par_iter_mut()` on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    fn as_par_slice_mut(&mut self) -> &mut [T];

    /// Indexed mutable parallel iteration over disjoint items.
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
        ParIterMut { slice: self.as_par_slice_mut() }
    }
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn as_par_slice_mut(&mut self) -> &mut [T] {
        self
    }
}

impl<T: Send> ParallelSliceMut<T> for Vec<T> {
    fn as_par_slice_mut(&mut self) -> &mut [T] {
        self
    }
}

pub struct ParIterMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> ParIterMut<'a, T> {
    pub fn enumerate(self) -> ParIterMutEnum<'a, T> {
        ParIterMutEnum { slice: self.slice }
    }

    pub fn for_each(self, f: impl Fn(&'a mut T) + Sync) {
        self.enumerate().for_each(move |(_, item)| f(item));
    }
}

pub struct ParIterMutEnum<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> ParIterMutEnum<'a, T> {
    pub fn for_each(self, f: impl Fn((usize, &'a mut T)) + Sync) {
        let len = self.slice.len();
        let base = SyncPtr(self.slice.as_mut_ptr());
        let base = &base;
        run_groups(len, &|_, lo, hi| {
            for i in lo..hi {
                // SAFETY: group index ranges are disjoint, so each element
                // is handed out exactly once across all workers.
                f((i, unsafe { &mut *base.0.add(i) }));
            }
        });
    }
}

/// The rayon prelude: the traits the adapters hang off.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn range_map_collect_preserves_order() {
        let v: Vec<u64> = (0u64..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, (0..1000).map(|i| i * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn par_iter_mut_visits_every_item_once() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let mut data = vec![0u32; 157];
        pool.install(|| {
            data.par_iter_mut().enumerate().for_each(|(i, slot)| {
                *slot += i as u32 + 1;
            });
        });
        assert_eq!(data, (1..=157).collect::<Vec<u32>>());
    }

    #[test]
    fn par_iter_on_vec_collects_in_order() {
        let input: Vec<(u32, u32)> = (0..97).map(|i| (i, i + 1)).collect();
        let out: Vec<u32> = input.par_iter().map(|&(a, b)| a + b).collect();
        assert_eq!(out, (0..97).map(|i| 2 * i + 1).collect::<Vec<u32>>());
    }

    #[test]
    fn install_nests_and_restores() {
        let outer = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let inner = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        outer.install(|| {
            assert_eq!(current_num_threads(), 3);
            inner.install(|| assert_eq!(current_num_threads(), 1));
            assert_eq!(current_num_threads(), 3);
        });
    }

    #[test]
    fn pool_spawns_threads_once_per_lifetime() {
        let before = spawned_thread_count();
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let after_build = spawned_thread_count();
        assert_eq!(after_build - before, 3, "a 4-thread pool spawns exactly 3 workers");
        // dozens of installs and parallel phases: not one more OS thread
        for round in 0..25 {
            let shifted: Vec<u64> =
                pool.install(|| (0u64..500).into_par_iter().map(|i| i + round).collect());
            assert_eq!(shifted, (0u64..500).map(|i| i + round).collect::<Vec<u64>>());
            let mut data = vec![0u8; 64];
            pool.install(|| {
                data.par_iter_mut().enumerate().for_each(|(i, s)| *s = i as u8);
            });
        }
        assert_eq!(
            spawned_thread_count(),
            after_build,
            "par-adapter calls inside install must reuse the parked workers"
        );
    }

    #[test]
    fn pool_results_match_serial_across_many_jobs() {
        let pool = ThreadPoolBuilder::new().num_threads(5).build().unwrap();
        for n in [0usize, 1, 7, 64, 65, 1000] {
            let par: Vec<usize> = pool.install(|| (0..n).into_par_iter().map(|i| i * i).collect());
            assert_eq!(par, (0..n).map(|i| i * i).collect::<Vec<usize>>());
        }
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                (0..64usize).into_par_iter().for_each(|i| {
                    assert!(i < 10, "deliberate job panic");
                });
            });
        }));
        assert!(boom.is_err(), "the job panic must propagate to the dispatcher");
        // the pool must still dispatch (a dead worker would deadlock here)
        let v: Vec<usize> = pool.install(|| (0usize..100).into_par_iter().map(|i| i + 1).collect());
        assert_eq!(v, (1..=100).collect::<Vec<usize>>());
    }

    #[test]
    fn install_unwinds_cleanly_on_panic() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| panic!("deliberate install panic"));
        }));
        assert!(boom.is_err());
        // the guard must have popped the stale pool and restored the
        // thread count, so adapters keep working outside any install
        assert_eq!(current_num_threads(), default_threads());
        let v: Vec<u64> = (0u64..100).into_par_iter().map(|i| i).collect();
        assert_eq!(v, (0u64..100).collect::<Vec<u64>>());
    }

    #[test]
    fn single_thread_pool_runs_inline_without_workers() {
        let before = spawned_thread_count();
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let v: Vec<u32> = pool.install(|| (0u32..100).into_par_iter().map(|i| i).collect());
        assert_eq!(v.len(), 100);
        assert_eq!(spawned_thread_count(), before, "1-thread pool never spawns");
    }
}
