//! Offline stub of the `rayon` crate covering the API this workspace
//! calls, backed by a **real thread pool** on `std::thread` (no external
//! dependencies).
//!
//! A pool of size `N` keeps `N − 1` worker threads for its whole
//! lifetime; the thread that starts a parallel stage is the `N`-th
//! executor. A pool of size ≤ 1 spawns no threads and runs every stage
//! inline on the caller, which makes the `AARRAY_NUM_THREADS=1`
//! configuration bit-and-timing-identical to sequential execution.
//!
//! **Work distribution.** A stage splits its items into about
//! 4 × threads contiguous chunks and queues them on its pool as one
//! *region*. Every executor claims a region's chunks from one shared
//! cursor until none is left — the submitter from the front, workers
//! from the back. Workers serve the oldest region that still has
//! unclaimed chunks; the submitter claims only from its own region,
//! then waits on that region's latch. No chunk is tied to a thread, so
//! a region never waits on a busy worker: its submitter can run every
//! chunk alone.
//!
//! **Determinism.** Each chunk maps its contiguous items into a vector
//! of its own, and the submitter concatenates those vectors in chunk
//! order, so outputs keep input order whichever thread ran which chunk.
//! The workspace's kernels are row-partitioned with the serial per-row
//! fold order, so their outputs are bit-identical to sequential
//! execution for **any** operations — no associativity or
//! commutativity is assumed.
//!
//! **Panics** in any chunk are caught, the first one is kept, the
//! region still drains (so the pool stays usable), and the panic
//! resumes on the submitting thread — matching real rayon.
//!
//! A stage started inside a chunk runs inline on that thread, so nested
//! stages never fan out again. `current_num_threads()` reports the
//! innermost [`ThreadPool::install`] scope on the current thread (a
//! worker counts as inside its own pool), and otherwise the global
//! pool's size (from the warn-once `AARRAY_NUM_THREADS` env knob,
//! defaulting to `std::thread::available_parallelism()`). See
//! `stubs/README.md` for swapping the real crate back.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

thread_local! {
    /// Stack of pools entered via [`ThreadPool::install`] on this
    /// thread (innermost last). A worker starts with its own pool here.
    static CURRENT_POOL: RefCell<Vec<Arc<Registry>>> = const { RefCell::new(Vec::new()) };
    /// Set while this thread runs a chunk: a stage started inside a
    /// chunk runs inline instead of fanning out again.
    static IN_CHUNK: Cell<bool> = const { Cell::new(false) };
}

/// Chunks run by pool workers, chunks run by submitters on the regions
/// they fanned out, and stages run inline on the caller. Drained by
/// [`take_task_stats`].
static TASKS_LOCAL: AtomicU64 = AtomicU64::new(0);
static TASKS_STOLEN: AtomicU64 = AtomicU64::new(0);
static TASKS_INLINE: AtomicU64 = AtomicU64::new(0);

/// Drain the `(local, stolen, inline)` tallies accumulated since the
/// last call (atomic swap-to-zero, so concurrent drains never
/// double-count). `local` counts chunks a pool worker ran, `stolen`
/// counts chunks a submitter ran on the region it fanned out, and
/// `inline` counts stages that ran on the caller without fanning out
/// (pool size ≤ 1, at most one item, or a stage nested in a chunk).
/// The names read as in a work-stealing pool of two threads, whose one
/// worker deque the worker pops (local) and the submitter steals from
/// (stolen). **Stub extension** — not part of real rayon's API; the
/// workspace's obs bridge is the only caller and is documented in
/// `stubs/README.md` for the swap-back procedure.
pub fn take_task_stats() -> (u64, u64, u64) {
    (
        TASKS_LOCAL.swap(0, Ordering::Relaxed),
        TASKS_STOLEN.swap(0, Ordering::Relaxed),
        TASKS_INLINE.swap(0, Ordering::Relaxed),
    )
}

/// Number of threads in the current pool: the innermost `install`
/// scope (a worker's own pool on a worker thread), else the global
/// pool (sized by `AARRAY_NUM_THREADS` / `available_parallelism`).
pub fn current_num_threads() -> usize {
    current_registry().size
}

fn current_registry() -> Arc<Registry> {
    CURRENT_POOL
        .with(|s| s.borrow().last().cloned())
        .unwrap_or_else(|| global_pool().registry.clone())
}

/// Pool size for the implicit global pool: `AARRAY_NUM_THREADS` when
/// set to a positive integer, otherwise (including `0` = auto) the
/// host's available parallelism. Unparsable values warn once to stderr
/// and fall back to auto.
fn default_pool_size() -> usize {
    static WARNED: AtomicBool = AtomicBool::new(false);
    let auto = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    match std::env::var("AARRAY_NUM_THREADS") {
        Err(_) => auto,
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(0) => auto,
            Ok(n) => n,
            Err(_) => {
                if !WARNED.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "warning: AARRAY_NUM_THREADS={raw:?} is not a \
                         non-negative integer; using {auto} threads"
                    );
                }
                auto
            }
        },
    }
}

/// The implicit pool, built on first use. A static is never dropped,
/// so its workers live as long as the process.
fn global_pool() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        ThreadPoolBuilder::new()
            .build()
            .expect("the stub's pool build never fails")
    })
}

/// Lock one of the pool's mutexes. A poisoned lock is still usable:
/// chunk bodies run outside every lock, and each update under one
/// leaves its data valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// The pool.
// ---------------------------------------------------------------------

/// One parallel stage in flight: its chunk body, the cursor every
/// executor claims chunks from, and the latch its submitter waits on.
struct Region {
    /// Lifetime-erased chunk body; see [`Registry::run_region`].
    body: &'static (dyn Fn(usize) + Sync),
    /// The chunks nobody has claimed yet. The submitter claims from the
    /// front and workers from the back, so at two threads each thread
    /// runs one contiguous run of chunks. Claiming every chunk from the
    /// front made aabench `d4m-pipeline`'s two-thread symbolic and
    /// numeric passes ~15% slower.
    unclaimed: Mutex<Range<usize>>,
    latch: Mutex<Latch>,
    done: Condvar,
}

/// Chunks not yet finished, and the first panic a chunk raised.
struct Latch {
    pending: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl Region {
    fn has_unclaimed(&self) -> bool {
        !lock(&self.unclaimed).is_empty()
    }

    /// The last unclaimed chunk for a worker, the first for the
    /// submitter.
    fn claim(&self, worker: bool) -> Option<usize> {
        let mut unclaimed = lock(&self.unclaimed);
        if worker {
            unclaimed.next_back()
        } else {
            unclaimed.next()
        }
    }

    /// Claim and run chunks until none is left, counting each as local
    /// on a worker and as stolen on the submitter; a chunk's panic goes
    /// to the latch.
    fn claim_chunks(&self, worker: bool) {
        let tally = if worker { &TASKS_LOCAL } else { &TASKS_STOLEN };
        while let Some(chunk) = self.claim(worker) {
            IN_CHUNK.set(true);
            let result = catch_unwind(AssertUnwindSafe(|| (self.body)(chunk)));
            IN_CHUNK.set(false);
            tally.fetch_add(1, Ordering::Relaxed);
            let mut latch = lock(&self.latch);
            if let Err(payload) = result {
                latch.panic.get_or_insert(payload);
            }
            latch.pending -= 1;
            if latch.pending == 0 {
                self.done.notify_all();
            }
        }
    }

    /// Block until every chunk has finished; return the first panic.
    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let mut latch = lock(&self.latch);
        while latch.pending > 0 {
            latch = self
                .done
                .wait(latch)
                .unwrap_or_else(PoisonError::into_inner);
        }
        latch.panic.take()
    }
}

/// A pool's shared state: its size and its queue of regions.
struct Registry {
    size: usize,
    queue: Mutex<Queue>,
    /// Signalled when a region is queued and at shutdown.
    wake: Condvar,
}

/// Regions that may still have unclaimed chunks (oldest first), and the
/// shutdown flag. The flag sits under the regions' mutex, so a worker
/// checks both and parks in one step: the notify that
/// [`ThreadPool`]'s `Drop` sends after raising the flag cannot fall
/// between a worker's check and its wait.
#[derive(Default)]
struct Queue {
    regions: VecDeque<Arc<Region>>,
    shutdown: bool,
}

impl Registry {
    /// A worker's life: run chunks of the oldest region that has
    /// unclaimed ones, park while there is none, return at shutdown.
    fn work(self: Arc<Self>) {
        CURRENT_POOL.with(|s| s.borrow_mut().push(self.clone()));
        loop {
            let region = {
                let mut queue = lock(&self.queue);
                loop {
                    if let Some(r) = queue.regions.iter().find(|r| r.has_unclaimed()) {
                        break r.clone();
                    }
                    if queue.shutdown {
                        return;
                    }
                    queue = self
                        .wake
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            region.claim_chunks(true);
        }
    }

    /// Run `body(c)` for every chunk `c` in `0..chunks`: queue them for
    /// the workers, claim chunks on this thread too, wait until all are
    /// done, and resume the first chunk panic, if any, here.
    fn run_region(&self, chunks: usize, body: &(dyn Fn(usize) + Sync)) {
        // SAFETY: only the lifetime changes. `body` is called only for a
        // chunk claimed from the region's cursor, each of `0..chunks`
        // once, and `wait` below returns only after all of those calls
        // have finished, so no call through the erased reference
        // outlives the borrow. Nothing between here and `wait` unwinds:
        // chunk panics are caught and `lock` ignores poison.
        let body: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(body) };
        let region = Arc::new(Region {
            body,
            unclaimed: Mutex::new(0..chunks),
            latch: Mutex::new(Latch {
                pending: chunks,
                panic: None,
            }),
            done: Condvar::new(),
        });
        lock(&self.queue).regions.push_back(region.clone());
        self.wake.notify_all();
        region.claim_chunks(false);
        // Every chunk is claimed, so no worker needs the region again.
        lock(&self.queue)
            .regions
            .retain(|r| !Arc::ptr_eq(r, &region));
        if let Some(payload) = region.wait() {
            resume_unwind(payload);
        }
    }
}

/// Run `f` on contiguous chunks of `items` and return its results in
/// chunk order. The stage fans out on the current pool as about 4
/// chunks per thread (capped at one item per chunk); it runs as one
/// chunk on the caller when the pool has one thread, when there is at
/// most one item, or when the caller is itself running a chunk.
fn run_chunks<T, R>(mut items: Vec<T>, f: impl Fn(Vec<T>) -> R + Sync) -> Vec<R>
where
    T: Send,
    R: Send,
{
    let registry = current_registry();
    let n = items.len();
    if registry.size <= 1 || n <= 1 || IN_CHUNK.get() {
        if n > 0 {
            TASKS_INLINE.fetch_add(1, Ordering::Relaxed);
        }
        return vec![f(items)];
    }
    let k = (registry.size * 4).min(n);
    // Chunk c starts at c·base + min(c, extra): the first `extra`
    // chunks take one item more than the others.
    let (base, extra) = (n / k, n % k);
    let mut inputs: Vec<Mutex<Option<Vec<T>>>> = (0..k)
        .rev()
        .map(|c| Mutex::new(Some(items.split_off(c * base + c.min(extra)))))
        .collect();
    inputs.reverse();
    let outputs: Vec<Mutex<Option<R>>> = (0..k).map(|_| Mutex::new(None)).collect();
    registry.run_region(k, &|c| {
        let chunk = lock(&inputs[c]).take().expect("a chunk is claimed once");
        let out = f(chunk);
        *lock(&outputs[c]) = Some(out);
    });
    outputs
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every chunk ran")
        })
        .collect()
}

/// Builder for a [`ThreadPool`].
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// New builder with default settings.
    pub fn new() -> Self {
        ThreadPoolBuilder::default()
    }

    /// Set the pool size (0 = automatic: `AARRAY_NUM_THREADS`, else
    /// the host's available parallelism).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Build the pool, spawning its workers. Never fails in the stub.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let size = if self.num_threads == 0 {
            default_pool_size()
        } else {
            self.num_threads
        };
        let registry = Arc::new(Registry {
            size,
            queue: Mutex::new(Queue::default()),
            wake: Condvar::new(),
        });
        let workers = (0..size.saturating_sub(1))
            .map(|w| {
                let registry = registry.clone();
                std::thread::Builder::new()
                    .name(format!("aarray-pool-{w}"))
                    .spawn(move || registry.work())
                    .expect("spawn pool worker")
            })
            .collect();
        Ok(ThreadPool { registry, workers })
    }
}

/// Error type for [`ThreadPoolBuilder::build`] (never produced here).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error (unreachable in stub)")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// A real pool of `size − 1` worker threads plus the submitting thread.
/// Workers are joined when the pool is dropped.
pub struct ThreadPool {
    registry: Arc<Registry>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Execute `op` with this pool as the current one: parallel stages
    /// inside fan out to this pool's workers and
    /// [`current_num_threads`] reports its size.
    pub fn install<O, R>(&self, op: O) -> R
    where
        O: FnOnce() -> R + Send,
        R: Send,
    {
        CURRENT_POOL.with(|s| s.borrow_mut().push(self.registry.clone()));
        struct Guard;
        impl Drop for Guard {
            fn drop(&mut self) {
                CURRENT_POOL.with(|s| {
                    s.borrow_mut().pop();
                });
            }
        }
        let _guard = Guard;
        op()
    }

    /// The configured pool size.
    pub fn current_num_threads(&self) -> usize {
        self.registry.size
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // No region is in flight: submitting one needs `install`, which
        // borrows the pool. Raise the flag under the queue lock (see
        // `Queue`), then wake every worker so each one sees it.
        lock(&self.registry.queue).shutdown = true;
        self.registry.wake.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Rayon-shaped parallel iterators over materialized items. Stages that
/// do per-item work (`map`, `for_each`) run eagerly on the current
/// pool; `collect` runs on the caller.
pub mod iter {
    use super::run_chunks;

    /// A parallel iterator: the items it will distribute, in order.
    pub struct ParIter<T: Send> {
        items: Vec<T>,
    }

    /// Conversion into a parallel iterator by value.
    pub trait IntoParallelIterator {
        /// Element type.
        type Item: Send;
        /// Convert self.
        fn into_par_iter(self) -> ParIter<Self::Item>;
    }

    impl<I: IntoIterator> IntoParallelIterator for I
    where
        I::Item: Send,
    {
        type Item = I::Item;
        fn into_par_iter(self) -> ParIter<I::Item> {
            ParIter {
                items: self.into_iter().collect(),
            }
        }
    }

    impl<T: Send> ParIter<T> {
        /// Map each element (parallel, order-preserving).
        pub fn map<R, F>(self, f: F) -> ParIter<R>
        where
            R: Send,
            F: Fn(T) -> R + Sync + Send,
        {
            let parts = run_chunks(self.items, |chunk| {
                chunk.into_iter().map(&f).collect::<Vec<R>>()
            });
            let mut items = Vec::with_capacity(parts.iter().map(Vec::len).sum());
            for part in parts {
                items.extend(part);
            }
            ParIter { items }
        }

        /// Collect into a container, preserving input order.
        pub fn collect<C>(self) -> C
        where
            C: FromIterator<T>,
        {
            self.items.into_iter().collect()
        }

        /// Consume every element with a side-effecting closure
        /// (parallel; effects must tolerate any interleaving).
        pub fn for_each<F>(self, f: F)
        where
            F: Fn(T) + Sync + Send,
        {
            run_chunks(self.items, |chunk| chunk.into_iter().for_each(&f));
        }
    }
}

/// What `use rayon::prelude::*` is expected to bring in.
pub mod prelude {
    pub use crate::iter::{IntoParallelIterator, ParIter};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc, Mutex};
    use std::time::Duration;

    fn pool(n: usize) -> super::ThreadPool {
        super::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap()
    }

    #[test]
    fn map_collect_matches_serial() {
        for threads in [1, 2, 4, 8] {
            let v: Vec<usize> =
                pool(threads).install(|| (0..1000usize).into_par_iter().map(|x| x * 2).collect());
            assert_eq!(v, (0..1000).map(|x| x * 2).collect::<Vec<_>>(), "{threads}");
        }
    }

    #[test]
    fn install_scopes_thread_count_and_nests() {
        let outer = pool(2);
        let inner = pool(3);
        outer.install(|| {
            assert_eq!(super::current_num_threads(), 2);
            inner.install(|| assert_eq!(super::current_num_threads(), 3));
            assert_eq!(super::current_num_threads(), 2);
        });
        assert_eq!(outer.current_num_threads(), 2);
        assert_eq!(inner.current_num_threads(), 3);
    }

    #[test]
    fn par_iter_propagates_worker_panic() {
        let p = pool(4);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.install(|| {
                (0..100usize)
                    .into_par_iter()
                    .map(|i| if i == 37 { panic!("row 37 boom") } else { i })
                    .collect::<Vec<_>>()
            })
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("row 37 boom"), "{msg:?}");
        // The pool must survive a panicked region.
        let v: Vec<usize> = p.install(|| (0..10usize).into_par_iter().map(|x| x + 1).collect());
        assert_eq!(v, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn nested_parallel_stages_run_inline_on_workers() {
        // A parallel stage inside a parallel stage runs inline on
        // whichever thread runs the outer chunk.
        let serial: Vec<usize> = (0..8usize)
            .map(|i| (0..8usize).map(|j| i * 8 + j).sum())
            .collect();
        let nested: Vec<usize> = pool(4).install(|| {
            (0..8usize)
                .into_par_iter()
                .map(|i| {
                    let row: Vec<usize> = (0..8usize).into_par_iter().map(|j| i * 8 + j).collect();
                    row.into_iter().sum()
                })
                .collect()
        });
        assert_eq!(nested, serial);
    }

    #[test]
    fn work_actually_lands_on_spawned_workers() {
        // With enough chunks and a blocking submitter, at least one
        // chunk must execute on a thread other than the submitter.
        let submitter = std::thread::current().id();
        let elsewhere = AtomicUsize::new(0);
        pool(4).install(|| {
            (0..64usize).into_par_iter().for_each(|_| {
                if std::thread::current().id() != submitter {
                    elsewhere.fetch_add(1, Ordering::Relaxed);
                }
                // Give other executors a window to claim chunks.
                std::thread::sleep(std::time::Duration::from_micros(200));
            });
        });
        assert!(
            elsewhere.load(Ordering::Relaxed) > 0,
            "no chunk ran off the submitting thread"
        );
    }

    /// `take_task_stats` drains process-wide tallies, so the two tests
    /// that read them take turns: otherwise one test's opening drain can
    /// swallow the chunks the other just ran.
    static TASK_STATS: Mutex<()> = Mutex::new(());

    #[test]
    fn task_stats_account_every_chunk() {
        let _turn = TASK_STATS.lock().unwrap_or_else(|e| e.into_inner());
        let _ = super::take_task_stats();
        let p = pool(4);
        let v: Vec<usize> = p.install(|| (0..100usize).into_par_iter().map(|x| x).collect());
        assert_eq!(v.len(), 100);
        let (local, stolen, _inline) = super::take_task_stats();
        // 100 items in a 4-thread pool ⇒ 16 chunks, each counted
        // exactly once somewhere (other tests may add, never subtract).
        assert!(local + stolen >= 16, "local={local} stolen={stolen}");
    }

    #[test]
    fn task_stats_count_inline_chunks_separately() {
        let _turn = TASK_STATS.lock().unwrap_or_else(|e| e.into_inner());
        let _ = super::take_task_stats();
        let p = pool(1);
        let v: Vec<usize> = p.install(|| (0..10usize).into_par_iter().map(|x| x).collect());
        assert_eq!(v.len(), 10);
        let (_, stolen, inline) = super::take_task_stats();
        // A 1-thread pool never fans out: the stage runs inline on the
        // submitting thread. A concurrent test's 4-thread pool may add
        // local/stolen counts, but inline work is what this stage must
        // have produced.
        assert!(inline >= 1, "inline={inline} stolen={stolen}");
    }

    #[test]
    fn region_outputs_are_visible_after_latch() {
        // Hammer the happens-before edge from worker writes to the
        // submitter's read of the chunk outputs.
        let p = pool(4);
        for round in 0..200usize {
            let v: Vec<usize> = p.install(|| {
                (0..32usize)
                    .into_par_iter()
                    .map(|x| x.wrapping_mul(round + 1))
                    .collect()
            });
            for (i, &got) in v.iter().enumerate() {
                assert_eq!(got, i.wrapping_mul(round + 1));
            }
        }
    }

    #[test]
    fn for_each_under_mutation_heavy_contention() {
        // Shared side effects through a mutex stay consistent, and the
        // chunks partition the items exactly.
        let log = Mutex::new(Vec::new());
        pool(8).install(|| {
            (0..500usize).into_par_iter().for_each(|x| {
                log.lock().unwrap().push(x);
            });
        });
        let mut seen = log.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn a_region_completes_while_the_only_worker_is_busy() {
        // Region A holds the one worker of a 2-thread pool inside one
        // of its chunks. A's other chunk, on A's submitter, spins until
        // the worker has entered, so the worker cannot avoid taking a
        // chunk. A second submitter's region must then finish on its
        // own thread instead of waiting for the worker.
        let p = Arc::new(pool(2));
        let entered = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let (entered_tx, entered_rx) = mpsc::channel();
        let holder = {
            let (p, entered, release) = (p.clone(), entered.clone(), release.clone());
            std::thread::spawn(move || {
                let submitter = std::thread::current().id();
                p.install(|| {
                    (0..2usize).into_par_iter().for_each(|_| {
                        if std::thread::current().id() == submitter {
                            while !entered.load(Ordering::SeqCst) {
                                std::thread::yield_now();
                            }
                        } else {
                            entered.store(true, Ordering::SeqCst);
                            let _ = entered_tx.send(());
                            while !release.load(Ordering::SeqCst) {
                                std::thread::yield_now();
                            }
                        }
                    })
                });
            })
        };
        let held = entered_rx.recv_timeout(Duration::from_secs(10));
        let (done_tx, done_rx) = mpsc::channel();
        if held.is_ok() {
            let p = p.clone();
            std::thread::spawn(move || {
                let v: Vec<usize> =
                    p.install(|| (0..64usize).into_par_iter().map(|x| x * 3).collect());
                let _ = done_tx.send(v);
            });
        }
        let second = done_rx.recv_timeout(Duration::from_secs(10));
        release.store(true, Ordering::SeqCst);
        assert!(held.is_ok(), "the worker never entered region A");
        let v = second.expect("a region waited on the busy worker");
        assert_eq!(v, (0..64).map(|x| x * 3).collect::<Vec<_>>());
        holder.join().expect("region A finishes once released");
    }

    #[test]
    fn concurrent_submitters_share_one_pool() {
        let p = pool(3);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let p = &p;
                s.spawn(move || {
                    for round in 0..100usize {
                        let v: Vec<usize> = p.install(|| {
                            (0..50usize)
                                .into_par_iter()
                                .map(|x| x * t + round)
                                .collect()
                        });
                        assert_eq!(v, (0..50).map(|x| x * t + round).collect::<Vec<_>>());
                    }
                });
            }
        });
    }
}
